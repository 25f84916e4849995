// White-box assertions of the paper's Figure-2 rules, one by one: a
// single FallbackReplica is driven with handcrafted (correctly signed)
// messages, and we observe exactly what it sends. Where the other suites
// check emergent behaviour, these check the *letter* of each rule.
#include <gtest/gtest.h>

#include "core/diembft.h"
#include "core/fallback.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace repro::core {
namespace {

using smr::Block;
using smr::CertKind;
using smr::Certificate;
using smr::Message;

/// Rig: replica 0 is the unit under test; deliveries to replicas 1..3 are
/// captured for inspection.
struct Rig {
  sim::Simulation sim;
  std::shared_ptr<const crypto::CryptoSystem> crypto_sys;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<FallbackReplica> replica;
  /// Captured (to, from, decoded message) triples.
  std::vector<std::tuple<ReplicaId, ReplicaId, Message>> captured;

  explicit Rig(FallbackParams fb = {}, ProtocolConfig pcfg = {}) {
    crypto_sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 777);
    net = std::make_unique<net::Network>(sim, 4, std::make_unique<net::FixedDelayModel>(1),
                                         Rng(1));
    ReplicaContext ctx;
    ctx.sim = &sim;
    ctx.net = net.get();
    ctx.crypto = crypto_sys;
    ctx.id = 0;
    ctx.config = pcfg;
    ctx.seed = 7;
    replica = std::make_unique<FallbackReplica>(ctx, fb);
    net->register_handler(0, [this](ReplicaId from, const Bytes& payload) {
      replica->on_message(from, payload);
    });
    for (ReplicaId id = 1; id < 4; ++id) {
      net->register_handler(id, [this, id](ReplicaId from, const Bytes& payload) {
        captured.emplace_back(id, from, *smr::decode_message(payload));
      });
    }
  }

  /// Deliver a message to the replica as if sent by `from`, then settle
  /// briefly. Settling is time-bounded (10 ms) so the replica's 400 ms
  /// round timer does NOT fire as a side effect of every injection.
  void inject(ReplicaId from, Message msg) {
    smr::sign_message(*crypto_sys, from, msg);
    net->send(from, 0, smr::encode_message(msg));
    settle();
  }

  void settle() { sim.run_until(sim.now() + 10'000); }

  template <typename T>
  std::vector<T> sent() const {
    std::vector<T> out;
    for (const auto& [to, from, msg] : captured) {
      if (const T* m = std::get_if<T>(&msg)) out.push_back(*m);
    }
    return out;
  }

  Certificate make_qc(const Block& b) const {
    std::vector<crypto::PartialSig> shares;
    const Bytes m = cert_signing_message(CertKind::kQuorum, b.id, b.round, b.view, 0, 0);
    for (ReplicaId i = 0; i < 3; ++i) shares.push_back(crypto_sys->quorum_sigs.sign_share(i, m));
    return *smr::combine_certificate(*crypto_sys, CertKind::kQuorum, b.id, b.round, b.view, 0,
                                     0, shares);
  }

  Certificate make_fqc(const Block& b) const {
    std::vector<crypto::PartialSig> shares;
    const Bytes m =
        cert_signing_message(CertKind::kFallback, b.id, b.round, b.view, b.height, b.proposer);
    for (ReplicaId i = 0; i < 3; ++i) shares.push_back(crypto_sys->quorum_sigs.sign_share(i, m));
    return *smr::combine_certificate(*crypto_sys, CertKind::kFallback, b.id, b.round, b.view,
                                     b.height, b.proposer, shares);
  }

  smr::FallbackTC make_ftc(View v) const {
    std::vector<crypto::PartialSig> shares;
    for (ReplicaId i = 0; i < 3; ++i) {
      shares.push_back(crypto_sys->quorum_sigs.sign_share(i, smr::ftc_signing_message(v)));
    }
    return *smr::combine_ftc(*crypto_sys, v, shares);
  }

  smr::FbTimeoutMsg timeout_from(ReplicaId i, View v) const {
    smr::FbTimeoutMsg m;
    m.view = v;
    m.view_share = crypto_sys->quorum_sigs.sign_share(i, smr::ftc_signing_message(v));
    m.qc_high = smr::genesis_certificate();
    return m;
  }
};

// ---- steady-state vote rule ---------------------------------------------------

TEST(VoteRule, VotesForValidRound1Proposal) {
  // Round 1's leader is replica 0 itself in the default schedule; use a
  // config with rotation 1 so round 2's leader is replica 1 and we can
  // inject an external proposal. First feed the round-1 QC via a
  // proposal... simplest: rotation=1, leader(1)=0 proposes itself at
  // start; we then inject leader(2)=1's proposal extending that QC.
  ProtocolConfig pcfg;
  pcfg.leader_rotation = 1;
  Rig rig({}, pcfg);
  rig.replica->start();
  rig.settle();  // replica 0 proposes round 1 and multicasts
  const auto proposals = rig.sent<smr::ProposalMsg>();
  ASSERT_FALSE(proposals.empty());
  const Block b1 = proposals.front().block;
  const Certificate qc1 = rig.make_qc(b1);

  smr::ProposalMsg p2;
  p2.block = Block::make(qc1, 2, 0, 0, /*proposer=*/1, Bytes{2});
  rig.captured.clear();
  rig.inject(1, p2);

  const auto votes = rig.sent<smr::VoteMsg>();
  ASSERT_EQ(votes.size(), 1u);  // voted exactly once
  EXPECT_EQ(votes[0].round, 2u);
  EXPECT_EQ(votes[0].block_id, p2.block.id);
  EXPECT_EQ(rig.replica->r_vote(), 2u);
}

TEST(VoteRule, RejectsRoundGapProposal) {
  // Fig 2 adds r == qc.r + 1: a proposal whose round skips ahead of its
  // parent QC must not be voted, even if everything else is valid.
  ProtocolConfig pcfg;
  pcfg.leader_rotation = 1;
  Rig rig({}, pcfg);
  rig.replica->start();
  rig.settle();
  const Block b1 = rig.sent<smr::ProposalMsg>().front().block;
  const Certificate qc1 = rig.make_qc(b1);

  smr::ProposalMsg gap;
  gap.block = Block::make(qc1, 3, 0, 0, /*proposer=*/2, Bytes{3});  // leader(3)=2, gap!
  rig.captured.clear();
  rig.inject(2, gap);
  EXPECT_TRUE(rig.sent<smr::VoteMsg>().empty());
}

TEST(VoteRule, RejectsWrongLeader) {
  ProtocolConfig pcfg;
  pcfg.leader_rotation = 1;
  Rig rig({}, pcfg);
  rig.replica->start();
  rig.settle();
  const Block b1 = rig.sent<smr::ProposalMsg>().front().block;
  const Certificate qc1 = rig.make_qc(b1);

  smr::ProposalMsg p2;
  p2.block = Block::make(qc1, 2, 0, 0, /*proposer=*/3, Bytes{2});  // leader(2)=1, not 3
  rig.captured.clear();
  rig.inject(3, p2);
  EXPECT_TRUE(rig.sent<smr::VoteMsg>().empty());
}

TEST(VoteRule, NeverVotesTwiceForTheSameRound) {
  ProtocolConfig pcfg;
  pcfg.leader_rotation = 1;
  Rig rig({}, pcfg);
  rig.replica->start();
  rig.settle();
  const Block b1 = rig.sent<smr::ProposalMsg>().front().block;
  const Certificate qc1 = rig.make_qc(b1);

  smr::ProposalMsg p2a, p2b;
  p2a.block = Block::make(qc1, 2, 0, 0, 1, Bytes{0xaa});
  p2b.block = Block::make(qc1, 2, 0, 0, 1, Bytes{0xbb});  // equivocation
  rig.captured.clear();
  rig.inject(1, p2a);
  rig.inject(1, p2b);
  EXPECT_EQ(rig.sent<smr::VoteMsg>().size(), 1u);  // r_vote blocks the second
}

// ---- timeout & Enter Fallback ---------------------------------------------------

TEST(EnterFallback, TimerExpiryMulticastsViewShareAndQcHigh) {
  Rig rig;
  rig.replica->start();
  rig.sim.run_until(500'000);  // base timeout 400 ms passes with no progress
  const auto timeouts = rig.sent<smr::FbTimeoutMsg>();
  ASSERT_FALSE(timeouts.empty());
  EXPECT_EQ(timeouts[0].view, 0u);  // share signs the *view*, not the round
  EXPECT_TRUE(rig.crypto_sys->quorum_sigs.verify_share(timeouts[0].view_share,
                                                       smr::ftc_signing_message(0)));
  EXPECT_TRUE(rig.replica->in_fallback());
}

TEST(EnterFallback, FtcTriggersHeight1FBlockWithFtcAttached) {
  Rig rig;
  rig.replica->start();
  // Deliver 3 timeout messages (quorum) from peers: replica 0 forms the
  // f-TC, enters the fallback and multicasts its height-1 f-block.
  for (ReplicaId i = 1; i <= 3; ++i) rig.inject(i, rig.timeout_from(i, 0));
  const auto fprops = rig.sent<smr::FbProposalMsg>();
  ASSERT_FALSE(fprops.empty());
  EXPECT_EQ(fprops[0].block.height, 1u);
  EXPECT_EQ(fprops[0].block.proposer, 0u);
  EXPECT_EQ(fprops[0].block.round, 1u);  // qc_high(genesis).round + 1
  ASSERT_TRUE(fprops[0].ftc.has_value());
  EXPECT_TRUE(verify_ftc(*rig.crypto_sys, *fprops[0].ftc));
  EXPECT_TRUE(rig.replica->in_fallback());
}

TEST(EnterFallback, StaleViewFtcIgnored) {
  Rig rig;
  rig.replica->start();
  for (ReplicaId i = 1; i <= 3; ++i) rig.inject(i, rig.timeout_from(i, 0));
  ASSERT_TRUE(rig.replica->in_fallback());
  const auto before = rig.sent<smr::FbProposalMsg>().size();
  // Re-delivering the same view's f-TC must not re-enter / re-propose.
  smr::FbProposalMsg carrier;
  carrier.block = Block::make(smr::genesis_certificate(), 1, 0, 1, 1, Bytes{1});
  carrier.ftc = rig.make_ftc(0);
  rig.inject(1, carrier);
  // (the carrier may earn a fallback *vote*, but no new h1 proposal)
  EXPECT_EQ(rig.sent<smr::FbProposalMsg>().size(), before);
}

// ---- Fallback Vote rules ---------------------------------------------------------

TEST(FallbackVote, VotesValidHeight1AndRecordsPerProposerState) {
  Rig rig;
  rig.replica->start();
  for (ReplicaId i = 1; i <= 3; ++i) rig.inject(i, rig.timeout_from(i, 0));
  rig.captured.clear();

  smr::FbProposalMsg h1;
  h1.block = Block::make(smr::genesis_certificate(), 1, 0, 1, /*proposer=*/2, Bytes{9});
  h1.ftc = rig.make_ftc(0);
  rig.inject(2, h1);

  const auto votes = rig.sent<smr::FbVoteMsg>();
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0].chain_owner, 2u);
  EXPECT_EQ(votes[0].height, 1u);
  // Vote goes back to the chain owner only.
  EXPECT_EQ(std::get<0>(rig.captured.back()), 2u);
}

TEST(FallbackVote, RefusesSecondHeight1FromSameProposer) {
  Rig rig;
  rig.replica->start();
  for (ReplicaId i = 1; i <= 3; ++i) rig.inject(i, rig.timeout_from(i, 0));
  rig.captured.clear();

  smr::FbProposalMsg a, b;
  a.block = Block::make(smr::genesis_certificate(), 1, 0, 1, 2, Bytes{0xaa});
  a.ftc = rig.make_ftc(0);
  b.block = Block::make(smr::genesis_certificate(), 1, 0, 1, 2, Bytes{0xbb});
  b.ftc = rig.make_ftc(0);
  rig.inject(2, a);
  rig.inject(2, b);  // h̄_vote[2] == 1 blocks this
  EXPECT_EQ(rig.sent<smr::FbVoteMsg>().size(), 1u);
}

TEST(FallbackVote, Height1WithoutFtcRejected) {
  Rig rig;
  rig.replica->start();
  for (ReplicaId i = 1; i <= 3; ++i) rig.inject(i, rig.timeout_from(i, 0));
  rig.captured.clear();

  smr::FbProposalMsg h1;
  h1.block = Block::make(smr::genesis_certificate(), 1, 0, 1, 2, Bytes{9});
  // no ftc attached
  rig.inject(2, h1);
  EXPECT_TRUE(rig.sent<smr::FbVoteMsg>().empty());
}

TEST(FallbackVote, Height2NeedsMatchingParentFqc) {
  Rig rig;
  rig.replica->start();
  for (ReplicaId i = 1; i <= 3; ++i) rig.inject(i, rig.timeout_from(i, 0));

  // Valid h1 by replica 2, certified; h2 extending it is votable...
  Block h1 = Block::make(smr::genesis_certificate(), 1, 0, 1, 2, Bytes{1});
  const Certificate fqc1 = rig.make_fqc(h1);
  rig.captured.clear();
  smr::FbProposalMsg h2;
  h2.block = Block::make(fqc1, 2, 0, 2, 2, Bytes{2});
  rig.inject(2, h2);
  EXPECT_EQ(rig.sent<smr::FbVoteMsg>().size(), 1u);

  // ...but an h3 whose height skips (parent is h1, not h2) is rejected.
  rig.captured.clear();
  smr::FbProposalMsg h3bad;
  h3bad.block = Block::make(fqc1, 2, 0, 3, 2, Bytes{3});
  rig.inject(2, h3bad);
  EXPECT_TRUE(rig.sent<smr::FbVoteMsg>().empty());
}

TEST(FallbackVote, NoVotesOutsideFallbackMode) {
  Rig rig;
  rig.replica->start();  // steady state, never timed out
  rig.captured.clear();
  smr::FbProposalMsg h1;
  h1.block = Block::make(smr::genesis_certificate(), 1, 0, 1, 2, Bytes{9});
  h1.ftc = rig.make_ftc(0);
  rig.inject(2, h1);
  // The attached f-TC pulls the replica INTO the fallback (Enter
  // Fallback triggers on any valid f-TC), after which it does vote — the
  // rule under test is the ordering: entry precedes any fallback vote.
  EXPECT_TRUE(rig.replica->in_fallback());
  EXPECT_EQ(rig.sent<smr::FbVoteMsg>().size(), 1u);
}

// ---- Exit Fallback ----------------------------------------------------------------

TEST(ExitFallback, CoinQcExitsAndAdvancesView) {
  Rig rig;
  rig.replica->start();
  for (ReplicaId i = 1; i <= 3; ++i) rig.inject(i, rig.timeout_from(i, 0));
  ASSERT_TRUE(rig.replica->in_fallback());

  std::vector<crypto::PartialSig> shares = {rig.crypto_sys->coin.coin_share(1, 0),
                                            rig.crypto_sys->coin.coin_share(2, 0)};
  const smr::CoinQC coin = *smr::combine_coin_qc(*rig.crypto_sys, 0, shares);
  rig.captured.clear();
  rig.inject(1, smr::CoinQcMsg{coin, std::nullopt});

  EXPECT_FALSE(rig.replica->in_fallback());
  EXPECT_EQ(rig.replica->current_view(), 1u);
  // Exit Fallback forwards the coin-QC to everyone.
  EXPECT_FALSE(rig.sent<smr::CoinQcMsg>().empty());
}

// ---- delivery verification (nothing is memoised) ------------------------------

TEST(DeliveryVerification, ReplayedPayloadUnderAnotherSenderIsDropped) {
  // Envelope signatures bind a payload to its signer. Once replica 1's
  // genuine fb-timeout was accepted, the identical bytes delivered as if
  // from replica 2 must fail replica 2's signature check: no share, no
  // certificate check, no reply, only the parse.
  Rig rig;
  rig.replica->start();
  rig.settle();
  rig.captured.clear();

  const Block b = Block::make(smr::genesis_certificate(), 1, 0, 0, 0, Bytes{});
  smr::FbTimeoutMsg m = rig.timeout_from(1, 0);
  m.qc_high = rig.make_qc(b);
  Message msg = m;
  smr::sign_message(*rig.crypto_sys, 1, msg);
  const Bytes payload = smr::encode_message(msg);

  const ReplicaStats& st = rig.replica->stats();
  const std::uint64_t before = st.cert_verify_misses;
  rig.net->send(1, 0, payload);
  rig.settle();
  ASSERT_GT(st.cert_verify_misses, before);  // accepted: qc_high was checked
  const std::uint64_t decodes = st.decode_misses;
  const std::uint64_t shares = st.shares_verified;
  const std::uint64_t certs = st.cert_verify_misses;
  rig.captured.clear();

  rig.net->send(2, 0, payload);
  rig.settle();
  EXPECT_EQ(st.decode_misses, decodes + 1);
  EXPECT_EQ(st.shares_verified, shares);
  EXPECT_EQ(st.bad_shares_rejected, 0u);
  EXPECT_EQ(st.cert_verify_misses, certs);
  EXPECT_FALSE(rig.replica->in_fallback());
  EXPECT_TRUE(rig.captured.empty());
}

TEST(DeliveryVerification, MutatedRelayOfAcceptedCertificateIsRejected) {
  // A certificate that verified once earns nothing for a later copy: the
  // same top f-QC relayed with a mutated signature is verified in full,
  // fails, and is blamed on its sender.
  Rig rig;
  rig.replica->start();
  rig.settle();
  const Block b = Block::make(smr::genesis_certificate(), 1, 0, 3, 1, Bytes{});
  const Certificate fqc = rig.make_fqc(b);

  rig.inject(1, smr::FbQcMsg{fqc, {}});
  EXPECT_EQ(rig.replica->stats().bad_certs_rejected, 0u);
  EXPECT_EQ(rig.replica->stats().cert_verify_misses, 1u);

  Certificate forged = fqc;
  forged.sig.value ^= 1;
  rig.inject(2, smr::FbQcMsg{forged, {}});
  EXPECT_EQ(rig.replica->stats().bad_certs_rejected, 1u);
  EXPECT_EQ(rig.replica->stats().cert_verify_misses, 2u);
  ASSERT_GT(rig.replica->cert_blame().size(), 2u);
  EXPECT_EQ(rig.replica->cert_blame()[1], 0u);
  EXPECT_EQ(rig.replica->cert_blame()[2], 1u);
}

// ---- coin-share view horizon --------------------------------------------------

TEST(CoinShareHorizon, FarFutureSharesAreRejected) {
  // coin_quorum = f+1 = 2 for n=4: two Byzantine shares for a far-future
  // view would otherwise combine into a coin-QC (stuffing coin_shares_,
  // which prune_stale_pools never drops because it only prunes the past).
  Rig rig;
  rig.replica->start();
  for (ReplicaId i : {1u, 2u}) {
    smr::CoinShareMsg m;
    m.view = 50;  // far beyond v_cur (0) + kCoinViewHorizon (8)
    m.share = rig.crypto_sys->coin.coin_share(i, 50);
    rig.inject(i, m);
  }
  EXPECT_EQ(rig.replica->coins().count(50), 0u);
  EXPECT_TRUE(rig.sent<smr::CoinQcMsg>().empty());
  EXPECT_EQ(rig.replica->current_view(), 0u);
}

TEST(CoinShareHorizon, SharesAtTheHorizonStillCombine) {
  // The horizon is inclusive: view v_cur + kCoinViewHorizon is accepted,
  // so the check cannot strand a replica lagging a few views behind.
  Rig rig;
  rig.replica->start();
  const View v = FallbackReplica::kCoinViewHorizon;  // v_cur == 0
  for (ReplicaId i : {1u, 2u}) {
    smr::CoinShareMsg m;
    m.view = v;
    m.share = rig.crypto_sys->coin.coin_share(i, v);
    rig.inject(i, m);
  }
  EXPECT_EQ(rig.replica->coins().count(v), 1u);
  EXPECT_FALSE(rig.sent<smr::CoinQcMsg>().empty());
}

TEST(ExitFallback, StaleCoinDoesNotRegressView) {
  Rig rig;
  rig.replica->start();
  for (ReplicaId i = 1; i <= 3; ++i) rig.inject(i, rig.timeout_from(i, 0));
  std::vector<crypto::PartialSig> shares = {rig.crypto_sys->coin.coin_share(1, 0),
                                            rig.crypto_sys->coin.coin_share(2, 0)};
  const smr::CoinQC coin0 = *smr::combine_coin_qc(*rig.crypto_sys, 0, shares);
  rig.inject(1, smr::CoinQcMsg{coin0, std::nullopt});
  ASSERT_EQ(rig.replica->current_view(), 1u);
  rig.inject(2, smr::CoinQcMsg{coin0, std::nullopt});  // replay of the old view's coin
  EXPECT_EQ(rig.replica->current_view(), 1u);
  EXPECT_FALSE(rig.replica->in_fallback());
}

// ---- block-id check: once, where each block arrives -----------------------
//
// A received block's id is checked at its arrival handler and nowhere
// after it (store_block trusts its caller). Each path must therefore drop
// a block whose id does not match its contents: one that slipped through
// would reach BlockStore::insert's assertion and abort the process.

/// Delivers `msg` as signed wire bytes from replica 1 to a fresh replica 0
/// and reports whether replica 0 then holds a block with id `id`.
template <typename Replica>
bool stores_after_delivery(Message msg, const smr::BlockId& id) {
  sim::Simulation sim;
  auto crypto_sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 777);
  net::Network net(sim, 4, std::make_unique<net::FixedDelayModel>(1), Rng(1));
  ReplicaContext ctx;
  ctx.sim = &sim;
  ctx.net = &net;
  ctx.crypto = crypto_sys;
  ctx.id = 0;
  ctx.config.leader_rotation = 1;  // round 2's leader is replica 1
  ctx.seed = 7;
  std::unique_ptr<Replica> replica;
  if constexpr (std::is_same_v<Replica, FallbackReplica>) {
    replica = std::make_unique<Replica>(ctx, FallbackParams{});
  } else {
    replica = std::make_unique<Replica>(ctx);
  }
  net.register_handler(0, [&](ReplicaId from, const Bytes& payload) {
    replica->on_message(from, payload);
  });
  for (ReplicaId i = 1; i < 4; ++i) net.register_handler(i, [](ReplicaId, const Bytes&) {});
  smr::sign_message(*crypto_sys, 1, msg);
  net.send(1, 0, smr::encode_message(msg));
  sim.run_until(10'000);
  return replica->store().contains(id);
}

/// Each message kind carrying a block from replica 1 that replica 0 would
/// store: a round-2 proposal, a height-1 f-block, a block response.
std::vector<Message> block_carriers(const Block& b, const Block& fb) {
  smr::ProposalMsg p;
  p.block = b;
  smr::FbProposalMsg f;
  f.block = fb;
  smr::BlockResponseMsg r;
  r.blocks = {b};
  return {p, f, r};
}

template <typename Replica>
void expect_tampered_blocks_dropped(bool handles_fblocks) {
  const Certificate g = smr::genesis_certificate();
  const Block b = Block::make(g, 2, 0, 0, 1, Bytes{1, 2, 3});
  const Block fb = Block::make(g, 1, 0, 1, 1, Bytes{4, 5, 6});
  Block tampered_b = b;
  tampered_b.payload.back() ^= 1;
  Block tampered_fb = fb;
  tampered_fb.payload.back() ^= 1;
  const auto valid = block_carriers(b, fb);
  const auto tampered = block_carriers(tampered_b, tampered_fb);
  const smr::BlockId ids[] = {b.id, fb.id, b.id};
  for (std::size_t i = 0; i < valid.size(); ++i) {
    const bool is_fblock = std::holds_alternative<smr::FbProposalMsg>(valid[i]);
    // The control: the intact block reaches the store on this path...
    EXPECT_EQ(stores_after_delivery<Replica>(valid[i], ids[i]), !is_fblock || handles_fblocks)
        << "message kind " << valid[i].index();
    // ...and the same block with one payload bit flipped never does.
    EXPECT_FALSE(stores_after_delivery<Replica>(tampered[i], ids[i]))
        << "message kind " << tampered[i].index();
  }
}

TEST(BlockIdCheck, DiemBftDropsIdInconsistentBlockOnEveryArrivalPath) {
  expect_tampered_blocks_dropped<DiemBftReplica>(/*handles_fblocks=*/false);
}

TEST(BlockIdCheck, FallbackDropsIdInconsistentBlockOnEveryArrivalPath) {
  expect_tampered_blocks_dropped<FallbackReplica>(/*handles_fblocks=*/true);
}

}  // namespace
}  // namespace repro::core
