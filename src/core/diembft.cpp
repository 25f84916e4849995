#include "core/diembft.h"

#include "common/log.h"

namespace repro::core {

void DiemBftReplica::start() {
  if (fault().crashed()) return;
  recover_from_wal();
  resume_batch_recovery();  // re-pull batches in flight at crash time
  // Initial state per Fig 1: r_vote = 0, rank_lock = (0,0), r_cur = 1,
  // qc_high = genesis QC; enter round 1.
  arm_timer();
  maybe_propose();
  if (fault().spams_timeouts()) spam_timeouts();
}

void DiemBftReplica::spam_timeouts() {
  // The loop dies when the fault is cleared or flipped mid-run
  // (set_fault); on_fault_changed restarts it on a fresh spam edge.
  if (halted() || !fault().spams_timeouts()) return;
  smr::DiemTimeoutMsg msg;
  msg.round = r_cur_;
  msg.round_share = maybe_corrupt(
      crypto_sys().quorum_sigs.sign_share(id(), smr::tc_signing_message(r_cur_)));
  msg.qc_high = qc_high();
  multicast(std::move(msg));
  sim().schedule_after(config().base_timeout_us / 2, [this] { spam_timeouts(); });
}

void DiemBftReplica::handle_message(ReplicaId from, smr::Message&& msg) {
  if (auto* p = std::get_if<smr::ProposalMsg>(&msg)) {
    handle_proposal(from, std::move(*p));
  } else if (auto* v = std::get_if<smr::VoteMsg>(&msg)) {
    handle_vote(from, *v);
  } else if (auto* t = std::get_if<smr::DiemTimeoutMsg>(&msg)) {
    handle_timeout(from, *t);
  } else if (auto* tc = std::get_if<smr::DiemTcMsg>(&msg)) {
    if (verify_cert(tc->tc)) handle_tc(tc->tc);
  }
  // Fallback-protocol message types are ignored by the baseline.
}

void DiemBftReplica::lock_step(const smr::Certificate& qc, ReplicaId hint) {
  // 2-chain lock on the parent's rank; qc_high <- max. These run before
  // Advance Round: entering a new round can make us propose, and the
  // proposal must extend the *updated* qc_high.
  lock_parent_rank(qc, hint);
  update_qc_high(qc);
  // Advance Round: a round-(r-1) QC lets us enter round r.
  advance_to(qc.round + 1, std::nullopt);
  // Commit (3-chain) scan.
  note_certificate(qc, hint);
}

void DiemBftReplica::advance_to(Round round, const std::optional<smr::TimeoutCert>& tc) {
  if (round <= r_cur_) return;
  r_cur_ = round;
  timed_out_cur_round_ = false;
  entry_tc_ = tc;
  if (r_cur_ % 64 == 0) {
    // Bound memory on long runs: shares for long-past rounds are dead.
    const Round floor = r_cur_ > 64 ? r_cur_ - 64 : 0;
    votes_.erase_if([floor](const std::tuple<smr::BlockId, Round>& key) {
      return std::get<1>(key) < floor;
    });
    timeout_shares_.erase_if([floor](Round r) { return r < floor; });
  }
  if (tc) {
    // "Upon entering round r, the replica sends the round-(r-1) tc to L_r."
    send(leader_of(round), smr::DiemTcMsg{*tc});
  } else {
    consecutive_timeouts_ = 0;  // progress via QC
  }
  arm_timer();
  maybe_propose();
}

void DiemBftReplica::maybe_propose() {
  if (leader_of(r_cur_) != id()) return;
  if (last_proposed_round_ >= r_cur_) return;
  if (fault().mute()) return;
  last_proposed_round_ = r_cur_;
  persist_vote_state();  // durable before the proposal leaves

  if (fault().equivocates()) {
    // Conflicting blocks for the same round, sent to disjoint halves.
    smr::Block a = smr::Block::make(qc_high(), r_cur_, 0, 0, id(), next_payload());
    smr::Block b = smr::Block::make(qc_high(), r_cur_, 0, 0, id(), next_payload());
    store_block(a, id());
    note_block_born(a.id);
    note_block_born(b.id);
    for (ReplicaId to = 0; to < params().n; ++to) {
      smr::ProposalMsg msg;
      msg.block = (to % 2 == 0) ? a : b;
      msg.tc = entry_tc_;
      send(to, std::move(msg));
    }
    ++stats_.proposals_sent;
    trace(obs::EventKind::kProposalSent, 0, r_cur_);
    return;
  }

  // Pipelined payload (DESIGN.md §12): pre-announced batch or a fresh one.
  PayloadChoice pc = take_payload();
  smr::Block block = smr::Block::make(qc_high(), r_cur_, /*view=*/0, /*height=*/0, id(),
                                      std::move(pc.payload), pc.kind);
  store_block(block, id());
  note_block_born(block.id);
  smr::ProposalMsg msg;
  msg.block = std::move(block);
  msg.tc = entry_tc_;
  ++stats_.proposals_sent;
  trace(obs::EventKind::kProposalSent, 0, r_cur_);
  multicast(std::move(msg));
}

void DiemBftReplica::arm_timer() {
  if (timer_ != sim::kInvalidEvent) sim().cancel(timer_);
  const std::uint64_t factor =
      std::min<std::uint64_t>(1 + consecutive_timeouts_, config().max_timeout_factor);
  const Round round = r_cur_;
  timer_ = sim().schedule_after(config().base_timeout_us * factor,
                                [this, round] { on_timer_fired(round); });
}

void DiemBftReplica::on_timer_fired(Round round) {
  // Dead instance, (dynamically) crashed replica, or stale timer.
  if (halted() || fault().crashed() || round != r_cur_) return;
  timer_ = sim::kInvalidEvent;
  // "Upon the timer T_r expires, the replica stops voting for round r and
  // multicasts a timeout message <{r}_i, qc_high>_i."
  timed_out_cur_round_ = true;
  ++consecutive_timeouts_;
  ++stats_.timeouts_sent;
  smr::DiemTimeoutMsg msg;
  msg.round = r_cur_;
  msg.round_share = maybe_corrupt(
      crypto_sys().quorum_sigs.sign_share(id(), smr::tc_signing_message(r_cur_)));
  msg.qc_high = qc_high();
  multicast(std::move(msg));
}

void DiemBftReplica::handle_proposal(ReplicaId from, smr::ProposalMsg&& msg) {
  smr::Block& block = msg.block;
  // Validity: well-formed regular block from the designated leader.
  if (!block.id_consistent() || block.height != 0 || block.view != 0) return;
  if (block.proposer != from || leader_of(block.round) != from) return;
  if (!verify_cert(block.parent)) return;
  if (msg.tc && verify_cert(*msg.tc)) handle_tc(*msg.tc);

  const smr::Certificate parent = block.parent;
  const Round r = block.round;
  const smr::BlockId id_of_block = block.id;
  maybe_forge_ghost_chain(block);  // kGhostChain only; no-op when honest
  // This block passed proposal authentication (signed envelope from the
  // round's leader): it — and only it — may earn this round's vote, even
  // when the vote is deferred until its batch resolves.
  note_vote_candidate(block);
  store_block(std::move(block), from);
  trace(obs::EventKind::kProposalReceived, 0, r, 0, from);

  // "Upon receiving the first valid proposal from L_r, execute Lock."
  lock_step(parent, from);

  if (const smr::Block* stored = store().get(id_of_block)) try_vote(*stored);
}

void DiemBftReplica::try_vote(const smr::Block& block) {
  // Vote rule: r == r_cur, v == v_cur, r > r_vote, qc.rank >= rank_lock
  // (and we have not timed out this round).
  const Round r = block.round;
  if (block.height != 0 || block.view != 0) return;
  if (r != r_cur_ || r <= r_vote_ || timed_out_cur_round_) return;
  // Proposal authentication: blocks that entered the store via catch-up
  // (BlockResponseMsg) never passed handle_proposal's leader check, and
  // the deferred retry below must not vote on them.
  if (block.proposer != leader_of(r)) return;
  if (!config().unsafe_trust_catchup_blocks && !vote_candidate(block)) return;
  if (block.parent.rank(false) < rank_lock()) return;
  // Batch-reference blocks: defer the vote until the payload resolves
  // (store_block started the pull); on_batch_resolved retries this rule.
  if (!block.payload_resolved()) return;
  if (!externally_valid(block.txns())) return;
  if (fault().withholds_votes()) return;

  r_vote_ = r;
  persist_vote_state();  // durable before the vote leaves
  ++stats_.votes_sent;
  trace(obs::EventKind::kVoteSent, 0, r);
  smr::VoteMsg vote;
  vote.block_id = block.id;
  vote.round = r;
  vote.view = 0;
  vote.share = maybe_corrupt(crypto_sys().quorum_sigs.sign_share(
      id(), smr::cert_signing_message(smr::CertKind::kQuorum, block.id, r, 0, 0, 0)));
  send(leader_of(r + 1), std::move(vote));

  // Pipelining: round r's QC is forming at L_{r+1}; announce our next
  // batch now if that is us.
  maybe_announce_batch(r + 1);
}

void DiemBftReplica::on_batch_resolved(const smr::Block& block, ReplicaId) {
  try_vote(block);
}

void DiemBftReplica::handle_vote(ReplicaId from, const smr::VoteMsg& msg) {
  if (msg.view != 0) return;
  const auto key = std::make_tuple(msg.block_id, msg.round);
  auto sig = add_share(votes_, key, from, msg.share, crypto_sys().quorum_sigs, [&] {
    return smr::cert_signing_message(smr::CertKind::kQuorum, msg.block_id, msg.round, 0, 0, 0);
  });
  if (!sig) return;

  smr::Certificate qc;
  qc.kind = smr::CertKind::kQuorum;
  qc.block_id = msg.block_id;
  qc.round = msg.round;
  qc.sig = *sig;
  trace(obs::EventKind::kQcFormed, 0, msg.round);
  span(obs::SpanStage::kQcFormed, crypto::digest_prefix_u64(msg.block_id), 0,
       msg.round);
  lock_step(qc, from);
}

void DiemBftReplica::handle_timeout(ReplicaId from, const smr::DiemTimeoutMsg& msg) {
  // Catch up on the attached qc_high first (kind-check is free and skips
  // the hash/verify work for non-QC certificates entirely); the QC stands
  // on its own verification regardless of the share's validity.
  if (msg.qc_high.kind == smr::CertKind::kQuorum && verify_cert(msg.qc_high)) {
    lock_step(msg.qc_high, from);
  }

  if (msg.round <= highest_tc_formed_) return;
  auto sig = add_share(timeout_shares_, msg.round, from, msg.round_share,
                       crypto_sys().quorum_sigs,
                       [&] { return smr::tc_signing_message(msg.round); });
  if (!sig) return;
  const smr::TimeoutCert tc{msg.round, *sig};
  trace(obs::EventKind::kTcFormed, 0, msg.round);
  highest_tc_formed_ = msg.round;
  handle_tc(tc);
}

void DiemBftReplica::handle_tc(const smr::TimeoutCert& tc) {
  advance_to(tc.round + 1, tc);
}

}  // namespace repro::core
