// Shared machinery for all protocol variants: block store and ledger,
// endorsement-aware ranking, Lock-step helpers, the commit-rule scanner
// (parameterized by commit chain length), block retrieval, and message
// signing/dispatch. Protocol-specific logic lives in the subclasses.
#pragma once

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/replica.h"
#include "smr/batch.h"
#include "smr/block_store.h"
#include "smr/ledger.h"
#include "smr/mempool.h"
#include "smr/messages.h"
#include "smr/share_accumulator.h"

namespace repro::core {

class ReplicaBase : public IReplica {
 public:
  explicit ReplicaBase(const ReplicaContext& ctx);

  // IReplica ----------------------------------------------------------
  void on_message(ReplicaId from, const Bytes& payload) final;
  void halt() final { halted_ = true; }
  ReplicaId id() const final { return id_; }
  const smr::Ledger& ledger() const final { return ledger_; }
  smr::Ledger& ledger() final { return ledger_; }
  Round current_round() const final { return r_cur_; }
  View current_view() const final { return v_cur_; }
  const ReplicaStats& stats() const final { return stats_; }
  void set_fault(const FaultSpec& fault) final {
    const FaultSpec old = cfg_.fault;
    cfg_.fault = fault;
    on_fault_changed(old);
  }

  // Extra introspection used by tests / harness.
  const smr::BlockStore& store() const { return store_; }
  const smr::Certificate& qc_high() const { return qc_high_; }
  smr::Rank rank_lock() const { return rank_lock_; }
  Round r_vote() const { return r_vote_; }
  /// A learned coin-QC and the leader it elects. The leader is derived
  /// once, at install or WAL restore, because the commit rule asks for it
  /// on every endorsement check.
  struct InstalledCoin {
    smr::CoinQC qc;
    ReplicaId leader = 0;
  };
  /// Coin-QCs this replica has learned (view -> coin).
  const std::map<View, InstalledCoin>& coins() const { return coins_; }
  /// Whether construction restored a WAL snapshot.
  bool recovered() const { return recovered_; }
  bool halted() const { return halted_; }
  /// The content-addressed batch cache (pipelined proposal path).
  const smr::BatchStore& batch_store() const { return batch_store_; }

  /// Batch references with stored ref blocks still awaiting their batch
  /// (tests pin that recovery re-issues pulls for exactly these).
  std::vector<smr::BatchId> unresolved_batch_refs() const {
    std::vector<smr::BatchId> out;
    out.reserve(waiting_batch_.size());
    for (const auto& [ref, blocks] : waiting_batch_) out.push_back(ref);
    return out;
  }

  /// Per-sender blame counters for relayed certificates that failed
  /// verification (forged f-QC / coin-QC advertisements) — public so
  /// tests and operators can attribute the flood to the misbehaving
  /// replica. Indexed by sender id; may be shorter than n.
  const std::vector<std::uint64_t>& cert_blame() const { return cert_blame_; }

  /// Model client ingress for adaptive batch sizing: `bytes` of
  /// transactions queued at this replica's mempool (benches / harness
  /// drive this; without calls the backlog stays 0 and adaptive sizing
  /// keeps batches at the base size).
  void offer_transactions(std::size_t bytes) { mempool_.offer(bytes); }

  /// Footprint of the Lagrange-coefficient memo (lazy, LRU-bounded).
  /// Protocol subclasses fold this into share_pool_bytes() so the gauge
  /// covers all quorum-assembly state (DESIGN.md §13.4).
  std::size_t lagrange_bytes() const { return lagrange_.approx_bytes(); }

 protected:
  /// Commit-rule chain length: 3 for the paper's base protocols, 2 for
  /// the Figure-4 variant.
  virtual std::uint32_t commit_len() const = 0;

  /// Dispatch a decoded, signature-verified message.
  virtual void handle_message(ReplicaId from, smr::Message&& msg) = 0;

  /// Hook invoked whenever a previously missing block body arrives
  /// (via proposal or fetch); subclasses retry deferred decisions.
  virtual void on_block_stored(const smr::Block& block, ReplicaId from);

  /// Hook invoked after set_fault replaced the FaultSpec (`old` is the
  /// previous one). Runs on the replica's own state only; subclasses
  /// handle edge transitions (kick the timeout-spam loop, re-arm the
  /// round timer after an un-crash). Default: nothing.
  virtual void on_fault_changed(const FaultSpec& old) { (void)old; }

  /// Hook invoked when a stored batch-reference block's payload resolves
  /// *after* the block arrived (the referenced batch came in later via
  /// announcement or pull). Subclasses retry the vote they deferred;
  /// their steady-state vote rule re-checks round/view freshness, so a
  /// late resolution simply yields no vote. Default: nothing.
  virtual void on_batch_resolved(const smr::Block& block, ReplicaId from) {
    (void)block;
    (void)from;
  }

  // Messaging ----------------------------------------------------------
  // Sign, serialize exactly once into a refcounted buffer, and hand the
  // buffer to the network. Every recipient, this replica's own loopback
  // included, decodes and verifies the bytes it receives.
  void send(ReplicaId to, smr::Message msg);
  void multicast(smr::Message msg);

  // Certificate verification ---------------------------------------------
  // The free verify_* functions, counted: every non-genesis check adds one
  // to stats().cert_verify_misses. Every certificate a replica relies on
  // is verified on each delivery; nothing is memoised (docs/PROTOCOL.md §7).
  bool verify_cert(const smr::Certificate& cert);
  bool verify_cert(const smr::TimeoutCert& tc);
  bool verify_cert(const smr::FallbackTC& ftc);
  bool verify_cert(const smr::CoinQC& qc);

  // Quorum assembly ------------------------------------------------------
  // Feed one share into a SharePool under this replica's share
  // environment (scheme, Lagrange-coefficient memo, counters) and sync the
  // counters into stats(). Returns the combined signature exactly once, on
  // the add that completes the quorum.
  //
  // `from` is the envelope-authenticated sender of the message carrying
  // the share. Shares are first-person (every protocol sends only shares
  // it signed itself; certificates, not shares, are what gets relayed),
  // so a share claiming a different signer is a forgery attempt and is
  // dropped before it reaches the pool: admitting it would let a
  // Byzantine sender occupy honest signers' slots — their genuine shares
  // would then bounce as duplicates, and the accumulator's ban-on-invalid
  // eviction would ban the *honest* ids per target, wedging the quorum
  // forever (a liveness break). With the binding enforced, bans are
  // always attributable to the authenticated misbehaving replica.
  template <typename Key, typename MakeMsg>
  std::optional<crypto::ThresholdSig> add_share(smr::SharePool<Key>& pool, const Key& key,
                                                ReplicaId from, const crypto::PartialSig& share,
                                                const crypto::ThresholdScheme& scheme,
                                                MakeMsg&& make_msg) {
    std::optional<crypto::ThresholdSig> sig;
    if (share.signer == from) {
      const smr::ShareEnv env{&scheme, &lagrange_, &share_stats_};
      sig = pool.add(env, key, share, std::forward<MakeMsg>(make_msg));
    } else {
      ++share_stats_.bad_shares_rejected;
      share_stats_.blame_signer(from);
    }
    stats_.shares_verified = share_stats_.shares_verified;
    stats_.combines_optimistic = share_stats_.combines;
    stats_.bad_shares_rejected = share_stats_.bad_shares_rejected;
    return sig;
  }

  /// Per-signer blame counters for rejected shares (flood diagnosis).
  const std::vector<std::uint64_t>& share_blame() const { return share_stats_.blame; }

  /// Charge `from` for a relayed certificate that failed verify_cert
  /// (forged f-QC / coin-QC advertisement). Senders are envelope-
  /// authenticated, so the blame is attributable.
  void blame_cert(ReplicaId from) {
    if (cert_blame_.size() <= from) cert_blame_.resize(from + 1, 0);
    ++cert_blame_[from];
    ++stats_.bad_certs_rejected;
  }

  /// Fault injection for kBadShares: corrupt every share this replica
  /// emits (flip the low bit of the field value — always invalid, since
  /// the correct value is unique). kImpersonateShares additionally claims
  /// the next replica's signer id on the garbage share, attacking the
  /// signer/sender binding that add_share enforces.
  crypto::PartialSig maybe_corrupt(crypto::PartialSig share) const {
    if (cfg_.fault.sends_bad_shares()) share.value ^= 1;
    if (cfg_.fault.impersonates_shares()) {
      share.signer = (share.signer + 1) % params_.n;
      share.value ^= 1;
    }
    return share;
  }

  // Ranking / endorsement ----------------------------------------------
  /// An f-QC is endorsed iff we know a coin-QC of its view electing its
  /// proposer (paper §3 "Endorsed Fallback-QC").
  bool is_endorsed(const smr::Certificate& cert) const;
  smr::Rank rank_of(const smr::Certificate& cert) const {
    return cert.rank(is_endorsed(cert));
  }
  /// A certificate "counts" for the commit rule: a regular QC or an
  /// endorsed f-QC.
  bool counts_for_commit(const smr::Certificate& cert) const;

  /// Install a coin-QC (must be pre-verified). Re-scans certificates of
  /// that view for newly committable chains. Returns true if new.
  bool install_coin(const smr::CoinQC& coin);
  const smr::CoinQC* coin_for(View view) const;

  // Certificates / commit ------------------------------------------------
  /// Record a certificate (pre-verified) and run the commit scanner from
  /// it. `hint` is who showed it to us (fetch target for missing bodies).
  void note_certificate(const smr::Certificate& cert, ReplicaId hint);

  /// qc_high <- max(qc_high, qc) by endorsement-aware rank.
  void update_qc_high(const smr::Certificate& qc);

  /// 2-chain lock rule (Figures 1/2): rank_lock <- max(rank_lock,
  /// parent(qc).rank). Needs the certified block's body; defers and
  /// fetches if missing.
  void lock_parent_rank(const smr::Certificate& qc, ReplicaId hint);

  /// 1-chain lock rule (Figure 4): rank_lock <- max(rank_lock, qc.rank).
  void lock_direct_rank(const smr::Certificate& qc);

  // Blocks ---------------------------------------------------------------
  /// True if the body is present; otherwise requests it from `hint` and
  /// returns false.
  bool ensure_block(const smr::BlockId& id, ReplicaId hint);

  /// Stores the block and triggers deferred work. The block must be
  /// id-consistent: built by Block::make, or checked once where it
  /// arrived (the proposal, f-proposal and block-response handlers).
  void store_block(smr::Block block, ReplicaId from);

  // Environment ----------------------------------------------------------
  sim::IExecutor& sim() { return *sim_; }
  net::INetwork& net() { return *net_; }
  const crypto::CryptoSystem& crypto_sys() const { return *crypto_; }
  const QuorumParams& params() const { return params_; }
  const ProtocolConfig& config() const { return cfg_; }
  Rng& rng() { return rng_; }
  smr::Mempool& mempool() { return mempool_; }

  ReplicaId leader_of(Round round) const {
    return round_leader(round, params_.n, cfg_.leader_rotation);
  }

  const FaultSpec& fault() const { return cfg_.fault; }

  /// Report block creation to the harness (latency measurements).
  void note_block_born(const smr::BlockId& id) {
    if (on_block_born_) on_block_born_(id, sim_->now());
  }

  // Observability ---------------------------------------------------------
  /// Record a structured trace event at the current sim time. Free (one
  /// branch) when no trace ring is installed.
  void trace(obs::EventKind kind, View view, Round round,
             std::uint64_t height = 0, std::uint64_t aux = 0) {
    if (trace_ && trace_->enabled()) {
      trace_->push({kind, id_, sim_->now(), 0, view, round, height, aux});
    }
  }

  /// Record a commit-lifecycle span milestone at the current sim time.
  /// Free (one branch) when no span ring is installed; in wall-clock
  /// rings the push overrides t_us with CLOCK_REALTIME itself.
  void span(obs::SpanStage stage, std::uint64_t key, View view = 0,
            Round round = 0, std::uint64_t aux = 0) {
    if (spans_ && spans_->enabled()) {
      obs::SpanEvent ev;
      ev.stage = stage;
      ev.replica = id_;
      ev.t_us = sim_->now();
      ev.key = key;
      ev.view = view;
      ev.round = round;
      ev.aux = aux;
      spans_->push(ev);
    }
  }

  /// True when span recording is live (gates work done only to feed spans,
  /// e.g. hashing an encoded payload for the transport-correlation key).
  bool spans_on() const { return spans_ && spans_->enabled(); }

  /// Fallback-duration histogram installed by the harness (may be null).
  obs::Histogram* fallback_duration_hist() { return fallback_duration_hist_; }

  /// Transaction batch for the next proposed block: the application's
  /// payload source if one is installed, else the synthetic mempool. The
  /// kInvalidTxns fault corrupts the batch (0xFF prefix) so external
  /// validity rejections can be exercised.
  Bytes next_payload() {
    Bytes batch =
        payload_source_ ? payload_source_() : mempool_.next_batch(adaptive_batch_target());
    if (cfg_.fault.proposes_invalid_txns()) {
      batch.insert(batch.begin(), 0xFF);
    }
    return batch;
  }

  /// Paper §2 external validity: "adding validity checks on the
  /// transactions before the replicas proposing or voting".
  bool externally_valid(BytesView payload) const {
    return !cfg_.external_validator || cfg_.external_validator(payload);
  }

  // Pipelined proposal path (DESIGN.md §12) -------------------------------
  /// Whether a payload of `size` bytes ships as a 32-byte batch reference
  /// (the digest only pays off once the payload outweighs it).
  bool use_batch_ref(std::size_t size) const {
    return cfg_.batch_refs && size > cfg_.batch_ref_min_bytes;
  }

  /// Adaptive batch-size target (inert unless batch_bytes_max is set):
  /// grows with mempool backlog, shrinks with rounds in flight beyond the
  /// committed tip. next_payload() seals at this size, so every proposal
  /// path — pre-announced batches, inline blocks, fallback blocks — is
  /// governed by the same policy.
  std::size_t adaptive_batch_target() {
    if (cfg_.batch_bytes_max <= cfg_.batch_bytes) return cfg_.batch_bytes;
    const Round tip = ledger_.records().empty() ? 0 : ledger_.records().back().round;
    const std::uint64_t in_flight = r_cur_ > tip ? r_cur_ - tip : 0;
    return mempool_.adaptive_target(cfg_.batch_bytes_max, in_flight);
  }

  // Deferred-vote authentication gate ------------------------------------
  // Blocks reach the store through several paths — verified proposals,
  // catch-up BlockResponseMsg, equivocation halves — but only the block
  // carried by a signature-verified ProposalMsg from the round's leader
  // may ever earn a vote. The vote rules re-check this when the deferred
  // batch-resolution retry fires, so a Byzantine peer cannot inject an
  // id-consistent ref block via catch-up, supply its batch, and harvest a
  // vote for a block the leader never proposed.
  /// Record the block of a proposal that passed authentication (called by
  /// handle_proposal after its validity checks). Only the newest matters:
  /// votes are only ever cast for the current round.
  void note_vote_candidate(const smr::Block& block) {
    vote_candidate_round_ = block.round;
    vote_candidate_id_ = block.id;
  }
  /// True iff `block` is the block the latest verified proposal carried.
  bool vote_candidate(const smr::Block& block) const {
    return vote_candidate_round_ == block.round && vote_candidate_id_ == block.id;
  }

  /// Out-of-band pre-broadcast: if this replica leads `round` and has no
  /// batch pending, seal the next mempool batch now and (when it is big
  /// enough to reference) announce it to all replicas — while the QC the
  /// actual proposal waits for is still forming. Subclasses call this the
  /// moment they learn they lead an upcoming round.
  void maybe_announce_batch(Round round);

  /// The payload for the block this replica is about to propose: consumes
  /// the pre-announced batch if one is pending, else seals (and, for
  /// referenced batches, announces) a fresh one. Either way the j-th call
  /// consumes the j-th mempool batch, so inline and reference modes order
  /// identical transaction streams.
  struct PayloadChoice {
    Bytes payload;
    std::uint8_t kind = smr::kInlinePayload;
  };
  PayloadChoice take_payload();

  /// kGhostChain behaviour: on each authenticated proposal for round r,
  /// multicast a fabricated three-block ancestor chain for r through the
  /// catch-up channel (BlockResponseMsg) — forged embedded parent
  /// certificates, the tip a batch-reference block whose batch is also
  /// shipped. Harmless against the deferred-vote gate; a safety attack
  /// when unsafe_trust_catchup_blocks re-opens the PR 7 hole. Called by
  /// the protocols' handle_proposal (no-op unless the fault is active).
  void maybe_forge_ghost_chain(const smr::Block& real);

  // Durability ------------------------------------------------------------
  /// Append a full vote-state snapshot to the WAL (no-op without one).
  /// Called by the protocol immediately *before* any message that the
  /// state change guards (votes, proposals) goes out.
  void persist_vote_state();

  /// Re-issue block fetches and batch pulls for the batch references the
  /// restored WAL snapshot recorded as unresolved at crash time. Without
  /// this a block whose batch was in flight at the crash leaves the
  /// restarted replica unable to vote until an unrelated pull fires.
  /// Called from the protocols' start() (the network must be up).
  void resume_batch_recovery();

  /// Protocol-specific state appended to / restored from each snapshot.
  virtual void encode_extra_state(Encoder& enc) const { (void)enc; }
  virtual bool restore_extra_state(Decoder& dec) { (void)dec; return true; }

  /// Restore the last snapshot, if any. Subclass constructors call this
  /// (after their own members exist, so the virtual restore dispatches).
  /// Returns true if a snapshot was restored.
  bool recover_from_wal();

  // Mutable protocol state shared by all variants -------------------------
  Round r_vote_ = 0;                ///< highest voted round
  smr::Rank rank_lock_{};           ///< highest locked rank
  Round r_cur_ = 1;                 ///< current round
  View v_cur_ = 0;                  ///< current view
  smr::Certificate qc_high_;        ///< highest known QC (genesis initially)
  smr::BlockStore store_;
  smr::Ledger ledger_;
  ReplicaStats stats_;

 private:
  /// Post-verify delivery tail of on_message: centralized block retrieval
  /// + batch dissemination, then the protocol's handle_message.
  void deliver(ReplicaId from, smr::Message&& msg);
  void try_commit_from(const smr::Certificate& cert, ReplicaId hint);
  void defer_commit(const smr::BlockId& missing, const smr::Certificate& cert);
  void retry_deferred(const smr::BlockId& id, ReplicaId from);

  // Batch resolution / recovery (pipelined proposal path) -----------------
  /// Attach the referenced batch to a freshly stored ref block, or
  /// register it as waiting and start pulling. Called from store_block.
  void try_resolve_block(const smr::BlockId& id, ReplicaId hint);
  /// File received batch bytes under their own hash, then resolve every
  /// block and commit waiting on them. Announcements, pushes and our own
  /// seals all funnel here.
  void accept_batch(Bytes data, ReplicaId from);
  /// Begin (or restart, after an exhausted retry budget) pulling `ref`.
  void start_batch_pull(const smr::BatchId& ref, ReplicaId hint);
  void send_batch_pull(const smr::BatchId& ref);
  void on_batch_pull_timer(const smr::BatchId& ref);
  /// Pull-response amplification guard: true if a push of `ref` to `peer`
  /// is allowed now (and records it); false within the cooldown window.
  bool allow_batch_push(ReplicaId peer, const smr::BatchId& ref);
  /// Drop batch waiters that can no longer matter (blocks at or below the
  /// committed tip are on dead forks and are never voted on again), so
  /// Byzantine ref blocks with bogus digests cannot grow the maps across
  /// rounds. Runs after every successful commit.
  void prune_batch_waiters();

  sim::IExecutor* sim_;
  net::INetwork* net_;
  std::shared_ptr<const crypto::CryptoSystem> crypto_;
  QuorumParams params_;
  ReplicaId id_;
  ProtocolConfig cfg_;
  Rng rng_;
  smr::Mempool mempool_;
  std::function<void(const smr::BlockId&, SimTime)> on_block_born_;
  std::function<Bytes()> payload_source_;
  std::shared_ptr<obs::TraceRing> trace_;
  std::shared_ptr<obs::SpanRing> spans_;
  std::function<void(const smr::CommitRecord&)> on_commit_;
  obs::Histogram* fallback_duration_hist_ = nullptr;
  storage::Wal* wal_ = nullptr;
  bool recovered_ = false;
  bool halted_ = false;
  crypto::LagrangeCache lagrange_;
  smr::ShareStats share_stats_;
  /// Per-sender counts of relayed certificates that failed verification.
  std::vector<std::uint64_t> cert_blame_;

  /// Sign + encode once; shared by send/multicast.
  SharedBytes encode_signed(smr::Message& msg);

  /// Span milestones derived from an outgoing message. Captured *before*
  /// encode_signed; the payload content key (bridging to transport spans)
  /// is only computable after.
  struct SpanPlan {
    enum Kind : std::uint8_t { kNone, kProposal, kVote } kind = kNone;
    std::uint64_t key = 0;  ///< block-id prefix
    View view = 0;
    Round round = 0;
    std::uint64_t height = 0;
  };
  static SpanPlan span_plan(const smr::Message& msg);
  void record_span_plan(const SpanPlan& plan, const SharedBytes& payload);

  // Pipelined proposal path state ----------------------------------------
  smr::BatchStore batch_store_;
  /// Batch sealed by maybe_announce_batch, awaiting its proposal.
  std::optional<smr::Batch> pending_batch_;
  /// Stored ref blocks whose batch has not arrived, by batch id. Entries
  /// persist until the batch arrives (even past the pull retry budget), so
  /// a late batch still resolves every waiter.
  std::unordered_map<smr::BatchId, std::vector<smr::BlockId>, smr::BlockIdHash> waiting_batch_;
  /// Commit scans stalled on an unresolved payload, by batch id.
  std::unordered_map<smr::BatchId, std::vector<smr::Certificate>, smr::BlockIdHash>
      waiting_commit_batch_;
  struct BatchPull {
    std::uint32_t attempts = 0;
    ReplicaId hint = 0;  ///< first pull target (the block's sender)
    sim::EventId timer = sim::kInvalidEvent;
  };
  std::unordered_map<smr::BatchId, BatchPull, smr::BlockIdHash> batch_pulls_;
  /// Recent pushes per peer (batch id -> send time), pruned lazily to the
  /// cooldown window. Bounded: entries exist only for batches we actually
  /// hold (the byte-bounded store) and expire after batch_pull_timeout_us.
  std::unordered_map<ReplicaId, std::unordered_map<smr::BatchId, SimTime, smr::BlockIdHash>>
      recent_pushes_;
  /// Proposal-authentication gate (see note_vote_candidate).
  Round vote_candidate_round_ = 0;
  smr::BlockId vote_candidate_id_{};
  /// Unresolved batch waiters restored from the WAL snapshot, consumed by
  /// resume_batch_recovery: batch id -> blocks that referenced it.
  std::vector<std::pair<smr::BatchId, std::vector<smr::BlockId>>> recovered_batch_waiters_;
  /// kGhostChain: one forged chain per round.
  Round last_ghost_round_ = 0;

  std::map<View, InstalledCoin> coins_;
  std::unordered_set<smr::BlockId, smr::BlockIdHash> outstanding_fetches_;
  /// Certificates whose commit scan stalled on a missing block body.
  std::unordered_map<smr::BlockId, std::vector<smr::Certificate>, smr::BlockIdHash>
      waiting_commit_;
  /// Certificates whose parent-rank lock stalled on a missing body.
  std::unordered_map<smr::BlockId, std::vector<smr::Certificate>, smr::BlockIdHash>
      waiting_lock_;
};

}  // namespace repro::core
