// Byzantine fault injection.
//
// The paper's adversary corrupts up to f replicas arbitrarily. We model
// the classic concrete behaviours used to stress BFT implementations.
// (Signature forgery is outside the modeled threat surface — see
// DESIGN.md §2 — so faults are behavioural, not cryptographic.)
#pragma once

#include <cstdint>

namespace repro::core {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  /// Dead from the start: never sends, never reacts.
  kCrash,
  /// Participates (votes, timeouts) but never proposes anything — the
  /// "bad leader" whose rounds always time out.
  kMuteLeader,
  /// Proposes conflicting blocks for the same round to different halves
  /// of the network (safety attack).
  kEquivocate,
  /// Never votes (steady state or fallback), slowing quorum formation.
  kWithholdVotes,
  /// Multicasts timeout messages continuously regardless of progress.
  kTimeoutSpam,
  /// Proposes transaction batches that fail the external validity
  /// predicate. (Convention used by the fault injector: batches are
  /// prefixed with 0xFF; install a validator that rejects that prefix.)
  kInvalidTxns,
  /// Participates normally but corrupts every threshold-signature share
  /// it sends (votes, timeout shares, f-votes, coin shares). Stresses
  /// share admission: honest accumulators must reject each bad share on
  /// arrival, ban its signer, and still assemble certificates from the
  /// honest 2f+1.
  kBadShares,
  /// Participates normally but every threshold share it sends claims
  /// another replica's signer id (with a garbage value). Stresses the
  /// signer/sender binding at share admission: without it the forged
  /// shares would occupy honest signers' accumulator slots and get the
  /// honest ids banned, wedging quorums forever.
  kImpersonateShares,
  /// Advertises forged fallback-QCs for adoption: on every fallback entry
  /// it multicasts FbQcMsg certificates for fabricated f-blocks — two
  /// *different* fakes to the two halves of the network (equivocation) —
  /// with garbage threshold signatures. Stresses the adoption rule's
  /// verification gate: honest replicas must reject (verify_cert fails),
  /// blame the sender, and never adopt or count the fake toward election.
  kForgeFbQc,
  /// On every steady-state proposal it receives, multicasts a fabricated
  /// ancestor chain through the catch-up channel (BlockResponseMsg):
  /// blocks whose embedded parent certificates carry garbage threshold
  /// signatures, the tip a batch-referenced block whose batch it also
  /// ships. Stresses the deferred-vote gate from the pipelined proposal
  /// path: a block stored via catch-up must never become a vote
  /// candidate, or the forged ancestry would be certified and committed.
  kGhostChain,
};

struct FaultSpec {
  FaultKind kind = FaultKind::kNone;

  bool crashed() const { return kind == FaultKind::kCrash; }
  bool mute() const { return kind == FaultKind::kMuteLeader || crashed(); }
  bool equivocates() const { return kind == FaultKind::kEquivocate; }
  bool withholds_votes() const { return kind == FaultKind::kWithholdVotes; }
  bool spams_timeouts() const { return kind == FaultKind::kTimeoutSpam; }
  bool proposes_invalid_txns() const { return kind == FaultKind::kInvalidTxns; }
  bool sends_bad_shares() const { return kind == FaultKind::kBadShares; }
  bool impersonates_shares() const { return kind == FaultKind::kImpersonateShares; }
  bool forges_fbqc() const { return kind == FaultKind::kForgeFbQc; }
  bool forges_ghost_chain() const { return kind == FaultKind::kGhostChain; }
};

}  // namespace repro::core
