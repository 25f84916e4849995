// Protocol configuration and the leader schedule.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.h"
#include "common/types.h"
#include "core/faults.h"

namespace repro::core {

/// External validity predicate (paper §2, validated BFT SMR / Cachin et
/// al.): applied to a block's transaction batch before the replica votes
/// for it, so "any committed transactions [are] externally valid".
using ExternalValidator = std::function<bool(BytesView payload)>;

struct ProtocolConfig {
  /// Fault injected into this replica (kNone for honest replicas).
  FaultSpec fault;

  /// Optional external-validity predicate. Unset = every batch is valid.
  ExternalValidator external_validator;

  /// Base round timer T_r in simulated microseconds. Grows linearly with
  /// consecutive timeouts (so under partial synchrony it eventually
  /// exceeds the post-GST Δ).
  SimTime base_timeout_us = 400'000;

  /// Cap on the timeout growth factor.
  std::uint32_t max_timeout_factor = 8;

  /// Transaction batch bytes per block (0 = empty blocks; complexity
  /// benches use 0 so counted bytes are pure protocol overhead).
  std::size_t batch_bytes = 0;

  /// Adaptive batch sizing ceiling. 0 disables adaptation: every batch is
  /// exactly batch_bytes. When > batch_bytes, the mempool grows the batch
  /// toward this cap while its backlog outpaces sealing, and shrinks back
  /// toward batch_bytes as in-flight rounds pile up (DESIGN.md §12.3).
  std::size_t batch_bytes_max = 0;

  /// Pipelined proposal path (DESIGN.md §12): blocks may carry a 32-byte
  /// batch reference instead of the payload, with the batch disseminated
  /// out of band. Certificates and vote rules are untouched; a replica
  /// just defers its vote until the reference resolves. Off = every block
  /// inlines its payload (differential determinism pin covers both).
  bool batch_refs = true;

  /// Only reference batches larger than this; smaller payloads (and the
  /// empty batches of complexity benches) ship inline, since a 32-byte
  /// digest plus an announcement round-trip costs more than it saves.
  std::size_t batch_ref_min_bytes = 256;

  /// Upcoming leader multicasts its sealed batch while still waiting for
  /// the previous round's QC (the optimistic pre-broadcast). Off forces
  /// every reference through the pull path — used by liveness tests.
  bool batch_announce = true;

  /// Byte bound on the per-replica content-addressed batch cache.
  std::size_t batch_store_bytes = 64u << 20;

  /// Retry cadence for pulling a missing batch, and how many replicas to
  /// try (rotating from the proposer) before counting a pull timeout and
  /// leaving recovery to the round timer / fallback.
  SimTime batch_pull_timeout_us = 50'000;
  std::uint32_t batch_pull_retries = 10;

  /// Paper §3.1 "Rules for Leader Rotation": the same leader serves this
  /// many consecutive rounds (4 in the paper — long enough to build a
  /// 3-chain and hand over).
  std::uint32_t leader_rotation = 4;

  /// §3 "Optimization in Practice", applied strictly (DESIGN.md §13): in
  /// the always-fallback baseline, adopt a certified f-block only when it
  /// sits at a *higher* position than our own chain — the paper's "at a
  /// higher position" wording taken literally. The seed adopted at
  /// equal-or-higher positions, which forks a replica's chain onto a
  /// foreign proposer mid-chain; such mixed-proposer chains can never
  /// satisfy the endorsed consecutive commit rule, and at n >= 50 under
  /// asynchrony that starves decisions entirely. Strict adoption keeps
  /// every replica's chain leader-pure, so the elected leader's own
  /// 3-chain commits. Only changes which blocks we *propose*, never which
  /// certificates exist, so Lemmas 1–3 are untouched (docs/PROTOCOL.md
  /// §13). Off = the seed's equal-height adoption, byte-identical to
  /// earlier releases on seeded runs.
  bool fb_adopt = true;

  /// Certificate relay (DESIGN.md §13): replace redundant all-to-all
  /// share rebroadcast with aggregate-certificate forwarding where the
  /// protocol allows — a replica holding a completed f-QC for a chain
  /// skips its (now pointless) fallback vote for that chain, and the
  /// coin-QC is re-multicast by f+1 designated relayers per view instead
  /// of by all n replicas (every honest replica still assembles the coin
  /// from the multicast shares; the relay only serves stragglers). Off =
  /// vote-always / relay-everywhere, byte-identical to earlier releases.
  bool cert_relay = true;

  /// TEST-ONLY planted bug: re-opens the deferred-vote hole the pipelined
  /// proposal path had before its review fixes — blocks stored through
  /// the catch-up channel (BlockResponseMsg) become vote candidates as if
  /// they had arrived as authenticated proposals. With a kGhostChain
  /// adversary this lets forged ancestry get certified and committed,
  /// diverging honest ledgers. Exists so the chaos fuzzer's planted-bug
  /// test can prove it detects and shrinks a real safety violation.
  /// Never enable outside that test.
  bool unsafe_trust_catchup_blocks = false;
};

/// The predefined leader sequence L_1, L_2, ... (rounds are 1-based).
inline ReplicaId round_leader(Round round, std::uint32_t n, std::uint32_t rotation) {
  return static_cast<ReplicaId>(((round - 1) / rotation) % n);
}

}  // namespace repro::core
