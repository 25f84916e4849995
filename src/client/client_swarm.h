// Client layer: the part of BFT SMR the paper omits "for brevity".
//
// A swarm of simulated clients submits transactions to the replicas,
// retries on timeout, and confirms a transaction once f+1 distinct
// replicas acknowledge it as committed — f+1 matching answers are the
// classic BFT client rule (at least one is honest). The swarm measures
// the client-perceived metrics a deployment cares about: end-to-end
// confirm latency and goodput, including through asynchronous periods.
//
// Transport: client<->replica RPC is simulated with its own delay
// sampling and byte accounting, deliberately separate from the replica
// Network so the protocol's communication-complexity measurements (which
// the literature counts among replicas only) stay undistorted.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "harness/experiment.h"

namespace repro::client {

using TxnId = crypto::Digest;

struct TxnIdHash {
  std::size_t operator()(const TxnId& id) const {
    return static_cast<std::size_t>(crypto::digest_prefix_u64(id));
  }
};

struct ClientConfig {
  std::uint32_t num_clients = 8;
  std::size_t txn_bytes = 64;        ///< payload per transaction
  SimTime submit_interval = 50'000;  ///< per-client think time between txns
  SimTime retry_timeout = 2'000'000; ///< resend to the next replica after this
  std::size_t max_batch_txns = 64;   ///< txns a proposer drains per block
  SimTime rpc_min_delay = 1'000;     ///< client<->replica link delay bounds
  SimTime rpc_max_delay = 20'000;
};

struct ClientStats {
  std::uint64_t submitted = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t retries = 0;
  std::uint64_t rpc_messages = 0;
  std::uint64_t rpc_bytes = 0;
  /// Acks whose Merkle inclusion proof failed verification (0 unless a
  /// test injects corrupted acks).
  std::uint64_t bad_proofs = 0;
  std::vector<SimTime> confirm_latencies_us;
};

/// Shared submission pools: the bridge between clients and proposers.
/// Create it first, point ExperimentConfig::payload_factory at
/// make_payload_factory(), construct the Experiment, then attach the
/// swarm.
class TxnPools {
 public:
  explicit TxnPools(std::uint32_t n, std::size_t max_batch_txns)
      : queues_(n), max_batch_(max_batch_txns) {}

  /// Enqueue a transaction at one replica's pool.
  void submit(ReplicaId to, const TxnId& id, BytesView payload);

  /// Proposer-side: drain up to max_batch txns into a block payload.
  /// Encoding: u32 count, then per txn (32-byte id, length-prefixed body).
  Bytes next_batch(ReplicaId proposer);

  /// A decoded batch: txn ids, and views of the txn payloads (the
  /// Merkle leaves) into the batch bytes. Stops at the first malformed txn.
  struct DecodedBatch {
    std::vector<TxnId> ids;
    std::vector<BytesView> payloads;
  };
  static DecodedBatch decode_batch(BytesView payload);

  /// Decode the txn ids inside a committed block payload.
  static std::vector<TxnId> decode_txn_ids(BytesView payload) {
    return decode_batch(payload).ids;
  }

 private:
  struct Pending {
    TxnId id;
    Bytes payload;
  };
  std::vector<std::deque<Pending>> queues_;
  std::size_t max_batch_;
};

class ClientSwarm {
 public:
  /// Wires the swarm: registers commit callbacks on every replica and
  /// schedules each client's first submission at start().
  ClientSwarm(harness::Experiment& exp, std::shared_ptr<TxnPools> pools, ClientConfig cfg,
              std::uint64_t seed);

  /// Begin submitting (call after Experiment::start()).
  void start();

  const ClientStats& stats() const { return stats_; }

  /// Transactions submitted but not yet confirmed.
  std::size_t in_flight() const { return in_flight_.size(); }

 private:
  struct InFlight {
    std::uint32_t client = 0;
    SimTime submitted_at = 0;
    Bytes payload;
    crypto::Digest leaf{};           ///< MerkleTree::leaf_hash(payload)
    std::set<ReplicaId> acks;        ///< replicas that reported commit
    ReplicaId next_target = 0;       ///< retry destination
    std::uint64_t retry_epoch = 0;   ///< invalidates stale retry timers
  };

  void client_tick(std::uint32_t client);
  void submit_txn(std::uint32_t client);
  void send_to_replica(const TxnId& id, ReplicaId target);
  void arm_retry(const TxnId& id);
  void on_commit(ReplicaId replica, const smr::Block& block);
  /// An ack carries the batch's Merkle root and an inclusion proof; the
  /// client verifies the proof against the leaf hash of its own copy of
  /// the transaction before counting the ack toward the f+1 quorum.
  /// `block_key` is the digest prefix of the committing block, threaded
  /// through so the confirm span joins the block's commit-lifecycle chain.
  void deliver_ack(ReplicaId replica, const TxnId& id, std::uint64_t block_key,
                   const crypto::Digest& root, const crypto::MerkleProof& proof);
  SimTime rpc_delay();

  harness::Experiment& exp_;
  std::shared_ptr<TxnPools> pools_;
  ClientConfig cfg_;
  Rng rng_;
  ClientStats stats_;
  std::unordered_map<TxnId, InFlight, TxnIdHash> in_flight_;
  std::uint64_t txn_seq_ = 0;
};

}  // namespace repro::client
