// Quorum assembly: per-target threshold-share accumulators.
//
// The fallback path is deliberately message-quadratic (paper Thm 9), so
// every incoming vote/timeout/coin share is checked and every certificate
// is interpolated on the hot path. The accumulator keeps both cheap:
//
//   - the signing message's field point is hashed ONCE per target and
//     memoized (2f+1 shares on the same message hash the identical point),
//     so checking a share is one field multiply against that point;
//   - each share is verified when it arrives; an invalid one is rejected
//     and its signer banned for this target (charging a per-signer blame
//     counter), a duplicate signer is ignored;
//   - at threshold, ONE Lagrange combine (coefficients served from a
//     per-replica signer-set memo, batch-inverted on miss) of the t
//     verified shares forms the signature. Interpolating verified shares
//     is exact, so the combined signature needs no further check.
//
// Safety: only verified shares are ever buffered, so no certificate forms
// from an invalid share. Liveness: invalid shares are banned per target,
// so the t-th valid share to arrive always completes the certificate.
//
// ADMISSION PRECONDITION: callers must only feed shares whose claimed
// signer equals the envelope-authenticated sender of the carrying message
// (ReplicaBase::add_share enforces this at the single choke point). The
// duplicate-signer and ban-on-invalid rules key on share.signer; without
// the binding, a Byzantine sender could stuff garbage shares under honest
// ids, bouncing the genuine shares as duplicates and getting the honest
// signers banned — the quorum would then never form.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "crypto/shamir.h"
#include "crypto/threshold.h"

namespace repro::smr {

/// Counters shared by all accumulators of one replica (surfaced through
/// ReplicaStats and the bench tables).
struct ShareStats {
  std::uint64_t shares_verified = 0;     ///< per-share verify_share calls paid
  std::uint64_t combines = 0;            ///< certificates combined at threshold
  std::uint64_t bad_shares_rejected = 0; ///< invalid shares rejected
  /// Per-signer count of rejected shares (blame for flood diagnosis).
  std::vector<std::uint64_t> blame;

  void blame_signer(ReplicaId signer) {
    if (blame.size() <= signer) blame.resize(signer + 1, 0);
    ++blame[signer];
  }
};

/// Everything an accumulator needs from its owning replica, passed per call
/// so accumulators stay cheap to store by the thousand.
struct ShareEnv {
  const crypto::ThresholdScheme* scheme = nullptr;
  crypto::LagrangeCache* lagrange = nullptr;
  ShareStats* stats = nullptr;
};

/// Collects shares for ONE signing message and assembles the threshold
/// signature at quorum. The signing message itself is not retained — only
/// its memoized field point, which is all verification needs.
class ShareAccumulator {
 public:
  ShareAccumulator(const crypto::ThresholdScheme& scheme, BytesView signing_message);

  /// Feed one share. Returns the combined signature exactly once: on the
  /// add that completes a quorum of verified shares. Duplicate signers, banned
  /// signers, out-of-range signers, and post-completion adds return
  /// nullopt, as does any add that leaves the accumulator below threshold.
  std::optional<crypto::ThresholdSig> add(const ShareEnv& env, const crypto::PartialSig& share);

  /// Distinct signers currently buffered (excludes rejected shares).
  std::size_t count() const { return slots_.size(); }
  /// True once the combined signature has been handed out.
  bool done() const { return done_; }

  /// Approximate heap footprint (the repro_share_pool_bytes audit). The
  /// per-node constants cover the red-black-tree bookkeeping of the slot
  /// map / ban set; exactness doesn't matter, scaling with n does: one
  /// accumulator buffers up to n slots, so at n=300 a single in-flight
  /// quorum costs ~21 KiB and the pool caps below bound the total.
  std::size_t approx_bytes() const {
    return sizeof(ShareAccumulator) +
           slots_.size() * (sizeof(ReplicaId) + sizeof(std::uint64_t) + 48) +
           banned_.size() * (sizeof(ReplicaId) + 40);
  }

 private:
  crypto::Fp point_;  ///< memoized message_point of the signing message
  bool done_ = false;

  std::map<ReplicaId, std::uint64_t> slots_;  // signer -> verified share, id-ordered
  std::set<ReplicaId> banned_;       // signers whose share for this target was invalid
};

/// Keyed map of accumulators, one per quorum-collection site (votes,
/// timeouts, fallback votes/timeouts, coin shares). The signing message is built
/// lazily (first share for a key) by `make_msg`, so callers must key pools
/// by every field that feeds the signing message.
template <typename Key>
class SharePool {
 public:
  /// Feed one share for `key`. See ShareAccumulator::add for semantics.
  template <typename MakeMsg>
  std::optional<crypto::ThresholdSig> add(const ShareEnv& env, const Key& key,
                                          const crypto::PartialSig& share, MakeMsg&& make_msg) {
    auto it = pool_.find(key);
    if (it == pool_.end()) {
      if (max_entries_ != 0 && pool_.size() >= max_entries_) pool_.erase(pool_.begin());
      it = pool_.emplace(key, ShareAccumulator(*env.scheme, make_msg())).first;
    }
    return it->second.add(env, share);
  }

  std::size_t count(const Key& key) const {
    auto it = pool_.find(key);
    return it == pool_.end() ? 0 : it->second.count();
  }

  /// True if a certificate was already assembled for `key`.
  bool formed(const Key& key) const {
    auto it = pool_.find(key);
    return it != pool_.end() && it->second.done();
  }

  void clear() { pool_.clear(); }

  /// Drop entries whose key matches `pred` (periodic pruning of stale
  /// rounds/views keeps long-running replicas at bounded memory).
  template <typename Pred>
  void erase_if(Pred pred) {
    for (auto it = pool_.begin(); it != pool_.end();) {
      it = pred(it->first) ? pool_.erase(it) : std::next(it);
    }
  }

  std::size_t size() const { return pool_.size(); }

  /// Hard cap on live accumulators (0 = unbounded). The periodic
  /// round/view pruning already bounds honest load; the cap is the
  /// Byzantine-flood backstop that turns "bounded in expectation" into a
  /// provable per-replica byte budget (DESIGN.md §13.4): when a new key
  /// would exceed it, the lowest-ordered entry is evicted. Set it well
  /// above the pruning window so honest runs never touch it — an evicted
  /// live quorum would have to re-collect its shares.
  void set_max_entries(std::size_t cap) { max_entries_ = cap; }

  /// Approximate heap footprint across all accumulators (the
  /// repro_share_pool_bytes gauge). Walks the pool — metrics snapshots
  /// are off the hot path.
  std::size_t approx_bytes() const {
    std::size_t total = 0;
    for (const auto& [key, acc] : pool_) total += sizeof(Key) + 48 + acc.approx_bytes();
    return total;
  }

 private:
  std::map<Key, ShareAccumulator> pool_;
  std::size_t max_entries_ = 0;
};

}  // namespace repro::smr
