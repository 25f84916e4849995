// Threshold signatures and the common coin, built on Shamir sharing.
//
// Model (documented substitution — see DESIGN.md §2): a trusted dealer
// shares a field secret s. Replica i's signature share on message m is
//     σ_i = x_i · H(m)   in GF(2^61 - 1),
// where x_i is i's Shamir share and H(m) is a nonzero field point derived
// from SHA-256. Combining any t shares by Lagrange interpolation yields
//     σ = s · H(m),
// a constant-size "signature" that any party (holding the scheme's
// verification state) can check by recomputation. This preserves exactly
// what the protocol relies on — t-of-n combination algebra, constant-size
// certificates, quorum intersection — but is NOT cryptographically secure
// against an adversary outside the simulation, because verification keys
// equal signing secrets. Byzantine behaviours in this repo are explicit
// modeled behaviours; none forge signatures.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/types.h"
#include "crypto/field.h"
#include "crypto/shamir.h"
#include "crypto/sha256.h"

namespace repro::crypto {

/// A signature share from one replica. Wire size: 4 + 8 bytes.
struct PartialSig {
  ReplicaId signer = 0;
  std::uint64_t value = 0;  ///< Fp value of σ_i

  bool operator==(const PartialSig&) const = default;
};

/// A combined threshold signature. Wire size: 8 bytes (constant in n —
/// this constant size is what makes QCs O(1) and the sync path O(n)).
struct ThresholdSig {
  std::uint64_t value = 0;

  bool operator==(const ThresholdSig&) const = default;
};

/// t-of-n threshold signature scheme instance (one per system, dealt by
/// the trusted dealer). Shared read-only between all simulated replicas.
class ThresholdScheme {
 public:
  /// Deals a fresh scheme: n shares, reconstruction threshold t.
  static ThresholdScheme deal(std::uint32_t n, std::uint32_t t, Rng& rng);

  std::uint32_t n() const { return n_; }
  std::uint32_t threshold() const { return t_; }

  /// Maps a message to a nonzero field point (domain-separated SHA-256).
  Fp message_point(BytesView message) const;

  /// Replica `signer`'s share signature on `message`.
  PartialSig sign_share(ReplicaId signer, BytesView message) const;

  /// Checks that a share is the correct evaluation for its signer.
  bool verify_share(const PartialSig& share, BytesView message) const;

  /// verify_share against an already-computed message_point — the hot-path
  /// variant: 2f+1 shares on the same message hash the identical point, so
  /// accumulators compute it once per target and skip the SHA-256 here.
  bool verify_share_at(const PartialSig& share, Fp point) const;

  /// Combines >= t shares into a threshold signature. Shares must have
  /// distinct signers — any duplicate signer makes the whole call fail
  /// (returns nullopt) rather than silently depending on callers to
  /// pre-deduplicate. Invalid shares are skipped; returns nullopt if fewer
  /// than t valid signers remain. Performs real Lagrange interpolation
  /// (cost ~t^2 field ops).
  std::optional<ThresholdSig> combine(std::span<const PartialSig> shares,
                                      BytesView message) const;

  /// Pure interpolation of exactly-threshold-many shares with caller-
  /// supplied Lagrange coefficients (one per share, same order). Does NOT
  /// verify anything: share accumulators call it only on shares they
  /// already verified one by one.
  ThresholdSig combine_with_coefficients(std::span<const PartialSig> shares,
                                         std::span<const Fp> coefficients) const;

  /// Verifies a combined signature on `message`.
  bool verify(const ThresholdSig& sig, BytesView message) const;

  /// verify against an already-computed message_point.
  bool verify_at(const ThresholdSig& sig, Fp point) const;

 private:
  std::uint32_t n_ = 0;
  std::uint32_t t_ = 0;
  Fp secret_;
  std::vector<Fp> shares_;  // indexed by ReplicaId
};

/// Common coin for leader election (paper: Loss-Moran-style black box).
/// coin(v) combines f+1 shares on the domain-separated message "coin"||v
/// and maps the field value uniformly onto [0, n). Unpredictable (in the
/// modeled-adversary sense) until f+1 shares are released, hence the
/// adversary guesses the elected leader w.p. <= 1/n (paper §3).
class CommonCoin {
 public:
  static CommonCoin deal(std::uint32_t n, std::uint32_t f_plus_1, Rng& rng);

  std::uint32_t threshold() const { return scheme_.threshold(); }

  /// The underlying f+1-threshold scheme, for share accumulators that
  /// assemble coin QCs with the same machinery as quorum certificates.
  const ThresholdScheme& scheme() const { return scheme_; }

  /// The domain-separated message coin shares sign for `view`.
  static Bytes coin_message(View view);

  PartialSig coin_share(ReplicaId signer, View view) const;
  bool verify_coin_share(const PartialSig& share, View view) const;

  /// Combine f+1 coin shares into the coin value for `view`.
  std::optional<ThresholdSig> combine(std::span<const PartialSig> shares, View view) const;
  bool verify(const ThresholdSig& sig, View view) const;

  /// The elected leader encoded by a (valid) coin value.
  ReplicaId leader_from(const ThresholdSig& sig) const;

 private:
  std::uint32_t n_ = 0;
  ThresholdScheme scheme_;
};

}  // namespace repro::crypto
