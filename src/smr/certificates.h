// Certificates: QC, fallback-QC, timeout certificates and the coin-QC.
//
// A single Certificate struct covers regular QCs (height == 0) and
// fallback-QCs (height in {1,2,3}), plus the genesis pseudo-certificate.
// Endorsement of an f-QC is *contextual* — it means "a coin-QC of the same
// view elects this certificate's proposer" — so it is never a wire field;
// replicas decide endorsement against their table of learned coin-QCs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/types.h"
#include "crypto/dealer.h"
#include "crypto/sha256.h"
#include "smr/rank.h"

namespace repro::smr {

using BlockId = crypto::Digest;

/// The well-known genesis block id, hashed once per process.
const BlockId& genesis_id();

enum class CertKind : std::uint8_t {
  kGenesis = 0,   ///< pseudo-certificate for the genesis block
  kQuorum = 1,    ///< regular QC: threshold sig on (id, r, v)
  kFallback = 2,  ///< f-QC: threshold sig on (id, r, v, h, proposer)
};

/// A quorum / fallback-quorum certificate. Constant wire size regardless
/// of n (that is the whole point of threshold signatures here).
struct Certificate {
  CertKind kind = CertKind::kGenesis;
  BlockId block_id{};
  Round round = 0;
  View view = 0;
  FallbackHeight height = 0;  ///< 0 for regular QCs, 1..3 for f-QCs
  ReplicaId proposer = 0;     ///< f-QCs: owner of the fallback-chain
  crypto::ThresholdSig sig;

  bool operator==(const Certificate&) const = default;

  /// Rank given whether the caller considers this certificate endorsed.
  Rank rank(bool endorsed) const { return Rank{view, endorsed, round}; }

  void encode(Encoder& enc) const;
  static std::optional<Certificate> decode(Decoder& dec);
};

/// The genesis pseudo-certificate (round 0, view 0), valid by fiat.
Certificate genesis_certificate();

/// Message that quorum members threshold-sign for a QC / f-QC with these
/// parameters (paper: {B.id, B.r, B.v} resp. {B.id, B.r, B.v, h, i}).
Bytes cert_signing_message(CertKind kind, const BlockId& id, Round round, View view,
                           FallbackHeight height, ReplicaId proposer);

/// Verify a certificate's threshold signature (genesis verifies by fiat
/// against the well-known genesis id/round/view).
bool verify_certificate(const crypto::CryptoSystem& crypto, const Certificate& cert);

/// Combine >= 2f+1 shares into a certificate. Returns nullopt if shares
/// are insufficient/invalid.
std::optional<Certificate> combine_certificate(const crypto::CryptoSystem& crypto,
                                               CertKind kind, const BlockId& id, Round round,
                                               View view, FallbackHeight height,
                                               ReplicaId proposer,
                                               std::span<const crypto::PartialSig> shares);

/// DiemBFT round timeout certificate: threshold sig on the round number.
struct TimeoutCert {
  Round round = 0;
  crypto::ThresholdSig sig;

  bool operator==(const TimeoutCert&) const = default;
  void encode(Encoder& enc) const;
  static std::optional<TimeoutCert> decode(Decoder& dec);
};

Bytes tc_signing_message(Round round);
bool verify_tc(const crypto::CryptoSystem& crypto, const TimeoutCert& tc);
std::optional<TimeoutCert> combine_tc(const crypto::CryptoSystem& crypto, Round round,
                                      std::span<const crypto::PartialSig> shares);

/// Fallback timeout certificate: threshold sig on the view number.
struct FallbackTC {
  View view = 0;
  crypto::ThresholdSig sig;

  bool operator==(const FallbackTC&) const = default;
  void encode(Encoder& enc) const;
  static std::optional<FallbackTC> decode(Decoder& dec);
};

Bytes ftc_signing_message(View view);
bool verify_ftc(const crypto::CryptoSystem& crypto, const FallbackTC& ftc);
std::optional<FallbackTC> combine_ftc(const crypto::CryptoSystem& crypto, View view,
                                      std::span<const crypto::PartialSig> shares);

/// Coin-QC: f+1 combined coin shares electing the leader of a view.
struct CoinQC {
  View view = 0;
  crypto::ThresholdSig sig;

  bool operator==(const CoinQC&) const = default;
  void encode(Encoder& enc) const;
  static std::optional<CoinQC> decode(Decoder& dec);

  ReplicaId leader(const crypto::CryptoSystem& crypto) const {
    return crypto.coin.leader_from(sig);
  }
};

bool verify_coin_qc(const crypto::CryptoSystem& crypto, const CoinQC& qc);
std::optional<CoinQC> combine_coin_qc(const crypto::CryptoSystem& crypto, View view,
                                      std::span<const crypto::PartialSig> shares);

}  // namespace repro::smr
