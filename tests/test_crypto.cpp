// Unit tests for the crypto substrate: SHA-256 against FIPS 180-4
// vectors, field arithmetic laws, Shamir reconstruction, threshold
// signatures and the common coin.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/dealer.h"
#include "crypto/field.h"
#include "crypto/shamir.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "crypto/threshold.h"
#include "smr/certificates.h"

namespace repro::crypto {
namespace {

Bytes str_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

// ---- SHA-256 --------------------------------------------------------------
//
// Every Sha256 runs on the compressor picked at startup (SHA-NI where the
// CPU has it). The vector tests run each input through it and through the
// portable reference; on a host without SHA-NI both are the portable one.

const detail::Compressor kCompressors[] = {&detail::compress_portable,
                                           detail::active_compressor()};

Digest hash_with(detail::Compressor compress, BytesView data) {
  Sha256 ctx(compress);
  ctx.update(data);
  return ctx.finalize();
}

TEST(Sha256, EmptyInputMatchesFipsVector) {
  for (auto compress : kCompressors) {
    EXPECT_EQ(to_hex(hash_with(compress, BytesView{})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  }
}

TEST(Sha256, AbcMatchesFipsVector) {
  for (auto compress : kCompressors) {
    EXPECT_EQ(to_hex(hash_with(compress, str_bytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  }
}

TEST(Sha256, TwoBlockMessageMatchesFipsVector) {
  for (auto compress : kCompressors) {
    EXPECT_EQ(to_hex(hash_with(
                  compress, str_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  }
}

TEST(Sha256, MillionAsMatchesFipsVector) {
  for (auto compress : kCompressors) {
    Sha256 ctx(compress);
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) ctx.update(chunk);
    EXPECT_EQ(to_hex(ctx.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(7);
  Bytes data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  // Split at awkward boundaries relative to the 64-byte block size.
  for (std::size_t split : {1u, 63u, 64u, 65u, 127u, 1000u}) {
    Sha256 ctx;
    ctx.update(BytesView(data.data(), split));
    ctx.update(BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(ctx.finalize(), sha256(data)) << "split=" << split;
  }
}

TEST(Sha256, EmptyUpdateOnPartialBufferIsANoOp) {
  Sha256 ctx;
  ctx.update(str_bytes("ab"));
  ctx.update(BytesView{});  // null data while the block buffer is partly full
  ctx.update(str_bytes("c"));
  EXPECT_EQ(ctx.finalize(), sha256(str_bytes("abc")));
}

TEST(Sha256, TaggedHashSeparatesDomains) {
  const Bytes msg = str_bytes("payload");
  EXPECT_NE(sha256_tagged("a", msg), sha256_tagged("b", msg));
  EXPECT_NE(sha256_tagged("a", msg), sha256(msg));
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths around the 56-byte padding cliff must all hash distinctly and
  // deterministically, and identically on both compressors.
  std::vector<Digest> seen;
  for (std::size_t len = 54; len <= 66; ++len) {
    const Bytes data(len, 0x5a);
    const Digest d = sha256(data);
    EXPECT_EQ(d, sha256(data));
    EXPECT_EQ(d, hash_with(&detail::compress_portable, data)) << "len=" << len;
    EXPECT_TRUE(std::find(seen.begin(), seen.end(), d) == seen.end());
    seen.push_back(d);
  }
}

TEST(Sha256, CompressorsAgreeOnRandomSplits) {
  // Seeded inputs of 0..1100 bytes fed in pieces of 0..150 bytes, so empty
  // updates, partial buffers and multi-block runs all occur.
  Rng rng(20211015);
  for (int trial = 0; trial < 400; ++trial) {
    Bytes data(rng.uniform(1101));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    Sha256 portable(&detail::compress_portable);
    Sha256 active;
    for (std::size_t at = 0; at < data.size();) {
      const std::size_t take = std::min<std::size_t>(rng.uniform(151), data.size() - at);
      const BytesView piece(data.data() + at, take);
      portable.update(piece);
      active.update(piece);
      at += take;
    }
    EXPECT_EQ(active.finalize(), portable.finalize())
        << "trial=" << trial << " len=" << data.size() << " kernel="
        << detail::active_kernel_name();
  }
}

// ---- GF(2^61 - 1) ----------------------------------------------------------

TEST(Field, AdditionWrapsModP) {
  const Fp a(Fp::kP - 1);
  const Fp b(2);
  EXPECT_EQ((a + b).value(), 1u);
}

TEST(Field, SubtractionWraps) {
  EXPECT_EQ((Fp(0) - Fp(1)).value(), Fp::kP - 1);
}

TEST(Field, ReductionOfLargeValues) {
  // 2^61 == 1 (mod 2^61 - 1)
  EXPECT_EQ(Fp(1ull << 61).value(), 1u);
  EXPECT_EQ(Fp(Fp::kP).value(), 0u);
  EXPECT_EQ(Fp(~0ull).value(), ((~0ull) % Fp::kP));
}

TEST(Field, MultiplicationMatchesInt128Reference) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = rng.next() % Fp::kP;
    const std::uint64_t b = rng.next() % Fp::kP;
    const auto expect = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * b) % Fp::kP);
    EXPECT_EQ((Fp(a) * Fp(b)).value(), expect);
  }
}

TEST(Field, InverseIsMultiplicativeInverse) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    Fp a(rng.next());
    if (a.is_zero()) continue;
    EXPECT_EQ((a * a.inverse()).value(), 1u);
  }
}

TEST(Field, PowMatchesRepeatedMultiplication) {
  const Fp base(123456789);
  Fp acc(1);
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(base.pow(e), acc);
    acc *= base;
  }
}

TEST(Field, FermatLittleTheorem) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    Fp a(rng.next());
    if (a.is_zero()) continue;
    EXPECT_EQ(a.pow(Fp::kP - 1).value(), 1u);
  }
}

// ---- Shamir ----------------------------------------------------------------

TEST(Shamir, ReconstructsFromExactlyThreshold) {
  Rng rng(19);
  const Fp secret(0x123456789abcdefull);
  const auto shares = deal_shares(secret, 10, 4, rng);
  ASSERT_EQ(shares.size(), 10u);
  EXPECT_EQ(reconstruct_secret(std::span(shares).subspan(0, 4), 4), secret);
}

TEST(Shamir, AnySubsetOfThresholdSizeReconstructs) {
  Rng rng(23);
  const Fp secret(42);
  auto shares = deal_shares(secret, 7, 5, rng);
  // Try several random 5-subsets.
  for (int trial = 0; trial < 20; ++trial) {
    std::shuffle(shares.begin(), shares.end(), rng);
    EXPECT_EQ(reconstruct_secret(std::span(shares).subspan(0, 5), 5), secret);
  }
}

TEST(Shamir, FewerThanThresholdGivesWrongSecret) {
  // t-1 shares interpolated as if threshold were t-1 must not (except with
  // negligible probability) yield the secret.
  Rng rng(29);
  const Fp secret(777);
  const auto shares = deal_shares(secret, 7, 5, rng);
  EXPECT_NE(reconstruct_secret(std::span(shares).subspan(0, 4), 4), secret);
}

TEST(Shamir, LagrangeCoefficientsSumToOneOnConstantPoly) {
  // For a degree-0 polynomial every share equals the secret, so the
  // coefficients must sum to 1.
  std::vector<ReplicaId> ids = {0, 2, 5, 6};
  Fp sum;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    sum += lagrange_coefficient_at_zero(ids, i);
  }
  EXPECT_EQ(sum.value(), 1u);
}

TEST(Shamir, ThresholdOneIsBroadcastSecret) {
  Rng rng(31);
  const Fp secret(99);
  const auto shares = deal_shares(secret, 4, 1, rng);
  for (const auto& s : shares) EXPECT_EQ(s.value, secret);
}

// ---- Threshold signatures ---------------------------------------------------

class ThresholdTest : public ::testing::Test {
 protected:
  ThresholdTest() : rng_(101), scheme_(ThresholdScheme::deal(7, 5, rng_)) {}

  Rng rng_;
  ThresholdScheme scheme_;
  const Bytes msg_ = str_bytes("block 42");
};

TEST_F(ThresholdTest, SharesVerify) {
  for (ReplicaId i = 0; i < 7; ++i) {
    EXPECT_TRUE(scheme_.verify_share(scheme_.sign_share(i, msg_), msg_));
  }
}

TEST_F(ThresholdTest, ShareForWrongMessageFailsVerification) {
  auto share = scheme_.sign_share(0, msg_);
  EXPECT_FALSE(scheme_.verify_share(share, str_bytes("other")));
}

TEST_F(ThresholdTest, TamperedShareFailsVerification) {
  auto share = scheme_.sign_share(0, msg_);
  share.value ^= 1;
  EXPECT_FALSE(scheme_.verify_share(share, msg_));
}

TEST_F(ThresholdTest, CombineWithThresholdSharesVerifies) {
  std::vector<PartialSig> shares;
  for (ReplicaId i = 0; i < 5; ++i) shares.push_back(scheme_.sign_share(i, msg_));
  auto sig = scheme_.combine(shares, msg_);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(scheme_.verify(*sig, msg_));
}

TEST_F(ThresholdTest, CombineIsSubsetIndependent) {
  std::vector<PartialSig> a, b;
  for (ReplicaId i = 0; i < 5; ++i) a.push_back(scheme_.sign_share(i, msg_));
  for (ReplicaId i = 2; i < 7; ++i) b.push_back(scheme_.sign_share(i, msg_));
  auto sa = scheme_.combine(a, msg_);
  auto sb = scheme_.combine(b, msg_);
  ASSERT_TRUE(sa && sb);
  EXPECT_EQ(sa->value, sb->value);  // both equal s·H(m)
}

TEST_F(ThresholdTest, CombineRejectsTooFewShares) {
  std::vector<PartialSig> shares;
  for (ReplicaId i = 0; i < 4; ++i) shares.push_back(scheme_.sign_share(i, msg_));
  EXPECT_FALSE(scheme_.combine(shares, msg_).has_value());
}

TEST_F(ThresholdTest, CombineDeduplicatesSigners) {
  // Five copies of one signer's share are one signer, not five.
  std::vector<PartialSig> shares(5, scheme_.sign_share(0, msg_));
  EXPECT_FALSE(scheme_.combine(shares, msg_).has_value());
}

TEST_F(ThresholdTest, CombineSkipsInvalidShares) {
  std::vector<PartialSig> shares;
  for (ReplicaId i = 0; i < 5; ++i) shares.push_back(scheme_.sign_share(i, msg_));
  shares[2].value ^= 0xdeadbeef;  // corrupt one
  shares.push_back(scheme_.sign_share(5, msg_));
  auto sig = scheme_.combine(shares, msg_);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(scheme_.verify(*sig, msg_));
}

TEST_F(ThresholdTest, VerifyRejectsWrongMessage) {
  std::vector<PartialSig> shares;
  for (ReplicaId i = 0; i < 5; ++i) shares.push_back(scheme_.sign_share(i, msg_));
  auto sig = scheme_.combine(shares, msg_);
  ASSERT_TRUE(sig.has_value());
  EXPECT_FALSE(scheme_.verify(*sig, str_bytes("forged")));
}

TEST_F(ThresholdTest, CombineRejectsDuplicateSignerOutright) {
  // Enough DISTINCT signers are present, but one duplicated signer poisons
  // the whole call: combine refuses instead of silently deduplicating, so
  // callers (the share accumulators) must reject duplicates at admission.
  std::vector<PartialSig> shares;
  for (ReplicaId i = 0; i < 5; ++i) shares.push_back(scheme_.sign_share(i, msg_));
  shares.push_back(scheme_.sign_share(3, msg_));  // duplicate of signer 3
  EXPECT_FALSE(scheme_.combine(shares, msg_).has_value());
}

TEST_F(ThresholdTest, CombineWithCoefficientsMatchesCombine) {
  std::vector<PartialSig> shares;
  std::vector<ReplicaId> ids;
  for (ReplicaId i = 1; i < 6; ++i) {
    shares.push_back(scheme_.sign_share(i, msg_));
    ids.push_back(i);
  }
  const auto coeffs = lagrange_coefficients_at_zero(ids);
  const ThresholdSig fast = scheme_.combine_with_coefficients(shares, coeffs);
  const auto slow = scheme_.combine(shares, msg_);
  ASSERT_TRUE(slow.has_value());
  EXPECT_EQ(fast.value, slow->value);
  EXPECT_TRUE(scheme_.verify_at(fast, scheme_.message_point(msg_)));
}

TEST_F(ThresholdTest, VerifyShareAtMatchesVerifyShare) {
  const Fp point = scheme_.message_point(msg_);
  for (ReplicaId i = 0; i < 7; ++i) {
    auto share = scheme_.sign_share(i, msg_);
    EXPECT_TRUE(scheme_.verify_share_at(share, point));
    EXPECT_EQ(scheme_.verify_share(share, msg_), scheme_.verify_share_at(share, point));
    share.value ^= 1;
    EXPECT_FALSE(scheme_.verify_share_at(share, point));
  }
}

TEST(Shamir, BatchLagrangeMatchesPerIndex) {
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{21}}) {
    std::vector<ReplicaId> ids;
    for (ReplicaId i = 0; i < t; ++i) ids.push_back(i * 7 + 2);  // arbitrary distinct ids
    const auto batch = lagrange_coefficients_at_zero(ids);
    ASSERT_EQ(batch.size(), t);
    for (std::size_t i = 0; i < t; ++i) {
      EXPECT_EQ(batch[i].value(), lagrange_coefficient_at_zero(ids, i).value())
          << "t=" << t << " i=" << i;
    }
  }
}

TEST(Shamir, LagrangeCacheHitsAndEvicts) {
  LagrangeCache cache(2);
  const std::vector<ReplicaId> a{0, 1, 2}, b{1, 2, 3}, c{2, 3, 4};
  const auto a_coeffs = cache.coefficients(a);  // miss
  EXPECT_EQ(a_coeffs.size(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.coefficients(a);  // hit
  EXPECT_EQ(cache.hits(), 1u);
  cache.coefficients(b);  // miss, cache full
  cache.coefficients(c);  // miss, evicts a (LRU)
  EXPECT_EQ(cache.size(), 2u);
  cache.coefficients(a);  // miss again: was evicted
  EXPECT_EQ(cache.misses(), 4u);
  // Values are correct regardless of hit/miss path.
  EXPECT_EQ(cache.coefficients(b)[1].value(), lagrange_coefficient_at_zero(b, 1).value());
}

// ---- Common coin -------------------------------------------------------------

TEST(CommonCoin, ElectsSameLeaderForAnyShareSubset) {
  Rng rng(202);
  auto coin = CommonCoin::deal(10, 4, rng);
  std::vector<PartialSig> a, b;
  for (ReplicaId i = 0; i < 4; ++i) a.push_back(coin.coin_share(i, 9));
  for (ReplicaId i = 6; i < 10; ++i) b.push_back(coin.coin_share(i, 9));
  auto qa = coin.combine(a, 9);
  auto qb = coin.combine(b, 9);
  ASSERT_TRUE(qa && qb);
  EXPECT_EQ(coin.leader_from(*qa), coin.leader_from(*qb));
}

TEST(CommonCoin, DifferentViewsGiveIndependentCoins) {
  Rng rng(203);
  auto coin = CommonCoin::deal(4, 2, rng);
  std::set<ReplicaId> leaders;
  for (View v = 0; v < 64; ++v) {
    std::vector<PartialSig> shares = {coin.coin_share(0, v), coin.coin_share(1, v)};
    auto qc = coin.combine(shares, v);
    ASSERT_TRUE(qc.has_value());
    leaders.insert(coin.leader_from(*qc));
  }
  // Over 64 views with 4 replicas, all leaders should appear.
  EXPECT_EQ(leaders.size(), 4u);
}

TEST(CommonCoin, LeaderDistributionIsRoughlyUniform) {
  Rng rng(205);
  const std::uint32_t n = 4;
  auto coin = CommonCoin::deal(n, 2, rng);
  std::vector<int> counts(n, 0);
  const int kViews = 4000;
  for (View v = 0; v < kViews; ++v) {
    std::vector<PartialSig> shares = {coin.coin_share(0, v), coin.coin_share(3, v)};
    auto qc = coin.combine(shares, v);
    ASSERT_TRUE(qc.has_value());
    counts[coin.leader_from(*qc)]++;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_GT(counts[i], kViews / n / 2) << "leader " << i << " underrepresented";
    EXPECT_LT(counts[i], kViews / n * 2) << "leader " << i << " overrepresented";
  }
}

TEST(CommonCoin, ShareFromWrongViewRejected) {
  Rng rng(207);
  auto coin = CommonCoin::deal(4, 2, rng);
  auto share = coin.coin_share(0, 5);
  EXPECT_TRUE(coin.verify_coin_share(share, 5));
  EXPECT_FALSE(coin.verify_coin_share(share, 6));
}

// ---- Per-replica signatures ---------------------------------------------------

TEST(SignatureScheme, SignVerifyRoundTrip) {
  Rng rng(301);
  auto sigs = SignatureScheme::deal(4, rng);
  const Bytes msg = str_bytes("hello");
  for (ReplicaId i = 0; i < 4; ++i) {
    EXPECT_TRUE(sigs.verify(i, msg, sigs.sign(i, msg)));
  }
}

TEST(SignatureScheme, WrongSignerRejected) {
  Rng rng(303);
  auto sigs = SignatureScheme::deal(4, rng);
  const Bytes msg = str_bytes("hello");
  EXPECT_FALSE(sigs.verify(1, msg, sigs.sign(0, msg)));
}

TEST(SignatureScheme, TamperedMessageRejected) {
  Rng rng(305);
  auto sigs = SignatureScheme::deal(4, rng);
  auto sig = sigs.sign(2, str_bytes("hello"));
  EXPECT_FALSE(sigs.verify(2, str_bytes("hellp"), sig));
}

TEST(SignatureScheme, OutOfRangeSignerRejected) {
  Rng rng(307);
  auto sigs = SignatureScheme::deal(4, rng);
  Signature sig{};
  EXPECT_FALSE(sigs.verify(9, str_bytes("x"), sig));
}

// ---- Dealer --------------------------------------------------------------------

TEST(Dealer, QuorumParamsMatchPaper) {
  // n = 3f + 1 and quorum = 2f + 1.
  for (std::uint32_t f = 1; f <= 10; ++f) {
    const auto p = QuorumParams::for_n(3 * f + 1);
    EXPECT_EQ(p.f, f);
    EXPECT_EQ(p.quorum(), 2 * f + 1);
    EXPECT_EQ(p.coin_quorum(), f + 1);
  }
}

TEST(Dealer, DealsConsistentSchemes) {
  auto sys = CryptoSystem::deal(QuorumParams::for_n(7), 99);
  EXPECT_EQ(sys->params.n, 7u);
  EXPECT_EQ(sys->quorum_sigs.threshold(), 5u);
  EXPECT_EQ(sys->coin.threshold(), 3u);
}

TEST(Dealer, DeterministicFromSeed) {
  auto a = CryptoSystem::deal(QuorumParams::for_n(4), 5);
  auto b = CryptoSystem::deal(QuorumParams::for_n(4), 5);
  const Bytes msg = str_bytes("m");
  EXPECT_EQ(a->quorum_sigs.sign_share(0, msg).value,
            b->quorum_sigs.sign_share(0, msg).value);
}

// ---- certificate verification: mutated signatures ----------------------------
// Certificates.TamperedQcRejected and the TC/f-TC/coin-QC tests in
// test_smr.cpp mutate a signed field; these mutate the signature itself.

smr::Certificate signed_cert(const CryptoSystem& sys, Round round) {
  const smr::BlockId id = sha256(Bytes{std::uint8_t(round)});
  const Bytes m = smr::cert_signing_message(smr::CertKind::kQuorum, id, round, 0, 0, 0);
  std::vector<PartialSig> shares;
  for (ReplicaId i = 0; i < sys.params.quorum(); ++i) {
    shares.push_back(sys.quorum_sigs.sign_share(i, m));
  }
  return *smr::combine_certificate(sys, smr::CertKind::kQuorum, id, round, 0, 0, 0, shares);
}

TEST(CertificateVerify, MutatedSignatureRejectedForEveryKind) {
  auto sys = CryptoSystem::deal(QuorumParams::for_n(4), 42);

  smr::Certificate cert = signed_cert(*sys, 5);
  ASSERT_TRUE(smr::verify_certificate(*sys, cert));
  cert.sig.value += 1;
  EXPECT_FALSE(smr::verify_certificate(*sys, cert));

  std::vector<PartialSig> tc_shares;
  std::vector<PartialSig> ftc_shares;
  for (ReplicaId i = 0; i < sys->params.quorum(); ++i) {
    tc_shares.push_back(sys->quorum_sigs.sign_share(i, smr::tc_signing_message(3)));
    ftc_shares.push_back(sys->quorum_sigs.sign_share(i, smr::ftc_signing_message(4)));
  }
  smr::TimeoutCert tc = *smr::combine_tc(*sys, 3, tc_shares);
  ASSERT_TRUE(smr::verify_tc(*sys, tc));
  tc.sig.value ^= 1;
  EXPECT_FALSE(smr::verify_tc(*sys, tc));

  smr::FallbackTC ftc = *smr::combine_ftc(*sys, 4, ftc_shares);
  ASSERT_TRUE(smr::verify_ftc(*sys, ftc));
  ftc.sig.value ^= 1;
  EXPECT_FALSE(smr::verify_ftc(*sys, ftc));

  std::vector<PartialSig> coin_shares;
  for (ReplicaId i = 0; i < sys->params.coin_quorum(); ++i) {
    coin_shares.push_back(sys->coin.coin_share(i, 6));
  }
  smr::CoinQC coin = *smr::combine_coin_qc(*sys, 6, coin_shares);
  ASSERT_TRUE(smr::verify_coin_qc(*sys, coin));
  coin.sig.value ^= 1;
  EXPECT_FALSE(smr::verify_coin_qc(*sys, coin));
}

}  // namespace
}  // namespace repro::crypto
