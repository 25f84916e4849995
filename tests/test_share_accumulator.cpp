// Unit tests for the share accumulators (smr/share_accumulator.h) — the
// quorum-assembly layer under every vote/timeout/coin-share pool.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/threshold.h"
#include "smr/share_accumulator.h"

using namespace repro;
using namespace repro::smr;

namespace {

Bytes str_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

class ShareAccumulatorTest : public ::testing::Test {
 protected:
  ShareAccumulatorTest() : rng_(77), scheme_(crypto::ThresholdScheme::deal(7, 5, rng_)) {}

  ShareEnv env() { return ShareEnv{&scheme_, &lagrange_, &stats_}; }

  crypto::PartialSig share_of(ReplicaId i) { return scheme_.sign_share(i, msg_); }

  crypto::PartialSig bad_share_of(ReplicaId i) {
    auto s = share_of(i);
    s.value ^= 1;
    return s;
  }

  Rng rng_;
  crypto::ThresholdScheme scheme_;
  crypto::LagrangeCache lagrange_;
  ShareStats stats_;
  const Bytes msg_ = str_bytes("target message");
};

TEST_F(ShareAccumulatorTest, FormsAtThresholdAfterVerifyingEachShare) {
  ShareAccumulator acc(scheme_, msg_);
  for (ReplicaId i = 0; i < 4; ++i) {
    EXPECT_FALSE(acc.add(env(), share_of(i)).has_value());
  }
  const auto sig = acc.add(env(), share_of(4));
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(scheme_.verify(*sig, msg_));
  EXPECT_TRUE(acc.done());
  EXPECT_EQ(stats_.shares_verified, 5u);  // one check per share, on arrival
  EXPECT_EQ(stats_.combines, 1u);
  EXPECT_EQ(stats_.bad_shares_rejected, 0u);
}

TEST_F(ShareAccumulatorTest, BannedSignerStaysBannedAfterEviction) {
  ShareAccumulator acc(scheme_, msg_);
  acc.add(env(), bad_share_of(0));  // rejected on arrival, 0 banned
  for (ReplicaId i = 1; i < 5; ++i) acc.add(env(), share_of(i));
  EXPECT_EQ(stats_.bad_shares_rejected, 1u);
  // A now-VALID share from the banned signer is refused: admitting it
  // would let a Byzantine replica alternate bad and good shares forever.
  EXPECT_FALSE(acc.add(env(), share_of(0)).has_value());
  EXPECT_EQ(acc.count(), 4u);
  const auto sig = acc.add(env(), share_of(5));
  ASSERT_TRUE(sig.has_value());
}

TEST_F(ShareAccumulatorTest, EagerModeRejectsAndBansAtAdmission) {
  ShareAccumulator acc(scheme_, msg_);
  EXPECT_FALSE(acc.add(env(), bad_share_of(0)).has_value());
  EXPECT_EQ(stats_.bad_shares_rejected, 1u);
  EXPECT_EQ(acc.count(), 0u);
  ASSERT_GT(stats_.blame.size(), 0u);
  EXPECT_EQ(stats_.blame[0], 1u);
  // Banned for this target: later valid shares from the same signer are
  // dropped.
  EXPECT_FALSE(acc.add(env(), share_of(0)).has_value());
  EXPECT_EQ(acc.count(), 0u);
  std::optional<crypto::ThresholdSig> sig;
  for (ReplicaId i = 1; i < 6; ++i) sig = acc.add(env(), share_of(i));
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(scheme_.verify(*sig, msg_));
  EXPECT_EQ(stats_.combines, 1u);
}

TEST_F(ShareAccumulatorTest, DuplicateAndOutOfRangeSignersRejected) {
  ShareAccumulator acc(scheme_, msg_);
  EXPECT_FALSE(acc.add(env(), share_of(2)).has_value());
  EXPECT_FALSE(acc.add(env(), share_of(2)).has_value());  // duplicate
  EXPECT_EQ(acc.count(), 1u);
  crypto::PartialSig oor = share_of(2);
  oor.signer = 7;  // n = 7, ids are 0..6
  EXPECT_FALSE(acc.add(env(), oor).has_value());
  EXPECT_EQ(acc.count(), 1u);
}

TEST_F(ShareAccumulatorTest, DoneAccumulatorIgnoresFurtherShares) {
  ShareAccumulator acc(scheme_, msg_);
  std::optional<crypto::ThresholdSig> sig;
  for (ReplicaId i = 0; i < 5; ++i) sig = acc.add(env(), share_of(i));
  ASSERT_TRUE(sig.has_value());
  // The certificate is handed out exactly once; extra shares are no-ops.
  EXPECT_FALSE(acc.add(env(), share_of(5)).has_value());
  EXPECT_TRUE(acc.done());
}

TEST_F(ShareAccumulatorTest, AllBadSharesNeverFormCertificate) {
  ShareAccumulator acc(scheme_, msg_);
  for (ReplicaId i = 0; i < 7; ++i) {
    EXPECT_FALSE(acc.add(env(), bad_share_of(i)).has_value());
  }
  EXPECT_FALSE(acc.done());
  // Every share was rejected on arrival; nothing was buffered or combined.
  EXPECT_EQ(stats_.bad_shares_rejected, 7u);
  EXPECT_EQ(stats_.combines, 0u);
  EXPECT_EQ(acc.count(), 0u);
}

TEST(SharePool, KeysIsolateTargetsAndEraseIfPrunes) {
  Rng rng(9);
  auto scheme = crypto::ThresholdScheme::deal(4, 3, rng);
  crypto::LagrangeCache lagrange;
  ShareStats stats;
  const ShareEnv env{&scheme, &lagrange, &stats};
  SharePool<std::uint64_t> pool;

  auto msg_for = [](std::uint64_t key) { return str_bytes("round " + std::to_string(key)); };
  for (std::uint64_t round : {1ull, 2ull, 3ull}) {
    for (ReplicaId i = 0; i < 2; ++i) {
      EXPECT_FALSE(pool.add(env, round, scheme.sign_share(i, msg_for(round)),
                            [&] { return msg_for(round); })
                       .has_value());
    }
    EXPECT_EQ(pool.count(round), 2u);
  }
  EXPECT_EQ(pool.size(), 3u);
  // Completing round 2 does not touch rounds 1 and 3.
  const auto sig = pool.add(env, 2, scheme.sign_share(2, msg_for(2)), [&] { return msg_for(2); });
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(pool.formed(2));
  EXPECT_FALSE(pool.formed(1));
  // Prune everything below round 3.
  pool.erase_if([](std::uint64_t key) { return key < 3; });
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.count(3), 2u);
  EXPECT_EQ(pool.count(1), 0u);
}

}  // namespace
