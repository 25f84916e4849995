// Byzantine share floods against the share accumulators: f replicas send
// invalid (or impersonated) threshold shares into every quorum pool, and
// the honest replicas must stay live and safe. Every share is verified
// when it arrives, so a bad share is rejected and its signer banned per
// target before it can occupy a slot.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/invariants.h"

namespace repro::harness {
namespace {

struct FloodRun {
  std::uint64_t bad_shares_rejected = 0;
  std::uint64_t shares_verified = 0;
  bool reached = false;
  bool safe = false;
};

FloodRun run_flood(Protocol p, std::uint32_t n, std::uint32_t bad, std::size_t commits,
                   core::FaultKind fault = core::FaultKind::kBadShares) {
  ExperimentConfig cfg;
  cfg.n = n;
  cfg.protocol = p;
  cfg.scenario = NetScenario::kAsynchronous;
  cfg.seed = 4242;
  for (std::uint32_t b = 0; b < bad; ++b) {
    cfg.faults[n - 1 - b] = fault;
  }
  Experiment exp(cfg);
  exp.start();
  FloodRun r;
  r.reached = exp.run_until_commits(commits, 120'000'000'000ull);
  r.safe = exp.check_safety().ok;
  for (ReplicaId id = 0; id < n; ++id) {
    if (!exp.is_honest(id)) continue;
    r.bad_shares_rejected += exp.replica(id).stats().bad_shares_rejected;
    r.shares_verified += exp.replica(id).stats().shares_verified;
  }
  return r;
}

/// f replicas flood invalid threshold shares into every quorum pool the
/// protocol runs (votes, view-timeouts, f-votes, coin shares). Liveness
/// must hold: each invalid share is rejected on arrival.
TEST(BadShareFlood, FallbackProtocolStaysLiveViaPerShareFallback) {
  const FloodRun r = run_flood(Protocol::kFallback3, 7, 2, 15);
  EXPECT_TRUE(r.reached);
  EXPECT_TRUE(r.safe);
  EXPECT_GT(r.bad_shares_rejected, 0u);
  EXPECT_GT(r.shares_verified, 0u);
}

TEST(BadShareFlood, AlwaysFallbackFloodedCoinAndVotePoolsStayLive) {
  // The ACE-style baseline exercises every pool type each view; f bad
  // replicas poison all of them, permanently.
  const FloodRun r = run_flood(Protocol::kAlwaysFallback, 7, 2, 10);
  EXPECT_TRUE(r.reached);
  EXPECT_TRUE(r.safe);
  EXPECT_GT(r.bad_shares_rejected, 0u);
}

/// f replicas flood garbage shares that CLAIM HONEST SIGNER IDS (each
/// stamps its neighbour's id on every vote/timeout/coin share it sends).
/// Admission must bind the claimed signer to the envelope-authenticated
/// sender and drop the forgeries; were they admitted, they would occupy
/// the honest signers' accumulator slots — the genuine shares would then
/// bounce as duplicates and the honest ids would be banned per target,
/// so no quorum certificate (QC, f-TC, coin-QC) could ever form again: a
/// permanent liveness break.
TEST(ImpersonatedShareFlood, ForgedSignerIdsCannotWedgeQuorums) {
  for (const Protocol p : {Protocol::kFallback3, Protocol::kAlwaysFallback}) {
    const FloodRun r = run_flood(p, 7, 2, 10, core::FaultKind::kImpersonateShares);
    EXPECT_TRUE(r.reached);
    EXPECT_TRUE(r.safe);
    // Forgeries are rejected at admission and blamed on the authenticated
    // sender.
    EXPECT_GT(r.bad_shares_rejected, 0u);
  }
}

}  // namespace
}  // namespace repro::harness
