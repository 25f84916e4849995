// Experiment µ — microbenchmarks (google-benchmark) for the cryptographic
// substrate and serialization: these set the constant factors behind
// every protocol message the macro benches count.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "crypto/dealer.h"
#include "crypto/sha256.h"
#include "smr/block.h"
#include "smr/certificates.h"
#include "smr/messages.h"

using namespace repro;

namespace {

// One-shot hash on each compressor: the portable reference, and the one
// every Sha256 runs on (SHA-NI where the CPU has it; the label says which).
void BM_Sha256(benchmark::State& state, bool portable) {
  const crypto::detail::Compressor compress =
      portable ? &crypto::detail::compress_portable : crypto::detail::active_compressor();
  const std::size_t size = state.range(0);
  Bytes data(size, 0xab);
  for (auto _ : state) {
    crypto::Sha256 ctx(compress);
    ctx.update(data);
    benchmark::DoNotOptimize(ctx.finalize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * size));
  state.SetLabel(portable ? "portable" : crypto::detail::active_kernel_name());
}
BENCHMARK_CAPTURE(BM_Sha256, portable, true)->Arg(64)->Arg(1024)->Arg(65536);
BENCHMARK_CAPTURE(BM_Sha256, dispatched, false)->Arg(64)->Arg(1024)->Arg(65536);

void BM_FieldMul(benchmark::State& state) {
  Rng rng(1);
  crypto::Fp a(rng.next()), b(rng.next());
  for (auto _ : state) {
    a = a * b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldInverse(benchmark::State& state) {
  crypto::Fp a(123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.inverse());
  }
}
BENCHMARK(BM_FieldInverse);

void BM_ThresholdSignShare(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 7);
  const Bytes msg = {1, 2, 3, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->quorum_sigs.sign_share(0, msg));
  }
}
BENCHMARK(BM_ThresholdSignShare)->Arg(4)->Arg(31);

void BM_ThresholdCombine(benchmark::State& state) {
  // Real Lagrange interpolation over 2f+1 shares — the QC formation cost.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 7);
  const Bytes msg = {1, 2, 3, 4};
  std::vector<crypto::PartialSig> shares;
  for (ReplicaId i = 0; i < sys->params.quorum(); ++i) {
    shares.push_back(sys->quorum_sigs.sign_share(i, msg));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->quorum_sigs.combine(shares, msg));
  }
}
BENCHMARK(BM_ThresholdCombine)->Arg(4)->Arg(10)->Arg(31)->Arg(100);

void BM_ShareVerifyEach(benchmark::State& state) {
  // Eager quorum assembly: every arriving share pays one verify_share
  // (point memoized). Cost of collecting one certificate = t of these.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 7);
  const Bytes msg = {1, 2, 3, 4};
  const crypto::Fp point = sys->quorum_sigs.message_point(msg);
  std::vector<crypto::PartialSig> shares;
  for (ReplicaId i = 0; i < sys->params.quorum(); ++i) {
    shares.push_back(sys->quorum_sigs.sign_share(i, msg));
  }
  for (auto _ : state) {
    for (const auto& s : shares) {
      benchmark::DoNotOptimize(sys->quorum_sigs.verify_share_at(s, point));
    }
  }
  state.counters["shares"] = static_cast<double>(shares.size());
}
BENCHMARK(BM_ShareVerifyEach)->Arg(4)->Arg(31);

void BM_CombineThenVerify(benchmark::State& state) {
  // Certificate life cycle after its shares were checked: one Lagrange
  // combine over cached coefficients (what the assembling replica pays on
  // top of BM_ShareVerifyEach) plus ONE combined verification (what every
  // replica that receives the certificate pays).
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 7);
  const Bytes msg = {1, 2, 3, 4};
  const crypto::Fp point = sys->quorum_sigs.message_point(msg);
  std::vector<crypto::PartialSig> shares;
  std::vector<ReplicaId> ids;
  for (ReplicaId i = 0; i < sys->params.quorum(); ++i) {
    shares.push_back(sys->quorum_sigs.sign_share(i, msg));
    ids.push_back(i);
  }
  crypto::LagrangeCache cache;
  for (auto _ : state) {
    const auto& coeffs = cache.coefficients(ids);
    const auto sig = sys->quorum_sigs.combine_with_coefficients(shares, coeffs);
    benchmark::DoNotOptimize(sys->quorum_sigs.verify_at(sig, point));
  }
  state.counters["lagrange_hits"] = static_cast<double>(cache.hits());
}
BENCHMARK(BM_CombineThenVerify)->Arg(4)->Arg(31);

void BM_LagrangeBatchCoefficients(benchmark::State& state) {
  // Cold-path coefficient derivation: prefix/suffix products + ONE field
  // inversion for all t denominators (Montgomery batch inversion),
  // instead of t independent ~60-squaring inverses.
  const auto t = static_cast<std::uint32_t>(state.range(0));
  std::vector<ReplicaId> ids;
  for (ReplicaId i = 0; i < t; ++i) ids.push_back(i * 3 + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::lagrange_coefficients_at_zero(ids));
  }
}
BENCHMARK(BM_LagrangeBatchCoefficients)->Arg(3)->Arg(21)->Arg(67);

void BM_LagrangeCachedCoefficients(benchmark::State& state) {
  // Steady state: the same 2f+1 signer set recurs round after round, so
  // the coefficient vector is an LRU hit — one hash of the id vector.
  const auto t = static_cast<std::uint32_t>(state.range(0));
  std::vector<ReplicaId> ids;
  for (ReplicaId i = 0; i < t; ++i) ids.push_back(i * 3 + 1);
  crypto::LagrangeCache cache;
  cache.coefficients(ids);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.coefficients(ids));
  }
}
BENCHMARK(BM_LagrangeCachedCoefficients)->Arg(3)->Arg(21)->Arg(67);

void BM_ThresholdVerify(benchmark::State& state) {
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 7);
  const Bytes msg = {1, 2, 3, 4};
  std::vector<crypto::PartialSig> shares;
  for (ReplicaId i = 0; i < 3; ++i) shares.push_back(sys->quorum_sigs.sign_share(i, msg));
  const auto sig = *sys->quorum_sigs.combine(shares, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->quorum_sigs.verify(sig, msg));
  }
}
BENCHMARK(BM_ThresholdVerify);

smr::Certificate bench_certificate(const crypto::CryptoSystem& sys) {
  const smr::BlockId id = crypto::sha256(Bytes{1, 2, 3});
  const Bytes msg = smr::cert_signing_message(smr::CertKind::kQuorum, id, 3, 0, 0, 0);
  std::vector<crypto::PartialSig> shares;
  for (ReplicaId i = 0; i < sys.params.quorum(); ++i) {
    shares.push_back(sys.quorum_sigs.sign_share(i, msg));
  }
  return *smr::combine_certificate(sys, smr::CertKind::kQuorum, id, 3, 0, 0, 0, shares);
}

void BM_CertVerifyFull(benchmark::State& state) {
  // Every delivery pays the full threshold verification: build the
  // signing message, hash it to a field point, one field multiply. The
  // GF(2^61-1) model scheme verifies in O(1) field ops; a production
  // threshold scheme (BLS) would pay a pairing (~ms) here instead.
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 7);
  const smr::Certificate cert = bench_certificate(*sys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(smr::verify_certificate(*sys, cert));
  }
}
BENCHMARK(BM_CertVerifyFull);

void BM_CoinElection(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 7);
  std::vector<crypto::PartialSig> shares;
  for (ReplicaId i = 0; i < sys->params.coin_quorum(); ++i) {
    shares.push_back(sys->coin.coin_share(i, 5));
  }
  for (auto _ : state) {
    auto qc = sys->coin.combine(shares, 5);
    benchmark::DoNotOptimize(sys->coin.leader_from(*qc));
  }
}
BENCHMARK(BM_CoinElection)->Arg(4)->Arg(31);

void BM_SignatureSign(benchmark::State& state) {
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 7);
  const Bytes msg(256, 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->signatures.sign(1, msg));
  }
}
BENCHMARK(BM_SignatureSign);

void BM_BlockIdCompute(benchmark::State& state) {
  const std::size_t payload = state.range(0);
  const Bytes txn(payload, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        smr::Block::compute_id(smr::genesis_certificate(), 1, 0, 0, 0, txn));
  }
}
BENCHMARK(BM_BlockIdCompute)->Arg(0)->Arg(1024);

void BM_ProposalEncodeDecode(benchmark::State& state) {
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 7);
  smr::Message msg = smr::ProposalMsg{
      smr::Block::make(smr::genesis_certificate(), 1, 0, 0, 0, Bytes(256, 0x33)),
      std::nullopt,
      {},
      {}};
  smr::sign_message(*sys, 0, msg);
  for (auto _ : state) {
    const Bytes wire = smr::encode_message(msg);
    benchmark::DoNotOptimize(smr::decode_message(wire));
  }
}
BENCHMARK(BM_ProposalEncodeDecode);

}  // namespace

BENCHMARK_MAIN();
