// Shared plumbing for the repo benchmark: clocks, order statistics, host
// facts, the metric tables, and the result record every workload fills in.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/replica.h"
#include "crypto/dealer.h"

namespace perfbench {

/// Monotonic wall clock, nanoseconds.
std::uint64_t wall_ns();
/// CPU time of the whole process (all threads), nanoseconds.
std::uint64_t process_cpu_ns();
/// CPU time of the calling thread, nanoseconds.
std::uint64_t thread_cpu_ns();
/// ru_maxrss of the process, MiB.
double peak_rss_mb();
/// Threads currently in this process (/proc/self/status).
std::uint64_t thread_count();

/// CPUs this process may run on (a single -1 if unknown).
std::vector<int> allowed_cpus();
/// Pins the calling thread to one CPU (no-op for -1). On a virtual
/// machine whose CPUs run at different speeds from moment to moment,
/// threads that migrate carry every CPU's slow spells into one run;
/// pinned, each thread's copy of the work sees one CPU's.
void pin_to(int cpu);

/// Nearest-rank quantile of an unsorted sample (q in [0,1]); 0 when empty.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  return static_cast<double>(v[idx]);
}

inline double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The gated end-to-end metrics, in BENCHMARK.json order. Every workload
/// sets every one of them.
const std::vector<MetricSpec>& end_to_end_table();
/// The per-layer metrics of the traced run, in BENCHMARK.json order. A
/// layer a workload does not exercise reports 0.
const std::vector<MetricSpec>& per_layer_table();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one workload run hands back to main().
struct Report {
  bool correct = true;
  std::string failure;  ///< first failed correctness check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t max_threads = 0;
  std::map<std::string, double> values;  ///< by table name
  std::vector<Metric> diag;              ///< whole-run and context values, never gated

  void fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
  void set(const std::string& name, double value) { values[name] = value; }
  void note(const std::string& name, const std::string& unit, double value) {
    diag.push_back({name, unit, value});
  }
};

/// /proc/stat aggregate CPU jiffies, for steal/iowait deltas over a run.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t iowait = 0;
  std::uint64_t steal = 0;
};
CpuJiffies read_cpu_jiffies();

/// Fastest of many runs of a fixed reference kernel (~0.3 ms each) over
/// `seconds`, in CPU microseconds: how fast this host is right now.
double reference_kernel_us(double seconds);

/// Host facts recorded with every result so a noisy set is recognisable:
/// nproc, 1-minute loadavg, steal and iowait shares of all CPU time over
/// the run, and the process's peak thread count.
void add_host_facts(Report& r, const CpuJiffies& before, const CpuJiffies& after);

/// Options shared by every workload.
struct Options {
  std::uint64_t seed = 1;
  double seconds = 30;   ///< deadline for the timed phase (stall guard)
  bool trace = false;    ///< per-layer run instead of end-to-end
  bool smoke = false;    ///< tiny sizes for the benchmark's own self-test
  bool plant_mismatch = false;  ///< corrupt one ledger copy before checking
  std::string workdir;   ///< scratch space inside the checkout
};

/// Pairwise prefix consistency of committed block-id sequences (the
/// benchmark's own check; it shares no code with the harness's). With
/// `plant`, one copy is corrupted first so the check must fail.
bool prefix_consistent(std::vector<std::vector<std::uint64_t>> ledgers, bool plant,
                       std::string* detail);

/// Order-sensitive 64-bit fingerprint of a block-id sequence.
std::uint64_t ledger_fingerprint(const std::vector<std::uint64_t>& ids);

/// The ReplicaStats counters the per-layer rows read, summed over replicas.
struct StatSums {
  double timeouts_sent = 0;
  double fallbacks_entered = 0;
  double fallbacks_exited = 0;
  double fallback_time_total_us = 0;
  double decode_hits = 0;
  double decode_misses = 0;
  double multicast_encodes = 0;
  double batch_ref_hits = 0;
  double batch_ref_misses = 0;
  double batches_pulled = 0;

  void add(const repro::core::ReplicaStats& s);
};

/// Unit costs of the public crypto calls, best of several timed batches.
struct CryptoCosts {
  double sign_ns = 0;          ///< SignatureScheme::sign (message envelope)
  double verify_ns = 0;        ///< SignatureScheme::verify
  double share_verify_ns = 0;  ///< ThresholdScheme::verify_share
  double combine_ns = 0;       ///< ThresholdScheme::combine of 2f+1 shares
  double tverify_ns = 0;       ///< ThresholdScheme::verify (certificate)
  double coin_ns = 0;          ///< CommonCoin::combine + leader_from
};
CryptoCosts measure_crypto_costs(const repro::crypto::CryptoSystem& sys);

/// Per-run crypto operation counts, summed over replicas.
struct CryptoCounts {
  double signs = 0;
  double verifies = 0;
  double share_verifies = 0;
  double combines = 0;
  double combine_fallbacks = 0;
  double cert_verifies = 0;
  double cert_hits = 0;
  double coins = 0;
};
/// Sums the crypto-relevant ReplicaStats counters of one replica into `c`.
void add_replica_crypto(CryptoCounts& c, const repro::core::ReplicaStats& s);
/// Sets the crypto.* per-layer rows: per-commit counts, unit costs, and
/// the estimate sum(count x unit cost) per commit.
void set_crypto_rows(Report& r, const CryptoCosts& costs, const CryptoCounts& counts,
                     double commits);

Report run_sim_badnet(const Options& opt);
Report run_tcp(const Options& opt, bool fallback);

}  // namespace perfbench
