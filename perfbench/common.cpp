#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

#include "crypto/sha256.h"

namespace perfbench {

namespace {
std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

std::uint64_t wall_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::strtoull(line.c_str() + 8, nullptr, 10);
  }
  return 0;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

const std::vector<MetricSpec>& end_to_end_table() {
  static const std::vector<MetricSpec> t = {
      {"setup_s", "s"},
      {"commit_rate", "blocks/s"},
      {"commit_p50_ms", "ms"},
      {"cpu_us_per_commit", "us"},
      {"peak_rss_mb", "MB"},
      {"confirm_p50_ms", "ms"},
      {"confirm_p99_ms", "ms"},
      {"max_confirm_gap_ms", "ms"},
      {"msgs_per_commit", "count"},
      {"bytes_per_commit", "B"},
      {"completed_frac", "ratio"},
  };
  return t;
}

const std::vector<MetricSpec>& per_layer_table() {
  static const std::vector<MetricSpec> t = {
      {"transport.frames_per_commit", "count"},
      {"transport.bytes_per_commit", "B"},
      {"transport.frames_per_writev", "count"},
      {"transport.sendq_drops", "count"},
      {"transport.send_us_per_commit", "us"},
      {"transport.loop_cpu_us_per_commit", "us"},
      {"transport.sendq_wait_p50_us", "us"},
      {"transport.sendq_wait_p99_us", "us"},
      {"transport.wire_p50_us", "us"},
      {"transport.wire_p99_us", "us"},
      {"transport.commit_p99_ms", "ms"},
      {"core.handler_cpu_us_per_commit", "us"},
      {"core.handler_call_p99_us", "us"},
      {"core.vote_handler_p50_us", "us"},
      {"core.vote_handler_p99_us", "us"},
      {"core.quorum_p50_us", "us"},
      {"core.quorum_p99_us", "us"},
      {"core.commit_rule_p50_us", "us"},
      {"core.commit_rule_p99_us", "us"},
      {"core.fallbacks_per_commit", "count"},
      {"core.timeouts_per_commit", "count"},
      {"core.fallback_ms_mean", "ms"},
      {"crypto.share_verifies", "count"},
      {"crypto.combines", "count"},
      {"crypto.combine_fallbacks", "count"},
      {"crypto.cert_verifies", "count"},
      {"crypto.cert_cache_hit_ratio", "ratio"},
      {"crypto.sign_ns", "ns"},
      {"crypto.verify_ns", "ns"},
      {"crypto.share_verify_ns", "ns"},
      {"crypto.combine_ns", "ns"},
      {"crypto.tverify_ns", "ns"},
      {"crypto.coin_ns", "ns"},
      {"crypto.est_us_per_commit", "us"},
      {"smr.decode_hit_ratio", "ratio"},
      {"smr.decodes_per_commit", "count"},
      {"smr.encodes_per_commit", "count"},
      {"smr.batch_ref_miss_ratio", "ratio"},
      {"smr.batch_pulls_per_commit", "count"},
      {"storage.appends_per_commit", "count"},
      {"storage.append_p50_us", "us"},
      {"storage.append_p99_us", "us"},
      {"sim.events_per_commit", "count"},
      {"sim.other_cpu_us_per_commit", "us"},
      {"net.deliveries_per_commit", "count"},
      {"client.retries_per_txn", "count"},
      {"client.rpc_msgs_per_txn", "count"},
      {"client.backlog_at_end", "count"},
      {"client.batch_us_per_commit", "us"},
      {"client.commit_to_confirm_p50_ms", "ms"},
      {"obs.span_overhead_frac", "ratio"},
      {"obs.span_dropped", "count"},
      {"obs.chain_coverage_min", "ratio"},
  };
  return t;
}

CpuJiffies read_cpu_jiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};  // user nice system idle iowait irq softirq steal
  if (in >> cpu && cpu == "cpu") {
    for (auto& x : v) in >> x;
  }
  for (auto x : v) j.total += x;
  j.iowait = v[4];
  j.steal = v[7];
  return j;
}

double reference_kernel_us(double seconds) {
  // A fixed integer-and-cache kernel: 2 MiB table walked by a hash chain.
  static std::vector<std::uint64_t> table;
  if (table.empty()) {
    table.resize(std::size_t{1} << 18);
    for (std::size_t i = 0; i < table.size(); ++i) table[i] = i * 0x9e3779b97f4a7c15ull;
  }
  std::uint64_t x = 1;
  double best = 1e300;
  const std::uint64_t end = wall_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (wall_ns() < end) {
    const std::uint64_t t0 = thread_cpu_ns();
    for (int i = 0; i < 20000; ++i) {
      x ^= table[(x >> 7) & (table.size() - 1)];
      x = x * 0x100000001b3ull + static_cast<std::uint64_t>(i);
    }
    best = std::min(best, static_cast<double>(thread_cpu_ns() - t0) / 1000.0);
  }
  return x == 42 ? -1.0 : best;  // keeps the chain live
}

void add_host_facts(Report& r, const CpuJiffies& before, const CpuJiffies& after) {
  double load1 = 0;
  if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &load1) != 1) load1 = 0;
    std::fclose(f);
  }
  const double total = static_cast<double>(after.total - before.total);
  r.note("host.nproc", "count", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  r.note("host.loadavg_1m", "count", load1);
  r.note("host.steal_frac", "ratio",
         ratio(static_cast<double>(after.steal - before.steal), total));
  r.note("host.iowait_frac", "ratio",
         ratio(static_cast<double>(after.iowait - before.iowait), total));
  r.note("host.threads", "count",
         static_cast<double>(std::max(r.max_threads, thread_count())));
}

bool prefix_consistent(std::vector<std::vector<std::uint64_t>> ledgers, bool plant,
                       std::string* detail) {
  if (plant) {
    // Flip the last common entry of the longest copy so the mismatch sits
    // inside every pairwise common prefix.
    std::size_t shortest = SIZE_MAX, longest = 0;
    for (std::size_t i = 0; i < ledgers.size(); ++i) {
      shortest = std::min(shortest, ledgers[i].size());
      if (ledgers[i].size() > ledgers[longest].size()) longest = i;
    }
    if (shortest > 0 && shortest != SIZE_MAX) ledgers[longest][shortest - 1] ^= 1;
  }
  for (std::size_t a = 0; a < ledgers.size(); ++a) {
    for (std::size_t b = a + 1; b < ledgers.size(); ++b) {
      const std::size_t common = std::min(ledgers[a].size(), ledgers[b].size());
      for (std::size_t i = 0; i < common; ++i) {
        if (ledgers[a][i] != ledgers[b][i]) {
          *detail = "ledgers of replicas " + std::to_string(a) + " and " + std::to_string(b) +
                    " differ at position " + std::to_string(i);
          return false;
        }
      }
    }
  }
  return true;
}

std::uint64_t ledger_fingerprint(const std::vector<std::uint64_t>& ids) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t id : ids) {
    h ^= id;
    h *= 1099511628211ull;
  }
  return h ^ ids.size();
}

namespace {

/// Best per-call time over `batches` batches of `calls` calls each.
template <typename Fn>
double best_ns(Fn&& fn, int calls = 200, int batches = 15) {
  double best = 1e300;
  for (int b = 0; b < batches; ++b) {
    const std::uint64_t t0 = wall_ns();
    for (int i = 0; i < calls; ++i) fn(i);
    best = std::min(best, static_cast<double>(wall_ns() - t0) / calls);
  }
  return best;
}

}  // namespace

CryptoCosts measure_crypto_costs(const repro::crypto::CryptoSystem& sys) {
  using namespace repro;
  CryptoCosts c;
  const std::uint32_t q = sys.params.quorum();
  Bytes msg(96);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 7);
  volatile std::uint64_t sink = 0;

  const crypto::Signature sig = sys.signatures.sign(0, msg);
  c.sign_ns = best_ns([&](int i) {
    msg[0] = static_cast<std::uint8_t>(i);
    sink = sink + sys.signatures.sign(0, msg)[0];
  });
  msg[0] = 0;
  c.verify_ns = best_ns([&](int) { sink = sink + sys.signatures.verify(0, msg, sig); });

  std::vector<crypto::PartialSig> shares;
  for (ReplicaId id = 0; id < q; ++id) shares.push_back(sys.quorum_sigs.sign_share(id, msg));
  c.share_verify_ns = best_ns([&](int i) {
    sink = sink + sys.quorum_sigs.verify_share(shares[static_cast<std::size_t>(i) % q], msg);
  });
  const auto combined = sys.quorum_sigs.combine(shares, msg);
  c.combine_ns = best_ns(
      [&](int) { sink = sink + sys.quorum_sigs.combine(shares, msg).has_value(); }, 50);
  if (combined) {
    c.tverify_ns = best_ns([&](int) { sink = sink + sys.quorum_sigs.verify(*combined, msg); });
  }

  std::vector<crypto::PartialSig> coin_shares;
  for (ReplicaId id = 0; id < sys.coin.threshold(); ++id) {
    coin_shares.push_back(sys.coin.coin_share(id, 7));
  }
  c.coin_ns = best_ns(
      [&](int) {
        const auto s = sys.coin.combine(coin_shares, 7);
        sink = sink + (s ? sys.coin.leader_from(*s) : 0);
      },
      50);
  return c;
}

void StatSums::add(const repro::core::ReplicaStats& s) {
  timeouts_sent += static_cast<double>(s.timeouts_sent.load());
  fallbacks_entered += static_cast<double>(s.fallbacks_entered.load());
  fallbacks_exited += static_cast<double>(s.fallbacks_exited.load());
  fallback_time_total_us += static_cast<double>(s.fallback_time_total_us.load());
  decode_hits += static_cast<double>(s.decode_hits.load());
  decode_misses += static_cast<double>(s.decode_misses.load());
  multicast_encodes += static_cast<double>(s.multicast_encodes.load());
  batch_ref_hits += static_cast<double>(s.batch_ref_hits.load());
  batch_ref_misses += static_cast<double>(s.batch_ref_misses.load());
  batches_pulled += static_cast<double>(s.batches_pulled.load());
}

void add_replica_crypto(CryptoCounts& c, const repro::core::ReplicaStats& s) {
  c.share_verifies += static_cast<double>(s.shares_verified.load());
  c.combines += static_cast<double>(s.combines_optimistic.load());
  c.combine_fallbacks += static_cast<double>(s.combine_fallbacks.load());
  c.cert_verifies += static_cast<double>(s.cert_verify_misses.load());
  c.cert_hits += static_cast<double>(s.cert_verify_hits.load());
  // Every completed fallback elects its leader from one coin combine.
  c.coins += static_cast<double>(s.fallbacks_exited.load());
}

void set_crypto_rows(Report& r, const CryptoCosts& k, const CryptoCounts& c, double commits) {
  r.set("crypto.share_verifies", ratio(c.share_verifies, commits));
  r.set("crypto.combines", ratio(c.combines, commits));
  r.set("crypto.combine_fallbacks", ratio(c.combine_fallbacks, commits));
  r.set("crypto.cert_verifies", ratio(c.cert_verifies, commits));
  r.set("crypto.cert_cache_hit_ratio", ratio(c.cert_hits, c.cert_hits + c.cert_verifies));
  r.set("crypto.sign_ns", k.sign_ns);
  r.set("crypto.verify_ns", k.verify_ns);
  r.set("crypto.share_verify_ns", k.share_verify_ns);
  r.set("crypto.combine_ns", k.combine_ns);
  r.set("crypto.tverify_ns", k.tverify_ns);
  r.set("crypto.coin_ns", k.coin_ns);
  const double total_ns = c.signs * k.sign_ns + c.verifies * k.verify_ns +
                          c.share_verifies * k.share_verify_ns + c.combines * k.combine_ns +
                          c.cert_verifies * k.tverify_ns + c.coins * k.coin_ns;
  r.set("crypto.est_us_per_commit", ratio(total_ns / 1000.0, commits));
}

}  // namespace perfbench
