// tcp-steady and tcp-fallback: four TcpNodes in this process over
// loopback, no injected delay, so latency is processing plus wakeups.
//
// tcp-steady uses bftnode's shipped defaults (Figure 2 protocol, 256-byte
// batches, 300 ms round timeout, no verify pool) plus one FileWal per
// replica, so the WAL sits on the vote path. tcp-fallback runs every view
// through the asynchronous view change (always_fallback, empty blocks, no
// WAL): f-chains, f-votes and coin shares, an O(n^2) burst of tiny frames.
//
// Runs are fixed work: a warm-up, then a timed phase of commits at the
// slowest replica, cut into 100-commit slices at replica 0's ledger
// positions. A run starts several fresh clusters one after another and
// pools their slices. Each wall-clock metric is read from the fastest
// tenth of the slices; whole-run values are kept as diagnostics so a
// periodic stall still shows.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>


#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "core/fallback.h"
#include "crypto/sha256.h"
#include "obs/span.h"
#include "probes.h"
#include "smr/messages.h"
#include "storage/wal.h"
#include "transport/node.h"

namespace perfbench {
namespace {

using namespace repro;
using namespace repro::transport;

constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kConfirmAcks = 2;  ///< f + 1 at n = 4

/// Commits per slice: small enough that a slice is ~15-40 ms, so a host
/// hiccup spoils only a few of the hundreds of slices a run has.
constexpr std::size_t kSlice = 100;

/// Fresh clusters timed one after another in an untraced run, slices
/// pooled: a slow spell of the host shorter than the run spoils only part
/// of the slices.
constexpr int kClusters = 3;

struct Workload {
  bool fallback;
  std::size_t warmup;  ///< commits excluded from the timed phase
  std::size_t timed;   ///< commits in the timed phase (a multiple of kSlice)
  int setups;          ///< extra bring-ups timed for setup_s
  const char* name;
};

Workload workload_for(const Options& o, bool fallback) {
  const char* name = fallback ? "tcp-fallback" : "tcp-steady";
  if (o.smoke) return {fallback, 100, 3 * kSlice, 2, name};
  if (fallback) return {true, 1000, 20'000, 39, name};
  return {false, 2000, 30'000, 39, name};
}

/// Per-node record, written only by that node's thread while it runs.
struct NodeLog {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> births;  ///< (block key, wall ns)
  std::vector<std::uint64_t> commit_key;
  std::vector<std::uint64_t> commit_ns;
  std::vector<std::uint64_t> commit_cpu_ns;  ///< process CPU at each commit (replica 0 only)
  SpanLog probes;
};

std::vector<std::uint16_t> free_ports(std::uint32_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::uint32_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      std::fprintf(stderr, "pbench: cannot reserve a loopback port\n");
      std::exit(2);
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

/// One in-process cluster: keys, WALs, nodes. Destruction stops the nodes.
class Cluster {
 public:
  Cluster(const Options& opt, const Workload& wl, int incarnation, bool traced,
          std::shared_ptr<obs::SpanRing> spans, std::size_t expected_commits)
      : logs_(kN) {
    auto crypto = crypto::CryptoSystem::deal(QuorumParams::for_n(kN), opt.seed);
    const auto ports = free_ports(kN);
    std::vector<PeerAddress> peers;
    for (std::uint16_t p : ports) peers.push_back(PeerAddress{"127.0.0.1", p});
    core::FallbackParams fb;
    fb.always_fallback = wl.fallback;
    const std::vector<int> cpus = allowed_cpus();
    for (ReplicaId i = 0; i < kN; ++i) {
      NodeLog* log = &logs_[i];
      log->commit_key.reserve(expected_commits + 1024);
      log->commit_ns.reserve(expected_commits + 1024);
      log->births.reserve(expected_commits + 1024);
      if (i == 0) log->commit_cpu_ns.reserve(expected_commits + 1024);
      NodeConfig cfg;
      cfg.id = i;
      cfg.peers = peers;
      cfg.crypto = crypto;
      cfg.seed = opt.seed * 1'000'003 + i;
      cfg.pcfg.base_timeout_us = 300'000;
      cfg.pcfg.batch_bytes = wl.fallback ? 0 : 256;
      cfg.verify_threads = 0;
      cfg.spans = spans;
      if (!wl.fallback) {
        const std::string path = opt.workdir + "/wal-" + std::to_string(incarnation) + "-" +
                                 std::to_string(i);
        std::filesystem::remove(path);
        wals_.push_back(std::make_unique<storage::FileWal>(path));
        wal_paths_.push_back(path);
        storage::Wal* wal = wals_.back().get();
        if (traced) {
          timed_wals_.push_back(std::make_unique<TimedWal>(wal, &log->probes, i));
          wal = timed_wals_.back().get();
        }
        cfg.wal = wal;
      }
      const int cpu = cpus[i % cpus.size()];
      nodes_.push_back(std::make_unique<TcpNode>(
          cfg,
          [log, fb, traced, cpu](const core::ReplicaContext& base)
              -> std::unique_ptr<core::IReplica> {
            pin_to(cpu);  // the factory runs on the node thread
            core::ReplicaContext ctx = base;
            ctx.on_block_born = [log](const smr::BlockId& id, SimTime) {
              log->births.emplace_back(crypto::digest_prefix_u64(id), wall_ns());
            };
            const bool clock_cpu = base.id == 0;
            ctx.on_commit = [log, clock_cpu](const smr::CommitRecord& rec) {
              if (clock_cpu) log->commit_cpu_ns.push_back(process_cpu_ns());
              log->commit_ns.push_back(wall_ns());
              log->commit_key.push_back(crypto::digest_prefix_u64(rec.id));
            };
            if (!traced) return std::make_unique<core::FallbackReplica>(ctx, fb);
            auto net = std::make_unique<TimedNetwork>(ctx.net, &log->probes, ctx.id);
            ctx.net = net.get();
            return std::make_unique<TimedReplica>(
                std::move(net), std::make_unique<core::FallbackReplica>(ctx, fb), &log->probes);
          }));
    }
  }

  ~Cluster() {
    stop();
    nodes_.clear();
    for (const auto& p : wal_paths_) std::filesystem::remove(p);
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Nodes dial lower ids, so starting in id order finds every listener bound.
  void start() {
    for (auto& n : nodes_) n->start();
  }
  void stop() {
    for (auto& n : nodes_) n->stop();
  }

  std::uint64_t min_committed() const {
    std::uint64_t m = UINT64_MAX;
    for (const auto& n : nodes_) m = std::min(m, n->committed());
    return m;
  }
  const TcpNode& node(ReplicaId i) const { return *nodes_[i]; }
  const NodeLog& log(ReplicaId i) const { return logs_[i]; }

 private:
  std::vector<NodeLog> logs_;
  std::vector<std::unique_ptr<storage::FileWal>> wals_;
  std::vector<std::unique_ptr<TimedWal>> timed_wals_;
  std::vector<std::string> wal_paths_;
  std::vector<std::unique_ptr<TcpNode>> nodes_;  // last: stopped before the logs die
};

/// Starts the cluster and waits until every replica committed once;
/// false if the deadline passed first.
bool bring_up(Cluster& c, std::uint64_t t0, double deadline_s) {
  c.start();
  while (c.min_committed() == 0) {
    if (static_cast<double>(wall_ns() - t0) / 1e9 > deadline_s) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

/// Set-up time of a stopped cluster started at `t0`: keys, construction
/// and mesh connect up to the first commit at every replica, read from
/// the commit hook's own timestamps rather than the polling loop.
double setup_seconds(const Cluster& c, std::uint64_t t0) {
  std::uint64_t last = t0;
  for (ReplicaId i = 0; i < kN; ++i) {
    if (c.log(i).commit_ns.empty()) return -1;
    last = std::max(last, c.log(i).commit_ns.front());
  }
  return static_cast<double>(last - t0) / 1e9;
}

/// Everything one timed cluster run produced.
struct Run {
  bool stalled = false;
  bool hook_mismatch = false;  ///< the commit hook saw another sequence than the ledger
  std::uint64_t target = 0;
  std::uint64_t reached = 0;       ///< commits at the slowest replica, capped at target
  double committed_at_stop = 0;    ///< commits at the slowest replica once stopped
  double setup_s = 0;
  std::vector<std::vector<std::uint64_t>> ledgers;
  std::vector<std::vector<std::uint64_t>> commit_ns;  ///< per replica, per ledger index
  std::vector<std::uint64_t> cpu_ns;  ///< process CPU at each of replica 0's commits
  std::uint64_t cpu_total_ns = 0;     ///< process CPU from construction to stop
  std::unordered_map<std::uint64_t, std::uint64_t> birth_ns;  ///< block key -> earliest birth
  net::NetStats net;  ///< summed over nodes
  StatSums stats;
  CryptoCounts crypto;
  std::vector<const SpanLog*> probes;
  std::uint64_t max_threads = 0;
  std::string stall_report;
};

struct SliceStats {
  double rate = 0;           ///< commits/s at the slowest replica
  double cpu_us = 0;         ///< process CPU per commit
  double commit_p50_ms = 0;  ///< birth -> commit at each replica
  double confirm_p50_ms = 0; ///< birth -> (f+1)-th replica commit
  double confirm_p99_ms = 0;
  double max_gap_ms = 0;     ///< longest wait between consecutive confirms
};

/// Statistics of ledger positions [i0, i1): commits per second and
/// process CPU per commit at replica 0, birth -> commit latency at every
/// replica, birth -> (f+1)-th commit latency, and the longest wait between
/// consecutive confirmations.
SliceStats piece_stats(const Run& run, const std::vector<std::uint64_t>& confirm_ns,
                       std::size_t i0, std::size_t i1) {
  SliceStats s;
  const double commits = static_cast<double>(i1 - i0);
  s.rate = commits / (static_cast<double>(run.commit_ns[0][i1] - run.commit_ns[0][i0]) / 1e9);
  s.cpu_us = static_cast<double>(run.cpu_ns[i1] - run.cpu_ns[i0]) / 1000.0 / commits;
  std::vector<std::uint64_t> commit_lat, confirm_lat;
  for (std::size_t r = 0; r < run.commit_ns.size(); ++r) {
    for (std::size_t i = i0; i < i1 && i < run.commit_ns[r].size(); ++i) {
      const auto it = run.birth_ns.find(run.ledgers[r][i]);
      if (it != run.birth_ns.end() && run.commit_ns[r][i] >= it->second) {
        commit_lat.push_back(run.commit_ns[r][i] - it->second);
      }
    }
  }
  std::uint64_t gap = 0;
  for (std::size_t i = i0; i < i1; ++i) {
    if (i > i0) gap = std::max(gap, confirm_ns[i] - confirm_ns[i - 1]);
    const auto it = run.birth_ns.find(run.ledgers[0][i]);
    if (it != run.birth_ns.end() && confirm_ns[i] >= it->second) {
      confirm_lat.push_back(confirm_ns[i] - it->second);
    }
  }
  s.commit_p50_ms = quantile(commit_lat, 0.5) / 1e6;
  s.confirm_p50_ms = quantile(confirm_lat, 0.5) / 1e6;
  s.confirm_p99_ms = quantile(confirm_lat, 0.99) / 1e6;
  s.max_gap_ms = static_cast<double>(gap) / 1e6;
  return s;
}

/// Time of the (f+1)-th commit of each ledger index: when a client
/// waiting for f+1 matching replies would have its answer.
std::vector<std::uint64_t> confirm_times(const Run& run) {
  std::size_t len = SIZE_MAX;
  for (const auto& c : run.commit_ns) len = std::min(len, c.size());
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; len != SIZE_MAX && i < len; ++i) {
    std::vector<std::uint64_t> ts;
    for (const auto& c : run.commit_ns) ts.push_back(c[i]);
    std::nth_element(ts.begin(), ts.begin() + (kConfirmAcks - 1), ts.end());
    out.push_back(ts[kConfirmAcks - 1]);
  }
  return out;
}

Run run_cluster(const Options& opt, const Workload& wl, int incarnation, bool traced,
                std::shared_ptr<obs::SpanRing> spans, std::unique_ptr<Cluster>& keep) {
  Run run;
  run.target = wl.warmup + wl.timed;
  const std::uint64_t t0 = wall_ns();
  const std::uint64_t cpu0 = process_cpu_ns();
  keep = std::make_unique<Cluster>(opt, wl, incarnation, traced, spans, run.target);
  Cluster& c = *keep;
  bring_up(c, t0, opt.seconds);

  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::uint64_t reached = 0;
  for (int polls = 0;; ++polls) {
    reached = c.min_committed();
    if (reached >= run.target) break;
    if (wall_ns() >= deadline) {
      run.stalled = true;
      break;
    }
    if (polls == 100) run.max_threads = thread_count();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  run.reached = std::min<std::uint64_t>(reached, run.target);
  if (run.stalled) {
    for (ReplicaId i = 0; i < kN; ++i) {
      const TcpNode& n = c.node(i);
      run.stall_report += "replica " + std::to_string(i) + ": commits " +
                          std::to_string(n.committed()) + " view " +
                          std::to_string(n.current_view()) + " round " +
                          std::to_string(n.current_round()) + "\n";
    }
  }
  c.stop();
  run.cpu_total_ns = process_cpu_ns() - cpu0;
  run.setup_s = setup_seconds(c, t0);

  for (ReplicaId i = 0; i < kN; ++i) {
    const TcpNode& n = c.node(i);
    const NodeLog& log = c.log(i);
    run.ledgers.push_back(log.commit_key);
    const double len = static_cast<double>(log.commit_key.size());
    run.committed_at_stop = i == 0 ? len : std::min(run.committed_at_stop, len);
    run.commit_ns.push_back(log.commit_ns);
    if (i == 0) run.cpu_ns = log.commit_cpu_ns;
    for (const auto& [key, t] : log.births) {
      auto [it, fresh] = run.birth_ns.emplace(key, t);
      if (!fresh) it->second = std::min(it->second, t);
    }
    // The ledger itself, not the benchmark's hook, is what must agree.
    std::vector<std::uint64_t> ledger;
    for (const auto& rec : n.replica().ledger().records()) {
      ledger.push_back(crypto::digest_prefix_u64(rec.id));
    }
    if (ledger != log.commit_key) run.hook_mismatch = true;
    const net::NetStats st = n.net_stats();
    run.net.messages += st.messages;
    run.net.bytes += st.bytes;
    run.net.writev_batches += st.writev_batches;
    run.net.writev_frames += st.writev_frames;
    run.net.sendq_dropped_frames += st.sendq_dropped_frames;
    run.stats.add(n.replica().stats());
    add_replica_crypto(run.crypto, n.replica().stats());
    run.probes.push_back(&log.probes);
  }
  return run;
}

/// Equal slices of `slice` ledger positions after the warm-up, as far
/// as every replica got.
std::vector<SliceStats> slice_stats(const Run& run, std::size_t warmup, std::size_t slice,
                                    const std::vector<std::uint64_t>& confirm_ns) {
  std::vector<SliceStats> out;
  for (std::size_t i0 = warmup; i0 + slice < confirm_ns.size(); i0 += slice) {
    out.push_back(piece_stats(run, confirm_ns, i0, i0 + slice));
  }
  return out;
}

void report_stall(const Run& run) {
  std::printf("STALL: commit target missed at the deadline\n%s", run.stall_report.c_str());
}

void check(Report& r, const Options& opt, const Run& run) {
  std::string detail;
  if (!prefix_consistent(run.ledgers, opt.plant_mismatch, &detail)) r.fail(detail);
  if (run.hook_mismatch) r.fail("a replica's commit hook disagrees with its ledger");
}

/// Whole timed phase (warm-up excluded) as one piece.
SliceStats whole_run(const Run& run, std::size_t warmup,
                     const std::vector<std::uint64_t>& confirm_ns) {
  if (warmup + 1 >= confirm_ns.size()) return SliceStats{};
  return piece_stats(run, confirm_ns, warmup, confirm_ns.size() - 1);
}

std::string spans_path(const Options& opt, const Workload& wl) {
  return opt.workdir + "/spans-" + wl.name + "-" + std::to_string(opt.seed) + ".ndjson";
}

}  // namespace

Report run_tcp(const Options& opt, bool fallback) {
  Report r;
  const Workload wl = workload_for(opt, fallback);
  std::unique_ptr<Cluster> cluster;

  if (!opt.trace) {
    std::vector<double> setups;
    for (int i = 0; i < wl.setups; ++i) {
      const std::uint64_t t0 = wall_ns();
      Cluster c(opt, wl, i + 1, false, nullptr, 16);
      if (!bring_up(c, t0, opt.seconds)) {
        r.fail("bring-up " + std::to_string(i) + " never committed");
        return r;
      }
      c.stop();  // joins the node threads before their logs are read
      setups.push_back(setup_seconds(c, t0));
    }
    std::vector<SliceStats> slices;
    SliceStats worst;  ///< slowest whole timed phase of any cluster
    worst.rate = HUGE_VAL;
    double messages = 0, bytes = 0, commits = 0, fallbacks = 0;
    for (int k = 0; k < kClusters; ++k) {
      Run run = run_cluster(opt, wl, wl.setups + 1 + k, false, nullptr, cluster);
      cluster.reset();  // frees this cluster before the next one starts
      if (run.setup_s > 0) setups.push_back(run.setup_s);
      check(r, opt, run);
      r.attempted += run.target;
      r.failed += run.target - run.reached;
      r.max_threads = std::max(r.max_threads, run.max_threads);
      if (run.stalled) report_stall(run);

      const auto confirm_ns = confirm_times(run);
      const auto sl = slice_stats(run, wl.warmup, kSlice, confirm_ns);
      slices.insert(slices.end(), sl.begin(), sl.end());
      const SliceStats w = whole_run(run, wl.warmup, confirm_ns);
      worst.rate = std::min(worst.rate, w.rate);
      worst.cpu_us = std::max(worst.cpu_us, w.cpu_us);
      worst.commit_p50_ms = std::max(worst.commit_p50_ms, w.commit_p50_ms);
      worst.confirm_p99_ms = std::max(worst.confirm_p99_ms, w.confirm_p99_ms);
      worst.max_gap_ms = std::max(worst.max_gap_ms, w.max_gap_ms);
      // Traffic counters run until the nodes stop, so divide by every commit.
      messages += static_cast<double>(run.net.messages);
      bytes += static_cast<double>(run.net.bytes);
      commits += run.committed_at_stop;
      fallbacks += run.stats.fallbacks_entered;
    }
    if (slices.empty()) {
      r.fail("no complete slice before the deadline");
      return r;
    }
    // The fastest tenth of slices: other processes on the host only add
    // time, and a run they disturb throughout still has clean slices. A
    // decile, not the single fastest slice, keeps extreme-value noise out.
    auto fast_tenth = [&](double SliceStats::*field, bool higher_is_better) {
      std::vector<double> v;
      for (const auto& sl : slices) v.push_back(sl.*field);
      return quantile(v, higher_is_better ? 0.9 : 0.1);
    };
    r.set("setup_s", quantile(setups, 0.5));
    r.set("commit_rate", fast_tenth(&SliceStats::rate, true));
    r.set("commit_p50_ms", fast_tenth(&SliceStats::commit_p50_ms, false));
    r.set("cpu_us_per_commit", fast_tenth(&SliceStats::cpu_us, false));
    r.set("peak_rss_mb", peak_rss_mb());
    r.set("confirm_p50_ms", fast_tenth(&SliceStats::confirm_p50_ms, false));
    r.set("confirm_p99_ms", fast_tenth(&SliceStats::confirm_p99_ms, false));
    r.set("max_confirm_gap_ms", fast_tenth(&SliceStats::max_gap_ms, false));
    r.set("msgs_per_commit", ratio(messages, commits));
    r.set("bytes_per_commit", ratio(bytes, commits));
    const double attempted = static_cast<double>(r.attempted);
    r.set("completed_frac", ratio(attempted - static_cast<double>(r.failed), attempted));

    r.note("whole.commit_rate", "blocks/s", worst.rate);
    r.note("whole.cpu_us_per_commit", "us", worst.cpu_us);
    r.note("whole.commit_p50_ms", "ms", worst.commit_p50_ms);
    r.note("whole.confirm_p99_ms", "ms", worst.confirm_p99_ms);
    r.note("whole.max_confirm_gap_ms", "ms", worst.max_gap_ms);
    r.note("setup_min_s", "s", *std::min_element(setups.begin(), setups.end()));
    r.note("slices", "count", static_cast<double>(slices.size()));
    r.note("failed_frac", "ratio", ratio(static_cast<double>(r.failed), attempted));
    r.note("fallbacks_entered", "count", fallbacks);
    return r;
  }

  // Traced: a plain run for the overhead baseline, then the run with the
  // boundary timers and the program's own span ring switched on.
  const CryptoCosts costs =
      measure_crypto_costs(*crypto::CryptoSystem::deal(QuorumParams::for_n(kN), opt.seed));
  double plain_cpu = 0;
  {
    Run plain = run_cluster(opt, wl, 0, false, nullptr, cluster);
    check(r, opt, plain);
    const auto confirm_ns = confirm_times(plain);
    plain_cpu = whole_run(plain, wl.warmup, confirm_ns).cpu_us;
    cluster.reset();
  }
  auto ring = std::make_shared<obs::SpanRing>(std::size_t{1} << 20, /*wall_clock=*/true);
  Run run = run_cluster(opt, wl, 1, true, ring, cluster);
  check(r, opt, run);
  r.attempted = run.target;
  r.failed = run.target - run.reached;
  r.max_threads = run.max_threads;
  if (run.stalled) report_stall(run);

  const double commits = run.committed_at_stop;
  const auto confirm_ns = confirm_times(run);
  const SliceStats w = whole_run(run, wl.warmup, confirm_ns);
  r.set("transport.frames_per_commit", ratio(static_cast<double>(run.net.messages), commits));
  r.set("transport.bytes_per_commit", ratio(static_cast<double>(run.net.bytes), commits));
  r.set("transport.frames_per_writev",
        ratio(static_cast<double>(run.net.writev_frames),
              static_cast<double>(run.net.writev_batches)));
  r.set("transport.sendq_drops", static_cast<double>(run.net.sendq_dropped_frames));

  double send_ns = 0, handler_ns = 0, wal_ns = 0, sends = 0, uncached = 0;
  std::vector<std::uint64_t> calls, appends, votes;
  for (const SpanLog* p : run.probes) {
    send_ns += static_cast<double>(p->total_ns(Layer::kTransport));
    handler_ns += static_cast<double>(p->total_ns(Layer::kCore));
    wal_ns += static_cast<double>(p->total_ns(Layer::kStorage));
    sends += static_cast<double>(p->sends);
    uncached += static_cast<double>(p->uncached_deliveries);
    p->durations(Layer::kCore, calls);
    p->durations(Layer::kStorage, appends);
    p->durations(Layer::kCore, votes, static_cast<std::uint8_t>(smr::MsgType::kVote));
    p->durations(Layer::kCore, votes, static_cast<std::uint8_t>(smr::MsgType::kFbVote));
  }
  const double run_cpu_ns = static_cast<double>(run.cpu_total_ns);
  r.set("transport.send_us_per_commit", ratio(send_ns / 1000.0, commits));
  r.set("transport.loop_cpu_us_per_commit",
        ratio((run_cpu_ns - handler_ns - wal_ns) / 1000.0, commits));

  const obs::SpanReport rep = obs::analyze_spans(ring->events());
  std::vector<std::uint64_t> sendq_wait;
  for (const auto& ev : ring->events()) {
    if (ev.stage == obs::SpanStage::kSendFlush) sendq_wait.push_back(ev.aux);
  }
  const auto stage = chain_stage_samples(rep);
  r.set("transport.sendq_wait_p50_us", quantile(sendq_wait, 0.5));
  r.set("transport.sendq_wait_p99_us", quantile(sendq_wait, 0.99));
  r.set("transport.wire_p50_us", quantile(stage[1], 0.5));
  r.set("transport.wire_p99_us", quantile(stage[1], 0.99));
  std::vector<std::uint64_t> commit_lat;
  for (std::size_t rr = 0; rr < run.commit_ns.size(); ++rr) {
    for (std::size_t i = 0; i < run.commit_ns[rr].size(); ++i) {
      const auto it = run.birth_ns.find(run.ledgers[rr][i]);
      if (it != run.birth_ns.end() && run.commit_ns[rr][i] >= it->second) {
        commit_lat.push_back(run.commit_ns[rr][i] - it->second);
      }
    }
  }
  r.set("transport.commit_p99_ms", quantile(commit_lat, 0.99) / 1e6);

  r.set("core.handler_cpu_us_per_commit", ratio(handler_ns / 1000.0, commits));
  r.set("core.handler_call_p99_us", quantile(calls, 0.99) / 1000.0);
  r.set("core.vote_handler_p50_us", quantile(votes, 0.5) / 1000.0);
  r.set("core.vote_handler_p99_us", quantile(votes, 0.99) / 1000.0);
  r.set("core.quorum_p50_us", quantile(stage[5], 0.5));
  r.set("core.quorum_p99_us", quantile(stage[5], 0.99));
  r.set("core.commit_rule_p50_us", quantile(stage[6], 0.5));
  r.set("core.commit_rule_p99_us", quantile(stage[6], 0.99));
  const StatSums& st = run.stats;
  r.set("core.fallbacks_per_commit", ratio(st.fallbacks_entered, commits));
  r.set("core.timeouts_per_commit", ratio(st.timeouts_sent, commits));
  r.set("core.fallback_ms_mean", ratio(st.fallback_time_total_us, st.fallbacks_exited) / 1000.0);

  // Every send/multicast call signs once; every delivered frame is
  // decoded and verified once.
  run.crypto.signs = sends;
  run.crypto.verifies = uncached + st.decode_misses;
  set_crypto_rows(r, costs, run.crypto, commits);
  r.set("smr.decode_hit_ratio",
        ratio(st.decode_hits, st.decode_hits + st.decode_misses + uncached));
  r.set("smr.decodes_per_commit", ratio(st.decode_misses + uncached, commits));
  r.set("smr.encodes_per_commit", ratio(st.multicast_encodes, commits));
  r.set("smr.batch_ref_miss_ratio",
        ratio(st.batch_ref_misses, st.batch_ref_misses + st.batch_ref_hits));
  r.set("smr.batch_pulls_per_commit", ratio(st.batches_pulled, commits));
  r.set("storage.appends_per_commit", ratio(static_cast<double>(appends.size()), commits));
  r.set("storage.append_p50_us", quantile(appends, 0.5) / 1000.0);
  r.set("storage.append_p99_us", quantile(appends, 0.99) / 1000.0);

  r.set("obs.span_overhead_frac", ratio(w.cpu_us, plain_cpu) - 1.0);
  r.set("obs.span_dropped", static_cast<double>(ring->dropped()));
  r.set("obs.chain_coverage_min", rep.coverage_min);
  r.note("obs.chains", "count", static_cast<double>(rep.chains.size()));
  r.note("trace.plain_cpu_us_per_commit", "us", plain_cpu);
  r.note("trace.traced_cpu_us_per_commit", "us", w.cpu_us);
  if (!write_spans(spans_path(opt, wl), run.probes)) r.fail("cannot write " + spans_path(opt, wl));
  return r;
}

}  // namespace perfbench
