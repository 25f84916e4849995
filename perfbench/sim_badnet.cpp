// sim-badnet: the paper's scenario in the deterministic simulator.
//
// n=16 replicas run the Figure 2 protocol (3-chain fallback). Eight
// open-loop clients each submit one 64-byte transaction every 100 virtual
// ms and count it confirmed at f+1 acks. The network is synchronous
// (uniform [1 ms, Δ=50 ms]) for 20 s, then for 10 s every message to or
// from a replica leading some replica's current round is delayed 5 s
// more, then it is synchronous again for 20 s.
//
// Keys, coin and replica randomness are fixed parts of the scenario; the
// workload seed draws several input sets (delay jitter, client phases and
// bytes) whose results are pooled, because one input set's attack outcome
// is bimodal. Latencies and message counts are virtual and exact. CPU is
// measured by executing each input set several times and, per window of
// virtual time, keeping the cheapest copy: every copy executes the same
// event sequence, so only interference makes one copy dearer than another.
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "client/client_swarm.h"
#include "common.h"
#include "crypto/sha256.h"
#include "obs/span.h"
#include "probes.h"
#include "smr/messages.h"

namespace perfbench {
namespace {

using namespace repro;

constexpr SimTime kSec = 1'000'000;
constexpr SimTime kStep = 1'000;      ///< confirm-gap sampling period
constexpr SimTime kWindow = 100'000;  ///< CPU is compared across repetitions per window
constexpr std::uint64_t kScenarioSeed = 1;
/// A transaction whose confirm latency exceeds this counts as failed.
constexpr SimTime kConfirmLimit = 30 * kSec;

struct Scenario {
  std::uint32_t n;
  SimTime bad_start;
  SimTime bad_end;
  SimTime end;
  std::uint32_t clients;
  int inputs;  ///< independent input sets drawn from the workload seed
  int reps;    ///< identical repetitions of each input set, for CPU
  int setups;  ///< bring-ups timed for setup_s
};

Scenario scenario_for(const Options& o) {
  if (o.smoke) return {4, 2 * kSec, 4 * kSec, 6 * kSec, 4, 2, 2, 3};
  return {16, 20 * kSec, 30 * kSec, 50 * kSec, 8, 9, 4, 101};
}

/// Seed of input set `k` of workload seed `seed` (splitmix64).
std::uint64_t input_seed(std::uint64_t seed, int k) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(k) + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One execution of the scenario.
struct Rep {
  // Virtual outcome: identical for every repetition of one seed.
  std::vector<std::vector<std::uint64_t>> ledgers;
  std::uint64_t fingerprint = 0;
  bool safety_ok = true;
  std::string safety_detail;
  std::size_t commits = 0;  ///< at the slowest honest replica
  std::vector<SimTime> commit_lat;
  client::ClientStats client;
  std::size_t backlog = 0;
  SimTime max_gap = 0;
  std::uint64_t messages = 0, bytes = 0, events = 0, delivered = 0;
  StatSums stats;  ///< summed over replicas
  CryptoCounts crypto;

  // CPU time.
  std::vector<std::uint64_t> window_cpu_ns;
  std::uint64_t cpu_ns = 0;

  SpanLog probes;  ///< boundary spans (traced run only)
  obs::SpanReport spans;
  std::uint64_t span_dropped = 0;

  bool same_virtual_outcome(const Rep& o) const {
    return fingerprint == o.fingerprint && commits == o.commits && commit_lat == o.commit_lat &&
           client.confirm_latencies_us == o.client.confirm_latencies_us &&
           client.submitted == o.client.submitted && client.retries == o.client.retries &&
           max_gap == o.max_gap && messages == o.messages && bytes == o.bytes &&
           events == o.events;
  }
};

/// The network of the scenario: uniform [1 ms, Δ=50 ms] delays drawn
/// from the workload's own seeded stream, plus, inside [bad_start,
/// bad_end), the adaptive leader attack: every message to or from a
/// replica that leads the round some replica is in is deferred by 5 s.
class BadNetModel final : public net::DelayModel {
 public:
  BadNetModel(std::uint64_t seed, SimTime bad_start, SimTime bad_end)
      : rng_(seed), bad_start_(bad_start), bad_end_(bad_end) {}

  void bind(const harness::Experiment* exp) { exp_ = exp; }

  SimTime delay(const net::MessageContext& ctx, Rng&) override {
    SimTime d = rng_.uniform_range(1'000, 50'000);
    if (exp_ == nullptr || ctx.now < bad_start_ || ctx.now >= bad_end_) return d;
    const std::uint32_t n = exp_->n();
    for (ReplicaId id = 0; id < n; ++id) {
      const ReplicaId leader = core::round_leader(exp_->replica(id).current_round(), n,
                                                  exp_->config().pcfg.leader_rotation);
      if (leader == ctx.from || leader == ctx.to) return d + 5 * kSec;
    }
    return d;
  }

 private:
  Rng rng_;
  SimTime bad_start_;
  SimTime bad_end_;
  const harness::Experiment* exp_ = nullptr;
};

client::ClientConfig client_config(const Scenario& sc) {
  client::ClientConfig c;
  c.num_clients = sc.clients;
  c.txn_bytes = 64;
  c.submit_interval = 100'000;
  return c;
}

/// Builds the experiment, its network and its client swarm. `payload`
/// becomes the proposers' payload factory.
struct System {
  std::unique_ptr<harness::Experiment> exp;
  std::unique_ptr<client::ClientSwarm> swarm;

  System(std::uint64_t seed, const Scenario& sc, const std::shared_ptr<client::TxnPools>& pools,
         std::function<Bytes(ReplicaId)> payload, std::size_t span_capacity) {
    harness::ExperimentConfig cfg;
    cfg.n = sc.n;
    cfg.protocol = harness::Protocol::kFallback3;
    // Keys, coin and replica randomness are fixed properties of the
    // scenario; the workload seed drives the inputs: network delay jitter
    // and the clients' submissions.
    cfg.seed = kScenarioSeed;
    cfg.span_capacity = span_capacity;
    cfg.payload_factory = std::move(payload);
    BadNetModel* model = nullptr;
    cfg.make_delay = [&model, seed, &sc] {
      auto m = std::make_unique<BadNetModel>(seed, sc.bad_start, sc.bad_end);
      model = m.get();
      return m;
    };
    exp = std::make_unique<harness::Experiment>(cfg);
    model->bind(exp.get());
    swarm = std::make_unique<client::ClientSwarm>(*exp, pools, client_config(sc),
                                                  seed ^ 0x5eed);
  }
};

Rep run_rep(std::uint64_t seed, const Scenario& sc, bool traced) {
  Rep rep;
  auto pools = std::make_shared<client::TxnPools>(sc.n, client_config(sc).max_batch_txns);
  SpanLog* probes = &rep.probes;
  std::function<Bytes(ReplicaId)> payload = [pools](ReplicaId id) { return pools->next_batch(id); };
  if (traced) {
    payload = [pools, probes](ReplicaId id) {
      const std::uint64_t t0 = wall_ns();
      Bytes b = pools->next_batch(id);
      probes->record(Layer::kClient, id, t0, wall_ns(), b);
      return b;
    };
  }

  System sys(seed, sc, pools, std::move(payload), traced ? std::size_t{1} << 21 : 0);
  harness::Experiment& exp = *sys.exp;
  if (traced) {
    // Re-register every delivery handler behind a timer: the handler
    // boundary is where core (decode, verify, protocol rules) runs.
    for (ReplicaId id = 0; id < sc.n; ++id) {
      exp.network().register_handler(id, [&exp, id, probes](ReplicaId from, const Bytes& p) {
        const std::uint64_t t0 = wall_ns();
        exp.replica(id).on_message(from, p);
        probes->record(Layer::kCore, id, t0, wall_ns(), p);
      });
    }
  }
  exp.start();
  sys.swarm->start();

  const std::size_t steps_per_window = static_cast<std::size_t>(kWindow / kStep);
  std::uint64_t last_confirmed = 0;
  SimTime last_progress = 0;
  std::uint64_t cpu0 = thread_cpu_ns();
  const std::uint64_t cpu_start = cpu0;
  for (SimTime t = kStep; t <= sc.end; t += kStep) {
    exp.sim().run_until(t);
    const std::uint64_t confirmed = sys.swarm->stats().confirmed;
    if (confirmed != last_confirmed) {
      last_confirmed = confirmed;
      last_progress = t;
    }
    rep.max_gap = std::max(rep.max_gap, t - last_progress);
    if ((t / kStep) % steps_per_window == 0) {
      const std::uint64_t c = thread_cpu_ns();
      rep.window_cpu_ns.push_back(c - cpu0);
      cpu0 = c;
    }
  }
  rep.cpu_ns = thread_cpu_ns() - cpu_start;

  for (ReplicaId id = 0; id < sc.n; ++id) {
    std::vector<std::uint64_t> ids;
    for (const auto& rec : exp.replica(id).ledger().records()) {
      ids.push_back(crypto::digest_prefix_u64(rec.id));
    }
    rep.ledgers.push_back(std::move(ids));
    const auto lat = exp.commit_latencies(id);
    rep.commit_lat.insert(rep.commit_lat.end(), lat.begin(), lat.end());
    rep.stats.add(exp.replica(id).stats());
    add_replica_crypto(rep.crypto, exp.replica(id).stats());
  }
  rep.fingerprint = ledger_fingerprint(rep.ledgers[0]);
  const harness::SafetyReport safety = exp.check_safety();
  rep.safety_ok = safety.ok;
  rep.safety_detail = safety.detail;
  rep.commits = exp.min_honest_commits();
  rep.client = sys.swarm->stats();
  rep.backlog = sys.swarm->in_flight();
  const net::NetStats& ns = exp.network().stats();
  rep.messages = ns.messages;
  rep.bytes = ns.bytes;
  rep.events = exp.sim().events_executed();
  rep.delivered = exp.network().delivered();
  // Every encode signs once; every full decode verifies once.
  rep.crypto.signs = static_cast<double>(rep.stats.multicast_encodes) +
                     static_cast<double>(ns.messages - ns.multicasts * (sc.n - 1));
  rep.crypto.verifies = static_cast<double>(rep.stats.decode_misses);
  if (traced) {
    rep.spans = obs::analyze_spans(exp.span_events());
    rep.span_dropped = exp.spans()->dropped();
  }
  return rep;
}

/// Bring-up only: build, wire and start the system, then tear it down.
double time_setup(std::uint64_t seed, const Scenario& sc) {
  auto pools = std::make_shared<client::TxnPools>(sc.n, client_config(sc).max_batch_txns);
  const std::uint64_t t0 = wall_ns();
  System sys(seed, sc, pools, [pools](ReplicaId id) { return pools->next_batch(id); }, 0);
  sys.exp->start();
  sys.swarm->start();
  return static_cast<double>(wall_ns() - t0) / 1e9;
}

/// Safety, the benchmark's own prefix check, and identical virtual
/// outcomes across the repetitions of one input set.
void check(Report& r, const Options& opt, const std::vector<Rep>& reps) {
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    if (!rep.safety_ok) r.fail("check_safety: " + rep.safety_detail);
    std::string detail;
    if (!prefix_consistent(rep.ledgers, opt.plant_mismatch, &detail)) r.fail(detail);
    if (rep.commits == 0) r.fail("no commits");
    if (rep.client.bad_proofs != 0) r.fail("client saw invalid inclusion proofs");
    if (i > 0 && !rep.same_virtual_outcome(reps[0])) {
      r.fail("repetition " + std::to_string(i) + " diverged from repetition 0");
    }
  }
}

double ms(double us) { return us / 1000.0; }

}  // namespace

Report run_sim_badnet(const Options& opt) {
  Report r;
  const Scenario sc = scenario_for(opt);
  const double virt_s = static_cast<double>(sc.end) / kSec;

  if (opt.trace) {
    // One plain and one traced execution: the per-layer numbers come from
    // the traced one, the overhead from the pair, and identical outcomes
    // prove the timers do not perturb the program.
    const CryptoCosts costs =
        measure_crypto_costs(*crypto::CryptoSystem::deal(QuorumParams::for_n(sc.n), kScenarioSeed));
    std::vector<Rep> reps;
    reps.push_back(run_rep(input_seed(opt.seed, 0), sc, false));
    reps.push_back(run_rep(input_seed(opt.seed, 0), sc, true));
    check(r, opt, reps);
    const Rep& t = reps[1];
    const double commits = static_cast<double>(t.commits);
    const auto& st = t.stats;
    const double handler_ns = static_cast<double>(t.probes.total_ns(Layer::kCore));
    std::vector<std::uint64_t> calls;
    t.probes.durations(Layer::kCore, calls);
    r.set("core.handler_cpu_us_per_commit", ratio(handler_ns / 1000.0, commits));
    r.set("core.handler_call_p99_us", quantile(calls, 0.99) / 1000.0);
    std::vector<std::uint64_t> votes;
    t.probes.durations(Layer::kCore, votes, static_cast<std::uint8_t>(smr::MsgType::kVote));
    t.probes.durations(Layer::kCore, votes, static_cast<std::uint8_t>(smr::MsgType::kFbVote));
    r.set("core.vote_handler_p50_us", quantile(votes, 0.5) / 1000.0);
    r.set("core.vote_handler_p99_us", quantile(votes, 0.99) / 1000.0);
    const auto stage = chain_stage_samples(t.spans);
    r.set("core.quorum_p50_us", quantile(stage[5], 0.5));
    r.set("core.quorum_p99_us", quantile(stage[5], 0.99));
    r.set("core.commit_rule_p50_us", quantile(stage[6], 0.5));
    r.set("core.commit_rule_p99_us", quantile(stage[6], 0.99));
    r.set("core.fallbacks_per_commit", ratio(st.fallbacks_entered, commits));
    r.set("core.timeouts_per_commit", ratio(st.timeouts_sent, commits));
    r.set("core.fallback_ms_mean",
          ms(ratio(st.fallback_time_total_us, st.fallbacks_exited)));
    set_crypto_rows(r, costs, t.crypto, commits);
    const double decodes = static_cast<double>(st.decode_misses);
    r.set("smr.decode_hit_ratio", ratio(st.decode_hits, decodes + st.decode_hits));
    r.set("smr.decodes_per_commit", ratio(decodes, commits));
    r.set("smr.encodes_per_commit", ratio(st.multicast_encodes, commits));
    r.set("smr.batch_ref_miss_ratio",
          ratio(st.batch_ref_misses, st.batch_ref_misses + st.batch_ref_hits));
    r.set("smr.batch_pulls_per_commit", ratio(st.batches_pulled, commits));
    r.set("sim.events_per_commit", ratio(static_cast<double>(t.events), commits));
    r.set("sim.other_cpu_us_per_commit",
          ratio((static_cast<double>(t.cpu_ns) - handler_ns) / 1000.0,
                commits));
    r.set("net.deliveries_per_commit", ratio(static_cast<double>(t.delivered), commits));
    const double submitted = static_cast<double>(t.client.submitted);
    r.set("client.retries_per_txn", ratio(t.client.retries, submitted));
    r.set("client.rpc_msgs_per_txn", ratio(t.client.rpc_messages, submitted));
    r.set("client.backlog_at_end", static_cast<double>(t.backlog));
    r.set("client.batch_us_per_commit",
          ratio(static_cast<double>(t.probes.total_ns(Layer::kClient)) / 1000.0, commits));
    r.set("client.commit_to_confirm_p50_ms", ms(t.spans.commit_to_confirm.p50_us));
    r.set("obs.span_overhead_frac",
          ratio(static_cast<double>(t.cpu_ns), static_cast<double>(reps[0].cpu_ns)) - 1.0);
    r.set("obs.span_dropped", static_cast<double>(t.span_dropped));
    r.set("obs.chain_coverage_min", t.spans.coverage_min);
    r.note("obs.chains", "count", static_cast<double>(t.spans.chains.size()));
    r.attempted = t.client.submitted;
    const std::string path =
        opt.workdir + "/spans-sim-badnet-" + std::to_string(opt.seed) + ".ndjson";
    if (!write_spans(path, {&t.probes})) r.fail("cannot write " + path);
    r.note("trace.plain_cpu_s", "s", static_cast<double>(reps[0].cpu_ns) / 1e9);
    r.note("trace.traced_cpu_s", "s", static_cast<double>(t.cpu_ns) / 1e9);
  } else {
    // The repetitions of one input set run at once, one thread pinned to
    // each CPU: the cheapest copy of every window is then the one on the
    // CPU that was fastest at that moment.
    std::vector<double> setups;
    for (int i = 0; i < sc.setups; ++i) setups.push_back(time_setup(input_seed(opt.seed, 0), sc));

    const std::vector<int> cpus = allowed_cpus();
    std::vector<std::vector<Rep>> sets(static_cast<std::size_t>(sc.inputs));
    for (int k = 0; k < sc.inputs; ++k) {
      auto& reps = sets[static_cast<std::size_t>(k)];
      reps.resize(static_cast<std::size_t>(sc.reps));
      std::vector<std::string> errors(reps.size());
      std::vector<std::thread> threads;
      for (std::size_t i = 0; i < reps.size(); ++i) {
        threads.emplace_back([&reps, &errors, i, k, &sc, &opt, cpu = cpus[i % cpus.size()]] {
          pin_to(cpu);
          try {
            reps[i] = run_rep(input_seed(opt.seed, k), sc, false);
          } catch (const std::exception& e) {
            errors[i] = e.what();
          }
        });
      }
      for (auto& t : threads) t.join();
      for (const auto& e : errors) {
        if (!e.empty()) r.fail("simulation threw: " + e);
      }
      if (!r.correct) return r;
      r.max_threads = std::max<std::uint64_t>(r.max_threads, reps.size() + 1);
    }
    std::vector<double> gaps;
    std::vector<SimTime> commit_lat, confirm_lat;
    double commits = 0, messages = 0, bytes = 0, submitted = 0, confirmed = 0, backlog = 0;
    double cpu_best_ns = 0, fallbacks = 0;
    for (const auto& reps : sets) {
      check(r, opt, reps);
      const Rep& v = reps[0];  // virtual outcome, identical across reps
      for (std::size_t w = 0; w < v.window_cpu_ns.size(); ++w) {
        std::uint64_t best = UINT64_MAX;
        for (const Rep& rep : reps) best = std::min(best, rep.window_cpu_ns[w]);
        cpu_best_ns += static_cast<double>(best);
      }
      gaps.push_back(static_cast<double>(v.max_gap));
      commit_lat.insert(commit_lat.end(), v.commit_lat.begin(), v.commit_lat.end());
      confirm_lat.insert(confirm_lat.end(), v.client.confirm_latencies_us.begin(),
                         v.client.confirm_latencies_us.end());
      commits += static_cast<double>(v.commits);
      messages += static_cast<double>(v.messages);
      bytes += static_cast<double>(v.bytes);
      submitted += static_cast<double>(v.client.submitted);
      confirmed += static_cast<double>(v.client.confirmed);
      backlog += static_cast<double>(v.backlog);
      fallbacks += v.stats.fallbacks_entered;
      r.attempted += v.client.submitted;
      for (SimTime lat : v.client.confirm_latencies_us) r.failed += lat > kConfirmLimit;
    }
    r.set("setup_s", quantile(setups, 0.5));
    r.set("commit_rate", commits / (virt_s * sc.inputs));
    r.set("commit_p50_ms", ms(quantile(commit_lat, 0.5)));
    r.set("cpu_us_per_commit", ratio(cpu_best_ns / 1000.0, commits));
    r.set("peak_rss_mb", peak_rss_mb());
    r.set("confirm_p50_ms", ms(quantile(confirm_lat, 0.5)));
    r.set("confirm_p99_ms", ms(quantile(confirm_lat, 0.99)));
    r.set("max_confirm_gap_ms", ms(quantile(gaps, 0.5)));
    r.set("msgs_per_commit", ratio(messages, commits));
    r.set("bytes_per_commit", ratio(bytes, commits));
    r.set("completed_frac", ratio(confirmed, submitted));

    r.note("sim.commits", "count", commits);
    r.note("sim.failed_frac", "ratio", ratio(backlog, submitted));
    r.note("sim.fallbacks_entered", "count", fallbacks);
    std::vector<double> rep_cpu;
    for (std::size_t k = 0; k < sets.size(); ++k) {
      r.note("sim.input" + std::to_string(k) + ".max_gap_ms", "ms",
             ms(static_cast<double>(sets[k][0].max_gap)));
      for (const Rep& rep : sets[k]) {
        rep_cpu.push_back(ratio(static_cast<double>(rep.cpu_ns) / 1000.0,
                                static_cast<double>(rep.commits)));
      }
    }
    r.note("whole.rep_cpu_us_per_commit_min", "us", quantile(rep_cpu, 0.0));
    r.note("whole.rep_cpu_us_per_commit_max", "us", quantile(rep_cpu, 1.0));
  }
  return r;
}

}  // namespace perfbench
