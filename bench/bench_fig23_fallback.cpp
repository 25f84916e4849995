// Experiments F2/F3, L7 and OPT — anatomy of the asynchronous fallback
// (paper Figures 2-3, Lemma 7, and the §3 "Optimization in Practice").
//
// Measures, over many seeded asynchronous runs:
//  * fallback termination (every entered fallback exits — Lemma 7),
//  * empirical commit probability per fallback vs the 2/3 bound,
//  * fallback duration (enter -> exit) with and without chain adoption,
//  * message-type breakdown of one fallback (who pays the n^2),
//  * the zero-copy data path under the fallback's n^2 traffic
//    (serializations per multicast, payload copies avoided), with the
//    parses and certificate verifications every delivery pays,
//  * share assembly: per-share verifications and combines, also under a
//    bad-share flood.
//
// `--json <path>` appends the data-path acceptance numbers as NDJSON.
// `--trace-out <path>` / `--metrics-out <path>` write the traced artifact
// run's merged NDJSON event trace and registry snapshot.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "smr/messages.h"

using namespace repro;
using namespace repro::harness;

namespace {

struct FallbackStats {
  int views = 0;
  int views_with_commit = 0;
  std::uint64_t entered = 0;
  std::uint64_t exited = 0;
  std::uint64_t fallback_time_us = 0;  ///< summed enter->exit durations
  std::uint64_t cert_verifies = 0;     ///< full threshold verifications paid
  // Data path (zero-copy multicast; every delivery parses its payload).
  std::uint64_t decodes = 0;           ///< decode_message parses paid
  std::uint64_t multicast_encodes = 0; ///< serializations performed for multicasts
  std::uint64_t multicasts = 0;        ///< network multicast() calls
  std::uint64_t copies_avoided = 0;    ///< per-recipient payload copies not made
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t commits = 0;           ///< min honest commits, summed over seeds
  std::uint64_t virtual_time_us = 0;   ///< summed virtual run durations
  // Share assembly.
  std::uint64_t shares_verified = 0;   ///< per-share verify_share calls paid
  std::uint64_t combines = 0;          ///< certificates combined at threshold
  std::uint64_t bad_shares_rejected = 0;

  double mean_duration_ms() const {
    return obs::ratio(fallback_time_us, exited) / 1000.0;
  }

  /// Serialized buffers per multicast; 1.0 = encode-once achieved.
  double serializations_per_multicast() const {
    return obs::ratio(multicast_encodes, multicasts);
  }

  double commits_per_sec() const {
    return obs::ratio(commits, virtual_time_us) * 1e6;
  }
};

struct MeasureOpts {
  std::uint32_t crashes = 0;
  /// Byzantine replicas flooding invalid threshold shares (kBadShares).
  std::uint32_t bad_share_replicas = 0;
  /// Per-replica trace ring capacity; 0 = tracing off (no event records).
  std::size_t trace_capacity = 0;
};

FallbackStats measure(Protocol p, std::uint32_t n, int seeds, std::size_t commits,
                      MeasureOpts opts = {}) {
  FallbackStats agg;
  for (int seed = 1; seed <= seeds; ++seed) {
    ExperimentConfig cfg;
    cfg.n = n;
    cfg.protocol = p;
    cfg.scenario = NetScenario::kAsynchronous;
    cfg.seed = 7000 + seed;
    cfg.trace_capacity = opts.trace_capacity;
    for (std::uint32_t c = 0; c < opts.crashes; ++c) {
      cfg.faults[n - 1 - c] = core::FaultKind::kCrash;
    }
    for (std::uint32_t b = 0; b < opts.bad_share_replicas; ++b) {
      cfg.faults[n - 1 - opts.crashes - b] = core::FaultKind::kBadShares;
    }
    Experiment exp(cfg);
    exp.start();
    exp.run_until_commits(commits, 30'000'000'000ull);

    std::set<View> commit_views;
    for (const auto& rec : exp.replica(0).ledger().records()) {
      if (rec.height > 0) commit_views.insert(rec.view);
    }
    agg.views += static_cast<int>(exp.replica(0).current_view());
    agg.views_with_commit += static_cast<int>(commit_views.size());
    for (ReplicaId id = 0; id < n; ++id) {
      if (!exp.is_honest(id)) continue;
      agg.entered += exp.replica(id).stats().fallbacks_entered;
      agg.exited += exp.replica(id).stats().fallbacks_exited;
      agg.fallback_time_us += exp.replica(id).stats().fallback_time_total_us;
      agg.cert_verifies += exp.replica(id).stats().cert_verify_misses;
    }
    // Data-path counters sum over every replica (faulty senders multicast
    // too, and their traffic rides the same zero-copy path), so the
    // serializations/multicast identity holds exactly.
    for (ReplicaId id = 0; id < n; ++id) {
      agg.decodes += exp.replica(id).stats().decode_misses;
      agg.multicast_encodes += exp.replica(id).stats().multicast_encodes;
    }
    for (ReplicaId id = 0; id < n; ++id) {
      if (!exp.is_honest(id)) continue;
      agg.shares_verified += exp.replica(id).stats().shares_verified;
      agg.combines += exp.replica(id).stats().combines_optimistic;
      agg.bad_shares_rejected += exp.replica(id).stats().bad_shares_rejected;
    }
    const auto& net = exp.network().stats();
    agg.multicasts += net.multicasts;
    agg.copies_avoided += net.payload_copies_avoided;
    agg.net_messages += net.messages;
    agg.net_bytes += net.bytes;
    agg.commits += exp.min_honest_commits();
    agg.virtual_time_us += exp.sim().now();
  }
  return agg;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::json_path_arg(argc, argv);
  const char* trace_out = bench::trace_out_arg(argc, argv);
  const char* metrics_out = bench::metrics_out_arg(argc, argv);
  std::printf("==============================================================\n");
  std::printf("F2/F3 + L7 + OPT: asynchronous fallback anatomy (Figures 2-3)\n");
  std::printf("==============================================================\n\n");

  std::printf("--- Lemma 7: termination & commit probability per fallback -----\n");
  std::printf("    (with f crashed replicas, f of the n fallback-chains never\n");
  std::printf("    complete, so the coin misses with probability ~f/n; the paper's\n");
  std::printf("    bound P >= 2/3 is the worst case) ---------------------------\n\n");
  struct L7Row {
    std::uint32_t n;
    std::uint32_t crashes;
  };
  for (const L7Row row : {L7Row{4, 0}, L7Row{7, 0}, L7Row{10, 0}, L7Row{4, 1}, L7Row{7, 2},
                          L7Row{10, 3}}) {
    MeasureOpts opts;
    opts.crashes = row.crashes;
    const FallbackStats st = measure(Protocol::kFallback3, row.n, 10, 6, opts);
    const double p_commit = obs::ratio(st.views_with_commit, st.views);
    std::printf("  n=%-3u crashes=%-2u views=%-4d committed-in-view=%-4d P(commit)=%.2f\n",
                row.n, row.crashes, st.views, st.views_with_commit, p_commit);
    std::printf("        fallbacks entered=%llu exited=%llu (in-flight at cutoff: %llu)\n",
                static_cast<unsigned long long>(st.entered),
                static_cast<unsigned long long>(st.exited),
                static_cast<unsigned long long>(st.entered - st.exited));
  }

  std::printf("\n--- OPT (Section 3): chain adoption speeds up the fallback -----\n\n");
  std::printf("  mean fallback duration (enter -> exit) under asynchrony:\n");
  std::printf("  (plain waits for the 2f+1-th fastest replica's own chain; adoption\n");
  std::printf("  proceeds at the speed of the fastest chain)\n");
  for (std::uint32_t n : {7u, 10u}) {
    const FallbackStats plain = measure(Protocol::kFallback3, n, 8, 5);
    const FallbackStats adopt = measure(Protocol::kFallback3Adopt, n, 8, 5);
    std::printf("    n=%-3u plain: %8.1f ms (%llu fallbacks)   adoption: %8.1f ms (%llu fallbacks)\n",
                n, plain.mean_duration_ms(),
                static_cast<unsigned long long>(plain.exited), adopt.mean_duration_ms(),
                static_cast<unsigned long long>(adopt.exited));
  }

  std::printf("\n--- fallback duration vs n (async adversary; O(n) message stages\n");
  std::printf("    but more straggler order-statistics as n grows) ------------\n\n");
  std::printf("    %-6s %18s %14s\n", "n", "mean duration ms", "fallbacks");
  std::vector<std::pair<std::uint32_t, FallbackStats>> sweep;
  for (std::uint32_t n : {4u, 7u, 10u, 13u}) {
    sweep.emplace_back(n, measure(Protocol::kFallback3, n, 6, 4));
    const FallbackStats& st = sweep.back().second;
    std::printf("    %-6u %18.1f %14llu\n", n, st.mean_duration_ms(),
                static_cast<unsigned long long>(st.exited));
  }

  std::printf("\n--- data path: zero-copy multicast, verify on every delivery ---\n");
  std::printf("    (the fallback's n^2 traffic is mostly multicasts of identical\n");
  std::printf("    bytes: one serialization feeds all n recipients; each\n");
  std::printf("    recipient parses its payload and verifies every certificate\n");
  std::printf("    it relies on) ----------------------------------------------\n\n");
  std::printf("    %-22s %-4s %11s %10s %12s %12s %10s\n", "protocol", "n", "ser/mcast",
              "copies-", "parses", "cert", "commits/s");
  std::printf("    %-22s %-4s %11s %10s %12s %12s %10s\n", "", "", "", "avoided", "",
              "verifies", "");
  auto print_datapath_row = [](const char* label, std::uint32_t n, const FallbackStats& st) {
    std::printf("    %-22s %-4u %11.2f %10llu %12llu %12llu %10.1f\n", label, n,
                st.serializations_per_multicast(),
                static_cast<unsigned long long>(st.copies_avoided),
                static_cast<unsigned long long>(st.decodes),
                static_cast<unsigned long long>(st.cert_verifies), st.commits_per_sec());
  };
  // The acceptance row: always-fallback keeps the protocol permanently in
  // its asynchronous O(n^2) mode — the data path's worst case — at n=16.
  const FallbackStats accept = measure(Protocol::kAlwaysFallback, 16, 3, 4);
  for (const auto& [n, st] : sweep) print_datapath_row("fallback (Fig 2)", n, st);
  print_datapath_row("always-fallback", 16, accept);
  if (json_path != nullptr) {
    bench::JsonLine("fig23_fallback_datapath")
        .field_str("protocol", "always-fallback")
        .field("n", std::uint64_t{16})
        .field("messages", accept.net_messages)
        .field("bytes", accept.net_bytes)
        .field("multicasts", accept.multicasts)
        .field("serializations_per_multicast", accept.serializations_per_multicast())
        .field("payload_copies_avoided", accept.copies_avoided)
        .field("decodes", accept.decodes)
        .field("cert_verifies", accept.cert_verifies)
        .field("commits", accept.commits)
        .field("commits_per_sec", accept.commits_per_sec())
        .field("virtual_time_s", accept.virtual_time_us / 1e6)
        .append_to(json_path);
  }

  std::printf("\n--- share assembly: verify each share, combine at threshold -----\n");
  std::printf("    (always-fallback async n=16; every arriving threshold share is\n");
  std::printf("    checked against its target's memoized field point, and the\n");
  std::printf("    t-th valid share triggers one Lagrange combine) -------------\n\n");
  {
    // Reuses the data-path acceptance runs above.
    std::printf("    shares verified=%llu combines=%llu commits=%llu\n",
                static_cast<unsigned long long>(accept.shares_verified),
                static_cast<unsigned long long>(accept.combines),
                static_cast<unsigned long long>(accept.commits));

    // Flood: f Byzantine replicas spray invalid shares into every pool;
    // each is rejected on arrival and its signer banned for that target.
    MeasureOpts flood_opts;
    flood_opts.bad_share_replicas = 5;  // f for n=16
    const FallbackStats flood = measure(Protocol::kAlwaysFallback, 16, 3, 4, flood_opts);
    std::printf("    bad-share flood (f=5 Byzantine): commits=%llu rejected=%llu "
                "(liveness: %s)\n",
                static_cast<unsigned long long>(flood.commits),
                static_cast<unsigned long long>(flood.bad_shares_rejected),
                flood.commits > 0 ? "yes" : "NO");
    if (json_path != nullptr) {
      bench::JsonLine("fig23_share_assembly")
          .field_str("protocol", "always-fallback")
          .field("n", std::uint64_t{16})
          .field("shares_verified", accept.shares_verified)
          .field("combines", accept.combines)
          .field("flood_commits", flood.commits)
          .field("flood_bad_shares_rejected", flood.bad_shares_rejected)
          .append_to(json_path);
    }
  }

  std::printf("\n--- message breakdown of asynchronous operation (n=7) ----------\n\n");
  {
    ExperimentConfig cfg;
    cfg.n = 7;
    cfg.protocol = Protocol::kFallback3;
    cfg.scenario = NetScenario::kAsynchronous;
    cfg.seed = 5;
    Experiment exp(cfg);
    exp.start();
    exp.run_until_commits(5, 30'000'000'000ull);
    const auto& st = exp.network().stats();
    struct Tag {
      smr::MsgType t;
      const char* name;
    };
    const Tag tags[] = {
        {smr::MsgType::kProposal, "proposals"},    {smr::MsgType::kVote, "votes"},
        {smr::MsgType::kFbTimeout, "fb-timeouts"}, {smr::MsgType::kFbProposal, "f-blocks"},
        {smr::MsgType::kFbVote, "f-votes"},        {smr::MsgType::kFbQc, "f-QCs"},
        {smr::MsgType::kCoinShare, "coin-shares"}, {smr::MsgType::kCoinQc, "coin-QCs"},
        {smr::MsgType::kBlockRequest, "block-req"},
        {smr::MsgType::kBlockResponse, "block-resp"},
    };
    for (const auto& tag : tags) {
      const auto i = static_cast<std::size_t>(tag.t);
      if (st.messages_by_type[i] == 0) continue;
      std::printf("    %-12s %10llu msgs %12llu bytes\n", tag.name,
                  static_cast<unsigned long long>(st.messages_by_type[i]),
                  static_cast<unsigned long long>(st.bytes_by_type[i]));
    }
    std::printf("    %-12s %10llu msgs %12llu bytes over %zu decisions\n", "total",
                static_cast<unsigned long long>(st.messages),
                static_cast<unsigned long long>(st.bytes), exp.min_honest_commits());
  }

  std::printf("\n--- tracing overhead: always-fallback n=16, traced vs untraced --\n");
  std::printf("    (same seeds and commit target; WALL-clock sim throughput, best\n");
  std::printf("    of %d runs per mode to damp scheduler noise; acceptance: the\n", 3);
  std::printf("    trace ring costs < 5%% commit throughput) --------------------\n\n");
  double overhead_pct = 0.0;
  {
    // Wall-clock commits/sec of one full measure() pass; tracing on means
    // every replica records into a 64Ki-event ring exactly as --trace-out
    // runs do.
    auto wall_cps = [](std::size_t trace_capacity) {
      MeasureOpts opts;
      opts.trace_capacity = trace_capacity;
      const auto t0 = std::chrono::steady_clock::now();
      const FallbackStats st = measure(Protocol::kAlwaysFallback, 16, 2, 4, opts);
      const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
      return dt.count() > 0 ? double(st.commits) / dt.count() : 0.0;
    };
    double best_off = 0.0, best_on = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      best_off = std::max(best_off, wall_cps(0));
      best_on = std::max(best_on, wall_cps(1 << 16));
    }
    overhead_pct = best_off > 0 ? (best_off - best_on) / best_off * 100.0 : 0.0;
    std::printf("    untraced: %8.1f commits/s (wall)\n", best_off);
    std::printf("    traced:   %8.1f commits/s (wall)\n", best_on);
    std::printf("    overhead: %+.2f%% (acceptance: < 5%%) -> %s\n", overhead_pct,
                overhead_pct < 5.0 ? "OK" : "FAIL");
  }

  std::printf("\n--- traced artifact run: event-derived latency split + Lemma 7 -\n");
  std::printf("    (always-fallback n=16 async; per-commit latency measured from\n");
  std::printf("    the merged trace timeline, not from harness bookkeeping) -----\n\n");
  {
    ExperimentConfig cfg;
    cfg.n = 16;
    cfg.protocol = Protocol::kAlwaysFallback;
    cfg.scenario = NetScenario::kAsynchronous;
    cfg.seed = 7001;
    cfg.trace_capacity = 1 << 16;
    Experiment exp(cfg);
    exp.start();
    exp.run_until_commits(4, 30'000'000'000ull);
    if (trace_out != nullptr && !exp.write_traces(trace_out)) {
      std::fprintf(stderr, "bench: cannot write trace to '%s'\n", trace_out);
      return 2;
    }
    if (metrics_out != nullptr && !exp.write_metrics(metrics_out)) {
      std::fprintf(stderr, "bench: cannot write metrics to '%s'\n", metrics_out);
      return 2;
    }
    const obs::TraceReport report = obs::analyze_trace(exp.trace_events());
    std::fputs(report.summary().c_str(), stdout);
    if (json_path != nullptr) {
      // The acceptance row is built from a registry snapshot — the same
      // counters /metrics serves — not from hand-summed stats structs.
      const obs::Snapshot snap = exp.registry().snapshot();
      bench::JsonLine("pr5_tracing")
          .field_str("protocol", "always-fallback")
          .field("n", std::uint64_t{16})
          .field("commits", std::uint64_t{exp.min_honest_commits()})
          .field("net_messages", snap.value("repro_net_messages_total"))
          .field("net_bytes", snap.value("repro_net_bytes_total"))
          .field("fallbacks_entered", snap.value("repro_fallbacks_entered_total"))
          .field("trace_events", report.events_total)
          .field_mean("steady_commit_latency_mean_us", report.steady.mean_us,
                      report.steady.count)
          .field_mean("fallback_commit_latency_mean_us", report.fallback.mean_us,
                      report.fallback.count)
          .field("fallback_win_rate", report.win_rate)
          .field("tracing_overhead_pct", overhead_pct)
          .append_to(json_path);
    }
  }

  std::printf("\nReading: P(commit) ~1 with all-honest replicas and ~(n-f)/n with f\n");
  std::printf("crashes (the Lemma 7 worst-case bound is 2/3; single-replica\n");
  std::printf("measurement at a finite cutoff can dip slightly below it); adoption\n");
  std::printf("should cut the mean fallback duration; cost is dominated by the n^2\n");
  std::printf("fallback traffic (f-votes / timeouts / coin shares).\n");
  return 0;
}
