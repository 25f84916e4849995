// Observability layer: metrics registry, log2 histograms, the trace ring
// + NDJSON codec, the timeline analyzer, the threaded logger, and the
// determinism pin (two identical sim runs emit byte-identical traces).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <regex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/log.h"
#include "harness/experiment.h"
#include "obs/admin.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace repro::obs {
namespace {

TEST(Ratio, GuardsZeroDenominator) {
  EXPECT_EQ(ratio(0, 0), 0.0);
  EXPECT_EQ(ratio(17, 0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(6, 3), 2.0);
  EXPECT_DOUBLE_EQ(ratio(1, 2), 0.5);
}

TEST(Counter, ActsLikeUint64AtCallSites) {
  Counter c;
  ++c;
  c += 4;
  c.inc();
  EXPECT_EQ(static_cast<std::uint64_t>(c), 6u);
  Counter copy = c;          // snapshot copy
  c += 10;
  EXPECT_EQ(copy.load(), 6u);
  EXPECT_EQ(c.load(), 16u);
  copy = 3;                  // assignment from raw value
  EXPECT_EQ(copy.load(), 3u);
  EXPECT_EQ(c - copy, 13u);  // arithmetic via implicit conversion
}

TEST(RegistrySnapshot, ConsistentUnderConcurrentIncrements) {
  Registry reg;
  Counter& c = reg.counter("test_ops_total");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) ++c;
    });
  }
  // Snapshots taken mid-flight must be monotone non-decreasing and never
  // exceed the final total.
  std::uint64_t prev = 0;
  while (!done.load()) {
    const Snapshot snap = reg.snapshot();
    const std::uint64_t v = snap.value("test_ops_total");
    EXPECT_GE(v, prev);
    EXPECT_LE(v, kThreads * kPerThread);
    prev = v;
    if (v == kThreads * kPerThread) break;
    if (workers.front().joinable() && v > kThreads * kPerThread / 2) done = true;
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.snapshot().value("test_ops_total"), kThreads * kPerThread);
}

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  for (std::size_t i = 1; i + 1 < Histogram::kBuckets; ++i) {
    const std::uint64_t upper = Histogram::bucket_upper(i);
    EXPECT_EQ(upper, (std::uint64_t{1} << i) - 1);
    EXPECT_EQ(Histogram::bucket_index(upper), i) << "upper of bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(upper + 1), i + 1) << "first of bucket " << i + 1;
  }
  // The last bucket absorbs everything beyond the covered range.
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), Histogram::kBuckets - 1);

  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(4);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10u);
}

TEST(RegistrySnapshot, PrometheusAndNdjsonExposition) {
  Registry reg;
  reg.counter("test_messages_total", {{"type", "vote"}}) += 7;
  reg.histogram("test_latency_us").observe(5);
  reg.attach_gauge_fn("test_depth", {}, [] { return std::uint64_t{42}; });

  const Snapshot snap = reg.snapshot();
  const std::string prom = snap.prometheus();
  EXPECT_NE(prom.find("# TYPE test_messages_total counter"), std::string::npos);
  EXPECT_NE(prom.find("test_messages_total{type=\"vote\"} 7"), std::string::npos);
  EXPECT_NE(prom.find("test_latency_us_bucket"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("test_latency_us_count 1"), std::string::npos);
  EXPECT_NE(prom.find("test_depth 42"), std::string::npos);

  const std::string nd = snap.ndjson();
  std::istringstream lines(nd);
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++parsed;
  }
  EXPECT_EQ(parsed, snap.samples.size());
}

TEST(TraceRing, WraparoundKeepsNewestEvents) {
  TraceRing ring(8);
  ASSERT_TRUE(ring.enabled());
  for (std::uint64_t i = 0; i < 20; ++i) {
    TraceEvent ev;
    ev.kind = EventKind::kVoteSent;
    ev.t_us = i;
    ev.aux = i;
    ring.push(ev);
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].aux, 12 + i) << "ring must retain the newest 8, oldest first";
  }
}

TEST(TraceRing, ZeroCapacityDisablesRecording) {
  TraceRing ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.push(TraceEvent{});
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.events().empty());
}

TEST(TraceNdjson, RoundTripsEveryKind) {
  std::vector<TraceEvent> events;
  for (int k = 0; k <= static_cast<int>(EventKind::kBlockCommitted); ++k) {
    TraceEvent ev;
    ev.kind = static_cast<EventKind>(k);
    ev.replica = static_cast<ReplicaId>(k % 4);
    ev.t_us = 1000 + static_cast<SimTime>(k);
    ev.wall_us = (k % 2 == 0) ? 0 : 1'700'000'000'000'000ull + k;
    ev.view = static_cast<View>(k);
    ev.round = static_cast<Round>(2 * k);
    ev.height = static_cast<std::uint64_t>(k % 3);
    ev.aux = 0xabcdef00ull + k;
    events.push_back(ev);
  }
  const std::string text = to_ndjson(events);
  // wall_us is omitted when zero so sim traces stay deterministic.
  EXPECT_EQ(text.find("\"wall_us\":0,"), std::string::npos);
  std::size_t bad = 0;
  const auto parsed = parse_ndjson(text, &bad);
  EXPECT_EQ(bad, 0u);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(parsed[i] == events[i]) << "event " << i;
  }
}

TEST(TraceNdjson, SkipsMalformedLinesAndCountsThem) {
  std::string text = to_ndjson({TraceEvent{}});
  text += "\nnot json at all\n{\"ev\":\"no_such_kind\",\"replica\":0}\n\n";
  std::size_t bad = 0;
  const auto parsed = parse_ndjson(text, &bad);
  EXPECT_EQ(parsed.size(), 1u);
  EXPECT_EQ(bad, 2u);
}

TEST(TraceMerge, OrdersByTimeThenReplica) {
  std::vector<std::vector<TraceEvent>> streams(2);
  TraceEvent a;
  a.replica = 1;
  a.t_us = 5;
  TraceEvent b;
  b.replica = 0;
  b.t_us = 5;
  TraceEvent c;
  c.replica = 1;
  c.t_us = 2;
  streams[0] = {c, a};
  streams[1] = {b};
  const auto merged = merge_traces(streams);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].t_us, 2u);
  EXPECT_EQ(merged[1].replica, 0u);  // at t=5, replica 0 sorts first
  EXPECT_EQ(merged[2].replica, 1u);
}

/// Two identical seeded sim runs must emit byte-identical traces — any
/// divergence means a nondeterministic input leaked into the event path.
TEST(Determinism, IdenticalRunsEmitIdenticalTraces) {
  auto run = [] {
    harness::ExperimentConfig cfg;
    cfg.n = 4;
    cfg.protocol = harness::Protocol::kFallback3;
    cfg.scenario = harness::NetScenario::kAsynchronous;
    cfg.seed = 99;
    cfg.trace_capacity = 4096;
    harness::Experiment exp(cfg);
    exp.start();
    exp.run_until_commits(4, 30'000'000'000ull);
    return exp.traces_ndjson();
  };
  const std::string first = run();
  const std::string second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Analyzer, ReportsCommitsAndFallbackWinRate) {
  harness::ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = harness::Protocol::kAlwaysFallback;
  cfg.scenario = harness::NetScenario::kSynchronous;
  cfg.seed = 3;
  cfg.trace_capacity = 1 << 14;
  harness::Experiment exp(cfg);
  exp.start();
  exp.run_until_commits(6, 30'000'000'000ull);

  const TraceReport report = analyze_trace(exp.trace_events());
  EXPECT_GT(report.events_total, 0u);
  EXPECT_GT(report.counts[static_cast<int>(EventKind::kBlockCommitted)], 0u);
  // Always-fallback commits exclusively through certified f-blocks.
  EXPECT_GT(report.fallback.count, 0u);
  EXPECT_EQ(report.steady.count, 0u);
  EXPECT_GT(report.fallbacks_entered, 0u);
  EXPECT_GT(report.win_rate, 0.0);
  EXPECT_LE(report.win_rate, 1.0);
  EXPECT_GT(report.fallback_duration.count, 0u);
  const std::string text = report.summary();
  EXPECT_NE(text.find("fallback win rate"), std::string::npos);
  EXPECT_NE(text.find("commit latency"), std::string::npos);
}

/// The registry serves ReplicaStats/NetStats from the protocol's own
/// storage: a snapshot must equal the struct fields exactly.
TEST(Registry, ServesReplicaAndNetStatsWithoutCopies) {
  harness::ExperimentConfig cfg;
  cfg.n = 4;
  cfg.seed = 11;
  harness::Experiment exp(cfg);
  exp.start();
  exp.run_until_commits(5, 30'000'000'000ull);

  const Snapshot snap = exp.registry().snapshot();
  std::uint64_t proposals = 0, votes = 0;
  for (ReplicaId id = 0; id < 4; ++id) {
    proposals += exp.replica(id).stats().proposals_sent;
    votes += exp.replica(id).stats().votes_sent;
    const Sample* s = snap.find("repro_proposals_sent_total",
                                {{"replica", std::to_string(id)}});
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value, exp.replica(id).stats().proposals_sent);
  }
  EXPECT_EQ(snap.value("repro_proposals_sent_total"), proposals);
  EXPECT_EQ(snap.value("repro_votes_sent_total"), votes);
  EXPECT_EQ(snap.value("repro_net_messages_total"), exp.network().stats().messages);
  EXPECT_TRUE(snap.has("repro_commit_latency_us"));
  EXPECT_GT(snap.value("repro_committed_blocks"), 0u);
}

/// Re-registering a (name, labels) identity hands over new storage in
/// place: one entry, its old position, the new storage's value.
TEST(Registry, ReRegistrationSwapsStorageInPlace) {
  Registry reg;
  Counter a0, a1, a2, b1;
  a0 += 1;
  a1 += 2;
  a2 += 3;
  b1 += 20;
  reg.attach_counter("test_m_total", {{"replica", "0"}}, &a0);
  reg.attach_counter("test_m_total", {{"replica", "1"}}, &a1);
  reg.attach_counter("test_m_total", {{"replica", "2"}}, &a2);
  reg.counter("test_other_total") += 5;
  reg.attach_counter("test_m_total", {{"replica", "1"}}, &b1);
  // Same name, other labels: a distinct metric, not a replacement.
  reg.attach_counter("test_m_total", {{"replica", "1"}, {"lane", "x"}}, &a1);

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 5u);
  std::vector<std::string> replicas;
  std::vector<std::uint64_t> values;
  for (const Sample& s : snap.samples) {
    if (s.name != "test_m_total") continue;
    replicas.push_back(s.labels.front().second);
    values.push_back(s.value);
  }
  EXPECT_EQ(replicas, (std::vector<std::string>{"0", "1", "2", "1"}));
  EXPECT_EQ(values, (std::vector<std::uint64_t>{1, 20, 3, 2}));
  EXPECT_EQ(snap.value("test_other_total"), 5u);
}

/// Send raw bytes to the admin port and return the full HTTP response
/// (the server answers one request per connection and closes).
std::string admin_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string admin_get(std::uint16_t port, const std::string& path) {
  return admin_request(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

bool status_is(const std::string& response, const char* code) {
  return response.rfind(std::string("HTTP/1.0 ") + code, 0) == 0;
}

TEST(AdminServerTest, ServesAllRoutesAndHealthTurns503OnStall) {
  Registry reg;
  reg.counter("test_admin_requests_total", {}) += 3;

  auto trace = std::make_shared<TraceRing>(64);
  TraceEvent tev;
  tev.kind = EventKind::kVoteSent;
  tev.t_us = 7;
  trace->push(tev);

  auto spans = std::make_shared<SpanRing>(64);
  SpanEvent sev;
  sev.stage = SpanStage::kCommit;
  sev.t_us = 11;
  sev.key = 42;
  spans->push(sev);

  std::atomic<bool> stalled{false};
  AdminServer::Options opts;
  opts.registry = &reg;
  opts.trace = trace;
  opts.spans = spans;
  opts.replica = 2;
  opts.health_fn = [&stalled]() -> std::pair<int, std::string> {
    if (stalled.load()) return {503, "stalled last_commit_age_us=999999\n"};
    return {200, "ok last_commit_age_us=12 view=1 round=3\n"};
  };
  AdminServer srv(0, opts);
  ASSERT_TRUE(srv.running());
  ASSERT_NE(srv.port(), 0);

  const std::string metrics = admin_get(srv.port(), "/metrics");
  EXPECT_TRUE(status_is(metrics, "200")) << metrics;
  EXPECT_NE(metrics.find("test_admin_requests_total 3"), std::string::npos);

  // /trace leads with the ring-health meta line so a scraper can tell a
  // complete window from an overwritten one.
  const std::string tr = admin_get(srv.port(), "/trace");
  EXPECT_TRUE(status_is(tr, "200"));
  const std::size_t body = tr.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  TraceMeta meta;
  const std::string first_line = tr.substr(body + 4, tr.find('\n', body + 4) - body - 3);
  ASSERT_TRUE(parse_trace_meta_line(first_line, &meta)) << first_line;
  EXPECT_EQ(meta.replica, 2u);
  EXPECT_EQ(meta.recorded, 1u);
  EXPECT_NE(tr.find("\"ev\":"), std::string::npos);

  const std::string sp = admin_get(srv.port(), "/spans");
  EXPECT_TRUE(status_is(sp, "200"));
  EXPECT_NE(sp.find("\"stage\":\"commit\""), std::string::npos);

  const std::string healthy = admin_get(srv.port(), "/healthz");
  EXPECT_TRUE(status_is(healthy, "200"));
  EXPECT_NE(healthy.find("last_commit_age_us=12"), std::string::npos);
  stalled.store(true);
  const std::string sick = admin_get(srv.port(), "/healthz");
  EXPECT_TRUE(status_is(sick, "503")) << sick;
  EXPECT_NE(sick.find("stalled"), std::string::npos);

  EXPECT_TRUE(status_is(admin_get(srv.port(), "/nope"), "404"));
  // No dump_fn wired: the route is absent, not an error.
  EXPECT_TRUE(status_is(admin_get(srv.port(), "/dump"), "404"));
}

TEST(AdminServerTest, RejectsOversizedAndMalformedRequestLines) {
  Registry reg;
  AdminServer::Options opts;
  opts.registry = &reg;
  AdminServer srv(0, opts);
  ASSERT_TRUE(srv.running());

  // Wrong method, missing space after the path, and a path that does not
  // start with '/' are all guesses the server refuses to make.
  EXPECT_TRUE(status_is(admin_request(srv.port(), "POST /metrics HTTP/1.0\r\n\r\n"), "400"));
  EXPECT_TRUE(status_is(admin_request(srv.port(), "GET /metrics"), "400"));
  EXPECT_TRUE(status_is(admin_request(srv.port(), "GET metrics HTTP/1.0\r\n\r\n"), "400"));
  EXPECT_TRUE(status_is(admin_request(srv.port(), "\r\n\r\n"), "400"));

  // A request line that fills the server's read buffer without a newline
  // was truncated mid-way; it must be rejected, not parsed on a guess.
  const std::string oversized(1023, 'A');
  EXPECT_TRUE(status_is(admin_request(srv.port(), oversized), "400"));

  // The server must survive all of the above and keep serving.
  EXPECT_TRUE(status_is(admin_get(srv.port(), "/metrics"), "200"));
}

/// Concurrent scrapes racing a /dump racing live span writers: every
/// response must be well-formed and every dump must be triggered exactly
/// once per request (the accept loop serializes, the sources must not
/// assume quiescence).
TEST(AdminServerTest, ConcurrentScrapesRaceDumpAndLiveWriters) {
  Registry reg;
  auto spans = std::make_shared<SpanRing>(256);
  auto trace = std::make_shared<TraceRing>(256);

  std::atomic<std::uint64_t> dump_calls{0};
  AdminServer::Options opts;
  opts.registry = &reg;
  opts.trace = trace;
  opts.spans = spans;
  opts.dump_fn = [&dump_calls, spans]() -> std::string {
    // A real dump snapshots the rings mid-flight; do the same here.
    const std::size_t n = spans->events().size();
    dump_calls.fetch_add(1);
    return "/tmp/bundle-" + std::to_string(n);
  };
  AdminServer srv(0, opts);
  ASSERT_TRUE(srv.running());

  std::atomic<bool> stop{false};
  std::thread writer([&spans, &stop] {
    SpanEvent ev;
    ev.stage = SpanStage::kVoteSend;
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ev.t_us = ++i;
      ev.key = i;
      spans->push(ev);
    }
  });

  constexpr int kThreads = 4, kIters = 8;
  std::atomic<int> bad{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < kThreads; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const char* path = (t % 2 == 0) ? (i % 2 == 0 ? "/spans" : "/metrics")
                                        : (i % 2 == 0 ? "/dump" : "/trace");
        const std::string resp = admin_get(srv.port(), path);
        if (!status_is(resp, "200")) bad.fetch_add(1);
      }
    });
  }
  for (auto& s : scrapers) s.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(dump_calls.load(), kIters);  // two threads hit /dump every other turn
  EXPECT_GT(spans->recorded(), 0u);
}

TEST(AdminServerTest, DumpFailureMapsTo503) {
  AdminServer::Options opts;
  opts.dump_fn = []() -> std::string { return ""; };
  AdminServer srv(0, opts);
  ASSERT_TRUE(srv.running());
  const std::string resp = admin_get(srv.port(), "/dump");
  EXPECT_TRUE(status_is(resp, "503")) << resp;
  EXPECT_NE(resp.find("dump failed"), std::string::npos);
}

/// Every log line carries `[seconds.micros] [tN] [LEVEL] ` and arrives
/// whole even when several threads log at once (single fwrite per line).
TEST(Logger, PrefixedLinesStayWholeAcrossThreads) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  constexpr int kThreads = 4, kLines = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) LOG_INFO("worker=%d line=%d", t, i);
    });
  }
  for (auto& w : workers) w.join();
  const std::string out = testing::internal::GetCapturedStderr();
  set_log_level(saved);

  const std::regex line_re(
      R"(\[ *\d+\.\d{6}\] \[t\d+\] \[INFO \] worker=\d+ line=\d+)");
  std::istringstream lines(out);
  std::string line;
  int matched = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(std::regex_match(line, line_re)) << "garbled line: " << line;
    ++matched;
  }
  EXPECT_EQ(matched, kThreads * kLines);
}

}  // namespace
}  // namespace repro::obs
