// Repo benchmark program: one process runs one workload and prints its
// metrics as the last line of stdout (README.md in this directory says
// what each workload and metric is for).
//
//   pbench --workload sim-badnet|tcp-steady|tcp-fallback --seed N
//          --seconds S --trace 0|1 --workdir DIR [--smoke] [--plant-mismatch]
//
// Exit codes: 0 ok, 1 a correctness check failed, 2 bad arguments,
// 3 the workload did not fill in its metric table.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <string>

#include "common.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: pbench --workload sim-badnet|tcp-steady|tcp-fallback --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--smoke] [--plant-mismatch]\n");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string workload;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (a == "--plant-mismatch") {
      opt.plant_mismatch = true;
      continue;
    }
    if (v == nullptr) {
      usage();
      return 2;
    }
    ++i;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--workdir") {
      opt.workdir = v;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_seed || !(opt.seconds > 0) || opt.workdir.empty()) {
    usage();
    return 2;
  }

  const double ref_before = perfbench::reference_kernel_us(0.2);
  const perfbench::CpuJiffies before = perfbench::read_cpu_jiffies();
  perfbench::Report r;
  if (workload == "sim-badnet") {
    r = perfbench::run_sim_badnet(opt);
  } else if (workload == "tcp-steady") {
    r = perfbench::run_tcp(opt, /*fallback=*/false);
  } else if (workload == "tcp-fallback") {
    r = perfbench::run_tcp(opt, /*fallback=*/true);
  } else {
    usage();
    return 2;
  }
  perfbench::add_host_facts(r, before, perfbench::read_cpu_jiffies());
  r.note("host.ref_kernel_before_us", "us", ref_before);
  r.note("host.ref_kernel_after_us", "us", perfbench::reference_kernel_us(0.2));

  // Emit exactly the mode's table, in order. An end-to-end metric the
  // workload forgot, or any name outside the table, is a benchmark bug;
  // a run that already failed its checks may stop before setting them.
  const auto& table = opt.trace ? perfbench::per_layer_table() : perfbench::end_to_end_table();
  std::set<std::string> known;
  for (const auto& m : table) known.insert(m.name);
  for (const auto& [name, value] : r.values) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "pbench: metric %s is not in the %s table\n", name.c_str(),
                   opt.trace ? "per-layer" : "end-to-end");
      return 3;
    }
  }
  std::ostringstream metrics;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto it = r.values.find(table[i].name);
    if (it == r.values.end() && !opt.trace && r.correct) {
      std::fprintf(stderr, "pbench: workload did not set %s\n", table[i].name);
      return 3;
    }
    metrics << (i ? ", " : "") << "\"" << table[i].name << "\": {\"value\": "
            << json_number(it == r.values.end() ? 0.0 : it->second) << ", \"unit\": \""
            << table[i].unit << "\"}";
  }

  for (const auto& d : r.diag) {
    std::printf("diag %-40s %18.9g %s\n", d.name.c_str(), d.value, d.unit.c_str());
  }
  if (!r.correct) std::printf("CORRECTNESS FAILURE: %s\n", r.failure.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              r.correct ? "true" : "false", r.attempted, r.failed, metrics.str().c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
