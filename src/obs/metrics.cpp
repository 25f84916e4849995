#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace repro::obs {
namespace {

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += "\"";
  }
  out += "}";
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

}  // namespace

bool Snapshot::has(const std::string& name) const {
  for (const auto& s : samples) {
    if (s.name == name) return true;
  }
  return false;
}

std::uint64_t Snapshot::value(const std::string& name) const {
  std::uint64_t total = 0;
  for (const auto& s : samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

const Sample* Snapshot::find(const std::string& name, const Labels& labels) const {
  for (const auto& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

std::string Snapshot::prometheus() const {
  std::string out;
  std::string last_family;
  for (const auto& s : samples) {
    if (s.name != last_family) {
      out += "# TYPE ";
      out += s.name;
      out += " ";
      out += kind_name(s.kind);
      out += "\n";
      last_family = s.name;
    }
    if (s.kind == MetricKind::kHistogram) {
      // Cumulative buckets with power-of-two `le` boundaries.
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < s.buckets.size(); ++i) {
        cum += s.buckets[i];
        Labels bl = s.labels;
        if (i + 1 == s.buckets.size()) {
          bl.emplace_back("le", "+Inf");
        } else {
          bl.emplace_back("le", std::to_string(Histogram::bucket_upper(i)));
        }
        out += s.name;
        out += "_bucket";
        out += render_labels(bl);
        out += " ";
        append_u64(out, cum);
        out += "\n";
      }
      out += s.name;
      out += "_sum";
      out += render_labels(s.labels);
      out += " ";
      append_u64(out, s.sum);
      out += "\n";
      out += s.name;
      out += "_count";
      out += render_labels(s.labels);
      out += " ";
      append_u64(out, s.count);
      out += "\n";
    } else {
      out += s.name;
      out += render_labels(s.labels);
      out += " ";
      append_u64(out, s.value);
      out += "\n";
    }
  }
  return out;
}

std::string Snapshot::ndjson() const {
  std::string out;
  for (const auto& s : samples) {
    out += "{\"name\":\"";
    out += json_escape(s.name);
    out += "\",\"kind\":\"";
    out += kind_name(s.kind);
    out += "\"";
    for (const auto& [k, v] : s.labels) {
      out += ",\"";
      out += json_escape(k);
      out += "\":\"";
      out += json_escape(v);
      out += "\"";
    }
    if (s.kind == MetricKind::kHistogram) {
      out += ",\"count\":";
      append_u64(out, s.count);
      out += ",\"sum\":";
      append_u64(out, s.sum);
      out += ",\"buckets\":[";
      for (std::size_t i = 0; i < s.buckets.size(); ++i) {
        if (i != 0) out += ",";
        append_u64(out, s.buckets[i]);
      }
      out += "]";
    } else {
      out += ",\"value\":";
      append_u64(out, s.value);
    }
    out += "}\n";
  }
  return out;
}

Registry::Entry& Registry::upsert(const std::string& name, Labels labels,
                                  MetricKind kind) {
  auto [it, inserted] = index_.try_emplace({name, labels}, nullptr);
  if (inserted) it->second = entries_.emplace_back(std::make_unique<Entry>()).get();
  // A re-registration (e.g. replica restart) hands over new storage under
  // the same identity, in place, so snapshot order does not change.
  Entry& e = *it->second;
  e = Entry{};
  e.name = name;
  e.labels = std::move(labels);
  e.kind = kind;
  return e;
}

Counter& Registry::counter(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = upsert(name, std::move(labels), MetricKind::kCounter);
  e.owned_counter = std::make_unique<Counter>();
  return *e.owned_counter;
}

Histogram& Registry::histogram(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = upsert(name, std::move(labels), MetricKind::kHistogram);
  e.owned_hist = std::make_unique<Histogram>();
  return *e.owned_hist;
}

void Registry::attach_counter(const std::string& name, Labels labels,
                              const Counter* c) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = upsert(name, std::move(labels), MetricKind::kCounter);
  e.ext_counter = c;
}

void Registry::attach_gauge_fn(const std::string& name, Labels labels,
                               std::function<std::uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = upsert(name, std::move(labels), MetricKind::kGauge);
  e.gauge_fn = std::move(fn);
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.samples.reserve(entries_.size());
  for (const auto& e : entries_) {
    Sample s;
    s.name = e->name;
    s.labels = e->labels;
    s.kind = e->kind;
    if (const Histogram* hist = e->owned_hist.get()) {
      s.buckets.resize(Histogram::kBuckets);
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        s.buckets[i] = hist->bucket(i);
      }
      s.count = hist->count();
      s.sum = hist->sum();
    } else if (e->owned_counter) {
      s.value = e->owned_counter->load();
    } else if (e->ext_counter != nullptr) {
      s.value = e->ext_counter->load();
    } else if (e->gauge_fn) {
      s.value = e->gauge_fn();
    }
    snap.samples.push_back(std::move(s));
  }
  // Group label variants of a family together (stable within a family by
  // registration order) so Prometheus emits one # TYPE line per family.
  std::stable_sort(snap.samples.begin(), snap.samples.end(),
                   [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return snap;
}

}  // namespace repro::obs
