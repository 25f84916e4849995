#include "probes.h"

#include <cstdio>

#include "common.h"
#include "obs/span.h"

namespace perfbench {

using namespace repro;

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kCore: return "core";
    case Layer::kTransport: return "transport";
    case Layer::kStorage: return "storage";
    case Layer::kClient: return "client";
  }
  return "?";
}

void SpanLog::record(Layer layer, ReplicaId replica, std::uint64_t start_ns,
                     std::uint64_t end_ns, BytesView bytes) {
  BoundarySpan s;
  s.layer = layer;
  s.tag = bytes.empty() ? 0 : bytes[0];
  s.replica = replica;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.key = bytes.empty() ? 0 : obs::span_key_of(bytes);
  spans.push_back(s);
}

void SpanLog::durations(Layer layer, std::vector<std::uint64_t>& out, std::uint8_t tag) const {
  for (const auto& s : spans) {
    if (s.layer == layer && (tag == 0 || s.tag == tag)) out.push_back(s.dur());
  }
}

std::uint64_t SpanLog::total_ns(Layer layer) const {
  std::uint64_t t = 0;
  for (const auto& s : spans) {
    if (s.layer == layer) t += s.dur();
  }
  return t;
}

std::vector<std::vector<std::uint64_t>> chain_stage_samples(const obs::SpanReport& rep) {
  std::vector<std::vector<std::uint64_t>> stage(obs::SpanChain::kMilestones - 1);
  for (const auto& ch : rep.chains) {
    for (std::size_t i = 0; i < stage.size(); ++i) {
      if (ch.stage_set[i]) stage[i].push_back(ch.stage_us[i]);
    }
  }
  return stage;
}

bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanLog* log : logs) {
    for (const auto& s : log->spans) {
      std::fprintf(f,
                   "{\"layer\":\"%s\",\"tag\":%u,\"replica\":%u,\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"key\":%llu}\n",
                   layer_name(s.layer), static_cast<unsigned>(s.tag), s.replica,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.key));
    }
  }
  return std::fclose(f) == 0;
}

void TimedNetwork::send(ReplicaId from, ReplicaId to, SharedBytes payload) {
  const SharedBytes keep = payload;
  const std::uint64_t t0 = wall_ns();
  inner_->send(from, to, std::move(payload));
  log_->record(Layer::kTransport, id_, t0, wall_ns(), *keep);
  ++log_->sends;
}

void TimedNetwork::multicast(ReplicaId from, SharedBytes payload) {
  const SharedBytes keep = payload;
  const std::uint64_t t0 = wall_ns();
  inner_->multicast(from, std::move(payload));
  log_->record(Layer::kTransport, id_, t0, wall_ns(), *keep);
  ++log_->sends;
}

void TimedReplica::on_message(ReplicaId from, const Bytes& payload) {
  const std::uint64_t t0 = wall_ns();
  inner_->on_message(from, payload);
  log_->record(Layer::kCore, inner_->id(), t0, wall_ns(), payload);
}

void TimedReplica::on_message_keyed(ReplicaId from, const Bytes& payload,
                                    const crypto::Digest& key) {
  const std::uint64_t t0 = wall_ns();
  inner_->on_message_keyed(from, payload, key);
  log_->record(Layer::kCore, inner_->id(), t0, wall_ns(), payload);
}

void TimedReplica::on_message_uncached(ReplicaId from, const Bytes& payload) {
  const std::uint64_t t0 = wall_ns();
  inner_->on_message_uncached(from, payload);
  log_->record(Layer::kCore, inner_->id(), t0, wall_ns(), payload);
  ++log_->uncached_deliveries;
}

void TimedWal::append(BytesView record) {
  const std::uint64_t t0 = wall_ns();
  inner_->append(record);
  log_->record(Layer::kStorage, id_, t0, wall_ns(), record);
}

}  // namespace perfbench
