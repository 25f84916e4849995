// Boundary timers of the traced run. Each timed call at a public seam of
// the program (a delivery handler, a network send, a WAL append, the
// payload factory) becomes one span: layer, replica, start, end, and the
// key of the message or record that caused it. Spans stay in memory,
// one log per writer thread, and are written out as NDJSON at exit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/replica.h"
#include "net/network.h"
#include "obs/span.h"
#include "storage/wal.h"

namespace perfbench {

enum class Layer : std::uint8_t { kCore, kTransport, kStorage, kClient };
const char* layer_name(Layer l);

struct BoundarySpan {
  Layer layer = Layer::kCore;
  std::uint8_t tag = 0;  ///< message-type tag (first payload byte), 0 if none
  repro::ReplicaId replica = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t key = 0;  ///< span_key_of(payload or record)
  std::uint64_t dur() const { return end_ns - start_ns; }
};

/// Spans of one writer thread (not synchronized: one node thread, or the
/// simulator's single thread, owns each log).
struct SpanLog {
  std::vector<BoundarySpan> spans;
  std::uint64_t uncached_deliveries = 0;  ///< on_message_uncached calls
  std::uint64_t sends = 0;                ///< send + multicast calls

  void record(Layer layer, repro::ReplicaId replica, std::uint64_t start_ns,
              std::uint64_t end_ns, repro::BytesView bytes);
  /// Durations (ns) of this log's spans of one layer; tag 0 = any tag.
  void durations(Layer layer, std::vector<std::uint64_t>& out, std::uint8_t tag = 0) const;
  std::uint64_t total_ns(Layer layer) const;
};

/// Per critical-path stage (obs::SpanChain::stage_us index), the
/// durations of the chains that captured that stage.
std::vector<std::vector<std::uint64_t>> chain_stage_samples(const repro::obs::SpanReport& rep);

/// Writes every span of every log as NDJSON; returns false on I/O error.
bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs);

/// Forwarding INetwork: times each send/multicast into `log`.
class TimedNetwork final : public repro::net::INetwork {
 public:
  TimedNetwork(repro::net::INetwork* inner, SpanLog* log, repro::ReplicaId id)
      : inner_(inner), log_(log), id_(id) {}

  using INetwork::multicast;
  using INetwork::send;
  void send(repro::ReplicaId from, repro::ReplicaId to, repro::SharedBytes payload) override;
  void multicast(repro::ReplicaId from, repro::SharedBytes payload) override;

 private:
  repro::net::INetwork* inner_;
  SpanLog* log_;
  repro::ReplicaId id_;
};

/// Forwarding IReplica: every virtual is forwarded, and the three
/// delivery entry points are timed into `log`. Owns the forwarding
/// network it was built with, which must outlive the inner replica.
class TimedReplica final : public repro::core::IReplica {
 public:
  TimedReplica(std::unique_ptr<TimedNetwork> net, std::unique_ptr<repro::core::IReplica> inner,
               SpanLog* log)
      : net_(std::move(net)), inner_(std::move(inner)), log_(log) {}

  void start() override { inner_->start(); }
  void on_message(repro::ReplicaId from, const repro::Bytes& payload) override;
  void on_message_keyed(repro::ReplicaId from, const repro::Bytes& payload,
                        const repro::crypto::Digest& key) override;
  void on_message_uncached(repro::ReplicaId from, const repro::Bytes& payload) override;
  void halt() override { inner_->halt(); }
  void set_fault(const repro::core::FaultSpec& fault) override { inner_->set_fault(fault); }
  repro::ReplicaId id() const override { return inner_->id(); }
  const repro::smr::Ledger& ledger() const override { return inner_->ledger(); }
  repro::smr::Ledger& ledger() override { return inner_->ledger(); }
  repro::Round current_round() const override { return inner_->current_round(); }
  repro::View current_view() const override { return inner_->current_view(); }
  bool in_fallback() const override { return inner_->in_fallback(); }
  const repro::core::ReplicaStats& stats() const override { return inner_->stats(); }
  std::size_t share_pool_bytes() const override { return inner_->share_pool_bytes(); }

 private:
  std::unique_ptr<TimedNetwork> net_;  // declared first: destroyed after inner_
  std::unique_ptr<repro::core::IReplica> inner_;
  SpanLog* log_;
};

/// Forwarding WAL: times each append into `log`.
class TimedWal final : public repro::storage::Wal {
 public:
  TimedWal(repro::storage::Wal* inner, SpanLog* log, repro::ReplicaId id)
      : inner_(inner), log_(log), id_(id) {}
  void append(repro::BytesView record) override;
  std::vector<repro::Bytes> replay() const override { return inner_->replay(); }
  std::size_t record_count() const override { return inner_->record_count(); }

 private:
  repro::storage::Wal* inner_;
  SpanLog* log_;
  repro::ReplicaId id_;
};

}  // namespace perfbench
