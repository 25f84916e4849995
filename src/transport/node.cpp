#include "transport/node.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "common/assert.h"

namespace repro::transport {
namespace {

constexpr std::uint32_t kMaxFrame = 16u << 20;  // 16 MiB
constexpr ReplicaId kUnknownPeer = UINT32_MAX;

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::uint32_t read_le32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) | (std::uint32_t(p[2]) << 16) |
         (std::uint32_t(p[3]) << 24);
}

void write_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = std::uint8_t(v);
  p[1] = std::uint8_t(v >> 8);
  p[2] = std::uint8_t(v >> 16);
  p[3] = std::uint8_t(v >> 24);
}

std::uint64_t read_le64(const std::uint8_t* p) {
  return std::uint64_t(read_le32(p)) | (std::uint64_t(read_le32(p + 4)) << 32);
}

void write_le64(std::uint8_t* p, std::uint64_t v) {
  write_le32(p, static_cast<std::uint32_t>(v));
  write_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

/// CLOCK_REALTIME microseconds, for cross-process clock-offset estimation
/// (the span ring stamps the same clock, so offsets apply directly).
std::uint64_t wall_clock_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000;
}

/// Transport-level control frames ride tag 0 — smr::MsgType starts at 1,
/// so a protocol message can never begin with a zero byte and the wire
/// format needs no change. Only emitted when spans are enabled; a
/// spans-off cluster sends byte-identical traffic to a spans-free build.
constexpr std::uint8_t kCtrlTag = 0;
constexpr std::uint8_t kCtrlPing = 1;  ///< {0, 1, t1:le64} — sender wall us
constexpr std::uint8_t kCtrlPong = 2;  ///< {0, 2, t1:le64, t2:le64} — echo + responder wall us
constexpr std::size_t kPingFrameBytes = 10;
constexpr std::size_t kPongFrameBytes = 18;
/// Ping cadence per peer while spans are on. One round per second is
/// plenty: the analyzer keeps the min-RTT sample per directed pair across
/// the whole run, and clock drift over seconds is far below the
/// millisecond-scale stages the offsets are used to align. Pinging
/// faster just burns O(n^2) control frames per interval — at n=16 and
/// 250 ms that was ~2k extra frames/s of pure measurement traffic.
constexpr SimTime kPingIntervalUs = 1'000'000;

/// Does this wire payload carry a (steady or fallback) proposal? Only
/// those frames get transport spans — the critical path runs proposer ->
/// voters, and keying every vote/share frame would triple span volume for
/// stages the analyzer never stitches.
bool is_proposal_tag(const Bytes& payload) {
  if (payload.empty()) return false;
  return payload[0] == static_cast<std::uint8_t>(smr::MsgType::kProposal) ||
         payload[0] == static_cast<std::uint8_t>(smr::MsgType::kFbProposal);
}

/// Hard cap on connections parked in conns_ awaiting their hello. Together
/// with the hello deadline this bounds what an accept flood can pin: at
/// most this many fds, each for at most hello_timeout.
constexpr std::size_t kMaxPendingHellos = 64;

/// Frames per vectored write: each frame contributes a header iovec and a
/// payload iovec, and IOV_MAX is at least 16 on any POSIX system — 64
/// iovecs stays far under every real limit (Linux: 1024) while letting a
/// protocol burst coalesce dozens of frames into one syscall.
constexpr std::size_t kMaxIov = 64;

/// Write everything or fail — used only for the 4-byte connect hello,
/// written before the socket goes non-blocking. Data frames go through
/// SendQueue. A full socket buffer only means the peer is momentarily
/// slow — keep retrying until `budget_us` of wall time is spent; a single
/// timed-out poll() is not grounds for tearing the connection down.
bool write_all(int fd, const std::uint8_t* data, std::size_t len, SimTime budget_us) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(budget_us);
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR)) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (remaining.count() <= 0) return false;  // stall outlived the budget
        // Socket buffer full: block until writable, in bounded slices so a
        // wedged peer cannot hold the node thread past the budget.
        pollfd pfd{fd, POLLOUT, 0};
        const int slice_ms = static_cast<int>(
            std::min<std::chrono::milliseconds::rep>(remaining.count(), 100));
        ::poll(&pfd, 1, slice_ms);
        continue;
      }
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Extra zero-timeout poll passes per loop iteration: after the blocking
/// poll wakes, the loop re-polls and keeps reading while more input is
/// already pending, so a burst of frames (an always-fallback view fans
/// several multicasts at every replica) is processed — and its responses
/// queued — before the single flush_writes() of the iteration. Bounded so
/// a firehose peer cannot starve timers; one sweep costs one poll(0).
constexpr int kMaxReadSweeps = 4;

}  // namespace

namespace {

/// Monotonic microsecond tick for send-queue wait accounting. TCP-only
/// plumbing — never feeds protocol logic, so wall-clock nondeterminism is
/// fine here.
std::uint64_t steady_tick_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---- SendQueue --------------------------------------------------------------

bool SendQueue::push(SharedBytes payload, net::NetStats* stats, std::uint64_t span_key) {
  REPRO_ASSERT(payload != nullptr && payload->size() <= kMaxFrame);
  const std::size_t frame_bytes = 4 + payload->size();
  if (queued_bytes_ + frame_bytes > max_bytes_) {
    if (stats != nullptr) {
      stats->sendq_dropped_frames += 1;
      stats->sendq_dropped_bytes += frame_bytes;
    }
    return false;
  }
  Frame f;
  write_le32(f.header.data(), static_cast<std::uint32_t>(payload->size()));
  f.payload = std::move(payload);
  if (span_key != 0 && spans_ != nullptr) {
    f.span_key = span_key;
    f.enqueued_tick_us = steady_tick_us();
  }
  frames_.push_back(std::move(f));
  queued_bytes_ += frame_bytes;
  return true;
}

SendQueue::FlushResult SendQueue::flush(int fd, net::NetStats* stats) {
  bool wrote_any = false;
  while (!frames_.empty()) {
    // Gather the head of the queue into iovecs; the first frame may
    // resume mid-header or mid-payload from a previous partial write.
    std::array<iovec, kMaxIov> iov;
    std::size_t iovcnt = 0;
    bool first = true;
    for (const Frame& f : frames_) {
      if (iovcnt + 2 > kMaxIov) break;
      std::size_t off = first ? head_offset_ : 0;
      first = false;
      if (off < 4) {
        iov[iovcnt++] = {const_cast<std::uint8_t*>(f.header.data() + off), 4 - off};
        off = 0;
      } else {
        off -= 4;
      }
      if (off < f.payload->size()) {
        iov[iovcnt++] = {const_cast<std::uint8_t*>(f.payload->data() + off),
                         f.payload->size() - off};
      }
    }
    // sendmsg is writev plus MSG_NOSIGNAL (a reset peer must yield EPIPE,
    // not kill the process).
    msghdr mh{};
    mh.msg_iov = iov.data();
    mh.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return wrote_any ? FlushResult::kProgress : FlushResult::kBlocked;
      }
      return FlushResult::kError;
    }
    wrote_any = true;
    queued_bytes_ -= static_cast<std::size_t>(n);
    if (stats != nullptr) {
      stats->writev_batches += 1;
      stats->writev_bytes += static_cast<std::uint64_t>(n);
    }
    // Retire fully-written frames; remember the offset into a partial one.
    std::size_t remaining = static_cast<std::size_t>(n);
    while (remaining > 0) {
      Frame& f = frames_.front();
      const std::size_t left = 4 + f.payload->size() - head_offset_;
      if (remaining < left) {
        head_offset_ += remaining;
        break;
      }
      remaining -= left;
      head_offset_ = 0;
      if (f.span_key != 0 && spans_ != nullptr) {
        // The frame fully left the process: queue-wait is over, the wire
        // hop starts. aux carries the send-queue wait; the wall-clock ring
        // stamps t_us itself.
        obs::SpanEvent ev;
        ev.stage = obs::SpanStage::kSendFlush;
        ev.replica = span_self_;
        ev.peer = span_peer_;
        ev.key = f.span_key;
        ev.aux = steady_tick_us() - f.enqueued_tick_us;
        spans_->push(ev);
      }
      frames_.pop_front();
      if (stats != nullptr) stats->writev_frames += 1;
    }
  }
  return FlushResult::kDrained;
}

// ---- RealtimeExecutor -------------------------------------------------------

RealtimeExecutor::RealtimeExecutor() : epoch_(std::chrono::steady_clock::now()) {}

SimTime RealtimeExecutor::now() const {
  return static_cast<SimTime>(std::chrono::duration_cast<std::chrono::microseconds>(
                                  std::chrono::steady_clock::now() - epoch_)
                                  .count());
}

std::size_t RealtimeExecutor::run_due() {
  std::size_t fired = 0;
  const SimTime deadline = now();
  while (queue_.next_time() <= deadline) {
    queue_.pop()();
    ++fired;
  }
  return fired;
}

// ---- TcpNetwork -------------------------------------------------------------

/// INetwork over the node's socket mesh. Lives on the node thread.
/// send() never touches the socket: frames land in the target peer's
/// bounded SendQueue and the poll loop flushes all queues per iteration
/// (one vectored write per peer). Accounting mirrors the simulated
/// Network: messages/bytes count frames accepted for the wire,
/// self-deliveries tally separately, send-queue drops separately.
class TcpNode::TcpNetwork final : public net::INetwork {
 public:
  explicit TcpNetwork(TcpNode& node) : node_(node) {}

  using INetwork::multicast;
  using INetwork::send;

  void send(ReplicaId from, ReplicaId to, SharedBytes payload) override {
    REPRO_ASSERT(from == node_.cfg_.id);
    REPRO_ASSERT(payload != nullptr);
    if (to == from) {
      stats_.self_messages += 1;
      stats_.self_bytes += payload->size();
      // Self-delivery: deferred like the simulator's loopback event, but
      // via a plain queue the poll loop drains once per iteration — no
      // executor heap entry or closure allocation per message. The
      // refcounted buffer rides along; no copy.
      node_.self_inbox_.push_back(std::move(payload));
      return;
    }
    auto fit = node_.fd_of_peer_.find(to);
    if (fit == node_.fd_of_peer_.end()) return;  // down; reconnect in progress
    auto cit = node_.conns_.find(fit->second);
    if (cit == node_.conns_.end()) return;
    const std::size_t size = payload->size();
    const std::uint8_t tag = size > 0 ? (*payload)[0] : 0xFF;
    // Proposal frames carry a content key so the send-queue flush span can
    // be joined with the receiver's socket-read span downstream.
    const std::uint64_t span_key =
        node_.spans_on() && is_proposal_tag(*payload)
            ? obs::span_key_of(payload->data(), payload->size())
            : 0;
    if (!cit->second.outbox.push(std::move(payload), &stats_, span_key)) {
      return;  // backpressure drop
    }
    stats_.messages += 1;
    stats_.bytes += size;
    if (size > 0 && tag < stats_.messages_by_type.size()) {
      stats_.messages_by_type[tag] += 1;
      stats_.bytes_by_type[tag] += size;
    }
  }

  void multicast(ReplicaId from, SharedBytes payload) override {
    stats_.multicasts += 1;
    const std::size_t n = node_.cfg_.peers.size();
    // One buffer for all n recipients (n-1 queues + the self-delivery).
    if (n > 1) stats_.payload_copies_avoided += n - 1;
    for (ReplicaId to = 0; to < n; ++to) {
      send(from, to, payload);
    }
  }

  net::NetStats& stats() { return stats_; }

 private:
  TcpNode& node_;
  net::NetStats stats_;
};

net::NetStats TcpNode::net_stats() const {
  return network_ ? network_->stats() : net::NetStats{};
}

// ---- TcpNode ---------------------------------------------------------------

TcpNode::TcpNode(NodeConfig cfg, ReplicaFactory factory)
    : cfg_(std::move(cfg)), factory_(std::move(factory)) {
  REPRO_ASSERT(cfg_.crypto != nullptr);
  REPRO_ASSERT(cfg_.id < cfg_.peers.size());
  if (cfg_.verify_threads != 0) {
    throw std::invalid_argument(
        "NodeConfig::verify_threads must be 0: frames are verified inline on the node thread");
  }
}

TcpNode::~TcpNode() { stop(); }

void TcpNode::start() {
  REPRO_ASSERT(!thread_.joinable());
  REPRO_ASSERT_MSG(pipe(wake_pipe_) == 0, "pipe() failed");
  set_nonblocking(wake_pipe_[0]);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  REPRO_ASSERT(listen_fd_ >= 0);
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.peers[cfg_.id].port);
  REPRO_ASSERT_MSG(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                   "bind failed — port in use?");
  REPRO_ASSERT(listen(listen_fd_, 16) == 0);
  set_nonblocking(listen_fd_);

  thread_ = std::thread([this] { run_loop(); });
}

void TcpNode::stop() {
  if (!thread_.joinable()) return;
  stop_flag_.store(true);
  const char byte = 1;
  [[maybe_unused]] ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  thread_.join();
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  fd_of_peer_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void TcpNode::try_connect(ReplicaId peer) {
  if (stop_flag_.load() || fd_of_peer_.count(peer) != 0) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.peers[peer].port);
  inet_pton(AF_INET, cfg_.peers[peer].host.c_str(), &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    // Peer not up yet: retry.
    executor_.schedule_after(cfg_.reconnect_interval, [this, peer] { try_connect(peer); });
    return;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Hello: our replica id, so the acceptor can map the connection.
  std::uint8_t hello[4];
  write_le32(hello, cfg_.id);
  if (!write_all(fd, hello, 4, write_budget_us())) {
    ::close(fd);
    executor_.schedule_after(cfg_.reconnect_interval, [this, peer] { try_connect(peer); });
    return;
  }
  set_nonblocking(fd);
  Conn conn;
  conn.peer = peer;
  conn.outbox = SendQueue(cfg_.send_queue_max_bytes);
  if (spans_on()) conn.outbox.set_span_sink(cfg_.spans.get(), cfg_.id, peer);
  conns_.emplace(fd, std::move(conn));
  fd_of_peer_[peer] = fd;
}

void TcpNode::handle_control_frame(Conn& conn, const Bytes& payload) {
  if (conn.peer == kUnknownPeer || payload.size() < 2) return;
  if (payload[1] == kCtrlPing && payload.size() >= kPingFrameBytes) {
    // Echo t1, append our wall clock. Control frames bypass NetStats so
    // the protocol traffic ledger matches a spans-off run.
    Bytes pong(kPongFrameBytes);
    pong[0] = kCtrlTag;
    pong[1] = kCtrlPong;
    std::memcpy(pong.data() + 2, payload.data() + 2, 8);
    write_le64(pong.data() + 10, wall_clock_us());
    conn.outbox.push(make_shared_bytes(std::move(pong)), nullptr);
    return;
  }
  if (payload[1] == kCtrlPong && payload.size() >= kPongFrameBytes) {
    if (!spans_on()) return;  // we never pinged; stray pong
    const std::uint64_t t1 = read_le64(payload.data() + 2);
    const std::uint64_t t2 = read_le64(payload.data() + 10);
    const std::uint64_t t3 = wall_clock_us();
    if (t3 < t1) return;
    const std::uint64_t rtt = t3 - t1;
    auto [it, fresh] = ping_best_rtt_.emplace(conn.peer, rtt);
    if (!fresh && rtt > it->second) return;  // keep the min-RTT estimate
    it->second = rtt;
    // RTT-midpoint offset (NTP's two-point sample): assume the pong spent
    // rtt/2 in flight, so the peer's clock read t2 corresponds to our
    // t1 + rtt/2. Only improved estimates are published; the analyzer
    // takes the last one per pair.
    const std::int64_t offset = static_cast<std::int64_t>(t2) -
                                static_cast<std::int64_t>(t1 + rtt / 2);
    obs::SpanEvent ev;
    ev.stage = obs::SpanStage::kClockOffset;
    ev.replica = cfg_.id;
    ev.peer = conn.peer;
    ev.key = conn.peer;
    std::memcpy(&ev.aux, &offset, sizeof ev.aux);
    cfg_.spans->push(ev);
  }
}

void TcpNode::send_pings() {
  const SimTime now = executor_.now();
  if (now < next_ping_at_) return;
  next_ping_at_ = now + kPingIntervalUs;
  for (auto& [fd, conn] : conns_) {
    if (conn.peer == kUnknownPeer) continue;
    Bytes ping(kPingFrameBytes);
    ping[0] = kCtrlTag;
    ping[1] = kCtrlPing;
    write_le64(ping.data() + 2, wall_clock_us());
    conn.outbox.push(make_shared_bytes(std::move(ping)), nullptr);
  }
}

void TcpNode::close_peer(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const ReplicaId peer = it->second.peer;
  conns_.erase(it);
  ::close(fd);
  if (peer != kUnknownPeer) {
    fd_of_peer_.erase(peer);
    // We initiate connections to lower-id peers; they re-dial us.
    if (peer < cfg_.id) {
      executor_.schedule_after(cfg_.reconnect_interval, [this, peer] { try_connect(peer); });
    }
  }
}

SimTime TcpNode::write_budget_us() const {
  if (cfg_.write_stall_timeout != 0) return cfg_.write_stall_timeout;
  return std::max<SimTime>(1'000'000, 5 * cfg_.reconnect_interval);
}

void TcpNode::sweep_half_open() {
  // Every identified conn holds exactly one fd_of_peer_ entry, so equal
  // sizes mean no half-open connections — skip the scan (and the clock
  // read) that every poll iteration would otherwise pay.
  if (conns_.size() == fd_of_peer_.size()) return;
  const SimTime now = executor_.now();
  std::vector<int> expired;
  for (const auto& [fd, conn] : conns_) {
    if (conn.peer == kUnknownPeer && now - conn.accepted_at > cfg_.hello_timeout) {
      expired.push_back(fd);
    }
  }
  for (int fd : expired) close_peer(fd);
}

void TcpNode::on_frame(ReplicaId from, Bytes payload) {
  if (spans_on() && is_proposal_tag(payload)) {
    obs::SpanEvent ev;
    ev.stage = obs::SpanStage::kSocketRead;
    ev.replica = cfg_.id;
    ev.peer = from;
    ev.key = obs::span_key_of(payload.data(), payload.size());
    ev.aux = payload.size();
    cfg_.spans->push(ev);
  }
  // Decode and verify inline on the node thread.
  if (replica_) replica_->on_message(from, payload);
}

std::size_t TcpNode::handle_readable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return 0;
  Conn& conn = it->second;

  std::size_t total_read = 0;
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.inbox.insert(conn.inbox.end(), buf, buf + n);
      total_read += static_cast<std::size_t>(n);
      // A short read means the socket buffer is drained: the follow-up
      // recv would only confirm EAGAIN. Bytes landing in the gap are
      // caught by the next poll — worth saving a syscall per wakeup on
      // the steady-state path (one small frame per read).
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_peer(fd);  // EOF or hard error
    return total_read;
  }

  // Hello first on accepted connections. Identification is attempted on
  // every read, so an unidentified conn buffers at most 3 bytes across
  // calls — half-open peers cannot grow inbox memory, and the hello
  // deadline (sweep_half_open) bounds how long they hold the fd slot.
  if (conn.peer == kUnknownPeer) {
    if (conn.inbox.size() < 4) return total_read;
    const ReplicaId peer = read_le32(conn.inbox.data());
    conn.inbox.erase(conn.inbox.begin(), conn.inbox.begin() + 4);
    if (peer >= cfg_.peers.size() || fd_of_peer_.count(peer) != 0) {
      close_peer(fd);
      return total_read;
    }
    conn.peer = peer;
    fd_of_peer_[peer] = fd;
    if (spans_on()) conn.outbox.set_span_sink(cfg_.spans.get(), cfg_.id, peer);
  }

  // Extract complete frames.
  std::size_t offset = 0;
  while (conn.inbox.size() - offset >= 4) {
    const std::uint32_t len = read_le32(conn.inbox.data() + offset);
    if (len > kMaxFrame) {
      close_peer(fd);
      return total_read;
    }
    if (conn.inbox.size() - offset - 4 < len) break;
    Bytes payload(conn.inbox.begin() + offset + 4, conn.inbox.begin() + offset + 4 + len);
    offset += 4 + len;
    if (len > 0 && payload[0] == kCtrlTag) {
      // Transport control plane (clock-sync ping/pong): consumed here,
      // never delivered to the replica. Peers only emit these with spans
      // on, but tolerate them regardless — mixed-config clusters must not
      // feed a zero-tag frame into message decode.
      handle_control_frame(conn, payload);
      continue;
    }
    on_frame(conn.peer, std::move(payload));
    // on_frame can close fd via a send failure; revalidate.
    it = conns_.find(fd);
    if (it == conns_.end()) return total_read;
  }
  if (offset > 0) conn.inbox.erase(conn.inbox.begin(), conn.inbox.begin() + offset);
  return total_read;
}

void TcpNode::run_loop() {
  network_ = std::make_unique<TcpNetwork>(*this);
  core::ReplicaContext ctx;
  ctx.sim = &executor_;
  ctx.net = network_.get();
  ctx.crypto = cfg_.crypto;
  ctx.id = cfg_.id;
  ctx.config = cfg_.pcfg;
  ctx.seed = cfg_.seed;
  ctx.wal = cfg_.wal;
  ctx.trace = cfg_.trace;
  ctx.spans = cfg_.spans;
  replica_ = factory_(ctx);
  replica_->ledger().set_commit_callback([this](const smr::Block&, SimTime) {
    committed_.fetch_add(1);
    // Liveness beacon for /healthz and the stall watchdog: wall time of
    // the most recent local commit (relaxed — the reader only compares
    // against "now" with millisecond tolerance).
    last_commit_wall_us_.store(wall_clock_us(), std::memory_order_relaxed);
  });
  if (cfg_.registry != nullptr) {
    // The counters live inside the replica/network owned by this thread;
    // attach is serialized by the registry mutex and each counter read is
    // a relaxed atomic load, so the admin thread can snapshot while the
    // node runs.
    net::register_net_stats(*cfg_.registry, network_->stats());
    core::register_replica_stats(*cfg_.registry, replica_->stats(), cfg_.id);
    cfg_.registry->attach_gauge_fn("repro_committed_blocks",
                                   {{"replica", std::to_string(cfg_.id)}},
                                   [this] { return committed(); });
  }

  // Dial lower-id peers (they accept); higher-id peers dial us. The
  // replica itself starts only once the full mesh is connected (or the
  // grace deadline passes): a proposal multicast before the peer fds
  // exist is silently dropped, and a cluster booting that way pays a
  // whole round timeout plus a cluster-wide fallback before the first
  // commit.
  for (ReplicaId peer = 0; peer < cfg_.id; ++peer) try_connect(peer);
  bool replica_started = false;
  const SimTime start_deadline = executor_.now() + cfg_.start_grace_us;

  std::vector<pollfd> pfds;
  bool fatal = false;
  while (!stop_flag_.load(std::memory_order_relaxed) && !fatal) {
    if (!replica_started &&
        (fd_of_peer_.size() + 1 >= cfg_.peers.size() || executor_.now() >= start_deadline)) {
      replica_started = true;
      replica_->start();
    }
    // Read sweeps: the first poll blocks until the next timer deadline (or
    // input); follow-up passes poll with a zero timeout and only continue
    // while input is still pending. Draining a whole burst before the
    // iteration's single flush is what lets the per-peer send queues
    // coalesce the burst's responses into one writev per peer.
    for (int sweep = 0; sweep < kMaxReadSweeps; ++sweep) {
      pfds.clear();
      pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
      pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
      for (const auto& [fd, conn] : conns_) {
        // A backlogged outbox registers for writability so a draining peer
        // wakes the loop (the flush itself happens once per iteration).
        const short events = conn.outbox.empty() ? POLLIN : POLLIN | POLLOUT;
        pfds.push_back(pollfd{fd, events, 0});
      }

      int timeout_ms = 100;
      SimTime deadline = executor_.next_deadline();
      if (!replica_started) deadline = std::min(deadline, start_deadline);
      if (deadline != kSimTimeNever) {
        const SimTime now = executor_.now();
        timeout_ms = deadline <= now
                         ? 0
                         : static_cast<int>(std::min<SimTime>((deadline - now) / 1000 + 1, 100));
      }
      const int ready = ::poll(pfds.data(), pfds.size(), sweep == 0 ? timeout_ms : 0);
      if (ready < 0) {
        if (errno != EINTR) fatal = true;
        break;
      }
      if (ready == 0) break;  // timer deadline (sweep 0) or burst drained

      if (pfds[0].revents & POLLIN) {
        char drain[16];
        while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
        }
      }
      if (pfds[1].revents & POLLIN) {
        for (;;) {
          const int fd = ::accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;
          std::size_t pending = 0;
          for (const auto& [cfd, conn] : conns_) {
            if (conn.peer == kUnknownPeer) ++pending;
          }
          if (pending >= kMaxPendingHellos) {
            // Accept flood: refuse rather than pin more fds. A legitimate
            // peer re-dials via its reconnect timer.
            ::close(fd);
            continue;
          }
          const int one = 1;
          setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          set_nonblocking(fd);
          Conn conn;
          conn.accepted_at = executor_.now();
          conn.outbox = SendQueue(cfg_.send_queue_max_bytes);
          conns_.emplace(fd, std::move(conn));
        }
      }
      // Collect ready fds first: handle_readable can mutate conns_.
      std::vector<int> readable;
      for (std::size_t i = 2; i < pfds.size(); ++i) {
        if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) readable.push_back(pfds[i].fd);
      }
      std::size_t sweep_bytes = 0;
      for (int fd : readable) sweep_bytes += handle_readable(fd);
      // Each readable socket was drained to EAGAIN above, so another
      // zero-timeout sweep only pays off when data kept arriving while
      // this one was processing — plausible after a heavy sweep, pure
      // syscall overhead after a light one (the steady state: one small
      // proposal or vote per wakeup).
      if (sweep_bytes < 32768) break;
    }
    sweep_half_open();

    // Loopback deliveries (handlers may queue more; drain to empty). They
    // take the same decode-and-verify path as peer frames.
    while (!self_inbox_.empty()) {
      SharedBytes payload = std::move(self_inbox_.front());
      self_inbox_.pop_front();
      if (replica_) replica_->on_message(cfg_.id, *payload);
    }

    executor_.run_due();

    // Health snapshot for the admin thread; clock-sync pings ride the
    // same cadence check (spans only — a spans-off run stays wire- and
    // stats-identical to the seed).
    view_.store(replica_->current_view(), std::memory_order_relaxed);
    round_.store(replica_->current_round(), std::memory_order_relaxed);
    if (spans_on()) send_pings();

    // Everything produced this iteration (frame handlers, loopback
    // deliveries, due timers) is queued by now; one vectored write per
    // peer flushes it.
    flush_writes();
  }
}

void TcpNode::flush_writes() {
  // Snapshot first: a flush failure tears connections out of conns_.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) {
    if (!conn.outbox.empty()) fds.push_back(fd);
  }
  const SimTime now = executor_.now();
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn& conn = it->second;
    switch (conn.outbox.flush(fd, &network_->stats())) {
      case SendQueue::FlushResult::kDrained:
      case SendQueue::FlushResult::kProgress:
        conn.blocked_since = kSimTimeNever;
        break;
      case SendQueue::FlushResult::kBlocked:
        // A peer accepting zero bytes is only torn down once the stall
        // outlives the write budget — same tolerance the old blocking
        // write path gave a full socket buffer.
        if (conn.blocked_since == kSimTimeNever) {
          conn.blocked_since = now;
        } else if (now - conn.blocked_since > write_budget_us()) {
          close_peer(fd);
        }
        break;
      case SendQueue::FlushResult::kError:
        close_peer(fd);
        break;
    }
  }
}

}  // namespace repro::transport
