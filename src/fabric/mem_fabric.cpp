#include "fabric/mem_fabric.hpp"

#include <cassert>
#include <chrono>
#include <cstring>

#include "obs/stall.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace rdmc::fabric {

// ---------------------------------------------------------------------------
// MemEndpoint: per-node event queue + completion thread.
// ---------------------------------------------------------------------------

class MemFabric::MemEndpoint final : public Endpoint {
 public:
  MemEndpoint(MemFabric& fabric, NodeId id) : fabric_(fabric), id_(id) {
    thread_ = std::thread([this] { run(); });
  }

  ~MemEndpoint() override { stop(); }

  NodeId id() const override { return id_; }

  void set_completion_handler(
      std::function<void(const Completion&)> handler) override {
    util::MutexLock lock(handler_mutex_);
    completion_handler_ = std::move(handler);
  }

  void send_oob(NodeId to, std::vector<std::byte> payload) override {
    fabric_.deliver_oob(id_, to, std::move(payload));
  }

  void set_oob_handler(
      std::function<void(NodeId, std::span<const std::byte>)> handler)
      override {
    util::MutexLock lock(handler_mutex_);
    oob_handler_ = std::move(handler);
  }

  void set_completion_mode(CompletionMode mode) override {
    mode_.store(mode, std::memory_order_relaxed);
  }
  CompletionMode completion_mode() const override {
    return mode_.load(std::memory_order_relaxed);
  }

  void register_window(std::uint32_t window_id, MemoryView region) override {
    util::MutexLock lock(window_mutex_);
    windows_[window_id] = region;
  }

  void unregister_window(std::uint32_t window_id) override {
    // The lock fences in-flight apply_window_write calls.
    util::MutexLock lock(window_mutex_);
    windows_.erase(window_id);
  }

  /// Apply a one-sided write under the window lock (fenced against
  /// unregister_window). Writes to unknown windows are dropped like DMA
  /// after deregistration; out-of-bounds writes are connection errors.
  MemFabric::WindowApply apply_window_write(std::uint32_t window_id,
                                            std::uint64_t offset,
                                            MemoryView src) {
    util::MutexLock lock(window_mutex_);
    auto it = windows_.find(window_id);
    if (it == windows_.end()) return MemFabric::WindowApply::kUnknown;
    const MemoryView window = it->second;
    if (window.size < src.size || offset > window.size - src.size)
      return MemFabric::WindowApply::kOutOfBounds;
    if (window.data != nullptr && src.data != nullptr && src.size > 0)
      std::memcpy(window.data + offset, src.data, src.size);
    return MemFabric::WindowApply::kOk;
  }

  void push(NodeEvent event) {
    {
      util::MutexLock lock(queue_mutex_);
      queue_.push_back(std::move(event));
    }
    cv_.notify_one();
  }

  void stop() {
    {
      util::MutexLock lock(queue_mutex_);
      if (stopping_) return;
      stopping_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  /// True when nothing is queued and the thread is parked in a wait.
  bool quiescent() {
    util::MutexLock lock(queue_mutex_);
    return queue_.empty() && !handling_;
  }

 private:
  void run() {
    util::MutexLock lock(queue_mutex_);
    while (true) {
      // Hybrid mode in the real system polls for 50 ms after each event
      // before arming interrupts (§4.2); in-process the distinction is a
      // spin-vs-wait choice with identical semantics.
      while (!(stopping_ || !queue_.empty())) cv_.wait(lock);
      if (stopping_ && queue_.empty()) return;
      while (!queue_.empty()) {
        NodeEvent event = std::move(queue_.front());
        queue_.pop_front();
        handling_ = true;
        lock.unlock();
        slow_dispatch_delay();
        dispatch(event);
        lock.lock();
        handling_ = false;
      }
      cv_.notify_all();  // wake drain() waiters
    }
  }

  /// Slow-receiver injection (FaultInjector::slow_node): delay each
  /// completion dispatch while the real-time window is open.
  void slow_dispatch_delay() {
    const auto until = slow_until_.load(std::memory_order_relaxed);
    if (until == 0) return;
    const auto now =
        std::chrono::steady_clock::now().time_since_epoch().count();
    if (now >= until) {
      slow_until_.store(0, std::memory_order_relaxed);
      return;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        slow_delay_ns_.load(std::memory_order_relaxed)));
  }

  void set_slow(std::int64_t delay_ns, std::int64_t until_epoch_ns) {
    slow_delay_ns_.store(delay_ns, std::memory_order_relaxed);
    slow_until_.store(until_epoch_ns, std::memory_order_relaxed);
  }

  void dispatch(const NodeEvent& event) {
    // Invoke under handler_mutex_: once set_completion_handler(nullptr)
    // returns, no stale handler can still be mid-flight — the detach
    // guarantee rdmc::Node's destructor relies on.
    util::MutexLock lock(handler_mutex_);
    // The fabric.hpp single-dispatch contract: at most one handler
    // invocation per node at a time, even while fault injection races
    // with posts.
    assert(!in_dispatch_.exchange(true, std::memory_order_relaxed));
    if (const auto* c = std::get_if<Completion>(&event)) {
      if (completion_handler_) completion_handler_(*c);
    } else {
      const auto& msg = std::get<OobMsg>(event);
      if (oob_handler_)
        oob_handler_(msg.from, std::span<const std::byte>(msg.payload));
    }
    in_dispatch_.store(false, std::memory_order_relaxed);
  }

  MemFabric& fabric_;
  NodeId id_;
  util::Mutex window_mutex_;
  std::map<std::uint32_t, MemoryView> windows_ RDMC_GUARDED_BY(window_mutex_);
  util::Mutex handler_mutex_;
  std::function<void(const Completion&)> completion_handler_
      RDMC_GUARDED_BY(handler_mutex_);
  std::function<void(NodeId, std::span<const std::byte>)> oob_handler_
      RDMC_GUARDED_BY(handler_mutex_);
  std::atomic<CompletionMode> mode_{CompletionMode::kHybrid};
  std::atomic<bool> in_dispatch_{false};

  util::Mutex queue_mutex_;
  util::CondVar cv_;
  std::deque<NodeEvent> queue_ RDMC_GUARDED_BY(queue_mutex_);
  bool stopping_ RDMC_GUARDED_BY(queue_mutex_) = false;
  bool handling_ RDMC_GUARDED_BY(queue_mutex_) = false;
  std::atomic<std::int64_t> slow_delay_ns_{0};
  std::atomic<std::int64_t> slow_until_{0};  // steady_clock epoch ns; 0=off
  std::thread thread_;

  friend class MemFabric;
};

// ---------------------------------------------------------------------------
// Connection / MemQueuePair: a bound RC connection between two nodes.
// ---------------------------------------------------------------------------

class MemFabric::MemQueuePair final : public QueuePair {
 public:
  MemQueuePair(QpId id, NodeId self, NodeId peer, Connection& conn)
      : QueuePair(id, peer), self_(self), conn_(conn) {}

  PostResult post_send(MemoryView buf, std::uint64_t wr_id,
                       std::uint32_t immediate) override;
  PostResult post_recv(MemoryView buf, std::uint64_t wr_id) override;
  PostResult post_write_imm(std::uint32_t immediate,
                            std::uint64_t wr_id) override;
  PostResult post_window_write(std::uint32_t window_id, std::uint64_t offset,
                               MemoryView local, std::uint32_t immediate,
                               std::uint64_t wr_id, bool signaled) override;
  PostResult post_send_ud(MemoryView buf, std::uint64_t wr_id,
                          std::uint32_t immediate) override;
  PostResult post_recv_ud(MemoryView buf, std::uint64_t wr_id) override;
  void close() override;

  NodeId self_;
  Connection& conn_;
  /// Guarded by conn_.mutex (Connection is incomplete here, so the
  /// attribute cannot name it; every access is inside a REQUIRES(mutex)
  /// Connection method or under a MutexLock on conn_.mutex).
  bool closed_ = false;
};

struct MemFabric::Connection {
  struct PendingSend {
    MemoryView buf;
    std::uint64_t wr_id;
    std::uint32_t immediate;
    bool is_window_write = false;
    bool signaled = true;
    std::uint32_t window_id = 0;
    std::uint64_t window_offset = 0;
  };
  struct PostedRecv {
    MemoryView buf;
    std::uint64_t wr_id;
  };
  /// One direction of the connection: sends from `src` matched against
  /// receives posted by `dst`. UD receives are a separate queue — a
  /// datagram never consumes an RC recv (fabric.hpp contract).
  struct Direction {
    std::deque<PendingSend> sends;
    std::deque<PostedRecv> recvs;
    std::deque<PostedRecv> ud_recvs;
  };
  /// Both directions' queues. An empty deque still holds heap memory, so
  /// they are allocated on first use and freed once both sides are closed
  /// (a closed QP never queues work again).
  struct Queues {
    Direction a_to_b;
    Direction b_to_a;
  };

  Connection(MemFabric& fabric, QpId qp_a, QpId qp_b, NodeId a, NodeId b)
      : fabric(fabric),
        side_a(qp_a, a, b, *this),
        side_b(qp_b, b, a, *this) {}

  MemQueuePair* side_for(NodeId node) {
    return node == side_a.self_ ? &side_a : &side_b;
  }
  Direction& direction_from(NodeId node) RDMC_REQUIRES(mutex) {
    if (!queues) queues = std::make_unique<Queues>();
    return node == side_a.self_ ? queues->a_to_b : queues->b_to_a;
  }

  /// Free the queues once neither side can post again.
  void release_if_closed() RDMC_REQUIRES(mutex) {
    if (side_a.closed_ && side_b.closed_) queues.reset();
  }

  /// Match queued sends in `dir` (from `src`) against receives posted by
  /// the other side; copy bytes and emit completions. Call with lock held.
  void try_match(NodeId src, Direction& dir) RDMC_REQUIRES(mutex) {
    MemQueuePair* sender_qp = side_for(src);
    MemQueuePair* receiver_qp = side_for(sender_qp->peer());
    if (receiver_qp->closed_) {
      // Peer side destroyed: discard arriving traffic (sends "succeed" —
      // the bytes are gone, as after a remote destroy-QP during teardown).
      while (!dir.sends.empty()) {
        const PendingSend send = std::move(dir.sends.front());
        dir.sends.pop_front();
        if (!send.is_window_write || send.signaled) {
          fabric.deliver(sender_qp->self_,
                         Completion{send.wr_id,
                                    send.is_window_write
                                        ? WcOpcode::kWindowWrite
                                        : WcOpcode::kSend,
                                    WcStatus::kSuccess,
                                    static_cast<std::uint32_t>(
                                        send.buf.size),
                                    send.immediate, sender_qp->id(),
                                    sender_qp->peer()});
        }
      }
      return;
    }
    // Window writes at the queue head need no posted receive, but stay
    // FIFO-ordered behind earlier two-sided sends.
    while (!dir.sends.empty() &&
           (dir.sends.front().is_window_write || !dir.recvs.empty())) {
      PendingSend send = std::move(dir.sends.front());
      dir.sends.pop_front();
      if (send.is_window_write) {
        if (!execute_window_write(sender_qp, receiver_qp, send)) return;
        continue;
      }
      PostedRecv recv = std::move(dir.recvs.front());
      dir.recvs.pop_front();

      if (auto* tr = obs::tracer())
        tr->end(obs::Cat::kFabric, "xfer", sender_qp->self_,
                obs::xfer_span_id(sender_qp->id(), send.wr_id),
                obs::wall_seconds(), "qp,wr", sender_qp->id(), send.wr_id);
      Completion send_c{send.wr_id, WcOpcode::kSend, WcStatus::kSuccess,
                        static_cast<std::uint32_t>(send.buf.size),
                        send.immediate, sender_qp->id(), sender_qp->peer()};
      Completion recv_c{recv.wr_id, WcOpcode::kRecv, WcStatus::kSuccess,
                        static_cast<std::uint32_t>(send.buf.size),
                        send.immediate, receiver_qp->id(),
                        receiver_qp->peer()};
      if (send.buf.size > recv.buf.size) {
        // RC semantics: a receive buffer too small is a fatal QP error.
        RDMC_LOG_ERROR("memfabric",
                       "recv buffer too small (%zu < %zu), breaking QP",
                       recv.buf.size, send.buf.size);
        send_c.status = recv_c.status = WcStatus::kError;
        broken = true;
      } else if (send.buf.data != nullptr && recv.buf.data != nullptr &&
                 send.buf.size > 0) {
        std::memcpy(recv.buf.data, send.buf.data, send.buf.size);
      }
      fabric.deliver(sender_qp->self_, send_c);
      fabric.deliver(receiver_qp->self_, recv_c);
      if (broken) {
        flush_locked();
        return;
      }
    }
  }

  /// Place a one-sided window write at the target; call with lock held.
  /// Returns false after breaking the connection on an access error.
  bool execute_window_write(MemQueuePair* sender_qp,
                            MemQueuePair* receiver_qp,
                            const PendingSend& send) RDMC_REQUIRES(mutex) {
    if (auto* tr = obs::tracer())
      tr->end(obs::Cat::kFabric, "xferw", sender_qp->self_,
              obs::xfer_span_id(sender_qp->id(), send.wr_id),
              obs::wall_seconds(), "qp,wr", sender_qp->id(), send.wr_id);
    const auto result = fabric.apply_endpoint_window_write(
        receiver_qp->self_, send.window_id, send.window_offset, send.buf);
    if (result == MemFabric::WindowApply::kOutOfBounds) {
      RDMC_LOG_ERROR("memfabric",
                     "window write out of bounds (win %u, off %llu, len "
                     "%zu), breaking QP",
                     send.window_id,
                     static_cast<unsigned long long>(send.window_offset),
                     send.buf.size);
      flush_locked();
      return false;
    }
    if (result == MemFabric::WindowApply::kUnknown) {
      // Deregistered mid-flight: the payload is dropped, like DMA after
      // deregistration; the issuer still sees its completion.
      if (send.signaled) {
        fabric.deliver(sender_qp->self_,
                       Completion{send.wr_id, WcOpcode::kWindowWrite,
                                  WcStatus::kSuccess,
                                  static_cast<std::uint32_t>(send.buf.size),
                                  send.immediate, sender_qp->id(),
                                  sender_qp->peer()});
      }
      return true;
    }
    if (send.signaled) {
      fabric.deliver(sender_qp->self_,
                     Completion{send.wr_id, WcOpcode::kWindowWrite,
                                WcStatus::kSuccess,
                                static_cast<std::uint32_t>(send.buf.size),
                                send.immediate, sender_qp->id(),
                                sender_qp->peer()});
    }
    fabric.deliver(receiver_qp->self_,
                   Completion{send.window_offset, WcOpcode::kRecvWindowWrite,
                              WcStatus::kSuccess,
                              static_cast<std::uint32_t>(send.buf.size),
                              send.immediate, receiver_qp->id(),
                              receiver_qp->peer()});
    return true;
  }

  /// Place one surviving datagram into the receiver's oldest posted UD
  /// recv; a missing or too-small recv discards the datagram (counted),
  /// never an error. Call with lock held.
  void deliver_ud_locked(NodeId src, const UdDelivery& d)
      RDMC_REQUIRES(mutex) {
    MemQueuePair* sender_qp = side_for(src);
    MemQueuePair* receiver_qp = side_for(sender_qp->peer());
    DatagramEngine& engine = fabric.datagrams();
    if (receiver_qp->closed_) {
      engine.count_no_recv();
      return;
    }
    Direction& dir = direction_from(src);
    if (dir.ud_recvs.empty() || dir.ud_recvs.front().buf.size < d.view.size) {
      engine.count_no_recv();
      return;
    }
    PostedRecv recv = std::move(dir.ud_recvs.front());
    dir.ud_recvs.pop_front();
    if (recv.buf.data != nullptr && d.view.data != nullptr &&
        d.view.size > 0)
      std::memcpy(recv.buf.data, d.view.data, d.view.size);
    engine.count_delivered();
    fabric.deliver(receiver_qp->self_,
                   Completion{recv.wr_id, WcOpcode::kRecvUd,
                              WcStatus::kSuccess,
                              static_cast<std::uint32_t>(d.view.size),
                              d.immediate, receiver_qp->id(),
                              receiver_qp->peer()});
  }

  /// Flush all posted work with kFlushed and notify both sides of the
  /// break. Locally closed QPs receive nothing — close() fences. Call with
  /// lock held.
  void flush_locked() RDMC_REQUIRES(mutex) {
    broken = true;
    side_a.mark_broken();
    side_b.mark_broken();
    auto flush_dir = [&](Direction& dir, NodeId src) {
      MemQueuePair* sqp = side_for(src);
      MemQueuePair* rqp = side_for(sqp->peer());
      if (!sqp->closed_) {
        for (auto& s : dir.sends) {
          fabric.deliver(sqp->self_,
                         Completion{s.wr_id, WcOpcode::kSend,
                                    WcStatus::kFlushed, 0, 0, sqp->id(),
                                    sqp->peer()});
        }
      }
      dir.sends.clear();
      if (!rqp->closed_) {
        for (auto& r : dir.recvs) {
          fabric.deliver(rqp->self_,
                         Completion{r.wr_id, WcOpcode::kRecv,
                                    WcStatus::kFlushed, 0, 0, rqp->id(),
                                    rqp->peer()});
        }
      }
      dir.recvs.clear();
      if (!rqp->closed_) {
        for (auto& r : dir.ud_recvs) {
          fabric.deliver(rqp->self_,
                         Completion{r.wr_id, WcOpcode::kRecvUd,
                                    WcStatus::kFlushed, 0, 0, rqp->id(),
                                    rqp->peer()});
        }
      }
      dir.ud_recvs.clear();
    };
    if (queues) {
      flush_dir(queues->a_to_b, side_a.self_);
      flush_dir(queues->b_to_a, side_b.self_);
    }
    for (MemQueuePair* side : {&side_a, &side_b}) {
      if (side->closed_) continue;
      fabric.deliver(side->self_,
                     Completion{0, WcOpcode::kDisconnect, WcStatus::kError,
                                0, 0, side->id(), side->peer()});
    }
  }

  MemFabric& fabric;
  util::Mutex mutex;
  MemQueuePair side_a;
  MemQueuePair side_b;
  std::unique_ptr<Queues> queues RDMC_GUARDED_BY(mutex);
  bool broken RDMC_GUARDED_BY(mutex) = false;
};

PostResult MemFabric::MemQueuePair::post_send(MemoryView buf,
                                              std::uint64_t wr_id,
                                              std::uint32_t immediate) {
  util::MutexLock lock(conn_.mutex);
  if (conn_.broken || broken()) return PostResult::kQpBroken;
  if (buf.data && buf.size > 0xFFFFFFFFu) return PostResult::kBadArgs;
  if (auto* tr = obs::tracer())
    tr->begin(obs::Cat::kFabric, "xfer", self_,
              obs::xfer_span_id(id_, wr_id), obs::wall_seconds(),
              "dst,bytes,qp,wr", peer_, buf.size, id_, wr_id);
  auto& dir = conn_.direction_from(self_);
  dir.sends.push_back({buf, wr_id, immediate});
  conn_.try_match(self_, dir);
  return PostResult::kOk;
}

PostResult MemFabric::MemQueuePair::post_recv(MemoryView buf,
                                              std::uint64_t wr_id) {
  util::MutexLock lock(conn_.mutex);
  if (conn_.broken || broken()) return PostResult::kQpBroken;
  if (buf.data && buf.size > 0xFFFFFFFFu) return PostResult::kBadArgs;
  auto& dir = conn_.direction_from(peer_);
  dir.recvs.push_back({buf, wr_id});
  conn_.try_match(peer_, dir);
  return PostResult::kOk;
}

PostResult MemFabric::MemQueuePair::post_write_imm(std::uint32_t immediate,
                                                   std::uint64_t wr_id) {
  util::MutexLock lock(conn_.mutex);
  if (conn_.broken || broken()) return PostResult::kQpBroken;
  conn_.fabric.deliver(self_,
                       Completion{wr_id, WcOpcode::kWriteImm,
                                  WcStatus::kSuccess, 0, immediate, id_,
                                  peer_});
  MemQueuePair* other = conn_.side_for(peer_);
  conn_.fabric.deliver(peer_,
                       Completion{0, WcOpcode::kRecvWriteImm,
                                  WcStatus::kSuccess, 0, immediate,
                                  other->id(), other->peer()});
  return PostResult::kOk;
}

PostResult MemFabric::MemQueuePair::post_send_ud(MemoryView buf,
                                                 std::uint64_t wr_id,
                                                 std::uint32_t immediate) {
  util::MutexLock lock(conn_.mutex);
  if (conn_.broken || broken()) return PostResult::kQpBroken;
  if (buf.data && buf.size > 0xFFFFFFFFu) return PostResult::kBadArgs;
  const auto deliveries =
      conn_.fabric.datagrams().on_send(self_, peer_, buf, immediate);
  // Fire-and-forget: the sender completes as soon as the NIC is done with
  // the buffer, whatever the fault profile decided.
  conn_.fabric.deliver(self_,
                       Completion{wr_id, WcOpcode::kSendUd,
                                  WcStatus::kSuccess,
                                  static_cast<std::uint32_t>(buf.size),
                                  immediate, id_, peer_});
  for (const auto& d : deliveries) conn_.deliver_ud_locked(self_, d);
  return PostResult::kOk;
}

PostResult MemFabric::MemQueuePair::post_recv_ud(MemoryView buf,
                                                 std::uint64_t wr_id) {
  util::MutexLock lock(conn_.mutex);
  if (conn_.broken || broken()) return PostResult::kQpBroken;
  if (buf.data && buf.size > 0xFFFFFFFFu) return PostResult::kBadArgs;
  conn_.direction_from(peer_).ud_recvs.push_back({buf, wr_id});
  return PostResult::kOk;
}

void MemFabric::MemQueuePair::close() {
  util::MutexLock lock(conn_.mutex);
  closed_ = true;
  mark_broken();
  // Revoke our posted receives (they point at memory about to be freed)
  // and discard anything already queued toward us.
  if (conn_.queues) {
    auto& incoming = conn_.direction_from(peer_);
    incoming.recvs.clear();
    incoming.ud_recvs.clear();
    conn_.try_match(peer_, incoming);
  }
  conn_.release_if_closed();
}

PostResult MemFabric::MemQueuePair::post_window_write(
    std::uint32_t window_id, std::uint64_t offset, MemoryView local,
    std::uint32_t immediate, std::uint64_t wr_id, bool signaled) {
  util::MutexLock lock(conn_.mutex);
  if (conn_.broken || broken()) return PostResult::kQpBroken;
  if (local.data && local.size > 0xFFFFFFFFu) return PostResult::kBadArgs;
  if (local.size > 0 && offset > ~std::uint64_t{0} - local.size)
    return PostResult::kWindowViolation;
  if (auto* tr = obs::tracer())
    tr->begin(obs::Cat::kFabric, "xferw", self_,
              obs::xfer_span_id(id_, wr_id), obs::wall_seconds(),
              "dst,bytes,qp,wr", peer_, local.size, id_, wr_id);
  auto& dir = conn_.direction_from(self_);
  Connection::PendingSend send;
  send.buf = local;
  send.wr_id = wr_id;
  send.immediate = immediate;
  send.is_window_write = true;
  send.signaled = signaled;
  send.window_id = window_id;
  send.window_offset = offset;
  dir.sends.push_back(send);
  conn_.try_match(self_, dir);
  return PostResult::kOk;
}

// ---------------------------------------------------------------------------
// MemFabric
// ---------------------------------------------------------------------------

MemFabric::MemFabric(std::size_t num_nodes) {
  endpoints_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    endpoints_.push_back(
        std::make_unique<MemEndpoint>(*this, static_cast<NodeId>(i)));
  }
}

MemFabric::~MemFabric() { stop(); }

void MemFabric::stop() {
  for (auto& ep : endpoints_) ep->stop();
}

void MemFabric::drain() {
  // Quiescence: every queue empty and no handler mid-flight, observed
  // twice in a row (a handler can enqueue to another node between checks).
  for (int settled = 0; settled < 3;) {
    bool all_idle = true;
    for (auto& ep : endpoints_) {
      if (!ep->quiescent()) {
        all_idle = false;
        break;
      }
    }
    if (all_idle) {
      ++settled;
    } else {
      settled = 0;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

std::pair<std::size_t, bool> MemFabric::queue_state(NodeId node) {
  MemEndpoint& ep = *endpoints_[node];
  util::MutexLock lock(ep.queue_mutex_);
  return {ep.queue_.size(), ep.handling_};
}

Endpoint& MemFabric::endpoint(NodeId node) {
  assert(node < endpoints_.size());
  return *endpoints_[node];
}

QueuePair* MemFabric::connect(NodeId a, NodeId b, std::uint32_t channel) {
  assert(a < endpoints_.size() && b < endpoints_.size() && a != b);
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  util::MutexLock lock(connections_mutex_);
  auto key = std::make_tuple(lo, hi, channel);
  auto it = connections_.find(key);
  if (it == connections_.end()) {
    auto conn = std::make_unique<Connection>(*this, next_qp_id_,
                                             next_qp_id_ + 1, lo, hi);
    next_qp_id_ += 2;
    it = connections_.emplace(key, std::move(conn)).first;
  }
  Connection* conn = it->second.get();
  const bool dead_peer = crashed_.contains(lo) || crashed_.contains(hi);
  if (dead_peer) {
    // Born-broken rather than a silent hang (see FaultInjector contract).
    util::MutexLock conn_lock(conn->mutex);
    if (!conn->broken) conn->flush_locked();
  }
  return conn->side_for(a);
}

void MemFabric::break_link(NodeId a, NodeId b) {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  std::vector<Connection*> affected;
  {
    util::MutexLock lock(connections_mutex_);
    for (auto& [key, conn] : connections_) {
      if (std::get<0>(key) == lo && std::get<1>(key) == hi)
        affected.push_back(conn.get());
    }
  }
  for (auto* conn : affected) {
    util::MutexLock lock(conn->mutex);
    if (!conn->broken) conn->flush_locked();
  }
}

void MemFabric::crash_node(NodeId node) {
  std::vector<Connection*> affected;
  {
    util::MutexLock lock(connections_mutex_);
    crashed_.insert(node);
    for (auto& [key, conn] : connections_) {
      if (std::get<0>(key) == node || std::get<1>(key) == node)
        affected.push_back(conn.get());
    }
  }
  for (auto* conn : affected) {
    util::MutexLock lock(conn->mutex);
    if (!conn->broken) conn->flush_locked();
  }
}

bool MemFabric::degrade_link(NodeId, NodeId, double, double) {
  // MemFabric moves real bytes with no modelled capacity; accepted and
  // ignored per the FaultInjector contract.
  return false;
}

bool MemFabric::slow_node(NodeId node, double factor, double duration_s) {
  if (node >= endpoints_.size() || factor <= 1.0 || duration_s <= 0.0)
    return false;
  // Real-time approximation of a slow receiver: (factor - 1) x a nominal
  // 10 us handler cost, injected before each dispatch while the window is
  // open.
  const auto delay_ns = static_cast<std::int64_t>((factor - 1.0) * 10e3);
  const auto until = (std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(duration_s)))
                         .time_since_epoch()
                         .count();
  endpoints_[node]->set_slow(delay_ns, until);
  return true;
}

bool MemFabric::crashed(NodeId node) const {
  util::MutexLock lock(connections_mutex_);
  return crashed_.contains(node);
}

MemFabric::WindowApply MemFabric::apply_endpoint_window_write(
    NodeId node, std::uint32_t window_id, std::uint64_t offset,
    MemoryView src) {
  return endpoints_[node]->apply_window_write(window_id, offset, src);
}

void MemFabric::deliver(NodeId node, NodeEvent event) {
  assert(node < endpoints_.size());
  endpoints_[node]->push(std::move(event));
}

void MemFabric::deliver_oob(NodeId from, NodeId to,
                            std::vector<std::byte> payload) {
  assert(to < endpoints_.size());
  {
    util::MutexLock lock(connections_mutex_);
    // A crashed node can neither send nor receive on the control mesh.
    if (crashed_.contains(from) || crashed_.contains(to)) return;
  }
  endpoints_[to]->push(OobMsg{from, std::move(payload)});
}

}  // namespace rdmc::fabric
