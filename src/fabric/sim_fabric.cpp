#include "fabric/sim_fabric.hpp"

#include <cassert>
#include <cstring>
#include <map>

#include "obs/stall.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace rdmc::fabric {

// ---------------------------------------------------------------------------
// Per-node state: the virtual CPU.
// ---------------------------------------------------------------------------

struct SimFabric::NodeState {
  /// Virtual time at which the node's software thread becomes free.
  sim::SimTime cpu_free = 0.0;
  /// Accumulated busy seconds (handler execution + posting costs).
  double busy = 0.0;
  /// Accumulated completion-pickup + queueing wait (Table 1 "Waiting").
  double wait = 0.0;
  /// Last instant a completion handler finished (hybrid window anchor).
  sim::SimTime last_event = -1e18;
  /// Slow-receiver injection: software costs scale by this (product of
  /// active slow_node windows; 1.0 when healthy).
  double software_factor = 1.0;
  /// UD wire cursors: datagrams bypass the max-min flow network (they are
  /// fire-and-forget packets, not long-lived flows) and instead serialise
  /// store-and-forward through the sender's tx port and the receiver's rx
  /// port. These record when each port next frees up.
  sim::SimTime ud_tx_free = 0.0;
  sim::SimTime ud_rx_free = 0.0;
  util::Rng rng;
};

// ---------------------------------------------------------------------------
// SimEndpoint
// ---------------------------------------------------------------------------

class SimFabric::SimEndpoint final : public Endpoint {
 public:
  SimEndpoint(SimFabric& fabric, NodeId id, CompletionMode mode)
      : fabric_(fabric), id_(id), mode_(mode) {}

  NodeId id() const override { return id_; }

  void set_completion_handler(
      std::function<void(const Completion&)> handler) override {
    completion_handler_ = std::move(handler);
  }

  void send_oob(NodeId to, std::vector<std::byte> payload) override {
    fabric_.deliver_oob(to, id_, std::move(payload));
  }

  void set_oob_handler(
      std::function<void(NodeId, std::span<const std::byte>)> handler)
      override {
    oob_handler_ = std::move(handler);
  }

  void set_completion_mode(CompletionMode mode) override { mode_ = mode; }
  CompletionMode completion_mode() const override { return mode_; }

  void register_window(std::uint32_t window_id, MemoryView region) override {
    windows_[window_id] = region;
  }
  void unregister_window(std::uint32_t window_id) override {
    windows_.erase(window_id);
  }
  MemoryView window(std::uint32_t window_id) const {
    auto it = windows_.find(window_id);
    return it == windows_.end() ? MemoryView{} : it->second;
  }

  SimFabric& fabric_;
  NodeId id_;
  CompletionMode mode_;
  std::map<std::uint32_t, MemoryView> windows_;
  std::function<void(const Completion&)> completion_handler_;
  std::function<void(NodeId, std::span<const std::byte>)> oob_handler_;
};

// ---------------------------------------------------------------------------
// Connection / SimQueuePair
// ---------------------------------------------------------------------------

class SimFabric::SimQueuePair final : public QueuePair {
 public:
  SimQueuePair(QpId id, NodeId self, NodeId peer, Connection& conn)
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
  bool closed_ = false;
};

struct SimFabric::Connection {
  struct PendingSend {
    MemoryView buf;
    std::uint64_t wr_id;
    std::uint32_t immediate;
    sim::SimTime posted_at;  // virtual time the post takes effect
    bool is_window_write = false;
    bool signaled = true;
    std::uint32_t window_id = 0;
    std::uint64_t window_offset = 0;
  };
  struct PostedRecv {
    MemoryView buf;
    std::uint64_t wr_id;
  };
  struct Direction {
    std::deque<PendingSend> sends;
    std::deque<PostedRecv> recvs;
    /// UD receives are a separate FIFO from RC receives (distinct service
    /// type); a datagram arriving with this empty is dropped, never parked.
    std::deque<PostedRecv> ud_recvs;
    bool in_flight = false;  // RC FIFO: one flow at a time per direction
    sim::FlowId flow = sim::kInvalidFlow;
  };

  Connection(SimFabric& fabric, QpId qp_a, QpId qp_b, NodeId a, NodeId b)
      : fabric(fabric),
        side_a(qp_a, a, b, *this),
        side_b(qp_b, b, a, *this) {}

  SimQueuePair* side_for(NodeId node) {
    return node == side_a.self_ ? &side_a : &side_b;
  }
  /// The direction `node` sends on, allocated on first use.
  Direction& direction_from(NodeId node) {
    std::unique_ptr<Direction>& dir = node == side_a.self_ ? a_to_b : b_to_a;
    if (!dir) dir = std::make_unique<Direction>();
    return *dir;
  }
  /// The same direction, or null while nothing was ever posted on it.
  Direction* find_direction(NodeId node) {
    return (node == side_a.self_ ? a_to_b : b_to_a).get();
  }

  /// Start the next flow on `dir` if the head send is posted, a receive is
  /// available at the target, and nothing is in flight.
  void maybe_start(NodeId src, Direction& dir);
  void on_flow_done(NodeId src, sim::SimTime t);
  /// A datagram's last byte reached the receiver's NIC at virtual time `t`;
  /// match it against the UD receive FIFO or drop it.
  void deliver_ud(NodeId src, std::vector<std::byte> payload, bool phantom,
                  std::size_t bytes, std::uint32_t immediate,
                  std::uint64_t span, sim::SimTime t);
  void flush(sim::SimTime when_hint);

  SimFabric& fabric;
  SimQueuePair side_a;
  SimQueuePair side_b;
  /// Allocated on first post: an empty std::deque already holds a map and
  /// a 512 B node, and many of the connections a group opens to neighbours
  /// it might use carry nothing in one direction or in both.
  std::unique_ptr<Direction> a_to_b;
  std::unique_ptr<Direction> b_to_a;
  bool broken = false;
};

void SimFabric::Connection::maybe_start(NodeId src, Direction& dir) {
  if (broken || dir.in_flight || dir.sends.empty()) return;
  // Window writes need no posted receive; two-sided sends do.
  if (!dir.sends.front().is_window_write && dir.recvs.empty()) return;
  PendingSend& send = dir.sends.front();
  dir.in_flight = true;
  auto& sim = fabric.sim_;
  const sim::SimTime start = std::max(sim.now(), send.posted_at);
  const double bytes = static_cast<double>(send.buf.size);
  sim.at(start, [this, src, &dir, bytes] {
    if (broken || !dir.in_flight) return;
    if (auto* tr = obs::tracer()) {
      const PendingSend& s = dir.sends.front();
      const QpId qp = side_for(src)->id();
      tr->begin(obs::Cat::kFabric, s.is_window_write ? "xferw" : "xfer",
                src, obs::xfer_span_id(qp, s.wr_id), fabric.sim_.now(),
                "dst,bytes,qp,wr", side_for(src)->peer(), s.buf.size, qp,
                s.wr_id);
    }
    dir.flow = fabric.flows_.start_flow(
        src, side_for(src)->peer(), bytes,
        [this, src](sim::SimTime t) { on_flow_done(src, t); });
  });
}

void SimFabric::Connection::on_flow_done(NodeId src, sim::SimTime t) {
  auto& dir = direction_from(src);
  dir.flow = sim::kInvalidFlow;
  if (broken) return;
  assert(dir.in_flight && !dir.sends.empty());
  if (auto* tr = obs::tracer()) {
    const PendingSend& s = dir.sends.front();
    const QpId qp = side_for(src)->id();
    tr->end(obs::Cat::kFabric, s.is_window_write ? "xferw" : "xfer", src,
            obs::xfer_span_id(qp, s.wr_id), t, "qp,wr", qp, s.wr_id);
  }
  SimQueuePair* sqp = side_for(src);
  SimQueuePair* rqp = side_for(sqp->peer());

  if (rqp->closed_) {
    // Receiver side destroyed mid-flight: the bytes are discarded.
    const PendingSend send = std::move(dir.sends.front());
    dir.sends.pop_front();
    dir.in_flight = false;
    if (!send.is_window_write || send.signaled) {
      fabric.deliver_completion(
          sqp->self_,
          Completion{send.wr_id,
                     send.is_window_write ? WcOpcode::kWindowWrite
                                          : WcOpcode::kSend,
                     WcStatus::kSuccess,
                     static_cast<std::uint32_t>(send.buf.size),
                     send.immediate, sqp->id(), sqp->peer()},
          t);
    }
    maybe_start(src, dir);
    return;
  }

  if (dir.sends.front().is_window_write) {
    const PendingSend send = std::move(dir.sends.front());
    dir.sends.pop_front();
    dir.in_flight = false;
    const MemoryView window =
        fabric.endpoints_[rqp->self_]->window(send.window_id);
    if (window.size == 0 && window.data == nullptr) {
      // Deregistered mid-flight: dropped, like DMA after deregistration.
    } else if (window.size < send.buf.size ||
               send.window_offset > window.size - send.buf.size) {
      RDMC_LOG_ERROR("simfabric",
                     "window write out of bounds, breaking QP");
      flush(t);
      return;
    } else if (send.buf.data && window.data && send.buf.size > 0) {
      std::memcpy(window.data + send.window_offset, send.buf.data,
                  send.buf.size);
    }
    if (send.signaled) {
      fabric.deliver_completion(
          sqp->self_,
          Completion{send.wr_id, WcOpcode::kWindowWrite, WcStatus::kSuccess,
                     static_cast<std::uint32_t>(send.buf.size),
                     send.immediate, sqp->id(), sqp->peer()},
          t);
    }
    fabric.deliver_completion(
        rqp->self_,
        Completion{send.window_offset, WcOpcode::kRecvWindowWrite,
                   WcStatus::kSuccess,
                   static_cast<std::uint32_t>(send.buf.size),
                   send.immediate, rqp->id(), rqp->peer()},
        t + fabric.topology_.latency(sqp->self_, rqp->self_));
    maybe_start(src, dir);
    return;
  }

  assert(!dir.recvs.empty());
  PendingSend send = std::move(dir.sends.front());
  dir.sends.pop_front();
  PostedRecv recv = std::move(dir.recvs.front());
  dir.recvs.pop_front();
  dir.in_flight = false;

  Completion send_c{send.wr_id, WcOpcode::kSend, WcStatus::kSuccess,
                    static_cast<std::uint32_t>(send.buf.size),
                    send.immediate, sqp->id(), sqp->peer()};
  Completion recv_c{recv.wr_id, WcOpcode::kRecv, WcStatus::kSuccess,
                    static_cast<std::uint32_t>(send.buf.size),
                    send.immediate, rqp->id(), rqp->peer()};
  if (send.buf.size > recv.buf.size) {
    RDMC_LOG_ERROR("simfabric",
                   "recv buffer too small (%zu < %zu), breaking QP",
                   recv.buf.size, send.buf.size);
    broken = true;
    send_c.status = recv_c.status = WcStatus::kError;
  } else if (send.buf.data && recv.buf.data && send.buf.size > 0) {
    std::memcpy(recv.buf.data, send.buf.data, send.buf.size);
  }
  // Sender sees its completion when the last byte leaves; the receiver
  // after propagation.
  fabric.deliver_completion(sqp->self_, send_c, t);
  fabric.deliver_completion(
      rqp->self_, recv_c,
      t + fabric.topology_.latency(sqp->self_, rqp->self_));
  if (broken) {
    flush(t);
  } else {
    maybe_start(src, dir);
  }
}

void SimFabric::Connection::flush(sim::SimTime when_hint) {
  broken = true;
  side_a.mark_broken();
  side_b.mark_broken();
  fabric.fault_counters_.links_broken++;
  const sim::SimTime t = std::max(when_hint, fabric.sim_.now());
  auto flush_dir = [&](Direction& dir, NodeId src) {
    if (dir.flow != sim::kInvalidFlow) {
      fabric.flows_.abort_flow(dir.flow);
      dir.flow = sim::kInvalidFlow;
    }
    dir.in_flight = false;
    SimQueuePair* sqp = side_for(src);
    SimQueuePair* rqp = side_for(sqp->peer());
    // close() fences: a locally closed QP receives nothing, not even
    // flushes for work it posted before closing.
    if (!sqp->closed_) {
      for (auto& s : dir.sends) {
        fabric.fault_counters_.flushed_completions++;
        fabric.deliver_completion(
            sqp->self_,
            Completion{s.wr_id, WcOpcode::kSend, WcStatus::kFlushed, 0, 0,
                       sqp->id(), sqp->peer()},
            t);
      }
    }
    dir.sends.clear();
    if (!rqp->closed_) {
      for (auto& r : dir.recvs) {
        fabric.fault_counters_.flushed_completions++;
        fabric.deliver_completion(
            rqp->self_,
            Completion{r.wr_id, WcOpcode::kRecv, WcStatus::kFlushed, 0, 0,
                       rqp->id(), rqp->peer()},
            t);
      }
      for (auto& r : dir.ud_recvs) {
        fabric.fault_counters_.flushed_completions++;
        fabric.deliver_completion(
            rqp->self_,
            Completion{r.wr_id, WcOpcode::kRecvUd, WcStatus::kFlushed, 0, 0,
                       rqp->id(), rqp->peer()},
            t);
      }
    }
    dir.recvs.clear();
    dir.ud_recvs.clear();
  };
  if (a_to_b) flush_dir(*a_to_b, side_a.self_);
  if (b_to_a) flush_dir(*b_to_a, side_b.self_);
  for (SimQueuePair* side : {&side_a, &side_b}) {
    if (side->closed_) continue;
    fabric.fault_counters_.disconnects_delivered++;
    fabric.deliver_completion(
        side->self_,
        Completion{0, WcOpcode::kDisconnect, WcStatus::kError, 0, 0,
                   side->id(), side->peer()},
        t);
  }
}

PostResult SimFabric::SimQueuePair::post_send(MemoryView buf,
                                              std::uint64_t wr_id,
                                              std::uint32_t immediate) {
  if (conn_.broken || broken()) return PostResult::kQpBroken;
  if (buf.data && buf.size > 0xFFFFFFFFu) return PostResult::kBadArgs;
  const sim::SimTime effective =
      conn_.fabric.charge_software(self_, conn_.fabric.options_.costs.post_send_s);
  auto& dir = conn_.direction_from(self_);
  dir.sends.push_back({buf, wr_id, immediate, effective});
  conn_.maybe_start(self_, dir);
  return PostResult::kOk;
}

PostResult SimFabric::SimQueuePair::post_recv(MemoryView buf,
                                              std::uint64_t wr_id) {
  if (conn_.broken || broken()) return PostResult::kQpBroken;
  if (buf.data && buf.size > 0xFFFFFFFFu) return PostResult::kBadArgs;
  conn_.fabric.charge_software(self_,
                               conn_.fabric.options_.costs.post_recv_s);
  auto& dir = conn_.direction_from(peer_);
  dir.recvs.push_back({buf, wr_id});
  conn_.maybe_start(peer_, dir);
  return PostResult::kOk;
}

PostResult SimFabric::SimQueuePair::post_write_imm(std::uint32_t immediate,
                                                   std::uint64_t wr_id) {
  if (conn_.broken || broken()) return PostResult::kQpBroken;
  auto& fabric = conn_.fabric;
  const sim::SimTime effective =
      fabric.charge_software(self_, fabric.options_.costs.post_send_s);
  // Tiny control message: propagation + a fixed wire time, no bandwidth
  // contention (negligible next to block payloads).
  const sim::SimTime arrive = effective +
                              fabric.topology_.latency(self_, peer_) +
                              fabric.options_.write_imm_wire_s;
  fabric.deliver_completion(self_,
                            Completion{wr_id, WcOpcode::kWriteImm,
                                       WcStatus::kSuccess, 0, immediate,
                                       id_, peer_},
                            effective);
  SimQueuePair* other = conn_.side_for(peer_);
  fabric.deliver_completion(peer_,
                            Completion{0, WcOpcode::kRecvWriteImm,
                                       WcStatus::kSuccess, 0, immediate,
                                       other->id(), other->peer()},
                            arrive);
  return PostResult::kOk;
}

void SimFabric::SimQueuePair::close() {
  closed_ = true;
  mark_broken();
  if (Connection::Direction* incoming = conn_.find_direction(peer_)) {
    incoming->recvs.clear();
    incoming->ud_recvs.clear();
  }
}

PostResult SimFabric::SimQueuePair::post_send_ud(MemoryView buf,
                                                 std::uint64_t wr_id,
                                                 std::uint32_t immediate) {
  if (conn_.broken || broken()) return PostResult::kQpBroken;
  if (buf.data && buf.size > 0xFFFFFFFFu) return PostResult::kBadArgs;
  auto& fabric = conn_.fabric;
  const sim::SimTime effective =
      fabric.charge_software(self_, fabric.options_.costs.post_send_s);
  // The engine decides loss/duplication/reordering at the sender's egress,
  // so only surviving datagrams occupy wire time — identical verdict
  // sequences to the mem/tcp backends by construction.
  auto deliveries = fabric.datagrams().on_send(self_, peer_, buf, immediate);
  NodeState& tx = fabric.node_state_[self_];
  sim::SimTime sender_done = effective;
  for (auto& d : deliveries) {
    const std::size_t bytes = d.view.size;
    const bool phantom = d.view.data == nullptr;
    std::vector<std::byte> payload;
    if (!phantom && bytes > 0)
      payload.assign(d.view.data, d.view.data + bytes);
    // Store-and-forward: serialise through the sender's tx port, propagate,
    // then serialise through the receiver's rx port. Directed-pair caps
    // (degrade_link) constrain the wire rate like they do for flows.
    double rate = std::min(fabric.topology_.node_tx_Bps(self_),
                           fabric.topology_.node_rx_Bps(peer_));
    if (auto cap = fabric.topology_.pair_cap_Bps(self_, peer_))
      rate = std::min(rate, *cap);
    const double wire_s =
        rate > 0.0 ? static_cast<double>(bytes) / rate : 0.0;
    const sim::SimTime tx_start = std::max(effective, tx.ud_tx_free);
    const sim::SimTime tx_end = tx_start + wire_s;
    tx.ud_tx_free = tx_end;
    sender_done = tx_end;
    NodeState& rx = fabric.node_state_[peer_];
    const sim::SimTime rx_end =
        std::max(tx_end + fabric.topology_.latency(self_, peer_),
                 rx.ud_rx_free + wire_s);
    rx.ud_rx_free = rx_end;
    const std::uint64_t span = fabric.ud_wire_seq_++;
    if (auto* tr = obs::tracer())
      tr->begin(obs::Cat::kFabric, "udxfer", self_, span, tx_start,
                "dst,bytes,imm,seq", peer_, bytes, d.immediate, d.index);
    fabric.sim_.at(rx_end, [conn = &conn_, src = self_,
                            payload = std::move(payload), phantom, bytes,
                            imm = d.immediate, span]() mutable {
      conn->deliver_ud(src, std::move(payload), phantom, bytes, imm, span,
                       conn->fabric.sim_.now());
    });
  }
  // Fire-and-forget: the sender always completes successfully once its NIC
  // handed off the last surviving byte (or immediately if nothing survived).
  fabric.deliver_completion(
      self_,
      Completion{wr_id, WcOpcode::kSendUd, WcStatus::kSuccess,
                 static_cast<std::uint32_t>(buf.size), immediate, id_,
                 peer_},
      sender_done);
  return PostResult::kOk;
}

PostResult SimFabric::SimQueuePair::post_recv_ud(MemoryView buf,
                                                 std::uint64_t wr_id) {
  if (conn_.broken || broken()) return PostResult::kQpBroken;
  if (buf.data && buf.size > 0xFFFFFFFFu) return PostResult::kBadArgs;
  conn_.fabric.charge_software(self_,
                               conn_.fabric.options_.costs.post_recv_s);
  conn_.direction_from(peer_).ud_recvs.push_back({buf, wr_id});
  return PostResult::kOk;
}

void SimFabric::Connection::deliver_ud(NodeId src,
                                       std::vector<std::byte> payload,
                                       bool phantom, std::size_t bytes,
                                       std::uint32_t immediate,
                                       std::uint64_t span, sim::SimTime t) {
  SimQueuePair* sqp = side_for(src);
  SimQueuePair* rqp = side_for(sqp->peer());
  Direction* dir = find_direction(src);
  bool delivered = false;
  if (!broken && !rqp->closed_ && !fabric.crashed_.contains(rqp->self_) &&
      dir != nullptr && !dir->ud_recvs.empty() &&
      dir->ud_recvs.front().buf.size >= bytes) {
    PostedRecv recv = std::move(dir->ud_recvs.front());
    dir->ud_recvs.pop_front();
    if (!phantom && recv.buf.data && bytes > 0)
      std::memcpy(recv.buf.data, payload.data(), bytes);
    fabric.datagrams().count_delivered();
    delivered = true;
    fabric.deliver_completion(
        rqp->self_,
        Completion{recv.wr_id, WcOpcode::kRecvUd, WcStatus::kSuccess,
                   static_cast<std::uint32_t>(bytes), immediate, rqp->id(),
                   rqp->peer()},
        t);
  } else {
    // No posted receive / too small / receiver gone: silently discarded
    // and counted — a dropped datagram never breaks the QP.
    fabric.datagrams().count_no_recv();
  }
  if (auto* tr = obs::tracer())
    tr->end(obs::Cat::kFabric, "udxfer", src, span, t, "dst,delivered",
            rqp->self_, delivered ? 1 : 0);
}

PostResult SimFabric::SimQueuePair::post_window_write(
    std::uint32_t window_id, std::uint64_t offset, MemoryView local,
    std::uint32_t immediate, std::uint64_t wr_id, bool signaled) {
  if (conn_.broken || broken()) return PostResult::kQpBroken;
  if (local.data && local.size > 0xFFFFFFFFu) return PostResult::kBadArgs;
  if (local.size > 0 && offset > ~std::uint64_t{0} - local.size)
    return PostResult::kWindowViolation;
  const sim::SimTime effective = conn_.fabric.charge_software(
      self_, conn_.fabric.options_.costs.post_send_s);
  auto& dir = conn_.direction_from(self_);
  Connection::PendingSend send;
  send.buf = local;
  send.wr_id = wr_id;
  send.immediate = immediate;
  send.posted_at = effective;
  send.is_window_write = true;
  send.signaled = signaled;
  send.window_id = window_id;
  send.window_offset = offset;
  dir.sends.push_back(send);
  conn_.maybe_start(self_, dir);
  return PostResult::kOk;
}

// ---------------------------------------------------------------------------
// SimFabric
// ---------------------------------------------------------------------------

SimFabric::SimFabric(sim::Simulator& sim, sim::Topology& topology,
                     Options options)
    : sim_(sim),
      topology_(topology),
      flows_(sim, topology),
      options_(options) {
  endpoints_.reserve(topology.num_nodes());
  node_state_.resize(topology.num_nodes());
  util::Rng seeder(options_.seed);
  for (std::size_t i = 0; i < topology.num_nodes(); ++i) {
    endpoints_.push_back(std::make_unique<SimEndpoint>(
        *this, static_cast<NodeId>(i), options_.default_mode));
    node_state_[i].rng = seeder.split();
  }
}

SimFabric::~SimFabric() = default;

SimFabric::Options SimFabric::options_from(const sim::ClusterProfile& p) {
  Options o;
  o.costs = p.costs;
  o.preemption = p.preemption;
  return o;
}

Endpoint& SimFabric::endpoint(NodeId node) {
  assert(node < endpoints_.size());
  return *endpoints_[node];
}

QueuePair* SimFabric::connect(NodeId a, NodeId b, std::uint32_t channel) {
  assert(a < num_nodes() && b < num_nodes() && a != b);
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  auto key = std::make_tuple(lo, hi, channel);
  auto it = connections_.find(key);
  if (it == connections_.end()) {
    auto conn = std::make_unique<Connection>(*this, next_qp_id_,
                                             next_qp_id_ + 1, lo, hi);
    next_qp_id_ += 2;
    it = connections_.emplace(key, std::move(conn)).first;
  }
  // Connecting to a crashed node yields a born-broken connection rather
  // than a silent hang: the survivor's side flushes immediately.
  if (!it->second->broken &&
      (crashed_.contains(lo) || crashed_.contains(hi))) {
    it->second->flush(sim_.now());
  }
  return it->second->side_for(a);
}

void SimFabric::break_link(NodeId a, NodeId b) {
  if (auto* tr = obs::tracer())
    tr->instant(obs::Cat::kFabric, "fault.break", a, sim_.now(), "a,b", a, b);
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  for (auto& [key, conn] : connections_) {
    if (std::get<0>(key) == lo && std::get<1>(key) == hi && !conn->broken)
      conn->flush(sim_.now());
  }
}

void SimFabric::crash_node(NodeId node) {
  if (auto* tr = obs::tracer())
    tr->instant(obs::Cat::kFabric, "fault.crash", node, sim_.now(), "node",
                node);
  if (crashed_.insert(node).second) fault_counters_.crashes++;
  for (auto& [key, conn] : connections_) {
    if ((std::get<0>(key) == node || std::get<1>(key) == node) &&
        !conn->broken)
      conn->flush(sim_.now());
  }
}

void SimFabric::apply_degrade(NodeId src, NodeId dst, double factor) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src) << 32) | dst;
  Degrade& d = degrades_[key];
  if (d.depth == 0) {
    const auto original = topology_.pair_cap_Bps(src, dst);
    d.had_original = original.has_value();
    d.original_gbps = original ? *original * 8.0 / 1e9 : 0.0;
    // Base bandwidth of an uncapped pair: whatever the tighter NIC port
    // allows (the pair cap only matters when below that anyway).
    d.base_gbps =
        d.had_original
            ? d.original_gbps
            : std::min(topology_.node_tx_Bps(src), topology_.node_rx_Bps(dst)) *
                  8.0 / 1e9;
    d.combined = 1.0;
  }
  d.depth++;
  d.combined *= factor;
  topology_.set_pair_cap(src, dst, d.base_gbps * d.combined);
}

void SimFabric::expire_degrade(NodeId src, NodeId dst, double factor) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src) << 32) | dst;
  auto it = degrades_.find(key);
  if (it == degrades_.end()) return;
  Degrade& d = it->second;
  d.depth--;
  d.combined /= factor;
  if (d.depth > 0) {
    topology_.set_pair_cap(src, dst, d.base_gbps * d.combined);
    return;
  }
  if (d.had_original)
    topology_.set_pair_cap(src, dst, d.original_gbps);
  else
    topology_.clear_pair_cap(src, dst);
  degrades_.erase(it);
}

bool SimFabric::degrade_link(NodeId a, NodeId b, double factor,
                             double duration_s) {
  if (factor <= 0.0 || duration_s < 0.0) return false;
  fault_counters_.degrades++;
  const std::uint64_t span =
      (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
  if (auto* tr = obs::tracer())
    tr->begin(obs::Cat::kFabric, "fault.degrade", a, span, sim_.now(),
              "a,b,permille", a, b,
              static_cast<std::uint64_t>(factor * 1000.0));
  apply_degrade(a, b, factor);
  apply_degrade(b, a, factor);
  flows_.topology_changed();
  sim_.after(duration_s, [this, a, b, factor, span] {
    expire_degrade(a, b, factor);
    expire_degrade(b, a, factor);
    flows_.topology_changed();
    if (auto* tr = obs::tracer())
      tr->end(obs::Cat::kFabric, "fault.degrade", a, span, sim_.now(),
              "a,b", a, b);
  });
  return true;
}

bool SimFabric::slow_node(NodeId node, double factor, double duration_s) {
  if (factor <= 0.0 || duration_s < 0.0 || node >= node_state_.size())
    return false;
  fault_counters_.slowdowns++;
  if (auto* tr = obs::tracer())
    tr->begin(obs::Cat::kFabric, "fault.slow", node, node, sim_.now(),
              "node,permille", node,
              static_cast<std::uint64_t>(factor * 1000.0));
  node_state_[node].software_factor *= factor;
  sim_.after(duration_s, [this, node, factor] {
    node_state_[node].software_factor /= factor;
    if (auto* tr = obs::tracer())
      tr->end(obs::Cat::kFabric, "fault.slow", node, node, sim_.now(),
              "node", node);
  });
  return true;
}

sim::SimTime SimFabric::charge_software(NodeId node, double cost) {
  NodeState& st = node_state_[node];
  if (options_.cross_channel) {
    // CORE-Direct: the NIC walks the posted dependency graph; no software
    // involvement per operation.
    return std::max(sim_.now(), st.cpu_free);
  }
  const double preempt = options_.preemption.sample(st.rng);
  const double scaled = cost * st.software_factor;  // slow-receiver fault
  const sim::SimTime start = std::max(sim_.now(), st.cpu_free);
  const sim::SimTime done = start + scaled + preempt;
  st.busy += scaled;  // preemption is stolen time, not useful work
  st.cpu_free = done;
  return done;
}

void SimFabric::deliver_completion(NodeId node, Completion c,
                                   sim::SimTime ready) {
  // Fail-stop: a crashed node's software never runs again, so nothing is
  // delivered to it — not even the flushes its own crash produced.
  if (crashed_.contains(node)) return;
  NodeState& st = node_state_[node];
  const SimEndpoint& ep = *endpoints_[node];
  double pickup = 0.0;
  if (!options_.cross_channel) {
    switch (ep.mode_) {
      case CompletionMode::kPolling:
        pickup = 0.0;
        break;
      case CompletionMode::kInterrupt:
        pickup = options_.costs.interrupt_wakeup_s;
        break;
      case CompletionMode::kHybrid:
        pickup = (ready - st.last_event <= options_.hybrid_poll_window_s)
                     ? 0.0
                     : options_.costs.interrupt_wakeup_s;
        break;
    }
  }
  const sim::SimTime earliest = std::max(ready + pickup, sim_.now());
  sim_.at(earliest,
          [this, node, c, ready] { attempt_handle(node, c, ready); });
}

void SimFabric::attempt_handle(NodeId node, const Completion& c,
                               sim::SimTime ready) {
  NodeState& st = node_state_[node];
  if (st.cpu_free > sim_.now()) {
    // The single completion thread is busy; retry when it frees up.
    sim_.at(st.cpu_free,
            [this, node, c, ready] { attempt_handle(node, c, ready); });
    return;
  }
  SimEndpoint& ep = *endpoints_[node];
  const sim::SimTime start = sim_.now();
  st.wait += std::max(0.0, start - ready);
  double cost = 0.0;
  if (!options_.cross_channel) {
    const double scaled =
        options_.costs.handle_completion_s * st.software_factor;
    cost = scaled + options_.preemption.sample(st.rng);
    st.busy += scaled;
  }
  st.cpu_free = start + cost;
  st.last_event = start + cost;
  if (ep.completion_handler_) ep.completion_handler_(c);
}

void SimFabric::deliver_oob(NodeId to, NodeId from,
                            std::vector<std::byte> payload) {
  // A crashed node's control mesh is dead along with its RDMA sessions.
  if (crashed_.contains(from) || crashed_.contains(to)) return;
  sim_.after(options_.oob_latency_s,
             [this, to, from, payload = std::move(payload)] {
               SimEndpoint& ep = *endpoints_[to];
               if (ep.oob_handler_)
                 ep.oob_handler_(from, std::span<const std::byte>(payload));
             });
}

double SimFabric::cpu_busy_seconds(NodeId node) const {
  return node_state_[node].busy;
}

double SimFabric::completion_wait_seconds(NodeId node) const {
  return node_state_[node].wait;
}

}  // namespace rdmc::fabric
