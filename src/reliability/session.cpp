#include "reliability/session.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "obs/trace.hpp"
#include "reliability/rs_code.hpp"
#include "util/logging.hpp"

namespace rdmc::reliability {

namespace {

// -- OOB control wire format (tiny, little-endian) --------------------------

enum class Msg : std::uint8_t {
  kMsgStart = 0,
  kReady = 1,
  kProbe = 2,
  kStatus = 3,
  kComplete = 4,
};

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}

/// Every message starts with its type and the sender's relay channel.
/// Endpoints outlive sessions, so a message still queued when its session
/// is destroyed reaches the next session on the same endpoints; the channel,
/// which a session owns for good, tells the two apart.
constexpr std::size_t kHeaderBytes = 5;

std::vector<std::byte> message(Msg type, std::uint32_t channel) {
  std::vector<std::byte> out;
  out.push_back(static_cast<std::byte>(type));
  put_u32(out, channel);
  return out;
}

std::uint32_t get_u32(std::span<const std::byte> in, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(
             in[off + i]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(std::span<const std::byte> in, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(
             in[off + i]))
         << (8 * i);
  return v;
}

}  // namespace

// -- Per-rank engine state --------------------------------------------------

struct UdMulticastSession::Node {
  std::size_t rank = 0;
  fabric::NodeId id = 0;
  std::unique_ptr<sched::Schedule> schedule;

  struct Link {
    std::size_t peer_rank = 0;
    fabric::QueuePair* qp = nullptr;
    bool repair = false;  // root<->member repair lane (channel + 1)
    /// Wire blocks queued for sending, availability-gated FIFO.
    std::deque<std::uint32_t> ready;
    /// Relay links: wire block already queued here (never re-relay).
    std::vector<bool> queued;
    std::size_t inflight = 0;
    /// The schedule receives on this link (or it is a member's repair
    /// lane): only such links post UD receives.
    bool receives = false;
    /// Landing zones of the posted UD recvs, recv_depth x block_size
    /// (real mode, receiving links only).
    std::unique_ptr<std::byte[]> landing;

    fabric::MemoryView zone(std::size_t slot, std::size_t block_size) const {
      return {landing ? landing.get() + slot * block_size : nullptr,
              block_size};
    }
  };
  std::vector<Link> links;
  std::unordered_map<std::uint64_t, std::size_t> link_by_qp;
  /// Relay links that carry each wire block, from the schedule.
  std::vector<std::vector<std::uint32_t>> relay_links_for;

  std::vector<bool> have;
  std::size_t have_count = 0;
  bool complete = false;

  // Non-root, real mode: reconstruction buffers. `buffer` holds size_
  // bytes and is never zero-filled: a received block or repair() writes
  // every byte before the member completes.
  std::unique_ptr<std::byte[]> buffer;
  std::vector<std::vector<std::byte>> parity;  // dense parity ordinal
};

/// Root-side per-member repair bookkeeping.
struct UdMulticastSession::RootState {
  struct Member {
    std::size_t round = 0;
    bool done = false;
    std::uint64_t last_have_count = 0;
    std::size_t stagnant_rounds = 0;
    /// Probe round a wire block was last retransmitted in (0 = never).
    std::vector<std::size_t> last_retx_round;
    std::size_t repair_link = SIZE_MAX;  // index into the root's links
  };
  std::vector<Member> members;  // index = rank (0 unused)
  bool probing = false;
};

UdMulticastSession::UdMulticastSession(fabric::Fabric& fabric,
                                       std::vector<fabric::NodeId> members,
                                       SessionOptions options)
    : fabric_(fabric),
      members_(std::move(members)),
      options_(std::move(options)),
      root_(std::make_unique<RootState>()) {
  assert(members_.size() >= 2);
  policy_ = make_policy(options_.policy, options_.rs_k, options_.rs_m);
  // rdmc-lint: allow(wall-clock) documented default for threaded fabrics; SimFabric callers pass the virtual clock
  if (!options_.clock) options_.clock = [] { return obs::wall_seconds(); };
  results_.resize(members_.size());
  if (options_.metrics != nullptr) {
    metric_datagrams_ = &options_.metrics->counter("ud.datagrams");
    metric_retx_ = &options_.metrics->counter("ud.retx_datagrams");
    metric_probes_ = &options_.metrics->counter("ud.probe_rounds");
    metric_latency_ = &options_.metrics->histogram("ud.delivery_latency_s");
  }
}

UdMulticastSession::~UdMulticastSession() {
  // Detach our callbacks before members_ state dies under them.
  for (fabric::NodeId id : members_) {
    fabric_.endpoint(id).set_completion_handler(nullptr);
    fabric_.endpoint(id).set_oob_handler(nullptr);
  }
  // Close every queue pair: close() revokes the posted receives, so no
  // late datagram can land in a landing zone freed below.
  util::MutexLock lock(mutex_);
  for (const auto& n : nodes_)
    for (const Node::Link& link : n->links) link.qp->close();
}

double UdMulticastSession::now() const { return options_.clock(); }

fabric::MemoryView UdMulticastSession::wire_view(const Node& n,
                                                 std::size_t w) const {
  const std::size_t db = policy_->data_block_of(w, data_blocks_);
  if (db != SIZE_MAX) {
    const std::size_t off = db * options_.block_size;
    const std::size_t len = std::min(options_.block_size, size_ - off);
    if (phantom_) return {nullptr, len};
    const std::byte* src = n.rank == 0 ? data_ + off : n.buffer.get() + off;
    return {const_cast<std::byte*>(src), len};
  }
  const std::size_t ord = policy_->parity_ordinal_of(w, data_blocks_);
  if (phantom_) return {nullptr, options_.block_size};
  const std::byte* p = n.rank == 0
                           ? root_parity_.get() + ord * options_.block_size
                           : n.parity[ord].data();
  return {const_cast<std::byte*>(p), options_.block_size};
}

bool UdMulticastSession::send(const std::byte* data, std::size_t size) {
  util::MutexLock lock(mutex_);
  if (size == 0 || data_blocks_ != 0) return false;  // one message/session
  data_ = data;
  size_ = size;
  phantom_ = data == nullptr;
  data_blocks_ = (size + options_.block_size - 1) / options_.block_size;
  wire_blocks_ = policy_->wire_blocks(data_blocks_);
  if (wire_blocks_ > kImmBlockMask) return false;  // immediate encoding cap
  stats_.wire_blocks = wire_blocks_;
  stats_.parity_blocks = wire_blocks_ - data_blocks_;

  // Root-side parity encode (erasure, real mode).
  if (!phantom_ && stats_.parity_blocks > 0) {
    // encode() overwrites every parity byte, so the slab is not zeroed.
    root_parity_ = std::make_unique_for_overwrite<std::byte[]>(
        stats_.parity_blocks * options_.block_size);
    std::vector<std::byte> padded;  // zero-padded short final block
    RsCode code(options_.rs_k, options_.rs_m);
    const std::size_t k = options_.rs_k;
    const std::size_t m = options_.rs_m;
    const std::size_t stripes = (data_blocks_ + k - 1) / k;
    for (std::size_t s = 0; s < stripes; ++s) {
      std::vector<const std::byte*> sym(k, nullptr);
      std::vector<std::byte*> par(m, nullptr);
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t block = s * k + j;
        if (block >= data_blocks_) break;  // pad symbols stay null (zero)
        const std::size_t off = block * options_.block_size;
        const std::size_t len = std::min(options_.block_size, size_ - off);
        if (len == options_.block_size) {
          sym[j] = data_ + off;
        } else {
          padded.assign(options_.block_size, std::byte{0});
          std::copy(data_ + off, data_ + off + len, padded.begin());
          sym[j] = padded.data();
        }
      }
      for (std::size_t j = 0; j < m; ++j)
        par[j] = root_parity_.get() + (s * m + j) * options_.block_size;
      code.encode(sym, par, options_.block_size);
    }
  }

  // Build every rank's engine, connect QPs, post receives — all on this
  // thread so fabric connect() is never raced from completion handlers.
  nodes_.clear();
  for (std::size_t rank = 0; rank < members_.size(); ++rank)
    setup_node(rank);

  root_->members.resize(members_.size());
  for (std::size_t r = 1; r < members_.size(); ++r) {
    root_->members[r].last_retx_round.assign(wire_blocks_, 0);
    // Locate the root's repair link to this member.
    Node& rn = *nodes_[0];
    for (std::size_t l = 0; l < rn.links.size(); ++l) {
      if (rn.links[l].repair && rn.links[l].peer_rank == r)
        root_->members[r].repair_link = l;
    }
    assert(root_->members[r].repair_link != SIZE_MAX);
  }

  std::vector<std::byte> msg = message(Msg::kMsgStart, options_.channel);
  put_u64(msg, size_);
  put_u32(msg, static_cast<std::uint32_t>(options_.block_size));
  put_u32(msg, static_cast<std::uint32_t>(data_blocks_));
  put_u32(msg, static_cast<std::uint32_t>(wire_blocks_));
  lock.unlock();

  // Install handlers once the state above is complete, and outside mutex_:
  // a dispatching endpoint holds its handler lock while a handler takes
  // mutex_, so taking them in the other order could deadlock. No event for
  // this session fires before kMsgStart goes out.
  for (std::size_t rank = 0; rank < members_.size(); ++rank) {
    fabric::Endpoint& ep = fabric_.endpoint(members_[rank]);
    ep.set_completion_handler(
        [this, rank](const fabric::Completion& c) { on_completion(rank, c); });
    ep.set_oob_handler(
        [this, rank](fabric::NodeId from, std::span<const std::byte> p) {
          on_oob(rank, from, p);
        });
  }

  // Announce geometry; the root pumps once every member replied kReady.
  for (std::size_t r = 1; r < members_.size(); ++r)
    fabric_.endpoint(members_[0]).send_oob(members_[r], msg);
  return true;
}

void UdMulticastSession::setup_node(std::size_t rank) {
  auto n = std::make_unique<Node>();
  n->rank = rank;
  n->id = members_[rank];
  n->schedule =
      sched::make_schedule(options_.algorithm, members_.size(), rank);
  n->have.assign(wire_blocks_, rank == 0);
  n->have_count = rank == 0 ? wire_blocks_ : 0;
  if (!phantom_ && rank != 0) {
    n->buffer = std::make_unique_for_overwrite<std::byte[]>(size_);
    n->parity.resize(stats_.parity_blocks);
  }

  // Relay links: every peer this rank ever exchanges blocks with.
  std::vector<std::size_t> link_of_rank(members_.size(), SIZE_MAX);
  auto link_to = [&](std::size_t peer_rank) -> std::size_t {
    if (link_of_rank[peer_rank] == SIZE_MAX) {
      link_of_rank[peer_rank] = n->links.size();
      Node::Link link;
      link.peer_rank = peer_rank;
      link.queued.assign(wire_blocks_, false);
      n->links.push_back(std::move(link));
    }
    return link_of_rank[peer_rank];
  };

  n->relay_links_for.resize(wire_blocks_);
  const std::size_t steps = n->schedule->num_steps(wire_blocks_);
  for (std::size_t step = 0; step < steps; ++step) {
    for (const sched::Transfer& t :
         n->schedule->sends_at(wire_blocks_, step)) {
      const std::size_t l = link_to(t.peer);
      n->relay_links_for[t.block].push_back(static_cast<std::uint32_t>(l));
    }
    for (const sched::Transfer& t : n->schedule->recvs_at(wire_blocks_, step))
      n->links[link_to(t.peer)].receives = true;
  }
  // Repair lane: root to every member on channel + 1.
  if (rank == 0) {
    for (std::size_t r = 1; r < members_.size(); ++r) {
      Node::Link link;
      link.peer_rank = r;
      link.repair = true;
      n->links.push_back(std::move(link));
    }
  } else {
    Node::Link link;
    link.peer_rank = 0;
    link.repair = true;
    link.receives = true;
    n->links.push_back(std::move(link));
  }

  for (Node::Link& link : n->links) {
    const std::uint32_t channel =
        options_.channel + (link.repair ? 1u : 0u);
    link.qp = fabric_.connect(n->id, members_[link.peer_rank], channel);
    n->link_by_qp[link.qp->id()] =
        static_cast<std::size_t>(&link - n->links.data());
  }
  nodes_.push_back(std::move(n));
  Node& node = *nodes_.back();
  for (std::size_t l = 0; l < node.links.size(); ++l)
    if (node.links[l].receives) post_recvs(node, l);
}

void UdMulticastSession::post_recvs(Node& n, std::size_t link_idx) {
  Node::Link& link = n.links[link_idx];
  if (!phantom_) {
    link.landing = std::make_unique_for_overwrite<std::byte[]>(
        options_.recv_depth * options_.block_size);
  }
  for (std::size_t slot = 0; slot < options_.recv_depth; ++slot) {
    const std::uint64_t wr =
        (static_cast<std::uint64_t>(link_idx) << 32) | slot;
    link.qp->post_recv_ud(link.zone(slot, options_.block_size), wr);
  }
}

void UdMulticastSession::pump_link(Node& n, std::size_t link_idx) {
  Node::Link& link = n.links[link_idx];
  while (link.inflight < options_.send_inflight && !link.ready.empty()) {
    const std::uint32_t w = link.ready.front();
    link.ready.pop_front();
    const std::uint32_t imm = w | (link.repair ? kImmRetx : 0u);
    const fabric::PostResult r =
        link.qp->post_send_ud(wire_view(n, w), link_idx, imm);
    if (r != fabric::PostResult::kOk) continue;  // severed lane: give up
    link.inflight++;
    if (link.repair) {
      stats_.retx_datagrams++;
      if (metric_retx_ != nullptr) metric_retx_->add();
    } else {
      stats_.datagrams_sent++;
      if (metric_datagrams_ != nullptr) metric_datagrams_->add();
    }
  }
}

void UdMulticastSession::block_available(Node& n, std::size_t w) {
  for (std::uint32_t l : n.relay_links_for[w]) {
    Node::Link& link = n.links[l];
    if (link.queued[w]) continue;
    link.queued[w] = true;
    link.ready.push_back(static_cast<std::uint32_t>(w));
    pump_link(n, l);
  }
}

void UdMulticastSession::on_completion(std::size_t rank,
                                       const fabric::Completion& c) {
  util::MutexLock lock(mutex_);
  if (rank >= nodes_.size() || !nodes_[rank]) return;
  Node& n = *nodes_[rank];
  auto it = n.link_by_qp.find(c.qp);
  if (it == n.link_by_qp.end()) return;

  if (c.opcode == fabric::WcOpcode::kSendUd) {
    Node::Link& link = n.links[it->second];
    if (link.inflight > 0) link.inflight--;
    pump_link(n, it->second);
    // Root idle => begin source-driven NACK probing.
    if (rank == 0 && pumping_) {
      bool idle = true;
      for (const Node::Link& l : n.links)
        if (l.inflight > 0 || !l.ready.empty()) idle = false;
      if (idle && !root_->probing) {
        root_->probing = true;
        lock.unlock();
        for (std::size_t r = 1; r < members_.size(); ++r) root_probe(r);
      }
    }
    return;
  }

  if (c.opcode != fabric::WcOpcode::kRecvUd) return;
  const std::size_t link_idx = it->second;
  Node::Link& link = n.links[link_idx];
  const std::size_t slot = c.wr_id & 0xFFFFFFFFull;
  if (c.status != fabric::WcStatus::kSuccess) return;  // flushed: teardown

  const std::size_t w = c.immediate & kImmBlockMask;
  const bool retx = (c.immediate & kImmRetx) != 0;
  bool fresh = false;
  if (w < wire_blocks_ && !n.have[w]) {
    fresh = true;
    n.have[w] = true;
    n.have_count++;
    if (!phantom_) {
      const std::size_t db = policy_->data_block_of(w, data_blocks_);
      const std::byte* src = link.zone(slot, options_.block_size).data;
      if (db != SIZE_MAX) {
        // Once complete, repair() has already rebuilt this block and the
        // caller may be reading the buffer: never write it again.
        if (!n.complete) {
          const std::size_t off = db * options_.block_size;
          std::memcpy(n.buffer.get() + off, src, c.byte_len);
        }
      } else {
        const std::size_t ord = policy_->parity_ordinal_of(w, data_blocks_);
        n.parity[ord].assign(src, src + c.byte_len);
      }
    }
    if (retx) results_[rank].retx_received++;
  }
  // Hand the landing zone back to the fabric before anything else can
  // arrive into this slot.
  link.qp->post_recv_ud(link.zone(slot, options_.block_size), c.wr_id);

  if (fresh) {
    block_available(n, w);
    member_check_complete(n);
  }
}

void UdMulticastSession::member_check_complete(Node& n) {
  // Called with mutex_ held.
  if (n.rank == 0 || n.complete) return;
  if (!policy_->complete(n.have, data_blocks_)) return;
  n.complete = true;

  const std::uint64_t cost =
      policy_->decode_cost_bytes(n.have, data_blocks_, options_.block_size);
  stats_.decode_bytes += cost;
  double deliver_ts = now();
  if (cost > 0) {
    const double t0 = deliver_ts;
    if (!phantom_) {
      policy_->repair(n.have, data_blocks_, options_.block_size,
                      n.buffer.get(), size_, n.parity);
    }
    if (options_.charge_cpu) {
      deliver_ts = options_.charge_cpu(
          n.id, static_cast<double>(cost) / options_.decode_Bps);
    } else {
      deliver_ts = now();
    }
    if (auto* tr = obs::tracer()) {
      tr->begin(obs::Cat::kApp, "ud.repair", n.id, n.id, t0, "bytes", cost);
      tr->end(obs::Cat::kApp, "ud.repair", n.id, n.id, deliver_ts, "bytes",
              cost);
    }
  }
  if (auto* tr = obs::tracer())
    tr->instant(obs::Cat::kApp, "ud.deliver", n.id, deliver_ts, "rank",
                n.rank);
  results_[n.rank].deliver_ts = deliver_ts;
  if (metric_latency_ != nullptr)
    metric_latency_->add(deliver_ts - stats_.msg_start_ts);
  finish_member(n.rank, /*failed=*/false);

  // Tell the root (protocol-complete even though state is shared here).
  fabric_.endpoint(n.id).send_oob(members_[0],
                                  message(Msg::kComplete, options_.channel));
}

void UdMulticastSession::finish_member(std::size_t rank, bool failed) {
  // Called with mutex_ held.
  MemberResult& res = results_[rank];
  if (res.complete || res.failed) return;
  res.complete = !failed;
  res.failed = failed;
  if (rank < root_->members.size()) root_->members[rank].done = true;
  finished_members_++;
  if (finished_members_ == members_.size() - 1) {
    done_ = true;
    stats_.last_deliver_ts = 0.0;
    for (std::size_t r = 1; r < members_.size(); ++r) {
      stats_.last_deliver_ts =
          std::max(stats_.last_deliver_ts, results_[r].deliver_ts);
    }
    done_cv_.notify_all();
  }
}

void UdMulticastSession::root_probe(std::size_t member_rank) {
  std::vector<std::byte> msg;
  {
    util::MutexLock lock(mutex_);
    RootState::Member& rm = root_->members[member_rank];
    if (rm.done || done_) return;
    if (rm.round >= options_.max_rounds) {
      RDMC_LOG_WARN("reliability", "giving up on member %zu after %zu rounds",
                    member_rank, rm.round);
      finish_member(member_rank, /*failed=*/true);
      return;
    }
    rm.round++;
    stats_.probe_rounds++;
    if (metric_probes_ != nullptr) metric_probes_->add();
    msg = message(Msg::kProbe, options_.channel);
    put_u32(msg, static_cast<std::uint32_t>(rm.round));
  }
  fabric_.endpoint(members_[0]).send_oob(members_[member_rank], msg);
}

void UdMulticastSession::root_on_status(
    std::size_t member_rank, const std::vector<std::uint32_t>& missing,
    std::uint64_t have_count) {
  util::MutexLock lock(mutex_);
  RootState::Member& rm = root_->members[member_rank];
  if (rm.done || done_) return;

  if (have_count > rm.last_have_count) {
    rm.last_have_count = have_count;
    rm.stagnant_rounds = 0;
  } else {
    rm.stagnant_rounds++;
  }
  // kNone never repairs: once relays drain, a lossy member is permanently
  // stuck — declare it failed instead of probing forever.
  if (policy_->kind() == Policy::kNone &&
      rm.stagnant_rounds >= options_.giveup_rounds) {
    finish_member(member_rank, /*failed=*/true);
    return;
  }

  Node& rn = *nodes_[0];
  const std::size_t link_idx = rm.repair_link;
  std::size_t queued = 0;
  for (std::uint32_t w : missing) {
    if (w >= wire_blocks_) continue;
    const std::size_t last = rm.last_retx_round[w];
    if (last != 0 && rm.round - last < options_.retx_holdoff) continue;
    rm.last_retx_round[w] = rm.round;
    rn.links[link_idx].ready.push_back(w);
    queued++;
  }
  if (queued > 0) pump_link(rn, link_idx);
  lock.unlock();
  root_probe(member_rank);  // next round, paced by the OOB round trip
}

void UdMulticastSession::on_oob(std::size_t rank, fabric::NodeId from,
                                std::span<const std::byte> payload) {
  if (payload.size() < kHeaderBytes || get_u32(payload, 1) != options_.channel)
    return;  // not this session's message
  const Msg type = static_cast<Msg>(std::to_integer<std::uint8_t>(payload[0]));
  std::size_t from_rank = SIZE_MAX;
  for (std::size_t r = 0; r < members_.size(); ++r)
    if (members_[r] == from) from_rank = r;
  if (from_rank == SIZE_MAX) return;

  switch (type) {
    case Msg::kMsgStart: {
      // Geometry was prearranged on the driver thread; acknowledge.
      fabric_.endpoint(members_[rank]).send_oob(
          members_[0], message(Msg::kReady, options_.channel));
      return;
    }
    case Msg::kReady: {
      {
        util::MutexLock lock(mutex_);
        ready_count_++;
        if (ready_count_ == members_.size() - 1 && !pumping_) {
          pumping_ = true;
          stats_.msg_start_ts = now();
          if (auto* tr = obs::tracer()) {
            tr->instant(obs::Cat::kApp, "ud.msgstart", members_[0],
                        stats_.msg_start_ts, "bytes,blocks", size_,
                        wire_blocks_);
          }
          Node& rn = *nodes_[0];
          for (std::size_t w = 0; w < wire_blocks_; ++w)
            block_available(rn, w);
        }
      }
      return;
    }
    case Msg::kProbe: {
      if (payload.size() < kHeaderBytes + 4) return;
      const std::uint32_t round = get_u32(payload, kHeaderBytes);
      std::vector<std::byte> msg;
      {
        util::MutexLock lock(mutex_);
        Node& n = *nodes_[rank];
        if (n.complete || results_[rank].failed) {
          msg = message(Msg::kComplete, options_.channel);
        } else {
          const std::vector<std::uint32_t> missing = policy_->nack_set(
              n.have, data_blocks_, options_.nack_window);
          msg = message(Msg::kStatus, options_.channel);
          put_u32(msg, round);
          put_u64(msg, n.have_count);
          put_u32(msg, static_cast<std::uint32_t>(missing.size()));
          for (std::uint32_t w : missing) put_u32(msg, w);
          results_[rank].status_reports++;
          if (auto* tr = obs::tracer()) {
            tr->instant(obs::Cat::kApp, "ud.nack", n.id, now(),
                        "round,missing", round, missing.size());
          }
        }
      }
      fabric_.endpoint(members_[rank]).send_oob(members_[0], msg);
      return;
    }
    case Msg::kStatus: {
      // round u32, have_count u64, count u32, then count block indices.
      constexpr std::size_t kList = kHeaderBytes + 16;
      if (payload.size() < kList) return;
      const std::uint64_t have_count = get_u64(payload, kHeaderBytes + 4);
      const std::uint32_t count = get_u32(payload, kHeaderBytes + 12);
      std::vector<std::uint32_t> missing;
      missing.reserve(count);
      for (std::uint32_t i = 0;
           i < count && kList + 4 * (i + 1) <= payload.size(); ++i) {
        missing.push_back(get_u32(payload, kList + 4 * i));
      }
      root_on_status(from_rank, missing, have_count);
      return;
    }
    case Msg::kComplete: {
      util::MutexLock lock(mutex_);
      if (from_rank < root_->members.size())
        root_->members[from_rank].done = true;
      return;
    }
  }
}

bool UdMulticastSession::done() const {
  util::MutexLock lock(mutex_);
  return done_;
}

bool UdMulticastSession::all_complete() const {
  util::MutexLock lock(mutex_);
  if (!done_) return false;
  for (std::size_t r = 1; r < members_.size(); ++r)
    if (!results_[r].complete) return false;
  return true;
}

void UdMulticastSession::wait_done() {
  util::MutexLock lock(mutex_);
  while (!done_) done_cv_.wait(lock);
}

std::span<const std::byte> UdMulticastSession::member_data(
    std::size_t rank) const {
  util::MutexLock lock(mutex_);
  if (rank == 0 || rank >= nodes_.size() || phantom_) return {};
  return {nodes_[rank]->buffer.get(), size_};
}

}  // namespace rdmc::reliability
