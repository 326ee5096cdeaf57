#include "core/small_group.hpp"

#include <algorithm>
#include <cassert>

#include "obs/stall.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace rdmc {

namespace {
/// Small-message groups share the fabric channel namespace with RDMC
/// groups; offset them so ids never collide with block-transfer QPs.
constexpr std::uint32_t kSmallChannelBase = 0x40000000u;
}  // namespace

SmallMessageGroup::SmallMessageGroup(
    Node& node, GroupId id, Membership members,
    const SmallGroupOptions& options,
    std::function<void(const std::byte*, std::size_t)> deliver,
    std::function<void(std::size_t)> sent, FailureCallback on_failure)
    : node_(node),
      id_(id),
      members_(std::move(members)),
      options_(options),
      deliver_(std::move(deliver)),
      sent_(std::move(sent)),
      on_failure_(std::move(on_failure)) {
  assert(members_.size() >= 2);
  assert(options_.slot_size > 0 && options_.ring_depth > 0);
  const auto self = std::find(members_.begin(), members_.end(), node_.id());
  assert(self != members_.end());
  rank_ = static_cast<std::size_t>(self - members_.begin());

  const std::uint32_t channel =
      kSmallChannelBase | static_cast<std::uint32_t>(id_);
  if (rank_ == 0) {
    // Root: a star of QPs, one per receiver.
    peers_.reserve(members_.size() - 1);
    for (std::size_t r = 1; r < members_.size(); ++r) {
      Peer peer;
      peer.node = members_[r];
      peer.qp = node_.fabric().connect(node_.id(), peer.node, channel);
      // The ring starts fully free.
      peer.consumed = 0;
      peers_.push_back(peer);
    }
    for (std::size_t i = 0; i < peers_.size(); ++i)
      node_.register_qp(peers_[i].qp->id(), this, i);
  } else {
    // Receiver: expose the ring window and bind the single QP to the root.
    ring_.resize(options_.slot_size * options_.ring_depth);
    node_.endpoint().register_window(
        static_cast<std::uint32_t>(channel),
        fabric::MemoryView{ring_.data(), ring_.size()});
    root_qp_ = node_.fabric().connect(node_.id(), members_[0], channel);
    node_.register_qp(root_qp_->id(), this, 0);
    // Announce readiness (ring registered; all slots free).
    root_qp_->post_write_imm(0, 0);
  }
}

SmallMessageGroup::~SmallMessageGroup() {
  for (Peer& peer : peers_) {
    if (peer.qp != nullptr) peer.qp->close();
  }
  if (root_qp_ != nullptr) root_qp_->close();
  if (rank_ != 0) {
    // Fence the ring before it is freed (RDMA memory deregistration).
    node_.endpoint().unregister_window(
        kSmallChannelBase | static_cast<std::uint32_t>(id_));
  }
}

bool SmallMessageGroup::send(const std::byte* data, std::size_t size) {
  if (rank_ != 0 || failed_) return false;
  if (size == 0 || size > options_.slot_size) return false;
  // Bounded buffers: refuse (backpressure) if any receiver has not
  // registered its ring yet or its ring would be overrun. Callers retry
  // after the `sent` callback advances.
  for (const Peer& peer : peers_) {
    if (!peer.ready) return false;
    if (next_seq_ >= peer.consumed + options_.ring_depth) return false;
  }
  const std::uint64_t seq = next_seq_++;
  if (auto* tr = obs::tracer())
    tr->begin(obs::Cat::kCore, "smsg", node_.id(),
              obs::msg_span_id(id_, seq), node_.clock()(),
              "group,seq,bytes", static_cast<std::uint32_t>(id_), seq, size);
  const std::uint64_t offset = (seq % options_.ring_depth) *
                               options_.slot_size;
  const std::uint32_t channel =
      kSmallChannelBase | static_cast<std::uint32_t>(id_);
  // Signal only every signal_period-th write (FIFO per QP: a signaled
  // completion for seq s implies every write up to s finished) — real
  // senders batch doorbells and signals the same way.
  const bool signal =
      (seq % options_.signal_period) == options_.signal_period - 1;
  for (Peer& peer : peers_) {
    peer.qp->post_window_write(
        channel, offset,
        fabric::MemoryView{const_cast<std::byte*>(data), size},
        static_cast<std::uint32_t>(size), /*wr_id=*/seq, signal);
  }
  return true;
}

void SmallMessageGroup::note_send_progress() {
  // A message is complete once its writes finished at every receiver
  // (per-QP FIFO lets the batched signal for seq s vouch for all <= s).
  std::uint64_t done = next_seq_;
  for (const Peer& peer : peers_) done = std::min(done, peer.writes_done);
  while (sent_complete_ < done) {
    const std::size_t seq = sent_complete_++;
    if (sent_) sent_(seq);
  }
}

void SmallMessageGroup::on_completion(const fabric::Completion& c,
                                      std::size_t pair_index) {
  if (failed_) return;
  switch (c.opcode) {
    case fabric::WcOpcode::kWindowWrite: {
      if (c.status != fabric::WcStatus::kSuccess) {
        fail(peers_[pair_index].node, true);
        return;
      }
      assert(rank_ == 0);
      // Batched signal: write seq c.wr_id completing implies all earlier
      // writes on this QP completed.
      peers_[pair_index].writes_done = std::max<std::uint64_t>(
          peers_[pair_index].writes_done, c.wr_id + 1);
      note_send_progress();
      break;
    }
    case fabric::WcOpcode::kRecvWindowWrite: {
      // A message landed in our ring. FIFO per QP makes arrival order the
      // sequence order; the offset (c.wr_id) must match our cursor.
      assert(rank_ != 0);
      const std::uint64_t expect_offset =
          (delivered_ % options_.ring_depth) * options_.slot_size;
      assert(c.wr_id == expect_offset && "ring sequence out of order");
      (void)expect_offset;
      if (deliver_) deliver_(ring_.data() + c.wr_id, c.byte_len);
      if (auto* tr = obs::tracer())
        tr->end(obs::Cat::kCore, "smsg", node_.id(),
                obs::msg_span_id(id_, delivered_), node_.clock()(),
                "group,seq,bytes", static_cast<std::uint32_t>(id_),
                delivered_, c.byte_len);
      ++delivered_;
      // Return consumption credits in batches (a real receiver bumps a
      // polled counter; per-message acks would cost a completion each).
      // The batch size divides ring_depth, so a full ring always crosses
      // a batch boundary and the sender can never deadlock; the window
      // is effectively ring_depth - batch + 1 deep.
      const std::uint64_t batch =
          std::max<std::uint64_t>(1, options_.ring_depth / 4);
      if (delivered_ % batch == 0) {
        root_qp_->post_write_imm(static_cast<std::uint32_t>(delivered_), 0);
      }
      break;
    }
    case fabric::WcOpcode::kRecvWriteImm: {
      // Consumption credit from a receiver (the initial write with
      // credit 0 announces the ring window is registered).
      if (rank_ == 0) {
        Peer& peer = peers_[pair_index];
        peer.ready = true;
        peer.consumed = std::max<std::uint64_t>(peer.consumed, c.immediate);
      }
      break;
    }
    case fabric::WcOpcode::kWriteImm:
      break;  // our own credit write finished
    case fabric::WcOpcode::kDisconnect: {
      const NodeId suspect =
          rank_ == 0 ? peers_[pair_index].node : members_[0];
      fail(suspect, true);
      break;
    }
    case fabric::WcOpcode::kSend:
    case fabric::WcOpcode::kRecv:
      // Two-sided traffic never flows on small-group QPs.
      if (c.status != fabric::WcStatus::kSuccess) {
        fail(rank_ == 0 ? peers_[pair_index].node : members_[0], true);
      }
      break;
    case fabric::WcOpcode::kSendUd:
    case fabric::WcOpcode::kRecvUd:
      break;  // datagrams never flow on small-group QPs
  }
}

void SmallMessageGroup::on_failure_notice(NodeId suspect) {
  fail(suspect, false);
}

void SmallMessageGroup::fail(NodeId suspect, bool relay) {
  if (failed_) return;
  failed_ = true;
  RDMC_LOG_INFO("core", "small group %d failed (suspect node %u)", id_,
                suspect);
  if (relay) node_.relay_failure(id_, members_, suspect);
  if (on_failure_) on_failure_(id_, suspect);
}

}  // namespace rdmc
