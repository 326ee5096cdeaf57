#include "derecho_lite/atomic_group.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/logging.hpp"

namespace rdmc::derecho_lite {

namespace {
/// Fabric channel / window namespace for status tables.
constexpr std::uint32_t kStatusChannelBase = 0x20000000u;

struct ControlMsg {
  enum Type : std::uint32_t { kReport = 0, kDecision = 1 };
  std::uint32_t type = kReport;
  NodeId suspect = 0;
  std::uint64_t count = 0;
};
}  // namespace

AtomicGroup::AtomicGroup(Node& node, GroupId id, Membership members,
                         AtomicGroupOptions options,
                         AtomicDeliveryCallback deliver,
                         WedgedCallback on_wedged)
    : node_(node),
      id_(id),
      members_(std::move(members)),
      options_(options),
      deliver_(std::move(deliver)),
      on_wedged_(std::move(on_wedged)),
      data_group_(id) {
  assert(members_.size() >= 2);
  const auto self = std::find(members_.begin(), members_.end(), node_.id());
  assert(self != members_.end());
  rank_ = static_cast<std::size_t>(self - members_.begin());

  status_.assign(members_.size(), 0);
  survivor_counts_.assign(members_.size(), std::nullopt);

  // Expose the status table for one-sided writes and connect the status
  // mesh (all-to-all; member r writes its count into slot r everywhere).
  const std::uint32_t channel =
      kStatusChannelBase | static_cast<std::uint32_t>(id_);
  node_.endpoint().register_window(
      channel, fabric::MemoryView{
                   reinterpret_cast<std::byte*>(status_.data()),
                   status_.size() * sizeof(std::uint64_t)});
  status_qps_.assign(members_.size(), nullptr);
  for (std::size_t r = 0; r < members_.size(); ++r) {
    if (r == rank_) continue;
    status_qps_[r] = node_.fabric().connect(node_.id(), members_[r], channel);
    node_.register_qp(status_qps_[r]->id(), this, r);
  }

  node_.register_control_handler(
      id_, [this](NodeId from, std::span<const std::byte> payload) {
        on_control(from, payload);
      });

  // The underlying RDMC group carries the bulk data (§4.6: "transfers all
  // messages over RDMC").
  const bool ok = node_.create_group(
      data_group_, members_, options_.rdmc,
      [this](std::size_t size) {
        staging_.assign(size, std::byte{0});
        return fabric::MemoryView{staging_.data(), size};
      },
      [this](std::byte*, std::size_t) {
        if (rank_ != 0) on_raw_receipt(std::move(staging_));
      },
      [this](GroupId, NodeId suspect) { on_rdmc_failure(suspect); });
  assert(ok && "underlying RDMC group creation failed");
  (void)ok;
}

AtomicGroup::~AtomicGroup() {
  // Retire the status-table queue pairs (registered with this object as
  // their sink) under the Node lock BEFORE anything else: close() below
  // flushes posted work, and those dead-epoch completions would otherwise
  // dispatch through Node::qp_map_ into a freed sink — a teardown
  // use-after-free the completion thread hit a few percent of the time.
  // destroy_group does the same for the data-plane group's pairs.
  {
    std::lock_guard lock(node_.mutex_);
    node_.retire_qps(this);
  }
  for (auto* qp : status_qps_) {
    if (qp != nullptr) qp->close();
  }
  node_.unregister_control_handler(id_);
  node_.destroy_group(data_group_);
  // Fence the status table before it is freed.
  node_.endpoint().unregister_window(
      kStatusChannelBase | static_cast<std::uint32_t>(id_));
}

bool AtomicGroup::send(const std::byte* data, std::size_t size) {
  // All other entry points run under the Node lock (completion and OOB
  // handlers); serialise the caller-thread send path with them.
  std::lock_guard lock(node_.mutex_);
  if (rank_ != 0 || failed_) return false;
  // RDMC owns the wire copy; we keep our own so the message can be
  // delivered locally once stable.
  std::vector<std::byte> copy(data, data + size);
  if (!node_.send(data_group_, copy.data(), copy.size())) return false;
  // The send buffer must outlive the transfer: park the copy in pending_
  // immediately (it is the next sequence number from this root).
  on_raw_receipt(std::move(copy));
  return true;
}

void AtomicGroup::on_raw_receipt(std::vector<std::byte> message) {
  if (wedged_) return;
  pending_.push_back(std::move(message));
  ++received_;
  status_[rank_] = received_;
  if (received_ % options_.status_period == 0) push_status();
  deliver_stable();
}

void AtomicGroup::push_status() {
  const std::uint32_t channel =
      kStatusChannelBase | static_cast<std::uint32_t>(id_);
  ++status_writes_;
  for (std::size_t r = 0; r < members_.size(); ++r) {
    if (r == rank_ || status_qps_[r] == nullptr) continue;
    // One-sided update of our slot in the peer's table; unsignaled — no
    // sender-side bookkeeping is needed (the SST discipline).
    status_qps_[r]->post_window_write(
        channel, rank_ * sizeof(std::uint64_t),
        fabric::MemoryView{
            reinterpret_cast<std::byte*>(&status_[rank_]),
            sizeof(std::uint64_t)},
        static_cast<std::uint32_t>(status_[rank_]), status_[rank_],
        /*signaled=*/false);
  }
}

std::size_t AtomicGroup::stable_count() const {
  std::uint64_t stable = status_[0];
  for (std::size_t r = 1; r < members_.size(); ++r)
    stable = std::min(stable, status_[r]);
  return static_cast<std::size_t>(stable);
}

void AtomicGroup::deliver_stable() {
  const std::size_t stable = stable_count();
  while (delivered_ < stable && !pending_.empty()) {
    const std::vector<std::byte> message = std::move(pending_.front());
    pending_.pop_front();
    const std::size_t seq = delivered_++;
    if (deliver_) deliver_(seq, message.data(), message.size());
  }
}

void AtomicGroup::on_completion(const fabric::Completion& c,
                                std::size_t pair_index) {
  switch (c.opcode) {
    case fabric::WcOpcode::kRecvWindowWrite:
      // A peer bumped its slot in our table (the bytes already landed);
      // re-evaluate stability.
      if (!wedged_) deliver_stable();
      break;
    case fabric::WcOpcode::kDisconnect:
      on_rdmc_failure(members_[pair_index]);
      break;
    default:
      break;  // unsignaled writes produce nothing else of interest
  }
}

void AtomicGroup::on_failure_notice(NodeId suspect) {
  on_rdmc_failure(suspect);
}

void AtomicGroup::on_rdmc_failure(NodeId suspect) {
  if (failed_ || wedged_) return;
  failed_ = true;
  suspect_ = suspect;
  RDMC_LOG_INFO("derecho_lite", "group %d: failure (suspect %u); starting "
                "leader cleanup", id_, suspect);
  // §4.6: "a leader-based cleanup mechanism ... to collect state from all
  // surviving nodes, analyze the outcome, and then tell the participants
  // which buffered messages to deliver and which to discard."
  // Every survivor reports its received count to the lowest-ranked
  // survivor.
  NodeId leader = members_[0];
  for (NodeId m : members_) {
    if (m != suspect) {
      leader = m;
      break;
    }
  }
  ControlMsg report{ControlMsg::kReport, suspect_, received_};
  std::vector<std::byte> payload(sizeof report);
  std::memcpy(payload.data(), &report, sizeof report);
  if (node_.id() == leader) {
    // Record our own report locally.
    survivor_counts_[rank_] = received_;
    maybe_decide();
  } else {
    node_.send_control(id_, leader, std::move(payload));
  }
}

void AtomicGroup::on_control(NodeId from, std::span<const std::byte> payload) {
  if (payload.size() < sizeof(ControlMsg)) return;
  ControlMsg msg;
  std::memcpy(&msg, payload.data(), sizeof msg);
  if (msg.type == ControlMsg::kReport) {
    // Leader side: a survivor's count. A report can arrive before we have
    // locally observed the failure; adopt its suspect and join cleanup.
    if (!failed_) on_rdmc_failure(msg.suspect);
    const auto it = std::find(members_.begin(), members_.end(), from);
    if (it == members_.end()) return;
    survivor_counts_[static_cast<std::size_t>(it - members_.begin())] =
        msg.count;
    maybe_decide();
  } else if (msg.type == ControlMsg::kDecision) {
    if (!failed_) on_rdmc_failure(msg.suspect);
    wedge(static_cast<std::size_t>(msg.count), msg.suspect);
  }
}

void AtomicGroup::maybe_decide() {
  // Leader: once every survivor reported, the safe prefix is the minimum —
  // every survivor provably holds those messages.
  std::uint64_t safe = received_;
  for (std::size_t r = 0; r < members_.size(); ++r) {
    if (members_[r] == suspect_) continue;
    if (r == rank_) continue;
    if (!survivor_counts_[r].has_value()) return;  // still collecting
    safe = std::min(safe, *survivor_counts_[r]);
  }
  ControlMsg decision{ControlMsg::kDecision, suspect_, safe};
  std::vector<std::byte> payload(sizeof decision);
  std::memcpy(payload.data(), &decision, sizeof decision);
  for (NodeId m : members_) {
    if (m == suspect_ || m == node_.id()) continue;
    node_.send_control(id_, m, payload);
  }
  wedge(static_cast<std::size_t>(safe), suspect_);
}

void AtomicGroup::wedge(std::size_t safe_prefix, NodeId suspect) {
  if (wedged_) return;
  wedged_ = true;
  // Deliver exactly the agreed prefix; discard the rest (§4.6: "which
  // buffered messages to deliver and which to discard").
  while (delivered_ < safe_prefix && !pending_.empty()) {
    const std::vector<std::byte> message = std::move(pending_.front());
    pending_.pop_front();
    const std::size_t seq = delivered_++;
    if (deliver_) deliver_(seq, message.data(), message.size());
  }
  pending_.clear();
  if (on_wedged_) on_wedged_(safe_prefix, suspect);
}

}  // namespace rdmc::derecho_lite
