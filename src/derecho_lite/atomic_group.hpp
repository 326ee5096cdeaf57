// Atomic multicast over RDMC — the Derecho layering sketched in §4.6.
//
// "Derecho augments RDMC with a replicated status table implemented using
// one-sided RDMA writes. On reception of an RDMC message, Derecho buffers
// it briefly. Delivery occurs only after every receiver has a copy of the
// message, which receivers discover by monitoring the status table."
//
// AtomicGroup wraps an RDMC group and adds exactly that:
//   * a *status table* — every member holds an n-slot array of received
//     counts and pushes its own count into every other member's table with
//     one-sided window writes (the SST pattern);
//   * *stability-gated delivery* — a raw RDMC receipt is buffered; it is
//     delivered (in order, with its sequence number) once min over the
//     table says every member holds it. All members therefore deliver the
//     same messages in the same order, and no message is delivered
//     anywhere until it is everywhere (atomic multicast for the
//     failure-free path);
//   * *leader-based cleanup* (§4.6 Recovery From Failure) — when the RDMC
//     group fails, the lowest-ranked survivor collects received counts
//     from all survivors over the control mesh, computes the common safe
//     prefix, and announces it; every survivor then delivers exactly that
//     prefix and reports the group wedged. Survivors thus agree on the
//     delivered sequence even across the failure.
//
// Like Derecho, the layer adds "a small delay" and no bandwidth cost: the
// status writes are tiny one-sided updates off the bulk data path.
//
// Thread-safety: externally synchronised by the owning Node's recursive
// lock (DESIGN.md §11). Every entry point except send() is a completion,
// OOB, or control callback, which the Node invokes with its lock held;
// send() takes the same lock itself. AtomicGroup therefore owns no mutex
// and carries no annotations — its state inherits the Node's exclusion.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/group.hpp"
#include "core/rdmc.hpp"

namespace rdmc::derecho_lite {

/// Atomic delivery: sequence number plus the message bytes (owned by the
/// group; valid for the duration of the callback).
using AtomicDeliveryCallback = std::function<void(
    std::size_t seq, const std::byte* data, std::size_t size)>;

/// The group wedged after a failure; `safe_prefix` messages were (or will
/// have been) delivered by every survivor — the agreed common prefix.
using WedgedCallback =
    std::function<void(std::size_t safe_prefix, NodeId suspect)>;

struct AtomicGroupOptions {
  GroupOptions rdmc;
  /// Push a status update after every message (1) or every k-th (cheaper).
  std::size_t status_period = 1;
};

class AtomicGroup final : public QpSink {
 public:
  AtomicGroup(Node& node, GroupId id, Membership members,
              AtomicGroupOptions options, AtomicDeliveryCallback deliver,
              WedgedCallback on_wedged = {});
  ~AtomicGroup() override;

  AtomicGroup(const AtomicGroup&) = delete;
  AtomicGroup& operator=(const AtomicGroup&) = delete;

  /// Root only: multicast a message atomically. The buffer must stay valid
  /// until the message's atomic delivery at this node.
  bool send(const std::byte* data, std::size_t size);

  bool is_root() const { return rank_ == 0; }
  bool wedged() const { return wedged_; }
  /// Messages atomically delivered at this member so far.
  std::size_t delivered() const { return delivered_; }
  /// Messages received (raw RDMC receipt) at this member so far.
  std::size_t received() const { return received_; }

  // QpSink (status-table queue pairs).
  void on_completion(const fabric::Completion& c,
                     std::size_t pair_index) override;
  void on_failure_notice(NodeId suspect) override;

 private:
  void on_raw_receipt(std::vector<std::byte> message);
  /// Push our received count into every peer's status table.
  void push_status();
  /// Deliver every buffered message the table proves globally received.
  void deliver_stable();
  std::size_t stable_count() const;
  void on_rdmc_failure(NodeId suspect);
  void on_control(NodeId from, std::span<const std::byte> payload);
  /// Leader: decide the safe prefix once every survivor reported.
  void maybe_decide();
  void wedge(std::size_t safe_prefix, NodeId suspect);

  Node& node_;
  GroupId id_;
  Membership members_;
  AtomicGroupOptions options_;
  AtomicDeliveryCallback deliver_;
  WedgedCallback on_wedged_;

  std::size_t rank_ = 0;
  GroupId data_group_;  // the underlying RDMC group id (== id_)

  /// status_[r]: messages member r is known to have received. Our own slot
  /// is authoritative locally; peers' slots arrive via one-sided writes.
  std::vector<std::uint64_t> status_;
  std::vector<fabric::QueuePair*> status_qps_;  // one per peer (rank order)

  /// Landing buffer for the in-flight RDMC message.
  std::vector<std::byte> staging_;
  /// Messages received but not yet stable, in sequence order.
  std::deque<std::vector<std::byte>> pending_;
  std::size_t received_ = 0;
  std::size_t delivered_ = 0;
  std::uint64_t status_writes_ = 0;

  bool failed_ = false;
  bool wedged_ = false;
  // Leader cleanup state.
  std::vector<std::optional<std::uint64_t>> survivor_counts_;
  NodeId suspect_ = 0;
};

}  // namespace rdmc::derecho_lite
