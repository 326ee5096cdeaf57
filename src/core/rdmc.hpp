// RDMC public API (paper Figure 1).
//
// One rdmc::Node per process/member, bound to a fabric endpoint. Groups are
// created collectively — every member calls create_group with identical
// membership — and within a group only the root (first member) sends.
// Messages of any size flow through the group; receivers learn each
// message's size from the immediate value on its first block and allocate
// via the incoming-message callback (§4.2).
//
//   rdmc::Node node(fabric, my_id, clock);
//   node.create_group(7, {0, 1, 2, 3}, options,
//       /*incoming=*/[&](std::size_t size) { return my_alloc(size); },
//       /*completion=*/[&](std::byte* data, std::size_t size) { ... });
//   if (my_id == 0) node.send(7, data, size);
//
// Reliability contract (§3): within a group, messages arrive uncorrupted,
// in sender order, without duplication — or the group reports a failure to
// every survivor, after which the application tears it down and re-forms it
// (§4.6 "Recovery From Failure").
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/options.hpp"
#include "fabric/fabric.hpp"

namespace rdmc {

using NodeId = fabric::NodeId;
using GroupId = std::int32_t;

/// A group's members in rank order (the front member is the root).
/// Immutable and shared: copies share one list, so the groups of all the
/// members one process hosts (the simulator hosts every node) hold a single
/// n-entry list between them instead of n private copies. Converts
/// implicitly from a vector or a braced list of node ids.
class Membership {
 public:
  Membership() : Membership(std::vector<NodeId>{}) {}
  Membership(std::vector<NodeId> members)
      : list_(std::make_shared<const std::vector<NodeId>>(
            std::move(members))) {}
  Membership(std::initializer_list<NodeId> members)
      : Membership(std::vector<NodeId>(members)) {}

  std::size_t size() const { return list_->size(); }
  NodeId operator[](std::size_t rank) const { return (*list_)[rank]; }
  NodeId front() const { return list_->front(); }
  std::vector<NodeId>::const_iterator begin() const { return list_->begin(); }
  std::vector<NodeId>::const_iterator end() const { return list_->end(); }

 private:
  std::shared_ptr<const std::vector<NodeId>> list_;
};

/// Called on receivers when a new transfer begins; returns the memory
/// region the message lands in (may be phantom — null data — in simulated
/// cluster-scale runs). Registration cost considerations are the
/// application's (§4.6 Memory management).
using IncomingMessageCallback =
    std::function<fabric::MemoryView(std::size_t size)>;

/// Called when a message send/receive is locally complete and the region
/// can be reused. Note other receivers may still be mid-transfer (§4.1).
using MessageCompletionCallback =
    std::function<void(std::byte* data, std::size_t size)>;

/// Called once when the group fails (a member crashed or a connection
/// broke); `suspect` is the member the failure was detected against.
using FailureCallback = std::function<void(GroupId group, NodeId suspect)>;

/// Virtual-or-real clock, seconds. SimFabric users pass the simulator
/// clock; MemFabric users the default steady clock.
using Clock = std::function<double()>;

Clock steady_clock_seconds();

/// Consumer of completions for a set of queue pairs (implemented by the
/// RDMC Group engine and by the small-message protocol of §4.6).
class QpSink {
 public:
  virtual ~QpSink() = default;
  virtual void on_completion(const fabric::Completion& c,
                             std::size_t pair_index) = 0;
  virtual void on_failure_notice(NodeId suspect) = 0;
};

class Group;
class SmallMessageGroup;
struct SmallGroupOptions;
namespace derecho_lite {
class AtomicGroup;
}

/// Per-member RDMC instance. Thread-safe; callbacks are invoked on the
/// fabric's completion thread for this endpoint.
class Node {
 public:
  Node(fabric::Fabric& fabric, NodeId id, Clock clock = {});
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Create a new group with the designated members (first member is the
  /// root). Must be called by every member with identical arguments;
  /// returns false if the group id is in use or the arguments are invalid.
  /// A process hosting several members passes them one Membership, so they
  /// share a single copy of the list.
  bool create_group(GroupId group, Membership members,
                    GroupOptions options,
                    IncomingMessageCallback incoming_message,
                    MessageCompletionCallback message_completion,
                    FailureCallback on_failure = {});

  /// Destroy the group and deallocate associated resources. Returns false
  /// (and still destroys) if the group had failed — mirroring the paper's
  /// "failure is always reported when closing the group" (§4.6).
  ///
  /// Group ids name fabric channels, so an id must not be reused while any
  /// member still holds the old group (the paper's recovery flow likewise
  /// re-forms groups under fresh numbers). Fresh ids are always safe.
  bool destroy_group(GroupId group);

  /// Attempt to send a message to the group. Fails if this node is not the
  /// root, the group is unknown/failed, or size is 0 or >= 4 GiB (the size
  /// immediate is 32-bit). Messages queue and transmit in order.
  bool send(GroupId group, std::byte* data, std::size_t size);

  // -- Small-message protocol (§4.6) --------------------------------------
  // One-sided writes into per-receiver round-robin bounded buffers; up to
  // ~5x faster than RDMC for small messages in small groups, while the
  // binomial pipeline dominates beyond ~16 members / ~10 KB.

  /// Create a small-message group (same collective contract and id space
  /// as create_group; ids must not collide across the two kinds).
  bool create_small_group(
      GroupId group, Membership members, const SmallGroupOptions& options,
      std::function<void(const std::byte* data, std::size_t size)> deliver,
      std::function<void(std::size_t seq)> sent = {},
      FailureCallback on_failure = {});

  /// Root only: send one small message (size <= options.slot_size). The
  /// buffer must stay valid until the `sent` callback fires for its
  /// sequence number. Returns false when the group is unknown/failed, the
  /// caller is not the root, or the send window is full (backpressure).
  bool send_small(GroupId group, const std::byte* data, std::size_t size);

  bool destroy_small_group(GroupId group);

  /// True once the group has observed a failure.
  bool group_failed(GroupId group) const;

  /// Reliable control-plane messaging over the out-of-band mesh, scoped by
  /// group id (used by layers above RDMC, e.g. the atomic-multicast
  /// extension's cleanup protocol, §4.6).
  void send_control(GroupId group, NodeId to, std::vector<std::byte> payload);
  void register_control_handler(
      GroupId group,
      std::function<void(NodeId from, std::span<const std::byte>)> handler);
  void unregister_control_handler(GroupId group);

  NodeId id() const { return id_; }
  const Clock& clock() const { return clock_; }
  fabric::Fabric& fabric() { return fabric_; }
  fabric::Endpoint& endpoint() { return endpoint_; }

  /// Aggregate per-group statistics (see Group::Stats in group.hpp).
  const Group* group(GroupId group) const;

 private:
  friend class Group;
  friend class SmallMessageGroup;
  friend class derecho_lite::AtomicGroup;

  void on_completion(const fabric::Completion& c);
  void on_oob(NodeId from, std::span<const std::byte> payload);
  /// Relay a failure observation to all members of a group (§3 item 6).
  void relay_failure(GroupId group, const Membership& members,
                     NodeId suspect);
  void register_qp(fabric::QpId qp, QpSink* sink, std::size_t pair_index);
  /// Move every queue pair routed to `sink` into the retired set and purge
  /// its buffered unrouted completions (group teardown, §4.6).
  void retire_qps(QpSink* sink);

  fabric::Fabric& fabric_;
  fabric::Endpoint& endpoint_;
  NodeId id_;
  Clock clock_;
  /// Reentrant by necessity: completion dispatch re-enters the Node through
  /// user callbacks (a delivery handler may create or destroy groups), and
  /// Clang Thread Safety Analysis has no reentrancy model — so this stays a
  /// raw recursive mutex outside the util::Mutex vocabulary (DESIGN.md §11).
  // rdmc-lint: allow(raw-mutex) reentrant completion dispatch; TSA cannot model recursive locking
  mutable std::recursive_mutex mutex_;
  std::unordered_map<GroupId, std::unique_ptr<Group>> groups_;
  std::unordered_map<GroupId, std::unique_ptr<SmallMessageGroup>>
      small_groups_;
  std::unordered_map<fabric::QpId, std::pair<QpSink*, std::size_t>> qp_map_;
  std::unordered_map<GroupId,
                     std::function<void(NodeId, std::span<const std::byte>)>>
      control_handlers_;
  /// Completions for queue pairs not registered yet. create_group is
  /// collective but not synchronised (the paper barriers over its TCP
  /// mesh); a member that creates the group early may send ready-for-block
  /// credits before a peer has created its side. Those completions are
  /// buffered here and replayed on registration.
  std::vector<fabric::Completion> unrouted_;
  /// Queue pairs of destroyed groups. Their dead-epoch completions (often
  /// flushes racing the teardown) are dropped instead of being buffered in
  /// unrouted_, where they would eventually crowd out genuine early
  /// credits during long recovery campaigns. register_qp removes the id
  /// again: a re-formed group reusing a channel gets the same QP back.
  std::unordered_set<fabric::QpId> retired_qps_;
};

}  // namespace rdmc
