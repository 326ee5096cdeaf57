// The RDMC group engine (paper §4.2-4.3).
//
// A Group is a pure event-driven state machine: it reacts to fabric
// completions and emits verb posts, so identical code runs on the threaded
// MemFabric and the virtual-time SimFabric.
//
// Execution model. The schedule's asynchronous steps are flattened into,
// for every neighbour pair, a FIFO list of outgoing blocks and a FIFO list
// of incoming blocks (ordered by step). Correctness then rests on three
// rules, each from the paper:
//   1. per-QP FIFO — RC verbs deliver in post order (§2);
//   2. ready-for-block — a send is posted only once the receiver has
//      granted a credit for it by posting the matching receive and issuing
//      a one-sided write (§4.2), so RNR retries never happen;
//   3. availability gating — a send whose block has not arrived yet simply
//      stays pending, the decoupling §4.3 describes.
//
// Message framing. Every block carries the total message size as its
// 32-bit immediate. Each receiver keeps exactly one "first block" receive
// armed between messages, on its *designated first pair* — the neighbour
// its first block always arrives from, which is invariant across message
// sizes for every supported schedule (verified at group creation by
// probing, and by the property suite). Only that pair holds a pre-granted
// ready-for-block credit while the group is idle; every other pair's
// credits are granted after activation, so a neighbour running a message
// ahead can never inject a future message's block out of sequence. The
// scratch block is copied to its in-message offset once the size is known
// (§4.2 Data Transfer). The scratch is never zero-filled: the group only
// copies out bytes the fabric wrote into it, and a phantom transfer writes
// none (fabric.hpp, MemoryView), so a phantom receiver's scratch stays
// address space that is never made resident. The root normally never
// receives, but schedules such as the MPI scatter+allgather baseline route
// (redundant) blocks through it post-activation; the engine supports that
// uniformly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/rdmc.hpp"
#include "sched/schedule.hpp"

namespace rdmc {

class Group : public QpSink {
 public:
  Group(Node& node, GroupId id, Membership members,
        GroupOptions options, IncomingMessageCallback incoming,
        MessageCompletionCallback completion, FailureCallback on_failure);
  ~Group();

  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  GroupId id() const { return id_; }
  bool is_root() const { return rank_ == 0; }
  std::size_t rank() const { return rank_; }
  bool failed() const { return failed_; }

  /// Root only: enqueue a message (data/size must stay valid until the
  /// completion callback fires for it).
  bool send(std::byte* data, std::size_t size);

  /// Fabric event entry points (called by Node with its lock held).
  void on_completion(const fabric::Completion& c,
                     std::size_t pair_index) override;
  void on_failure_notice(NodeId suspect) override;

  // -- Introspection ------------------------------------------------------

  struct Stats {
    std::uint64_t messages_sent = 0;       // root: locally completed sends
    std::uint64_t messages_delivered = 0;  // non-root: delivered messages
    std::uint64_t blocks_sent = 0;
    std::uint64_t blocks_received = 0;
    std::uint64_t duplicate_blocks = 0;  // aliasing / baseline redundancy
    double last_transfer_start = 0.0;
    double last_transfer_end = 0.0;
    /// Local setup seconds (allocation callback + list building).
    double setup_seconds = 0.0;
    /// Scratch-to-offset first-block copy seconds (§4.2).
    double copy_seconds = 0.0;
    // Fault-path counters: what the failure machinery saw, including
    // quarantined completions arriving after the group failed.
    std::uint64_t flushed_completions = 0;  // kFlushed status seen
    std::uint64_t disconnects = 0;          // kDisconnect completions seen
    std::uint64_t failure_notices = 0;      // relayed OOB notices received
  };
  const Stats& stats() const { return stats_; }

  /// One-line-per-pair snapshot of the engine's counters (for diagnostics
  /// and the failure-investigation examples).
  std::string debug_dump() const;

 private:
  /// Per-neighbour connection state. Credit counters are cumulative over
  /// the group's lifetime so consecutive messages cannot be confused.
  struct Pair {
    NodeId peer = 0;              // fabric node id
    std::uint32_t peer_rank = 0;  // rank within the group
    fabric::QueuePair* qp = nullptr;

    // Sender side.
    std::vector<std::size_t> send_blocks;  // this message, schedule order
    std::size_t next_send = 0;             // index into send_blocks
    std::uint64_t sends_posted = 0;        // cumulative
    std::uint64_t credits_from_peer = 0;   // cumulative recvs peer posted

    // Receiver side.
    std::vector<std::size_t> recv_blocks;  // this message, schedule order
    std::size_t next_recv_post = 0;        // posts issued for this message
    std::size_t recvs_completed_msg = 0;   // completions for this message
    std::uint64_t credits_granted = 0;     // cumulative recvs we posted
  };

  /// Root: begin transmitting the head of the send queue.
  void start_next_outgoing();
  /// Build per-pair send/recv lists for a k-block message.
  void build_transfer_lists(std::size_t num_blocks);
  /// Index into pairs_ (sorted by peer_rank) of the pair with `peer_rank`.
  std::size_t pair_index_of(std::uint32_t peer_rank) const;
  /// A first block arrived (in the designated pair's scratch) while idle.
  void activate_incoming(std::size_t pair_index, std::uint32_t size_imm);
  /// Re-arm the scratch first-block receive on the designated first pair.
  void arm_first_block();
  /// Post receives up to the window on one pair; grant credits.
  void post_receives(std::size_t pair_index);
  /// Post every currently eligible send on one pair.
  void pump_sends(std::size_t pair_index);
  void pump_all_sends();
  /// Handle a completed receive (block landed, possibly via scratch).
  void on_recv_completion(std::size_t pair_index,
                          const fabric::Completion& c);
  /// A block of the active message was received.
  void on_block_received(std::size_t pair_index, std::size_t block);
  void on_send_completed(std::size_t pair_index, std::uint64_t wr_id);
  void check_message_done();
  void finish_message();
  void fail(NodeId suspect, bool relay);

  std::size_t block_offset(std::size_t block) const {
    return block * options_.block_size;
  }
  std::size_t block_bytes(std::size_t block) const;

  Node& node_;
  GroupId id_;
  Membership members_;
  GroupOptions options_;
  IncomingMessageCallback incoming_;
  MessageCompletionCallback completion_;
  FailureCallback on_failure_;

  std::size_t rank_ = 0;
  std::unique_ptr<sched::Schedule> schedule_;
  std::vector<Pair> pairs_;  // sorted by peer_rank
  /// Index of the designated first pair (SIZE_MAX for the root).
  std::size_t first_pair_ = SIZE_MAX;
  /// Scratch landing zone for each message's first block: block_size
  /// bytes, uninitialised (receivers only).
  std::unique_ptr<std::byte[]> scratch_;
  /// Whether the scratch receive is currently posted and unconsumed.
  bool scratch_armed_ = false;

  // Active message state.
  bool transfer_active_ = false;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t num_blocks_ = 0;
  std::vector<bool> have_;
  std::size_t have_count_ = 0;
  std::uint64_t msg_sends_total_ = 0;
  std::uint64_t msg_sends_done_ = 0;
  std::uint64_t msg_recvs_total_ = 0;
  std::uint64_t msg_recvs_done_ = 0;

  /// Root-side queue of outgoing messages (paper: sends are ordered).
  struct Outgoing {
    std::byte* data;
    std::size_t size;
  };
  std::deque<Outgoing> outbox_;

  bool failed_ = false;
  Stats stats_;
};

}  // namespace rdmc
