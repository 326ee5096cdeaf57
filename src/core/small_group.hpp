// Small-message protocol (paper §4.6 "Small messages").
//
// RDMC is built for bulk transfers; for small messages Derecho layers an
// optimised protocol over one-sided RDMA writes "into a set of round-robin
// bounded buffers, one per receiver", which the paper reports is up to 5x
// faster than RDMC for groups of up to ~16 members and messages up to
// ~10 KB — beyond that, the binomial pipeline dominates.
//
// This is that protocol. Each receiver exposes a ring of `ring_depth`
// slots of `slot_size` bytes as a one-sided window. The root writes
// message seq into slot (seq % ring_depth) of every receiver's ring with
// the byte count as the immediate; per-QP FIFO makes the arrival order the
// sequence order, so no headers are needed. Receivers return cumulative
// consumption credits with tiny one-sided writes; the root never lets more
// than `ring_depth` messages be outstanding toward any receiver, so slots
// are never overwritten while live (the bounded-buffer discipline).
//
// Failure semantics mirror the RDMC group: a broken connection fails the
// group everywhere via the out-of-band relay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/rdmc.hpp"

namespace rdmc {

struct SmallGroupOptions {
  /// Maximum message size (a ring slot).
  std::size_t slot_size = 10 * 1024;
  /// Slots per receiver ring; bounds sender-side pipelining. Credits
  /// return in ring_depth/4 batches, so the effective window is
  /// ring_depth - ring_depth/4 + 1.
  std::size_t ring_depth = 32;
  /// Sender-side completion signalling period: 1 signals every write (the
  /// `sent` callback is precise); k>1 signals every k-th write (cheaper —
  /// real senders batch signals — but `sent` lags up to k-1 messages until
  /// the next signaled write).
  std::size_t signal_period = 1;
};

class SmallMessageGroup final : public QpSink {
 public:
  SmallMessageGroup(
      Node& node, GroupId id, Membership members,
      const SmallGroupOptions& options,
      std::function<void(const std::byte* data, std::size_t size)> deliver,
      std::function<void(std::size_t seq)> sent, FailureCallback on_failure);
  ~SmallMessageGroup() override;

  SmallMessageGroup(const SmallMessageGroup&) = delete;
  SmallMessageGroup& operator=(const SmallMessageGroup&) = delete;

  GroupId id() const { return id_; }
  bool is_root() const { return rank_ == 0; }
  bool failed() const { return failed_; }

  /// Root only. False on overflow (any receiver's window full), failure,
  /// or size > slot_size. The buffer must remain valid until `sent(seq)`.
  bool send(const std::byte* data, std::size_t size);

  /// Messages fully acknowledged (safe high-water mark for buffer reuse).
  std::size_t sent_count() const { return sent_complete_; }

  // QpSink
  void on_completion(const fabric::Completion& c,
                     std::size_t pair_index) override;
  void on_failure_notice(NodeId suspect) override;

 private:
  struct Peer {
    NodeId node = 0;
    fabric::QueuePair* qp = nullptr;
    /// The receiver announced its ring window (first credit write seen);
    /// sending before this would fault on an unregistered window.
    bool ready = false;
    /// Cumulative messages the receiver has consumed (freed slots).
    std::uint64_t consumed = 0;
    /// Cumulative write completions observed for this peer.
    std::uint64_t writes_done = 0;
  };

  void fail(NodeId suspect, bool relay);
  void note_send_progress();

  Node& node_;
  GroupId id_;
  Membership members_;
  SmallGroupOptions options_;
  std::function<void(const std::byte*, std::size_t)> deliver_;
  std::function<void(std::size_t)> sent_;
  FailureCallback on_failure_;

  std::size_t rank_ = 0;
  bool failed_ = false;

  // Root state.
  std::vector<Peer> peers_;
  std::uint64_t next_seq_ = 0;        // next message sequence to send
  std::uint64_t sent_complete_ = 0;   // messages with all writes+acks done

  // Receiver state.
  std::vector<std::byte> ring_;
  std::uint64_t delivered_ = 0;       // messages consumed (== credits)
  fabric::QueuePair* root_qp_ = nullptr;
};

}  // namespace rdmc
