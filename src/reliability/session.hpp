// UdMulticastSession: multicast one object over unreliable datagrams with
// a software reliability policy.
//
// The session drives every member of the group in one process (exactly how
// the benches drive MemFabric/SimFabric), as a pure event-driven state
// machine: fabric completions and OOB control messages in, verb posts out,
// so identical code runs on the threaded fabrics and the virtual-time
// simulator.
//
// Data path. The policy defines a wire-block rotation (data blocks, plus
// Reed-Solomon parity for the erasure policy) and an existing schedule
// from src/sched maps that rotation onto point-to-point transfers. Unlike
// the RC engine, transfers ride post_send_ud: no ready-for-block credits,
// no break-on-loss — a relay simply sends a scheduled block the moment it
// holds it (out-of-order relay; RC's per-QP FIFO gating deliberately does
// not apply, because a dropped datagram must never stall the blocks queued
// behind it). Each datagram's immediate carries the wire-block index in
// bits 0..23 and a retransmission flag in bit 31.
//
// Control path (reliable OOB mesh):
//   kMsgStart  root -> all     geometry announcement
//   kReady     member -> root  receives posted; root pumps only after all
//   kProbe     root -> member  "what are you missing?" (source-driven NACK)
//   kStatus    member -> root  missing wire blocks, capped per round
//   kComplete  member -> root  message reconstructed (after decode)
// Each message carries the session's relay channel, and a session ignores
// messages from other channels: a message of a destroyed session can still
// be queued at an endpoint that the next session's handlers now serve.
//
// Repair. The root retransmits NACKed blocks over dedicated repair QPs
// (root <-> each member on channel base+1) with the retx immediate flag,
// so repairs bypass the relay tree and trace spans can attribute
// retransmit time separately. A per-(member, block) holdoff keeps a block
// from being retransmitted again until `retx_holdoff` probe rounds have
// passed — NACKs race in-flight repairs, and the holdoff absorbs exactly
// that race. Probe rounds are paced by the OOB round-trip; there are no
// timers, so the same logic terminates under virtual and wall clocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fabric/fabric.hpp"
#include "obs/metrics.hpp"
#include "reliability/policy.hpp"
#include "sched/schedule.hpp"
#include "util/thread_annotations.hpp"

namespace rdmc::reliability {

struct SessionOptions {
  sched::Algorithm algorithm = sched::Algorithm::kBinomialPipeline;
  Policy policy = Policy::kSelectiveRepeat;
  std::size_t block_size = 64 * 1024;
  /// Erasure stripe geometry: k data + m parity symbols.
  std::size_t rs_k = 8;
  std::size_t rs_m = 2;
  /// Max wire blocks reported per kStatus and retransmitted per round.
  std::size_t nack_window = 1024;
  /// UD receives kept posted per receiving queue pair: the links the
  /// schedule receives on, plus a member's repair lane. The root receives
  /// no datagrams and posts none. In real mode each receiving link holds
  /// one recv_depth x block_size landing slab.
  std::size_t recv_depth = 64;
  /// Datagrams posted and not yet completed (kSendUd) per outgoing queue
  /// pair. This bounds the sender's queue, not the receiver's: MemFabric
  /// completes kSendUd when it places the datagram, so the option does not
  /// pace receivers there. A datagram that finds no posted receive is
  /// discarded and counted as no_recv (receiver overrun).
  std::size_t send_inflight = 32;
  /// A NACKed block is not retransmitted again for this many probe rounds
  /// (absorbs the NACK-vs-in-flight-repair race).
  std::size_t retx_holdoff = 2;
  /// kNone gives up on a member after this many probe rounds without
  /// progress; repair policies keep probing until max_rounds.
  std::size_t giveup_rounds = 5;
  std::size_t max_rounds = 10000;
  /// Fabric channel for the relay tree; repair QPs use channel + 1. The
  /// session owns both channels: the destructor closes every queue pair it
  /// connected on them, for good (a closed QP never reopens), so each
  /// session needs channels no earlier session used.
  std::uint32_t channel = 0;
  /// Clock used for trace timestamps and latency stats. Defaults to host
  /// wall time; pass the simulator's now() under SimFabric.
  std::function<double()> clock;
  /// Virtual-CPU charge hook for decode work: (node, seconds) -> time the
  /// work completes. Defaults to executing in-line (threaded fabrics).
  std::function<double(fabric::NodeId, double)> charge_cpu;
  /// Modelled erasure decode rate for the charge hook, bytes/second.
  double decode_Bps = 1.0e9;
  /// Optional live metrics sink (a labeled obs::MetricsScope, e.g.
  /// registry.scope("policy=sr,cell=3")). The session bumps datagram /
  /// retransmit / probe counters as it posts and records per-member
  /// delivery latency into "ud.delivery_latency_s" at delivery time, so
  /// telemetry windows and SLO trackers see the session live rather than
  /// via SessionStats after the fact. Lookups happen once at
  /// construction; the hot path touches cached references only. Must
  /// outlive the session.
  obs::MetricsScope* metrics = nullptr;
};

struct MemberResult {
  bool complete = false;
  bool failed = false;  // gave up (kNone with losses, or max_rounds)
  double deliver_ts = 0.0;
  std::uint64_t retx_received = 0;
  std::uint64_t status_reports = 0;
};

struct SessionStats {
  std::uint64_t wire_blocks = 0;       // rotation size (data + parity)
  std::uint64_t parity_blocks = 0;     // parity portion of the rotation
  std::uint64_t datagrams_sent = 0;    // relay-tree datagrams posted
  std::uint64_t retx_datagrams = 0;    // repair datagrams posted
  std::uint64_t probe_rounds = 0;
  std::uint64_t decode_bytes = 0;      // modelled reconstruction work
  double msg_start_ts = 0.0;           // pump start (after all kReady)
  double last_deliver_ts = 0.0;        // slowest member's delivery
};

class UdMulticastSession {
 public:
  /// `members[0]` is the root. The fabric must host every member.
  UdMulticastSession(fabric::Fabric& fabric, std::vector<fabric::NodeId> members,
                     SessionOptions options);
  /// Detaches the session's handlers, then closes every queue pair it
  /// connected on `channel` and `channel + 1`.
  ~UdMulticastSession();

  UdMulticastSession(const UdMulticastSession&) = delete;
  UdMulticastSession& operator=(const UdMulticastSession&) = delete;

  /// Multicast [data, data+size) from the root. Null data runs in phantom
  /// mode (no payload bytes move; availability and timing are exact).
  /// One message per session. Returns false on bad arguments.
  bool send(const std::byte* data, std::size_t size);

  /// All members have either completed or been given up on.
  bool done() const;
  /// Every member completed (no give-ups).
  bool all_complete() const;
  /// Block until done() — threaded fabrics only (under SimFabric, run the
  /// simulator instead; events drive the session to completion).
  void wait_done();

  /// Quiescent-read accessors: valid once done() returned true (or under
  /// SimFabric after the simulator drained). Returning a reference to
  /// guarded state without the lock is deliberate — copies per poll would
  /// be waste, and a post-done reader races nothing; hence the analysis
  /// opt-out.
  const SessionStats& stats() const RDMC_NO_THREAD_SAFETY_ANALYSIS {
    return stats_;
  }
  const std::vector<MemberResult>& results() const
      RDMC_NO_THREAD_SAFETY_ANALYSIS {
    return results_;
  }

  /// Reconstructed message at a non-root member (real mode only).
  std::span<const std::byte> member_data(std::size_t rank) const;

 private:
  struct Node;
  struct RootState;

  static constexpr std::uint32_t kImmBlockMask = 0x00FFFFFFu;
  static constexpr std::uint32_t kImmRetx = 0x80000000u;

  double now() const;
  // Lock-held helpers: callers are send() and the completion/OOB handlers,
  // which each take mutex_ themselves.
  void setup_node(std::size_t rank) RDMC_REQUIRES(mutex_);
  void post_recvs(Node& n, std::size_t link) RDMC_REQUIRES(mutex_);
  void pump_link(Node& n, std::size_t link) RDMC_REQUIRES(mutex_);
  void block_available(Node& n, std::size_t wire_block)
      RDMC_REQUIRES(mutex_);
  void on_completion(std::size_t rank, const fabric::Completion& c);
  void on_oob(std::size_t rank, fabric::NodeId from,
              std::span<const std::byte> payload);
  void root_probe(std::size_t member_rank);
  void root_on_status(std::size_t member_rank,
                      const std::vector<std::uint32_t>& missing,
                      std::uint64_t have_count);
  void member_check_complete(Node& n) RDMC_REQUIRES(mutex_);
  void finish_member(std::size_t member_rank, bool failed)
      RDMC_REQUIRES(mutex_);
  fabric::MemoryView wire_view(const Node& n, std::size_t wire_block) const
      RDMC_REQUIRES(mutex_);

  fabric::Fabric& fabric_;
  std::vector<fabric::NodeId> members_;
  SessionOptions options_;
  std::unique_ptr<ReliabilityPolicy> policy_;

  mutable util::Mutex mutex_;
  util::CondVar done_cv_;

  // Message geometry (fixed at send()).
  const std::byte* data_ RDMC_GUARDED_BY(mutex_) = nullptr;  // null = phantom
  std::size_t size_ RDMC_GUARDED_BY(mutex_) = 0;
  std::size_t data_blocks_ RDMC_GUARDED_BY(mutex_) = 0;
  std::size_t wire_blocks_ RDMC_GUARDED_BY(mutex_) = 0;
  bool phantom_ RDMC_GUARDED_BY(mutex_) = true;
  /// Root-side parity symbols: dense ordinal * block_size is the offset of
  /// each block_size-byte symbol.
  std::unique_ptr<std::byte[]> root_parity_ RDMC_GUARDED_BY(mutex_);

  std::vector<std::unique_ptr<Node>> nodes_ RDMC_GUARDED_BY(mutex_);
  std::unique_ptr<RootState> root_ RDMC_GUARDED_BY(mutex_);
  std::vector<MemberResult> results_ RDMC_GUARDED_BY(mutex_);  // by rank
  std::size_t ready_count_ RDMC_GUARDED_BY(mutex_) = 0;
  std::size_t finished_members_ RDMC_GUARDED_BY(mutex_) = 0;
  bool pumping_ RDMC_GUARDED_BY(mutex_) = false;
  bool done_ RDMC_GUARDED_BY(mutex_) = false;
  SessionStats stats_ RDMC_GUARDED_BY(mutex_);

  // Cached metric handles (null when options_.metrics is unset).
  obs::Counter* metric_datagrams_ = nullptr;
  obs::Counter* metric_retx_ = nullptr;
  obs::Counter* metric_probes_ = nullptr;
  obs::Log2Histogram* metric_latency_ = nullptr;
};

}  // namespace rdmc::reliability
