// The four workloads. Each is closed loop with one outstanding op and is
// driven from the driver's single thread; every knob the library offers
// stays at its default (fill_jobs 1, hierarchical solver on, memo on).
//
//   sim_fig8        one binomial-pipeline group over sierra_profile(256),
//                   1 MB blocks, 32 MB messages back to back; op = one
//                   multicast run to quiescence. The flat exact fill, the
//                   event queue and per-member Group setup do the work; the
//                   hierarchical solver never engages.
//   sim_racked      8 rotated-root groups over racked_profile(64, 16, 3.5);
//                   op = one round (every root sends 4 MB, run to
//                   quiescence). The only workload where coupled rack
//                   components engage fill_hierarchical.
//   tcp_rc          4 TcpFabric endpoints on loopback, one group (root + 3
//                   replicas), 1 MB blocks, Cosmos object sizes; op = send
//                   until the last replica delivered. Real bytes over the
//                   RC engine; never touches the reliability layer.
//   mem_ud_erasure  4 MemFabric members, one UdMulticastSession per object
//                   (erasure policy, RS(8,2), 64 KB blocks, 1% seeded
//                   datagram loss), objects 4-16 MB; op = send until the
//                   last member delivered. The only workload running RS
//                   coding, the datagram engine and NACK repair.
#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "core/group.hpp"
#include "core/rdmc.hpp"
#include "fabric/mem_fabric.hpp"
#include "fabric/tcp_fabric.hpp"
#include "harness/sim_harness.hpp"
#include "probes.hpp"
#include "reliability/session.hpp"
#include "sim/cluster_profiles.hpp"
#include "spans.hpp"
#include "util/random.hpp"
#include "workload/cosmos.hpp"

namespace perfbench {
namespace {

using rdmc::GroupId;
using rdmc::NodeId;

/// Ops whose virtual makespans make up virt_goodput_gbps: a fixed count, so
/// the figure is the same on every run however fast the host is.
constexpr std::size_t kVirtOps = 8;

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  rdmc::util::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t x = rng();
    std::memcpy(v.data() + i, &x, std::min<std::size_t>(8, n - i));
  }
  return v;
}

/// Ops cycle through this many seeded object sizes.
constexpr std::size_t kOpSizes = 4096;
constexpr std::size_t kStrata = 64;

/// Object sizes for kOpSizes ops, drawn so that every run of kStrata
/// consecutive ops takes one size from each 1/kStrata quantile band of
/// `pool` (many draws from the workload's size distribution). The op-size
/// mix, and with it op_p50_ms, then does not wander with the luck of a
/// short draw.
std::vector<std::size_t> stratified_sizes(std::vector<std::uint64_t> pool,
                                          rdmc::util::Rng& rng) {
  std::sort(pool.begin(), pool.end());
  const std::size_t band = pool.size() / kStrata;
  std::vector<std::size_t> order(kStrata), sizes;
  for (std::size_t i = 0; i < kOpSizes; ++i) {
    if (i % kStrata == 0) {
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::shuffle(order.begin(), order.end(), rng);
    }
    sizes.push_back(pool[order[i % kStrata] * band + rng.uniform(0, band - 1)]);
  }
  return sizes;
}

/// Object bytes fully delivered by the timed ops, per second of run.
void add_goodput(Report& report, std::uint64_t bytes, double run_s) {
  report.add("goodput_gbps",
             run_s > 0 ? static_cast<double>(bytes) * 8.0 / run_s / 1e9 : 0.0,
             "Gb/s", -1, static_cast<double>(bytes));
}

void add_delta(Samples& s, const char* key, std::uint64_t after,
               std::uint64_t before) {
  s[key].push_back(static_cast<double>(after - before));
}

// -- Simulator workloads ---------------------------------------------------

/// Shared shape of the two sim workloads: a SimCluster whose groups all
/// send once per op, then the simulator runs to quiescence.
class SimWorkload : public Workload {
 public:
  void teardown(Spans& spans) override {
    Spans::Scope s(spans, "SimCluster::~SimCluster", Layer::kHarness);
    cluster_.reset();
  }

  OpOutcome op(std::uint64_t index, bool traced, Spans& spans,
               Samples& samples) override {
    rdmc::harness::PerfStats before;
    BlockCounts blocks_before;
    if (traced) {
      Spans::Scope s(spans, "SimCluster::perf_stats", Layer::kHarness, index);
      before = cluster_->perf_stats();
      blocks_before = block_counts(spans, index);
    }
    const double v0 = cluster_->sim().now();
    double t0 = 0.0, t1 = 0.0, send_s = 0.0, run_s = 0.0;
    bool ok = true;
    {
      Spans::Scope op_span(spans, "op", Layer::kBench, index);
      t0 = now();
      {
        // Group g is rooted at node g.
        Spans::Scope s(spans, "Node::send", Layer::kCore, index);
        for (GroupId g : groups_)
          ok = cluster_->node(static_cast<NodeId>(g))
                   .send(g, nullptr, message_bytes_) &&
               ok;
        send_s = now() - t0;
      }
      {
        Spans::Scope s(spans, "SimCluster::run_to_quiescence", Layer::kSim,
                       index);
        const double r0 = now();
        cluster_->run_to_quiescence();
        run_s = now() - r0;
      }
      t1 = now();
    }

    // Every member of every group delivered exactly one more message and
    // nobody reported a failure.
    double last = v0;
    {
      Spans::Scope s(spans, "check", Layer::kBench, index);
      for (GroupId g : groups_) {
        const auto& rec = cluster_->record(g);
        ok = ok && rec.failure_log.empty();
        for (const auto& times : rec.delivery_times) {
          ok = ok && times.size() == delivered_ + 1;
          if (!times.empty()) last = std::max(last, times.back());
        }
      }
    }
    ++delivered_;
    if (index > 0 && virt_.size() < kVirtOps) virt_.push_back(last - v0);

    if (traced) {
      rdmc::harness::PerfStats after;
      {
        Spans::Scope s(spans, "SimCluster::perf_stats", Layer::kHarness,
                       index);
        after = cluster_->perf_stats();
      }
      const BlockCounts blocks = block_counts(spans, index);
      const double received =
          static_cast<double>(blocks.received - blocks_before.received);
      samples["core.send_call_us"].push_back(send_s * 1e6);
      samples["core.blocks_received"].push_back(received);
      samples["core.duplicate_frac"].push_back(
          received > 0 ? static_cast<double>(blocks.duplicate -
                                             blocks_before.duplicate) /
                             received
                       : 0.0);
      const auto events = after.events_processed - before.events_processed;
      const auto reallocs = after.reallocations - before.reallocations;
      samples["sim.run_s"].push_back(run_s);
      samples["sim.events"].push_back(static_cast<double>(events));
      samples["sim.ns_per_event"].push_back(
          events > 0 ? run_s * 1e9 / static_cast<double>(events) : 0.0);
      samples["sim.reallocations"].push_back(static_cast<double>(reallocs));
      samples["sim.flows_touched_per_realloc"].push_back(
          reallocs > 0 ? static_cast<double>(after.flows_touched -
                                             before.flows_touched) /
                             static_cast<double>(reallocs)
                       : 0.0);
      add_delta(samples, "sim.filling_rounds", after.filling_rounds,
                before.filling_rounds);
      add_delta(samples, "sim.expand_rounds", after.expand_rounds,
                before.expand_rounds);
      add_delta(samples, "sim.full_recomputes", after.full_recomputes,
                before.full_recomputes);
      samples["sim.max_component"].push_back(
          static_cast<double>(after.max_component));
      add_delta(samples, "sim.component_fills", after.component_fills,
                before.component_fills);
      add_delta(samples, "sim.split_cuts", after.split_cuts,
                before.split_cuts);
      add_delta(samples, "sim.hier_fills", after.hier_fills,
                before.hier_fills);
      add_delta(samples, "sim.hier_rounds", after.hier_rounds,
                before.hier_rounds);
      add_delta(samples, "sim.hier_fallbacks", after.hier_fallbacks,
                before.hier_fallbacks);
      add_delta(samples, "sim.memo_hits", after.memo_hits, before.memo_hits);
      add_delta(samples, "sim.memo_misses", after.memo_misses,
                before.memo_misses);
    }
    return {t1 - t0, ok};
  }

  void report_end_to_end(Report& report, double) const override {
    double virt = 0.0;
    for (double v : virt_) virt += v;
    const double bytes = static_cast<double>(message_bytes_) *
                         static_cast<double>(groups_.size()) *
                         static_cast<double>(virt_.size());
    report.add("virt_goodput_gbps", virt > 0 ? bytes * 8.0 / virt / 1e9 : 0.0,
               "sim_Gb/s", static_cast<double>(virt_.size()));
  }

  void probe(Spans& spans, Report& report) override {
    report.add("sched.build_us",
               probe_sched_build_us(group_size_, blocks_per_message(), spans),
               "us", kProbeRepeats);
  }

 protected:
  SimWorkload(std::uint64_t message_bytes, std::size_t group_size)
      : message_bytes_(message_bytes), group_size_(group_size) {}

  std::size_t blocks_per_message() const {
    return static_cast<std::size_t>(message_bytes_ >> 20);
  }

  /// Build the cluster and `groups` groups over nodes [0, group_size),
  /// group g rooted at node g (the Fig 10 rotated-root pattern).
  void build(const rdmc::sim::ClusterProfile& profile, std::size_t groups,
             Spans& spans, Samples& samples) {
    {
      Spans::Scope s(spans, "SimCluster::SimCluster", Layer::kHarness);
      const double t0 = now();
      cluster_ = std::make_unique<rdmc::harness::SimCluster>(profile);
      samples["harness.cluster_build_s"].push_back(now() - t0);
    }
    Spans::Scope s(spans, "SimCluster::create_group", Layer::kHarness);
    const double t0 = now();
    groups_.clear();
    for (std::size_t g = 0; g < groups; ++g) {
      std::vector<NodeId> members{static_cast<NodeId>(g)};
      for (std::size_t i = 0; i < group_size_; ++i)
        if (i != g) members.push_back(static_cast<NodeId>(i));
      rdmc::GroupOptions options;
      options.block_size = std::size_t{1} << 20;
      cluster_->create_group(static_cast<GroupId>(g), members, options);
      groups_.push_back(static_cast<GroupId>(g));
    }
    samples["harness.create_group_s"].push_back(now() - t0);
    delivered_ = 0;
  }

  std::unique_ptr<rdmc::harness::SimCluster> cluster_;

 private:
  struct BlockCounts {
    std::uint64_t received = 0;
    std::uint64_t duplicate = 0;
  };
  /// Group::Stats block counters summed over every member of every group.
  BlockCounts block_counts(Spans& spans, std::uint64_t index) {
    Spans::Scope s(spans, "Group::stats", Layer::kCore, index);
    BlockCounts c;
    for (GroupId g : groups_) {
      for (NodeId m : cluster_->record(g).members) {
        const auto& st = cluster_->node(m).group(g)->stats();
        c.received += st.blocks_received;
        c.duplicate += st.duplicate_blocks;
      }
    }
    return c;
  }

  std::uint64_t message_bytes_;
  std::size_t group_size_;
  std::vector<GroupId> groups_;
  std::size_t delivered_ = 0;
  std::vector<double> virt_;  // virtual makespan of the first timed ops
};

class SimFig8 final : public SimWorkload {
 public:
  SimFig8() : SimWorkload(32ull << 20, 256) {}
  void setup(Spans& spans, Samples& samples) override {
    build(rdmc::sim::sierra_profile(256), 1, spans, samples);
  }
};

class SimRacked final : public SimWorkload {
 public:
  SimRacked() : SimWorkload(4ull << 20, 64) {}
  void setup(Spans& spans, Samples& samples) override {
    build(rdmc::sim::racked_profile(64, 16, 3.5), 8, spans, samples);
  }
};

// -- tcp_rc ----------------------------------------------------------------

class TcpRc final : public Workload {
 public:
  static constexpr std::size_t kMembers = 4;
  static constexpr GroupId kGroup = 1;
  /// Cosmos sizes are clamped here instead of at the generator's 256 MB so
  /// the payload plus three replica buffers stay near 300 MB of RSS.
  static constexpr std::uint64_t kMaxBytes = 64ull << 20;
  /// Each op sends from a seeded offset into the payload, so consecutive
  /// ops carry different bytes and a stale replica buffer cannot pass.
  static constexpr std::size_t kSlack = 8u << 20;

  explicit TcpRc(std::uint64_t seed)
      : payload_(random_bytes(kMaxBytes + kSlack, seed ^ 0x7C9)) {
    rdmc::workload::CosmosConfig config;
    config.max_bytes = kMaxBytes;
    config.seed = seed;
    rdmc::workload::CosmosTraceGenerator gen(config);
    std::vector<std::uint64_t> pool;
    for (std::size_t i = 0; i < 16 * kOpSizes; ++i)
      pool.push_back(gen.next().bytes);
    rdmc::util::Rng rng(seed ^ 0x0FF5E7);
    sizes_ = stratified_sizes(std::move(pool), rng);
    for (std::size_t i = 0; i < kOpSizes; ++i)
      offsets_.push_back(rng.uniform(0, kSlack / 8 - 1) * 8);
    for (auto& inbox : inboxes_) inbox.resize(kMaxBytes);
  }

  ~TcpRc() override {
    Spans off;
    if (fabric_) teardown(off);
  }

  void setup(Spans& spans, Samples& samples) override {
    const std::vector<NodeId> members{0, 1, 2, 3};
    {
      Spans::Scope s(spans, "TcpFabric::TcpFabric", Layer::kFabric);
      const double t0 = now();
      fabric_ = std::make_unique<rdmc::fabric::TcpFabric>(
          std::vector<rdmc::fabric::TcpAddress>(kMembers), members);
      samples["fabric.tcp.build_s"].push_back(now() - t0);
    }
    {
      Spans::Scope s(spans, "Node::Node", Layer::kCore);
      for (NodeId id : members)
        nodes_.push_back(std::make_unique<rdmc::Node>(
            *fabric_, id, [] { return now(); }));
    }
    Spans::Scope s(spans, "Node::create_group", Layer::kCore);
    const double t0 = now();
    {
      std::lock_guard lock(mutex_);
      failed_ = false;
    }
    for (std::size_t m = 0; m < kMembers; ++m) {
      rdmc::Node* node = nodes_[m].get();
      const bool ok = node->create_group(
          kGroup, members, rdmc::GroupOptions{},
          [this, m](std::size_t size) {
            // A size beyond the inbox can only come from a corrupted
            // immediate; hand out an empty region so the op fails.
            if (m == 0 || size > kMaxBytes) return rdmc::fabric::MemoryView{};
            return rdmc::fabric::MemoryView{inboxes_[m - 1].data(), size};
          },
          [this, m, node](std::byte*, std::size_t) {
            // Runs on the member's completion thread with its Node locked,
            // so reading the group's stats here races nothing.
            const rdmc::Group::Stats& st = node->group(kGroup)->stats();
            std::lock_guard lock(mutex_);
            last_ts_ = std::max(last_ts_, now());
            stats_[m] = st;
            --pending_;
            cv_.notify_all();
          },
          [this](GroupId, NodeId) {
            std::lock_guard lock(mutex_);
            failed_ = true;
            cv_.notify_all();
          });
      if (!ok) throw std::runtime_error("tcp_rc: create_group failed");
    }
    samples["core.create_group_s"].push_back(now() - t0);
  }

  void teardown(Spans& spans) override {
    {
      Spans::Scope s(spans, "Node::~Node", Layer::kCore);
      for (auto& node : nodes_) node->destroy_group(kGroup);
      nodes_.clear();
    }
    Spans::Scope s(spans, "TcpFabric::~TcpFabric", Layer::kFabric);
    fabric_->stop();
    fabric_.reset();
    stats_ = {};
  }

  OpOutcome op(std::uint64_t index, bool traced, Spans& spans,
               Samples& samples) override {
    const std::size_t size = sizes_[index % kOpSizes];
    std::byte* data = payload_.data() + offsets_[index % kOpSizes];
    const auto before = stats_;
    {
      std::lock_guard lock(mutex_);
      pending_ = kMembers;  // the root's local completion + 3 deliveries
      last_ts_ = 0.0;
    }
    double t0 = 0.0, send_s = 0.0;
    bool ok = true;
    {
      Spans::Scope op_span(spans, "op", Layer::kBench, index);
      {
        Spans::Scope s(spans, "Node::send", Layer::kCore, index);
        t0 = now();
        ok = nodes_[0]->send(kGroup, data, size);
        send_s = now() - t0;
      }
      // The engine and the fabric run on the endpoints' threads; from
      // outside, their time is the wait for the last delivery.
      Spans::Scope s(spans, "wait_delivered", Layer::kCore, index);
      std::unique_lock lock(mutex_);
      ok = ok && cv_.wait_for(lock, std::chrono::seconds(30), [this] {
        return pending_ == 0 || failed_;
      });
      ok = ok && !failed_;
    }
    double t1 = 0.0;
    {
      std::lock_guard lock(mutex_);
      t1 = last_ts_;
    }
    {
      Spans::Scope s(spans, "verify", Layer::kBench, index);
      for (const auto& inbox : inboxes_)
        ok = ok && std::memcmp(inbox.data(), data, size) == 0;
    }
    if (index > 0 && ok) bytes_ += size;

    if (traced) {
      double setup = 0.0, copy = 0.0, blocks = 0.0, dups = 0.0;
      for (std::size_t m = 0; m < kMembers; ++m) {
        setup += stats_[m].setup_seconds - before[m].setup_seconds;
        copy += stats_[m].copy_seconds - before[m].copy_seconds;
        blocks += static_cast<double>(stats_[m].blocks_received -
                                      before[m].blocks_received);
        dups += static_cast<double>(stats_[m].duplicate_blocks -
                                    before[m].duplicate_blocks);
      }
      samples["core.send_call_us"].push_back(send_s * 1e6);
      samples["core.msg_setup_s"].push_back(setup);
      samples["core.first_block_copy_s"].push_back(copy);
      samples["core.blocks_received"].push_back(blocks);
      samples["core.duplicate_frac"].push_back(blocks > 0 ? dups / blocks
                                                          : 0.0);
    }
    return {ok ? t1 - t0 : 0.0, ok};
  }

  void report_end_to_end(Report& report, double run_s) const override {
    add_goodput(report, bytes_, run_s);
  }

  void probe(Spans& spans, Report& report) override {
    std::vector<std::size_t> sorted(sizes_);
    std::sort(sorted.begin(), sorted.end());
    const std::size_t median_blocks =
        std::max<std::size_t>(1, sorted[kOpSizes / 2] >> 20);
    report.add("sched.build_us",
               probe_sched_build_us(kMembers, median_blocks, spans), "us",
               kProbeRepeats);
    report.add("fabric.tcp.p2p_gbps", probe_tcp_p2p_gbps(spans), "Gb/s",
               kProbeRepeats);
  }

 private:
  std::vector<std::byte> payload_;
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> offsets_;
  std::array<std::vector<std::byte>, kMembers - 1> inboxes_;
  std::unique_ptr<rdmc::fabric::TcpFabric> fabric_;
  std::vector<std::unique_ptr<rdmc::Node>> nodes_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t pending_ = 0;
  double last_ts_ = 0.0;
  bool failed_ = false;
  /// Each member's Group::Stats as of its last completion callback.
  std::array<rdmc::Group::Stats, kMembers> stats_{};

  std::uint64_t bytes_ = 0;  // object bytes of timed, verified ops
};

// -- mem_ud_erasure --------------------------------------------------------

class MemUdErasure final : public Workload {
 public:
  static constexpr std::size_t kMembers = 4;
  static constexpr std::size_t kMinBytes = 4u << 20;
  static constexpr std::size_t kMaxBytes = 16u << 20;
  static constexpr std::size_t kSlack = 1u << 20;
  static constexpr std::size_t kBlock = 64u << 10;

  explicit MemUdErasure(std::uint64_t seed)
      : seed_(seed), payload_(random_bytes(kMaxBytes + kSlack, seed ^ 0xE5A)) {
    rdmc::util::Rng rng(seed ^ 0x51E5);
    std::vector<std::uint64_t> pool;
    for (std::size_t i = 0; i < 16 * kOpSizes; ++i)
      pool.push_back(rng.uniform(kMinBytes, kMaxBytes));
    sizes_ = stratified_sizes(std::move(pool), rng);
    for (std::size_t i = 0; i < kOpSizes; ++i)
      offsets_.push_back(rng.uniform(0, kSlack / 8 - 1) * 8);
  }

  ~MemUdErasure() override {
    Spans off;
    if (fabric_) teardown(off);
  }

  void setup(Spans& spans, Samples&) override {
    {
      Spans::Scope s(spans, "MemFabric::MemFabric", Layer::kFabric);
      fabric_ = std::make_unique<rdmc::fabric::MemFabric>(kMembers);
      next_channel_ = 0;
    }
    Spans::Scope s(spans, "set_datagram_faults", Layer::kFabric);
    rdmc::fabric::DatagramFaultProfile profile;
    profile.loss = 0.01;
    profile.seed = seed_ * 0x9E3779B97F4A7C15ull + 1;
    fabric_->faults().set_datagram_faults(profile);
  }

  void teardown(Spans& spans) override {
    Spans::Scope s(spans, "MemFabric::~MemFabric", Layer::kFabric);
    fabric_->stop();
    fabric_.reset();
  }

  OpOutcome op(std::uint64_t index, bool traced, Spans& spans,
               Samples& samples) override {
    const std::size_t size = sizes_[index % kOpSizes];
    const std::byte* data = payload_.data() + offsets_[index % kOpSizes];
    const auto c0 = fabric_->faults().datagram_counters();

    rdmc::reliability::SessionOptions options;
    options.policy = rdmc::reliability::Policy::kErasure;
    options.block_size = kBlock;
    options.rs_k = 8;
    options.rs_m = 2;
    // Sessions never close their queue pairs, so each op gets channels of
    // its own rather than inheriting receives posted by a dead session.
    options.channel = next_channel_;
    next_channel_ += 2;
    options.clock = [] { return now(); };

    std::unique_ptr<rdmc::reliability::UdMulticastSession> session;
    double t_send = 0.0, t_done = 0.0;
    bool ok = true;
    {
      Spans::Scope op_span(spans, "op", Layer::kBench, index);
      {
        Spans::Scope s(spans, "UdMulticastSession::UdMulticastSession",
                       Layer::kReliability, index);
        session = std::make_unique<rdmc::reliability::UdMulticastSession>(
            *fabric_, std::vector<NodeId>{0, 1, 2, 3}, options);
      }
      {
        Spans::Scope s(spans, "UdMulticastSession::send", Layer::kReliability,
                       index);
        t_send = now();
        ok = session->send(data, size);
      }
      if (ok) {
        Spans::Scope s(spans, "UdMulticastSession::wait_done",
                       Layer::kReliability, index);
        session->wait_done();
      }
      t_done = now();
    }
    const rdmc::reliability::SessionStats stats =
        ok ? session->stats() : rdmc::reliability::SessionStats{};
    {
      Spans::Scope s(spans, "verify", Layer::kBench, index);
      ok = ok && session->all_complete();
      for (std::size_t rank = 1; ok && rank < kMembers; ++rank) {
        const auto got = session->member_data(rank);
        ok = got.size() == size && std::memcmp(got.data(), data, size) == 0;
      }
    }
    double teardown_s = 0.0;
    {
      Spans::Scope s(spans, "UdMulticastSession::~UdMulticastSession",
                     Layer::kReliability, index);
      const double d0 = now();
      session.reset();
      teardown_s = now() - d0;
    }
    if (index > 0 && ok) bytes_ += size;

    if (traced) {
      const auto c1 = fabric_->faults().datagram_counters();
      samples["reliability.pre_pump_ms"].push_back(
          (stats.msg_start_ts - t_send) * 1e3);
      samples["reliability.pump_ms"].push_back(
          (stats.last_deliver_ts - stats.msg_start_ts) * 1e3);
      samples["reliability.tail_ms"].push_back(
          (t_done - stats.last_deliver_ts) * 1e3);
      samples["reliability.teardown_ms"].push_back(teardown_s * 1e3);
      samples["reliability.datagrams_sent"].push_back(
          static_cast<double>(stats.datagrams_sent));
      samples["reliability.retx_datagrams"].push_back(
          static_cast<double>(stats.retx_datagrams));
      samples["reliability.probe_rounds"].push_back(
          static_cast<double>(stats.probe_rounds));
      samples["reliability.decode_bytes"].push_back(
          static_cast<double>(stats.decode_bytes));
      add_delta(samples, "fabric.ud.dropped", c1.dropped, c0.dropped);
      add_delta(samples, "fabric.ud.no_recv", c1.no_recv, c0.no_recv);
      add_delta(samples, "fabric.ud.duplicated", c1.duplicated,
                c0.duplicated);
      add_delta(samples, "fabric.ud.reordered", c1.reordered, c0.reordered);
    }
    return {ok ? stats.last_deliver_ts - t_send : 0.0, ok};
  }

  void report_end_to_end(Report& report, double run_s) const override {
    add_goodput(report, bytes_, run_s);
  }

  void probe(Spans& spans, Report& report) override {
    // Wire blocks of a mid-range object: data plus RS(8,2) parity.
    const std::size_t data_blocks = ((kMinBytes + kMaxBytes) / 2) / kBlock;
    const std::size_t wire_blocks = data_blocks + (data_blocks + 7) / 8 * 2;
    report.add("sched.build_us",
               probe_sched_build_us(kMembers, wire_blocks, spans), "us",
               kProbeRepeats);
    const RsRates rs = probe_rs(8, 2, kBlock, spans);
    report.add("reliability.rs_encode_gbps", rs.encode_gbps, "Gb/s",
               kProbeRepeats);
    report.add("reliability.rs_decode_gbps", rs.decode_gbps, "Gb/s",
               kProbeRepeats);
    report.add("reliability.gf256_muladd_gbps", rs.muladd_gbps, "Gb/s",
               kProbeRepeats);
    report.add("fabric.mem.ud_p2p_gbps", probe_mem_ud_p2p_gbps(kBlock, spans),
               "Gb/s", kProbeRepeats);
  }

 private:
  std::uint64_t seed_;
  std::vector<std::byte> payload_;
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> offsets_;
  std::unique_ptr<rdmc::fabric::MemFabric> fabric_;
  std::uint32_t next_channel_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "sim_fig8") return std::make_unique<SimFig8>();
  if (name == "sim_racked") return std::make_unique<SimRacked>();
  if (name == "tcp_rc") return std::make_unique<TcpRc>(seed);
  if (name == "mem_ud_erasure") return std::make_unique<MemUdErasure>(seed);
  return nullptr;
}

}  // namespace perfbench
