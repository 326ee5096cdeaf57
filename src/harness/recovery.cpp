#include "harness/recovery.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "obs/trace.hpp"
#include "util/random.hpp"

namespace rdmc::harness {

namespace {

/// Violations are capped so a systematic breakage (every delivery corrupt)
/// does not build a million-line report.
constexpr std::size_t kMaxViolations = 20;

void note_violation(RecoveryResult& res, std::string text) {
  if (res.violations.size() < kMaxViolations)
    res.violations.push_back(std::move(text));
}

}  // namespace

/// Per-node state that survives re-formations.
struct RecoveryDriver::Member {
  NodeId node = 0;
  std::vector<bool> delivered;      // by seq, across all epochs
  std::size_t epoch_delivered = 0;  // consecutive deliveries this epoch
  std::size_t epoch_failures = 0;   // failure callbacks this epoch
  /// Buffers handed to incoming-message callbacks this epoch. Inner
  /// vectors never reallocate after creation, so the data pointers the
  /// engine holds stay valid while the outer vector grows.
  std::vector<std::vector<std::byte>> rx;
};

/// One group instance (one §4.6 epoch).
struct RecoveryDriver::Epoch {
  GroupId gid = 0;
  std::vector<NodeId> members;  // front = root
  std::size_t base_seq = 0;     // first sequence (re)sent this epoch
  std::size_t queued = 0;       // messages the root queued
  std::size_t root_completed = 0;
  bool failure_seen = false;
  std::vector<SimCluster::GroupRecord::FailureObservation> failure_log;
};

RecoveryDriver::RecoveryDriver(SimCluster& cluster, RecoveryConfig config)
    : cluster_(cluster), config_(std::move(config)) {}

void RecoveryDriver::build_payloads() {
  payloads_.resize(config_.messages);
  for (std::size_t s = 0; s < config_.messages; ++s) {
    auto& p = payloads_[s];
    p.resize(config_.message_bytes);
    const std::uint64_t seq = s;
    std::memcpy(p.data(), &seq, std::min<std::size_t>(8, p.size()));
    util::Rng rng(config_.payload_seed * 0x9E3779B97F4A7C15ull + s);
    for (std::size_t i = 8; i < p.size(); ++i)
      p[i] = static_cast<std::byte>(rng() & 0xFF);
  }
}

bool RecoveryDriver::epoch_done(const Epoch& e) const {
  if (e.root_completed < e.queued) return false;
  (void)this;
  return true;  // receiver progress is checked by the caller
}

std::vector<NodeId> RecoveryDriver::survivors_of(const Epoch& e) const {
  std::vector<NodeId> out;
  for (NodeId n : e.members)
    if (!cluster_.fabric().faults().crashed(n)) out.push_back(n);
  return out;
}

RecoveryResult RecoveryDriver::run() {
  build_payloads();
  RecoveryResult res;
  const double t0 = cluster_.sim().now();

  std::map<NodeId, Member> state;
  for (NodeId n : config_.members) {
    Member& m = state[n];
    m.node = n;
    m.delivered.assign(config_.messages, false);
  }

  std::vector<NodeId> current = config_.members;
  GroupId next_gid = config_.first_group_id;
  std::size_t base_seq = 0;
  bool finished = false;

  for (std::size_t epoch_i = 0; !finished; ++epoch_i) {
    if (epoch_i > config_.max_reforms) {
      note_violation(res, "re-formation limit exceeded");
      break;
    }
    Epoch e;
    e.gid = next_gid++;
    e.members = current;
    e.base_seq = base_seq;
    const NodeId root = e.members.front();
    const std::size_t expect =
        config_.messages - e.base_seq;  // deliveries per receiver

    // Per-epoch labeled series: each group instance gets its own scope, so
    // telemetry windows show which epoch's deliveries/failures moved
    // (counter lookups are cold; the callbacks below reuse the references).
    cluster_.metrics().counter("recovery.epochs").add();
    auto& epoch_scope =
        cluster_.metrics().scope("gid=" + std::to_string(e.gid));
    obs::Counter& epoch_deliveries = epoch_scope.counter("recovery.deliveries");
    obs::Counter& epoch_failures = epoch_scope.counter("recovery.failures");
    if (auto* tr = obs::tracer())
      tr->begin(obs::Cat::kRecovery, "epoch", root,
                static_cast<std::uint64_t>(e.gid), cluster_.sim().now(),
                "gid,members,base_seq", static_cast<std::uint32_t>(e.gid),
                e.members.size(), e.base_seq);

    // -- Create the group on every member (§4.6: the application layer
    // re-creates after each failure; ids are never recycled). ------------
    const Membership members = e.members;  // one list shared by all members
    for (NodeId n : e.members) {
      Member& m = state[n];
      m.epoch_delivered = 0;
      m.epoch_failures = 0;
      const bool is_root = (n == root);
      auto incoming = [this, &m](std::size_t size) {
        m.rx.emplace_back(size);
        return fabric::MemoryView{m.rx.back().data(), size};
      };
      auto completion = [this, &res, &m, &e, is_root,
                         &epoch_deliveries](std::byte* data,
                                            std::size_t size) {
        if (is_root) {
          ++e.root_completed;
          return;
        }
        ++res.deliveries;
        epoch_deliveries.add();
        if (m.epoch_failures > 0) {
          note_violation(res, "delivery after failure callback at node " +
                                  std::to_string(m.node));
        }
        if (size != config_.message_bytes || size < 8) {
          note_violation(res, "delivery with wrong size at node " +
                                  std::to_string(m.node));
          return;
        }
        std::uint64_t seq = 0;
        std::memcpy(&seq, data, 8);
        const std::uint64_t want = e.base_seq + m.epoch_delivered;
        if (seq != want) {
          note_violation(
              res, "node " + std::to_string(m.node) + " delivered seq " +
                       std::to_string(seq) + ", expected " +
                       std::to_string(want) + " (dup/gap/reorder)");
          return;
        }
        if (std::memcmp(data, payloads_[seq].data(), size) != 0) {
          note_violation(res, "corrupt payload for seq " +
                                  std::to_string(seq) + " at node " +
                                  std::to_string(m.node));
        }
        ++m.epoch_delivered;
        if (m.delivered[seq])
          ++res.redeliveries;
        else
          m.delivered[seq] = true;
      };
      auto on_failure = [this, &res, &m, &e,
                         &epoch_failures](GroupId, NodeId suspect) {
        ++res.failures_observed;
        ++m.epoch_failures;
        epoch_failures.add();
        if (m.epoch_failures > 1) {
          note_violation(res, "failure reported twice to node " +
                                  std::to_string(m.node));
        }
        if (auto* tr = obs::tracer()) {
          tr->instant(obs::Cat::kRecovery, "failure", m.node,
                      cluster_.sim().now(), "gid,suspect",
                      static_cast<std::uint32_t>(e.gid), suspect);
          // The §4.6 recovery window opens at the first observation; it
          // closes at the reform (or never, if the run ends degraded).
          if (!e.failure_seen)
            tr->begin(obs::Cat::kRecovery, "recovery", e.members.front(),
                      static_cast<std::uint64_t>(e.gid),
                      cluster_.sim().now(), "gid",
                      static_cast<std::uint32_t>(e.gid));
        }
        e.failure_seen = true;
        e.failure_log.push_back({cluster_.sim().now(), m.node, suspect});
      };
      const bool created = cluster_.node(n).create_group(
          e.gid, members, config_.group_options, incoming, completion,
          on_failure);
      if (!created) {
        note_violation(res,
                       "create_group failed on node " + std::to_string(n));
        finished = true;
      }
    }
    if (finished) {
      // Unwind the sides already created this epoch before their
      // callbacks' referents go out of scope.
      for (NodeId n : e.members) cluster_.node(n).destroy_group(e.gid);
      current = e.members;
      break;
    }

    // -- Root (re)sends everything from the resume point. -----------------
    for (std::size_t s = e.base_seq; s < config_.messages; ++s) {
      if (cluster_.node(root).send(e.gid, payloads_[s].data(),
                                   payloads_[s].size())) {
        ++e.queued;
      } else {
        note_violation(res, "send refused for seq " + std::to_string(s));
      }
    }

    // -- Poll in slices so scheduled fault events land mid-epoch. ---------
    const double deadline = cluster_.sim().now() + config_.epoch_timeout_s;
    bool epoch_failed = false;
    while (true) {
      cluster_.run_slice(config_.slice_s);
      if (e.failure_seen) {
        epoch_failed = true;
        break;
      }
      bool all = epoch_done(e);
      for (NodeId n : e.members)
        all = all && (n == root || state[n].epoch_delivered == expect);
      if (all) break;  // success: every member done, no failure
      if (cluster_.sim().idle()) {
        note_violation(res, "stalled without a failure report");
        finished = true;
        break;
      }
      if (cluster_.sim().now() > deadline) {
        note_violation(res, "epoch exceeded its virtual-time budget");
        finished = true;
        break;
      }
    }

    if (epoch_failed) {
      // Reliability contract item 6: the failure must reach *every*
      // survivor of the group, exactly once each.
      const double grace = cluster_.sim().now() + config_.notify_grace_s;
      auto all_notified = [&] {
        for (NodeId n : survivors_of(e))
          if (state[n].epoch_failures == 0) return false;
        return true;
      };
      while (cluster_.sim().now() < grace && !all_notified() &&
             !cluster_.sim().idle()) {
        cluster_.run_slice(config_.slice_s);
      }
      for (NodeId n : survivors_of(e)) {
        if (state[n].epoch_failures == 0) {
          note_violation(res, "survivor " + std::to_string(n) +
                                  " was never told about the failure");
        }
      }
    }

    // -- Tear down this epoch's group everywhere. --------------------------
    for (NodeId n : e.members) cluster_.node(n).destroy_group(e.gid);
    for (NodeId n : e.members) state[n].rx.clear();
    if (auto* tr = obs::tracer())
      tr->end(obs::Cat::kRecovery, "epoch", root,
              static_cast<std::uint64_t>(e.gid), cluster_.sim().now(),
              "gid", static_cast<std::uint32_t>(e.gid));

    if (!epoch_failed || finished) {
      finished = true;
      current = e.members;
      break;
    }

    // -- §4.6: drop the suspects, re-form on the survivors, resume. --------
    std::set<NodeId> drop;
    for (const auto& obs : e.failure_log) {
      // A crashed member's own (fail-stop-suppressed) observations cannot
      // occur; every logged suspect was seen by a live member.
      if (obs.suspect != root) drop.insert(obs.suspect);
    }
    if (cluster_.fabric().faults().crashed(root)) {
      res.root_lost = true;
      current = survivors_of(e);
      break;
    }
    std::vector<NodeId> next;
    for (NodeId n : e.members) {
      if (n != root && cluster_.fabric().faults().crashed(n)) continue;
      if (drop.contains(n)) continue;
      next.push_back(n);
    }
    if (next.size() == e.members.size()) {
      // Every suspect was the root (e.g. a broken root link reported only
      // root-side). Progress demands dropping someone: drop the member
      // that reported against the root.
      NodeId reporter = root;
      for (const auto& obs : e.failure_log)
        if (obs.suspect == root && obs.by != root) reporter = obs.by;
      if (reporter != root)
        next.erase(std::find(next.begin(), next.end(), reporter));
    }
    if (next.size() < 2) {
      res.exhausted = true;
      current = next;
      break;
    }

    // Resume from the earliest sequence any survivor still misses.
    std::size_t resume = config_.messages;
    for (std::size_t i = 1; i < next.size(); ++i) {
      const Member& m = state[next[i]];
      std::size_t first_missing = config_.messages;
      for (std::size_t s = 0; s < config_.messages; ++s) {
        if (!m.delivered[s]) {
          first_missing = s;
          break;
        }
      }
      resume = std::min(resume, first_missing);
    }
    current = next;
    if (resume >= config_.messages) {
      finished = true;  // survivors already hold everything
      break;
    }
    base_seq = resume;
    ++res.reforms;
    cluster_.note_reform();
    if (auto* tr = obs::tracer()) {
      tr->end(obs::Cat::kRecovery, "recovery", root,
              static_cast<std::uint64_t>(e.gid), cluster_.sim().now(),
              "gid", static_cast<std::uint32_t>(e.gid));
      tr->instant(obs::Cat::kRecovery, "reform", root, cluster_.sim().now(),
                  "epoch,survivors", epoch_i + 1, current.size());
    }
  }

  // -- Final invariants over the surviving membership. ---------------------
  if (!res.root_lost && !res.exhausted && res.violations.empty()) {
    for (std::size_t i = 1; i < current.size(); ++i) {
      const Member& m = state[current[i]];
      for (std::size_t s = 0; s < config_.messages; ++s) {
        if (!m.delivered[s]) {
          note_violation(res, "survivor " + std::to_string(current[i]) +
                                  " never delivered seq " +
                                  std::to_string(s));
          break;
        }
      }
    }
  }
  res.final_members = current;
  res.virtual_seconds = cluster_.sim().now() - t0;
  res.ok = res.violations.empty();
  return res;
}

}  // namespace rdmc::harness
