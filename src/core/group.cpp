#include "core/group.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/stall.hpp"
#include "obs/trace.hpp"
#include "sched/hybrid.hpp"
#include "util/logging.hpp"

namespace rdmc {

namespace {
/// k values probed to enumerate the neighbours a schedule can ever use and
/// whether each pair can ever receive. The probe set covers the clamping
/// regimes (k=1, k<log n, k~n, k>>n) of every implemented schedule; the
/// property suite sweeps many more k values end-to-end.
constexpr std::size_t kNeighbourProbes[] = {1, 2, 3, 5, 8, 64, 257, 1031};
}  // namespace

Group::Group(Node& node, GroupId id, Membership members,
             GroupOptions options, IncomingMessageCallback incoming,
             MessageCompletionCallback completion, FailureCallback on_failure)
    : node_(node),
      id_(id),
      members_(std::move(members)),
      options_(options),
      incoming_(std::move(incoming)),
      completion_(std::move(completion)),
      on_failure_(std::move(on_failure)) {
  assert(members_.size() >= 2);
  const auto self = std::find(members_.begin(), members_.end(), node_.id());
  assert(self != members_.end() && "creating node must be a member");
  rank_ = static_cast<std::size_t>(self - members_.begin());

  if (options_.make_schedule) {
    schedule_ = options_.make_schedule(members_.size(), rank_);
  } else if (options_.hybrid_racks) {
    assert(options_.hybrid_racks->size() == members_.size());
    schedule_ = std::make_unique<sched::HybridSchedule>(
        members_.size(), rank_, *options_.hybrid_racks);
  } else {
    schedule_ =
        sched::make_schedule(options_.algorithm, members_.size(), rank_);
  }

  // Enumerate every neighbour this node can exchange blocks with, across
  // all message sizes, and bind one queue pair per neighbour (§3 step 1:
  // the group's overlay mesh).
  std::vector<std::uint32_t> send_peers, recv_peers;
  auto note = [](std::vector<std::uint32_t>& set, std::uint32_t peer) {
    if (std::find(set.begin(), set.end(), peer) == set.end())
      set.push_back(peer);
  };
  for (std::size_t k : kNeighbourProbes) {
    const std::size_t steps = schedule_->num_steps(k);
    for (std::size_t j = 0; j < steps; ++j) {
      for (const auto& t : schedule_->sends_at(k, j))
        note(send_peers, t.peer);
      for (const auto& t : schedule_->recvs_at(k, j))
        note(recv_peers, t.peer);
    }
  }
  std::vector<std::uint32_t> neighbour_ranks = send_peers;
  for (auto peer : recv_peers) note(neighbour_ranks, peer);
  std::sort(neighbour_ranks.begin(), neighbour_ranks.end());

  pairs_.reserve(neighbour_ranks.size());
  for (std::uint32_t peer_rank : neighbour_ranks) {
    Pair pair;
    pair.peer_rank = peer_rank;
    pair.peer = members_[peer_rank];
    pair.qp = node_.fabric().connect(node_.id(), pair.peer,
                                     static_cast<std::uint32_t>(id_));
    pairs_.push_back(pair);
  }
  for (std::size_t i = 0; i < pairs_.size(); ++i)
    node_.register_qp(pairs_[i].qp->id(), this, i);

  // Determine the designated first pair: the neighbour this node's first
  // block always comes from. It must be the same for every message size
  // (otherwise an idle receiver could not know where to post the initial
  // receive, §4.2) — all supported schedules have this property; we verify
  // it across the probe set.
  if (rank_ != 0) {
    std::uint32_t first_source = UINT32_MAX;
    for (std::size_t k : kNeighbourProbes) {
      const std::size_t steps = schedule_->num_steps(k);
      for (std::size_t j = 0; j < steps; ++j) {
        const auto recvs = schedule_->recvs_at(k, j);
        if (recvs.empty()) continue;
        if (first_source == UINT32_MAX) {
          first_source = recvs.front().peer;
        } else {
          assert(recvs.front().peer == first_source &&
                 "schedule's first receive source must be k-invariant");
        }
        break;
      }
    }
    assert(first_source != UINT32_MAX && "receiver with no incoming blocks");
    first_pair_ = pair_index_of(first_source);
    scratch_ =
        std::make_unique_for_overwrite<std::byte[]>(options_.block_size);
    arm_first_block();
  }
}

Group::~Group() {
  // Destroy-QP semantics: fence and revoke posted receives (the scratch
  // and message buffers die with this object).
  for (Pair& pair : pairs_) {
    if (pair.qp != nullptr) pair.qp->close();
  }
}

std::size_t Group::block_bytes(std::size_t block) const {
  const std::size_t begin = block * options_.block_size;
  assert(begin < size_);
  return std::min(options_.block_size, size_ - begin);
}

bool Group::send(std::byte* data, std::size_t size) {
  if (rank_ != 0 || failed_) return false;
  if (size == 0 || size >= (std::uint64_t{1} << 32)) return false;
  outbox_.push_back(Outgoing{data, size});
  if (!transfer_active_) start_next_outgoing();
  return true;
}

void Group::start_next_outgoing() {
  assert(rank_ == 0 && !transfer_active_ && !outbox_.empty());
  const Outgoing out = outbox_.front();
  outbox_.pop_front();
  data_ = out.data;
  size_ = out.size;
  num_blocks_ = (size_ + options_.block_size - 1) / options_.block_size;
  const double t0 = node_.clock()();
  build_transfer_lists(num_blocks_);
  have_.assign(num_blocks_, true);
  have_count_ = num_blocks_;
  transfer_active_ = true;
  stats_.setup_seconds += node_.clock()() - t0;
  stats_.last_transfer_start = node_.clock()();
  if (auto* tr = obs::tracer())
    tr->begin(obs::Cat::kCore, "msg", node_.id(),
              obs::msg_span_id(id_, stats_.messages_sent),
              stats_.last_transfer_start, "group,seq,blocks,bytes",
              static_cast<std::uint32_t>(id_), stats_.messages_sent,
              num_blocks_, size_);
  for (std::size_t p = 0; p < pairs_.size(); ++p) post_receives(p);
  pump_all_sends();
}

void Group::build_transfer_lists(std::size_t num_blocks) {
  for (Pair& pair : pairs_) {
    pair.send_blocks.clear();
    pair.recv_blocks.clear();
    pair.next_send = 0;
    pair.next_recv_post = 0;
    pair.recvs_completed_msg = 0;
  }
  // Flatten the step schedule into per-pair FIFOs. Within a step the
  // schedule's own emission order (primary vertex, then shadow) is used by
  // both sides, so the two FIFOs of a pair always mirror each other.
  const std::size_t steps = schedule_->num_steps(num_blocks);
  msg_sends_total_ = 0;
  msg_recvs_total_ = 0;
  for (std::size_t j = 0; j < steps; ++j) {
    for (const auto& t : schedule_->sends_at(num_blocks, j)) {
      pairs_[pair_index_of(t.peer)].send_blocks.push_back(t.block);
      ++msg_sends_total_;
    }
    for (const auto& t : schedule_->recvs_at(num_blocks, j)) {
      pairs_[pair_index_of(t.peer)].recv_blocks.push_back(t.block);
      ++msg_recvs_total_;
    }
  }
  msg_sends_done_ = 0;
  msg_recvs_done_ = 0;
  // The armed scratch receive is the designated pair's post #0.
  if (scratch_armed_ && first_pair_ != SIZE_MAX &&
      !pairs_[first_pair_].recv_blocks.empty())
    pairs_[first_pair_].next_recv_post = 1;
}

std::size_t Group::pair_index_of(std::uint32_t peer_rank) const {
  const auto it = std::lower_bound(
      pairs_.begin(), pairs_.end(), peer_rank,
      [](const Pair& pair, std::uint32_t rank) {
        return pair.peer_rank < rank;
      });
  assert(it != pairs_.end() && it->peer_rank == peer_rank &&
         "schedule uses a neighbour the probes did not find");
  return static_cast<std::size_t>(it - pairs_.begin());
}

void Group::arm_first_block() {
  if (rank_ == 0 || scratch_armed_ || failed_) return;
  Pair& pair = pairs_[first_pair_];
  if (!fabric::ok(pair.qp->post_recv(
          fabric::MemoryView{scratch_.get(), options_.block_size},
          /*wr_id=*/0)))
    return;
  scratch_armed_ = true;
  ++pair.credits_granted;
  pair.qp->post_write_imm(static_cast<std::uint32_t>(pair.credits_granted),
                          0);
}

void Group::activate_incoming(std::size_t pair_index,
                              std::uint32_t size_imm) {
  assert(!transfer_active_);
  const double t0 = node_.clock()();
  size_ = size_imm;
  num_blocks_ = (size_ + options_.block_size - 1) / options_.block_size;
  const fabric::MemoryView region = incoming_(size_);
  data_ = region.data;
  assert(data_ == nullptr || region.size >= size_);
  build_transfer_lists(num_blocks_);
  have_.assign(num_blocks_, false);
  have_count_ = 0;
  transfer_active_ = true;
  stats_.last_transfer_start = t0;
  if (auto* tr = obs::tracer())
    tr->begin(obs::Cat::kCore, "msg", node_.id(),
              obs::msg_span_id(id_, stats_.messages_delivered), t0,
              "group,seq,blocks,bytes", static_cast<std::uint32_t>(id_),
              stats_.messages_delivered, num_blocks_, size_);
  stats_.setup_seconds += node_.clock()() - t0;

  for (std::size_t p = 0; p < pairs_.size(); ++p) post_receives(p);
  // The caller then routes the scratch block through on_recv_completion's
  // normal path, and pumps.
  (void)pair_index;
}

void Group::post_receives(std::size_t pair_index) {
  if (failed_ || !transfer_active_) return;
  Pair& pair = pairs_[pair_index];
  bool granted = false;
  while (pair.next_recv_post < pair.recv_blocks.size() &&
         pair.next_recv_post <
             pair.recvs_completed_msg + options_.recv_window) {
    const std::size_t block = pair.recv_blocks[pair.next_recv_post];
    fabric::MemoryView buf{
        data_ != nullptr ? data_ + block_offset(block) : nullptr,
        block_bytes(block)};
    if (!fabric::ok(pair.qp->post_recv(buf, pair.next_recv_post))) return;
    ++pair.next_recv_post;
    ++pair.credits_granted;
    granted = true;
  }
  if (granted) {
    // One cumulative ready-for-block write covers every receive just
    // posted (§4.2): the sender may transmit up to `credits_granted`
    // blocks on this pair.
    pair.qp->post_write_imm(
        static_cast<std::uint32_t>(pair.credits_granted), 0);
  }
}

void Group::pump_sends(std::size_t pair_index) {
  if (failed_ || !transfer_active_) return;
  Pair& pair = pairs_[pair_index];
  while (pair.next_send < pair.send_blocks.size()) {
    const std::size_t block = pair.send_blocks[pair.next_send];
    if (!have_[block]) break;  // §4.3: send pending until block arrives
    if (pair.credits_from_peer <= pair.sends_posted) break;  // no credit
    fabric::MemoryView buf{
        data_ != nullptr ? data_ + block_offset(block) : nullptr,
        block_bytes(block)};
    const std::uint64_t wr = pair.next_send;
    if (!fabric::ok(pair.qp->post_send(buf, wr,
                                       static_cast<std::uint32_t>(size_))))
      return;
    ++pair.sends_posted;
    ++pair.next_send;
    ++stats_.blocks_sent;
    if (auto* tr = obs::tracer())
      tr->begin(obs::Cat::kCore, "block", node_.id(),
                obs::block_span_id(id_, block, node_.id(), pair.peer),
                node_.clock()(), "block,dst,qp,wr", block, pair.peer,
                pair.qp->id(), wr);
  }
}

void Group::pump_all_sends() {
  for (std::size_t p = 0; p < pairs_.size(); ++p) pump_sends(p);
}

void Group::on_recv_completion(std::size_t pair_index,
                               const fabric::Completion& c) {
  Pair& pair = pairs_[pair_index];
  if (!transfer_active_) {
    // A first block announcing a new message: the armed scratch on the
    // designated pair is the only receive that can be outstanding while
    // the group is idle. scratch_armed_ stays set through activation:
    // build_transfer_lists counts it as the designated pair's post #0.
    assert(scratch_armed_ && pair_index == first_pair_ &&
           "first block must arrive on the designated pair");
    activate_incoming(pair_index, c.immediate);
  }
  // Evaluate after activation (which resets the per-message counters): the
  // designated pair's first completion of a message is its scratch.
  const bool via_scratch = scratch_armed_ && pair_index == first_pair_ &&
                           pair.recvs_completed_msg == 0;
  if (via_scratch) scratch_armed_ = false;
  assert(pair.recvs_completed_msg < pair.recv_blocks.size());
  const std::size_t block = pair.recv_blocks[pair.recvs_completed_msg];
  ++pair.recvs_completed_msg;
  if (via_scratch && data_ != nullptr) {
    // §4.2: copy the first block from the scratch area to its offset.
    const double c0 = node_.clock()();
    std::memcpy(data_ + block_offset(block), scratch_.get(),
                block_bytes(block));
    stats_.copy_seconds += node_.clock()() - c0;
  }
  assert(c.immediate == size_);
  on_block_received(pair_index, block);
}

void Group::on_block_received(std::size_t pair_index, std::size_t block) {
  if (have_[block]) {
    ++stats_.duplicate_blocks;  // aliasing or baseline ring redundancy
  } else {
    have_[block] = true;
    ++have_count_;
  }
  ++msg_recvs_done_;
  ++stats_.blocks_received;
  if (auto* tr = obs::tracer())
    tr->end(obs::Cat::kCore, "block", node_.id(),
            obs::block_span_id(id_, block, pairs_[pair_index].peer,
                               node_.id()),
            node_.clock()(), "block,src", block, pairs_[pair_index].peer);
  post_receives(pair_index);
  pump_all_sends();
  check_message_done();
}

void Group::on_send_completed(std::size_t pair_index, std::uint64_t wr_id) {
  ++msg_sends_done_;
  Pair& pair = pairs_[pair_index];
  const std::size_t block =
      wr_id < pair.send_blocks.size() ? pair.send_blocks[wr_id] : 0;
  if (auto* tr = obs::tracer()) {
    // A raw record: instants normally carry no id, but send completions
    // need the block-span id so the analyzer can match them to their hop.
    obs::TraceEvent e;
    e.ts = node_.clock()();
    e.name = "send.done";
    e.keys = "block,dst,qp,wr";
    e.phase = obs::Phase::kInstant;
    e.cat = obs::Cat::kCore;
    e.node = node_.id();
    e.id = obs::block_span_id(id_, block, node_.id(), pair.peer);
    e.a[0] = block;
    e.a[1] = pair.peer;
    e.a[2] = pair.qp->id();
    e.a[3] = wr_id;
    tr->record(e);
  }
  check_message_done();
}

void Group::check_message_done() {
  if (!transfer_active_) return;
  if (msg_sends_done_ < msg_sends_total_) return;
  if (have_count_ < num_blocks_ || msg_recvs_done_ < msg_recvs_total_)
    return;
  finish_message();
}

void Group::finish_message() {
  transfer_active_ = false;
  stats_.last_transfer_end = node_.clock()();
  if (auto* tr = obs::tracer()) {
    const std::uint64_t seq =
        rank_ == 0 ? stats_.messages_sent : stats_.messages_delivered;
    tr->end(obs::Cat::kCore, "msg", node_.id(), obs::msg_span_id(id_, seq),
            stats_.last_transfer_end, "group,seq",
            static_cast<std::uint32_t>(id_), seq);
  }
  std::byte* data = data_;
  const std::size_t size = size_;
  if (rank_ == 0) {
    ++stats_.messages_sent;
    arm_first_block();
    if (completion_) completion_(data, size);
    if (!outbox_.empty() && !failed_ && !transfer_active_)
      start_next_outgoing();
  } else {
    ++stats_.messages_delivered;
    arm_first_block();
    if (completion_) completion_(data, size);
  }
}

void Group::on_completion(const fabric::Completion& c,
                          std::size_t pair_index) {
  // Fault-path accounting happens even for quarantined completions, so
  // campaigns can observe the flush volume a break produced.
  if (c.status == fabric::WcStatus::kFlushed) ++stats_.flushed_completions;
  if (c.opcode == fabric::WcOpcode::kDisconnect) ++stats_.disconnects;
  if (failed_) return;  // dead-epoch completions are quarantined
  Pair& pair = pairs_[pair_index];
  switch (c.opcode) {
    case fabric::WcOpcode::kRecv: {
      if (c.status != fabric::WcStatus::kSuccess) {
        fail(pair.peer, /*relay=*/true);
        return;
      }
      on_recv_completion(pair_index, c);
      break;
    }
    case fabric::WcOpcode::kSend: {
      if (c.status != fabric::WcStatus::kSuccess) {
        fail(pair.peer, /*relay=*/true);
        return;
      }
      on_send_completed(pair_index, c.wr_id);
      break;
    }
    case fabric::WcOpcode::kRecvWriteImm: {
      // Ready-for-block: cumulative credit count from the receiver.
      pair.credits_from_peer =
          std::max<std::uint64_t>(pair.credits_from_peer, c.immediate);
      if (auto* tr = obs::tracer())
        tr->instant(obs::Cat::kCore, "credit.rx", node_.id(),
                    node_.clock()(), "peer,count", pair.peer, c.immediate);
      pump_sends(pair_index);
      break;
    }
    case fabric::WcOpcode::kWriteImm:
      break;  // our own ready-write finished; nothing to do
    case fabric::WcOpcode::kDisconnect:
      fail(pair.peer, /*relay=*/true);
      break;
    case fabric::WcOpcode::kWindowWrite:
    case fabric::WcOpcode::kRecvWindowWrite:
    case fabric::WcOpcode::kSendUd:
    case fabric::WcOpcode::kRecvUd:
      break;  // RC group QPs carry no window writes or datagrams
  }
}

std::string Group::debug_dump() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "group %d rank %zu active=%d failed=%d k=%zu have=%zu/%zu "
                "sends=%llu/%llu recvs=%llu/%llu scratch_armed=%d\n",
                id_, rank_, transfer_active_, failed_, num_blocks_,
                have_count_, num_blocks_,
                static_cast<unsigned long long>(msg_sends_done_),
                static_cast<unsigned long long>(msg_sends_total_),
                static_cast<unsigned long long>(msg_recvs_done_),
                static_cast<unsigned long long>(msg_recvs_total_),
                scratch_armed_);
  out += line;
  for (const Pair& pair : pairs_) {
    std::snprintf(line, sizeof line,
                  "  pair peer_rank=%u send=%zu/%zu posted=%llu "
                  "credits_in=%llu recv_done=%zu/%zu recv_posted=%zu "
                  "credits_out=%llu\n",
                  pair.peer_rank, pair.next_send, pair.send_blocks.size(),
                  static_cast<unsigned long long>(pair.sends_posted),
                  static_cast<unsigned long long>(pair.credits_from_peer),
                  pair.recvs_completed_msg, pair.recv_blocks.size(),
                  pair.next_recv_post,
                  static_cast<unsigned long long>(pair.credits_granted));
    out += line;
  }
  return out;
}

void Group::on_failure_notice(NodeId suspect) {
  ++stats_.failure_notices;
  fail(suspect, false);
}

void Group::fail(NodeId suspect, bool relay) {
  if (failed_) return;
  failed_ = true;
  RDMC_LOG_INFO("core", "group %d failed (suspect node %u)", id_, suspect);
  if (relay) node_.relay_failure(id_, members_, suspect);
  if (on_failure_) on_failure_(id_, suspect);
}

}  // namespace rdmc
