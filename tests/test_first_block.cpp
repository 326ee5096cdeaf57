// Real bytes through the first-block scratch (§4.2).
//
// A receiver lands each message's first block in a scratch buffer that is
// never zero-filled, learns the message size from the block's immediate,
// then copies the block to its offset. These tests send real payloads
// whose sizes hit a short first block, an exact-minus-one block and a
// partial last block, into receive buffers pre-filled with poison, on both
// the threaded MemFabric and SimFabric. Every receiver must deliver
// exactly the bytes sent and leave the poison past the message untouched.
// The messages go back to back through one group, so each later message
// reuses a scratch the previous one wrote.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "core/rdmc.hpp"
#include "fabric/mem_fabric.hpp"
#include "harness/sim_harness.hpp"
#include "util/random.hpp"

namespace rdmc {
namespace {

constexpr std::size_t kBlock = 4096;
constexpr std::size_t kSizes[] = {1, kBlock - 1, kBlock + 1, 3 * kBlock + 7};
constexpr std::size_t kMembers = 5;  // not a power of two: aliased ranks
/// Poisoned bytes past the end of every receive region.
constexpr std::size_t kGuard = 64;
constexpr std::byte kPoison{0xA5};

constexpr sched::Algorithm kAlgorithms[] = {
    sched::Algorithm::kBinomialPipeline, sched::Algorithm::kChain,
    sched::Algorithm::kBinomialTree, sched::Algorithm::kSequential};

std::vector<std::vector<std::byte>> make_payloads() {
  util::Rng rng(0xF1257B10C);
  std::vector<std::vector<std::byte>> out;
  for (std::size_t size : kSizes) {
    auto& p = out.emplace_back(size);
    for (auto& b : p) b = static_cast<std::byte>(rng());
  }
  return out;
}

/// What each member received: one poisoned buffer per message, of which
/// the group sees only the first `size` bytes.
class Inboxes {
 public:
  Inboxes() : bufs_(kMembers), delivered_(kMembers, 0) {}

  fabric::MemoryView take(NodeId member, std::size_t size) {
    std::lock_guard lock(mutex_);
    auto& buf = bufs_[member].emplace_back(size + kGuard, kPoison);
    return fabric::MemoryView{buf.data(), size};
  }

  void delivered(NodeId member) {
    std::lock_guard lock(mutex_);
    ++delivered_[member];
    cv_.notify_all();
  }

  bool wait_all(std::size_t messages) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(20), [&] {
      return std::all_of(delivered_.begin() + 1, delivered_.end(),
                         [&](std::size_t d) { return d >= messages; });
    });
  }

  void expect_exact(const std::vector<std::vector<std::byte>>& sent) {
    std::lock_guard lock(mutex_);
    for (NodeId m = 1; m < kMembers; ++m) {
      ASSERT_EQ(bufs_[m].size(), sent.size()) << "member " << m;
      for (std::size_t i = 0; i < sent.size(); ++i) {
        const auto& got = bufs_[m][i];
        const auto& want = sent[i];
        ASSERT_EQ(got.size(), want.size() + kGuard);
        EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
            << "member " << m << ", message of " << want.size() << " bytes";
        EXPECT_TRUE(std::all_of(got.begin() + want.size(), got.end(),
                                [](std::byte b) { return b == kPoison; }))
            << "member " << m << " wrote past a " << want.size()
            << "-byte message";
      }
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::vector<std::vector<std::byte>>> bufs_;
  std::vector<std::size_t> delivered_;
};

std::vector<NodeId> members() {
  std::vector<NodeId> out(kMembers);
  for (std::size_t i = 0; i < kMembers; ++i) out[i] = static_cast<NodeId>(i);
  return out;
}

void create_everywhere(const std::vector<Node*>& nodes, GroupId id,
                       sched::Algorithm algorithm, Inboxes& inboxes) {
  GroupOptions options;
  options.block_size = kBlock;
  options.algorithm = algorithm;
  const std::vector<NodeId> group = members();
  for (NodeId m = 0; m < kMembers; ++m) {
    ASSERT_TRUE(nodes[m]->create_group(
        id, group, options,
        [&inboxes, m](std::size_t size) { return inboxes.take(m, size); },
        [&inboxes, m](std::byte*, std::size_t) { inboxes.delivered(m); }));
  }
}

TEST(FirstBlock, RealBytesExactOnMemFabric) {
  for (const sched::Algorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(sched::algorithm_name(algorithm));
    auto sent = make_payloads();
    Inboxes inboxes;
    fabric::MemFabric fabric(kMembers);
    std::vector<std::unique_ptr<Node>> owned;
    std::vector<Node*> nodes;
    for (NodeId m = 0; m < kMembers; ++m)
      nodes.push_back(
          owned.emplace_back(std::make_unique<Node>(fabric, m)).get());
    create_everywhere(nodes, 1, algorithm, inboxes);
    for (auto& p : sent) ASSERT_TRUE(nodes[0]->send(1, p.data(), p.size()));
    const bool done = inboxes.wait_all(sent.size());
    owned.clear();  // detach handlers before the inboxes go away
    fabric.stop();
    ASSERT_TRUE(done) << "not every receiver delivered every message";
    inboxes.expect_exact(sent);
  }
}

TEST(FirstBlock, RealBytesExactOnSimFabric) {
  for (const sched::Algorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(sched::algorithm_name(algorithm));
    auto sent = make_payloads();
    Inboxes inboxes;
    harness::SimCluster cluster(sim::fractus_profile(kMembers));
    std::vector<Node*> nodes;
    for (NodeId m = 0; m < kMembers; ++m) nodes.push_back(&cluster.node(m));
    create_everywhere(nodes, 1, algorithm, inboxes);
    for (auto& p : sent) ASSERT_TRUE(nodes[0]->send(1, p.data(), p.size()));
    cluster.run_to_quiescence();
    ASSERT_TRUE(inboxes.wait_all(sent.size()));
    inboxes.expect_exact(sent);
  }
}

}  // namespace
}  // namespace rdmc
