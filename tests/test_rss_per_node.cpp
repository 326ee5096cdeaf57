// Simulator memory per node.
//
// One simulation process hosts every node of the cluster, so anything a
// node holds in proportion to the block size or to the group size turns
// into gigabytes at Fig 8 scale. This gate builds a 1024-node Sierra
// cluster, multicasts one 32 MB message in 1 MB blocks through the binomial
// pipeline, and bounds the peak-RSS growth per node. It is its own
// executable because ru_maxrss is a per-process peak (see peak_rss.hpp).
#include <gtest/gtest.h>

#include <cstdio>

#include "harness/sim_harness.hpp"
#include "peak_rss.hpp"
#include "sim/cluster_profiles.hpp"

namespace rdmc::harness {
namespace {

TEST(RssPerNode, Fig8At1024NodesStaysUnderBound) {
  if (!tests::kRssIsProgramMemory)
    GTEST_SKIP() << "sanitizer allocator: RSS is not the program's memory";
  constexpr std::size_t kNodes = 1024;
  const std::size_t before = tests::peak_rss_bytes();
  MulticastConfig cfg;
  cfg.profile = sim::sierra_profile(kNodes);
  cfg.group_size = kNodes;
  cfg.message_bytes = 32ull << 20;
  cfg.block_size = 1 << 20;
  const auto result = run_multicast(cfg);
  ASSERT_GT(result.total_seconds, 0.0);
  const std::size_t per_node =
      (tests::peak_rss_bytes() - before) / kNodes;
  std::printf("peak RSS growth: %zu bytes per node\n", per_node);
  // Measured at 33 KB per node (Release, x86-64, glibc malloc): the flow
  // network, the event queue, each Group's pairs and the SimFabric queues
  // in use (DESIGN.md §4, "Memory per node"). The bound leaves 2x for
  // other allocators and library versions. A first-block scratch that is
  // zero-filled costs a whole block, 1024 KB, per node.
  EXPECT_LE(per_node, std::size_t{64} << 10)
      << "peak RSS grew " << per_node << " bytes per node";
}

}  // namespace
}  // namespace rdmc::harness
