// Unreliable-datagram service type + software reliability, end to end.
//
// The load-bearing contract is cross-backend parity: a DatagramFaultProfile
// with a given seed must produce the *same* drop/duplicate/reorder sequence
// on MemFabric, TcpFabric and SimFabric, because the verdicts are a pure
// function of (seed, src, dst, per-pair index) — never of timing. On top of
// that ride the reliability policies: selective-repeat and erasure coding
// must each reconstruct a large object bit-exactly through a lossy fabric.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "fabric/mem_fabric.hpp"
#include "fabric/sim_fabric.hpp"
#include "fabric/tcp_fabric.hpp"
#include "reliability/gf256.hpp"
#include "reliability/policy.hpp"
#include "reliability/rs_code.hpp"
#include "reliability/session.hpp"
#include "sched/schedule.hpp"

namespace rdmc {
namespace {

using namespace std::chrono_literals;
using fabric::Completion;
using fabric::MemoryView;
using fabric::QueuePair;
using fabric::WcOpcode;
using fabric::WcStatus;

constexpr std::size_t kSends = 200;
constexpr std::size_t kPayload = 64;

fabric::DatagramFaultProfile lossy_profile() {
  fabric::DatagramFaultProfile p;
  p.loss = 0.10;
  p.duplicate = 0.05;
  p.reorder = 0.10;
  p.reorder_span = 4;
  p.seed = 0xC0FFEE;
  return p;
}

struct UdRun {
  std::vector<std::uint32_t> arrivals;  // immediates in arrival order
  fabric::DatagramCounters counters;
};

/// Drive kSends datagrams 0 -> 1 through any fabric. All receives are
/// posted upfront so no_recv stays zero and the arrival sequence is the
/// wire sequence. `pump` drains the fabric (sim: run; threaded: wait).
UdRun drive(fabric::Fabric& fab,
            const std::function<void(std::size_t expected)>& pump,
            std::vector<std::uint32_t>* recv_immediates) {
  QueuePair* qp0 = fab.connect(0, 1, 0);
  QueuePair* qp1 = fab.connect(1, 0, 0);
  EXPECT_NE(qp0, nullptr);
  EXPECT_NE(qp1, nullptr);

  // Duplicates can at most double the wire count.
  std::vector<std::vector<std::byte>> bufs(2 * kSends);
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    bufs[i].resize(kPayload);
    EXPECT_TRUE(
        ok(qp1->post_recv_ud(MemoryView{bufs[i].data(), kPayload}, i)));
  }

  std::vector<std::byte> payload(kPayload);
  for (std::size_t i = 0; i < kSends; ++i) {
    for (std::size_t b = 0; b < kPayload; ++b)
      payload[b] = static_cast<std::byte>(i + 3 * b);
    EXPECT_TRUE(ok(qp0->post_send_ud(MemoryView{payload.data(), kPayload},
                                     i, static_cast<std::uint32_t>(i))));
  }

  // Every verdict is decided at send time, so after the last post the
  // counters already say how many datagrams must arrive.
  const auto c = fab.faults().datagram_counters();
  const std::size_t expected = c.sent - c.dropped + c.duplicated;
  pump(expected);

  UdRun run;
  run.counters = fab.faults().datagram_counters();
  run.arrivals = *recv_immediates;

  // Payload integrity: each arrival carries the pattern of its immediate.
  for (std::size_t a = 0; a < run.arrivals.size(); ++a) {
    const std::uint32_t imm = run.arrivals[a];
    for (std::size_t b = 0; b < kPayload; ++b)
      EXPECT_EQ(bufs[a][b], static_cast<std::byte>(imm + 3 * b))
          << "arrival " << a << " byte " << b;
  }
  return run;
}

/// Threaded-fabric receiver: records kRecvUd immediates in arrival order.
struct ThreadedSink {
  explicit ThreadedSink(fabric::Endpoint& ep) : ep_(ep) {
    ep.set_completion_handler([this](const Completion& c) {
      if (c.opcode != WcOpcode::kRecvUd || c.status != WcStatus::kSuccess)
        return;
      std::lock_guard lock(mutex);
      immediates.push_back(c.immediate);
      cv.notify_all();
    });
  }
  ~ThreadedSink() { ep_.set_completion_handler(nullptr); }
  bool wait_for(std::size_t n) {
    std::unique_lock lock(mutex);
    return cv.wait_for(lock, 10s, [&] { return immediates.size() >= n; });
  }
  fabric::Endpoint& ep_;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::uint32_t> immediates;
};

UdRun run_mem() {
  fabric::MemFabric fab(2);
  fab.faults().set_datagram_faults(lossy_profile());
  fab.endpoint(0).set_completion_handler([](const Completion&) {});
  ThreadedSink sink(fab.endpoint(1));
  return drive(
      fab, [&](std::size_t expected) { EXPECT_TRUE(sink.wait_for(expected)); },
      &sink.immediates);
}

UdRun run_tcp() {
  fabric::TcpFabric fab(std::vector<fabric::TcpAddress>(2), {0, 1});
  fab.faults().set_datagram_faults(lossy_profile());
  fab.endpoint(0).set_completion_handler([](const Completion&) {});
  ThreadedSink sink(fab.endpoint(1));
  return drive(
      fab, [&](std::size_t expected) { EXPECT_TRUE(sink.wait_for(expected)); },
      &sink.immediates);
}

UdRun run_sim() {
  sim::Simulator sim;
  sim::Topology topo(sim::TopologyConfig{.num_nodes = 2, .nic_gbps = 100.0});
  fabric::SimFabric fab(sim, topo, {});
  fab.set_datagram_faults(lossy_profile());
  std::vector<std::uint32_t> immediates;
  fab.endpoint(0).set_completion_handler([](const Completion&) {});
  fab.endpoint(1).set_completion_handler([&](const Completion& c) {
    if (c.opcode == WcOpcode::kRecvUd && c.status == WcStatus::kSuccess)
      immediates.push_back(c.immediate);
  });
  return drive(fab, [&](std::size_t) { sim.run(); }, &immediates);
}

TEST(UdParity, SameSeedSameWireSequenceOnAllBackends) {
  const UdRun mem = run_mem();
  const UdRun tcp = run_tcp();
  const UdRun sim = run_sim();

  // The plan actually impaired something (otherwise the test is vacuous).
  EXPECT_GT(mem.counters.dropped, 0u);
  EXPECT_GT(mem.counters.duplicated, 0u);
  EXPECT_GT(mem.counters.reordered, 0u);
  EXPECT_EQ(mem.counters.no_recv, 0u);

  EXPECT_EQ(mem.arrivals, tcp.arrivals);
  EXPECT_EQ(mem.arrivals, sim.arrivals);
  for (const UdRun* r : {&tcp, &sim}) {
    EXPECT_EQ(mem.counters.sent, r->counters.sent);
    EXPECT_EQ(mem.counters.dropped, r->counters.dropped);
    EXPECT_EQ(mem.counters.duplicated, r->counters.duplicated);
    EXPECT_EQ(mem.counters.reordered, r->counters.reordered);
    EXPECT_EQ(mem.counters.delivered, r->counters.delivered);
    EXPECT_EQ(r->counters.no_recv, 0u);
  }
}

TEST(UdParity, LossNeverBreaksTheQueuePair) {
  fabric::MemFabric fab(2);
  fabric::DatagramFaultProfile p;
  p.loss = 1.0;  // every datagram dropped
  fab.faults().set_datagram_faults(p);
  std::mutex m;
  std::vector<Completion> sends;
  std::condition_variable cv;
  fab.endpoint(0).set_completion_handler([&](const Completion& c) {
    std::lock_guard lock(m);
    sends.push_back(c);
    cv.notify_all();
  });
  fab.endpoint(1).set_completion_handler([](const Completion&) {});
  QueuePair* qp0 = fab.connect(0, 1, 0);
  fab.connect(1, 0, 0);
  std::vector<std::byte> buf(128);
  for (std::size_t i = 0; i < 32; ++i)
    ASSERT_TRUE(ok(qp0->post_send_ud(MemoryView{buf.data(), buf.size()}, i,
                                     static_cast<std::uint32_t>(i))));
  {
    std::unique_lock lock(m);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return sends.size() >= 32; }));
  }
  // Fire-and-forget: the sender completes successfully for every datagram
  // even though the network ate all of them, and the QP stays usable.
  for (const Completion& c : sends) {
    EXPECT_EQ(c.opcode, WcOpcode::kSendUd);
    EXPECT_EQ(c.status, WcStatus::kSuccess);
  }
  const auto counters = fab.faults().datagram_counters();
  EXPECT_EQ(counters.dropped, 32u);
  EXPECT_EQ(counters.delivered, 0u);
  fab.endpoint(0).set_completion_handler(nullptr);
}

TEST(Gf256, FieldIdentities) {
  using namespace reliability;
  for (int a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf256::mul(x, gf256::inv(x)), 1) << a;
    EXPECT_EQ(gf256::mul(x, 1), x);
    EXPECT_EQ(gf256::mul(x, 0), 0);
  }
  // Spot-check distributivity on a few triples.
  for (int a = 1; a < 256; a += 37)
    for (int b = 1; b < 256; b += 41)
      for (int c = 1; c < 256; c += 43) {
        const auto x = static_cast<std::uint8_t>(a);
        const auto y = static_cast<std::uint8_t>(b);
        const auto z = static_cast<std::uint8_t>(c);
        EXPECT_EQ(gf256::mul(x, static_cast<std::uint8_t>(y ^ z)),
                  gf256::mul(x, y) ^ gf256::mul(x, z));
      }
}

/// Deterministic filler: a xorshift stream from `seed`.
std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  std::uint64_t x = seed | 1;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<std::byte>(x >> 56);
  }
  return out;
}

TEST(Gf256, MuladdMatchesPerByteProduct) {
  using namespace reliability;
  // Lengths 0..100 cover short scalar-only calls and the 32-byte body with
  // every tail length; 65543 is a long body plus a 7-byte tail. Every
  // source and destination offset 0..31 is exercised for each coefficient.
  std::vector<std::size_t> lengths(101);
  std::iota(lengths.begin(), lengths.end(), 0);
  lengths.push_back(65543);
  constexpr std::size_t kGuard = 32;
  const std::vector<std::byte> src = random_bytes(65543 + 2 * kGuard, 11);
  const std::vector<std::byte> dst = random_bytes(65543 + 2 * kGuard, 12);
  std::vector<std::uint8_t> got, want;
  for (int coef = 0; coef < 256; ++coef) {
    const auto c = static_cast<std::uint8_t>(coef);
    for (std::size_t len : lengths) {
      for (std::size_t xo = 0; xo < 32; ++xo) {
        // The long length runs 4 of the 32 source offsets per coefficient.
        if (len > 100 && xo % 8 != std::size_t(coef) % 8) continue;
        const std::size_t yo = (xo * 7 + coef) % 32;
        const auto* x = reinterpret_cast<const std::uint8_t*>(src.data()) + xo;
        got.assign(reinterpret_cast<const std::uint8_t*>(dst.data()),
                   reinterpret_cast<const std::uint8_t*>(dst.data()) +
                       len + 2 * kGuard);
        want = got;
        for (std::size_t i = 0; i < len; ++i)
          want[yo + i] ^= gf256::mul(c, x[i]);
        gf256::muladd(got.data() + yo, x, c, len);
        ASSERT_EQ(got, want) << "c=" << coef << " len=" << len
                             << " xo=" << xo << " yo=" << yo;
      }
    }
  }
}

TEST(RsCode, RecoversAnyMErasures) {
  using reliability::RsCode;
  const std::size_t k = 8, m = 2;
  // 45 and 1007 are not multiples of the muladd kernel's 32-byte step.
  for (const std::size_t n : {std::size_t{512}, std::size_t{45},
                              std::size_t{1007}}) {
    SCOPED_TRACE(n);
    RsCode code(k, m);
    std::vector<std::vector<std::byte>> data(k), parity(m);
    for (std::size_t i = 0; i < k; ++i) {
      data[i].resize(n);
      for (std::size_t b = 0; b < n; ++b)
        data[i][b] = static_cast<std::byte>(17 * i + 3 * b + 1);
    }
    std::vector<const std::byte*> dptr(k);
    for (std::size_t i = 0; i < k; ++i) dptr[i] = data[i].data();
    std::vector<std::byte*> pptr(m);
    for (std::size_t j = 0; j < m; ++j) {
      parity[j].resize(n);
      pptr[j] = parity[j].data();
    }
    code.encode(dptr, pptr, n);

    // Erase every pair of data symbols in turn; decode must restore both.
    for (std::size_t e1 = 0; e1 < k; ++e1) {
      for (std::size_t e2 = e1 + 1; e2 < k; ++e2) {
        auto scratch = data;
        scratch[e1].assign(n, std::byte{0});
        scratch[e2].assign(n, std::byte{0});
        std::vector<std::byte*> sym(k);
        std::vector<bool> have(k, true);
        for (std::size_t i = 0; i < k; ++i) sym[i] = scratch[i].data();
        have[e1] = have[e2] = false;
        std::vector<const std::byte*> par(m);
        for (std::size_t j = 0; j < m; ++j) par[j] = parity[j].data();
        ASSERT_TRUE(
            code.decode(sym, have, par, std::vector<bool>(m, true), n));
        EXPECT_EQ(scratch[e1], data[e1]);
        EXPECT_EQ(scratch[e2], data[e2]);
      }
    }

    // m+1 erasures must be rejected, not mis-decoded.
    auto scratch = data;
    std::vector<std::byte*> sym(k);
    std::vector<bool> have(k, true);
    for (std::size_t i = 0; i < k; ++i) sym[i] = scratch[i].data();
    have[0] = have[1] = have[2] = false;
    std::vector<const std::byte*> par(m);
    for (std::size_t j = 0; j < m; ++j) par[j] = parity[j].data();
    EXPECT_FALSE(code.decode(sym, have, par, std::vector<bool>(m, true), n));
  }
}

void recover_bit_exact(reliability::Policy policy, std::size_t bytes,
                       std::size_t block_size) {
  fabric::MemFabric fab(4);
  fabric::DatagramFaultProfile p;
  p.loss = 0.01;
  p.seed = 0xBADBEEF;
  fab.faults().set_datagram_faults(p);

  std::vector<std::byte> object(bytes);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < bytes; i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(object.data() + i, &x, std::min<std::size_t>(8, bytes - i));
  }

  reliability::SessionOptions opts;
  opts.policy = policy;
  opts.block_size = block_size;
  reliability::UdMulticastSession session(fab, {0, 1, 2, 3}, opts);
  ASSERT_TRUE(session.send(object.data(), bytes));
  session.wait_done();

  ASSERT_TRUE(session.all_complete());
  EXPECT_GT(fab.faults().datagram_counters().dropped, 0u);
  for (std::size_t rank = 1; rank < 4; ++rank) {
    const auto got = session.member_data(rank);
    ASSERT_EQ(got.size(), bytes) << "rank " << rank;
    EXPECT_EQ(std::memcmp(got.data(), object.data(), bytes), 0)
        << "rank " << rank;
  }
}

TEST(UdReliability, SelectiveRepeatRecovers100MBAt1PercentLoss) {
  recover_bit_exact(reliability::Policy::kSelectiveRepeat, 100ull << 20,
                    256 * 1024);
}

TEST(UdReliability, ErasureRecovers100MBAt1PercentLoss) {
  recover_bit_exact(reliability::Policy::kErasure, 100ull << 20, 256 * 1024);
}

TEST(UdReliability, ErasureDeliversAnObjectWithAShortLastBlock) {
  // 4 MB + 12345 bytes: 64 full 64 KB blocks and a short 65th, which the
  // root pads for encoding and members reconstruct into unzeroed buffers.
  recover_bit_exact(reliability::Policy::kErasure, (4u << 20) + 12345,
                    64 * 1024);
}

TEST(UdReliability, ErasureRepairsAShortLastBlockIntoUnzeroedMemory) {
  // The session's reconstruction buffers are not zero-filled, so repair()
  // must write every byte of a missing short final block itself. Lose the
  // short block and one full block of the last stripe and repair into a
  // buffer poisoned with 0xCD.
  using namespace reliability;
  const std::size_t block = 4096, size = 9 * block + 123;
  const auto policy = make_policy(Policy::kErasure, 8, 2);
  const std::size_t data_blocks = 10;
  const std::size_t wire = policy->wire_blocks(data_blocks);
  const std::vector<std::byte> object = random_bytes(size, 21);

  // Root side: encode both stripes, the short block zero-padded.
  std::vector<std::vector<std::byte>> parity(4, std::vector<std::byte>(block));
  RsCode code(8, 2);
  std::vector<std::byte> padded(block, std::byte{0});
  std::copy(object.begin() + 9 * block, object.end(), padded.begin());
  for (std::size_t s = 0; s < 2; ++s) {
    std::vector<const std::byte*> sym(8, nullptr);
    for (std::size_t j = 0; j < 8 && s * 8 + j < data_blocks; ++j)
      sym[j] = s * 8 + j == 9 ? padded.data()
                              : object.data() + (s * 8 + j) * block;
    code.encode(sym, {parity[2 * s].data(), parity[2 * s + 1].data()}, block);
  }

  std::vector<bool> have(wire, true);
  std::vector<std::byte> got(object);
  for (std::size_t w = 0; w < wire; ++w) {
    const std::size_t db = policy->data_block_of(w, data_blocks);
    if (db != 8 && db != 9) continue;
    have[w] = false;
    const std::size_t off = db * block;
    std::fill(got.begin() + off,
              got.begin() + std::min(size, off + block), std::byte{0xCD});
  }
  ASSERT_TRUE(policy->complete(have, data_blocks));
  ASSERT_TRUE(
      policy->repair(have, data_blocks, block, got.data(), size, parity));
  EXPECT_EQ(got, object);
}

TEST(UdReliability, DestroyedSessionAcceptsNoLateDatagram) {
  // A destroyed session has freed its landing zones, so no datagram may be
  // placed on its channels afterwards. Under ASan, a receive still posted
  // into a freed landing zone would fail here as a heap-use-after-free.
  fabric::MemFabric fab(4);
  fabric::DatagramFaultProfile p;
  p.loss = 0.01;
  fab.faults().set_datagram_faults(p);
  const std::vector<std::byte> object = random_bytes(1u << 20, 41);
  reliability::SessionOptions opts;
  opts.policy = reliability::Policy::kErasure;
  opts.channel = 6;
  {
    reliability::UdMulticastSession session(fab, {0, 1, 2, 3}, opts);
    ASSERT_TRUE(session.send(object.data(), object.size()));
    session.wait_done();
    ASSERT_TRUE(session.all_complete());
  }
  fab.drain();
  fab.faults().set_datagram_faults({});  // lossless, counters zeroed

  // A relay peer of member 1 (a rank it receives from) and the root's
  // repair lane: the session closed both ends, so the post is refused.
  const auto schedule = sched::make_schedule(
      sched::Algorithm::kBinomialPipeline, 4, 1);
  std::uint32_t relay_peer = 0;
  for (std::size_t step = 0; step < schedule->num_steps(16); ++step)
    for (const sched::Transfer& t : schedule->recvs_at(16, step))
      if (t.peer != 0) relay_peer = t.peer;
  ASSERT_NE(relay_peer, 0u);
  std::vector<std::byte> late(opts.block_size, std::byte{0xAB});
  const MemoryView view{late.data(), late.size()};
  const auto c0 = fab.faults().datagram_counters();
  EXPECT_EQ(fab.connect(relay_peer, 1, opts.channel)->post_send_ud(view, 0, 0),
            fabric::PostResult::kQpBroken);
  EXPECT_EQ(fab.connect(0, 1, opts.channel + 1)->post_send_ud(view, 0, 0),
            fabric::PostResult::kQpBroken);
  // A peer the session never connected to member 1 on its repair channel:
  // the datagram goes out and is discarded on arrival.
  EXPECT_EQ(fab.connect(2, 1, opts.channel + 1)->post_send_ud(view, 0, 0),
            fabric::PostResult::kOk);
  fab.drain();
  const auto c1 = fab.faults().datagram_counters();
  EXPECT_EQ(c1.sent, c0.sent + 1);
  EXPECT_EQ(c1.no_recv, c0.no_recv + 1);
  EXPECT_EQ(c1.delivered, c0.delivered);
}

TEST(UdReliability, BackToBackSessionsIgnoreEachOthersControlMessages) {
  // Endpoints outlive sessions, so a finished session's control messages
  // (a member's kComplete, say) can still be queued when the next session
  // installs its handlers. Taken for the new session's, such a message
  // would stop the root from repairing that member and the session would
  // never finish. A slow root keeps its queue long enough for that.
  fabric::MemFabric fab(4);
  fabric::DatagramFaultProfile p;
  p.loss = 0.10;
  p.seed = 0xB2B;
  fab.faults().set_datagram_faults(p);
  fab.faults().slow_node(0, 51.0, 60.0);  // +0.5 ms per root dispatch
  const std::vector<std::byte> object = random_bytes(256u << 10, 51);
  for (std::uint32_t i = 0; i < 20; ++i) {
    reliability::SessionOptions opts;
    opts.policy = reliability::Policy::kErasure;
    opts.block_size = 16 * 1024;
    opts.channel = 2 * i;
    reliability::UdMulticastSession session(fab, {0, 1, 2, 3}, opts);
    ASSERT_TRUE(session.send(object.data(), object.size()));
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!session.done() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    ASSERT_TRUE(session.done()) << "session " << i;
    ASSERT_TRUE(session.all_complete()) << "session " << i;
    for (std::size_t rank = 1; rank < 4; ++rank) {
      const auto got = session.member_data(rank);
      ASSERT_EQ(got.size(), object.size());
      EXPECT_EQ(std::memcmp(got.data(), object.data(), object.size()), 0)
          << "session " << i << " rank " << rank;
    }
  }
}

TEST(UdReliability, PhantomSessionOnSimFabricDeliversAll) {
  sim::Simulator sim;
  sim::Topology topo(sim::TopologyConfig{.num_nodes = 8, .nic_gbps = 100.0});
  fabric::SimFabric fab(sim, topo, {});
  fabric::DatagramFaultProfile p;
  p.loss = 0.02;
  fab.set_datagram_faults(p);

  reliability::SessionOptions opts;
  opts.policy = reliability::Policy::kSelectiveRepeat;
  opts.block_size = 64 * 1024;
  opts.clock = [&sim] { return sim.now(); };
  opts.charge_cpu = [&fab](fabric::NodeId n, double s) {
    return fab.charge_app_seconds(n, s);
  };
  std::vector<fabric::NodeId> members(8);
  std::iota(members.begin(), members.end(), 0);
  reliability::UdMulticastSession session(fab, members, opts);
  ASSERT_TRUE(session.send(nullptr, 8ull << 20));
  sim.run();
  EXPECT_TRUE(session.done());
  EXPECT_TRUE(session.all_complete());
  EXPECT_GT(session.stats().retx_datagrams, 0u);
}

TEST(UdReliability, NonePolicyGivesUpUnderLoss) {
  sim::Simulator sim;
  sim::Topology topo(sim::TopologyConfig{.num_nodes = 4, .nic_gbps = 100.0});
  fabric::SimFabric fab(sim, topo, {});
  fabric::DatagramFaultProfile p;
  p.loss = 0.05;
  fab.set_datagram_faults(p);

  reliability::SessionOptions opts;
  opts.policy = reliability::Policy::kNone;
  opts.block_size = 64 * 1024;
  opts.clock = [&sim] { return sim.now(); };
  reliability::UdMulticastSession session(fab, {0, 1, 2, 3}, opts);
  ASSERT_TRUE(session.send(nullptr, 4ull << 20));
  sim.run();
  // No repair machinery: the session must terminate (not hang) and report
  // the losers as failed rather than complete.
  EXPECT_TRUE(session.done());
  EXPECT_FALSE(session.all_complete());
}

}  // namespace
}  // namespace rdmc
