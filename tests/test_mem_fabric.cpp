// MemFabric semantics: FIFO per QP, send/recv matching, immediates,
// write-with-immediate, break flushing — the RC-verbs slice RDMC needs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>

#include "fabric/mem_fabric.hpp"

namespace rdmc::fabric {
namespace {

using namespace std::chrono_literals;

/// Collects completions for one endpoint with waiting helpers.
class Collector {
 public:
  explicit Collector(Endpoint& ep) : ep_(ep) {
    ep.set_completion_handler([this](const Completion& c) {
      std::lock_guard lock(mutex_);
      completions_.push_back(c);
      cv_.notify_all();
    });
  }

  /// Detach before members die; the setter synchronises with in-flight
  /// dispatch (the fabric's documented guarantee).
  ~Collector() { ep_.set_completion_handler(nullptr); }

  /// Wait until at least n completions arrived (5 s timeout).
  bool wait_for(std::size_t n) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, 5s,
                        [&] { return completions_.size() >= n; });
  }

  std::vector<Completion> snapshot() {
    std::lock_guard lock(mutex_);
    return completions_;
  }

 private:
  Endpoint& ep_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Completion> completions_;
};

TEST(MemFabric, BasicSendRecv) {
  MemFabric fabric(2);
  Collector c0(fabric.endpoint(0)), c1(fabric.endpoint(1));
  QueuePair* qp0 = fabric.connect(0, 1, 0);
  QueuePair* qp1 = fabric.connect(1, 0, 0);
  ASSERT_NE(qp0, nullptr);
  ASSERT_NE(qp1, nullptr);
  EXPECT_EQ(qp0->peer(), 1u);
  EXPECT_EQ(qp1->peer(), 0u);

  std::vector<std::byte> src(1024), dst(1024);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::byte>(i * 7);

  ASSERT_TRUE(ok(qp1->post_recv(MemoryView{dst.data(), dst.size()}, 11)));
  ASSERT_TRUE(ok(qp0->post_send(MemoryView{src.data(), src.size()}, 22, 999)));

  ASSERT_TRUE(c0.wait_for(1));
  ASSERT_TRUE(c1.wait_for(1));
  const auto s = c0.snapshot();
  const auto r = c1.snapshot();
  EXPECT_EQ(s[0].opcode, WcOpcode::kSend);
  EXPECT_EQ(s[0].wr_id, 22u);
  EXPECT_EQ(r[0].opcode, WcOpcode::kRecv);
  EXPECT_EQ(r[0].wr_id, 11u);
  EXPECT_EQ(r[0].immediate, 999u);
  EXPECT_EQ(r[0].byte_len, 1024u);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), src.size()), 0);
}

TEST(MemFabric, SendWaitsForRecv) {
  MemFabric fabric(2);
  Collector c0(fabric.endpoint(0)), c1(fabric.endpoint(1));
  QueuePair* qp0 = fabric.connect(0, 1, 0);
  QueuePair* qp1 = fabric.connect(1, 0, 0);

  std::vector<std::byte> src(64, std::byte{5}), dst(64);
  ASSERT_TRUE(ok(qp0->post_send(MemoryView{src.data(), src.size()}, 1, 0)));
  std::this_thread::sleep_for(10ms);
  EXPECT_TRUE(c1.snapshot().empty());  // nothing until a recv is posted
  ASSERT_TRUE(ok(qp1->post_recv(MemoryView{dst.data(), dst.size()}, 2)));
  ASSERT_TRUE(c1.wait_for(1));
  EXPECT_EQ(dst[0], std::byte{5});
}

TEST(MemFabric, FifoOrderPerQp) {
  MemFabric fabric(2);
  Collector c0(fabric.endpoint(0)), c1(fabric.endpoint(1));
  QueuePair* qp0 = fabric.connect(0, 1, 0);
  QueuePair* qp1 = fabric.connect(1, 0, 0);

  constexpr int kCount = 64;
  std::vector<std::vector<std::byte>> src(kCount), dst(kCount);
  for (int i = 0; i < kCount; ++i) {
    src[i].assign(16, static_cast<std::byte>(i));
    dst[i].assign(16, std::byte{0xFF});
    ASSERT_TRUE(ok(qp1->post_recv(MemoryView{dst[i].data(), dst[i].size()}, i)));
  }
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(ok(qp0->post_send(MemoryView{src[i].data(), src[i].size()},
                               1000 + i, i)));
  }
  ASSERT_TRUE(c1.wait_for(kCount));
  const auto r = c1.snapshot();
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(r[i].wr_id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(r[i].immediate, static_cast<std::uint32_t>(i));
    EXPECT_EQ(dst[i][0], static_cast<std::byte>(i));  // i-th recv got i-th send
  }
}

TEST(MemFabric, ChannelsAreIndependent) {
  MemFabric fabric(2);
  Collector c1(fabric.endpoint(1));
  QueuePair* a0 = fabric.connect(0, 1, 0);
  QueuePair* b0 = fabric.connect(0, 1, 7);
  QueuePair* a1 = fabric.connect(1, 0, 0);
  QueuePair* b1 = fabric.connect(1, 0, 7);
  EXPECT_NE(a0, b0);
  EXPECT_NE(a0->id(), b0->id());

  std::vector<std::byte> x(8, std::byte{1}), y(8, std::byte{2});
  std::vector<std::byte> dx(8), dy(8);
  // Post the recv only on channel 7; channel 0's send must not consume it.
  ASSERT_TRUE(ok(b1->post_recv(MemoryView{dy.data(), dy.size()}, 1)));
  ASSERT_TRUE(ok(a0->post_send(MemoryView{x.data(), x.size()}, 2, 0)));
  ASSERT_TRUE(ok(b0->post_send(MemoryView{y.data(), y.size()}, 3, 0)));
  ASSERT_TRUE(c1.wait_for(1));
  EXPECT_EQ(dy[0], std::byte{2});
  ASSERT_TRUE(ok(a1->post_recv(MemoryView{dx.data(), dx.size()}, 4)));
  ASSERT_TRUE(c1.wait_for(2));
  EXPECT_EQ(dx[0], std::byte{1});
}

TEST(MemFabric, WriteImmBypassesRecvQueue) {
  MemFabric fabric(2);
  Collector c0(fabric.endpoint(0)), c1(fabric.endpoint(1));
  QueuePair* qp0 = fabric.connect(0, 1, 0);
  ASSERT_TRUE(ok(qp0->post_write_imm(4242, 77)));
  ASSERT_TRUE(c1.wait_for(1));
  const auto r = c1.snapshot();
  EXPECT_EQ(r[0].opcode, WcOpcode::kRecvWriteImm);
  EXPECT_EQ(r[0].immediate, 4242u);
  ASSERT_TRUE(c0.wait_for(1));
  EXPECT_EQ(c0.snapshot()[0].opcode, WcOpcode::kWriteImm);
  EXPECT_EQ(c0.snapshot()[0].wr_id, 77u);
}

TEST(MemFabric, PhantomBuffersMoveNoBytes) {
  MemFabric fabric(2);
  Collector c1(fabric.endpoint(1));
  QueuePair* qp0 = fabric.connect(0, 1, 0);
  QueuePair* qp1 = fabric.connect(1, 0, 0);
  ASSERT_TRUE(ok(qp1->post_recv(MemoryView{nullptr, 4096}, 1)));
  ASSERT_TRUE(ok(qp0->post_send(MemoryView{nullptr, 4096}, 2, 5)));
  ASSERT_TRUE(c1.wait_for(1));
  EXPECT_EQ(c1.snapshot()[0].byte_len, 4096u);
  EXPECT_EQ(c1.snapshot()[0].immediate, 5u);
}

TEST(MemFabric, BreakFlushesAndNotifies) {
  MemFabric fabric(2);
  Collector c0(fabric.endpoint(0)), c1(fabric.endpoint(1));
  QueuePair* qp0 = fabric.connect(0, 1, 0);
  QueuePair* qp1 = fabric.connect(1, 0, 0);

  std::vector<std::byte> src(64), dst(64);
  // A send with no matching recv sits pending, then the link breaks.
  ASSERT_TRUE(ok(qp0->post_send(MemoryView{src.data(), src.size()}, 1, 0)));
  ASSERT_TRUE(ok(qp1->post_recv(MemoryView{dst.data(), dst.size()}, 2)));
  ASSERT_TRUE(c1.wait_for(1));
  ASSERT_TRUE(ok(qp0->post_send(MemoryView{src.data(), src.size()}, 3, 0)));
  fabric.break_link(0, 1);

  // Sender: completion for send 1, flush for send 3, disconnect.
  ASSERT_TRUE(c0.wait_for(3));
  bool saw_flush = false, saw_disconnect = false;
  for (const auto& c : c0.snapshot()) {
    saw_flush |= (c.status == WcStatus::kFlushed && c.wr_id == 3);
    saw_disconnect |= (c.opcode == WcOpcode::kDisconnect);
  }
  EXPECT_TRUE(saw_flush);
  EXPECT_TRUE(saw_disconnect);

  ASSERT_TRUE(c1.wait_for(2));
  bool recv_disc = false;
  for (const auto& c : c1.snapshot())
    recv_disc |= (c.opcode == WcOpcode::kDisconnect);
  EXPECT_TRUE(recv_disc);

  // Posts after a break fail fast.
  EXPECT_EQ(qp0->post_send(MemoryView{src.data(), src.size()}, 9, 0), PostResult::kQpBroken);
  EXPECT_EQ(qp1->post_recv(MemoryView{dst.data(), dst.size()}, 9), PostResult::kQpBroken);
  EXPECT_TRUE(qp0->broken());
}

TEST(MemFabric, CrashNodeBreaksAllLinks) {
  MemFabric fabric(4);
  Collector c1(fabric.endpoint(1)), c2(fabric.endpoint(2)),
      c3(fabric.endpoint(3));
  fabric.connect(1, 0, 0);
  fabric.connect(2, 0, 0);
  fabric.connect(3, 2, 0);
  fabric.crash_node(0);
  ASSERT_TRUE(c1.wait_for(1));
  ASSERT_TRUE(c2.wait_for(1));
  EXPECT_EQ(c1.snapshot()[0].opcode, WcOpcode::kDisconnect);
  EXPECT_EQ(c2.snapshot()[0].opcode, WcOpcode::kDisconnect);
  // Link 3<->2 survives.
  std::this_thread::sleep_for(10ms);
  EXPECT_TRUE(c3.snapshot().empty());
}

TEST(MemFabric, CloseRevokesPostedReceives) {
  // QueuePair::close() fences posted receives: after it returns, traffic
  // arriving for the QP is discarded, never written into the old buffers.
  MemFabric fabric(2);
  Collector c0(fabric.endpoint(0)), c1(fabric.endpoint(1));
  QueuePair* qp0 = fabric.connect(0, 1, 0);
  QueuePair* qp1 = fabric.connect(1, 0, 0);
  std::vector<std::byte> dst(64, std::byte{0});
  ASSERT_TRUE(ok(qp1->post_recv(MemoryView{dst.data(), dst.size()}, 1)));
  qp1->close();
  std::vector<std::byte> src(64, std::byte{9});
  // The peer's send "succeeds" (bytes discarded), our buffer is untouched,
  // and no receive completion fires.
  ASSERT_TRUE(ok(qp0->post_send(MemoryView{src.data(), src.size()}, 2, 0)));
  ASSERT_TRUE(c0.wait_for(1));
  EXPECT_EQ(c0.snapshot()[0].opcode, WcOpcode::kSend);
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(c1.snapshot().empty());
  EXPECT_EQ(dst[0], std::byte{0});
  // Posting on a closed QP fails.
  EXPECT_EQ(qp1->post_recv(MemoryView{dst.data(), dst.size()}, 3), PostResult::kQpBroken);
  EXPECT_TRUE(qp1->broken());
}

TEST(MemFabric, ClosedConnectionStaysDeadAfterItsQueuesAreFreed) {
  MemFabric fabric(3);
  Collector c0(fabric.endpoint(0)), c1(fabric.endpoint(1));
  QueuePair* qp0 = fabric.connect(0, 1, 5);
  QueuePair* qp1 = fabric.connect(1, 0, 5);
  std::vector<std::byte> landing(64, std::byte{0});
  ASSERT_TRUE(ok(qp1->post_recv_ud(MemoryView{landing.data(), 64}, 1)));

  // One side closed: a datagram from the open side is discarded as
  // no_recv and never reaches the revoked landing zone.
  qp1->close();
  std::vector<std::byte> src(64, std::byte{7});
  const auto before = fabric.faults().datagram_counters();
  ASSERT_TRUE(ok(qp0->post_send_ud(MemoryView{src.data(), 64}, 2, 0)));
  const auto after = fabric.faults().datagram_counters();
  EXPECT_EQ(after.no_recv, before.no_recv + 1);
  EXPECT_EQ(after.delivered, before.delivered);
  EXPECT_EQ(landing[0], std::byte{0});
  ASSERT_TRUE(c0.wait_for(1));  // the sender's kSendUd

  // Both sides closed: the queues are freed, the handles stay valid and
  // every verb reports kQpBroken.
  qp0->close();
  const MemoryView buf{src.data(), 64};
  EXPECT_EQ(qp0->post_send(buf, 3, 0), PostResult::kQpBroken);
  EXPECT_EQ(qp0->post_recv(buf, 4), PostResult::kQpBroken);
  EXPECT_EQ(qp0->post_write_imm(0, 5), PostResult::kQpBroken);
  EXPECT_EQ(qp0->post_window_write(0, 0, buf, 0, 6), PostResult::kQpBroken);
  EXPECT_EQ(qp0->post_send_ud(buf, 7, 0), PostResult::kQpBroken);
  EXPECT_EQ(qp1->post_recv_ud(buf, 8), PostResult::kQpBroken);
  // Reconnecting returns the same dead side.
  EXPECT_EQ(fabric.connect(0, 1, 5), qp0);

  // Faults over the reclaimed connection emit nothing and do not crash.
  fabric.faults().break_link(0, 1);
  fabric.faults().crash_node(1);
  fabric.drain();
  EXPECT_EQ(c0.snapshot().size(), 1u);
  EXPECT_TRUE(c1.snapshot().empty());
  EXPECT_EQ(fabric.faults().datagram_counters().sent, after.sent);
}

TEST(MemFabric, UnregisterWindowFences) {
  MemFabric fabric(2);
  Collector c0(fabric.endpoint(0)), c1(fabric.endpoint(1));
  std::vector<std::byte> window(64, std::byte{0});
  fabric.endpoint(1).register_window(
      5, MemoryView{window.data(), window.size()});
  QueuePair* qp0 = fabric.connect(0, 1, 5);
  fabric.endpoint(1).unregister_window(5);
  std::vector<std::byte> src(16, std::byte{7});
  // Writes to a deregistered window are dropped, not faults.
  ASSERT_TRUE(ok(qp0->post_window_write(
      5, 0, MemoryView{src.data(), src.size()}, 0, 1, true)));
  ASSERT_TRUE(c0.wait_for(1));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(window[0], std::byte{0});
  EXPECT_FALSE(qp0->broken());
}

TEST(MemFabric, OobMesh) {
  MemFabric fabric(3);
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::pair<NodeId, std::string>> got;
  fabric.endpoint(2).set_oob_handler(
      [&](NodeId from, std::span<const std::byte> payload) {
        std::lock_guard lock(m);
        got.emplace_back(from,
                         std::string(reinterpret_cast<const char*>(
                                         payload.data()),
                                     payload.size()));
        cv.notify_all();
      });
  const char* msg = "failure:group7";
  std::vector<std::byte> payload(
      reinterpret_cast<const std::byte*>(msg),
      reinterpret_cast<const std::byte*>(msg) + std::strlen(msg));
  fabric.endpoint(0).send_oob(2, payload);
  fabric.endpoint(1).send_oob(2, payload);
  std::unique_lock lock(m);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return got.size() == 2; }));
  EXPECT_EQ(got[0].second, "failure:group7");
}

TEST(MemFabric, RecvTooSmallBreaksQp) {
  MemFabric fabric(2);
  Collector c0(fabric.endpoint(0)), c1(fabric.endpoint(1));
  QueuePair* qp0 = fabric.connect(0, 1, 0);
  QueuePair* qp1 = fabric.connect(1, 0, 0);
  std::vector<std::byte> big(128), small(32);
  ASSERT_TRUE(ok(qp1->post_recv(MemoryView{small.data(), small.size()}, 1)));
  ASSERT_TRUE(ok(qp0->post_send(MemoryView{big.data(), big.size()}, 2, 0)));
  ASSERT_TRUE(c0.wait_for(2));  // error completion + disconnect
  bool saw_error = false;
  for (const auto& c : c0.snapshot())
    saw_error |= (c.status == WcStatus::kError);
  EXPECT_TRUE(saw_error);
}

}  // namespace
}  // namespace rdmc::fabric
