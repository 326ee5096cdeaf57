#include "probes.hpp"

#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "fabric/mem_fabric.hpp"
#include "fabric/tcp_fabric.hpp"
#include "reliability/gf256.hpp"
#include "reliability/rs_code.hpp"
#include "sched/schedule.hpp"
#include "spans.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

std::vector<std::byte> random_block(std::size_t n, std::uint64_t seed) {
  rdmc::util::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng());
  return v;
}

/// Keeps a computed value alive so the timed loop cannot be dropped.
volatile std::uint64_t g_sink = 0;

/// Receiver-paced point-to-point stream: the receiver keeps `window`
/// receives posted and re-posts each slot from its completion handler; the
/// driver thread posts message i only once i < received + window, so a
/// posted receive always waits for it.
class Stream {
 public:
  Stream(std::size_t bytes, std::size_t window)
      : src_(random_block(bytes, 0x5EED)),
        slots_(window, std::vector<std::byte>(bytes)) {}

  /// Handler for the receiving endpoint. `repost(slot_view, wr_id)` posts
  /// one receive.
  template <typename Repost>
  void on_recv(std::uint64_t wr_id, Repost repost) {
    repost(view(wr_id % slots_.size()), wr_id);
    std::lock_guard lock(mutex_);
    ++received_;
    cv_.notify_all();
  }

  template <typename Post>
  double run(std::size_t messages, Post post) {
    const std::uint64_t first = posted_;
    const double t0 = now();
    for (std::size_t i = 0; i < messages; ++i) {
      {
        std::unique_lock lock(mutex_);
        const bool ok = cv_.wait_for(lock, std::chrono::seconds(20), [&] {
          return posted_ < received_ + slots_.size();
        });
        if (!ok) throw std::runtime_error("probe stream stalled");
      }
      post(rdmc::fabric::MemoryView{src_.data(), src_.size()}, posted_++);
    }
    std::unique_lock lock(mutex_);
    if (!cv_.wait_for(lock, std::chrono::seconds(20),
                      [&] { return received_ == first + messages; }))
      throw std::runtime_error("probe stream stalled");
    return now() - t0;
  }

  rdmc::fabric::MemoryView view(std::size_t slot) {
    return {slots_[slot].data(), slots_[slot].size()};
  }
  std::size_t window() const { return slots_.size(); }
  std::size_t bytes() const { return src_.size(); }

 private:
  std::vector<std::byte> src_;
  std::vector<std::vector<std::byte>> slots_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t posted_ = 0;    // driver thread only
  std::uint64_t received_ = 0;  // guarded by mutex_
};

/// Median rate over kProbeRepeats timed streams after one warm-up stream.
template <typename Post>
double stream_gbps(Stream& stream, std::size_t messages, Spans& spans,
                   const char* name, Post post) {
  stream.run(messages, post);
  std::vector<double> rates;
  for (int r = 0; r < kProbeRepeats; ++r) {
    Spans::Scope s(spans, name, Layer::kFabric);
    const double t = stream.run(messages, post);
    rates.push_back(static_cast<double>(messages * stream.bytes()) * 8.0 /
                    t / 1e9);
  }
  return median(rates);
}

}  // namespace

double probe_sched_build_us(std::size_t members, std::size_t blocks,
                            Spans& spans) {
  std::vector<double> times;
  for (int r = 0; r < kProbeRepeats; ++r) {
    Spans::Scope s(spans, "make_schedule", Layer::kSched);
    const double t0 = now();
    std::uint64_t transfers = 0;
    for (std::size_t rank = 0; rank < members; ++rank) {
      const auto schedule = rdmc::sched::make_schedule(
          rdmc::sched::Algorithm::kBinomialPipeline, members, rank);
      const std::size_t steps = schedule->num_steps(blocks);
      for (std::size_t step = 0; step < steps; ++step)
        transfers += schedule->sends_at(blocks, step).size() +
                     schedule->recvs_at(blocks, step).size();
    }
    times.push_back((now() - t0) * 1e6);
    g_sink = g_sink + transfers;
  }
  return median(times);
}

RsRates probe_rs(std::size_t k, std::size_t m, std::size_t symbol_bytes,
                 Spans& spans) {
  constexpr int kCalls = 32;
  const rdmc::reliability::RsCode code(k, m);
  std::vector<std::vector<std::byte>> data, parity(
                                                m, std::vector<std::byte>(
                                                       symbol_bytes));
  for (std::size_t i = 0; i < k; ++i)
    data.push_back(random_block(symbol_bytes, 0xDA7A + i));
  std::vector<const std::byte*> in;
  for (const auto& d : data) in.push_back(d.data());
  std::vector<std::byte*> out;
  for (auto& p : parity) out.push_back(p.data());
  const double stripe_bits = static_cast<double>(k * symbol_bytes) * 8.0;

  RsRates rates;
  std::vector<double> enc, dec, mul;
  code.encode(in, out, symbol_bytes);  // warm-up
  for (int r = 0; r < kProbeRepeats; ++r) {
    Spans::Scope s(spans, "RsCode::encode", Layer::kReliability);
    const double t0 = now();
    for (int c = 0; c < kCalls; ++c) code.encode(in, out, symbol_bytes);
    enc.push_back(stripe_bits * kCalls / (now() - t0) / 1e9);
  }

  // Erase the first m data symbols; every decode rebuilds them.
  std::vector<std::vector<std::byte>> work(data);
  std::vector<std::byte*> sym;
  for (auto& w : work) sym.push_back(w.data());
  std::vector<bool> have(k, true);
  for (std::size_t i = 0; i < m; ++i) have[i] = false;
  std::vector<const std::byte*> par;
  for (const auto& p : parity) par.push_back(p.data());
  const std::vector<bool> have_parity(m, true);
  for (int r = 0; r < kProbeRepeats; ++r) {
    Spans::Scope s(spans, "RsCode::decode", Layer::kReliability);
    const double t0 = now();
    for (int c = 0; c < kCalls; ++c)
      if (!code.decode(sym, have, par, have_parity, symbol_bytes))
        throw std::runtime_error("rs probe: decode refused");
    dec.push_back(stripe_bits * kCalls / (now() - t0) / 1e9);
  }
  if (work != data) throw std::runtime_error("rs probe: decode mismatch");

  std::vector<std::uint8_t> y(symbol_bytes);
  const auto* x = reinterpret_cast<const std::uint8_t*>(data[0].data());
  for (int r = 0; r < kProbeRepeats; ++r) {
    Spans::Scope s(spans, "gf256::muladd", Layer::kReliability);
    const double t0 = now();
    for (int c = 0; c < kCalls * static_cast<int>(k); ++c)
      rdmc::reliability::gf256::muladd(y.data(), x,
                                       static_cast<std::uint8_t>(c | 1),
                                       symbol_bytes);
    mul.push_back(stripe_bits * kCalls / (now() - t0) / 1e9);
  }
  g_sink = g_sink + y[0];
  rates.encode_gbps = median(enc);
  rates.decode_gbps = median(dec);
  rates.muladd_gbps = median(mul);
  return rates;
}

double probe_tcp_p2p_gbps(Spans& spans) {
  constexpr std::size_t kBytes = 1u << 20;
  Stream stream(kBytes, 8);
  rdmc::fabric::TcpFabric fabric(std::vector<rdmc::fabric::TcpAddress>(2),
                                 {0, 1});
  rdmc::fabric::QueuePair* tx = fabric.connect(0, 1, 0);
  rdmc::fabric::QueuePair* rx = fabric.connect(1, 0, 0);
  auto repost = [rx](rdmc::fabric::MemoryView v, std::uint64_t wr_id) {
    rx->post_recv(v, wr_id);
  };
  fabric.endpoint(0).set_completion_handler([](const rdmc::fabric::Completion&) {});
  fabric.endpoint(1).set_completion_handler(
      [&stream, repost](const rdmc::fabric::Completion& c) {
        if (c.opcode == rdmc::fabric::WcOpcode::kRecv)
          stream.on_recv(c.wr_id, repost);
      });
  for (std::size_t i = 0; i < stream.window(); ++i)
    rx->post_recv(stream.view(i), i);
  const double gbps = stream_gbps(stream, 64, spans, "QueuePair::post_send",
                     [tx](rdmc::fabric::MemoryView v, std::uint64_t wr) {
                       tx->post_send(v, wr, 0);
                     });
  fabric.endpoint(1).set_completion_handler(nullptr);
  fabric.stop();
  return gbps;
}

double probe_mem_ud_p2p_gbps(std::size_t datagram_bytes, Spans& spans) {
  Stream stream(datagram_bytes, 32);
  rdmc::fabric::MemFabric fabric(2);
  rdmc::fabric::QueuePair* tx = fabric.connect(0, 1, 0);
  rdmc::fabric::QueuePair* rx = fabric.connect(1, 0, 0);
  auto repost = [rx](rdmc::fabric::MemoryView v, std::uint64_t wr_id) {
    rx->post_recv_ud(v, wr_id);
  };
  fabric.endpoint(0).set_completion_handler([](const rdmc::fabric::Completion&) {});
  fabric.endpoint(1).set_completion_handler(
      [&stream, repost](const rdmc::fabric::Completion& c) {
        if (c.opcode == rdmc::fabric::WcOpcode::kRecvUd)
          stream.on_recv(c.wr_id, repost);
      });
  for (std::size_t i = 0; i < stream.window(); ++i)
    rx->post_recv_ud(stream.view(i), i);
  const double gbps =
      stream_gbps(stream, 1024, spans, "QueuePair::post_send_ud",
                  [tx](rdmc::fabric::MemoryView v, std::uint64_t wr) {
                    tx->post_send_ud(v, wr, 0);
                  });
  fabric.endpoint(1).set_completion_handler(nullptr);
  fabric.stop();
  return gbps;
}

}  // namespace perfbench
