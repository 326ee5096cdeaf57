// Layer probes for the traced run. Each times one layer's public API in
// isolation at a workload's geometry and so gives the ceiling (or floor)
// of the end-to-end figure that layer feeds. Every probe reports the
// median of kProbeRepeats timed repetitions.
#pragma once

#include <cstddef>

namespace perfbench {

class Spans;

inline constexpr int kProbeRepeats = 5;

/// make_schedule (binomial pipeline) for every rank of a `members` group,
/// plus enumerating sends_at/recvs_at over num_steps(blocks): microseconds.
double probe_sched_build_us(std::size_t members, std::size_t blocks,
                            Spans& spans);

struct RsRates {
  double encode_gbps = 0.0;  // data bytes encoded per second
  double decode_gbps = 0.0;  // data bytes of stripes rebuilt per second
  double muladd_gbps = 0.0;  // source bytes through gf256::muladd
};
/// RsCode(k, m) over `symbol_bytes` symbols; decode rebuilds m erased data
/// symbols per stripe and is checked against the original data.
RsRates probe_rs(std::size_t k, std::size_t m, std::size_t symbol_bytes,
                 Spans& spans);

/// Bare QueuePair post_send/post_recv between two TcpFabric endpoints on
/// loopback, 1 MB messages, no RDMC engine: Gb/s of payload received.
double probe_tcp_p2p_gbps(Spans& spans);

/// Bare post_send_ud/post_recv_ud between two MemFabric endpoints with
/// `datagram_bytes` datagrams and no loss: Gb/s of payload received.
double probe_mem_ud_p2p_gbps(std::size_t datagram_bytes, Spans& spans);

}  // namespace perfbench
