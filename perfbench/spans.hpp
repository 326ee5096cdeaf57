// Host-clock spans the driver records around its calls into each layer's
// public API (name, layer, start, end, parent span, op id). They live in
// memory and are written out when the run ends; nothing inside the library
// is instrumented, and the library's own TraceRecorder stays off.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kBench,        // the driver itself: op loop, payload checks
  kHarness,      // harness::SimCluster
  kSim,          // the simulator, entered through run_to_quiescence
  kCore,         // rdmc::Node / Group
  kFabric,       // fabric::*Fabric and QueuePair
  kReliability,  // reliability::UdMulticastSession, RsCode, gf256
  kSched,        // sched::make_schedule
};
inline constexpr std::size_t kLayers = 7;
const char* layer_name(Layer layer);

/// Op id of spans outside any op (setup, teardown, probes).
inline constexpr std::uint64_t kNoOp = 0;

class Spans {
 public:
  struct Span {
    const char* name = "";
    Layer layer = Layer::kBench;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;  // index into spans(), -1 for a root span
    std::uint64_t op = kNoOp;
  };

  /// RAII span; a no-op while recording is off.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, Layer layer,
          std::uint64_t op = kNoOp);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::int64_t index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer self time, seconds, summed over the spans of op `op`: each
  /// span's duration minus the time its child spans cover.
  std::array<double, kLayers> self_time(std::uint64_t op) const;

  /// Write the spans as Chrome trace_event JSON (complete events, one
  /// row per layer). obs::write_chrome_json takes obs::TraceEvent, whose
  /// fixed category set has no row for the harness, reliability or
  /// scheduling layers, so the driver writes its own. Returns false on I/O
  /// failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;  // stack of open span indices
};

}  // namespace perfbench
