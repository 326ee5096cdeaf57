// Shared pieces of the end-to-end benchmark driver: the host clock, the
// per-run sample store and the metric report.
//
// The driver runs one workload per process from a single thread. Every
// timing comes from the same steady host clock (obs::wall_seconds), which is
// also handed to the library wherever it takes a clock, so library
// timestamps (SessionStats, Group::Stats) and the driver's spans line up.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Steady host seconds (the clock of every span and op timing).
double now();

/// Per-run samples keyed by metric name; one value per op or per setup.
using Samples = std::map<std::string, std::vector<double>>;

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);

/// One reported figure. `n` is the sample count behind a median or
/// percentile; `base` is the denominator of a ratio. Either may be absent
/// (negative).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  double n = -1;
  double base = -1;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           double n = -1, double base = -1);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Outcome of one operation: `seconds` is its timed interval; `ok` is the
/// result of the correctness check made after that interval.
struct OpOutcome {
  double seconds = 0.0;
  bool ok = false;
};

class Spans;

/// One workload: set up, run closed-loop ops one at a time, tear down. Op
/// index 0 is a warm-up (run once per setup, not timed); indices from 1 are
/// the timed ops. A traced op also records spans and per-op layer samples.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Spans& spans, Samples& setup_samples) = 0;
  virtual void teardown(Spans& spans) = 0;
  virtual OpOutcome op(std::uint64_t index, bool traced, Spans& spans,
                       Samples& op_samples) = 0;
  /// End-to-end figures that depend on the workload (goodput and virtual
  /// goodput), from the timed ops only.
  virtual void report_end_to_end(Report& report, double run_s) const = 0;
  /// Layer probes at this workload's geometry (traced runs only).
  virtual void probe(Spans& spans, Report& report) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
