// perfbench: end-to-end and per-layer benchmark of one RDMC workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out PATH]
//
// One run, all on this thread:
//   1. build the workload's inputs from --seed;
//   2. set the workload up several times, so setup_s is a median, not one
//      sample; each instance runs one warm-up op, checked but not timed,
//      and all but the last are torn down again;
//   3. closed-loop ops, one outstanding, for --seconds; each is checked
//      outside its timed interval, and the loop stops at the first failure;
//   4. tear down, then (traced runs only) run the layer probes.
// With --trace 1 every op runs twice on the same inputs, once recording
// spans and per-op layer counters and once not; the untraced twins give
// obs.trace_overhead_frac.
//
// A human-readable report goes to stdout, followed by one JSON line holding
// every metric with its unit, sample count (n) and ratio base. The exit
// code is 0 only if every op was delivered intact.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "spans.hpp"

namespace perfbench {

double now() { return rdmc::obs::wall_seconds(); }

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, double n, double base) {
  metrics_.push_back({name, value, unit, n, base});
}

namespace {

/// Setups per run: at least kMinSetups, then more until kSetupBudgetS has
/// passed (cheap setups get many samples), never more than kMaxSetups. The
/// first one or two setups of a process fault in fresh pages and run about
/// 3x slower than later ones, which reuse the freed memory of the previous
/// instance; nine samples keep the median clear of those.
constexpr int kMinSetups = 9;
constexpr int kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.0;
/// An op (or a setup) that takes longer than this counts as failed.
constexpr double kDeadlineS = 60.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

volatile std::uint64_t g_sink = 0;

/// Fixed integer loop timed at the start and end of every run: a host-speed
/// diagnostic stored beside the results, never used to scale them.
double host_ref_loop_s() {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const double t0 = now();
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_sink = x;
  return now() - t0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

std::atomic<std::uint64_t> g_attempted{0};
std::atomic<std::uint64_t> g_failed{0};

void print_result_line(bool correct, const std::vector<Metric>& metrics,
                       const Args& args, double ref0, double ref1,
                       const std::vector<double>& op_ms = {}) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
              "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"host_ref_loop_s\":[%.9g,%.9g],\"metrics\":{",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              correct ? "true" : "false",
              static_cast<unsigned long long>(g_attempted.load()),
              static_cast<unsigned long long>(g_failed.load()), ref0, ref1);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"", i ? "," : "",
                m.name.c_str(), m.value, m.unit.c_str());
    if (m.n >= 0) std::printf(",\"n\":%.17g", m.n);
    if (m.base >= 0) std::printf(",\"base\":%.17g", m.base);
    std::printf("}");
  }
  std::printf("},\"op_ms\":[");
  for (std::size_t i = 0; i < op_ms.size(); ++i)
    std::printf("%s%.6g", i ? "," : "", op_ms[i]);
  std::printf("]}\n");
  std::fflush(stdout);
}

/// Ends the process with a failed result if an armed deadline passes: a
/// hung op cannot be interrupted from outside the library, and it counts
/// as failed.
class Watchdog {
 public:
  explicit Watchdog(const Args& args) : args_(args), thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm() {
    std::lock_guard lock(mutex_);
    deadline_ = now() + kDeadlineS;
  }

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(200));
      if (!stop_ && deadline_ > 0 && now() > deadline_) {
        std::fprintf(stderr, "perfbench: op exceeded %.0f s\n", kDeadlineS);
        g_attempted.fetch_add(1);
        g_failed.fetch_add(1);
        print_result_line(false, {}, args_, 0, 0);
        std::_Exit(3);
      }
    }
  }

  const Args& args_;
  std::mutex mutex_;
  std::condition_variable cv_;
  double deadline_ = 0.0;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

void print_report(const Args& args, const std::vector<Metric>& metrics) {
  std::printf("== perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %-9s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.n >= 0) std::printf("  n=%.0f", m.n);
    if (m.base >= 0) std::printf("  base=%.0f", m.base);
    std::printf("\n");
  }
}

int run(const Args& args) {
  auto workload = make_workload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Watchdog dog(args);
  Spans spans;
  Samples setup_samples, traced_samples, ignored;
  std::vector<double> setups, teardowns, op_times, traced_op_times;

  const double ref0 = host_ref_loop_s();
  const double t_begin = now();
  bool ok = true;
  for (int r = 1; ok; ++r) {
    spans.set_enabled(args.trace);
    dog.arm();
    double t0 = now();
    workload->setup(spans, setup_samples);
    setups.push_back(now() - t0);
    // Every instance carries one checked, untimed warm-up op before it is
    // used or torn down. Tearing a TcpFabric down while its endpoints are
    // still dialing each other for a new group's first credits can hang
    // in stop().
    spans.set_enabled(false);
    dog.arm();
    g_attempted.fetch_add(1);
    ok = workload->op(0, false, spans, ignored).ok;
    if (!ok) g_failed.fetch_add(1);
    if (r == kMaxSetups ||
        (r >= kMinSetups && now() - t_begin >= kSetupBudgetS))
      break;
    spans.set_enabled(args.trace);
    dog.arm();
    t0 = now();
    workload->teardown(spans);
    teardowns.push_back(now() - t0);
  }

  const double t_run = now();
  const auto run_op = [&](std::uint64_t i, bool traced) {
    spans.set_enabled(traced);
    dog.arm();
    g_attempted.fetch_add(1);
    const OpOutcome o =
        workload->op(i, traced, spans, traced ? traced_samples : ignored);
    if (!o.ok) {
      g_failed.fetch_add(1);
      return false;
    }
    (traced ? traced_op_times : op_times).push_back(o.seconds * 1e3);
    if (traced) {
      const auto self = spans.self_time(i);
      for (std::size_t l = 0; l < kLayers; ++l)
        traced_samples[std::string("self.") +
                       layer_name(static_cast<Layer>(l)) + "_ms"]
            .push_back(self[l] * 1e3);
    }
    return true;
  };
  for (std::uint64_t i = 1; ok && now() - t_run < args.seconds; ++i) {
    if (!args.trace) {
      ok = run_op(i, false);
      continue;
    }
    // Traced runs do every op twice, once with spans and once without, on
    // the same inputs and in alternating order, so the two medians differ
    // only by the cost of tracing.
    const bool traced_first = i % 2 == 1;
    ok = run_op(i, traced_first) && run_op(i, !traced_first);
  }
  const double run_s = now() - t_run;
  spans.set_enabled(args.trace);
  dog.arm();
  {
    const double t0 = now();
    workload->teardown(spans);
    teardowns.push_back(now() - t0);
  }
  const double wall_s = now() - t_begin;
  const double rss = peak_rss_mb();

  Report report;
  const auto n = [](const std::vector<double>& v) {
    return static_cast<double>(v.size());
  };
  report.add("setup_s", median(setups), "s", n(setups));
  report.add("setup_first_s", setups.front(), "s");
  report.add("run_s", run_s, "s");
  report.add("teardown_s", median(teardowns), "s", n(teardowns));
  report.add("wall_s", wall_s, "s");
  report.add("peak_rss_mb", rss, "MB");
  report.add("op_p50_ms", median(op_times), "ms", n(op_times));
  // At least ten samples lie beyond it once a run has 100 ops, which every
  // listed workload reaches in its run_seconds.
  report.add("op_p90_ms", percentile(op_times, 90), "ms", n(op_times));
  workload->report_end_to_end(report, run_s);
  report.add("fail_frac",
             static_cast<double>(g_failed.load()) /
                 static_cast<double>(g_attempted.load()),
             "ratio", -1, static_cast<double>(g_attempted.load()));

  if (args.trace) {
    for (const auto& [key, values] : setup_samples)
      report.add(key, median(values), "s", n(values));
    // Sample names end in their unit; plain counts have no suffix.
    for (const auto& [key, values] : traced_samples) {
      if (key == "sim.memo_hits" || key == "sim.memo_misses" ||
          key == "reliability.retx_datagrams")
        continue;  // folded into the ratios below
      std::string unit = "count";
      const auto ends = [&key](const char* suffix) {
        const std::string s(suffix);
        return key.size() >= s.size() &&
               key.compare(key.size() - s.size(), s.size(), s) == 0;
      };
      if (ends("_ms")) unit = "ms";
      else if (ends("_us")) unit = "us";
      else if (ends("_s")) unit = "s";
      else if (ends("ns_per_event")) unit = "ns";
      else if (ends("_frac") || ends("_per_realloc")) unit = "ratio";
      else if (ends("_bytes")) unit = "bytes";
      report.add(key, median(values), unit, n(values));
    }
    const auto sum = [&traced_samples](const char* key) {
      double s = 0.0;
      for (double v : traced_samples[key]) s += v;
      return s;
    };
    if (traced_samples.count("sim.memo_hits")) {
      const double hits = sum("sim.memo_hits");
      const double base = hits + sum("sim.memo_misses");
      report.add("sim.memo_hit_rate", base > 0 ? hits / base : 0.0, "ratio",
                 -1, base);
    }
    if (traced_samples.count("reliability.retx_datagrams")) {
      const double base = sum("reliability.datagrams_sent");
      report.add("reliability.retx_per_datagram",
                 base > 0 ? sum("reliability.retx_datagrams") / base : 0.0,
                 "ratio", -1, base);
    }
    const double untraced = median(op_times);
    report.add("obs.trace_overhead_frac",
               untraced > 0 ? median(traced_op_times) / untraced - 1.0 : 0.0,
               "ratio", n(traced_op_times), untraced);
    workload->probe(spans, report);
    if (!args.spans_out.empty() && !spans.write_chrome_json(args.spans_out))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
  }
  const double ref1 = host_ref_loop_s();

  print_report(args, report.metrics());
  std::printf("  host_ref_loop_s start=%.6f end=%.6f (diagnostic)\n", ref0,
              ref1);
  print_result_line(ok, report.metrics(), args, ref0, ref1, op_times);
  return ok ? 0 : 1;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      continue;
    }
    if (flag == "--spans-out") {
      args.spans_out = value;
      continue;
    }
    if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
      continue;
    }
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || v < 0) return false;
    if (flag == "--seconds") args.seconds = v;
    else if (flag == "--trace") args.trace = v != 0;
    else return false;
  }
  return argc % 2 == 1 && !args.workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out PATH]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
