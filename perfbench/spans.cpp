#include "spans.hpp"

#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kHarness: return "harness";
    case Layer::kSim: return "sim";
    case Layer::kCore: return "core";
    case Layer::kFabric: return "fabric";
    case Layer::kReliability: return "reliability";
    case Layer::kSched: return "sched";
  }
  return "?";
}

Spans::Scope::Scope(Spans& spans, const char* name, Layer layer,
                    std::uint64_t op)
    : spans_(spans) {
  if (!spans_.enabled_) return;
  Span s;
  s.name = name;
  s.layer = layer;
  s.op = op;
  s.parent = spans_.open_.empty() ? -1 : spans_.open_.back();
  index_ = static_cast<std::int64_t>(spans_.spans_.size());
  spans_.spans_.push_back(s);
  spans_.open_.push_back(index_);
  spans_.spans_.back().start = now();
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  spans_.spans_[static_cast<std::size_t>(index_)].end = now();
  spans_.open_.pop_back();
}

std::array<double, kLayers> Spans::self_time(std::uint64_t op) const {
  std::array<double, kLayers> self{};
  // Spans nest strictly (one recording thread), so a span's children
  // cover exactly the sum of their durations.
  std::vector<double> child(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op != op) continue;
    self[static_cast<std::size_t>(s.layer)] += (s.end - s.start) - child[i];
  }
  return self;
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"op\":%llu,\"parent\":%lld}}",
                  i == 0 ? "" : ",", s.name, layer_name(s.layer),
                  s.start * 1e6, (s.end - s.start) * 1e6,
                  static_cast<unsigned>(s.layer),
                  static_cast<unsigned long long>(s.op),
                  static_cast<long long>(s.parent));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
