// Shared pieces of the end-to-end benchmark: exact percentiles over raw
// samples, the seeded input generator's random source, the metric report,
// and the span recorder of the traced run.
#ifndef LLLBENCH_BENCH_H_
#define LLLBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace lllbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}
inline double UsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

// Raw per-operation samples. Every percentile is read off the sorted
// samples (nearest rank), never off buckets, and is reported with its
// sample count.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Percentile(double p) {
    if (values_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * values_.size()));
    rank = std::clamp<size_t>(rank, 1, values_.size());
    return values_[rank - 1];
  }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

// Deterministic input source: the same seed gives the same inputs.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : gen_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  // Uniform in [0, 1), from the top 53 bits.
  double Uniform() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t bound) { return gen_() % bound; }
  double Exponential(double rate) { return -std::log1p(-Uniform()) / rate; }

 private:
  std::mt19937_64 gen_;
};

// Zipf(s) over ranks [0, n), sampled by inverting the CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(InputRng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform());
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// One reported metric: value, unit, and how many samples it came from
// (0 for counters and gauges).
struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

// Name -> metric, in name order. `Report` prints the human-readable table.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics_[name] = Metric{value, unit, samples};
  }
  // Records the p`p` of `s` under `name` (in the samples' own unit).
  void SetPercentile(const std::string& name, Samples& s, double p,
                     const std::string& unit) {
    Set(name, s.Percentile(p), unit, s.size());
  }
  bool Has(const std::string& name) const { return metrics_.count(name) != 0; }
  const Metric& Get(const std::string& name) const { return metrics_.at(name); }

  void Report(const char* title) const {
    std::printf("== %s ==\n", title);
    for (const auto& [name, m] : metrics_) {
      if (m.samples > 0) {
        std::printf("  %-40s %14.4f %-6s (n=%zu)\n", name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
      } else {
        std::printf("  %-40s %14.4f %s\n", name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
  }

 private:
  std::map<std::string, Metric> metrics_;
};

// The traced run's span recorder. Spans stay in memory and are written out
// once, when the run ends. Every span of one request carries that
// request's id; `parent` is the index of the enclosing span, or -1.
struct Span {
  const char* name;  // a string literal
  uint64_t request = 0;
  int64_t parent = -1;
  double start_us = 0;  // relative to the recorder's epoch
  double end_us = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  // While disabled, Begin records nothing and returns -1, and End(-1)
  // returns 0: the untraced half of an interleaved replay.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span and returns its index.
  int64_t Begin(const char* name, uint64_t request,
                int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(
        Span{name, request, parent, UsSince(epoch_, Clock::now()), 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  // Closes a span and returns its duration in microseconds.
  double End(int64_t index) {
    if (index < 0) return 0;
    Span& s = spans_[index];
    s.end_us = UsSince(epoch_, Clock::now());
    return s.end_us - s.start_us;
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Writes every span as one JSON line: name, request, parent, start, end.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,"
                   "\"parent\":%lld,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   i, s.name, static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.parent), s.start_us, s.end_us);
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  bool enabled_ = true;
};

// Peak resident set of process `pid` (VmHWM), in MiB; 0 if unreadable.
double PeakRssMb(int pid);
// Threads of this process, from /proc/self/status.
int ThreadCount();

// Result of one benchmark run, before it is printed.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet end_to_end;  // every end-to-end metric of the workload
  MetricSet per_layer;   // traced run only
  MetricSet detail;      // generator health, counters, notes for the table
  std::string invalid;   // non-empty: the run is invalid, and why
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_expected = false;  // self-check: poison one expected answer
  std::string serverd;            // path of the lll_serverd binary
  std::string workdir;            // scratch directory inside the checkout
};

RunResult RunServing(const Options& options);
RunResult RunServingTraced(const Options& options);
RunResult RunDocgen(const Options& options);
RunResult RunDocgenTraced(const Options& options);

}  // namespace lllbench

#endif  // LLLBENCH_BENCH_H_
