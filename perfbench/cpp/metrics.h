// Metric derivation: end-to-end figures from an untraced timed phase, and the
// per-layer split (span self time, counters per op) from a traced one.
#ifndef PERFBENCH_CPP_METRICS_H_
#define PERFBENCH_CPP_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cpp/trace.h"
#include "cpp/world.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>& values, double q);

// Per-operation latency, summarized in consecutive windows of kOps samples:
// each window keeps its p50 and p99 (a window's p99 has 10 samples beyond
// it), and a metric is the mean over windows.  A burst of host noise moves
// one window instead of the whole run's tail, and a slow spell of the host
// moves the metric in proportion to its length (a median over windows would
// jump between the fast and the slow speed).  Memory stays constant however
// long the run is.
class LatencyWindows {
 public:
  static constexpr size_t kOps = 1000;

  LatencyWindows() { window_.reserve(kOps); }
  void Add(double us);
  // Mean over the full windows of the window percentile `q` (0.50 or 0.99).
  // A run shorter than one window is summarized as one partial window.
  double Mean(double q);
  size_t samples() const { return samples_; }
  size_t windows() const { return p50s_.size(); }

 private:
  void Close();

  std::vector<double> window_;
  std::vector<double> p50s_;
  std::vector<double> p99s_;
  size_t samples_ = 0;
};

// One timed phase of a closed loop.
struct Phase {
  uint64_t ops = 0;            // operations attempted
  uint64_t failed = 0;         // operations that errored or failed a check
  std::string first_error;
  double elapsed_s = 0;
  LatencyWindows latency;      // per-operation latency, in microseconds
  Counters delta;              // counter growth over the phase
  double rss_mb = 0;           // peak RSS once Workload::rss_ops() ops were done
  uint64_t rss_at_op = 0;      // ... or at the phase's end, if it stopped before
};

struct TraceSummary {
  const Tracer* tracer = nullptr;
  uint16_t client_thread = 0;
  double untraced_ops_per_s = 0;
};

std::vector<Metric> LayerMetrics(const Phase& traced, const TraceSummary& trace);

// {"name": {"value": v, "unit": "u"}, ...}
std::string MetricsJson(const std::vector<Metric>& metrics);
std::string JsonNumber(double value);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_METRICS_H_
