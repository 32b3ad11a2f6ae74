// perfbench: the full-stack benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--ops N] [--git-sha SHA] [--trace-out PATH]
//
// --trace 0 builds the world kSetups times (setup_s is the median), runs the
// closed loop for --seconds on the last one, and prints the end-to-end
// metrics.  --trace 1 runs half the time untraced and half traced (decorators
// installed) and prints the per-layer split plus the tracing overhead.
// --ops replaces the time limit with a fixed operation count.
//
// Output: one report line (seed, world options, host, counters, every metric
// with its unit), then, as the last line, the summary object
// {"correct", "attempted", "failed", "metrics"}.  Exit status is 0 only when
// every operation passed its check, PagedVm::CheckInvariants() held after the
// timed phase, and the workload's target mechanism fired.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cpp/metrics.h"
#include "cpp/trace.h"
#include "cpp/workloads.h"
#include "cpp/world.h"

namespace perfbench {
namespace {

constexpr size_t kSpanCapacity = size_t{1} << 21;
// World builds per untraced run; setup_s is their median.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  uint64_t ops = 0;  // 0 = run for `seconds`
  std::string git_sha = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      a->trace = std::atoi(value);
    } else if (key == "--ops") {
      a->ops = std::strtoull(value, nullptr, 10);
    } else if (key == "--git-sha") {
      a->git_sha = value;
    } else if (key == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

std::string IntList(const std::vector<int>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(v[i]);
  }
  return out + "]";
}

// Pins the process (and every thread it starts later) to the highest
// `count` CPUs it may run on; returns {allowed, used}.
std::pair<std::vector<int>, std::vector<int>> PinToCpus(int count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> allowed;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        allowed.push_back(c);
      }
    }
  }
  std::vector<int> used(allowed.end() - std::min<ptrdiff_t>(count, allowed.size()), allowed.end());
  CPU_ZERO(&set);
  for (int c : used) {
    CPU_SET(c, &set);
  }
  if (used.empty() || sched_setaffinity(0, sizeof(set), &set) != 0) {
    used.clear();
  }
  return {allowed, used};
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Built {
  std::unique_ptr<World> world;
  std::unique_ptr<Workload> workload;
  double setup_s = 0;
  std::string error;
};

// Builds a world and sets the workload up on it; setup_s covers world build,
// input generation and warm-up.
Built Build(const Args& args, Tracer* tracer) {
  Built b;
  const int64_t start = NowNs();
  b.workload = MakeWorkload(args.workload);
  b.world = std::make_unique<World>(OptionsForFrames(b.workload->frames()), tracer);
  if (!b.workload->Setup(*b.world, args.seed, &b.error) && b.error.empty()) {
    b.error = "setup failed";
  }
  b.setup_s = Seconds(NowNs() - start);
  return b;
}

// The closed loop: one client, next op issued when the previous returns.
Phase RunPhase(Built& b, double seconds, uint64_t fixed_ops, Tracer* tracer) {
  Phase p;
  const Counters before = b.world->Snapshot();
  const size_t room = b.workload->MaxSpansPerOp();
  if (tracer != nullptr) {
    tracer->set_enabled(true);
  }
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t now = start;
  while (fixed_ops > 0 ? p.ops < fixed_ops : now < deadline) {
    if (tracer != nullptr) {
      if (!tracer->HasRoom(room)) {
        break;
      }
      tracer->set_op(static_cast<uint32_t>(p.ops));
    }
    std::string error;
    const int64_t op_start = NowNs();
    const bool ok = b.workload->RunOp(p.ops, &error);
    now = NowNs();
    p.latency.Add(static_cast<double>(now - op_start) / 1e3);
    ++p.ops;
    if (p.ops == b.workload->rss_ops()) {
      p.rss_mb = PeakRssMb();
      p.rss_at_op = p.ops;
    }
    if (!ok) {
      ++p.failed;
      p.first_error = error;
      break;  // the world may be inconsistent after a failed check
    }
  }
  p.elapsed_s = Seconds(now - start);
  if (p.rss_at_op == 0) {
    p.rss_mb = PeakRssMb();
    p.rss_at_op = p.ops;
  }
  if (tracer != nullptr) {
    tracer->set_enabled(false);
  }
  p.delta = Delta(b.world->Snapshot(), before);
  // Quiesce: the invariant walk and the span analysis need a still world.
  b.world->vm().StopPageoutDaemon();
  return p;
}

// Post-phase checks: invariants and anti-vacuity.
std::string CheckAfter(Built& b, const Phase& p) {
  if (b.world->vm().CheckInvariants() != gvm::Status::kOk) {
    return "PagedVm::CheckInvariants failed after the timed phase";
  }
  for (const std::string& counter : b.workload->MechanismCounters()) {
    auto it = p.delta.find(counter);
    if (it == p.delta.end() || it->second <= 0) {
      return "target mechanism did not fire: " + counter + " stayed at 0";
    }
  }
  return "";
}

std::string CountersJson(const Counters& c, double ops) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : c) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value / ops);
    first = false;
  }
  return out + "}";
}

double OpsPerSecond(const Phase& p) {
  return p.elapsed_s > 0 ? static_cast<double>(p.ops) / p.elapsed_s : 0;
}

struct Outcome {
  Phase phase;                // the phase the metrics describe
  std::vector<double> setups;
  std::vector<Metric> metrics;
  std::string error;          // first failure; empty when the run is correct
};

// Timed phase on `b`, then its checks.
void Measure(Built& b, const Args& args, double seconds, Tracer* tracer, Outcome* o) {
  o->phase = RunPhase(b, seconds, args.ops, tracer);
  o->error = o->phase.failed > 0 ? o->phase.first_error : CheckAfter(b, o->phase);
}

// --trace 0: build the world kSetups times, time the last one.
Outcome RunUntraced(const Args& args) {
  Outcome o;
  Built b;
  for (int k = 0; k < kSetups && o.error.empty(); ++k) {
    b = Built{};  // the previous world dies before the next is built
    b = Build(args, nullptr);
    o.setups.push_back(b.setup_s);
    o.error = b.error;
  }
  if (o.error.empty()) {
    Measure(b, args, args.seconds, nullptr, &o);
  }
  std::vector<double> setups = o.setups;
  o.metrics = {
      {"ops_per_s", OpsPerSecond(o.phase), "1/s"},
      {"op_p50_us", o.phase.latency.Mean(0.50), "us"},
      {"op_p99_us", o.phase.latency.Mean(0.99), "us"},
      {"setup_s", Percentile(setups, 0.50), "s"},
      {"peak_rss_mb", o.phase.rss_mb, "MB"},
  };
  return o;
}

// --trace 1: half the time untraced (the base the overhead is stated on),
// half on a world with the decorators installed.
Outcome RunTraced(const Args& args) {
  Outcome o;
  double untraced_ops_per_s = 0;
  {
    Built plain = Build(args, nullptr);
    o.error = plain.error;
    if (o.error.empty()) {
      Phase untraced = RunPhase(plain, args.seconds / 2, args.ops, nullptr);
      o.error = untraced.failed > 0 ? untraced.first_error : "";
      untraced_ops_per_s = OpsPerSecond(untraced);
    }
  }
  Tracer tracer(kSpanCapacity);
  if (o.error.empty()) {
    Built b = Build(args, &tracer);
    o.setups.push_back(b.setup_s);
    o.error = b.error;
    if (o.error.empty()) {
      const TraceSummary summary{&tracer, tracer.CallerThread(), untraced_ops_per_s};
      Measure(b, args, args.seconds / 2, &tracer, &o);
      o.metrics = LayerMetrics(o.phase, summary);
    }
  }
  if (!args.trace_out.empty() && !tracer.WriteTo(args.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write spans to %s\n", args.trace_out.c_str());
  }
  return o;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> probe = MakeWorkload(args.workload);
  if (probe == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const auto [allowed, used] = PinToCpus(probe->cpus());
  const WorldOptions options = OptionsForFrames(probe->frames());
  probe.reset();

  const Outcome o = args.trace == 0 ? RunUntraced(args) : RunTraced(args);
  const bool correct = o.error.empty();
  const uint64_t attempted = std::max<uint64_t>(o.phase.ops, 1);
  const uint64_t failed = correct ? o.phase.failed : std::max<uint64_t>(o.phase.failed, 1);

  // The report: everything needed to reproduce and interpret the run.
  std::string report = "{\"workload\": " + JsonString(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"trace\": " + std::to_string(args.trace) +
                       ", \"seconds\": " + JsonNumber(args.seconds) +
                       ", \"fixed_ops\": " + std::to_string(args.ops) +
                       ", \"world\": " + OptionsJson(options) +
                       ", \"host\": {\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                       ", \"cpus_allowed\": " + IntList(allowed) +
                       ", \"cpus_used\": " + IntList(used) +
                       ", \"compiler\": " + JsonString(Compiler()) +
                       ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                       ", \"ipo\": " + (PERFBENCH_IPO ? "true" : "false") +
                       ", \"git_sha\": " + JsonString(args.git_sha) + "}" +
                       ", \"setup_runs_s\": [";
  for (size_t i = 0; i < o.setups.size(); ++i) {
    report += (i == 0 ? "" : ", ") + JsonNumber(o.setups[i]);
  }
  report += "], \"ops\": " + std::to_string(o.phase.ops) +
            ", \"latency_samples\": " + std::to_string(o.phase.latency.samples()) +
            ", \"latency_windows\": " + std::to_string(o.phase.latency.windows()) +
            ", \"peak_rss_at_op\": " + std::to_string(o.phase.rss_at_op) +
            ", \"peak_rss_end_mb\": " + JsonNumber(PeakRssMb()) +
            ", \"op_fail_ratio\": {\"value\": " +
            JsonNumber(static_cast<double>(failed) / static_cast<double>(attempted)) +
            ", \"unit\": \"ratio\"}" + ", \"error\": " + JsonString(o.error) +
            ", \"counters_per_op\": " +
            CountersJson(o.phase.delta, static_cast<double>(attempted)) +
            ", \"metrics\": " + MetricsJson(o.metrics) + "}";
  std::printf("%s\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(o.metrics).c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), o.error.c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--ops N] [--git-sha SHA] [--trace-out PATH]\n");
    return 2;
  }
  return perfbench::Run(args);
}
