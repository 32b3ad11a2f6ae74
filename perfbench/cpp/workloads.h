// The three closed-loop, single-client workloads.  Each one builds its inputs
// from the seed in Setup (the stack only ever sees the generated inputs),
// runs one operation per RunOp, checks every output it reads back, and names
// the counters that prove its target mechanism fired.
#ifndef PERFBENCH_CPP_WORKLOADS_H_
#define PERFBENCH_CPP_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpp/world.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual size_t frames() const = 0;
  // Threads the world runs: the client, plus the paging daemon if it works.
  virtual int cpus() const = 0;
  // Timed operations after which peak_rss_mb is read.  A fixed count, about
  // 2 s of work on the reference host, so the figure does not scale with
  // how many operations a fixed-time run completes.
  virtual uint64_t rss_ops() const = 0;
  // Input generation and warm-up on a fresh world (timed as setup).
  [[nodiscard]] virtual bool Setup(World& world, uint64_t seed, std::string* error) = 0;
  // One operation; false if it errored or failed its output check.
  [[nodiscard]] virtual bool RunOp(uint64_t op, std::string* error) = 0;
  // Upper bound on the spans one operation records (for the traced run).
  virtual size_t MaxSpansPerOp() const = 0;
  // Counters (World::Snapshot keys) that must grow over the timed phase,
  // else the run measured nothing.
  virtual std::vector<std::string> MechanismCounters() const = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_WORKLOADS_H_
