// Table 5 — "Chorus Memory Management Components Sizes".
//
// The paper reports lines of C++ per component, split into the machine-
// independent part (Nucleus MM part + PVM machine-independent, 3700 lines total)
// and the (small) MMU-dependent parts (790–1120 lines per port).  Its claim: the
// machine-dependent layer is a small fraction, which is what makes ports cheap
// ("about one man-month of work to port to a new MMU").
//
// We regenerate the same table over this repository: per-component line counts,
// with the MMU models playing the role of the machine-dependent parts.  The core
// every MMU model shares (sharding, counters, the huge granule) sits on its own
// row beside the ports: written once, it belongs to no single port, and it is
// not part of the machine-independent total either.  The shape checks assert
// the paper's claim — each port is a small fraction of the machine-independent
// whole — and that a port is smaller than the core it plugs into.  The counts
// go to BENCH_table5_component_sizes.json, so the sizes form a trajectory
// across commits.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

#ifndef GVM_SOURCE_DIR
#define GVM_SOURCE_DIR "."
#endif

namespace gvm {
namespace bench {
namespace {

namespace fs = std::filesystem;

struct Component {
  std::string key;  // JSON counter suffix
  std::string label;
  std::vector<std::string> paths;  // relative to the source root
};

size_t CountLines(const fs::path& file) {
  std::ifstream in(file);
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
  }
  return lines;
}

size_t ComponentLines(const Component& component) {
  size_t total = 0;
  for (const std::string& rel : component.paths) {
    fs::path path = fs::path(GVM_SOURCE_DIR) / rel;
    if (fs::is_regular_file(path)) {
      total += CountLines(path);
      continue;
    }
    if (!fs::is_directory(path)) {
      continue;
    }
    for (const auto& entry : fs::directory_iterator(path)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      auto ext = entry.path().extension();
      if (ext == ".h" || ext == ".cc") {
        total += CountLines(entry.path());
      }
    }
  }
  return total;
}

void Run() {
  std::printf("==========================================================================\n");
  std::printf("Table 5: memory management component sizes\n");
  std::printf("==========================================================================\n");
  std::printf(
      "Paper (lines of C++, including headers and comments):\n"
      "  Machine-independent:  Nucleus MM part 1820, PVM machine-independent 1980\n"
      "                        -> total 3700\n"
      "  MMU-dependent ports:  Sun 790, PMMU 1120, iAPX 386 980\n\n");

  std::vector<Component> independent = {
      {"gmi", "GMI (generic interface)", {"src/gmi"}},
      {"vmbase", "MM common (contexts/regions)", {"src/vmbase"}},
      {"pvm", "PVM: machine-independent", {"src/pvm"}},
      {"nucleus", "Nucleus MM part", {"src/nucleus"}},
  };
  const Component core = {
      "mmu_core", "MMU core (shared by every port)", {"src/hal/mmu_core.h", "src/hal/mmu_core.cc"}};
  std::vector<Component> ports = {
      {"port.soft_mmu", "MMU port: SoftMmu (two-level)",
       {"src/hal/soft_mmu.h", "src/hal/soft_mmu.cc"}},
      {"port.hash_mmu", "MMU port: HashMmu (inverted)",
       {"src/hal/hash_mmu.h", "src/hal/hash_mmu.cc"}},
  };
  std::vector<Component> other = {
      {"shadow", "Mach-style baseline (shadow)", {"src/shadow"}},
      {"minimal", "Minimal real-time MM", {"src/minimal"}},
      {"mix", "Chorus/MIX (Unix layer)", {"src/mix"}},
      {"dsm", "Distributed shared memory", {"src/dsm"}},
      {"hal_rest", "Hardware substrate (rest of hal)",
       {"src/hal/phys_memory.h", "src/hal/phys_memory.cc", "src/hal/cpu.h", "src/hal/cpu.cc",
        "src/hal/mmu.h", "src/hal/types.h", "src/hal/types.cc"}},
  };

  BenchJson json("table5_component_sizes");
  auto report = [&json](const Component& component) {
    size_t lines = ComponentLines(component);
    std::printf("    %-38s %6zu lines\n", component.label.c_str(), lines);
    json.Counter("lines." + component.key, lines);
    return lines;
  };

  size_t independent_total = 0;
  std::printf("This repository (lines of C++, including headers and comments):\n");
  std::printf("  Machine-independent part:\n");
  for (const Component& component : independent) {
    independent_total += report(component);
  }
  std::printf("    %-38s %6zu lines\n", "total", independent_total);
  json.Counter("lines.machine_independent_total", independent_total);
  std::printf("  MMU-dependent part (the shared core, then one store per 'port'):\n");
  const size_t core_lines = report(core);
  std::vector<size_t> port_lines;
  for (const Component& component : ports) {
    port_lines.push_back(report(component));
  }
  std::printf("  Other subsystems (beyond the paper's table):\n");
  for (const Component& component : other) {
    report(component);
  }

  std::printf("\nShape checks:\n");
  ShapeCheck check;
  for (size_t i = 0; i < ports.size(); ++i) {
    // Paper ratio: ~790-1120 machine-dependent vs 3700 machine-independent
    // (21%-30%).  Claim: the machine-dependent part is a small fraction.
    check.Expect(port_lines[i] * 2 < independent_total,
                 (ports[i].label + " is <50% of the machine-independent part").c_str());
    // A new port writes only the base-PTE store; the core is written once.
    check.Expect(port_lines[i] < core_lines,
                 (ports[i].label + " is smaller than the shared MMU core").c_str());
  }
  std::printf("\n");
  json.WriteFile();
}

}  // namespace
}  // namespace bench
}  // namespace gvm

int main(int argc, char** argv) {
  gvm::bench::Run();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
