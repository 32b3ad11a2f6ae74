#include "cpp/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Get(const Counters& c, const std::string& key) {
  auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

}  // namespace

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

void LatencyWindows::Add(double us) {
  window_.push_back(us);
  ++samples_;
  if (window_.size() == kOps) {
    Close();
  }
}

void LatencyWindows::Close() {
  p50s_.push_back(Percentile(window_, 0.50));
  p99s_.push_back(Percentile(window_, 0.99));
  window_.clear();
}

double LatencyWindows::Mean(double q) {
  if (p50s_.empty() && !window_.empty()) {
    Close();
  }
  const std::vector<double>& values = q < 0.9 ? p50s_ : p99s_;
  return Ratio(std::accumulate(values.begin(), values.end(), 0.0),
               static_cast<double>(values.size()));
}

std::vector<Metric> LayerMetrics(const Phase& traced, const TraceSummary& trace) {
  const Tracer& tracer = *trace.tracer;
  const double ops = static_cast<double>(std::max<uint64_t>(traced.ops, 1));
  const size_t n = tracer.size();

  // Self time = duration minus the time covered by direct children.  Spans
  // still open (end_ns == 0) are ignored.
  std::vector<int64_t> child_ns(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& r = tracer.at(i);
    if (r.end_ns != 0 && r.parent != Tracer::kNone && r.parent < n) {
      child_ns[r.parent] += r.end_ns - r.start_ns;
    }
  }
  std::vector<double> calls(kSpanNameCount, 0);
  std::vector<double> self_ns(kSpanNameCount, 0);
  std::vector<double> fault_us;
  double background_ns = 0;
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& r = tracer.at(i);
    if (r.end_ns == 0) {
      continue;
    }
    const int64_t duration = r.end_ns - r.start_ns;
    calls[r.name] += 1;
    self_ns[r.name] += static_cast<double>(duration - child_ns[i]);
    if (r.name == kPvmFault) {
      fault_us.push_back(static_cast<double>(duration) / 1e3);
    }
    if (r.thread != trace.client_thread && r.parent == Tracer::kNone) {
      background_ns += static_cast<double>(duration);
    }
  }

  std::vector<Metric> m;
  for (int k = 0; k < kSpanNameCount; ++k) {
    const std::string name = SpanNameString(static_cast<SpanName>(k));
    m.push_back({name + ".calls_per_op", calls[k] / ops, "count/op"});
    m.push_back({name + ".self_us_per_op", self_ns[k] / 1e3 / ops, "us/op"});
  }

  const Counters& d = traced.delta;
  auto per_op = [&](const std::string& key) { return Get(d, key) / ops; };
  m.push_back({"nucleus.segcache.hit_ratio", Ratio(Get(d, "seg.cache_hits"), Get(d, "seg.lookups")),
               "ratio"});
  const double ipc_calls =
      Get(d, "ipc.sends") + Get(d, "seg.mapper_reads") + Get(d, "seg.mapper_writes");
  m.push_back({"nucleus.ipc.calls_per_op", ipc_calls / ops, "count/op"});
  m.push_back({"nucleus.ipc.bytes_per_op",
               (Get(d, "ipc.bytes_transferred") + Get(d, "bench.region_msg_bytes") +
                Get(d, "bench.mapper_bytes")) /
                   ops,
               "B/op"});
  m.push_back({"hal.cpu.faults_per_op", per_op("cpu.faults_taken"), "count/op"});
  m.push_back({"hal.tlb.hit_ratio",
               Ratio(Get(d, "tlb.hits"), Get(d, "tlb.hits") + Get(d, "tlb.misses")), "ratio"});
  m.push_back({"hal.tlb.huge_hits_per_op", per_op("tlb.huge_hits"), "count/op"});
  m.push_back({"hal.tlb.shootdowns_per_op", per_op("tlb.shootdowns"), "count/op"});
  m.push_back({"hal.tlb.shootdown_pages_per_op", per_op("tlb.shootdown_pages"), "count/op"});
  m.push_back({"pvm.fault.p50_us", Percentile(fault_us, 0.50), "us"});
  m.push_back({"pvm.fault.p99_us", Percentile(fault_us, 0.99), "us"});
  m.push_back({"pvm.zero_fills_per_op", per_op("mm.zero_fills"), "count/op"});
  m.push_back({"pvm.cow_copies_per_op", per_op("mm.cow_copies"), "count/op"});
  m.push_back({"pvm.history_pushes_per_op", per_op("pvm.history_pushes"), "count/op"});
  m.push_back({"pvm.per_page_stubs_per_op", per_op("pvm.per_page_stubs"), "count/op"});
  m.push_back({"pvm.caches_collapsed_per_op", per_op("pvm.caches_collapsed"), "count/op"});
  m.push_back({"pvm.promotions_per_op", per_op("pvm.promotions"), "count/op"});
  m.push_back({"pvm.demotions_per_op", per_op("pvm.demotions"), "count/op"});
  m.push_back({"pvm.pull_ins_per_op", per_op("mm.pull_ins"), "count/op"});
  m.push_back({"pvm.push_outs_per_op", per_op("mm.push_outs"), "count/op"});
  m.push_back({"pvm.soft_fault_ratio",
               Ratio(Get(d, "pvm.soft_faults"), Get(d, "pvm.soft_faults") + Get(d, "mm.pull_ins")),
               "ratio"});
  m.push_back({"pvm.sync_stub_waits_per_op", per_op("pvm.sync_stub_waits"), "count/op"});
  m.push_back({"pvm.pageout.frames_reclaimed_per_op", per_op("pvm.frames_reclaimed_daemon"),
               "count/op"});
  m.push_back({"pvm.pageout.sweep_waits_per_op", per_op("pvm.sweep_waits"), "count/op"});
  m.push_back({"pvm.pageout.thrash_throttles_per_op", per_op("pvm.thrash_throttles"), "count/op"});
  m.push_back({"pvm.pageout.batch_pages_per_push",
               Ratio(Get(d, "pvm.batch_push_pages"), Get(d, "pvm.batch_pushes")), "pages/push"});
  m.push_back({"pvm.pageout.bg_us_per_op", background_ns / 1e3 / ops, "us/op"});
  m.push_back({"hal.phys.allocs_per_op", per_op("phys.allocations"), "count/op"});
  m.push_back({"hal.phys.zero_fills_per_op", per_op("phys.zero_fills"), "count/op"});
  m.push_back({"hal.phys.copies_per_op", per_op("phys.frame_copies"), "count/op"});
  m.push_back({"hal.phys.run_allocs_per_op", per_op("phys.run_allocations"), "count/op"});
  m.push_back({"hal.phys.run_failures_per_op", per_op("phys.run_failures"), "count/op"});
  m.push_back({"hal.phys.magazine_hit_ratio",
               Ratio(Get(d, "phys.magazine_hits"), Get(d, "phys.allocations")), "ratio"});

  const double traced_ops_per_s = Ratio(static_cast<double>(traced.ops), traced.elapsed_s);
  m.push_back({"trace.ops_per_s", traced_ops_per_s, "1/s"});
  m.push_back({"trace.untraced_ops_per_s", trace.untraced_ops_per_s, "1/s"});
  m.push_back({"trace.overhead_pct",
               traced_ops_per_s > 0 ? (trace.untraced_ops_per_s / traced_ops_per_s - 1) * 100 : 0,
               "%"});
  m.push_back({"trace.spans_per_op", static_cast<double>(n) / ops, "count/op"});
  return m;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace perfbench
