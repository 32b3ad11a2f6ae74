#include "cpp/trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

constexpr const char* kSpanNames[kSpanNameCount] = {
    "mix.fork",          "mix.exec",         "mix.run",          "mix.wait",
    "nucleus.rgn_allocate", "nucleus.rgn_free", "nucleus.msg_send", "nucleus.msg_receive",
    "nucleus.mapper.read",  "nucleus.mapper.write", "hal.cpu.access", "hal.mmu.map",
    "hal.mmu.unmap",     "hal.mmu.protect",  "hal.mmu.translate", "hal.mmu.demote",
    "pvm.fault",
};

constexpr int kMaxDepth = 64;

std::atomic<uint64_t> g_generations{1};

}  // namespace

struct Tracer::ThreadState {
  uint64_t generation = 0;  // tracer this state belongs to
  uint16_t id = 0;
  int depth = 0;
  uint32_t stack[kMaxDepth] = {};
};

const char* SpanNameString(SpanName name) { return kSpanNames[name]; }

Tracer::Tracer(size_t capacity)
    : capacity_(capacity),
      spans_(new SpanRecord[capacity]),
      generation_(g_generations.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::ThreadState& Tracer::Mine() {
  thread_local ThreadState state;
  if (state.generation != generation_) {
    state = ThreadState{};
    state.generation = generation_;
    state.id = next_thread_.fetch_add(1, std::memory_order_relaxed);
  }
  return state;
}

uint16_t Tracer::CallerThread() { return Mine().id; }

uint32_t Tracer::Begin(SpanName name) {
  ThreadState& t = Mine();
  const uint32_t parent = t.depth > 0 && t.depth <= kMaxDepth ? t.stack[t.depth - 1] : kNone;
  uint32_t index = kNone;
  if (enabled_.load(std::memory_order_acquire)) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i < capacity_) {
      index = static_cast<uint32_t>(i);
      SpanRecord& r = spans_[i];
      r.name = name;
      r.parent = parent;
      r.op = op_.load(std::memory_order_relaxed);
      r.thread = t.id;
      r.end_ns = 0;
      r.start_ns = NowNs();
    }
  }
  if (t.depth < kMaxDepth) {
    t.stack[t.depth] = index;
  }
  ++t.depth;
  return index;
}

void Tracer::End(uint32_t index) {
  const int64_t now = index != kNone ? NowNs() : 0;
  --Mine().depth;
  if (index != kNone) {
    spans_[index].end_ns = now;
  }
}

size_t Tracer::size() const {
  return std::min(next_.load(std::memory_order_acquire), capacity_);
}

bool Tracer::WriteTo(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const size_t n = size();
  std::fprintf(f,
               "perfbench-spans v1 count=%zu record_bytes=%zu "
               "layout=start_ns:i64,end_ns:i64,parent:u32,op:u32,name:u16,thread:u16 names=",
               n, sizeof(SpanRecord));
  for (int i = 0; i < kSpanNameCount; ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ",", kSpanNames[i]);
  }
  std::fputc('\n', f);
  const bool ok = std::fwrite(spans_.get(), sizeof(SpanRecord), n, f) == n;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
