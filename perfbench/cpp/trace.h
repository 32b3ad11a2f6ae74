// Span tracing for the traced benchmark run, and the three decorators that
// insert it behind the stack's own virtual interfaces:
//
//   TracedMmu           under TlbMmu (spans hal.mmu.*)
//   TracedFaultHandler  rebound with Cpu::BindFaultHandler (span pvm.fault)
//   TracedMapper        between a Mapper and its MapperServer (nucleus.mapper.*)
//
// Every decorator forwards every virtual of its interface, defaulted range and
// huge-page operations included, so a traced world takes the same code paths
// as an untraced one.  Spans are kept in a preallocated in-memory array and
// written out when the run ends; the parent of a span comes from a
// thread-local stack, so nesting is exact per thread.
#ifndef PERFBENCH_CPP_TRACE_H_
#define PERFBENCH_CPP_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/hal/cpu.h"
#include "src/hal/mmu.h"
#include "src/nucleus/mapper.h"

namespace perfbench {

enum SpanName : uint16_t {
  kMixFork,
  kMixExec,
  kMixRun,
  kMixWait,
  kRgnAllocate,
  kRgnFree,
  kMsgSend,
  kMsgReceive,
  kMapperRead,
  kMapperWrite,
  kCpuAccess,
  kMmuMap,
  kMmuUnmap,
  kMmuProtect,
  kMmuTranslate,
  kMmuDemote,
  kPvmFault,
  kSpanNameCount,
};

const char* SpanNameString(SpanName name);

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // 0 while the span is open
  uint32_t parent = 0;
  uint32_t op = 0;
  uint16_t name = 0;
  uint16_t thread = 0;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  explicit Tracer(size_t capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span on the calling thread; returns its index, or kNone when
  // recording is off or the array is full.  Every Begin is paired with End.
  uint32_t Begin(SpanName name);
  void End(uint32_t index);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  // The operation id stamped on spans opened from now on (any thread).
  void set_op(uint32_t op) { op_.store(op, std::memory_order_relaxed); }
  // Thread index of the caller, as recorded in its spans.
  uint16_t CallerThread();

  // Spans handed out so far (some may have been dropped past capacity).
  size_t size() const;
  bool HasRoom(size_t spans) const { return size() + spans <= capacity_; }
  const SpanRecord& at(size_t i) const { return spans_[i]; }

  // Raw dump: a header line, then the records as packed binary.
  bool WriteTo(const std::string& path) const;

 private:
  struct ThreadState;
  ThreadState& Mine();

  const size_t capacity_;
  std::unique_ptr<SpanRecord[]> spans_;
  std::atomic<size_t> next_{0};
  std::atomic<uint32_t> op_{0};
  std::atomic<bool> enabled_{false};
  std::atomic<uint16_t> next_thread_{0};
  const uint64_t generation_;
};

// RAII span; a null tracer makes it free of any clock read.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Begin(name) : Tracer::kNone) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t index_;
};

// Runs `f` inside a span and returns what it returns.
template <typename F>
auto Traced(Tracer* tracer, SpanName name, F&& f) {
  ScopedSpan span(tracer, name);
  return f();
}

// hal.mmu.*: map = Map/MapHuge; unmap = every unmap form and address-space
// teardown; protect = Protect/ProtectRange; translate = every page-table walk
// (hardware translation, software Lookup, referenced-bit harvest);
// demote = DemoteHuge.
class TracedMmu final : public gvm::Mmu {
 public:
  TracedMmu(gvm::Mmu& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  gvm::Result<gvm::AsId> CreateAddressSpace() override { return inner_.CreateAddressSpace(); }
  [[nodiscard]] gvm::Status DestroyAddressSpace(gvm::AsId as) override {
    ScopedSpan span(&tracer_, kMmuUnmap);
    return inner_.DestroyAddressSpace(as);
  }
  [[nodiscard]] gvm::Status Map(gvm::AsId as, gvm::Vaddr va, gvm::FrameIndex frame,
                                gvm::Prot prot) override {
    ScopedSpan span(&tracer_, kMmuMap);
    return inner_.Map(as, va, frame, prot);
  }
  [[nodiscard]] gvm::Status Unmap(gvm::AsId as, gvm::Vaddr va) override {
    ScopedSpan span(&tracer_, kMmuUnmap);
    return inner_.Unmap(as, va);
  }
  [[nodiscard]] gvm::Result<gvm::MmuEntry> UnmapCollect(gvm::AsId as, gvm::Vaddr va) override {
    ScopedSpan span(&tracer_, kMmuUnmap);
    return inner_.UnmapCollect(as, va);
  }
  [[nodiscard]] gvm::Status UnmapRangeCollect(gvm::AsId as, gvm::Vaddr va, size_t count,
                                              uint64_t* dirty_mask) override {
    ScopedSpan span(&tracer_, kMmuUnmap);
    return inner_.UnmapRangeCollect(as, va, count, dirty_mask);
  }
  [[nodiscard]] gvm::Status Protect(gvm::AsId as, gvm::Vaddr va, gvm::Prot prot) override {
    ScopedSpan span(&tracer_, kMmuProtect);
    return inner_.Protect(as, va, prot);
  }
  [[nodiscard]] gvm::Status UnmapRange(gvm::AsId as, gvm::Vaddr va, size_t count) override {
    ScopedSpan span(&tracer_, kMmuUnmap);
    return inner_.UnmapRange(as, va, count);
  }
  [[nodiscard]] gvm::Status ProtectRange(gvm::AsId as, gvm::Vaddr va, size_t count,
                                         gvm::Prot prot) override {
    ScopedSpan span(&tracer_, kMmuProtect);
    return inner_.ProtectRange(as, va, count, prot);
  }
  gvm::Result<gvm::FrameIndex> Translate(gvm::AsId as, gvm::Vaddr va,
                                         gvm::Access access) override {
    ScopedSpan span(&tracer_, kMmuTranslate);
    return inner_.Translate(as, va, access);
  }
  gvm::Result<gvm::FrameIndex> TranslateAndAccess(gvm::AsId as, gvm::Vaddr va,
                                                  gvm::Access access,
                                                  gvm::FrameBodyRef body) override {
    ScopedSpan span(&tracer_, kMmuTranslate);
    return inner_.TranslateAndAccess(as, va, access, body);
  }
  size_t huge_page_size() const override { return inner_.huge_page_size(); }
  [[nodiscard]] gvm::Status MapHuge(gvm::AsId as, gvm::Vaddr va, gvm::FrameIndex frame,
                                    gvm::Prot prot) override {
    ScopedSpan span(&tracer_, kMmuMap);
    return inner_.MapHuge(as, va, frame, prot);
  }
  [[nodiscard]] gvm::Status DemoteHuge(gvm::AsId as, gvm::Vaddr va) override {
    ScopedSpan span(&tracer_, kMmuDemote);
    return inner_.DemoteHuge(as, va);
  }
  gvm::Result<gvm::FrameIndex> TranslateAndAccessInfo(gvm::AsId as, gvm::Vaddr va,
                                                      gvm::Access access,
                                                      gvm::FrameBodyRef body,
                                                      gvm::MmuTranslateInfo* info) override {
    ScopedSpan span(&tracer_, kMmuTranslate);
    return inner_.TranslateAndAccessInfo(as, va, access, body, info);
  }
  gvm::Result<gvm::MmuEntry> Lookup(gvm::AsId as, gvm::Vaddr va) const override {
    ScopedSpan span(&tracer_, kMmuTranslate);
    return inner_.Lookup(as, va);
  }
  gvm::Result<bool> TestAndClearReferenced(gvm::AsId as, gvm::Vaddr va) override {
    ScopedSpan span(&tracer_, kMmuTranslate);
    return inner_.TestAndClearReferenced(as, va);
  }
  size_t page_size() const override { return inner_.page_size(); }
  Stats stats() const override { return inner_.stats(); }
  void ResetStats() override { inner_.ResetStats(); }
  const char* name() const override { return inner_.name(); }

 private:
  gvm::Mmu& inner_;
  Tracer& tracer_;
};

class TracedFaultHandler final : public gvm::FaultHandler {
 public:
  TracedFaultHandler(gvm::FaultHandler& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}
  [[nodiscard]] gvm::Status HandleFault(const gvm::PageFault& fault) override {
    ScopedSpan span(&tracer_, kPvmFault);
    return inner_.HandleFault(fault);
  }

 private:
  gvm::FaultHandler& inner_;
  Tracer& tracer_;
};

// nucleus.mapper.read = Read; nucleus.mapper.write = Write/WriteSeq.  Also
// counts the payload bytes moved, for nucleus.ipc.bytes_per_op.
class TracedMapper final : public gvm::Mapper {
 public:
  TracedMapper(gvm::Mapper& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] gvm::Status Read(uint64_t key, gvm::SegOffset offset, size_t size,
                                 std::vector<std::byte>* out) override {
    ScopedSpan span(&tracer_, kMapperRead);
    bytes_.fetch_add(size, std::memory_order_relaxed);
    return inner_.Read(key, offset, size, out);
  }
  [[nodiscard]] gvm::Status Write(uint64_t key, gvm::SegOffset offset, const std::byte* data,
                                  size_t size) override {
    ScopedSpan span(&tracer_, kMapperWrite);
    bytes_.fetch_add(size, std::memory_order_relaxed);
    return inner_.Write(key, offset, data, size);
  }
  gvm::Result<uint64_t> AllocateTemporary(size_t size_hint) override {
    return inner_.AllocateTemporary(size_hint);
  }
  [[nodiscard]] gvm::Status WriteSeq(uint64_t key, gvm::SegOffset offset, const std::byte* data,
                                     size_t size, uint64_t seq) override {
    ScopedSpan span(&tracer_, kMapperWrite);
    bytes_.fetch_add(size, std::memory_order_relaxed);
    return inner_.WriteSeq(key, offset, data, size, seq);
  }
  gvm::Result<uint64_t> AllocateTemporarySeq(size_t size_hint, uint64_t seq) override {
    return inner_.AllocateTemporarySeq(size_hint, seq);
  }
  bool ConsumeCrash() override { return inner_.ConsumeCrash(); }
  bool thread_safe_dispatch() const override { return inner_.thread_safe_dispatch(); }
  [[nodiscard]] gvm::Status Free(uint64_t key) override { return inner_.Free(key); }
  [[nodiscard]] gvm::Status GetWriteAccess(uint64_t key, gvm::SegOffset offset,
                                           size_t size) override {
    return inner_.GetWriteAccess(key, offset, size);
  }
  gvm::Prot FillProtection(uint64_t key, gvm::SegOffset offset, size_t size) override {
    return inner_.FillProtection(key, offset, size);
  }

  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  gvm::Mapper& inner_;
  Tracer& tracer_;
  std::atomic<uint64_t> bytes_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_TRACE_H_
