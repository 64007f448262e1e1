#ifndef WAGG_OBS_TRACE_H
#define WAGG_OBS_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace wagg::obs {

/// One completed span. `name` must point at a string literal (or any
/// storage outliving the tracer) — the hot path stores the pointer, never
/// copies.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;  ///< since the tracer's epoch
  std::uint64_t end_ns = 0;
};

/// One collected span, decoupled from the tracer's storage (the name is
/// copied, the recording thread identified by tid) — the in-process currency
/// of the span profiler (obs/profile.h).
struct CollectedSpan {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;

  friend bool operator==(const CollectedSpan&, const CollectedSpan&) = default;
};

/// Process-wide span collector. Disabled by default; a disabled tracer
/// costs instrumented code one relaxed atomic load per span.
///
/// When enabled, each recording thread owns a fixed-size ring buffer it
/// alone writes (registered once under a mutex — the only lock, and only on
/// a thread's first span). record() is therefore lock-free and allocation-
/// free on the hot path: one slot store plus a release bump of the write
/// head. A full ring drops the OLDEST events (the ring keeps the tail of
/// the story) and the overwritten count is exact: dropped = written -
/// capacity.
///
/// Export (chrome_trace_json) expects recording threads to be quiescent —
/// either joined (the join provides the happens-before) or between spans;
/// an export raced with an in-flight record() may see a torn oldest slot.
/// All CLIs export after their sessions complete.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  /// The process-wide tracer every Span uses.
  static Tracer& global();

  /// Starts collecting. Clears previously collected events; per-thread
  /// buffers are (re)created at `events_per_thread` capacity on each
  /// thread's next span.
  void enable(std::size_t events_per_thread = kDefaultCapacity)
      WAGG_EXCLUDES(mutex_);
  /// Stops collecting. Buffered events survive for export.
  void disable();
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the tracer's epoch (set at construction).
  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            util::Clock::now() - epoch_)
            .count());
  }

  /// Appends one completed span to the calling thread's ring buffer.
  void record(const char* name, std::uint64_t start_ns,
              std::uint64_t end_ns);

  /// Total spans handed to record() since the last enable().
  [[nodiscard]] std::uint64_t recorded_events() const WAGG_EXCLUDES(mutex_);
  /// Spans overwritten by ring wraparound (exact; see class comment).
  [[nodiscard]] std::uint64_t dropped_events() const WAGG_EXCLUDES(mutex_);

  /// Chrome trace-event JSON (the object form: {"traceEvents": [...]}),
  /// loadable in Perfetto / chrome://tracing. Spans become complete ("X")
  /// events with microsecond timestamps; per-thread buffers become tids,
  /// annotated with thread_name metadata. Nesting needs no explicit links:
  /// RAII spans on one thread are properly bracketed, which is exactly the
  /// containment the viewers render as a slice tree.
  [[nodiscard]] std::string chrome_trace_json() const WAGG_EXCLUDES(mutex_);

  /// Snapshots the surviving buffered spans (ring order per thread, oldest
  /// first) for in-process profiling — the same events chrome_trace_json()
  /// would serialize, without the JSON round trip. Same quiescence contract
  /// as export.
  [[nodiscard]] std::vector<CollectedSpan> collect() const
      WAGG_EXCLUDES(mutex_);

  /// Drops all buffered events and thread registrations.
  void clear() WAGG_EXCLUDES(mutex_);

 private:
  struct ThreadBuffer {
    ThreadBuffer(std::size_t capacity, std::uint32_t thread_id)
        : ring(capacity), tid(thread_id) {}
    std::vector<TraceEvent> ring;
    /// Total events ever written; slot = head % ring.size(). Release store
    /// after the slot write so a quiescent reader acquires complete events.
    std::atomic<std::uint64_t> head{0};
    std::uint32_t tid = 0;
  };

  Tracer() : epoch_(util::Clock::now()) {}

  [[nodiscard]] ThreadBuffer* local_buffer() WAGG_EXCLUDES(mutex_);

  std::atomic<bool> enabled_{false};
  /// Bumped by enable()/clear(); thread-local buffer pointers are revalidated
  /// against it so stale pointers from a previous enable window are never
  /// dereferenced.
  std::atomic<std::uint64_t> generation_{1};
  util::Clock::time_point epoch_;

  /// Guards buffer REGISTRATION (the buffers_ vector and capacity_) and
  /// every reader (collect/export/counts). The ring CONTENTS are outside
  /// this capability on the write side: each ring has exactly one writer —
  /// the thread that registered it — and readers rely on the documented
  /// quiescence contract plus the head's release/acquire pairing, not on
  /// the mutex. That one lock-free write path is the record() carve-out.
  mutable util::Mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      WAGG_GUARDED_BY(mutex_);
  std::size_t capacity_ WAGG_GUARDED_BY(mutex_) = kDefaultCapacity;
};

/// RAII scoped span against the global tracer. `name` must be a string
/// literal (stored by pointer). Construction on a disabled tracer reduces
/// to one relaxed load; destruction to one branch.
class Span {
 public:
  explicit Span(const char* name) noexcept {
    Tracer& tracer = Tracer::global();
    if (tracer.enabled()) {
      name_ = name;
      start_ns_ = tracer.now_ns();
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      Tracer& tracer = Tracer::global();
      tracer.record(name_, start_ns_, tracer.now_ns());
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

/// Where a StageSpan accounts its time: the stage's span name (a string
/// literal) and its entry in the caller's stage table (non-null), which the
/// span adds each closed stage's milliseconds to.
struct StageSlot {
  const char* name = nullptr;
  double* ms = nullptr;
};

/// The stage clock: the one timer of a planner stage. Each stage boundary
/// reads the clock once, adds the elapsed time to the stage's slot, and —
/// when the tracer was enabled as the stage opened — records the trace
/// event from the same two timestamps, so the table and the span tree
/// cannot disagree. next(slot) closes the current stage and opens the next
/// at the same instant (consecutive stages tile without gap or overlap);
/// close()/destruction ends the last one. Fits code like
/// DynamicPlanner::replan where stages are sequential statements in one
/// scope and RAII blocks would force restructuring.
class StageSpan {
 public:
  explicit StageSpan(StageSlot slot) noexcept {
    open(slot, Tracer::global().now_ns());
  }
  ~StageSpan() { close(); }

  /// Ends the current (open) stage and starts `slot`'s at the same instant.
  void next(StageSlot slot) noexcept { open(slot, finish()); }

  /// Ends the current stage (idempotent).
  void close() noexcept {
    if (slot_.ms != nullptr) (void)finish();
    slot_ = {};
  }

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  void open(StageSlot slot, std::uint64_t now) noexcept {
    slot_ = slot;
    start_ns_ = now;
    traced_ = Tracer::global().enabled();
  }
  /// Closes the current stage at one clock read, returned for next().
  std::uint64_t finish() noexcept {
    Tracer& tracer = Tracer::global();
    const std::uint64_t now = tracer.now_ns();
    *slot_.ms += static_cast<double>(now - start_ns_) / 1e6;
    if (traced_) tracer.record(slot_.name, start_ns_, now);
    return now;
  }

  StageSlot slot_;
  std::uint64_t start_ns_ = 0;
  bool traced_ = false;
};

}  // namespace wagg::obs

#endif  // WAGG_OBS_TRACE_H
