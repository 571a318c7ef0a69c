// Low-overhead event recorder: one bounded ring buffer per resource track.
//
// Recording is a single branch + struct copy into a preallocated ring; when
// the ring fills, the oldest events on that track are overwritten (the drop
// count is kept, so consumers know the window is partial). A track's first
// event reserves its whole ring at once and the ring never reallocates after
// that. The memory bound is tracks x ring_capacity x sizeof(TraceEvent) of
// address space; a page is touched only once an event is written to it.
//
// Instrumentation sites go through the NEARPM_TRACE_* macros below, which
// compile to a null-check when no recorder is attached -- the disabled cost
// is one predictable branch, so performance runs are unaffected (checked by
// the Figure 16/17 benchmarks).
//
// Per-phase metrics (feed_metrics) are accumulated into plain arrays indexed
// by TracePhase -- no string lookup, no registry lock on the record path --
// and folded into the MetricsRegistry lazily when metrics() is accessed.
// Callers already read metrics() only once writers have quiesced (the
// registry's own contract), so the deferred sync is invisible to them.
//
// The simulator is single-OS-threaded (application "threads" are virtual
// clocks), so the recorder needs no synchronization.
#ifndef SRC_TRACE_RECORDER_H_
#define SRC_TRACE_RECORDER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/trace/metrics.h"
#include "src/trace/trace_event.h"

namespace nearpm {

struct TraceRecorderOptions {
  // Events retained per (pid, tid) track before the ring wraps.
  std::size_t ring_capacity = 1 << 16;
  // Feed span durations into MetricsRegistry latency histograms keyed by
  // phase name (and count every phase).
  bool feed_metrics = true;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceRecorderOptions& options = {});

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Records one event (fills epoch and order, and stamps the active trace
  // id on events that don't carry one). Call through the macros so argument
  // evaluation is skipped when tracing is off.
  void Record(TraceEvent event);

  // Request-scoped tracing: while a trace id is active, every event recorded
  // with trace == 0 inherits it. Serve workers set the scope around each
  // request's execution (always under the shard lock in threaded mode, so a
  // plain member is race-free); cross-node propagation stamps the id
  // explicitly on fabric events instead.
  void set_active_trace(std::uint64_t id) { active_trace_ = id; }
  std::uint64_t active_trace() const { return active_trace_; }

  // Optional synchronous consumer of the stamped event stream (the obs
  // layer's flight recorder). Null detaches.
  void AttachSink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }

  // Starts a new epoch: virtual clocks restarted (a crash, or a fresh
  // Runtime attached to a shared recorder). Returns the new epoch id.
  std::uint32_t NextEpoch() { return ++epoch_; }
  std::uint32_t epoch() const { return epoch_; }

  // Retained events, sorted by order -- i.e. real record order. When any
  // track's ring has wrapped, the result is trimmed to the newest
  // *globally consistent* suffix of the record stream: tracks wrap at
  // different rates, and a merge of raw ring contents would keep effects
  // (exec spans, persists) from un-wrapped tracks whose causes (retires)
  // the busiest track has already overwritten -- the PPO checker would
  // report phantom violations on such a stream.
  std::vector<TraceEvent> Snapshot() const;

  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t track_count() const { return tracks_.size(); }

  // Phase metrics accumulated so far, folded into the registry on access
  // (store, not add -- syncing twice never double-counts). Like every other
  // registry read, call once writers have quiesced.
  MetricsRegistry& metrics() {
    SyncPhaseMetrics();
    return metrics_;
  }
  const MetricsRegistry& metrics() const {
    SyncPhaseMetrics();
    return metrics_;
  }

  void Clear();

 private:
  static constexpr std::size_t kPhaseCount =
      static_cast<std::size_t>(TracePhase::kCount);

  struct Ring {
    std::vector<TraceEvent> events;  // reserved to ring_capacity on the
                                     // track's first event; wrap-around
    std::size_t next = 0;            // write cursor once full
    std::uint64_t dropped = 0;       // overwrites; >0 means events[next] is
                                     // the oldest retained entry
  };

  static std::uint64_t TrackKey(std::uint32_t pid, std::uint32_t tid) {
    return (static_cast<std::uint64_t>(pid) << 32) | tid;
  }

  void SyncPhaseMetrics() const;

  TraceRecorderOptions options_;
  bool enabled_ = true;
  std::uint32_t epoch_ = 0;
  std::uint64_t order_ = 0;
  std::uint64_t active_trace_ = 0;
  TraceSink* sink_ = nullptr;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::unordered_map<std::uint64_t, Ring> tracks_;
  // One-entry track cache: consecutive events land on the same (pid, tid)
  // often enough that skipping the hash lookup pays.
  std::uint64_t cached_track_key_ = ~0ull;
  Ring* cached_track_ = nullptr;
  // Hot-path phase accumulators (single-threaded, plain loads/stores; the
  // Histogram's relaxed atomics cost nothing uncontended).
  std::array<std::uint64_t, kPhaseCount> phase_counts_{};
  std::array<Histogram, kPhaseCount> phase_latency_;
  std::array<double, kPhaseCount> phase_gauge_{};
  std::array<bool, kPhaseCount> phase_gauge_set_{};
  mutable MetricsRegistry metrics_;
};

// Instrumentation entry points. `rec` is a TraceRecorder* (may be null);
// the variadic part is designated initializers of TraceEvent, e.g.
//   NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kCpuFence,
//                      .tid = t, .ts = now);
// Both macros expand to nothing costlier than a pointer test when tracing
// is detached; NEARPM_TRACE_SPAN is the same operation, named so call sites
// read as "this is an interval, not an instant".
#define NEARPM_TRACE_EVENT(rec, ...)                              \
  do {                                                            \
    ::nearpm::TraceRecorder* nearpm_trace_rec_ = (rec);           \
    if (nearpm_trace_rec_ != nullptr && nearpm_trace_rec_->enabled()) { \
      nearpm_trace_rec_->Record(::nearpm::TraceEvent{__VA_ARGS__}); \
    }                                                             \
  } while (0)

#define NEARPM_TRACE_SPAN(rec, ...) NEARPM_TRACE_EVENT(rec, __VA_ARGS__)

// True when events would actually be recorded (for guarding pre-computation
// that only feeds tracing).
#define NEARPM_TRACE_ENABLED(rec) ((rec) != nullptr && (rec)->enabled())

// RAII trace-id scope: events recorded while the scope is live inherit the
// request's trace id. Nestable (restores the previous id), null-tolerant.
class TraceIdScope {
 public:
  TraceIdScope(TraceRecorder* recorder, std::uint64_t id)
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      previous_ = recorder_->active_trace();
      recorder_->set_active_trace(id);
    }
  }
  ~TraceIdScope() {
    if (recorder_ != nullptr) {
      recorder_->set_active_trace(previous_);
    }
  }
  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  TraceRecorder* recorder_;
  std::uint64_t previous_ = 0;
};

}  // namespace nearpm

#endif  // SRC_TRACE_RECORDER_H_
