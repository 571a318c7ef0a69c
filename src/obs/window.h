// Sliding-window live statistics over simulated time.
//
// The MetricsRegistry accumulates since process start, so a scrape taken
// three simulated seconds into an overload answers "what happened ever",
// not "what is happening now". SlidingWindow keeps the last window_ns of
// simulated time in a small wheel of buckets: each bucket owns
// window_ns / buckets of absolute sim time and is lazily recycled when the
// wheel comes back around, so decay is O(1) per sample with no timer.
//
// One window per writer (the serve layer keeps one per shard, matching its
// WorkerMetrics blocks): Record* calls are single-writer, but
// every counter is a relaxed atomic so a concurrent reader -- the SLO
// watchdog merging all windows mid-run -- reads torn-free values. The
// merge is statistical, not linearizable: a sample landing during a merge
// may or may not be counted, and a bucket mid-recycle is skipped. The
// deterministic Pump mode is single-threaded, so tests see exact counts.
//
// Alongside the aggregates, each window keeps the k slowest requests
// currently inside it (trace id + latency + completion time), the list an
// SLO alert publishes so `nearpm_trace --request` has somewhere to start.
#ifndef SRC_OBS_WINDOW_H_
#define SRC_OBS_WINDOW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/stats.h"
#include "src/sim/cost_model.h"

namespace nearpm {
namespace obs {

struct WindowOptions {
  SimTime window_ns = 1'000'000'000;  // 1 s of simulated time
  int buckets = 16;                   // wheel granularity
  int slow_k = 4;                     // slowest-request slots tracked
};

// One entry of the slow-request list.
struct SlowRequest {
  std::uint64_t trace = 0;   // request trace id (0 = untraced)
  SimTime latency_ns = 0;
  SimTime ts = 0;            // completion time (for window eviction)
};

// Merged view of one or more windows at a point in simulated time.
struct WindowStats {
  SimTime window_ns = 0;
  SimTime now = 0;
  std::uint64_t count = 0;   // requests completed in the window
  std::uint64_t errors = 0;  // of which failed
  std::uint64_t depth_samples = 0;
  std::uint64_t depth_sum = 0;
  std::uint64_t depth_max = 0;
  int slow_k = 0;
  Histogram latency;
  std::vector<SlowRequest> slowest;  // descending latency, <= slow_k entries

  double Qps() const {
    return window_ns > 0
               ? static_cast<double>(count) /
                     (static_cast<double>(window_ns) / 1e9)
               : 0.0;
  }
  double ErrorRate() const {
    return count > 0 ? static_cast<double>(errors) /
                           static_cast<double>(count)
                     : 0.0;
  }
  double MeanDepth() const {
    return depth_samples > 0 ? static_cast<double>(depth_sum) /
                                   static_cast<double>(depth_samples)
                             : 0.0;
  }

  // Folds `other` in: counts add, histograms merge, the slow lists merge
  // keeping the max(slow_k) slowest overall.
  void MergeFrom(const WindowStats& other);
};

class SlidingWindow {
 public:
  explicit SlidingWindow(const WindowOptions& options = {});

  SlidingWindow(SlidingWindow&&) = default;
  SlidingWindow(const SlidingWindow&) = delete;
  SlidingWindow& operator=(const SlidingWindow&) = delete;

  // One completed request at sim time `now`. Single-writer.
  void RecordLatency(SimTime now, SimTime latency_ns, bool error,
                     std::uint64_t trace = 0);
  // One queue-depth sample at batch pickup. Single-writer.
  void RecordDepth(SimTime now, std::uint64_t depth);

  // Aggregates over buckets overlapping (now - window_ns, now]. Safe
  // concurrently with the writer (statistical; see the header comment).
  WindowStats Snapshot(SimTime now) const;

  // Convenience: Snapshot each window and merge.
  static WindowStats Merge(const std::vector<const SlidingWindow*>& windows,
                           SimTime now);

  const WindowOptions& options() const { return options_; }

 private:
  // tag holds the absolute bucket index + 1 (0 = idle, never written);
  // the writer zeroes it while recycling so readers skip the reset.
  struct Bucket {
    std::atomic<std::uint64_t> tag{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> depth_samples{0};
    std::atomic<std::uint64_t> depth_sum{0};
    std::atomic<std::uint64_t> depth_max{0};
    Histogram latency;
  };

  // Seqlock-stamped slow-request slot (version odd while the writer is
  // inside), so the watchdog never publishes a trace id paired with another
  // request's latency.
  struct SlowSlot {
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> trace{0};
    std::atomic<std::uint64_t> latency_ns{0};
    std::atomic<std::uint64_t> ts{0};
  };

  SimTime BucketWidth() const {
    return options_.window_ns / static_cast<SimTime>(options_.buckets);
  }
  // The writer-side find-or-recycle of the bucket owning `now`.
  Bucket& TouchBucket(SimTime now);
  void NoteSlow(SimTime now, SimTime latency_ns, std::uint64_t trace);

  WindowOptions options_;
  std::unique_ptr<Bucket[]> buckets_;
  std::unique_ptr<SlowSlot[]> slow_;
};

}  // namespace obs
}  // namespace nearpm

#endif  // SRC_OBS_WINDOW_H_
