// KvService: the sharded serving front end (the paper's storage-class
// "service" shape: many independent NearPM machines behind one API).
//
// A ShardRouter hash-partitions keys across N shards, each an independent
// Runtime + device group (src/serve/shard.h). Requests are admitted into
// per-shard bounded queues (admission control: a full queue rejects with
// ResourceExhausted -- caller-visible backpressure, never unbounded
// buffering) and drained in batches: one front-end doorbell charge and one
// fence per batch instead of per request, the classic amortization knob.
//
// Requests are admitted into per-shard lock-free rings and metrics are
// recorded into one counter block per shard, so the hot path performs no
// mutex acquisition and no registry lookup: admission is a claim-CAS plus a
// release store, and each completion bumps a cache-line-private relaxed
// atomic. The MetricsRegistry is populated only on
// PublishMetrics()/ExportResourceMetrics() (scrape time), and Stats() is a
// single merge pass over the shard blocks.
//
// The rings and both execution modes live in the shared BatchDriver
// (src/serve/batch_driver.h): Start()/Stop() run one OS thread per shard
// (the CLI mode), Pump() drains inline on the calling thread (the benchmark
// and crash-fuzzer mode). Either way each batch runs on the shard's next
// virtual CPU in round-robin order, so pre-filled rings give the same
// simulated timings in both modes.
//
// Cross-shard MultiPut follows the paper's Invariant 3 end to end: the
// coordinator persists a redo intent (failure-atomic, drained durable),
// every participant applies its slice and signals a per-participant
// SyncStateMachine, remote completions are exchanged, and only when every
// machine is back in All-Complete is the intent retired -- a write ordered
// after the synchronization. A crash anywhere in between recovers
// all-or-nothing via RecoverAll()'s intent redo.
#ifndef SRC_SERVE_SERVICE_H_
#define SRC_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/obs/watchdog.h"
#include "src/prof/request_timeline.h"
#include "src/serve/batch_driver.h"
#include "src/serve/router.h"
#include "src/serve/shard.h"
#include "src/trace/metrics.h"

namespace nearpm {
namespace serve {

struct ServeOptions {
  int shards = 4;
  int workers_per_shard = 2;  // virtual CPUs (runtime clocks) per shard
  std::size_t queue_capacity = 64;
  int batch_max = 8;  // requests drained per doorbell/fence
  ExecMode mode = ExecMode::kNdpMultiDelayed;
  bool enforce_ppo = true;
  bool skip_recovery_replay = false;  // fault injection (fuzzer teeth)
  // Fault injection for the serve fuzzer's self-test: recovery scrubs
  // surviving transaction intents without re-applying them, breaking the
  // all-or-nothing guarantee. The fuzzer must catch this.
  bool break_txn_redo = false;
  std::uint64_t pm_size = 16ull << 20;
  std::uint32_t table_slots = 512;
  std::uint32_t value_size = 64;
  double request_parse_ns = 50.0;  // front-end CPU cost per request
  // Device geometry shared by every shard (default = seed platform).
  hwmodel::HwConfig hw;

  // ---- Live observability ---------------------------------------------------
  // Flight-recorder budget in compacted events (0 disables it). Every shard
  // recorder feeds the one shared ring, so the last N events the whole
  // service produced are always dumpable.
  std::size_t flight_capacity = obs::FlightRecorder::kDefaultCapacity;
  // SLO watchdog: when enabled, `slo` is evaluated at batch boundaries over
  // the per-shard sliding windows; a breach dumps the flight record to
  // `slo_dump_path` (empty = in-memory alert only). The window shape
  // (window_ns, slow_k) always comes from `slo`, watchdog or not.
  bool slo_enabled = false;
  obs::SloSpec slo;
  std::string slo_dump_path;
};

// Crash injection for the serve fuzzer: where ExecuteMultiPut deliberately
// stops, leaving the cross-shard protocol mid-flight.
enum class TxnStopPhase : std::uint8_t {
  kNone = 0,     // run to completion
  kAfterIntent,  // intent durable, no slice applied yet
  kMidApply,     // apply_ordinal's puts issued but not drained or signalled
  kAfterApply,   // participants [0, apply_ordinal] applied + local-complete
  kAfterSync,    // every participant All-Complete, intent not yet retired
};

struct TxnStop {
  TxnStopPhase phase = TxnStopPhase::kNone;
  int apply_ordinal = 0;  // kAfterApply: last participant ordinal applied
};

// Hot-path metrics block, one per shard: written only by the thread running
// the shard's batches (relaxed atomics on a private cache line, so a
// concurrent Stats() merge reads torn-free values), merged on scrape. This
// is what keeps the MetricsRegistry -- shared_mutex plus string-keyed map
// lookup -- entirely off the request path.
struct alignas(64) WorkerMetrics {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> batches{0};
  Histogram request_ns;  // batch pickup -> completion, simulated ns
  Histogram batch_size;
};

// Quiesced-state snapshot (call after Stop()/Pump(), not mid-traffic).
struct ServeStats {
  std::uint64_t completed = 0;
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t txns = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;
  SimTime makespan_ns = 0;  // slowest shard's latest virtual clock
  std::uint64_t request_p50_ns = 0;
  std::uint64_t request_p99_ns = 0;
  double throughput_ops_per_sec = 0;  // completed / makespan
};

class KvService {
 public:
  static StatusOr<std::unique_ptr<KvService>> Create(
      const ServeOptions& options);
  ~KvService();

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  const ServeOptions& options() const { return options_; }
  const ShardRouter& router() const { return router_; }
  Shard& shard(int s) { return *shards_[s]; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  MetricsRegistry& metrics() { return metrics_; }

  // Admission: routes the request (MultiPut -> its coordinator shard),
  // enqueues it and returns the completion future. A full queue rejects
  // immediately with ResourceExhausted; nothing was enqueued and the caller
  // may retry after draining.
  StatusOr<std::future<ServeResult>> Submit(ServeRequest request);

  // ---- Threaded mode --------------------------------------------------------
  void Start();  // spawns one OS thread per shard
  void Stop();   // closes queues, drains and joins every shard thread

  // ---- Deterministic mode ---------------------------------------------------
  // Drains every queue inline (round-robin across shards, rotating the
  // virtual CPU per batch). Returns requests executed. Must not run
  // concurrently with Start().
  std::uint64_t Pump();

  // Direct cross-shard transaction (also the path queued kMultiPut requests
  // take). `stop` deliberately abandons the protocol mid-flight for crash
  // injection; the transaction then reports Unavailable. `trace_id` tags
  // every participant's events with the originating request.
  Status ExecuteMultiPut(const std::vector<KvPair>& pairs,
                         const TxnStop& stop = {}, std::uint64_t trace_id = 0);

  // ---- Failure and recovery -------------------------------------------------
  // Power-fails every shard (plans[s] drives shard s) and drops volatile
  // service state. Queued-but-unexecuted requests fail Unavailable.
  void CrashAll(const std::vector<CrashPlan>& plans);
  // Mechanism recovery on every shard, then cross-shard intent redo: every
  // surviving intent is re-applied to every owner shard (idempotent upsert)
  // and retired, restoring the all-or-nothing guarantee.
  Status RecoverAll();

  // PPO audit over every shard's trace. Returns the total violation count;
  // appends human-readable reports to `report` when non-null.
  std::uint64_t PpoViolations(std::string* report = nullptr);

  // Folds every shard's trace through the profiler and publishes per-shard
  // resource gauges into metrics(): unit/dispatcher duty cycles and sampled
  // queue/FIFO occupancy, labeled serve_duty{shard="0",resource="..."}.
  // Also publishes the per-shard counter blocks (PublishMetrics). Call
  // quiesced (after Stop()/Pump()), like Stats().
  void ExportResourceMetrics();

  // Folds the per-shard blocks and service-level atomics into metrics()
  // under the historical names (serve_completed, serve_request_ns, ...).
  // Idempotent: counters are stored, not added, so scraping twice does not
  // double-count. Call quiesced.
  void PublishMetrics();

  // One merge pass over the shard blocks + service atomics; never touches
  // the registry (no per-counter name lookups).
  ServeStats Stats() const;

  // ---- Live observability ---------------------------------------------------
  // The shared flight recorder (null when flight_capacity == 0).
  obs::FlightRecorder* flight() { return flight_.get(); }
  // The SLO watchdog (null unless slo_enabled).
  obs::SloWatchdog* watchdog() { return watchdog_.get(); }
  // Merged sliding-window view across every shard's window at sim
  // time `now` (pass Stats().makespan_ns for "end of run"). Safe mid-run.
  obs::WindowStats WindowSnapshot(SimTime now) const;
  // Writes the schema-versioned flight dump (no alert context) to `os`.
  // Returns false when the flight recorder is disabled.
  bool DumpFlightRecord(std::ostream& os) const;
  // Labeled event-stream snapshots of every shard recorder ("shard<N>"),
  // the input BuildRequestTimeline wants. Call quiesced (takes each shard's
  // lock).
  std::vector<TimelineSource> TimelineSources();

 private:
  explicit KvService(const ServeOptions& options);

  // Executes one batch in place on virtual CPU `vcpu` (the driver's buffer
  // is reused across batches): single-shard requests under the shard lock
  // with one doorbell + one fence, then cross-shard transactions (which take
  // their participants' locks themselves).
  void ExecuteBatch(int shard_id, int vcpu, std::vector<QueuedRequest>& batch);
  Status ExecuteLocal(Shard& shard, ThreadId tid, QueuedRequest& item,
                      SimTime batch_start, WorkerMetrics& wm,
                      obs::SlidingWindow& win);
  // Watchdog breach check at a batch boundary. The caller must hold
  // `recorder`'s shard lock (the alert instant lands on that trace).
  void SloCheck(SimTime now, TraceRecorder* recorder);

  ServeOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  BatchDriver driver_;
  std::atomic<std::uint64_t> txn_counter_{0};

  // Hot-path metrics: per-shard blocks plus service-level atomics for the
  // paths outside a batch (admission, direct ExecuteMultiPut, recovery).
  // The registry below is scrape-time only.
  std::vector<WorkerMetrics> worker_metrics_;
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> txns_{0};
  std::atomic<std::uint64_t> txn_redos_{0};
  Histogram queue_depth_;  // sampled at admission
  Histogram txn_ns_;
  MetricsRegistry metrics_;

  // Live observability: request trace ids are allocated at admission from
  // this counter (per-service, 1-based; 0 means untraced everywhere). The
  // windows vector (one per shard) is never resized, so the cached pointer
  // set below stays valid for the watchdog's merges.
  std::atomic<std::uint64_t> trace_counter_{0};
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::vector<obs::SlidingWindow> windows_;
  std::vector<const obs::SlidingWindow*> window_ptrs_;
  std::unique_ptr<obs::SloWatchdog> watchdog_;
};

}  // namespace serve
}  // namespace nearpm

#endif  // SRC_SERVE_SERVICE_H_
