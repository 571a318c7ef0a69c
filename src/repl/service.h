// ReplicatedKvService: the serving tier of src/serve stretched across
// replica groups connected by a simulated network fabric (src/net).
//
// A ShardRouter hash-partitions keys across G replica *groups*; each group
// is K full shards (src/serve/shard.h) -- one primary plus K-1 backups, all
// independent simulated machines with their own Runtime, devices and PM.
// Node ids are dense: node = group * replicas + replica.
//
// Every mutation commits through the durable-coordinator-intent machinery
// the single-copy service already uses, extended with replica shipping:
//
//   1. intent   -- the coordinator group's primary persists a redo intent
//                  carrying the full pair set (failure-atomic, drained);
//   2. replicate-- the record travels to every live backup of the group
//                  over the fabric, by one of two selectable protocols:
//                    * primary-backup (kPrimaryBackup): the framed record is
//                      shipped (kIntentShip); the backup CPU writes it
//                      failure-atomically and acks once it is durable;
//                    * one-sided redo (kOneSidedRedo): the primary writes
//                      the raw record straight into the backup's intent
//                      region (kRedoWrite, payload persisted before magic),
//                      rings a doorbell, and the backup's NDP unit replays
//                      it locally; the ack is sent the instant the record
//                      is durable -- replay stays off the ack critical path;
//   3. apply    -- after every ack, each participant group applies its
//                  slice on the primary and every live backup (the backup
//                  apply is the local NDP replay in redo mode);
//   4. sync     -- cross-group completion exchange over the fabric
//                  (kSyncSignal) through per-participant SyncStateMachines,
//                  exactly like the Invariant-3 path of src/serve;
//   5. retire   -- the intent is invalidated on every replica that holds a
//                  copy, primary last.
//
// Because a crash anywhere after step 1 leaves a durable record on at least
// one replica, recovery reconciles the *union* of surviving intents across
// the whole cluster and re-applies every pair to every replica of its
// owning group (idempotent upserts), so replicas converge bit-for-bit.
// Failover promotes the lowest live replica of a group after replaying its
// surviving records -- deterministic, and safe against duplicate replay.
#ifndef SRC_REPL_SERVICE_H_
#define SRC_REPL_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/obs/flight_recorder.h"
#include "src/prof/request_timeline.h"
#include "src/serve/batch_driver.h"
#include "src/serve/router.h"
#include "src/serve/service.h"
#include "src/serve/shard.h"
#include "src/trace/metrics.h"

namespace nearpm {
namespace repl {

using serve::KvPair;
using serve::QueuedRequest;
using serve::RequestKind;
using serve::ServeRequest;
using serve::ServeResult;
using serve::Shard;
using serve::ShardRouter;

enum class ReplProtocol : std::uint8_t {
  kPrimaryBackup = 0,  // acked log shipping, backup CPU writes the record
  kOneSidedRedo,       // primary writes the backup's PM; NDP replays locally
};

const char* ReplProtocolName(ReplProtocol protocol);
StatusOr<ReplProtocol> ReplProtocolFromName(const std::string& name);

struct ReplOptions {
  int groups = 4;    // replica groups (hash partitions)
  int replicas = 2;  // nodes per group: 1 primary + replicas-1 backups
  ReplProtocol protocol = ReplProtocol::kPrimaryBackup;
  int workers_per_shard = 2;  // virtual CPUs (runtime clocks) per node
  std::size_t queue_capacity = 64;
  int batch_max = 8;
  ExecMode mode = ExecMode::kNdpMultiDelayed;
  bool enforce_ppo = true;
  bool skip_recovery_replay = false;  // fault injection (fuzzer teeth)
  // Fault injection: recovery/failover scrubs surviving intents without
  // re-applying them. Breaks both the all-or-nothing guarantee and replica
  // convergence; the replication fuzzer must catch it.
  bool break_intent_redo = false;
  // Fault injection: one-sided redo records are landed without persisting,
  // so the doorbell (and the ack it implies) races the record -- the NPM007
  // hazard, and a crash can tear an acknowledged record.
  bool skip_redo_persist = false;
  std::uint64_t pm_size = 16ull << 20;
  std::uint32_t table_slots = 512;
  std::uint32_t value_size = 64;
  double request_parse_ns = 50.0;
  // Device geometry shared by every node's shard and by the fabric links
  // (default = seed platform).
  hwmodel::HwConfig hw;
  // Flight-recorder budget in compacted events (0 disables it). Every node
  // recorder plus the fabric recorder feeds the one shared ring, so the
  // black box spans the whole cluster including in-flight messages.
  std::size_t flight_capacity = obs::FlightRecorder::kDefaultCapacity;
};

// Crash injection for the replication fuzzer: where ExecuteReplicatedTxn
// deliberately stops, leaving the replicated protocol mid-flight.
enum class ReplStopPhase : std::uint8_t {
  kNone = 0,        // run to completion
  kAfterIntent,     // primary intent durable, nothing shipped yet
  kMidReplicate,    // backups [0, ordinal] hold the record, acks unprocessed
  kAfterReplicate,  // record durable on every live coordinator replica
  kMidApply,        // participant `ordinal`'s slice puts issued, not drained
  kAfterApply,      // participants [0, ordinal] applied on every replica
  kAfterSync,       // every machine All-Complete, intent not yet retired
};

struct ReplStop {
  ReplStopPhase phase = ReplStopPhase::kNone;
  int ordinal = 0;  // backup index (kMidReplicate) / participant ordinal
};

// Quiesced-state snapshot (call after Stop()/Pump(), not mid-traffic).
struct ReplStats {
  std::uint64_t completed = 0;
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t txns = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;
  std::uint64_t failovers = 0;
  std::uint64_t intent_redos = 0;
  std::uint64_t net_messages = 0;  // fabric frames, every MsgKind
  SimTime makespan_ns = 0;         // slowest node's latest virtual clock
  std::uint64_t request_p50_ns = 0;
  std::uint64_t request_p99_ns = 0;
  std::uint64_t commit_p50_ns = 0;  // replicated commit, intent to retire
  std::uint64_t commit_p99_ns = 0;
  double throughput_ops_per_sec = 0;
};

class ReplicatedKvService {
 public:
  static StatusOr<std::unique_ptr<ReplicatedKvService>> Create(
      const ReplOptions& options);
  ~ReplicatedKvService();

  ReplicatedKvService(const ReplicatedKvService&) = delete;
  ReplicatedKvService& operator=(const ReplicatedKvService&) = delete;

  const ReplOptions& options() const { return options_; }
  const ShardRouter& router() const { return router_; }
  Shard& node(int n) { return *nodes_[n]; }
  Shard& node(int group, int replica) {
    return *nodes_[router_.NodeFor(group, replica)];
  }
  int num_groups() const { return options_.groups; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  bool alive(int n) const { return alive_[n]; }
  net::Fabric& fabric() { return *fabric_; }
  TraceRecorder& fabric_recorder() { return *fabric_recorder_; }
  MetricsRegistry& metrics() { return metrics_; }
  // The cluster-wide flight recorder (null when flight_capacity == 0).
  obs::FlightRecorder* flight() { return flight_.get(); }

  // Admission: routes the request to its coordinator group's queue. A full
  // queue rejects with ResourceExhausted (caller-visible backpressure).
  StatusOr<std::future<ServeResult>> Submit(ServeRequest request);

  // ---- Threaded mode --------------------------------------------------------
  // Both modes run on the shared serve::BatchDriver: one ring per group and
  // round-robin virtual CPUs, so pre-filled rings give the same simulated
  // results either way.
  void Start();  // spawns one OS thread per group
  void Stop();   // closes queues, drains and joins every group thread

  // ---- Deterministic mode ---------------------------------------------------
  // Drains every group queue inline. Returns requests executed. Must not
  // run concurrently with Start().
  std::uint64_t Pump();

  // The replicated commit (also the path every queued kPut/kMultiPut takes;
  // a single put is a 1-pair transaction, so it rides the same intent +
  // replicate + apply + retire machinery and replicas never diverge on it).
  // `stop` abandons the protocol mid-flight for crash injection; the
  // transaction then reports Unavailable.
  // `trace_id` tags every replica's and the fabric's events with the
  // originating request, so the cross-node timeline can be reconstructed.
  Status ExecuteReplicatedTxn(const std::vector<KvPair>& pairs,
                              const ReplStop& stop = {},
                              std::uint64_t trace_id = 0);

  // Read from the owning group's current primary (Unavailable when it is
  // down and no failover has promoted a backup yet).
  StatusOr<std::vector<std::uint8_t>> Read(std::uint64_t key);

  // ---- Failure, failover and recovery ---------------------------------------
  // Power-fails the listed nodes (plans[i] drives nodes[i]); survivors keep
  // running. Queued requests of groups whose routed primary died fail
  // Unavailable.
  void CrashReplicas(const std::vector<int>& nodes,
                     const std::vector<CrashPlan>& plans);
  // Deterministic failover: promotes the lowest live replica of `group`
  // after replaying its surviving intent records (idempotent redo from the
  // durable log), then re-routes the group to it.
  Status Failover(int group);
  // Recovers every crashed node (mechanism recovery + index rebuild), then
  // reconciles: the union of surviving intents across the whole cluster is
  // re-applied to every replica of each pair's owning group and retired.
  // All replicas of a group are bit-identical afterwards.
  Status RecoverAll();

  // PPO audit over every node's trace.
  std::uint64_t PpoViolations(std::string* report = nullptr);

  // Publishes per-node resource duty cycles (repl_duty{node="3",...}) and
  // the fabric's per-link duty cycles (node="fabric", resource="network
  // fabric / link N"), then folds the fabric's message/byte counters into
  // metrics(). Call once, quiesced.
  void ExportResourceMetrics();

  // Bit-exact live-table image of one replica (the divergence oracle
  // compares all replicas of a group).
  StatusOr<std::vector<KvPair>> DumpReplica(int group, int replica);

  // Labeled event-stream snapshots of every node recorder ("node<N>") plus
  // the fabric ("fabric"): the input BuildRequestTimeline wants. Call
  // quiesced (each node snapshot takes that node's lock).
  std::vector<TimelineSource> TimelineSources();

  ReplStats Stats() const;

 private:
  explicit ReplicatedKvService(const ReplOptions& options);

  // Executes one batch in place on the primary's virtual CPU `vcpu`: the
  // gets under the primary's lock with one doorbell + one fence, then each
  // write as a replicated commit (which takes its own locks).
  void ExecuteBatch(int group, int vcpu, std::vector<QueuedRequest>& batch);

  // Live replica indices of a group, ascending (primary not necessarily
  // first -- use router_.PrimaryReplica).
  std::vector<int> LiveReplicas(int group) const;
  // Replays `node`'s surviving intents onto every live replica of each
  // pair's owning group, then retires them on `node`. The idempotent-redo
  // core shared by Failover and RecoverAll.
  Status RedoNodeIntents(int node);

  std::uint64_t CounterValue(const std::string& name) const;

  ReplOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> nodes_;  // index = node id
  std::vector<bool> alive_;
  std::unique_ptr<TraceRecorder> fabric_recorder_;
  std::unique_ptr<net::Fabric> fabric_;
  serve::BatchDriver driver_;
  std::atomic<std::uint64_t> txn_counter_{0};
  MetricsRegistry metrics_;

  // Request trace ids, allocated at admission (1-based; 0 = untraced).
  std::atomic<std::uint64_t> trace_counter_{0};
  std::unique_ptr<obs::FlightRecorder> flight_;

  // Completion-path metric handles resolved once in the constructor (the
  // registry guarantees reference stability), so the batch and commit loops
  // bump atomics instead of doing string-keyed map lookups per request.
  std::atomic<std::uint64_t>* ctr_enqueued_ = nullptr;
  std::atomic<std::uint64_t>* ctr_rejected_ = nullptr;
  std::atomic<std::uint64_t>* ctr_completed_ = nullptr;
  std::atomic<std::uint64_t>* ctr_gets_ = nullptr;
  std::atomic<std::uint64_t>* ctr_puts_ = nullptr;
  std::atomic<std::uint64_t>* ctr_txns_ = nullptr;
  std::atomic<std::uint64_t>* ctr_batches_ = nullptr;
  std::atomic<std::uint64_t>* ctr_commits_ = nullptr;
  Histogram* request_ns_ = nullptr;
  Histogram* commit_ns_ = nullptr;
};

}  // namespace repl
}  // namespace nearpm

#endif  // SRC_REPL_SERVICE_H_
