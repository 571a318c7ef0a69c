#include "src/serve/service.h"

#include <algorithm>
#include <utility>

#include "src/ndp/sync_machine.h"
#include "src/prof/profile.h"
#include "src/trace/ppo_checker.h"

namespace nearpm {
namespace serve {

KvService::KvService(const ServeOptions& options)
    : options_(options),
      router_(options.shards),
      driver_(options.shards, options.workers_per_shard,
              options.queue_capacity, options.batch_max),
      worker_metrics_(static_cast<std::size_t>(options.shards)) {}

KvService::~KvService() { Stop(); }

StatusOr<std::unique_ptr<KvService>> KvService::Create(
    const ServeOptions& options) {
  if (options.shards < 1) {
    return InvalidArgument("service needs at least one shard");
  }
  if (options.workers_per_shard < 1 || options.batch_max < 1 ||
      options.queue_capacity < 1) {
    return InvalidArgument(
        "workers, batch_max and queue_capacity must be >= 1");
  }
  if (options.slo_enabled) {
    NEARPM_RETURN_IF_ERROR(options.slo.Validate());
  }
  auto service = std::unique_ptr<KvService>(new KvService(options));
  ShardOptions so;
  so.mode = options.mode;
  so.enforce_ppo = options.enforce_ppo;
  so.skip_recovery_replay = options.skip_recovery_replay;
  so.pm_size = options.pm_size;
  so.table_slots = options.table_slots;
  so.value_size = options.value_size;
  so.workers = options.workers_per_shard;
  so.hw = options.hw;
  for (int s = 0; s < options.shards; ++s) {
    auto shard = Shard::Create(so, s);
    if (!shard.ok()) {
      return shard.status();
    }
    service->shards_.push_back(std::move(*shard));
  }

  // Live observability: one flight ring fed by every shard recorder, one
  // sliding window per shard -- mirroring the WorkerMetrics layout so the
  // hot path touches only writer-private state -- and the optional watchdog
  // over the merged view.
  if (options.flight_capacity > 0) {
    service->flight_ =
        std::make_unique<obs::FlightRecorder>(options.flight_capacity);
    for (int s = 0; s < options.shards; ++s) {
      service->shards_[s]->recorder().AttachSink(
          service->flight_->RegisterSource("shard" + std::to_string(s)));
    }
  }
  obs::WindowOptions wo;
  wo.window_ns = static_cast<SimTime>(options.slo.window_ns);
  wo.slow_k = options.slo.slow_k;
  service->windows_.reserve(static_cast<std::size_t>(options.shards));
  for (int s = 0; s < options.shards; ++s) {
    service->windows_.emplace_back(wo);
  }
  service->window_ptrs_.reserve(service->windows_.size());
  for (const obs::SlidingWindow& win : service->windows_) {
    service->window_ptrs_.push_back(&win);
  }
  if (options.slo_enabled) {
    obs::WatchdogOptions wd;
    wd.spec = options.slo;
    wd.flight = service->flight_.get();
    wd.dump_path = options.slo_dump_path;
    service->watchdog_ = std::make_unique<obs::SloWatchdog>(wd);
  }
  return service;
}

StatusOr<std::future<ServeResult>> KvService::Submit(ServeRequest request) {
  int shard_id;
  if (request.kind == RequestKind::kMultiPut) {
    if (request.pairs.empty()) {
      return InvalidArgument("MultiPut carries no pairs");
    }
    std::vector<std::uint64_t> keys;
    keys.reserve(request.pairs.size());
    for (const KvPair& pair : request.pairs) {
      keys.push_back(pair.key);
    }
    shard_id = router_.ParticipantsFor(keys).front();  // coordinator
  } else {
    shard_id = router_.ShardFor(request.key);
  }

  // Cheap pre-check before paying for the promise/future pair: a full ring
  // rejects most attempts here, without allocating the completion channel
  // the push would only throw away. TryPush below stays authoritative.
  MpscRing<QueuedRequest>& queue = driver_.ring(shard_id);
  const std::size_t depth = queue.size();
  if (depth >= queue.capacity()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return ResourceExhausted("shard " + std::to_string(shard_id) +
                             " queue full (" +
                             std::to_string(queue.capacity()) +
                             " requests), retry after draining");
  }
  QueuedRequest item;
  item.request = std::move(request);
  // The request's identity for the rest of its life: stamped on every trace
  // event it produces, on any node (a rejected push burns an id; ids only
  // need to be unique, not dense).
  item.trace_id = trace_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::future<ServeResult> done = item.done.get_future();
  if (!queue.TryPush(item)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return ResourceExhausted("shard " + std::to_string(shard_id) +
                             " queue full (" +
                             std::to_string(queue.capacity()) +
                             " requests), retry after draining");
  }
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  queue_depth_.Add(depth);
  return done;
}

void KvService::Start() {
  driver_.Start([this](int s, int vcpu, std::vector<QueuedRequest>& batch) {
    ExecuteBatch(s, vcpu, batch);
  });
}

void KvService::Stop() { driver_.Stop(); }

std::uint64_t KvService::Pump() {
  return driver_.Pump(
      [this](int s, int vcpu, std::vector<QueuedRequest>& batch) {
        ExecuteBatch(s, vcpu, batch);
      });
}

Status KvService::ExecuteLocal(Shard& shard, ThreadId tid, QueuedRequest& item,
                               SimTime batch_start, WorkerMetrics& wm,
                               obs::SlidingWindow& win) {
  Runtime& rt = shard.rt();
  const SimTime start = rt.Now(tid);
  rt.Compute(tid, options_.request_parse_ns);

  // Every event the shard records while this request executes -- queue,
  // device pipeline, PM writes -- inherits its trace id (the caller holds
  // shard.mu(), which serializes all recorder access).
  TraceIdScope trace_scope(&shard.recorder(), item.trace_id);

  ServeResult result;
  result.shard = shard.id();
  result.trace_id = item.trace_id;
  switch (item.request.kind) {
    case RequestKind::kPut:
      result.status = shard.Put(tid, item.request.key, item.request.value);
      wm.puts.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestKind::kGet: {
      auto value = shard.Get(tid, item.request.key);
      if (value.ok()) {
        result.value = std::move(*value);
      }
      result.status = value.status();
      wm.gets.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case RequestKind::kMultiPut:
      result.status = Internal("MultiPut routed to the local batch path");
      break;
  }

  const SimTime end = rt.Now(tid);
  NEARPM_TRACE_SPAN(&shard.recorder(), .phase = TracePhase::kServeRequest,
                    .pid = kTraceServePid,
                    .tid = static_cast<std::uint32_t>(tid), .ts = start,
                    .dur = end > start ? end - start : 1,
                    .seq = item.request.key);
  result.latency_ns = end - batch_start;
  wm.request_ns.Add(result.latency_ns);
  wm.completed.fetch_add(1, std::memory_order_relaxed);
  Status status = result.status;
  win.RecordLatency(end, result.latency_ns, !status.ok(), item.trace_id);
  item.done.set_value(std::move(result));
  return status;
}

void KvService::ExecuteBatch(int shard_id, int vcpu,
                             std::vector<QueuedRequest>& batch) {
  Shard& shard = *shards_[shard_id];
  const ThreadId tid = shard.WorkerTid(vcpu);
  WorkerMetrics& wm = worker_metrics_[static_cast<std::size_t>(shard_id)];
  obs::SlidingWindow& win = windows_[static_cast<std::size_t>(shard_id)];

  // Split in place: locals run under one lock/doorbell/fence, transactions
  // after (they take their participants' locks themselves). No per-batch
  // scratch vectors -- this runs once per batch_max requests, but the
  // allocations still showed up at ring speed.
  std::size_t locals = 0;
  for (const QueuedRequest& item : batch) {
    locals += item.request.kind != RequestKind::kMultiPut ? 1u : 0u;
  }

  if (locals > 0) {
    std::lock_guard lock(shard.mu());
    Runtime& rt = shard.rt();
    const SimTime batch_start = rt.Now(tid);
    // The amortization: one submission doorbell and one fence cover the
    // whole batch (batch_max = 1 degenerates to per-request costs).
    rt.Compute(tid, rt.options().hw.cost.cmd_post_ns);
    NEARPM_TRACE_EVENT(&shard.recorder(), .phase = TracePhase::kServeEnqueue,
                       .pid = kTraceServePid,
                       .tid = static_cast<std::uint32_t>(tid),
                       .ts = batch_start, .arg0 = locals);
    // Residual backlog after this batch was picked up: the shard-queue
    // occupancy series the profiler and Perfetto counter track render.
    const std::uint64_t backlog = driver_.ring(shard_id).size();
    NEARPM_TRACE_EVENT(&shard.recorder(),
                       .phase = TracePhase::kServeQueueDepth,
                       .pid = kTraceServePid,
                       .tid = static_cast<std::uint32_t>(tid),
                       .ts = batch_start, .arg0 = backlog);
    win.RecordDepth(batch_start, backlog);
    for (QueuedRequest& item : batch) {
      if (item.request.kind == RequestKind::kMultiPut) {
        continue;
      }
      (void)ExecuteLocal(shard, tid, item, batch_start, wm, win);
    }
    rt.Fence(tid);
    const SimTime batch_end = rt.Now(tid);
    NEARPM_TRACE_SPAN(&shard.recorder(), .phase = TracePhase::kServeBatch,
                      .pid = kTraceServePid,
                      .tid = static_cast<std::uint32_t>(tid), .ts = batch_start,
                      .dur = batch_end > batch_start ? batch_end - batch_start
                                                     : 1,
                      .arg0 = locals);
    wm.batches.fetch_add(1, std::memory_order_relaxed);
    wm.batch_size.Add(locals);
    // Batch boundary = SLO evaluation point; still under the shard lock, so
    // a breach's kSloAlert instant can land on this shard's trace.
    SloCheck(batch_end, &shard.recorder());
  }

  if (locals == batch.size()) {
    return;
  }
  SimTime txn_last_end = 0;
  for (QueuedRequest& item : batch) {
    if (item.request.kind != RequestKind::kMultiPut) {
      continue;
    }
    // The coordinator is this shard (Submit routed the request here), so
    // its clock brackets the transaction for the window's latency sample.
    // Clock reads take the shard lock: another shard's transaction touching
    // this one advances the same TxnTid clock concurrently.
    const ThreadId coord_tid = shard.TxnTid();
    SimTime txn_start;
    {
      std::lock_guard lock(shard.mu());
      txn_start = shard.Now(coord_tid);
    }
    ServeResult result;
    result.shard = shard_id;
    result.trace_id = item.trace_id;
    result.status = ExecuteMultiPut(item.request.pairs, {}, item.trace_id);
    SimTime txn_end;
    {
      std::lock_guard lock(shard.mu());
      txn_end = shard.Now(coord_tid);
    }
    result.latency_ns = txn_end > txn_start ? txn_end - txn_start : 0;
    txn_last_end = txn_end;
    wm.completed.fetch_add(1, std::memory_order_relaxed);
    win.RecordLatency(txn_end, result.latency_ns, !result.status.ok(),
                      item.trace_id);
    item.done.set_value(std::move(result));
  }
  if (watchdog_ != nullptr) {
    std::lock_guard lock(shard.mu());
    SloCheck(txn_last_end, &shard.recorder());
  }
}

void KvService::SloCheck(SimTime now, TraceRecorder* recorder) {
  if (watchdog_ == nullptr) {
    return;
  }
  const std::uint64_t stalled = rejected_.load(std::memory_order_relaxed);
  const std::uint64_t attempted =
      stalled + enqueued_.load(std::memory_order_relaxed);
  watchdog_->MaybeCheck(now, window_ptrs_, stalled, attempted, recorder);
}

obs::WindowStats KvService::WindowSnapshot(SimTime now) const {
  return obs::SlidingWindow::Merge(window_ptrs_, now);
}

bool KvService::DumpFlightRecord(std::ostream& os) const {
  if (flight_ == nullptr) {
    return false;
  }
  obs::WriteFlightDump(os, *flight_, nullptr);
  return true;
}

std::vector<TimelineSource> KvService::TimelineSources() {
  std::vector<TimelineSource> sources;
  sources.reserve(shards_.size());
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu());
    sources.push_back({"shard" + std::to_string(shard->id()),
                       shard->recorder().Snapshot()});
  }
  return sources;
}

Status KvService::ExecuteMultiPut(const std::vector<KvPair>& pairs,
                                  const TxnStop& stop,
                                  std::uint64_t trace_id) {
  if (pairs.empty() || pairs.size() > Shard::kMaxTxnPairs) {
    return InvalidArgument("MultiPut must carry 1.." +
                           std::to_string(Shard::kMaxTxnPairs) + " pairs");
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(pairs.size());
  for (const KvPair& pair : pairs) {
    keys.push_back(pair.key);
  }
  const std::vector<int> participants = router_.ParticipantsFor(keys);
  const int k = static_cast<int>(participants.size());

  // Participant locks in ascending shard order: the only multi-lock path in
  // the service, so lock ordering is global and deadlock-free.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(participants.size());
  for (int p : participants) {
    locks.emplace_back(shards_[p]->mu());
  }

  Shard& coord = *shards_[participants.front()];
  const ThreadId coord_tid = coord.TxnTid();
  const std::uint64_t txn_id = ++txn_counter_;
  const SimTime txn_start = coord.Now(coord_tid);

  // Tag every participant's events with the originating request while their
  // locks are held (set_active_trace is recorder-shared state, serialized by
  // shard.mu()). Restores to 0 on every exit path, including the crash
  // injections and error returns above each phase.
  struct TxnTraceScopes {
    std::vector<TraceRecorder*> recorders;
    ~TxnTraceScopes() {
      for (TraceRecorder* r : recorders) {
        r->set_active_trace(0);
      }
    }
  } trace_scopes;
  if (trace_id != 0) {
    trace_scopes.recorders.reserve(participants.size());
    for (int p : participants) {
      TraceRecorder* r = &shards_[p]->recorder();
      r->set_active_trace(trace_id);
      trace_scopes.recorders.push_back(r);
    }
  }

  // Phase 1 -- durable intent on the coordinator. Drained before any slice
  // applies: after this point a crash anywhere leads recovery to redo the
  // whole transaction; before it, to none of it. All-or-nothing either way.
  auto intent_slot = coord.WriteIntent(coord_tid, txn_id, pairs);
  if (!intent_slot.ok()) {
    return intent_slot.status();
  }
  coord.Drain(coord_tid);
  if (stop.phase == TxnStopPhase::kAfterIntent) {
    return Unavailable("txn stopped by crash injection: after intent");
  }

  // Phase 2 -- duplicate the command to every participant's sync machine
  // (Figure 12: each device tracks local + remote completion).
  std::vector<SyncStateMachine> machines;
  machines.reserve(participants.size());
  for (int i = 0; i < k; ++i) {
    machines.emplace_back(k);
    NEARPM_RETURN_IF_ERROR(machines.back().ReceiveCommand());
  }

  // Phase 3 -- each participant applies its slice failure-atomically, drains
  // it durable and signals local completion.
  for (int ordinal = 0; ordinal < k; ++ordinal) {
    Shard& shard = *shards_[participants[ordinal]];
    const ThreadId tid = shard.TxnTid();
    for (const KvPair& pair : pairs) {
      if (router_.ShardFor(pair.key) != shard.id()) {
        continue;
      }
      NEARPM_RETURN_IF_ERROR(shard.Put(tid, pair.key, pair.value));
    }
    if (stop.phase == TxnStopPhase::kMidApply &&
        stop.apply_ordinal == ordinal) {
      // Puts issued but neither drained nor signalled: the crash model sees
      // the slice's device requests still in flight.
      return Unavailable("txn stopped by crash injection: mid apply " +
                         std::to_string(ordinal));
    }
    shard.Drain(tid);
    NEARPM_RETURN_IF_ERROR(machines[ordinal].ReceiveLocalComplete());
    if (stop.phase == TxnStopPhase::kAfterApply &&
        stop.apply_ordinal == ordinal) {
      return Unavailable("txn stopped by crash injection: after apply " +
                         std::to_string(ordinal));
    }
  }

  // Phase 4 -- completion exchange: every participant learns every remote
  // completion, and all clocks rendezvous at the slowest participant plus
  // one remote status exchange.
  for (int ordinal = 0; ordinal < k; ++ordinal) {
    for (int peer = 0; peer < k; ++peer) {
      if (peer == ordinal) {
        continue;
      }
      const DeviceId remote_index = peer < ordinal ? peer : peer - 1;
      NEARPM_RETURN_IF_ERROR(
          machines[ordinal].ReceiveRemoteComplete(remote_index));
    }
  }
  SimTime rendezvous = 0;
  for (int p : participants) {
    rendezvous = std::max(rendezvous, shards_[p]->Now(shards_[p]->TxnTid()));
  }
  rendezvous += coord.rt().options().hw.cost.ndp_remote_status_ns;
  for (int p : participants) {
    shards_[p]->rt().WaitUntil(shards_[p]->TxnTid(), rendezvous);
  }

  // Invariant 3: the retire write below is ordered after the cross-shard
  // synchronization, so it must not issue until every participant is back
  // in All-Complete.
  for (int ordinal = 0; ordinal < k; ++ordinal) {
    if (!machines[ordinal].AllComplete()) {
      return Internal("participant " + std::to_string(ordinal) +
                      " not All-Complete before intent retire");
    }
  }
  if (stop.phase == TxnStopPhase::kAfterSync) {
    return Unavailable("txn stopped by crash injection: after sync");
  }

  // Phase 5 -- retire the intent (the write ordered after the sync).
  NEARPM_RETURN_IF_ERROR(coord.InvalidateIntent(coord_tid, *intent_slot));
  coord.Drain(coord_tid);

  const SimTime txn_end = coord.Now(coord_tid);
  NEARPM_TRACE_SPAN(&coord.recorder(), .phase = TracePhase::kServeTxn,
                    .pid = kTraceServePid,
                    .tid = static_cast<std::uint32_t>(coord_tid),
                    .ts = txn_start,
                    .dur = txn_end > txn_start ? txn_end - txn_start : 1,
                    .seq = txn_id, .arg0 = static_cast<std::uint64_t>(k),
                    .trace = trace_id);
  txns_.fetch_add(1, std::memory_order_relaxed);
  txn_ns_.Add(txn_end - txn_start);
  return Status::Ok();
}

void KvService::CrashAll(const std::vector<CrashPlan>& plans) {
  for (int s = 0; s < num_shards(); ++s) {
    std::lock_guard lock(shards_[s]->mu());
    shards_[s]->Crash(s < static_cast<int>(plans.size()) ? plans[s]
                                                         : CrashPlan{});
  }
  // The power failure also loses every admitted-but-unexecuted request.
  for (int s = 0; s < num_shards(); ++s) {
    driver_.FailQueued(s, Unavailable("request lost in power failure"));
  }
}

Status KvService::RecoverAll() {
  // Quiesced path (no shard threads running): take every shard lock up
  // front.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) {
    locks.emplace_back(shard->mu());
  }
  for (auto& shard : shards_) {
    NEARPM_RETURN_IF_ERROR(shard->Recover());
  }
  // Cross-shard intent redo: any transaction whose intent survived was past
  // its durability point, so recovery re-applies every pair (idempotent
  // upsert) before retiring the intent -- all-or-nothing across shards.
  for (auto& coord : shards_) {
    const ThreadId coord_tid = coord->TxnTid();
    auto intents = coord->ScanIntents(coord_tid);
    if (!intents.ok()) {
      return intents.status();
    }
    for (const IntentRecord& intent : *intents) {
      if (!options_.break_txn_redo) {
        for (const KvPair& pair : intent.pairs) {
          Shard& owner = *shards_[router_.ShardFor(pair.key)];
          NEARPM_RETURN_IF_ERROR(
              owner.Put(owner.TxnTid(), pair.key, pair.value));
          owner.Drain(owner.TxnTid());
        }
      }
      NEARPM_RETURN_IF_ERROR(coord->InvalidateIntent(coord_tid, intent.slot));
      coord->Drain(coord_tid);
      txn_redos_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::Ok();
}

std::uint64_t KvService::PpoViolations(std::string* report) {
  std::uint64_t total = 0;
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu());
    const auto violations = PpoChecker{}.Check(shard->recorder());
    total += violations.size();
    if (report != nullptr && !violations.empty()) {
      *report += "shard " + std::to_string(shard->id()) + ":\n" +
                 PpoChecker::Report(violations);
    }
  }
  return total;
}

void KvService::ExportResourceMetrics() {
  PublishMetrics();
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu());
    const Profile profile = BuildProfile(shard->recorder());
    nearpm::ExportResourceMetrics(
        profile, &metrics_, "serve_",
        "shard=\"" + EscapeLabelValue(std::to_string(shard->id())) + "\",");
  }
}

ServeStats KvService::Stats() const {
  // One pass over the per-shard blocks; no registry lookups.
  ServeStats stats;
  Histogram request_ns;
  for (const WorkerMetrics& wm : worker_metrics_) {
    stats.completed += wm.completed.load(std::memory_order_relaxed);
    stats.puts += wm.puts.load(std::memory_order_relaxed);
    stats.gets += wm.gets.load(std::memory_order_relaxed);
    stats.batches += wm.batches.load(std::memory_order_relaxed);
    request_ns.MergeFrom(wm.request_ns);
  }
  stats.txns = txns_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    stats.makespan_ns = std::max(stats.makespan_ns, shard->MakespanNs());
  }
  stats.request_p50_ns = request_ns.Percentile(0.5);
  stats.request_p99_ns = request_ns.Percentile(0.99);
  if (stats.makespan_ns > 0) {
    stats.throughput_ops_per_sec = static_cast<double>(stats.completed) /
                                   (static_cast<double>(stats.makespan_ns) /
                                    1e9);
  }
  return stats;
}

void KvService::PublishMetrics() {
  // Merge the shard blocks, then *store* the totals under the historical
  // registry names: publishing is idempotent, so scrapes never double-count.
  std::uint64_t completed = 0;
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t batches = 0;
  Histogram request_ns;
  Histogram batch_size;
  for (const WorkerMetrics& wm : worker_metrics_) {
    completed += wm.completed.load(std::memory_order_relaxed);
    puts += wm.puts.load(std::memory_order_relaxed);
    gets += wm.gets.load(std::memory_order_relaxed);
    batches += wm.batches.load(std::memory_order_relaxed);
    request_ns.MergeFrom(wm.request_ns);
    batch_size.MergeFrom(wm.batch_size);
  }
  metrics_.Counter("serve_completed").store(completed);
  metrics_.Counter("serve_puts").store(puts);
  metrics_.Counter("serve_gets").store(gets);
  metrics_.Counter("serve_batches").store(batches);
  metrics_.Counter("serve_txns").store(txns_.load(std::memory_order_relaxed));
  metrics_.Counter("serve_txn_redos")
      .store(txn_redos_.load(std::memory_order_relaxed));
  metrics_.Counter("serve_rejected")
      .store(rejected_.load(std::memory_order_relaxed));
  metrics_.Counter("serve_enqueued")
      .store(enqueued_.load(std::memory_order_relaxed));
  metrics_.Latency("serve_request_ns") = request_ns;
  metrics_.Latency("serve_batch_size") = batch_size;
  metrics_.Latency("serve_queue_depth") = queue_depth_;
  metrics_.Latency("serve_txn_ns") = txn_ns_;

  // The live view: sliding-window aggregates as of the slowest shard's
  // clock, published as gauges (they describe "now", not "ever").
  SimTime now = 0;
  for (const auto& shard : shards_) {
    now = std::max(now, shard->MakespanNs());
  }
  const obs::WindowStats win = WindowSnapshot(now);
  metrics_.SetGauge("serve_window_qps", win.Qps());
  metrics_.SetGauge("serve_window_error_rate", win.ErrorRate());
  metrics_.SetGauge("serve_window_count", static_cast<double>(win.count));
  metrics_.SetGauge("serve_window_p50_ns",
                    static_cast<double>(win.latency.Percentile(0.5)));
  metrics_.SetGauge("serve_window_p99_ns",
                    static_cast<double>(win.latency.Percentile(0.99)));
  metrics_.SetGauge("serve_window_depth_max",
                    static_cast<double>(win.depth_max));
  if (watchdog_ != nullptr) {
    metrics_.Counter("serve_slo_checks").store(watchdog_->checks());
    metrics_.Counter("serve_slo_alerts").store(watchdog_->alert_count());
  }
}

}  // namespace serve
}  // namespace nearpm
