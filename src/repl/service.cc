#include "src/repl/service.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "src/ndp/sync_machine.h"
#include "src/prof/profile.h"
#include "src/trace/ppo_checker.h"

namespace nearpm {
namespace repl {
namespace {

// Control-message payloads on the fabric (acks, doorbells, sync signals,
// retires, promotions): a header-only frame.
constexpr std::size_t kCtrlBytes = 32;

}  // namespace

const char* ReplProtocolName(ReplProtocol protocol) {
  switch (protocol) {
    case ReplProtocol::kPrimaryBackup:
      return "pb";
    case ReplProtocol::kOneSidedRedo:
      return "redo";
  }
  return "?";
}

StatusOr<ReplProtocol> ReplProtocolFromName(const std::string& name) {
  if (name == "pb") return ReplProtocol::kPrimaryBackup;
  if (name == "redo") return ReplProtocol::kOneSidedRedo;
  return InvalidArgument("unknown replication protocol \"" + name +
                         "\" (want pb|redo)");
}

ReplicatedKvService::ReplicatedKvService(const ReplOptions& options)
    : options_(options),
      router_(options.groups, options.replicas),
      driver_(options.groups, options.workers_per_shard,
              options.queue_capacity, options.batch_max) {
  // Resolve the completion-path metric handles once; the registry's map
  // nodes are stable, so these stay valid for the service's life.
  ctr_enqueued_ = &metrics_.Counter("repl_enqueued");
  ctr_rejected_ = &metrics_.Counter("repl_rejected");
  ctr_completed_ = &metrics_.Counter("repl_completed");
  ctr_gets_ = &metrics_.Counter("repl_gets");
  ctr_puts_ = &metrics_.Counter("repl_puts");
  ctr_txns_ = &metrics_.Counter("repl_txns");
  ctr_batches_ = &metrics_.Counter("repl_batches");
  ctr_commits_ = &metrics_.Counter("repl_commits");
  request_ns_ = &metrics_.Latency("repl_request_ns");
  commit_ns_ = &metrics_.Latency("repl_commit_ns");
}

ReplicatedKvService::~ReplicatedKvService() { Stop(); }

StatusOr<std::unique_ptr<ReplicatedKvService>> ReplicatedKvService::Create(
    const ReplOptions& options) {
  if (options.groups < 1 || options.replicas < 1) {
    return InvalidArgument("need at least one group and one replica");
  }
  if (options.workers_per_shard < 1 || options.batch_max < 1 ||
      options.queue_capacity < 1) {
    return InvalidArgument(
        "workers, batch_max and queue_capacity must be >= 1");
  }
  auto service =
      std::unique_ptr<ReplicatedKvService>(new ReplicatedKvService(options));

  serve::ShardOptions so;
  so.mode = options.mode;
  so.enforce_ppo = options.enforce_ppo;
  so.skip_recovery_replay = options.skip_recovery_replay;
  so.pm_size = options.pm_size;
  so.table_slots = options.table_slots;
  so.value_size = options.value_size;
  so.workers = options.workers_per_shard;
  so.hw = options.hw;
  const int nodes = options.groups * options.replicas;
  for (int n = 0; n < nodes; ++n) {
    auto shard = Shard::Create(so, n);
    if (!shard.ok()) {
      return shard.status();
    }
    service->nodes_.push_back(std::move(*shard));
  }
  service->alive_.assign(nodes, true);

  service->fabric_recorder_ = std::make_unique<TraceRecorder>();
  net::FabricOptions fo;
  fo.nodes = nodes;
  fo.hw = options.hw;
  fo.trace = service->fabric_recorder_.get();
  service->fabric_ = std::make_unique<net::Fabric>(fo);

  // One cluster-wide flight ring: every node's recorder plus the fabric's
  // feeds it, so the black box covers in-flight messages too.
  if (options.flight_capacity > 0) {
    service->flight_ =
        std::make_unique<obs::FlightRecorder>(options.flight_capacity);
    for (int n = 0; n < nodes; ++n) {
      service->nodes_[n]->recorder().AttachSink(
          service->flight_->RegisterSource("node" + std::to_string(n)));
    }
    service->fabric_recorder_->AttachSink(
        service->flight_->RegisterSource("fabric"));
  }
  return service;
}

StatusOr<std::future<ServeResult>> ReplicatedKvService::Submit(
    ServeRequest request) {
  int group;
  if (request.kind == RequestKind::kMultiPut) {
    if (request.pairs.empty()) {
      return InvalidArgument("MultiPut carries no pairs");
    }
    std::vector<std::uint64_t> keys;
    keys.reserve(request.pairs.size());
    for (const KvPair& pair : request.pairs) {
      keys.push_back(pair.key);
    }
    group = router_.ParticipantsFor(keys).front();  // coordinator group
  } else {
    group = router_.ShardFor(request.key);
  }

  QueuedRequest item;
  item.request = std::move(request);
  // The request's identity for the rest of its life, across every replica
  // and fabric message it touches.
  item.trace_id = trace_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::future<ServeResult> done = item.done.get_future();
  if (!driver_.ring(group).TryPush(item)) {
    ctr_rejected_->fetch_add(1, std::memory_order_relaxed);
    return ResourceExhausted("group " + std::to_string(group) +
                             " queue full (" +
                             std::to_string(options_.queue_capacity) +
                             " requests), retry after draining");
  }
  ctr_enqueued_->fetch_add(1, std::memory_order_relaxed);
  return done;
}

void ReplicatedKvService::Start() {
  driver_.Start([this](int g, int vcpu, std::vector<QueuedRequest>& batch) {
    ExecuteBatch(g, vcpu, batch);
  });
}

void ReplicatedKvService::Stop() { driver_.Stop(); }

std::uint64_t ReplicatedKvService::Pump() {
  return driver_.Pump(
      [this](int g, int vcpu, std::vector<QueuedRequest>& batch) {
        ExecuteBatch(g, vcpu, batch);
      });
}

void ReplicatedKvService::ExecuteBatch(int group, int vcpu,
                                       std::vector<QueuedRequest>& batch) {
  // Split in place: reads serve from the group's routed primary, every
  // mutation goes through the replicated commit (which takes its own locks).
  std::size_t gets = 0;
  for (const QueuedRequest& item : batch) {
    gets += item.request.kind == RequestKind::kGet ? 1u : 0u;
  }

  const int primary = router_.PrimaryNodeFor(group);
  if (gets > 0 && !alive_[primary]) {
    for (QueuedRequest& item : batch) {
      if (item.request.kind == RequestKind::kGet) {
        item.done.set_value(ServeResult{.status = Unavailable(
            "group " + std::to_string(group) + " primary down")});
      }
    }
  } else if (gets > 0) {
    Shard& shard = *nodes_[primary];
    std::lock_guard lock(shard.mu());
    const ThreadId tid = shard.WorkerTid(vcpu);
    Runtime& rt = shard.rt();
    const SimTime batch_start = rt.Now(tid);
    rt.Compute(tid, rt.options().hw.cost.cmd_post_ns);
    for (QueuedRequest& item : batch) {
      if (item.request.kind != RequestKind::kGet) {
        continue;
      }
      rt.Compute(tid, options_.request_parse_ns);
      const SimTime start = rt.Now(tid);
      // Device events the read produces inherit the request's id (the
      // shard lock serializes recorder access).
      TraceIdScope trace_scope(&shard.recorder(), item.trace_id);
      ServeResult result;
      result.shard = group;
      result.trace_id = item.trace_id;
      auto value = shard.Get(tid, item.request.key);
      if (value.ok()) {
        result.value = std::move(*value);
      }
      result.status = value.status();
      const SimTime end = rt.Now(tid);
      NEARPM_TRACE_SPAN(&shard.recorder(), .phase = TracePhase::kServeRequest,
                        .pid = kTraceServePid,
                        .tid = static_cast<std::uint32_t>(tid), .ts = start,
                        .dur = end > start ? end - start : 1,
                        .seq = item.request.key);
      result.latency_ns = end - batch_start;
      request_ns_->Add(result.latency_ns);
      ctr_gets_->fetch_add(1, std::memory_order_relaxed);
      ctr_completed_->fetch_add(1, std::memory_order_relaxed);
      item.done.set_value(std::move(result));
    }
    rt.Fence(tid);
    ctr_batches_->fetch_add(1, std::memory_order_relaxed);
  }

  for (QueuedRequest& item : batch) {
    if (item.request.kind == RequestKind::kGet) {
      continue;
    }
    const bool multi = item.request.kind == RequestKind::kMultiPut;
    if (!multi) {
      // A single put is a 1-pair transaction; the request is spent after
      // this, so its payload moves into the pair.
      item.request.pairs.assign(
          1, KvPair{item.request.key, std::move(item.request.value)});
    }
    ServeResult result;
    result.shard = group;
    result.trace_id = item.trace_id;
    result.status =
        ExecuteReplicatedTxn(item.request.pairs, {}, item.trace_id);
    (multi ? ctr_txns_ : ctr_puts_)->fetch_add(1, std::memory_order_relaxed);
    ctr_completed_->fetch_add(1, std::memory_order_relaxed);
    item.done.set_value(std::move(result));
  }
}

std::vector<int> ReplicatedKvService::LiveReplicas(int group) const {
  std::vector<int> live;
  for (int r = 0; r < options_.replicas; ++r) {
    if (alive_[router_.NodeFor(group, r)]) {
      live.push_back(r);
    }
  }
  return live;
}

Status ReplicatedKvService::ExecuteReplicatedTxn(
    const std::vector<KvPair>& pairs, const ReplStop& stop,
    std::uint64_t trace_id) {
  if (pairs.empty() || pairs.size() > Shard::kMaxTxnPairs) {
    return InvalidArgument("replicated txn must carry 1.." +
                           std::to_string(Shard::kMaxTxnPairs) + " pairs");
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(pairs.size());
  for (const KvPair& pair : pairs) {
    keys.push_back(pair.key);
  }
  const std::vector<int> participants = router_.ParticipantsFor(keys);
  const int k = static_cast<int>(participants.size());

  // Every node of every participant group, locked in ascending node order
  // (the single multi-lock path, so ordering is global and deadlock-free).
  std::vector<std::unique_lock<std::mutex>> locks;
  for (int g : participants) {
    for (int r = 0; r < options_.replicas; ++r) {
      locks.emplace_back(nodes_[router_.NodeFor(g, r)]->mu());
    }
  }

  for (int g : participants) {
    if (!alive_[router_.PrimaryNodeFor(g)]) {
      return Unavailable("group " + std::to_string(g) +
                         " primary down; failover required");
    }
  }

  // Tag every participant replica's events with the originating request
  // while their locks are held (set_active_trace is recorder-shared state,
  // serialized by the node locks). Restores to 0 on every exit path,
  // including the crash injections and error returns below.
  struct TxnTraceScopes {
    std::vector<TraceRecorder*> recorders;
    ~TxnTraceScopes() {
      for (TraceRecorder* r : recorders) {
        r->set_active_trace(0);
      }
    }
  } trace_scopes;
  if (trace_id != 0) {
    trace_scopes.recorders.reserve(participants.size() *
                                   static_cast<std::size_t>(options_.replicas));
    for (int g : participants) {
      for (int r = 0; r < options_.replicas; ++r) {
        TraceRecorder* rec = &nodes_[router_.NodeFor(g, r)]->recorder();
        rec->set_active_trace(trace_id);
        trace_scopes.recorders.push_back(rec);
      }
    }
  }

  const int cg = participants.front();
  const int cp = router_.PrimaryNodeFor(cg);
  Shard& coord = *nodes_[cp];
  const ThreadId coord_tid = coord.TxnTid();
  const std::uint64_t txn_id = ++txn_counter_;
  const SimTime txn_start = coord.Now(coord_tid);
  const bool redo = options_.protocol == ReplProtocol::kOneSidedRedo;

  // Phase 1 -- durable intent on the coordinator group's primary. From here
  // on, a crash anywhere leads recovery to redo the whole transaction on
  // every replica of every owning group.
  auto intent_slot = coord.WriteIntent(coord_tid, txn_id, pairs);
  if (!intent_slot.ok()) {
    return intent_slot.status();
  }
  coord.Drain(coord_tid);
  if (stop.phase == ReplStopPhase::kAfterIntent) {
    return Unavailable("txn stopped by crash injection: after intent");
  }

  // Phase 2 -- replicate the record to every live backup of the
  // coordinator group. slots[r] remembers where each replica holds its
  // copy; durable[r] is when that copy became durable (the ack instant).
  std::vector<int> slots(options_.replicas, -1);
  std::vector<SimTime> backup_durable(options_.replicas, 0);
  slots[router_.PrimaryReplica(cg)] = *intent_slot;
  std::vector<SimTime> ack_times;
  const std::uint64_t record_bytes = coord.IntentRecordBytes();
  int backup_ordinal = 0;
  bool replicate_stopped = false;
  for (int r = 0; r < options_.replicas && !replicate_stopped; ++r) {
    const int bn = router_.NodeFor(cg, r);
    if (r == router_.PrimaryReplica(cg) || !alive_[bn]) {
      continue;
    }
    Shard& backup = *nodes_[bn];
    if (!redo) {
      // Primary-backup: ship the framed record; the backup CPU persists it
      // failure-atomically and acks once it is durable.
      const net::Delivery ship =
          fabric_->Send(cp, bn, record_bytes, coord.Now(coord_tid),
                        net::MsgKind::kIntentShip, txn_id, trace_id);
      backup.rt().WaitUntil(backup.TxnTid(), ship.delivered);
      auto slot = backup.WriteIntent(backup.TxnTid(), txn_id, pairs);
      if (!slot.ok()) {
        return slot.status();
      }
      backup.Drain(backup.TxnTid());
      slots[r] = *slot;
      backup_durable[r] = backup.Now(backup.TxnTid());
      const net::Delivery ack =
          fabric_->Send(bn, cp, kCtrlBytes, backup_durable[r],
                        net::MsgKind::kIntentAck, txn_id, trace_id);
      ack_times.push_back(ack.delivered);
    } else {
      // One-sided redo: the primary writes the raw record into the
      // backup's intent region and rings the replay doorbell; the ack goes
      // out the instant the record is durable, independent of the replay
      // (which the backup's NDP runs locally in the apply phase).
      const net::Delivery write =
          fabric_->Send(cp, bn, record_bytes, coord.Now(coord_tid),
                        net::MsgKind::kRedoWrite, txn_id, trace_id);
      backup.rt().WaitUntil(backup.NicTid(), write.delivered);
      SimTime durable_at = 0;
      auto slot = backup.LandRedoRecord(backup.NicTid(), txn_id, pairs,
                                        !options_.skip_redo_persist,
                                        &durable_at);
      if (!slot.ok()) {
        return slot.status();
      }
      const net::Delivery bell =
          fabric_->Send(cp, bn, kCtrlBytes, coord.Now(coord_tid),
                        net::MsgKind::kDoorbell, txn_id, trace_id);
      backup.rt().WaitUntil(backup.NicTid(), bell.delivered);
      backup.RingDoorbell(backup.NicTid(), *slot, txn_id);
      slots[r] = *slot;
      backup_durable[r] = std::max(durable_at, backup.Now(backup.NicTid()));
      const net::Delivery ack =
          fabric_->Send(bn, cp, kCtrlBytes, durable_at,
                        net::MsgKind::kIntentAck, txn_id, trace_id);
      ack_times.push_back(ack.delivered);
    }
    if (stop.phase == ReplStopPhase::kMidReplicate &&
        stop.ordinal == backup_ordinal) {
      replicate_stopped = true;
    }
    ++backup_ordinal;
  }
  if (replicate_stopped) {
    return Unavailable("txn stopped by crash injection: mid replicate " +
                       std::to_string(stop.ordinal));
  }
  if (stop.phase == ReplStopPhase::kAfterReplicate) {
    return Unavailable("txn stopped by crash injection: after replicate");
  }

  // The commit point: the coordinator has every replica's durability ack.
  for (SimTime ack : ack_times) {
    coord.rt().WaitUntil(coord_tid, std::max(ack, coord.Now(coord_tid)));
  }

  // Phase 3 -- each participant group applies its slice on the primary and
  // every live backup. Non-coordinator groups first learn the slice over
  // the fabric (their backups hold no record; the coordinator intent covers
  // them on crash). In redo mode a coordinator backup's apply is the local
  // NDP replay, ordered after its record became durable.
  std::vector<SyncStateMachine> machines;
  machines.reserve(participants.size());
  for (int i = 0; i < k; ++i) {
    machines.emplace_back(k);
    NEARPM_RETURN_IF_ERROR(machines.back().ReceiveCommand());
  }
  for (int ordinal = 0; ordinal < k; ++ordinal) {
    const int g = participants[ordinal];
    const int pg = router_.PrimaryNodeFor(g);
    std::vector<KvPair> slice;
    for (const KvPair& pair : pairs) {
      if (router_.ShardFor(pair.key) == g) {
        slice.push_back(pair);
      }
    }
    if (g != cg && pg != cp) {
      // Hand the slice to the participant group's primary.
      const net::Delivery ship =
          fabric_->Send(cp, pg, record_bytes, coord.Now(coord_tid),
                        net::MsgKind::kIntentShip, txn_id, trace_id);
      nodes_[pg]->rt().WaitUntil(nodes_[pg]->TxnTid(), ship.delivered);
    }
    for (int r : LiveReplicas(g)) {
      const int n = router_.NodeFor(g, r);
      Shard& replica = *nodes_[n];
      const ThreadId tid = replica.TxnTid();
      if (g == cg && n != cp && redo) {
        replica.rt().WaitUntil(
            tid, std::max(backup_durable[r], replica.Now(tid)));
      } else if (n != pg) {
        // Group-internal apply forwarding from the group's primary. A
        // replica already holding the record (pb coordinator backup) only
        // needs the commit trigger; the rest get the full framed slice.
        const std::size_t fwd_bytes =
            slots.size() > static_cast<std::size_t>(r) && g == cg &&
                    slots[r] >= 0
                ? kCtrlBytes
                : record_bytes;
        const net::Delivery fwd =
            fabric_->Send(pg, n, fwd_bytes,
                          nodes_[pg]->Now(nodes_[pg]->TxnTid()),
                          net::MsgKind::kIntentShip, txn_id, trace_id);
        replica.rt().WaitUntil(tid, fwd.delivered);
      }
      for (const KvPair& pair : slice) {
        NEARPM_RETURN_IF_ERROR(replica.Put(tid, pair.key, pair.value));
      }
    }
    if (stop.phase == ReplStopPhase::kMidApply && stop.ordinal == ordinal) {
      // Puts issued but nowhere drained: the crash model finds the slice's
      // device requests in flight on every replica of the group at once.
      return Unavailable("txn stopped by crash injection: mid apply " +
                         std::to_string(ordinal));
    }
    for (int r : LiveReplicas(g)) {
      Shard& replica = *nodes_[router_.NodeFor(g, r)];
      replica.Drain(replica.TxnTid());
    }
    NEARPM_RETURN_IF_ERROR(machines[ordinal].ReceiveLocalComplete());
    if (stop.phase == ReplStopPhase::kAfterApply &&
        stop.ordinal == ordinal) {
      return Unavailable("txn stopped by crash injection: after apply " +
                         std::to_string(ordinal));
    }
  }

  // Phase 4 -- cross-group completion exchange over the fabric, then all
  // participant primaries rendezvous (Invariant 3: the retire below is a
  // write ordered after this synchronization).
  for (int ordinal = 0; ordinal < k; ++ordinal) {
    const int src = router_.PrimaryNodeFor(participants[ordinal]);
    Shard& sender = *nodes_[src];
    for (int peer = 0; peer < k; ++peer) {
      if (peer == ordinal) {
        continue;
      }
      const int dst = router_.PrimaryNodeFor(participants[peer]);
      const net::Delivery sig =
          fabric_->Send(src, dst, kCtrlBytes, sender.Now(sender.TxnTid()),
                        net::MsgKind::kSyncSignal, txn_id, trace_id);
      nodes_[dst]->rt().WaitUntil(nodes_[dst]->TxnTid(), sig.delivered);
      const DeviceId remote_index = ordinal < peer ? ordinal : ordinal - 1;
      NEARPM_RETURN_IF_ERROR(
          machines[peer].ReceiveRemoteComplete(remote_index));
    }
  }
  SimTime rendezvous = 0;
  for (int g : participants) {
    Shard& primary = *nodes_[router_.PrimaryNodeFor(g)];
    rendezvous = std::max(rendezvous, primary.Now(primary.TxnTid()));
  }
  rendezvous += coord.rt().options().hw.cost.ndp_remote_status_ns;
  for (int g : participants) {
    Shard& primary = *nodes_[router_.PrimaryNodeFor(g)];
    primary.rt().WaitUntil(primary.TxnTid(), rendezvous);
  }
  for (int ordinal = 0; ordinal < k; ++ordinal) {
    if (!machines[ordinal].AllComplete()) {
      return Internal("participant " + std::to_string(ordinal) +
                      " not All-Complete before intent retire");
    }
  }
  if (stop.phase == ReplStopPhase::kAfterSync) {
    return Unavailable("txn stopped by crash injection: after sync");
  }

  // Phase 5 -- retire every replica's copy of the record, the coordinator
  // primary last (its intent is the authoritative one recovery redoes).
  for (int r = 0; r < options_.replicas; ++r) {
    const int bn = router_.NodeFor(cg, r);
    if (bn == cp || slots[r] < 0 || !alive_[bn]) {
      continue;
    }
    Shard& backup = *nodes_[bn];
    const net::Delivery retire =
        fabric_->Send(cp, bn, kCtrlBytes, coord.Now(coord_tid),
                      net::MsgKind::kRetire, txn_id, trace_id);
    backup.rt().WaitUntil(backup.TxnTid(), retire.delivered);
    NEARPM_RETURN_IF_ERROR(backup.InvalidateIntent(backup.TxnTid(), slots[r]));
    backup.Drain(backup.TxnTid());
  }
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
  commit_ns_->Add(txn_end - txn_start);
  ctr_commits_->fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

StatusOr<std::vector<std::uint8_t>> ReplicatedKvService::Read(
    std::uint64_t key) {
  const int group = router_.ShardFor(key);
  const int primary = router_.PrimaryNodeFor(group);
  if (!alive_[primary]) {
    return Unavailable("group " + std::to_string(group) +
                       " primary down; failover required");
  }
  Shard& shard = *nodes_[primary];
  std::lock_guard lock(shard.mu());
  return shard.Get(shard.TxnTid(), key);
}

void ReplicatedKvService::CrashReplicas(const std::vector<int>& crash_nodes,
                                        const std::vector<CrashPlan>& plans) {
  for (std::size_t i = 0; i < crash_nodes.size(); ++i) {
    const int n = crash_nodes[i];
    std::lock_guard lock(nodes_[n]->mu());
    nodes_[n]->Crash(i < plans.size() ? plans[i] : CrashPlan{});
    alive_[n] = false;
  }
  // Queued requests of groups whose routed primary died fail Unavailable;
  // other groups keep serving.
  for (int g = 0; g < options_.groups; ++g) {
    if (alive_[router_.PrimaryNodeFor(g)]) {
      continue;
    }
    driver_.FailQueued(g, Unavailable("request lost in power failure"));
  }
}

Status ReplicatedKvService::RedoNodeIntents(int n) {
  Shard& holder = *nodes_[n];
  auto intents = holder.ScanIntents(holder.TxnTid());
  if (!intents.ok()) {
    return intents.status();
  }
  for (const serve::IntentRecord& intent : *intents) {
    if (!options_.break_intent_redo) {
      for (const KvPair& pair : intent.pairs) {
        const int g = router_.ShardFor(pair.key);
        for (int r : LiveReplicas(g)) {
          Shard& replica = *nodes_[router_.NodeFor(g, r)];
          NEARPM_RETURN_IF_ERROR(
              replica.Put(replica.TxnTid(), pair.key, pair.value));
          replica.Drain(replica.TxnTid());
        }
      }
    }
    NEARPM_RETURN_IF_ERROR(
        holder.InvalidateIntent(holder.TxnTid(), intent.slot));
    holder.Drain(holder.TxnTid());
    metrics_.Increment("repl_intent_redos");
  }
  return Status::Ok();
}

Status ReplicatedKvService::Failover(int group) {
  // Quiesced path: promotion replays intents whose pairs may belong to
  // other groups, so take every node lock up front.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(nodes_.size());
  for (auto& shard : nodes_) {
    locks.emplace_back(shard->mu());
  }
  const std::vector<int> live = LiveReplicas(group);
  if (live.empty()) {
    return Unavailable("group " + std::to_string(group) +
                       " has no live replica to promote");
  }
  const int promoted = live.front();  // deterministic: lowest live index
  const int pn = router_.NodeFor(group, promoted);
  // Promotion from the durable log: the new primary replays its surviving
  // records (idempotent redo) before taking traffic, so an acked-but-not-
  // replayed one-sided record can never be served stale.
  NEARPM_RETURN_IF_ERROR(RedoNodeIntents(pn));
  router_.Promote(group, promoted);
  for (int r : live) {
    if (r == promoted) {
      continue;
    }
    const net::Delivery note = fabric_->Send(
        pn, router_.NodeFor(group, r), kCtrlBytes,
        nodes_[pn]->Now(nodes_[pn]->TxnTid()), net::MsgKind::kPromote, 0);
    Shard& peer = *nodes_[router_.NodeFor(group, r)];
    peer.rt().WaitUntil(peer.TxnTid(), note.delivered);
  }
  metrics_.Increment("repl_failovers");
  return Status::Ok();
}

Status ReplicatedKvService::RecoverAll() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(nodes_.size());
  for (auto& shard : nodes_) {
    locks.emplace_back(shard->mu());
  }
  for (int n = 0; n < num_nodes(); ++n) {
    if (alive_[n]) {
      continue;
    }
    NEARPM_RETURN_IF_ERROR(nodes_[n]->Recover());
    alive_[n] = true;
  }
  // Reconcile from the union of surviving intents across the cluster: any
  // record that survived anywhere was past its durability point, so its
  // pairs are re-applied to every replica of their owning groups
  // (idempotent upserts) before the record is retired. Replicas of a group
  // are bit-identical afterwards.
  for (int n = 0; n < num_nodes(); ++n) {
    NEARPM_RETURN_IF_ERROR(RedoNodeIntents(n));
  }
  return Status::Ok();
}

std::uint64_t ReplicatedKvService::PpoViolations(std::string* report) {
  std::uint64_t total = 0;
  for (auto& shard : nodes_) {
    std::lock_guard lock(shard->mu());
    const auto violations = PpoChecker{}.Check(shard->recorder());
    total += violations.size();
    if (report != nullptr && !violations.empty()) {
      *report += "node " + std::to_string(shard->id()) + ":\n" +
                 PpoChecker::Report(violations);
    }
  }
  return total;
}

void ReplicatedKvService::ExportResourceMetrics() {
  for (auto& shard : nodes_) {
    std::lock_guard lock(shard->mu());
    const Profile profile = BuildProfile(shard->recorder());
    nearpm::ExportResourceMetrics(
        profile, &metrics_, "repl_",
        "node=\"" + EscapeLabelValue(std::to_string(shard->id())) + "\",");
  }
  // The fabric's own track stream: one kNetXfer lane per directed link,
  // folded into per-link duty cycles.
  const Profile fabric_profile = BuildProfile(*fabric_recorder_);
  nearpm::ExportResourceMetrics(fabric_profile, &metrics_, "repl_",
                                "node=\"fabric\",");
  metrics_.MergeFrom(fabric_recorder_->metrics());
}

std::vector<TimelineSource> ReplicatedKvService::TimelineSources() {
  std::vector<TimelineSource> sources;
  sources.reserve(nodes_.size() + 1);
  for (auto& shard : nodes_) {
    std::lock_guard lock(shard->mu());
    sources.push_back({"node" + std::to_string(shard->id()),
                       shard->recorder().Snapshot()});
  }
  sources.push_back({"fabric", fabric_recorder_->Snapshot()});
  return sources;
}

StatusOr<std::vector<KvPair>> ReplicatedKvService::DumpReplica(int group,
                                                               int replica) {
  Shard& shard = *nodes_[router_.NodeFor(group, replica)];
  std::lock_guard lock(shard.mu());
  return shard.DumpTable(shard.TxnTid());
}

std::uint64_t ReplicatedKvService::CounterValue(
    const std::string& name) const {
  const auto& counters = metrics_.counters();
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.load(std::memory_order_relaxed);
}

ReplStats ReplicatedKvService::Stats() const {
  ReplStats stats;
  stats.completed = CounterValue("repl_completed");
  stats.puts = CounterValue("repl_puts");
  stats.gets = CounterValue("repl_gets");
  stats.txns = CounterValue("repl_txns");
  stats.rejected = CounterValue("repl_rejected");
  stats.batches = CounterValue("repl_batches");
  stats.failovers = CounterValue("repl_failovers");
  stats.intent_redos = CounterValue("repl_intent_redos");
  stats.net_messages = fabric_->total_messages();
  for (const auto& shard : nodes_) {
    stats.makespan_ns = std::max(stats.makespan_ns, shard->MakespanNs());
  }
  const auto& histograms = metrics_.histograms();
  if (auto it = histograms.find("repl_request_ns"); it != histograms.end()) {
    stats.request_p50_ns = it->second.Percentile(0.5);
    stats.request_p99_ns = it->second.Percentile(0.99);
  }
  if (auto it = histograms.find("repl_commit_ns"); it != histograms.end()) {
    stats.commit_p50_ns = it->second.Percentile(0.5);
    stats.commit_p99_ns = it->second.Percentile(0.99);
  }
  if (stats.makespan_ns > 0) {
    stats.throughput_ops_per_sec = static_cast<double>(stats.completed) /
                                   (static_cast<double>(stats.makespan_ns) /
                                    1e9);
  }
  return stats;
}

}  // namespace repl
}  // namespace nearpm
