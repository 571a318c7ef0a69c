#include "src/trace/recorder.h"

#include <algorithm>

namespace nearpm {

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kCpuRead:
      return "cpu_read";
    case TracePhase::kCpuWrite:
      return "cpu_write";
    case TracePhase::kCpuPersist:
      return "cpu_persist";
    case TracePhase::kCpuFence:
      return "cpu_fence";
    case TracePhase::kCpuStall:
      return "cpu_stall";
    case TracePhase::kCpuDrain:
      return "cpu_drain";
    case TracePhase::kCmdPost:
      return "cmd_post";
    case TracePhase::kFifoEnqueue:
      return "fifo_enqueue";
    case TracePhase::kDevPipeline:
      return "dev_pipeline";
    case TracePhase::kConflictStall:
      return "conflict_stall";
    case TracePhase::kUnitExec:
      return "unit_exec";
    case TracePhase::kDeferredExec:
      return "deferred_exec";
    case TracePhase::kRetire:
      return "retire";
    case TracePhase::kWritebackAccepted:
      return "writeback_accepted";
    case TracePhase::kSyncMarker:
      return "sync_marker";
    case TracePhase::kSyncComplete:
      return "sync_complete";
    case TracePhase::kSwSyncPoll:
      return "swsync_poll";
    case TracePhase::kCrash:
      return "crash";
    case TracePhase::kCrashOutcome:
      return "crash_outcome";
    case TracePhase::kRecoveryReplay:
      return "recovery_replay";
    case TracePhase::kOpBegin:
      return "op_begin";
    case TracePhase::kOpCommit:
      return "op_commit";
    case TracePhase::kMechRecover:
      return "mech_recover";
    case TracePhase::kServeEnqueue:
      return "serve_enqueue";
    case TracePhase::kServeReject:
      return "serve_reject";
    case TracePhase::kServeBatch:
      return "serve_batch";
    case TracePhase::kServeRequest:
      return "serve_request";
    case TracePhase::kServeTxn:
      return "serve_txn";
    case TracePhase::kFifoDepth:
      return "fifo_depth";
    case TracePhase::kInflightDepth:
      return "inflight_depth";
    case TracePhase::kServeQueueDepth:
      return "serve_queue_depth";
    case TracePhase::kCoherenceWb:
      return "coherence_wb";
    case TracePhase::kNetXfer:
      return "net_xfer";
    case TracePhase::kNetDeliver:
      return "net_deliver";
    case TracePhase::kReplDoorbell:
      return "repl_doorbell";
    case TracePhase::kPipeStage:
      return "pipe_stage";
    case TracePhase::kLsqDepth:
      return "lsq_depth";
    case TracePhase::kSloAlert:
      return "slo_alert";
    case TracePhase::kCount:
      break;
  }
  return "?";
}

const char* PipeStageName(PipeStage stage) {
  switch (stage) {
    case PipeStage::kDispatch:
      return "dispatch";
    case PipeStage::kExecute:
      return "execute";
    case PipeStage::kWriteback:
      return "writeback";
  }
  return "?";
}

bool TracePhaseIsCounter(TracePhase phase) {
  return phase == TracePhase::kFifoDepth ||
         phase == TracePhase::kInflightDepth ||
         phase == TracePhase::kServeQueueDepth ||
         phase == TracePhase::kLsqDepth;
}

TraceRecorder::TraceRecorder(const TraceRecorderOptions& options)
    : options_(options) {
  if (options_.ring_capacity == 0) {
    options_.ring_capacity = 1;
  }
}

void TraceRecorder::Record(TraceEvent event) {
  event.epoch = epoch_;
  event.order = ++order_;
  if (event.trace == 0) {
    event.trace = active_trace_;
  }
  ++recorded_;
  const std::uint64_t key = TrackKey(event.pid, event.tid);
  if (key != cached_track_key_) {
    auto [it, inserted] = tracks_.try_emplace(key);
    if (inserted) {
      // The ring's one allocation. reserve() constructs nothing, so pages
      // stay untouched until events land on them.
      it->second.events.reserve(options_.ring_capacity);
    }
    cached_track_ = &it->second;
    cached_track_key_ = key;
  }
  Ring& ring = *cached_track_;
  if (ring.events.size() < options_.ring_capacity) {
    ring.events.push_back(event);
  } else {
    ring.events[ring.next] = event;
    if (++ring.next == options_.ring_capacity) {
      ring.next = 0;
    }
    ++ring.dropped;
    ++dropped_;
  }
  if (sink_ != nullptr) {
    sink_->Consume(event);
  }
  if (options_.feed_metrics) {
    // O(1) array bumps; the string-keyed registry is only touched when
    // metrics() folds these in at scrape time.
    const auto phase = static_cast<std::size_t>(event.phase);
    if (TracePhaseIsCounter(event.phase)) {
      // Counter samples track a level, not an occurrence: keep the last
      // sampled value (exported as a gauge).
      phase_gauge_[phase] = static_cast<double>(event.arg0);
      phase_gauge_set_[phase] = true;
    } else {
      ++phase_counts_[phase];
      if (event.is_span()) {
        phase_latency_[phase].Add(event.dur);
      }
    }
  }
}

void TraceRecorder::SyncPhaseMetrics() const {
  // Fold the per-phase accumulators into the registry, storing (not adding)
  // so repeated scrapes are idempotent. Entries are only created for phases
  // that actually occurred, preserving empty() for untouched recorders.
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto phase = static_cast<TracePhase>(i);
    if (phase_counts_[i] > 0) {
      metrics_.Counter(TracePhaseName(phase)).store(phase_counts_[i]);
    }
    if (phase_latency_[i].count() > 0) {
      metrics_.Latency(TracePhaseName(phase)) = phase_latency_[i];
    }
    if (phase_gauge_set_[i]) {
      metrics_.SetGauge(TracePhaseName(phase), phase_gauge_[i]);
    }
  }
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  // Tracks wrap independently, so the merged rings are not automatically a
  // suffix of the global record stream: the busiest track may have
  // overwritten events that calmer tracks' retained entries depend on
  // (a dropped kRetire whose kUnitExec span survives reads as a PPO
  // violation). Cut everything before the *latest* "oldest retained"
  // position among wrapped tracks -- past that order, every track is
  // complete, so the suffix replays exactly like the live stream did.
  std::uint64_t cutoff = 0;
  for (const auto& [key, ring] : tracks_) {
    (void)key;
    if (ring.dropped > 0) {
      cutoff = std::max(cutoff, ring.events[ring.next].order);
    }
  }
  std::vector<TraceEvent> out;
  out.reserve(recorded_ > dropped_ ? recorded_ - dropped_ : 0);
  for (const auto& [key, ring] : tracks_) {
    (void)key;
    for (const TraceEvent& event : ring.events) {
      if (event.order >= cutoff) {
        out.push_back(event);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.order < b.order;  // order is globally monotonic
            });
  return out;
}

void TraceRecorder::Clear() {
  tracks_.clear();
  cached_track_key_ = ~0ull;
  cached_track_ = nullptr;
  recorded_ = 0;
  dropped_ = 0;
  order_ = 0;
  epoch_ = 0;
  phase_counts_.fill(0);
  for (Histogram& histogram : phase_latency_) {
    histogram = Histogram();
  }
  phase_gauge_.fill(0.0);
  phase_gauge_set_.fill(false);
  metrics_.Reset();
}

}  // namespace nearpm
