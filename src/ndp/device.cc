#include "src/ndp/device.h"

#include <algorithm>
#include <cassert>

#include "src/analyze/sanitizer.h"

namespace nearpm {

NearPmDevice::NearPmDevice(DeviceId id, const hwmodel::HwConfig* hw,
                           PmSpace* space)
    : id_(id),
      hw_(hw),
      cost_(&hw->cost),
      space_(space),
      pipe_(hw),
      fifo_capacity_(hw->fifo_depth) {
  assert(hw_->units_per_device >= 1);
  assert(fifo_capacity_ >= 1);
}

NearPmDevice::IssueResult NearPmDevice::Issue(
    std::uint64_t seq, SimTime cpu_now, const AddrRange& read_range,
    const AddrRange& write_range, std::span<const NdpWorkItem> work,
    SimTime earliest_start, NearPmOp op) {
  IssueResult result;

  // 1. MMIO command post on the dedicated control path.
  const SimTime nominal_release = cpu_now + NsToTime(cost_->cmd_post_ns);
  result.cpu_release = nominal_release;

  // 2. Request FIFO backpressure: posting stalls the CPU while all entries
  //    are occupied. An entry frees when its request is dispatched to a unit.
  while (!fifo_dispatch_times_.empty() &&
         fifo_dispatch_times_.front() <= result.cpu_release) {
    fifo_dispatch_times_.pop_front();
  }
  while (fifo_dispatch_times_.size() >= fifo_capacity_) {
    result.cpu_release =
        std::max(result.cpu_release, fifo_dispatch_times_.front());
    fifo_dispatch_times_.pop_front();
    ++stats_.fifo_backpressure_stalls;
  }

  // arg1 marks where the nominal MMIO post ends and FIFO backpressure
  // begins, so the profiler can attribute the two separately.
  NEARPM_TRACE_SPAN(trace_, .phase = TracePhase::kCmdPost,
                    .pid = kTracePciePid, .ts = cpu_now,
                    .dur = result.cpu_release - cpu_now, .seq = seq,
                    .arg0 = static_cast<std::uint64_t>(op),
                    .arg1 = nominal_release);
  NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kFifoEnqueue,
                     .pid = TraceDevicePid(id_), .tid = kTraceDispatcherTid,
                     .ts = result.cpu_release, .seq = seq);

  // 3. Decode + address translation + conflict check in the Dispatcher.
  const SimTime arrival =
      result.cpu_release + NsToTime(cost_->cmd_device_pipeline_ns);
  SimTime start_lb = std::max(arrival, earliest_start);
  // arg1 carries the ordered start lower bound (earliest_start clamp): the
  // gap between pipeline exit and arg1 is synchronization-ordering wait.
  NEARPM_TRACE_SPAN(trace_, .phase = TracePhase::kDevPipeline,
                    .pid = TraceDevicePid(id_), .tid = kTraceDispatcherTid,
                    .ts = result.cpu_release,
                    .dur = arrival - result.cpu_release, .seq = seq,
                    .arg1 = start_lb);

  // 4. NDP-NDP ordering: a request conflicting with an in-flight one is
  //    buffered until the in-flight access completes (Section 5.3.1).
  const SimTime rd_conflict =
      inflight_.Conflicts(read_range, /*access_is_write=*/false, cpu_now);
  const SimTime wr_conflict =
      inflight_.Conflicts(write_range, /*access_is_write=*/true, cpu_now);
  const SimTime conflict_free_at = std::max(rd_conflict, wr_conflict);
  if (conflict_free_at > start_lb) {
    NEARPM_TRACE_SPAN(trace_, .phase = TracePhase::kConflictStall,
                      .pid = TraceDevicePid(id_), .tid = kTraceDispatcherTid,
                      .ts = start_lb, .dur = conflict_free_at - start_lb,
                      .seq = seq);
    start_lb = conflict_free_at;
    ++stats_.dispatcher_conflict_stalls;
  }

  // 5. Execute on the earliest-available NearPM unit. With the configured
  //    pipeline enabled the request flows dispatch -> execute -> writeback
  //    and its kUnitExec span covers the full pipeline residency, so every
  //    downstream consumer (FIFO free point, conflict window, profiler)
  //    sees one consistent [dispatch, writeback] lifetime.
  const double work_ns = NdpWorkNs(*cost_, work);
  const PipelineSchedule sched = pipe_.Schedule(start_lb, work_ns);
  result.completion = sched.wb_end;
  const SimTime dispatch_time = sched.dispatch_start;
  if (sched.lsq_stalled) {
    ++stats_.lsq_stalls;
  }
  fifo_dispatch_times_.push_back(dispatch_time);
  NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kFifoDepth,
                     .pid = TraceDevicePid(id_), .tid = kTraceDispatcherTid,
                     .ts = result.cpu_release,
                     .arg0 = fifo_dispatch_times_.size());
  const std::uint32_t unit_tid =
      kTraceUnitTidBase + static_cast<std::uint32_t>(sched.unit);
  NEARPM_TRACE_SPAN(
      trace_, .phase = TracePhase::kUnitExec, .pid = TraceDevicePid(id_),
      .tid = unit_tid, .ts = dispatch_time,
      .dur = result.completion - dispatch_time, .seq = seq,
      .range = write_range, .range2 = read_range,
      .arg0 = static_cast<std::uint64_t>(op), .arg1 = cpu_now);
  if (pipe_.pipelined()) {
    // Per-stage residency, nested inside the kUnitExec span. Only emitted
    // for an enabled pipeline so default-geometry traces match the seed.
    const auto stage_span = [&](PipeStage stage, SimTime ts, SimTime end) {
      if (end > ts) {
        NEARPM_TRACE_SPAN(trace_, .phase = TracePhase::kPipeStage,
                          .pid = TraceDevicePid(id_), .tid = unit_tid,
                          .ts = ts, .dur = end - ts, .seq = seq,
                          .arg0 = static_cast<std::uint64_t>(stage));
      }
    };
    stage_span(PipeStage::kDispatch, sched.dispatch_start, sched.dispatch_end);
    stage_span(PipeStage::kExecute, sched.exec_start, sched.exec_end);
    stage_span(PipeStage::kWriteback, sched.wb_start, sched.wb_end);
    NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kLsqDepth,
                       .pid = TraceDevicePid(id_), .tid = unit_tid,
                       .ts = dispatch_time, .arg0 = sched.lsq_occupancy);
  }

  inflight_.Prune(cpu_now);
  inflight_.Insert(
      InflightTable::Entry{seq, read_range, write_range, result.completion});
  NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kInflightDepth,
                     .pid = TraceDevicePid(id_), .tid = kTraceDispatcherTid,
                     .ts = dispatch_time, .arg0 = inflight_.size());
  last_completion_ = std::max(last_completion_, result.completion);
  stats_.unit_busy_ns += work_ns;
  ++stats_.requests;
  NEARPM_SAN_HOOK(san_,
                  OnDeviceExecute(id_, seq, write_range, result.completion));

  // 6. Functional execution. Reads observe (and thereby order after) earlier
  //    NDP writes to the same lines; writes are tagged with the request and
  //    its execution window for crash rollback.
  space_->ObserveRange(read_range);
  space_->GuardRange(id_, seq, read_range);
  space_->GuardRange(id_, seq, write_range);
  space_->BeginNdpRequest(id_, seq, dispatch_time, result.completion);
  for (const NdpWorkItem& item : work) {
    switch (item.kind) {
      case NdpWorkItem::Kind::kCopy: {
        copy_buffer_.resize(item.size);
        space_->NdpRead(item.src, copy_buffer_);
        space_->NdpWrite(id_, seq, item.dst, copy_buffer_);
        break;
      }
      case NdpWorkItem::Kind::kLiteral:
        space_->NdpWrite(id_, seq, item.dst, item.literal_bytes());
        break;
    }
  }
  return result;
}

SimTime NearPmDevice::HostAccessBarrier(const AddrRange& range, bool is_write,
                                        SimTime now) {
  if (range.empty()) {
    return now;
  }
  std::vector<std::uint64_t> conflicting;
  const SimTime free_at = inflight_.Conflicts(range, is_write, now,
                                              &conflicting);
  // The CPU access is now ordered after these requests' completion.
  for (std::uint64_t seq : conflicting) {
    space_->RetireRequest(id_, seq);
    NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kRetire,
                       .pid = TraceDevicePid(id_), .tid = kTraceDispatcherTid,
                       .ts = std::max(free_at, now), .seq = seq,
                       .range = range);
  }
  inflight_.Prune(now);
  if (free_at > now) {
    ++stats_.host_access_stalls;
    return free_at;
  }
  return now;
}

NearPmDevice::IssueResult NearPmDevice::IssueDeferred(
    std::uint64_t seq, SimTime cpu_now, const AddrRange& write_range,
    std::span<const NdpWorkItem> work, SimTime earliest_start,
    NearPmOp op) {
  IssueResult result;
  result.cpu_release = cpu_now + NsToTime(cost_->cmd_post_ns);
  const SimTime arrival =
      result.cpu_release + NsToTime(cost_->cmd_device_pipeline_ns);
  SimTime start_lb = std::max(arrival, earliest_start);
  const SimTime wr_conflict =
      inflight_.Conflicts(write_range, /*access_is_write=*/true, cpu_now);
  start_lb = std::max(start_lb, wr_conflict);
  const double work_ns = NdpWorkNs(*cost_, work);
  result.completion = deferred_.Schedule(start_lb, work_ns);
  NEARPM_TRACE_SPAN(trace_, .phase = TracePhase::kDeferredExec,
                    .pid = TraceDevicePid(id_), .tid = kTraceMaintenanceTid,
                    .ts = result.completion - NsToTime(work_ns),
                    .dur = NsToTime(work_ns), .seq = seq,
                    .range = write_range,
                    .arg0 = static_cast<std::uint64_t>(op), .arg1 = cpu_now);
  inflight_.Prune(cpu_now);
  inflight_.Insert(
      InflightTable::Entry{seq, AddrRange{}, write_range, result.completion});
  stats_.unit_busy_ns += work_ns;
  ++stats_.requests;
  NEARPM_SAN_HOOK(san_, OnDeviceExecute(id_, seq, write_range,
                                        result.completion, /*deferred=*/true));

  space_->BeginNdpRequest(id_, seq, result.completion - NsToTime(work_ns),
                          result.completion);
  for (const NdpWorkItem& item : work) {
    switch (item.kind) {
      case NdpWorkItem::Kind::kCopy: {
        copy_buffer_.resize(item.size);
        space_->NdpRead(item.src, copy_buffer_);
        space_->NdpWrite(id_, seq, item.dst, copy_buffer_);
        break;
      }
      case NdpWorkItem::Kind::kLiteral:
        space_->NdpWrite(id_, seq, item.dst, item.literal_bytes());
        break;
    }
  }
  return result;
}

void NearPmDevice::HostWritebackAccepted(const AddrRange& range, SimTime now) {
  if (range.empty()) {
    return;
  }
  std::vector<std::uint64_t> conflicting;
  inflight_.Conflicts(range, /*access_is_write=*/true, now, &conflicting);
  NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kWritebackAccepted,
                     .pid = TraceDevicePid(id_), .tid = kTraceDispatcherTid,
                     .ts = now, .range = range, .arg0 = conflicting.size());
  for (std::uint64_t seq : conflicting) {
    space_->RetireRequest(id_, seq);
    ++stats_.host_buffered_writebacks;
    NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kRetire,
                       .pid = TraceDevicePid(id_), .tid = kTraceDispatcherTid,
                       .ts = now, .seq = seq, .range = range, .arg0 = 1);
  }
  inflight_.Prune(now);
}

void NearPmDevice::Reset() {
  pipe_.Reset();
  deferred_.Reset();
  fifo_dispatch_times_.clear();
  inflight_.Clear();
  last_completion_ = 0;
  stats_ = DeviceStats{};
}

}  // namespace nearpm
