// BatchDriver: the admission rings and the batch loop both serving front
// ends (KvService, src/repl's ReplicatedKvService) run on.
//
// Each shard (replica group) has one ring and N virtual CPUs -- the runtime
// clocks Shard::WorkerTid(0..N-1). A batch is up to batch_max requests off
// one ring and runs on the shard's next virtual CPU in round-robin order, so
// which clock runs which batch depends only on ring order, never on OS
// scheduling. Start() gives each shard one OS thread that parks on its ring;
// Pump() drains every ring on the caller, one batch per shard per round. One
// thread per shard, not per virtual CPU: the shard mutex serialized the
// CPUs anyway, and a thread per clock let one clock run far ahead of its
// siblings, which broke PPO Invariant 2. Pre-filled rings therefore give
// bit-identical simulated results in both modes.
//
// The executor is a template callable `exec(shard, vcpu, batch)` that
// completes every request's promise; batch buffers are reused, so the loop
// allocates nothing per batch and makes no indirect call.
#ifndef SRC_SERVE_BATCH_DRIVER_H_
#define SRC_SERVE_BATCH_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/serve/mpsc_ring.h"
#include "src/serve/shard.h"

namespace nearpm {
namespace serve {

enum class RequestKind : std::uint8_t { kGet, kPut, kMultiPut };

struct ServeRequest {
  RequestKind kind = RequestKind::kPut;
  std::uint64_t key = 0;
  std::vector<std::uint8_t> value;  // kPut payload
  std::vector<KvPair> pairs;        // kMultiPut payload
};

struct ServeResult {
  Status status = Status::Ok();
  std::vector<std::uint8_t> value;  // kGet payload
  // Simulated time from batch pickup to this request's completion (queueing
  // behind batch peers included).
  SimTime latency_ns = 0;
  int shard = -1;
  // Request trace id allocated at admission: the handle `nearpm_trace
  // --request` takes to reconstruct this request's cross-node timeline.
  std::uint64_t trace_id = 0;
};

// One admitted request waiting in a shard ring.
struct QueuedRequest {
  ServeRequest request;
  std::promise<ServeResult> done;
  std::uint64_t trace_id = 0;  // allocated at admission
};

class BatchDriver {
 public:
  BatchDriver(int shards, int vcpus, std::size_t queue_capacity,
              int batch_max)
      : vcpus_(vcpus),
        batch_max_(static_cast<std::size_t>(batch_max)),
        next_vcpu_(static_cast<std::size_t>(shards), 0),
        batches_(static_cast<std::size_t>(shards)) {
    for (std::vector<QueuedRequest>& batch : batches_) {
      rings_.push_back(
          std::make_unique<MpscRing<QueuedRequest>>(queue_capacity));
      batch.reserve(batch_max_);
    }
  }
  ~BatchDriver() { Stop(); }

  BatchDriver(const BatchDriver&) = delete;
  BatchDriver& operator=(const BatchDriver&) = delete;

  MpscRing<QueuedRequest>& ring(int shard) { return *rings_[shard]; }

  // Spawns one OS thread per shard, each running its shard's batches until
  // Stop(). Must not overlap Pump().
  template <typename Exec>
  void Start(Exec exec) {
    for (int s = 0; s < static_cast<int>(rings_.size()); ++s) {
      threads_.emplace_back([this, s, exec]() mutable {
        while (RunBatch(s, /*block=*/true, exec) > 0) {
        }
      });
    }
  }

  // Closes every ring, lets each thread drain what was admitted, joins them.
  void Stop() {
    for (auto& ring : rings_) {
      ring->Close();
    }
    for (std::thread& thread : threads_) {
      thread.join();
    }
    threads_.clear();
  }

  // Drains every ring on the calling thread, one batch per shard per round.
  // Returns the requests executed.
  template <typename Exec>
  std::uint64_t Pump(Exec&& exec) {
    std::uint64_t executed = 0;
    bool progress = true;
    while (progress) {
      progress = false;
      for (int s = 0; s < static_cast<int>(rings_.size()); ++s) {
        const std::size_t n = RunBatch(s, /*block=*/false, exec);
        executed += n;
        progress = progress || n > 0;
      }
    }
    return executed;
  }

  // Completes every request still queued on `shard` with `status` (the
  // power failure lost them before they ran).
  void FailQueued(int shard, const Status& status) {
    while (auto item = rings_[shard]->TryPop()) {
      item->done.set_value(ServeResult{.status = status});
    }
  }

 private:
  // Takes up to batch_max requests off `shard`'s ring (parking for the first
  // when `block`) and runs them on the shard's next virtual CPU. Returns the
  // batch size; 0 means the ring was empty (or, blocking, closed and
  // drained).
  template <typename Exec>
  std::size_t RunBatch(int shard, bool block, Exec& exec) {
    MpscRing<QueuedRequest>& ring = *rings_[shard];
    std::vector<QueuedRequest>& batch = batches_[shard];
    batch.clear();
    if (block) {
      auto first = ring.Pop();
      if (!first.has_value()) {
        return 0;
      }
      batch.push_back(std::move(*first));
    }
    while (batch.size() < batch_max_) {
      auto more = ring.TryPop();
      if (!more.has_value()) {
        break;
      }
      batch.push_back(std::move(*more));
    }
    const std::size_t n = batch.size();
    if (n > 0) {
      int& vcpu = next_vcpu_[shard];
      exec(shard, vcpu, batch);
      vcpu = (vcpu + 1) % vcpus_;
    }
    return n;
  }

  const int vcpus_;
  const std::size_t batch_max_;
  std::vector<std::unique_ptr<MpscRing<QueuedRequest>>> rings_;
  // Per-shard rotation cursor and reused batch buffer; touched only by that
  // shard's thread (or by Pump, which never overlaps Start).
  std::vector<int> next_vcpu_;
  std::vector<std::vector<QueuedRequest>> batches_;
  std::vector<std::thread> threads_;
};

}  // namespace serve
}  // namespace nearpm

#endif  // SRC_SERVE_BATCH_DRIVER_H_
