// One serving shard: an independent simulated machine (Runtime + NearPM
// devices + PersistentHeap) holding a hash-partitioned slice of the KV space.
//
// Persistent layout inside the heap's data window (all through failure-atomic
// undo-logged operations, so committed == durable):
//
//   [ table_slots x (8-byte tag | value) ]   the KV table, linear probing;
//                                            tag = key + 1, 0 = empty
//   [ kIntentSlots x intent slot ]           cross-shard transaction intents
//                                            (coordinator-side redo records)
//
// The volatile key -> slot index is rebuilt from the tags after recovery.
// A shard is driven by its service under the shard mutex: the Runtime, the
// heap and the trace recorder are single-threaded objects, so every caller
// (the shard's batch thread, a Pump() iteration, or another shard's
// cross-shard transaction) serializes on mu() before touching them.
#ifndef SRC_SERVE_SHARD_H_
#define SRC_SERVE_SHARD_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/core/runtime.h"
#include "src/pmlib/heap.h"
#include "src/trace/recorder.h"

namespace nearpm {
namespace serve {

struct ShardOptions {
  ExecMode mode = ExecMode::kNdpMultiDelayed;
  bool enforce_ppo = true;
  bool skip_recovery_replay = false;  // fault injection (fuzzer teeth)
  std::uint64_t pm_size = 16ull << 20;
  std::uint32_t table_slots = 512;  // KV capacity per shard (power of two)
  std::uint32_t value_size = 64;    // fixed value payload per key
  int workers = 2;                  // virtual CPUs (batch clocks) on this shard
  // Device geometry for this shard's simulated machine (default = seed).
  hwmodel::HwConfig hw;
};

struct KvPair {
  std::uint64_t key = 0;
  std::vector<std::uint8_t> value;
};

// A decoded cross-shard transaction intent (see Shard::WriteIntent).
struct IntentRecord {
  int slot = 0;
  std::uint64_t txn_id = 0;
  std::vector<KvPair> pairs;
};

class Shard {
 public:
  // Up to this many pairs per cross-shard transaction: the whole intent
  // record must fit one undo-log slot payload (kMaxLogData) so persisting it
  // stays a single failure-atomic write.
  static constexpr std::uint64_t kMaxTxnPairs = 8;
  static constexpr int kIntentSlots = 4;

  static StatusOr<std::unique_ptr<Shard>> Create(const ShardOptions& options,
                                                 int shard_id);

  int id() const { return id_; }
  const ShardOptions& options() const { return options_; }
  Runtime& rt() { return *rt_; }
  TraceRecorder& recorder() { return *recorder_; }
  std::mutex& mu() { return mu_; }

  // Virtual-thread ids on this shard's runtime: one clock per virtual CPU
  // plus a dedicated clock for cross-shard transactions and recovery.
  ThreadId WorkerTid(int worker) const { return worker; }
  ThreadId TxnTid() const { return options_.workers; }

  // ---- KV operations (callers hold mu()) ------------------------------------
  // Failure-atomic upsert; the value is padded/truncated to value_size.
  Status Put(ThreadId t, std::uint64_t key,
             const std::vector<std::uint8_t>& value);
  // Crash-injection hook for the serve fuzzer: issues an upsert's data
  // writes but never commits, leaving the undo log open on thread `t`. The
  // next crash must roll the writes back (the volatile index is not
  // updated); nothing else may run on `t` afterwards.
  Status PutUncommitted(ThreadId t, std::uint64_t key,
                        const std::vector<std::uint8_t>& value);
  StatusOr<std::vector<std::uint8_t>> Get(ThreadId t, std::uint64_t key);
  std::uint64_t live_keys() const { return index_.size(); }

  // ---- Cross-shard transaction intents (coordinator side) -------------------
  // Persists a redo record for `pairs` as one failure-atomic write and
  // returns the intent slot. The caller must drain the devices before
  // applying any slice, so the intent is durable first.
  StatusOr<int> WriteIntent(ThreadId t, std::uint64_t txn_id,
                            const std::vector<KvPair>& pairs);
  Status InvalidateIntent(ThreadId t, int slot);
  // Valid intents surviving in PM (used by recovery).
  StatusOr<std::vector<IntentRecord>> ScanIntents(ThreadId t);

  // ---- Replication hooks (src/repl) -----------------------------------------
  // Dedicated virtual clock standing in for the NIC's one-sided write engine.
  // Raw stores only: it has no undo-log area, so no heap operation may ever
  // run on it.
  ThreadId NicTid() const { return options_.workers + 1; }
  // Intent-slot geometry, public so a remote primary can aim one-sided
  // writes at this shard's slots.
  std::uint64_t IntentRecordBytes() const { return IntentBytes(); }
  PmAddr IntentSlotAddr(int slot) const { return IntentAddr(slot); }

  // One-sided landing of a redo record into a free intent slot with raw
  // stores on `t` (no undo bracketing): the payload is written and persisted
  // BEFORE the magic word, so a torn record is self-invalidating -- if the
  // magic is durable, the payload already was. With persist=false the lines
  // stay pending in the write queue (fault injection: a doorbell rung now
  // races the record, the NPM007 hazard, and a crash may tear it). On
  // success *durable_at (optional) is the shard clock after the final
  // persist -- the instant the record is durable and the ack may be sent.
  StatusOr<int> LandRedoRecord(ThreadId t, std::uint64_t txn_id,
                               const std::vector<KvPair>& pairs, bool persist,
                               SimTime* durable_at);
  // Rings the NDP replay doorbell for a landed record: emits the
  // kReplDoorbell audit event (range = the record) and notifies an attached
  // sanitizer, which checks the record is durable before the ring (NPM007).
  void RingDoorbell(ThreadId t, int slot, std::uint64_t txn_id);
  // Local replay of a decoded intent: failure-atomic upsert of every pair,
  // then retire the slot. Idempotent, so recovery may replay freely.
  Status ApplyIntentRecord(ThreadId t, const IntentRecord& record);
  // Bit-exact image of the live table, ascending by key (the divergent-
  // replica oracle compares these across a replica group).
  StatusOr<std::vector<KvPair>> DumpTable(ThreadId t);

  // ---- Failure and recovery -------------------------------------------------
  CrashReport Crash(const CrashPlan& plan);
  // Mechanism recovery + volatile index rebuild (not the cross-shard intent
  // redo -- that is the service's job, it spans shards).
  Status Recover();

  void Drain(ThreadId t) { rt_->DrainDevices(t); }
  SimTime Now(ThreadId t) const { return rt_->Now(t); }
  SimTime MakespanNs() const { return rt_->stats().MaxThreadTime(); }

 private:
  Shard(const ShardOptions& options, int shard_id);

  std::uint64_t EntrySize() const { return 8 + options_.value_size; }
  PmAddr EntryAddr(std::uint32_t slot) const {
    return heap_->root() + slot * EntrySize();
  }
  std::uint64_t IntentBytes() const {
    return 24 + kMaxTxnPairs * (8 + options_.value_size);
  }
  PmAddr IntentAddr(int slot) const {
    return intent_base_ + static_cast<PmAddr>(slot) * IntentBytes();
  }

  // Finds the slot holding `key`, or the free slot an insert would claim.
  StatusOr<std::uint32_t> SlotFor(std::uint64_t key, bool* exists) const;
  Status RebuildIndex(ThreadId t);

  ShardOptions options_;
  int id_;
  Status table_full_;  // prebuilt: returned per miss once the table is full
  std::mutex mu_;
  std::unique_ptr<TraceRecorder> recorder_;
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<PersistentHeap> heap_;
  PmAddr intent_base_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> index_;  // key -> slot
  std::vector<bool> occupied_;
};

}  // namespace serve
}  // namespace nearpm

#endif  // SRC_SERVE_SHARD_H_
