// Tests for src/serve: routing, admission control, batching, the threaded
// and deterministic execution modes, cross-shard MultiPut atomicity through
// crashes, and throughput scaling across shards.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "src/serve/mpsc_ring.h"
#include "src/serve/router.h"
#include "src/serve/service.h"

namespace nearpm {
namespace serve {
namespace {

std::vector<std::uint8_t> Value(std::uint64_t tag, std::uint32_t size = 16) {
  std::vector<std::uint8_t> v(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    v[i] = static_cast<std::uint8_t>(tag + i);
  }
  return v;
}

ServeOptions SmallOptions(int shards) {
  ServeOptions so;
  so.shards = shards;
  so.workers_per_shard = 1;
  so.queue_capacity = 256;
  so.batch_max = 4;
  so.table_slots = 128;
  so.value_size = 16;
  return so;
}

TEST(ShardRouterTest, StableAndInRange) {
  ShardRouter router(4);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const int s = router.ShardFor(key);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
    EXPECT_EQ(s, router.ShardFor(key)) << "routing must be deterministic";
  }
}

TEST(ShardRouterTest, SpreadsKeysAcrossShards) {
  ShardRouter router(4);
  std::vector<int> hits(4, 0);
  for (std::uint64_t key = 0; key < 4000; ++key) {
    ++hits[router.ShardFor(key)];
  }
  for (int s = 0; s < 4; ++s) {
    // A uniform split gives 1000 per shard; the hash must not collapse.
    EXPECT_GT(hits[s], 500) << "shard " << s << " starved";
    EXPECT_LT(hits[s], 1500) << "shard " << s << " overloaded";
  }
}

TEST(ShardRouterTest, ParticipantsSortedUnique) {
  ShardRouter router(3);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = 0; key < 64; ++key) {
    keys.push_back(key);
  }
  const std::vector<int> participants = router.ParticipantsFor(keys);
  EXPECT_EQ(participants.size(), 3u);
  for (std::size_t i = 1; i < participants.size(); ++i) {
    EXPECT_LT(participants[i - 1], participants[i]);
  }
}

TEST(MpscRingQueueTest, RejectsWhenFull) {
  MpscRing<int> queue(2);
  int a = 1;
  int b = 2;
  int c = 3;
  EXPECT_TRUE(queue.TryPush(a));
  EXPECT_TRUE(queue.TryPush(b));
  EXPECT_FALSE(queue.TryPush(c)) << "a full ring must reject, not block";
  auto out = queue.TryPop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, 1);
  EXPECT_TRUE(queue.TryPush(c));
}

TEST(KvServiceTest, PutGetRoundtripAcrossShards) {
  auto svc = KvService::Create(SmallOptions(4));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  std::vector<std::future<ServeResult>> futures;
  for (std::uint64_t key = 0; key < 40; ++key) {
    ServeRequest req;
    req.kind = RequestKind::kPut;
    req.key = key;
    req.value = Value(key);
    auto fut = (*svc)->Submit(std::move(req));
    ASSERT_TRUE(fut.ok()) << fut.status().ToString();
    futures.push_back(std::move(*fut));
  }
  (*svc)->Pump();
  for (auto& fut : futures) {
    EXPECT_TRUE(fut.get().status.ok());
  }

  futures.clear();
  for (std::uint64_t key = 0; key < 40; ++key) {
    ServeRequest req;
    req.kind = RequestKind::kGet;
    req.key = key;
    auto fut = (*svc)->Submit(std::move(req));
    ASSERT_TRUE(fut.ok()) << fut.status().ToString();
    futures.push_back(std::move(*fut));
  }
  (*svc)->Pump();
  for (std::uint64_t key = 0; key < 40; ++key) {
    ServeResult r = futures[key].get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.value, Value(key)) << "key " << key;
    EXPECT_EQ(r.shard, (*svc)->router().ShardFor(key));
    EXPECT_GT(r.latency_ns, 0u);
  }
}

TEST(KvServiceTest, FullQueueRejectsWithResourceExhausted) {
  ServeOptions so = SmallOptions(1);
  so.queue_capacity = 4;
  auto svc = KvService::Create(so);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  int accepted = 0;
  int rejected = 0;
  for (std::uint64_t key = 0; key < 10; ++key) {
    ServeRequest req;
    req.kind = RequestKind::kPut;
    req.key = key;
    req.value = Value(key);
    auto fut = (*svc)->Submit(std::move(req));
    if (fut.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(fut.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(rejected, 6);
  (*svc)->Pump();
  EXPECT_EQ((*svc)->Stats().rejected, 6u);

  // Draining the queue re-opens admission.
  ServeRequest req;
  req.kind = RequestKind::kPut;
  req.key = 99;
  req.value = Value(99);
  EXPECT_TRUE((*svc)->Submit(std::move(req)).ok());
}

TEST(KvServiceTest, BatchingAmortizesFrontEndCost) {
  auto makespan = [](int batch_max) {
    ServeOptions so = SmallOptions(1);
    so.batch_max = batch_max;
    auto svc = KvService::Create(so);
    EXPECT_TRUE(svc.ok());
    for (std::uint64_t key = 0; key < 64; ++key) {
      ServeRequest req;
      req.kind = RequestKind::kPut;
      req.key = key;
      req.value = Value(key);
      EXPECT_TRUE((*svc)->Submit(std::move(req)).ok());
    }
    (*svc)->Pump();
    return (*svc)->Stats().makespan_ns;
  };
  const SimTime unbatched = makespan(1);
  const SimTime batched = makespan(8);
  EXPECT_LT(batched, unbatched)
      << "one doorbell+fence per batch must beat per-request charging";
}

TEST(KvServiceTest, ThreadedModeServesAndStops) {
  ServeOptions so = SmallOptions(2);
  so.workers_per_shard = 2;
  auto svc = KvService::Create(so);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  (*svc)->Start();
  std::vector<std::future<ServeResult>> futures;
  for (std::uint64_t key = 0; key < 100; ++key) {
    ServeRequest req;
    req.kind = RequestKind::kPut;
    req.key = key;
    req.value = Value(key);
    auto fut = (*svc)->Submit(std::move(req));
    if (fut.ok()) {
      futures.push_back(std::move(*fut));
    }
  }
  for (auto& fut : futures) {
    EXPECT_TRUE(fut.get().status.ok());
  }
  (*svc)->Stop();
  EXPECT_EQ((*svc)->Stats().completed, futures.size());
  EXPECT_EQ((*svc)->PpoViolations(), 0u);
}

// Same pre-filled queues, `vcpus` virtual CPUs per shard: the deterministic
// Pump drain and the threaded drain must produce identical simulated timings
// and identical pipeline stall counts under a pipelined LSQ-bounded geometry.
// Each shard's batches rotate over its virtual CPUs in ring order in both
// modes, so OS scheduling may interleave shards differently but must not
// leak into any virtual-time observable.
void ExpectPumpMatchesThreads(int vcpus) {
  SCOPED_TRACE("vcpus=" + std::to_string(vcpus));
  ServeOptions so = SmallOptions(2);
  so.workers_per_shard = vcpus;
  // One slow unit (0.25 GB/s AXI, 256 B payloads -> ~1 us of DMA per put):
  // execute drains far slower than the CPU posts, the dispatch stage runs
  // ahead, and the 2-deep LSQ actually fills.
  so.value_size = 256;
  so.hw.units_per_device = 1;
  so.hw.cost.ndp_dma_ns_per_byte = 4.0;
  so.hw.pipeline.dispatch_ns = 20;
  so.hw.pipeline.writeback_ns = 40;
  so.hw.pipeline.lsq_depth = 2;

  auto pumped = KvService::Create(so);
  ASSERT_TRUE(pumped.ok()) << pumped.status().ToString();
  auto threaded = KvService::Create(so);
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();

  // Enqueue everything before Pump()/Start() so both drains see the same
  // full queues (and thus the same batch boundaries).
  auto fill = [](KvService& svc, std::vector<std::future<ServeResult>>& futs) {
    for (std::uint64_t key = 0; key < 200; ++key) {
      ServeRequest req;
      req.kind = RequestKind::kPut;
      req.key = key;
      req.value = Value(key);
      auto fut = svc.Submit(std::move(req));
      ASSERT_TRUE(fut.ok()) << fut.status().ToString();
      futs.push_back(std::move(*fut));
    }
  };
  std::vector<std::future<ServeResult>> pump_futs;
  std::vector<std::future<ServeResult>> thr_futs;
  fill(**pumped, pump_futs);
  fill(**threaded, thr_futs);
  (*pumped)->Pump();
  (*threaded)->Start();
  for (auto& fut : pump_futs) {
    EXPECT_TRUE(fut.get().status.ok());
  }
  for (auto& fut : thr_futs) {
    EXPECT_TRUE(fut.get().status.ok());
  }
  (*threaded)->Stop();

  const ServeStats a = (*pumped)->Stats();
  const ServeStats b = (*threaded)->Stats();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.request_p50_ns, b.request_p50_ns);
  EXPECT_EQ(a.request_p99_ns, b.request_p99_ns);
  for (int s = 0; s < 2; ++s) {
    Runtime& ra = (*pumped)->shard(s).rt();
    Runtime& rb = (*threaded)->shard(s).rt();
    ASSERT_EQ(ra.num_devices(), rb.num_devices());
    std::uint64_t stalls_a = 0;
    std::uint64_t stalls_b = 0;
    for (int d = 0; d < ra.num_devices(); ++d) {
      stalls_a += ra.device(d).stats().lsq_stalls;
      stalls_b += rb.device(d).stats().lsq_stalls;
    }
    EXPECT_EQ(stalls_a, stalls_b) << "shard " << s;
    EXPECT_EQ(ra.stats().MaxThreadTime(), rb.stats().MaxThreadTime())
        << "shard " << s;
    for (int v = 0; v < vcpus; ++v) {
      const ThreadId tid = (*pumped)->shard(s).WorkerTid(v);
      EXPECT_EQ(ra.Now(tid), rb.Now(tid)) << "shard " << s << " vcpu " << v;
    }
  }
  EXPECT_EQ((*threaded)->PpoViolations(), 0u);
}

TEST(KvServiceTest, PipelinedGeometryDeterministicAcrossPumpAndThreads) {
  for (int vcpus : {1, 2, 4}) {
    ExpectPumpMatchesThreads(vcpus);
  }
}

TEST(KvServiceTest, PipelinedLsqStallsAreReproducibleAcrossPumpRuns) {
  // Two virtual workers on one shard: their command streams interleave on
  // the single slow unit, the 1-deep LSQ fills, and two identical Pump
  // services must count the same stalls and land on the same virtual clock.
  ServeOptions so = SmallOptions(1);
  so.workers_per_shard = 2;
  so.value_size = 256;
  so.hw.units_per_device = 1;
  so.hw.cost.ndp_dma_ns_per_byte = 4.0;  // 0.25 GB/s: ~1 us of DMA per put
  so.hw.pipeline.dispatch_ns = 20;
  so.hw.pipeline.writeback_ns = 40;
  so.hw.pipeline.lsq_depth = 1;

  const auto run = [&so]() -> std::pair<std::uint64_t, SimTime> {
    auto svc = KvService::Create(so);
    EXPECT_TRUE(svc.ok()) << svc.status().ToString();
    std::vector<std::future<ServeResult>> futures;
    for (std::uint64_t key = 0; key < 120; ++key) {
      ServeRequest req;
      req.kind = RequestKind::kPut;
      req.key = key;
      req.value = Value(key);
      auto fut = (*svc)->Submit(std::move(req));
      EXPECT_TRUE(fut.ok()) << fut.status().ToString();
      futures.push_back(std::move(*fut));
    }
    (*svc)->Pump();
    for (auto& fut : futures) {
      EXPECT_TRUE(fut.get().status.ok());
    }
    Runtime& rt = (*svc)->shard(0).rt();
    std::uint64_t stalls = 0;
    for (int d = 0; d < rt.num_devices(); ++d) {
      stalls += rt.device(d).stats().lsq_stalls;
    }
    return {stalls, rt.stats().MaxThreadTime()};
  };

  const auto [stalls_a, clock_a] = run();
  const auto [stalls_b, clock_b] = run();
  EXPECT_GT(stalls_a, 0u) << "the bounded LSQ was never exercised";
  EXPECT_EQ(stalls_a, stalls_b);
  EXPECT_EQ(clock_a, clock_b);
}

TEST(KvServiceTest, MultiPutAppliesToEveryShard) {
  auto svc = KvService::Create(SmallOptions(3));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  std::vector<KvPair> pairs;
  for (std::uint64_t key = 500; key < 506; ++key) {
    pairs.push_back(KvPair{key, Value(key)});
  }
  ASSERT_TRUE((*svc)->ExecuteMultiPut(pairs).ok());
  for (const KvPair& pair : pairs) {
    Shard& shard = (*svc)->shard((*svc)->router().ShardFor(pair.key));
    std::lock_guard lock(shard.mu());
    auto got = shard.Get(shard.TxnTid(), pair.key);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, pair.value);
  }
  EXPECT_EQ((*svc)->Stats().txns, 1u);
}

TEST(KvServiceTest, CrashDuringCrossShardSyncRecoversAllOrNothing) {
  auto svc = KvService::Create(SmallOptions(3));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  std::vector<KvPair> pairs;
  for (std::uint64_t key = 700; key < 706; ++key) {
    pairs.push_back(KvPair{key, Value(key)});
  }
  // Stop after the first participant's local-complete: some shards applied
  // their slice, others never saw it -- the worst window for atomicity.
  TxnStop stop;
  stop.phase = TxnStopPhase::kAfterApply;
  stop.apply_ordinal = 0;
  const Status stopped = (*svc)->ExecuteMultiPut(pairs, stop);
  EXPECT_EQ(stopped.code(), StatusCode::kUnavailable);

  std::vector<CrashPlan> plans((*svc)->num_shards());
  (*svc)->CrashAll(plans);
  ASSERT_TRUE((*svc)->RecoverAll().ok());

  // The durable intent must have been redone on every shard: all-or-ALL.
  for (const KvPair& pair : pairs) {
    Shard& shard = (*svc)->shard((*svc)->router().ShardFor(pair.key));
    std::lock_guard lock(shard.mu());
    auto got = shard.Get(shard.TxnTid(), pair.key);
    ASSERT_TRUE(got.ok()) << "pair " << pair.key << " lost: "
                          << got.status().ToString();
    EXPECT_EQ(*got, pair.value);
  }
  EXPECT_EQ((*svc)->PpoViolations(), 0u);
}

TEST(KvServiceTest, ThroughputScalesWithShards) {
  auto throughput = [](int shards) {
    auto svc = KvService::Create(SmallOptions(shards));
    EXPECT_TRUE(svc.ok());
    for (std::uint64_t key = 0; key < 200; ++key) {
      ServeRequest req;
      req.kind = RequestKind::kPut;
      req.key = key;
      req.value = Value(key);
      EXPECT_TRUE((*svc)->Submit(std::move(req)).ok());
    }
    (*svc)->Pump();
    return (*svc)->Stats().throughput_ops_per_sec;
  };
  const double one = throughput(1);
  const double four = throughput(4);
  EXPECT_GT(one, 0.0);
  // Shards run on independent virtual machines; the makespan is the slowest
  // shard's clock, so 4 shards must come well out ahead of 1.
  EXPECT_GT(four, 2.0 * one);
}

TEST(KvServiceTest, StatsExposeQueueAndLatencyInstrumentation) {
  auto svc = KvService::Create(SmallOptions(2));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (std::uint64_t key = 0; key < 50; ++key) {
    ServeRequest req;
    req.kind = RequestKind::kPut;
    req.key = key;
    req.value = Value(key);
    ASSERT_TRUE((*svc)->Submit(std::move(req)).ok());
  }
  (*svc)->Pump();
  const ServeStats stats = (*svc)->Stats();
  EXPECT_EQ(stats.completed, 50u);
  EXPECT_EQ(stats.puts, 50u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.makespan_ns, 0u);
  EXPECT_GT(stats.request_p50_ns, 0u);
  EXPECT_GE(stats.request_p99_ns, stats.request_p50_ns);
  EXPECT_GT(stats.throughput_ops_per_sec, 0.0);
  // The registry is scrape-time only: the depth and batch-size histograms
  // appear after PublishMetrics folds the worker-local blocks in.
  (*svc)->PublishMetrics();
  EXPECT_NE((*svc)->metrics().histograms().find("serve_queue_depth"),
            (*svc)->metrics().histograms().end());
  EXPECT_NE((*svc)->metrics().histograms().find("serve_batch_size"),
            (*svc)->metrics().histograms().end());
}

// Regression for the deferred-metrics split: Stats() is one merge pass over
// the worker-local blocks and must equal the published registry totals, and
// both must be idempotent (scraping twice never double-counts).
TEST(KvServiceTest, StatsEqualsPublishedWorkerLocalCounts) {
  ServeOptions so = SmallOptions(2);
  so.workers_per_shard = 2;
  auto svc = KvService::Create(so);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  for (std::uint64_t key = 0; key < 60; ++key) {
    ServeRequest req;
    req.kind = key % 4 == 3 ? RequestKind::kGet : RequestKind::kPut;
    req.key = key;
    if (req.kind == RequestKind::kPut) {
      req.value = Value(key);
    }
    ASSERT_TRUE((*svc)->Submit(std::move(req)).ok());
  }
  (*svc)->Pump();
  std::vector<KvPair> pairs;
  for (std::uint64_t key = 900; key < 904; ++key) {
    pairs.push_back(KvPair{key, Value(key)});
  }
  ASSERT_TRUE((*svc)->ExecuteMultiPut(pairs).ok());

  const ServeStats first = (*svc)->Stats();
  EXPECT_EQ(first.completed, 60u);
  EXPECT_EQ(first.puts, 45u);
  EXPECT_EQ(first.gets, 15u);
  EXPECT_EQ(first.txns, 1u);

  // Stats() is pure: calling it again changes nothing.
  const ServeStats second = (*svc)->Stats();
  EXPECT_EQ(second.completed, first.completed);
  EXPECT_EQ(second.batches, first.batches);
  EXPECT_EQ(second.request_p99_ns, first.request_p99_ns);

  // Publishing twice stores the same totals (no accumulation), and the
  // registry view agrees with the merge pass.
  (*svc)->PublishMetrics();
  (*svc)->PublishMetrics();
  const auto& counters = (*svc)->metrics().counters();
  EXPECT_EQ(counters.at("serve_completed").load(), first.completed);
  EXPECT_EQ(counters.at("serve_puts").load(), first.puts);
  EXPECT_EQ(counters.at("serve_gets").load(), first.gets);
  EXPECT_EQ(counters.at("serve_txns").load(), first.txns);
  EXPECT_EQ(counters.at("serve_batches").load(), first.batches);
  EXPECT_EQ(counters.at("serve_enqueued").load(), 60u);
  const auto& histograms = (*svc)->metrics().histograms();
  // All 60 completions were local requests (the MultiPut ran directly, not
  // through a queue), so each added one request-latency sample.
  EXPECT_EQ(histograms.at("serve_request_ns").count(), 60u);
  EXPECT_EQ(histograms.at("serve_request_ns").Percentile(0.99),
            first.request_p99_ns);
  EXPECT_EQ(histograms.at("serve_txn_ns").count(), first.txns);
}

}  // namespace
}  // namespace serve
}  // namespace nearpm
