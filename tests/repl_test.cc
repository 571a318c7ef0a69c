// Tests for src/repl: replica-group routing and promotion, both replication
// protocols (primary-backup and one-sided redo), deterministic failover from
// the durable log, full-cluster recovery, backpressure, the threaded path,
// the sync state machine under replica-interleaved signal orders, and the
// fabric/node metrics export.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "src/ndp/sync_machine.h"
#include "src/repl/service.h"

namespace nearpm {
namespace repl {
namespace {

std::vector<std::uint8_t> Value(std::uint64_t tag, std::uint32_t size = 16) {
  std::vector<std::uint8_t> v(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    v[i] = static_cast<std::uint8_t>(tag + i);
  }
  return v;
}

ReplOptions SmallOptions(int groups, int replicas,
                         ReplProtocol protocol = ReplProtocol::kPrimaryBackup) {
  ReplOptions ro;
  ro.groups = groups;
  ro.replicas = replicas;
  ro.protocol = protocol;
  ro.workers_per_shard = 1;
  ro.queue_capacity = 64;
  ro.batch_max = 4;
  ro.table_slots = 128;
  ro.value_size = 16;
  return ro;
}

// A key owned by `group` under the given router (search from `from`).
std::uint64_t KeyInGroup(const serve::ShardRouter& router, int group,
                         std::uint64_t from = 100) {
  std::uint64_t key = from;
  while (router.ShardFor(key) != group) {
    ++key;
  }
  return key;
}

// ---- Replica-group routing --------------------------------------------------

TEST(ReplRouterTest, NodeAddressingIsDense) {
  serve::ShardRouter router(3, 2);
  EXPECT_EQ(router.num_nodes(), 6);
  EXPECT_EQ(router.NodeFor(0, 0), 0);
  EXPECT_EQ(router.NodeFor(0, 1), 1);
  EXPECT_EQ(router.NodeFor(2, 1), 5);
  EXPECT_EQ(router.GroupOf(5), 2);
  EXPECT_EQ(router.ReplicaOf(5), 1);
  EXPECT_EQ(router.GroupOf(1), 0);
}

TEST(ReplRouterTest, PromotionReroutesTheGroup) {
  serve::ShardRouter router(2, 3);
  EXPECT_EQ(router.PrimaryReplica(1), 0);
  EXPECT_EQ(router.PrimaryNodeFor(1), 3);
  router.Promote(1, 2);
  EXPECT_EQ(router.PrimaryReplica(1), 2);
  EXPECT_EQ(router.PrimaryNodeFor(1), 5);
  EXPECT_EQ(router.PrimaryNodeFor(0), 0) << "other groups are unaffected";
}

// ---- Sync state machine under replica-interleaved signal orders -------------

TEST(SyncMachineReplTest, RemoteBeforeLocalCompletes) {
  SyncStateMachine m(2);
  ASSERT_TRUE(m.ReceiveCommand().ok());
  EXPECT_TRUE(m.ReceiveRemoteComplete(0).ok())
      << "a fast peer may signal before the local apply finishes";
  EXPECT_FALSE(m.AllComplete());
  EXPECT_TRUE(m.ReceiveLocalComplete().ok());
  EXPECT_TRUE(m.AllComplete());
}

TEST(SyncMachineReplTest, DuplicateAckAfterCompletionIsRejected) {
  // A backup re-sends its ack after the group already completed (e.g. the
  // retransmit races a promotion): the machine must reject it, not re-enter
  // the executing state.
  SyncStateMachine m(2);
  ASSERT_TRUE(m.ReceiveCommand().ok());
  ASSERT_TRUE(m.ReceiveLocalComplete().ok());
  ASSERT_TRUE(m.ReceiveRemoteComplete(0).ok());
  ASSERT_TRUE(m.AllComplete());
  const Status dup = m.ReceiveRemoteComplete(0);
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(m.AllComplete()) << "the duplicate must not change state";
}

TEST(SyncMachineReplTest, DuplicateAckWhileExecutingIsRejected) {
  SyncStateMachine m(3);
  ASSERT_TRUE(m.ReceiveCommand().ok());
  ASSERT_TRUE(m.ReceiveRemoteComplete(0).ok());
  const Status dup = m.ReceiveRemoteComplete(0);
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(m.remotes_pending(), 1) << "peer 1 is still outstanding";
}

TEST(SyncMachineReplTest, StalePrimarySignalAfterResetIsRejected) {
  // Failover abandons the in-flight command (Reset); signals from the
  // deposed primary arriving afterwards are stale and must be rejected.
  SyncStateMachine m(2);
  ASSERT_TRUE(m.ReceiveCommand().ok());
  m.Reset();
  EXPECT_EQ(m.ReceiveLocalComplete().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(m.ReceiveRemoteComplete(0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(m.AllComplete());
  // The next command starts a clean round.
  EXPECT_TRUE(m.ReceiveCommand().ok());
  EXPECT_TRUE(m.ReceiveLocalComplete().ok());
  EXPECT_TRUE(m.ReceiveRemoteComplete(0).ok());
  EXPECT_TRUE(m.AllComplete());
}

TEST(SyncMachineReplTest, OutOfRangePeerIndexIsRejected) {
  SyncStateMachine m(2);
  ASSERT_TRUE(m.ReceiveCommand().ok());
  EXPECT_EQ(m.ReceiveRemoteComplete(5).code(), StatusCode::kInvalidArgument);
}

// ---- Replicated commit ------------------------------------------------------

class ReplProtocolTest : public ::testing::TestWithParam<ReplProtocol> {};

TEST_P(ReplProtocolTest, PutReplicatesToEveryReplica) {
  auto svc_or = ReplicatedKvService::Create(SmallOptions(2, 2, GetParam()));
  ASSERT_TRUE(svc_or.ok()) << svc_or.status().ToString();
  ReplicatedKvService& svc = **svc_or;

  KvPair pair;
  pair.key = 42;
  pair.value = Value(7);
  ASSERT_TRUE(svc.ExecuteReplicatedTxn({pair}).ok());

  const int g = svc.router().ShardFor(pair.key);
  for (int r = 0; r < 2; ++r) {
    auto image = svc.DumpReplica(g, r);
    ASSERT_TRUE(image.ok());
    ASSERT_EQ(image->size(), 1u) << "replica " << r;
    EXPECT_EQ((*image)[0].key, pair.key);
    EXPECT_EQ((*image)[0].value, pair.value);
  }
  EXPECT_GT(svc.fabric().total_messages(), 0u)
      << "replication must ride the fabric";
}

TEST_P(ReplProtocolTest, CrossGroupTxnAppliesOnEveryReplica) {
  auto svc_or = ReplicatedKvService::Create(SmallOptions(2, 2, GetParam()));
  ASSERT_TRUE(svc_or.ok());
  ReplicatedKvService& svc = **svc_or;

  std::vector<KvPair> pairs;
  for (int g = 0; g < 2; ++g) {
    KvPair pair;
    pair.key = KeyInGroup(svc.router(), g, 200 + 50 * g);
    pair.value = Value(g + 1);
    pairs.push_back(std::move(pair));
  }
  ASSERT_TRUE(svc.ExecuteReplicatedTxn(pairs).ok());

  for (const KvPair& pair : pairs) {
    const int g = svc.router().ShardFor(pair.key);
    for (int r = 0; r < 2; ++r) {
      Shard& shard = svc.node(g, r);
      std::lock_guard lock(shard.mu());
      auto got = shard.Get(shard.TxnTid(), pair.key);
      ASSERT_TRUE(got.ok()) << "group " << g << " replica " << r;
      EXPECT_EQ(*got, pair.value);
    }
  }
}

TEST_P(ReplProtocolTest, RecoverAllAfterFullClusterCrash) {
  auto svc_or = ReplicatedKvService::Create(SmallOptions(2, 2, GetParam()));
  ASSERT_TRUE(svc_or.ok());
  ReplicatedKvService& svc = **svc_or;

  std::vector<KvPair> pairs;
  for (std::uint64_t key = 300; key < 306; ++key) {
    KvPair pair;
    pair.key = key;
    pair.value = Value(key);
    ASSERT_TRUE(svc.ExecuteReplicatedTxn({pair}).ok());
    pairs.push_back(std::move(pair));
  }

  std::vector<int> all_nodes;
  for (int n = 0; n < svc.num_nodes(); ++n) {
    all_nodes.push_back(n);
  }
  svc.CrashReplicas(all_nodes, std::vector<CrashPlan>(all_nodes.size()));
  for (int n = 0; n < svc.num_nodes(); ++n) {
    EXPECT_FALSE(svc.alive(n));
  }
  ASSERT_TRUE(svc.RecoverAll().ok());

  for (const KvPair& pair : pairs) {
    const int g = svc.router().ShardFor(pair.key);
    for (int r = 0; r < 2; ++r) {
      Shard& shard = svc.node(g, r);
      std::lock_guard lock(shard.mu());
      auto got = shard.Get(shard.TxnTid(), pair.key);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, pair.value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, ReplProtocolTest,
                         ::testing::Values(ReplProtocol::kPrimaryBackup,
                                           ReplProtocol::kOneSidedRedo),
                         [](const auto& info) {
                           return std::string(ReplProtocolName(info.param));
                         });

// ---- Failover ---------------------------------------------------------------

TEST(ReplFailoverTest, PromotedBackupServesAckedData) {
  auto svc_or = ReplicatedKvService::Create(SmallOptions(2, 2));
  ASSERT_TRUE(svc_or.ok());
  ReplicatedKvService& svc = **svc_or;

  KvPair pair;
  pair.key = KeyInGroup(svc.router(), 0);
  pair.value = Value(9);
  ASSERT_TRUE(svc.ExecuteReplicatedTxn({pair}).ok());

  const int primary = svc.router().PrimaryNodeFor(0);
  svc.CrashReplicas({primary}, {CrashPlan{}});
  auto down = svc.Read(pair.key);
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable)
      << "no failover yet: the dead primary still owns the route";

  ASSERT_TRUE(svc.Failover(0).ok());
  EXPECT_EQ(svc.router().PrimaryReplica(0), 1)
      << "the lowest live replica is promoted deterministically";
  EXPECT_EQ(svc.router().PrimaryNodeFor(0), svc.router().NodeFor(0, 1));

  auto got = svc.Read(pair.key);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, pair.value);
  EXPECT_EQ(svc.Stats().failovers, 1u);
}

TEST(ReplFailoverTest, PromotionReplaysSurvivingIntentFromTheDurableLog) {
  // The transaction stops after replication: the backup holds a durable
  // copy of the record but never applied it. When the primary dies, the
  // promoted backup must replay its log before taking traffic, so the
  // acked-at-replicate record is served, not lost.
  auto svc_or = ReplicatedKvService::Create(SmallOptions(2, 2));
  ASSERT_TRUE(svc_or.ok());
  ReplicatedKvService& svc = **svc_or;

  KvPair pair;
  pair.key = KeyInGroup(svc.router(), 1);
  pair.value = Value(13);
  ReplStop stop;
  stop.phase = ReplStopPhase::kAfterReplicate;
  const Status stopped = svc.ExecuteReplicatedTxn({pair}, stop);
  ASSERT_EQ(stopped.code(), StatusCode::kUnavailable);

  svc.CrashReplicas({svc.router().PrimaryNodeFor(1)}, {CrashPlan{}});
  ASSERT_TRUE(svc.Failover(1).ok());
  auto got = svc.Read(pair.key);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, pair.value);
  EXPECT_GE(svc.Stats().intent_redos, 1u);
}

TEST(ReplFailoverTest, FailoverWithNoLiveReplicaReportsUnavailable) {
  auto svc_or = ReplicatedKvService::Create(SmallOptions(1, 2));
  ASSERT_TRUE(svc_or.ok());
  ReplicatedKvService& svc = **svc_or;
  svc.CrashReplicas({0, 1}, std::vector<CrashPlan>(2));
  EXPECT_EQ(svc.Failover(0).code(), StatusCode::kUnavailable);
}

// ---- Queue path, backpressure, threading ------------------------------------

TEST(ReplServiceTest, SubmitPumpServesPutsAndGets) {
  auto svc_or = ReplicatedKvService::Create(SmallOptions(2, 2));
  ASSERT_TRUE(svc_or.ok());
  ReplicatedKvService& svc = **svc_or;

  std::vector<std::future<ServeResult>> puts;
  for (std::uint64_t key = 500; key < 510; ++key) {
    ServeRequest req;
    req.kind = RequestKind::kPut;
    req.key = key;
    req.value = Value(key);
    auto fut = svc.Submit(std::move(req));
    ASSERT_TRUE(fut.ok());
    puts.push_back(std::move(*fut));
  }
  EXPECT_GT(svc.Pump(), 0u);
  for (auto& fut : puts) {
    EXPECT_TRUE(fut.get().status.ok());
  }

  ServeRequest get;
  get.kind = RequestKind::kGet;
  get.key = 505;
  auto fut = svc.Submit(std::move(get));
  ASSERT_TRUE(fut.ok());
  svc.Pump();
  ServeResult result = fut->get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.value, Value(505));

  const ReplStats stats = svc.Stats();
  EXPECT_EQ(stats.puts, 10u);
  EXPECT_EQ(stats.gets, 1u);
  EXPECT_EQ(stats.completed, 11u);
  EXPECT_GT(stats.net_messages, 0u);
}

TEST(ReplServiceTest, FullQueueRejectsWithBackpressure) {
  ReplOptions ro = SmallOptions(1, 2);
  ro.queue_capacity = 2;
  auto svc_or = ReplicatedKvService::Create(ro);
  ASSERT_TRUE(svc_or.ok());
  ReplicatedKvService& svc = **svc_or;

  int rejected = 0;
  for (std::uint64_t key = 0; key < 8; ++key) {
    ServeRequest req;
    req.kind = RequestKind::kPut;
    req.key = key;
    req.value = Value(key);
    auto fut = svc.Submit(std::move(req));
    if (!fut.ok()) {
      EXPECT_EQ(fut.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0) << "a full group queue must push back";
  svc.Pump();
}

TEST(ReplServiceTest, ThreadedWorkersServeReplicatedWrites) {
  auto svc_or = ReplicatedKvService::Create(SmallOptions(2, 2));
  ASSERT_TRUE(svc_or.ok());
  ReplicatedKvService& svc = **svc_or;

  svc.Start();
  std::vector<std::future<ServeResult>> futures;
  for (std::uint64_t key = 700; key < 716; ++key) {
    ServeRequest req;
    req.kind = RequestKind::kPut;
    req.key = key;
    req.value = Value(key);
    auto fut = svc.Submit(std::move(req));
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(*fut));
  }
  for (auto& fut : futures) {
    EXPECT_TRUE(fut.get().status.ok());
  }
  svc.Stop();
  EXPECT_EQ(svc.Stats().completed, 16u);

  // Every write is durable on both replicas of its group.
  for (std::uint64_t key = 700; key < 716; ++key) {
    const int g = svc.router().ShardFor(key);
    for (int r = 0; r < 2; ++r) {
      Shard& shard = svc.node(g, r);
      std::lock_guard lock(shard.mu());
      auto got = shard.Get(shard.TxnTid(), key);
      ASSERT_TRUE(got.ok()) << "key " << key << " replica " << r;
      EXPECT_EQ(*got, Value(key));
    }
  }
}

// Same pre-filled group queues, `vcpus` virtual CPUs per node: the Pump
// drain and the threaded drain (one OS thread per group) must agree on every
// count and on every node's virtual clock. Single-key requests keep each
// group's traffic inside its own replicas, so only per-group batch order
// matters, and both modes rotate virtual CPUs in that order.
void ExpectPumpMatchesThreads(int vcpus) {
  SCOPED_TRACE("vcpus=" + std::to_string(vcpus));
  ReplOptions ro = SmallOptions(2, 2);
  ro.workers_per_shard = vcpus;
  ro.queue_capacity = 128;
  auto pumped = ReplicatedKvService::Create(ro);
  ASSERT_TRUE(pumped.ok()) << pumped.status().ToString();
  auto threaded = ReplicatedKvService::Create(ro);
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();

  // Every third request reads a key written earlier in the stream.
  auto fill = [](ReplicatedKvService& svc,
                 std::vector<std::future<ServeResult>>& futs) {
    for (std::uint64_t i = 0; i < 96; ++i) {
      ServeRequest req;
      req.kind = i % 3 == 2 ? RequestKind::kGet : RequestKind::kPut;
      req.key = req.kind == RequestKind::kGet ? i / 2 : i;
      if (req.kind == RequestKind::kPut) {
        req.value = Value(i);
      }
      auto fut = svc.Submit(std::move(req));
      ASSERT_TRUE(fut.ok()) << fut.status().ToString();
      futs.push_back(std::move(*fut));
    }
  };
  std::vector<std::future<ServeResult>> pump_futs;
  std::vector<std::future<ServeResult>> thr_futs;
  fill(**pumped, pump_futs);
  fill(**threaded, thr_futs);
  EXPECT_EQ((*pumped)->Pump(), pump_futs.size());
  (*threaded)->Start();
  for (std::size_t i = 0; i < pump_futs.size(); ++i) {
    const ServeResult a = pump_futs[i].get();
    const ServeResult b = thr_futs[i].get();
    EXPECT_EQ(a.status.code(), b.status.code()) << "request " << i;
    EXPECT_EQ(a.value, b.value) << "request " << i;
    EXPECT_EQ(a.latency_ns, b.latency_ns) << "request " << i;
  }
  (*threaded)->Stop();

  const ReplStats a = (*pumped)->Stats();
  const ReplStats b = (*threaded)->Stats();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.request_p99_ns, b.request_p99_ns);
  EXPECT_EQ(a.commit_p99_ns, b.commit_p99_ns);
  for (int n = 0; n < (*pumped)->num_nodes(); ++n) {
    EXPECT_EQ((*pumped)->node(n).rt().stats().MaxThreadTime(),
              (*threaded)->node(n).rt().stats().MaxThreadTime())
        << "node " << n;
  }
  EXPECT_EQ((*threaded)->PpoViolations(), 0u);
}

TEST(ReplServiceTest, PumpAndThreadsAgreeAcrossVirtualCpuCounts) {
  for (int vcpus : {1, 2, 4}) {
    ExpectPumpMatchesThreads(vcpus);
  }
}

// ---- Observability ----------------------------------------------------------

TEST(ReplServiceTest, ExportsNodeAndFabricResourceMetrics) {
  auto svc_or = ReplicatedKvService::Create(SmallOptions(2, 2));
  ASSERT_TRUE(svc_or.ok());
  ReplicatedKvService& svc = **svc_or;

  KvPair pair;
  pair.key = 42;
  pair.value = Value(1);
  ASSERT_TRUE(svc.ExecuteReplicatedTxn({pair}).ok());
  svc.ExportResourceMetrics();

  const std::string prom = svc.metrics().ToPrometheus("repl");
  EXPECT_NE(prom.find("node=\"fabric\""), std::string::npos)
      << "fabric link duty cycles must be published:\n" << prom;
  EXPECT_NE(prom.find("node=\"0\""), std::string::npos);
  // Replica track names carry '/' and spaces; the exposition must still be
  // well-formed (every label value quoted, no raw newlines inside quotes).
  EXPECT_EQ(prom.find("\n\""), std::string::npos);

  const auto& counters = svc.metrics().counters();
  EXPECT_TRUE(counters.contains("net_msgs_intent_ship") ||
              counters.contains("net_msgs_redo_write"))
      << "fabric message counters must fold into the service registry";
}

TEST(ReplServiceTest, PpoCleanOnTheHappyPath) {
  auto svc_or = ReplicatedKvService::Create(SmallOptions(2, 2));
  ASSERT_TRUE(svc_or.ok());
  ReplicatedKvService& svc = **svc_or;
  for (std::uint64_t key = 900; key < 906; ++key) {
    KvPair pair;
    pair.key = key;
    pair.value = Value(key);
    ASSERT_TRUE(svc.ExecuteReplicatedTxn({pair}).ok());
  }
  std::string report;
  EXPECT_EQ(svc.PpoViolations(&report), 0u) << report;
}

TEST(ReplServiceTest, ProtocolNamesRoundTrip) {
  EXPECT_STREQ(ReplProtocolName(ReplProtocol::kPrimaryBackup), "pb");
  EXPECT_STREQ(ReplProtocolName(ReplProtocol::kOneSidedRedo), "redo");
  auto pb = ReplProtocolFromName("pb");
  ASSERT_TRUE(pb.ok());
  EXPECT_EQ(*pb, ReplProtocol::kPrimaryBackup);
  auto redo = ReplProtocolFromName("redo");
  ASSERT_TRUE(redo.ok());
  EXPECT_EQ(*redo, ReplProtocol::kOneSidedRedo);
  EXPECT_FALSE(ReplProtocolFromName("chain").ok());
}

}  // namespace
}  // namespace repl
}  // namespace nearpm
