// nearpm_serve: threaded smoke driver for the sharded KV serving layer.
//
// Spins up the service with one OS thread per shard, pushes a deterministic
// request mix (puts, gets, periodic cross-shard MultiPuts) through the
// bounded queues, then reports throughput, latency percentiles, queue
// pressure and the PPO audit. Exit code is nonzero when the service made no
// progress or any shard's trace violates a Section 4 invariant -- CI runs
// this as the serve smoke gate.
//
// --replicas=K switches to replicated mode: --shards becomes the replica-group
// count and every group runs 1 primary + K-1 backups over the simulated
// fabric, with --protocol=pb (acked primary-backup log shipping) or redo
// (one-sided: the primary writes the backup's PM, NDP replays). The flag
// table in ServeMain() documents every flag and its default.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/repl/service.h"
#include "src/serve/service.h"

namespace nearpm {
namespace serve {
namespace {

struct CliOptions {
  int shards = 4;
  int workers = 4;
  std::uint64_t requests = 2000;
  std::uint64_t multiput_every = 50;
  int batch = 8;
  std::size_t queue = 64;
  std::string json_out;
  std::string metrics_out;
  int replicas = 1;
  std::string protocol = "pb";
};

std::vector<std::uint8_t> ValueFor(std::uint64_t key, std::uint32_t size) {
  std::vector<std::uint8_t> value(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    value[i] = static_cast<std::uint8_t>(key * 7 + i);
  }
  return value;
}

// Replicated smoke: the same deterministic request mix pushed through the
// replicated serving tier (src/repl), one OS thread per group. Every write is
// a replicated commit, so progress here exercises the fabric, both commit
// protocols, and the cross-replica retire path end to end.
int ReplServeMain(const CliOptions& cli) {
  auto protocol = repl::ReplProtocolFromName(cli.protocol);
  if (!protocol.ok()) {
    std::fprintf(stderr, "%s\n", protocol.status().ToString().c_str());
    return 2;
  }
  repl::ReplOptions ro;
  ro.groups = cli.shards;
  ro.replicas = cli.replicas;
  ro.protocol = *protocol;
  ro.workers_per_shard = cli.workers;
  ro.queue_capacity = cli.queue;
  ro.batch_max = cli.batch;
  auto svc = repl::ReplicatedKvService::Create(ro);
  if (!svc.ok()) {
    std::fprintf(stderr, "cannot create replicated service: %s\n",
                 svc.status().ToString().c_str());
    return 1;
  }

  (*svc)->Start();
  std::vector<std::future<serve::ServeResult>> futures;
  futures.reserve(cli.requests);
  std::uint64_t rejected = 0;
  for (std::uint64_t i = 0; i < cli.requests; ++i) {
    serve::ServeRequest req;
    if (cli.multiput_every > 0 && i % cli.multiput_every == 0) {
      req.kind = serve::RequestKind::kMultiPut;
      for (std::uint64_t j = 0; j < 4; ++j) {
        const std::uint64_t key = 100000 + i + j * 31;
        req.pairs.push_back(
            serve::KvPair{key, ValueFor(key, ro.value_size)});
      }
    } else if (i % 3 == 2) {
      req.kind = serve::RequestKind::kGet;
      req.key = i / 2;
    } else {
      req.kind = serve::RequestKind::kPut;
      req.key = i;
      req.value = ValueFor(i, ro.value_size);
    }
    bool admitted = false;
    for (int attempt = 0; attempt < 1000 && !admitted; ++attempt) {
      serve::ServeRequest copy = req;
      auto fut = (*svc)->Submit(std::move(copy));
      if (fut.ok()) {
        futures.push_back(std::move(*fut));
        admitted = true;
      } else {
        ++rejected;
        std::this_thread::yield();
      }
    }
  }
  for (auto& fut : futures) {
    fut.get();
  }
  (*svc)->Stop();

  std::string report;
  const std::uint64_t violations = (*svc)->PpoViolations(&report);
  const repl::ReplStats stats = (*svc)->Stats();

  std::printf("repl smoke: %d groups x %d replicas (%s) x %d vCPUs, "
              "batch_max=%d, queue=%zu\n",
              cli.shards, cli.replicas, repl::ReplProtocolName(*protocol),
              cli.workers, cli.batch, cli.queue);
  std::printf("  submitted:  %" PRIu64 " (%" PRIu64 " rejected by admission)\n",
              cli.requests, rejected);
  std::printf("  completed:  %" PRIu64 " (%" PRIu64 " puts, %" PRIu64
              " gets, %" PRIu64 " txns, %" PRIu64 " batches)\n",
              stats.completed, stats.puts, stats.gets, stats.txns,
              stats.batches);
  std::printf("  fabric:     %" PRIu64 " messages\n", stats.net_messages);
  std::printf("  makespan:   %" PRIu64 " simulated ns\n", stats.makespan_ns);
  std::printf("  latency:    p50=%" PRIu64 " ns, p99=%" PRIu64 " ns\n",
              stats.request_p50_ns, stats.request_p99_ns);
  std::printf("  commit:     p50=%" PRIu64 " ns, p99=%" PRIu64 " ns\n",
              stats.commit_p50_ns, stats.commit_p99_ns);
  std::printf("  throughput: %.0f ops/simulated-second\n",
              stats.throughput_ops_per_sec);
  std::printf("  PPO audit:  %" PRIu64 " violation(s)\n", violations);
  if (violations > 0) {
    std::printf("%s", report.c_str());
  }

  if (!cli.json_out.empty()) {
    std::ofstream out(cli.json_out, std::ios::trunc);
    out << "{\n"
        << "  \"groups\": " << cli.shards << ",\n"
        << "  \"replicas\": " << cli.replicas << ",\n"
        << "  \"protocol\": \"" << repl::ReplProtocolName(*protocol)
        << "\",\n"
        << "  \"workers_per_shard\": " << cli.workers << ",\n"
        << "  \"completed\": " << stats.completed << ",\n"
        << "  \"rejected\": " << rejected << ",\n"
        << "  \"txns\": " << stats.txns << ",\n"
        << "  \"batches\": " << stats.batches << ",\n"
        << "  \"net_messages\": " << stats.net_messages << ",\n"
        << "  \"makespan_ns\": " << stats.makespan_ns << ",\n"
        << "  \"request_p50_ns\": " << stats.request_p50_ns << ",\n"
        << "  \"request_p99_ns\": " << stats.request_p99_ns << ",\n"
        << "  \"commit_p50_ns\": " << stats.commit_p50_ns << ",\n"
        << "  \"commit_p99_ns\": " << stats.commit_p99_ns << ",\n"
        << "  \"throughput_ops_per_sec\": " << stats.throughput_ops_per_sec
        << ",\n"
        << "  \"ppo_violations\": " << violations << "\n"
        << "}\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.json_out.c_str());
      return 1;
    }
  }

  if (!cli.metrics_out.empty()) {
    (*svc)->ExportResourceMetrics();
    MetricsRegistry merged;
    merged.MergeFrom((*svc)->metrics());
    for (int n = 0; n < (*svc)->num_nodes(); ++n) {
      merged.MergeFrom((*svc)->node(n).recorder().metrics());
    }
    std::ofstream out(cli.metrics_out, std::ios::trunc);
    out << merged.ToPrometheus();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.metrics_out.c_str());
      return 1;
    }
  }

  if (stats.completed == 0 || stats.throughput_ops_per_sec <= 0) {
    std::fprintf(stderr, "FAIL: the replicated service made no progress\n");
    return 1;
  }
  if (stats.net_messages == 0) {
    std::fprintf(stderr, "FAIL: no replication traffic on the fabric\n");
    return 1;
  }
  if (violations > 0) {
    std::fprintf(stderr, "FAIL: PPO invariant violations\n");
    return 1;
  }
  return 0;
}

int ServeMain(int argc, char** argv) {
  CliOptions cli;
  const flags::Flag table[] = {
      {"--shards", &cli.shards, "N", "serving shards (default 4)", 1},
      {"--workers", &cli.workers, "N", "virtual CPUs per shard (default 4)", 1},
      {"--requests", &cli.requests, "N", "requests to submit (default 2000)"},
      {"--multiput-every", &cli.multiput_every, "N",
       "Nth request is a cross-shard MultiPut (0 off; default 50)"},
      {"--batch", &cli.batch, "N", "requests per doorbell (default 8)", 1},
      {"--queue", &cli.queue, "N", "per-shard queue capacity (default 64)", 1},
      {"--json-out", &cli.json_out, "FILE", "stats as one JSON object"},
      {"--metrics-out", &cli.metrics_out, "FILE",
       "Prometheus exposition incl. per-shard duty gauges"},
      {"--replicas", &cli.replicas, "K", "copies per group (default 1)", 1},
      {"--protocol", &cli.protocol, "pb|redo",
       "replication protocol (default pb)"},
  };
  if (const Status st = flags::Parse(argc, argv, table); !st.ok()) {
    return flags::UsageError(argv[0], table, st);
  }

  if (cli.replicas > 1) {
    return ReplServeMain(cli);
  }

  ServeOptions so;
  so.shards = cli.shards;
  so.workers_per_shard = cli.workers;
  so.queue_capacity = cli.queue;
  so.batch_max = cli.batch;
  auto svc = KvService::Create(so);
  if (!svc.ok()) {
    std::fprintf(stderr, "cannot create service: %s\n",
                 svc.status().ToString().c_str());
    return 1;
  }

  (*svc)->Start();
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(cli.requests);
  std::uint64_t rejected = 0;
  for (std::uint64_t i = 0; i < cli.requests; ++i) {
    ServeRequest req;
    if (cli.multiput_every > 0 && i % cli.multiput_every == 0) {
      req.kind = RequestKind::kMultiPut;
      for (std::uint64_t j = 0; j < 4; ++j) {
        const std::uint64_t key = 100000 + i + j * 31;
        req.pairs.push_back(KvPair{key, ValueFor(key, so.value_size)});
      }
    } else if (i % 3 == 2) {
      req.kind = RequestKind::kGet;
      req.key = i / 2;  // half the gets hit earlier puts, half miss
    } else {
      req.kind = RequestKind::kPut;
      req.key = i;
      req.value = ValueFor(i, so.value_size);
    }
    // Backpressure loop: a full queue rejects immediately; yield to the
    // shard threads and retry a few times before dropping the request.
    bool admitted = false;
    for (int attempt = 0; attempt < 1000 && !admitted; ++attempt) {
      ServeRequest copy = req;
      auto fut = (*svc)->Submit(std::move(copy));
      if (fut.ok()) {
        futures.push_back(std::move(*fut));
        admitted = true;
      } else {
        ++rejected;
        std::this_thread::yield();
      }
    }
  }
  for (auto& fut : futures) {
    fut.get();  // Get misses are fine; only completion matters here
  }
  (*svc)->Stop();

  std::string report;
  const std::uint64_t violations = (*svc)->PpoViolations(&report);
  const ServeStats stats = (*svc)->Stats();

  std::printf("serve smoke: %d shards x %d vCPUs, batch_max=%d, queue=%zu\n",
              cli.shards, cli.workers, cli.batch, cli.queue);
  std::printf("  submitted:  %" PRIu64 " (%" PRIu64 " rejected by admission)\n",
              cli.requests, rejected);
  std::printf("  completed:  %" PRIu64 " (%" PRIu64 " puts, %" PRIu64
              " gets, %" PRIu64 " txns, %" PRIu64 " batches)\n",
              stats.completed, stats.puts, stats.gets, stats.txns,
              stats.batches);
  std::printf("  makespan:   %" PRIu64 " simulated ns\n", stats.makespan_ns);
  std::printf("  latency:    p50=%" PRIu64 " ns, p99=%" PRIu64 " ns\n",
              stats.request_p50_ns, stats.request_p99_ns);
  std::printf("  throughput: %.0f ops/simulated-second\n",
              stats.throughput_ops_per_sec);
  std::printf("  PPO audit:  %" PRIu64 " violation(s)\n", violations);
  if (violations > 0) {
    std::printf("%s", report.c_str());
  }

  if (!cli.json_out.empty()) {
    std::ofstream out(cli.json_out, std::ios::trunc);
    out << "{\n"
        << "  \"shards\": " << cli.shards << ",\n"
        << "  \"workers_per_shard\": " << cli.workers << ",\n"
        << "  \"completed\": " << stats.completed << ",\n"
        << "  \"rejected\": " << rejected << ",\n"
        << "  \"txns\": " << stats.txns << ",\n"
        << "  \"batches\": " << stats.batches << ",\n"
        << "  \"makespan_ns\": " << stats.makespan_ns << ",\n"
        << "  \"request_p50_ns\": " << stats.request_p50_ns << ",\n"
        << "  \"request_p99_ns\": " << stats.request_p99_ns << ",\n"
        << "  \"throughput_ops_per_sec\": " << stats.throughput_ops_per_sec
        << ",\n"
        << "  \"ppo_violations\": " << violations << "\n"
        << "}\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.json_out.c_str());
      return 1;
    }
  }

  if (!cli.metrics_out.empty()) {
    // Fold every shard's trace into per-resource gauges, then merge the
    // shard recorders' phase counters/histograms into one exposition.
    (*svc)->ExportResourceMetrics();
    MetricsRegistry merged;
    merged.MergeFrom((*svc)->metrics());
    for (int s = 0; s < (*svc)->num_shards(); ++s) {
      merged.MergeFrom((*svc)->shard(s).recorder().metrics());
    }
    std::ofstream out(cli.metrics_out, std::ios::trunc);
    out << merged.ToPrometheus();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.metrics_out.c_str());
      return 1;
    }
  }

  if (stats.completed == 0 || stats.throughput_ops_per_sec <= 0) {
    std::fprintf(stderr, "FAIL: the service made no progress\n");
    return 1;
  }
  if (violations > 0) {
    std::fprintf(stderr, "FAIL: PPO invariant violations\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace serve
}  // namespace nearpm

int main(int argc, char** argv) {
  return nearpm::serve::ServeMain(argc, argv);
}
