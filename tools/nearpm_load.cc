// nearpm_load: million-op load generator for the sharded KV serving layer.
//
// Drives the threaded (Start/Stop) hot path -- lock-free shard rings, one
// OS thread per shard -- under two canonical load models:
//
//   * closed loop: N client threads, one outstanding request each; a client
//     submits, blocks on the completion future, then immediately issues the
//     next request. Throughput is admission-limited, latency is the
//     round-trip a synchronous caller sees.
//   * open loop: requests arrive on a fixed schedule (--qps) regardless of
//     how fast the service drains. Request i's *intended* start is
//     t0 + i/qps; latency is measured from the intended start, not the
//     actual submit, so queueing delay the pacer absorbed still counts
//     (the coordinated-omission correction). A full ring counts a drop
//     instead of silently re-pacing.
//
// Keys are drawn zipfian(theta) over --keys (theta=0 is uniform; theta>1 is
// supported via an exact inverse-CDF table, not the YCSB approximation).
// The generator is seeded, so the request *stream* is reproducible; wall
// numbers are not, and the committed baseline gates only the simulated-time
// counters and exact completion counts.
//
// Exit code is nonzero when either loop makes no progress or any shard's
// trace fails the PPO audit -- load must never outrun correctness.
//
// The flag table in Run() documents every flag and its default; a bad flag
// prints it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/stats.h"
#include "src/obs/slo.h"
#include "src/serve/service.h"

namespace nearpm {
namespace serve {
namespace {

struct CliOptions {
  std::string mode = "both";
  int shards = 4;
  int workers = 2;
  std::size_t queue = 256;
  int batch = 8;
  int clients = 4;
  std::uint64_t requests = 100000;
  std::uint64_t keys = 4096;
  std::uint32_t table_slots = 4096;
  double zipf = 0.99;
  std::uint64_t get_every = 3;
  std::uint64_t qps = 50000;
  std::uint64_t seed = 42;
  std::string json_out;
  std::string hist_out;
  std::string slo_file;
  obs::SloSpec slo;
  std::string flight_dump;
  std::size_t flight_capacity = obs::FlightRecorder::kDefaultCapacity;
};

// Exact zipfian(theta) sampler over [0, n): cumulative inverse-CDF table +
// binary search. Handles any theta >= 0 (including theta >= 1, where the
// usual YCSB closed form does not apply). Table build is O(n) once.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed)
      : rng_(seed), uniform_(0.0, 1.0) {
    cdf_.reserve(n);
    double total = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i), theta);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  std::uint64_t Next() {
    const double u = uniform_(rng_);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint64_t>(it - cdf_.begin());
  }

 private:
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> uniform_;
  std::vector<double> cdf_;
};

struct LoopResult {
  std::string name;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;   // open loop: drops at a full ring
  std::uint64_t errors = 0;     // non-OK completions (e.g. table full)
  double wall_seconds = 0;
  double wall_ops_per_sec = 0;
  std::uint64_t wall_p50_ns = 0;
  std::uint64_t wall_p99_ns = 0;
  double sim_ops_per_sec = 0;   // completed / makespan, simulated time
  std::uint64_t sim_p99_ns = 0;
  std::uint64_t ppo_violations = 0;
  Histogram wall_latency_ns;
  bool slo_armed = false;
  std::uint64_t slo_checks = 0;
  std::uint64_t slo_alerts = 0;
  std::vector<obs::SlowRequest> slo_slowest;  // from the last alert
};

StatusOr<std::unique_ptr<KvService>> MakeService(const CliOptions& cli) {
  ServeOptions so;
  so.shards = cli.shards;
  so.workers_per_shard = cli.workers;
  so.queue_capacity = cli.queue;
  so.batch_max = cli.batch;
  so.table_slots = cli.table_slots;
  so.flight_capacity = cli.flight_capacity;
  if (!cli.slo_file.empty()) {
    so.slo_enabled = true;
    so.slo = cli.slo;
    so.slo_dump_path = cli.flight_dump;
  }
  return KvService::Create(so);
}

ServeRequest MakeRequest(std::uint64_t i, std::uint64_t key,
                         std::uint64_t get_every) {
  ServeRequest req;
  if (get_every > 0 && i % get_every == get_every - 1) {
    req.kind = RequestKind::kGet;
    req.key = key;
  } else {
    req.kind = RequestKind::kPut;
    req.key = key;
    req.value.assign(8, static_cast<std::uint8_t>(key & 0xff));
  }
  return req;
}

void FinishLoop(KvService& svc, LoopResult* out) {
  svc.Stop();
  const ServeStats stats = svc.Stats();
  out->completed = stats.completed;
  out->sim_ops_per_sec = stats.throughput_ops_per_sec;
  out->sim_p99_ns = stats.request_p99_ns;
  out->wall_ops_per_sec =
      out->wall_seconds > 0
          ? static_cast<double>(out->completed) / out->wall_seconds
          : 0;
  out->wall_p50_ns = out->wall_latency_ns.Percentile(0.5);
  out->wall_p99_ns = out->wall_latency_ns.Percentile(0.99);
  out->ppo_violations = svc.PpoViolations();
  if (const obs::SloWatchdog* wd = svc.watchdog(); wd != nullptr) {
    out->slo_armed = true;
    out->slo_checks = wd->checks();
    out->slo_alerts = wd->alert_count();
    const std::vector<obs::SloAlert> alerts = wd->alerts();
    if (!alerts.empty()) {
      out->slo_slowest = alerts.back().window.slowest;
    }
  }
}

// Closed loop: `clients` threads, one outstanding request each. Rejections
// (full ring) retry after a yield, so every generated request completes.
LoopResult RunClosed(const CliOptions& cli) {
  LoopResult result;
  result.name = "load/closed:" + std::to_string(cli.shards) + "x" +
                std::to_string(cli.clients);
  auto svc = MakeService(cli);
  if (!svc.ok()) {
    std::fprintf(stderr, "service: %s\n", svc.status().ToString().c_str());
    std::exit(2);
  }
  (*svc)->Start();

  const std::uint64_t per_client =
      cli.requests / static_cast<std::uint64_t>(cli.clients);
  std::atomic<std::uint64_t> errors{0};
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cli.clients);
  for (int c = 0; c < cli.clients; ++c) {
    threads.emplace_back([&, c] {
      ZipfGenerator zipf(cli.keys, cli.zipf,
                         cli.seed + static_cast<std::uint64_t>(c));
      for (std::uint64_t i = 0; i < per_client; ++i) {
        const std::uint64_t key = zipf.Next();
        const auto t0 = std::chrono::steady_clock::now();
        std::future<ServeResult> done;
        while (true) {
          auto submitted =
              (*svc)->Submit(MakeRequest(i, key, cli.get_every));
          if (submitted.ok()) {
            done = std::move(*submitted);
            break;
          }
          std::this_thread::yield();  // backpressure: retry
        }
        const ServeResult res = done.get();
        const auto dt = std::chrono::steady_clock::now() - t0;
        result.wall_latency_ns.Add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count()));
        if (!res.status.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result.errors = errors.load();
  FinishLoop(**svc, &result);
  return result;
}

// Open loop: one pacer thread submits on the arrival schedule and a
// harvester joins completions in submission order. Latency is stamped
// against the *intended* start (t0 + i/qps). Harvesting in order can charge
// a fast completion with a slow predecessor's wait (head-of-line, the wrk2
// trade-off), which only ever *overstates* latency -- safe for a gate.
LoopResult RunOpen(const CliOptions& cli) {
  LoopResult result;
  result.name = "load/open:" + std::to_string(cli.shards) + "shards";
  auto svc = MakeService(cli);
  if (!svc.ok()) {
    std::fprintf(stderr, "service: %s\n", svc.status().ToString().c_str());
    std::exit(2);
  }
  (*svc)->Start();

  struct Inflight {
    std::future<ServeResult> done;
    std::chrono::steady_clock::time_point intended;
  };
  // Bounded handoff pacer -> harvester. A plain mutex ring is fine here:
  // the contended path is the service's, not the harness's.
  std::vector<Inflight> inflight(cli.requests > 0 ? cli.requests : 1);
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<bool> pacing_done{false};

  const auto t0 = std::chrono::steady_clock::now();
  const double ns_per_req =
      cli.qps > 0 ? 1e9 / static_cast<double>(cli.qps) : 0;

  std::thread pacer([&] {
    ZipfGenerator zipf(cli.keys, cli.zipf, cli.seed);
    for (std::uint64_t i = 0; i < cli.requests; ++i) {
      const auto intended =
          t0 + std::chrono::nanoseconds(
                   static_cast<std::uint64_t>(ns_per_req *
                                              static_cast<double>(i)));
      std::this_thread::sleep_until(intended);
      auto submitted =
          (*svc)->Submit(MakeRequest(i, zipf.Next(), cli.get_every));
      if (!submitted.ok()) {
        // Open loop: the arrival happened, the service shed it. Count the
        // drop; do not retry (that would re-couple arrivals to service
        // speed, the exact coordination the loop exists to avoid).
        rejected.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::uint64_t slot =
          produced.load(std::memory_order_relaxed);
      inflight[slot].done = std::move(*submitted);
      inflight[slot].intended = intended;
      produced.store(slot + 1, std::memory_order_release);
    }
    pacing_done.store(true, std::memory_order_release);
  });

  std::thread harvester([&] {
    std::uint64_t next = 0;
    while (true) {
      if (next < produced.load(std::memory_order_acquire)) {
        const ServeResult res = inflight[next].done.get();
        const auto dt =
            std::chrono::steady_clock::now() - inflight[next].intended;
        result.wall_latency_ns.Add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count()));
        if (!res.status.ok()) {
          ++result.errors;
        }
        ++next;
        continue;
      }
      if (pacing_done.load(std::memory_order_acquire) &&
          next >= produced.load(std::memory_order_acquire)) {
        return;
      }
      std::this_thread::yield();
    }
  });

  pacer.join();
  harvester.join();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.rejected = rejected.load();
  FinishLoop(**svc, &result);
  return result;
}

void PrintLoop(const LoopResult& r) {
  std::printf(
      "%-20s completed=%" PRIu64 " rejected=%" PRIu64 " errors=%" PRIu64
      "\n  wall: %.3fs  %.0f ops/s  p50=%" PRIu64 "ns p99=%" PRIu64
      "ns\n  sim:  %.0f ops/s  p99=%" PRIu64 "ns\n  ppo_violations=%" PRIu64
      "\n",
      r.name.c_str(), r.completed, r.rejected, r.errors, r.wall_seconds,
      r.wall_ops_per_sec, r.wall_p50_ns, r.wall_p99_ns, r.sim_ops_per_sec,
      r.sim_p99_ns, r.ppo_violations);
  if (r.slo_armed) {
    std::printf("  slo:  checks=%" PRIu64 " alerts=%" PRIu64, r.slo_checks,
                r.slo_alerts);
    if (!r.slo_slowest.empty()) {
      std::printf("  slowest=[");
      for (std::size_t i = 0; i < r.slo_slowest.size(); ++i) {
        std::printf("%s%" PRIu64 ":%" PRIu64 "ns", i > 0 ? ", " : "",
                    r.slo_slowest[i].trace, r.slo_slowest[i].latency_ns);
      }
      std::printf("]");
    }
    std::printf("\n");
  }
}

void AppendJson(std::string* out, const LoopResult& r) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "    {\n"
      "      \"name\": \"%s\",\n"
      "      \"iterations\": 1,\n"
      "      \"completed\": %" PRIu64 ",\n"
      "      \"rejected\": %" PRIu64 ",\n"
      "      \"errors\": %" PRIu64 ",\n"
      "      \"ppo_violations\": %" PRIu64 ",\n"
      "      \"sim_ops_per_sec\": %.1f,\n"
      "      \"sim_p99_ns\": %" PRIu64 ",\n"
      "      \"wall_ops_per_sec\": %.1f,\n"
      "      \"wall_p50_ns\": %" PRIu64 ",\n"
      "      \"wall_p99_ns\": %" PRIu64 "\n"
      "    }",
      r.name.c_str(), r.completed, r.rejected, r.errors, r.ppo_violations,
      r.sim_ops_per_sec, r.sim_p99_ns, r.wall_ops_per_sec, r.wall_p50_ns,
      r.wall_p99_ns);
  *out += buf;
}

void AppendHist(std::string* out, const LoopResult& r) {
  *out += "# " + r.name + " wall latency (bucket_upper_ns count)\n";
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t population = r.wall_latency_ns.bucket(i);
    if (population == 0) {
      continue;
    }
    const std::uint64_t upper = i == 0 ? 0 : (1ull << i) - 1;
    *out += std::to_string(upper) + " " + std::to_string(population) + "\n";
  }
}

int Run(int argc, char** argv) {
  CliOptions cli;
  const flags::Flag table[] = {
      {"--mode", &cli.mode, "closed|open|both", "load models (default both)"},
      {"--shards", &cli.shards, "N", "serving shards (default 4)", 1},
      {"--workers", &cli.workers, "N", "virtual CPUs per shard (default 2)", 1},
      {"--queue", &cli.queue, "N", "per-shard ring capacity (default 256)"},
      {"--batch", &cli.batch, "N", "requests per doorbell (default 8)"},
      {"--clients", &cli.clients, "N", "closed-loop clients (default 4)", 1},
      {"--requests", &cli.requests, "N", "per loop (default 100000)", 1},
      {"--keys", &cli.keys, "N", "keyspace size (default 4096)", 1},
      {"--table-slots", &cli.table_slots, "N", "table slots (default 4096)"},
      {"--zipf", &cli.zipf, "T", "zipfian theta, 0 = uniform (default 0.99)"},
      {"--get-every", &cli.get_every, "N", "every Nth is a Get (default 3)"},
      {"--qps", &cli.qps, "N", "open-loop arrival rate (default 50000)"},
      {"--seed", &cli.seed, "N", "key-stream seed (default 42)"},
      {"--json-out", &cli.json_out, "FILE", "google-benchmark-schema JSON"},
      {"--hist-out", &cli.hist_out, "FILE", "wall-latency histogram buckets"},
      {"--slo", &cli.slo_file, "FILE",
       "arm the SLO watchdog with this spec (src/obs/slo.h)"},
      {"--flight-dump", &cli.flight_dump, "FILE",
       "flight-record dump path, written only on a breach"},
      {"--flight-capacity", &cli.flight_capacity, "N",
       "flight-recorder ring slots (0 disables)"},
  };
  if (const Status st = flags::Parse(argc, argv, table); !st.ok()) {
    return flags::UsageError(argv[0], table, st);
  }
  if (cli.mode != "closed" && cli.mode != "open" && cli.mode != "both") {
    return flags::UsageError(
        argv[0], table,
        InvalidArgument("--mode=" + cli.mode + ": expected closed|open|both"));
  }
  if (!cli.slo_file.empty()) {
    auto spec = obs::LoadSloSpecFile(cli.slo_file);
    if (!spec.ok()) {
      std::fprintf(stderr, "slo: %s\n", spec.status().ToString().c_str());
      return 2;
    }
    cli.slo = *spec;
  }

  std::vector<LoopResult> results;
  if (cli.mode == "closed" || cli.mode == "both") {
    results.push_back(RunClosed(cli));
  }
  if (cli.mode == "open" || cli.mode == "both") {
    results.push_back(RunOpen(cli));
  }

  bool healthy = true;
  for (const LoopResult& r : results) {
    PrintLoop(r);
    if (r.completed == 0 || r.wall_ops_per_sec <= 0) {
      std::fprintf(stderr, "%s: no progress\n", r.name.c_str());
      healthy = false;
    }
    if (r.ppo_violations > 0) {
      std::fprintf(stderr, "%s: %" PRIu64 " PPO violations\n",
                   r.name.c_str(), r.ppo_violations);
      healthy = false;
    }
  }

  if (!cli.json_out.empty()) {
    std::string json = "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      AppendJson(&json, results[i]);
      json += i + 1 < results.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    std::ofstream out(cli.json_out);
    out << json;
  }
  if (!cli.hist_out.empty()) {
    std::string hist;
    for (const LoopResult& r : results) {
      AppendHist(&hist, r);
    }
    std::ofstream out(cli.hist_out);
    out << hist;
  }
  return healthy ? 0 : 1;
}

}  // namespace
}  // namespace serve
}  // namespace nearpm

int main(int argc, char** argv) { return nearpm::serve::Run(argc, argv); }
