// kv-burst: the sharded KvService filled ring by ring and drained with
// Pump(), plus (traced runs) a threaded closed-loop probe of the same service.
//
// Every key is prefilled, and a value encodes (key, version), so each Get
// is checked: a miss, another key's bytes or a version nobody wrote counts
// as a failed op. kv-burst is single-threaded and deterministic, so the exact
// version every Get and the final table must hold is known; the threaded
// probe (concurrent writers) checks the key and that the version was issued.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "perfbench/runners.h"
#include "perfbench/layers.h"
#include "src/serve/service.h"

namespace nearpm {
namespace perfbench {
namespace {

using serve::KvPair;
using serve::KvService;
using serve::RequestKind;
using serve::ServeOptions;
using serve::ServeRequest;
using serve::ServeResult;
using serve::ServeStats;
using serve::Shard;

constexpr std::uint32_t kValueSize = 8;

std::vector<std::uint8_t> EncodeValue(std::uint64_t key,
                                      std::uint32_t version) {
  const std::uint64_t word = (static_cast<std::uint64_t>(version) << 32) |
                             (key & 0xffffffffu);
  std::vector<std::uint8_t> out(kValueSize);
  std::memcpy(out.data(), &word, sizeof(word));
  return out;
}

// The version a stored value carries, or -1 if it is not a value of `key`.
std::int64_t DecodeVersion(const std::vector<std::uint8_t>& value,
                           std::uint64_t key) {
  if (value.size() != kValueSize) {
    return -1;
  }
  std::uint64_t word = 0;
  std::memcpy(&word, value.data(), sizeof(word));
  if ((word & 0xffffffffu) != (key & 0xffffffffu)) {
    return -1;
  }
  return static_cast<std::int64_t>(word >> 32);
}

// Exact zipfian(theta) over [0, n) by inverse CDF (theta 0 = uniform).
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta, std::uint64_t seed) : rng_(seed) {
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
    const double u = rng_.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = static_cast<std::uint64_t>(it - cdf_.begin());
    return std::min<std::uint64_t>(rank, cdf_.size() - 1);
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

struct KvParams {
  int shards;
  int workers;
  std::size_t queue;
  int batch;
  std::uint64_t keys;
  std::uint32_t table_slots;
  std::uint64_t pm_size;
  double zipf;
  std::uint64_t get_every;
  std::uint64_t multiput_every;  // 0 = no MultiPut
  std::uint64_t multiput_keys;
  std::uint64_t requests;        // per round
  int probe_shards;              // threaded probe: service shards
  std::uint64_t probe_requests;  // threaded probe: timed requests per client
  std::uint64_t warmup;          // threaded probe: untimed ones per client
  int clients;
  std::uint64_t recover_cycles;
  std::uint64_t min_rounds;
  std::uint64_t audit_requests;   // requests of the PPO-audited round
  std::uint64_t plant_wrong_get;  // self-test: corrupt the Nth Get's value
};

KvParams ReadKvParams(const Flags& f) {
  KvParams p;
  p.shards = static_cast<int>(f.U64("shards", 2));
  p.workers = static_cast<int>(f.U64("workers", 2));
  p.queue = f.U64("queue", 256);
  p.batch = static_cast<int>(f.U64("batch", 8));
  p.keys = f.U64("keys", 4096);
  p.table_slots = static_cast<std::uint32_t>(f.U64("table-slots", 4096));
  p.pm_size = f.U64("pm-mb", 16) << 20;
  p.zipf = f.F64("zipf", 0.0);
  p.get_every = f.U64("get-every", 3);
  p.multiput_every = f.U64("multiput-every", 0);
  p.multiput_keys = f.U64("multiput-keys", 4);
  p.requests = f.U64("requests", 20000);
  p.probe_shards = static_cast<int>(f.U64("probe-shards", 2));
  p.probe_requests = f.U64("probe-requests", 5000);
  p.warmup = f.U64("warmup", 1000);
  p.clients = static_cast<int>(f.U64("clients", 2));
  p.recover_cycles = f.U64("recover-cycles", 4);
  p.min_rounds = f.U64("min-rounds", 4);
  p.audit_requests = f.U64("audit-requests", 1000);
  p.plant_wrong_get = f.U64("plant-wrong-get", 0);
  return p;
}

ServeOptions MakeOptions(const KvParams& p, ExecMode mode) {
  ServeOptions so;
  so.shards = p.shards;
  so.workers_per_shard = p.workers;
  so.queue_capacity = p.queue;
  so.batch_max = p.batch;
  so.table_slots = p.table_slots;
  so.value_size = kValueSize;
  so.pm_size = p.pm_size;
  so.mode = mode;
  return so;
}

// Get checking shared by kv-burst and its threaded probe. `expected` < 0
// accepts any version below `version_bound` (concurrent writers); otherwise
// the version must be exactly `expected`.
class GetChecker {
 public:
  explicit GetChecker(std::uint64_t plant_nth) : plant_nth_(plant_nth) {}
  void Check(const ServeResult& res, std::uint64_t key, std::int64_t expected,
             std::uint64_t version_bound, Result& result) {
    const std::uint64_t nth = gets_.fetch_add(1) + 1;
    if (!res.status.ok()) {
      result.Fail("get " + std::to_string(key) + ": " + res.status.ToString());
      return;
    }
    std::vector<std::uint8_t> value = res.value;
    if (nth == plant_nth_ && !value.empty()) {
      value[0] ^= 0x5a;  // planted wrong value (benchmark self-test)
    }
    const std::int64_t version = DecodeVersion(value, key);
    if (version < 0 || (expected >= 0 && version != expected) ||
        static_cast<std::uint64_t>(version) >= version_bound) {
      result.Fail("get " + std::to_string(key) + " returned version " +
                  std::to_string(version) + ", expected " +
                  std::to_string(expected));
    }
  }

 private:
  std::uint64_t plant_nth_;
  std::atomic<std::uint64_t> gets_{0};
};

// Host- and sim-time totals of one round (one fresh service).
struct RoundStats {
  double setup_ns = 0;
  double window_ns = 0;  // timed host window
  double timed = 0;      // requests completed inside it
  Samples lat_ns;        // Submit -> result
  Samples submit_ns;     // inside Submit (threaded probe)
  Samples wait_ns;       // Submit return -> result ready (threaded probe)
  double pump_ns = 0;
  double pumped = 0;
  double retries = 0;
  double attempts = 0;  // Submit calls, rejected ones included
  ServeStats stats;     // deltas over the traffic phase
  double makespan_ns = 0;
  SimCounters sim;
  double events = 0;
  double flight_events = 0;
  double ppo = 0;
  Samples recover_ns;
  double recover_sim_ns = 0;
  double recoveries = 0;
};

SimCounters ServiceCounters(KvService& svc) {
  SimCounters total;
  for (int s = 0; s < svc.num_shards(); ++s) {
    std::lock_guard lock(svc.shard(s).mu());
    total += SimCounters::Of(svc.shard(s).rt());
  }
  return total;
}

double ServiceEvents(KvService& svc) {
  double events = 0;
  for (int s = 0; s < svc.num_shards(); ++s) {
    events += static_cast<double>(svc.shard(s).recorder().recorded());
  }
  return events;
}

// Submits until accepted, draining with Pump() between attempts when
// `pump` is set (kv-burst) or yielding to the workers (threaded probe).
std::future<ServeResult> SubmitRetry(KvService& svc, const ServeRequest& req,
                                     bool pump, RoundStats& rs,
                                     const std::function<void()>& on_pump) {
  while (true) {
    ++rs.attempts;
    auto submitted = svc.Submit(req);
    if (submitted.ok()) {
      return std::move(*submitted);
    }
    ++rs.retries;
    if (pump) {
      on_pump();
    } else {
      std::this_thread::yield();
    }
  }
}

// Writes version 0 of every key through the service (Submit + Pump).
bool Prefill(KvService& svc, std::uint64_t n, Result& result) {
  std::vector<std::future<ServeResult>> pending;
  RoundStats ignored;
  for (std::uint64_t key = 0; key < n; ++key) {
    ServeRequest req;
    req.kind = RequestKind::kPut;
    req.key = key;
    req.value = EncodeValue(key, 0);
    pending.push_back(
        SubmitRetry(svc, req, true, ignored, [&] { svc.Pump(); }));
  }
  svc.Pump();
  bool ok = true;
  for (auto& f : pending) {
    const ServeResult res = f.get();
    if (!res.status.ok()) {
      result.Fail("prefill: " + res.status.ToString());
      ok = false;
    }
  }
  return ok;
}

// The versions every key must hold. kv-burst knows them exactly; the
// threaded probe (concurrent writers) only knows an upper bound, and `exact`
// stays empty.
struct KeyModel {
  std::vector<std::uint32_t> exact;
  std::uint32_t next_version = 1;  // every written version is below this

  std::int64_t Expect(std::uint64_t key) const {
    return exact.empty() ? -1 : static_cast<std::int64_t>(exact[key]);
  }
  std::uint32_t Write(std::uint64_t key) {
    const std::uint32_t v = next_version++;
    if (!exact.empty()) {
      exact[key] = v;
    }
    return v;
  }
};

// Reads every key straight from its shard (under the shard lock) and
// checks it against `model`.
void VerifyAllKeys(KvService& svc, std::uint64_t n, const KeyModel& model,
                   Result& result) {
  Span span("serve.VerifyKeys");
  GetChecker checker(0);
  for (std::uint64_t key = 0; key < n; ++key) {
    Shard& shard = svc.shard(svc.router().ShardFor(key));
    std::lock_guard lock(shard.mu());
    ServeResult res;
    auto value = shard.Get(shard.TxnTid(), key);
    res.status = value.status();
    if (value.ok()) {
      res.value = std::move(*value);
    }
    ++result.attempted;
    checker.Check(res, key, model.Expect(key), model.next_version, result);
  }
}

std::unique_ptr<KvService> CreateService(const KvParams& p, ExecMode mode,
                                         std::uint64_t n_keys, RoundStats& rs,
                                         Result& result) {
  const std::uint64_t t0 = NowNs();
  std::unique_ptr<KvService> svc;
  {
    Span span("serve.Create");
    auto created = KvService::Create(MakeOptions(p, mode));
    ++result.attempted;
    if (!created.ok()) {
      result.Fail("KvService::Create: " + created.status().ToString());
      return nullptr;
    }
    svc = std::move(*created);
  }
  {
    Span span("serve.Prefill");
    if (!Prefill(*svc, n_keys, result)) {
      return nullptr;
    }
  }
  rs.setup_ns = static_cast<double>(NowNs() - t0);
  return svc;
}

// Service counters at the start of the traffic phase (after prefill).
struct TrafficStart {
  ServeStats stats;
  SimCounters sim;
  double events = 0;
  double flight_events = 0;
};

double FlightEvents(KvService& svc) {
  return svc.flight() != nullptr
             ? static_cast<double>(svc.flight()->accepted())
             : 0;
}

TrafficStart BeginTraffic(KvService& svc) {
  return TrafficStart{svc.Stats(), ServiceCounters(svc), ServiceEvents(svc),
                      FlightEvents(svc)};
}

// Fills in the per-round sim/serve deltas after the traffic phase.
void CloseTraffic(KvService& svc, const TrafficStart& start, RoundStats& rs) {
  const ServeStats after = svc.Stats();
  rs.stats.completed = after.completed - start.stats.completed;
  rs.stats.batches = after.batches - start.stats.batches;
  rs.stats.rejected = after.rejected - start.stats.rejected;
  rs.stats.txns = after.txns - start.stats.txns;
  rs.makespan_ns =
      static_cast<double>(after.makespan_ns - start.stats.makespan_ns);
  rs.sim = ServiceCounters(svc) - start.sim;
  rs.events = ServiceEvents(svc) - start.events;
  rs.flight_events = FlightEvents(svc) - start.flight_events;
}

std::map<std::string, double> RoundFingerprint(const RoundStats& rs) {
  std::map<std::string, double> sim;
  sim["completed"] = static_cast<double>(rs.stats.completed);
  sim["batches"] = static_cast<double>(rs.stats.batches);
  sim["rejected"] = static_cast<double>(rs.stats.rejected);
  sim["txns"] = static_cast<double>(rs.stats.txns);
  sim["makespan_ns"] = rs.makespan_ns;
  sim["cc_region_ns"] = rs.sim.cc_region_ns;
  sim["recover_sim_ns"] = rs.recover_sim_ns;
  for (int i = 0; i < SimCounters::kCategories; ++i) {
    sim[SimCounters::kCategoryNames[i]] = rs.sim.category_ns[i];
  }
  for (int i = 0; i < SimCounters::kCommands; ++i) {
    sim[SimCounters::kCommandNames[i]] = rs.sim.commands[i];
  }
  for (int i = 0; i < SimCounters::kDevice; ++i) {
    sim[SimCounters::kDeviceNames[i]] = rs.sim.device[i];
  }
  return sim;
}

// Direct Shard::Put / Get under mu() on a shard built like the service's,
// with its trace recorder attached and detached (traced runs only).
void ShardProbe(const KvParams& p, Result& result) {
  serve::ShardOptions so;
  so.pm_size = p.pm_size;
  so.table_slots = p.table_slots;
  so.value_size = kValueSize;
  so.workers = p.workers;
  auto created = Shard::Create(so, 0);
  ++result.attempted;
  if (!created.ok()) {
    result.Fail("Shard::Create: " + created.status().ToString());
    return;
  }
  Shard& shard = **created;
  std::lock_guard lock(shard.mu());
  const std::uint64_t keys = p.table_slots / 2;
  const std::uint64_t ops = 4 * keys;
  double total_ns[2] = {0, 0};  // [attached, detached]
  for (int detached = 0; detached < 2; ++detached) {
    shard.rt().AttachTrace(detached ? nullptr : &shard.recorder());
    Samples put_ns;
    Samples get_ns;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t key = i % keys;
      const std::uint32_t version = static_cast<std::uint32_t>(i + 1);
      std::uint64_t t0 = NowNs();
      Status st;
      {
        Span span("shard.Put");
        st = shard.Put(shard.WorkerTid(0), key, EncodeValue(key, version));
      }
      std::uint64_t t1 = NowNs();
      put_ns.Add(static_cast<double>(t1 - t0));
      StatusOr<std::vector<std::uint8_t>> got = std::vector<std::uint8_t>{};
      {
        Span span("shard.Get");
        got = shard.Get(shard.WorkerTid(0), key);
      }
      get_ns.Add(static_cast<double>(NowNs() - t1));
      result.attempted += 2;
      if (!st.ok()) {
        result.Fail("shard put: " + st.ToString());
      } else if (!got.ok() || DecodeVersion(*got, key) != version) {
        result.Fail("shard get " + std::to_string(key) + " mismatch");
      }
    }
    total_ns[detached] = put_ns.sum() + get_ns.sum();
    if (!detached) {
      result.metrics["shard.put_ns.p50"] = put_ns.Percentile(0.5);
      result.metrics["shard.get_ns.p50"] = get_ns.Percentile(0.5);
    }
  }
  shard.rt().AttachTrace(&shard.recorder());
  if (total_ns[0] > 0) {
    result.metrics["trace.record_share"] = 1.0 - total_ns[1] / total_ns[0];
  }
}

// Rounds alternate NearPM MD and CPU baseline services (baseline rounds only
// feed the sim speed-ups); host metrics come from MD rounds.
struct KvTotals {
  std::vector<RoundStats> md;
  std::vector<RoundStats> baseline;
};

void PublishKv(const KvTotals& t, bool trace, double untraced_ns_per_req,
               const ProfileTotals& prof, Result& r) {
  Samples lat;
  Samples recover;
  std::vector<double> setup;
  double timed = 0;
  double window_ns = 0;
  std::vector<double> sim_rate[2];
  std::vector<double> region_per_op[2];
  double recover_sim = 0;
  double recoveries = 0;
  double pump_ns = 0;
  double pumped = 0;
  double retries = 0;
  double attempts = 0;
  double completed = 0;
  double batches = 0;
  double txns = 0;
  double makespan = 0;
  double events = 0;
  double flight = 0;
  double traced_ns = 0;
  double traced_reqs = 0;
  SimCounters sim;
  for (int m = 0; m < 2; ++m) {
    for (const RoundStats& rs : m == 0 ? t.baseline : t.md) {
      const double done = static_cast<double>(rs.stats.completed);
      if (rs.makespan_ns > 0 && done > 0) {
        sim_rate[m].push_back(done * 1e9 / rs.makespan_ns);
        region_per_op[m].push_back(rs.sim.cc_region_ns / done);
      }
    }
  }
  for (std::size_t i = 0; i < t.md.size(); ++i) {
    const RoundStats& rs = t.md[i];
    lat.Append(rs.lat_ns);
    recover.Append(rs.recover_ns);
    setup.push_back(rs.setup_ns);
    timed += rs.timed;
    window_ns += rs.window_ns;
    recover_sim += rs.recover_sim_ns;
    recoveries += rs.recoveries;
    pump_ns += rs.pump_ns;
    pumped += rs.pumped;
    retries += rs.retries;
    attempts += rs.attempts;
    completed += static_cast<double>(rs.stats.completed);
    batches += static_cast<double>(rs.stats.batches);
    txns += static_cast<double>(rs.stats.txns);
    makespan += rs.makespan_ns;
    events += rs.events;
    flight += rs.flight_events;
    sim += rs.sim;
    if (i > 0) {  // round 0 of a traced run is the untraced reference
      traced_ns += rs.lat_ns.sum();
      traced_reqs += static_cast<double>(rs.lat_ns.count());
    }
  }
  for (const auto& rs : t.baseline) {
    setup.push_back(rs.setup_ns);
  }
  r.metrics["setup_s"] = Median(setup) * 1e-9;
  r.metrics["ops_per_s"] = window_ns > 0 ? timed * 1e9 / window_ns : 0;
  r.Percentiles("lat_p50_us", "lat_p99_us", lat, 1e-3);
  r.Percentiles("recover_p50_us", "recover_p99_us", recover, 1e-3);
  const double md_rate = Median(sim_rate[1]);
  const double base_rate = Median(sim_rate[0]);
  r.metrics["sim_ops_per_s"] = md_rate;
  r.metrics["sim_speedup_e2e"] = base_rate > 0 ? md_rate / base_rate : 0;
  const double md_region = Median(region_per_op[1]);
  r.metrics["sim_speedup_region"] =
      md_region > 0 ? Median(region_per_op[0]) / md_region : 0;
  r.metrics["sim_recover_us"] =
      recoveries > 0 ? recover_sim / recoveries * 1e-3 : 0;
  if (!trace || completed <= 0) {
    return;
  }
  if (pumped > 0) {
    r.metrics["serve.pump_ns_per_req"] = pump_ns / pumped;
  }
  r.metrics["serve.batch_mean"] = batches > 0 ? completed / batches : 0;
  r.metrics["serve.reject_ratio"] = attempts > 0 ? retries / attempts : 0;
  r.metrics["serve.retries"] = retries / static_cast<double>(t.md.size());
  r.metrics["serve.txns"] = txns / static_cast<double>(t.md.size());
  r.metrics["serve.sim_makespan_ns"] =
      makespan / static_cast<double>(t.md.size());
  r.metrics["trace.events_per_req"] = events / completed;
  r.metrics["obs.flight_events_per_req"] = flight / completed;
  if (untraced_ns_per_req > 0 && traced_reqs > 0) {
    r.metrics["trace.overhead_ratio"] =
        traced_ns / traced_reqs / untraced_ns_per_req;
  }
  PublishPerOp(sim, completed, r);
  PublishCategories(sim, completed, "logging.md", r);
  if (recoveries > 0) {
    r.metrics["pmlib.sim_recover_ns.logging"] = recover_sim / recoveries;
  }
  prof.Publish(r);
}

// Quiesced-service epilogue of a round: the traced profile fold, the PPO
// audit of every shard trace (audit round only), then on MD rounds
// `recover_cycles` power failures.
// Each leaves one cross-shard transaction mid-flight (seeded size and stop
// phase, intent already durable), fails every shard with a seeded survival
// mask, and is followed by RecoverAll -- which must redo the transaction --
// and a full-table check.
void Epilogue(KvService& svc, const KvParams& p, std::uint64_t n_keys,
              bool audit, bool traced, std::uint64_t seed,
              KeyModel& model, ProfileTotals& prof, RoundStats& rs,
              Result& result) {
  const bool md = svc.options().mode == ExecMode::kNdpMultiDelayed;
  if (traced && md) {
    Span span("prof.BuildProfile");
    for (int s = 0; s < svc.num_shards(); ++s) {
      std::lock_guard lock(svc.shard(s).mu());
      prof.Add(BuildProfile(svc.shard(s).recorder()), result);
    }
  }
  if (audit) {
    {
      Span span("serve.PpoViolations");
      rs.ppo = static_cast<double>(svc.PpoViolations());
    }
    ++result.attempted;
    if (rs.ppo > 0) {
      result.Fail(std::to_string(static_cast<std::uint64_t>(rs.ppo)) +
                  " PPO violations in the shard traces");
    }
  }
  const std::uint64_t cycles = md ? p.recover_cycles : 0;
  Rng rng(seed);
  constexpr serve::TxnStopPhase kStops[] = {
      serve::TxnStopPhase::kAfterIntent, serve::TxnStopPhase::kMidApply,
      serve::TxnStopPhase::kAfterApply, serve::TxnStopPhase::kAfterSync};
  for (std::uint64_t c = 0; c < cycles; ++c) {
    std::vector<KvPair> pairs;
    const std::uint64_t n_pairs = rng.NextInRange(1, Shard::kMaxTxnPairs);
    while (pairs.size() < n_pairs) {
      const std::uint64_t key = rng.NextBounded(n_keys);
      bool dup = false;
      for (const KvPair& kp : pairs) {
        dup = dup || kp.key == key;
      }
      if (!dup) {
        pairs.push_back(KvPair{key, EncodeValue(key, model.Write(key))});
      }
    }
    serve::TxnStop stop;
    stop.phase = kStops[rng.NextBounded(4)];
    {
      Span span("serve.ExecuteMultiPut");
      svc.ExecuteMultiPut(pairs, stop);  // abandoned: reports Unavailable
    }
    std::vector<CrashPlan> plans(static_cast<std::size_t>(svc.num_shards()));
    for (int s = 0; s < svc.num_shards(); ++s) {
      Runtime& rt = svc.shard(s).rt();
      plans[s].crash_time = rt.stats().MaxThreadTime();
      plans[s].line_survival.resize(rt.space().PendingLineAddrs().size());
      for (std::size_t i = 0; i < plans[s].line_survival.size(); ++i) {
        plans[s].line_survival[i] = rng.NextBool(0.5);
      }
    }
    const std::uint64_t t0 = NowNs();
    {
      Span span("serve.CrashAll");
      svc.CrashAll(plans);
    }
    Status st;
    {
      Span span("serve.RecoverAll");
      st = svc.RecoverAll();
    }
    ++result.attempted;
    if (!st.ok()) {
      result.Fail("RecoverAll: " + st.ToString());
      return;
    }
    double sim_ns = 0;
    for (int s = 0; s < svc.num_shards(); ++s) {
      sim_ns = std::max(sim_ns, static_cast<double>(svc.shard(s).MakespanNs()));
    }
    VerifyAllKeys(svc, n_keys, model, result);
    rs.recover_ns.Add(static_cast<double>(NowNs() - t0));
    rs.recover_sim_ns += sim_ns;
    rs.recoveries += 1;
  }
}

// The threaded serving path -- admission, worker wake-up, shard lock,
// promise completion -- under `clients` closed-loop clients on a fresh
// `probe-shards` x `workers` MD service, as a probe in the traced run only.
// Its host times swing with CPU contention on a shared host by far more than
// an end-to-end bound can absorb (throughput halved and p99 tripled within
// minutes on a 4-vCPU VM), so it feeds per-layer metrics only.
void ThreadedProbe(const RunContext& ctx, KvParams p, GetChecker& checker) {
  Result& r = ctx.result;
  p.shards = p.probe_shards;
  RoundStats setup;
  auto svc = CreateService(p, ExecMode::kNdpMultiDelayed, p.keys, setup, r);
  if (svc == nullptr) {
    return;
  }
  svc->Start();

  std::atomic<std::uint32_t> next_version{1};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<RoundStats> client_stats(static_cast<std::size_t>(p.clients));
  std::vector<Result> client_results(static_cast<std::size_t>(p.clients));
  std::vector<std::thread> clients;
  for (int c = 0; c < p.clients; ++c) {
    clients.emplace_back([&, c] {
      RoundStats& cs = client_stats[c];
      Result& cr = client_results[c];
      Zipf zipf(p.keys, p.zipf, MixSeed(ctx.seed, c));
      // One request; only timed ones are sampled.
      const auto issue = [&](std::uint64_t i, bool timed) {
        ServeRequest req;
        req.key = zipf.Next();
        if (p.get_every > 0 && i % p.get_every == p.get_every - 1) {
          req.kind = RequestKind::kGet;
        } else {
          req.kind = RequestKind::kPut;
          req.value = EncodeValue(req.key, next_version.fetch_add(1));
        }
        Span request_span("bench.request");
        const std::uint64_t t0 = NowNs();
        std::future<ServeResult> done;
        {
          Span span("serve.Submit");
          done = SubmitRetry(*svc, req, false, cs, {});
        }
        const std::uint64_t t1 = NowNs();
        ServeResult res;
        {
          Span span("serve.Wait");
          res = done.get();
        }
        const std::uint64_t t2 = NowNs();
        request_span.set_id(res.trace_id);
        ++cr.attempted;
        if (req.kind == RequestKind::kGet) {
          checker.Check(res, req.key, -1, next_version.load(), cr);
        } else if (!res.status.ok()) {
          cr.Fail("put: " + res.status.ToString());
        }
        if (timed) {
          cs.submit_ns.Add(static_cast<double>(t1 - t0));
          cs.wait_ns.Add(static_cast<double>(t2 - t1));
        }
      };
      for (std::uint64_t i = 0; i < p.warmup; ++i) {
        issue(i, false);
      }
      ready.fetch_add(1);
      while (!go.load()) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = p.warmup; i < p.warmup + p.probe_requests; ++i) {
        issue(i, true);
      }
    });
  }
  while (ready.load() < p.clients) {
    std::this_thread::yield();
  }
  go.store(true);
  for (auto& t : clients) {
    t.join();
  }
  {
    Span span("serve.Stop");
    svc->Stop();
  }
  Samples submit_ns;
  Samples wait_ns;
  for (int c = 0; c < p.clients; ++c) {
    submit_ns.Append(client_stats[c].submit_ns);
    wait_ns.Append(client_stats[c].wait_ns);
    r.Merge(client_results[c]);
  }
  KeyModel model;
  model.next_version = next_version.load();
  VerifyAllKeys(*svc, p.keys, model, r);
  r.Percentiles("serve.submit_ns.p50", "serve.submit_ns.p99", submit_ns, 1.0);
  r.Percentiles("serve.wait_ns.p50", "serve.wait_ns.p99", wait_ns, 1.0);
}

// One kv-burst round on a fresh service: `requests` requests of the seeded
// stream, submitted until a ring rejects, then drained with Pump().
std::optional<RoundStats> BurstRound(const RunContext& ctx, const KvParams& p,
                                     bool md, std::uint64_t requests,
                                     bool audit, bool traced,
                                     GetChecker& checker,
                                     ProfileTotals& prof) {
  Result& r = ctx.result;
  // MultiPut keys live above the Put/Get keys, so no in-stream Get races a
  // cross-shard transaction's participants. MultiPuts queued at different
  // coordinator shards are not ordered against each other (each shard drains
  // its own ring), so a MultiPut only takes keys no MultiPut still queued
  // holds; then every key's writes execute in submission order and the
  // final-table check is exact. The range keeps at least half its keys free.
  const std::uint64_t ring_slots =
      static_cast<std::uint64_t>(p.shards) * p.queue;
  const std::uint64_t mp_per_burst =
      p.multiput_every > 0 ? ring_slots / p.multiput_every + 1 : 0;
  const std::uint64_t mp_range = 2 * p.multiput_keys * mp_per_burst;
  const std::uint64_t n_keys = p.keys + mp_range;
  Span round_span("bench.round");  // self time: the benchmark's own work
  RoundStats rs;
  auto svc = CreateService(
      p, md ? ExecMode::kNdpMultiDelayed : ExecMode::kCpuBaseline, n_keys,
      rs, r);
  if (svc == nullptr) {
    return std::nullopt;
  }
  const TrafficStart traffic = BeginTraffic(*svc);

  struct Pending {
    std::future<ServeResult> done;
    std::uint64_t submit_ns;
    RequestKind kind;
    std::uint64_t key;
    std::int64_t expected;
  };
  std::vector<Pending> pending;
  std::vector<bool> mp_queued(mp_range, false);
  KeyModel model;
  model.exact.assign(n_keys, 0);  // prefill wrote version 0 everywhere
  auto pump = [&] {
    const std::uint64_t t0 = NowNs();
    std::uint64_t drained = 0;
    {
      Span span("serve.Pump");
      drained = svc->Pump();
    }
    const std::uint64_t t1 = NowNs();
    rs.pump_ns += static_cast<double>(t1 - t0);
    rs.pumped += static_cast<double>(drained);
    for (Pending& q : pending) {
      const ServeResult res = q.done.get();
      rs.lat_ns.Add(static_cast<double>(t1 - q.submit_ns));
      ++r.attempted;
      if (q.kind == RequestKind::kGet) {
        checker.Check(res, q.key, q.expected, model.next_version, r);
      } else if (!res.status.ok()) {
        r.Fail("write: " + res.status.ToString());
      }
    }
    pending.clear();
    mp_queued.assign(mp_range, false);
  };

  Rng stream(MixSeed(ctx.seed, 0xB0257));
  const std::uint64_t w0 = NowNs();
  for (std::uint64_t i = 0; i < requests; ++i) {
    ServeRequest req;
    Pending q{{}, 0, RequestKind::kPut, 0, -1};
    if (p.multiput_every > 0 && i % p.multiput_every == p.multiput_every - 1) {
      req.kind = RequestKind::kMultiPut;
      while (req.pairs.size() < p.multiput_keys) {
        const std::uint64_t key = p.keys + stream.NextBounded(mp_range);
        bool taken = mp_queued[key - p.keys];
        for (const KvPair& kp : req.pairs) {
          taken = taken || kp.key == key;
        }
        if (!taken) {
          req.pairs.push_back(KvPair{key, EncodeValue(key, model.Write(key))});
        }
      }
    } else {
      req.key = stream.NextBounded(p.keys);
      if (p.get_every > 0 && i % p.get_every == p.get_every - 1) {
        req.kind = RequestKind::kGet;
        q.expected = model.Expect(req.key);
      } else {
        req.kind = RequestKind::kPut;
        req.value = EncodeValue(req.key, model.Write(req.key));
      }
    }
    q.kind = req.kind;
    q.key = req.key;
    q.submit_ns = NowNs();
    {
      Span span("serve.Submit");
      q.done = SubmitRetry(*svc, req, true, rs, pump);
    }
    for (const KvPair& kp : req.pairs) {
      mp_queued[kp.key - p.keys] = true;  // queued until the next Pump()
    }
    pending.push_back(std::move(q));
  }
  pump();
  rs.window_ns = static_cast<double>(NowNs() - w0);
  rs.timed = static_cast<double>(requests);
  CloseTraffic(*svc, traffic, rs);
  VerifyAllKeys(*svc, n_keys, model, r);
  Epilogue(*svc, p, n_keys, audit, traced, MixSeed(ctx.seed, 0xC7A5), model,
           prof, rs, r);
  return rs;
}

}  // namespace

// One short audited MD round (the PPO checker's cost grows faster than the
// trace it reads, so it audits a round of the same shape with
// `audit-requests` requests, outside the metrics), then measured rounds
// alternating NearPM MD and CPU baseline until `seconds` have passed. A
// traced run keeps its first MD and baseline rounds untraced: they are the
// reference for the tracing overhead and for "tracing changes no sim number".
void RunKvBurst(const RunContext& ctx) {
  const KvParams p = ReadKvParams(ctx.flags);
  GetChecker checker(p.plant_wrong_get);
  ProfileTotals prof;
  const std::optional<RoundStats> audited = BurstRound(
      ctx, p, true, p.audit_requests, true, false, checker, prof);
  if (!audited) {
    return;
  }
  KvTotals totals;
  double untraced_ns_per_req = 0;
  std::map<std::string, double> first_sim[2];
  const std::uint64_t start = NowNs();
  for (std::uint64_t round = 0;; ++round) {
    const bool md = round % 2 == 0;
    const bool traced = ctx.trace && round >= 2;
    if (traced && !SpansEnabled()) {
      EnableSpans(200000);
    }
    std::optional<RoundStats> rs =
        BurstRound(ctx, p, md, p.requests, false, traced, checker, prof);
    if (!rs) {
      return;
    }
    if (md && round == 0 && rs->timed > 0) {
      untraced_ns_per_req = rs->lat_ns.sum() / rs->timed;
    }
    std::map<std::string, double> sim = RoundFingerprint(*rs);
    if (round < 2) {
      first_sim[md] = sim;
    } else {
      CheckRepeat(first_sim[md], sim, "kv-burst", ctx.result);
    }
    (md ? totals.md : totals.baseline).push_back(std::move(*rs));
    if (round == 1) {
      // Read before the run's own sample buffers grow with the number of
      // rounds the host manages: later rounds allocate the same services.
      ctx.result.metrics["peak_rss_mb"] = PeakRssMb();
    }
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
    if (!md && round + 1 >= p.min_rounds && elapsed >= ctx.seconds) {
      std::fprintf(stderr, "kv-burst: %llu rounds in %.2f s\n",
                   static_cast<unsigned long long>(round + 1), elapsed);
      break;
    }
  }
  Result& r = ctx.result;
  if (ctx.trace) {
    ShardProbe(p, r);
    ThreadedProbe(ctx, p, checker);
    r.metrics["serve.ppo_violations"] = audited->ppo;
  }
  PublishKv(totals, ctx.trace, untraced_ns_per_req, prof, r);
  r.sim = first_sim[1];
  for (const auto& [key, v] : first_sim[0]) {
    r.sim["baseline." + key] = v;
  }
  for (const char* key : {"sim_ops_per_s", "sim_speedup_e2e",
                          "sim_speedup_region", "sim_recover_us"}) {
    r.sim[key] = r.metrics[key];
  }
}

}  // namespace perfbench
}  // namespace nearpm
