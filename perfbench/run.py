#!/usr/bin/env python3
"""Benchmark entry point: builds the simulator and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds
perfbench/ (and the simulator sources under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Workload
parameters come from perfbench/workloads.json; metric names and units from
BENCHMARK.json. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (a layer the workload does not exercise reads 0). The exit
code is 0 only when every check passed: no failed op, no failed recovery or
Verify, a clean PPO audit, the profiler's attribution invariant, and the
same sim-time fingerprint as any earlier run of this workload and seed with
the same binary (traced or not).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binaries; returns the dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)
    return out


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_binary(out, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, parsed result line or None)."""
    params = load_json(os.path.join(HERE, "workloads.json"))[workload]
    cmd = [os.path.join(out, "perfbench"), "--workload=" + workload,
           "--seed=%d" % seed, "--seconds=%s" % seconds,
           "--trace=%d" % trace]
    if trace:
        cmd.append("--spans-out=" + os.path.join(
            out, "spans-%s-seed%d.jsonl" % (workload, seed)))
    cmd += ["--%s=%s" % kv for kv in params.items()]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def check_determinism(out, workload, seed, sim):
    """Compares `sim` with the fingerprint of an earlier run of the same
    workload, seed and binary; records it if there is none. Returns an error
    string or None."""
    digest = hashlib.sha256()
    with open(os.path.join(out, "perfbench"), "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    sim_dir = os.path.join(out, "sim")
    os.makedirs(sim_dir, exist_ok=True)
    path = os.path.join(sim_dir, "%s-seed%d-%s.json" % (
        workload, seed, digest.hexdigest()[:16]))
    if os.path.exists(path):
        first = load_json(path)
        for name in sorted(set(first) | set(sim)):
            if first.get(name) != sim.get(name):
                return "sim %s differs from an earlier run: %r vs %r" % (
                    name, first.get(name), sim.get(name))
        return None
    with open(path + ".tmp", "w") as f:
        json.dump(sim, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    return None


def evaluate(out, workload, seed, trace, code, raw):
    """Turns the binary's line into the benchmark result; returns
    (result dict, list of problems)."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    problems = []
    if code != 0 or raw is None:
        problems.append("perfbench exited with %d" % code)
        raw = raw or {"attempted": 0, "failed": 0, "metrics": {}, "sim": {}}
    problems += raw.get("errors", [])
    if raw["failed"]:
        problems.append("%d failed operations" % raw["failed"])
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None:
            if not trace:
                problems.append("end-to-end metric %s not measured" % m["name"])
            value = 0.0
        elif not trace and not value > 0:
            problems.append("end-to-end metric %s is %r" % (m["name"], value))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if code == 0:
        err = check_determinism(out, workload, seed, raw["sim"])
        if err:
            problems.append(err)
    failed = raw["failed"] + (1 if problems and not raw["failed"] else 0)
    result = {"correct": not problems,
              "attempted": max(1, raw["attempted"]),
              "failed": failed,
              "metrics": metrics}
    return result, problems


def selftest():
    """Helper unit checks plus teeth: planted faults must be counted."""
    out = build()
    ok = subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode == 0
    teeth = [
        ("kv-burst", ["--plant-wrong-get=7", "--requests=2000",
                      "--min-rounds=2"], "planted wrong Get value"),
        ("crash-recover", ["--plant-verify-fail=1", "--cycles=2",
                           "--min-sets=1"], "planted Verify failure"),
    ]
    for workload, extra, what in teeth:
        code, raw = run_binary(out, workload, 1, 0, 0, extra)
        counted = raw is not None and raw["failed"] >= 1
        log("selftest: %s -> failed=%s (%s)" % (
            what, raw and raw["failed"], "counted" if counted else "MISSED"))
        ok = ok and counted
    # The same short runs without the plants must be clean.
    for workload, extra, _ in teeth:
        clean = [a for a in extra if not a.startswith("--plant")]
        code, raw = run_binary(out, workload, 1, 0, 0, clean)
        clean_ok = code == 0 and raw is not None and raw["failed"] == 0
        log("selftest: %s without plants -> %s" % (
            workload, "clean" if clean_ok else "FAILED"))
        ok = ok and clean_ok
    print("perfbench selftest: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log("perfbench: --workload must be one of %s" % ", ".join(names))
        return 2
    out = build()
    code, raw = run_binary(out, args.workload, args.seed, args.seconds,
                           args.trace)
    result, problems = evaluate(out, args.workload, args.seed, args.trace,
                                code, raw)
    for p in problems:
        log("perfbench: CHECK FAILED: %s" % p)
    for name, m in result["metrics"].items():
        print("%-40s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
