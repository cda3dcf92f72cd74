#!/usr/bin/env python3
"""Fleet simulator benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload rollout|ddos|hyperscale|all \\
        [--seed 42] [--seconds 20] [--trace 0|1]

Builds the simulator libraries from ../src together with the driver
(perfbench.cc) into .bench_build/perfbench on first use, then runs whole
repetitions of the workload, one driver process each, until --seconds of
wall time have passed. Prints every metric as name, value and unit, and as
the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. The two rates are medians over
the 50 ms slices of simulated time of every repetition; the others are
medians over repetitions or set-ups. --trace 1 runs half the time
untraced, then one traced repetition and the isolated layer microloops,
and reports the per-layer metrics. Metric names and units come from
BENCHMARK.json. See README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("rollout", "ddos", "hyperscale")
# Set-up samples behind each setup_s median; reps that ran fewer are topped
# up with set-up-only driver processes.
MIN_SETUPS = 5
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds both driver binaries; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the simulator sources (src/) are not next to perfbench/")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f if l.startswith("CMAKE_HOME_DIRECTORY")]
        if home != [HERE]:
            shutil.rmtree(BUILD)  # Configured for another checkout.
    if not os.path.isfile(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench"), os.path.join(BUILD, "perfbench_traced")


def drive(binary, workload, seed, *extra):
    """Runs one driver process; returns its JSON line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def slice_median(reps, per_slice):
    """Median of `per_slice(sim_ms, wall_s, cpu_s)` over every slice of `reps`."""
    return statistics.median(per_slice(*s) for r in reps for s in r["slices"])


def sim_ms_per_s(sim_ms, wall_s, cpu_s):
    return sim_ms / wall_s


def cpu_s_per_sim_s(sim_ms, wall_s, cpu_s):
    return cpu_s / (sim_ms / 1e3)


def repetitions(binary, workload, seed, budget_s):
    """Whole repetitions until `budget_s` of wall time have passed."""
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < budget_s:
        reps.append(drive(binary, workload, seed))
    return reps


class Tally:
    """Correctness checks: the driver's own, plus digest agreement."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, rep, label, digest=None):
        """Counts a repetition's checks and, given `digest`, that it matches."""
        self.attempted += rep["attempted"]
        self.failed += [f"{label}.{name}" for name in rep["failed"]]
        if digest is not None:
            self.attempted += 1
            if rep["digest"] != digest:
                self.failed.append(f"{label}.digest")


def measure(workload, seed, seconds, trace, binaries):
    """Returns (tally, {metric name: value}) for one workload."""
    untraced, traced_binary = binaries
    tally = Tally()
    budget = seconds / 2 if trace else seconds
    reps = repetitions(untraced, workload, seed, budget)
    digest = reps[0]["digest"]
    for i, r in enumerate(reps):
        tally.add(r, f"{workload}.rep{i}", digest if i else None)
    rate = slice_median(reps, sim_ms_per_s)
    log(f"{workload} seed {seed}: {len(reps)} untraced reps, digest {digest}")
    if not trace:
        setups = [r["setup_s"] for r in reps]
        while len(setups) < MIN_SETUPS:
            setups.append(drive(untraced, workload, seed, "--setup-only")["setup_s"])
        return tally, {
            "sim_ms_per_s": rate,
            "cpu_s_per_sim_s": slice_median(reps, cpu_s_per_sim_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "pass_ratio": (tally.attempted - len(tally.failed)) / tally.attempted,
        }
    spans = os.path.join(BUILD, "spans", f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    t = drive(traced_binary, workload, seed, "--traced", "--spans", spans)
    tally.add(t, f"{workload}.traced", digest)
    layers = dict(t["layers"])
    layers["bench.trace_overhead_pct"] = 100.0 * (rate / slice_median([t], sim_ms_per_s) - 1.0)
    log(f"{workload} seed {seed}: spans in {spans}")
    return tally, layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    binaries = build()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failed, metrics = 0, [], {}
    for w in workloads:
        tally, values = measure(w, args.seed, args.seconds, args.trace, binaries)
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{w}." if args.workload == "all" else ""
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{w:<10} {m['name']:<32} {values[m['name']]:>16.6g} {m['unit']}")
    for name in failed:
        print(f"FAILED {name}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
