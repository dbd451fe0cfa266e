#!/usr/bin/env python3
"""The repository benchmark: time to regenerate the paper's numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `repro` and the in-process
session runner (`perfbench/`, its own cargo workspace) in release mode first; the
build is not timed. Each workload does a fixed amount of work (about
25–40 s untraced; a traced n=250 run takes twice as long), whatever
`--seconds` says. Workloads (see perfbench/README.md for why each):

  repro_bench       `repro` registry subset + the five grids, bench scale
  paper_churn_n250  paper Simulation E at n=250 (kernel + kademlia bound)
  live_kappa_n250   Simulation G shape at n=250, live κ every minute

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(and a per-layer table for the n=250 workloads). The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where
attempted/failed count output checks (failed/attempted is the error rate).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ["repro_bench", "paper_churn_n250", "live_kappa_n250"]
REGISTRY = ["tab1", "fig2", "fig3", "fig12", "sampling"]
GRIDS = ["campaign", "service", "defend", "sweep", "load"]
GOLDEN_DIR = ROOT / "crates" / "experiments" / "tests" / "golden"
GOLDEN_SEED = 1
# The work of one run, fixed so timings compare across commits: identical
# sessions per run and churn minutes per session. Live κ percentiles need
# ≥100 evaluations per run (p90 with ten beyond it): 3 × 34 = 102.
WORK = {
    "paper_churn_n250": (5, 10),
    "live_kappa_n250": (3, 34),
}
# `repro tab1` runs sampled for repro_bench's set-up time, before each subcommand.
STARTUP_SAMPLES = 3

COUNTERS = ["msg_sent", "rpc_sent", "rpc_timeout", "msg_to_dead", "late_response",
            "lookup_started", "lookup_finished", "refresh_lookup", "contact_evicted"]


def metric_units():
    """Every metric BENCHMARK.json names, end-to-end and per-layer: unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def per_layer_zeros():
    """Every per-layer metric at 0: the value of a layer a workload skips."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: 0.0 for m in spec["per_layer"]}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Checks:
    """Output checks; failed / attempted is the run's error rate."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            log("CHECK FAILED:", what)


def entry(name, values, unit):
    """A reported metric: (name, median, unit, samples, q1, q3)."""
    values = list(values)
    if len(values) == 1:
        return name, values[0], unit, 1, None, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return name, statistics.median(values), unit, len(values), q1, q3


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


# ---------------------------------------------------------------- build


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "kad_experiments", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)


def provenance(seed):
    def output(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            return done.stdout.strip() if done.returncode == 0 else None
        except OSError:
            return None

    return {"commit": output(["git", "rev-parse", "HEAD"]),
            "rustc": output(["rustc", "--version"]),
            "nproc": os.cpu_count(), "seed": seed}


def timed_child(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Runs a child to completion: (exit code, wall s, peak RSS KiB)."""
    start = time.perf_counter()
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage.ru_maxrss


# ---------------------------------------------------------------- repro_bench


def load_pins():
    return json.loads((HERE / "pinned.json").read_text())


def check_csv(checks, name, path, seed, pins):
    if not path.is_file():
        checks.expect(False, f"{name}: missing")
        return
    data = path.read_bytes()
    if seed == GOLDEN_SEED:
        golden = GOLDEN_DIR / name
        if golden.is_file():
            checks.expect(data == golden.read_bytes(), f"{name}: differs from golden")
        else:
            expected = pins["sha256"].get(name)
            actual = hashlib.sha256(data).hexdigest()
            checks.expect(actual == expected, f"{name}: sha256 {actual} != pinned {expected}")
        return
    lines = data.decode("utf-8", "replace").splitlines()
    header, rows = (lines[0], lines[1:]) if lines else ("", [])
    schema = pins["schema"].get(name, {})
    width = header.count(",")
    ok = (header == schema.get("header")
          and all(row.count(",") == width for row in rows)
          and rows
          and schema.get("rows") in (None, len(rows)))
    checks.expect(ok, f"{name}: schema or row count differs from pinned")


def repro_commands(repro, seed, out):
    """The workload's `repro` invocations, registry first, then the grids."""
    return [(name, [str(repro), name, "--scale", "bench", "--seed", str(seed), "--out", str(out)])
            for name in REGISTRY + GRIDS]


def run_repro_bench(_workload, seed, trace, checks):
    repro = target_dir() / "release" / "repro"
    out = OUT / "repro_bench"
    setup_out = OUT / "repro_setup"
    for d in (out, setup_out):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    pins = load_pins()["repro_bench"]
    # The set-up time is a whole `repro tab1` at bench scale (start-up,
    # argument parsing, the Table 1 computation and its CSV), sampled before
    # every subcommand so its median spans the run; one warm-up first.
    setup_cmd = repro_commands(repro, seed, setup_out)[0][1]
    timed_child(setup_cmd)
    startup = []
    times = {}
    peak_kib = 0
    for name, cmd in repro_commands(repro, seed, out):
        startup += [timed_child(setup_cmd)[1] for _ in range(STARTUP_SAMPLES)]
        with open(out / f"{name}.log", "w") as err:
            code, wall, rss = timed_child(cmd, stderr=err)
        checks.expect(code == 0, f"repro {name} exited {code}")
        times[name] = wall
        peak_kib = max(peak_kib, rss)
    written = sorted(f.name for f in out.glob("*.csv"))
    checks.expect(written == sorted(pins["schema"]), f"csv set {written} != pinned")
    for name in sorted(pins["schema"]):
        check_csv(checks, name, out / name, seed, pins)
    registry = sum(times[c] for c in REGISTRY)
    grids = sum(times[c] for c in GRIDS)
    report = [entry("wall_s", [registry + grids], "s"),
              entry("setup_s", startup, "s"),
              entry("peak_rss_mb", [peak_kib / 1024], "MB")]
    if not trace:
        return report, {}
    layer = per_layer_zeros()
    layer["registry_s"] = registry
    layer["grids_s"] = grids
    for c, v in times.items():
        layer[f"repro.{c}_s"] = v
    return report, layer


# ---------------------------------------------------------------- n=250


def run_sessions(workload, seed, trace, checks):
    runner = target_dir() / "release" / "kad_perfbench"
    count, minutes = WORK[workload]
    cmd = [str(runner), workload, "--seed", str(seed), "--minutes", str(minutes),
           "--sessions", str(count), "--trace", str(int(trace))]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    stdout, _ = child.communicate()
    checks.expect(child.returncode == 0, f"kad_perfbench exited {child.returncode}")
    if child.returncode != 0:
        return None, minutes
    data = json.loads(stdout)
    sessions = data["sessions"]
    for s in sessions:
        checks.attempted += s["checks"]
        for failure in s["failures"]:
            checks.failures.append(failure)
            log("CHECK FAILED:", failure)
    digests = {s["digest"] for s in sessions}
    checks.expect(len(digests) == 1, f"sessions disagree: digests {sorted(digests)}")
    pin = load_pins()[workload]
    if seed == pin["seed"]:
        checks.expect(digests == {pin["digest"]},
                      f"digest {sorted(digests)} != pinned {pin['digest']}")
    log(f"{workload}: seed {seed}, {minutes} churn minutes x {count} sessions, "
        f"digest {sorted(digests)}")
    return data, minutes


def run_n250(workload, seed, trace, checks):
    data, minutes = run_sessions(workload, seed, trace, checks)
    if data is None:
        return [], {}
    plain = [s for s in data["sessions"] if not s["traced"]]
    walls = [s["wall_s"] for s in plain]
    setups = [s["setup_s"] for s in plain]
    report = [entry("wall_s", walls, "s"), entry("setup_s", setups, "s"),
              entry("peak_rss_mb", [data["vmhwm_kib"] / 1024], "MB")]
    if not trace:
        return report, {}

    traced = [s for s in data["sessions"] if s["traced"]]
    k = len(traced)

    def mean(key):
        return sum(s[key] for s in traced) / k

    def pooled(key):
        return [v for s in traced for v in s[key]]

    layer = per_layer_zeros()
    churn = [s["wall_s"] - s["setup_s"] for s in plain]
    layer["sim_min_per_s"] = minutes / statistics.median(churn)
    live = pooled("live_kappa_ms")
    if live:
        layer["kappa_ms_p50"] = statistics.median(live)
        layer["kappa_ms_p90"] = p90(live)
        layer["kappa.live_s"] = sum(live) / 1e3 / k
        layer["kappa.zero_share"] = sum(s["live_kappa_zero"] for s in traced) / len(live)
    wall = mean("wall_s")
    layer["session.schedule_s"] = mean("schedule_s")
    layer["session.drive_s"] = mean("drive_s")
    layer["kappa.grid_s"] = mean("grid_s")
    layer["session.unattributed_s"] = wall - (
        layer["session.schedule_s"] + layer["session.drive_s"]
        + layer["kappa.grid_s"] + layer["kappa.live_s"])
    drive = pooled("drive_churn_ms")
    layer["session.drive_ms_p50"] = statistics.median(drive)
    layer["session.drive_ms_p90"] = p90(drive)
    counters = traced[0]["counters"]
    for name in COUNTERS:
        layer[f"kademlia.{name}"] = counters.get(name, 0)
    layer["kademlia.msgs_per_s"] = counters.get("msg_sent", 0) / layer["session.drive_s"]
    layer["kademlia.timeout_ratio"] = (counters.get("rpc_timeout", 0)
                                       / max(1, counters.get("rpc_sent", 0)))
    layer["kademlia.snapshot_ms_p50"] = statistics.median(pooled("snapshot_ms"))
    analyze = pooled("analyze_ms")
    if analyze:
        layer["kappa.digraph_ms_p50"] = statistics.median(pooled("digraph_ms"))
        layer["kappa.analyze_ms_p50"] = statistics.median(analyze)
        pairs = sum(s["pairs_evaluated"] for s in traced)
        layer["kappa.pairs_evaluated"] = pairs / k
        layer["kappa.pairs_per_s"] = pairs / (sum(analyze) / 1e3)
    layer["bench.trace_overhead"] = (statistics.median(s["wall_s"] for s in traced)
                                     / statistics.median(walls) - 1)

    print(f"per-layer split of {workload} (mean per traced session of "
          f"{minutes} churn minutes, {k} sessions)")
    parts = ["session.schedule_s", "session.drive_s", "kappa.live_s", "kappa.grid_s",
             "session.unattributed_s"]
    for name in parts:
        print(f"  {name:<24} {layer[name]:10.4f} s  {100 * layer[name] / wall:6.2f} %")
    print(f"  {'= traced wall':<24} {sum(layer[p] for p in parts):10.4f} s  100.00 %")
    print(f"  {'bench.trace_overhead':<24} {100 * layer['bench.trace_overhead']:+9.2f} %")
    return report, layer


# ---------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    # Part of the command line, but unused: the work of a run is fixed (WORK).
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be ≥ 0 and --seconds ≥ 1")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "experiments").is_dir():
        log(f"no repository sources around {HERE}: run from a full checkout")
        sys.exit(2)

    build()
    checks = Checks()
    run = run_repro_bench if args.workload == "repro_bench" else run_n250
    report, layer = run(args.workload, args.seed, bool(args.trace), checks)

    meta = provenance(args.seed)
    print(f"{args.workload}: commit {meta['commit']}, {meta['rustc']}, "
          f"nproc {meta['nproc']}, seed {args.seed}")
    for name, value, unit, n, q1, q3 in report:
        quart = f"  q1 {q1:.4f}  q3 {q3:.4f}" if q1 is not None else ""
        print(f"  {name:<14} {value:12.4f} {unit:<3} n={n}{quart}")
    units = metric_units()
    values = layer if args.trace else {name: value for name, value, *_ in report}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**meta, "workload": args.workload, "report": report,
                                  "metrics": metrics, "failures": checks.failures}, indent=1))
    correct = not checks.failures and checks.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(1, checks.attempted),
                      "failed": len(checks.failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
