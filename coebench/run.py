#!/usr/bin/env python3
"""The minicoe benchmark.

Builds coebench/ (a CMake package compiling the src/ modules it drives)
into .bench_build/coebench, runs one seeded workload, checks every op's
output, and prints the metrics. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

    python3 coebench/run.py --workload fem_amg --seed 0 --seconds 15 --trace 0
    python3 coebench/run.py --self-test

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run. Workloads and metric definitions are in
coebench/README.md.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fem_amg", "amr_sod", "wave_dist", "wave_survive")
# Set-up-only launches per run (the measured launch adds one more sample):
# at least SETUP_MIN, then more while they have taken under SETUP_BUDGET_S,
# so a millisecond set-up still gets a steady median.
SETUP_MIN = 8
SETUP_MAX = 200
SETUP_BUDGET_S = 0.5
# A run splits its time between launches of the driver and reports medians
# over all their passes; three fem_amg launches also give peak_rss_mb, which
# depends on how the four concurrent ops interleave, a median of three.
LAUNCHES = {"fem_amg": 3, "amr_sod": 1, "wave_dist": 1, "wave_survive": 1}
# Workloads whose simulated time must be bit-identical in every pass.
EXACT_SIM = ("fem_amg", "amr_sod", "wave_dist")
# Wall-clock cap on one launch of the driver program.
LAUNCH_TIMEOUT_S = 170

END_TO_END = (
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("sim_s", "s"),
    ("paper_gap", "1"),
    ("peak_rss_mb", "MiB"),
)
# Reported as 0 on a workload that does not exercise the layer.
PER_LAYER = (
    ("host.wall_s", "s"),
    ("core.launches", "count"),
    ("core.transfers", "count"),
    ("core.flops", "flop"),
    ("core.bytes", "bytes"),
    ("core.host_us_per_launch", "us"),
    ("fem.formulation_s", "s"),
    ("fem.pa_apply_s", "s"),
    ("fem.pa_applies", "count"),
    ("amg.setup_s", "s"),
    ("amg.setup_sim_s", "s"),
    ("amg.vcycle_s", "s"),
    ("amg.vcycles", "count"),
    ("la.cg_iters", "count"),
    ("la.blas1_s", "s"),
    ("ode.newton_iters", "count"),
    ("amr.step_ms.p50", "ms"),
    ("amr.step_ms.p80", "ms"),
    ("amr.dt_ms", "ms"),
    ("amr.layout_spread", "1"),
    ("stencil.serial_s", "s"),
    ("mpi.parallel_eff", "1"),
    ("mpi.messages", "count"),
    ("mpi.bytes", "bytes"),
    ("net.timeline_s", "s"),
    ("net.sequential_s", "s"),
    ("xray.analyze_s", "s"),
    ("xray.coverage", "1"),
    ("xray.comm_wait_pct", "%"),
    ("xray.imbalance_ratio", "1"),
    ("phoenix.ckpt_s_per_commit", "s"),
    ("phoenix.recovery_s", "s"),
    ("phoenix.repair_s", "s"),
    ("phoenix.ckpt_commits", "count"),
    ("phoenix.buddy_bytes", "bytes"),
    ("phoenix.replayed_steps", "count"),
    ("phoenix.useful_step_frac", "1"),
    ("trace.overhead", "1"),
    ("trace.span_coverage", "1"),
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "coebench")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "coebench")


def launch(binary, args):
    """Runs the driver once; returns (parsed last stdout line, spawn time)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: " + " ".join(args))
    if proc.returncode != 0:
        raise BenchError("driver exited %d: %s" % (proc.returncode,
                                                   " ".join(args)))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing: " + " ".join(args))
    return json.loads(lines[-1]), t_spawn


def measure(binary, workload, seed, seconds, trace, extra=()):
    """One benchmark run; returns the result object (see module doc)."""
    launches = 1 if trace else LAUNCHES[workload]
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds / launches)] + list(extra)
    setup = []
    if not trace:
        # Set-up time: process start to first op, over several launches.
        begin = time.monotonic()
        while len(setup) < SETUP_MIN or (
                len(setup) < SETUP_MAX
                and time.monotonic() - begin < SETUP_BUDGET_S):
            r, t0 = launch(binary, base + ["--setup-only"])
            setup.append(r["first_op_mono_s"] - t0)
    raws = []
    for _ in range(launches):
        raw, t0 = launch(binary, base + ["--trace", "1" if trace else "0"])
        setup.append(raw["first_op_mono_s"] - t0)
        raws.append(raw)
    attempted = sum(int(r["attempted"]) for r in raws)
    failed = sum(int(r["failed"]) for r in raws)
    if trace:
        values = {n: raws[0]["layers"].get(n, 0.0) for n, _ in PER_LAYER}
        units = dict(PER_LAYER)
    else:
        wall = [w for r in raws for w in r["wall_s"]]
        cpu = [c for r in raws for c in r["cpu_s"]]
        sim = [x for r in raws for x in r["sim_s"]]
        gaps = {r["paper_gap"] for r in raws}
        if (workload in EXACT_SIM and len(set(sim)) > 1) or len(gaps) > 1:
            log("%s: simulated time or paper_gap differs between launches"
                % workload)
            failed = attempted
        values = {
            "cpu_s": statistics.median(cpu),
            "setup_s": statistics.median(setup),
            "sim_s": statistics.median(sim),
            "paper_gap": raws[0]["paper_gap"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in raws),
        }
        units = dict(END_TO_END)
        log("%s: %d launches, %d passes, wall_s %s, cpu_s %s, sim_s %s,"
            " %d set-ups" % (workload, launches, len(wall),
                             ["%.4f" % w for w in wall],
                             ["%.4f" % c for c in cpu],
                             ["%.9f" % x for x in sim], len(setup)))
    finite = all(isinstance(v, (int, float)) and math.isfinite(v)
                 for v in values.values())
    correct = failed == 0 and attempted >= 1 and finite
    for name, value in values.items():
        print("%-28s %16.6g %s" % (name, value, units[name]))
    print("%-28s %16.6g %s" % ("fail_frac", failed / max(1, attempted), "1"))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }


def self_test(binary):
    """Runs every workload at tiny sizes; returns the number of problems."""
    problems = []
    for w in WORKLOADS:
        for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
            r = measure(binary, w, 0, 1, trace, ["--tiny"])
            missing = [n for n, u in names
                       if r["metrics"].get(n, {}).get("unit") != u]
            if missing:
                problems.append("%s trace=%d: metrics missing or without"
                                " their unit: %s" % (w, trace, missing))
            if not r["correct"] or r["failed"]:
                problems.append("%s trace=%d: checks failed on the seed code"
                                " (for fem_amg this includes the speedups"
                                " table4_fem_speedup prints)" % (w, trace))
        # A deliberately wrong reference must be caught.
        r = measure(binary, w, 0, 1, False, ["--tiny", "--wrong-reference"])
        if r["correct"] or r["failed"] == 0:
            problems.append("%s: a wrong reference did not raise fail_frac"
                            % w)
    for p in problems:
        log("self-test: " + p)
    log("self-test: %s" % ("ok" if not problems else "FAILED"))
    return len(problems)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        binary = build()
        if args.self_test:
            return 1 if self_test(binary) else 0
        result = measure(binary, args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("coebench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
