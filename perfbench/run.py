#!/usr/bin/env python3
"""End-to-end benchmark of the GRIPhoN stack.

    python3 perfbench/run.py --workload churn|storm|bod_reopt --seed N \
        --seconds S --trace 0|1

Run from the repository root. It builds `perfbench_driver` from source (in
$CARGO_TARGET_DIR, default .bench_build), generates the workload's inputs
from the seed, and replays them in fresh driver processes, one repetition
per process, until S seconds of repetitions have run. Every repetition
replays the same inputs, so every simulated-time result and device-state
digest must repeat exactly; each repetition also runs its own correctness
checks (resync sweep, request accounting, terminal states).

--trace 0 reports the end-to-end metrics: medians over repetitions, except
requests_per_s, which times each slice of the inputs at its fastest pass.
--trace 1 alternates untraced and traced repetitions, checks that the
traced ones simulate byte-identically, and reports the per-layer metrics
plus the tracing overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import gen  # noqa: E402

MIN_PLAIN_REPS = 3
MIN_TRACED_PAIRS = 2
REP_TIMEOUT_S = 120
# Stop starting repetitions once one more could push the run past this.
WALL_LIMIT_S = 150

# End-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wave_setup_s_p50", "s"),
]

# Simulated-time results reported (with sample counts) for the workloads
# that have them; all of them must repeat exactly across repetitions.
SIM_TIME_UNITS = {
    "wave_setup_s_p50": "s",
    "wave_setup_s_p99": "s",
    "blocked_pct": "%",
    "outage_s_p50": "s",
    "outage_s_p95": "s",
    "gold_outage_s_p95": "s",
    "deadline_met_pct": "%",
}

# Per-layer metrics of the traced run: (name, unit, timing). Timings are
# medians over traced repetitions; the rest are counts that must repeat.
PER_LAYER = [
    ("sim.events", "count", False),
    ("sim.run_ms", "ms", True),
    ("sim.ns_per_event", "ns", True),
    ("sim.pending_max", "count", False),
    ("sim.stale_cancels", "count", False),
    ("sim.trace_records", "count", False),
    ("proto.frames", "count", False),
    ("proto.frames_dropped", "count", False),
    ("proto.codec_ns_per_frame", "ns", True),
    ("ems.commands", "count", False),
    ("ems.commands.roadm", "count", False),
    ("ems.commands.fxc", "count", False),
    ("ems.commands.otn", "count", False),
    ("ems.commands.nte", "count", False),
    ("ems.queue_depth_max", "count", False),
    ("ems.cache_evictions", "count", False),
    ("ems.queue_wait_s_p95", "s", False),
    ("core.connect_call_us_p50", "us", True),
    ("core.connect_call_us_p99", "us", True),
    ("core.release_call_us_p99", "us", True),
    ("core.commands_per_request", "count", False),
    ("core.commands_retried", "count", False),
    ("core.records_held", "count", False),
    ("rwa.plan_us_p50", "us", True),
    ("rwa.plan_us_p99", "us", True),
    ("rwa.route_cache_hit_pct", "%", False),
    ("rwa.plans_failed", "count", False),
    ("inventory.snapshot_us_p50", "us", True),
    ("inventory.reservations_max", "count", False),
    ("restoration.ok", "count", False),
    ("restoration.failed", "count", False),
    ("restoration.retries", "count", False),
    ("restoration.non_diverse", "count", False),
    ("restoration.queue_max", "count", False),
    ("restoration.backlog_max", "count", False),
    ("bod.submit_call_us_p50", "us", True),
    ("bod.submit_call_us_p95", "us", True),
    ("bod.submit_call_us_p99", "us", True),
    ("bod.accepted", "count", False),
    ("bod.rejected", "count", False),
    ("bod.reschedules", "count", False),
    ("reopt.analyze_ms", "ms", True),
    ("reopt.moves_rolled", "count", False),
    ("reopt.frag_mean", "score", False),
    ("telemetry.spans", "count", False),
    ("telemetry.export_ms", "ms", True),
    ("trace_overhead_pct", "%", True),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the driver (incremental after the first
    run). Returns the driver path, or None when the build fails."""
    src = os.path.relpath(HERE)
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", "3"])
    with open(os.path.join(build_dir, "perfbench_build.log"), "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log(f"build failed: {' '.join(cmd)} "
                    f"(see {out.name})")
                return None
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(driver, args):
    proc = subprocess.run([driver] + args, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"driver {' '.join(args)} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sim_signature(rep):
    """Everything that must repeat exactly between repetitions."""
    keys = ("inputs", "failed_ops", "offered", "accepted", "blocked",
            "errored", "released", "release_retries", "transfers_offered",
            "transfers_accepted", "transfers_rejected", "cuts",
            "outage_samples", "events", "ems_commands", "digest_loaded",
            "digest_final", "sim_time")
    return json.dumps({k: rep[k] for k in keys}, sort_keys=True)


def fastest_pass(reps):
    """Wall seconds of the measured phase with each slice of the inputs
    timed at its fastest repetition. Other tenants of a shared host only
    ever add time, mostly in bursts of a few seconds, so the fastest pass
    of each short slice is the estimate they move least; a slower program
    is slower in every repetition."""
    slices = zip(*(r["slice_s"] for r in reps))
    return sum(min(times) for times in slices)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    started = time.monotonic()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    driver = build(build_dir)
    if driver is None:
        return 1

    plant = run_driver(driver, ["describe"])
    inputs_text = gen.GENERATORS[opts.workload](opts.seed, plant)
    inputs_path = os.path.join(
        build_dir, f"inputs-{opts.workload}-{opts.seed}.txt")
    with open(inputs_path, "w") as f:
        f.write(inputs_text)

    traced = opts.trace == 1
    plain_reps, traced_reps = [], []
    measure_start = time.monotonic()
    slowest = 0.0
    while True:
        elapsed = time.monotonic() - measure_start
        enough = (len(plain_reps) >= MIN_PLAIN_REPS if not traced else
                  min(len(plain_reps), len(traced_reps)) >= MIN_TRACED_PAIRS)
        if enough and (elapsed >= opts.seconds or
                       time.monotonic() - started + slowest > WALL_LIMIT_S):
            break
        mode = "plain"
        if traced and len(traced_reps) < len(plain_reps):
            mode = "traced"
        t0 = time.monotonic()
        rep = run_driver(driver, ["run", inputs_path, mode])
        slowest = max(slowest, time.monotonic() - t0)
        (traced_reps if mode == "traced" else plain_reps).append(rep)

    reps = plain_reps + traced_reps
    signature = sim_signature(plain_reps[0])
    repeatable = all(sim_signature(r) == signature for r in reps)
    checks_ok = all(r["correct"] for r in reps)
    correct = repeatable and checks_ok
    # Every repetition replays the same inputs, and a repeatable run fails
    # the same operations in each, so each input is counted once: the
    # counts depend on the seed only, not on how many repetitions fit.
    first = plain_reps[0]
    attempted = int(first["inputs"])
    failed = int(first["failed_ops"])
    if not checks_ok:
        failed += 1
    if not repeatable:
        failed += 1

    sim = first["sim_time"]
    plain_med = lambda key: statistics.median(r[key] for r in plain_reps)
    e2e = {
        "requests_per_s": first["inputs"] / fastest_pass(plain_reps),
        "setup_s": plain_med("setup_s"),
        "peak_rss_mb": plain_med("peak_rss_mb"),
        "wave_setup_s_p50": sim["wave_setup_s_p50"]["value"],
    }

    # Human-readable report on stdout, ahead of the result line.
    print(f"workload {opts.workload}  seed {opts.seed}  "
          f"inputs/rep {first['inputs']}  plain reps {len(plain_reps)}  "
          f"traced reps {len(traced_reps)}")
    print(f"  checks: {'pass' if checks_ok else 'FAIL'}  "
          f"repeatable: {'yes' if repeatable else 'NO'}  "
          f"digest {first['digest_loaded']}/{first['digest_final']}")
    print(f"  failed operations: {failed} of {attempted} inputs")
    problems = set()
    for r in reps:
        problems.update(f"FAILED check {name} ({r['mode']} rep)"
                        for name, ok in r["checks"].items() if not ok)
        problems.update(f"error: {err}" for err in r["errors"])
    for line in sorted(problems):
        print(f"  {line}")
    n = len(plain_reps)
    for name, unit in END_TO_END:
        samples = n if name in ("requests_per_s", "setup_s", "peak_rss_mb") \
            else sim[name]["samples"]
        print(f"  {name:<24} {e2e[name]:>14.6g} {unit:<6} samples {samples}")
    for name, unit in SIM_TIME_UNITS.items():
        if name in sim and name != "wave_setup_s_p50":
            p = sim[name]
            shown = f"{p['value']:>14.6g}" if p["ok"] else \
                f"{'n/a':>14} (fewer than 10 samples beyond it)"
            print(f"  {name:<24} {shown} {unit:<6} samples {p['samples']}")
    print(f"  refusals: {json.dumps(first['refusals'], sort_keys=True)}")

    if not traced:
        metrics = {name: metric(e2e[name], unit) for name, unit in END_TO_END}
    else:
        if any(sim_signature(r) != signature for r in traced_reps):
            print("  traced run changed the simulation: sim-time results or "
                  "digests differ from the untraced run")
        traced_med = statistics.median(r["measured_s"] for r in traced_reps)
        plain_meas = statistics.median(r["measured_s"] for r in plain_reps)
        metrics = {}
        for name, unit, timing in PER_LAYER:
            if name == "trace_overhead_pct":
                value = 100.0 * (traced_med - plain_meas) / plain_meas
                shown = f"{value:.6g}"
            else:
                vals = [r["layers"][name] for r in traced_reps]
                if isinstance(vals[0], dict):
                    # A percentile with fewer than ten samples beyond it
                    # is not printed; its JSON value is 0.
                    ok = vals[0]["ok"]
                    value = statistics.median(v["value"] for v in vals) \
                        if ok else 0.0
                    shown = (f"{value:.6g}" if ok else "n/a") + \
                        f" (samples {vals[0]['samples']})"
                elif timing:
                    value = statistics.median(vals)
                    shown = f"{value:.6g}"
                else:
                    value = vals[0]
                    shown = f"{value:.6g}"
                    if any(v != value for v in vals):
                        shown += " (varies between traced reps)"
            metrics[name] = metric(value, unit)
            print(f"  {name:<28} {shown} {unit}")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as err:
        log(f"perfbench: {err}")
        sys.exit(1)
