"""sdstab benchmark: one workload, one process, one caller, one pass after another.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ``src/``).
``--workload all`` runs every workload in its own process. With
``--trace 0`` the end-to-end metrics are measured with nothing patched;
with ``--trace 1`` the run first measures untraced passes, then traced
set-up-and-pass repetitions, and reports the per-layer metrics and the
tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object. A failed correctness gate prints
``"correct": false`` and exits 1. ``--smoke`` shrinks every workload for
the benchmark's own tests.
"""

import os

# Single-threaded: BLAS threads are pinned before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("sim-statedep", "lie-grid", "patchwork-verify", "synth-batch")
END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "item_ms_p50": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
RATIO_METRICS = ("sdfctl.playback_substeps_per_step", "synth.success_ratio", "liecalc.deep_share")
SETUP_REPEATS = 3  # set-ups per run: this process plus fresh-interpreter probes
PROBE_TIMEOUT_S = 120


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name in RATIO_METRICS:
        return "ratio"
    if name == "cli.csv_bytes":
        return "bytes"
    return "count"


def import_sdstab():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "sdstab" / "__init__.py").is_file():
        sys.exit("perfbench: %s/sdstab not found; run from a checkout of the repository" % SRC)
    sys.path.insert(0, str(SRC))
    import sdstab

    if Path(sdstab.__file__).resolve().parent != (SRC / "sdstab").resolve():
        sys.exit("perfbench: imported sdstab from %s, not from %s" % (sdstab.__file__, SRC))


def timed_setup(name, seed, smoke, workdir):
    """Imports plus workload construction; returns (workload, seconds, scale).

    ``scale`` converts seconds at the CPU speed of the moment to reference
    seconds (see speed.py). NumPy, which the speed reference itself uses,
    is imported before the clock starts.
    """
    import speed

    meter = speed.Speedometer()
    with meter.running():
        meter.sample()
        t0 = meter.clock()
        import_sdstab()
        import workloads

        wl = workloads.WORKLOADS[name](seed, smoke, workdir)
        setup_s = meter.clock() - t0
        meter.sample()
    return wl, setup_s, meter.scale(0)


def probe_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def measure(wl, budget_s, meter):
    """Passes until the next one would overrun the budget (at least one).

    Returns the passes' results, raw wall seconds, speed scales and item
    latency summaries (count, scaled p50, scaled p99). Item latencies are
    summarised and dropped after each pass, so memory does not grow with
    the number of passes.
    """
    walls, scales, results, item_stats = [], [], [], []
    start = perf_counter()
    with meter.running():
        while True:
            raw, wall, scale = meter.timed(wl.run, meter.clock)
            result = wl.inspect(raw)
            items = [t * scale for t in result.items_s]
            result.items_s = None
            item_stats.append((len(items), percentile(items, 50), percentile(items, 99)))
            walls.append(wall)
            scales.append(scale)
            results.append(result)
            if perf_counter() - start + statistics.median(walls) > budget_s:
                return results, walls, scales, item_stats


def end_to_end(args, workdir):
    import speed

    wl, setup_s, setup_scale = timed_setup(args.workload, args.seed, args.smoke, workdir)
    setups = [setup_s * setup_scale] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
    results, walls, scales, item_stats = measure(wl, args.seconds, speed.Speedometer())
    problems = wl.check(results)

    n_items = item_stats[0][0]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    refused = sum(r.refused for r in results)
    metrics = {
        "run_s": statistics.median(w * k for w, k in zip(walls, scales)),
        "setup_s": statistics.median(setups),
        "item_ms_p50": 1e3 * statistics.median(p50 for _, p50, _ in item_stats),
        "ok_ratio": 1.0 - (failed + refused) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        "passes %d, items per pass %d; item p99 %.6f ms (%d items above it per pass; not a metric:"
        " it does not repeat within a tenth across seeds)"
        % (len(walls), n_items, 1e3 * statistics.median(p99 for _, _, p99 in item_stats), n_items // 100),
        "unscaled wall: run %.6f s, set-up %.6f s; speed scale median %.4f"
        % (statistics.median(walls), setup_s, statistics.median(scales)),
        "fail_ratio %.4f (%d of %d operations failed, %d refused by the program)"
        % ((failed + refused) / attempted, failed, attempted, refused),
    ]
    failures = {}
    for r in results:
        if isinstance(r.outputs, dict):
            for key, count in r.outputs.get("failures", {}).items():
                failures[key] = failures.get(key, 0) + count
    if failures:
        notes.append("failures and refusals by type: %s" % failures)
    units = {k: END_TO_END_UNITS[k] for k in metrics}
    return metrics, units, attempted, failed, problems, notes


def traced(args, workdir):
    import speed
    from tracing import COUNTERS, Tracer, layer_metrics

    wl, _, _ = timed_setup(args.workload, args.seed, args.smoke, workdir)
    import workloads

    meter = speed.Speedometer()
    results, walls, scales, _ = measure(wl, args.seconds / 2.0, meter)
    untraced = statistics.median(w * k for w, k in zip(walls, scales))
    problems = wl.check(results)
    reps, setup_times, pass_times, traced_scaled = [], [], [], []
    start = perf_counter()
    while True:
        # the speed timer keeps running; its reference loops are left out of
        # every span because the tracer reads the meter's clock
        tr = Tracer(meter.clock)
        with meter.running():
            meter.sample()
            first = len(meter.samples) - 1
            with tr.installed():
                wl_t, setup_dt = tr.span("bench.setup", workloads.WORKLOADS[args.workload],
                                         args.seed, args.smoke, workdir)
                raw, pass_dt = tr.span("bench.pass", wl_t.run)
            meter.sample()
        traced_scaled.append(pass_dt * meter.scale(first))
        result = wl_t.inspect(raw)
        problems += wl_t.check([result])
        m = layer_metrics(tr)
        m["cli.csv_bytes"] = result.bytes_written
        self_sum = sum(v for k, v in m.items() if k.endswith(".self_s") and k.count(".") == 1)
        reps.append((m, self_sum, setup_dt + pass_dt))
        results.append(result)
        setup_times.append(setup_dt)
        pass_times.append(pass_dt)
        rep_s = statistics.median(a + b for a, b in zip(setup_times, pass_times))
        if perf_counter() - start + rep_s > args.seconds / 2.0:
            break

    overhead = statistics.median(traced_scaled) - untraced
    for m, self_sum, wall in reps:
        if abs(self_sum - wall) > max(abs(overhead), 1e-3):
            problems.append("trace: layer self times sum to %.6f s, traced wall time is %.6f s" % (self_sum, wall))
    counters = {k: reps[0][0][k] for k in COUNTERS}
    if any({k: m[k] for k in COUNTERS} != counters for m, _, _ in reps):
        problems.append("trace: work counters differ between repetitions of one seed")

    metrics = {k: statistics.median(m[k] for m, _, _ in reps) for k in reps[0][0]}
    metrics.update(counters)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.run_s"] = statistics.median(pass_times)
    metrics["trace.setup_s"] = statistics.median(setup_times)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    notes = ["untraced passes %d, traced repetitions %d" % (len(walls), len(reps))]
    units = {k: layer_unit(k) for k in metrics}
    return metrics, units, attempted, failed, problems, notes


def run_all(args):
    """Every workload in its own process (peak RSS is per workload process)."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description="sdstab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workdir = ROOT / ".bench_out" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            _, setup_s, scale = timed_setup(args.workload, args.seed, args.smoke, str(workdir))
            print(repr(setup_s * scale))
            return 0
        measure_fn = traced if args.trace else end_to_end
        metrics, units, attempted, failed, problems, notes = measure_fn(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    for note in notes:
        print("  " + note)
    for name, value in metrics.items():
        print("  %-40s %18.6f %s" % (name, value, units[name]))
    for problem in problems:
        print("GATE FAILED: " + problem)
    print("gates: %s" % ("pass" if not problems else "FAIL"))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
