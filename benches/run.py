"""divtop benchmark: one workload, one seed, end-to-end or traced.

    python3 benches/run.py --workload check_large --seed 1 --seconds 30 --trace 0
    python3 benches/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs whole passes over the workload's seeded job list in this process, one
job at a time, through ``divtop.cli.main``, checks every output against the
goldens, and prints a readable report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics (tracing off; job timings calibrated, see harness.py);
``--trace 1`` spends half the time untraced
and half traced and reports the per-layer metrics, per traced pass, and
writes the spans to ``.bench_out/`` at the checkout root.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
HARD_LIMIT_S = 120.0  # a run must end well inside 180 s even when jobs slow down


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def end_to_end(workload, jobs, cli, formats, goldens, seconds):
    setup = harness.setup_seconds(harness.rings_of(jobs), SETUP_REPEATS)
    min_samples = harness.MIN_SAMPLES if workload in workloads.GATED else 1
    m = harness.measure(jobs, cli, formats, goldens, seconds, min_samples, HARD_LIMIT_S)
    n = m.attempted
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "jobs_per_s": (m.jobs_per_s, "1/s", f"{n} jobs in {m.passes} passes"),
        "job_p50_s": (statistics.median(m.latencies), "s", f"n={n}"),
        "job_p90_s": (harness.percentile(m.latencies, 90), "s", f"n={n}"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB", "ru_maxrss of this process"),
    }
    extra = {
        "fail_ratio": (len(m.failures) / n, "ratio", f"{len(m.failures)} failed of {n}"),
        "calibration_factor": (statistics.median(m.factors), "ratio", "median over passes"),
        "wall_jobs_per_s": (m.raw_jobs_per_s, "1/s", "jobs_per_s before calibration"),
        "wall_job_p50_s": (statistics.median(m.raw_latencies), "s", "before calibration"),
        "wall_job_p90_s": (harness.percentile(m.raw_latencies, 90), "s", "before calibration"),
    }
    return m, metrics, extra


def traced(jobs, cli, formats, goldens, seconds, out_path):
    from tracing import Tracer, layer_metrics, unit_of

    half = seconds / 2
    plain = harness.measure(jobs, cli, formats, goldens, half, 1, HARD_LIMIT_S / 2)
    tracer = Tracer()
    tracer.install()
    try:
        m = harness.measure(jobs, cli, formats, goldens, half, 1, HARD_LIMIT_S / 2, tracer)
    finally:
        tracer.uninstall()
    out_path.parent.mkdir(exist_ok=True)
    tracer.write(out_path)
    layers = layer_metrics(tracer, m.passes)
    layers["trace.overhead"] = plain.jobs_per_s / m.jobs_per_s
    layers["setup.sympy_s"] = statistics.median(harness.sympy_setup_seconds(3))
    metrics = {name: (value, unit_of(name), "per traced pass") for name, value in layers.items()}
    note = f"{m.passes} traced passes, {plain.passes} untraced; spans in {out_path}"
    return plain, m, metrics, note


def run_workload(workload, args, cli, formats, goldens):
    """Measure one workload and print its report; returns (correct,
    attempted, failed, metrics)."""
    jobs = workloads.jobs(workload, args.seed)
    print(f"workload {workload} seed {args.seed}: {len(jobs)} jobs per pass "
          f"({workloads.WHY[workload]})")
    if args.trace:
        out_path = harness.ROOT / ".bench_out" / f"trace-{workload}-{args.seed}.json"
        plain, m, metrics, note = traced(jobs, cli, formats, goldens, args.seconds, out_path)
        failures = plain.failures + m.failures
        attempted = plain.attempted + m.attempted
        correct = plain.correct and m.correct
        extra = {}
        print(note)
    else:
        m, metrics, extra = end_to_end(workload, jobs, cli, formats, goldens, args.seconds)
        failures, attempted, correct = m.failures, m.attempted, m.correct
    for name, (value, unit, how) in {**metrics, **extra}.items():
        print(f"  {name:34s} {_fmt(value):>14s} {unit:6s} {how}")
    for key, reason in sorted(set(failures))[:20]:
        print(f"  FAILED {reason}: {key[:160]}")
    return correct, attempted, len(failures), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help='"all" runs every gated workload in turn')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli, formats = harness.import_divtop()
    except harness.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    goldens = harness.load_goldens()
    if args.workload != "all":
        correct, attempted, failed, metrics = run_workload(
            args.workload, args, cli, formats, goldens)
    else:
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in workloads.GATED:
            ok, n, bad, ms = run_workload(workload, args, cli, formats, goldens)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            metrics.update({f"{workload}.{name}": v for name, v in ms.items()})
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
