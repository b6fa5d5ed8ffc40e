"""Runs benchmark jobs in-process through divtop's CLI and checks each output.

A job's stdout and stderr are captured; its latency is the wall time of the
``divtop.cli.main`` call (or of the ``fragment_from_json`` read-back).  A job
fails when its exit code or stdout digest differs from the golden recorded at
the seed commit, when a point count visible in its output differs from the
count the generator computed, when a check that exits 0 shows a verdict other
than ``cli.expected_verdict``, or when it misses its deadline.  A job that
misses its deadline is abandoned there (SIGALRM), not waited out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens.json"
MIN_SAMPLES = 100  # p90 needs ten samples beyond it
CRASHED = -1  # exit code recorded for a job that raised out of the program


class ProgramMissing(Exception):
    """The checkout has no divtop sources to benchmark."""


def import_divtop():
    """Import divtop from this checkout's src/, never from site-packages."""
    if not (SRC / "divtop" / "cli.py").is_file():
        raise ProgramMissing(f"no divtop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import divtop.cli
    import divtop.formats

    if Path(divtop.__file__).resolve().parent != SRC / "divtop":
        raise ProgramMissing(f"imported divtop from {divtop.__file__}, not {SRC}")
    return divtop.cli, divtop.formats


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# running one job


class DeadlineExceeded(BaseException):
    """Raised inside a job at its deadline; BaseException so that no
    ``except Exception`` in the program swallows it."""


class _Deadline:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise DeadlineExceeded()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._fire)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


@dataclass
class Outcome:
    exit_code: Optional[int]
    stdout: str
    seconds: float
    timed_out: bool = False


def run_job(job, cli, formats, outputs: dict) -> Outcome:
    """Run one job; ``outputs`` maps earlier job keys of this pass to stdout."""
    out, err = io.StringIO(), io.StringIO()
    code: Optional[int] = None
    timed_out = False
    start = time.perf_counter()
    try:
        with _Deadline(job.deadline_s), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            if job.readback_of is None:
                code = cli.main(list(job.argv))
            elif job.readback_of in outputs:
                fragment = formats.fragment_from_json(outputs[job.readback_of])
                out.write("".join(p.text + "\n" for p in fragment.points))
                code = 0
    except DeadlineExceeded:
        timed_out = True
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash fails this job, not the whole run
        err.write(f"{type(exc).__name__}: {exc}\n")
        code = CRASHED
    seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), seconds, timed_out)


# ---------------------------------------------------------------------------
# checking one job


def observed_points(job, stdout: str) -> Optional[int]:
    """Fragment size as the output shows it, or None where it does not."""
    kind = job.argv[0]
    if kind == "readback":
        return stdout.count("\n")
    if kind == "fragment":
        out = job.argv[-1]
        if out == "json":
            return len(json.loads(stdout)["points"])
        if out == "text":
            line = next(l for l in stdout.splitlines() if l.startswith("points:"))
            return len(line.split()) - 1
        return sum(1 for l in stdout.splitlines() if l.startswith('  "') and l.endswith('";')
                   and "->" not in l)
    if kind == "check":
        for line in stdout.splitlines():
            doc = json.loads(line)
            if doc["check"] == "t0":
                return (1 + math.isqrt(1 + 8 * doc["details"]["pairs_checked"])) // 2
            if doc["check"] == "nested" and doc["verdict"] == "holds":
                return doc["details"]["points"]
    return None


def ring_spec(argv) -> tuple:
    """(tag, p) of a job's ``--ring`` and ``--p`` arguments."""
    p = int(argv[argv.index("--p") + 1]) if "--p" in argv else None
    return argv[argv.index("--ring") + 1], p


def failure(job, outcome: Outcome, golden, cli) -> Optional[str]:
    """Why the job failed, or None when it passed."""
    if outcome.timed_out:
        return "deadline"
    if golden is None:
        return "no golden output recorded"
    want_code, want_digest = golden
    if outcome.exit_code != want_code:
        return f"exit code {outcome.exit_code}, expected {want_code}"
    # a null digest marks a job that never finished at the seed commit
    if want_digest is not None and digest(outcome.stdout) != want_digest:
        return "stdout differs from the golden digest"
    if outcome.exit_code == 0 and job.points is not None:
        seen = observed_points(job, outcome.stdout)
        if seen is not None and seen != job.points:
            return f"{seen} points, expected {job.points}"
    if outcome.exit_code == 0 and job.argv[0] == "check":
        ring = cli.make_ring(*ring_spec(job.argv))
        for line in outcome.stdout.splitlines():
            doc = json.loads(line)
            if doc["verdict"] != cli.expected_verdict(doc["check"], ring):
                return f"{doc['check']} verdict {doc['verdict']} on exit 0"
    if outcome.exit_code == 0 and job.argv[0] == "primes":
        members = json.loads(outcome.stdout)["members"]
        start = job.argv[job.argv.index("--start") + 1].split(",")
        if len(set(members)) != len(start) + int(job.argv[-1]):
            return f"{len(set(members))} distinct members"
    return None


# ---------------------------------------------------------------------------
# measuring
#
# The machine the benchmark runs on may change speed by tens of percent over
# minutes (shared cores).  Each pass therefore also times a fixed calibration
# kernel, before the pass, after every CALIBRATE_EVERY_S of job time and after
# the pass, and scales the pass's job times by CALIBRATION_NOMINAL_S over the
# kernel's median time: job timings are seconds at the speed at which the
# kernel takes CALIBRATION_NOMINAL_S.  The kernel is benchmark code, so no change to
# divtop changes it, and it allocates no containers, so divtop's heap does not
# slow it through the garbage collector.

CALIBRATION_NOMINAL_S = 0.002
CALIBRATE_EVERY_S = 0.1
_CALIBRATION_VALUES = [720720 // d for d in range(1, 161)]


def calibration_kernel() -> int:
    """A small divisibility matrix over ints, as bitmask rows."""
    values = _CALIBRATION_VALUES
    n = len(values)
    total = 0
    for i in range(n):
        a = values[i]
        row = 0
        for j in range(n):
            if values[j] % a == 0:
                row |= 1 << j
        total += row.bit_count()
    return total


def calibration_sample() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start



@dataclass
class Measurement:
    latencies: list = field(default_factory=list)  # calibrated seconds
    raw_latencies: list = field(default_factory=list)  # wall-clock seconds
    factors: list = field(default_factory=list)  # calibration factor per pass
    failures: list = field(default_factory=list)  # (job key, reason)
    passes: int = 0
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def jobs_per_s(self) -> float:
        return self.attempted / sum(self.latencies)

    @property
    def raw_jobs_per_s(self) -> float:
        return self.attempted / sum(self.raw_latencies)

    @property
    def correct(self) -> bool:
        return all(reason == "deadline" for _, reason in self.failures)


def measure(jobs, cli, formats, goldens: dict, seconds: float, min_samples: int,
            hard_limit_s: float, tracer=None) -> Measurement:
    """Run whole passes over ``jobs`` until ``seconds`` have passed and at
    least ``min_samples`` jobs ran, or until ``hard_limit_s``."""
    m = Measurement()
    start = time.perf_counter()
    while True:
        outputs: dict = {}
        samples = [calibration_sample()]
        raw = []
        since = 0.0
        for index, job in enumerate(jobs):
            if tracer is None:
                outcome = run_job(job, cli, formats, outputs)
            else:
                with tracer.job(f"{m.passes}/{index}"):
                    outcome = run_job(job, cli, formats, outputs)
            outputs[job.key] = outcome.stdout
            raw.append(outcome.seconds)
            since += outcome.seconds
            if since >= CALIBRATE_EVERY_S:
                samples.append(calibration_sample())
                since = 0.0
            reason = failure(job, outcome, goldens.get(job.key), cli)
            if reason:
                m.failures.append((job.key, reason))
        samples.append(calibration_sample())
        factor = CALIBRATION_NOMINAL_S / statistics.median(samples)
        m.factors.append(factor)
        m.raw_latencies += raw
        m.latencies += [t * factor for t in raw]
        m.passes += 1
        m.wall_s = time.perf_counter() - start
        if m.wall_s >= hard_limit_s or (m.wall_s >= seconds and m.attempted >= min_samples):
            return m


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles cuts it."""
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB


# ---------------------------------------------------------------------------
# set-up in fresh interpreters


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_code(rings) -> str:
    lines = ["import divtop.cli", "from divtop.rings import make_ring"]
    lines += [f"make_ring({tag!r}, {p!r})" for tag, p in sorted(rings, key=str)]
    return "\n".join(lines)


def setup_seconds(rings, repeats: int) -> list:
    """Wall times of fresh interpreters that import divtop.cli and construct
    the rings, started one at a time.  Process start-up and module loading do
    not follow the calibration kernel, so these stay wall-clock."""
    code, env = setup_code(rings), _child_env()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def sympy_import_seconds(importtime_stderr: str) -> float:
    """sympy's cumulative import time from ``-X importtime`` output (0 when
    sympy was not imported)."""
    for line in importtime_stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "sympy":
            return int(parts[1]) / 1e6
    return 0.0


def sympy_setup_seconds(repeats: int) -> list:
    env = _child_env()
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import divtop.cli"],
                              env=env, check=True, capture_output=True, text=True, cwd=ROOT)
        out.append(sympy_import_seconds(proc.stderr))
    return out


def rings_of(jobs) -> set:
    return {ring_spec(job.argv) for job in jobs if "--ring" in job.argv}
