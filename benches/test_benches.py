"""Self-tests of the benchmark: generator, self-time arithmetic, checks.

    python3 -m pytest benches -q
"""

import itertools
import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI, FORMATS = harness.import_divtop()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.jobs(workload, 7) == workloads.jobs(workload, 7)


@pytest.mark.parametrize("workload", workloads.GATED)
def test_other_seed_gives_other_inputs(workload):
    first = [job.key for job in workloads.jobs(workload, 7)]
    second = [job.key for job in workloads.jobs(workload, 8)]
    assert len(first) == len(second) and first != second


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_goldens_cover_every_job_a_seed_can_draw(workload):
    goldens = harness.load_goldens()
    assert {job.key for job in workloads.all_jobs(workload)} <= goldens.keys()


def test_self_time_subtracts_children_and_aggregates():
    spans = [
        ["job", 0.0, 10.0, -1, "0/0", 0.0],
        ["a", 1.0, 4.0, 0, "0/0", 0.5],  # 0.5 s of ring primitives inside
        ["b", 5.0, 9.0, 0, "0/0", 0.0],
        ["c", 6.0, 7.0, 2, "0/0", 0.0],
        ["d", 6.5, 8.0, 2, "0/0", 0.0],  # overlaps c: covered once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 2.0, 1.0, 1.5])


def _fragment_job():
    return workloads.Job(("fragment", "--ring", "z", "--seeds=12", "--out", "text"), 5, 5)


def _run(job):
    return harness.run_job(job, CLI, FORMATS, {})


def test_check_passes_the_golden_output():
    job = _fragment_job()
    outcome = _run(job)
    golden = (0, harness.digest(outcome.stdout))
    assert harness.failure(job, outcome, golden, CLI) is None


def test_check_flags_a_changed_byte():
    job = _fragment_job()
    outcome = _run(job)
    golden = (0, harness.digest(outcome.stdout))
    outcome.stdout = outcome.stdout.replace("12", "13", 1)
    assert "digest" in harness.failure(job, outcome, golden, CLI)


def test_check_flags_a_wrong_exit_code():
    job = _fragment_job()
    outcome = _run(job)
    golden = (1, harness.digest(outcome.stdout))
    assert "exit code" in harness.failure(job, outcome, golden, CLI)


def test_check_flags_a_wrong_point_count():
    job = workloads.Job(_fragment_job().argv, points=6)
    outcome = _run(job)
    golden = (0, harness.digest(outcome.stdout))
    assert "points" in harness.failure(job, outcome, golden, CLI)


def test_missed_deadline_is_abandoned_and_flagged():
    stall = workloads.jobs("stalls", 1)[0]
    job = workloads.Job(stall.argv, deadline_s=0.2)
    start = time.perf_counter()
    outcome = _run(job)
    assert time.perf_counter() - start < 2.0
    assert outcome.timed_out
    assert harness.failure(job, outcome, (0, None), CLI) == "deadline"


def _zs5_divisors(a) -> set:
    """Canonical non-unit divisors of a = (x, y) in Z[sqrt(-5)]: the points of
    its fragment, found by trying every element whose norm divides N(a)."""
    norm = a[0] ** 2 + 5 * a[1] ** 2
    found = set()
    for d in range(2, norm + 1):
        if norm % d:
            continue
        for y in range(math.isqrt(d // 5) + 1):
            x = math.isqrt(d - 5 * y * y)
            if x * x + 5 * y * y != d:
                continue
            for c in {(x, y), (x, -y)}:
                t = workloads.zs5_mul(a, (c[0], -c[1]))
                if t[0] % d == 0 and t[1] % d == 0 and (c[0] > 0 or c[1] > 0):
                    found.add(c)
    return found


def _zs5_points(seeds: str, power: int) -> int:
    points = set()
    for text in seeds.split(","):
        elem = CLI.make_ring("zs5").parse(text)
        base = (elem.x, elem.y)
        points |= _zs5_divisors(workloads._power(workloads.zs5_mul, (1, 0), [base], (power,)))
    return len(points)


def test_zs5_divisor_count_matches_a_known_fragment():
    # 6 = 2*3 = (1+s)(1-s): divisors 2, 3, 1+s, 1-s and 6
    assert _zs5_points("6", 1) == 5


def test_small_mixed_fragments_stay_under_the_ceiling():
    for job in workloads.all_jobs("small_mixed"):
        if job.max_points is not None:
            assert job.max_points <= workloads.SMALL_POINT_CEILING, job.key
            continue
        argv = job.argv
        assert "--ring" in argv and argv[argv.index("--ring") + 1] == "zs5", job.key
        prop = argv[argv.index("--props") + 1]
        power = int(argv[-1]) if prop == "chain" else 2 if prop in ("t1", "regular") else 1
        seeds = next(a for a in argv if a.startswith("--seeds=")).split("=", 1)[1]
        assert _zs5_points(seeds, power) <= workloads.SMALL_POINT_CEILING, job.key


def test_rabin_test_matches_trial_division():
    def trial(f, p):
        return not any(
            not workloads.poly_mod(f, c + (1,), p)
            for d in range(1, (len(f) - 1) // 2 + 1)
            for c in itertools.product(range(p), repeat=d)
        )

    for p, d in [(2, 4), (3, 3), (5, 2), (3, 4), (2, 6)]:
        for c in itertools.product(range(p), repeat=d):
            f = c + (1,)
            assert workloads.is_irreducible_fp(f, p) == trial(f, p), (p, f)


def test_sympy_share_is_read_from_importtime_output():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |     401234 | sympy\n"
        "import time:        80 |        900 |   sympy.core\n"
    )
    assert harness.sympy_import_seconds(stderr) == pytest.approx(0.401234)
    assert harness.sympy_import_seconds("") == 0.0


def test_pass_timings_are_scaled_by_the_calibration_factor():
    job = _fragment_job()
    m = harness.measure([job, job], CLI, FORMATS, {}, 0.0, 1, 10.0)
    assert m.passes == 1 and len(m.factors) == 1 and m.factors[0] > 0
    assert m.latencies == pytest.approx([t * m.factors[0] for t in m.raw_latencies])
