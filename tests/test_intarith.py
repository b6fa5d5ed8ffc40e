"""The integer layer against sympy, which stays installed as its oracle."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime
from sympy.ntheory.primetest import is_strong_lucas_prp

import divtop
from divtop import intarith
from divtop.errors import SizeGuard
from divtop.intarith import MR_BASES, MR_EXACT_BELOW, RHO_BUDGET, factor, is_prime, sqrt_minus_one

ROOT = Path(__file__).resolve().parents[1]

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801,
              232250619601, 9746347772161)
# (6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael number;
# these two lie above MR_EXACT_BELOW, where the Baillie-PSW branch decides
CHERNICK = (3556406972273962762722241, 3556575393317182200121489)
# a strong pseudoprime to every prime base from 2 to 31
PSP_2_TO_31 = 3825123056546413051

below = st.integers(min_value=-10, max_value=MR_EXACT_BELOW)
above = st.integers(min_value=MR_EXACT_BELOW, max_value=10**60)


def semiprime_like(lo, hi):
    """Products of a cofactor and a prime drawn near random points, so that
    rho has a large factor to find."""
    return st.builds(
        lambda m, x: m * nextprime(x),
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=lo, max_value=hi),
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(below, above))
@example(PSP_2_TO_31)
@example(MR_EXACT_BELOW)
@example(2**89 - 1)
# trial division stops at the first q with q^2 > n; a prime square sits on
# that bound
@example(4)
@example(997 * 997)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == isprime(n)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(min_value=MR_EXACT_BELOW, max_value=10**40).map(nextprime),
                 st.integers(min_value=10**6, max_value=10**24).map(nextprime)))
def test_is_prime_on_primes(p):
    assert is_prime(p) and isprime(p)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(min_value=1, max_value=10**18), semiprime_like(10**3, 10**9),
                 semiprime_like(MR_EXACT_BELOW, 10**40)))
@example(999999937 * 999999929)
@example(2**64 + 1)
@example(4)
@example(997 * 997)
@example(997 * 1009)
def test_factor_matches_sympy(n):
    got = factor(n)
    assert got == factorint(n)
    assert list(got) == sorted(got)


def test_strong_lucas_matches_sympy():
    # the Baillie-PSW branch's second half, on the odd non-squares from 1001
    # to 20000 (which hold the strong Lucas pseudoprimes 5459, 5777, 10877, ...)
    for n in range(1001, 20000, 2):
        if round(n**0.5) ** 2 != n:
            assert intarith._strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


@pytest.mark.parametrize("n", CARMICHAEL + CHERNICK)
def test_carmichael_numbers_are_composite(n):
    assert not is_prime(n)
    assert factor(n) == factorint(n)


def test_last_two_bases_catch_the_2_to_31_pseudoprime():
    assert all(intarith._strong_probable_prime(PSP_2_TO_31, a) for a in MR_BASES[:11])
    assert not is_prime(PSP_2_TO_31)
    assert factor(PSP_2_TO_31) == {149491: 1, 747451: 1, 34233211: 1}


@pytest.fixture
def rho_steps(monkeypatch):
    """The step counts of every rho run, in order."""
    steps = []
    rho = intarith._rho

    def counted(n, c, budget):
        d, k = rho(n, c, budget)
        steps.append(k)
        return d, k

    monkeypatch.setattr(intarith, "_rho", counted)
    return steps


def test_largest_semiprime_under_the_gauss_norm_bound_factors(rho_steps):
    assert factor(999999937 * 999999929) == {999999929: 1, 999999937: 1}
    assert 0 < sum(rho_steps) < RHO_BUDGET // 8


def test_rho_budget_may_be_spent_in_full(rho_steps):
    # the 14th candidate of the z prime stream from 2: splitting off 90679
    # takes 510 steps, and the 25-digit cofactor splits at step 835838 of its
    # run, inside a round of 2^18 that does not fit whole in what is left
    x = 190424618066103228779038409687
    assert factor(x) == factorint(x) == {90679: 1, 446906737493: 1, 4698935341021: 1}
    assert RHO_BUDGET // 2 < sum(rho_steps) <= RHO_BUDGET


@settings(max_examples=200, deadline=None)
@given(semiprime_like(10**3, 10**6), st.integers(min_value=1, max_value=4000))
@example(1009 * 1709, 120)  # a batch finds n itself, and stepping back would pass 120
def test_rho_never_takes_more_steps_than_its_budget(n, budget):
    d, steps = intarith._rho(n, 1, budget)
    assert steps <= budget
    assert d is None or (d > 1 and n % d == 0)


def test_rho_stops_inside_a_round_when_its_budget_runs_out():
    # with its whole budget this split takes 1022 steps, but a budget cut
    # inside the last round ends that round's batch early, and from 988 steps
    # on its gcd already holds the factor; below that every budget runs out
    n = 1000003 * 1000033
    assert intarith._rho(n, 1, RHO_BUDGET) == (1000033, 1022)
    assert intarith._rho(n, 1, 5) == (None, 5)  # out of budget inside a batch
    for budget in range(1022):
        d, steps = intarith._rho(n, 1, budget)
        assert steps <= budget
        assert d == (None if budget < 988 else 1000033)


def test_rho_retries_with_the_next_polynomial():
    # x^2 + 1 meets its cycle mod 1009 and mod 1709 at the same step, so the
    # first rho run finds only n itself
    n = 1009 * 1709
    assert intarith._rho(n, 1, RHO_BUDGET)[0] == n
    assert factor(n) == {1009: 1, 1709: 1}


@pytest.mark.parametrize("p", [5, 13, 17, 29, 10**9 + 9, 999999937, 999999999999999989])
def test_sqrt_minus_one(p):
    r = sqrt_minus_one(p)
    assert 0 < r < p and (r * r + 1) % p == 0


def _load_workloads():
    path = ROOT / "benches" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


# Runs the CLI in a fresh interpreter, counts the rho steps factor() takes,
# and prints the count as the last stderr line.
COUNTING_MAIN = """
import sys
from divtop import intarith
from divtop.cli import main

steps = []
rho = intarith._rho

def counted(n, c, budget):
    d, k = rho(n, c, budget)
    steps.append(k)
    return d, k

intarith._rho = counted
code = main(sys.argv[1:])
print(sum(steps), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        # the 25th step of the z prime stream from 2 factors a 75-digit integer
        ("primes", "--ring", "z", "--start", _load_workloads().Z_STREAM_24, "--count", "1"),
        ("check", "--ring", "z", "--seeds", str(10**119 + 7), "--props", "density"),
    ],
    ids=["z-stream-step-25", "density-10^119+7"],
)
def test_in_guard_stalls_stop_at_the_rho_budget(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(divtop.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", COUNTING_MAIN, *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    error, steps = proc.stderr.splitlines()
    assert error.startswith("error: factoring a ") and f"rho budget of {RHO_BUDGET}" in error
    assert RHO_BUDGET // 2 < int(steps) <= RHO_BUDGET
