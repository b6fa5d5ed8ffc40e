"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them) and holding a wall-clock budget.

All expected values are exact; the oracles are brute-force scans, raw
integer arithmetic, or full open-set enumeration, independent of the code
paths they test.
"""

import random
import time
from contextlib import contextmanager

import pytest
from sympy import factorint, isprime

from divtop import checks as C
from divtop.cli import main as cli_main
from divtop.errors import SizeGuard
from divtop.primes import prime_stream
from divtop.rings import Gauss, PPow, Root5, make_ring
from divtop.topology import PointSet, build_fragment

from oracles import complement, gcd_intersection, int_is_prime

Z = make_ring("z")
G = make_ring("gauss")
F2 = make_ring("fp", 2)
F3 = make_ring("fp", 3)
F5 = make_ring("fp", 5)
S5 = make_ring("zs5")

cz = Z.canonical_class


def zfrag(*seeds):
    return build_fragment(Z, [cz(s) for s in seeds])


@pytest.fixture(scope="module", autouse=True)
def warm_sympy():
    # keep one-time import/JIT costs out of the timed sections
    factorint(2**32)
    isprime(10**9 + 7)


@contextmanager
def criterion(num: int, budget: float, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL  {desc}")
        raise
    dt = time.perf_counter() - t0
    if dt >= budget:
        print(f"ACCEPTANCE {num}: FAIL  {desc} (took {dt:.2f}s, budget {budget}s)")
        raise AssertionError(f"criterion {num} exceeded its {budget}s budget: {dt:.2f}s")
    print(f"ACCEPTANCE {num}: PASS  {desc} ({dt:.2f}s < {budget}s)")


def test_criterion_01_closure_oracle_equivalence():
    with criterion(1, 1.0, "closure formula == multiples == open-complement oracle"):
        for seed in (12, 36, 60, 210):
            f = zfrag(seed)
            opens = list(f.enumerate_opens()) if len(f) <= 16 else None
            for p in f.points:
                cl = f.closure(f.point_set([p]))
                multiples = {q for q in f.points if q.rep % p.rep == 0}
                assert set(cl.classes()) == multiples
                if opens is not None:
                    union = 0
                    for o in opens:
                        if p not in o:
                            union |= o.bits
                    assert cl == complement(PointSet(f, union))


def test_criterion_02_isolated_iff_irreducible():
    with criterion(2, 1.0, "isolated points are exactly the irreducibles"):
        f = build_fragment(Z, [cz(n) for n in range(2, 101)])
        report = C.isolated_points(f)
        assert report.verdict == "holds"
        primes = [str(n) for n in range(2, 101) if int_is_prime(n)]
        assert len(primes) == 25
        assert sorted(report.witness_texts(), key=int) == primes

        fz = build_fragment(S5, [S5.canonical_class(Root5(6, 0))])
        report = C.isolated_points(fz)
        assert report.verdict == "holds"
        assert sorted(report.witness_texts()) == ["1+1s", "1-1s", "2", "3"]
        assert S5.is_irreducible(Root5(2, 0))
        assert not S5.divides(Root5(2, 0), Root5(1, 1))
        assert not S5.divides(Root5(2, 0), Root5(1, -1))


def test_criterion_03_nested_iff_valuation():
    with criterion(3, 1.0, "nestedness matches the valuation capability"):
        for p in (2, 3, 5):
            vp = make_ring("valp", p)
            r = C.check_nested(build_fragment(vp, [vp.canonical_class(PPow(p, 20))]))
            assert r.verdict == "holds"
        r = C.check_nested(build_fragment(Z, [cz(6)]))
        assert r.verdict == "fails" and r.witness_texts() == ["2", "3"]
        r = C.check_nested(build_fragment(G, [G.canonical_class(Gauss(5, 0))]))
        want = {G.canonical_class(Gauss(2, 1)), G.canonical_class(Gauss(2, -1))}
        assert r.verdict == "fails" and set(r.witnesses) == want
        r = C.check_nested(build_fragment(F2, [F2.canonical_class(F2.parse("x^2+x"))]))
        assert r.verdict == "fails" and r.witness_texts() == ["x", "x+1"]


def test_criterion_04_gcd_basis_law():
    with criterion(4, 5.0, "basic-open intersections follow gcd; zs5 breaks it"):
        rng = random.Random(2024)
        for _ in range(500):
            a, b = rng.randint(2, 10**4), rng.randint(2, 10**4)
            inter = Z.divisor_classes(a) & Z.divisor_classes(b)
            g = Z.gcd_class(a, b)
            if g is None:
                assert inter == frozenset()
            else:
                assert inter == Z.divisor_classes(g.rep)
        r = gcd_intersection(
            S5, S5.canonical_class(Root5(6, 0)), S5.canonical_class(Root5(2, 2))
        )
        assert r.verdict == "witness-produced" and r.details["basic"] is False


def _random_fragment(ring, rng):
    while True:
        if ring.tag == "z":
            e = rng.randint(2, 10**4)
        elif ring.tag == "gauss":
            e = Gauss(rng.randint(0, 9), rng.randint(0, 9))
        elif ring.tag == "zs5":
            e = Root5(rng.randint(1, 9), rng.randint(0, 3))
        elif ring.tag == "fp":
            e = ring.poly([rng.randrange(ring.p) for _ in range(rng.randint(1, 5))] + [1])
        else:
            e = PPow(ring.p, rng.randint(1, 15))
        if not ring.is_zero(e) and not ring.is_unit(e):
            return build_fragment(ring, [ring.canonical_class(e)])


def test_criterion_05_t0_everywhere_t1_witness():
    with criterion(5, 5.0, "T0 on random fragments; T1 fails at ([2],[4])"):
        rng = random.Random(777)
        rings = (Z, G, F3, S5, make_ring("valp", 3))
        for ring in rings:
            for _ in range(100):
                f = _random_fragment(ring, rng)
                assert C.check_t0(f).verdict == "holds"
        r = C.t1_failure_witness(Z, cz(2))
        assert r.verdict == "witness-produced"
        assert r.witness_texts() == ["2", "4"]
        f = zfrag(4)
        for o in f.enumerate_opens():
            if cz(4) in o:
                assert cz(2) in o


def test_criterion_06_non_compactness_and_chains():
    with criterion(6, 1.0, "x^2 never divides x; basic-open chains grow strictly"):
        rng = random.Random(31337)
        rings = (Z, G, F2, S5, make_ring("valp", 2))
        for ring in rings:
            for _ in range(20):
                f = _random_fragment(ring, rng)
                x = f.points[rng.randrange(len(f))]
                r = C.non_compact_witness(ring, x, [x])
                assert r.verdict == "witness-produced"
                assert r.details["square_divides_point"] is False
        for ring, a, n in (
            (Z, cz(2), 32),
            (make_ring("valp", 2), make_ring("valp", 2).canonical_class(PPow(2, 1)), 32),
            (G, G.canonical_class(Gauss(1, 1)), 32),
            (F2, F2.canonical_class(F2.parse("x")), 8),
            (S5, S5.canonical_class(Root5(2, 0)), 6),
        ):
            r = C.noetherian_chain(ring, a, n)
            assert r.verdict == "witness-produced"
            assert r.details["sizes"] == list(range(1, n + 1))
        # out-of-guard chains refuse instead of stalling
        with pytest.raises(SizeGuard):
            C.noetherian_chain(F2, F2.canonical_class(F2.parse("x")), 32)


def test_criterion_07_density_and_baire_echo():
    with criterion(7, 10.0, "irreducibles are dense; dense opens contain them"):
        rng = random.Random(4242)
        samples = [cz(rng.randint(2, 10**6)) for _ in range(200)]
        assert C.density_check(Z, samples).verdict == "holds"
        zs5_samples = []
        while len(zs5_samples) < 40:
            e = Root5(rng.randint(-40, 40), rng.randint(-14, 14))
            if e.norm > 1 and e.norm <= 10**4:
                zs5_samples.append(S5.canonical_class(e))
        assert C.density_check(S5, zs5_samples).verdict == "holds"
        for seed in range(2, 61):
            f = zfrag(seed)
            assert len(f) <= 12
            assert C.dense_open_check(f).verdict == "holds"


def _recompute_candidate(ring, members):
    head = members[0].rep
    tail = ring.product(c.rep for c in members[1:])
    power = ring.one()
    for _ in range(64):
        power = ring.mul(power, head)
        x = ring.add(power, tail)
        if not ring.is_zero(x) and not ring.is_unit(x):
            return x
    raise AssertionError("no candidate found")


def test_criterion_08_prime_stream():
    with criterion(8, 5.0, "prime stream grows 10 (z) and 5+5 (fp) new primes"):
        start = (cz(2), cz(3))
        out = prime_stream(Z, start, 10)
        members = list(out)
        assert len(members) == 12 and len(set(members)) == 12
        for c in members:
            assert Z.is_irreducible(c.rep)
        for k in range(2, 12):
            x = _recompute_candidate(Z, members[:k])
            for c in members[:k]:
                assert not Z.divides(c.rep, x)
            assert Z.divides(members[k].rep, x)
        for ring in (F2, F3):
            start = (ring.canonical_class(ring.parse("x")),)
            out = prime_stream(ring, start, 5)
            members = list(out)
            assert len(members) == 6 and len(set(members)) == 6
            for c in members:
                assert ring.is_irreducible(c.rep)
            for k in range(1, 6):
                x = _recompute_candidate(ring, members[:k])
                for c in members[:k]:
                    assert not ring.divides(c.rep, x)


def test_criterion_09_ultraconnected_and_shared_neighborhoods():
    with criterion(9, 2.0, "products witness ultraconnectivity and shared opens"):
        pool = [n for n in range(2, 300) if int_is_prime(n)]
        rng = random.Random(99)
        for _ in range(50):
            a, b, c = (cz(p) for p in rng.sample(pool, 3))
            r = C.ultraconnected_witness(Z, a, b)
            assert r.verdict == "witness-produced"
            ab = r.witnesses[0]
            assert ab.rep % a.rep == 0 and ab.rep % b.rep == 0
            r = C.no_disjoint_nbhd_witness(Z, a, b, c)
            assert r.verdict == "witness-produced"
            dab = Z.divisor_classes(a.rep * b.rep)
            dac = Z.divisor_classes(a.rep * c.rep)
            assert Z.divisor_classes(a.rep) <= (dab & dac)
            assert a in (dab & dac)


CLI_COMMANDS = [
    ("fragment", "--ring", "z", "--seeds", "12", "--out", "dot"),
    ("fragment", "--ring", "z", "--seeds", "36", "--out", "json"),
    ("fragment", "--ring", "z", "--seeds", "60", "--out", "json"),
    ("fragment", "--ring", "z", "--seeds", "210", "--out", "json"),
    ("check", "--ring", "z", "--seeds", ",".join(str(n) for n in range(2, 101)), "--props", "isolated"),
    ("check", "--ring", "zs5", "--seeds", "6", "--props", "isolated,gcd-intersection,density"),
    ("check", "--ring", "valp", "--p", "2", "--seeds", "p^20", "--props", "nested"),
    ("check", "--ring", "valp", "--p", "3", "--seeds", "p^20", "--props", "nested"),
    ("check", "--ring", "valp", "--p", "5", "--seeds", "p^20", "--props", "nested"),
    ("check", "--ring", "z", "--seeds", "6", "--props", "nested"),
    ("check", "--ring", "gauss", "--seeds", "5", "--props", "nested,t1"),
    ("check", "--ring", "fp", "--p", "2", "--seeds", "x^2+x", "--props", "nested"),
    ("check", "--ring", "z", "--seeds", "12,18", "--props", "t0,gcd-intersection,dense-open"),
    ("check", "--ring", "z", "--seeds", "2,3,5", "--props", "t1,ultra,sep-nbhd,regular,compact,maximal"),
    ("check", "--ring", "z", "--seeds", "2", "--props", "chain", "--n", "32"),
    ("check", "--ring", "valp", "--p", "2", "--seeds", "p", "--props", "chain", "--n", "32"),
    ("check", "--ring", "gauss", "--seeds", "1+1i", "--props", "chain", "--n", "32"),
    ("check", "--ring", "fp", "--p", "2", "--seeds", "x", "--props", "chain", "--n", "8"),
    ("primes", "--ring", "z", "--start", "2,3", "--count", "10"),
    ("primes", "--ring", "fp", "--p", "2", "--start", "x", "--count", "5"),
    ("primes", "--ring", "fp", "--p", "3", "--start", "x", "--count", "5"),
]


def test_criterion_10_cli_determinism(capsys):
    def run_all():
        outputs = []
        for argv in CLI_COMMANDS:
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            outputs.append((argv, code, captured.out, captured.err))
            assert code == 0, (argv, captured.err)
        return outputs

    first = run_all()
    second = run_all()
    ok = first == second
    if ok:
        print(f"ACCEPTANCE 10: PASS  {len(CLI_COMMANDS)} CLI commands byte-identical on rerun")
    else:
        print("ACCEPTANCE 10: FAIL  CLI output changed between runs")
    assert ok
