"""Checker verdicts and witness contents."""

import inspect
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divtop
from divtop import checks as C
from divtop.errors import ParameterError, SizeGuard
from divtop.formats import report_to_json
from divtop.rings import ClassId, Gauss, PPow, Root5, make_ring
from divtop.topology import POINT_CAP, Fragment, build_fragment

from oracles import gcd_intersection, isolated_oracle, nested_oracle, t0_oracle
from strategies import RING_SEEDS

Z = make_ring("z")
G = make_ring("gauss")
F2 = make_ring("fp", 2)
F3 = make_ring("fp", 3)
S5 = make_ring("zs5")
V2 = make_ring("valp", 2)

cz = Z.canonical_class


def zfrag(*seeds):
    return build_fragment(Z, [cz(s) for s in seeds])


# ---------------------------------------------------------------------------
# t0 / t1


def test_t0_holds_on_fragments():
    assert C.check_t0(zfrag(12)).verdict == "holds"
    assert C.check_t0(zfrag(7)).verdict == "holds"  # single point, vacuous


def test_t0_random_fragments_all_adapters():
    rng = random.Random(71)
    for _ in range(100):
        f = zfrag(rng.randint(2, 10**4))
        assert C.check_t0(f).verdict == "holds"


def test_t0_example_detail():
    r = C.check_t0(zfrag(12))
    ex = r.details["example"]
    sep = set(ex["separating_open"])
    assert ex["contains"] in sep and ex["pair"][0] not in sep


def test_t1_witness_int():
    r = C.t1_failure_witness(Z, cz(2))
    assert r.verdict == "witness-produced"
    assert r.witness_texts() == ["2", "4"]
    assert r.details["square_in_closure_of_point"]
    # exhaustively: every open containing [4] contains [2]
    f = zfrag(4)
    for o in f.enumerate_opens():
        if cz(4) in o:
            assert cz(2) in o


def test_t1_witness_large_fragment_skips_enumeration():
    # 3600 has 44 non-unit divisor classes, past the enumeration cap, so the
    # witness rests on the closure and minimal-open facts alone
    r = C.t1_failure_witness(Z, cz(60))
    assert r.verdict == "witness-produced"
    assert r.witness_texts() == ["60", "3600"]
    assert r.details["opens_enumerated"] == 0
    assert r.details["square_in_closure_of_point"]
    assert r.details["point_in_minimal_open_of_square"]


def test_t1_witness_gauss_and_valp():
    r = C.t1_failure_witness(G, G.canonical_class(Gauss(1, 1)))
    assert r.witness_texts() == ["1+1i", "2"]
    r = C.t1_failure_witness(make_ring("valp", 3), make_ring("valp", 3).canonical_class(PPow(3, 1)))
    assert r.witness_texts() == ["p", "p^2"]


# ---------------------------------------------------------------------------
# isolated points


def test_isolated_int_60():
    r = C.isolated_points(zfrag(60))
    assert r.verdict == "holds"
    assert r.witness_texts() == ["2", "3", "5"]


def test_isolated_zs5_6():
    r = C.isolated_points(build_fragment(S5, [S5.canonical_class(Root5(6, 0))]))
    assert r.verdict == "holds"
    assert sorted(r.witness_texts()) == ["1+1s", "1-1s", "2", "3"]


def test_isolated_valp():
    r = C.isolated_points(build_fragment(V2, [V2.canonical_class(PPow(2, 4))]))
    assert r.witness_texts() == ["p"]


def test_isolated_equals_bruteforce_filter():
    rng = random.Random(73)
    for _ in range(25):
        f = zfrag(rng.randint(2, 10**4))
        r = C.isolated_points(f)
        assert r.verdict == "holds"
        want = [p.text for p in f.points if Z.is_irreducible(p.rep)]
        assert r.details["isolated"] == want


def test_isolated_equals_oracle_filter_all_adapters():
    # irreducibility decided by the brute-force divisor oracle, not the library
    from oracles import divisor_classes_oracle

    frags = [
        build_fragment(G, [G.canonical_class(Gauss(4, 7))]),  # norm 65
        build_fragment(G, [G.canonical_class(Gauss(6, 0))]),
        build_fragment(S5, [S5.canonical_class(Root5(6, 0))]),
        build_fragment(S5, [S5.canonical_class(Root5(3, 3))]),
        build_fragment(F2, [F2.canonical_class(F2.parse("x^5+x^4+x"))]),
        build_fragment(F3, [F3.canonical_class(F3.parse("x^4+x^3+x^2+1"))]),
    ]
    for f in frags:
        r = C.isolated_points(f)
        assert r.verdict == "holds"
        want = sorted(
            p.text
            for p in f.points
            if divisor_classes_oracle(f.ring, p.rep) == {p}
        )
        assert sorted(r.witness_texts()) == want


@given(RING_SEEDS)
@example((S5, [S5.canonical_class(Root5(6, 0)), S5.canonical_class(Root5(2, 2))]))
@example((F3, [F3.canonical_class(F3.parse("x^6+2x^5+x^4"))]))
@settings(max_examples=100, deadline=None)
def test_isolated_matches_per_point_loop(ring_seeds):
    ring, seeds = ring_seeds
    f = build_fragment(ring, seeds)
    assert report_to_json(C.isolated_points(f)) == report_to_json(isolated_oracle(f))


@pytest.mark.parametrize(
    "ring, seeds",
    [
        (Z, [720]),
        (G, [Gauss(6, 8), Gauss(5, 0)]),
        (F3, [F3.parse("x^6+2x^5+x^4")]),
        (V2, [PPow(2, 9)]),
    ],
    ids=["z", "gauss", "fp", "valp"],
)
def test_isolated_on_a_ufd_neither_divides_nor_factors(monkeypatch, ring, seeds):
    # the irreducible points are the seeds' distinct factors, which each
    # seed's listing gave the build: the check divides nothing, tests no
    # point and factors no seed again
    f = build_fragment(ring, [ring.canonical_class(s) for s in seeds])
    calls = []
    for name in ("divide", "is_irreducible", "_factor_reps"):
        real = getattr(ring, name)
        monkeypatch.setattr(ring, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    r = C.isolated_points(f)
    assert r.verdict == "holds" and calls == []


@pytest.mark.parametrize("seeds", [[Root5(6, 0)], [Root5(7560, 0)], [Root5(18, -36), Root5(9, 0)]])
def test_isolated_sweeps_zs5_once_per_class_and_earlier_irreducible(monkeypatch, seeds):
    # zs5 has no unique factorization, so its listing sweeps for the
    # irreducibles, and only when the check asks: a class is irreducible
    # when no irreducible listed before it divides it, one division per pair
    seeds = [S5.canonical_class(s) for s in seeds]
    sweeps, divisions = [], []
    atoms = type(S5)._atoms
    monkeypatch.setattr(type(S5), "_atoms", lambda self, listed: sweeps.append(1) or atoms(self, listed))
    f = build_fragment(S5, seeds)
    assert sweeps == []
    # the largest seed divides the other, so the build listed it alone
    listed = S5._listing(seeds[0].rep)[0]
    divide = S5.divide
    monkeypatch.setattr(S5, "divide", lambda numer, denom: divisions.append(1) or divide(numer, denom))
    r = C.isolated_points(f)
    assert r.verdict == "holds"
    irreducible = {c.rep for c in r.witnesses}
    pairs = sum(len(irreducible.intersection(listed[:i])) for i in range(len(listed)))
    assert sweeps == [1] and 0 < len(divisions) <= pairs


@pytest.mark.parametrize(
    "reps, cols, witnesses",
    [
        # the irreducible 3 with a bogus divisor bit for 2
        ((2, 3, 6), (0b001, 0b011, 0b111), ["3"]),
        # the reducible 6 with its column cleared
        ((2, 3, 6), (0b001, 0b010, 0b100), ["6"]),
        # two associated points in each other's column: a unit quotient proves nothing
        ((3, -3), (0b11, 0b11), ["3", "-3"]),
    ],
)
def test_isolated_fails_on_corrupted_columns(reps, cols, witnesses):
    n = len(reps)
    rows = tuple(sum(1 << j for j in range(n) if cols[j] >> i & 1) for i in range(n))
    # the points the ring judges irreducible, in the place of the seed's
    # listing: no listing names -3, which is no canonical rep
    irreducible = [r for r in reps if Z.is_irreducible(r)]
    seed = ClassId("z", reps[-1], str(reps[-1]))
    f = Fragment(Z, reps, tuple(map(str, reps)), {}, (seed,), (lambda: irreducible,), {r: i for i, r in enumerate(reps)})
    f.cols, f.rows = cols, rows
    r = C.isolated_points(f)
    assert r.verdict == "fails"
    assert r.witness_texts() == witnesses
    assert report_to_json(r) == report_to_json(isolated_oracle(f))


# ---------------------------------------------------------------------------
# nestedness


def test_nested_valp_holds():
    r = C.check_nested(build_fragment(V2, [V2.canonical_class(PPow(2, 20))]))
    assert r.verdict == "holds"


def test_nested_int_fails():
    r = C.check_nested(build_fragment(Z, [cz(6)]))
    assert r.verdict == "fails"
    assert r.witness_texts() == ["2", "3"]


def test_nested_gauss_fails():
    r = C.check_nested(build_fragment(G, [G.canonical_class(Gauss(5, 0))]))
    assert r.verdict == "fails"
    want = {G.canonical_class(Gauss(2, 1)).text, G.canonical_class(Gauss(2, -1)).text}
    assert set(r.witness_texts()) == want


def test_nested_agrees_with_valuation_capability():
    # any seed with two non-associated irreducible divisors defeats nestedness
    rng = random.Random(79)
    for _ in range(20):
        k = rng.randint(1, 20)
        f = build_fragment(V2, [V2.canonical_class(PPow(2, k))])
        assert C.check_nested(f).verdict == "holds"
    primes = [p for p in range(2, 200) if Z.is_irreducible(p)]
    for _ in range(20):
        p, q = rng.sample(primes, 2)
        assert C.check_nested(build_fragment(Z, [cz(p * q)])).verdict == "fails"
        assert C.check_nested(build_fragment(Z, [cz(p), cz(q)])).verdict == "fails"
    for ring, seeds in (
        (Z, [cz(6)]),
        (G, [G.canonical_class(Gauss(5, 0))]),
        (F2, [F2.canonical_class(F2.parse("x^2+x"))]),
        (S5, [S5.canonical_class(Root5(6, 0))]),
    ):
        assert not ring.is_valuation
        assert C.check_nested(build_fragment(ring, seeds)).verdict == "fails"


@given(RING_SEEDS)
@example((V2, [V2.canonical_class(PPow(2, 9))]))
@example((S5, [S5.canonical_class(Root5(6, 0)), S5.canonical_class(Root5(2, 2))]))
@settings(max_examples=100, deadline=None)
def test_t0_and_nested_match_pairwise_loops(ring_seeds):
    ring, seeds = ring_seeds
    f = build_fragment(ring, seeds)
    assert report_to_json(C.check_t0(f)) == report_to_json(t0_oracle(f))
    assert report_to_json(C.check_nested(f)) == report_to_json(nested_oracle(f))


def _preorder_fragment(n, edges):
    """Fragment over the preorder that edges generate (reflexive and
    transitive, not necessarily antisymmetric), so both checks can reach
    their FAILS branch at any pair."""
    rows = [1 << i for i in range(n)]
    for i, j in edges:
        rows[i] |= 1 << j
    for k in range(n):  # Warshall closure
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    cols = [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]
    reps = tuple(range(2, n + 2))
    f = Fragment(Z, reps, tuple(map(str, reps)), {}, (cz(2),), (Z._listing(2)[1],), {r: i for i, r in enumerate(reps)})
    f.cols, f.rows = tuple(cols), tuple(rows)
    return f


PREORDERS = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)
    )
)


@given(PREORDERS)
@example((4, [(0, 3), (3, 0), (1, 2), (2, 1)]))  # first clash by i is (0, 3), not (1, 2)
@example((3, [(0, 1), (0, 2)]))
@settings(max_examples=300)
def test_t0_and_nested_first_pair_on_preorders(preorder):
    f = _preorder_fragment(*preorder)
    assert report_to_json(C.check_t0(f)) == report_to_json(t0_oracle(f))
    assert report_to_json(C.check_nested(f)) == report_to_json(nested_oracle(f))


# ---------------------------------------------------------------------------
# basis intersections


def test_basis_intersection_int():
    r = gcd_intersection(Z, cz(12), cz(18))
    assert r.verdict == "holds"
    assert r.details["gcd"] == "6"
    assert sorted(r.details["intersection"]) == ["2", "3", "6"]


def test_basis_intersection_coprime():
    r = gcd_intersection(Z, cz(4), cz(9))
    assert r.verdict == "holds"
    assert r.details["intersection"] == [] and r.details["gcd"] is None


def test_basis_intersection_zs5_non_basic():
    a = S5.canonical_class(Root5(6, 0))
    b = S5.canonical_class(Root5(2, 2))
    r = gcd_intersection(S5, a, b)
    assert r.verdict == "witness-produced"
    assert r.details["basic"] is False
    assert sorted(r.witness_texts()) == ["1+1s", "2"]


def test_basis_intersection_zs5_basic_cases():
    a = S5.canonical_class(Root5(6, 0))
    r = gcd_intersection(S5, a, S5.canonical_class(Root5(2, 0)))
    assert r.verdict == "holds" and r.details["basic"] is True
    r = gcd_intersection(
        S5, S5.canonical_class(Root5(2, 0)), S5.canonical_class(Root5(3, 0))
    )
    assert r.verdict == "holds" and r.details["basic"] is True  # empty intersection


def test_basis_intersection_never_non_basic_with_gcd():
    rng = random.Random(83)
    for _ in range(200):
        a, b = rng.randint(2, 5000), rng.randint(2, 5000)
        assert gcd_intersection(Z, cz(a), cz(b)).verdict == "holds"


# ---------------------------------------------------------------------------
# density


def test_density_examples():
    r = C.density_check(Z, [cz(720)])
    assert r.verdict == "holds" and r.details["finds"] == [["720", "2"]]
    r = C.density_check(Z, [cz(7)])
    assert r.details["finds"] == [["7", "7"]]
    r = C.density_check(S5, [S5.canonical_class(Root5(6, 0))])
    assert r.details["finds"] == [["6", "2"]]


def test_density_fails_when_a_factor_does_not_divide(monkeypatch):
    # a factor that misses its sample is reported, not trusted
    ring = make_ring("z")
    seven = ring.canonical_class(7)
    monkeypatch.setattr(ring, "factor", lambda a: (seven,))
    r = C.density_check(ring, [ring.canonical_class(12), seven])
    assert r.verdict == "fails"
    assert r.witness_texts() == ["12"]
    assert r.details == {"checked": 2, "finds": [["7", "7"]]}


def test_dense_open_examples():
    r = C.dense_open_check(zfrag(12))
    assert r.verdict == "holds"
    assert r.details["isolated"] == ["2", "3"]
    assert r.details["intersection_dense"]
    r = C.dense_open_check(zfrag(5))
    assert r.details["dense_opens"] == 1
    r = C.dense_open_check(zfrag(36))
    assert r.verdict == "holds"


def test_dense_open_guard():
    with pytest.raises(SizeGuard, match="^15 points exceeds the dense-open cap 12$"):
        C.dense_open_check(zfrag(210))  # 15 points


def test_dense_opens_contain_isolated_pointwise():
    f = zfrag(12)
    full = f.full_set()
    iso = f.point_set([cz(2), cz(3)])
    for o in f.enumerate_opens():
        if f.closure(o) == full:
            assert iso <= o


# ---------------------------------------------------------------------------
# connectivity witnesses


def test_ultraconnected_examples():
    assert C.ultraconnected_witness(Z, cz(2), cz(3)).witness_texts() == ["6"]
    r = C.ultraconnected_witness(
        G, G.canonical_class(Gauss(1, 1)), G.canonical_class(Gauss(3, 0))
    )
    assert r.witness_texts() == ["3+3i"]
    r = C.ultraconnected_witness(
        S5, S5.canonical_class(Root5(2, 0)), S5.canonical_class(Root5(1, 1))
    )
    assert r.witness_texts() == ["2+2s"]
    assert r.details["product_in_closure_of_left"]
    assert r.details["product_in_closure_of_right"]


def test_sep_nbhd_examples():
    r = C.no_disjoint_nbhd_witness(Z, cz(2), cz(3), cz(5))
    assert r.verdict == "witness-produced"
    assert r.witness_texts() == ["6", "10"]
    assert r.details["separated"]
    assert "2" in r.details["minimal_open_intersection"]

    r = C.no_disjoint_nbhd_witness(Z, cz(3), cz(2), cz(7))
    assert r.witness_texts() == ["6", "21"]
    assert r.details["common_point"] == "3"

    x, x1, q = (F2.canonical_class(F2.parse(t)) for t in ("x", "x+1", "x^2+x+1"))
    r = C.no_disjoint_nbhd_witness(F2, x, x1, q)
    assert r.witness_texts() == ["x^2+x", "x^3+x^2+x"]
    assert "x" in r.details["minimal_open_intersection"]


def test_sep_nbhd_validation():
    with pytest.raises(ParameterError, match="^4 is not irreducible in z$"):
        C.no_disjoint_nbhd_witness(Z, cz(4), cz(3), cz(5))
    with pytest.raises(ParameterError, match="^inputs must be pairwise non-associated$"):
        C.no_disjoint_nbhd_witness(Z, cz(2), cz(-2), cz(5))


def test_non_regular_examples():
    r = C.non_regular_witness(Z, cz(2))
    assert r.verdict == "witness-produced"
    assert r.details["closure_of_singleton"] == ["2", "4"]
    assert r.details["singleton_closed"] is False
    v5 = make_ring("valp", 5)
    r = C.non_regular_witness(v5, v5.canonical_class(PPow(5, 1)))
    assert r.details["closure_of_singleton"] == ["p", "p^2"]
    r = C.non_regular_witness(G, G.canonical_class(Gauss(1, 1)))
    assert r.details["closure_of_singleton"] == ["1+1i", "2"]


def test_non_compact_examples():
    r = C.non_compact_witness(Z, cz(6), [cz(2), cz(3), cz(5)])
    assert r.verdict == "witness-produced"
    assert r.details["square_divides_point"] is False
    assert r.details["common_point"] == "30"
    assert r.details["common_point_in_every_closure"]
    r = C.non_compact_witness(Z, cz(2), [cz(2)])
    assert r.verdict == "witness-produced"
    x = S5.canonical_class(Root5(1, 1))
    r = C.non_compact_witness(S5, x, [x])
    assert r.verdict == "witness-produced"
    assert r.details["square"] == S5.canonical_class(Root5(-4, 2)).text


# ---------------------------------------------------------------------------
# chains and maximal elements


def test_chain_int():
    r = C.noetherian_chain(Z, cz(2), 5)
    assert r.verdict == "witness-produced"
    assert r.details["sizes"] == [1, 2, 3, 4, 5]
    assert r.details["chain"][:3] == ["U_2", "U_4", "U_8"]


def test_chain_valp_32():
    r = C.noetherian_chain(V2, V2.canonical_class(PPow(2, 1)), 32)
    assert r.details["sizes"] == list(range(1, 33))
    assert r.details["strictly_increasing"]


def test_chain_fp():
    r = C.noetherian_chain(F2, F2.canonical_class(F2.parse("x")), 8)
    assert r.details["sizes"] == list(range(1, 9))


def test_chain_length_cap():
    # n powers are n points of one fragment, so POINT_CAP bounds n
    p = V2.canonical_class(PPow(2, 1))
    assert C.noetherian_chain(V2, p, POINT_CAP).details["sizes"][-1] == POINT_CAP
    with pytest.raises(ParameterError, match=f"chain length must be <= {POINT_CAP}"):
        C.noetherian_chain(V2, p, POINT_CAP + 1)


@pytest.mark.parametrize(
    "tag, p, seed, n, message",
    [
        ("fp", 17, "x^12+x+1", 4096, "degree 24 exceeds the fp bound 12"),
        ("fp", 2, "x^12+x+1", 4096, "degree 24 exceeds the fp bound 12"),
        ("z", None, "7777777777", 1000, "an integer of 66 bits exceeds the z bound 1000000000000"),
    ],
    ids=["fp17", "fp2", "z"],
)
def test_chain_is_refused_at_the_first_power_past_a_guard(tag, p, seed, n, message):
    # fp products pass no size limit: multiplying out all n powers before the
    # build refused a^n took about 3.7 minutes for these three cases on a
    # 2-CPU container.  a^2 is listed, and refused, before a^3 is made.  A
    # fresh ring keeps the counting mul off the shared instance
    ring = divtop.rings.RINGS[tag](p)
    muls = []
    mul = ring.mul
    ring.mul = lambda a, b: muls.append(1) or mul(a, b)
    a = ring.canonical_class(ring.parse(seed))
    with pytest.raises(SizeGuard, match=f"^{message}$"):
        C.noetherian_chain(ring, a, n)
    assert len(muls) == 1


def test_chain_every_nonunit_strict():
    rng = random.Random(89)
    for _ in range(15):
        a = cz(rng.randint(2, 50))
        r = C.noetherian_chain(Z, a, 4)
        assert r.details["strictly_increasing"], r


def test_maximal_examples():
    f = zfrag(12)
    r = C.maximal_basic_open(f, [cz(2), cz(4), cz(6)])
    assert r.verdict == "witness-produced"
    assert r.witness_texts() == ["4", "6"]
    r = C.maximal_basic_open(zfrag(8), [cz(2), cz(4), cz(8)])
    assert r.witness_texts() == ["8"]
    r = C.maximal_basic_open(f, [cz(6)])
    assert r.witness_texts() == ["6"]


def test_maximal_always_nonempty():
    rng = random.Random(97)
    for _ in range(20):
        f = zfrag(rng.randint(2, 2000))
        fam = [f.points[rng.randrange(len(f))] for _ in range(rng.randint(1, len(f)))]
        r = C.maximal_basic_open(f, fam)
        assert r.witnesses
        # nothing in the family strictly contains a reported maximal open
        for m in r.witnesses:
            for p in fam:
                om, op = f.basic_open(m), f.basic_open(p)
                assert not (om <= op and om.bits != op.bits)


def test_maximal_empty_family():
    with pytest.raises(ParameterError, match="^subfamily of basic opens is empty$"):
        C.maximal_basic_open(zfrag(12), [])
    # the compact witness's family is refused the same way
    with pytest.raises(ParameterError, match="^family of classes is empty$"):
        C.non_compact_witness(Z, cz(2), [])


@pytest.mark.parametrize("value, shown", [(None, "a NoneType"), (12, "12"), ("12", "'12'")])
@pytest.mark.parametrize(
    "check",
    [
        C.check_t0,
        C.check_nested,
        C.isolated_points,
        C.dense_open_check,
        lambda fragment: C.maximal_basic_open(fragment, [cz(2)]),
    ],
    ids=["t0", "nested", "isolated", "dense-open", "maximal"],
)
def test_fragment_checks_refuse_a_non_fragment(check, value, shown):
    with pytest.raises(ParameterError, match=f"^{re.escape(shown)} is not a fragment$"):
        check(value)


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_deterministic():
    runs = []
    for _ in range(2):
        batch = [
            C.check_t0(zfrag(12)),
            C.t1_failure_witness(Z, cz(2)),
            C.isolated_points(zfrag(60)),
            C.check_nested(build_fragment(Z, [cz(6)])),
            gcd_intersection(S5, S5.canonical_class(Root5(6, 0)), S5.canonical_class(Root5(2, 2))),
            C.density_check(Z, [cz(720)]),
            C.dense_open_check(zfrag(12)),
            C.ultraconnected_witness(Z, cz(2), cz(3)),
            C.no_disjoint_nbhd_witness(Z, cz(2), cz(3), cz(5)),
            C.non_regular_witness(Z, cz(2)),
            C.non_compact_witness(Z, cz(6), [cz(2), cz(3), cz(5)]),
            C.noetherian_chain(Z, cz(2), 6),
            C.maximal_basic_open(zfrag(12), [cz(2), cz(4), cz(6)]),
        ]
        runs.append([report_to_json(r) for r in batch])
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# report values and ring membership


def _ring_entry_points():
    """Public callables whose first parameter is ``ring`` and which take
    classes, with the indices of their class-taking parameters."""
    for name in divtop.__all__:
        fn = getattr(divtop, name)
        if not inspect.isfunction(fn):
            continue
        params = list(inspect.signature(fn).parameters.values())
        takes = [k for k, p in enumerate(params[1:]) if "ClassId" in str(p.annotation)]
        if params[0].name == "ring" and takes:
            yield name, (fn, [str(p.annotation) for p in params[1:]], takes)


RING_ENTRY_POINTS = dict(_ring_entry_points())

# one irreducible class per ring; two fp and two valp rings, so a class of the
# same kind of ring with another p is foreign too
OWN_CLASSES = [
    (ring, ring.canonical_class(ring.parse(text)))
    for ring, text in ((Z, "2"), (G, "1+1i"), (F3, "x"), (make_ring("fp", 5), "x"),
                       (S5, "2"), (V2, "p"), (make_ring("valp", 3), "p"))
]


def test_ring_entry_points_are_found():
    assert set(RING_ENTRY_POINTS) == {
        "build_fragment", "density_check", "no_disjoint_nbhd_witness", "noetherian_chain",
        "non_compact_witness", "non_regular_witness", "prime_stream", "t1_failure_witness",
        "ultraconnected_witness",
    }


@pytest.mark.parametrize("name", sorted(RING_ENTRY_POINTS))
def test_a_class_of_another_ring_is_refused(name):
    # every ring pair, with the stranger in each class-taking parameter in turn
    fn, annotations, takes = RING_ENTRY_POINTS[name]
    for ring, own in OWN_CLASSES:
        for foreign in (c for _, c in OWN_CLASSES if c.ring != ring.name):
            for at in takes:
                args = []
                for k, ann in enumerate(annotations):
                    c = foreign if k == at else own
                    args.append(c if ann == "ClassId" else [c] if "ClassId" in ann else 2)
                with pytest.raises(ParameterError, match=_foreign_refusal(foreign, ring)):
                    fn(ring, *args)


def _foreign_refusal(c, ring) -> str:
    """The message that refuses class c in a ring it does not belong to."""
    return f"^a class of {re.escape(c.ring)} does not belong to {re.escape(ring.name)}$"


@pytest.mark.parametrize("prop", list(C.PROPS))
def test_every_prop_runner_refuses_a_class_of_another_ring(prop):
    # the runner, called as README calls it, refuses the stranger before any
    # arithmetic reads its representative
    runner = C.PROPS[prop][1]
    for ring, _ in OWN_CLASSES:
        for foreign in (c for _, c in OWN_CLASSES if c.ring != ring.name):
            with pytest.raises(ParameterError, match=_foreign_refusal(foreign, ring)):
                runner(ring, [foreign], 2, lambda: build_fragment(ring, [foreign]))
