"""Fragment construction and subspace topology, with enumeration oracles."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divtop import checks as C
from divtop import topology
from divtop.errors import ParameterError, SizeGuard
from divtop.formats import fragment_from_json, fragment_to_json
from divtop.rings import ClassId, Gauss, PPow, Ring, Root5, make_ring
from divtop.topology import Fragment, PointSet, _divisibility, build_fragment

from oracles import (
    closure_oracle,
    complement,
    covering_pairs_oracle,
    divisibility_oracle,
    down_sets_oracle,
    exponent_boxes,
    exponent_order_oracle,
    interior_oracle,
    irreducible_step_oracle,
    is_open_oracle,
    isolated_oracle,
    point_index_oracle,
    point_set_classes_oracle,
)
from strategies import ELEMENTS, RING_SEEDS, V3, ufd_boxes

Z = make_ring("z")
G = make_ring("gauss")
F2 = make_ring("fp", 2)
S5 = make_ring("zs5")
V2 = make_ring("valp", 2)


def zfrag(*seeds):
    return build_fragment(Z, [Z.canonical_class(s) for s in seeds])


def sample_fragments(rng, per_ring=6):
    def draw(ring, make):
        while True:
            e = make()
            if not ring.is_zero(e) and not ring.is_unit(e):
                return build_fragment(ring, [ring.canonical_class(e)])

    frags = []
    for _ in range(per_ring):
        frags.append(zfrag(rng.randint(2, 4000)))
        frags.append(draw(G, lambda: Gauss(rng.randint(0, 9), rng.randint(0, 9))))
        frags.append(draw(S5, lambda: Root5(rng.randint(1, 9), rng.randint(0, 3))))
        frags.append(
            draw(
                F2,
                lambda: F2.poly(
                    [rng.randrange(2) for _ in range(rng.randint(2, 6))] + [1]
                ),
            )
        )
        frags.append(draw(V2, lambda: PPow(2, rng.randint(1, 9))))
    return frags


# ---------------------------------------------------------------------------
# construction


def test_build_fragment_int_12():
    f = zfrag(12)
    assert [p.text for p in f.points] == ["12", "2", "3", "4", "6"]
    assert [s.text for s in f.seeds] == ["12"]


def test_build_fragment_valp_chain():
    f = build_fragment(V2, [V2.canonical_class(PPow(2, 4))])
    assert [p.text for p in f.points] == ["p", "p^2", "p^3", "p^4"]
    for i in range(4):
        for j in range(4):
            assert f.specializes(f.points[i], f.points[j]) == (
                len(f.points[i].text) <= len(f.points[j].text)
                and f.points[i].rep.k <= f.points[j].rep.k
            )


def test_build_fragment_zs5_6():
    f = build_fragment(S5, [S5.canonical_class(Root5(6, 0))])
    assert {p.text for p in f.points} == {"1+1s", "1-1s", "2", "3", "6"}


@given(RING_SEEDS)
@example((S5, [S5.canonical_class(Root5(6, 0)), S5.canonical_class(Root5(2, 2))]))
@example((Z, [Z.canonical_class(12), Z.canonical_class(18), Z.canonical_class(35)]))
@example((G, [G.canonical_class(Gauss(2, 0)), G.canonical_class(Gauss(5, 0))]))
# a later seed's new point divided by an atom of the earlier set and by one
# of its own; the second set of 70, 12 finds 3 after the first set's 5 and 7
@example((S5, [S5.canonical_class(Root5(2, 2)), S5.canonical_class(Root5(2, -2))]))
@example((S5, [S5.canonical_class(Root5(6, 0)), S5.canonical_class(Root5(4, -2))]))
@example((Z, [Z.canonical_class(70), Z.canonical_class(12)]))
@settings(max_examples=150, deadline=None)
def test_build_matches_pairwise_oracle(ring_seeds):
    # the irreducible-step build against the n^2 divides matrix, on all five
    # rings, multi-seed unions and the non-UFD zs5 included
    ring, seeds = ring_seeds
    f = build_fragment(ring, seeds)
    cols, rows = divisibility_oracle(ring, f.points)
    assert f.cols == cols
    assert f.rows == rows
    assert set(f.covering_pairs()) == covering_pairs_oracle(cols, rows)
    assert f.covering_pairs() == sorted(f.covering_pairs())


@given(RING_SEEDS)
@example((S5, [S5.canonical_class(Root5(6, 0)), S5.canonical_class(Root5(2, 2))]))
@example((S5, [S5.canonical_class(Root5(7560, 0))]))
# a later seed's new point divided by an atom of the earlier set and by one
# of its own; the second set of 70, 12 finds 3 after the first set's 5 and 7
@example((S5, [S5.canonical_class(Root5(2, 2)), S5.canonical_class(Root5(2, -2))]))
@example((S5, [S5.canonical_class(Root5(6, 0)), S5.canonical_class(Root5(4, -2))]))
@example((Z, [Z.canonical_class(70), Z.canonical_class(12)]))
@settings(max_examples=150, deadline=None)
def test_build_matches_irreducible_step_oracle(ring_seeds):
    # the quotient-table build against the build it replaced, which divides
    # every point by every earlier irreducible point: the same columns, rows
    # and sorted covers, bit for bit
    ring, seeds = ring_seeds
    f = build_fragment(ring, seeds)
    assert (f.cols, f.rows, tuple(f.covering_pairs())) == irreducible_step_oracle(ring, f.points)


@given(ufd_boxes())
@example((Z, [2, -3, 5, 7], [(5, 5, 5, 5)]))
@example((Z, [7, 5, 2], [(1, 1, 0), (0, 0, 2)]))
@example((V3, [PPow(3, 1)], [(5,)]))
@settings(max_examples=100, deadline=None)
def test_ufd_fragment_is_its_exponent_box(ring_box):
    # in a UFD the fragment of the seeds prod q_i^f_i is the union of the
    # boxes below the f, ordered componentwise.  The oracle counts on the
    # exponent vectors, so no ring arithmetic is shared with the build, and
    # the rings meet only in naming each vector's class
    ring, atoms, tops = ring_box
    vectors = exponent_boxes(tops)

    def named(g):
        return ring.canonical_class(ring.product(q for q, k in zip(atoms, g) for _ in range(k)))

    f = build_fragment(ring, [named(t) for t in tops])
    vector_of = {named(g): g for g in vectors}
    assert len(vector_of) == len(vectors) == len(f)
    want = exponent_order_oracle([vector_of[p] for p in f.points])
    assert (f.cols, f.rows, tuple(f.covering_pairs())) == want
    if len(tops) == 1:
        (e,) = tops
        assert len(f) == math.prod(k + 1 for k in e) - 1
        edges = sum(k * math.prod(j + 1 for j in e) // (k + 1) for k in e)
        assert len(f.covering_pairs()) == edges - sum(1 for k in e if k)


def walk(ring, points, rep_lists):
    # the build's walk over listed reps, with the point index it would make
    reps = [c.rep for c in points]
    return _divisibility(ring, reps, {r: i for i, r in enumerate(reps)}, rep_lists)


@pytest.mark.parametrize("ring, seed", [(Z, 720720), (G, Gauss(720720, 0))])
def test_build_divides_once_per_composite_point(monkeypatch, ring, seed):
    # in a UFD the build divides a composite point only until the first atom
    # goes; the earlier build made 1399 and 13714 divisions here
    points = build_fragment(ring, [ring.canonical_class(seed)]).points
    calls = []
    divide = ring.divide
    monkeypatch.setattr(ring, "divide", lambda numer, denom: calls.append(1) or divide(numer, denom))
    walk(ring, points, [[c.rep for c in sorted(points, key=ring.class_sort_key)]])
    assert len(calls) < 2 * len(points)


@pytest.mark.parametrize(
    "ring, seed",
    [(Z, 720720), (G, Gauss(60, 0)), (F2, F2.parse("x^8+x^7+x^3+x")), (V2, PPow(2, 64))],
)
def test_build_walks_each_listing_without_sorting_it(monkeypatch, ring, seed):
    # a UFD lists every divisor before its multiples, so the walk calls no
    # sort_key; the one call orders the seeds.  The earlier walk sorted
    # every point of the listing by it
    seed = ring.canonical_class(seed)
    calls = []
    sort_key = ring.sort_key
    monkeypatch.setattr(ring, "sort_key", lambda e: calls.append(e) or sort_key(e))
    f = build_fragment(ring, [seed])
    assert len(f) > 1 and calls == [seed.rep]


F13 = make_ring("fp", 13)
FP13_SEED = "x^9+4x^8+7x^7+8x^6+5x^5+7x^3+x^2+8x+5"


@pytest.mark.parametrize(
    "ring, seed",
    [
        (Z, 720720),
        (G, Gauss(60, 0)),
        (F2, F2.parse("x^8+x^7+x^3+x")),
        (F13, F13.parse(FP13_SEED)),
        (V2, PPow(2, 64)),
    ],
)
def test_ufd_walk_of_one_listing_divides_once_per_composite_point(monkeypatch, ring, seed):
    # a UFD tries the newest atom first, and the newest atom dividing a
    # running product d*f^k of the listing is f: each of the n - a composite
    # points costs one division, and the a atoms a(a-1)/2 failed trials.
    # Trying the oldest atom first made 306 divisions on 720720 (248 now)
    # and 242 on the fp(13) seed (152 now)
    seed = ring.canonical_class(seed)
    f = build_fragment(ring, [seed])
    listing = ring._listing(seed.rep)[0]
    n, a = len(f), len(f.isolated())
    calls = []
    divide = ring.divide
    monkeypatch.setattr(ring, "divide", lambda numer, denom: calls.append(1) or divide(numer, denom))
    walk(ring, f.points, [listing])
    assert len(calls) == (n - a) + a * (a - 1) // 2


def test_zs5_walk_tries_its_atoms_in_found_order(monkeypatch):
    # zs5 tries every atom after the first that divides a point anyway, so
    # newest first would read fewer covers from the quotient table
    seed = S5.canonical_class(S5.parse("18-36s"))
    f = build_fragment(S5, [seed])
    listing = S5._listing(seed.rep)[0]
    calls = []
    divide = S5.divide
    monkeypatch.setattr(S5, "divide", lambda numer, denom: calls.append(1) or divide(numer, denom))
    walk(S5, f.points, [listing])
    assert len(f) == 35 and len(calls) == 222


def test_build_divisions_grow_linearly_with_irreducible_seeds(monkeypatch):
    # 300 monic cubics without a root in F_17, so irreducible: each seed's
    # own point tries only the atoms of its own divisor set, none of which
    # were found before it.  The earlier build tried every earlier atom on
    # each, about n^2 / 2 = 45000 failed divisions
    F17 = make_ring("fp", 17)
    cubics = [
        (c, b, a, 1)
        for a in range(17)
        for b in range(17)
        for c in range(17)
        if all((x**3 + a * x * x + b * x + c) % 17 for x in range(17))
    ][:300]
    seeds = [F17.canonical_class(F17.poly(f)) for f in cubics]
    calls = []
    divide = F17.divide
    monkeypatch.setattr(F17, "divide", lambda numer, denom: calls.append(1) or divide(numer, denom))
    f = build_fragment(F17, seeds)
    assert len(f) == len(seeds) == 300 and len(f.isolated()) == 300
    assert len(calls) < 10 * len(seeds)


@pytest.mark.parametrize(
    "ring, seeds, listed",
    [
        (V2, [PPow(2, k) for k in range(1, 65)], [PPow(2, 64)]),
        (Z, [6, 12, 35, 4, 12, 70], [70, 12]),
        (S5, [Root5(6, 0), Root5(2, 0), Root5(1, 1), Root5(9, 0)], [Root5(9, 0), Root5(6, 0)]),
    ],
)
def test_build_lists_each_maximal_seed_once(monkeypatch, ring, seeds, listed):
    # seeds are listed largest first, and a seed already in the union divides
    # a listed seed, so its divisor classes are not listed again
    seeds = [ring.canonical_class(s) for s in seeds]
    union = set().union(*(ring.divisor_classes(s.rep) for s in seeds))
    calls = []
    listing = ring._listing
    monkeypatch.setattr(ring, "_listing", lambda a: calls.append(a) or listing(a))
    f = build_fragment(ring, seeds)
    assert calls == listed
    assert set(f.points) == union and f.seeds == tuple(seeds)


def test_build_finds_every_cover_of_zs5_6():
    # dividing 6 by 2 gives 3 -> 6 and the table gives 2 -> 6; 1+s and 1-s
    # divide neither 2 nor 3, so their covers come from the division trials
    f = build_fragment(S5, [S5.canonical_class(Root5(6, 0))])
    six = f.index_of(S5.canonical_class(Root5(6, 0)))
    into = {f.points[i].text for i, j in f.covering_pairs() if j == six}
    assert into == {"2", "3", "1+1s", "1-1s"}


@pytest.mark.parametrize(
    "ring, seed",
    [
        (Z, 720720),
        (G, Gauss(60, 0)),
        (F2, F2.parse("x^8+x^7+x^3+x")),
        (S5, Root5(6, 0)),
        (V2, PPow(2, 64)),
    ],
)
def test_build_divide_calls_bounded(monkeypatch, ring, seed):
    # the matrix costs at most n * (#isolated points) exact divisions; the
    # divisor enumeration runs once alone and once inside the build
    seed = ring.canonical_class(seed)
    calls = []
    divide = ring.divide
    monkeypatch.setattr(ring, "divide", lambda numer, denom: calls.append(1) or divide(numer, denom))
    ring.divisor_classes(seed.rep)
    enumeration = len(calls)
    f = build_fragment(ring, [seed])
    isolated = sum(1 for c in f.cols if c.bit_count() == 1)
    assert len(calls) - 2 * enumeration <= len(f) * isolated


def test_baseline_z_97772875200_build_t0_nested():
    f = zfrag(97772875200)
    assert len(f) == 4031
    assert C.check_t0(f).verdict == "holds"
    assert C.check_nested(f).verdict == "fails"


def test_baseline_valp_p4000_build_t0_nested():
    f = build_fragment(V2, [V2.canonical_class(PPow(2, 4000))])
    assert len(f) == 4000
    assert C.check_t0(f).verdict == "holds"
    assert C.check_nested(f).verdict == "holds"


def test_baseline_gauss_720720_build():
    f = build_fragment(G, [G.canonical_class(Gauss(720720, 0))])
    assert len(f) == 1727
    assert len(f.covering_pairs()) > len(f)


def test_covering_pairs_are_sorted_afresh_on_each_read():
    # the build keeps the pairs in walk order; each read sorts a new list
    f = zfrag(360, 77)
    pairs = f.covering_pairs()
    want = sorted(pairs)
    assert pairs == want and f.covering_pairs() == want
    pairs.reverse()
    pairs.append((0, 0))
    assert f.covering_pairs() == want


@pytest.mark.parametrize("ring", ELEMENTS, ids=lambda ring: ring.name)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_point_set_classes_match_the_every_bit_scan(ring, data):
    # classes() walks only the set bits; the scan it replaced tests each of
    # the n bits in turn
    seeds = data.draw(st.lists(ELEMENTS[ring], min_size=1, max_size=3))
    f = build_fragment(ring, [ring.canonical_class(e) for e in seeds])
    n = len(f)
    masks = [0, f.full_bits, 1, 1 << n - 1, data.draw(st.integers(0, f.full_bits))]
    for bits in masks:
        s = PointSet(f, bits)
        want = point_set_classes_oracle(s)
        assert s.classes() == want and tuple(s) == want
        assert s.texts() == tuple(c.text for c in want)


def test_isolated_reads_only_singleton_columns():
    # point 0's column is {0}; point 1's holds point 0 but not its own,
    # point 2's a later point but not its own, and point 3's is empty; point
    # 4's holds its own and one other.  Only point 0 is isolated
    cols = (0b00001, 0b00001, 0b01000, 0b00000, 0b10010)
    n = len(cols)
    points = tuple(ClassId("z", r, str(r)) for r in (2, 3, 5, 7, 11))
    rows = tuple(sum(1 << j for j in range(n) if cols[j] >> i & 1) for i in range(n))
    f = Fragment(Z, points, (), points[:1], (Z._listing(2)[1],), {p.rep: i for i, p in enumerate(points)})
    f.cols, f.rows = cols, rows
    assert f.isolated().bits == 0b00001
    assert f.isolated().texts() == ("2",)


@given(RING_SEEDS)
@settings(max_examples=100, deadline=None)
def test_isolated_matches_oracle(ring_seeds):
    ring, seeds = ring_seeds
    f = build_fragment(ring, seeds)
    assert list(f.isolated().texts()) == isolated_oracle(f).details["isolated"]


def test_build_fragment_validation():
    with pytest.raises(ParameterError, match="^at least one seed class is needed$"):
        build_fragment(Z, [])
    with pytest.raises(ParameterError, match="^a class of gauss does not belong to z$"):
        build_fragment(Z, [G.canonical_class(Gauss(1, 1))])


def test_build_fragment_point_cap():
    # 963761198400 has 6720 divisors, past the 4096-point cap
    from divtop.errors import FragmentTooLarge

    with pytest.raises(FragmentTooLarge):
        build_fragment(Z, [Z.canonical_class(963761198400)])


@pytest.mark.parametrize(
    "ring, seed, atom, points",
    [(Z, 963761198400, 2, 6719), (G, Gauss(-5323500, -5323500), Gauss(1, 1), 5183)],
    ids=["z", "gauss"],
)
def test_over_cap_seed_is_refused_before_enumeration(monkeypatch, ring, seed, atom, points):
    # in a UFD one seed's class count follows from its factor exponents; the
    # enumeration starts from one(), which factoring never calls
    from divtop.errors import FragmentTooLarge

    seed, atom = ring.canonical_class(seed), ring.canonical_class(atom)
    started = []
    one = type(ring).one
    monkeypatch.setattr(type(ring), "one", lambda self: started.append(1) or one(self))
    make = Ring._class
    monkeypatch.setattr(Ring, "_class", lambda self, rep: started.append(rep) or make(self, rep))
    message = f"^{points} points exceeds the cap 4096$"
    # every seed is held to the cap, so a union is refused on its over-cap
    # seed, with the same message, before any class of it is made
    for seeds in ([seed], [seed, atom]):
        with pytest.raises(FragmentTooLarge, match=message):
            build_fragment(ring, seeds)
    assert started == []


def test_union_of_under_cap_seeds_is_refused():
    from divtop.errors import FragmentTooLarge

    seeds = [Z.canonical_class(v) for v in (23524300800, 26291865600, 31826995200)]
    for s in seeds:
        assert len(Z.divisor_classes(s.rep)) == 2303
    with pytest.raises(FragmentTooLarge, match="^4607 points exceeds the cap 4096$"):
        build_fragment(Z, seeds)


def test_union_is_refused_at_the_first_seed_past_the_cap(monkeypatch):
    from divtop.errors import FragmentTooLarge
    from divtop.intarith import is_prime

    # 43243200*q, q a prime > 13, has 1343 classes; any two share the 671 of
    # 43243200, so k seeds list 671 + 672*k, past the cap at the sixth
    seeds = [Z.canonical_class(43243200 * q) for q in range(17, 3000) if is_prime(q)][:200]
    calls = []
    listing = Z._listing
    monkeypatch.setattr(Z, "_listing", lambda a: calls.append(a) or listing(a))
    with pytest.raises(FragmentTooLarge, match="^4703 points exceeds the cap 4096$"):
        build_fragment(Z, seeds)
    assert len(calls) == 6


def test_fragment_is_divisor_closed():
    rng = random.Random(5)
    for f in sample_fragments(rng, per_ring=3):
        ring = f.ring
        for p in f.points:
            for d in ring.divisor_classes(p.rep):
                assert d in f


def test_multi_seed_union():
    f = zfrag(4, 9)
    assert {p.text for p in f.points} == {"2", "4", "3", "9"}


# ---------------------------------------------------------------------------
# basic opens / minimal opens


def test_basic_open_examples():
    f = zfrag(12)
    assert set(f.basic_open(Z.canonical_class(6)).texts()) == {"2", "3", "6"}
    assert f.basic_open(Z.canonical_class(2)).texts() == ("2",)
    fv = build_fragment(V2, [V2.canonical_class(PPow(2, 4))])
    assert len(fv.basic_open(V2.canonical_class(PPow(2, 4)))) == 4


def test_minimal_open_examples():
    f = zfrag(12)
    # the basic open is the minimal open: it is open, and least by the next test
    assert is_open_oracle(f.basic_open(Z.canonical_class(6)))
    assert f.basic_open(Z.canonical_class(3)).texts() == ("3",)
    fv = build_fragment(V2, [V2.canonical_class(PPow(2, 4))])
    assert set(fv.basic_open(V2.canonical_class(PPow(2, 3))).texts()) == {
        "p",
        "p^2",
        "p^3",
    }


def test_minimal_open_is_least():
    f = zfrag(36)
    for o in f.enumerate_opens():
        for p in o:
            assert f.basic_open(p) <= o


def test_point_not_in_fragment():
    f = zfrag(12)
    with pytest.raises(ParameterError, match="^5 is not a point of this fragment$"):
        f.basic_open(Z.canonical_class(5))
    with pytest.raises(ParameterError, match="^7 is not a point of this fragment$"):
        f.point_set([Z.canonical_class(7)])


@given(RING_SEEDS)
# gauss 3 renamed to zs5 is zs5's class 3, and the reverse
@example((G, [G.canonical_class(Gauss(3, 0))]))
@example((S5, [S5.canonical_class(Root5(3, 0))]))
@settings(max_examples=100, deadline=None)
def test_point_index_matches_the_class_keyed_oracle(ring_seeds):
    # the index is keyed by rep, and reps of two rings may be equal tuples
    # (gauss 3 and zs5 3 are), so only the point itself is accepted: not a
    # class of another ring with the same rep, nor a class that is no point,
    # nor a value that is no class at all
    ring, seeds = ring_seeds
    f = build_fragment(ring, seeds)
    oracle = point_index_oracle(f)
    top = max(f.points, key=ring.class_sort_key)
    other = G.name if ring.name == S5.name else S5.name
    outside = [ring.mul_class(top, top), "2", 2, 10**5000, None] + [p._replace(ring=other) for p in f.points]
    assert not oracle.keys() & set(outside)
    for c in f.points + tuple(outside):
        assert (c in f) == (c in oracle)
        if c in oracle:
            assert f.index_of(c) == oracle[c]
        else:
            with pytest.raises(ParameterError, match="is not a point of this fragment$"):
                f.index_of(c)
            with pytest.raises(ParameterError, match="is not a point of this fragment$"):
                c in f.full_set()


@pytest.mark.parametrize("seeds, points", [((360, 77), 26), ((360, 84), 29)])
def test_a_union_build_makes_one_class_and_one_text_per_point(monkeypatch, seeds, points):
    # the union keeps each listed rep with its text, so a rep that two seeds
    # list (360 and 84 share 2, 3, 4, 6 and 12) is printed once, and each
    # point's class is made once, after the sort.  Ring._class and
    # ClassId._make are the only places the library makes a class
    seeds = [Z.canonical_class(s) for s in seeds]
    texts, classes = [], []
    fmt = Z.fmt
    monkeypatch.setattr(Z, "fmt", lambda e: texts.append(e) or fmt(e))
    make_class = Ring._class
    monkeypatch.setattr(Ring, "_class", lambda self, rep: classes.append(rep) or make_class(self, rep))
    make = ClassId._make
    monkeypatch.setattr(ClassId, "_make", classmethod(lambda cls, fields: classes.append(fields) or make(fields)))
    f = build_fragment(Z, seeds)
    assert len(texts) == len(classes) == len(f) == points


def test_a_built_fragment_keeps_the_index_its_walk_read(monkeypatch):
    # the build makes one rep-keyed point index, walks with it and hands it
    # to the fragment; index_of, T0 and the nested check derive no second
    indexes = []
    walk_reps = topology._divisibility
    monkeypatch.setattr(
        topology, "_divisibility",
        lambda ring, reps, index, rep_lists: indexes.append(index) or walk_reps(ring, reps, index, rep_lists),
    )
    f = zfrag(360, 77)
    assert C.check_t0(f).verdict == "holds" and C.check_nested(f).verdict == "fails"
    assert f.index_of(Z.canonical_class(77)) == f.points.index(Z.canonical_class(77))
    assert len(indexes) == 1 and vars(f)["_index"] is indexes[0]


# ---------------------------------------------------------------------------
# open / closed predicates


def test_open_closed_examples():
    f = zfrag(12)
    c = Z.canonical_class
    assert is_open_oracle(f.point_set([c(2), c(3), c(6)]))
    top = f.point_set([c(12)])
    assert f.is_closed(top) and not is_open_oracle(top)
    mid = f.point_set([c(4), c(6)])
    assert not is_open_oracle(mid) and not f.is_closed(mid)


def test_open_iff_complement_closed():
    rng = random.Random(41)
    f = zfrag(60)
    for _ in range(200):
        bits = rng.getrandbits(len(f))
        s = f.point_set(p for i, p in enumerate(f.points) if bits >> i & 1)
        assert is_open_oracle(s) == f.is_closed(complement(s))
        assert f.is_closed(s) == is_open_oracle(complement(s))


def test_equal_fragments_and_point_sets_compare_equal():
    f = zfrag(12)
    g = fragment_from_json(fragment_to_json(f))
    assert g is not f and g == f
    c = Z.canonical_class
    s, t = f.point_set([c(2), c(6)]), g.point_set([c(6), c(2)])
    assert s == t


def test_fragment_mismatch():
    f1, f2 = zfrag(12), zfrag(18)
    with pytest.raises(ParameterError, match="^point set belongs to a different fragment$"):
        f1.is_closed(f2.full_set())


# ---------------------------------------------------------------------------
# closure


def test_closure_examples():
    f = zfrag(12)
    c = Z.canonical_class
    assert set(f.closure(f.point_set([c(2)])).texts()) == {"2", "4", "6", "12"}
    assert f.closure(f.point_set([c(12)])).texts() == ("12",)
    f6 = zfrag(6)
    got = f6.closure(f6.point_set([c(2), c(3)]))
    assert set(got.texts()) == {"2", "3", "6"}


@given(RING_SEEDS, st.data())
@settings(max_examples=100, deadline=None)
def test_closure_laws(ring_seeds, data):
    # a point is in the closure of s when some point of s divides it
    ring, seeds = ring_seeds
    f = build_fragment(ring, seeds)
    empty = PointSet(f, 0)
    assert f.closure(empty) == empty
    assert f.closure(f.full_set()) == f.full_set()
    s = PointSet(f, data.draw(st.integers(0, f.full_bits), label="bits"))
    cl = f.closure(s)
    assert cl == closure_oracle(s)
    assert f.is_closed(s) == (s == cl)
    assert s <= cl
    assert f.closure(cl) == cl
    assert f.is_closed(cl)
    bigger = PointSet(f, s.bits | 1 << data.draw(st.integers(0, len(f) - 1), label="extra"))
    assert cl <= f.closure(bigger)
    p = f.points[data.draw(st.integers(0, len(f) - 1), label="p")]
    for q in f.points:
        assert f.specializes(p, q) == ring.divides(p.rep, q.rep)


@given(RING_SEEDS, st.data())
@settings(max_examples=100, deadline=None)
def test_interior_closure_duality(ring_seeds, data):
    ring, seeds = ring_seeds
    f = build_fragment(ring, seeds)
    s = PointSet(f, data.draw(st.integers(0, f.full_bits), label="bits"))
    inside = interior_oracle(s)
    assert inside == complement(f.closure(complement(s)))
    assert is_open_oracle(inside)
    assert inside <= s


def test_closure_is_smallest_closed_superset():
    f = zfrag(12)
    rng = random.Random(47)
    subsets = [f.point_set([p]) for p in f.points]
    for s in subsets:
        cl = f.closure(s)
        for o in f.enumerate_opens():
            k = complement(o)  # every closed set arises this way
            if s <= k:
                assert cl <= k


def test_closure_complement_of_opens_oracle():
    # closure(s) == complement of the union of all opens disjoint from s
    rng = random.Random(53)
    for seed in (12, 16, 30, 42):
        f = zfrag(seed)
        assert len(f) <= 12
        opens = list(f.enumerate_opens())
        for _ in range(40):
            bits = rng.getrandbits(len(f))
            s = f.point_set(p for i, p in enumerate(f.points) if bits >> i & 1)
            union = 0
            for o in opens:
                if not (o & s).bits:
                    union |= o.bits
            assert f.closure(s) == complement(PointSet(f, union))


# ---------------------------------------------------------------------------
# specialization


def test_specializes_examples():
    f = zfrag(12)
    assert f.specializes(Z.canonical_class(2), Z.canonical_class(12))
    assert not f.specializes(Z.canonical_class(4), Z.canonical_class(6))
    fg = build_fragment(G, [G.canonical_class(Gauss(2, 0))])
    assert fg.specializes(G.canonical_class(Gauss(1, 1)), G.canonical_class(Gauss(2, 0)))


def test_specializes_matches_closure_membership():
    f = zfrag(60)
    for p in f.points:
        cl = f.closure(f.point_set([p]))
        for q in f.points:
            assert f.specializes(p, q) == (q in cl)


def test_a_t0_check_derives_no_rows():
    # specializes reads one bit of a column, so check_t0, whose example pair
    # asks it once, derives no row table
    f = zfrag(60)
    assert C.check_t0(f).verdict == "holds"
    assert "rows" not in vars(f)


# ---------------------------------------------------------------------------
# open-set enumeration


def test_enumerate_opens_examples():
    f4 = zfrag(4)
    got = [frozenset(o.texts()) for o in f4.enumerate_opens()]
    assert len(got) == 3
    assert set(got) == {frozenset(), frozenset({"2"}), frozenset({"2", "4"})}
    f7 = zfrag(7)
    assert len(list(f7.enumerate_opens())) == 2
    f6 = zfrag(6)
    assert len(list(f6.enumerate_opens())) == 5


def test_enumerate_opens_matches_powerset_filter():
    rng = random.Random(59)
    for f in sample_fragments(rng, per_ring=2):
        if len(f) > 10:
            continue
        got = {o.bits for o in f.enumerate_opens()}
        assert len(got) == len(list(f.enumerate_opens()))  # no duplicates
        assert got == down_sets_oracle(f)
        for o in f.enumerate_opens():
            assert is_open_oracle(o)


def test_enumerate_opens_guard():
    f = zfrag(2**21)  # 21 chain points
    assert len(f) == 21
    with pytest.raises(SizeGuard, match="^21 points exceeds the enumeration cap 20$"):
        next(f.enumerate_opens())


def test_alexandrov_intersections_stay_open():
    rng = random.Random(61)
    f = zfrag(60)
    opens = list(f.enumerate_opens())
    for _ in range(100):
        fam = rng.sample(opens, k=rng.randint(2, 6))
        inter = f.full_set()
        for o in fam:
            inter = inter & o
        assert is_open_oracle(inter)


# ---------------------------------------------------------------------------
# basis laws on fragments


def test_basis_laws_sampled():
    rng = random.Random(67)
    for f in sample_fragments(rng, per_ring=2):
        pts = f.points
        for p in pts:
            assert p in f.basic_open(p)  # reflexivity
        for p in pts:
            for q in pts:
                divides = f.ring.divides(p.rep, q.rep)
                assert divides == (f.basic_open(p) <= f.basic_open(q))
        for p in pts:
            for q in pts:
                inter = f.basic_open(p) & f.basic_open(q)
                for r in inter:
                    assert f.basic_open(r) <= f.basic_open(p)
                    assert f.basic_open(r) <= f.basic_open(q)


def test_point_order_is_serialization_sort():
    f = zfrag(12, 18)
    texts = [p.text for p in f.points]
    assert texts == sorted(texts)
