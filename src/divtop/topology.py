"""Finite divisor-closed fragments and the subspace topology they induce.

A fragment is a finite set of association classes closed under taking
divisors, together with its divisibility relation.  On such a set the basic
open at a point p is exactly the in-fragment divisor set of p, opens are the
down-sets of the divisibility order, and closed sets are the up-sets; every
point keeps a smallest neighborhood.  Point sets are bitmasks over the
fragment's (deterministically ordered) point list.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator

from .errors import FragmentTooLarge, ParameterError, SizeGuard, brief
from .rings import POINT_CAP, ClassId, Ring

ENUM_CAP = 20


class PointSet:
    """Subset of a fragment's points, stored as a bitmask in point order."""

    __slots__ = ("fragment", "bits")

    def __init__(self, fragment: "Fragment", bits: int):
        self.fragment = fragment
        self.bits = bits

    def classes(self) -> tuple:
        pts = self.fragment.points
        return tuple(pts[i] for i in _iter_bits(self.bits))

    def texts(self) -> tuple:
        return tuple(c.text for c in self.classes())

    def __iter__(self) -> Iterator[ClassId]:
        return iter(self.classes())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, c: ClassId) -> bool:
        return bool(self.bits >> self.fragment.index_of(c) & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.bits == other.bits
            and self.fragment == other.fragment
        )

    def __and__(self, other: "PointSet") -> "PointSet":
        self.fragment.claim(other)
        return PointSet(self.fragment, self.bits & other.bits)

    def __le__(self, other: "PointSet") -> bool:
        self.fragment.claim(other)
        return self.bits & ~other.bits == 0

    def __repr__(self) -> str:
        return "{" + ", ".join(self.texts()) + "}"


class Fragment:
    """Divisor-closed point list plus its divisibility relation.

    ``cols[j]`` masks the divisors of point j (the basic open), ``rows[i]``
    masks the multiples of point i (the closure of the singleton).  Both are
    reflexive.  ``covers`` lists the covering pairs (i, j), every pair into
    a point before every pair out of it, as the build records them;
    ``covering_pairs()`` sorts them.  The columns and the rows are derived
    from the covers on their first read and kept, so an export that reads
    only the covering pairs derives neither.  ``atoms`` holds the
    irreducibles function of each listed seed, and ``index`` maps each
    point's rep to its position, both as the build made them.
    """

    def __init__(self, ring: Ring, points: tuple, covers: tuple, seeds: tuple, atoms: tuple, index: dict):
        self.ring = ring
        self.points = points
        self.seeds = seeds
        self._covers = covers
        self._atoms = atoms
        self._index = index
        self.full_bits = (1 << len(points)) - 1

    @cached_property
    def cols(self) -> tuple:
        # the covers into u come before every cover out of u (walk order),
        # so cols[u] is complete before it is merged into cols[v]
        cols = [1 << i for i in range(len(self.points))]
        for u, v in self._covers:
            cols[v] |= cols[u]
        return tuple(cols)

    @cached_property
    def rows(self) -> tuple:
        # the same order read backwards completes rows[v] before it is
        # merged into rows[u]
        rows = [1 << i for i in range(len(self.points))]
        for u, v in reversed(self._covers):
            rows[u] |= rows[v]
        return tuple(rows)

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fragment)
            and self.ring.name == other.ring.name
            and self.points == other.points
            and self.seeds == other.seeds
        )

    def __repr__(self) -> str:
        return f"<fragment {self.ring.name} with {len(self.points)} points>"

    # -- membership ---------------------------------------------------------

    def index_of(self, c: ClassId) -> int:
        if c not in self:
            shown = c.text if isinstance(c, ClassId) else brief(c)
            raise ParameterError(f"{shown} is not a point of this fragment")
        return self._index[c.rep]

    def __contains__(self, c: ClassId) -> bool:
        # reps of two rings may be equal tuples, so the point itself decides
        i = self._index.get(c.rep) if isinstance(c, ClassId) else None
        return i is not None and self.points[i] == c

    def claim(self, s: PointSet) -> None:
        if s.fragment is not self and s.fragment != self:
            raise ParameterError("point set belongs to a different fragment")

    # -- set constructors -----------------------------------------------------

    def point_set(self, classes: Iterable[ClassId]) -> PointSet:
        bits = 0
        for c in classes:
            bits |= 1 << self.index_of(c)
        return PointSet(self, bits)

    def full_set(self) -> PointSet:
        return PointSet(self, self.full_bits)

    # -- topology -------------------------------------------------------------

    def basic_open(self, p: ClassId) -> PointSet:
        """In-fragment divisors of p: also the smallest open containing p."""
        return PointSet(self, self.cols[self.index_of(p)])

    def isolated(self) -> PointSet:
        """Points whose basic open is the point alone."""
        return PointSet(self, sum(1 << j for j, col in enumerate(self.cols) if col == 1 << j))

    def irreducible(self) -> PointSet:
        """Points whose class is irreducible, read from the ring's listing of
        each seed that the build kept, never from the columns."""
        reps = {r for found in self._atoms for r in found()}
        canonical = self.ring.canonical
        return PointSet(self, sum(1 << j for j, p in enumerate(self.points) if canonical(p.rep) in reps))

    def specializes(self, p: ClassId, q: ClassId) -> bool:
        """True when q lies in the closure of {p}, i.e. p divides q."""
        return bool(self.cols[self.index_of(q)] >> self.index_of(p) & 1)

    def is_closed(self, s: PointSet) -> bool:
        return self.closure(s) == s

    def closure(self, s: PointSet) -> PointSet:
        self.claim(s)
        out = 0
        for i in _iter_bits(s.bits):
            out |= self.rows[i]
        return PointSet(self, out)

    def enumerate_opens(self) -> Iterator[PointSet]:
        """Yield every open (divisor-closed) subset exactly once, incl. the
        empty set and the whole fragment.  Consumers may stop early."""
        n = len(self.points)
        if n > ENUM_CAP:
            raise SizeGuard(f"{n} points exceeds the enumeration cap {ENUM_CAP}")
        # process points so that divisors come first; then a point may join
        # only when its whole basic open is already in
        order = sorted(range(n), key=lambda j: (self.cols[j].bit_count(), j))

        def rec(k: int, bits: int) -> Iterator[int]:
            if k == n:
                yield bits
                return
            j = order[k]
            yield from rec(k + 1, bits)
            if self.cols[j] & ~(bits | 1 << j) == 0:
                yield from rec(k + 1, bits | 1 << j)

        for bits in rec(0, 0):
            yield PointSet(self, bits)

    def covering_pairs(self) -> list:
        """Transitive reduction of the divisibility relation, as sorted index pairs."""
        return sorted(self._covers)


def _iter_bits(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def build_fragment(ring: Ring, seeds: Iterable[ClassId]) -> Fragment:
    """Union of the seeds' divisor classes with the divides matrix filled in.

    Point order is the representative-serialization sort, which makes every
    derived artifact (bitmasks, JSON, DOT) reproducible byte for byte.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ParameterError("at least one seed class is needed")
    ring.claim(*seeds)
    # each seed's divisor classes (its own among them) are part of the
    # fragment, so the ring can refuse an over-cap seed before it lists them,
    # and the union is refused at the first seed that takes it past the cap.
    # Largest first: a seed already in the union divides a listed seed, whose
    # divisor classes hold its own, so it is not listed again.  The union
    # keeps reps with their texts, and each point's class is made once
    texts, listings = {}, []
    text = ring._text
    for s in sorted(seeds, key=ring.class_sort_key, reverse=True):
        if s.rep not in texts:
            listings.append(ring._listing(s.rep))
            texts.update({r: text(r) for r in listings[-1][0] if r not in texts})
            if len(texts) > POINT_CAP:
                raise FragmentTooLarge(len(texts), POINT_CAP)
    reps = sorted(texts, key=texts.__getitem__)
    points = tuple(map(ClassId._make, zip(repeat(ring.name), reps, map(texts.__getitem__, reps))))
    index = dict(zip(reps, range(len(reps))))
    rep_lists, atoms = zip(*listings)
    return Fragment(ring, points, _divisibility(ring, reps, index, rep_lists), seeds, atoms, index)


def _divisibility(ring: Ring, reps: list, index: dict, rep_lists: list) -> tuple:
    """Covering pairs, in walk order, of the union of ``rep_lists``, whose
    points are ``reps`` and ``index`` maps each rep to its position there.
    Each list is divisor-closed and lists every rep after all of its
    divisors, as ``Ring._listing`` does.  A cover (u, v) is recorded when v
    is walked, after every cover into u; ``Fragment`` derives its columns
    and rows from that order.

    In an atomic domain every proper divisor of v divides v/q for some
    irreducible q dividing v, and a cover is exactly a step v/q -> v.  The
    lists are walked in order, and the points of a list not walked before
    go in the order the list holds them, so every irreducible point (atom)
    and every v/q is walked before v.  Every atom dividing v lies in the
    list being walked, so v tries only that list's atoms.  A point none of
    them divides is an atom itself.  The proof below needs only these two
    things: every atom dividing v is found before v, and the ring tries its
    atoms in one fixed order.  A UFD tries the newest found first: a running product
    d*f^k of a listing is walked after every atom dividing it, the newest of
    them is f, and so its first trial succeeds.  zs5 tries every atom
    anyway, and keeps the order they were found in.

    The atoms are tried in order until the first, q_k, divides v; u = v/q_k
    is the one quotient computed by division, and ``times[k][u] = v``
    records that first step.  Every other atom q dividing u gives
    v/q = (u/q)*q_k, an earlier point whose first atom is q_k too (it divides
    v, and q_k divides it, and every list tries its atoms in the one order),
    so it is read from ``times[k]``.  In a UFD an atom is prime, so q | v
    means q | u or q ~ q_k and nothing is left to find: a composite point
    costs one successful division plus the failed trials before it, and in
    a single listing walked as made it fails none.  Without unique
    factorization an atom after q_k can divide v and neither factor (2
    divides 6 = (1+s)(1-s) in Z[sqrt(-5)]), so the atoms not found yet are
    still tried by division.
    """
    n = len(reps)
    newest_first = ring.is_ufd
    # rank[k] orders atom k (named by its point index, as in times and
    # steps) among the atoms found so far
    rank = {}
    covers = []
    # times[k] maps u to the point whose first step is u -> u * q_k; n stands
    # for the unit class, so an atom's own first step is n -> atom
    times = [None] * n
    # steps[v] lists (k, v / q_k) for every atom q_k dividing v; None until
    # v is walked
    steps = [None] * n
    for divisors in rep_lists:
        members = [index[r] for r in divisors]
        known = sorted((k for k in members if k in rank), key=rank.get, reverse=newest_first)
        tried = [reps[k] for k in known]
        for v in members:
            if steps[v] is not None:
                continue
            v_rep = reps[v]
            for q in tried:
                w = ring.divide(v_rep, q)
                if w is not None:
                    break
            else:
                tried.insert(0 if newest_first else len(tried), v_rep)
                rank[v] = len(rank)
                times[v] = {n: v}
                steps[v] = [(v, n)]
                continue
            k = index[q]
            u = index[ring.canonical(w)]
            first = times[k]
            first[u] = v
            step = [(k, u)]
            for j, x in steps[u]:
                if j != k:
                    step.append((j, first[x]))
            if not ring.is_ufd:
                found = {j for j, _ in step}
                for q in tried[tried.index(q) + 1:]:
                    if index[q] not in found and (w := ring.divide(v_rep, q)) is not None:
                        step.append((index[q], index[ring.canonical(w)]))
            steps[v] = step
            for _, x in step:
                covers.append((x, v))
    return tuple(covers)
