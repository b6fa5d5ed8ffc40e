"""Hypothesis strategies for ring elements, shared by the property suites."""

from hypothesis import strategies as st

from divtop.rings import Gauss, PPow, Root5, make_ring

Z = make_ring("z")
G = make_ring("gauss")
F2 = make_ring("fp", 2)
F3 = make_ring("fp", 3)
F5 = make_ring("fp", 5)
S5 = make_ring("zs5")
V3 = make_ring("valp", 3)


def _elements(ring, generic, pool, max_atoms):
    """One generic element, or a product of pool atoms, which repeats an
    irreducible factor whenever an atom repeats; never zero or a unit."""
    products = st.lists(st.sampled_from(pool), min_size=1, max_size=max_atoms).map(
        ring.product
    )
    return st.one_of(generic, products).filter(
        lambda e: not ring.is_zero(e) and not ring.is_unit(e)
    )


ELEMENTS = {
    Z: _elements(Z, st.integers(-400, 400), [2, 3, -2, 5, 6, 9, 10], 5),
    G: _elements(
        G,
        st.builds(Gauss, st.integers(-9, 9), st.integers(-9, 9)),
        [Gauss(1, 1), Gauss(0, 1), Gauss(3, 0), Gauss(2, 1), Gauss(1, 2), Gauss(3, 1)],
        4,
    ),
    S5: _elements(
        S5,
        st.builds(Root5, st.integers(-9, 9), st.integers(-4, 4)),
        [Root5(2, 0), Root5(3, 0), Root5(1, 1), Root5(1, -1), Root5(-1, 0), Root5(2, 1)],
        4,
    ),
    **{
        ring: _elements(
            ring,
            st.lists(st.integers(0, ring.p - 1), min_size=2, max_size=5).map(ring.poly),
            [ring.parse(t) for t in ("x", "x+1", "2x+1", "x^2+1", "x^2+x+1")],
            4,
        )
        for ring in (F2, F3)
    },
    V3: _elements(V3, st.integers(1, 12).map(lambda k: PPow(3, k)), [PPow(3, 1), PPow(3, 2)], 6),
}

# (ring, element) over all five rings
RING_ELEMENTS = st.one_of(
    *(elems.map(lambda e, ring=ring: (ring, e)) for ring, elems in ELEMENTS.items())
)

# (ring, seed classes): one to three seeds of one ring, so unions of divisor
# sets show up too
RING_SEEDS = st.one_of(
    *(
        st.lists(elems, min_size=1, max_size=3).map(
            lambda es, ring=ring: (ring, [ring.canonical_class(e) for e in es])
        )
        for ring, elems in ELEMENTS.items()
    )
)

# pairwise non-associated irreducibles of the four UFD rings, some of them
# not canonical; any four to the fifth power stay inside the z and gauss
# guards
UFD_ATOMS = {
    Z: [2, -3, 5, 7],
    G: [Gauss(1, 1), Gauss(-1, 2), Gauss(1, 2), Gauss(0, 3), Gauss(3, 2)],
    F2: [F2.parse(t) for t in ("x", "x+1", "x^2+x+1", "x^3+x+1")],
    F5: [F5.parse(t) for t in ("x", "x+1", "2x+1", "x^2+2")],
    V3: [PPow(3, 1)],
}


@st.composite
def ufd_boxes(draw):
    """(ring, atoms, tops): m <= 4 irreducibles of a UFD ring, one on valp,
    and one to three nonzero exponent vectors of length m with entries up to
    5, each naming the seed prod q_i^f_i.  On fp the entries are held down so
    that no seed passes the degree guard."""
    ring = draw(st.sampled_from(list(UFD_ATOMS)))
    m = draw(st.integers(1, min(4, len(UFD_ATOMS[ring]))))
    atoms = draw(st.permutations(UFD_ATOMS[ring]))[:m]
    top = 5 if ring.tag != "fp" else min(5, ring.DEG_MAX // sum(q.degree for q in atoms))
    # the zero vector names a unit, so it stands for the vector of ones
    vector = st.tuples(*[st.integers(0, top)] * m).map(lambda g: g if any(g) else (1,) * m)
    return ring, atoms, draw(st.lists(vector, min_size=1, max_size=3))
