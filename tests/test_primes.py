"""Prime-stream construction steps and their runtime guarantees."""

import pytest

from divtop.errors import ParameterError
from divtop.primes import prime_stream
from divtop.rings import Gauss, PPow, make_ring

Z = make_ring("z")
G = make_ring("gauss")
F2 = make_ring("fp", 2)
F3 = make_ring("fp", 3)
S5 = make_ring("zs5")
V2 = make_ring("valp", 2)


def zlist(*ns):
    return tuple(Z.canonical_class(n) for n in ns)


def fplist(ring, *texts):
    return tuple(ring.canonical_class(ring.parse(t)) for t in texts)


def recompute_candidate(ring, members):
    """Independent re-derivation of the step's candidate element."""
    head = members[0].rep
    tail = ring.product(c.rep for c in members[1:])
    power = ring.one()
    for _ in range(64):
        power = ring.mul(power, head)
        x = ring.add(power, tail)
        if not ring.is_zero(x) and not ring.is_unit(x):
            return x
    raise AssertionError("no candidate found")


def step(ring, members):
    """The one prime a single growth step adds to members."""
    return prime_stream(ring, members, 1)[-1]


def test_euclid_step_examples():
    assert step(Z, zlist(2, 3)).rep == 5
    # singleton list: the empty tail product is 1, so 2^1 + 1 = 3
    assert step(Z, zlist(2)).rep == 3
    assert step(F2, fplist(F2, "x")).text == "x+1"


def test_euclid_step_skips_unit_candidates():
    # x + (x+1) = 1 over F_2, so the exponent must move to 2
    q = step(F2, fplist(F2, "x", "x+1"))
    assert q.text == "x^2+x+1"


def test_prime_stream_int_examples():
    assert [c.text for c in prime_stream(Z, zlist(2, 3), 1)] == ["2", "3", "5"]
    assert prime_stream(Z, zlist(2, 3, 5), 1)[-1].text == "17"


def test_prime_stream_int_10_steps():
    out = prime_stream(Z, zlist(2, 3), 10)
    assert len(out) == 12
    assert len(set(out)) == 12  # pairwise non-associated
    for c in out:
        assert Z.is_irreducible(c.rep)
    # every step's candidate avoided all earlier members
    members = list(out)
    for k in range(2, 12):
        prefix = members[:k]
        x = recompute_candidate(Z, prefix)
        for c in prefix:
            assert not Z.divides(c.rep, x)
        assert Z.divides(members[k].rep, x)


@pytest.mark.parametrize("ring", [F2, F3])
def test_prime_stream_fp_5_steps(ring):
    out = prime_stream(ring, fplist(ring, "x"), 5)
    assert len(out) == 6
    assert len(set(out)) == 6
    for c in out:
        assert ring.is_irreducible(c.rep)
    members = list(out)
    for k in range(1, 6):
        x = recompute_candidate(ring, members[:k])
        for c in members[:k]:
            assert not ring.divides(c.rep, x)
        assert ring.divides(members[k].rep, x)


def test_prime_stream_gauss_permitted():
    start = (G.canonical_class(Gauss(1, 1)),)
    out = prime_stream(G, start, 3)
    assert len(out) == 4 and len(set(out)) == 4
    for c in out:
        assert G.is_irreducible(c.rep)


def test_valp_refused():
    start = (V2.canonical_class(PPow(2, 1)),)
    message = r"^valp\(2\) does not support the prime stream: it has infinitely many units,"
    with pytest.raises(ParameterError, match=message):
        step(V2, start)


def test_zs5_refused():
    start = (S5.canonical_class(S5.parse("2")),)
    message = "^zs5 does not support the prime stream: it is not a UFD$"
    with pytest.raises(ParameterError, match=message):
        step(S5, start)


def test_member_validation():
    with pytest.raises(ParameterError, match="^prime list must be nonempty$"):
        step(Z, [])
    with pytest.raises(ParameterError, match="^4 is not prime in z$"):
        step(Z, zlist(4))
    message = "^prime list members must be pairwise non-associated$"
    with pytest.raises(ParameterError, match=message):
        step(Z, zlist(2, -2))


def test_members_of_another_ring_are_refused():
    gauss = G.canonical_class(Gauss(1, 1))
    with pytest.raises(ParameterError, match="^a class of gauss does not belong to z$"):
        prime_stream(Z, (gauss,), 1)
    with pytest.raises(ParameterError, match="^a class of gauss does not belong to z$"):
        step(Z, (Z.canonical_class(3), gauss))


def test_stream_is_deterministic():
    a = prime_stream(Z, zlist(2, 3), 6)
    b = prime_stream(Z, zlist(2, 3), 6)
    assert a == b


@pytest.mark.parametrize(
    "ring, start, count",
    [(Z, zlist(2), 10), (G, (G.canonical_class(Gauss(1, 2)),), 6)],
    ids=["z", "gauss"],
)
def test_prime_stream_validates_its_start_once(monkeypatch, ring, start, count):
    # each member the stream appends is prime by construction; validating
    # every member at every step took 55 and 21 irreducibility tests here
    calls = []
    is_irreducible = ring.is_irreducible
    monkeypatch.setattr(ring, "is_irreducible", lambda a: calls.append(a) or is_irreducible(a))
    out = prime_stream(ring, start, count)
    assert calls == [start[0].rep]
    assert len(set(out)) == len(start) + count
    assert all(is_irreducible(c.rep) for c in out)


@pytest.mark.parametrize(
    "ring, start, count, error, message",
    [
        (S5, (G.canonical_class(Gauss(1, 1)),), 0, ParameterError, "count must be >= 1"),
        (S5, (G.canonical_class(Gauss(1, 1)),), 1, ParameterError, "a class of gauss does not belong"),
        (S5, (), 1, ParameterError, "zs5 does not support the prime stream"),
        (Z, (), 1, ParameterError, "prime list must be nonempty"),
        (Z, zlist(4, -4), 1, ParameterError, "pairwise non-associated"),
        (Z, zlist(2, 4), 1, ParameterError, "4 is not prime in z"),
    ],
)
def test_prime_stream_refuses_in_order(ring, start, count, error, message):
    # a row also breaks rules checked after the one it names, where it can,
    # so a check moved later shows as another error
    with pytest.raises(error, match=message):
        prime_stream(ring, start, count)
