"""Constructive prime generation for unique-factorization rings.

Given pairwise non-associated primes a_1, ..., a_n, the element
x_m = a_1^m + a_2*a_3*...*a_n (empty tail product = 1) is, for the first m
making it a nonzero non-unit, divisible by none of the a_i; any irreducible
factor of it is therefore a brand-new prime class.  Iterating grows the list
without bound.  Works only where factorization is unique and the unit group
is finite; both are read off the ring's class attributes.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ParameterError, SizeGuard
from .rings import ClassId, Ring

M_CAP = 64  # with >= 2 primes m = 1 already works; this is defensive


def require_stream_capability(ring: Ring) -> None:
    """Refuse a ring without unique factorization or with infinitely many units."""
    if not ring.is_ufd:
        raise ParameterError(f"{ring.name} does not support the prime stream: it is not a UFD")
    if not ring.finite_units:
        raise ParameterError(
            f"{ring.name} does not support the prime stream: it has infinitely many units,"
            " and the construction needs a finite unit group"
        )


def prime_stream(ring: Ring, start: Sequence[ClassId], count: int) -> tuple:
    """start extended by count new pairwise non-associated primes.  Only start
    is validated: each member appended is prime by construction."""
    if count < 1:
        raise ParameterError("count must be >= 1")
    members = tuple(start)
    ring.claim(*members)
    require_stream_capability(ring)
    if not members:
        raise ParameterError("prime list must be nonempty")
    if len(set(members)) != len(members):
        raise ParameterError("prime list members must be pairwise non-associated")
    for c in members:
        if not ring.is_irreducible(c.rep):
            raise ParameterError(f"{c.text} is not prime in {ring.name}")
    head = members[0].rep
    for _ in range(count):
        tail = ring.product(c.rep for c in members[1:])
        power = ring.one()
        for _ in range(M_CAP):
            power = ring.mul(power, head)
            x = ring.add(power, tail)
            if not ring.is_zero(x) and not ring.is_unit(x):
                break
        else:
            raise SizeGuard(f"no non-unit candidate within {M_CAP} exponent steps")
        # the construction guarantees every current member misses x
        for c in members:
            assert not ring.divides(c.rep, x), f"{c.text} divides the candidate"
        # factor lists the classes in sort_key order
        members += (ring.factor(x)[0],)
    return members
