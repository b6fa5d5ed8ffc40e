"""Integer primality, factoring and square roots of -1, with bounded work.

``is_prime`` is exact below ``MR_EXACT_BELOW``, where Miller-Rabin on the
first 13 prime bases has no strong pseudoprime (Sorenson and Webster 2015),
which covers every value the enumeration guards admit.  Above it the test is
Baillie-PSW: a strong base-2 test and a strong Lucas test (Baillie and
Wagstaff 1980), with no known counterexample.

``factor`` and ``is_prime`` try the primes below ``TRIAL_BOUND`` in turn and
stop at the first q with q^2 > n, since what is left is then 1 or a prime.
``factor`` splits what is left past them with Pollard's rho in Brent's form
(Pollard 1975, Brent 1980).  A call may take at most ``RHO_BUDGET`` rho
steps in all, and raises ``SizeGuard`` past it: an integer whose
second-largest prime factor is large is refused, not worked on for minutes.
"""

from __future__ import annotations

import math

from .errors import SizeGuard

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981

TRIAL_BOUND = 1000
SMALL_PRIMES = tuple(
    q for q in range(2, TRIAL_BOUND) if all(q % d for d in range(2, math.isqrt(q) + 1))
)

# Rho steps per ``factor`` call.  A product of two primes near 10^9 (the
# gauss norm bound is 10^18) took at most 1.2e5 steps in 300 random draws.
RHO_BUDGET = 1 << 20
RHO_BATCH = 128  # steps per gcd


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: n odd > 2 passes for base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters: n odd, not a square and
    free of the primes below ``TRIAL_BOUND``."""
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4  # and P = 1

    def half(v: int) -> int:
        v %= n
        return (v if v % 2 == 0 else v + n) // 2

    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k for k the leading bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether n is prime (see the module docstring for how exact)."""
    for q in SMALL_PRIMES:
        if q * q > n:
            return n > 1
        if n % q == 0:
            return n == q
    if n < MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in MR_BASES)
    return (
        _strong_probable_prime(n, 2)
        and math.isqrt(n) ** 2 != n
        and _strong_lucas_probable_prime(n)
    )


def _rho(n: int, c: int, budget: int) -> tuple:
    """Brent's rho on x -> x^2 + c mod n, for composite n free of small
    primes: (a divisor of n other than 1, or None when ``budget`` steps ran
    out first; the steps taken, never more than ``budget``).  The divisor
    may be n itself."""
    y, r, q, g, steps = 2, 1, 1, 1, 0
    while g == 1:
        if steps + r >= budget:
            return None, steps
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        steps += r
        k = 0
        while k < r and g == 1:
            batch = min(RHO_BATCH, r - k, budget - steps)
            if batch == 0:
                return None, steps
            ys = y
            for _ in range(batch):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += batch
            steps += batch
        r *= 2
    if g == n:
        # the batch overshot: step again one at a time from its start
        g = 1
        while g == 1:
            if steps == budget:
                return None, steps
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
            steps += 1
    return g, steps


def factor(n: int) -> dict:
    """Prime factorization of n >= 1 as {prime: exponent}, primes ascending.

    Raises ``SizeGuard`` when splitting the composite part would take more
    than ``RHO_BUDGET`` rho steps."""
    out = {}
    for q in SMALL_PRIMES:
        if q * q > n:
            # n has no prime factor below q, so it is 1 or a prime
            if n > 1:
                out[n] = 1
            return out
        while n % q == 0:
            n //= q
            out[q] = out.get(q, 0) + 1
    left = RHO_BUDGET
    rest = [n] if n > 1 else []
    big = []
    while rest:
        m = rest.pop()
        if is_prime(m):
            big.append(m)
            continue
        c = 1
        while True:
            d, steps = _rho(m, c, left)
            left -= steps
            if d is None:
                raise SizeGuard(
                    f"factoring a {len(str(m))}-digit integer exceeds the rho budget"
                    f" of {RHO_BUDGET} steps"
                )
            if d != m:
                break
            c += 1
        rest += [d, m // d]
    for p in sorted(big):
        out[p] = out.get(p, 0) + 1
    return out


def sqrt_minus_one(p: int) -> int:
    """A square root of -1 modulo a prime p = 1 mod 4: g^((p-1)/4) for the
    least quadratic non-residue g."""
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:
        g += 1
    return pow(g, (p - 1) // 4, p)
