"""Exact arithmetic for five integral domains behind one adapter interface.

Element representations:

  - ``z``     rational integers, plain python ``int``
  - ``gauss`` Gaussian integers, ``Gauss(re, im)``
  - ``fp``    polynomials over F_p, ``Poly(p, coeffs)`` with coefficients
              low degree first and no trailing zeros (``()`` is zero)
  - ``zs5``   the quadratic ring Z[sqrt(-5)], ``Root5(x, y)`` = x + y*sqrt(-5)
  - ``valp``  the one-prime valuation chain (localization of Z at p, or a
              power-series ring in disguise), ``PPow(p, k)``; k == 0 is a unit
              and a class is determined by the exponent k alone

Association classes are keyed by a canonical associate per ring: positive for
``z``, first quadrant (re > 0, im >= 0) for ``gauss``, monic for ``fp``,
x > 0 or (x == 0, y > 0) for ``zs5``, and p^k itself for ``valp``.  Each rule
picks exactly one associate: z and zs5 flip the sign, fp scales by the
inverse leading coefficient, and gauss rotates by the element's quadrant,
so no adapter searches its units.
"""

from __future__ import annotations

import math
import re
from functools import reduce
from itertools import zip_longest
from typing import Iterable, NamedTuple, Optional

from .errors import ElementSyntaxError, FragmentTooLarge, ParameterError, SizeGuard, brief
from .intarith import factor, is_prime, sqrt_minus_one

# most divisor classes one listing, and so one fragment, may hold
POINT_CAP = 4096

# ---------------------------------------------------------------------------
# element value types


class Gauss(NamedTuple):
    re: int
    im: int

    def conj(self) -> "Gauss":
        return Gauss(self.re, -self.im)

    @property
    def norm(self) -> int:
        return self.re * self.re + self.im * self.im


class Root5(NamedTuple):
    """x + y*sqrt(-5)."""

    x: int
    y: int

    @property
    def norm(self) -> int:
        return self.x * self.x + 5 * self.y * self.y


class Poly(NamedTuple):
    """Coefficients low degree first, trimmed; () is the zero polynomial."""

    p: int
    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class PPow(NamedTuple):
    p: int
    k: int


class ClassId(NamedTuple):
    """Association class: ring name plus canonical representative.

    ``text`` is the representative's serialization; it is derived from ``rep``
    and kept here so classes sort and print without an adapter at hand.
    Reps are tuples, so reps of two rings may compare equal; ``ring`` keeps
    their classes apart.
    """

    ring: str
    rep: object
    text: str

    def __str__(self) -> str:
        return self.text


# ---------------------------------------------------------------------------
# parsing helpers

def _ascii_minus(text: str) -> str:
    # tolerate the typographic minus sign; same length keeps positions honest
    return text.replace("−", "-")


def _int(literal: str) -> int:
    """int() of a matched [sign]digits literal; Python refuses very long ones."""
    try:
        return int(literal)
    except ValueError:
        digits = len(literal.lstrip("+-"))
        raise SizeGuard(f"integer literal of {digits} digits is too long to convert") from None


def _bound(n: int) -> str:
    """A guard bound for an error message: its digits while they fit in 64
    bits, else 10^k, the form every larger bound here takes."""
    return str(n) if n.bit_length() <= 64 else f"10^{len(str(n)) - 1}"


def _terms(text: str, sym: Optional[str], powers: bool, single: bool = False):
    """Yield (position, coefficient, power) for each term of text.

    Terms are joined by '+' or '-' and the first may carry a sign too.  A
    term is digits, or optional digits then ``sym`` (power 1), then, with
    ``powers``, an optional ``^digits``; with ``sym`` None it is digits only.
    A ``single`` text holds one term.  Spaces may stand only at the ends and
    around signs.  Digits are ASCII.  Positions index ``text`` itself.
    """
    s = _ascii_minus(text)
    end = len(s.rstrip(" "))
    if not end:
        raise ElementSyntaxError(text, 0, "empty element text")
    tail = r"(?:\^(?P<exp>[0-9]*))?" if powers else ""
    body = rf"(?P<sym>{re.escape(sym)}{tail})?" if sym else ""
    term = re.compile(rf" *(?P<sign>[+-]?) *(?P<digits>[0-9]*){body}")
    i = 0
    while i < end:
        if i and single:
            raise ElementSyntaxError(text, i, "expected the end of the element")
        m = term.match(s, i)
        pos = m.start("sign")
        if i and not m["sign"]:
            raise ElementSyntaxError(text, pos, "expected + or -")
        has_sym = m.groupdict().get("sym")
        if not (m["digits"] or has_sym):
            wanted = f"digits or {sym}" if sym else "digits"
            raise ElementSyntaxError(text, m.end(), "expected " + wanted)
        exp = m.groupdict().get("exp")
        if exp == "":
            raise ElementSyntaxError(text, m.end(), "expected an exponent")
        power = (_int(exp) if exp else 1) if has_sym else 0
        yield pos, _int(m["sign"] + (m["digits"] or "1")), power
        i = m.end()


def _parse_pair(text: str, sym: str) -> tuple:
    """Parse 'a', 'bS', 'a+bS' (S = sym); coefficient may omit its digits."""
    pair = {}
    for pos, coeff, power in _terms(text, sym, False):
        if power in pair:
            what = f"{sym}-term" if power else "integer term"
            raise ElementSyntaxError(text, pos, "duplicate " + what)
        pair[power] = coeff
    return pair.get(0, 0), pair.get(1, 0)


def _fmt_pair(a: int, b: int, sym: str) -> str:
    """Text of a + b*sym in the grammar ``_parse_pair`` reads."""
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}{sym}"
    return f"{a}{b:+d}{sym}"


# ---------------------------------------------------------------------------
# adapter base


class Ring:
    """Uniform surface over one integral domain.

    Subclasses provide the element-level primitives (arithmetic, canonical
    associate, exact division) and the factoring hook ``_factor_reps``;
    rings with gcd also supply the hook ``_gcd``.  Divisor enumeration,
    class-level operations and their argument validation live here.
    """

    tag: str = ""
    P_MAX: Optional[int] = None  # bound on p; None for the rings that take no p
    # the algebraic facts the checks and the prime stream read off a ring
    has_gcd = True
    is_ufd = True
    is_valuation = False
    finite_units = True

    # -- identity ----------------------------------------------------------

    def __init__(self, p: Optional[int] = None):
        """Rings with a ``P_MAX`` take a prime p up to it, the others none.
        p is an ``int`` (not a bool), and the bound is tested next: a
        primality test of a 4000-digit p takes seconds."""
        if self.P_MAX is None and p is not None:
            raise ParameterError(f"p does not apply to ring {self.tag}")
        if self.P_MAX is not None and p is None:
            raise ParameterError(f"ring {self.tag} needs a prime p")
        if p is not None and (type(p) is not int or p > self.P_MAX or not is_prime(p)):
            bound = _bound(self.P_MAX)
            raise ParameterError(f"ring {self.tag} needs a prime p <= {bound}, got {brief(p)}")
        self.p = p
        self.name = self.tag if p is None else f"{self.tag}({p})"

    def __repr__(self) -> str:
        return f"<ring {self.name}>"

    # -- primitives every subclass implements -------------------------------

    def is_zero(self, e) -> bool:
        raise NotImplementedError

    def is_unit(self, e) -> bool:
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def canonical(self, e):
        """Canonical associate of a nonzero element."""
        raise NotImplementedError

    def divide(self, numer, denom):
        """Exact quotient numer/denom, or None when denom does not divide."""
        raise NotImplementedError

    def sort_key(self, e) -> tuple:
        """Natural deterministic order (size-ish first)."""
        raise NotImplementedError

    def fmt(self, e) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        """Exact parse of one element in the ring's text grammar.

        Zero is legal here; class construction rejects it.  So are values
        past the enumeration guards, except where the parse itself would do
        unbounded work: an fp degree above ``DEG_MAX``, a valp exponent above
        ``K_MAX`` and an integer literal longer than Python converts raise
        ``SizeGuard`` here.
        """
        raise NotImplementedError

    def _factor_reps(self, a) -> dict:
        """Canonical irreducible factors of a, each mapped to its exponent."""
        raise NotImplementedError

    def _peel(self, rest, factors, counts: dict):
        """Divide each of factors out of rest as often as it goes, adding one
        to ``counts[f]`` per division, and return what is left."""
        for f in factors:
            while (q := self.divide(rest, f)) is not None:
                counts[f] = counts.get(f, 0) + 1
                rest = q
        return rest

    def _divisor_reps(self, a) -> tuple:
        """Canonical reps of every non-unit divisor class of a, each once and
        after all of its divisors, and a function that gives the irreducible
        ones among them.

        In a UFD these are the products of sub-multisets of a's irreducible
        factors, so their number, prod(e + 1) - 1 over the factor exponents,
        is known first, and more than ``POINT_CAP`` raise before any is
        built.  They are listed as running products: d * f^k comes after
        d * f^(k-1) and after d, and the factors are canonical and distinct,
        so no class comes twice.  The irreducible ones are those factors.
        Rings without unique factorization list them all, then count them."""
        counts = self._factor_reps(a)
        total = math.prod(e + 1 for e in counts.values()) - 1
        if total > POINT_CAP:
            raise FragmentTooLarge(total, POINT_CAP)
        divs = [self.one()]
        for f, e in counts.items():
            step = []
            for d in divs:
                for _ in range(e):
                    d = self.mul(d, f)
                    step.append(d)
            divs += step
        return [self.canonical(d) for d in divs[1:]], counts.keys

    def _gcd(self, a, b):
        """A greatest common divisor of a and b, on rings with ``has_gcd``."""
        raise NotImplementedError

    # -- shared derived operations ------------------------------------------

    def _require_operand(self, e) -> None:
        if self.is_zero(e):
            raise ParameterError(f"zero is not a class representative in {self.name}")
        if self.is_unit(e):
            raise ParameterError(f"{self.fmt(e)} is a unit of {self.name}")

    def _text(self, rep) -> str:
        # rep must already be canonical; Python refuses to print huge ints
        try:
            return self.fmt(rep)
        except ValueError:
            raise SizeGuard(f"a {self.name} representative is too long to print") from None

    def _class(self, rep) -> ClassId:
        return ClassId(self.name, rep, self._text(rep))

    def canonical_class(self, e) -> ClassId:
        self._require_operand(e)
        return self._class(self.canonical(e))

    def divides(self, a, b) -> bool:
        if self.is_zero(a):
            raise ParameterError(f"zero divides nothing in {self.name}")
        return self.divide(b, a) is not None

    def _listing(self, a) -> tuple:
        """``_divisor_reps`` of a class representative a: the canonical reps
        of every non-unit divisor class of a, a's own included, each once and
        after all of its divisors, and the irreducibles function."""
        self._require_operand(a)
        return self._divisor_reps(a)

    def divisor_classes(self, a) -> frozenset:
        """Every non-unit divisor class of a, a's own included.  More than
        ``POINT_CAP`` of them raise ``FragmentTooLarge``; in a UFD that
        happens before they are listed."""
        return frozenset(map(self._class, self._listing(a)[0]))

    def is_irreducible(self, a) -> bool:
        self._require_operand(a)
        return list(self._factor_reps(a).values()) == [1]

    def factor(self, a) -> tuple:
        self._require_operand(a)
        counts = self._factor_reps(a)
        reps = sorted(counts, key=self.sort_key)
        return tuple(c for r in reps for c in (self._class(r),) * counts[r])

    def gcd_class(self, a, b) -> Optional[ClassId]:
        if not self.has_gcd:
            raise ParameterError(f"{self.name} has no gcd")
        self._require_operand(a)
        self._require_operand(b)
        g = self._gcd(a, b)
        return None if self.is_unit(g) else self._class(self.canonical(g))

    def _check(self, *elems) -> None:
        """Refuse an element that carries another p (fp and valp elements do)."""
        for e in elems:
            if e.p != self.p:
                raise ParameterError(f"an element of {self.tag}({e.p}) used in {self.name}")

    def _guard_norm(self, a) -> None:
        """Refuse a gauss or zs5 element whose norm passes ``NORM_MAX``,
        named by the size of its largest part once that passes 64 bits."""
        if a.norm > self.NORM_MAX:
            bits = max(abs(v) for v in a).bit_length()
            shown = self.fmt(a) if bits <= 64 else f"an element with a {bits}-bit part"
            raise SizeGuard(f"the norm of {shown} exceeds the {self.tag} bound {self.NORM_MAX}")

    def claim(self, *classes: ClassId) -> None:
        """Refuse a class of another ring."""
        for c in classes:
            if c.ring != self.name:
                raise ParameterError(f"a class of {c.ring} does not belong to {self.name}")

    def mul_class(self, ca: ClassId, cb: ClassId) -> ClassId:
        self.claim(ca, cb)
        return self._class(self.canonical(self.mul(ca.rep, cb.rep)))

    def product(self, elems: Iterable):
        return reduce(self.mul, elems, self.one())

    def class_sort_key(self, c: ClassId) -> tuple:
        return self.sort_key(c.rep)


# ---------------------------------------------------------------------------
# rational integers


class IntegerRing(Ring):
    tag = "z"

    ENUM_MAX = 10**12  # divisor enumeration bound
    VALUE_MAX = 10**120  # defensive cap for factor/irreducibility

    def is_zero(self, e) -> bool:
        return e == 0

    def is_unit(self, e) -> bool:
        return e in (1, -1)

    def one(self):
        return 1

    def mul(self, a, b):
        return a * b

    def add(self, a, b):
        return a + b

    def canonical(self, e):
        return abs(e)

    def divide(self, numer, denom):
        q, r = divmod(numer, denom)
        return q if r == 0 else None

    def sort_key(self, e):
        return (abs(e),)

    def fmt(self, e) -> str:
        return str(e)

    def parse(self, text: str):
        [(_, value, _)] = _terms(text, None, False, single=True)
        return value

    def _guard(self, a, bound) -> None:
        if abs(a) > bound:
            shown = f"|{a}|" if a.bit_length() <= 64 else brief(a)
            raise SizeGuard(f"{shown} exceeds the z bound {_bound(bound)}")

    def _factor_reps(self, a):
        self._guard(a, self.VALUE_MAX)
        return factor(abs(a))

    def _divisor_reps(self, a):
        self._guard(a, self.ENUM_MAX)
        return super()._divisor_reps(a)

    def is_irreducible(self, a) -> bool:
        self._require_operand(a)
        self._guard(a, self.VALUE_MAX)
        return is_prime(abs(a))

    def _gcd(self, a, b):
        return math.gcd(a, b)


# ---------------------------------------------------------------------------
# Gaussian integers


class GaussianRing(Ring):
    tag = "gauss"

    NORM_MAX = 10**18

    def is_zero(self, e) -> bool:
        return e.re == 0 and e.im == 0

    def is_unit(self, e) -> bool:
        return e.norm == 1

    def one(self):
        return Gauss(1, 0)

    def mul(self, a, b):
        return Gauss(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)

    def add(self, a, b):
        return Gauss(a.re + b.re, a.im + b.im)

    def canonical(self, e):
        # the one unit multiple in the first quadrant: rotate by quadrant
        re_, im = e
        if re_ > 0 and im >= 0:
            return e
        if im > 0 and re_ <= 0:
            return Gauss(im, -re_)
        if re_ < 0 and im <= 0:
            return Gauss(-re_, -im)
        if im < 0:
            return Gauss(-im, re_)
        raise ParameterError("zero has no canonical associate")

    def divide(self, numer, denom):
        # numer * conj(denom) over N(denom); fields read by name refuse another type
        a, b, c, d = numer.re, numer.im, denom.re, denom.im
        n = c * c + d * d
        x, y = a * c + b * d, b * c - a * d
        if x % n or y % n:
            return None
        return Gauss(x // n, y // n)

    def sort_key(self, e):
        return (e.norm, e.re, e.im)

    def fmt(self, e) -> str:
        return _fmt_pair(e.re, e.im, "i")

    def parse(self, text: str):
        re_, im = _parse_pair(text, "i")
        return Gauss(re_, im)

    def _round_div(self, a: int, b: int) -> int:
        # nearest integer, ties toward +inf; remainder stays within b/2
        return (2 * a + b) // (2 * b)

    def _gcd(self, a, b):
        # Euclid: each remainder a - qb has a smaller norm than b
        while not self.is_zero(b):
            n = b.norm
            t = self.mul(a, b.conj())
            qb = self.mul(Gauss(self._round_div(t.re, n), self._round_div(t.im, n)), b)
            a, b = b, Gauss(a.re - qb.re, a.im - qb.im)
        return a

    def _prime_above(self, p: int):
        # p = 1 mod 4 splits; gcd with a square root of -1 finds one factor
        r = sqrt_minus_one(p)
        return self.canonical(self._gcd(Gauss(p, 0), Gauss(r, 1)))

    def _factor_reps(self, a):
        self._guard_norm(a)
        counts = {}
        rest = a
        for p in factor(a.norm):
            if p == 2:
                cands = [Gauss(1, 1)]
            elif p % 4 == 3:
                cands = [Gauss(p, 0)]
            else:
                pi = self._prime_above(p)
                cands = [pi, self.canonical(pi.conj())]
            rest = self._peel(rest, cands, counts)
        assert self.is_unit(rest)
        return counts


# ---------------------------------------------------------------------------
# polynomials over F_p


class PolynomialRing(Ring):
    tag = "fp"

    P_MAX = 17
    DEG_MAX = 12  # caps divisor enumeration; larger degrees exit 2

    def poly(self, coeffs) -> Poly:
        """The normal form: coefficients reduced mod p, no trailing zeros."""
        return Poly(self.p, tuple(self._digits(coeffs)))

    def _digits(self, coeffs) -> list:
        out = [c % self.p for c in coeffs]
        while out and not out[-1]:
            out.pop()
        return out

    def is_zero(self, e) -> bool:
        return not e.coeffs

    def is_unit(self, e) -> bool:
        return len(e.coeffs) == 1

    def one(self):
        return Poly(self.p, (1,))

    def mul(self, a, b):
        self._check(a, b)
        return self.poly(self._product(a.coeffs, b.coeffs))

    def _product(self, a, b) -> list:
        """Coefficients of a * b, not reduced; with ``_long_division``, all fp arithmetic."""
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return out

    def add(self, a, b):
        self._check(a, b)
        return self.poly(x + y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0))

    def canonical(self, e):
        lead = e.coeffs[-1]
        if lead == 1:
            return e
        inv = pow(lead, -1, self.p)
        return Poly(self.p, tuple(c * inv % self.p for c in e.coeffs))

    def _long_division(self, num, den) -> tuple:
        """Quotient digits of num (reduced or not) by den, reduced, and the
        remainder in normal form.  A step subtracts only den's lower terms:
        the digit its leading term cancels is never read again."""
        if not den:
            raise ParameterError("polynomial division by zero")
        p, dd, r = self.p, len(den) - 1, list(num)
        lower, lead = den[:-1], den[-1]
        inv = 1 if lead == 1 else pow(lead, -1, p)
        q = [0] * (len(r) - dd)
        for k in range(len(r) - dd - 1, -1, -1):
            c = q[k] = r[k + dd] * inv % p
            if c:
                for j, dj in enumerate(lower):
                    r[k + j] -= c * dj
        return q, self._digits(r[:dd])

    def divide(self, numer, denom):
        self._check(numer, denom)
        q, r = self._long_division(numer.coeffs, denom.coeffs)
        return None if r else Poly(self.p, tuple(q))

    def _gcd(self, a, b):
        self._check(a, b)
        a, b = a.coeffs, b.coeffs
        while b:
            a, b = b, self._long_division(a, b)[1]
        return Poly(self.p, tuple(a))

    def sort_key(self, e):
        return (e.degree, tuple(reversed(e.coeffs)))

    def fmt(self, e) -> str:
        if self.is_zero(e):
            return "0"
        terms = []
        for k in range(e.degree, -1, -1):
            c = e.coeffs[k]
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("x" if c == 1 else f"{c}x")
            else:
                terms.append(f"x^{k}" if c == 1 else f"{c}x^{k}")
        return "+".join(terms)

    def parse(self, text: str):
        coeffs = {}
        for _, c, k in _terms(text, "x", True):
            coeffs[k] = (coeffs.get(k, 0) + c) % self.p
        degree = max((k for k, c in coeffs.items() if c), default=0)
        self._guard(degree)
        return self.poly(coeffs.get(k, 0) for k in range(degree + 1))

    def _guard(self, degree: int) -> None:
        if degree > self.DEG_MAX:
            raise SizeGuard(f"degree {brief(degree)} exceeds the fp bound {self.DEG_MAX}")

    def _roots(self, f) -> list:
        """The s in F_p where the coefficient list f vanishes, ascending."""
        p, out = self.p, []
        for s in range(p):
            v = 0
            for c in reversed(f):
                v = v * s + c
            if not v % p:
                out.append(s)
        return out

    def _factor_reps(self, a):
        # each root s of f in F_p gives the factor x - s, divided out as
        # often as it goes.  The rest has no root, so below degree 4 it is a
        # unit or irreducible.  Otherwise f / gcd(f, f') is the square-free
        # product of the irreducibles whose multiplicity p does not divide:
        # Berlekamp splits it, and each factor is peeled out of f as often as
        # it divides.  What is left has f' = 0, so f = g(x^p) = g(x)^p, since
        # c^p = c for every c in F_p
        self._check(a)
        self._guard(a.degree)
        p, counts, f = self.p, {}, self.canonical(a)
        f = self._peel(f, [Poly(p, (-s % p, 1)) for s in self._roots(f.coeffs)], counts)
        if f.degree < 4:
            return counts if self.is_unit(f) else {**counts, f: 1}
        df = self.poly([i * c for i, c in enumerate(f.coeffs)][1:])
        if not self.is_zero(df):
            square_free = self.canonical(self.divide(f, self._gcd(f, df)))
            f = self._peel(f, self._berlekamp(square_free), counts)
        if not self.is_unit(f):
            counts |= {g: e * p for g, e in self._factor_reps(Poly(p, f.coeffs[::p])).items()}
        return counts

    def _berlekamp(self, f) -> list:
        """Monic irreducible factors of a monic square-free f (Berlekamp 1967).

        The v with v^p = v mod f form the null space of Q - I, of dimension
        r, the number of factors: at rank n - 1 no null vector is read.  For a
        factor h, the s in F_p with gcd(h, v - s) not 1 are the roots of the minimal
        polynomial of v mod h (Knuth, TAOCP 4.6.2), and those gcds multiply to h."""
        rows, pivots = self._q_echelon(f.coeffs)
        n, r = f.degree, f.degree - len(pivots)
        if r == 1:
            return [f]
        # column 0 is zero (row 0 of Q is 1), so it is free and stands for the
        # constants; every other free column gives a nonconstant v
        basis = (self._null_vector(rows, pivots, j) for j in range(1, n) if j not in pivots)
        factors = [f]
        for v in basis:
            if len(factors) == r:
                break
            split = []
            for h in factors:
                # the minimal polynomial of w = v mod h has a degree d of at most
                # deg h and the number of factors of h: powers 0..d-1 of w are the
                # pivots, and the null vector at column d holds its coefficients
                w = self._long_division(v, h.coeffs)[1]
                powers = [[1], w]
                while len(powers) <= min(h.degree, r + 1 - len(factors)):
                    powers.append(self._long_division(self._product(powers[-1], w), h.coeffs)[1])
                m_rows, m_pivots = self._echelon(powers, h.degree)
                for s in self._roots(self._null_vector(m_rows, m_pivots, len(m_pivots))):
                    split.append(self.canonical(self._gcd(h, self.poly([v[0] - s, *v[1:]]))))
            factors = split
        return factors

    def _q_echelon(self, f) -> tuple:
        """``_echelon`` of Q - I for a monic coefficient list f of degree n >= 2;
        row i of Q is x^(p*i) mod f, a product and a remainder from row 2 on."""
        p, n = self.p, len(f) - 1
        q = [[1], self._long_division([0] * p + [1], f)[1]]
        while len(q) < n:
            q.append(self._long_division(self._product(q[-1], q[1]), f)[1])
        for i, row in enumerate(q):
            row += [0] * (n - len(row))
            row[i] = (row[i] - 1) % p
        return self._echelon(q, n)

    def _echelon(self, vectors, n) -> tuple:
        """Forward elimination mod p of the n-row matrix with columns ``vectors``
        (coefficient lists, padded): its rows, nonzero ones led by 1, and their pivots."""
        p = self.p
        rows = [list(row) for row in zip(*(v + [0] * (n - len(v)) for v in vectors))]
        pivots = []
        for k in range(len(vectors)):
            r = len(pivots)
            if (i := next((i for i in range(r, n) if rows[i][k]), None)) is None:
                continue
            inv = pow(rows[i][k], -1, p)
            rows[i], rows[r] = rows[r], [c * inv % p for c in rows[i]]  # i may be r
            for i in range(r + 1, n):
                if m := rows[i][k]:
                    rows[i] = [(c - m * d) % p for c, d in zip(rows[i], rows[r])]
            pivots.append(k)
        return rows, pivots

    def _null_vector(self, rows, pivots, free) -> list:
        """By back-substitution, the null vector: 1 at column free, 0 at other free columns."""
        v = [0] * len(rows[0])
        v[free] = 1
        for row, j in zip(reversed(rows[: len(pivots)]), reversed(pivots)):
            v[j] = -sum(c * x for c, x in zip(row[j + 1 :], v[j + 1 :])) % self.p
        return v


# ---------------------------------------------------------------------------
# Z[sqrt(-5)]


class RootMinus5Ring(Ring):
    tag = "zs5"
    has_gcd = False
    is_ufd = False

    NORM_MAX = 10**8

    def is_zero(self, e) -> bool:
        return e.x == 0 and e.y == 0

    def is_unit(self, e) -> bool:
        return e.norm == 1

    def one(self):
        return Root5(1, 0)

    def mul(self, a, b):
        return Root5(a.x * b.x - 5 * a.y * b.y, a.x * b.y + a.y * b.x)

    def add(self, a, b):
        return Root5(a.x + b.x, a.y + b.y)

    def canonical(self, e):
        if e.x > 0 or (e.x == 0 and e.y > 0):
            return e
        return Root5(-e.x, -e.y)

    def divide(self, numer, denom):
        # numer * conj(denom) over N(denom); fields read by name refuse another type
        a, b, c, d = numer.x, numer.y, denom.x, denom.y
        n = c * c + 5 * d * d
        x, y = a * c + 5 * b * d, b * c - a * d
        if x % n or y % n:
            return None
        return Root5(x // n, y // n)

    def sort_key(self, e):
        return (e.norm, e.x, e.y)

    def fmt(self, e) -> str:
        return _fmt_pair(e.x, e.y, "s")

    def parse(self, text: str):
        x, y = _parse_pair(text, "s")
        return Root5(x, y)

    @staticmethod
    def _norm_solutions(d: int):
        # canonical-quadrant solutions of x^2 + 5y^2 = d
        out = []
        for y in range(math.isqrt(d // 5) + 1):
            r = d - 5 * y * y
            x = math.isqrt(r)
            if x * x == r:
                out.append((x, y))
        return out

    def _divisor_reps(self, a):
        # c divides a exactly when a/c does, and one of the two has norm at
        # most sqrt(N(a)): the canonical c of each norm d with d^2 <= N(a)
        # are tried, and each that divides gives c (unless d is 1) and a/c
        self._guard_norm(a)
        n = a.norm
        divs = [1]
        for p, e in factor(n).items():
            divs = [d * p**k for d in divs for k in range(e + 1)]
        reps = set()
        for d in divs:
            if d * d > n:
                continue
            for x, y in self._norm_solutions(d):
                cands = [Root5(x, y)]
                if x > 0 and y > 0:
                    cands.append(Root5(x, -y))
                for c in cands:
                    if (q := self.divide(a, c)) is not None:
                        reps.add(self.canonical(q))
                        if d > 1:
                            reps.add(c)
        # without unique factorization the classes are counted only once
        # listed.  A proper divisor has the smaller norm, sort_key's first
        # entry; the irreducible ones are swept for only when asked for
        if len(reps) > POINT_CAP:
            raise FragmentTooLarge(len(reps), POINT_CAP)
        listed = sorted(reps, key=self.sort_key)
        return listed, lambda: self._atoms(listed)

    def _atoms(self, listed) -> list:
        # as _factor_reps peels: a reducible class has an irreducible proper
        # divisor listed before it, and an irreducible one has none
        atoms = []
        for c in listed:
            if all(self.divide(c, q) is None for q in atoms):
                atoms.append(c)
        return atoms

    def _factor_reps(self, a):
        # not a UFD, so peel: in an atomic domain the least proper divisor is
        # irreducible, and splitting it off until a unit is left factors a.
        # Every divisor of the rest divides a, and none listed before d
        # divides the rest once d is reached, so one listing of a's divisors,
        # a's own class last, serves
        counts = {}
        self._peel(a, self._divisor_reps(a)[0], counts)
        return counts


# ---------------------------------------------------------------------------
# one-prime valuation chain


class PPowerRing(Ring):
    tag = "valp"
    is_valuation = True
    # the full local ring has infinitely many units, so the finite-unit
    # prime generator refuses this adapter
    finite_units = False

    K_MAX = 4096
    P_MAX = 10**120  # as z's VALUE_MAX

    def is_zero(self, e) -> bool:
        return False  # zero has no representation here

    def is_unit(self, e) -> bool:
        return e.k == 0

    def one(self):
        return PPow(self.p, 0)

    def mul(self, a, b):
        self._check(a, b)
        return PPow(self.p, a.k + b.k)

    def add(self, a, b):
        raise ParameterError("valp classes carry no additive structure")

    def canonical(self, e):
        return e

    def divide(self, numer, denom):
        self._check(numer, denom)
        if denom.k <= numer.k:
            return PPow(self.p, numer.k - denom.k)
        return None

    def sort_key(self, e):
        return (e.k,)

    def fmt(self, e) -> str:
        return "p" if e.k == 1 else f"p^{e.k}"

    def parse(self, text: str):
        # one term: p or p^k, where no sign or digits come before p, or an
        # integer that is a power of p
        [(pos, v, k)] = _terms(text, "p", True, single=True)
        if "p" in text:
            if text[pos] != "p":
                raise ElementSyntaxError(text, pos, "expected p or p^k")
        else:
            while v > 1 and v % self.p == 0:
                v //= self.p
                k += 1
            if v != 1:
                raise ElementSyntaxError(text, pos, f"not a power of {self.p}")
        if k > self.K_MAX:
            raise SizeGuard(f"exponent {brief(k)} exceeds the valp bound {self.K_MAX}")
        return PPow(self.p, k)

    def _factor_reps(self, a):
        self._check(a)
        return {PPow(self.p, 1): a.k}

    def _gcd(self, a, b):
        return PPow(self.p, min(a.k, b.k))


# ---------------------------------------------------------------------------
# registry

RINGS = {r.tag: r for r in (IntegerRing, GaussianRing, PolynomialRing, RootMinus5Ring, PPowerRing)}
RING_TAGS = tuple(RINGS)


def make_ring(tag: str, p: Optional[int] = None) -> Ring:
    """A new ring with this tag, the one gate for a ring asked for from
    outside: tags are the ``RINGS`` keys, and rings with a ``P_MAX`` take a
    prime p, the others none (``Ring.__init__``)."""
    if not isinstance(tag, str) or tag not in RINGS:
        raise ParameterError(f"unknown ring tag {brief(tag)}")
    return RINGS[tag](p)
