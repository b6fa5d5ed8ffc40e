"""Seeded job lists for the divtop benchmark.

A job is one divtop CLI argv (or the ``fragment_from_json`` read-back of a
JSON document made by the job before it).  Each workload is a fixed list of
slots; a slot fixes the ring, the prop or output, and the *shape* of its
inputs (how many irreducibles, their exponents, the fp degrees), and has
``VARIANTS`` concrete inputs that differ only in which irreducibles fill the
shape.  A seed picks one variant per slot, so every seed does the same
amount of work on different inputs, and the golden table (recorded once
from the seed commit) covers every job any seed can produce.

Inputs are built from chosen irreducibles and exponents, so the expected
fragment size prod(e_i + 1) - 1 is known here without calling divtop.  zs5
is not a UFD, so its jobs carry no point count and rely on the golden digest.
Inputs are chosen by properties of the input (">= 3 distinct irreducibles"
for sep-nbhd, ">= 2 distinct primes" for nested off valuation rings), never
by divtop's verdict.  See README.md for why each workload exists.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

VARIANTS = 8
JOB_DEADLINE_S = 30.0
# The stall jobs run for minutes at the seed commit and for milliseconds once
# fp irreducibility and z factoring are bounded in work (ROADMAP item 3); the
# deadline sits far from both.
STALL_DEADLINE_S = 5.0

# "stalls" is not listed in BENCHMARK.json: every job in it fails at the seed
GATED = ("check_large", "export_large", "small_mixed")
WORKLOADS = GATED + ("stalls",)
WHY = {
    "check_large": "30-480 point fragments on all five rings through check t0,isolated,nested: "
    "the n^2 divides matrix and the O(n^2) t0 and nested loops dominate",
    "export_large": "the same fragments through fragment --out json|dot|text and a JSON read-back: "
    "matrix plus covering pairs and serialization, no t0 or nested",
    "small_mixed": "hundreds of short jobs, every prop on every ring, prime streams, fp factoring: "
    "ring primitives and per-job CLI overhead dominate",
    "stalls": "the two known in-guard stalls under a deadline; not gated, both miss it at the seed",
}

FP_PRIMES = (5, 7, 11, 13, 17)
VALP_PRIMES = (2, 3, 5, 7)
Z_ENUM_MAX = 10**12  # divtop's z divisor-enumeration bound
GAUSS_NORM_MAX = 10**18
ZS5_NORM_MAX = 10**8
FP_DEG_MAX = 12


@dataclass(frozen=True)
class Job:
    argv: tuple
    points: Optional[int] = None  # expected fragment size, when the output shows it
    max_points: Optional[int] = None  # largest fragment the job builds, when known
    deadline_s: float = JOB_DEADLINE_S

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def readback_of(self) -> Optional[str]:
        """Key of the JSON job whose output this read-back job parses."""
        return " ".join(self.argv[1:]) if self.argv[0] == "readback" else None


# ---------------------------------------------------------------------------
# irreducibles, element arithmetic and text, per ring


def primes_below(n: int) -> list:
    return [q for q in range(2, n) if all(q % d for d in range(2, math.isqrt(q) + 1))]


GAUSS_PRIMES = [(1, 1)]
for _q in primes_below(60)[1:]:
    if _q % 4 == 3:
        GAUSS_PRIMES.append((_q, 0))
    else:
        _a = next(a for a in range(1, _q) if math.isqrt(_q - a * a) ** 2 == _q - a * a)
        _b = math.isqrt(_q - _a * _a)
        GAUSS_PRIMES += [(_a, _b), (_b, _a)]  # conjugate pair: not associated

# Irreducible elements of Z[sqrt(-5)] (no element has norm 2, 3 or 7), as (x, y)
# for x + y*sqrt(-5).  2 * 3 = (1+s)(1-s) is the classic non-unique product.
ZS5_ATOMS = [(2, 0), (3, 0), (7, 0), (1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1)]
# Rational primes whose prime ideals in Z[sqrt(-5)] are not principal: a
# product of two of them factors in two ways (6 = 2*3 = (1+s)(1-s)).
ZS5_SPLIT = [(2, 0), (3, 0), (7, 0)]


def gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def zs5_mul(a, b):
    return (a[0] * b[0] - 5 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def poly_mod(a, f, p):
    r = list(a)
    inv = pow(f[-1], -1, p)
    for k in range(len(r) - len(f), -1, -1):
        c = r[k + len(f) - 1] * inv % p
        if c:
            for j, fj in enumerate(f):
                r[k + j] = (r[k + j] - c * fj) % p
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def poly_gcd(a, b, p):
    while b:
        a, b = b, poly_mod(a, b, p)
    return a


def _x_pow_p_iter(f, p, times):
    """x^(p^times) mod f."""
    r = poly_mod((0, 1), f, p)
    for _ in range(times):
        out, base, e = (1,), r, p
        while e:
            if e & 1:
                out = poly_mod(poly_mul(out, base, p), f, p)
            base = poly_mod(poly_mul(base, base, p), f, p)
            e >>= 1
        r = out
    return r


def _minus_x(a, f, p):
    """(a - x) mod f."""
    a = list(a) + [0] * max(0, 2 - len(a))
    a[1] = (a[1] - 1) % p
    return poly_mod(a, f, p)


def is_irreducible_fp(f, p) -> bool:
    """Rabin's test for a monic f over F_p (low degree first)."""
    n = len(f) - 1
    if _minus_x(_x_pow_p_iter(f, p, n), f, p):
        return False
    for q in {q for q in primes_below(n + 1) if n % q == 0}:
        if len(poly_gcd(f, _minus_x(_x_pow_p_iter(f, p, n // q), f, p), p)) > 1:
            return False
    return True


def fp_irreducible(p: int, d: int, rng: random.Random, exclude=()) -> tuple:
    """A monic irreducible of degree d over F_p, drawn by rng, not in exclude."""
    while True:
        f = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        if f not in exclude and is_irreducible_fp(f, p):
            return f


def fp_text(f) -> str:
    terms = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if not c:
            continue
        mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        terms.append(str(c) if k == 0 else (mono if c == 1 else f"{c}{mono}"))
    return "+".join(terms)


def pair_text(a, sym: str) -> str:
    if a[1] == 0:
        return str(a[0])
    if a[0] == 0:
        return f"{a[1]}{sym}"
    return f"{a[0]}{a[1]:+d}{sym}"


# ---------------------------------------------------------------------------
# shapes: a seed is an exponent vector over the slot's chosen irreducibles


@dataclass(frozen=True)
class Inputs:
    ring_args: tuple  # ("--ring", tag[, "--p", p])
    seeds: tuple  # element texts
    points: Optional[int]  # size of the seeds' fragment
    factor_exps: tuple  # exponent vectors, for point counts of powers


def union_points(vectors) -> int:
    """Non-unit divisors of any seed: exponent vectors under some seed's."""
    divs = set()
    for v in vectors:
        divs.update(itertools.product(*(range(e + 1) for e in v)))
    return len(divs) - 1


def power_points(vector, n: int) -> int:
    return math.prod(n * e + 1 for e in vector) - 1


def _power(mul, one, atoms, vector):
    e = one
    for a, n in zip(atoms, vector):
        for _ in range(n):
            e = mul(e, a)
    return e


def make_inputs(
    ring: str, rng: random.Random, shape: tuple, degs: tuple = (), p: Optional[int] = None,
    power: int = 1,
) -> Inputs:
    """Fill an exponent shape with distinct irreducibles drawn by rng.

    ``degs`` gives the fp degree of each irreducible (default all 1), ``p``
    pins the fp or valp modulus, and ``power`` is the highest power of a seed
    the job builds a fragment of; that power must stay inside divtop's guards.
    """
    k = len(shape[0])
    if ring == "valp":
        p = p or rng.choice(VALP_PRIMES)
        texts = tuple("p" if v[0] == 1 else f"p^{v[0]}" for v in shape)
        return Inputs(("--ring", "valp", "--p", str(p)), texts, union_points(shape), shape)
    if ring == "fp":
        degs = degs or (1,) * k
        if p is None:
            p = rng.choice([q for q in FP_PRIMES if q > degs.count(1)])
        atoms: list = []
        for d in degs:
            atoms.append(fp_irreducible(p, d, rng, atoms))
        elems = [_power(lambda a, b: poly_mul(a, b, p), (1,), atoms, v) for v in shape]
        if max(len(e) - 1 for e in elems) * power > FP_DEG_MAX:
            raise ValueError(f"fp shape {shape} with degrees {degs} exceeds degree {FP_DEG_MAX}")
        texts = tuple(fp_text(e) for e in elems)
        return Inputs(("--ring", "fp", "--p", str(p)), texts, union_points(shape), shape)
    for _ in range(1000):
        if ring == "z":
            atoms = sorted(rng.sample(primes_below(60), k))
            elems = [math.prod(q**e for q, e in zip(atoms, v)) for v in shape]
            if max(elems) ** power <= Z_ENUM_MAX:
                return Inputs(("--ring", "z"), tuple(map(str, elems)), union_points(shape), shape)
        elif ring == "gauss":
            atoms = sorted(rng.sample(GAUSS_PRIMES, k), key=lambda a: a[0] ** 2 + a[1] ** 2)
            elems = [_power(gauss_mul, (1, 0), atoms, v) for v in shape]
            if max(a * a + b * b for a, b in elems) ** power <= GAUSS_NORM_MAX:
                texts = tuple(pair_text(e, "i") for e in elems)
                return Inputs(("--ring", "gauss"), texts, union_points(shape), shape)
        elif ring == "zs5":
            atoms = rng.sample(ZS5_ATOMS, k)
            elems = [_power(zs5_mul, (1, 0), atoms, v) for v in shape]
            if max(x * x + 5 * y * y for x, y in elems) ** power <= ZS5_NORM_MAX:
                texts = tuple(pair_text(e, "s") for e in elems)
                return Inputs(("--ring", "zs5"), texts, None, shape)
        else:
            raise ValueError(f"unknown ring {ring!r}")
    raise ValueError(f"no {ring} inputs within the guards for shape {shape}")


# ---------------------------------------------------------------------------
# workloads


def _seed_args(inp: Inputs) -> tuple:
    # "--seeds=" keeps argparse from reading a leading minus as an option
    return inp.ring_args + ("--seeds=" + ",".join(inp.seeds),)


def _slot_rng(stream: str, index: int, variant: int) -> random.Random:
    return random.Random(f"{stream}/{index}/{variant}")


# Large fragments: (ring, shape, fp degrees or zs5 irreducibles).  Point
# counts run from ~30 to ~480 so that, at the seed commit's n^2 speed, one pass
# takes 2-4 s and a 30 s run pools >= 100 jobs.
LARGE = [
    ("z", ((4, 2, 1, 1, 1, 1),), ()),  # 239 points
    ("z", ((3, 2, 2, 1, 1, 1),), ()),  # 287
    ("z", ((5, 3, 1, 1, 1, 1),), ()),  # 383
    ("z", ((4, 2, 1, 1, 1, 1, 1),), ()),  # 479
    ("z", ((3, 3, 1, 1, 1, 0, 0), (2, 0, 1, 1, 0, 1, 1)), ()),  # union, 163
    ("gauss", ((3, 2, 1, 1, 1),), ()),  # 95
    ("gauss", ((2, 2, 2, 1, 1, 1),), ()),  # 215
    ("gauss", ((2, 2, 1, 1, 0), (0, 2, 1, 1, 1)), ()),  # union, 47
    ("fp", ((2, 2, 1, 1, 1, 1),), (1, 1, 1, 1, 1, 2)),  # 143
    ("fp", ((3, 2, 1, 1, 1),), (1, 1, 1, 2, 2)),  # 95
    ("fp", ((1, 1, 1, 1, 1, 1, 0), (0, 1, 1, 1, 1, 1, 1)), ()),  # union, 95
    # zs5 variants are conjugates and negatives of one product: same work
    ("zs5", ((2, 2, 1, 1),), ((1, 1), (2, 1), (3, 1), (2, 0))),
    ("zs5", ((2, 2, 1, 1),), ((2, 0), (3, 0), (7, 0), (1, 1))),
    ("valp", ((150,),), ()),
    ("valp", ((120,), (180,)), ()),  # union: the fragment of p^180
    ("valp", ((290,),), ()),
]
LARGE_PROPS = "t0,isolated,nested"
# 2^6 3^3 5^2 7 11 13 17 19 q has 5376 > 4096 divisors and stays under 10^12
CAP_REFUSAL_QS = (23, 29, 31, 37, 41, 43, 47, 53)


def _large_inputs(index: int, variant: int) -> Inputs:
    # check_large and export_large draw from one stream: the same fragments
    ring, shape, extra = LARGE[index]
    if ring == "zs5":
        atoms = [(x, -y) if variant & 1 else (x, y) for x, y in extra]
        sign = -1 if variant & 2 else 1
        x, y = _power(zs5_mul, (sign, 0), atoms, shape[0])
        return Inputs(("--ring", "zs5"), (pair_text((x, y), "s"),), None, shape)
    return make_inputs(ring, _slot_rng("large", index, variant), shape, extra)


def check_large_slot(index: int, variant: int) -> list:
    if index == len(LARGE):
        q = CAP_REFUSAL_QS[variant]
        n = 2**6 * 3**3 * 5**2 * 7 * 11 * 13 * 17 * 19 * q
        return [Job(("check", "--ring", "z", f"--seeds={n}", "--props", LARGE_PROPS))]
    inp = _large_inputs(index, variant)
    return [Job(("check",) + _seed_args(inp) + ("--props", LARGE_PROPS), inp.points, inp.points)]


def export_large_slot(index: int, variant: int) -> list:
    inp = _large_inputs(index, variant)
    base = ("fragment",) + _seed_args(inp)
    jobs = [Job(base + ("--out", out), inp.points, inp.points) for out in ("json", "dot", "text")]
    jobs.append(Job(("readback",) + base + ("--out", "json"), inp.points, inp.points))
    return jobs


# small_mixed builds no fragment above this many points, a^2 (t1, regular)
# and a^n (chain) included
SMALL_POINT_CEILING = 300
PROPS = (
    "t0", "t1", "isolated", "nested", "gcd-intersection", "density", "dense-open",
    "ultra", "sep-nbhd", "regular", "compact", "chain", "maximal",
)
# per ring: the shape each prop gets.  "one" is a one-seed fragment with >= 2
# distinct irreducibles (nested must fail off valuation rings), "two" two
# overlapping seeds, "three" >= 3 distinct irreducibles (sep-nbhd), "dense" at
# most 12 points (dense-open enumerates every open), "base" the element a
# whose powers t1, regular, compact and chain use.
_SMALL_SHAPES = {
    "z": dict(one=((3, 2, 1, 1),), two=((2, 1, 1, 0), (0, 1, 1, 1)), three=((1, 1, 1, 1),),
              dense=((2, 1, 1),), base=(((1,),), ((1, 1),))),
    "gauss": dict(one=((2, 2, 1, 1),), two=((2, 1, 0), (0, 1, 2)), three=((1, 1, 1),),
                  dense=((1, 1, 1),), base=(((1,),), ((1, 1),))),
    "fp": dict(one=((2, 1, 1, 1),), two=((2, 1, 0), (0, 1, 2)), three=((1, 1, 1),),
               dense=((1, 1, 1),), base=(((1,),), ((1, 1),))),
    "zs5": dict(one=((2, 1),), two=((1, 1, 0), (0, 1, 1)), three=((1, 1, 1),),
                dense=((1, 1),), base=(((1,),), ((1, 1),))),
    # valp has a single irreducible, so its sep-nbhd job is a refusal (exit 2)
    "valp": dict(one=((12,),), two=((3,), (5,)), three=((12,),),
                 dense=((8,),), base=(((1,),), ((2,),))),
}
_PROP_SHAPE = {
    "t0": "one", "isolated": "one", "nested": "one", "maximal": "two", "density": "two",
    "gcd-intersection": "two", "ultra": "two", "sep-nbhd": "three", "dense-open": "dense",
    "t1": "base", "regular": "base", "compact": "base", "chain": "base",
}
# prime streams: (ring, fp modulus, start size, count).  z streams stay below
# the steep part of factorint (from "2", 12 members take 0.05 s, 16 take 1.9 s)
_PRIME_SLOTS = [
    ("z", None, 1, 8), ("z", None, 1, 10), ("z", None, 2, 8), ("z", None, 2, 9),
    ("gauss", None, 1, 6), ("gauss", None, 2, 5),
    ("fp", 2, 1, 3), ("fp", 3, 1, 3), ("fp", 5, 1, 2), ("fp", 7, 1, 2),
]
# fp factoring and irreducibility at degree 6-8: (prop, p, factor degrees).
# Trial division scans every monic up to half the degree, p + ... + p^(d/2)
# candidates, so p and d are fixed per slot and an irreducible costs the same
# in every variant.  Twelve slots of one kind (an irreducible of degree 7 over
# F_13) make the ranks around p90 one cluster of equal cost, so p90 does not
# jump between jobs of different cost from one seed to the next.
_FP_FACTOR_SLOTS = [
    ("density", 17, (6,)), ("isolated", 17, (6,)), ("density", 13, (7,)),
    ("isolated", 11, (7,)), ("density", 7, (8,)), ("isolated", 7, (8,)),
    ("density", 5, (8,)), ("density", 17, (4, 2, 1)), ("isolated", 13, (4, 3)),
    ("t0", 11, (3, 2, 1, 1)),
] + [("isolated", 13, (7,))] * 12
# zs5 gcd-intersection partner searches: one seed, a product of two primes
# from ZS5_SPLIT times `extra` further irreducibles
_ZS5_GCD_SLOTS = (0, 0, 1, 1, 2)


def _small_slots() -> list:
    slots = []
    for ring, shapes in _SMALL_SHAPES.items():
        for prop in PROPS:
            which = _PROP_SHAPE[prop]
            if ring == "zs5" and prop == "gcd-intersection":
                continue  # the partner-search slots below cover it
            for shape in shapes["base"] if which == "base" else (shapes[which],):
                slots.append(("prop", ring, prop, shape))
    slots += [("primes",) + s for s in _PRIME_SLOTS]
    slots += [("fpfactor",) + s for s in _FP_FACTOR_SLOTS]
    slots += [("zs5gcd", extra) for extra in _ZS5_GCD_SLOTS]
    return slots


SMALL_SLOTS = _small_slots()


def _prop_job(ring: str, prop: str, shape: tuple, variant: int, rng: random.Random) -> Job:
    power = {"t1": 2, "regular": 2, "chain": 3 + variant % 3}.get(prop, 1)
    degs = (1,) * (len(shape[0]) - 1) + (2,) if ring == "fp" and power == 1 else ()
    inp = make_inputs(ring, rng, shape, degs, power=power)
    argv = ("check",) + _seed_args(inp) + ("--props", prop)
    if prop == "chain":
        argv += ("--n", str(power))
    # the largest fragment the job builds
    if prop in ("compact", "ultra", "density", "gcd-intersection"):
        built = 0
    elif ring == "zs5":
        built = None  # not a UFD: the self-tests count its divisors directly
    elif power > 1:
        built = power_points(inp.factor_exps[0], power)
    else:
        built = inp.points
    shown = inp.points if prop == "t0" or (prop == "nested" and ring == "valp") else None
    return Job(argv, shown, built)


def small_mixed_slot(index: int, variant: int) -> list:
    slot = SMALL_SLOTS[index]
    rng = _slot_rng("small_mixed", index, variant)
    kind = slot[0]
    if kind == "prop":
        return [_prop_job(*slot[1:], variant, rng)]
    if kind == "primes":
        _, ring, p, nstart, count = slot
        args = ("--ring", ring) + (("--p", str(p)) if p else ())
        if ring == "z":
            start = ",".join(map(str, sorted(rng.sample(primes_below(30), nstart))))
        elif ring == "gauss":
            start = ",".join(pair_text(a, "i") for a in rng.sample(GAUSS_PRIMES[:7], nstart))
        else:
            start = fp_text((rng.randrange(p), 1))
        return [Job(("primes",) + args + ("--start", start, "--count", str(count)), None, 0)]
    if kind == "fpfactor":
        _, prop, p, degs = slot
        inp = make_inputs("fp", rng, ((1,) * len(degs),), degs, p)
        argv = ("check",) + _seed_args(inp) + ("--props", prop)
        return [Job(argv, inp.points if prop == "t0" else None, inp.points)]
    if kind == "zs5gcd":
        atoms = rng.sample(ZS5_SPLIT, 2) + rng.sample(ZS5_ATOMS, slot[1])
        seed = _power(zs5_mul, (1, 0), atoms, (1,) * len(atoms))
        argv = ("check", "--ring", "zs5", "--seeds=" + pair_text(seed, "s"), "--props",
                "gcd-intersection")
        return [Job(argv, None, 0)]
    raise ValueError(f"unknown slot kind {kind!r}")


# The first 24 members of the z stream from 2 (divtop's Euclid construction);
# the 25th step factors an integer near 10^98 and stalls inside the guard.
Z_STREAM_24 = (
    "2,3,5,17,257,65537,641,7,318811,19,1747,12791,73,90679,67,59,113,13,41,47,"
    "151,131,1301297155768795368671,20921"
)


def stall_slot(index: int, variant: int) -> list:
    if index == 0:
        # irreducible of degree 12 over F_17: trial division would scan
        # 17 + ... + 17^6 (about 2.6e7) monic candidates
        f = fp_irreducible(17, 12, _slot_rng("stalls", 0, variant))
        argv = ("check", "--ring", "fp", "--p", "17", "--seeds=" + fp_text(f), "--props", "isolated")
        return [Job(argv, None, 1, STALL_DEADLINE_S)]
    argv = ("primes", "--ring", "z", "--start", Z_STREAM_24, "--count", "1")
    return [Job(argv, None, 0, STALL_DEADLINE_S)]


_SLOTS = {
    "check_large": (len(LARGE) + 1, check_large_slot),
    "export_large": (len(LARGE), export_large_slot),
    "small_mixed": (len(SMALL_SLOTS), small_mixed_slot),
    "stalls": (2, stall_slot),
}


def jobs(workload: str, seed: int) -> list:
    """One pass of the workload for this seed: one variant per slot."""
    if workload not in _SLOTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    n, build = _SLOTS[workload]
    rng = random.Random(seed)
    return [job for index in range(n) for job in build(index, rng.randrange(VARIANTS))]


def all_jobs(workload: str) -> list:
    """Every job any seed can draw: the golden table covers these."""
    n, build = _SLOTS[workload]
    return [job for index in range(n) for v in range(VARIANTS) for job in build(index, v)]
