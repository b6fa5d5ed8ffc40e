"""Command-line front end: fragments, theorem checks, and the prime stream.

Exit codes: 0 on success (for ``check``: every verdict matches the expected
outcome for the chosen ring), 1 when a check verdict differs from the
expected one (a bug signal), 2 on usage, parse, or guard errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from itertools import combinations
from typing import List, Optional

from . import checks as C
from .checks import FAILS, HOLDS, WITNESS, CheckReport
from .errors import DivtopError
from .formats import (
    fragment_to_dot,
    fragment_to_json,
    primes_to_json,
    report_to_json,
)
from .primes import PrimeList, prime_stream
from .rings import RING_TAGS, Ring, make_ring
from .topology import build_fragment

# every prop in help order, with its expected verdict or a function of the
# ring that gives it
EXPECTED = {
    "t0": HOLDS,
    "t1": WITNESS,
    "isolated": HOLDS,
    "nested": lambda ring: HOLDS if ring.caps.is_valuation else FAILS,
    "gcd-intersection": lambda ring: HOLDS if ring.caps.has_gcd else WITNESS,
    "density": HOLDS,
    "dense-open": HOLDS,
    "ultra": WITNESS,
    "sep-nbhd": WITNESS,
    "regular": WITNESS,
    "compact": WITNESS,
    "chain": WITNESS,
    "maximal": WITNESS,
}
PROPS = tuple(EXPECTED)

DEFAULT_CHAIN = 5

PRIME_START = {"z": "2", "fp": "x", "gauss": "1+1i"}


class UsageError(DivtopError):
    pass


def _ring_from_args(args) -> Ring:
    if args.ring in ("fp", "valp") and args.p is None:
        raise UsageError(f"--p is required for --ring {args.ring}")
    if args.ring not in ("fp", "valp") and args.p is not None:
        raise UsageError(f"--p does not apply to --ring {args.ring}")
    return make_ring(args.ring, args.p)


def _seed_classes(ring: Ring, seeds: str) -> list:
    out = []
    for chunk in seeds.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError("empty seed in --seeds")
        out.append(ring.canonical_class(ring.parse(chunk)))
    return out


def expected_verdict(prop: str, ring: Ring) -> str:
    verdict = EXPECTED[prop]
    return verdict(ring) if callable(verdict) else verdict


def _intersection_report(ring: Ring, classes: list, fragment) -> CheckReport:
    """Report for the gcd-intersection prop.

    Two or more seeds: the first two.  One seed on a gcd ring: the seed with
    itself.  One seed a without gcd: the first product b = q1*q2 of two
    non-associated irreducible divisors, in sort order, whose intersection
    with a is non-basic (the interesting case such rings exist to show), or
    a itself when there is none.  If b divides a, U_a & U_b = U_b is basic.
    If not, it is not: a generator g would be divisible by q1 and q2 and
    divide b, so g ~ b would divide a.  So b is the first product that is no
    point of a's fragment, and the report below recomputes the verdict."""
    a = classes[0]
    b = classes[1] if len(classes) > 1 else a
    if ring.caps.has_gcd:
        return C.basis_intersection(ring, a, b)
    # a zs5 norm <= 10^8 has at most 1440 ideal divisors (found by a scan), so
    # a fragment of two seeds stays under POINT_CAP; more seeds might not
    frag = fragment() if len(classes) <= 2 else build_fragment(ring, classes[:2])
    if len(classes) == 1:
        irr = [p for p in frag.points if len(frag.basic_open(p)) == 1]
        irr.sort(key=ring.class_sort_key)
        products = (ring.mul_class(q1, q2) for q1, q2 in combinations(irr, 2))
        b = next((b for b in products if b not in frag), a)
    return C.fragment_intersection(frag, a, b)


def _run_prop(prop: str, ring: Ring, classes: list, fragment, args) -> CheckReport:
    """Run one prop of ``PROPS``; ``fragment()`` returns the seeds' fragment."""
    if prop == "t0":
        return C.check_t0(fragment())
    if prop == "t1":
        return C.t1_failure_witness(ring, classes[0])
    if prop == "isolated":
        return C.isolated_points(fragment())
    if prop == "nested":
        return C.check_nested(fragment())
    if prop == "gcd-intersection":
        return _intersection_report(ring, classes, fragment)
    if prop == "density":
        return C.density_check(ring, classes)
    if prop == "dense-open":
        return C.dense_open_check(fragment())
    if prop == "ultra":
        b = classes[1] if len(classes) > 1 else classes[0]
        return C.ultraconnected_witness(ring, classes[0], b)
    if prop == "sep-nbhd":
        frag = fragment()
        iso = [p for p in frag.points if len(frag.basic_open(p)) == 1]
        if len(iso) < 3:
            raise UsageError(
                "sep-nbhd needs three non-associated irreducibles; "
                f"the seed fragment only has {len(iso)}"
            )
        return C.no_disjoint_nbhd_witness(ring, iso[0], iso[1], iso[2])
    if prop == "regular":
        return C.non_regular_witness(ring, classes[0])
    if prop == "compact":
        return C.non_compact_witness(ring, classes[0], classes)
    if prop == "chain":
        return C.noetherian_chain(ring, classes[0], args.n)
    if prop == "maximal":
        return C.maximal_basic_open(fragment(), classes)


def cmd_fragment(args) -> int:
    ring = _ring_from_args(args)
    fragment = build_fragment(ring, _seed_classes(ring, args.seeds))
    if args.out == "dot":
        sys.stdout.write(fragment_to_dot(fragment))
    elif args.out == "text":
        print(f"ring: {ring.name}")
        print("points:", " ".join(p.text for p in fragment.points))
        texts = [p.text for p in fragment.points]
        edges = " ".join(f"{texts[i]}->{texts[j]}" for i, j in fragment.covering_pairs())
        print("edges:", edges)
    else:
        print(fragment_to_json(fragment))
    return 0


def cmd_check(args) -> int:
    ring = _ring_from_args(args)
    classes = _seed_classes(ring, args.seeds)
    props = [p.strip() for p in args.props.split(",") if p.strip()]
    if not props:
        raise UsageError("no prop given")
    for p in props:
        if p not in PROPS:
            raise UsageError(f"unknown prop {p!r}; choose from {', '.join(PROPS)}")
    # built on first use, then shared by every prop
    fragment = cache(lambda: build_fragment(ring, classes))
    status = 0
    for prop in props:
        report = _run_prop(prop, ring, classes, fragment, args)
        if args.out == "text":
            wt = " ".join(report.witness_texts())
            print(f"{report.check}: {report.verdict}" + (f" [{wt}]" if wt else ""))
        else:
            print(report_to_json(report))
        if report.verdict != expected_verdict(prop, ring):
            status = 1
    return status


def cmd_primes(args) -> int:
    if args.ring not in PRIME_START:
        raise UsageError(
            f"--ring {args.ring} does not support the prime stream "
            "(needs unique factorization and a finite unit group)"
        )
    ring = _ring_from_args(args)
    start_text = args.start if args.start else PRIME_START[args.ring]
    start = PrimeList(ring.name, tuple(_seed_classes(ring, start_text)))
    out = prime_stream(ring, start, args.count)
    print(primes_to_json(ring, out.members))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divtop",
        description="divisibility-order topology on finite fragments of integral domains",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seeds_required=True):
        sp.add_argument("--ring", required=True, choices=RING_TAGS)
        sp.add_argument("--p", type=int, default=None, help="modulus/prime for fp and valp")
        if seeds_required:
            sp.add_argument("--seeds", required=True, help="comma-separated element texts")

    sp = sub.add_parser("fragment", help="build a fragment and export it", allow_abbrev=False)
    common(sp)
    sp.add_argument("--out", choices=("json", "dot", "text"), default="json")
    sp.set_defaults(func=cmd_fragment)

    sp = sub.add_parser("check", help="run theorem checks against a fragment", allow_abbrev=False)
    common(sp)
    sp.add_argument("--props", required=True, help="comma list from: " + ",".join(PROPS))
    sp.add_argument("--n", type=int, default=DEFAULT_CHAIN, help="chain length for the chain prop")
    sp.add_argument("--out", choices=("json", "text"), default="json")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser(
        "primes", help="grow a list of pairwise non-associated primes", allow_abbrev=False
    )
    common(sp, seeds_required=False)
    sp.add_argument("--start", default=None, help="comma-separated starting primes")
    sp.add_argument("--count", type=int, required=True, help="number of primes to append")
    sp.set_defaults(func=cmd_primes)
    return parser


# built on the first call to main, then reused by every later call in the
# process; build_parser itself still returns a fresh parser
_parser = cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DivtopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
