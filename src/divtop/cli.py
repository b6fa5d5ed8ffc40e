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
from .errors import DivtopError, ParameterError, brief
from .formats import (
    fragment_to_dot,
    fragment_to_json,
    primes_to_json,
    report_to_json,
)
from .primes import prime_stream, require_stream_capability
from .rings import RING_TAGS, Ring, make_ring
from .topology import build_fragment

DEFAULT_CHAIN = 5

PRIME_START = {"z": "2", "fp": "x", "gauss": "1+1i"}


def _seed_classes(ring: Ring, seeds: str) -> list:
    out = []
    for chunk in seeds.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ParameterError("empty seed in --seeds")
        out.append(ring.canonical_class(ring.parse(chunk)))
    return out


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
    a, b = classes[0], classes[:2][-1]
    if ring.has_gcd:
        return C.basis_intersection(ring, a, b)
    # a Z[sqrt(-5)] norm <= 10^8 has at most 1440 ideal divisors (found by a scan), so
    # a fragment of two seeds stays under POINT_CAP; more seeds might not
    frag = fragment() if len(classes) <= 2 else build_fragment(ring, classes[:2])
    if len(classes) == 1:
        irr = sorted(frag.isolated(), key=ring.class_sort_key)
        products = (ring.mul_class(q1, q2) for q1, q2 in combinations(irr, 2))
        b = next((b for b in products if b not in frag), a)
    return C.fragment_intersection(frag, a, b)


def _sep_nbhd_report(ring: Ring, classes: list, n: int, fragment) -> CheckReport:
    iso = fragment().isolated().classes()
    if len(iso) < 3:
        raise ParameterError(
            "sep-nbhd needs three non-associated irreducibles; "
            f"the seed fragment only has {len(iso)}"
        )
    return C.no_disjoint_nbhd_witness(ring, *iso[:3])


# every prop in help order: (its expected verdict or a function of the ring
# giving it, its runner (ring, classes, n, fragment)); n is the chain length,
# fragment() the seeds' fragment, classes[:2][-1] the second seed or the first
PROPS = {
    "t0": (HOLDS, lambda ring, cs, n, frag: C.check_t0(frag())),
    "t1": (WITNESS, lambda ring, cs, n, frag: C.t1_failure_witness(ring, cs[0])),
    "isolated": (HOLDS, lambda ring, cs, n, frag: C.isolated_points(frag())),
    "nested": (
        lambda ring: HOLDS if ring.is_valuation else FAILS,
        lambda ring, cs, n, frag: C.check_nested(frag()),
    ),
    "gcd-intersection": (
        lambda ring: HOLDS if ring.has_gcd else WITNESS,
        lambda ring, cs, n, frag: _intersection_report(ring, cs, frag),
    ),
    "density": (HOLDS, lambda ring, cs, n, frag: C.density_check(ring, cs)),
    "dense-open": (HOLDS, lambda ring, cs, n, frag: C.dense_open_check(frag())),
    "ultra": (WITNESS, lambda ring, cs, n, frag: C.ultraconnected_witness(ring, cs[0], cs[:2][-1])),
    "sep-nbhd": (WITNESS, _sep_nbhd_report),
    "regular": (WITNESS, lambda ring, cs, n, frag: C.non_regular_witness(ring, cs[0])),
    "compact": (WITNESS, lambda ring, cs, n, frag: C.non_compact_witness(ring, cs[0], cs)),
    "chain": (WITNESS, lambda ring, cs, n, frag: C.noetherian_chain(ring, cs[0], n)),
    "maximal": (WITNESS, lambda ring, cs, n, frag: C.maximal_basic_open(frag(), cs)),
}


def expected_verdict(prop: str, ring: Ring) -> str:
    verdict = PROPS[prop][0]
    return verdict(ring) if callable(verdict) else verdict


def cmd_fragment(ring: Ring, args) -> int:
    fragment = build_fragment(ring, _seed_classes(ring, args.seeds))
    if args.out == "dot":
        sys.stdout.write(fragment_to_dot(fragment))
    elif args.out == "text":
        texts = [p.text for p in fragment.points]
        print(f"ring: {ring.name}")
        print("points:", " ".join(texts))
        print("edges:", " ".join(f"{texts[i]}->{texts[j]}" for i, j in fragment.covering_pairs()))
    else:
        print(fragment_to_json(fragment))
    return 0


def cmd_check(ring: Ring, args) -> int:
    classes = _seed_classes(ring, args.seeds)
    props = [p.strip() for p in args.props.split(",") if p.strip()]
    if not props:
        raise ParameterError("no prop given")
    for p in props:
        if p not in PROPS:
            raise ParameterError(f"unknown prop {brief(p)}; choose from {', '.join(PROPS)}")
    # built on first use, then shared by every prop
    fragment = cache(lambda: build_fragment(ring, classes))
    status = 0
    for prop in props:
        report = PROPS[prop][1](ring, classes, args.n, fragment)
        if args.out == "text":
            wt = " ".join(report.witness_texts())
            print(f"{report.check}: {report.verdict}" + (f" [{wt}]" if wt else ""))
        else:
            print(report_to_json(report))
        if report.verdict != expected_verdict(prop, ring):
            status = 1
    return status


def cmd_primes(ring: Ring, args) -> int:
    require_stream_capability(ring)
    start = _seed_classes(ring, args.start or PRIME_START[ring.tag])
    print(primes_to_json(ring, prime_stream(ring, start, args.count)))
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
        return args.func(make_ring(args.ring, args.p), args)
    except DivtopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
