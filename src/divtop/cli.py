"""Command-line front end: fragments, theorem checks, and the prime stream.

It parses arguments and prints reports only; the props ``check`` runs, and
the verdict each is expected to give, come from the table ``checks.PROPS``.

Exit codes: 0 on success (for ``check``: every verdict matches the expected
outcome for the chosen ring), 1 when a check verdict differs from the
expected one (a bug signal), 2 on usage, parse, or guard errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import List, Optional

from .checks import PROPS, expected_verdict
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


def cmd_fragment(ring: Ring, args) -> int:
    fragment = build_fragment(ring, _seed_classes(ring, args.seeds))
    if args.out == "dot":
        sys.stdout.write(fragment_to_dot(fragment))
    elif args.out == "text":
        texts = fragment.texts
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
