"""Fragment, report and prime-list JSON (with the fragment read-back), and DOT export.

JSON documents carry the schema tag "divtop/1", fixed key order, and points
in fragment order, so identical inputs always serialize to identical bytes.
The DOT export draws the covering relation (transitive reduction) with nodes
ranked by divisor count.
"""

from __future__ import annotations

import json

from .checks import CheckReport
from .errors import DivtopError, brief
from .rings import Ring, make_ring
from .topology import Fragment, build_fragment

SCHEMA = "divtop/1"


def ring_descriptor(ring: Ring) -> dict:
    d = {"tag": ring.tag}
    if ring.p is not None:
        d["p"] = ring.p
    return d


def ring_from_descriptor(d: dict) -> Ring:
    if not isinstance(d, dict):
        raise DivtopError("a ring descriptor is an object")
    return make_ring(d.get("tag"), d.get("p"))


def _dumps(doc) -> str:
    # every document is a fresh tree, so there is no cycle to look for
    return json.dumps(doc, separators=(",", ":"), check_circular=False)


def _edges(fragment: Fragment, texts: list) -> list:
    return [[texts[i], texts[j]] for i, j in fragment.covering_pairs()]


def fragment_to_json(fragment: Fragment) -> str:
    texts = [p.text for p in fragment.points]
    doc = {
        "schema": SCHEMA,
        "ring": ring_descriptor(fragment.ring),
        "seeds": [s.text for s in fragment.seeds],
        "points": texts,
        "edges": _edges(fragment, texts),
    }
    return _dumps(doc)


def _texts(doc: dict, key: str) -> list:
    texts = doc.get(key)
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise DivtopError(f"a fragment document's {key} are a list of strings")
    return texts


def fragment_from_json(text: str) -> Fragment:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise DivtopError(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise DivtopError("a fragment document is a JSON object")
    schema = doc.get("schema")
    if schema != SCHEMA:
        raise DivtopError(f"unsupported schema {brief(schema)}")
    ring = ring_from_descriptor(doc.get("ring"))
    seed_texts, point_texts = _texts(doc, "seeds"), _texts(doc, "points")
    seeds = tuple(ring.canonical_class(ring.parse(t)) for t in seed_texts)
    fragment = build_fragment(ring, seeds)
    points = [p.text for p in fragment.points]
    if points != point_texts:
        raise DivtopError("point list does not match the fragment its seeds build")
    if doc.get("edges") != _edges(fragment, points):
        raise DivtopError("edge list does not match the covering pairs of the fragment")
    return fragment


def fragment_to_dot(fragment: Fragment) -> str:
    texts = [p.text for p in fragment.points]
    lines = ["digraph fragment {", "  rankdir=BT;"]
    for t in texts:
        lines.append(f'  "{t}";')
    by_rank: dict = {}
    for t, col in zip(texts, fragment.cols):
        by_rank.setdefault(col.bit_count(), []).append(t)
    for rank in sorted(by_rank):
        row = " ".join(f'"{t}";' for t in by_rank[rank])
        lines.append(f"  {{ rank=same; {row} }}")
    for i, j in fragment.covering_pairs():
        lines.append(f'  "{texts[i]}" -> "{texts[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def report_to_json(report: CheckReport) -> str:
    doc = {
        "check": report.check,
        "verdict": report.verdict,
        "witnesses": [w.text for w in report.witnesses],
        "details": dict(report.details),
    }
    return _dumps(doc)


def primes_to_json(ring: Ring, members) -> str:
    doc = {
        "schema": SCHEMA,
        "ring": ring_descriptor(ring),
        "members": [c.text for c in members],
    }
    return _dumps(doc)
