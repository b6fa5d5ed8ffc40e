"""Run-time tracing of divtop's modules from outside the package.

``Tracer.install`` wraps the public functions of ``topology``, ``checks``,
``formats`` and ``primes``, plus ``cli.main``, in span recorders, and the ring
primitives (``divides``, ``factor``, ``is_irreducible``, ``divisor_classes``,
``parse``) in aggregate counters: those run up to n^2 times per fragment, so
they count calls, seconds and (for ``divides``) true results instead of
recording one span per call.  Every module namespace that binds a wrapped
function is patched, so ``checks.build_fragment`` and ``cli.fragment_to_json``
are traced as well as ``topology.build_fragment`` and
``formats.fragment_to_json``.

Spans live in memory as ``[name, start, end, parent, job, agg_s]`` and are
written out once the run ends.  A span's self time is its duration minus the
part of it its child spans cover and minus the aggregate primitives called
directly under it.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, JOB, AGG = range(6)
RING_PRIMITIVES = ("divides", "factor", "is_irreducible", "divisor_classes", "parse")
SPAN_MODULES = ("topology", "checks", "formats", "primes")
HEADLINE_CHECKS = ("check_t0", "check_nested", "isolated_points")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: dict = defaultdict(float)
        self.current_job = None
        self._agg_depth = 0
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1,
               self.current_job, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def job(self, job_id):
        self.current_job = job_id
        rec = self._open("job")
        try:
            yield
        finally:
            self._close(rec)
            self.current_job = None

    def span(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                observe(self.counters, result)
            return result

        return traced

    def aggregate(self, name: str, fn, count_hits: bool = False):
        counters, spans, stack = self.counters, self.spans, self.stack
        calls, secs, hits = f"{name}.calls", f"{name}.s", f"{name}.hits"

        def traced(*args, **kwargs):
            self._agg_depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                self._agg_depth -= 1
                counters[calls] += 1
                counters[secs] += dt
                if stack and not self._agg_depth:
                    spans[stack[-1]][AGG] += dt
            if count_hits and result:
                counters[hits] += 1
            return result

        return traced

    def counting_generator(self, name: str, fn):
        counters = self.counters

        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[name] += 1
                yield item

        return traced

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every divtop module attribute that is ``original``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "divtop" and not modname.startswith("divtop."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _replace_method(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        import divtop.cli as cli
        from divtop import rings, topology

        for cls in [rings.Ring] + _subclasses(rings.Ring):
            for attr in RING_PRIMITIVES:
                if attr in cls.__dict__:
                    fn = cls.__dict__[attr]
                    self._replace_method(cls, attr, self.aggregate(
                        f"rings.{attr}", fn, count_hits=attr == "divides"))
        for short in SPAN_MODULES:
            mod = sys.modules[f"divtop.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._replace_everywhere(fn, self.span(
                        f"{short}.{attr}", fn, _OBSERVERS.get(f"{short}.{attr}")))
        frag = topology.Fragment
        self._replace_method(frag, "covering_pairs", self.span(
            "topology.covering_pairs", frag.covering_pairs, _count("topology.edges")))
        self._replace_method(frag, "enumerate_opens", self.counting_generator(
            "topology.enumerate_opens.yielded", frag.enumerate_opens))
        self._replace_everywhere(cli.main, self.span("cli.main", cli.main))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            json.dump({"counters": dict(self.counters),
                       "spans": [rec + [s] for rec, s in zip(self.spans, selfs)]}, fh)


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


def _count(name: str):
    def observe(counters, result):
        counters[name] += len(result)

    return observe


def _observe_fragment(counters, fragment):
    n = len(fragment)
    counters["topology.points"] += n
    counters["topology.points_max"] = max(counters["topology.points_max"], n)


_OBSERVERS = {
    "topology.build_fragment": _observe_fragment,
    "formats.report_to_json": _count("formats.bytes_out"),
    "formats.fragment_to_json": _count("formats.bytes_out"),
    "formats.fragment_to_dot": _count("formats.bytes_out"),
    "formats.primes_to_json": _count("formats.bytes_out"),
}


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "sympy_s"):
        return "s"
    return "ratio" if last in ("hit_ratio", "overhead", "job_coverage") else "count"


def self_times(spans) -> list:
    """Each span's duration minus its children's covered interval and the
    aggregate primitive time charged to it."""
    children: dict = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for index, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered, reach = 0.0, start
        for s, e in sorted(children.get(index, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered - rec[AGG])
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer figures from the spans and counters of ``passes`` traced
    passes."""
    selfs = self_times(tracer.spans)
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    job_s = job_self_s = 0.0
    for rec, s in zip(tracer.spans, selfs):
        name = rec[NAME]
        if name == "job":
            job_s += rec[END] - rec[START]
            job_self_s += s
            continue
        if name.startswith("checks.") and name[7:] not in HEADLINE_CHECKS:
            name = "checks.other"
        self_s[name] += s
        calls[name] += 1
    c = tracer.counters
    per = 1.0 / passes
    m = {}
    for prim in ("divides", "factor", "is_irreducible", "divisor_classes"):
        m[f"rings.{prim}.calls"] = c[f"rings.{prim}.calls"] * per
        m[f"rings.{prim}.s"] = c[f"rings.{prim}.s"] * per
    m["rings.divides.hit_ratio"] = c["rings.divides.hits"] / max(c["rings.divides.calls"], 1)
    m["rings.parse.s"] = c["rings.parse.s"] * per
    m["topology.build_fragment.calls"] = calls["topology.build_fragment"] * per
    m["topology.build_fragment.self_s"] = self_s["topology.build_fragment"] * per
    m["topology.points"] = c["topology.points"] * per
    m["topology.points_max"] = c["topology.points_max"]
    m["topology.covering_pairs.self_s"] = self_s["topology.covering_pairs"] * per
    m["topology.edges"] = c["topology.edges"] * per
    m["topology.enumerate_opens.yielded"] = c["topology.enumerate_opens.yielded"] * per
    for name in HEADLINE_CHECKS + ("other",):
        m[f"checks.{name}.calls"] = calls[f"checks.{name}"] * per
        m[f"checks.{name}.self_s"] = self_s[f"checks.{name}"] * per
    for name in ("report_to_json", "fragment_to_json", "fragment_to_dot", "fragment_from_json"):
        m[f"formats.{name}.self_s"] = self_s[f"formats.{name}"] * per
    m["formats.bytes_out"] = c["formats.bytes_out"] * per
    m["primes.euclid_step.calls"] = calls["primes.euclid_step"] * per
    m["primes.euclid_step.self_s"] = self_s["primes.euclid_step"] * per
    m["cli.main.self_s"] = self_s["cli.main"] * per
    # share of each job's wall time that the program's own spans cover
    m["trace.job_coverage"] = 1.0 - job_self_s / job_s
    return m
