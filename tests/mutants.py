"""Source mutants of the hot kernels, each with the tier-1 files that must
kill it.

Run from anywhere, with pytest, hypothesis and sympy installed:

    python tests/mutants.py

Each mutant is one exact-string replacement in one file of ``src/divtop``.
The script copies what the tests read (``src/``, ``tests/``, ``benches/``,
``README.md`` and ``pyproject.toml``) to a temporary directory and runs
every named test file there once unmutated.  Then it applies each mutant in
turn, runs that mutant's files with ``-x`` and reports it killed when they
fail.  It exits 1 when a mutant survives, and 2 when a mutant's string is
not found exactly once or the unmutated files fail.  pytest does not
collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "benches", "README.md", "pyproject.toml")

# (name, file under src/divtop, old text, new text, test files that kill it)
MUTANTS = [
    (
        "membership accepts another ring's class of an equal rep",
        "topology.py",
        "        return i is not None and self.point(i) == c\n",
        "        return i is not None\n",
        ["tests/test_topology.py"],
    ),
    (
        "the build makes a class per listed rep",
        "topology.py",
        "texts.update({r: text(r) for r in listings[-1][0] if r not in texts})",
        "texts.update({r: ring._class(r).text for r in listings[-1][0]})",
        ["tests/test_topology.py"],
    ),
    (
        "the build prints a rep that an earlier seed listed again",
        "topology.py",
        "texts.update({r: text(r) for r in listings[-1][0] if r not in texts})",
        "texts.update({r: text(r) for r in listings[-1][0]})",
        ["tests/test_topology.py"],
    ),
    (
        "the walk tries the oldest atom first on a UFD",
        "topology.py",
        "    newest_first = ring.is_ufd\n",
        "    newest_first = False\n",
        ["tests/test_topology.py"],
    ),
    (
        "the rows walk the steps forwards",
        "topology.py",
        "        for v, step in reversed(self._steps.items()):\n",
        "        for v, step in self._steps.items():\n",
        ["tests/test_topology.py"],
    ),
    (
        "the columns walk the steps backwards",
        "topology.py",
        "        for v, step in self._steps.items():\n",
        "        for v, step in reversed(self._steps.items()):\n",
        ["tests/test_topology.py"],
    ),
    (
        "isolated() takes every column that holds its own point",
        "topology.py",
        "if col == 1 << j))",
        "if col >> j & 1))",
        ["tests/test_topology.py"],
    ),
    (
        "irreducible() reads only the first listed seed's irreducibles",
        "topology.py",
        "for found in self._atoms for r in found()",
        "for found in self._atoms[:1] for r in found()",
        ["tests/test_checks.py"],
    ),
    (
        "irreducible() adds the bit of an atom that two seeds list twice",
        "topology.py",
        "sum({1 << index[r] for found in self._atoms for r in found()})",
        "sum([1 << index[r] for found in self._atoms for r in found()])",
        ["tests/test_checks.py"],
    ),
    (
        "covering_pairs() keeps the unit's pseudo-covers of the atoms",
        "topology.py",
        " for _, x in step if x < n)",
        " for _, x in step)",
        ["tests/test_formats.py"],
    ),
    (
        "zs5 refuses a listing of exactly the cap",
        "rings.py",
        "        if len(reps) > POINT_CAP:\n",
        "        if len(reps) >= POINT_CAP:\n",
        ["tests/test_rings.py"],
    ),
    (
        "divisor_classes lists a zero or a unit",
        "rings.py",
        "frozenset(map(self._class, self._listing(a)[0]))",
        "frozenset(map(self._class, self._divisor_reps(a)[0]))",
        ["tests/test_rings.py"],
    ),
    (
        "_peel divides each factor out at most once",
        "rings.py",
        "            while (q := self.divide(rest, f)) is not None:\n",
        "            if (q := self.divide(rest, f)) is not None:\n",
        ["tests/test_rings.py"],
    ),
    (
        "fp's p-th-root recursion keeps the root's exponents",
        "rings.py",
        "{g: e * p for g, e in",
        "{g: e for g, e in",
        ["tests/test_rings.py"],
    ),
    (
        "Berlekamp reads null vectors past r factors",
        "rings.py",
        "            if len(factors) == r:\n                break\n",
        "",
        ["tests/test_rings.py"],
    ),
    (
        "_roots skips s = 0",
        "rings.py",
        "        for s in range(p):\n",
        "        for s in range(1, p):\n",
        ["tests/test_rings.py"],
    ),
    (
        "_long_division takes every divisor as monic",
        "rings.py",
        "        inv = 1 if lead == 1 else pow(lead, -1, p)\n",
        "        inv = 1\n",
        ["tests/test_rings.py"],
    ),
    (
        "_terms reads a term with no sign before it",
        "rings.py",
        "        if i and not m[\"sign\"]:\n",
        "        if False:\n",
        ["tests/test_formats.py"],
    ),
    (
        "T0 takes `<=` in its set test",
        "checks.py",
        "    if len(set(cols)) < len(cols):\n",
        "    if len(set(cols)) <= len(cols):\n",
        ["tests/test_checks.py"],
    ),
    (
        "the nested check takes the highest apart bit",
        "checks.py",
        "            j = (apart & -apart).bit_length() - 1\n",
        "            j = apart.bit_length() - 1\n",
        ["tests/test_checks.py"],
    ),
    (
        "is_prime stops trial division at q^2 >= n",
        "intarith.py",
        "        if q * q > n:\n            return n > 1\n",
        "        if q * q >= n:\n            return n > 1\n",
        ["tests/test_intarith.py"],
    ),
    (
        "factor stops trial division at q^2 >= n",
        "intarith.py",
        "        if q * q > n:\n            # n has no prime factor below q",
        "        if q * q >= n:\n            # n has no prime factor below q",
        ["tests/test_intarith.py"],
    ),
]


def pytest_fails(tree: Path, files: list) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=600)
    except subprocess.TimeoutExpired:
        return True  # a mutant that stalls the tests is caught too
    return done.returncode != 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, tree)
        for name, path, old, _, _ in MUTANTS:
            if (tree / "src/divtop" / path).read_text().count(old) != 1:
                print(f"not found exactly once in {path}: {name}")
                return 2
        files = sorted({f for *_, kill in MUTANTS for f in kill})
        if pytest_fails(tree, files):
            print("the unmutated tests fail:", " ".join(files))
            return 2
        survived = 0
        for name, path, old, new, kill in MUTANTS:
            target = tree / "src/divtop" / path
            source = target.read_text()
            target.write_text(source.replace(old, new))
            start = time.perf_counter()
            killed = pytest_fails(tree, kill)
            target.write_text(source)
            survived += not killed
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  {path}: {name}")
        print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
        return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
