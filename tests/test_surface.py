"""The public surface of the library is read by the library or documented
in README.

A public method or property of one of the guarded classes (the ring
adapters, the fragment and the point set) is live when the library reads
its name outside the guarded definitions, when README names it in code, or
when the body of a live guarded definition reads it.  Names are matched
without their class, as the library reads them through a ring, a fragment
or a point set of any kind.  Dunder methods are protocol hooks reached
through operators and builtins, so they are not guarded.

A public module-level function is live when a module other than
``__init__`` reads its name outside its own definition, or when README
names it in code; re-exporting a name reads nothing.  Every exception type
is named in README code, where the library section says which refusal
raises it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "divtop"
GUARDED = {
    "rings.py": {
        "Ring", "IntegerRing", "GaussianRing", "PolynomialRing", "RootMinus5Ring", "PPowerRing",
    },
    "topology.py": {"Fragment", "PointSet"},
}


def _name(node):
    """The name a Name or Attribute node reads, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _read_names(node) -> set:
    return {_name(n) for n in ast.walk(node)} - {None}


def _surface(src):
    """(guarded, bodies, outside): the (class, name) of every guarded
    public definition, the names each guarded name's bodies read, and the
    names read anywhere else in the library."""
    guarded, bodies, outside = [], {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = set()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in GUARDED.get(path.name, ()):
                for d in cls.body:
                    if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                        guarded.append((cls.name, d.name))
                        bodies.setdefault(d.name, set()).update(_read_names(d))
                        skip.add(d)
        stack = [tree]
        while stack:
            node = stack.pop()
            outside.add(_name(node))
            stack.extend(c for c in ast.iter_child_nodes(node) if c not in skip)
    return guarded, bodies, outside


def _readme_names() -> set:
    readme = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.DOTALL)
    return {w for span in code for w in re.findall(r"\w+", span)}


def dead_surface(readme_names, src=SRC) -> list:
    guarded, bodies, outside = _surface(src)
    live = outside | readme_names
    frontier = live & set(bodies)
    while frontier:
        reached = set().union(*(bodies.pop(name) for name in frontier))
        frontier = (reached - live) & set(bodies)
        live |= reached
    return [f"{cls}.{name}" for cls, name in guarded if name not in live]


def test_every_public_method_is_read_or_documented():
    assert dead_surface(_readme_names()) == []


def test_the_guard_sees_a_method_nothing_reads(tmp_path):
    # a method added to Fragment that no code reads and README does not name
    # is reported, and so is a method that only it reads
    topology = (SRC / "topology.py").read_text()
    extra = (
        "    def unread_helper(self):\n        return self.unread_inner()\n\n"
        "    def unread_inner(self):\n        return 0\n\n"
    )
    marker = "    def basic_open("
    assert topology.count(marker) == 1
    for path in SRC.glob("*.py"):
        text = path.read_text()
        if path.name == "topology.py":
            text = text.replace(marker, extra + marker)
        (tmp_path / path.name).write_text(text)
    added = set(dead_surface(_readme_names(), tmp_path)) - set(dead_surface(_readme_names()))
    assert added == {"Fragment.unread_helper", "Fragment.unread_inner"}


def dead_functions(readme_names, src=SRC) -> list:
    """Public module-level functions no other code reads and README does not
    name, as module.name."""
    defined, reads, own_reads = [], Counter(), Counter()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        reads.update(_name(n) for n in ast.walk(tree))
        for d in tree.body:
            if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                defined.append(f"{path.stem}.{d.name}")
                own_reads[d.name] += sum(_name(n) == d.name for n in ast.walk(d))
    return [f for f in defined
            if (name := f.split(".")[1]) not in readme_names and reads[name] == own_reads[name]]


def test_every_public_function_is_read_or_documented():
    assert dead_functions(_readme_names()) == []


def test_the_guard_sees_a_function_nothing_reads(tmp_path):
    # a function only __init__ exports, or only its own body reads, is dead
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "primes.py", "a") as fh:
        fh.write("\n\ndef unread_step(n):\n    return unread_step(n - 1) if n else 0\n")
    with open(tmp_path / "__init__.py", "a") as fh:
        fh.write("\nfrom .primes import unread_step\n")
    added = set(dead_functions(_readme_names(), tmp_path)) - set(dead_functions(_readme_names()))
    assert added == {"primes.unread_step"}


def test_every_exception_type_is_named_in_readme():
    tree = ast.parse((SRC / "errors.py").read_text())
    types = [c.name for c in tree.body if isinstance(c, ast.ClassDef)]
    assert "DivtopError" in types
    assert [t for t in types if t not in _readme_names()] == []
