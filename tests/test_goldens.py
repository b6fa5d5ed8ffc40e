"""Every job any benchmark seed can draw prints its recorded output, and
every function of the library is called by some real job.

The benchmark's goldens hold the exit code and a stdout digest of every job
of the gated workloads, recorded from the commit that added them.  Running
them all here holds each change to byte-identical JSON, DOT and text output
and to the same verdicts and exit codes.

The same pass, traced once per session, also runs README's CLI examples,
its library quick start and the refusals its Guards section quotes.  A
``def`` in ``src/divtop`` that none of it calls is dead unless it is a
declared hook or listed in ``UNCALLED`` with its reason.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "divtop"
sys.path.insert(0, str(ROOT / "benches"))

import harness  # noqa: E402
import workloads  # noqa: E402
from readme import GUARD_ARGVS, cli_examples, readme_block  # noqa: E402

# every def no traced job calls, with why it stays
UNCALLED = {
    "rings.ClassId.__str__": "refusal path: the message of Fragment.index_of",
    "rings.Ring.__repr__": "debugging dunder",
    "topology.Fragment.__repr__": "debugging dunder",
    "topology.PointSet.__repr__": "debugging dunder",
    "rings.RootMinus5Ring.one": "README surface: element arithmetic on every ring",
    "rings.RootMinus5Ring.add": "README surface: element arithmetic on every ring",
    "rings.PPowerRing.add": "README surface: element arithmetic on every ring",
}


def traced_pass():
    """Run every golden job, README's CLI examples and quick start, and the
    guard argvs under ``sys.setprofile``.  Returns the golden failures, the
    number of golden jobs, and the (file, first line, name) of every code
    object called."""
    cli, formats = harness.import_divtop()
    # as in a fresh process: an earlier test may have built the parser
    cli._parser.cache_clear()
    goldens = harness.load_goldens()
    codes = {}  # by id: hashing a code object hashes its constants

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    def traced(fn, *args):
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            return fn(*args)
        finally:
            sys.setprofile(previous)

    failed = []
    total = 0
    for workload in workloads.GATED:
        # in list order, so that each read-back finds the JSON document it reads
        outputs = {}
        for job in workloads.all_jobs(workload):
            outcome = traced(harness.run_job, job, cli, formats, outputs)
            outputs[job.key] = outcome.stdout
            why = harness.failure(job, outcome, goldens.get(job.key), cli)
            total += 1
            if why:
                failed.append(f"{workload}: {job.key}: {why}")
    argvs = [argv for _, argv in cli_examples()] + list(GUARD_ARGVS.values())
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            traced(cli.main, list(argv))
    quick_start = compile(readme_block("Library quick start", "python"), "README.md", "exec")
    traced(exec, quick_start, {})
    called = {(Path(c.co_filename).resolve(), c.co_firstlineno, c.co_name) for c in codes.values()}
    return failed, total, called


def _is_hook(node) -> bool:
    """A def whose body, past its docstring, is only ``raise NotImplementedError``."""
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return (
        len(body) == 1
        and isinstance(body[0], ast.Raise)
        and isinstance(body[0].exc, ast.Name)
        and body[0].exc.id == "NotImplementedError"
    )


def library_defs(src=SRC):
    """(name, key, hook) of every def in src, where name is module.qualname
    and key is (file, first line, name) as its code object reports them: a
    decorated def starts at its first decorator.  The key is not
    ``co_qualname``, which Python 3.10 lacks."""
    out = []

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = (path, first, child.name)
                out.append((f"{prefix}{child.name}", key, _is_hook(child)))
                walk(child, f"{prefix}{child.name}.", path)

    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text()), f"{path.stem}.", path.resolve())
    return out


def uncalled_defs(called_names, src=SRC) -> set:
    """The defs of src, by name, that are neither called nor a hook."""
    return {name for name, _, hook in library_defs(src) if name not in called_names and not hook}


@pytest.fixture(scope="module")
def golden_pass():
    failed, total, called = traced_pass()
    names = {name for name, key, _ in library_defs() if key in called}
    return failed, total, names


def test_every_golden_job_prints_its_recorded_output(golden_pass):
    failed, total, _ = golden_pass
    assert total >= 1616  # the gated workloads' jobs, read-backs included
    assert not failed, "\n".join(failed)


def test_every_library_def_is_called_by_a_real_job(golden_pass):
    """"Called" is judged per def: a def counts when its own code object ran,
    a nested def and a method included.  Comprehensions are left out, as
    Python 3.12 and later inline them (PEP 709).  A def no job calls stays
    only as a declared hook, whose body is ``raise NotImplementedError``, or
    under ``UNCALLED`` for one of three reasons: README surface, a refusal
    path, or a debugging dunder.  A listed def that some job calls fails
    too, so the list cannot go stale."""
    assert uncalled_defs(golden_pass[2]) == set(UNCALLED)


def test_the_guard_sees_defs_no_job_calls(golden_pass, tmp_path):
    # a method nothing reads and one that only it reads, a function only
    # __init__ exports, and the remainder that only a test oracle called
    inject = {
        "topology.py": ("    def basic_open(", "    def unread_helper(self):\n"
                        "        return self.unread_inner()\n\n"
                        "    def unread_inner(self):\n        return 0\n\n"),
        "rings.py": ("    def sort_key(self, e):\n        return (e.degree,",
                     "    def _rem(self, a, b):\n        self._check(a, b)\n"
                     "        return self.poly(self._long_division(a.coeffs, b.coeffs)[1])\n\n"),
    }
    for path in SRC.glob("*.py"):
        text = path.read_text()
        if path.name in inject:
            marker, extra = inject[path.name]
            assert text.count(marker) == 1
            text = text.replace(marker, extra + marker)
        (tmp_path / path.name).write_text(text)
    with open(tmp_path / "primes.py", "a") as fh:
        fh.write("\n\ndef unread_step(n):\n    return unread_step(n - 1) if n else 0\n")
    with open(tmp_path / "__init__.py", "a") as fh:
        fh.write("\nfrom .primes import unread_step\n")
    names = golden_pass[2]
    assert uncalled_defs(names, tmp_path) - uncalled_defs(names) == {
        "topology.Fragment.unread_helper", "topology.Fragment.unread_inner",
        "primes.unread_step", "rings.PolynomialRing._rem",
    }
