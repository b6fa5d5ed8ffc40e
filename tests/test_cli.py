"""CLI behavior: outputs, exit codes, determinism."""

import ast
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divtop
from divtop import checks, cli, primes, rings, topology
from divtop.cli import main
from divtop.formats import report_to_json
from divtop.intarith import RHO_BUDGET
from divtop.rings import Root5
from divtop.topology import build_fragment

from oracles import basis_intersection_oracle, intersection_pair_oracle, units
from readme import GUARD_ARGVS, cli_examples, readme_block
from strategies import ELEMENTS, RING_SEEDS, S5


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fragment_dot(capsys):
    code, out, err = run(capsys, "fragment", "--ring", "z", "--seeds", "12", "--out", "dot")
    assert code == 0 and err == ""
    assert out.count("->") == 5
    assert out.startswith("digraph fragment {")


def test_fragment_json_valp(capsys):
    code, out, _ = run(
        capsys, "fragment", "--ring", "valp", "--p", "2", "--seeds", "p^4", "--out", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == ["p", "p^2", "p^3", "p^4"]
    assert len(doc["edges"]) == 3


def test_fragment_text(capsys):
    code, out, _ = run(capsys, "fragment", "--ring", "z", "--seeds", "4", "--out", "text")
    assert code == 0
    assert "points: 2 4" in out


def test_fragment_zero_seed_exits_2(capsys):
    code, out, err = run(capsys, "fragment", "--ring", "z", "--seeds", "0")
    assert code == 2
    assert "error:" in err


def test_fragment_bad_syntax_exits_2(capsys):
    code, _, err = run(capsys, "fragment", "--ring", "gauss", "--seeds", "3+2j")
    assert code == 2 and "error:" in err


def test_modulus_required(capsys):
    code, _, err = run(capsys, "fragment", "--ring", "fp", "--seeds", "x")
    assert code == 2 and "ring fp needs a prime p" in err
    code, _, err = run(capsys, "fragment", "--ring", "z", "--p", "3", "--seeds", "4")
    assert code == 2 and "does not apply" in err


def test_check_expected_holds(capsys):
    code, out, _ = run(
        capsys, "check", "--ring", "z", "--seeds", "12,18",
        "--props", "t0,isolated,gcd-intersection",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    docs = [json.loads(l) for l in lines]
    assert [d["check"] for d in docs] == ["t0", "isolated", "gcd-intersection"]
    assert all(d["verdict"] == "holds" for d in docs)


def test_check_nested_valp(capsys):
    code, out, _ = run(
        capsys, "check", "--ring", "valp", "--p", "2", "--seeds", "p^20", "--props", "nested"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "holds"


def test_check_nested_fp_fails_as_expected(capsys):
    code, out, _ = run(
        capsys, "check", "--ring", "fp", "--p", "2", "--seeds", "x^2+x", "--props", "nested"
    )
    assert code == 0  # "fails" is the expected verdict for a non-valuation ring
    doc = json.loads(out)
    assert doc["verdict"] == "fails"
    assert doc["witnesses"] == ["x", "x+1"]


def test_check_zs5_gcd_intersection_single_seed(capsys):
    code, out, _ = run(
        capsys, "check", "--ring", "zs5", "--seeds", "6", "--props", "gcd-intersection"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "witness-produced"
    assert doc["details"]["basic"] is False


def test_check_unexpected_verdict_exits_1(capsys):
    # a single chain in z is nested even though z is not a valuation ring
    code, out, _ = run(capsys, "check", "--ring", "z", "--seeds", "4", "--props", "nested")
    assert code == 1
    assert json.loads(out)["verdict"] == "holds"


def test_check_witness_props(capsys):
    code, out, _ = run(
        capsys, "check", "--ring", "z", "--seeds", "2,3,5",
        "--props", "t1,ultra,sep-nbhd,regular,compact,chain,maximal", "--n", "6",
    )
    assert code == 0
    docs = [json.loads(l) for l in out.strip().splitlines()]
    assert all(d["verdict"] == "witness-produced" for d in docs)
    chain = next(d for d in docs if d["check"] == "chain")
    assert chain["details"]["sizes"] == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize(
    "ring_args",
    [
        ("--ring", "z", "--seeds", "30"),
        ("--ring", "gauss", "--seeds", "3+9i"),
        ("--ring", "fp", "--p", "3", "--seeds", "x^3+2x", "--n", "4"),
        ("--ring", "zs5", "--seeds", "6"),
        ("--ring", "valp", "--p", "2", "--seeds", "p^3"),
    ],
    ids=rings.RING_TAGS,
)
def test_every_prop_in_one_call_reports_in_table_order(capsys, ring_args):
    # valp has a single irreducible, too few for sep-nbhd
    props = [p for p in checks.PROPS if not (ring_args[1] == "valp" and p == "sep-nbhd")]
    code, out, err = run(capsys, "check", *ring_args, "--props", ",".join(props))
    assert code == 0 and err == ""
    assert [json.loads(line)["check"] for line in out.splitlines()] == props


@pytest.mark.parametrize(
    "ring_args",
    [
        ("--ring", "z", "--seeds", "30,7"),
        ("--ring", "gauss", "--seeds", "3+9i"),
        ("--ring", "fp", "--p", "3", "--seeds", "x^3+2x", "--n", "4"),
        ("--ring", "zs5", "--seeds", "6"),
        ("--ring", "valp", "--p", "2", "--seeds", "p^3"),
    ],
    ids=rings.RING_TAGS,
)
def test_no_prop_reads_the_covering_pairs(capsys, monkeypatch, ring_args):
    # only export draws the Hasse diagram, so a check never sorts the pairs
    want = [run(capsys, "check", *ring_args, "--props", p) for p in checks.PROPS]

    def refuse(self):
        raise AssertionError("a check read the covering pairs")

    monkeypatch.setattr(topology.Fragment, "covering_pairs", refuse)
    assert [run(capsys, "check", *ring_args, "--props", p) for p in checks.PROPS] == want
    # every run checks something: only valp's sep-nbhd is refused, as valp
    # has one irreducible
    assert [code for code, _, _ in want] == [2 * (p == "sep-nbhd" and "valp" in ring_args)
                                             for p in checks.PROPS]


def test_readme_lists_the_props_and_rings_in_table_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    props = re.search(r"Available props for `check`:\s*`([^`]*)`", readme).group(1)
    assert [p.strip() for p in props.split(",")] == list(checks.PROPS)
    assert re.findall(r"^\| `(\w+)`", readme, re.MULTILINE) == list(rings.RING_TAGS)
    # the gcd, valuation, UFD and units columns state each class's attributes
    yes = {True: "yes", False: "no"}
    for line in re.findall(r"^\| `\w+`.*", readme, re.MULTILINE):
        tag, *_, gcd, valuation, ufd, units_text = (c.strip(" `") for c in line.split("|")[1:-1])
        cls = rings.RINGS[tag]
        assert [gcd, valuation, ufd] == [yes[cls.has_gcd], yes[cls.is_valuation], yes[cls.is_ufd]]
        assert (units_text == "infinite") == (not cls.finite_units)
        if tag == "fp":
            assert units_text == "p−1"
            assert all(len(units(rings.make_ring(tag, p))) == p - 1 for p in (2, 3, 17))
        elif cls.finite_units:
            assert units_text == str(len(units(rings.make_ring(tag))))


def _guards_section():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return " ".join(readme.split("\n## Guards\n")[1].split("\n## ")[0].split())


def test_readme_guards_state_the_constants():
    def number(text):  # 4096, 10^12 or 2^20
        base, _, exp = text.partition("^")
        return int(base) ** int(exp or 1)

    fp, valp = rings.PolynomialRing, rings.PPowerRing
    claims = {
        r"Fragments are capped at (\S+) points": topology.POINT_CAP,
        r"open-set enumeration at (\S+) points": topology.ENUM_CAP,
        r"\(the dense-open check at (\S+)\)": checks.DENSE_OPEN_CAP,
        r"refuses integers beyond (\S+),": rings.IntegerRing.ENUM_MAX,
        r"`fp` polynomials beyond degree (\S+),": fp.DEG_MAX,
        r"`zs5` norms beyond (\S+);": rings.RootMinus5Ring.NORM_MAX,
        r"caps its exponent search at (\S+)\.": primes.M_CAP,
        r"takes at most (\S+) Brent-rho steps": RHO_BUDGET,
        r"would pass the (\S+)-point cap": topology.POINT_CAP,
        r"`fp` takes a prime ≤ (\S+) ": fp.P_MAX,
        r"`valp` a prime ≤ (\S+) ": valp.P_MAX,
        r"An `fp` text past degree (\S+) ": fp.DEG_MAX,
        r"a `valp` exponent past (\S+),": valp.K_MAX,
        r"takes `--n` ≤ (\S+),": topology.POINT_CAP,
        r"each held to the same (\S+)-point cap": topology.POINT_CAP,
    }
    guards = _guards_section()
    for pattern, value in claims.items():
        assert number(re.search(pattern, guards).group(1)) == value, pattern


@pytest.mark.parametrize("argv", list(GUARD_ARGVS.values()), ids=list(GUARD_ARGVS))
def test_readme_guards_quote_the_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"(`{err.strip()}`" in _guards_section()


def test_readme_cli_examples_exit_0(capsys):
    examples = cli_examples()
    assert len(examples) == 7
    for line, argv in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out, line


def test_readme_quick_start_runs_and_matches_its_comments():
    # a comment holds the value of the expression on its line, or on the
    # line above when it stands alone
    namespace, value, checked = {}, None, 0
    for line in readme_block("Library quick start", "python").splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            try:
                value = eval(compile(code, "README.md", "eval"), namespace)
            except SyntaxError:
                exec(code, namespace)
        if comment.strip():
            assert value == ast.literal_eval(comment.strip()), line
            checked += 1
    assert checked == 5


def test_check_sep_nbhd_needs_three_irreducibles(capsys):
    code, _, err = run(
        capsys, "check", "--ring", "valp", "--p", "2", "--seeds", "p^9", "--props", "sep-nbhd"
    )
    assert code == 2 and "sep-nbhd" in err


def test_check_unknown_prop(capsys):
    code, _, err = run(capsys, "check", "--ring", "z", "--seeds", "6", "--props", "frobnicate")
    assert code == 2 and "unknown prop" in err


@pytest.mark.parametrize("props", ["", ",,", " , "])
def test_check_empty_prop_list_exits_2(capsys, props):
    code, out, err = run(capsys, "check", "--ring", "z", "--seeds", "6", "--props", props)
    assert code == 2 and out == ""
    assert err == "error: no prop given\n"


def test_check_text_mode(capsys):
    code, out, _ = run(
        capsys, "check", "--ring", "z", "--seeds", "6", "--props", "nested", "--out", "text"
    )
    assert code == 0
    assert out.strip() == "nested: fails [2 3]"


def test_primes_z(capsys):
    code, out, _ = run(capsys, "primes", "--ring", "z", "--start", "2,3", "--count", "3")
    assert code == 0
    assert json.loads(out)["members"] == ["2", "3", "5", "17", "257"]


def test_primes_default_start(capsys):
    code, out, _ = run(capsys, "primes", "--ring", "z", "--count", "2")
    assert code == 0
    # from {2}: first 2^1 + 1 = 3, then 2 + 3 = 5
    assert json.loads(out)["members"] == ["2", "3", "5"]


def test_primes_fp(capsys):
    code, out, _ = run(capsys, "primes", "--ring", "fp", "--p", "2", "--start", "x", "--count", "2")
    assert code == 0
    assert json.loads(out)["members"] == ["x", "x+1", "x^2+x+1"]


def test_primes_gauss_permitted(capsys):
    code, out, _ = run(capsys, "primes", "--ring", "gauss", "--count", "1")
    assert code == 0
    assert json.loads(out)["members"] == ["1+1i", "2+1i"]


def test_z_stream_from_2_has_15_members_and_refuses_the_16th(capsys):
    code, out, _ = run(capsys, "primes", "--ring", "z", "--start", "2", "--count", "14")
    assert code == 0
    members = json.loads(out)["members"]
    assert members[-2:] == ["90679", "67"] and len(members) == 15
    # the next candidate has 37 digits, two of its prime factors near 10^17
    code, out, err = run(
        capsys, "primes", "--ring", "z", "--start", ",".join(members), "--count", "1"
    )
    assert code == 2 and out == ""
    budget = f"rho budget of {RHO_BUDGET} steps"
    assert err == f"error: factoring a 35-digit integer exceeds the {budget}\n"


def test_primes_valp_exits_2(capsys):
    code, _, err = run(capsys, "primes", "--ring", "valp", "--p", "2", "--count", "1")
    assert code == 2 and "prime stream" in err


def test_primes_zs5_exits_2(capsys):
    code, _, err = run(capsys, "primes", "--ring", "zs5", "--count", "1")
    assert code == 2


def test_primes_bad_count(capsys):
    code, _, err = run(capsys, "primes", "--ring", "z", "--count", "0")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fragment", "--ring", "fp", "--p", "4", "--seeds", "x"),
        ("fragment", "--ring", "fp", "--p", "19", "--seeds", "x"),
        ("fragment", "--ring", "valp", "--p", "4", "--seeds", "p"),
        ("check", "--ring", "z", "--seeds", "2", "--props", "chain", "--n", "1"),
    ],
)
def test_parameter_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "ring, seed",
    [
        ("z", "7" * 5000),
        ("gauss", "1+" + "7" * 5000 + "i"),
        ("valp", "p^" + "7" * 5000),
    ],
)
def test_huge_integer_literal_exits_2(capsys, ring, seed):
    # Python refuses to convert integer texts past its digit limit
    p = ["--p", "2"] if ring == "valp" else []
    code, out, err = run(capsys, "fragment", "--ring", ring, *p, "--seeds", seed)
    assert code == 2 and out == ""
    assert err == "error: integer literal of 5000 digits is too long to convert\n"


@pytest.mark.parametrize(
    "ring, message",
    [
        ("fp", "ring fp needs a prime p <= 17"),
        ("valp", "ring valp needs a prime p <= 10^120"),
    ],
    ids=["fp", "valp"],
)
def test_huge_p_is_refused_before_a_primality_test(capsys, monkeypatch, ring, message):
    # one Miller-Rabin round on a 4000-digit p takes seconds
    tested = []
    monkeypatch.setattr(rings, "is_prime", lambda n: tested.append(n) or True)
    p = str(10**4000 + 1)
    code, out, err = run(capsys, "check", "--ring", ring, "--p", p, "--seeds", "1", "--props", "t0")
    assert code == 2 and out == ""
    assert err == f"error: {message}, got an integer of 13288 bits\n"
    assert tested == []


def test_valp_exponent_guard_at_parse(capsys):
    code, _, err = run(capsys, "fragment", "--ring", "valp", "--p", "2", "--seeds", "p^4097")
    assert code == 2
    assert err == "error: exponent 4097 exceeds the valp bound 4096\n"


def test_empty_seed_exits_2(capsys):
    code, out, err = run(capsys, "fragment", "--ring", "z", "--seeds", "6,,")
    assert code == 2 and out == ""
    assert err == "error: empty seed in --seeds\n"


SEVENS = "7" * 3000


@pytest.mark.parametrize(
    "argv",
    [
        ("--ring", "z", "--seeds", f"{SEVENS},{SEVENS}", "--props", "ultra"),
        ("--ring", "z", "--seeds", SEVENS, "--props", "t1"),
        ("--ring", "gauss", "--seeds", SEVENS + "i", "--props", "regular"),
    ],
)
def test_representative_too_long_to_print_exits_2(capsys, argv):
    # a power or product past Python's 4300-digit int-to-text limit
    code, out, err = run(capsys, "check", *argv)
    assert code == 2 and out == ""
    assert err == f"error: a {argv[1]} representative is too long to print\n"


@pytest.mark.parametrize(
    "ring, seed, shown, bound",
    [
        # a 3000-digit part is named by its size only
        ("gauss", SEVENS + "i", "an element with a 9966-bit part", 10**18),
        ("zs5", SEVENS + "s", "an element with a 9966-bit part", 10**8),
    ],
    ids=["gauss", "zs5"],
)
def test_norm_guard_names_the_element(capsys, ring, seed, shown, bound):
    # the 6000-digit norm itself is past Python's int-to-text limit
    code, out, err = run(capsys, "fragment", "--ring", ring, "--seeds", seed)
    assert code == 2 and out == ""
    assert err == f"error: the norm of {shown} exceeds the {ring} bound {bound}\n"


def test_fp_degree_guard_at_parse(capsys):
    code, _, err = run(capsys, "fragment", "--ring", "fp", "--p", "2", "--seeds", "x^2000000")
    assert code == 2
    assert err == "error: degree 2000000 exceeds the fp bound 12\n"


def test_fp_degree_12_isolated_check_finishes():
    # trial division over every monic took about 5 minutes on this input; a
    # fresh process with a timeout fails the test instead of hanging the suite
    env = {**os.environ, "PYTHONPATH": str(Path(divtop.__file__).parents[1])}
    argv = ["check", "--ring", "fp", "--p", "17", "--seeds", "x^12+x+2", "--props", "isolated"]
    code = "import sys; from divtop.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "holds"


def test_fp_isolated_check_builds_q_once(capsys, monkeypatch):
    # the listing factors the seed, which builds Q - I, and the check reads
    # the seed's one factor from that listing instead of testing the point
    # again (a degree-7 irreducible over F_13, as in the benchmark's
    # small_mixed fp jobs)
    seed = "x^7+x^6+8x^5+12x^4+8x^3+5x^2+2x+6"
    calls = []
    q_echelon = rings.PolynomialRing._q_echelon
    monkeypatch.setattr(
        rings.PolynomialRing, "_q_echelon", lambda self, f: calls.append(f) or q_echelon(self, f)
    )
    argv = ("check", "--ring", "fp", "--p", "13", "--seeds", seed, "--props", "isolated")
    assert run(capsys, *argv, "--out", "text") == (0, f"isolated: holds [{seed}]\n", "")
    assert len(calls) == 1


# Runs the CLI in a fresh interpreter and reports on stderr whether sympy
# was imported.
SYMPY_PROBE = (
    "import sys; from divtop.cli import main; code = main(sys.argv[1:]); "
    "print('sympy' in sys.modules, file=sys.stderr); sys.exit(code)"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("--ring", "z", "--seeds", "60,7", "--props", "t0,isolated,density,gcd-intersection"),
        ("--ring", "gauss", "--seeds", "5,1+1i", "--props", "t0,isolated,density"),
        ("--ring", "zs5", "--seeds", "6", "--props", "isolated,gcd-intersection,density"),
        ("--ring", "valp", "--p", "3", "--seeds", "p^4", "--props", "t0,isolated,nested"),
        ("--ring", "fp", "--p", "5", "--seeds", "x^2+x", "--props", "isolated"),
    ],
    ids=["z", "gauss", "zs5", "valp", "fp"],
)
def test_no_ring_imports_sympy(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(divtop.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", SYMPY_PROBE, "check", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False\n"


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "divtop" if node.level else node.module


def test_package_imports_only_the_standard_library():
    # every import, at module level or inside a function, names divtop or a
    # standard-library module, so the package runs without third-party code
    src = Path(divtop.__file__).parent
    found = {
        (path.name, name)
        for path in src.glob("*.py")
        for name in _imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"divtop"}
    }
    assert found == set()


def test_package_imports_no_dataclasses():
    # the value types are NamedTuples: dataclasses cost more per construction
    # and to import
    src = Path(divtop.__file__).parent
    found = {
        (path.name, name)
        for path in src.glob("*.py")
        for name in _imported_modules(path)
        if name.split(".")[0] == "dataclasses"
    }
    assert found == set()


def test_chain_length_is_refused_before_the_powers_are_built():
    # the guard raises before the loop: ten million powers of p would take
    # minutes and gigabytes to build
    env = {**os.environ, "PYTHONPATH": str(Path(divtop.__file__).parents[1])}
    argv = ["check", "--ring", "valp", "--p", "2", "--seeds", "p", "--props", "chain",
            "--n", "10000000"]
    code = "import sys; from divtop.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=5
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: chain length must be <= 4096\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--ring", "zs5", "--seeds", "6,2+2s,9", "--props", ",".join(checks.PROPS)),
        ("check", "--ring", "z", "--seeds", "12,18,35", "--props", ",".join(checks.PROPS)),
        ("fragment", "--ring", "gauss", "--seeds", "60,7+1i", "--out", "dot"),
        ("check", "--ring", "fp", "--p", "3", "--seeds", "x^4+x,x^3+2",
         "--props", "t0,isolated,nested,gcd-intersection,sep-nbhd,maximal"),
        ("primes", "--ring", "gauss", "--count", "4"),
    ],
    ids=["zs5", "z", "gauss-dot", "fp", "primes"],
)
def test_output_does_not_follow_the_hash_seed(argv):
    # the build walks frozensets of classes, whose order follows the hash
    # seed, so each run is a fresh interpreter under a different seed
    code = "import sys; from divtop.cli import main; sys.exit(main(sys.argv[1:]))"
    runs = []
    for hash_seed in ("0", "1"):
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(divtop.__file__).parents[1]),
            "PYTHONHASHSEED": hash_seed,
        }
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=30
        )
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1], runs[0][2]


@pytest.mark.parametrize(
    "ring, seeds, props, builds",
    [
        pytest.param("z", "12", props, builds, id=f"{props}-{builds}")
        for props, builds in [("t0,isolated,nested,dense-open,maximal", 1), ("t1,density,chain", 0)]
    ]
    + [
        # the zs5 partner search reads the same fragment
        pytest.param("zs5", "6", "t0,gcd-intersection", 1, id="zs5-t0,gcd-intersection-1"),
        pytest.param("zs5", "6,2+2s", "gcd-intersection,t0", 1, id="zs5-gcd-intersection,t0-1"),
    ],
)
def test_check_builds_the_seed_fragment_once(capsys, monkeypatch, ring, seeds, props, builds):
    # a build of the seeds or of some of them counts, in the CLI or in a
    # runner of the prop table; t1 and chain build fragments of powers
    r = rings.make_ring(ring)
    texts = {r.canonical_class(r.parse(t)).text for t in seeds.split(",")}
    calls = []

    def counted(ring, seeds):
        seeds = list(seeds)
        if {c.text for c in seeds} <= texts:
            calls.append(seeds)
        return build_fragment(ring, seeds)

    monkeypatch.setattr(cli, "build_fragment", counted)
    monkeypatch.setattr(checks, "build_fragment", counted)
    code, _, _ = run(capsys, "check", "--ring", ring, "--seeds", seeds, "--props", props)
    assert code == 0
    assert len(calls) == builds


@pytest.mark.parametrize(
    "argv",
    [
        # --seed is not an abbreviation of --seeds
        ("fragment", "--ring", "z", "--seeds", "12", "--seed", "3"),
        ("check", "--ring", "z", "--seeds", "12", "--props", "t0", "--seed", "3"),
    ],
)
def test_flag_prefixes_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("fragment", "--ring", "z", "--seeds", "12", "--out", "dot"),
        ("fragment", "--ring", "z", "--seeds", "12,18", "--out", "json"),
        ("check", "--ring", "z", "--seeds", "12,18", "--props", "t0,isolated,gcd-intersection"),
        ("check", "--ring", "zs5", "--seeds", "6", "--props", "isolated,gcd-intersection,density"),
        ("check", "--ring", "gauss", "--seeds", "5", "--props", "nested,t1"),
        ("primes", "--ring", "z", "--start", "2,3", "--count", "5"),
    ],
)
def test_cli_output_is_byte_identical(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


BIG = "7" * 4000


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fragment", "--ring", "z", "--seeds", BIG),
         "an integer of 13288 bits exceeds the z bound 1000000000000"),
        (("check", "--ring", "z", "--seeds", "-" + BIG, "--props", "density"),
         "an integer of 13288 bits exceeds the z bound 10^120"),
        (("fragment", "--ring", "gauss", "--seeds", BIG + "i"),
         "the norm of an element with a 13288-bit part exceeds the gauss bound 1000000000000000000"),
        (("fragment", "--ring", "zs5", "--seeds", "1+" + BIG + "s"),
         "the norm of an element with a 13288-bit part exceeds the zs5 bound 100000000"),
        # values up to 64 bits are still printed in full
        (("fragment", "--ring", "z", "--seeds=-99999999999999"),
         "|99999999999999| exceeds the z bound 1000000000000"),
        (("fragment", "--ring", "gauss", "--seeds", "7777777777i"),
         "the norm of 7777777777 exceeds the gauss bound 1000000000000000000"),
        (("fragment", "--ring", "zs5", "--seeds=-99999-1s"),
         "the norm of 99999+1s exceeds the zs5 bound 100000000"),
    ],
    ids=["z-enum", "z-factor", "gauss", "zs5", "z-short", "gauss-short", "zs5-short"],
)
def test_size_guard_names_long_values_by_size(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert len(err.encode()) < 200


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser(capsys, monkeypatch):
    usage = ("check", "--ring", "z", "--seeds", "12")  # --props is missing
    help_ = ("--help",)
    jobs = [
        ("fragment", "--ring", "z", "--seeds", "12", "--out", "text"),
        ("check", "--ring", "zs5", "--seeds", "6", "--props", "t0,gcd-intersection"),
        ("primes", "--ring", "z", "--start", "2,3", "--count", "3"),
    ]
    help_text = cli.build_parser().format_help()
    cli._parser.cache_clear()
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    calls = [usage, help_, *jobs, help_, usage, *reversed(jobs), usage, *jobs, help_]
    first = {}
    for argv in calls:
        first.setdefault(argv, _outcome(capsys, argv))
        assert _outcome(capsys, argv) == first[argv]
    assert len(calls) >= 10
    assert first[usage][0] == 2 and "--props" in first[usage][2]
    assert first[help_] == (0, help_text, "")
    assert [code for code, _, _ in map(first.get, jobs)] == [0, 0, 0]
    # one top-level parser and its three subcommand parsers
    assert built == ["divtop", "divtop fragment", "divtop check", "divtop primes"]


def test_importing_the_cli_builds_no_parser():
    env = {**os.environ, "PYTHONPATH": str(Path(divtop.__file__).parents[1])}
    code = (
        "import argparse; built = []; init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **k): init(self, *a, **k); built.append(self.prog)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import divtop.cli; print(built)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@given(st.one_of(RING_SEEDS, ELEMENTS[S5].map(lambda e: (S5, [S5.canonical_class(e)]))))
@example((S5, [S5.canonical_class(Root5(6, 0))]))
@example((S5, [S5.canonical_class(Root5(9, 0))]))
@example((S5, [S5.canonical_class(Root5(6, 0)), S5.canonical_class(Root5(2, 2))]))
@settings(max_examples=100, deadline=None)
def test_gcd_intersection_matches_frozenset_oracles(ring_seeds):
    ring, classes = ring_seeds
    runner = checks.PROPS["gcd-intersection"][1]
    report = runner(ring, classes, 0, cache(lambda: build_fragment(ring, classes)))
    want = basis_intersection_oracle(ring, *intersection_pair_oracle(ring, classes))
    assert report_to_json(report) == report_to_json(want)


ZS5_SEARCHES = {
    "7560": '{"check":"gcd-intersection","verdict":"witness-produced",'
    '"witnesses":["1-1s","3-1s","1+2s"],"details":{"left":"7560","right":"13+5s",'
    '"intersection":["1+2s","1-1s","3-1s"],"basic":false}}\n',
    "9240": '{"check":"gcd-intersection","verdict":"witness-produced",'
    '"witnesses":["1-1s","1+1s","3"],"details":{"left":"9240","right":"3-3s",'
    '"intersection":["1+1s","1-1s","3"],"basic":false}}\n',
}


@pytest.mark.parametrize("seed", sorted(ZS5_SEARCHES))
def test_zs5_partner_search_enumerates_divisors_once(capsys, monkeypatch, seed):
    counts = {"divisors": 0, "irreducible": 0}
    divisor_reps = rings.RootMinus5Ring._divisor_reps
    is_irreducible = rings.Ring.is_irreducible

    def counted_divisors(self, *args):
        counts["divisors"] += 1
        return divisor_reps(self, *args)

    def counted_irreducible(self, a):
        counts["irreducible"] += 1
        return is_irreducible(self, a)

    monkeypatch.setattr(rings.RootMinus5Ring, "_divisor_reps", counted_divisors)
    monkeypatch.setattr(rings.Ring, "is_irreducible", counted_irreducible)
    code, out, err = run(
        capsys, "check", "--ring", "zs5", "--seeds", seed, "--props", "gcd-intersection"
    )
    assert (code, out, err) == (0, ZS5_SEARCHES[seed], "")
    assert counts == {"divisors": 1, "irreducible": 0}


@pytest.mark.parametrize(
    "ring, seeds, points",
    [
        ("z", "963761198400", 6719),
        ("z", "963761198400,12", 6719),
        ("gauss", "486122650", 27647),
    ],
    ids=["z", "z-two-seeds", "gauss"],
)
def test_gcd_ring_intersection_is_held_to_the_point_cap(capsys, ring, seeds, points):
    # gcd rings list divisor classes without a fragment, under the same cap
    for props in ("gcd-intersection", "t0"):
        code, out, err = run(capsys, "check", "--ring", ring, "--seeds", seeds, "--props", props)
        assert (code, out, err) == (2, "", f"error: {points} points exceeds the cap 4096\n")


def test_gcd_ring_intersection_lists_two_seeds_not_the_fragment(capsys):
    # 2303 divisor classes each, 4607 in the union of all three seeds
    argv = ("check", "--ring", "z", "--seeds", "23524300800,26291865600,31826995200")
    assert run(capsys, *argv, "--props", "t0") == (2, "", "error: 4607 points exceeds the cap 4096\n")
    code, out, err = run(capsys, *argv, "--props", "gcd-intersection")
    assert (code, err) == (0, "")
    assert json.loads(out)["details"]["gcd"] == "1383782400"


# ---------------------------------------------------------------------------
# the CLI contract on any argv: an exit code, brief stderr, bounded work

SEED_TEXTS = {
    "z": ["12", "7", "-30", "720720", "97772875200", "7777777777"],
    "gauss": ["1+1i", "3", "2+1i", "-5i", "720720"],
    "fp": ["x", "x^2+1", "x^3+2x", "x^12+x+1", "2"],
    "zs5": ["6", "2+2s", "1-1s", "7560"],
    "valp": ["p", "p^3", "8", "p^4096"],
}
HOSTILE_TEXTS = [
    "", " ", "1\t2", "\t12\n", "１２", "१२", "٣", "\xa012", "0", "1", "-", "x^", "p^4097",
    "1+1i+1", "2 3", "−5", "7" * 5000, "1a" + "7" * 5000, "x^" + "9" * 4000, "p^" + "9" * 4000,
]
OUTS = {"fragment": ["json", "dot", "text"], "check": ["json", "text"], "primes": []}


@st.composite
def argvs(draw):
    """Subcommand x ring x --p x seed texts x props x --n or --count.  Half
    the draws are hostile: there --p may be a non-prime, 0, negative or
    10^130, a seed text hostile, a prop unknown and an option misplaced."""
    command = draw(st.sampled_from(sorted(OUTS)))
    ring = draw(st.sampled_from(rings.RING_TAGS))
    hostile = draw(st.booleans())
    argv = [command, "--ring", ring]
    odd_p = hostile and draw(st.booleans())
    fitting = [2, 3, 5, 17] if rings.RINGS[ring].P_MAX else [None]
    p = draw(st.sampled_from([None, 19, 4, 1, 0, -3, 10**130] if odd_p else fitting))
    if p is not None:
        argv.append(f"--p={p}")
    text = st.sampled_from(SEED_TEXTS[ring])
    if hostile:
        text = st.one_of(text, st.sampled_from(HOSTILE_TEXTS), st.text())
    seeds = ",".join(draw(st.lists(text, min_size=1, max_size=3)))
    if command != "primes":
        argv.append(f"--seeds={seeds}")
    elif draw(st.booleans()):
        argv.append(f"--start={seeds}")
    if command == "check":
        props = list(checks.PROPS) + (["", "bogus", "x" * 5000] if hostile else [])
        argv.append("--props=" + ",".join(draw(st.lists(st.sampled_from(props), min_size=1, max_size=4))))
    length = st.one_of(st.sampled_from([0, 1, 2, 4096, 4097]), st.integers(-3, 40))
    if command == "check" and draw(st.booleans()):
        argv.append(f"--n={draw(length)}")
    if command == "primes":
        argv.append(f"--count={draw(length)}")
    if OUTS[command] and draw(st.booleans()):
        argv.append(f"--out={draw(st.sampled_from(OUTS[command]))}")
    if hostile and draw(st.booleans()) and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--count=1", "--props=t0", "--out=yaml", "--bogus"])))
    return argv


@given(argvs())
@example(["check", "--ring", "fp", "--p=2", "--seeds=x^12+x+1", "--props=chain", "--n=4096"])
@example(["check", "--ring", "z", "--seeds=1a" + "7" * 5000, "--props=t0"])
@example(["check", "--ring", "z", "--seeds=6", "--props=" + "\x7f" * 60])
@example(["fragment", "--ring", "fp", "--p=17", "--seeds=x^" + "9" * 4000])
@settings(max_examples=200, deadline=timedelta(seconds=5))
def test_cli_contract(argv):
    # the guards bound the work, so every argv ends within the deadline: in an
    # exit code of 0, 1 or 2, or argparse's exit 2, with stderr short
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = None
    assert code in (0, 1, 2, None)
    assert (err.getvalue() == "") == (code in (0, 1))
    assert len(err.getvalue().encode()) <= 400
