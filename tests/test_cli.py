"""CLI behavior: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divtop
from divtop import cli, rings
from divtop.cli import main
from divtop.topology import build_fragment


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
    assert code == 2 and "--p is required" in err
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
        ("fp", "fp modulus must be a prime <= 17"),
        ("valp", "valp parameter must be a prime <= 10^120"),
    ],
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
        ("--ring", "z", "--seeds", "7", "--props", "chain", "--n", "6000"),
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
        # the guard names the canonical associate: -i * (7...7)i = 7...7
        ("gauss", SEVENS + "i", SEVENS, 10**18),
        ("zs5", SEVENS + "s", SEVENS + "s", 10**8),
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


# Runs the CLI in a fresh interpreter and reports on stderr whether sympy
# was imported.
SYMPY_PROBE = (
    "import sys; from divtop.cli import main; code = main(sys.argv[1:]); "
    "print('sympy' in sys.modules, file=sys.stderr); sys.exit(code)"
)


@pytest.mark.parametrize(
    "argv, loads_sympy",
    [
        (("--ring", "z", "--seeds", "60,7", "--props", "t0,isolated,density,gcd-intersection"),
         False),
        (("--ring", "gauss", "--seeds", "5,1+1i", "--props", "t0,isolated,density"), False),
        (("--ring", "zs5", "--seeds", "6", "--props", "isolated,gcd-intersection,density"), False),
        (("--ring", "valp", "--p", "3", "--seeds", "p^4", "--props", "t0,isolated,nested"), False),
        (("--ring", "fp", "--p", "5", "--seeds", "x^2+x", "--props", "isolated"), True),
    ],
    ids=["z", "gauss", "zs5", "valp", "fp"],
)
def test_only_fp_factoring_imports_sympy(argv, loads_sympy):
    env = {**os.environ, "PYTHONPATH": str(Path(divtop.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", SYMPY_PROBE, "check", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{loads_sympy}\n"


@pytest.mark.parametrize(
    "props, builds",
    [("t0,isolated,nested,dense-open,maximal", 1), ("t1,density,chain", 0)],
)
def test_check_builds_the_seed_fragment_once(capsys, monkeypatch, props, builds):
    calls = []

    def counted(ring, seeds):
        calls.append(seeds)
        return build_fragment(ring, seeds)

    monkeypatch.setattr(cli, "build_fragment", counted)
    code, _, _ = run(capsys, "check", "--ring", "z", "--seeds", "12", "--props", props)
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
