"""The README passages that tests run: its CLI examples, its library quick
start, and argvs of the refusals its Guards section quotes."""

import shlex
from pathlib import Path

# each exits 2 with a one-line message that README Guards quotes
GUARD_ARGVS = {
    "no-p": ("fragment", "--ring", "fp", "--seeds", "x"),
    "p-on-z": ("fragment", "--ring", "z", "--p", "5", "--seeds", "6"),
    "p-over-bound": ("fragment", "--ring", "fp", "--p", "19", "--seeds", "x"),
    "chain": ("check", "--ring", "fp", "--p", "17", "--seeds", "x^12+x+1", "--props", "chain",
              "--n", "4096"),
    "syntax": ("fragment", "--ring", "gauss", "--seeds", "1i2"),
}


def readme_block(heading, lang=""):
    """The first fenced block of README's section ``heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"\n## {heading}\n")[1].split(f"```{lang}\n")[1].split("```")[0]


def cli_examples() -> list:
    """(line, argv) of every ``divtop`` line in README's CLI block."""
    lines = [line for line in readme_block("CLI").splitlines() if line.startswith("divtop ")]
    return [(line, shlex.split(line.partition("#")[0])[1:]) for line in lines]
