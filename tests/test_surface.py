"""Every exception type is named in README code, where the library section
says which refusal raises it.

Whether each function of the library is reached at all is guarded by
tracing real jobs, in ``test_goldens.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "divtop"


def _readme_names() -> set:
    readme = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.DOTALL)
    return {w for span in code for w in re.findall(r"\w+", span)}


def test_every_exception_type_is_named_in_readme():
    tree = ast.parse((SRC / "errors.py").read_text())
    types = [c.name for c in tree.body if isinstance(c, ast.ClassDef)]
    assert "DivtopError" in types
    assert [t for t in types if t not in _readme_names()] == []
