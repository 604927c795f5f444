"""The README's library example runs against the package as it stands."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    """The first python block under the README's '## Library use' heading."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_use_block(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # 18 dead ends of B(14) deeper than 1, each at depth 3, then depth of (0,0,5)
    assert len(lines) == 19
    assert "(0,0,5) 10 3" in lines
    assert lines[-1] == "5"
