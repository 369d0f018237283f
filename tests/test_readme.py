"""README's library quick start runs as written and prints what it says."""

import contextlib
import io
import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first python block under the "Quick start (library)" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), {})
    assert out.getvalue().split() == ["0.5", "3.0"]
