"""tools/code_lines.py, which gives each change's net src/ code lines, counts
a hand-worked source file as expected."""

import importlib.util
import subprocess
import sys
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a comment-only line


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring,
        on two lines."""
        total = (1 +
                 2)
        "a string expression after the first statement"
        return total


async def run():
    """Async function docstring."""
    return os.sep
'''
# import, class, def, the two lines of total, the string expression, return,
# async def, return
EXPECTED = 9


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_a_hand_worked_file(tmp_path):
    """9 code lines: docstrings, comments and blank lines are left out, a
    two-line statement counts twice, and a string statement that is not the
    first of its body counts."""
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert _load().code_lines(path) == EXPECTED


def test_script_sums_the_files_under_its_root(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sample.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg" / "one.py").write_text('"""Docstring."""\n\nx = 1\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(CODE_LINES), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out == f"{EXPECTED + 1}\n"
