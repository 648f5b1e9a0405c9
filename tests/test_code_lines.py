"""The code-line counter that CHANGES.md quotes (tools/code_lines.py)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps its line


def f(a,
      b):
    """Function docstring."""
    # a comment line
    text = """a string that is
    not a docstring"""
    return os.path.join(a, b, text)


class C:
    """Class docstring."""

    x = 1
'''


def test_counts_code_only():
    # import, def (2), text (2), return, class, x
    assert code_lines.code_lines(SAMPLE) == 8


def test_main_prints_per_module_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].split()[1] == "total"
