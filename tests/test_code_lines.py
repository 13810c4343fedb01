"""tools/code_lines.py: which lines count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    # a comment line
    size = 2


def area(r):
    """Function docstring,

    over three lines."""
    text = """a string that is
    not a docstring"""
    return math.pi * max(
        r,
        0,
    )
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path, capsys):
    # code: import, class, size, def, the two lines of text, and the four
    # lines of the return, 10 in all
    tool = _load_tool()
    assert tool.code_lines(FIXTURE) == 10
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert tool.main([str(tmp_path / "pkg")]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["10", "1", "11"]
