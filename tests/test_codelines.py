"""The code-line rule of tools/codelines.py: a line counts when it holds a
token that is neither a comment nor part of a docstring."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
_spec = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

SAMPLE = '''"""A module docstring
over two lines."""
# a comment line

import math  # a trailing comment counts as code


class Box:
    """One line."""

    def area(self, w,
             h):
        """Spread
        over three
        lines."""
        # inside a body
        total = (w
                 * h)
        text = """not a docstring:
a string that a statement assigns"""
        return total, text
'''


def test_only_lines_with_a_code_token_count():
    # import, class, the two def lines, the two lines of total, the two of
    # text and the return
    assert codelines.code_lines(SAMPLE) == 9


def test_blank_comment_and_docstring_lines_count_nothing():
    assert codelines.code_lines('"""Only a docstring."""\n\n# and a note\n') == 0
    assert codelines.code_lines("") == 0


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 2\nb 1\ntotal 3\n"
