"""The README's library quick tour runs and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"

# comment on each expression line of the tour, and the check of its value
EXPECTED = [
    ("True", lambda v: v is True),
    ("2", lambda v: v == 2),
    ("exact basis, dim 4", lambda v: len(v) == 4),
    ("{('J1,2',): Fraction(1, 1)}", lambda v: repr(v) == "{('J1,2',): Fraction(1, 1)}"),
    ("x1*y2 - x2*y1", lambda v: str(v) == "x1*y2 - x2*y1"),
]


def _quick_tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick tour") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_values_match_its_comments():
    source = _quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    seen = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            seen.append((lines[stmt.lineno - 1].split("#", 1)[1].strip(), value))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert [comment for comment, _ in seen] == [comment for comment, _ in EXPECTED]
    for (comment, value), (_, check) in zip(seen, EXPECTED):
        assert check(value), comment
    report = namespace["report"]  # its comment: kernel_dim == span_dim == 4
    assert report.kernel_dim == report.span_dim == 4
