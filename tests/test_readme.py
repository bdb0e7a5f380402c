"""The README's "Library quick tour" block runs as written.

The block is read from README.md and run one top-level statement at a
time; each bare expression is evaluated and kept by its source text, so
the results its comments state can be checked.
"""

import ast
from pathlib import Path

from specpoly import Verdict

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_tour_runs_as_written():
    source = _quick_tour()
    namespace, values = {}, {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), README.name, "eval")
            values[ast.get_source_segment(source, stmt.value)] = eval(
                code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), README.name, "exec"),
                 namespace)
    assert values["cert.verdict"] is Verdict.LESS
    assert values["sp.hinge_oracle(q.roots, p.roots).all_satisfied"] is True
    assert values["len(chain.steps)"] == 8
    assert values["sp.appell(phi, 2)"] == (-2, 0, 1)
