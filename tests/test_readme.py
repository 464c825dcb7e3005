"""README's Library block runs, and gives the values its comments state."""

import ast
from fractions import Fraction
from pathlib import Path

from firebreak.trees import Automaton

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_gives_the_commented_values():
    block = README.read_text().split("## Library\n\n```python\n")[1].split("```")[0]
    scope, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), scope))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), scope)
    br, weight, verdict = values
    assert br == 2.0
    assert weight == Fraction(1, 8) and type(weight) is Fraction
    assert (verdict.kind, verdict.round_no, verdict.burnt) == ("contained", 2, 7)
    cert = scope["cert"]
    assert cert.mid_rate == Fraction(7, 4) and cert.radius == 19
    assert scope["spheres"] == [1, 4, 12, 36]
    assert type(scope["binary"]) is type(scope["free2"]) is Automaton
