"""The README's library example runs and its commented values hold."""

import ast
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example_values() -> list:
    """Run the ``## Library`` code block; return the value of each of its
    expression statements, in order."""
    section = README.read_text("utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
    return values


def test_library_example():
    reff, power, variance, passed, margin = library_example_values()
    # 0.666666... three times: Laplacian, Thomson flow, free field.
    for value in (reff, power, variance):
        assert value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert passed is True
    assert margin == pytest.approx(1.0 / 30.0, abs=1e-12)
