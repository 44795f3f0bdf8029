"""The step kernel's modules write every product as ``ndarray.dot``, and only
the integrator decides whether a point is feasible.

NumPy 2 sends ``a @ b`` through the matmul ufunc, whose dispatch costs about
twice that of ``a.dot(b)`` at the sizes a step works on (one Xeon core,
NumPy 2.4.6: a 10 x 10 matvec 1.0 us against 0.5 us, a length-10 dot 0.9 us
against 0.5 us), and both make the same BLAS call, so the bits agree.  A graph
step runs a few dozen such products, so one ``@`` in a hot path costs more
than the product itself.  This test keeps the operator out of the four
modules that a step runs.
"""

import ast
from pathlib import Path

import pytest

import ghmc

SOURCE = Path(ghmc.__file__).parent


@pytest.mark.parametrize("module", ["integrator.py", "kinetic.py", "metric.py", "model.py"])
def test_no_matmul_operator_in_the_step_modules(module):
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    )
    assert not lines, f"{module} uses @ on lines {lines}; write a.dot(b), ndarray on the left"


# the model's feasibility-scanning entries and its walls
_FEASIBILITY = {"potential_grad", "potential_eval", "_gradient_at", "constraints"}


@pytest.mark.parametrize("module", ["kinetic.py", "metric.py"])
def test_only_the_integrator_decides_feasibility(module):
    # the integrator scans the walls at a trajectory's start, at each drift's
    # end and at each crossing probe.  A field or kinetic that scanned too
    # would judge a solver's drift iterates, which no step lands on, and a
    # drift whose root is feasible could diverge; so neither module names a
    # scanning entry or the model's walls
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in _FEASIBILITY)
        or (isinstance(node, ast.Attribute) and node.attr in _FEASIBILITY)
        or (isinstance(node, ast.ImportFrom) and _FEASIBILITY & {a.name for a in node.names})
    )
    assert not lines, f"{module} scans feasibility on lines {lines}; leave it to the integrator"
