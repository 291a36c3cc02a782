"""What the benchmark's workloads use of gnp, checked against gnp itself.

`bench/workloads.py` is parsed, not run. Each `<module>.<name>` it reads
from one of the gnp modules below must exist, and each such call must bind
to the callee's signature by its positional count and keyword names. The
attributes it reads off gnp's results (`covariance_propagator(...).left`,
`gaussian_density(...).matrix`, ...) are pinned by RESULT_READS: each one
must exist on the result of its producer called on a tiny input, and must
be read in the workloads as `.<name>`.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from gnp import cli, dynamics, fockoracle, kernels, phasespace, stateio

MODULES = {"cli": cli, "dynamics": dynamics, "fockoracle": fockoracle,
           "kernels": kernels, "phasespace": phasespace, "stateio": stateio}
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def module_reads():
    """(line, module, name, call) for each gnp module-level name the
    workloads read; call is the ast.Call node when the read is called."""
    tree = ast.parse(WORKLOADS.read_text())
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    return [(node.lineno, node.value.id, node.attr, calls.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES]


def test_every_name_the_benchmark_reads_exists():
    reads = module_reads()
    assert reads
    missing = [f"line {line}: {module}.{name}" for line, module, name, _ in reads
               if not hasattr(MODULES[module], name)]
    assert not missing, missing


def test_every_call_the_benchmark_makes_binds():
    failures = []
    for line, module, name, call in module_reads():
        if call is None or not hasattr(MODULES[module], name):
            continue
        # a *args or **kwargs argument has no count to bind
        if any(isinstance(a, ast.Starred) for a in call.args) or \
                any(k.arg is None for k in call.keywords):
            continue
        try:
            inspect.signature(getattr(MODULES[module], name)).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            failures.append(f"line {line}: {module}.{name}: {exc}")
    assert not failures, failures


def _density():
    return fockoracle.gaussian_density(fockoracle.PhysicalSpec("thermal", [3.0]), 10)


# (producer of a gnp result on a tiny input, attribute the workloads read off it)
RESULT_READS = [
    (lambda: dynamics.covariance_propagator(np.eye(2), 0.1), "left"),
    (lambda: dynamics.integrate_rk4("normal", np.eye(2), np.eye(2), 0.1, 2), "kernels"),
    (_density, "matrix"),
    (lambda: fockoracle.PhysicalSpec("thermal", [3.0]), "operator_kernel"),
    *[(lambda: fockoracle.derivative_identity_check(_density(), 0.1), name)
      for name in ("residual_rho_a", "residual_at_rho", "truncation_flagged")],
]


@pytest.mark.parametrize("produce, name", RESULT_READS,
                         ids=[name for _, name in RESULT_READS])
def test_every_result_attribute_the_benchmark_reads_exists(produce, name):
    read = {node.attr for node in ast.walk(ast.parse(WORKLOADS.read_text()))
            if isinstance(node, ast.Attribute)}
    assert name in read, f".{name} is not read in {WORKLOADS.name}"
    assert hasattr(produce(), name)
