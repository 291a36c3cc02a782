"""What the benchmark's workloads use of gnp, checked against gnp itself.

`bench/workloads.py` is parsed, not run. Each `<module>.<name>` it reads
from one of the gnp modules below must exist, and each such call must bind
to the callee's signature by its positional count and keyword names. Names
read off returned objects (`covariance_propagator(...).left`,
`gaussian_density(...).matrix`) are not seen: only the module-level names
are checked.
"""

import ast
import inspect
from pathlib import Path

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
