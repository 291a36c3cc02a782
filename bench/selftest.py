"""Self-test of the benchmark itself.

    python3 bench/selftest.py            # or: python3 -m pytest -q bench/selftest.py

Runs one round of each workload on reduced inputs and requires that no
operation fails.  Then, for every check a workload defines, it corrupts one
real result as the workload's PERTURB table says and requires that the
runner counts that operation as failed by that check, which shows that
every check is able to fail.  It also runs one traced round of each
workload, requiring self time in all eight modules, and runs the benchmark
in a directory without the gnp sources, requiring a non-zero exit and no
result.  Scratch files go under .bench_run/ in the checkout.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

run.pin_blas(1)
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (gnp is importable only after the path is set)
from tracer import LAYERS  # noqa: E402

SEED = 7


@contextlib.contextmanager
def _workdir(name: str):
    path = run.WORK_ROOT / f"selftest-{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_ROOT.rmdir()   # only when no other run is using it


def _check_workload(name: str) -> None:
    with _workdir(name) as workdir:
        wl = workloads.WORKLOADS[name](SEED, workdir, reduced=True)
        names = set()
        check = wl.check

        def recording(op, result):
            checks = check(op, result)
            names.update(n for n, _, _ in checks)
            return checks

        wl.check = recording
        ops = wl.round(0)
        clean = run.Tally()
        for op in ops:
            run.execute(wl, op, clean)
        assert clean.failed == 0, f"{name}: {clean.failed} of {clean.attempted} failed"
        assert names == set(wl.PERTURB), (
            f"{name}: checks without a perturbation {names - set(wl.PERTURB)}, "
            f"perturbations without a check {set(wl.PERTURB) - names}")
        for check_name, (kind, corrupt) in wl.PERTURB.items():
            op = [op for op in ops if op.kind == kind][-1]
            tally = run.Tally()
            with contextlib.redirect_stderr(io.StringIO()):
                failed = run.execute(wl, op, tally, mutate=corrupt)
            assert tally.failed == 1 and tally.wrong == 1, f"{name}: {check_name} not counted"
            assert check_name in failed, f"{name}: {check_name} passed a corrupted result"


def test_flow():
    _check_workload("flow")


def test_phase():
    _check_workload("phase")


def test_oracle():
    _check_workload("oracle")


def test_trace_covers_every_module():
    tracer = run.trace_layers()
    busy = set()
    for name, cls in workloads.WORKLOADS.items():
        with _workdir(f"trace-{name}") as workdir:
            wl = cls(SEED, workdir, reduced=True)
            tally = run.Tally()
            run.run_rounds(wl, tally, rounds=1, tracer=tracer)
            assert tally.failed == 0
            metrics = tracer.layer_metrics(tally.attempted)
        busy |= {layer for layer in LAYERS if metrics[f"{layer}.self_s"][0] > 0}
        assert not tracer._stack
    assert busy == set(LAYERS), f"no spans for {set(LAYERS) - busy}"


def test_refuses_without_sources():
    with _workdir("bare") as workdir:
        shutil.copytree(Path(run.__file__).parent, workdir / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "flow", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=workdir, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0 and proc.stdout == "", proc.stdout


def main() -> int:
    tests = [test_flow, test_phase, test_oracle, test_trace_covers_every_module,
             test_refuses_without_sources]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
