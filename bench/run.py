#!/usr/bin/env python3
"""Benchmark for the gnp toolkit: one seeded workload per invocation.

    python3 bench/run.py --workload {flow,phase,oracle} --seed N \
        --seconds S --trace {0,1} [--blas-threads K]

Run from the root of a source checkout; gnp is imported from ./src.  Each
workload is a closed loop in this one process: the next operation starts
when the last one and its checks have ended.  Operations run in whole
rounds until --seconds have passed.  With --trace 0 the metrics are the
end-to-end ones, measured untraced; with --trace 1 the same rounds are run
once untraced and once with every gnp module instrumented, and the metrics
are the per-module ones plus the tracing overhead.

Standard output ends with one JSON object holding `correct`, `attempted`,
`failed` and `metrics`; the line before it records provenance and the
per-stage figures of the workload.  The exit code is 2, with no result,
when the gnp sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_run"
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_WARNING = "tail mass"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("flow", "phase", "oracle"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1,
                    help="BLAS threads, capped at the CPUs this process may use")
    return ap.parse_args(argv)


def pin_blas(requested: int) -> int:
    """Fix the BLAS thread count; must run before numpy is imported."""
    threads = max(1, min(requested, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def blas_threads_in_use():
    """Thread count reported by numpy's bundled OpenBLAS, if it is one."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_revision():
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "gnp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Calibration:
    """A fixed task whose wall time, taken just before each operation, is
    the unit `cal` of the timing metrics.

    It mixes the kinds of work gnp does: interpreter-bound Python, numpy
    calls on 4 x 4 and 8 x 8 matrices, and dense complex BLAS at n = 160.
    An operation timed in `cal` therefore reads much the same whatever
    share of the CPU a shared machine lends the process at that moment.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(20220917)
        self.np = np
        self.small = rng.standard_normal((4, 4)) / 4.0
        self.eight = rng.standard_normal((8, 8))
        dense = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self.dense = dense
        self.hermitian = dense + dense.conj().T

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i
        X = self.small
        for _ in range(1500):
            X = np.tanh(X @ self.small + np.eye(4))
        for _ in range(60):
            np.linalg.eig(self.eight)
        np.linalg.eigh(self.hermitian)
        for _ in range(4):
            self.dense @ self.dense
        return time.perf_counter() - t0


@dataclass
class Tally:
    """What a pass over operations did and how long it took."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0                  # failed because an output failed a check
    latencies: list = field(default_factory=list)   # s
    cal: list = field(default_factory=list)         # calibration s before each
    stages: dict = field(default_factory=lambda: defaultdict(list))  # stage -> s
    work: float = 0.0               # work units done in the work stages
    work_s: float = 0.0             # seconds spent in them
    work_cal: float = 0.0           # the same in cal
    tail_warnings: int = 0
    other_warnings: Counter = field(default_factory=Counter)


def execute(workload, op, tally: Tally, tracer=None, mutate=None,
            calibration=None) -> list:
    """Run one operation, check it and add it to `tally`.

    Returns the names of the checks it failed.  `mutate` corrupts the
    result before the checks; the self-test uses it.  `calibration`, when
    given, is timed just before the operation.
    """
    tally.attempted += 1
    cal = calibration() if calibration is not None else 1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception:  # an operation that raises counts as failed
            tally.failed += 1
            print(f"{op.label}: raised\n{traceback.format_exc()}", file=sys.stderr)
            return ["raised"]
        finally:
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
    for w in caught:
        if TAIL_WARNING in str(w.message):
            tally.tail_warnings += 1
        else:
            tally.other_warnings[f"{w.category.__name__}: {w.message}"] += 1
    if mutate is not None:
        result.outputs = mutate(result.outputs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        checks = workload.check(op, result)
    bad = [(name, value, limit) for name, value, limit in checks if not value <= limit]
    if bad:
        tally.failed += 1
        tally.wrong += 1
        for name, value, limit in bad:
            print(f"{op.label}: check {name} failed: {value!r} > {limit!r}", file=sys.stderr)
        return [name for name, _, _ in bad]
    tally.latencies.append(latency)
    tally.cal.append(cal)
    for stage, seconds in result.stages.items():
        tally.stages[stage].append(seconds)
    work_s = sum(result.stages.get(s, 0.0) for s in workload.WORK_STAGES)
    tally.work += result.work
    tally.work_s += work_s
    tally.work_cal += work_s / cal
    return []


def run_rounds(workload, tally: Tally, seconds=None, rounds=None, tracer=None,
               calibration=None) -> int:
    """Whole rounds from round 0 until `seconds` have passed or `rounds` are done."""
    start = time.perf_counter()
    done = 0
    while True:
        for op in workload.round(done):
            execute(workload, op, tally, tracer, calibration=calibration)
        done += 1
        if rounds is not None and done >= rounds:
            return done
        if seconds is not None and time.perf_counter() - start >= seconds:
            return done


def setup(cls, seed, workdir):
    """Build one workload instance (inputs, references) and run one warm-up
    operation; returns the instance and the seconds it took."""
    t0 = time.perf_counter()
    workdir.mkdir(parents=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workload = cls(seed, workdir)
    warm = Tally()
    execute(workload, workload.warmup(), warm)
    if warm.failed:
        raise RuntimeError(f"{workload.name}: warm-up operation failed")
    return workload, time.perf_counter() - t0


def in_cal(tally: Tally) -> list:
    return [t / c for t, c in zip(tally.latencies, tally.cal)]


def end_to_end_metrics(tally: Tally, setup_s: float) -> dict:
    """Sums divide each operation by the calibration taken just before it,
    following the machine's speed through the run; the median latency is
    divided by the median calibration, a denominator as robust as itself."""
    op_cal = in_cal(tally)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_cal": (len(op_cal) / sum(op_cal), "1/cal"),
        "op_p50_cal": (statistics.median(tally.latencies) / statistics.median(tally.cal), "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_cal": (tally.work / tally.work_cal, "1/cal"),
    }


def wall_figures(tally: Tally) -> dict:
    """The timing metrics in wall-clock units, and the calibration's own time."""
    lat = tally.latencies
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "work_per_s": tally.work / tally.work_s,
            "cal_p50_ms": statistics.median(tally.cal) * 1e3}


def stage_figures(tally: Tally, workload) -> dict:
    out = {f"{stage}_p50_ms": statistics.median(v) * 1e3 for stage, v in tally.stages.items()}
    out["work_unit"] = workload.WORK_UNIT
    out["ops_completed"] = len(tally.latencies)
    out["tail_warnings"] = tally.tail_warnings
    out["other_warnings"] = dict(tally.other_warnings)
    return out


def trace_layers():
    """A tracer installed on the eight gnp modules, inactive until a run."""
    import tracer as tracing
    from gnp import bridge, cli, dynamics, fockoracle, kernels, matcore, phasespace, stateio
    tracer = tracing.Tracer()
    tracer.install({"matcore": matcore, "kernels": kernels, "dynamics": dynamics,
                    "phasespace": phasespace, "fockoracle": fockoracle,
                    "bridge": bridge, "stateio": stateio, "cli": cli})
    return tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gnp" / "__init__.py").is_file():
        print(f"error: no gnp sources at {SRC / 'gnp'}; run from a gnp checkout",
              file=sys.stderr)
        return 2
    threads = pin_blas(args.blas_threads)
    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import workloads
    import_s = time.perf_counter() - t_import

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        cls = workloads.WORKLOADS[args.workload]
        setups = [setup(cls, args.seed, workdir / f"setup{i}") for i in range(SETUP_REPEATS)]
        workload = setups[-1][0]
        setup_s = import_s + statistics.median(s for _, s in setups)

        calibration = Calibration()
        tally = Tally()
        if args.trace == 0:
            rounds = run_rounds(workload, tally, seconds=args.seconds, calibration=calibration)
            metrics = end_to_end_metrics(tally, setup_s)
        else:
            plain = Tally()
            rounds = run_rounds(workload, plain, seconds=args.seconds / 2,
                                calibration=calibration)
            tracer = trace_layers()
            run_rounds(workload, tally, rounds=rounds, tracer=tracer, calibration=calibration)
            metrics = tracer.layer_metrics(tally.attempted)
            metrics["fockoracle.tail_warnings"] = (tally.tail_warnings / tally.attempted, "count")
            metrics["trace.overhead_pct"] = (
                100.0 * (sum(in_cal(tally)) / sum(in_cal(plain)) - 1.0), "%")
            tally.attempted += plain.attempted
            tally.failed += plain.failed
            tally.wrong += plain.wrong
        extra = {**wall_figures(tally), **stage_figures(tally, workload)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds,
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": threads, "blas_threads_reported": blas_threads_in_use(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(),
        "attempted": tally.attempted, "failed": tally.failed,
    }
    print(json.dumps({"provenance": provenance, "stages": extra}))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
