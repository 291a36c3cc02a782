"""Layer timings of gnp: a fixed table of cases, timed in process.

Each case is one call into one layer of the package.  A case is called once
to warm up and once more, warm, to size how many calls fill MIN_TIME
seconds, then timed over REPEATS repeats of that many calls; the result per
case is the median and interquartile range of the per-call time over the
repeats.  BLAS is pinned to one thread before numpy loads.  The JSON written
also records the git revision of the timed tree and whether its sources
differ from that revision (both from one `git status`), the core count and
the numpy and scipy versions.

    python tools/layer_bench.py BENCH_layers.json                      # ./src
    python tools/layer_bench.py BENCH_layers.json --against OTHER/src

--against loads the gnp tree at OTHER/src into this process under its own
package name and times each case on both trees in every repeat, the first
tree alternating, so one run gives REPEATS pairs under one load.  Per case
it prints the median and range of this tree's time over the other's, then
"faster" or "slower" only when at least MIN_PAIRS pairs were taken and this
tree wins, or loses, at least WIN_SHARE of them (a tie counts for neither),
else "unresolved"; then "same bytes" or "bytes differ" by the SHA-256 of the
output each case returns on both trees (array bytes and the leaves of
dataclasses, dicts, lists and tuples), or "only in this tree" if its call
raises on the other tree.  The other tree's figures go under each case's
"against".

The cases are the matcore primitives (L0), the dynamics (L2), the
phase-space commands (L3), the Fock oracle (L4), the calibration (L5) and
file I/O (io): the four structured matrices J, Omega, E and I of four modes;
mat_exp of the 8x8 normal-flow generator -i H J with H = I + 0.1 (every
entry); normal_propagate of a 4-mode squeezed thermal R under that H, one
call at each of 101 times in [0, 1]; integrate_rk4 of the normal flow over
1000 steps to t = 1 for a 2-mode squeezed thermal R under I + 0.1 and for
the 4-mode R; in-process
`gnp phase --fn q --convention calibrated --grid=-2:2:41` and
`gnp phase --fn wigner --grid=-2:2:41` through cli.main on a one-mode
squeezed thermal state; gaussian_density on a separable
two-mode squeezed thermal spec at cutoffs 14, 18 and 22, on a one-mode spec
at 40 and on a beam-split (coupled) two-mode spec at 12; quad_operator on
the one-mode kernel at 48; one liouville_step of a one-mode thermal density
at 40; r_from_q_hessian of the separable two-mode density at 22;
calibrate(40); an in-process `gnp audit --with-oracle --cutoff 40` on the
same state; and a trajectory CSV round trip (trajectory_to_csv, then
trajectory_from_csv) of a 4-mode, 101-row closed-form normal trajectory.
The command cases keep their files in a temporary directory per tree and
return the bytes of the file they wrote.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPEATS = 21
MIN_TIME = 0.02     # seconds of calls per repeat
MIN_PAIRS = 10      # pairs needed before a case is called faster or slower
WIN_SHARE = 0.9     # share of the pairs a case must win, or lose, to be called so


def load(src, name: str):
    """Import the gnp package under src, and through its command line every
    module, as the package `name`.  Every import inside gnp is relative, so
    trees loaded under different names run side by side in one process."""
    pkg = Path(src).resolve() / "gnp"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    gnp = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gnp)
    importlib.import_module(f"{name}.cli")
    return gnp


def cases(gnp, workdir: Path) -> list:
    """(layer, name, call) for every case, built from the loaded package gnp;
    the command cases' files go in workdir."""
    import numpy as np
    bridge, cli, dynamics, fo, kernels, matcore, stateio = (
        gnp.bridge, gnp.cli, gnp.dynamics, gnp.fockoracle, gnp.kernels, gnp.matcore,
        gnp.stateio)

    separable = fo.PhysicalSpec("squeezed-thermal", [1.8, 2.2], [0.2, 0.1])
    coupled = fo.PhysicalSpec("squeezed-thermal", [1.8, 2.2], [0.2, 0.1])
    c, s = np.cos(0.4), np.sin(0.4)                 # beam splitter on modes 1, 2
    S = np.kron(np.eye(2), [[c, s], [-s, c]])
    coupled.operator_kernel = S.T @ coupled.operator_kernel @ S
    one = fo.PhysicalSpec("squeezed-thermal", [0.7], [0.4])
    thermal = fo.PhysicalSpec("thermal", [0.7])
    rho = fo.gaussian_density(thermal, 40)
    rho_separable = fo.gaussian_density(separable, 22)
    state, ham = workdir / "state.json", workdir / "ham.json"
    stateio.write_state(state, kernels.make_squeezed_thermal([0.8], [0.3]), "sigma")
    stateio.write_hamiltonian(ham, dynamics.QuadraticHamiltonian(1, [[0.9, 0.2], [0.2, 0.7]]))
    four = kernels.make_squeezed_thermal([0.6, 0.9, 1.2, 1.5], [0.3, -0.2, 0.1, 0.0])
    R4, H4 = kernels.ensure_form(four, "R"), np.eye(8) + 0.1
    traj = dynamics.closed_form_trajectory("normal", R4, H4, 1.0, 100)
    R2 = kernels.ensure_form(kernels.make_squeezed_thermal([0.6, 0.9], [0.3, -0.2]), "R")
    B4 = -1j * H4 @ matcore.structured("J", 4)

    def command(output, *argv):
        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main([*argv, "-o", str(output)]) != 0:
                    raise RuntimeError(f"gnp {argv[0]} failed")
            return output.read_bytes()
        return call
    table = [("L4", f"gaussian_density 2-mode separable cutoff {cutoff}",
              lambda cutoff=cutoff: fo.gaussian_density(separable, cutoff))
             for cutoff in (14, 18, 22)]
    return [
        ("L0", "structured J, Omega, E, I 4-mode",
         lambda: [matcore.structured(kind, 4) for kind in ("J", "Omega", "E", "I")]),
        ("L0", "mat_exp 8x8", lambda: matcore.mat_exp(B4)),
        ("L2", "normal_propagate 4-mode at 101 times",
         lambda: [dynamics.normal_propagate(R4, H4, t) for t in np.linspace(0.0, 1.0, 101)]),
        ("L2", "integrate_rk4 normal 2-mode 1000 steps",
         lambda: dynamics.integrate_rk4("normal", R2, H4[:4, :4], 1.0, 1000)),
        ("L2", "integrate_rk4 normal 4-mode 1000 steps",
         lambda: dynamics.integrate_rk4("normal", R4, H4, 1.0, 1000)),
        ("L3", "gnp phase --fn q calibrated grid 41x41",
         command(workdir / "q.csv", "phase", str(state), "--fn", "q",
                 "--convention", "calibrated", "--grid=-2:2:41")),
        ("L3", "gnp phase --fn wigner grid 41x41",
         command(workdir / "w.csv", "phase", str(state), "--fn", "wigner",
                 "--grid=-2:2:41")),
        *table,
        ("L4", "gaussian_density 1-mode cutoff 40", lambda: fo.gaussian_density(one, 40)),
        ("L4", "gaussian_density 2-mode coupled cutoff 12",
         lambda: fo.gaussian_density(coupled, 12)),
        ("L4", "quad_operator 1-mode cutoff 48",
         lambda: fo.quad_operator(one.operator_kernel, 48)),
        ("L4", "liouville_step 1-mode cutoff 40",
         lambda: fo.liouville_step(rho, thermal.operator_kernel, 0.7)),
        ("L4", "r_from_q_hessian 2-mode separable cutoff 22",
         lambda: fo.r_from_q_hessian(rho_separable)),
        ("L5", "calibrate cutoff 40", lambda: bridge.calibrate(40)),
        ("L5", "gnp audit --with-oracle cutoff 40",
         command(workdir / "audit.json", "audit", str(state), "--ham", str(ham),
                 "--t", "1", "--with-oracle", "--cutoff", "40")),
        ("io", "trajectory CSV round trip 4-mode 101 rows",
         lambda: stateio.trajectory_from_csv(stateio.trajectory_to_csv(traj))),
    ]


def time_calls(calls: list, repeats: int, number: int) -> list:
    """Per-call seconds of each of calls per repeat; the first to go alternates.

    The garbage collector runs once and then stays off over the repeats (and
    is switched on again however they end), so no call is charged for
    collecting the garbage that earlier calls, or the other tree's, left.
    """
    per_call = [[] for _ in calls]
    gc.collect()
    gc.disable()
    try:
        for k in range(repeats):
            for i in (range(len(calls)) if k % 2 == 0 else reversed(range(len(calls)))):
                t0 = time.perf_counter()
                for _ in range(number):
                    calls[i]()
                per_call[i].append((time.perf_counter() - t0) / number)
    finally:
        gc.enable()
    return per_call


def summary(per_call: list) -> dict:
    q1, median, q3 = (statistics.quantiles(per_call, n=4) if len(per_call) > 1
                      else per_call * 3)
    return {"median_s": median, "iqr_s": q3 - q1, "q1_s": q1, "q3_s": q3}


def compare(this: list, other: list) -> dict:
    """Median, range, wins, losses and verdict of paired ratios this/other."""
    ratios = [a / b for a, b in zip(this, other)]
    wins, losses = sum(r < 1.0 for r in ratios), sum(r > 1.0 for r in ratios)
    enough = len(ratios) >= MIN_PAIRS
    verdict = ("faster" if enough and wins / len(ratios) >= WIN_SHARE else
               "slower" if enough and losses / len(ratios) >= WIN_SHARE else
               "unresolved")
    return {"ratio": statistics.median(ratios), "ratio_low": min(ratios),
            "ratio_high": max(ratios), "won": wins, "lost": losses, "verdict": verdict}


def fingerprint(output) -> str:
    """SHA-256 of a case's output: the dtype, shape and bytes of each array,
    and the repr of every other leaf of its dataclasses, dicts, lists and
    tuples."""
    import numpy as np
    h = hashlib.sha256()

    def feed(value):
        if dataclasses.is_dataclass(value):
            value = [getattr(value, f.name) for f in dataclasses.fields(value)]
        elif isinstance(value, dict):
            value = list(value.items())
        if isinstance(value, (list, tuple)):
            for item in value:
                feed(item)
        elif isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode() + value.tobytes())
        else:
            h.update(repr(value).encode() + b"\0")
    feed(output)
    return h.hexdigest()


def provenance(gnp) -> dict:
    """HEAD of the checkout holding the loaded tree gnp and whether the tree
    differs from it, from one `git status`; None for both without git."""
    src = Path(gnp.__file__).parent.parent
    try:
        out = subprocess.run(["git", "status", "--porcelain=v2", "--branch", "--", "."],
                             cwd=src, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"revision": None, "dirty": None}
    lines = out.splitlines()                         # "# branch.oid <HEAD>" first
    return {"revision": lines[0].split()[2],
            "dirty": any(not line.startswith("#") for line in lines)}


def measure(gnp, other=None, repeats: int = REPEATS, min_time: float = MIN_TIME) -> dict:
    """Provenance of the loaded tree gnp and every case's timing; given the
    loaded tree other, also its provenance and each case's pairs against it."""
    result = {
        **provenance(gnp),
        "cores": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cases": [],
    }
    with tempfile.TemporaryDirectory() as workdir:
        theirs = {}
        if other is not None:
            result["against"] = provenance(other)
            (Path(workdir) / "other").mkdir()
            theirs = {name: call for _, name, call in cases(other, Path(workdir) / "other")}
        for layer, name, call in cases(gnp, Path(workdir)):
            output = call()                          # warm-up
            t0 = time.perf_counter()                 # a warm call sizes number
            call()
            number = max(1, int(min_time / max(time.perf_counter() - t0, 1e-9)))
            calls = [call]
            if name in theirs:
                try:
                    same = fingerprint(theirs[name]()) == fingerprint(output)
                    calls.append(theirs[name])
                except Exception:                    # it raises there: this tree's only
                    pass
            this, *that = time_calls(calls, repeats, number)
            case = {"layer": layer, "name": name, **summary(this),
                    "repeats": repeats, "number": number}
            if that:
                case["against"] = {**summary(that[0]), **compare(this, that[0]),
                                   "same_bytes": same}
            result["cases"].append(case)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("output", help="JSON file to write")
    ap.add_argument("--against", type=Path, metavar="OTHER/src",
                    help="also time every case on the gnp tree there, in pairs")
    args = ap.parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    result = measure(load(SRC, "gnp_this"),
                     None if args.against is None else load(args.against, "gnp_other"))
    Path(args.output).write_text(json.dumps(result, indent=1) + "\n")
    for case in result["cases"]:
        print(f"{case['layer']} {case['name']:44s} {case['median_s'] * 1e3:9.3f} ms "
              f"(IQR {case['iqr_s'] * 1e3:.3f})")
    for case in result["cases"] if args.against else ():
        vs = case.get("against")
        print(f"{case['name']:44s} " + ("only in this tree" if vs is None else
              f"x{vs['ratio']:.3f} (x{vs['ratio_low']:.3f}-x{vs['ratio_high']:.3f}; "
              f"{vs['won']} faster, {vs['lost']} slower of {case['repeats']})  {vs['verdict']}  "
              + ("same bytes" if vs["same_bytes"] else "bytes differ")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
