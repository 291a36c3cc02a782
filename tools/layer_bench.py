"""Layer timings of gnp: a fixed table of cases, timed in process.

Each case is one call into one layer of the package.  A case is called once
to warm up, then timed over REPEATS repeats of as many calls as fill
MIN_TIME seconds; the result per case is the median and interquartile
range of the per-call time over the repeats.  BLAS is pinned to one thread
before numpy loads.  The JSON written also records the git revision of the
timed tree (read from its .git, without starting git), whether its sources
differ from that revision, the core count and the numpy and scipy versions.

    python tools/layer_bench.py BENCH_layers.json                  # ./src
    python tools/layer_bench.py --src OTHER/src base.json           # another tree
    python tools/layer_bench.py --compare base.json BENCH_layers.json

--compare prints, per case, the second median over the first; a ratio is
marked "noise" when the two interquartile ranges overlap.  Speed on a shared
machine drifts within minutes, so compare runs taken in alternating pairs.

The cases are the phase-space command (L3), the Fock oracle (L4), the
calibration (L5) and file I/O (io): an in-process
`gnp phase --fn q --convention calibrated --grid=-2:2:41` through cli.main
on a one-mode squeezed thermal state; gaussian_density on a separable
two-mode squeezed thermal spec at cutoffs 14, 18 and 22, on a one-mode spec
at 40 and on a beam-split (coupled) two-mode spec at 12; quad_operator on
the one-mode kernel at 48; one liouville_step of a one-mode thermal density
at 40; r_from_q_hessian of the separable two-mode density at 22;
calibrate(40); an in-process `gnp audit --with-oracle --cutoff 40` on the
same state; and a trajectory CSV round trip (trajectory_to_csv, then
trajectory_from_csv) of a 4-mode, 101-row closed-form normal trajectory.
The command cases keep their files in a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from importlib import metadata
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPEATS = 21
MIN_TIME = 0.02     # seconds of calls per repeat


def cases(workdir: Path) -> list:
    """(layer, name, call) for every case, built from the imported gnp; the
    command cases' files go in workdir."""
    import numpy as np
    from gnp import bridge, cli, dynamics, fockoracle as fo, kernels, stateio

    separable = fo.PhysicalSpec("squeezed-thermal", [1.8, 2.2], [0.2, 0.1])
    coupled = fo.PhysicalSpec("squeezed-thermal", [1.8, 2.2], [0.2, 0.1])
    c, s = np.cos(0.4), np.sin(0.4)                 # beam splitter on modes 1, 2
    S = np.kron(np.eye(2), [[c, s], [-s, c]])
    coupled.operator_kernel = S.T @ coupled.operator_kernel @ S
    one = fo.PhysicalSpec("squeezed-thermal", [0.7], [0.4])
    thermal = fo.PhysicalSpec("thermal", [0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho = fo.gaussian_density(thermal, 40)
        rho_separable = fo.gaussian_density(separable, 22)
    state, ham = workdir / "state.json", workdir / "ham.json"
    stateio.write_state(state, kernels.make_squeezed_thermal([0.8], [0.3]), "sigma")
    stateio.write_hamiltonian(ham, dynamics.QuadraticHamiltonian(1, [[0.9, 0.2], [0.2, 0.7]]))
    four = kernels.make_squeezed_thermal([0.6, 0.9, 1.2, 1.5], [0.3, -0.2, 0.1, 0.0])
    traj = dynamics.closed_form_trajectory(
        "normal", kernels.ensure_form(four, "R"), np.eye(8) + 0.1, 1.0, 100)

    def command(*argv):
        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(list(argv)) != 0:
                    raise RuntimeError(f"gnp {argv[0]} failed")
        return call
    table = [("L4", f"gaussian_density 2-mode separable cutoff {cutoff}",
              lambda cutoff=cutoff: fo.gaussian_density(separable, cutoff))
             for cutoff in (14, 18, 22)]
    return [
        ("L3", "gnp phase --fn q calibrated grid 41x41",
         command("phase", str(state), "--fn", "q", "--convention", "calibrated",
                 "--grid=-2:2:41", "-o", str(workdir / "q.csv"))),
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
         command("audit", str(state), "--ham", str(ham), "--t", "1", "--with-oracle",
                 "--cutoff", "40", "-o", str(workdir / "audit.json"))),
        ("io", "trajectory CSV round trip 4-mode 101 rows",
         lambda: stateio.trajectory_from_csv(stateio.trajectory_to_csv(traj))),
    ]


def time_case(call, repeats: int, min_time: float) -> dict:
    """Median and IQR of the per-call time over repeats of `number` calls."""
    t0 = time.perf_counter()
    call()                                           # warm-up
    number = max(1, int(min_time / max(time.perf_counter() - t0, 1e-9)))
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        per_call.append((time.perf_counter() - t0) / number)
    q1, median, q3 = (statistics.quantiles(per_call, n=4) if repeats > 1
                      else per_call * 3)
    return {"median_s": median, "iqr_s": q3 - q1, "q1_s": q1, "q3_s": q3,
            "repeats": repeats, "number": number}


def git_revision(root: Path):
    """HEAD of the checkout at root, read from .git without starting git."""
    git = root / ".git"
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


def sources_dirty(src: Path):
    """Whether src differs from the checkout's HEAD; None without git."""
    try:
        out = subprocess.run(["git", "status", "--porcelain", "--", "."], cwd=src,
                             capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(out.strip())


def measure(src: Path, repeats: int = REPEATS, min_time: float = MIN_TIME) -> dict:
    """Provenance of the gnp tree at src (already on sys.path) and every
    case's timing."""
    result = {
        "revision": git_revision(src.resolve().parent),
        "dirty": sources_dirty(src),
        "cores": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cases": [],
    }
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as workdir:
        warnings.simplefilter("ignore")              # tail-mass notices
        for layer, name, call in cases(Path(workdir)):
            result["cases"].append({"layer": layer, "name": name,
                                    **time_case(call, repeats, min_time)})
    return result


def compare(a: dict, b: dict) -> list:
    """Print the second run's median over the first's for each shared case;
    returns the (name, ratio, noise) rows."""
    first = {case["name"]: case for case in a["cases"]}
    rows = []
    for case in b["cases"]:
        base = first.get(case["name"])
        if base is None:
            continue
        ratio = case["median_s"] / base["median_s"]
        noise = case["q1_s"] <= base["q3_s"] and base["q1_s"] <= case["q3_s"]
        rows.append((case["name"], ratio, noise))
        print(f"{case['name']:44s} {base['median_s'] * 1e3:9.3f} ms "
              f"{case['median_s'] * 1e3:9.3f} ms  x{ratio:.3f}"
              + ("  noise" if noise else ""))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("output", nargs="?", help="JSON file to write")
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parent.parent / "src",
                    help="directory holding the gnp package (default: ./src)")
    ap.add_argument("--compare", nargs=2, metavar="JSON",
                    help="compare two result files instead of timing")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(a, b)
        return 0
    if args.output is None:
        ap.error("an output path is required")
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(args.src.resolve()))
    result = measure(args.src)
    Path(args.output).write_text(json.dumps(result, indent=1) + "\n")
    for case in result["cases"]:
        print(f"{case['layer']} {case['name']:44s} {case['median_s'] * 1e3:9.3f} ms "
              f"(IQR {case['iqr_s'] * 1e3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
