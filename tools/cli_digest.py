"""Byte-identity digest of the gnp command line.

Runs a fixed set of `gnp` commands in process (`gnp.cli.main`) inside a
temporary directory with fixed relative file names, and writes one JSON map
from each command line to the SHA-256 of its exit code, stdout, stderr, the
warnings it raised (category and message, not the source location) and every
file it wrote.  The input files are hashed under the key "setup".

    python tools/cli_digest.py out.json                        # ./src
    python tools/cli_digest.py out.json --against OTHER/src    # and compare

Each tree's line also counts the commands that raised a warning.
--against also digests the gnp tree at OTHER/src, loaded into this process
under its own package name, prints the commands whose digests differ with
the parts of each that differ, and exits 1 on any difference.

The set covers thermal omega = 1.3, squeezed thermal omega = 0.9, r = 0.3 and
two-mode omega = 0.8/1.4, r = 0.3/-0.2, each stored as G, sigma, R and C:
validate, spectrum and convert to each form on every file; phase (Husimi
under both conventions with and without --check-norm, Wigner and
characteristic function under both conventions, an unknown convention) on
four grids on every one-mode file, one default phase per two-mode file, and
a default phase on a 101-point grid from the squeezed G and thermal sigma
files; evolve closed (both variants, 100 and 1000 steps) and RK4 (100 and
200 steps) on the sigma and R files and on three-mode thermal omega =
0.6/1.0/1.5 ones at t = 0, 0.7 and 2, plus error, one-step, zero- and
negative-step (both methods) and overflowing runs; audit on every file but
the three-mode G and C ones, on a stationary kernel, at t = 60, at t = 20
(where the convention audit fails and the report keeps the ordering audit),
with --with-oracle at --cutoff 30, at the default cutoff and at the refused
cutoffs 0 and 1, and once with a Hamiltonian of the wrong mode count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from layer_bench import SRC, load

FORMS = ("G", "sigma", "R", "C")
GRIDS = ("-2:2:41", "-3:1.5:17", "0:0:1", "-0.0:-0.0:1")
PHASE_VARIANTS = (
    ("--fn", "q", "--convention", "calibrated", "--check-norm"),
    ("--fn", "q", "--convention", "as-published"),
    ("--fn", "q", "--convention", "as-published", "--check-norm"),
    ("--fn", "wigner"),
    ("--fn", "char"),
    ("--fn", "wigner", "--convention", "as-published"),
    ("--fn", "char", "--convention", "as-published"),
    ("--fn", "q", "--convention", "bogus"),
)
EVOLVE_METHODS = (
    ("--method", "closed", "--variant", "a"),
    ("--method", "closed", "--variant", "b"),
    ("--method", "rk4"),
    ("--method", "rk4", "--steps", "200"),
    ("--method", "closed", "--steps", "1000"),
)


def _write_inputs(gnp) -> dict:
    """Write the state and Hamiltonian files; returns {label: n_modes}."""
    import numpy as np
    dynamics, kernels, stateio = gnp.dynamics, gnp.kernels, gnp.stateio

    states = {
        "t1": kernels.make_thermal([1.3]),
        "s1": kernels.make_squeezed_thermal([0.9], [0.3]),
        "s2": kernels.make_squeezed_thermal([0.8, 1.4], [0.3, -0.2]),
        "t3": kernels.make_thermal([0.6, 1.0, 1.5]),
    }
    for label, state in states.items():
        for form in FORMS:
            stored = kernels.GaussianState(
                n_modes=state.n_modes,
                forms={form: kernels.ensure_form(state, form)})
            stateio.write_state(f"{label}_{form}.json", stored, form)
    hams = {
        "h1": [[0.5, 1.0], [1.0, 0.5]],       # not positive definite
        "hgrow": [[4.0, 0.5], [0.5, 3.0]],
        "hE": [[0.0, 1.0], [1.0, 0.0]],       # E: the thermal kernel is stationary
        "h2": [[1.0, 0.2, 0.1, 0.0], [0.2, 1.3, 0.0, 0.3],
               [0.1, 0.0, 0.9, 0.1], [0.0, 0.3, 0.1, 1.1]],
        "h3": np.diag([1.0, 1.2, 0.8, 1.1, 0.9, 1.3]) + 0.1,
    }
    for label, H in hams.items():
        H = np.asarray(H, dtype=float)
        stateio.write_hamiltonian(
            f"{label}.json", dynamics.QuadraticHamiltonian(len(H) // 2, H))
    return {label: state.n_modes for label, state in states.items()}


def commands(modes: dict) -> list:
    """The argv lists of the set, in run order."""
    ham = {1: "h1.json", 2: "h2.json", 3: "h3.json"}
    files = [(f"{label}_{form}.json", n) for label, n in modes.items()
             if label != "t3" for form in FORMS]
    cmds = []
    for path, _ in files:
        cmds.append(["validate", path])
        cmds.append(["spectrum", path])
        cmds += [["convert", path, "--to", form, "-o", "out.json"] for form in FORMS]
    for path, n in files:
        if n == 1:
            cmds += [["phase", path, *variant, f"--grid={grid}", "-o", "out.csv"]
                     for variant in PHASE_VARIANTS for grid in GRIDS]
        else:
            cmds.append(["phase", path, "-o", "out.csv"])
    cmds += [["phase", path, "--grid=-3:3:101", "-o", "out.csv"]
             for path in ("s1_G.json", "t1_sigma.json")]
    for label, n in modes.items():
        for form in ("sigma", "R"):
            for t in ("0", "0.7", "2"):
                cmds += [["evolve", f"{label}_{form}.json", "--ham", ham[n],
                          "--t", t, *method, "-o", "out.csv"]
                         for method in EVOLVE_METHODS]
    cmds += [
        ["evolve", "t1_R.json", "--ham", "h1.json", "--t", "-1", "-o", "out.csv"],
        ["evolve", "t1_G.json", "--ham", "h1.json", "--t", "1", "-o", "out.csv"],
        ["evolve", "t1_R.json", "--ham", "h2.json", "--t", "1", "-o", "out.csv"],
        ["evolve", "missing.json", "--ham", "h1.json", "--t", "1", "-o", "out.csv"],
        ["evolve", "t1_sigma.json", "--ham", "h1.json", "--t", "1",
         "--method", "rk4", "--steps", "1", "-o", "out.csv"],
        *[["evolve", "t1_R.json", "--ham", "h1.json", "--t", "1",
           "--method", method, "--steps", steps, "-o", "out.csv"]
          for method in ("closed", "rk4") for steps in ("0", "-3")],
        ["evolve", "t1_R.json", "--ham", "hgrow.json", "--t", "90", "-o", "out.csv"],
        ["evolve", "t1_R.json", "--ham", "hgrow.json", "--t", "200", "-o", "out.csv"],
        ["evolve", "t1_R.json", "--ham", "hgrow.json", "--t", "200",
         "--method", "rk4", "--steps", "2000", "-o", "out.csv"],
    ]
    for path, n in files:
        cmds.append(["audit", path, "--ham", ham[n], "-o", "out.json"])
    cmds += [
        ["audit", "t1_R.json", "--ham", "hE.json", "-o", "out.json"],
        ["audit", "t1_G.json", "--ham", "hgrow.json", "--t", "60", "-o", "out.json"],
        ["audit", "t1_G.json", "--ham", "h1.json", "--t", "20", "-o", "out.json"],
        *[["audit", "t1_G.json", "--ham", "h1.json", "--with-oracle",
           "--cutoff", cutoff, "-o", "out.json"] for cutoff in ("30", "0", "1")],
        ["audit", "t1_G.json", "--ham", "h1.json", "--with-oracle", "-o", "out.json"],
        ["audit", "t1_R.json", "--ham", "h2.json", "-o", "out.json"],
        *[["audit", f"t3_{form}.json", "--ham", "h3.json", "-o", "out.json"]
          for form in ("sigma", "R")],
    ]
    return cmds


def _digest_files(names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0" + Path(name).read_bytes() + b"\0")
    return h.hexdigest()


PARTS = ("exit code", "stdout", "stderr", "warnings", "files")


def _run(cli, argv) -> dict:
    """One command's PARTS: exit code, output, warnings and new files."""
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse usage errors
            code = exc.code
    written = set(os.listdir()) - before
    parts = dict(zip(PARTS, (
        repr(code), out.getvalue(), err.getvalue(),
        "".join(f"{w.category.__name__}: {w.message}\n" for w in caught),
        _digest_files(written))))
    for name in written:
        os.remove(name)
    return parts


def _hash(parts: dict) -> str:
    """SHA-256 of a command's parts, in PARTS order."""
    h = hashlib.sha256()
    for name in PARTS:
        h.update(parts[name].encode() + b"\0")
    return h.hexdigest()


def hashes(result: dict) -> dict:
    """The JSON map: the setup digest, and one hash per command."""
    return {key: value if key == "setup" else _hash(value)
            for key, value in result.items()}


def digest(gnp) -> dict:
    """{"setup": digest of the input files, command line: its parts}."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            modes = _write_inputs(gnp)
            result = {"setup": _digest_files(os.listdir())}
            for argv in commands(modes):
                result[" ".join(argv)] = _run(gnp.cli, argv)
        finally:
            os.chdir(cwd)
    return result


def warned(result: dict) -> int:
    """How many commands of a digest raised a warning."""
    return sum(1 for key, parts in result.items()
               if key != "setup" and parts["warnings"])


def compare(a: dict, b: dict) -> int:
    """Print the keys whose digests differ, with the parts that differ for a
    command; returns their count."""
    differ = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
    only = sorted(a.keys() ^ b.keys())
    for key in differ:
        parts = "" if key == "setup" else " [{}]".format(
            ", ".join(name for name in PARTS if a[key][name] != b[key][name]))
        print(f"differs: {key}{parts}")
    for key in only:
        print(f"only in {'this tree' if key in a else 'the other'}: {key}")
    print(f"{len(a.keys() & b.keys()) - len(differ)} identical, "
          f"{len(differ)} differ, {len(only)} in one map only")
    return len(differ) + len(only)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("output", help="JSON map to write")
    ap.add_argument("--against", type=Path, metavar="OTHER/src",
                    help="also digest the gnp tree there and compare the maps")
    args = ap.parse_args(argv)
    result = digest(load(SRC, "gnp_this"))
    Path(args.output).write_text(json.dumps(hashes(result), indent=1) + "\n")
    print(f"{len(result) - 1} commands digested to {args.output}, "
          f"{warned(result)} raised a warning")
    if args.against is None:
        return 0
    other = digest(load(args.against, "gnp_other"))
    print(f"{len(other) - 1} commands digested on {args.against}, "
          f"{warned(other)} raised a warning")
    return 1 if compare(result, other) else 0


if __name__ == "__main__":
    sys.exit(main())
