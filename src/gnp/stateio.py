"""File formats: state/Hamiltonian JSON, and trajectory and phase-table CSV.

Complex entries are serialized as [re, im] pairs; floats are printed via
repr (shortest round-trip), so every file round-trips through its own
reader bit-exactly.  Both CSVs are `# key=value` lines, a header and float
rows, through one writer and one reader; this module takes no det.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import QuadraticHamiltonian, Trajectory
from .errors import GnpError
from .kernels import FORMS, GaussianState
from .phasespace import PhaseTable

_PHASE_COLUMNS = ["re", "im", "value_re", "value_im"]


class ParseError(GnpError):
    """Malformed or unreadable input file."""


def _matrix_to_pairs(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def _n_modes(doc, path) -> int:
    """A file's n_modes: a JSON integer >= 1 (not a bool, nor a float)."""
    n = doc["n_modes"]
    if type(n) is not int or n < 1:
        raise ParseError(f"{path}: n_modes must be an integer >= 1, got {json.dumps(n)}")
    return n


def _pairs_to_matrix(data, n: int, path) -> np.ndarray:
    """The 2n x 2n matrix of a file's [re, im] pair entries."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: matrix entries must be [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ParseError(f"{path}: matrix entries must be [re, im] pairs")
    M = arr[..., 0] + 1j * arr[..., 1]
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{path}: non-finite matrix entry")
    if M.shape != (2 * n, 2 * n):
        raise ParseError(f"{path}: matrix shape {M.shape} does not match "
                         f"n_modes={n}")
    return M


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def _dump(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_state(path, state: GaussianState, form: str) -> None:
    doc = {
        "n_modes": state.n_modes,
        "form": form,
        "matrix": _matrix_to_pairs(state.forms[form]),
    }
    if state.provenance:
        doc["provenance"] = state.provenance
    _dump(path, doc)


def read_state(path):
    """Load a state file; returns (GaussianState, stored form name).

    Keys other than n_modes, form, matrix and provenance are ignored.
    """
    doc = _load(path)
    try:
        n = _n_modes(doc, path)
        form = doc["form"]
        matrix = doc["matrix"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: missing or malformed field ({exc})") from exc
    if form not in FORMS:
        raise ParseError(f"{path}: unknown form {form!r}")
    state = GaussianState(
        n_modes=n,
        forms={form: _pairs_to_matrix(matrix, n, path)},
        provenance=doc.get("provenance", ""),
    )
    return state, form


def write_hamiltonian(path, ham: QuadraticHamiltonian) -> None:
    _dump(path, {"n_modes": ham.n_modes, "matrix": _matrix_to_pairs(ham.H)})


def read_hamiltonian(path) -> QuadraticHamiltonian:
    doc = _load(path)
    try:
        n = _n_modes(doc, path)
        M = _pairs_to_matrix(doc["matrix"], n, path)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: missing or malformed field ({exc})") from exc
    if np.abs(M.imag).max() > 0:
        raise ParseError(f"{path}: Hamiltonian kernel must be real")
    try:
        return QuadraticHamiltonian(n_modes=n, H=M.real)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _table_to_csv(meta: dict, header: list, table: np.ndarray) -> str:
    """`# key=value` meta lines, the header and the repr fields of a float
    table.  repr runs once per distinct bit pattern, not per field: values
    repeat, and 0.0 and -0.0 compare equal but print differently."""
    bits, inverse = np.unique(table.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    # the inverse's shape has changed across numpy 2.x releases
    fields = texts[inverse.reshape(table.shape)].tolist()
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines += [",".join(header), *map(",".join, fields)]
    return "\n".join(lines) + "\n"


def _csv_row(line: str, width: int) -> list:
    # one row at a time: the split strings of a whole file would be held at once
    fields = line.split(",")
    if len(fields) != width:
        raise ValueError(f"row has {len(fields)} fields, its header {width}")
    return [float(v) for v in fields]


def _table_from_csv(text: str):
    """Inverse of _table_to_csv; returns (meta dict, header, (m, width) float
    rows).  Raises ParseError on malformed text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n_meta = next((i for i, ln in enumerate(lines) if not ln.startswith("#")),
                  len(lines))
    if n_meta == len(lines):
        raise ParseError("CSV missing its column header")
    meta = {key: value for key, _, value in
            (ln[1:].strip().partition("=") for ln in lines[:n_meta])}
    header = lines[n_meta].split(",")
    try:
        rows = np.array([_csv_row(ln, len(header)) for ln in lines[n_meta + 1:]],
                        dtype=float).reshape(-1, len(header))
    except ValueError as exc:
        raise ParseError(f"CSV: {exc}") from exc
    return meta, header, rows


def trajectory_to_csv(traj: Trajectory) -> str:
    """Trajectory CSV: t, kernel entries re/im interleaved row-major, the
    trajectory's dets and det drift, and its symplectic residual if logged."""
    K = traj.kernels
    m, dim = K.shape[0], K.shape[-1]
    logged = {k: v for k in ("det_drift", "symplectic_residual")
              if (v := getattr(traj, k)) is not None}
    cols = ["t"] + [f"k{i}{j}_{part}" for i in range(dim) for j in range(dim)
                    for part in ("re", "im")] + ["det_re", "det_im", *logged]
    table = np.column_stack([traj.times, K.astype(complex).reshape(m, -1).view(float),
                             traj.dets.real, traj.dets.imag, *logged.values()])
    return _table_to_csv({"kind": traj.kind}, cols, table)


def trajectory_from_csv(text: str):
    """Inverse of trajectory_to_csv; returns (kind, times (m,), kernels
    (m, d, d)).  Raises ParseError on malformed text."""
    meta, header, rows = _table_from_csv(text)
    if "kind" not in meta:
        raise ParseError("trajectory CSV missing '# kind=' header")
    n_entries = sum(1 for c in header if c.startswith("k") and c.endswith("_re"))
    dim = int(round(np.sqrt(n_entries)))
    if dim == 0 or dim * dim != n_entries:
        raise ParseError(f"trajectory CSV header has {n_entries} kernel entries, "
                         "not a nonzero square")
    # each (re, im) pair read as one complex, so -0.0 keeps its sign
    K = rows[:, 1:1 + 2 * dim * dim].view(complex).reshape(-1, dim, dim)
    return meta["kind"], rows[:, 0], K


def phase_table_to_csv(table: PhaseTable) -> str:
    """Phase CSV: the table's function kind, convention and measure as meta
    lines, then one (re, im, value_re, value_im) row per point."""
    meta = {"function_kind": table.function_kind, "convention": table.convention,
            "measure_note": table.measure_note}
    rows = np.stack([table.points.real, table.points.imag,
                     table.values.real, table.values.imag], axis=1, dtype=float)
    return _table_to_csv(meta, _PHASE_COLUMNS, rows)


def phase_table_from_csv(text: str) -> PhaseTable:
    """Inverse of phase_table_to_csv.  Raises ParseError on malformed text."""
    meta, header, rows = _table_from_csv(text)
    if header != _PHASE_COLUMNS:
        raise ParseError(f"unexpected phase CSV header {','.join(header)!r}")
    points, values = rows.view(complex).T      # (re, im), (value_re, value_im)
    return PhaseTable(function_kind=meta.get("function_kind", ""),
                      convention=meta.get("convention", ""),
                      points=points, values=values,
                      measure_note=meta.get("measure_note", ""))
