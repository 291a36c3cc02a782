"""Phase-space evaluators, Gaussian integral, grids and normalization."""

import csv
import io

import numpy as np
import pytest

from gnp import bridge, kernels, matcore, phasespace, stateio
from gnp.errors import DomainError, NumericalError
from gnp.phasespace import PhaseGrid, PhaseTable
from gnp.stateio import phase_table_from_csv, phase_table_to_csv

LN2 = np.log(2.0)


def thermal():
    return kernels.make_thermal([LN2])


# ---------------------------------------------------------------------------
# evaluators

def test_calibrated_husimi_thermal():
    # thermal with mean occupation 1: Q(z) = 0.5 exp(-|z|^2 / 2)
    st = thermal()
    for z in (0.0, 0.7, 0.3 - 1.1j):
        q = phasespace.husimi_q(st, z, kernels.CALIBRATED)
        assert abs(q.imag) < 1e-12
        assert abs(q.real - 0.5 * np.exp(-abs(z) ** 2 / 2)) < 1e-12


def test_as_published_husimi_grows():
    # the literal kernel creates a positive exponent at this state
    st = thermal()
    q0 = phasespace.husimi_q(st, 0.0, kernels.AS_PUBLISHED)
    q1 = phasespace.husimi_q(st, 2.0, kernels.AS_PUBLISHED)
    assert abs(q1) > abs(q0)


def test_char_fn_is_one_at_origin():
    for st in (thermal(), kernels.make_squeezed_thermal([1.0], [0.3])):
        assert abs(phasespace.char_fn(st, 0.0) - 1.0) < 1e-12


def test_wigner_finite_on_grid():
    st = thermal()
    grid = PhaseGrid(re_range=(-3, 3, 21), im_range=(-3, 3, 21))
    table = phasespace.grid_eval(st, "wigner", grid)
    vals = table.values
    assert np.all(np.isfinite(vals))
    assert vals.real.max() <= 1.0 + 1e-12


def test_a_non_finite_value_raises_at_a_point_and_on_a_grid():
    # an unphysical sigma whose Wigner exponent grows: finite at the origin,
    # overflowing at z = 2 + 2i; a decaying value that underflows to 0 stays
    st = kernels.GaussianState(1, {"sigma": np.array([[0.0, 0.1], [0.1, 1.3]])})
    assert np.isfinite(phasespace.wigner(st, 2.0))
    with pytest.raises(DomainError, match=r"^phase-space value \(nan-infj\) is not "
                                          r"finite at z = \[2\.\+2\.j\]$"):
        phasespace.wigner(st, 2.0 + 2.0j)
    with pytest.raises(DomainError, match=r"at z = \[-2\.-2\.j\]$"):
        phasespace.grid_eval(st, "wigner", PhaseGrid((-2, 2, 41), (-2, 2, 41)))
    assert phasespace.wigner(thermal(), 40.0) == 0.0


def test_wigner_thermal_center_value():
    # W(0) = det(sigma)^{-1/2} = 1/nu for a single thermal mode
    st = thermal()
    assert abs(phasespace.wigner(st, 0.0) - 1.0 / 3.0) < 1e-12


def test_unknown_convention_is_rejected():
    st = thermal()
    with pytest.raises(ValueError):
        phasespace.husimi_q(st, 0.0, "bogus")
    with pytest.raises(ValueError):
        phasespace.q_norm_check(st, "bogus")
    with pytest.raises(ValueError):
        bridge.resolve_convention(kernels.ensure_form(st, "R"), "bogus")
    # the name is looked up before the integrand's decay is checked
    with pytest.raises(ValueError):
        phasespace.gauss_integral(-np.eye(2), np.zeros(2), "bogus")


# ---------------------------------------------------------------------------
# grids and tables

_GRID_CASES = [("husimi", kernels.AS_PUBLISHED), ("husimi", kernels.CALIBRATED),
               ("wigner", kernels.AS_PUBLISHED), ("charfn", kernels.AS_PUBLISHED)]


def _single_point(state, kind, conv, z):
    if kind == "husimi":
        return phasespace.husimi_q(state, z, conv)
    if kind == "wigner":
        return phasespace.wigner(state, z)
    return phasespace.char_fn(state, z)


def _per_point_reference(state, kind, conv, Zv):
    """The per-point formulas, written with 1-D products."""
    if kind == "husimi":
        N, R = bridge.resolve_convention(kernels.ensure_form(state, "R"), conv)
        return complex(N * np.exp(-0.5 * Zv @ R @ Zv))
    if kind == "wigner":
        sigma = kernels.ensure_form(state, "sigma")
        K = 2.0 * matcore.structured("E", state.n_modes) @ matcore.inverse(sigma)
        return complex(np.sqrt(matcore.determinant(sigma)) ** -1
                       * np.exp(-0.5 * Zv @ K @ Zv))
    C = kernels.ensure_form(state, "C")
    return complex(np.exp(-0.5 * Zv.conj() @ C @ Zv))


@pytest.mark.parametrize("kind,conv", [("husimi", kernels.CALIBRATED),
                                       ("wigner", kernels.AS_PUBLISHED),
                                       ("charfn", kernels.AS_PUBLISHED)])
def test_single_point_evaluators_check_the_amplitude_count(kind, conv):
    one = thermal()
    two = kernels.make_thermal([0.8, 1.4])
    with pytest.raises(ValueError, match=r"^state has 1 mode\(s\), z 2 amplitude\(s\)$"):
        _single_point(one, kind, conv, [0.1, 0.2])
    with pytest.raises(ValueError, match=r"^state has 2 mode\(s\), z 1 amplitude\(s\)$"):
        _single_point(two, kind, conv, 0.1)
    assert np.isfinite(_single_point(two, kind, conv, [0.1, 0.2j]))


@pytest.mark.parametrize("form", kernels.FORMS)
def test_grid_eval_equals_single_point_evaluators(form):
    sq = kernels.make_squeezed_thermal([0.9], [0.3])
    st = kernels.GaussianState(1, {form: kernels.ensure_form(sq, form)})
    grid = PhaseGrid(re_range=(-2, 2, 9), im_range=(-1.5, 1.5, 7))
    for kind, conv in _GRID_CASES:
        table = phasespace.grid_eval(st, kind, grid, conv)
        singles = [_single_point(st, kind, conv, z) for z in table.points]
        reference = [_per_point_reference(st, kind, conv, np.array([z, z.conj()]))
                     for z in table.points]
        assert table.values.tolist() == singles == reference      # bit for bit
    # W near the formula it replaced: a solve of sigma X = Z at each point
    sigma = kernels.ensure_form(st, "sigma")
    solved = [np.sqrt(matcore.determinant(sigma)) ** -1
              * np.exp(-(Zv.conj() @ matcore.dense_solve(sigma, Zv)))
              for Zv in np.stack([grid.points(), grid.points().conj()], axis=1)]
    values = phasespace.grid_eval(st, "wigner", grid).values
    np.testing.assert_allclose(values, solved, rtol=1e-13, atol=0)


def test_grid_eval_resolves_the_kernel_once(monkeypatch):
    calls = []
    ensure_form = kernels.ensure_form

    def counted(state, form):
        calls.append(form)
        return ensure_form(state, form)
    monkeypatch.setattr(kernels, "ensure_form", counted)

    st = kernels.GaussianState(1, {"C": ensure_form(thermal(), "C")})
    grid = PhaseGrid(re_range=(-1, 1, 5), im_range=(-1, 1, 5))
    for kind, conv in _GRID_CASES:
        calls.clear()
        phasespace.grid_eval(st, kind, grid, conv)
        assert len(calls) == 1


def test_grid_row_major_order():
    grid = PhaseGrid(re_range=(-1, 1, 3), im_range=(-1, 1, 2))
    pts = grid.points()
    assert pts.shape == (6,)
    assert pts[0] == -1 - 1j and pts[1] == -1 + 1j and pts[2] == 0 - 1j


def test_grid_eval_center_is_half():
    st = thermal()
    grid = PhaseGrid(re_range=(-1, 1, 3), im_range=(-1, 1, 3))
    table = phasespace.grid_eval(st, "husimi", grid, kernels.CALIBRATED)
    assert len(table.values) == 9
    center = table.values[4]
    assert abs(center - 0.5) < 1e-12


def test_single_point_grid():
    st = thermal()
    grid = PhaseGrid(re_range=(0.0, 0.0, 1), im_range=(0.0, 0.0, 1))
    table = phasespace.grid_eval(st, "charfn", grid)
    assert len(table.values) == 1
    assert abs(table.values[0] - 1.0) < 1e-12


def test_phase_table_csv_round_trip():
    st = thermal()
    grid = PhaseGrid(re_range=(-2, 2, 5), im_range=(-2, 2, 5))
    table = phasespace.grid_eval(st, "husimi", grid, kernels.CALIBRATED)
    text = phase_table_to_csv(table)
    back = phase_table_from_csv(text)
    assert back.function_kind == "husimi"
    assert back.convention == kernels.CALIBRATED
    assert back.measure_note == phasespace.MEASURE_NOTE
    assert phase_table_to_csv(back) == text      # bit-exact round trip
    np.testing.assert_array_equal(back.points, table.points)
    np.testing.assert_array_equal(back.values, table.values)


def _csv_writer_reference(table):
    """The per-point csv.writer table writer the array writer replaced."""
    buf = io.StringIO()
    buf.write(f"# function_kind={table.function_kind}\n")
    buf.write(f"# convention={table.convention}\n")
    buf.write(f"# measure_note={table.measure_note}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["re", "im", "value_re", "value_im"])
    for z, v in zip(table.points.tolist(), table.values.tolist()):
        w.writerow([repr(float(z.real)), repr(float(z.imag)),
                    repr(float(v.real)), repr(float(v.imag))])
    return buf.getvalue()


@pytest.mark.parametrize("axis", [(-2, 2, 9), (-3, 1.5, 17), (0.0, 0.0, 1),
                                  (-0.0, -0.0, 1), (-1, 0, 3), (-3, 3, 101)])
def test_to_csv_equals_csv_writer_reference(axis):
    grid = PhaseGrid(re_range=axis, im_range=axis)
    for st in (thermal(), kernels.make_squeezed_thermal([0.9], [0.3])):
        for kind, conv in _GRID_CASES:
            table = phasespace.grid_eval(st, kind, grid, conv)
            text = phase_table_to_csv(table)
            assert text == _csv_writer_reference(table)
            assert phase_table_to_csv(phase_table_from_csv(text)) == text


def test_negative_zero_survives_the_csv():
    table = PhaseTable("husimi", kernels.CALIBRATED,
                       points=np.array([complex(-0.0, -0.0)]),
                       values=np.array([complex(0.5, -0.0)]))
    text = phase_table_to_csv(table)
    assert text.splitlines()[-1] == "-0.0,-0.0,0.5,-0.0"
    assert text == _csv_writer_reference(table)
    assert phase_table_to_csv(phase_table_from_csv(text)) == text


def test_csv_formats_by_bit_pattern_not_by_value():
    # 0.0 and -0.0 compare equal, so a writer that groups equal values would
    # print one sign for both; the NaNs carry distinct bit patterns
    nan2 = np.array([0x7FF8000000000001]).view(float)[0]
    points = np.array([complex(0.0, -0.0), complex(-0.0, 0.0), complex(1.5, 1.5),
                       complex(-0.0, -0.0), complex(np.inf, -np.inf)])
    values = np.array([complex(-0.0, 0.0), complex(0.0, 1.5), complex(np.nan, nan2),
                       complex(1.5, -np.inf), complex(-0.0, np.nan)])
    table = PhaseTable("husimi", kernels.CALIBRATED, points=points, values=values)
    text = phase_table_to_csv(table)
    assert text.splitlines()[4:6] == ["0.0,-0.0,-0.0,0.0", "-0.0,0.0,0.0,1.5"]
    assert text == _csv_writer_reference(table)
    assert phase_table_to_csv(phase_table_from_csv(text)) == text


_GOOD_PHASE_CSV = ("# function_kind=husimi\nre,im,value_re,value_im\n"
                   "0.0,0.0,0.5,0.0\n1.0,0.0,0.25,0.0\n")


@pytest.mark.parametrize("text", [
    "# function_kind=husimi\nx,y,u,v\n1,2,3,4\n",
    "# function_kind=husimi\n",                                   # header only
    "re,im,value_re,value_im\n" + "1,2,3\n" * 4,                  # three-field rows
    _GOOD_PHASE_CSV.rsplit(",", 1)[0] + "\n",                   # short last row
    _GOOD_PHASE_CSV.replace("0.5,", "half,", 1),                 # non-float field
    _GOOD_PHASE_CSV + "# convention=calibrated\n",              # meta after header
], ids=["foreign-header", "header-only", "three-field-rows", "short-row",
        "non-float", "meta-after-header"])
def test_from_csv_rejects_a_foreign_header(text):
    assert phase_table_from_csv(_GOOD_PHASE_CSV).values[0] == 0.5
    with pytest.raises(stateio.ParseError):
        phase_table_from_csv(text)


# ---------------------------------------------------------------------------
# Gaussian integral

def _quadrature(V, X, radius=7.0, points=401):
    xs = np.linspace(-radius, radius, points)
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    z = xg + 1j * yg
    Zd = np.stack([np.conj(z), z])        # Z^dag rows for n = 1
    quad = np.zeros_like(z, dtype=complex)
    for i in range(2):
        for j in range(2):
            Zi = Zd[i]
            Zj = np.conj(Zd[j])           # Z column entry
            quad += Zi * V[i, j] * Zj
    integrand = np.exp(-0.5 * quad + Zd[0] * X[0] + Zd[1] * X[1])
    h = xs[1] - xs[0]
    return integrand.sum() * h * h / np.pi


def _random_balanced_v(rng):
    d = rng.uniform(1.2, 2.0)
    b = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.25
    c = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.25
    return np.array([[d, b], [c, d]])


def test_gauss_integral_calibrated_matches_quadrature():
    rng = np.random.default_rng(2024)
    for _ in range(4):
        V = _random_balanced_v(rng)
        X = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.4
        closed = phasespace.gauss_integral(V, X, kernels.CALIBRATED)
        quad = _quadrature(V, X)
        assert abs(closed - quad) < 1e-6


def test_gauss_integral_as_published_sign_differs():
    rng = np.random.default_rng(9)
    V = _random_balanced_v(rng)
    X = np.array([0.3 + 0.2j, -0.1 + 0.4j])
    pub = phasespace.gauss_integral(V, X, kernels.AS_PUBLISHED)
    cal = phasespace.gauss_integral(V, X, kernels.CALIBRATED)
    assert abs(pub - cal) > 1e-8      # the printed exponent sign flips the value
    # at X = 0 the exponent vanishes and the two conventions coincide
    pub0 = phasespace.gauss_integral(V, np.zeros(2), kernels.AS_PUBLISHED)
    cal0 = phasespace.gauss_integral(V, np.zeros(2), kernels.CALIBRATED)
    assert abs(pub0 - cal0) < 1e-14


def test_gauss_integral_rejects_growth_and_unbalanced():
    with pytest.raises(DomainError):
        phasespace.gauss_integral(-np.eye(2), np.zeros(2))
    with pytest.raises(DomainError):
        phasespace.gauss_integral(np.diag([1.0, 2.0]), np.zeros(2))


@pytest.mark.parametrize("scale", [0.5, 4.0])
def test_gauss_integral_equal_block_bound_just_inside_and_outside(scale):
    # the diagonal blocks may differ by 1e-10 * max(1, max|V|)
    limit = 1e-10 * max(1.0, scale)
    V = lambda delta: np.diag([scale, scale + delta])
    inside = phasespace.gauss_integral(V(0.5 * limit), np.zeros(2))
    np.testing.assert_allclose(inside, 1.0 / scale, rtol=1e-9)
    with pytest.raises(DomainError,
                       match="^closed form requires equal diagonal blocks of V$"):
        phasespace.gauss_integral(V(2.0 * limit), np.zeros(2))


def test_gauss_integral_refuses_a_nan_amplitude():
    with pytest.raises(NumericalError, match="solve residual nan > 1e-10$"):
        phasespace.gauss_integral(1.5 * np.eye(2), np.array([np.nan, 0.2]))


# ---------------------------------------------------------------------------
# normalization quadrature

def test_q_norm_calibrated_is_one():
    total = phasespace.q_norm_check(thermal(), kernels.CALIBRATED)
    assert abs(total - 1.0) < 1e-6


def test_q_norm_as_published_divergent():
    with pytest.raises(DomainError) as err:
        phasespace.q_norm_check(thermal(), kernels.AS_PUBLISHED)
    assert "integral" in str(err.value)   # finite-box estimate is reported


def test_q_norm_vacuum_boundary_as_published():
    # R = -E is the literal vacuum kernel; the published sign makes the
    # integrand grow, and the error must carry the box estimate
    st = kernels.GaussianState(1, {"R": -np.eye(2)[::-1].astype(complex)})
    with pytest.raises(DomainError) as err:
        phasespace.q_norm_check(st, kernels.AS_PUBLISHED)
    assert "integral" in str(err.value)


def test_q_norm_calibrated_divergent_raises_before_the_estimate():
    # R = E decays as published; its calibrated (negated) kernel grows, and
    # the trace-normalizing prefactor raises before any box estimate is made
    st = kernels.GaussianState(1, {"R": np.eye(2)[::-1].astype(complex)})
    with pytest.raises(DomainError) as err:
        phasespace.q_norm_check(st, kernels.CALIBRATED)
    assert "trace integrand does not decay" in str(err.value)
    assert "finite-box estimate" not in str(err.value)


@pytest.mark.parametrize("convention", [kernels.CALIBRATED, kernels.AS_PUBLISHED])
def test_q_norm_check_resolves_the_kernel_once(convention, monkeypatch):
    calls = []

    def counted(R, conv):
        calls.append(conv)
        return resolve(R, conv)
    resolve = bridge.resolve_convention
    monkeypatch.setattr(bridge, "resolve_convention", counted)
    st = kernels.make_squeezed_thermal([0.9], [0.3])
    if convention == kernels.CALIBRATED:
        phasespace.q_norm_check(st, convention)
    else:
        with pytest.raises(DomainError):
            phasespace.q_norm_check(st, convention)
    assert calls == [convention]
