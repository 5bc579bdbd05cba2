import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

from confsphere.lorentz import Dimension
from confsphere import sphgrid as sg
from confsphere import spectral_ops as so
from confsphere.special import ultraspherical_table
from conftest import knapp_stein_oracle, pair_bilinear, random_unit, rounding_tol


def test_quad_area(grid16):
    one = sg.GridFunction(grid16, np.ones(grid16.shape))
    assert abs(sg.quad(one) - 4 * np.pi) < 1e-12


def test_quad_squared_distance(grid16):
    pts = grid16.points()
    vals = (pts[..., 0] - 1) ** 2 + pts[..., 1] ** 2 + pts[..., 2] ** 2
    assert abs(sg.quad(sg.GridFunction(grid16, vals)) - 8 * np.pi) < 1e-12


def test_quad_odd_vanishes(grid16):
    f = sg.GridFunction(grid16, grid16.points()[..., 0])
    assert abs(sg.quad(f)) < 1e-12


def test_orthonormality(grid16):
    # all pairs up to degree 4 through the forward transform
    for l in range(5):
        for m in range(-l, l + 1):
            c = sg.coeffs_zero(grid16.L)
            c.set(l, m, 1.0)
            f = sg.sht_inverse(c, grid16)
            c2 = sg.sht_forward(f)
            diff = c2.c - c.c
            assert np.abs(diff).max() < 1e-12


def test_mean_of_single_harmonic(grid16):
    c = sg.coeffs_zero(grid16.L)
    c.set(1, 0, 1.0)
    f = sg.sht_inverse(c, grid16)
    assert abs(sg.quad(f)) < 1e-12


def test_roundtrip_random(grid32):
    c = sg.random_coeffs(32, 7)
    f = sg.sht_inverse(c, grid32)
    c2 = sg.sht_forward(f)
    assert np.abs(c2.c - c.c).max() / np.abs(c.c).max() < 1e-10


def test_parseval(grid32):
    c = sg.random_coeffs(24, 3).pad(32)
    f = sg.sht_inverse(c, grid32)
    power = sg.quad(sg.GridFunction(grid32, np.abs(f.values) ** 2))
    assert abs(power - c.l2_norm() ** 2) < 1e-9 * c.l2_norm() ** 2


@settings(derandomize=True, deadline=None, max_examples=60)
@given(L=st.integers(1, 32), extra_theta=st.integers(0, 3), extra_phi=st.integers(0, 3),
       phi_offset=st.floats(0.0, 2 * np.pi), data=st.data())
def test_roundtrip_and_parseval_property(L, extra_theta, extra_phi, phi_offset, data):
    # explicit sizes at or above the minimal ones for degree L (n_phi odd
    # and even), a random azimuth offset and a random degree up to the
    # grid's: analysis inverts synthesis, with nothing aliased above the
    # field's degree, and the quadrature of |f|^2 is its coefficient norm
    grid = sg.make_grid(n_theta=L + 1 + extra_theta, n_phi=2 * L + 1 + extra_phi,
                        phi_offset=phi_offset)
    degree = data.draw(st.integers(0, grid.L), label="degree")
    c = sg.random_coeffs(degree, data.draw(st.integers(0, 2 ** 16), label="seed")).pad(grid.L)
    f = sg.sht_inverse(c, grid)
    assert np.abs(sg.sht_forward(f).c - c.c).max() / np.abs(c.c).max() < 1e-10
    power = sg.quad(sg.GridFunction(grid, np.abs(f.values) ** 2))
    assert abs(power - c.l2_norm() ** 2) < 1e-9 * c.l2_norm() ** 2


# (grid degree, phi_offset): the base grid, degree 64, an offset azimuth
TRANSFORM_GRIDS = [(16, 0.0), (64, 0.0), (16, 0.3)]


def test_synth_at_points_matches_grid(rng):
    # the base field, then full band on each extra grid
    for (L, phi_offset), degree in zip(TRANSFORM_GRIDS, (10, 64, 16)):
        grid = sg.make_grid(L, phi_offset=phi_offset)
        c = sg.random_coeffs(degree, 5).pad(L)
        tol = rounding_tol(c)
        f = sg.sht_inverse(c, grid)
        assert np.abs(sg.synth_at_points(c, grid.points()) - f.values).max() < tol
        pts = random_unit(rng, 50)
        direct = np.zeros(50, dtype=complex)
        # against scipy spherical harmonics in our convention (pole = x1 axis)
        theta = np.arccos(np.clip(pts[:, 0], -1, 1))
        phi = np.arctan2(pts[:, 2], pts[:, 1])
        for l in range(degree + 1):
            ylm = sp.sph_harm_y(l, np.arange(-l, l + 1), theta[:, None], phi[:, None])
            for j, m in enumerate(range(-l, l + 1)):
                direct += c.get(l, m) * ylm[:, j]
        assert np.abs(sg.synth_at_points(c, pts) - direct).max() < tol


def test_value_at_pole(grid16):
    c = sg.random_coeffs(12, 9)
    want = sg.synth_at_points(c, np.array([1.0, 0.0, 0.0]))
    assert abs(sg.value_at_pole(c) - complex(want)) < 1e-12


def _legendre_rows_reference(L, u):
    """The Legendre recurrence as the row-by-row generator legendre_table
    was first built on: (l, m, p_lm(u)), m-major (test-only reference)."""
    s = np.sqrt(np.maximum(1.0 - u * u, 0.0))
    pmm = np.full(u.shape, 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(L + 1):
        if m > 0:
            pmm = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * pmm
        yield m, m, pmm
        p_prev2, p_prev1 = None, pmm
        for l in range(m + 1, L + 1):
            if l == m + 1:
                p = math.sqrt(2.0 * m + 3.0) * u * pmm
            else:
                a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                p = a * (u * p_prev1 - b * p_prev2)
            yield l, m, p
            p_prev2, p_prev1 = p_prev1, p


def test_legendre_table_bitwise_equal_to_row_generator(rng):
    for L in (0, 1, 2, 17, 96):
        for u in (np.polynomial.legendre.leggauss(L + 3)[0],
                  np.array([-1.0, -1.0 + 1e-15, 0.0, 1.0 - 1e-15, 1.0]),
                  rng.uniform(-1.0, 1.0, size=(2, 3))):
            want = np.empty(((L + 1) * (L + 2) // 2,) + u.shape)
            for l, m, p in _legendre_rows_reference(L, u):
                want[sg.plm_index(l, m, L)] = p
            got = sg.legendre_table(L, u)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _sph_harm_oracle(c, pts):
    """sum_lm c_lm Y_lm at the points through scipy's sph_harm_y_all (pole
    on the first axis), in batches of points so each table stays small."""
    L = c.L
    theta = np.arccos(np.clip(pts[:, 0], -1.0, 1.0))
    phi = np.arctan2(pts[:, 2], pts[:, 1])
    # scipy's m axis holds m at index m mod (2L+1)
    c_scipy = np.roll(c.c, -L, axis=1)
    batch = max(1, (1 << 20) // (L + 1) ** 2)
    return np.concatenate([
        np.einsum("lm,lmn->n", c_scipy,
                  sp.sph_harm_y_all(L, L, theta[i: i + batch], phi[i: i + batch]))
        for i in range(0, len(pts), batch)])


def _poles_then_random(rng, count):
    """The exact poles, points one rounding step inside them, then random
    points, count in all."""
    near = np.sqrt(1.0 - (1.0 - 1e-15) ** 2)
    special = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                        [1.0 - 1e-15, near, 0.0], [-(1.0 - 1e-15), 0.0, -near]])
    return np.concatenate([special, random_unit(rng, count - len(special))])


@pytest.mark.parametrize("L", [0, 1, 2, 17, 96])
def test_synth_at_points_against_scipy(L, rng):
    # one more point than a chunk: a chunk's Legendre block holds at most
    # SYNTH_BLOCK doubles, and the counts one below, at and one above the
    # chunk length cover a short, an exact and a one-point last chunk
    chunk = sg.SYNTH_BLOCK // (L + 1)
    pts = _poles_then_random(rng, chunk + 1)
    c = sg.random_coeffs(L, 40 + L)
    tol = rounding_tol(c)
    want = _sph_harm_oracle(c, pts)
    for count in (chunk - 1, chunk, chunk + 1):
        assert np.abs(sg.synth_at_points(c, pts[:count]) - want[:count]).max() < tol
    # one point of shape (3,) gives a 0-d array; (2, 3, 3) gives (2, 3)
    one = sg.synth_at_points(c, pts[0])
    assert one.shape == () and abs(one - want[0]) < tol
    block = sg.synth_at_points(c, pts[:6].reshape(2, 3, 3))
    assert block.shape == (2, 3)
    assert np.abs(block - want[:6].reshape(2, 3)).max() < tol


@pytest.mark.parametrize("L", [0, 1, 2, 17, 64])
def test_zonal_legendre_table_against_scipy(L, rng):
    # the nu = 1/2 ultraspherical table is the Legendre table, on Gauss
    # nodes and on random points of [-1, 1] with both endpoints.  The
    # oracle is scipy's lpmv at m = 0: eval_legendre itself is 1.4e-13
    # from mpmath at l = 64 on the first Gauss node, lpmv and the table
    # both under 1e-14
    u = np.concatenate([np.polynomial.legendre.leggauss(L + 1)[0],
                        rng.uniform(-1.0, 1.0, 50), [-1.0, 1.0]])
    got = ultraspherical_table(0.5, L, u)
    want = np.array([sp.lpmv(0, l, u) for l in range(L + 1)])
    assert got.shape == (L + 1, u.size)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_synth_at_points_against_scipy_at_degree_256(rng):
    # the phase e^{i m phi} is a running product of e^{i phi}, so its
    # rounding grows with m; the same bound holds far above degree 128
    c = sg.random_coeffs(256, 296)
    pts = _poles_then_random(rng, 50)
    err = np.abs(sg.synth_at_points(c, pts) - _sph_harm_oracle(c, pts)).max()
    assert err < rounding_tol(c)


def test_synth_at_points_memory_bounded_at_high_degree():
    # degree 128 on a moved 129 x 257 grid: one Legendre block of at most
    # SYNTH_BLOCK doubles (1 MB), plus arrays of O(points) size, the
    # output among them; the generator this replaced peaked at 5.0 MB
    from confsphere.lorentz import act, boost
    pts = act(boost(0.3, Dimension(3)), sg.make_grid(128).flat_points())
    c = sg.random_coeffs(128, 12)
    tracemalloc.start()
    try:
        sg.synth_at_points(c, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * sg.SYNTH_BLOCK + 4 * 16 * len(pts)


def test_rounding_truncated_keeps_the_band_limit():
    # exact zeros above degree 8 drop and degree 8 stays, coefficients
    # untouched; a full-band field keeps every degree, and a zero field
    # keeps degree 0
    c = sg.random_coeffs(8, 41)
    cut = sg.rounding_truncated(c.pad(64))
    assert cut.L == 8 and np.array_equal(cut.c, c.c)
    full = sg.random_coeffs(64, 42)
    cut = sg.rounding_truncated(full)
    assert cut.L == 64 and np.array_equal(cut.c, full.c)
    assert sg.rounding_truncated(sg.coeffs_zero(16)).L == 0


def test_sampled_value_at_pole_matches_coefficient_route():
    # the pole value of the grid-degree projection, read from the zonal
    # ring sums, against analysis followed by value_at_pole: on band-limited
    # samples and on a moved field, which is not band-limited
    from confsphere.lorentz import boost
    from confsphere.reps import pi_act_coeffs
    for L in (16, 96):
        grid = sg.make_grid(L, phi_offset=0.2)
        c = sg.random_coeffs(8, 30 + L)
        for f in (sg.sht_inverse(c, grid),
                  pi_act_coeffs(Dimension(3), 0.3 + 0.1j, boost(0.4, Dimension(3)), c, grid)):
            want = sg.value_at_pole(sg.sht_forward(f))
            assert abs(sg.sampled_value_at_pole(f) - want) < 1e-13 * abs(want)


def test_real_field_symmetry():
    c = sg.random_coeffs(8, 4, real_field=True)
    g = sg.make_grid(8)
    f = sg.sht_inverse(c, g)
    assert np.abs(f.values.imag).max() < 1e-12
    for l in range(9):
        for m in range(1, l + 1):
            assert abs(c.get(l, -m) - (-1) ** m * np.conj(c.get(l, m))) < 1e-15


def test_grid_validation():
    with pytest.raises(ValueError):
        sg.make_grid(0)
    with pytest.raises(ValueError):
        sg.make_grid(1000)
    with pytest.raises(ValueError):
        sg.make_grid(L=8, n_theta=4, n_phi=40)
    with pytest.raises(ValueError, match="n_theta=24, n_phi=0 resolve no degree: need L >= 1"):
        sg.make_grid(n_theta=24, n_phi=0)
    g = sg.make_grid(n_theta=24, n_phi=48)
    assert g.L == 23
    assert abs(g.weights_2d().sum() - 4 * np.pi) < 1e-12


def test_zonal_integral_closed_forms():
    d3, d4, d5 = Dimension(3), Dimension(4), Dimension(5)
    assert abs(sg.zonal_integral(d3, lambda t: np.ones_like(t)) - 4 * np.pi) < 1e-10
    assert abs(sg.zonal_integral(d3, lambda t: 2 - 2 * t) - 8 * np.pi) < 1e-10
    assert abs(sg.zonal_integral(d4, lambda t: np.ones_like(t)) - 2 * np.pi ** 2) < 1e-10


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("s", [2.0, 0.5, -0.9, complex(-1.2, 0.4)])
def test_zonal_integral_area_family(n, s):
    # 2^{n-1} pi^rho 2^s Gamma(s/2+rho)/Gamma(s/2+2 rho)
    dim = Dimension(n)
    rho = dim.rho
    if complex(s).real <= -(n - 1) + 0.5:
        pytest.skip("outside the direct window")
    want = (2 ** (n - 1) * np.pi ** rho * 2 ** complex(s)
            * sp.gamma(complex(s) / 2 + rho) / sp.gamma(complex(s) / 2 + 2 * rho))
    got = sg.zonal_integral(dim, None, singular_power=s)
    assert abs(got - want) / abs(want) < 1e-8
    # the black-box route carries the same profile with reduced accuracy
    got_bb = sg.zonal_integral(dim, lambda t: (2 - 2 * t) ** (complex(s) / 2))
    assert abs(got_bb - want) / abs(want) < 1e-5


def funk_hecke(dim, F, l, singular_power=0.0, rtol=1e-12):
    """Eigenvalue of the zonal convolution f -> int F(<x, y>) f(y) dsigma(y)
    on degree-l spherical harmonics: the profile integrated against the
    ultraspherical polynomial normalized at 1, with the (1-t^2)^{(n-3)/2}
    weight and the |S^{n-2}| area factor.  Reduces to 2 pi int F P_l dt
    for n = 3 and to the plain area integral for l = 0.  See
    zonal_integral for the role of singular_power."""
    return sg.funk_hecke_table(dim, F, l, singular_power=singular_power,
                               rtol=rtol)[l]


def test_funk_hecke_l0_matches_zonal():
    d3 = Dimension(3)
    for s in (0.0, 1.3):
        F = lambda t: (2 - 2 * t) ** (s / 2)
        a = funk_hecke(d3, F, 0)
        b = sg.zonal_integral(d3, F)
        assert abs(a - b) < 1e-10 * abs(b)
        want = 2 ** (s + 3) * np.pi / (s + 2)
        assert abs(a - want) < 1e-9 * abs(want)


def test_funk_hecke_constant_higher_degrees():
    d3 = Dimension(3)
    for l in (1, 2, 5):
        assert abs(funk_hecke(d3, lambda t: np.ones_like(t), l)) < 1e-10


def test_funk_hecke_against_legendre_quadrature():
    # n = 3 reduction: 2 pi int F(t) P_l(t) dt; absolute accuracy is set
    # by the l = 0 scale, so small high-degree eigenvalues get a mixed bound
    d3 = Dimension(3)
    F = lambda t: np.exp(t)
    u, w = np.polynomial.legendre.leggauss(60)
    scale = 2 * np.pi * np.dot(w, F(u))
    for l in (0, 1, 3, 6):
        want = 2 * np.pi * np.dot(w, F(u) * sp.eval_legendre(l, u))
        got = funk_hecke(d3, F, l, rtol=1e-14)
        assert abs(got - want) < 1e-10 * abs(want) + 1e-13 * scale


def test_kernel_eigenvalues_closed_form():
    # e_l(s) = (-1)^l 2^{s+2} pi Gamma(s/2+1)^2 / (Gamma(s/2+1-l) Gamma(s/2+2+l))
    d3 = Dimension(3)
    for s in (1.7, complex(-0.7, 0.2)):
        eig = sg.kernel_eigenvalues(d3, s, 8)
        for l in (0, 1, 4, 8):
            want = ((-1) ** l * 2 ** (complex(s) + 2) * np.pi
                    * sp.gamma(complex(s) / 2 + 1) ** 2
                    / (sp.gamma(complex(s) / 2 + 1 - l)
                       * sp.gamma(complex(s) / 2 + 2 + l)))
            assert abs(eig[l] - want) / abs(want) < 1e-10
    # the production eigenvalues, per degree up to l = 128, across the
    # direct range, the continued range and large exponents
    for n in (3, 4, 5):
        dim = Dimension(n)
        for s in (-(n - 1) + 0.55, 0.3, 1.7, 4.6, -3.3, -5.7, -8.9, 39.6, 40.3):
            got = so.knapp_stein_multipliers(dim, s + dim.rho, 128)
            want = knapp_stein_oracle(n, s, 128)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13, (n, s)
        for s in (complex(-0.7, 0.2), complex(-9.2, 0.3), complex(0.3, -2.0),
                  complex(39.7, 0.5)):
            got = so.knapp_stein_multipliers(dim, s + dim.rho, 32)
            want = knapp_stein_oracle(n, s, 32)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13, (n, s)


def test_convolution_theorem(grid32):
    # direct double-quadrature convolution diagonalizes on harmonics
    d3 = Dimension(3)
    F = lambda t: np.exp(-2.0 * (1 - t))
    c = sg.random_coeffs(6, 11).pad(grid32.L)
    f = sg.sht_inverse(c, grid32)
    P = grid32.flat_points()
    K = F(np.clip(P @ P.T, -1, 1))
    conv = sg.GridFunction(
        grid32, (K @ (f.values.reshape(-1) * grid32.flat_weights())).reshape(grid32.shape))
    chat = sg.sht_forward(conv)
    eig = sg.funk_hecke_table(d3, F, 8)
    for l in range(7):
        for m in range(-l, l + 1):
            want = eig[l] * c.get(l, m)
            if abs(want) > 1e-9:
                assert abs(chat.get(l, m) - want) / abs(want) < 1e-8


def test_bilinear_and_inner_pairings(grid16):
    c1 = sg.random_coeffs(6, 1).pad(8)
    c2 = sg.random_coeffs(6, 2).pad(8)
    f1 = sg.sht_inverse(c1.pad(16), grid16)
    f2 = sg.sht_inverse(c2.pad(16), grid16)
    want = sg.quad(sg.GridFunction(grid16, f1.values * f2.values))
    assert abs(pair_bilinear(c1, c2) - want) < 1e-12 * abs(want) + 1e-12


def test_coeff_file_roundtrip(tmp_path):
    c = sg.random_coeffs(5, 31)
    path = tmp_path / "c.json"
    sg.save_coeffs(path, c)
    blob = json.loads(path.read_text())
    assert blob["n"] == 3 and blob["L"] == 5
    assert all(len(row) == 4 for row in blob["coeffs"])
    c2 = sg.load_coeffs(path)
    assert np.abs(c2.c - c.c).max() < 1e-15


def test_batched_transforms_match():
    for (L, phi_offset), degree in zip(TRANSFORM_GRIDS, (8, 64, 16)):
        grid = sg.make_grid(L, phi_offset=phi_offset)
        c = sg.random_coeffs(degree, 17)
        tol = rounding_tol(c)
        f = sg.sht_inverse(c.pad(L), grid)
        V = f.values.reshape(-1, 1)
        C = sg.sht_forward_columns(grid, V, c.L)
        # coefficient rows are HarmonicCoeffs.c.reshape(-1)
        assert np.abs(C[:, 0] - c.c.reshape(-1)).max() < tol
        other = sg.make_grid(L, phi_offset=phi_offset + 0.3)
        V2 = sg.sht_synthesize_columns(other, C, c.L)
        f2 = sg.sht_inverse(c, other)
        assert np.abs(V2[:, 0] - f2.values.reshape(-1)).max() < tol
        # batches given as transposes (columns not contiguous)
        X = np.stack([c.c.reshape(-1), 2j * c.c.reshape(-1)])
        V3 = sg.sht_synthesize_columns(other, X.T, c.L)
        assert np.abs(V3[:, 1] - 2j * f2.values.reshape(-1)).max() < 2 * tol
        C3 = sg.sht_forward_columns(other, np.stack([V3[:, 0], V3[:, 1]]).T, c.L)
        assert np.abs(C3[:, 1] - 2j * c.c.reshape(-1)).max() < 2 * tol


def test_grid_builds_its_legendre_table_once(monkeypatch):
    # the grid's plan (Legendre table and phase matrix) is built on first
    # use; repeated transforms at its degree and below build nothing more
    calls = []
    table, phase = sg.legendre_table, sg._phase_matrix
    monkeypatch.setattr(sg, "legendre_table",
                        lambda L, u: calls.append(("table", L)) or table(L, u))
    monkeypatch.setattr(sg, "_phase_matrix",
                        lambda grid, L: calls.append(("phase", L)) or phase(grid, L))
    grid = sg.make_grid(24)
    c = sg.random_coeffs(24, 3)
    for L in (24, 16, 8, 24):
        f = sg.sht_inverse(c, grid)
        sg.sht_forward(f, L)
        V = sg.sht_synthesize_columns(grid, np.ones((L + 1) * (2 * L + 1))[:, None], L)
        sg.sht_forward_columns(grid, V, L)
    assert calls == [("table", 24), ("phase", 24)]
    assert not grid.legendre.flags.writeable and not grid.phase.flags.writeable
    # a lower-degree table is the leading rows of each order's block of
    # the grid's, and the transforms read those rows as views
    low = table(16, grid.u)
    blocks = dict(sg._order_blocks(grid, 16))
    for m in range(17):
        start = sg.plm_index(m, m, 16)
        assert np.array_equal(low[start: start + 17 - m], blocks[m])
        assert np.shares_memory(blocks[m], grid.legendre)
    # a lower degree reads the middle rows m = -16..16 of the phase matrix
    assert np.array_equal(phase(grid, 16), grid.phase[8: 41])


def _transform_pair_reference(grid, L):
    """Forward and synthesis as each call computed them before grids held
    a plan (test-only reference): a fresh phase matrix, and each order's
    rows gathered from a degree-major packed table."""
    phase = np.exp(-1j * np.outer(np.arange(-L, L + 1), grid.phi))
    tab = np.empty(((L + 1) * (L + 2) // 2, grid.n_theta))
    for l, m, p in _legendre_rows_reference(L, grid.u):
        tab[l * (l + 1) // 2 + m] = p
    l = np.arange(L + 1)
    blocks = [tab[l[m:] * (l[m:] + 1) // 2 + m] for m in range(L + 1)]

    def rmm(P, X):
        return (P @ X.view(float)).view(complex)

    def forward(V):
        nt, npz = grid.shape
        B = V.shape[1]
        G = (phase * grid.dphi) @ V.reshape(nt, npz, B)
        out = np.zeros((L + 1, 2 * L + 1, B), dtype=complex)
        for m, block in enumerate(blocks):
            block = block * grid.w
            out[m:, L + m] = rmm(block, G[:, L + m])
            if m > 0:
                out[m:, L - m] = (-1) ** m * rmm(block, G[:, L - m])
        return out.reshape(-1, B)

    def synthesize(C):
        B = C.shape[1]
        C = np.ascontiguousarray(C, dtype=complex).reshape(L + 1, 2 * L + 1, B)
        H = np.empty((grid.n_theta, 2 * L + 1, B), dtype=complex)
        for m, block in enumerate(blocks):
            H[:, L + m] = rmm(block.T, C[m:, L + m])
            if m > 0:
                H[:, L - m] = (-1) ** m * rmm(block.T, C[m:, L - m])
        return (np.conj(phase).T @ H).reshape(-1, B)

    return forward, synthesize


def test_transform_pair_bitwise_equal_to_per_call_reference(rng):
    # the plan changes where the phases and Legendre rows come from, not
    # the arithmetic: at the grid's degree and below, on an offset azimuth
    # and on an odd n_phi above 2L + 1
    for grid in (sg.make_grid(12), sg.make_grid(12, phi_offset=0.4),
                 sg.make_grid(n_theta=14, n_phi=31, phi_offset=0.1)):
        for L in (grid.L, grid.L // 2, 0):
            forward, synthesize = _transform_pair_reference(grid, L)
            V = rng.normal(size=(grid.n_theta * grid.n_phi, 4)).view(complex)
            C = rng.normal(size=((L + 1) * (2 * L + 1), 4)).view(complex)
            for got, want in ((sg.sht_forward_columns(grid, V, L), forward(V)),
                              (sg.sht_synthesize_columns(grid, C, L), synthesize(C))):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_grid_plan_holds_one_copy_of_the_table():
    # building a degree-128 grid's plan keeps no second full table: the
    # tracemalloc peak stays within 15% of what the plan itself holds
    grid = sg.make_grid(128)
    tracemalloc.start()
    try:
        grid.legendre, grid.phase
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * (grid.legendre.nbytes + grid.phase.nbytes)


def test_synthesis_above_the_grid_degree():
    # coefficients the grid does not resolve take fresh phases and a fresh
    # table, leaving the grid's plan unbuilt
    grid = sg.make_grid(12, phi_offset=0.2)
    c = sg.random_coeffs(20, 8)
    tol = rounding_tol(c)
    want = sg.synth_at_points(c, grid.points())
    assert np.abs(sg.sht_inverse(c, grid).values - want).max() < tol
    C = np.stack([c.c.reshape(-1), 1j * c.c.reshape(-1)], axis=1)
    V = sg.sht_synthesize_columns(grid, C, c.L)
    assert np.abs(V[:, 1] - 1j * want.reshape(-1)).max() < tol
    assert "legendre" not in vars(grid) and "phase" not in vars(grid)


def test_transforms_reject_a_negative_degree(grid16):
    f = sg.GridFunction(grid16, np.ones(grid16.shape))
    with pytest.raises(ValueError, match="requested -1"):
        sg.sht_forward(f, -1)
    with pytest.raises(ValueError, match="requested -1"):
        sg.sht_synthesize_columns(grid16, np.ones((0, 1)), -1)


def test_gridfunction_validation(grid16):
    with pytest.raises(ValueError):
        sg.GridFunction(grid16, np.ones((3, 3)))
    bad = np.ones(grid16.shape)
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        sg.GridFunction(grid16, bad)


def test_coeff_index_out_of_range_raises():
    c = sg.random_coeffs(3, 5)
    assert c.get(3, -3) == c.c[3, 0]
    for l, m in ((-1, 0), (0, 2), (4, 0), (2, -3)):
        with pytest.raises(IndexError):
            c.get(l, m)
        with pytest.raises(IndexError):
            c.set(l, m, 1.0)
