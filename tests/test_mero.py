import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings, strategies as st

from confsphere import mero, spectral_ops, sphgrid as sg, trilinear
from confsphere.lorentz import Dimension
from confsphere.special import complex_gamma
from conftest import knapp_stein_formula, outcome, pair_bilinear


def area_family(s, n=3):
    rho = (n - 1) / 2
    s = complex(s)
    return (2 ** (n - 1) * np.pi ** rho * 2 ** s * sp.gamma(s / 2 + rho)
            / sp.gamma(s / 2 + 2 * rho))


def test_lanczos_gamma_against_scipy():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-5, 6, size=60) + 1j * rng.uniform(-5, 5, size=60)
    pts = [z for z in pts if abs(z - round(z.real)) > 0.05 or z.real > 0.2]
    for z in pts:
        want = complex(sp.gamma(z))
        assert abs(complex_gamma(z) - want) <= 1e-12 * abs(want)


def test_pair_constant_anchor_values(dim3):
    one = sg.coeffs_constant(1.0, 0)
    assert abs(mero.pair_distance_power(dim3, 0.0, one) - 4 * np.pi) < 1e-12
    assert abs(mero.pair_distance_power(dim3, 2.0, one) - 8 * np.pi) < 1e-12


@pytest.mark.parametrize("s", [2.0, 0.5, complex(-1.5, 0.3),
                               complex(-3.2, 0.4), complex(-5.1, 0.25)])
def test_pair_constant_matches_area_family(dim3, s):
    one = sg.coeffs_constant(1.0, 0)
    got = mero.pair_distance_power(dim3, s, one)
    want = area_family(s)
    assert abs(got - want) / abs(want) < 1e-7


def test_pair_band_limited_consistency(dim3, grid32):
    # direct-window value equals the plain quadrature of h_s f for smooth s
    c = sg.random_coeffs(6, 31)
    s = 2.0   # |e - x|^2 is a polynomial: quadrature is exact
    f = sg.sht_inverse(c.pad(32), grid32)
    pts = grid32.points()
    hs = ((pts[..., 0] - 1) ** 2 + pts[..., 1] ** 2 + pts[..., 2] ** 2)
    want = sg.quad(sg.GridFunction(grid32, hs * f.values))
    got = mero.pair_distance_power(dim3, s, c)
    assert abs(got - want) < 1e-10 * abs(want)


def test_pair_pole_guard(dim3):
    one = sg.coeffs_constant(1.0, 0)
    with pytest.raises(ValueError, match="pole"):
        mero.pair_distance_power(dim3, -2.0 + 1e-8, one)


def test_residue_ring_synthetic():
    fit = mero.residue_ring(lambda z: 1.0 / (z - 0.3), 0.3, 0.1, 16)
    assert abs(fit.residue - 1.0) < 1e-10
    fit = mero.residue_ring(lambda z: 1.0 / (z - 0.3) + 5.0, 0.3, 0.1, 16)
    assert abs(fit.residue - 1.0) < 1e-10
    assert abs(fit.regular_value - 5.0) < 1e-10
    assert fit.condition < 1e-10


def test_residue_ring_gamma_pole():
    fit = mero.residue_ring(complex_gamma, 0.0, 0.1, 16)
    assert abs(fit.residue - 1.0) < 1e-8
    fit = mero.residue_ring(complex_gamma, -1.0, 0.1, 16)
    assert abs(fit.residue + 1.0) < 1e-8   # residue of Gamma at -1 is -1


def test_residue_ring_flags_double_pole():
    fit = mero.residue_ring(lambda z: 1.0 / (z - 0.1) ** 2 + 2.0 / (z - 0.1),
                            0.1, 0.1, 16)
    assert abs(fit.residue - 2.0) < 1e-9   # the simple part is still exact
    assert fit.condition > 1.0             # and the fit reports trouble


def test_residue_ring_validation():
    with pytest.raises(ValueError):
        mero.residue_ring(lambda z: z, 0.0, 0.1, 4)
    with pytest.raises(ValueError):
        mero.LaurentFit(center=0.0, radius=-1.0, residue=0.0,
                        regular_value=0.0, ring_size=16, condition=0.0)


def test_residue_ring_checks_radius_before_sampling():
    calls = []
    for radius in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            mero.residue_ring(lambda z: calls.append(z) or 1.0 / z, 0.0, radius=radius)
    assert calls == []


def test_residue_ring_rejects_a_non_integer_ring_size():
    # m = 16.5 would sample 17 points on a circle that does not close and
    # report ring_size 16 with the residue 1.0171 - 0.0017i
    F = lambda z: 1.0 / (z - 0.3) + 5.0 + 2.0 * z
    for m in (16.5, 16.0, "16"):
        with pytest.raises(ValueError, match=f"m must be an integer, got {m!r}"):
            mero.residue_ring(F, 0.3, 0.1, m)
        with pytest.raises(ValueError, match="m must be an integer"):
            mero.residue_rings(mero.elementwise(F), [0.3], 0.1, m)
    fit = mero.residue_ring(F, 0.3, 0.1, np.int64(16))
    assert fit.ring_size == 16 and abs(fit.residue - 1.0) < 1e-12


def test_residue_rings_fit_every_ring_as_the_one_ring_fit():
    # one call over three centers gives each center's one-ring fit, to
    # rounding; F sees the (centers x m) sample array
    F = lambda z: 2.0 / (z + 1.0) + complex_gamma(z) + z ** 3
    centers = [-1.0, 0.0, 0.55 + 0.2j]
    shapes = []
    fits = mero.residue_rings(lambda z: shapes.append(z.shape) or mero.elementwise(F)(z),
                              centers, 0.13, 24)
    assert shapes == [(3, 24)]
    for c, fit in zip(centers, fits):
        one = mero.residue_ring(F, c, 0.13, 24)
        assert fit.center == one.center and fit.ring_size == 24
        for field in ("residue", "regular_value", "sample_max"):
            want = getattr(one, field)
            assert abs(getattr(fit, field) - want) <= 1e-14 * max(1.0, abs(want)), field
    # residues 2 - 1 at -1 (Gamma's is -1 there) and 1 at 0
    assert abs(fits[0].residue - 1.0) < 1e-9 and abs(fits[1].residue - 1.0) < 1e-9
    assert abs(fits[2].residue) < 1e-12
    with pytest.raises(ValueError, match=r"returned shape \(24,\) for 3 rings of 24"):
        mero.residue_rings(lambda z: z[0], centers, 0.13, 24)


def test_array_pairings_match_the_scalar_calls(dim3):
    # a ring of exponents in one call: each entry the scalar pairing to
    # rounding, and a pole-guard raise naming the first offending entry
    f1, f2 = sg.random_coeffs(12, 71), sg.random_coeffs(9, 72)
    s = -4.0 + 0.1 * mero._ring_phases(16)[0]
    got = mero.pair_distance_power(dim3, s, f1)
    got2 = mero.pair_separation_power(dim3, s + dim3.rho, f1, f2)
    for j in range(16):
        want = mero.pair_distance_power(dim3, s[j], f1)
        assert abs(got[j] - want) <= 1e-14 * abs(want)
        want = mero.pair_separation_power(dim3, s[j] + dim3.rho, f1, f2)
        assert abs(got2[j] - want) <= 1e-14 * abs(want)
    near = np.array([0.3, -2.0 + 1e-8, -4.0])
    with pytest.raises(ValueError, match=r"s=\(-1.99999999\+0j\) is within 1e-06 of a pole"):
        mero.pair_distance_power(dim3, near, f1)
    with pytest.raises(ValueError, match=r"alpha=-0.99999999 is within 1e-06 of a pole"):
        mero.pair_separation_power(dim3, np.array([1.3, -1.0 + 1e-8, -3.0]), f1, f2)


def test_residue_operator_identity(dim3):
    for k in (0, 1, 2):
        for seed in range(3):
            f = sg.random_coeffs(8, 40 + 7 * k + seed)
            got = mero.residue_pair_distance_power(dim3, k, f)
            want = mero.covariant_power_at_pole(dim3, k, f)
            assert abs(got - want) <= 1e-4 * abs(want)


def test_residue_k0_is_point_evaluation(dim3):
    one = sg.coeffs_constant(1.0, 0)
    assert abs(mero.residue_pair_distance_power(dim3, 0, one) - np.pi) < 1e-10
    f = sg.random_coeffs(6, 55)
    got = mero.residue_pair_distance_power(dim3, 0, f)
    want = np.pi * sg.value_at_pole(f)
    assert abs(got - want) <= 1e-4 * abs(want)


def test_residue_k1_spectral_example(dim3):
    # residue at the second pole of f = Y_2^0 + 2 equals (pi/4)(Delta f)(e)
    f = sg.coeffs_constant(2.0, 2)
    f.set(2, 0, 1.0)
    got = mero.residue_pair_distance_power(dim3, 1, f)
    want = (np.pi / 4) * (-6.0) * np.sqrt(5 / (4 * np.pi))
    assert abs(got - want) <= 1e-8 * abs(want)


def test_pole_localization(dim3):
    f = sg.random_coeffs(6, 61)
    scale = abs(mero.pair_distance_power(dim3, -1.9, f))
    for c in (-2.0, -4.0):
        fit = mero.residue_ring(lambda z: mero.pair_distance_power(dim3, z, f),
                                c, 0.1, 16)
        assert abs(fit.residue) > 1e-3 * scale
    for c in (-3.0, -5.0):
        fit = mero.residue_ring(lambda z: mero.pair_distance_power(dim3, z, f),
                                c, 0.1, 16)
        assert abs(fit.residue) <= 1e-6 * scale


@pytest.mark.parametrize("entry", [
    lambda d, f: mero.residue_pair_distance_power(d, -1, f),
    lambda d, f: mero.residue_separation_power_ring(d, -1, f, f),
    lambda d, f: trilinear.closed_form_constant_residue(d, -1, 0.4, 0.9),
    lambda d, f: trilinear.singular_form(d, -1, 1.45, 2.83, f, f, f),
    lambda d, f: trilinear.pole_scan(d, "singular_line", (-1.0, 1.0), k=-1),
], ids=["residue_pair_distance_power", "residue_separation_power_ring",
        "closed_form_constant_residue", "singular_form", "pole_scan"])
def test_negative_pole_index_rejected(dim3, entry):
    # the ring at k = -1 sits on the regular point s = 0 and would read a
    # residue of about 1e-16
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        entry(dim3, sg.random_coeffs(3, 5))


@pytest.mark.parametrize("entry", [
    lambda d, f: mero.residue_pair_distance_power(d, 0.5, f),
    lambda d, f: mero.residue_separation_power_ring(d, 0.5, f, f),
    lambda d, f: trilinear.closed_form_constant_residue(d, 0.5, 0.4, 0.9),
    lambda d, f: spectral_ops.gjms_constant(d, 0.5),
    lambda d, f: trilinear.singular_form(d, 0.5, 1.45, 2.83, f, f, f),
    lambda d, f: trilinear.pole_scan(d, "singular_line", (-1.0, 1.0), k=0.5),
], ids=["residue_pair_distance_power", "residue_separation_power_ring",
        "closed_form_constant_residue", "gjms_constant", "singular_form", "pole_scan"])
def test_non_integer_pole_index_rejected(dim3, entry):
    # k = 0.5 puts the rings around regular points, where they read a
    # residue of rounding size, and names a pole that does not exist
    with pytest.raises(ValueError, match="k must be an integer, got 0.5"):
        entry(dim3, sg.random_coeffs(3, 5))


def test_pair_separation_product_form(dim3):
    one = sg.coeffs_constant(1.0, 1)
    a = 1.3
    got = mero.pair_separation_power(dim3, a, one, one)
    s = a - 1.0
    want = (2 ** (s + 3) * np.pi / (s + 2)) * 4 * np.pi
    assert abs(got - want) / abs(want) < 1e-12


def test_pair_separation_against_double_quadrature(dim3):
    g1 = sg.make_grid(12)
    g2 = sg.make_grid(12, phi_offset=0.11)
    c1, c2 = sg.random_coeffs(4, 1), sg.random_coeffs(4, 2)
    f1 = sg.sht_inverse(c1.pad(12), g1).values.reshape(-1)
    f2 = sg.sht_inverse(c2.pad(12), g2).values.reshape(-1)
    P1, P2 = g1.flat_points(), g2.flat_points()
    alpha = 4.0   # smooth enough for the raw double sum
    K = np.maximum(2 - 2 * P1 @ P2.T, 0.0) ** ((alpha - 1) / 2)
    direct = (f1 * g1.flat_weights()) @ K @ (f2 * g2.flat_weights())
    spectral = mero.pair_separation_power(dim3, alpha, c1, c2)
    assert abs(direct - spectral) / abs(spectral) < 1e-5


def test_separation_residue_k0(dim3):
    c1, c2 = sg.random_coeffs(5, 8), sg.random_coeffs(5, 9)
    ring = mero.residue_separation_power_ring(dim3, 0, c1, c2)
    want = np.pi * pair_bilinear(c1, c2)
    assert abs(ring - want) <= 1e-6 * abs(want)


def test_separation_residue_symmetry(dim3):
    # the residue operator can act on either slot (it is symmetric)
    c1, c2 = sg.random_coeffs(5, 18), sg.random_coeffs(5, 19)
    r1 = mero.residue_separation_power(dim3, 1, c1, c2)
    r2 = mero.residue_separation_power(dim3, 1, c2, c1)
    assert abs(r1 - r2) <= 1e-6 * abs(r1)


def test_finite_smoothness_continuation(dim3):
    """A profile with limited smoothness at the base point continues
    stably only down to the matching pole; beyond that the truncated
    expansion stops converging.  Qualitative stability check."""
    vals = {}
    for L, gsize in ((24, 24), (48, 48)):
        grid = sg.make_grid(gsize)
        pts = grid.points()
        r = np.linalg.norm(pts - np.array([1.0, 0, 0]), axis=-1)
        f = sg.GridFunction(grid, r ** 3)          # C^2 but not C^3
        c = sg.sht_forward(f, L=L)
        vals[L] = mero.pair_distance_power(dim3, -3.2, c)
    stable = abs(vals[24] - vals[48]) / abs(vals[48])
    assert stable < 1e-2
    # two steps down needs more smoothness than r^3 has; the truncated
    # continuation is visibly resolution-dependent there
    vals2 = {}
    for L, gsize in ((24, 24), (48, 48)):
        grid = sg.make_grid(gsize)
        pts = grid.points()
        r = np.linalg.norm(pts - np.array([1.0, 0, 0]), axis=-1)
        c = sg.sht_forward(sg.GridFunction(grid, r ** 3), L=L)
        vals2[L] = mero.pair_distance_power(dim3, -5.2, c)
    unstable = abs(vals2[24] - vals2[48]) / abs(vals2[48])
    assert unstable > stable


# ---------------------------------------------------------------------------
# the cached per-degree tables against the formulas built per call


def _pole_distance_formula(dim, s):
    """mero._pole_distance over a set of candidate poles, as first written."""
    base = -(dim.n - 1.0)
    k = max(0.0, round((base - complex(s).real) / 2.0))
    cands = [base - 2.0 * kk for kk in {int(k), int(k) + 1, max(int(k) - 1, 0)}]
    return min(abs(complex(s) - c) for c in cands)


def _pair_formula(dim, s, f):
    """pair_distance_power with its eigenvalues and weights built per call."""
    s = complex(s)
    if _pole_distance_formula(dim, s) < mero.POLE_GUARD:
        raise ValueError("near a pole")
    eig = knapp_stein_formula(dim, s + dim.rho, f.L)
    l = np.arange(f.L + 1)
    zonal = f.c[:, f.L] * np.sqrt((2 * l + 1) / (4.0 * math.pi))
    return complex(np.dot(eig, zonal))


def _separation_formula(dim, alpha, f1, f2):
    """pair_separation_power with its eigenvalues and signs built per call."""
    if _pole_distance_formula(dim, complex(alpha) - dim.rho) < mero.POLE_GUARD:
        raise ValueError("near a pole")
    L = min(f1.L, f2.L)
    ac = f1.c[: L + 1, f1.L - L: f1.L + L + 1]
    bc = f2.c[: L + 1, f2.L - L: f2.L + L + 1]
    pairings = (ac * bc[:, ::-1]) @ (-1.0) ** np.arange(-L, L + 1)
    return complex(np.dot(knapp_stein_formula(dim, complex(alpha), L), pairings))


@st.composite
def _pairing_exponents(draw):
    """Complex or real s, or a point of the pole lattice -2 - 2k, half-way
    between two of its points, or within the pole guard of one."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return complex(draw(st.floats(-14.0, 12.0)), draw(st.floats(-2.0, 2.0)))
    if kind == 1:
        return complex(draw(st.floats(-14.0, 12.0)), 0.0)
    lattice = -2.0 - 2.0 * draw(st.integers(-2, 6))
    if kind == 2:
        return complex(lattice + draw(st.sampled_from([0.0, 1.0, -1.0])), 0.0)
    return complex(lattice + draw(st.floats(-2e-6, 2e-6)), draw(st.floats(-2e-6, 2e-6)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(s=_pairing_exponents(), L1=st.integers(0, 20), L2=st.integers(0, 20),
       seed=st.integers(0, 2 ** 16), k=st.integers(0, 2 ** 50),
       offset=st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-3.0, 3.0))
@example(s=-4 + 0j, L1=3, L2=5, seed=1, k=0, offset=1.0)    # on a pole: both raise
@example(s=-3 + 0j, L1=3, L2=5, seed=1, k=2 ** 50, offset=-1.0)   # half-way
def test_pairings_match_the_uncached_formulas_property(s, L1, L2, seed, k, offset):
    # the cached weights, signs and steps and the one-candidate pole
    # distance change no bit: the same distances, also at the k-th pole
    # plus offset far down the lattice, pairings and pole-guard raises
    dim = Dimension(3)
    f1, f2 = sg.random_coeffs(L1, seed), sg.random_coeffs(L2, seed + 1)
    for dn in map(Dimension, (3, 4, 5)):
        far = complex(-(dn.n - 1.0) - 2.0 * k + offset, s.imag)
        for z in (s, far):
            assert mero._pole_distance(dn, z) == _pole_distance_formula(dn, z)
    assert outcome(mero.pair_distance_power, dim, s, f1) == outcome(_pair_formula, dim, s, f1)
    alpha = s + dim.rho
    assert (outcome(mero.pair_separation_power, dim, alpha, f1, f2)
            == outcome(_separation_formula, dim, alpha, f1, f2))


def test_pairing_tables_read_only_and_results_fresh():
    # the ring phases are the per-call expressions bit for bit; no cached
    # table can be written, and writing into a returned array leaves the
    # next call's values as they were
    for m in (8, 16, 37):
        phase = np.exp(1j * (2.0 * math.pi * np.arange(m) / m))
        assert mero._ring_phases(m)[0].tobytes() == phase.tobytes()
        assert mero._ring_phases(m)[1].tobytes() == (phase ** 2).tobytes()
    for table in (*mero._ring_phases(16), sg._zonal_weights(16), sg._pairing_signs(16)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
    f1, f2 = sg.random_coeffs(16, 3), sg.random_coeffs(16, 4)
    first = sg.degree_pairings(f1, f2)
    want = first.tobytes()
    first[:] = 7.0
    assert sg.degree_pairings(f1, f2).tobytes() == want
