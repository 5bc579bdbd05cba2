import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import assume, example, given, settings, strategies as st

from confsphere.lorentz import Dimension
from confsphere import sphgrid as sg
from confsphere import spectral_ops as so
from conftest import knapp_stein_formula, knapp_stein_oracle, outcome


def yamabe_shift(dim):
    """Constant term of the conformal Laplacian: -(n-1)(n-3)/4."""
    return -0.25 * (dim.n - 1.0) * (dim.n - 3.0)


def knapp_stein_multiplier(dim, alpha, l):
    """Single eigenvalue e_l(alpha); see knapp_stein_multipliers."""
    return complex(so.knapp_stein_multipliers(dim, alpha, l)[l])


def radial_laplacian_fd(profile, theta, n, h=1e-4):
    """The rotation-invariant Laplacian as a radial operator,
    phi'' + (n-2) cot(theta) phi', by central differences."""
    d1 = (profile(theta + h) - profile(theta - h)) / (2 * h)
    d2 = (profile(theta + h) - 2 * profile(theta) + profile(theta - h)) / h**2
    return d2 + (n - 2) / np.tan(theta) * d1


def test_laplacian_eigenvalue_oracle_n3():
    # degree-1 zonal profile cos(theta) on S^2
    got = so.laplacian_multipliers(Dimension(3), 1)[1]
    assert got == -2.0
    theta = 1.1
    fd = radial_laplacian_fd(np.cos, theta, 3)
    assert abs(fd - got * np.cos(theta)) < 1e-6


def test_laplacian_eigenvalue_oracle_n5():
    dim = Dimension(5)
    got = so.laplacian_multipliers(dim, 2)[2]
    assert got == -10.0
    nu = (dim.n - 2) / 2.0
    prof = lambda th: (sp.eval_gegenbauer(2, nu, np.cos(th))
                       / sp.eval_gegenbauer(2, nu, 1.0))
    theta = 0.9
    fd = radial_laplacian_fd(prof, theta, 5)
    assert abs(fd - got * prof(theta)) < 1e-5


def test_laplacian_l0():
    assert so.laplacian_multipliers(Dimension(3), 0)[0] == 0.0


def test_gjms_empty_product():
    dim = Dimension(4)
    assert all(so.gjms_multipliers(dim, 0, 9) == 1.0)


def test_gjms_k1_is_yamabe():
    for n in (3, 4, 5):
        dim = Dimension(n)
        for l in range(12):
            want = so.laplacian_multipliers(dim, l)[l] + yamabe_shift(dim)
            assert abs(so.gjms_multipliers(dim, 1, l)[l] - want) < 1e-12
    # the shift vanishes for n = 3
    assert yamabe_shift(Dimension(3)) == 0.0


def test_gjms_alternative_factorization():
    # prod_j (Delta - (rho+j-1)(rho-j)) == prod_j (Delta_1 + j(j-1))
    for n in (3, 4, 5):
        dim = Dimension(n)
        for k in range(5):
            for l in range(33):
                alt = 1.0
                d1 = so.laplacian_multipliers(dim, l)[l] + yamabe_shift(dim)
                for j in range(1, k + 1):
                    alt *= d1 + j * (j - 1)
                assert abs(so.gjms_multipliers(dim, k, l)[l] - alt) <= 1e-10 * max(1.0, abs(alt))


def test_gjms_exact_zeros_n3():
    dim = Dimension(3)
    for k in range(1, 5):
        for l in range(k):
            assert so.gjms_multipliers(dim, k, l)[l] == 0.0
        assert so.gjms_multipliers(dim, k, k)[k] != 0.0


def test_gjms_constant_values():
    dim = Dimension(3)
    assert abs(so.gjms_constant(dim, 0) - np.pi) < 1e-14
    assert abs(so.gjms_constant(dim, 1) - np.pi / 4) < 1e-14
    assert abs(so.gjms_constant(dim, 2) - np.pi / 64) < 1e-15


def test_gjms_constant_recursion():
    # c_{k+1} = c_k / (4 (rho+k)(k+1))
    for n in (3, 4, 5):
        dim = Dimension(n)
        for k in range(4):
            want = so.gjms_constant(dim, k) / (4 * (dim.rho + k) * (k + 1))
            assert abs(so.gjms_constant(dim, k + 1) - want) < 1e-14 * want


def test_bernstein_multiplier_values():
    dim = Dimension(3)
    assert so.bernstein_multipliers(dim, 0.0, 0)[0] == 0.0
    assert so.bernstein_multipliers(dim, 2.0, 0)[0] == 2.0
    assert so.bernstein_multipliers(dim, 2.0, 1)[1] == 0.0


def _scalar_laplacian(dim, l):
    return -float(l) * (l + dim.n - 2.0)


def _scalar_gjms(dim, k, l):
    out = 1.0
    for j in range(1, k + 1):
        out *= -(l + dim.rho + j - 1.0) * (l + dim.rho - j)
    return out


def _scalar_bernstein(dim, s, l):
    s = complex(s)
    return _scalar_laplacian(dim, l) + (s / 2.0) * (s / 2.0 + dim.n - 2.0)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("L", [0, 1, 17, 64])
def test_multiplier_tables_match_scalar_formulas_bitwise(n, L):
    # each table is the per-degree scalar formula, same operations in the
    # same order, so the entries agree bit for bit
    dim = Dimension(n)
    degrees = range(L + 1)
    assert np.array_equal(so.laplacian_multipliers(dim, L),
                          np.array([_scalar_laplacian(dim, l) for l in degrees]))
    for s in (0.0, 2.0, 0.55, -1.3 + 0.4j):
        assert np.array_equal(so.bernstein_multipliers(dim, s, L),
                              np.array([_scalar_bernstein(dim, s, l) for l in degrees]))
    assert np.array_equal(so.gjms_multipliers(dim, 0, L), np.ones(L + 1))
    c = sg.random_coeffs(L, 40 + L)
    for k in range(5):
        table = np.array([_scalar_gjms(dim, k, l) for l in degrees])
        assert np.array_equal(so.gjms_multipliers(dim, k, L), table)
        assert np.array_equal(so.gjms_multipliers(dim, np.int64(k), L), table)
        c_k = float(np.pi ** dim.rho / (4.0 ** k * math.gamma(dim.rho + k)
                                        * math.gamma(k + 1.0)))
        assert so.gjms_constant(dim, k) == c_k
        assert np.array_equal(so.residue_operator_apply(dim, k, c).c,
                              c.c * table[:, None] * c_k)


def test_apply_multiplier_identity_and_laplacian(grid16):
    dim = Dimension(3)
    c = sg.random_coeffs(8, 3)
    assert np.array_equal(so.apply_multiplier(np.ones(9), c).c, c.c)
    lap = so.laplacian_multipliers(dim, 8)
    out = so.apply_multiplier(lap, c)
    for l in range(9):
        for m in range(-l, l + 1):
            assert out.get(l, m) == -l * (l + 1) * c.get(l, m)


def test_multiplier_family_cache_and_validation():
    c = sg.random_coeffs(4, 3)
    with pytest.raises(ValueError):
        so.apply_multiplier(np.ones(4), c)           # too short
    with pytest.raises(ValueError):
        so.apply_multiplier([1.0, np.nan, 1.0, 1.0, 1.0], c)   # non-finite


def test_selfadjointness_quadrature(grid32):
    # <Delta_k f, g> = <f, Delta_k g> through the grid pairing
    dim = Dimension(3)
    f = sg.random_coeffs(10, 5).pad(grid32.L)
    g = sg.random_coeffs(10, 6).pad(grid32.L)
    for k in (1, 2):
        fam = so.gjms_multipliers(dim, k, grid32.L)
        df = sg.sht_inverse(so.apply_multiplier(fam, f), grid32)
        dg = sg.sht_inverse(so.apply_multiplier(fam, g), grid32)
        fv = sg.sht_inverse(f, grid32)
        gv = sg.sht_inverse(g, grid32)
        lhs = sg.quad(sg.GridFunction(grid32, df.values * np.conj(gv.values)))
        rhs = sg.quad(sg.GridFunction(grid32, fv.values * np.conj(dg.values)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_residue_operator_apply(grid16):
    dim = Dimension(3)
    c = sg.coeffs_zero(4)
    c.set(1, 0, 1.0)
    out = so.residue_operator_apply(dim, 1, c)
    # c_1 Delta_1 on degree 1: (pi/4) * (-2)
    assert abs(out.get(1, 0) - (np.pi / 4) * (-2.0)) < 1e-14
    const = sg.coeffs_constant(2.0, 0)
    out0 = so.residue_operator_apply(dim, 0, const)
    assert abs(out0.get(0, 0) - np.pi * const.get(0, 0)) < 1e-14


@pytest.mark.parametrize("n", [3, 4, 5])
def test_knapp_stein_descent_consistency(n):
    dim = Dimension(n)
    for off in (0.55, 1.05):
        alpha = dim.rho + (-(n - 1) + off)   # s = -(n-1) + off, direct side
        direct = sg.kernel_eigenvalues(dim, alpha - dim.rho, 32)
        via = so.knapp_stein_multipliers(dim, alpha, 32)
        assert np.max(np.abs(direct - via) / np.abs(direct)) < 1e-12
        # force one extra descent step by shifting down by 2
        down = so.knapp_stein_multipliers(dim, alpha - 2.0, 32)
        lap = so.laplacian_multipliers(dim, 32)
        s = alpha - dim.rho
        expect = ((lap + (s / 2) * (s / 2 + n - 2)) * direct
                  / (s * (s + n - 3)))
        assert np.max(np.abs(down - expect) / np.abs(expect)) < 1e-10


def test_knapp_stein_pole_structure():
    # the residue of e_l at the k-th lattice point is 2 c_k times the
    # degree-l covariant-power eigenvalue (plain ring residue, whole
    # parameter); off-lattice rings see nothing
    dim = Dimension(3)
    from confsphere.mero import residue_ring
    for l in (0, 2):
        for k in (0, 1):
            center = -dim.rho - 2.0 * k
            fit = residue_ring(lambda a: knapp_stein_multiplier(dim, a, l),
                               center, 0.1, 16)
            want = 2.0 * so.gjms_constant(dim, k) * so.gjms_multipliers(dim, k, l)[l]
            assert abs(fit.residue - want) <= 1e-8 * max(1.0, abs(want))
            off = residue_ring(lambda a: knapp_stein_multiplier(dim, a, l),
                               center + 1.0, 0.1, 16)
            scale = abs(knapp_stein_multiplier(dim, center + 1.1, l))
            assert abs(off.residue) < 1e-8 * max(1.0, scale)


def test_knapp_stein_poles_and_exceptional_points():
    # ZeroDivisionError exactly on the pole lattice s = -d - 2k, finite
    # just off it
    for n in (3, 4):
        dim = Dimension(n)
        for k in range(5):
            s = -(n - 1.0) - 2.0 * k
            with pytest.raises(ZeroDivisionError):
                so.knapp_stein_multipliers(dim, s + dim.rho, 8)
            for off in (1e-3j, -1e-3j):
                vals = so.knapp_stein_multipliers(dim, s + off + dim.rho, 8)
                assert np.all(np.isfinite(vals))
    # real points where Gamma(l + d + s/2) or (-s/2)_l vanish: n = 4 at
    # s = -6, -8 (off the lattice, e_l = 0 below the first finite degree)
    # and n = 3 at s = 2, 6 (e_l = 0 for l > s/2)
    for n, s in ((4, -6.0), (4, -8.0), (3, 2.0), (3, 6.0)):
        dim = Dimension(n)
        got = so.knapp_stein_multipliers(dim, s + dim.rho, 12)
        want = knapp_stein_oracle(n, s, 12)
        zero = want == 0.0
        assert zero.any() and np.all(got[zero] == 0.0)
        assert np.max(np.abs(got[~zero] - want[~zero]) / np.abs(want[~zero])) < 1e-13
    assert abs(knapp_stein_multiplier(Dimension(4), -6.0 + 1.5, 1)
               - np.pi ** 2 / 2) < 1e-13


@pytest.mark.parametrize("n", [3, 5, 7, 4, 6])
def test_knapp_stein_against_the_oracle_at_odd_and_even_n(n):
    # odd n seeds with the exact 1 / (d/2 + h)_{d/2}, even n with the
    # log-space Gamma quotient; both agree with scipy's closed form for
    # l <= 32 at random complex and real s off the poles and near-zeros,
    # and at n = 3 on the exact zeros e_l = 0, l > s/2, of s = 2 and 6
    dim = Dimension(n)
    rng = np.random.default_rng(300 + n)
    exponents = ([complex(rng.uniform(-12.0, 45.0), rng.uniform(-3.0, 3.0)) for _ in range(20)]
                 + [float(s) for s in rng.uniform(-12.0, 45.0, 20)]
                 + ([2.0, 6.0] if n == 3 else []))
    checked = 0
    for s in exponents:
        if (_lattice_distance(n, complex(s)) < 0.05
                or (np.isrealobj(s) and 0.0 < abs(s - 2.0 * round(s / 2.0)) < 0.05)):
            continue
        got = so.knapp_stein_multipliers(dim, s + dim.rho, 32)
        want = knapp_stein_oracle(n, s, 32)
        zero = want == 0.0
        assert zero.sum() == (32 - s / 2 if s in (2.0, 6.0) else 0)
        assert np.all(got[zero] == 0.0)
        assert np.max(np.abs(got[~zero] - want[~zero]) / np.abs(want[~zero])) < 1e-13, (n, s)
        checked += 1
    assert checked >= 30
    # at odd n the seed e_0 against mpmath at 50 digits: exact up to the
    # rounding of 2^{d+s} and of the d/2 factors of the Pochhammer symbol
    for s in exponents[:5] if n % 2 else ():
        with mpmath.workdps(50):
            want = complex(mpmath.mpf(2) ** (n - 1 + mpmath.mpc(s)) * mpmath.pi ** ((n - 1) / 2)
                           * mpmath.gammaprod([(n - 1 + mpmath.mpc(s)) / 2],
                                              [n - 1 + mpmath.mpc(s) / 2]))
        got = so.knapp_stein_multipliers(dim, s + dim.rho, 0)[0]
        assert abs(got - want) <= 1e-14 * abs(want), (n, s)


def _lattice_distance(n, s):
    """Distance from s to the pole lattice -(n-1) - 2k, k >= 0."""
    k = max(0, round((-(n - 1) - s.real) / 2.0))
    return min(abs(s + (n - 1) + 2.0 * j) for j in (k - 1, k, k + 1) if j >= 0)


@settings(derandomize=True, deadline=None)
@given(n=st.sampled_from([3, 4, 5]), l=st.integers(0, 64),
       re=st.floats(-12.0, 45.0), im=st.floats(-3.0, 3.0))
def test_knapp_stein_ladder_property(n, l, re, im):
    # e_l(s-2) s(s+n-3) = [-l(l+n-2) + (s/2)(s/2+n-2)] e_l(s); near the
    # zeros s = 0, 2, 4, ... of e_l its relative value is ill-conditioned
    # in s, so s keeps off every even integer as well as off the poles
    s = complex(re, im)
    assume(_lattice_distance(n, s) >= 0.05 and _lattice_distance(n, s - 2.0) >= 0.05)
    assume(abs(s - 2.0 * round(re / 2.0)) >= 0.05)
    dim = Dimension(n)
    up = knapp_stein_multiplier(dim, s + dim.rho, l)
    down = knapp_stein_multiplier(dim, s - 2.0 + dim.rho, l)
    lhs = down * s * (s + n - 3.0)
    rhs = (-l * (l + n - 2.0) + (s / 2) * (s / 2 + n - 2.0)) * up
    scale = max(abs(lhs), abs(up) * (l * (l + n - 2.0) + abs(s / 2 * (s / 2 + n - 2.0))))
    assert abs(lhs - rhs) <= 1e-12 * scale


@st.composite
def _ks_exponents(draw):
    """s = alpha - rho: complex, real, or a real integer, which reaches the
    pole lattice and, at n = 4, the vanishing degrees below l0 > 0."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return complex(draw(st.floats(-12.0, 45.0)), draw(st.floats(-3.0, 3.0)))
    if kind == 1:
        return complex(draw(st.floats(-12.0, 45.0)), 0.0)
    return complex(draw(st.integers(-40, 45)), 0.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n=st.sampled_from([3, 4, 5]), L=st.integers(0, 64), s=_ks_exponents())
@example(n=4, L=12, s=-8 + 0j)      # l0 = 2
@example(n=4, L=8, s=-40 + 0j)      # l0 = 18 > L: all zeros
@example(n=3, L=8, s=-4 + 0j)       # on the pole lattice: both raise
@example(n=5, L=0, s=0.3 + 0.1j)
def test_knapp_stein_matches_the_uncached_formula_property(n, L, s):
    # the cached steps change no bit: the same values, zeros and raises
    dim = Dimension(n)
    alpha = s + dim.rho
    assert (outcome(so.knapp_stein_multipliers, dim, alpha, L)
            == outcome(knapp_stein_formula, dim, alpha, L))


@pytest.mark.parametrize("n", [3, 5, 4])
def test_knapp_stein_array_rows_match_the_scalar_calls(n):
    # one row per alpha, the scalar call's to rounding at odd n (array
    # operations) and bitwise at n = 4 (the scalar call per row); on the
    # pole lattice the array call raises as the scalar call does
    dim = Dimension(n)
    rng = np.random.default_rng(40 + n)
    alpha = dim.rho + np.array([complex(rng.uniform(-12.0, 12.0), rng.uniform(-2.0, 2.0))
                                for _ in range(24)] + [2.0, 5.5, -3.3]).reshape(3, 9)
    rows = so.knapp_stein_multipliers(dim, alpha, 40)
    assert rows.shape == (3, 9, 41)
    for idx in np.ndindex(alpha.shape):
        want = so.knapp_stein_multipliers(dim, complex(alpha[idx]), 40)
        if n % 2 == 0:
            assert rows[idx].tobytes() == want.tobytes()
        zero = want == 0.0
        assert np.all(rows[idx][zero] == 0.0)
        assert np.all(np.abs(rows[idx] - want) <= 1e-13 * np.abs(want)), (n, alpha[idx])
    ring = dim.rho - (n - 1.0) - 2.0 + 0.1 * np.exp(2j * np.pi * np.arange(16) / 16)
    assert so.knapp_stein_multipliers(dim, ring, 16).shape == (16, 17)
    for k in range(3):
        pole = dim.rho - (n - 1.0) - 2.0 * k
        with pytest.raises(ZeroDivisionError):
            so.knapp_stein_multipliers(dim, pole, 8)
        with pytest.raises(ZeroDivisionError):
            so.knapp_stein_multipliers(dim, np.array([0.3 + 0.1j, pole]), 8)


def test_knapp_stein_tables_read_only_and_results_fresh():
    # the cached steps cannot be written, and writing into a returned
    # array leaves the next call's values as they were
    dim = Dimension(4)
    for table in so._ratio_steps(4, 16):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
    for alpha in (0.3 + 0.2j, -8.0 + dim.rho):     # l0 = 0 and l0 = 2
        first = so.knapp_stein_multipliers(dim, alpha, 16)
        want = first.tobytes()
        first[:] = 7.0
        assert so.knapp_stein_multipliers(dim, alpha, 16).tobytes() == want
