import math
from functools import partial

import mpmath
import numpy as np
import pytest

from hypothesis import assume, example, given, settings, strategies as st
import scipy.special as sp
from scipy.special import loggamma

from confsphere.lorentz import Dimension, boost, random_element, rotation
from confsphere import sphgrid as sg, trilinear as tri, verify
from confsphere.mero import residue_ring
from confsphere.special import complex_gamma, gamma_ratio, pochhammer
from confsphere.spectral_ops import gjms_constant, knapp_stein_multipliers
from conftest import random_unit

FOUR_PI_CUBED = (4 * np.pi) ** 3

# triple integrals of polynomial kernels, computed by hand:
#   (a1, a2, a3) -> value / (4 pi)^3
HAND_VALUES = {
    (1, 1, 1): 1.0,
    (3, 1, 1): 2.0,
    (3, 3, 1): 4.0,
    (3, 3, 3): 64.0 / 9.0,
    (5, 1, 1): 16.0 / 3.0,
    (5, 3, 3): 160.0 / 9.0,
}


def test_trilinear_imports_neither_reps_nor_verify():
    # the forms need no group action and no check: the checks that move
    # fields by pi_lambda(g) live in verify
    import os
    import subprocess
    import sys
    from pathlib import Path
    code = ("import sys, confsphere.trilinear; "
            "print([m for m in ('confsphere.reps', 'confsphere.verify') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(tri.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_parameter_conversions_roundtrip(rng):
    assert tri.alpha_from_lambda((0, 0, 0)).alpha == (0, 0, 0)
    assert tri.alpha_from_lambda((1, 0, 0)).alpha == (-1, 1, 1)
    for _ in range(10):
        lam = tuple(rng.normal() + 1j * rng.normal() for _ in range(3))
        trip = tri.alpha_from_lambda(lam)
        back = tri.lambda_from_alpha(trip.alpha)
        assert max(abs(a - b) for a, b in zip(back.lam, lam)) < 1e-13


def test_parameter_triple_consistency_guard():
    with pytest.raises(ValueError):
        tri.ParameterTriple(alpha=(1, 1, 1), lam=(1, 0, 0))


def test_closed_form_matches_hand_integrals(dim3):
    for alpha, ratio in HAND_VALUES.items():
        got = tri.closed_form_constant(dim3, alpha)
        assert abs(got - ratio * FOUR_PI_CUBED) <= 1e-12 * ratio * FOUR_PI_CUBED


def test_direct_quadrature_matches_closed_form(dim3):
    one = sg.coeffs_constant(1.0, 2)
    for alpha in [(1, 1, 1), (3, 1, 1), (3, 3, 3), (5, 3, 1)]:
        got = tri.generic_form(dim3, alpha, one, one, one)
        want = tri.closed_form_constant(dim3, alpha)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_direct_engine_zero_fields_give_zero(dim3):
    # a field with no nonzero order has an empty spectrum; the form is 0
    engine = tri.TripleEngine(dim3, (1.6, 1.8, 1.55), grid_size=(12, 24))
    zero, one = sg.coeffs_zero(2), sg.coeffs_constant(1.0)
    assert engine.value(zero, zero, one) == 0
    assert engine.value(zero, one, one) == 0
    assert engine.value(one, one, zero) == 0


def test_gamma_ratio_equal_sum_pairs(dim3):
    # on pairs with equal exponent sums the bare Gamma quotient already
    # gives the ratio (the kernel-normalization factor cancels)
    one = sg.coeffs_constant(1.0, 2)
    for a, b in [((3, 3, 1), (5, 1, 1)), ((5, 3, 1), (3, 3, 3))]:
        va = tri.generic_form(dim3, a, one, one, one)
        vb = tri.generic_form(dim3, b, one, one, one)
        want = tri.gamma_ratio_factor(dim3, a) / tri.gamma_ratio_factor(dim3, b)
        assert abs(va / vb - want) <= 1e-10 * abs(want)


def test_convergence_region_guard(dim3):
    one = sg.coeffs_constant(1.0, 2)
    with pytest.raises(ValueError, match="convergence"):
        tri.generic_form(dim3, (-0.9, 1.0, 1.0), one, one, one)
    with pytest.raises(ValueError, match="convergence"):
        tri.generic_form(dim3, (0.1, 0.1, -1.0), one, one, one)


def test_rotation_invariance_exact_at_polynomial_exponents(dim3, rng):
    # polynomial kernels make the quadrature exact, so any rotation moves
    # the value by roundoff only
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    g = rotation(q, dim3)
    fs = [sg.random_coeffs(3, 70 + j, real_field=True) for j in range(3)]
    # a rotation keeps the degree, so projecting to degree 3 is exact
    defect = verify.invariance_defect(tri.TripleEngine(dim3, (3, 3, 1)).value,
                                      tri.lambda_from_alpha((3, 3, 1)).lam, g, fs,
                                      sg.make_grid(3), 3)
    assert defect < 1e-9


def test_fast_agrees_with_direct(dim3):
    fs = [sg.random_coeffs(4, 80 + j) for j in range(3)]
    for alpha in [(3, 3, 1), (5, 1, 3)]:
        vd = tri.generic_form(dim3, alpha, *fs, method="direct")
        vf = tri.generic_form(dim3, alpha, *fs, method="fast")
        assert abs(vd - vf) <= 1e-6 * abs(vd)


def test_fast_value_is_the_alpha3_family_at_a3_whatever_the_grid(dim3):
    # degree-7 fields need the K-types to S = 21; the grid (16, 32), which
    # resolves degree 15, has no say in the fast value
    fs = [sg.random_coeffs(7, 140 + j) for j in range(3)]
    a1, a2, a3 = 1.62 + 0j, 1.71 + 0j, 1.83 + 0j
    evaluate = tri.generic_form_alpha3_family(dim3, a1, a2, *fs)
    fast = tri.generic_form(dim3, (a1, a2, a3), *fs, method="fast", grid_size=(16, 32))
    assert fast == evaluate(a3)


def test_triple_engine_is_the_direct_quadrature_only(dim3):
    with pytest.raises(ValueError, match=r"generic_form\(\.\.\., method='fast'\)"):
        tri.TripleEngine(dim3, (1.6, 1.8, 1.55), method="fast")


def test_permutation_symmetry(dim3):
    # swapping two slots together with their exponents fixes the value;
    # exact quadrature (polynomial kernels) shows the identity at machine
    # precision, generic exponents at the quadrature-error level of the
    # staggered grids
    fs = [sg.random_coeffs(3, 90 + j) for j in range(3)]
    a = (3.0, 1.0, 5.0)
    base = tri.generic_form(dim3, a, *fs)
    swapped = tri.generic_form(dim3, (a[1], a[0], a[2]), fs[1], fs[0], fs[2])
    assert abs(base - swapped) <= 1e-10 * abs(base)
    a = (3.0, 1.0, 2.2)
    base = tri.generic_form(dim3, a, *fs)
    swapped = tri.generic_form(dim3, (a[1], a[0], a[2]), fs[1], fs[0], fs[2])
    assert abs(base - swapped) <= 5e-3 * abs(base)


def test_spectral_family_matches_direct(dim3):
    fs = [sg.random_coeffs(4, 95 + j) for j in range(3)]
    evaluate = tri.generic_form_alpha3_family(dim3, 3.0, 3.0, *fs)
    direct = tri.generic_form(dim3, (3.0, 3.0, 1.0), *fs)
    assert abs(evaluate(1.0) - direct) <= 1e-4 * abs(direct)


def _dense_direct_oracle(dim, fs, grid_size, alpha):
    """The direct generic form from whole N x N kernel matrices: the dense
    quadrature sum that the direct engine takes in azimuthal frequency
    (test-only reference)."""
    from confsphere.reps import field_from_coeffs
    rho = dim.rho
    a1, a2, a3 = alpha
    g1, g2, g3 = tri.triple_grids(grid_size)
    P = [g.flat_points() for g in (g1, g2, g3)]
    W = [g.flat_weights() for g in (g1, g2, g3)]
    F1, F2, F3 = ((field_from_coeffs(f) if isinstance(f, sg.HarmonicCoeffs) else f)(p)
                  for f, p in zip(fs, P))
    K3 = tri.chordal_power(P[0], P[1], a3 - rho)
    K2 = tri.chordal_power(P[2], P[0], a2 - rho)
    K1 = tri.chordal_power(P[1], P[2], a1 - rho)
    M = K1 @ (K2 * (F3 * W[2])[:, None])
    return np.dot(F1 * W[0], np.einsum("ab,ba->a", K3, (F2 * W[1])[:, None] * M))


def slot_pairings(C, L):
    """Degree-by-degree pairings sum_m (-1)^m C[(l, m), (l, -m)] of the two
    slots of a coefficient matrix (rows and columns both in the padded
    layout): degree_pairings of two-sphere data that need not be a
    product."""
    C = C.reshape(L + 1, 2 * L + 1, L + 1, 2 * L + 1)
    l = np.arange(L + 1)
    diag = np.diagonal(C[l, :, l, ::-1], axis1=1, axis2=2)
    return diag @ (-1.0) ** np.arange(-L, L + 1)


def _quadrature_trace_oracle(dim, fs, grid_size, a1, a2, L_K):
    """The degree weights A_l by triple-grid quadrature, with the middle
    kernel applied through its eigenvalues truncated at L_K: the formula
    the exact-product trace replaces (test-only reference)."""
    from confsphere.reps import field_from_coeffs
    g1, g2, g3 = tri.triple_grids(grid_size)
    P = [g.flat_points() for g in (g1, g2, g3)]
    F1, F2, F3 = (field_from_coeffs(f)(p) for f, p in zip(fs, P))
    K2 = tri.chordal_power(P[2], P[0], a2 - dim.rho)
    eig1 = np.repeat(knapp_stein_multipliers(dim, a1, L_K), 2 * L_K + 1)[:, None]
    middle = sg.sht_synthesize_columns(
        g2, eig1 * sg.sht_forward_columns(g3, K2 * F3[:, None], L_K), L_K)
    D = sg.sht_forward_columns(g2, F2[:, None] * middle, L_K)
    # the x1 quadrature against Y_lm is the x1 analysis at (l, -m)
    return slot_pairings(sg.sht_forward_columns(g1, F1[:, None] * D.T, L_K), L_K)


def _dense_singular_oracle(dim, fs, grid_size, k, a1, a2, L_K):
    """The singular form by double quadrature on two staggered grids, with
    Delta_k applied through its GJMS eigenvalues truncated at L_K: the
    formula the exact finite sum replaces (test-only reference)."""
    from confsphere.reps import field_from_coeffs
    from confsphere.spectral_ops import gjms_multipliers
    gx, g3 = tri._staggered_grids(*grid_size, 2)
    Px, P3 = gx.flat_points(), g3.flat_points()
    G1, G2 = (field_from_coeffs(f)(Px) for f in fs[:2])
    G3 = field_from_coeffs(fs[2])(P3)
    mult = np.repeat(gjms_multipliers(dim, k, L_K), 2 * L_K + 1)[:, None]
    H = sg.sht_synthesize_columns(
        gx, mult * sg.sht_forward_columns(
            gx, G1[:, None] * tri.chordal_power(Px, P3, a2 - dim.rho), L_K),
        L_K)
    return ((G2 * gx.flat_weights())
            @ (H * tri.chordal_power(Px, P3, a1 - dim.rho))
            @ (G3 * g3.flat_weights()))


@pytest.mark.parametrize("alpha", [(1.6, 1.8, 1.55), (1.6 + 0.3j, 1.8, 1.55)])
def test_direct_engine_matches_dense_oracle(dim3, alpha):
    # a boosted callable is not band-limited, so its spectrum is the FFT of
    # its ring samples, every residue nonzero; the contraction in azimuthal
    # frequency is the dense triple sum in another order.  One moved field
    # and two HarmonicCoeffs mix both kinds of spectrum; three moved fields
    # take only sampled ones.  A complex a1 makes the middle table complex,
    # and (9, 19) has an odd n_phi.
    from confsphere.reps import pi_pointwise
    fs = [sg.random_coeffs(4, 170 + j) for j in range(3)]
    g = random_element(dim3, 175, max_boost=0.3)
    moved = [pi_pointwise(dim3, 0.6, g, f) for f in fs]
    for grid_size in ((12, 24), (9, 19)):
        engine = tri.TripleEngine(dim3, alpha, method="direct", grid_size=grid_size)
        for inputs in ([moved[0]] + fs[1:], moved):
            want = _dense_direct_oracle(dim3, inputs, grid_size, alpha)
            assert abs(engine.value(*inputs) - want) <= 1e-13 * abs(want)


def _spectrum_cases(n_phi):
    """Field triples for the direct engine's exact spectra: constants
    (L = 0); a real degree-4 field, a complex one whose only orders are
    -3, 0 and 2, and a constant; and degrees whose orders alias on the
    grid, 3 L >= n_phi for the first and 2 L + 1 > n_phi for the third."""
    one = sg.coeffs_constant(1.0)
    sparse = sg.random_coeffs(5, 171)
    sparse.c[:, ~np.isin(np.arange(-5, 6), (-3, 0, 2))] = 0.0
    return [(one, one, one),
            (sg.random_coeffs(4, 172, real_field=True), sparse, one),
            (sg.random_coeffs(-(-n_phi // 3), 173), sg.random_coeffs(2, 174),
             sg.random_coeffs(n_phi // 2 + 1, 175))]


SPECTRUM_ALPHAS = {"real": (1.6, 1.8, 1.55), "complex": (1.6 + 0.3j, 1.8, 2.5 - 0.2j),
                   "integer": (3, 1, 1)}


@pytest.mark.parametrize("grid_size, alpha", [
    pytest.param(g, a, id=f"{g[0]}x{g[1]}-{kind}")
    for g, kinds in (((9, 19), SPECTRUM_ALPHAS), ((12, 24), SPECTRUM_ALPHAS),
                     ((24, 48), ("complex",)))
    for kind, a in ((k, SPECTRUM_ALPHAS[k]) for k in kinds)])
def test_coefficient_spectrum_matches_sampled_spectrum_and_dense_oracle(
        dim3, grid_size, alpha):
    # three HarmonicCoeffs are contracted from their spectra synthesized by
    # the transform pair, sparse in m and never point-sampled; the same
    # fields as callables are contracted from the FFT of their ring
    # samples, and the dense oracle sums the whole N x N kernels
    from confsphere.reps import field_from_coeffs
    assert not hasattr(tri, "field_from_coeffs") and not hasattr(tri, "synth_at_points")
    engine = tri.TripleEngine(dim3, alpha, grid_size=grid_size)
    for fs in _spectrum_cases(grid_size[1]):
        sampled = engine.value(*map(field_from_coeffs, fs))
        dense = _dense_direct_oracle(dim3, fs, grid_size, alpha)
        got = engine.value(*fs)
        assert abs(got - sampled) <= 1e-13 * abs(sampled)
        assert abs(got - dense) <= 1e-13 * abs(dense)


def test_coefficient_spectrum_matches_sampled_spectrum_on_large_grid(dim3):
    # (48, 96): the contraction runs in several chunks of p, and the third
    # field's degree 49 is above the grid's own Legendre table
    from confsphere.reps import field_from_coeffs
    engine = tri.TripleEngine(dim3, SPECTRUM_ALPHAS["complex"], grid_size=(48, 96))
    fs = _spectrum_cases(96)[2]
    sampled = engine.value(*map(field_from_coeffs, fs))
    assert abs(engine.value(*fs) - sampled) <= 1e-13 * abs(sampled)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=st.sampled_from([(9, 19), (12, 24)]).flatmap(
           lambda g: st.tuples(st.just(g), st.integers(0, g[1]))),
       slot=st.integers(0, 2), seed=st.integers(0, 2 ** 16))
def test_ring_spectrum_exact_from_coefficients_property(case, slot, seed):
    # the spectrum of a degree-L field synthesized by the transform pair
    # against the FFT of its point samples, on one grid of a staggered set
    # (nonzero phi_0); degrees up to n_phi fold orders onto each other mod
    # n_phi.  Off the residues it returns, the coefficient spectrum is
    # exactly zero.
    from confsphere.reps import field_from_coeffs
    grid_size, degree = case
    grid = tri.triple_grids(grid_size)[slot]
    f = sg.random_coeffs(degree, seed)
    k, F = tri._ring_spectrum(f, grid)
    _, S = tri._ring_spectrum(field_from_coeffs(f), grid)
    assert np.abs(F - S).max() <= 1e-13 * np.abs(F).max()
    off = np.ones(grid.n_phi, dtype=bool)
    off[k] = False
    assert not F[off].any()


def test_band_limited_callable_keeps_the_coefficient_residues(dim3):
    # a degree-4 field's ring samples carry orders |m| <= 4 and rounding
    # elsewhere: as a callable it keeps the 9 residues its coefficients
    # keep, and the engine's value on callables is the coefficient value
    from confsphere.reps import field_from_coeffs
    fs = [sg.random_coeffs(4, 60 + j) for j in range(3)]
    for f, grid in zip(fs, tri.triple_grids((24, 48))):
        k, _ = tri._ring_spectrum(f, grid)
        k_sampled, _ = tri._ring_spectrum(field_from_coeffs(f), grid)
        assert k.size == 9 and np.array_equal(k_sampled, k)
    engine = tri.TripleEngine(dim3, SPECTRUM_ALPHAS["real"], grid_size=(24, 48))
    want = engine.value(*fs)
    assert abs(engine.value(*map(field_from_coeffs, fs)) - want) <= 1e-13 * abs(want)


def test_trace_quadrature_oracle_converges_to_exact_trace(dim3):
    # the grid quadrature of the harmonic-basis trace carries a quadrature
    # and a kernel truncation error; doubling its whole discretization
    # (grid and L_K) moves it toward the dense operator trace's weights A_l
    # and toward the exact K-type value
    fs = [sg.random_coeffs(4, 170 + j) for j in range(3)]
    a1, a2, a3 = 1.6, 1.8, 1.55
    fast = tri.generic_form(dim3, (a1, a2, a3), *fs, method="fast")
    errs = []
    for grid_size, L_K in (((12, 24), 8), ((24, 48), 16)):
        A = _dense_degree_weights(dim3, fs, L_K, a1, a2)
        A_quad = _quadrature_trace_oracle(dim3, fs, grid_size, a1, a2, L_K)
        v_quad = np.dot(knapp_stein_multipliers(dim3, a3, L_K), A_quad)
        errs.append(max(np.max(np.abs(A_quad - A)) / np.max(np.abs(A)),
                        abs(v_quad - fast) / abs(fast)))
    assert errs[1] <= errs[0] / 4.0


@pytest.mark.parametrize("alpha, tol", [((2.5, 2.7, 2.9), 1e-13),
                                        ((2.5 + 0.5j, 1.2, 3.8), 1e-13),
                                        ((1.62, 1.71, 1.83), 1e-10)])
def test_fast_constant_inputs_match_closed_form(dim3, alpha, tol):
    # a constant triple is the K-type seed alone, the closed form itself
    one = sg.coeffs_constant(1.0)
    got = tri.generic_form(dim3, alpha, one, one, one, method="fast")
    want = tri.closed_form_constant(dim3, alpha)
    assert abs(got - want) <= tol * abs(want)


def test_singular_quadrature_oracle_converges_to_finite_sum(dim3):
    # the quadrature the finite sum replaced carries a truncation and a
    # quadrature error; doubling its whole discretization (grid and L_K)
    # moves it toward the exact sum
    fs = [sg.random_coeffs(4, 170 + j) for j in range(3)]
    k, a1, a2 = 1, 1.6, 4.62
    exact = tri.singular_form(dim3, k, a1, a2, *fs)
    errs = [abs(_dense_singular_oracle(dim3, fs, grid_size, k, a1, a2, L_K) - exact)
            / abs(exact) for grid_size, L_K in (((12, 24), 8), ((24, 48), 16))]
    assert errs[1] <= errs[0] / 4.0


def _dense_degree_weights(dim, fields, L, a1, a2):
    """The diagonal of the dense product M_f2 E_a1 M_f3 E_a2 M_f1, each M_f
    built by full transforms of the identity columns on a larger, offset
    grid, summed over m."""
    f1, f2, f3 = fields
    L1, L3 = L + f1.L, L + f1.L + f3.L
    grid = sg.make_grid(L3 + f2.L + 2, phi_offset=0.37)

    def M(f, L_in, L_out):
        F = sg.sht_synthesize_columns(grid, f.c.reshape(-1, 1), f.L)
        I = np.eye((L_in + 1) * (2 * L_in + 1))
        return sg.sht_forward_columns(grid, F * sg.sht_synthesize_columns(grid, I, L_in), L_out)

    def E(a, Lx):
        return np.repeat(knapp_stein_multipliers(dim, a, Lx), 2 * Lx + 1)[:, None]

    T = M(f2, L3, L) @ (E(a1, L3) * (M(f3, L1, L3) @ (E(a2, L1) * M(f1, L, L1))))
    return (np.diagonal(T).reshape(L + 1, 2 * L + 1) * sg._lm_mask(L)).sum(axis=1)


def test_ktype_value_matches_dense_operator_trace(dim3):
    # in the convergent region the K-type sum is the harmonic-basis trace
    # sum_l e_l(a3) A_l, with A_l the diagonal of the dense product; at
    # these exponents its tail beyond degree 12 is below rounding.  The
    # complex fields have unequal degrees (a constant in slot 1, then in
    # slot 2), so a component integral taken from the wrong field's degree
    # drops terms that the dense product keeps
    for degrees, alpha in (((2, 3, 1), (3.7 + 0.2j, 4.4 - 0.3j, 4.1 + 0.1j)),
                           ((0, 2, 1), (4.3 - 0.4j, 3.1 + 0.5j, 3.9 - 0.2j)),
                           ((1, 0, 2), (3.2 + 0.1j, 4.6 + 0.7j, 4.4 + 0.3j))):
        fs = [sg.random_coeffs(d, 200 + d) for d in degrees]
        A = _dense_degree_weights(dim3, fs, 12, alpha[0], alpha[1])
        trace = np.dot(knapp_stein_multipliers(dim3, alpha[2], 12), A)
        got = tri.generic_form(dim3, alpha, *fs, method="fast")
        assert abs(got - trace) <= 1e-12 * abs(trace)


def test_ktype_invariance_at_continued_alpha(dim3):
    # far outside the convergence region the K-type sum is still the
    # invariant form: degree-3 fields moved by a boost and projected to
    # degree 14 (S = 42) give the value of the unmoved fields (S = 9)
    alpha = (0.3, 0.4, -1.8 + 0.1j)
    lam = tri.lambda_from_alpha(alpha).lam
    g = boost(0.15, dim3)
    fs = [sg.random_coeffs(3, 70 + j, real_field=True) for j in range(3)]
    moved = verify.moved_coeffs(lam, g, fs, sg.make_grid(n_theta=48, n_phi=96), 14)
    base = tri.generic_form(dim3, alpha, *fs, method="fast")
    got = tri.generic_form(dim3, alpha, *moved, method="fast")
    assert abs(got - base) <= 1e-12 * abs(base)


def _lstsq_ktype_oracle(dim, alpha, S):
    """The K-type recurrence in tau itself, alpha-dependent, as the library
    once solved it: from tau(0) = `closed_form_constant`, each odd level s
    assembles the equations sum_j [(mu_j - l_j)(l_j+1) tau(l + e_j) +
    (mu_j + l_j + 1) l_j tau(l - e_j)] / (2l_j+1) = 0, mu = -(rho + lam),
    densely and solves them for level s + 1 by complex least squares."""
    mu = -(dim.rho + np.array(tri.lambda_from_alpha(alpha).lam))
    tau = np.zeros((S + 1,) * 3, dtype=complex)
    tau[0, 0, 0] = tri.closed_form_constant(dim, alpha)
    E = np.eye(3, dtype=int)
    for s in range(1, S, 2):
        up = tri._triangles(s + 1)
        col = {tuple(t): i for i, t in enumerate(up)}
        eqs = sorted({tuple(t - e) for t in up for e in E if min(t - e) >= 0})
        A = np.zeros((len(eqs), len(up)), dtype=complex)
        b = np.zeros(len(eqs), dtype=complex)
        for r, l in enumerate(map(np.array, eqs)):
            for j, e in enumerate(E):
                if tuple(l + e) in col:
                    A[r, col[tuple(l + e)]] = (mu[j] - l[j]) * (l[j] + 1) / (2 * l[j] + 1)
                if l[j] > 0:
                    b[r] -= (mu[j] + l[j] + 1) * l[j] / (2 * l[j] + 1) * tau[tuple(l - e)]
        tau[tuple(up.T)] = np.linalg.lstsq(A, b, rcond=None)[0]
    return tau


@pytest.mark.parametrize("alpha", [(0.3, 0.4, -1.8 + 0.1j), (-2.3, 0.4, 0.5 + 0.2j),
                                   (1.6, 1.7, 1.8), (60, 61, 62), (100, 100, 100)])
def test_ktype_coefficients_match_lstsq_oracle(dim3, alpha):
    # the alpha-free solve in the holomorphic normalization against the
    # alpha-dependent least-squares one, continued and large exponents
    tau, _ = tri.ktype_coefficients(dim3, alpha, 24)
    want = _lstsq_ktype_oracle(dim3, alpha, 24)
    assert np.max(abs(tau - want)) <= 1e-12 * np.max(abs(want))


def test_ktype_coefficients_reject_negative_S(dim3):
    with pytest.raises(ValueError, match="S >= 0"):
        tri.ktype_coefficients(dim3, (1.6, 1.7, 1.8), -1)
    with pytest.raises(ValueError, match="n = 3"):
        tri.ktype_coefficients(Dimension(4), (1.6, 1.7, 1.8), 4)


def test_ktype_past_the_sum_planes(dim3):
    # at (0.6, 0.8, -2.6), rho + lam_2 = 0: the constant channel vanishes
    # (the trace read -436.7 there) and the equations in tau lose rank at
    # level 2, but the family is finite there.  On complex degree-3 fields
    # it is the limit of the least-squares oracle at a3 + eps, which
    # differs by about 2.56 eps relative.  A Gamma pole of the seed is a
    # true pole of the family and raises
    alpha = (0.6, 0.8, -2.6)
    one = sg.coeffs_constant(1.0)
    assert tri.generic_form(dim3, alpha, one, one, one, method="fast") == 0
    fs = [sg.random_coeffs(3, 40 + j) for j in range(3)]
    got = tri.generic_form(dim3, alpha, *fs, method="fast")
    assert np.isfinite(got) and abs(got) > 1.0
    G = tri._component_integrals(fs)
    for eps in (1e-4, 1e-5, 1e-4j):
        near = np.sum(_lstsq_ktype_oracle(dim3, (0.6, 0.8, -2.6 + eps), 9)[:4, :4, :4] * G)
        assert abs(got - near) <= 3 * abs(eps) * abs(got)
    with pytest.raises(ValueError, match="Gamma pole"):
        tri.ktype_coefficients(dim3, (1.6, 1.7, -1.0), 4)


@st.composite
def _ktype_alphas(draw):
    """Complex alpha with Re a_j in [-4, 5] and |Im a_j| <= 1.5, on a grid
    of 1/1024 so that sums are exact; a third of the draws set one
    rho + lam_k = (a_i + a_j)/2 + 1 to 0, -1 or -2, where the equations
    in tau lose rank."""
    a = [complex(draw(st.integers(-4096, 5120)), draw(st.integers(-1536, 1536))) / 1024
         for _ in range(3)]
    if draw(st.integers(0, 2 ** 16)) % 3 == 0:
        k, m = draw(st.integers(0, 2)), draw(st.integers(-2, 0))
        a[(k + 2) % 3] = 2 * (m - 1) - a[(k + 1) % 3]
    return tuple(a)


def _seed_pole_distance(x, rho=1.0):
    """The distance of x from the seed's Gamma poles x = -rho - 2k, k >= 0."""
    return abs(x + rho + 2 * max(0, round((-rho - x.real) / 2)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(alpha=_ktype_alphas())
def test_ktype_finite_off_the_seed_poles_property(alpha):
    # off the seed's poles tau is finite and every level consistent, on
    # the old rank-loss set too
    assume(all(-4 <= a.real <= 5 for a in alpha))
    assume(min(_seed_pole_distance(x) for x in (*alpha, sum(alpha))) >= 0.05)
    tau, residual = tri.ktype_coefficients(Dimension(3), alpha, 24)
    assert np.all(np.isfinite(tau)) and residual <= 1e-13


def test_ktype_levels_consistent(dim3):
    # every level's overdetermined solve is consistent to rounding, at real
    # and complex exponents, and tau vanishes off the triangles of even sum
    for alpha in ((1.6, 1.7, 1.8), (0.3 + 0.2j, -0.4, 0.9 - 0.3j)):
        tau, residual = tri.ktype_coefficients(dim3, alpha, 24)
        assert residual <= 1e-13
        l1, l2, l3 = np.indices(tau.shape)
        off = ((l1 + l2 + l3) % 2 == 1) | (abs(l1 - l2) > l3) | (l3 > l1 + l2)
        assert not tau[off].any() and np.all(tau[~off & (l1 + l2 + l3 <= 24)] != 0)


def test_ktype_coefficients_memory_bounded_at_S48(dim3):
    # K-types to S = 48: 2925 coefficients and the (S+1)^3 array tau; the
    # first call also builds and caches the levels' pseudo-inverses (5.1 MB,
    # the largest 325 x 348), the second reuses them
    import tracemalloc
    tri._ktype_level.cache_clear()
    for call in ("first", "second"):
        tracemalloc.start()
        try:
            tri.ktype_coefficients(dim3, (3.3, 3.7, 1.9), 48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, call


def test_ktype_memory_guard_refuses_S96_before_allocating(dim3):
    # at S = 96 tau and the level factors take 147 MB (the first call once
    # peaked at 378 MB): the call raises, naming S and the bytes, before
    # it allocates tau or caches a level; S <= 72 stays within the limit
    import tracemalloc
    tri._ktype_guard(72)
    before = tri._ktype_level.cache_info()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"S = 96 needs \d+ bytes"):
            tri.ktype_coefficients(dim3, (3.3, 3.7, 1.9), 96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6 and tri._ktype_level.cache_info() == before


def test_ktype_memory_guard_counts_tau_and_the_level_factors(dim3, monkeypatch):
    # the guard's closed-form count is exactly tau's bytes and those of
    # every cached level array to S = 24
    S, alpha = 24, (1.6, 1.7, 1.8)
    need = 16 * (S + 1) ** 3 + sum(a.nbytes for s in range(1, S, 2)
                                   for a in tri._ktype_level(s))
    monkeypatch.setattr(tri, "MAX_KTYPE_BYTES", need)
    tri.ktype_coefficients(dim3, alpha, S)
    monkeypatch.setattr(tri, "MAX_KTYPE_BYTES", need - 1)
    with pytest.raises(ValueError, match=f"S = {S} needs {need} bytes"):
        tri.ktype_coefficients(dim3, alpha, S)


def test_alpha3_family_memory_bounded(dim3):
    # the family holds no N x N kernel (at (48, 96) one dense complex
    # kernel alone is 340 MB): its component integrals live on a grid of
    # degree 6
    import tracemalloc
    fs = [sg.random_coeffs(4, 180 + j, real_field=True) for j in range(3)]
    tri.triple_grids((48, 96))
    tracemalloc.start()
    try:
        tri.generic_form_alpha3_family(dim3, 3.3, 3.7, *fs)(1.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_alpha3_family_memory_bounded_on_projected_fields(dim3):
    # moved fields projected to degree 16, K-types to S = 48: the
    # component integrals synthesize 17 degree parts per field on the
    # 1225 nodes of the grid of degree 24
    import tracemalloc
    g = random_element(dim3, 185, max_boost=0.3)
    fs = [sg.random_coeffs(4, 186 + j, real_field=True) for j in range(3)]
    moved = verify.moved_coeffs((0.5,) * 3, g, fs, sg.make_grid(n_theta=48, n_phi=96), 16)
    tracemalloc.start()
    try:
        tri.generic_form_alpha3_family(dim3, 3.3, 3.7, *moved)(1.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_fast_engine_memory_bounded(dim3):
    # degree-4 fields, K-types to S = 12: no basis column and no kernel
    import tracemalloc
    fs = [sg.random_coeffs(4, 180 + j, real_field=True) for j in range(3)]
    tracemalloc.start()
    try:
        tri.generic_form(dim3, (1.62, 1.71, 1.83), *fs, method="fast")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def _direct_engine_peak(dim, fs):
    """tracemalloc peak of one direct engine and one value at (48, 96)."""
    import tracemalloc
    tri.triple_grids((48, 96))
    tracemalloc.start()
    try:
        tri.TripleEngine(dim, (1.62, 1.71, 1.83), grid_size=(48, 96)).value(*fs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_direct_engine_memory_bounded(dim3):
    # no N x N array: at (48, 96) one dense real kernel alone is 170 MB;
    # the transformed tables and one chunk of the contraction take 40 MB
    # (tracemalloc peak)
    fs = [sg.random_coeffs(4, 180 + j, real_field=True) for j in range(3)]
    assert _direct_engine_peak(dim3, fs) < 100e6


def test_direct_engine_memory_bounded_on_callables(dim3):
    # callables enter the contraction with all n_phi orders: the
    # transformed tables, W and one chunk's arrays and their product take
    # 32 MB at (48, 96) (tracemalloc peak)
    from confsphere.reps import field_from_coeffs
    fs = [field_from_coeffs(sg.random_coeffs(4, 180 + j, real_field=True))
          for j in range(3)]
    assert _direct_engine_peak(dim3, fs) < 100e6


def test_direct_engine_callables_within_documented_working_set(dim3):
    # TripleEngine.value's bound: the three transformed tables, 3 n nt^2
    # complex entries, plus at most 4 nt n^2 for W, one chunk's arrays and
    # their batched product; at (48, 96) that is 38.9 MB
    from confsphere.reps import field_from_coeffs
    fs = [field_from_coeffs(sg.random_coeffs(4, 180 + j, real_field=True))
          for j in range(3)]
    nt, n = 48, 96
    assert _direct_engine_peak(dim3, fs) <= 16 * (3 * n * nt * nt + 4 * nt * n * n)


def test_direct_engine_refuses_oversized_kernel(dim3, monkeypatch):
    # grid (96, 192): the contraction's working set would be about
    # 4 * 96 * 192^2 complex entries, 226 MB; refused before any kernel
    # table is built
    monkeypatch.setattr(tri, "chordal_power", None)
    with pytest.raises(ValueError, match="contraction working set"):
        tri.TripleEngine(dim3, (1.6, 1.8, 1.55), method="direct",
                         grid_size=(96, 192))


def test_staggered_grids_share_one_legendre_table(monkeypatch):
    # the grids of a set share their polar nodes: one table per set, read
    # by every grid of it (a size no other test builds)
    calls = []
    table = sg.legendre_table
    monkeypatch.setattr(sg, "legendre_table",
                        lambda L, u: calls.append((L, len(u))) or table(L, u))
    triple, double = tri.triple_grids((14, 28)), tri._staggered_grids(14, 28, 2)
    assert calls == [(13, 14), (13, 14)]
    for grids in (triple, double):
        assert all(g.legendre is grids[0].legendre for g in grids)
        assert not grids[0].legendre.flags.writeable
    # transforms on the set build no further table, and each grid's phase
    # matrix (its own azimuths) once
    phase = sg._phase_matrix
    monkeypatch.setattr(sg, "_phase_matrix",
                        lambda grid, L: calls.append(("phase", L)) or phase(grid, L))
    C = np.ones((6 * 11, 1))
    for grids in (triple, double, triple):
        for g in grids:
            sg.sht_forward_columns(g, sg.sht_synthesize_columns(g, C, 5), 5)
    assert calls == [(13, 14), (13, 14)] + [("phase", 13)] * 5


def test_grids_built_once_per_size(dim3, monkeypatch):
    # one set of grids per size (list or tuple), with read-only nodes, so
    # a repeated evaluation builds no Legendre table
    grids = tri.triple_grids((12, 24))
    assert tri.triple_grids([12, 24]) is grids
    with pytest.raises(ValueError):
        grids[0].u[0] = 0.0
    one = sg.coeffs_constant(1.0, 2)
    tri.generic_form(dim3, (1.0, 1.0, 1.0), one, one, one, grid_size=(12, 24))
    tri.singular_form(dim3, 1, 2.3, 5.6, one, one, one)
    calls = []
    table = sg.legendre_table
    monkeypatch.setattr(sg, "legendre_table",
                        lambda L, u: calls.append(L) or table(L, u))
    tri.generic_form(dim3, (1.0, 1.0, 1.0), one, one, one, grid_size=(12, 24))
    tri.singular_form(dim3, 1, 2.3, 5.6, one, one, one)
    assert tri.triple_grids((12, 24)) is grids
    assert calls == []


def test_singular_form_k0_reduction(dim3):
    # Delta_0 = id collapses the singular form to a double integral with
    # added exponents
    fs = [sg.random_coeffs(4, 100 + j) for j in range(3)]
    a1, a2 = 1.3, 2.6
    got = tri.singular_form(dim3, 0, a1, a2, *fs)
    gx, g3 = tri._staggered_grids(48, 96, 2)
    from confsphere.reps import field_from_coeffs
    F1 = field_from_coeffs(fs[0])(gx.flat_points())
    F2 = field_from_coeffs(fs[1])(gx.flat_points())
    F3 = field_from_coeffs(fs[2])(g3.flat_points())
    K = tri.chordal_power(gx.flat_points(), g3.flat_points(), a1 + a2 - 2.0)
    want = (F1 * F2 * gx.flat_weights()) @ K @ (F3 * g3.flat_weights())
    assert abs(got - want) <= 1e-6 * abs(want)


def test_singular_form_constant_closed_value(dim3):
    # hand-derived: T_1(a1, a2; 1, 1, 1)
    one = sg.coeffs_constant(1.0, 2)
    for a1, a2 in ((2.3, 5.6), (3.1, 4.8)):
        got = tri.singular_form(dim3, 1, a1, a2, one, one, one)
        want = (-4 * np.pi ** 2 * 2 ** (a1 + a2) * (a1 - 1) * (a2 - 1)
                / ((a1 + a2 - 2) * (a1 + a2)))
        assert abs(got - want) <= 1e-6 * abs(want)


def test_singular_form_regime_guards(dim3):
    # the pairings of the finite sum have their poles on the singular lines
    # a1 + a2 = 2k - 2l, l >= 0; points off them are continued
    one = sg.coeffs_constant(1.0, 2)
    for k, a1, a2 in ((1, 0.7, 1.3), (1, 0.5, -0.5), (0, 1.2, -1.2),
                      (2, 2.5, 1.5), (2, 0.3 + 0.2j, -2.3 - 0.2j)):
        with pytest.raises(ValueError, match="pole"):
            tri.singular_form(dim3, k, a1, a2, one, one, one)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_singular_form_constant_inputs_match_closed_residue(dim3, k):
    # direct (1.3, 3.5) and continued (0.4, 0.9), (0.3, -0.2+0.4i) points
    one = sg.coeffs_constant(1.0, 2)
    c_k = gjms_constant(dim3, k)
    for a1, a2 in ((1.3, 3.5), (0.4, 0.9), (0.3, -0.2 + 0.4j)):
        got = tri.singular_form(dim3, k, a1, a2, one, one, one)
        want = tri.closed_form_constant_residue(dim3, k, a1, a2) / c_k
        assert abs(got - want) <= 1e-12 * abs(want)


def _singular_invariance_defect(dim, k, a1, a2, g, fs, grid, L):
    lam = tri.lambda_from_alpha((a1, a2, -dim.rho - 2.0 * k)).lam
    return verify.invariance_defect(partial(tri.singular_form, dim, k, a1, a2),
                                    lam, g, fs, grid, L)


def test_singular_invariance(dim3):
    g = random_element(dim3, 111, max_boost=0.3)
    fs = [sg.random_coeffs(4, 120 + j, real_field=True) for j in range(3)]
    for k, a1, a2 in ((0, 1.45, 2.83), (1, 1.45, 4.62)):
        defect = _singular_invariance_defect(
            dim3, k, a1, a2, g, fs, sg.make_grid(n_theta=48, n_phi=96), 16)
        assert defect < 1e-3


def test_singular_invariance_continued(dim3):
    # below the direct regime, on random fields: the moved fields projected
    # to degree 16 leave only their projection error
    g = random_element(dim3, 112, max_boost=0.3)
    fs = [sg.random_coeffs(4, 125 + j, real_field=True) for j in range(3)]
    for k, a1, a2 in ((1, 0.4, 0.9), (1, 0.3, -0.2 + 0.4j), (2, 1.1, 0.7)):
        defect = _singular_invariance_defect(
            dim3, k, a1, a2, g, fs, sg.make_grid(n_theta=24, n_phi=48), 16)
        assert defect < 1e-9


def test_residue_bridge_k0():
    fs = [sg.random_coeffs(4, 130 + j, real_field=True) for j in range(3)]
    defect = verify.residue_bridge_defect(0, 3.3, 3.7, *fs)
    assert defect < 5e-3


def test_residue_bridge_k1_random_fields():
    fs = [sg.random_coeffs(4, 135 + j, real_field=True) for j in range(3)]
    defect = verify.residue_bridge_defect(1, 2.3, 5.6, *fs)
    assert defect < 1e-7


def test_residue_bridge_beyond_the_sum_planes():
    # where the truncated trace diverged, Re(a1+a2) <= 2k, the exact K-type
    # family still carries the residue down to the singular form: at
    # k = 1, (0.4, 0.9) and at k = 0, (-0.7, -0.2)
    fs = [sg.random_coeffs(3, 1100 + j, real_field=True) for j in range(3)]
    for k, a1, a2 in ((1, 0.4, 0.9), (0, -0.7, -0.2)):
        assert verify.residue_bridge_defect(k, a1, a2, *fs) <= 1e-9


def test_spectral_layer_refuses_callables(dim3):
    # the K-type and the finite sums are exact on coefficients; a callable
    # in any slot (here a moved field) raises instead of being projected
    # on a grid the caller did not choose
    from confsphere.reps import pi_pointwise
    g = random_element(dim3, 113, max_boost=0.3)
    fs = [sg.random_coeffs(3, 215 + j, real_field=True) for j in range(3)]
    for slot in range(3):
        mixed = list(fs)
        mixed[slot] = pi_pointwise(dim3, 0.5, g, fs[slot])
        for call in (lambda: tri.generic_form_alpha3_family(dim3, 1.6, 1.8, *mixed),
                     lambda: tri.singular_form(dim3, 1, 1.45, 4.62, *mixed),
                     lambda: verify.residue_bridge_defect(0, 3.3, 3.7, *mixed),
                     lambda: tri.generic_form(dim3, (1.6, 1.8, 1.55), *mixed,
                                              method="fast")):
            with pytest.raises(TypeError, match="expected HarmonicCoeffs"):
                call()


def test_residue_bridge_k1_closed_channel(dim3):
    one = sg.coeffs_constant(1.0, 2)
    for a1, a2 in ((2.3, 5.6), (3.1, 4.8)):
        t_val = tri.singular_form(dim3, 1, a1, a2, one, one, one)
        got = gjms_constant(dim3, 1) * t_val
        want = tri.closed_form_constant_residue(dim3, 1, a1, a2)
        assert abs(got - want) <= 5e-3 * abs(want)
    # constant-free cross-check: ratios across the two parameter points
    t1 = tri.singular_form(dim3, 1, 2.3, 5.6, one, one, one)
    t2 = tri.singular_form(dim3, 1, 3.1, 4.8, one, one, one)
    w1 = tri.closed_form_constant_residue(dim3, 1, 2.3, 5.6)
    w2 = tri.closed_form_constant_residue(dim3, 1, 3.1, 4.8)
    assert abs(t1 / t2 - w1 / w2) <= 5e-3 * abs(w1 / w2)


def test_closed_residue_consistent_with_closed_form(dim3):
    # ring-fit the closed form itself around the third-slot pole
    from confsphere.mero import residue_ring
    a1, a2 = 1.7, 2.4
    for k in (0, 1):
        fit = residue_ring(lambda z: tri.closed_form_constant(dim3, (a1, a2, z)),
                           -1.0 - 2 * k, 0.1, 16)
        want = tri.closed_form_constant_residue(dim3, k, a1, a2)
        assert abs(fit.residue / 2.0 - want) <= 1e-9 * abs(want)


def _gamma_ratio_residue(k, a1, a2):
    """closed_form_constant_residue at n = 3 as the log-space Gamma quotient
    pref Gamma((a1+a2)/2-k) Gamma((a1+1)/2) Gamma((a2+1)/2)
    / [Gamma((a2+1)/2-k) Gamma((a1+1)/2-k) Gamma(1+(a1+a2)/2)]."""
    pref = 8.0 * np.pi ** 3 * 2.0 ** (a1 + a2 - 1.0 - 2 * k) * (-1.0) ** k / math.factorial(k)
    return pref * gamma_ratio([(a1 + a2) / 2 - k, (a1 + 1) / 2, (a2 + 1) / 2],
                              [(a2 + 1) / 2 - k, (a1 + 1) / 2 - k, 1 + (a1 + a2) / 2])


def _mpmath_residue(k, a1, a2):
    """The same quotient at 50 digits by mpmath.gammaprod, which takes the
    limit where numerator and denominator poles cancel."""
    with mpmath.workdps(50):
        a1, a2 = mpmath.mpc(a1), mpmath.mpc(a2)
        pref = (8 * mpmath.pi ** 3 * mpmath.mpf(2) ** (a1 + a2 - 1 - 2 * k)
                * (-1) ** k / mpmath.factorial(k))
        return complex(pref * mpmath.gammaprod(
            [(a1 + a2) / 2 - k, (a1 + 1) / 2, (a2 + 1) / 2],
            [(a2 + 1) / 2 - k, (a1 + 1) / 2 - k, 1 + (a1 + a2) / 2]))


def test_constant_residue_is_finite_at_removable_points(dim3):
    # on a1 + a2 = -2, -4, ... the poles of Gamma((a1+a2)/2 - k) and
    # Gamma(1 + (a1+a2)/2) cancel: the residue is the limit there and
    # accurate near there, while singular_form still raises on these lines
    one = sg.coeffs_constant(1.0, 2)
    for k, a1, a2, want in ((1, 0.3, -2.3, -2.2382655978591433),
                            (2, 0.3, -4.3, -0.04612846021724268)):
        got = tri.closed_form_constant_residue(dim3, k, a1, a2)
        assert abs(got - want) <= 1e-15 * abs(want)
        assert abs(got - _mpmath_residue(k, a1, a2)) <= 1e-14 * abs(want)
        with pytest.raises(ValueError, match="pole"):
            tri.singular_form(dim3, k, a1, a2, one, one, one)
    for k, tau in ((1, -2.0), (1, -4.0), (2, -2.0), (2, -6.0)):
        for dist in (1e-2, 1e-3, 1e-5, -1e-5, 1e-3j):
            a1 = 0.3 + 0.1j
            a2 = tau - a1 + dist
            want = _mpmath_residue(k, a1, a2)
            got = tri.closed_form_constant_residue(dim3, k, a1, a2)
            assert abs(got - want) <= 1e-14 * abs(want), (k, tau, dist)


def _gamma_argument_distance(k, a1, a2):
    """Distance from the nearest Gamma argument of _gamma_ratio_residue to
    a pole of Gamma; its reflection formula loses digits in proportion."""
    args = ((a1 + a2) / 2 - k, (a1 + 1) / 2, (a2 + 1) / 2,
            (a2 + 1) / 2 - k, (a1 + 1) / 2 - k, 1 + (a1 + a2) / 2)
    return min(abs(z - min(0, round(z.real))) for z in args)


@st.composite
def _residue_points(draw):
    """(k, a1, a2): a generic complex point, or a point on a lattice line
    a1 + a2 = 2k - 2l, l = 0..k+3 (singular for l <= k, removable beyond),
    on a 1/8 grid so that the sum is exact."""
    k = draw(st.integers(0, 3))
    if draw(st.booleans()):
        a1, a2 = (complex(draw(st.floats(-7.0, 7.0)), draw(st.floats(-2.0, 2.0)))
                  for _ in range(2))
    else:
        a1 = complex(draw(st.integers(-56, 56)) / 8, draw(st.integers(-16, 16)) / 8)
        a2 = 2 * k - 2 * draw(st.integers(0, k + 3)) - a1
    return k, a1, a2


@settings(derandomize=True, deadline=None, max_examples=300)
@given(point=_residue_points())
@example(point=(1, 0.3 + 0j, -2.3 + 0j))       # removable
@example(point=(2, 0.3 + 0.2j, 1.7 - 0.2j))    # singular, l = 1
def test_rational_residue_matches_the_gamma_quotient_property(point):
    # on the singular lines a1 + a2 = 2k - 2l, 0 <= l <= k, both raise; on
    # the removable lines below them the product is finite where the
    # quotient raises; elsewhere the two agree.  Where a zero plane
    # a_j = 2k - 2i - 1 (i < k) crosses a singular line the quotient is
    # indeterminate, and the two differ (0 against a raise)
    k, a1, a2 = point
    dim = Dimension(3)
    tau = a1 + a2
    if tau.imag == 0.0 and tau.real in range(2 * k, -8, -2):
        if tau.real < 0.0:
            assert np.isfinite(tri.closed_form_constant_residue(dim, k, a1, a2))
            return
        zero_planes = range(1, 2 * k, 2)
        assume(not any(a.imag == 0.0 and a.real in zero_planes for a in (a1, a2)))
        with pytest.raises(ZeroDivisionError, match="gamma pole"):
            _gamma_ratio_residue(k, a1, a2)
        with pytest.raises(ZeroDivisionError, match="gamma pole"):
            tri.closed_form_constant_residue(dim, k, a1, a2)
        return
    assume(_gamma_argument_distance(k, a1, a2) >= 0.05)
    got = tri.closed_form_constant_residue(dim, k, a1, a2)
    want = _gamma_ratio_residue(k, a1, a2)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_pole_scan_planes(dim3):
    reports = tri.pole_scan(dim3, "alpha3", window=(-6.5, 0.5),
                            a1=0.31, a2=0.77)
    planes = sorted(r.position.real for r in reports if r.family == "alpha3")
    sums = sorted(r.position.real for r in reports if r.family == "sum")
    assert np.allclose(planes, [-5.0, -3.0, -1.0], atol=1e-6)
    assert np.allclose(sums, [-6.08, -4.08, -2.08], atol=1e-6)
    assert not [r for r in reports if r.family == "unknown"]


def test_pole_scan_no_false_positives_between_poles(dim3):
    reports = tri.pole_scan(dim3, "alpha3", window=(-0.6, 0.8),
                            a1=0.31, a2=0.77)
    assert reports == []


def test_pole_scan_singular_lines(dim3):
    # k = 1: the residue expression has poles at a1+a2 = 2 and 0 only (the
    # deeper lattice points are cancelled by the denominator zeros)
    reports = tri.pole_scan(dim3, "singular_line", window=(-3.0, 3.0),
                            k=1, delta=0.26)
    lines = sorted(round(r.position.real) for r in reports
                   if r.family == "singular_line")
    assert lines == [0, 2]
    reports = tri.pole_scan(dim3, "singular_line", window=(-1.0, 5.0),
                            k=2, delta=0.26)
    lines = sorted(round(r.position.real) for r in reports
                   if r.family == "singular_line")
    assert lines == [0, 2, 4]
    assert all(r.k == (2 * 2 - round(r.position.real)) // 2 for r in reports)


def _per_ring_pole_scan(dim, family, window, a1=0.31, a2=0.77, k=1, delta=0.26):
    """pole_scan from the scalar integrand and one residue_ring per center,
    with its threshold, merge and classification."""
    if family == "alpha3":
        func = lambda z: tri.closed_form_constant(dim, (a1, a2, z))
        fixed, k_line = {"a1": complex(a1), "a2": complex(a2)}, None
    else:
        func = lambda z: tri.closed_form_constant_residue(dim, k, (z + delta) / 2.0,
                                                          (z - delta) / 2.0)
        fixed, k_line = {"delta": complex(delta)}, k
    hits = []
    for center in np.arange(window[0], window[1] + tri.SCAN_STEP / 2.0, tri.SCAN_STEP):
        fit = residue_ring(func, center, radius=tri.RING_RADIUS)
        position = fit.center + fit.pole_offset
        if (abs(fit.residue) > 1e-6 * (tri.RING_RADIUS * fit.sample_max + 1e-300)
                and abs(position - center) < tri.RING_RADIUS):
            hits.append((position, fit))
    merged = []
    for pos, fit in sorted(hits, key=lambda h: h[0].real):
        if not merged or abs(pos - merged[-1][0]) >= tri.SCAN_STEP:
            merged.append((pos, fit))
    return [(*tri._classify(dim, family, pos, fixed, k_line)[:2], pos, fit.residue,
             fit.condition) for pos, fit in merged]


@pytest.mark.parametrize("family, window, params", [
    ("alpha3", (-6.5, 0.5), {}),
    ("alpha3", (-6.5, 0.5), {"a1": 0.12, "a2": 0.94}),
    ("singular_line", (-3.0, 3.0), {}),
    ("singular_line", (-3.1, 7.1), {"k": 3, "delta": 0.37}),
    ("singular_line", (-1.0, 5.0), {"k": 2}),
])
def test_pole_scan_matches_the_per_ring_reference(dim3, family, window, params):
    # one batched sampling and fit per window finds the poles the scalar
    # integrand finds ring by ring: the same (family, k), positions and
    # residues to 1e-13 relative (positions near 0 on the window's scale)
    got = tri.pole_scan(dim3, family, window, **params)
    want = _per_ring_pole_scan(dim3, family, window, **params)
    assert got and [(r.family, r.k) for r in got] == [w[:2] for w in want]
    for r, (_, _, pos, res, cond) in zip(got, want):
        assert abs(r.position - pos) <= 1e-13 * max(1.0, abs(pos))
        assert abs(r.residue - res) <= 1e-13 * abs(res)
        assert r.condition == pytest.approx(cond, rel=1e-6, abs=1e-12)


def test_array_rational_residue_matches_the_scalar_calls(dim3):
    rng = np.random.default_rng(17)
    a1 = rng.uniform(-4.0, 4.0, 20) + 1j * rng.uniform(-1.0, 1.0, 20)
    a2 = rng.uniform(-4.0, 4.0, 20) + 1j * rng.uniform(-1.0, 1.0, 20)
    for k in range(4):
        got = tri.closed_form_constant_residue(dim3, k, a1, a2)
        for j in range(20):
            want = tri.closed_form_constant_residue(dim3, k, a1[j], a2[j])
            assert abs(got[j] - want) <= 1e-14 * abs(want)
    # on the singular line a1 + a2 = 2 the array call raises as the
    # scalar call does, with its message
    with pytest.raises(ZeroDivisionError) as scalar:
        tri.closed_form_constant_residue(dim3, 1, 1.25, 0.75)
    with pytest.raises(ZeroDivisionError) as array:
        tri.closed_form_constant_residue(dim3, 1, np.array([0.3, 1.25]), np.array([0.2, 0.75]))
    assert str(array.value) == str(scalar.value) == "gamma pole at z=0j"


def _product_gamma_ratio(num, den):
    """The Gamma quotient as a running product of complex_gamma values:
    the multiplicative form, which overflows at large arguments."""
    val = 1.0 + 0.0j
    for a in num:
        val *= complex_gamma(a)
    for b in den:
        val /= complex_gamma(b)
    return val


def _log_space_tol(num, den):
    """Rounding scale of a log-space quotient: the Lanczos error (1e-13
    per factor) plus a few ulps of every summed log-Gamma."""
    logs = np.abs(loggamma(np.array(list(num) + list(den), dtype=complex)))
    return 1e-13 * len(logs) + 4 * np.finfo(float).eps * logs.sum()


def test_gamma_ratio_large_arguments_against_scipy(dim3):
    a = (100.0, 100.0, 100.0)
    num = [(sum(a) + 1) / 2] + [(v + 1) / 2 for v in a]
    den = [1 + (a[1] + a[2]) / 2] * 3
    want = np.exp(loggamma(num).sum() - loggamma(den).sum())    # 4.53e-22
    got = tri.gamma_ratio_factor(dim3, a)
    assert abs(got - want) <= _log_space_tol(num, den) * abs(want)
    rng = np.random.default_rng(5)
    for _ in range(200):
        # both half planes (the left one through reflection), complex too
        z1, z2 = (complex(rng.uniform(-160, 160), rng.uniform(-20, 20))
                  for _ in range(2))
        log_want = loggamma(z1) - loggamma(z2)
        if abs(log_want.real) > 600:
            continue
        got = gamma_ratio([z1], [z2])
        assert abs(got - np.exp(log_want)) <= (_log_space_tol([z1], [z2])
                                               * abs(np.exp(log_want)))


def test_gamma_ratio_poles_raise(dim3):
    for pole in (0.0, -1.0, -7.0):
        with pytest.raises(ZeroDivisionError):
            complex_gamma(pole)
        with pytest.raises(ZeroDivisionError):
            gamma_ratio([pole], [1.5])
        # more poles below than above: the ratio's limit, 0
        assert gamma_ratio([1.5], [pole]) == 0.0
        # as many above as below: the limit is finite but not taken
        with pytest.raises(ZeroDivisionError):
            gamma_ratio([pole, 1.5], [pole - 1.0])
    # a1 + a3 = -2: the constant channel vanishes (4.8e-7 at distance 1e-9)
    assert tri.closed_form_constant(dim3, (0.6, 0.8, -2.6)) == 0.0
    near = tri.closed_form_constant(dim3, (0.6, 0.8, -2.6 + 1e-9))
    assert 0.0 < abs(near) < 1e-6


def test_pochhammer_against_scipy_and_mpmath():
    # (a)_m = Gamma(a + m) / Gamma(a) for m of either sign, as a product
    for a in (0.3, -2.7, 5.5, -0.5, 40.25):
        for m in range(-6, 7):
            want = sp.poch(a, m)
            assert abs(pochhammer(a, m) - want) <= 1e-14 * abs(want), (a, m)
    for a in (0.3 + 0.2j, -4.6 - 1.3j, 12.0 + 7.0j):
        for m in (-5, -1, 0, 1, 5):
            want = complex(mpmath.rf(mpmath.mpc(a), m))
            assert abs(pochhammer(a, m) - want) <= 1e-14 * abs(want), (a, m)
    # a vanishing factor: 0 for m > 0; a pole of Gamma(a + m) for m < 0,
    # named as complex_gamma names it; the finite limit where Gamma(a)
    # has a pole too, Gamma(-3) / Gamma(-1) = 1/6
    assert pochhammer(-2.0, 3) == 0.0
    with pytest.raises(ZeroDivisionError, match=r"gamma pole at z=\(-2\+0j\)"):
        pochhammer(1.0, -3)
    assert pochhammer(-1.0, -2) == 1.0 / 6.0
    # entrywise over an array, with the scalar call's raise at its first
    # vanishing divisor
    a = np.array([[0.3, -2.7], [12.0 + 7.0j, -1.0]])
    for m in (-3, 0, 4):
        got = pochhammer(a, m)
        assert got.shape == a.shape
        for idx in np.ndindex(a.shape):
            want = pochhammer(a[idx], m)
            assert abs(got[idx] - want) <= 1e-15 * abs(want), (a[idx], m)
    with pytest.raises(ZeroDivisionError, match=r"^gamma pole at z=\(-2\+0j\)$"):
        pochhammer(np.array([0.5, 1.0, 2.0]), -3)


def test_log_space_closed_forms_match_products(dim3, monkeypatch):
    rng = np.random.default_rng(11)
    points = [tuple(complex(rng.uniform(-7, 7), rng.uniform(-1, 1) * (j % 2))
                    for _ in range(3)) for j in range(200)]
    checked = 0
    for a in points:
        try:
            with monkeypatch.context() as mp:
                mp.setattr(tri, "gamma_ratio", _product_gamma_ratio)
                want = tri.closed_form_constant(dim3, a)
        except (OverflowError, ZeroDivisionError):
            continue
        assert abs(tri.closed_form_constant(dim3, a) - want) <= 1e-13 * abs(want)
        checked += 1
    assert checked > 150
    kw = dict(window=(-6.5, 0.5), a1=0.31, a2=0.77)
    with monkeypatch.context() as mp:
        mp.setattr(tri, "gamma_ratio", _product_gamma_ratio)
        want = tri.pole_scan(dim3, "alpha3", **kw)
    got = tri.pole_scan(dim3, "alpha3", **kw)
    assert [(r.family, r.k) for r in got] == [(r.family, r.k) for r in want]
    for g, w in zip(got, want):
        # positions relative to the O(1) scale of the scan variable
        # (a pole at 0 is fitted to within rounding of 0)
        assert abs(g.position - w.position) <= 1e-13 * max(1.0, abs(w.position))
        assert abs(g.residue - w.residue) <= 1e-13 * abs(w.residue)


def test_kernel_pullback_identity_and_rotation(dim3, rng):
    f1 = sg.random_coeffs(6, 140)
    x3 = random_unit(rng, 1)[0]
    from confsphere.lorentz import identity
    assert verify.kernel_pullback_defect(1, 4.0, identity(dim3), f1, x3) < 1e-12
    g = random_element(dim3, 141, max_boost=0.0)
    assert verify.kernel_pullback_defect(1, 4.0, g, f1, x3) < 1e-10


def test_kernel_pullback_boost(dim3, rng):
    f1 = sg.random_coeffs(6, 150)
    x3 = random_unit(rng, 1)[0]
    g = boost(0.3, dim3)
    assert verify.kernel_pullback_defect(1, 4.0, g, f1, x3) < 1e-8
    g2 = random_element(dim3, 151, max_boost=0.4)
    assert verify.kernel_pullback_defect(2, 3.1 + 0.4j, g2, f1, x3) < 1e-8


def test_product_rule_split(rng):
    phi = sg.random_coeffs(6, 160)
    y = random_unit(rng, 1)[0]
    pts = random_unit(rng, 40)
    pts = pts[np.linalg.norm(pts - y, axis=1) > 0.7]
    assert verify.product_rule_split_defect(6.0, phi, y, pts) < 1e-5
    one = sg.coeffs_constant(1.0, 1)
    assert verify.product_rule_split_defect(5.0, one, y, pts) < 1e-6
    assert verify.product_rule_split_defect(6.0, phi, y, -y[None, :]) < 1e-6
