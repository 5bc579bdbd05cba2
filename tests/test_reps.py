import numpy as np
import pytest

from confsphere.lorentz import (Dimension, boost, compose, conformal_factor, identity,
                                inverse, random_element, rotation)
from confsphere import reps, sphgrid as sg, verify
from conftest import random_unit, rounding_tol


def _rotation(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return rotation(q, dim), q


def test_pi_identity(dim3, grid32):
    f = sg.sht_inverse(sg.random_coeffs(8, 1).pad(32), grid32)
    out = reps.pi_act(dim3, 0.7, identity(dim3), f)
    assert np.abs(out.values - f.values).max() < 1e-12


def test_pi_rotation_is_pullback(dim3, grid32, rng):
    g, q = _rotation(rng, dim3)
    c = sg.random_coeffs(8, 2)
    f = sg.sht_inverse(c.pad(32), grid32)
    out = reps.pi_act(dim3, complex(0.3, -0.8), g, f)
    want = sg.synth_at_points(c, grid32.points() @ q)  # k^{-1} x = q^T... rows
    # act(inverse(g), x) = q^{-1} x; points() @ q gives (q^T x)^T rows
    want = sg.synth_at_points(c, np.einsum("ij,...j->...i", q.T, grid32.points()))
    assert np.abs(out.values - want).max() < 1e-11


def test_group_law(dim3, grid32):
    # words may compose two boosts, so cap the parameter at half the
    # stated single-boost regime
    g1 = random_element(dim3, 11, max_boost=0.25)
    g2 = random_element(dim3, 12, max_boost=0.25)
    f = sg.sht_inverse(sg.random_coeffs(8, 5).pad(32), grid32)
    lam = complex(0.4, -0.1)
    lhs = reps.pi_act(dim3, lam, compose(g1, g2), f)
    rhs = reps.pi_act(dim3, lam, g1, reps.pi_act(dim3, lam, g2, f))
    rel = np.abs(lhs.values - rhs.values).max() / np.abs(lhs.values).max()
    assert rel < 1e-9


def test_duality(dim3, grid32, rng):
    cf, cp = sg.random_coeffs(6, 7), sg.random_coeffs(6, 8)
    assert verify.duality_defect(0.7, identity(dim3), cf, cp, grid32) < 1e-13
    grot, _ = _rotation(rng, dim3)
    assert verify.duality_defect(0.0, grot, cf, cp, grid32) < 1e-12
    g = boost(0.3, dim3)
    f = sg.sht_inverse(cf.pad(32), grid32)
    phi = sg.sht_inverse(cp.pad(32), grid32)
    scale = sg.norm_l2(f) * sg.norm_l2(phi)
    assert verify.duality_defect(0.7, g, cf, cp, grid32) < 1e-6 * scale


@pytest.mark.parametrize("L", [32, 64])
def test_pi_act_on_padded_samples_matches_coefficients(dim3, L):
    # a band-limited field may go through pi_act_coeffs instead of pi_act
    grid = sg.make_grid(L)
    for i, lam in enumerate((0.8, complex(0.4, -0.2), 0.9j)):
        c = sg.random_coeffs(8, 300 + i)
        g = random_element(dim3, 310 + i, max_boost=0.5)
        sampled = reps.pi_act(dim3, lam, g, sg.sht_inverse(c.pad(L), grid))
        exact = reps.pi_act_coeffs(dim3, lam, g, c, grid)
        rel = np.abs(sampled.values - exact.values).max() / np.abs(exact.values).max()
        assert rel < 1e-12


def _synthesized_degrees(monkeypatch):
    """The degrees reps synthesizes from here on."""
    degrees = []
    synth = reps.synth_at_points

    def counted(coeffs, points):
        degrees.append(coeffs.L)
        return synth(coeffs, points)

    monkeypatch.setattr(reps, "synth_at_points", counted)
    return degrees


def test_pi_act_synthesizes_moved_field_below_grid_degree(dim3, monkeypatch):
    # a degree-8 field moved by a boost of 0.5 carries coefficients that
    # decay like tanh(1/4)^l: pi_act drops the degrees below rounding,
    # which moves no value by more than the full synthesis rounds
    grid = sg.make_grid(64)
    f = reps.pi_act_coeffs(dim3, 0.8, boost(0.5, dim3), sg.random_coeffs(8, 51), grid)
    g, lam = random_element(dim3, 52, max_boost=0.3), complex(0.4, -0.2)
    full = sg.sht_forward(f)
    want = reps.pi_act_coeffs(dim3, lam, g, full, grid).values
    degrees = _synthesized_degrees(monkeypatch)
    got = reps.pi_act(dim3, lam, g, f).values
    assert len(degrees) == 1 and 8 < degrees[0] < 64, degrees
    factor = np.abs(conformal_factor(inverse(g), grid.points()) ** (dim3.rho + lam)).max()
    assert np.abs(got - want).max() <= factor * rounding_tol(full)


def test_pi_act_on_full_band_field_is_the_untrimmed_route(dim3, monkeypatch):
    grid = sg.make_grid(64)
    f = sg.sht_inverse(sg.random_coeffs(64, 53), grid)
    g, lam = random_element(dim3, 54, max_boost=0.3), complex(0.3, 0.5)
    want = reps.pi_act_coeffs(dim3, lam, g, sg.sht_forward(f), grid).values
    degrees = _synthesized_degrees(monkeypatch)
    assert np.array_equal(reps.pi_act(dim3, lam, g, f).values, want)
    assert degrees == [64]


def test_grid_actions_name_their_dimension():
    # one check at the callable's construction serves all three entry points
    dim4 = Dimension(4)
    g, c = boost(0.3, dim4), sg.random_coeffs(4, 1)
    grid = sg.make_grid(8)
    calls = [lambda: reps.pi_pointwise(dim4, 0.3, g, c),
             lambda: reps.pi_act_coeffs(dim4, 0.3, g, c, grid),
             lambda: reps.pi_act(dim4, 0.3, g, sg.sht_inverse(c, grid))]
    for call in calls:
        with pytest.raises(ValueError, match="implemented for n = 3, got n = 4"):
            call()


def test_dirac_identity_and_boost(dim3):
    phi = sg.random_coeffs(8, 9)
    base = sg.value_at_pole(phi)
    assert abs(verify.dirac_pair(0.4, identity(dim3), phi) - base) < 1e-12
    t, lam = 0.6, 0.25
    got = verify.dirac_pair(lam, boost(t, dim3), phi)
    assert abs(got - np.exp(-t * (1 - lam)) * base) < 1e-12


def test_dirac_distributional_consistency(dim3):
    grid = sg.make_grid(48)
    for i in range(20):
        g = random_element(dim3, 100 + i, max_boost=0.5)
        lam = complex(0.37 * ((i % 5) - 2), 0.21 * ((i % 3) - 1))
        phi = sg.random_coeffs(8, 200 + i)
        a = verify.dirac_pair(lam, g, phi)
        b = verify.dirac_pair_dual(lam, g, phi, grid)
        assert abs(a - b) <= 1e-9 * max(abs(a), phi.l2_norm())


def test_unitarity_imaginary_axis(dim3, grid32):
    f = sg.sht_inverse(sg.random_coeffs(8, 13).pad(32), grid32)
    g = random_element(dim3, 17, max_boost=0.5)
    moved = reps.pi_act(dim3, 0.9j, g, f)
    assert abs(sg.norm_l2(moved) - sg.norm_l2(f)) < 1e-6 * sg.norm_l2(f)


def test_pi_pointwise_matches_grid_action(dim3, grid32, rng):
    c = sg.random_coeffs(6, 21)
    g = random_element(dim3, 23, max_boost=0.4)
    lam = complex(-0.3, 0.5)
    field = reps.pi_pointwise(dim3, lam, g, c)
    f = sg.sht_inverse(c.pad(32), grid32)
    grid_out = reps.pi_act(dim3, lam, g, f)
    assert np.abs(field(grid32.points()) - grid_out.values).max() < 1e-11
    pts = random_unit(rng, 7)
    vals = field(pts)
    assert vals.shape == (7,)
