"""Acceptance criteria, one test per criterion.

Each test pins the tolerances it asserts, measures its own runtime
against the stated budget, and prints one pass/fail line (visible with
pytest -s or in the captured-output section).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from confsphere.lorentz import Dimension, act, compose, conformal_factor, \
    inverse, random_element
from confsphere import mero, reps, sphgrid as sg, spectral_ops as so, \
    trilinear as tri, verify

DIM = Dimension(3)


@contextmanager
def criterion(number, name, limit_s):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:02d}] {name}: {status} "
              f"({elapsed:.1f} s, limit {limit_s} s)")
        if status == "PASS":
            assert elapsed < limit_s, f"runtime {elapsed:.1f}s over budget"


def test_criterion_01_area_closed_form():
    with criterion(1, "area closed form", 5.0):
        one = sg.coeffs_constant(1.0, 0)
        for s in (2.0, 0.5, complex(-1.5, 0.3), complex(-3.2, 0.4)):
            got = mero.pair_distance_power(DIM, s, one)
            want = verify.area_closed_form(DIM, s)
            assert abs(got - want) <= 1e-7 * abs(want), f"s={s}"


def test_criterion_02_geometry_suite():
    with criterion(2, "geometry suite", 30.0):
        rng = np.random.default_rng(5150)
        grid = sg.make_grid(32)
        for i in range(100):
            g1 = random_element(DIM, 9000 + 2 * i, max_boost=1.0)
            g2 = random_element(DIM, 9001 + 2 * i, max_boost=1.0)
            x = rng.normal(size=(8, 3))
            x /= np.linalg.norm(x, axis=1)[:, None]
            y = rng.normal(size=(8, 3))
            y /= np.linalg.norm(y, axis=1)[:, None]
            k12 = conformal_factor(compose(g1, g2), x)
            coc = np.abs(k12 - conformal_factor(g1, act(g2, x))
                         * conformal_factor(g2, x))
            assert (coc / np.abs(k12)).max() <= 1e-10
            gi = inverse(g1)
            inv = np.abs(conformal_factor(g1, act(gi, x))
                         * conformal_factor(gi, x) - 1.0)
            assert inv.max() <= 1e-10
            lhs = np.linalg.norm(act(g1, x) - act(g1, y), axis=1)
            rhs = (np.sqrt(conformal_factor(g1, x) * conformal_factor(g1, y))
                   * np.linalg.norm(x - y, axis=1))
            assert np.abs(lhs - rhs).max() <= 1e-10
        for i in range(100):
            g = random_element(DIM, 9500 + i, max_boost=0.5)
            c = sg.random_coeffs(10, 9600 + i)
            field = reps.field_from_coeffs(c)
            lhs = sg.quad(sg.GridFunction(
                grid, field(act(inverse(g), grid.points()))))
            kap = conformal_factor(g, grid.points())
            here = field(grid.points())
            rhs = sg.quad(sg.GridFunction(grid, here * kap ** 2))
            scale = float(np.abs(here).max()) * 4.0 * np.pi
            assert abs(lhs - rhs) <= 1e-8 * scale


def test_criterion_03_residue_operator_identity():
    with criterion(3, "residue equals covariant power", 120.0):
        for k in (0, 1, 2):
            done = 0
            seed = 0
            while done < 10:
                seed += 1
                f = sg.random_coeffs(8, 7000 + 97 * k + seed)
                want = mero.covariant_power_at_pole(DIM, k, f)
                if abs(want) < 0.05 * f.l2_norm():
                    continue   # relative error needs a conditioned target
                got = mero.residue_pair_distance_power(DIM, k, f)
                assert abs(got - want) <= 1e-4 * abs(want), f"k={k} i={done}"
                done += 1


def test_criterion_04_intertwining():
    with criterion(4, "covariant-operator intertwining", 120.0):
        grid = sg.make_grid(64)   # 4x the field band limit
        for k in (1, 2):
            for i in range(10):
                f = sg.random_coeffs(16, 7100 + 31 * k + i)
                g = random_element(DIM, 7200 + 37 * k + i, max_boost=0.3)
                defect = verify._covariant_intertwining_defect(DIM, k, g, f, grid)
                assert defect <= 1e-4, f"k={k} i={i} defect={defect:.2e}"


def test_criterion_05_descent_consistency():
    with criterion(5, "descent vs direct eigenvalues", 60.0):
        for n in (3, 4, 5):
            dim = Dimension(n)
            offs = [0.55, 0.8, 1.05, 1.3, complex(0.7, 0.3)]
            for off in offs:
                s = -(n - 1) + off
                direct = sg.kernel_eigenvalues(dim, s, 32)
                stepped = verify._descend_once(dim, s, 32)
                rel = np.abs(direct - stepped) / np.abs(direct)
                assert rel.max() <= 1e-8, f"n={n} s={s} rel={rel.max():.2e}"


def test_criterion_06_trilinear_closed_form():
    with criterion(6, "trilinear gamma-ratio and fast agreement", 300.0):
        one = sg.coeffs_constant(1.0, 2)
        values = {}
        for pair in verify.SMOOTH_PAIRS:
            for a in pair:
                if a not in values:
                    values[a] = tri.generic_form(DIM, a, one, one, one,
                                                 method="direct",
                                                 grid_size=(24, 48))
        assert len(verify.SMOOTH_PAIRS) >= 5
        for a, b in verify.SMOOTH_PAIRS:
            want = (tri.closed_form_constant(DIM, a)
                    / tri.closed_form_constant(DIM, b))
            got = values[a] / values[b]
            assert abs(got - want) <= 1e-6 * abs(want), f"{a} vs {b}"
        # equal-sum pairs: the bare Gamma quotient alone fixes the ratio
        for a, b in [((3, 3, 1), (5, 1, 1)), ((5, 3, 1), (3, 3, 3))]:
            want = tri.gamma_ratio_factor(DIM, a) / tri.gamma_ratio_factor(DIM, b)
            assert abs(values[a] / values[b] - want) <= 1e-6 * abs(want)
        for i, a in enumerate([(3, 3, 1), (5, 1, 3), (3, 1, 1)]):
            fs = [sg.random_coeffs(4, 7300 + 3 * i + j) for j in range(3)]
            vd = tri.generic_form(DIM, a, *fs, method="direct",
                                  grid_size=(24, 48))
            vf = tri.generic_form(DIM, a, *fs, method="fast",
                                  grid_size=(24, 48))
            assert abs(vd - vf) <= 1e-6 * abs(vd)


def test_criterion_07_trilinear_invariance():
    with criterion(7, "trilinear invariance with grid-doubling", 600.0):
        defaults, doubled = [], []
        for i in range(10):
            rng = np.random.default_rng(7400 + i)
            alpha = tuple(1.45 + 0.5 * rng.random() for _ in range(3))
            g = random_element(DIM, 7500 + i, max_boost=0.3)
            engine = tri.TripleEngine(DIM, alpha, grid_size=(24, 48))
            fs, base = verify._conditioned_fields(engine, 7600 + 101 * i)
            d = tri.generic_invariance_defect(engine, g, *fs, base=base)
            assert d <= 1e-3, f"generic instance {i}: {d:.2e}"
            defaults.append(d)
            if i < 3:
                doubled.append(tri.generic_invariance_defect(
                    tri.TripleEngine(DIM, alpha, grid_size=(48, 96)), g, *fs))
        ratio = np.mean(defaults[:3]) / np.mean(doubled)
        assert ratio >= 4.0, f"generic doubling ratio {ratio:.1f}"

        coarse, mid = [], []
        for k, a1, a2 in ((0, 1.45, 2.83), (1, 1.45, 4.62)):
            for i in range(10):
                g = random_element(DIM, 7700 + 13 * k + i, max_boost=0.3)
                fs = [sg.random_coeffs(4, 7800 + 7 * k + 3 * i + j,
                                       real_field=True) for j in range(3)]
                d = tri.singular_invariance_defect(DIM, k, a1, a2, g, *fs,
                                                   grid_size=(48, 96),
                                                   L_kernel=16)
                assert d <= 1e-3, f"singular k={k} instance {i}: {d:.2e}"
                if i < 2:
                    # doubling scales the whole discretization: grid and
                    # the kernel truncation it resolves
                    coarse.append(tri.singular_invariance_defect(
                        DIM, k, a1, a2, g, *fs, grid_size=(12, 24), L_kernel=8))
                    mid.append(tri.singular_invariance_defect(
                        DIM, k, a1, a2, g, *fs, grid_size=(24, 48), L_kernel=16))
        # at the default grid the singular-form defect already sits at the
        # numerical noise floor, so the 4x shrink is verified on the coarse
        # pair where discretization still dominates
        ratio = np.mean(coarse) / np.mean(mid)
        assert ratio >= 4.0, f"singular doubling ratio {ratio:.1f}"


def test_criterion_08_residue_bridge():
    with criterion(8, "residue bridge", 600.0):
        fs = [sg.random_coeffs(4, 7900 + j, real_field=True) for j in range(3)]
        defect = tri.residue_bridge_defect(DIM, 0, 3.3, 3.7, *fs,
                                           grid_size=(48, 96), L_kernel=24)
        assert defect <= 5e-3, f"k=0 bridge {defect:.2e}"
        one = sg.coeffs_constant(1.0, 2)
        for a1, a2 in ((2.3, 5.6), (3.1, 4.8)):
            t_val = tri.singular_form(DIM, 1, a1, a2, one, one, one,
                                      grid_size=(48, 96), L_kernel=24)
            got = so.gjms_constant(DIM, 1).c_k * t_val
            want = tri.closed_form_constant_residue(DIM, 1, a1, a2)
            assert abs(got - want) <= 5e-3 * abs(want), f"k=1 at ({a1},{a2})"
        t1 = tri.singular_form(DIM, 1, 2.3, 5.6, one, one, one,
                               grid_size=(48, 96), L_kernel=24)
        t2 = tri.singular_form(DIM, 1, 3.1, 4.8, one, one, one,
                               grid_size=(48, 96), L_kernel=24)
        w1 = tri.closed_form_constant_residue(DIM, 1, 2.3, 5.6)
        w2 = tri.closed_form_constant_residue(DIM, 1, 3.1, 4.8)
        assert abs(t1 / t2 - w1 / w2) <= 5e-3 * abs(w1 / w2)


def test_criterion_09_pole_scans():
    with criterion(9, "pole-location scans", 120.0):
        scan = tri.pole_scan(DIM, "alpha3", window=(-6.5, 0.5),
                             a1=0.31, a2=0.77, residue_threshold=1e-6)
        planes = sorted(r.position.real for r in scan if r.family == "alpha3")
        sums = sorted(r.position.real for r in scan if r.family == "sum")
        assert np.allclose(planes, [-5.0, -3.0, -1.0], atol=1e-6)
        assert np.allclose(sums, [-6.08, -4.08, -2.08], atol=1e-6)
        assert not [r for r in scan if r.family == "unknown"]
        assert tri.pole_scan(DIM, "alpha3", window=(-0.6, 0.8),
                             a1=0.31, a2=0.77) == []
        scan = tri.pole_scan(DIM, "singular_line", window=(-3.0, 3.0),
                             k=1, delta=0.26, residue_threshold=1e-6)
        lines = sorted(round(r.position.real) for r in scan
                       if r.family == "singular_line")
        assert lines == [0, 2]    # deeper lattice points cancel for k = 1
        assert not [r for r in scan if r.family == "unknown"]
        scan = tri.pole_scan(DIM, "singular_line", window=(-1.0, 5.0),
                             k=2, delta=0.26, residue_threshold=1e-6)
        lines = sorted(round(r.position.real) for r in scan
                       if r.family == "singular_line")
        assert lines == [0, 2, 4]


def test_criterion_10_pointwise_identities():
    with criterion(10, "pointwise kernel identities", 60.0):
        rng = np.random.default_rng(8100)
        for i in range(5):
            f1 = sg.random_coeffs(6, 8200 + i)
            x3 = rng.normal(size=3)
            x3 /= np.linalg.norm(x3)
            g = random_element(DIM, 8300 + i, max_boost=0.4)
            k = 1 + (i % 2)
            a2 = 4.0 + 0.3 * i + (0.4j if i % 3 == 0 else 0.0)
            d = tri.kernel_pullback_defect(DIM, k, a2, g, f1, x3)
            assert d <= 1e-8, f"pullback instance {i}: {d:.2e}"
        for i in range(5):
            phi = sg.random_coeffs(6, 8400 + i)
            y = rng.normal(size=3)
            y /= np.linalg.norm(y)
            pts = rng.normal(size=(40, 3))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            pts = pts[np.linalg.norm(pts - y, axis=1) > 0.7]
            s = 5.0 + 0.5 * i
            d = tri.product_rule_split_defect(DIM, s, phi, y, pts)
            assert d <= 1e-5, f"split instance {i}: {d:.2e}"
