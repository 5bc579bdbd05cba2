"""Acceptance criteria, one test per criterion.

Each test calls the verify suites' check functions with its own
instances (seeds, exponents, counts), pins the tolerances it asserts,
measures its own runtime against the stated budget, and prints one
pass/fail line (visible with pytest -s or in the captured-output section).
"""

import time
from contextlib import contextmanager
from functools import partial

import numpy as np

from confsphere.lorentz import Dimension, random_element
from confsphere import sphgrid as sg, trilinear as tri, verify

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
        defects = verify.area_defects((2.0, 0.5, complex(-1.5, 0.3), complex(-3.2, 0.4)))
        assert all(d <= 1e-7 for d in defects), defects


def test_criterion_02_geometry_suite():
    with criterion(2, "geometry suite", 30.0):
        coc, inv, cov = verify.conformal_factor_defects(
            np.random.default_rng(5150), [9000 + 2 * i for i in range(100)]).max(axis=0)
        assert coc <= 1e-10
        assert inv <= 1e-10
        assert cov <= 1e-10
        var = verify.jacobian_defects([(9500 + i, 9600 + i) for i in range(100)])
        assert all(d <= 1e-8 for d in var)


def test_criterion_03_residue_operator_identity():
    with criterion(3, "residue equals covariant power", 120.0):
        for k in (0, 1, 2):
            done = 0
            seed = 0
            while done < 10:
                seed += 1
                d = verify.residue_operator_defect(k, sg.random_coeffs(8, 7000 + 97 * k + seed))
                if d is None:
                    continue   # relative error needs a conditioned target
                assert d <= 1e-4, f"k={k} i={done}"
                done += 1


def test_criterion_04_intertwining():
    with criterion(4, "covariant-operator intertwining", 120.0):
        grid = sg.make_grid(64)   # 4x the field band limit
        instances = [(k, 7100 + 31 * k + i, 7200 + 37 * k + i)
                     for k in (1, 2) for i in range(10)]
        for inst, defect in zip(instances,
                                verify.covariant_intertwining_defects(grid, instances)):
            assert defect <= 1e-4, f"{inst} defect={defect:.2e}"


def test_criterion_05_descent_consistency():
    with criterion(5, "descent vs direct eigenvalues", 60.0):
        instances = [(n, -(n - 1) + off) for n in (3, 4, 5)
                     for off in (0.55, 0.8, 1.05, 1.3, complex(0.7, 0.3))]
        for (n, s), rel in zip(instances, verify.descent_defects(instances)):
            assert rel <= 1e-8, f"n={n} s={s} rel={rel:.2e}"


def test_criterion_06_trilinear_closed_form():
    with criterion(6, "trilinear gamma-ratio and fast agreement", 300.0):
        assert len(verify.SMOOTH_PAIRS) >= 5
        defects, values = verify.gamma_ratio_defects(verify.SMOOTH_PAIRS)
        for (a, b), d in zip(verify.SMOOTH_PAIRS, defects):
            assert d <= 1e-6, f"{a} vs {b}"
        # equal-sum pairs: the bare Gamma quotient alone fixes the ratio
        for a, b in [((3, 3, 1), (5, 1, 1)), ((5, 3, 1), (3, 3, 3))]:
            want = tri.gamma_ratio_factor(DIM, a) / tri.gamma_ratio_factor(DIM, b)
            assert abs(values[a] / values[b] - want) <= 1e-6 * abs(want)
        defects = verify.fast_direct_defects(
            [(a, [7300 + 3 * i + j for j in range(3)])
             for i, a in enumerate([(3, 3, 1), (5, 1, 3), (3, 1, 1)])])
        assert all(d <= 1e-6 for d in defects), defects


def test_criterion_07_trilinear_invariance():
    with criterion(7, "trilinear invariance with grid-doubling", 600.0):
        drawn = verify.generic_invariance_defects(
            [(7400 + i, 7500 + i, 7600 + 101 * i) for i in range(10)])
        for i, (d, *_) in enumerate(drawn):
            assert d <= 1e-3, f"generic instance {i}: {d:.2e}"
        # the exact form leaves only the projection error; the direct
        # engine's quadrature error on the same projected fields shrinks
        # when its grids double
        grid = sg.make_grid(n_theta=48, n_phi=96)
        coarse, doubled = ([verify.invariance_defect(
                                tri.TripleEngine(DIM, alpha, grid_size=size).value,
                                tri.lambda_from_alpha(alpha).lam, g, fs, grid, 12)
                            for _, alpha, g, fs in drawn[:3]]
                           for size in ((24, 48), (48, 96)))
        ratio = np.mean(coarse) / np.mean(doubled)
        assert ratio >= 4.0, f"generic doubling ratio {ratio:.1f}"

        instances = [(k, a1, a2, 7700 + 13 * k + i, 7800 + 7 * k + 3 * i)
                     for k, a1, a2 in ((0, 1.45, 2.83), (1, 1.45, 4.62))
                     for i in range(10)]
        coarse, mid = [], []
        for j, ((k, a1, a2, *_), (d, g, fs)) in enumerate(
                zip(instances, verify.singular_invariance_defects(instances))):
            assert d <= 1e-3, f"singular k={k} instance {j % 10}: {d:.2e}"
            if j % 10 < 2:
                # doubling scales the whole discretization: grid and
                # the projection degree it resolves
                value = partial(tri.singular_form, DIM, k, a1, a2)
                lam = tri.lambda_from_alpha((a1, a2, -DIM.rho - 2.0 * k)).lam
                coarse.append(verify.invariance_defect(
                    value, lam, g, fs, sg.make_grid(n_theta=12, n_phi=24), 8))
                mid.append(verify.invariance_defect(
                    value, lam, g, fs, sg.make_grid(n_theta=24, n_phi=48), 16))
        # at the default grid the singular-form defect already sits at the
        # numerical noise floor, so the 4x shrink is verified on the coarse
        # pair where discretization still dominates
        ratio = np.mean(coarse) / np.mean(mid)
        assert ratio >= 4.0, f"singular doubling ratio {ratio:.1f}"


def test_criterion_08_residue_bridge():
    with criterion(8, "residue bridge", 600.0):
        defect = verify.bridge_order_zero_defect(7900)
        assert defect <= 5e-3, f"k=0 bridge {defect:.2e}"
        (d1, t1, w1), (d2, t2, w2) = verify.bridge_order_one_defects(
            ((2.3, 5.6), (3.1, 4.8)))
        assert d1 <= 5e-3, "k=1 at (2.3,5.6)"
        assert d2 <= 5e-3, "k=1 at (3.1,4.8)"
        assert abs(t1 / t2 - w1 / w2) <= 5e-3 * abs(w1 / w2)


def test_criterion_09_pole_scans():
    with criterion(9, "pole-location scans", 120.0):
        found = verify.pole_families("alpha3", (-6.5, 0.5), a1=0.31, a2=0.77,
                                     residue_threshold=1e-6)
        assert np.allclose(found.get("alpha3", []), [-5.0, -3.0, -1.0], atol=1e-6)
        assert np.allclose(found.get("sum", []), [-6.08, -4.08, -2.08], atol=1e-6)
        assert "unknown" not in found
        assert verify.pole_families("alpha3", (-0.6, 0.8), a1=0.31, a2=0.77) == {}
        found = verify.pole_families("singular_line", (-3.0, 3.0), k=1, delta=0.26,
                                     residue_threshold=1e-6)
        # deeper lattice points cancel for k = 1
        assert [round(p) for p in found.get("singular_line", [])] == [0, 2]
        assert "unknown" not in found
        found = verify.pole_families("singular_line", (-1.0, 5.0), k=2, delta=0.26,
                                     residue_threshold=1e-6)
        assert [round(p) for p in found.get("singular_line", [])] == [0, 2, 4]


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
            d = verify.kernel_pullback_defect(k, a2, g, f1, x3)
            assert d <= 1e-8, f"pullback instance {i}: {d:.2e}"
        for i in range(5):
            phi = sg.random_coeffs(6, 8400 + i)
            y = rng.normal(size=3)
            y /= np.linalg.norm(y)
            pts = rng.normal(size=(40, 3))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            pts = pts[np.linalg.norm(pts - y, axis=1) > 0.7]
            s = 5.0 + 0.5 * i
            d = verify.product_rule_split_defect(s, phi, y, pts)
            assert d <= 1e-5, f"split instance {i}: {d:.2e}"
