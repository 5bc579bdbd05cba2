"""Verification suites: every check pins one mathematical identity of the
library to a numeric tolerance and reports the measured defect.

The suites are consumed by the command-line `verify` driver and mirrored
by the acceptance test module.  Each check carries a stable `identity`
string naming what it validates, so a failing run says which identity
broke, not just where.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, asdict

import numpy as np

from .lorentz import (Dimension, act, compose, conformal_factor,
                      inverse, random_element)
from . import mero, reps, sphgrid, spectral_ops, trilinear
from .special import complex_gamma

SUITE_NAMES = ("geometry", "representation", "bernstein", "residues",
               "intertwining", "trilinear")
DIM = Dimension(3)
TRIPLE_GRID = (24, 48)    # the generic forms' three staggered grids
DOUBLE_GRID = (48, 96)    # the residue bridge, and the singular forms' moved fields


@dataclass
class RunConfig:
    seed: int = 1234
    fault_inject: bool = False
    quick: bool = False

    def count(self, full: int) -> int:
        return max(2, full // 10) if self.quick else full


@dataclass
class CheckResult:
    id: str
    identity: str
    measured: float
    tolerance: float
    passed: bool
    elapsed_s: float      # since the previous check of the suite, or its start


@dataclass
class SuiteResult:
    name: str
    checks: list
    elapsed_s: float
    maxrss_mb: float      # the process's resident-set high-water mark after the suite

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(results: list, cid: str, identity: str, measured: float,
           tolerance: float) -> None:
    """Record one check.  Its elapsed_s holds the finish time until
    run_suite turns it into the time the check took."""
    measured = float(measured)
    results.append(CheckResult(id=cid, identity=identity, measured=measured,
                               tolerance=float(tolerance),
                               passed=bool(measured <= tolerance),
                               elapsed_s=time.perf_counter()))


def _random_points(rng, count, n=3):
    pts = rng.normal(size=(count, n))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


# ---------------------------------------------------------------------------
# geometry


def geometry_suite(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    out: list = []
    count = cfg.count(100)

    worst_coc = worst_inv = worst_cov = 0.0
    for i in range(count):
        g1 = random_element(DIM, cfg.seed + 2 * i, max_boost=1.0)
        g2 = random_element(DIM, cfg.seed + 2 * i + 1, max_boost=1.0)
        x = _random_points(rng, 8, DIM.n)
        k12 = conformal_factor(compose(g1, g2), x)
        coc = np.abs(k12 - conformal_factor(g1, act(g2, x))
                     * conformal_factor(g2, x)) / np.abs(k12)
        worst_coc = max(worst_coc, float(coc.max()))
        gi = inverse(g1)
        inv = np.abs(conformal_factor(g1, act(gi, x))
                     * conformal_factor(gi, x) - 1.0)
        worst_inv = max(worst_inv, float(inv.max()))
        y = _random_points(rng, 8, DIM.n)
        lhs = np.linalg.norm(act(g1, x) - act(g1, y), axis=1)
        rhs = (np.sqrt(conformal_factor(g1, x) * conformal_factor(g1, y))
               * np.linalg.norm(x - y, axis=1))
        worst_cov = max(worst_cov, float(np.abs(lhs - rhs).max()))
    _check(out, "geo-cocycle", "conformal-factor-cocycle", worst_coc, 1e-10)
    _check(out, "geo-inverse", "conformal-factor-inverse-law", worst_inv, 1e-10)
    _check(out, "geo-covariance", "chordal-distance-covariance", worst_cov, 1e-10)

    grid = sphgrid.make_grid(32)
    worst_var = 0.0
    for i in range(count):
        g = random_element(DIM, cfg.seed + 1000 + i, max_boost=0.5)
        coeffs = sphgrid.random_coeffs(10, cfg.seed + 2000 + i)
        f_field = reps.field_from_coeffs(coeffs)
        pulled = sphgrid.GridFunction(grid, f_field(act(inverse(g), grid.points())))
        lhs = sphgrid.quad(pulled)
        kap = conformal_factor(g, grid.points())
        f_here = f_field(grid.points())
        rhs = sphgrid.quad(sphgrid.GridFunction(grid, f_here * kap ** (DIM.n - 1)))
        scale = float(np.abs(f_here).max()) * 4.0 * math.pi
        worst_var = max(worst_var, abs(lhs - rhs) / scale)
    _check(out, "geo-varchange", "conformal-jacobian-change-of-variables",
           worst_var, 1e-8)
    return out


# ---------------------------------------------------------------------------
# representation


def representation_suite(cfg: RunConfig):
    out: list = []
    grid = sphgrid.make_grid(32)
    count = cfg.count(20)

    worst_grp = 0.0
    group_grid = sphgrid.make_grid(64)   # composed boosts decay slowly
    for i in range(cfg.count(5)):
        g1 = random_element(DIM, cfg.seed + 31 + i, max_boost=0.5)
        g2 = random_element(DIM, cfg.seed + 57 + i, max_boost=0.5)
        lam = complex(0.4, -0.2) if i % 2 else 0.8
        coeffs = sphgrid.random_coeffs(8, cfg.seed + 70 + i)
        lhs = reps.pi_act_coeffs(DIM, lam, compose(g1, g2), coeffs, group_grid)
        # pi(g2)f is no longer band-limited: the outer step acts on samples
        inner = reps.pi_act_coeffs(DIM, lam, g2, coeffs, group_grid)
        rhs = reps.pi_act(DIM, lam, g1, inner)
        rel = (np.abs(lhs.values - rhs.values).max()
               / np.abs(lhs.values).max())
        worst_grp = max(worst_grp, float(rel))
    _check(out, "rep-group-law", "principal-series-group-law", worst_grp, 1e-9)

    worst_dual = 0.0
    for i in range(cfg.count(5)):
        g = random_element(DIM, cfg.seed + 91 + i, max_boost=0.5)
        cf = sphgrid.random_coeffs(8, cfg.seed + 101 + i)
        cp = sphgrid.random_coeffs(8, cfg.seed + 111 + i)
        defect = reps.duality_defect(DIM, 0.7, g, cf, cp, grid)
        scale = cf.l2_norm() * cp.l2_norm()
        worst_dual = max(worst_dual, defect / scale)
    _check(out, "rep-duality", "principal-series-duality", worst_dual, 1e-6)

    worst_dirac = 0.0
    dirac_grid = sphgrid.make_grid(96)   # composed boosts decay slowly
    for i in range(count):
        g = random_element(DIM, cfg.seed + 131 + i, max_boost=0.6)
        lam = complex(0.3 * (i % 3), 0.1 * (i % 5) - 0.2)
        phi = sphgrid.random_coeffs(10, cfg.seed + 141 + i)
        a = reps.dirac_pair(DIM, lam, g, phi)
        b = reps.dirac_pair_dual(DIM, lam, g, phi, dirac_grid)
        worst_dirac = max(worst_dirac, abs(a - b) / abs(a))
    _check(out, "rep-dirac", "point-mass-transformation-law", worst_dirac, 1e-9)

    worst_uni = 0.0
    for i in range(cfg.count(5)):
        g = random_element(DIM, cfg.seed + 151 + i, max_boost=0.5)
        coeffs = sphgrid.random_coeffs(8, cfg.seed + 161 + i)
        f = sphgrid.sht_inverse(coeffs.pad(grid.L), grid)
        moved = reps.pi_act_coeffs(DIM, 1j * (0.3 + 0.2 * i), g, coeffs, grid)
        worst_uni = max(worst_uni,
                        abs(sphgrid.norm_l2(moved) - sphgrid.norm_l2(f))
                        / sphgrid.norm_l2(f))
    _check(out, "rep-unitary", "imaginary-axis-isometry", worst_uni, 1e-6)
    return out


# ---------------------------------------------------------------------------
# bernstein


def area_closed_form(dim: Dimension, s: complex) -> complex:
    """2^{n-1} pi^rho 2^s Gamma(s/2 + rho) / Gamma(s/2 + 2 rho)."""
    rho = dim.rho
    s = complex(s)
    return (2.0 ** (dim.n - 1) * math.pi ** rho * 2.0 ** s
            * complex_gamma(s / 2.0 + rho) / complex_gamma(s / 2.0 + 2.0 * rho))


def bernstein_suite(cfg: RunConfig):
    out: list = []
    one = sphgrid.coeffs_constant(1.0, 0)

    worst = 0.0
    for s in (2.0, 0.5, complex(-1.5, 0.3), complex(-3.2, 0.4)):
        got = mero.pair_distance_power(DIM, s, one)
        want = area_closed_form(DIM, s)
        worst = max(worst, abs(got - want) / abs(want))
    _check(out, "bern-area", "distance-power-area-closed-form", worst, 1e-7)

    worst = 0.0
    # offsets chosen so no continuation step lands on a zero of s(s+n-3)
    for n in (3, 4, 5):
        dn = Dimension(n)
        for re_off in (0.55, 0.8, 1.05, 1.3):
            s = -(n - 1) + re_off
            direct = sphgrid.kernel_eigenvalues(dn, s, 32)
            descended = _descend_once(dn, s, 32)
            rel = np.abs(direct - descended) / np.abs(direct)
            worst = max(worst, float(rel.max()))
        s = -(n - 1) + 0.7 + 0.3j
        direct = sphgrid.kernel_eigenvalues(dn, s, 32)
        descended = _descend_once(dn, s, 32)
        worst = max(worst, float((np.abs(direct - descended)
                                  / np.abs(direct)).max()))
    _check(out, "bern-descent", "descent-vs-direct-kernel-eigenvalues", worst, 1e-8)

    _check(out, "bern-kernel", "kernel-level-step-down-identity",
           _kernel_level_defect(DIM, 5.0, cfg.seed), 1e-6)
    return out


def _descend_once(dim: Dimension, s: complex, L: int) -> np.ndarray:
    """One Bernstein-Sato step down from quadrature eigenvalues at s + 2:
    the oracle side of bern-descent, independent of the closed form."""
    up = sphgrid.kernel_eigenvalues(dim, s + 2.0, L)
    step = complex(s) + 2.0
    num = np.array([spectral_ops.bernstein_multiplier(dim, step, l)
                    for l in range(L + 1)])
    return num * up / spectral_ops.bernstein_rhs_factor(dim, step)


def _kernel_level_defect(dim: Dimension, s: float, seed: int) -> float:
    """[Delta + (s/2)(s/2+n-2)] r^s = s(s+n-3) r^{s-2} checked pointwise,
    with the Laplacian applied spectrally at high truncation."""
    L = 96
    grid = sphgrid.make_grid(L)
    rng = np.random.default_rng(seed + 7)
    y = _random_points(rng, 1)[0]
    pts = _random_points(rng, 30)
    pts = pts[np.linalg.norm(pts - y, axis=1) > 0.8]
    r_grid = np.linalg.norm(grid.points() - y, axis=-1)
    W = sphgrid.GridFunction(grid, r_grid ** s)
    cW = sphgrid.sht_forward(W)
    lap = [spectral_ops.laplacian_multiplier(dim, l) for l in range(L + 1)]
    lap_vals = sphgrid.synth_at_points(spectral_ops.apply_multiplier(lap, cW), pts)
    r = np.linalg.norm(pts - y, axis=1)
    lhs = lap_vals + (s / 2.0) * (s / 2.0 + dim.n - 2.0) * r ** s
    rhs = s * (s + dim.n - 3.0) * r ** (s - 2.0)
    return float((np.abs(lhs - rhs) / r ** (s - 2.0)).max())


# ---------------------------------------------------------------------------
# residues


def residues_suite(cfg: RunConfig):
    out: list = []

    fit = mero.residue_ring(lambda z: 1.0 / (z - 0.4) + 3.0, 0.4)
    synthetic = max(abs(fit.residue - 1.0), abs(fit.regular_value - 3.0))
    _check(out, "res-ring", "contour-ring-laurent-fit", synthetic, 1e-10)
    gfit = mero.residue_ring(complex_gamma, 0.0)
    _check(out, "res-gamma", "gamma-pole-residue", abs(gfit.residue - 1.0), 1e-8)

    fault = 1.01 if cfg.fault_inject else 1.0
    worst = 0.0
    for k in (0, 1, 2):
        for i in range(cfg.count(10)):
            f = sphgrid.random_coeffs(8, cfg.seed + 300 + 17 * k + i)
            want = mero.covariant_power_at_pole(DIM, k, f)
            if abs(want) < 0.05 * f.l2_norm():
                continue
            if k == 1:
                want = want * fault
            got = mero.residue_pair_distance_power(DIM, k, f)
            worst = max(worst, abs(got - want) / abs(want))
    _check(out, "res-operator", "kernel-residue-equals-covariant-power",
           worst, 1e-4)

    one = sphgrid.coeffs_constant(1.0, 0)
    _check(out, "res-const", "first-residue-point-mass",
           abs(mero.residue_pair_distance_power(DIM, 0, one) - math.pi), 1e-8)

    f1 = sphgrid.random_coeffs(6, cfg.seed + 401)
    f2 = sphgrid.random_coeffs(6, cfg.seed + 402)
    sym = abs(mero.residue_separation_power(DIM, 1, f1, f2)
              - mero.residue_separation_power(DIM, 1, f2, f1))
    ring = mero.residue_separation_power_ring(DIM, 1, f1, f2)
    pred = mero.residue_separation_power(DIM, 1, f1, f2)
    sym = max(sym, abs(ring - pred) / abs(pred))
    _check(out, "res-symmetry", "residue-operator-symmetry", sym, 1e-6)

    f = sphgrid.random_coeffs(6, cfg.seed + 403)
    scale = abs(mero.pair_distance_power(DIM, -1.9, f))   # on the ring around -2
    on = min(abs(mero.residue_ring(lambda z: mero.pair_distance_power(DIM, z, f),
                                   c).residue) for c in (-2.0, -4.0))
    off = max(abs(mero.residue_ring(lambda z: mero.pair_distance_power(DIM, z, f),
                                    c).residue) for c in (-3.0, -5.0))
    loc_ok = 0.0 if (on > 1e-3 * scale and off <= 1e-6 * scale) else 1.0
    _check(out, "res-location", "pole-lattice-localization", loc_ok, 0.5)
    return out


# ---------------------------------------------------------------------------
# intertwining


def intertwining_suite(cfg: RunConfig):
    out: list = []
    grid = sphgrid.make_grid(64)

    worst = 0.0
    for k in (1, 2):
        for i in range(cfg.count(10)):
            f = sphgrid.random_coeffs(16, cfg.seed + 500 + 29 * k + i)
            g = random_element(DIM, cfg.seed + 600 + 31 * k + i, max_boost=0.3)
            defect = _covariant_intertwining_defect(DIM, k, g, f, grid)
            worst = max(worst, defect)
    _check(out, "int-covariant", "residue-operator-intertwining", worst, 1e-4)

    worst = 0.0
    for i in range(cfg.count(6)):
        lam = 0.3 + 0.1 * i
        f = sphgrid.random_coeffs(16, cfg.seed + 700 + i)
        g = random_element(DIM, cfg.seed + 800 + i, max_boost=0.3)
        worst = max(worst, _knapp_stein_intertwining_defect(DIM, lam, g, f, grid))
    _check(out, "int-knapp-stein", "kernel-operator-intertwining", worst, 1e-4)
    return out


def _covariant_intertwining_defect(dim, k, g, f, grid) -> float:
    """|| R_k pi_{-k}(g) f - pi_k(g) R_k f ||_2 / ||f||_2 at the grid's
    truncation."""
    L = grid.L
    moved = sphgrid.sht_forward(reps.pi_act_coeffs(dim, -float(k), g, f, grid))
    path_a = spectral_ops.residue_operator_apply(dim, k, moved)
    rf = spectral_ops.residue_operator_apply(dim, k, f)
    path_b = sphgrid.sht_forward(reps.pi_act_coeffs(dim, float(k), g, rf, grid))
    diff = path_a.c - path_b.c[: L + 1]
    return float(np.linalg.norm(diff) / f.l2_norm())


def _knapp_stein_intertwining_defect(dim, lam, g, f, grid) -> float:
    """|| K_{-rho+2 lam} pi_lam(g) f - pi_{-lam}(g) K f ||_2 / ||f||_2."""
    alpha = -dim.rho + 2.0 * lam
    moved = sphgrid.sht_forward(reps.pi_act_coeffs(dim, lam, g, f, grid))
    path_a = spectral_ops.apply_multiplier(
        spectral_ops.knapp_stein_multipliers(dim, alpha, grid.L), moved)
    kf = spectral_ops.apply_multiplier(
        spectral_ops.knapp_stein_multipliers(dim, alpha, f.L), f)
    path_b = sphgrid.sht_forward(reps.pi_act_coeffs(dim, -lam, g, kf, grid))
    diff = path_a.c - path_b.c
    return float(np.linalg.norm(diff) / f.l2_norm())


# ---------------------------------------------------------------------------
# trilinear


SMOOTH_PAIRS = [((1, 1, 1), (3, 1, 1)), ((3, 1, 1), (3, 3, 1)),
                ((3, 3, 1), (3, 3, 3)), ((3, 3, 3), (5, 1, 1)),
                ((5, 1, 1), (5, 3, 1)), ((5, 3, 1), (1, 1, 1)),
                ((5, 3, 3), (3, 3, 1))]


def _conditioned_fields(engine, seed):
    """Random real band-limited triples kept only when the engine's form
    value is not nearly cancelled (|K| at least 0.08 times the field
    norms); a relative invariance defect is meaningless on degenerate
    draws.  Returns the triple and its form value."""
    for attempt in range(16):
        fs = [sphgrid.random_coeffs(4, seed + attempt * 37 + j, real_field=True)
              for j in range(3)]
        scale = float(np.prod([f.l2_norm() for f in fs]))
        value = engine.value(*fs)
        if abs(value) >= 0.08 * scale:
            return fs, value
    raise RuntimeError("no well-conditioned field triple found")


def trilinear_suite(cfg: RunConfig):
    out: list = []
    one = sphgrid.coeffs_constant(1.0, 2)

    values = {a: trilinear.generic_form(DIM, a, one, one, one, method="direct",
                                        grid_size=TRIPLE_GRID)
              for a in set(sum(SMOOTH_PAIRS, ()))}
    worst = 0.0
    for a, b in SMOOTH_PAIRS:
        ra = trilinear.closed_form_constant(DIM, a)
        rb = trilinear.closed_form_constant(DIM, b)
        worst = max(worst, abs(values[a] / values[b] - ra / rb) / abs(ra / rb))
    _check(out, "tri-gamma-ratio", "constant-input-gamma-ratio", worst, 1e-6)

    worst = 0.0
    for i, a in enumerate([(3, 3, 1), (5, 1, 3), (3, 1, 1)]):
        f1 = sphgrid.random_coeffs(4, cfg.seed + 900 + i)
        f2 = sphgrid.random_coeffs(4, cfg.seed + 910 + i)
        f3 = sphgrid.random_coeffs(4, cfg.seed + 920 + i)
        vd = trilinear.generic_form(DIM, a, f1, f2, f3, method="direct",
                                    grid_size=TRIPLE_GRID)
        vf = trilinear.generic_form(DIM, a, f1, f2, f3, method="fast",
                                    grid_size=TRIPLE_GRID)
        worst = max(worst, abs(vd - vf) / abs(vd))
    _check(out, "tri-fast-direct", "fast-vs-direct-agreement", worst, 1e-6)

    worst = 0.0
    for i in range(cfg.count(10)):
        rng_a = np.random.default_rng(cfg.seed + 950 + i)
        # generic non-integer exponents, singular enough to be interesting
        # but integrable enough that the default grids hold 1e-3
        alpha = tuple(1.45 + 0.5 * rng_a.random() for _ in range(3))
        g = random_element(DIM, cfg.seed + 960 + i, max_boost=0.3)
        engine = trilinear.TripleEngine(DIM, alpha, grid_size=TRIPLE_GRID)
        fs, base = _conditioned_fields(engine, cfg.seed + 970 + 101 * i)
        worst = max(worst, trilinear.generic_invariance_defect(engine, g, *fs,
                                                               base=base))
    _check(out, "tri-invariance", "generic-form-invariance", worst, 1e-3)

    worst = 0.0
    for k, a1, a2 in ((0, 1.45, 2.83), (1, 1.45, 4.62)):
        for i in range(cfg.count(3)):
            g = random_element(DIM, cfg.seed + 980 + 7 * k + i, max_boost=0.3)
            fs = [sphgrid.random_coeffs(4, cfg.seed + 990 + 5 * k + 3 * i + j,
                                        real_field=True) for j in range(3)]
            worst = max(worst, trilinear.singular_invariance_defect(
                DIM, k, a1, a2, g, *fs, grid_size=DOUBLE_GRID,
                L_kernel=16))
    _check(out, "tri-singular-invariance", "singular-form-invariance", worst, 1e-3)

    fs = [sphgrid.random_coeffs(4, cfg.seed + 1100 + j, real_field=True)
          for j in range(3)]
    bridge0 = trilinear.residue_bridge_defect(DIM, 0, 3.3, 3.7, *fs,
                                              grid_size=DOUBLE_GRID, L_kernel=24)
    _check(out, "tri-bridge-k0", "residue-bridge-order-zero", bridge0, 5e-3)

    worst = 0.0
    for a1, a2 in ((2.3, 5.6), (3.1, 4.8)):
        t_val = trilinear.singular_form(DIM, 1, a1, a2, one, one, one,
                                        grid_size=DOUBLE_GRID, L_kernel=24)
        pred = trilinear.closed_form_constant_residue(DIM, 1, a1, a2)
        got = spectral_ops.gjms_constant(DIM, 1).c_k * t_val
        worst = max(worst, abs(got - pred) / abs(pred))
    _check(out, "tri-bridge-k1", "residue-bridge-order-one-closed-channel",
           worst, 5e-3)

    scan = trilinear.pole_scan(DIM, "alpha3", window=(-6.5, 0.5),
                               a1=0.31, a2=0.77)
    found3 = sorted(round(r.position.real) for r in scan if r.family == "alpha3")
    founds = sorted(round(r.position.real * 100) / 100 for r in scan
                    if r.family == "sum")
    plane_ok = (found3 == [-5, -3, -1]
                and founds == [-6.08, -4.08, -2.08]
                and not any(r.family == "unknown" for r in scan))
    _check(out, "tri-pole-planes", "pole-plane-lattice", 0.0 if plane_ok else 1.0, 0.5)
    scan = trilinear.pole_scan(DIM, "singular_line", window=(-3.0, 3.0),
                               k=1, delta=0.26)
    lines = sorted(round(r.position.real) for r in scan
                   if r.family == "singular_line")
    line_ok = lines == [0, 2] and not any(r.family == "unknown" for r in scan)
    _check(out, "tri-pole-lines", "singular-line-lattice", 0.0 if line_ok else 1.0, 0.5)

    rng = np.random.default_rng(cfg.seed + 1200)
    f1 = sphgrid.random_coeffs(6, cfg.seed + 1201)
    x3 = _random_points(rng, 1)[0]
    g = random_element(DIM, cfg.seed + 1202, max_boost=0.4)
    _check(out, "tri-pullback", "weighted-section-covariance",
           trilinear.kernel_pullback_defect(DIM, 1, 4.0, g, f1, x3), 1e-8)

    phi = sphgrid.random_coeffs(6, cfg.seed + 1203)
    y = _random_points(rng, 1)[0]
    pts = _random_points(rng, 30)
    pts = pts[np.linalg.norm(pts - y, axis=1) > 0.7]
    _check(out, "tri-split", "kernel-product-rule-split",
           trilinear.product_rule_split_defect(DIM, 6.0, phi, y, pts), 1e-5)
    return out


# ---------------------------------------------------------------------------
# driver


_SUITES = {
    "geometry": geometry_suite,
    "representation": representation_suite,
    "bernstein": bernstein_suite,
    "residues": residues_suite,
    "intertwining": intertwining_suite,
    "trilinear": trilinear_suite,
}


def run_suite(name: str, cfg: RunConfig) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    start = time.perf_counter()
    checks = _SUITES[name](cfg)
    elapsed = time.perf_counter() - start
    previous = start
    for c in checks:
        c.elapsed_s, previous = c.elapsed_s - previous, c.elapsed_s
    return SuiteResult(name=name, checks=checks, elapsed_s=elapsed,
                       maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def run_all(cfg: RunConfig, suites=None):
    names = SUITE_NAMES if suites is None else tuple(suites)
    return [run_suite(name, cfg) for name in names]


def _fmt(x: float) -> float:
    """Round to 12 significant digits for bit-stable report output."""
    if x == 0.0 or not np.isfinite(x):
        return float(x)
    return float(f"{x:.11e}")


def build_report(cfg: RunConfig, results) -> dict:
    suites = []
    for res in results:
        suites.append({
            "name": res.name,
            "passed": res.passed,
            "elapsed_s": res.elapsed_s,
            "maxrss_mb": res.maxrss_mb,
            "checks": [{
                "id": c.id,
                "identity": c.identity,
                "measured": _fmt(c.measured),
                "tolerance": _fmt(c.tolerance),
                "passed": c.passed,
                "elapsed_s": c.elapsed_s,
            } for c in res.checks],
        })
    return {
        "config": asdict(cfg),
        "suites": suites,
        "all_passed": all(r.passed for r in results),
        "timings": {"total_s": sum(r.elapsed_s for r in results)},
    }


REPORT_SCHEMA = {
    "config": dict,
    "suites": list,
    "all_passed": bool,
    "timings": dict,
}

CHECK_SCHEMA = {
    "id": str,
    "identity": str,
    "measured": (int, float),
    "tolerance": (int, float),
    "passed": bool,
    "elapsed_s": (int, float),
}


def validate_report(report: dict):
    """Structural validation of a verification report; returns a list of
    problems (empty when the report conforms)."""
    problems = []
    for key, typ in REPORT_SCHEMA.items():
        if key not in report:
            problems.append(f"missing key {key!r}")
        elif not isinstance(report[key], typ):
            problems.append(f"key {key!r} has type {type(report[key]).__name__}")
    for suite in report.get("suites", []):
        for key in ("name", "passed", "elapsed_s", "maxrss_mb", "checks"):
            if key not in suite:
                problems.append(f"suite missing {key!r}")
        for check in suite.get("checks", []):
            for key, typ in CHECK_SCHEMA.items():
                if key not in check:
                    problems.append(f"check missing {key!r}")
                elif not isinstance(check[key], typ):
                    problems.append(f"check key {key!r} has wrong type")
            if check.get("identity", "") == "":
                problems.append("check with empty identity")
    return problems
