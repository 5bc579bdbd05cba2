"""Verification suites: every check pins one mathematical identity of the
library to a numeric tolerance and reports the measured defect.

The suites are consumed by the command-line `verify` driver.  Each
identity's defect arithmetic is written once, as a check function that
takes the instances to check (seeds, exponents, counts) and returns
their defects: a suite draws its instances from its RunConfig and checks
the worst defect, and each acceptance criterion calls the same function
with its own instances.  Each check carries a stable `identity` string
naming what it validates, so a failing run says which identity broke,
not just where.

The check functions live here and nowhere else: `trilinear` and `reps`
compute the forms and the action, and every choice that discretizes a
check (its grid, projection degree, ring and series truncation) is made
in this module, which reports it.  Everything here is n = 3 (DIM).
"""

from __future__ import annotations

import functools
import math
import resource
import time
from dataclasses import dataclass, asdict, fields

import numpy as np

from .lorentz import (Dimension, act, base_point, compose, conformal_factor,
                      inverse, random_element)
from . import mero, reps, sphgrid, spectral_ops, trilinear
from .special import complex_gamma, ultraspherical_table

DIM = Dimension(3)


@dataclass
class RunConfig:
    seed: int = 1234
    fault_inject: bool = False
    quick: bool = False

    def count(self, full: int) -> int:
        return max(2, full // 10) if self.quick else full


# The report is these two records as they are: a field added to either
# appears, in field order, in the report and in its schema.
@dataclass
class CheckResult:
    id: str
    identity: str
    measured: float
    tolerance: float
    passed: bool
    elapsed_s: float      # since the previous check of the suite, or its start
    maxrss_mb: float      # the process's resident-set high-water mark after the check


@dataclass
class SuiteResult:
    name: str
    passed: bool          # every check passed
    elapsed_s: float
    maxrss_mb: float      # the process's resident-set high-water mark after the suite
    checks: list          # of CheckResult


def _check(results: list, cid: str, identity: str, measured: float,
           tolerance: float) -> None:
    """Record one check.  Its elapsed_s holds the finish time until
    run_suite turns it into the time the check took."""
    measured = float(measured)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results.append(CheckResult(id=cid, identity=identity, measured=measured,
                               tolerance=float(tolerance),
                               passed=bool(measured <= tolerance),
                               elapsed_s=time.perf_counter(), maxrss_mb=rss))


def _worst(defects) -> float:
    """The largest defect; NaN when any is NaN, so its check fails; 0.0
    when there is none."""
    return float(np.max(defects, initial=0.0))


def _random_points(rng, count, n=3):
    pts = rng.normal(size=(count, n))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


# ---------------------------------------------------------------------------
# geometry


def geometry_suite(cfg: RunConfig):
    out: list = []
    count = cfg.count(100)
    coc, inv, cov = conformal_factor_defects(
        np.random.default_rng(cfg.seed),
        [cfg.seed + 2 * i for i in range(count)]).max(axis=0)
    _check(out, "geo-cocycle", "conformal-factor-cocycle", coc, 1e-10)
    _check(out, "geo-inverse", "conformal-factor-inverse-law", inv, 1e-10)
    _check(out, "geo-covariance", "chordal-distance-covariance", cov, 1e-10)
    _check(out, "geo-varchange", "conformal-jacobian-change-of-variables",
           _worst(jacobian_defects([(cfg.seed + 1000 + i, cfg.seed + 2000 + i)
                                    for i in range(count)])), 1e-8)
    return out


def conformal_factor_defects(rng, seeds) -> np.ndarray:
    """Per seed: the worst cocycle (relative), inverse-law and covariance
    defects of g1, g2 seeded seed, seed + 1 on 8 + 8 points from rng."""
    rows = []
    for seed in seeds:
        g1 = random_element(DIM, seed, max_boost=1.0)
        g2 = random_element(DIM, seed + 1, max_boost=1.0)
        x = _random_points(rng, 8, DIM.n)
        k12 = conformal_factor(compose(g1, g2), x)
        coc = np.abs(k12 - conformal_factor(g1, act(g2, x))
                     * conformal_factor(g2, x)) / np.abs(k12)
        gi = inverse(g1)
        inv = np.abs(conformal_factor(g1, act(gi, x))
                     * conformal_factor(gi, x) - 1.0)
        y = _random_points(rng, 8, DIM.n)
        lhs = np.linalg.norm(act(g1, x) - act(g1, y), axis=1)
        rhs = (np.sqrt(conformal_factor(g1, x) * conformal_factor(g1, y))
               * np.linalg.norm(x - y, axis=1))
        rows.append((coc.max(), inv.max(), np.abs(lhs - rhs).max()))
    return np.array(rows)


def jacobian_defects(instances) -> list:
    """Per (group seed, field seed): |int f o g^-1 - int f kappa_g^{n-1}|
    / (4 pi max|f|) on the degree-32 grid."""
    grid = sphgrid.make_grid(32)
    defects = []
    for g_seed, f_seed in instances:
        g = random_element(DIM, g_seed, max_boost=0.5)
        f_field = functools.partial(sphgrid.synth_at_points, sphgrid.random_coeffs(10, f_seed))
        pulled = sphgrid.GridFunction(grid, f_field(act(inverse(g), grid.points())))
        lhs = sphgrid.quad(pulled)
        kap = conformal_factor(g, grid.points())
        f_here = f_field(grid.points())
        rhs = sphgrid.quad(sphgrid.GridFunction(grid, f_here * kap ** (DIM.n - 1)))
        scale = float(np.abs(f_here).max()) * 4.0 * math.pi
        defects.append(abs(lhs - rhs) / scale)
    return defects


# ---------------------------------------------------------------------------
# representation


def representation_suite(cfg: RunConfig):
    out: list = []
    grid = sphgrid.make_grid(32)
    count = cfg.count(20)

    group = []
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
        group.append(float(rel))
    _check(out, "rep-group-law", "principal-series-group-law", _worst(group), 1e-9)

    duality = []
    for i in range(cfg.count(5)):
        g = random_element(DIM, cfg.seed + 91 + i, max_boost=0.5)
        cf = sphgrid.random_coeffs(8, cfg.seed + 101 + i)
        cp = sphgrid.random_coeffs(8, cfg.seed + 111 + i)
        defect = duality_defect(0.7, g, cf, cp, grid)
        scale = cf.l2_norm() * cp.l2_norm()
        duality.append(defect / scale)
    _check(out, "rep-duality", "principal-series-duality", _worst(duality), 1e-6)

    dirac = []
    dirac_grid = sphgrid.make_grid(96)   # composed boosts decay slowly
    for i in range(count):
        g = random_element(DIM, cfg.seed + 131 + i, max_boost=0.6)
        lam = complex(0.3 * (i % 3), 0.1 * (i % 5) - 0.2)
        phi = sphgrid.random_coeffs(10, cfg.seed + 141 + i)
        a = dirac_pair(lam, g, phi)
        b = dirac_pair_dual(lam, g, phi, dirac_grid)
        dirac.append(abs(a - b) / abs(a))
    _check(out, "rep-dirac", "point-mass-transformation-law", _worst(dirac), 1e-9)

    unitary = [unitary_defect(1j * (0.3 + 0.2 * i),
                              random_element(DIM, cfg.seed + 151 + i, max_boost=0.5),
                              sphgrid.random_coeffs(8, cfg.seed + 161 + i), grid)
               for i in range(cfg.count(5))]
    _check(out, "rep-unitary", "imaginary-axis-isometry", _worst(unitary), 1e-6)
    return out


def duality_defect(lam: complex, g, f, phi, grid) -> float:
    """|int pi_lambda(g)f . phi - int f . pi_{-lambda}(g^{-1}) phi| on the grid.

    Vanishes identically for the continuum pairing; what remains is the
    quadrature error of the two pullbacks.  Each side pairs a moved field's
    projection (`moved_coeffs`) with its band-limited partner, which is the
    grid quadrature of their product in exact arithmetic.
    """
    moved_f, = moved_coeffs((lam,), g, [f], grid, phi.L)
    moved_phi, = moved_coeffs((-complex(lam),), inverse(g), [phi], grid, f.L)
    return abs(sphgrid.degree_pairings(moved_f, phi).sum()
               - sphgrid.degree_pairings(f, moved_phi).sum())


def dirac_pair(lam: complex, g, phi) -> complex:
    """Pairing of the transformed base-point Dirac mass with phi:
    kappa(g, e)^{rho - lambda} phi(g(e)), e the base point."""
    e = base_point(DIM)
    return (conformal_factor(g, e) ** (DIM.rho - complex(lam))
            * complex(sphgrid.synth_at_points(phi, act(g, e))))


def dirac_pair_dual(lam: complex, g, phi, grid) -> complex:
    """The same pairing through the distributional route: apply
    pi_{-lambda}(g^{-1}) to phi on the grid and read off the value at the
    base point of its degree-grid.L projection.  Only m = 0 reaches the
    pole, so that value is sum_i w_i K(u_i) sum_j F_ij dphi, F the moved
    samples and K(u) = sum_{l <= grid.L} (2l+1)/(4 pi) P_l(u).  Independent
    of the closed form in dirac_pair except for the group arithmetic."""
    F = reps.pi_pointwise(DIM, -complex(lam), inverse(g), phi)(grid.points())
    K = ((2.0 * np.arange(grid.L + 1) + 1.0) / (4.0 * math.pi)
         @ ultraspherical_table(0.5, grid.L, grid.u))
    return complex(np.dot(grid.w * K, F.sum(axis=1)) * grid.dphi)


def unitary_defect(lam: complex, g, f, grid) -> float:
    """| ||pi_lam(g) f||_2 - ||f||_2 | / ||f||_2 for imaginary lam, the
    moved field's norm read from its degree-grid.L projection."""
    moved, = moved_coeffs((lam,), g, [f], grid, grid.L)
    return abs(moved.l2_norm() - f.l2_norm()) / f.l2_norm()


# ---------------------------------------------------------------------------
# bernstein


def bernstein_suite(cfg: RunConfig):
    out: list = []
    _check(out, "bern-area", "distance-power-area-closed-form",
           _worst(area_defects((2.0, 0.5, complex(-1.5, 0.3), complex(-3.2, 0.4)))),
           1e-7)
    # offsets chosen so no continuation step lands on a zero of s(s+n-3)
    _check(out, "bern-descent", "descent-vs-direct-kernel-eigenvalues",
           _worst(descent_defects([(n, -(n - 1) + off) for n in (3, 4, 5)
                                   for off in (0.55, 0.8, 1.05, 1.3, 0.7 + 0.3j)])),
           1e-8)
    _check(out, "bern-kernel", "kernel-level-step-down-identity",
           _kernel_level_defect(5.0, cfg.seed), 1e-6)
    return out


def area_defects(exponents) -> list:
    """Per exponent s: the relative gap of (|e - x|^s, 1) to its closed form
    2^{n-1} pi^rho 2^s Gamma(s/2 + rho) / Gamma(s/2 + 2 rho)."""
    one = sphgrid.coeffs_constant(1.0, 0)
    rho = DIM.rho
    defects = []
    for s in exponents:
        got = mero.pair_distance_power(DIM, s, one)
        s = complex(s)
        want = (2.0 ** (DIM.n - 1) * math.pi ** rho * 2.0 ** s
                * complex_gamma(s / 2.0 + rho) / complex_gamma(s / 2.0 + 2.0 * rho))
        defects.append(abs(got - want) / abs(want))
    return defects


def descent_defects(instances) -> list:
    """Per (n, s): the worst relative gap, l <= 32, between the kernel
    eigenvalues at s and one Bernstein-Sato step down from those at s + 2."""
    defects = []
    for n, s in instances:
        dn = Dimension(n)
        direct = sphgrid.kernel_eigenvalues(dn, s, 32)
        up = sphgrid.kernel_eigenvalues(dn, s + 2.0, 32)
        step = complex(s) + 2.0
        num = spectral_ops.bernstein_multipliers(dn, step, 32)
        descended = num * up / spectral_ops.bernstein_rhs_factor(dn, step)
        defects.append(float((np.abs(direct - descended) / np.abs(direct)).max()))
    return defects


def _kernel_level_defect(s: float, seed: int) -> float:
    """[Delta + (s/2)(s/2+n-2)] r^s = s(s+n-3) r^{s-2} checked pointwise,
    relative to r^{s-2}: the operator's table times the exact zonal series
    r^s = sum_l e_l (2l+1)/(4 pi) P_l(x.y), e_l the closed-form Knapp-Stein
    eigenvalues, summed to degree 400 (dropped tail about 6e-10 at s = 5)."""
    L = 400
    rng = np.random.default_rng(seed + 7)
    y = _random_points(rng, 1)[0]
    pts = _random_points(rng, 30)
    pts = pts[np.linalg.norm(pts - y, axis=1) > 0.8]
    zonal = (spectral_ops.bernstein_multipliers(DIM, s, L)
             * spectral_ops.knapp_stein_multipliers(DIM, s + DIM.rho, L)
             * (2.0 * np.arange(L + 1) + 1.0) / (4.0 * math.pi))
    lhs = zonal @ ultraspherical_table(0.5, L, pts @ y)
    r = np.linalg.norm(pts - y, axis=1)
    rhs = s * (s + DIM.n - 3.0) * r ** (s - 2.0)
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
    defects = [residue_operator_defect(k, sphgrid.random_coeffs(8, cfg.seed + 300 + 17 * k + i),
                                       fault if k == 1 else 1.0)
               for k in (0, 1, 2) for i in range(cfg.count(10))]
    _check(out, "res-operator", "kernel-residue-equals-covariant-power",
           _worst([d for d in defects if d is not None]), 1e-4)

    one = sphgrid.coeffs_constant(1.0, 0)
    _check(out, "res-const", "first-residue-point-mass",
           abs(mero.residue_pair_distance_power(DIM, 0, one) - math.pi), 1e-8)

    f1 = sphgrid.random_coeffs(6, cfg.seed + 401)
    f2 = sphgrid.random_coeffs(6, cfg.seed + 402)
    pred = mero.residue_separation_power(DIM, 1, f1, f2)
    sym = abs(pred - mero.residue_separation_power(DIM, 1, f2, f1))
    ring = mero.residue_separation_power_ring(DIM, 1, f1, f2)
    sym = max(sym, abs(ring - pred) / abs(pred))
    _check(out, "res-symmetry", "residue-operator-symmetry", sym, 1e-6)

    f = sphgrid.random_coeffs(6, cfg.seed + 403)
    scale = abs(mero.pair_distance_power(DIM, -1.9, f))   # on the ring around -2
    fits = mero.residue_rings(lambda z: mero.pair_distance_power(DIM, z, f),
                              [-2.0, -4.0, -3.0, -5.0])     # two poles, two regular points
    on = min(abs(fit.residue) for fit in fits[:2])
    off = max(abs(fit.residue) for fit in fits[2:])
    loc_ok = 0.0 if (on > 1e-3 * scale and off <= 1e-6 * scale) else 1.0
    _check(out, "res-location", "pole-lattice-localization", loc_ok, 0.5)
    return out


def residue_operator_defect(k: int, f, fault: float = 1.0):
    """Relative gap between the k-th residue of s -> (|e - x|^s, f) and
    `fault` c_k times the k-th covariant power of f at e; None when that
    power nearly cancels (below 0.05 ||f||)."""
    want = mero.covariant_power_at_pole(DIM, k, f)
    if abs(want) < 0.05 * f.l2_norm():
        return None
    want = want * fault
    got = mero.residue_pair_distance_power(DIM, k, f)
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# intertwining


def intertwining_suite(cfg: RunConfig):
    out: list = []
    grid = sphgrid.make_grid(64)

    _check(out, "int-covariant", "residue-operator-intertwining",
           _worst(covariant_intertwining_defects(
               grid, [(k, cfg.seed + 500 + 29 * k + i, cfg.seed + 600 + 31 * k + i)
                      for k in (1, 2) for i in range(cfg.count(10))])), 1e-4)

    knapp_stein = []
    for i in range(cfg.count(6)):
        lam = 0.3 + 0.1 * i
        f = sphgrid.random_coeffs(16, cfg.seed + 700 + i)
        g = random_element(DIM, cfg.seed + 800 + i, max_boost=0.3)
        knapp_stein.append(_knapp_stein_intertwining_defect(lam, g, f, grid))
    _check(out, "int-knapp-stein", "kernel-operator-intertwining", _worst(knapp_stein),
           1e-4)
    return out


def _intertwining_defect(op, lam, g, f, grid) -> float:
    """|| M pi_lam(g) f - pi_{-lam}(g) M f ||_2 / ||f||_2 at the grid's
    truncation, for a diagonal operator op: HarmonicCoeffs -> HarmonicCoeffs."""
    moved, = moved_coeffs((lam,), g, [f], grid, grid.L)
    moved_op, = moved_coeffs((-lam,), g, [op(f)], grid, grid.L)
    return float(np.linalg.norm(op(moved).c - moved_op.c) / f.l2_norm())


def covariant_intertwining_defects(grid, instances) -> list:
    """Per (k, field seed, group seed): || R_k pi_{-k}(g) f - pi_k(g) R_k f ||
    / ||f|| at the grid's truncation."""
    return [_intertwining_defect(
        lambda c, k=k: spectral_ops.residue_operator_apply(DIM, k, c), -float(k),
        random_element(DIM, g_seed, max_boost=0.3), sphgrid.random_coeffs(16, f_seed), grid)
        for k, f_seed, g_seed in instances]


def _knapp_stein_intertwining_defect(lam, g, f, grid) -> float:
    """|| K_{-rho+2 lam} pi_lam(g) f - pi_{-lam}(g) K f ||_2 / ||f||_2."""
    alpha = -DIM.rho + 2.0 * lam
    return _intertwining_defect(lambda c: spectral_ops.apply_multiplier(
        spectral_ops.knapp_stein_multipliers(DIM, alpha, c.L), c), lam, g, f, grid)


# ---------------------------------------------------------------------------
# trilinear


SMOOTH_PAIRS = [((1, 1, 1), (3, 1, 1)), ((3, 1, 1), (3, 3, 1)),
                ((3, 3, 1), (3, 3, 3)), ((3, 3, 3), (5, 1, 1)),
                ((5, 1, 1), (5, 3, 1)), ((5, 3, 1), (1, 1, 1)),
                ((5, 3, 3), (3, 3, 1))]


def _conditioned_fields(value, seed):
    """Random real band-limited triples kept only when the form `value`
    is not nearly cancelled (|K| at least 0.08 times the field
    norms); a relative invariance defect is meaningless on degenerate
    draws.  Returns the triple and its form value."""
    for attempt in range(16):
        fs = [sphgrid.random_coeffs(4, seed + attempt * 37 + j, real_field=True)
              for j in range(3)]
        scale = float(np.prod([f.l2_norm() for f in fs]))
        v = value(*fs)
        if abs(v) >= 0.08 * scale:
            return fs, v
    raise RuntimeError("no well-conditioned field triple found")


def trilinear_suite(cfg: RunConfig):
    out: list = []
    _check(out, "tri-gamma-ratio", "constant-input-gamma-ratio",
           _worst(gamma_ratio_defects(SMOOTH_PAIRS)[0]), 1e-6)
    _check(out, "tri-fast-direct", "fast-vs-direct-agreement",
           _worst(fast_direct_defects(
               [(a, (cfg.seed + 900 + i, cfg.seed + 910 + i, cfg.seed + 920 + i))
                for i, a in enumerate([(3, 3, 1), (5, 1, 3), (3, 1, 1)])])), 1e-6)
    _check(out, "tri-invariance", "generic-form-invariance",
           _worst([d for d, *_ in generic_invariance_defects(
               [(cfg.seed + 950 + i, cfg.seed + 960 + i, cfg.seed + 970 + 101 * i)
                for i in range(cfg.count(10))])]), 1e-3)
    _check(out, "tri-singular-invariance", "singular-form-invariance",
           _worst([d for d, *_ in singular_invariance_defects(
               [(k, a1, a2, cfg.seed + 980 + 7 * k + i, cfg.seed + 990 + 5 * k + 3 * i)
                for k, a1, a2 in ((0, 1.45, 2.83), (1, 1.45, 4.62))
                for i in range(cfg.count(3))])]), 1e-3)
    _check(out, "tri-bridge-k0", "residue-bridge-order-zero",
           bridge_order_zero_defect(cfg.seed + 1100), 5e-3)
    _check(out, "tri-bridge-k1", "residue-bridge-order-one-closed-channel",
           _worst([d for d, *_ in bridge_order_one_defects(((2.3, 5.6), (3.1, 4.8)))]),
           5e-3)

    planes = pole_families("alpha3", (-6.5, 0.5), a1=0.31, a2=0.77)
    plane_ok = ([round(p) for p in planes.get("alpha3", [])] == [-5, -3, -1]
                and [round(p * 100) / 100 for p in planes.get("sum", [])]
                == [-6.08, -4.08, -2.08]
                and "unknown" not in planes)
    _check(out, "tri-pole-planes", "pole-plane-lattice", 0.0 if plane_ok else 1.0, 0.5)
    lines = pole_families("singular_line", (-3.0, 3.0), k=1, delta=0.26)
    line_ok = ([round(p) for p in lines.get("singular_line", [])] == [0, 2]
               and "unknown" not in lines)
    _check(out, "tri-pole-lines", "singular-line-lattice", 0.0 if line_ok else 1.0, 0.5)

    rng = np.random.default_rng(cfg.seed + 1200)
    f1 = sphgrid.random_coeffs(6, cfg.seed + 1201)
    x3 = _random_points(rng, 1)[0]
    g = random_element(DIM, cfg.seed + 1202, max_boost=0.4)
    _check(out, "tri-pullback", "weighted-section-covariance",
           kernel_pullback_defect(1, 4.0, g, f1, x3), 1e-8)

    phi = sphgrid.random_coeffs(6, cfg.seed + 1203)
    y = _random_points(rng, 1)[0]
    pts = _random_points(rng, 30)
    pts = pts[np.linalg.norm(pts - y, axis=1) > 0.7]
    _check(out, "tri-split", "kernel-product-rule-split",
           product_rule_split_defect(6.0, phi, y, pts), 1e-5)
    return out


def gamma_ratio_defects(pairs):
    """Per exponent pair (a, b): the relative gap of K_a(1,1,1) / K_b(1,1,1)
    to the closed form's ratio.  Returns the gaps and the values K_a."""
    one = sphgrid.coeffs_constant(1.0, 2)
    values = {a: trilinear.generic_form(DIM, a, one, one, one, method="direct")
              for a in set(sum(pairs, ()))}
    defects = []
    for a, b in pairs:
        ra = trilinear.closed_form_constant(DIM, a)
        rb = trilinear.closed_form_constant(DIM, b)
        defects.append(abs(values[a] / values[b] - ra / rb) / abs(ra / rb))
    return defects, values


def fast_direct_defects(instances) -> list:
    """Per (alpha, three field seeds): the relative fast-vs-direct gap."""
    defects = []
    for a, seeds in instances:
        fs = [sphgrid.random_coeffs(4, s) for s in seeds]
        vd = trilinear.generic_form(DIM, a, *fs, method="direct")
        vf = trilinear.generic_form(DIM, a, *fs, method="fast")
        defects.append(abs(vd - vf) / abs(vd))
    return defects


def generic_invariance_defects(instances) -> list:
    """Per (exponent seed, group seed, field seed): the generic form's
    invariance defect as (defect, alpha, g, fields), the exact K-type
    value on fields moved and projected to degree 12 on the (48, 96) grid:
    K-types to S = 36, whose cached level factors add about 2 MB of max
    RSS, against 16 MB at degree 16 (S = 48)."""
    grid = sphgrid.make_grid(n_theta=48, n_phi=96)
    drawn = []
    for a_seed, g_seed, f_seed in instances:
        rng_a = np.random.default_rng(a_seed)
        # generic non-integer exponents, singular enough to be interesting;
        # the K-type sum holds at any alpha, and the range is kept so the
        # pinned values hold
        alpha = tuple(1.45 + 0.5 * rng_a.random() for _ in range(3))
        g = random_element(DIM, g_seed, max_boost=0.3)
        value = functools.partial(trilinear.generic_form, DIM, alpha, method="fast")
        fs, base = _conditioned_fields(value, f_seed)
        lam = trilinear.lambda_from_alpha(alpha).lam
        drawn.append((invariance_defect(value, lam, g, fs, grid, 12, base=base), alpha, g, fs))
    return drawn


def singular_invariance_defects(instances) -> list:
    """Per (k, a1, a2, group seed, field seed): the k-th singular form's
    invariance defect as (defect, g, fields), the moved fields projected
    to degree 16 on the (48, 96) grid."""
    grid = sphgrid.make_grid(n_theta=48, n_phi=96)
    drawn = []
    for k, a1, a2, g_seed, f_seed in instances:
        g = random_element(DIM, g_seed, max_boost=0.3)
        fs = [sphgrid.random_coeffs(4, f_seed + j, real_field=True) for j in range(3)]
        lam = trilinear.lambda_from_alpha((a1, a2, -DIM.rho - 2.0 * k)).lam
        value = functools.partial(trilinear.singular_form, DIM, k, a1, a2)
        drawn.append((invariance_defect(value, lam, g, fs, grid, 16), g, fs))
    return drawn


def moved_coeffs(lam, g, fields, grid, L: int) -> list:
    """pi_{lam_j}(g) f_j for HarmonicCoeffs f_j, projected to
    HarmonicCoeffs of degree L by one analysis of all of them on the grid."""
    P = grid.flat_points()
    C = sphgrid.sht_forward_columns(grid, np.stack(
        [reps.pi_pointwise(DIM, lj, g, f)(P) for lj, f in zip(lam, fields)], axis=1), L)
    return [sphgrid.HarmonicCoeffs(L, c.reshape(L + 1, -1)) for c in C.T]


def invariance_defect(value, lam, g, fields, grid, L: int, base=None) -> float:
    """|value(*moved) - base| / |base| for a trilinear form `value` on
    HarmonicCoeffs: `moved` are the fields moved by the principal-series
    actions of parameters lam and projected by `moved_coeffs`; `base`,
    value on the fields themselves, is evaluated when not given."""
    if base is None:
        base = value(*fields)
    return abs(value(*moved_coeffs(lam, g, fields, grid, L)) - base) / abs(base)


def bridge_order_zero_defect(field_seed: int) -> float:
    """residue_bridge_defect at k = 0, (a1, a2) = (3.3, 3.7)."""
    fs = [sphgrid.random_coeffs(4, field_seed + j, real_field=True) for j in range(3)]
    return residue_bridge_defect(0, 3.3, 3.7, *fs)


def residue_bridge_defect(k: int, a1, a2, f1, f2, f3) -> float:
    """Relative mismatch between the contour residue of the generic form
    in its third parameter at -rho - 2k (half-parameter convention,
    evaluated through `generic_form_alpha3_family`, exact and meromorphic
    for any (a1, a2)) on a ring of radius trilinear.RING_RADIUS, and c_k
    times the singular form, on HarmonicCoeffs inputs."""
    evaluate = trilinear.generic_form_alpha3_family(DIM, a1, a2, f1, f2, f3)
    fit = mero.residue_ring(evaluate, -DIM.rho - 2.0 * k, radius=trilinear.RING_RADIUS)
    rhs = spectral_ops.gjms_constant(DIM, k) * trilinear.singular_form(DIM, k, a1, a2, f1, f2, f3)
    return abs(fit.residue / 2.0 - rhs) / abs(rhs)


def bridge_order_one_defects(points) -> list:
    """Per (a1, a2): the relative gap of c_1 T^(1)(1,1,1) to the closed
    form's residue at a3 = -rho - 2, as (gap, T^(1)(1,1,1), residue)."""
    one = sphgrid.coeffs_constant(1.0, 2)
    drawn = []
    for a1, a2 in points:
        t_val = trilinear.singular_form(DIM, 1, a1, a2, one, one, one)
        pred = trilinear.closed_form_constant_residue(DIM, 1, a1, a2)
        got = spectral_ops.gjms_constant(DIM, 1) * t_val
        drawn.append((abs(got - pred) / abs(pred), t_val, pred))
    return drawn


def kernel_pullback_defect(k: int, alpha2, g, f1, x3: np.ndarray) -> float:
    """Covariance of the weighted section F_{x3}[f](x) = f(x)|x3 - x|^{-rho+a2}.

    With l1 = -k - rho/2 + a2/2, transporting f by pi_{l1}(g) inside the
    section equals the pi_{-k} transport of the section based at
    y3 = g^{-1}(x3), times kappa(g, y3)^{(-rho+a2)/2}.  Returns the
    sup-norm defect over a degree-32 grid, relative to the section's sup-norm.
    """
    a2 = complex(alpha2)
    rho = DIM.rho
    lam1 = -k - rho / 2.0 + a2 / 2.0
    pts = sphgrid.make_grid(32).flat_points()
    x3 = np.asarray(x3, dtype=float)

    lhs = (reps.pi_pointwise(DIM, lam1, g, f1)(pts)
           * trilinear.chordal_power(pts, x3[None, :], a2 - rho)[:, 0])

    ginv = inverse(g)
    y3 = act(ginv, x3)
    mapped = act(ginv, pts)
    section = (sphgrid.synth_at_points(f1, mapped)
               * trilinear.chordal_power(mapped, y3[None, :], a2 - rho)[:, 0])
    rhs = (conformal_factor(g, y3) ** ((-rho + a2) / 2.0)
           * conformal_factor(ginv, pts) ** (rho - k) * section)
    return float(np.abs(lhs - rhs).max() / (np.abs(lhs).max() + 1e-300))


def product_rule_split_defect(s: complex, phi, y: np.ndarray,
                              test_points: np.ndarray) -> float:
    """Check `trilinear.covariant_factor_split` at j = 1, where its factor
    is the Laplacian: the terms sum r^{s-2e} y^beta psi it returns for
    r^s phi, r = |x - y|, evaluated at the test points, against the
    spectral Laplacian of samples of r^s phi on the degree-48 grid (exact
    at even s).  Returns max |LHS - RHS| / max |RHS| over the test points.
    """
    s = complex(s)
    y = np.asarray(y, dtype=float)
    pts = np.asarray(test_points, dtype=float).reshape(-1, 3)
    grid = sphgrid.make_grid(48)
    gp = grid.points()
    r_grid = np.linalg.norm(gp - y, axis=-1)
    coeffs = sphgrid.sht_forward(sphgrid.GridFunction(
        grid, r_grid ** s * sphgrid.synth_at_points(phi, gp)))
    lhs = sphgrid.synth_at_points(spectral_ops.apply_multiplier(
        spectral_ops.laplacian_multipliers(DIM, grid.L), coeffs), pts)

    L = phi.L + 1
    terms = trilinear.covariant_factor_split(
        DIM, sphgrid.make_grid(L), {(0, ()): phi.pad(L).c.reshape(-1)}, L, s, 1)
    r2 = np.maximum(2.0 - 2.0 * pts @ y, 0.0)
    rhs = sum(np.prod(y[list(beta)]) * r2 ** (s / 2.0 - e)
              * sphgrid.synth_at_points(sphgrid.HarmonicCoeffs(L, psi.reshape(L + 1, -1)), pts)
              for (e, beta), psi in terms.items())
    return float(np.abs(lhs - rhs).max() / (np.abs(rhs).max() + 1e-300))


def pole_families(family: str, window, **params) -> dict:
    """Sorted real parts of the poles trilinear.pole_scan finds, by family."""
    found: dict = {}
    for r in trilinear.pole_scan(DIM, family, window=window, **params):
        found.setdefault(r.family, []).append(r.position.real)
    return {fam: sorted(pos) for fam, pos in found.items()}


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
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, cfg: RunConfig) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    start = time.perf_counter()
    checks = _SUITES[name](cfg)
    elapsed = time.perf_counter() - start
    previous = start
    for c in checks:
        c.elapsed_s, previous = c.elapsed_s - previous, c.elapsed_s
    return SuiteResult(name=name, passed=all(c.passed for c in checks), elapsed_s=elapsed,
                       maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                       checks=checks)


def run_all(cfg: RunConfig, suites=None):
    names = SUITE_NAMES if suites is None else tuple(suites)
    return [run_suite(name, cfg) for name in names]


def _fmt(x: float) -> float:
    """Round to 12 significant digits for bit-stable reports; 0, inf, nan pass as they are."""
    return float(f"{x:.11e}")


def _rounded(items) -> dict:
    """`asdict`'s dict factory: measured and tolerance through _fmt."""
    return {key: _fmt(value) if key in ("measured", "tolerance") else value
            for key, value in items}


def build_report(cfg: RunConfig, results) -> dict:
    return {
        "config": asdict(cfg),
        "suites": [asdict(res, dict_factory=_rounded) for res in results],
        "all_passed": all(r.passed for r in results),
        "timings": {"total_s": sum(r.elapsed_s for r in results)},
    }


REPORT_SCHEMA = {
    "config": dict,
    "suites": list,
    "all_passed": bool,
    "timings": dict,
}

# record annotation (a string, under postponed evaluation) -> JSON type
_JSON_TYPES = {"str": str, "bool": bool, "list": list, "float": (int, float)}
SUITE_SCHEMA, CHECK_SCHEMA = ({f.name: _JSON_TYPES[f.type] for f in fields(record)}
                              for record in (SuiteResult, CheckResult))


def _schema_problems(level: str, record, schema: dict) -> list:
    """Keys of `schema` that `record` lacks or holds with the wrong type."""
    if not isinstance(record, dict):
        return [f"{level} is {type(record).__name__}, not an object"]
    problems = []
    for key, typ in schema.items():
        value = record.get(key)
        if key not in record:
            problems.append(f"{level} missing {key!r}")
        elif not isinstance(value, typ) or (isinstance(value, bool) and typ is not bool):
            problems.append(f"{level} key {key!r} has type {type(value).__name__}")
    return problems


def validate_report(report: dict):
    """Structural validation of a verification report; returns a list of
    problems (empty when the report conforms)."""
    problems = _schema_problems("report", report, REPORT_SCHEMA)
    for suite in _listed(report, "suites"):
        problems += _schema_problems("suite", suite, SUITE_SCHEMA)
        for check in _listed(suite, "checks"):
            problems += _schema_problems("check", check, CHECK_SCHEMA)
            if isinstance(check, dict) and check.get("identity", "") == "":
                problems.append("check with empty identity")
    return problems


def _listed(record, key) -> list:
    value = record.get(key) if isinstance(record, dict) else None
    return value if isinstance(value, list) else []
