"""The four benchmark workloads.

Each workload turns (seed, pass index) into inputs, and the inputs into a
fixed list of operations.  A workload whose oracle is costly computes it
in `expected(inputs)`, which runs outside both the set-up clock and the
timed passes.  An operation is one closed-loop call into the
library (the next starts when the previous returned) plus a check of its
result against the oracle and tolerance the repository already uses for
that quantity.  The library only ever sees the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from confsphere import lorentz, mero, reps, sphgrid, spectral_ops, trilinear, verify

import oracles

DIM = lorentz.Dimension(3)


@dataclass
class Op:
    """One timed library call.  `check` maps the result to a defect; the
    operation passes when defect <= tol (a NaN defect fails)."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], float]
    tol: float
    extra: Callable[[object], dict] | None = None


def _flag(ok: bool) -> float:
    """Defect of a yes/no check (exact lattices, all_passed): 0 or 1
    against a tolerance of 0.5, as the verify report encodes them."""
    return 0.0 if ok else 1.0


def _rel(got, want) -> float:
    return abs(complex(got) - complex(want)) / abs(complex(want))


def _rng(seed: int, index: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, tag])


def _int_seed(rng) -> int:
    return int(rng.integers(2**31))


def _tiny_generic_form():
    one = sphgrid.coeffs_constant(1.0, 0)
    trilinear.generic_form(DIM, (3, 1, 1), one, one, one, grid_size=(6, 12))


# ---------------------------------------------------------------------------


class Battery:
    """`confsphere verify --quick`: verify.run_all(RunConfig(quick=True)).

    Why: it is the system's end-to-end deliverable, the run users and CI
    make.  About 95% of its time is in the trilinear suite; there
    singular_form at (48,96) takes ~69% (column transforms ~50%,
    chordal_power ~21%), the rest goes to the alpha3 family and to one-shot
    (24,48) engines.  Those engines are built once per exponent triple and
    evaluated once, so a kernel engine that trades set-up cost for
    per-value speed shows a loss here.

    The configuration is the one users and CI run, with its own seed: the
    benchmark seed is not passed on.  At other verify seeds the battery
    itself fails (rep-dirac and rep-group-law miss their tolerances on 29
    of the seeds 0..99, by up to 1.7e-4 against 1e-9), which is a defect of
    those checks, not a property of this workload.
    """

    name = "battery"
    probe = "array"           # the worker.SpeedProbe kind its times track

    def inputs(self, seed, index):
        return verify.RunConfig(quick=True)

    def warmup(self):
        _tiny_generic_form()

    def ops(self, cfg):
        return [Op("verify.run_all", lambda: verify.run_all(cfg),
                   lambda res: _flag(all(r.passed for r in res)), 0.5,
                   extra=lambda res: {f"verify.suite.{r.name}.elapsed_s": r.elapsed_s
                                      for r in res})]


# ---------------------------------------------------------------------------


class GenericLarge:
    """The generic form at grid (48,96), direct method.

    Per seeded non-integer triple alpha in [1.45, 1.95]^3 one TripleEngine
    is built and evaluated twice: on a conditioned real degree-4 triple and
    on that triple moved by a seeded boost (the pattern of criterion 07).
    One fast-method evaluation is added.

    Why: the dense NxN kernels are 170 MB each and the O(N^3) contraction
    takes ~9 s per value; the engine is reused across inputs.  This is
    where kernel representation, memory and the block-circulant kernel
    show.  It bypasses tanh-sinh quadrature and the padded transforms.
    """

    name = "generic_large"
    probe = "array"           # the worker.SpeedProbe kind its times track
    GRID = (48, 96)
    # the conditioning floor of verify._conditioned_fields: a relative
    # invariance defect means nothing when the form value nearly cancels.
    # Candidates are screened on a coarse grid with a 25% margin, which
    # keeps set-up cheap; the base value is checked against FLOOR itself.
    FLOOR = 0.08
    SCREEN_GRID = (12, 24)
    SCREEN_FLOOR = 0.1
    INVARIANCE_TOL = 1e-3

    def inputs(self, seed, index):
        rng = _rng(seed, index, 1)
        alpha = tuple(1.45 + 0.5 * rng.random() for _ in range(3))
        g = lorentz.random_element(DIM, _int_seed(rng), max_boost=0.3)
        base = _int_seed(rng)
        for attempt in range(16):
            fs = [sphgrid.random_coeffs(4, base + 37 * attempt + j, real_field=True)
                  for j in range(3)]
            scale = float(np.prod([f.l2_norm() for f in fs]))
            coarse = trilinear.generic_form(DIM, alpha, *fs, grid_size=self.SCREEN_GRID)
            if abs(coarse) >= self.SCREEN_FLOOR * scale:
                break
        else:
            raise RuntimeError("no well-conditioned field triple found")
        lam = trilinear.lambda_from_alpha(alpha).lam
        moved = [reps.pi_pointwise(DIM, lam[j], g, fs[j]) for j in range(3)]
        return {"alpha": alpha, "fs": fs, "moved": moved, "scale": scale}

    def warmup(self):
        _tiny_generic_form()

    def ops(self, inp):
        alpha, fs = inp["alpha"], inp["fs"]
        state = {}

        def direct_base():
            state["engine"] = trilinear.TripleEngine(DIM, alpha, method="direct",
                                                     grid_size=self.GRID)
            state["base"] = state["engine"].value(*fs)
            return state["base"]

        def direct_moved():
            return state.pop("engine").value(*inp["moved"])

        def fast_base():
            return trilinear.generic_form(DIM, alpha, *fs, method="fast",
                                          grid_size=self.GRID)

        return [
            Op("direct_base", direct_base,
               lambda v: self.FLOOR * inp["scale"] / abs(v), 1.0),
            Op("direct_moved", direct_moved,
               lambda v: _rel(v, state["base"]), self.INVARIANCE_TOL),
            # the fast path differs from direct by its kernel truncation;
            # held to the same 1e-3 as the invariance check on these
            # non-integer exponents
            Op("fast_base", fast_base,
               lambda v: _rel(v, state["base"]), self.INVARIANCE_TOL),
        ]


# ---------------------------------------------------------------------------


def _safe_alpha3_params(rng, window=(-6.5, 0.5), step=0.2, radius=0.15):
    """(a1, a2, expected alpha3 poles, expected sum poles) for a scan of
    the closed-form channel in a3.  Poles sit at a3 = -1 - 2k and
    a3 = -1 - 2k - (a1 + a2), zeros at a3 = -2 - 2j - a1 and -2 - 2j - a2.
    Draws are redrawn until no pole lies near a ring's circle (a fit there
    is ill-conditioned) and no pole or zero lies near a sample point."""
    lo, hi = window
    centers = np.arange(lo, hi + step / 2.0, step)
    samples = np.concatenate([centers - radius, centers + radius])
    ks = np.arange(0, 8)
    for _ in range(1000):
        a1 = 0.2 + 0.25 * rng.random()
        a2 = 0.45 + 0.45 * rng.random()
        sigma = a1 + a2
        plane = -1.0 - 2.0 * ks
        total = plane - sigma
        zeros = np.concatenate([-2.0 - 2.0 * ks - a1, -2.0 - 2.0 * ks - a2])
        dist = np.abs(np.concatenate([plane, total])[:, None] - centers[None, :])
        near_circle = np.any((dist > radius - 0.03) & (dist < radius + 0.03))
        special = np.concatenate([plane, total, zeros])
        near_sample = np.any(np.abs(special[:, None] - samples[None, :]) < 0.01)
        apart = np.min(np.abs(total[:, None] - plane[None, :])) > 0.3
        if near_circle or near_sample or not apart:
            continue
        seen = lambda p: p[np.abs(p[:, None] - centers[None, :]).min(axis=1) < radius]
        return a1, a2, sorted(seen(plane)), sorted(seen(total))
    raise RuntimeError("no admissible pole-scan parameters")


def _safe_line_params(rng, step=0.2, radius=0.15):
    """(k, delta, window, expected lines) for the singular-line scan: the
    k-th residue expression has poles at tau = 0, 2, ..., 2k in the
    window; delta is redrawn until no Gamma pole or zero of either slot
    (at +-delta plus an even integer) lies near a ring sample point."""
    k = int(rng.integers(1, 3))
    window = (-3.0, 3.0) if k == 1 else (-1.0, 5.0)
    centers = np.arange(window[0], window[1] + step / 2.0, step)
    samples = np.concatenate([centers - radius, centers + radius])
    evens = 2.0 * np.arange(-6, 7)
    for _ in range(1000):
        delta = 0.2 + 0.12 * rng.random()
        special = np.concatenate([evens + delta, evens - delta])
        if np.all(np.abs(special[:, None] - samples[None, :]) >= 0.01):
            return k, delta, window, [2 * j for j in range(k + 1)]
    raise RuntimeError("no admissible singular-line parameters")


class Spectral:
    """Coefficient-space continuation for seeded degree-16 fields:
    pairings at exponents from the direct range through three continuation
    depths; residue rings for k = 0..3 and the two-sphere ring at k = 1;
    knapp_stein_multipliers at L = 64, direct and continued; both
    pole-scan families.

    Why: it uses no grids and no kernel matrices.  About 80% of its time
    is tanh-sinh zonal quadrature, so closed-form Knapp-Stein eigenvalues
    show here and almost nowhere else.
    """

    name = "spectral"
    probe = "python"           # the worker.SpeedProbe kind its times track
    DEGREE = 16
    L_KS = 64
    PAIR_FIELDS = 2
    PAIR_EXPONENTS = 8        # per continuation depth
    KS_EXPONENTS = 16         # per regime (direct, continued)
    RING_FIELDS = 3           # per k
    PAIR_TOL = 1e-6           # closed forms (tri-gamma-ratio, fast-direct)
    RING_TOL = 1e-4           # res-operator
    TWO_SPHERE_TOL = 1e-6     # res-symmetry
    KS_TOL = 1e-6

    def inputs(self, seed, index):
        rng = _rng(seed, index, 2)
        field = lambda: sphgrid.random_coeffs(self.DEGREE, _int_seed(rng))
        # exponent bands: depth d needs d Bernstein-Sato steps; the
        # imaginary part keeps clear of poles and vanishing denominators
        pairs = []
        for depth in range(4):
            hi = 2.5 if depth == 0 else -1.5 - 2.0 * (depth - 1)
            lo = -1.5 - 2.0 * depth
            for f in [field() for _ in range(self.PAIR_FIELDS)]:
                for _ in range(self.PAIR_EXPONENTS):
                    s = complex(lo + (hi - lo) * rng.random(),
                                rng.choice([-1, 1]) * (0.1 + 0.4 * rng.random()))
                    pairs.append((s, f))
        rings = []
        for k in range(4):
            drawn = 0
            while drawn < self.RING_FIELDS:
                f = field()
                want = mero.covariant_power_at_pole(DIM, k, f)
                if abs(want) >= 0.05 * f.l2_norm():   # as in verify
                    rings.append((k, f, want))
                    drawn += 1
        two_sphere = []
        for _ in range(2):
            f1, f2 = field(), field()
            two_sphere.append((f1, f2, mero.residue_separation_power(DIM, 1, f1, f2)))
        ks = []
        for regime in ("direct", "continued"):
            for _ in range(self.KS_EXPONENTS):
                # s = alpha - rho: direct above -1.5, continued 1-3 steps below
                if regime == "direct":
                    s = complex(-1.4 + 6.0 * rng.random(), 0.0)
                else:
                    s = complex(-7.4 + 5.8 * rng.random(),
                                rng.choice([-1, 1]) * (0.1 + 0.4 * rng.random()))
                ks.append((s + DIM.rho, oracles.kernel_eigenvalues_s2(s, self.L_KS)))
        a1, a2, planes, sums = _safe_alpha3_params(rng)
        k, delta, window, lines = _safe_line_params(rng)
        return {"pairs": pairs, "rings": rings, "two_sphere": two_sphere, "ks": ks,
                "alpha3": (a1, a2, planes, sums), "line": (k, delta, window, lines)}

    def warmup(self):
        mero.pair_distance_power(DIM, 0.5, sphgrid.coeffs_constant(1.0, 2))

    def ops(self, inp):
        out = []
        for s, f in inp["pairs"]:
            want, scale = oracles.zonal_pairing_s2(s, f.c)
            out.append(Op("pair", lambda s=s, f=f: mero.pair_distance_power(DIM, s, f),
                          lambda v, want=want, scale=scale: abs(v - want) / scale,
                          self.PAIR_TOL))
        for k, f, want in inp["rings"]:
            out.append(Op(f"ring_k{k}",
                          lambda k=k, f=f: mero.residue_pair_distance_power(DIM, k, f),
                          lambda v, want=want: _rel(v, want), self.RING_TOL))
        for f1, f2, want in inp["two_sphere"]:
            out.append(Op("ring_two_sphere",
                          lambda f1=f1, f2=f2: mero.residue_separation_power_ring(DIM, 1, f1, f2),
                          lambda v, want=want: _rel(v, want), self.TWO_SPHERE_TOL))
        for alpha, want in inp["ks"]:
            # relative to the largest eigenvalue, the accuracy the
            # quadrature's own convergence test declares
            out.append(Op("knapp_stein",
                          lambda alpha=alpha: spectral_ops.knapp_stein_multipliers(
                              DIM, alpha, self.L_KS),
                          lambda v, want=want: float(np.abs(v - want).max()
                                                     / np.abs(want).max()),
                          self.KS_TOL))
        a1, a2, planes, sums = inp["alpha3"]
        out.append(Op("pole_scan_alpha3",
                      lambda: trilinear.pole_scan(DIM, "alpha3", window=(-6.5, 0.5),
                                                  a1=a1, a2=a2),
                      lambda scan: _flag(_alpha3_lattice_ok(scan, planes, sums)), 0.5))
        k, delta, window, lines = inp["line"]
        out.append(Op("pole_scan_line",
                      lambda: trilinear.pole_scan(DIM, "singular_line", window=window,
                                                  k=k, delta=delta),
                      lambda scan: _flag(_line_lattice_ok(scan, lines)), 0.5))
        return out


def _alpha3_lattice_ok(scan, planes, sums) -> bool:
    got_planes = sorted(r.position.real for r in scan if r.family == "alpha3")
    got_sums = sorted(r.position.real for r in scan if r.family == "sum")
    return (len(got_planes) == len(planes) and len(got_sums) == len(sums)
            and np.allclose(got_planes, planes, atol=1e-6)
            and np.allclose(got_sums, sums, atol=1e-6)
            and not any(r.family == "unknown" for r in scan))


def _line_lattice_ok(scan, lines) -> bool:
    got = sorted(round(r.position.real) for r in scan if r.family == "singular_line")
    return got == lines and not any(r.family == "unknown" for r in scan)


# ---------------------------------------------------------------------------


class Transform:
    """Group action and transforms: intertwining defects (covariant power
    k = 1 and 2, and Knapp-Stein) of degree-16 fields on a degree-64 grid
    under seeded boosts, and a full-band pi_lambda(g) of a degree-128 field.

    Why: synth_at_points and legendre_table take most of its time, so one
    cached transform layer shows here, and so would a rewrite that speeds
    up the column transforms but slows point synthesis.
    """

    name = "transform"
    probe = "array"           # the worker.SpeedProbe kind its times track
    FIELD_DEGREE = 16
    GRID_DEGREE = 64
    FULL_DEGREE = 128
    COVARIANT_FIELDS = 8      # per k
    KS_FIELDS = 8
    ORACLE_POINTS = 8
    INTERTWINING_TOL = 1e-4   # int-covariant, int-knapp-stein
    DIRAC_TOL = 1e-9          # rep-dirac: pointwise transformation law

    def inputs(self, seed, index):
        rng = _rng(seed, index, 3)
        boost = lambda: lorentz.random_element(DIM, _int_seed(rng), max_boost=0.3)
        field = lambda: sphgrid.random_coeffs(self.FIELD_DEGREE, _int_seed(rng))
        covariant = [(k, field(), boost()) for k in (1, 2)
                     for _ in range(self.COVARIANT_FIELDS)]
        knapp = [(0.3 + 0.5 * rng.random(), field(), boost())
                 for _ in range(self.KS_FIELDS)]
        grid_full = sphgrid.make_grid(self.FULL_DEGREE)
        f_full = sphgrid.random_coeffs(self.FULL_DEGREE, _int_seed(rng))
        lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        g = boost()
        nodes = rng.choice(grid_full.n_theta * grid_full.n_phi, self.ORACLE_POINTS,
                           replace=False)
        return {"grid": sphgrid.make_grid(self.GRID_DEGREE), "covariant": covariant,
                "knapp": knapp, "full": (grid_full, f_full, lam, g, nodes)}

    def expected(self, inp):
        grid_full, f_full, lam, g, nodes = inp["full"]
        inp["want"] = oracles.principal_series_at(g.m, lam, f_full.c,
                                                  grid_full.flat_points()[nodes])

    def warmup(self):
        f = sphgrid.random_coeffs(2, 0)
        reps.pi_act_coeffs(DIM, 0.5, lorentz.boost(0.1, DIM), f, sphgrid.make_grid(4))

    def ops(self, inp):
        grid = inp["grid"]
        out = [Op(f"covariant_k{k}",
                  lambda k=k, f=f, g=g: _covariant_defect(k, g, f, grid),
                  float, self.INTERTWINING_TOL)
               for k, f, g in inp["covariant"]]
        out += [Op("knapp_stein",
                   lambda lam=lam, f=f, g=g: _knapp_stein_defect(lam, g, f, grid),
                   float, self.INTERTWINING_TOL)
                for lam, f, g in inp["knapp"]]
        grid_full, f_full, lam, g, nodes = inp["full"]
        want = inp["want"]
        out.append(Op("full_band_pi",
                      lambda: reps.pi_act(DIM, lam, g,
                                          sphgrid.sht_inverse(f_full, grid_full)),
                      lambda moved: float(np.abs(moved.values.reshape(-1)[nodes] - want).max()
                                          / np.abs(want).max()),
                      self.DIRAC_TOL))
        return out


def _covariant_defect(k, g, f, grid) -> float:
    """|| R_k pi_{-k}(g) f - pi_k(g) R_k f || / || f || at the grid's band
    limit (the int-covariant check of verify)."""
    moved = sphgrid.sht_forward(reps.pi_act_coeffs(DIM, -float(k), g, f, grid))
    path_a = spectral_ops.residue_operator_apply(DIM, k, moved)
    rf = spectral_ops.residue_operator_apply(DIM, k, f)
    path_b = sphgrid.sht_forward(reps.pi_act_coeffs(DIM, float(k), g, rf, grid))
    return float(np.linalg.norm(path_a.c - path_b.c) / f.l2_norm())


def _knapp_stein_defect(lam, g, f, grid) -> float:
    """|| K pi_lam(g) f - pi_{-lam}(g) K f || / || f || for the kernel
    |x-y|^{-rho + alpha}, alpha = -rho + 2 lam (the int-knapp-stein check of
    verify), with the multipliers applied as plain vectors."""
    alpha = -DIM.rho + 2.0 * lam
    eig = spectral_ops.knapp_stein_multipliers(DIM, alpha, grid.L)
    moved = sphgrid.sht_forward(reps.pi_act_coeffs(DIM, lam, g, f, grid))
    kf = sphgrid.HarmonicCoeffs(f.L, f.c * eig[: f.L + 1, None])
    path_b = sphgrid.sht_forward(reps.pi_act_coeffs(DIM, -lam, g, kf, grid))
    return float(np.linalg.norm(moved.c * eig[:, None] - path_b.c) / f.l2_norm())


WORKLOADS = {w.name: w for w in (Battery(), GenericLarge(), Spectral(), Transform())}
