"""Regularized pairings of chordal-distance kernels and numerical residue
extraction by contour sampling.

Residue convention.  The pairing s -> (|e - x|^s, f) is built from the
area family 2^{n-1} pi^rho 2^s Gamma(s/2 + rho) / Gamma(s/2 + 2 rho),
whose poles come from Gamma(s/2 + rho); all residues reported by this
module are taken with respect to the HALF parameter s/2 (that is, half
the plain contour residue in s).  With this normalization the residue at
the k-th pole is exactly c_k times the k-th covariant power applied to
the test function and evaluated at the base point, with
c_k = pi^rho / (4^k Gamma(rho+k) Gamma(k+1)), and the analogous statement
holds for the two-sphere kernel pairings in the alpha parameter.

Contour rings.  `residue_rings(F, centers, radius, m)` fits every ring of
a scan at once.  F receives the complex sample array, one row of m points
z_j = c + radius e^{i theta_j} per center c, and returns the function's
values in the same shape: an array-valued function (the pairings below,
which take an ndarray of exponents) passes straight through, and a scalar
one is wrapped by `elementwise`.  The Laurent data are three means along
the rows, the trapezoid rule on each circle (Trefethen & Weideman, SIAM
Rev. 56 (2014)).  `residue_ring` is the one-center case for a scalar F.
Both are convention-free: they return the plain residue of the function
they are given.

Cached read-only tables: the ring phases e^{i theta_j} and their squares
once per ring size (`_ring_phases`); the pairings read sphgrid's zonal
weights and pairing signs and spectral_ops' Knapp-Stein steps, each built
once per degree.  The results are bitwise those of the uncached formulas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lorentz import Dimension
from .sphgrid import HarmonicCoeffs, _zonal_weights, degree_pairings, value_at_pole
# an array of exponents goes to _knapp_stein_rows directly: perfbench's
# tracer reads the exponent of every knapp_stein_multipliers call as one number
from .spectral_ops import (_knapp_stein_rows, check_order, knapp_stein_multipliers,
                           residue_operator_apply)

POLE_GUARD = 1e-6


@dataclass(frozen=True)
class LaurentFit:
    """Result of a contour ring fit around a (presumed simple) pole."""

    center: complex
    radius: float
    residue: complex
    regular_value: complex
    ring_size: int
    condition: float
    pole_offset: complex = 0j    # radius mu_{-2} / mu_{-1}: where a simple pole sits
    sample_max: float = 0.0      # largest sample magnitude on the ring

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.ring_size < 8:
            raise ValueError("ring must have at least 8 samples")
        if not np.isfinite(self.condition):
            raise ValueError("condition must be finite")


@functools.cache
def _ring_phases(m: int) -> tuple:
    """e^{i theta_j} and its square, theta_j = 2 pi j / m; read-only."""
    phase = np.exp(1j * (2.0 * math.pi * np.arange(m) / m))
    out = (phase, phase**2)
    for a in out:
        a.flags.writeable = False
    return out


def residue_rings(F, centers, radius: float = 0.1, m: int = 16) -> list[LaurentFit]:
    """Fit the Laurent data of F around every center at once, from m
    equispaced samples on the circle of the given radius about each.

    F receives the complex sample array z, one row of m samples per
    center (len(centers) x m), and returns the values there, in the same
    shape; a scalar function is passed as `elementwise(F)`.  The fits are
    three means along the rows, one LaurentFit per center:
    residue       ~ (radius/m) sum_j F(z_j) e^{i theta_j}   (plain, in z)
    regular_value ~ mean of the samples (the zeroth Fourier mode)
    condition     ~ |second inverse Fourier mode| / |residue mode|; small
                    for a clean simple pole, O(1) when the ring sees a
                    higher-order pole or is badly placed.
    pole_offset   ~ radius mu_{-2} / mu_{-1}, the offset from the center of
                    a simple pole inside the ring.
    """
    if not isinstance(m, (int, np.integer)):
        raise ValueError(f"ring size m must be an integer, got {m!r}")
    if m < 8:
        raise ValueError("need at least 8 ring samples")
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    phase, phase2 = _ring_phases(int(m))
    centers = np.asarray(centers, dtype=complex).reshape(-1)
    vals = np.asarray(F(centers[:, None] + radius * phase), dtype=complex)
    if vals.shape != (centers.size, m):
        raise ValueError(f"F returned shape {vals.shape} for {centers.size} rings "
                         f"of {m} samples")
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite samples on the residue ring")
    mu_m1 = np.mean(vals * phase, axis=1)        # ~ a_{-1} / radius
    mu_0 = np.mean(vals, axis=1)                 # ~ a_0
    mu_m2 = np.mean(vals * phase2, axis=1)       # ~ a_{-2} / radius^2
    residue = radius * mu_m1
    cond = np.abs(mu_m2) / (np.abs(mu_m1) + 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = radius * mu_m2 / mu_m1
    return [LaurentFit(center=c, radius=float(radius), residue=r, regular_value=a0,
                       ring_size=int(m), condition=q, pole_offset=o, sample_max=top)
            for c, r, a0, q, o, top in zip(
                centers.tolist(), residue.tolist(), mu_0.tolist(), cond.tolist(),
                offset.tolist(), np.abs(vals).max(axis=1).tolist())]


def elementwise(F):
    """The array form of a scalar function F: F of every entry."""
    return lambda z: np.array([complex(F(v)) for v in z.ravel().tolist()]).reshape(z.shape)


def residue_ring(F, center: complex, radius: float = 0.1, m: int = 16) -> LaurentFit:
    """The one-ring case of residue_rings, for a scalar function F."""
    return residue_rings(elementwise(F), [center], radius, m)[0]


# ---------------------------------------------------------------------------
# one-variable pairings (h_s, f)


def _pole_distance(dim: Dimension, s):
    """Distance from s to the nearest pole -(n-1) - 2k, k >= 0: the one at
    the rounded k (the differences are exact for |Re s| < 2^52, so a tie
    gives equal distances).  Entrywise for a complex ndarray s."""
    base = -(dim.n - 1.0)
    if isinstance(s, np.ndarray):
        return np.abs(s - (base - 2.0 * np.maximum(0.0, np.round((base - s.real) / 2.0))))
    s = complex(s)
    return abs(s - (base - 2.0 * max(0, round((base - s.real) / 2.0))))


def _check_off_poles(dim: Dimension, s, name: str, given) -> None:
    """ValueError unless every s lies POLE_GUARD clear of the poles, naming
    the first offending entry of `given`, the parameter s was formed from."""
    if isinstance(s, np.ndarray):
        near = np.flatnonzero(_pole_distance(dim, s) < POLE_GUARD)
        if not near.size:
            return
        given = given.flat[near[0]]
    elif not _pole_distance(dim, s) < POLE_GUARD:
        return
    raise ValueError(f"{name}={given} is within {POLE_GUARD} of a pole; "
                     "sample on a ring instead")


def pair_distance_power(dim: Dimension, s, f: HarmonicCoeffs):
    """Regularized pairing (|e - x|^s, f) for a band-limited f on S^2.

    Only the m = 0 coefficients pair with the zonal kernel, each weighted
    by the degree-l kernel eigenvalue; the eigenvalues are meromorphic in
    s (closed form), so the same dot product is the continuation below the
    integrability threshold.  For an ndarray of s the result is the array
    of pairings, one per entry.
    """
    if dim.n != 3:
        raise ValueError("coefficient pairings are implemented for n = 3")
    array = isinstance(s, np.ndarray)
    s = s.astype(complex) if array else complex(s)
    _check_off_poles(dim, s, "s", s)
    eig = (_knapp_stein_rows if array else knapp_stein_multipliers)(dim, s + dim.rho, f.L)
    value = np.dot(eig, f.c[:, f.L] * _zonal_weights(f.L))
    return value if array else complex(value)


def residue_pair_distance_power(dim: Dimension, k: int, f: HarmonicCoeffs) -> complex:
    """Operator-normalized residue of s -> (h_s, f) at s = -(n-1) - 2k,
    extracted from the default contour ring (see the module docstring for the
    half-parameter convention).  Equals c_k times the k-th covariant power
    of f evaluated at the base point."""
    check_order(k)
    center = -(dim.n - 1.0) - 2.0 * k
    fit, = residue_rings(lambda z: pair_distance_power(dim, z, f), [center])
    return fit.residue / 2.0


def covariant_power_at_pole(dim: Dimension, k: int, f: HarmonicCoeffs) -> complex:
    """c_k (Delta_k f)(e): the predicted value of the k-th residue."""
    return value_at_pole(residue_operator_apply(dim, k, f))


# ---------------------------------------------------------------------------
# two-variable pairings (k_alpha, f) on S^2 x S^2


def pair_separation_power(dim: Dimension, alpha, f1: HarmonicCoeffs, f2: HarmonicCoeffs):
    """(k_alpha, f1 (x) f2) = int |x-y|^{-rho+alpha} f1(x) f2(y), evaluated
    through the kernel eigenvalues (meromorphic in alpha); entrywise for an
    ndarray of alpha."""
    array = isinstance(alpha, np.ndarray)
    a = alpha.astype(complex) if array else complex(alpha)
    _check_off_poles(dim, a - dim.rho, "alpha", alpha)
    eig = (_knapp_stein_rows if array else knapp_stein_multipliers)(dim, a, min(f1.L, f2.L))
    value = np.dot(eig, degree_pairings(f1, f2))
    return value if array else complex(value)


def residue_separation_power(dim: Dimension, k: int, f1: HarmonicCoeffs,
                             f2: HarmonicCoeffs) -> complex:
    """Residue (half-parameter convention) of alpha -> (k_alpha, f1 (x) f2)
    at alpha = -rho - 2k via the residue operator, which is diagonal in
    degree and so acts the same on either factor."""
    return complex(degree_pairings(residue_operator_apply(dim, k, f1), f2).sum())


def residue_separation_power_ring(dim: Dimension, k: int, f1: HarmonicCoeffs,
                                  f2: HarmonicCoeffs) -> complex:
    check_order(k)
    center = -dim.rho - 2.0 * k
    fit, = residue_rings(lambda a: pair_separation_power(dim, a, f1, f2), [center])
    return fit.residue / 2.0
