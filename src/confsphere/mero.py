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

The contour tool residue_ring itself is convention-free: it returns the
plain residue of the function it is given.

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
from .spectral_ops import check_order, knapp_stein_multipliers, residue_operator_apply

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


def residue_ring(F, center: complex, radius: float = 0.1, m: int = 16) -> LaurentFit:
    """Fit the Laurent data of F around `center` from m equispaced samples
    on the circle of the given radius.

    residue       ~ (radius/m) sum_j F(z_j) e^{i theta_j}   (plain, in z)
    regular_value ~ mean of the samples (the zeroth Fourier mode)
    condition     ~ |second inverse Fourier mode| / |residue mode|; small
                    for a clean simple pole, O(1) when the ring sees a
                    higher-order pole or is badly placed.
    pole_offset   ~ radius mu_{-2} / mu_{-1}, the offset from the center of
                    a simple pole inside the ring.
    """
    if m < 8:
        raise ValueError("need at least 8 ring samples")
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    phase, phase2 = _ring_phases(m)
    z = center + radius * phase
    vals = np.array([complex(F(zj)) for zj in z])
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite samples on the residue ring")
    mu_m1 = np.mean(vals * phase)            # ~ a_{-1} / radius
    mu_0 = np.mean(vals)                     # ~ a_0
    mu_m2 = np.mean(vals * phase2)           # ~ a_{-2} / radius^2
    residue = radius * mu_m1
    cond = abs(mu_m2) / (abs(mu_m1) + 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = radius * mu_m2 / mu_m1
    return LaurentFit(center=complex(center), radius=float(radius),
                      residue=complex(residue), regular_value=complex(mu_0),
                      ring_size=int(m), condition=float(cond),
                      pole_offset=complex(offset),
                      sample_max=float(np.abs(vals).max()))


# ---------------------------------------------------------------------------
# one-variable pairings (h_s, f)


def _pole_distance(dim: Dimension, s: complex) -> float:
    """Distance from s to the nearest pole -(n-1) - 2k, k >= 0: the one at
    the rounded k (the differences are exact for |Re s| < 2^52, so a tie
    gives equal distances)."""
    s, base = complex(s), -(dim.n - 1.0)
    return abs(s - (base - 2.0 * max(0, round((base - s.real) / 2.0))))


def pair_distance_power(dim: Dimension, s: complex, f: HarmonicCoeffs) -> complex:
    """Regularized pairing (|e - x|^s, f) for a band-limited f on S^2.

    Only the m = 0 coefficients pair with the zonal kernel, each weighted
    by the degree-l kernel eigenvalue; the eigenvalues are meromorphic in
    s (closed form), so the same dot product is the continuation below the
    integrability threshold.
    """
    if dim.n != 3:
        raise ValueError("coefficient pairings are implemented for n = 3")
    s = complex(s)
    if _pole_distance(dim, s) < POLE_GUARD:
        raise ValueError(f"s={s} is within {POLE_GUARD} of a pole; "
                         "sample on a ring instead")
    eig = knapp_stein_multipliers(dim, s + dim.rho, f.L)
    return complex(np.dot(eig, f.c[:, f.L] * _zonal_weights(f.L)))


def residue_pair_distance_power(dim: Dimension, k: int, f: HarmonicCoeffs) -> complex:
    """Operator-normalized residue of s -> (h_s, f) at s = -(n-1) - 2k,
    extracted from the default contour ring (see the module docstring for the
    half-parameter convention).  Equals c_k times the k-th covariant power
    of f evaluated at the base point."""
    check_order(k)
    center = -(dim.n - 1.0) - 2.0 * k
    fit = residue_ring(lambda z: pair_distance_power(dim, z, f), center)
    return fit.residue / 2.0


def covariant_power_at_pole(dim: Dimension, k: int, f: HarmonicCoeffs) -> complex:
    """c_k (Delta_k f)(e): the predicted value of the k-th residue."""
    return value_at_pole(residue_operator_apply(dim, k, f))


# ---------------------------------------------------------------------------
# two-variable pairings (k_alpha, f) on S^2 x S^2


def pair_separation_power(dim: Dimension, alpha: complex,
                          f1: HarmonicCoeffs, f2: HarmonicCoeffs) -> complex:
    """(k_alpha, f1 (x) f2) = int |x-y|^{-rho+alpha} f1(x) f2(y), evaluated
    through the kernel eigenvalues (meromorphic in alpha)."""
    s = complex(alpha) - dim.rho
    if _pole_distance(dim, s) < POLE_GUARD:
        raise ValueError(f"alpha={alpha} is within {POLE_GUARD} of a pole")
    L = min(f1.L, f2.L)
    eig = knapp_stein_multipliers(dim, complex(alpha), L)
    return complex(np.dot(eig, degree_pairings(f1, f2)))


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
    fit = residue_ring(lambda a: pair_separation_power(dim, a, f1, f2), center)
    return fit.residue / 2.0
