"""Spectral multipliers on S^{n-1}: the Laplacian, its conformally
covariant powers (Yamabe / GJMS family), the Bernstein-Sato ladder for the
chordal-distance kernels, and the Knapp-Stein eigenvalues with downward
continuation.

Everything acts diagonally on spherical-harmonic degrees.  The Laplacian
is defined spectrally (eigenvalue -l(l+n-2)); the radial second-order form
serves as an independent check in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lorentz import Dimension
from .sphgrid import HarmonicCoeffs, kernel_eigenvalues

DENOM_GUARD = 1e-6
DIRECT_MARGIN = 0.5


def laplacian_multiplier(dim: Dimension, l: int) -> float:
    """Eigenvalue of the Laplace-Beltrami operator on degree-l harmonics."""
    return -float(l) * (l + dim.n - 2.0)


def yamabe_shift(dim: Dimension) -> float:
    """Constant term of the conformal Laplacian: -(n-1)(n-3)/4."""
    return -0.25 * (dim.n - 1.0) * (dim.n - 3.0)


def gjms_multiplier(dim: Dimension, k: int, l: int) -> float:
    """Eigenvalue of the k-th covariant power: the product over j <= k of
    (Delta - (rho+j-1)(rho-j)), evaluated in the factored form
    prod_j -(l+rho+j-1)(l+rho-j) so the integer zeros come out exact."""
    if k < 0:
        raise ValueError("k must be >= 0")
    rho = dim.rho
    out = 1.0
    for j in range(1, k + 1):
        out *= -(l + rho + j - 1.0) * (l + rho - j)
    return out


@dataclass(frozen=True)
class GjmsConstant:
    """Normalization tying the k-th covariant power to the k-th kernel
    residue: c_k = pi^rho / (4^k Gamma(rho+k) Gamma(k+1))."""

    k: int
    c_k: float


def gjms_constant(dim: Dimension, k: int) -> GjmsConstant:
    if k < 0:
        raise ValueError("k must be >= 0")
    rho = dim.rho
    val = math.pi ** rho / (4.0 ** k * math.gamma(rho + k) * math.gamma(k + 1.0))
    return GjmsConstant(k=k, c_k=float(val))


def bernstein_multiplier(dim: Dimension, s: complex, l: int) -> complex:
    """Eigenvalue of Delta + (s/2)(s/2 + n - 2) on degree l."""
    s = complex(s)
    return laplacian_multiplier(dim, l) + (s / 2.0) * (s / 2.0 + dim.n - 2.0)


def bernstein_rhs_factor(dim: Dimension, s: complex) -> complex:
    """The s(s + n - 3) factor that steps the kernel exponent down by 2."""
    s = complex(s)
    return s * (s + dim.n - 3.0)


def apply_multiplier(values, coeffs: HarmonicCoeffs) -> HarmonicCoeffs:
    """Multiply the degree-l coefficients by values[l]."""
    values = np.asarray(values)
    if values.shape[0] < coeffs.L + 1:
        raise ValueError("multiplier table too short for these coefficients")
    return HarmonicCoeffs(coeffs.L, coeffs.c * values[: coeffs.L + 1, None])


def bernstein_apply(dim: Dimension, s: complex, coeffs: HarmonicCoeffs) -> HarmonicCoeffs:
    return apply_multiplier([bernstein_multiplier(dim, s, l)
                             for l in range(coeffs.L + 1)], coeffs)


def residue_operator_apply(dim: Dimension, k: int, coeffs: HarmonicCoeffs) -> HarmonicCoeffs:
    """c_k times the k-th covariant power, i.e. the k-th residue operator
    of the kernel family."""
    out = apply_multiplier([gjms_multiplier(dim, k, l)
                            for l in range(coeffs.L + 1)], coeffs)
    return HarmonicCoeffs(out.L, out.c * gjms_constant(dim, k).c_k)


# ---------------------------------------------------------------------------
# Knapp-Stein eigenvalues with downward continuation


def _descent_steps(dim: Dimension, s: complex, margin: float) -> int:
    """Number of +2 shifts needed before direct quadrature is trusted."""
    target = -(dim.n - 1.0) + margin
    m = 0
    while complex(s).real + 2.0 * m <= target:
        m += 1
    return m


def knapp_stein_multipliers(dim: Dimension, alpha: complex, L: int,
                            margin: float = DIRECT_MARGIN) -> np.ndarray:
    """Eigenvalues e_l(alpha), l = 0..L, of convolution with the kernel
    |x - y|^{-rho + alpha}.

    Direct quadrature where the kernel is integrable with margin
    (Re(-rho+alpha) > -(n-1) + 0.5); otherwise the values are continued
    downward through the Bernstein-Sato relation
        e_l(s - 2) = [Delta_l + (s/2)(s/2+n-2)] e_l(s) / (s (s+n-3)),
    starting from a directly computable exponent s + 2m.

    Raises if a continuation step passes within 1e-6 of a zero of
    s(s+n-3); nudge alpha off the real axis in that case.
    """
    s = complex(alpha) - dim.rho
    m = _descent_steps(dim, s, margin)
    for j in range(1, m + 1):
        step = s + 2.0 * j
        if abs(step) < DENOM_GUARD or abs(step + dim.n - 3.0) < DENOM_GUARD:
            raise ZeroDivisionError(
                f"continuation step s={step} hits a zero of s(s+n-3); "
                "perturb alpha off the real axis (e.g. alpha + 1e-3j)")
    vals = kernel_eigenvalues(dim, s + 2.0 * m, L)
    lap = np.array([laplacian_multiplier(dim, l) for l in range(L + 1)])
    for j in range(m, 0, -1):
        step = s + 2.0 * j
        num = lap + (step / 2.0) * (step / 2.0 + dim.n - 2.0)
        vals = num * vals / (step * (step + dim.n - 3.0))
    return vals


def knapp_stein_multiplier(dim: Dimension, alpha: complex, l: int,
                           margin: float = DIRECT_MARGIN) -> complex:
    """Single eigenvalue e_l(alpha); see knapp_stein_multipliers."""
    return complex(knapp_stein_multipliers(dim, alpha, l, margin=margin)[l])
