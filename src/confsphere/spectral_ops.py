"""Spectral multipliers on S^{n-1}: the Laplacian, its conformally
covariant powers (Yamabe / GJMS family), the Bernstein-Sato ladder for the
chordal-distance kernels, and the Knapp-Stein eigenvalues in closed form
(meromorphic in the exponent, so no continuation is needed).

Everything acts diagonally on spherical-harmonic degrees: every multiplier
is a table over l = 0..L, applied by `apply_multiplier`.  The Laplacian
is defined spectrally (eigenvalue -l(l+n-2)); the radial second-order form
serves as an independent check in the test suite.

The steps l - 1 and l - 1 + d of the Knapp-Stein ratio are built once per
(n, L) and cached read-only (`_ratio_steps`); each call forms only its own
ratio and product, so the eigenvalues are bitwise those of the plain formula.
At odd n the Gamma quotient of the seed has integer-spaced arguments and is
the exact rational 1 / (d/2 + h)_{d/2}; only even n and the vanishing
degrees below l0 go through the log-space `gamma_ratio`.  An array of
alpha gives one row of eigenvalues per entry, so a contour ring of
pairings is one call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .lorentz import Dimension
from .special import gamma_ratio, pochhammer
from .sphgrid import HarmonicCoeffs


def laplacian_multipliers(dim: Dimension, L: int) -> np.ndarray:
    """Eigenvalues -l(l + n - 2) of the Laplace-Beltrami operator, l = 0..L."""
    l = np.arange(L + 1, dtype=float)
    return -l * (l + dim.n - 2.0)


def check_order(k: int) -> None:
    """ValueError naming k unless k is an integer >= 0: the order of a
    covariant power, of a kernel residue or of a singular form."""
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


def gjms_multipliers(dim: Dimension, k: int, L: int) -> np.ndarray:
    """Eigenvalues, l = 0..L, of the k-th covariant power: the product over
    j <= k of (Delta - (rho+j-1)(rho-j)), evaluated in the factored form
    prod_j -(l+rho+j-1)(l+rho-j) so the integer zeros come out exact."""
    check_order(k)
    rho = dim.rho
    l = np.arange(L + 1, dtype=float)
    out = np.ones(L + 1)
    for j in range(1, k + 1):
        out *= -(l + rho + j - 1.0) * (l + rho - j)
    return out


def gjms_constant(dim: Dimension, k: int) -> float:
    """Normalization c_k = pi^rho / (4^k Gamma(rho+k) Gamma(k+1)) tying the
    k-th covariant power to the k-th kernel residue."""
    check_order(k)
    rho = dim.rho
    return float(math.pi ** rho / (4.0 ** k * math.gamma(rho + k) * math.gamma(k + 1.0)))


def bernstein_multipliers(dim: Dimension, s: complex, L: int) -> np.ndarray:
    """Eigenvalues of Delta + (s/2)(s/2 + n - 2), l = 0..L."""
    s = complex(s)
    return laplacian_multipliers(dim, L) + (s / 2.0) * (s / 2.0 + dim.n - 2.0)


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


def residue_operator_apply(dim: Dimension, k: int, coeffs: HarmonicCoeffs) -> HarmonicCoeffs:
    """c_k times the k-th covariant power, i.e. the k-th residue operator
    of the kernel family."""
    out = apply_multiplier(gjms_multipliers(dim, k, coeffs.L), coeffs)
    return HarmonicCoeffs(out.L, out.c * gjms_constant(dim, k))


# ---------------------------------------------------------------------------
# Knapp-Stein eigenvalues in closed form


@functools.cache
def _ratio_steps(n: int, L: int) -> tuple:
    """The steps l - 1 and l - 1 + d, d = n - 1, of the Knapp-Stein ratio
    for l = 1..L; built once per (n, L), read-only."""
    steps = np.arange(L, dtype=float)
    out = (steps, steps + (n - 1.0))
    for a in out:
        a.flags.writeable = False
    return out


def knapp_stein_multipliers(dim: Dimension, alpha, L: int) -> np.ndarray:
    """Eigenvalues e_l(alpha), l = 0..L, of convolution with the kernel
    |x - y|^s, s = -rho + alpha, on S^d, d = n - 1 (Beckner 1993):
        e_l = 2^{d+s} pi^{d/2} Gamma((d+s)/2) (-s/2)_l / Gamma(l + d + s/2),
    seeded at odd n (d even) by the rational
        e_0 = 2^{d+s} pi^{d/2} / ((d+s)/2)_{d/2},
    at even n by the log-space Gamma quotient, and stepped by
        e_l = e_{l-1} (l - 1 - s/2) / (l - 1 + d + s/2),
    the ratio and its running product formed in place in the returned array.

    Meromorphic in alpha; raises ZeroDivisionError exactly on the pole
    lattice s = -d - 2k.  Where Gamma(l + d + s/2) has a pole off that
    lattice (real even s <= -2d, n even) e_l vanishes, so the recurrence
    starts at the first degree where it is finite.

    An ndarray of alpha gives alpha.shape + (L + 1,): one row per entry,
    the scalar call's up to rounding (`_knapp_stein_rows`).
    """
    if isinstance(alpha, np.ndarray):
        return _knapp_stein_rows(dim, alpha, L)
    d = dim.n - 1.0
    h = (complex(alpha) - dim.rho) / 2.0
    l0 = 0
    if h.imag == 0.0 and h.real == math.floor(h.real) and d + h.real <= 0.0:
        l0 = int(1.0 - d - h.real)
    if l0 == 0 and dim.n % 2:    # d even: Gamma(d/2+h) / Gamma(d+h) = 1 / (d/2+h)_{d/2}
        ratio = pochhammer(d + h, (1 - dim.n) // 2)
    else:
        num, den = [d / 2.0 + h], [l0 + d + h]
        if l0 > 0:   # the Pochhammer factor (-s/2)_{l0}, with -s/2 >= d
            num.append(l0 - h)
            den.append(-h)
        ratio = gamma_ratio(num, den)
    seed = 2.0 ** (d + 2.0 * h) * math.pi ** (d / 2.0) * ratio
    vals = np.zeros(L + 1, dtype=complex)
    if l0 <= L:
        steps, shifted = _ratio_steps(dim.n, L)
        run = vals[l0:]
        run[0] = 1.0
        np.subtract(steps[l0:], h, out=run[1:])
        run[1:] /= shifted[l0:] + h
        np.multiply.accumulate(run, out=run)     # the cumulative product
        np.multiply(seed, run, out=run)
    return vals


def _knapp_stein_rows(dim: Dimension, alpha: np.ndarray, L: int) -> np.ndarray:
    """knapp_stein_multipliers for every entry of alpha, one row each.  At
    odd n the rational seed, the ratio and its running product are array
    operations along the rows.  At even n, or where some h = s/2 is a real
    integer with d + h <= 0 (vanishing degrees, or the pole lattice, which
    raises), every row is the scalar call."""
    d = dim.n - 1.0
    h = (alpha.astype(complex) - dim.rho) / 2.0
    if dim.n % 2 == 0 or np.any((h.imag == 0.0) & (h.real == np.floor(h.real))
                                & (d + h.real <= 0.0)):
        return np.array([knapp_stein_multipliers(dim, a, L) for a in alpha.ravel().tolist()]
                        ).reshape(alpha.shape + (L + 1,))
    h = h[..., None]
    seed = 2.0 ** (d + 2.0 * h) * math.pi ** (d / 2.0) * pochhammer(d + h, (1 - dim.n) // 2)
    steps, shifted = _ratio_steps(dim.n, L)
    vals = np.empty(alpha.shape + (L + 1,), dtype=complex)
    vals[..., 0] = 1.0
    np.subtract(steps, h, out=vals[..., 1:])
    vals[..., 1:] /= shifted + h
    np.multiply.accumulate(vals, axis=-1, out=vals)
    vals *= seed
    return vals
