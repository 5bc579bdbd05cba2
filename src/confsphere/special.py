"""Special functions and 1-D quadrature primitives.

The complex gamma function lives here so that closed-form reference values
never depend on the quadrature machinery they are checked against.  A
Gamma quotient whose arguments differ by an integer is the exact rational
`pochhammer`, which also takes an array of arguments; every other complex
Gamma goes through one scalar log-space Lanczos formula and reflection,
`_log_gamma`.  The tanh-sinh nodes are built on first use, not at import.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

# Lanczos approximation, g = 7, 9 coefficients.  Relative error is below
# 1e-13 on the right half plane; the left half plane goes through the
# reflection formula.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos(z: complex):
    """(t, x) of the Lanczos formula Gamma(z + 1) = sqrt(2 pi) t^{z+1/2} e^{-t} x."""
    x = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        x += c / (z + i)
    return z + _LANCZOS_G + 0.5, x


def _is_pole(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _check_pole(z: complex) -> None:
    if _is_pole(z):
        raise ZeroDivisionError(f"gamma pole at z={z}")


def complex_gamma(z):
    """Gamma function for complex (or real) scalar argument; raises
    ZeroDivisionError at the poles z = 0, -1, -2, ..."""
    return cmath.exp(_log_gamma(complex(z)))


def _log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z), up to a multiple of 2 pi i: the Lanczos
    formula and reflection in log space, so large arguments do not
    overflow.  Raises ZeroDivisionError at the poles z = 0, -1, -2, ..."""
    if z.real < 0.5:
        _check_pole(z)
        return (math.log(math.pi) - cmath.log(cmath.sin(math.pi * z))
                - _log_gamma(1.0 - z))
    z -= 1.0
    t, x = _lanczos(z)
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * cmath.log(t) - t + cmath.log(x)


def gamma_ratio(num, den):
    """prod Gamma(num_i) / prod Gamma(den_j) for scalar sequences, summed
    in log space and exponentiated once.

    At exact Gamma poles: 0 where the denominator has more of them than
    the numerator (the ratio's limit), ZeroDivisionError where it has as
    many or fewer.  Poles are counted only once a log-Gamma has raised."""
    try:
        log = (sum(_log_gamma(complex(a)) for a in num)
               - sum(_log_gamma(complex(b)) for b in den))
    except ZeroDivisionError:
        if (sum(_is_pole(complex(b)) for b in den)
                > sum(_is_pole(complex(a)) for a in num)):
            return 0j
        raise
    return cmath.exp(log)


def as_complex(x):
    """complex(x) for a number; a complex copy for an ndarray."""
    return x.astype(complex) if isinstance(x, np.ndarray) else complex(x)


def pochhammer(a, m: int):
    """(a)_m = Gamma(a + m) / Gamma(a) for an integer m of either sign, as
    an exact product with no Gamma evaluated: a (a+1) ... (a+m-1) for
    m >= 0, and 1 / ((a+m) (a+m+1) ... (a-1)) for m < 0.

    Where Gamma(a) has a pole as well, the product is the finite limit.
    A vanishing divisor (m < 0) raises ZeroDivisionError naming the pole
    a + m of Gamma(a + m), as complex_gamma does.  For an ndarray `a` the
    product is taken entrywise, and a vanishing divisor anywhere raises as
    the scalar call at its first such entry does."""
    array = isinstance(a, np.ndarray)
    a = a.astype(complex) if array else complex(a)
    out = np.ones_like(a) if array else 1.0 + 0j
    for j in range(min(m, 0), max(m, 0)):
        out *= a + j
    if m >= 0:
        return out
    if array:
        if not out.all():
            _check_pole(complex(a[out == 0][0]) + m)
    elif out == 0:
        _check_pole(a + m)
    return 1.0 / out


def _tanhsinh_nodes(level: int):
    """Abscissas for tanh-sinh quadrature on (0, 1), t in [-5, 5] at
    step 5 / 2^level.

    Returns (u, log_u, one_minus_u, w) with u = (1+tanh(pi/2 sinh t))/2
    evaluated stably, so that u stays positive and log u is exact far into
    the corner.  Integrable endpoint singularities (including complex
    powers of u) are handled by construction.
    """
    h = 5.0 / 2**level
    k = np.arange(-(2**level) * 5, (2**level) * 5 + 1)
    t = k * h
    q = 0.5 * np.pi * np.sinh(t)
    # u = sigmoid(2q); 1-u = sigmoid(-2q)
    u = np.empty_like(q)
    pos = q >= 0
    u[pos] = 1.0 / (1.0 + np.exp(-2.0 * q[pos]))
    u[~pos] = np.exp(2.0 * q[~pos]) / (1.0 + np.exp(2.0 * q[~pos]))
    log_u = np.where(pos, -np.log1p(np.exp(-2.0 * np.maximum(q, 0))),
                     2.0 * q - np.log1p(np.exp(2.0 * np.minimum(q, 0))))
    one_minus_u = np.empty_like(q)
    one_minus_u[pos] = np.exp(-2.0 * q[pos]) / (1.0 + np.exp(-2.0 * q[pos]))
    one_minus_u[~pos] = 1.0 / (1.0 + np.exp(2.0 * q[~pos]))
    # 1/cosh(q)^2 in log form so the far tail underflows to 0 quietly
    log_sech2 = 2.0 * (math.log(2.0) - np.abs(q) - np.log1p(np.exp(-2.0 * np.abs(q))))
    w = h * 0.5 * np.pi * np.cosh(t) * np.exp(log_sech2) * 0.5
    keep = (w > 1e-290) & (u > 1e-280) & (one_minus_u > 1e-280)
    return u[keep], log_u[keep], one_minus_u[keep], w[keep]


@functools.cache
def _tanhsinh_levels() -> tuple:     # the nodes of levels 4..11, built on first use
    return tuple(_tanhsinh_nodes(level) for level in range(4, 12))


def tanhsinh_unit(f, rtol: float = 1e-12):
    """Integrate f over (0, 1) by tanh-sinh level doubling, levels 4..11.

    f(u, log_u, one_minus_u) may return a vector (one integrand per entry);
    integration is performed per component.  Convergence is declared when
    successive levels agree to rtol relative to the largest component.
    """
    prev = None
    for u, log_u, omu, w in _tanhsinh_levels():
        vals = np.asarray(f(u, log_u, omu))
        est = vals @ w if vals.ndim > 1 else np.dot(vals, w)
        if prev is not None:
            scale = np.max(np.abs(est)) + 1e-300
            if np.max(np.abs(est - prev)) <= rtol * scale:
                return est
        prev = est
    return prev


def ultraspherical_table(nu: float, L: int, t: np.ndarray) -> np.ndarray:
    """Values R_l(t), l = 0..L, of the degree-l ultraspherical polynomial
    with parameter nu, normalized so that R_l(1) = 1.

    Recurrence: R_l = [2(l+nu-1) t R_{l-1} - (l-1) R_{l-2}] / (2nu + l - 1).
    For nu = 1/2 these are the Legendre polynomials.  |R_l| <= 1 on [-1, 1],
    so the recurrence is stable.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((L + 1,) + t.shape)
    out[0] = 1.0
    if L >= 1:
        out[1] = t
    for l in range(2, L + 1):
        out[l] = (2.0 * (l + nu - 1.0) * t * out[l - 1]
                  - (l - 1.0) * out[l - 2]) / (2.0 * nu + l - 1.0)
    return out
