import math

import numpy as np
import pytest
import scipy.special as sp

from confsphere.lorentz import Dimension
from confsphere import sphgrid
from confsphere.special import gamma_ratio, pochhammer


@pytest.fixture(scope="session")
def dim3():
    return Dimension(3)


@pytest.fixture(scope="session")
def grid16():
    return sphgrid.make_grid(16)


@pytest.fixture(scope="session")
def grid32():
    return sphgrid.make_grid(32)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_unit(rng, count, n=3):
    pts = rng.normal(size=(count, n))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def rounding_tol(c):
    """Float64 rounding scale of a degree-L synthesis of c: eps times the
    L + 1 recurrence steps times the sum of the term bounds
    |c_lm| max|Y_lm| = |c_lm| sqrt((2l+1)/(4 pi))."""
    l = np.arange(c.L + 1)
    terms = np.abs(c.c) * np.sqrt((2 * l + 1) / (4 * np.pi))[:, None]
    return np.finfo(float).eps * (c.L + 1) * terms.sum()


def knapp_stein_oracle(n, s, L):
    """Beckner's closed form from scipy, l = 0..L:
    2^{d+s} pi^{d/2} Gamma((d+s)/2) (-s/2)_l / Gamma(l + d + s/2), d = n-1.
    Real s goes through poch and rgamma, so the exact zeros come out
    exact; complex s through loggamma, which by itself drifts to ~3e-13
    relative at l = 128 (against mpmath), so use it only up to l ~ 32."""
    d = n - 1
    l = np.arange(L + 1)
    pref = 2.0 ** (d + s) * np.pi ** (d / 2.0) * sp.gamma((d + s) / 2.0)
    h = s / 2.0
    if np.isrealobj(s):
        return pref * sp.poch(-h, l) * sp.rgamma(l + d + h)
    return pref * sp.rgamma(-h) * np.exp(sp.loggamma(l - h) - sp.loggamma(l + d + h))


def knapp_stein_formula(dim, alpha, L):
    """knapp_stein_multipliers with every step, weight and product built
    per call, in the same operations and operand order: the bitwise
    reference for its cached per-degree tables."""
    d = dim.n - 1.0
    h = (complex(alpha) - dim.rho) / 2.0
    l0 = 0
    if h.imag == 0.0 and h.real == math.floor(h.real) and d + h.real <= 0.0:
        l0 = int(1.0 - d - h.real)
    if l0 == 0 and dim.n % 2:
        ratio = pochhammer(d + h, (1 - dim.n) // 2)
    else:
        num, den = [d / 2.0 + h], [l0 + d + h]
        if l0 > 0:
            num.append(l0 - h)
            den.append(-h)
        ratio = gamma_ratio(num, den)
    seed = 2.0 ** (d + 2.0 * h) * math.pi ** (d / 2.0) * ratio
    vals = np.zeros(L + 1, dtype=complex)
    if l0 <= L:
        l = np.arange(l0 + 1, L + 1)
        vals[l0:] = seed * np.cumprod(np.concatenate(
            ([1.0], (l - 1.0 - h) / (l - 1.0 + d + h))))
    return vals


def outcome(fn, *args):
    """fn(*args) as raw bytes, or the type of what it raised: equal
    outcomes are bitwise-equal values or the same exception."""
    try:
        return np.asarray(fn(*args)).tobytes()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def pair_bilinear(a, b):
    """The bilinear pairing int f g dsigma in coefficient form:
    sum_lm (-1)^m a[l, m] b[l, -m]."""
    return complex(sphgrid.degree_pairings(a, b).sum())
