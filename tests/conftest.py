import numpy as np
import pytest
import scipy.special as sp

from confsphere.lorentz import Dimension
from confsphere import sphgrid


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


def pair_bilinear(a, b):
    """The bilinear pairing int f g dsigma in coefficient form:
    sum_lm (-1)^m a[l, m] b[l, -m]."""
    return complex(sphgrid.degree_pairings(a, b).sum())
