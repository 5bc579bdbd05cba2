"""Reference values computed without confsphere, for the correctness gates.

Only numpy and scipy.special are used here, so a defect in the library
cannot hide in its own oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.special import sph_harm_y


def kernel_eigenvalues_s2(s: complex, L: int) -> np.ndarray:
    """Funk-Hecke eigenvalues e_l(s), l = 0..L, of |x - y|^s on S^2, in
    closed form (Beckner 1993, d = 2):

        e_0 = 2^{s+2} pi / (s/2 + 1),  e_l = e_{l-1} (l - 1 - s/2) / (l + 1 + s/2).

    Rational in s, so it is also the meromorphic continuation below the
    integrability threshold."""
    s = complex(s)
    out = np.empty(L + 1, dtype=complex)
    out[0] = 2.0 ** (s + 2.0) * np.pi / (s / 2.0 + 1.0)
    for l in range(1, L + 1):
        out[l] = out[l - 1] * (l - 1.0 - s / 2.0) / (l + 1.0 + s / 2.0)
    return out


def zonal_pairing_s2(s: complex, c: np.ndarray) -> tuple[complex, float]:
    """(|e - x|^s, f) for f with coefficient array c[l, m + L]: only the
    m = 0 column pairs with the zonal kernel.  Returns the value and the
    sum of the magnitudes of its terms (the scale of the value)."""
    L = c.shape[0] - 1
    l = np.arange(L + 1)
    terms = kernel_eigenvalues_s2(s, L) * c[:, L] * np.sqrt((2 * l + 1) / (4.0 * np.pi))
    return complex(terms.sum()), float(np.abs(terms).sum())


def principal_series_at(m: np.ndarray, lam: complex, c: np.ndarray,
                        x: np.ndarray) -> np.ndarray:
    """pi_lam(g) f at sphere points x (k, 3) for the Lorentz matrix m of g
    and f = sum c[l, m + L] Y_lm, with the polar axis on the first
    coordinate and Condon-Shortley harmonics:

        kappa(g^{-1}, x)^{1 + lam} f(g^{-1} x),  rho = 1 on S^2.
    """
    j = np.diag([1.0, -1.0, -1.0, -1.0])
    minv = j @ m.T @ j
    lifted = np.concatenate([np.ones((x.shape[0], 1)), x], axis=1) @ minv.T
    kappa = 1.0 / lifted[:, 0]
    y = lifted[:, 1:] * kappa[:, None]
    theta = np.arccos(np.clip(y[:, 0], -1.0, 1.0))
    phi = np.arctan2(y[:, 2], y[:, 1])
    L = c.shape[0] - 1
    ll, mm = np.meshgrid(np.arange(L + 1), np.arange(-L, L + 1), indexing="ij")
    keep = np.abs(mm) <= ll
    ll, mm, coef = ll[keep], mm[keep], c[keep]
    ylm = sph_harm_y(ll[:, None], mm[:, None], theta[None, :], phi[None, :])
    return kappa ** (1.0 + complex(lam)) * (coef @ ylm)
