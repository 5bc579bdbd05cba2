"""The spherical principal series acting on sampled functions.

pi_lambda(g) f (x) = kappa(g^{-1}, x)^{rho + lambda} f(g^{-1} x).

The pullback f(g^{-1} x) is evaluated by harmonic synthesis at the mapped
nodes, never by interpolation, so for band-limited f the only error in any
identity of the action (checked in `verify`) is quadrature truncation.
The conformal factor is a positive real number, so complex powers are
taken on the principal branch with no ambiguity.
"""

from __future__ import annotations

import numpy as np

from .lorentz import ConformalMap, Dimension, act, conformal_factor, inverse
from .sphgrid import (GridFunction, HarmonicCoeffs, rounding_truncated, sht_forward,
                      synth_at_points)


def pi_act(dim: Dimension, lam: complex, g: ConformalMap,
           f: GridFunction) -> GridFunction:
    """Apply pi_lambda(g) to a sampled function (n = 3 grids).

    For inputs that are truly sampled, such as a field already moved by
    some pi_lambda(g): the samples are analyzed to the grid's full degree,
    and the coefficients are synthesized at the moved points up to the
    last degree that lies above the rounding of that synthesis
    (`rounding_truncated`); a full-band field keeps every degree.  A field
    known by its coefficients goes to pi_act_coeffs."""
    coeffs = rounding_truncated(sht_forward(f))
    return pi_act_coeffs(dim, lam, g, coeffs, f.grid)


def pi_act_coeffs(dim: Dimension, lam: complex, g: ConformalMap,
                  coeffs: HarmonicCoeffs, grid) -> GridFunction:
    """pi_lambda(g) applied to a band-limited field given by its
    coefficients, sampled on the grid.

    Use it whenever the coefficients are known: it synthesizes exactly
    the coefficients it is given, while pi_act on the same field's
    samples re-analyzes them to the grid's degree and keeps what lies
    above rounding.  The two agree to rounding."""
    return GridFunction(grid, pi_pointwise(dim, lam, g, coeffs)(grid.points()))


def pi_pointwise(dim: Dimension, lam: complex, g: ConformalMap,
                 coeffs: HarmonicCoeffs):
    """pi_lambda(g) applied to a band-limited function, returned as a
    callable on point arrays.  Pointwise exact (synthesis at the mapped
    points), so transformed fields can be fed to quadratures on any grid
    without an intermediate band-limit."""
    if dim.n != 3:
        raise ValueError(f"grid representations are implemented for n = 3, got n = {dim.n}")
    ginv = inverse(g)
    lam = complex(lam)

    def field(points):
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        kappa = conformal_factor(ginv, pts)
        vals = kappa ** (dim.rho + lam) * synth_at_points(coeffs, act(ginv, pts))
        return vals.reshape(np.asarray(points).shape[:-1])

    return field


def field_from_coeffs(coeffs: HarmonicCoeffs):
    """Plain band-limited field as a callable on point arrays."""
    return lambda points: synth_at_points(coeffs, points)
