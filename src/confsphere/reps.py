"""The spherical principal series acting on sampled functions.

pi_lambda(g) f (x) = kappa(g^{-1}, x)^{rho + lambda} f(g^{-1} x).

The pullback f(g^{-1} x) is evaluated by harmonic synthesis at the mapped
nodes, never by interpolation, so for band-limited f the only error in any
identity below is quadrature truncation.  The conformal factor is a
positive real number, so complex powers are taken on the principal branch
with no ambiguity.
"""

from __future__ import annotations

import numpy as np

from .lorentz import ConformalMap, Dimension, act, base_point, conformal_factor, inverse
from .sphgrid import (GridFunction, HarmonicCoeffs, quad, sampled_value_at_pole,
                      sht_forward, sht_inverse, synth_at_points)


def pi_act(dim: Dimension, lam: complex, g: ConformalMap,
           f: GridFunction) -> GridFunction:
    """Apply pi_lambda(g) to a sampled function (n = 3 grids).

    For inputs that are truly sampled, such as a field already moved by
    some pi_lambda(g): the samples are analyzed to the grid's full degree
    and every one of those coefficients is synthesized at the moved
    points.  A field known by its coefficients goes to pi_act_coeffs."""
    if dim.n != 3:
        raise ValueError("grid representations are implemented for n = 3")
    coeffs = sht_forward(f)
    return pi_act_coeffs(dim, lam, g, coeffs, f.grid)


def pi_act_coeffs(dim: Dimension, lam: complex, g: ConformalMap,
                  coeffs: HarmonicCoeffs, grid) -> GridFunction:
    """pi_lambda(g) applied to a band-limited field given by its
    coefficients, sampled on the grid.

    Use it whenever the coefficients are known: it synthesizes only up to
    their degree, while pi_act on the same field's samples re-analyzes
    them to the grid's degree and synthesizes the rounding noise above
    the band limit as well.  The two agree to rounding."""
    return GridFunction(grid, pi_pointwise(dim, lam, g, coeffs)(grid.points()))


def pi_pointwise(dim: Dimension, lam: complex, g: ConformalMap,
                 coeffs: HarmonicCoeffs):
    """pi_lambda(g) applied to a band-limited function, returned as a
    callable on point arrays.  Pointwise exact (synthesis at the mapped
    points), so transformed fields can be fed to quadratures on any grid
    without an intermediate band-limit."""
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


def duality_defect(dim: Dimension, lam: complex, g: ConformalMap,
                   f: HarmonicCoeffs, phi: HarmonicCoeffs, grid) -> float:
    """|int pi_lambda(g)f . phi - int f . pi_{-lambda}(g^{-1}) phi| on the grid.

    Vanishes identically for the continuum pairing; what remains is the
    quadrature error of the two pullbacks.
    """
    f_vals = sht_inverse(f.pad(grid.L), grid).values
    phi_vals = sht_inverse(phi.pad(grid.L), grid).values
    lhs = quad(GridFunction(grid, pi_act_coeffs(dim, lam, g, f, grid).values
                            * phi_vals))
    rhs = quad(GridFunction(grid, f_vals * pi_act_coeffs(
        dim, -complex(lam), inverse(g), phi, grid).values))
    return abs(lhs - rhs)


def dirac_pair(dim: Dimension, lam: complex, g: ConformalMap,
               phi: HarmonicCoeffs) -> complex:
    """Pairing of the transformed base-point Dirac mass with phi:
    kappa(g, e)^{rho - lambda} phi(g(e)), e the base point."""
    e = base_point(dim)
    kappa = conformal_factor(g, e)
    target = act(g, e)
    return kappa ** (dim.rho - complex(lam)) * complex(synth_at_points(phi, target))


def dirac_pair_dual(dim: Dimension, lam: complex, g: ConformalMap,
                    phi: HarmonicCoeffs, grid) -> complex:
    """The same pairing through the distributional route: apply
    pi_{-lambda}(g^{-1}) to phi on the grid and read off the value at the
    base point of its degree-grid.L projection.  Independent of the closed
    form in dirac_pair except for the group arithmetic itself."""
    moved = pi_act_coeffs(dim, -complex(lam), inverse(g), phi, grid)
    return sampled_value_at_pole(moved)
