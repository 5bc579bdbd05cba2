"""The identity component of the Lorentz group O(1, n) and its projective
(conformal) action on the unit sphere S^{n-1}.

A point x on the sphere is identified with the isotropic line through
(1, x); a group element g maps it to (1, g(x)) after dividing by the
0-component.  The conformal factor of g at x is the reciprocal of that
0-component, which reproduces the scaling of tangent vectors and of
chordal distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MATRIX_TOL = 1e-10


@dataclass(frozen=True)
class Dimension:
    """Ambient dimension n; the sphere is S^{n-1} in R^n."""

    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")

    @property
    def rho(self) -> float:
        return (self.n - 1) / 2.0


def _minkowski(n: int) -> np.ndarray:
    j = -np.eye(n + 1)
    j[0, 0] = 1.0
    return j


@dataclass(frozen=True)
class ConformalMap:
    """Element of the identity component, stored as an (n+1)x(n+1) matrix
    preserving the form y0^2 - y1^2 - ... - yn^2.  Validated once, on
    construction."""

    m: np.ndarray
    dim: Dimension = field(compare=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        n = self.dim.n
        if m.shape != (n + 1, n + 1):
            raise ValueError(f"matrix must be {(n + 1, n + 1)}, got {m.shape}")
        j = _minkowski(n)
        defect = np.abs(m.T @ j @ m - j).max()
        if defect > MATRIX_TOL:
            raise ValueError(f"not a Lorentz matrix (J-defect {defect:.2e})")
        if abs(np.linalg.det(m) - 1.0) > MATRIX_TOL:
            raise ValueError("determinant must be +1")
        if m[0, 0] <= 0:
            raise ValueError("not in the identity component (m[0,0] <= 0)")
        object.__setattr__(self, "m", m)


def identity(dim: Dimension) -> ConformalMap:
    return ConformalMap(np.eye(dim.n + 1), dim)


def boost(t: float, dim: Dimension) -> ConformalMap:
    """One-parameter boost along the first sphere axis; fixes the base
    point (1, 0, ..., 0)."""
    m = np.eye(dim.n + 1)
    c, s = np.cosh(t), np.sinh(t)
    m[0, 0] = m[1, 1] = c
    m[0, 1] = m[1, 0] = s
    return ConformalMap(m, dim)


def translation(xi: np.ndarray, dim: Dimension) -> ConformalMap:
    """Unipotent element attached to xi in R^{n-1}; these fix the base
    point and make up the nilpotent factor of its stabilizer."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (dim.n - 1,):
        raise ValueError(f"xi must have length {dim.n - 1}")
    q = 0.5 * float(xi @ xi)
    m = np.eye(dim.n + 1)
    m[0, 0] = 1.0 + q
    m[0, 1] = -q
    m[1, 0] = q
    m[1, 1] = 1.0 - q
    m[0, 2:] = xi
    m[1, 2:] = xi
    m[2:, 0] = xi
    m[2:, 1] = -xi
    return ConformalMap(m, dim)


def rotation(k: np.ndarray, dim: Dimension) -> ConformalMap:
    """Block embedding diag(1, k) of k in SO(n)."""
    k = np.asarray(k, dtype=float)
    if k.shape != (dim.n, dim.n):
        raise ValueError(f"rotation must be {dim.n}x{dim.n}")
    if np.abs(k.T @ k - np.eye(dim.n)).max() > MATRIX_TOL or np.linalg.det(k) < 0:
        raise ValueError("input is not a rotation matrix")
    m = np.eye(dim.n + 1)
    m[1:, 1:] = k
    return ConformalMap(m, dim)


def compose(g1: ConformalMap, g2: ConformalMap) -> ConformalMap:
    return ConformalMap(g1.m @ g2.m, g1.dim)


def inverse(g: ConformalMap) -> ConformalMap:
    j = _minkowski(g.dim.n)
    return ConformalMap(j @ g.m.T @ j, g.dim)


def _lift_apply(g: ConformalMap, x: np.ndarray) -> np.ndarray:
    """g . (1, x) for an array of points of shape (..., n)."""
    lifted = np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)
    return lifted @ g.m.T


def act(g: ConformalMap, x: np.ndarray) -> np.ndarray:
    """Projective action: the sphere point with (1, g(x)) ~ g . (1, x).

    Accepts a single point or an array of shape (..., n); the 0-component
    of the image is positive everywhere on the identity component.
    """
    x = np.asarray(x, dtype=float)
    v = _lift_apply(g, x)
    v0 = v[..., 0]
    if np.any(v0 <= 0):
        raise FloatingPointError("degenerate normalization in group action")
    return v[..., 1:] / v0[..., None]


def conformal_factor(g: ConformalMap, x: np.ndarray):
    """Scaling factor of g at x: reciprocal of (g . (1, x))_0.

    Positive and smooth; equal to 1 for rotations, to
    (cosh t + x1 sinh t)^{-1} for the axis boost, and multiplicative
    along compositions (cocycle law).
    """
    x = np.asarray(x, dtype=float)
    v0 = _lift_apply(g, x)[..., 0]
    if np.any(v0 <= 0):
        raise FloatingPointError("degenerate normalization in conformal factor")
    out = 1.0 / v0
    return float(out) if out.ndim == 0 else out


def random_rotation(dim: Dimension, rng: np.random.Generator) -> ConformalMap:
    a = rng.normal(size=(dim.n, dim.n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return rotation(q, dim)


def random_element(dim: Dimension, seed: int, max_boost: float = 1.0) -> ConformalMap:
    """Reproducible generic element: a word of length <= 4 alternating
    random rotations and axis boosts with |t| <= max_boost."""
    rng = np.random.default_rng(seed)
    g = identity(dim)
    length = int(rng.integers(2, 5))
    for i in range(length):
        if i % 2 == 0:
            g = compose(g, random_rotation(dim, rng))
        else:
            t = float(rng.uniform(-max_boost, max_boost))
            g = compose(g, boost(t, dim))
    return g


def base_point(dim: Dimension) -> np.ndarray:
    e = np.zeros(dim.n)
    e[0] = 1.0
    return e
