"""Quadrature grids and spherical-harmonic analysis on S^2, plus 1-D zonal
integration for S^{n-1} with n >= 3.

Conventions (fixed throughout the package):
  * the polar axis is the FIRST coordinate axis, so a point is
    x = (cos theta, sin theta cos phi, sin theta sin phi);
  * harmonics are complex, orthonormal, with the Condon-Shortley phase;
  * the measure is the plain surface measure, total mass 4 pi.

Grids are Gauss-Legendre in cos theta times a uniform azimuth, which makes
quadrature exact for band-limited integrands and behaves well against the
integrable endpoint singularities of the two-point kernels used elsewhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .lorentz import Dimension
from .special import tanhsinh_unit, ultraspherical_table

MAX_DEGREE = 512
# doubles in the Legendre block that synth_at_points fills per order (1 MB)
SYNTH_BLOCK = 1 << 17


# ---------------------------------------------------------------------------
# normalized associated Legendre tables


def plm_index(l, m, L: int):
    """Row of (l, m), 0 <= m <= l <= L, in a degree-L Legendre table:
    order m's block of rows l = m..L starts at m(2L+3-m)/2.  Works
    elementwise on integer arrays."""
    return m * (2 * L + 3 - m) // 2 + l - m


def _scalars(v: np.ndarray) -> list:
    """The entries of a 1-D array as 0-d arrays."""
    return [v[j, ...] for j in range(v.size)]


def _legendre_orders(L: int, u: np.ndarray, block: np.ndarray):
    """The normalized associated Legendre recurrence, order by order: for
    m = 0..L, fills the leading L+1-m rows of block (shape (L+1, len(u)))
    with p_lm(u), l = m..L, and yields (m, that view).  The next order
    overwrites it.  Stable for the degrees used here (L <= MAX_DEGREE)."""
    s = np.sqrt(np.maximum(1.0 - u * u, 0.0))
    tmp = np.empty_like(s)
    rows = list(block)
    rows[0][...] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(L + 1):
        if m > 0:
            rows[0] *= -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s
        if m < L:
            np.multiply(math.sqrt(2.0 * m + 3.0) * u, rows[0], rows[1])
        # rows l = m + k, k >= 2; their coefficients enter as 0-d arrays,
        # the cheapest operand for a ufunc whose output is given
        l = np.arange(m + 2.0, L + 1.0)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        for k, ak, bk in zip(range(2, L + 1 - m), _scalars(a), _scalars(b)):
            row = rows[k]
            np.multiply(u, rows[k - 1], row)
            np.multiply(bk, rows[k - 2], tmp)
            np.subtract(row, tmp, row)
            np.multiply(row, ak, row)
        yield m, block[: L + 1 - m]


def legendre_table(L: int, u: np.ndarray) -> np.ndarray:
    """Packed table of fully normalized associated Legendre values
    p_lm(u) for 0 <= m <= l <= L, including the 1/sqrt(4 pi) factor and
    the Condon-Shortley sign, so that Y_lm = p_lm(cos theta) e^{i m phi}.

    Shape (npairs, *u.shape), row plm_index(l, m, L), stored by order:
    the rows l = m..L of order m are one contiguous block, so the table
    of a lower degree L' is the leading L'+1-m rows of each block.

    Built degree by degree: the values of degree l (m = 0..l) are one
    slice, computed from the slices of degrees l-1 and l-2 by whole-slice
    ufuncs over m, L steps in all, and scattered into their blocks; only
    those three slices are held beside the table.  Each value goes
    through the same operations, in the same order, as in
    _legendre_orders, so the two agree bitwise.
    """
    u = np.asarray(u, dtype=float)
    x = u.reshape(-1)
    s = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    tab = np.empty(((L + 1) * (L + 2) // 2, x.size))
    # the table rows of (l, m), degree by degree: degree l's are dest[k: k+l+1]
    dest = plm_index(*np.tril_indices(L + 1), L)
    deg = np.empty((3, L + 1, x.size))      # degrees l, l-1, l-2 in turn
    tab[0] = deg[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for l in range(1, L + 1):
        row, prev, prev2 = deg[l % 3], deg[(l - 1) % 3], deg[(l - 2) % 3]
        if l >= 2:
            # m = 0..l-2: a (u p_{l-1,m} - b p_{l-2,m})
            m = np.arange(l - 1.0)[:, None]
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            out = row[: l - 1]
            np.multiply(x, prev[: l - 1], out)
            out -= b * prev2[: l - 1]
            out *= a
        row[l - 1] = math.sqrt(2.0 * l + 1.0) * x * prev[l - 1]
        row[l] = -math.sqrt((2.0 * l + 1.0) / (2.0 * l)) * s * prev[l - 1]
        k = l * (l + 1) // 2
        tab[dest[k: k + l + 1]] = row[: l + 1]
    return tab.reshape(tab.shape[:1] + u.shape)


# ---------------------------------------------------------------------------
# grids and sampled functions


@dataclass(frozen=True, eq=False)
class Grid:
    """Product quadrature grid on S^2 supporting degree L exactly.

    Its transform plan, the Legendre table and the phase matrix at degree
    L, is built once, on first use, and is read-only; a transform of a
    lower degree reads part of it."""

    L: int
    u: np.ndarray          # Gauss-Legendre nodes for cos theta, ascending
    w: np.ndarray          # matching weights (sum to 2)
    phi: np.ndarray        # uniform azimuth nodes, possibly offset
    phi_offset: float

    @property
    def n_theta(self) -> int:
        return self.u.size

    @property
    def n_phi(self) -> int:
        return self.phi.size

    @property
    def shape(self):
        return (self.n_theta, self.n_phi)

    @property
    def dphi(self) -> float:
        return 2.0 * math.pi / self.n_phi

    def weights_2d(self) -> np.ndarray:
        return self.w[:, None] * np.full(self.n_phi, self.dphi)[None, :]

    def points(self) -> np.ndarray:
        """Cartesian nodes, shape (n_theta, n_phi, 3)."""
        s = np.sqrt(np.maximum(1.0 - self.u**2, 0.0))
        x1 = np.broadcast_to(self.u[:, None], self.shape)
        x2 = s[:, None] * np.cos(self.phi)[None, :]
        x3 = s[:, None] * np.sin(self.phi)[None, :]
        return np.stack([x1, x2, x3], axis=-1)

    def flat_points(self) -> np.ndarray:
        return self.points().reshape(-1, 3)

    def flat_weights(self) -> np.ndarray:
        return self.weights_2d().reshape(-1)

    @cached_property
    def legendre(self) -> np.ndarray:
        """legendre_table(L, u) at the grid's own degree, built on first
        use (read-only); a transform of degree L' <= L reads the leading
        L'+1-m rows of each order's block."""
        tab = legendre_table(self.L, self.u)
        tab.flags.writeable = False
        return tab

    @cached_property
    def phase(self) -> np.ndarray:
        """_phase_matrix(self, L), exp(-i m phi_j) for m = -L..L, built on
        first use (read-only); degree L' <= L reads its rows L-L'..L+L'."""
        ph = _phase_matrix(self, self.L)
        ph.flags.writeable = False
        return ph


def make_grid(L: int | None = None, n_theta: int | None = None,
              n_phi: int | None = None, phi_offset: float = 0.0) -> Grid:
    """Build a grid.  Either give the target degree L (minimal exact sizes
    n_theta = L+1, n_phi = 2L+1 are used) or explicit sizes (then L is the
    largest degree the sizes support)."""
    if L is None:
        if n_theta is None or n_phi is None:
            raise ValueError("give either L or both grid sizes")
        L = min(n_theta - 1, (n_phi - 1) // 2)
        if L < 1:
            raise ValueError(f"grid sizes n_theta={n_theta}, n_phi={n_phi} resolve no "
                             "degree: need L >= 1")
    if L < 1:
        raise ValueError(f"L={L}: need L >= 1")
    if L > MAX_DEGREE:
        raise ValueError(f"L={L} exceeds the memory budget (max {MAX_DEGREE})")
    n_theta = n_theta if n_theta is not None else L + 1
    n_phi = n_phi if n_phi is not None else 2 * L + 1
    if n_theta < L + 1 or n_phi < 2 * L + 1:
        raise ValueError("grid sizes too small for the requested degree")
    u, w = np.polynomial.legendre.leggauss(n_theta)
    phi = phi_offset + 2.0 * math.pi * np.arange(n_phi) / n_phi
    return Grid(L=L, u=u, w=w, phi=phi, phi_offset=phi_offset)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on a grid, shape (n_theta, n_phi)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"values must have shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function contains non-finite values")
        object.__setattr__(self, "values", v.astype(complex))


def quad(f: GridFunction) -> complex:
    """Surface integral of f.  Uses exact (fsum) accumulation so that the
    result does not depend on evaluation order."""
    terms = (f.values * f.grid.weights_2d()).reshape(-1)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def norm_l2(f: GridFunction) -> float:
    return math.sqrt(abs(quad(GridFunction(f.grid, np.abs(f.values) ** 2))))


# ---------------------------------------------------------------------------
# harmonic coefficients


@dataclass(eq=False)
class HarmonicCoeffs:
    """Coefficients c[l, m] for 0 <= l <= L, |m| <= l, stored in an
    (L+1, 2L+1) array with column index m + L.

    Treat instances as frozen once built (set() is for construction);
    every operation in the package returns a fresh instance, so shared
    coefficient vectors are safe to read concurrently."""

    L: int
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        if c.shape != (self.L + 1, 2 * self.L + 1):
            raise ValueError(f"coefficient array must be {(self.L + 1, 2 * self.L + 1)}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients contain non-finite values")
        self.c = c

    def _check_index(self, l: int, m: int) -> None:
        if abs(m) > l or l > self.L:
            raise IndexError(f"(l, m) = ({l}, {m}) out of range")

    def get(self, l: int, m: int) -> complex:
        self._check_index(l, m)
        return complex(self.c[l, m + self.L])

    def set(self, l: int, m: int, val: complex) -> None:
        self._check_index(l, m)
        self.c[l, m + self.L] = val

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.c))

    def pad(self, L_new: int) -> "HarmonicCoeffs":
        if L_new < self.L:
            raise ValueError("pad target must not truncate")
        out = coeffs_zero(L_new)
        out.c[: self.L + 1, L_new - self.L: L_new + self.L + 1] = self.c
        return out


def coeffs_zero(L: int) -> HarmonicCoeffs:
    return HarmonicCoeffs(L, np.zeros((L + 1, 2 * L + 1), dtype=complex))


def coeffs_constant(value: complex, L: int = 0) -> HarmonicCoeffs:
    """Coefficients of the constant function f = value."""
    out = coeffs_zero(L)
    out.set(0, 0, value * math.sqrt(4.0 * math.pi))
    return out


def _lm_mask(L: int) -> np.ndarray:
    """Where |m| <= l in the padded (L+1, 2L+1) layout; its row-major
    order is the (l, m) order l = 0..L, m = -l..l."""
    l = np.arange(L + 1)[:, None]
    return np.abs(np.arange(-L, L + 1))[None, :] <= l


def random_coeffs(L: int, seed: int, real_field: bool = False) -> HarmonicCoeffs:
    """Reproducible random band-limited coefficients; real_field enforces
    the conjugation symmetry that makes the synthesized function
    real-valued."""
    draw = np.random.default_rng(seed).normal(size=((L + 1) ** 2, 2))
    c = np.zeros((L + 1, 2 * L + 1), dtype=complex)
    c[_lm_mask(L)] = draw[:, 0] + 1j * draw[:, 1]
    if real_field:
        c[:, L] = c[:, L].real
        m = np.arange(1, L + 1)
        c[:, L - m] = (-1.0) ** m * np.conj(c[:, L + m])
    return HarmonicCoeffs(L, c)


# ---------------------------------------------------------------------------
# transforms: one batched pair on the padded layout.  A batch holds B
# functions as columns, sampled values in flat node order (n_nodes, B) or
# coefficients as rows HarmonicCoeffs.c.reshape(-1) ((L+1)(2L+1), B).


def _phase_matrix(grid: Grid, L: int) -> np.ndarray:
    """exp(-i m phi_j) for m = -L..L, shape (2L+1, n_phi)."""
    m = np.arange(-L, L + 1)
    return np.exp(-1j * np.outer(m, grid.phi))


def _phases(grid: Grid, L: int) -> np.ndarray:
    """exp(-i m phi_j), m = -L..L: rows of the grid's phase matrix (a
    fresh matrix only when synthesizing above the grid's degree)."""
    if L > grid.L:
        return _phase_matrix(grid, L)
    return grid.phase[grid.L - L: grid.L + L + 1]


def _order_blocks(grid: Grid, L: int):
    """Yields, per order m = 0..L, the rows p_lm(u_i), l = m..L: a view of
    the leading rows of block m of the grid's table (of a fresh table
    only when synthesizing above the grid's degree)."""
    top = max(L, grid.L)
    tab = grid.legendre if L <= grid.L else legendre_table(L, grid.u)
    for m in range(L + 1):
        start = plm_index(m, m, top)
        yield m, tab[start: start + L + 1 - m]


def _real_matmul(P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """P @ X for real P and complex X with contiguous rows, as one real
    product on the interleaved (re, im) columns."""
    return (P @ X.view(float)).view(complex)


def sht_forward_columns(grid: Grid, V: np.ndarray, L: int) -> np.ndarray:
    """Analysis of a batch: V has shape (n_nodes, B); returns coefficient
    rows ((L+1)(2L+1), B) in the padded layout."""
    if not 0 <= L <= grid.L:
        raise ValueError(f"grid supports degrees 0..{grid.L}, requested {L}")
    nt, npz = grid.shape
    B = V.shape[1]
    G = (_phases(grid, L) * grid.dphi) @ V.reshape(nt, npz, B)  # (nt, 2L+1, B)
    out = np.zeros((L + 1, 2 * L + 1, B), dtype=complex)
    for m, block in _order_blocks(grid, L):
        block = block * grid.w
        out[m:, L + m] = _real_matmul(block, G[:, L + m])
        if m > 0:
            out[m:, L - m] = (-1) ** m * _real_matmul(block, G[:, L - m])
    return out.reshape(-1, B)


def sht_synthesize_columns(grid: Grid, C: np.ndarray, L: int) -> np.ndarray:
    """Synthesis of a batch onto a grid (the inverse of
    sht_forward_columns when the grid resolves L): C has shape
    ((L+1)(2L+1), B); returns values (n_nodes, B)."""
    if L < 0:
        raise ValueError(f"degree must be non-negative, requested {L}")
    B = C.shape[1]
    C = np.ascontiguousarray(C, dtype=complex).reshape(L + 1, 2 * L + 1, B)
    H = np.empty((grid.n_theta, 2 * L + 1, B), dtype=complex)
    for m, block in _order_blocks(grid, L):
        H[:, L + m] = _real_matmul(block.T, C[m:, L + m])
        if m > 0:
            H[:, L - m] = (-1) ** m * _real_matmul(block.T, C[m:, L - m])
    return (np.conj(_phases(grid, L)).T @ H).reshape(-1, B)


def sht_forward(f: GridFunction, L: int | None = None) -> HarmonicCoeffs:
    """Analysis; exact for band-limited inputs the grid resolves."""
    L = f.grid.L if L is None else L
    rows = sht_forward_columns(f.grid, f.values.reshape(-1, 1), L)
    return HarmonicCoeffs(L, rows.reshape(L + 1, 2 * L + 1))


def sht_inverse(coeffs: HarmonicCoeffs, grid: Grid) -> GridFunction:
    """Synthesis on a grid (the grid need not resolve coeffs.L exactly for
    this direction, but round-trips require it)."""
    values = sht_synthesize_columns(grid, coeffs.c.reshape(-1, 1), coeffs.L)
    return GridFunction(grid, values.reshape(grid.shape))


def synth_at_points(coeffs: HarmonicCoeffs, points: np.ndarray) -> np.ndarray:
    """Evaluate the band-limited function at arbitrary points (..., 3).

    Runs over chunks of points.  Per chunk and order m, the Legendre rows
    l = m..L fill one block of at most SYNTH_BLOCK doubles, and one real
    matrix product contracts them with the +m and -m coefficient columns,
    so memory stays O(points) plus that block for every L.  The phase
    e^{i m phi} is the running product of w = e^{i phi}, one exponential
    per point; its rounding grows like m eps.
    """
    pts = np.asarray(points, dtype=float)
    shape = pts.shape[:-1]
    pts = pts.reshape(-1, 3)
    L = coeffs.L
    # per order, the columns c[l, m] and (-1)^m c[l, -m], l = m..L, as rows
    cols = [np.stack([coeffs.c[m:, L + m], (-1) ** m * coeffs.c[m:, L - m]], axis=1)
            for m in range(L + 1)]
    chunk = max(1, SYNTH_BLOCK // (L + 1))
    block = np.empty((L + 1, min(chunk, len(pts))))
    out = np.empty(len(pts), dtype=complex)
    for start in range(0, len(pts), chunk):
        x = pts[start: start + chunk]
        u = np.clip(x[:, 0], -1.0, 1.0)
        w = np.exp(1j * np.arctan2(x[:, 2], x[:, 1]))
        e = np.ones_like(w)
        acc = out[start: start + chunk]
        for m, rows in _legendre_orders(L, u, block[:, : len(x)]):
            pos, neg = _real_matmul(rows.T, cols[m]).T
            if m == 0:
                acc[:] = pos
            else:
                e *= w
                acc += pos * e
                acc += neg * np.conj(e)
    return out.reshape(shape)


def rounding_truncated(coeffs: HarmonicCoeffs) -> HarmonicCoeffs:
    """coeffs without the trailing degrees that lie below the rounding of
    their own synthesis.  Degree l adds at most |c_l| sqrt((2l+1)/(4 pi))
    to any value (|c_l| the 2-norm over m; the addition theorem), so the
    kept degree L' is the least one whose dropped tail
    sum_{l > L'} |c_l| sqrt((2l+1)/(4 pi)) stays within
    eps (L+1) sum_{l,m} |c_lm| sqrt((2l+1)/(4 pi)), the rounding scale of
    synthesizing coeffs."""
    L = coeffs.L
    zonal = _zonal_weights(L)
    scale = np.finfo(float).eps * (L + 1) * (np.abs(coeffs.c).sum(axis=1) @ zonal)
    tail = np.cumsum((np.linalg.norm(coeffs.c, axis=1) * zonal)[::-1])[::-1]
    keep = max(int(np.count_nonzero(tail > scale)) - 1, 0)    # tail[l]: degrees >= l
    return HarmonicCoeffs(keep, coeffs.c[: keep + 1, L - keep: L + keep + 1])


@cache
def _zonal_weights(L: int) -> np.ndarray:
    """sqrt((2l+1)/(4 pi)), l = 0..L, the value of Y_l0 at the base point;
    read-only."""
    l = np.arange(L + 1)
    w = np.sqrt((2 * l + 1) / (4.0 * math.pi))
    w.flags.writeable = False
    return w


def value_at_pole(coeffs: HarmonicCoeffs) -> complex:
    """Value at the base point (1, 0, 0): only m = 0 contributes."""
    return complex(np.dot(coeffs.c[:, coeffs.L], _zonal_weights(coeffs.L)))


def sampled_value_at_pole(f: GridFunction) -> complex:
    """value_at_pole(sht_forward(f)) read from the samples: only the zonal
    part contributes, so ring i enters through its sum over phi, weighted
    by w_i dphi sum_{l <= grid.L} (2l+1)/(4 pi) P_l(u_i)."""
    grid = f.grid
    l = np.arange(grid.L + 1)
    zonal = ((2 * l + 1) / (4.0 * math.pi)) @ ultraspherical_table(0.5, grid.L, grid.u)
    return complex(np.dot(f.values.sum(axis=1), grid.w * grid.dphi * zonal))


@cache
def _pairing_signs(L: int) -> np.ndarray:
    """(-1)^m, m = -L..L; read-only."""
    signs = (-1.0) ** np.arange(-L, L + 1)
    signs.flags.writeable = False
    return signs


def degree_pairings(a: HarmonicCoeffs, b: HarmonicCoeffs) -> np.ndarray:
    """Degree-by-degree bilinear pairings sum_m (-1)^m a[l, m] b[l, -m],
    l = 0..min(a.L, b.L)."""
    L = min(a.L, b.L)
    ac = a.c[: L + 1, a.L - L: a.L + L + 1]
    bc = b.c[: L + 1, b.L - L: b.L + L + 1]
    return (ac * bc[:, ::-1]) @ _pairing_signs(L)


# ---------------------------------------------------------------------------
# zonal integration for general n


def zonal_integral(dim: Dimension, F, singular_power: complex = 0.0,
                   rtol: float = 1e-12) -> complex:
    """int_{S^{n-1}} |e - x|^{singular_power} F(<e, x>) dsigma(x) for a
    profile F on [-1, 1].

    Substituting t = 1 - 2u^2 moves the near-pole endpoint to u = 0 and
    the integral is done by tanh-sinh doubling.  A chordal power that is
    singular (or merely non-smooth) at t = 1 should be declared through
    `singular_power`: it is then evaluated through log u, exactly down to
    the endpoint.  A singular factor hidden inside the black-box F still
    converges, but rounding of 1 - t caps its relative accuracy near 1e-7.
    """
    return _zonal_quadrature(dim, F, singular_power, L=None, rtol=rtol)


def funk_hecke_table(dim: Dimension, F, L: int, singular_power: complex = 0.0,
                     rtol: float = 1e-12) -> np.ndarray:
    """Eigenvalues, l = 0..L, of the zonal convolution
    f -> int F(<x, y>) f(y) dsigma(y) on degree-l spherical harmonics: the
    profile integrated against the ultraspherical polynomial normalized at
    1, with the (1-t^2)^{(n-3)/2} weight and the |S^{n-2}| area factor.
    Reduces to 2 pi int F P_l dt for n = 3 and to the plain area integral
    for l = 0.  See zonal_integral for the role of singular_power."""
    return np.asarray(_zonal_quadrature(dim, F, singular_power, L=L,
                                        rtol=rtol))


def kernel_eigenvalues(dim: Dimension, s: complex, L: int) -> np.ndarray:
    """Funk-Hecke eigenvalues e_l, l = 0..L, of the chordal kernel
    |x - y|^s, computed by direct quadrature.  Valid for Re s > -(n-1)."""
    if complex(s).real <= -(dim.n - 1):
        raise ValueError(f"direct quadrature needs Re s > -(n-1) = {-(dim.n - 1)}")
    return np.asarray(_zonal_quadrature(dim, None, s, L=L, rtol=1e-15))


def _zonal_quadrature(dim: Dimension, F, singular_power: complex, L,
                      rtol: float):
    """Shared tanh-sinh core: the chordal power |e - x|^{singular_power}
    goes through log u so complex exponents stay exact at the endpoint;
    the smooth profile and the ultraspherical factor ride along."""
    n = dim.n
    nu = 0.5 * (n - 2.0)
    pref = 2.0 * math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)
    exp_w = 0.5 * (n - 3.0)
    s = complex(singular_power)

    def integrand(u, log_u, one_minus_u):
        t = 1.0 - 2.0 * u * u
        if s == 0.0:
            core = u ** (n - 2) + 0.0j
        else:
            # |e-x|^s = (2u)^s with u = half-chord parameter
            core = np.exp(s * (math.log(2.0) + log_u) + (n - 2) * log_u)
        core = core * ((one_minus_u * (1.0 + u)) ** exp_w)
        if F is not None:
            # a profile singular at t = 1 may produce non-finite values in
            # the underflow corner; those nodes carry zero weight anyway
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                prof = np.asarray(F(t))
            core = core * np.where(np.isfinite(prof), prof, 0.0)
        if L is None:
            return core
        return ultraspherical_table(nu, L, t) * core[None, :]

    vals = tanhsinh_unit(integrand, rtol=rtol)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("zonal integrand produced non-finite values")
    scaled = pref * 2.0 ** (n - 1) * vals
    return complex(scaled) if L is None else scaled


# ---------------------------------------------------------------------------
# file formats


def save_coeffs(path, coeffs: HarmonicCoeffs) -> None:
    """JSON coefficient file: {"n": 3, "L": L, "coeffs": [[l, m, re, im], ...]}."""
    L = coeffs.L
    l, j = np.nonzero(_lm_mask(L))
    v = coeffs.c[l, j]
    rows = list(zip(l.tolist(), (j - L).tolist(), v.real.tolist(), v.imag.tolist()))
    with open(path, "w") as fh:
        json.dump({"n": 3, "L": L, "coeffs": rows}, fh)


def load_coeffs(path) -> HarmonicCoeffs:
    with open(path) as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict) or not {"L", "coeffs"} <= blob.keys():
        raise ValueError('a coefficient file is a JSON object with keys "L" and "coeffs"')
    if blob.get("n", 3) != 3:
        raise ValueError("coefficient files are supported for n = 3 only")
    L = blob["L"]
    if not (isinstance(L, (int, float)) and L in range(MAX_DEGREE + 1)):
        raise ValueError(f'"L" must be an integer in 0..{MAX_DEGREE}, got {L!r}')
    L = int(L)
    rows = np.array(blob["coeffs"], dtype=float)
    if rows.size and (rows.ndim != 2 or rows.shape[1] != 4):
        raise ValueError('"coeffs" must be a list of rows [l, m, re, im]')
    rows = rows.reshape(-1, 4)
    if np.any(rows[:, :2] != np.round(rows[:, :2])):
        raise ValueError("non-integer (l, m) in coefficient file")
    l, m = rows[:, 0].astype(int), rows[:, 1].astype(int)
    if np.any((np.abs(m) > l) | (l > L)):
        raise ValueError("(l, m) out of range in coefficient file")
    if len(set(zip(l.tolist(), m.tolist()))) < len(l):
        raise ValueError("duplicate (l, m) rows in coefficient file")
    c = np.zeros((L + 1, 2 * L + 1), dtype=complex)
    c[l, m + L] = rows[:, 2] + 1j * rows[:, 3]
    return HarmonicCoeffs(L, c)
