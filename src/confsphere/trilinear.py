"""Invariant trilinear forms on S^2: the generic three-kernel family, the
singular family built from covariant powers of the Laplacian, the residue
bridge between them, and pole scans of the closed-form channel.

Parameters.  The kernel triple K(x1, x2, x3) couples slot exponents
alpha = (a1, a2, a3) to kernels k_{a1}(x2,x3) k_{a2}(x3,x1) k_{a3}(x1,x2)
with k_a(x, y) = |x - y|^{-rho + a}.  Representation parameters relate by
    a1 = -l1 + l2 + l3,  a2 = l1 - l2 + l3,  a3 = l1 + l2 - l3,
equivalently l1 = (a2+a3)/2, l2 = (a3+a1)/2, l3 = (a1+a2)/2.

Closed form.  For constant inputs the generic form has, at n = 3, the
closed expression

    K(1,1,1) = 8 pi^3 2^{a1+a2+a3}
               Gamma((a1+a2+a3+rho)/2) prod_j Gamma((a_j+rho)/2)
               / prod_{i<j} Gamma(rho + (a_i+a_j)/2).

The 2^{sum alpha} factor is forced by the kernel normalization
|x - y| = 2 sin(theta/2) (each kernel contributes 2^{a_j - rho}); the
prefactor 8 pi^3 and the factor are validated in the test suite against
exactly integrable polynomial kernels.  Residues are reported with
respect to the half parameter, matching the convention in `mero`.

Evaluation.  The direct engine (`TripleEngine`), the reference quadrature,
runs on three staggered grids that share their polar nodes and n_phi, so
each kernel between two of them is block-circulant in azimuth and is held
as the FFT of one nt x n_phi x nt table over the azimuth difference.  The
quadrature sum is taken in azimuthal frequency: the three fields' DFTs on
their grids' rings are contracted with the transformed tables, O(n_phi B
nt^3 + n_phi B^2 nt^2) work per value for B orders and no N x N array.  A
field's spectrum is the FFT of its values on each ring: a HarmonicCoeffs
is synthesized there by the transform pair and keeps only the residues
mod n_phi of its nonzero orders; a callable (a moved field, not
band-limited) is sampled there and keeps the residues that lie above the
FFT's rounding on some ring, all n_phi at most.  The fast method
is the alpha3 family at a3, an exact finite sum over K-types: the form is
O(3)-invariant, so for band-limited inputs T(f1, f2, f3) = sum_l tau(l)
G(l) over l_j <= deg f_j, tau(l) the form on three Legendre polynomials
(`ktype_coefficients`: the boost's invariance equations with four Gamma
factors taken out, one cached alpha-free pseudo-inverse per level) and
G(l) the fields' degree-component integrals (`_component_integrals`).  It
is meromorphic in alpha on all of C^3, with no convergence region (after
Bernstein & Reznikov, Moscow Math. J. 4 (2004)).  The singular forms are
exact finite sums of two-point Knapp-Stein pairings (`singular_form`),
meromorphic in (a1, a2).  This spectral layer takes HarmonicCoeffs only;
callables enter only the direct engine.  grid_size selects grids and
nothing else.  The identities these forms satisfy (invariance, the
residue bridge, the pointwise kernel identities) are checked in `verify`.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .lorentz import Dimension
from .sphgrid import HarmonicCoeffs, make_grid, sht_forward_columns, sht_synthesize_columns
from .special import (_is_pole, _log_gamma, as_complex, gamma_ratio, pochhammer,
                      ultraspherical_table)
from .spectral_ops import check_order, laplacian_multipliers
from .mero import (MAX_RING_SAMPLES, LaurentFit, elementwise, pair_separation_power,
                   residue_rings)

CONVERGENCE_MARGIN = 0.25
TRIPLE_GRID = (24, 48)       # default (n_theta, n_phi) of the direct engine's three grids
MAX_RING_WORKSET = 1 << 23   # complex entries of the direct engine's contraction,
                             # its per-chunk arrays, their product and W, at most about
                             # 4 nt n_phi^2: 128 MB, grids up to (80, 160)
MAX_KTYPE_BYTES = 1 << 26    # tau and the cached level factors of ktype_coefficients:
                             # 64 MB, S up to 81; the first call's dense build is not
                             # counted and peaks higher (95 MB under tracemalloc at S = 81)
RING_RADIUS = 0.15       # contour rings of the residue bridge and the pole scans
SCAN_STEP = 0.2          # spacing of the pole-scan ring centers


# ---------------------------------------------------------------------------
# parameter bookkeeping


@dataclass(frozen=True)
class ParameterTriple:
    """Coupled (alpha, lambda) parameter triples; the linear relations
    between them hold exactly by construction."""

    alpha: tuple
    lam: tuple

    def __post_init__(self):
        a = tuple(complex(v) for v in self.alpha)
        l = tuple(complex(v) for v in self.lam)
        expect = (-l[0] + l[1] + l[2], l[0] - l[1] + l[2], l[0] + l[1] - l[2])
        scale = 1.0 + max(abs(v) for v in a + l)
        if max(abs(a[i] - expect[i]) for i in range(3)) > 1e-13 * scale:
            raise ValueError("alpha and lambda are inconsistent")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "lam", l)


def alpha_from_lambda(lam) -> ParameterTriple:
    l1, l2, l3 = (complex(v) for v in lam)
    return ParameterTriple(alpha=(-l1 + l2 + l3, l1 - l2 + l3, l1 + l2 - l3),
                           lam=(l1, l2, l3))


def lambda_from_alpha(alpha) -> ParameterTriple:
    a1, a2, a3 = (complex(v) for v in alpha)
    return ParameterTriple(alpha=(a1, a2, a3),
                           lam=((a2 + a3) / 2, (a3 + a1) / 2, (a1 + a2) / 2))


@dataclass(frozen=True)
class PoleReport:
    """One detected pole of a scanned one-parameter family."""

    family: str          # alpha1 | alpha2 | alpha3 | sum | singular_line | unknown
    k: int               # lattice index within the family (-1 if unknown)
    location: str        # human-readable description of the plane or line
    position: complex    # fitted pole position along the scan variable
    residue: complex     # plain contour residue at the pole
    condition: float     # the ring's LaurentFit.condition: small for a clean simple pole


# ---------------------------------------------------------------------------
# closed forms (constant inputs, n = 3)


def gamma_ratio_factor(dim: Dimension, alpha) -> complex:
    """The bare Gamma-quotient of the constant-input closed form (without
    the 2^{sum alpha} kernel-normalization factor)."""
    rho = dim.rho
    a1, a2, a3 = (complex(v) for v in alpha)
    num = [(a1 + a2 + a3 + rho) / 2, (a1 + rho) / 2, (a2 + rho) / 2, (a3 + rho) / 2]
    den = [rho + (a2 + a3) / 2, rho + (a3 + a1) / 2, rho + (a1 + a2) / 2]
    return gamma_ratio(num, den)


def closed_form_constant(dim: Dimension, alpha) -> complex:
    """Closed-form value of the generic form on constant inputs (n = 3)."""
    if dim.n != 3:
        raise ValueError("the closed form is implemented for n = 3")
    a1, a2, a3 = (complex(v) for v in alpha)
    return 8.0 * math.pi ** 3 * 2.0 ** (a1 + a2 + a3) * gamma_ratio_factor(dim, alpha)


def closed_form_constant_residue(dim: Dimension, k: int, a1, a2) -> complex:
    """Half-parameter residue of the closed form in a3 at a3 = -rho - 2k
    for constant inputs; equals c_k times the singular form of constant
    inputs.  At n = 3 its Gamma quotients have integer-spaced arguments,
    so it is the rational
        pref ((a1+rho)/2-k)_k ((a2+rho)/2-k)_k / ((a1+a2)/2-k)_{k+rho},
    with poles exactly on the singular lines a1 + a2 = 2k - 2l, l = 0..k,
    and finite on a1 + a2 = -2, -4, ..., where the Gamma form is 0/0.
    Entrywise where a1 or a2 is an ndarray."""
    if dim.n != 3:
        raise ValueError("the closed form is implemented for n = 3")
    check_order(k)
    rho = dim.rho
    a1, a2 = as_complex(a1), as_complex(a2)
    pref = (8.0 * math.pi ** 3 * 2.0 ** (a1 + a2 - rho - 2 * k)
            * (-1.0) ** k / math.gamma(k + 1.0))
    return (pref * pochhammer((a1 + rho) / 2 - k, k) * pochhammer((a2 + rho) / 2 - k, k)
            * pochhammer(rho + (a1 + a2) / 2, -k - int(rho)))


# ---------------------------------------------------------------------------
# grids, fields, kernels


@functools.cache
def _staggered_grids(n_theta: int, n_phi: int, count: int) -> tuple:
    """`count` grids of one size, azimuths offset by multiples of
    dphi / count; built once per process and shared, so their node arrays
    are read-only.  The grids share their polar nodes, so one Legendre
    table serves the set; it is built here, before any kernel temporaries,
    so this long-lived array does not pin freed heap."""
    first = make_grid(n_theta=n_theta, n_phi=n_phi)    # validates the sizes
    grids = (first, *(make_grid(n_theta=n_theta, n_phi=n_phi,
                                phi_offset=j * first.dphi / count) for j in range(1, count)))
    table = first.legendre
    for g in grids:
        for a in (g.u, g.w, g.phi):
            a.flags.writeable = False
        vars(g)["legendre"] = table     # fills the cached property
    return grids


def triple_grids(grid_size=TRIPLE_GRID):
    """Three same-size grids with staggered azimuths so that no pair of
    nodes across spheres coincides (the kernels may carry negative
    powers of the separation)."""
    nt, npz = (int(v) for v in grid_size)
    return _staggered_grids(nt, npz, 3)


def chordal_power(P: np.ndarray, Q: np.ndarray, s: complex) -> np.ndarray:
    """|p - q|^s for unit vectors, via 2 - 2 <p, q>."""
    r2 = np.maximum(2.0 - 2.0 * (P @ Q.T), 0.0)
    s = complex(s)
    if s.imag == 0.0:
        return r2 ** (s.real / 2.0)
    return r2 ** (s / 2.0)


def _check_convergence(dim: Dimension, alpha) -> None:
    edge = -dim.rho + CONVERGENCE_MARGIN
    real = [complex(v).real for v in alpha]
    bad = [f"Re a{j + 1} = {v:g} <= {edge:g}"
           for j, v in enumerate(real) if v <= edge]
    if sum(real) <= edge:
        bad.append(f"Re(a1+a2+a3) = {sum(real):g} <= {edge:g}")
    if bad:
        raise ValueError(
            "parameters outside the safe absolute-convergence region "
            f"(margin {CONVERGENCE_MARGIN}): " + "; ".join(bad)
            + ". Use generic_form(..., method='fast') for continued evaluation.")


# ---------------------------------------------------------------------------
# the generic trilinear form


def _coeffs_only(fields):
    """The fields, if each is a HarmonicCoeffs, all the spectral layer
    takes; TypeError otherwise."""
    for f in fields:
        if not isinstance(f, HarmonicCoeffs):
            raise TypeError(f"expected HarmonicCoeffs, got {type(f).__name__}: project "
                            "a callable to coefficients first (e.g. sphgrid.sht_forward)")
    return fields


def _azimuth_table(A, B, s) -> np.ndarray:
    """The kernel |x - y|^s from grid A to grid B of one staggered set as
    its table k[i, d, i'] = |x_{i,d} - y_{i',0}|^s: the grids share their
    polar nodes and n_phi, so the kernel is block-circulant in azimuth,
    entry ((i, j), (i', j')) = k[i, (j - j') mod n_phi, i']."""
    nt, npz = A.shape
    return chordal_power(A.flat_points(), B.flat_points()[::npz], s).reshape(nt, npz, nt)


def _ring_spectrum(f, grid) -> tuple:
    """f w dphi on the grid's polar rings transformed in azimuth: for
    phi_j = phi_0 + j dphi,
        F[k, i] = sum_j f(u_i, phi_j) w_i dphi e^{-2 pi i k j / n_phi}.
    A HarmonicCoeffs is synthesized at the nodes (`sht_synthesize_columns`)
    and keeps the residues k = m mod n_phi of its nonzero orders m.  A
    callable is sampled there and keeps the k whose entry exceeds, on some
    ring i, the FFT's rounding of that ring, eps ceil(log2 n_phi)
    sum_j |s_ij| for its input s_ij = f(u_i, phi_j) w_i dphi; a
    band-limited callable keeps the coefficient path's residues.  Returns
    those k and F, exactly zero off them."""
    if isinstance(f, HarmonicCoeffs):
        V = sht_synthesize_columns(grid, f.c.reshape(-1, 1), f.L)[:, 0]
        k = np.unique((np.flatnonzero(f.c.any(axis=0)) - f.L) % grid.n_phi)
    else:
        V, k = f(grid.flat_points()), None
    S = (V * grid.flat_weights()).reshape(grid.shape)
    spectrum = np.fft.fft(S, axis=1).T                       # [k, i]
    if k is None:
        rounding = np.finfo(float).eps * math.ceil(math.log2(grid.n_phi))
        k = np.flatnonzero((np.abs(spectrum) > rounding * np.abs(S).sum(axis=1)).any(axis=1))
    F = np.zeros((grid.n_phi, grid.n_theta), dtype=complex)
    F[k] = spectrum[k]
    return k, F


class TripleEngine:
    """The direct generic form of one parameter triple, the reference
    quadrature on the three staggered grids of grid_size, reusable across
    fields.  It holds each kernel's azimuth table (`_azimuth_table`)
    transformed in azimuth, refused when the contraction's working set
    would exceed MAX_RING_WORKSET complex entries.  `value` contracts the
    fields' azimuthal spectra on their grids' rings (`_ring_spectrum`, the
    FFT of each ring's values, kept only at the residues of a
    HarmonicCoeffs' nonzero orders or, for a callable, at those above the
    FFT's rounding) with the transformed tables.  method
    must be "direct"; the exact K-type sum is
    `generic_form(..., method="fast")`."""

    def __init__(self, dim: Dimension, alpha, method: str = "direct",
                 grid_size=TRIPLE_GRID):
        if method != "direct":
            raise ValueError(f"TripleEngine is the direct quadrature, got method={method!r}; "
                             "the exact K-type sum is generic_form(..., method='fast')")
        if dim.n != 3:
            raise ValueError("trilinear quadrature is implemented for n = 3")
        _check_convergence(dim, alpha)
        self.dim = dim
        self.alpha = tuple(complex(v) for v in alpha)
        nt, npz = (int(v) for v in grid_size)
        entries = 4 * nt * npz * npz
        if entries > MAX_RING_WORKSET:
            raise ValueError(f"the direct engine's contraction working set would "
                             f"have {entries} complex entries (max "
                             f"{MAX_RING_WORKSET}); use generic_form(..., method='fast')")
        self.grids = g1, g2, g3 = triple_grids(grid_size)
        rho, (a1, a2, a3) = dim.rho, self.alpha
        # the tables [i3, d, i1], [i2, d, i1] and [i2, d, i3] of the
        # kernels x3 to x1, x2 to x1 and x2 to x3, transformed in d:
        # inner_hat [q, i3, i1], outer_hat [p, i1, i2], middle [q, i3, i2]
        self.inner_hat = np.fft.fft(_azimuth_table(g3, g1, a2 - rho),
                                    axis=1).transpose(1, 0, 2).copy()
        self.outer_hat = np.fft.fft(_azimuth_table(g2, g1, a3 - rho),
                                    axis=1).transpose(1, 2, 0).copy()
        self.middle = np.fft.fft(_azimuth_table(g2, g3, a1 - rho),
                                 axis=1).transpose(1, 2, 0).copy()

    def value(self, f1, f2, f3) -> complex:
        """The form on three fields.  Direct: the quadrature sum in
        azimuthal frequency, with the fields' spectra F (`_ring_spectrum`)
        and the transformed tables,
            value = n^-3 sum_{p, m1, m2} sum_{i1, i2, i3} F1[m1, i1]
                    F2[m2, i2] F3[m3, i3] outer_hat[p, i1, i2]
                    middle[-m2-p, i3, i2] inner_hat[m1-p, i3, i1],
        n = n_phi, orders mod n and m3 = -m1-m2.  Per chunk of p,
        X = (F1 inner_hat) outer_hat and Z = F2 middle, and W[i3, m1, m2]
        sums X Z over p and i2: O(n B nt^3 + n B^2 nt^2) for the B <= n
        residues a spectrum keeps.  A chunk's arrays, their product X Z
        and W hold at most about 4 nt n^2 entries, kept within
        MAX_RING_WORKSET by __init__; with the tables, 3 n nt^2, that
        bounds the working set."""
        nt, npz = self.grids[0].shape
        (k1, F1), (k2, F2), (_, F3) = (_ring_spectrum(f, g)
                                       for f, g in zip((f1, f2, f3), self.grids))
        F1, F2 = F1[k1], F2[k2]
        B1, B2 = k1.size, k2.size
        if B1 * B2 == 0:
            return 0j           # f1 or f2 has no nonzero order
        W = np.zeros((nt, B1, B2), dtype=complex)
        # per p, X twice and Z, nt^2 (2 B1 + B2), and their product, nt B1 B2
        chunk = max(1, (4 * npz * npz - B1 * B2) // (nt * (2 * B1 + B2) + B1 * B2))
        for start in range(0, npz, chunk):
            p = np.arange(start, min(start + chunk, npz))[:, None]
            X = self.inner_hat[(k1 - p) % npz]                  # [p, m1, i3, i1]
            X *= F1[:, None, :]
            X = X @ self.outer_hat[p]                           # [p, m1, i3, i2]
            Z = self.middle[(-k2 - p) % npz]                    # [p, m2, i3, i2]
            Z *= F2[:, None, :]
            for XZ in X.transpose(0, 2, 1, 3) @ Z.transpose(0, 2, 3, 1):  # [i3, m1, m2]
                W += XZ
            del XZ               # the last slice would keep the product into the next chunk
        F3 = F3[-(k1[:, None] + k2) % npz]                     # [m1, m2, i3]
        return complex(np.einsum("jab,abj->", W, F3)) / npz ** 3


def generic_form(dim: Dimension, alpha, f1, f2, f3, method: str = "direct",
                 grid_size=TRIPLE_GRID) -> complex:
    """The generic invariant trilinear form on three fields.

    method "direct": the reference quadrature `TripleEngine` on the three
                     grids of grid_size; HarmonicCoeffs or callables;
                     raises outside the absolute-convergence region.
    method "fast":   `generic_form_alpha3_family` at a3, exact on all of
                     C^3; HarmonicCoeffs only; grid_size is not used.
    """
    if method != "fast":
        return TripleEngine(dim, alpha, method=method, grid_size=grid_size).value(f1, f2, f3)
    return generic_form_alpha3_family(dim, alpha[0], alpha[1], f1, f2, f3)(alpha[2])


def _triangles(N: int) -> np.ndarray:
    """The K-types l of level l1 + l2 + l3 = N on a triangle, by (l1, l2)."""
    l1, l2 = np.divmod(np.arange((N + 1) ** 2), N + 1)
    l3 = N - l1 - l2
    return np.stack([l1, l2, l3], axis=1)[(l3 >= abs(l1 - l2)) & (l3 <= l1 + l2)]


@functools.cache
def _ktype_level(s: int) -> tuple:
    """The equations at odd level s in the unknowns w of `ktype_coefficients`,
    one per triple l next to a triangle of level s + 1; read-only: those
    triangles' l1, l2, l3, each equation's l (rows x 3), per slot j the
    columns of w(l + e_j) and w(l - e_j) (-1 where no triangle), and the
    pseudo-inverse of the alpha-free left side, entries (l_j+1)^2/(2l_j+1).
    The cached pseudo-inverses grow like S^5: 5.1 MB to S = 48, 34 MB to 72."""
    E, up = np.eye(3, dtype=int), _triangles(s + 1)
    eqs = (up[:, None] - E).reshape(-1, 3)
    eqs = np.unique(eqs[eqs.min(axis=1) >= 0], axis=0)
    cols = []
    for sign in (1, -1):
        t, pos = _triangles(s + sign), np.full((s + 2,) * 3, -1)
        pos[tuple(t.T)] = np.arange(len(t))     # index -1 lands on -1 too
        cols.append(pos[tuple(np.moveaxis(eqs[:, None] + sign * E, -1, 0))])
    A = np.zeros((len(eqs), len(up) + 1))       # column -1 takes the missing terms
    A[np.arange(len(eqs))[:, None], cols[0]] = (eqs + 1.0) ** 2 / (2 * eqs + 1)
    arrays = [*up.T, eqs.astype(float), *cols, np.linalg.pinv(A[:, :-1])]
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _ktype_guard(S: int) -> None:
    """ValueError, before anything is allocated, where tau (16 (S+1)^3
    bytes) and `_ktype_level`'s arrays for the odd levels s = 2M + 1 < S
    would exceed MAX_KTYPE_BYTES: at level s, C(M+3, 2) triangles above and
    C(M+4, 2) - 3 equations, whose pseudo-inverse dominates."""
    need = 16 * (S + 1) ** 3
    for M in range(S // 2):
        up, eqs = (M + 3) * (M + 2) // 2, (M + 4) * (M + 3) // 2 - 3
        need += 8 * (up * eqs + 3 * up + 9 * eqs)
    if need > MAX_KTYPE_BYTES:
        raise ValueError(f"the K-type recurrence to S = {S} needs {need} bytes for tau and "
                         f"its level factors (MAX_KTYPE_BYTES = {MAX_KTYPE_BYTES})")


def ktype_coefficients(dim: Dimension, alpha, S: int) -> tuple:
    """tau(l) = T(P_l1, P_l2, P_l3) for l1 + l2 + l3 <= S, P_l the Legendre
    polynomial in x . e, e the polar axis (n = 3).  By x_e P_l = [(l+1)
    P_{l+1} + l P_{l-1}] / (2l+1), invariance under the boost along e gives
    one equation per l of odd sum; with z = rho + lam, v0 the closed form's
    numerator and w(l) = tau(l) prod_k Gamma(z_k+l_k)/l_k! / v0, so w(0) = 1,
        sum_j (l_j+1)^2/(2l_j+1) w(l+e_j) = sum_j (l_j+1-z_j)(l_j-1+z_j)/(2l_j+1) w(l-e_j).
    w is entire in alpha; each even level is `_ktype_level`'s alpha-free
    pseudo-inverse times one right side.  tau, formed in log space, is
    exactly 0 where z_k + l_k is a Gamma pole; ValueError for S < 0 and at a
    Gamma pole of v0, a pole of the family.  The cached pseudo-inverses grow
    like S^5: 5.1 MB to S = 48, 34 MB to 72; ValueError where they and tau
    would exceed MAX_KTYPE_BYTES.  That limit does not count the first
    call's build of the factors (each level's dense matrix and its SVD):
    at S = 81 it peaks at 95 MB under tracemalloc, 186-191 MB max RSS.
    Returns tau, an (S+1)^3 array, and the worst level residual
    |A w - b| / |b|."""
    if dim.n != 3 or S < 0:
        raise ValueError(f"the K-type recurrence needs n = 3 and S >= 0, got {dim.n}, {S}")
    _ktype_guard(S)
    alpha, rho, N = tuple(complex(v) for v in alpha), dim.rho, S // 2  # l_k <= N
    try:
        log_v0 = (math.log(8.0 * math.pi ** 3) + sum(alpha) * math.log(2.0)
                  + sum(_log_gamma((a + rho) / 2) for a in (sum(alpha), *alpha)))
    except ZeroDivisionError:
        raise ValueError(f"the seed v0 has a Gamma pole at alpha = {alpha}") from None
    z = rho + np.array(lambda_from_alpha(alpha).lam)
    log_q = np.array([[-np.inf if _is_pole(zk + l) else math.lgamma(l + 1) - _log_gamma(zk + l)
                       for l in range(N + 1)] for zk in z])   # log(l! / Gamma(z_k + l))
    tau = np.zeros((S + 1,) * 3, dtype=complex)
    tau[0, 0, 0] = np.exp(log_v0 + log_q[:, 0].sum())
    w, worst, c = np.ones(1, dtype=complex), 0.0, (1 - z) ** 2
    for s in range(1, S, 2):
        l1, l2, l3, l, up, down, pinv = _ktype_level(s)
        b = ((l * l - c) / (2 * l + 1) * np.append(w, 0)[down]).sum(axis=1)
        w = (pinv @ b.view(float).reshape(-1, 2)).view(complex)[:, 0]
        lhs = ((l + 1) ** 2 / (2 * l + 1) * np.append(w, 0)[up]).sum(axis=1)
        worst = max(worst, np.linalg.norm(lhs - b) / (np.linalg.norm(b) or 1.0))
        tau[l1, l2, l3] = w * np.exp(log_v0 + log_q[0, l1] + log_q[1, l2] + log_q[2, l3])
    return tau, worst


def _component_integrals(fields) -> np.ndarray:
    """G[l1, l2, l3] = int f1_l1 f2_l2 f3_l3 / int P_l1 P_l2 P_l3, f_l the
    degree-l part of f, on the triangles of even sum (zero elsewhere), so
    that T(f1, f2, f3) = sum tau G.  The integrands have degree at most
    S = f1.L + f2.L + f3.L, so the grid of degree ceil(S/2) is exact.  An S
    past `_ktype_guard`'s limit raises before anything is built."""
    _ktype_guard(sum(f.L for f in fields))
    D = max(1, (sum(f.L for f in fields) + 1) // 2)
    grid = _staggered_grids(D + 1, 2 * D + 1, 1)[0]
    parts = []
    for f in fields:
        l = np.arange(f.L + 1)
        C = np.zeros((f.L + 1, 2 * f.L + 1, f.L + 1), dtype=complex)
        C[l, :, l] = f.c                              # column l: the degree-l part
        parts.append(sht_synthesize_columns(grid, C.reshape(-1, f.L + 1), f.L))
    num = np.einsum("p,pa,pb,pc->abc", grid.flat_weights(), *parts, optimize=True)
    den = np.einsum("i,ai,bi,ci->abc", 2.0 * math.pi * grid.w,   # P_l at the polar nodes
                    *(ultraspherical_table(0.5, f.L, grid.u) for f in fields), optimize=True)
    l1, l2, l3 = np.ix_(*(np.arange(f.L + 1) for f in fields))
    keep = ((l1 + l2 + l3) % 2 == 0) & (abs(l1 - l2) <= l3) & (l3 <= l1 + l2)
    return np.where(keep, num / np.where(keep, den, 1.0), 0.0)


def generic_form_alpha3_family(dim: Dimension, a1, a2, f1, f2, f3):
    """The generic form as a function of a3, (a1, a2) fixed, on
    HarmonicCoeffs (TypeError otherwise): the degree-component integrals
    once, then evaluate(a3) runs `ktype_coefficients` to S = f1.L + f2.L +
    f3.L and contracts.  Exact and meromorphic in a3, so residue rings may
    sit around -rho - 2k for any (a1, a2)."""
    if dim.n != 3:
        raise ValueError("trilinear forms are implemented for n = 3")
    G = _component_integrals(_coeffs_only((f1, f2, f3)))
    return lambda a3: _ktype_sum(dim, (a1, a2, a3), G)[0]


def _ktype_sum(dim: Dimension, alpha, G) -> tuple:
    """sum tau G, G from `_component_integrals`, and the level residual."""
    tau, residual = ktype_coefficients(dim, alpha, sum(G.shape) - 3)
    return complex(np.sum(tau[tuple(map(slice, G.shape))] * G)), residual


# ---------------------------------------------------------------------------
# the singular trilinear forms


def covariant_factor_split(dim: Dimension, grid, terms: dict, L: int, sigma,
                           j: int) -> dict:
    """The j-th factor Delta - (rho+j-1)(rho-j) of Delta_k applied, in x,
    to sum r^{sigma-2e} y^beta psi(x), r = |x - y|, by the product rule

        Delta[r^s psi] = r^{s-2} {[-(s/2)(s/2+n-2) r^2 + s(s+n-3)] psi
                                  + s grad r^2 . grad psi + r^2 Delta psi},
        grad r^2 . grad psi = sum_i y_i [x_i Delta psi - Delta(x_i psi)
                                         - (n-1) x_i psi].

    Terms are keyed (e, beta), beta the sorted coordinate indices of the
    monomial y^beta, with psi as padded degree-L coefficient rows; the
    result is in the same form.  Every psi must have degree below L, so
    that x_i psi is analyzed exactly on the grid (degree at least L)."""
    rho, n = dim.rho, dim.n
    X = grid.flat_points()
    lap = np.repeat(laplacian_multipliers(dim, L), 2 * L + 1)
    shift = (rho + j - 1) * (rho - j)
    keys = list(terms)
    C = np.stack([terms[key] for key in keys], axis=1)
    LC = lap[:, None] * C
    V = sht_synthesize_columns(grid, np.hstack([C, LC]), L)
    XV = sht_forward_columns(grid, (X[:, :, None] * V[:, None, :])
                             .reshape(X.shape[0], -1), L)
    XV = XV.reshape(-1, 3, 2, len(keys))     # (row, i, psi | Delta psi, term)
    terms = defaultdict(int)
    for b, (e, beta) in enumerate(keys):
        s = sigma - 2 * e
        terms[e, beta] += LC[:, b] - ((s / 2) * (s / 2 + n - 2) + shift) * C[:, b]
        terms[e + 1, beta] += s * (s + n - 3) * C[:, b]
        for i in range(3):
            x_psi, x_lap_psi = XV[:, i, 0, b], XV[:, i, 1, b]
            terms[e + 1, tuple(sorted(beta + (i,)))] += (
                s * (x_lap_psi - lap * x_psi - (n - 1) * x_psi))
    return terms


def singular_form(dim: Dimension, k: int, a1, a2, f1, f2, f3) -> complex:
    """The k-th singular trilinear form

        int int f3(y) f2(x) Delta_k[f1(.) |y - .|^{-rho+a2}](x)
                |x - y|^{-rho+a1} dsigma(x) dsigma(y),

    as an exact finite sum of Knapp-Stein pairings.  Delta_k is split off
    the kernel one factor at a time (`covariant_factor_split`), so every
    term is r^{s'} y^beta psi(x) with psi band-limited, and pairs
    to (k_{s'+a1}, (f2 psi) (x) (f3 y^beta)) in closed form.  The sum is
    meromorphic in (a1, a2), so beyond the direct regime (Re(a2 - rho) >
    2k + 1 and Re a1 > -rho, where the integral converges as written) it
    is the continuation; it raises on the singular lines a1 + a2 = 2k - 2l,
    where the pairings have their poles.

    The inputs are HarmonicCoeffs, used exactly; anything else raises
    TypeError.
    """
    if dim.n != 3:
        raise ValueError("singular forms are implemented for n = 3")
    check_order(k)
    _coeffs_only((f1, f2, f3))
    sigma = complex(a2) - dim.rho
    L = f1.L + k                          # the degree bound of every psi
    L2, L3 = L + f2.L, f3.L + k           # of f2 psi and of f3 y^beta
    # the minimal grid on which every product below is analyzed exactly
    D = max(L2, L3, 1)
    grid = _staggered_grids(D + 1, 2 * D + 1, 1)[0]
    X = grid.flat_points()
    terms = {(0, ()): f1.pad(L).c.reshape(-1)}
    for j in range(1, k + 1):
        terms = covariant_factor_split(dim, grid, terms, L, sigma, j)

    keys = list(terms)
    F2, F3 = (sht_synthesize_columns(grid, f.c.reshape(-1, 1), f.L)
              for f in (f2, f3))
    G2 = sht_forward_columns(grid, F2 * sht_synthesize_columns(
        grid, np.stack([terms[key] for key in keys], axis=1), L), L2)
    G3 = sht_forward_columns(grid, F3 * np.stack(
        [X[:, list(beta)].prod(axis=1) for _, beta in keys], axis=1), L3)
    return complex(sum(pair_separation_power(
        dim, sigma - 2 * e + a1, HarmonicCoeffs(L2, G2[:, b].reshape(L2 + 1, -1)),
        HarmonicCoeffs(L3, G3[:, b].reshape(L3 + 1, -1)))
        for b, (e, _) in enumerate(keys)))


# ---------------------------------------------------------------------------
# pole scans


def _classify(dim: Dimension, family: str, position: complex, fixed: dict,
              k_line: int | None, tol: float = 1e-3):
    rho = dim.rho
    p = complex(position)
    if family == "alpha3":
        k = round((-rho - p.real) / 2.0)
        if k >= 0 and abs(p - (-rho - 2.0 * k)) < tol:
            return ("alpha3", int(k), f"alpha3 = -rho - 2k, k = {int(k)}")
        total = fixed["a1"] + fixed["a2"] + p
        k = round((-rho - total.real) / 2.0)
        if k >= 0 and abs(total - (-rho - 2.0 * k)) < tol:
            return ("sum", int(k), f"alpha1+alpha2+alpha3 = -rho - 2k, k = {int(k)}")
    else:
        l = round((2.0 * k_line - p.real) / 2.0)
        if l >= 0 and abs(p - (2.0 * k_line - 2.0 * l)) < tol:
            return ("singular_line", int(l),
                    f"alpha1+alpha2 = 2k - 2l, k = {k_line}, l = {int(l)}")
        for slot, aj in (("alpha1", (p + fixed["delta"]) / 2.0),
                         ("alpha2", (p - fixed["delta"]) / 2.0)):
            kj = round((-rho - aj.real) / 2.0)
            if kj >= 0 and abs(aj - (-rho - 2.0 * kj)) < tol:
                return (slot, int(kj), f"{slot} = -rho - 2k, k = {int(kj)}")
    return ("unknown", -1, "unclassified pole")


def pole_scan(dim: Dimension, family: str, window,
              residue_threshold: float = 1e-6, a1: complex = 0.31,
              a2: complex = 0.77, k: int = 1, delta: float = 0.26):
    """Scan the closed-form constant-input channel for poles.

    family "alpha3":        scan the third slot parameter with (a1, a2)
                            fixed; detects the third-slot planes and the
                            sum planes.
    family "singular_line": scan tau = a1 + a2 (at fixed difference
                            `delta`) of the k-th residue expression;
                            detects the singular lines tau = 2k - 2l and
                            any first/second-slot planes in the window.

    Rings of radius RING_RADIUS are centered on a lattice of step SCAN_STEP,
    and the whole window is sampled and fitted in one residue_rings call:
    the singular-line residue is rational and takes the sample array, the
    alpha3 closed form is a scalar Lanczos evaluation mapped over it.  A
    pole is reported when the fitted |residue| exceeds the threshold
    relative to the sampled magnitude.  Duplicate detections of one pole
    are merged using the fitted position.  A window whose lattice would
    take more than MAX_RING_SAMPLES samples raises before it is built.
    """
    lo, hi = window
    rings = np.ceil((hi - lo) / SCAN_STEP + 0.5)     # the length of the lattice below
    if not rings * 16 <= MAX_RING_SAMPLES:
        raise ValueError(f"window {tuple(window)} needs more than MAX_RING_SAMPLES = "
                         f"{MAX_RING_SAMPLES} ring samples; scan it in pieces")
    if family == "alpha3":
        func = elementwise(lambda z: closed_form_constant(dim, (a1, a2, z)))
        fixed = {"a1": complex(a1), "a2": complex(a2)}
        k_line = None
    elif family == "singular_line":
        check_order(k)
        func = lambda z: closed_form_constant_residue(
            dim, k, (z + delta) / 2.0, (z - delta) / 2.0)
        fixed = {"delta": complex(delta)}
        k_line = k
    else:
        raise ValueError("family must be 'alpha3' or 'singular_line'")

    hits = []
    for fit in residue_rings(func, np.arange(lo, hi + SCAN_STEP / 2.0, SCAN_STEP),
                             radius=RING_RADIUS, m=16):
        scale = RING_RADIUS * fit.sample_max + 1e-300
        if abs(fit.residue) > residue_threshold * scale:
            position = fit.center + fit.pole_offset
            if abs(position - fit.center) < RING_RADIUS:
                hits.append((position, fit))
    merged: list[tuple[complex, LaurentFit]] = []
    for pos, fit in sorted(hits, key=lambda h: h[0].real):
        if merged and abs(pos - merged[-1][0]) < SCAN_STEP:
            continue
        merged.append((pos, fit))
    reports = []
    for pos, fit in merged:
        fam, kk, loc = _classify(dim, family, pos, fixed, k_line)
        reports.append(PoleReport(family=fam, k=kk, location=loc, position=pos,
                                  residue=fit.residue, condition=fit.condition))
    return reports
