"""Conformal analysis on the sphere at desk scale.

Subpackages cover the conformal group and its projective action
(`lorentz`), quadrature grids and spherical-harmonic transforms
(`sphgrid`), spectral multipliers for covariant operators (`spectral_ops`),
the spherical principal series (`reps`), regularized pairings and residue
extraction (`mero`), invariant trilinear forms (`trilinear`), the
verification battery and its check functions (`verify`), and the
command-line driver (`cli`).
"""

__version__ = "0.1.0"
