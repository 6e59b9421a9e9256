"""Symmetric eigendecomposition, simplicial Fourier transform, spectra checks.

The eigendecompose contract is: full spectrum, ascending eigenvalues,
orthonormal eigenvectors, and a deterministic sign convention (each
eigenvector's largest-magnitude entry is positive, first such entry on
ties).  Within a numerically repeated eigenvalue the basis is arbitrary,
so comparisons across runs should use subspace projectors, not vectors.
Callers that need only the spectrum use eigenvalues(), which skips the vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .chains import Cochain, Field, SparseMatrix, coboundary_matrix, compose, transpose
from .errors import FieldMismatch, NotAGraph, NotSymmetric, ShapeMismatch
from .homology import _check_tol

if TYPE_CHECKING:
    from .complex import SimplicialComplex

HARMONIC_RTOL = 1e-8
SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Ascending eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dimension: int | None = None

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1]) if self.size else 0.0


def _checked_dense(L: SparseMatrix, tol: float) -> np.ndarray:
    """Both eigensolvers' checks, then L's one dense copy, whose lower triangle LAPACK reads."""
    _check_tol(tol)
    if L.field_tag is not Field.REAL:
        raise FieldMismatch("eigendecomposition needs a real matrix")
    a = L.toarray()
    if a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    # a - a.T is antisymmetric (IEEE subtraction is), so its max is max|L - L^T|.
    if a.size and not np.max(a - a.T) <= tol * max(np.max(np.abs(L.data), initial=0.0), 1.0):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return a


def eigendecompose(
    L: SparseMatrix, tol: float = SYMMETRY_RTOL, dimension: int | None = None
) -> SpectralBasis:
    """Full eigendecomposition of a symmetric real matrix.

    Raises NotSymmetric unless max|L - L^T| <= tol * max(max|L|, 1), and ValueError for a NaN,
    infinite or negative tol.  LAPACK reads the lower triangle of the checked dense copy of L,
    equal to (L + L^T) / 2 when L is exactly symmetric.  Symmetrize a weighted Laplacian first.
    """
    a = _checked_dense(L, tol)
    if a.size == 0:
        return SpectralBasis(np.zeros(0), np.zeros((0, 0)), dimension)
    values, vectors = np.linalg.eigh(a)
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    vectors *= np.where(lead < 0, -1.0, 1.0)
    return SpectralBasis(values, vectors, dimension)


def eigenvalues(L: SparseMatrix) -> np.ndarray:
    """eigendecompose(L)'s ascending eigenvalues (to ~1e-13 of the largest) from the same checked triangle."""
    a = _checked_dense(L, SYMMETRY_RTOL)
    return np.linalg.eigvalsh(a) if a.size else np.zeros(0)


def _check_alignment(x: Cochain, basis: SpectralBasis) -> None:
    if x.field is not Field.REAL:
        raise FieldMismatch("the spectral transform needs a real cochain")
    if basis.dimension is not None and x.dimension != basis.dimension:
        raise ShapeMismatch(
            f"cochain dimension {x.dimension} != basis dimension {basis.dimension}"
        )
    if len(x) != basis.size:
        raise ShapeMismatch(f"cochain length {len(x)} != basis size {basis.size}")


def sft(x: Cochain, basis: SpectralBasis) -> Cochain:
    """Simplicial Fourier transform: coordinates of x in the eigenbasis."""
    _check_alignment(x, basis)
    return Cochain(x.dimension, basis.eigenvectors.T @ x.values)


def inverse_sft(xhat: Cochain, basis: SpectralBasis) -> Cochain:
    """Inverse transform: reassemble the signal from spectral coordinates."""
    _check_alignment(xhat, basis)
    return Cochain(xhat.dimension, basis.eigenvectors @ xhat.values)


@dataclass(frozen=True)
class SpectraReport:
    """Comparison of the two graph Laplacian spectra."""

    l0_nonzero: tuple[float, ...]
    l1_nonzero: tuple[float, ...]
    agree: bool
    zero_mult_diff: int
    b0_minus_b1: int


def graph_laplacians(c: SimplicialComplex) -> tuple[SparseMatrix, SparseMatrix]:
    """The vertex Laplacian d1 d1^T and the edge Laplacian d1^T d1."""
    if c.max_dim > 1:
        raise NotAGraph(f"complex has dimension {c.max_dim}")
    d1t = coboundary_matrix(c, 0, Field.REAL)  # 0 x #vertices without edges
    d1 = transpose(d1t)
    return compose(d1, d1t), compose(d1t, d1)


def compare_spectra(c: SimplicialComplex, tol: float | None = None) -> SpectraReport:
    """Check that the two graph Laplacians share their nonzero spectrum.

    The multiplicity of the eigenvalue zero differs between them by exactly
    b0 - b1; both quantities are reported so callers can assert equality.
    A NaN, infinite or negative tol raises ValueError.
    """
    _check_tol(tol)
    l0, l1 = graph_laplacians(c)
    ev0 = eigenvalues(l0)
    ev1 = eigenvalues(l1)
    lam_max = max(float(ev[-1]) if ev.size else 0.0 for ev in (ev0, ev1))
    zero_thr = HARMONIC_RTOL * lam_max
    match_tol = tol if tol is not None else 1e-6 * lam_max
    nz0 = tuple(float(v) for v in ev0 if v > zero_thr)
    nz1 = tuple(float(v) for v in ev1 if v > zero_thr)
    agree = len(nz0) == len(nz1) and all(abs(a - b) <= match_tol for a, b in zip(nz0, nz1))
    zero_mult_diff = (len(ev0) - len(nz0)) - (len(ev1) - len(nz1))
    # b0 - b1 = V - E on a graph (Euler-Poincare).
    return SpectraReport(nz0, nz1, agree, zero_mult_diff, c.n_simplices(0) - c.n_simplices(1))
