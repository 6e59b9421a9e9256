"""Inner products, adjoints, Hodge Laplacians, and signal decomposition.

The Laplacian at dimension n combines the two directions a chain can go:
up through the boundary map above it and down through its own boundary
map.  With non-unit weights the plain transposes are replaced by adjoints
with respect to the weighted inner products; the resulting operator is
self-adjoint for those products but not symmetric as a raw matrix, so
spectral work symmetrizes it by the similarity W^(1/2) L W^(-1/2).

One side rule and one assembly serve the simplicial and the sheaf
Laplacian.  Each side of dimension n is a map S into it and contributes
S S*, S* = W_other^(-1) S^T W_n; S is the stored map that ends at n, or the
weighted adjoint of the one that starts there: d_n* (adjoint_boundary) below
and d_(n+1) above for hodge_laplacian, delta_(n-1) and delta_n* for
sheaf_laplacian.  So with weights W, sheaf_laplacian(constant_sheaf(c), n, W)
is hodge_laplacian(c, n, W^(-1)) transposed; with unit weights they are equal.

The two sides act on orthogonal subspaces, im d_n* and im d_(n+1), beside the harmonic
space of dimension b_n.  hodge_spectrum takes each side's nonzero spectrum from its smaller
Gram matrix, as many values as the map's exact rational rank, after b_n exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .chains import (
    Cochain,
    Field,
    SparseMatrix,
    _entries,
    _finite_reals,
    add,
    apply,
    boundary_matrix,
    coboundary_matrix,
    compose,
    transpose,
)
from .errors import DimensionOutOfRange, FieldMismatch, NumericalFailure, ShapeMismatch
from .homology import _check_tol, _ranks, connected_components
from .spectral import HARMONIC_RTOL, eigendecompose, eigenvalues

if TYPE_CHECKING:
    from .complex import SimplicialComplex

CG_RTOL = 1e-12
CG_MAX_ITER_PER_UNKNOWN = 10


class InnerProductWeights:
    """Finite, strictly positive diagonal weights per non-negative chain dimension.

    Dimensions without an explicit vector use the standard (all-ones)
    inner product.
    """

    def __init__(self, weights: Mapping[int, "np.ndarray | list[float]"] | None = None):
        self._weights: dict[int, np.ndarray] = {}
        for dim, values in (weights or {}).items():
            if type(dim) is bool or not isinstance(dim, (int, np.integer)) or dim < 0:
                raise ValueError(f"weights dimension {dim!r} is negative or not an integer")
            shape, leaves = _entries(values)
            if len(shape) != 1:
                raise ShapeMismatch(f"weights for dimension {dim} must be a vector")
            if (vec := _finite_reals(leaves)) is None or not (vec > 0).all():
                raise ValueError(f"weights for dimension {dim} must be finite and positive")
            self._weights[int(dim)] = vec

    @classmethod
    def ones(cls) -> InnerProductWeights:
        return cls()

    def vector(self, n: int, length: int) -> np.ndarray:
        vec = self._weights.get(n)
        if vec is None:
            return np.ones(length)
        if len(vec) != length:
            raise ShapeMismatch(
                f"dimension {n} has {length} simplices but {len(vec)} weights"
            )
        return vec


@dataclass(frozen=True, eq=False)
class HodgeOperators:
    """Up, down, and combined Laplacians at one dimension.

    weight_vector is the diagonal inner product on this dimension's space.
    from_below and from_above are the maps S into this space whose products
    S S* give down and up, shaped (size, N_(n-1)) and (size, N_(n+1)); their
    images hold the irrotational and solenoidal parts of a signal.  They
    are None where the complex ends.
    """

    dimension: int
    up: SparseMatrix
    down: SparseMatrix
    full: SparseMatrix
    weight_vector: np.ndarray
    from_below: SparseMatrix | None = None
    from_above: SparseMatrix | None = None

    @property
    def size(self) -> int:
        return self.full.rows


def inner_product(
    x: Cochain, y: Cochain, w: InnerProductWeights | None = None
) -> float:
    """Weighted dot product of two real cochains of the same dimension."""
    if x.field is not Field.REAL or y.field is not Field.REAL:
        raise FieldMismatch("inner_product needs real cochains")
    if x.dimension != y.dimension:
        raise ShapeMismatch(f"dimensions differ: {x.dimension} vs {y.dimension}")
    if len(x) != len(y):
        raise ShapeMismatch(f"lengths differ: {len(x)} vs {len(y)}")
    weights = (w or InnerProductWeights.ones()).vector(x.dimension, len(x))
    return float(np.sum(weights * x.values * y.values))


def _adjoint(a: SparseMatrix, w_src: np.ndarray, w_dst: np.ndarray) -> SparseMatrix:
    """Adjoint W_src^(-1) a^T W_dst of a map a from the w_src to the w_dst space."""
    scaled = a.data * w_dst[a.row] / w_src[a.col]
    return SparseMatrix.from_coo(a.cols, a.rows, a.col, a.row, scaled, Field.REAL)


def _assemble(
    n: int,
    w_n: np.ndarray,
    below: tuple[SparseMatrix, SparseMatrix] | None,
    above: tuple[SparseMatrix, SparseMatrix] | None,
) -> HodgeOperators:
    """Laplacians from an (S, S*) pair per side; None contributes a zero block."""
    zero = SparseMatrix.zeros(len(w_n), len(w_n), Field.REAL)
    down = compose(*below) if below else zero
    up = compose(*above) if above else zero
    from_below, from_above = below and below[0], above and above[0]
    return HodgeOperators(n, up, down, add(up, down), w_n, from_below, from_above)


def _sides(n: int, w: InnerProductWeights | None, size: Callable[[int], int], maps: dict) -> tuple:
    """Weights on dimension n, and the (S, S*) pair below and above (None past an end).
    maps holds the stored maps between n and n +- 1 by (source, target) dimension, and
    size(k) is the length of dimension k; S follows the module docstring's rule."""
    w = w or InnerProductWeights.ones()
    ws, sides = {n: w.vector(n, size(n))}, {}
    for (src, dst), a in maps.items():
        far = src + dst - n
        ws[far] = w.vector(far, size(far))
        adj = _adjoint(a, ws[src], ws[dst])
        sides[far] = (a, adj) if dst == n else (adj, a)
    return ws[n], sides.get(n - 1), sides.get(n + 1)


def adjoint_boundary(
    c: SimplicialComplex, n: int, w: InnerProductWeights | None = None
) -> SparseMatrix:
    """Adjoint of the n-th boundary map for the weighted inner products.

    Computes W_n^(-1) d_n^T W_(n-1), the S of the n-chains' side below;
    with all-ones weights this is exactly the transpose.
    """
    return _sides(n, w, c.n_simplices, {(n, n - 1): boundary_matrix(c, n, Field.REAL)})[1][0]


def hodge_laplacian(
    c: SimplicialComplex, n: int, w: InnerProductWeights | None = None
) -> HodgeOperators:
    """Assemble up, down, and combined Laplacians on the n-chains.

    down = d_n* d_n and up = d_(n+1) d_(n+1)*, adjoints taken on the chain
    side (d* = W_n^(-1) d^T W_(n-1)).  Missing boundary maps (below
    dimension 0, above the top dimension) contribute zero blocks.
    """
    return _assemble(n, *_sides(n, w, c.n_simplices, _boundaries(c, n)))


def _boundaries(c: SimplicialComplex, n: int) -> dict:
    """d_(n+1) and d_n where the complex has them, by (source, target) dimension."""
    if not 0 <= n <= c.max_dim:
        raise DimensionOutOfRange(f"dimension {n} outside 0..{c.max_dim}")
    return {(k, k - 1): boundary_matrix(c, k, Field.REAL) for k in (n + 1, n) if 1 <= k <= c.max_dim}


def hodge_spectrum(c: SimplicialComplex, n: int) -> np.ndarray:
    """Ascending eigenvalues of the unweighted L_n by the module docstring's split, L_n unbuilt:
    b_n exact 0.0s (rational b_n, as betti), then values within ~1e-14 lambda_max of the full solver's."""
    maps = {k: d for (k, _), d in _boundaries(c, n).items()}
    high = sorted(k for k in maps if k >= 2)
    rank = dict(zip(high, _ranks([maps[k] for k in high], Field.REAL)))
    if 1 in maps:  # rank d_1 = |V| - #components, as in betti
        rank[1] = c.n_simplices(0) - connected_components(c)
    parts = [np.zeros(0)]
    for k, d in maps.items():
        gram = compose(d, transpose(d)) if d.rows <= d.cols else compose(transpose(d), d)
        parts.append(eigenvalues(gram)[gram.rows - rank[k] :])
    nonzero = np.sort(np.concatenate(parts))
    return np.concatenate([np.zeros(c.n_simplices(n) - len(nonzero)), nonzero])


def symmetrized(ops: HodgeOperators) -> SparseMatrix:
    """W^(1/2) L W^(-1/2): symmetric, same spectrum as the full Laplacian."""
    m, sqrt_w = ops.full, np.sqrt(ops.weight_vector)
    scaled = m.data * sqrt_w[m.row] / sqrt_w[m.col]
    return SparseMatrix.from_coo(m.rows, m.cols, m.row, m.col, scaled, Field.REAL)


def harmonic_basis(ops: HodgeOperators, tol: float | None = None) -> list[Cochain]:
    """Orthonormal basis of the Laplacian kernel (the harmonic space).

    Eigenvectors with eigenvalue at most tol are harmonic; tol must be finite
    and non-negative (else ValueError) and defaults to 1e-8 times the largest
    eigenvalue.  Orthonormality is for the weighted inner product.
    """
    _check_tol(tol)
    basis = eigendecompose(symmetrized(ops), dimension=ops.dimension)
    threshold = tol if tol is not None else HARMONIC_RTOL * basis.lambda_max
    inv_sqrt_w = 1.0 / np.sqrt(ops.weight_vector)
    out = []
    for k in range(basis.size):
        if basis.eigenvalues[k] <= threshold:
            out.append(Cochain(ops.dimension, inv_sqrt_w * basis.eigenvectors[:, k]))
    return out


def _weighted_projection(b: SparseMatrix, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W-orthogonal projection b x of s onto the image of b.

    x solves b^T W b x = b^T W s by conjugate gradients from x = 0, with
    sparse mat-vecs.  The stop bound on the residual is CG_RTOL times
    |b|^T W |s|, the size of the terms summed into the right-hand side, so
    a right-hand side that is only rounding stops at once.  A non-positive
    curvature, or CG_MAX_ITER_PER_UNKNOWN iterations per unknown without
    meeting the bound, raises NumericalFailure.
    """

    def b_times(v: np.ndarray) -> np.ndarray:
        return np.bincount(b.row, b.data * v[b.col], b.rows)

    def bt_times(y: np.ndarray, data: np.ndarray = b.data) -> np.ndarray:
        return np.bincount(b.col, data * y[b.row], b.cols)

    x, r = np.zeros(b.cols), bt_times(w * s)
    stop = (CG_RTOL * np.linalg.norm(bt_times(w * np.abs(s), np.abs(b.data)))) ** 2
    p, rr = r.copy(), float(r @ r)
    for _ in range(CG_MAX_ITER_PER_UNKNOWN * b.cols):
        if rr <= stop:
            break
        ap = bt_times(w * b_times(p))
        curvature = float(p @ ap)
        if not curvature > 0:
            raise NumericalFailure("conjugate gradients met a non-positive curvature")
        alpha = rr / curvature
        x += alpha * p
        r -= alpha * ap
        rr, rr_old = float(r @ r), rr
        p = r + (rr / rr_old) * p
    if not rr <= stop:
        raise NumericalFailure("conjugate gradients did not converge")
    return b_times(x)


def hodge_decompose(
    s: Cochain,
    c: SimplicialComplex,
    n: int,
    w: InnerProductWeights | None = None,
    tol: float = 1e-8,
) -> tuple[Cochain, Cochain, Cochain]:
    """Split a signal into irrotational, harmonic, and solenoidal parts.

    The irrotational part lives in the image of the adjoint boundary from
    below, the solenoidal part in the image of the boundary from above,
    and the harmonic remainder in the Laplacian kernel.  Each image part is
    a weighted least-squares projection solved by conjugate gradients
    (see _weighted_projection).  The parts are mutually orthogonal for the
    weighted inner product; tol bounds both the allowed orthogonality
    defect (relative to |s|^2) and the kernel residual of the harmonic part
    (relative to |s|), and violations raise NumericalFailure, as does a NaN
    or infinity in the signal.  The work is done on s divided by a power of
    two that brings its largest entry into [0.5, 1), so scaling s by a
    power of two scales the parts exactly.  A NaN, infinite or negative tol
    raises ValueError, and a GF(2) signal FieldMismatch.
    """
    _check_tol(tol)
    if s.field is not Field.REAL:
        raise FieldMismatch("hodge_decompose needs a real cochain")
    if s.dimension != n:
        raise ShapeMismatch(f"signal dimension {s.dimension} != {n}")
    if len(s) != c.n_simplices(n):
        raise ShapeMismatch(
            f"signal length {len(s)} != {c.n_simplices(n)} simplices"
        )
    if not np.all(np.isfinite(s.values)):
        raise NumericalFailure("signal has a NaN or infinite value")
    w_n, below, above = _sides(n, w, c.n_simplices, _boundaries(c, n))
    exponent = int(np.frexp(np.max(np.abs(s.values), initial=0.0))[1])
    values = np.ldexp(s.values, -exponent)

    irrot, solenoid = (
        np.zeros_like(values) if side is None else _weighted_projection(side[0], values, w_n)
        for side in (below, above)
    )
    harmonic = values - irrot - solenoid

    norm_sq = float(np.sum(w_n * values * values))
    pair_bound = tol * norm_sq
    for a, b in ((irrot, harmonic), (irrot, solenoid), (harmonic, solenoid)):
        if not abs(float(np.sum(w_n * a * b))) <= pair_bound + 1e-300:
            raise NumericalFailure("decomposition parts are not orthogonal")
    h = Cochain(n, harmonic)  # L h is the sum of S (S* h) over the sides; L is not assembled
    residual = sum(apply(m, apply(m_adj, h)).values for m, m_adj in filter(None, (below, above)))
    if not np.linalg.norm(residual) <= tol * np.linalg.norm(values) + 1e-300:
        raise NumericalFailure("harmonic part is not in the Laplacian kernel")

    return tuple(Cochain(n, np.ldexp(part, exponent)) for part in (irrot, harmonic, solenoid))


def gradient(c: SimplicialComplex, f: Cochain) -> Cochain:
    """Finite differences of a vertex function along the oriented edges."""
    if f.dimension != 0:
        raise ShapeMismatch(f"gradient needs a vertex signal, got dimension {f.dimension}")
    if len(f) != c.n_simplices(0):
        raise ShapeMismatch(f"signal length {len(f)} != {c.n_simplices(0)} vertices")
    return apply(coboundary_matrix(c, 0, Field.REAL), f, result_dim=1)
