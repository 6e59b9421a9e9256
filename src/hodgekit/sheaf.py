"""Cellular sheaves: stalks, restriction maps, coboundaries, Laplacians.

A sheaf attaches a real vector space (stalk) to every simplex and a linear
restriction map to every face-to-coface incidence.  Validation rejects
sheaves whose restriction maps fail to commute around codimension-2
incidences, since those would not produce a cochain complex.  The sheaf
coboundary generalizes the signed simplicial coboundary: the block for an
incident pair carries the same (-1)**i incidence sign, so the constant
sheaf with identity maps reproduces the simplicial operators exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .chains import Field, SparseMatrix, _runs
from .complex import Simplex
from .errors import (
    DimensionOutOfRange,
    InconsistentSheaf,
    MissingRestriction,
    MissingStalk,
    ShapeMismatch,
    UnknownSimplex,
)
from .hodge import HodgeOperators, InnerProductWeights, _adjoint, _assemble
from .homology import rank_real

if TYPE_CHECKING:
    from .complex import SimplicialComplex

COMMUTE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Assignment:
    """Per-simplex stalk vectors stacked in canonical simplex order."""

    dimension: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float64)
        )

    def __len__(self) -> int:
        return len(self.values)


class Sheaf:
    """Validated sheaf over a simplicial complex.

    stalk_dims must cover every simplex of the complex.  restrictions maps
    (face, coface) pairs to arrays of shape (stalk(coface), stalk(face));
    pairs where either stalk is zero-dimensional may be omitted.
    """

    def __init__(
        self,
        c: SimplicialComplex,
        stalk_dims: Mapping[Simplex | Iterable[int], int],
        restrictions: Mapping[tuple, "np.ndarray | list"],
    ):
        self.complex = c
        self._stalks: dict[Simplex, int] = {}
        for key, dim in stalk_dims.items():
            s = key if isinstance(key, Simplex) else Simplex(tuple(key))
            if s not in c:
                raise UnknownSimplex(f"stalk given for {s}, which is not in the complex")
            if not isinstance(dim, (int, np.integer)) or dim < 0:
                raise ValueError(f"stalk dimension for {s} must be a non-negative integer")
            self._stalks[s] = int(dim)
        for n in range(c.max_dim + 1):
            for s in c.simplices(n):
                if s not in self._stalks:
                    raise MissingStalk(f"no stalk dimension for {s}")

        self._maps: dict[tuple[Simplex, Simplex], np.ndarray] = {}
        for (face_key, coface_key), matrix in restrictions.items():
            face = face_key if isinstance(face_key, Simplex) else Simplex(tuple(face_key))
            coface = (
                coface_key if isinstance(coface_key, Simplex) else Simplex(tuple(coface_key))
            )
            if face not in c or coface not in c:
                raise UnknownSimplex(f"restriction for ({face}, {coface}) not in the complex")
            if coface.dimension != face.dimension + 1 or not set(
                face.vertices
            ).issubset(coface.vertices):
                raise ValueError(f"({face}, {coface}) is not an incident pair")
            arr = np.asarray(matrix, dtype=np.float64)
            expected = (self._stalks[coface], self._stalks[face])
            if arr.size == expected[0] * expected[1]:
                arr = arr.reshape(expected)
            if arr.shape != expected:
                raise ShapeMismatch(
                    f"restriction ({face}, {coface}) has shape {arr.shape}, "
                    f"expected {expected}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"restriction ({face}, {coface}) has a non-finite entry")
            self._maps[(face, coface)] = arr

        for n in range(1, c.max_dim + 1):
            for coface in c.simplices(n):
                for face in coface.faces():
                    if (face, coface) in self._maps:
                        continue
                    rows, cols = self._stalks[coface], self._stalks[face]
                    if rows == 0 or cols == 0:
                        self._maps[(face, coface)] = np.zeros((rows, cols))
                    else:
                        raise MissingRestriction(f"no restriction map for ({face}, {coface})")

        self._check_commutativity()

    def _check_commutativity(self) -> None:
        """Both paths rho > tau > sigma to each codimension-2 face must agree."""
        c = self.complex
        for k in range(2, c.max_dim + 1):
            for rho in c.simplices(k):
                paths: dict[Simplex, list[np.ndarray]] = {}
                for tau in rho.faces():
                    for sigma in tau.faces():
                        paths.setdefault(sigma, []).append(
                            self._maps[(tau, rho)] @ self._maps[(sigma, tau)]
                        )
                for sigma, (first, second) in paths.items():
                    defect = np.max(np.abs(first - second), initial=0.0)
                    if not defect <= COMMUTE_TOL:
                        raise InconsistentSheaf(
                            f"restriction maps do not commute between {sigma} and {rho}"
                        )

    def stalk_dim(self, s: Simplex) -> int:
        return self._stalks[s]

    def restriction(self, face: Simplex, coface: Simplex) -> np.ndarray:
        try:
            return self._maps[(face, coface)]
        except KeyError:
            raise MissingRestriction(f"no restriction map for ({face}, {coface})") from None

    def offsets(self, n: int) -> np.ndarray:
        """Start offset of each n-simplex's block in the stacked vector."""
        dims = [self._stalks[s] for s in self.complex.simplices(n)]
        return np.concatenate([[0], np.cumsum(dims)]).astype(int)

    def total_dim(self, n: int) -> int:
        return int(self.offsets(n)[-1])


def constant_sheaf(c: SimplicialComplex) -> Sheaf:
    """Rank-1 stalks with identity restrictions everywhere."""
    stalks = {s: 1 for n in range(c.max_dim + 1) for s in c.simplices(n)}
    maps = {}
    for n in range(1, c.max_dim + 1):
        for coface in c.simplices(n):
            for face in coface.faces():
                maps[(face, coface)] = np.eye(1)
    return Sheaf(c, stalks, maps)


def sheaf_coboundary(c: SimplicialComplex, sh: Sheaf, n: int) -> SparseMatrix:
    """Block coboundary from dim-n stalks to dim-(n+1) stalks.

    The block for an incident pair is the restriction map times the signed
    incidence number (-1)**i of that pair, i being the deleted-vertex
    position; this is the unique sign choice consistent with the two-step
    coboundary vanishing in every dimension.
    """
    if not 0 <= n <= c.max_dim:
        raise DimensionOutOfRange(f"dimension {n} outside 0..{c.max_dim}")
    cols = sh.total_dim(n)
    if n == c.max_dim:
        return SparseMatrix.zeros(0, cols, Field.REAL)
    row_off = sh.offsets(n + 1)
    col_off = sh.offsets(n)
    blocks, values = [], []
    for j, coface in enumerate(c.simplices(n + 1)):
        for i, face in enumerate(coface.faces()):
            block = sh.restriction(face, coface)
            blocks.append((row_off[j], col_off[c.index(face)], *block.shape))
            values.append((-1) ** i * block.ravel())
    r0, c0, p, q = np.array(blocks).T
    block_of, slot = _runs(p * q)
    down, across = np.divmod(slot, q[block_of])
    row, col = r0[block_of] + down, c0[block_of] + across
    return SparseMatrix.from_coo(row_off[-1], cols, row, col, np.concatenate(values), Field.REAL)


def check_consistency(
    c: SimplicialComplex, sh: Sheaf, x: Assignment, tol: float = 1e-9
) -> tuple[bool, Assignment]:
    """Residual of an assignment under the sheaf coboundary.

    A zero residual means the data agrees across every shared coface; the
    returned assignment lives on the (n+1)-simplices.
    """
    n = x.dimension
    if len(x) != sh.total_dim(n):
        raise ShapeMismatch(
            f"assignment length {len(x)} != stalk total {sh.total_dim(n)}"
        )
    delta = sheaf_coboundary(c, sh, n)
    residual = delta.toarray() @ x.values
    consistent = bool(np.max(np.abs(residual), initial=0.0) <= tol)
    return consistent, Assignment(n + 1, residual)


def sheaf_cohomology_dims(
    c: SimplicialComplex, sh: Sheaf, tol: float | None = None
) -> list[int]:
    """Cohomology dimensions: kernel of one coboundary minus image of the last."""
    dims = []
    prev_rank = 0
    for n in range(c.max_dim + 1):
        profile = rank_real(sheaf_coboundary(c, sh, n), tol)
        dims.append(profile.nullity - prev_rank)
        prev_rank = profile.rank
    return dims


def sheaf_laplacian(
    c: SimplicialComplex,
    sh: Sheaf,
    n: int,
    w: InnerProductWeights | None = None,
) -> HodgeOperators:
    """Up, down, and combined sheaf Laplacians on the dim-n stalk space.

    down = delta_(n-1) delta_(n-1)* and up = delta_n* delta_n, adjoints
    taken on the cochain side (delta* = W_n^(-1) delta^T W_(n+1)).  Weights
    are stalk-level diagonal inner products per dimension (length equal to
    the stacked stalk dimension).  With the constant sheaf and standard
    weights this is exactly the simplicial Hodge Laplacian; with weights W
    it is the transpose of hodge_laplacian(c, n, W^(-1)).
    """
    if not 0 <= n <= c.max_dim:
        raise DimensionOutOfRange(f"dimension {n} outside 0..{c.max_dim}")
    w = w or InnerProductWeights.ones()
    w_n = w.vector(n, sh.total_dim(n))
    below = above = None
    if n < c.max_dim:
        d = sheaf_coboundary(c, sh, n)
        above = (_adjoint(d, w_n, w.vector(n + 1, sh.total_dim(n + 1))), d)
    if n >= 1:
        d = sheaf_coboundary(c, sh, n - 1)
        below = (d, _adjoint(d, w.vector(n - 1, sh.total_dim(n - 1)), w_n))
    return _assemble(n, w_n, below, above)
