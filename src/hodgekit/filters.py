"""Polynomial filters in the up and down Hodge Laplacians.

Because the up and down parts annihilate each other (a consequence of the
boundary-of-boundary identity), the two polynomial branches can be
evaluated independently and filter irrotational and solenoidal content
separately.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .chains import Cochain, Field, SparseMatrix, _finite_reals, apply
from .errors import FieldMismatch, ShapeMismatch
from .hodge import HodgeOperators

MAX_DEGREE = 64
MAGNITUDE_WARN = 1e12


@dataclass(frozen=True)
class FilterSpec:
    """Filter coefficients: constant, down-branch, and up-branch powers.

    down_coeffs[j-1] weighs (L_down)^j and up_coeffs[k-1] weighs (L_up)^k;
    the constant alpha0 weighs the identity.
    """

    dimension: int
    alpha0: float = 0.0
    down_coeffs: tuple[float, ...] = field(default_factory=tuple)
    up_coeffs: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if _finite_reals([self.alpha0, *self.down_coeffs, *self.up_coeffs]) is None:
            raise ValueError("filter coefficients must be finite")
        object.__setattr__(self, "down_coeffs", tuple(map(float, self.down_coeffs)))
        object.__setattr__(self, "up_coeffs", tuple(map(float, self.up_coeffs)))
        degree = max(len(self.down_coeffs), len(self.up_coeffs))
        if degree > MAX_DEGREE:
            raise ValueError(f"filter degree {degree} exceeds {MAX_DEGREE}")


def _evaluate(
    spec: FilterSpec,
    ops: HodgeOperators,
    x: np.ndarray,
    operator: Callable[[SparseMatrix], Callable[[np.ndarray], np.ndarray]],
) -> np.ndarray:
    """alpha0 x plus each branch's polynomial times x, by Horner's rule.

    operator(L) is the product v -> L v.  A branch of degree K costs K
    products, acc = L (acc + c_k x) from the highest k down.
    """
    if spec.dimension != ops.dimension:
        raise ShapeMismatch(
            f"filter dimension {spec.dimension} != operators dimension {ops.dimension}"
        )
    out = spec.alpha0 * x
    for laplacian, coeffs in ((ops.down, spec.down_coeffs), (ops.up, spec.up_coeffs)):
        multiply, acc = operator(laplacian), np.zeros_like(x)
        for coeff in reversed(coeffs):
            acc = multiply(acc + coeff * x)
        out = out + acc
    return out


def _warn_magnitude(text: str) -> None:
    warnings.warn(
        f"filter {text}; iterated Laplacian powers grow as lambda_max^k",
        RuntimeWarning,
        stacklevel=3,
    )


def build_filter(spec: FilterSpec, ops: HodgeOperators) -> SparseMatrix:
    """The filter matrix H, evaluated on the identity with dense products.

    Costs n^2 memory and K n^3 time; filter_signal applies the same
    polynomial to one signal without forming H.  H drops every entry of magnitude
    at most REAL_ZERO_TOL (1e-12), as each SparseMatrix does, so a filter whose
    coefficients are all that small is zero here, where filter_signal is exact.
    """
    h = _evaluate(spec, ops, np.eye(ops.size), lambda m: partial(np.matmul, m.toarray()))
    if h.size and np.max(np.abs(h)) > MAGNITUDE_WARN:
        _warn_magnitude("matrix magnitude exceeds 1e12")
    return SparseMatrix.from_dense(h, Field.REAL)


def filter_signal(spec: FilterSpec, ops: HodgeOperators, s: Cochain) -> Cochain:
    """H s by sparse mat-vecs with the Laplacians, without forming H.

    Warns when the output peak is above 1e12 times the input peak or is not
    finite.  A GF(2) signal raises FieldMismatch.
    """
    if s.field is not Field.REAL:
        raise FieldMismatch("filter_signal needs a real cochain")
    if len(s) != ops.size:
        raise ShapeMismatch(f"operators have size {ops.size}, cochain length {len(s)}")
    out = _evaluate(
        spec, ops, s.values, lambda m: lambda v: apply(m, Cochain(s.dimension, v, s.field)).values
    )
    scale = np.max(np.abs(s.values), initial=0.0)
    if not np.max(np.abs(out), initial=0.0) <= MAGNITUDE_WARN * scale:
        _warn_magnitude("output magnitude exceeds 1e12 times the input's")
    return Cochain(s.dimension, out, s.field)


def apply_filter(h: SparseMatrix, s: Cochain) -> Cochain:
    """Filter a signal: plain matrix-vector product."""
    return apply(h, s)


def shift(ops: HodgeOperators, s: Cochain, d: int = 1) -> Cochain:
    """Apply the combined Laplacian d times (the simplicial shift)."""
    if d < 1:
        raise ValueError(f"shift count must be positive, got {d}")
    out = s
    for _ in range(d):
        out = apply(ops.full, out)
    return out
