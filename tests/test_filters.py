"""Polynomial filters: construction, shift semantics, algebraic properties."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hodgekit import (
    Cochain,
    Field,
    FilterSpec,
    InnerProductWeights,
    apply_filter,
    build_complex,
    build_filter,
    compose,
    eigendecompose,
    filter_signal,
    harmonic_basis,
    hodge_laplacian,
    sheaf_laplacian,
    shift,
)
from hodgekit import generators as gen
from hodgekit.chains import REAL_ZERO_TOL
from hodgekit.filters import MAGNITUDE_WARN
from hodgekit.errors import FieldMismatch, ShapeMismatch

from conftest import CORPUS, gauge_sheaf, random_clique_complex

TORUS_OPS = hodge_laplacian(CORPUS["torus7"], 1)


def random_filter(rng, dimension, degree=3) -> FilterSpec:
    return FilterSpec(
        dimension,
        float(rng.standard_normal()),
        tuple(rng.standard_normal(int(rng.integers(0, degree + 1)))),
        tuple(rng.standard_normal(int(rng.integers(0, degree + 1)))),
    )


def test_constant_filter_is_identity():
    h = build_filter(FilterSpec(1, alpha0=1.0), TORUS_OPS)
    assert np.array_equal(h.toarray(), np.eye(TORUS_OPS.size))


def test_degree_one_both_branches_gives_laplacian():
    h = build_filter(FilterSpec(1, 0.0, (1.0,), (1.0,)), TORUS_OPS)
    assert np.allclose(h.toarray(), TORUS_OPS.full.toarray(), atol=1e-12)


def test_down_square_matches_composition():
    h = build_filter(FilterSpec(1, 0.0, (0.0, 1.0), ()), TORUS_OPS)
    direct = compose(TORUS_OPS.down, TORUS_OPS.down)
    assert np.allclose(h.toarray(), direct.toarray(), atol=1e-10)


def test_filter_dimension_mismatch():
    with pytest.raises(ShapeMismatch):
        build_filter(FilterSpec(0, alpha0=1.0), TORUS_OPS)


def test_degree_cap():
    with pytest.raises(ValueError):
        FilterSpec(1, 0.0, tuple([0.0] * 65), ())


def test_magnitude_warning():
    spec = FilterSpec(1, 0.0, (), tuple([0.0] * 19 + [1.0]))
    with pytest.warns(RuntimeWarning):
        build_filter(spec, TORUS_OPS)


def test_filter_signal_magnitude_warning():
    s = Cochain(1, np.random.default_rng(8).standard_normal(TORUS_OPS.size))
    with pytest.warns(RuntimeWarning, match="magnitude exceeds 1e12"):
        filter_signal(FilterSpec(1, 0.0, (), tuple([0.0] * 19 + [1.0])), TORUS_OPS, s)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warning
        with pytest.warns(RuntimeWarning, match="magnitude exceeds 1e12"):
            huge = Cochain(1, 1e300 * s.values)
            filter_signal(FilterSpec(1, 0.0, (1e300, 1e300)), TORUS_OPS, huge)


def test_filter_signal_is_silent_on_benchmark_like_spec():
    rng = np.random.default_rng(9)
    spec = FilterSpec(1, 0.75, (0.3, -0.02, 0.004), (-0.1, 0.05, -0.001))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filter_signal(spec, TORUS_OPS, Cochain(1, rng.standard_normal(TORUS_OPS.size)))
        filter_signal(spec, TORUS_OPS, Cochain(1, np.zeros(TORUS_OPS.size)))


def test_filter_signal_errors():
    with pytest.raises(ShapeMismatch):
        filter_signal(FilterSpec(0, alpha0=1.0), TORUS_OPS, Cochain(1, np.zeros(TORUS_OPS.size)))
    with pytest.raises(ShapeMismatch):
        filter_signal(FilterSpec(1, alpha0=1.0), TORUS_OPS, Cochain(1, np.zeros(3)))


def test_filter_signal_and_shift_refuse_a_cochain_of_another_dimension():
    """A 5-cycle has 5 vertices and 5 edges: a vertex signal has the edge operators' size."""
    ops = hodge_laplacian(build_complex(gen.cycle(5)), 1)
    vertex_signal = Cochain(0, [-0.5, 4.0, 2.5, 3.0, 7.0])
    with pytest.raises(ShapeMismatch, match="^cochain dimension 0 != 1$"):
        filter_signal(FilterSpec(1, 0.5, (1.0,), (1.0,)), ops, vertex_signal)
    with pytest.raises(ShapeMismatch, match="^cochain dimension 0 != 1$"):
        shift(ops, vertex_signal)


@pytest.mark.parametrize("down", [(), (1.0,)])
def test_filter_signal_refuses_a_gf2_signal(down):
    """Refused whether or not the filter has a Laplacian term to apply."""
    g = Cochain(1, np.ones(TORUS_OPS.size), Field.GF2)
    with pytest.raises(FieldMismatch, match="^filter_signal needs a real cochain$"):
        filter_signal(FilterSpec(1, 1.0, down), TORUS_OPS, g)


def operator_cases():
    """(name, ops) pairs: weighted and unweighted simplicial, and sheaf Laplacians."""
    torus = CORPUS["torus7"]
    rng = np.random.default_rng(41)
    weights = InnerProductWeights({n: 0.5 + rng.random(torus.n_simplices(n)) for n in range(3)})
    sheaf = gauge_sheaf(torus, seed=3)
    clique = random_clique_complex(np.random.default_rng(2), 10, 0.6)
    cases = []
    for n in range(3):
        cases += [
            (f"torus7-{n}", hodge_laplacian(torus, n)),
            (f"torus7-weighted-{n}", hodge_laplacian(torus, n, weights)),
            (f"gauge-sheaf-{n}", sheaf_laplacian(torus, sheaf, n)),
            (f"clique-{n}", hodge_laplacian(clique, n)),
        ]
    return cases


OPERATOR_CASES = operator_cases()
COEFFS = st.lists(st.floats(-2, 2, allow_nan=False), max_size=8)


GAUGE_SHEAF_0 = next(case for case in OPERATOR_CASES if case[0] == "gauge-sheaf-0")


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(OPERATOR_CASES),
    alpha0=st.floats(-2, 2, allow_nan=False),
    down=COEFFS,
    up=COEFFS,
    seed=st.integers(0, 2**32 - 1),
)
# lambda_max is about 28 here, so 2 L^8 s peaks above 1e12 times s: filter_signal warns.
@example(case=GAUGE_SHEAF_0, alpha0=0.0, down=[], up=[0.0] * 7 + [2.0], seed=5)
def test_filter_signal_matches_built_matrix(case, alpha0, down, up, seed):
    _, ops = case
    spec = FilterSpec(ops.dimension, alpha0, tuple(down), tuple(up))
    s = Cochain(ops.dimension, np.random.default_rng(seed).standard_normal(ops.size))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        h = build_filter(spec, ops)
        want = apply_filter(h, s).values
        got = filter_signal(spec, ops, s).values
    # Each warning is a documented magnitude warning, given exactly where its condition holds.
    conditions = {
        "matrix magnitude exceeds 1e12": np.max(np.abs(h.data), initial=0.0) > MAGNITUDE_WARN,
        "output magnitude exceeds 1e12 times the input's":
            not np.max(np.abs(got), initial=0.0) <= MAGNITUDE_WARN * np.max(np.abs(s.values)),
    }
    expected = [f"filter {text}; iterated Laplacian powers grow as lambda_max^k"
                for text, holds in conditions.items() if holds]
    assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, m) for m in expected]
    # The built H drops entries of magnitude at most REAL_ZERO_TOL, which
    # moves each output entry by at most REAL_ZERO_TOL * |s|_1.
    dropped = REAL_ZERO_TOL * np.sqrt(ops.size) * np.sum(np.abs(s.values))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want) + dropped


def test_tiny_filter_is_zero_as_a_matrix_but_exact_on_a_signal():
    spec = FilterSpec(1, alpha0=1e-13)
    s = Cochain(1, np.random.default_rng(10).standard_normal(TORUS_OPS.size))
    assert build_filter(spec, TORUS_OPS).nnz == 0
    assert np.array_equal(filter_signal(spec, TORUS_OPS, s).values, 1e-13 * s.values)


def test_apply_filter_identity_and_errors():
    h = build_filter(FilterSpec(1, alpha0=1.0), TORUS_OPS)
    s = Cochain(1, np.arange(TORUS_OPS.size, dtype=float))
    assert np.array_equal(apply_filter(h, s).values, s.values)
    with pytest.raises(ShapeMismatch):
        apply_filter(h, Cochain(1, np.zeros(3)))


def test_filters_annihilate_harmonics():
    rng = np.random.default_rng(14)
    harmonics = harmonic_basis(TORUS_OPS)
    assert len(harmonics) == 2
    for _ in range(10):
        spec = random_filter(rng, 1)
        spec = FilterSpec(1, 0.0, spec.down_coeffs, spec.up_coeffs)
        h = build_filter(spec, TORUS_OPS)
        for hv in harmonics:
            assert np.max(np.abs(apply_filter(h, hv).values), initial=0.0) <= 1e-8


def test_filter_acts_by_eigenvalue_on_eigenvectors():
    basis = eigendecompose(TORUS_OPS.full, dimension=1)
    h = build_filter(FilterSpec(1, 0.0, (1.0,), (1.0,)), TORUS_OPS)
    for k in (0, 5, basis.size - 1):
        u = Cochain(1, basis.eigenvectors[:, k])
        out = apply_filter(h, u)
        assert np.allclose(out.values, basis.eigenvalues[k] * u.values, atol=1e-9)


def test_shift_semantics():
    rng = np.random.default_rng(3)
    s = Cochain(1, rng.standard_normal(TORUS_OPS.size))
    once = shift(TORUS_OPS, s, 1)
    assert np.allclose(once.values, TORUS_OPS.full.toarray() @ s.values)
    twice = shift(TORUS_OPS, s, 2)
    chained = shift(TORUS_OPS, shift(TORUS_OPS, s, 1), 1)
    norm = np.linalg.norm(twice.values)
    assert np.linalg.norm(twice.values - chained.values) <= 1e-10 * max(norm, 1.0)
    with pytest.raises(ValueError):
        shift(TORUS_OPS, s, 0)


def test_shift_kills_harmonics():
    for hv in harmonic_basis(TORUS_OPS):
        assert np.max(np.abs(shift(TORUS_OPS, hv, 1).values)) <= 1e-10


def test_linearity():
    rng = np.random.default_rng(25)
    for _ in range(10):
        h = build_filter(random_filter(rng, 1), TORUS_OPS)
        s1 = Cochain(1, rng.standard_normal(TORUS_OPS.size))
        s2 = Cochain(1, rng.standard_normal(TORUS_OPS.size))
        a, b = rng.standard_normal(2)
        lhs = apply_filter(h, Cochain(1, a * s1.values + b * s2.values)).values
        rhs = a * apply_filter(h, s1).values + b * apply_filter(h, s2).values
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)


def test_shift_invariance():
    rng = np.random.default_rng(26)
    L = TORUS_OPS.full.toarray()
    for _ in range(10):
        h = build_filter(random_filter(rng, 1), TORUS_OPS).toarray()
        s = rng.standard_normal(TORUS_OPS.size)
        lhs = L @ (h @ s)
        rhs = h @ (L @ s)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(rhs), 1.0)


def test_commutativity():
    rng = np.random.default_rng(27)
    for _ in range(10):
        h1 = build_filter(random_filter(rng, 1), TORUS_OPS).toarray()
        h2 = build_filter(random_filter(rng, 1), TORUS_OPS).toarray()
        diff = h1 @ h2 - h2 @ h1
        scale = max(np.linalg.norm(h1 @ h2), 1.0)
        assert np.linalg.norm(diff) <= 1e-9 * scale


def test_up_down_cross_terms_vanish(corpus_complex):
    c = corpus_complex
    for n in range(c.max_dim + 1):
        ops = hodge_laplacian(c, n)
        up_down = ops.up.toarray() @ ops.down.toarray()
        down_up = ops.down.toarray() @ ops.up.toarray()
        assert np.max(np.abs(up_down), initial=0.0) <= 1e-10
        assert np.max(np.abs(down_up), initial=0.0) <= 1e-10


def test_single_polynomial_filter_diagonalizes():
    rng = np.random.default_rng(28)
    basis = eigendecompose(TORUS_OPS.full, dimension=1)
    for _ in range(5):
        coeffs = tuple(rng.standard_normal(3))
        spec = FilterSpec(1, float(rng.standard_normal()), coeffs, coeffs)
        h = build_filter(spec, TORUS_OPS).toarray()
        transformed = basis.eigenvectors.T @ h @ basis.eigenvectors
        off = transformed - np.diag(np.diag(transformed))
        assert np.max(np.abs(off)) <= 1e-7 * max(np.max(np.abs(h)), 1.0)


@pytest.mark.parametrize(
    "coeffs",
    [{"alpha0": float("nan")}, {"down_coeffs": (0.1, float("inf"))}, {"up_coeffs": (-float("inf"),)},
     {"down_coeffs": ("2",)}, {"down_coeffs": (True,)}, {"alpha0": "2"}, {"up_coeffs": (np.True_,)}],
)
def test_filter_spec_rejects_non_finite_coefficients(coeffs):
    with pytest.raises(ValueError, match="^filter coefficients must be finite$"):
        FilterSpec(1, **coeffs)
