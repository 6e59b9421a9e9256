"""Inner products, adjoints, Laplacians, harmonic spaces, decomposition."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgekit import (
    Cochain,
    Field,
    InnerProductWeights,
    adjoint_boundary,
    betti,
    boundary_matrix,
    build_complex,
    eigenvalues,
    gradient,
    harmonic_basis,
    hodge_decompose,
    hodge_laplacian,
    hodge_spectrum,
    inner_product,
    transpose,
)
from hodgekit import generators as gen
from hodgekit import hodge
from hodgekit.cli import main
from hodgekit.errors import DimensionOutOfRange, FieldMismatch, NumericalFailure, ShapeMismatch

from conftest import CORPUS, TORSION, random_clique_complex, random_complex

TRIANGLE_GRAPH = build_complex([[0, 1], [1, 2], [0, 2]])
FILLED = build_complex([[0, 1, 2]])
PATH4 = build_complex(gen.path(4))


def random_weights(c, rng) -> InnerProductWeights:
    return InnerProductWeights(
        {n: 0.5 + rng.random(c.n_simplices(n)) for n in range(c.max_dim + 1)}
    )


def test_inner_product_examples():
    assert inner_product(Cochain(0, [1, 2]), Cochain(0, [3, 4])) == 11
    w = InnerProductWeights({1: [2, 3, 4]})
    ones = Cochain(1, [1, 1, 1])
    assert inner_product(ones, ones, w) == 9
    assert inner_product(ones, Cochain(1, [0, 0, 0]), w) == 0


def test_inner_product_shape_errors():
    with pytest.raises(ShapeMismatch):
        inner_product(Cochain(0, [1, 2]), Cochain(0, [1, 2, 3]))
    with pytest.raises(ShapeMismatch):
        inner_product(Cochain(0, [1, 2]), Cochain(1, [1, 2]))
    with pytest.raises(ShapeMismatch):
        inner_product(
            Cochain(1, [1, 2]), Cochain(1, [1, 2]), InnerProductWeights({1: [1, 1, 1]})
        )


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan, "1", True, None])
def test_weights_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        InnerProductWeights({1: [bad, 1.0, 1.0]})


def test_inner_product_refuses_gf2_cochains():
    g = Cochain(1, np.ones(CORPUS["torus7"].n_simplices(1)), Field.GF2)
    with pytest.raises(FieldMismatch, match="^inner_product needs real cochains$"):
        inner_product(g, g)


def test_inner_product_refuses_a_gf2_cochain_beside_a_real_one():
    real, gf2 = Cochain(0, [1.0, 0.0]), Cochain(0, [1, 1], Field.GF2)
    for x, y in ((real, gf2), (gf2, real)):
        with pytest.raises(FieldMismatch, match="^inner_product needs real cochains$"):
            inner_product(x, y)


def test_adjoint_is_transpose_for_unit_weights():
    adj = adjoint_boundary(TRIANGLE_GRAPH, 1)
    d1t = transpose(boundary_matrix(TRIANGLE_GRAPH, 1, Field.REAL))
    assert np.array_equal(adj.toarray(), d1t.toarray())


def test_adjoint_scales_with_weights():
    w = InnerProductWeights({0: [2.0, 2.0, 2.0]})
    adj = adjoint_boundary(TRIANGLE_GRAPH, 1, w).toarray()
    d1t = transpose(boundary_matrix(TRIANGLE_GRAPH, 1, Field.REAL)).toarray()
    assert np.allclose(adj, 2.0 * d1t)


def test_adjoint_identity_random_pairs():
    rng = np.random.default_rng(17)
    c = CORPUS["torus7"]
    w = random_weights(c, rng)
    for n in (1, 2):
        d = boundary_matrix(c, n, Field.REAL).toarray()
        assert adjoint_boundary(c, n, w) == hodge_laplacian(c, n, w).from_below  # the S below
        adj = adjoint_boundary(c, n, w).toarray()
        for _ in range(100):
            x_hi = rng.standard_normal(c.n_simplices(n))
            x_lo = rng.standard_normal(c.n_simplices(n - 1))
            lhs = inner_product(Cochain(n - 1, d @ x_hi), Cochain(n - 1, x_lo), w)
            rhs = inner_product(Cochain(n, x_hi), Cochain(n, adj @ x_lo), w)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_adjoint_dimension_range():
    with pytest.raises(DimensionOutOfRange):
        adjoint_boundary(TRIANGLE_GRAPH, 2)


def test_laplacian_triangle_graph_golden():
    ops = hodge_laplacian(TRIANGLE_GRAPH, 0)
    expected = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert np.array_equal(ops.full.toarray(), expected)
    assert np.array_equal(ops.up.toarray(), expected)
    assert ops.down.nnz == 0


def test_l0_equals_degree_minus_adjacency():
    for name in ("hollow-triangle", "path4", "tree5", "star4", "cycle8"):
        c = CORPUS[name]
        l0 = hodge_laplacian(c, 0).full.toarray()
        d_minus_a = c.degree_matrix().toarray() - c.adjacency_matrix().toarray()
        assert np.array_equal(l0, d_minus_a), name


def test_path4_up_down_parts_match_display():
    down1 = hodge_laplacian(PATH4, 1).down.toarray()
    assert np.array_equal(down1, np.array([[2.0, -1, 0], [-1, 2, -1], [0, -1, 2]]))
    up0 = hodge_laplacian(PATH4, 0).up.toarray()
    assert np.array_equal(
        up0,
        np.array([[1.0, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]]),
    )


def test_full_is_up_plus_down(corpus_complex):
    c = corpus_complex
    for n in range(c.max_dim + 1):
        ops = hodge_laplacian(c, n)
        assert np.array_equal(
            ops.full.toarray(), ops.up.toarray() + ops.down.toarray()
        )


def test_laplacian_symmetric_psd_unit_weights(corpus_complex):
    c = corpus_complex
    for n in range(c.max_dim + 1):
        a = hodge_laplacian(c, n).full.toarray()
        assert np.array_equal(a, a.T)
        if a.size:
            eigenvalues = np.linalg.eigvalsh(a)
            lam_max = max(eigenvalues[-1], 1.0)
            assert eigenvalues[0] >= -1e-10 * lam_max


def test_weighted_laplacian_self_adjoint():
    rng = np.random.default_rng(4)
    c = CORPUS["torus7"]
    w = random_weights(c, rng)
    for n in range(3):
        a = hodge_laplacian(c, n, w).full.toarray()
        size = c.n_simplices(n)
        for _ in range(100):
            x = rng.standard_normal(size)
            y = rng.standard_normal(size)
            lhs = inner_product(Cochain(n, a @ x), Cochain(n, y), w)
            rhs = inner_product(Cochain(n, x), Cochain(n, a @ y), w)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_hodge_theorem_on_corpus(corpus_complex):
    c = corpus_complex
    b = betti(c)
    for n in range(c.max_dim + 1):
        assert len(harmonic_basis(hodge_laplacian(c, n))) == b[n]


def test_hodge_theorem_examples():
    assert len(harmonic_basis(hodge_laplacian(TRIANGLE_GRAPH, 1))) == 1
    assert len(harmonic_basis(hodge_laplacian(FILLED, 1))) == 0
    assert len(harmonic_basis(hodge_laplacian(CORPUS["torus7"], 1))) == 2


def test_harmonic_vectors_killed_by_both_parts(corpus_complex):
    c = corpus_complex
    for n in range(c.max_dim + 1):
        ops = hodge_laplacian(c, n)
        lam = np.linalg.eigvalsh(ops.full.toarray())
        scale = max(lam[-1], 1.0) if lam.size else 1.0
        for h in harmonic_basis(ops):
            assert np.max(np.abs(ops.up.toarray() @ h.values), initial=0.0) <= 1e-7 * scale
            assert np.max(np.abs(ops.down.toarray() @ h.values), initial=0.0) <= 1e-7 * scale


def test_harmonic_basis_constant_on_components():
    two = CORPUS["two-disjoint-triangles"]
    vecs = harmonic_basis(hodge_laplacian(two, 0))
    assert len(vecs) == 2
    pos = {v: i for i, v in enumerate(two.vertices)}
    comp_a = [pos[v] for v in (0, 1, 2)]
    comp_b = [pos[v] for v in (3, 4, 5)]
    for h in vecs:
        for block in (comp_a, comp_b):
            assert np.ptp(h.values[block]) <= 1e-10


def test_decompose_gradient_signal_on_tree():
    c = CORPUS["tree5"]
    rng = np.random.default_rng(2)
    f = rng.standard_normal(c.n_simplices(0))
    d1t = transpose(boundary_matrix(c, 1, Field.REAL)).toarray()
    s = Cochain(1, d1t @ f)
    irrot, harmonic, solenoid = hodge_decompose(s, c, 1)
    assert np.allclose(irrot.values, s.values, atol=1e-10)
    assert np.allclose(harmonic.values, 0.0, atol=1e-10)
    assert np.allclose(solenoid.values, 0.0, atol=1e-10)


def test_decompose_cycle_signal_is_harmonic():
    s = Cochain(1, [1.0, -1.0, 1.0])
    irrot, harmonic, solenoid = hodge_decompose(s, TRIANGLE_GRAPH, 1)
    assert np.allclose(harmonic.values, s.values, atol=1e-10)
    assert np.allclose(irrot.values, 0.0, atol=1e-10)
    assert np.allclose(solenoid.values, 0.0, atol=1e-10)


def test_decompose_zero_signal():
    s = Cochain(1, np.zeros(3))
    parts = hodge_decompose(s, TRIANGLE_GRAPH, 1)
    for part in parts:
        assert np.array_equal(part.values, np.zeros(3))


def test_decompose_properties_random_signals():
    rng = np.random.default_rng(31)
    names = ["hollow-triangle", "two-shared-edge", "torus7", "sphere2", "crosslinked-12-3"]
    for _ in range(20):
        for name in names:
            c = CORPUS[name]
            s = Cochain(1, rng.standard_normal(c.n_simplices(1)))
            irrot, harmonic, solenoid = hodge_decompose(s, c, 1)
            total = irrot.values + harmonic.values + solenoid.values
            norm = np.linalg.norm(s.values)
            assert np.linalg.norm(total - s.values) <= 1e-9 * norm
            for a, b in ((irrot, harmonic), (irrot, solenoid), (harmonic, solenoid)):
                assert abs(a.values @ b.values) <= 1e-8 * norm**2
            l1 = hodge_laplacian(c, 1).full.toarray()
            assert np.linalg.norm(l1 @ harmonic.values) <= 1e-8 * norm


def test_decompose_weighted_orthogonality():
    rng = np.random.default_rng(12)
    c = CORPUS["torus7"]
    w = random_weights(c, rng)
    weight_vec = w.vector(1, c.n_simplices(1))
    for _ in range(10):
        s = Cochain(1, rng.standard_normal(c.n_simplices(1)))
        irrot, harmonic, solenoid = hodge_decompose(s, c, 1, w)
        total = irrot.values + harmonic.values + solenoid.values
        assert np.allclose(total, s.values, atol=1e-9)
        norm_sq = float(np.sum(weight_vec * s.values**2))
        for a, b in ((irrot, harmonic), (irrot, solenoid), (harmonic, solenoid)):
            assert abs(np.sum(weight_vec * a.values * b.values)) <= 1e-8 * norm_sq


def _weighted_projection(
    columns: np.ndarray, target: np.ndarray, sqrt_w: np.ndarray
) -> np.ndarray:
    """Least-squares projection of target onto span(columns), weighted."""
    if columns.shape[1] == 0:
        return np.zeros_like(target)
    coeffs, *_ = np.linalg.lstsq(
        columns * sqrt_w[:, np.newaxis], target * sqrt_w, rcond=None
    )
    return columns @ coeffs


def dense_decompose(s: np.ndarray, c, n: int, w) -> list[np.ndarray]:
    """Reference decomposition: dense lstsq projections onto both images."""
    ops = hodge_laplacian(c, n, w)
    sqrt_w = np.sqrt(ops.weight_vector)
    irrot, solenoid = (
        np.zeros_like(s) if b is None else _weighted_projection(b.toarray(), s, sqrt_w)
        for b in (ops.from_below, ops.from_above)
    )
    return [irrot, s - irrot - solenoid, solenoid]


ORACLE_COMPLEXES = {
    "torus7": CORPUS["torus7"],
    **{name: build_complex(tops) for name, (tops, _, _) in TORSION.items()},
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from([None, *sorted(ORACLE_COMPLEXES)]),
    weighted=st.booleans(),
    harmonic=st.booleans(),
)
def test_cg_decomposition_matches_dense_lstsq(seed, name, weighted, harmonic):
    """Conjugate gradients agree with the dense lstsq projections, in every dimension."""
    rng = np.random.default_rng(seed)
    if name is None:
        c = random_clique_complex(rng, int(rng.integers(3, 12)), float(rng.uniform(0.3, 0.8)))
    else:
        c = ORACLE_COMPLEXES[name]
    w = random_weights(c, rng) if weighted else None
    for n in range(c.max_dim + 1):
        s = rng.standard_normal(c.n_simplices(n))
        if harmonic:
            basis = harmonic_basis(hodge_laplacian(c, n, w))
            s = sum((rng.standard_normal() * h.values for h in basis), np.zeros_like(s))
        parts = hodge_decompose(Cochain(n, s), c, n, w)
        for got, want in zip(parts, dense_decompose(s, c, n, w)):
            assert np.linalg.norm(got.values - want) <= 1e-9 * np.linalg.norm(s)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(-500, 500), weighted=st.booleans())
def test_decompose_scales_exactly_by_powers_of_two(seed, j, weighted):
    rng = np.random.default_rng(seed)
    c = random_clique_complex(rng, int(rng.integers(3, 12)), float(rng.uniform(0.3, 0.8)))
    w = random_weights(c, rng) if weighted else None
    for n in range(c.max_dim + 1):
        s = rng.standard_normal(c.n_simplices(n))
        parts = hodge_decompose(Cochain(n, s), c, n, w)
        scaled = hodge_decompose(Cochain(n, np.ldexp(s, j)), c, n, w)
        for part, scaled_part in zip(parts, scaled):
            assert np.array_equal(scaled_part.values, np.ldexp(part.values, j))


def test_cg_iteration_cap_is_numerical_failure(monkeypatch, tmp_path, capsys):
    # In exact arithmetic CG converges in at most rank(b^T W b) steps, so a
    # cap of one step per unknown would not bind; a cap of zero does.
    monkeypatch.setattr(hodge, "CG_MAX_ITER_PER_UNKNOWN", 0)
    c = CORPUS["torus7"]
    values = np.random.default_rng(6).standard_normal(c.n_simplices(1))
    with pytest.raises(NumericalFailure):
        hodge_decompose(Cochain(1, values), c, 1)
    complex_file, signal_file = tmp_path / "c.json", tmp_path / "s.json"
    complex_file.write_text(json.dumps({"top_simplices": gen.torus()}), encoding="utf-8")
    signal_file.write_text(json.dumps({"dim": 1, "values": values.tolist()}), encoding="utf-8")
    assert main(["decompose", str(complex_file), str(signal_file), "--dim", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "did not converge" in captured.err


def test_decompose_shape_errors():
    with pytest.raises(ShapeMismatch):
        hodge_decompose(Cochain(0, [1.0, 2, 3]), TRIANGLE_GRAPH, 1)
    with pytest.raises(ShapeMismatch):
        hodge_decompose(Cochain(1, [1.0, 2]), TRIANGLE_GRAPH, 1)


def test_decompose_refuses_a_gf2_signal():
    """A GF(2) signal is a caller's error, not numerical trouble."""
    c = CORPUS["torus7"]
    with pytest.raises(FieldMismatch, match="^hodge_decompose needs a real cochain$"):
        hodge_decompose(Cochain(1, np.ones(c.n_simplices(1)), Field.GF2), c, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decompose_non_finite_signal_is_numerical_failure(bad):
    with pytest.raises(NumericalFailure):
        hodge_decompose(Cochain(1, [1.0, bad, 2.0]), TRIANGLE_GRAPH, 1)


def test_gradient_triangle_finite_differences():
    f = np.array([0.3, -1.2, 2.0])
    out = gradient(TRIANGLE_GRAPH, Cochain(0, f))
    # Edge order ({0,1}, {0,2}, {1,2}); each value is f(high) - f(low).
    expected = np.array([f[1] - f[0], f[2] - f[0], f[2] - f[1]])
    assert np.allclose(out.values, expected)
    assert out.dimension == 1


def test_gradient_constant_is_zero(corpus_complex):
    c = corpus_complex
    out = gradient(c, Cochain(0, np.ones(c.n_simplices(0))))
    assert np.allclose(out.values, 0.0)


def test_gradient_path_example():
    c = build_complex(gen.path(3))
    out = gradient(c, Cochain(0, [0.0, 1.0, 3.0]))
    assert np.allclose(np.abs(out.values), [1.0, 2.0])


def test_gradient_shape_error():
    with pytest.raises(ShapeMismatch):
        gradient(TRIANGLE_GRAPH, Cochain(1, [1.0, 2, 3]))
    with pytest.raises(ShapeMismatch):
        gradient(TRIANGLE_GRAPH, Cochain(0, [1.0, 2]))


def test_curl_of_gradient_and_div_of_curl_vanish():
    rng = np.random.default_rng(8)
    for name in ("filled-triangle", "two-shared-edge", "torus7", "tetra"):
        c = CORPUS[name]
        d1 = boundary_matrix(c, 1, Field.REAL).toarray()
        d2 = boundary_matrix(c, 2, Field.REAL).toarray()
        s2 = rng.standard_normal(c.n_simplices(2))
        assert np.allclose(d1 @ (d2 @ s2), 0.0, atol=1e-12)
        s0 = rng.standard_normal(c.n_simplices(0))
        assert np.allclose(d2.T @ (d1.T @ s0), 0.0, atol=1e-12)


def test_decompose_checks_the_kernel_without_assembling_the_laplacian(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Laplacian was assembled")

    c = CORPUS["torus7"]
    rng = np.random.default_rng(8)
    signals = [rng.standard_normal(c.n_simplices(n)) for n in range(3)]
    with monkeypatch.context() as patch:
        patch.setattr(hodge, "compose", refuse)
        patch.setattr(hodge, "add", refuse)
        for n, s in enumerate(signals):
            parts = hodge_decompose(Cochain(n, s), c, n)
            assert np.allclose(sum(p.values for p in parts), s, atol=1e-12)
    # With the projections skipped, the whole signal is left as the harmonic
    # part; the parts are trivially orthogonal, so the kernel check must fire.
    monkeypatch.setattr(hodge, "_weighted_projection", lambda b, s, w: np.zeros(b.rows))
    for n, s in enumerate(signals):  # dimension 0 has only the side above, 2 only the one below
        with pytest.raises(NumericalFailure, match="not in the Laplacian kernel"):
            hodge_decompose(Cochain(n, s), c, n)


@pytest.mark.parametrize("dim", [1.5, np.float64(1.0), True, np.True_, "1", None, -1, np.int64(-1)])
def test_weights_dimensions_are_integers_at_least_zero(dim):
    with pytest.raises(ValueError, match="^weights dimension .* is negative or not an integer$"):
        InnerProductWeights({dim: [2.0]})


def test_weights_take_python_and_numpy_integer_dimensions():
    w = InnerProductWeights({0: [2.0], np.int64(1): [3.0], np.uint8(2): [4.0]})
    assert [w.vector(n, 1).tolist() for n in range(4)] == [[2.0], [3.0], [4.0], [1.0]]


@pytest.mark.parametrize("values", [[[1.0, 2.0], [3.0, 4.0]], 2.0])
def test_weights_must_be_vectors(values):
    with pytest.raises(ShapeMismatch, match="^weights for dimension 1 must be a vector$"):
        InnerProductWeights({1: values})


def check_hodge_spectrum(c, rational_betti):
    """In every dimension: b_n exact zeros, then positive values at the full solver's."""
    for n in range(c.max_dim + 1):
        got = hodge_spectrum(c, n)
        want = eigenvalues(hodge_laplacian(c, n).full)
        zeros = int(np.sum(got == 0.0))
        assert zeros == rational_betti[n]
        assert got.shape == want.shape and np.all(np.diff(got) >= 0)
        assert np.all(got[zeros:] > 0)
        assert np.all(np.abs(got[zeros:] - want[zeros:]) <= 1e-12 * want[-1])


def test_hodge_spectrum_on_corpus(corpus_complex):
    check_hodge_spectrum(corpus_complex, betti(corpus_complex, Field.REAL))


@pytest.mark.parametrize("name", sorted(TORSION))
def test_hodge_spectrum_counts_rational_zeros_under_torsion(name):
    tops, _, rational = TORSION[name]
    check_hodge_spectrum(build_complex(tops), rational)


def test_hodge_spectrum_counts_zeros_on_a_disconnected_complex():
    # Two tori on interleaved labels and three isolated vertices: rank d_1 comes from
    # 5 components, and every dimension's zeros are exactly the rational b_n, first.
    tori = [[2 * v + k for v in top] for top in gen.torus() for k in (0, 1)]
    c = build_complex(tori + [[20], [3 * 10**6], [2**64]])
    assert betti(c, Field.REAL) == [5, 4, 2]
    check_hodge_spectrum(c, [5, 4, 2])


def test_hodge_spectrum_examples():
    for c, n, want in ((TRIANGLE_GRAPH, 0, [0, 3, 3]), (TRIANGLE_GRAPH, 1, [0, 3, 3]),
                       (FILLED, 1, [3, 3, 3]), (FILLED, 2, [3])):
        got = hodge_spectrum(c, n)
        assert got.tolist() == pytest.approx(want, abs=1e-12)
        assert np.sum(got == 0.0) == want.count(0)
    with pytest.raises(DimensionOutOfRange, match="^dimension 3 outside 0..2$"):
        hodge_spectrum(FILLED, 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), clique=st.booleans())
def test_hodge_spectrum_matches_full_solver(seed, clique):
    rng = np.random.default_rng(seed)
    if clique:
        c = random_clique_complex(rng, int(rng.integers(3, 12)), float(rng.uniform(0.3, 0.8)))
    else:
        c = random_complex(rng, int(rng.integers(4, 9)))
    check_hodge_spectrum(c, betti(c, Field.REAL))


def test_hodge_spectrum_solves_only_the_smaller_gram_sides(monkeypatch):
    c = random_clique_complex(np.random.default_rng(2), 12, 0.5, max_dim=2)
    n0, n1, n2 = (c.n_simplices(n) for n in range(3))
    assert n0 < n1 and n2 < n1
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    assert len(hodge_spectrum(c, 1)) == n1
    assert sorted(shapes) == sorted([(n0, n0), (n2, n2)])
