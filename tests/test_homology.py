"""Rank computation, diagonal reduction, Betti numbers, components."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgekit import (
    Field,
    SparseMatrix,
    betti,
    betti_checked,
    boundary_matrix,
    build_complex,
    connected_components,
    constant_sheaf,
    rank_gf2,
    rank_real,
    replay_gf2_ops,
    snf_gf2,
    sheaf_cohomology_dims,
    transpose,
)
from hodgekit import generators as gen
from hodgekit import homology
from hodgekit.errors import FieldMismatch

from conftest import CORPUS, random_complex

TRIANGLE = build_complex([[0, 1, 2]])


def brute_force_gf2_rank(a: np.ndarray) -> int:
    """Row-space size by enumerating every xor combination of rows."""
    vectors = {tuple(np.zeros(a.shape[1], dtype=np.uint8))}
    for count in range(1, a.shape[0] + 1):
        for combo in itertools.combinations(range(a.shape[0]), count):
            acc = np.zeros(a.shape[1], dtype=np.uint8)
            for r in combo:
                acc ^= a[r]
            vectors.add(tuple(acc))
    size = len(vectors)
    rank = 0
    while (1 << rank) < size:
        rank += 1
    assert 1 << rank == size
    return rank


def test_rank_gf2_triangle_boundary():
    profile = rank_gf2(boundary_matrix(TRIANGLE, 1, Field.GF2))
    assert profile.rank == 2
    assert profile.nullity == 1
    assert profile.cols == 3


def test_rank_gf2_zero_matrix():
    profile = rank_gf2(SparseMatrix.zeros(3, 3, Field.GF2))
    assert (profile.rank, profile.nullity) == (0, 3)


def test_rank_gf2_against_span_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dense = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
        m = SparseMatrix.from_dense(dense, Field.GF2)
        assert rank_gf2(m).rank == brute_force_gf2_rank(dense)


def test_rank_real_examples():
    assert rank_real(boundary_matrix(TRIANGLE, 1, Field.REAL)).rank == 2
    assert rank_real(SparseMatrix.identity(4, Field.REAL)).rank == 4
    two = build_complex([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    assert rank_real(boundary_matrix(two, 1, Field.REAL)).rank == 4


def test_rank_field_checks():
    with pytest.raises(FieldMismatch):
        rank_gf2(SparseMatrix.identity(2, Field.REAL))
    with pytest.raises(FieldMismatch):
        rank_real(SparseMatrix.identity(2, Field.GF2))


def test_rank_equals_transpose_rank(corpus_complex):
    c = corpus_complex
    for n in range(1, c.max_dim + 1):
        g = boundary_matrix(c, n, Field.GF2)
        r = boundary_matrix(c, n, Field.REAL)
        assert rank_gf2(g).rank == rank_gf2(transpose(g)).rank
        assert rank_real(r).rank == rank_real(transpose(r)).rank
        assert rank_gf2(g).rank == rank_real(r).rank


def test_snf_gf2_examples():
    diag, row_ops, col_ops = snf_gf2(boundary_matrix(TRIANGLE, 1, Field.GF2))
    assert diag == 2
    zero = SparseMatrix.zeros(2, 3, Field.GF2)
    assert snf_gf2(zero) == (0, [], [])
    d2 = boundary_matrix(TRIANGLE, 2, Field.GF2)
    assert snf_gf2(d2)[0] == 1


def test_snf_replay_reaches_diagonal_form():
    rng = np.random.default_rng(23)
    for _ in range(20):
        dense = rng.integers(0, 2, size=rng.integers(1, 7, size=2)).astype(np.uint8)
        m = SparseMatrix.from_dense(dense, Field.GF2)
        diag, row_ops, col_ops = snf_gf2(m)
        reduced = replay_gf2_ops(m, row_ops, col_ops)
        expected = np.zeros_like(dense)
        for k in range(diag):
            expected[k, k] = 1
        assert np.array_equal(reduced, expected)
        assert diag == rank_gf2(m).rank


def test_betti_golden_values():
    assert betti(build_complex([[0, 1], [1, 2], [0, 2]])) == [1, 1]
    assert betti(TRIANGLE) == [1, 0, 0]
    assert betti(CORPUS["tetra"]) == [1, 0, 0, 0]
    assert betti(CORPUS["tetra-boundary"]) == [1, 0, 1]
    assert betti(CORPUS["torus7"]) == [1, 2, 1]
    assert betti(CORPUS["sphere2"]) == [1, 0, 1]


def test_betti_fields_agree(corpus_complex):
    assert betti(corpus_complex, Field.GF2) == betti(corpus_complex, Field.REAL)
    assert betti_checked(corpus_complex) == betti(corpus_complex, Field.GF2)


def test_connected_components_examples():
    assert connected_components(build_complex([[v] for v in range(6)])) == 6
    three = build_complex([[0], [1], [2], [3], [4], [5], [0, 1], [2, 3], [3, 4]])
    assert connected_components(three) == 3
    assert connected_components(CORPUS["torus7"]) == 1


def test_connected_components_equal_b0(corpus_complex):
    assert connected_components(corpus_complex) == betti(corpus_complex)[0]


def test_graph_circuit_rank_oracle():
    rng = np.random.default_rng(5)
    for i in range(50):
        n = int(rng.integers(2, 12))
        c = build_complex(gen.random_graph(n, float(rng.uniform(0.1, 0.7)), seed=i))
        b = betti(c)
        b0, b1 = b[0], (b[1] if len(b) > 1 else 0)
        edges = c.n_simplices(1)
        assert b0 == connected_components(c)
        assert b1 == edges - n + b0


def test_edge_growth_changes_betti_by_one():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = 7
        edges: list[list[int]] = []
        pool = [list(p) for p in itertools.combinations(range(n), 2)]
        rng.shuffle(pool)
        tops = [[v] for v in range(n)]
        prev = betti(build_complex(tops))
        prev_b1 = 0
        for edge in pool[:12]:
            before = build_complex(tops + edges)
            same_component = (
                connected_components(build_complex(tops + edges + [edge]))
                == connected_components(before)
            )
            edges.append(edge)
            now = betti(build_complex(tops + edges))
            now_b1 = now[1] if len(now) > 1 else 0
            if same_component:
                assert now[0] == prev[0]
                assert now_b1 == prev_b1 + 1
            else:
                assert now[0] == prev[0] - 1
                assert now_b1 == prev_b1
            prev, prev_b1 = now, now_b1


def test_betti_fields_agree_on_random_complexes():
    rng = np.random.default_rng(77)
    for _ in range(25):
        c = random_complex(rng)
        assert betti(c, Field.GF2) == betti(c, Field.REAL)


# Reference kernels: the full-row eliminations that the row-restricted kernels
# replaced, kept verbatim.  Both must take the same pivot decisions.


def reference_rank_gf2(m: SparseMatrix) -> homology.RankProfile:
    a = m.toarray()
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = -1
        for row in range(rank, rows):
            if a[row, col]:
                pivot = row
                break
        if pivot < 0:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        for row in range(rank + 1, rows):
            if a[row, col]:
                a[row] ^= a[rank]
        rank += 1
        if rank == rows:
            break
    return homology.RankProfile(rank, cols - rank, cols)


def reference_rank_real(m: SparseMatrix, tol: float | None = None) -> homology.RankProfile:
    a = m.toarray().astype(np.float64)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return homology.RankProfile(0, cols, cols)
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale == 0.0:
        return homology.RankProfile(0, cols, cols)
    if tol is None:
        tol = 1e-9 * scale
    rank = 0
    for col in range(cols):
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) <= tol:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        factors = a[rank + 1 :, col] / a[rank, col]
        a[rank + 1 :] -= np.outer(factors, a[rank])
        rank += 1
        if rank == rows:
            break
    return homology.RankProfile(rank, cols - rank, cols)


def reference_snf_gf2(m: SparseMatrix):
    a = m.toarray()
    rows, cols = a.shape
    row_ops = []
    col_ops = []
    k = 0
    while k < min(rows, cols):
        pivot = None
        for r in range(k, rows):
            nz = np.nonzero(a[r, k:])[0]
            if nz.size:
                pivot = (r, k + int(nz[0]))
                break
        if pivot is None:
            break
        r, c = pivot
        if r != k:
            a[[k, r]] = a[[r, k]]
            row_ops.append(("swap", k, r))
        if c != k:
            a[:, [k, c]] = a[:, [c, k]]
            col_ops.append(("swap", k, c))
        for i in range(rows):
            if i != k and a[i, k]:
                a[i] ^= a[k]
                row_ops.append(("add", k, i))
        for j in range(cols):
            if j != k and a[k, j]:
                a[:, j] ^= a[:, k]
                col_ops.append(("add", k, j))
        k += 1
    return k, row_ops, col_ops


SHAPES = st.tuples(st.integers(1, 9), st.integers(1, 9))


@st.composite
def real_matrices(draw):
    """Real matrices that sit on rank decisions.

    One of: a product of thin random factors (rank below the shape allows);
    a few random rows repeated and negated; or one large entry among entries
    just above and just below the default pivot tolerance 1e-9 * max|a|.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(SHAPES)
    kind = draw(st.sampled_from(["product", "repeated", "near-tol"]))
    if kind == "product":
        inner = draw(st.integers(1, min(rows, cols)))
        a = rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols))
    elif kind == "repeated":
        base = rng.standard_normal((draw(st.integers(1, rows)), cols))
        a = rng.choice([-1.0, 1.0], size=(rows, 1)) * base[rng.integers(0, len(base), rows)]
    else:
        scale = 10.0 ** draw(st.integers(0, 4))
        near = 1e-9 * scale * rng.choice([1 - 1e-6, 1 + 1e-6], size=(rows, cols))
        a = np.where(rng.random((rows, cols)) < 0.5, near * rng.choice([-1, 1], (rows, cols)), 0.0)
        a[rng.integers(rows), rng.integers(cols)] = scale
    return SparseMatrix.from_dense(a, Field.REAL)


@st.composite
def gf2_matrices(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(SHAPES)
    density = draw(st.sampled_from([0.15, 0.4, 0.8]))
    dense = (rng.random((rows, cols)) < density).astype(np.uint8)
    return SparseMatrix.from_dense(dense, Field.GF2)


@settings(max_examples=150, deadline=None)
@given(m=real_matrices(), tol=st.sampled_from([None, 0.0, 1e-6]))
def test_rank_real_matches_reference_elimination(m, tol):
    assert rank_real(m, tol) == reference_rank_real(m, tol)
    assert rank_real(transpose(m), tol) == reference_rank_real(transpose(m), tol)


@settings(max_examples=150, deadline=None)
@given(m=gf2_matrices())
def test_gf2_kernels_match_reference_elimination(m):
    assert rank_gf2(m) == reference_rank_gf2(m)
    assert snf_gf2(m) == reference_snf_gf2(m)


def test_rank_real_tolerance_edge_known_answers():
    nearly_singular = SparseMatrix.from_dense(np.array([[1, 1], [1, 1 + 1e-10]]), Field.REAL)
    assert rank_real(nearly_singular).rank == 1
    assert rank_real(nearly_singular, tol=0.0).rank == 2
    # The default bound is inclusive: a pivot of exactly 1e-9 * max|a| is rejected.
    for factor, rank in ((1 - 1e-6, 1), (1.0, 1), (1 + 1e-6, 2)):
        m = SparseMatrix.from_dense(np.diag([1e3, 1e3 * 1e-9 * factor]), Field.REAL)
        assert rank_real(m).rank == rank == reference_rank_real(m).rank


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_bad_tolerance_raises(tol):
    with pytest.raises(ValueError, match="tol"):
        rank_real(boundary_matrix(TRIANGLE, 1, Field.REAL), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        sheaf_cohomology_dims(TRIANGLE, constant_sheaf(TRIANGLE), tol)


def test_betti_checked_builds_each_boundary_map_once(monkeypatch):
    c = CORPUS["torus7"]
    calls = []
    original = homology.boundary_matrix

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(homology, "boundary_matrix", counted)
    assert betti_checked(c) == [1, 2, 1]
    assert len(calls) == c.max_dim
