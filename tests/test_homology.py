"""Rank computation, diagonal reduction, Betti numbers, components."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgekit import (
    Cochain,
    Field,
    SparseMatrix,
    betti,
    boundary_matrix,
    build_complex,
    compare_spectra,
    connected_components,
    constant_sheaf,
    eigendecompose,
    harmonic_basis,
    hodge_decompose,
    hodge_laplacian,
    rank_gf2,
    rank_real,
    replay_gf2_ops,
    snf_gf2,
    sheaf_cohomology_dims,
    transpose,
)
from hodgekit import generators as gen
from hodgekit import homology
from hodgekit.cli import main
from hodgekit.errors import FieldMismatch
from hodgekit.sheaf import Assignment, check_consistency

from conftest import (
    CORPUS,
    CORPUS_TOPS,
    TORSION,
    fraction_rank,
    random_clique_complex,
    random_complex,
)

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


def test_rank_real_of_a_map_with_no_entries_is_not_densified():
    """A zero map answers from its shape, so a side past any array size is fine."""
    huge = 2**62 + 2
    for rows, cols in ((0, huge), (huge, 3), (huge, huge), (4, 0)):
        profile = rank_real(SparseMatrix.zeros(rows, cols, Field.REAL))
        assert profile == homology.RankProfile(0, cols, cols)
    with pytest.raises(ValueError, match="tol must be finite"):
        rank_real(SparseMatrix.zeros(0, huge, Field.REAL), float("nan"))
    # Entries beside a huge side: only the columns with an entry, and of k rows with an
    # entry, those and the first k.
    wide = SparseMatrix.from_coo(1, huge, [0, 0], [5, huge - 1], [2.0, -3.0], Field.REAL)
    assert rank_real(wide) == homology.RankProfile(1, huge - 1, huge)
    tall = SparseMatrix.from_coo(huge, 3, [0, 0, 1, 1], [0, 2, 1, 2], [1.0, 2, 3, 4], Field.REAL)
    assert rank_real(tall) == homology.RankProfile(2, 1, 3)
    gap = SparseMatrix.from_coo(huge, 3, [1, huge - 1, huge - 1], [0, 1, 2], [1.0, 2, 3], Field.REAL)
    assert rank_real(gap) == homology.RankProfile(2, 1, 3)


def test_rank_field_checks():
    with pytest.raises(FieldMismatch):
        rank_gf2(SparseMatrix.identity(2, Field.REAL))
    with pytest.raises(FieldMismatch):
        rank_real(SparseMatrix.identity(2, Field.GF2))
    with pytest.raises(FieldMismatch):
        snf_gf2(SparseMatrix.identity(2, Field.REAL))


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
    Half of them get all-zero rows and columns inserted at random positions,
    interior or trailing, which rank_real leaves out of its working block.
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
    if draw(st.booleans()):
        for axis in (0, 1):
            at = rng.integers(0, a.shape[axis] + 1, size=draw(st.integers(1, 3)))
            a = np.insert(a, at, 0.0, axis=axis)
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


@st.composite
def integer_matrices(draw):
    """Integer matrices with entries in -3..3, stored as Field.REAL.

    One of: uniform entries; entries kept with probability 0.3; or a few
    rows repeated and negated, so the rank falls below the shape.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(SHAPES)
    a = rng.integers(-3, 4, size=(rows, cols))
    kind = draw(st.sampled_from(["uniform", "sparse", "repeated"]))
    if kind == "sparse":
        a = np.where(rng.random((rows, cols)) < 0.3, a, 0)
    elif kind == "repeated":
        picks = rng.integers(0, draw(st.integers(1, rows)), rows)
        a = rng.choice([-1, 1], size=(rows, 1)) * a[picks]
    return a, SparseMatrix.from_dense(a.astype(np.float64), Field.REAL)


@settings(max_examples=150, deadline=None)
@given(case=integer_matrices())
def test_rational_kernel_is_exact_on_integer_matrices(case):
    a, m = case
    expected = fraction_rank(a)
    assert homology._ranks([m], Field.REAL) == [expected]
    assert homology._ranks([transpose(m)], Field.REAL) == [expected]


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


TORUS = CORPUS["torus7"]
TOLERANT_CALLS = {
    "harmonic_basis": lambda tol: harmonic_basis(hodge_laplacian(TORUS, 1), tol),
    "compare_spectra": lambda tol: compare_spectra(CORPUS["cycle8"], tol),
    "eigendecompose": lambda tol: eigendecompose(
        SparseMatrix.from_dense(np.array([[1.0, 5.0], [0.0, 1.0]]), Field.REAL), tol=tol
    ),
    "check_consistency": lambda tol: check_consistency(
        TRIANGLE, constant_sheaf(TRIANGLE), Assignment(0, np.ones(3)), tol=tol
    ),
    "hodge_decompose": lambda tol: hodge_decompose(
        Cochain(1, np.arange(21.0)), TORUS, 1, tol=tol
    ),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("name", sorted(TOLERANT_CALLS))
def test_library_tolerances_fail_closed(name, tol):
    with pytest.raises(ValueError, match="tol"):
        TOLERANT_CALLS[name](tol)


@pytest.mark.parametrize("field_tag", [Field.GF2, Field.REAL])
def test_betti_builds_each_boundary_map_once(monkeypatch, field_tag):
    c = CORPUS["tetra"]
    calls = []
    original = homology.boundary_matrix

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(homology, "boundary_matrix", counted)
    assert betti(c, field_tag) == [1, 0, 0, 0]
    # d_1 is never built: its rank is |V| minus the number of components.
    assert sorted(calls) == [(n, field_tag) for n in range(2, c.max_dim + 1)]


def euler_characteristic(values) -> int:
    return sum((-1) ** n * v for n, v in enumerate(values))


@pytest.mark.parametrize("name", sorted(TORSION))
def test_torsion_known_answers(name):
    tops, gf2, rational = TORSION[name]
    c = build_complex(tops)
    counts = [c.n_simplices(n) for n in range(c.max_dim + 1)]
    assert counts == {"rp2": [6, 15, 10], "klein4x4": [16, 48, 32]}[name]
    assert betti(c) == betti(c, Field.GF2) == gf2
    assert betti(c, Field.REAL) == rational
    assert euler_characteristic(gf2) == euler_characteristic(rational) == euler_characteristic(counts)


def dense_betti(c, field_tag: Field, rank) -> list[int]:
    """Betti numbers from dense full-row elimination of every d_n, d_1 included."""
    ranks = [0, *(rank(boundary_matrix(c, n, field_tag)).rank for n in range(1, c.max_dim + 1)), 0]
    return [c.n_simplices(n) - ranks[n] - ranks[n + 1] for n in range(c.max_dim + 1)]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(1, 9),
    p=st.sampled_from([0.2, 0.5, 0.8, 0.95]),
    torsion=st.sampled_from([None, *sorted(TORSION)]),
)
def test_betti_properties_on_random_clique_complexes(seed, n_vertices, p, torsion):
    """Clique complexes, optionally beside a relabelled RP^2 or Klein bottle."""
    rng = np.random.default_rng(seed)
    c = random_clique_complex(rng, n_vertices, p)
    if torsion is not None:
        tops = TORSION[torsion][0]
        labels = n_vertices + rng.permutation(max(map(max, tops)) + 1)
        cliques = [list(s.vertices) for k in range(c.max_dim + 1) for s in c.simplices(k)]
        c = build_complex(cliques + [[int(labels[v]) for v in top] for top in tops])
    gf2, rational = betti(c, Field.GF2), betti(c, Field.REAL)
    counts = [c.n_simplices(n) for n in range(c.max_dim + 1)]
    assert euler_characteristic(gf2) == euler_characteristic(rational) == euler_characteristic(counts)
    assert all(g >= q for g, q in zip(gf2, rational))
    for n in range(1, c.max_dim + 1):
        d = boundary_matrix(c, n, Field.GF2)
        assert rank_gf2(d) == reference_rank_gf2(d)
    assert gf2 == dense_betti(c, Field.GF2, reference_rank_gf2)
    assert rational == dense_betti(c, Field.REAL, reference_rank_real)


def test_betti_never_densifies(monkeypatch, tmp_path, capsys):
    big = random_clique_complex(np.random.default_rng(4), 128, 0.12, max_dim=2)
    assert 900 <= big.n_simplices(1) <= 1100
    cases = {"torus7": CORPUS["torus7"], "big": big}
    oracles = {Field.GF2: reference_rank_gf2, Field.REAL: reference_rank_real}
    expected = {
        name: {f: dense_betti(c, f, rank) for f, rank in oracles.items()}
        for name, c in cases.items()
    }

    def refuse(self):
        raise AssertionError(f"toarray on {self!r}")

    monkeypatch.setattr(SparseMatrix, "toarray", refuse)
    for name, c in cases.items():
        path = tmp_path / f"{name}.json"
        tops = [list(s.vertices) for k in range(c.max_dim + 1) for s in c.simplices(k)]
        path.write_text(json.dumps({"top_simplices": tops}), encoding="utf-8")
        for f in Field:
            assert betti(c, f) == expected[name][f]
            assert main(["betti", str(path), "--field", f.value]) == 0
            assert capsys.readouterr().out == json.dumps({"betti": expected[name][f]}) + "\n"
