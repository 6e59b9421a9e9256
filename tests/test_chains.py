"""Boundary and coboundary matrices, matrix-vector algebra, field rules."""

import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hodgekit import (
    Cochain,
    Field,
    SparseMatrix,
    add,
    apply,
    boundary_matrix,
    build_complex,
    coboundary_matrix,
    compose,
    transpose,
)
from hodgekit import generators as gen
from hodgekit.chains import REAL_ZERO_TOL, _entries, _finite_reals
from hodgekit.errors import DimensionOutOfRange, FieldMismatch, ShapeMismatch

from conftest import random_complex

TRIANGLE = build_complex([[0, 1, 2]])
PATH4 = build_complex(gen.path(4))

# Column order used in the displayed matrices: e0={0,1}, e1={1,2}, e2={0,2}.
# Our canonical (lexicographic) edge order is {0,1}, {0,2}, {1,2}.
DISPLAY_EDGE_PERM = [0, 2, 1]


def test_boundary_gf2_triangle_matches_display_up_to_labeling():
    d1 = boundary_matrix(TRIANGLE, 1, Field.GF2).toarray()
    display = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    assert np.array_equal(d1[:, DISPLAY_EDGE_PERM], display)


def test_boundary_gf2_filled_triangle_dim2():
    d2 = boundary_matrix(TRIANGLE, 2, Field.GF2)
    assert d2.shape == (3, 1)
    assert np.array_equal(d2.toarray(), np.ones((3, 1), dtype=np.uint8))


def test_boundary_real_path4_products_match_display():
    d1 = boundary_matrix(PATH4, 1, Field.REAL)
    first = compose(transpose(d1), d1).toarray()
    second = compose(d1, transpose(d1)).toarray()
    assert np.array_equal(
        first, np.array([[2.0, -1, 0], [-1, 2, -1], [0, -1, 2]])
    )
    assert np.array_equal(
        second,
        np.array(
            [[1.0, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]]
        ),
    )


def test_boundary_dimension_out_of_range():
    with pytest.raises(DimensionOutOfRange):
        boundary_matrix(TRIANGLE, 0, Field.GF2)
    with pytest.raises(DimensionOutOfRange):
        boundary_matrix(TRIANGLE, 3, Field.GF2)


def test_coboundary_is_transpose():
    for field in Field:
        d2 = boundary_matrix(TRIANGLE, 2, field)
        cob = coboundary_matrix(TRIANGLE, 1, field)
        assert cob == transpose(d2)
        assert transpose(transpose(d2)) == d2


def test_coboundary_display_rows():
    cob = coboundary_matrix(TRIANGLE, 1, Field.GF2).toarray()
    assert np.array_equal(cob, np.ones((1, 3), dtype=np.uint8))
    d1t = coboundary_matrix(TRIANGLE, 0, Field.GF2).toarray()
    display = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    assert np.array_equal(d1t[DISPLAY_EDGE_PERM, :], display)


def test_coboundary_empty_above_top_dimension():
    hollow = build_complex(gen.cycle(3))
    cob = coboundary_matrix(hollow, 1, Field.REAL)
    assert cob.shape == (0, 3)
    assert cob.nnz == 0
    for n in (-1, 2):
        with pytest.raises(DimensionOutOfRange, match=rf"^dimension {n} outside 0\.\.1$"):
            coboundary_matrix(hollow, n, Field.REAL)


def test_apply_gf2_cycle_sums_to_zero():
    d1 = boundary_matrix(TRIANGLE, 1, Field.GF2)
    cycle = Cochain(1, [1, 1, 1], Field.GF2)
    out = apply(d1, cycle, result_dim=0)
    assert np.array_equal(out.values, np.zeros(3, dtype=np.uint8))
    assert out.dimension == 0


def test_apply_identity_keeps_input():
    eye = SparseMatrix.identity(4, Field.REAL)
    x = Cochain(1, [1.0, -2.0, 3.5, 0.0])
    assert np.array_equal(apply(eye, x).values, x.values)


def test_apply_oriented_cycle_chain_in_kernel():
    d1 = boundary_matrix(TRIANGLE, 1, Field.REAL)
    # Consistently oriented cycle in our edge basis ({0,1}, {0,2}, {1,2}):
    # the middle edge is traversed against its ascending orientation.
    cycle = Cochain(1, [1.0, -1.0, 1.0])
    out = apply(d1, cycle, result_dim=0)
    assert np.allclose(out.values, 0.0)


def test_apply_gf2_parity_past_uint8_range():
    star = build_complex([[0, leaf] for leaf in range(1, 302)])
    d1 = boundary_matrix(star, 1, Field.GF2)
    out = apply(d1, Cochain(1, np.ones(301, dtype=np.uint8), Field.GF2), result_dim=0)
    assert out.values[0] == 1
    assert np.array_equal(out.values[1:], np.ones(301, dtype=np.uint8))


def test_apply_shape_and_field_errors():
    d1 = boundary_matrix(TRIANGLE, 1, Field.GF2)
    with pytest.raises(ShapeMismatch):
        apply(d1, Cochain(1, [1, 0], Field.GF2))
    with pytest.raises(FieldMismatch):
        apply(d1, Cochain(1, [1.0, 0.0, 0.0]))


def test_compose_fundamental_lemma_on_triangle():
    for field in Field:
        d1 = boundary_matrix(TRIANGLE, 1, field)
        d2 = boundary_matrix(TRIANGLE, 2, field)
        assert compose(d1, d2).nnz == 0


def test_compose_errors():
    d1 = boundary_matrix(PATH4, 1, Field.REAL)
    with pytest.raises(ShapeMismatch):
        compose(d1, d1)
    with pytest.raises(FieldMismatch):
        compose(
            boundary_matrix(TRIANGLE, 1, Field.REAL),
            boundary_matrix(TRIANGLE, 2, Field.GF2),
        )


def test_fundamental_lemma_random_complexes():
    rng = np.random.default_rng(42)
    for _ in range(30):
        c = random_complex(rng)
        for n in range(1, c.max_dim):
            gf2 = compose(
                boundary_matrix(c, n, Field.GF2), boundary_matrix(c, n + 1, Field.GF2)
            )
            assert gf2.nnz == 0
            real = compose(
                boundary_matrix(c, n, Field.REAL),
                boundary_matrix(c, n + 1, Field.REAL),
            )
            assert real.nnz == 0


def test_boundary_column_structure(corpus_complex):
    c = corpus_complex
    for n in range(1, c.max_dim + 1):
        real = boundary_matrix(c, n, Field.REAL).toarray()
        gf2 = boundary_matrix(c, n, Field.GF2).toarray()
        for j in range(real.shape[1]):
            col = real[:, j]
            assert np.count_nonzero(col) == n + 1
            assert set(np.unique(col[col != 0])) <= {1.0, -1.0}
            assert np.array_equal(np.abs(col) > 0, gf2[:, j] > 0)


def test_boundary_real_signs_follow_deletion_parity():
    c = build_complex([[0, 1, 2, 3]])
    d3 = boundary_matrix(c, 3, Field.REAL).toarray()
    tet = c.simplices(3)[0]
    for i, face in enumerate(tet.faces()):
        assert d3[c.index(face), 0] == (-1.0) ** i


def test_sparse_matrix_construction_rules():
    m = SparseMatrix.from_entries(2, 2, [(0, 0, 1.0), (0, 0, -1.0)], Field.REAL)
    assert m.nnz == 0
    g = SparseMatrix.from_entries(2, 2, [(1, 1, 1), (1, 1, 1)], Field.GF2)
    assert g.nnz == 0
    tiny = SparseMatrix.from_entries(1, 1, [(0, 0, 1e-13)], Field.REAL)
    assert tiny.nnz == 0
    with pytest.raises(ShapeMismatch):
        SparseMatrix.from_entries(1, 1, [(2, 0, 1.0)], Field.REAL)


@pytest.mark.parametrize("rows, cols", [
    (2.5, 2),  # the bound check would compare row 2 with 2.5 and keep it
    (2, np.float64(3.0)), (True, 2), (2, False), (np.True_, 2), ("2", 2), (None, 2),
])
def test_from_coo_refuses_shapes_that_are_not_integers(rows, cols):
    with pytest.raises(ValueError, match="^need shape >= 0, integer positions: "):
        SparseMatrix.from_coo(rows, cols, [0], [0], [1.0], Field.REAL)


@pytest.mark.parametrize("n", [2, np.int64(2), np.uint8(2), 2**62])
def test_from_coo_takes_python_and_numpy_integer_shapes(n):
    m = SparseMatrix.from_coo(n, n, [1], [0], [1.0], Field.REAL)
    assert (m.shape, m.row.tolist(), m.col.tolist(), m.data.tolist()) == ((int(n), int(n)), [1], [0], [1.0])
    assert type(m.rows) is type(m.cols) is int


def test_add_matches_dense_sum():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, size=(4, 5))
    b = rng.integers(0, 2, size=(4, 5))
    ga = SparseMatrix.from_dense(a, Field.GF2)
    gb = SparseMatrix.from_dense(b, Field.GF2)
    assert np.array_equal(add(ga, gb).toarray(), (a ^ b).astype(np.uint8))
    ra = SparseMatrix.from_dense(a.astype(float), Field.REAL)
    rb = SparseMatrix.from_dense(b.astype(float), Field.REAL)
    assert np.array_equal(add(ra, rb).toarray(), (a + b).astype(float))


def test_non_finite_entries_rejected():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError):
        SparseMatrix.from_entries(2, 2, [(0, 0, nan), (1, 1, 1.0)], Field.REAL)
    with pytest.raises(ValueError):
        SparseMatrix.from_dense(np.array([[nan, 0.0], [0.0, 1.0]]), Field.REAL)
    with pytest.raises(ValueError):
        SparseMatrix.from_entries(1, 1, [(0, 0, inf), (0, 0, -inf)], Field.REAL)


FLOAT_MAX = sys.float_info.max


@pytest.mark.parametrize(
    "leaves, expected",
    [([1, 2.5, np.int64(-3), np.float32(0.5), np.uint64(2**64 - 1)], [1.0, 2.5, -3.0, 0.5, 2.0**64]),
     ([int(FLOAT_MAX), -int(FLOAT_MAX)], [FLOAT_MAX, -FLOAT_MAX]), ([], [])],
)
def test_finite_reals_reads_python_and_numpy_numbers(leaves, expected):
    assert _finite_reals(leaves).tolist() == expected


@pytest.mark.parametrize(
    "bad",
    [True, np.True_, "1", None, [1.0], 1j, float("nan"), -float("inf"), np.float64("inf"),
     10**400, int(FLOAT_MAX) + 1, -int(FLOAT_MAX) - 1],
)
def test_finite_reals_refuses_every_other_leaf(bad):
    """A bool, a numeric string and an int that rounds into float range are not finite reals."""
    assert _finite_reals([1.0, bad]) is None


def test_entries_reads_shapes_and_poisons_what_is_not_an_array():
    assert _entries(np.arange(6).reshape(2, 1, 3)) == ((2, 1, 3), [0, 1, 2, 3, 4, 5])
    assert _entries([[1, 2], [3, 4]]) == ((2, 2), [1, 2, 3, 4])
    assert _entries([1, [2]]) == ((2,), [1, [2]])  # flat: the list entry fails the number rule
    assert _entries("ab") == ((), ["ab"])
    assert _entries([[1, 2], [3]])[1] == [None]
    assert _entries(np.array([True, False]))[1] == [None]


def test_positions_past_2_63_cells_keep_their_place():
    """Past 2**63 cells row * cols + col would wrap around int64; positions still
    sort by (row, col), repeats still sum, and a non-finite sum names its place."""
    huge = 2**62 + 3
    row, col = [1, 0, 1, 1], [huge - 1, 5, 0, huge - 1]
    m = SparseMatrix.from_coo(2, huge, row, col, [1.0, 2.0, 3.0, 4.0], Field.REAL)
    assert (m.row.tolist(), m.col.tolist()) == ([0, 1, 1], [5, 0, huge - 1])
    assert m.data.tolist() == [2.0, 3.0, 5.0]
    g = SparseMatrix.from_coo(huge, 2, [huge - 1, huge - 1, 0], [1, 1, 0], [1, 1, 1], Field.GF2)
    assert (g.row.tolist(), g.col.tolist(), g.data.tolist()) == ([0], [0], [1])
    with pytest.raises(ValueError, match=rf"^non-finite entry at \(1, {huge - 1}\)$"):
        SparseMatrix.from_coo(2, huge, [0, 1], [5, huge - 1], [1.0, float("nan")], Field.REAL)


@pytest.mark.parametrize("row, col, data", [
    ([0], [0, 1], [1.0, 2.0]),  # one row would broadcast against the columns
    ([0, 1], [0, 1], [1.0]),
    ([0, 1], [0, 1], [1.0, 2.0, 3.0]),  # a spare value would be dropped unseen
    ([[0], [1]], [[0], [1]], [[1.0], [2.0]]),
])
def test_from_coo_needs_flat_arrays_of_one_length(row, col, data):
    with pytest.raises(ValueError, match="^row, col and data must be flat and of one length$"):
        SparseMatrix.from_coo(3, 3, row, col, data, Field.REAL)


@pytest.mark.parametrize("rows, cols", [(-1, 2), (2, -1)])
def test_from_coo_refuses_a_negative_shape(rows, cols):
    with pytest.raises(ValueError, match=rf"^need shape >= 0, integer positions: {rows}x{cols}"):
        SparseMatrix.from_coo(rows, cols, [], [], [], Field.REAL)


@pytest.mark.parametrize("row, col", [
    ([0.9], [1]),
    ([0], [1.7]),  # np.int64 would truncate it to 1 and store the entry at (0, 1)
    ([0], [True]),
    (np.array([0.0]), np.array([1], np.uint8)),
])
def test_from_coo_refuses_positions_that_are_not_integers(row, col):
    with pytest.raises(ValueError, match="^need shape >= 0, integer positions: 2x2"):
        SparseMatrix.from_coo(2, 2, row, col, [1.0], Field.REAL)


def test_from_coo_takes_empty_positions_and_any_integer_dtype():
    """Empty positions of any dtype pass, as zeros gives them."""
    assert SparseMatrix.from_coo(2, 2, (), [], np.empty(0), Field.GF2).nnz == 0
    m = SparseMatrix.from_coo(2, 2, np.array([1], np.uint8), np.array([0], np.int32), [1.0], Field.REAL)
    assert (m.row.dtype, m.row.tolist(), m.col.tolist()) == (np.int64, [1], [0])


def test_cochain_values_meet_the_number_rule():
    """A float or integer array is kept as given; other values follow _finite_reals's
    type rule, while NaN and infinities pass (hodge_decompose reports them)."""
    values = np.arange(3.0)
    assert Cochain(0, values).values is values
    assert Cochain(0, [1, 2.5, np.int64(-3), np.float32(0.5)]).values.tolist() == [1.0, 2.5, -3.0, 0.5]
    assert np.isnan(Cochain(0, [float("nan")]).values[0])
    assert Cochain(0, [2**60 + 1, 3], Field.GF2).values.tolist() == [1, 1]
    for bad in (["1", "2"], [True], [np.True_], [None], [[1.0]], [10**400], np.array(["1"]), np.array([True])):
        with pytest.raises(ValueError, match="^cochain values must be ints or floats"):
            Cochain(0, bad)


def test_cochain_values_must_be_a_vector():
    """A matrix or a 0-d array is refused at once, not by a broadcast or len() later."""
    with pytest.raises(ShapeMismatch, match=r"^cochain values must be a vector, got shape \(21, 2\)$"):
        Cochain(1, np.ones((21, 2)))
    with pytest.raises(ShapeMismatch, match=r"^cochain values must be a vector, got shape \(\)$"):
        Cochain(0, np.array(3.0))


def coo_reference(rows, cols, row, col, data, field_tag):
    """from_coo by a dict summing in input order and one np.lexsort of the positions."""
    sums = {}
    for r, c, v in zip(row, col, data):
        sums[r, c] = sums.get((r, c), 0.0) + float(v)
    r, c = (np.array([p[k] for p in sums], np.int64) for k in (0, 1))
    order = np.lexsort((c, r))
    r, c, v = r[order], c[order], np.array(list(sums.values()), np.float64)[order]
    v = v.astype(np.int64) % 2 if field_tag is Field.GF2 else v
    keep = ~(np.abs(v) <= REAL_ZERO_TOL)
    return r[keep], c[keep], v[keep].astype(np.uint8 if field_tag is Field.GF2 else np.float64)


# Past 2**63 cells from_coo sorts by row and column ranks, since row * cols + col would wrap.
HUGE_SHAPES = [(2**62 + 1, 3), (3, 2**62 + 1), (2**62, 2**62), (2**63 - 1, 2**63 - 1)]


@given(
    data=st.data(),
    field_tag=st.sampled_from(list(Field)),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)) | st.sampled_from(HUGE_SHAPES),
    int64_shape=st.booleans(),
)
def test_from_coo_matches_dict_and_lexsort_reference(data, field_tag, shape, int64_shape):
    """Repeated positions sum in input order, so rounding is the reference's bit for bit."""
    rows, cols = shape
    spots = data.draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                               min_size=1, max_size=6))
    if field_tag is Field.GF2:
        value = st.integers(-3, 3)
    else:
        value = st.floats(-1e6, 1e6) | st.sampled_from([0.1, -0.1, 1e-13, -1e-13, 0.0, -0.0])
    entries = data.draw(st.lists(st.tuples(st.sampled_from(spots), value), max_size=24))
    row, col, vals = [p[0] for p, _ in entries], [p[1] for p, _ in entries], [v for _, v in entries]
    size = (np.int64(rows), np.int64(cols)) if int64_shape else (rows, cols)
    m = SparseMatrix.from_coo(*size, row, col, vals, field_tag)
    assert m.shape == (rows, cols) and type(m.rows) is type(m.cols) is int
    for got, want in zip((m.row, m.col, m.data), coo_reference(rows, cols, row, col, vals, field_tag)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def dense_accumulation(shape, triplets, field_tag):
    out = np.zeros(shape)
    for r, c, v in triplets:
        out[r, c] += v
    return out % 2 if field_tag is Field.GF2 else out


@st.composite
def coo_triplets(draw, field_tag, rows, cols):
    """Triplets on a small grid, so positions repeat and values cancel exactly.

    Real values are multiples of 1/2, so every dense reference sum is exact.
    """
    if rows * cols == 0:
        return []
    value = st.integers(-3, 3) if field_tag is Field.GF2 else st.integers(-4, 4).map(lambda k: k / 2)
    entry = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), value)
    return draw(st.lists(entry, max_size=16))


FIELDS = st.sampled_from(list(Field))
SIZES = st.integers(0, 4)


@given(data=st.data(), field_tag=FIELDS, rows=SIZES, cols=SIZES)
def test_from_entries_is_canonical_dense_accumulation(data, field_tag, rows, cols):
    triplets = data.draw(coo_triplets(field_tag, rows, cols))
    m = SparseMatrix.from_entries(rows, cols, triplets, field_tag)
    dense = m.toarray()
    assert np.array_equal(dense, dense_accumulation((rows, cols), triplets, field_tag))
    assert np.all(np.diff(m.row * cols + m.col) > 0)
    assert m.nnz == len(m.entries) == np.count_nonzero(dense)


@given(data=st.data(), field_tag=FIELDS, rows=SIZES, inner=SIZES, cols=SIZES)
def test_operations_match_dense_reference(data, field_tag, rows, inner, cols):
    def draw(r, c):
        triplets = data.draw(coo_triplets(field_tag, r, c))
        m = SparseMatrix.from_entries(r, c, triplets, field_tag)
        return m, dense_accumulation((r, c), triplets, field_tag)

    def reduce(x):
        return x % 2 if field_tag is Field.GF2 else x

    a, da = draw(rows, inner)
    a2, da2 = draw(rows, inner)
    b, db = draw(inner, cols)
    x = Cochain(1, data.draw(st.lists(st.integers(-3, 3), min_size=inner, max_size=inner)), field_tag)
    assert np.array_equal(compose(a, b).toarray(), reduce(da @ db))
    assert np.array_equal(add(a, a2).toarray(), reduce(da + da2))
    assert np.array_equal(transpose(a).toarray(), da.T)
    assert np.array_equal(apply(a, x).values, reduce(da @ x.values))


def test_equality_compares_arrays(monkeypatch):
    def refuse(self):
        raise AssertionError("entries was built")

    monkeypatch.setattr(SparseMatrix, "entries", property(refuse))
    d = boundary_matrix(TRIANGLE, 2, Field.REAL)
    assert d == SparseMatrix.from_coo(3, 1, [2, 1, 0], [0, 0, 0], [1.0, -1.0, 1.0], Field.REAL)
    assert d != SparseMatrix.from_coo(3, 1, [0, 1, 2], [0, 0, 0], [1.0, -1.0, 2.0], Field.REAL)
    assert d != SparseMatrix.from_coo(3, 1, [0, 1], [0, 0], [1.0, -1.0], Field.REAL)
    assert d != SparseMatrix.from_coo(3, 2, [0, 1, 2], [0, 0, 0], [1.0, -1.0, 1.0], Field.REAL)
    assert d != boundary_matrix(TRIANGLE, 2, Field.GF2)
    assert boundary_matrix(TRIANGLE, 2, Field.GF2) == transpose(coboundary_matrix(TRIANGLE, 1, Field.GF2))
    assert (d == 3) is False and repr(d) == "SparseMatrix(3x1, real, nnz=3)"


def test_compose_finds_rows_by_entries_not_by_the_inner_dimension():
    """A map with 2**62 + 1 rows and two entries: no index per inner row."""
    rows = 2**62 + 1
    d = SparseMatrix.from_coo(rows, 2, [0, rows - 1], [1, 0], [2.0, 3.0], Field.REAL)
    assert np.array_equal(compose(transpose(d), d).toarray(), [[9.0, 0.0], [0.0, 4.0]])


@pytest.mark.parametrize(
    "other,error,message",
    [
        (SparseMatrix.zeros(2, 3, Field.GF2), FieldMismatch, "cannot add real and gf2"),
        (SparseMatrix.zeros(3, 2, Field.REAL), ShapeMismatch, "shapes differ: (2, 3) vs (3, 2)"),
    ],
)
def test_add_needs_one_field_and_one_shape(other, error, message):
    with pytest.raises(error) as err:
        add(SparseMatrix.zeros(2, 3, Field.REAL), other)
    assert str(err.value) == message
