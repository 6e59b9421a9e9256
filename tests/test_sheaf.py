"""Sheaves: validation, coboundaries, consistency, cohomology, Laplacians."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgekit import (
    Simplex,
    SparseMatrix,
    betti,
    boundary_matrix,
    build_complex,
    coboundary_matrix,
    harmonic_basis,
    hodge_laplacian,
    Field,
)
from hodgekit.errors import (
    DimensionOutOfRange,
    InconsistentSheaf,
    MissingRestriction,
    MissingStalk,
    ShapeMismatch,
    UnknownSimplex,
)
from hodgekit.chains import _runs
from hodgekit.hodge import InnerProductWeights
from hodgekit.sheaf import (
    COMMUTE_TOL,
    Assignment,
    Sheaf,
    check_consistency,
    constant_sheaf,
    sheaf_coboundary,
    sheaf_cohomology_dims,
    sheaf_laplacian,
)
from hodgekit.spectral import eigendecompose

from conftest import (
    CORPUS,
    CORPUS_TOPS,
    fraction_rank,
    gauge_sheaf,
    random_clique_complex,
    shift_register_sheaf,
)

# The displayed consistency matrix for the three-window shift register:
# positive shift blocks from the left vertex, negated overlap blocks from
# the right vertex.  Our incidence signs negate each edge's row block.
DISPLAY_DELTA0 = np.array(
    [
        [0, 1, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, -1, 0],
    ],
    dtype=float,
)


def test_shift_register_coboundary_matches_display_block_signs():
    line, sh = shift_register_sheaf()
    delta0 = sheaf_coboundary(line, sh, 0).toarray()
    assert delta0.shape == (4, 9)
    assert np.array_equal(delta0, -DISPLAY_DELTA0)


def test_shift_register_consistent_assignment():
    line, sh = shift_register_sheaf()
    ok, residual = check_consistency(
        line, sh, Assignment(0, [1, 2, 3, 2, 3, 4, 3, 4, 5])
    )
    assert ok
    assert np.array_equal(residual.values, np.zeros(4))
    assert residual.dimension == 1


def test_shift_register_inconsistent_assignment():
    line, sh = shift_register_sheaf()
    ok, residual = check_consistency(
        line, sh, Assignment(0, [1, 2, 3, 9, 9, 9, 3, 4, 5])
    )
    assert not ok
    assert np.count_nonzero(residual.values) > 0


def test_vacuously_consistent_on_top_dimension():
    line, sh = shift_register_sheaf()
    ok, residual = check_consistency(line, sh, Assignment(1, np.ones(4)))
    assert ok
    assert len(residual.values) == 0


def test_shift_register_cohomology_dims():
    line, sh = shift_register_sheaf()
    dims = sheaf_cohomology_dims(line, sh)
    rank = fraction_rank(DISPLAY_DELTA0)
    assert rank == 4
    assert dims == [9 - rank, 0]
    assert dims[0] == 5


def test_shift_register_laplacian_kernel():
    line, sh = shift_register_sheaf()
    ops = sheaf_laplacian(line, sh, 0)
    assert len(harmonic_basis(ops)) == 5


def test_constant_sheaf_coboundary_equals_signed_coboundary(corpus_complex):
    c = corpus_complex
    sh = constant_sheaf(c)
    for n in range(c.max_dim + 1):
        dense = sheaf_coboundary(c, sh, n).toarray()
        plain = coboundary_matrix(c, n, Field.REAL).toarray()
        assert np.array_equal(dense, plain)
    # The general constructor, given the constant sheaf's stalks and maps.
    stalks = {s: 1 for n in range(c.max_dim + 1) for s in c.simplices(n)}
    maps = {
        (face, coface): [[1.0]]
        for n in range(1, c.max_dim + 1)
        for coface in c.simplices(n)
        for face in coface.faces()
    }
    general = Sheaf(c, stalks, maps)
    for n in range(c.max_dim + 1):
        assert sheaf_coboundary(c, general, n) == coboundary_matrix(c, n, Field.REAL)


def test_constant_sheaf_laplacian_equals_simplicial(corpus_complex):
    c = corpus_complex
    sh = constant_sheaf(c)
    for n in range(c.max_dim + 1):
        sheaf_ops = sheaf_laplacian(c, sh, n)
        plain_ops = hodge_laplacian(c, n)
        for part in ("up", "down", "full"):
            a = getattr(sheaf_ops, part).toarray()
            b = getattr(plain_ops, part).toarray()
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-9


def test_constant_sheaf_spectra_and_dims_match(corpus_complex):
    c = corpus_complex
    sh = constant_sheaf(c)
    assert sheaf_cohomology_dims(c, sh) == betti(c)
    for n in range(c.max_dim + 1):
        ev_sheaf = eigendecompose(sheaf_laplacian(c, sh, n).full).eigenvalues
        ev_plain = eigendecompose(hodge_laplacian(c, n).full).eigenvalues
        assert np.allclose(ev_sheaf, ev_plain, atol=1e-9)


def test_zero_dimensional_stalk_blocks_absent():
    line = build_complex([[0, 1], [1, 2]])
    stalks = {(0,): 2, (1,): 0, (2,): 2, (0, 1): 1, (1, 2): 1}
    maps = {
        ((0,), (0, 1)): np.array([[1.0, 0.0]]),
        ((2,), (1, 2)): np.array([[0.0, 1.0]]),
    }
    sh = Sheaf(line, stalks, maps)
    delta0 = sheaf_coboundary(line, sh, 0)
    assert delta0.shape == (2, 4)
    dense = delta0.toarray()
    assert np.count_nonzero(dense[:, 2:]) > 0 or np.count_nonzero(dense[:, :2]) > 0


def test_zero_restriction_maps_give_zero_laplacian():
    edge = build_complex([[0, 1]])
    stalks = {(0,): 1, (1,): 1, (0, 1): 1}
    maps = {
        ((0,), (0, 1)): np.zeros((1, 1)),
        ((1,), (0, 1)): np.zeros((1, 1)),
    }
    sh = Sheaf(edge, stalks, maps)
    ops = sheaf_laplacian(edge, sh, 0)
    assert ops.full.nnz == 0
    assert len(harmonic_basis(ops)) == 2
    assert sheaf_cohomology_dims(edge, sh)[0] == 2


def test_single_vertex_stalk_cohomology():
    vertex = build_complex([[0]])
    sh = Sheaf(vertex, {(0,): 4}, {})
    assert sheaf_cohomology_dims(vertex, sh) == [4]


def test_sheaf_validation_errors():
    line = build_complex([[0, 1]])
    with pytest.raises(MissingStalk):
        Sheaf(line, {(0,): 1, (1,): 1}, {})
    with pytest.raises(MissingRestriction):
        Sheaf(line, {(0,): 1, (1,): 1, (0, 1): 1}, {((0,), (0, 1)): np.eye(1)})
    with pytest.raises(ShapeMismatch):
        Sheaf(
            line,
            {(0,): 2, (1,): 1, (0, 1): 1},
            {((0,), (0, 1)): np.eye(1), ((1,), (0, 1)): np.eye(1)},
        )
    with pytest.raises(UnknownSimplex):
        Sheaf(line, {(0,): 1, (1,): 1, (0, 1): 1, (7,): 1}, {})
    with pytest.raises(ValueError):
        Sheaf(
            line,
            {(0,): 1, (1,): 1, (0, 1): 1},
            {((0,), (0, 1)): np.eye(1), ((1,), (0, 1)): np.eye(1), ((0,), (1,)): np.eye(1)},
        )


def test_restriction_maps_with_two_axes_must_have_the_pairs_shape():
    line = build_complex([[0, 1]])
    stalks = {(0,): 3, (1,): 3, (0, 1): 2}
    right = np.arange(6.0).reshape(2, 3)
    for wrong in (right.T, right.reshape(1, 6), right.reshape(2, 1, 3)):
        with pytest.raises(ShapeMismatch) as err:
            Sheaf(line, stalks, {((0,), (0, 1)): wrong, ((1,), (0, 1)): right})
        assert str(err.value).endswith(f"has shape {wrong.shape}, expected (2, 3)")
    # A flat map with the pair's entry count is read row-major.
    sh = Sheaf(line, stalks, {((0,), (0, 1)): right.ravel(), ((1,), (0, 1)): right})
    assert np.array_equal(sh.restriction(Simplex((0,)), Simplex((0, 1))), right)


def test_zero_edge_stalks_beside_a_huge_vertex_stalk_need_no_dense_array():
    line = build_complex([[0, 1], [1, 2]])
    stalks = {(0,): 2**62, (1,): 1, (2,): 1, (0, 1): 0, (1, 2): 0}
    assert sheaf_cohomology_dims(line, Sheaf(line, stalks, {})) == [2**62 + 2, 0]
    # delta_0 is 1 x (2**62 + 2) with two entries: its empty columns add only nullity.
    stalks[(1, 2)] = 1
    sh = Sheaf(line, stalks, {((1,), (1, 2)): [[1]], ((2,), (1, 2)): [[1]]})
    assert sheaf_cohomology_dims(line, sh) == [2**62 + 1, 0]
    # delta_0 of this path is 2 x (2**62 + 3): its second row's entries lie past 2**63 cells.
    path = build_complex([[0, 1], [1, 2], [2, 3]])
    stalks = {(0,): 2**62, (1,): 1, (2,): 1, (3,): 1, (0, 1): 0, (1, 2): 1, (2, 3): 1}
    maps = {((v,), edge): [[1]] for edge in ((1, 2), (2, 3)) for v in edge}
    assert sheaf_cohomology_dims(path, Sheaf(path, stalks, maps)) == [2**62 + 1, 0]


def test_one_entry_past_a_huge_run_of_empty_rows_needs_no_dense_array():
    """delta_0 is (2**62 + 1) x 2 with its one entry in row 2**62."""
    c = build_complex([[0, 1], [1, 2], [3]])
    stalks = {(0,): 0, (1,): 0, (2,): 1, (3,): 1, (0, 1): 2**62, (1, 2): 1}
    sh = Sheaf(c, stalks, {((2,), (1, 2)): [[1]]})
    assert sheaf_cohomology_dims(c, sh) == [1, 2**62]


FLOAT_MAX = sys.float_info.max


@pytest.mark.parametrize(
    "bad",
    [[[1, 2], [3]], "ab", [[10**400, 0], [0, 1]], {}, "12", [[True, 0], [0, 1]],
     np.array([[True, False], [False, True]]), [[None, 0], [0, 1]], [[int(FLOAT_MAX) + 1, 0], [0, 1]]],
    ids=["ragged", "string", "past float range", "dict", "numeric string", "bools", "bool array",
         "None", "just past float range"],
)
def test_a_map_that_is_not_an_array_of_numbers_names_its_pair(bad):
    edge = build_complex([[0, 1]])
    maps = {((0,), (0, 1)): bad, ((1,), (0, 1)): [[1, 0], [0, 1]]}
    with pytest.raises(ValueError, match=r"^restriction \(Simplex\(0,\), Simplex\(0, 1\)\) is not an array"):
        Sheaf(edge, {(0,): 2, (1,): 2, (0, 1): 2}, maps)


def test_every_map_form_builds_the_same_coboundaries():
    """Lists of equally long rows are read all at once; arrays, flat lists and a mix
    of forms go map by map.  Gauge maps g_t g_s^T commute on the two filled triangles."""
    c = build_complex([[0, 1, 2], [1, 2, 3]])
    rng = np.random.default_rng(7)
    simplices = [s for n in range(3) for s in c.simplices(n)]
    g = {s: np.linalg.qr(rng.standard_normal((2, 2)))[0] for s in simplices}
    pairs = [(f, t) for n in (1, 2) for t in c.simplices(n) for f in t.faces()]
    stalks = {s: 2 for s in simplices}
    arrays = {(f, t): g[t] @ g[f].T for f, t in pairs}
    rows = Sheaf(c, stalks, {k: m.tolist() for k, m in arrays.items()})
    forms = [arrays, {k: m.ravel().tolist() for k, m in arrays.items()},
             {k: m if k == pairs[3] else m.tolist() for k, m in arrays.items()}]
    for maps in forms:
        other = Sheaf(c, stalks, maps)
        assert all(a == b for a, b in zip(rows._delta, other._delta))


def test_an_empty_list_beside_lists_of_rows_is_a_flat_map():
    """[] has no rows, so it is read as a flat map with no entries, which fits a pair whose
    coface stalk is 0; [[], []] is two empty rows, a 2 x 0 map."""
    path = build_complex([[0, 1], [1, 2]])
    stalks = {(0,): 2, (1,): 0, (2,): 1, (0, 1): 0, (1, 2): 2}
    sh = Sheaf(path, stalks, {((0,), (0, 1)): [], ((1,), (1, 2)): [[], []], ((2,), (1, 2)): [[1], [2]]})
    assert sh.restriction(Simplex((2,)), Simplex((1, 2))).tolist() == [[1.0], [2.0]]
    assert sheaf_cohomology_dims(path, sh) == [2, 1]


def test_block_checks_compare_each_axis_so_no_stalk_product_wraps():
    """stalk(coface) * stalk(face) is 2**64 here, which is 0 in int64."""
    edge = build_complex([[0, 1]])
    stalks = {(0,): 4, (1,): 0, (0, 1): 2**62}
    with pytest.raises(MissingRestriction, match=r"^no restriction map for \(Simplex\(0,\), Simplex\(0, 1\)\)$"):
        Sheaf(edge, stalks, {})
    with pytest.raises(ShapeMismatch, match=r"has shape \(0,\), expected \(4611686018427387904, 4\)$"):
        Sheaf(edge, stalks, {((0,), (0, 1)): []})


def test_a_huge_edge_stalk_on_a_filled_triangle_composes_by_entries():
    """delta_1 delta_0 has an inner dimension past 2**62 but only two entries to meet."""
    tri = build_complex([[0, 1, 2]])
    stalks = {(0,): 1, (1,): 0, (2,): 0, (0, 1): 1, (0, 2): 1, (1, 2): 2**62, (0, 1, 2): 0}
    maps = {((0,), (0, 1)): [[1]], ((0,), (0, 2)): [[1]]}
    assert sheaf_cohomology_dims(tri, Sheaf(tri, stalks, maps)) == [0, 2**62 + 1, 0]


def test_pairs_build_the_sheaf_their_mapping_builds():
    c = CORPUS["torus7"]
    sh = gauge_sheaf(c, seed=3)
    stalks = {tuple(s.vertices): sh.stalk_dim(s) for n in range(3) for s in c.simplices(n)}
    maps = {
        (face, coface): sh.restriction(face, coface)
        for n in (1, 2) for coface in c.simplices(n) for face in coface.faces()
    }
    from_pairs = Sheaf(c, list(stalks.items()), list(maps.items()))
    from_mapping = Sheaf(c, stalks, maps)
    for n in range(3):
        a, b = sheaf_coboundary(c, from_pairs, n), sheaf_coboundary(c, from_mapping, n)
        assert a.shape == b.shape
        assert all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("row", "col", "data"))


def test_a_simplex_given_twice_in_pairs_keeps_its_last_stalk():
    edge = build_complex([[0, 1]])
    stalks = [((0,), 5), ((1,), 1), ((0, 1), 3), ((0,), 2), ((1, 0), 0)]
    sh = Sheaf(edge, stalks, [])
    assert [sh.stalk_dim(Simplex(s)) for s in ((0,), (1,), (0, 1))] == [2, 1, 0]
    # Every value is checked, also one that a later pair replaces.
    with pytest.raises(ValueError, match=r"^stalk dimension for Simplex\(0,\) must be"):
        Sheaf(edge, [((0,), True), *stalks], [])


def test_zero_vertex_stalks_have_an_empty_harmonic_basis():
    edge = build_complex([[0, 1]])
    sh = Sheaf(edge, {(0,): 0, (1,): 0, (0, 1): 2}, {})
    ops = sheaf_laplacian(edge, sh, 0)
    assert ops.size == 0 and harmonic_basis(ops) == []
    assert len(harmonic_basis(sheaf_laplacian(edge, sh, 1))) == 2


SHEAF_ERRORS = {
    "coboundary below dimension 0": (
        DimensionOutOfRange, "dimension -1 outside 0..1", lambda c, sh: sheaf_coboundary(c, sh, -1)
    ),
    "coboundary past the top": (
        DimensionOutOfRange, "dimension 2 outside 0..1", lambda c, sh: sheaf_coboundary(c, sh, 2)
    ),
    "laplacian below dimension 0": (
        DimensionOutOfRange, "dimension -1 outside 0..1", lambda c, sh: sheaf_laplacian(c, sh, -1)
    ),
    "laplacian past the top": (
        DimensionOutOfRange, "dimension 2 outside 0..1", lambda c, sh: sheaf_laplacian(c, sh, 2)
    ),
    "assignment of the wrong length": (
        ShapeMismatch,
        "assignment length 8 != stalk total 9",
        lambda c, sh: check_consistency(c, sh, Assignment(0, np.zeros(8))),
    ),
}


@pytest.mark.parametrize("case", sorted(SHEAF_ERRORS))
def test_sheaf_functions_reject_bad_arguments(case):
    error, message, call = SHEAF_ERRORS[case]
    line, sh = shift_register_sheaf()
    with pytest.raises(error) as err:
        call(line, sh)
    assert str(err.value) == message


SHEAF_CALLS = {
    "sheaf_coboundary": lambda c, sh: sheaf_coboundary(c, sh, 0),
    "sheaf_cohomology_dims": sheaf_cohomology_dims,
    "check_consistency": lambda c, s: check_consistency(c, s, Assignment(0, [0.0] * s.total_dim(0))),
    "sheaf_laplacian": lambda c, sh: sheaf_laplacian(c, sh, 0),
}


@pytest.mark.parametrize("call", SHEAF_CALLS)
def test_sheaf_functions_reject_another_complex(call):
    """Only the sheaf's own complex: a longer path, a filled triangle and an equal
    rebuilt copy are all another complex, as is a second vertex beside a vertex sheaf."""
    line, sh = shift_register_sheaf()
    vertex = build_complex([[0]])
    point = Sheaf(vertex, {(0,): 2}, {})
    others = [
        (build_complex([[0, 1], [1, 2], [2, 3]]), sh),
        (build_complex([[0, 1, 2]]), sh),
        (build_complex([[0, 1], [1, 2]]), sh),
        (build_complex([[0]]), point),
    ]
    for c, sheaf_ in others:
        with pytest.raises(ShapeMismatch, match="^the sheaf is over another complex$"):
            SHEAF_CALLS[call](c, sheaf_)
    SHEAF_CALLS[call](line, sh)
    SHEAF_CALLS[call](vertex, point)


def test_stalk_dimensions_are_integers_whose_totals_fit_int64():
    line = build_complex([[0, 1]])
    for bad in (True, np.int64(-1), -1, 1.0, np.bool_(True), 2**63, 10**30, np.uint64(2**63)):
        with pytest.raises(ValueError, match=r"^stalk dimension for Simplex\(0,\) must be a non-neg"):
            Sheaf(line, {(0,): bad, (1,): 1, (0, 1): 0}, {})
    with pytest.raises(ValueError, match=r"^stalks of dimension 0 total 2\*\*63 or more at Simplex\(1,\)$"):
        Sheaf(line, {(0,): 2**62, (1,): 2**62, (0, 1): 0}, {})
    assert Sheaf(line, {(0,): np.int64(2), (1,): np.uint8(1), (0, 1): 0}, {}).total_dim(0) == 3
    assert Sheaf(line, {(0,): 2**62, (1,): 2**62 - 1, (0, 1): 0}, {}).total_dim(0) == 2**63 - 1


def test_restriction_needs_an_incident_pair():
    line = build_complex([[0, 1], [1, 2]])
    stalks = {(0,): 1, (1,): 1, (2,): 1, (0, 1): 0, (1, 2): 0}
    with pytest.raises(ValueError, match="not an incident pair"):
        Sheaf(line, stalks, {((2,), (0, 1)): np.zeros((0, 1))})
    sh = Sheaf(line, stalks, {})
    assert sh.restriction(Simplex((1,)), Simplex((0, 1))).shape == (0, 1)
    with pytest.raises(MissingRestriction):
        sh.restriction(Simplex((2,)), Simplex((0, 1)))


@pytest.mark.parametrize(
    "first,second",
    [(((0,), (0, 1)), ((0,), (1, 0))), ((Simplex((0,)), Simplex((0, 1))), ((0,), (0, 1)))],
)
def test_pair_given_twice_keeps_its_last_map(first, second):
    edge = build_complex([[0, 1]])
    stalks = {(0,): 1, (1,): 1, (0, 1): 1}
    maps = {((1,), (0, 1)): [[1.0]], first: [[2.0]], second: [[5.0]]}
    sh = Sheaf(edge, stalks, maps)
    assert np.array_equal(sheaf_coboundary(edge, sh, 0).toarray(), [[-5.0, 1.0]])
    assert np.array_equal(sh.restriction(Simplex((0,)), Simplex((0, 1))), [[5.0]])


def test_restriction_reads_entries_below_zero_tol_as_zero():
    edge = build_complex([[0, 1]])
    stalks = {(0,): 1, (1,): 1, (0, 1): 1}
    tiny = Sheaf(edge, stalks, {((0,), (0, 1)): [[1e-13]], ((1,), (0, 1)): [[1.0]]})
    zero = Sheaf(edge, stalks, {((0,), (0, 1)): [[0.0]], ((1,), (0, 1)): [[1.0]]})
    assert np.array_equal(tiny.restriction(Simplex((0,)), Simplex((0, 1))), [[0.0]])
    assert np.array_equal(tiny.restriction(Simplex((1,)), Simplex((0, 1))), [[1.0]])
    assert sheaf_cohomology_dims(edge, tiny) == sheaf_cohomology_dims(edge, zero) == [1, 0]


def test_coboundaries_are_built_once(monkeypatch):
    c = CORPUS["torus7"]
    sh = gauge_sheaf(c, seed=5)

    def refuse(counts):
        raise AssertionError("a coboundary was assembled again")

    monkeypatch.setattr("hodgekit.sheaf._runs", refuse)
    assert sheaf_cohomology_dims(c, sh) == betti(c)
    ok, _ = check_consistency(c, sh, Assignment(0, np.zeros(sh.total_dim(0))))
    assert ok
    for n in range(c.max_dim + 1):
        sheaf_laplacian(c, sh, n)
        assert sheaf_coboundary(c, sh, n) is sheaf_coboundary(c, sh, n)


def test_non_commuting_restrictions_rejected():
    tri = build_complex([[0, 1, 2]])
    stalks = {s: 1 for n in range(3) for s in tri.simplices(n)}
    maps = {}
    for n in (1, 2):
        for coface in tri.simplices(n):
            for face in coface.faces():
                maps[(face, coface)] = np.eye(1)
    # Break one vertex-to-edge map so the two paths to the triangle differ.
    maps[((0,), (0, 1))] = np.array([[2.0]])
    with pytest.raises(InconsistentSheaf):
        Sheaf(tri, stalks, maps)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_restriction_rejected(bad):
    tri = build_complex([[0, 1, 2]])
    stalks = {s: 1 for n in range(3) for s in tri.simplices(n)}
    maps = {
        (face, coface): np.eye(1)
        for n in (1, 2)
        for coface in tri.simplices(n)
        for face in coface.faces()
    }
    maps[((0,), (0, 1))] = np.array([[bad]])
    with pytest.raises(ValueError):
        Sheaf(tri, stalks, maps)


def corpus_sheaves():
    line, shift_sheaf = shift_register_sheaf()
    yield "shift-register", line, shift_sheaf
    for name in ("filled-triangle", "two-shared-edge", "torus7", "tetra"):
        yield f"gauge-{name}", CORPUS[name], gauge_sheaf(CORPUS[name], seed=13)
    for name in ("hollow-triangle", "sphere2"):
        yield f"constant-{name}", CORPUS[name], constant_sheaf(CORPUS[name])


@pytest.mark.parametrize(
    "name,complex_,sheaf_", list(corpus_sheaves()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_sheaf_fundamental_lemma(name, complex_, sheaf_):
    for n in range(complex_.max_dim):
        upper = sheaf_coboundary(complex_, sheaf_, n + 1).toarray()
        lower = sheaf_coboundary(complex_, sheaf_, n).toarray()
        product = upper @ lower
        assert np.max(np.abs(product), initial=0.0) <= 1e-10, (name, n)


@pytest.mark.parametrize(
    "name,complex_,sheaf_", list(corpus_sheaves()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_sheaf_hodge_theorem(name, complex_, sheaf_):
    dims = sheaf_cohomology_dims(complex_, sheaf_)
    for n in range(complex_.max_dim + 1):
        ops = sheaf_laplacian(complex_, sheaf_, n)
        assert len(harmonic_basis(ops)) == dims[n], (name, n)


def test_gauge_sheaf_cohomology_matches_betti():
    for name in ("filled-triangle", "torus7", "tetra"):
        c = CORPUS[name]
        assert sheaf_cohomology_dims(c, gauge_sheaf(c, seed=3)) == betti(c), name


def test_weighted_sheaf_laplacian_kernel_dimension():
    line, sh = shift_register_sheaf()
    rng = np.random.default_rng(19)
    w = InnerProductWeights(
        {0: 0.5 + rng.random(sh.total_dim(0)), 1: 0.5 + rng.random(sh.total_dim(1))}
    )
    ops = sheaf_laplacian(line, sh, 0, w)
    assert len(harmonic_basis(ops)) == 5
    # Self-adjointness for the stalk inner product.
    a = ops.full.toarray()
    wv = ops.weight_vector
    for _ in range(20):
        x = rng.standard_normal(len(wv))
        y = rng.standard_normal(len(wv))
        lhs = float(np.sum(wv * (a @ x) * y))
        rhs = float(np.sum(wv * x * (a @ y)))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


# References for the block layout: the per-pair dict layout Sheaf had before
# it held arrays aligned with the face tables, with its commutativity loop and
# its coboundary, kept verbatim except that the loop collects every failing
# (sigma, rho) pair instead of raising at the first.
class ReferenceSheaf:
    """_stalks[n][j] and _maps[n][(face, coface)] by canonical position."""

    def __init__(self, c, stalk_dims, restrictions):
        self.complex = c
        self._stalks = [[-1] * c.n_simplices(n) for n in range(c.max_dim + 1)]
        for s, dim in stalk_dims.items():
            self._stalks[s.dimension][c.index(s)] = int(dim)
        self._maps = [{} for _ in self._stalks]
        for (face, coface), matrix in restrictions.items():
            n, f, j = coface.dimension, c.index(face), c.index(coface)
            expected = (self._stalks[n][j], self._stalks[n - 1][f])
            self._maps[n][(f, j)] = np.asarray(matrix, dtype=np.float64).reshape(expected)
        for n in range(1, c.max_dim + 1):
            for j, faces in enumerate(c.face_table(n).tolist()):
                for f in faces:
                    if (f, j) not in self._maps[n]:
                        self._maps[n][(f, j)] = np.zeros((self._stalks[n][j], self._stalks[n - 1][f]))

    def failing_pairs(self) -> set[tuple[Simplex, Simplex]]:
        """Both paths rho > tau > sigma to each codimension-2 face must agree."""
        c, failing = self.complex, set()
        for k in range(2, c.max_dim + 1):
            below = c.face_table(k - 1).tolist()
            for rho, taus in enumerate(c.face_table(k).tolist()):
                paths: dict[int, list[np.ndarray]] = {}
                for tau in taus:
                    for sigma in below[tau]:
                        paths.setdefault(sigma, []).append(
                            self._maps[k][(tau, rho)] @ self._maps[k - 1][(sigma, tau)]
                        )
                for sigma, (first, second) in paths.items():
                    defect = np.max(np.abs(first - second), initial=0.0)
                    if not defect <= COMMUTE_TOL:
                        failing.add((c.simplices(k - 2)[sigma], c.simplices(k)[rho]))
        return failing

    def offsets(self, n: int) -> np.ndarray:
        dims = self._stalks[n] if self.complex.n_simplices(n) else []
        return np.concatenate([[0], np.cumsum(dims)]).astype(int)

    def total_dim(self, n: int) -> int:
        return int(self.offsets(n)[-1])


def reference_coboundary(c, sh: ReferenceSheaf, n: int) -> SparseMatrix:
    cols = sh.total_dim(n)
    if n == c.max_dim:
        return SparseMatrix.zeros(0, cols, Field.REAL)
    row_off, col_off = sh.offsets(n + 1), sh.offsets(n)
    d, maps = boundary_matrix(c, n + 1, Field.REAL), sh._maps[n + 1]
    values = [
        sign * maps[(face, coface)].ravel()
        for face, coface, sign in zip(d.row.tolist(), d.col.tolist(), d.data.tolist())
    ]
    # One block per nonzero of d, placed at its coface's rows and its face's columns.
    p, q = np.diff(row_off)[d.col], np.diff(col_off)[d.row]
    block_of, slot = _runs(p * q)
    down, across = np.divmod(slot, q[block_of])
    row, col = row_off[d.col[block_of]] + down, col_off[d.row[block_of]] + across
    return SparseMatrix.from_coo(row_off[-1], cols, row, col, np.concatenate(values), Field.REAL)


def projection_gauge_sheaf(c, rng, perturb: bool):
    """Ragged stalks (dimension 0 to 3) whose maps commute, with one block perturbed or not.

    Vertex v keeps a random set A_v of the coordinates of R^3, and a simplex
    the coordinates all its vertices keep, so a coface keeps a subset of
    what its faces keep.  The map from sigma to tau is g_tau P g_sigma^T, P
    the coordinate projection and each g a random orthogonal matrix; every
    path from sigma to rho composes to g_rho P g_sigma^T.
    """
    keep = {v: np.flatnonzero(rng.random(3) < 0.7) for v in c.vertices}
    coords, gauge, stalks, maps = {}, {}, {}, {}
    for n in range(c.max_dim + 1):
        for s in c.simplices(n):
            coords[s] = np.array(sorted(set.intersection(*(set(keep[v]) for v in s.vertices))), int)
            k = len(coords[s])
            gauge[s] = np.linalg.qr(rng.standard_normal((k, k)))[0] if k else np.zeros((0, 0))
            # Keys are Simplex objects or plain vertex tuples, at random.
            stalks[s if rng.random() < 0.5 else s.vertices] = k
    for n in range(1, c.max_dim + 1):
        for tau in c.simplices(n):
            for sigma in tau.faces():
                projection = (coords[tau][:, None] == coords[sigma][None, :]).astype(float)
                block = gauge[tau] @ projection @ gauge[sigma].T
                if block.size or rng.random() < 0.5:  # empty blocks may be left out
                    maps[(sigma, tau)] = block
    nonempty = [pair for pair, block in maps.items() if block.size]
    if perturb and nonempty:
        pair = nonempty[int(rng.integers(len(nonempty)))]
        maps[pair] = maps[pair] + 0.5 * np.eye(*maps[pair].shape)
    return stalks, maps


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from(["clique", "torus7", "tetra"]),
    perturb=st.booleans(),
)
def test_block_layout_matches_per_pair_reference(seed, source, perturb):
    rng = np.random.default_rng(seed)
    c = random_clique_complex(rng, int(rng.integers(4, 9)), 0.7) if source == "clique" else CORPUS[source]
    stalks, maps = projection_gauge_sheaf(c, rng, perturb)
    canonical = {s if isinstance(s, Simplex) else Simplex(s): k for s, k in stalks.items()}
    ref = ReferenceSheaf(c, canonical, maps)
    failing = ref.failing_pairs()
    if failing:
        with pytest.raises(InconsistentSheaf) as info:
            Sheaf(c, stalks, maps)
        named = [pair for pair in failing if f"between {pair[0]} and {pair[1]}" in str(info.value)]
        assert named, (str(info.value), failing)
        return
    sh = Sheaf(c, stalks, maps)
    for n in range(c.max_dim + 1):
        assert sheaf_coboundary(c, sh, n) == reference_coboundary(c, ref, n)
        for s in c.simplices(n):
            assert sh.stalk_dim(s) == canonical[s]
    for (face, coface), block in maps.items():
        assert np.array_equal(sh.restriction(face, coface), block)


def test_overflowing_paths_are_inconsistent():
    tri = build_complex([[0, 1, 2]])
    stalks = {s: 1 for n in range(3) for s in tri.simplices(n)}
    maps = {
        (face, coface): np.full((1, 1), 1e200)
        for n in (1, 2)
        for coface in tri.simplices(n)
        for face in coface.faces()
    }
    with np.errstate(over="ignore", invalid="ignore"):
        assert ReferenceSheaf(tri, stalks, maps).failing_pairs()
        with pytest.raises(InconsistentSheaf):
            Sheaf(tri, stalks, maps)


def test_constant_sheaf_builds_no_simplex(monkeypatch):
    c = build_complex(CORPUS_TOPS["torus7"])

    def refuse(self):
        raise AssertionError("a Simplex was built")

    monkeypatch.setattr(Simplex, "__post_init__", refuse)
    sh = constant_sheaf(c)
    assert sheaf_coboundary(c, sh, 1) == coboundary_matrix(c, 1, Field.REAL)
