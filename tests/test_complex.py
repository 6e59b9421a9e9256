"""Construction, closure, canonical ordering, and face navigation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hodgekit import Field, Simplex, boundary_matrix, build_complex
from hodgekit import complex as complex_module
from hodgekit import generators as gen
from hodgekit.io import parse_complex
from hodgekit.sheaf import sheaf_coboundary
from hodgekit.errors import (
    DuplicateVertex,
    EmptySimplex,
    FormatError,
    InvalidVertex,
    UnknownSimplex,
    ZeroDimensional,
)

from conftest import CORPUS, CORPUS_TOPS, gauge_sheaf


def test_filled_triangle_has_seven_simplices():
    c = build_complex([[0, 1, 2]])
    assert c.n_simplices(0) == 3
    assert c.n_simplices(1) == 3
    assert c.n_simplices(2) == 1
    assert len(c) == 7


def test_single_vertex():
    c = build_complex([[0]])
    assert c.max_dim == 0
    assert len(c) == 1


def test_hollow_triangle_is_its_own_closure():
    c = build_complex([[0, 1], [1, 2], [2, 0]])
    assert c.n_simplices(0) == 3
    assert c.n_simplices(1) == 3
    assert c.max_dim == 1
    assert repr(c) == "SimplicialComplex(dim=1, counts=[3,3])"
    with pytest.raises(ValueError):
        c.n_simplices(-1)


def test_build_rejects_empty_and_duplicates():
    with pytest.raises(EmptySimplex):
        build_complex([[]])
    with pytest.raises(EmptySimplex):
        build_complex([])
    with pytest.raises(DuplicateVertex):
        build_complex([[0, 1, 0]])
    with pytest.raises(InvalidVertex):
        build_complex([[-1, 2]])


def test_build_is_idempotent_under_duplicate_inputs():
    once = build_complex([[0, 1, 2]])
    twice = build_complex([[0, 1, 2], [0, 1, 2], [1, 2]])
    for n in range(3):
        assert once.simplices(n) == twice.simplices(n)


def test_closure_property(corpus_complex):
    c = corpus_complex
    for n in range(1, c.max_dim + 1):
        for s in c.simplices(n):
            for f in s.faces():
                assert f in c


def test_canonical_order_stable_under_permuted_input():
    rng = np.random.default_rng(3)
    for name, tops in CORPUS_TOPS.items():
        shuffled = [list(t) for t in tops]
        rng.shuffle(shuffled)
        shuffled = [list(reversed(t)) if len(t) > 1 else t for t in shuffled]
        rebuilt = build_complex(shuffled)
        for n in range(CORPUS[name].max_dim + 1):
            assert rebuilt.simplices(n) == CORPUS[name].simplices(n), name


def test_faces_order_and_count():
    s = Simplex((0, 1, 2))
    faces = s.faces()
    assert faces == (Simplex((1, 2)), Simplex((0, 2)), Simplex((0, 1)))
    edge = Simplex((0, 1))
    assert edge.faces() == (Simplex((1,)), Simplex((0,)))
    assert len(Simplex((0, 1, 2, 3)).faces()) == 4
    with pytest.raises(ZeroDimensional):
        Simplex((0,)).faces()


def test_faces_count_matches_dimension(corpus_complex):
    c = corpus_complex
    for n in range(1, c.max_dim + 1):
        for s in c.simplices(n):
            assert len(s.faces()) == s.dimension + 1


def test_cofaces_examples():
    hollow = build_complex([[0, 1], [1, 2], [2, 0]])
    assert hollow.cofaces(Simplex((0, 1))) == ()
    filled = build_complex([[0, 1, 2]])
    assert filled.cofaces(Simplex((0, 1))) == (Simplex((0, 1, 2)),)
    shared = build_complex([[0, 1, 2], [1, 2, 3]])
    assert len(shared.cofaces(Simplex((1, 2)))) == 2
    with pytest.raises(UnknownSimplex):
        hollow.cofaces(Simplex((5,)))


def test_cofaces_against_brute_force(corpus_complex):
    c = corpus_complex
    for n in range(c.max_dim):
        for s in c.simplices(n):
            brute = tuple(
                t
                for t in c.simplices(n + 1)
                if set(s.vertices).issubset(t.vertices)
            )
            assert c.cofaces(s) == brute
            for t in c.cofaces(s):
                assert s in t.faces()


def test_adjacency_matrix_four_vertex_graph():
    c = build_complex([[0, 1], [1, 2], [0, 2], [1, 3]])
    expected = np.array(
        [
            [0, 1, 1, 0],
            [1, 0, 1, 1],
            [1, 1, 0, 0],
            [0, 1, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(c.adjacency_matrix().toarray(), expected)


def test_adjacency_matrix_edge_cases():
    no_edges = build_complex([[0], [1], [2]])
    assert np.array_equal(no_edges.adjacency_matrix().toarray(), np.zeros((3, 3)))
    tri = build_complex([[0, 1], [1, 2], [0, 2]])
    expected = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(tri.adjacency_matrix().toarray(), expected)


def test_degree_matrix_examples():
    tri = build_complex([[0, 1], [1, 2], [0, 2]])
    assert np.array_equal(tri.degree_matrix().toarray(), 2 * np.eye(3))
    lone = build_complex([[0]])
    assert np.array_equal(lone.degree_matrix().toarray(), np.zeros((1, 1)))
    star = build_complex([[0, 1], [0, 2], [0, 3]])
    assert np.array_equal(star.degree_matrix().toarray(), np.diag([3.0, 1, 1, 1]))


def test_sparse_vertex_labels_are_preserved():
    c = CORPUS["sparse-labels"]
    assert c.vertices == (2, 10, 40, 55)
    assert Simplex((2, 40)) in c


def test_adjacency_symmetric_zero_diagonal(corpus_complex):
    a = corpus_complex.adjacency_matrix().toarray()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert set(np.unique(a)) <= {0.0, 1.0}


def test_simplex_validation_is_canonicalizing():
    assert Simplex((2, 0, 1)).vertices == (0, 1, 2)
    assert Simplex((5,)).dimension == 0
    dims = [
        s.dimension
        for s in itertools.chain.from_iterable(
            CORPUS["torus7"].simplices(n) for n in range(3)
        )
    ]
    assert dims == sorted(dims)


# Non-contiguous labels, including ones past the int64 range.
LABELS = st.sampled_from([0, 1, 4, 5, 9, 30, 31, 2**40, 2**63, 2**64 + 3])
# A top is a vertex set of 1 to 4 labels listed in any order; the list may
# repeat tops and hold tops that are faces of other tops.
TOP = st.sets(LABELS, min_size=1, max_size=4).flatmap(lambda s: st.permutations(sorted(s)))


@given(tops=st.lists(TOP, min_size=1, max_size=8))
def test_arrays_and_face_tables_match_brute_force_closure(tops):
    c = build_complex(tops)
    closure = {
        combo for top in tops for k in range(1, len(top) + 1)
        for combo in itertools.combinations(sorted(top), k)
    }
    assert c.max_dim == max(len(top) for top in tops) - 1
    assert len(c) == len(closure)
    assert c.vertices == tuple(sorted({v for top in tops for v in top}))
    for n in range(c.max_dim + 1):
        expected = sorted(s for s in closure if len(s) == n + 1)
        assert [s.vertices for s in c.simplices(n)] == expected
    for n in range(1, c.max_dim + 1):
        table = c.face_table(n)
        assert table.shape == (c.n_simplices(n), n + 1) and not table.flags.writeable
        for j, s in enumerate(c.simplices(n)):
            assert table[j].tolist() == [c.index(f) for f in s.faces()]


def test_face_lookups_build_no_simplex(monkeypatch):
    c = build_complex(gen.torus())
    sh = gauge_sheaf(c)
    built = []
    original = Simplex.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Simplex, "__init__", counted)
    fresh = build_complex(gen.torus())
    for n in (1, 2):
        for field_tag in Field:
            assert boundary_matrix(fresh, n, field_tag) == boundary_matrix(c, n, field_tag)
    for n in range(3):
        sheaf_coboundary(c, sh, n)
    for n in range(3):
        for s in c.simplices(n):
            c.cofaces(s)
    assert built == []


def one_at_a_time(c, keys):
    """What Simplex and a brute-force position dict say, key by key: the
    positions, or the class and message of the first refusal."""
    position = {s: j for n in range(c.max_dim + 1) for j, s in enumerate(c.simplices(n))}
    out = []
    for key in keys:
        try:
            s = key if isinstance(key, Simplex) else Simplex(tuple(key))
        except (EmptySimplex, InvalidVertex, DuplicateVertex) as exc:
            return type(exc), str(exc)
        if s not in position:
            return UnknownSimplex, f"{s} is not in the complex"
        out.append(position[s])
    return out


# Labels the complex may lack, and labels Simplex refuses.
QUERY_LABEL = LABELS | st.sampled_from([2, 2**64 + 4, -1, True, 1.0, "1", None])


@given(tops=st.lists(TOP, min_size=1, max_size=8), data=st.data())
def test_batched_lookup_matches_simplex_and_index(tops, data):
    c = build_complex(tops)
    stored = [s for n in range(c.max_dim + 1) for s in c.simplices(n)]
    key = st.one_of(
        st.sampled_from(stored),
        st.sampled_from([list(s.vertices) for s in stored]).flatmap(st.permutations),
        st.lists(QUERY_LABEL, max_size=4),
    )
    keys = data.draw(st.lists(key, max_size=8))
    expected = one_at_a_time(c, keys)
    if isinstance(expected, list):
        dim, pos = c._find(keys)
        assert dim.tolist() == [len(getattr(k, "vertices", k)) - 1 for k in keys]
        assert pos.tolist() == expected
    else:
        with pytest.raises(expected[0]) as info:
            c._find(keys)
        assert str(info.value) == expected[1]


def test_index_and_contains_past_int64():
    big = 2**64 + 3
    c = build_complex([[0, 1, big], [1, 2**63]])
    assert c.index(Simplex((1, big))) == 3 and c.index(Simplex((2**63,))) == 2
    assert Simplex((0, 1, big)) in c and Simplex((0, 2**63)) not in c
    dim, pos = c._find([(np.int64(1), 2**63), [big, 0], [big, 1, 0]])
    assert dim.tolist() == [1, 1, 2] and pos.tolist() == [2, 1, 0]
    with pytest.raises(UnknownSimplex):
        c.index(Simplex((0, 1, 2**63)))
    with pytest.raises(UnknownSimplex):
        c.index(Simplex((0, 1, big, 2**63)))


def reference_check_vertices(vertices):
    """Per-top validation as construction once ran it on every top, kept
    verbatim as the reference for which top raises and what."""
    verts = tuple(vertices)
    if len(verts) == 0:
        raise EmptySimplex("a simplex needs at least one vertex")
    for v in verts:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 0:
            raise InvalidVertex(f"vertex labels must be non-negative integers, got {v!r}")
    if len(set(verts)) != len(verts):
        raise DuplicateVertex(f"repeated vertex in {list(verts)}")
    return tuple(sorted(int(v) for v in verts))


# Valid tops whose labels mix Python ints, numpy integers and ints past 2**64.
MIXED_TOP = st.lists(
    LABELS | st.sampled_from([np.int64(1), np.int64(30), np.uint64(2**63)]),
    min_size=1, max_size=4, unique_by=int,
)
BAD_TOP = st.one_of(
    st.just([]),
    st.just(5),  # not iterable
    st.tuples(MIXED_TOP, st.sampled_from([-1, True, 1.0, "a", None]), st.integers(0, 4)).map(
        lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2] :]
    ),
    st.tuples(MIXED_TOP, st.integers(0, 3)).map(lambda t: t[0] + [t[0][t[1] % len(t[0])]]),
)


@given(
    tops=st.lists(MIXED_TOP, min_size=1, max_size=8),
    bad=st.lists(st.tuples(st.integers(0, 8), BAD_TOP), max_size=3),
)
def test_first_bad_top_in_input_order_raises_what_simplex_raises(tops, bad):
    for at, top in bad:
        tops.insert(at, top)
    try:
        [reference_check_vertices(t) for t in tops]
        expected = None
    except (EmptySimplex, InvalidVertex, DuplicateVertex, TypeError) as exc:
        expected = exc
    if expected is None:
        assert build_complex(tops).vertices == tuple(sorted({int(v) for t in tops for v in t}))
    else:
        with pytest.raises(type(expected)) as info:
            build_complex(tops)
        assert str(info.value) == str(expected)
    not_list = [type(t) is not list for t in tops]
    if any(not_list):
        message = f"top_simplices[{not_list.index(True)}] must be a list"
    elif expected is not None:
        message = f"invalid complex: {expected}"
    else:
        assert parse_complex({"top_simplices": tops}).vertices == build_complex(tops).vertices
        return
    with pytest.raises(FormatError) as info:
        parse_complex({"top_simplices": tops})
    assert str(info.value) == message


def test_construction_runs_no_per_top_python(monkeypatch):
    side = 21  # a triangulated 21 x 21 grid: 800 triangles
    tops = [
        tri
        for j in range(side - 1)
        for i in range(side - 1)
        for a in [i + side * j]
        for tri in ([a, a + 1, a + side + 1], [a, a + side, a + side + 1])
    ]
    calls = {"check": 0, "unique_axis": 0}
    check, unique = complex_module._check_vertices, np.unique

    def counted_check(vertices):
        calls["check"] += 1
        return check(vertices)

    def counted_unique(*args, **kwargs):
        calls["unique_axis"] += "axis" in kwargs
        return unique(*args, **kwargs)

    monkeypatch.setattr(complex_module, "_check_vertices", counted_check)
    monkeypatch.setattr(np, "unique", counted_unique)
    assert len(tops) == 800
    assert build_complex(tops).n_simplices(2) == parse_complex({"top_simplices": tops}).n_simplices(2)
    assert calls == {"check": 0, "unique_axis": 0}
    with pytest.raises(DuplicateVertex):
        build_complex(tops[:5] + [[0, 1, 0]] + tops[5:] + [[-1, 3]])
    assert calls == {"check": 1, "unique_axis": 0}
