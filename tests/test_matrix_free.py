"""The Laplacian, decomposition and CLI filter never densify an n x n operator,
and GF(2) diagonal reduction never densifies its input.

A 448-vertex flag complex has 10,013 edges, so a dense edge Laplacian would
have 10^8 cells.  SparseMatrix.toarray is patched to refuse anything above
10^6 cells while those paths run, and to refuse every call while snf_gf2 runs.
"""

import json

import numpy as np
import pytest

from hodgekit import (
    Cochain,
    Field,
    InnerProductWeights,
    SparseMatrix,
    boundary_matrix,
    build_complex,
    hodge_decompose,
    hodge_laplacian,
    rank_gf2,
    replay_gf2_ops,
    snf_gf2,
)
from hodgekit.cli import main

MAX_DENSE_CELLS = 10**6


def flag_complex(n: int, p: float, seed: int):
    """2-dimensional flag complex of a graph with exactly round(p * C(n, 2)) edges."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, 1)
    pick = np.sort(rng.choice(len(iu), round(p * len(iu)), replace=False))
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[iu[pick], iv[pick]] = adjacent[iv[pick], iu[pick]] = True
    triangles = [
        [int(u), int(v), int(w)]
        for u, v in zip(iu[pick], iv[pick])
        for w in np.flatnonzero(adjacent[u] & adjacent[v])
        if w > v
    ]
    edges = [[int(u), int(v)] for u, v in zip(iu[pick], iv[pick])]
    return [[v] for v in range(n)] + edges + triangles


TOPS = flag_complex(448, 0.1, seed=1)
COMPLEX = build_complex(TOPS)


@pytest.fixture
def no_densify(monkeypatch):
    dense = SparseMatrix.toarray

    def guarded(m: SparseMatrix) -> np.ndarray:
        if m.rows * m.cols > MAX_DENSE_CELLS:
            raise AssertionError(f"densified a {m.rows}x{m.cols} matrix")
        return dense(m)

    monkeypatch.setattr(SparseMatrix, "toarray", guarded)


def products(m: SparseMatrix):
    """x -> m x and y -> m^T y on the coordinate arrays."""
    return (
        lambda x: np.bincount(m.row, m.data * x[m.col], m.rows),
        lambda y: np.bincount(m.col, m.data * y[m.row], m.cols),
    )


def test_complex_size_and_guard(no_densify):
    assert COMPLEX.n_simplices(0) == 448 and COMPLEX.n_simplices(1) == 10013
    assert COMPLEX.n_simplices(2) > 10**4
    ops = hodge_laplacian(COMPLEX, 1)
    assert ops.full.shape == (10013, 10013)
    with pytest.raises(AssertionError, match="densified"):
        ops.full.toarray()


@pytest.mark.parametrize("weighted", [False, True])
def test_decompose_without_densifying(no_densify, weighted):
    rng = np.random.default_rng(11)
    w = None
    if weighted:
        w = InnerProductWeights({n: 0.5 + rng.random(COMPLEX.n_simplices(n)) for n in range(3)})
    s = rng.standard_normal(COMPLEX.n_simplices(1))
    parts = [p.values for p in hodge_decompose(Cochain(1, s), COMPLEX, 1, w)]
    weights = np.ones_like(s) if w is None else w.vector(1, len(s))
    norm_sq = float(np.sum(weights * s * s))
    assert np.linalg.norm(sum(parts) - s) <= 1e-9 * np.sqrt(norm_sq)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert abs(float(np.sum(weights * parts[i] * parts[j]))) <= 1e-8 * norm_sq


def test_cli_filter_without_densifying(no_densify, tmp_path, capsys):
    rng = np.random.default_rng(12)
    x = rng.standard_normal(COMPLEX.n_simplices(1))
    alpha0, down, up = 0.8, [0.3, -0.02, 0.004], [-0.1, 0.05, -0.001]
    files = {
        "c.json": {"top_simplices": TOPS},
        "s.json": {"dim": 1, "values": x.tolist()},
        "f.json": {"dim": 1, "alpha0": alpha0, "down": down, "up": up},
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    assert main(["filter", *(str(tmp_path / name) for name in files)]) == 0
    got = np.array(json.loads(capsys.readouterr().out)["values"])

    d1, d1t = products(boundary_matrix(COMPLEX, 1, Field.REAL))
    d2, d2t = products(boundary_matrix(COMPLEX, 2, Field.REAL))
    want = alpha0 * x
    for base, coeffs in ((lambda v: d1t(d1(v)), down), (lambda v: d2(d2t(v)), up)):
        power = x
        for coeff in coeffs:
            power = base(power)
            want = want + coeff * power
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# 60 vertices, 531 edges, 954 triangles: d2's bitset rows are 954 bits long.
SNF_COMPLEX = build_complex(flag_complex(60, 0.3, seed=1))


def test_snf_gf2_never_calls_toarray(monkeypatch):
    def refused(m: SparseMatrix) -> np.ndarray:
        raise AssertionError(f"densified a {m.rows}x{m.cols} matrix")

    maps = [boundary_matrix(SNF_COMPLEX, n, Field.GF2) for n in (1, 2)]
    monkeypatch.setattr(SparseMatrix, "toarray", refused)
    assert [snf_gf2(m)[0] for m in maps] == [59, 469]


def test_snf_gf2_of_a_flag_complex_replays_to_diagonal_form():
    m = boundary_matrix(SNF_COMPLEX, 2, Field.GF2)
    assert m.shape == (531, 954)
    diag, row_ops, col_ops = snf_gf2(m)
    expected = np.zeros(m.shape, np.uint8)
    expected[np.arange(diag), np.arange(diag)] = 1
    assert np.array_equal(replay_gf2_ops(m, row_ops, col_ops), expected)
    assert diag == rank_gf2(m).rank
