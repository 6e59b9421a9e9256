"""The shared Laplacian assembly: weight conventions, side maps, rank passes."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgekit import (
    Field,
    InnerProductWeights,
    betti,
    boundary_matrix,
    constant_sheaf,
    hodge_laplacian,
    sheaf_coboundary,
    sheaf_laplacian,
)
from hodgekit import homology

from conftest import CORPUS, gauge_sheaf, random_complex, shift_register_sheaf


def random_weights(sizes, seed: int) -> dict[int, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {n: rng.uniform(0.3, 3.0, size) for n, size in enumerate(sizes)}


def simplex_sizes(c) -> list[int]:
    return [c.n_simplices(n) for n in range(c.max_dim + 1)]


def stalk_sizes(c, sh) -> list[int]:
    return [sh.total_dim(n) for n in range(c.max_dim + 1)]


def assert_matches(sparse, dense) -> None:
    got = sparse.toarray()
    assert got.shape == dense.shape
    scale = max(1.0, float(np.max(np.abs(dense), initial=0.0)))
    assert np.allclose(got, dense, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("name", ["torus7", "tetra", "crosslinked-12-3", "cycle8"])
def test_weighted_hodge_laplacian_known_answer(name):
    """Chain-side adjoints: down = W_n^-1 d_n^T W_(n-1) d_n, up = d W^-1 d^T W_n."""
    c = CORPUS[name]
    wv = random_weights(simplex_sizes(c), seed=11)
    w = InnerProductWeights(wv)
    for n in range(c.max_dim + 1):
        size = c.n_simplices(n)
        down = np.zeros((size, size))
        up = np.zeros((size, size))
        if n >= 1:
            d = boundary_matrix(c, n, Field.REAL).toarray()
            down = np.diag(1 / wv[n]) @ d.T @ np.diag(wv[n - 1]) @ d
        if n < c.max_dim:
            d = boundary_matrix(c, n + 1, Field.REAL).toarray()
            up = d @ np.diag(1 / wv[n + 1]) @ d.T @ np.diag(wv[n])
        ops = hodge_laplacian(c, n, w)
        assert_matches(ops.down, down)
        assert_matches(ops.up, up)
        assert_matches(ops.full, down + up)


@pytest.mark.parametrize("name", ["torus7", "tetra", "sphere2"])
def test_weighted_sheaf_laplacian_known_answer(name):
    """Cochain-side adjoints: up = W_n^-1 delta^T W_(n+1) delta, down likewise."""
    c = CORPUS[name]
    sh = gauge_sheaf(c, seed=4)
    wv = random_weights(stalk_sizes(c, sh), seed=12)
    w = InnerProductWeights(wv)
    for n in range(c.max_dim + 1):
        size = sh.total_dim(n)
        down = np.zeros((size, size))
        up = np.zeros((size, size))
        if n >= 1:
            e = sheaf_coboundary(c, sh, n - 1).toarray()
            down = e @ np.diag(1 / wv[n - 1]) @ e.T @ np.diag(wv[n])
        if n < c.max_dim:
            d = sheaf_coboundary(c, sh, n).toarray()
            up = np.diag(1 / wv[n]) @ d.T @ np.diag(wv[n + 1]) @ d
        ops = sheaf_laplacian(c, sh, n, w)
        assert_matches(ops.down, down)
        assert_matches(ops.up, up)
        assert_matches(ops.full, down + up)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_constant_sheaf_is_transposed_simplicial_with_inverse_weights(seed):
    c = random_complex(np.random.default_rng(seed))
    wv = random_weights(simplex_sizes(c), seed)
    sheaf_w = InnerProductWeights(wv)
    chain_w = InnerProductWeights({n: 1 / v for n, v in wv.items()})
    sh = constant_sheaf(c)
    for n in range(c.max_dim + 1):
        sheaf_ops = sheaf_laplacian(c, sh, n, sheaf_w)
        chain_ops = hodge_laplacian(c, n, chain_w)
        for part in ("up", "down", "full"):
            assert_matches(getattr(sheaf_ops, part), getattr(chain_ops, part).toarray().T)


def builders():
    """Params (complex, operators at n, size of dimension k, weight vectors)."""
    out = []
    for name in ("torus7", "tetra", "path4", "vertex"):
        c = CORPUS[name]
        wv = random_weights(simplex_sizes(c), seed=21)
        build = partial(hodge_laplacian, c, w=InnerProductWeights(wv))
        out.append(pytest.param(c, build, c.n_simplices, wv, id=f"hodge-{name}"))
    for name, c, sh in (
        ("gauge-torus7", CORPUS["torus7"], gauge_sheaf(CORPUS["torus7"], seed=5)),
        ("shift-register", *shift_register_sheaf()),
    ):
        wv = random_weights(stalk_sizes(c, sh), seed=22)
        build = partial(sheaf_laplacian, c, sh, w=InnerProductWeights(wv))
        out.append(pytest.param(c, build, sh.total_dim, wv, id=f"sheaf-{name}"))
    return out


@pytest.mark.parametrize("c, build, size, wv", builders())
def test_each_side_is_its_map_times_its_adjoint(c, build, size, wv):
    """from_below/from_above are (N_n, N_(n-1))/(N_n, N_(n+1)) maps S, and S S* = down/up."""
    for n in range(c.max_dim + 1):
        ops = build(n)
        for part, side, k in (("down", ops.from_below, n - 1), ("up", ops.from_above, n + 1)):
            if not 0 <= k <= c.max_dim:
                assert side is None and getattr(ops, part).nnz == 0
                continue
            assert side.shape == (size(n), size(k))
            s = side.toarray()
            # S maps dimension k into dimension n, so S* = W_k^-1 S^T W_n.
            s_adj = np.diag(1 / wv[k]) @ s.T @ np.diag(wv[n])
            assert_matches(getattr(ops, part), s @ s_adj)


@pytest.mark.parametrize("field_tag, rank_name", [(Field.GF2, "rank_gf2"), (Field.REAL, "rank_real")])
def test_betti_ranks_each_boundary_map_once(monkeypatch, field_tag, rank_name):
    c = CORPUS["torus7"]
    calls = []
    original = getattr(homology, rank_name)

    def counted(m, *args, **kwargs):
        calls.append(m.shape)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(homology, rank_name, counted)
    assert betti(c, field_tag) == [1, 2, 1]
    assert len(calls) <= c.max_dim
