"""Eigendecomposition, simplicial Fourier transform, spectra comparison."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgekit import (
    Cochain,
    Field,
    SparseMatrix,
    betti,
    build_complex,
    compare_spectra,
    eigendecompose,
    eigenvalues,
    harmonic_basis,
    hodge_laplacian,
    inverse_sft,
    sft,
)
from hodgekit import generators as gen
from hodgekit.cli import main
from hodgekit.errors import FieldMismatch, NotAGraph, NotSymmetric, ShapeMismatch
from hodgekit.spectral import SYMMETRY_RTOL, _checked_dense

from conftest import CORPUS, CORPUS_TOPS


def laplacian_matrix(c, n):
    return hodge_laplacian(c, n).full


def test_triangle_l0_eigenvalues():
    basis = eigendecompose(laplacian_matrix(CORPUS["hollow-triangle"], 0))
    assert np.allclose(basis.eigenvalues, [0.0, 3.0, 3.0], atol=1e-9)


def test_zero_matrix_decomposition():
    basis = eigendecompose(SparseMatrix.zeros(4, 4, Field.REAL))
    assert np.array_equal(basis.eigenvalues, np.zeros(4))
    assert np.array_equal(basis.eigenvectors, np.eye(4))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_cycle_l0_matches_circulant_oracle(n):
    c = build_complex(gen.cycle(n))
    basis = eigendecompose(laplacian_matrix(c, 0))
    analytic = np.sort([2.0 - 2.0 * np.cos(2.0 * np.pi * k / n) for k in range(n)])
    assert np.allclose(basis.eigenvalues, analytic, atol=1e-8)


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(NotSymmetric):
        eigendecompose(
            SparseMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]), Field.REAL)
        )
    with pytest.raises(NotSymmetric):
        eigendecompose(SparseMatrix.zeros(2, 3, Field.REAL))
    with pytest.raises(FieldMismatch):
        eigendecompose(SparseMatrix.identity(2, Field.GF2))


def test_orthonormality_and_reconstruction(corpus_complex):
    c = corpus_complex
    for n in range(c.max_dim + 1):
        L = laplacian_matrix(c, n)
        basis = eigendecompose(L, dimension=n)
        u = basis.eigenvectors
        if basis.size == 0:
            continue
        assert np.max(np.abs(u.T @ u - np.eye(basis.size))) <= 1e-8
        lam_max = max(basis.lambda_max, 1.0)
        recon = u @ np.diag(basis.eigenvalues) @ u.T
        assert np.max(np.abs(recon - L.toarray())) <= 1e-7 * lam_max
        assert basis.eigenvalues[0] >= -1e-10 * lam_max
        assert np.all(np.diff(basis.eigenvalues) >= 0)


def test_sign_convention_is_deterministic(corpus_complex):
    c = corpus_complex
    for n in range(c.max_dim + 1):
        first = eigendecompose(laplacian_matrix(c, n))
        second = eigendecompose(laplacian_matrix(c, n))
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        for k in range(first.size):
            col = first.eigenvectors[:, k]
            assert col[int(np.argmax(np.abs(col)))] > 0


def test_sft_of_eigenvector_is_unit_coordinate():
    basis = eigendecompose(laplacian_matrix(CORPUS["cycle8"], 0), dimension=0)
    for k in (0, 3, 7):
        x = Cochain(0, basis.eigenvectors[:, k])
        xhat = sft(x, basis)
        expected = np.zeros(basis.size)
        expected[k] = 1.0
        assert np.allclose(xhat.values, expected, atol=1e-10)


def test_sft_refuses_a_gf2_cochain():
    c = CORPUS["torus7"]
    basis = eigendecompose(laplacian_matrix(c, 1), dimension=1)
    g = Cochain(1, np.ones(c.n_simplices(1)), Field.GF2)
    for transform in (sft, inverse_sft):
        with pytest.raises(FieldMismatch, match="^the spectral transform needs a real cochain$"):
            transform(g, basis)


def test_sft_zero_maps_to_zero():
    basis = eigendecompose(laplacian_matrix(CORPUS["cycle8"], 0), dimension=0)
    out = sft(Cochain(0, np.zeros(8)), basis)
    assert np.array_equal(out.values, np.zeros(8))


def test_sft_roundtrip_and_parseval(corpus_complex):
    c = corpus_complex
    rng = np.random.default_rng(6)
    for n in range(c.max_dim + 1):
        basis = eigendecompose(laplacian_matrix(c, n), dimension=n)
        if basis.size == 0:
            continue
        x = Cochain(n, rng.standard_normal(basis.size))
        xhat = sft(x, basis)
        back = inverse_sft(xhat, basis)
        norm = np.linalg.norm(x.values)
        assert np.linalg.norm(back.values - x.values) <= 1e-10 * norm
        assert abs(np.linalg.norm(xhat.values) - norm) <= 1e-10 * norm


def test_sft_alignment_errors():
    basis = eigendecompose(laplacian_matrix(CORPUS["cycle8"], 0), dimension=0)
    with pytest.raises(ShapeMismatch):
        sft(Cochain(1, np.zeros(8)), basis)
    with pytest.raises(ShapeMismatch):
        sft(Cochain(0, np.zeros(5)), basis)


def test_compare_spectra_triangle():
    report = compare_spectra(CORPUS["hollow-triangle"])
    assert report.agree
    assert np.allclose(report.l0_nonzero, [3.0, 3.0], atol=1e-9)
    assert np.allclose(report.l1_nonzero, [3.0, 3.0], atol=1e-9)
    assert report.zero_mult_diff == 0
    assert report.b0_minus_b1 == 0


def test_compare_spectra_tree():
    report = compare_spectra(CORPUS["tree5"])
    assert report.agree
    assert report.zero_mult_diff == 1
    assert report.b0_minus_b1 == 1
    assert len(report.l1_nonzero) == len(report.l0_nonzero) == 4


def test_compare_spectra_two_disjoint_triangles():
    report = compare_spectra(CORPUS["two-disjoint-triangles"])
    assert report.agree
    assert report.zero_mult_diff == 0
    assert report.b0_minus_b1 == 0


def test_compare_spectra_rejects_higher_dimensions():
    with pytest.raises(NotAGraph):
        compare_spectra(CORPUS["filled-triangle"])


def test_compare_spectra_edgeless_graph():
    report = compare_spectra(CORPUS["six-isolated"])
    assert report.agree
    assert report.l0_nonzero == () and report.l1_nonzero == ()
    assert report.zero_mult_diff == 6
    assert report.b0_minus_b1 == 6


def test_horak_jost_on_random_graphs():
    rng = np.random.default_rng(21)
    for i in range(50):
        n = int(rng.integers(3, 12))
        p = float(rng.uniform(0.15, 0.7))
        c = build_complex(gen.random_graph(n, p, seed=i))
        report = compare_spectra(c)
        assert report.agree, (i, n, p)
        assert report.zero_mult_diff == report.b0_minus_b1
        b = betti(c)
        assert report.b0_minus_b1 == b[0] - (b[1] if len(b) > 1 else 0)


def _outcome(solve, *args, **kwargs):
    """The exception type and message a call raises, or None when it returns."""
    try:
        solve(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the test compares whatever is raised
        return type(exc), str(exc)
    return None


# Symmetric entries plus skews on both sides of the default symmetry tolerance.
SKEWS = st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, 1e-11, 1e-10, 3e-9, 0.5])


@st.composite
def near_symmetric(draw):
    n = draw(st.integers(1, 7))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    entries = draw(st.lists(st.tuples(cells, st.floats(-4.0, 4.0), SKEWS), max_size=3 * n))
    rows, cols, data = [], [], []
    for (i, j), value, skew in entries:
        if abs(value) > 1e-3:  # one-sided values below from_coo's threshold would vanish
            rows += [i, j]
            cols += [j, i]
            data += [value, value + skew]
    return SparseMatrix.from_coo(n, n, rows, cols, data, Field.REAL)


@settings(max_examples=200, deadline=None)
@given(L=near_symmetric())
def test_eigenvalues_match_eigendecompose(L):
    full = _outcome(eigendecompose, L)
    assert _outcome(eigenvalues, L) == full
    if full is None:
        values = eigendecompose(L).eigenvalues
        bound = 1e-12 * max(values[-1], 1.0)
        assert np.max(np.abs(eigenvalues(L) - values)) <= bound


@pytest.mark.parametrize(
    "matrix",
    [
        SparseMatrix.identity(3, Field.GF2),
        SparseMatrix.zeros(2, 3, Field.REAL),
        SparseMatrix.zeros(0, 4, Field.REAL),
        SparseMatrix.zeros(0, 0, Field.REAL),
        SparseMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]), Field.REAL),
        SparseMatrix.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]), Field.REAL),
    ],
)
def test_eigenvalues_fail_like_eigendecompose(matrix):
    full = _outcome(eigendecompose, matrix)
    assert _outcome(eigenvalues, matrix) == full
    if full is None:
        assert np.array_equal(eigenvalues(matrix), eigendecompose(matrix).eigenvalues)


def test_only_the_vector_paths_call_eigh(monkeypatch, tmp_path, capsys):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps({"top_simplices": CORPUS_TOPS["torus7"]}))
    assert main(["spectrum", str(torus), "--dim", "1"]) == 0
    assert len(capsys.readouterr().out.split()) == 22  # the header and 21 edges
    assert compare_spectra(build_complex(gen.crosslinked_cycle(10, 3, 0))).agree
    assert calls == []
    signal = tmp_path / "signal.json"
    signal.write_text(json.dumps({"dim": 1, "values": [float(i % 3) for i in range(21)]}))
    assert main(["sft", str(torus), str(signal), "--dim", "1"]) == 0
    assert calls == [(21, 21)]
    assert len(harmonic_basis(hodge_laplacian(CORPUS["torus7"], 1))) == 2
    assert calls == [(21, 21), (21, 21)]


def test_lapack_reads_the_checked_copy_itself(monkeypatch):
    """A matrix symmetric only within the tolerance reaches LAPACK as is, not as (L + L^T) / 2."""
    a = laplacian_matrix(CORPUS["torus7"], 1).toarray()
    a[3, 0] += 1e-11 * np.max(np.abs(a))
    L = SparseMatrix.from_dense(a, Field.REAL)
    seen = []

    def recorded(solve):
        def call(m, *args, **kwargs):
            seen.append(m.copy())
            return solve(m, *args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    eigendecompose(L)
    eigenvalues(L)
    assert len(seen) == 2
    for m in seen:
        assert m.dtype == np.float64 and m.tobytes() == L.toarray().tobytes()


def test_checked_dense_peaks_near_two_dense_arrays():
    """One dense copy of L and one of L - L^T at most: no |L|, sum or half of it on the side."""
    L = laplacian_matrix(build_complex(gen.cycle(400)), 1)
    n = L.rows
    tracemalloc.start()
    try:
        _checked_dense(L, SYMMETRY_RTOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * n * n * 8, peak / (n * n * 8)
