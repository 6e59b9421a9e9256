"""File formats and the command-line interface."""

import json

import numpy as np
import pytest

from hodgekit import Field, SparseMatrix, betti
from hodgekit import io
from hodgekit.cli import main
from hodgekit.errors import FormatError

from conftest import CORPUS_TOPS, LEFT_SHIFT, DROP_LAST


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def torus_file(tmp_path):
    return write_json(tmp_path / "torus.json", {"top_simplices": CORPUS_TOPS["torus7"]})


@pytest.fixture
def triangle_file(tmp_path):
    return write_json(
        tmp_path / "triangle.json", {"top_simplices": [[0, 1], [1, 2], [0, 2]]}
    )


def shift_register_files(tmp_path):
    complex_file = write_json(
        tmp_path / "line.json", {"top_simplices": [[0, 1], [1, 2]]}
    )
    sheaf_file = write_json(
        tmp_path / "sheaf.json",
        {
            "stalks": {"[0]": 3, "[1]": 3, "[2]": 3, "[0,1]": 2, "[1,2]": 2},
            "restrictions": [
                {"face": [0], "coface": [0, 1], "matrix": LEFT_SHIFT.tolist()},
                {"face": [1], "coface": [0, 1], "matrix": DROP_LAST.tolist()},
                {"face": [1], "coface": [1, 2], "matrix": LEFT_SHIFT.tolist()},
                {"face": [2], "coface": [1, 2], "matrix": DROP_LAST.tolist()},
            ],
        },
    )
    return complex_file, sheaf_file


def test_parse_complex_valid_and_invalid():
    c = io.parse_complex({"top_simplices": [[0, 1, 2]]})
    assert c.max_dim == 2
    with pytest.raises(FormatError):
        io.parse_complex({"top_simplices": [[0, 1]], "extra": 1})
    with pytest.raises(FormatError):
        io.parse_complex({"simplices": [[0, 1]]})
    with pytest.raises(FormatError):
        io.parse_complex({"top_simplices": []})
    with pytest.raises(FormatError):
        io.parse_complex({"top_simplices": [[0, "a"]]})
    with pytest.raises(FormatError):
        io.parse_complex({"top_simplices": [[0, 0]]})


def test_parse_signal_and_filter_validation():
    x = io.parse_signal({"dim": 1, "values": [1, 2.5]})
    assert x.dimension == 1 and np.allclose(x.values, [1.0, 2.5])
    with pytest.raises(FormatError):
        io.parse_signal({"dim": -1, "values": []})
    with pytest.raises(FormatError):
        io.parse_signal({"dim": 0, "values": [1], "junk": 2})
    spec = io.parse_filter({"dim": 1, "alpha0": 0.5, "down": [1, 2], "up": []})
    assert spec.down_coeffs == (1.0, 2.0)
    with pytest.raises(FormatError):
        io.parse_filter({"dim": 1, "alpha0": "x", "down": [], "up": []})
    with pytest.raises(FormatError):
        io.parse_filter({"dim": 1, "alpha0": float("nan"), "down": [], "up": []})
    with pytest.raises(FormatError):
        io.parse_filter({"dim": 1, "alpha0": 10**400, "down": [], "up": []})
    with pytest.raises(FormatError):
        io.parse_weights({"0": [1.0, -1.0]})
    with pytest.raises(FormatError):
        io.parse_weights({"zero": [1.0]})


def test_matrix_csv_layout():
    m = SparseMatrix.from_dense(np.array([[2.0, -1.0], [0.0, 1.0]]), Field.REAL)
    text = io.matrix_to_csv(m, ["0", "1"], ["0-1", "1-2"])
    lines = text.strip().split("\n")
    assert lines[0] == ",0-1,1-2"
    assert lines[1] == "0,2.0,-1.0"
    assert lines[2] == "1,0.0,1.0"


def test_cli_betti_torus(torus_file, tmp_path, capsys):
    assert main(["betti", torus_file]) == 0
    assert json.loads(capsys.readouterr().out) == {"betti": [1, 2, 1]}
    out = tmp_path / "betti.json"
    assert main(["betti", torus_file, "-o", str(out)]) == 0
    assert json.loads(out.read_text()) == {"betti": [1, 2, 1]}


def test_cli_betti_rejects_empty_complex(tmp_path, capsys):
    bad = write_json(tmp_path / "empty.json", {"top_simplices": []})
    assert main(["betti", bad]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_betti_rejects_unknown_field_and_bad_json(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"top_simplices": [[0]], "x": 1})
    assert main(["betti", bad]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert main(["betti", str(garbled)]) == 2
    assert main(["betti", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_betti_dump_matrix(triangle_file, tmp_path, capsys):
    prefix = str(tmp_path / "m_")
    assert main(["betti", triangle_file, "--dump-matrix", prefix]) == 0
    capsys.readouterr()
    dumped = (tmp_path / "m_boundary_1.csv").read_text()
    lines = dumped.strip().split("\n")
    assert lines[0] == ",0-1,0-2,1-2"
    assert len(lines) == 4


def test_cli_laplacian_csv(triangle_file, capsys):
    assert main(["laplacian", triangle_file, "--dim", "0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ",0,1,2"
    assert lines[1].split(",") == ["0", "2.0", "-1.0", "-1.0"]


def test_cli_laplacian_parts_and_weights(triangle_file, tmp_path, capsys):
    weights = write_json(
        tmp_path / "w.json", {"0": [1.0, 1.0, 1.0], "1": [2.0, 2.0, 2.0]}
    )
    assert main(["laplacian", triangle_file, "--dim", "1", "--part", "up"]) == 0
    capsys.readouterr()
    assert (
        main(["laplacian", triangle_file, "--dim", "1", "--weights", weights]) == 0
    )
    capsys.readouterr()
    assert main(["laplacian", triangle_file, "--dim", "5"]) == 2
    capsys.readouterr()


def test_cli_csv_reports_original_vertex_labels(tmp_path, capsys):
    sparse = write_json(
        tmp_path / "sparse.json", {"top_simplices": [[2, 10], [10, 40], [2, 40]]}
    )
    assert main(["laplacian", sparse, "--dim", "1"]) == 0
    header = capsys.readouterr().out.split("\n", 1)[0]
    assert header == ",2-10,2-40,10-40"


def test_cli_spectrum(triangle_file, capsys):
    assert main(["spectrum", triangle_file, "--dim", "0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "eigenvalue"
    values = [float(v) for v in lines[1:]]
    assert np.allclose(values, [0.0, 3.0, 3.0], atol=1e-9)


def test_cli_sft_roundtrip(triangle_file, tmp_path, capsys):
    signal = write_json(tmp_path / "s.json", {"dim": 0, "values": [1.0, -2.0, 0.5]})
    assert main(["sft", triangle_file, signal, "--dim", "0"]) == 0
    transformed = json.loads(capsys.readouterr().out)
    back_file = write_json(tmp_path / "shat.json", transformed)
    assert main(["sft", triangle_file, back_file, "--dim", "0", "--inverse"]) == 0
    back = json.loads(capsys.readouterr().out)
    assert np.allclose(back["values"], [1.0, -2.0, 0.5], atol=1e-10)


def test_cli_decompose(torus_file, tmp_path, capsys):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(21).tolist()
    signal = write_json(tmp_path / "edge.json", {"dim": 1, "values": values})
    assert main(["decompose", torus_file, signal, "--dim", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    total = (
        np.array(out["irrot"]) + np.array(out["harmonic"]) + np.array(out["solenoid"])
    )
    assert np.allclose(total, values, atol=1e-9)
    assert set(out["norms"]) == {"irrot", "harmonic", "solenoid"}
    assert out["norms"]["harmonic"] == pytest.approx(
        float(np.linalg.norm(out["harmonic"]))
    )


def test_cli_decompose_impossible_tolerance_is_numerical_failure(
    torus_file, tmp_path, capsys
):
    rng = np.random.default_rng(1)
    signal = write_json(
        tmp_path / "edge.json", {"dim": 1, "values": rng.standard_normal(21).tolist()}
    )
    assert main(["decompose", torus_file, signal, "--dim", "1", "--tol", "0"]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("-inf"), 10**400])
def test_cli_rejects_non_finite_signal(triangle_file, tmp_path, capsys, bad):
    signal = write_json(tmp_path / "s.json", {"dim": 1, "values": [1.0, bad, 2.0]})
    assert main(["decompose", triangle_file, signal, "--dim", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite numbers" in captured.err


def test_cli_rejects_nan_weights(triangle_file, tmp_path, capsys):
    weights = write_json(tmp_path / "w.json", {"1": [1.0, float("nan"), 1.0]})
    assert main(["laplacian", triangle_file, "--dim", "1", "--weights", weights]) == 2
    assert "finite numbers" in capsys.readouterr().err


def test_cli_rejects_nan_sheaf_matrix(tmp_path, capsys):
    complex_file, sheaf_file = shift_register_files(tmp_path)
    sheaf = json.loads((tmp_path / "sheaf.json").read_text(encoding="utf-8"))
    sheaf["restrictions"][0]["matrix"][0][1] = float("nan")
    write_json(tmp_path / "sheaf.json", sheaf)
    assert main(["sheaf-cohomology", complex_file, sheaf_file]) == 2
    assert "finite numbers" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["down", "up"])
def test_cli_rejects_infinite_filter_coefficient(triangle_file, tmp_path, capsys, field):
    signal = write_json(tmp_path / "s.json", {"dim": 1, "values": [1.0, 2.0, 3.0]})
    spec = {"dim": 1, "alpha0": 1.0, "down": [0.5], "up": [0.5]}
    spec[field] = [0.5, float("inf")]
    filter_file = write_json(tmp_path / "f.json", spec)
    assert main(["filter", triangle_file, signal, filter_file]) == 2
    assert "finite numbers" in capsys.readouterr().err


def test_cli_filter(triangle_file, tmp_path, capsys):
    signal = write_json(tmp_path / "s.json", {"dim": 1, "values": [1.0, 2.0, 3.0]})
    identity = write_json(
        tmp_path / "f.json", {"dim": 1, "alpha0": 1.0, "down": [], "up": []}
    )
    assert main(["filter", triangle_file, signal, identity]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"dim": 1, "values": [1.0, 2.0, 3.0]}


def test_cli_sheaf_cohomology(tmp_path, capsys):
    complex_file, sheaf_file = shift_register_files(tmp_path)
    assert main(["sheaf-cohomology", complex_file, sheaf_file]) == 0
    assert json.loads(capsys.readouterr().out) == {"cohomology_dims": [5, 0]}


def test_cli_sheaf_check(tmp_path, capsys):
    complex_file, sheaf_file = shift_register_files(tmp_path)
    good = write_json(
        tmp_path / "good.json", {"dim": 0, "blocks": [[1, 2, 3], [2, 3, 4], [3, 4, 5]]}
    )
    assert main(["sheaf-check", complex_file, sheaf_file, good]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["consistent"] is True
    assert report["residual"]["blocks"] == [[0.0, 0.0], [0.0, 0.0]]
    bad = write_json(
        tmp_path / "bad.json", {"dim": 0, "blocks": [[1, 2, 3], [9, 9, 9], [3, 4, 5]]}
    )
    assert main(["sheaf-check", complex_file, sheaf_file, bad]) == 0
    assert json.loads(capsys.readouterr().out)["consistent"] is False


def test_cli_sheaf_rejects_bad_blocks(tmp_path, capsys):
    complex_file, sheaf_file = shift_register_files(tmp_path)
    wrong = write_json(tmp_path / "wrong.json", {"dim": 0, "blocks": [[1, 2, 3]]})
    assert main(["sheaf-check", complex_file, sheaf_file, wrong]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_cli_rejects_bad_tolerance(triangle_file, tmp_path, capsys, tol):
    complex_file, sheaf_file = shift_register_files(tmp_path)
    signal = write_json(tmp_path / "s.json", {"dim": 1, "values": [1.0, 2.0, 3.0]})
    blocks = write_json(tmp_path / "x.json", {"dim": 0, "blocks": [[1, 2, 3]] * 3})
    for argv in (
        ["decompose", triangle_file, signal, "--dim", "1"],
        ["sheaf-cohomology", complex_file, sheaf_file],
        ["sheaf-check", complex_file, sheaf_file, blocks],
        ["spectra-compare", triangle_file],
    ):
        assert main([*argv, f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol" in captured.err


def test_cli_spectra_compare(triangle_file, capsys):
    assert main(["spectra-compare", triangle_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["agree"] is True
    assert report["zero_mult_diff"] == 0
    assert report["b0_minus_b1"] == 0
    assert np.allclose(report["l0_nonzero"], [3.0, 3.0])


def test_cli_generate_cycle_is_hollow_triangle(tmp_path, capsys):
    assert main(["generate", "cycle", "--n", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    c = io.parse_complex(obj)
    assert betti(c) == [1, 1]


def test_cli_generate_fixture_betti(capsys):
    assert main(["generate", "sphere2"]) == 0
    sphere = io.parse_complex(json.loads(capsys.readouterr().out))
    assert betti(sphere) == [1, 0, 1]
    assert main(["generate", "torus"]) == 0
    torus = io.parse_complex(json.loads(capsys.readouterr().out))
    assert betti(torus) == [1, 2, 1]


def test_cli_generate_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["generate", "crosslinked-cycle", "--n", "32", "--k", "4", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = io.parse_complex(json.loads(a.read_text()))
    assert c.n_simplices(0) == 32
    assert c.n_simplices(1) == 36


def test_cli_generate_bad_params(capsys):
    assert main(["generate", "cycle", "--n", "2"]) == 2
    assert main(["generate", "cycle"]) == 2
    assert main(["generate", "random-graph", "--n", "5", "--p", "2.0"]) == 2
    capsys.readouterr()


def test_cli_generate_random_graph_deterministic(capsys):
    assert main(["generate", "random-graph", "--n", "8", "--p", "0.4", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "random-graph", "--n", "8", "--p", "0.4", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_signal_json_roundtrip_through_cli_outputs(triangle_file, tmp_path, capsys):
    signal = write_json(tmp_path / "s.json", {"dim": 1, "values": [0.5, 1.5, -2.0]})
    lowpass = write_json(
        tmp_path / "f.json", {"dim": 1, "alpha0": 0.0, "down": [1.0], "up": [1.0]}
    )
    assert main(["filter", triangle_file, signal, lowpass]) == 0
    out = json.loads(capsys.readouterr().out)
    parsed = io.parse_signal(out)
    assert parsed.dimension == 1
