"""File formats and the command-line interface."""

import argparse
import contextlib
import io as stdio
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hodgekit
from hodgekit import Field, Simplex, SparseMatrix, betti, check_consistency
from hodgekit import generators, io
from hodgekit.cli import build_parser, main
from hodgekit.errors import BadParams, FormatError
from hodgekit.hodge import InnerProductWeights

from conftest import CORPUS_TOPS, LEFT_SHIFT, DROP_LAST, TORSION, random_clique_complex


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
    with pytest.raises(FormatError, match='"dim" must be a non-negative integer'):
        io.parse_signal({"dim": True, "values": [1, 2, 3]})
    with pytest.raises(FormatError, match='"dim" must be a non-negative integer'):
        io.parse_filter({"dim": True, "alpha0": 0.5, "down": [], "up": []})
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


def test_parse_complex_reports_the_first_bad_top_in_input_order():
    with pytest.raises(FormatError, match=r"^invalid complex: repeated vertex in \[0, 1, 0\]$"):
        io.parse_complex({"top_simplices": [[0, 1, 0], [1.5]]})
    with pytest.raises(FormatError, match=r"^top_simplices\[1\] must be a list$"):
        io.parse_complex({"top_simplices": [[0, 1, 0], 5]})


@pytest.mark.parametrize(
    "weights",
    [{"01": [1, 1, 1], "1": [2, 2, 2]}, {" 1": [1.0]}, {"1_0": [1.0]}, {"-1": [1.0]},
     {"+1": [1.0]}, {"-0": [1.0]}, {"\u0661": [1.0]}, {"1" * 5000: [1.0]}],
)
def test_weights_keys_are_plain_decimal_dimensions(weights):
    with pytest.raises(FormatError):
        io.parse_weights(weights)


def test_weights_signs_and_dimensions_are_checked_by_the_weights():
    assert io.parse_weights({"0": [1.0], "10": [2.0]}).vector(10, 1).tolist() == [2.0]
    with pytest.raises(FormatError, match="^invalid weights: weights for dimension 1 must be"):
        io.parse_weights({"1": [1.0, 0.0]})
    with pytest.raises(ValueError, match="negative"):
        InnerProductWeights({-1: [1.0]})


def test_cli_laplacian_rejects_two_keys_for_one_dimension(triangle_file, tmp_path, capsys):
    for pair in ({"01": [1, 1, 1], "1": [2, 2, 2]}, {"1": [2, 2, 2], "01": [1, 1, 1]}):
        weights = write_json(tmp_path / "w.json", pair)
        assert main(["laplacian", triangle_file, "--dim", "1", "--weights", weights]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: weights key '01' is not a dimension\n"


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


@pytest.mark.parametrize("name", sorted(TORSION))
def test_cli_betti_torsion_exits_0_in_both_fields(name, tmp_path, capsys):
    tops, gf2, rational = TORSION[name]
    path = write_json(tmp_path / f"{name}.json", {"top_simplices": tops})
    for flags, expected in (([], gf2), (["--field", "gf2"], gf2), (["--field", "real"], rational)):
        assert main(["betti", path, *flags]) == 0
        out = capsys.readouterr()
        assert out.out == json.dumps({"betti": expected}) + "\n"
        assert out.err == ""


def test_cli_rejects_json_nested_past_the_decoders_depth(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"top_simplices": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    assert main(["betti", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {deep}: invalid JSON (")


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


def test_cli_decompose_large_cycle_signal_is_harmonic(triangle_file, tmp_path, capsys):
    """A cycle near the top of the float range decomposes without overflow."""
    values = [1e300, -1e300, 1e300]
    signal = write_json(tmp_path / "s.json", {"dim": 1, "values": values})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["decompose", triangle_file, signal, "--dim", "1"]) == 0
    stdout = capsys.readouterr().out
    out = json.loads(stdout, parse_constant=finite_float, parse_float=finite_float)
    assert out["harmonic"] == values
    assert out["irrot"] == out["solenoid"] == [0.0, 0.0, 0.0]
    assert out["norms"] == {
        "irrot": 0.0, "harmonic": pytest.approx(3**0.5 * 1e300), "solenoid": 0.0
    }


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


def test_cli_filter_overflow_is_numerical_failure(triangle_file, tmp_path, capsys):
    signal = write_json(tmp_path / "s.json", {"dim": 1, "values": [1e300] * 3})
    spec = write_json(tmp_path / "f.json", {"dim": 1, "alpha0": 0, "down": [1e300, 1e300], "up": []})
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:  # numpy overflow warnings too
        warnings.simplefilter("always")
        assert main(["filter", triangle_file, signal, spec]) == 3
        assert main(["filter", triangle_file, signal, spec, "-o", str(out)]) == 3
    assert any("magnitude exceeds 1e12" in str(w.message) for w in caught)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err
    assert not out.exists()


def finite_float(text: str) -> float:
    """json.loads hook: NaN, Infinity and overflowing literals are errors."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite JSON number {text}")
    return value


EXTREME = st.sampled_from([0.0, 1.0, -2.5, 1e-300, 1e150, -1e300, 1e300, 1.7e308, -1.7e308])


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["sft", "decompose", "filter", "sheaf-check"]),
    values=st.lists(EXTREME, min_size=3, max_size=3),
    coeffs=st.lists(EXTREME, min_size=1, max_size=3),
)
def test_no_json_command_exits_0_with_non_finite_output(tmp_path_factory, command, values, coeffs):
    """Finite but extreme inputs either fail (exit 2 or 3) or print finite strict JSON."""
    d = tmp_path_factory.mktemp("extreme")
    tri = write_json(d / "tri.json", {"top_simplices": [[0, 1], [1, 2], [0, 2]]})
    signal = write_json(d / "s.json", {"dim": 1, "values": values})
    if command == "filter":
        spec = {"dim": 1, "alpha0": coeffs[0], "down": coeffs[1:], "up": coeffs[2:]}
        argv = ["filter", tri, signal, write_json(d / "f.json", spec)]
    elif command == "sheaf-check":
        complex_file, sheaf_file = shift_register_files(d)
        blocks = {"dim": 0, "blocks": [values, [coeffs[0]] * 3, values[::-1]]}
        argv = ["sheaf-check", complex_file, sheaf_file, write_json(d / "a.json", blocks)]
    else:
        argv = [command, tri, signal, "--dim", "1"]
    stdout = stdio.StringIO()
    # Overflow warnings (numpy's, and the filter's magnitude warning) go to
    # stderr in normal use; this property is about stdout and the exit code.
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout):
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        json.loads(stdout.getvalue(), parse_constant=finite_float, parse_float=finite_float)
    else:
        assert stdout.getvalue() == ""


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
    # A JSON true is a bool, not a dimension.
    boolean = write_json(tmp_path / "bool.json", {"dim": True, "blocks": [[1, 2, 3]] * 3})
    assert main(["sheaf-check", complex_file, sheaf_file, boolean]) == 2
    assert '"dim" must be a non-negative integer' in capsys.readouterr().err


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


def test_every_subcommand_writes_the_same_bytes_to_a_file_as_to_stdout(
    triangle_file, tmp_path, capsys
):
    """main writes each command's result once, to stdout or to -o FILE."""
    complex_file, sheaf_file = shift_register_files(tmp_path)
    signal = write_json(tmp_path / "s.json", {"dim": 1, "values": [1.0, -2.0, 0.5]})
    weights = write_json(tmp_path / "w.json", {"1": [2.0, 1.0, 1.0]})
    spec = write_json(tmp_path / "f.json", {"dim": 1, "alpha0": 0.5, "down": [0.1], "up": []})
    blocks = write_json(tmp_path / "x.json", {"dim": 0, "blocks": [[1, 2, 3], [2, 3, 4], [3, 4, 5]]})
    requests = {
        "betti": ["betti", triangle_file],
        "laplacian": ["laplacian", triangle_file, "--dim", "1", "--weights", weights],
        "spectrum": ["spectrum", triangle_file, "--dim", "0"],
        "sft": ["sft", triangle_file, signal, "--dim", "1"],
        "decompose": ["decompose", triangle_file, signal, "--dim", "1", "--weights", weights],
        "filter": ["filter", triangle_file, signal, spec],
        "sheaf-cohomology": ["sheaf-cohomology", complex_file, sheaf_file],
        "sheaf-check": ["sheaf-check", complex_file, sheaf_file, blocks],
        "spectra-compare": ["spectra-compare", triangle_file],
        "generate": ["generate", "crosslinked-cycle", "--n", "6", "--k", "1"],
    }
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(requests) == sorted(commands.choices)
    for name, argv in requests.items():
        assert main(argv) == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        target = tmp_path / f"{name}.out"
        assert main([*argv, "-o", str(target)]) == 0
        assert capsys.readouterr() == ("", "")
        assert target.read_bytes() == stdout, name


def test_cli_reports_the_first_bad_input_in_load_order(tmp_path, capsys):
    """The complex loads first, then the signal or sheaf, then other files, then --tol."""
    complex_file, sheaf_file = shift_register_files(tmp_path)
    empty = write_json(tmp_path / "empty.json", {})
    missing = str(tmp_path / "missing.json")
    for argv, first in (
        (["decompose", complex_file, empty, "--dim", "1", "--weights", missing], "signal file"),
        (["sheaf-check", complex_file, empty, missing], "sheaf file"),
        (["spectra-compare", empty, "--tol=nan"], "complex file"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {first} is missing fields"), argv


def test_cli_zero_edge_stalks_beside_a_huge_vertex_stalk(tmp_path, capsys):
    complex_file, _ = shift_register_files(tmp_path)
    stalks = {"[0]": 2**62, "[1]": 1, "[2]": 1, "[0,1]": 0, "[1,2]": 0}
    sheaf_file = write_json(tmp_path / "huge.json", {"stalks": stalks, "restrictions": []})
    assert main(["sheaf-cohomology", complex_file, sheaf_file]) == 0
    assert capsys.readouterr().out == '{"cohomology_dims": [4611686018427387906, 0]}\n'
    stalks["[1,2]"] = 1
    maps = [{"face": [v], "coface": [1, 2], "matrix": [[1]]} for v in (1, 2)]
    sheaf_file = write_json(tmp_path / "huge_maps.json", {"stalks": stalks, "restrictions": maps})
    assert main(["sheaf-cohomology", complex_file, sheaf_file]) == 0
    assert capsys.readouterr().out == '{"cohomology_dims": [4611686018427387905, 0]}\n'


def test_cli_block_checks_do_not_wrap_the_stalk_product(tmp_path, capsys):
    complex_file = write_json(tmp_path / "edge.json", {"top_simplices": [[0, 1]]})
    stalks = {"[0]": 4, "[1]": 0, "[0,1]": 2**62}
    for maps, message in (
        ([], "no restriction map for (Simplex(0,), Simplex(0, 1))"),
        ([{"face": [0], "coface": [0, 1], "matrix": []}], "has shape (0,), expected (4611686018427387904, 4)"),
    ):
        sheaf_file = write_json(tmp_path / "sheaf.json", {"stalks": stalks, "restrictions": maps})
        assert main(["sheaf-cohomology", complex_file, sheaf_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err


def test_cli_huge_edge_stalk_on_a_filled_triangle(tmp_path, capsys):
    complex_file = write_json(tmp_path / "tri.json", {"top_simplices": [[0, 1, 2]]})
    stalks = {"[0]": 1, "[1]": 0, "[2]": 0, "[0,1]": 1, "[0,2]": 1, "[1,2]": 2**62, "[0,1,2]": 0}
    maps = [{"face": [0], "coface": edge, "matrix": [[1]]} for edge in ([0, 1], [0, 2])]
    sheaf_file = write_json(tmp_path / "sheaf.json", {"stalks": stalks, "restrictions": maps})
    assert main(["sheaf-cohomology", complex_file, sheaf_file]) == 0
    assert capsys.readouterr() == ('{"cohomology_dims": [0, 4611686018427387905, 0]}\n', "")


def test_vertex_labels_past_int64(tmp_path, capsys):
    big = 2**64
    path = write_json(tmp_path / "big.json", {"top_simplices": [[0, 1, big], [1, big, 7], [0, 7]]})
    assert main(["betti", path]) == 0
    assert capsys.readouterr().out == '{"betti": [1, 1, 0]}\n'
    assert main(["laplacian", path, "--dim", "1"]) == 0
    assert capsys.readouterr().out == (
        ",0-1,0-7,0-18446744073709551616,1-7,1-18446744073709551616,7-18446744073709551616\n"
        "0-1,3.0,1.0,0.0,-1.0,0.0,0.0\n"
        "0-7,1.0,2.0,1.0,1.0,0.0,-1.0\n"
        "0-18446744073709551616,0.0,1.0,3.0,0.0,0.0,1.0\n"
        "1-7,-1.0,1.0,0.0,3.0,0.0,0.0\n"
        "1-18446744073709551616,0.0,0.0,0.0,0.0,4.0,0.0\n"
        "7-18446744073709551616,0.0,-1.0,1.0,0.0,0.0,3.0\n"
    )
    c = io.parse_complex(io.load_json(path))
    assert c.vertices == (0, 1, 7, big)
    adjacency = np.array([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]], dtype=float)
    assert np.array_equal(c.adjacency_matrix().toarray(), adjacency)
    assert np.array_equal(c.degree_matrix().toarray(), np.diag([3.0, 3, 3, 3]))


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


GENERATOR_ERRORS = {
    "cycle of 2": (lambda: generators.cycle(2), ["cycle", "--n", "2"],
                   "a cycle needs at least 3 vertices, got 2"),
    "path of 0": (lambda: generators.path(0), ["path", "--n", "0"],
                  "a path needs at least 1 vertex, got 0"),
    "graph of 0": (lambda: generators.random_graph(0, 0.5, 0), ["random-graph", "--n", "0"],
                   "a graph needs at least 1 vertex, got 0"),
    "edge probability above 1": (lambda: generators.random_graph(5, 2.0, 0),
                                 ["random-graph", "--n", "5", "--p", "2.0"],
                                 "edge probability must be in [0, 1], got 2.0"),
    "edge probability below 0": (lambda: generators.random_graph(5, -0.5, 0),
                                 ["random-graph", "--n", "5", "--p=-0.5"],
                                 "edge probability must be in [0, 1], got -0.5"),
    "crosslinked cycle of 2": (lambda: generators.crosslinked_cycle(2, 0, 0),
                               ["crosslinked-cycle", "--n", "2"],
                               "a cycle needs at least 3 vertices, got 2"),
    "negative chord count": (lambda: generators.crosslinked_cycle(6, -1, 0),
                             ["crosslinked-cycle", "--n", "6", "--k=-1"],
                             "chord count must be non-negative, got -1"),
    "more chords than pairs": (lambda: generators.crosslinked_cycle(5, 6, 0),
                               ["crosslinked-cycle", "--n", "5", "--k", "6"],
                               "only 5 chords available, asked for 6"),
}


@pytest.mark.parametrize("case", sorted(GENERATOR_ERRORS))
def test_generators_reject_bad_params(case, capsys):
    call, argv, message = GENERATOR_ERRORS[case]
    with pytest.raises(BadParams) as err:
        call()
    assert str(err.value) == message
    assert main(["generate", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_path_of_one_vertex_is_that_vertex():
    assert generators.path(1) == [[0]]


GENERATE_KINDS = {
    "cycle": lambda: generators.cycle(6),
    "path": lambda: generators.path(6),
    "sphere2": generators.sphere2,
    "torus": generators.torus,
    "random-graph": lambda: generators.random_graph(6, 0.5, 3),
    "crosslinked-cycle": lambda: generators.crosslinked_cycle(6, 2, 3),
}


@pytest.mark.parametrize("kind", sorted(GENERATE_KINDS))
def test_cli_generate_each_kind_prints_its_generator(kind, capsys):
    args = ["generate", kind, "--n", "6", "--k", "2", "--p", "0.5", "--seed", "3"]
    assert main(args) == 0
    assert capsys.readouterr().out == json.dumps({"top_simplices": GENERATE_KINDS[kind]()}) + "\n"
    if kind not in ("sphere2", "torus"):
        assert main(["generate", kind]) == 2
        assert capsys.readouterr().err == f"error: --n is required for kind {kind}\n"


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


def run_in_process(argv: list[str], capsys) -> tuple[int, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, capsys.readouterr().out


def run_fresh_process(argv: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(Path(hodgekit.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "hodgekit.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stdout


def test_back_to_back_main_calls_match_fresh_processes(tmp_path, capsys):
    """The parser is built once; consecutive calls must not see each other's options."""
    rp2 = write_json(tmp_path / "rp2.json", {"top_simplices": TORSION["rp2"][0]})
    sequence = [
        ["betti", rp2, "--field", "real"],
        ["betti", rp2],
        ["betti", rp2, "--field", "bogus"],
        ["generate", "cycle", "--n", "4"],
        ["laplacian", rp2, "--dim", "7"],
        ["betti", rp2, "--dump-matrix", str(tmp_path / "m_")],
        ["spectra-compare", rp2],
        ["generate", "cycle"],
        ["betti", rp2],
    ]
    in_process = [run_in_process(argv, capsys) for argv in sequence]
    assert in_process == [run_fresh_process(argv) for argv in sequence]
    assert [code for code, _ in in_process] == [0, 0, 2, 0, 2, 0, 2, 2, 0]


def _bad_matrix(value):
    def edit(sheaf):
        sheaf["restrictions"][0]["matrix"] = value
    return edit


def _set(path, value):
    def edit(sheaf):
        *parents, last = path
        target = sheaf
        for key in parents:
            target = target[key]
        target[last] = value
    return edit


def _stalk_key(old, new, dim=None):
    def edit(sheaf):
        dim_ = sheaf["stalks"].pop(old)
        sheaf["stalks"][new] = dim_ if dim is None else dim
    return edit


def _stalks_past_int64(sheaf):
    """Vertex stalks 2**62 and 2**62, so dimension 0 totals 2**63; edge stalks 0 need no maps."""
    sheaf["stalks"].update({"[0]": 2**62, "[1]": 2**62, "[0,1]": 0, "[1,2]": 0})
    sheaf["restrictions"].clear()


FLOAT_MAX = sys.float_info.max

# Every way a sheaf file fails to parse or validate: each must exit 2.
SHEAF_FILE_ERRORS = {
    "bool entry": _bad_matrix([[True, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "string entry": _bad_matrix([["0", 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "null entry": _bad_matrix([[None, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "NaN entry": _bad_matrix([[float("nan"), 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "Infinity entry": _bad_matrix([[float("inf"), 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "integer past float range": _bad_matrix([[10**400, 1, 0], [0, 0, 1]]),
    "integer just past float range": _bad_matrix([[int(FLOAT_MAX) + 1, 1, 0], [0, 0, 1]]),
    "ragged rows": _bad_matrix([[0.0, 1.0, 0.0], [0.0, 1.0]]),
    "transposed block": _bad_matrix(LEFT_SHIFT.T.tolist()),
    "row not a list": _bad_matrix([[0.0, 1.0, 0.0], 1.0]),
    "matrix not a list": _bad_matrix("identity"),
    "wrong block shape": _bad_matrix([[0.0, 1.0, 0.0]]),
    "transposed entry count": _bad_matrix([[0.0, 1.0], [0.0, 0.0]]),
    "stalk key not JSON": _stalk_key("[0]", "[0"),
    "stalk key not a list": _stalk_key("[0]", "0"),
    "stalk key with a bool": _stalk_key("[0]", "[true]"),
    "stalk key empty": _stalk_key("[0]", "[]"),
    "stalk key negative": _stalk_key("[0]", "[-1]"),
    "stalk key repeated vertex": _stalk_key("[0,1]", "[1,1]"),
    "stalk key unknown": _stalk_key("[0]", "[7]"),
    "stalk key split across keys": _stalk_key("[0]", "[0], [1"),
    "stalk dimension negative": _set(["stalks", "[0]"], -1),
    "stalk dimension bool": _set(["stalks", "[0]"], True),
    "stalk dimension float": _set(["stalks", "[0]"], 3.0),
    "stalk dimension past float range": _set(["stalks", "[0]"], 10**30),
    "stalk dimension 2**63": _set(["stalks", "[0]"], 2**63),
    "stalk total past int64": _stalks_past_int64,
    "stalk key with a bool beside its int": lambda sheaf: sheaf["stalks"].update({"[true]": 3}),
    "stalk dimension true beside its int": lambda sheaf: sheaf["stalks"].update({"[0,1]": True, "[0, 1]": 2}),
    "stalk key holding a list": _stalk_key("[0]", "[[0]]"),
    "stalk key nested past the decoder's depth": _stalk_key("[0]", "[" * 100_000 + "]" * 100_000),
    "stalk missing": lambda sheaf: sheaf["stalks"].pop("[2]"),
    "face unknown": _set(["restrictions", 0, "face"], [7]),
    "face with a bool": _set(["restrictions", 0, "face"], [False]),
    "face not a list": _set(["restrictions", 0, "face"], 0),
    "face a JSON string": _set(["restrictions", 0, "face"], "[0]"),
    "face an object": _set(["restrictions", 0, "face"], {"0": 0}),
    "face holding an object": _set(["restrictions", 0, "face"], [{"0": 0}]),
    "face with a float beside its int": lambda sheaf: sheaf["restrictions"].append(
        {**sheaf["restrictions"][1], "face": [1.0]}
    ),
    "face repeated vertex": _set(["restrictions", 0, "coface"], [0, 0]),
    "face empty": _set(["restrictions", 0, "face"], []),
    "not an incident pair": _set(["restrictions", 0, "face"], [2]),
    "face one dimension off": _set(["restrictions", 0, "face"], [0, 1]),
    "restriction missing": lambda sheaf: sheaf["restrictions"].pop(),
    "restriction missing a field": lambda sheaf: sheaf["restrictions"][0].pop("matrix"),
    "restriction with an extra field": _set(["restrictions", 0, "weight"], 1.0),
    "restriction not an object": _set(["restrictions", 0], [[0], [0, 1]]),
    "restrictions not a list": _set(["restrictions"], {}),
    "stalks not an object": _set(["stalks"], []),
}
# Text that a case's error must contain, for the cases that pin it.
SHEAF_FILE_MESSAGES = {
    "ragged rows": "restrictions[0].matrix rows must all have the same length",
    "transposed block": "(Simplex(0,), Simplex(0, 1)) has shape (3, 2), expected (2, 3)",
    "stalk dimension true beside its int": "stalk dimension for Simplex(0, 1) must be a non-negative",
}


@pytest.mark.parametrize("case", sorted(SHEAF_FILE_ERRORS))
def test_cli_sheaf_file_errors_exit_2(tmp_path, capsys, case):
    complex_file, sheaf_file = shift_register_files(tmp_path)
    sheaf = json.loads((tmp_path / "sheaf.json").read_text(encoding="utf-8"))
    SHEAF_FILE_ERRORS[case](sheaf)
    write_json(tmp_path / "sheaf.json", sheaf)
    assert main(["sheaf-cohomology", complex_file, sheaf_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert SHEAF_FILE_MESSAGES.get(case, "") in captured.err


IO_ERRORS = {
    "assignment block of the wrong length": (
        "assignment", {"dim": 0, "blocks": [[1, 2], [2, 3, 4], [3, 4, 5]]},
        "block for Simplex(0,) has length 2, stalk is 3",
    ),
    "assignment block not finite": (
        "assignment", {"dim": 0, "blocks": [[1, 2, float("nan")], [2, 3, 4], [3, 4, 5]]},
        "block for Simplex(0,) must be a list of finite numbers",
    ),
    "assignment block not a list": (
        "assignment", {"dim": 0, "blocks": [1, [2, 3, 4], [3, 4, 5]]},
        "block for Simplex(0,) must be a list of finite numbers",
    ),
    "weights not an object": ("weights", [[1.0, 1.0, 1.0]], "weights file must be a JSON object"),
    "filter of degree 65": (
        "filter", {"dim": 1, "alpha0": 0.0, "down": [0.1] * 65, "up": []},
        "invalid filter: filter degree 65 exceeds 64",
    ),
    "matrix labels of the wrong count": ("csv", None, "label counts do not match the matrix shape"),
}


@pytest.mark.parametrize("case", sorted(IO_ERRORS))
def test_io_rejects_bad_inputs(case, triangle_file, tmp_path, capsys):
    kind, obj, message = IO_ERRORS[case]
    complex_file, sheaf_file = shift_register_files(tmp_path)
    sh = io.parse_sheaf(io.load_json(sheaf_file), io.parse_complex(io.load_json(complex_file)))
    signal = write_json(tmp_path / "signal.json", {"dim": 1, "values": [1.0, 2.0, 3.0]})
    path = write_json(tmp_path / "input.json", obj)
    calls = {
        "assignment": (lambda: io.parse_assignment(obj, sh), ["sheaf-check", complex_file, sheaf_file, path]),
        "weights": (lambda: io.parse_weights(obj), ["laplacian", triangle_file, "--dim", "1", "--weights", path]),
        "filter": (lambda: io.parse_filter(obj), ["filter", triangle_file, signal, path]),
        "csv": (lambda: io.matrix_to_csv(SparseMatrix.zeros(2, 3, Field.REAL), ["0", "1"], ["0"]), None),
    }
    call, argv = calls[kind]
    with pytest.raises(FormatError) as err:
        call()
    assert str(err.value) == message
    if argv is not None:  # matrix_to_csv gets its labels from the complex in every command
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_sheaf_keys_spelled_twice_keep_the_last(tmp_path):
    """Keys that name one simplex with valid labels merge as before: the last one wins."""
    complex_file, sheaf_file = shift_register_files(tmp_path)
    sheaf = json.loads(Path(sheaf_file).read_text(encoding="utf-8"))
    sheaf["stalks"]["[0, 1]"] = sheaf["stalks"].pop("[0,1]")
    sheaf["stalks"]["[0,1]"] = 2
    sheaf["restrictions"].insert(0, {**sheaf["restrictions"][0], "matrix": [[9.0] * 3] * 2})
    sh = io.parse_sheaf(sheaf, io.parse_complex(io.load_json(complex_file)))
    assert sh.restriction(Simplex((0,)), Simplex((0, 1))).tolist() == LEFT_SHIFT.tolist()


def test_sheaf_files_are_read_without_simplex_objects(monkeypatch):
    """Parsing, assignment and consistency index by position and build no Simplex."""
    rng = np.random.default_rng(2)
    c = random_clique_complex(rng, 40, 0.4, max_dim=2)
    assert 250 <= c.n_simplices(1) <= 350
    rows = [[list(s.vertices) for s in c.simplices(n)] for n in range(3)]
    gauge = [[np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in dim] for dim in rows]
    restrictions = [
        {"face": rows[n - 1][f], "coface": rows[n][j], "matrix": (gauge[n][j] @ gauge[n - 1][f].T).tolist()}
        for n in (1, 2)
        for j, faces in enumerate(c.face_table(n).tolist())
        for f in faces
    ]
    sheaf = {"stalks": {json.dumps(r): 3 for dim in rows for r in dim}, "restrictions": restrictions}
    section = rng.standard_normal(3)
    assignment = {"dim": 0, "blocks": [(g @ section).tolist() for g in gauge[0]]}
    fresh = random_clique_complex(np.random.default_rng(2), 40, 0.4, max_dim=2)

    def refuse(self):
        raise AssertionError("a Simplex was built")

    monkeypatch.setattr(Simplex, "__post_init__", refuse)
    sh = io.parse_sheaf(sheaf, fresh)
    x = io.parse_assignment(assignment, sh)
    consistent, residual = check_consistency(fresh, sh, x)
    assert consistent and len(residual) == 3 * fresh.n_simplices(1)
