"""Input validation and serialization for the documented file formats.

Formats (all JSON unless noted):
  complex     {"top_simplices": [[0,1,2], ...]}
  signal      {"dim": n, "values": [...]}
  filter      {"dim": n, "alpha0": x, "down": [...], "up": [...]}
  weights     {"0": [...], "1": [...]}  (dimension -> positive diagonal)
  sheaf       {"stalks": {"[0]": 3, ...}, "restrictions":
                 [{"face": [0], "coface": [0,1], "matrix": [[...]]}, ...]}
  assignment  {"dim": n, "blocks": [[...], ...]}  (canonical simplex order)
  matrix CSV  header row of column labels, first column of row labels,
              vertex labels joined by "-"

Unknown fields are rejected everywhere.  Only what JSON can get wrong is
checked here, vectors of numbers by chains._finite_reals (no NaN, Infinity,
bool or integer beyond float range); labels, stalks, maps (their numbers too)
and weight signs are checked by the complex, Sheaf and InnerProductWeights.
"""

from __future__ import annotations

import io as _io
import json
import csv
from typing import Any

import numpy as np

from .chains import Cochain, SparseMatrix, _finite_reals, _grids
from .complex import Simplex, SimplicialComplex, build_complex
from .errors import FormatError, HodgekitError
from .filters import FilterSpec
from .hodge import InnerProductWeights
from .sheaf import Assignment, Sheaf


def _require_keys(obj: dict, required: set[str], what: str, optional: set[str] = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    missing = required - obj.keys()
    if missing:
        raise FormatError(f"{what} is missing fields: {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise FormatError(f"{what} has unknown fields: {sorted(unknown)}")


def _list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a list")
    return value


def _dim(obj: dict) -> int:
    if type(obj["dim"]) is not int or obj["dim"] < 0:  # a JSON true is a bool, not a dimension
        raise FormatError('"dim" must be a non-negative integer')
    return obj["dim"]


def _float_list(value: Any, what: str) -> np.ndarray:
    if not isinstance(value, list) or (values := _finite_reals(value)) is None:
        raise FormatError(f"{what} must be a list of finite numbers")
    return values


def parse_complex(obj: Any) -> SimplicialComplex:
    _require_keys(obj, {"top_simplices"}, "complex file")
    tops = obj["top_simplices"]
    if not isinstance(tops, list) or not tops:
        raise FormatError('"top_simplices" must be a non-empty list')
    if not set(map(type, tops)) <= {list}:
        for i, entry in enumerate(tops):  # name the first entry that is not a list
            _list(entry, f"top_simplices[{i}]")
    try:  # the complex reports the first top with a bad label, in input order
        return build_complex(tops)
    except HodgekitError as exc:
        raise FormatError(f"invalid complex: {exc}") from exc


def complex_to_obj(top_simplices: list[list[int]]) -> dict:
    return {"top_simplices": top_simplices}


def parse_signal(obj: Any) -> Cochain:
    _require_keys(obj, {"dim", "values"}, "signal file")
    return Cochain(_dim(obj), _float_list(obj["values"], '"values"'))


def signal_to_obj(x: Cochain) -> dict:
    return {"dim": x.dimension, "values": [float(v) for v in x.values]}


def parse_filter(obj: Any) -> FilterSpec:
    _require_keys(obj, {"dim", "alpha0", "down", "up"}, "filter file")
    n = _dim(obj)
    down = _float_list(obj["down"], '"down"')
    up = _float_list(obj["up"], '"up"')
    try:  # FilterSpec checks alpha0
        return FilterSpec(n, obj["alpha0"], tuple(down), tuple(up))
    except ValueError as exc:
        raise FormatError(f"invalid filter: {exc}") from exc


def parse_weights(obj: Any) -> InnerProductWeights:
    if not isinstance(obj, dict):
        raise FormatError("weights file must be a JSON object")
    table = {}
    for key, values in obj.items():
        try:  # plain decimal text only, so that no two keys name one dimension
            plain = key == str(int(key))
        except ValueError:
            plain = False
        if not plain:
            raise FormatError(f"weights key {key!r} is not a dimension")
        table[int(key)] = _float_list(values, f"weights[{key}]")
    try:
        return InnerProductWeights(table)
    except ValueError as exc:
        raise FormatError(f"invalid weights: {exc}") from exc


def _stalk_key(key: str) -> list:
    try:
        return _list(json.loads(key), f"stalk key {key!r}")
    except (json.JSONDecodeError, RecursionError):  # nested too deep for the decoder
        raise FormatError(f"stalk key {key!r} is not a JSON vertex list") from None


class _Pairs(list):  # values() as a Mapping's: perfbench/tracer.py sizes a Sheaf by them
    def values(self) -> list:
        return [value for _, value in self]


def parse_sheaf(obj: Any, c: SimplicialComplex) -> Sheaf:
    _require_keys(obj, {"stalks", "restrictions"}, "sheaf file")
    if not isinstance(obj["stalks"], dict):
        raise FormatError('"stalks" must be an object')
    stalks = _Pairs((_stalk_key(key), dim) for key, dim in obj["stalks"].items())
    entries, fields = _list(obj["restrictions"], '"restrictions"'), ("face", "coface", "matrix")
    # The whole file at once; entry by entry only when that fails, to name the first bad entry.
    whole = all(isinstance(e, dict) for e in entries) and {*map(frozenset, entries)} <= {frozenset(fields)}
    faces, cofaces, matrices = ([e[k] for e in entries] if whole else [None] for k in fields)
    if not set(map(type, faces + cofaces + matrices)) <= {list} or _grids(matrices) is None:
        for i, entry in enumerate(entries):
            _require_keys(entry, set(fields), what := f"restrictions[{i}]")
            for key in fields:
                _list(entry[key], f"{what}.{key}")
            if _grids([entry["matrix"]]) is None:
                raise FormatError(f"{what}.matrix rows must all have the same length and be lists")
    maps = list(zip(zip(faces, cofaces), matrices))
    try:  # Sheaf checks labels, stalks and the maps' numbers, and keeps the last of repeats
        return Sheaf(c, stalks, maps)
    except ValueError as exc:
        raise FormatError(f"invalid sheaf: {exc}") from exc


def parse_assignment(obj: Any, sh: Sheaf) -> Assignment:
    _require_keys(obj, {"dim", "blocks"}, "assignment file")
    n = _dim(obj)
    blocks = _list(obj["blocks"], '"blocks"')
    stalk = np.diff(sh.offsets(n)).tolist()
    if len(blocks) != len(stalk):
        raise FormatError(f"expected {len(stalk)} blocks for dimension {n}, got {len(blocks)}")
    for j, block in enumerate(blocks):
        if not isinstance(block, list) or _finite_reals(block) is None or len(block) != stalk[j]:
            s = sh.complex.simplices(n)[j]
            _float_list(block, f"block for {s}")
            raise FormatError(f"block for {s} has length {len(block)}, stalk is {stalk[j]}")
    return Assignment(n, np.array([v for block in blocks for v in block], dtype=np.float64))


def assignment_to_obj(x: Assignment, sh: Sheaf) -> dict:
    offsets = sh.offsets(x.dimension)
    blocks = [
        [float(v) for v in x.values[offsets[i] : offsets[i + 1]]]
        for i in range(len(offsets) - 1)
    ]
    return {"dim": x.dimension, "blocks": blocks}


def simplex_label(s: Simplex) -> str:
    return "-".join(str(v) for v in s.vertices)


def matrix_to_csv(
    m: SparseMatrix, row_labels: list[str], col_labels: list[str]
) -> str:
    """Dense CSV dump: column labels on the header row, row labels first."""
    if len(row_labels) != m.rows or len(col_labels) != m.cols:
        raise FormatError("label counts do not match the matrix shape")
    dense = m.toarray()
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([""] + list(col_labels))
    for label, row in zip(row_labels, dense):
        writer.writerow([label] + [repr(float(v)) for v in row])
    return buffer.getvalue()


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep for the decoder
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
