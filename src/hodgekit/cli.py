"""Command-line interface.

Exit codes: 0 on success, 2 when inputs fail to parse or validate, 3 on
numerical trouble: a numerical check that fails, or a result that is not
finite and so cannot be written as strict JSON.  Betti numbers are exact in
both fields and never exit 3; `betti --field` picks the field, and a
complex with 2-torsion (the real projective plane) has different GF(2) and
rational answers.  The argument parser is built once, at import.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import generators, io
from .chains import Cochain, Field, boundary_matrix
from .errors import BadParams, HodgekitError, NumericalFailure
from .filters import filter_signal
from .hodge import hodge_decompose, hodge_laplacian
from .homology import betti
from .sheaf import check_consistency, sheaf_cohomology_dims
from .spectral import compare_spectra, eigendecompose, eigenvalues, inverse_sft, sft


def _emit(text: str, output: str | None) -> None:
    text += "" if text.endswith("\n") else "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj, output: str | None) -> None:
    """Write obj as strict JSON; a NaN or infinite value is a NumericalFailure."""
    try:
        text = json.dumps(obj, allow_nan=False)
    except ValueError:
        raise NumericalFailure("the result has a NaN or infinite value") from None
    _emit(text, output)


def _load_complex(path: str):
    return io.parse_complex(io.load_json(path))


def _labels(c, n: int) -> list[str]:
    return [io.simplex_label(s) for s in c.simplices(n)]


def _tol(args) -> dict:
    """The --tol option as keyword arguments; NaN, infinite or negative is BadParams."""
    if args.tol is None:
        return {}
    if not 0 <= args.tol < float("inf"):
        raise BadParams(f"--tol must be finite and non-negative, got {args.tol}")
    return {"tol": args.tol}


def _cmd_betti(args) -> int:
    c = _load_complex(args.complex)
    field = Field(args.field)
    values = betti(c, field)
    if args.dump_matrix:
        for n in range(1, c.max_dim + 1):
            m = boundary_matrix(c, n, field)
            csv_text = io.matrix_to_csv(m, _labels(c, n - 1), _labels(c, n))
            with open(f"{args.dump_matrix}boundary_{n}.csv", "w", encoding="utf-8") as fh:
                fh.write(csv_text)
    _emit_json({"betti": values}, args.output)
    return 0


def _cmd_laplacian(args) -> int:
    c = _load_complex(args.complex)
    weights = io.parse_weights(io.load_json(args.weights)) if args.weights else None
    ops = hodge_laplacian(c, args.dim, weights)
    part = {"up": ops.up, "down": ops.down, "full": ops.full}[args.part]
    labels = _labels(c, args.dim)
    _emit(io.matrix_to_csv(part, labels, labels), args.output)
    return 0


def _cmd_spectrum(args) -> int:
    values = eigenvalues(hodge_laplacian(_load_complex(args.complex), args.dim).full)
    lines = ["eigenvalue"] + [repr(float(v)) for v in values]
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_sft(args) -> int:
    c = _load_complex(args.complex)
    signal = io.parse_signal(io.load_json(args.signal))
    ops = hodge_laplacian(c, args.dim)
    basis = eigendecompose(ops.full, dimension=args.dim)
    out = inverse_sft(signal, basis) if args.inverse else sft(signal, basis)
    _emit_json(io.signal_to_obj(out), args.output)
    return 0


def _cmd_decompose(args) -> int:
    c = _load_complex(args.complex)
    signal = io.parse_signal(io.load_json(args.signal))
    weights = io.parse_weights(io.load_json(args.weights)) if args.weights else None
    irrot, harmonic, solenoid = hodge_decompose(signal, c, args.dim, weights, **_tol(args))

    def norm(x: Cochain) -> float:
        peak = float(np.max(np.abs(x.values), initial=0.0))
        return peak * float(np.linalg.norm(x.values / peak)) if peak else 0.0

    _emit_json(
        {
            "dim": args.dim,
            "irrot": [float(v) for v in irrot.values],
            "harmonic": [float(v) for v in harmonic.values],
            "solenoid": [float(v) for v in solenoid.values],
            "norms": {
                "irrot": norm(irrot),
                "harmonic": norm(harmonic),
                "solenoid": norm(solenoid),
            },
        },
        args.output,
    )
    return 0


def _cmd_filter(args) -> int:
    c = _load_complex(args.complex)
    signal = io.parse_signal(io.load_json(args.signal))
    spec = io.parse_filter(io.load_json(args.filter))
    ops = hodge_laplacian(c, spec.dimension)
    _emit_json(io.signal_to_obj(filter_signal(spec, ops, signal)), args.output)
    return 0


def _cmd_sheaf_cohomology(args) -> int:
    c = _load_complex(args.complex)
    sh = io.parse_sheaf(io.load_json(args.sheaf), c)
    dims = sheaf_cohomology_dims(c, sh, **_tol(args))
    _emit_json({"cohomology_dims": dims}, args.output)
    return 0


def _cmd_sheaf_check(args) -> int:
    c = _load_complex(args.complex)
    sh = io.parse_sheaf(io.load_json(args.sheaf), c)
    assignment = io.parse_assignment(io.load_json(args.assignment), sh)
    consistent, residual = check_consistency(c, sh, assignment, **_tol(args))
    _emit_json(
        {"consistent": consistent, "residual": io.assignment_to_obj(residual, sh)},
        args.output,
    )
    return 0


def _cmd_spectra_compare(args) -> int:
    c = _load_complex(args.complex)
    report = compare_spectra(c, **_tol(args))
    _emit_json(
        {
            "agree": report.agree,
            "zero_mult_diff": report.zero_mult_diff,
            "b0_minus_b1": report.b0_minus_b1,
            "l0_nonzero": list(report.l0_nonzero),
            "l1_nonzero": list(report.l1_nonzero),
        },
        args.output,
    )
    return 0


def _require_n(args) -> int:
    if args.n is None:
        raise BadParams(f"--n is required for kind {args.kind}")
    return args.n


_GENERATORS = {
    "cycle": lambda args: generators.cycle(_require_n(args)),
    "path": lambda args: generators.path(_require_n(args)),
    "sphere2": lambda args: generators.sphere2(),
    "torus": lambda args: generators.torus(),
    "random-graph": lambda args: generators.random_graph(_require_n(args), args.p, args.seed),
    "crosslinked-cycle": lambda args: generators.crosslinked_cycle(_require_n(args), args.k, args.seed),
}


def _cmd_generate(args) -> int:
    _emit_json(io.complex_to_obj(_GENERATORS[args.kind](args)), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgekit",
        description="Simplicial complexes, Hodge Laplacians, and sheaves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("betti", help="Betti numbers of a complex")
    p.add_argument("complex")
    p.add_argument("--field", choices=["gf2", "real"], default="gf2")
    p.add_argument("--dump-matrix", default=None, metavar="PREFIX",
                   help="also write boundary_<n>.csv files with this prefix")
    common(p)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("laplacian", help="Hodge Laplacian as dense CSV")
    p.add_argument("complex")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--part", choices=["up", "down", "full"], default="full")
    common(p)
    p.set_defaults(func=_cmd_laplacian)

    p = sub.add_parser("spectrum", help="Laplacian eigenvalues as CSV")
    p.add_argument("complex")
    p.add_argument("--dim", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sft", help="simplicial Fourier transform of a signal")
    p.add_argument("complex")
    p.add_argument("signal")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--inverse", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_sft)

    p = sub.add_parser("decompose", help="Hodge decomposition of a signal")
    p.add_argument("complex")
    p.add_argument("signal")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("filter", help="apply a polynomial simplicial filter")
    p.add_argument("complex")
    p.add_argument("signal")
    p.add_argument("filter")
    common(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("sheaf-cohomology", help="sheaf cohomology dimensions")
    p.add_argument("complex")
    p.add_argument("sheaf")
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_sheaf_cohomology)

    p = sub.add_parser("sheaf-check", help="consistency of a sheaf assignment")
    p.add_argument("complex")
    p.add_argument("sheaf")
    p.add_argument("assignment")
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_sheaf_check)

    p = sub.add_parser("spectra-compare", help="graph Laplacian spectra report")
    p.add_argument("complex")
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_spectra_compare)

    p = sub.add_parser("generate", help="emit a fixture complex as JSON")
    p.add_argument("kind", choices=_GENERATORS)
    p.add_argument("--n", type=int, default=None, help="size parameter")
    p.add_argument("--k", type=int, default=0, help="chord count (crosslinked-cycle)")
    p.add_argument("--p", type=float, default=0.3, help="edge probability (random-graph)")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_generate)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (HodgekitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
