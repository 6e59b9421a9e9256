"""Command-line interface.

Exit codes: 0 on success, 2 when inputs fail to parse or validate, 3 on
numerical trouble: a numerical check that fails, or a result that is not
finite and so cannot be written as strict JSON.  Betti numbers are exact in
both fields and never exit 3; `betti --field` picks the field, and a
complex with 2-torsion (the real projective plane) has different GF(2) and
rational answers.  The argument parser is built once, at import.

There is one path from argv to output: `main` loads the complex and then the
signal or sheaf that follows it, each `_cmd_*` reads any further files and
returns its result (CSV text, or an object written as JSON), and `main`
writes that result once.  `betti --dump-matrix` writes its CSV files through
the same writer.
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
from .hodge import hodge_decompose, hodge_laplacian, hodge_spectrum
from .homology import betti
from .sheaf import check_consistency, sheaf_cohomology_dims
from .spectral import compare_spectra, eigendecompose, inverse_sft, sft


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


def _labels(c, n: int) -> list[str]:
    return [io.simplex_label(s) for s in c.simplices(n)]


def _tol(args) -> dict:
    """The --tol option as keyword arguments; NaN, infinite or negative is BadParams."""
    if args.tol is None:
        return {}
    if not 0 <= args.tol < float("inf"):
        raise BadParams(f"--tol must be finite and non-negative, got {args.tol}")
    return {"tol": args.tol}


def _cmd_betti(args, c):
    field = Field(args.field)
    values = betti(c, field)
    if args.dump_matrix:
        for n in range(1, c.max_dim + 1):
            csv_text = io.matrix_to_csv(boundary_matrix(c, n, field), _labels(c, n - 1), _labels(c, n))
            _emit(csv_text, f"{args.dump_matrix}boundary_{n}.csv")
    return {"betti": values}


def _cmd_laplacian(args, c):
    weights = io.parse_weights(io.load_json(args.weights)) if args.weights else None
    ops = hodge_laplacian(c, args.dim, weights)
    part = {"up": ops.up, "down": ops.down, "full": ops.full}[args.part]
    labels = _labels(c, args.dim)
    return io.matrix_to_csv(part, labels, labels)


def _cmd_spectrum(args, c):
    values = hodge_spectrum(c, args.dim)
    return "\n".join(["eigenvalue"] + [repr(float(v)) for v in values])


def _cmd_sft(args, c, signal):
    basis = eigendecompose(hodge_laplacian(c, args.dim).full, dimension=args.dim)
    return io.signal_to_obj(inverse_sft(signal, basis) if args.inverse else sft(signal, basis))


def _cmd_decompose(args, c, signal):
    weights = io.parse_weights(io.load_json(args.weights)) if args.weights else None
    irrot, harmonic, solenoid = hodge_decompose(signal, c, args.dim, weights, **_tol(args))

    def norm(x: Cochain) -> float:
        peak = float(np.max(np.abs(x.values), initial=0.0))
        return peak * float(np.linalg.norm(x.values / peak)) if peak else 0.0

    return {
        "dim": args.dim,
        "irrot": [float(v) for v in irrot.values],
        "harmonic": [float(v) for v in harmonic.values],
        "solenoid": [float(v) for v in solenoid.values],
        "norms": {"irrot": norm(irrot), "harmonic": norm(harmonic), "solenoid": norm(solenoid)},
    }


def _cmd_filter(args, c, signal):
    spec = io.parse_filter(io.load_json(args.filter))
    return io.signal_to_obj(filter_signal(spec, hodge_laplacian(c, spec.dimension), signal))


def _cmd_sheaf_cohomology(args, c, sh):
    return {"cohomology_dims": sheaf_cohomology_dims(c, sh, **_tol(args))}


def _cmd_sheaf_check(args, c, sh):
    assignment = io.parse_assignment(io.load_json(args.assignment), sh)
    consistent, residual = check_consistency(c, sh, assignment, **_tol(args))
    return {"consistent": consistent, "residual": io.assignment_to_obj(residual, sh)}


def _cmd_spectra_compare(args, c):
    report = compare_spectra(c, **_tol(args))
    return {
        "agree": report.agree,
        "zero_mult_diff": report.zero_mult_diff,
        "b0_minus_b1": report.b0_minus_b1,
        "l0_nonzero": list(report.l0_nonzero),
        "l1_nonzero": list(report.l1_nonzero),
    }


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


def _cmd_generate(args):
    return io.complex_to_obj(_GENERATORS[args.kind](args))


# Arguments that several subcommands share; -o/--output, which all take, is added last.
_SHARED = {
    "complex": {},
    "--dim": {"type": int, "required": True},
    "--weights": {"default": None},
    "--tol": {"type": float, "default": None},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgekit",
        description="Simplicial complexes, Hodge Laplacians, and sheaves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, *arguments: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for arg in arguments:
            p.add_argument(arg, **_SHARED.get(arg, {}))
        p.set_defaults(func=func)
        return p

    p = command("betti", _cmd_betti, "Betti numbers of a complex", "complex")
    p.add_argument("--field", choices=["gf2", "real"], default="gf2")
    p.add_argument("--dump-matrix", default=None, metavar="PREFIX",
                   help="also write boundary_<n>.csv files with this prefix")
    p = command("laplacian", _cmd_laplacian, "Hodge Laplacian as dense CSV",
                "complex", "--dim", "--weights")
    p.add_argument("--part", choices=["up", "down", "full"], default="full")
    command("spectrum", _cmd_spectrum, "Laplacian eigenvalues as CSV", "complex", "--dim")
    p = command("sft", _cmd_sft, "simplicial Fourier transform of a signal",
                "complex", "signal", "--dim")
    p.add_argument("--inverse", action="store_true")
    command("decompose", _cmd_decompose, "Hodge decomposition of a signal",
            "complex", "signal", "--dim", "--weights", "--tol")
    command("filter", _cmd_filter, "apply a polynomial simplicial filter",
            "complex", "signal", "filter")
    command("sheaf-cohomology", _cmd_sheaf_cohomology, "sheaf cohomology dimensions",
            "complex", "sheaf", "--tol")
    command("sheaf-check", _cmd_sheaf_check, "consistency of a sheaf assignment",
            "complex", "sheaf", "assignment", "--tol")
    command("spectra-compare", _cmd_spectra_compare, "graph Laplacian spectra report",
            "complex", "--tol")
    p = command("generate", _cmd_generate, "emit a fixture complex as JSON")
    p.add_argument("kind", choices=_GENERATORS)
    p.add_argument("--n", type=int, default=None, help="size parameter")
    p.add_argument("--k", type=int, default=0, help="chord count (crosslinked-cycle)")
    p.add_argument("--p", type=float, default=0.3, help="edge probability (random-graph)")
    p.add_argument("--seed", type=int, default=0)
    for p in sub.choices.values():
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        inputs = []
        if "complex" in args:
            inputs.append(io.parse_complex(io.load_json(args.complex)))
        if "signal" in args:
            inputs.append(io.parse_signal(io.load_json(args.signal)))
        if "sheaf" in args:
            inputs.append(io.parse_sheaf(io.load_json(args.sheaf), inputs[0]))
        result = args.func(args, *inputs)
        (_emit if isinstance(result, str) else _emit_json)(result, args.output)
        return 0
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (HodgekitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
