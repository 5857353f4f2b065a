"""Command line interface.

Subcommands: generate, metrics, spectrum, sweep, verify.  All output is
deterministic: identical inputs give byte-identical bytes, floats are
printed with 12 significant digits, and there are no timestamps.

Exit codes: 0 success, 1 verification or comparison failure, 2 usage
error (including invalid parameters).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Sequence

from . import metrics as metrics_mod
from . import oracle, spectra, verification
from .exceptions import InvalidParameterError, NumericFailureError, SizeLimitError
from .graphs import generalized_core_satellite
from .io import GRAPH_FORMATS, format_graph
from .params import GeneralizedParams

__all__ = ["main"]

GENERATE_NODE_LIMIT = 10**6
# checked from the parameters before any graph is built; building and
# writing a graph of this many edges peaks at about 0.3 GB
GENERATE_EDGE_LIMIT = 10**6


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _round12(x: float) -> float:
    return float(_fmt(x))


def _parse_satellites(text: str) -> list[tuple[int, int]]:
    """Parse `size:count[,size:count...]`."""
    pairs = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"bad satellite spec {chunk!r}; expected size:count"
            )
        try:
            size, count = int(parts[0]), int(parts[1])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad satellite spec {chunk!r}; expected integers"
            ) from None
        pairs.append((size, count))
    return pairs


def _positive_float(text: str) -> float:
    """A finite float > 0, such as a comparison tolerance."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(chunk) for chunk in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as handle:
            handle.write(text)


def _params_json(params: GeneralizedParams) -> dict:
    return {
        "core": params.core,
        "satellites": [
            {"size": cls.size, "count": cls.count} for cls in params.classes
        ],
        "n": params.n,
        "m": params.m,
    }


def _report_json(rep: metrics_mod.MetricsReport) -> dict:
    return {
        key: _round12(value) if isinstance(value, float) else value
        for key, value in asdict(rep).items()
        if key not in ("n", "m")
    }


def _check_size(params: GeneralizedParams) -> None:
    """Refuse a graph too large to build, from its parameters alone."""
    if params.n > GENERATE_NODE_LIMIT:
        raise InvalidParameterError(
            f"n={params.n} exceeds the limit {GENERATE_NODE_LIMIT}"
        )
    if params.m > GENERATE_EDGE_LIMIT:
        raise InvalidParameterError(
            f"m={params.m} exceeds the limit {GENERATE_EDGE_LIMIT}"
        )


def _cmd_generate(args: argparse.Namespace) -> int:
    params = GeneralizedParams(args.core, args.satellites)
    _check_size(params)
    g = generalized_core_satellite(params)
    _emit(format_graph(g, args.format), args.out)
    summary = f"n={g.n} m={g.m}\n"
    if args.out is None:
        sys.stderr.write(summary)
    else:
        sys.stdout.write(summary)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    params = GeneralizedParams(args.core, args.satellites)
    _check_size(params)
    g = generalized_core_satellite(params)
    direct = metrics_mod.compute_metrics(g)
    payload = _params_json(params)
    payload["direct"] = _report_json(direct)
    closed = metrics_mod.analytic_metrics(params)
    payload["analytic"] = _report_json(closed)
    agreement = direct.gap(closed) <= args.tol
    payload["agreement"] = agreement
    payload["tolerance"] = args.tol
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if not agreement:
        sys.stderr.write("metrics: analytic and direct values disagree\n")
        return 1
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    params = GeneralizedParams(args.core, args.satellites)
    payload = _params_json(params)
    payload["method"] = args.method
    payload["tolerance"] = args.tol

    g = None
    if args.method != "analytic":
        # refused from the parameters, before the graph is built
        oracle.check_dense_size(params.n, args.dense_limit)
        g = generalized_core_satellite(params)
    ok = True
    for name, closed_form, matrix in (
        ("adjacency", spectra.adjacency_spectrum_gcs, oracle.adjacency_matrix),
        ("laplacian", spectra.laplacian_spectrum_gcs, oracle.laplacian_matrix),
    ):
        block: dict = {"analytic": None, "numeric": None, "max_abs_deviation": None}
        if args.method != "numeric":
            analytic = closed_form(params)
            block["analytic"] = [[_round12(value), mult] for value, mult in analytic.eigenpairs]
        if g is not None:
            numeric = oracle.eigenvalues_symmetric(matrix(g, args.dense_limit))
            block["numeric"] = [_round12(float(v)) for v in numeric]
        if args.method == "both":
            deviation = spectra.max_spectrum_deviation(analytic, numeric)
            block["max_abs_deviation"] = _round12(deviation)
            ok = ok and deviation <= args.tol
        payload[name] = block

    indices = spectra.spectral_indices(params)
    payload["spectral_radius"] = _round12(indices.spectral_radius)
    if params.satellite_total >= 2:
        lower, upper = spectra.spectral_radius_bounds(params)
        payload["bounds"] = {"lower": lower, "upper": upper}
    else:
        payload["bounds"] = None
    payload["infection_threshold"] = _round12(indices.infection_threshold)
    payload["sync_index"] = _round12(indices.sync_index)
    payload["algebraic_connectivity"] = _round12(indices.algebraic_connectivity)
    payload["degenerate"] = params.satellite_total == 1

    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if not ok:
        sys.stderr.write("spectrum: analytic and numeric spectra disagree\n")
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # the row with the largest core and p has the most nodes and edges
    largest = GeneralizedParams(
        max(args.cores), [(size, args.pmax) for size in args.sizes]
    )
    _check_size(largest)
    # its bitset rows are the widest too: refuse before the first row
    metrics_mod.check_direct_size(generalized_core_satellite(largest))
    lines = ["c,p,n,m,avg_clustering,transitivity,assortativity"]
    for core in args.cores:
        for p in range(1, args.pmax + 1):
            params = GeneralizedParams(core, [(size, p) for size in args.sizes])
            g = generalized_core_satellite(params)
            rep = metrics_mod.compute_metrics(g)
            r = "" if rep.assortativity is None else _fmt(rep.assortativity)
            lines.append(
                f"{core},{p},{rep.n},{rep.m},"
                f"{_fmt(rep.avg_clustering)},{_fmt(rep.transitivity)},{r}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verification.run_checks(
        tol=args.tol,
        dense_limit=args.dense_limit,
        max_enum_n=args.max_n,
        triangle_sign_fault=args.fault_triangle_sign,
    )
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        detail = f"  {r.detail}" if r.detail else ""
        lines.append(f"{r.name:<{width}}  {status}{detail}")
    ok = all(r.passed for r in results)
    lines.append(f"{'overall':<{width}}  {'pass' if ok else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    # one parent per shared flag, so each subcommand takes only what it reads
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol",
        type=_positive_float,
        default=1e-9,
        help="comparison tolerance (default 1e-9)",
    )
    dense = argparse.ArgumentParser(add_help=False)
    dense.add_argument(
        "--dense-limit",
        type=_positive_int,
        default=oracle.DEFAULT_DENSE_LIMIT,
        help=f"max n for dense numeric work (default {oracle.DEFAULT_DENSE_LIMIT})",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--out", default=None, help="output file (default stdout)")

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--core", type=int, required=True, help="core clique size")
    family.add_argument(
        "--satellites",
        type=_parse_satellites,
        required=True,
        metavar="SIZE:COUNT[,SIZE:COUNT...]",
        help="satellite classes",
    )

    parser = argparse.ArgumentParser(
        prog="coresat",
        description="Core-satellite graphs: generation, metrics, spectra, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser(
        "generate", parents=[out, family], help="write a graph to a file or stdout"
    )
    p_gen.add_argument("--format", choices=sorted(GRAPH_FORMATS), default="edgelist")
    p_gen.set_defaults(func=_cmd_generate)

    p_met = sub.add_parser(
        "metrics", parents=[tol, out, family], help="metrics as JSON, direct and analytic"
    )
    p_met.set_defaults(func=_cmd_metrics)

    p_spec = sub.add_parser(
        "spectrum", parents=[tol, dense, out, family], help="adjacency/Laplacian spectra as JSON"
    )
    p_spec.add_argument(
        "--method", choices=["analytic", "numeric", "both"], default="both"
    )
    p_spec.set_defaults(func=_cmd_spectrum)

    p_sweep = sub.add_parser(
        "sweep", parents=[out], help="CSV of metrics over a replication sweep"
    )
    p_sweep.add_argument("--cores", type=_parse_int_list, default=[3, 5, 10])
    p_sweep.add_argument("--sizes", type=_parse_int_list, default=[3, 5, 7])
    p_sweep.add_argument("--pmax", type=_positive_int, default=100)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ver = sub.add_parser(
        "verify", parents=[tol, dense, out], help="run the self-verification battery"
    )
    p_ver.add_argument(
        "--max-n",
        type=_positive_int,
        default=14,
        help="largest n for exhaustive-enumeration checks (default 14)",
    )
    p_ver.add_argument(
        "--fault-triangle-sign",
        action="store_true",
        help="debug: inject a sign fault into the closed-form triangle count "
        "(negative control; verification must fail)",
    )
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, SizeLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericFailureError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
