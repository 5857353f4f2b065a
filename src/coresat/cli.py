"""Command line interface.

Subcommands: generate, metrics, spectrum, sweep, verify.  All output is
deterministic: identical inputs give byte-identical bytes, floats are
printed with 12 significant digits, and there are no timestamps.

Exit codes: 0 success, 1 verification or comparison failure, 2 usage
error (including invalid parameters).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from itertools import repeat
from typing import Sequence

from . import metrics as metrics_mod, oracle, spectra, verification
from .exceptions import InvalidParameterError, NumericFailureError, SizeLimitError
from .graphs import generalized_core_satellite
from .io import GRAPH_FORMATS, format_graph
from .params import GeneralizedParams

__all__ = ["main"]

GENERATE_NODE_LIMIT = 10**6
# checked from the parameters before any graph is built; building and
# writing a graph of this many edges peaks below 0.2 GB.  `metrics --core 1
# --satellites 1:999999` takes 1.4-1.5 s and 77 MiB, one child process
# with its peak RSS from os.wait4 (2-core Intel Xeon, Python 3.11.7)
GENERATE_EDGE_LIMIT = 10**6
# the summed m over a sweep's rows, checked before the first row is
# built.  A sweep holds one row's graph at a time, so this bounds its
# time, not its memory: `sweep --pmax 231`, whose rows sum to 9,981,510
# edges, takes 3.0-3.5 s and peaks at 19 MiB (2 cores, Python 3.11).
# The default sweep's 300 rows sum to 1,884,400 edges
SWEEP_EDGE_LIMIT = 10**7


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
    agreement = direct == closed
    payload["agreement"] = agreement
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

    numerics = (None, None)
    if args.method != "analytic":
        # at the node limit, `--core 1 --satellites 1:999999` is two
        # classes; with the JSON it takes 3.6-4.4 s and peaks at 305 MiB,
        # measured as for GENERATE_EDGE_LIMIT
        _check_size(params)
        numerics = oracle.twin_reduced_spectra(generalized_core_satellite(params))
    report = spectra.analytic_spectra(params)
    ok = True
    for name, analytic, numeric in (
        ("adjacency", report.adjacency, numerics[0]),
        ("laplacian", report.laplacian, numerics[1]),
    ):
        block: dict = {"analytic": None, "numeric": None, "max_abs_deviation": None}
        if args.method != "numeric":
            block["analytic"] = [[_round12(value), mult] for value, mult in analytic.eigenpairs]
        if numeric is not None:
            # _round12 of each value, with no Python call per value
            block["numeric"] = list(map(float, map(format, numeric.tolist(), repeat(".12g"))))
        if args.method == "both":
            if analytic.size != len(numeric):
                sys.stderr.write(f"spectrum: {analytic.size} {name} eigenvalues for n={params.n}\n")
                return 1
            deviation = spectra.max_spectrum_deviation(analytic, numeric)
            block["max_abs_deviation"] = _round12(deviation)
            ok = ok and deviation <= args.tol
        payload[name] = block

    indices = report.indices
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


def _sweep_edges(cores: Sequence[int], sizes: Sequence[int], pmax: int) -> int:
    """The summed m over the sweep's rows, from the parameters alone.

    For a fixed core, m grows by the same step with each p, so the
    rows p = 1..pmax sum to pmax times the mean of the first and last.
    """
    total = 0
    for core in cores:
        first, last = (GeneralizedParams(core, [(size, p) for size in sizes]) for p in (1, pmax))
        total += pmax * (first.m + last.m) // 2
    return total


def _cmd_sweep(args: argparse.Namespace) -> int:
    # the row with the largest core and p has the most nodes and edges
    _check_size(GeneralizedParams(max(args.cores), [(size, args.pmax) for size in args.sizes]))
    total = _sweep_edges(args.cores, args.sizes, args.pmax)
    if total > SWEEP_EDGE_LIMIT:
        raise InvalidParameterError(
            f"the sweep's rows sum to m={total}, over the limit {SWEEP_EDGE_LIMIT}"
        )
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by every later call.

    ``parse_args`` keeps no state between calls, and each call returns a
    fresh namespace, so reusing the tree is safe; the ``func`` defaults
    are the command functions, which read this module's globals when
    they run.
    """
    # one parent per shared flag, so each subcommand takes only what it reads
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol",
        type=_positive_float,
        default=1e-9,
        help="comparison tolerance (default 1e-9)",
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
        "metrics", parents=[out, family], help="metrics as JSON, direct and analytic"
    )
    p_met.set_defaults(func=_cmd_metrics)

    p_spec = sub.add_parser(
        "spectrum", parents=[tol, out, family], help="adjacency/Laplacian spectra as JSON"
    )
    p_spec.add_argument(
        "--method", choices=["analytic", "numeric", "both"], default="both"
    )
    p_spec.set_defaults(func=_cmd_spectrum)

    p_sweep = sub.add_parser(
        "sweep", parents=[out], help="CSV of metrics over a replication sweep"
    )
    p_sweep.add_argument("--cores", type=_parse_int_list, default=(3, 5, 10))
    p_sweep.add_argument("--sizes", type=_parse_int_list, default=(3, 5, 7))
    p_sweep.add_argument("--pmax", type=_positive_int, default=100)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ver = sub.add_parser(
        "verify", parents=[tol, out], help="run the self-verification battery"
    )
    p_ver.add_argument(
        "--dense-limit",
        type=_positive_int,
        default=oracle.DEFAULT_DENSE_LIMIT,
        help="largest n for dense numeric eigensolves "
        f"(default {oracle.DEFAULT_DENSE_LIMIT})",
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
    args = _build_parser().parse_args(argv)
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
