"""The four benchmark workloads: inputs from a seed, operations, checks.

Each workload function takes the imported coresat modules and a seed and returns
(ops, warm_up).  An ``Op`` runs one operation through the program and
checks its output against ``reference`` or against a property the
method must have; a check returns None or a message.  Nothing is
compared with a saved copy of earlier output.

The seed fixes everything the program receives.  On sweep, verify and
inspect it only orders a fixed list (and draws verify's tolerances,
which change no work), so every seed gives the same work:

* sweep    -- the 300 rows of the default sweep; the seed sets their order.
* verify   -- nine ``coresat verify`` calls; the seed sets the tolerances
              and the order.
* inspect  -- five fixed graphs, five requests each; the seed sets the
              order of the requests.
* analytic -- 1800 parameter sets, a fixed number per class count
              1..6; the seed draws sizes, counts and n.  Two fixed sets at core
              10**12 are kept as a named group that fails every run.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from reference import Family, close, exact_power_sums, power_sum_tolerance

MODULES = ("params", "graphs", "metrics", "spectra", "oracle", "verification", "io", "cli")

# the named group of analytic parameter sets that fail on every run:
# spectral_radius returns exactly n-1 there, so the strict enclosure
# lower < rho < upper does not hold
KNOWN_FAILING = (
    (10**12, ((1, 2),)),
    (10**12, ((1, 2), (2, 1))),
)


@dataclass
class Op:
    """One operation: ``fn`` calls the program, ``check`` judges its output."""

    kind: str
    label: str
    fn: Callable[[], object]
    check: Callable[[object], str | None]
    known_failure: bool = False


def load_program() -> dict:
    """Import coresat afresh and return its modules by short name."""
    for name in [m for m in sys.modules if m == "coresat" or m.startswith("coresat.")]:
        del sys.modules[name]
    importlib.import_module("coresat")
    return {name: importlib.import_module(f"coresat.{name}") for name in MODULES}


def call_cli(mods: dict, argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``coresat`` call: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods["cli"].main(argv)
    return code, out.getvalue(), err.getvalue()


def _spec(classes) -> str:
    return ",".join(f"{size}:{count}" for size, count in classes)


# ---------------------------------------------------------------------------
# checks shared by workloads
# ---------------------------------------------------------------------------

_COUNT_FIELDS = ("triangles", "p2", "p3", "s13")
_RATIO_FIELDS = ("avg_clustering", "transitivity", "assortativity", "assortativity_estrada")


def report_errors(get: Callable[[str], object], fam: Family, tol: float = 1e-12) -> str | None:
    """Counts equal to the reference exactly, ratios within ``tol``."""
    counts = fam.counts()
    if get("p1") != counts["m"]:
        return f"p1 {get('p1')} != m {counts['m']}"
    for field in _COUNT_FIELDS:
        if get(field) != counts[field]:
            return f"{field} {get(field)} != {counts[field]}"
    r = fam.assortativity()
    exact = {
        "avg_clustering": fam.avg_clustering(),
        "transitivity": fam.transitivity(),
        "assortativity": r,
        "assortativity_estrada": r,
    }
    for field in _RATIO_FIELDS:
        if not close(get(field), exact[field], tol):
            return f"{field} {get(field)} != {exact[field] if exact[field] is None else float(exact[field])}"
    return None


def _power_sum_errors(what: str, values_pow, expected, rho: float, terms: int) -> str | None:
    for k, (got, want) in enumerate(zip(values_pow, expected), start=1):
        if abs(got - want) > power_sum_tolerance(k, rho, terms):
            return f"{what}: sum of lambda^{k} is {float(got)!r}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_CORES = (3, 5, 10)
SWEEP_SIZES = (3, 5, 7)
SWEEP_PMAX = 100


def _sweep_op(mods: dict, core: int, p: int) -> Op:
    classes = tuple((size, p) for size in SWEEP_SIZES)
    fam = Family.of(core, classes)

    def fn():
        params = mods["params"].GeneralizedParams(core, classes)
        return mods["metrics"].compute_metrics(mods["graphs"].generalized_core_satellite(params))

    def check(rep) -> str | None:
        if (rep.n, rep.m) != (fam.n, fam.m):
            return f"n, m = {rep.n}, {rep.m}; expected {fam.n}, {fam.m}"
        return report_errors(lambda f: getattr(rep, f), fam)

    return Op("row", f"sweep c={core} p={p}", fn, check)


def sweep(mods: dict, seed: int) -> tuple[list[Op], Op]:
    """One op is one row of the default sweep: build the graph, measure it."""
    ops = [_sweep_op(mods, c, p) for c in SWEEP_CORES for p in range(1, SWEEP_PMAX + 1)]
    random.Random(f"sweep:{seed}").shuffle(ops)
    return ops, _sweep_op(mods, 3, 1)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_CHECK_LINE = re.compile(r"^(\S+)\s+(pass|FAIL)(?:\s+(.*))?$")
NEGATIVE_CONTROL_CHECK = "clustering-closed-forms"


def _verify_errors(result, tol: float, negative_control: bool) -> str | None:
    code, out, _ = result
    lines = out.splitlines()
    if not lines:
        return "no output"
    rows = []
    for line in lines:
        match = _CHECK_LINE.match(line)
        if not match:
            return f"unparsed line {line!r}"
        rows.append(match.groups())
    *checks, overall = rows
    if overall[0] != "overall" or not checks:
        return "no overall line or no checks"
    statuses = {name: status for name, status, _ in checks}
    if negative_control:
        if code != 1 or overall[1] != "FAIL":
            return f"negative control exited {code} with overall {overall[1]}"
        if statuses.get(NEGATIVE_CONTROL_CHECK) != "FAIL":
            return f"negative control not caught by {NEGATIVE_CONTROL_CHECK}"
        others = [name for name, status in statuses.items()
                  if status != "pass" and name != NEGATIVE_CONTROL_CHECK]
        if others:
            return f"negative control also failed {others}"
    else:
        if code != 0 or overall[1] != "pass":
            return f"exited {code} with overall {overall[1]}"
        failed = [name for name, status in statuses.items() if status != "pass"]
        if failed:
            return f"checks failed: {failed}"
    for name, status, detail in checks:
        if status != "pass" or not detail:
            continue
        enumerated = re.search(r"(\d+) graphs enumerated", detail)
        if enumerated and int(enumerated.group(1)) < 1:
            return f"{name} passed on zero graphs"
        deviation = re.search(r"max (?:deviation|gap) (\S+)", detail)
        if deviation and not float(deviation.group(1)) <= tol:
            return f"{name} reports deviation {deviation.group(1)} above tol {tol}"
    return None


def _verify_op(mods: dict, kind: str, args: list[str]) -> Op:
    argv = ["verify", *args]
    tol = float(args[args.index("--tol") + 1]) if "--tol" in args else 1e-9
    negative = "--fault-triangle-sign" in args
    return Op(
        kind,
        "coresat " + " ".join(argv),
        lambda: call_cli(mods, argv),
        lambda result: _verify_errors(result, tol, negative),
    )


def verify(mods: dict, seed: int) -> tuple[list[Op], Op]:
    """One op is one in-process ``coresat verify`` call."""
    rng = random.Random(f"verify:{seed}")

    def tol() -> str:
        return format(10 ** rng.uniform(-10, -8), ".3g")

    variants = [
        ("default", []),
        ("negative-control", ["--fault-triangle-sign"]),
        ("negative-control", ["--fault-triangle-sign", "--tol", tol()]),
        ("tol", ["--tol", tol()]),
        ("max-n-10", ["--max-n", "10"]),
        ("max-n-12", ["--max-n", "12"]),
        ("max-n-13", ["--max-n", "13", "--tol", tol()]),
        ("dense-25", ["--dense-limit", "25"]),
        ("dense-35", ["--dense-limit", "35", "--tol", tol()]),
    ]
    ops = [_verify_op(mods, kind, args) for kind, args in variants]
    rng.shuffle(ops)
    return ops, _verify_op(mods, "warm-up", ["--max-n", "8", "--dense-limit", "8"])


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

# (core, classes): one class and several, n from 50 to the sweep's largest 1510
INSPECT_SLOTS = (
    (5, ((5, 9),)),
    (6, ((2, 12), (4, 10), (6, 8))),
    (8, ((2, 20), (4, 30), (6, 25))),
    (20, ((6, 130),)),
    (10, ((3, 100), (5, 100), (7, 100))),
)


def parse_graph(fmt: str, text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges as 0-based pairs u < v) from generate's output."""
    lines = text.splitlines()
    if fmt == "edgelist":
        header = re.fullmatch(r"# n=(\d+) m=(\d+)", lines[0])
        n, m = int(header.group(1)), int(header.group(2))
        edges = [tuple(map(int, line.split())) for line in lines[1:]]
    elif fmt == "mtx":
        if lines[0] != "%%MatrixMarket matrix coordinate pattern symmetric":
            raise ValueError("bad Matrix Market banner")
        rows, cols, m = map(int, lines[1].split())
        if rows != cols:
            raise ValueError("matrix not square")
        n = rows
        edges = []
        for line in lines[2:]:
            r, c = map(int, line.split())
            if not r > c:
                raise ValueError(f"entry {r} {c} not strictly lower")
            edges.append((c - 1, r - 1))
    elif fmt == "dot":
        if lines[0] != "graph {" or lines[-1] != "}":
            raise ValueError("bad dot frame")
        nodes, edges = set(), []
        for line in lines[1:-1]:
            edge = re.fullmatch(r"  (\d+) -- (\d+);", line)
            if edge:
                edges.append((int(edge.group(1)), int(edge.group(2))))
                continue
            node = re.fullmatch(r"  (\d+);", line)
            if not node:
                raise ValueError(f"bad dot line {line!r}")
            nodes.add(int(node.group(1)))
        n = max([v for e in edges for v in e] + list(nodes), default=-1) + 1
        m = len(edges)
    else:
        raise ValueError(fmt)
    if len(edges) != m:
        raise ValueError(f"header says m={m}, {len(edges)} edges listed")
    return n, edges


def _graph_errors(fmt: str, result, fam: Family) -> str | None:
    code, out, err = result
    if code != 0:
        return f"exit {code}: {err.strip()}"
    if err != f"n={fam.n} m={fam.m}\n":
        return f"summary {err!r}"
    try:
        n, edges = parse_graph(fmt, out)
    except (ValueError, AttributeError, IndexError) as exc:
        return f"unparsable {fmt}: {exc}"
    if n != fam.n or len(edges) != fam.m:
        return f"n, m = {n}, {len(edges)}; expected {fam.n}, {fam.m}"
    if len(set(edges)) != len(edges):
        return "duplicate edges"
    degree = Counter()
    for u, v in edges:
        if not 0 <= u < v < n:
            return f"bad edge ({u}, {v})"
        degree[u] += 1
        degree[v] += 1
    multiset = Counter(degree[u] for u in range(n))
    if multiset != fam.degree_counts():
        return f"degree multiset {dict(multiset)} != {dict(fam.degree_counts())}"
    return None


def _metrics_json_errors(result, fam: Family) -> str | None:
    code, out, err = result
    if code != 0:
        return f"exit {code}: {err.strip()}"
    payload = json.loads(out)
    if (payload["n"], payload["m"]) != (fam.n, fam.m):
        return f"n, m = {payload['n']}, {payload['m']}"
    if payload["agreement"] is not True:
        return "agreement is not true"
    # JSON prints 12 significant digits: ratios are within 5e-13 of exact
    for block in ("direct", "analytic"):
        if payload[block] is None:
            continue
        problem = report_errors(payload[block].get, fam, tol=1e-12)
        if problem:
            return f"{block}: {problem}"
    return None


def _spectrum_json_errors(result, fam: Family) -> str | None:
    code, out, err = result
    if code != 0:
        return f"exit {code}: {err.strip()}"
    payload = json.loads(out)
    n, tol = fam.n, payload["tolerance"]
    rho = payload["spectral_radius"]
    for matrix in ("adjacency", "laplacian"):
        block = payload[matrix]
        if sum(mult for _, mult in block["analytic"]) != n:
            return f"{matrix}: analytic multiplicities do not sum to n"
        if len(block["numeric"]) != n:
            return f"{matrix}: {len(block['numeric'])} numeric values for n={n}"
        if not block["max_abs_deviation"] <= tol:
            return f"{matrix}: deviation {block['max_abs_deviation']} above tol {tol}"
    adjacency = payload["adjacency"]["numeric"]
    sums = [math.fsum(x**k for x in adjacency) for k in (1, 2, 3)]
    problem = _power_sum_errors("adjacency", sums, fam.adjacency_power_sums(), rho, n)
    if problem:
        return problem
    laplacian = payload["laplacian"]["numeric"]
    sums = [math.fsum(x**k for x in laplacian) for k in (1, 2)]
    problem = _power_sum_errors("laplacian", sums, fam.laplacian_power_sums(), n, n)
    if problem:
        return problem
    if abs(rho - max(adjacency)) > 1e-9 * rho:
        return f"spectral radius {rho} vs largest eigenvalue {max(adjacency)}"
    bounds = payload["bounds"]
    if bounds is not None and not bounds["lower"] < rho < bounds["upper"]:
        return f"rho {rho} not strictly inside ({bounds['lower']}, {bounds['upper']})"
    if payload["algebraic_connectivity"] != fam.core:
        return "algebraic connectivity != core"
    if abs(payload["sync_index"] - fam.core / n) > 1e-12:
        return "sync index != core / n"
    return None


def inspect(mods: dict, seed: int) -> tuple[list[Op], Op]:
    """One op is one single-graph CLI request on one of five graphs."""
    ops = [op for core, classes in INSPECT_SLOTS for op in _inspect_ops(mods, core, classes)]
    random.Random(f"inspect:{seed}").shuffle(ops)
    warm = _inspect_ops(mods, 2, ((1, 1), (2, 1)))[-1]
    return ops, warm


def _inspect_ops(mods: dict, core: int, classes) -> list[Op]:
    fam = Family.of(core, classes)
    family = ["--core", str(core), "--satellites", _spec(classes)]
    ops = []

    def add(kind, argv, check):
        ops.append(Op(kind, f"coresat {' '.join(argv)}", lambda: call_cli(mods, argv), check))

    for fmt in ("edgelist", "mtx", "dot"):
        add(f"generate-{fmt}", ["generate", *family, "--format", fmt],
            lambda r, fmt=fmt: _graph_errors(fmt, r, fam))
    add("metrics", ["metrics", *family], lambda r: _metrics_json_errors(r, fam))
    add("spectrum", ["spectrum", *family, "--method", "both"],
        lambda r: _spectrum_json_errors(r, fam))
    return ops


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

ANALYTIC_MAX_SIZE = 12

# parameter sets per class count 1..6.  Cost rises with the class count,
# and 1 + 2 classes weigh as much as 4 + 5 + 6, so the median operation
# falls in the middle of the three-class sets, not on a step between
# two class counts.
ANALYTIC_SETS = {1: 300, 2: 300, 3: 600, 4: 200, 5: 200, 6: 200}


def analytic_classes(rng: random.Random, t: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """A core and t classes with n drawn log-uniformly from about 20 to 10**9.

    The core holds 2-50% of the nodes, so satellites are never a
    vanishing share of the graph; there are always two satellites or
    more, so the radius bounds are defined.
    """
    target = 10 ** rng.uniform(1.3, 9.0)
    core = max(1, round(target * rng.uniform(0.02, 0.5)))
    sizes = sorted(rng.sample(range(1, ANALYTIC_MAX_SIZE + 1), t))
    weights = [rng.random() + 0.1 for _ in sizes]
    share = max(target - core, 2) / sum(weights)
    counts = [max(1, round(w * share / s)) for w, s in zip(weights, sizes)]
    if sum(counts) < 2:
        counts[0] = 2
    return core, tuple(zip(sizes, counts))


def _analytic_errors(result, fam: Family) -> str | None:
    adj, lap, idx, bounds, pev, closed = result
    n, c = fam.n, fam.core
    rho = idx.spectral_radius
    if adj.size != n or lap.size != n:
        return f"multiplicities sum to {adj.size} / {lap.size}, not n={n}"
    if abs(rho - adj.eigenpairs[0][0]) > 1e-9 * rho:
        return f"spectral radius {rho} != largest eigenvalue {adj.eigenpairs[0][0]}"
    sums = exact_power_sums(adj.eigenpairs)
    problem = _power_sum_errors("adjacency", sums, fam.adjacency_power_sums(), rho, len(adj.eigenpairs))
    if problem:
        return problem
    if any(not float(v).is_integer() for v, _ in lap.eigenpairs):
        return "non-integer Laplacian eigenvalue"
    if exact_power_sums(lap.eigenpairs, (1, 2)) != list(fam.laplacian_power_sums()):
        return "Laplacian trace identities fail"
    lower, upper = bounds
    if lower < c - 1 + fam.max_size or upper > n - 1:
        return f"bounds ({lower}, {upper}) looser than (c-1+max s, n-1)"
    if not lower < rho < upper:
        return f"rho {rho!r} not strictly inside ({lower}, {upper})"
    if abs(rho * idx.infection_threshold - 1.0) > 1e-15:
        return "rho * threshold != 1"
    if idx.sync_index != c / n or idx.algebraic_connectivity != c:
        return "sync index or algebraic connectivity wrong"
    if pev.eigenvalue != rho or pev.core_value != 1.0:
        return "principal eigenvector not at rho or not core-normalised"
    if not all(0.0 < beta < 1.0 for beta in pev.class_values):
        return "principal eigenvector class entry outside (0, 1)"
    row = (c - 1) + math.fsum(s * eta * beta for (s, eta), beta in zip(fam.classes, pev.class_values))
    if abs(row - rho) > 1e-9 * rho:
        return f"principal eigenvector core row residual {row - rho!r}"
    if closed is not None:
        if (closed.n, closed.m) != (n, fam.m):
            return "closed-form n, m wrong"
        return report_errors(lambda f: getattr(closed, f), fam)
    return None


def _analytic_op(mods: dict, core: int, classes, known_failure: bool = False) -> Op:
    params = mods["params"].GeneralizedParams(core, classes)
    fam = Family.of(core, classes)
    single = params.to_core_satellite() if len(fam.classes) == 1 else None

    def fn():
        spectra = mods["spectra"]
        return (
            spectra.adjacency_spectrum_gcs(params),
            spectra.laplacian_spectrum_gcs(params),
            spectra.spectral_indices(params),
            spectra.spectral_radius_bounds(params),
            spectra.principal_eigenvector(params),
            None if single is None else mods["metrics"].analytic_metrics(single),
        )

    kind = f"classes-{len(fam.classes)}" + ("-core-1e12" if known_failure else "")
    return Op(kind, f"core={core} classes={classes}", fn,
              lambda result: _analytic_errors(result, fam), known_failure)


def analytic(mods: dict, seed: int) -> tuple[list[Op], Op]:
    """One op is one parameter set through the closed-form spectra (and metrics)."""
    rng = random.Random(f"analytic:{seed}")
    ops = []
    for t, count in ANALYTIC_SETS.items():
        for _ in range(count):
            ops.append(_analytic_op(mods, *analytic_classes(rng, t)))
    ops.extend(_analytic_op(mods, core, classes, True) for core, classes in KNOWN_FAILING)
    rng.shuffle(ops)
    return ops, _analytic_op(mods, 3, ((2, 2), (4, 1)))


WORKLOADS = {"sweep": sweep, "verify": verify, "inspect": inspect, "analytic": analytic}
