"""Acceptance gate: one test per release criterion, one verdict line each.

Verdict lines are collected in ``conftest.ACCEPTANCE_LINES`` and printed
in the terminal summary after the run.  Every criterion passes; a red
line is a regression.  The two average-clustering clauses assert the
shape the family really has: average clustering is not monotone in the
replication count but falls to a single minimum and rises toward 1 after
it (``_clustering_deficit`` gives the exact form), and both tests pin
that minimum and its values.
"""
from __future__ import annotations

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, GRID_PARAMS
from coresat import (
    GeneralizedParams,
    adjacency_matrix,
    adjacency_spectrum_gcs,
    analytic_metrics,
    complete_graph,
    compute_metrics,
    eigenvalues_symmetric,
    generalized_core_satellite,
    laplacian_matrix,
    laplacian_spectrum_gcs,
    max_spectrum_deviation,
    principal_eigenvector,
    sample_generalized_params,
    spectral_indices,
    spectral_radius,
    spectral_radius_bounds,
)
from coresat.cli import main
from coresat.metrics import _average_clustering_fraction

BUTTERFLY = GeneralizedParams(1, [(2, 2)])
SWEEP_SIZES = (3, 5, 7)


def record(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {tag}: {status}{suffix}")


def _clustering_deficit(core: int, classes: list[tuple[int, int]]) -> Fraction:
    """1 - average clustering, derived independently of ``coresat.metrics``.

    ``classes`` holds (size, count) pairs.  Every satellite node's
    neighbourhood is a clique, so only the ``core`` core nodes fall short
    of clustering 1.  A core node has degree n-1 with n = core + S, and
    its non-adjacent neighbour pairs are the pairs of satellite nodes in
    different cliques, (S^2 - Q)/2 of them, where S = sum(count*size) and
    Q = sum(count*size^2).  Hence
    1 - C = core*(S^2 - Q) / (n*(n-1)*(n-2)); for one class of eta
    cliques of size s, S^2 - Q = s^2*eta*(eta-1).  Valid when every
    satellite node has degree >= 2 (core + size >= 3).
    """
    total = sum(size * count for size, count in classes)
    squares = sum(size * size * count for size, count in classes)
    n = core + total
    return Fraction(core * (total * total - squares), n * (n - 1) * (n - 2))


def _valley(values: list, *, strict: bool) -> int | None:
    """Index of the minimum if ``values`` falls to it and rises after it.

    Returns None for any other shape, such as a second local minimum.
    With ``strict`` every step must be strict; otherwise equal neighbours
    are allowed (a two-point plateau at the minimum).
    """
    k = values.index(min(values))
    steps = list(zip(values, values[1:]))
    if strict:
        falls = all(a > b for a, b in steps[:k])
        rises = all(a < b for a, b in steps[k:])
    else:
        falls = all(a >= b for a, b in steps[:k])
        rises = all(a <= b for a, b in steps[k:])
    return k if falls and rises else None


def test_c1_butterfly_golden():
    start = time.perf_counter()
    direct = compute_metrics(generalized_core_satellite(BUTTERFLY))
    closed = analytic_metrics(BUTTERFLY)
    ok = True
    for rep in (direct, closed):
        ok &= abs(rep.avg_clustering - 13 / 15) <= 1e-12
        ok &= abs(rep.transitivity - 3 / 5) <= 1e-12
        ok &= abs(rep.assortativity - (-0.5)) <= 1e-12

    adjacency = adjacency_spectrum_gcs(BUTTERFLY)
    root = math.sqrt(17.0)
    expected = [((1 + root) / 2, 1), (1.0, 1), (-1.0, 2), ((1 - root) / 2, 1)]
    ok &= len(adjacency.eigenpairs) == 4
    for (got_v, got_m), (want_v, want_m) in zip(adjacency.eigenpairs, expected):
        ok &= abs(got_v - want_v) <= 1e-12 and got_m == want_m
    g = generalized_core_satellite(BUTTERFLY)
    adev = max_spectrum_deviation(
        adjacency, eigenvalues_symmetric(adjacency_matrix(g))
    )
    laplacian = laplacian_spectrum_gcs(BUTTERFLY)
    ok &= laplacian.expanded() == [5.0, 3.0, 3.0, 1.0, 0.0]
    ldev = max_spectrum_deviation(
        laplacian, eigenvalues_symmetric(laplacian_matrix(g))
    )
    ok &= adev <= 1e-9 and ldev <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    record(
        "C1 butterfly-golden",
        ok,
        f"spectra deviations {adev:.1e}/{ldev:.1e}, {elapsed:.2f}s",
    )
    assert ok


def test_c2_clustering_closed_forms_grid():
    start = time.perf_counter()
    equal = sum(
        compute_metrics(generalized_core_satellite(p)) == analytic_metrics(p)
        for p in GRID_PARAMS
    )
    ok = equal == len(GRID_PARAMS)

    # erratum check: the uncorrected closed form (squaring the count
    # instead of count*(count-1)) yields 11/15 on the butterfly while
    # direct computation and the corrected form give 13/15
    naive = 1 - Fraction(1 * 2 * 2 * 2 * 2, 5 * 4 * 3)
    direct_value = Fraction(13, 15)
    ok &= naive == Fraction(11, 15)
    butterfly_avg = compute_metrics(generalized_core_satellite(BUTTERFLY)).avg_clustering
    ok &= butterfly_avg == float(direct_value)
    ok &= naive != direct_value
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    record(
        "C2 clustering-closed-forms",
        ok,
        f"{equal} of {len(GRID_PARAMS)} graphs give equal reports, {elapsed:.2f}s",
    )
    assert ok


def test_c3_divergence_endpoints():
    start = time.perf_counter()
    rep = analytic_metrics(GeneralizedParams(2, [(3, 1000)]))
    ok = rep.avg_clustering > 0.999 and rep.transitivity < 0.01
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    record(
        "C3 divergence-endpoints",
        ok,
        f"avg {rep.avg_clustering:.6f}, transitivity {rep.transitivity:.6f}",
    )
    assert ok


def test_c3_transitivity_monotone():
    start = time.perf_counter()
    ok = True
    prev = None
    for eta in range(2, 1001):
        value = analytic_metrics(GeneralizedParams(2, [(3, eta)])).transitivity
        if prev is not None:
            ok &= value < prev
        prev = value
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    record("C3 transitivity-monotone", ok, f"eta 2..1000, {elapsed:.2f}s")
    assert ok


def test_c3_avg_clustering_monotone():
    # not monotone: for c=2, s=3 the average clustering falls strictly to
    # 49/55 at eta=3 and rises strictly toward 1 after it; checked in
    # exact rationals against the independent derivation
    etas = range(2, 1001)
    exact = [
        _average_clustering_fraction(GeneralizedParams(2, [(3, eta)])) for eta in etas
    ]
    formula = [1 - _clustering_deficit(2, [(3, eta)]) for eta in etas]
    k = _valley(exact, strict=True)
    eta_star = None if k is None else etas[k]
    ok = eta_star == 3 and k == formula.index(min(formula))
    ok &= exact == formula
    ok &= exact[:3] == [Fraction(25, 28), Fraction(49, 55), Fraction(82, 91)]
    ok &= exact[-1] > Fraction(999, 1000)
    direct = [
        compute_metrics(
            generalized_core_satellite(GeneralizedParams(2, [(3, eta)]))
        ).avg_clustering
        for eta in (2, 3, 4)
    ]
    agrees = direct == [float(x) for x in exact[:3]]
    ok &= agrees
    detail = (
        f"eta 2..1000 falls to minimum at eta {eta_star}, then rises to "
        f"{float(exact[-1]):.6f}; direct computation {'equals' if agrees else 'differs from'} "
        "it at eta 2..4"
    )
    record("C3 avg-clustering-monotone", ok, detail)
    assert ok, detail


def test_c4_disassortativity():
    start = time.perf_counter()
    ok = True
    for p in GRID_PARAMS:
        rep = compute_metrics(generalized_core_satellite(p))
        r = rep.assortativity
        ok &= r is not None and r < 0
        ok &= rep.assortativity_estrada == r
    # both routes agree on undefinedness for regular graphs
    k5 = compute_metrics(complete_graph(5))
    ok &= k5.assortativity is None and k5.assortativity_estrada is None
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    record(
        "C4 disassortativity",
        ok,
        f"r < 0 on {len(GRID_PARAMS)} graphs, both routes equal, {elapsed:.2f}s",
    )
    assert ok


def test_c5_adjacency_spectra_grid():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for p in GRID_PARAMS:
        c, s, eta = p.core, p.classes[0].size, p.classes[0].count
        result = adjacency_spectrum_gcs(p)
        numeric = eigenvalues_symmetric(adjacency_matrix(generalized_core_satellite(p)))
        dev = max_spectrum_deviation(result, numeric)
        worst = max(worst, dev)
        ok &= dev <= 1e-9
        ok &= result.size == p.n
        values = result.expanded()
        ok &= values[0] > c + s - 1
        ok &= values[-1] < -1

        # power-sum identities in exact integer arithmetic
        rep = analytic_metrics(p)
        a = c + s - 2
        d = (c - s) ** 2 + 4 * eta * c * s
        ok &= (a * a + d) % 2 == 0 and (a * a - d) % 4 == 0
        sum_sq_extreme = (a * a + d) // 2
        prod_extreme = (a * a - d) // 4
        minus_mult = c + eta * (s - 1) - 1
        ok &= a + (s - 1) * (eta - 1) - minus_mult == 0
        ok &= sum_sq_extreme + (s - 1) ** 2 * (eta - 1) + minus_mult == 2 * rep.m
        sum_cu_extreme = a**3 - 3 * prod_extreme * a
        ok &= (
            sum_cu_extreme + (s - 1) ** 3 * (eta - 1) - minus_mult
            == 6 * rep.triangles
        )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    record(
        "C5 adjacency-spectra",
        ok,
        f"max deviation {worst:.1e}, exact trace identities, {elapsed:.2f}s",
    )
    assert ok


def test_c6_generalized_spectra():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    samples = sample_generalized_params()
    for p in samples:
        result = adjacency_spectrum_gcs(p)
        g = generalized_core_satellite(p)
        numeric = eigenvalues_symmetric(adjacency_matrix(g))
        dev = max_spectrum_deviation(result, numeric)
        worst = max(worst, dev)
        ok &= dev <= 1e-9
        rho = spectral_radius(p)
        lower, upper = spectral_radius_bounds(p)
        ok &= lower < rho < upper
        expected_distinct = p.class_count + 2 + sum(
            1 for cls in p.classes if cls.count > 1
        )
        ok &= len(result.eigenpairs) == expected_distinct
        pev = principal_eigenvector(p)
        ok &= all(0.0 < beta < 1.0 for beta in pev.class_values)
        vec = np.array(pev.to_vector(p))
        residual = float(np.max(np.abs(adjacency_matrix(g) @ vec - rho * vec)))
        ok &= residual <= 1e-8 * rho
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    record(
        "C6 generalized-spectra",
        ok,
        f"{len(samples)} parameter sets, max deviation {worst:.1e}, {elapsed:.2f}s",
    )
    assert ok


def test_c7_laplacian_spectra():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    cases = GRID_PARAMS + sample_generalized_params()
    for p in cases:
        result = laplacian_spectrum_gcs(p)
        ok &= all(v == int(v) for v, _ in result.eigenpairs)
        numeric = eigenvalues_symmetric(
            laplacian_matrix(generalized_core_satellite(p))
        )
        dev = max_spectrum_deviation(result, numeric)
        worst = max(worst, dev)
        ok &= dev <= 1e-9
        values = [v for v, _ in result.eigenpairs]
        ok &= values[-1] == 0.0 and values[-2] == float(p.core)
        ok &= Fraction(int(values[-2]), int(values[0])) == Fraction(p.core, p.n)
        ok &= spectral_indices(p).algebraic_connectivity == float(p.core)
    # distinct-value counts on the single-class family: four once the
    # satellites have at least one internal edge, three for lone nodes
    # (the clique eigenvalue c+s then has multiplicity zero)
    for p in GRID_PARAMS:
        count = len(laplacian_spectrum_gcs(p).eigenpairs)
        ok &= count == (4 if p.classes[0].size >= 2 else 3)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    record(
        "C7 laplacian-spectra",
        ok,
        f"{len(cases)} parameter sets, max deviation {worst:.1e}, {elapsed:.2f}s",
    )
    assert ok


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    target = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    start = time.perf_counter()
    code = main(
        [
            "sweep",
            "--cores",
            "3,5,10",
            "--sizes",
            ",".join(map(str, SWEEP_SIZES)),
            "--pmax",
            "100",
            "-o",
            str(target),
        ]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    data = target.read_bytes()
    rows = data.decode("ascii").splitlines()
    return rows, elapsed, hashlib.sha256(data).hexdigest()


def _parse_sweep(rows: list[str]) -> dict[int, list[tuple[int, float, float, float]]]:
    series: dict[int, list[tuple[int, float, float, float]]] = {}
    for line in rows[1:]:
        fields = line.split(",")
        core, p = int(fields[0]), int(fields[1])
        series.setdefault(core, []).append(
            (p, float(fields[4]), float(fields[5]), float(fields[6]))
        )
    for seq in series.values():
        seq.sort()
    return series


def test_c8_sweep_shape_and_trends(sweep_csv):
    rows, elapsed, _ = sweep_csv
    ok = rows[0] == "c,p,n,m,avg_clustering,transitivity,assortativity"
    ok &= len(rows) == 301
    series = _parse_sweep(rows)
    ok &= sorted(series) == [3, 5, 10]
    final_avg_c3 = series[3][-1][1]
    ok &= final_avg_c3 > 0.99
    for seq in series.values():
        ok &= all(b[2] <= a[2] for a, b in zip(seq, seq[1:]))  # transitivity
        ok &= seq[-1][2] < 0.05
        ok &= all(x[3] < 0 for x in seq)  # assortativity negative
        ok &= all(b[3] <= a[3] for a, b in zip(seq[1:], seq[2:]))  # nonincreasing p>=2
    ok &= elapsed < 120.0
    record(
        "C8 sweep-trends",
        ok,
        f"300 rows, avg(c=3,p=100)={final_avg_c3:.4f}, {elapsed:.1f}s",
    )
    assert ok


def test_c8_avg_clustering_nondecreasing(sweep_csv):
    # not nondecreasing in p: per core the measured average clustering
    # falls to one minimum and rises after it; the wide c=10 core dips
    # from p=1 to p=2.  The CSV prints 12 significant digits.
    rows, _, _ = sweep_csv
    series = _parse_sweep(rows)
    ok = True
    minima = {}
    worst = 0.0
    for core, seq in sorted(series.items()):
        ps = [row[0] for row in seq]
        measured = [row[1] for row in seq]
        formula = [
            1 - _clustering_deficit(core, [(size, p) for size in SWEEP_SIZES])
            for p in ps
        ]
        k = _valley(measured, strict=False)
        ok &= k is not None and k == formula.index(min(formula))
        minima[core] = None if k is None else ps[k]
        gap = max(abs(m - float(f)) for m, f in zip(measured, formula))
        worst = max(worst, gap)
        ok &= gap <= 1e-11
    ok &= minima == {3: 1, 5: 1, 10: 2}
    detail = (
        "minimum at "
        + ", ".join(f"c={core}: p={p}" for core, p in minima.items())
        + f", nondecreasing after; formula gap {worst:.1e}"
    )
    record("C8 avg-clustering-nondecreasing", ok, detail)
    assert ok, detail


# sha256 of the default sweep's CSV, unchanged since the first release
SWEEP_SHA256 = "aa1712916bb007f5435ccee6527054f9109d36198d0a9f8e04f4a3de923b5743"


def test_c8_sweep_bytes_unchanged(sweep_csv):
    _, _, digest = sweep_csv
    ok = digest == SWEEP_SHA256
    record("C8 sweep-bytes", ok, f"sha256 {digest[:8]}")
    assert ok, digest


def test_c9_negative_control(capsys):
    default_code = main(["verify", "--max-n", "10"])
    fault_code = main(
        ["verify", "--max-n", "8", "--fault-triangle-sign"]
    )
    out = capsys.readouterr().out
    ok = default_code == 0 and fault_code == 1
    ok &= any(
        line.startswith("clustering-closed-forms") and "FAIL" in line
        for line in out.splitlines()
    )
    record(
        "C9 negative-control",
        ok,
        f"default exit {default_code}, injected-fault exit {fault_code}",
    )
    assert ok
