from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import GRID_PARAMS
from coresat import (
    GeneralizedParams,
    InvalidParameterError,
    analytic_metrics,
    analytic_spectra,
    generalized_core_satellite,
    spectral_radius_bounds,
)
from coresat.oracle import (
    adjacency_matrix,
    eigenvalues_symmetric,
    laplacian_matrix,
    symmetric_quotient,
)
from coresat.spectra import (
    _snap_integers,
    adjacency_spectrum_gcs,
    laplacian_spectrum_gcs,
    max_spectrum_deviation,
    principal_eigenvector,
    quotient,
    spectral_indices,
    spectral_radius,
)
from coresat.verification import GRID, _NEAR_INTEGER, sample_generalized_params

BUTTERFLY = GeneralizedParams(1, [(2, 2)])
MIXED = GeneralizedParams(2, [(1, 1), (2, 1)])


def _quadratic_roots(p: GeneralizedParams) -> tuple[float, float]:
    """Roots of x**2 - (c+s-2)x + (c-1)(s-1) - eta*c*s, the 2x2 quotient's
    characteristic polynomial, by the quadratic formula."""
    c, s, eta = p.core, p.classes[0].size, p.classes[0].count
    disc = math.sqrt((c - s) ** 2 + 4 * eta * c * s)
    return ((c + s - 2) + disc) / 2, ((c + s - 2) - disc) / 2


def _extreme_pair(p: GeneralizedParams) -> tuple[float, float]:
    values = [v for v, _ in adjacency_spectrum_gcs(p).eigenpairs]
    return values[0], values[-1]


def test_extreme_eigenvalues_butterfly():
    hi, lo = _extreme_pair(BUTTERFLY)
    root = math.sqrt(17)
    assert hi == pytest.approx((1 + root) / 2, abs=1e-15)
    assert lo == pytest.approx((1 - root) / 2, abs=1e-15)
    assert spectral_radius(BUTTERFLY) == hi


def test_adjacency_spectrum_butterfly():
    result = adjacency_spectrum_gcs(BUTTERFLY)
    assert result.size == 5
    values = [v for v, _ in result.eigenpairs]
    mults = [m for _, m in result.eigenpairs]
    hi, lo = _quadratic_roots(BUTTERFLY)
    assert values == pytest.approx([hi, 1.0, -1.0, lo], abs=1e-15)
    assert values[1:3] == [1.0, -1.0]
    assert mults == [1, 1, 2, 1]


def test_adjacency_spectrum_complete_split():
    result = adjacency_spectrum_gcs(GeneralizedParams(3, [(1, 2)]))
    root = math.sqrt(7)
    expected = [(1 + root, 1), (0.0, 1), (-1.0, 2), (1 - root, 1)]
    for (got_v, got_m), (want_v, want_m) in zip(result.eigenpairs, expected):
        assert got_v == pytest.approx(want_v, abs=1e-15)
        assert got_m == want_m


def test_adjacency_spectrum_star_exact():
    result = adjacency_spectrum_gcs(GeneralizedParams(1, [(1, 4)]))
    assert result.eigenpairs == ((2.0, 1), (0.0, 3), (-2.0, 1))


def test_adjacency_spectrum_degenerate_single_satellite():
    p = GeneralizedParams(2, [(3, 1)])
    result = adjacency_spectrum_gcs(p)
    assert result.eigenpairs == ((4.0, 1), (-1.0, 4))
    assert spectral_radius(p) == 4.0


def test_eigenvalue_ordering_strict_on_grid():
    for p in GRID_PARAMS:
        c, s = p.core, p.classes[0].size
        hi, lo = _extreme_pair(p)
        assert hi > c + s - 1 >= s - 1 >= 0 > -1 > lo, p


def test_adjacency_matches_oracle_on_grid():
    worst = 0.0
    for p in GRID_PARAMS:
        result = adjacency_spectrum_gcs(p)
        numeric = eigenvalues_symmetric(adjacency_matrix(generalized_core_satellite(p)))
        worst = max(worst, max_spectrum_deviation(result, numeric))
    assert worst <= 1e-9


def test_divisor_matrix_entries():
    # B00 = c - 1, B0i = eta_i * s_i, Bi0 = c, Bii = s_i - 1; B11 = 0 is not stored
    assert quotient(MIXED) == [{0: 1, 1: 1, 2: 2}, {0: 2}, {0: 2, 2: 1}]
    b = symmetric_quotient(quotient(MIXED))
    expected = np.array(
        [
            [1.0, math.sqrt(2.0), 2.0],
            [math.sqrt(2.0), 0.0, 0.0],
            [2.0, 0.0, 1.0],
        ]
    )
    assert np.allclose(b, expected, atol=1e-15)
    assert np.array_equal(b, b.T)


def test_divisor_roots_satisfy_cubic():
    # characteristic polynomial of the mixed example's quotient is
    # x^3 - 2x^2 - 5x + 2; the constant is +2, not +4 (a plausible slip
    # that the numeric route rejects)
    roots = eigenvalues_symmetric(symmetric_quotient(quotient(MIXED)))
    assert roots[0] == pytest.approx(3.323404, abs=1e-6)
    assert roots[1] == pytest.approx(0.357926, abs=1e-6)
    assert roots[2] == pytest.approx(-1.681331, abs=1e-6)
    for r in roots:
        assert abs(r**3 - 2 * r**2 - 5 * r + 2) < 1e-9
        assert abs(r**3 - 2 * r**2 - 5 * r + 4) > 0.5


def test_generalized_spectrum_mixed_example():
    result = adjacency_spectrum_gcs(MIXED)
    assert result.size == 5
    assert len(result.eigenpairs) == 4  # three simple roots plus -1 twice
    mult_at = dict(result.eigenpairs)
    assert mult_at[-1.0] == 2
    numeric = eigenvalues_symmetric(
        adjacency_matrix(generalized_core_satellite(MIXED))
    )
    assert max_spectrum_deviation(result, numeric) <= 1e-9


def test_single_class_quotient_roots_match_the_quadratic():
    # a single class is the 2x2 case of the quotient
    for p in GRID_PARAMS:
        hi, lo = _extreme_pair(p)
        want_hi, want_lo = _quadratic_roots(p)
        assert hi == pytest.approx(want_hi, rel=0, abs=4e-15), p
        assert lo == pytest.approx(want_lo, rel=0, abs=4e-15), p
        assert spectral_radius(p) == hi


def test_generalized_matches_oracle_on_samples():
    worst = 0.0
    # a spectral radius of 28.000884125608774, 8.8e-4 from 28: a snap to
    # integers wider than 1e-10 would give 28.0
    near_integer = GeneralizedParams(10, [(2, 1), (6, 7)])
    # the first 8 sampled sets of at most 120 nodes
    small = [p for p in sample_generalized_params() if p.n <= 120][:8]
    for p in [*small, near_integer]:
        result = adjacency_spectrum_gcs(p)
        numeric = eigenvalues_symmetric(
            adjacency_matrix(generalized_core_satellite(p))
        )
        worst = max(worst, max_spectrum_deviation(result, numeric))
        expected_distinct = p.class_count + 2 + sum(
            1 for cls in p.classes if cls.count > 1
        )
        assert len(result.eigenpairs) == expected_distinct, p
    assert worst <= 1e-9


def test_snap_integers_window():
    snapped = _snap_integers(np.array([2.0 + 5e-11, -1.0 - 5e-11, 0.3579]))
    assert snapped[0] == 2.0
    assert snapped[1] == -1.0
    assert snapped[2] == pytest.approx(0.3579, abs=0)


def test_laplacian_butterfly_golden():
    result = laplacian_spectrum_gcs(BUTTERFLY)
    assert result.eigenpairs == ((5.0, 1), (3.0, 2), (1.0, 1), (0.0, 1))


def test_laplacian_distinct_value_count():
    # t+3 distinct values when every class has size >= 2
    p = GeneralizedParams(2, [(2, 2), (3, 1)])
    result = laplacian_spectrum_gcs(p)
    assert result.eigenpairs == (
        (9.0, 2),
        (5.0, 2),
        (4.0, 2),
        (2.0, 2),
        (0.0, 1),
    )
    assert len(result.eigenpairs) == p.class_count + 3
    # a size-1 class contributes no clique eigenvalue
    thin = laplacian_spectrum_gcs(MIXED)
    assert thin.eigenpairs == ((5.0, 2), (4.0, 1), (2.0, 1), (0.0, 1))


def test_laplacian_degenerate_single_satellite():
    result = laplacian_spectrum_gcs(GeneralizedParams(2, [(3, 1)]))
    assert result.eigenpairs == ((5.0, 4), (0.0, 1))


def test_laplacian_matches_oracle_and_is_integer():
    for p in (BUTTERFLY, MIXED, GeneralizedParams(3, [(2, 2), (4, 3)])):
        result = laplacian_spectrum_gcs(p)
        assert all(v == int(v) for v, _ in result.eigenpairs)
        numeric = eigenvalues_symmetric(
            laplacian_matrix(generalized_core_satellite(p))
        )
        assert max_spectrum_deviation(result, numeric) <= 1e-9


def test_algebraic_connectivity_equals_core_on_grid():
    for p in GRID_PARAMS:
        values = [v for v, _ in laplacian_spectrum_gcs(p).eigenpairs]
        assert values[-1] == 0.0
        assert values[-2] == float(p.core), p


def test_spectral_radius_bounds_examples():
    assert spectral_radius_bounds(MIXED) == (3, 4)
    assert spectral_radius_bounds(GeneralizedParams(1, [(1, 2), (2, 1)])) == (2, 4)
    with pytest.raises(InvalidParameterError):
        spectral_radius_bounds(GeneralizedParams(2, [(3, 1)]))


def test_bounds_enclose_radius_on_grid():
    for p in GRID_PARAMS:
        rho = spectral_radius(p)
        lower, upper = spectral_radius_bounds(p)
        assert lower < rho < upper, p
        assert rho >= math.sqrt(p.n - 1) - 1e-12, p


def test_spectra_past_float_range_raise_invalid_parameters():
    big = 10**154
    quotient_overflows = (
        GeneralizedParams(big, [(3, big)]),  # sqrt(c * eta * s) past the range
        GeneralizedParams(2 * 10**308, [(1, 1)]),  # c - 1
        GeneralizedParams(1, [(2 * 10**308, 1)]),  # s - 1
        GeneralizedParams(2, [(10**308, 2)]),
    )
    quotient_routes = (
        adjacency_spectrum_gcs,
        spectral_radius,
        principal_eigenvector,
        spectral_indices,
    )
    for p in quotient_overflows:
        # the shared builder raises the bare OverflowError that spectra maps
        with pytest.raises(OverflowError):
            symmetric_quotient(quotient(p))
        for route in quotient_routes:
            with pytest.raises(InvalidParameterError, match="float range"):
                route(p)
    # n past the range, every quotient entry inside it
    wide = GeneralizedParams(1, [(1, 17 * 10**307), (2, 8 * 10**307)])
    assert adjacency_spectrum_gcs(wide).size == wide.n
    for route in (laplacian_spectrum_gcs, spectral_indices):
        with pytest.raises(InvalidParameterError, match="float range"):
            route(wide)
    # just inside the range every route still answers
    inside = GeneralizedParams(10**307, [(1, 2)])
    assert spectral_radius(inside) == pytest.approx(1e307, rel=1e-12)
    assert laplacian_spectrum_gcs(inside).size == inside.n
    assert spectral_indices(inside).algebraic_connectivity == 1e307


def test_spectra_keep_apart_values_that_one_float_cannot():
    # n = c + 2 (multiplicity c) and c (multiplicity 1) are distinct
    # eigenvalues, equal once each is rounded to a float
    for c in (10**17, 10**307):
        pairs = laplacian_spectrum_gcs(GeneralizedParams(c, [(1, 2)])).eigenpairs
        assert pairs == ((float(c + 2), c), (float(c), 1), (0.0, 1))
    # so are the adjacency values s - 1 of two sizes 1 apart
    p = GeneralizedParams(1, [(10**17, 2), (10**17 + 1, 2)])
    pairs = adjacency_spectrum_gcs(p).eigenpairs
    assert [pair for pair in pairs if pair[0] == 1e17] == [(1e17, 1)] * 2


def test_principal_eigenvector_butterfly():
    pev = principal_eigenvector(BUTTERFLY)
    beta = 2.0 / (math.sqrt(17.0) - 1.0)
    assert pev.core_value == 1.0
    assert pev.class_values[0] == pytest.approx(beta, abs=1e-14)
    assert 0.0 < pev.class_values[0] < 1.0
    vec = np.array(pev.to_vector(BUTTERFLY))
    a = adjacency_matrix(generalized_core_satellite(BUTTERFLY))
    residual = np.max(np.abs(a @ vec - pev.eigenvalue * vec))
    assert residual <= 1e-8 * pev.eigenvalue


def test_principal_eigenvector_residual_on_samples():
    for p in [p for p in sample_generalized_params() if p.n <= 100][:6]:
        pev = principal_eigenvector(p)
        assert all(0.0 < beta < 1.0 for beta in pev.class_values), p
        vec = np.array(pev.to_vector(p))
        assert vec.size == p.n
        a = adjacency_matrix(generalized_core_satellite(p))
        residual = np.max(np.abs(a @ vec - pev.eigenvalue * vec))
        assert residual <= 1e-8 * pev.eigenvalue, p


def test_each_projection_is_its_report_field():
    for p in (
        *GRID,
        *sample_generalized_params(),
        _NEAR_INTEGER,
        GeneralizedParams(3, [(4, 1)]),  # K_7
        GeneralizedParams(1, [(1, 7)]),  # the star K_{1,7}
        GeneralizedParams(10**12, [(1, 2)]),
    ):
        report = analytic_spectra(p)
        for projection, field in (
            (adjacency_spectrum_gcs(p), report.adjacency),
            (laplacian_spectrum_gcs(p), report.laplacian),
            (spectral_radius(p), report.adjacency.eigenpairs[0][0]),
            (spectral_radius(p), report.eigenvector.eigenvalue),
            (spectral_radius(p), report.indices.spectral_radius),
            (principal_eigenvector(p), report.eigenvector),
            (spectral_indices(p), report.indices),
        ):
            assert repr(projection) == repr(field), p


@pytest.mark.xfail(
    strict=True,
    reason="the float quotient root loses the gap to s - 1 at s near 1e16 (ROADMAP item 3)",
)
def test_principal_eigenvector_stays_in_range_near_the_float_limit():
    pev = principal_eigenvector(GeneralizedParams(1, [(1, 1), (9999999999999999, 1)]))
    assert all(0.0 < beta < 1.0 for beta in pev.class_values)


def test_trace_identities_exact_integers():
    # power sums of the closed-form spectrum, in exact integer
    # arithmetic: sum = 0, sum of squares = 2m, sum of cubes = 6t
    for p in GRID_PARAMS:
        c, s, eta = p.core, p.classes[0].size, p.classes[0].count
        rep = analytic_metrics(p)
        a = c + s - 2
        d = (c - s) ** 2 + 4 * eta * c * s
        assert (a * a + d) % 2 == 0
        assert (a * a - d) % 4 == 0
        sum_sq_extreme = (a * a + d) // 2
        prod_extreme = (a * a - d) // 4
        sum_cu_extreme = a**3 - 3 * prod_extreme * a
        minus_mult = c + eta * (s - 1) - 1
        assert a + (s - 1) * (eta - 1) - minus_mult == 0, p
        assert (
            sum_sq_extreme + (s - 1) ** 2 * (eta - 1) + minus_mult == 2 * rep.m
        ), p
        assert (
            sum_cu_extreme + (s - 1) ** 3 * (eta - 1) - minus_mult
            == 6 * rep.triangles
        ), p


def test_spectral_indices_butterfly():
    idx = spectral_indices(BUTTERFLY)
    rho = (1 + math.sqrt(17)) / 2
    assert idx.spectral_radius == pytest.approx(rho, abs=1e-14)
    assert idx.infection_threshold == pytest.approx(1 / rho, abs=1e-14)
    assert idx.sync_index == 0.2
    assert idx.algebraic_connectivity == 1.0


@pytest.mark.parametrize(
    "p",
    [
        GeneralizedParams(2, [(3, 1)]),
        GeneralizedParams(1, [(1, 1)]),
        GeneralizedParams(4, [(2, 1)]),
        BUTTERFLY,
        MIXED,
        GeneralizedParams(3, [(1, 2)]),
    ],
)
def test_spectral_indices_match_dense_laplacian(p):
    # one satellite gives K_n: every positive Laplacian eigenvalue is n,
    # so the indices are n and 1, not c and c/n
    values = eigenvalues_symmetric(laplacian_matrix(generalized_core_satellite(p)))
    positive = [v for v in values if v > 1e-9]
    idx = spectral_indices(p)
    assert idx.algebraic_connectivity == pytest.approx(min(positive), abs=1e-9)
    assert idx.sync_index == pytest.approx(min(positive) / max(positive), abs=1e-12)
    if p.satellite_total == 1:
        assert (idx.algebraic_connectivity, idx.sync_index) == (float(p.n), 1.0)
    else:
        assert (idx.algebraic_connectivity, idx.sync_index) == (float(p.core), p.core / p.n)


def test_spectrum_result_expansion():
    result = adjacency_spectrum_gcs(BUTTERFLY)
    expanded = result.expanded()
    assert len(expanded) == 5
    assert expanded == sorted(expanded, reverse=True)
    with pytest.raises(ValueError):
        max_spectrum_deviation(result, [0.0, 1.0])
