import functools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from helpers import (
    criterion1_designs,
    design_from_arrays,
    gaussian_kernel,
    grid_tracts,
    square_tract,
)
from tracteq import gwr
from tracteq.data_model import Tract, TractSet
from tracteq.errors import SelectionError, ValidationError
from tracteq.gwr import (
    TIE_TOL,
    GwrFit,
    KernelSpec,
    compute_aicc,
    fit_gwr,
    fit_local,
    select_bandwidth,
    summarize_gwr,
)
from tracteq.ols import RANK_RTOL, fit_ols


# gwr._kernel is the one source of Gaussian weights, for the search and the fit.
def test_gaussian_weights_anchor_points():
    w = gwr._kernel(np.array([0.0, 2.0, 4.0]) ** 2, 2.0)
    assert w[0] == 1.0
    assert math.isclose(w[1], math.exp(-0.5), rel_tol=1e-15)
    assert math.isclose(w[2], math.exp(-2.0), rel_tol=1e-15)


def test_gaussian_weights_monotone():
    d = np.linspace(0, 10, 50)
    w = gwr._kernel(d * d, 3.0)
    assert np.all(np.diff(w) < 0)


def test_gaussian_weights_flat_at_huge_bandwidth():
    w = gwr._kernel(np.array([0.0, 5000.0]) ** 2, 1e12)
    assert np.all(w > 1.0 - 1e-9)


def test_gaussian_weights_equal_the_direct_formula(rng):
    d2 = rng.uniform(0.0, 5000.0, size=(7, 40)) ** 2
    d2[:, 0] = 0.0
    kept = d2.copy()
    for b in (1234.5, rng.uniform(100.0, 3000.0, size=(7, 1))):
        assert np.array_equal(gwr._kernel(d2, b), gaussian_kernel(d2, b))
    assert np.array_equal(d2, kept)
    assert gwr._kernel(4.0, 2.0) == np.exp(-0.5)


def test_kernel_contract_is_the_textbook_gaussian_where_weights_are_kept():
    # Squaring d and scaling by -0.5 / b^2 rounds differently from
    # -0.5 * (d / b)^2, so the weights differ from the textbook formula in
    # their last bits: by under 1e-13 relative for d / b up to 7.5, which
    # covers every kept weight, since exp(-7.5^2 / 2) is below WEIGHT_FLOOR.
    assert math.exp(-0.5 * 7.5**2) < gwr.WEIGHT_FLOOR < math.exp(-0.5 * 7.4**2)
    for b in (1.0, 0.3, 1234.5, 7.7e3, 2.5e5):
        d = np.linspace(0.0, 7.5, 20001) * b
        want = np.exp(-((d / b) ** 2) / 2)
        np.testing.assert_allclose(gaussian_kernel(d * d, b), want, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(gwr._kernel(d * d, b), want, rtol=1e-13, atol=0.0)


def test_private_kernel_is_gaussian_weights_bit_for_bit(rng):
    # The same bits as the formula for a scalar and a per-row bandwidth,
    # written to a new array or in place over the distances.
    d2 = rng.uniform(0.0, 5000.0, size=(7, 40)) ** 2
    d2[:, [0, 5]] = 0.0
    for b in (1234.5, rng.uniform(100.0, 3000.0, size=(7, 1))):
        want = gaussian_kernel(d2, b).tobytes()
        assert gwr._kernel(d2, b).tobytes() == want
        aliased = d2.copy()
        assert gwr._kernel(aliased, b, out=aliased) is aliased
        assert aliased.tobytes() == want


def test_kernel_spec_validation():
    # The neighbour count is checked where it meets a design, by fit_gwr.
    ts = TractSet([square_tract(f"T{i}", i, 0, 1000.0) for i in range(5)])
    data = design_from_arrays(np.arange(5.0), np.ones((5, 1)), ids=ts.ids)
    with pytest.raises(ValidationError, match=r"k range \[0, 0\] must lie within \[2, 5\]"):
        fit_gwr(data, ts, KernelSpec(neighbors_k=0))
    with pytest.raises(ValueError):
        KernelSpec(neighbors_k=5, bandwidth_scale=0.0)


def test_adaptive_bandwidth_collinear():
    # self is the first neighbor, so k=3 reaches the tract 2000 m away
    ts = TractSet([square_tract(f"T{i}", i, 0, 1000.0) for i in range(5)])
    data = design_from_arrays(np.arange(5.0), np.ones((5, 1)), ids=ts.ids)
    want = {2: [1000.0] * 5, 3: [2000.0, 1000.0, 1000.0, 1000.0, 2000.0],
            5: [4000.0, 3000.0, 2000.0, 3000.0, 4000.0]}
    for k, bandwidths in want.items():
        assert fit_gwr(data, ts, KernelSpec(k)).bandwidths.tolist() == bandwidths
    with pytest.raises(ValidationError, match=r"within \[2, 5\]"):
        fit_gwr(data, ts, KernelSpec(6))


def test_fit_local_uniform_weights_is_ols(rng):
    n = 25
    X = np.column_stack([np.ones(n), rng.normal(0, 1, n)])
    y = 1.0 + 2.0 * X[:, 1] + rng.normal(0, 0.5, n)
    data = design_from_arrays(y, X)
    local = fit_local(data, np.ones(n), 3)
    ols = fit_ols(data)
    assert np.max(np.abs(local.coefficients - ols.coefficients)) < 1e-10
    assert math.isclose(local.fitted, float(X[3] @ ols.coefficients), rel_tol=1e-10)


def test_fit_local_two_point_interpolation():
    # third row has zero weight; the line through (0,1) and (1,3) is y = 1 + 2x
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 5.0]])
    y = np.array([1.0, 3.0, 100.0])
    local = fit_local(design_from_arrays(y, X), np.array([1.0, 1.0, 0.0]), 0)
    assert local.ok
    assert np.allclose(local.coefficients, [1.0, 2.0], atol=1e-12)
    assert math.isclose(local.fitted, 1.0, abs_tol=1e-12)
    assert math.isclose(local.hat_diag, 1.0, abs_tol=1e-12)
    assert local.hat_row[2] == 0.0


def test_fit_local_hat_row_oracle(rng):
    n, p = 12, 3
    X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, p - 1))])
    y = rng.normal(0, 1, n)
    w = rng.uniform(0.1, 1.0, n)
    j = 5
    local = fit_local(design_from_arrays(y, X), w, j)
    M = np.linalg.inv(X.T @ (w[:, None] * X))
    hat = (X @ (M @ X[j])) * w
    assert np.max(np.abs(local.hat_row - hat)) < 1e-9
    assert math.isclose(local.hat_diag, hat[j], abs_tol=1e-9)
    assert math.isclose(local.fitted, float(hat @ y), abs_tol=1e-9)


def test_fit_local_se_unit_oracle(rng):
    n, p = 15, 2
    X = np.column_stack([np.ones(n), rng.normal(0, 2, n)])
    y = rng.normal(0, 1, n)
    w = rng.uniform(0.05, 1.0, n)
    local = fit_local(design_from_arrays(y, X), w, 0)
    M = np.linalg.inv(X.T @ (w[:, None] * X))
    cov_unit = M @ X.T @ np.diag(w * w) @ X @ M
    assert np.max(np.abs(local.se_unit - np.sqrt(np.diag(cov_unit)))) < 1e-9


def test_fit_local_weighted_r2_oracle(rng):
    n = 20
    X = np.column_stack([np.ones(n), rng.normal(0, 1, n)])
    y = rng.normal(0, 1, n)
    w = rng.uniform(0.1, 1.0, n)
    local = fit_local(design_from_arrays(y, X), w, 0)
    resid = y - X @ local.coefficients
    rss = float(w @ resid**2)
    ybar = float(w @ y) / float(w.sum())
    tss = float(w @ (y - ybar) ** 2)
    assert math.isclose(local.local_r2_raw, 1.0 - rss / tss, abs_tol=1e-10)
    assert 0.0 <= local.local_r2 <= 1.0


def test_fit_local_too_few_active_rows():
    X = np.column_stack([np.ones(4), np.arange(4.0)])
    local = fit_local(design_from_arrays(np.arange(4.0), X), np.array([1.0, 0.0, 0.0, 0.0]), 0)
    assert not local.ok
    assert "active rows" in local.message
    assert math.isnan(local.hat_diag)


def test_fit_local_rank_deficient_reports_not_raises():
    x = np.arange(6.0)
    X = np.column_stack([np.ones(6), x, x])
    local = fit_local(design_from_arrays(np.arange(6.0), X), np.ones(6), 0)
    assert not local.ok
    assert "rank" in local.message


def test_compute_aicc_formula():
    rss, n, tr = 4.7, 50, 6.3
    want = n * math.log(rss / n) + n * math.log(2 * math.pi) + n * (n + tr) / (n - 2 - tr)
    assert math.isclose(compute_aicc(rss, n, tr), want, rel_tol=1e-15)


def test_compute_aicc_edge_cases():
    assert compute_aicc(1.0, 10, 8.0) == math.inf
    assert compute_aicc(1.0, 10, 9.5) == math.inf
    assert compute_aicc(0.0, 10, 2.0) == -math.inf


def test_gwr_flat_kernel_collapses_to_ols(gradient_scenario):
    sc = gradient_scenario
    n = sc.design.n
    fit = fit_gwr(sc.design, sc.tracts, KernelSpec(neighbors_k=n, bandwidth_scale=1e6))
    ols = fit_ols(sc.design)
    spread = np.max(np.abs(fit.local_coefficients - ols.coefficients[None, :]))
    assert spread < 1e-6
    assert not fit.failed


def test_gwr_aicc_consistent_with_fields(gradient_scenario):
    sc = gradient_scenario
    fit = fit_gwr(sc.design, sc.tracts, KernelSpec(neighbors_k=12))
    assert math.isclose(fit.aicc, compute_aicc(fit.rss, fit.n, fit.trace_S), rel_tol=1e-12)
    assert math.isclose(fit.sigma2, fit.rss / (fit.n - fit.trace_S), rel_tol=1e-12)
    assert np.all(fit.hat_diag >= -1e-12)
    assert np.all(fit.hat_diag <= 1.0 + 1e-12)


def test_gwr_trace_bounds_and_monotone(gradient_scenario):
    sc = gradient_scenario
    n, p = sc.design.X.shape
    traces = []
    for k in (6, 10, 16, 24, 36):
        fit = fit_gwr(sc.design, sc.tracts, KernelSpec(neighbors_k=k))
        traces.append(fit.trace_S)
        assert p - 1e-6 < fit.trace_S < n
    assert all(a >= b - 1e-6 for a, b in zip(traces, traces[1:]))


def test_gwr_tracks_smooth_coefficient_surface(gradient_scenario):
    sc = gradient_scenario
    k, _ = select_bandwidth(sc.design, sc.tracts, 4, sc.design.n)
    fit = fit_gwr(sc.design, sc.tracts, KernelSpec(neighbors_k=k))
    err = fit.local_coefficients[:, 1] - sc.truth["x1"]
    rmse = float(np.sqrt(np.mean(err**2)))
    global_err = fit_ols(sc.design).coefficients[1] - sc.truth["x1"]
    assert rmse < float(np.sqrt(np.mean(global_err**2)))
    assert rmse < 0.3


def test_gwr_row_permutation_invariance(gradient_scenario):
    sc = gradient_scenario
    base = fit_gwr(sc.design, sc.tracts, KernelSpec(neighbors_k=10))
    rng = np.random.default_rng(3)
    perm = rng.permutation(sc.design.n)
    data = design_from_arrays(
        sc.design.y[perm],
        sc.design.X[perm],
        ids=[sc.design.tract_ids[i] for i in perm],
        names=sc.design.column_names,
    )
    shuffled = fit_gwr(data, sc.tracts, KernelSpec(neighbors_k=10))
    for row, tid in enumerate(data.tract_ids):
        want = base.local_coefficients[base.tract_ids.index(tid)]
        assert np.max(np.abs(shuffled.local_coefficients[row] - want)) < 1e-9
    assert math.isclose(shuffled.aicc, base.aicc, rel_tol=1e-9)
    assert math.isclose(shuffled.trace_S, base.trace_S, rel_tol=1e-9)


def test_bandwidths_chunked_match_whole_matrix_partition(step_scenario, monkeypatch):
    # a small chunk puts chunk boundaries mid-matrix
    sc = step_scenario
    monkeypatch.setattr(gwr, "CHUNK_CELLS", 5 * sc.design.n)
    d = np.sqrt(gwr._pairwise_distances(sc.design, sc.tracts))
    ordered = np.sort(d, axis=1)
    for k in (3, 12, 40, len(d)):
        want = np.partition(d, k - 1, axis=1)[:, k - 1]
        assert np.array_equal(fit_gwr(sc.design, sc.tracts, KernelSpec(k)).bandwidths, want)
        assert np.array_equal(ordered[:, k - 1], want)


def test_pairwise_distances_match_cdist(monkeypatch):
    # a small chunk puts chunk boundaries mid-matrix
    monkeypatch.setattr(gwr, "CHUNK_CELLS", 7 * 60)
    rng = np.random.default_rng(23)
    point_sets = [
        rng.uniform(0, 5000, (40, 2)),
        rng.uniform(0, 30000, (60, 2)) + (4.2e6, 3.8e6),  # county-like projected meters
        np.repeat(rng.uniform(0, 1000, (10, 2)), 3, axis=0),  # duplicate centroids
        rng.uniform(0, 1000, (1, 2)),
    ]
    among_all_tracts_differs = False
    for pts in point_sets:
        ts = TractSet([point_tract(f"T{i:03d}", x, y) for i, (x, y) in enumerate(pts)])
        every_tract = design_from_arrays(np.zeros(len(ts)), np.ones((len(ts), 1)), ids=ts.ids)
        assert_bandwidths_are_sorted_cdist_columns(every_tract, ts)
        # design rows in an order and subset of their own
        idx = rng.permutation(len(ts))[: max(1, len(ts) - 3)]
        ids = [ts.ids[i] for i in idx]
        data = design_from_arrays(np.zeros(len(ids)), np.ones((len(ids), 1)), ids=ids)
        want = cdist(ts.centroids[idx], ts.centroids[idx])
        assert np.array_equal(np.sqrt(gwr._pairwise_distances(data, ts)), want)
        assert np.array_equal(gwr._pairwise_distances(data, ts),
                              cdist(ts.centroids[idx], ts.centroids[idx], "sqeuclidean"))
        assert_bandwidths_are_sorted_cdist_columns(data, ts)
        # Counting neighbours among all tracts would give other bandwidths.
        among_all_tracts = np.sort(cdist(ts.centroids[idx], ts.centroids), axis=1)
        among_all_tracts_differs |= not np.array_equal(
            among_all_tracts[:, : len(idx)], np.sort(want, axis=1))
    assert among_all_tracts_differs


def assert_bandwidths_are_sorted_cdist_columns(data, ts):
    """fit_gwr's bandwidth at every k is column k of the sorted distances
    from each design row to the design rows; a k that gives some row a zero
    bandwidth is refused."""
    idx = [ts.index_of(tid) for tid in data.tract_ids]
    ordered = np.sort(cdist(ts.centroids[idx], ts.centroids[idx]), axis=1)
    for k in range(2, data.n + 1):
        want = ordered[:, k - 1]
        if np.all(want > 0.0):
            assert np.array_equal(fit_gwr(data, ts, KernelSpec(k)).bandwidths, want)
        else:
            with pytest.raises(ValidationError, match="duplicate centroids"):
                fit_gwr(data, ts, KernelSpec(k))


def fit_local_by_scipy_triangular_solves(data, weights, j):
    """fit_local's QR solve with scipy's solve_triangular: None where
    fit_local must fail, else (coefficients, se_unit, hat_diag)."""
    X, y = data.X, data.y
    p = X.shape[1]
    w = np.where(weights > gwr.WEIGHT_FLOOR, weights, 0.0)
    active = np.flatnonzero(w)
    if active.size < p:
        return None
    wa, Xa = w[active], X[active]
    sw = np.sqrt(wa)
    Q, R = np.linalg.qr(Xa * sw[:, None])
    diag = np.abs(np.diag(R))
    if np.any(diag <= RANK_RTOL * diag.max()):
        return None
    beta = solve_triangular(R, Q.T @ (y[active] * sw))
    r_inv = solve_triangular(R, np.eye(p))
    M = r_inv @ r_inv.T
    B = Xa @ M
    se_unit = np.sqrt(np.einsum("i,ij,ij->j", wa * wa, B, B))
    return beta, se_unit, w[j] * float(X[j] @ (M @ X[j]))


def local_weight_cases(source, request):
    """(data, weights, j) triples: random truncated weights over the
    criterion-1 designs, or every tract's kernel row of a scenario at
    several bandwidths, with and without a column scaled to rank deficiency."""
    if source == "criterion_1":
        rng = np.random.default_rng(7)
        for X, y in criterion1_designs():
            # exp(-30) is below WEIGHT_FLOOR, so some rows drop out
            weights = np.exp(-rng.uniform(0, 30, len(y)))
            yield design_from_arrays(y, X), weights, int(rng.integers(len(y)))
        return
    sc = request.getfixturevalue(source)
    d2 = gwr._pairwise_distances(sc.design, sc.tracts)
    scaled = design_from_arrays(
        sc.design.y, sc.design.X * np.array([1.0, 1e-12]), ids=sc.design.tract_ids
    )
    n = sc.design.n
    for data in (sc.design, scaled):
        for k, scale in ((3, 1.0), (5, 1.0), (12, 1.0), (n, 1.0), (n, 1e6), (4, 1e-3)):
            bw = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1]) * scale
            for j in range(n):
                yield data, gaussian_kernel(d2[j], bw[j]), j


@pytest.mark.parametrize("source", ["criterion_1", "step_scenario", "gradient_scenario"])
def test_fit_local_matches_scipy_triangular_solves(source, request):
    outcomes = set()
    for data, weights, j in local_weight_cases(source, request):
        local = fit_local(data, weights, j)
        want = fit_local_by_scipy_triangular_solves(data, weights, j)
        assert local.ok == (want is not None)
        outcomes.add(local.ok)
        if want is not None:
            beta, se_unit, hat_diag = want
            np.testing.assert_allclose(local.coefficients, beta, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(local.se_unit, se_unit, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(local.hat_diag, hat_diag, rtol=1e-12, atol=0.0)
    assert outcomes == ({True} if source == "criterion_1" else {True, False})


def test_gwr_loo_switch_increases_aicc_in_global_limit(gradient_scenario):
    sc = gradient_scenario
    kern = KernelSpec(neighbors_k=sc.design.n, bandwidth_scale=1e6)
    leave_in = fit_gwr(sc.design, sc.tracts, kern)
    loo = fit_gwr(sc.design, sc.tracts, kern, aicc_loo=True)
    assert np.array_equal(leave_in.local_coefficients, loo.local_coefficients)
    assert loo.aicc > leave_in.aicc
    assert loo.rss > leave_in.rss


def test_gwr_neighbors_k_range_enforced(gradient_scenario):
    sc = gradient_scenario
    with pytest.raises(ValidationError):
        fit_gwr(sc.design, sc.tracts, KernelSpec(neighbors_k=2))
    with pytest.raises(ValidationError):
        fit_gwr(sc.design, sc.tracts, KernelSpec(neighbors_k=sc.design.n + 1))


def test_gwr_duplicate_centroids_zero_bandwidth():
    # two tracts stacked on the same cell: adaptive bandwidth 0 for k=2
    tracts = [
        square_tract("A", 0, 0), square_tract("B", 0, 0), square_tract("C", 3, 0),
    ]
    ts = TractSet(tracts)
    data = design_from_arrays(
        np.array([1.0, 2.0, 3.0]), np.ones((3, 1)), ids=["A", "B", "C"],
        names=["intercept"],
    )
    with pytest.raises(ValidationError, match="duplicate centroids"):
        fit_gwr(data, ts, KernelSpec(neighbors_k=2))


def test_gwr_tiny_bandwidth_all_fail():
    ts = grid_tracts(3, 3)
    rng = np.random.default_rng(1)
    X = np.column_stack([np.ones(9), rng.normal(0, 1, 9)])
    data = design_from_arrays(rng.normal(0, 1, 9), X, ids=ts.ids)
    fit = fit_gwr(data, ts, KernelSpec(neighbors_k=4, bandwidth_scale=1e-9))
    assert len(fit.failed) == 9
    assert fit.aicc == math.inf
    assert np.all(np.isnan(fit.local_se))
    with pytest.raises(SelectionError):
        summarize_gwr(fit)


@pytest.mark.parametrize("aicc_loo", [False, True])
def test_narrow_kernel_fails_exactly_the_tracts_short_of_active_rows(monkeypatch, aicc_loo):
    # Below bandwidth_scale 1 a tract can keep fewer active rows than terms;
    # the solve marks such a rank-deficient system unsound. At k = 9 and
    # scale 0.08 on a 6 x 6 lattice each interior tract keeps only itself and
    # each boundary tract four rows, so only the interior ones fail, with
    # fit_local's message, with or without leave-one-out refits.
    data, ts = lattice_design(6, 6, seed=7)
    kernel = KernelSpec(neighbors_k=9, bandwidth_scale=0.08)
    d = cdist(ts.centroids, ts.centroids)
    bw = np.sort(d, axis=1)[:, 8] * kernel.bandwidth_scale
    d2 = cdist(ts.centroids, ts.centroids, "sqeuclidean")
    active = (gaussian_kernel(d2, bw[:, None]) > gwr.WEIGHT_FLOOR).sum(axis=1)
    assert sorted(set(active)) == [1, 4]
    short = tuple(tid for tid, a in zip(ts.ids, active) if a < 2)
    assert len(short) == 16

    messages = {}
    real_fit_local = gwr.fit_local

    def spy(data, weights, j):
        local = real_fit_local(data, weights, j)
        messages.setdefault(data.tract_ids[j], local.message)
        return local

    monkeypatch.setattr(gwr, "fit_local", spy)
    fit = fit_gwr(data, ts, kernel, aicc_loo=aicc_loo)
    assert fit.failed == short
    assert {tid: messages.get(tid) for tid in short} == dict.fromkeys(
        short, "only 1 active rows for 2 terms"
    )
    assert all(not messages.get(tid) for tid in set(ts.ids) - set(short))
    assert not np.isnan(fit.local_coefficients[active == 4]).any()


def short_design(rng, n, p, kind):
    """An n x p design with an intercept; kind "dummy" makes the last column
    0/1, "collinear" makes it affine in another, "duplicated" repeats each
    even row in the next and "scaled" spreads the column scales over 1e-6
    to 1e6."""
    X = np.column_stack([np.ones(n), rng.normal(0.0, 1.0, (n, p - 1))])
    if kind == "dummy":
        X[:, -1] = rng.integers(0, 2, n)
    elif kind == "collinear":
        X[:, -1] = 2.0 * X[:, 1] - 0.5 if p > 2 else 3.0
    elif kind == "duplicated":
        X[1::2] = X[: n // 2 * 2 : 2]
    elif kind == "scaled":
        X[:, 1:] *= 10.0 ** rng.uniform(-6.0, 6.0, p - 1)
    return X


def short_weights(rng, n, p, rows):
    """rows kernel rows over n tracts: row r weighs its own tract r % n at 1
    and at most p - 1 others between just above WEIGHT_FLOOR and 1, so its
    leave-in system has at most p active rows and its leave-one-out
    system fewer than p."""
    W = np.zeros((rows, n))
    for r in range(rows):
        own = r % n
        others = rng.choice(np.delete(np.arange(n), own), int(rng.integers(0, p)),
                            replace=False)
        W[r, others] = 10.0 ** rng.uniform(np.log10(gwr.WEIGHT_FLOOR) + 0.01, 0.0, len(others))
        W[r, own] = 1.0
    return W


def normal_systems(X, y, W):
    """The stacked X'WX and X'Wy of each row of W, formed as _solve_chunk
    forms them."""
    p = X.shape[1]
    G = (gwr._kernel_rhs(design_from_arrays(y, X)) @ W.T).T
    return G[:, : p * p].reshape(-1, p, p), G[:, p * p : p * p + p]


@pytest.mark.parametrize("kind", ["plain", "dummy", "collinear", "duplicated", "scaled"])
def test_solve_normal_marks_every_system_short_of_active_rows_unsound(kind):
    # Such a system is rank-deficient, so its equilibrated Cholesky pivots
    # fall to round-off (or NaN): fit_gwr needs no count of active rows to
    # send it to fit_local, which fails it. Leave-in systems keep their own
    # row at weight 1; leave-one-out ones drop it, here before the product.
    rng = np.random.default_rng(17)
    n = 30
    for p in range(2, 7):
        for _ in range(4):
            X, y = short_design(rng, n, p, kind), rng.normal(0.0, 1.0, n)
            W = short_weights(rng, n, p, 300)
            active = (W > gwr.WEIGHT_FLOOR).sum(axis=1)
            for leave_out in (False, True):
                if leave_out:
                    W[np.arange(len(W)), np.arange(len(W)) % n] = 0.0
                    active = active - 1
                short = active < p
                assert short.sum() > 100
                _, _, sound = gwr._solve_normal(*normal_systems(X, y, W))
                assert not sound[short].any(), (p, leave_out)


def test_narrow_kernel_fails_the_leave_one_out_fits_short_of_other_rows():
    # A row of ten tracts at k = 3 and scale 0.0737: each end tract keeps
    # one neighbor, at weight ~1e-10, so its leave-in fit stands while its
    # leave-one-out system has one row for two terms. Taking the own row
    # out of the sums leaves rounding of its size, which lets some of these
    # systems pass the solve's pivot test, so such rows are counted.
    tracts = grid_tracts(1, 10)
    kernel = KernelSpec(neighbors_k=3, bandwidth_scale=0.0737)
    ends = {tracts.ids[0], tracts.ids[-1]}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(10), rng.normal(0.0, 1.0, 10)])
        data = design_from_arrays(rng.normal(0.0, 1.0, 10), X, ids=tracts.ids)
        assert not ends & set(fit_gwr(data, tracts, kernel).failed)
        assert ends <= set(fit_gwr(data, tracts, kernel, aicc_loo=True).failed)


def test_gwr_runs_on_one_blas_thread_and_restores_the_callers(gradient_scenario, monkeypatch):
    lib = gwr._openblas()
    if lib is None:
        pytest.skip("numpy has no bundled OpenBLAS here")
    count = lib.scipy_openblas_get_num_threads64_
    seen = []
    real_solve = gwr._solve_chunk

    def spy(*args):
        seen.append(count())
        return real_solve(*args)

    monkeypatch.setattr(gwr, "_solve_chunk", spy)
    sc = gradient_scenario
    before = count()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        select_bandwidth(sc.design, sc.tracts, 4, 8)
        assert count() == 2
        fit_gwr(sc.design, sc.tracts, KernelSpec(neighbors_k=8))
        assert count() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    assert len(seen) == 6 and set(seen) == {1}


def test_gwr_without_openblas_warns_once_and_runs(gradient_scenario, monkeypatch, caplog):
    sc = gradient_scenario
    kernel = KernelSpec(neighbors_k=8)
    want = fit_gwr(sc.design, sc.tracts, kernel)
    monkeypatch.setattr(gwr.glob, "glob", lambda pattern: [])
    monkeypatch.setattr(gwr, "_openblas", functools.cache(gwr._openblas.__wrapped__))
    with caplog.at_level(logging.WARNING, logger="tracteq.gwr"):
        fit = fit_gwr(sc.design, sc.tracts, kernel)
        select_bandwidth(sc.design, sc.tracts, 4, 8)
    assert [r.getMessage() for r in caplog.records if "OpenBLAS" in r.getMessage()] == [
        "numpy's bundled OpenBLAS not found: GWR runs on the caller's BLAS threads, "
        "so its last digits may change with their number"
    ]
    assert fit.aicc.hex() == want.aicc.hex()


def test_select_bandwidth_singleton_range(gradient_scenario):
    sc = gradient_scenario
    k, aicc = select_bandwidth(sc.design, sc.tracts, 8, 8)
    assert k == 8
    want = fit_gwr(sc.design, sc.tracts, KernelSpec(neighbors_k=8))
    assert math.isclose(aicc, want.aicc, rel_tol=1e-12)


def test_select_bandwidth_golden_matches_exhaustive(gradient_scenario):
    sc = gradient_scenario
    n = sc.design.n
    kg, ag = select_bandwidth(sc.design, sc.tracts, 4, n, method="golden")
    ke, ae = select_bandwidth(sc.design, sc.tracts, 4, n, method="exhaustive")
    assert kg == ke
    assert math.isclose(ag, ae, rel_tol=1e-12)
    assert kg < n


def test_select_bandwidth_all_failures_raise():
    ts = grid_tracts(4, 4)
    x = np.arange(16.0)
    X = np.column_stack([np.ones(16), x, x])  # always rank-deficient
    data = design_from_arrays(np.arange(16.0), X, ids=ts.ids)
    with pytest.raises(SelectionError):
        select_bandwidth(data, ts, 4, 16)


def test_select_bandwidth_validates_range(gradient_scenario):
    sc = gradient_scenario
    with pytest.raises(ValidationError):
        select_bandwidth(sc.design, sc.tracts, 2, 10)
    with pytest.raises(ValidationError):
        select_bandwidth(sc.design, sc.tracts, 10, 4)
    with pytest.raises(ValueError):
        select_bandwidth(sc.design, sc.tracts, 4, 10, method="grid")


def test_summarize_counts_significance_shares():
    coef = np.array([[1.0, -2.0], [1.0, 0.1], [1.0, 2.5], [np.nan, np.nan]])
    se = np.array([[0.1, 0.5], [0.1, 1.0], [0.1, 0.5], [np.nan, np.nan]])
    fit = GwrFit(
        local_coefficients=coef,
        local_se=se,
        local_t=coef / se,
        local_r2=np.array([0.5, 0.7, 0.9, np.nan]),
        local_r2_raw=np.array([0.5, 0.7, 0.9, np.nan]),
        hat_diag=np.array([0.2, 0.2, 0.2, np.nan]),
        bandwidths=np.ones(4),
        trace_S=2.0,
        rss=1.0,
        sigma2=0.5,
        aicc=10.0,
        neighbors_k=3,
        failed=("T3",),
        column_names=("intercept", "x1"),
        tract_ids=("T0", "T1", "T2", "T3"),
    )
    s = summarize_gwr(fit)
    assert s.n_used == 3
    assert s.n_failed == 1
    # x1 t values: -4, 0.1, 5 -> one below -1.96, one above +1.96
    assert math.isclose(s.pct_sig_neg[1], 1.0 / 3.0, abs_tol=1e-12)
    assert math.isclose(s.pct_sig_pos[1], 1.0 / 3.0, abs_tol=1e-12)
    assert s.mean[1] == pytest.approx((-2.0 + 0.1 + 2.5) / 3)
    assert s.min[1] == -2.0
    assert s.max[1] == 2.5
    assert s.mean_local_r2 == pytest.approx(0.7)
    assert s.min_local_r2 == 0.5
    assert s.max_local_r2 == 0.9


def oracle_gwr(data, tracts, kernel, aicc_loo=False):
    """One fit_local call per tract (and per leave-one-out refit): the
    reference the batched fit_gwr must reproduce."""
    n = data.n
    idx = [tracts.index_of(tid) for tid in data.tract_ids]
    distances = cdist(tracts.centroids[idx], tracts.centroids[idx])
    d2 = cdist(tracts.centroids[idx], tracts.centroids[idx], "sqeuclidean")
    k = kernel.neighbors_k
    bw = np.partition(distances, k - 1, axis=1)[:, k - 1] * kernel.bandwidth_scale
    fits, fitted = [], []
    for j in range(n):
        w = gaussian_kernel(d2[j], bw[j])
        local = fit_local(data, w, j)
        value = local.fitted
        if aicc_loo and local.ok:
            w_loo = w.copy()
            w_loo[j] = 0.0
            value = float(data.X[j] @ fit_local(data, w_loo, j).coefficients)
        fits.append(local)
        fitted.append(value)
    fitted = np.array(fitted)
    hat = np.array([f.hat_diag for f in fits])
    se_unit = np.vstack([f.se_unit for f in fits])
    failed = tuple(
        tid for tid, f, v in zip(data.tract_ids, fits, fitted) if not (f.ok and np.isfinite(v))
    )
    if failed:
        trace_s = rss = math.nan
        aicc = math.inf
        se = np.full_like(se_unit, np.nan)
    else:
        trace_s = float(hat.sum())
        rss = float(((data.y - fitted) ** 2).sum())
        aicc = compute_aicc(rss, n, trace_s)
        se = se_unit * math.sqrt(rss / (n - trace_s))
    return {
        "local_coefficients": np.vstack([f.coefficients for f in fits]),
        "local_se": se,
        "hat_diag": hat,
        "local_r2": np.array([f.local_r2 for f in fits]),
        "trace_S": trace_s,
        "rss": rss,
        "aicc": aicc,
        "failed": failed,
    }


def assert_close(got, want, tol=1e-9):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    if finite.any():
        assert np.max(np.abs(got[finite] - want[finite])) <= tol


@pytest.mark.parametrize("scenario", ["gradient_scenario", "step_scenario"])
@pytest.mark.parametrize("aicc_loo", [False, True])
def test_gwr_batched_matches_fit_local_oracle(request, scenario, aicc_loo):
    sc = request.getfixturevalue(scenario)
    n = sc.design.n
    for kernel in (
        KernelSpec(neighbors_k=3),
        KernelSpec(neighbors_k=5),
        KernelSpec(neighbors_k=12),
        KernelSpec(neighbors_k=n),
        KernelSpec(neighbors_k=n, bandwidth_scale=1e6),
        KernelSpec(neighbors_k=6, bandwidth_scale=0.3),
    ):
        fit = fit_gwr(sc.design, sc.tracts, kernel, aicc_loo=aicc_loo)
        want = oracle_gwr(sc.design, sc.tracts, kernel, aicc_loo=aicc_loo)
        assert fit.failed == want["failed"], kernel
        for field in ("local_coefficients", "local_se", "hat_diag", "local_r2",
                      "trace_S", "rss", "aicc"):
            assert_close(getattr(fit, field), want[field])


@pytest.mark.parametrize("scenario,k_max", [("gradient_scenario", 36), ("step_scenario", 40)])
@pytest.mark.parametrize("aicc_loo", [False, True])
def test_select_bandwidth_matches_oracle_exhaustive_scan(request, scenario, k_max, aicc_loo):
    sc = request.getfixturevalue(scenario)
    curve = {
        k: oracle_gwr(sc.design, sc.tracts, KernelSpec(neighbors_k=k), aicc_loo)["aicc"]
        for k in range(4, k_max + 1)
    }
    best = min(curve.values())
    want = max(k for k, v in curve.items() if v <= best + TIE_TOL)
    k, aicc = select_bandwidth(sc.design, sc.tracts, 4, k_max, aicc_loo=aicc_loo)
    assert k == want
    assert abs(aicc - curve[want]) <= 1e-9


def test_gwr_failed_loo_refit_counts_as_failure():
    data, ts = failed_loo_design()
    fit = fit_gwr(data, ts, KernelSpec(neighbors_k=8), aicc_loo=True)
    assert fit.failed == (ts.ids[5],)
    assert fit.aicc == math.inf
    assert not np.isnan(fit.local_coefficients).any()
    assert not fit_gwr(data, ts, KernelSpec(neighbors_k=8)).failed
    with pytest.raises(SelectionError):
        select_bandwidth(data, ts, 4, 16, aicc_loo=True)


def point_tract(tid, x, y):
    corners = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
    return Tract(tid, tuple((x + dx, y + dy) for dx, dy in corners))


@pytest.fixture()
def fit_local_calls(monkeypatch):
    """Row indices of the fit_local calls fit_gwr makes (its fallbacks)."""
    calls = []
    real_fit_local = gwr.fit_local

    def spy(data, weights, j):
        calls.append(j)
        return real_fit_local(data, weights, j)

    monkeypatch.setattr(gwr, "fit_local", spy)
    return calls


def marginal_triangles():
    """Triangles of three tracts 10 m apart, 100 m between triangles, and one
    lone tract: under the returned narrow kernel each triangle fits on its own
    three rows and the lone tract has only itself. The first triangle's x is
    nearly constant, so its normal equations are too ill-conditioned to
    trust, though the QR fit in fit_local still succeeds."""
    tracts, xs = [], []
    rng = np.random.default_rng(4)
    for c in range(9):
        cx, cy = 100.0 * (c % 3), 100.0 * (c // 3)
        for m, (dx, dy) in enumerate(((0.0, 0.0), (10.0, 0.0), (0.0, 10.0))):
            tracts.append(point_tract(f"C{c}{m}", cx + dx, cy + dy))
            xs.append(1.0 + (m - 1) * 1e-6 if c == 0 else rng.uniform(0.5, 2.5))
    tracts.append(point_tract("Z", 400.0, 0.0))
    xs.append(1.0)
    ts = TractSet(tracts)
    n = len(tracts)
    X = np.column_stack([np.ones(n), xs])
    data = design_from_arrays(1.0 + 2.0 * X[:, 1] + rng.normal(0, 0.1, n), X, ids=ts.ids)
    return data, ts, KernelSpec(neighbors_k=4, bandwidth_scale=0.05)


def test_gwr_marginal_tracts_fall_back_to_fit_local(fit_local_calls):
    data, ts, kernel = marginal_triangles()
    n, X = data.n, data.X
    fit = fit_gwr(data, ts, kernel)
    marginal = [0, 1, 2, n - 1]
    assert sorted(fit_local_calls) == marginal
    assert fit.failed == ("Z",)
    assert fit.aicc == math.inf
    distances = cdist(ts.centroids, ts.centroids)
    d2 = cdist(ts.centroids, ts.centroids, "sqeuclidean")
    bw = np.partition(distances, 3, axis=1)[:, 3] * kernel.bandwidth_scale
    for j in marginal:
        local = fit_local(data, gaussian_kernel(d2[j], bw[j]), j)
        assert local.ok == (j != n - 1)
        assert np.array_equal(fit.local_coefficients[j], local.coefficients, equal_nan=True)
        assert np.array_equal(fit.hat_diag[j], local.hat_diag, equal_nan=True)
        assert np.array_equal(fit.local_r2[j], local.local_r2, equal_nan=True)
        assert np.array_equal(fit.local_r2_raw[j], local.local_r2_raw, equal_nan=True)
    assert "active rows" in fit_local(data, gaussian_kernel(d2[-1], bw[-1]), n - 1).message

    # Without the lone tract nothing fails, so the fallback SEs are reported.
    kept = design_from_arrays(data.y[:-1], X[:-1], ids=ts.ids[:-1])
    fit = fit_gwr(kept, ts, kernel)
    assert not fit.failed
    for j in (0, 1, 2):
        local = fit_local(kept, gaussian_kernel(d2[j, :-1], bw[j]), j)
        assert np.array_equal(fit.local_se[j], local.se_unit * math.sqrt(fit.sigma2))


@pytest.mark.parametrize("scale", [1e-9, 1e-12])
def test_gwr_badly_scaled_column_keeps_fit_local_rank_decision(
    gradient_scenario, fit_local_calls, scale
):
    # Equilibrated, these normal equations are benign, but diag(R) of the raw
    # design is within RANK_MARGIN of RANK_RTOL (1e-9) or below it (1e-12):
    # fit_local decides every tract, and fails the same ones it fails alone.
    sc = gradient_scenario
    data = badly_scaled(sc, scale)
    kernel = KernelSpec(neighbors_k=12)
    fit = fit_gwr(data, sc.tracts, kernel)
    assert sorted(fit_local_calls) == list(range(data.n))
    want = oracle_gwr(data, sc.tracts, kernel)
    assert fit.failed == want["failed"]
    assert bool(fit.failed) == (scale < 1e-10)
    assert np.array_equal(fit.local_coefficients, want["local_coefficients"], equal_nan=True)


def failed_loo_design():
    """x2 is nonzero only at tract 5, so its leave-one-out design loses rank."""
    ts = grid_tracts(4, 4)
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(16), rng.normal(0, 1, 16), np.eye(16)[5]])
    return design_from_arrays(rng.normal(0, 1, 16), X, ids=ts.ids), ts


def badly_scaled(sc, scale):
    return design_from_arrays(
        sc.design.y, sc.design.X * np.array([1.0, scale]), ids=sc.design.tract_ids
    )


@pytest.fixture()
def search_evals(monkeypatch):
    """(bandwidths, failed, AICc) of each call of the bandwidth search's AICc
    helper, in call order."""
    evals = []
    real_search, real_terms = gwr._search_aicc, gwr._aicc_terms

    def spy(data, d2, bw, rhs, aicc_loo, work):
        terms = []

        def terms_spy(*args):
            terms.append(real_terms(*args))
            return terms[-1]

        with monkeypatch.context() as m:
            m.setattr(gwr, "_aicc_terms", terms_spy)
            aicc = real_search(data, d2, bw, rhs, aicc_loo, work)
        ((failed, _, _, searched),) = terms
        assert float(aicc).hex() == float(searched).hex()
        evals.append((np.array(bw), failed, aicc))
        return aicc

    monkeypatch.setattr(gwr, "_search_aicc", spy)
    return evals


def assert_evals_match_fit_gwr(data, tracts, evals, ks, aicc_loo):
    """Evaluation i ran at k = ks[i] and gave fit_gwr's failed set and AICc
    bit for bit."""
    ordered = np.sort(np.sqrt(gwr._pairwise_distances(data, tracts)), axis=1)
    assert len(evals) == len(ks)
    for k, (bw, failed, aicc) in zip(ks, evals):
        assert np.array_equal(bw, ordered[:, k - 1]), k
        fit = fit_gwr(data, tracts, KernelSpec(neighbors_k=k), aicc_loo=aicc_loo)
        assert failed == fit.failed, k
        assert float(aicc).hex() == fit.aicc.hex(), k


# The k each golden search over [4, n] evaluates, in order, as recorded when
# every candidate was a full fit_gwr call; the same with and without aicc_loo.
GOLDEN_KS = {
    "gradient_scenario": [16, 24, *range(4, 16), *range(17, 24)],
    "step_scenario": [27, 41, 18, *range(4, 18), *range(19, 27)],
}


@pytest.mark.parametrize("scenario", ["gradient_scenario", "step_scenario"])
@pytest.mark.parametrize("aicc_loo", [False, True])
def test_golden_search_k_sequence_and_aicc_match_fit_gwr(
    request, search_evals, scenario, aicc_loo
):
    sc = request.getfixturevalue(scenario)
    k, aicc = select_bandwidth(sc.design, sc.tracts, 4, sc.design.n, aicc_loo=aicc_loo)
    evals = list(search_evals)
    ks = GOLDEN_KS[scenario]
    assert_evals_match_fit_gwr(sc.design, sc.tracts, evals, ks, aicc_loo)
    assert k in ks
    assert aicc.hex() == evals[ks.index(k)][2].hex()


@pytest.mark.parametrize("aicc_loo", [False, True])
def test_search_aicc_makes_fit_gwr_fallbacks_on_fallback_designs(
    gradient_scenario, search_evals, fit_local_calls, aicc_loo
):
    # The search helper at each design's kernel bandwidths: the same fit_local
    # calls (leave-in and leave-one-out refits), failed set and AICc.
    triangles, triangle_tracts, triangle_kernel = marginal_triangles()
    loo_data, loo_tracts = failed_loo_design()
    cases = [
        (triangles, triangle_tracts, triangle_kernel),
        (badly_scaled(gradient_scenario, 1e-9), gradient_scenario.tracts, KernelSpec(12)),
        (badly_scaled(gradient_scenario, 1e-12), gradient_scenario.tracts, KernelSpec(12)),
        (loo_data, loo_tracts, KernelSpec(8)),
    ]
    outcomes = set()
    for data, tracts, kernel in cases:
        d2 = gwr._pairwise_distances(data, tracts)
        k = kernel.neighbors_k
        bw = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1]) * kernel.bandwidth_scale
        fit_local_calls.clear()
        rhs, work = gwr._kernel_rhs(data), gwr._Workspace(data.n)
        gwr._search_aicc(data, d2, bw, rhs, aicc_loo, work)
        searched = list(fit_local_calls)
        fit_local_calls.clear()
        fit = fit_gwr(data, tracts, kernel, aicc_loo=aicc_loo)
        assert searched == fit_local_calls
        # the failed-LOO design needs fit_local only for its leave-one-out refit
        assert bool(searched) == (data is not loo_data or aicc_loo)
        _, failed, aicc = search_evals[-1]
        assert failed == fit.failed
        assert float(aicc).hex() == fit.aicc.hex()
        outcomes.add(bool(failed))
    assert outcomes == {False, True}


@pytest.mark.parametrize("aicc_loo", [False, True])
def test_select_bandwidth_on_fallback_designs_matches_fit_gwr(
    gradient_scenario, search_evals, fit_local_calls, aicc_loo
):
    # At scale 1e-9 every tract of every candidate goes through fit_local and
    # none fails; at 1e-12 they all fail, and so does the failed-LOO design
    # under aicc_loo.
    sc = gradient_scenario
    data = badly_scaled(sc, 1e-9)
    select_bandwidth(data, sc.tracts, 4, 20, method="exhaustive", aicc_loo=aicc_loo)
    assert len(fit_local_calls) >= 17 * sc.design.n
    evals = list(search_evals)
    assert_evals_match_fit_gwr(data, sc.tracts, evals, range(4, 21), aicc_loo)
    assert all(not failed for _, failed, _ in evals)

    data = badly_scaled(sc, 1e-12)
    search_evals.clear()
    with pytest.raises(SelectionError):
        select_bandwidth(data, sc.tracts, 4, 20, method="exhaustive", aicc_loo=aicc_loo)
    evals = list(search_evals)
    assert_evals_match_fit_gwr(data, sc.tracts, evals, range(4, 21), aicc_loo)
    assert all(failed for _, failed, _ in evals)

    data, tracts = failed_loo_design()
    search_evals.clear()
    if aicc_loo:
        with pytest.raises(SelectionError):
            select_bandwidth(data, tracts, 4, 16, method="exhaustive", aicc_loo=True)
    else:
        select_bandwidth(data, tracts, 4, 16, method="exhaustive")
    evals = list(search_evals)
    assert_evals_match_fit_gwr(data, tracts, evals, range(4, 17), aicc_loo)
    assert any(failed for _, failed, _ in evals) == aicc_loo


@pytest.mark.parametrize("scenario", ["step_scenario", "fallback_scenario"])
@pytest.mark.parametrize("aicc_loo", [False, True])
def test_search_chunk_boundaries_match_fit_gwr(
    request, gradient_scenario, search_evals, monkeypatch, scenario, aicc_loo
):
    # Five-row chunks leave a short last chunk (64 = 12*5 + 4, 36 = 7*5 + 1),
    # and 27 candidates make two sort blocks. The fallback design sends every
    # tract through fit_local, so refits index rows across chunk boundaries.
    if scenario == "fallback_scenario":
        data, tracts = badly_scaled(gradient_scenario, 1e-9), gradient_scenario.tracts
    else:
        sc = request.getfixturevalue(scenario)
        data, tracts = sc.design, sc.tracts
    monkeypatch.setattr(gwr, "CHUNK_CELLS", 5 * data.n)
    assert data.n % gwr._Workspace(data.n).rows
    k_max = min(30, data.n)
    select_bandwidth(data, tracts, 4, k_max, method="exhaustive", aicc_loo=aicc_loo)
    evals = list(search_evals)
    assert_evals_match_fit_gwr(data, tracts, evals, range(4, k_max + 1), aicc_loo)


def test_single_k_partition_matches_sort_path(search_evals, monkeypatch):
    # A lattice ties many distances, and five-row chunks leave a short last
    # chunk (99 = 19*5 + 4). Each k-th column from a one-k block equals that
    # column of a full sort, alone and inside a golden search whose steps
    # take blocks of one and two k and whose final scan a block of several.
    data, tracts = lattice_design(9, 11, seed=3)
    monkeypatch.setattr(gwr, "CHUNK_CELLS", 5 * data.n)
    assert data.n % gwr._Workspace(data.n).rows
    d = gwr._pairwise_distances(data, tracts)
    ordered = np.sort(d, axis=1)
    every = np.arange(data.n)
    for s in range(0, data.n, 5):
        assert np.array_equal(gwr._order_stats(d[s : s + 5].copy(), every), ordered[s : s + 5])
        for k in every:
            got = gwr._order_stats(d[s : s + 5].copy(), [k])
            assert np.array_equal(got[:, 0], ordered[s : s + 5, k])

    blocks = []
    real_order_stats = gwr._order_stats

    def spy(rows, cols):
        if not blocks or list(cols) != blocks[-1]:
            blocks.append(list(cols))
        return real_order_stats(rows, cols)

    monkeypatch.setattr(gwr, "_order_stats", spy)
    select_bandwidth(data, tracts, 4, data.n)
    sizes = [len(block) for block in blocks]
    assert sizes[0] == 2 and 1 in sizes and sizes[-1] > 1
    ks = [c + 1 for block in blocks for c in block]
    assert_evals_match_fit_gwr(data, tracts, list(search_evals), ks, aicc_loo=False)


def test_order_stats_equal_columns_of_a_full_sort():
    # Squared distances on a regular grid tie many values in every row.
    # Blocks of 1, 2 and 25 columns, with column 0 and the last column among
    # them, give exactly those columns of np.sort, and leave each row a
    # reordering of itself. Rows are longer than 256 values, below which
    # numpy's partition may sort the whole row and hide a missing sort.
    data, tracts = lattice_design(18, 20, seed=3)
    d2 = gwr._pairwise_distances(data, tracts)
    n = data.n
    assert all(len(np.unique(row)) < n - 30 for row in d2)
    blocks = [
        [0], [1], [11], [n // 2], [n - 2], [n - 1],
        [0, 1], [0, n - 1], [3, 40], [n - 2, n - 1],
        list(range(25)), list(range(30, 55)), list(range(n - 25, n)),
        np.unique(np.linspace(0, n - 1, 25).astype(int)).tolist(),
    ]
    assert {len(cols) for cols in blocks} == {1, 2, 25}
    ordered = np.sort(d2, axis=1)
    for cols in blocks:
        for s in (0, 37, n - 5):
            rows = d2[s : s + 5].copy()
            got = gwr._order_stats(rows, np.asarray(cols))
            assert np.array_equal(got, ordered[s : s + 5][:, cols]), cols
            assert np.array_equal(np.sort(rows, axis=1), ordered[s : s + 5])


def test_order_stats_at_the_ends_and_across_gaps():
    # k in {1, 2, n - 1, n} alone and together, and blocks whose columns
    # leave gaps, on rows that tie many values: a one-column block takes a
    # single partition, a wider one partitions at both ends and sorts only
    # between them, and every column equals np.sort's.
    data, tracts = lattice_design(17, 19, seed=5)
    d2 = gwr._pairwise_distances(data, tracts)
    n = data.n
    ordered = np.sort(d2, axis=1)
    blocks = [[0], [1], [n - 2], [n - 1], [0, 1], [n - 2, n - 1], [0, 1, n - 2, n - 1],
              [2, 9, 40, n // 2, n - 3], [5, 6, 200]]
    for cols in blocks:
        for s in (0, 101, n - 3):
            rows = d2[s : s + 3].copy()
            got = gwr._order_stats(rows, np.asarray(cols))
            assert np.array_equal(got, ordered[s : s + 3][:, cols]), cols
            assert np.array_equal(np.sort(rows, axis=1), ordered[s : s + 3])


def lattice_design(rows, cols, seed):
    """A rows x cols lattice with y = 1 + 2 x1 + noise."""
    tracts = grid_tracts(rows, cols)
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(len(tracts)), rng.uniform(0, 1, len(tracts))])
    y = X @ np.array([1.0, 2.0]) + rng.normal(0, 0.1, len(tracts))
    return design_from_arrays(y, X, ids=tracts.ids), tracts


def traced_peak(fn, *args, **kwargs):
    """Bytes traced at fn's peak beyond what was traced when it was called."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture()
def small_chunk_lattice(monkeypatch):
    """A 900-tract design with 32-row chunks, its n x n matrix size and its
    chunk size in bytes."""
    data, tracts = lattice_design(30, 30, seed=5)
    monkeypatch.setattr(gwr, "CHUNK_CELLS", 32 * data.n)
    return data, tracts, 8 * data.n * data.n, 8 * gwr.CHUNK_CELLS


def test_select_bandwidth_holds_one_distance_matrix(small_chunk_lattice):
    # The n x n distance matrix, the workspace and the k-th neighbor columns;
    # no sorted n x n copy.
    data, tracts, matrix, chunk = small_chunk_lattice
    peak = traced_peak(select_bandwidth, data, tracts, 4, 14, method="exhaustive")
    assert matrix <= peak <= matrix + 3 * chunk


def test_fit_gwr_holds_no_distance_matrix(small_chunk_lattice):
    data, tracts, matrix, _ = small_chunk_lattice
    peak = traced_peak(fit_gwr, data, tracts, KernelSpec(neighbors_k=12))
    assert peak < matrix / 2


@pytest.mark.parametrize("aicc_loo", [False, True])
def test_fit_gwr_allocates_no_chunk_temporaries(small_chunk_lattice, aicc_loo):
    # Beyond the kernel rows and their keep mask: the second chunk fit_gwr
    # allocates beside the workspace (dy, W*W, residuals, deviations), rhs_t
    # and numpy's fixed ufunc buffers.
    # Allocating W*W, the residuals or a dy chunk anew would add a chunk.
    data, tracts, _, chunk = small_chunk_lattice
    kernel = KernelSpec(neighbors_k=12)
    peak = traced_peak(fit_gwr, data, tracts, kernel, aicc_loo=aicc_loo)
    assert peak <= chunk + chunk // 8 + 2.5 * chunk


@pytest.mark.parametrize("aicc_loo", [False, True])
def test_select_bandwidth_skips_se_and_r2_diagnostics(gradient_scenario, monkeypatch, aicc_loo):
    calls = {"_fit_chunk": 0, "_solve_chunk": 0, "fit_gwr": 0}
    for name in calls:
        real = getattr(gwr, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(gwr, name, spy)
    sc = gradient_scenario
    k, _ = select_bandwidth(sc.design, sc.tracts, 4, sc.design.n, aicc_loo=aicc_loo)
    assert calls == {"_fit_chunk": 0, "_solve_chunk": len(GOLDEN_KS["gradient_scenario"]),
                     "fit_gwr": 0}
    gwr.fit_gwr(sc.design, sc.tracts, KernelSpec(neighbors_k=k), aicc_loo=aicc_loo)
    assert calls["_fit_chunk"] == calls["fit_gwr"] == 1


@pytest.mark.parametrize("spoiled", [np.nan, 1e300])
def test_gwr_nonfinite_batched_se_is_nan_and_keeps_aicc(
    gradient_scenario, fit_local_calls, monkeypatch, spoiled
):
    # A sound batched system whose SE factors are not finite after the solve
    # (NaN, or inf from an overflow): the tract keeps its batched fit, so the
    # ok mask and AICc stay the search's, and only its SEs and t are NaN.
    sc = gradient_scenario
    kernel = KernelSpec(neighbors_k=12)
    want = fit_gwr(sc.design, sc.tracts, kernel)
    assert not want.failed and not fit_local_calls
    real_solve = gwr._solve_chunk

    def spoil_first_row(data, d2, bw, rhs, s, aicc_loo, work):
        c = real_solve(data, d2, bw, rhs, s, aicc_loo, work)
        if s == 0:
            c.M[0] = spoiled * np.eye(c.M.shape[1])
        return c

    monkeypatch.setattr(gwr, "_solve_chunk", spoil_first_row)
    fit = fit_gwr(sc.design, sc.tracts, kernel)
    assert not fit_local_calls
    assert fit.failed == ()
    assert fit.aicc.hex() == want.aicc.hex()
    assert np.isnan(fit.local_se[0]).all() and np.isnan(fit.local_t[0]).all()
    assert np.array_equal(fit.local_se[1:], want.local_se[1:])
    assert np.array_equal(fit.local_coefficients, want.local_coefficients)
    assert np.array_equal(fit.local_r2_raw, want.local_r2_raw)
