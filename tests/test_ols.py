import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from helpers import criterion1_designs, design_from_arrays, hc1_by_hand, normal_equations_beta
from tracteq.errors import SingularityError, ValidationError
from tracteq.ols import fit_ols, robust_covariance


def test_exact_line_recovered():
    x = np.arange(10.0)
    y = 3.0 + 2.0 * x
    fit = fit_ols(design_from_arrays(y, np.column_stack([np.ones(10), x])))
    assert np.allclose(fit.coefficients, [3.0, 2.0], atol=1e-12)
    assert fit.r_squared == 1.0
    assert np.allclose(fit.residuals, 0.0, atol=1e-12)


def test_three_point_hand_solution():
    # x = 1,2,3; y = 1,2,2. Normal equations give intercept 2/3, slope 1/2.
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([1.0, 2.0, 2.0])
    fit = fit_ols(design_from_arrays(y, np.column_stack([np.ones(3), x])))
    assert math.isclose(fit.coefficients[0], 2.0 / 3.0, abs_tol=1e-12)
    assert math.isclose(fit.coefficients[1], 0.5, abs_tol=1e-12)
    # R^2 = 1 - rss/tss with rss = 1/6, tss = 2/3
    assert math.isclose(fit.r_squared, 0.75, abs_tol=1e-12)


def test_matches_normal_equations_on_random_draws(rng):
    for _ in range(30):
        n = int(rng.integers(8, 60))
        p = int(rng.integers(2, 5))
        X = np.column_stack([np.ones(n), rng.normal(0, 3, (n, p - 1))])
        y = rng.normal(0, 2, n)
        fit = fit_ols(design_from_arrays(y, X))
        assert np.max(np.abs(fit.coefficients - normal_equations_beta(X, y))) < 1e-10


def test_fit_reports_shapes_and_counts():
    X = np.column_stack([np.ones(6), np.arange(6.0), np.arange(6.0) ** 2])
    y = np.arange(6.0)
    fit = fit_ols(design_from_arrays(y, X))
    assert fit.n == 6
    assert fit.k == 2
    assert fit.coefficients.shape == fit.robust_se.shape == fit.t_stats.shape == (3,)


def test_hc1_matches_hand_sandwich(rng):
    for _ in range(20):
        n = int(rng.integers(4, 11))
        X = np.column_stack([np.ones(n), rng.normal(0, 1, n)])
        e = rng.normal(0, 1, n)
        got = robust_covariance(X, e)
        want = hc1_by_hand(X, e)
        assert np.max(np.abs(got - want)) < 1e-10


def test_hc1_constant_residuals_closed_form():
    # e_i = c for all i collapses the sandwich to c^2 * n/(n-p) * (X'X)^-1
    X = np.column_stack([np.ones(5), np.array([1.0, 2.0, 3.0, 4.0, 5.0])])
    c = 0.7
    e = np.full(5, c)
    want = c * c * (5 / 3) * np.linalg.inv(X.T @ X)
    assert np.max(np.abs(robust_covariance(X, e) - want)) < 1e-12


def test_hc1_zero_residuals_zero_matrix():
    X = np.column_stack([np.ones(4), np.array([0.0, 1.0, 2.0, 4.0])])
    cov = robust_covariance(X, np.zeros(4))
    assert np.all(cov == 0.0)


def test_hc1_is_symmetric_psd(rng):
    n = 40
    X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, 3))])
    e = rng.normal(0, 2, n)
    cov = robust_covariance(X, e)
    assert np.array_equal(cov, cov.T)
    assert np.min(np.linalg.eigvalsh(cov)) > -1e-12


def test_hc1_rejects_mismatched_lengths():
    X = np.ones((4, 1))
    with pytest.raises(ValidationError):
        robust_covariance(X, np.zeros(3))


def test_predictor_scaling_invariance(rng):
    n = 50
    x = rng.normal(0, 1, n)
    y = 1.0 + 0.5 * x + rng.normal(0, 0.3, n)
    base = fit_ols(design_from_arrays(y, np.column_stack([np.ones(n), x])))
    c = 1000.0
    scaled = fit_ols(design_from_arrays(y, np.column_stack([np.ones(n), c * x])))
    assert math.isclose(scaled.coefficients[1], base.coefficients[1] / c, rel_tol=1e-9)
    assert math.isclose(scaled.robust_se[1], base.robust_se[1] / c, rel_tol=1e-9)
    assert math.isclose(scaled.t_stats[1], base.t_stats[1], rel_tol=1e-9)
    assert math.isclose(scaled.r_squared, base.r_squared, rel_tol=1e-12)


def test_residuals_orthogonal_to_design(rng):
    n = 30
    X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, 2))])
    y = rng.normal(0, 1, n)
    fit = fit_ols(design_from_arrays(y, X))
    assert np.max(np.abs(X.T @ fit.residuals)) < 1e-9


def test_duplicate_column_raises_singularity():
    x = np.arange(5.0)
    X = np.column_stack([np.ones(5), x, x])
    with pytest.raises(SingularityError, match="x2"):
        fit_ols(design_from_arrays(np.arange(5.0), X))


def test_constant_predictor_collides_with_intercept():
    X = np.column_stack([np.ones(6), np.full(6, 3.0)])
    with pytest.raises(SingularityError):
        fit_ols(design_from_arrays(np.arange(6.0), X))


def test_too_few_observations():
    X = np.column_stack([np.ones(2), np.array([1.0, 2.0])])
    with pytest.raises(ValidationError):
        fit_ols(design_from_arrays(np.array([1.0, 2.0]), X))


def test_constant_response_r_squared():
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    fit = fit_ols(design_from_arrays(np.full(5, 4.0), X))
    # tss = 0 and the fit is exact, so R^2 reports 1
    assert fit.r_squared == 1.0


def test_t_stats_zero_when_se_zero():
    # y identically zero solves exactly, so the sandwich is the zero matrix
    # and the t ratio must not divide by zero
    x = np.arange(8.0)
    fit = fit_ols(design_from_arrays(np.zeros(8), np.column_stack([np.ones(8), x])))
    assert np.all(fit.robust_se == 0.0)
    assert np.all(fit.t_stats == 0.0)


def ols_by_scipy_triangular_solves(X, y):
    """beta and HC1 SE from the same QR factor as fit_ols, solved with
    scipy's solve_triangular: the reference for fit_ols's numpy solves."""
    n, p = X.shape
    Q, R = np.linalg.qr(X)
    beta = solve_triangular(R, Q.T @ y)
    e = y - X @ beta
    r_inv = solve_triangular(R, np.eye(p))
    bread = r_inv @ r_inv.T
    cov = (n / (n - p)) * bread @ ((X * (e * e)[:, None]).T @ X) @ bread
    return beta, np.sqrt(np.maximum(np.diag((cov + cov.T) / 2.0), 0.0))


@pytest.mark.parametrize("source", ["criterion_1", "step_scenario", "gradient_scenario"])
def test_fit_ols_matches_scipy_triangular_solves(source, request):
    if source == "criterion_1":
        designs = list(criterion1_designs())
    else:
        design = request.getfixturevalue(source).design
        designs = [(design.X, design.y)]
    for X, y in designs:
        fit = fit_ols(design_from_arrays(y, X))
        beta, se = ols_by_scipy_triangular_solves(X, y)
        np.testing.assert_allclose(fit.coefficients, beta, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(fit.robust_se, se, rtol=1e-12, atol=0.0)
