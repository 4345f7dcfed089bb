"""Global least squares with heteroskedasticity-robust (HC1) standard errors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data_model import DesignData
from .errors import SingularityError, ValidationError

# Relative rank tolerance on the orthogonal-decomposition diagonal.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    robust_se: np.ndarray
    t_stats: np.ndarray
    r_squared: float
    residuals: np.ndarray
    n: int
    k: int
    column_names: tuple[str, ...]


def _checked_qr(X: np.ndarray, column_names: Sequence[str] | None = None):
    """QR with an explicit rank check naming the offending columns.

    R then has a nonzero diagonal, so np.linalg.solve on it pivots nothing
    and is a back substitution.
    """
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    if diag.size == 0:
        raise SingularityError("empty design matrix")
    bad = np.flatnonzero(diag <= RANK_RTOL * diag.max())
    if bad.size:
        if column_names is not None:
            names = ", ".join(column_names[i] for i in bad)
        else:
            names = ", ".join(f"column {i}" for i in bad)
        raise SingularityError(f"design matrix is rank deficient: {names}")
    return Q, R


def robust_covariance(X: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """HC1 sandwich covariance (n/(n-k-1)) (X'X)^-1 X'diag(e^2)X (X'X)^-1."""
    X = np.asarray(X, dtype=float)
    e = np.asarray(residuals, dtype=float)
    n, p = X.shape
    if e.shape != (n,):
        raise ValidationError(f"residual length {e.shape} does not match n={n}")
    if n <= p:
        raise ValidationError(f"need n > k+1, got n={n}, k+1={p}")
    _, R = _checked_qr(X)
    r_inv = np.linalg.solve(R, np.eye(p))
    xtx_inv = r_inv @ r_inv.T
    meat = (X * (e * e)[:, None]).T @ X
    cov = (n / (n - p)) * xtx_inv @ meat @ xtx_inv
    return (cov + cov.T) / 2.0


def fit_ols(data: DesignData) -> OlsFit:
    """Least squares via orthogonal decomposition, HC1 errors, centered R^2."""
    n, p = data.X.shape
    if n <= p:
        raise ValidationError(f"need n > k+1 observations, got n={n}, k+1={p}")
    Q, R = _checked_qr(data.X, data.column_names)
    beta = np.linalg.solve(R, Q.T @ data.y)
    residuals = data.y - data.X @ beta
    rss = float(residuals @ residuals)
    tss = float(np.sum((data.y - data.y.mean()) ** 2))
    if tss > 0.0:
        r_squared = min(1.0, max(0.0, 1.0 - rss / tss))
    else:
        r_squared = 1.0 if rss <= 1e-24 else 0.0

    cov = robust_covariance(data.X, residuals)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    t = np.divide(beta, se, out=np.zeros_like(beta), where=se > 0)
    return OlsFit(
        coefficients=beta,
        robust_se=se,
        t_stats=t,
        r_squared=r_squared,
        residuals=residuals,
        n=n,
        k=p - 1,
        column_names=tuple(data.column_names),
    )
