"""Geographically weighted regression with an adaptive Gaussian kernel.

Each design row gets its own weighted least-squares fit, with weights
decaying by centroid distance (_kernel) under a bandwidth set adaptively as
the distance to the neighbors_k-th nearest design row (the row itself counts
as its first neighbor; tracts the complete-case filter dropped do not count).
The neighbor count is chosen by minimizing small-sample-corrected AIC.

fit_gwr solves every local fit for one bandwidth at once from the normal
equations, a chunk of kernel rows at a time (after FastGWR, Li et al. 2019).
fit_local is the per-tract QR fit; it is the oracle for the batched path and
refits every tract whose batched system is marginal. select_bandwidth runs
only the solve core each candidate's AICc needs; the SEs and local R^2 are
computed by fit_gwr alone (the "lite" search fit of mgwr, Oshan et al. 2019).

Distances are held squared, as in FastGWR and mgwr: the n x n matrix of
the search and each chunk of fit_gwr's rows hold dx*dx + dy*dy, the k-th
neighbor order statistics are taken on those, and each bandwidth is the
square root of its order statistic, which has the bits of the k-th nearest
distance because sqrt is monotone and correctly rounded. Per candidate and
chunk the search pays for the kernel rows (one multiply and one exp per
cell, with no check of distances it built itself), their truncation at
WEIGHT_FLOOR in place, one q x m product rhs_t @ W.T for every local
system, and the small batched solves; the k-th neighbor distances of a
block of candidates come from one partition of each chunk at the block's
largest k and a sort of the columns before it. A system with fewer active
rows than terms is rank-deficient, so the solve marks it unsound and
fit_local fails it; only leave-one-out systems, which subtract the tract's
own row and keep that subtraction's rounding, have their active rows
counted.

Memory stays near one n x n matrix. select_bandwidth keeps the n x n
squared-distance matrix for the whole search, because rebuilding its rows
for every candidate would cost more than the candidate's fit. fit_gwr holds
no n x n array: it builds each chunk's squared-distance rows as it needs
them. Each search and each fit allocates one chunk workspace (see
_Workspace) and reuses it for every chunk's order statistics,
squared-distance rows and kernel weights;
fit_gwr allocates one more chunk for its temporaries.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .data_model import DesignData, TractSet
from .errors import SelectionError, ValidationError
from .ols import RANK_RTOL
from .report import SIG_T

log = logging.getLogger(__name__)

# Kernel weights below this are truncated to zero so far-away rows drop out
# of the local solves entirely.
WEIGHT_FLOOR = 1e-12

# AICc ties within this tolerance are broken toward larger neighbor counts.
TIE_TOL = 1e-9

# Ranges at most this wide are scanned exhaustively instead of golden-section.
EXHAUSTIVE_LIMIT = 25

# Every chunk of the search and of fit_gwr spans this many cells (rows x n),
# so the reused workspace and each chunk temporary stay at 2 MiB whatever
# the number of tracts. It also fixes GWR's last bits: the product
# rhs_t @ W.T rounds differently when a chunk's row count changes.
CHUNK_CELLS = 1 << 18

# A batched local system is marginal, and is refitted by fit_local, when its
# equilibrated Cholesky factor has a pivot below PIVOT_MIN (normal equations
# square the condition number, so precision goes first there), or when its
# raw Cholesky diagonal ratio is within RANK_MARGIN of the RANK_RTOL test
# fit_local applies to diag(R).
PIVOT_MIN = 1e-4
RANK_MARGIN = 1e3


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, with its thread-count functions typed; None,
    after one warning, when numpy has no such library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        lib = ctypes.CDLL(sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))[0])
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        log.warning("numpy's bundled OpenBLAS not found: GWR runs on the caller's BLAS "
                    "threads, so its last digits may change with their number")
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return lib


def _one_blas_thread(fn):
    """fn run with one OpenBLAS thread, the caller's count restored after:
    BLAS splits its sums by thread, so GWR's last digits would otherwise
    depend on OPENBLAS_NUM_THREADS."""

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        lib = _openblas()
        if lib is None:
            return fn(*args, **kwargs)
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(1)
        try:
            return fn(*args, **kwargs)
        finally:
            lib.scipy_openblas_set_num_threads64_(before)

    return pinned


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel with an adaptive per-tract bandwidth.

    bandwidth_scale multiplies every adaptive bandwidth; values around 1e6
    flatten the kernel so local fits degenerate to the global fit, which is
    useful as a diagnostic.
    """

    neighbors_k: int
    bandwidth_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.bandwidth_scale > 0:
            raise ValueError(f"bandwidth_scale must be > 0, got {self.bandwidth_scale}")


@dataclass(frozen=True)
class LocalFit:
    """One tract's weighted fit. se_unit is the unit-sigma covariance diagonal;
    the caller scales it by the model-wide residual sigma."""

    ok: bool
    coefficients: np.ndarray
    se_unit: np.ndarray
    hat_row: np.ndarray
    hat_diag: float
    fitted: float
    local_r2: float
    local_r2_raw: float
    message: str = ""


@dataclass(frozen=True)
class GwrFit:
    local_coefficients: np.ndarray  # n x (k+1); NaN rows where the local fit failed
    local_se: np.ndarray
    local_t: np.ndarray
    local_r2: np.ndarray
    local_r2_raw: np.ndarray
    hat_diag: np.ndarray
    bandwidths: np.ndarray
    trace_S: float
    rss: float
    sigma2: float
    aicc: float
    neighbors_k: int
    failed: tuple[str, ...]
    column_names: tuple[str, ...]
    tract_ids: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.local_coefficients.shape[0]


@dataclass(frozen=True)
class GwrSummary:
    column_names: tuple[str, ...]
    mean: np.ndarray
    min: np.ndarray
    max: np.ndarray
    pct_sig_neg: np.ndarray  # share of tracts with t < -SIG_T, in [0, 1]
    pct_sig_pos: np.ndarray
    mean_local_r2: float
    min_local_r2: float
    max_local_r2: float
    neighbors_k: int
    aicc: float
    n_used: int
    n_failed: int


def _kernel(d2: np.ndarray, bandwidth, out: np.ndarray | None = None) -> np.ndarray:
    """The Gaussian kernel weights exp(-(d / bandwidth)^2 / 2) from the
    squared distances d2 = d*d, with the bits of
    np.exp(d2 * (-0.5 / (bandwidth * bandwidth))): one multiply and one exp
    per cell, 1 at d = 0 and non-increasing in d. Wherever they are kept
    they are within 1e-13 relative of the textbook formula (the tests'
    bound; 1.1e-14 measured).

    bandwidth is a scalar or an array broadcasting against d2 (one bandwidth
    per row of squared-distance rows); its factor is formed once, so the
    search and fit_gwr, given the same bandwidths, give the same bits. The
    weights go to out when it is given, which may be d2 itself, and
    otherwise to one new array. Nothing is checked: d2 holds squared
    distances this module built (never negative), under bandwidths
    _check_bandwidths passed.
    """
    w = np.asarray(np.multiply(d2, -0.5 / (bandwidth * bandwidth), out=out))
    return np.exp(w, out=w)


def _distance_matrix(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    dy: np.ndarray | None = None,
) -> np.ndarray:
    """Squared Euclidean distances between the points of a (m x 2) and
    b (n x 2).

    Each cell is dx*dx + dy*dy, in that order of operations, so its square
    root is bit-identical to the usual pairwise-distance routines. Rows are
    built in chunks of CHUNK_CELLS, so the only temporary beside the m x n
    result is one chunk of dy*dy. The result goes to out (m x n) when it is
    given, and dy*dy to dy (at least one chunk of rows by n) when it is
    given.
    """
    out = np.empty((len(a), len(b))) if out is None else out
    rows = max(1, CHUNK_CELLS // max(1, len(b)))
    dy = np.empty((min(rows, len(a)), len(b))) if dy is None else dy
    for s in range(0, len(a), rows):
        block = out[s : s + rows]
        np.subtract(a[s : s + rows, :1], b[:, 0], out=block)
        block *= block
        dy_block = dy[: len(block)]
        np.subtract(a[s : s + rows, 1:], b[:, 1], out=dy_block)
        dy_block *= dy_block
        block += dy_block
    return out


def _order_stats(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Columns cols of rows sorted along axis 1, as a new array; rows is
    reordered in place. A partition at the largest column puts its order
    statistic in place and every smaller value before it; a partition of
    that prefix at the smallest column does the same there, and a sort of
    the columns between them puts the rest in place. So each value is an
    exact order statistic of its row, and a one-column block takes one
    partition."""
    first, last = min(cols), max(cols)
    rows.partition(last, axis=1)
    if first < last:
        rows[:, :last].partition(first, axis=1)
        rows[:, first + 1 : last].sort(axis=1)
    return rows[:, cols]


def _solve_normal(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a stack of normal equations A beta = b (m x p x p and m x p).

    Returns beta, M = A^-1 and a mask of the sound systems. Each A is
    equilibrated by its diagonal and Cholesky-factored column by column
    across the whole stack; a system is unsound when a scaled pivot is below
    PIVOT_MIN, when its raw diagonal ratio is within RANK_MARGIN of RANK_RTOL,
    or when it is not positive definite (NaN pivots compare False).
    """
    p = b.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sqrt(np.einsum("mii->mi", A))
        scale = d[:, :, None] * d[:, None, :]
        As = A / scale
        L = np.zeros_like(As)
        for j in range(p):
            L[:, j, j] = np.sqrt(As[:, j, j] - np.einsum("mk,mk->m", L[:, j, :j], L[:, j, :j]))
            for i in range(j + 1, p):
                dot = np.einsum("mk,mk->m", L[:, i, :j], L[:, j, :j])
                L[:, i, j] = (As[:, i, j] - dot) / L[:, j, j]
        L_inv = np.zeros_like(L)
        for i in range(p):
            L_inv[:, i, i] = 1.0 / L[:, i, i]
            for j in range(i):
                dot = np.einsum("mk,mk->m", L[:, i, j:i], L_inv[:, j:i, j])
                L_inv[:, i, j] = -dot / L[:, i, i]
        M = np.einsum("mki,mkj->mij", L_inv, L_inv) / scale
        beta = np.einsum("mij,mj->mi", M, b)
        pivots = np.einsum("mii->mi", L)
        raw = pivots * d
        sound = (pivots.min(axis=1) >= PIVOT_MIN) & (
            raw.min(axis=1) > RANK_RTOL * RANK_MARGIN * raw.max(axis=1)
        )
    return beta, M, sound


def fit_local(data: DesignData, weights: np.ndarray, j: int) -> LocalFit:
    """Weighted least squares for one tract.

    Returns coefficients, the unit-sigma SE diagonal, the full hat row
    (x_j (X'WX)^-1 X'W scattered over all n rows), and the weighted local R^2
    centered on the weighted mean of y. Local rank deficiency is reported via
    ok=False rather than an exception so a whole-surface fit can continue.
    """
    X, y = data.X, data.y
    n, p = X.shape
    w = np.asarray(weights, dtype=float)
    w = np.where(w > WEIGHT_FLOOR, w, 0.0)
    active = np.flatnonzero(w)
    nan_vec = np.full(p, np.nan)

    def failed(msg: str) -> LocalFit:
        return LocalFit(
            ok=False,
            coefficients=nan_vec,
            se_unit=nan_vec.copy(),
            hat_row=np.full(n, np.nan),
            hat_diag=math.nan,
            fitted=math.nan,
            local_r2=math.nan,
            local_r2_raw=math.nan,
            message=msg,
        )

    if active.size < p:
        return failed(f"only {active.size} active rows for {p} terms")

    wa = w[active]
    sw = np.sqrt(wa)
    Xa = X[active]
    Xw = Xa * sw[:, None]
    Q, R = np.linalg.qr(Xw)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or np.any(diag <= RANK_RTOL * diag.max()):
        return failed("locally rank-deficient design")

    beta = np.linalg.solve(R, Q.T @ (y[active] * sw))
    r_inv = np.linalg.solve(R, np.eye(p))
    M = r_inv @ r_inv.T  # (X'WX)^-1

    xj = X[j]
    v = M @ xj
    hat_active = (Xa @ v) * wa
    hat_row = np.zeros(n)
    hat_row[active] = hat_active
    hat_diag = float(hat_row[j])
    fitted = float(hat_row @ y)

    B = Xa @ M
    se_unit = np.sqrt(np.einsum("i,ij,ij->j", wa * wa, B, B))

    resid = y[active] - Xa @ beta
    rss_w = float(wa @ (resid * resid))
    ybar_w = float(wa @ y[active]) / float(wa.sum())
    dev = y[active] - ybar_w
    tss_w = float(wa @ (dev * dev))
    if tss_w > 0.0:
        r2_raw = 1.0 - rss_w / tss_w
    else:
        r2_raw = 1.0 if rss_w <= 1e-24 else 0.0
    return LocalFit(
        ok=True,
        coefficients=beta,
        se_unit=se_unit,
        hat_row=hat_row,
        hat_diag=hat_diag,
        fitted=fitted,
        local_r2=min(1.0, max(0.0, r2_raw)),
        local_r2_raw=r2_raw,
    )


class _Workspace:
    """One chunk's rows, allocated once per search or fit and reused by every
    chunk. A chunk is CHUNK_CELLS // n rows (at least one, at most n).

    W holds the chunk's squared-distance rows or their order statistics and
    then its kernel weights, drop the mask of weights at or below
    WEIGHT_FLOOR.
    """

    def __init__(self, n: int) -> None:
        self.rows = min(n, max(1, CHUNK_CELLS // n))
        self.W = np.empty((self.rows, n))
        self.drop = np.empty((self.rows, n), dtype=bool)


@dataclass
class _Solved:
    """One chunk of local fits from the solve core (see _solve_chunk)."""

    W: np.ndarray  # kernel rows, truncated at WEIGHT_FLOOR; a view of the workspace
    G: np.ndarray  # W @ rhs, as the transpose of rhs_t @ W.T
    coefficients: np.ndarray
    M: np.ndarray  # (X'WX)^-1 of each batched system
    hat_diag: np.ndarray
    fitted: np.ndarray  # the values AICc uses: leave-one-out ones under aicc_loo
    ok: np.ndarray
    refits: dict[int, LocalFit]  # chunk row -> fit_local result, for refitted tracts


def _solve_chunk(
    data: DesignData,
    d2: np.ndarray,
    bw: np.ndarray,
    rhs_t: np.ndarray,
    s: int,
    aicc_loo: bool,
    work: _Workspace,
) -> _Solved:
    """Local fits for tracts s..s+len(d2)-1 from their squared-distance rows
    d2, all at once, with only what AICc reads: coefficients, hat diagonal,
    fitted values and ok.

    The kernel rows and their drop mask are written into work (d2 may be
    work.W itself), so they are valid until the next chunk; the weights at
    or below WEIGHT_FLOOR are zeroed in place. Column i of rhs_t is
    [vec(x_i x_i'), x_i y_i, y_i] (see _kernel_rhs), so rhs_t @ W.T gives
    every local X'WX, X'Wy and the weighted sum of y in one product.
    Tracts whose batched system is marginal, or whose coefficients, hat
    value or fitted value is not finite, are refitted by fit_local, so the
    bandwidth search and fit_gwr make the same fallbacks and the same
    ok/failed decisions.
    """
    X = data.X
    p = X.shape[1]
    e = s + len(d2)
    own = np.arange(e - s), np.arange(s, e)
    W = _kernel(d2, bw[s:e, None], out=work.W[: e - s])
    drop = np.less_equal(W, WEIGHT_FLOOR, out=work.drop[: e - s])
    np.copyto(W, 0.0, where=drop)
    w_own = W[own]
    # The q x m product is faster than W @ rhs with one BLAS thread.
    G = (rhs_t @ W.T).T
    beta, M, ok = _solve_normal(G[:, : p * p].reshape(-1, p, p), G[:, p * p : p * p + p])
    Xc = X[s:e]
    with np.errstate(invalid="ignore"):
        hat_diag = w_own * np.einsum("mi,mij,mj->m", Xc, M, Xc)
    fitted = np.einsum("mi,mi->m", Xc, beta)
    ok &= np.isfinite(hat_diag) & np.isfinite(fitted)
    ok &= np.isfinite(beta).all(axis=1)
    refits: dict[int, LocalFit] = {}
    for r in np.flatnonzero(~ok):
        local = refits[r] = fit_local(data, W[r], s + r)
        beta[r], hat_diag[r], fitted[r], ok[r] = (
            local.coefficients, local.hat_diag, local.fitted, local.ok
        )

    if aicc_loo:
        # Leave-one-out systems: tract j's own row taken out of its X'WX and X'Wy.
        G_loo = G[:, : p * p + p] - w_own[:, None] * rhs_t[: p * p + p, s:e].T
        beta_loo, _, sound = _solve_normal(
            G_loo[:, : p * p].reshape(-1, p, p), G_loo[:, p * p :]
        )
        fitted = np.einsum("mi,mi->m", Xc, beta_loo)
        sound &= np.isfinite(fitted)
        # The subtraction leaves rounding of the own row's size, which can
        # make a short system of rows weighing ~1e-8 or less look sound.
        sound &= W.shape[1] - np.count_nonzero(drop, axis=1) - (w_own > 0.0) >= p
        for r in np.flatnonzero(ok & ~sound):
            w_loo = W[r].copy()
            w_loo[s + r] = 0.0
            # NaN coefficients from a failed refit leave a NaN fitted value.
            fitted[r] = X[s + r] @ fit_local(data, w_loo, s + r).coefficients
        fitted[~ok] = np.nan
    return _Solved(W, G, beta, M, hat_diag, fitted, ok, refits)


def _fit_chunk(
    data: DesignData,
    d2: np.ndarray,
    bw: np.ndarray,
    rhs_t: np.ndarray,
    s: int,
    aicc_loo: bool,
    work: _Workspace,
    tmp: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """fit_gwr's chunk: the solve core plus the diagnostics AICc does not read.

    Returns coefficients, unit-sigma SEs (the SE factors come from
    (W*W) @ vec(x x')), hat diagonal, raw local R^2, fitted values and the
    ok mask. Tracts the core refitted take fit_local's SEs and R^2; any other
    SE or R^2 is the batched one, NaN where it is not finite, so the ok mask
    and AICc stay those of the solve core. W*W, the residuals and the
    deviations go in turn to tmp (a chunk of rows of work's size), so a
    chunk allocates nothing of its size.
    """
    X, y = data.X, data.y
    p = X.shape[1]
    c = _solve_chunk(data, d2, bw, rhs_t, s, aicc_loo, work)
    W, beta = c.W, c.coefficients
    tmp = tmp[: len(W)]
    with np.errstate(invalid="ignore", divide="ignore"):
        ww = np.multiply(W, W, out=tmp)
        B = (ww @ rhs_t[: p * p].T).reshape(-1, p, p)
        se_unit = np.sqrt(np.einsum("mca,mab,mcb->mc", c.M, B, c.M))
        resid = np.subtract(y, np.matmul(beta, X.T, out=tmp), out=tmp)
        rss_w = np.einsum("mi,mi,mi->m", W, resid, resid)
        dev = np.subtract(y, c.G[:, -1:] / W.sum(axis=1, keepdims=True), out=tmp)
        tss_w = np.einsum("mi,mi,mi->m", W, dev, dev)
        r2_raw = np.where(
            tss_w > 0.0, 1.0 - rss_w / tss_w, np.where(rss_w <= 1e-24, 1.0, 0.0)
        )
    se_unit[~np.isfinite(se_unit)] = np.nan
    r2_raw[~np.isfinite(r2_raw)] = np.nan
    for r, local in c.refits.items():
        se_unit[r], r2_raw[r] = local.se_unit, local.local_r2_raw
    return beta, se_unit, c.hat_diag, r2_raw, c.fitted, c.ok


def _search_aicc(
    data: DesignData,
    d2: np.ndarray,
    bw: np.ndarray,
    rhs_t: np.ndarray,
    aicc_loo: bool,
    work: _Workspace,
) -> float:
    """fit_gwr's AICc at the bandwidths bw, from the solve core alone: the
    bandwidth search reads nothing else, so it skips the SEs and local R^2.
    Chunks span work.rows rows of the n x n squared distances d2, as
    fit_gwr's do."""
    _check_bandwidths(data, bw)
    parts = []
    for s in range(0, data.n, work.rows):
        c = _solve_chunk(data, d2[s : s + work.rows], bw, rhs_t, s, aicc_loo, work)
        parts.append((c.hat_diag, c.fitted, c.ok))
    hat_diag, fitted, ok = (np.concatenate(part) for part in zip(*parts))
    return _aicc_terms(data, hat_diag, fitted, ok)[3]


def _kernel_rhs(data: DesignData) -> np.ndarray:
    """rhs_t, the transpose of the right-hand side of W @ rhs: column i is
    [vec(x_i x_i'), x_i y_i, y_i]. It is built once per search or fit, as a
    C-contiguous q x n array for rhs_t @ W.T."""
    X, y = data.X, data.y
    n, p = X.shape
    xx = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)
    return np.vstack([xx.T, (X * y[:, None]).T, y])


def _check_k_range(data: DesignData, k_min: int, k_max: int) -> None:
    """The neighbour-count rule of the search and the fit: p + 1 <= k_min <= k_max <= n."""
    n, p = data.X.shape
    if not p + 1 <= k_min <= k_max <= n:
        raise ValidationError(f"gwr k range [{k_min}, {k_max}] must lie within "
                              f"[{p + 1}, {n}] (terms + 1, tracts)")


def _check_bandwidths(data: DesignData, bw: np.ndarray) -> None:
    # NaN too: the kernel of the search and fit checks no bandwidth itself.
    bad_bw = np.flatnonzero(~(bw > 0.0))
    if bad_bw.size:
        names = ", ".join(data.tract_ids[i] for i in bad_bw[:5])
        raise ValidationError(
            f"adaptive bandwidth is zero or NaN for {bad_bw.size} tract(s) ({names}); "
            "duplicate centroids within neighbors_k"
        )


def _aicc_terms(
    data: DesignData, hat_diag: np.ndarray, fitted: np.ndarray, ok: np.ndarray
) -> tuple[tuple[str, ...], float, float, float]:
    """Failed tracts, tr(S), RSS and AICc of a fit; any failure makes tr(S)
    and RSS NaN and AICc infinite."""
    n = data.n
    failed = tuple(data.tract_ids[i] for i in np.flatnonzero(~(ok & np.isfinite(fitted))))
    if failed:
        level = logging.WARNING if len(failed) > 0.1 * n else logging.INFO
        log.log(
            level,
            "%d of %d local fits failed: %s",
            len(failed),
            n,
            ", ".join(failed[:10]) + (", ..." if len(failed) > 10 else ""),
        )
        return failed, math.nan, math.nan, math.inf
    trace_s = float(hat_diag.sum())
    resid = data.y - fitted
    rss = float(resid @ resid)
    return failed, trace_s, rss, compute_aicc(rss, n, trace_s)


def compute_aicc(rss: float, n: int, trace_s: float) -> float:
    """AICc = n ln(RSS/n) + n ln(2 pi) + n (n + tr(S)) / (n - 2 - tr(S))."""
    if n - 2.0 - trace_s <= 0.0:
        return math.inf
    if rss <= 0.0:
        return -math.inf
    return (
        n * math.log(rss / n)
        + n * math.log(2.0 * math.pi)
        + n * (n + trace_s) / (n - 2.0 - trace_s)
    )


def _design_points(data: DesignData, tracts: TractSet) -> np.ndarray:
    """The centroids of the design rows, in design order (n x 2)."""
    return tracts.centroids[[tracts.index_of(tid) for tid in data.tract_ids]]


def _pairwise_distances(data: DesignData, tracts: TractSet) -> np.ndarray:
    """The n x n squared distances between the design rows."""
    pts = _design_points(data, tracts)
    return _distance_matrix(pts, pts)


def _distance_rows(pts: np.ndarray, s: int, work: _Workspace, dy: np.ndarray) -> np.ndarray:
    """The squared-distance rows of design rows s.. (one chunk), built in
    work.W with dy (a chunk of rows of work's size) for dy*dy; each cell has
    the bits of the n x n matrix's."""
    a = pts[s : s + work.rows]
    return _distance_matrix(a, pts, out=work.W[: len(a)], dy=dy)


@_one_blas_thread
def fit_gwr(
    data: DesignData,
    tracts: TractSet,
    kernel: KernelSpec,
    aicc_loo: bool = False,
) -> GwrFit:
    """Fit one local model per design row.

    Bandwidths adapt within the rows present in `data` (tracts dropped by
    complete-case filtering do not count as neighbors). Results are keyed by
    tract_id. All local fits for the bandwidth are solved in batches of
    kernel rows. `aicc_loo` switches the AICc residuals to leave-one-out
    fitted values (self weight zeroed before refitting); the default uses
    leave-in fitted values. `failed` lists the tracts whose local fit, or
    whose leave-one-out refit under `aicc_loo`, failed; any failure makes
    AICc infinite.
    """
    _check_k_range(data, kernel.neighbors_k, kernel.neighbors_k)
    n, p = data.X.shape
    # No n x n matrix: each pass builds a chunk's squared-distance rows in
    # the workspace. The first partitions them there for every bandwidth, so
    # that _check_bandwidths sees all n before any fit; the second fits.
    # tmp takes dy*dy and then the diagnostics' temporaries.
    pts = _design_points(data, tracts)
    work = _Workspace(n)
    tmp = np.empty_like(work.W)
    kth = [kernel.neighbors_k - 1]
    bw = np.sqrt(np.concatenate([
        _order_stats(_distance_rows(pts, s, work, tmp), kth)[:, 0]
        for s in range(0, n, work.rows)
    ])) * kernel.bandwidth_scale
    _check_bandwidths(data, bw)

    rhs_t = _kernel_rhs(data)
    chunks = [
        _fit_chunk(data, _distance_rows(pts, s, work, tmp), bw, rhs_t, s, aicc_loo, work, tmp)
        for s in range(0, n, work.rows)
    ]
    coef, se_unit, hat_diag, r2_raw, fitted, ok = (np.concatenate(c) for c in zip(*chunks))
    r2 = np.clip(r2_raw, 0.0, 1.0)

    failed, trace_s, rss, aicc = _aicc_terms(data, hat_diag, fitted, ok)
    if failed:
        sigma2 = math.nan
        se = np.full_like(se_unit, np.nan)
    else:
        denom = n - trace_s
        sigma2 = rss / denom if denom > 0 else math.nan
        se = se_unit * math.sqrt(sigma2) if math.isfinite(sigma2) else np.full_like(
            se_unit, np.nan
        )

    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(se > 0, coef / se, 0.0)
    t = np.where(np.isnan(coef) | np.isnan(se), np.nan, t)

    return GwrFit(
        local_coefficients=coef,
        local_se=se,
        local_t=t,
        local_r2=r2,
        local_r2_raw=r2_raw,
        hat_diag=hat_diag,
        bandwidths=bw,
        trace_S=trace_s,
        rss=rss,
        sigma2=sigma2,
        aicc=aicc,
        neighbors_k=kernel.neighbors_k,
        failed=failed,
        column_names=tuple(data.column_names),
        tract_ids=tuple(data.tract_ids),
    )


@_one_blas_thread
def select_bandwidth(
    data: DesignData,
    tracts: TractSet,
    k_min: int,
    k_max: int,
    method: str = "golden",
    aicc_loo: bool = False,
) -> tuple[int, float]:
    """Pick the neighbor count minimizing AICc over [k_min, k_max].

    Golden-section over integers assuming unimodality, with an exhaustive
    scan whenever the (remaining) range is 25 candidates or fewer; ties
    within 1e-9 go to the larger count. method="exhaustive" forces the full
    scan and is the oracle for the golden path. Each candidate's AICc is
    fit_gwr's, bit for bit, computed without the SEs and local R^2 that
    AICc does not read.
    """
    if method not in ("golden", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    _check_k_range(data, k_min, k_max)
    n = data.n

    d2 = _pairwise_distances(data, tracts)
    rhs_t = _kernel_rhs(data)
    work = _Workspace(n)
    cache: dict[int, float] = {}

    def evaluate(ks) -> None:
        """AICc for every k in ks not tried yet.

        The k-th neighbor distances of a block of k (one k for a golden
        step that reuses one of its two points, two for a step with two new
        points, up to EXHAUSTIVE_LIMIT for the final scan) come from one
        pass over row chunks: each chunk of squared-distance rows is copied
        into the workspace and reordered there by _order_stats, and only the
        block's columns are kept; the bandwidths are their square roots. An
        order statistic is exact, so they equal fit_gwr's own, and no sorted
        n x n copy is made.
        """
        todo = sorted({k for k in ks if k not in cache})
        for start in range(0, len(todo), EXHAUSTIVE_LIMIT):
            block = todo[start : start + EXHAUSTIVE_LIMIT]
            cols = np.asarray(block) - 1
            kth = np.empty((n, len(block)))
            for s in range(0, n, work.rows):
                chunk = d2[s : s + work.rows]
                rows = work.W[: len(chunk)]
                rows[...] = chunk
                kth[s : s + len(chunk)] = _order_stats(rows, cols)
            bw = np.sqrt(kth, out=kth)
            for j, k in enumerate(block):
                aicc = _search_aicc(data, d2, bw[:, j], rhs_t, aicc_loo, work)
                # NaN never reaches the comparisons below: it would order arbitrarily.
                cache[k] = math.inf if math.isnan(aicc) else aicc

    lo, hi = k_min, k_max
    if method == "golden":
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        while hi - lo + 1 > EXHAUSTIVE_LIMIT:
            span = hi - lo
            x1 = hi - int(round(span * invphi))
            x2 = lo + int(round(span * invphi))
            evaluate((x1, x2))
            f1, f2 = cache[x1], cache[x2]
            if f1 < f2 - TIE_TOL:
                hi = x2
            else:
                # Ties move toward larger k, matching the final tie rule.
                lo = x1
    evaluate(range(lo, hi + 1))

    finite_min = min(cache.values())
    if math.isinf(finite_min) and finite_min > 0:
        raise SelectionError(
            f"every candidate in [{k_min}, {k_max}] failed (rank-deficient "
            "local fits or invalid AICc)"
        )
    winners = [k for k, v in cache.items() if v <= finite_min + TIE_TOL]
    best = max(winners)
    return best, cache[best]


def summarize_gwr(fit: GwrFit) -> GwrSummary:
    """Per-term mean/min/max and +-SIG_T significance shares over clean tracts."""
    ok = ~np.isnan(fit.local_coefficients[:, 0])
    n_used = int(ok.sum())
    n_failed = fit.n - n_used
    if n_used == 0:
        raise SelectionError("no successful local fits to summarize")
    coef = fit.local_coefficients[ok]
    t = fit.local_t[ok]
    return GwrSummary(
        column_names=fit.column_names,
        mean=coef.mean(axis=0),
        min=coef.min(axis=0),
        max=coef.max(axis=0),
        pct_sig_neg=(t < -SIG_T).mean(axis=0),
        pct_sig_pos=(t > SIG_T).mean(axis=0),
        mean_local_r2=float(fit.local_r2[ok].mean()),
        min_local_r2=float(fit.local_r2[ok].min()),
        max_local_r2=float(fit.local_r2[ok].max()),
        neighbors_k=fit.neighbors_k,
        aicc=fit.aicc,
        n_used=n_used,
        n_failed=n_failed,
    )
