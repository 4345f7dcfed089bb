"""Atomic artifact writes and the dataclass <-> JSON round-trip."""

import json
import os

import numpy as np
import pytest

from tracteq.artifacts import from_dict, to_dict, write_atomic
from tracteq.commute import TraversalTable, write_traversal
from tracteq.gwr import GwrSummary
from tracteq.ols import OlsFit


def failing_lines(n_good):
    for i in range(n_good):
        yield f"row {i}\n"
    raise RuntimeError("injected failure")


def test_write_atomic_replaces_the_whole_file(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("old\n")
    write_atomic(str(path), iter(["new\n", "rows\n"]))
    assert path.read_text() == "new\nrows\n"
    assert os.listdir(tmp_path) == ["a.csv"]


def test_failed_write_keeps_previous_bytes(tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes(b"previous\n")
    with pytest.raises(RuntimeError, match="injected"):
        write_atomic(str(path), failing_lines(3))
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["a.csv"]


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "sub" / "a.csv"
    with pytest.raises(RuntimeError, match="injected"):
        write_atomic(str(path), failing_lines(3))
    assert os.listdir(tmp_path / "sub") == []


def test_write_traversal_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "traversal.csv"
    path.write_bytes(b"previous\n")
    table = TraversalTable(groups=("white",), D={"T1": {"white": 1.0}}, C={"T1": {"white": 2.0}})

    def failing_ids():
        yield "T1"
        raise RuntimeError("injected failure")

    monkeypatch.setattr(TraversalTable, "tract_ids", lambda self: failing_ids())
    with pytest.raises(RuntimeError, match="injected"):
        write_traversal(table, str(path), ["header"])
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["traversal.csv"]


def test_ols_fit_round_trips_without_residuals():
    fit = OlsFit(
        coefficients=np.array([1.5, -0.25]), robust_se=np.array([0.1, 0.2]),
        t_stats=np.array([15.0, -1.25]), r_squared=0.75, residuals=np.array([0.5, -0.5]),
        n=40, k=1, column_names=("intercept", "x1"),
    )
    blob = json.loads(json.dumps(to_dict(fit, exclude=("residuals",))))
    assert "residuals" not in blob
    assert blob["column_names"] == ["intercept", "x1"]
    back = from_dict(OlsFit, blob, residuals=np.zeros(0))
    assert back.column_names == fit.column_names
    assert np.array_equal(back.coefficients, fit.coefficients)
    assert np.array_equal(back.t_stats, fit.t_stats)
    assert (back.r_squared, back.n, back.k) == (0.75, 40, 1)
    assert back.residuals.size == 0


def test_gwr_summary_round_trips():
    summary = GwrSummary(
        column_names=("intercept", "x1"), mean=np.array([1.0, 2.0]),
        min=np.array([0.5, 1.0]), max=np.array([1.5, 3.0]),
        pct_sig_neg=np.array([0.0, 0.125]), pct_sig_pos=np.array([1.0, 0.5]),
        mean_local_r2=0.6, min_local_r2=0.2, max_local_r2=0.9,
        neighbors_k=12, aicc=float("inf"), n_used=36, n_failed=0,
    )
    back = from_dict(GwrSummary, json.loads(json.dumps({"extra": 1, **to_dict(summary)})))
    for name, value in vars(summary).items():
        if isinstance(value, np.ndarray):
            assert isinstance(getattr(back, name), np.ndarray)
            assert np.array_equal(getattr(back, name), value), name
        else:
            assert getattr(back, name) == value, name
