"""Results pinned to committed values: two small synthetic scenarios run
end to end through `tracteq run`.

Routing and equity artifacts are pure Python on the inputs, so their bytes
are pinned by sha256. OLS and GWR go through LAPACK/BLAS, whose last bits
depend on numpy's build, so their JSON numbers are pinned at a relative
tolerance of RTOL (integers such as GWR's chosen k, exactly).

A change that alters a result on purpose regenerates the values with

    PYTHONPATH=src python tests/test_pinned_results.py

and says why in CHANGES.md.
"""

import glob
import hashlib
import json
import math
import os
import sys

import pytest

from tracteq.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "pinned_runs.json")
RTOL = 1e-9
ATOL = 1e-12  # for values that are zero up to rounding

SYNTH = ["--rows", "12", "--cols", "12", "--od-pairs", "60", "--seed", "1",
         "--step", "--group-gradient", "--highway-row", "6"]
SCENARIOS = {
    "default": ([], {}),
    "bernoulli_split_exclude_home": (
        ["--attribution", "split"], {"mode": "bernoulli", "exclude_home": True}),
}
HASHED = ("traversal.csv", "simulate.json", "ingest.json", "equity*")
MODEL_JSON = ("ols_*.json", "gwr_*.json")


def run_scenario(name: str, workdir: str) -> dict:
    """The pinned facts of one scenario's out dir."""
    synth_args, simulation = SCENARIOS[name]
    scen = os.path.join(workdir, name)
    assert main(["synth", "--out", scen, *SYNTH, *synth_args]) == 0
    cfg_path = os.path.join(scen, "config.json")
    with open(cfg_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["simulation"].update(simulation)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)
    out = os.path.join(scen, "out")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0

    def matches(patterns):
        return sorted({os.path.basename(p) for pat in patterns
                       for p in glob.glob(os.path.join(out, pat))})

    sha256 = {}
    for fname in matches(HASHED):
        with open(os.path.join(out, fname), "rb") as fh:
            sha256[fname] = hashlib.sha256(fh.read()).hexdigest()
    numbers = {}
    for fname in matches(MODEL_JSON):
        with open(os.path.join(out, fname), encoding="utf-8") as fh:
            blob = json.load(fh)
        blob.pop("meta")
        numbers[fname] = blob
    return {"sha256": sha256, "numbers": numbers}


def assert_close(got, want, where: str) -> None:
    """Floats at RTOL; everything else (ints, strings, keys, lengths) exactly."""
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, (where, got, want)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_matches_pinned_results(name, golden, tmp_path):
    got = run_scenario(name, str(tmp_path))
    want = golden[name]
    assert got["sha256"] == want["sha256"]
    assert sorted(got["numbers"]) == sorted(want["numbers"]) == ["gwr_local.json",
                                                                 "ols_global.json"]
    assert_close(got["numbers"], want["numbers"], name)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {name: run_scenario(name, tmp) for name in sorted(SCENARIOS)}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
