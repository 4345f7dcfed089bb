"""`tracteq route` output pinned to committed values: the exit code and the
sha256 of stdout for a fixed list of commutes on one synthetic scenario.

The cases cover node pairs, home/work tract pairs in both attribution
modes, a same-node pair and an unknown node. A change that alters a route
on purpose regenerates the values with

    PYTHONPATH=src python tests/test_pinned_routes.py

and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from tracteq.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "pinned_routes.json")

SYNTH = ["--rows", "12", "--cols", "12", "--highway-row", "6", "--seed", "1"]
# Pairs that cross the highway row have one shortest route; pairs on one
# side of it tie between many lattice routes, so they pin the tie-break.
NODE_PAIRS = [("N000000", "N012012"), ("N012000", "N000012"), ("N003007", "N009002"),
              ("N006006", "N000000"), ("N000000", "N003004"), ("N012009", "N010003"),
              ("N001010", "N004007"), ("N004004", "N004004"), ("N000000", "N999999")]
TRACT_PAIRS = [("T000000", "T011011"), ("T011000", "T000011"), ("T005005", "T006006"),
               ("T000001", "T003004"), ("T011008", "T008002")]
CASES = {f"{o}-{d}": ["--origin", o, "--dest", d] for o, d in NODE_PAIRS}
CASES.update({f"{h}-{w}-{mode}": ["--home", h, "--work", w, "--mode", mode]
              for h, w in TRACT_PAIRS for mode in ("midpoint", "split")})


def route_outputs(workdir: str) -> dict:
    """{case: {"code": exit code, "stdout_sha256": ...}} over CASES."""
    assert main(["synth", "--out", workdir, *SYNTH]) == 0
    nodes, edges, tracts, attributes = (os.path.join(workdir, name) for name in (
        "nodes.csv", "edges.csv", "tracts.geojson", "attributes.csv"))
    pinned = {}
    for name, case in CASES.items():
        args = ["route", "--nodes", nodes, "--edges", edges, *case]
        if "--home" in case:
            args += ["--tracts", tracts, "--attributes", attributes]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(args)
        pinned[name] = {"code": code,
                        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    return pinned


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_route_outputs_match_pinned(golden, tmp_path):
    got = route_outputs(str(tmp_path))
    assert sorted(got) == sorted(golden)
    for name in sorted(golden):
        assert got[name] == golden[name], name
    codes = {name: want["code"] for name, want in golden.items()}
    assert codes["N000000-N999999"] == 2
    assert sorted(set(codes.values())) == [0, 2]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = route_outputs(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
