"""Fast self-test of the benchmark on tiny grids.

    python3 bench/selftest.py

Runs every workload (those BENCHMARK.json names and the manual ones) on a
12x12 grid with tracing off and on, and checks that each invocation is
correct and emits exactly the metrics BENCHMARK.json declares, with its
units. Then alters or removes an artifact of one repeat
and checks that the run counts as failed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run_bench as rb  # noqa: E402

TINY_GRID = 12
TINY_OD_PAIRS = 60


def tiny(name: str) -> rb.Workload:
    return dataclasses.replace(rb.WORKLOADS[name], grid=TINY_GRID, od_pairs=TINY_OD_PAIRS)


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics differ from BENCHMARK.json: " + repr(
        sorted(set(got.items()) ^ set(want.items())))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} is not a number"


def expect_failed_run(alter, label: str) -> None:
    """Apply alter(outdir) to the second repeat before it is checked."""
    original = rb.check_run
    seen: list[str] = []

    def check(ctx, child, outdir):
        seen.append(outdir)
        if len(seen) == 2:
            alter(outdir)
        return original(ctx, child, outdir)

    rb.check_run = check
    try:
        result = rb.bench(tiny("gwr_county"), 1, 0.1, traced=False)
    finally:
        rb.check_run = original
    assert result["attempted"] == 2 and result["failed"] == 1, f"{label}: {result}"
    assert not result["correct"], label
    print(f"ok: {label} counted as a failed run")


def append_byte(path: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(" ")


def main() -> int:
    with open(os.path.join(rb.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    named = [w["name"] for w in spec["workloads"]]
    assert named == [name for name in rb.WORKLOADS if name not in rb.MANUAL_WORKLOADS], named
    for name in rb.WORKLOADS:
        for traced, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            label = f"{name} trace={int(traced)}"
            result = rb.bench(tiny(name), 3, 0.1, traced)
            assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
            check_metrics(result, declared, label)
            print(f"ok: {label} emits {len(result['metrics'])} metrics")
    expect_failed_run(lambda out: append_byte(os.path.join(out, "equity_white.svg")),
                      "an altered artifact")
    expect_failed_run(lambda out: os.remove(os.path.join(out, "report.txt")),
                      "a missing artifact")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
