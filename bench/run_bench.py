"""Seeded benchmark for ``tracteq run``.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the checkout's
``src/tracteq``. Each invocation writes a synthetic scenario with
``tracteq synth --seed N`` and edits its config for the workload. Then:

* ``--trace 0`` times ``tracteq run`` in a fresh child process and out dir
  at least twice, repeating while that ends nearer to ``--seconds`` of
  measuring than stopping (an untimed reference run counts), and the
  set-up probe (bench/setup_probe.py) before the first run and after each
  run. It reports
  ``run_s``, ``setup_s`` and ``peak_rss_mb``, each the median over the
  repeats of this invocation. The two times are scaled to a reference CPU
  speed that a sampling thread measures on the same CPU while each child
  runs (see SpeedProbe).
* ``--trace 1`` makes one untraced run and one traced run
  (bench/traced_run.py) and reports per-layer times and counts.

Every run is checked: exit code, FAILED marker, the artifacts its config
implies, invariants of their content, and byte identity of all artifacts
across the repeats of the invocation (and, for a workload run with more
than one worker, against one untimed ``--workers 1`` run). A run that fails
any check counts in ``failed``. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the machine, thread settings, input sizes and samples.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import heapq
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

# The speed probe runs numpy in this process: keep it to one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH_DIR)
from traced_run import LAYERS, ROOT_SPAN, self_times  # noqa: E402

# The whole invocation must end within 180 s; children are killed past this.
TIME_BUDGET_S = 170.0
MIN_RUN_REPEATS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread per child: on a few shared cores a second BLAS thread makes
# each small solve wait for the slower core, which doubles the CPU time and
# makes GWR run times swing by ~30% from one repeat to the next.
BLAS_THREADS = 1
GROUPS = ("white", "non_white")

# synth --step gives x1 the coefficient BETA_LOW west of the middle column
# and BETA_HIGH east of it; the GWR half means must land within STEP_TOL.
BETA_LOW, BETA_HIGH, STEP_TOL = 1.0, 3.0, 0.5
SUM_RTOL = 1e-9

# Timed children of a single-worker workload run pinned to one CPU, with a
# thread of this process on the same CPU that times reference_loop() every
# PROBE_PERIOD_S. REF_LOOP_S is the loop's thread CPU time on a reference
# CPU; times are reported as if the run had had that speed throughout.
PROBE_PERIOD_S = 0.08
REF_LOOP_S = 0.002


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int  # rows = cols
    od_pairs: int
    workers: int
    why: str
    drop_gwr: bool = False
    edits: dict = field(default_factory=dict)  # config section -> overrides


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gwr_county", 30, 100, 1,
            "GWR bandwidth search on a large county (900 tracts) is about 90% "
            "of the run; routing is light at about one pair per origin",
        ),
        Workload(
            "commute_dense", 24, 4000, 1,
            "routing-bound: 4,000 OD pairs over 576 tracts, ~7 pairs per origin "
            "as in a county OD table; OLS only, so GWR is bypassed",
            drop_gwr=True,
        ),
        Workload(
            "variants_w2", 18, 900, 2,
            "the same layers on their other paths: LOO AICc refits, split "
            "attribution, bernoulli labels, exclude_home, two worker threads",
            edits={
                "gwr": {"aicc_loo": True},
                "simulation": {"attribution": "split", "mode": "bernoulli",
                               "exclude_home": True},
            },
        ),
    )
}
# Not in BENCHMARK.json: run by hand for a change that touches LOO AICc,
# split attribution, bernoulli labels or the thread pools. Leaving it out
# gives the other two workloads longer runs, which they need on a shared host.
MANUAL_WORKLOADS = ("variants_w2",)


_PROBE_ARRAYS: tuple = ()


def reference_loop() -> None:
    """About 2 ms of the kind of work tracteq does: interpreter arithmetic,
    dict and heap operations and float math, as in routing; small numpy
    solves; and, as in a GWR local fit, Gaussian weights over a row of a
    900 x 900 distance matrix and the QR of a weighted 900 x 3 design."""
    global _PROBE_ARRAYS
    import numpy

    if not _PROBE_ARRAYS:
        n = 900
        _PROBE_ARRAYS = (
            numpy.eye(12) * 3.0 + numpy.arange(144.0).reshape(12, 12) / 144.0,
            numpy.ones(12),
            numpy.arange(n * n, dtype=float).reshape(n, n) / (n * n),
            numpy.column_stack([numpy.ones(n), numpy.arange(n) / n,
                                numpy.cos(numpy.arange(n))]),
        )
    a, b, dist, design = _PROBE_ARRAYS
    s = 0
    for i in range(6000):
        s += i * i % 7
    counts: dict[int, int] = {}
    heap: list[int] = []
    x = 0.0
    for i in range(800):
        counts[i & 255] = counts.get((i * 7) & 255, 0) + 1
        heapq.heappush(heap, (i * 2654435761) % 1000)
        x += math.sqrt(i)
    while heap:
        heapq.heappop(heap)
    for _ in range(50):
        numpy.linalg.solve(a, b)
    for j in range(0, len(dist), 90):
        w = numpy.exp(-0.5 * (dist[j] / 0.3) ** 2)
        active = numpy.flatnonzero(w > 1e-12)
        sw = numpy.sqrt(w[active])
        numpy.linalg.qr(design[active] * sw[:, None])


class SpeedProbe:
    """Samples how fast the CPU runs while a child runs on it.

    On a shared host the same loop runs up to 60% slower from one second
    to the next, and thread CPU time slows with it (contention for the
    physical core, not steal). A thread pinned with the child to one CPU
    times reference_loop() in thread CPU time every PROBE_PERIOD_S; the mean
    of the reciprocals is the CPU's speed over the child's run, in loops per
    second. The thread's own CPU time is taken off the child's wall time,
    since the child waited for it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        start = time.thread_time()
        while True:
            t = time.thread_time()
            reference_loop()
            self.samples.append(time.thread_time() - t)
            if self._stop.wait(PROBE_PERIOD_S):
                break
        self.busy_s = time.thread_time() - start

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


@dataclass
class Child:
    returncode: int
    wall_s: float
    maxrss_mb: float
    log: str
    probe_busy_s: float = 0.0
    probe_rate: float = 0.0  # reference loops per second of CPU time

    @property
    def scaled_s(self) -> float:
        """Wall time less the probe's share, at the reference CPU speed."""
        return (self.wall_s - self.probe_busy_s) * self.probe_rate * REF_LOOP_S


@dataclass
class Context:
    workload: Workload
    deadline: float
    env: dict
    workdir: str
    config: str
    raw_config: dict
    traffic: dict
    logs: int = 0

    def log_path(self, label: str) -> str:
        self.logs += 1
        return os.path.join(self.workdir, f"{self.logs:02d}-{label}.log")


def run_child(ctx: Context, argv: list[str], label: str, probed: bool = False) -> Child:
    """Run argv from the checkout root; wall time spans spawn to exit and
    peak RSS comes from the child's own rusage. With probed, a SpeedProbe
    samples the CPU for the whole of that time."""
    timeout = ctx.deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"time budget spent before {label}")
    log_path = ctx.log_path(label)
    probe = SpeedProbe() if probed else contextlib.nullcontext()
    with open(log_path, "wb") as log, probe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ctx.env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, log_path)
    if probed:
        child.probe_busy_s = probe.busy_s
        child.probe_rate = statistics.fmean(1.0 / x for x in probe.samples)
    return child


def tracteq_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "tracteq.cli", *args]


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def generate(ctx: Context, seed: int) -> None:
    """Write the seeded scenario and the workload's config into workdir."""
    w = ctx.workload
    scenario = os.path.join(ctx.workdir, "scenario")
    child = run_child(ctx, tracteq_argv(
        "synth", "--out", scenario, "--rows", str(w.grid), "--cols", str(w.grid),
        "--step", "--beta-low", repr(BETA_LOW), "--beta-high", repr(BETA_HIGH),
        "--group-gradient", "--highway-row", str(w.grid // 2),
        "--od-pairs", str(w.od_pairs), "--seed", str(seed),
    ), "synth")
    if child.returncode != 0:
        raise RuntimeError(f"tracteq synth failed with exit code {child.returncode}")
    ctx.config = os.path.join(scenario, "config.json")
    with open(ctx.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    if w.drop_gwr:
        raw["models"] = [m for m in raw["models"] if m["estimator"] != "gwr"]
    for section, overrides in w.edits.items():
        raw.setdefault(section, {}).update(overrides)
    with open(ctx.config, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, sort_keys=True, indent=2)
    ctx.raw_config = raw
    ctx.traffic = traffic_record(scenario, raw)


def _csv_rows(path: str) -> list[dict]:
    """Rows of a CSV file or artifact, skipping '#' header lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def traffic_record(scenario: str, raw: dict) -> dict:
    inputs = {k: os.path.join(scenario, v) for k, v in raw["inputs"].items()}
    pairs: dict[tuple[str, str], int] = {}
    for row in _csv_rows(inputs["od"]):
        key = (row["home"], row["work"])
        pairs[key] = pairs.get(key, 0) + int(row["count"])
    origins = len({home for home, _ in pairs})
    return {
        "tracts": len(_csv_rows(inputs["attributes"])),
        "nodes": len(_csv_rows(inputs["nodes"])),
        "edges": len(_csv_rows(inputs["edges"])),
        "od_pairs": len(pairs),
        "od_workers": sum(pairs.values()),
        "distinct_origins": origins,
        "pairs_per_origin": len(pairs) / origins,
    }


def expected_artifacts(raw: dict) -> set[str]:
    names = {"report.txt"}
    for model in raw["models"]:
        m = model["name"]
        if model["estimator"] == "ols":
            names |= {f"ols_{m}.csv", f"ols_{m}.json"}
        else:
            names |= {f"gwr_{m}_local.csv", f"gwr_{m}_summary.txt",
                      f"gwr_{m}.geojson", f"gwr_{m}.json"}
    if {"nodes", "edges", "od"} <= raw["inputs"].keys():
        names |= {"traversal.csv", "equity.csv", "equity.geojson"}
        for g in GROUPS:
            names |= {f"equity_summary_{g}.txt", f"equity_{g}.svg"}
    return names


def digest(outdir: str) -> dict[str, str]:
    result = {}
    for dirpath, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                result[os.path.relpath(path, outdir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(result.items()))


def content_problems(ctx: Context, outdir: str) -> list[str]:
    """Invariants of a run's artifacts that hold for every synth scenario."""
    raw, traffic, problems = ctx.raw_config, ctx.traffic, []
    with open(os.path.join(outdir, "report.txt"), encoding="utf-8") as fh:
        if not fh.readline().startswith("# tracteq v"):
            problems.append("report.txt lacks its header")
    for model in raw["models"]:
        name = model["name"]
        with open(os.path.join(outdir, f"{model['estimator']}_{name}.json"),
                  encoding="utf-8") as fh:
            blob = json.load(fh)
        if model["estimator"] == "ols":
            if blob["n"] != traffic["tracts"]:
                problems.append(f"ols {name}: n={blob['n']} for {traffic['tracts']} tracts")
            continue
        k_lo, k_hi = blob["k_range"]
        if blob["n_failed"] or not k_lo <= blob["neighbors_k"] <= k_hi:
            problems.append(f"gwr {name}: n_failed={blob['n_failed']} "
                            f"neighbors_k={blob['neighbors_k']} range={blob['k_range']}")
        halves: dict[bool, list[float]] = {False: [], True: []}
        for row in _csv_rows(os.path.join(outdir, f"gwr_{name}_local.csv")):
            col = int(row["tract_id"][4:7])  # synth ids are T<row:03d><col:03d>
            halves[col >= ctx.workload.grid // 2].append(float(row["coef:x1"]))
        for east, truth in ((False, BETA_LOW), (True, BETA_HIGH)):
            mean = statistics.fmean(halves[east])
            if abs(mean - truth) > STEP_TOL:
                problems.append(f"gwr {name}: mean x1 coefficient {mean!r} "
                                f"on the {'east' if east else 'west'} half, truth {truth}")
    if "traversal.csv" in expected_artifacts(raw):
        rows = _csv_rows(os.path.join(outdir, "traversal.csv"))
        commuters = sum(float(r["C_count"]) for r in rows)
        if abs(commuters - traffic["od_workers"]) > SUM_RTOL * traffic["od_workers"]:
            problems.append(f"traversal commuters {commuters!r} != OD workers "
                            f"{traffic['od_workers']}")
        if not sum(float(r["D_km"]) for r in rows) > 0.0:
            problems.append("traversal has no driven distance")
        by_tract: dict[str, float] = {}
        for r in _csv_rows(os.path.join(outdir, "equity.csv")):
            by_tract[r["tract_id"]] = by_tract.get(r["tract_id"], 0.0) + float(r["index"])
        if not by_tract or max(abs(v) for v in by_tract.values()) > SUM_RTOL:
            problems.append("equity indices are missing or do not sum to zero over groups")
    return problems


def check_run(ctx: Context, child: Child, outdir: str) -> list[str]:
    problems = []
    if child.returncode != 0:
        problems.append(f"exit code {child.returncode}")
    files = set(os.listdir(outdir)) if os.path.isdir(outdir) else set()
    if "FAILED" in files:
        problems.append("FAILED marker present")
    missing = sorted(expected_artifacts(ctx.raw_config) - files)
    if missing:
        problems.append(f"missing artifacts {missing}")
    if not problems:
        try:
            problems += content_problems(ctx, outdir)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"unreadable artifact: {exc!r}")
    return problems


class RunLedger:
    """Attempted and failed runs, with each run's artifact digest compared
    against the first digest of the invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None

    def record(self, label: str, problems: list[str], outdir: str) -> None:
        self.attempted += 1
        found = digest(outdir) if os.path.isdir(outdir) else {}
        if not problems:
            if self.reference is None:
                self.reference = found
            elif found != self.reference:
                differ = sorted(k for k in found.keys() | self.reference.keys()
                                if found.get(k) != self.reference.get(k))
                problems = [f"artifacts differ from the first run: {differ}"]
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def tracteq_run(ctx: Context, ledger: RunLedger, label: str, workers: int,
                argv_prefix: list[str] | None = None, probed: bool = False) -> Child:
    outdir = os.path.join(ctx.workdir, f"out-{label}")
    args = ["run", "--config", ctx.config, "--out", outdir, "--workers", str(workers)]
    argv = argv_prefix + ["--"] + args if argv_prefix else tracteq_argv(*args)
    child = run_child(ctx, argv, label, probed)
    ledger.record(label, check_run(ctx, child, outdir), outdir)
    return child


def setup_probe(ctx: Context, label: str) -> tuple[Child, list[str]]:
    """Time one set-up probe and check the sizes it loaded."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    child = run_child(ctx, [sys.executable, probe, ctx.config], label, probed=True)
    with open(child.log, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    try:
        sizes = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sizes = {}
    wrong = {k: sizes.get(k) for k in ("tracts", "nodes", "edges", "od_pairs")
             if sizes.get(k) != ctx.traffic[k]}
    if child.returncode != 0 or wrong:
        return child, [f"{label}: exit {child.returncode}, sizes differ {wrong}"]
    return child, []


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_samples(name: str, values: list[float]) -> float:
    median = statistics.median(values)
    print(f"{name}: median={median!r} samples={len(values)} values={values}")
    return median


def measure(ctx: Context, seconds: float) -> tuple[dict, RunLedger, list[str]]:
    """Untraced end-to-end metrics. Set-up probes alternate with the runs so
    that both sample the same stretch of time."""
    w, ledger = ctx.workload, RunLedger()
    setup: list[Child] = []
    problems: list[str] = []

    def probe() -> None:
        child, found = setup_probe(ctx, f"setup{len(setup)}")
        setup.append(child)
        problems.extend(found)

    probe()
    start = time.monotonic()
    if w.workers > 1:
        # Criterion 10: artifacts must not depend on the worker count.
        tracteq_run(ctx, ledger, "reference-w1", 1)
    runs: list[Child] = []
    while True:
        runs.append(tracteq_run(ctx, ledger, f"run{len(runs)}", w.workers, probed=True))
        probe()
        if len(runs) < MIN_RUN_REPEATS:
            continue
        # Start another run if it would end nearer to `seconds` than stopping.
        elapsed = time.monotonic() - start
        last = runs[-1].wall_s
        if elapsed + last / 2 > seconds or time.monotonic() + 2 * last > ctx.deadline:
            break
    for name, children in (("run", runs), ("setup", setup)):
        report_samples(f"{name}_wall_s", [c.wall_s for c in children])
        report_samples(f"{name}_probe_loop_ms", [1e3 / c.probe_rate for c in children])
    metrics = {
        "run_s": metric(report_samples("run_s", [r.scaled_s for r in runs]), "s"),
        "setup_s": metric(report_samples("setup_s", [c.scaled_s for c in setup]), "s"),
        "peak_rss_mb": metric(
            report_samples("peak_rss_mb", [r.maxrss_mb for r in runs]), "MB"),
    }
    return metrics, ledger, problems


def trace(ctx: Context) -> tuple[dict, RunLedger, list[str]]:
    """Per-layer metrics from one traced run, next to one untraced run."""
    w, ledger, problems = ctx.workload, RunLedger(), []
    plain = tracteq_run(ctx, ledger, "untraced", w.workers)
    spans_path = os.path.join(ctx.workdir, "spans.json")
    traced = tracteq_run(ctx, ledger, "traced", w.workers,
                         [sys.executable, os.path.join(BENCH_DIR, "traced_run.py"),
                          spans_path])
    try:
        with open(spans_path, encoding="utf-8") as fh:
            recorded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"traced run left no spans: {exc!r}")
        recorded = {"spans": [], "counters": {}, "sites": {}}
    missing = [layer for layer, n in recorded["sites"].items() if n == 0]
    if missing:
        print(f"warning: layers not found in tracteq: {missing}", file=sys.stderr)
    spans = recorded["spans"]
    selfs = self_times(spans)
    total = {name: 0.0 for name in LAYERS + (ROOT_SPAN,)}
    calls = dict.fromkeys(total, 0)
    for name, start, end, _ in spans:
        total[name] += end - start
        calls[name] += 1
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.s"] = metric(total[layer], "s")
        metrics[f"{layer}.self_s"] = metric(selfs.get(layer, 0.0), "s")
        metrics[f"{layer}.calls"] = metric(calls[layer], "count")
    evals = sum(1 for name, _, _, parent in spans
                if name == "gwr.fit_gwr" and parent >= 0
                and spans[parent][0] == "gwr.select_bandwidth")
    counters = recorded["counters"]
    self_sum = sum(selfs.values())
    metrics.update({
        "cli.self_s": metric(selfs.get(ROOT_SPAN, 0.0), "s"),
        "gwr.select_bandwidth.evals": metric(evals, "count"),
        "gwr.fit_local.failed": metric(counters.get("gwr.fit_local.failed", 0.0), "count"),
        "gwr.neighbors_k": metric(counters.get("gwr.neighbors_k", 0.0), "count"),
        "commute.n_unreachable": metric(counters.get("commute.n_unreachable", 0.0), "count"),
        "commute.total_km": metric(counters.get("commute.total_km", 0.0), "km"),
        "commute.pairs_per_origin": metric(ctx.traffic["pairs_per_origin"], "pairs/origin"),
        "trace.root_s": metric(total[ROOT_SPAN], "s"),
        "trace.self_sum_s": metric(self_sum, "s"),
        "trace.run_s": metric(traced.wall_s, "s"),
        "trace.overhead_s": metric(traced.wall_s - plain.wall_s, "s"),
    })
    if abs(self_sum - total[ROOT_SPAN]) > 1e-6 * total[ROOT_SPAN] + 1e-6:
        problems.append(f"self times sum to {self_sum!r}, root span {total[ROOT_SPAN]!r}")
    print(f"untraced run_s={plain.wall_s!r} traced run_s={traced.wall_s!r} "
          f"spans={len(spans)}")
    return metrics, ledger, problems


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Run one invocation and return its result object."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = SRC
    threads = {var: str(BLAS_THREADS) for var in THREAD_VARS}
    env.update(threads)
    cpus = os.sched_getaffinity(0)
    # One worker: pin this process, so its children and its speed probe,
    # to one CPU, so that the probe samples the CPU the child runs on.
    pinned = {max(cpus)} if workload.workers == 1 else cpus
    print(f"threads: {json.dumps({'workers': workload.workers, **threads}, sort_keys=True)} "
          f"cpus: {sorted(pinned)}")
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK)
    ctx = Context(workload, time.monotonic() + TIME_BUDGET_S, env, workdir, "", {}, {})
    os.sched_setaffinity(0, pinned)
    try:
        generate(ctx, seed)
        print(f"traffic: {json.dumps(ctx.traffic, sort_keys=True)}")
        print(f"why: {workload.why}")
        metrics, ledger, problems = trace(ctx) if traced else measure(ctx, seconds)
        if os.path.exists(os.path.join(workdir, "spans.json")):
            shutil.copy(os.path.join(workdir, "spans.json"),
                        os.path.join(WORK, f"spans-{workload.name}-{seed}.json"))
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"run_fail_rate: {ledger.failed / ledger.attempted!r} "
          f"({ledger.failed} of {ledger.attempted} runs)")
    return {
        "correct": ledger.failed == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tracteq", "cli.py")):
        print(f"bench: no tracteq sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    print(f"bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"machine: {json.dumps(machine_record(), sort_keys=True)}")
    result = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
