"""Run the tracteq CLI in-process with spans around its public functions.

    python3 bench/traced_run.py SPANS_JSON -- run --config CONFIG --out OUT

Every function named in LAYERS is wrapped wherever a tracteq module holds
it (``tracteq.cli.select_bandwidth``, ``tracteq.gwr.fit_gwr``,
``tracteq.network.point_in_polygon``, ...), so calls are timed at their
lookup sites and no program code changes. Spans are kept in memory and
written to SPANS_JSON when the CLI returns; bench/run_bench.py reads them
and computes self times with ``self_times``.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
import time

ROOT_SPAN = "cli"

# Layer names are "<module>.<function>" inside the tracteq package.
LAYERS = (
    "config.load_config",
    "data_model.load_tracts",
    "data_model.load_highways",
    "data_model.build_design",
    "network.build_graph",
    "network.build_edge_tract_map",
    "geometry.point_in_polygon",
    "commute.load_od",
    "commute.assign_groups",
    "commute.simulate",
    "commute.route_traversals",
    "commute.nearest_node",
    "network.shortest_path",
    "network.route_tract_distances",
    "ols.fit_ols",
    "gwr.select_bandwidth",
    "gwr.fit_gwr",
    "gwr.fit_local",
    "equity.inequity_index",
    "equity.corridor_subset",
    "equity.population_weighted_mean",
    "report.tracts_to_geojson",
    "report.svg_choropleth",
)


def _fit_local_failed(result) -> dict[str, float]:
    return {"gwr.fit_local.failed": 0.0 if result.ok else 1.0}


def _simulate_totals(result) -> dict[str, float]:
    return {
        "commute.n_unreachable": float(result.n_unreachable),
        "commute.total_km": float(result.total_km()),
    }


def _bandwidth_choice(result) -> dict[str, float]:
    return {"gwr.neighbors_k": float(result[0])}


# Counts read off return values: a summed count and two results that the
# traced run reports so they can be compared between commits.
RESULT_COUNTERS = {
    "gwr.fit_local": (_fit_local_failed, "sum"),
    "commute.simulate": (_simulate_totals, "last"),
    "gwr.select_bandwidth": (_bandwidth_choice, "last"),
}


class Tracer:
    """Span recorder. A span is [name, start, end, parent span or None].

    A span opened on a thread with no open span of its own (a worker of a
    thread pool) takes as parent the innermost open span of the thread that
    created the tracer, which is the one waiting on the pool.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._main_stack: list[list] = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[list]) -> list | None:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def wrap(self, fn, name: str):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, self._parent(stack)]
            self.spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                self._count(*counter, result)
            return result

        return traced

    def _count(self, extract, how: str, result) -> None:
        values = extract(result)
        with self._lock:
            for key, value in values.items():
                if how == "sum":
                    self.counters[key] = self.counters.get(key, 0.0) + value
                else:
                    self.counters[key] = value

    def install(self) -> dict[str, int]:
        """Wrap every LAYERS function at each tracteq module attribute that
        holds it; returns the number of lookup sites wrapped per layer."""
        import tracteq

        modules = [tracteq] + [
            importlib.import_module(f"tracteq.{info.name}")
            for info in pkgutil.iter_modules(tracteq.__path__)
        ]
        sites: dict[str, int] = {}
        for layer in LAYERS:
            module_name, func_name = layer.split(".")
            target = getattr(importlib.import_module(f"tracteq.{module_name}"), func_name, None)
            sites[layer] = 0
            if target is None:
                continue
            wrapped = self.wrap(target, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, attr, wrapped)
                        sites[layer] += 1
        return sites

    def dump(self, path: str, extra: dict) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [name, start, end, -1 if parent is None else index[id(parent)]]
            for name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counters": self.counters, **extra}, fh)


def self_times(spans: list[list]) -> dict[str, float]:
    """Wall time during which each span name was an innermost open span.

    Spans are [name, start, end, parent_index]. A sweep over span starts and
    ends keeps the open spans that have no open child; each interval between
    events is shared equally among them. Without threads this is a span's
    duration minus the part its children cover; with a thread pool, parallel
    leaves share the wall time, so the self times of all names add up to the
    wall time the spans cover.
    """
    events = []
    for i, (_, start, end, _) in enumerate(spans):
        events.append((start, 0, i))
        events.append((end, 1, -i))
    events.sort()
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves: set[int] = set()
    totals: dict[str, float] = {}
    previous = events[0][0] if events else 0.0
    for t, kind, key in events:
        if leaves and t > previous:
            share = (t - previous) / len(leaves)
            for i in leaves:
                name = spans[i][0]
                totals[name] = totals.get(name, 0.0) + share
        previous = t
        i = key if kind == 0 else -key
        parent = spans[i][3]
        if kind == 0:
            is_open[i] = True
            leaves.add(i)
            if parent >= 0 and is_open[parent]:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open[i] = False
            leaves.discard(i)
            if parent >= 0 and is_open[parent]:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return totals


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    sites = tracer.install()
    import tracteq.cli

    root = tracer.wrap(tracteq.cli.main, ROOT_SPAN)
    code = 1
    try:
        code = root(cli_argv)
    finally:
        tracer.dump(spans_path, {"sites": sites, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
