"""Spans around the calls into each layer, recorded in the server process.

A traced run installs these wrappers in the benchmark's server process
by replacing functions and methods of the loaded program; the program's
source is not changed.  Each wrapped call records one span ``(id, name,
start, end, parent, batch)``: the parent is the innermost span open on
the same thread, and the batch is the ``execute_batch`` call it ran
under.  Spans stay in memory until :meth:`Tracer.write` writes them out.

A layer's self time is its spans' durations minus the time covered by
their child spans, so the rows of :func:`ledger` add up to what the
clients saw.  Work that the fabric backend runs in its worker processes
is invisible here: on that backend the executor, pipeline and kernel
rows are not measured.  The wrappers stay installed until the process
exits.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import os
import threading
import time
from typing import Dict, List, Optional

#: Span name → ledger row.  Every row is a self time.
ROWS = {
    "server.coalesce_wait": "server.coalesce_wait_ms",
    "server.payload": "server.payload_ms",
    "service.execute_batch": "service.self_ms",
    "planner.parse": "planner.plan_ms",
    "planner.plan": "planner.plan_ms",
    "planner.compile": "planner.plan_ms",
    "backend.run_batch": "backend.self_ms",
    "executor.run_group": "executor.run_group_ms",
    "pipeline.drive": "pipeline.drive_ms",
    "core.staircase": "core.staircase_ms",
    "evaluator.predicate": "evaluator.predicate_ms",
    "feedback.absorb": "feedback.absorb_ms",
    "store.commit": "store.commit_ms",
}

#: Rows on the path of a query; they add up to its latency.
QUERY_ROWS = (
    "server.coalesce_wait_ms",
    "server.payload_ms",
    "service.self_ms",
    "planner.plan_ms",
    "backend.self_ms",
    "executor.run_group_ms",
    "pipeline.drive_ms",
    "core.staircase_ms",
    "evaluator.predicate_ms",
    "feedback.absorb_ms",
)

#: Rows whose work runs inside fabric worker processes.
WORKER_ROWS = (
    "executor.run_group_ms",
    "executor.prefix_hit_ratio",
    "pipeline.drive_ms",
    "core.staircase_ms",
    "evaluator.predicate_ms",
    "core.scanned_per_result",
    "encoding.blocks_decoded_per_query",
)


class Tracer:
    """Record spans and counts at the boundaries of the program's layers."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        #: Queries per ``execute_batch`` call, by batch id.
        self.batch_sizes: Dict[int, int] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._batches = itertools.count(1)
        #: Entry times of coalesced queries, oldest first.  The
        #: coalescer flushes queries in the order they were submitted.
        self._submitted: collections.deque = collections.deque()
        #: (hits, misses) of each executor prefix cache when first seen.
        self._prefix_base: Dict[object, tuple] = {}
        self._service = None
        self._server = None
        self._base: dict = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent,
                     getattr(tracer._local, "batch", 0))
                )

        return wrapper

    def _wrap(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self._timed(name, getattr(owner, attr)))

    # ------------------------------------------------------------------
    def install(self, server, service) -> None:
        """Wrap each layer's entry points and note where the counters start."""
        from repro.core.fragments import FragmentedDocument
        from repro.feedback.store import FeedbackStore
        from repro.server import app
        from repro.server.coalescer import QueryCoalescer
        from repro.service import executor, service as service_module
        from repro.service.backend import ExecutionBackend
        from repro.service.store import MANIFEST, ShardedStore
        from repro.xpath import axes
        from repro.xpath.evaluator import Evaluator
        from repro.xpath.planner import Planner

        self._server, self._service = server, service
        self._base = self._snapshot()
        tracer = self

        submit = QueryCoalescer.submit

        async def traced_submit(coalescer, *args, **kwargs):
            tracer._submitted.append(time.perf_counter())
            return await submit(coalescer, *args, **kwargs)

        QueryCoalescer.submit = traced_submit

        execute_batch = self._timed(
            "service.execute_batch", service_module.QueryService.execute_batch
        )

        def traced_execute_batch(svc, queries, *args, **kwargs):
            now = time.perf_counter()
            batch = next(tracer._batches)
            for _ in range(len(queries)):
                try:
                    entered = tracer._submitted.popleft()
                except IndexError:
                    break
                tracer.spans.append(
                    (next(tracer._ids), "server.coalesce_wait", entered, now, 0, batch)
                )
            tracer.batch_sizes[batch] = len(queries)
            tracer._local.batch = batch
            try:
                results = execute_batch(svc, queries, *args, **kwargs)
            finally:
                tracer._local.batch = 0
            hits = sum(1 for result in results if result.from_cache)
            tracer.counts["result_hits"] += hits
            tracer.counts["result_misses"] += len(results) - hits
            return results

        service_module.QueryService.execute_batch = traced_execute_batch
        self._wrap(app, "result_to_payload", "server.payload")
        for module in (app, service_module, executor):
            self._wrap(module, "parse_with_cache", "planner.parse")
        self._wrap(Planner, "plan", "planner.plan")
        self._wrap(service_module, "compile_plan", "planner.compile")
        self._wrap(ExecutionBackend, "run_batch", "backend.run_batch")

        expand = ExecutionBackend._expand

        def counted_expand(backend, *args, **kwargs):
            tasks = expand(backend, *args, **kwargs)
            tracer.counts["tasks"] += len(tasks)
            return tasks

        ExecutionBackend._expand = counted_expand

        run_group = self._timed("executor.run_group", executor.ShardWorkerState.run_group)

        def traced_run_group(state, *args, **kwargs):
            cache = state.prefix_cache
            if cache not in tracer._prefix_base:
                info = cache.info()
                tracer._prefix_base[cache] = (info["hits"], info["misses"])
            return run_group(state, *args, **kwargs)

        executor.ShardWorkerState.run_group = traced_run_group
        self._wrap(executor, "drive", "pipeline.drive")
        for name in ("staircase_join", "staircase_join_vectorized", "axis_step_vectorized"):
            setattr(axes, name, self._core(getattr(axes, name)))
        for name in (
            "descendant_step", "descendant_step_vectorized",
            "ancestor_step", "ancestor_step_vectorized",
        ):
            setattr(
                FragmentedDocument, name, self._core(getattr(FragmentedDocument, name))
            )
        self._wrap(Evaluator, "filter_predicate_scalar", "evaluator.predicate")
        self._wrap(Evaluator, "bulk_predicate_mask", "evaluator.predicate")
        self._wrap(FeedbackStore, "absorb", "feedback.absorb")

        commit = self._timed("store.commit", ShardedStore.apply_updates)

        def traced_commit(store, *args, **kwargs):
            summary = commit(store, *args, **kwargs)
            written = os.path.getsize(os.path.join(store.directory, MANIFEST))
            for shard_id in set(summary["shards"]) & set(store.shard_ids()):
                entry = store.shard_entry(shard_id)
                written += os.path.getsize(os.path.join(store.directory, entry["file"]))
            tracer.counts["commits"] += 1
            tracer.counts["commit_bytes"] += written
            return summary

        ShardedStore.apply_updates = traced_commit

    def _core(self, fn):
        """A staircase-join entry point: timed, and counting the nodes
        its ``JoinStatistics`` say it scanned against the nodes it
        returned (outermost core call only: they nest)."""
        timed = self._timed("core.staircase", fn)
        index = list(inspect.signature(fn).parameters).index("stats")
        tracer = self

        def wrapper(*args, **kwargs):
            stats = kwargs.get("stats", args[index] if len(args) > index else None)
            if stats is None or getattr(tracer._local, "in_core", False):
                return timed(*args, **kwargs)
            before = stats.nodes_scanned
            tracer._local.in_core = True
            try:
                result = timed(*args, **kwargs)
            finally:
                tracer._local.in_core = False
            tracer.counts["scanned"] += stats.nodes_scanned - before
            tracer.counts["results"] += len(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        service, server = self._service, self._server
        stats = service.stats_snapshot()
        served = server.stats.snapshot()
        blocks = sum(
            shard.get("decoded", {}).get("blocks", 0)
            for shard in service.store.info()["shards"]
        )
        return {
            "plan_hits": stats["plan"]["hits"],
            "plan_misses": stats["plan"]["misses"],
            "generation": stats["feedback"].get("generation", 0),
            "batches": served["coalescer"]["batches"],
            "coalesced": served["coalescer"]["queries"],
            "requests": served["requests"],
            "shed": sum(served["shed"].values()),
            "blocks_decoded": blocks,
        }

    def write(self, path: str) -> None:
        """Write the spans (one JSON line each) and the counters' deltas."""
        end = self._snapshot()
        deltas = {key: end[key] - self._base[key] for key in end}
        hits = misses = 0
        for cache, (base_hits, base_misses) in self._prefix_base.items():
            info = cache.info()
            hits += info["hits"] - base_hits
            misses += info["misses"] - base_misses
        deltas.update(prefix_hits=hits, prefix_misses=misses)
        deltas.update(self.counts)
        spans = list(self.spans)
        with open(path, "w") as out:
            out.write(json.dumps({"deltas": deltas, "batch_sizes": self.batch_sizes}) + "\n")
            for span in spans:
                out.write(json.dumps(span) + "\n")


def read_trace(path: str):
    """``(deltas, batch_sizes, spans)`` from a file :meth:`Tracer.write` wrote."""
    with open(path) as f:
        header = json.loads(f.readline())
        spans = [tuple(json.loads(line)) for line in f]
    batch_sizes = {int(batch): size for batch, size in header["batch_sizes"].items()}
    return header["deltas"], batch_sizes, spans


def self_times(spans, batch_sizes: Dict[int, int]) -> Dict[str, float]:
    """Self time in seconds per ledger row, summed over the queries.

    Every query of a coalesced batch waits for the whole batch, so a
    span inside a batch counts once for each of its queries.
    """
    covered: Dict[int, float] = collections.defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent:
            covered[parent] += end - start
    totals: Dict[str, float] = collections.defaultdict(float)
    for span_id, name, start, end, _, batch in spans:
        weight = 1 if name == "server.coalesce_wait" else batch_sizes.get(batch, 1)
        totals[ROWS[name]] += weight * ((end - start) - covered.get(span_id, 0.0))
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ledger(
    spans,
    batch_sizes: Dict[int, int],
    deltas: dict,
    queries: int,
    mean_latency_ms: float,
    update_body_bytes: int,
    worker_backend: bool,
) -> Dict[str, Optional[float]]:
    """The per-layer table of one traced phase.

    Times are total self time (see :func:`self_times`) divided by the
    queries the clients completed (``store.commit_ms``: by the commits),
    in milliseconds, so the query rows and ``unattributed_ms`` add up to
    the clients' mean latency.  Rows the fabric backend runs in worker
    processes are ``None`` there: not measured.
    """
    totals = self_times(spans, batch_sizes)
    per_query = {row: _ratio(totals.get(row, 0.0) * 1e3, queries) for row in QUERY_ROWS}
    commits = deltas.get("commits", 0)
    rows: Dict[str, Optional[float]] = dict(per_query)
    rows["store.commit_ms"] = _ratio(totals.get("store.commit_ms", 0.0) * 1e3, commits)
    rows["server.batch_size"] = _ratio(deltas["coalesced"], deltas["batches"])
    rows["server.shed_frac"] = _ratio(deltas["shed"], deltas["requests"])
    hits, misses = deltas.get("result_hits", 0), deltas.get("result_misses", 0)
    rows["service.result_hit_ratio"] = _ratio(hits, hits + misses)
    rows["service.plan_hit_ratio"] = _ratio(
        deltas["plan_hits"], deltas["plan_hits"] + deltas["plan_misses"]
    )
    run_batches = sum(1 for span in spans if span[1] == "backend.run_batch")
    rows["backend.tasks_per_batch"] = _ratio(deltas.get("tasks", 0), run_batches)
    rows["executor.prefix_hit_ratio"] = _ratio(
        deltas["prefix_hits"], deltas["prefix_hits"] + deltas["prefix_misses"]
    )
    rows["core.scanned_per_result"] = _ratio(
        deltas.get("scanned", 0), deltas.get("results", 0)
    )
    rows["store.write_amp"] = _ratio(deltas.get("commit_bytes", 0), update_body_bytes)
    rows["encoding.blocks_decoded_per_query"] = _ratio(deltas["blocks_decoded"], queries)
    rows["feedback.generation_bumps"] = float(deltas["generation"])
    rows["unattributed_ms"] = mean_latency_ms - sum(per_query.values())
    if worker_backend:
        for row in WORKER_ROWS:
            rows[row] = None
    return rows
