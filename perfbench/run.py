"""The repository's benchmark: served XPath queries and commits, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hot-cached --seed 1 --seconds 10 --trace 0

One run builds the workload's store from ``--seed``, starts the real
server (``perfbench/server_main.py``: ``QueryServer`` over
``QueryService``) in its own process, and drives it from this process
with closed-loop clients on keep-alive connections.  Every answer is
compared with the answer of a direct (no HTTP) ``QueryService`` over
an uncompressed copy of the store, run with the scalar engine and no
planner; any wrong answer makes the run exit with code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` records
spans around the calls into each layer (``tracer.py``) in the last of
the run's rounds, prints the per-layer ledger and the tracing overhead
(traced against untraced ``query_p50_ms``), and reports the per-layer
metrics.  The last line of standard output is the JSON result.

The self-test is ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time

import numpy
from harness import (
    Client,
    ServerProcess,
    become_subreaper,
    check,
    commit_probe,
    cpu_steal_s,
    percentile,
    query_body,
    reference_answers,
    run_phase,
    stop_children,
    windowed_percentile,
)
from tracer import ledger, read_trace
from workloads import (
    NOTE_QUERY,
    WORKLOADS,
    client_sequences,
    commit_stream,
    corpus,
    update_ops,
    warmup_queries,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Rounds per run (see ``run``).
ROUNDS = 3
#: Commits per idle probe (workloads without a writer), and the
#: interval at which they start.
PROBE_COMMITS = 100
PROBE_INTERVAL_S = 0.025
#: Tail percentile of the printed latency tails.
TAIL = 90


def _metric_units(trace: bool) -> dict:
    """Name → unit of the metrics a run reports, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _say(text: str = "") -> None:
    print(text, flush=True)


def _note_ranks(reference, names):
    """The document-relative rank the writer's note gets in each member.

    Found by appending the note to the reference store, querying it,
    and deleting it again.
    """
    from repro.service import parse_ops

    ranks = {}
    for name in names:
        reference.apply_updates(parse_ops(update_ops(name, 0, insert=True)))
        found = reference.execute(NOTE_QUERY, use_cache=False).per_document[name]
        ranks[name] = int(found[0])
        reference.apply_updates(parse_ops(update_ops(name, ranks[name], insert=False)))
    if reference.execute(NOTE_QUERY, use_cache=False).total:
        raise RuntimeError("the reference store kept a note after deleting it")
    return ranks


def _warm_up(port, queries, commits) -> None:
    """The end of set-up: each commit, then each query, once."""
    client = Client(port)
    try:
        for ops in commits:
            status, _ = client.request("POST", "/update", json.dumps({"ops": ops}).encode())
            if status != 200:
                raise RuntimeError(f"warm-up commit answered {status}")
        for query in queries:
            status, _ = client.request("POST", "/query", query_body(query))
            if status != 200:
                raise RuntimeError(f"warm-up query {query!r} answered {status}")
    finally:
        client.close()


def _store_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory)
    )


def _end_to_end(workload, windows, probes, verdict, setups, peak_rss_mb, store_ratio):
    """The end-to-end metrics of an untraced run.

    The latency tails are printed but not reported: on a shared virtual
    machine they follow the hypervisor's steal more than the program.
    """
    queries_ms = [ms for window in windows for ms in window.query_latencies_ms()]
    update_groups = [phase.update_latencies_ms() for phase in probes or windows]
    updates_ms = [ms for group in update_groups for ms in group]
    _say(f"{workload.name} samples: {len(queries_ms)} queries, {len(updates_ms)} commits"
         + (" (paced idle probes)" if probes else "") + f", {len(setups)} set-ups")
    query_tail = windowed_percentile(
        [window.query_latencies_ms() for window in windows], TAIL
    )
    update_tail = windowed_percentile(update_groups, TAIL)
    _say(f"{workload.name} tails (median over the {len(windows)} rounds of each "
         f"round's p{TAIL}): query_p{TAIL}_ms {query_tail:.4f} ms, "
         f"update_p{TAIL}_ms {update_tail:.4f} ms")
    return {
        "query_p50_ms": percentile(queries_ms, 50),
        "throughput_qps": verdict.verified / sum(window.seconds for window in windows),
        "update_p50_ms": percentile(updates_ms, 50),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "store_bytes_per_xml_byte": store_ratio,
    }


def _per_layer(workload, untraced, traced, trace_path, units):
    """The per-layer ledger of a traced run, printed as a table."""
    deltas, batch_sizes, spans = read_trace(trace_path)
    traced_ms = traced.query_latencies_ms()
    mean_ms = statistics.fmean(traced_ms)
    rows = ledger(
        spans, batch_sizes, deltas,
        queries=len(traced_ms),
        mean_latency_ms=mean_ms,
        update_body_bytes=sum(u.request_bytes for u in traced.updates),
        worker_backend=workload.backend.startswith("fabric"),
    )
    p50_traced = percentile(traced_ms, 50)
    p50_untraced = percentile(
        [ms for window in untraced for ms in window.query_latencies_ms()], 50
    )
    rows["unattributed_share"] = rows["unattributed_ms"] / p50_traced
    rows["trace.overhead_frac"] = p50_traced / p50_untraced - 1.0
    _say(f"{workload.name} ledger over {len(traced_ms)} traced queries, "
         f"{deltas.get('commits', 0)} commits, {len(spans)} spans "
         f"(mean client latency {mean_ms:.3f} ms; query p50 "
         f"{p50_untraced:.3f} ms untraced, {p50_traced:.3f} ms traced)")
    for name, value in rows.items():
        shown = "not measured (runs in fabric workers)" if value is None else f"{value:.4f}"
        _say(f"  {name:36s} {shown} {units[name]}")
    # The result line needs numbers: a row not measured reads 0.
    return {name: 0.0 if value is None else value for name, value in rows.items()}


def run(workload, seed: int, seconds: float, trace: bool,
        size_scale: float = 1.0, plant_wrong: bool = False) -> dict:
    """One benchmark run; returns the result object (see ``main``).

    A run makes ``ROUNDS`` rounds.  Each sets up a fresh store and
    server (timed: ``setup_s`` is the median), drives it for its share
    of ``seconds`` and, for a workload without a writer, then probes
    commit latency on the idle server.  Spread over the rounds, a slow
    spell of the machine moves a run's figures less.  A traced run
    traces the last round only.
    """
    from repro.service import QueryService, ShardedStore
    from repro.xmltree.serializer import serialize

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    server = None
    try:
        documents = corpus(workload, seed, size_scale)
        xml_bytes = sum(len(serialize(tree).encode()) for _, tree in documents)
        sequences = client_sequences(workload, seed)
        reference_dir = os.path.join(work, "reference")
        with QueryService(
            ShardedStore.build(
                reference_dir, documents, shards=workload.shards, compression="none"
            ),
            backend="serial", engine="scalar", planner=False, feedback=False,
        ) as reference:
            note_ranks = _note_ranks(reference, [name for name, _ in documents])
        commits = commit_stream(workload, seed, note_ranks)
        writer = workload.reads_per_write > 0
        warm_commits = commits[:2] if writer else []
        warm_queries = warmup_queries(workload, sequences)
        positions = [0] * len(sequences)  # each client's place in its cycle
        trace_path = os.path.join(work, "spans.jsonl")

        setups, windows, probes, peaks = [], [], [], []
        steal_s = 0.0
        for rnd in range(ROUNDS):
            store_dir = os.path.join(work, f"store-{rnd}")
            started = time.perf_counter()
            ShardedStore.build(store_dir, documents, shards=workload.shards)
            server = ServerProcess(store_dir, workload.backend, plant_wrong)
            _warm_up(server.port, warm_queries, warm_commits)
            setups.append(time.perf_counter() - started)
            if rnd == 0:
                store_bytes = _store_bytes(store_dir)
                formats = [
                    f"v{shard['format_version']}"
                    for shard in ShardedStore.open(store_dir).info()["shards"]
                ]
            traced = trace and rnd == ROUNDS - 1
            if traced:
                server.command("trace")
            steal_before = cpu_steal_s()
            windows.append(run_phase(
                server.port, sequences, positions, seconds / ROUNDS,
                commits=commits if writer else None,
                reads_per_write=workload.reads_per_write,
                # Each round's store is fresh: its commits start over.
                first_commit=len(warm_commits),
            ))
            steal_s += cpu_steal_s() - steal_before
            if traced:
                server.command(f"report {trace_path}")
            if not writer and not trace:
                probes.append(
                    commit_probe(server.port, commits, PROBE_COMMITS, PROBE_INTERVAL_S)
                )
            peaks.append(server.peak_rss_mb())
            server.stop()
            server = None
            shutil.rmtree(store_dir)

        answered = sorted(
            {s.query for window in windows for s in window.queries if s.status == 200}
        )
        verdict = check(windows + probes, reference_answers(reference_dir, answered))
        facts = {
            "store": f"{workload.documents} docs x {workload.size_mb * size_scale:g} MB "
                     f"in {workload.shards} shards ({', '.join(formats)}), "
                     f"{xml_bytes} XML bytes",
            "backend": workload.backend,
            "clients": f"{len(sequences)} query"
                       + (f" + 1 writer, {workload.reads_per_write}:1 reads:writes"
                          if writer else ", no writer"),
            "machine": f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
                       f"numpy {numpy.__version__}; hypervisor steal "
                       f"{steal_s / sum(w.seconds for w in windows):.1%} of a CPU "
                       "while timed",
        }
        for key, value in facts.items():
            _say(f"{workload.name} {key}: {value}")
        units = _metric_units(trace)
        if trace:
            metrics = _per_layer(workload, windows[:-1], windows[-1], trace_path, units)
        else:
            metrics = _end_to_end(
                workload, windows, probes, verdict, setups,
                max(peaks), store_bytes / xml_bytes,
            )
        if verdict.wrong:
            _say(f"{workload.name}: {verdict.wrong} wrong answers, "
                 f"first for {verdict.first_wrong!r}")
        return {
            "correct": verdict.wrong == 0,
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
            },
        }
    finally:
        if server is not None:
            server.kill()
        stop_children()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size-scale", type=float, default=1.0,
                        help="scale every document's size (the self-test runs tiny stores)")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="make the server send some wrong answers (self-test)")
    args = parser.parse_args(argv)
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    become_subreaper()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(expected one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 args.size_scale, args.plant_wrong)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
