"""Server process control, closed-loop HTTP clients and the answer checker."""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seconds a request may take before it counts as failed (timeout).
REQUEST_TIMEOUT_S = 30.0

#: Environment variables that would silently change how the server
#: runs; the launcher removes them and passes the backend explicitly.
PINNED_ENV = ("REPRO_BACKEND", "REPRO_FEEDBACK_SAMPLE")


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


class ServerProcess:
    """``server_main.py`` in a child process, driven over its stdin."""

    def __init__(self, store_dir: str, backend: str, plant_wrong: bool = False):
        env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
        command = [
            sys.executable, os.path.join(HERE, "server_main.py"),
            "--store", store_dir, "--backend", backend,
        ]
        if plant_wrong:
            command.append("--plant-wrong")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        reply = self._reply(120.0).split()
        if len(reply) != 2 or reply[0] != "ready":
            self.kill()
            raise RuntimeError(f"server did not start: {reply!r}")
        self.port = int(reply[1])

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put("")  # end of output

    def _reply(self, timeout: float) -> str:
        try:
            return self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError("server process stopped answering") from None

    def command(self, text: str, timeout: float = 60.0) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        reply = self._reply(timeout)
        if reply != "ok":
            raise RuntimeError(f"server answered {reply!r} to {text!r}")

    def children(self) -> List[int]:
        """Process ids of the server's worker processes."""
        return child_pids(self.proc.pid)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server plus its largest child."""
        largest = max((_peak_rss_kib(pid) for pid in self.children()), default=0)
        return (_peak_rss_kib(self.proc.pid) + largest) / 1024.0

    def stop(self) -> None:
        """Drain and stop the server; kill it if it does not exit."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.kill()
        self._reader.join(timeout=10)

    def kill(self) -> None:
        """Kill the server and its workers, and wait for the server
        (``stop_children`` waits for the workers)."""
        for pid in self.children():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.kill()
        self.proc.wait()


def become_subreaper() -> None:
    """Adopt the orphans of this process's children (Linux), so that
    ``stop_children`` can wait for a killed server's workers."""
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_children() -> None:
    """Kill every child process still left, adopted ones too, and wait
    for each."""
    for pid in child_pids(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def child_pids(parent: int) -> List[int]:
    """Process ids of the children of process ``parent``."""
    pids = []
    task_dir = f"/proc/{parent}/task"
    try:
        for tid in os.listdir(task_dir):
            with open(os.path.join(task_dir, tid, "children")) as f:
                pids.extend(int(pid) for pid in f.read().split())
    except FileNotFoundError:  # the process (or a thread) exited
        pass
    return pids


def cpu_steal_s() -> float:
    """CPU time the hypervisor has taken from this machine since boot:
    on a shared virtual machine it is what makes latency tails noisy."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except FileNotFoundError:  # the child exited meanwhile
        pass
    return 0


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
class Client:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        """``(status, body)``; ``(0, b"")`` when the request timed out or
        the connection broke (the connection is then reopened)."""
        try:
            self.conn.request(method, path, body=body)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
            return 0, b""

    def close(self) -> None:
        self.conn.close()


class QuerySample(NamedTuple):
    query: str
    status: int  #: 0 = timed out or connection broken
    latency_s: float
    body: bytes


class UpdateSample(NamedTuple):
    status: int
    latency_s: float
    body: bytes
    request_bytes: int


@dataclass
class Phase:
    """What the clients saw during one timed phase."""

    seconds: float = 0.0  #: wall time of the loops
    queries: List[QuerySample] = field(default_factory=list)
    updates: List[UpdateSample] = field(default_factory=list)

    def query_latencies_ms(self) -> List[float]:
        return [s.latency_s * 1e3 for s in self.queries if s.status == 200]

    def update_latencies_ms(self) -> List[float]:
        return [s.latency_s * 1e3 for s in self.updates if s.status == 200]


def windowed_percentile(groups: Sequence[Sequence[float]], p: float) -> float:
    """The median over sample groups (one per round) of each group's
    percentile: a slow spell of the machine that hits one round does
    not move it."""
    return statistics.median(percentile(group, p) for group in groups if group)


def query_body(query: str) -> bytes:
    return json.dumps({"query": query, "mode": "materialize"}).encode()


def run_phase(
    port: int,
    sequences: Sequence[Sequence[str]],
    positions: List[int],
    seconds: float,
    commits: Optional[Sequence[List[dict]]] = None,
    reads_per_write: int = 0,
    first_commit: int = 0,
) -> Phase:
    """Drive closed loops for ``seconds``.

    One thread per query sequence sends its next query only after the
    previous answer arrived; ``positions`` carries each client's place
    in its cycle across phases.  With ``commits``, one more thread is a
    writer that commits once per ``reads_per_write`` answered queries,
    so the read:write ratio stays fixed whatever the speed; it starts at
    ``commits[first_commit]``.
    """
    phase = Phase()
    bodies = [[query_body(q) for q in sequence] for sequence in sequences]
    progress = threading.Condition()
    answered = [0]
    start_barrier = threading.Barrier(len(sequences) + (1 if commits else 0) + 1)
    deadline = 0.0  # set just before the barrier opens
    errors: List[BaseException] = []

    def reader(index: int) -> None:
        client = Client(port)
        sequence, body = sequences[index], bodies[index]
        samples = []
        distinct: Dict[bytes, bytes] = {}  # repeated answers share one body
        try:
            start_barrier.wait()
            while time.perf_counter() < deadline:
                k = positions[index] % len(sequence)
                positions[index] += 1
                started = time.perf_counter()
                status, data = client.request("POST", "/query", body[k])
                samples.append(QuerySample(
                    sequence[k], status, time.perf_counter() - started,
                    distinct.setdefault(data, data),
                ))
                with progress:
                    answered[0] += 1
                    progress.notify_all()
        except BaseException as error:  # noqa: BLE001 - reported after join
            errors.append(error)
        finally:
            client.close()
            phase.queries.extend(samples)

    def writer() -> None:
        client = Client(port)
        samples = []
        try:
            start_barrier.wait()
            done = 0
            position = first_commit
            while True:
                with progress:
                    while (
                        answered[0] < (done + 1) * reads_per_write
                        and time.perf_counter() < deadline
                    ):
                        progress.wait(timeout=0.05)
                if time.perf_counter() >= deadline:
                    break
                ops = commits[position % len(commits)]
                position += 1
                body = json.dumps({"ops": ops}).encode()
                started = time.perf_counter()
                status, data = client.request("POST", "/update", body)
                samples.append(UpdateSample(
                    status, time.perf_counter() - started, data, len(body)
                ))
                done += 1
        except BaseException as error:  # noqa: BLE001 - reported after join
            errors.append(error)
        finally:
            client.close()
            phase.updates.extend(samples)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(len(sequences))]
    if commits:
        threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    deadline = started + seconds
    start_barrier.wait()
    for thread in threads:
        thread.join()
    phase.seconds = time.perf_counter() - started
    if errors:
        raise errors[0]
    return phase


def commit_probe(
    port: int, commits: Sequence[List[dict]], count: int, interval_s: float
) -> Phase:
    """``count`` commits on an otherwise idle server, one started every
    ``interval_s`` (or as soon as the previous one returned, if later):
    spread over time, they sample the machine's fast and slow spells."""
    phase = Phase()
    client = Client(port)
    try:
        begun = time.perf_counter()
        for k in range(count):
            time.sleep(max(0.0, begun + k * interval_s - time.perf_counter()))
            body = json.dumps({"ops": commits[k % len(commits)]}).encode()
            started = time.perf_counter()
            status, data = client.request("POST", "/update", body)
            phase.updates.append(
                UpdateSample(status, time.perf_counter() - started, data, len(body))
            )
    finally:
        client.close()
    return phase


# ----------------------------------------------------------------------
# Answer checker
# ----------------------------------------------------------------------
def answer_digest(total: int, per_document: List[tuple]) -> str:
    """A digest of one answer: its total and its per-document rank
    lists, in document order."""
    text = json.dumps([int(total), [[name, list(ranks)] for name, ranks in per_document]])
    return hashlib.sha256(text.encode()).hexdigest()


def served_digest(body: bytes) -> Optional[str]:
    """The digest of a ``/query`` response body (``None`` if malformed)."""
    try:
        payload = json.loads(body)
        per_document = [
            (name, [int(r) for r in ranks])
            for name, ranks in payload["per_document"].items()
        ]
        total = int(payload["total"])
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
    return answer_digest(total, per_document)


@dataclass
class Verdict:
    """The answer checker's counts over every request of a run."""

    attempted: int = 0
    failed: int = 0  #: non-200, timeout or wrong answer
    wrong: int = 0  #: 200 with an answer that differs from the reference
    verified: int = 0  #: correct query answers
    first_wrong: Optional[str] = None


def reference_answers(directory: str, queries: Sequence[str]) -> Dict[str, str]:
    """Digests of the reference answers to ``queries``.

    The reference is a direct (no HTTP) ``QueryService`` over
    ``directory`` with the scalar engine and no planner: another code
    path than the server's.  It runs after the server has stopped, in
    one ``reference_main.py`` process per CPU; each is waited for, and
    killed if this call fails.
    """
    count = max(1, min(os.cpu_count() or 1, len(queries)))
    chunks = [list(queries[k::count]) for k in range(count)]
    scratch = tempfile.mkdtemp(prefix="reference-", dir=os.path.dirname(directory))
    workers = []
    try:
        for k, chunk in enumerate(chunks):
            queries_path = os.path.join(scratch, f"queries-{k}.jsonl")
            digests_path = os.path.join(scratch, f"digests-{k}.txt")
            with open(queries_path, "w") as f:
                f.writelines(json.dumps(query) + "\n" for query in chunk)
            workers.append((digests_path, subprocess.Popen([
                sys.executable, os.path.join(HERE, "reference_main.py"),
                "--store", directory, "--queries", queries_path, "--digests", digests_path,
            ])))
        answers = {}
        for chunk, (digests_path, worker) in zip(chunks, workers):
            if worker.wait() != 0:
                raise RuntimeError(f"reference worker exited with {worker.returncode}")
            with open(digests_path) as f:
                digests = f.read().split()
            if len(digests) != len(chunk):
                raise RuntimeError(f"reference worker gave {len(digests)} digests "
                                   f"for {len(chunk)} queries")
            answers.update(zip(chunk, digests))
        return answers
    finally:
        for _, worker in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
        shutil.rmtree(scratch, ignore_errors=True)


def check(phases: Sequence[Phase], expected: Dict[str, str]) -> Verdict:
    """Compare every answer with the digest ``expected[query]``.

    Identical response bodies are parsed once.
    """
    verdict = Verdict()
    parsed: Dict[bytes, Optional[str]] = {}
    for phase in phases:
        for sample in phase.queries:
            verdict.attempted += 1
            if sample.status != 200:
                verdict.failed += 1
                continue
            if sample.body not in parsed:
                parsed[sample.body] = served_digest(sample.body)
            if parsed[sample.body] == expected[sample.query]:
                verdict.verified += 1
            else:
                verdict.failed += 1
                verdict.wrong += 1
                if verdict.first_wrong is None:
                    verdict.first_wrong = sample.query
        for sample in phase.updates:
            verdict.attempted += 1
            ok = sample.status == 200
            if ok:
                try:
                    ok = json.loads(sample.body)["applied"] == 1
                except (ValueError, KeyError, TypeError):
                    ok = False
            if not ok:
                verdict.failed += 1
    return verdict
