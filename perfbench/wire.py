"""The wire phase: the paper's adaptive loop through ``repro serve --listen``.

Each episode drives a fresh server, whose M*(k) starts cold, over TCP
with :class:`NetClient`: three passes of the workload split into 101
chunks, with two random updates and one REFINE between chunks.  All
load comes from one process over :data:`common.CONNECTIONS` connections
in closed loops: each connection waits for its reply before it sends
the next request.  Updates invalidate cached results, so refinement,
index walks and data-graph validation do the work.
"""

from __future__ import annotations

import bisect
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time

import common
import spans as _spans

from repro.indexes import maintenance
from repro.net.client import LoadShedError, NetClient, NetError, RemoteError
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import as_expression
from repro.serving.replay import random_update
from repro.storage.serialization import load_graph

#: Episode schedule: passes over the workload, chunks they are split
#: into, random updates and REFINE calls between consecutive chunks.
PASSES = 3
CHUNKS = 101
UPDATES_PER_GAP = 2
#: Seconds a server may take to start listening or to shut down.
SERVER_WAIT_S = 60.0

# Sample columns: workload position, send time, reply time, answer
# count, served from the cache, validated.
POS, SENT, REPLIED, COUNT, CACHE_HIT, VALIDATED = range(6)


def _pin_server() -> None:
    os.sched_setaffinity(0, common.SERVER_CPUS)


class Server:
    """A ``repro serve DOC --listen 127.0.0.1:0`` subprocess.

    With ``spans_path`` the same command runs under ``launch.py``, which
    records spans at the layer boundaries and writes them there on exit.
    """

    def __init__(self, document: str, spans_path: str | None = None):
        if spans_path is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, os.path.join(common.HERE, "launch.py"),
                    spans_path, "--"]
        argv += ["serve", document, "--listen", "127.0.0.1:0"]
        env = dict(os.environ, PYTHONPATH=common.SRC)
        # Spawned while the benchmark runs no other thread, so the
        # pre-exec hook is safe.
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, env=env,
                                     text=True, preexec_fn=_pin_server)
        try:
            self.address = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + SERVER_WAIT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not start listening")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before "
                    f"listening")
            if "listening on " in line:
                host, _, port = line.split("listening on ")[1].split()[0] \
                    .rpartition(":")
                return host, int(port)

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MB (10^6 bytes)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVER_WAIT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Mirror:
    """The benchmark's copy of the served document.

    :func:`random_update` draws oids and labels from ``graph``; every
    update lands on the copy first and is then sent to the server, and
    the oids the server allocates must equal the copy's.  Only the round
    trip is timed.
    """

    def __init__(self, graph, client: NetClient) -> None:
        self.graph = graph
        self.client = client
        self.update_s: list[float] = []

    def add_reference(self, source_oid: int, target_oid: int) -> None:
        maintenance.add_reference(self.graph, source_oid, target_oid,
                                  indexes=())
        started = time.monotonic()
        self.client.add_reference(source_oid, target_oid)
        self.update_s.append(time.monotonic() - started)

    def insert_subtree(self, parent_oid: int, subtree) -> list[int]:
        local = maintenance.insert_subtree(self.graph, parent_oid, subtree,
                                           indexes=())
        started = time.monotonic()
        remote = self.client.insert_subtree(parent_oid, subtree)
        self.update_s.append(time.monotonic() - started)
        if list(remote) != list(local):
            raise RuntimeError(f"server allocated oids {remote}, the mirror "
                               f"{local}: the documents diverged")
        return local


class Session:
    """A server started over ``document``, the benchmark's copy of that
    document, the workload and the connections."""

    def __init__(self, document: str, exprs: list[str], seed: int,
                 spans_path: str | None = None) -> None:
        self.exprs = exprs
        self.seed = seed
        self.server = Server(document, spans_path)
        self.clients: list[NetClient] = []
        try:
            # The copy is read back from the file the server loaded, so
            # both sides start from the same bytes.
            self.graph = load_graph(document)
            host, port = self.server.address
            self.clients = [NetClient(host, port, io_timeout_s=SERVER_WAIT_S)
                            for _ in range(common.CONNECTIONS)]
        except BaseException:
            self.close()
            raise

    def stats(self) -> dict:
        return self.clients[0].stats()

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()


def drive(clients: list[NetClient], exprs: list[str], order,
          deadline: float | None, samples: list, failures: list[int]) -> None:
    """Closed loops, one per connection, over positions drawn from ``order``.

    Each connection sends its next query only after the previous reply.
    Stops when ``order`` is exhausted or at ``deadline``.  Queries
    answered SHED or ERROR count as failures and are not retried; a
    transport failure also ends that connection's loop.
    """
    lock = threading.Lock()

    def loop(client: NetClient) -> None:
        local: list[tuple] = []
        failed = 0
        while deadline is None or time.monotonic() < deadline:
            try:
                position = next(order)
            except StopIteration:
                break
            sent = time.monotonic()
            try:
                response = client.query(exprs[position])
            except (LoadShedError, RemoteError):
                failed += 1
                continue
            except NetError:
                failed += 1
                break
            replied = time.monotonic()
            local.append((position, sent, replied, len(response["answers"]),
                          response["cache_hit"], response["validated"]))
        with lock:
            samples.extend(local)
            failures[0] += failed

    threads = [threading.Thread(target=loop, args=(client,), daemon=True)
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def check_final_answers(session: Session) -> list[str]:
    """Query every distinct expression once more and compare each answer
    set with the data-graph oracle on the benchmark's document copy;
    return the mismatches."""
    problems = []
    for expr in sorted(set(session.exprs)):
        answers = session.clients[0].query(expr)["answers"]
        expected = evaluate_on_data_graph(session.graph, as_expression(expr))
        if set(answers) != expected:
            problems.append(f"{expr}: {len(answers)} answers served, "
                            f"{len(expected)} expected")
    return problems


def _latency_metrics(samples: list, qps: float) -> dict:
    latencies = [(s[REPLIED] - s[SENT]) * 1e3 for s in samples]
    return {"query_qps": qps,
            "query_p50_ms": common.percentile(latencies, 0.50),
            "query_p99_ms": common.percentile(latencies, 0.99)}


def _shares(samples: list) -> dict:
    count = len(samples)
    return {"cache_hit_ratio": sum(1 for s in samples if s[CACHE_HIT]) / count,
            "validated_share": sum(1 for s in samples if s[VALIDATED]) / count,
            "answers_per_query": sum(s[COUNT] for s in samples) / count}


def _server_failures(before: dict, after: dict) -> dict:
    """SHED, ERROR and BAD_REQUEST answers between two STATS replies."""
    return {key: after["server"][key] - before["server"][key]
            for key in ("shed", "errors", "bad_requests")}


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------
def _chunks(items: list, pieces: int) -> list[list]:
    """Near-equal consecutive chunks: the split ``repro serve`` replays
    use (private to :mod:`repro.serving.replay`)."""
    size, extra = divmod(len(items), pieces)
    out, start = [], 0
    for i in range(pieces):
        end = start + size + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return out


def episode(session: Session) -> dict:
    """One pass of the adaptive schedule against ``session``'s server."""
    mirror = Mirror(session.graph, session.clients[0])
    rng = random.Random(session.seed)
    samples: list = []
    failures = [0]
    chunk_qps: list[float] = []
    refine_s = 0.0
    refines = 0
    before = session.stats()
    started = time.monotonic()
    chunks = _chunks(list(range(len(session.exprs))) * PASSES, CHUNKS)
    for number, chunk in enumerate(chunks):
        chunk_started = time.monotonic()
        drive(session.clients, session.exprs, iter(chunk), None, samples,
              failures)
        chunk_qps.append(len(chunk) / (time.monotonic() - chunk_started))
        if number == len(chunks) - 1:
            break
        for _ in range(UPDATES_PER_GAP):
            random_update(mirror, rng)
        refine_started = time.monotonic()
        session.clients[0].refine()
        refine_s += time.monotonic() - refine_started
        refines += 1
    window = (started, time.monotonic())
    server_failures = _server_failures(before, session.stats())
    return {"samples": samples, "failed": failures[0], "chunk_qps": chunk_qps,
            "refine_s": refine_s, "update_s": mirror.update_s,
            "attempted": len(samples) + failures[0] + len(mirror.update_s)
            + refines,
            "window": window, "server_failures": server_failures,
            "rss_peak_mb": session.server.peak_rss_mb(),
            "exprs": session.exprs,
            "problems": check_final_answers(session)}


def phase(episodes: list[dict], first: int) -> dict:
    """Wire-phase metrics, properties and samples over ``episodes``.

    The shares are taken over the first ``first`` episodes only: how
    many more fit in the run's seconds depends on the host's speed, and
    the shares should not.
    """
    samples = [sample for e in episodes for sample in e["samples"]]
    update_ms = [value * 1e3 for e in episodes for value in e["update_s"]]
    refine_s = [e["refine_s"] for e in episodes]
    metrics = {**_latency_metrics(samples, common.median(
                   [qps for e in episodes for qps in e["chunk_qps"]])),
               "update_p50_ms": common.percentile(update_ms, 0.50),
               "update_p95_ms": common.percentile(update_ms, 0.95),
               "refine_s": common.median(refine_s),
               "rss_peak_mb": common.median([e["rss_peak_mb"]
                                             for e in episodes]),
               **_shares([sample for e in episodes[:first]
                          for sample in e["samples"]])}
    answers_per_query = metrics.pop("answers_per_query")
    properties = {"episodes": len(episodes),
                  "wire_queries": len(samples),
                  "wire_seconds": sum(e["window"][1] - e["window"][0]
                                      for e in episodes),
                  "updates": len(update_ms),
                  "answers_per_query_first_episodes": answers_per_query}
    last = episodes[-1]
    return {"metrics": metrics, "properties": properties,
            "attempted": sum(e["attempted"] for e in episodes),
            "failed": sum(e["failed"] for e in episodes),
            "problems": [p for e in episodes for p in e["problems"]],
            "last_server_failures": last["server_failures"],
            "samples": {"refine_s": refine_s, "update_ms": update_ms,
                        "query_ms": [(s[REPLIED] - s[SENT]) * 1e3
                                     for s in samples]},
            "trace": {"window": last["window"], "samples": last["samples"],
                      "exprs": last["exprs"]}}


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def _outside_serving(samples: list, exprs: list[str], served: list) -> list:
    """Round trip minus the paired ``ServingEngine.query`` span, per query.

    A reply's span is the unpaired span of the same expression that
    starts after the send and ends before the reply.
    """
    by_expr: dict[str, list] = {}
    for span in served:
        by_expr.setdefault(span[_spans.ATTRS]["expr"], []).append(span)
    starts = {}
    for expr, group in by_expr.items():
        group.sort(key=lambda span: span[_spans.START])
        starts[expr] = [span[_spans.START] for span in group]
    used: set[int] = set()
    pairs = []
    for sample in samples:
        expr = exprs[sample[POS]]
        group = by_expr.get(expr, [])
        index = bisect.bisect_left(starts.get(expr, []), sample[SENT])
        while index < len(group) and \
                group[index][_spans.START] <= sample[REPLIED]:
            span = group[index]
            if span[_spans.ID] not in used and \
                    span[_spans.END] <= sample[REPLIED]:
                used.add(span[_spans.ID])
                rtt = sample[REPLIED] - sample[SENT]
                pairs.append((rtt, span[_spans.END] - span[_spans.START]))
                break
            index += 1
    return pairs


def layer_metrics(run: dict, spans_path: str) -> dict:
    """Per-layer metrics of the last episode of ``run`` (a :func:`phase`
    summary) from the server's spans and the client samples."""
    dump = _spans.load(spans_path)
    trace = run["trace"]
    window = trace["window"]
    spans = _spans.within(dump["spans"], *window)
    samples = trace["samples"]

    def named(name: str) -> list:
        return [span for span in spans if span[_spans.NAME] == name]

    layers: dict[str, float] = {}
    served = named("serving.query")
    pairs = _outside_serving(samples, trace["exprs"], served)
    if pairs:
        layers["net.outside_serving_p50_ms"] = common.median(
            [(rtt - inside) * 1e3 for rtt, inside in pairs])
        layers["net.outside_serving_share"] = 1 - common.ratio(
            sum(inside for _, inside in pairs), sum(rtt for rtt, _ in pairs))
    layers["net.answers_per_query"] = common.ratio(
        sum(s[COUNT] for s in samples), len(samples))
    failures = run["last_server_failures"]
    layers["net.shed"] = failures["shed"]
    layers["net.errors"] = failures["errors"] + failures["bad_requests"]

    if served:
        layers["serving.query_self_p50_ms"] = common.median(
            _spans.self_times(spans, served)) * 1e3
        layers["serving.cache_hit_ratio"] = common.ratio(
            sum(1 for s in served if s[_spans.ATTRS]["cache_hit"]),
            len(served))
        layers["serving.conflicts"] = sum(s[_spans.ATTRS]["conflicts"]
                                          for s in served)
        layers["serving.degraded"] = sum(1 for s in served
                                         if s[_spans.ATTRS]["degraded"])
    updates = named("serving.update")
    if updates:
        layers["serving.update_wait_p50_ms"] = common.median(
            _spans.self_times(spans, updates)) * 1e3

    executes = named("core.execute")
    if executes:
        layers["core.execute_s"] = sum(s[_spans.END] - s[_spans.START]
                                       for s in executes)
        layers["core.cache_hit_ratio"] = common.ratio(
            sum(1 for s in executes if s[_spans.ATTRS]["cache_hit"]),
            len(executes))

    served_ids = {span[_spans.ID] for span in served}
    reads = [span for span in named("indexes.query")
             if span[_spans.PARENT] in served_ids]
    layers.update(_spans.read_path_metrics(reads))
    refines = named("indexes.refine")
    if refines:
        layers["indexes.refine_s"] = sum(s[_spans.END] - s[_spans.START]
                                         for s in refines)
        layers["indexes.refine_visits"] = sum(s[_spans.ATTRS]["visits"]
                                              for s in refines)
        layers["indexes.refinements"] = len(refines)
    maintained = named("indexes.maintenance")
    if maintained:
        layers["indexes.maintenance_p50_ms"] = common.median(
            [s[_spans.END] - s[_spans.START] for s in maintained]) * 1e3
    if dump["engines"]:
        engine = dump["engines"][-1]
        layers["indexes.size_nodes"] = engine["size_nodes"]
        layers["indexes.size_edges"] = engine["size_edges"]
    return layers
