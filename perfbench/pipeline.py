"""One workload run: set-ups, the wire phase, then the paged phase.

Every workload drives the whole program over one document: the
adaptive M*(k) served over TCP with writes and REFINE (:mod:`wire`),
then the A(8) and M*(8) segments built through the spill path and
queried out of core (:mod:`paged`).  The workloads differ in the
longest query they draw, so they differ in how much of the work is
refinement and data-graph validation.
"""

from __future__ import annotations

import os
import time

import common
import paged
import spans as _spans
import wire

from repro.datasets import generate_nasa
from repro.queries.workload import Workload
from repro.storage.serialization import save_graph

#: Share of ``--seconds`` given to the wire phase; the paged phase gets
#: the rest.
WIRE_SHARE = 0.75
#: Draws of queries the paged phase answers, the first ones the wire
#: episodes' own.  Paged queries are cheap, so every workload takes
#: four: with two the pages requested per query spread by 0.065 of their
#: median over ten seeds on ``long-queries``.
PAGED_DRAWS = 4
EPISODE_SEED_STRIDE = 1_000_003


def _draw(graph, max_length: int, seed: int) -> list:
    return list(Workload.generate(graph, num_queries=common.QUERIES,
                                  max_length=max_length, seed=seed).queries)


class Setup:
    """Everything before the measured phases, timed as ``setup_s``:
    document generation, the document file, a server started over it
    and connected to, and both segment builds."""

    def __init__(self, number: int, max_length: int, seed: int,
                 spans_path: str | None) -> None:
        started = time.monotonic()
        graph = generate_nasa(scale=common.SCALE, seed=common.DOCUMENT_SEED)
        self.generate_s = time.monotonic() - started
        self.queries = _draw(graph, max_length, seed)
        os.makedirs(common.WORK, exist_ok=True)
        document = os.path.join(common.WORK, f"nasa-{common.SCALE}.rpgr")
        save_graph(graph, document)
        self.session = wire.Session(document,
                                    [str(expr) for expr in self.queries],
                                    seed, spans_path)
        try:
            # The segments are built over the generated graph, which the
            # wire phase's updates never touch.
            self.build = paged.Build(graph, str(number))
        except BaseException:
            self.session.close()
            raise
        self.setup_s = time.monotonic() - started


def run(max_length: int, draws: int, seed: int, seconds: float,
        setups: int, spans_path: str | None = None,
        recorder: _spans.SpanRecorder | None = None) -> dict:
    """Set up, run wire episodes, then page; return metrics and samples.

    Each episode runs on a fresh set-up with its own draw of queries and
    updates, until ``WIRE_SHARE * seconds`` of episode time and at least
    ``draws`` episodes.  Set-ups with no episode follow until there are
    ``setups`` of them.  The paged phase then answers
    :data:`PAGED_DRAWS` draws through the last set-up's segments for the
    rest of ``seconds``.
    """
    setup_s: list[float] = []
    build_s: list[float] = []
    digests: list[tuple[str, str]] = []
    episodes: list[dict] = []
    wire_seconds = 0.0
    last: Setup | None = None
    try:
        while True:
            wire_due = len(episodes) < draws or \
                wire_seconds < WIRE_SHARE * seconds
            if not wire_due and len(setup_s) >= setups:
                break
            number = len(setup_s)
            setup = Setup(number, max_length,
                          seed + EPISODE_SEED_STRIDE * number, spans_path)
            if last is not None:
                last.build.close()
            last = setup
            setup_s.append(setup.setup_s)
            build_s.append(setup.build.build_s)
            digests.append(setup.build.digests())
            try:
                if wire_due:
                    episode = wire.episode(setup.session)
                    episodes.append(episode)
                    wire_seconds += episode["window"][1] - episode["window"][0]
            finally:
                setup.session.close()
        queries = [expr for number in range(PAGED_DRAWS)
                   for expr in _draw(last.build.graph, max_length,
                                     seed + EPISODE_SEED_STRIDE * number)]
        paged_run = paged.phase(last.build, queries,
                                (1 - WIRE_SHARE) * seconds, digests,
                                build_s, recorder)
    finally:
        if last is not None:
            last.build.close()
    wire_run = wire.phase(episodes, draws)
    properties = {"document_nodes": last.build.graph.num_nodes,
                  "setups": len(setup_s), **wire_run["properties"],
                  **paged_run["properties"]}
    return {"metrics": {"setup_s": common.median(setup_s),
                        **wire_run["metrics"], **paged_run["metrics"]},
            "attempted": wire_run["attempted"] + paged_run["attempted"],
            "failed": wire_run["failed"],
            "problems": wire_run["problems"] + paged_run["problems"],
            "properties": properties,
            "samples": {"setup_s": setup_s, **wire_run["samples"],
                        **paged_run["samples"]},
            "wire": wire_run, "layers": {
                **paged_run["layers"],
                "datasets.generate_s": last.generate_s}}
