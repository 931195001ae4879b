"""Shared helpers: locations, percentiles and the run environment."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Generated documents, segments, span dumps and run records.  Ignored
#: by git; every file the benchmark writes lives under it.
WORK = os.path.join(HERE, ".work")

#: The document of every workload: nasa at this scale, generator seed 7
#: (the ``repro`` CLI's default).  The document stays fixed so that the
#: spread between runs measures the program; ``--seed`` draws the
#: queries and the updates.
SCALE = 0.2
DOCUMENT_SEED = 7
#: Each workload's longest query (``Workload.generate(max_length=)``)
#: and the number of draws of queries and updates, one wire episode
#: each, that every run makes however fast it goes.  Short queries make
#: quick episodes, so that workload takes more draws, which narrows the
#: spread between seeds of the shares it reports.
WORKLOADS = {"long-queries": {"max_length": 9, "draws": 2},
             "short-queries": {"max_length": 4, "draws": 4}}
#: How the benchmark drives the program; recorded with every run.
QUERIES = 500
CONNECTIONS = 2
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: CPUs the benchmark may use, read before it pins itself.  The load
#: generator runs on the first and a server on the last, so on the
#: 2-core box the two processes never share a core (with one CPU they do).
CPUS = sorted(os.sched_getaffinity(0))
LOAD_CPUS = {CPUS[0]}
SERVER_CPUS = {CPUS[-1]}


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolation percentile (``values`` need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def median(values: list[float]) -> float:
    return statistics.median(values)


def windowed_rate(times: list[float], start: float, seconds: float) -> float:
    """Median over the whole seconds of [start, start + seconds) of the
    events completed in each second.

    A median over one-second windows, rather than events over elapsed
    time, keeps a host stall of a few seconds from moving the rate.
    """
    counts = [0] * max(1, int(seconds))
    for moment in times:
        window = int(moment - start)
        if 0 <= window < len(counts):
            counts[window] += 1
    return statistics.median(counts)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def source_digest() -> str:
    """SHA-256 over ``src/`` (path + bytes of every .py file).

    Identifies the measured code when the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(SRC):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD's commit id read from ``.git``, or ``"unknown"``."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]),
                  encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": git_commit(),
            "source_sha256": source_digest()}


def answers_key(answers) -> int:
    """Order-independent fingerprint of one answer set."""
    return hash(tuple(sorted(answers)))
