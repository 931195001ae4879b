"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload long-queries --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice, first untraced and then with spans recorded at every
layer boundary, and reports the per-layer metrics plus
``trace.overhead_frac``.  Metric names and units come from
``BENCHMARK.json``, and every declared metric is printed for every
workload.  Every run checks the program's answers; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of the run (workload
properties, raw samples, environment) is written under
``perfbench/.work/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import common

#: Metrics printed and recorded with every untraced run but not declared
#: in BENCHMARK.json.  On the 2-core VM the benchmark was written on, CPU
#: speed drifts by up to 1.7x for minutes at a time: over ten runs of the
#: same code the wall-time metrics spread by 0.16 to 0.53 of their median,
#: and their medians moved by up to 38% between consecutive sets of ten,
#: beyond the widest bound BENCHMARK.json allows (0.25); compare them
#: with interleaved pairs of runs instead.  ``cache_hit_ratio``
#: (about 7% of answers) spread by 0.19 between seeds.
#: ``page_reads_per_query`` depends on which pages the pool still holds,
#: so on the order of the queries as well as their mix: it spread by
#: 0.086 of its median over ten seeds on ``short-queries``, where the
#: pages requested spread by 0.025.  ``failed_frac`` is 0 whenever the
#: program is healthy.
REPORTED = {"query_qps": "1/s", "query_p50_ms": "ms", "query_p99_ms": "ms",
            "update_p50_ms": "ms", "update_p95_ms": "ms", "refine_s": "s",
            "build_s": "s", "page_reads_per_query": "count",
            "paged_query_qps": "1/s",
            "paged_query_p50_ms": "ms", "paged_query_p99_ms": "ms",
            "cache_hit_ratio": "ratio", "failed_frac": "ratio"}


def _declared() -> tuple[dict, dict]:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _per_query_s(run: dict) -> float:
    """Seconds of both measured phases per query answered in them."""
    properties = run["properties"]
    return ((properties["wire_seconds"] + properties["paged_seconds"])
            / (properties["wire_queries"] + properties["paged_queries"]))


def _measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import pipeline
    import spans
    import wire

    shape = common.WORKLOADS[workload]
    if not trace:
        return pipeline.run(**shape, seed=seed, seconds=seconds,
                            setups=common.SETUPS)
    reference = pipeline.run(**shape, seed=seed, seconds=seconds, setups=1)
    spans_path = os.path.join(common.WORK, f"spans-{workload}-{seed}.json")
    run = pipeline.run(**shape, seed=seed, seconds=seconds, setups=1,
                       spans_path=spans_path, recorder=spans.SpanRecorder())
    run["layers"].update(wire.layer_metrics(run["wire"], spans_path))
    os.unlink(spans_path)
    run["layers"]["trace.overhead_frac"] = (_per_query_s(run)
                                            / _per_query_s(reference) - 1)
    run["reference"] = reference
    for key in ("attempted", "failed"):
        run[key] += reference[key]
    run["problems"] = reference["problems"] + run["problems"]
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {common.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    os.sched_setaffinity(0, common.LOAD_CPUS)
    # SIGTERM unwinds like an error, so every server the run started is
    # stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    end_to_end, per_layer = _declared()

    run = _measure(args.workload, args.seed, args.seconds, bool(args.trace))
    values = run["layers"] if args.trace else run["metrics"]
    values["failed_frac"] = common.ratio(run["failed"], run["attempted"])
    units = per_layer if args.trace else end_to_end
    unknown = sorted(set(values) - set(units) - set(REPORTED))
    if unknown:
        raise RuntimeError(f"metrics neither declared in BENCHMARK.json "
                           f"nor reported: {unknown}")
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    reported = {name: {"value": values[name], "unit": unit}
                for name, unit in REPORTED.items() if name in values}

    os.makedirs(os.path.join(common.WORK, "runs"), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": common.environment(),
              "properties": run["properties"], "metrics": metrics,
              "reported": reported, "problems": run["problems"],
              "samples": run["samples"]}
    if args.trace:
        record["reference"] = {key: run["reference"][key]
                               for key in ("metrics", "properties",
                                           "samples")}
    path = os.path.join(common.WORK, "runs", f"{args.workload}-seed"
                        f"{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"({run['attempted']} operations)")
    for name, metric in {**metrics, **reported}.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for key, value in run["properties"].items():
        print(f"  property {key} = {value}")
    for problem in run["problems"]:
        print(f"  WRONG ANSWER: {problem}")
    print(f"  record: {os.path.relpath(path, common.ROOT)}")
    correct = not run["problems"]
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
