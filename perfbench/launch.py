"""Start ``repro serve`` with the layer boundaries wrapped in spans.

Usage::

    python3 perfbench/launch.py SPANS.json -- serve DOC --listen HOST:PORT

Runs the ``repro`` command line in this process, exactly as
``python3 -m repro`` would, after installing the recording wrappers of
:mod:`spans`.  When the command returns (``serve --listen`` returns on
SIGINT, after its server has stopped and every worker has joined) the
spans are written to ``SPANS.json`` together with the final index size
and stats of every serving engine the command built.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _engine_summary(serving) -> dict:
    size = serving.engine.size()
    return {"size_nodes": size.nodes, "size_edges": size.edges,
            "serving": serving.stats.snapshot(),
            "engine_queries": serving.engine.stats.queries,
            "engine_cache_hits": serving.engine.stats.cache_hits}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    import spans
    from repro.cli import main as repro_main

    recorder = spans.SpanRecorder()
    engines = spans.install_serving(recorder)
    try:
        status = repro_main(argv[2:])
    finally:
        recorder.restore()
        recorder.dump(argv[0], {"engines": [_engine_summary(serving)
                                            for serving in engines]})
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
