"""Launch the stock serving front end, optionally with spans installed.

``python3 perfbench/server.py --cache DIR [--trace-out FILE]`` runs
``repro serve --port 0 --cache DIR`` in this process.  With
``--trace-out`` the benchmark's wrappers are installed on the program's
classes first, and when the server stops (SIGINT) the folded spans and
counters are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from repro.cli import main as repro_main  # noqa: E402


def run(arguments: argparse.Namespace) -> int:
    # A process started in the background by a shell inherits SIGINT as
    # ignored, and then `repro serve` could never be stopped gracefully.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    serve = ["serve", "--port", "0", "--cache", arguments.cache]
    if not arguments.trace_out:
        return repro_main(serve)

    from repro.core.rewriter import RewritingStatistics
    from repro.serving.http import ServingServer
    from tracing import Tracer, install_serving_spans

    tracer = Tracer()
    install_serving_spans(tracer)
    stop = ServingServer.stop

    async def write_trace_then_stop(server, *args, **kwargs):
        # Written when shutdown begins, so a shutdown that hangs (and is
        # killed) still leaves the trace of everything it served.
        statistics = RewritingStatistics.merge_all(tracer.engine_statistics)
        Path(arguments.trace_out).write_text(
            json.dumps(
                {
                    "layers": tracer.summary(),
                    "events": tracer.totals(),
                    "spans": len(tracer.spans),
                    "engine_compiles": len(tracer.engine_statistics),
                    "engine_statistics": vars(statistics),
                }
            )
        )
        return await stop(server, *args, **kwargs)

    ServingServer.stop = write_trace_then_stop
    return repro_main(serve)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache", required=True)
    parser.add_argument("--trace-out", default=None)
    sys.exit(run(parser.parse_args()))
