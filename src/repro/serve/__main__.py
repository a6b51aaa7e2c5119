"""Run a service from the command line::

    python -m repro.serve --app keycounter --shards 4 --metrics-port 0

prints one JSON line with the listener port, the auth cookie, and the
metrics port, then serves until a client sends ``finish`` or the
process is interrupted.  Drive it with
:func:`repro.serve.connect` (see ``examples/service_mode.py``).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..core.errors import RuntimeFault
from ..runtime.options import RunOptions, ServeOptions
from .apps import SERVICE_APPS
from .server import start_service


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__
    )
    parser.add_argument(
        "--app", choices=sorted(SERVICE_APPS), default="keycounter"
    )
    parser.add_argument("--shards", type=int, default=2, help="leaf stream count")
    parser.add_argument("--backend", default="threaded")
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="deploy each epoch across this many cluster nodes "
        "(process backend, TCP data plane)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cookie", default=None)
    parser.add_argument("--epoch-events", type=int, default=512)
    parser.add_argument("--epoch-idle-ms", type=float, default=50.0)
    parser.add_argument("--ingest-high-watermark", type=int, default=4096)
    parser.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve Prometheus text incl. repro_serve_* gauges (0 = pick)",
    )
    args = parser.parse_args(argv)

    builder = SERVICE_APPS[args.app]
    if args.app == "keycounter":
        app = builder(shards=args.shards)
    else:
        app = builder(n_value_streams=args.shards)

    run = RunOptions(nodes=args.nodes, metrics=args.metrics_port is not None)
    try:
        options = ServeOptions(
            backend=args.backend,
            run=run,
            host=args.host,
            port=args.port,
            cookie=args.cookie,
            epoch_events=args.epoch_events,
            epoch_idle_ms=args.epoch_idle_ms,
            ingest_high_watermark=args.ingest_high_watermark,
            metrics_port=args.metrics_port,
        )
    except RuntimeFault as exc:
        parser.error(str(exc))
    handle = start_service(app.program, app.plan, options=options)
    print(
        json.dumps(
            {
                "app": app.name,
                "host": args.host,
                "port": handle.port,
                "cookie": handle.cookie,
                "metrics_port": handle.metrics_port,
            }
        ),
        flush=True,
    )
    try:
        # Not runtime.finished: the final epoch's outputs, the
        # subscribers' eof and the client's reply must go out first.
        handle.server.closed.wait()
        counters = handle.runtime.counters
        print(
            f"service finished: {counters.admitted} admitted, "
            f"{counters.rejected_total} rejected, "
            f"{counters.committed} committed over {counters.epochs} epochs",
            file=sys.stderr,
        )
    except KeyboardInterrupt:
        pass
    finally:
        handle.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
