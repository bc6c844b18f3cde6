"""Run the reputation service with span tracing installed.

The same server ``python -m repro.service serve`` starts, built from
``ReputationService``, ``ServiceLoop`` and ``make_server``, after
:func:`spans.install_service` has wrapped its layers. On SIGTERM it
stops, then writes the span totals and the queue's final counters to
``--summary-out`` and every span to ``--spans-out``.
``http_workload.py`` starts it for traced runs.
"""

from __future__ import annotations

import argparse
import json
import signal

from spans import Tracer, install_service


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--peers", type=int, required=True)
    parser.add_argument("--interval", type=float, required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--summary-out", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    install_service(tracer)
    from repro.service.httpd import make_server
    from repro.service.service import ReputationService, ServiceLoop

    service = ReputationService(args.peers, seed=args.seed)
    tracer.phase = "ops"
    loop = ServiceLoop(service, interval=args.interval).start()
    server = make_server(service, port=args.port, loop=loop)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        loop.stop()
        tracer.uninstall()
        with open(args.summary_out, "w", encoding="utf-8") as handle:
            json.dump({
                "backend": service.backend,
                "queue": service.queue.stats(),
                "tracer": tracer.summary(),
            }, handle)
        tracer.write_spans(args.spans_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
