"""Stdlib HTTP surface over a running :class:`ReputationService`.

No framework, no dependencies: :class:`http.server.ThreadingHTTPServer`
with one handler class. Endpoints (all JSON):

===========================  ============================================
``GET /healthz``             liveness + loop tick count
``GET /snapshot``            current snapshot metadata + queue stats
``GET /reputation/<pid>``    one peer's reputation (404 on unknown ids)
``GET /top?k=10``            current top-k leaderboard
``POST /reports``            submit reports; body is either one
                             ``{"o":,"t":,"v":}`` object or a JSON array
                             of them; 400 on an invalid report (e.g.
                             ``o == t``), 429 when the queue sheds
===========================  ============================================

Responses carry the snapshot ``version`` and ``staleness`` a reader
needs to reason about freshness (see ``docs/service.md``). Start from
the CLI: ``python -m repro.service serve --peers 500 --port 8080``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.queue import BackpressureError
from repro.service.service import ReputationService, ServiceLoop, UnknownPeerError


class _Handler(BaseHTTPRequestHandler):
    # Injected per-server by make_server(); class-level declarations keep
    # the handler stateless across requests.
    service: ReputationService
    loop: Optional[ServiceLoop] = None

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test output and the soak scenario quiet

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- reads ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._send(200, {
                    "status": "ok",
                    "ticks": self.loop.ticks if self.loop else 0,
                    "loop_running": bool(self.loop and self.loop.running),
                })
            elif parts == ["snapshot"]:
                self._send(200, self.service.snapshot_info())
            elif len(parts) == 2 and parts[0] == "reputation":
                self._get_reputation(parts[1])
            elif parts == ["top"]:
                k = int(parse_qs(url.query).get("k", ["10"])[0])
                snapshot = self.service.snapshot()
                self._send(200, {
                    "version": snapshot.version,
                    "staleness": snapshot.staleness,
                    "top": [
                        {"peer_id": pid, "reputation": value}
                        for pid, value in snapshot.top_k(max(1, k))
                    ],
                })
            else:
                self._send(404, {"error": f"no route for {url.path}"})
        except ValueError as error:
            self._send(400, {"error": str(error)})

    def _get_reputation(self, raw_pid: str) -> None:
        pid = int(raw_pid)
        snapshot = self.service.snapshot()
        if snapshot.get(pid, default=-1.0) < 0.0 and pid not in snapshot.peer_ids:
            self._send(404, {"error": f"unknown peer id {pid}"})
            return
        self._send(200, {
            "peer_id": pid,
            "reputation": snapshot.get(pid),
            "version": snapshot.version,
            "staleness": snapshot.staleness,
        })

    # -- writes --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if urlparse(self.path).path != "/reports":
            self._send(404, {"error": f"no route for {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            rows = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, json.JSONDecodeError) as error:
            self._send(400, {"error": f"bad request body: {error}"})
            return
        if isinstance(rows, dict):
            rows = [rows]
        if not isinstance(rows, list):
            self._send(400, {"error": "body must be a report object or array of them"})
            return
        try:
            reports = [(int(r["o"]), int(r["t"]), float(r["v"])) for r in rows]
        except (KeyError, TypeError, ValueError) as error:
            self._send(400, {"error": f"each report needs o/t/v fields: {error}"})
            return
        try:
            accepted = self.service.submit_batch(reports)
        except UnknownPeerError as error:
            self._send(404, {"error": str(error)})
            return
        except ValueError as error:  # e.g. a self-report (o == t)
            self._send(400, {"error": str(error)})
            return
        except BackpressureError as error:
            self._send(429, {
                "error": str(error),
                "accepted": 0,
                "pending": error.pending,
                "high_watermark": error.high_watermark,
            })
            return
        status = 202 if accepted == len(reports) else 429
        self._send(status, {
            "accepted": accepted,
            "submitted": len(reports),
            "queue": self.service.queue.stats(),
        })


def make_server(
    service: ReputationService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    loop: Optional[ServiceLoop] = None,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server bound to ``host:port``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` (the HTTP smoke test does).
    """
    handler = type("BoundHandler", (_Handler,), {"service": service, "loop": loop})
    return ThreadingHTTPServer((host, port), handler)


def serve_forever(
    service: ReputationService,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    interval: float = 0.25,
) -> None:
    """Run the service loop plus HTTP frontend until interrupted."""
    loop = ServiceLoop(service, interval=interval).start()
    server = make_server(service, host=host, port=port, loop=loop)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro-service: {service.num_peers} peers on backend "
        f"'{service.backend}' at http://{bound_host}:{bound_port} "
        f"(tick interval {interval}s) — Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        loop.stop()


def start_background(
    service: ReputationService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    interval: float = 0.0,
) -> Tuple[ThreadingHTTPServer, ServiceLoop, threading.Thread]:
    """Start loop + server on daemon threads; return all three handles.

    The embedding/test entry point: bind port 0, talk to
    ``server.server_address``, then ``server.shutdown()`` and
    ``loop.stop()`` when done.
    """
    loop = ServiceLoop(service, interval=interval).start()
    server = make_server(service, host=host, port=port, loop=loop)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, loop, thread


__all__ = ["make_server", "serve_forever", "start_background"]
