"""The ``service-http`` workload: one client process against a server process.

The server is ``python -m repro.service serve --peers 20000 --interval 0``
(``serve_traced.py`` in a traced run). The client uses two keep-alive
connections, one thread each:

* the *client* connection sends an open-loop mix at 20 requests/s: 15
  reads/s — nine in ten ``GET /reputation/<pid>`` with a uniform
  ``pid``, one in ten ``GET /top?k=10`` — and 5 ``POST /reports``
  batches/s of 64 reports, consecutive slices of one seeded
  ``repro.service.reports.generate_reports`` stream; then reads alone
  climb a rate ladder;
* the *observer* connection, after each ``POST`` is answered, polls
  ``GET /snapshot`` until ``reports_folded`` covers the batch.

Every latency is timed from when the request was due, so a stall also
delays the requests queued behind it.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import Checks, median, process_peak_rss_mb, tail
from lib_workloads import SETUP_REPEATS, WorkloadRun
from repro.service.reports import generate_reports
from spans import layer_table

PEERS = 20_000
#: Requests per second on the client connection: requests come 25-75 ms
#: apart, closer than the client's delayed-ACK window, as a busy
#: client's do. One request in WRITE_EVERY is a POST: 15 reads/s, 5 writes/s.
MIX_RPS = 20.0
WRITE_EVERY = 4
#: Share of the interval each due time may shift by (see open_loop):
#: enough to sample every phase of the server's ~6 ms tick.
JITTER = 0.5
BATCH = 64
TOP_SHARE = 0.1
#: Read rates tried after the fixed-rate phase, which is the first rung.
LADDER_RPS = (50.0, 200.0, 1000.0)
#: Read tail limit a ladder rung must meet to count for read_qps_max.
TAIL_LIMIT_MS = 5.0
#: A rung whose last request went out later than this behind schedule
#: has a growing backlog; past ABANDON_S the rung stops early.
BACKLOG_LIMIT_S = 0.1
ABANDON_S = 1.0
VISIBLE_TIMEOUT_S = 5.0
HEALTH_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 10.0

_BENCH_DIR = Path(__file__).resolve().parent


class Client:
    """One keep-alive connection; records failures instead of raising."""

    def __init__(self, port: int, checks: Checks, lock: threading.Lock):
        self._port = port
        self._checks = checks
        self._lock = lock
        self._conn: Optional[http.client.HTTPConnection] = None
        self._version = -1
        #: Send-to-response seconds of every answered request.
        self.service_s: List[float] = []

    def record(self, ok: bool, message: str) -> bool:
        with self._lock:
            return self._checks.record(ok, message)

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Optional[dict]:
        """Send one request; return the JSON payload of a 2xx answer."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=REQUEST_TIMEOUT_S
            )
        headers = {"Content-Type": "application/json"} if body is not None else {}
        sent = time.perf_counter()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            self._conn.close()
            self._conn = None
            self.record(False, f"{method} {path}: connection dropped ({error!r})")
            return None
        self.service_s.append(time.perf_counter() - sent)
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        if not 200 <= response.status < 300 or not isinstance(payload, dict):
            self.record(False, f"{method} {path}: status {response.status}")
            return None
        return payload

    def check(self, payload: Optional[dict], fields, ok: bool, what: str) -> bool:
        """Check required fields, a non-decreasing version and ``ok``."""
        if payload is None:
            return False
        missing = [name for name in fields if name not in payload]
        if missing:
            return self.record(False, f"{what}: missing {missing}")
        version = payload.get("version", self._version)
        last, self._version = self._version, max(self._version, version)
        return self.record(
            ok and version >= last, f"{what}: ok={ok}, version {version} after {last}"
        )

    def unsent(self, count: int, failed: bool) -> None:
        """Count ``count`` scheduled requests that were never sent, as
        failures or, where a fixed rule left them out, as skipped."""
        with self._lock:
            if not failed:
                self._checks.skip(count)
                return
            for _ in range(count):
                self._checks.record(False, f"not sent: over {ABANDON_S:g} s behind schedule")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _in_unit(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def read_once(client: Client, rng: np.random.Generator, peers: int) -> bool:
    if rng.random() < TOP_SHARE:
        payload = client.request("GET", "/top?k=10")
        ok = payload is not None and all(
            _in_unit(entry.get("reputation")) for entry in payload.get("top", [])
        )
        return client.check(payload, ("version", "staleness", "top"), ok, "GET /top")
    pid = int(rng.integers(peers))
    payload = client.request("GET", f"/reputation/{pid}")
    ok = payload is not None and payload.get("peer_id") == pid and _in_unit(payload.get("reputation"))
    return client.check(
        payload, ("peer_id", "reputation", "version", "staleness"), ok, "GET /reputation"
    )


def scheduled(rate: float, seconds: float) -> int:
    """Requests an open-loop phase at ``rate`` schedules in ``seconds``."""
    return max(1, int(round(rate * seconds)))


def report_bodies(seed: int, peers: int, count: int) -> List[bytes]:
    """``count`` POST bodies of BATCH reports each: consecutive slices of
    one seeded ``generate_reports`` stream, the synthetic workload of the
    service's own benchmark and soak runs (uniform observers,
    popularity-skewed targets, ``o != t``, ``v`` in [0, 1])."""
    reports = generate_reports(
        count * BATCH, peers, rng=np.random.SeedSequence([seed, 5])
    )
    rows = [{"o": r.observer, "t": r.target, "v": r.value} for r in reports]
    return [
        json.dumps(rows[i * BATCH:(i + 1) * BATCH]).encode() for i in range(count)
    ]


def open_loop(
    client: Client,
    rng: np.random.Generator,
    peers: int,
    rate: float,
    seconds: float,
    observer: Optional["Observer"] = None,
    bodies: Optional[List[bytes]] = None,
) -> Dict:
    """``rate * seconds`` requests, the k-th due at ``(k + u_k) / rate``
    with ``u_k`` uniform in [0, JITTER); latency from due time.

    With an ``observer``, every WRITE_EVERY-th request is a POST of the
    next of ``bodies``, whose visibility the observer then checks;
    otherwise all are reads. The jitter keeps the schedule from locking
    to the server's tick period, which would sample the same tick phase
    all run long. Requests left unsent once the schedule falls ABANDON_S
    behind count as failures of the fixed-rate mix, and as skipped on a
    ladder rung.
    """
    count = scheduled(rate, seconds)
    offsets = (rng.random(count) * JITTER).tolist()
    start = time.perf_counter()
    reads: List[float] = []
    writes: List[float] = []
    lateness = max_lateness = 0.0
    sent_count = 0
    for k in range(count):
        due = start + (k + offsets[k]) / rate
        write = observer is not None and k % WRITE_EVERY == WRITE_EVERY - 1
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        lateness = time.perf_counter() - due
        max_lateness = max(max_lateness, lateness)
        if lateness > ABANDON_S:
            break
        sent_count += 1
        if write:
            sent = time.perf_counter()
            if post_batch(client, bodies[k // WRITE_EVERY]):
                writes.append(time.perf_counter() - due)
                observer.expect(sent)
        else:
            read_once(client, rng, peers)
            reads.append(time.perf_counter() - due)
    done = time.perf_counter()
    client.unsent(count - sent_count, failed=observer is not None)
    return {
        "rate": rate,
        "latencies_ms": [x * 1e3 for x in reads],
        "writes_ms": [x * 1e3 for x in writes],
        "sent": sent_count,
        "scheduled": count,
        "final_lateness_s": lateness,
        "max_lateness_s": max_lateness,
        "achieved_rps": len(reads) / max(done - start, 1e-9),
    }


def post_batch(client: Client, body: bytes) -> bool:
    payload = client.request("POST", "/reports", body)
    ok = (
        payload is not None
        and payload.get("accepted") == BATCH
        and payload.get("submitted") == BATCH
    )
    return client.check(payload, ("accepted", "submitted"), ok, "POST /reports")


class Observer(threading.Thread):
    """Polls ``/snapshot`` after each accepted POST until it is folded."""

    def __init__(self, client: Client):
        super().__init__(name="perfbench-observer", daemon=True)
        self.client = client
        self._pending: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self._expected = 0
        #: Seconds from each POST's send until /snapshot showed it;
        #: VISIBLE_TIMEOUT_S for a batch it never showed.
        self.visible: List[float] = []

    def expect(self, sent: float) -> None:
        """A batch sent at ``sent`` was accepted; check when it is folded."""
        self._expected += BATCH
        self._pending.put((sent, self._expected))

    def finish(self) -> None:
        self._pending.put(None)

    def run(self) -> None:
        while True:
            item = self._pending.get()
            if item is None:
                return
            self.visible.append(self._poll(*item))

    def _poll(self, sent: float, expected: int) -> float:
        while time.perf_counter() - sent < VISIBLE_TIMEOUT_S:
            info = self.client.request("GET", "/snapshot")
            if info is None:
                return VISIBLE_TIMEOUT_S  # request() recorded the failure
            if info.get("reports_folded", -1) >= expected:
                self.client.check(
                    info, ("version", "reports_folded", "staleness"), True, "GET /snapshot"
                )
                return time.perf_counter() - sent
            time.sleep(0.001)
        self.client.record(False, f"batch not visible within {VISIBLE_TIMEOUT_S:g} s")
        return VISIBLE_TIMEOUT_S


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """A server subprocess; ``start`` returns once ``/healthz`` answers."""

    def __init__(self, root: Path, out_dir: Path, peers: int, seed: int, traced: bool):
        self.port = _free_port()
        self.summary_path = out_dir / f"server-{seed}-{self.port}.json"
        args = ["--peers", str(peers), "--interval", "0", "--port", str(self.port),
                "--seed", str(seed)]
        if traced:
            self.cmd = [sys.executable, str(_BENCH_DIR / "serve_traced.py"), *args,
                        "--summary-out", str(self.summary_path),
                        "--spans-out", str(out_dir / f"server-spans-{seed}.jsonl")]
        else:
            self.cmd = [sys.executable, "-m", "repro.service", "serve", *args]
        self._root = root
        self._stderr_path = out_dir / f"server-{seed}-{self.port}.err"
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> float:
        env = dict(os.environ, PYTHONPATH=str(self._root / "src"))
        began = time.perf_counter()
        with open(self._stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                self.cmd, cwd=self._root, env=env, stdout=subprocess.DEVNULL, stderr=stderr
            )
        while time.perf_counter() - began < HEALTH_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    f"{self._stderr_path.read_text(errors='replace')[-2000:]}"
                )
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=1.0)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return time.perf_counter() - began
                finally:
                    conn.close()
            except OSError:
                time.sleep(0.01)
        raise RuntimeError("server did not answer /healthz in time")

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _drive(
    port: int, seed: int, peers: int, seconds: float, ladder: bool, checks: Checks
) -> Dict:
    """The fixed-rate mix for ``seconds``, then the read ladder alone."""
    lock = threading.Lock()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    client = Client(port, checks, lock)
    observer = Observer(Client(port, checks, lock))
    # POST bodies are built before the clock starts: encoding them is
    # the client's work, not the service's.
    bodies = report_bodies(seed, peers, scheduled(MIX_RPS, seconds) // WRITE_EVERY)
    for connection in (client, observer.client):
        connection.request("GET", "/healthz")  # untimed warm-up: opens the connection
    began = time.perf_counter()
    observer.start()
    try:
        fixed = open_loop(client, rng, peers, MIX_RPS, seconds, observer, bodies)
        observer.finish()
        observer.join(timeout=VISIBLE_TIMEOUT_S + REQUEST_TIMEOUT_S)
        rungs = []
        if ladder:
            for rate in LADDER_RPS:
                if rungs and not _passes(rungs[-1]):
                    # The ladder stops at the first rung that fails; the
                    # rest of its schedule still counts in the base.
                    client.unsent(scheduled(rate, seconds / 5), failed=False)
                    continue
                rungs.append(open_loop(client, rng, peers, rate, seconds / 5))
    finally:
        observer.finish()
        client.close()
        observer.client.close()
    return {
        "fixed": fixed,
        "rungs": rungs,
        "visible_ms": [x * 1e3 for x in observer.visible],
        "client_service_s": client.service_s + observer.client.service_s,
        "seconds": time.perf_counter() - began,
    }


def _sustained(rung: Dict) -> bool:
    """Every read went out, and the last no more than BACKLOG_LIMIT_S late."""
    return rung["sent"] == rung["scheduled"] and rung["final_lateness_s"] <= BACKLOG_LIMIT_S


def _passes(rung: Dict) -> bool:
    """Sustained, with the read tail within TAIL_LIMIT_MS."""
    return _sustained(rung) and tail(rung["latencies_ms"])[0] <= TAIL_LIMIT_MS


def service_http(
    seed: int, seconds: float, trace: bool, tiny: bool, root: Path, out_dir: Path
) -> WorkloadRun:
    peers = 500 if tiny else PEERS
    checks = Checks()
    run = WorkloadRun(checks, backend="", kernel=None)
    fixed_s = seconds * 5 / 6 if not trace else seconds / 2
    if trace:
        # An untraced server, then a traced one, each for half the time.
        halves = {}
        for traced in (False, True):
            server = Server(root, out_dir, peers, seed, traced)
            try:
                server.start()
                halves[traced] = _drive(server.port, seed, peers, fixed_s, False, checks)
            finally:
                server.stop()
        summary = json.loads(server.summary_path.read_text())
        run.backend = summary["backend"]
        table = layer_table(summary["tracer"], halves[True]["seconds"])
        totals = summary["tracer"]["totals"]["ops"]
        handlers = [totals.get(name, {}) for name in ("httpd.get", "httpd.post")]
        handler_s = sum(entry.get("total_s", 0.0) for entry in handlers)
        handler_calls = sum(entry.get("calls", 0) for entry in handlers)
        client = halves[True]["client_service_s"]
        table["http.wait_ms"] = (
            (float(np.mean(client)) - handler_s / max(handler_calls, 1)) * 1e3 if client else 0.0
        )
        queue = summary["queue"]
        table["queue.accept_ratio"] = queue["accepted_total"] / max(
            queue["accepted_total"] + queue["rejected_total"], 1
        )
        table["trace.overhead_ratio"] = median(halves[True]["fixed"]["latencies_ms"]) / median(
            halves[False]["fixed"]["latencies_ms"]
        )
        run.metrics = table
        return run

    setups = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(root, out_dir, peers, seed, traced=False)
            setups.append(server.start())
        drive = _drive(server.port, seed, peers, fixed_s, True, checks)
        info = Client(server.port, Checks(), threading.Lock())
        snapshot = info.request("GET", "/snapshot") or {}
        info.close()
        run.backend = snapshot.get("backend", "")
        peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    fixed = drive["fixed"]
    ladder = [fixed, *drive["rungs"]]
    passing = [rung for rung in ladder if _passes(rung)]
    # A metric of 0 has no ratio to a parent's median: when no rung meets
    # the limit, the lowest rung's achieved rate stands in, flagged below.
    read_qps_max = (passing[-1] if passing else fixed)["achieved_rps"]
    read_tail, read_tail_label = tail(fixed["latencies_ms"])
    visible_tail, visible_tail_label = tail(drive["visible_ms"])
    run.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss,
        "read_p50_ms": median(fixed["latencies_ms"]),
        "read_tail_ms": read_tail,
        "read_qps_max": read_qps_max,
        "write_p50_ms": median(fixed["writes_ms"]),
        "visible_p50_ms": median(drive["visible_ms"]),
        "visible_tail_ms": visible_tail,
        # No gossip steps run here (ticks take 0 epoch steps); the count
        # cells carry the schedule's answered requests instead.
        "fixed_reads": float(len(fixed["latencies_ms"])),
        "fixed_requests_per_peer": fixed["sent"] / peers,
    }
    run.details.update({
        "read_tail_percentile": read_tail_label,
        "visible_tail_percentile": visible_tail_label,
        "reads": len(fixed["latencies_ms"]),
        "writes": len(fixed["writes_ms"]),
        "visible": len(drive["visible_ms"]),
        "generator_max_lateness_s": fixed["max_lateness_s"],
        "ladder": [
            {key: rung[key] for key in ("rate", "sent", "scheduled", "max_lateness_s", "achieved_rps")}
            | {"p50_ms": median(rung["latencies_ms"]) if rung["latencies_ms"] else None,
               "passes": _passes(rung)}
            for rung in ladder
        ],
        "read_qps_max_met_limit": bool(passing),
    })
    return run
