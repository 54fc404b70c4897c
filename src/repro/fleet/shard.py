"""Sharded fleet service: a routing frontend over N worker processes.

``serve --workers N`` splits the aggregation work by program
fingerprint.  Each worker is a full coalescing
:class:`~repro.fleet.service.FleetService` in its own process (its own
event loop, its own GIL); the frontend is a thin asyncio acceptor that
routes every client frame to the worker owning its fingerprint
(:func:`~repro.fleet.protocol.shard_for`) and relays the reply.  The
routing rule is the whole correctness argument: the epoch merge is
order-independent, so *any* assignment that keeps one fingerprint on
one shard yields the same aggregates as a single process — sharding
changes throughput, never results.

The frontend's hot path never JSON-decodes a frame: it scans the raw
payload for the fingerprint
(:func:`~repro.fleet.protocol.extract_fingerprint`) and forwards the
bytes verbatim over a pipelined per-worker connection
(:class:`ShardLink` — one TCP connection per worker, replies matched to
requests FIFO because workers answer frames in order).  Fingerprint-less
messages (``stats``, ``flush``, ``status``) are the slow path: the
frontend decodes them, fans them out to every worker, and combines the
replies; the combined ``status`` document grows a ``"shards"`` list
with per-worker queue depth, coalesce ratio, and busy rejections —
the rows ``repro-mini top`` and ``report --json`` render.

All workers share one repository root.  That is safe for the same
reason routing is: a fingerprint's log and snapshot are only ever written
by the one shard that owns it.

Workers are spawned (not forked — the parent runs an event loop) and
hand their ephemeral port back over a pipe; they honor the protocol's
``shutdown`` message (started with ``allow_shutdown=True``) so teardown
is an in-band request, with ``terminate`` as the backstop.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
from collections import deque

from repro.fleet.merge import MergePolicy
from repro.fleet.protocol import (
    ProtocolError,
    decode_payload,
    encode_message,
    error_message,
    extract_fingerprint,
    flush_message,
    frame_payload,
    read_frame_payload,
    shard_for,
    shutdown_message,
    status_message,
)
from repro.fleet.repository import ProfileRepository
from repro.fleet.service import FleetService
from repro.telemetry.metrics import MetricsRegistry

#: How long to wait for a spawned worker to report its port.
WORKER_START_TIMEOUT = 30.0

#: How long to wait for a worker to honor an in-band shutdown.
WORKER_STOP_TIMEOUT = 10.0


def _worker_main(
    index: int,
    root: str,
    conn,
    decay: float,
    max_edges: int | None,
    rate: float | None,
    burst: float | None,
) -> None:
    """Entry point of one shard worker process (spawn-safe, module level)."""
    asyncio.run(
        _worker_async(index, root, conn, decay, max_edges, rate, burst)
    )


async def _worker_async(index, root, conn, decay, max_edges, rate, burst) -> None:
    repository = ProfileRepository(root, MergePolicy(decay=decay, max_edges=max_edges))
    service = FleetService(
        repository,
        coalesce=True,
        rate=rate,
        burst=burst,
        allow_shutdown=True,
        shard_id=index,
    )
    address = await service.start("127.0.0.1", 0)
    conn.send(address)
    conn.close()
    try:
        await service.shutdown_requested.wait()
    finally:
        await service.stop()


class ShardLink:
    """One pipelined connection from the frontend to one worker.

    Requests from many client connections multiplex onto the single
    link; because the worker's service answers its frames strictly in
    order, replies are matched to requests FIFO.  The write lock keeps
    the (future enqueue, frame write) pair atomic so the FIFO can never
    skew.
    """

    def __init__(self, index: int, address: tuple[str, int]):
        self.index = index
        self.address = address
        self._reader = None
        self._writer = None
        self._read_task: asyncio.Task | None = None
        self._pending: deque[asyncio.Future] = deque()
        self._write_lock = asyncio.Lock()
        self.requests = 0

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(*self.address)
        self._read_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        error: Exception | None = None
        try:
            while True:
                payload = await read_frame_payload(self._reader)
                if payload is None:
                    break
                if self._pending:
                    future = self._pending.popleft()
                    if not future.done():
                        future.set_result(payload)
        except (ProtocolError, ConnectionError, OSError) as exc:
            error = exc
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_exception(
                    ConnectionError(f"shard {self.index} link lost: {error}")
                )

    async def request(self, payload: bytes) -> bytes:
        """Forward one raw frame payload; returns the raw reply payload."""
        future = asyncio.get_running_loop().create_future()
        async with self._write_lock:
            if self._writer is None:
                raise ConnectionError(f"shard {self.index} link closed")
            self._pending.append(future)
            self._writer.write(frame_payload(payload))
            await self._writer.drain()
        self.requests += 1
        return await future

    async def request_message(self, message: dict) -> dict:
        """Round-trip a decoded message (the fan-out slow path)."""
        payload = json.dumps(message, separators=(",", ":")).encode()
        return decode_payload(await self.request(payload))

    async def close(self) -> None:
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except asyncio.CancelledError:
                pass
            self._read_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None


class FleetFrontend:
    """The public acceptor: routes frames to shards, combines fan-outs."""

    def __init__(
        self,
        links: list[ShardLink],
        processes=(),
        registry: MetricsRegistry | None = None,
        telemetry=None,
    ):
        self.links = links
        self.processes = list(processes)
        self.telemetry = telemetry
        self.registry = registry if registry is not None else MetricsRegistry()
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None
        self.connections = 0
        self._m_connections = self.registry.counter(
            "fleet.frontend_connections", "client connections accepted"
        )
        self._m_routed = self.registry.counter(
            "fleet.routed_frames", "frames routed to shard workers"
        )
        self._m_fanouts = self.registry.counter(
            "fleet.fanout_requests", "fan-out requests combined across shards"
        )
        self._m_shard_errors = self.registry.counter(
            "fleet.shard_errors", "requests failed by a lost shard link"
        )
        self._m_shard_routed = [
            self.registry.counter(
                f"fleet.shard{link.index}.routed", "frames routed to this shard"
            )
            for link in links
        ]
        self._m_shard_depth = [
            self.registry.gauge(
                f"fleet.shard{link.index}.queue_depth",
                "publish deltas staged on this shard",
            )
            for link in links
        ]
        self._m_shard_busy = [
            self.registry.gauge(
                f"fleet.shard{link.index}.busy_rejections",
                "busy backpressure replies sent by this shard",
            )
            for link in links
        ]

    # -- lifecycle ----------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._handle, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, flush every shard, shut the workers down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for link in self.links:
            try:
                await asyncio.wait_for(
                    link.request_message(flush_message()), WORKER_STOP_TIMEOUT
                )
                await asyncio.wait_for(
                    link.request_message(shutdown_message()), WORKER_STOP_TIMEOUT
                )
            except (ConnectionError, OSError, ProtocolError, asyncio.TimeoutError):
                pass
            await link.close()
        for process in self.processes:
            await asyncio.to_thread(process.join, WORKER_STOP_TIMEOUT)
            if process.is_alive():
                process.terminate()
                await asyncio.to_thread(process.join, WORKER_STOP_TIMEOUT)

    # -- routing ------------------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        self.connections += 1
        self._m_connections.inc()
        try:
            while True:
                try:
                    payload = await read_frame_payload(reader)
                except ProtocolError:
                    break
                if payload is None:
                    break
                try:
                    reply = await self._route(payload)
                except ProtocolError:
                    # Undecodable frame: mirror the single-process
                    # service and drop the connection.
                    break
                try:
                    writer.write(frame_payload(reply))
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, payload: bytes) -> bytes:
        """One frame in, one reply payload out."""
        fingerprint = extract_fingerprint(payload)
        if fingerprint is not None:
            index = shard_for(fingerprint, len(self.links))
            self._m_routed.inc()
            self._m_shard_routed[index].inc()
            try:
                return await self.links[index].request(payload)
            except (ConnectionError, OSError):
                self._m_shard_errors.inc()
                return encode_message(
                    error_message(f"shard {index} unavailable")
                )[4:]
        # No fingerprint: a fan-out message, or a malformed frame the
        # decode below turns into the right error/disconnect.
        message = decode_payload(payload)  # ProtocolError → drop connection
        kind = message.get("type")
        if kind in ("stats", "flush"):
            self._m_fanouts.inc()
            replies = await self._fan_out(message)
            return self._encode_reply(self._combine_stats(replies))
        if kind == "status":
            self._m_fanouts.inc()
            return self._encode_reply(
                {"v": 1, "type": "status", "status": await self.status()}
            )
        if kind == "shutdown":
            return self._encode_reply(
                error_message("shutdown not permitted on this service")
            )
        # Anything else (including publish/fetch missing a fingerprint)
        # gets shard 0's verdict, same reply a single process gives.
        try:
            return await self.links[0].request(payload)
        except (ConnectionError, OSError):
            self._m_shard_errors.inc()
            return self._encode_reply(error_message("shard 0 unavailable"))

    @staticmethod
    def _encode_reply(message: dict) -> bytes:
        return encode_message(message)[4:]  # strip the frame header

    async def _fan_out(self, message: dict) -> list[dict]:
        """Send one message to every shard; lost shards yield errors."""
        results = await asyncio.gather(
            *(link.request_message(message) for link in self.links),
            return_exceptions=True,
        )
        replies = []
        for link, result in zip(self.links, results):
            if isinstance(result, BaseException):
                self._m_shard_errors.inc()
                replies.append(error_message(f"shard {link.index} unavailable"))
            else:
                replies.append(result)
        return replies

    def _combine_stats(self, replies: list[dict]) -> dict:
        combined = {
            "v": 1,
            "type": "stats",
            "programs": [],
            "merges": 0,
            "rejected": 0,
            "busy": 0,
            "staged": 0,
            "connections": self.connections,
            "quarantined": 0,
            "clients": 0,
            "client_drops": 0,
            "shards": len(self.links),
        }
        programs: set[str] = set()
        ratios = []
        for reply in replies:
            if reply.get("type") != "stats":
                continue
            programs.update(reply.get("programs", ()))
            for key in (
                "merges",
                "rejected",
                "busy",
                "staged",
                "quarantined",
                "clients",
                "client_drops",
            ):
                combined[key] += reply.get(key, 0)
            ratio = reply.get("coalesce_ratio", 0.0)
            if ratio:
                ratios.append(ratio)
        combined["programs"] = sorted(programs)
        combined["coalesce_ratio"] = (
            round(sum(ratios) / len(ratios), 3) if ratios else 0.0
        )
        return combined

    # -- observability ------------------------------------------------------------

    async def status(self) -> dict:
        """The combined ``/status`` document with per-shard rows."""
        replies = await self._fan_out(status_message())
        programs: dict[str, dict] = {}
        clients: dict[str, dict] = {}
        totals = {
            "merges": 0,
            "rejected": 0,
            "busy": 0,
            "connections": self.connections,
            "quarantined": 0,
            "client_drops": 0,
        }
        shards = []
        for link, reply in zip(self.links, replies):
            if reply.get("type") != "status" or not isinstance(
                reply.get("status"), dict
            ):
                shards.append({"shard": link.index, "alive": False})
                self._m_shard_depth[link.index].set(0)
                continue
            status = reply["status"]
            # Workers share one repository root, so each lists every
            # on-disk fingerprint (unloaded ones as ``loaded: False``
            # stubs).  Keep the owning shard's loaded entry when both
            # a stub and a live row exist for the same fingerprint.
            for fingerprint, entry in status.get("programs", {}).items():
                current = programs.get(fingerprint)
                if current is None or (
                    entry.get("loaded") and not current.get("loaded")
                ):
                    programs[fingerprint] = entry
            clients.update(status.get("clients", {}))
            shard_totals = status.get("totals", {})
            for key in ("merges", "rejected", "busy", "quarantined", "client_drops"):
                totals[key] += shard_totals.get(key, 0)
            staging = status.get("staging", {})
            row = {
                "shard": link.index,
                "alive": True,
                "queue_depth": staging.get("queue_depth", 0),
                "staged_rows": staging.get("staged_rows", 0),
                "coalesce_ratio": staging.get("coalesce_ratio", 0.0),
                "busy_rejections": staging.get("busy_rejections", 0),
                "persist_pending": staging.get("persist_pending", 0),
                "merges": shard_totals.get("merges", 0),
                # Only programs this shard actually owns in memory —
                # unloaded stubs are the other shards' work seen
                # through the shared repository.
                "programs": sum(
                    1
                    for entry in status.get("programs", {}).values()
                    if entry.get("loaded")
                ),
                "routed": self._m_shard_routed[link.index].value,
            }
            shards.append(row)
            self._m_shard_depth[link.index].set(row["queue_depth"])
            self._m_shard_busy[link.index].set(row["busy_rejections"])
        return {
            "service": "repro-fleet",
            "workers": len(self.links),
            "programs": programs,
            "clients": clients,
            "totals": totals,
            "shards": shards,
        }


async def start_sharded_fleet(
    root: str,
    workers: int,
    host: str = "127.0.0.1",
    port: int = 0,
    decay: float = 1.0,
    max_edges: int | None = None,
    rate: float | None = None,
    burst: float | None = None,
    telemetry=None,
) -> FleetFrontend:
    """Spawn the workers, connect the links, bind the frontend."""
    if workers < 2:
        raise ValueError("a sharded fleet needs at least 2 workers")
    ctx = multiprocessing.get_context("spawn")
    processes = []
    links = []
    try:
        pipes = []
        for index in range(workers):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker_main,
                args=(
                    index,
                    root,
                    child_conn,
                    decay,
                    max_edges,
                    rate,
                    burst,
                ),
                daemon=True,
                name=f"fleet-shard-{index}",
            )
            process.start()
            child_conn.close()
            processes.append(process)
            pipes.append(parent_conn)
        for index, parent_conn in enumerate(pipes):
            ready = await asyncio.to_thread(parent_conn.poll, WORKER_START_TIMEOUT)
            if not ready:
                raise RuntimeError(f"shard worker {index} did not start")
            address = parent_conn.recv()
            parent_conn.close()
            link = ShardLink(index, address)
            await link.connect()
            links.append(link)
    except BaseException:
        for link in links:
            await link.close()
        for process in processes:
            process.terminate()
        raise
    frontend = FleetFrontend(links, processes, telemetry=telemetry)
    await frontend.start(host, port)
    return frontend


async def run_sharded_service(
    root: str,
    workers: int,
    host: str = "127.0.0.1",
    port: int = 0,
    decay: float = 1.0,
    max_edges: int | None = None,
    rate: float | None = None,
    burst: float | None = None,
    ready=None,
    http_port: int | None = None,
    http_ready=None,
    telemetry=None,
) -> None:
    """Run a sharded fleet until cancelled (``serve --workers N``)."""
    from repro.telemetry.httpapi import ObservabilityHTTP

    frontend = await start_sharded_fleet(
        root,
        workers,
        host=host,
        port=port,
        decay=decay,
        max_edges=max_edges,
        rate=rate,
        burst=burst,
        telemetry=telemetry,
    )
    if ready is not None:
        ready(frontend.address)
    http = None
    try:
        if http_port is not None:
            http = ObservabilityHTTP(
                registry=frontend.registry,
                status_fn=frontend.status,
                health_fn=lambda: {
                    "status": "ok",
                    "service": "repro-fleet",
                    "workers": workers,
                },
            )
            await http.start(host, http_port)
            if http_ready is not None:
                http_ready(http.address)
        await frontend.serve_forever()
    finally:
        if http is not None:
            await http.stop()
        if telemetry is not None:
            # Record the final per-shard rows (pre-flush) so an offline
            # ``report --json`` of the serve trace shows the topology.
            try:
                final_status = await frontend.status()
            except (ConnectionError, OSError, ProtocolError):
                final_status = None
            if final_status is not None:
                for row in final_status.get("shards", []):
                    telemetry.on_fleet_shard(row)
        await frontend.stop()
