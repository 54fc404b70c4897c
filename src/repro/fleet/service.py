"""The fleet aggregation service.

One asyncio process serves many concurrent VM publishers.  Each
connection is a sequence of frames (see :mod:`repro.fleet.protocol`);
``publish`` deltas are folded into per-fingerprint
:class:`~repro.fleet.merge.AggregateProfile` instances (loaded lazily
from the repository).

Every accepted delta is first written to its program's append log in
the :class:`~repro.fleet.repository.ProfileRepository`; only then is it
acknowledged.  An ack therefore means *logged*: the delta survives the
death of the service process (not a power loss — there is no fsync),
and a restarted service folds it back in when it loads the program.
Snapshots are compactions of the log, written when a program's log
outgrows a fixed multiple of its snapshot, on a ``flush`` message, and
on a clean stop — so after a ``flush`` every ``<fp>.json`` is current
for offline readers.

The service runs in one of two publish modes:

* **Eager** (the default): each delta is validated, merged inline and
  logged before its ``ack``.  Acks carry post-merge totals — the
  semantics every pre-sharding client observed.
* **Coalescing** (``coalesce=True``, what ``serve --workers N`` shard
  workers and ``serve --coalesce`` run): the accept path validates and
  logs the delta, appends it to a bounded
  :class:`~repro.fleet.staging.StagingBuffer`, and acks (``staged:
  true``).  A background drain task later coalesces each
  fingerprint's staged deltas into per-epoch lumps
  (:func:`~repro.fleet.merge.coalesce_validated`) and merges them in
  one pass — by merge commutativity the eventual aggregate is
  identical to one-at-a-time merging, so early acks are safe.  A
  ``fetch`` drains that fingerprint first (read-your-writes) and a
  ``flush`` is a full drain-and-compact barrier.

Backpressure: with a per-client rate limit configured (``rate``), or
when the staging buffer hits its high-water mark, a publish is answered
with ``busy`` and a ``retry_after`` the client honors with backoff —
load never silently drops deltas and never kills connections.

Because merging is synchronous (no ``await`` between taking deltas and
folding them in) the event loop serializes merges per process, and
because the merge itself is order-independent (see
:mod:`repro.fleet.merge`) the aggregate any client observes is a pure
function of the set of published deltas.

A client that violates the protocol gets an ``error`` reply when the
stream is still decodable, otherwise its connection is dropped; the
repository only ever sees complete, validated deltas, so a client
killed mid-frame cannot corrupt anything.

The service also keeps a :class:`~repro.telemetry.metrics.MetricsRegistry`
of its own counters and per-client publish accounting (drops are
inferred from gaps in each run's ``seq`` numbers, since publishers
number every enqueue attempt — even dropped ones).  ``serve
--http-port`` mounts :class:`~repro.telemetry.httpapi.ObservabilityHTTP`
on the same event loop, exposing the registry at ``/metrics`` and
:meth:`FleetService.status` at ``/status``.
"""

from __future__ import annotations

import asyncio

from repro.fleet.merge import (
    AggregateProfile,
    MergeError,
    MergePolicy,
    coalesce_validated,
)
from repro.fleet.protocol import (
    ProtocolError,
    ack_message,
    busy_message,
    error_message,
    read_message,
    snapshot_message,
    staged_ack_message,
    write_message,
)
from repro.fleet.repository import ProfileRepository, RepositoryError
from repro.fleet.staging import RateLimiter, StagingBuffer
from repro.telemetry.metrics import MetricsRegistry

#: Histogram bounds for edges-per-delta: deltas are small by design, so
#: the buckets resolve the interesting low end.
DELTA_EDGE_BUCKETS = (1, 4, 16, 64, 256, 1024)


class FleetService:
    """Aggregates published DCG deltas and serves snapshots."""

    def __init__(
        self,
        repository: ProfileRepository,
        telemetry=None,
        registry: MetricsRegistry | None = None,
        coalesce: bool = False,
        rate: float | None = None,
        burst: float | None = None,
        max_staged_rows: int = 200_000,
        drain_interval: float = 0.005,
        allow_shutdown: bool = False,
        shard_id: int | None = None,
    ):
        self.repository = repository
        self.telemetry = telemetry
        self.aggregates: dict[str, AggregateProfile] = {}
        self.merges = 0
        self.publishes_rejected = 0
        self.busy_rejections = 0
        self.connections = 0
        #: Per-run publish accounting, keyed by the client's ``run_id``.
        self.clients: dict[str, dict] = {}
        #: Every program on disk at start or logged since.
        self._programs: set[str] = set(repository.fingerprints())
        #: Programs whose log holds deltas their snapshot does not.
        self._dirty: set[str] = set()
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None

        self.coalesce = coalesce
        self.drain_interval = drain_interval
        self.allow_shutdown = allow_shutdown
        self.shard_id = shard_id
        self.staging = StagingBuffer(max_staged_rows)
        self.limiter = RateLimiter(rate, burst) if rate else None
        self._drain_task: asyncio.Task | None = None
        self._drain_wakeup = asyncio.Event()
        #: Set by a permitted ``shutdown`` message; the shard worker
        #: main loop waits on it instead of ``serve_forever``.
        self.shutdown_requested = asyncio.Event()

        #: Registry behind ``/metrics`` (names render Prometheus-style,
        #: e.g. ``fleet.publishes`` → ``fleet_publishes_total``).
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_publishes = self.registry.counter(
            "fleet.publishes", "publish deltas accepted and merged"
        )
        self._m_rejected = self.registry.counter(
            "fleet.rejected", "publish deltas rejected (malformed or unmergeable)"
        )
        self._m_fetches = self.registry.counter(
            "fleet.fetches", "snapshot fetch requests served"
        )
        self._m_connections = self.registry.counter(
            "fleet.connections", "client connections accepted"
        )
        self._m_active = self.registry.gauge(
            "fleet.active_connections", "client connections currently open"
        )
        self._m_edges = self.registry.counter(
            "fleet.edges_merged", "DCG edges folded into aggregates"
        )
        self._m_dropped = self.registry.counter(
            "fleet.client_drops", "client-side drops inferred from seq gaps"
        )
        self._m_programs = self.registry.gauge(
            "fleet.programs", "distinct program fingerprints aggregated"
        )
        self._m_programs.set(len(self._programs))
        self._m_delta_edges = self.registry.histogram(
            "fleet.delta_edges", DELTA_EDGE_BUCKETS, "edges per published delta"
        )
        self._m_staged = self.registry.counter(
            "fleet.staged", "publish deltas staged for coalesced merging"
        )
        self._m_lumps = self.registry.counter(
            "fleet.coalesced_lumps", "coalesced merge lumps applied"
        )
        self._m_coalesced = self.registry.counter(
            "fleet.coalesced_deltas", "publish deltas absorbed by coalesced lumps"
        )
        self._m_queue_depth = self.registry.gauge(
            "fleet.queue_depth", "publish deltas currently staged"
        )
        self._m_busy = self.registry.counter(
            "fleet.busy", "publishes rejected with busy backpressure"
        )
        self._m_persist_writes = self.registry.counter(
            "fleet.persist_writes", "snapshots written by log compactions"
        )
        self._m_persist_pending = self.registry.gauge(
            "fleet.persist_pending", "programs with logged deltas not yet compacted"
        )

    # -- lifecycle ----------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(self._handle, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        if self.coalesce and self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self._drain_loop())
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        self.flush()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    def flush(self) -> None:
        """Merge everything staged and compact every dirty program.

        The barrier after which each ``<fp>.json`` this service wrote
        to is current and its log is gone.  Used on ``flush`` messages
        and at a clean stop.
        """
        if self.coalesce:
            self._merge_staged()
        for fingerprint in sorted(self._dirty):
            self._compact(fingerprint)

    def _compact(self, fingerprint: str) -> None:
        """Fold a program's log into a fresh snapshot.  A failed write
        leaves the program dirty; its log still holds every delta."""
        if self.coalesce:
            self._merge_one(fingerprint)
        try:
            self.repository.store(self.aggregates[fingerprint])
        except OSError:
            return
        self._m_persist_writes.inc()
        self._dirty.discard(fingerprint)
        self._m_persist_pending.set(len(self._dirty))

    def _log(self, fingerprint: str, epoch: int, run_id, edges, receivers, paths) -> bool:
        """Append an accepted delta to its program's log; returns whether
        the log is due for compaction.  Raises ``OSError`` if the record
        could not be written."""
        due = self.repository.append(fingerprint, epoch, run_id, edges, receivers, paths)
        if fingerprint not in self._programs:
            self._programs.add(fingerprint)
            self._m_programs.set(len(self._programs))
        self._dirty.add(fingerprint)
        self._m_persist_pending.set(len(self._dirty))
        return due

    # -- coalesced draining -------------------------------------------------------

    def _kick_drain(self) -> None:
        self._drain_wakeup.set()

    async def _drain_loop(self) -> None:
        """Background task: wake on staged deltas and merge them.

        The short sleep after a wakeup is the coalescing window — it
        lets a burst of publishes accumulate so one lump absorbs many
        deltas instead of merging them singly.
        """
        while True:
            await self._drain_wakeup.wait()
            if self.drain_interval > 0:
                await asyncio.sleep(self.drain_interval)
            self._drain_wakeup.clear()
            self._merge_staged()

    def _merge_staged(self) -> None:
        """Coalesce and merge every staged delta (synchronous, on-loop)."""
        for fingerprint, deltas, run_ids, count in self.staging.take_all():
            self._merge_lump(fingerprint, deltas, run_ids, count)
        self._m_queue_depth.set(len(self.staging))

    def _merge_one(self, fingerprint: str) -> None:
        """Drain one fingerprint's staged deltas (the fetch barrier)."""
        taken = self.staging.take_one(fingerprint)
        if taken is not None:
            deltas, run_ids, count = taken
            self._merge_lump(fingerprint, deltas, run_ids, count)
            self._m_queue_depth.set(len(self.staging))

    def _merge_lump(self, fingerprint: str, deltas, run_ids, count: int) -> None:
        aggregate = self.aggregates[fingerprint]
        aggregate.merge_coalesced(
            coalesce_validated(deltas), run_ids=run_ids, publishes=count
        )
        self.merges += count
        self._m_lumps.inc()
        self._m_coalesced.inc(count)
        if self.telemetry is not None:
            self.telemetry.on_fleet_merge(
                fingerprint, count, aggregate.runs, aggregate.total_weight
            )

    # -- connection handling ------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        self.connections += 1
        self._m_connections.inc()
        self._m_active.inc()
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError:
                    # Undecodable stream (truncated frame, garbage):
                    # nothing sensible to reply to — drop the connection.
                    break
                if message is None:
                    break
                reply = await self._dispatch(message)
                try:
                    await write_message(writer, reply)
                except (ConnectionError, OSError):
                    break
        except asyncio.CancelledError:
            # Event-loop teardown (shard-worker shutdown) cancels open
            # handlers mid-read; exit quietly — stop() already drained.
            pass
        finally:
            self._m_active.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, message: dict) -> dict:
        kind = message["type"]
        if kind == "publish":
            return self._on_publish(message)
        if kind == "fetch":
            return self._on_fetch(message)
        if kind == "stats":
            return self._on_stats()
        if kind == "flush":
            self.flush()
            return self._on_stats()
        if kind == "status":
            return {"v": 1, "type": "status", "status": self.status()}
        if kind == "shutdown":
            if not self.allow_shutdown:
                return error_message("shutdown not permitted on this service")
            self.shutdown_requested.set()
            return {"v": 1, "type": "ack", "stopping": True}
        return error_message(f"unknown message type {kind!r}")

    # -- message handlers ---------------------------------------------------------

    def _aggregate_for(self, fingerprint: str) -> AggregateProfile:
        aggregate = self.aggregates.get(fingerprint)
        if aggregate is None:
            aggregate = self.repository.load(fingerprint)
            if aggregate is None:
                aggregate = AggregateProfile(fingerprint, self.repository.policy)
            self.aggregates[fingerprint] = aggregate
        return aggregate

    def _reject(self, reason: str) -> dict:
        self.publishes_rejected += 1
        self._m_rejected.inc()
        return error_message(reason)

    def _account_client(self, message: dict, edge_count: int, epoch: int) -> None:
        """Fold one accepted publish into the per-run accounting.

        Publishers number every enqueue attempt, including batches their
        bounded queue dropped, so a gap between consecutive ``seq``
        values (or a first ``seq`` above zero) is exactly the number of
        deltas this run lost before they reached the wire.
        """
        run_id = message.get("run_id")
        if not isinstance(run_id, str):
            return
        client = self.clients.get(run_id)
        if client is None:
            client = self.clients[run_id] = {
                "publishes": 0,
                "edges": 0,
                "last_seq": None,
                "dropped": 0,
                "epoch": epoch,
            }
        seq = message.get("seq")
        if isinstance(seq, int) and not isinstance(seq, bool):
            expected = 0 if client["last_seq"] is None else client["last_seq"] + 1
            if seq > expected:
                gap = seq - expected
                client["dropped"] += gap
                self._m_dropped.inc(gap)
            if client["last_seq"] is None or seq > client["last_seq"]:
                client["last_seq"] = seq
        client["publishes"] += 1
        client["edges"] += edge_count
        client["epoch"] = epoch

    def _on_publish(self, message: dict) -> dict:
        fingerprint = message.get("fingerprint")
        edges = message.get("edges")
        receivers = message.get("receivers")
        paths = message.get("paths")
        if not isinstance(fingerprint, str) or not isinstance(edges, list):
            return self._reject("publish needs a fingerprint and an edge list")
        if receivers is not None and not isinstance(receivers, list):
            return self._reject("receivers must be a list when present")
        if paths is not None and not isinstance(paths, list):
            return self._reject("paths must be a list when present")
        try:
            epoch = int(message.get("epoch", 0))
        except (TypeError, ValueError):
            return self._reject("epoch must be an integer")
        if self.coalesce:
            return self._on_publish_staged(
                message, fingerprint, epoch, edges, receivers, paths
            )
        try:
            aggregate = self._aggregate_for(fingerprint)
        except RepositoryError as error:
            return self._reject(str(error))
        try:
            aggregate.merge_delta(
                edges,
                epoch=epoch,
                run_id=message.get("run_id"),
                receivers=receivers,
                paths=paths,
            )
        except MergeError as error:
            return self._reject(str(error))
        try:
            due = self._log(
                fingerprint, epoch, message.get("run_id"), edges, receivers, paths
            )
        except OSError as error:
            # Unlogged, so unacked: drop the merged aggregate and reload
            # it from the repository, which never saw this delta.
            del self.aggregates[fingerprint]
            return self._reject(f"cannot log delta: {error}")
        if due:
            self._compact(fingerprint)
        self.merges += 1
        self._m_publishes.inc()
        self._m_edges.inc(len(edges))
        self._m_delta_edges.observe(len(edges))
        self._account_client(message, len(edges), epoch)
        if self.telemetry is not None:
            self.telemetry.on_fleet_merge(
                fingerprint,
                len(edges),
                aggregate.runs,
                aggregate.total_weight,
                trace_id=message.get("trace_id"),
                span_id=message.get("span_id"),
            )
        return ack_message(aggregate.runs, len(aggregate), aggregate.total_weight)

    def _on_publish_staged(
        self, message: dict, fingerprint: str, epoch: int, edges, receivers, paths
    ) -> dict:
        """The coalescing accept path: admit, validate, log, stage, ack.

        Validation and logging happen here — synchronously, so a
        malformed delta is rejected in its own reply exactly like eager
        mode — but the merge is deferred to the drain task.  Both
        backpressure checks precede validation: a ``busy`` reply means
        the delta was *not* logged and the client must retry it.
        """
        if self.limiter is not None:
            retry_after = self.limiter.check(message.get("run_id"))
            if retry_after > 0.0:
                self.busy_rejections += 1
                self._m_busy.inc()
                return busy_message(retry_after)
        if self.staging.full:
            self._kick_drain()
            self.busy_rejections += 1
            self._m_busy.inc()
            return busy_message(0.05)
        try:
            self._aggregate_for(fingerprint)
            validated_edges, validated_receivers, validated_paths = (
                AggregateProfile.validate_delta(edges, receivers, paths)
            )
        except (RepositoryError, MergeError) as error:
            return self._reject(str(error))
        try:
            due = self._log(
                fingerprint, epoch, message.get("run_id"), edges, receivers, paths
            )
        except OSError as error:
            return self._reject(f"cannot log delta: {error}")
        depth = self.staging.stage(
            fingerprint,
            epoch,
            validated_edges,
            validated_receivers,
            validated_paths,
            message.get("run_id"),
        )
        self._m_publishes.inc()
        self._m_staged.inc()
        self._m_edges.inc(len(edges))
        self._m_delta_edges.observe(len(edges))
        self._m_queue_depth.set(depth)
        self._account_client(message, len(edges), epoch)
        if due:
            self._compact(fingerprint)
            depth = len(self.staging)
        else:
            self._kick_drain()
        return staged_ack_message(depth)

    def _on_fetch(self, message: dict) -> dict:
        self._m_fetches.inc()
        fingerprint = message.get("fingerprint")
        if not isinstance(fingerprint, str):
            return error_message("fetch needs a fingerprint")
        if self.coalesce:
            # Read-your-writes: a fetch observes everything this
            # service has acked for the fingerprint, staged or merged.
            self._merge_one(fingerprint)
        try:
            aggregate = self.aggregates.get(fingerprint) or self.repository.load(
                fingerprint
            )
        except RepositoryError as error:
            return error_message(str(error))
        if aggregate is None or len(aggregate) == 0:
            return snapshot_message(None)
        return snapshot_message(aggregate.to_dict())

    def _on_stats(self) -> dict:
        return {
            "v": 1,
            "type": "stats",
            "programs": sorted(self._programs),
            "merges": self.merges,
            "rejected": self.publishes_rejected,
            "busy": self.busy_rejections,
            "staged": len(self.staging),
            "coalesce_ratio": self.staging.coalesce_ratio(),
            "connections": self.connections,
            "quarantined": self.repository.quarantined,
            "clients": len(self.clients),
            "client_drops": sum(c["dropped"] for c in self.clients.values()),
        }

    # -- observability ---------------------------------------------------------------

    def status(self) -> dict:
        """The ``/status`` document: aggregates, clients, and totals.

        Everything here is computed from in-memory state the event loop
        already owns, so serving it cannot block or perturb merging.
        """
        programs = {}
        for fingerprint in sorted(self._programs):
            aggregate = self.aggregates.get(fingerprint)
            if aggregate is None:
                programs[fingerprint] = {"loaded": False}
                continue
            programs[fingerprint] = {
                "loaded": True,
                "edges": len(aggregate),
                "runs": aggregate.runs,
                "total_weight": round(aggregate.total_weight, 6),
                "epoch": aggregate.epoch,
                "publishes": aggregate.publishes,
            }
        clients = {}
        for run_id, entry in sorted(self.clients.items()):
            attempts = entry["publishes"] + entry["dropped"]
            clients[run_id] = {
                "publishes": entry["publishes"],
                "edges": entry["edges"],
                "last_seq": entry["last_seq"],
                "epoch": entry["epoch"],
                "dropped": entry["dropped"],
                "drop_rate": round(entry["dropped"] / attempts, 6) if attempts else 0.0,
            }
        document = {
            "service": "repro-fleet",
            "programs": programs,
            "clients": clients,
            "totals": {
                "merges": self.merges,
                "rejected": self.publishes_rejected,
                "busy": self.busy_rejections,
                "connections": self.connections,
                "quarantined": self.repository.quarantined,
                "client_drops": sum(c["dropped"] for c in self.clients.values()),
            },
            "staging": {
                "coalesce": self.coalesce,
                "queue_depth": len(self.staging),
                "staged_rows": self.staging.staged_rows,
                "coalesce_ratio": self.staging.coalesce_ratio(),
                "busy_rejections": self.busy_rejections,
                "persist_pending": len(self._dirty),
            },
        }
        if self.shard_id is not None:
            document["shard"] = self.shard_id
        return document


async def run_service(
    root: str,
    host: str = "127.0.0.1",
    port: int = 0,
    decay: float = 1.0,
    max_edges: int | None = None,
    ready=None,
    http_port: int | None = None,
    http_ready=None,
    telemetry=None,
    coalesce: bool = False,
    rate: float | None = None,
    burst: float | None = None,
) -> None:
    """Run a single-process fleet service until cancelled.

    The ``serve`` CLI backend for ``--workers 1`` (``--workers N``
    routes through :func:`repro.fleet.shard.run_sharded_service`
    instead).  ``ready``, if given, is called with the bound ``(host,
    port)`` once the socket is listening — used for readiness lines and
    tests.  ``http_port``, if given, additionally mounts the
    observability listener (``/metrics``, ``/healthz``, ``/status``) on
    the same event loop; ``http_ready`` is called with its bound
    address.  ``coalesce`` switches the publish path to staged acks
    with background coalesced merging; ``rate``/``burst`` enable the
    per-client token-bucket backpressure.
    """
    from repro.telemetry.httpapi import ObservabilityHTTP

    repository = ProfileRepository(
        root, MergePolicy(decay=decay, max_edges=max_edges)
    )
    service = FleetService(
        repository,
        telemetry=telemetry,
        coalesce=coalesce,
        rate=rate,
        burst=burst,
    )
    http = None
    await service.start(host, port)
    if ready is not None:
        ready(service.address)
    try:
        if http_port is not None:
            http = ObservabilityHTTP(
                registry=service.registry,
                status_fn=service.status,
                health_fn=lambda: {"status": "ok", "service": "repro-fleet"},
            )
            await http.start(host, http_port)
            if http_ready is not None:
                http_ready(http.address)
        await service.serve_forever()
    finally:
        if http is not None:
            await http.stop()
        await service.stop()
