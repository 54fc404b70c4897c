"""The fleet load harness (``repro-mini fleet-bench``).

Replays thousands of synthetic publishers against a live fleet service
and measures what the scaling tentpole promises: publish throughput,
p50/p95/p99 publish latency, and — because the whole design rests on
merge commutativity — **zero edge loss** (the sum of merged weights
across all shards must equal the sum of published delta weights,
exactly; the harness publishes integral weights so the comparison has
no float slack).

Two service topologies run back to back, each in its own process with
its own fresh repository root:

* ``single`` — the default ``serve``: one asyncio process, eager
  inline merge, each delta appended to its program's log before the
  ack.
* ``sharded`` — ``serve --workers N``: the routing frontend over N
  coalescing worker processes with staged (and logged) acks.

The summary's headline figure is ``scaling_ratio`` (sharded throughput
over single throughput) and ``p99_ratio`` (single p99 over sharded
p99).  Both are *ratios measured on the same host in the same run*, so
— like ``BENCH_vm.json`` — the committed ``BENCH_fleet.json`` baseline
gates CI runners and laptops alike; absolute rates are recorded for
the trajectory but never compared across machines.

Throughput is end-to-end honest: the clock for a mode stops only after
a ``flush`` barrier confirms every staged delta is merged and every
program's log compacted into its snapshot, so coalescing cannot win by deferring work
past the finish line.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import socket
import sys
import threading
import time

from repro.fleet.protocol import (
    ProtocolError,
    encode_message,
    fetch_message,
    flush_message,
    publish_message,
    recv_message,
    send_message,
)

#: Hard floors on the sharded/single throughput ratio, by worker count.
#: The 4-worker floor is the tentpole acceptance criterion.
SCALING_FLOORS = {2: 1.5, 4: 3.0}

#: Hard floor on single-p99 / sharded-p99: staged acks must not be
#: slower than eager merge-and-log acks at the tail.
P99_RATIO_FLOOR = 1.0

SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 30.0


# -- synthetic fleet ------------------------------------------------------------------


def _fingerprint(index: int) -> str:
    return hashlib.sha256(f"fleet-bench-program-{index}".encode()).hexdigest()


def build_workload(
    publishers: int, batches: int, edges: int, programs: int, seed: int = 1
) -> tuple[list[list[bytes]], dict[str, int], list[str]]:
    """Pre-encode every publisher's frames before the timed phase.

    Returns ``(frames per publisher, expected weight per fingerprint,
    fingerprints)``.  Weights are small deterministic integers (a
    seeded affine walk, no RNG state to carry) so the zero-loss check
    is exact; edge keys cycle through a bounded pool per program so
    aggregates stay realistically sized instead of growing one key per
    published row.
    """
    fingerprints = [_fingerprint(i) for i in range(programs)]
    expected: dict[str, int] = {fp: 0 for fp in fingerprints}
    per_publisher: list[list[bytes]] = []
    state = seed & 0x7FFFFFFF
    for p in range(publishers):
        fingerprint = fingerprints[p % programs]
        run_id = f"bench-{p}"
        frames = []
        for b in range(batches):
            rows = []
            for e in range(edges):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                weight = 1 + state % 9
                key = (p * batches + b + e) % 211
                rows.append([f"M{key}.run", key % 17, f"M{(key * 7) % 211}.callee", weight])
                expected[fingerprint] += weight
            frames.append(
                encode_message(
                    publish_message(
                        fingerprint, rows, run_id=run_id, seq=b, epoch=0
                    )
                )
            )
        per_publisher.append(frames)
    return per_publisher, expected, fingerprints


# -- server processes -----------------------------------------------------------------


def _server_main(conn, root: str, workers: int, coalesce: bool):
    """Entry point of the benched service process (spawn-safe)."""
    asyncio.run(_server_async(conn, root, workers, coalesce))


async def _server_async(conn, root, workers, coalesce) -> None:
    def ready(address):
        conn.send(address)

    if workers > 1:
        from repro.fleet.shard import run_sharded_service

        serve = run_sharded_service(root, workers, ready=ready)
    else:
        from repro.fleet.service import run_service

        serve = run_service(root, coalesce=coalesce, ready=ready)
    task = asyncio.ensure_future(serve)
    # Block a worker thread on the pipe; the parent's "stop" unblocks it.
    await asyncio.to_thread(conn.recv)
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass
    conn.send("stopped")


class _ServerProcess:
    """A benched fleet service in its own process, stopped in-band."""

    def __init__(self, root: str, workers: int, coalesce: bool):
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        # NOT daemonic: the sharded frontend spawns its own worker
        # children, which daemonic processes are forbidden to do.
        # stop() joins with a terminate() backstop instead.
        self.process = ctx.Process(
            target=_server_main,
            args=(child_conn, root, workers, coalesce),
            name="fleet-bench-server",
        )
        self.process.start()
        child_conn.close()
        if not self._conn.poll(SERVER_START_TIMEOUT):
            self.process.terminate()
            raise RuntimeError("bench service did not start")
        self.address = self._conn.recv()

    def stop(self) -> None:
        try:
            self._conn.send("stop")
            if self._conn.poll(SERVER_STOP_TIMEOUT):
                self._conn.recv()
        except (OSError, EOFError):
            pass
        self.process.join(SERVER_STOP_TIMEOUT)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(SERVER_STOP_TIMEOUT)
        self._conn.close()


# -- load generation ------------------------------------------------------------------


class _LoadJob(threading.Thread):
    """One connection replaying a slice of the publishers, in order.

    Sends are synchronous (send, await reply, record the round trip);
    concurrency comes from running ``jobs`` of these threads at once.
    ``busy`` replies are honored with the server's ``retry_after`` and
    the frame is resent — a busy publish only counts once acked.
    """

    def __init__(self, address, publishers: list[list[bytes]]):
        super().__init__(daemon=True)
        self.address = address
        self.publishers = publishers
        self.latencies: list[float] = []
        self.busy_retries = 0
        self.failures = 0

    def run(self) -> None:
        try:
            sock = socket.create_connection(self.address, timeout=30.0)
            sock.settimeout(30.0)
        except OSError:
            self.failures = sum(len(frames) for frames in self.publishers)
            return
        try:
            for frames in self.publishers:
                for frame in frames:
                    self._publish(sock, frame)
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _publish(self, sock, frame: bytes) -> None:
        while True:
            started = time.perf_counter()
            try:
                sock.sendall(frame)
                reply = recv_message(sock)
            except (OSError, ProtocolError):
                self.failures += 1
                return
            if reply.get("type") == "busy":
                self.busy_retries += 1
                try:
                    retry_after = float(reply.get("retry_after", 0.01))
                except (TypeError, ValueError):
                    retry_after = 0.01
                time.sleep(min(max(retry_after, 0.001), 0.5))
                continue
            if reply.get("type") == "ack":
                self.latencies.append(time.perf_counter() - started)
            else:
                self.failures += 1
            return


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _run_mode(
    address,
    per_publisher: list[list[bytes]],
    expected: dict[str, int],
    fingerprints: list[str],
    jobs: int,
) -> dict:
    """Replay the workload against one live service and measure it."""
    shares: list[list[list[bytes]]] = [[] for _ in range(jobs)]
    for index, frames in enumerate(per_publisher):
        shares[index % jobs].append(frames)
    workers = [_LoadJob(address, share) for share in shares if share]

    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    publish_seconds = time.perf_counter() - started

    # The end-to-end barrier: everything staged must merge and every
    # log compact into its snapshot before the clock stops.
    with socket.create_connection(address, timeout=60.0) as sock:
        sock.settimeout(60.0)
        send_message(sock, flush_message())
        stats = recv_message(sock)
        e2e_seconds = time.perf_counter() - started
        merged_weight = 0
        for fingerprint in fingerprints:
            send_message(sock, fetch_message(fingerprint))
            reply = recv_message(sock)
            snapshot = reply.get("snapshot")
            if isinstance(snapshot, dict):
                merged_weight += round(
                    sum(edge["weight"] for edge in snapshot.get("edges", ()))
                )

    latencies = sorted(
        latency for worker in workers for latency in worker.latencies
    )
    publishes = len(latencies)
    published_weight = sum(expected.values())
    return {
        "publishes": publishes,
        "failures": sum(worker.failures for worker in workers),
        "busy_retries": sum(worker.busy_retries for worker in workers),
        "publish_seconds": round(publish_seconds, 4),
        "e2e_seconds": round(e2e_seconds, 4),
        "throughput": round(publishes / e2e_seconds, 1) if e2e_seconds else 0.0,
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p95_ms": round(_percentile(latencies, 0.95) * 1000, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
        "published_weight": published_weight,
        "merged_weight": merged_weight,
        "lost_edges": published_weight - merged_weight,
        "coalesce_ratio": stats.get("coalesce_ratio", 0.0),
        "merges": stats.get("merges", 0),
    }


# -- entry points ---------------------------------------------------------------------


def collect_summary(
    publishers: int = 1000,
    batches: int = 4,
    edges: int = 20,
    programs: int = 32,
    workers: int = 4,
    jobs: int = 8,
    quick: bool = False,
    root_dir: str | None = None,
) -> dict:
    """Run both topologies and return the ``BENCH_fleet.json`` summary."""
    import tempfile

    if quick:
        publishers = min(publishers, 200)
        batches = min(batches, 3)
        edges = min(edges, 10)
        programs = min(programs, 8)
        workers = min(workers, 2)
        jobs = min(jobs, 4)
    per_publisher, expected, fingerprints = build_workload(
        publishers, batches, edges, programs
    )
    modes = {}
    with tempfile.TemporaryDirectory(dir=root_dir) as tmp:
        for name, mode_workers, coalesce in (
            ("single", 1, False),
            ("sharded", workers, True),
        ):
            root = f"{tmp}/{name}"
            server = _ServerProcess(root, mode_workers, coalesce)
            try:
                result = _run_mode(
                    server.address, per_publisher, expected, fingerprints, jobs
                )
            finally:
                server.stop()
            result["workers"] = mode_workers
            modes[name] = result
            print(
                f"-- {name} (workers={mode_workers}): "
                f"{result['throughput']:,.0f} publishes/sec, "
                f"p99 {result['p99_ms']}ms, lost {result['lost_edges']}",
                file=sys.stderr,
            )
    single, sharded = modes["single"], modes["sharded"]
    return {
        "version": 1,
        "quick": quick,
        "python": sys.version.split()[0],
        "publishers": publishers,
        "batches": batches,
        "edges": edges,
        "programs": programs,
        "jobs": jobs,
        "modes": modes,
        "scaling_ratio": round(
            sharded["throughput"] / single["throughput"], 3
        )
        if single["throughput"]
        else 0.0,
        "p99_ratio": round(single["p99_ms"] / sharded["p99_ms"], 3)
        if sharded["p99_ms"]
        else 0.0,
    }


def check_against_baseline(
    summary: dict, baseline: dict | None, max_regress: float
) -> list[str]:
    """Return failure messages (empty = pass).

    Always enforced, baseline or not:

    * zero publish failures and **zero lost edges** in both modes —
      every published weight is found in the merged aggregates;
    * the absolute :data:`SCALING_FLOORS` for the sharded worker count
      (4 workers must reach 3x the single-process baseline);
    * :data:`P99_RATIO_FLOOR` — sharded p99 publish latency no worse
      than single-process p99.

    With a baseline file, additionally gate ``scaling_ratio`` and
    ``p99_ratio`` within ``max_regress`` of the committed values —
    ratios, not absolute rates, so one file gates every host.  The
    baseline comparison only applies when the run used the same sharded
    worker count as the baseline (a ``--quick`` 2-worker smoke against
    a 4-worker baseline is gated by the hard floors alone — comparing
    their scaling ratios would be apples to oranges).
    """
    failures = []
    for name, mode in summary["modes"].items():
        if mode.get("failures"):
            failures.append(f"{name}: {mode['failures']} publishes failed")
        if mode.get("lost_edges"):
            failures.append(
                f"{name}: lost {mode['lost_edges']} of "
                f"{mode['published_weight']} published edge weight"
            )
    workers = summary["modes"]["sharded"]["workers"]
    floor = SCALING_FLOORS.get(workers)
    if floor is not None and summary["scaling_ratio"] < floor:
        failures.append(
            f"scaling ratio {summary['scaling_ratio']:.2f}x with "
            f"{workers} workers is below the hard floor {floor:.2f}x"
        )
    if summary["p99_ratio"] and summary["p99_ratio"] < P99_RATIO_FLOOR:
        failures.append(
            f"p99 ratio {summary['p99_ratio']:.2f}x is below "
            f"{P99_RATIO_FLOOR:.2f}x (sharded tail latency regressed past "
            f"the single-process baseline)"
        )
    baseline_workers = (
        baseline.get("modes", {}).get("sharded", {}).get("workers")
        if baseline is not None
        else None
    )
    if baseline is not None and baseline_workers == workers:
        base_scaling = baseline.get("scaling_ratio", 0.0)
        if base_scaling:
            scaled_floor = base_scaling * (1.0 - max_regress)
            if summary["scaling_ratio"] < scaled_floor:
                failures.append(
                    f"scaling ratio {summary['scaling_ratio']:.2f}x fell below "
                    f"{scaled_floor:.2f}x (baseline {base_scaling:.2f}x "
                    f"- {max_regress:.0%})"
                )
        base_p99 = baseline.get("p99_ratio", 0.0)
        if base_p99:
            p99_floor = base_p99 * (1.0 - max_regress)
            if summary["p99_ratio"] < p99_floor:
                failures.append(
                    f"p99 ratio {summary['p99_ratio']:.2f}x fell below "
                    f"{p99_floor:.2f}x (baseline {base_p99:.2f}x "
                    f"- {max_regress:.0%})"
                )
    return failures


def run_fleet_bench(args) -> int:
    """The ``repro-mini fleet-bench`` backend (argparse namespace in)."""
    summary = collect_summary(
        publishers=args.publishers,
        batches=args.batches,
        edges=args.edges,
        programs=args.programs,
        workers=args.workers,
        jobs=args.jobs,
        quick=args.quick,
    )
    text = json.dumps(summary, indent=2) + "\n"
    if args.write:
        with open(args.write, "w") as handle:
            handle.write(text)
        print(f"wrote {args.write}", file=sys.stderr)
    elif args.json:
        print(text, end="")
    else:
        single, sharded = summary["modes"]["single"], summary["modes"]["sharded"]
        print(
            f"fleet-bench: {summary['publishers']} publishers x "
            f"{summary['batches']} batches x {summary['edges']} edges\n"
            f"  single  (1 worker):  {single['throughput']:>10,.0f}/s  "
            f"p50 {single['p50_ms']}ms p95 {single['p95_ms']}ms "
            f"p99 {single['p99_ms']}ms\n"
            f"  sharded ({sharded['workers']} workers): "
            f"{sharded['throughput']:>10,.0f}/s  "
            f"p50 {sharded['p50_ms']}ms p95 {sharded['p95_ms']}ms "
            f"p99 {sharded['p99_ms']}ms\n"
            f"  scaling {summary['scaling_ratio']:.2f}x, "
            f"p99 ratio {summary['p99_ratio']:.2f}x, "
            f"lost edges {single['lost_edges']}+{sharded['lost_edges']}"
        )
    baseline = None
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
    failures = check_against_baseline(
        summary, baseline, getattr(args, "max_regress", 0.15)
    )
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if failures:
        return 1
    if args.check:
        print(
            f"OK scaling {summary['scaling_ratio']:.2f}x and p99 ratio "
            f"{summary['p99_ratio']:.2f}x within bounds, zero edge loss",
            file=sys.stderr,
        )
    return 0
