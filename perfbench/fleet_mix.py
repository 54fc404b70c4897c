"""Workload ``fleet-mix``: publishes and fetches against one fleet service.

The service (``fleet_service.py``) runs in its own process; this process
is the load generator, on one connection.  An open loop offers
``RATE`` operations per second: seeded publishes of integral-weight
deltas mixed with fetches (warm-start reads), spread over a seeded set
of program fingerprints, each with its own seeded edge universe, so the
snapshot working set differs between fingerprints.  Latency is timed
from when each operation was due.  A closed-loop phase then measures
publish capacity up to a ``flush`` barrier.  Every fetch and the final
aggregates are checked against this process's exact sums.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import subprocess
import sys
import time
from statistics import median

from common import (
    BENCH_DIR,
    RUN_DIR,
    SETUP_SAMPLE_RUNS,
    Outcome,
    calibration_sample_ms,
    tail,
)

#: Offered load of the open loop, operations per second, and its mix.
RATE = 25.0
FETCH_SHARE = 0.25
#: Shares of ``--seconds`` given to the open loop and the closed loop.
OPEN_SHARE = 0.7
CLOSED_SHARE = 0.2
#: Share of ``--seconds`` given to each open loop of a traced run.
TRACED_SHARE = 0.3
#: Working-set draw per size: fingerprints, edges per fingerprint, edges
#: per delta.
SCALES = {
    "small": {"fingerprints": (10, 14), "universe": (100, 600), "delta": (10, 40)},
    "tiny": {"fingerprints": (2, 3), "universe": (10, 30), "delta": (2, 6)},
}


def share_one_cpu() -> None:
    """Keep the load generator and the service it starts on one CPU, so
    a round trip does not depend on where the scheduler placed the two
    processes, and the interleaved calibration measures the CPU the
    service runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Workset:
    """Seeded fingerprints and edge universes, and the exact expected sums."""

    def __init__(self, seed: int, size: str):
        scale = SCALES[size]
        self.rng = random.Random(seed)
        count = self.rng.randint(*scale["fingerprints"])
        self.fingerprints = [f"{self.rng.getrandbits(64):016x}" for _ in range(count)]
        # Universe sizes are spread evenly over the range at a seeded
        # offset: every seed has small and large aggregates, and the
        # mean snapshot a publish rewrites does not move with the seed.
        low, high = scale["universe"]
        offset = self.rng.random()
        sizes = [low + int((high - low) * (i + offset) / count) for i in range(count)]
        self.rng.shuffle(sizes)
        self.universe = {}
        for fp, target in zip(self.fingerprints, sizes):
            edges = set()
            while len(edges) < target:
                caller = f"app.C{self.rng.randrange(40)}.m{self.rng.randrange(8)}"
                callee = f"app.C{self.rng.randrange(40)}.m{self.rng.randrange(8)}"
                edges.add((caller, self.rng.randrange(200), callee))
            self.universe[fp] = sorted(edges)
        self.delta_range = scale["delta"]
        self.expected: dict[str, dict] = {fp: {} for fp in self.fingerprints}

    def next_op(self) -> tuple[str, str, list | None]:
        fp = self.rng.choice(self.fingerprints)
        if self.rng.random() < FETCH_SHARE:
            return "fetch", fp, None
        return "publish", fp, self.delta(fp)

    def delta(self, fp: str) -> list:
        picked = self.rng.sample(self.universe[fp], self.rng.randint(*self.delta_range))
        return [[c, pc, e, self.rng.randint(1, 9)] for c, pc, e in picked]

    def acked(self, fp: str, rows: list) -> None:
        sums = self.expected[fp]
        for c, pc, e, w in rows:
            sums[(c, pc, e)] = sums.get((c, pc, e), 0) + w

    def check_snapshot(self, fp: str, snapshot, full: bool) -> str | None:
        sums = self.expected[fp]
        if not sums:
            return None if snapshot is None else f"{fp}: snapshot for an unpublished program"
        if snapshot is None:
            return f"{fp}: no snapshot after {len(sums)} published edges"
        if len(snapshot["edges"]) != len(sums) or snapshot["fleet"]["total_weight"] != sum(sums.values()):
            return f"{fp}: {len(snapshot['edges'])} edges, weight {snapshot['fleet']['total_weight']}"
        if full:
            got = {(r["caller"], r["pc"], r["callee"]): r["weight"] for r in snapshot["edges"]}
            if got != sums:
                return f"{fp}: edge weights differ from the published sums"
        return None


class Service:
    """One fleet service process and a client connection to it."""

    def __init__(self, trace: bool, tag: str):
        from repro.fleet.protocol import recv_message, send_message

        self.send, self.recv = send_message, recv_message
        self.root = os.path.join(RUN_DIR, f"fleet-{os.getpid()}-{tag}")
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.result_path = self.root + ".result.json"
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "fleet_service.py"), self.root,
             self.result_path, "1" if trace else "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        self.sock = None
        try:
            line = self.process.stdout.readline().split()
            if not line or line[0] != "ready":
                raise RuntimeError("fleet service did not start")
            self.sock = socket.create_connection((line[1], int(line[2])), timeout=30)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            self.stop()
            raise

    def call(self, message: dict) -> dict:
        self.send(self.sock, message)
        return self.recv(self.sock)

    def stop(self) -> dict:
        """Close the connection, stop the process, return its result."""
        if self.sock is not None:
            self.sock.close()
        self.process.terminate()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        try:
            with open(self.result_path) as handle:
                result = json.load(handle)
        except (OSError, ValueError):
            result = {}
        shutil.rmtree(self.root, ignore_errors=True)
        if os.path.exists(self.result_path):
            os.remove(self.result_path)
        return result


def publish(fp: str, rows: list, seq: int) -> dict:
    from repro.fleet.protocol import publish_message

    return publish_message(fp, rows, run_id="perfbench", seq=seq)


def setup_probe(seed: int, size: str) -> tuple[float, float]:
    """Seconds from service boot until the first publish is acknowledged,
    and the mean of a calibration sample taken before the boot and one
    after the service stopped, on the CPU the service ran on."""
    from repro.fleet.protocol import publish_message  # noqa: F401 - imports before timing

    share_one_cpu()
    before = calibration_sample_ms(SETUP_SAMPLE_RUNS)
    start = time.perf_counter()
    service = Service(trace=False, tag="boot")
    try:
        reply = service.call(publish("00000000deadbeef", [["a", 0, "b", 1]], 0))
        elapsed = time.perf_counter() - start
    finally:
        service.stop()
    if reply.get("type") != "ack" or reply.get("edges") != 1:
        raise RuntimeError(f"first publish not acknowledged: {reply}")
    return elapsed, (before + calibration_sample_ms(SETUP_SAMPLE_RUNS)) / 2


def prefill(service: Service, work: Workset) -> tuple[int, list]:
    """Publish every fingerprint's whole edge universe once, so the timed
    phases see full-size aggregates from their first operation instead
    of snapshots that grow through the run."""
    errors, sent = [], 0
    for fp in work.fingerprints:
        edges = work.universe[fp]
        for at in range(0, len(edges), 100):
            rows = [[c, pc, e, work.rng.randint(1, 9)] for c, pc, e in edges[at : at + 100]]
            reply = service.call(publish(fp, rows, 2_000_000 + sent))
            sent += 1
            if reply.get("type") == "ack":
                work.acked(fp, rows)
            else:
                errors.append(f"publish refused: {reply}")
    return sent, errors


def open_loop(service: Service, work: Workset, seconds: float, clock) -> dict:
    """Offer ``RATE`` operations per second for ``seconds``; every op is
    drawn from ``work`` and checked.  Latencies are timed from when the
    op was due.  The generator calibrates the host clock in the gaps
    between ops, and each op is scaled by the samples of the gap before
    and the gap after it: the host moves between fast and slow spells
    within the phase, and a tail percentile falls in the slow ones."""
    from repro.fleet.protocol import fetch_message

    done, lags, errors = [], [], []
    #: gaps[i]: index of the first calibration sample of the gap before op i.
    gaps = []
    count = int(seconds * RATE)
    start = time.perf_counter() + 0.01
    for i in range(count):
        kind, fp, rows = work.next_op()
        due = start + i / RATE
        gaps.append(len(clock.samples_ms))
        while due - time.perf_counter() > 0.006:
            clock.calibrate(runs=1)
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        lags.append(sent - due)
        try:
            if kind == "publish":
                reply = service.call(publish(fp, rows, i))
                error = None if reply.get("type") == "ack" else f"publish refused: {reply}"
                if error is None:
                    work.acked(fp, rows)
            else:
                reply = service.call(fetch_message(fp))
                error = work.check_snapshot(fp, reply.get("snapshot"), full=False)
        except OSError as exc:
            error = repr(exc)
        done.append((kind, time.perf_counter() - due))
        if error:
            errors.append(error)
        if time.perf_counter() > start + seconds + 10:
            errors.append("open loop fell more than 10 s behind")
            break
    gaps.append(len(clock.samples_ms))
    for _ in range(8):  # the gap after the last op
        clock.calibrate(runs=1)
    gaps.append(len(clock.samples_ms))
    samples = clock.samples_ms
    latencies = {"publish": [], "fetch": []}
    calibrated = {"publish": [], "fetch": []}
    for i, (kind, latency) in enumerate(done):
        # An op that started late has no gap before it: use the last sample.
        near = samples[gaps[i] : gaps[i + 2]] or samples[gaps[i] - 1 : gaps[i]]
        latencies[kind].append(latency)
        calibrated[kind].append(latency * clock.reference_ms * len(near) / sum(near))
    return {
        "latencies": latencies,
        "calibrated": calibrated,
        "lags": lags,
        "errors": errors,
        "ops": len(done),
    }


def closed_loop(service: Service, work: Workset, seconds: float, clock) -> tuple:
    """Publish back to back for ``seconds``, then wait for a flush;
    returns ``(publishes, calibrated seconds, errors)``.  The
    host clock is calibrated every 25 publishes and the phase is
    calibrated by its own samples."""
    from repro.fleet.protocol import flush_message

    errors = []
    sent = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        fp = work.fingerprints[sent % len(work.fingerprints)]
        rows = work.delta(fp)
        reply = service.call(publish(fp, rows, 1_000_000 + sent))
        if reply.get("type") == "ack":
            work.acked(fp, rows)
        else:
            errors.append(f"publish refused: {reply}")
        sent += 1
        if sent % 25 == 0:
            clock.calibrate(runs=1)
    service.call(flush_message())
    took = time.perf_counter() - start
    clock.calibrate(runs=1)
    return sent, took * clock.factor(since=start), errors


def final_check(service: Service, work: Workset) -> tuple[list, dict]:
    from repro.fleet.protocol import fetch_message

    errors, snapshots = [], {}
    for fp in work.fingerprints:
        snapshot = service.call(fetch_message(fp)).get("snapshot")
        snapshots[fp] = snapshot
        error = work.check_snapshot(fp, snapshot, full=True)
        if error:
            errors.append(error)
    return errors, snapshots


def run(seed: int, seconds: float, size: str, refs: dict, clock, trace: bool) -> Outcome:
    share_one_cpu()
    clock.calibrate()
    if trace:
        return traced(seed, seconds, size, clock)
    work = Workset(seed, size)
    service = Service(trace=False, tag="main")
    try:
        filled, fill_errors = prefill(service, work)
        loop = open_loop(service, work, OPEN_SHARE * seconds, clock)
        sent, took_cal, closed_errors = closed_loop(service, work, CLOSED_SHARE * seconds, clock)
        final_errors, _ = final_check(service, work)
    finally:
        result = service.stop()
    pub_ms = [x * 1e3 for x in loop["calibrated"]["publish"]]
    fetch_ms = [x * 1e3 for x in loop["calibrated"]["fetch"]]
    planned = int(OPEN_SHARE * seconds * RATE)
    label, pub_tail = tail(pub_ms, int(planned * (1 - FETCH_SHARE)))
    lag_label, lag_tail = tail([x * 1e3 for x in loop["lags"]], planned)
    capacity = sent / took_cal
    errors = fill_errors + loop["errors"] + closed_errors + final_errors
    errors += service_errors(result)
    attempted = filled + loop["ops"] + sent + len(work.fingerprints)
    return Outcome(
        values={
            "throughput_per_s": capacity,
            "op_ms": median(pub_ms),
            "tail_ms": pub_tail,
            "peak_rss_mb": result.get("peak_rss_mb", 0.0),
        },
        attempted=attempted,
        failed=len(errors),
        errors=errors,
        detail={
            "publish_p50_ms": median(pub_ms),
            "publish_tail_ms": pub_tail,
            "publish_tail_percentile": label,
            "publishes": len(pub_ms),
            "fetch_p50_ms": median(fetch_ms),
            "fetches": len(fetch_ms),
            "publish_capacity_per_s": capacity,
            "capacity_publishes": sent,
            "offered_rate_per_s": RATE,
            "loadgen_lag_tail_ms": lag_tail,
            "loadgen_lag_percentile": lag_label,
            "fingerprints": len(work.fingerprints),
            "universe_edges": [len(work.universe[fp]) for fp in work.fingerprints],
            "failed_ratio": len(errors) / attempted,
            "publish_p50_raw_ms": median(loop["latencies"]["publish"]) * 1e3,
        },
    )


def service_errors(result: dict) -> list[str]:
    """A service that wrote no result (it failed, or had to be killed)
    reported neither its peak RSS nor its layer times."""
    return [] if "peak_rss_mb" in result else ["fleet service wrote no result"]


def total_latency(loop: dict) -> float:
    return sum(sum(ops) for ops in loop["latencies"].values())


def traced(seed: int, seconds: float, size: str, clock) -> Outcome:
    """The same open loop against an untraced and then a traced service;
    both must end with identical aggregates."""
    passes = []
    for trace in (False, True):
        work = Workset(seed, size)
        service = Service(trace=trace, tag=f"trace{int(trace)}")
        try:
            filled, fill_errors = prefill(service, work)
            loop = open_loop(service, work, TRACED_SHARE * seconds, clock)
            final_errors, snapshots = final_check(service, work)
        finally:
            result = service.stop()
        loop["ops"] += filled
        passes.append((loop, fill_errors + final_errors, snapshots, result))
    (plain, _, plain_snaps, _), (again, _, again_snaps, result) = passes
    factor = clock.factor()
    errors = [e for p in passes for e in p[0]["errors"] + p[1] + service_errors(p[3])]
    identical = plain_snaps == again_snaps
    if not identical:
        errors.append("traced aggregates differ from the untraced aggregates")
    layers = result.get("layers", {})
    values = {k: v * factor if k.endswith("_ms") else v for k, v in layers.items()}
    planned = int(TRACED_SHARE * seconds * RATE)
    values.update(
        {
            "loadgen.lag_tail_ms": tail([x * 1e3 for x in plain["lags"]], planned)[1],
            "trace.overhead_ratio": total_latency(again) / total_latency(plain),
            "trace.coverage": result.get("coverage", 0.0),
        }
    )
    attempted = plain["ops"] + again["ops"] + 2 * len(plain_snaps)
    return Outcome(
        values=values,
        attempted=attempted,
        failed=len(errors),
        errors=errors,
        detail={"ops": again["ops"]},
    )
