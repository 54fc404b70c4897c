"""Durability of acked deltas: the append log, its replay, and compaction.

An ack means the delta's record is in its program's log, so a service
killed with SIGKILL and restarted on the same root must serve exactly
the aggregate a never-killed service serves — edges, receivers, paths
and ``fleet.runs`` — in eager and in coalescing mode.  The repository
tests below cut the log mid-record and crash a compaction half way.
"""

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys

import pytest

import repro
from repro.fleet import repository as repository_module
from repro.fleet.merge import AggregateProfile
from repro.fleet.protocol import (
    fetch_message,
    flush_message,
    publish_message,
    recv_message,
    send_message,
)
from repro.fleet.repository import ProfileRepository

FPS = ["ab" * 32, "cd" * 32, "ef" * 32]
RUN_IDS = [f"run-{index}" for index in range(4)]

#: Starts ``run_service`` on ROOT (argv[1]); argv[2] == "1" coalesces.
SERVICE_SCRIPT = """
import asyncio, sys
from repro.fleet.service import run_service

def ready(address):
    print(address[0], address[1], flush=True)

asyncio.run(run_service(sys.argv[1], coalesce=sys.argv[2] == "1", ready=ready))
"""


def delta_stream(seed: int, count: int) -> list[tuple]:
    """Seeded publishes: integral weights, a small key pool, run ids
    that recur across the stream (so across compactions and restarts)."""
    rng = random.Random(seed)
    stream = []
    for _ in range(count):
        edges = [
            [f"f{rng.randrange(5)}", rng.randrange(4), f"g{rng.randrange(5)}",
             float(rng.randrange(1, 10))]
            for _ in range(rng.randrange(1, 5))
        ]
        receivers = [
            [f"f{rng.randrange(5)}", rng.randrange(4), f"C{rng.randrange(3)}",
             float(rng.randrange(1, 5))]
            for _ in range(rng.randrange(0, 3))
        ]
        paths = [
            [f"f{rng.randrange(5)}", rng.randrange(8), float(rng.randrange(1, 5))]
            for _ in range(rng.randrange(0, 3))
        ]
        stream.append((rng.choice(FPS), edges, receivers, paths, rng.choice(RUN_IDS)))
    return stream


def service_env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class ServiceProcess:
    """``run_service`` in a child process, driven over one connection."""

    def __init__(self, root: str, coalesce: bool):
        self.process = subprocess.Popen(
            [sys.executable, "-c", SERVICE_SCRIPT, root, "1" if coalesce else "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=service_env(),
        )
        host, port = self.process.stdout.readline().split()
        self.sock = socket.create_connection((host, int(port)), timeout=30)

    def call(self, message: dict) -> dict:
        send_message(self.sock, message)
        return recv_message(self.sock)

    def publish_all(self, stream) -> None:
        for fp, edges, receivers, paths, run_id in stream:
            reply = self.call(
                publish_message(fp, edges, run_id, receivers=receivers, paths=paths)
            )
            assert reply["type"] == "ack", reply

    def snapshots(self) -> dict:
        return {fp: self.call(fetch_message(fp))["snapshot"] for fp in FPS}

    def kill(self) -> None:
        self.sock.close()
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(30)
        self.process.stdout.close()


def exact_sums(stream) -> dict:
    sums = {fp: {} for fp in FPS}
    for fp, edges, _, _, _ in stream:
        for caller, pc, callee, weight in edges:
            key = (caller, pc, callee)
            sums[fp][key] = sums[fp].get(key, 0.0) + weight
    return sums


@pytest.mark.parametrize("coalesce", [False, True], ids=["eager", "coalescing"])
def test_sigkilled_service_restarts_with_every_acked_delta(tmp_path, coalesce):
    stream = delta_stream(11, 60)
    before, between, after = stream[:20], stream[20:40], stream[40:]

    killed = ServiceProcess(str(tmp_path / "killed"), coalesce)
    try:
        killed.publish_all(before)
        assert killed.call(flush_message())["type"] == "stats"  # a compaction
        killed.publish_all(between)
    finally:
        killed.kill()
    restarted = ServiceProcess(str(tmp_path / "killed"), coalesce)
    try:
        restarted.publish_all(after)
        got = restarted.snapshots()
    finally:
        restarted.kill()

    reference = ServiceProcess(str(tmp_path / "reference"), coalesce)
    try:
        reference.publish_all(stream)
        expected = reference.snapshots()
    finally:
        reference.kill()

    sums = exact_sums(stream)
    for fp in FPS:
        edges = {(e["caller"], e["pc"], e["callee"]): e["weight"] for e in got[fp]["edges"]}
        assert edges == sums[fp], fp
        assert got[fp] == expected[fp], fp
        runs = {run_id for f, _, _, _, run_id in stream if f == fp}
        assert got[fp]["fleet"]["runs"] == len(runs), fp


def test_flush_leaves_current_snapshots_and_no_log(tmp_path):
    root = tmp_path / "repo"
    service = ServiceProcess(str(root), coalesce=True)
    try:
        service.publish_all(delta_stream(5, 12))
        service.call(flush_message())
        served = service.snapshots()
    finally:
        service.kill()
    for fp in FPS:
        assert not (root / f"{fp}.log").exists()
        on_disk = (root / f"{fp}.json").read_bytes()
        assert on_disk == json.dumps(served[fp], separators=(",", ":")).encode()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sigterm_stops_serve_cleanly(tmp_path, workers):
    """``kill`` (SIGTERM) is a clean stop: the logs compact into snapshots."""
    root = tmp_path / "repo"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--root", str(root),
         "--workers", workers],
        stderr=subprocess.PIPE,
        text=True,
        env=service_env(),
        start_new_session=True,
    )
    try:
        line = process.stderr.readline()
        host, port = line.split(" on ")[1].split()[0].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            for fp in FPS:
                send_message(sock, publish_message(fp, [["main", 0, "A.f", 3.0]], "r1"))
                assert recv_message(sock)["type"] == "ack"
        process.send_signal(signal.SIGTERM)
        assert process.wait(30) == 0
        assert "stopped" in process.stderr.read()
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        process.stderr.close()
    for fp in FPS:
        assert not (root / f"{fp}.log").exists()
        snapshot = json.loads((root / f"{fp}.json").read_text())
        assert snapshot["fleet"]["total_weight"] == 3.0


# -- repository -----------------------------------------------------------------------


def make_aggregate(stream, fp=FPS[0]) -> AggregateProfile:
    aggregate = AggregateProfile(fp)
    for f, edges, receivers, paths, run_id in stream:
        if f == fp:
            aggregate.merge_delta(edges, run_id=run_id, receivers=receivers, paths=paths)
    return aggregate


def log_stream(repo: ProfileRepository, stream, fp=FPS[0]) -> list:
    logged = [delta for delta in stream if delta[0] == fp]
    for _, edges, receivers, paths, run_id in logged:
        repo.append(fp, 0, run_id, edges, receivers, paths)
    return logged


def test_stored_snapshot_is_one_shot_encoding_of_to_dict(tmp_path):
    aggregate = make_aggregate(delta_stream(2, 30))
    path = ProfileRepository(str(tmp_path)).store(aggregate)
    with open(path, "rb") as handle:
        stored = handle.read()
    assert stored == json.dumps(aggregate.to_dict(), separators=(",", ":")).encode()


def test_load_replays_the_log_onto_the_snapshot(tmp_path):
    stream = delta_stream(3, 40)
    repo = ProfileRepository(str(tmp_path))
    logged = log_stream(repo, stream[:20])
    repo.store(make_aggregate(logged))
    logged += log_stream(repo, stream[20:])
    loaded = ProfileRepository(str(tmp_path)).load(FPS[0])
    assert loaded.to_dict() == make_aggregate(logged).to_dict()
    assert repo.fingerprints() == [FPS[0]]


def test_torn_tail_is_dropped_and_overwritten(tmp_path):
    stream = [delta for delta in delta_stream(4, 40) if delta[0] == FPS[0]]
    repo = ProfileRepository(str(tmp_path))
    log_stream(repo, stream[:4])
    path = repo.log_path(FPS[0])
    size = os.path.getsize(path)
    log_stream(repo, stream[4:5])
    os.truncate(path, size + (os.path.getsize(path) - size) // 2)

    reopened = ProfileRepository(str(tmp_path))
    assert reopened.load(FPS[0]).to_dict() == make_aggregate(stream[:4]).to_dict()
    # The next append cuts the torn record off instead of gluing to it.
    log_stream(reopened, stream[5:7])
    expected = make_aggregate(stream[:4] + stream[5:7]).to_dict()
    assert ProfileRepository(str(tmp_path)).load(FPS[0]).to_dict() == expected


def test_compaction_crash_before_retiring_the_log_counts_once(tmp_path):
    stream = [delta for delta in delta_stream(6, 60) if delta[0] == FPS[0]]
    root = str(tmp_path)
    repo = ProfileRepository(root)
    log_stream(repo, stream[:6])
    repo.store(make_aggregate(stream[:6]))
    log_stream(repo, stream[6:12])
    # Crash after the snapshot (and, separately, after the run ids) were
    # replaced but before the log was retired: keep the old files.
    for survivors in ((".log", ".runs"), (".log",)):
        crash = tmp_path / "crash"
        shutil.rmtree(crash, ignore_errors=True)
        shutil.copytree(root, crash)
        kept = {ext: (crash / (FPS[0] + ext)).read_bytes() for ext in survivors}
        ProfileRepository(str(crash)).store(make_aggregate(stream[:12]))
        for ext, data in kept.items():
            (crash / (FPS[0] + ext)).write_bytes(data)

        reopened = ProfileRepository(str(crash))
        assert reopened.load(FPS[0]).to_dict() == make_aggregate(stream[:12]).to_dict()
        # Appends after the crash continue the sequence and fold in once.
        log_stream(reopened, stream[12:])
        loaded = ProfileRepository(str(crash)).load(FPS[0])
        assert loaded.to_dict() == make_aggregate(stream).to_dict()


def test_log_outgrowing_its_snapshot_asks_for_compaction(tmp_path, monkeypatch):
    monkeypatch.setattr(repository_module, "COMPACT_MIN_BYTES", 1)
    stream = [delta for delta in delta_stream(8, 1000) if delta[0] == FPS[0]]
    repo = ProfileRepository(str(tmp_path))
    aggregate = make_aggregate(stream[:10])
    log_stream(repo, stream[:10])
    repo.store(aggregate)
    snapshot_bytes = os.path.getsize(repo.path_for(FPS[0]))
    for _, edges, receivers, paths, run_id in stream[10:]:
        aggregate.merge_delta(edges, run_id=run_id, receivers=receivers, paths=paths)
        if repo.append(FPS[0], 0, run_id, edges, receivers, paths):
            break
    else:
        pytest.fail("the log never asked for compaction")
    log_bytes = os.path.getsize(repo.log_path(FPS[0]))
    assert log_bytes > repository_module.COMPACT_RATIO * snapshot_bytes
    repo.store(aggregate)
    assert not os.path.exists(repo.log_path(FPS[0]))
    assert ProfileRepository(str(tmp_path)).load(FPS[0]).to_dict() == aggregate.to_dict()
