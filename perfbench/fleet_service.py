"""The fleet-mix service process: ``repro-mini serve``'s default topology
(one process, eager merge, one snapshot written per publish), started
through :func:`repro.fleet.service.run_service`.

    python3 perfbench/fleet_service.py ROOT RESULT_JSON TRACE

Prints ``ready HOST PORT`` once listening.  On SIGTERM it stops the
service and writes RESULT_JSON: peak RSS and, with ``TRACE`` = 1, the
fleet layer's span sums and the share of request time its child spans
cover.  Spans are timed in this thread's CPU time (raw milliseconds):
the service shares one CPU with the load generator, so a span's wall
time would include the time the load generator ran, most of all while
a reply wakes it.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time

from common import SRC, Tracer, peak_rss_mb

sys.path.insert(0, SRC)

#: The request span names, one per message type the load generator sends.
REQUESTS = ("fleet.publish", "fleet.fetch")


def install_trace(tracer: Tracer) -> list:
    """Wrap the fleet layer's public entry points.  A request span runs
    from decoding a message to the end of its reply and is named after
    the message type; its children are the decode, merge, store, load,
    repository listing, snapshot building and reply spans.  Spans nest
    by a single stack, so this is only meaningful with one client
    connection.  Returns the list the stored snapshots' sizes go to."""
    from repro.fleet import protocol, service
    from repro.fleet.merge import AggregateProfile
    from repro.fleet.repository import ProfileRepository

    snapshot_bytes: list[int] = []

    def wrap_decode(decode):
        def traced_decode(payload):
            tracer.op = len(tracer.spans)
            tracer.begin("fleet.request")
            request = tracer.spans[-1]
            tracer.begin("fleet.decode")
            try:
                message = decode(payload)
            except BaseException:
                tracer.end()
                tracer.end()
                tracer.op = None
                raise
            tracer.end()
            request[0] = f"fleet.{message['type']}"
            return message

        return traced_decode

    def wrap_write(write_message):
        async def traced_write(writer, message):
            tracer.begin("fleet.reply")
            try:
                await write_message(writer, message)
            finally:
                tracer.end()
                tracer.end()  # the request span
                tracer.op = None

        return traced_write

    def wrap_store(store):
        def traced_store(repository, aggregate):
            path = tracer.spanned(store, "fleet.store")(repository, aggregate)
            snapshot_bytes.append(os.path.getsize(path))
            return path

        return traced_store

    tracer.patch(protocol, "decode_payload", "fleet.decode", wrap_decode)
    tracer.patch(service, "write_message", "fleet.reply", wrap_write)
    tracer.patch(AggregateProfile, "merge_delta", "fleet.merge")
    tracer.patch(AggregateProfile, "to_dict", "fleet.snapshot")
    tracer.patch(ProfileRepository, "store", "fleet.store", wrap_store)
    tracer.patch(ProfileRepository, "load", "fleet.load")
    tracer.patch(ProfileRepository, "fingerprints", "fleet.list")
    return snapshot_bytes


async def serve(root: str) -> None:
    """Serve until SIGTERM."""
    from repro.fleet.service import run_service

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def ready(address) -> None:
        print(f"ready {address[0]} {address[1]}", flush=True)

    task = asyncio.ensure_future(run_service(root, ready=ready))
    waiter = asyncio.ensure_future(stop.wait())
    await asyncio.wait([task, waiter], return_when=asyncio.FIRST_COMPLETED)
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass
    waiter.cancel()


def main() -> int:
    root, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    tracer = Tracer(clock=time.thread_time_ns) if trace else None
    sizes = install_trace(tracer) if trace else None
    asyncio.run(serve(root))
    result = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.restore()
        result["layers"] = {
            "fleet.decode_ms": tracer.total_ms("fleet.decode"),
            "fleet.merge_ms": tracer.total_ms("fleet.merge"),
            "fleet.merges": tracer.count("fleet.merge"),
            "fleet.store_ms": tracer.total_ms("fleet.store"),
            "fleet.stores": tracer.count("fleet.store"),
            "fleet.snapshot_kb": sum(sizes) / len(sizes) / 1024 if sizes else 0.0,
            "fleet.fetch_ms": tracer.total_ms("fleet.fetch"),
            "fleet.fetches": tracer.count("fleet.fetch"),
        }
        result["coverage"] = tracer.coverage(*REQUESTS)
        tracer.dump(os.path.join(os.path.dirname(result_path), "traces", "fleet-service.json"))
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
