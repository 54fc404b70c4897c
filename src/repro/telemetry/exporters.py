"""Trace exporters and the matching loader.

Two on-disk formats, both carrying the same event stream and final
metrics snapshot:

* **JSONL** — one JSON object per line: a header record, one record per
  event, and a trailing metrics record.  Grep/jq-friendly; the native
  format for ``repro-mini report``.
* **Chrome ``trace_event``** — the JSON-object format consumed by
  ``chrome://tracing`` and Perfetto: ``{"traceEvents": [...]}`` with
  window open/close and scopes as ``B``/``E`` duration pairs and
  everything else as instant events.  Timestamps are the VM's virtual
  time passed through as microseconds (the absolute unit is arbitrary;
  only relative placement matters).

``load_trace`` reads either format back into a uniform shape so the
report summarizer doesn't care which one it was handed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

FORMATS = ("jsonl", "chrome")

JSONL_HEADER = {
    "record": "header",
    "format": "repro-telemetry",
    "version": 1,
    "clock": "virtual",
}

#: Chrome trace lanes: one synthetic thread per pipeline layer so the
#: timeline reads top-to-bottom as vm → profiler → adaptive → harness.
_LANES = {
    "timer_tick": (1, "vm"),
    "yieldpoint": (1, "vm"),
    "call": (1, "vm"),
    "window_open": (2, "profiler"),
    "window_close": (2, "profiler"),
    "sample": (2, "profiler"),
    "recompile": (3, "adaptive"),
    "inline_decision": (3, "adaptive"),
    "scope_begin": (4, "harness"),
    "scope_end": (4, "harness"),
    "fleet_publish": (5, "fleet"),
    "fleet_merge": (5, "fleet"),
    "warm_start": (5, "fleet"),
}
_DEFAULT_LANE = (1, "vm")
_PID = 1

#: Chrome flow-event phases for the cross-process publish spans.
_FLOW_PHASES = {"start": "s", "step": "t", "finish": "f"}


def jsonl_lines(tracer) -> list[str]:
    """The trace as JSONL lines (header, events, metrics footer), exactly
    as ``export_jsonl`` would write them.  Finalizes the tracer.

    The in-memory form exists so differential checkers (the fuzzer's
    event-stream invariant) can compare byte-for-byte without a
    round-trip through the filesystem.
    """
    tracer.finalize()
    lines = [json.dumps(JSONL_HEADER)]
    for event in tracer.events:
        record = {"record": "event", "name": event.name, "ts": event.ts}
        args = event.args()
        if args:
            record["args"] = args
        lines.append(json.dumps(record))
    lines.append(
        json.dumps({"record": "metrics", "metrics": tracer.metrics.snapshot()})
    )
    return lines


def export_jsonl(tracer, path: str) -> None:
    """Write the trace as JSON Lines (header, events, metrics footer)."""
    with open(path, "w") as handle:
        for line in jsonl_lines(tracer):
            handle.write(line + "\n")


def chrome_trace_events(tracer) -> list[dict]:
    """The trace as a list of Chrome ``trace_event`` dicts (metadata
    events first, then the event stream)."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro-mini virtual machine"},
        }
    ]
    for tid, lane_name in sorted(set(_LANES.values())):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": lane_name},
            }
        )
    for event in tracer.events:
        tid, _ = _LANES.get(event.name, _DEFAULT_LANE)
        record = {
            "name": event.name,
            "cat": "repro",
            "ph": event.phase,
            "ts": event.ts,
            "pid": _PID,
            "tid": tid,
            "args": event.args(),
        }
        if event.phase == "i":
            record["s"] = "t"  # thread-scoped instant
        events.append(record)
        # Span-carrying fleet events additionally emit a flow record:
        # the client's publish (flow-start) and the server's merge
        # (flow-finish) share a span id, so stitched traces draw one
        # arrow per delta from VM enqueue to aggregate merge.
        span_id = event.span_id
        if span_id is not None and event.flow in _FLOW_PHASES:
            flow = {
                "name": "fleet_delta",
                "cat": "fleet",
                "ph": _FLOW_PHASES[event.flow],
                "id": span_id,
                "ts": event.ts,
                "pid": _PID,
                "tid": tid,
                "args": {"trace_id": event.trace_id},
            }
            if event.flow == "finish":
                flow["bp"] = "e"  # bind to the enclosing slice
            events.append(flow)
    return events


def stitch_chrome_traces(*documents: dict, names=None) -> dict:
    """Merge Chrome trace documents from different processes into one.

    Each document gets its own ``pid`` (1, 2, ...) and, when ``names``
    is given, a rewritten ``process_name`` metadata record, so a
    client's trace and the fleet service's trace of the same publishes
    load as one timeline — the shared flow ids connect the
    ``fleet_publish`` and ``fleet_merge`` slices across processes.
    """
    merged: list[dict] = []
    for index, document in enumerate(documents):
        pid = index + 1
        name = names[index] if names else None
        for record in document.get("traceEvents", []):
            record = dict(record)
            record["pid"] = pid
            if (
                name is not None
                and record.get("ph") == "M"
                and record.get("name") == "process_name"
            ):
                record["args"] = {"name": name}
            merged.append(record)
    return {
        "traceEvents": merged,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro-mini telemetry (stitched)"},
    }


def export_chrome(tracer, path: str) -> None:
    """Write the trace in Chrome ``trace_event`` JSON-object format."""
    tracer.finalize()
    document = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "virtual",
            "producer": "repro-mini telemetry",
            "metrics": tracer.metrics.snapshot(),
        },
    }
    # One-shot json.dumps uses the C encoder; json.dump streams through
    # the pure-Python one.  The bytes are the same.
    with open(path, "w") as handle:
        handle.write(json.dumps(document))


def export(tracer, path: str, format: str = "jsonl") -> None:
    if format == "jsonl":
        export_jsonl(tracer, path)
    elif format == "chrome":
        export_chrome(tracer, path)
    else:
        raise ValueError(f"unknown trace format {format!r} (choose from {FORMATS})")


# -- loading ------------------------------------------------------------------------


class TraceFormatError(ValueError):
    """The file is not a recognizable telemetry trace."""


@dataclass
class LoadedTrace:
    """Uniform in-memory view of a trace file, whichever format."""

    format: str
    events: list[dict] = field(default_factory=list)  # {"name", "ts", "args"}
    metrics: dict = field(default_factory=dict)

    def counts_by_event(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event["name"]] = counts.get(event["name"], 0) + 1
        return counts


def _load_jsonl(lines: list[str]) -> LoadedTrace:
    trace = LoadedTrace(format="jsonl")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceFormatError(
                f"line {lineno}: truncated or corrupt record ({error.msg})"
            )
        if not isinstance(record, dict):
            raise TraceFormatError(f"line {lineno}: record is not a JSON object")
        kind = record.get("record")
        if kind == "event":
            try:
                trace.events.append(
                    {
                        "name": record["name"],
                        "ts": record["ts"],
                        "args": record.get("args", {}),
                    }
                )
            except KeyError as error:
                raise TraceFormatError(
                    f"line {lineno}: event record missing {error} field"
                )
        elif kind == "metrics":
            trace.metrics = record.get("metrics", {})
    return trace


def _load_chrome(document: dict) -> LoadedTrace:
    trace = LoadedTrace(format="chrome")
    for record in document.get("traceEvents", []):
        if record.get("ph") in ("M", "s", "t", "f"):
            continue  # metadata and flow decoration, not the event stream
        trace.events.append(
            {
                "name": record["name"],
                "ts": record.get("ts", 0),
                "args": record.get("args", {}),
            }
        )
    trace.metrics = document.get("otherData", {}).get("metrics", {})
    return trace


def load_trace(path: str) -> LoadedTrace:
    """Read a trace file (auto-detecting JSONL vs. Chrome format)."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise TraceFormatError(f"cannot read trace {path}: {error}")
    stripped = text.lstrip()
    if not stripped:
        raise TraceFormatError(f"{path}: empty file")
    if stripped.startswith("{"):
        try:
            first = json.loads(stripped.splitlines()[0])
        except json.JSONDecodeError:
            first = None
        if isinstance(first, dict) and first.get("format") == "repro-telemetry":
            try:
                return _load_jsonl(text.splitlines())
            except TraceFormatError as error:
                raise TraceFormatError(f"{path}: {error}")
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise TraceFormatError(f"{path}: not valid JSON ({error})")
        if "traceEvents" not in document:
            raise TraceFormatError(f"{path}: JSON object without 'traceEvents'")
        return _load_chrome(document)
    raise TraceFormatError(f"{path}: unrecognized trace format")
