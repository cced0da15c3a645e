"""Span exporters: JSONL and the Chrome trace-event format.

Two interchange formats cover the consumers we have:

* **JSONL** — one :meth:`Span.to_dict` object per line; trivially
  greppable, streamable, and the format the CI smoke job parses back into
  a span tree (:func:`load_jsonl`, :func:`build_tree`);
* **Chrome trace events** — complete ("X") events grouped by process and
  thread, loadable in ``chrome://tracing`` / Perfetto alongside the
  simulator's message-level traces (:meth:`repro.sim.trace.Tracer`).

:func:`save` dispatches on the file suffix (``.jsonl`` → JSONL, anything
else → Chrome JSON) so CLI plumbing needs a single flag.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.spans import Span, SpanRecorder


def to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line, oldest span first."""
    return "".join(json.dumps(span.to_dict()) + "\n" for span in spans)


def save_jsonl(spans: Iterable[Span], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(to_jsonl(spans))
    return path


def load_jsonl(path: str | Path) -> list[dict]:
    """Parse a JSONL span file back into span dicts (oldest first)."""
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def to_chrome_events(spans: Sequence[Span], origin: float | None = None) -> list[dict]:
    """The spans as Chrome trace-event dicts.

    Each span becomes one complete ("X") event on its ``(pid, thread)``
    row; timestamps are microseconds relative to ``origin`` (defaults to
    the earliest span start, so traces always begin near zero).
    """
    if origin is None:
        origin = min((span.start for span in spans), default=0.0)
    scale = 1e6
    threads: set[tuple[int, int, str]] = set()
    events: list[dict] = []
    for span in spans:
        threads.add((span.pid, span.thread_id, span.thread_name))
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": (span.start - origin) * scale,
            "dur": span.duration * scale,
            "pid": span.pid,
            "tid": span.thread_id,
            "args": dict(
                span.attributes,
                trace_id=span.trace_id,
                span_id=span.span_id,
                parent_id=span.parent_id,
            ),
        })
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": f"repro pid {pid}"},
        }
        for pid in sorted({pid for pid, _, _ in threads})
    ] + [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": name},
        }
        for pid, tid, name in sorted(threads)
    ]
    return meta + events


def to_chrome_json(
    spans: Sequence[Span],
    origin: float | None = None,
    *,
    indent: int | None = None,
) -> str:
    document = {
        "traceEvents": to_chrome_events(spans, origin),
        "displayTimeUnit": "ms",
    }
    return json.dumps(document, indent=indent)


def save_chrome_trace(
    spans: Sequence[Span], path: str | Path, origin: float | None = None
) -> Path:
    path = Path(path)
    path.write_text(to_chrome_json(spans, origin, indent=1) + "\n")
    return path


def save(recorder: SpanRecorder, path: str | Path) -> Path:
    """Write a recorder's spans; format chosen by suffix.

    ``*.jsonl`` → JSONL, anything else → Chrome trace JSON.
    """
    path = Path(path)
    spans = recorder.finished()
    if path.suffix == ".jsonl":
        return save_jsonl(spans, path)
    return save_chrome_trace(spans, path, origin=recorder.origin)


def build_tree(records: Sequence[dict]) -> list[dict]:
    """Nest span dicts (from :func:`load_jsonl` or ``to_dict``) by parent.

    Returns the roots; every node gains a ``"children"`` list.  Orphans
    (parent not in the record set — e.g. the parent was still open when
    the trace was saved) are promoted to roots rather than dropped.
    """
    by_id = {record["span_id"]: dict(record, children=[]) for record in records}
    roots: list[dict] = []
    for record in by_id.values():
        parent = by_id.get(record.get("parent_id") or "")
        if parent is not None:
            parent["children"].append(record)
        else:
            roots.append(record)
    return roots


def span_names(records: Sequence[dict]) -> set[str]:
    """All distinct span names in a record set (tree-coverage checks)."""
    return {record["name"] for record in records}


def load_chrome_trace(path: str | Path) -> list[dict]:
    """Read a Chrome trace written by :func:`save_chrome_trace`.

    Returns the non-metadata ("X") events as span-like dicts with
    ``name``/``span_id``/``parent_id`` restored from ``args``, so
    :func:`build_tree` works on either export format.
    """
    document = json.loads(Path(path).read_text())
    records = []
    for event in document["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        records.append({
            "name": event["name"],
            "span_id": args.get("span_id"),
            "parent_id": args.get("parent_id"),
            "trace_id": args.get("trace_id"),
            "start": event["ts"] / 1e6,
            "duration": event["dur"] / 1e6,
            "pid": event["pid"],
            "thread_id": event["tid"],
            "attributes": {
                key: value
                for key, value in args.items()
                if key not in ("span_id", "parent_id", "trace_id")
            },
        })
    return records
