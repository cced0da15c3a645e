"""Structured spans: the core of the observability layer.

A :class:`Span` is one timed operation — a calibration phase, an executor
batch, an HTTP request — with monotonic start/end timestamps, free-form
attributes, and identity: a ``trace_id`` shared by every span of one
logical operation, a unique ``span_id``, and the ``parent_id`` of the
enclosing span.  Spans nest via a :mod:`contextvars` stack, so the tree is
correct across threads *and* inside asyncio tasks, and IDs embed the
process id, so traces merged from several processes stay unambiguous.

The :class:`SpanRecorder` is the collection point.  It is **disabled by
default** and the disabled path is a single attribute check returning a
shared no-op span — instrumented code pays (sub-)microseconds when nobody
is tracing.  Some call sites (the HTTP server) need a real span even when
tracing is off, because the span *is* their timer and trace-ID source;
they pass ``force=True`` and the recorder creates the span but does not
retain it.

Typical use::

    from repro import obs

    obs.enable()
    with obs.span("artifact.build", cluster="gros") as sp:
        ...
        sp.set_attr("operations", 2)
    obs.save_trace("build-trace.json")  # chrome://tracing / Perfetto
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from typing import Callable, Iterator

#: Binary salt distinguishing traces from different runner processes that
#: happen to share a pid (containers, pid reuse).
_SALT = os.urandom(3).hex()

_ids = itertools.count(1)

#: The innermost live span of the current thread / asyncio task.
_current: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

# The pid is baked into every id, so cache its formatted forms once per
# process; refreshed after fork so worker processes keep distinct ids.
_PID = os.getpid()
_PID_HEX = f"{_PID:x}"
_TRACE_PREFIX = f"{_SALT}{_PID:08x}"


def _refresh_pid() -> None:
    global _PID, _PID_HEX, _TRACE_PREFIX, _SALT
    _SALT = os.urandom(3).hex()
    _PID = os.getpid()
    _PID_HEX = f"{_PID:x}"
    _TRACE_PREFIX = f"{_SALT}{_PID:08x}"


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_refresh_pid)


def _next_id() -> str:
    """A span id unique across threads and processes: ``<pid>-<n>``."""
    return f"{_PID_HEX}-{next(_ids):x}"


def new_trace_id() -> str:
    """A fresh trace id: salted, process- and counter-unique."""
    return f"{_TRACE_PREFIX}{next(_ids):08x}"


class Span:
    """One timed operation with attributes and trace identity.

    Timestamps come from :func:`time.perf_counter` (monotonic); the wall
    clock of the start is kept separately for log correlation only.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "start_unix",
        "pid",
        "thread_id",
        "thread_name",
        "attributes",
        "_token",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        attributes: dict | None = None,
    ):
        self.name = name
        self.trace_id = trace_id or new_trace_id()
        self.span_id = _next_id()
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self.end: float | None = None
        self.start_unix = time.time()
        self.pid = _PID
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        # The span takes ownership of the dict (recorder.span builds a
        # fresh one from **kwargs); copying here would double the cost of
        # every attributed span.
        self.attributes: dict = attributes if attributes is not None else {}
        self._token = None

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to *now* while the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def set_attr(self, key: str, value) -> None:
        self.attributes[key] = value

    def set_attrs(self, **attributes) -> None:
        self.attributes.update(attributes)

    def to_dict(self) -> dict:
        """JSONL-ready representation (one line per span)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "start_unix": self.start_unix,
            "pid": self.pid,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.duration * 1e3:.3f}ms"
        return f"<Span {self.name!r} {state} trace={self.trace_id[:8]}…>"


class _NullSpan:
    """Shared do-nothing span returned when tracing is disabled.

    Mirrors the :class:`Span` surface that instrumented code touches, so
    call sites never branch on whether tracing is on.
    """

    __slots__ = ()

    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    duration = 0.0
    attributes: dict = {}

    def set_attr(self, key: str, value) -> None:
        pass

    def set_attrs(self, **attributes) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens a :class:`Span` on a recorder."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "SpanRecorder", span: Span):
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        span = self._span
        span._token = _current.set(span)
        # Re-stamp the start so recorder bookkeeping before __enter__ does
        # not count against the span.
        span.start = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, _tb) -> None:
        span = self._span
        span.end = time.perf_counter()
        if exc_type is not None:
            span.attributes.setdefault("error", exc_type.__name__)
        if span._token is not None:
            _current.reset(span._token)
            span._token = None
        self._recorder._finish(span)


class SpanRecorder:
    """Collects finished spans; thread-safe; disabled by default.

    ``enabled`` controls *retention*; finish hooks — e.g. the drift
    loop's query sampler — always run, even for forced spans recorded
    while tracing is off.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[Span] = []
        #: perf_counter origin all exported timestamps are relative to.
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._hooks: list[Callable[[Span], None]] = []

    # -- span creation -----------------------------------------------------

    def span(self, name: str, *, force: bool = False, **attributes):
        """Open a span as a context manager.

        Returns the shared :data:`NULL_SPAN` when tracing is disabled and
        ``force`` is false — the no-tracing fast path.  A forced span is
        always real (it has IDs, duration and runs the finish hooks) but
        is only *retained* while the recorder is enabled.
        """
        if not (self.enabled or force):
            return NULL_SPAN
        parent = _current.get()
        return _SpanContext(
            self,
            Span(
                name,
                trace_id=parent.trace_id if parent is not None else None,
                parent_id=parent.span_id if parent is not None else None,
                attributes=attributes,
            ),
        )

    def current(self) -> Span | None:
        """The innermost live span of this thread/task, if any."""
        return _current.get()

    # -- finish plumbing ---------------------------------------------------

    def _finish(self, span: Span) -> None:
        if self.enabled:
            with self._lock:
                self.spans.append(span)
        for hook in self._hooks:
            try:
                hook(span)
            except Exception:  # noqa: BLE001 — observability must not break work
                pass

    def add_finish_hook(self, hook: Callable[[Span], None]) -> Callable:
        """Run ``hook(span)`` on every finished span; returns the hook."""
        self._hooks.append(hook)
        return hook

    def remove_finish_hook(self, hook: Callable[[Span], None]) -> None:
        try:
            self._hooks.remove(hook)
        except ValueError:
            pass

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> "SpanRecorder":
        """Start retaining spans."""
        self.enabled = True
        self.origin = time.perf_counter()
        return self

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()

    def finished(self) -> list[Span]:
        """Snapshot of the retained spans (oldest first)."""
        with self._lock:
            return list(self.spans)

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.finished())


#: The process-wide recorder the module-level API operates on.
_recorder = SpanRecorder(enabled=False)


def get_recorder() -> SpanRecorder:
    return _recorder


def enable() -> SpanRecorder:
    """Turn span collection on process-wide; returns the recorder."""
    return _recorder.enable()


def disable() -> None:
    _recorder.disable()


def is_enabled() -> bool:
    return _recorder.enabled


def span(name: str, *, force: bool = False, **attributes):
    """Open a span on the process-wide recorder (context manager)."""
    return _recorder.span(name, force=force, **attributes)


def current_span() -> Span | None:
    return _recorder.current()
