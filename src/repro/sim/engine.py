"""A small discrete-event simulation engine built on generator coroutines.

The engine is deliberately minimal: simulated MPI ranks are Python generator
functions that ``yield`` :class:`Future` objects (timeouts, requests, or other
processes) and are resumed when the yielded future completes.  This is the
same execution model as SimPy, re-implemented here so the package needs no
simulation library and so the hot path stays small.

Typical use::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.5)       # advance simulated time
        return "done"

    proc = sim.process(worker(sim), name="worker")
    sim.run()
    assert sim.now == 1.5 and proc.value == "done"

Determinism: events scheduled at the same timestamp fire in scheduling order
(a monotonically increasing sequence number breaks ties), so simulations are
bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.errors import DeadlockError, SimulationError

#: Type of a simulated process body: a generator yielding futures.
SimGen = Generator["Future", Any, Any]


class Future:
    """A one-shot completion token tied to a :class:`Simulator`.

    A future completes at most once, via :meth:`succeed` or :meth:`fail`.
    Callbacks registered with :meth:`add_done_callback` run at the simulated
    time of completion (immediately, if registered after completion).
    """

    __slots__ = ("sim", "_done", "_value", "_exception", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._done = False
        self._value: Any = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[[Future], None]] | None = None

    @property
    def done(self) -> bool:
        """Whether the future has completed (successfully or not)."""
        return self._done

    @property
    def value(self) -> Any:
        """The result; raises if the future failed or is still pending."""
        if not self._done:
            raise SimulationError("future is not done yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Complete the future successfully with ``value``."""
        self._finish(value, None)

    def fail(self, exception: BaseException) -> None:
        """Complete the future with an exception."""
        self._finish(None, exception)

    def _finish(self, value: Any, exception: BaseException | None) -> None:
        if self._done:
            raise SimulationError("future completed twice")
        self._done = True
        self._value = value
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` when done; immediately if already done."""
        if self._done:
            callback(self)
            return
        if self._callbacks is None:
            self._callbacks = []
        self._callbacks.append(callback)

    def remove_done_callback(self, callback: Callable[["Future"], None]) -> None:
        """Detach a pending ``callback``; a no-op if it is not registered.

        Combinators use this to drop their completion hooks from losing
        futures, so a long-lived future does not accumulate one dead
        callback per ``any_of``/``waitany`` it ever participated in.
        """
        if self._callbacks is not None:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass


class Process(Future):
    """A running coroutine; completes with the generator's return value.

    Created via :meth:`Simulator.process`.  A process may be yielded from
    another process to wait for its completion (fork/join).
    """

    __slots__ = ("name", "_generator", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: SimGen, name: str):
        super().__init__(sim)
        self.name = name
        self._generator = generator
        # One reusable bound method: _step suspends tens of thousands of
        # times per simulation, and ``self._resume`` would allocate a fresh
        # bound-method object at each suspension.
        self._resume_cb = self._resume
        sim._live_processes[id(self)] = self
        sim._schedule_at(sim.now, self._start)

    def _start(self) -> None:
        self._step(None, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"<Process {self.name} {state}>"

    def _finish(self, value: Any, exception: BaseException | None) -> None:
        self.sim._live_processes.pop(id(self), None)
        super()._finish(value, exception)

    def _step(self, send_value: Any, throw_exc: BaseException | None) -> None:
        generator = self._generator
        while True:
            try:
                if throw_exc is not None:
                    target = generator.throw(throw_exc)
                else:
                    target = generator.send(send_value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            if not isinstance(target, Future):
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded {target!r}; "
                        "processes must yield Future objects"
                    )
                )
                return
            if target._done:
                # Resume inline so long chains of ready futures do not churn
                # the event heap.
                throw_exc = target._exception
                send_value = None if throw_exc is not None else target._value
                continue
            target.add_done_callback(self._resume_cb)
            return

    def _resume(self, future: Future) -> None:
        self._step(
            None if future._exception is not None else future._value,
            future._exception,
        )


class Simulator:
    """The event loop: a clock plus a priority queue of events.

    Heap entries are ``(when, seq, future, payload)`` tuples: when ``future``
    is ``None`` the payload is a zero-argument callback to invoke; otherwise
    the future is completed with the payload as its value.  Scheduling a
    future directly (the ``timeout``/``at`` hot path — one per simulated
    send, receive and compute call) avoids allocating a closure per event.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Future | None, Any]] = []
        self._sequence = 0
        self._live_processes: dict[int, Process] = {}
        self.events_processed = 0

    # -- scheduling ------------------------------------------------------

    def _schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        if when < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now={self.now}"
            )
        self._sequence += 1
        heapq.heappush(self._heap, (when, self._sequence, None, callback))

    def _schedule_future(self, when: float, future: Future, value: Any) -> None:
        if when < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now={self.now}"
            )
        self._sequence += 1
        heapq.heappush(self._heap, (when, self._sequence, future, value))

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._schedule_at(self.now + delay, callback)

    def timeout(self, delay: float, value: Any = None) -> Future:
        """A future that completes ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        future = Future(self)
        self._schedule_future(self.now + delay, future, value)
        return future

    def at(self, when: float, value: Any = None) -> Future:
        """A future that completes at absolute simulated time ``when``.

        If ``when`` is in the past it completes at the current time instead
        (useful for "data was already delivered" completions).
        """
        future = Future(self)
        self._schedule_future(max(when, self.now), future, value)
        return future

    def process(self, generator: SimGen, name: str | None = None) -> Process:
        """Spawn a coroutine; returns its completion future."""
        if name is None:
            name = getattr(generator, "__name__", "process")
        return Process(self, generator, name)

    # -- combinators -----------------------------------------------------

    def all_of(self, futures: Sequence[Future]) -> Future:
        """A future completing when all ``futures`` complete.

        Its value is the list of the individual values, in order.  The first
        failure propagates.
        """
        futures = list(futures)
        result = Future(self)
        if not futures:
            result.succeed([])
            return result
        remaining = len(futures)

        def on_done(_completed: Future) -> None:
            nonlocal remaining
            if result._done:
                return
            if _completed._exception is not None:
                result.fail(_completed._exception)
                # Detach from the still-pending futures so they do not keep
                # a dead callback alive for the rest of the simulation.
                for future in futures:
                    if not future._done:
                        future.remove_done_callback(on_done)
                return
            remaining -= 1
            if remaining == 0:
                result.succeed([f._value for f in futures])

        for future in futures:
            future.add_done_callback(on_done)
        return result

    def any_of(self, futures: Sequence[Future]) -> Future:
        """A future completing when the first of ``futures`` completes.

        Its value is ``(index, value)`` of the winner.
        """
        futures = list(futures)
        if not futures:
            raise SimulationError("any_of requires at least one future")
        result = Future(self)
        callbacks: list[Callable[[Future], None]] = []

        def make_callback(index: int) -> Callable[[Future], None]:
            def on_done(completed: Future) -> None:
                if result._done:
                    return
                if completed._exception is not None:
                    result.fail(completed._exception)
                else:
                    result.succeed((index, completed._value))
                # The race is decided: detach from every losing future, so
                # repeated waitany over long-lived requests does not grow
                # their callback lists without bound.
                for future, callback in zip(futures, callbacks):
                    if not future._done:
                        future.remove_done_callback(callback)

            return on_done

        for i, future in enumerate(futures):
            callback = make_callback(i)
            callbacks.append(callback)
            future.add_done_callback(callback)
        return result

    # -- execution -------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queue.

        Raises :class:`DeadlockError` if the queue empties while processes
        are still blocked — the simulated analogue of a hung MPI job.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            when, _seq, future, payload = heap[0]
            if until is not None and when > until:
                self.now = until
                return
            heappop(heap)
            self.now = when
            self.events_processed += 1
            if max_events is not None and self.events_processed > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            if future is None:
                payload()
            else:
                future.succeed(payload)
        if until is None and self._live_processes:
            raise DeadlockError([p.name for p in self._live_processes.values()])
        if until is not None and self.now < until:
            self.now = until

    def pending_processes(self) -> list[str]:
        """Names of processes that have not yet completed (for diagnostics)."""
        return [p.name for p in self._live_processes.values()]


def run_to_completion(
    process_bodies: Iterable[SimGen], names: Iterable[str] | None = None
) -> tuple[Simulator, list[Process]]:
    """Convenience: run a set of coroutines in a fresh simulator to the end.

    Returns the simulator (for ``sim.now``) and the completed processes.
    """
    sim = Simulator()
    if names is None:
        processes = [sim.process(body) for body in process_bodies]
    else:
        processes = [
            sim.process(body, name=name)
            for body, name in zip(process_bodies, names, strict=True)
        ]
    sim.run()
    return sim, processes
