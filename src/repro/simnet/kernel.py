"""Discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy, specialised for the
needs of a network simulator:

* the clock is a ``float`` in **microseconds** (see :mod:`repro.simnet.units`);
* simulated activities are plain Python **generators** that ``yield``
  :class:`Event` objects and are resumed with the event's value;
* ties in the event heap are broken by insertion order, so runs are fully
  deterministic for a fixed seed.

Typical use::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(5.0)          # sleep 5 µs
        ev = sim.event()
        sim.schedule_call(1.0, ev.succeed, "ping")
        msg = yield ev                  # blocks until ev fires
        return msg

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "ping"

The kernel also detects **deadlock**: if :meth:`Simulator.run` exhausts the
event heap while processes are still suspended, it raises
:class:`DeadlockError` naming them — invaluable when debugging MPI programs
whose ranks wait on messages that never arrive.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "SimError",
    "DeadlockError",
    "Interrupt",
]


class SimError(Exception):
    """Base class for simulator errors."""


class DeadlockError(SimError):
    """Raised when the event heap drains while processes are still blocked."""

    def __init__(self, processes: list["Process"]):
        self.processes = processes
        # sorted: the live set iterates in id order, which is not
        # deterministic — the message is part of the replay contract
        names = ", ".join(sorted(p.name for p in processes))
        super().__init__(
            f"simulation deadlock: {len(processes)} process(es) still "
            f"suspended with no pending events: {names}"
        )


class Interrupt(SimError):
    """Thrown *into* a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        self.cause = cause
        super().__init__(f"process interrupted (cause={cause!r})")


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` is called;
    its callbacks then run at the current simulation time (or, for events
    scheduled with a delay, at their due time).  Triggering twice is an
    error — it almost always indicates a protocol bug in the caller.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (callbacks may not have run yet)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have been dispatched."""
        return self._processed

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimError("event value read before the event triggered")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay`` µs."""
        if self._triggered:
            raise SimError(f"event {self!r} triggered twice")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim._push(delay, self)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters have ``exc`` raised in them."""
        if self._triggered:
            raise SimError(f"event {self!r} triggered twice")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._value = exc
        self._ok = False
        self.sim._push(delay, self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` µs after creation.

    Timers are the single most common event in a protocol simulation, so
    the constructor writes the slots directly (born triggered, one heap
    push) instead of going through ``Event.__init__`` + ``succeed``.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        sim._push(delay, self)


class _Call:
    """A lightweight scheduled-callback heap record.

    :meth:`Simulator.schedule_call` used to allocate a full :class:`Event`
    plus a closure per call; since nothing ever waits on those events, the
    kernel now pushes one of these two-slot records instead.  The record
    rides the same ``(due, seq)`` heap as real events, so tie-breaking by
    insertion order — the determinism contract — is unchanged.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable, args: tuple):
        self.fn = fn
        self.args = args

    def _dispatch(self) -> None:
        self.fn(*self.args)


class Process(Event):
    """Wraps a generator; the process *is* an event that fires on return.

    Yield semantics inside the generator:

    * ``yield event`` — suspend until ``event`` fires; the ``yield``
      expression evaluates to the event's value (or raises, if it failed).
    * ``return x`` — terminate; the process-event succeeds with ``x``.
    * an uncaught exception fails the process-event, propagating to any
      process joined on it (and to :meth:`Simulator.run` if nobody is).
    """

    __slots__ = ("gen", "name", "daemon", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "",
                 daemon: bool = False):
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", None) or repr(gen)
        self.daemon = daemon
        self._waiting_on: Optional[Event] = None
        # Bootstrap: start the generator at the current simulation time.
        sim.schedule_call(0.0, self._boot)
        sim._live_processes.add(self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimError(f"cannot interrupt finished process {self.name}")
        target = self._waiting_on
        if target is not None and not target.triggered:
            # Detach from the event we were waiting on: drop our stale
            # _resume callback so a long-lived event the process abandons
            # does not accumulate dead waiters.  (The event may still fire
            # later; the _resume staleness guard would ignore it, but the
            # reference would otherwise pin this process until then.)
            callbacks = target.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume)
                except ValueError:
                    pass
        self.sim.schedule_call(0.0, self._throw, Interrupt(cause))

    # -- internal ------------------------------------------------------
    def _boot(self) -> None:
        if not self._triggered:
            self._step(self.gen.send, None)

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return  # already finished (e.g. interrupted while waiting)
        if self._waiting_on is not None and event is not self._waiting_on:
            return  # stale wakeup from an event we abandoned via interrupt
        self._waiting_on = None
        if event._ok:
            self._step(self.gen.send, event._value)
        else:
            self._step(self.gen.throw, event._value)

    def _throw(self, exc: BaseException) -> None:
        if self._triggered:
            return
        self._waiting_on = None
        self._step(self.gen.throw, exc)

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        sim = self.sim
        prev = sim.active_process
        sim.active_process = self
        try:
            target = advance(arg)
        except StopIteration as stop:
            sim._live_processes.discard(self)
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._live_processes.discard(self)
            sim._crashed.append((self, exc))
            self.fail(exc)
            return
        finally:
            sim.active_process = prev
        if not isinstance(target, Event):
            err = SimError(
                f"process {self.name} yielded {target!r}; processes must "
                f"yield Event instances (did you forget 'yield from'?)"
            )
            sim._live_processes.discard(self)
            sim._crashed.append((self, err))
            self.fail(err)
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_n_needed", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event], n_needed: int):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise ValueError("condition requires at least one event")
        self._n_needed = min(n_needed, len(self.events))
        self._n_done = 0
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev._value)
            return
        self._n_done += 1
        if self._n_done >= self._n_needed:
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count: a Timeout is "triggered" from
        # birth (its value is known), but it has not happened until its
        # due time passes and callbacks run.
        return {ev: ev._value for ev in self.events
                if ev.processed and ev.ok}


class AnyOf(_Condition):
    """Fires when *any* of the given events fires; value = {event: value}."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, n_needed=1)


class AllOf(_Condition):
    """Fires when *all* of the given events have fired."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        evs = list(events)
        super().__init__(sim, evs, n_needed=len(evs))


class Simulator:
    """The event loop: ``(due_time, seq, record)`` triples, heap + now-queue.

    Records are :class:`Event` instances or the lightweight :class:`_Call`
    callback records.  Two structures hold them:

    * ``_heap`` — the classic binary heap, for records due in the future;
    * ``_nowq`` — a FIFO for records scheduled with **zero delay**.  The
      global ``_seq`` counter makes the queue sorted by ``(due, seq)`` by
      construction (appends happen at the current time with increasing
      seq), so the dispatcher merges the two structures by comparing heads
      — exactly the ``(due, seq)`` order a single heap would produce, at
      O(1) per zero-delay record instead of O(log n) heap churn.  Since
      most records in a protocol simulation fire "now" (succeed(),
      same-instant callbacks), this is the same-timestamp batch-pop that
      makes thousand-host fabrics tractable.

    Determinism contract: ties at one timestamp dispatch in insertion
    order, identical to the historical single-heap kernel.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Any]] = []
        self._nowq: deque[tuple[float, int, Any]] = deque()
        self._seq = 0
        self.active_process: Optional[Process] = None
        self._live_processes: set[Process] = set()
        self._crashed: list[tuple[Process, BaseException]] = []
        #: high-water mark of pending records (heap + now-queue) — the
        #: kernel's working-set size, recorded by the sim-throughput area
        self.peak_live: int = 0

    @property
    def processed(self) -> int:
        """Records dispatched over the simulator's lifetime (the
        denominator-free half of the events/sec throughput metric).

        Every record is numbered by ``_seq`` when scheduled and leaves
        the queues only by being dispatched, so the count is scheduled
        minus pending: exact at any moment, also from inside a dispatch
        (which counts the record being dispatched), and free of any
        per-record bookkeeping on the hot loop."""
        return self._seq - len(self._heap) - len(self._nowq)

    # -- event factories ------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` µs from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "",
                daemon: bool = False) -> Process:
        """Start ``gen`` as a simulated process; returns its Process event.

        ``daemon=True`` marks background engines (e.g. MPI progress loops)
        that legitimately outlive the workload: they do not trigger
        :class:`DeadlockError` when the heap drains.
        """
        return Process(self, gen, name, daemon=daemon)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def schedule_call(self, delay: float, fn: Callable, *args: Any) -> None:
        """Call ``fn(*args)`` after ``delay`` µs.

        The hot path of every frame hop: pushes a two-slot :class:`_Call`
        record instead of allocating an :class:`Event` plus a closure.
        Nothing can wait on the record, so nothing is returned.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        if delay == 0.0:
            self._nowq.append((self.now, self._seq, _Call(fn, args)))
        else:
            heapq.heappush(self._heap,
                           (self.now + delay, self._seq, _Call(fn, args)))
        live = len(self._heap) + len(self._nowq)
        if live > self.peak_live:
            self.peak_live = live

    # -- scheduling internals --------------------------------------------
    def _push(self, delay: float, event: Event) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        if delay == 0.0:
            self._nowq.append((self.now, self._seq, event))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, event))
        live = len(self._heap) + len(self._nowq)
        if live > self.peak_live:
            self.peak_live = live

    # -- main loop --------------------------------------------------------
    def step(self) -> None:
        """Process exactly one record, in global ``(due, seq)`` order."""
        nowq = self._nowq
        heap = self._heap
        if nowq and (not heap or nowq[0] < heap[0]):
            due, _seq, event = nowq.popleft()
        else:
            due, _seq, event = heapq.heappop(heap)
        self.now = due
        event._dispatch()

    def peek(self) -> float:
        """Due time of the next record, or +inf if nothing is pending."""
        if self._nowq:
            if self._heap and self._heap[0] < self._nowq[0]:
                return self._heap[0][0]
            return self._nowq[0][0]
        return self._heap[0][0] if self._heap else float("inf")

    def process_snapshot(self) -> list:
        """Deterministic view of the live processes (hang diagnostics).

        Sorted by process name; each entry is ``(name, daemon, waiting)``
        where ``waiting`` names what the process is parked on (the class
        of its wait target, plus whether that target already triggered)
        or ``"runnable"`` when it is not waiting on any event.  Never on
        the dispatch path — only readers like the flight recorder's hang
        dump call it.
        """
        out = []
        for proc in sorted(self._live_processes, key=lambda p: p.name):
            target = proc._waiting_on
            if target is None:
                waiting = "runnable"
            else:
                waiting = type(target).__name__
                if target._triggered:
                    waiting += "(triggered)"
            out.append((proc.name, proc.daemon, waiting))
        return out

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queues drain or the clock passes ``until``.

        Returns the final clock value.  Raises :class:`DeadlockError` if
        the queues drain with live processes remaining, and re-raises the
        first uncaught exception from any process that nothing joined on.

        The loop merges ``_nowq`` and ``_heap`` inline (head comparison
        per record) rather than calling :meth:`step`, so the per-record
        overhead is a tuple compare plus a deque popleft for the
        zero-delay majority.
        """
        heap = self._heap
        nowq = self._nowq
        heappop = heapq.heappop
        crashed = self._crashed
        while heap or nowq:
            if nowq and (not heap or nowq[0] < heap[0]):
                head = nowq[0]
                if until is not None and head[0] > until:
                    self.now = until
                    break
                nowq.popleft()
            else:
                head = heap[0]
                if until is not None and head[0] > until:
                    self.now = until
                    break
                heappop(heap)
            self.now = head[0]
            head[2]._dispatch()
            if crashed:
                proc, exc = crashed[0]
                # A crash is only fatal if nobody is joined on that
                # process (its failure event would otherwise propagate
                # the error).
                if proc.callbacks is not None and not proc.callbacks:
                    crashed.clear()
                    raise exc
                crashed.clear()
        else:
            alive = [p for p in self._live_processes
                     if p.is_alive and not p.daemon]
            if alive and until is None:
                raise DeadlockError(alive)
        return self.now
