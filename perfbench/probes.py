"""Timing wrappers around each layer's entry points, for the traced run.

:class:`Probes` rebinds a function wherever a ``repro`` module holds it
(``from x import f`` copies the name into the importer) or replaces a
method on its class, and restores everything on exit.  Each wrapper
counts its calls and charges host time to a *layer* on a span stack:

* ``busy`` — time from the outermost entry into the layer to its exit,
  callees included;
* ``self`` — time in the layer minus the time its instrumented callees
  took.

A generator function is timed per resume: the wrapper drives the inner
generator step by step and charges each step, so a layer's ``busy`` is
host time spent stepping it, not the simulated time it waited.

The wrappers only observe: they return what the wrapped code returns and
pass every value and exception through, so a traced run simulates exactly
what an untraced run does (the benchmark checks this).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

__all__ = ["Probes"]


def _retransmit(args, kwargs) -> bool:
    """The ``retransmit`` flag of a ``McastChannel.send_batch`` call."""
    if "retransmit" in kwargs:
        return bool(kwargs["retransmit"])
    return len(args) > 3 and bool(args[3])


class Probes:
    """Install with ``with Probes() as p:``; read :attr:`calls`,
    :attr:`busy` and :attr:`self_s` afterwards."""

    def __init__(self):
        self.calls: Counter = Counter()       #: wrapper key -> calls
        self.entries: Counter = Counter()     #: layer -> outermost entries
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list = []                # [layer, t0, child_s, outer]
        self._depth: Counter = Counter()
        self._undo: list = []

    # ------------------------------------------------------------ spans
    def _enter(self, layer: str) -> None:
        outer = self._depth[layer] == 0
        self._depth[layer] += 1
        if outer:
            self.entries[layer] += 1
        self._stack.append([layer, perf_counter(), 0.0, outer])

    def _exit(self) -> None:
        layer, t0, child, outer = self._stack.pop()
        dur = perf_counter() - t0
        self._depth[layer] -= 1
        self.self_s[layer] += dur - child
        if outer:
            self.busy[layer] += dur
        if self._stack:
            self._stack[-1][2] += dur

    # --------------------------------------------------------- wrappers
    def timed(self, layer: str, key: str):
        """Decorator: count calls under ``key``, charge time to
        ``layer``."""
        def wrap(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                self.calls[key] += 1
                self._enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit()
            return timed
        return wrap

    def timed_gen(self, layer: str, key: str):
        """:meth:`timed` for a generator function, per resume."""
        def wrap(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                self.calls[key] += 1
                return self._drive(fn(*args, **kwargs), layer)
            return timed
        return wrap

    def counted(self, key: str, flag=None):
        """Decorator: count calls without timing them; ``flag(args,
        kwargs)`` also counts them under ``key:<flag>``."""
        def wrap(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[key] += 1
                if flag is not None:
                    self.calls[f"{key}:{flag(args, kwargs)}"] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    def _drive(self, gen, layer: str):
        """``yield from gen`` with each step charged to ``layer``."""
        value, error = None, None
        while True:
            self._enter(layer)
            try:
                if error is not None:
                    exc, error = error, None
                    target = gen.throw(exc)
                else:
                    target = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit()
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in: forward it
                value, error = None, exc

    # --------------------------------------------------------- patching
    def rebind(self, module, name: str, wrap) -> None:
        """Replace function ``module.name`` in every ``repro`` module
        that holds it."""
        orig = getattr(module, name)
        new = wrap(orig)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and vars(mod).get(name) is orig):
                setattr(mod, name, new)
                self._undo.append((mod, name, orig))

    def replace(self, cls, name: str, wrap) -> None:
        """Replace method ``cls.name``."""
        orig = vars(cls)[name]
        setattr(cls, name, wrap(orig))
        self._undo.append((cls, name, orig))

    def install(self) -> None:
        from repro.analysis import framecount
        from repro.core import channel, rounds
        from repro.mpi import communicator, p2p, world
        from repro.mpi.collective import hier, policy
        from repro.simnet import fabric, kernel, topology, udp

        # set-up: topology, fabric, world, channels, communicator init
        self.rebind(topology, "build_cluster",
                    self.timed("simnet.topology.build_cluster",
                               "build_cluster"))
        self.replace(topology.Cluster, "segment_of",
                     self.timed("simnet.topology", "segment_of"))
        for name in ("parse_topology", "build_fabric", "path_trunk_hops"):
            self.rebind(fabric, name, self.timed("simnet.fabric", name))
        for name, attr in sorted(vars(fabric.Fabric).items()):
            if callable(attr) and (name == "__init__"
                                   or not name.startswith("_")):
                self.replace(fabric.Fabric, name,
                             self.timed("simnet.fabric", f"Fabric.{name}"))
        self.replace(world.MpiWorld, "__init__",
                     self.timed("mpi.world", "MpiWorld.__init__"))
        self.replace(channel.McastChannel, "__init__",
                     self.timed("core.channel", "McastChannel.__init__"))
        self.replace(communicator.Communicator, "_setup",
                     self.timed_gen("mpi.communicator.setup", "setup"))
        self.replace(hier.HierState, "__init__",
                     self.timed("mpi.collective.hier", "HierState"))
        # per call: dispatch, policy, models, p2p, round engine
        self.replace(communicator.Communicator, "_dispatch",
                     self.counted("dispatch"))
        self.rebind(policy, "resolve_auto",
                    self.timed_gen("mpi.collective.policy",
                                   "resolve_auto"))
        for name in framecount.__all__:
            if callable(getattr(framecount, name)):
                self.rebind(framecount, name,
                            self.timed("analysis.framecount", name))
        self.replace(p2p.MpiEndpoint, "isend", self.counted("isend"))
        for name in ("serve_rounds", "follow_rounds"):
            self.rebind(rounds, name, self.timed_gen("core.rounds", name))
        self.replace(channel.McastChannel, "send_batch",
                     self.counted("send_batch", _retransmit))
        # the UDP socket layer: copies arriving, copies accepted
        self.replace(udp.UdpSocket, "_deliver", self.counted("udp.arrive"))
        self.replace(udp.UdpSocket, "_accept", self.counted("udp.accept"))
        self.replace(kernel.Simulator, "run",
                     self.timed("simnet.kernel", "run"))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def __enter__(self) -> "Probes":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
