"""Real-socket backend tests (skipped where loopback multicast is off).

The framing tests touch no socket; every other test is marked
``realnet``."""

import os
import pickle
import time

import pytest

from repro.sockets import (Kind, Message, multicast_available, pack,
                           run_threads, unpack)
from repro.sockets.framing import HEADER, MAGIC

HAVE_MCAST = multicast_available()


def needs_mcast(test):
    """Mark a test ``realnet``; skip it without loopback multicast."""
    test = pytest.mark.skipif(
        not HAVE_MCAST, reason="UDP multicast on loopback unavailable")(test)
    return pytest.mark.realnet(test)


# ---------------------------------------------------------------- framing
def test_framing_roundtrip():
    msg = Message(kind=Kind.P2P, ctx=3, src=2, tag=-17,
                  payload={"a": [1, 2, 3]})
    assert unpack(pack(msg)) == msg


def test_framing_rejects_garbage():
    with pytest.raises(ValueError):
        unpack(b"\x00\x01")
    with pytest.raises(ValueError):
        unpack(b"\xff" * 32)


def _datagram(body: bytes) -> bytes:
    return HEADER.pack(MAGIC, Kind.P2P, 0, 1, 7) + body


class _RunsCode:
    """A payload whose unpickling would call ``os.system``."""

    def __reduce__(self):
        return (os.system, ("exit 3",))


def test_framing_refuses_code_in_payload(monkeypatch):
    calls = []
    monkeypatch.setattr(os, "system", calls.append)
    raw = _datagram(pickle.dumps(_RunsCode()))
    with pytest.raises(ValueError, match="refused"):
        unpack(raw)
    assert calls == []


def test_framing_refuses_any_global():
    raw = _datagram(pickle.dumps(Message(Kind.P2P, 0, 0, 0, None)))
    with pytest.raises(ValueError, match="refused"):
        unpack(raw)


@pytest.mark.parametrize("body", [
    pickle.dumps({"a": [1, 2, 3]})[:-3],        # truncated
    b"\x80\x05garbage",                         # not a pickle
    b"",                                         # header only
], ids=["truncated", "not-a-pickle", "empty"])
def test_framing_truncated_or_garbage_body_is_value_error(body):
    with pytest.raises(ValueError, match="undecodable"):
        unpack(_datagram(body))


def test_framing_roundtrips_builtin_payloads():
    payload = {"s": "x", "b": b"\x00\x01", "i": -3, "f": 1.5, "n": None,
               "l": [1, (2, 3)], "set": {4, 5}}
    msg = Message(kind=Kind.MDATA, ctx=1, src=0, tag=2, payload=payload)
    assert unpack(pack(msg)) == msg


def test_framing_rejects_oversize():
    msg = Message(kind=Kind.MDATA, ctx=0, src=0, tag=1,
                  payload=b"x" * 100_000)
    with pytest.raises(ValueError, match="too large"):
        pack(msg)


# ---------------------------------------------------------------- p2p
@needs_mcast
def test_real_send_recv():
    def body(comm):
        if comm.rank == 0:
            comm.send({"n": 41}, dest=1, tag=9)
            return comm.recv(source=1, tag=10)
        data = comm.recv(source=0, tag=9)
        comm.send(data["n"] + 1, dest=0, tag=10)
        return None

    results = run_threads(2, body)
    assert results[0] == 42


@needs_mcast
def test_real_tag_matching():
    def body(comm):
        if comm.rank == 0:
            comm.send("first", dest=1, tag=1)
            comm.send("second", dest=1, tag=2)
            return None
        two = comm.recv(source=0, tag=2)
        one = comm.recv(source=0, tag=1)
        return (one, two)

    results = run_threads(2, body)
    assert results[1] == ("first", "second")


# ---------------------------------------------------------------- bcast
@pytest.mark.parametrize("impl", ["binary", "linear", "p2p", "ack"])
@needs_mcast
def test_real_bcast_impls(impl):
    def body(comm):
        obj = {"payload": list(range(200))} if comm.rank == 0 else None
        return comm.bcast(obj, root=0, impl=impl)

    n = 5
    results = run_threads(n, body)
    expected = {"payload": list(range(200))}
    assert results == [expected] * n


@pytest.mark.parametrize("impl", ["binary", "linear"])
@needs_mcast
def test_real_bcast_nonzero_root(impl):
    def body(comm):
        obj = f"from-{comm.rank}" if comm.rank == 2 else None
        return comm.bcast(obj, root=2, impl=impl)

    results = run_threads(4, body)
    assert results == ["from-2"] * 4


@needs_mcast
def test_real_bcast_large_payload_single_datagram():
    blob = bytes(range(256)) * 150       # 38.4 kB, one UDP datagram

    def body(comm):
        obj = blob if comm.rank == 0 else None
        data = comm.bcast(obj, root=0, impl="binary")
        return len(data)

    results = run_threads(3, body)
    assert results == [len(blob)] * 3


@needs_mcast
def test_real_bcast_sequence_order_preserved():
    """The paper's §4 scenario on real sockets: successive broadcasts
    from different roots arrive in program order everywhere."""
    roots = [1, 2, 3, 0, 2]

    def body(comm):
        out = []
        for i, root in enumerate(roots):
            obj = (root, i) if comm.rank == root else None
            out.append(comm.bcast(obj, root=root, impl="binary"))
        return out

    results = run_threads(4, body)
    expected = [(root, i) for i, root in enumerate(roots)]
    assert all(r == expected for r in results)


@needs_mcast
def test_real_bcast_many_iterations_no_crosstalk():
    def body(comm):
        acc = []
        for i in range(30):
            obj = i if comm.rank == 0 else None
            acc.append(comm.bcast(obj, root=0, impl="linear"))
        return acc

    results = run_threads(4, body)
    assert all(r == list(range(30)) for r in results)


# ---------------------------------------------------------------- barrier
@pytest.mark.parametrize("impl", ["mcast", "p2p"])
@needs_mcast
def test_real_barrier_synchronizes(impl):
    def body(comm):
        time.sleep(0.01 * comm.rank)       # staggered entry
        entered = time.monotonic()
        comm.barrier(impl=impl)
        left = time.monotonic()
        return (entered, left)

    n = 5
    results = run_threads(n, body)
    last_entry = max(e for e, _l in results)
    for _entered, left in results:
        assert left >= last_entry - 1e-4


@needs_mcast
def test_real_mixed_collectives():
    def body(comm):
        obj = "x" if comm.rank == 0 else None
        a = comm.bcast(obj, root=0, impl="binary")
        comm.barrier(impl="mcast")
        b = comm.allreduce(comm.rank, lambda x, y: x + y)
        comm.barrier(impl="p2p")
        g = comm.gather(comm.rank * 2, root=0)
        return (a, b, g)

    n = 4
    results = run_threads(n, body)
    total = n * (n - 1) // 2
    assert results[0] == ("x", total, [0, 2, 4, 6])
    for r in results[1:]:
        assert r == ("x", total, None)


@needs_mcast
def test_real_reduce_rank_order():
    def body(comm):
        return comm.reduce(str(comm.rank), lambda a, b: a + b, root=0)

    results = run_threads(5, body)
    assert results[0] == "01234"


@needs_mcast
def test_real_invalid_rank_raises():
    def body(comm):
        with pytest.raises(ValueError):
            comm.send("x", dest=99)
        return "ok"

    assert run_threads(2, body) == ["ok", "ok"]
