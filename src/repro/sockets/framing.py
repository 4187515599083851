"""Wire format for the real-socket backend.

Every datagram is ``HEADER + pickle(payload)`` where the 12-byte header
is ``(magic, kind, ctx, src_rank, tag_or_seq)``:

* ``magic``  — 2 bytes, guards against stray traffic on reused ports;
* ``kind``   — 1 byte: point-to-point data, scout, ack, multicast data,
  or barrier release;
* ``ctx``    — communicator context (like the simulator's context ids);
* ``src``    — sender rank;
* ``tag``    — MPI tag for p2p, collective sequence number otherwise.

Received bodies are unpickled by :class:`_BuiltinUnpickler`, which
refuses every global lookup: builtin payloads (dict, list, tuple, str,
bytes, int, float, None, set) need none, while a datagram whose pickle
names a class or callable — the way a ``__reduce__`` payload runs code
on the receiver — is rejected like any other foreign traffic.
"""

from __future__ import annotations

import io
import pickle
import struct
from dataclasses import dataclass
from typing import Any

__all__ = ["Kind", "Message", "pack", "unpack", "MAGIC", "HEADER"]

MAGIC = 0x4D43  # "MC"
HEADER = struct.Struct("!HBHHi")

#: maximum UDP payload we ever send (loopback handles 64 KB datagrams)
MAX_DGRAM = 60000


class Kind:
    P2P = 1        #: point-to-point data
    SCOUT = 2      #: scout synchronization message
    ACK = 3        #: ack for reliable multicast
    MDATA = 4      #: multicast broadcast payload
    RELEASE = 5    #: barrier release (data-less multicast)

    ALL = (P2P, SCOUT, ACK, MDATA, RELEASE)


@dataclass(frozen=True)
class Message:
    kind: int
    ctx: int
    src: int
    tag: int       #: MPI tag (p2p) or collective sequence (others)
    payload: Any


def pack(msg: Message) -> bytes:
    """Serialize a message; raises if it exceeds one UDP datagram."""
    body = pickle.dumps(msg.payload, protocol=pickle.HIGHEST_PROTOCOL)
    raw = HEADER.pack(MAGIC, msg.kind, msg.ctx, msg.src, msg.tag) + body
    if len(raw) > MAX_DGRAM:
        raise ValueError(
            f"payload too large for one datagram: {len(raw)} bytes "
            f"(max {MAX_DGRAM}); the real backend does not fragment")
    return raw


class _BuiltinUnpickler(pickle.Unpickler):
    """Unpickler that loads builtin values only: no global lookups."""

    def find_class(self, module, name):
        raise pickle.UnpicklingError(
            f"global {module}.{name} refused in a received datagram")


def unpack(raw: bytes) -> Message:
    """Parse a datagram; raises ValueError for foreign traffic."""
    if len(raw) < HEADER.size:
        raise ValueError(f"short datagram: {len(raw)} bytes")
    magic, kind, ctx, src, tag = HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic:#x}")
    if kind not in Kind.ALL:
        raise ValueError(f"unknown message kind {kind}")
    try:
        payload = _BuiltinUnpickler(io.BytesIO(raw[HEADER.size:])).load()
    except Exception as exc:
        # Truncated, garbage or refused body from the network: pickle
        # documents no closed set of errors for malformed input, and
        # callers drop foreign traffic by catching ValueError.
        raise ValueError(f"undecodable payload: {exc}") from exc
    return Message(kind=kind, ctx=ctx, src=src, tag=tag, payload=payload)
