"""Deterministic byte-stream oracles addressed by structured queries.

Every randomized choice in the cipher is driven by an extendable output
stream keyed on a query.  A query names a domain tag, a round number, the
message width, and the round input (the int whose msg_bits - 1 bits are
its big-endian value), and serializes to a fixed, injective byte layout::

    tag (1 byte) || round (8 bytes, big-endian) || msg_bits (2 bytes,
    big-endian) || round input as a big-endian integer in
    ceil((msg_bits - 1) / 8) bytes

Widths are fixed by the msg_bits field, so distinct queries can never
serialize to the same bytes.  Streams must be prefix-consistent: asking
for n bytes and then n + j bytes returns the same first n bytes.

This module owns the cipher's shape limits: ``_U64_MAX`` bounds every
8-byte field, ``_MAX_MSG_BITS`` the 2-byte width, and ``_MAX_PROBES`` the
probes per round, so that a round's first stream request, 8k + ceil(k / 8)
bytes, is at most 520 KiB.  Every other check (``CipherParams``,
``BigKey``, the CLI's argument ranges) imports them from here.

Two backends are provided.  ``Shake256Oracle`` is the production backend
(SHAKE-256 over the serialized query).  ``ScriptedOracle`` is for tests:
individual queries can be pinned to exact byte scripts, a default script
can blanket everything else, and any query with no script at all falls
back to a seeded pseudorandom stream that is stable across processes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Mapping, Optional, Union

PROBE_TAG = 0x01
KEYGEN_TAG = 0x02

# the query's round field, the key file's N field and the scripted seed
_U64_MAX = 2**64 - 1
# the query's width field
_MAX_MSG_BITS = 2**16 - 1
# probes per round: bounds the bytes one round requests
_MAX_PROBES = 2**16
_HEAD = struct.Struct(">BQH")
_shake = hashlib.shake_256


def encode_query(tag: int, round_index: int, msg_bits: int, r_value: int) -> bytes:
    """The serialized query for a round input given as a big-endian int.

    Unchecked: ``OracleQuery`` validates the fields; this is its encoder.
    """
    return _HEAD.pack(tag, round_index, msg_bits) + r_value.to_bytes(
        (msg_bits - 1 + 7) // 8, "big"
    )


@dataclass(frozen=True)
class OracleQuery:
    """One oracle invocation: (tag, round, msg_bits, round input), with the
    (msg_bits - 1)-bit round input given as the big-endian int it encodes."""

    tag: int
    round: int
    msg_bits: int
    r_value: int

    def __post_init__(self):
        if not 0 <= self.tag <= 0xFF:
            raise ValueError(f"tag {self.tag} out of range 0..255")
        if not 0 <= self.round <= _U64_MAX:
            raise ValueError(f"round {self.round} does not fit in 8 bytes")
        if not 1 <= self.msg_bits <= _MAX_MSG_BITS:
            raise ValueError(
                f"msg_bits {self.msg_bits} out of range 1..{_MAX_MSG_BITS}")
        if not 0 <= self.r_value < 1 << (self.msg_bits - 1):
            raise ValueError(
                f"round input {self.r_value} out of range "
                f"0..2^{self.msg_bits - 1} - 1")

    def to_bytes(self) -> bytes:
        return encode_query(self.tag, self.round, self.msg_bits, self.r_value)


class Oracle:
    """Base class: a distinct-query counter and ``stream``.  Each backend's
    ``stream_bytes`` refuses a negative length, counts the query and streams.

    The counter needs no lock: in CPython, ``set.add`` of a ``bytes`` key and
    ``len`` of a set are each one atomic operation.  With the GIL no Python
    code runs inside them; free-threaded builds give each set its own lock.
    """

    def __init__(self):
        self._seen = set()

    @property
    def query_count(self) -> int:
        """Number of distinct queries streamed so far."""
        return len(self._seen)

    def stream(self, query: OracleQuery, n: int) -> bytes:
        return self.stream_bytes(query.to_bytes(), n)


class Shake256Oracle(Oracle):
    """Production backend: SHAKE-256 XOF over the serialized query."""

    identifier = "shake256"

    def stream_bytes(self, query_bytes: bytes, n: int) -> bytes:
        """``stream`` for a query already serialized with ``to_bytes``."""
        if n < 0:
            raise ValueError("stream length must be nonnegative")
        self._seen.add(query_bytes)
        return _shake(query_bytes).digest(n)


ScriptKey = Union[OracleQuery, bytes]


class ScriptedOracle(Oracle):
    """Test backend with pinned responses.

    ``scripts`` maps individual queries (or their serialized bytes) to
    response bodies; a body shorter than the requested stream is
    zero-extended, so ``b""`` means an all-zero stream.  ``default_script``
    plays the same role for every query without an entry.  Queries with no
    script anywhere get a seeded pseudorandom stream, making a bare
    ``ScriptedOracle(seed=s)`` a deterministic stand-in for a random
    function that is reproducible across processes (unlike ``hash()``).
    """

    def __init__(
        self,
        scripts: Optional[Mapping[ScriptKey, bytes]] = None,
        default_script: Optional[bytes] = None,
        seed: int = 0,
    ):
        super().__init__()
        if not 0 <= seed <= _U64_MAX:
            raise ValueError("seed must fit in 8 bytes")
        self._scripts = {}
        for key, body in (scripts or {}).items():
            kb = key.to_bytes() if isinstance(key, OracleQuery) else bytes(key)
            self._scripts[kb] = bytes(body)
        self._default = None if default_script is None else bytes(default_script)
        self._seed = seed

    def stream_bytes(self, query_bytes: bytes, n: int) -> bytes:
        if n < 0:
            raise ValueError("stream length must be nonnegative")
        self._seen.add(query_bytes)
        body = self._scripts.get(query_bytes, self._default)
        if body is None:
            material = (
                b"bigthorp.scripted\x00"
                + self._seed.to_bytes(8, "big")
                + query_bytes
            )
            return _shake(material).digest(n)
        if n <= len(body):
            return body[:n]
        return body + b"\x00" * (n - len(body))
