"""Huge bit-addressable keys with a versioned on-disk format.

A key is N random bits that may be far too large to hold in memory, so
the bits live in one flat read-only buffer: ``bytes`` for generated keys
and keys loaded ``in_memory``, or a read-only ``mmap`` of the key file for
keys used in place on disk.  A probe costs one byte read from the buffer,
so a round touches at most k key bytes however large the key is, and the
mapping has no shared file position, so threads may share one key.

Key file layout, all integers big-endian::

    magic b"BIGK" | version (1 byte) | id length (1 byte) |
    oracle identifier (ASCII) | N (8 bytes) | ceil(N / 8) key bytes |
    CRC-32 of the header (4 bytes)

Key bits follow the package packing convention (bit i at position
(i - 1) % 8 of byte (i - 1) // 8); when N is not a multiple of 8 the
spare positions of the last byte must be zero.  The embedded oracle
identifier pins which stream backend the key was meant for, and loading
fails closed on a bad magic, an unknown version, a mismatched identifier,
a wrong byte count, dirty padding, or a header checksum mismatch.  The
checksum catches a damaged N that keeps ceil(N / 8), which nothing else
in the file can, so version 1 files, which lack it, raise
``KeyFileVersionError`` like any other version but 2.  Saving writes a
temporary file in the target's directory and renames it over the target,
so a save never truncates a file that a mapped key is still reading.
Another program that truncates a mapped key file in place makes reads past
the new end fault (SIGBUS); this module never does so.
"""

from __future__ import annotations

import mmap
import os
import tempfile
import zlib
from typing import Optional

from .bitstring import BitString
from .oracle import KEYGEN_TAG, Oracle, OracleQuery, Shake256Oracle

MAGIC = b"BIGK"
VERSION = 2

_MIN_BITS = 8
_MAX_BITS = 2**64 - 1
_COPY_CHUNK = 1 << 20


class KeyFileError(Exception):
    """Malformed, truncated or otherwise unusable key file."""


class KeyFileVersionError(KeyFileError):
    """Key file declares a format version this code does not speak."""


class OracleMismatchError(KeyFileError):
    """Key file pins a different oracle backend than the caller expects."""


def seed_randomness(n_bytes: int, seed: int, oracle: Optional[Oracle] = None) -> bytes:
    """Expand a small seed into key material via the key-generation domain.

    This exists so deterministic keys (tests, reproducible CLI runs) come
    from the same oracle family as everything else, under a domain tag that
    the cipher's probe queries never use.
    """
    if oracle is None:
        oracle = Shake256Oracle()
    query = OracleQuery(KEYGEN_TAG, seed, 1, BitString())
    return oracle.stream(query, n_bytes)


def _encode_header(n_bits: int, oracle_id: str) -> bytes:
    ident = oracle_id.encode("ascii")
    if not 1 <= len(ident) <= 255:
        raise ValueError("oracle identifier must be 1..255 ASCII bytes")
    return MAGIC + bytes([VERSION, len(ident)]) + ident + n_bits.to_bytes(8, "big")


def _crc(header: bytes) -> bytes:
    return zlib.crc32(header).to_bytes(4, "big")


class BigKey:
    """An N-bit key in a flat read-only buffer, with probe-local access.

    ``buf`` holds the key bytes from index ``offset`` to its end: ``bytes``,
    a read-only ``mmap``, or anything else with ``len`` and indexing.
    """

    def __init__(self, n_bits: int, buf, oracle_id: str = "shake256",
                 offset: int = 0):
        if not _MIN_BITS <= n_bits <= _MAX_BITS:
            raise ValueError(f"key size {n_bits} out of range {_MIN_BITS}..2^64-1")
        needed = (n_bits + 7) // 8
        if len(buf) - offset != needed:
            raise ValueError(
                f"buffer holds {len(buf) - offset} key bytes, key of {n_bits} "
                f"bits needs {needed}"
            )
        self.n_bits = n_bits
        self.oracle_id = oracle_id
        self._buf = buf
        self._offset = offset

    # -- construction ---------------------------------------------------

    @classmethod
    def generate(cls, n_bits: int, randomness, oracle_id: str = "shake256") -> "BigKey":
        """Fill a key from caller-supplied randomness.

        ``randomness`` is either a bytes-like object of at least
        ceil(n_bits / 8) bytes or a reader with a ``read(n)`` method.  The
        key bits are exactly the supplied bytes under the packing
        convention, except that spare padding positions are zeroed.
        """
        if not _MIN_BITS <= n_bits <= _MAX_BITS:
            raise ValueError(f"key size {n_bits} out of range {_MIN_BITS}..2^64-1")
        needed = (n_bits + 7) // 8
        if hasattr(randomness, "read"):
            randomness = randomness.read(needed)
        data = bytes(randomness)[:needed]
        if len(data) < needed:
            raise ValueError(
                f"insufficient randomness: need {needed} bytes, got {len(data)}"
            )
        if n_bits % 8:
            data = data[:-1] + bytes([data[-1] & ((1 << (n_bits % 8)) - 1)])
        return cls(n_bits, data, oracle_id)

    @classmethod
    def load(
        cls,
        path,
        expected_oracle: Optional[str] = "shake256",
        in_memory: bool = False,
    ) -> "BigKey":
        """Open a key file, validating every header field before use."""
        f = open(path, "rb")
        try:
            magic = f.read(4)
            if magic != MAGIC:
                raise KeyFileError(f"{path}: not a key file (bad magic)")
            vb = f.read(1)
            if len(vb) != 1:
                raise KeyFileError(f"{path}: truncated header")
            if vb[0] != VERSION:
                raise KeyFileVersionError(
                    f"{path}: unsupported key file version {vb[0]}"
                )
            lb = f.read(1)
            if len(lb) != 1:
                raise KeyFileError(f"{path}: truncated header")
            ident_raw = f.read(lb[0])
            if len(ident_raw) != lb[0]:
                raise KeyFileError(f"{path}: truncated header")
            try:
                ident = ident_raw.decode("ascii")
            except UnicodeDecodeError:
                raise KeyFileError(f"{path}: non-ASCII oracle identifier") from None
            nb = f.read(8)
            if len(nb) != 8:
                raise KeyFileError(f"{path}: truncated header")
            n_bits = int.from_bytes(nb, "big")
            if n_bits < _MIN_BITS:
                raise KeyFileError(f"{path}: implausible key size {n_bits}")
            offset = 4 + 1 + 1 + lb[0] + 8
            needed = (n_bits + 7) // 8
            size = os.fstat(f.fileno()).st_size
            if size != offset + needed + 4:
                raise KeyFileError(
                    f"{path}: expected {offset + needed + 4} bytes, "
                    f"file has {size}"
                )
            f.seek(offset + needed)
            if f.read(4) != _crc(magic + vb + lb + ident_raw + nb):
                raise KeyFileError(f"{path}: header checksum mismatch")
            if n_bits % 8:
                f.seek(offset + needed - 1)
                last = f.read(1)[0]
                if last & ~((1 << (n_bits % 8)) - 1):
                    raise KeyFileError(f"{path}: nonzero padding bits")
            if expected_oracle is not None and ident != expected_oracle:
                raise OracleMismatchError(
                    f"{path}: key pins oracle {ident!r}, expected "
                    f"{expected_oracle!r}"
                )
            if in_memory:
                f.seek(offset)
                buf = f.read(needed)
                if len(buf) != needed:
                    raise KeyFileError(f"{path}: short read")
                offset = 0
            else:
                buf = mmap.mmap(f.fileno(), offset + needed,
                                access=mmap.ACCESS_READ)
        finally:
            f.close()
        return cls(n_bits, buf, ident, offset)

    def save(self, path):
        """Write the key file through a temporary file renamed over ``path``.

        ``path`` is never truncated, so saving a lazily loaded key over its
        own file leaves the key usable.  The file is not fsynced.
        """
        folder, name = os.path.split(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=folder)
        try:
            with os.fdopen(fd, "wb") as f:
                header = _encode_header(self.n_bits, self.oracle_id)
                f.write(header)
                for pos in range(self._offset, len(self._buf), _COPY_CHUNK):
                    f.write(self._buf[pos : pos + _COPY_CHUNK])
                f.write(_crc(header))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    # -- access ----------------------------------------------------------

    def get_bit(self, i: int) -> int:
        if not 1 <= i <= self.n_bits:
            raise IndexError(f"key bit index {i} out of range 1..{self.n_bits}")
        return self._buf[self._offset + ((i - 1) >> 3)] >> ((i - 1) & 7) & 1

    def subkey(self, probes) -> BitString:
        """Read the probed bits, in order, repeats included."""
        buf, offset, n = self._buf, self._offset, self.n_bits
        value = length = 0
        for p in probes:
            if not 1 <= p <= n:
                raise IndexError(f"probe {p} out of range 1..{n}")
            value |= (buf[offset + ((p - 1) >> 3)] >> ((p - 1) & 7) & 1) << length
            length += 1
        return BitString._make(length, value)

    def close(self):
        if isinstance(self._buf, mmap.mmap):
            self._buf.close()

    def __enter__(self) -> "BigKey":
        return self

    def __exit__(self, *exc):
        self.close()
        return False
