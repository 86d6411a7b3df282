"""Huge bit-addressable keys with a versioned on-disk format.

A key is N random bits that may be far too large to hold in memory, so
the bits live in one flat read-only buffer that holds exactly the
ceil(N / 8) key bytes: ``bytes`` for generated keys and keys loaded
``in_memory``, or a read-only ``memoryview`` of the key bytes in an
``mmap`` of the key file for keys used in place on disk.  Bit i is in
byte (i - 1) // 8 of the buffer; only this module and the cipher kernels
of ``thorp`` read the buffer.  A probe costs one byte read from it,
so a round touches at most k key bytes however large the key is, and the
mapping has no shared file position, so threads may share one key.

Key file layout, all integers big-endian::

    magic b"BIGK" | version (1 byte) | id length (1 byte) |
    oracle identifier (ASCII) | N (8 bytes) | ceil(N / 8) key bytes |
    CRC-32 of the header (4 bytes)

Key bits follow the package packing convention (bit i at position
(i - 1) % 8 of byte (i - 1) // 8), as do the ints ``subkey`` returns
(probe j at bit j - 1); when N is not a multiple of 8 the spare
positions of the last byte must be zero, in a file and in a ``BigKey``.
The oracle identifier is always ``shake256``, the one stream backend the
cipher runs on.  Loading fails closed on a bad magic, an unknown version,
any other identifier, a wrong byte count, dirty padding, or a header
checksum mismatch.  The checksum catches a damaged N that keeps
ceil(N / 8), which nothing else in the file can, so version 1 files,
which lack it, raise ``KeyFileVersionError`` like any other version but
2.  Loading reads the
header and the last 5 bytes (last key byte and checksum), so it costs the
same at any N; only a key loaded ``in_memory`` reads the body.  A mapped
key is advised ``MADV_RANDOM`` where ``mmap`` offers it.  Probes land on
random pages, and default readahead reads up to megabytes around each
one; on a key larger than RAM that evicts the pages other probes just
faulted in.  With 8 MiB readahead, one block at m = k = 64 on a sparse
2^40-bit key took 16-20 s with default advice and about 30 ms with
``MADV_RANDOM``.  Saving writes a temporary file in the target's
directory and renames it over the target, so a save never truncates a
file that a mapped key is still reading.  Another program that
truncates a mapped key file in place makes reads past the new end fault
(SIGBUS); this module never does so.
"""

from __future__ import annotations

import mmap
import os
import tempfile
import zlib

from .oracle import _U64_MAX, KEYGEN_TAG, OracleQuery, Shake256Oracle

MAGIC = b"BIGK"
VERSION = 2

_MIN_BITS = 8
_COPY_CHUNK = 1 << 20
_HEAD_MAX = 4 + 1 + 1 + 255 + 8


class KeyFileError(Exception):
    """Malformed, truncated or otherwise unusable key file."""


class KeyFileVersionError(KeyFileError):
    """Key file declares a format version this code does not speak."""


class OracleMismatchError(KeyFileError):
    """Key file names an oracle backend other than ``shake256``."""


def seed_randomness(n_bytes: int, seed: int) -> bytes:
    """Expand a small seed into key material via the key-generation domain.

    This exists so deterministic keys (tests, reproducible CLI runs) come
    from the same oracle family as everything else, under a domain tag that
    the cipher's probe queries never use.
    """
    query = OracleQuery(KEYGEN_TAG, seed, 1, 0)
    return Shake256Oracle().stream(query, n_bytes)


def _encode_header(n_bits: int) -> bytes:
    ident = Shake256Oracle.identifier.encode("ascii")
    return MAGIC + bytes([VERSION, len(ident)]) + ident + n_bits.to_bytes(8, "big")


def _crc(header: bytes) -> bytes:
    return zlib.crc32(header).to_bytes(4, "big")


def _decode(head: bytes, tail: bytes, size: int):
    """Check a key file from its first ``_HEAD_MAX`` bytes (fewer if it is
    shorter), its last 5 bytes and its size, without I/O; the inverse of
    ``_encode_header`` plus the trailer.  Returns (oracle identifier,
    n_bits, offset), where the key bytes start at ``offset`` in the file."""
    if head[:4] != MAGIC:
        raise KeyFileError("not a key file (bad magic)")
    if len(head) < 5:
        raise KeyFileError("truncated header")
    if head[4] != VERSION:
        raise KeyFileVersionError(f"unsupported key file version {head[4]}")
    if len(head) < 6 or len(head) < 6 + head[5]:
        raise KeyFileError("truncated header")
    offset = 6 + head[5] + 8
    try:
        ident = head[6:offset - 8].decode("ascii")
    except UnicodeDecodeError:
        raise KeyFileError("non-ASCII oracle identifier") from None
    if len(head) < offset:
        raise KeyFileError("truncated header")
    n_bits = int.from_bytes(head[offset - 8:offset], "big")
    if n_bits < _MIN_BITS:
        raise KeyFileError(f"implausible key size {n_bits}")
    expected = offset + (n_bits + 7) // 8 + 4
    if size != expected:
        raise KeyFileError(f"expected {expected} bytes, file has {size}")
    if tail[1:] != _crc(head[:offset]):
        raise KeyFileError("header checksum mismatch")
    if tail[0] >> (n_bits % 8 or 8):
        raise KeyFileError("nonzero padding bits")
    return ident, n_bits, offset


class BigKey:
    """An N-bit key in a flat read-only buffer, with probe-local access.

    ``buf`` is a bytes-like object (``bytes`` or a read-only
    ``memoryview``) that holds exactly the ceil(n_bits / 8) key bytes with
    zero padding bits; an object without the buffer protocol raises
    ``TypeError``.  Besides the cipher kernels of ``thorp``, which read the
    buffer directly, other modules read key bits through ``subkey``.  A key
    from ``load`` also owns the ``mmap`` under its view, which ``close``
    releases.
    """

    def __init__(self, n_bits: int, buf):
        if not _MIN_BITS <= n_bits <= _U64_MAX:
            raise ValueError(f"key size {n_bits} out of range {_MIN_BITS}..2^64-1")
        needed = (n_bits + 7) // 8
        # released at once: a view left open would make a mapped key's
        # close raise BufferError
        with memoryview(buf) as view:
            if view.nbytes != needed:
                raise ValueError(f"buffer holds {view.nbytes} key bytes, key "
                                 f"of {n_bits} bits needs {needed}")
            # load refuses these, so save must never write them
            if n_bits % 8 and view[-1] >> n_bits % 8:
                raise ValueError("nonzero padding bits")
        self.n_bits = n_bits
        self._buf = buf
        self._mmap = None

    # -- construction ---------------------------------------------------

    @classmethod
    def generate(cls, n_bits: int, randomness) -> "BigKey":
        """Fill a key from caller-supplied randomness.

        ``randomness`` is a bytes-like object of at least ceil(n_bits / 8)
        bytes.  The key bits are exactly the supplied bytes under the
        packing convention, except that spare padding positions are zeroed.
        The constructor checks the size.
        """
        needed = (n_bits + 7) // 8
        data = bytes(randomness[:needed])
        if len(data) < needed:
            raise ValueError(
                f"insufficient randomness: need {needed} bytes, got {len(data)}"
            )
        if n_bits % 8 and data:  # no data: n_bits < 1, refused below
            data = data[:-1] + bytes([data[-1] & ((1 << (n_bits % 8)) - 1)])
        return cls(n_bits, data)

    @classmethod
    def load(cls, path, in_memory: bool = False) -> "BigKey":
        """Open a key file, validating every header field before use.

        It reads the head (at most ``_HEAD_MAX`` bytes) and the last 5
        bytes, checks them with ``_decode`` and maps the file, keeping a
        view of the key bytes; only ``in_memory=True`` reads the key body.
        """
        with open(path, "rb") as f:
            head = f.read(_HEAD_MAX)
            size = os.fstat(f.fileno()).st_size
            f.seek(max(size - 5, 0))
            try:
                ident, n_bits, offset = _decode(head, f.read(5), size)
            except KeyFileError as e:
                raise type(e)(f"{path}: {e}") from None
            if ident != Shake256Oracle.identifier:
                raise OracleMismatchError(
                    f"{path}: key pins oracle {ident!r}, not 'shake256'")
            if not in_memory:
                mapping = mmap.mmap(f.fileno(), size - 4, access=mmap.ACCESS_READ)
                if hasattr(mmap, "MADV_RANDOM"):
                    mapping.madvise(mmap.MADV_RANDOM)
                key = cls(n_bits, memoryview(mapping)[offset:])
                key._mmap = mapping
                return key
            f.seek(offset)
            buf = f.read(size - offset - 4)
        if len(buf) != size - offset - 4:
            raise KeyFileError(f"{path}: short read")
        return cls(n_bits, buf)

    def save(self, path):
        """Write the key file through a temporary file renamed over ``path``.

        ``path`` is never truncated, so saving a lazily loaded key over its
        own file leaves the key usable.  The file is not fsynced.
        """
        folder, name = os.path.split(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=folder)
        try:
            with os.fdopen(fd, "wb") as f:
                header = _encode_header(self.n_bits)
                f.write(header)
                with memoryview(self._buf) as data:  # slices are not copies
                    for pos in range(0, len(data), _COPY_CHUNK):
                        f.write(data[pos : pos + _COPY_CHUNK])
                f.write(_crc(header))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    # -- access ----------------------------------------------------------

    def subkey(self, probes) -> int:
        """The probed bits, repeats included, packed: probe j is bit j - 1."""
        buf, n = self._buf, self.n_bits
        value = 0
        for j, p in enumerate(probes):
            if not 1 <= p <= n:
                raise IndexError(f"probe {p} out of range 1..{n}")
            value |= (buf[(p - 1) >> 3] >> ((p - 1) & 7) & 1) << j
        return value

    def close(self):
        """Release a mapped key's view, then its mapping; again is a no-op."""
        if self._mmap is not None:
            self._buf.release()
            self._mmap.close()

    def __enter__(self) -> "BigKey":
        return self

    def __exit__(self, *exc):
        self.close()
        return False
