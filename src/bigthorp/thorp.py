"""The cipher: a maximally unbalanced Feistel network over m-bit strings
whose round function probes k bits of a huge key.

Each round peels the first bit L off the state, keeps the remaining
m - 1 bits R, and re-appends L masked by the round-function bit::

    forward:  L || R  ->  R || (L xor F(R, r))

Since R passes through unchanged, the inverse round recomputes the same
F(R, r) from the output's first m - 1 bits and unmasks the final bit, so
every round (and hence the whole cipher) is a permutation no matter what
F is.  Encryption runs rounds 1..T in order; decryption runs the same
rounds in reverse.  T = 0 is the identity map.

F(R, r) on round input R at round r proceeds as:

1. Stream bytes from the oracle under the probe domain tag for (r, R).
2. Decode k probe positions in 1..N from consecutive 8-byte big-endian
   words by rejection sampling (reject u >= N * floor(2^64 / N), else
   take (u mod N) + 1), so every position is exactly equally likely.
   Rejected words are skipped; probes are drawn with replacement.  When N
   is a power of two no word is rejected, and u mod N is u & (N - 1).
3. Decode a k-bit subset mask from the next ceil(k / 8) stream bytes
   under the packing convention (mask bit j selects probe j).  Only the
   selected probes' words need decoding.
4. The output bit is the XOR of the key bits at the selected probes; an
   empty selection gives 0.

The stream is fetched in one request sized for the no-rejection case.
``_accept`` is the one rejection sampler: given that first response, it
returns it unchanged when no word is rejected, and otherwise reads on,
extending the stream in 512-byte steps (oracle streams are
prefix-consistent), and returns the same no-rejection layout of k accepted
words and the mask bytes after them.  1000 consecutive rejections abort,
since each word is accepted with probability above 1/2.

``encrypt`` and ``decrypt`` check their arguments once and run every round
of a block in the kernel ``_rounds`` on the state held as an integer.  It
calls ``_accept`` only when the response holds ``_reject_prefix``, the
0xFF bytes that every rejected word begins with: five at N = 10^6 + 3, and
none (so every round) where 2^64 mod N >= 2^56, which needs N > 2^56.
Since a non-empty prefix is a run of 0xFF, a one-byte screen ``255 in
data`` (a memchr) runs first, and the substring test only on the responses
it passes, about a fifth of 65-byte SHAKE-256 responses; with an empty
prefix there is no screen.  Each mask byte then picks, through a cached
table of ``struct`` unpackers (``_picks``), just the selected words of its
group of eight, which are reduced by mask when N is a power of two and by
``%`` otherwise.  The round's shape constants (threshold, prefix, request
and query sizes, unpackers, round orders) form the ``_Plan`` that each
``CipherParams`` builds on first use and keeps; the two kernels and
``derive_probes`` read them from there.
``verify.bias_estimate`` does the same in batches through the numpy kernel
``_round_bits``, which fixes rejected rows in place, and numpy is imported
only when that kernel runs.  The two kernels read the key's buffer
directly; outside ``bigkey`` nothing else does.

``round_forward`` and ``round_backward`` are single rounds on bit strings,
taking F from the staged ``derive_probes`` and ``draw_bit``; ``draw_bit``
reads the key through ``BigKey.subkey``, which packs the probed bits as
the mask is packed: probe j at bit j - 1 of an int.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import NamedTuple, Tuple

from .bigkey import BigKey
from .bitstring import BitString
from .oracle import (
    _MAX_MSG_BITS, _MAX_PROBES, _U64_MAX, PROBE_TAG, Oracle, OracleQuery)

REJECTION_CAP = 1000
_WORD = 8
_B = _U64_MAX + 1
_EXTEND = 512


def _rounds_for(msg_bits: int, passes: int) -> int:
    """The round count of ``passes`` passes: T = passes * (2 * msg_bits - 1)."""
    return passes * (2 * msg_bits - 1)


@dataclass(frozen=True)
class CipherParams:
    """Cipher shape: key size, message width, probes per round, rounds.

    ``rounds`` may be given directly, or derived from a pass count via
    ``from_passes`` (one pass is 2 * msg_bits - 1 rounds).  ``rounds = 0``
    is legal and makes the cipher the identity map.
    """

    n_bits: int
    msg_bits: int
    num_probes: int
    rounds: int

    def __post_init__(self):
        if not 1 <= self.n_bits <= _U64_MAX:
            raise ValueError(f"n_bits {self.n_bits} out of range 1..2^64 - 1")
        if not 2 <= self.msg_bits <= _MAX_MSG_BITS:
            raise ValueError(
                f"msg_bits {self.msg_bits} out of range 2..{_MAX_MSG_BITS}")
        if not 1 <= self.num_probes <= _MAX_PROBES:
            raise ValueError(
                f"num_probes {self.num_probes} out of range 1..{_MAX_PROBES}")
        if not 0 <= self.rounds <= _U64_MAX:
            raise ValueError(f"rounds {self.rounds} out of range 0..2^64 - 1")

    @classmethod
    def from_passes(
        cls, n_bits: int, msg_bits: int, num_probes: int, passes: int
    ) -> "CipherParams":
        if passes < 1:
            raise ValueError("passes must be at least 1")
        return cls(n_bits, msg_bits, num_probes, _rounds_for(msg_bits, passes))

    @cached_property
    def _plan(self) -> "_Plan":
        """The round's shape constants, built on first use and kept with the
        params they were built from."""
        m, k, n = self.msg_bits, self.num_probes, self.n_bits
        threshold = n * (_B // n)
        mask_at = _WORD * k
        need = mask_at + (k + 7) // 8
        groups = tuple((_picks(min(8, k - 8 * g)), _WORD * 8 * g, mask_at + g)
                       for g in range(need - mask_at))
        rest_bytes = (m + 6) // 8
        step = 1 << 8 * (rest_bytes + 2)  # one round, in the query as an int
        base = (PROBE_TAG << 80 | m) << 8 * rest_bytes  # tag and width in place
        return _Plan(threshold, threshold == _B, n - 1,
                     _reject_prefix(threshold), need, groups, 11 + rest_bytes,
                     m - 1, (1 << m - 1) - 1,
                     range(base + step, base + (self.rounds + 1) * step, step),
                     range(base + self.rounds * step, base, -step))

    def __getstate__(self):
        # the plan holds struct unpackers, which do not pickle; it is rebuilt
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _Plan(NamedTuple):
    """What a round of one ``CipherParams`` needs besides its input.

    ``groups`` holds, per group of up to eight probe words, its ``_picks``
    unpackers, the offset of its first word and the index of its mask byte.
    ``forward`` and ``backward`` are the queries' tag, round and width
    fields as one int per round, in encryption and decryption order; a
    round input of ``low`` bits fills the rest of the ``size`` bytes.
    """

    threshold: int  # a probe word at or above it is rejected
    pow2: bool  # N is a power of two: nothing rejects, u mod N is u & low_n
    low_n: int
    prefix: bytes  # _reject_prefix(threshold): empty, or a run of 0xFF
    need: int  # the round's first request: 8k words, then ceil(k / 8) bytes
    groups: Tuple[Tuple[tuple, int, int], ...]
    size: int
    top: int  # m - 1, the shift to the state's first bit
    low: int  # mask of the state's last m - 1 bits
    forward: range
    backward: range


def _check_key(key: BigKey, params: CipherParams):
    if key.n_bits != params.n_bits:
        raise ValueError(
            f"key has {key.n_bits} bits but params expect {params.n_bits}"
        )


def _check(state: BitString, key: BigKey, params: CipherParams):
    if len(state) != params.msg_bits:
        raise ValueError(
            f"state has {len(state)} bits, params expect {params.msg_bits}"
        )
    _check_key(key, params)


def _accept(stream, query, data: bytes, k: int, threshold: int) -> bytes:
    """The round's probe stream in its no-rejection layout: the k accepted
    words as 8-byte big-endian values, then the ceil(k / 8) mask bytes that
    follow the last word read (probe j is key bit ``words[j - 1] % N + 1``;
    mask bit j - 1, little-endian, selects it).

    ``data`` is the first 8k + ceil(k / 8) bytes of ``stream(query, n)``, and
    comes back unchanged when none of its k words reaches ``threshold``.
    Otherwise the stream is read on, extended in 512-byte steps.
    """
    if max(struct.unpack_from(f">{k}Q", data)) < threshold:
        return data
    accepted = []
    pos = consecutive = 0
    while len(accepted) < k:
        if pos + _WORD > len(data):
            data = stream(query, len(data) + _EXTEND)
        word = data[pos : pos + _WORD]
        pos += _WORD
        if int.from_bytes(word, "big") >= threshold:
            consecutive += 1
            if consecutive >= REJECTION_CAP:
                raise RuntimeError(
                    f"{REJECTION_CAP} consecutive rejections while sampling "
                    "probes; oracle backend is not producing uniform bytes")
            continue
        consecutive = 0
        accepted.append(word)
    mask_end = pos + (k + 7) // 8
    if mask_end > len(data):
        data = stream(query, mask_end)
    return b"".join(accepted) + data[pos:mask_end]


def _reject_prefix(threshold: int) -> bytes:
    """The whole 0xFF bytes that every word in [threshold, 2^64) begins with."""
    return b"\xff" * ((64 - (_B - threshold).bit_length()) // 8)


@cache
def _picks(width: int):
    """Per mask byte b, ``unpack_from(data, offset)`` of a group of ``width``
    probe words at ``offset`` that yields only the words whose bit of b is
    set, in draw order; bits of b at or above ``width`` are ignored."""
    return tuple(struct.Struct(">" + "".join("Q" if b >> j & 1 else "8x"
                                             for j in range(width))).unpack_from
                 for b in range(256))


def _rounds(x: int, key: BigKey, oracle: Oracle, params: CipherParams,
            forward: bool) -> int:
    """All rounds on the state held as a big-endian int (bit 1 on top).

    A round makes one ``oracle.stream_bytes`` request for the query
    ``encode_query(PROBE_TAG, r, m, rest)``, built as one int, unless a
    probe word is rejected.  Callers check state and key against ``params``.
    """
    plan, k, n = params._plan, params.num_probes, params.n_bits
    buf, stream = key._buf, oracle.stream_bytes
    threshold, pow2, low_n = plan.threshold, plan.pow2, plan.low_n
    prefix, need, groups = plan.prefix, plan.need, plan.groups
    size, top, low = plan.size, plan.top, plan.low
    for head in plan.forward if forward else plan.backward:
        rest = x & low if forward else x >> 1
        query = (head | rest).to_bytes(size, "big")
        data = stream(query, need)
        acc = 0
        if pow2:
            for picks, at, b in groups:
                for word in picks[data[b]](data, at):
                    p = word & low_n
                    acc ^= buf[p >> 3] >> (p & 7)
        else:
            if (255 in data or not prefix) and prefix in data:
                data = _accept(stream, query, data, k, threshold)
            for picks, at, b in groups:
                for word in picks[data[b]](data, at):
                    p = word % n
                    acc ^= buf[p >> 3] >> (p & 7)
        x = ((rest << 1) | ((x >> top) ^ acc) & 1 if forward
             else ((x ^ acc) & 1) << top | rest)
    return x


def _round_bits(params: CipherParams, key: BigKey, stream, queries):
    """Round bits and probe words of serialized queries, as numpy arrays of
    shape (B,) and (B, k).

    All rows are fetched at once; a row with a rejected word is replaced in
    place by its ``_accept`` layout.  The key's buffer is viewed only inside
    the call, so a mapped key can be closed after it.
    """
    import numpy as np  # numpy stays out of ``import bigthorp``

    k, n, plan = params.num_probes, params.n_bits, params._plan
    threshold, need, mask_at = plan.threshold, plan.need, _WORD * k
    data = bytearray(b"".join(stream(q, need) for q in queries))
    rows = np.frombuffer(data, np.uint8).reshape(len(queries), need)
    if threshold < _B:
        for i in np.flatnonzero((rows[:, :mask_at].view(">u8") >= threshold)
                                .any(axis=1)):
            rows[i] = np.frombuffer(
                _accept(stream, queries[i], rows[i].tobytes(), k, threshold),
                np.uint8)
    words = rows[:, :mask_at].view(">u8").astype(np.uint64)
    selected = np.unpackbits(rows[:, mask_at:], axis=1, count=k,
                             bitorder="little")
    p = words % n
    key_bytes = np.frombuffer(key._buf, np.uint8)
    probed = key_bytes[p >> 3] >> (p & 7).astype(np.uint8) & selected
    return np.bitwise_xor.reduce(probed, axis=1), words


@dataclass(frozen=True)
class ProbeDraw:
    """Decoded oracle output for one round-function call: the probe
    positions and the subset mask as a packed int (bit j - 1 selects
    probe j)."""

    probes: Tuple[int, ...]
    subset_mask: int

    def __post_init__(self):
        if not 0 <= self.subset_mask < 1 << len(self.probes):
            raise ValueError(
                f"subset mask {self.subset_mask} out of range for "
                f"{len(self.probes)} probes")


def derive_probes(
    oracle: Oracle, r_bits: BitString, round_index: int, params: CipherParams
) -> ProbeDraw:
    """Decode the probe positions and subset mask for (round, input)."""
    if round_index < 1:
        raise ValueError("round_index must be at least 1")
    if len(r_bits) != params.msg_bits - 1:
        raise ValueError(
            f"round input has {len(r_bits)} bits, expected {params.msg_bits - 1}")
    query = OracleQuery(PROBE_TAG, round_index, params.msg_bits, r_bits.to_int())
    n, k, plan = params.n_bits, params.num_probes, params._plan
    mask_at = _WORD * k
    data = _accept(oracle.stream, query, oracle.stream(query, plan.need), k,
                   plan.threshold)
    mask = int.from_bytes(data[mask_at:], "little") & (1 << k) - 1
    words = struct.unpack_from(f">{k}Q", data)
    return ProbeDraw(tuple(w % n + 1 for w in words), mask)


def draw_bit(key: BigKey, draw: ProbeDraw) -> int:
    """XOR of the key bits selected by an already-decoded draw."""
    return (key.subkey(draw.probes) & draw.subset_mask).bit_count() & 1


def round_forward(
    state: BitString,
    round_index: int,
    key: BigKey,
    oracle: Oracle,
    params: CipherParams,
) -> BitString:
    _check(state, key, params)
    left, rest = state.split_lr()
    f = draw_bit(key, derive_probes(oracle, rest, round_index, params))
    return rest.append_bit(left ^ f)


def round_backward(
    state: BitString,
    round_index: int,
    key: BigKey,
    oracle: Oracle,
    params: CipherParams,
) -> BitString:
    _check(state, key, params)
    rest, masked = state.split_last()
    f = draw_bit(key, derive_probes(oracle, rest, round_index, params))
    return rest.prepend_bit(masked ^ f)


def encrypt(
    message: BitString, key: BigKey, oracle: Oracle, params: CipherParams
) -> BitString:
    _check(message, key, params)
    x = _rounds(message.to_int(), key, oracle, params, True)
    return BitString.from_int(x, params.msg_bits)


def decrypt(
    ciphertext: BitString, key: BigKey, oracle: Oracle, params: CipherParams
) -> BitString:
    _check(ciphertext, key, params)
    x = _rounds(ciphertext.to_int(), key, oracle, params, False)
    return BitString.from_int(x, params.msg_bits)
