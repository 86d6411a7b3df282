"""The cipher: a maximally unbalanced Feistel network over m-bit strings.

Each round peels the first bit L off the state, keeps the remaining
m - 1 bits R, and re-appends L masked by the round-function bit::

    forward:  L || R  ->  R || (L xor F(R, r))

Since R passes through unchanged, the inverse round recomputes the same
F(R, r) from the output's first m - 1 bits and unmasks the final bit, so
every round (and hence the whole cipher) is a permutation no matter what
F is.  Encryption runs rounds 1..T in order; decryption runs the same
rounds in reverse.  T = 0 is the identity map.

``encrypt`` and ``decrypt`` check their arguments once and run every round
on the state held as an integer, through the ``prf`` probe decoder and the
key's buffer.  ``round_forward`` and ``round_backward`` are the same rounds
on bit strings, staged through ``derive_probes`` and ``draw_bit``: views
over the same decoder.
"""

from __future__ import annotations

from itertools import compress

from .bigkey import BigKey
from .bitstring import BitString
from .oracle import PROBE_TAG, Oracle, encode_query
from .prf import CipherParams, _probe_decoder, prf_bit

_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _check(state: BitString, key: BigKey, params: CipherParams):
    if len(state) != params.msg_bits:
        raise ValueError(
            f"state has {len(state)} bits, params expect {params.msg_bits}"
        )
    if key.n_bits != params.n_bits:
        raise ValueError(
            f"key has {key.n_bits} bits but params expect {params.n_bits}"
        )


def round_forward(
    state: BitString,
    round_index: int,
    key: BigKey,
    oracle: Oracle,
    params: CipherParams,
) -> BitString:
    _check(state, key, params)
    left, rest = state.split_lr()
    f = prf_bit(key, oracle, rest, round_index, params)
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
    f = prf_bit(key, oracle, rest, round_index, params)
    return rest.prepend_bit(masked ^ f)


def _rounds(x: int, key: BigKey, oracle: Oracle, params: CipherParams,
            forward: bool) -> int:
    """All rounds on the state held as a big-endian int (bit 1 on top)."""
    m, n = params.msg_bits, params.n_bits
    decode = _probe_decoder(params)
    stream, buf, offset = oracle.stream_bytes, key._buf, key._offset
    mask_digits = f"0{params.num_probes}b"
    top = m - 1
    low = (1 << top) - 1
    order = range(1, params.rounds + 1) if forward else range(params.rounds, 0, -1)
    for r in order:
        rest = x & low if forward else x >> 1
        words, mask = decode(stream, encode_query(PROBE_TAG, r, m, rest))
        # binary digits of the mask run from probe k down to probe 1
        selected = format(mask, mask_digits).encode().translate(_DIGITS)
        bit = 0
        for word in compress(reversed(words), selected):
            p = word % n
            bit ^= buf[offset + (p >> 3)] >> (p & 7)
        bit &= 1
        if forward:
            x = (rest << 1) | ((x >> top) ^ bit)
        else:
            x = (((x & 1) ^ bit) << top) | rest
    return x


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
