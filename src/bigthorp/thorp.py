"""The cipher: a maximally unbalanced Feistel network over m-bit strings.

Each round peels the first bit L off the state, keeps the remaining
m - 1 bits R, and re-appends L masked by the round-function bit::

    forward:  L || R  ->  R || (L xor F(R, r))

Since R passes through unchanged, the inverse round recomputes the same
F(R, r) from the output's first m - 1 bits and unmasks the final bit, so
every round (and hence the whole cipher) is a permutation no matter what
F is.  Encryption runs rounds 1..T in order; decryption runs the same
rounds in reverse.  T = 0 is the identity map.

This module is the Feistel network and nothing else: the round bit comes
from ``prf``.  ``encrypt`` and ``decrypt`` check their arguments once and
run every round on the state held as an integer, taking F from
``prf._round_function``.  ``round_forward`` and ``round_backward`` are the
same rounds on bit strings, taking F from the staged ``derive_probes`` and
``draw_bit``.
"""

from __future__ import annotations

from .bigkey import BigKey
from .bitstring import BitString
from .oracle import PROBE_TAG, Oracle, encode_query
from .prf import (CipherParams, _check_key, _round_function, derive_probes,
                  draw_bit)


def _check(state: BitString, key: BigKey, params: CipherParams):
    if len(state) != params.msg_bits:
        raise ValueError(
            f"state has {len(state)} bits, params expect {params.msg_bits}"
        )
    _check_key(key, params)


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


def _rounds(x: int, key: BigKey, oracle: Oracle, params: CipherParams,
            forward: bool) -> int:
    """All rounds on the state held as a big-endian int (bit 1 on top)."""
    m = params.msg_bits
    bit = _round_function(params, key)
    stream = oracle.stream_bytes
    top = m - 1
    low = (1 << top) - 1
    order = range(1, params.rounds + 1) if forward else range(params.rounds, 0, -1)
    for r in order:
        rest = x & low if forward else x >> 1
        f, _ = bit(stream, encode_query(PROBE_TAG, r, m, rest))
        if forward:
            x = (rest << 1) | ((x >> top) ^ f)
        else:
            x = (((x & 1) ^ f) << top) | rest
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
