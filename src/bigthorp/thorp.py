"""The cipher: a maximally unbalanced Feistel network over m-bit strings.

Each round peels the first bit L off the state, keeps the remaining
m - 1 bits R, and re-appends L masked by the round-function bit::

    forward:  L || R  ->  R || (L xor F(R, r))

Since R passes through unchanged, the inverse round recomputes the same
F(R, r) from the output's first m - 1 bits and unmasks the final bit, so
every round (and hence the whole cipher) is a permutation no matter what
F is.  Encryption runs rounds 1..T in order; decryption runs the same
rounds in reverse.  T = 0 is the identity map.

This module is the Feistel network and nothing else.  ``encrypt`` and
``decrypt`` check their arguments once and run all rounds in the kernel
``prf._rounds`` on the state held as an integer.  ``round_forward`` and
``round_backward`` are single rounds on bit strings, taking F from the
staged ``derive_probes`` and ``draw_bit``.
"""

from __future__ import annotations

from .bigkey import BigKey
from .bitstring import BitString
from .oracle import Oracle
from .prf import CipherParams, _check_key, _rounds, derive_probes, draw_bit


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
