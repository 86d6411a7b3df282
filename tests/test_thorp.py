"""Round structure and whole-cipher properties."""

import random

import pytest

from bigthorp import (
    BigKey,
    BitString,
    CipherParams,
    ScriptedOracle,
    Shake256Oracle,
    decrypt,
    encrypt,
    round_backward,
    round_forward,
    seed_randomness,
)


def zero_prf_oracle():
    # all-zero streams: probes all land on position 1, subset is empty,
    # so the round-function bit is 0 and each round is a pure rotation
    return ScriptedOracle(default_script=b"")


def one_prf_setup():
    # all-ones key, probes forced to position 1, subset {1}: F is always 1
    key = BigKey.generate(8, b"\xff")
    oracle = ScriptedOracle(default_script=b"\x00" * 8 + b"\x01")
    return key, oracle


def test_single_round_rotation_with_zero_prf():
    key = BigKey.generate(64, seed_randomness(8, 1))
    p = CipherParams(n_bits=64, msg_bits=3, num_probes=4, rounds=1)
    out = encrypt(BitString.from_int(0b101, 3), key, zero_prf_oracle(), p)
    assert out == BitString.from_int(0b011, 3)


def test_m_rounds_of_rotation_are_identity():
    key = BigKey.generate(64, seed_randomness(8, 1))
    for m in (3, 5, 8):
        p = CipherParams(n_bits=64, msg_bits=m, num_probes=4, rounds=m)
        for value in range(1 << m):
            x = BitString.from_int(value, m)
            assert encrypt(x, key, zero_prf_oracle(), p) == x


def test_single_round_with_forced_one_prf():
    # m = 2, F identically 1: (b1, b2) -> (b2, b1 xor 1)
    key, oracle = one_prf_setup()
    p = CipherParams(n_bits=8, msg_bits=2, num_probes=1, rounds=1)
    table = {
        0b00: 0b01,
        0b01: 0b11,
        0b10: 0b00,
        0b11: 0b10,
    }
    for x, y in table.items():
        x, y = BitString.from_int(x, 2), BitString.from_int(y, 2)
        assert encrypt(x, key, oracle, p) == y
        assert decrypt(y, key, oracle, p) == x


def test_round_backward_inverts_round_forward():
    key = BigKey.generate(64, seed_randomness(8, 2))
    oracle = Shake256Oracle()
    p = CipherParams(n_bits=64, msg_bits=8, num_probes=16, rounds=15)
    rng = random.Random(4)
    for _ in range(50):
        x = BitString.from_int(rng.getrandbits(8), 8)
        for r in (1, 7, 15):
            y = round_forward(x, r, key, oracle, p)
            assert round_backward(y, r, key, oracle, p) == x


def test_encrypt_is_bijection_small_domain():
    key = BigKey.generate(64, seed_randomness(8, 3))
    oracle = ScriptedOracle(seed=2)
    p = CipherParams.from_passes(64, 4, 16, 1)
    images = {encrypt(BitString.from_int(v, 4), key, oracle, p).to_int()
              for v in range(16)}
    assert len(images) == 16
    for v in range(16):
        x = BitString.from_int(v, 4)
        assert decrypt(encrypt(x, key, oracle, p), key, oracle, p) == x


def test_zero_rounds_is_identity():
    key = BigKey.generate(64, seed_randomness(8, 4))
    oracle = Shake256Oracle()
    p = CipherParams(n_bits=64, msg_bits=6, num_probes=8, rounds=0)
    x = BitString.from_int(0b110010, 6)
    assert encrypt(x, key, oracle, p) == x
    assert decrypt(x, key, oracle, p) == x


def test_wide_message_round_trips():
    key = BigKey.generate(1 << 20, seed_randomness(1 << 17, 3))
    oracle = Shake256Oracle()
    p = CipherParams(n_bits=1 << 20, msg_bits=128, num_probes=4, rounds=8)
    rng = random.Random(21)
    for _ in range(1000):
        x = BitString.from_int(rng.getrandbits(128), 128)
        assert decrypt(encrypt(x, key, oracle, p), key, oracle, p) == x


def test_decrypt_then_encrypt_round_trips():
    key = BigKey.generate(1 << 12, seed_randomness(1 << 9, 6))
    oracle = Shake256Oracle()
    p = CipherParams(n_bits=1 << 12, msg_bits=64, num_probes=4, rounds=8)
    rng = random.Random(22)
    for _ in range(200):
        y = BitString.from_int(rng.getrandbits(64), 64)
        assert encrypt(decrypt(y, key, oracle, p), key, oracle, p) == y


def test_ciphertexts_preserve_format():
    key = BigKey.generate(64, seed_randomness(8, 5))
    oracle = Shake256Oracle()
    p = CipherParams.from_passes(64, 11, 8, 1)
    rng = random.Random(9)
    for _ in range(20):
        x = BitString.from_int(rng.getrandbits(11), 11)
        assert len(encrypt(x, key, oracle, p)) == 11


def test_state_width_must_match_params():
    key = BigKey.generate(64, seed_randomness(8, 5))
    p = CipherParams(n_bits=64, msg_bits=8, num_probes=4, rounds=3)
    with pytest.raises(ValueError):
        encrypt(BitString.from_int(0b101, 3), key, Shake256Oracle(), p)
    with pytest.raises(ValueError):
        decrypt(BitString.from_int(0, 9), key, Shake256Oracle(), p)


def test_key_width_must_match_params():
    key = BigKey.generate(32, b"\x00" * 4)
    p = CipherParams(n_bits=64, msg_bits=8, num_probes=4, rounds=3)
    with pytest.raises(ValueError):
        encrypt(BitString.from_int(0, 8), key, Shake256Oracle(), p)
