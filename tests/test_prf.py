"""Probe derivation, rejection sampling, subset masking, and the PRF bit."""

import hashlib
import random
import subprocess
import sys

import pytest

from bigthorp import (
    PROBE_TAG,
    BigKey,
    BitString,
    CipherParams,
    OracleQuery,
    ProbeDraw,
    ScriptedOracle,
    Shake256Oracle,
    derive_probes,
    draw_bit,
    round_backward,
    round_forward,
    seed_randomness,
)
from bigthorp.oracle import encode_query
from bigthorp.prf import _round_bits, _round_function


def params_for(n_bits, msg_bits=5, num_probes=3, rounds=9):
    return CipherParams(n_bits=n_bits, msg_bits=msg_bits,
                        num_probes=num_probes, rounds=rounds)


def probe_query(params, round_index=1, r=None):
    if r is None:
        r = BitString.zeros(params.msg_bits - 1)
    return OracleQuery(PROBE_TAG, round_index, params.msg_bits, r)


def words(*values):
    return b"".join(v.to_bytes(8, "big") for v in values)


def round_bit(key, oracle, r_bits, round_index, params):
    """The round function's bit for a bit-string round input."""
    bit = _round_function(params, key)
    query = encode_query(PROBE_TAG, round_index, params.msg_bits, r_bits.to_int())
    return bit(oracle.stream_bytes, query)[0]


# -- CipherParams -----------------------------------------------------------


def test_rounds_derived_from_passes():
    assert CipherParams.from_passes(64, 5, 16, 1).rounds == 9
    assert CipherParams.from_passes(64, 128, 500, 2).rounds == 510
    assert CipherParams.from_passes(64, 2, 1, 3).rounds == 9


def test_params_validation():
    with pytest.raises(ValueError):
        CipherParams(n_bits=0, msg_bits=5, num_probes=3, rounds=9)
    with pytest.raises(ValueError):
        CipherParams(n_bits=64, msg_bits=1, num_probes=3, rounds=9)
    with pytest.raises(ValueError):
        CipherParams(n_bits=64, msg_bits=5, num_probes=0, rounds=9)
    with pytest.raises(ValueError):
        CipherParams(n_bits=64, msg_bits=5, num_probes=3, rounds=-1)
    with pytest.raises(ValueError):
        CipherParams.from_passes(64, 5, 16, 0)
    # rounds = 0 is the identity cipher, and legal
    CipherParams(n_bits=64, msg_bits=5, num_probes=3, rounds=0)


def test_probe_draw_validation_and_indices():
    draw = ProbeDraw((4, 9, 2), BitString("101"))
    assert draw.subset_mask == BitString("101")
    assert ProbeDraw((), BitString("")).subset_mask == BitString("")
    with pytest.raises(ValueError):
        ProbeDraw((1, 2), BitString("1"))


# -- probe decoding ---------------------------------------------------------


def test_decode_rule_on_scripted_words():
    p = params_for(16)
    script = words(0, 1, 2) + b"\x05"  # mask bits 1 and 3
    oracle = ScriptedOracle(scripts={probe_query(p): script})
    draw = derive_probes(oracle, BitString.zeros(4), 1, p)
    assert draw.probes == (1, 2, 3)
    assert draw.subset_mask == BitString("101")


def test_decode_wraps_modulo_n():
    p = params_for(16)
    script = words(16, 17, 2**64 - 1) + b"\x00"
    oracle = ScriptedOracle(scripts={probe_query(p): script})
    draw = derive_probes(oracle, BitString.zeros(4), 1, p)
    # 16 % 16 + 1 = 1, 17 % 16 + 1 = 2, (2^64-1) % 16 + 1 = 16
    assert draw.probes == (1, 2, 16)
    assert draw.subset_mask == BitString("000")


def test_rejection_skips_out_of_band_words():
    # N = 3: the acceptance threshold is 3 * floor(2^64 / 3) = 2^64 - 1,
    # so the all-ones word is rejected and the next word is decoded
    p = CipherParams(n_bits=3, msg_bits=5, num_probes=1, rounds=9)
    script = words(2**64 - 1, 4) + b"\x01"
    oracle = ScriptedOracle(scripts={probe_query(p): script})
    draw = derive_probes(oracle, BitString.zeros(4), 1, p)
    assert draw.probes == (2,)  # 4 % 3 + 1
    assert draw.subset_mask == BitString("1")


def test_power_of_two_n_never_rejects():
    p = CipherParams(n_bits=16, msg_bits=5, num_probes=2, rounds=9)
    script = words(2**64 - 1, 2**64 - 2) + b"\x00"
    oracle = ScriptedOracle(scripts={probe_query(p): script})
    draw = derive_probes(oracle, BitString.zeros(4), 1, p)
    assert draw.probes == (16, 15)


def test_rejection_cap_raises():
    p = CipherParams(n_bits=3, msg_bits=5, num_probes=1, rounds=9)
    oracle = ScriptedOracle(default_script=b"\xff" * (8 * 1100))
    with pytest.raises(RuntimeError):
        derive_probes(oracle, BitString.zeros(4), 1, p)


def test_stream_extension_preserves_prefix_decoding():
    # enough rejections to push past the initial request, then real words
    p = CipherParams(n_bits=3, msg_bits=5, num_probes=2, rounds=9)
    script = words(*([2**64 - 1] * 10), 4, 5) + b"\x03"
    oracle = ScriptedOracle(scripts={probe_query(p): script})
    draw = derive_probes(oracle, BitString.zeros(4), 1, p)
    assert draw.probes == (2, 3)  # 4 % 3 + 1, 5 % 3 + 1
    assert draw.subset_mask == BitString("11")


def test_subset_mask_high_bits_dropped():
    p = params_for(16)
    script = words(0, 0, 0) + b"\xff"
    oracle = ScriptedOracle(scripts={probe_query(p): script})
    draw = derive_probes(oracle, BitString.zeros(4), 1, p)
    assert draw.subset_mask == BitString("111")


def test_probes_always_in_range_production():
    p = CipherParams(n_bits=10, msg_bits=6, num_probes=7, rounds=9)
    oracle = Shake256Oracle()
    rng = random.Random(31)
    for _ in range(200):
        r = BitString([rng.randrange(2) for _ in range(5)])
        draw = derive_probes(oracle, r, rng.randrange(1, 100), p)
        assert len(draw.probes) == 7
        assert all(1 <= probe <= 10 for probe in draw.probes)
        assert len(draw.subset_mask) == 7


def test_probe_positions_roughly_uniform():
    # rejection sampling must not skew the distribution over a non-power
    # of two range; 4-sigma band around the expected bucket count
    p = CipherParams(n_bits=5, msg_bits=5, num_probes=1, rounds=9)
    oracle = Shake256Oracle()
    counts = {i: 0 for i in range(1, 6)}
    trials = 5000
    for round_index in range(1, trials + 1):
        draw = derive_probes(oracle, BitString.zeros(4), round_index, p)
        counts[draw.probes[0]] += 1
    expected = trials / 5
    sigma = (trials * 0.2 * 0.8) ** 0.5
    for count in counts.values():
        assert abs(count - expected) <= 4 * sigma


def test_derive_probes_argument_checks():
    p = params_for(16)
    oracle = Shake256Oracle()
    with pytest.raises(ValueError):
        derive_probes(oracle, BitString.zeros(4), 0, p)
    with pytest.raises(ValueError):
        derive_probes(oracle, BitString.zeros(3), 1, p)


# -- the PRF bit ------------------------------------------------------------


def test_prf_bit_xors_selected_key_bits():
    # key byte 0x4d: bits (1,0,1,1,0,0,1,0); probes fixed at (1,2,3)
    key = BigKey.generate(16, b"\x4d\x00")
    p = CipherParams(n_bits=16, msg_bits=5, num_probes=3, rounds=9)
    cases = [
        (b"\x01", 1),  # S={1}: bit1 = 1
        (b"\x02", 0),  # S={2}: bit2 = 0
        (b"\x05", 0),  # S={1,3}: 1 xor 1
        (b"\x07", 0),  # S={1,2,3}: 1 xor 0 xor 1
        (b"\x06", 1),  # S={2,3}: 0 xor 1
        (b"\x00", 0),  # S empty: zero by convention
    ]
    for mask, expected in cases:
        oracle = ScriptedOracle(scripts={probe_query(p): words(0, 1, 2) + mask})
        assert round_bit(key, oracle, BitString.zeros(4), 1, p) == expected


def test_empty_subset_forced_globally():
    # the all-zero default script sends every query to probes (1,..) with
    # the empty subset, so the PRF is identically zero for any key
    key = BigKey.generate(64, bytes(range(1, 9)))
    p = CipherParams(n_bits=64, msg_bits=6, num_probes=5, rounds=11)
    oracle = ScriptedOracle(default_script=b"")
    rng = random.Random(3)
    for _ in range(50):
        r = BitString([rng.randrange(2) for _ in range(5)])
        assert round_bit(key, oracle, r, rng.randrange(1, 50), p) == 0


def test_prf_deterministic_across_backend_instances():
    key = BigKey.generate(32, b"\xde\xad\xbe\xef")
    p = CipherParams(n_bits=32, msg_bits=7, num_probes=4, rounds=13)
    r = BitString("110100")
    a = round_bit(key, Shake256Oracle(), r, 5, p)
    b = round_bit(key, Shake256Oracle(), r, 5, p)
    assert a == b


def test_prf_key_params_mismatch():
    # the staged rounds check the key once, before deriving any probe
    key = BigKey.generate(16, b"\x00\x00")
    p = CipherParams(n_bits=32, msg_bits=5, num_probes=3, rounds=9)
    for staged_round in (round_forward, round_backward):
        with pytest.raises(ValueError):
            staged_round(BitString.zeros(5), 1, key, Shake256Oracle(), p)


def test_draw_bit_matches_manual_xor():
    key = BigKey.generate(16, b"\x4d\x80")
    draw = ProbeDraw((1, 16, 3, 3), BitString("1101"))
    # bits: key[1]=1, key[16]=1, key[3]=1 (skipped), key[3]=1
    assert draw_bit(key, draw) == (1 ^ 1 ^ 1)


def test_prf_small_sample_unbiased():
    key = BigKey.generate(4096, seed_randomness(512, 88))
    p = CipherParams(n_bits=4096, msg_bits=12, num_probes=16, rounds=23)
    oracle = Shake256Oracle()
    rng = random.Random(8)
    trials = 2000
    ones = 0
    seen = set()
    while len(seen) < trials:
        pair = (rng.getrandbits(11), rng.randrange(1, 1 << 12))
        if pair in seen:
            continue
        seen.add(pair)
        r = BitString.from_bytes(pair[0].to_bytes(2, "little"), 11)
        ones += round_bit(key, oracle, r, pair[1], p)
    assert abs(ones / trials - 0.5) <= 4 * (0.25 / trials) ** 0.5


@pytest.mark.parametrize("n_bits, rejecting", [(1001, True), (1 << 12, False)],
                         ids=["scripted-rejections-1001", "shake-4096"])
def test_round_function_matches_staged_pair_on_both_key_kinds(
        tmp_path, n_bits, rejecting):
    p = CipherParams(n_bits=n_bits, msg_bits=9, num_probes=8, rounds=17)
    rng = random.Random(n_bits)
    inputs = [(rng.randrange(1, 18), rng.getrandbits(8)) for _ in range(64)]
    if rejecting:
        # N = 1001 rejects the all-ones word: every stream leads with two
        oracle = ScriptedOracle(scripts={
            q: b"\xff" * 16 + hashlib.shake_256(q).digest(8 * 8 + 1)
            for q in (encode_query(PROBE_TAG, r, 9, x) for r, x in inputs)})
    else:
        oracle = Shake256Oracle()
    held = BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, n_bits))
    path = tmp_path / "round.key"
    held.save(path)
    with BigKey.load(path) as mapped:
        for key in (held, mapped):
            bit = _round_function(p, key)
            ones = 0
            for r, x in inputs:
                rest = BitString.from_int(x, 8)
                f, got = bit(oracle.stream_bytes,
                             encode_query(PROBE_TAG, r, 9, x))
                draw = derive_probes(oracle, rest, r, p)
                assert f == draw_bit(key, draw)
                assert tuple(w % n_bits + 1 for w in got) == draw.probes
                ones += f
            assert 0 < ones < len(inputs)


# N = 1001 rejects every word at or above 1001 * floor(2^64 / 1001), so a
# stream that leads with two all-ones words is decoded only after extension
_REJECTING_HEAD = b"\xff" * 16


def _batch_oracle(kind, queries, k):
    if kind == "contract-rejecting":
        return ScriptedOracle(default_script=_REJECTING_HEAD
                              + hashlib.shake_256(b"contract").digest(65))
    if kind == "mixed-rejecting":
        # every third query rejects; the rest get seeded streams
        return ScriptedOracle(scripts={
            q: _REJECTING_HEAD + hashlib.shake_256(q).digest(8 * k + 8)
            for q in queries[::3]}, seed=5)
    return Shake256Oracle()


@pytest.mark.parametrize("k", [1, 5, 8, 13, 64])
@pytest.mark.parametrize("n_bits, kind", [
    (1 << 12, "shake"), (10**6 + 3, "shake"), (1001, "contract-rejecting"),
    (1001, "mixed-rejecting")])
def test_round_bits_match_round_function(tmp_path, n_bits, kind, k):
    p = CipherParams(n_bits=n_bits, msg_bits=16, num_probes=k, rounds=31)
    rng = random.Random(n_bits + k)
    queries = [encode_query(PROBE_TAG, rng.randrange(1, 1 << 16), 16,
                            rng.getrandbits(15)) for _ in range(48)]
    oracle = _batch_oracle(kind, queries, k)
    held = BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, k))
    path = tmp_path / "batch.key"
    held.save(path)
    with BigKey.load(path) as mapped:
        for key in (held, mapped):
            batch, bit = _round_bits(p, key), _round_function(p, key)
            bits, got = batch(oracle.stream_bytes, queries)
            assert got.shape == (len(queries), k)
            for q, f, row in zip(queries, bits.tolist(), got.tolist()):
                want_bit, want_words = bit(oracle.stream_bytes, q)
                assert (f, row) == (want_bit, list(want_words))
        # neither the kernel nor its output keeps a view of the mapping
        mapped.close()


def test_import_leaves_numpy_unloaded():
    code = "import sys, bigthorp; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
