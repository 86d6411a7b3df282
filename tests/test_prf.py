"""Probe derivation, rejection sampling, subset masking, and the PRF bit."""

import hashlib
import pickle
import random
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bigthorp import thorp
from bigthorp import (
    PROBE_TAG,
    BigKey,
    BitString,
    CipherParams,
    OracleQuery,
    ProbeDraw,
    ScriptedOracle,
    Shake256Oracle,
    decrypt,
    derive_probes,
    draw_bit,
    encrypt,
    round_backward,
    round_forward,
    seed_randomness,
)
from bigthorp.oracle import _MAX_PROBES, encode_query
from bigthorp.thorp import _accept, _reject_prefix, _round_bits


def params_for(n_bits, msg_bits=5, num_probes=3, rounds=9):
    return CipherParams(n_bits=n_bits, msg_bits=msg_bits,
                        num_probes=num_probes, rounds=rounds)


def probe_query(params, round_index=1, r=0):
    return OracleQuery(PROBE_TAG, round_index, params.msg_bits, r)


def words(*values):
    return b"".join(v.to_bytes(8, "big") for v in values)


def round_bit(key, oracle, r_bits, round_index, params):
    """The round bit for a bit-string round input: the staged pair, checked
    against the batch kernel on the same query."""
    bit = draw_bit(key, derive_probes(oracle, r_bits, round_index, params))
    query = encode_query(PROBE_TAG, round_index, params.msg_bits, r_bits.to_int())
    batch, _ = _round_bits(params, key, oracle.stream_bytes, [query])
    assert batch.tolist() == [bit]
    return bit


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
    # the round index fills the query's 8-byte field
    with pytest.raises(ValueError):
        CipherParams(n_bits=64, msg_bits=5, num_probes=3, rounds=2**64)
    CipherParams(n_bits=64, msg_bits=5, num_probes=3, rounds=2**64 - 1)
    # N fills the key file's 8-byte field, as it does for every BigKey
    with pytest.raises(ValueError):
        CipherParams(n_bits=2**64, msg_bits=5, num_probes=3, rounds=9)
    CipherParams(n_bits=2**64 - 1, msg_bits=5, num_probes=3, rounds=9)
    # rounds = 0 is the identity cipher, and legal
    CipherParams(n_bits=64, msg_bits=5, num_probes=3, rounds=0)


def test_probe_ceiling_is_checked_before_any_allocation():
    # k = 10^11 once reached a round, which built ceil(k / 8) mask groups
    # before its first oracle call and ran out of memory
    assert CipherParams(1000003, 16, _MAX_PROBES, 31).num_probes == 2**16
    tracemalloc.start()
    try:
        for k in (_MAX_PROBES + 1, 10**11):
            with pytest.raises(ValueError, match="num_probes"):
                CipherParams(1000003, 16, k, 31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_probe_draw_validation_and_indices():
    # the mask is packed: bit j - 1 selects probe j
    draw = ProbeDraw((4, 9, 2), 0b101)
    assert draw.subset_mask == 0b101
    assert ProbeDraw((), 0).subset_mask == 0
    for mask in (-1, 0b100):  # two probes take a 2-bit mask
        with pytest.raises(ValueError, match="out of range for 2 probes"):
            ProbeDraw((1, 2), mask)


# -- probe decoding ---------------------------------------------------------


def test_decode_rule_on_scripted_words():
    p = params_for(16)
    script = words(0, 1, 2) + b"\x05"  # mask bits 1 and 3
    oracle = ScriptedOracle(scripts={probe_query(p): script})
    draw = derive_probes(oracle, BitString.from_int(0, 4), 1, p)
    assert draw.probes == (1, 2, 3)
    assert draw.subset_mask == 0b101


def test_decode_wraps_modulo_n():
    p = params_for(16)
    script = words(16, 17, 2**64 - 1) + b"\x00"
    oracle = ScriptedOracle(scripts={probe_query(p): script})
    draw = derive_probes(oracle, BitString.from_int(0, 4), 1, p)
    # 16 % 16 + 1 = 1, 17 % 16 + 1 = 2, (2^64-1) % 16 + 1 = 16
    assert draw.probes == (1, 2, 16)
    assert draw.subset_mask == 0b000


def test_rejection_skips_out_of_band_words():
    # N = 3: the acceptance threshold is 3 * floor(2^64 / 3) = 2^64 - 1,
    # so the all-ones word is rejected and the next word is decoded
    p = CipherParams(n_bits=3, msg_bits=5, num_probes=1, rounds=9)
    script = words(2**64 - 1, 4) + b"\x01"
    oracle = ScriptedOracle(scripts={probe_query(p): script})
    draw = derive_probes(oracle, BitString.from_int(0, 4), 1, p)
    assert draw.probes == (2,)  # 4 % 3 + 1
    assert draw.subset_mask == 0b1


def test_power_of_two_n_never_rejects():
    p = CipherParams(n_bits=16, msg_bits=5, num_probes=2, rounds=9)
    script = words(2**64 - 1, 2**64 - 2) + b"\x00"
    oracle = ScriptedOracle(scripts={probe_query(p): script})
    draw = derive_probes(oracle, BitString.from_int(0, 4), 1, p)
    assert draw.probes == (16, 15)


def test_rejection_cap_raises():
    p = CipherParams(n_bits=3, msg_bits=5, num_probes=1, rounds=9)
    oracle = ScriptedOracle(default_script=b"\xff" * (8 * 1100))
    with pytest.raises(RuntimeError):
        derive_probes(oracle, BitString.from_int(0, 4), 1, p)


def test_stream_extension_preserves_prefix_decoding():
    # enough rejections to push past the initial request, then real words
    p = CipherParams(n_bits=3, msg_bits=5, num_probes=2, rounds=9)
    script = words(*([2**64 - 1] * 10), 4, 5) + b"\x03"
    oracle = ScriptedOracle(scripts={probe_query(p): script})
    draw = derive_probes(oracle, BitString.from_int(0, 4), 1, p)
    assert draw.probes == (2, 3)  # 4 % 3 + 1, 5 % 3 + 1
    assert draw.subset_mask == 0b11


def test_subset_mask_high_bits_dropped():
    p = params_for(16)
    script = words(0, 0, 0) + b"\xff"
    oracle = ScriptedOracle(scripts={probe_query(p): script})
    draw = derive_probes(oracle, BitString.from_int(0, 4), 1, p)
    assert draw.subset_mask == 0b111


def test_probes_always_in_range_production():
    p = CipherParams(n_bits=10, msg_bits=6, num_probes=7, rounds=9)
    oracle = Shake256Oracle()
    rng = random.Random(31)
    for _ in range(200):
        r = BitString.from_int(rng.getrandbits(5), 5)
        draw = derive_probes(oracle, r, rng.randrange(1, 100), p)
        assert len(draw.probes) == 7
        assert all(1 <= probe <= 10 for probe in draw.probes)
        assert 0 <= draw.subset_mask < 1 << 7


def test_probe_positions_roughly_uniform():
    # rejection sampling must not skew the distribution over a non-power
    # of two range; 4-sigma band around the expected bucket count
    p = CipherParams(n_bits=5, msg_bits=5, num_probes=1, rounds=9)
    oracle = Shake256Oracle()
    counts = {i: 0 for i in range(1, 6)}
    trials = 5000
    for round_index in range(1, trials + 1):
        draw = derive_probes(oracle, BitString.from_int(0, 4), round_index, p)
        counts[draw.probes[0]] += 1
    expected = trials / 5
    sigma = (trials * 0.2 * 0.8) ** 0.5
    for count in counts.values():
        assert abs(count - expected) <= 4 * sigma


def test_derive_probes_argument_checks():
    p = params_for(16)
    oracle = Shake256Oracle()
    with pytest.raises(ValueError):
        derive_probes(oracle, BitString.from_int(0, 4), 0, p)
    with pytest.raises(ValueError):
        derive_probes(oracle, BitString.from_int(0, 3), 1, p)


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
        assert round_bit(key, oracle, BitString.from_int(0, 4), 1, p) == expected


def test_empty_subset_forced_globally():
    # the all-zero default script sends every query to probes (1,..) with
    # the empty subset, so the PRF is identically zero for any key
    key = BigKey.generate(64, bytes(range(1, 9)))
    p = CipherParams(n_bits=64, msg_bits=6, num_probes=5, rounds=11)
    oracle = ScriptedOracle(default_script=b"")
    rng = random.Random(3)
    for _ in range(50):
        r = BitString.from_int(rng.getrandbits(5), 5)
        assert round_bit(key, oracle, r, rng.randrange(1, 50), p) == 0


def test_prf_deterministic_across_backend_instances():
    key = BigKey.generate(32, b"\xde\xad\xbe\xef")
    p = CipherParams(n_bits=32, msg_bits=7, num_probes=4, rounds=13)
    r = BitString.from_int(0b110100, 6)
    a = round_bit(key, Shake256Oracle(), r, 5, p)
    b = round_bit(key, Shake256Oracle(), r, 5, p)
    assert a == b


def test_prf_key_params_mismatch():
    # the staged rounds check the key once, before deriving any probe
    key = BigKey.generate(16, b"\x00\x00")
    p = CipherParams(n_bits=32, msg_bits=5, num_probes=3, rounds=9)
    for staged_round in (round_forward, round_backward):
        with pytest.raises(ValueError):
            staged_round(BitString.from_int(0, 5), 1, key, Shake256Oracle(), p)


def test_draw_bit_matches_manual_xor():
    key = BigKey.generate(16, b"\x4d\x80")
    draw = ProbeDraw((1, 16, 3, 3), 0b1011)  # probe j at bit j - 1
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
        r = BitString.from_int(pair[0], 11)
        ones += round_bit(key, oracle, r, pair[1], p)
    assert abs(ones / trials - 0.5) <= 4 * (0.25 / trials) ** 0.5


# N = 1001 rejects every word at or above 1001 * floor(2^64 / 1001)
_REJECT = b"\xff" * 8


def _rejecting_scripts(m, k, rounds):
    """Streams for every query of an m-bit cipher, in four kinds by
    (round, input): the first word rejected, a middle word rejected, ten
    words rejected so that the stream is extended past its first request,
    or no script (a seeded stream that never rejects in practice)."""
    scripts = {}
    for r in range(1, rounds + 1):
        for x in range(1 << (m - 1)):
            q = encode_query(PROBE_TAG, r, m, x)
            tail = hashlib.shake_256(q).digest(8 * k + 8)
            kind = (r + x) % 4
            if kind == 0:
                scripts[q] = _REJECT + tail
            elif kind == 1:
                scripts[q] = tail[: 8 * (k // 2)] + _REJECT + tail[8 * (k // 2):]
            elif kind == 2:
                scripts[q] = _REJECT * 10 + tail
    return scripts


@pytest.mark.parametrize("n_bits, rejecting", [(1001, True), (1 << 12, False)],
                         ids=["scripted-rejections-1001", "shake-4096"])
def test_round_function_matches_staged_pair_on_both_key_kinds(
        tmp_path, n_bits, rejecting):
    # encrypt under the first t rounds equals t staged round_forward steps,
    # and decrypt equals the round_backward chain, on held and mapped keys
    m, k, rounds = 9, 8, 17
    p = CipherParams(n_bits=n_bits, msg_bits=m, num_probes=k, rounds=rounds)
    if rejecting:
        oracle = ScriptedOracle(scripts=_rejecting_scripts(m, k, rounds), seed=9)
    else:
        oracle = Shake256Oracle()
    held = BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, n_bits))
    path = tmp_path / "round.key"
    held.save(path)
    rng = random.Random(n_bits)
    messages = [BitString.from_int(rng.getrandbits(m), m) for _ in range(16)]
    with BigKey.load(path) as mapped:
        for key in (held, mapped):
            ones = 0
            for msg in messages:
                state = msg
                for t in range(1, rounds + 1):
                    after = round_forward(state, t, key, oracle, p)
                    ones += state.split_lr()[0] ^ after.split_last()[1]
                    state = after
                    assert encrypt(msg, key, oracle, replace(p, rounds=t)) == state
                cipher = state
                for t in range(rounds, 0, -1):
                    state = round_backward(state, t, key, oracle, p)
                assert state == msg
                assert decrypt(cipher, key, oracle, p) == msg
            assert 0 < ones < rounds * len(messages)


def _boundary_scripts(n_bits, m, k, rounds):
    """Streams for every query of an m-bit cipher, in four kinds by
    (round, input): a word equal to threshold - 1, which begins with the
    rejection prefix, so that the kernel's prefix test sends it to
    ``_accept``, which accepts it; a word equal to the threshold, which is
    rejected; both; or neither.  The last mask byte has its bits above k
    set."""
    threshold = n_bits * (2**64 // n_bits)
    prefix = _reject_prefix(threshold)
    assert prefix and (threshold - 1).to_bytes(8, "big").startswith(prefix)
    scripts = {}
    for r in range(1, rounds + 1):
        for x in range(1 << (m - 1)):
            q = encode_query(PROBE_TAG, r, m, x)
            rng = random.Random(q)
            accepted = [rng.randrange(threshold) for _ in range(k)]
            kind = (r + x) % 4
            if kind & 1:
                accepted[rng.randrange(k)] = threshold - 1
            if kind & 2:
                accepted.insert(rng.randrange(k + 1), threshold)
            mask = bytearray(rng.randbytes((k + 7) // 8))
            mask[-1] |= 0xFF << k % 8 & 0xFF
            scripts[q] = words(*accepted) + bytes(mask)
    return scripts


@pytest.mark.parametrize("k", [5, 13])
def test_kernel_rejection_test_at_the_threshold(k):
    # encrypt and decrypt under the first t rounds equal t staged steps
    m, n_bits, rounds = 6, 1001, 11
    p = CipherParams(n_bits=n_bits, msg_bits=m, num_probes=k, rounds=rounds)
    oracle = ScriptedOracle(scripts=_boundary_scripts(n_bits, m, k, rounds))
    key = BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, k))
    for x in range(1 << m):
        msg = state = BitString.from_int(x, m)
        for t in range(1, rounds + 1):
            state = round_forward(state, t, key, oracle, p)
            part = replace(p, rounds=t)
            assert encrypt(msg, key, oracle, part) == state
            assert decrypt(state, key, oracle, part) == msg
        for t in range(rounds, 0, -1):
            state = round_backward(state, t, key, oracle, p)
        assert state == msg


def _record_accepts(monkeypatch):
    """The queries the cipher kernel passes to ``_accept``, as they come."""
    entered, inner = [], thorp._accept

    def accept(stream, query, data, k, threshold):
        entered.append(query)
        return inner(stream, query, data, k, threshold)

    monkeypatch.setattr(thorp, "_accept", accept)
    return entered


@pytest.mark.parametrize("k", [5, 13])
def test_kernel_sends_exactly_the_prefixed_rounds_to_accept(monkeypatch, k):
    # a round reaches _accept when one of its k words is threshold - 1 or
    # the threshold, and no other round does
    m, n_bits, rounds = 6, 1001, 11
    threshold = n_bits * (2**64 // n_bits)
    p = CipherParams(n_bits=n_bits, msg_bits=m, num_probes=k, rounds=rounds)
    scripts = _boundary_scripts(n_bits, m, k, rounds)
    oracle = ScriptedOracle(scripts=scripts)
    key = BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, k))
    streamed, inner, need = [], oracle.stream_bytes, 8 * k + (k + 7) // 8

    def stream_bytes(q, n):  # a round's first request; not its extensions
        if n == need:
            streamed.append(q)
        return inner(q, n)

    oracle.stream_bytes = stream_bytes
    entered = _record_accepts(monkeypatch)
    for x in range(1 << m):
        msg = BitString.from_int(x, m)
        assert decrypt(encrypt(msg, key, oracle, p), key, oracle, p) == msg
    edges = {q: {threshold - 1, threshold}.intersection(
        int.from_bytes(scripts[q][i : i + 8], "big") for i in range(0, 8 * k, 8))
        for q in streamed}
    assert entered == [q for q in streamed if edges[q]]
    # every case is met: below, at, and both sides of the threshold
    assert {frozenset(e) for e in edges.values()} == {
        frozenset(), frozenset({threshold - 1}), frozenset({threshold}),
        frozenset({threshold - 1, threshold})}


@settings(max_examples=300, deadline=None)
@given(n_bits=st.one_of(st.integers(1, 2**64 - 1),
                        st.builds(lambda e: 1 << e, st.integers(0, 63))),
       offset=st.integers(0, 2**64 - 1))
@example(n_bits=1 << 12, offset=0)
@example(n_bits=2**56 - 1, offset=0)
@example(n_bits=2**56, offset=0)
@example(n_bits=1001, offset=0)
@example(n_bits=10**6 + 3, offset=0)
@example(n_bits=2**56 + 1, offset=2**64 - 1)
@example(n_bits=2**63 + 1, offset=0)
@example(n_bits=2**64 - 1, offset=0)
def test_every_rejected_word_begins_with_the_prefix(n_bits, offset):
    threshold = n_bits * (2**64 // n_bits)
    prefix = _reject_prefix(threshold)
    assert prefix == b"\xff" * len(prefix)
    # empty only when 2^64 mod N >= 2^56, which needs N > 2^56
    assert (prefix == b"") == (2**64 - threshold >= 2**56)
    if n_bits == 10**6 + 3:
        assert len(prefix) == 5
    if threshold == 2**64:  # N is a power of two: no word is rejected
        return
    span = 2**64 - threshold
    for word in (threshold, threshold + offset % span, 2**64 - 1):
        assert word.to_bytes(8, "big").startswith(prefix)


_EDGES = (2**56 - 1, 2**56, 2**56 + 1, 2**63 + 1, 2**64 - 1)


def _with_edges(test):
    # each edge N with an all-zero response, the prefix spliced into one,
    # and a lone 0xFF byte, which holds a prefix of one byte only
    for n_bits in _EDGES:
        for body, at in ((bytes(65), None), (bytes(65), 7),
                         (b"\xff" + bytes(64), None)):
            test = example(n_bits=n_bits, body=body, at=at)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(n_bits=st.integers(1, 2**64 - 1),
       body=st.binary(min_size=65, max_size=65),
       at=st.none() | st.integers(0, 65))
@_with_edges
def test_kernel_screen_passes_every_response_that_holds_the_prefix(
        n_bits, body, at):
    # the kernel sends a round to _accept exactly when its response holds
    # the prefix: the one-byte screen passes every such response, and every
    # response when the prefix is empty (2^64 mod N >= 2^56); a key of more
    # than 2^56 bits cannot be held, so an all-zero stand-in takes its place
    prefix = _reject_prefix(n_bits * (2**64 // n_bits))
    if at is not None:
        at %= 66 - len(prefix)
        body = body[:at] + prefix + body[at + len(prefix):]
    p = CipherParams(n_bits=n_bits, msg_bits=2, num_probes=8, rounds=1)
    key = SimpleNamespace(n_bits=n_bits, _buf=defaultdict(int))
    oracle = ScriptedOracle(default_script=body)
    msg = BitString.from_int(2, 2)
    with pytest.MonkeyPatch.context() as mp:
        entered = _record_accepts(mp)
        assert decrypt(encrypt(msg, key, oracle, p), key, oracle, p) == msg
    pow2 = n_bits & (n_bits - 1) == 0  # nothing rejects
    assert len(entered) == (0 if pow2 or prefix not in body else 2)


def test_bench_shape_rounds_skip_the_exact_check(monkeypatch):
    # at N = 10^6 + 3 the prefix is five 0xFF bytes, which a SHAKE-256 round
    # of 65 bytes all but never holds; the top-byte test it replaced sent
    # about 3% of these rounds to _accept.  The one-byte screen passes the
    # rounds whose response holds any 0xFF byte, 1 - (255/256)^65 = 22.5%
    # of them, on to the substring test
    n_bits, m, k = 10**6 + 3, 16, 8
    p = CipherParams.from_passes(n_bits, m, k, 1)
    key = BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, 35))
    oracle, rng = RecordingOracle(), random.Random(35)
    entered = _record_accepts(monkeypatch)
    for _ in range(2000):
        encrypt(BitString.from_int(rng.getrandbits(m), m), key, oracle, p)
    assert len(oracle.calls) == 2000 * p.rounds
    assert entered == []
    screened = sum(255 in hashlib.shake_256(q).digest(n) for q, n in oracle.calls)
    assert 0.21 < screened / len(oracle.calls) < 0.24


def test_plan_follows_the_params_it_was_built_from():
    # the shape constants live on each CipherParams: a new round count gets
    # its own plan, and the dataclass's repr, == and hash stay its fields'
    p = CipherParams.from_passes(1001, 9, 8, 1)
    key = BigKey.generate(1001, seed_randomness(126, 2))
    msg, oracle = BitString.from_int(300, 9), RecordingOracle()
    cipher = encrypt(msg, key, oracle, p)
    assert len(oracle.calls) == p.rounds == 17
    assert repr(p) == ("CipherParams(n_bits=1001, msg_bits=9, num_probes=8, "
                       "rounds=17)")
    assert p == CipherParams(1001, 9, 8, 17)
    assert hash(p) == hash(CipherParams(1001, 9, 8, 17)) == hash((1001, 9, 8, 17))
    for t in (3, 0, 17, 40, 5, 5):
        # each replacement is dropped after its call, so the next one may
        # take its id
        state = msg
        for r in range(1, t + 1):
            state = round_forward(state, r, key, oracle, p)
        oracle.calls.clear()
        assert encrypt(msg, key, oracle, replace(p, rounds=t)) == state
        assert len(oracle.calls) == t
        assert decrypt(state, key, oracle, replace(p, rounds=t)) == msg
        assert len(oracle.calls) == 2 * t
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and encrypt(msg, key, oracle, copy) == cipher


def _record_sizes(oracle):
    """The sizes of the oracle's ``stream_bytes`` requests, as they are made."""
    sizes, inner = [], oracle.stream_bytes

    def stream_bytes(query_bytes, n):
        sizes.append(n)
        return inner(query_bytes, n)

    oracle.stream_bytes = stream_bytes
    return sizes


def test_rejected_round_continues_from_the_first_response():
    # every round's stream leads with a word that N = 1001 rejects, so a
    # round reads one 512-byte extension past its first 8k + 1 bytes, and
    # never asks again for those first bytes
    oracle = ScriptedOracle(default_script=_REJECT
                            + hashlib.shake_256(b"once").digest(80))
    sizes = _record_sizes(oracle)
    p = CipherParams.from_passes(1001, 9, 8, 1)
    key = BigKey.generate(1001, seed_randomness(126, 1))
    msg = BitString.from_int(300, 9)
    cipher = encrypt(msg, key, oracle, p)
    assert sizes == [65, 577] * p.rounds
    assert decrypt(cipher, key, oracle, p) == msg
    assert sizes == [65, 577] * 2 * p.rounds


def test_mask_bytes_read_past_the_extension():
    # k = 64 needs 520 bytes; 65 rejected words use them all, 64 accepted
    # words fill the 512-byte extension exactly, and the 8 mask bytes after
    # them need one more request
    m, k, n_bits, rounds = 4, 64, 1001, 5
    threshold = n_bits * (2**64 // n_bits)
    p = CipherParams(n_bits=n_bits, msg_bits=m, num_probes=k, rounds=rounds)
    scripts, draws = {}, {}
    for r in range(1, rounds + 1):
        for x in range(1 << (m - 1)):
            rng = random.Random(f"{r}/{x}")
            accepted = [rng.randrange(threshold) for _ in range(k)]
            mask = rng.randbytes(8)
            scripts[encode_query(PROBE_TAG, r, m, x)] = (
                _REJECT * 65 + words(*accepted) + mask)
            draws[r, x] = ProbeDraw(
                tuple(w % n_bits + 1 for w in accepted),
                int.from_bytes(mask, "little"))
    oracle = ScriptedOracle(scripts=scripts)
    sizes = _record_sizes(oracle)
    for (r, x), want in draws.items():
        assert derive_probes(oracle, BitString.from_int(x, m - 1), r, p) == want
        assert sizes == [520, 1032, 1040]
        sizes.clear()
    key = BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, k))
    for x in range(1 << m):
        msg = state = BitString.from_int(x, m)
        for t in range(1, rounds + 1):
            state = round_forward(state, t, key, oracle, p)
        sizes.clear()
        assert encrypt(msg, key, oracle, p) == state
        assert sizes == [520, 1032, 1040] * rounds
        assert decrypt(state, key, oracle, p) == msg


def test_pick_tables_are_built_on_first_use():
    code = (
        "import bigthorp as bt\n"
        "from bigthorp.thorp import _picks\n"
        "assert _picks.cache_info().currsize == 0\n"
        "key = bt.BigKey.generate(1001, bt.seed_randomness(126, 1))\n"
        "p = bt.CipherParams.from_passes(1001, 9, 13, 1)\n"
        "bt.encrypt(bt.BitString.from_int(300, 9), key, bt.Shake256Oracle(), p)\n"
        "assert _picks.cache_info().currsize == 2\n"  # widths 8 and 5
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


class RecordingOracle(Shake256Oracle):
    def __init__(self):
        super().__init__()
        self.calls = []

    def stream_bytes(self, query_bytes, n):
        self.calls.append((query_bytes, n))
        return super().stream_bytes(query_bytes, n)


@pytest.mark.parametrize("m, k, n_bits", [  # ids "m-k" at N = 2^12
    pytest.param(m, k, n, id=f"{m}-{k}" + ("" if n == 1 << 12 else f"-{n}"))
    for n in (1 << 12, 10**6 + 3)
    for m, k in [(2, 1), (9, 8), (16, 13), (17, 5), (64, 64), (65, 9)]])
def test_cipher_queries_match_encode_query(m, k, n_bits):
    # no word of these streams is rejected (none can be when N is a power
    # of two): one request per round, in both directions, for the
    # serialized query of (round, round input) and the k probe words plus
    # the mask bytes
    p = CipherParams.from_passes(n_bits, m, k, 1)
    key = BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, m))
    need = 8 * k + (k + 7) // 8
    msg = BitString.from_int(random.Random(m).getrandbits(m), m)
    staged = Shake256Oracle()
    for forward in (True, False):
        oracle = RecordingOracle()
        cipher = (encrypt if forward else decrypt)(msg, key, oracle, p)
        order = range(1, p.rounds + 1) if forward else range(p.rounds, 0, -1)
        step = round_forward if forward else round_backward
        want, state = [], msg
        for r in order:
            rest = state.split_lr()[1] if forward else state.split_last()[0]
            want.append((encode_query(PROBE_TAG, r, m, rest.to_int()), need))
            state = step(state, r, key, staged, p)
        assert oracle.calls == want
        assert cipher == state


# a stream that leads with two rejected words is decoded only after extension
_REJECTING_HEAD = _REJECT * 2


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
    inputs = [(rng.randrange(1, 1 << 16), rng.getrandbits(15)) for _ in range(48)]
    queries = [encode_query(PROBE_TAG, r, 16, x) for r, x in inputs]
    oracle = _batch_oracle(kind, queries, k)
    threshold, need = n_bits * (2**64 // n_bits), 8 * k + (k + 7) // 8
    held = BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, k))
    path = tmp_path / "batch.key"
    held.save(path)
    with BigKey.load(path) as mapped:
        for key in (held, mapped):
            bits, got = _round_bits(p, key, oracle.stream_bytes, queries)
            assert got.shape == (len(queries), k)
            for (r, x), q, f, row in zip(inputs, queries, bits.tolist(),
                                         got.tolist()):
                draw = derive_probes(oracle, BitString.from_int(x, 15), r, p)
                assert f == draw_bit(key, draw)
                assert tuple(pos + 1 for pos in row) == draw.probes
                data = _accept(oracle.stream_bytes, q,
                               oracle.stream_bytes(q, need), k, threshold)
                assert row == [int.from_bytes(data[i : i + 8], "big") % n_bits
                               for i in range(0, 8 * k, 8)]
        # neither the kernel nor its output keeps a view of the mapping
        mapped.close()


def test_import_leaves_numpy_unloaded():
    # importing the package and running the cipher both stay numpy-free
    code = (
        "import sys, bigthorp as bt\n"
        "assert 'numpy' not in sys.modules\n"
        "key = bt.BigKey.generate(1001, bt.seed_randomness(126, 1))\n"
        "p = bt.CipherParams.from_passes(1001, 9, 8, 1)\n"
        "o = bt.Shake256Oracle()\n"
        "msg = bt.BitString.from_int(300, 9)\n"
        "assert bt.decrypt(bt.encrypt(msg, key, o, p), key, o, p) == msg\n"
        "assert 'numpy' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
