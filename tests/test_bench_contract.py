"""The library surface that the benchmark harness in ``perfbench/`` uses.

``test_bench_smoke.py`` runs the whole harness once per trace mode; these
tests drive its traced replay, its reference cipher and its suite calls on
small inputs, so a change to the library that would break a benchmark run
fails here with the call that broke.
"""

import hashlib
import inspect
import math
import random
import sys
from pathlib import Path

import pytest

from bigthorp import (BigKey, BitString, CipherParams, ScriptedOracle,
                      Shake256Oracle, decrypt, encrypt, seed_randomness, verify)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import reference  # noqa: E402
import tracing  # noqa: E402


def _setup(n_bits, oracle, blocks=4):
    key = BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, n_bits))
    params = CipherParams.from_passes(n_bits, 16, 8, 1)
    rng = random.Random(n_bits)
    pairs = []
    for _ in range(blocks):
        x = rng.getrandbits(16)
        pairs.append((x, encrypt(BitString.from_int(x, 16), key, oracle,
                                 params).to_int()))
    return key, params, pairs


# N = 1001 rejects every word at or above 1001 * floor(2^64 / 1001); the
# script leads each stream with two such words, so every round extends it
REJECTING = ScriptedOracle(
    default_script=b"\xff" * 16 + hashlib.shake_256(b"contract").digest(65))


@pytest.mark.parametrize("n_bits, oracle",
                         [(1001, REJECTING), (1 << 12, Shake256Oracle())],
                         ids=["scripted-rejections-1001", "shake-4096"])
def test_traced_replay_matches_the_library(n_bits, oracle):
    key, params, pairs = _setup(n_bits, oracle)
    acc = tracing.replay(key, oracle, params, pairs)
    assert acc["mismatches"] == 0
    assert acc["rounds"] == 2 * len(pairs) * params.rounds
    assert math.isfinite(tracing.overhead_frac(key, oracle, params, pairs))


def test_reference_cipher_matches_the_library(tmp_path):
    oracle = Shake256Oracle()
    key, params, pairs = _setup(1001, oracle, blocks=8)
    path = tmp_path / "contract.key"
    key.save(path)
    ref = reference.ReferenceCipher(path, params.msg_bits, params.num_probes,
                                    params.rounds)
    try:
        for x, y in pairs:
            assert ref.encrypt(x) == y
            assert ref.decrypt(y) == x
    finally:
        ref.close()


def test_query_count_counts_distinct_queries_of_a_block():
    oracle = Shake256Oracle()
    key, params, _ = _setup(1 << 12, oracle, blocks=0)
    msg = BitString.from_int(0xBEEF, 16)
    assert decrypt(encrypt(msg, key, oracle, params), key, oracle,
                   params) == msg
    # decrypt repeats the queries of its encrypt, one per round
    assert oracle.query_count == params.rounds


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suites_take_no_arguments(name):
    inspect.signature(verify.SUITES[name]).bind()
