"""Golden ciphertexts, pinned from a reference written apart from the library.

The reference below follows only the documented layouts: the query bytes
of ``oracle.py``, the probe decoding and the Feistel round of ``thorp.py``,
the key-bit packing of ``bigkey.py`` and the message bits of
``bitstring.py``.  It uses nothing but ``hashlib.shake_256``, so these
vectors never check the library against its own output.  Blocks are big-endian hex: the first digit holds bit 1.
"""

import hashlib

import pytest

from bigthorp import (
    BigKey,
    BitString,
    CipherParams,
    Oracle,
    ScriptedOracle,
    Shake256Oracle,
    decrypt,
    encrypt,
)

# -- reference ---------------------------------------------------------------


def key_bytes(n_bits, label):
    data = bytearray(hashlib.shake_256(b"golden key " + label.encode())
                     .digest((n_bits + 7) // 8))
    if n_bits % 8:
        data[-1] &= (1 << n_bits % 8) - 1
    return bytes(data)


def probe_query(m, round_index, r_value):
    return (b"\x01" + round_index.to_bytes(8, "big") + m.to_bytes(2, "big")
            + r_value.to_bytes((m - 1 + 7) // 8, "big"))


def shake_stream(query, n):
    return hashlib.shake_256(query).digest(n)


def ref_f(stream, key, n_bits, m, k, r_value, round_index):
    query = probe_query(m, round_index, r_value)
    threshold = n_bits * (2**64 // n_bits)
    mask_bytes = (k + 7) // 8
    size = 8 * k + mask_bytes
    while True:
        data = stream(query, size)
        probes, pos = [], 0
        while len(probes) < k and pos + 8 <= size:
            word = int.from_bytes(data[pos:pos + 8], "big")
            pos += 8
            if word < threshold:
                probes.append(word % n_bits + 1)
        if len(probes) == k and pos + mask_bytes <= size:
            break
        size *= 2
    mask = int.from_bytes(data[pos:pos + mask_bytes], "little")
    bit = 0
    for j, p in enumerate(probes):
        if mask >> j & 1:
            bit ^= key[(p - 1) // 8] >> ((p - 1) % 8) & 1
    return bit


def ref_encrypt(stream, key, n_bits, m, k, rounds, x):
    low = (1 << (m - 1)) - 1
    for r in range(1, rounds + 1):
        left, rest = x >> (m - 1), x & low
        x = (rest << 1) | (left ^ ref_f(stream, key, n_bits, m, k, rest, r))
    return x


# -- cases -------------------------------------------------------------------

# name: (n_bits, msg_bits, num_probes, rounds, [(plaintext, ciphertext)])
SHAKE_CASES = {
    "m2": (1001, 2, 1, 3, [("0", "1"), ("1", "2"), ("3", "3")]),
    "m11": (10**6 + 3, 11, 5, 42,
            [("000", "309"), ("7ff", "0ba"), ("5a3", "267")]),
    "m16": (1 << 16, 16, 8, 31,
            [("0000", "acdb"), ("ffff", "5f8e"), ("c0de", "69da")]),
    "m64": (1 << 20, 64, 64, 127,
            [("0000000000000000", "21cf3ba6dabae7bb"),
             ("ffffffffffffffff", "c43bf0e9874a4420"),
             ("0123456789abcdef", "22c700a2ab620e96")]),
    "m128": (4099, 128, 16, 255,
             [("0" * 32, "26fced84f458cdb9bb53ff8089e0f03f"),
              ("f" * 32, "2e2543b890f5a61555a6b3ca3272a266"),
              ("0123456789abcdef" * 2, "ccee96a9015b17b45c1cc292e7cfa932")]),
    "rounds0": (4099, 16, 8, 0, [("0000", "0000"), ("c0de", "c0de")]),
    "rounds7": (4099, 16, 8, 7,
                [("0000", "0028"), ("ffff", "ff98"), ("c0de", "6f32")]),
}

FILE_CASE = ((1 << 20) + 5, 64, 64, 127,
             [("0000000000000000", "2e3a050cb9cc5b9c"),
              ("0123456789abcdef", "0fca4f81b62e4447")])

SCRIPTED_CASE = (1001, 6, 3, 11,
                 [("00", "09"), ("3f", "0f"), ("2a", "25")])


def scripted_bodies(n_bits, m, k, rounds):
    """Every query starts with 2..6 all-ones words, which N = 1001 rejects.

    Even two rejected words push the decode past the initial request of
    8k + ceil(k / 8) bytes, so every round extends its stream.
    """
    assert n_bits * (2**64 // n_bits) <= 2**64 - 1
    bodies = {}
    for r in range(1, rounds + 1):
        for v in range(1 << (m - 1)):
            query = probe_query(m, r, v)
            rejected = 2 + (r + v) % 5
            bodies[query] = (b"\xff" * 8 * rejected + hashlib.shake_256(
                b"golden script " + query).digest(8 * k + 1))
    return bodies


def scripted_stream(bodies):
    return lambda query, n: (bodies[query] + bytes(n))[:n]


def check_vectors(key, oracle, params, vectors):
    for plain, want in vectors:
        ct = encrypt(BitString.from_hex(plain, params.msg_bits), key, oracle,
                     params)
        assert ct.to_hex() == want
        back = decrypt(BitString.from_hex(want, params.msg_bits), key, oracle,
                       params)
        assert back.to_hex() == plain


# -- tests -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SHAKE_CASES))
def test_reference_reproduces_pinned_vectors(name):
    n_bits, m, k, rounds, vectors = SHAKE_CASES[name]
    key = key_bytes(n_bits, name)
    for plain, want in vectors:
        got = ref_encrypt(shake_stream, key, n_bits, m, k, rounds,
                          int(plain, 16))
        assert got == int(want, 16)


@pytest.mark.parametrize("name", sorted(SHAKE_CASES))
def test_library_matches_golden_vectors(name):
    n_bits, m, k, rounds, vectors = SHAKE_CASES[name]
    key = BigKey.generate(n_bits, key_bytes(n_bits, name))
    params = CipherParams(n_bits=n_bits, msg_bits=m, num_probes=k,
                          rounds=rounds)
    check_vectors(key, Shake256Oracle(), params, vectors)


def test_file_backed_key_matches_golden_vectors(tmp_path):
    n_bits, m, k, rounds, vectors = FILE_CASE
    data = key_bytes(n_bits, "file")
    for plain, want in vectors:
        assert ref_encrypt(shake_stream, data, n_bits, m, k, rounds,
                           int(plain, 16)) == int(want, 16)
    path = tmp_path / "golden.key"
    BigKey.generate(n_bits, data).save(path)
    params = CipherParams(n_bits=n_bits, msg_bits=m, num_probes=k,
                          rounds=rounds)
    with BigKey.load(path) as key:
        check_vectors(key, Shake256Oracle(), params, vectors)


def test_scripted_rejections_match_golden_vectors():
    n_bits, m, k, rounds, vectors = SCRIPTED_CASE
    data = key_bytes(n_bits, "scripted")
    bodies = scripted_bodies(n_bits, m, k, rounds)
    for plain, want in vectors:
        assert ref_encrypt(scripted_stream(bodies), data, n_bits, m, k,
                           rounds, int(plain, 16)) == int(want, 16)
    params = CipherParams(n_bits=n_bits, msg_bits=m, num_probes=k,
                          rounds=rounds)
    check_vectors(BigKey.generate(n_bits, data), ScriptedOracle(bodies),
                  params, vectors)


def rejecting_stream(query, n):
    """SHAKE-256 with every word whose first byte is below 64 (about a
    quarter of them) replaced by all ones, which every N that is not a power
    of two rejects.  Each word depends only on its own bytes, so the stream
    stays prefix-consistent."""
    size = -(-n // 8) * 8
    data = bytearray(hashlib.shake_256(b"golden sweep " + query).digest(size))
    for pos in range(0, size, 8):
        if data[pos] < 64:
            data[pos:pos + 8] = b"\xff" * 8
    return bytes(data[:n])


class RejectingOracle(Oracle):
    def stream_bytes(self, query_bytes, n):
        return rejecting_stream(query_bytes, n)


SWEEP_K = (*range(1, 18), 63, 64, 65)


@pytest.mark.parametrize("n_bits", [1 << 12, 1001, 10**6 + 3])
def test_kernel_matches_reference_at_every_group_width(tmp_path, n_bits):
    # every tail width k % 8, with and without full groups of 8 words, on
    # held and mapped keys; the streams reject words unless N is 2^12
    m = 7
    data = key_bytes(n_bits, "sweep")
    path = tmp_path / "sweep.key"
    BigKey.generate(n_bits, data).save(path)
    oracle = RejectingOracle()
    with BigKey.load(path) as mapped:
        keys = (BigKey.generate(n_bits, data), mapped)
        for k in SWEEP_K:
            params = CipherParams.from_passes(n_bits, m, k, 1)
            for plain in (0, 0x55, 1 << m - 1 | k):
                want = ref_encrypt(rejecting_stream, data, n_bits, m, k,
                                   params.rounds, plain)
                msg = BitString.from_int(plain, m)
                for key in keys:
                    ct = encrypt(msg, key, oracle, params)
                    assert ct.to_int() == want
                    assert decrypt(ct, key, oracle, params) == msg
