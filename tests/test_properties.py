"""Property tests: cipher inversion, bit-string codecs, key-file fail-closed.

Example counts are capped so the file adds only a few seconds to the suite.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigthorp.bigkey import (
    _HEAD_MAX,
    BigKey,
    KeyFileError,
    _decode,
    seed_randomness,
)
from bigthorp.bitstring import BitString
from bigthorp.oracle import ScriptedOracle
from bigthorp.thorp import CipherParams
from bigthorp.thorp import decrypt, encrypt

KEY_BITS = 1 << 12
_KEY = BigKey.generate(KEY_BITS, seed_randomness(KEY_BITS // 8, 31))


@st.composite
def bit_strings(draw):
    length = draw(st.integers(0, 300))
    return BitString.from_int(draw(st.integers(0, (1 << length) - 1)), length)


@settings(max_examples=150, deadline=None)
@given(
    width=st.integers(2, 300),
    probes=st.integers(1, 16),
    rounds=st.integers(0, 40),
    oracle_seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_decrypt_inverts_encrypt(width, probes, rounds, oracle_seed, data):
    params = CipherParams(n_bits=KEY_BITS, msg_bits=width, num_probes=probes,
                          rounds=rounds)
    oracle = ScriptedOracle(seed=oracle_seed)
    x = BitString.from_int(data.draw(st.integers(0, (1 << width) - 1)), width)
    y = encrypt(x, _KEY, oracle, params)
    assert len(y) == width
    assert decrypt(y, _KEY, oracle, params) == x
    if rounds == 0:
        assert y == x


@settings(max_examples=200, deadline=None)
@given(bits=bit_strings())
def test_bitstring_codecs_round_trip(bits):
    n = len(bits)
    assert BitString.from_int(bits.to_int(), n) == bits
    assert BitString.from_hex(bits.to_hex(), n) == bits


def _corrupted(raw, header):
    """Every single-byte change of the header and of the header checksum
    that ends the file, then one key byte inserted and one deleted: those
    two keep the head and the tail intact, so only the size check sees
    them."""
    for pos in [*range(header), *range(len(raw) - 4, len(raw))]:
        for value in range(256):
            if value != raw[pos]:
                yield raw[:pos] + bytes([value]) + raw[pos + 1:]
    yield raw[:header] + b"\x00" + raw[header:]
    yield raw[:header] + raw[header + 1:]


def _decoded(raw):
    return _decode(raw[:_HEAD_MAX], raw[-5:], len(raw))


def _refusal(raw):
    """The message ``_decode`` refuses ``raw`` with (no ``pytest.raises``:
    it costs three times the decode, and the fuzz decodes 10^5 files)."""
    try:
        _decoded(raw)
    except KeyFileError as e:
        return str(e)
    pytest.fail(f"damaged key file decoded: {raw.hex()}")


def _rejected(path, raw):
    path.write_bytes(raw)
    with pytest.raises(KeyFileError):
        BigKey.load(path)


@settings(max_examples=30, deadline=None)
@given(n_bits=st.integers(8, 1000), seed=st.integers(0, 2**32),
       data=st.data())
def test_damaged_key_file_never_loads(tmp_path_factory, n_bits, seed, data):
    path = tmp_path_factory.mktemp("fuzz") / "key.bk"
    BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, seed)).save(path)
    raw = path.read_bytes()
    header = 4 + 1 + 1 + len("shake256") + 8
    assert _decoded(raw) == (n_bits, header)
    for cut in range(len(raw)):
        want = ("bad magic" if cut < 4 else "truncated header" if cut < header
                else "expected")
        assert want in _refusal(raw[:cut])
    for bad in _corrupted(raw, header):
        _refusal(bad)
    # one case of each kind also goes through load on a real file
    cut = data.draw(st.integers(0, len(raw) - 1))
    _rejected(path, raw[:cut])
    for pos in (data.draw(st.integers(0, header - 1)),
                data.draw(st.integers(len(raw) - 4, len(raw) - 1))):
        value = data.draw(st.integers(0, 255).filter(lambda v: v != raw[pos]))
        _rejected(path, raw[:pos] + bytes([value]) + raw[pos + 1:])
    path.write_bytes(raw)
    with BigKey.load(path) as key:
        assert key.n_bits == n_bits
