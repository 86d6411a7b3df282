"""Property tests: cipher inversion, bit-string codecs, key-file fail-closed.

Example counts are capped so the file adds only a few seconds to the suite.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigthorp.bigkey import BigKey, KeyFileError, seed_randomness
from bigthorp.bitstring import BitString
from bigthorp.oracle import ScriptedOracle
from bigthorp.prf import CipherParams
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
    assert BitString.from_bytes(bits.to_bytes(), n) == bits
    assert BitString.from_hex(bits.to_hex(), n) == bits
    assert BitString(bits.bits()) == bits


def _rejected(path, raw):
    path.write_bytes(raw)
    with pytest.raises(KeyFileError):
        BigKey.load(path)


@settings(max_examples=3, deadline=None)
@given(n_bits=st.integers(8, 200), seed=st.integers(0, 2**32))
def test_damaged_key_file_never_loads(tmp_path_factory, n_bits, seed):
    path = tmp_path_factory.mktemp("fuzz") / "key.bk"
    BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, seed)).save(path)
    raw = path.read_bytes()
    for cut in range(len(raw)):
        _rejected(path, raw[:cut])
    header = 4 + 1 + 1 + raw[5] + 8
    # the header, and the header checksum that ends the file
    for pos in [*range(header), *range(len(raw) - 4, len(raw))]:
        for value in range(256):
            if value != raw[pos]:
                _rejected(path, raw[:pos] + bytes([value]) + raw[pos + 1:])
