"""Packing convention, codecs and structural ops of BitString."""

import random

import pytest

from bigthorp import BitString


def test_packing_bit_positions():
    # bit i lives at position (i-1) % 8 of byte (i-1) // 8
    b = BitString.from_bytes(b"\x05", 3)
    assert b.bits() == (1, 0, 1)
    assert (b.get_bit(1), b.get_bit(2), b.get_bit(3)) == (1, 0, 1)
    assert b.to_bytes() == b"\x05"


def test_packing_spans_byte_boundary():
    b = BitString.from_bytes(bytes([0b10000000, 0b00000001]), 9)
    assert b.get_bit(8) == 1
    assert b.get_bit(9) == 1
    assert sum(b.bits()) == 2


def test_constructor_accepts_binary_string_and_ints():
    assert BitString("101").bits() == (1, 0, 1)
    assert BitString([1, 0, 1]) == BitString("101")
    assert BitString(()).to_bytes() == b""
    assert len(BitString("")) == 0
    with pytest.raises(ValueError):
        BitString("102")
    with pytest.raises(ValueError):
        BitString([2])


def test_zeros():
    z = BitString.zeros(10)
    assert len(z) == 10
    assert all(bit == 0 for bit in z)
    with pytest.raises(ValueError):
        BitString.zeros(-1)


def test_from_bytes_rejects_dirty_padding():
    # 3-bit string must leave positions 4..8 of its byte clear
    with pytest.raises(ValueError):
        BitString.from_bytes(b"\x08", 3)
    BitString.from_bytes(b"\x07", 3)  # all three bits set is fine


def test_from_bytes_rejects_wrong_length():
    with pytest.raises(ValueError):
        BitString.from_bytes(b"\x00\x00", 3)
    with pytest.raises(ValueError):
        BitString.from_bytes(b"", 3)


def test_bytes_round_trip_random():
    rng = random.Random(42)
    for _ in range(200):
        length = rng.randrange(0, 70)
        bits = [rng.randrange(2) for _ in range(length)]
        b = BitString(bits)
        assert BitString.from_bytes(b.to_bytes(), length) == b
        assert b.bits() == tuple(bits)


def test_get_bit_out_of_range():
    b = BitString("101")
    for i in (0, -1, 4):
        with pytest.raises(IndexError):
            b.get_bit(i)


def test_split_lr():
    left, rest = BitString("101").split_lr()
    assert left == 1
    assert rest == BitString("01")
    with pytest.raises(ValueError):
        BitString("1").split_lr()
    with pytest.raises(ValueError):
        BitString("").split_lr()


def test_split_last():
    head, last = BitString("101").split_last()
    assert head == BitString("10")
    assert last == 1
    with pytest.raises(ValueError):
        BitString("").split_last()


def test_split_concat_inverse_random():
    rng = random.Random(7)
    for _ in range(200):
        length = rng.randrange(2, 64)
        b = BitString([rng.randrange(2) for _ in range(length)])
        left, rest = b.split_lr()
        assert rest.prepend_bit(left) == b
        head, last = b.split_last()
        assert head.append_bit(last) == b


def test_hex_codec_big_endian():
    # hex is big-endian: bit 1 of the parsed string is the MSB of the value
    b = BitString.from_hex("6", 3)
    assert b.to_binstr() == "110"
    assert b.to_bytes() == b"\x03"
    assert b.to_hex() == "6"
    assert BitString.from_hex("0a", 8).to_hex() == "0a"
    assert BitString.from_hex("A", 4) == BitString.from_hex("a", 4)


def test_hex_width_is_ceil_of_quarter_length():
    assert BitString.zeros(5).to_hex() == "00"
    assert BitString.zeros(12).to_hex() == "000"
    assert BitString("").to_hex() == ""
    assert BitString.from_hex("", 0) == BitString.zeros(0)


def test_hex_rejects_values_too_wide():
    with pytest.raises(ValueError):
        BitString.from_hex("20", 5)  # 32 needs 6 bits
    BitString.from_hex("1f", 5)
    with pytest.raises(ValueError):
        BitString.from_hex("zz", 8)
    with pytest.raises(ValueError):
        BitString.from_hex("zz", 0)
    with pytest.raises(ValueError):
        BitString.from_hex("", 8)
    with pytest.raises(ValueError):
        BitString.from_hex("-5", 8)


def test_hex_round_trip_random():
    rng = random.Random(99)
    for _ in range(200):
        length = rng.randrange(1, 130)
        value = rng.getrandbits(length)
        b = BitString.from_int(value, length)
        assert b.to_int() == value
        assert BitString.from_hex(b.to_hex(), length) == b


def test_from_int_range():
    with pytest.raises(ValueError):
        BitString.from_int(8, 3)
    with pytest.raises(ValueError):
        BitString.from_int(-1, 3)
    assert BitString.from_int(0, 0) == BitString("")


def test_equality_and_hash():
    assert BitString("01") == BitString([0, 1])
    assert BitString("01") != BitString("010")
    assert BitString("01") != "01"
    d = {BitString("01"): 1}
    assert d[BitString([0, 1])] == 1


def test_repr_small_and_large():
    assert "101" in repr(BitString("101"))
    assert "length=200" in repr(BitString.zeros(200))


def test_immutability_via_slots():
    b = BitString("101")
    with pytest.raises(AttributeError):
        b.extra = 1
