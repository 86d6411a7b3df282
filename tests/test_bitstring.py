"""Codecs and structural ops of BitString."""

import ast
import random
from pathlib import Path

import pytest

from bigthorp import BitString, bitstring


def test_split_lr():
    left, rest = BitString.from_int(0b101, 3).split_lr()
    assert left == 1
    assert rest == BitString.from_int(0b01, 2)
    with pytest.raises(ValueError):
        BitString.from_int(0b1, 1).split_lr()
    with pytest.raises(ValueError):
        BitString.from_int(0, 0).split_lr()


def test_split_last():
    head, last = BitString.from_int(0b101, 3).split_last()
    assert head == BitString.from_int(0b10, 2)
    assert last == 1
    with pytest.raises(ValueError):
        BitString.from_int(0, 0).split_last()


def test_split_concat_inverse_random():
    rng = random.Random(7)
    for _ in range(200):
        length = rng.randrange(2, 64)
        b = BitString.from_int(rng.getrandbits(length), length)
        left, rest = b.split_lr()
        assert rest.prepend_bit(left) == b
        head, last = b.split_last()
        assert head.append_bit(last) == b
    with pytest.raises(ValueError):
        BitString.from_int(0b1, 1).append_bit(2)
    with pytest.raises(ValueError):
        BitString.from_int(0b1, 1).prepend_bit(-1)


def test_hex_codec_big_endian():
    # hex is big-endian: bit 1 of the parsed string is the MSB of the value
    b = BitString.from_hex("6", 3)
    assert b.split_lr() == (1, BitString.from_int(0b10, 2))
    assert b.to_hex() == "6"
    assert BitString.from_hex("0a", 8).to_hex() == "0a"
    assert BitString.from_hex("A", 4) == BitString.from_hex("a", 4)


def test_hex_width_is_ceil_of_quarter_length():
    assert BitString.from_int(0, 5).to_hex() == "00"
    assert BitString.from_int(0, 12).to_hex() == "000"
    assert BitString.from_int(0, 0).to_hex() == ""
    assert BitString.from_hex("", 0) == BitString.from_int(0, 0)


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
    with pytest.raises(ValueError, match="nonnegative"):
        BitString.from_hex("f", -1)
    # only a run of ASCII hex digits: int(text, 16) takes all of these
    for text in ("0x1f", "1_f", " 1f", "ff\n", "+ff", "-0", "\uff11\uff12"):
        with pytest.raises(ValueError, match="invalid hex string"):
            BitString.from_hex(text, 8)


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
    with pytest.raises(ValueError):
        BitString.from_int(0, -1)
    assert len(BitString.from_int(0, 0)) == 0


def test_equality_and_hash():
    assert BitString.from_int(0b01, 2) == BitString.from_hex("1", 2)
    assert BitString.from_int(0b01, 2) != BitString.from_int(0b010, 3)
    assert BitString.from_int(0b01, 2) != "01"
    d = {BitString.from_int(0b01, 2): 1}
    assert d[BitString.from_hex("1", 2)] == 1


def test_repr_small_and_large():
    # bit 1 first, as the string reads
    assert repr(BitString.from_int(0b101, 3)) == "BitString('101')"
    assert repr(BitString.from_int(0b0110, 4)) == "BitString('0110')"
    assert repr(BitString.from_int(0, 0)) == "BitString('')"
    assert repr(BitString.from_int(0, 200)) == "BitString(length=200)"


def test_immutability_via_slots():
    b = BitString.from_int(0b101, 3)
    with pytest.raises(AttributeError):
        b.extra = 1
    # the class methods are the only way in: no direct or empty construction
    with pytest.raises(TypeError):
        BitString("101")
    with pytest.raises(TypeError):
        BitString()


def test_only_bitstring_sees_its_internals():
    # other modules pass plain ints in the order their byte formats fix;
    # they build and read bit strings only through the public codec
    package = Path(bitstring.__file__).parent
    stray = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "bitstring.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_make", "_value"):
                stray.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[-1] == "bitstring"):
                stray += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name != "BitString"]
    assert stray == []
