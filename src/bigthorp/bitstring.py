"""Fixed-length bit strings under one package-wide packing convention.

Bits are addressed 1-based.  In packed byte form, bit ``i`` occupies bit
position ``(i - 1) % 8`` of byte ``(i - 1) // 8`` (least significant bit
first), and any unused positions in the final byte are zero.  That layout
is exactly the little-endian encoding of the integer ``sum(bit_i << (i-1))``,
which is how instances store their payload internally.  Key files, oracle
subset masks and message payloads all share this layout, so a ``BitString``
round-trips through ``to_bytes``/``from_bytes`` without any re-indexing.

Hex strings on the command line use the opposite, human-conventional order:
the most significant digit comes first and bit 1 is the most significant
bit of the value.  ``from_hex``/``to_hex`` (and the ``from_int``/``to_int``
pair underneath them) implement that boundary codec; everything else in the
package speaks the packed order.

Instances are immutable.  Operations that would modify a value return a new
one, so bit strings are safe to share, hash and use as dict keys.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

BitsLike = Union[str, Iterable[int]]


def _as_bit(b) -> int:
    if isinstance(b, str):
        if b == "0":
            return 0
        if b == "1":
            return 1
        raise ValueError(f"invalid bit character {b!r}")
    if b in (0, 1):
        return int(b)
    raise ValueError(f"invalid bit value {b!r}")


def _reverse_bits(value: int, length: int) -> int:
    return int(format(value, f"0{length}b")[::-1], 2)


class BitString:
    """Immutable sequence of bits with 1-based addressing."""

    __slots__ = ("_length", "_value")

    def __init__(self, bits: BitsLike = ()):
        value = 0
        length = 0
        for b in bits:
            value |= _as_bit(b) << length
            length += 1
        self._length = length
        self._value = value

    @classmethod
    def _make(cls, length: int, value: int) -> "BitString":
        self = cls.__new__(cls)
        self._length = length
        self._value = value
        return self

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        if length < 0:
            raise ValueError("length must be nonnegative")
        return cls._make(length, 0)

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> "BitString":
        """Unpack ``length`` bits from ``data``, rejecting bad padding."""
        if length < 0:
            raise ValueError("length must be nonnegative")
        nbytes = (length + 7) // 8
        if len(data) != nbytes:
            raise ValueError(
                f"expected {nbytes} bytes for {length} bits, got {len(data)}"
            )
        value = int.from_bytes(data, "little")
        if value >> length:
            raise ValueError("nonzero padding bits in final byte")
        return cls._make(length, value)

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """Build from a big-endian value: bit 1 is the most significant."""
        if length < 0:
            raise ValueError("length must be nonnegative")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        return cls._make(length, _reverse_bits(value, length))

    @classmethod
    def from_hex(cls, text: str, length: int) -> "BitString":
        if length < 0:
            raise ValueError("length must be nonnegative")
        if text == "" and length == 0:  # to_hex() of the empty string
            return cls.zeros(0)
        try:
            value = int(text, 16)
        except (ValueError, TypeError):
            raise ValueError(f"invalid hex string {text!r}") from None
        if value < 0:
            raise ValueError("hex value must be nonnegative")
        if value >> length:
            raise ValueError(f"hex value {text!r} does not fit in {length} bits")
        return cls.from_int(value, length)

    # -- encoders ----------------------------------------------------

    def to_bytes(self) -> bytes:
        return self._value.to_bytes((self._length + 7) // 8, "little")

    def to_int(self) -> int:
        """Big-endian value of the string: bit 1 is the most significant."""
        return _reverse_bits(self._value, self._length)

    def to_hex(self) -> str:
        if self._length == 0:
            return ""
        digits = (self._length + 3) // 4
        return format(self.to_int(), f"0{digits}x")

    def to_binstr(self) -> str:
        return "".join("01"[(self._value >> i) & 1] for i in range(self._length))

    def bits(self) -> tuple:
        return tuple((self._value >> i) & 1 for i in range(self._length))

    # -- bit access --------------------------------------------------

    def get_bit(self, i: int) -> int:
        if not 1 <= i <= self._length:
            raise IndexError(f"bit index {i} out of range 1..{self._length}")
        return (self._value >> (i - 1)) & 1

    # -- structural operations ----------------------------------------

    def split_lr(self) -> tuple:
        """Split off the first bit: returns ``(bit_1, bits 2..L)``."""
        if self._length < 2:
            raise ValueError("need at least 2 bits to split")
        return self._value & 1, self._make(self._length - 1, self._value >> 1)

    def split_last(self) -> tuple:
        """Split off the final bit: returns ``(bits 1..L-1, bit_L)``."""
        if self._length < 1:
            raise ValueError("cannot split an empty bit string")
        head = self._value & ((1 << (self._length - 1)) - 1)
        return self._make(self._length - 1, head), self._value >> (self._length - 1)

    def append_bit(self, bit: int) -> "BitString":
        if bit not in (0, 1):
            raise ValueError(f"invalid bit value {bit!r}")
        return self._make(self._length + 1, self._value | (bit << self._length))

    def prepend_bit(self, bit: int) -> "BitString":
        if bit not in (0, 1):
            raise ValueError(f"invalid bit value {bit!r}")
        return self._make(self._length + 1, bit | (self._value << 1))

    # -- dunders -------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._length == other._length and self._value == other._value

    def __hash__(self) -> int:
        return hash((self._length, self._value))

    def __repr__(self) -> str:
        if self._length <= 80:
            return f"BitString({self.to_binstr()!r})"
        return f"BitString(length={self._length})"
