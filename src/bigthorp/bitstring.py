"""Fixed-length bit strings: the message codec and the staged round's state.

A bit string of length L holds its big-endian value: bit 1 is the most
significant bit and bit L the least.  Messages cross the API boundary
through ``from_int``/``to_int`` and ``from_hex``/``to_hex``; the staged
round (``thorp.round_forward``/``round_backward``) works on them through
``split_lr``, ``split_last``, ``append_bit`` and ``prepend_bit``.

Instances are immutable and built only through the class methods, so bit
strings are safe to share, hash and use as dict keys.
"""

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class BitString:
    """Immutable sequence of bits with 1-based addressing."""

    __slots__ = ("_length", "_value")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a BitString with from_int or from_hex")

    @classmethod
    def _make(cls, length: int, value: int) -> "BitString":
        """The one constructor, unchecked: ``value`` is the big-endian value."""
        self = cls.__new__(cls)
        self._length = length
        self._value = value
        return self

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """Build from a big-endian value: bit 1 is the most significant."""
        if length < 0:
            raise ValueError("length must be nonnegative")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        return cls._make(length, value)

    @classmethod
    def from_hex(cls, text: str, length: int) -> "BitString":
        """Parse a non-empty run of ASCII hex digits (``""`` at length 0)."""
        if length < 0:
            raise ValueError("length must be nonnegative")
        if text == "" and length == 0:  # to_hex() of the empty string
            return cls._make(0, 0)
        if not (isinstance(text, str) and text and _HEX_DIGITS.issuperset(text)):
            raise ValueError(f"invalid hex string {text!r}")
        value = int(text, 16)
        if value >> length:
            raise ValueError(f"hex value {text!r} does not fit in {length} bits")
        return cls._make(length, value)

    def to_int(self) -> int:
        """Big-endian value of the string: bit 1 is the most significant."""
        return self._value

    def to_hex(self) -> str:
        if self._length == 0:
            return ""
        digits = (self._length + 3) // 4
        return format(self._value, f"0{digits}x")

    def split_lr(self) -> tuple:
        """Split off the first bit: returns ``(bit_1, bits 2..L)``."""
        if self._length < 2:
            raise ValueError("need at least 2 bits to split")
        top = self._length - 1
        return self._value >> top, self._make(top, self._value & ((1 << top) - 1))

    def split_last(self) -> tuple:
        """Split off the final bit: returns ``(bits 1..L-1, bit_L)``."""
        if self._length < 1:
            raise ValueError("cannot split an empty bit string")
        return self._make(self._length - 1, self._value >> 1), self._value & 1

    def append_bit(self, bit: int) -> "BitString":
        if bit not in (0, 1):
            raise ValueError(f"invalid bit value {bit!r}")
        return self._make(self._length + 1, self._value << 1 | bit)

    def prepend_bit(self, bit: int) -> "BitString":
        if bit not in (0, 1):
            raise ValueError(f"invalid bit value {bit!r}")
        return self._make(self._length + 1, bit << self._length | self._value)

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._length == other._length and self._value == other._value

    def __hash__(self) -> int:
        return hash((self._length, self._value))

    def __repr__(self) -> str:
        if self._length <= 80:
            # bit 1 first; the leading 1 keeps the zero-length string empty
            bits = format(self._value | 1 << self._length, "b")[1:]
            return f"BitString({bits!r})"
        return f"BitString(length={self._length})"
