"""Reference cipher, written apart from the library it checks.

It follows the query layout documented in ``oracle.py`` and the probe
decoding documented in ``prf.py``, uses only ``hashlib.shake_256``, and
reads key bits straight from the key file, so the benchmark never checks
the library against its own output.  Blocks are big-endian integers: bit 1
of the block is the most significant bit.
"""

import hashlib
import mmap

_PROBE_TAG = 0x01


class ReferenceCipher:
    def __init__(self, key_path, msg_bits, num_probes, rounds):
        with open(key_path, "rb") as f:
            self._key = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        if self._key[:4] != b"BIGK":
            raise ValueError(f"{key_path}: not a key file")
        id_len = self._key[5]
        self._offset = 6 + id_len + 8
        self.n_bits = int.from_bytes(self._key[6 + id_len:self._offset], "big")
        self.m, self.k, self.rounds = msg_bits, num_probes, rounds

    def _f(self, r_value, round_index):
        m, k, n = self.m, self.k, self.n_bits
        query = (bytes([_PROBE_TAG]) + round_index.to_bytes(8, "big")
                 + m.to_bytes(2, "big") + r_value.to_bytes((m + 6) // 8, "big"))
        threshold = n * ((1 << 64) // n)
        mask_bytes = (k + 7) // 8
        size = 8 * k + mask_bytes
        while True:
            stream = hashlib.shake_256(query).digest(size)
            probes, pos = [], 0
            while len(probes) < k and pos + 8 <= size:
                word = int.from_bytes(stream[pos:pos + 8], "big")
                pos += 8
                if word < threshold:
                    probes.append(word % n + 1)
            if len(probes) == k and pos + mask_bytes <= size:
                break
            size *= 2
        mask = int.from_bytes(stream[pos:pos + mask_bytes], "little")
        bit = 0
        for j, p in enumerate(probes):
            if mask >> j & 1:
                bit ^= self._key[self._offset + (p - 1) // 8] >> ((p - 1) % 8) & 1
        return bit

    def encrypt(self, x):
        low = (1 << (self.m - 1)) - 1
        for r in range(1, self.rounds + 1):
            left, rest = x >> (self.m - 1), x & low
            x = (rest << 1) | (left ^ self._f(rest, r))
        return x

    def decrypt(self, y):
        for r in range(self.rounds, 0, -1):
            rest, masked = y >> 1, y & 1
            y = ((masked ^ self._f(rest, r)) << (self.m - 1)) | rest
        return y

    def close(self):
        self._key.close()
