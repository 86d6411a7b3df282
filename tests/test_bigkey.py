"""Key generation, probing, and the key file format."""

import ast
import mmap
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from bigthorp import (
    BigKey,
    BitString,
    CipherParams,
    KeyFileError,
    KeyFileVersionError,
    OracleMismatchError,
    ScriptedOracle,
    Shake256Oracle,
    bigkey,
    decrypt,
    encrypt,
    seed_randomness,
)
from bigthorp.bigkey import _crc, _encode_header
from test_golden import ref_encrypt


class CountingBuffer(bytes):
    """Key bytes that count single-byte reads, for access-locality tests."""

    reads = 0

    def __getitem__(self, index):
        if not isinstance(index, slice):
            self.reads += 1
        return super().__getitem__(index)


def test_generate_bits_match_randomness_exactly():
    # 0x4d = 0b01001101: bits 1, 3, 4, 7 set under the packing convention
    key = BigKey.generate(8, b"\x4d")
    assert [key.subkey((i,)) for i in range(1, 9)] == [1, 0, 1, 1, 0, 0, 1, 0]


def test_generate_masks_padding_bits(tmp_path):
    key = BigKey.generate(12, b"\xff\xff")
    assert key.subkey(range(1, 13)) == 0xFFF
    with pytest.raises(IndexError):
        key.subkey((13,))
    key.save(tmp_path / "key.bk")
    # the last key byte, before the 4-byte header checksum
    assert (tmp_path / "key.bk").read_bytes()[-5] == 0x0F


def test_generate_requires_enough_randomness():
    with pytest.raises(ValueError):
        BigKey.generate(64, b"\x00" * 7)
    with pytest.raises(ValueError):
        BigKey.generate(12, bytearray(1))
    with pytest.raises(TypeError):
        BigKey.generate(64, 8)  # bytes(8) would be an all-zero key


def test_generate_rejects_tiny_keys():
    with pytest.raises(ValueError):
        BigKey.generate(7, b"\x00")
    with pytest.raises(ValueError):
        BigKey(7, b"\x00")
    # a negative size is a ValueError, not an IndexError on the padding byte
    with pytest.raises(ValueError):
        BigKey.generate(-1, b"")
    # N fills the key file's 8-byte field: 2^64 - 1 passes the range
    # check and fails only for want of its 2^61 key bytes
    with pytest.raises(ValueError, match="needs 2305843009213693952$"):
        BigKey(2**64 - 1, b"")
    with pytest.raises(ValueError, match="out of range"):
        BigKey(2**64, b"")


def test_seeded_key_is_balanced():
    # 2^20 bits from the key-generation stream: the ones fraction should
    # sit within 4 sigma of 1/2, i.e. 4*sqrt(0.25/2^20) = 0.001953125
    n = 1 << 20
    data = seed_randomness(n // 8, seed=7)
    ones = int.from_bytes(data, "little").bit_count()
    assert abs(ones / n - 0.5) <= 0.001953125


def test_seed_randomness_is_deterministic_and_seed_sensitive():
    assert seed_randomness(32, 1) == seed_randomness(32, 1)
    assert seed_randomness(32, 1) != seed_randomness(32, 2)
    assert seed_randomness(64, 1)[:32] == seed_randomness(32, 1)


def test_subkey_reads_in_order_with_repeats():
    key = BigKey.generate(8, b"\x4d")
    # probe j's bit is bit j - 1 of the result
    assert key.subkey((1, 3, 8)) == 0b011
    assert key.subkey((3, 3, 3)) == 0b111
    assert key.subkey((8, 1)) == 0b10
    assert key.subkey(()) == 0


def test_subkey_probe_out_of_range():
    key = BigKey.generate(8, b"\x4d")
    for probe in (0, 9, -1):
        with pytest.raises(IndexError):
            key.subkey((probe,))


def test_get_bit_out_of_range():
    # Single-bit reads go through subkey((i,)); bits 0 and 9 of an 8-bit key
    # are out of range.
    key = BigKey.generate(8, b"\x4d")
    with pytest.raises(IndexError):
        key.subkey((0,))
    with pytest.raises(IndexError):
        key.subkey((9,))


def test_subkey_touches_at_most_one_byte_per_probe():
    buf = CountingBuffer(bytes(range(32)))
    key = BigKey(256, buf)
    key.subkey((1, 77, 200, 1, 256))
    assert buf.reads == 5


def test_encrypt_reads_at_most_k_key_bytes_per_round():
    n = 1 << 12
    buf = CountingBuffer(seed_randomness(n // 8, 17))
    key = BigKey(n, buf)
    params = CipherParams(n_bits=n, msg_bits=16, num_probes=8, rounds=40)
    encrypt(BitString.from_hex("c0de", 16), key, Shake256Oracle(), params)
    assert 0 < buf.reads <= params.rounds * params.num_probes


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "key.bk"
    key = BigKey.generate(100, seed_randomness(13, 3))
    key.save(path)
    loaded = BigKey.load(path)
    assert loaded.n_bits == 100
    assert loaded.subkey(range(1, 101)) == key.subkey(range(1, 101))
    loaded.close()


def test_save_is_byte_identical_across_round_trips(tmp_path):
    p1, p2 = tmp_path / "a.bk", tmp_path / "b.bk"
    key = BigKey.generate(1 << 12, seed_randomness(1 << 9, 11))
    key.save(p1)
    with BigKey.load(p1) as loaded:
        loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_in_memory_matches_file_backed(tmp_path):
    path = tmp_path / "key.bk"
    BigKey.generate(64, seed_randomness(8, 5)).save(path)
    with BigKey.load(path) as disk, BigKey.load(path, in_memory=True) as mem:
        probes = tuple(range(1, 65))
        assert disk.subkey(probes) == mem.subkey(probes)


def test_load_in_memory_refuses_a_file_that_shrinks(tmp_path, monkeypatch):
    # after _decode has checked the size, the file loses its last key byte
    # and the 4-byte checksum after it
    path = tmp_path / "key.bk"
    BigKey.generate(64, seed_randomness(8, 5)).save(path)
    decode = bigkey._decode

    def decode_then_truncate(head, tail, size):
        checked = decode(head, tail, size)
        os.truncate(path, size - 5)
        return checked

    monkeypatch.setattr(bigkey, "_decode", decode_then_truncate)
    with pytest.raises(KeyFileError, match="short read"):
        BigKey.load(path, in_memory=True)


def test_only_bigkey_and_thorp_read_the_key_buffer():
    # bigkey decides where key bit p lives and thorp's kernels index the
    # buffer for speed; every other module reads bits through the key
    package = Path(bigkey.__file__).parent
    stray = [f"{path.name}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             if path.name not in ("bigkey.py", "thorp.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "_buf"]
    assert stray == []


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bk"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(KeyFileError):
        BigKey.load(path)


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "key.bk"
    BigKey.generate(64, seed_randomness(8, 5)).save(path)
    raw = bytearray(path.read_bytes())
    raw[4] = 3
    path.write_bytes(bytes(raw))
    with pytest.raises(KeyFileVersionError):
        BigKey.load(path)


def test_version_1_file_is_rejected(tmp_path):
    # version 1 had no header checksum, so a damaged N could load silently
    path = tmp_path / "key.bk"
    BigKey.generate(100, seed_randomness(13, 3)).save(path)
    raw = bytearray(path.read_bytes()[:-4])
    raw[4] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(KeyFileVersionError):
        BigKey.load(path)
    raw[-14] ^= 0x01  # N 100 -> 101: the damage version 1 let through
    path.write_bytes(bytes(raw))
    with pytest.raises(KeyFileVersionError):
        BigKey.load(path)


def test_load_rejects_oracle_mismatch(tmp_path):
    # save writes only shake256, so the file that names another backend is
    # built by hand; built the same way with shake256, it is save's file
    path = tmp_path / "key.bk"
    data = seed_randomness(8, 5)
    BigKey(64, data).save(path)

    def built(ident):
        header = b"BIGK\x02\x08" + ident + (64).to_bytes(8, "big")
        return header + data + _crc(header)

    assert built(b"shake256") == path.read_bytes()
    path.write_bytes(built(b"scripted"))
    for in_memory in (False, True):
        with pytest.raises(OracleMismatchError, match="'scripted'"):
            BigKey.load(path, in_memory=in_memory)


def test_load_rejects_truncated_and_oversized_files(tmp_path):
    path = tmp_path / "key.bk"
    BigKey.generate(64, seed_randomness(8, 5)).save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(KeyFileError):
        BigKey.load(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(KeyFileError):
        BigKey.load(path)
    path.write_bytes(raw[:3])
    with pytest.raises(KeyFileError):
        BigKey.load(path)


def test_load_rejects_dirty_padding(tmp_path):
    path = tmp_path / "key.bk"
    BigKey.generate(12, b"\x00\x00").save(path)
    raw = bytearray(path.read_bytes())
    raw[-5] = 0xF0  # padding positions 13..16 must stay clear
    path.write_bytes(bytes(raw))
    with pytest.raises(KeyFileError):
        BigKey.load(path)


def test_constructor_refuses_padding_that_load_refuses(tmp_path):
    # such a key, saved over a good file, would leave one that never loads
    path = tmp_path / "key.bk"
    with pytest.raises(ValueError, match="nonzero padding bits"):
        BigKey(12, b"\xff\xff").save(path)
    with pytest.raises(ValueError, match="nonzero padding bits"):
        BigKey(12, memoryview(b"\x00\x10"))
    assert os.listdir(tmp_path) == []
    BigKey(12, b"\xff\x0f").save(path)  # the same key bits, clean padding
    with BigKey.load(path) as key:
        assert key.subkey(range(1, 13)) == 0xFFF


def test_store_size_must_match():
    with pytest.raises(ValueError):
        BigKey(64, b"\x00" * 7)
    with pytest.raises(ValueError):
        BigKey(64, b"\x00" * 9)
    with pytest.raises(TypeError):  # the buffer protocol, at construction
        BigKey(64, [1] * 8)


def test_context_manager_closes_file(tmp_path):
    path = tmp_path / "key.bk"
    BigKey.generate(64, seed_randomness(8, 5)).save(path)
    with BigKey.load(path) as key:
        key.subkey((1,))
    with pytest.raises(ValueError):
        key.subkey((1,))  # reads on a closed mapping fail


def test_threads_share_one_lazy_key(tmp_path):
    path = tmp_path / "key.bk"
    n = 1 << 16
    BigKey.generate(n, seed_randomness(n // 8, 21)).save(path)
    params = CipherParams.from_passes(n, 16, 8, 1)
    oracle = Shake256Oracle()
    rows = [[BitString.from_int(t * 64 + i, 16) for i in range(64)]
            for t in range(8)]
    with BigKey.load(path, in_memory=True) as mem:
        want = [[encrypt(x, mem, oracle, params) for x in row] for row in rows]
    got = [None] * len(rows)
    with BigKey.load(path) as lazy:
        def work(t):
            got[t] = [encrypt(x, lazy, oracle, params) for x in rows[t]]

        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(len(rows))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
    assert got == want


def test_save_over_its_own_lazy_source(tmp_path):
    path = tmp_path / "key.bk"
    n = 1 << 18  # larger than any read-ahead buffer
    BigKey.generate(n, seed_randomness(n // 8, 31)).save(path)
    before = path.read_bytes()
    params = CipherParams.from_passes(n, 16, 8, 1)
    x = BitString.from_hex("c0de", 16)
    with BigKey.load(path, in_memory=True) as mem:
        want = encrypt(x, mem, Shake256Oracle(), params)
    with BigKey.load(path) as lazy:
        lazy.save(path)
        assert path.read_bytes() == before
        assert encrypt(x, lazy, Shake256Oracle(), params) == want
    with BigKey.load(path) as again:
        assert encrypt(x, again, Shake256Oracle(), params) == want
    assert os.listdir(tmp_path) == ["key.bk"]


def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "key.bk"
    BigKey.generate(64, seed_randomness(8, 5)).save(path)
    before = path.read_bytes()
    fdopen = os.fdopen

    def failing_fdopen(*args):
        f = fdopen(*args)
        write = f.write

        def failing_write(data):  # the header goes through, the key bytes fail
            if f.tell():
                raise OSError("device went away")
            return write(data)

        f.write = failing_write
        return f

    with monkeypatch.context() as patch:
        patch.setattr(os, "fdopen", failing_fdopen)
        with pytest.raises(OSError):
            BigKey(64, bytes(8)).save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["key.bk"]


_KILLED_SAVE = """
import os, signal, sys
from bigthorp import BigKey

fd, path, n_bytes = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
fdopen = os.fdopen

def pausing_fdopen(*args):
    # the temporary file: save writes the key bytes in 1 MiB chunks
    f = fdopen(*args)
    write = f.write

    def pausing_write(data):
        if f.tell() > 1 << 20:  # past the header and the first chunk
            os.write(fd, b"!")
            signal.pause()  # until the parent's SIGKILL
        return write(data)

    f.write = pausing_write
    return f

os.fdopen = pausing_fdopen
BigKey(8 * n_bytes, b"\\xa5" * n_bytes).save(path)
"""


def test_save_killed_mid_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "key.bk"
    old = BigKey.generate(4096, seed_randomness(512, 6))
    old.save(path)
    before = path.read_bytes()
    read_end, write_end = os.pipe()
    try:
        child = subprocess.Popen(
            [sys.executable, "-c", _KILLED_SAVE, str(write_end), str(path),
             str(3 << 20)], pass_fds=(write_end,))
        os.close(write_end)
        try:
            # the handshake: the child is inside save, past its first chunk
            assert os.read(read_end, 1) == b"!"
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
    finally:
        os.close(read_end)
    assert child.returncode == -signal.SIGKILL
    assert path.read_bytes() == before
    with BigKey.load(path, in_memory=True) as loaded:
        assert (loaded.n_bits, loaded._buf) == (old.n_bits, old._buf)
    # the killed save leaves its temporary file, which load never reads
    leftovers = sorted(set(os.listdir(tmp_path)) - {"key.bk"})
    assert len(leftovers) == 1
    assert leftovers[0].startswith(".key.bk.") and leftovers[0].endswith(".tmp")
    with pytest.raises(KeyFileError):
        BigKey.load(tmp_path / leftovers[0])
    os.unlink(tmp_path / leftovers[0])
    assert os.listdir(tmp_path) == ["key.bk"]


def test_key_larger_than_ram_is_used_in_place(tmp_path):
    # 2^40 bits is a 128 GiB file, far more than the RAM of any test host:
    # it loads and encrypts within budget only if load and each probe touch
    # a bounded number of bytes.  Holes read as zero.
    n, m, k, rounds = 1 << 40, 16, 4, 7
    header = _encode_header(n)
    size = len(header) + n // 8 + 4
    path = tmp_path / "huge.bk"
    with open(path, "wb") as f:
        f.truncate(size)
        if os.fstat(f.fileno()).st_blocks * 512 > 1 << 20:
            pytest.skip("filesystem does not keep holes")
        f.write(header)
        # key bits 1, 2^39 + 7 and N set, all else zero
        for index, byte in ((0, 0x01), (n // 16, 0x40), (n // 8 - 1, 0x80)):
            f.seek(len(header) + index)
            f.write(bytes([byte]))
        f.seek(size - 4)
        f.write(_crc(header))
    # every query probes those three bits and a hole, all selected; N is a
    # power of two, so no word is rejected, and words past N wrap
    probes = (1, (1 << 39) + 7, n, 3 << 38)
    script = b"".join((p - 1 + 5 * n).to_bytes(8, "big") for p in probes)
    script += bytes([0b1111])
    params = CipherParams(n_bits=n, msg_bits=m, num_probes=k, rounds=rounds)
    x = BitString.from_hex("c0de", m)
    start = time.perf_counter()
    with BigKey.load(path) as key:
        assert isinstance(key._buf.obj, mmap.mmap)
        oracle = ScriptedOracle(default_script=script)
        y = encrypt(x, key, oracle, params)
        assert decrypt(y, key, oracle, params) == x
        view = memoryview(key._buf)
        try:
            want = ref_encrypt(lambda q, size: (script + bytes(size))[:size],
                               view, n, m, k, rounds, x.to_int())
        finally:
            view.release()
        assert y.to_int() == want
        assert y.to_hex() == "6f1f"
        shake = CipherParams(n_bits=n, msg_bits=64, num_probes=8, rounds=3)
        z = BitString.from_hex("0123456789abcdef", 64)
        ct = encrypt(z, key, Shake256Oracle(), shake)
        assert decrypt(ct, key, Shake256Oracle(), shake) == z
    elapsed = time.perf_counter() - start
    path.unlink()
    assert elapsed < 5.0, f"took {elapsed:.2f}s, over its 5s budget"
