"""End-to-end tests of the command-line frontend.

All invocations go through ``main(argv)`` in process so exit codes and
stdout/stderr can be asserted directly; one subprocess smoke test covers
the ``python -m`` entry point.
"""

import hashlib
import json
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bigthorp
from bigthorp import cli, thorp, verify
from bigthorp.bigkey import BigKey
from bigthorp.bitstring import BitString
from bigthorp.cli import main
from bigthorp.oracle import Shake256Oracle
from bigthorp.thorp import CipherParams


@pytest.fixture()
def key_path(tmp_path):
    path = tmp_path / "unit.key"
    code = main(["keygen", "--bits", "4096", "--seed", "9",
                 "--out", str(path)])
    assert code == 0
    return path


def _crypt_args(op, key_path, hexmsg, bits="16", probes="8", passes="1"):
    return [op, "--key", str(key_path), "--bits", bits, "--probes", probes,
            "--passes", passes, "--in", hexmsg]


# ---------------------------------------------------------------------------
# keygen / encrypt / decrypt


def test_round_trip(key_path, capsys):
    capsys.readouterr()
    assert main(_crypt_args("encrypt", key_path, "beef")) == 0
    ct = capsys.readouterr().out.strip()
    assert len(ct) == 4
    assert ct != "beef"
    assert main(_crypt_args("decrypt", key_path, ct)) == 0
    assert capsys.readouterr().out.strip() == "beef"


def test_encrypt_matches_library(key_path, capsys):
    capsys.readouterr()
    assert main(_crypt_args("encrypt", key_path, "beef")) == 0
    ct = capsys.readouterr().out.strip()
    with BigKey.load(str(key_path)) as key:
        params = CipherParams.from_passes(key.n_bits, 16, 8, 1)
        expect = thorp.encrypt(BitString.from_hex("beef", 16), key,
                               Shake256Oracle(), params)
    assert ct == expect.to_hex()


def test_seeded_keygen_refuses_keys_above_the_cap(tmp_path, capsys):
    # just above 2^33 bits: without the cap this builds a 1 GiB key
    out = tmp_path / "big.key"
    assert main(["keygen", "--bits", str(2**33 + 8), "--seed", "1",
                 "--out", str(out)]) == 1
    assert "8589934592 bits" in capsys.readouterr().err
    assert not out.exists()


def test_seeded_keygen_is_deterministic(tmp_path):
    a = tmp_path / "a.key"
    b = tmp_path / "b.key"
    assert main(["keygen", "--bits", "256", "--seed", "5", "--out", str(a)]) == 0
    assert main(["keygen", "--bits", "256", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.key"
    assert main(["keygen", "--bits", "256", "--seed", "6", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_unseeded_keygen_draws_from_the_system_rng(tmp_path):
    # the README's default; 4099 bits leaves padding that load checks
    a, b = tmp_path / "a.key", tmp_path / "b.key"
    assert main(["keygen", "--bits", "4099", "--out", str(a)]) == 0
    assert main(["keygen", "--bits", "4099", "--out", str(b)]) == 0
    bits = range(1, 4100)
    with BigKey.load(a) as key_a, BigKey.load(b) as key_b:
        assert key_a.n_bits == key_b.n_bits == 4099
        assert key_a.subkey(bits) != key_b.subkey(bits)


def test_odd_width_hex_round_trip(key_path, capsys):
    # 11-bit messages print as ceil(11/4) = 3 hex digits
    capsys.readouterr()
    args = _crypt_args("encrypt", key_path, "7ff", bits="11", probes="4")
    assert main(args) == 0
    ct = capsys.readouterr().out.strip()
    assert len(ct) == 3
    back = _crypt_args("decrypt", key_path, ct, bits="11", probes="4")
    assert main(back) == 0
    assert capsys.readouterr().out.strip() == "7ff"


def test_explicit_rounds_inverse_and_warning(key_path, capsys):
    argv = ["encrypt", "--key", str(key_path), "--bits", "16", "--probes",
            "8", "--rounds", "40", "--in", "1234"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "overrides" in captured.err
    ct = captured.out.strip().splitlines()[-1]
    argv = ["decrypt", "--key", str(key_path), "--bits", "16", "--probes",
            "8", "--rounds", "40", "--in", ct]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "1234"


def test_key_from_environment(key_path, monkeypatch, capsys):
    monkeypatch.setenv("BIGTHORP_KEY", str(key_path))
    capsys.readouterr()
    argv = ["encrypt", "--bits", "16", "--probes", "8", "--passes", "1",
            "--in", "beef"]
    assert main(argv) == 0
    env_ct = capsys.readouterr().out.strip()
    assert main(_crypt_args("encrypt", key_path, "beef")) == 0
    assert capsys.readouterr().out.strip() == env_ct


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_one(key_path, tmp_path, monkeypatch):
    monkeypatch.delenv("BIGTHORP_KEY", raising=False)
    dummy = str(tmp_path / "whatever.key")
    cases = [
        [],
        ["encrypt", "--key", dummy, "--bits", "16", "--probes", "8",
         "--in", "00"],  # neither --passes nor --rounds
        ["encrypt", "--key", dummy, "--bits", "16", "--probes", "8",
         "--passes", "1", "--rounds", "31", "--in", "00"],  # both
        ["encrypt", "--key", dummy, "--bits", "1", "--probes", "8",
         "--passes", "1", "--in", "0"],
        ["encrypt", "--key", dummy, "--bits", "16", "--probes", "0",
         "--passes", "1", "--in", "00"],
        ["encrypt", "--key", dummy, "--bits", "16", "--probes", "8",
         "--passes", "0", "--in", "00"],
        ["encrypt", "--key", dummy, "--bits", "16", "--probes", "8",
         "--rounds", "-1", "--in", "00"],
        # the round index and the width fill the query's 8- and 2-byte fields
        ["decrypt", "--key", dummy, "--bits", "9", "--probes", "8",
         "--rounds", str(2**64), "--in", "0a"],
        ["encrypt", "--key", dummy, "--bits", "70000", "--probes", "8",
         "--passes", "1", "--in", "00"],
        # S * (2M - 1) rounds overflow the round field once the key is loaded
        ["encrypt", "--key", str(key_path), "--bits", "16", "--probes", "8",
         "--passes", str(2**60), "--in", "00ff"],
        ["encrypt", "--bits", "16", "--probes", "8", "--passes", "1",
         "--in", "00"],  # no --key and no env fallback
        ["keygen", "--bits", "4", "--out", dummy],
        # 2^64 bits: N fills the key file's 8-byte field; refused before any
        # randomness is drawn
        ["keygen", "--bits", str(2**64), "--out", dummy],
        ["keygen", "--bits", "64", "--out", dummy, "--seed", "-1"],
        ["keygen", "--bits", "64", "--out", dummy,
         "--seed", "18446744073709551616"],  # 2^64: the round field's limit
        ["verify", "--suite", "nonsense"],
        ["verify", "--suite", "collision", "--seed", "-1"],
        # the bias suite seeds keys with seed + 4, which must fit in 8 bytes
        ["verify", "--suite", "bias", "--seed", str(2**64 - 4)],
        ["verify", "--suite", "bias", "--seed", str(2**64 - 1)],
        ["verify", "--suite", "bias", "--trials", "7"],
        ["curve", "--n", "1048576", "--leak", "1024", "--bits", "16",
         "--probes", "16", "--passes", "2", "--q-from", "0", "--q-to", "8",
         "--points", "3"],
        ["curve", "--n", "1048576", "--leak", "1024", "--bits", "16",
         "--probes", "16", "--passes", "2", "--q-from", "1", "--q-to", "nan",
         "--points", "3"],
        ["curve", "--n", "1048576", "--leak", "1024", "--bits", "16",
         "--probes", "16", "--passes", "2", "--q-from", "1", "--q-to", "inf",
         "--points", "3"],
        ["curve", "--n", "1048576", "--leak", "1024", "--bits", "16",
         "--probes", "16", "--passes", "2", "--q-from", "8", "--q-to", "2",
         "--points", "3"],
        ["bounds", "--n", "1048576", "--leak", "1024", "--bits", "16",
         "--probes", "16", "--passes", "2", "--queries", "nan"],
        ["bounds", "--n", "1048576", "--leak", "1024", "--bits", "0",
         "--probes", "16", "--passes", "2", "--queries", "1024"],
        ["bounds", "--n", "1048576", "--leak", "1024", "--bits", "16",
         "--probes", "16", "--passes", "0", "--queries", "1024"],
        # alpha + k is above N: outside the bound's domain
        ["bounds", "--n", "64", "--leak", "8", "--bits", "16",
         "--probes", "100", "--passes", "1", "--queries", "10"],
    ]
    for argv in cases:
        assert main(argv) == 1, argv


# The unbounded case runs in a child whose address space is capped just
# above what its imports took, so a missing ceiling fails the allocation
# instead of exhausting the host's memory.
_MEMORY_CAP = """
import resource, sys
from bigthorp.cli import main
with open("/proc/self/statm") as f:
    limit = int(f.read().split()[0]) * resource.getpagesize() + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
"""
_MEMORY_LIMITED = _MEMORY_CAP + """
print([main(argv) for argv in (sys.argv[1:], ["decrypt"] + sys.argv[2:])])
"""


def test_probe_ceiling_is_a_usage_error(key_path, capsys):
    # 10^11 probes once built ceil(k / 8) mask groups before the first
    # oracle call and was killed for want of memory
    argv = _crypt_args("encrypt", key_path, "beef", probes=str(10**11))
    done = subprocess.run([sys.executable, "-c", _MEMORY_LIMITED, *argv],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[1, 1]"
    assert done.stderr.count("--probes: must be at most 65536") == 2
    for op in ("encrypt", "decrypt"):
        assert main(_crypt_args(op, key_path, "beef", probes="65537")) == 1
    # the ceiling itself runs, and 2^16 probes per round still invert
    capsys.readouterr()
    assert main(_crypt_args("encrypt", key_path, "beef", probes="65536")) == 0
    ct = capsys.readouterr().out.strip()
    assert main(_crypt_args("decrypt", key_path, ct, probes="65536")) == 0
    assert capsys.readouterr().out.strip() == "beef"
    # the bound calculators take any k
    assert main(["bounds", "--n", str(2**43), "--leak", str(2**40), "--bits",
                 "128", "--probes", str(10**11), "--passes", "2",
                 "--queries", "1024"]) == 0


def test_unseeded_keygen_refuses_a_key_larger_than_memory(tmp_path):
    # 2^63 bits is 2^60 bytes, more than any host's memory: refused before
    # os.urandom, in a child whose address space is capped as above
    out = tmp_path / "huge.key"
    script = _MEMORY_CAP + "sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", script, "keygen", "--bits", str(2**63),
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: a random 9223372036854775808-bit")
    assert done.stderr.count("\n") == 1
    assert not out.exists()


def test_trials_ceiling_is_a_usage_error(monkeypatch, capsys):
    # 2^8 round inputs at m = 9 times 2^16 - 1 round indices, halved
    assert verify._MAX_TRIALS == 8_388_480
    zero_key = BigKey.generate(16, b"\x00\x00")
    m9 = CipherParams(n_bits=16, msg_bits=9, num_probes=8, rounds=17)
    with pytest.raises(ValueError, match="message width too small"):
        verify.bias_estimate(zero_key, Shake256Oracle(), None,
                             verify._MAX_TRIALS + 1, m9)

    def no_suite(**kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "SUITES", dict.fromkeys(verify.SUITES, no_suite))
    capsys.readouterr()
    trials = str(verify._MAX_TRIALS + 1)
    for argv in (["--suite", "bias"], ["--all"]):
        assert main(["verify", *argv, "--trials", trials]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--trials must be 10000 to 8388480" in err


def test_keygen_file_bytes_are_pinned(tmp_path):
    path = tmp_path / "k.bk"
    assert main(["keygen", "--bits", "100", "--seed", "3",
                 "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "d6d1ce53912ba4b5246df09605358f1d0437ff5cf0169c62e2b7e7433ed486c6")


def test_io_and_format_errors_exit_two(key_path, tmp_path):
    missing = str(tmp_path / "no-such.key")
    assert main(_crypt_args("encrypt", missing, "beef")) == 2
    corrupt = tmp_path / "corrupt.key"
    corrupt.write_bytes(b"JUNKJUNKJUNKJUNK")
    assert main(_crypt_args("encrypt", corrupt, "beef")) == 2
    # malformed hex and an overflowing value are format errors, not usage
    assert main(_crypt_args("encrypt", key_path, "zz")) == 2
    assert main(_crypt_args("encrypt", key_path, "1ff", bits="8")) == 2
    # int(text, 16) would read "0x1f" as 1f; the codec takes hex digits only
    assert main(_crypt_args("encrypt", key_path, "0x1f")) == 2


def test_verify_failure_exits_three(monkeypatch, capsys):
    def forced_failure(**_kwargs):
        return [verify.CheckResult("forced/fail", 1.0, 0.0, False, "forced")]

    monkeypatch.setitem(cli.verify.SUITES, "decomposition", forced_failure)
    assert main(["verify", "--suite", "decomposition"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "keygen" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bounds and curve


_BOUND_ARGS = ["--n", "1048576", "--leak", "1024", "--bits", "16",
               "--probes", "16", "--passes", "2"]

# wide messages and many probes keep every curve point below 1
_CURVE_ARGS = ["--n", "2097152", "--leak", "1024", "--bits", "32",
               "--probes", "128", "--passes", "1"]


def test_bounds_output(capsys):
    assert main(["bounds", *_BOUND_ARGS, "--queries", "1024"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("advantage upper bound (exact inverse entropy):")
    assert lines[1].startswith("naive adversary lower bound (simple):")
    assert lines[2].startswith("naive adversary lower bound (hypergeometric):")
    assert lines[3].endswith("holds")  # q * floor(leak/bits) = 2^16 exactly


def test_bounds_closed_form_label_and_violation(capsys):
    argv = ["bounds", *_BOUND_ARGS, "--queries", "2048", "--closed-form"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "closed-form inverse entropy" in out
    assert out.strip().endswith("violated")


_LOWER_ABOVE_UPPER = {
    "example-1": (
        ["--n", "262144", "--leak", "96981", "--bits", "17", "--probes",
         "152", "--passes", "3", "--queries", "20"],
        ["advantage upper bound (exact inverse entropy): 0.01734090389",
         "naive adversary lower bound (simple): 0.217590332",
         "naive adversary lower bound (hypergeometric): 0.4653403996",
         "naive hypothesis q*floor(leak/bits) <= 2^bits: holds"],
    ),
    "example-2": (
        ["--n", "1048576", "--leak", "2048", "--bits", "8", "--probes", "64",
         "--passes", "1", "--queries", "1"],
        ["advantage upper bound (exact inverse entropy): 0.1210937592",
         "naive adversary lower bound (simple): 0.25",
         "naive adversary lower bound (hypergeometric): 0.498046875",
         "naive hypothesis q*floor(leak/bits) <= 2^bits: holds"],
    ),
}


@pytest.mark.parametrize("name", sorted(_LOWER_ABOVE_UPPER))
def test_bounds_lower_above_upper_stdout_is_pinned(name, capsys):
    argv, expected = _LOWER_ABOVE_UPPER[name]
    assert main(["bounds", *argv]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_bounds_terms_stdout_is_pinned(capsys):
    # example-2: q = s = 1, m = 8, T = 15 and p = 0, so the terms are
    # 1/2 * 32/256, the probe term, 0 and 15/256, summing to the first line
    argv, expected = _LOWER_ABOVE_UPPER["example-2"]
    assert main(["bounds", *argv, "--terms"]) == 0
    assert capsys.readouterr().out.splitlines() == expected + [
        "term q/(s+1)*(4mq/2^m)^s: 0.0625",
        "term (qT/2)*hinv(z)^(k/2): 9.175930583e-9",
        "term qp/2^(m-1): 0.0",
        "term qT/2^m: 0.05859375",
    ]


def test_bounds_warns_when_lower_exceeds_upper(capsys):
    argv, _ = _LOWER_ABOVE_UPPER["example-2"]
    assert main(["bounds", *argv, "--oracle-calls", "20.5"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: naive lower bound (hypergeometric) 0.498046875 exceeds "
        "the advantage upper bound 0.2812500092 at --oracle-calls 20.5"]
    assert captured.out.splitlines()[0].endswith(": 0.2812500092")
    # enough oracle calls lift the upper bound over the lower one
    assert main(["bounds", *argv, "--oracle-calls", "64"]) == 0
    assert capsys.readouterr().err == ""


def test_bounds_simple_form_only_under_its_hypothesis(capsys):
    argv = ["bounds", "--n", "8796093022208", "--leak", "1099511627776",
            "--bits", "32", "--probes", "500", "--passes", "2",
            "--queries", "16"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[1] == ("naive adversary lower bound (simple): "
                        "n/a (hypothesis violated)")
    assert lines[3].endswith("violated")


def test_rounds_override_warns_once(key_path, capsys):
    crypt = ["encrypt", "--key", str(key_path), "--bits", "16", "--probes",
             "8", "--rounds", "40", "--in", "1234"]
    bound = ["bounds", *_BOUND_ARGS, "--rounds", "40", "--queries", "1024"]
    for argv in (crypt, bound):
        assert main(argv) == 0
        assert capsys.readouterr().err.count("warning: --rounds") == 1


def test_bounds_refuses_a_width_above_the_cipher_limit(capsys):
    # the naive lower bound is exact in 2^bits: at 2^40 bits it once ended
    # in a MemoryError traceback; the refusal comes before it is built
    shape = ["--n", str(2**62), "--leak", "0", "--probes", "0", "--passes",
             "1"]
    argv = ["bounds", *shape, "--queries", "1", "--bits"]
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main([*argv, str(2**40)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --bits must be at most 65535, the cipher's width " \
                  f"limit, got {2**40}\n"
    assert main([*argv, "65535"]) == 0
    # curve builds no 2^bits integer and takes any width
    assert main(["curve", *shape, "--bits", str(2**40), "--q-from", "1",
                 "--q-to", "2", "--points", "2"]) == 0


def test_bounds_rejects_oversubscribed_key(capsys):
    # alpha + probes exceeds the key size, the bound has no valid domain
    argv = ["bounds", "--n", "16384", "--leak", "64", "--bits", "16",
            "--probes", "16", "--passes", "2", "--queries", "1024"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: invalid inputs: 1 - (alpha + num_probes)/n_bits = -0.00964355 "
        "is negative (key too small for these parameters)\n")


def test_curve_stdout(capsys):
    argv = ["curve", *_CURVE_ARGS, "--q-from", "1", "--q-to", "1024",
            "--points", "11"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "log2_q,neg_log2_gamma,valid"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[2] == "1"
    # the bound only grows with q, so the negated log must fall
    neg_logs = [float(row.split(",")[1]) for row in lines[1:]]
    assert neg_logs == sorted(neg_logs, reverse=True)


def test_curve_points_ceiling_is_checked_before_any_allocation(capsys):
    # curve builds every query count and point before its first row
    assert cli._MAX_CURVE_POINTS == 2**20
    for points in (2**20 + 1, 10**15):
        argv = ["curve", *_CURVE_ARGS, "--q-from", "1", "--q-to", "1024",
                "--points", str(points)]
        tracemalloc.start()
        try:
            assert main(argv) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert "--points: must be at most 1048576" in capsys.readouterr().err


def test_curve_single_point_and_file_output(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    argv = ["curve", *_CURVE_ARGS, "--q-from", "64", "--q-to", "64",
            "--points", "1", "--out", str(out_path)]
    assert main(argv) == 0
    assert "wrote 1 curve points" in capsys.readouterr().out
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "log2_q,neg_log2_gamma,valid"
    assert lines[1].split(",")[0] == "6"


def test_curve_rounds_override_warning(capsys):
    argv = ["curve", *_CURVE_ARGS, "--rounds", "63", "--q-from", "1",
            "--q-to", "4", "--points", "2"]
    assert main(argv) == 0
    assert "overrides" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "decomposition"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].endswith("checks passed")
    assert "decomposition/full-space" in out


def test_verify_seed_override(capsys):
    assert main(["verify", "--suite", "fiber-entropy", "--seed", "7"]) == 0
    assert "fiber-entropy/random-mean" in capsys.readouterr().out


def test_verify_trials_reach_only_the_bias_suite(capsys):
    assert main(["verify", "--suite", "parseval", "--trials", "7"]) == 0
    assert "parseval/uniform" in capsys.readouterr().out


def test_verify_repeated_suite_runs_once(tmp_path):
    once = tmp_path / "once.json"
    twice = tmp_path / "twice.json"
    assert main(["verify", "--suite", "parseval", "--json", str(once)]) == 0
    assert main(["verify", "--suite", "parseval", "--suite", "parseval",
                 "--json", str(twice)]) == 0
    assert len(json.loads(once.read_text())) == len(json.loads(twice.read_text()))


def test_verify_json_summary(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["verify", "--suite", "decomposition", "--suite", "fiber-entropy",
            "--json", str(path)]
    assert main(argv) == 0
    rows = json.loads(path.read_text())
    assert rows
    for row in rows:
        assert set(row) == {"name", "lhs", "rhs", "pass", "note", "suite_s"}
        assert row["pass"] is True
    names = {row["name"] for row in rows}
    assert any(n.startswith("decomposition/") for n in names)
    assert any(n.startswith("fiber-entropy/") for n in names)
    # suite_s: the wall seconds of the suite call that made the row
    per_suite = {(row["name"].split("/")[0], row["suite_s"]) for row in rows}
    assert len(per_suite) == 2
    assert all(isinstance(s, float) and s > 0 for _, s in per_suite)


# ---------------------------------------------------------------------------
# module entry point and public names


def test_python_dash_m_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "bigthorp", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "keygen" in proc.stdout


def test_public_names_are_pinned():
    # a name added to or dropped from the package API shows here as a diff
    assert bigthorp.__all__ == [
        "BigKey", "BitString", "BoundInputs", "CipherParams", "GammaPoint",
        "KEYGEN_TAG", "KeyFileError", "KeyFileVersionError", "NaiveAdvBound",
        "Oracle", "OracleMismatchError", "OracleQuery", "PROBE_TAG",
        "ProbeDraw", "ScriptedOracle", "Shake256Oracle", "decrypt",
        "derive_probes", "draw_bit", "encrypt", "entropy_h", "entropy_h_inv",
        "gamma_bound", "gamma_curve", "h_inv_upper", "log2_gamma",
        "naive_adv_lower", "round_backward", "round_forward",
        "seed_randomness", "theorem1_bound", "write_curve_csv",
    ]
    assert bigthorp.__all__ == sorted(bigthorp.__all__)
    assert all(hasattr(bigthorp, name) for name in bigthorp.__all__)


# ---------------------------------------------------------------------------
# the README's examples


def _readme_blocks():
    """The README's fenced blocks as (language, text) pairs."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [part.split("\n", 1) for part in text.split("```")[1::2]]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    blocks = _readme_blocks()
    [library] = [text for lang, text in blocks if lang == "python"]
    exec(compile(library, "README.md", "exec"), {})
    commands = [shlex.split(line)
                for lang, text in blocks if not lang
                for line in text.replace("\\\n", " ").splitlines()
                if line.startswith("bigthorp ")]
    assert {"keygen", "encrypt", "decrypt", "bounds", "curve"} <= {
        command[1] for command in commands}
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    outputs = {}
    for _, *argv in commands:
        argv = [outputs.get("encrypt", arg) if arg == "<hex>" else arg
                for arg in argv]
        assert main(argv) == 0, argv
        outputs[argv[0]] = capsys.readouterr().out.strip()
    [encrypt] = [command for command in commands if command[1] == "encrypt"]
    assert outputs["decrypt"] == encrypt[encrypt.index("--in") + 1]
    assert (tmp_path / "curve.csv").read_text().startswith("log2_q,")
