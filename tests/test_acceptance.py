"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible under
``pytest -s``) and enforces the stated tolerance and, where one is given,
the runtime budget.  Numeric expectations are checked against oracles
computed independently of the library code: pure-float closed forms, exact
``Fraction`` arithmetic, and an in-test 500-bit evaluation of the bound.

The crossing-window test is expected to fail: with the terabyte-key
example parameters the curve reaches 1/2 near q = 2^34.54, outside the
required [2^28, 2^32] window.  The test states the requirement as written
rather than papering over it; see the failure message for the measured
crossing point.
"""

import contextlib
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np

from bigthorp.bigkey import BigKey, seed_randomness
from bigthorp.bitstring import BitString
from bigthorp.bounds import (
    BoundInputs,
    entropy_h,
    entropy_h_inv,
    gamma_bound,
    naive_adv_lower,
)
from bigthorp.oracle import ScriptedOracle, Shake256Oracle
from bigthorp.thorp import CipherParams
from bigthorp.thorp import decrypt, encrypt
from bigthorp.verify import (
    DistributionTable,
    LeakageTable,
    bias_estimate,
    decomposition_check,
    leakage_entropy_check,
    main_lemma_check,
    parseval_check,
)


@contextlib.contextmanager
def _criterion(label, text, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {label}: {text}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        print(f"[FAIL] criterion {label}: {text}")
        raise AssertionError(
            f"criterion {label} took {elapsed:.2f}s, over its {budget:.0f}s budget"
        )
    print(f"[PASS] criterion {label}: {text}")


# the terabyte-key example: 2^43 key bits, 2^40-bit leakage budget,
# 128-bit messages, 500 probes, two passes (510 rounds)
_EXAMPLE = BoundInputs.from_passes(
    n_bits=1 << 43, leak_bits=1 << 40, msg_bits=128, num_probes=500,
    passes=2, queries=1,
)


def test_criterion_01_cipher_bijection_all_small_widths():
    with _criterion(1, "encrypt bijects on 2..8 bit blocks and decrypt "
                       "inverts it, exhaustively", budget=5.0):
        key = BigKey.generate(64, seed_randomness(8, 12345))
        oracle = ScriptedOracle(seed=42)
        for m in range(2, 9):
            params = CipherParams.from_passes(64, m, 16, 1)
            seen = set()
            for x in range(1 << m):
                msg = BitString.from_int(x, m)
                ct = encrypt(msg, key, oracle, params)
                seen.add(ct.to_int())
                assert decrypt(ct, key, oracle, params) == msg
            assert len(seen) == 1 << m


def test_criterion_02_zero_round_function_is_rotation():
    with _criterion(2, "a scripted all-zero round function makes m rounds "
                       "the identity, exactly"):
        key = BigKey.generate(64, seed_randomness(8, 5))
        oracle = ScriptedOracle(default_script=b"")
        for m in (3, 5, 8):
            params = CipherParams(n_bits=64, msg_bits=m, num_probes=16,
                                  rounds=m)
            for x in range(1 << m):
                msg = BitString.from_int(x, m)
                assert encrypt(msg, key, oracle, params) == msg


def test_criterion_03_parseval_identity_suite():
    with _criterion(3, "subset-parity power mean equals the collision mass "
                       "within 1e-12, 500 tables per width 1..10",
                    budget=60.0):
        rng = np.random.default_rng(2025)
        for n in range(1, 11):
            for _ in range(500):
                lhs, rhs = parseval_check(DistributionTable.random(n, rng))
                assert abs(lhs - rhs) <= 1e-12


def test_criterion_04_fiber_entropy_suite():
    with _criterion(4, "mean fiber entropy >= 7 and the 2^-2 tail bound "
                       "holds on 100 random 10-to-3-bit tables"):
        rng = np.random.default_rng(404)
        for _ in range(100):
            r = leakage_entropy_check(LeakageTable.random(10, 3, rng), 2.0)
            assert r.mean_fiber_entropy >= 7.0
            assert r.tail_prob <= 0.25


def test_criterion_05_entropy_decomposition_suite():
    with _criterion(5, "per-bit entropy sum covers log2 of the subset size "
                       "on 100 random subsets of 8-bit strings"):
        rng = np.random.default_rng(505)
        for _ in range(100):
            size = int(rng.integers(1, 257))
            elems = rng.choice(256, size=size, replace=False)
            s, e = decomposition_check(elems, 8)
            assert s >= e - 1e-12


def test_criterion_06_probed_collision_mass_suite():
    with _criterion(6, "expected probed collision mass stays under the "
                       "inverse-entropy bound on every valid fiber",
                    budget=600.0):
        rng = np.random.default_rng(606)
        tables = [LeakageTable.random(8, 1 + (i % 2), rng) for i in range(20)]
        checked = 0
        for k in (1, 2, 3):
            for lt in tables:
                for leak_value in lt.fibers():
                    res = main_lemma_check(lt, leak_value, k)
                    if not res.bound_valid:
                        continue
                    checked += 1
                    assert res.expected_g <= res.bound + 1e-12
        assert checked > 0


def test_criterion_07_entropy_numerics():
    with _criterion(7, "inverse entropy round-trips within 1e-9 and both "
                       "closed-form envelopes dominate within 1e-12"):
        ln4 = math.log(4.0)
        rng = random.Random(77)
        for _ in range(1000):
            z = rng.random()
            p = entropy_h_inv(z)
            assert abs(float(entropy_h(p)) - z) <= 1e-9
        for i in range(1000):
            t = i / 999.0
            # upper envelope of h on [0, 1]
            assert float(entropy_h(t)) <= (4.0 * t * (1.0 - t)) ** (1.0 / ln4) + 1e-12
            # algebraic upper envelope of the inverse on [0, 1]
            closed = 0.5 + 0.5 * math.sqrt(1.0 - t**ln4)
            assert float(entropy_h_inv(t)) <= closed + 1e-12


def _oracle_gamma_500bit(q):
    """Leading-terms bound at 500-bit precision, coded independently."""
    with mpmath.workprec(500):
        n_bits = mpmath.mpf(2) ** 43
        leak = mpmath.mpf(2) ** 40
        m, k, s, rounds = 128, 500, 2, 510
        qm = mpmath.mpf(q)
        alpha = leak + m * (qm + 1) + rounds
        z = 1 - (alpha + k) / n_bits

        def h(p):
            return -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)

        root = mpmath.findroot(
            lambda p: h(p) - z,
            (mpmath.mpf("0.5000001"), 1 - mpmath.mpf(10) ** -30),
            solver="bisect",
            tol=mpmath.mpf(10) ** -60,
        )
        term1 = qm / (s + 1) * (4 * m * qm / mpmath.mpf(2) ** m) ** s
        term2 = qm * rounds / 2 * root ** (mpmath.mpf(k) / 2)
        return term1 + term2


def test_criterion_08_curve_points_and_monotonicity():
    with _criterion(8, "terabyte-key curve is monotone and three spot "
                       "values match a 500-bit oracle to 6 figures",
                    budget=5.0):
        qs = [2.0 ** (e / 2.0) for e in range(0, 69)]  # 2^0 .. 2^34
        previous = None
        for q in qs:
            value = gamma_bound(_EXAMPLE, q)
            if previous is not None:
                assert value >= previous
            previous = value
        frozen = {
            1 << 10: 2.988733526e-33,
            1 << 20: 3.073646405e-30,
            1 << 30: 2.148120812e-25,
        }
        for q, approx in frozen.items():
            ours = gamma_bound(_EXAMPLE, q)
            oracle = _oracle_gamma_500bit(q)
            assert abs(ours - oracle) / oracle <= 5e-7
            assert abs(float(ours) - approx) / approx <= 1e-6


def test_criterion_08_crossing_window():
    """The stated window is not attainable; this test documents that.

    Bisecting the implemented curve finds the 1/2 crossing near
    q = 2^34.54, and the 500-bit oracle agrees, so the [2^28, 2^32]
    requirement fails as a matter of arithmetic, not implementation.
    """
    with _criterion("8 (crossing)", "advantage curve reaches 1/2 inside "
                                    "[2^28, 2^32]"):
        lo, hi = 28.0, 35.0
        assert gamma_bound(_EXAMPLE, 2.0**lo) < 0.5
        assert gamma_bound(_EXAMPLE, 2.0**hi) > 0.5
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if gamma_bound(_EXAMPLE, 2.0**mid) < 0.5:
                lo = mid
            else:
                hi = mid
        crossing = (lo + hi) / 2.0
        assert 28.0 <= crossing, f"crossing at q = 2^{crossing:.4f}"
        assert crossing <= 32.0, (
            f"curve reaches 1/2 at q = 2^{crossing:.4f}, "
            "outside the required [2^28, 2^32] window"
        )


def test_criterion_09_naive_adversary_exact_value():
    with _criterion(9, "single-query naive adversary lower bound is "
                       "exactly 2^-97"):
        naive = naive_adv_lower(_EXAMPLE)
        assert naive.hypothesis_ok
        assert naive.simple == Fraction(1, 2**97)


def test_criterion_10_production_bit_unbiased():
    with _criterion(10, "round-function bit from a 2^20-bit key shows "
                        "at most 4-sigma bias over 10^5 distinct queries",
                    budget=30.0):
        n = 1 << 20
        key = BigKey.generate(n, seed_randomness(n // 8, 1010))
        params = CipherParams.from_passes(n, 64, 64, 1)
        est = bias_estimate(key, Shake256Oracle(), None, 10**5, params,
                            seed=1010)
        assert est.empirical_tv <= 0.0064


def test_criterion_11_persistence(tmp_path):
    with _criterion(11, "key files reload byte-identically and decrypt "
                        "ciphertexts made by other processes"):
        first = tmp_path / "first.key"
        second = tmp_path / "second.key"
        key = BigKey.generate(2048, seed_randomness(256, 7))
        key.save(first)
        with BigKey.load(first) as reloaded:
            reloaded.save(second)
        assert first.read_bytes() == second.read_bytes()

        proc_key = tmp_path / "proc.key"
        base = [sys.executable, "-m", "bigthorp"]
        crypt = ["--key", str(proc_key), "--bits", "16", "--probes", "8",
                 "--passes", "1"]

        def run(argv):
            done = subprocess.run(base + argv, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            return done.stdout.strip()

        run(["keygen", "--bits", "4096", "--seed", "99",
             "--out", str(proc_key)])
        ct = run(["encrypt", *crypt, "--in", "c0de"])
        assert run(["decrypt", *crypt, "--in", ct]) == "c0de"
        with BigKey.load(proc_key) as key2:
            params = CipherParams.from_passes(key2.n_bits, 16, 8, 1)
            local = encrypt(BitString.from_hex("c0de", 16), key2,
                            Shake256Oracle(), params)
        assert local.to_hex() == ct
