"""Tests for the exhaustive check functions and the reporting suites.

Every check asserted here is an identity or inequality that holds with
certainty for honest inputs, so the tests compare against independently
coded oracles (pure-python double loops, combinatorial formulas) rather
than against the implementation's own output.
"""

import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bigthorp import verify
from bigthorp.bigkey import BigKey, seed_randomness
from bigthorp.oracle import ScriptedOracle, Shake256Oracle
from bigthorp.thorp import CipherParams
from bigthorp.verify import (
    SUITES,
    CheckResult,
    DistributionTable,
    LeakageTable,
    _agreeing_pairs,
    _parity_expectations,
    bias_estimate,
    decomposition_check,
    distinct_probe_collision_mass,
    leakage_entropy_check,
    main_lemma_check,
    parseval_check,
    render_report,
    report_rows,
    run_bias_suite,
    run_collision_suite,
    run_decomposition_suite,
    run_fiber_entropy_suite,
    run_parseval_suite,
)


# ---------------------------------------------------------------------------
# table containers


def test_distribution_table_validation():
    with pytest.raises(ValueError):
        DistributionTable(0, [1.0])
    with pytest.raises(ValueError):
        DistributionTable(21, np.full(1 << 21, 2.0**-21))
    with pytest.raises(ValueError):
        DistributionTable(2, [0.5, 0.5])  # wrong length for n=2
    with pytest.raises(ValueError):
        DistributionTable(1, [1.5, -0.5])
    with pytest.raises(ValueError):
        DistributionTable(1, [0.6, 0.6])


def test_distribution_table_constructors():
    u = DistributionTable.uniform(3)
    assert u.mass.shape == (8,)
    assert float(u.mass.sum()) == pytest.approx(1.0, abs=1e-15)
    p = DistributionTable.point_mass(3, 6)
    assert p.mass[6] == 1.0 and p.mass.sum() == 1.0
    r = DistributionTable.random(4, np.random.default_rng(9))
    assert r.mass.shape == (16,)
    assert (r.mass >= 0).all()


@pytest.mark.parametrize("build", [
    lambda n, rng: DistributionTable.random(n, rng),
    lambda n, rng: DistributionTable.uniform(n),
    lambda n, rng: DistributionTable.point_mass(n, 0),
    lambda n, rng: LeakageTable.random(n, 1, rng),
    lambda n, rng: LeakageTable.projection(n, 1),
    lambda n, rng: LeakageTable.constant(n, 1),
])
def test_table_builders_refuse_a_wide_table_before_building_it(build):
    # a width past 20 bits is refused before its 2^n cells are drawn
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"n0? must be in 1\.\.20, got 22"):
            build(22, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError):
        build(30, rng)  # 8 GiB of cells: a ValueError, not a MemoryError


def test_leakage_table_validation():
    with pytest.raises(ValueError):
        LeakageTable(0, 1, [])
    with pytest.raises(ValueError):
        LeakageTable(2, 21, [0, 0, 0, 0])
    with pytest.raises(ValueError):
        LeakageTable(2, 1, [0, 1, 0])  # wrong length
    with pytest.raises(ValueError):
        LeakageTable(2, 1, [0, 1, 2, 0])  # value out of range for l0=1
    with pytest.raises(ValueError):
        LeakageTable(2, 1, [0, -1, 0, 0])


def test_leakage_table_fibers():
    lt = LeakageTable.projection(4, 2)
    f0 = lt.fiber(0)
    # leak value 0 keeps exactly the multiples of 4
    assert list(f0) == [x for x in range(16) if x % 4 == 0]
    fibers = lt.fibers()
    assert set(fibers) == {0, 1, 2, 3}
    assert sum(len(v) for v in fibers.values()) == 16
    const = LeakageTable.constant(3, 2, value=1)
    assert list(const.fiber(1)) == list(range(8))
    assert const.fiber(0).size == 0


# ---------------------------------------------------------------------------
# parseval_check


def _parseval_by_hand(mass):
    """Literal double loop over subsets and outcomes, no numpy."""
    size = len(mass)
    acc = 0.0
    for s in range(size):
        e = 0.0
        for y, p in enumerate(mass):
            e += -p if (s & y).bit_count() % 2 else p
        acc += e * e
    return acc / size, sum(p * p for p in mass)


def test_parseval_point_mass_exact():
    lhs, rhs = parseval_check(DistributionTable.point_mass(4, 5))
    assert lhs == 1.0
    assert rhs == 1.0


def test_parseval_uniform_exact():
    # every nonempty subset has expectation 0, the empty one has 1
    lhs, rhs = parseval_check(DistributionTable.uniform(4))
    assert lhs == rhs == 2.0**-4


def test_parseval_matches_hand_oracle_n3():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = DistributionTable.random(3, rng)
        lhs, rhs = parseval_check(d)
        olhs, orhs = _parseval_by_hand([float(p) for p in d.mass])
        assert abs(lhs - olhs) <= 1e-12
        assert abs(rhs - orhs) <= 1e-12


@pytest.mark.parametrize("n", [11, 16])
def test_parseval_wide_widths(n):
    # past the suite's widths, up to the enumeration cap of 16 bits
    d = DistributionTable.random(n, np.random.default_rng(23))
    lhs, rhs = parseval_check(d)
    assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_parity_expectations_match_definition(n):
    # lhs == rhs holds for any +-1 orthogonal transform, so compare each
    # E(S) itself with the literal sum over outcomes (odd and even splits)
    d = DistributionTable.random(n, np.random.default_rng(29 + n))
    e = _parity_expectations(d.mass[None])[0]
    assert e.shape == (1 << n,)
    mass = [float(p) for p in d.mass]
    for s in range(1 << n):
        expect = sum(-p if (s & y).bit_count() % 2 else p
                     for y, p in enumerate(mass))
        assert abs(e[s] - expect) <= 1e-12, s


def test_parseval_rejects_oversized_n():
    d = DistributionTable(17, np.full(1 << 17, 2.0**-17))
    with pytest.raises(ValueError):
        parseval_check(d)


# ---------------------------------------------------------------------------
# leakage_entropy_check


def test_leakage_entropy_is_a_four_tuple():
    out = leakage_entropy_check(LeakageTable.projection(4, 2), 2.0)
    mean, bound, tail, tail_bound = out
    assert (mean, bound, tail, tail_bound) == tuple(out)


def test_leakage_entropy_projection_exact():
    r = leakage_entropy_check(LeakageTable.projection(4, 2), 2.0)
    assert r.mean_fiber_entropy == 2.0
    assert r.bound == 2.0
    assert r.tail_prob == 0.0
    assert r.tail_bound == 0.25


def test_leakage_entropy_constant_map():
    r = leakage_entropy_check(LeakageTable.constant(4, 2), 1.0)
    # one fiber holding all 16 points
    assert r.mean_fiber_entropy == 4.0
    assert r.bound == 2.0
    assert r.tail_prob == 0.0


def test_leakage_entropy_zero_width_leak():
    r = leakage_entropy_check(LeakageTable.projection(3, 0), 1.0)
    assert r.mean_fiber_entropy == 3.0
    assert r.bound == 3.0


def test_leakage_entropy_matches_hand_count():
    rng = np.random.default_rng(31)
    lt = LeakageTable.random(8, 3, rng)
    r = leakage_entropy_check(lt, 2.0)
    sizes = Counter(int(v) for v in lt.table)
    mean = sum((c / 256) * math.log2(c) for c in sizes.values())
    tail = sum(c / 256 for c in sizes.values() if math.log2(c) < 5 - 2.0)
    assert abs(r.mean_fiber_entropy - mean) <= 1e-12
    assert abs(r.tail_prob - tail) <= 1e-12


def test_leakage_entropy_random_tables_hold_bounds():
    rng = np.random.default_rng(37)
    for _ in range(100):
        r = leakage_entropy_check(LeakageTable.random(10, 3, rng), 2.0)
        assert r.mean_fiber_entropy >= 7.0
        assert r.tail_prob <= 0.25


# ---------------------------------------------------------------------------
# decomposition_check


def test_decomposition_full_space_equality():
    s, e = decomposition_check(range(16), 4)
    assert e == 4.0
    assert abs(s - e) <= 1e-12


def test_decomposition_singleton():
    s, e = decomposition_check([37], 8)
    assert s == 0.0
    assert e == 0.0


def test_decomposition_infers_width():
    # elements up to 5 need 3 bits; a wider frame only adds zero terms
    narrow = decomposition_check([1, 4, 5])
    wide = decomposition_check([1, 4, 5], 9)
    assert narrow == wide
    assert decomposition_check([0]) == (0.0, 0.0)


def test_decomposition_input_errors():
    with pytest.raises(ValueError):
        decomposition_check([])
    with pytest.raises(ValueError):
        decomposition_check([-1, 3])
    with pytest.raises(ValueError):
        decomposition_check([9], 3)  # 9 needs 4 bits
    with pytest.raises(ValueError):
        decomposition_check([1], 21)


def _h_float(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def test_decomposition_matches_float_oracle():
    import random as pyrandom

    rng = pyrandom.Random(43)
    for _ in range(50):
        size = rng.randrange(1, 65)
        elems = rng.sample(range(64), size)
        s, e = decomposition_check(elems, 6)
        expect = sum(
            _h_float(sum((x >> i) & 1 for x in elems) / size) for i in range(6)
        )
        assert abs(s - expect) <= 1e-9
        assert s >= e - 1e-12


# ---------------------------------------------------------------------------
# main_lemma_check and the combinatorial oracle


def test_main_lemma_projection_frozen_values():
    lt = LeakageTable.projection(8, 2)
    res = main_lemma_check(lt, 0, 2)
    # exact rational answer for this fiber is 53/128
    assert res.expected_g == 53 / 128
    assert res.alpha == 2.0
    assert res.bound_valid
    assert abs(res.bound - 0.792050402076147) <= 1e-9
    assert res.expected_g <= res.bound + 1e-12


def test_main_lemma_full_space_matches_combinatorial_oracle():
    lt = LeakageTable.constant(8, 1)
    frozen = {1: 0.5, 2: 9 / 32, 3: 11 / 64}
    for k, value in frozen.items():
        res = main_lemma_check(lt, 0, k)
        assert res.expected_g == value
        assert distinct_probe_collision_mass(8, k) == value
        assert res.bound_valid
        assert res.expected_g <= res.bound + 1e-12


def test_main_lemma_boundary_bound_is_one():
    # alpha = 0 and k = n0 puts the entropy argument exactly at 0
    res = main_lemma_check(LeakageTable.constant(4, 1), 0, 4)
    assert res.bound_valid
    assert res.bound == 1.0
    assert res.expected_g <= 1.0


def test_main_lemma_singleton_fiber_flagged():
    lt = LeakageTable(2, 2, np.arange(4))
    res = main_lemma_check(lt, 0, 1)
    assert not res.bound_valid
    assert math.isnan(res.bound)
    assert res.expected_g == 1.0
    assert res.alpha == 2.0


def test_main_lemma_input_errors():
    lt = LeakageTable(3, 2, np.zeros(8, dtype=np.int64))
    with pytest.raises(ValueError):
        main_lemma_check(lt, 1, 1)  # leak value 1 has an empty fiber
    with pytest.raises(ValueError):
        main_lemma_check(lt, 0, 0)
    with pytest.raises(ValueError):
        main_lemma_check(LeakageTable.constant(15, 1), 0, 1)
    with pytest.raises(ValueError):
        main_lemma_check(lt, 0, 21)
    with pytest.raises(ValueError):
        # within the per-argument caps but over the enumeration budget
        main_lemma_check(LeakageTable.constant(14, 1), 0, 8)


def _pattern_square_sum(fiber, positions):
    # sum of squared pattern counts of the probed bits, counting the full
    # k-bit pattern index on Python ints, so it holds at any k
    idx = np.zeros(fiber.size, dtype=object)
    for j, pos in enumerate(positions):
        idx |= ((fiber >> pos) & 1).astype(object) << j
    _, counts = np.unique(idx, return_counts=True)
    return int((counts**2).sum())


def _assert_agreeing_pairs(fiber, n0, batch):
    # per row: S[full ^ P] is the count of fiber pairs that agree on every
    # probed position, and the mass S[full ^ P] / |F|^2 is the correctly
    # rounded sum of squared pattern probabilities
    indicator = np.zeros((1, 1 << n0), dtype=np.int64)
    indicator[0, fiber] = 1
    agree = _agreeing_pairs(indicator, n0)[0]
    differ = fiber[:, None] ^ fiber[None, :]  # every ordered pair
    for row in batch:
        probed = sum({1 << pos for pos in row})
        pairs = int(agree[((1 << n0) - 1) ^ probed])
        assert pairs == np.count_nonzero((differ & probed) == 0)
        exact = Fraction(_pattern_square_sum(fiber, row), fiber.size**2)
        assert pairs / fiber.size**2 == float(exact)


def test_fiber_collision_mass_matches_full_index_count():
    # exact pair counts and correctly rounded masses for every row of a
    # batch whose rows have different pattern counts
    rng = np.random.default_rng(47)
    for _ in range(300):
        n0 = int(rng.integers(4, 11))
        lt = LeakageTable.random(n0, int(rng.integers(0, 4)), rng)
        fiber = lt.fiber(int(lt.table[0]))
        positions = [int(p) for p in rng.integers(0, n0, int(rng.integers(1, 12)))]
        batch = [positions, positions[::-1], [positions[0]] * len(positions),
                 [(p + 1) % n0 for p in positions]]
        _assert_agreeing_pairs(fiber, n0, batch)


@pytest.mark.parametrize("k", [8, 9, 16, 17, 32, 33, 63, 64, 100])
def test_fiber_collision_mass_at_each_pattern_width(k):
    # on either side of 8, 16, 32 and 64 probes, where a k-bit pattern
    # index changes width; the position set stays an n0-bit mask
    rng = np.random.default_rng(k)
    lt = LeakageTable.random(10, 2, rng)
    fiber = lt.fiber(int(lt.table[0]))
    _assert_agreeing_pairs(fiber, 10, rng.integers(0, 10, (5, k)).tolist())


@pytest.mark.parametrize("n0, l0, k", [(5, 1, 1), (6, 2, 2), (7, 2, 3),
                                       (8, 0, 3)])
def test_main_lemma_expected_g_matches_per_tuple_loop(n0, l0, k):
    # the correctly rounded exact value, summed tuple by tuple
    lt = LeakageTable.random(n0, l0, np.random.default_rng(n0 + k))
    for leak_value in lt.fibers():
        fiber = lt.fiber(leak_value)
        total = sum(_pattern_square_sum(fiber, tup)
                    for tup in itertools.product(range(n0), repeat=k))
        exact = Fraction(total, fiber.size**2 * n0**k)
        assert main_lemma_check(lt, leak_value, k).expected_g == float(exact)


def test_distinct_probe_mass_matches_brute_force():
    for n0, k in ((2, 2), (3, 3), (5, 3), (8, 1)):
        total = 0.0
        count = 0
        # every probe tuple contributes 2^-(distinct positions)
        from itertools import product

        for tup in product(range(n0), repeat=k):
            total += 2.0 ** -len(set(tup))
            count += 1
        assert abs(distinct_probe_collision_mass(n0, k) - total / count) <= 1e-15


# ---------------------------------------------------------------------------
# bias_estimate


def test_bias_zero_key_is_degenerate():
    key = BigKey.generate(16, b"\x00\x00")
    params = CipherParams(n_bits=16, msg_bits=9, num_probes=8, rounds=17)
    est = bias_estimate(key, Shake256Oracle(), None, 10**4, params, seed=3)
    # the round-function bit is constantly 0, so the gap is exactly 1/2
    assert est.empirical_tv == 0.5
    assert 0.0 < est.corollary_bound < 0.5


def test_bias_empty_subset_forced_by_script():
    key = BigKey.generate(16, seed_randomness(2, 5))
    params = CipherParams(n_bits=16, msg_bits=9, num_probes=8, rounds=17)
    oracle = ScriptedOracle(default_script=b"")
    est = bias_estimate(key, oracle, None, 10**4, params, seed=7)
    assert est.empirical_tv == 0.5
    # an all-zero stream repeats probe position 1, one distinct position
    assert est.corollary_bound == pytest.approx(0.5 * 2.0**-0.5, abs=1e-12)


def test_bias_uniform_key_within_four_sigma():
    n = 1024
    key = BigKey.generate(n, seed_randomness(n // 8, 11))
    params = CipherParams(n_bits=n, msg_bits=12, num_probes=16, rounds=23)
    est = bias_estimate(key, Shake256Oracle(), None, 10**4, params, seed=13)
    assert est.empirical_tv <= 0.02
    assert est.corollary_bound <= 0.5


def test_bias_conditioned_full_fiber_matches_unconditioned():
    """Conditioning on a constant leak must reproduce the closed form.

    A zero-width leak has a single fiber equal to the whole key space, so
    the fiber-enumeration route and the 2^-d closed form are computing the
    same number and must agree on identical draws.
    """
    key = BigKey.generate(10, seed_randomness(2, 17))
    params = CipherParams(n_bits=10, msg_bits=9, num_probes=6, rounds=17)
    flat = LeakageTable.projection(10, 0)
    est_closed = bias_estimate(key, Shake256Oracle(), None, 10**4, params,
                               seed=19)
    est_fiber = bias_estimate(key, Shake256Oracle(), flat, 10**4, params,
                              seed=19)
    assert est_closed.empirical_tv == est_fiber.empirical_tv
    assert est_closed.corollary_bound == est_fiber.corollary_bound


def test_bias_argument_errors():
    key = BigKey.generate(16, b"\xa5\x5a")
    params = CipherParams(n_bits=16, msg_bits=9, num_probes=8, rounds=17)
    with pytest.raises(ValueError):
        bias_estimate(key, Shake256Oracle(), None, 9999, params)
    with pytest.raises(ValueError):
        bad = CipherParams(n_bits=32, msg_bits=9, num_probes=8, rounds=17)
        bias_estimate(key, Shake256Oracle(), None, 10**4, bad)
    with pytest.raises(ValueError):
        lt = LeakageTable.constant(12, 1)
        bias_estimate(key, Shake256Oracle(), lt, 10**4, params)


def test_bias_conditioning_resource_limits():
    wide = BigKey.generate(16, b"\x0f\xf0")
    with pytest.raises(ValueError):
        bias_estimate(
            wide, Shake256Oracle(), LeakageTable.constant(16, 1), 10**4,
            CipherParams(n_bits=16, msg_bits=9, num_probes=8, rounds=17),
        )
    # 64 probes condition like any other count: the fiber of 16 keys that
    # share the low 8 bits has collision mass at least 1/16 per draw
    small = BigKey.generate(12, b"\x34\x0c")
    est = bias_estimate(
        small, Shake256Oracle(), LeakageTable.projection(12, 8), 10**4,
        CipherParams(n_bits=12, msg_bits=9, num_probes=64, rounds=17),
    )
    assert 0.125 - 1e-12 <= est.corollary_bound <= 0.5
    assert 0.0 <= est.empirical_tv <= 0.5


def test_bias_rejects_tiny_query_space():
    key = BigKey.generate(16, b"\x42\x42")
    params = CipherParams(n_bits=16, msg_bits=2, num_probes=4, rounds=3)
    with pytest.raises(ValueError):
        bias_estimate(key, Shake256Oracle(), None, 10**5, params)


# ---------------------------------------------------------------------------
# suites and reporting


def _assert_rows(results, expected):
    # name, verdict and rhs exact; lhs within 1e-12 of the recorded value
    assert [(r.name, r.passed, r.rhs) for r in results] == [
        (name, passed, rhs) for name, passed, rhs, _ in expected
    ]
    for r, (*_, lhs) in zip(results, expected):
        assert abs(r.lhs - lhs) <= 1e-12, r.name


def test_parseval_suite_passes():
    _assert_rows(run_parseval_suite(max_n=6, per_n=50), [
        ("parseval/point-mass", True, 1e-12, 0.0),
        ("parseval/uniform", True, 1e-12, 0.0),
        ("parseval/random-n1", True, 1e-12, 2.220446049250313e-16),
        ("parseval/random-n2", True, 1e-12, 1.1102230246251565e-16),
        ("parseval/random-n3", True, 1e-12, 5.551115123125783e-17),
        ("parseval/random-n4", True, 1e-12, 2.7755575615628914e-17),
        ("parseval/random-n5", True, 1e-12, 2.0816681711721685e-17),
        ("parseval/random-n6", True, 1e-12, 1.3877787807814457e-17),
    ])


def test_fiber_entropy_suite_passes():
    results = run_fiber_entropy_suite(count=20)
    assert all(r.passed for r in results)


def test_decomposition_suite_passes():
    results = run_decomposition_suite(count=30)
    assert all(r.passed for r in results)


def test_collision_suite_passes():
    _assert_rows(run_collision_suite(num_tables=4), [
        ("collision/full-space-k1", True, 1e-12, 0.0),
        ("collision/full-space-k2", True, 1e-12, 0.0),
        ("collision/full-space-k3", True, 1e-12, 0.0),
        ("collision/singleton-flagged", True, 1.0, 1.0),
        ("collision/random-k1", True, 1e-12, -0.2808374795108184),
        ("collision/random-k2", True, 1e-12, -0.4249527855930015),
        ("collision/random-k3", True, 1e-12, -0.526545664171995),
    ])


def test_collision_suite_fails_a_row_that_checks_no_fiber():
    # 4-bit keys under a 3-bit leak: every fiber leaves the bound's domain
    # at k = 3, so the random row checks nothing and must not pass
    results = run_collision_suite(n0=4, ks=(3,), l0_values=(3,))
    row = results[-1]
    assert row.name == "collision/random-k3"
    assert not row.passed
    assert row.lhs == -math.inf
    assert row.note == ("no fiber lay in the bound's domain, "
                        "141 invalid-domain skipped")
    assert [r.passed for r in results[:-1]] == [True, True]
    # the empty row's lhs is not finite, and the JSON rows stay valid
    text = json.dumps(report_rows(results), allow_nan=False)
    assert json.loads(text)[-1]["lhs"] is None


@pytest.mark.parametrize("suite, kwargs, empty", [
    (run_parseval_suite, {"max_n": 2, "per_n": 0},
     ["parseval/random-n1", "parseval/random-n2"]),
    (run_fiber_entropy_suite, {"count": 0},
     ["fiber-entropy/random-mean", "fiber-entropy/random-tail"]),
    (run_decomposition_suite, {"count": 0}, ["decomposition/random"]),
], ids=["parseval", "fiber-entropy", "decomposition"])
def test_sampled_rows_that_sampled_nothing_fail(suite, kwargs, empty):
    # a worst case over no samples checks nothing, so it must not pass;
    # the fixed rows of the suite are unaffected
    results = suite(**kwargs)
    rows = [r for r in results if r.name in empty]
    assert [r.name for r in rows] == empty
    assert [(r.passed, r.note) for r in rows] == \
        [(False, "nothing was sampled")] * len(empty)
    assert all(r.passed for r in results if r.name not in empty)


def test_bias_suite_passes():
    results = run_bias_suite(trials=10**4)
    assert all(r.passed for r in results)


def test_bias_suite_rows_are_pinned():
    # exact floats: a change to the sampled queries, to the probe decoding
    # or to the order of the bound's accumulation shows here
    rows = [(r.name, r.lhs, r.rhs, r.passed) for r in run_bias_suite()]
    assert rows == [
        ("bias/zero-key", 0.5, 0.5, True),
        ("bias/empty-subset", 0.5, 0.5, True),
        ("bias/uniform-key", 0.01040000000000002, 0.02, True),
        ("bias/conditioned-bound-range", 0.06919480374274345, 0.5, True),
    ]


def test_bias_conditioned_estimate_is_pinned():
    # the conditioned-bound-range shape of the bias suite, at its seeds
    key = BigKey.generate(12, seed_randomness(2, 509))
    lt = LeakageTable.random(12, 3, np.random.default_rng(510))
    params = CipherParams(n_bits=12, msg_bits=10, num_probes=8, rounds=19)
    est = bias_estimate(key, Shake256Oracle(), lt, 10**4, params, seed=511)
    assert tuple(est) == (0.0044999999999999485, 0.06919480374274345)


@pytest.mark.parametrize("n_bits, leak_bits", [(12, 3), (4099, None)],
                         ids=["conditioned-12", "unconditioned-4099"])
def test_bias_estimate_same_on_file_and_memory_keys(tmp_path, n_bits,
                                                     leak_bits):
    path = tmp_path / "bias.key"
    BigKey.generate(n_bits, seed_randomness((n_bits + 7) // 8, 41)).save(path)
    lt = (None if leak_bits is None else
          LeakageTable.random(n_bits, leak_bits, np.random.default_rng(42)))
    params = CipherParams(n_bits=n_bits, msg_bits=10, num_probes=8, rounds=19)
    with BigKey.load(path) as mapped, \
            BigKey.load(path, in_memory=True) as held:
        lazy, eager = (bias_estimate(key, Shake256Oracle(), lt, 10**4, params,
                                     seed=43) for key in (mapped, held))
        assert lazy == eager


def test_suite_registry():
    assert set(SUITES) == {
        "parseval", "fiber-entropy", "decomposition", "collision", "bias",
    }
    assert all(callable(fn) for fn in SUITES.values())


def test_suites_reject_unknown_keywords():
    # the CLI passes each suite only its own keywords
    for suite in SUITES.values():
        with pytest.raises(TypeError):
            suite(unknown=1)
    with pytest.raises(TypeError):
        run_decomposition_suite(count=5, trials=12345, seed=1)


def test_render_report_lines():
    rows = [
        CheckResult("alpha", 1.0, 2.0, True, "fine"),
        CheckResult("beta", 3.0, 1.0, False),
    ]
    text = render_report(rows)
    lines = text.splitlines()
    assert lines[0].startswith("PASS  alpha")
    assert "(fine)" in lines[0]
    assert lines[1].startswith("FAIL  beta")
    assert lines[-1] == "1/2 checks FAILED"
    ok = render_report([CheckResult("alpha", 1.0, 2.0, True)])
    assert ok.splitlines()[-1] == "1/1 checks passed"


def test_report_rows_shape():
    rows = report_rows([CheckResult("x", 0.25, 0.5, True, "n")])
    assert rows == [
        {"name": "x", "lhs": 0.25, "rhs": 0.5, "pass": True, "note": "n"}
    ]


# ---------------------------------------------------------------------------
# batched suites: every row equals the per-call loop, bit for bit


def _parseval_rows_by_call(max_n, per_n, seed):
    # one draw, one table and one parseval_check per random distribution
    rng = np.random.default_rng(seed)
    rows = []
    for n in range(1, max_n + 1):
        worst = 0.0
        for _ in range(per_n):
            arr = rng.random(1 << n)
            lhs, rhs = parseval_check(DistributionTable(n, arr / arr.sum()))
            worst = max(worst, abs(lhs - rhs))
        rows.append((f"parseval/random-n{n}", worst))
    return rows


@pytest.mark.parametrize("seed", [5, 77, 2024])
def test_parseval_suite_rows_equal_per_call_loop(seed):
    # n = 1 and odd widths included; lhs compared as exact floats
    results = run_parseval_suite(max_n=7, per_n=40, seed=seed)
    assert [(r.name, r.lhs) for r in results[2:]] == \
        _parseval_rows_by_call(7, 40, seed)
    assert all(r.passed for r in results)


def _collision_rows_by_call(n0, ks, num_tables, l0_values, seed):
    rng = np.random.default_rng(seed)
    tables = [LeakageTable.random(n0, l0_values[i % len(l0_values)], rng)
              for i in range(num_tables)]
    rows = []
    for k in ks:
        results = [main_lemma_check(lt, v, k)
                   for lt in tables for v in lt.fibers()]
        excess = [r.expected_g - r.bound for r in results if r.bound_valid]
        rows.append((f"collision/random-k{k}", max(excess, default=-math.inf),
                     len(excess), len(results) - len(excess)))
    return rows


@pytest.mark.parametrize("seed, n0, ks, l0_values", [
    (9, 8, (1, 2, 3), (1, 2)),
    (10, 6, (1, 3, 3), (2, 4)),  # small fibers leave the bound's domain
    (11, 5, (2,), (0, 3)),  # l0 = 0: one fiber, the whole space
])
def test_collision_suite_rows_equal_per_call_loop(seed, n0, ks, l0_values):
    results = run_collision_suite(n0=n0, ks=ks, num_tables=6,
                                  l0_values=l0_values, seed=seed)
    rows = results[len(ks) + 1:]
    expected = _collision_rows_by_call(n0, ks, 6, l0_values, seed)
    assert [r.name for r in rows] == [name for name, *_ in expected]
    for r, (_, worst, checked, skipped) in zip(rows, expected):
        skips = f", {skipped} invalid-domain skipped" if skipped else ""
        assert r.lhs == worst
        assert r.note == f"worst (expected_g - bound) over {checked} fibers{skips}"


@pytest.mark.parametrize("seed", [1, 42, 999])
def test_decomposition_suite_rows_equal_per_call_loop(seed):
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(40):
        size = int(rng.integers(1, (1 << 7) + 1))
        s, e = decomposition_check(rng.choice(1 << 7, size=size, replace=False), 7)
        worst = min(worst, s - e)
    row = run_decomposition_suite(count=40, n0=7, seed=seed)[-1]
    assert (row.name, row.lhs) == ("decomposition/random", worst)


def test_agreeing_pairs_batch_equals_per_fiber_rows():
    n0 = 7
    lt = LeakageTable.random(n0, 3, np.random.default_rng(61))
    fibers = [lt.fiber(v) for v in lt.fibers()]
    fibers += [np.array([93]), np.arange(1 << n0)]  # a singleton, the space
    batch = np.zeros((len(fibers), 1 << n0), dtype=np.int64)
    for row, fiber in zip(batch, fibers):
        row[fiber] = 1
    agree = _agreeing_pairs(batch, n0)
    for row, expect in zip(batch, agree):
        assert (_agreeing_pairs(row[None], n0)[0] == expect).all()
    assert agree[-2].tolist() == [1] * (1 << n0)  # only (x, x) for {x}
    assert agree[-1][-1] == 1 << (2 * n0)  # every pair lies inside ~0


@pytest.mark.parametrize("cells", [1, 100])
def test_small_chunks_leave_rows_unchanged(monkeypatch, cells):
    # rows drawn and evaluated a few at a time, down to one row per chunk
    def rows():
        return (run_parseval_suite(max_n=6, per_n=30, seed=8)
                + run_collision_suite(num_tables=5, seed=8))

    expected = rows()
    monkeypatch.setattr(verify, "_CHUNK_CELLS", cells)
    assert rows() == expected


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(verify, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, name, counted)
    return calls


def test_suites_build_each_table_once(monkeypatch):
    # work, not time: the parseval transform runs once per width, the
    # agreeing-pairs table once per random leakage table (plus the fixed
    # rows), and the entropy bound once per distinct (fiber size, k)
    transforms = _count_calls(monkeypatch, "_parity_expectations")
    run_parseval_suite(max_n=10, per_n=500)
    assert len(transforms) == 2 + 10  # two fixed rows, then one per width

    tables = _count_calls(monkeypatch, "_agreeing_pairs")
    inversions = _count_calls(monkeypatch, "entropy_h_inv")
    run_collision_suite()  # n0 = 8, ks = (1, 2, 3), 20 tables, seed 404
    assert len(tables) == 3 + 1 + 20
    rng = np.random.default_rng(404)
    sizes = {int(c) for i in range(20)
             for c in np.bincount(LeakageTable.random(8, 1 + i % 2, rng).table)
             if c}
    assert len(inversions) <= 3 + 3 * len(sizes)
