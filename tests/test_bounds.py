"""Entropy numerics, the advantage bound, curve emission, naive adversary."""

import ast
import dataclasses
import io
import math
import random
import sys
import threading
from fractions import Fraction

import bounds_reference as ref
import mpmath
import pytest
from mpmath import libmp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bigthorp import bounds as bounds_module
from bigthorp import (
    BoundInputs,
    entropy_h,
    entropy_h_inv,
    gamma_bound,
    gamma_curve,
    h_inv_upper,
    log2_gamma,
    naive_adv_lower,
    theorem1_bound,
    write_curve_csv,
)
from bigthorp.bounds import NaiveAdvBound

# the worked example the calculators are anchored on: terabyte key,
# 2^40-bit leakage budget, 128-bit messages, 500 probes, two passes
EXAMPLE = BoundInputs.from_passes(
    n_bits=2**43, leak_bits=2**40, msg_bits=128, num_probes=500,
    passes=2, queries=2**30,
)


def small_inputs(queries=100.0, oracle_calls=3.0):
    return BoundInputs.from_passes(
        n_bits=10**6, leak_bits=10**4, msg_bits=16, num_probes=50,
        passes=2, queries=queries, oracle_calls=oracle_calls,
    )


# -- binary entropy ---------------------------------------------------------


def test_h_endpoints_and_midpoint():
    assert entropy_h(0) == 0
    assert entropy_h(1) == 0
    assert abs(entropy_h(0.5) - 1) < 1e-40


def test_h_frozen_value():
    # h(0.11), frozen from a 300-bit scratch evaluation
    assert abs(float(entropy_h(0.11)) - 0.499915958164528) < 1e-12


def test_h_symmetric():
    rng = random.Random(1)
    for _ in range(100):
        p = rng.random()
        assert abs(entropy_h(p) - entropy_h(1 - p)) < 1e-40


def test_h_monotone_on_lower_half():
    grid = [i / 200 for i in range(101)]
    values = [entropy_h(p) for p in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_h_domain_errors():
    for p in (-0.1, 1.1, 2):
        with pytest.raises(ValueError):
            entropy_h(p)


def test_h_inv_endpoints_exact():
    assert entropy_h_inv(0) == 1
    assert entropy_h_inv(1) == 0.5


def test_h_inv_frozen_values():
    assert abs(float(entropy_h_inv(0.5)) - 0.88997213556164) < 1e-9
    assert abs(float(entropy_h_inv(0.875)) - 0.7050738064) < 1e-9
    assert abs(float(entropy_h_inv(0.5)) ** 2 - 0.792050402076147) < 1e-9


def test_h_inv_fixed_point_both_ways():
    rng = random.Random(2)
    for _ in range(100):
        z = rng.random()
        assert abs(float(entropy_h(entropy_h_inv(z)) - z)) < 1e-9
        p = 0.5 + rng.random() / 2
        assert abs(float(entropy_h_inv(entropy_h(p)) - p)) < 1e-9


def test_h_inv_monotone_decreasing():
    grid = [i / 50 for i in range(51)]
    values = [entropy_h_inv(z) for z in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_h_inv_respects_tolerance_argument():
    loose = entropy_h_inv(0.3, tol=1e-4)
    tight = entropy_h_inv(0.3, tol=1e-12)
    assert abs(float(loose - tight)) < 1e-4
    with pytest.raises(ValueError):
        entropy_h_inv(0.3, tol=0)


def _h_inv_500bit(z, tol=1e-60):
    """Root of h(p) = z on [1/2, 1] by 500-bit bisection, coded independently."""
    with mpmath.workprec(500):
        zm = (mpmath.mpf(z.numerator) / z.denominator
              if isinstance(z, Fraction) else mpmath.mpf(z))

        def f(p):
            if p == 1:
                return -zm
            return -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2) - zm

        return mpmath.findroot(
            f, (mpmath.mpf(1) / 2, mpmath.mpf(1)), solver="bisect",
            tol=mpmath.mpf(tol), maxsteps=400,
        )


@pytest.mark.parametrize("z", [
    5e-324, 1e-300, 2**-53, 0.5, 0.625, 0.875, 1 - 2**-53,
    Fraction(1) - Fraction(1, 10**30), Fraction(5, 8), Fraction(1, 3),
])
def test_h_inv_matches_500bit_root(z):
    root = _h_inv_500bit(z)
    for tol in (1e-4, 1e-12, 1e-30):
        ours = entropy_h_inv(z, tol=tol)
        assert 0.5 <= ours <= 1
        with mpmath.workprec(500):
            assert abs(ours - root) <= tol, (z, tol)


def test_h_inv_below_the_seed_resolution():
    # z this small makes the closed-form seed round to exactly 1, and the
    # root sits closer to 1 than tol: the result must still be in tol
    z, tol = 1e-60, 1e-65
    ours = entropy_h_inv(z, tol=tol)
    with mpmath.workprec(500):
        assert abs(ours - _h_inv_500bit(z, tol=1e-80)) <= tol


def test_h_inv_tol_below_working_precision_terminates():
    # 1e-100 is finer than the 240-bit grid: the result is at that grid
    ours = entropy_h_inv(0.3, tol=1e-100)
    with mpmath.workprec(500):
        assert abs(ours - _h_inv_500bit(0.3, tol=1e-100)) <= 1e-70


# -- the benchmark's curve sweep --------------------------------------------

# the 69 query counts q = 2^(e/2), e = 0..68, of the worked example that the
# benchmark sweeps, with each z = 1 - (alpha + k)/N exact as a Fraction
SWEEP_QS = [2.0 ** (e / 2) for e in range(69)]
SWEEP_ZS = [
    1 - (b.alpha + b.num_probes) / Fraction(b.n_bits)
    for b in (dataclasses.replace(EXAMPLE, queries=Fraction(q))
              for q in SWEEP_QS)
]

# repr of each -log2 gamma and closed-form theorem1_bound on the sweep,
# recorded before the inverse entropy got its float64 seed
SWEEP_NEG_LOG2_GAMMA = [
    118.04409891452627, 117.54409891207413, 117.0440989086063,
    116.54409890370204, 116.04409889676636, 115.54409888695783,
    115.04409887308647, 114.54409885346941, 114.04409882572669,
    113.54409878649257, 113.04409873100714, 112.54409865253889,
    112.04409854156805, 111.54409838463155, 111.04409816268985,
    110.54409784881686, 110.04409740493345, 109.5440967771875,
    109.04409588942069, 108.54409463392884, 108.04409285839526,
    107.54409034741167, 107.04408679634476, 106.54408177437807,
    106.04407467224527, 105.5440646283139, 105.04405042405227,
    104.5440303361975, 104.04400192769018, 103.54396175201252,
    103.04390493506166, 102.54382458383391, 102.0437109501873,
    101.54355024824201, 101.04332298196923, 100.54300158011948,
    100.04254705165555, 99.54190425611922, 99.04099521551744,
    98.53970965709613, 98.03789164119286, 97.5353206549442,
    97.03168488430698, 96.5265434340955, 96.01927293724331,
    95.50899212524257, 94.9944553071886, 94.47390203111271,
    93.94484508131752, 93.40377187484417, 92.84572459052005,
    92.26371119339667, 91.64788205112725, 90.98438440572042,
    90.25377963134162, 89.428877945764, 88.47181815993214,
    87.33021033582804, 85.93219527035941, 84.18040675046032,
    81.9451272384567, 79.05749723541733, 75.30452982047709,
    70.42880124978038, 64.1366416073324, 56.11873039173815,
    46.085652552072645, 33.81885798158481, 19.237681148682757,
]

SWEEP_CLOSED_FORM = [
    4.94448717844617e-36, 6.992560835071821e-36, 9.88897438534424e-36,
    1.3985121727047444e-35, 1.9777948884496085e-35, 2.7970243681710097e-35,
    3.9555898224222593e-35, 5.594048827388105e-35, 7.911179826936692e-35,
    1.1188098018960563e-34, 1.582236038224211e-34, 2.237619749465864e-34,
    3.1644723677959418e-34, 4.475240081626813e-34, 6.328945900982188e-34,
    8.950482494034611e-34, 1.2657896463527403e-33, 1.7900974311198278e-33,
    2.5315811573321415e-33, 3.580198591495379e-33, 5.0631697731825225e-33,
    7.160412100046452e-33, 1.0126369380530776e-32, 1.4320883868578075e-32,
    2.0252858098466654e-32, 2.8642006413196044e-32, 4.0506193552491206e-32,
    5.728496754734555e-32, 8.101429657471479e-32, 1.1457375411285956e-31,
    1.6203623140837985e-31, 2.2916278537328777e-31, 3.2410301889295744e-31,
    4.583866879369311e-31, 6.483282864175709e-31, 9.17017913450701e-31,
    1.2971457620357663e-30, 1.8350145279684526e-30, 2.5962498392117637e-30,
    3.673948270067099e-30, 5.2003454208324814e-30, 7.36360873618357e-30,
    1.0432173908887649e-29, 1.479034994554445e-29, 2.0991084767097643e-29,
    2.9835514944126334e-29, 4.249561765031528e-29, 6.070882448582653e-29,
    8.709805186048633e-29, 1.2572124090017904e-28, 1.8306441720538615e-28,
    2.6994531697918554e-28, 4.054172862842915e-28, 6.254173857695686e-28,
    1.0037059759066675e-27, 1.7081226639946724e-27, 3.171605217999667e-27,
    6.696002343592318e-27, 1.7016467560004444e-26, 5.604645835791441e-26,
    2.622453026209983e-25, 1.953451535139742e-24, 2.67448850433894e-23,
    8.037855376864927e-22, 6.51464661028602e-20, 1.7719987472012158e-17,
    1.9887021252090885e-14, 1.0795152435831903e-10, 3.018424022723334e-06,
]


def _count_h_evaluations(monkeypatch):
    calls = []
    h_nats = bounds_module._h_nats
    monkeypatch.setattr(bounds_module, "_h_nats",
                        lambda p: calls.append(p) or h_nats(p))
    return calls


def test_h_inv_one_evaluation_per_sweep_point(monkeypatch):
    # the seed's evaluation is the Newton step, and its own values
    # certify the bracket below
    calls = _count_h_evaluations(monkeypatch)
    for z in SWEEP_ZS:
        calls.clear()
        entropy_h_inv(z)
        assert len(calls) == 1, (z, len(calls))


def test_h_inv_certificate_fallback_matches_the_reference(monkeypatch):
    # a margin of 1 is never met: every bracket is checked by evaluating
    # h(hi - tol), as the reference does, and the values do not move
    monkeypatch.setattr(bounds_module, "_CERT_MARGIN", mpmath.mpf(1)._mpf_)
    calls = _count_h_evaluations(monkeypatch)
    for z in SWEEP_ZS:
        calls.clear()
        assert entropy_h_inv(z)._mpf_ == ref.entropy_h_inv(z, 1e-12), z
        assert len(calls) == 2, (z, len(calls))
    assert gamma_curve(EXAMPLE, SWEEP_QS) == ref.gamma_curve(EXAMPLE, SWEEP_QS)
    for q in SWEEP_QS[::8]:
        at_q = dataclasses.replace(EXAMPLE, queries=q)
        assert gamma_bound(EXAMPLE, q)._mpf_ == ref.gamma_bound(
            EXAMPLE, q, "exact"), q
        assert theorem1_bound(at_q)._mpf_ == ref.theorem1_bound(
            at_q, "exact"), q


@settings(max_examples=200, deadline=None)
@given(st.floats(0.5, 1, exclude_min=True, exclude_max=True),
       st.floats(1e-15, 1e-2), st.floats(-4, 4))
def test_h_inv_certificate_implies_the_bracket(hi, tol, offset):
    # z ln 2 within a few tol^2 of h(hi - tol), where the curvature term
    # decides: the certificate may pass only where evaluating
    # h(hi - tol) >= z ln 2 at 240 bits passes
    P, rnd = bounds_module._P, bounds_module._RND
    him, tolm = libmp.from_float(hi), libmp.from_float(tol)
    lo = libmp.mpf_sub(him, tolm, P, rnd)
    assume(libmp.mpf_gt(lo, libmp.from_float(0.5)))
    h_lo = bounds_module._h_nats(lo)[0]
    zn = libmp.mpf_add(h_lo, libmp.from_float(offset * tol * tol), P, rnd)
    h, a, b = bounds_module._h_nats(him)
    assume(libmp.mpf_le(h, zn))  # hi lies above the root
    if bounds_module._certified(him, libmp.mpf_sub(h, zn, P, rnd),
                                libmp.mpf_sub(b, a, P, rnd), tolm):
        assert libmp.mpf_ge(h_lo, zn)


# z near 0 and near 1, where the root nears 1 and 1/2 and |h'| -> 0 there
_EDGE_ZS = st.one_of(
    st.floats(0, 1e-3, exclude_min=True),
    st.floats(1 - 1e-3, 1, exclude_max=True),
    st.floats(0, 1, exclude_min=True, exclude_max=True),
)


@settings(max_examples=150, deadline=None)
@given(_EDGE_ZS, st.floats(1e-15, 1e-2))
def test_h_inv_certificate_keeps_the_reference_value(z, tol):
    assert entropy_h_inv(z, tol)._mpf_ == ref.entropy_h_inv(z, tol)


def test_sweep_curve_and_closed_form_frozen():
    points = gamma_curve(EXAMPLE, SWEEP_QS)
    assert [pt.neg_log2_gamma for pt in points] == SWEEP_NEG_LOG2_GAMMA
    closed = [float(theorem1_bound(dataclasses.replace(EXAMPLE, queries=q),
                                   "closed-form")) for q in SWEEP_QS]
    assert closed == SWEEP_CLOSED_FORM


def test_threads_share_the_sweep_bit_for_bit():
    # bounds never switches the global mpmath context: four threads with
    # a tiny switch interval get the serial values, and mp.prec is as it was
    at_q = [dataclasses.replace(EXAMPLE, queries=q) for q in SWEEP_QS]

    def sweep():
        return ([log2_gamma(EXAMPLE, q)._mpf_ for q in SWEEP_QS],
                [theorem1_bound(b, "closed-form")._mpf_ for b in at_q])

    serial, prec = sweep(), mpmath.mp.prec
    results = []

    def worker():
        for _ in range(6):
            results.append(sweep())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        left, mpmath.mp.prec = mpmath.mp.prec, prec
    assert not any(t.is_alive() for t in threads)
    assert left == prec
    assert len(results) == 24
    for got in results:
        assert got == serial


# -- the mpf-operator reference ---------------------------------------------
# bounds evaluates on raw libmp tuples; tests/bounds_reference.py keeps the
# same evaluators written with mpf operators on a 240-bit context, and
# every value must be the same tuple


def _outcome(call):
    """``call()``'s ``_mpf_`` tuple (or its value), or the ValueError it
    raised as (type name without a leading underscore, message)."""
    try:
        got = call()
    except ValueError as e:
        return type(e).__name__.lstrip("_"), str(e)
    return getattr(got, "_mpf_", got)


def test_sweep_matches_the_mpf_operator_reference():
    assert gamma_curve(EXAMPLE, SWEEP_QS) == ref.gamma_curve(EXAMPLE, SWEEP_QS)
    for q in SWEEP_QS:
        at_q = dataclasses.replace(EXAMPLE, queries=q)
        for variant in ("exact", "closed-form"):
            assert gamma_bound(EXAMPLE, q, variant)._mpf_ == ref.gamma_bound(
                EXAMPLE, q, variant), (q, variant)
            assert log2_gamma(EXAMPLE, q, variant)._mpf_ == ref.log2_gamma(
                EXAMPLE, q, variant), (q, variant)
            assert theorem1_bound(at_q, variant)._mpf_ == ref.theorem1_bound(
                at_q, variant), (q, variant)


_REFERENCE_ZS = [
    0, 1, 5e-324, 1e-300, 1e-60, 1e-11, 2**-53, 0.3, 0.5, 0.875, 1 - 1e-15,
    1 - 2**-53, Fraction(7, 8), Fraction(1, 3), Fraction(1) - Fraction(1, 10**30),
    mpmath.mpf("0.3"), True,
] + [random.Random(3).random() for _ in range(20)]


@pytest.mark.parametrize("tol", [1e-12, 1e-4])
def test_entropy_numerics_match_the_mpf_operator_reference(tol):
    for z in _REFERENCE_ZS + SWEEP_ZS:
        assert entropy_h_inv(z, tol)._mpf_ == ref.entropy_h_inv(z, tol), z
    for p in _REFERENCE_ZS:
        assert entropy_h(p)._mpf_ == ref.entropy_h(p), p
        assert h_inv_upper(p)._mpf_ == ref.h_inv_upper(p), p


@pytest.mark.parametrize("z", [1e-60, 1 - 1e-15, 0.3, Fraction(7, 8)])
def test_bisection_matches_the_mpf_operator_reference(z):
    # tol 1e-100 is finer than the 240-bit grid: the bisection finishes
    assert entropy_h_inv(z, 1e-100)._mpf_ == ref.entropy_h_inv(z, 1e-100)


_QUERIES = st.one_of(
    st.integers(0, 2**40),
    st.floats(0, 2.0**40),
    st.fractions(min_value=0, max_value=2**40, max_denominator=10**9),
)


@st.composite
def _bound_inputs(draw):
    passes = draw(st.integers(1, 3))
    msg_bits = draw(st.integers(1, 160))
    fields = dict(
        # a small key is mostly too small for the inputs, a large one fits
        n_bits=draw(st.one_of(st.integers(1, 2**20), st.integers(1, 2**62))),
        leak_bits=draw(st.integers(0, 2**44)),
        msg_bits=msg_bits,
        num_probes=draw(st.integers(0, 600)),
        passes=passes,
        queries=draw(_QUERIES),
        oracle_calls=draw(st.one_of(st.just(0), st.integers(1, 2**20),
                                    st.floats(0, 2.0**20))),
    )
    rounds = draw(st.one_of(st.none(), st.integers(0, 2000)))
    if rounds is None:
        return BoundInputs.from_passes(**fields)
    return BoundInputs(rounds=rounds, **fields)


_KEY_TOO_SMALL = BoundInputs.from_passes(
    n_bits=128, leak_bits=64, msg_bits=8, num_probes=17, passes=1, queries=4)


@settings(max_examples=150, deadline=None)
@given(_bound_inputs())
@example(_KEY_TOO_SMALL)
@example(dataclasses.replace(EXAMPLE, passes=0))
@example(dataclasses.replace(  # counts given as whole floats
    EXAMPLE, n_bits=2.0**43, leak_bits=2.0**40, num_probes=501.0, passes=2.0,
    rounds=510.0))
@example(dataclasses.replace(EXAMPLE, num_probes=501, oracle_calls=Fraction(7, 3),
                             queries=Fraction(2**30, 3)))
def test_calculators_match_the_mpf_operator_reference(b):
    q = b.queries
    for variant in ("exact", "closed-form"):
        assert _outcome(lambda: theorem1_bound(b, variant)) == _outcome(
            lambda: ref.theorem1_bound(b, variant))
        assert _outcome(lambda: gamma_bound(b, q, variant)) == _outcome(
            lambda: ref.gamma_bound(b, q, variant))
    assert _outcome(lambda: log2_gamma(b, q)) == _outcome(
        lambda: ref.log2_gamma(b, q))
    qs = [q, q / 3, 1, 0]
    assert _outcome(lambda: gamma_curve(b, qs)) == _outcome(
        lambda: ref.gamma_curve(b, qs))
    assert naive_adv_lower(b) == NaiveAdvBound(*ref.naive_adv_lower(b))


def test_key_too_small_raises_the_reference_error():
    outcome = _outcome(lambda: theorem1_bound(_KEY_TOO_SMALL))
    assert outcome == _outcome(lambda: ref.theorem1_bound(_KEY_TOO_SMALL))
    assert outcome[0] == "KeyTooSmall"
    assert "= -0.0625 is negative" in outcome[1]


@pytest.mark.parametrize("q", [math.nan, math.inf, -1.0])
def test_non_finite_queries_fail_as_the_reference_does(q):
    for variant in ("exact", "closed-form"):
        assert _outcome(lambda: gamma_bound(EXAMPLE, q, variant)) == _outcome(
            lambda: ref.gamma_bound(EXAMPLE, q, variant))
    assert _outcome(lambda: gamma_curve(EXAMPLE, [q])) == _outcome(
        lambda: ref.gamma_curve(EXAMPLE, [q]))


def _dotted(node):
    """'a.b.c' for an attribute chain rooted at a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def test_bounds_holds_no_mpmath_context():
    # the evaluators are libmp calls at a fixed precision: bounds makes no
    # MPContext, never sets or scopes a precision, and reads mpmath.mp only
    # to wrap a result (mpmath.mpf is named only as a return annotation)
    path = bounds_module.__file__
    tree = ast.parse(open(path).read(), path)
    annotations = {id(node) for f in ast.walk(tree)
                   if isinstance(f, ast.FunctionDef) and f.returns
                   for node in ast.walk(f.returns)}
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module in ("__future__", "dataclasses", "fractions",
                                   "typing", "mpmath.libmp", "thorp"), node.module
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        assert name not in ("MPContext", "workprec", "workdps", "extraprec",
                            "extradps", "prec", "dps"), node.lineno
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            dotted = _dotted(node)
            if dotted and dotted.startswith("mpmath."):
                assert dotted == "mpmath.mp.make_mpf" or (
                    dotted == "mpmath.mpf" and id(node) in annotations
                ), (dotted, node.lineno)


def _assert_near_500bit_root(z, tol=1e-12):
    ours = entropy_h_inv(z, tol=tol)
    with mpmath.workprec(500):
        assert abs(ours - _h_inv_500bit(z)) <= tol, z


def _spy_upper_seed(monkeypatch):
    # the fallback seed is h_inv_upper's value, which the solver takes
    # from the private helper behind it
    seeds = []
    upper = bounds_module._h_upper
    monkeypatch.setattr(bounds_module, "_h_upper",
                        lambda z: seeds.append(z) or upper(z))
    return seeds


@pytest.mark.parametrize("z", [1e-60, 1 - 1e-15])
def test_h_inv_float_seed_fallback(z, monkeypatch):
    # the float64 solve leaves (1/2, 1) at 1e-60 and lands below the root
    # at 1 - 1e-15, so the solve starts from the upper bound
    seeds = _spy_upper_seed(monkeypatch)
    _assert_near_500bit_root(z)
    assert len(seeds) == 1


@pytest.mark.parametrize("seed", [0.7, 0.5 + 1e-9, None])
def test_h_inv_seed_below_root_or_missing(seed, monkeypatch):
    # the root at z = 7/8 is 0.7050...: every seed here is unusable
    monkeypatch.setattr(bounds_module, "_h_inv_float", lambda z: seed)
    seeds = _spy_upper_seed(monkeypatch)
    _assert_near_500bit_root(Fraction(7, 8))
    assert len(seeds) == 1


def test_h_inv_accepts_every_number_type():
    for z in (0, 1):
        assert entropy_h_inv(z) == entropy_h_inv(float(z))
    values = {entropy_h_inv(z)
              for z in (0.875, Fraction(7, 8), mpmath.mpf("0.875"))}
    assert len(values) == 1
    _assert_near_500bit_root(Fraction(7, 8))


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1, exclude_min=True, exclude_max=True))
def test_h_inv_matches_500bit_root_anywhere(z):
    _assert_near_500bit_root(z)


def test_h_inv_upper_dominates_and_matches_float_route():
    # independent float evaluation of the algebraic form
    for i in range(101):
        z = i / 100
        upper = float(h_inv_upper(z))
        assert float(entropy_h_inv(z)) <= upper + 1e-12
        direct = 0.5 + 0.5 * math.sqrt(1 - z ** math.log(4))
        assert abs(upper - direct) < 1e-12
    assert h_inv_upper(0) == 1
    assert abs(float(h_inv_upper(1)) - 0.5) < 1e-40


def test_h_upper_envelope():
    # h(p) <= (4 p (1-p))^(1/ln 4)
    for i in range(101):
        p = i / 100
        envelope = (4 * p * (1 - p)) ** (1 / math.log(4))
        assert float(entropy_h(p)) <= envelope + 1e-12


# -- BoundInputs ------------------------------------------------------------


def test_alpha_property():
    assert EXAMPLE.alpha == 2**40 + 128 * (2**30 + 1) + 510
    assert EXAMPLE.rounds == 510


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(n_bits=0, leak_bits=1, msg_bits=8, num_probes=1,
                    passes=1, rounds=15, queries=1)
    with pytest.raises(ValueError):
        BoundInputs(n_bits=64, leak_bits=-1, msg_bits=8, num_probes=1,
                    passes=1, rounds=15, queries=1)
    with pytest.raises(ValueError):
        BoundInputs(n_bits=64, leak_bits=1, msg_bits=0, num_probes=1,
                    passes=1, rounds=15, queries=1)
    with pytest.raises(ValueError):
        BoundInputs(n_bits=64, leak_bits=1, msg_bits=8, num_probes=1,
                    passes=1, rounds=15, queries=-2)
    for name in ("n_bits", "leak_bits", "num_probes", "passes", "rounds"):
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            dataclasses.replace(EXAMPLE, **{name: getattr(EXAMPLE, name) + 0.5})
    # NaN once failed deep in the evaluator and inf overflowed the naive
    # bound; an int past the float range is still an exact count
    for name in ("queries", "oracle_calls"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                dataclasses.replace(EXAMPLE, **{name: value})
        assert getattr(dataclasses.replace(EXAMPLE, **{name: 2**2000}),
                       name) == 2**2000


def test_whole_float_msg_bits_works_as_its_int():
    # a whole-float m is a count like the others: every calculator gives the
    # int's results, though libmp takes a shift count only as an int
    fields = dict(n_bits=2**43, leak_bits=2**40, num_probes=500, passes=2,
                  queries=2**30, oracle_calls=3)
    whole = BoundInputs.from_passes(msg_bits=128.0, **fields)
    exact = BoundInputs.from_passes(msg_bits=128, **fields)
    assert type(whole.msg_bits) is int
    qs = [1, 2.0**20, 2**30]
    for variant in ("exact", "closed-form"):
        assert theorem1_bound(whole, variant) == theorem1_bound(exact, variant)
        for q in qs:
            assert gamma_bound(whole, q, variant) == gamma_bound(exact, q, variant)
    qs += [2.0**60]  # the key is too small here, and the curve says so
    assert gamma_curve(whole, qs) == gamma_curve(exact, qs)
    assert not gamma_curve(whole, qs)[-1].valid
    assert naive_adv_lower(whole) == naive_adv_lower(exact)


# -- the advantage bound ----------------------------------------------------


def test_bound_zero_queries():
    b = BoundInputs.from_passes(n_bits=2**20, leak_bits=2**10, msg_bits=16,
                                num_probes=8, passes=1, queries=0)
    assert theorem1_bound(b) == 0
    assert gamma_bound(b, 0) == 0
    assert log2_gamma(b, 0) == mpmath.mpf("-inf")


def test_bound_rejects_unknown_variant():
    with pytest.raises(ValueError):
        theorem1_bound(EXAMPLE, variant="fast")


def test_gamma_bound_rejects_zero_passes_and_negative_q():
    with pytest.raises(ValueError, match="passes must be at least 1"):
        gamma_bound(dataclasses.replace(EXAMPLE, passes=0), 2**10)
    with pytest.raises(ValueError, match="q must be nonnegative"):
        gamma_bound(EXAMPLE, -1)


def test_bound_rejects_oversubscribed_key():
    # alpha + k exceeds the key size: the inverse-entropy argument
    # goes negative and the bound statement does not apply
    b = BoundInputs.from_passes(n_bits=128, leak_bits=64, msg_bits=8,
                                num_probes=16, passes=1, queries=4)
    with pytest.raises(ValueError):
        theorem1_bound(b)


def test_closed_form_dominates_exact():
    rng = random.Random(6)
    for _ in range(20):
        b = BoundInputs.from_passes(
            n_bits=10**6, leak_bits=rng.randrange(0, 10**4),
            msg_bits=rng.randrange(8, 32), num_probes=rng.randrange(1, 100),
            passes=rng.randrange(1, 4), queries=rng.randrange(1, 50),
            oracle_calls=rng.randrange(0, 10),
        )
        assert theorem1_bound(b, "closed-form") >= theorem1_bound(b, "exact")


def test_bound_monotone_in_each_argument():
    base = small_inputs()
    value = theorem1_bound(base)
    assert theorem1_bound(dataclasses.replace(base, queries=200.0)) > value
    assert theorem1_bound(dataclasses.replace(base, oracle_calls=6.0)) > value
    assert theorem1_bound(dataclasses.replace(base, leak_bits=2 * 10**4)) > value
    assert theorem1_bound(
        dataclasses.replace(base, rounds=2 * base.rounds)) > value


def test_bound_matches_independent_float_route():
    # same formula rebuilt from scratch with stdlib floats and a float
    # bisection, at parameters far from underflow
    b = small_inputs()

    def float_h(p):
        if p in (0.0, 1.0):
            return 0.0
        return -p * math.log2(p) - (1 - p) * math.log2(1 - p)

    def float_h_inv(z):
        lo, hi = 0.5, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if float_h(mid) > z:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    q, m, k, s, T, p = (b.queries, b.msg_bits, b.num_probes, b.passes,
                        b.rounds, b.oracle_calls)
    alpha = b.leak_bits + m * (q + 1) + T
    z = 1 - (alpha + k) / b.n_bits
    expected = (
        q / (s + 1) * (4 * m * q / 2**m) ** s
        + q * T / 2 * float_h_inv(z) ** (k / 2)
        + q * p / 2 ** (m - 1)
        + q * T / 2**m
    )
    assert abs(float(theorem1_bound(b)) - expected) <= 1e-9 * expected


def test_example_bound_frozen_values():
    # frozen from a 300-bit scratch oracle of the same formula
    cases = [
        (2**10, 2.988733526e-33),
        (2**20, 3.073646405e-30),
        (2**30, 2.148120812e-25),
    ]
    for q, expected in cases:
        got = float(gamma_bound(EXAMPLE, q))
        assert abs(got - expected) <= 1e-6 * expected
    full = float(theorem1_bound(dataclasses.replace(EXAMPLE, queries=2**30)))
    assert full >= cases[-1][1]


def test_log_domain_route_agrees_with_linear():
    # the linear-domain leading terms at 500 bits, coded independently
    m, k, s, T = (EXAMPLE.msg_bits, EXAMPLE.num_probes, EXAMPLE.passes,
                  EXAMPLE.rounds)
    for q in (2**10, 2**20, 2**30, 12345.0):
        z = 1 - (EXAMPLE.leak_bits + m * (Fraction(q) + 1) + T + k) / Fraction(
            EXAMPLE.n_bits)
        root = _h_inv_500bit(z)
        with mpmath.workprec(500):
            qm = mpmath.mpf(q)
            linear = (qm / (s + 1) * (4 * m * qm / mpmath.mpf(2) ** m) ** s
                      + qm * T / 2 * root ** (mpmath.mpf(k) / 2))
            assert abs(log2_gamma(EXAMPLE, q) - mpmath.log(linear, 2)) < 1e-9


def test_gamma_monotone_in_q():
    qs = [2 ** (10 + i) for i in range(23)]
    values = [gamma_bound(EXAMPLE, q) for q in qs]
    assert all(a <= b for a, b in zip(values, values[1:]))


# -- curve emission ---------------------------------------------------------


def test_curve_valid_rows():
    points = gamma_curve(EXAMPLE, [2**10, 2**20, 2**30])
    assert all(pt.valid for pt in points)
    assert [round(pt.log2_q) for pt in points] == [10, 20, 30]
    assert points[0].neg_log2_gamma > points[-1].neg_log2_gamma
    assert abs(points[-1].neg_log2_gamma - 81.945127) < 1e-5


def test_curve_flags_naive_hypothesis_violation():
    b = BoundInputs.from_passes(n_bits=2**20, leak_bits=64, msg_bits=8,
                                num_probes=4, passes=1, queries=1)
    points = gamma_curve(b, [2.0, 64.0])
    assert points[0].valid is False  # bound above 1 at these tiny sizes
    assert points[1].reason == "q * floor(leak_bits/msg_bits) > 2^msg_bits"
    assert points[1].neg_log2_gamma is None


def test_curve_flags_negative_entropy_argument():
    b = BoundInputs.from_passes(n_bits=128, leak_bits=100, msg_bits=8,
                                num_probes=16, passes=1, queries=1)
    points = gamma_curve(b, [4.0])
    assert points[0].valid is False
    assert "n_bits" in points[0].reason


def test_curve_flags_negative_q():
    points = gamma_curve(EXAMPLE, [-1.0])
    assert points[0].valid is False
    assert points[0].reason == "q < 0"
    assert points[0].neg_log2_gamma is None


def test_curve_flags_bound_above_one():
    b = BoundInputs.from_passes(n_bits=2**20, leak_bits=0, msg_bits=8,
                                num_probes=4, passes=1, queries=1)
    points = gamma_curve(b, [200.0])
    assert points[0].valid is False
    assert points[0].reason == "bound exceeds 1"


def test_curve_csv_format():
    points = gamma_curve(EXAMPLE, [2**10, 2**20])
    bad = gamma_curve(
        BoundInputs.from_passes(n_bits=2**20, leak_bits=64, msg_bits=8,
                                num_probes=4, passes=1, queries=1),
        [64.0],
    )
    out = io.StringIO()
    write_curve_csv(points + bad, out)
    lines = out.getvalue().strip().split("\n")
    assert lines[0] == "log2_q,neg_log2_gamma,valid"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "10"
    assert first[2] == "1"
    assert abs(float(first[1]) - 108.04409) < 1e-4
    assert abs(float(first[1]) - points[0].neg_log2_gamma) < 1e-7
    assert lines[3].endswith(",,0")  # invalid rows carry no value


# -- naive adversary --------------------------------------------------------


def test_naive_example_exact_power_of_two():
    naive = naive_adv_lower(dataclasses.replace(EXAMPLE, queries=1))
    assert naive.simple == Fraction(1, 2**97)
    assert naive.hypothesis_ok


def test_naive_hypothesis_boundary():
    b = BoundInputs.from_passes(n_bits=2**20, leak_bits=8, msg_bits=4,
                                num_probes=4, passes=1, queries=8)
    assert naive_adv_lower(b).hypothesis_ok  # q*c = 16 = 2^m exactly
    assert not naive_adv_lower(dataclasses.replace(b, queries=9)).hypothesis_ok


def test_naive_values_are_exact_fractions():
    b = BoundInputs.from_passes(n_bits=2**20, leak_bits=100, msg_bits=8,
                                num_probes=4, passes=1, queries=5)
    naive = naive_adv_lower(b)
    c = 100 // 8
    x = Fraction(5 * c, 2**8)
    assert naive.simple == x / 4
    assert naive.hypergeometric == x / (1 + x) * (1 - Fraction(1, 2**8))


def test_naive_sharper_form_dominates_simple_under_hypothesis():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randrange(2, 20)
        leak = rng.randrange(0, 8 * m)
        c = leak // m
        q_max = (2**m // c) if c else 100
        b = BoundInputs.from_passes(
            n_bits=2**30, leak_bits=leak, msg_bits=m, num_probes=4,
            passes=1, queries=rng.randrange(1, max(2, q_max)),
        )
        naive = naive_adv_lower(b)
        if naive.hypothesis_ok:
            assert naive.hypergeometric >= naive.simple
