"""The bound evaluators written with mpmath's ``mpf`` operators, as a
reference for ``bigthorp.bounds``.

This is the arithmetic ``bounds`` used before it moved to raw
``mpmath.libmp`` calls: a private ``MPContext`` fixed at 240 bits, on
which every operator and function rounds to nearest.  The library must
give the same ``_mpf_`` tuples, and raise the same errors, for every
input.  Functions mirror the public calculators and return ``_mpf_``
tuples (the curve returns ``GammaPoint`` rows); only the data classes
come from ``bigthorp``.
"""

import math
from fractions import Fraction

import mpmath

from bigthorp import GammaPoint

_ctx = mpmath.MPContext()
_ctx.prec = 240
_mpf = _ctx.mpf
_ln = _ctx.ln
_ldexp = _ctx.ldexp
_LN2 = _mpf(_ctx.ln2)
_LN4 = _ldexp(_LN2, 1)
_HALF = _mpf(0.5)
_ZERO = _mpf(0)
_TOL_MPF = _mpf(1e-12)


class KeyTooSmall(ValueError):
    pass


def _to_mpf(x):
    if isinstance(x, Fraction):
        return _mpf(x.numerator) / _mpf(x.denominator)
    return _mpf(x)


def _check_unit(name, x):
    if not 0 <= x <= 1:
        raise ValueError(f"{name} must be in [0, 1], got {x}")


def _h_nats(p):
    a, b = _ln(p), _ln(1 - p)
    return -p * a - (1 - p) * b, a, b


def _h_inv_float(z):
    try:
        p = 0.5 + math.sqrt(1 - z ** math.log(4)) / 2
        for _ in range(40):
            h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
            step = (h - z) / math.log2((1 - p) / p)
            p -= step
            if abs(step) < 1e-15:
                break
        p += 1e-13
    except (ArithmeticError, ValueError):
        return None
    return p if 0.5 < p < 1 else None


def _h_upper(zm):
    if zm == 0:
        return _mpf(1)
    return _HALF + _ldexp(_ctx.sqrt(1 - zm ** _LN4), -1)


def _h_inv(zm, tolm):
    if zm == 0:
        return _mpf(1)
    if zm == 1:
        return _HALF
    zn = zm * _LN2
    seed, first = _h_inv_float(float(zm)), None
    if seed is not None:
        hi = _mpf(seed)
        first = _h_nats(hi)
        if first[0] > zn:
            seed = first = None
    if seed is None:
        hi = _h_upper(zm)
    for _ in range(32):
        new = hi
        if hi < 1:
            h, a, b = first or _h_nats(hi)
            first = None
            if h > zn:
                break
            new = hi - (h - zn) / (b - a)
        if hi - new <= tolm:
            if _h_nats(max(_HALF, hi - tolm))[0] >= zn:
                return new
            if new == hi:
                break
        hi = new
    lo, hi = _HALF, _mpf(1)
    mid = _ldexp(lo + hi, -1)
    while hi - lo > tolm and lo < mid < hi:
        if _h_nats(mid)[0] > zn:
            lo = mid
        else:
            hi = mid
        mid = _ldexp(lo + hi, -1)
    return mid


def entropy_h(p):
    pm = _to_mpf(p)
    if pm == 0 or pm == 1:
        return _ZERO._mpf_
    return (_h_nats(pm)[0] / _LN2)._mpf_


def entropy_h_inv(z, tol=1e-12):
    return _h_inv(_to_mpf(z), _mpf(tol))._mpf_


def h_inv_upper(z):
    return _h_upper(_to_mpf(z))._mpf_


def _gamma(b, qm, variant):
    if qm == 0:
        return _ZERO, _ZERO
    m, k, s, T = b.msg_bits, b.num_probes, b.passes, b.rounds
    z = 1 - (_mpf(b.leak_bits) + m * (qm + 1) + T + k) / b.n_bits
    if z < 0:
        raise KeyTooSmall(
            f"invalid inputs: 1 - (alpha + num_probes)/n_bits = "
            f"{mpmath.nstr(z, 6)} is negative (key too small for these "
            f"parameters)"
        )
    _check_unit("z", z)
    base = _h_inv(z, _TOL_MPF) if variant == "exact" else _h_upper(z)
    t1 = qm / (s + 1) * _ldexp(4 * m * qm, -m) ** s
    half_k = base ** (k // 2) if k % 2 == 0 else base ** _ldexp(k, -1)
    return t1, _ldexp(qm * T, -1) * half_k


def _check_bound(b, variant):
    if variant not in ("exact", "closed-form"):
        raise ValueError(f"unknown variant {variant!r}")
    if b.passes < 1:
        raise ValueError("passes must be at least 1 for the advantage bound")


def _checked_gamma(b, q, variant):
    _check_bound(b, variant)
    qm = _to_mpf(q)
    if qm < 0:
        raise ValueError("q must be nonnegative")
    return _gamma(b, qm, variant)


def gamma_bound(b, q, variant="exact"):
    t1, t2 = _checked_gamma(b, q, variant)
    return (t1 + t2)._mpf_


def log2_gamma(b, q, variant="exact"):
    t1, t2 = _checked_gamma(b, q, variant)
    return _ctx.log(t1 + t2, 2)._mpf_


def theorem1_bound(b, variant="exact"):
    q, p = _to_mpf(b.queries), _to_mpf(b.oracle_calls)
    t1, t2 = _checked_gamma(b, q, variant)
    m = b.msg_bits
    t3, t4 = _ldexp(q * p, 1 - m), _ldexp(q * b.rounds, -m)
    return (t1 + t2 + t3 + t4)._mpf_


def gamma_curve(b, q_values):
    c = b.leak_bits // b.msg_bits
    two_m = _ldexp(1, b.msg_bits)
    points = []
    for q in q_values:
        qm = _to_mpf(q)
        lg_q = float(_ctx.log(qm, 2)) if qm > 0 else float("-inf")
        neg, reason = None, ""
        if qm < 0:
            reason = "q < 0"
        elif qm * c > two_m:
            reason = "q * floor(leak_bits/msg_bits) > 2^msg_bits"
        else:
            _check_bound(b, "exact")
            try:
                t1, t2 = _gamma(b, qm, "exact")
            except KeyTooSmall:
                reason = "1 - (alpha + num_probes)/n_bits < 0"
            else:
                neg = float(-_ctx.log(t1 + t2, 2))
                if neg < 0:
                    neg, reason = None, "bound exceeds 1"
        points.append(GammaPoint(float(q), lg_q, neg, not reason, reason))
    return points


def naive_adv_lower(b):
    """(simple, hypergeometric, hypothesis_ok) from the Fraction formulas,
    with c an int, so that a whole float leak_bits stays exact."""
    q = Fraction(b.queries)
    c = int(b.leak_bits // b.msg_bits)
    two_m = 2 ** b.msg_bits
    x = q * c / two_m
    hyper = x / (1 + x) * (1 - Fraction(1, two_m))
    return x / 4, hyper, q * c <= two_m
