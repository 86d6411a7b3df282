"""Advantage-bound calculators and binary-entropy numerics.

Everything here is evaluated at 240-bit working precision, because the
interesting bound values live around 2^-100 where float64 arithmetic on
the intermediate terms would shed exactly the digits the caller cares
about.  The evaluators are pure ``mpmath.libmp`` calls on raw mpf
tuples, each at a fixed 240 bits with round-to-nearest: they hold no
context and read no global state, so the global ``mpmath.mp`` precision
is never read or changed, and threads may evaluate bounds concurrently.
Each operation is the libmp call that the matching ``mpf`` operator
makes at 240 bits, and a base-2 logarithm takes both natural logarithms
at 260 bits as ``mpmath.log(x, 2)`` does, so the values are those of
mpmath's ``mpf`` arithmetic.  Each public function checks its arguments
once, converts them at the boundary, and calls unchecked private
helpers.  Results are global ``mpmath.mpf`` values that carry the
240-bit mantissas; arithmetic on them rounds at the caller's precision.
Convert with ``float()`` at the edge if needed.

The distinguishing-advantage bound for the cipher is a four-term sum in
the query count q, message width m, probe count k, pass count s (with
T = s * (2m - 1) rounds), key size N, leaked bits L, and direct oracle
calls p::

    q/(s+1) * (4*m*q / 2^m)^s
  + (q*T/2) * hinv(1 - (alpha + k)/N)^(k/2)      alpha = L + m*(q+1) + T
  + q*p / 2^(m-1)
  + q*T / 2^m

where ``hinv`` is the inverse of the binary entropy function on the
branch [1/2, 1].  The "closed-form" variant replaces hinv(z) with the
algebraic upper bound 1/2 + 1/2 * sqrt(1 - z^(ln 4)), which never
decreases the result.  The curve helpers report the log2 of the two
leading terms (the parts that survive when p is not counted and qT/2^m
is negligible), so points far below the float range still plot.

The naive-adversary calculator is exact: it returns ``Fraction`` values
for the guaranteed-advantage lower bounds of an adversary that leaks
floor(L/m) full codebook entries, along with a flag for whether the
regime hypothesis q * floor(L/m) <= 2^m holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Dict, Iterable, List, Optional, Union

import mpmath
from mpmath.libmp import (
    fnan, fone, fzero, from_float, from_int, mpf_add, mpf_div, mpf_eq,
    mpf_ge, mpf_gt, mpf_le, mpf_ln2, mpf_log, mpf_lt, mpf_mul, mpf_mul_int,
    mpf_neg, mpf_pos, mpf_pow, mpf_pow_int, mpf_shift, mpf_sqrt, mpf_sub,
    round_nearest, to_float, to_str,
)

from .thorp import _rounds_for

PRECISION_BITS = 240

Number = Union[int, float, Fraction]

_CSV_HEADER = "log2_q,neg_log2_gamma,valid"
# Newton steps before bisection: one from the float64 seed, at most five
# from the upper bound; the float64 solve itself stops after _FLOAT_STEPS
_NEWTON_STEPS = 32
_FLOAT_STEPS = 40
_FLOAT_LN4 = math.log(4)

# every libmp call below rounds to nearest at _P bits; a base-2 logarithm
# takes its natural logarithms 20 bits finer, as mpmath.log(x, 2) does
_P, _RND = PRECISION_BITS, round_nearest
_LOG_P = PRECISION_BITS + 20
_LN2 = mpf_ln2(_P, _RND)
_LN2_LOG = mpf_log(from_int(2), _LOG_P, _RND)
_LN4 = mpf_shift(_LN2, 1)
_HALF = from_float(0.5)
_TOL = 1e-12
_TOL_MPF = from_float(_TOL)


def _to_mpf(x):
    """``x`` as a raw mpf tuple rounded to 240 bits."""
    if isinstance(x, float):
        return from_float(x)
    if isinstance(x, int):
        return from_int(x, _P, _RND)
    if isinstance(x, Fraction):
        return mpf_div(from_int(x.numerator, _P, _RND),
                       from_int(x.denominator, _P, _RND), _P, _RND)
    if hasattr(x, "_mpf_"):  # an mpmath mpf
        return mpf_pos(x._mpf_, _P, _RND)
    raise TypeError(f"cannot create mpf from {x!r}")


def _out(x) -> mpmath.mpf:
    """The raw 240-bit value ``x`` as a global ``mpmath.mpf``."""
    return mpmath.mp.make_mpf(x)


def _log2(x):
    """log2 of a raw ``x``: ln x over ln 2, both at 260 bits, rounded to 240."""
    return mpf_div(mpf_log(x, _LOG_P, _RND), _LN2_LOG, _P, _RND)


def _check_unit(name: str, x) -> None:
    if not 0 <= x <= 1:
        raise ValueError(f"{name} must be in [0, 1], got {x}")


def _h_nats(p):
    """h(p) in nats for 0 < p < 1, with the ln p and ln(1 - p) it took."""
    q = mpf_sub(fone, p, _P, _RND)
    a, b = mpf_log(p, _P, _RND), mpf_log(q, _P, _RND)
    h = mpf_sub(mpf_mul(mpf_neg(p, _P, _RND), a, _P, _RND),
                mpf_mul(q, b, _P, _RND), _P, _RND)
    return h, a, b


def entropy_h(p: Number) -> mpmath.mpf:
    """Binary entropy h(p) in bits; h(0) = h(1) = 0."""
    _check_unit("p", p)
    pm = _to_mpf(p)
    if mpf_eq(pm, fzero) or mpf_eq(pm, fone):
        return _out(fzero)
    return _out(mpf_div(_h_nats(pm)[0], _LN2, _P, _RND))


def _h_inv_float(z: float) -> Optional[float]:
    """A float64 Newton solve of h(p) = z from the closed-form bound, plus
    1e-13 so that it sits above the root; None if it leaves (1/2, 1)."""
    try:
        p = 0.5 + math.sqrt(1 - z ** _FLOAT_LN4) / 2
        for _ in range(_FLOAT_STEPS):
            h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
            step = (h - z) / math.log2((1 - p) / p)
            p -= step
            if abs(step) < 1e-15:
                break
        p += 1e-13
    except (ArithmeticError, ValueError):  # p reached 1/2 or 1
        return None
    return p if 0.5 < p < 1 else None


def entropy_h_inv(z: Number, tol: float = _TOL) -> mpmath.mpf:
    """Inverse of h on the branch [1/2, 1], by Newton's method from above.

    On [1/2, 1] h is concave and strictly decreasing, so a tangent step
    taken from a point above the root lands between the root and that
    point, and the iterates fall monotonically onto the root; the
    vanishing derivative at 1/2 does not break this.  A step costs ln p
    and ln(1 - p), which also give the derivative ln((1 - p)/p) in nats.
    The seed is a float64 solve placed 1e-13 above the root, whose
    evaluation is the first step; one more evaluation checks the bracket
    below, so a solve usually costs two.  Where the float solve leaves
    (1/2, 1) (z below about 1e-11, or z within rounding of 1) or lands
    below the root, the seed is the upper bound ``h_inv_upper(z)``
    instead, which takes up to five steps.  The result is returned once a
    bracket [lo, hi] with hi - lo <= ``tol`` and h(lo) >= z >= h(hi) has
    been evaluated, so ``tol`` is an absolute tolerance on it and no seed
    can move it past that.  Where the upper seed rounds to 1 or rounding
    stalls the iteration, bisection on [1/2, 1] finishes the job; it
    stops at the working precision's resolution (about 1e-72), which is
    what a smaller ``tol`` gets.
    """
    _check_unit("z", z)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _out(_h_inv(_to_mpf(z), _to_mpf(tol)))


def _h_inv(zm, tolm):
    """``entropy_h_inv`` on raw values, for 0 <= zm <= 1."""
    if mpf_eq(zm, fzero):
        return fone
    if mpf_eq(zm, fone):
        return _HALF
    zn = mpf_mul(zm, _LN2, _P, _RND)
    seed, first = _h_inv_float(to_float(zm, rnd=_RND)), None
    if seed is not None:
        hi = from_float(seed)
        first = _h_nats(hi)
        if mpf_gt(first[0], zn):  # the seed is below the root
            seed = first = None
    if seed is None:
        hi = _h_upper(zm)
    for _ in range(_NEWTON_STEPS):
        new = hi  # the tangent at hi = 1 is vertical
        if mpf_lt(hi, fone):
            h, a, b = first or _h_nats(hi)
            first = None
            if mpf_gt(h, zn):  # rounding put hi below the root
                break
            new = mpf_sub(hi, mpf_div(mpf_sub(h, zn, _P, _RND),
                                      mpf_sub(b, a, _P, _RND), _P, _RND),
                          _P, _RND)
        if mpf_le(mpf_sub(hi, new, _P, _RND), tolm):
            # [hi - tol, hi] brackets the root if h(hi - tol) >= z
            lo = mpf_sub(hi, tolm, _P, _RND)
            if mpf_ge(_h_nats(lo if mpf_gt(lo, _HALF) else _HALF)[0], zn):
                return new
            if mpf_eq(new, hi):  # no progress
                break
        hi = new
    lo, hi = _HALF, fone
    mid = mpf_shift(mpf_add(lo, hi, _P, _RND), -1)
    while (mpf_gt(mpf_sub(hi, lo, _P, _RND), tolm)
           and mpf_lt(lo, mid) and mpf_lt(mid, hi)):
        if mpf_gt(_h_nats(mid)[0], zn):
            lo = mid
        else:
            hi = mid
        mid = mpf_shift(mpf_add(lo, hi, _P, _RND), -1)
    return mid


def h_inv_upper(z: Number) -> mpmath.mpf:
    """Algebraic upper bound on entropy_h_inv: 1/2 + sqrt(1 - z^ln4) / 2."""
    _check_unit("z", z)
    return _out(_h_upper(_to_mpf(z)))


def _h_upper(zm):
    if mpf_eq(zm, fzero):
        return fone
    root = mpf_sqrt(mpf_sub(fone, mpf_pow(zm, _LN4, _P, _RND), _P, _RND),
                    _P, _RND)
    return mpf_add(_HALF, mpf_shift(root, -1), _P, _RND)


@dataclass(frozen=True)
class BoundInputs:
    """Parameter bundle for the advantage-bound calculators.

    ``queries`` and ``oracle_calls`` may be floats so that the curve
    helpers can sweep q between powers of two; everything else is an
    integer count of bits, probes, passes or rounds.
    """

    n_bits: int
    leak_bits: int
    msg_bits: int
    num_probes: int
    passes: int
    rounds: int
    queries: Number
    oracle_calls: Number = 0

    def __post_init__(self):
        if self.n_bits < 1:
            raise ValueError("n_bits must be at least 1")
        if self.msg_bits < 1:
            raise ValueError("msg_bits must be at least 1")
        for name in ("leak_bits", "num_probes", "passes", "rounds",
                     "queries", "oracle_calls"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        # the evaluators take each count as an exact integer
        for name in ("n_bits", "leak_bits", "msg_bits", "num_probes",
                     "passes", "rounds"):
            if getattr(self, name) % 1:
                raise ValueError(f"{name} must be a whole number")
        object.__setattr__(self, "msg_bits", int(self.msg_bits))  # a shift

    @classmethod
    def from_passes(
        cls,
        *,
        n_bits: int,
        leak_bits: int,
        msg_bits: int,
        num_probes: int,
        passes: int,
        queries: Number,
        oracle_calls: Number = 0,
    ) -> "BoundInputs":
        """Derive the round count from passes: T = passes * (2m - 1)."""
        return cls(
            n_bits=n_bits,
            leak_bits=leak_bits,
            msg_bits=msg_bits,
            num_probes=num_probes,
            passes=passes,
            rounds=_rounds_for(msg_bits, passes),
            queries=queries,
            oracle_calls=oracle_calls,
        )

    @property
    def alpha(self) -> Number:
        """Total bits the analysis concedes: leak + m*(q+1) + rounds."""
        return self.leak_bits + self.msg_bits * (self.queries + 1) + self.rounds


class _KeyTooSmall(ValueError):
    """1 - (alpha + num_probes)/n_bits < 0: the bound does not apply."""


def _check_bound(b: BoundInputs, variant: str) -> None:
    if variant not in ("exact", "closed-form"):
        raise ValueError(f"unknown variant {variant!r}")
    if b.passes < 1:
        raise ValueError("passes must be at least 1 for the advantage bound")


def _counts(b: BoundInputs):
    """The counts ``_gamma`` adds and divides by, as raw values: L rounded
    to 240 bits as ``mpf(L)`` is, then T, k, N and s + 1 exactly, as an
    ``mpf`` operator takes an int.  ``mpf_mul`` by an exact count rounds
    the exact product once, as ``mpf_mul_int`` does."""
    return (_to_mpf(b.leak_bits), from_int(b.rounds), from_int(b.num_probes),
            from_int(b.n_bits), from_int(b.passes + 1))


def _gamma(b: BoundInputs, qm, variant: str, counts):
    """The two leading bound terms at a raw query count ``qm`` >= 0.

    The one evaluator behind every bound calculator: it computes
    z = 1 - (alpha + k)/N and the inverse-entropy base once.  ``counts``
    is ``_counts(b)``, which a sweep converts once for all its points.
    """
    if mpf_eq(qm, fzero):
        return fzero, fzero
    m, k, s = b.msg_bits, b.num_probes, b.passes
    leak, rounds, probes, n_bits, passes_1 = counts
    used = mpf_add(leak,
                   mpf_mul_int(mpf_add(qm, fone, _P, _RND), m, _P, _RND),
                   _P, _RND)
    used = mpf_add(mpf_add(used, rounds, _P, _RND), probes, _P, _RND)
    z = mpf_sub(fone, mpf_div(used, n_bits, _P, _RND), _P, _RND)
    if mpf_lt(z, fzero):
        raise _KeyTooSmall(
            f"invalid inputs: 1 - (alpha + num_probes)/n_bits = "
            f"{to_str(z, 6)} is negative (key too small for these "
            f"parameters)"
        )
    if z == fnan:  # only a NaN query count gets here outside [0, 1]
        raise ValueError("z must be in [0, 1], got nan")
    base = _h_inv(z, _TOL_MPF) if variant == "exact" else _h_upper(z)
    t1 = mpf_mul(mpf_div(qm, passes_1, _P, _RND),
                 mpf_pow_int(mpf_shift(mpf_mul_int(qm, 4 * m, _P, _RND), -m),
                             s, _P, _RND), _P, _RND)
    if k % 2 == 0:
        half_k = mpf_pow_int(base, k // 2, _P, _RND)
    else:
        half_k = mpf_pow(base, mpf_shift(probes, -1), _P, _RND)
    t2 = mpf_shift(mpf_mul(qm, rounds, _P, _RND), -1)
    return t1, mpf_mul(t2, half_k, _P, _RND)


def _checked_gamma(b: BoundInputs, qm, variant: str):
    """``_gamma`` at a raw query count ``qm`` after the checks of every
    public bound calculator, in their order: the inputs, then q."""
    _check_bound(b, variant)
    if mpf_lt(qm, fzero):
        raise ValueError("q must be nonnegative")
    return _gamma(b, qm, variant, _counts(b))


def gamma_bound(b: BoundInputs, q: Number, variant: str = "exact") -> mpmath.mpf:
    """The two leading bound terms at query count ``q``, summed."""
    t1, t2 = _checked_gamma(b, _to_mpf(q), variant)
    return _out(mpf_add(t1, t2, _P, _RND))


def _theorem1_terms(b: BoundInputs, variant: str = "exact") -> Dict[str, object]:
    """The four terms of ``theorem1_bound`` keyed by their formulas, in
    the order it sums them, as raw 240-bit values."""
    q, p = _to_mpf(b.queries), _to_mpf(b.oracle_calls)
    t1, t2 = _checked_gamma(b, q, variant)
    m = b.msg_bits
    return {
        "q/(s+1)*(4mq/2^m)^s": t1,
        "(qT/2)*hinv(z)^(k/2)": t2,
        "qp/2^(m-1)": mpf_shift(mpf_mul(q, p, _P, _RND), 1 - m),
        "qT/2^m": mpf_shift(mpf_mul(q, from_int(b.rounds), _P, _RND), -m),
    }


def theorem1_bound(b: BoundInputs, variant: str = "exact") -> mpmath.mpf:
    """Full four-term advantage upper bound.

    ``variant`` selects how the inverse entropy factor is computed:
    "exact" solves h(p) = z to 1e-12 (``entropy_h_inv``), "closed-form"
    uses the algebraic upper bound (slightly larger, cheaper still).
    """
    t1, t2, t3, t4 = _theorem1_terms(b, variant).values()
    total = mpf_add(mpf_add(t1, t2, _P, _RND), t3, _P, _RND)
    return _out(mpf_add(total, t4, _P, _RND))


def log2_gamma(b: BoundInputs, q: Number, variant: str = "exact") -> mpmath.mpf:
    """log2 of ``gamma_bound``, the value the curve generator reports.

    mpf exponents are unbounded, so this stays exact for bounds far below
    the float range.
    """
    t1, t2 = _checked_gamma(b, _to_mpf(q), variant)
    return _out(_log2(mpf_add(t1, t2, _P, _RND)))


@dataclass(frozen=True)
class GammaPoint:
    """One curve row: query count, bound value, and validity."""

    q: float
    log2_q: float
    neg_log2_gamma: Optional[float]
    valid: bool
    reason: str = ""


def gamma_curve(b: BoundInputs, q_values: Iterable[Number]) -> List[GammaPoint]:
    """Evaluate the leading-terms bound across query counts.

    Each point is flagged invalid (with a reason, and no bound value)
    when the parameters leave the regime the bound statement covers:
    negative q, the naive-adversary hypothesis q * floor(leak/m) <= 2^m
    failing, a negative inverse-entropy argument, or a bound above 1.
    """
    c = from_int(b.leak_bits // b.msg_bits)
    two_m = mpf_shift(fone, b.msg_bits)
    counts = _counts(b)
    points = []
    for q in q_values:
        qm = _to_mpf(q)
        lg_q = (to_float(_log2(qm), rnd=_RND) if mpf_gt(qm, fzero)
                else float("-inf"))
        neg, reason = None, ""
        if mpf_lt(qm, fzero):
            reason = "q < 0"
        elif mpf_gt(mpf_mul(qm, c, _P, _RND), two_m):
            reason = "q * floor(leak_bits/msg_bits) > 2^msg_bits"
        else:
            _check_bound(b, "exact")  # the pass count matters only here
            try:
                t1, t2 = _gamma(b, qm, "exact", counts)
            except _KeyTooSmall:
                reason = "1 - (alpha + num_probes)/n_bits < 0"
            else:
                log2 = _log2(mpf_add(t1, t2, _P, _RND))
                neg = to_float(mpf_neg(log2, _P, _RND), rnd=_RND)
                if neg < 0:
                    neg, reason = None, "bound exceeds 1"
        points.append(GammaPoint(float(q), lg_q, neg, not reason, reason))
    return points


def write_curve_csv(points: Iterable[GammaPoint], out: IO[str]) -> None:
    """Emit curve points as CSV with 10-significant-digit values."""
    out.write(_CSV_HEADER + "\n")
    for pt in points:
        val = "" if pt.neg_log2_gamma is None else f"{pt.neg_log2_gamma:.10g}"
        out.write(f"{pt.log2_q:.10g},{val},{int(pt.valid)}\n")


@dataclass(frozen=True)
class NaiveAdvBound:
    """Exact guaranteed-advantage lower bounds for the naive adversary."""

    simple: Fraction
    hypergeometric: Fraction
    hypothesis_ok: bool


def naive_adv_lower(b: BoundInputs) -> NaiveAdvBound:
    """Advantage guaranteed by leaking floor(leak_bits/m) codebook entries.

    ``simple`` is the q*c/2^m / 4 form valid under the hypothesis
    q*c <= 2^m; ``hypergeometric`` is the sharper x/(1+x) * (1 - 2^-m)
    form with x = q*c/2^m, valid for all q.  Both are exact rationals,
    each built from integers in one step.
    """
    num, den = Fraction(b.queries).as_integer_ratio()
    qc = num * int(b.leak_bits // b.msg_bits)  # x = qc / (den * 2^m)
    two_m = 1 << b.msg_bits
    return NaiveAdvBound(
        simple=Fraction(qc, 4 * den * two_m),
        hypergeometric=Fraction(qc * (two_m - 1), (den * two_m + qc) * two_m),
        hypothesis_ok=qc <= two_m * den,
    )
