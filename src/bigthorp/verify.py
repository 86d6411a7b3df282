"""Brute-force checks of the identities and inequalities behind the bound.

Each check function enumerates a small state space exactly and returns the
two sides of an (in)equality that is a theorem for honest inputs, so any
violation is an implementation bug, not bad luck.  Sampling appears only in
``bias_estimate``, where the oracle stream itself is the random object; its
thresholds are 4-sigma binomial bounds.

The checks, stated over explicit tables:

* ``parseval_check``: over a distribution P on {0,1}^n, the mean over all
  2^n index subsets S of E(S)^2, where E(S) is the expected parity
  (-1)^(xor of the S-bits), equals sum_y P(y)^2.  Every E(S) comes from
  one transform factored over the high and low halves of S and y.
* ``leakage_entropy_check``: for a map from {0,1}^n0 onto l0-bit labels,
  the mean log-size of the fiber containing a uniform point is at least
  n0 - l0, and the probability the fiber log-size falls below
  n0 - l0 - tail_m is at most 2^-tail_m.
* ``decomposition_check``: for a uniform point of a nonempty set S of
  n0-bit strings, the sum of per-bit binary entropies is at least log2|S|.
* ``main_lemma_check``: for a uniform point of a fiber, the expected
  collision mass of the k probed bits (expectation over all n0^k probe
  tuples, collision mass = sum of squared pattern probabilities) is at
  most hinv(1 - (alpha + k)/n0)^k with alpha = n0 - log2|fiber|, whenever
  that argument is nonnegative.
* ``bias_estimate``: Monte Carlo bias of the round-function bit over
  distinct (round input, round) queries, next to the exactly computed
  half-root-collision-mass bound averaged over the sampled draws.  The bit
  is the cipher's own: the estimate evaluates its queries in fixed-size
  batches through ``thorp._round_bits``, which gives each query the bit
  that a round of the kernel ``thorp._rounds`` under ``encrypt`` would give.
  Up to m = 33 the queries are drawn as arrays, equal to the per-trial
  draw rule's.

``main_lemma_check`` and the conditioned ``bias_estimate`` read the
collision mass from one table of agreeing pairs.  Two uniform elements of
a fiber F show the same probed bits exactly when they agree on the probe
positions P, so the collision mass of P is S[~P] / |F|^2, where
S[U] = #{(x, y) in F^2 : x xor y lies inside U}.  ``_agreeing_pairs``
builds S in integers, so every mass, and ``main_lemma_check``'s
``expected_g``, is the correctly rounded value of the exact rational.

Suites bundle these with fixed seeds and aggregate the worst case per
group into ``CheckResult`` rows (name, lhs, rhs, pass) for the CLI.  A
suite evaluates its random draws in batches: the parseval suite draws
each width's distributions as the rows of one array and transforms them
together; the collision suite builds one agreeing-pairs table per
leakage table, with a row per fiber, reuses it for every k, and computes
each bound once per (fiber size, k); the decomposition suite computes
each distinct entropy term once.  A batch runs in chunks of at most
``_CHUNK_CELLS`` cells, which bounds its memory and keeps the random
stream.  Each check function is the one-row case of its suite's kernel,
so every row equals a loop over the check functions, float for float.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple)

import numpy as np

from .bigkey import BigKey, seed_randomness
from .bounds import entropy_h, entropy_h_inv
from .oracle import (
    _U64_MAX, PROBE_TAG, Oracle, ScriptedOracle, Shake256Oracle, encode_query)
from .thorp import CipherParams, _check_key, _round_bits

_MAX_TABLE_BITS = 20
_MAX_PARSEVAL_BITS = 16
_MAX_FIBER_BITS = 14
_MAX_SUBSET_PROBES = 20
_ENUM_OP_CAP = 1 << 31
_MIN_TRIALS = 10**4
_BIAS_ROUNDS = 1 << 16  # bias draws take round indices 1..2^16 - 1
# twice the trials must fit in the distinct draws of the bias suite's
# narrowest width, m = 9: 2^8 * (2^16 - 1) / 2 = 8,388,480
_MAX_TRIALS = (1 << 8) * (_BIAS_ROUNDS - 1) // 2
_BATCH = 512  # queries evaluated together; at k = 64 their rows fit in L2
_WORD_BITS = 32  # a Mersenne Twister word
_REVERSED_BYTE = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)],
                          np.uint8)
_CHUNK_CELLS = 1 << 21  # cells in one chunk of a suite's batch: 16 MiB
_MAX_SEED = _U64_MAX - 4  # the bias suite's key seeds reach seed + 4


@dataclass(frozen=True)
class CheckResult:
    """One report row: computed value, bound value, verdict."""

    name: str
    lhs: float
    rhs: float
    passed: bool
    note: str = ""


class DistributionTable:
    """Explicit probability table over n-bit outcomes.

    Outcome x carries bit i (1-based) in position 2^(i-1), matching the
    package packing convention.
    """

    def __init__(self, n: int, mass):
        cells = 1 << _check_width("n", n)
        arr = np.asarray(mass, dtype=np.float64)
        if arr.shape != (cells,):
            raise ValueError(f"mass must have 2^{n} entries, got shape {arr.shape}")
        self.n = n
        self.mass = _check_masses(arr)

    @classmethod
    def uniform(cls, n: int) -> "DistributionTable":
        cells = 1 << _check_width("n", n)
        return cls(n, np.full(cells, 1.0 / cells))

    @classmethod
    def point_mass(cls, n: int, y: int) -> "DistributionTable":
        arr = np.zeros(1 << _check_width("n", n))
        arr[y] = 1.0
        return cls(n, arr)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "DistributionTable":
        return cls(n, _random_masses(_check_width("n", n), 1, rng)[0])


def _check_width(name: str, n: int, low: int = 1) -> int:
    """``n``, after refusing a table width outside low.._MAX_TABLE_BITS;
    each table builder checks before it allocates 2^n cells."""
    if not low <= n <= _MAX_TABLE_BITS:
        raise ValueError(f"{name} must be in {low}..{_MAX_TABLE_BITS}, got {n}")
    return n


def _check_masses(mass: np.ndarray) -> np.ndarray:
    """``mass``, after checking that each row (last axis) is a distribution:
    no negative mass, and a sum within 1e-12 of 1."""
    if (mass < 0).any():
        raise ValueError("masses must be nonnegative")
    sums = mass.sum(axis=-1).reshape(-1)
    off = sums[np.abs(sums - 1.0) > 1e-12]
    if off.size:
        raise ValueError(f"masses sum to {off[0]}, not 1")
    return mass


def _random_masses(n: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """``rows`` random distributions on n-bit outcomes, one per row: uniform
    draws scaled to sum to 1.  The generator yields the same stream for
    one draw of many rows as for many draws of one row."""
    arr = rng.random((rows, 1 << n))
    return arr / arr.sum(axis=1, keepdims=True)


def _chunks(rows: int, width: int) -> List[slice]:
    """Slices of ``rows`` rows of ``width`` cells, each at most
    ``_CHUNK_CELLS`` cells (and one row at least), so that a batch's
    memory stays bounded at any width."""
    step = max(1, _CHUNK_CELLS // width)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


class LeakageTable:
    """Explicit total map {0,1}^n0 -> {0,1}^l0, as an integer array."""

    def __init__(self, n0: int, l0: int, table):
        cells = self._cells(n0, l0)
        arr = np.asarray(table, dtype=np.int64)
        if arr.shape != (cells,):
            raise ValueError(f"table must have 2^{n0} entries")
        if arr.size and (arr.min() < 0 or arr.max() >= (1 << l0)):
            raise ValueError(f"table values must lie in 0..2^{l0}-1")
        self.n0 = n0
        self.l0 = l0
        self.table = arr

    @staticmethod
    def _cells(n0: int, l0: int) -> int:
        """2^n0, after checking both widths."""
        cells = 1 << _check_width("n0", n0)
        _check_width("l0", l0, 0)
        return cells

    @classmethod
    def random(cls, n0: int, l0: int, rng: np.random.Generator) -> "LeakageTable":
        return cls(n0, l0, rng.integers(0, 1 << l0, size=cls._cells(n0, l0)))

    @classmethod
    def projection(cls, n0: int, l0: int) -> "LeakageTable":
        """Leak the first l0 bits (the low bits, under the packing order)."""
        return cls(n0, l0, np.arange(cls._cells(n0, l0)) & ((1 << l0) - 1))

    @classmethod
    def constant(cls, n0: int, l0: int, value: int = 0) -> "LeakageTable":
        return cls(n0, l0, np.full(cls._cells(n0, l0), value))

    def fiber(self, leak_value: int) -> np.ndarray:
        return np.flatnonzero(self.table == leak_value)

    def fibers(self) -> Dict[int, np.ndarray]:
        return {v: self.fiber(v) for v in sorted(set(self.table.tolist()))}


@lru_cache(maxsize=None)
def _character_matrix(n: int) -> np.ndarray:
    """Dense (+1/-1) parity-character table, subsets by outcomes."""
    ys = np.arange(1 << n, dtype=np.uint64)
    parity = (np.bitwise_count(ys[:, None] & ys[None, :]) & 1).astype(np.float64)
    return 1.0 - 2.0 * parity


def _parity_expectations(mass: np.ndarray) -> np.ndarray:
    """E(S) for every subset S, indexed by S, for each row of ``mass`` (one
    distribution on n-bit outcomes per row): (-1)^|S & y| factors over the
    high a = n // 2 and low n - a bits of S and y, so E = H_a P H_(n-a)
    with P a row's masses as a 2^a x 2^(n-a) table."""
    rows, n = len(mass), mass.shape[1].bit_length() - 1
    a = n // 2
    table = mass.reshape(rows, 1 << a, -1)
    return (_character_matrix(a) @ table @ _character_matrix(n - a)).reshape(rows, -1)


def _parseval_rows(mass: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Both sides of the power-sum identity for each row of ``mass``."""
    n = mass.shape[1].bit_length() - 1
    if n > _MAX_PARSEVAL_BITS:
        raise ValueError(
            f"n = {n} too large to enumerate all subsets (max {_MAX_PARSEVAL_BITS})"
        )
    e = _parity_expectations(mass)
    return (e * e).sum(axis=1) / e.shape[1], (mass**2).sum(axis=1)


def parseval_check(d: DistributionTable) -> Tuple[float, float]:
    """Both sides of the power-sum identity, by exhaustive enumeration.

    lhs is the mean of E(S)^2 over all 2^n subsets S (E = 1 for S empty),
    each from one factored transform; rhs is the collision mass
    sum_y P(y)^2.  The one-row case of the suite's batch.
    """
    lhs, rhs = _parseval_rows(d.mass[None])
    return float(lhs[0]), float(rhs[0])


class LeakageEntropyResult(NamedTuple):
    mean_fiber_entropy: float
    bound: float
    tail_prob: float
    tail_bound: float


def leakage_entropy_check(lt: LeakageTable, tail_m: float) -> LeakageEntropyResult:
    """Exact mean fiber log-size and tail probability for a uniform point."""
    counts = np.bincount(lt.table, minlength=1 << lt.l0)
    sizes = counts[counts > 0].astype(np.float64)
    probs = sizes / (1 << lt.n0)
    log_sizes = np.log2(sizes)
    mean = float((probs * log_sizes).sum())
    bound = float(lt.n0 - lt.l0)
    tail_prob = float(probs[log_sizes < bound - tail_m].sum())
    return LeakageEntropyResult(mean, bound, tail_prob, 2.0 ** (-tail_m))


def decomposition_check(
    subset: Iterable[int], n0: Optional[int] = None
) -> Tuple[float, float]:
    """Per-bit entropy sum vs. log2|S| for a uniform point of S.

    ``n0`` defaults to the smallest width containing every element; wider
    widths only add h(0) = 0 terms and cannot change the sum.
    """
    elems = sorted(set(int(x) for x in subset))
    if not elems:
        raise ValueError("subset must be nonempty")
    if elems[0] < 0:
        raise ValueError("subset elements must be nonnegative")
    if n0 is None:
        n0 = max(1, elems[-1].bit_length())
    if n0 > _MAX_TABLE_BITS:
        raise ValueError(f"n0 = {n0} too large (max {_MAX_TABLE_BITS})")
    if elems[-1] >> n0:
        raise ValueError(f"subset element {elems[-1]} does not fit in {n0} bits")
    arr = np.array(elems, dtype=np.int64)
    return _bit_entropy_sum(arr, n0, _entropy_float), math.log2(len(elems))


def _entropy_float(p: float) -> float:
    return float(entropy_h(p))


def _bit_entropy_sum(elems: np.ndarray, n0: int, h) -> float:
    """The sum over bits i < n0 of h(share of ``elems`` with bit i set),
    added in bit order; ``h`` maps a float p to h(p) as a float."""
    ones = ((elems[:, None] >> np.arange(n0)) & 1).sum(axis=0)
    total = 0.0
    for count in ones.tolist():
        total += h(count / len(elems))
    return total


@dataclass(frozen=True)
class MainLemmaResult:
    """Expected probed-pattern collision mass next to its entropy bound."""

    expected_g: float
    bound: float
    bound_valid: bool
    alpha: float


def _indicators(lt: LeakageTable, leak_values) -> np.ndarray:
    """One int64 row per leak value: the 0/1 indicator of its fiber over
    {0,1}^n0."""
    return (lt.table == np.asarray(leak_values)[:, None]).astype(np.int64)


def _agreeing_pairs(indicators: np.ndarray, n0: int) -> np.ndarray:
    """S[U] = #{(x, y) in F^2 : x xor y lies inside U} for every n0-bit
    mask U, as int64, for each fiber F given as a row of ``indicators``.

    The pair count of each difference d = x xor y is the Walsh-Hadamard
    transform of the squared transform of the fiber's indicator, divided
    by 2^n0; S sums those counts over the subsets of U.  Every step pairs
    cells within one row, so the rows run as one flat array.  At n0 <= 14
    every intermediate value is below 2^42.
    """
    def hadamard(a: np.ndarray) -> np.ndarray:
        for i in range(n0):
            v = a.reshape(-1, 2, 1 << i)  # v[:, 1] has bit i set
            a = np.stack((v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]), axis=1)
        return a.reshape(-1)

    spectrum = hadamard(indicators)
    pairs = hadamard(spectrum * spectrum) >> n0  # pairs[d]: x xor y == d
    for i in range(n0):  # add each pair count into the masks containing d
        v = pairs.reshape(-1, 2, 1 << i)
        v[:, 1] += v[:, 0]
    return pairs.reshape(indicators.shape)


@lru_cache(maxsize=16)
def _tuple_counts(n0: int, k: int) -> np.ndarray:
    """For each position set P (an n0-bit mask), how many of the n0^k probe
    tuples hit exactly the positions in P: the maps of k probes onto |P|
    positions, by inclusion-exclusion.  Every fiber shares them; the
    cached array is read-only."""
    onto = [sum((-1) ** i * math.comb(d, i) * (d - i) ** k for i in range(d + 1))
            for d in range(n0 + 1)]
    counts = np.array([onto[p.bit_count()] for p in range(1 << n0)], np.int64)
    counts.flags.writeable = False
    return counts


def _check_lemma_shape(n0: int, k: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    if n0 > _MAX_FIBER_BITS:
        raise ValueError(f"n0 = {n0} too large to enumerate (max {_MAX_FIBER_BITS})")
    if k > _MAX_SUBSET_PROBES:
        raise ValueError(f"k = {k} too large to enumerate (max {_MAX_SUBSET_PROBES})")
    if (n0**k) * (1 << n0) > _ENUM_OP_CAP:
        raise ValueError(
            f"n0^k * 2^n0 = {(n0 ** k) * (1 << n0)} exceeds the enumeration budget"
        )


def _pair_totals(agree: np.ndarray, n0: int, k: int) -> List[int]:
    """Per fiber (row of ``_agreeing_pairs``), the sum over position sets P
    of (tuples hitting exactly P) * S[~P], as one int64 dot product: the
    row's U = ~P is P's index reversed.  Within ``_check_lemma_shape``'s
    budget the sum is at most n0^k * |F|^2 <= 2^31 * 2^n0 <= 2^45, so it
    is exact."""
    return (agree @ _tuple_counts(n0, k)[::-1]).tolist()


def _lemma_bound(n0: int, size: int, k: int) -> Tuple[float, bool, float]:
    """(bound, bound_valid, alpha) of ``MainLemmaResult`` for a fiber of
    ``size`` points: they depend on nothing else."""
    alpha = n0 - math.log2(size)
    z = 1.0 - (alpha + k) / n0
    if z < -1e-15:
        return math.nan, False, alpha
    return float(entropy_h_inv(max(z, 0.0)) ** k), True, alpha


def _lemma_results(agree: np.ndarray, sizes: Sequence[int], n0: int, k: int,
                   bound=_lemma_bound) -> List[MainLemmaResult]:
    """``MainLemmaResult`` of each fiber, from its row of
    ``_agreeing_pairs`` and its size; ``bound`` is ``_lemma_bound`` or a
    cache of it.  Each ``expected_g`` is an int / int division, so it is
    correctly rounded."""
    return [MainLemmaResult(total / (size**2 * n0**k), *bound(n0, size, k))
            for size, total in zip(sizes, _pair_totals(agree, n0, k))]


def main_lemma_check(lt: LeakageTable, leak_value: int, k: int) -> MainLemmaResult:
    """Exact expected collision mass of k probed bits on one fiber.

    The expectation runs over all n0^k probe tuples (probes uniform with
    replacement over bit positions).  A tuple's collision mass depends only
    on its set P of distinct positions and equals S[~P] / |F|^2, with S
    from ``_agreeing_pairs``; so the expectation is the integer sum of
    (tuples hitting exactly P) * S[~P] over every P, divided once by
    |F|^2 * n0^k.  ``expected_g`` is the correctly rounded value of that
    exact rational.  The bound uses the fiber's own
    alpha = n0 - log2|fiber|; when (alpha + k)/n0 > 1 the bound's domain is
    empty and the result is flagged instead of asserted.  The one-fiber
    case of the collision suite's batch.
    """
    n0 = lt.n0
    _check_lemma_shape(n0, k)
    fiber = _indicators(lt, [leak_value])
    size = int(fiber.sum())
    if size == 0:
        raise ValueError(f"no domain point maps to leak value {leak_value}")
    [result] = _lemma_results(_agreeing_pairs(fiber, n0), [size], n0, k)
    return result


def distinct_probe_collision_mass(n0: int, k: int) -> float:
    """Combinatorial oracle for the full-space expected collision mass.

    With the key uniform on all of {0,1}^n0, a probe tuple hitting d
    distinct positions has collision mass exactly 2^-d, so the expectation
    over tuples is sum_d P(d distinct among k draws) * 2^-d.  Used as an
    independent cross-check of ``main_lemma_check``'s enumeration.
    """

    @lru_cache(maxsize=None)
    def stirling2(n: int, j: int) -> int:
        if n == j:
            return 1
        if j == 0 or j > n:
            return 0
        return j * stirling2(n - 1, j) + stirling2(n - 1, j - 1)

    total = 0.0
    for d in range(1, k + 1):
        ways = math.comb(n0, d) * stirling2(k, d) * math.factorial(d)
        total += ways / n0**k * 2.0**-d
    return total


class BiasEstimate(NamedTuple):
    empirical_tv: float
    corollary_bound: float


def bias_estimate(
    key: BigKey,
    oracle: Oracle,
    lt: Optional[LeakageTable],
    trials: int,
    params: CipherParams,
    seed: int = 0,
) -> BiasEstimate:
    """Monte Carlo bias of the round-function bit over distinct queries.

    Draws ``trials`` distinct (round input, round) pairs, evaluates the
    round-function bit for each, and reports |freq(1) - 1/2| next to the
    half-root-collision-mass bound averaged over the same draws.  With
    ``lt`` given, the bound conditions on the fiber of the actual key
    (which must then be small enough to enumerate); without it, the bound
    uses the exact unconditioned value 2^-(distinct probe count).

    The draws follow one pinned rule (``_loop_queries``).  Up to m = 33
    they are drawn as arrays (``_array_queries``): the Mersenne Twister
    words come en bloc and are parsed in numpy, the rare ``randrange``
    redraw is handled in order, a pair's first occurrence is kept with
    ``np.unique``, the round inputs are bit-reversed by table, and the
    queries are the rows of one byte matrix.  Wider m draws one trial at
    a time.  Either way the queries, their order and the estimate are the
    same; the bound's terms are added in trial order, by a sequential
    ``np.add.accumulate`` seeded with the running total.
    """
    if trials < _MIN_TRIALS:
        raise ValueError("trials must be at least 10^4 for a meaningful estimate")
    _check_key(key, params)
    m = params.msg_bits
    if lt is not None:
        if lt.n0 != key.n_bits:
            raise ValueError("leakage table domain must match the key size")
        if key.n_bits > _MAX_FIBER_BITS:
            raise ValueError(
                f"conditioning needs key size <= {_MAX_FIBER_BITS} bits"
            )
        x0 = key.subkey(range(1, key.n_bits + 1))
        fiber = _indicators(lt, [lt.table[x0]])
        by_set = _agreeing_pairs(fiber, lt.n0)[0, ::-1] / int(fiber.sum())**2

        def mass(positions):  # the mass at the row's set of positions
            return by_set[np.bitwise_or.reduce(1 << positions, axis=1)]
    else:
        narrow = np.min_scalar_type(key.n_bits - 1)  # sorts faster

        def mass(positions):  # uniform key: 2^-(distinct positions)
            ranked = np.sort(positions.astype(narrow), axis=1)
            distinct = 1 + (ranked[:, 1:] != ranked[:, :-1]).sum(axis=1)
            return np.ldexp(1.0, -distinct)
    if (1 << (m - 1)) * (_BIAS_ROUNDS - 1) < 2 * trials:
        raise ValueError("message width too small for this many distinct queries")
    stream = oracle.stream_bytes
    rng = random.Random(seed)
    draw = _array_queries if m - 1 <= _WORD_BITS else _loop_queries
    ones = 0
    bound_acc = 0.0
    for queries in draw(rng, m, trials):
        f, positions = _round_bits(params, key, stream, queries)
        ones += int(f.sum())
        terms = 0.5 * np.sqrt(mass(positions))
        # trial order, as a per-query loop adds them (np.sum adds pairwise)
        bound_acc = float(np.add.accumulate(np.append(bound_acc, terms))[-1])
    return BiasEstimate(abs(ones / trials - 0.5), bound_acc / trials)


def _loop_queries(rng: random.Random, m: int,
                  trials: int) -> Iterator[Sequence[bytes]]:
    """The bias draw's serialized queries, in trial order, in batches of at
    most ``_BATCH``: the pinned draw rule, one trial at a time.

    A trial draws ``rng.getrandbits(m - 1)`` and then
    ``rng.randrange(1, 2^16)``, and a pair drawn before is skipped.  The
    drawn value fills the round input from bit 1 up, so the big-endian
    value encoded is its bit reversal.  Any width takes this path; the
    tests hold ``_array_queries`` to it.
    """
    draw_r, draw_round = rng.getrandbits, rng.randrange
    r_format = f"0{m - 1}b"
    seen = set()
    while len(seen) < trials:
        queries = []
        while len(queries) < _BATCH and len(seen) < trials:
            r_value = draw_r(m - 1)
            round_index = draw_round(1, _BIAS_ROUNDS)
            if (r_value, round_index) in seen:
                continue
            seen.add((r_value, round_index))
            reversed_r = int(format(r_value, r_format)[::-1], 2)
            queries.append(encode_query(PROBE_TAG, round_index, m, reversed_r))
        yield queries


def _draw_pairs(rng: random.Random, width: int,
                count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The next ``count`` (r_value, round index) draws of ``_loop_queries``
    at ``width`` = m - 1 <= 32, repeats included, as two arrays, leaving
    ``rng`` where the loop would.

    CPython's ``getrandbits(32 * n)`` returns the next n 32-bit Mersenne
    Twister words, lowest first.  ``getrandbits(width)`` keeps the top
    ``width`` bits of one word, and ``randrange(1, 2^16)`` is 1 plus the
    top 16 bits of one word, drawn again from the next word while those
    bits are 65535.  So a pair is two words, except that such a redraw
    drops its word: the few words whose top bits are 65535 are walked in
    order, and one at a round word's place in the stream, after the drops
    before it, is dropped.
    """
    r_parts, round_parts = [], []
    words = np.empty(0, np.uint32)
    while count:
        more = 2 * count - len(words)
        words = np.append(words, np.frombuffer(
            rng.getrandbits(32 * more).to_bytes(4 * more, "little"), "<u4"))
        dropped = []
        for i in np.flatnonzero(words >> 16 == _BIAS_ROUNDS - 1).tolist():
            if (i - len(dropped)) % 2:
                dropped.append(i)
        words = np.delete(words, dropped)
        good = len(words) // 2  # an odd word out waits for its round word
        r_parts.append(words[0:2 * good:2] >> (_WORD_BITS - width))
        round_parts.append((words[1:2 * good:2] >> 16) + 1)
        count -= good
        words = words[2 * good:]
    return np.concatenate(r_parts), np.concatenate(round_parts)


def _array_queries(rng: random.Random, m: int,
                   trials: int) -> Iterator[Sequence[bytes]]:
    """``_loop_queries`` for m - 1 <= 32, drawn as arrays: the draws come
    en bloc from ``_draw_pairs``, a pair's first occurrence is kept
    (``np.unique``), and the queries are the rows of one byte matrix laid
    out as ``encode_query`` lays them out."""
    width = m - 1
    r, rounds = _draw_pairs(rng, width, trials)
    while True:
        pairs = r.astype(np.uint64) << 16 | rounds
        first = np.unique(pairs, return_index=True)[1]
        if len(first) >= trials:
            break
        more_r, more_rounds = _draw_pairs(rng, width, trials - len(first))
        r, rounds = np.append(r, more_r), np.append(rounds, more_rounds)
    keep = np.sort(first)[:trials]
    # bit i of r_value is bit i + 1 of the round input, so the field holds
    # r_value reversed in 32 bits, shifted down to ``width`` bits: the
    # reversal is each little-endian byte of r_value reversed, in order
    size = (width + 7) // 8
    as_bytes = r[keep].astype("<u4").view(np.uint8).reshape(trials, 4)
    reversed_r = (_REVERSED_BYTE[as_bytes].view(">u4")[:, 0]
                  >> (_WORD_BITS - width))
    rows = np.empty(trials, [("tag", "u1"), ("round", ">u8"), ("m", ">u2"),
                             ("r", "u1", (size,))])
    rows["tag"], rows["round"], rows["m"] = PROBE_TAG, rounds[keep], m
    rows["r"] = reversed_r.astype(">u4").view(np.uint8).reshape(
        trials, 4)[:, 4 - size:]
    blob, w = rows.tobytes(), rows.itemsize
    for lo in range(0, trials, _BATCH):
        count = min(_BATCH, trials - lo)
        yield struct.unpack_from(f"{w}s" * count, blob, lo * w)


# ---------------------------------------------------------------------------
# suites


def _equal_row(name, lhs, rhs, note):
    """A row for an identity: it reports |lhs - rhs| and passes when that
    is at most 1e-12."""
    diff = abs(lhs - rhs)
    return CheckResult(name, diff, 1e-12, diff <= 1e-12, note)


def _worst_row(name, count, worst, rhs, ok, note, empty="nothing was sampled"):
    """A row for the worst case over ``count`` samples: with none it checked
    nothing, so it fails and its note says so."""
    return CheckResult(name, worst, rhs, count > 0 and ok,
                       note if count else empty)


def run_parseval_suite(max_n: int = 10, per_n: int = 500,
                       seed: int = 101) -> List[CheckResult]:
    results = []
    for name, d, note in (
        ("parseval/point-mass", DistributionTable.point_mass(4, 5),
         "deterministic outcome, both sides 1"),
        ("parseval/uniform", DistributionTable.uniform(4),
         "uniform outcome, both sides 2^-n"),
    ):
        results.append(_equal_row(name, *parseval_check(d), note))
    rng = np.random.default_rng(seed)
    for n in range(1, max_n + 1):
        worst = 0.0
        for rows in _chunks(per_n, 1 << n):
            mass = _check_masses(_random_masses(n, rows.stop - rows.start, rng))
            lhs, rhs = _parseval_rows(mass)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        results.append(_worst_row(
            f"parseval/random-n{n}", per_n, worst, 1e-12, worst <= 1e-12,
            f"worst |lhs-rhs| over {per_n} random distributions"))
    return results


def run_fiber_entropy_suite(count: int = 100, n0: int = 10, l0: int = 3,
                            tail_m: float = 2.0,
                            seed: int = 202) -> List[CheckResult]:
    results = []
    r = leakage_entropy_check(LeakageTable.projection(4, 2), tail_m)
    results.append(_equal_row(
        "fiber-entropy/projection", r.mean_fiber_entropy, r.bound,
        "balanced fibers: mean equals n0 - l0 exactly"))
    r = leakage_entropy_check(LeakageTable.constant(4, 2), tail_m)
    results.append(CheckResult(
        "fiber-entropy/constant", r.mean_fiber_entropy, r.bound,
        r.mean_fiber_entropy >= r.bound and r.tail_prob == 0.0,
        "single full fiber",
    ))
    rng = np.random.default_rng(seed)
    min_mean = math.inf
    max_tail = 0.0
    for _ in range(count):
        r = leakage_entropy_check(LeakageTable.random(n0, l0, rng), tail_m)
        min_mean = min(min_mean, r.mean_fiber_entropy)
        max_tail = max(max_tail, r.tail_prob)
    results.append(_worst_row(
        "fiber-entropy/random-mean", count, min_mean, float(n0 - l0),
        min_mean >= n0 - l0, f"worst mean fiber entropy over {count} random maps"))
    results.append(_worst_row(
        "fiber-entropy/random-tail", count, max_tail, 2.0 ** (-tail_m),
        max_tail <= 2.0 ** (-tail_m), f"worst tail probability at offset {tail_m}"))
    return results


def run_decomposition_suite(count: int = 100, n0: int = 8,
                            seed: int = 303) -> List[CheckResult]:
    results = []
    results.append(_equal_row(
        "decomposition/full-space", *decomposition_check(range(1 << n0), n0),
        "independent uniform bits: equality"))
    results.append(_equal_row(
        "decomposition/singleton", *decomposition_check([37], n0),
        "deterministic bits: both sides 0"))
    rng = np.random.default_rng(seed)
    h = lru_cache(maxsize=None)(_entropy_float)  # subsets share many shares
    worst_margin = math.inf
    for _ in range(count):
        size = int(rng.integers(1, (1 << n0) + 1))
        elems = rng.choice(1 << n0, size=size, replace=False)  # distinct
        worst_margin = min(worst_margin,
                           _bit_entropy_sum(elems, n0, h) - math.log2(size))
    results.append(_worst_row(
        "decomposition/random", count, worst_margin, -1e-12, worst_margin >= -1e-12,
        f"worst (bit entropy sum - log2|S|) over {count} random subsets"))
    return results


def run_collision_suite(n0: int = 8, ks: Sequence[int] = (1, 2, 3),
                        num_tables: int = 20, l0_values: Sequence[int] = (1, 2),
                        seed: int = 404) -> List[CheckResult]:
    results = []
    constant = LeakageTable.constant(n0, 1)
    for k in ks:
        results.append(_equal_row(
            f"collision/full-space-k{k}",
            main_lemma_check(constant, 0, k).expected_g,
            distinct_probe_collision_mass(n0, k),
            "enumeration vs combinatorial oracle"))
    singleton = LeakageTable(2, 2, np.arange(4))
    res = main_lemma_check(singleton, 0, 1)
    results.append(CheckResult(
        "collision/singleton-flagged", res.expected_g, 1.0,
        (not res.bound_valid) and res.expected_g == 1.0,
        "deterministic key: bound domain empty, flagged not asserted",
    ))
    rng = np.random.default_rng(seed)
    tables = [
        LeakageTable.random(n0, l0_values[i % len(l0_values)], rng)
        for i in range(num_tables)
    ]
    bound = lru_cache(maxsize=None)(_lemma_bound)  # fibers share sizes
    excess = [[] for _ in ks]  # expected_g - bound of each checked fiber
    skip_counts = [0] * len(ks)
    for lt in tables:  # each fiber's table once, for every k
        leak_values = np.unique(lt.table)
        for rows in _chunks(len(leak_values), 1 << n0):
            fibers = _indicators(lt, leak_values[rows])
            agree = _agreeing_pairs(fibers, n0)
            sizes = fibers.sum(axis=1).tolist()
            for i, k in enumerate(ks):
                for res in _lemma_results(agree, sizes, n0, k, bound):
                    if res.bound_valid:
                        excess[i].append(res.expected_g - res.bound)
                    else:
                        skip_counts[i] += 1
    for k, checked_excess, skipped in zip(ks, excess, skip_counts):
        worst_excess = max(checked_excess, default=-math.inf)
        checked = len(checked_excess)
        skips = f", {skipped} invalid-domain skipped" if skipped else ""
        results.append(_worst_row(
            f"collision/random-k{k}", checked, worst_excess, 1e-12,
            worst_excess <= 1e-12,
            f"worst (expected_g - bound) over {checked} fibers" + skips,
            "no fiber lay in the bound's domain" + skips))
    return results


def run_bias_suite(seed: int = 505, trials: int = 10**4) -> List[CheckResult]:
    results = []
    zero_key = BigKey.generate(16, b"\x00\x00")
    params16 = CipherParams(n_bits=16, msg_bits=9, num_probes=8, rounds=17)
    est = bias_estimate(zero_key, Shake256Oracle(), None, trials, params16,
                        seed=seed)
    results.append(CheckResult(
        "bias/zero-key", est.empirical_tv, 0.5, est.empirical_tv == 0.5,
        "all-zero key: bit is constant 0",
    ))
    key16 = BigKey.generate(16, seed_randomness(2, seed))
    est = bias_estimate(key16, ScriptedOracle(default_script=b""), None,
                        trials, params16, seed=seed + 1)
    results.append(CheckResult(
        "bias/empty-subset", est.empirical_tv, 0.5, est.empirical_tv == 0.5,
        "scripted all-zero stream selects the empty subset",
    ))
    n = 1 << 14
    key = BigKey.generate(n, seed_randomness(n // 8, seed + 2))
    params = CipherParams(n_bits=n, msg_bits=16, num_probes=64, rounds=31)
    threshold = 4.0 * math.sqrt(0.25 / trials)
    est = bias_estimate(key, Shake256Oracle(), None, trials, params,
                        seed=seed + 3)
    results.append(CheckResult(
        "bias/uniform-key", est.empirical_tv, threshold,
        est.empirical_tv <= threshold,
        f"4-sigma binomial threshold at {trials} trials",
    ))
    key12 = BigKey.generate(12, seed_randomness(2, seed + 4))
    lt = LeakageTable.random(12, 3, np.random.default_rng(seed + 5))
    params12 = CipherParams(n_bits=12, msg_bits=10, num_probes=8, rounds=19)
    est = bias_estimate(key12, Shake256Oracle(), lt, trials, params12,
                        seed=seed + 6)
    floor_bound = 0.5 * 2.0 ** (-params12.num_probes / 2.0)
    ok = floor_bound - 1e-12 <= est.corollary_bound <= 0.5 + 1e-12
    results.append(CheckResult(
        "bias/conditioned-bound-range", est.corollary_bound, 0.5, ok,
        "half root collision mass lies in [2^(-k/2)/2, 1/2]",
    ))
    return results


SUITES = {
    "parseval": run_parseval_suite,
    "fiber-entropy": run_fiber_entropy_suite,
    "decomposition": run_decomposition_suite,
    "collision": run_collision_suite,
    "bias": run_bias_suite,
}


def render_report(results: Iterable[CheckResult]) -> str:
    lines = []
    failed = 0
    total = 0
    for r in results:
        total += 1
        if not r.passed:
            failed += 1
        line = (f"{'PASS' if r.passed else 'FAIL'}  {r.name}  "
                f"lhs={r.lhs:.6g}  rhs={r.rhs:.6g}")
        if r.note:
            line += f"  ({r.note})"
        lines.append(line)
    lines.append(
        f"{total - failed}/{total} checks passed"
        if not failed else f"{failed}/{total} checks FAILED"
    )
    return "\n".join(lines)


def report_rows(results: Iterable[CheckResult]) -> List[dict]:
    """Machine-readable summary rows; a value that is not finite, such as
    the lhs of a row that checked nothing, becomes None (JSON null)."""
    def value(x: float) -> Optional[float]:
        return x if math.isfinite(x) else None

    return [
        {"name": r.name, "lhs": value(r.lhs), "rhs": value(r.rhs),
         "pass": r.passed, "note": r.note}
        for r in results
    ]
