"""Traced replay of cipher blocks through the library's public stage functions.

No library code is patched.  The replay passes delegates that time the two
calls a round makes into lower layers (``Oracle.stream`` and
``BigKey.subkey``), and times each call into a layer from here:

* library round: ``round_forward``/``round_backward`` with the delegates,
  which gives the round span and its oracle and key children;
* stage replay of the same round: ``derive_probes`` (child: stream) and
  ``draw_bit`` (child: subkey), plus the ``BitString`` operations the
  round performs (split, the query's integer codec, append).

Self time of a span is its duration minus its children.  The thorp self
time is the library round minus the stage-replayed round function
(``derive_probes`` + ``draw_bit``).  Every replayed round must equal the
library round, and every replayed block must equal the untraced output.
"""

import hashlib
from time import perf_counter_ns

from bigthorp import (BitString, decrypt, derive_probes, draw_bit, encrypt,
                      round_backward, round_forward)


class TimedOracle:
    """Delegates ``stream`` to an oracle and times each call."""

    def __init__(self, inner, record=False):
        self._inner = inner
        self.ns = self.calls = self.bytes = 0
        self.queries = [] if record else None

    def stream(self, query, n):
        t0 = perf_counter_ns()
        out = self._inner.stream(query, n)
        self.ns += perf_counter_ns() - t0
        self.calls += 1
        self.bytes += n
        if self.queries is not None:
            self.queries.append((query, n))
        return out


class TimedKey:
    """Delegates ``subkey`` to a key and times each call."""

    def __init__(self, inner):
        self._inner = inner
        self.n_bits = inner.n_bits
        self.ns = self.calls = self.probes = 0

    def subkey(self, probes):
        t0 = perf_counter_ns()
        out = self._inner.subkey(probes)
        self.ns += perf_counter_ns() - t0
        self.calls += 1
        self.probes += len(probes)
        return out


def _stage_round(state, forward, r, params, oracle, key, acc):
    c0 = perf_counter_ns()
    if forward:
        edge, rest = state.split_lr()
    else:
        rest, edge = state.split_last()
    rest.to_int()
    c1 = perf_counter_ns()
    draw = derive_probes(oracle, rest, r, params)
    c2 = perf_counter_ns()
    bit = draw_bit(key, draw)
    c3 = perf_counter_ns()
    out = rest.append_bit(edge ^ bit) if forward else rest.prepend_bit(edge ^ bit)
    c4 = perf_counter_ns()
    acc["codec"] += (c1 - c0) + (c4 - c3)
    acc["derive"] += c2 - c1
    acc["draw_bit"] += c3 - c2
    return out


def replay(key, oracle, params, blocks):
    """Replay (plaintext, ciphertext) integer pairs in both directions.

    Each round runs twice, as the library round and as the stage replay,
    in alternating order so that neither side always finds the caches the
    other has just warmed.  Returns the span times in nanoseconds, the
    delegates with their counters, and the number of replayed rounds or
    blocks that disagreed with the library round or the untraced output.
    """
    m, rounds = params.msg_bits, params.rounds
    lib_oracle, lib_key = TimedOracle(oracle, record=True), TimedKey(key)
    st_oracle, st_key = TimedOracle(oracle), TimedKey(key)
    acc = dict(round=0, codec=0, derive=0, draw_bit=0, mismatches=0,
               rounds=0, calls=2 * len(blocks),
               delegates=(lib_oracle, lib_key, st_oracle, st_key))
    for x, y in blocks:
        for forward, start, want in ((True, x, y), (False, y, x)):
            step = round_forward if forward else round_backward
            order = range(1, rounds + 1) if forward else range(rounds, 0, -1)
            state = BitString.from_int(start, m)
            for r in order:
                stage_first = acc["rounds"] % 2
                if stage_first:
                    out = _stage_round(state, forward, r, params, st_oracle,
                                       st_key, acc)
                t0 = perf_counter_ns()
                after = step(state, r, lib_key, lib_oracle, params)
                acc["round"] += perf_counter_ns() - t0
                if not stage_first:
                    out = _stage_round(state, forward, r, params, st_oracle,
                                       st_key, acc)
                acc["mismatches"] += out != after
                acc["rounds"] += 1
                state = after
            acc["mismatches"] += state.to_int() != want
    return acc


def _timed_rounds(state, forward, params, key, oracle):
    step = round_forward if forward else round_backward
    order = range(1, params.rounds + 1) if forward else range(params.rounds, 0, -1)
    ns = 0
    for r in order:
        t0 = perf_counter_ns()
        state = step(state, r, key, oracle, params)
        ns += perf_counter_ns() - t0
    return ns


def overhead_frac(key, oracle, params, blocks):
    """Traced library rounds over untraced encrypt + decrypt, minus 1.

    Both sides run each block back to back, in alternating order, so that
    drift and cache warming fall on each side equally.
    """
    m = params.msg_bits
    t_oracle, t_key = TimedOracle(oracle), TimedKey(key)
    traced = untraced = 0
    for i, (x, y) in enumerate(blocks):
        for side in ("traced", "untraced") if i % 2 else ("untraced", "traced"):
            if side == "traced":
                traced += _timed_rounds(BitString.from_int(x, m), True,
                                        params, t_key, t_oracle)
                traced += _timed_rounds(BitString.from_int(y, m), False,
                                        params, t_key, t_oracle)
            else:
                msg = BitString.from_int(x, m)
                t0 = perf_counter_ns()
                decrypt(encrypt(msg, key, oracle, params), key, oracle, params)
                untraced += perf_counter_ns() - t0
    return traced / untraced - 1


def shake_floor_ns(queries):
    """Time ``hashlib.shake_256`` alone on recorded (query, length) pairs."""
    queries = [(query.to_bytes(), n) for query, n in queries]
    t0 = perf_counter_ns()
    for qbytes, n in queries:
        hashlib.shake_256(qbytes).digest(n)
    return perf_counter_ns() - t0
