"""Query serialization and oracle backend behavior."""

import ast
import operator
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from bigthorp import oracle
from bigthorp import (
    KEYGEN_TAG,
    PROBE_TAG,
    OracleQuery,
    ScriptedOracle,
    Shake256Oracle,
)


def q(tag=PROBE_TAG, round=1, msg_bits=5, r=0b0000):
    return OracleQuery(tag, round, msg_bits, r)


def test_query_serialization_layout():
    query = OracleQuery(PROBE_TAG, 3, 5, 0b0110)
    # r value big-endian: bits 0,1,1,0 read MSB-first = 6
    expected = b"\x01" + (3).to_bytes(8, "big") + (5).to_bytes(2, "big") + b"\x06"
    assert query.to_bytes() == expected
    assert len(query.to_bytes()) == 1 + 8 + 2 + 1


def test_query_serialization_widths():
    wide = OracleQuery(KEYGEN_TAG, 2**64 - 1, 17, 0)
    body = wide.to_bytes()
    assert body[0] == KEYGEN_TAG
    assert body[1:9] == b"\xff" * 8
    assert body[9:11] == (17).to_bytes(2, "big")
    assert len(body) == 11 + 2


def test_query_validation():
    with pytest.raises(ValueError):
        OracleQuery(256, 1, 5, 0)
    with pytest.raises(ValueError):
        OracleQuery(PROBE_TAG, -1, 5, 0)
    with pytest.raises(ValueError):
        OracleQuery(PROBE_TAG, 2**64, 5, 0)
    with pytest.raises(ValueError):
        OracleQuery(PROBE_TAG, 1, 0, 0)
    for r in (-1, 1 << 4):  # the round input has msg_bits - 1 = 4 bits
        with pytest.raises(ValueError, match=rf"round input {r} out of range "
                                             r"0\.\.2\^4 - 1"):
            OracleQuery(PROBE_TAG, 1, 5, r)
    OracleQuery(PROBE_TAG, 1, 5, (1 << 4) - 1)


def test_query_serialization_injective_random():
    rng = random.Random(5)
    seen = {}
    for _ in range(500):
        msg_bits = rng.randrange(2, 12)
        query = OracleQuery(
            rng.randrange(256),
            rng.randrange(2**64),
            msg_bits,
            rng.getrandbits(msg_bits - 1),
        )
        body = query.to_bytes()
        assert seen.setdefault(body, query) == query
    assert len(seen) > 450  # sanity: the space is big enough to avoid collisions


def test_shake_deterministic_and_prefix_consistent():
    o1, o2 = Shake256Oracle(), Shake256Oracle()
    query = q()
    assert o1.stream(query, 32) == o2.stream(query, 32)
    assert o1.stream(query, 64)[:32] == o1.stream(query, 32)
    assert o1.stream(query, 0) == b""


def test_shake_streams_differ_across_queries():
    o = Shake256Oracle()
    a = o.stream(q(round=1), 64)
    b = o.stream(q(round=2), 64)
    c = o.stream(q(tag=KEYGEN_TAG), 64)
    d = o.stream(q(r=0b0001), 64)
    assert len({a, b, c, d}) == 4


def test_query_count_tracks_distinct_queries():
    o = Shake256Oracle()
    assert o.query_count == 0
    o.stream(q(round=1), 8)
    o.stream(q(round=1), 80)  # same query, longer stream
    assert o.query_count == 1
    o.stream(q(round=2), 8)
    assert o.query_count == 2


def test_query_count_thread_safe():
    o = Shake256Oracle()
    queries = [q(round=r) for r in range(1, 33)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda query: o.stream(query, 16), queries * 8))
    assert o.query_count == 32


def test_query_count_exact_under_fast_thread_switching():
    # the counter has no lock: each set.add is one atomic step, so threads
    # switching every microsecond over overlapping queries lose none
    o = ScriptedOracle(default_script=b"")
    queries = [q(round=r).to_bytes() for r in range(1, 2049)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            done = [pool.submit(lambda part: [o.stream_bytes(x, 1) for x in part],
                                queries[i::8] + queries[:256]) for i in range(8)]
            for future in done:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert o.query_count == len(queries)


def test_scripted_pins_individual_queries():
    target = q(round=9)
    o = ScriptedOracle(scripts={target: b"\xab\xcd"})
    assert o.stream(target, 2) == b"\xab\xcd"
    assert o.stream(target, 1) == b"\xab"
    # scripts are zero-extended past their end
    assert o.stream(target, 5) == b"\xab\xcd\x00\x00\x00"


def test_scripted_accepts_bytes_keys():
    target = q(round=4)
    o = ScriptedOracle(scripts={target.to_bytes(): b"\x11"})
    assert o.stream(target, 1) == b"\x11"


def test_scripted_default_script_covers_unpinned_queries():
    o = ScriptedOracle(default_script=b"")
    assert o.stream(q(round=1), 16) == b"\x00" * 16
    assert o.stream(q(round=77), 3) == b"\x00" * 3
    pinned = q(round=2)
    o2 = ScriptedOracle(scripts={pinned: b"\xff"}, default_script=b"\x01")
    assert o2.stream(pinned, 2) == b"\xff\x00"
    assert o2.stream(q(round=3), 2) == b"\x01\x00"


def test_scripted_seeded_fallback_is_stable_and_prefix_consistent():
    a, b = ScriptedOracle(seed=12), ScriptedOracle(seed=12)
    query = q(round=5)
    assert a.stream(query, 48) == b.stream(query, 48)
    assert a.stream(query, 48)[:16] == a.stream(query, 16)
    c = ScriptedOracle(seed=13)
    assert c.stream(query, 48) != a.stream(query, 48)
    # fallback differs from the production backend on the same query
    assert a.stream(query, 48) != Shake256Oracle().stream(query, 48)
    # the seed is hashed as 8 bytes
    ScriptedOracle(seed=2**64 - 1).stream(query, 8)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            ScriptedOracle(seed=seed)


def test_stream_rejects_negative_length():
    with pytest.raises(ValueError):
        Shake256Oracle().stream(q(), -1)


# -- the field limits have one owner -------------------------------------------

_LIMITS = {"_U64_MAX": 2**64 - 1, "_MAX_MSG_BITS": 2**16 - 1,
           "_MAX_PROBES": 2**16}
# a module-level name whose value equals a limit without being one: the
# bias suite draws round indices below 2^16
_COINCIDENT = {("verify.py", "_BIAS_ROUNDS")}
_FOLD = {ast.Pow: operator.pow, ast.LShift: operator.lshift,
         ast.Add: operator.add, ast.Sub: operator.sub}


def _literal_int(node):
    """The value of an int expression built only from literals with ``**``,
    ``<<``, ``+`` and ``-``, else None."""
    if isinstance(node, ast.Constant):
        return node.value if type(node.value) is int else None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _literal_int(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.BinOp) and type(node.op) in _FOLD:
        left, right = _literal_int(node.left), _literal_int(node.right)
        if left is None or right is None:
            return None
        if type(node.op) in (ast.Pow, ast.LShift) and not 0 <= right <= 1024:
            return None
        return _FOLD[type(node.op)](left, right)
    return None


def test_shape_limits_are_defined_once_in_oracle():
    assert {name: getattr(oracle, name) for name in _LIMITS} == _LIMITS
    limits = {*_LIMITS.values(), 2**64}
    package = Path(oracle.__file__).parent
    stray, defined = [], []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            name = getattr(node.targets[0], "id", None)
            if path == package / "oracle.py" and name in _LIMITS:
                defined.append(name)
            elif (path.name, name) not in _COINCIDENT:
                continue
            allowed.update(map(id, ast.walk(node.value)))
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in allowed and _literal_int(node) in limits]
    assert sorted(defined) == sorted(_LIMITS)
    assert stray == []
