"""Pinned outputs: every ``verify --all --json`` row and a ``curve`` CSV.

A change that claims to keep these outputs bit-identical is checked here:
each row's name, exact ``lhs``/``rhs`` ``repr``, verdict and note at the
default seeds, and the 69-point curve of the terabyte-key example as text.
A change that moves a pinned value must say so and re-pin it against an
independent oracle.
"""

import io
import itertools
import json
from collections import Counter
from fractions import Fraction

import numpy as np

from bigthorp import BoundInputs, gamma_curve, write_curve_csv
from bigthorp.cli import main
from bigthorp.verify import LeakageTable, main_lemma_check

# (name, repr(lhs), repr(rhs), pass, note), in the order ``verify --all``
# runs the suites
VERIFY_ALL_ROWS = [
    ('bias/zero-key', '0.5', '0.5', True,
     'all-zero key: bit is constant 0'),
    ('bias/empty-subset', '0.5', '0.5', True,
     'scripted all-zero stream selects the empty subset'),
    ('bias/uniform-key', '0.01040000000000002', '0.02', True,
     '4-sigma binomial threshold at 10000 trials'),
    ('bias/conditioned-bound-range', '0.06919480374274345', '0.5', True,
     'half root collision mass lies in [2^(-k/2)/2, 1/2]'),
    ('collision/full-space-k1', '0.0', '1e-12', True,
     'enumeration vs combinatorial oracle'),
    ('collision/full-space-k2', '0.0', '1e-12', True,
     'enumeration vs combinatorial oracle'),
    ('collision/full-space-k3', '0.0', '1e-12', True,
     'enumeration vs combinatorial oracle'),
    ('collision/singleton-flagged', '1.0', '1.0', True,
     'deterministic key: bound domain empty, flagged not asserted'),
    ('collision/random-k1', '-0.2668878623414892', '1e-12', True,
     'worst (expected_g - bound) over 60 fibers'),
    ('collision/random-k2', '-0.40687630093840527', '1e-12', True,
     'worst (expected_g - bound) over 60 fibers'),
    ('collision/random-k3', '-0.506087206987567', '1e-12', True,
     'worst (expected_g - bound) over 60 fibers'),
    ('decomposition/full-space', '0.0', '1e-12', True,
     'independent uniform bits: equality'),
    ('decomposition/singleton', '0.0', '1e-12', True,
     'deterministic bits: both sides 0'),
    ('decomposition/random', '0.016645794980505002', '-1e-12', True,
     'worst (bit entropy sum - log2|S|) over 100 random subsets'),
    ('fiber-entropy/projection', '0.0', '1e-12', True,
     'balanced fibers: mean equals n0 - l0 exactly'),
    ('fiber-entropy/constant', '4.0', '2.0', True,
     'single full fiber'),
    ('fiber-entropy/random-mean', '7.000275631403294', '7.0', True,
     'worst mean fiber entropy over 100 random maps'),
    ('fiber-entropy/random-tail', '0.0', '0.25', True,
     'worst tail probability at offset 2.0'),
    ('parseval/point-mass', '0.0', '1e-12', True,
     'deterministic outcome, both sides 1'),
    ('parseval/uniform', '0.0', '1e-12', True,
     'uniform outcome, both sides 2^-n'),
    ('parseval/random-n1', '2.220446049250313e-16', '1e-12', True,
     'worst |lhs-rhs| over 500 random distributions'),
    ('parseval/random-n2', '2.220446049250313e-16', '1e-12', True,
     'worst |lhs-rhs| over 500 random distributions'),
    ('parseval/random-n3', '8.326672684688674e-17', '1e-12', True,
     'worst |lhs-rhs| over 500 random distributions'),
    ('parseval/random-n4', '4.163336342344337e-17', '1e-12', True,
     'worst |lhs-rhs| over 500 random distributions'),
    ('parseval/random-n5', '2.7755575615628914e-17', '1e-12', True,
     'worst |lhs-rhs| over 500 random distributions'),
    ('parseval/random-n6', '1.3877787807814457e-17', '1e-12', True,
     'worst |lhs-rhs| over 500 random distributions'),
    ('parseval/random-n7', '8.673617379884035e-18', '1e-12', True,
     'worst |lhs-rhs| over 500 random distributions'),
    ('parseval/random-n8', '4.336808689942018e-18', '1e-12', True,
     'worst |lhs-rhs| over 500 random distributions'),
    ('parseval/random-n9', '2.168404344971009e-18', '1e-12', True,
     'worst |lhs-rhs| over 500 random distributions'),
    ('parseval/random-n10', '1.3010426069826053e-18', '1e-12', True,
     'worst |lhs-rhs| over 500 random distributions'),
]

# the terabyte-key example at q = 2^(e/2), e = 0..68
EXAMPLE = BoundInputs.from_passes(
    n_bits=2**43, leak_bits=2**40, msg_bits=128, num_probes=500,
    passes=2, queries=2**30,
)
SWEEP_QS = [2.0 ** (e / 2) for e in range(69)]
SWEEP_CSV = """\
log2_q,neg_log2_gamma,valid
0,118.0440989,1
0.5,117.5440989,1
1,117.0440989,1
1.5,116.5440989,1
2,116.0440989,1
2.5,115.5440989,1
3,115.0440989,1
3.5,114.5440989,1
4,114.0440988,1
4.5,113.5440988,1
5,113.0440987,1
5.5,112.5440987,1
6,112.0440985,1
6.5,111.5440984,1
7,111.0440982,1
7.5,110.5440978,1
8,110.0440974,1
8.5,109.5440968,1
9,109.0440959,1
9.5,108.5440946,1
10,108.0440929,1
10.5,107.5440903,1
11,107.0440868,1
11.5,106.5440818,1
12,106.0440747,1
12.5,105.5440646,1
13,105.0440504,1
13.5,104.5440303,1
14,104.0440019,1
14.5,103.5439618,1
15,103.0439049,1
15.5,102.5438246,1
16,102.043711,1
16.5,101.5435502,1
17,101.043323,1
17.5,100.5430016,1
18,100.0425471,1
18.5,99.54190426,1
19,99.04099522,1
19.5,98.53970966,1
20,98.03789164,1
20.5,97.53532065,1
21,97.03168488,1
21.5,96.52654343,1
22,96.01927294,1
22.5,95.50899213,1
23,94.99445531,1
23.5,94.47390203,1
24,93.94484508,1
24.5,93.40377187,1
25,92.84572459,1
25.5,92.26371119,1
26,91.64788205,1
26.5,90.98438441,1
27,90.25377963,1
27.5,89.42887795,1
28,88.47181816,1
28.5,87.33021034,1
29,85.93219527,1
29.5,84.18040675,1
30,81.94512724,1
30.5,79.05749724,1
31,75.30452982,1
31.5,70.42880125,1
32,64.13664161,1
32.5,56.11873039,1
33,46.08565255,1
33.5,33.81885798,1
34,19.23768115,1
"""


def test_verify_all_json_rows_are_pinned(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "--all", "--json", str(path)]) == 0
    capsys.readouterr()
    rows = [(r["name"], repr(r["lhs"]), repr(r["rhs"]), r["pass"], r["note"])
            for r in json.loads(path.read_text())]
    assert rows == VERIFY_ALL_ROWS


def test_sweep_curve_csv_is_pinned():
    out = io.StringIO()
    write_curve_csv(gamma_curve(EXAMPLE, SWEEP_QS), out)
    assert out.getvalue() == SWEEP_CSV


def test_collision_random_k3_row_matches_exact_oracle():
    # the suite's worst k = 3 fiber at its default seeds; its expected
    # collision mass, recounted pattern by pattern over all 8^3 probe
    # tuples as an exact Fraction, gives the pinned lhs
    rng = np.random.default_rng(404)
    tables = [LeakageTable.random(8, 1 + i % 2, rng) for i in range(20)]
    res, fiber = max(
        ((main_lemma_check(lt, v, 3), lt.fiber(v).tolist())
         for lt in tables for v in lt.fibers()),
        key=lambda pair: pair[0].expected_g - pair[0].bound,
    )
    assert res.bound_valid
    total = 0
    for probes in itertools.product(range(8), repeat=3):
        patterns = Counter(tuple(x >> p & 1 for p in probes) for x in fiber)
        total += sum(c * c for c in patterns.values())
    exact = Fraction(total, len(fiber) ** 2 * 8**3)
    pinned = next(lhs for name, lhs, *_ in VERIFY_ALL_ROWS
                  if name == "collision/random-k3")
    assert pinned == repr(float(exact) - res.bound)
