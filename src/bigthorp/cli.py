"""Command-line frontend.

Subcommands: ``keygen``, ``encrypt``, ``decrypt``, ``bounds``, ``curve``,
``verify``.  Exit status is 0 on success, 1 for usage errors, 2 for I/O or
format errors (unreadable or mismatched key files, malformed hex), and 3
when a verification suite reports a failure.

Messages travel as big-endian hex with an explicit ``--bits`` width, since
the width need not be a multiple of four; input whose value needs more
than ``--bits`` bits is rejected.  ``--key`` falls back to the
``BIGTHORP_KEY`` environment variable, the only environment override.
Numeric arguments are range-checked where argparse parses them, so an out
of range value is a usage error, and so is a cipher shape that
``CipherParams`` refuses once the key's size is known (``--passes S``
whose S * (2M - 1) rounds overflow the query's 8-byte round field), and
a ``bounds`` input outside the bound's domain.  The shape limits, the
probe ceiling among them, come from ``oracle``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import List, Optional

import mpmath

from . import bigkey, bounds, thorp, verify
from .bitstring import BitString
from .oracle import _MAX_MSG_BITS, _MAX_PROBES, _U64_MAX, Shake256Oracle
from .thorp import CipherParams

_ENV_KEY = "BIGTHORP_KEY"
_SEEDED_KEY_MAX_BITS = 2**33
# curve builds every query value and point before its first row
_MAX_CURVE_POINTS = 2**20


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad arguments; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(kind, low, strict=False, high=None):
    """argparse ``type=``: a finite ``kind`` at least ``low``, above it if
    ``strict``, and at most ``high`` if given."""

    def parse(text):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if not (value > low if strict else value >= low):
            rule = "above" if strict else "at least"
            raise argparse.ArgumentTypeError(f"must be {rule} {low}, got {text}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid <name> value" message
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bigthorp",
        description="Bit-level format-preserving cipher over huge keys, "
        "with advantage-bound calculators and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("keygen", help="generate and save a key file")
    p.add_argument("--bits", type=_number(int, bigkey._MIN_BITS, high=_U64_MAX),
                   required=True, metavar="N",
                   help="key size in bits (8 to 2^64 - 1)")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="destination key file")
    p.add_argument("--seed", type=_number(int, 0, high=_U64_MAX),
                   default=None, metavar="INT",
                   help="derive the key deterministically from this seed "
                   "instead of the system RNG (keys of at most 2^33 bits)")
    p.set_defaults(run=_cmd_keygen)

    for name in ("encrypt", "decrypt"):
        p = sub.add_parser(name, help=f"{name} one m-bit message")
        p.add_argument("--key", default=os.environ.get(_ENV_KEY),
                       metavar="PATH",
                       help=f"key file (default: ${_ENV_KEY})")
        p.add_argument("--bits", type=_number(int, 2, high=_MAX_MSG_BITS),
                       required=True, metavar="M",
                       help="message width in bits (2 to 65535)")
        p.add_argument("--probes", type=_number(int, 1, high=_MAX_PROBES),
                       required=True, metavar="K",
                       help="key probes per round-function call (1 to 2^16)")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--passes", type=_number(int, 1), metavar="S",
                           help="pass count; rounds = S * (2M - 1)")
        group.add_argument("--rounds", type=_number(int, 0, high=_U64_MAX),
                           metavar="T",
                           help="explicit round count (overrides the "
                           "derived form the advantage bound assumes)")
        p.add_argument("--in", dest="message", required=True, metavar="HEX",
                       help="message as big-endian hex of at most M bits")
        p.set_defaults(run=_cmd_crypt)

    p = sub.add_parser("bounds", help="print advantage bounds")
    _add_bound_args(p)
    p.add_argument("--queries", type=_number(float, 0), required=True,
                   metavar="Q", help="number of known-plaintext queries")
    p.add_argument("--oracle-calls", type=_number(float, 0), default=0.0,
                   metavar="P",
                   help="direct oracle calls by the adversary (default 0)")
    p.add_argument("--closed-form", action="store_true",
                   help="use the algebraic inverse-entropy upper bound "
                   "instead of solving h(p) = z to 1e-12")
    p.add_argument("--terms", action="store_true",
                   help="also print the four terms the upper bound sums")
    p.set_defaults(run=_cmd_bounds)

    p = sub.add_parser("curve", help="emit the leading-terms bound curve as CSV")
    _add_bound_args(p)
    p.add_argument("--q-from", type=_number(float, 0, strict=True),
                   required=True, metavar="A",
                   help="first query count (must be positive)")
    p.add_argument("--q-to", type=_number(float, 0), required=True,
                   metavar="B",
                   help="last query count")
    p.add_argument("--points", type=_number(int, 1, high=_MAX_CURVE_POINTS),
                   required=True, metavar="P",
                   help="number of log-spaced points (1 to 2^20)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="CSV destination (default: stdout)")
    p.set_defaults(run=_cmd_curve)

    p = sub.add_parser("verify", help="run brute-force verification suites")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run every suite")
    group.add_argument("--suite", action="append", metavar="NAME",
                       choices=sorted(verify.SUITES),
                       help="run one suite (repeatable); names: "
                       + ", ".join(sorted(verify.SUITES)))
    p.add_argument("--seed", type=_number(int, 0, high=verify._MAX_SEED),
                   default=None, metavar="INT",
                   help="override the per-suite default seeds (at most "
                   "2^64 - 5: the bias suite derives keys from seed + 4, "
                   "and a key seed must fit in 8 bytes)")
    p.add_argument("--trials", type=int, default=10**4, metavar="INT",
                   help="Monte Carlo trials for the bias suite "
                   f"(10^4 to {verify._MAX_TRIALS}, default 10^4)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write a machine-readable summary")
    p.set_defaults(run=_cmd_verify)
    return parser


def _add_bound_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_number(int, 1), required=True, metavar="N",
                   help="key size in bits")
    p.add_argument("--leak", type=_number(int, 0), required=True,
                   metavar="L", help="leakage budget in bits")
    p.add_argument("--bits", type=_number(int, 1), required=True,
                   metavar="M", help="message width in bits")
    p.add_argument("--probes", type=_number(int, 0), required=True,
                   metavar="K", help="key probes per round-function call")
    p.add_argument("--passes", type=_number(int, 1), required=True,
                   metavar="S", help="pass count")
    p.add_argument("--rounds", type=_number(int, 0), default=None,
                   metavar="T",
                   help="explicit round count (overrides the derived "
                   "T = S * (2M - 1), with a warning)")


def _explicit_rounds(args) -> Optional[int]:
    """``--rounds`` if given, after warning that it overrides the bound's T."""
    if args.rounds is not None:
        print(
            "warning: --rounds overrides the derived round count; the "
            "advantage bound assumes T = passes * (2 * bits - 1)",
            file=sys.stderr,
        )
    return args.rounds


def _bound_inputs(args, queries, oracle_calls=0.0) -> bounds.BoundInputs:
    fields = dict(n_bits=args.n, leak_bits=args.leak, msg_bits=args.bits,
                  num_probes=args.probes, passes=args.passes, queries=queries,
                  oracle_calls=oracle_calls)
    rounds = _explicit_rounds(args)
    if rounds is None:
        return bounds.BoundInputs.from_passes(**fields)
    return bounds.BoundInputs(rounds=rounds, **fields)


def _cipher_params(args, n_bits: int) -> CipherParams:
    rounds = _explicit_rounds(args)
    if rounds is not None:
        return CipherParams(n_bits=n_bits, msg_bits=args.bits,
                            num_probes=args.probes, rounds=rounds)
    return CipherParams.from_passes(n_bits, args.bits, args.probes,
                                    args.passes)


def _cmd_keygen(args) -> int:
    needed = (args.bits + 7) // 8
    if args.seed is not None:
        if args.bits > _SEEDED_KEY_MAX_BITS:
            # the seeded key is one SHAKE digest, built whole in memory
            print(f"error: --seed keys are limited to {_SEEDED_KEY_MAX_BITS} "
                  f"bits (1 GiB), got --bits {args.bits}", file=sys.stderr)
            return 1
        randomness = bigkey.seed_randomness(needed, args.seed)
    else:
        randomness = os.urandom(needed)
    key = bigkey.BigKey.generate(args.bits, randomness)
    key.save(args.out)
    print(f"wrote {args.bits}-bit key to {args.out}")
    return 0


def _cmd_crypt(args) -> int:
    if args.key is None:
        print(f"error: --key not given and ${_ENV_KEY} is unset",
              file=sys.stderr)
        return 1
    with bigkey.BigKey.load(args.key) as key:
        try:
            params = _cipher_params(args, key.n_bits)
        except ValueError as e:  # a shape argparse could not check alone
            print(f"error: {e}", file=sys.stderr)
            return 1
        message = BitString.from_hex(args.message, args.bits)
        crypt = thorp.encrypt if args.command == "encrypt" else thorp.decrypt
        out = crypt(message, key, Shake256Oracle(), params)
    print(out.to_hex())
    return 0


def _cmd_bounds(args) -> int:
    variant = "closed-form" if args.closed_form else "exact"
    try:
        b = _bound_inputs(args, args.queries, args.oracle_calls)
        value = bounds.theorem1_bound(b, variant=variant)
    except ValueError as e:  # inputs outside the bound's domain
        print(f"error: {e}", file=sys.stderr)
        return 1
    naive = bounds.naive_adv_lower(b)
    simple = bounds._out(bounds._to_mpf(naive.simple))
    hyper = bounds._out(bounds._to_mpf(naive.hypergeometric))
    if hyper > value:
        # only the paper's theorem can say whether the bound should charge the
        # floor(leak/bits) * T calls the naive leakage spends, or lacks a term
        print(f"warning: naive lower bound (hypergeometric) "
              f"{mpmath.nstr(hyper, 10)} exceeds the advantage upper bound "
              f"{mpmath.nstr(value, 10)} at --oracle-calls "
              f"{args.oracle_calls:g}", file=sys.stderr)
    print(f"advantage upper bound ({variant} inverse entropy): "
          f"{mpmath.nstr(value, 10)}")
    simple_text = (mpmath.nstr(simple, 10) if naive.hypothesis_ok
                   else "n/a (hypothesis violated)")
    print(f"naive adversary lower bound (simple): {simple_text}")
    print(f"naive adversary lower bound (hypergeometric): "
          f"{mpmath.nstr(hyper, 10)}")
    print(f"naive hypothesis q*floor(leak/bits) <= 2^bits: "
          f"{'holds' if naive.hypothesis_ok else 'violated'}")
    if args.terms:
        for formula, term in bounds._theorem1_terms(b, variant).items():
            print(f"term {formula}: {mpmath.nstr(bounds._out(term), 10)}")
    return 0


def _cmd_curve(args) -> int:
    if args.q_to < args.q_from:
        print("error: --q-to must be at least --q-from", file=sys.stderr)
        return 1
    b = _bound_inputs(args, args.q_from)
    lg_a = mpmath.log(args.q_from, 2)
    lg_b = mpmath.log(args.q_to, 2)
    if args.points == 1:
        qs = [args.q_from]
    else:
        step = (lg_b - lg_a) / (args.points - 1)
        qs = [float(mpmath.mpf(2) ** (lg_a + i * step))
              for i in range(args.points)]
    points = bounds.gamma_curve(b, qs)
    if args.out is None:
        bounds.write_curve_csv(points, sys.stdout)
    else:
        with open(args.out, "w") as f:
            bounds.write_curve_csv(points, f)
        print(f"wrote {len(points)} curve points to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    names = sorted(verify.SUITES) if args.all else list(dict.fromkeys(args.suite))
    if "bias" in names and not (
            verify._MIN_TRIALS <= args.trials <= verify._MAX_TRIALS):
        print(f"error: --trials must be {verify._MIN_TRIALS} to "
              f"{verify._MAX_TRIALS} for the bias suite", file=sys.stderr)
        return 1
    results, suite_s = [], []
    for name in names:
        kwargs = {"trials": args.trials} if name == "bias" else {}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        start = time.perf_counter()
        rows = verify.SUITES[name](**kwargs)
        suite_s += [time.perf_counter() - start] * len(rows)
        results.extend(rows)
    print(verify.render_report(results))
    if args.json is not None:
        summary = [dict(row, suite_s=seconds) for row, seconds
                   in zip(verify.report_rows(results), suite_s)]
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=2)
        print(f"wrote summary to {args.json}")
    return 0 if all(r.passed for r in results) else 3


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        return args.run(args)
    except (bigkey.KeyFileError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
