"""bigthorp benchmark: per-block cipher latency, bound-curve and verify time.

Run from the repository root:

    python3 perfbench/run.py --workload fpe-small-mem --seed 1 --seconds 50 --trace 0

One run, in a single process with one caller (a closed loop):

1. set-up, timed: start a fresh interpreter and import the package
   (median of a few), then generate, save and load the workload's key
   (median of a few repetitions);
2. cipher phase, timed per call for ``--seconds`` seconds: random blocks
   drawn from ``--seed`` are each encrypted and then decrypted, in epochs
   of a fixed block count with a fresh oracle per epoch;
3. analysis, spread over the cipher phase: the 69-point terabyte-example
   bound sweep (exact curve, closed-form bound, naive lower bound), and
   ``bigthorp verify --all`` in a fresh interpreter.

Every time of steps 2 and 3 is scaled to a reference host speed by a
speed sampler that runs alongside (``speed.py``), because the shared host
switches between a fast and a slow state; set-up is wall time.

Outputs are checked outside the timed regions: every decrypt returns its
plaintext, a seed-chosen sample of ciphertexts matches ``reference.py``,
the curve is valid, monotone and matches frozen 500-bit spot values, and
every verify row passes.  Failed checks count in ``failed``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` it carries the per-layer metrics: the cipher phase runs
untraced as before, then sampled blocks are replayed through the public
stage functions (``tracing.py``) and each verify suite is timed cold in its
own interpreter.  Earlier stdout lines give the machine facts, the
conditions of the run and every metric with its unit.  See NOTES.md.
"""

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter_ns as now

import mpmath
import numpy

from speed import KERNELS, SpeedSampler, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    n_bits: int
    msg_bits: int
    num_probes: int
    passes: int
    in_memory: bool
    setup_reps: int
    epoch_blocks: int
    sweep_every: int
    trace_blocks: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "fpe-small-mem", 10**6 + 3, 16, 8, 1, True, 5, 2000, 200, 200,
        "m=16 k=8 s=1 over an in-memory key of 10^6+3 bits (fits L2): the "
        "fixed cost per round dominates, and repeated queries grow the "
        "oracle's distinct-query set",
    ),
    Workload(
        "fpe-wide-file", 1 << 30, 64, 64, 1, False, 3, 32, 8, 12,
        "m=64 k=64 s=1 over a lazily loaded 128 MiB key file, warm page "
        "cache: seek-and-read per probe and k=64 probe decoding dominate",
    ),
)}

MIN_BLOCKS = 110          # p90 needs at least 10 samples beyond it
REFERENCE_SAMPLE = 32
MIN_CURVE_PASSES = 10
VERIFY_ALL_AT = (1 / 6, 1 / 2, 5 / 6)   # fractions of the measured phase
IMPORT_REPS = 5
CHILD_TIMEOUT_S = 120
VERIFY_SUITES = ("parseval", "fiber-entropy", "decomposition", "collision",
                 "bias")
Q_EXPONENTS = range(69)   # q = 2^(e/2), 2^0 .. 2^34
# gamma_bound at q = 2^10, 2^20, 2^30 from a 500-bit evaluation, keyed by e
FROZEN_GAMMA = {20: 2.988733526e-33, 40: 3.073646405e-30, 60: 2.148120812e-25}

END_TO_END_UNITS = {
    "encrypt_p50_ms": "ms", "encrypt_p90_ms": "ms",
    "decrypt_p50_ms": "ms", "decrypt_p90_ms": "ms",
    "blocks_per_s": "1/s", "curve_points_per_s": "1/s",
    "verify_all_s": "s", "setup_s": "s", "mem_anon_peak_mb": "MB",
}
PER_LAYER_UNITS = {
    "thorp.round_self_us": "us", "thorp.rounds_per_block": "count",
    "bitstring.codec_us": "us",
    "oracle.stream_us": "us", "oracle.stream_calls_per_block": "count",
    "oracle.bytes_per_block": "B", "oracle.distinct_query_frac": "ratio",
    "oracle.shake_floor_us": "us", "oracle.floor_ratio": "ratio",
    "prf.derive_self_us": "us", "prf.parity_self_us": "us",
    "bigkey.subkey_us": "us", "bigkey.probes_per_block": "count",
    "bigkey.generate_s": "s", "bigkey.save_s": "s", "bigkey.load_ms": "ms",
    "bounds.h_inv_ms": "ms", "bounds.gamma_point_ms": "ms",
    "bounds.closed_form_ms": "ms",
    "verify.parseval_s": "s", "verify.fiber_entropy_s": "s",
    "verify.decomposition_s": "s", "verify.collision_s": "s",
    "verify.bias_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tally:
    """Attempted and failed operations, with a note per failure kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            if what not in self.problems:
                self.problems.append(what)


class MemProbe:
    """Peak of RssAnon, sampled at fixed points of the run."""

    def __init__(self):
        self.samples = []

    def sample(self, label):
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("RssAnon:"):
                    self.samples.append((label, int(line.split()[1]) / 1024))
                    return

    @property
    def peak_mb(self):
        return max(mb for _, mb in self.samples)


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts():
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


def _cache_bytes(size):
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if size and size[-1] in units:
        return int(size[:-1]) * units[size[-1]]
    return None


def key_fit(key_bytes, caches):
    fits = [lvl for lvl, size in sorted(caches.items())
            if (_cache_bytes(size) or 0) >= key_bytes]
    return (f"{key_bytes} key bytes; per-cache sizes {caches}; "
            + (f"fits in {fits[0]}" if fits else "larger than every cache"))


def child_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(tally, what, *args):
    """Run ``child.py`` alone; return its result with the whole wall time.

    ``scaled_s`` adds the child's interpreter start-up, unscaled, to its
    scaled work time.
    """
    t0 = now()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), what, *args],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    wall = (now() - t0) / 1e9
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    ok = proc.returncode == 0 and result is not None and result["status"] == 0
    tally.check(ok, f"child {what} {' '.join(args)} exited {proc.returncode}: "
                    f"{proc.stderr[-500:]}")
    if not ok:
        raise RuntimeError(f"child {what} failed:\n{proc.stderr}")
    result["scaled_s"] += wall - result["wall_s"]
    result["wall_s"] = wall
    return result


# ---------------------------------------------------------------- set-up


def import_seconds(tally):
    return median(run_child(tally, "import")["scaled_s"]
                  for _ in range(IMPORT_REPS))


def key_setup(bt, w, key_seed, path, mem):
    """Generate, save and load the key; return the last key and the timings.

    Generating and saving a big key is bound by memory and slows the
    speed kernel as much as the host does, so each step is scaled by the
    kernel's speed just before it rather than by a sampler running inside.
    """
    gen, save, load = [], [], []
    key = None
    for rep in range(w.setup_reps):
        if key is not None:
            key.close()
        factor, t0 = speed_factor(), now()
        fresh = bt.BigKey.generate(
            w.n_bits, bt.seed_randomness((w.n_bits + 7) // 8, key_seed))
        gen.append((now() - t0) * factor / 1e9)
        mem.sample(f"setup{rep}/generated")
        factor, t0 = speed_factor(), now()
        fresh.save(path)
        save.append((now() - t0) * factor / 1e9)
        fresh = None
        factor, t0 = speed_factor(), now()
        key = bt.BigKey.load(path, in_memory=w.in_memory)
        load.append((now() - t0) * factor / 1e9)
        mem.sample(f"setup{rep}/loaded")
    totals = [g + s + l for g, s, l in zip(gen, save, load)]
    return key, {"key_setup_s": median(totals), "generate_s": median(gen),
                 "save_s": median(save), "load_s": median(load)}


# ---------------------------------------------------------- cipher phase


class CurveSweep:
    """The 69-point terabyte-example sweep: exact curve, closed form, naive."""

    def __init__(self, bt):
        self.bt = bt
        self.example = bt.BoundInputs.from_passes(
            n_bits=1 << 43, leak_bits=1 << 40, msg_bits=128, num_probes=500,
            passes=2, queries=1)
        self.qs = [2.0 ** (e / 2.0) for e in Q_EXPONENTS]
        self.at_q = [replace(self.example, queries=q) for q in self.qs]
        self.stamps = []

    def run_pass(self):
        bt = self.bt
        t0 = now()
        self.points = bt.gamma_curve(self.example, self.qs)
        t1 = now()
        self.closed = [bt.theorem1_bound(b, "closed-form") for b in self.at_q]
        t2 = now()
        self.naive = [bt.naive_adv_lower(b) for b in self.at_q]
        t3 = now()
        self.stamps.append((t0, t1, t2, t3))

    def check(self, tally):
        n = len(self.qs)
        values = [pt.neg_log2_gamma for pt in self.points]
        tally.check(all(pt.valid for pt in self.points), "invalid curve point", n)
        tally.check(all(b <= a for a, b in zip(values, values[1:])),
                    "curve is not monotone")
        for e, frozen in FROZEN_GAMMA.items():
            got = 2.0 ** -values[e]
            tally.check(abs(got - frozen) / frozen <= 1e-6,
                        f"curve spot value at q=2^{e / 2:g} is {got!r}")
        tally.check(all(float(c) >= 2.0 ** -v * (1 - 1e-9)
                        for c, v in zip(self.closed, values)),
                    "closed-form bound below the exact leading terms", n)
        tally.check(self.naive[0].simple == Fraction(1, 2**97),
                    "naive lower bound at q=1 is not 2^-97", n)


def measured_phase(bt, w, key, params, seed, seconds, side_tasks, sweep,
                   tally, mem, sampler):
    """Encrypt then decrypt random blocks, in whole epochs, for ``seconds``.

    A curve pass follows every ``w.sweep_every`` blocks, and each of
    ``side_tasks`` (fraction of the phase, callable) runs after the first
    epoch that ends past its fraction, with the sampler paused, so that
    every metric samples the whole phase.  Returns the blocks, the
    ciphertexts, the ``(start, mid, end)`` stamps of each encrypt and
    decrypt, and the oracle's distinct queries per epoch.
    """
    rng = random.Random(seed)
    m = params.msg_bits
    plain, cipher, stamps, epoch_distinct = [], [], [], []
    start = now()
    pending = sorted(side_tasks, key=lambda task: task[0])
    while now() - start < seconds * 1e9 or len(plain) < MIN_BLOCKS or pending:
        oracle = bt.Shake256Oracle()
        for i in range(1, w.epoch_blocks + 1):
            x = rng.getrandbits(m)
            msg = bt.BitString.from_int(x, m)
            t0 = now()
            ct = bt.encrypt(msg, key, oracle, params)
            t1 = now()
            pt = bt.decrypt(ct, key, oracle, params)
            t2 = now()
            stamps.append((t0, t1, t2))
            plain.append(x)
            cipher.append(ct.to_int())
            tally.check(pt == msg, "decrypt did not return the plaintext", 2)
            if i % w.sweep_every == 0:
                sweep.run_pass()
        epoch_distinct.append(oracle.query_count)
        if len(epoch_distinct) == 1:
            mem.sample("epoch0")
        while pending and now() - start >= pending[0][0] * seconds * 1e9:
            sampler.paused(pending.pop(0)[1])
    while len(sweep.stamps) < MIN_CURVE_PASSES:
        sweep.run_pass()
    return plain, cipher, stamps, epoch_distinct


def reference_check(params, key_path, plain, cipher, seed, tally):
    from reference import ReferenceCipher

    ref = ReferenceCipher(key_path, params.msg_bits, params.num_probes,
                          params.rounds)
    try:
        picks = random.Random(seed + 1).sample(
            range(len(plain)), min(REFERENCE_SAMPLE, len(plain)))
        for i in picks:
            tally.check(ref.encrypt(plain[i]) == cipher[i],
                        "ciphertext differs from the reference cipher")
        tally.check(ref.decrypt(cipher[picks[0]]) == plain[picks[0]],
                    "reference decrypt does not invert")
    finally:
        ref.close()
    return len(picks)


def percentile_ms(ns, q):
    return float(numpy.percentile(numpy.asarray(ns, dtype=numpy.float64), q)) / 1e6


# -------------------------------------------------------- analysis phase


def verify_all(tally, out):
    result = run_child(tally, "verify-all")
    tally.check(result["failed"] == 0, "verify row FAIL", max(result["rows"], 1))
    out.append(result)


def verify_suites(tally, out):
    for suite in VERIFY_SUITES:
        result = run_child(tally, "suite", suite)
        tally.check(result["failed"] == 0, f"verify suite {suite} row FAIL",
                    max(result["rows"], 1))
        out[f"verify.{suite.replace('-', '_')}_s"] = result["scaled_s"]


def h_inv_ms(bt, sweep, sampler):
    spans = []
    for q in sweep.qs:
        b = replace(sweep.example, queries=Fraction(q))
        z = 1 - (b.alpha + b.num_probes) / Fraction(b.n_bits)
        t0 = now()
        bt.entropy_h_inv(z)
        spans.append((t0, now()))
    return median(sampler.scaled_ns(*zip(*spans), "bignum")) / 1e6


# --------------------------------------------------------------- tracing


def traced_layers(bt, key, params, blocks, n_blocks, epoch_distinct,
                  enc_p50_ms, tally):
    import tracing

    oracle = bt.Shake256Oracle()
    overhead = tracing.overhead_frac(key, oracle, params, blocks)
    acc = tracing.replay(key, oracle, params, blocks)
    lib_oracle, lib_key, st_oracle, st_key = acc["delegates"]
    tally.check(acc["mismatches"] == 0,
                "traced replay differs from the library", 2 * len(blocks))
    rounds, calls = acc["rounds"], acc["calls"]
    derive_self = (acc["derive"] - st_oracle.ns) / rounds
    parity_self = (acc["draw_bit"] - st_key.ns) / rounds
    round_self = (acc["round"] - acc["derive"] - acc["draw_bit"]) / rounds
    floor_per_round = tracing.shake_floor_ns(lib_oracle.queries) / rounds
    calls_per_block = lib_oracle.calls / calls
    self_sum = (round_self + derive_self + parity_self
                + (lib_oracle.ns + lib_key.ns) / rounds) * rounds
    metrics = {
        "thorp.round_self_us": round_self / 1e3,
        "thorp.rounds_per_block": rounds / calls,
        "bitstring.codec_us": acc["codec"] / rounds / 1e3,
        "oracle.stream_us": lib_oracle.ns / rounds / 1e3,
        "oracle.stream_calls_per_block": calls_per_block,
        "oracle.bytes_per_block": lib_oracle.bytes / calls,
        "oracle.distinct_query_frac":
            sum(epoch_distinct) / (2 * n_blocks * calls_per_block),
        "oracle.shake_floor_us": floor_per_round / 1e3,
        "oracle.floor_ratio": enc_p50_ms * 1e6 / (params.rounds * floor_per_round),
        "prf.derive_self_us": derive_self / 1e3,
        "prf.parity_self_us": parity_self / 1e3,
        "bigkey.subkey_us": lib_key.ns / rounds / 1e3,
        "bigkey.probes_per_block": lib_key.probes / calls,
        "trace.overhead_frac": overhead,
    }
    detail = {"replayed_blocks": len(blocks), "replayed_rounds": rounds,
              "self_sum_gap_frac": self_sum / acc["round"] - 1}
    return metrics, detail


# ------------------------------------------------------------------ main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bigthorp" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import bigthorp as bt

    if Path(bt.__file__).resolve().parent != SRC / "bigthorp":
        print(f"error: imported bigthorp from {bt.__file__}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    facts = machine_facts()
    tally, mem = Tally(), MemProbe()
    mem.sample("start")
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    key_path = work / "bench.key"
    sampler = SpeedSampler()
    try:
        import_s = import_seconds(tally)
        key, setup = key_setup(bt, w, args.seed % (1 << 64), key_path, mem)
        with open(key_path, "rb") as f:
            os.fsync(f.fileno())   # no writeback during the measured phase
        params = bt.CipherParams.from_passes(w.n_bits, w.msg_bits,
                                             w.num_probes, w.passes)
        warm = bt.Shake256Oracle()
        for x in (0, 1):
            msg = bt.BitString.from_int(x, w.msg_bits)
            bt.decrypt(bt.encrypt(msg, key, warm, params), key, warm, params)

        sampler.start()
        sweep = CurveSweep(bt)
        verify_runs, suite_times = [], {}
        if args.trace:
            side_tasks = [(0.5, lambda: verify_suites(tally, suite_times))]
        else:
            side_tasks = [(at, lambda: verify_all(tally, verify_runs))
                          for at in VERIFY_ALL_AT]
        plain, cipher, stamps, epoch_distinct = measured_phase(
            bt, w, key, params, args.seed, args.seconds, side_tasks, sweep,
            tally, mem, sampler)
        t0, t1, t2 = zip(*stamps)
        enc_ns = sampler.scaled_ns(t0, t1)
        dec_ns = sampler.scaled_ns(t1, t2)
        s0, s1, s2, s3 = zip(*sweep.stamps)
        gamma_ns = sampler.scaled_ns(s0, s1, "bignum")
        closed_ns = sampler.scaled_ns(s1, s2, "bignum")
        pass_ns = sampler.scaled_ns(s0, s3, "bignum")
        h_inv = h_inv_ms(bt, sweep, sampler) if args.trace else None
        sampler.stop()

        checked = reference_check(params, key_path, plain, cipher,
                                  args.seed, tally)
        sweep.check(tally)
        n_points = len(sweep.qs)
        raw_enc_p50 = percentile_ms(numpy.subtract(t1, t0), 50)
        raw = {"encrypt_p50_ms": raw_enc_p50,
               "decrypt_p50_ms": percentile_ms(numpy.subtract(t2, t1), 50),
               "curve_pass_ms": percentile_ms(numpy.subtract(s3, s0), 50),
               "verify_all_s": [r["wall_s"] for r in verify_runs]}
        if args.trace:
            picks = sorted(random.Random(args.seed + 2).sample(
                range(len(plain)), min(w.trace_blocks, len(plain))))
            metrics, trace_detail = traced_layers(
                bt, key, params, [(plain[i], cipher[i]) for i in picks],
                len(plain), epoch_distinct, raw_enc_p50, tally)
            metrics.update({
                "bigkey.generate_s": setup["generate_s"],
                "bigkey.save_s": setup["save_s"],
                "bigkey.load_ms": setup["load_s"] * 1e3,
                "bounds.h_inv_ms": h_inv,
                "bounds.gamma_point_ms": median(gamma_ns) / n_points / 1e6,
                "bounds.closed_form_ms": median(closed_ns) / n_points / 1e6,
            })
            metrics.update(suite_times)
            units = PER_LAYER_UNITS
        else:
            trace_detail = None
            epoch_ns = [sum(enc_ns[i:i + w.epoch_blocks])
                       + sum(dec_ns[i:i + w.epoch_blocks])
                       for i in range(0, len(enc_ns), w.epoch_blocks)]
            metrics = {
                "encrypt_p50_ms": percentile_ms(enc_ns, 50),
                "encrypt_p90_ms": percentile_ms(enc_ns, 90),
                "decrypt_p50_ms": percentile_ms(dec_ns, 50),
                "decrypt_p90_ms": percentile_ms(dec_ns, 90),
                "blocks_per_s": median(w.epoch_blocks / t * 1e9 for t in epoch_ns),
                "curve_points_per_s": n_points / (median(pass_ns) / 1e9),
                "verify_all_s": median(r["scaled_s"] for r in verify_runs),
                "setup_s": import_s + setup["key_setup_s"],
                "mem_anon_peak_mb": mem.peak_mb,
            }
            units = END_TO_END_UNITS
        key.close()
    finally:
        if sampler.running:
            sampler.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass

    context = {
        "workload": w.name, "why": w.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "load": "closed loop, one caller, one process at a time; children "
                "run with one BLAS thread",
        "machine": facts,
        "key": key_fit((w.n_bits + 7) // 8, facts["caches"]),
        "page_cache": "warm page cache only: the benchmark does not drop "
                      "the OS page cache",
        "time_scale": "times are scaled to a host on which each kernel of "
                      "speed.py takes its reference time; 'raw' has unscaled "
                      "wall times",
        "kernel_ns": {name: {"reference": ref,
                             "p10": percentile_ms(sampler.durs[name], 10) * 1e6,
                             "p50": percentile_ms(sampler.durs[name], 50) * 1e6,
                             "p90": percentile_ms(sampler.durs[name], 90) * 1e6}
                      for name, (_, ref) in KERNELS.items()},
        "kernel_samples": len(sampler.starts),
        "samples": {"encrypt": len(enc_ns), "decrypt": len(dec_ns),
                    "beyond_p90_each": len(enc_ns) // 10,
                    "epochs": len(epoch_distinct),
                    "epoch_blocks": w.epoch_blocks,
                    "reference_checked": checked,
                    "curve_passes": len(pass_ns),
                    "verify_all_runs": len(verify_runs)},
        "raw": raw,
        "setup": dict(setup, import_s=import_s),
        "memory_mb": mem.samples,
        "trace_detail": trace_detail,
        "problems": tally.problems[:10],
    }
    print(json.dumps({"context": context}))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
