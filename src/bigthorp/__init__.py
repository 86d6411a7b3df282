"""bigthorp: bit-level format-preserving encryption over huge local keys.

The cipher is a maximally unbalanced Feistel network whose round function
XORs an oracle-selected subsequence of oracle-probed key bits, so each
round touches only a handful of key bytes no matter how large the key is.
Alongside the cipher live exact calculators for its distinguishing
advantage bound and brute-force verification suites for the inequalities
the bound rests on.
"""

from .bigkey import (
    BigKey,
    KeyFileError,
    KeyFileVersionError,
    OracleMismatchError,
    seed_randomness,
)
from .bitstring import BitString
from .bounds import (
    BoundInputs,
    GammaPoint,
    NaiveAdvBound,
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
from .oracle import (
    KEYGEN_TAG,
    PROBE_TAG,
    Oracle,
    OracleQuery,
    ScriptedOracle,
    Shake256Oracle,
)
from .thorp import (
    CipherParams,
    ProbeDraw,
    decrypt,
    derive_probes,
    draw_bit,
    encrypt,
    round_backward,
    round_forward,
)

__version__ = "0.1.0"

__all__ = [
    "BigKey",
    "BitString",
    "BoundInputs",
    "CipherParams",
    "GammaPoint",
    "KEYGEN_TAG",
    "KeyFileError",
    "KeyFileVersionError",
    "NaiveAdvBound",
    "Oracle",
    "OracleMismatchError",
    "OracleQuery",
    "PROBE_TAG",
    "ProbeDraw",
    "ScriptedOracle",
    "Shake256Oracle",
    "decrypt",
    "derive_probes",
    "draw_bit",
    "encrypt",
    "entropy_h",
    "entropy_h_inv",
    "gamma_bound",
    "gamma_curve",
    "h_inv_upper",
    "log2_gamma",
    "naive_adv_lower",
    "round_backward",
    "round_forward",
    "seed_randomness",
    "theorem1_bound",
    "write_curve_csv",
]
