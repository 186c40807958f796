"""Quasi-randomness analysis for tournaments.

Exact even/odd cycle counting through traces of powers of the skew-symmetric
sign matrix, spectral certificates from its Gram matrix, and subset
discrepancy search, with brute-force oracles validating the identities at
small scale.
"""

__version__ = "0.1.0"

from .core import (
    CoinStream,
    Tournament,
    d_minus,
    d_plus,
    decode,
    edge_sign,
    encode,
    generate,
    paley_tournament,
    random_tournament,
    relabel,
    reverse,
    rotational_tournament,
    transitive_tournament,
)
from .discrepancy import (
    DiscrepancyReport,
    disc_exhaustive,
    disc_given,
    disc_localsearch,
    disc_sample,
    spectral_upper_bound,
    witness_vectors,
)
from .errors import (
    InternalInvariantError,
    ParseError,
    ResourceLimitError,
)
from .exactcount import (
    CycleCountReport,
    brute_force_count,
    cycle_parity,
    even_cycles_trace,
    power_trace,
    total_cycles,
)
from .spectral import (
    CertificateReport,
    SpectralSummary,
    gram,
    lambda1,
    quasirandom_certificate,
)
from . import verify
from .verify import moment_crosscheck

__all__ = [
    "__version__",
    "CertificateReport",
    "CoinStream",
    "CycleCountReport",
    "DiscrepancyReport",
    "InternalInvariantError",
    "ParseError",
    "ResourceLimitError",
    "SpectralSummary",
    "Tournament",
    "brute_force_count",
    "cycle_parity",
    "d_minus",
    "d_plus",
    "decode",
    "disc_exhaustive",
    "disc_given",
    "disc_localsearch",
    "disc_sample",
    "edge_sign",
    "encode",
    "even_cycles_trace",
    "generate",
    "gram",
    "lambda1",
    "moment_crosscheck",
    "paley_tournament",
    "power_trace",
    "quasirandom_certificate",
    "random_tournament",
    "relabel",
    "reverse",
    "rotational_tournament",
    "spectral_upper_bound",
    "total_cycles",
    "transitive_tournament",
    "verify",
    "witness_vectors",
]
