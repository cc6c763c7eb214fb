"""Exact symbolic engine for q-specializations of monomial symmetric
functions on the two-letter geometric alphabet (a - b)/(1 - q), the
symmetrized rational identities they are equivalent to, the positivity
polynomial attached to each partition, and the basis expansions of the
one-row Macdonald polynomial g_n(X; q, t)."""

from .algebra import FactoredFraction, Polynomial, frac_eq
from .errors import (
    InternalConsistencyError,
    InvalidValueError,
    NotApplicableError,
    PoleError,
    QmonoError,
    ResourceLimitError,
    UsageError,
)
from .partitions import (
    Partition,
    derangements,
    partitions_of,
    partitions_up_to,
    permutations_with_cycles,
    z_of,
)
from .specialize import (
    SpecResult,
    monomial_spec,
    oracle_direct,
    oracle_powersum,
)

__version__ = "0.1.0"

__all__ = [
    "FactoredFraction",
    "Polynomial",
    "frac_eq",
    "QmonoError",
    "UsageError",
    "InvalidValueError",
    "PoleError",
    "ResourceLimitError",
    "InternalConsistencyError",
    "NotApplicableError",
    "Partition",
    "partitions_of",
    "partitions_up_to",
    "derangements",
    "permutations_with_cycles",
    "z_of",
    "SpecResult",
    "monomial_spec",
    "oracle_powersum",
    "oracle_direct",
    "__version__",
]
