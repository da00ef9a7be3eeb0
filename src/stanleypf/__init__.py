"""Exact arithmetic for Stanley's partition function t(n), the complement
u(n) = p(n) - t(n), and the signed count f(n) = t(n) - u(n), with machine
verification of the generating-function identities, congruences, and
hook-length interpretations relating them.
"""

__version__ = "0.1.0"

from .partitions import PartitionStats, partitions_of
from .series_core import ProductSpec, ThetaSpec, TruncatedSeries
from .stanley import StanleyTable, table_from_dp, table_from_enumeration
from .verify import VerificationReport, run_suite

__all__ = [
    "__version__",
    "PartitionStats",
    "partitions_of",
    "ProductSpec",
    "ThetaSpec",
    "TruncatedSeries",
    "StanleyTable",
    "table_from_dp",
    "table_from_enumeration",
    "VerificationReport",
    "run_suite",
]
