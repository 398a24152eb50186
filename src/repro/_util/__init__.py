"""Internal utilities shared across the :mod:`repro` packages.

Nothing in this package is part of the public API; the stable surface is
re-exported from :mod:`repro` and its subpackages.
"""

from repro._util.geometry import euclidean_norms
from repro._util.plot import line_chart
from repro._util.rng import as_rng, spawn_rng
from repro._util.tables import format_table, format_series
from repro._util.validate import (
    check_dimension,
    check_positive_int,
    check_probability,
)

__all__ = [
    "as_rng",
    "euclidean_norms",
    "spawn_rng",
    "format_table",
    "format_series",
    "line_chart",
    "check_dimension",
    "check_positive_int",
    "check_probability",
]
