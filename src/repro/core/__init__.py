"""Declustering algorithms: the paper's primary contribution.

Two families are implemented:

* **Index-based** (paper §2) — :class:`DiskModulo`, :class:`FieldwiseXor`,
  :class:`HCAM` map each grid *cell* to a disk arithmetically; merged grid
  file buckets receive conflicting per-cell assignments, resolved by one of
  four heuristics (:mod:`repro.core.conflict`): random, most-frequent,
  data-balance, area-balance.
* **Proximity-based** (paper §3) — :class:`Minimax` (the paper's algorithm:
  M spanning trees grown round-robin with a min-of-max selection rule),
  plus the similarity-based baselines :class:`ShortSpanningPath` and
  :class:`MSTDecluster` (Fang et al.).

All methods share one interface::

    assignment = method.assign(gridfile, n_disks, rng=seed)   # (n_buckets,)

with ``assignment[b]`` the disk of bucket ``b``.
"""

from repro.core.advisor import Recommendation, recommend
from repro.core.exact import exact_optimal_assignment
from repro.core.base import DeclusteringMethod, IndexBasedMethod, validate_assignment
from repro.core.conflict import (
    CONFLICT_HEURISTICS,
    Alternatives,
    resolve_area_balance,
    resolve_data_balance,
    resolve_most_frequent,
    resolve_random,
)
from repro.core.diskmodulo import DiskModulo, GeneralizedDiskModulo
from repro.core.fieldwisexor import FieldwiseXor
from repro.core.hcam import HCAM
from repro.core.kl import KLRefine
from repro.core.latinsquare import LatinSquare
from repro.core.localsearch import WorkloadTuned
from repro.core.minimax import Minimax
from repro.core.onion import OnionScheme
from repro.core.mst import MSTDecluster
from repro.core.random_assign import RandomBalanced, RandomDecluster
from repro.core.placement import (
    PLACEMENT_POLICIES,
    PlacementPolicy,
    ProximitySteal,
    RecomputeOnThreshold,
    RoundRobinLeastLoaded,
    make_placement,
)
from repro.core.redistribute import (
    bounded_reconcile,
    min_proximity_steal,
    minimax_expand,
    movement_fraction,
)
from repro.core.optimal import optimal_response_time, optimal_response_times
from repro.core.proximity import (
    center_distance,
    proximity_index,
    proximity_matrix,
)
from repro.core.registry import (
    REGISTRY,
    MethodSpec,
    SchemeEntry,
    available_methods,
    default_method_slate,
    make_method,
    register_scheme,
)
from repro.core.scalable import (
    ProximityGraph,
    ScalableMinimax,
    bulk_assign,
    knn_graph,
    scalable_minimax_partition,
    sfc_order,
)
from repro.core.ssp import ShortSpanningPath

__all__ = [
    "DeclusteringMethod",
    "IndexBasedMethod",
    "DiskModulo",
    "GeneralizedDiskModulo",
    "FieldwiseXor",
    "HCAM",
    "KLRefine",
    "LatinSquare",
    "OnionScheme",
    "Minimax",
    "ScalableMinimax",
    "ProximityGraph",
    "knn_graph",
    "sfc_order",
    "scalable_minimax_partition",
    "bulk_assign",
    "ShortSpanningPath",
    "MSTDecluster",
    "RandomDecluster",
    "RandomBalanced",
    "WorkloadTuned",
    "minimax_expand",
    "movement_fraction",
    "bounded_reconcile",
    "min_proximity_steal",
    "PlacementPolicy",
    "RoundRobinLeastLoaded",
    "ProximitySteal",
    "RecomputeOnThreshold",
    "PLACEMENT_POLICIES",
    "make_placement",
    "recommend",
    "Recommendation",
    "exact_optimal_assignment",
    "CONFLICT_HEURISTICS",
    "Alternatives",
    "resolve_random",
    "resolve_most_frequent",
    "resolve_data_balance",
    "resolve_area_balance",
    "proximity_index",
    "proximity_matrix",
    "center_distance",
    "optimal_response_time",
    "optimal_response_times",
    "available_methods",
    "default_method_slate",
    "make_method",
    "MethodSpec",
    "SchemeEntry",
    "REGISTRY",
    "register_scheme",
    "validate_assignment",
]
