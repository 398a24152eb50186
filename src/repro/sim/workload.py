"""Query workload generators.

The paper's workload: ``n`` square range queries whose centers are uniform
over the data domain and whose volume is a fraction ``r`` of the domain
(side ``l_k = r**(1/d) * L_k``); plus, for the SP-2 experiments, the
"animation" workload that sweeps each snapshot's spatial volume with
``r``-sized queries for every time step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng, check_positive_int, check_probability
from repro.gridfile.query import RangeQuery

__all__ = [
    "square_queries",
    "animation_queries",
    "trace_queries",
    "partial_match_workload",
    "Operation",
    "mixed_workload",
    "flash_crowd_queries",
]


@dataclass(frozen=True)
class Operation:
    """One step of a mixed read/write workload.

    ``kind`` is ``"query"`` (range query), ``"insert"`` (new point) or
    ``"delete"``.  Deletes carry a rank in ``[0, 1)`` instead of a record
    id: the record actually deleted is chosen at *execution* time as the
    live record with that fractional rank, because at generation time the
    engine cannot know which ids will exist.  Callers that *do* know the
    target (the SQL engine's ``DELETE``, which resolves its predicate
    against the live structure first) may set ``record_id`` instead; a
    record id that is no longer live at execution time is a no-op delete.
    ``time`` is the arrival instant when the workload was generated with
    an arrival process (``None`` = closed back-to-back stream).
    """

    kind: str
    query: "RangeQuery | None" = None
    point: "np.ndarray | None" = None
    delete_rank: float = 0.0
    time: "float | None" = None
    record_id: "int | None" = None


def mixed_workload(
    n: int,
    write_ratio: float,
    domain_lo,
    domain_hi,
    ratio: float = 0.05,
    delete_fraction: float = 0.25,
    arrival_rate: "float | None" = None,
    rng=None,
    centers: "np.ndarray | None" = None,
) -> list[Operation]:
    """An interleaved stream of range queries, inserts and deletes.

    Each operation is a write with probability ``write_ratio``; a write is
    a delete with probability ``delete_fraction`` (else an insert of a
    uniform point, or a point near a ``centers`` row when given — a
    data-correlated write stream).  Queries are the paper's square queries
    of volume fraction ``ratio``.  With ``write_ratio == 0`` the stream is
    exactly ``square_queries(n, ratio, ..., rng=rng)`` in order — the
    neutrality pin of the online engine relies on this
    (``tests/test_online.py``).

    Parameters
    ----------
    n:
        Total operations.
    write_ratio:
        Fraction of operations that are writes (``0 <= w <= 1``).
    domain_lo, domain_hi:
        Data domain.
    ratio:
        Query volume fraction ``r``.
    delete_fraction:
        Fraction of writes that are deletes.
    arrival_rate:
        Optional mean arrivals per simulated second; when given, each
        operation carries a Poisson-process arrival ``time``.
    rng:
        Seed or generator.
    centers:
        Optional ``(m, d)`` pool biasing query centers *and* insert
        locations toward the data (see :func:`square_queries`).
    """
    check_positive_int(n, "n")
    check_probability(write_ratio, "write_ratio")
    check_probability(delete_fraction, "delete_fraction")
    domain_lo = np.asarray(domain_lo, dtype=np.float64)
    domain_hi = np.asarray(domain_hi, dtype=np.float64)
    rng = as_rng(rng)
    if arrival_rate is not None and arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")

    # Draw the op-kind stream first so the per-kind streams depend only on
    # (seed, kinds): with write_ratio == 0 every draw pattern below matches
    # square_queries exactly (same rng consumption order).
    if write_ratio > 0.0:
        is_write = rng.uniform(size=n) < write_ratio
        is_delete = rng.uniform(size=n) < delete_fraction
    else:
        is_write = np.zeros(n, dtype=bool)
        is_delete = np.zeros(n, dtype=bool)
    n_queries = int((~is_write).sum())
    queries = (
        square_queries(n_queries, ratio, domain_lo, domain_hi, rng=rng, centers=centers)
        if n_queries
        else []
    )
    times = (
        np.cumsum(rng.exponential(1.0 / arrival_rate, size=n))
        if arrival_rate is not None
        else None
    )

    ops: list[Operation] = []
    qi = 0
    for i in range(n):
        t = float(times[i]) if times is not None else None
        if not is_write[i]:
            ops.append(Operation("query", query=queries[qi], time=t))
            qi += 1
        elif is_delete[i]:
            ops.append(Operation("delete", delete_rank=float(rng.uniform()), time=t))
        else:
            if centers is None:
                point = rng.uniform(domain_lo, domain_hi)
            else:
                pool = np.asarray(centers, dtype=np.float64)
                jitter = rng.normal(0.0, 0.01, size=domain_lo.shape[0])
                point = pool[rng.integers(0, pool.shape[0])] + jitter * (
                    domain_hi - domain_lo
                )
                point = np.clip(point, domain_lo, domain_hi)
            ops.append(Operation("insert", point=point, time=t))
    return ops


def square_queries(
    n: int,
    ratio: float,
    domain_lo,
    domain_hi,
    rng=None,
    clip: bool = True,
    centers: "np.ndarray | None" = None,
) -> list[RangeQuery]:
    """The paper's random square queries.

    Parameters
    ----------
    n:
        Number of queries (the paper uses 1000).
    ratio:
        Query volume as a fraction ``r`` of the domain volume (0 < r <= 1);
        the paper sweeps r in {0.01, 0.05, 0.1}.
    domain_lo, domain_hi:
        Data domain.
    rng:
        Seed or generator.
    clip:
        Clip query boxes to the domain (default True).
    centers:
        Optional ``(m, d)`` pool of candidate centers, sampled with
        replacement.  The paper's workload uses uniform centers (the
        default, ``centers=None``); passing the dataset's points yields a
        *data-correlated* workload — analysts query where the data is —
        which concentrates load on hot-spot buckets
        (``benchmarks/bench_ext_query_skew.py``).
    """
    check_positive_int(n, "n")
    check_probability(ratio, "ratio")
    if ratio == 0.0:
        raise ValueError("ratio must be positive")
    domain_lo = np.asarray(domain_lo, dtype=np.float64)
    domain_hi = np.asarray(domain_hi, dtype=np.float64)
    rng = as_rng(rng)
    if centers is None:
        picked = rng.uniform(domain_lo, domain_hi, size=(n, domain_lo.shape[0]))
    else:
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != domain_lo.shape[0]:
            raise ValueError(
                f"centers must have shape (m, {domain_lo.shape[0]}), got {centers.shape}"
            )
        if centers.shape[0] == 0:
            raise ValueError("centers pool must be non-empty")
        picked = centers[rng.integers(0, centers.shape[0], size=n)]
    return [
        RangeQuery.square(c, ratio, domain_lo, domain_hi, clip=clip) for c in picked
    ]


def flash_crowd_queries(
    n: int,
    ratio: float,
    domain_lo,
    domain_hi,
    start: float = 0.4,
    duration: float = 0.3,
    intensity: float = 0.9,
    width: float = 0.04,
    center=None,
    rng=None,
) -> list[RangeQuery]:
    """A flash crowd: uniform traffic with a sudden, transient hot spot.

    Queries in the window ``[start, start + duration)`` (fractions of the
    stream) hit a single random spot with probability ``intensity``; before
    and after, the workload is the paper's uniform square queries.  The
    canonical stress for a replication controller: the spike must be
    detected, absorbed (replicas split its load) and then evicted once the
    crowd disperses.

    Parameters
    ----------
    n:
        Number of queries.
    ratio:
        Query volume fraction.
    domain_lo, domain_hi:
        Data domain.
    start, duration:
        Crowd window as fractions of the stream (``0 <= start <= 1``,
        ``duration > 0``).
    intensity:
        Probability an in-window query joins the crowd.
    width:
        Std-dev of the crowd around its spot (extent fraction, > 0).
    center:
        The crowd's spot (defaults to a uniform random point).
    rng:
        Seed or generator.
    """
    check_positive_int(n, "n")
    check_probability(intensity, "intensity")
    check_probability(start, "start")
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    domain_lo = np.asarray(domain_lo, dtype=np.float64)
    domain_hi = np.asarray(domain_hi, dtype=np.float64)
    rng = as_rng(rng)
    if center is None:
        center = rng.uniform(domain_lo, domain_hi)
    else:
        center = np.asarray(center, dtype=np.float64)
        if center.shape != domain_lo.shape:
            raise ValueError(f"center must have shape {domain_lo.shape}")
    frac = np.arange(n) / n
    in_window = (frac >= start) & (frac < start + duration)
    is_hot = in_window & (rng.uniform(size=n) < intensity)
    # Two draws per query row (one uniform, one normal vector) whatever the
    # hot mask, so the stream depends only on (seed, n, d).
    extent = domain_hi - domain_lo
    uniform = rng.uniform(domain_lo, domain_hi, size=(n, domain_lo.shape[0]))
    jitter = rng.normal(0.0, width, size=(n, domain_lo.shape[0])) * extent
    crowd = np.clip(center + jitter, domain_lo, domain_hi)
    picked = np.where(is_hot[:, None], crowd, uniform)
    return [
        RangeQuery.square(c, ratio, domain_lo, domain_hi, clip=True) for c in picked
    ]


def animation_queries(
    domain_lo,
    domain_hi,
    ratio: float,
    time_dim: int = 0,
    time_steps: "np.ndarray | None" = None,
    queries_per_step: "int | None" = None,
    rng=None,
) -> list[RangeQuery]:
    """The SP-2 animation workload (paper §3.5, Table 4).

    For every time step, a series of range queries of spatial size
    ``r·L_x × r·L_y × ... × 1`` (the time dimension is pinned to the step).
    The paper issues "approximately 10 x 59" such queries for r = 0.1 — i.e.
    about ``1/r`` per step, a sweep through the volume rather than an
    exhaustive tiling (which would need ``(1/r)**(d-1)``).  Both modes are
    supported:

    * ``queries_per_step=None`` (default): ``round(1/r)`` queries per step
      with stratified-random spatial placement — the paper's count;
    * ``queries_per_step=k``: exactly ``k`` stratified-random queries;
    * ``queries_per_step=0``: exhaustive tiling of the spatial volume.

    Parameters
    ----------
    domain_lo, domain_hi:
        Full (d-dimensional, including time) domain.
    ratio:
        Spatial side-length fraction ``r`` (each spatial side is ``r·L_k``).
    time_dim:
        Index of the temporal dimension (default 0).
    time_steps:
        Time values to animate (defaults to integer steps in the temporal
        extent).
    rng:
        Seed or generator for the stratified placement.
    """
    check_probability(ratio, "ratio")
    if ratio == 0.0:
        raise ValueError("ratio must be positive")
    domain_lo = np.asarray(domain_lo, dtype=np.float64)
    domain_hi = np.asarray(domain_hi, dtype=np.float64)
    d = domain_lo.shape[0]
    if not 0 <= time_dim < d:
        raise ValueError(f"time_dim {time_dim} out of range")
    rng = as_rng(rng)
    if time_steps is None:
        time_steps = np.arange(np.floor(domain_lo[time_dim]), np.floor(domain_hi[time_dim]) + 1)
    spatial = [k for k in range(d) if k != time_dim]
    sides = np.array([ratio * (domain_hi[k] - domain_lo[k]) for k in spatial])

    queries: list[RangeQuery] = []
    if queries_per_step == 0:
        # Exhaustive tiling.
        tiles = int(np.ceil(1.0 / ratio))
        axes = [np.arange(tiles) for _ in spatial]
        mesh = np.meshgrid(*axes, indexing="ij")
        offsets = np.stack([m.ravel() for m in mesh], axis=1).astype(np.float64)
        for t in time_steps:
            for off in offsets:
                lo = domain_lo.copy()
                hi = domain_hi.copy()
                lo[time_dim] = hi[time_dim] = float(t)
                for j, k in enumerate(spatial):
                    lo[k] = domain_lo[k] + off[j] * sides[j]
                    hi[k] = min(lo[k] + sides[j], domain_hi[k])
                queries.append(RangeQuery(lo, hi))
        return queries

    per_step = queries_per_step if queries_per_step else max(1, round(1.0 / ratio))
    check_positive_int(per_step, "queries_per_step")
    for t in time_steps:
        # Stratified placement along the first spatial axis, random elsewhere:
        # a sweep through the volume, one stripe per query.
        strata = np.linspace(0.0, 1.0 - ratio, per_step) if per_step > 1 else np.array([0.5 * (1 - ratio)])
        for s in strata:
            lo = domain_lo.copy()
            hi = domain_hi.copy()
            lo[time_dim] = hi[time_dim] = float(t)
            for j, k in enumerate(spatial):
                if j == 0:
                    frac = s
                else:
                    frac = rng.uniform(0.0, 1.0 - ratio)
                lo[k] = domain_lo[k] + frac * (domain_hi[k] - domain_lo[k])
                hi[k] = min(lo[k] + sides[j], domain_hi[k])
            queries.append(RangeQuery(lo, hi))
    return queries


def trace_queries(
    domain_lo,
    domain_hi,
    ratio: float,
    n_traces: int = 1,
    time_dim: int = 0,
    time_steps: "np.ndarray | None" = None,
    speed: float = 0.02,
    wander: float = 0.3,
    rng=None,
) -> list[RangeQuery]:
    """Particle-tracing queries (the paper's stated future-work access pattern).

    A trace follows one particle (or probe) through the spatio-temporal
    volume: at every time step it asks for the small spatial neighbourhood
    around the particle's current position (side ``ratio * L_k`` per spatial
    dimension, time pinned to the step).  The particle moves with a constant
    drift plus a random-walk wander, reflecting off the domain walls.

    Unlike the animation workload, consecutive queries overlap heavily in
    space but advance in time — so their cache behaviour depends on how the
    *temporal* scale partitions snapshots, and their response time on how
    the declusterer spread spatially-adjacent buckets.

    Parameters
    ----------
    domain_lo, domain_hi:
        Full (d-dimensional, including time) domain.
    ratio:
        Spatial side-length fraction of each neighbourhood query.
    n_traces:
        Number of independent particles; traces are concatenated.
    time_dim:
        Index of the temporal dimension.
    time_steps:
        Time values to step through (defaults to the integer steps of the
        temporal extent).
    speed:
        Drift per time step, as a fraction of each spatial extent.
    wander:
        Random-walk scale relative to ``speed``.
    rng:
        Seed or generator.
    """
    check_probability(ratio, "ratio")
    if ratio == 0.0:
        raise ValueError("ratio must be positive")
    check_positive_int(n_traces, "n_traces")
    domain_lo = np.asarray(domain_lo, dtype=np.float64)
    domain_hi = np.asarray(domain_hi, dtype=np.float64)
    d = domain_lo.shape[0]
    if not 0 <= time_dim < d:
        raise ValueError(f"time_dim {time_dim} out of range")
    if d < 2:
        raise ValueError("trace queries need at least one spatial dimension")
    rng = as_rng(rng)
    if time_steps is None:
        time_steps = np.arange(np.floor(domain_lo[time_dim]), np.floor(domain_hi[time_dim]) + 1)
    spatial = np.array([k for k in range(d) if k != time_dim])
    extent = domain_hi[spatial] - domain_lo[spatial]
    half = ratio * extent / 2.0

    queries: list[RangeQuery] = []
    for _ in range(n_traces):
        pos = rng.uniform(domain_lo[spatial], domain_hi[spatial])
        direction = rng.normal(size=spatial.size)
        direction /= max(np.linalg.norm(direction), 1e-12)
        for t in time_steps:
            lo = domain_lo.copy()
            hi = domain_hi.copy()
            lo[time_dim] = hi[time_dim] = float(t)
            lo[spatial] = np.maximum(pos - half, domain_lo[spatial])
            hi[spatial] = np.minimum(pos + half, domain_hi[spatial])
            queries.append(RangeQuery(lo, hi))
            step = speed * extent * (direction + wander * rng.normal(size=spatial.size))
            pos = pos + step
            # Reflect off the walls.
            for j in range(spatial.size):
                lo_j, hi_j = domain_lo[spatial[j]], domain_hi[spatial[j]]
                if pos[j] < lo_j:
                    pos[j] = 2 * lo_j - pos[j]
                    direction[j] = -direction[j]
                elif pos[j] > hi_j:
                    pos[j] = 2 * hi_j - pos[j]
                    direction[j] = -direction[j]
                pos[j] = min(max(pos[j], lo_j), hi_j)
    return queries


def partial_match_workload(
    n: int,
    domain_lo,
    domain_hi,
    n_specified: int = 1,
    rng=None,
    value_pool: "np.ndarray | None" = None,
) -> list[RangeQuery]:
    """Random partial-match queries as degenerate range queries.

    Each query pins ``n_specified`` randomly chosen attributes to random
    values (uniform over the domain, or drawn from ``value_pool`` rows for
    data-correlated keys) and leaves the rest unspecified — the workload
    class for which DM carries optimality guarantees (paper §2, checked in
    ``repro.analysis.partialmatch``).

    Parameters
    ----------
    n:
        Number of queries.
    domain_lo, domain_hi:
        Data domain.
    n_specified:
        Attributes pinned per query (``1 <= n_specified < d``).
    rng:
        Seed or generator.
    value_pool:
        Optional ``(m, d)`` rows to draw pinned values from (e.g. the
        dataset itself, so queries match existing keys).
    """
    check_positive_int(n, "n")
    domain_lo = np.asarray(domain_lo, dtype=np.float64)
    domain_hi = np.asarray(domain_hi, dtype=np.float64)
    d = domain_lo.shape[0]
    check_positive_int(n_specified, "n_specified")
    if n_specified >= d:
        raise ValueError("a partial-match query needs >= 1 unspecified attribute")
    rng = as_rng(rng)
    if value_pool is not None:
        value_pool = np.asarray(value_pool, dtype=np.float64)
        if value_pool.ndim != 2 or value_pool.shape[1] != d:
            raise ValueError(f"value_pool must have shape (m, {d})")
    queries = []
    for _ in range(n):
        dims = rng.choice(d, size=n_specified, replace=False)
        lo = domain_lo.copy()
        hi = domain_hi.copy()
        if value_pool is None:
            values = rng.uniform(domain_lo[dims], domain_hi[dims])
        else:
            values = value_pool[rng.integers(0, value_pool.shape[0])][dims]
        lo[dims] = hi[dims] = values
        queries.append(RangeQuery(lo, hi))
    return queries
