"""The minimax spanning-tree declustering algorithm (paper §3.1, Algorithm 2).

The grid-file declustering problem is viewed as an M-way partitioning of the
complete graph on buckets, edges weighted by the probability of co-access
(the proximity index).  The algorithm extends Prim's MST construction:

1. **Random seeding** — M distinct buckets seed M spanning trees.
2. **Expanding** — trees take turns (round robin).  The tree whose turn it
   is receives the unassigned bucket whose *maximum* edge weight to the
   tree's current members is *minimum* — the bucket least likely to be
   co-accessed with anything already on that disk.

Properties (paper §3.1, verified by the test suite):

* O(N²) weight evaluations for N buckets;
* perfectly balanced partitions: every disk gets at most ``⌈N/M⌉`` buckets;
* nearest-neighbour buckets land on the same disk only rarely (Tables 2–3).

The inner loop is vectorized: per step one argmin over the frontier and one
one-vs-all proximity row, both numpy array passes, so declustering the
paper's 19 956-bucket 4-d file stays in seconds.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.core.base import DeclusteringMethod, validate_assignment
from repro.core.proximity import euclidean_similarity, proximity_index, proximity_rows
from repro.gridfile.gridfile import GridFile
from repro.obs import GLOBAL_METRICS, PROFILER

__all__ = ["Minimax", "minimax_partition"]

_WEIGHTS = {"proximity": proximity_index, "euclidean": euclidean_similarity}


def _farthest_point_seeds(prox_row, n, m, rng) -> np.ndarray:
    """Greedy max-min (k-center) seeding: spread seeds across the domain.

    ``prox_row(y)`` returns a fresh proximity row of bucket ``y``.
    """
    seeds = [int(rng.integers(n))]
    # Track, for each bucket, the max similarity to any chosen seed (lower =
    # farther); pick the bucket minimizing it.
    best_sim = prox_row(seeds[0])
    for _ in range(m - 1):
        best_sim[seeds] = np.inf
        nxt = int(np.argmin(best_sim))
        seeds.append(nxt)
        np.maximum(best_sim, prox_row(nxt), out=best_sim)
    return np.asarray(seeds, dtype=np.int64)


def minimax_partition(
    lo: np.ndarray,
    hi: np.ndarray,
    lengths: np.ndarray,
    n_disks: int,
    rng=None,
    weight: str = "proximity",
    seeding: str = "random",
    seeds: "np.ndarray | None" = None,
) -> np.ndarray:
    """Partition ``n`` boxes over ``n_disks`` with Algorithm 2.

    Each growth step reads one weight row.  With the proximity weight the
    rows come from :func:`~repro.core.proximity.proximity_rows` — factored
    per-dimension tables when the boxes admit them (always so for grid-file
    buckets), else the full formula — and with the Euclidean weight from the
    formula.  Either source gives the same rows bit for bit.

    Parameters
    ----------
    lo, hi:
        ``(n, d)`` box bounds (bucket regions in domain coordinates).
    lengths:
        Domain extent per dimension.
    n_disks:
        Number of disks ``M`` (``<= n``).
    rng:
        Seed / generator for the seeding phase.
    weight:
        Edge-weight function: ``"proximity"`` (paper) or ``"euclidean"``
        (ablation).
    seeding:
        ``"random"`` (paper) or ``"farthest"`` (greedy max-min ablation).
    seeds:
        Explicit seed bucket indices (length ``n_disks``, distinct);
        overrides ``seeding``.  Used by tests to compare against reference
        implementations step by step.

    Returns
    -------
    numpy.ndarray
        ``(n,)`` disk ids; each disk receives at most ``⌈n/M⌉`` boxes.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = lo.shape[0]
    m = check_positive_int(n_disks, "n_disks")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if m > n:
        # Degenerate but convenient: every box on its own disk.
        return np.arange(n, dtype=np.int64)
    if weight not in _WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}; choose from {sorted(_WEIGHTS)}")
    weight_fn = _WEIGHTS[weight]
    rng = as_rng(rng)

    with PROFILER.phase("minimax.weights"):
        prox_row = proximity_rows(lo, hi, lengths)
    # ``minimax.cache.misses`` mirrors ``minimax.weight_rows``: no row is
    # ever read from a stored matrix, so ``minimax.cache.hits`` stays unset.
    cache_misses = GLOBAL_METRICS.counter("minimax.cache.misses")
    weight_rows = GLOBAL_METRICS.counter("minimax.weight_rows")

    def weight_row(y: int) -> np.ndarray:
        cache_misses.inc()
        weight_rows.inc()
        if weight == "proximity":
            return prox_row(y)
        return weight_fn(lo[y], hi[y], lo, hi, lengths)

    # Phase 1: seeding.
    if seeds is not None:
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.shape != (m,) or len(np.unique(seeds)) != m:
            raise ValueError(f"seeds must be {m} distinct indices")
    elif seeding == "random":
        seeds = rng.choice(n, size=m, replace=False).astype(np.int64)
    elif seeding == "farthest":
        seeds = _farthest_point_seeds(prox_row, n, m, rng)
    else:
        raise ValueError(f"unknown seeding {seeding!r}")

    assign = np.full(n, -1, dtype=np.int64)
    assign[seeds] = np.arange(m)

    # MAX_x(K): max edge weight from bucket x to members of tree K, one
    # contiguous row per tree so argmin/maximum stream over memory.
    max_w = np.empty((m, n), dtype=np.float64)
    for k in range(m):
        max_w[k] = weight_row(int(seeds[k]))
    max_w[:, seeds] = np.inf  # never re-select assigned buckets

    # Phase 2: round-robin expansion.
    GLOBAL_METRICS.counter("minimax.growth_steps").inc(n - m)
    with PROFILER.phase("minimax.partition"):
        k = 0
        for _ in range(n - m):
            tree = max_w[k]
            y = int(np.argmin(tree))
            assign[y] = k
            np.maximum(tree, weight_row(y), out=tree)
            max_w[:, y] = np.inf
            k = (k + 1) % m
    return assign


class Minimax(DeclusteringMethod):
    """Minimax spanning-tree declustering (the paper's proposed algorithm).

    Parameters
    ----------
    weight:
        Edge-weight function, ``"proximity"`` (default, the paper's choice)
        or ``"euclidean"``.
    seeding:
        Seed placement, ``"random"`` (default) or ``"farthest"``.

    Notes
    -----
    Empty buckets occupy no disk page; they are excluded from the spanning
    trees (so balance guarantees refer to data buckets) and dealt round-robin
    afterwards.
    """

    name = "MiniMax"

    def __init__(self, weight: str = "proximity", seeding: str = "random"):
        if weight not in _WEIGHTS:
            raise ValueError(f"unknown weight {weight!r}")
        self.weight = weight
        self.seeding = seeding
        if weight != "proximity" or seeding != "random":
            self.name = f"MiniMax[{weight},{seeding}]"

    def assign(self, gf: GridFile, n_disks: int, rng=None) -> np.ndarray:
        rng = as_rng(rng)
        lo, hi = gf.bucket_regions()
        nonempty = gf.nonempty_bucket_ids()
        lo_ne = np.ascontiguousarray(lo[nonempty])
        hi_ne = np.ascontiguousarray(hi[nonempty])
        part = minimax_partition(
            lo_ne,
            hi_ne,
            gf.scales.lengths,
            min(n_disks, max(1, nonempty.size)),
            rng=rng,
            weight=self.weight,
            seeding=self.seeding,
        )
        assignment = np.zeros(gf.n_buckets, dtype=np.int64)
        assignment[nonempty] = part
        empty = np.setdiff1d(np.arange(gf.n_buckets), nonempty, assume_unique=False)
        assignment[empty] = np.arange(empty.size) % n_disks
        return validate_assignment(assignment, gf.n_buckets, n_disks)
