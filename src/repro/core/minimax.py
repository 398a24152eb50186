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

import os

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.core.base import DeclusteringMethod, validate_assignment
from repro.core.proximity import (
    FactoredProximity,
    euclidean_similarity,
    pairwise_rows,
    proximity_index,
)
from repro.gridfile.gridfile import GridFile
from repro.obs import GLOBAL_METRICS, PROFILER

__all__ = ["Minimax", "minimax_partition", "resolve_cache_bytes", "CACHE_BYTES_ENV"]

_WEIGHTS = {"proximity": proximity_index, "euclidean": euclidean_similarity}

#: Default memory cap for the precomputed pairwise weight matrix, and for
#: the factor tables of factored proximity rows (bytes).
#: 256 MiB holds the full matrix for ~5,800 buckets — comfortably above the
#: paper's 2-d/3-d files, well below its 19,956-bucket 4-d file.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

#: Environment variable overriding the default weight-matrix cache cap.
CACHE_BYTES_ENV = "REPRO_MINIMAX_CACHE_BYTES"


def resolve_cache_bytes(cache_bytes: "int | None") -> int:
    """Resolve the weight-matrix cache cap: explicit arg > env > default.

    ``None`` consults the ``REPRO_MINIMAX_CACHE_BYTES`` environment knob
    (an integer byte count; ``0`` disables the cache entirely) and falls
    back to :data:`DEFAULT_CACHE_BYTES`.  Raises ``ValueError`` on a
    malformed or negative knob value.
    """
    if cache_bytes is not None:
        cache_bytes = int(cache_bytes)
        if cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {cache_bytes}")
        return cache_bytes
    raw = os.environ.get(CACHE_BYTES_ENV)
    if raw is None or raw.strip() == "":
        return DEFAULT_CACHE_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{CACHE_BYTES_ENV} must be an integer byte count, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"{CACHE_BYTES_ENV} must be >= 0, got {value}")
    return value

#: Target size of the (block, n, d) broadcast temporaries while filling the
#: cache — small enough to stay in L2/L3 (large blocks thrash memory and are
#: measurably slower), large enough to amortize dispatch overhead.
_CACHE_BLOCK_BYTES = 4 * 1024 * 1024


def _weight_cache(weight_fn, lo, hi, lengths, cache_bytes: int) -> "np.ndarray | None":
    """Blockwise-precomputed pairwise weight matrix, or ``None`` over the cap.

    Rows are bit-for-bit identical to the streamed one-vs-all computation,
    so reading cached rows cannot change any partition.
    """
    n = lo.shape[0]
    if n == 0 or n * n * 8 > cache_bytes:
        return None
    d = lo.shape[1]
    block = max(1, _CACHE_BLOCK_BYTES // max(1, n * d * 8))
    return pairwise_rows(weight_fn, lo, hi, lengths, block)


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


def _factored(
    weight: str, precompute, lo, hi, lengths, cache_bytes: int
) -> "FactoredProximity | None":
    """Factored proximity rows when they apply, timed as ``minimax.weights``.

    They apply to the paper's weight unless a dense matrix is forced
    (``precompute=True``), and only under the size rule of
    :meth:`FactoredProximity.build` with the tables capped at
    ``cache_bytes``, the same budget as the dense matrix.
    """
    if weight != "proximity" or precompute is True:
        return None
    with PROFILER.phase("minimax.weights"):
        return FactoredProximity.build(lo, hi, lengths, cache_bytes)


def minimax_partition(
    lo: np.ndarray,
    hi: np.ndarray,
    lengths: np.ndarray,
    n_disks: int,
    rng=None,
    weight: str = "proximity",
    seeding: str = "random",
    seeds: "np.ndarray | None" = None,
    precompute: "bool | str" = "auto",
    cache_bytes: "int | None" = None,
    rows: "np.ndarray | None" = None,
) -> np.ndarray:
    """Partition ``n`` boxes over ``n_disks`` with Algorithm 2.

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
    precompute:
        With the proximity weight and ``"auto"`` (default) or ``False``,
        rows are gathered from per-dimension factor tables
        (:class:`~repro.core.proximity.FactoredProximity`) whenever those
        are no larger than the dense matrix and fit under ``cache_bytes``
        — always so for grid-file buckets.  Otherwise ``"auto"`` blockwise-precomputes the full
        pairwise weight matrix when it fits under ``cache_bytes``, so the
        O(N²) expansion reads cached rows instead of re-materializing one
        row per step.  ``True`` forces the dense matrix, ``False`` never
        builds it.  The result is bit-for-bit identical either way.
    cache_bytes:
        Memory cap (bytes) for the factor tables, and for the dense matrix
        under ``"auto"``; ``0`` streams every row through the formula.  ``None``
        (default) consults the ``REPRO_MINIMAX_CACHE_BYTES`` environment
        knob and falls back to :data:`DEFAULT_CACHE_BYTES`.
    rows:
        Optional external row source (e.g. shared across the disk counts
        of a sweep): a precomputed ``(n, n)`` pairwise weight matrix, or a
        :class:`~repro.core.proximity.FactoredProximity` of these boxes
        (proximity weight only).  Takes precedence over ``precompute``.

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

    if precompute not in (True, False, "auto"):
        raise ValueError(f"precompute must be True, False or 'auto', got {precompute!r}")
    source = rows
    if isinstance(source, FactoredProximity):
        if source.n != n:
            raise ValueError(f"rows must cover {n} boxes, got {source.n}")
    elif source is not None:
        if source.shape != (n, n):
            raise ValueError(f"rows must have shape ({n}, {n}), got {source.shape}")
    else:
        budget = resolve_cache_bytes(cache_bytes)
        source = _factored(weight, precompute, lo, hi, lengths, budget)
        if source is None and precompute is True:
            block = max(1, _CACHE_BLOCK_BYTES // max(1, n * lo.shape[1] * 8))
            with PROFILER.phase("minimax.weights"):
                source = pairwise_rows(weight_fn, lo, hi, lengths, block)
        elif source is None and precompute == "auto":
            with PROFILER.phase("minimax.weights"):
                source = _weight_cache(weight_fn, lo, hi, lengths, budget)

    cache_hits = GLOBAL_METRICS.counter("minimax.cache.hits")
    cache_misses = GLOBAL_METRICS.counter("minimax.cache.misses")
    weight_rows = GLOBAL_METRICS.counter("minimax.weight_rows")

    def weight_row(y: int) -> np.ndarray:
        if isinstance(source, np.ndarray):
            cache_hits.inc()
            return source[y]
        cache_misses.inc()
        weight_rows.inc()
        if source is not None:
            return source.row(y)
        return weight_fn(lo[y], hi[y], lo, hi, lengths)

    # Phase 1: seeding.
    if seeds is not None:
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.shape != (m,) or len(np.unique(seeds)) != m:
            raise ValueError(f"seeds must be {m} distinct indices")
    elif seeding == "random":
        seeds = rng.choice(n, size=m, replace=False).astype(np.int64)
    elif seeding == "farthest":
        if isinstance(source, FactoredProximity):
            prox_row = source.row
        else:
            def prox_row(y: int) -> np.ndarray:
                return proximity_index(lo[y], hi[y], lo, hi, lengths)
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
    precompute:
        Row-source policy passed to :func:`minimax_partition` — ``"auto"``
        (default) uses factored proximity rows on grid files and otherwise
        precomputes the pairwise weight matrix blockwise when it fits under
        ``cache_bytes``; assignments are identical either way.
    cache_bytes:
        Memory cap for the factor tables and the dense row cache (bytes);
        ``None`` (default) consults the ``REPRO_MINIMAX_CACHE_BYTES``
        environment knob.

    Notes
    -----
    Empty buckets occupy no disk page; they are excluded from the spanning
    trees (so balance guarantees refer to data buckets) and dealt round-robin
    afterwards.
    """

    name = "MiniMax"

    def __init__(
        self,
        weight: str = "proximity",
        seeding: str = "random",
        precompute: "bool | str" = "auto",
        cache_bytes: "int | None" = None,
    ):
        if weight not in _WEIGHTS:
            raise ValueError(f"unknown weight {weight!r}")
        self.weight = weight
        self.seeding = seeding
        self.precompute = precompute
        self.cache_bytes = resolve_cache_bytes(cache_bytes)
        if weight != "proximity" or seeding != "random":
            self.name = f"MiniMax[{weight},{seeding}]"
        # Memoized (lo, hi, rows) of the last grid file declustered, so a
        # sweep over disk counts builds its row source once.
        self._rows_memo: "tuple[np.ndarray, np.ndarray, object] | None" = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_rows_memo"] = None  # never ship the O(N²) cache to workers
        return state

    def _cached_rows(self, lo: np.ndarray, hi: np.ndarray, lengths):
        """Row source for these regions, memoized across calls.

        Factored rows when they apply, else the dense weight matrix when it
        fits under ``cache_bytes``, else ``None`` (rows are streamed).
        """
        if self.precompute is False:
            return None
        memo = self._rows_memo
        if memo is not None and np.array_equal(memo[0], lo) and np.array_equal(memo[1], hi):
            return memo[2]
        lengths = np.asarray(lengths, dtype=np.float64)
        rows = _factored(self.weight, self.precompute, lo, hi, lengths, self.cache_bytes)
        if rows is None:
            rows = _weight_cache(_WEIGHTS[self.weight], lo, hi, lengths, self.cache_bytes)
        self._rows_memo = None if rows is None else (lo.copy(), hi.copy(), rows)
        return rows

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
            precompute=self.precompute,
            cache_bytes=self.cache_bytes,
            rows=self._cached_rows(lo_ne, hi_ne, gf.scales.lengths),
        )
        assignment = np.zeros(gf.n_buckets, dtype=np.int64)
        assignment[nonempty] = part
        empty = np.setdiff1d(np.arange(gf.n_buckets), nonempty, assume_unique=False)
        assignment[empty] = np.arange(empty.size) % n_disks
        return validate_assignment(assignment, gf.n_buckets, n_disks)
