"""Scalable (approximate) minimax declustering for millions of buckets.

The paper's Algorithm 2 does O(N²) weight evaluations over a dense bucket
proximity matrix — fine for the 19,956-bucket 4-d file it measures,
impossible at the 1M+ buckets the ROADMAP north star targets (the matrix
alone would be 8 TB).  This module replaces both quadratic ingredients:

* **Sparse k-NN proximity graph** (:func:`knn_graph`) — instead of all
  ``N²`` pairs, each bucket is connected to the buckets that fall near it
  on one or more space-filling-curve orderings (:mod:`repro.sfc`).  SFC
  neighbours are overwhelmingly the geometric neighbours, which is exactly
  where the proximity index is large; far pairs contribute weights near
  zero and are dropped.  The graph is CSR, symmetric, self-edge-free and
  O(N·k) in memory; the consecutive-in-curve-order "backbone" edges of the
  primary curve are always kept, so the graph is connected by
  construction.
* **Hierarchical coarsen-partition-refine minimax**
  (:func:`scalable_minimax_partition`) — buckets are chunked in Hilbert
  order into super-nodes (bounding boxes of consecutive curve runs),
  *exact* minimax (Algorithm 2, unchanged) partitions the coarse graph,
  every bucket inherits its chunk's disk, a deterministic spill pass
  restores the ``⌈N/M⌉ + slack`` balance cap, and a budgeted local-search
  pass moves individual boundary buckets to the neighbouring disk that
  minimises their maximum same-disk proximity — the same min-of-max
  objective Algorithm 2 greedily optimises, applied only where the sparse
  graph says it matters.

Below ``dense_threshold`` buckets the function delegates to
:func:`repro.core.minimax.minimax_partition` unchanged, so small files are
**bit-for-bit identical** to the exact path (regression-pinned).  Above
it, time and memory are O(N·k + C²) with ``C ≈ N / chunk`` coarse nodes —
a 1M-bucket file declusters in well under a minute on a laptop instead of
never.  Quality is gated against the exact-minimax oracle by
``benchmarks/bench_ext_scale.py`` (response-time ratio on the paper's
square-query workload) and ``tests/test_scalable.py``.

The streaming entry point :func:`bulk_assign` takes a
:class:`~repro.gridfile.gridfile.GridFile` (or a
:class:`~repro.storage.gridstore.DurableGridFile`, or raw region blocks)
and produces an assignment without ever materialising pairwise weights.
See ``docs/scaling.md`` for the knob guide and measured frontier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.core.base import DeclusteringMethod, validate_assignment
from repro.core.minimax import _WEIGHTS, minimax_partition
from repro.obs import GLOBAL_METRICS, PROFILER
from repro.sfc import CURVES

__all__ = [
    "DEFAULT_DENSE_THRESHOLD",
    "DEFAULT_WINDOW",
    "DEFAULT_CURVES",
    "ProximityGraph",
    "sfc_order",
    "knn_graph",
    "scalable_minimax_partition",
    "bulk_assign",
    "ScalableMinimax",
]

#: Below this many boxes the exact dense path runs unchanged (bit-for-bit).
DEFAULT_DENSE_THRESHOLD = 4096

#: Curve-order window: each box is linked to this many successors on each
#: configured curve ordering (per-node degree ≈ 2 · window · n_curves).
DEFAULT_WINDOW = 4

#: Curve orderings whose windows are unioned into the k-NN graph.  Two
#: different curves catch neighbours the other's discontinuities miss.
DEFAULT_CURVES = ("hilbert", "zorder")

#: Coarse-graph size target: chunks are sized so the exact minimax run at
#: the top of the hierarchy sees at most this many super-nodes.
_MAX_COARSE = 4096


def sfc_order(lo: np.ndarray, hi: np.ndarray, curve: str = "hilbert") -> np.ndarray:
    """Order boxes along a space-filling curve over their centers.

    Centers are quantized onto the smallest power-of-two grid whose keys
    fit int64 (``bits = min(16, 62 // d)`` per dimension), normalized to
    the bounding box of the centers so the ordering is invariant to the
    domain's absolute position.  Ties (boxes quantizing to the same cell)
    break by box index — the ordering is fully deterministic.

    Returns the ``(n,)`` permutation that sorts boxes by curve position.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n, d = lo.shape
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if curve not in CURVES:
        raise ValueError(f"unknown curve {curve!r}; choose from {sorted(CURVES)}")
    centers = (lo + hi) * 0.5
    bits = max(1, min(16, 62 // d))
    side = (1 << bits) - 1
    cmin = centers.min(axis=0)
    span = centers.max(axis=0) - cmin
    span[span <= 0] = 1.0
    coords = np.clip((centers - cmin) / span * side, 0, side).astype(np.int64)
    keys = CURVES[curve](dims=d, bits=bits).index(coords)
    return np.argsort(keys, kind="stable").astype(np.int64)


@dataclass(frozen=True)
class ProximityGraph:
    """A sparse symmetric proximity graph in CSR form.

    ``indices[indptr[u]:indptr[u+1]]`` are ``u``'s neighbours and
    ``weights[...]`` the matching edge weights.  Symmetric (every edge is
    stored in both directions), no self-edges.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.indptr.shape[0] - 1

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.shape[0] // 2

    def degree(self, u: int) -> int:
        """Neighbour count of node ``u``."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbour ids, edge weights)`` of node ``u`` (views)."""
        s, e = int(self.indptr[u]), int(self.indptr[u + 1])
        return self.indices[s:e], self.weights[s:e]


def _edges_to_csr(n: int, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> ProximityGraph:
    """Symmetrize undirected edge list ``(a, b, w)`` into CSR."""
    row = np.concatenate([a, b])
    col = np.concatenate([b, a])
    ww = np.concatenate([w, w])
    order = np.lexsort((col, row))
    row, col, ww = row[order], col[order], ww[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return ProximityGraph(indptr=indptr, indices=col, weights=ww)


def knn_graph(
    lo: np.ndarray,
    hi: np.ndarray,
    lengths: np.ndarray,
    *,
    window: int = DEFAULT_WINDOW,
    k: "int | None" = None,
    curves: "tuple[str, ...]" = DEFAULT_CURVES,
    weight: str = "proximity",
) -> ProximityGraph:
    """Sparse k-NN proximity graph via space-filling-curve windowing.

    For every configured curve, each box is linked to its ``window``
    successors in curve order; the union over curves (deduplicated) forms
    the candidate edge set, weighted by the configured box-pair weight.
    With ``k`` set, edges are pruned to each node's top-``k`` heaviest
    (an edge survives if it ranks within ``k`` at *either* endpoint, which
    preserves symmetry) — except the offset-1 "backbone" edges of the
    primary curve, which are always kept so the graph stays connected.

    O(N · window · len(curves)) time and memory; never materialises an
    N×N matrix.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = lo.shape[0]
    check_positive_int(window, "window")
    if k is not None:
        check_positive_int(k, "k")
    if weight not in _WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}; choose from {sorted(_WEIGHTS)}")
    if not curves:
        raise ValueError("need at least one curve")
    if n <= 1:
        z = np.empty(0, dtype=np.int64)
        return ProximityGraph(np.zeros(n + 1, dtype=np.int64), z, np.empty(0))

    us, vs = [], []
    backbone_key = None
    for ci, curve in enumerate(curves):
        order = sfc_order(lo, hi, curve)
        for off in range(1, min(window, n - 1) + 1):
            u, v = order[:-off], order[off:]
            us.append(u)
            vs.append(v)
            if ci == 0 and off == 1:
                a1 = np.minimum(u, v)
                b1 = np.maximum(u, v)
                backbone_key = a1 * n + b1
    a = np.concatenate(us)
    b = np.concatenate(vs)
    a, b = np.minimum(a, b), np.maximum(a, b)
    key = np.unique(a * n + b)
    a, b = key // n, key % n
    w = _WEIGHTS[weight](lo[a], hi[a], lo[b], hi[b], lengths)

    if k is not None:
        # Rank each directed edge within its node by descending weight
        # (ties by neighbour id: fully deterministic), keep an edge when
        # either endpoint ranks it within k — or it is backbone.
        row = np.concatenate([a, b])
        eid = np.tile(np.arange(a.shape[0]), 2)
        order = np.lexsort((np.concatenate([b, a]), -np.concatenate([w, w]), row))
        row_s, eid_s = row[order], eid[order]
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(np.bincount(row_s, minlength=n)[:-1], out=starts[1:])
        rank = np.arange(row_s.shape[0]) - starts[row_s]
        keep = np.zeros(a.shape[0], dtype=bool)
        np.logical_or.at(keep, eid_s, rank < k)
        keep |= np.isin(key, backbone_key)
        a, b, w = a[keep], b[keep], w[keep]

    graph = _edges_to_csr(n, a, b, w)
    GLOBAL_METRICS.counter("minimax.sparse.edges").inc(graph.n_edges)
    return graph


def _chunk_reduceat(values: np.ndarray, starts: np.ndarray, op) -> np.ndarray:
    """Segmented reduction of ``values`` at ``starts`` along axis 0."""
    return op.reduceat(values, starts, axis=0)


def _spill_overloaded(
    graph: ProximityGraph, assign: np.ndarray, n_disks: int, cap: int
) -> int:
    """Move least-attached buckets off overloaded disks until all fit ``cap``.

    A bucket's *attachment* is its maximum proximity to a same-disk
    neighbour in the sparse graph; spilling the least-attached buckets
    first is the cheapest way (under the minimax objective) to restore
    balance.  Each spilled bucket lands on the neighbouring disk with
    capacity that minimises its new maximum same-disk proximity (a disk
    with no graph neighbours costs 0 and wins).  Deterministic; returns
    the number of buckets moved.
    """
    n = assign.shape[0]
    load = np.bincount(assign, minlength=n_disks)
    if load.max() <= cap:
        return 0
    u_of_edge = np.repeat(np.arange(n), np.diff(graph.indptr))
    same = assign[u_of_edge] == assign[graph.indices]
    cost = np.zeros(n)
    np.maximum.at(cost, u_of_edge[same], graph.weights[same])

    moved = 0
    # Least-attached first; ties by bucket id (stable argsort).
    by_cost = np.argsort(cost, kind="stable")
    scratch = np.empty(n_disks)
    for u in by_cost:
        src = int(assign[u])
        if load[src] <= cap:
            continue
        nbr, w = graph.neighbors(int(u))
        scratch[:] = 0.0
        np.maximum.at(scratch, assign[nbr], w)
        cand = np.where(load < cap, scratch, np.inf)
        cand[src] = np.inf
        dst = int(np.argmin(cand))
        if not np.isfinite(cand[dst]):
            continue  # every other disk is full; a later spill frees room
        assign[u] = dst
        load[src] -= 1
        load[dst] += 1
        moved += 1
        if load.max() <= cap:
            break
    return moved


def _refine_sparse(
    graph: ProximityGraph,
    assign: np.ndarray,
    n_disks: int,
    cap: int,
    passes: int,
    budget: int,
) -> int:
    """Budgeted local search on the sparse graph (minimax objective proxy).

    Per pass: compute every bucket's cost (max proximity to a same-disk
    neighbour), then walk the costliest candidates and move each to the
    neighbouring disk with capacity that strictly lowers its cost.  The
    per-candidate decision re-reads the live assignment, so moves within a
    pass compose correctly; the pass-level cost array only orders
    candidates.  Stops at ``budget`` total moves or when a pass moves
    nothing.  Returns the number of moves applied.
    """
    n = assign.shape[0]
    if budget <= 0 or passes <= 0:
        return 0
    load = np.bincount(assign, minlength=n_disks)
    u_of_edge = np.repeat(np.arange(n), np.diff(graph.indptr))
    scratch = np.empty(n_disks)
    total_moves = 0
    for _ in range(passes):
        nbr_disk = assign[graph.indices]
        same = assign[u_of_edge] == nbr_disk
        cost = np.zeros(n)
        np.maximum.at(cost, u_of_edge[same], graph.weights[same])
        # Costliest first; examine at most 2x the remaining budget so a
        # tight budget stays cheap even on huge graphs.
        candidates = np.argsort(-cost, kind="stable")
        candidates = candidates[cost[candidates] > 0.0][: 2 * (budget - total_moves)]
        pass_moves = 0
        for u in candidates:
            if total_moves >= budget:
                break
            u = int(u)
            src = int(assign[u])
            nbr, w = graph.neighbors(u)
            scratch[:] = 0.0
            np.maximum.at(scratch, assign[nbr], w)
            cur = scratch[src]
            if cur <= 0.0:
                continue  # an earlier move already detached this bucket
            cand = np.where(load + 1 <= cap, scratch, np.inf)
            cand[src] = np.inf
            dst = int(np.argmin(cand))
            if cand[dst] < cur:
                assign[u] = dst
                load[src] -= 1
                load[dst] += 1
                total_moves += 1
                pass_moves += 1
        if pass_moves == 0 or total_moves >= budget:
            break
    return total_moves


def scalable_minimax_partition(
    lo: np.ndarray,
    hi: np.ndarray,
    lengths: np.ndarray,
    n_disks: int,
    rng=None,
    *,
    weight: str = "proximity",
    seeding: str = "random",
    dense_threshold: int = DEFAULT_DENSE_THRESHOLD,
    chunk: "int | None" = None,
    window: int = DEFAULT_WINDOW,
    k: "int | None" = None,
    curves: "tuple[str, ...]" = DEFAULT_CURVES,
    balance_slack: int = 1,
    refine_passes: int = 2,
    refine_budget: "int | None" = None,
    graph: "ProximityGraph | None" = None,
) -> np.ndarray:
    """Approximate minimax partition scaling to millions of boxes.

    Parameters
    ----------
    lo, hi, lengths, n_disks, rng, weight, seeding:
        As for :func:`repro.core.minimax.minimax_partition`.
    dense_threshold:
        At or below this many boxes the exact dense algorithm runs
        unchanged — the result is bit-for-bit identical to
        ``minimax_partition`` (set 0 to force the sparse path, e.g. in
        tests).
    chunk:
        Boxes per super-node for the coarse pass.  Default sizes chunks so
        the coarse graph has at most ``_MAX_COARSE`` nodes.
    window, k, curves:
        Sparse-graph knobs (see :func:`knn_graph`).
    balance_slack:
        Allowed excess over ``⌈N/M⌉`` boxes per disk (default 1).  The
        spill pass enforces the cap exactly; refinement respects it.
    refine_passes, refine_budget:
        Local-search budget: at most ``refine_budget`` single-bucket moves
        (default ``max(256, N // 16)``) over at most ``refine_passes``
        sweeps.
    graph:
        Optional prebuilt :class:`ProximityGraph` (e.g. shared across the
        disk counts of a sweep).

    Returns
    -------
    numpy.ndarray
        ``(n,)`` disk ids; every disk receives at most
        ``⌈n/M⌉ + balance_slack`` boxes.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = lo.shape[0]
    m = check_positive_int(n_disks, "n_disks")
    if dense_threshold < 0:
        raise ValueError(f"dense_threshold must be >= 0, got {dense_threshold}")
    if balance_slack < 0:
        raise ValueError(f"balance_slack must be >= 0, got {balance_slack}")
    if n <= max(dense_threshold, m) or n <= 2:
        return minimax_partition(lo, hi, lengths, m, rng=rng, weight=weight, seeding=seeding)
    rng = as_rng(rng)

    with PROFILER.phase("minimax.sparse.graph"):
        primary_order = sfc_order(lo, hi, curves[0])
        if graph is None:
            graph = knn_graph(
                lo, hi, lengths, window=window, k=k, curves=curves, weight=weight
            )
        elif graph.n != n:
            raise ValueError(f"graph has {graph.n} nodes, expected {n}")

    with PROFILER.phase("minimax.sparse.coarse"):
        if chunk is None:
            chunk = max(1, -(-n // _MAX_COARSE))
        else:
            chunk = check_positive_int(chunk, "chunk")
        n_chunks = -(-n // chunk)
        # Even chunking along the primary curve order: sizes differ by <= 1.
        groups = np.array_split(primary_order, n_chunks)
        sizes = np.array([g.shape[0] for g in groups], dtype=np.int64)
        starts = np.zeros(n_chunks, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        super_lo = _chunk_reduceat(lo[primary_order], starts, np.minimum)
        super_hi = _chunk_reduceat(hi[primary_order], starts, np.maximum)
        GLOBAL_METRICS.counter("minimax.sparse.chunks").inc(n_chunks)
        coarse = minimax_partition(
            super_lo, super_hi, lengths, min(m, n_chunks), rng=rng,
            weight=weight, seeding=seeding,
        )
        assign = np.empty(n, dtype=np.int64)
        chunk_of = np.empty(n, dtype=np.int64)
        for ci, g in enumerate(groups):
            assign[g] = coarse[ci]
            chunk_of[g] = ci

    with PROFILER.phase("minimax.sparse.refine"):
        cap = -(-n // m) + balance_slack
        spilled = _spill_overloaded(graph, assign, m, cap)
        if refine_budget is None:
            refine_budget = max(256, n // 16)
        moves = _refine_sparse(graph, assign, m, cap, refine_passes, refine_budget)
        GLOBAL_METRICS.counter("minimax.sparse.spill_moves").inc(spilled)
        GLOBAL_METRICS.counter("minimax.sparse.refine_moves").inc(moves)
    return assign


def _region_blocks(source, block: int):
    """Yield ``(lo, hi)`` region blocks plus domain lengths from a source.

    Accepts a :class:`GridFile` (or anything with ``buckets`` + ``scales``,
    e.g. the live file of a :class:`DurableGridFile` which is unwrapped via
    its ``gf`` attribute) and streams bucket regions ``block`` buckets at a
    time — the full region arrays are accumulated (O(N·d)), but no
    intermediate all-buckets Python list and never any pairwise weights.
    """
    gf = getattr(source, "gf", source)
    buckets = gf.buckets
    scales = gf.scales
    for s in range(0, len(buckets), block):
        chunk = buckets[s : s + block]
        cell_lo = np.stack([b.cellbox.lo for b in chunk])
        cell_hi = np.stack([b.cellbox.hi for b in chunk])
        yield scales.box_bounds(cell_lo, cell_hi)


def bulk_assign(
    source,
    n_disks: int,
    rng=None,
    *,
    block: int = 65536,
    **kwargs,
) -> np.ndarray:
    """Streaming bulk-load declustering of a grid file.

    Streams bucket regions out of ``source`` (a
    :class:`~repro.gridfile.gridfile.GridFile`, a
    :class:`~repro.storage.gridstore.DurableGridFile`, or any object with
    ``buckets`` and ``scales``) in blocks of ``block`` buckets, then runs
    :func:`scalable_minimax_partition` over the non-empty buckets —
    O(N·k + C²) memory end to end, no dense weight matrix at any point.
    Empty buckets are dealt round-robin (they occupy no disk page).

    Keyword arguments are forwarded to :func:`scalable_minimax_partition`.
    """
    gf = getattr(source, "gf", source)
    check_positive_int(block, "block")
    with PROFILER.phase("minimax.sparse.bulkload"):
        parts = list(_region_blocks(gf, block))
        lo = np.concatenate([p[0] for p in parts])
        hi = np.concatenate([p[1] for p in parts])
    nonempty = gf.nonempty_bucket_ids()
    n = lo.shape[0]
    part = scalable_minimax_partition(
        np.ascontiguousarray(lo[nonempty]),
        np.ascontiguousarray(hi[nonempty]),
        gf.scales.lengths,
        min(n_disks, max(1, nonempty.size)),
        rng=rng,
        **kwargs,
    )
    assignment = np.zeros(n, dtype=np.int64)
    assignment[nonempty] = part
    empty = np.setdiff1d(np.arange(n), nonempty, assume_unique=False)
    assignment[empty] = np.arange(empty.size) % n_disks
    return validate_assignment(assignment, n, n_disks)


class ScalableMinimax(DeclusteringMethod):
    """Hierarchical approximate minimax (the large-N production path).

    Drop-in :class:`~repro.core.base.DeclusteringMethod`: identical to
    :class:`~repro.core.minimax.Minimax` at or below ``dense_threshold``
    non-empty buckets (bit-for-bit — it delegates to the same code), and
    the coarsen-partition-refine approximation above it.  Registry spec
    ``"sminimax"`` (``"sminimax:euclidean"`` for the ablation weight).

    Parameters mirror :func:`scalable_minimax_partition`.
    """

    name = "SMiniMax"

    def __init__(
        self,
        weight: str = "proximity",
        seeding: str = "random",
        dense_threshold: int = DEFAULT_DENSE_THRESHOLD,
        chunk: "int | None" = None,
        window: int = DEFAULT_WINDOW,
        k: "int | None" = None,
        curves: "tuple[str, ...]" = DEFAULT_CURVES,
        balance_slack: int = 1,
        refine_passes: int = 2,
        refine_budget: "int | None" = None,
    ):
        if weight not in _WEIGHTS:
            raise ValueError(f"unknown weight {weight!r}")
        self.weight = weight
        self.seeding = seeding
        self.dense_threshold = int(dense_threshold)
        self.chunk = chunk
        self.window = window
        self.k = k
        self.curves = tuple(curves)
        self.balance_slack = balance_slack
        self.refine_passes = refine_passes
        self.refine_budget = refine_budget
        if weight != "proximity":
            self.name = f"SMiniMax[{weight}]"

    def assign(self, gf, n_disks: int, rng=None) -> np.ndarray:
        rng = as_rng(rng)
        return bulk_assign(
            gf,
            n_disks,
            rng=rng,
            weight=self.weight,
            seeding=self.seeding,
            dense_threshold=self.dense_threshold,
            chunk=self.chunk,
            window=self.window,
            k=self.k,
            curves=self.curves,
            balance_slack=self.balance_slack,
            refine_passes=self.refine_passes,
            refine_budget=self.refine_budget,
        )
