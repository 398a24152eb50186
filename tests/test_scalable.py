"""Tests for the scalable (approximate) minimax path (`repro.core.scalable`).

Three layers of guarantees:

* **Parity** — at or below ``dense_threshold`` the scalable entry points
  are bit-for-bit the exact dense algorithm (same code runs).
* **Quality** — forced onto the sparse hierarchical path at small N, the
  approximate partition's summed response time ``Σ_q max_i N_i(q)`` stays
  within an asserted worst-case ratio of the exact-minimax oracle.
* **Structure** — hypothesis property tests for the k-NN proximity graph
  (symmetry, no self-edges, connectivity with and without top-k pruning)
  and the balance cap ``⌈N/M⌉ + slack`` of the hierarchical partition.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScalableMinimax, bulk_assign, make_method
from repro.core.minimax import Minimax, minimax_partition
from repro.core.scalable import (
    knn_graph,
    scalable_minimax_partition,
    sfc_order,
)
from repro.obs import GLOBAL_METRICS
from repro.sim import evaluate_queries, square_queries

L2 = np.array([10.0, 10.0])


def random_boxes(n, rng, d=2, side=10.0):
    lo = rng.uniform(0, side * 0.9, size=(n, d))
    hi = np.minimum(lo + rng.uniform(0.01, side * 0.1, size=(n, d)), side)
    return lo, hi


# --------------------------------------------------------------- SFC order


class TestSfcOrder:
    def test_is_a_permutation(self, rng):
        lo, hi = random_boxes(100, rng)
        order = sfc_order(lo, hi)
        assert sorted(order.tolist()) == list(range(100))

    def test_deterministic(self, rng):
        lo, hi = random_boxes(50, rng)
        assert np.array_equal(sfc_order(lo, hi), sfc_order(lo, hi))

    def test_locality(self):
        # Boxes along a line come out in (possibly reversed) line order.
        n = 32
        lo = np.stack([np.arange(n, dtype=float) * 0.3, np.ones(n)], axis=1)
        hi = lo + 0.2
        order = sfc_order(lo, hi)
        if order[0] > order[-1]:
            order = order[::-1]
        assert np.array_equal(order, np.arange(n))

    def test_unknown_curve(self, rng):
        lo, hi = random_boxes(10, rng)
        with pytest.raises(ValueError, match="unknown curve"):
            sfc_order(lo, hi, curve="peano")

    def test_empty(self):
        assert sfc_order(np.empty((0, 2)), np.empty((0, 2))).size == 0


# --------------------------------------------------------------- k-NN graph


def _adjacency(graph):
    adj = {}
    for u in range(graph.n):
        nbr, _ = graph.neighbors(u)
        adj[u] = set(int(v) for v in nbr)
    return adj


def _is_connected(graph):
    if graph.n == 0:
        return True
    seen = np.zeros(graph.n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        nbr, _ = graph.neighbors(u)
        for v in nbr:
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


class TestKnnGraph:
    def test_shape_and_weights(self, rng):
        lo, hi = random_boxes(200, rng)
        g = knn_graph(lo, hi, L2, window=3)
        assert g.n == 200
        assert g.indices.shape == g.weights.shape
        assert (g.weights > 0).all() and (g.weights <= 1.0).all()

    def test_symmetric_no_self_edges(self, rng):
        lo, hi = random_boxes(150, rng)
        adj = _adjacency(knn_graph(lo, hi, L2))
        for u, nbrs in adj.items():
            assert u not in nbrs
            for v in nbrs:
                assert u in adj[v]

    def test_connected(self, rng):
        lo, hi = random_boxes(300, rng)
        assert _is_connected(knn_graph(lo, hi, L2, window=1, curves=("hilbert",)))

    def test_topk_pruning_keeps_backbone_connected(self, rng):
        lo, hi = random_boxes(300, rng)
        g = knn_graph(lo, hi, L2, window=6, k=2)
        full = knn_graph(lo, hi, L2, window=6)
        assert g.n_edges < full.n_edges
        assert _is_connected(g)

    def test_weights_match_proximity(self, rng):
        from repro.core.proximity import proximity_index

        lo, hi = random_boxes(60, rng)
        g = knn_graph(lo, hi, L2)
        for u in (0, 17, 59):
            nbr, w = g.neighbors(u)
            want = proximity_index(lo[u], hi[u], lo[nbr], hi[nbr], L2)
            assert np.allclose(w, want)

    def test_validation(self, rng):
        lo, hi = random_boxes(10, rng)
        with pytest.raises(ValueError, match="unknown weight"):
            knn_graph(lo, hi, L2, weight="cosine")
        with pytest.raises(ValueError, match="window"):
            knn_graph(lo, hi, L2, window=0)
        with pytest.raises(ValueError, match="at least one curve"):
            knn_graph(lo, hi, L2, curves=())

    def test_tiny_inputs(self):
        g = knn_graph(np.empty((0, 2)), np.empty((0, 2)), L2)
        assert g.n == 0 and g.n_edges == 0
        one = knn_graph(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), L2)
        assert one.n == 1 and one.n_edges == 0

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        window=st.integers(min_value=1, max_value=5),
        k=st.none() | st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_properties_hold_for_random_inputs(self, n, window, k, seed):
        """Symmetry, no self-edges and connectivity on arbitrary box sets."""
        rng = np.random.default_rng(seed)
        lo, hi = random_boxes(n, rng)
        g = knn_graph(lo, hi, L2, window=window, k=k)
        adj = _adjacency(g)
        for u, nbrs in adj.items():
            assert u not in nbrs
            for v in nbrs:
                assert u in adj[v]
        assert _is_connected(g)


# ------------------------------------------------- hierarchical partition


class TestDenseFallback:
    def test_bit_for_bit_below_threshold(self, rng):
        lo, hi = random_boxes(400, rng)
        got = scalable_minimax_partition(lo, hi, L2, 8, rng=7)
        want = minimax_partition(lo, hi, L2, 8, rng=7)
        assert np.array_equal(got, want)

    def test_method_matches_minimax_below_threshold(self, small_gridfile):
        a = ScalableMinimax().assign(small_gridfile, 8, rng=0)
        b = Minimax().assign(small_gridfile, 8, rng=0)
        assert np.array_equal(a, b)

    def test_more_disks_than_boxes(self, rng):
        lo, hi = random_boxes(3, rng)
        out = scalable_minimax_partition(lo, hi, L2, 10, rng=rng, dense_threshold=0)
        assert sorted(out.tolist()) == [0, 1, 2]

    def test_empty(self):
        out = scalable_minimax_partition(np.empty((0, 2)), np.empty((0, 2)), L2, 4)
        assert out.size == 0


class TestSparsePath:
    def test_balance_cap(self, rng):
        lo, hi = random_boxes(997, rng)
        for m in (4, 7, 16):
            out = scalable_minimax_partition(
                lo, hi, L2, m, rng=rng, dense_threshold=0, chunk=16
            )
            counts = np.bincount(out, minlength=m)
            assert counts.max() <= -(-997 // m) + 1, (m, counts)

    def test_all_disks_used(self, rng):
        lo, hi = random_boxes(600, rng)
        out = scalable_minimax_partition(lo, hi, L2, 8, rng=1, dense_threshold=0, chunk=8)
        assert set(out.tolist()) == set(range(8))

    def test_deterministic(self, rng):
        lo, hi = random_boxes(500, rng)
        a = scalable_minimax_partition(lo, hi, L2, 8, rng=3, dense_threshold=0, chunk=8)
        b = scalable_minimax_partition(lo, hi, L2, 8, rng=3, dense_threshold=0, chunk=8)
        assert np.array_equal(a, b)

    def test_validation(self, rng):
        lo, hi = random_boxes(50, rng)
        with pytest.raises(ValueError, match="dense_threshold"):
            scalable_minimax_partition(lo, hi, L2, 4, dense_threshold=-1)
        with pytest.raises(ValueError, match="balance_slack"):
            scalable_minimax_partition(lo, hi, L2, 4, balance_slack=-1)
        with pytest.raises(ValueError, match="graph has"):
            g = knn_graph(lo[:20], hi[:20], L2)
            scalable_minimax_partition(
                lo, hi, L2, 4, dense_threshold=0, graph=g
            )

    def test_emits_metrics(self, rng):
        lo, hi = random_boxes(300, rng)
        edges = GLOBAL_METRICS.counter("minimax.sparse.edges").value
        chunks = GLOBAL_METRICS.counter("minimax.sparse.chunks").value
        scalable_minimax_partition(lo, hi, L2, 4, rng=0, dense_threshold=0, chunk=8)
        assert GLOBAL_METRICS.counter("minimax.sparse.edges").value > edges
        assert GLOBAL_METRICS.counter("minimax.sparse.chunks").value > chunks


class TestQualityVsOracle:
    """Approximate partition vs the exact-minimax oracle on max_i N_i(q)."""

    def test_response_ratio_small_n(self, small_gridfile):
        gf = small_gridfile
        disks = 8
        queries = square_queries(150, 0.05, [0, 0], [2000, 2000], rng=11)
        exact = Minimax().assign(gf, disks, rng=5)
        approx = ScalableMinimax(dense_threshold=0, chunk=4).assign(gf, disks, rng=5)
        ev_exact = evaluate_queries(gf, exact, queries, disks)
        ev_approx = evaluate_queries(gf, approx, queries, disks)
        ratio = ev_approx.mean_response / ev_exact.mean_response
        # Worst-case quality gate: the hierarchical approximation must stay
        # within 35% of the exact oracle on this workload (it is typically
        # far closer; the bench tracks the exact frontier).
        assert ratio <= 1.35, ratio

    def test_response_ratio_synthetic(self, rng):
        lo, hi = random_boxes(800, rng)
        disks = 16
        exact = minimax_partition(lo, hi, L2, disks, rng=2)
        approx = scalable_minimax_partition(
            lo, hi, L2, disks, rng=2, dense_threshold=0, chunk=16
        )
        # Proxy objective: pairwise same-disk proximity mass should not
        # blow up relative to exact minimax.
        from repro.core.proximity import proximity_matrix

        w = proximity_matrix(lo, hi, L2)
        np.fill_diagonal(w, 0.0)
        mass_exact = sum(
            w[np.ix_(exact == d, exact == d)].sum() for d in range(disks)
        )
        mass_approx = sum(
            w[np.ix_(approx == d, approx == d)].sum() for d in range(disks)
        )
        assert mass_approx <= 2.0 * mass_exact


# ------------------------------------------------------------- bulk load


class TestBulkAssign:
    def test_matches_method(self, small_gridfile):
        a = bulk_assign(small_gridfile, 8, rng=0)
        b = ScalableMinimax().assign(small_gridfile, 8, rng=0)
        assert np.array_equal(a, b)

    def test_small_blocks_identical(self, small_gridfile):
        a = bulk_assign(small_gridfile, 8, rng=0, block=7)
        b = bulk_assign(small_gridfile, 8, rng=0, block=65536)
        assert np.array_equal(a, b)

    def test_registry_spec(self, small_gridfile):
        m = make_method("sminimax")
        assert m.name == "SMiniMax"
        a = m.assign(small_gridfile, 8, rng=0)
        ne = small_gridfile.nonempty_bucket_ids()
        assert np.bincount(a[ne], minlength=8).max() <= -(-ne.size // 8) + 1

    def test_registry_euclidean_option(self):
        assert "euclidean" in make_method("sminimax:euclidean").name

    def test_rejects_conflict_letter(self):
        with pytest.raises(ValueError):
            make_method("sminimax/D")


# --------------------------------------------------------- large-N smoke


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_SCALE_SMOKE") == "1",
    reason="large-N smoke disabled",
)
def test_100k_bucket_smoke():
    """100k boxes decluster through the sparse path under a wall ceiling.

    The ceiling is deliberately generous (CI hosts vary); the point is to
    catch an accidental reintroduction of O(N²) work or memory, which
    would blow minutes past it.
    """
    rng = np.random.default_rng(1996)
    n, m = 100_000, 16
    lo = rng.uniform(0, 99, size=(n, 2))
    hi = np.minimum(lo + rng.uniform(0.01, 0.2, size=(n, 2)), 100.0)
    t0 = time.perf_counter()
    out = scalable_minimax_partition(lo, hi, np.array([100.0, 100.0]), m, rng=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"100k-bucket partition took {elapsed:.1f}s"
    counts = np.bincount(out, minlength=m)
    assert counts.max() <= -(-n // m) + 1
