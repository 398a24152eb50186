"""Tests for parallel R-tree declustering."""

import numpy as np
import pytest

from repro.rtree import (
    RTree,
    evaluate_rtree_queries,
    hilbert_leaf_assignment,
    leaf_regions,
    minimax_leaf_assignment,
    ssp_leaf_assignment,
)
from repro.sim import square_queries


@pytest.fixture(scope="module")
def tree():
    rng = np.random.default_rng(0)
    pts = np.concatenate(
        [rng.uniform(0, 1, (2000, 2)), np.clip(rng.normal(0.5, 0.07, (2000, 2)), 0, 1)]
    )
    return RTree.bulk_load(pts, max_entries=40)


class TestLeafRegions:
    def test_shapes(self, tree):
        lo, hi, lengths = leaf_regions(tree)
        n = tree.n_leaves
        assert lo.shape == hi.shape == (n, 2)
        assert (hi >= lo).all()
        assert lengths.shape == (2,)

    def test_empty_tree(self):
        lo, hi, lengths = leaf_regions(RTree(2))
        assert lo.shape == (0, 2)


class TestAssignments:
    @pytest.mark.parametrize(
        "fn", [hilbert_leaf_assignment, minimax_leaf_assignment, ssp_leaf_assignment]
    )
    def test_valid_and_balanced(self, tree, fn):
        m = 8
        kwargs = {} if fn is hilbert_leaf_assignment else {"rng": 0}
        a = fn(tree, m, **kwargs)
        n = tree.n_leaves
        assert a.shape == (n,)
        counts = np.bincount(a, minlength=m)
        assert counts.max() <= -(-n // m) + (0 if fn is not minimax_leaf_assignment else 0)

    def test_hilbert_round_robin_exact(self, tree):
        a = hilbert_leaf_assignment(tree, 6)
        counts = np.bincount(a, minlength=6)
        assert counts.max() - counts.min() <= 1

    def test_empty_tree_assignments(self):
        t = RTree(2)
        assert hilbert_leaf_assignment(t, 4).size == 0
        assert minimax_leaf_assignment(t, 4, rng=0).size == 0
        assert ssp_leaf_assignment(t, 4, rng=0).size == 0


class TestEvaluation:
    def test_matches_manual_count(self, tree):
        m = 5
        a = hilbert_leaf_assignment(tree, m)
        queries = square_queries(40, 0.05, [0, 0], [1, 1], rng=1)
        ev = evaluate_rtree_queries(tree, a, queries, m)
        for qi, q in enumerate(queries):
            hit = tree.query_leaves(q.lo, q.hi)
            counts = np.zeros(m, dtype=int)
            for leaf in hit:
                counts[a[leaf]] += 1
            assert ev.response[qi] == counts.max()
            assert ev.buckets_touched[qi] == len(hit)

    def test_rejects_bad_assignment(self, tree):
        with pytest.raises(ValueError):
            evaluate_rtree_queries(tree, np.zeros(3, dtype=int), [], 4)

    def test_minimax_beats_hilbert_rr(self, tree):
        """The paper's algorithm wins on R-tree leaves too."""
        m = 16
        queries = square_queries(400, 0.01, [0, 0], [1, 1], rng=2)
        h = evaluate_rtree_queries(tree, hilbert_leaf_assignment(tree, m), queries, m)
        mm = evaluate_rtree_queries(
            tree, minimax_leaf_assignment(tree, m, rng=0), queries, m
        )
        assert mm.mean_response <= h.mean_response * 1.02
