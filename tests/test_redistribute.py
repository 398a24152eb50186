"""Tests for incremental redeclustering (farm expansion)."""

import hashlib

import numpy as np
import pytest

from repro.core import (
    Minimax,
    bounded_reconcile,
    min_proximity_steal,
    minimax_expand,
    movement_fraction,
)
from repro.datasets import build_gridfile, load
from repro.sim import evaluate_queries, square_queries

L2 = np.array([10.0, 10.0])


def random_boxes(n, rng):
    lo = rng.uniform(0, 9, size=(n, 2))
    hi = lo + rng.uniform(0.05, 0.8, size=(n, 2))
    return lo, np.minimum(hi, 10.0)


class TestMovementFraction:
    def test_identical(self):
        a = np.array([0, 1, 2])
        assert movement_fraction(a, a) == 0.0

    def test_all_moved(self):
        assert movement_fraction(np.array([0, 0]), np.array([1, 1])) == 1.0

    def test_sizes_filter(self):
        old = np.array([0, 0, 1])
        new = np.array([0, 1, 1])
        assert movement_fraction(old, new, sizes=np.array([1, 0, 1])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            movement_fraction(np.array([0]), np.array([0, 1]))


class TestMinimaxExpand:
    def test_balance_restored(self, rng):
        n = 60
        lo, hi = random_boxes(n, rng)
        old = Minimax().name and np.arange(n) % 4  # balanced over 4 disks
        new = minimax_expand(lo, hi, L2, old, 4, 6, rng=rng)
        counts = np.bincount(new, minlength=6)
        assert counts.max() <= -(-n // 6)
        assert counts.min() >= 1

    def test_minimal_movement(self, rng):
        """Only ~ (M_new - M_old)/M_new of the buckets move."""
        n = 120
        lo, hi = random_boxes(n, rng)
        old = np.arange(n) % 8
        new = minimax_expand(lo, hi, L2, old, 8, 10, rng=rng)
        moved = movement_fraction(old, new)
        assert moved <= (10 - 8) / 10 + 0.05
        # Unmoved buckets keep their disk exactly.
        stayed = new[new < 8]
        assert stayed.size >= n * 0.75

    def test_new_disks_only_gain(self, rng):
        n = 50
        lo, hi = random_boxes(n, rng)
        old = np.arange(n) % 5
        new = minimax_expand(lo, hi, L2, old, 5, 8, rng=rng)
        # Buckets either stayed or moved to a brand-new disk.
        moved_to = np.unique(new[new != old])
        assert (moved_to >= 5).all()

    def test_quality_close_to_scratch(self, small_gridfile):
        """Expanded assignment responds within ~15% of a from-scratch
        minimax at the new size."""
        gf = small_gridfile
        queries = square_queries(300, 0.05, [0, 0], [2000, 2000], rng=5)
        old = Minimax().assign(gf, 8, rng=0)
        lo, hi = gf.bucket_regions()
        expanded = minimax_expand(lo, hi, gf.scales.lengths, old, 8, 12, rng=0)
        scratch = Minimax().assign(gf, 12, rng=0)
        ev_exp = evaluate_queries(gf, expanded, queries, 12)
        ev_scr = evaluate_queries(gf, scratch, queries, 12)
        assert ev_exp.mean_response <= ev_scr.mean_response * 1.15
        # And strictly better than not expanding at all.
        ev_old = evaluate_queries(gf, old, queries, 12)
        assert ev_exp.mean_response < ev_old.mean_response

    def test_validation(self, rng):
        lo, hi = random_boxes(10, rng)
        with pytest.raises(ValueError):
            minimax_expand(lo, hi, L2, np.zeros(10, dtype=int), 4, 4)
        with pytest.raises(ValueError):
            minimax_expand(lo, hi, L2, np.full(10, 9), 4, 6)

    def test_empty(self):
        out = minimax_expand(np.empty((0, 2)), np.empty((0, 2)), L2, np.empty(0, dtype=int), 2, 4)
        assert out.size == 0

    def test_deterministic(self, rng):
        lo, hi = random_boxes(40, rng)
        old = np.arange(40) % 4
        a = minimax_expand(lo, hi, L2, old, 4, 7, rng=11)
        b = minimax_expand(lo, hi, L2, old, 4, 7, rng=11)
        assert np.array_equal(a, b)


class TestMinimaxExpandRegression:
    """Pins the two guarantees downstream code relies on.

    The online reorganization path and ``bench_ext_expand.py`` both assume
    that expansion (a) moves exactly the balanced minimum — no bucket moves
    unless quota forces it — and (b) restores balance to ``⌈N/M_new⌉``.
    These pins fail loudly if a refactor of the steal loop relaxes either.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_movement_is_the_balanced_minimum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 150))
        m_old = int(rng.integers(2, 8))
        m_new = m_old + int(rng.integers(1, 6))
        lo = rng.uniform(0, 9, size=(n, 2))
        hi = np.minimum(lo + rng.uniform(0.05, 0.8, size=(n, 2)), 10.0)
        old = np.arange(n) % m_old
        new = minimax_expand(lo, hi, L2, old, m_old, m_new, rng=seed)
        quota = -(-n // m_new)
        # Minimal moves to reach quota balance: every old disk keeps at most
        # ``quota`` buckets, the excess must go somewhere new.
        counts_old = np.bincount(old, minlength=m_old)
        lower_bound = n - int(np.minimum(counts_old, quota).sum())
        assert int((old != new).sum()) == lower_bound
        assert movement_fraction(old, new) == lower_bound / n

    @pytest.mark.parametrize("seed", range(6))
    def test_post_expansion_balance_within_quota(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(30, 150))
        m_old = int(rng.integers(2, 8))
        m_new = m_old + int(rng.integers(1, 6))
        lo = rng.uniform(0, 9, size=(n, 2))
        hi = np.minimum(lo + rng.uniform(0.05, 0.8, size=(n, 2)), 10.0)
        old = np.arange(n) % m_old
        new = minimax_expand(lo, hi, L2, old, m_old, m_new, rng=seed)
        counts = np.bincount(new, minlength=m_new)
        assert counts.max() <= -(-n // m_new)
        # Moves go exclusively to the new disks; old disks only shed load.
        assert (new[new != old] >= m_old).all()


#: sha256 over the int64 bytes of ``minimax_expand`` growing a seed-1996
#: minimax layout from 8 to 12 disks, on every bucket region of the grid file
#: ``build_gridfile(load(name, rng=1996))``.  Any change to the steal loop or
#: its proximity rows that moves a single bucket breaks the pin.
EXPAND_GOLDEN = {
    "hot.2d": "8d9c7b005c6b514e68e65c2bc5aa1d6fbc390edf1b80bcdebefbf7b61e69aee5",
    "dsmc.3d": "48f7048ae6d5bea6dd406051c1eff005e434c1281f7b6b98579b6b5e417b78b0",
    "stock.3d": "5d10cc5196968c3c8198ae35a1ee6ea3f8ef9b6365379667f7360224722180ba",
}


@pytest.mark.parametrize("name", sorted(EXPAND_GOLDEN))
def test_minimax_expand_byte_identical_on_grid_file(name):
    gf = build_gridfile(load(name, rng=1996))
    lo, hi = gf.bucket_regions()
    old = Minimax().assign(gf, 8, rng=1996)
    new = minimax_expand(lo, hi, gf.scales.lengths, old, 8, 12, rng=1996)
    blob = np.ascontiguousarray(new, dtype=np.int64).tobytes()
    assert hashlib.sha256(blob).hexdigest() == EXPAND_GOLDEN[name]


class TestBoundedReconcile:
    def test_zero_budget_moves_nothing_nonempty(self):
        old = np.array([0, 0, 1, 1])
        new = np.array([1, 1, 0, 0])
        out, moved = bounded_reconcile(old, new, 0.0)
        assert np.array_equal(out, old)
        assert moved.size == 0

    def test_full_budget_reaches_target(self):
        old = np.array([0, 0, 0, 1, 1, 2])
        new = np.array([2, 1, 0, 0, 1, 2])
        out, moved = bounded_reconcile(old, new, 1.0)
        assert np.array_equal(out, new)
        assert sorted(moved.tolist()) == [0, 1, 3]

    def test_budget_caps_moves_and_relieves_hottest_disk(self):
        # Disk 0 holds four buckets, all wanting to leave; budget pays for 2.
        old = np.array([0, 0, 0, 0, 1, 2])
        new = np.array([1, 2, 1, 2, 1, 2])
        out, moved = bounded_reconcile(old, new, 2 / 6)
        assert moved.size == 2
        # Greedy relief: both paid moves come off the overloaded disk 0.
        assert (old[moved] == 0).all()
        assert (out[moved] == new[moved]).all()

    def test_empty_buckets_are_free(self):
        old = np.array([0, 0, 1])
        new = np.array([1, 2, 0])
        sizes = np.array([5, 0, 0])
        out, moved = bounded_reconcile(old, new, 0.0, sizes=sizes)
        # Buckets 1 and 2 are empty: adopted for free, never in ``moved``.
        assert np.array_equal(out, np.array([0, 2, 0]))
        assert moved.size == 0

    def test_validation_and_empty(self):
        with pytest.raises(ValueError):
            bounded_reconcile(np.array([0]), np.array([0, 1]), 0.5)
        with pytest.raises(ValueError):
            bounded_reconcile(np.array([0]), np.array([1]), -0.1)
        out, moved = bounded_reconcile(
            np.empty(0, dtype=int), np.empty(0, dtype=int), 1.0
        )
        assert out.size == 0 and moved.size == 0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        old = rng.integers(0, 4, size=40)
        new = rng.integers(0, 4, size=40)
        sizes = rng.integers(0, 3, size=40)
        a = bounded_reconcile(old, new, 0.3, sizes=sizes)
        b = bounded_reconcile(old, new, 0.3, sizes=sizes)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestMinProximitySteal:
    def test_picks_least_proximal_candidate(self, rng):
        lo, hi = random_boxes(10, rng)
        # Candidate far from every anchor wins over near ones.
        lo[3] = [0.0, 0.0]
        hi[3] = [0.1, 0.1]
        lo[7] = [8.9, 8.9]
        hi[7] = [9.0, 9.0]
        anchors = np.array([7])
        got = min_proximity_steal(lo, hi, L2, np.array([3, 7]), anchors)
        assert got == 3

    def test_no_anchors_returns_lowest_candidate(self, rng):
        lo, hi = random_boxes(5, rng)
        got = min_proximity_steal(
            lo, hi, L2, np.array([4, 2]), np.empty(0, dtype=int)
        )
        assert got == 2

    def test_no_candidates_raises(self, rng):
        lo, hi = random_boxes(5, rng)
        with pytest.raises(ValueError):
            min_proximity_steal(lo, hi, L2, np.empty(0, dtype=int), np.array([0]))
