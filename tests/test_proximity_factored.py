"""Factored proximity rows: per-dimension tables instead of the full formula.

:class:`FactoredProximity` must reproduce :func:`proximity_index` rows bit
for bit, because minimax's tie-breaking (first ``argmin``) turns the last
ulp of a weight into a different assignment.  Checked on real grid-file
regions, on sminimax's super-node boxes, and by a hypothesis property over
grid-aligned boxes; boxes the size rule rejects take full-formula rows.
Either way every row counts once in ``minimax.weight_rows`` and
``minimax.cache.misses``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.proximity as proximity
import repro.core.scalable as scalable
from repro.core.minimax import minimax_partition
from repro.core.proximity import (
    FactoredProximity,
    pairwise_rows,
    proximity_index,
    proximity_rows,
)
from repro.datasets import build_gridfile, load
from repro.obs import GLOBAL_METRICS


def assert_rows_bit_identical(lo, hi, lengths):
    """Every factored row equals the full-formula row, bit for bit."""
    fp = FactoredProximity.build(lo, hi, lengths)
    assert fp is not None
    full = pairwise_rows(proximity_index, lo, hi, lengths, 64)
    got = np.stack([fp.row(y) for y in range(lo.shape[0])])
    assert np.array_equal(got.view(np.int64), full.view(np.int64))


def nonempty_regions(name, **kw):
    gf = build_gridfile(load(name, rng=1996, **kw))
    lo, hi = gf.bucket_regions()
    ne = gf.nonempty_bucket_ids()
    return lo[ne], hi[ne], np.asarray(gf.scales.lengths, dtype=np.float64)


def counters():
    return (
        GLOBAL_METRICS.counter("minimax.cache.hits").value,
        GLOBAL_METRICS.counter("minimax.cache.misses").value,
        GLOBAL_METRICS.counter("minimax.weight_rows").value,
    )


@pytest.mark.parametrize(
    "name, kw", [("stock.3d", {}), ("dsmc.3d", {}), ("dsmc.4d", {"n": 40_000})]
)
def test_rows_match_formula_on_grid_file_regions(name, kw):
    lo, hi, lengths = nonempty_regions(name, **kw)
    assert_rows_bit_identical(lo, hi, lengths)


def test_rows_match_formula_on_sminimax_super_nodes(monkeypatch):
    """The coarse pass's chunk bounding boxes stay factorable and exact."""
    lo, hi, lengths = nonempty_regions("dsmc.4d", n=40_000)
    seen = []
    real = scalable.minimax_partition

    def spy(super_lo, super_hi, *args, **kwargs):
        seen.append((super_lo, super_hi))
        return real(super_lo, super_hi, *args, **kwargs)

    monkeypatch.setattr(scalable, "minimax_partition", spy)
    scalable.scalable_minimax_partition(lo, hi, lengths, 8, rng=0, dense_threshold=0, chunk=2)
    (super_lo, super_hi), = seen
    assert super_lo.shape[0] == -(-lo.shape[0] // 2)
    assert_rows_bit_identical(super_lo, super_hi, lengths)


@st.composite
def grid_aligned_boxes(draw):
    """Boxes whose edges all lie on a few per-dimension scale boundaries.

    At most 5 boundaries give at most 15 intervals per dimension, so with
    ``d <= 3`` and ``n >= 26`` boxes the size rule ``Σ U_j² <= n²`` holds.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(26, 60))
    lengths = np.empty(d)
    lo = np.empty((n, d))
    hi = np.empty((n, d))
    for j in range(d):
        cuts = draw(
            st.lists(st.floats(0.0, 100.0), min_size=2, max_size=5, unique=True).map(sorted)
        )
        lengths[j] = draw(st.floats(cuts[-1] - cuts[0] + 1.0, 500.0))
        ends = np.array(cuts)
        a = np.array(draw(st.lists(st.integers(0, len(cuts) - 1), min_size=n, max_size=n)))
        b = np.array(draw(st.lists(st.integers(0, len(cuts) - 1), min_size=n, max_size=n)))
        lo[:, j] = ends[np.minimum(a, b)]
        hi[:, j] = ends[np.maximum(a, b)]
    return lo, hi, lengths


@settings(max_examples=150, deadline=None)
@given(grid_aligned_boxes())
def test_factored_rows_property(boxes):
    lo, hi, lengths = boxes
    assert_rows_bit_identical(lo, hi, lengths)


def test_touching_overlapping_and_disjoint_branches():
    """One dimension exercising ``inter == 0``, ``inter > 0`` and ``inter < 0``."""
    cuts = [0.0, 1.5, 4.0, 7.25]
    pairs = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (3, 3)]
    lo = np.array([[cuts[a]] for a, _ in pairs] * 4)
    hi = np.array([[cuts[b]] for _, b in pairs] * 4)
    lengths = np.array([10.0])
    inter = np.minimum(hi[:, None, 0], hi[None, :, 0]) - np.maximum(lo[:, None, 0], lo[None, :, 0])
    assert (inter == 0).any() and (inter > 0).any() and (inter < 0).any()
    assert_rows_bit_identical(lo, hi, lengths)


def test_random_float_boxes_fail_the_size_rule():
    rng = np.random.default_rng(7)
    lo = rng.uniform(0, 9, size=(80, 3))
    hi = lo + rng.uniform(0.05, 1.0, size=(80, 3))
    assert FactoredProximity.build(lo, hi, [10.0] * 3) is None
    # The generic row source still answers, through the formula.
    row = proximity_rows(lo, hi, [10.0] * 3)(5)
    assert np.array_equal(row, proximity_index(lo[5], hi[5], lo, hi, [10.0] * 3))


def test_rejected_boxes_build_no_table(monkeypatch):
    """The rule is checked on all dimensions before any table is filled."""
    calls = []
    real = proximity._dim_factors

    def spy(*args):
        out = real(*args)
        calls.append(out.size)
        return out

    monkeypatch.setattr(proximity, "_dim_factors", spy)
    rng = np.random.default_rng(5)
    n, lengths = 200, [10.0] * 3
    lo = rng.uniform(0, 9, size=(n, 3))
    hi = lo + rng.uniform(0.05, 1.0, size=(n, 3))
    assert FactoredProximity.build(lo, hi, lengths) is None
    assert calls == []
    # The formula fallback only ever evaluates one (n, d) row at a time.
    minimax_partition(lo, hi, lengths, 4, rng=0)
    assert calls and max(calls) <= 4 * n


def test_tables_are_capped_by_bytes(monkeypatch):
    """One-dimensional boxes with all-distinct intervals keep an n×n table
    under the size rule alone; the fixed byte cap refuses larger tables."""
    n = 50
    lo = np.arange(n, dtype=np.float64)[:, None]
    hi = lo + 0.5
    expected = minimax_partition(lo, hi, [100.0], 4, rng=0)
    monkeypatch.setattr(proximity, "_MAX_TABLE_BYTES", 8 * n * n)
    assert FactoredProximity.build(lo, hi, [100.0]) is not None
    monkeypatch.setattr(proximity, "_MAX_TABLE_BYTES", 8 * n * n - 1)
    assert FactoredProximity.build(lo, hi, [100.0]) is None
    assert np.array_equal(minimax_partition(lo, hi, [100.0], 4, rng=0), expected)


def test_blocked_table_fill_is_bit_identical(monkeypatch):
    monkeypatch.setattr(proximity, "_BLOCK_CELLS", 7)
    lo, hi, lengths = nonempty_regions("stock.3d")
    assert_rows_bit_identical(lo, hi, lengths)


def test_counters_tell_factored_from_dense_fallback():
    """Every row adds one weight row and one miss, factored or formula;
    no row is ever a cache hit."""
    rng = np.random.default_rng(11)
    n, lengths = 90, np.array([10.0, 10.0])
    rand_lo = rng.uniform(0, 9, size=(n, 2))
    rand_hi = rand_lo + rng.uniform(0.05, 1.0, size=(n, 2))
    cuts = np.linspace(0.0, 10.0, 7)
    grid_lo = cuts[rng.integers(0, 6, size=(n, 2))]
    grid_hi = grid_lo + 10.0 / 6
    assert FactoredProximity.build(rand_lo, rand_hi, lengths) is None
    assert FactoredProximity.build(grid_lo, grid_hi, lengths) is not None

    for lo, hi in ((rand_lo, rand_hi), (grid_lo, grid_hi)):
        h0, m0, w0 = counters()
        minimax_partition(lo, hi, lengths, 4, rng=0)
        h1, m1, w1 = counters()
        assert (h1 - h0, m1 - m0, w1 - w0) == (0, n, n)


def grid_aligned_partition_inputs():
    """stock.3d regions, and grid-aligned boxes with explicit seeds."""
    yield (*nonempty_regions("stock.3d"), 16, None)
    rng = np.random.default_rng(1996)
    n = 120
    cuts = np.linspace(0.0, 10.0, 9)
    cell = rng.integers(0, 8, size=(n, 3))
    grid_lo = cuts[cell]
    grid_hi = cuts[np.minimum(cell + rng.integers(1, 3, size=(n, 3)), 8)]
    seeds = rng.choice(n, size=8, replace=False)
    yield grid_lo, grid_hi, np.array([10.0, 10.0, 10.0]), 8, seeds


@pytest.mark.parametrize("seeding", ["random", "farthest"])
def test_partition_identical_to_formula_rows(monkeypatch, seeding):
    inputs = list(grid_aligned_partition_inputs())
    for lo, hi, lengths, _, _ in inputs:
        assert FactoredProximity.build(lo, hi, lengths) is not None
    fast = [
        minimax_partition(lo, hi, lengths, m, rng=3, seeding=seeding, seeds=seeds)
        for lo, hi, lengths, m, seeds in inputs
    ]
    monkeypatch.setattr(FactoredProximity, "build", classmethod(lambda cls, *a: None))
    for (lo, hi, lengths, m, seeds), got in zip(inputs, fast):
        slow = minimax_partition(lo, hi, lengths, m, rng=3, seeding=seeding, seeds=seeds)
        assert np.array_equal(got, slow)
