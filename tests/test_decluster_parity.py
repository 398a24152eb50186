"""Parity of the array kernels on the decluster path with their loop oracles.

* :meth:`GridFile.batch_query_buckets` (packed-bitset box test) against
  one ``np.unique`` per query over the directory slab;
* the four conflict-resolution heuristics (one sort over ``bucket·M +
  disk`` keys, vectorised draws, sequential step 3 on plain lists) against
  the per-bucket loops, including the random stream they leave behind;
* :class:`HilbertCurve` (branch-free Skilling transform on per-dimension
  columns) against the boolean-mask transform on one ``(n, d)`` array.

The oracles live in :mod:`tests.oracles`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CONFLICT_HEURISTICS, Alternatives, make_method
from repro.gridfile import GridFile
from repro.sfc import HilbertCurve
from repro.sfc.base import interleave_bits
from repro.sim import square_queries
from tests.oracles import (
    CONFLICT_REFERENCES,
    batch_query_buckets_reference,
    bucket_alternatives,
    hilbert_coords_reference,
    hilbert_index_reference,
    interleave_bits_reference,
)

HEURISTICS = sorted(CONFLICT_HEURISTICS)


def _gridfile(d: int, seed: int, n: int, capacity: int, delete_frac: float) -> GridFile:
    """A clustered ``d``-dim file on the unit cube, thinned by deletes so
    that buckets merge and some go empty."""
    rng = np.random.default_rng(seed)
    pts = np.clip(rng.normal(0.6, 0.2, size=(n, d)), 0.0, 1.0)
    pts[: n // 3] = rng.uniform(0.0, 1.0, size=(n // 3, d))
    gf = GridFile.from_points(pts, np.zeros(d), np.ones(d), capacity=capacity)
    victims = rng.choice(n, size=int(delete_frac * n), replace=False)
    gf.delete_records(victims)
    return gf


# ------------------------------------------------------------ resolution


def _assert_resolution_parity(gf, lo, hi, include_empty):
    ids, offsets = gf.batch_query_buckets(lo, hi, include_empty=include_empty)
    ref_ids, ref_offsets = batch_query_buckets_reference(gf, lo, hi, include_empty)
    assert ids.dtype == np.int64 and offsets.dtype == np.int64
    assert np.array_equal(ids, ref_ids)
    assert np.array_equal(offsets, ref_offsets)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    n=st.integers(0, 300),
    capacity=st.integers(2, 12),
    delete_frac=st.sampled_from([0.0, 0.5, 0.9]),
    boxes=st.lists(
        st.tuples(st.floats(-0.5, 1.5), st.floats(0.0, 1.0), st.booleans()),
        min_size=0,
        max_size=40,
    ),
    include_empty=st.booleans(),
)
def test_resolution_matches_per_query_unique(d, seed, n, capacity, delete_frac, boxes, include_empty):
    gf = _gridfile(d, seed, n, capacity, delete_frac)
    rng = np.random.default_rng(seed + 1)
    lo = np.empty((len(boxes), d))
    hi = np.empty((len(boxes), d))
    for i, (start, width, degenerate) in enumerate(boxes):
        # Per-dimension jitter so boxes are not all cubes; a degenerate box
        # has zero extent, and starts outside [0, 1] miss the domain.
        lo[i] = start + rng.uniform(-0.2, 0.2, size=d)
        hi[i] = lo[i] if degenerate else lo[i] + width * rng.uniform(0.5, 1.0, size=d)
    _assert_resolution_parity(gf, lo, hi, include_empty)


@pytest.mark.parametrize("include_empty", [False, True])
def test_resolution_on_scale_boundaries_and_inverted_boxes(include_empty):
    gf = _gridfile(2, 3, 400, 6, 0.5)
    edges = [gf.scales.edges(k) for k in range(2)]
    lo = np.array([[edges[0][1], edges[1][2]], [0.0, 0.0], [1.0, 1.0], [0.7, 0.7], [0.9, 0.1]])
    hi = np.array([[edges[0][1], edges[1][3]], [0.0, 0.0], [1.0, 1.0], [0.2, 0.7], [0.1, 0.9]])
    _assert_resolution_parity(gf, lo, hi, include_empty)


@pytest.mark.parametrize("ratio", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("grid", ["hot_gridfile", "dsmc_gridfile"])
def test_resolution_on_paper_workloads(request, grid, ratio):
    """The fig6/fig7 query ratios on the hot.2d and DSMC.3d grid files."""
    ds, gf = request.getfixturevalue(grid)
    queries = square_queries(300, ratio, ds.domain_lo, ds.domain_hi, rng=7)
    lo = np.stack([q.lo for q in queries])
    hi = np.stack([q.hi for q in queries])
    _assert_resolution_parity(gf, lo, hi, False)


def test_resolution_chunks_agree(monkeypatch):
    """A chunk of one query gives the same CSR as one chunk for all."""
    import repro.gridfile.gridfile as gridfile_module

    gf = _gridfile(3, 5, 500, 5, 0.3)
    rng = np.random.default_rng(5)
    lo = rng.uniform(-0.1, 0.9, size=(50, 3))
    hi = lo + rng.uniform(0.0, 0.4, size=(50, 3))
    whole = gf.batch_query_buckets(lo, hi)
    monkeypatch.setattr(gridfile_module, "_BITSET_BYTES", 1)
    one = gf.batch_query_buckets(lo, hi)
    assert all(map(np.array_equal, whole, one))
    _assert_resolution_parity(gf, lo, hi, False)


# ------------------------------------------------------ conflict resolution


@st.composite
def _alternatives(draw):
    n_disks = draw(st.integers(1, 8))
    n_buckets = draw(st.integers(0, 40))
    alts = [
        np.array(draw(st.lists(st.integers(0, n_disks - 1), min_size=1, max_size=10)))
        for _ in range(n_buckets)
    ]
    sizes = np.array(draw(st.lists(st.integers(0, 3), min_size=n_buckets, max_size=n_buckets)))
    weights = np.array(
        draw(st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.7, 1.0, 3.0]), min_size=n_buckets, max_size=n_buckets))
    )
    return alts, n_disks, sizes, weights


@settings(max_examples=150, deadline=None)
@given(case=_alternatives(), name=st.sampled_from(HEURISTICS), seed=st.integers(0, 2**32 - 1))
def test_resolvers_match_list_oracles(case, name, seed):
    alts, n_disks, sizes, weights = case
    ref_rng = np.random.default_rng(seed)
    expected = CONFLICT_REFERENCES[name](alts, n_disks, weights=weights, sizes=sizes, rng=ref_rng)
    packed = Alternatives.from_lists(alts, n_disks)
    for given_alts in (alts, packed):
        rng = np.random.default_rng(seed)
        got = CONFLICT_HEURISTICS[name](given_alts, n_disks, weights=weights, sizes=sizes, rng=rng)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
        # Both consumed the same draws, so the streams continue identically.
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("name", HEURISTICS)
@pytest.mark.parametrize(
    "alts",
    [
        [np.array([0, 1]), np.array([], dtype=int), np.array([7])],
        [np.array([0, 1]), np.array([1, 9]), np.array([], dtype=int)],
        [np.array([-1]), np.array([0])],
        [np.array([0]), np.array([0, 2, 5]), np.array([3])],
    ],
)
def test_invalid_alternatives_raise_like_the_oracle(name, alts):
    with pytest.raises(ValueError) as expected:
        CONFLICT_REFERENCES[name](alts, 4, weights=np.ones(len(alts)), rng=0)
    with pytest.raises(ValueError) as got:
        CONFLICT_HEURISTICS[name](alts, 4, weights=np.ones(len(alts)), rng=0)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("spec", ["dm/R", "fx/F", "hcam/D", "hcam/A", "gdm/D", "hcam:zorder/R"])
@pytest.mark.parametrize("seed", [0, 1])
def test_index_based_assign_matches_slice_oracle(spec, seed):
    gf = _gridfile(3, seed, 600, 6, 0.4)
    method = make_method(spec)
    grid = method.disk_grid(gf.directory.shape, 8)
    reg_lo, reg_hi = gf.bucket_regions()
    expected = CONFLICT_REFERENCES[method.conflict](
        bucket_alternatives(gf, grid),
        8,
        weights=np.prod(reg_hi - reg_lo, axis=1),
        sizes=gf.bucket_sizes(),
        rng=np.random.default_rng(seed),
    )
    assert np.array_equal(method.assign(gf, 8, rng=np.random.default_rng(seed)), expected)


def test_alternatives_from_directory_cells():
    gf = _gridfile(2, 7, 300, 5, 0.0)
    grid = make_method("dm").disk_grid(gf.directory.shape, 4)
    alt = Alternatives.from_cells(gf.directory.grid, grid, gf.n_buckets, 4)
    assert alt.n_buckets == gf.n_buckets
    for b, cells in enumerate(bucket_alternatives(gf, grid)):
        disks, counts = np.unique(cells, return_counts=True)
        sl = slice(alt.start[b], alt.start[b + 1])
        assert np.array_equal(alt.disk[sl], disks)
        assert np.array_equal(alt.count[sl], counts)
        assert (alt.bucket[sl] == b).all()


def test_alternatives_rejects_bad_cell_buckets():
    with pytest.raises(ValueError, match="cell bucket ids"):
        Alternatives.from_cells([0, 3], [0, 0], 2, 2)
    with pytest.raises(ValueError, match="same size"):
        Alternatives.from_cells([0, 1], [0], 2, 2)


def test_packed_alternatives_checked_against_disk_count():
    packed = Alternatives.from_lists([np.array([0]), np.array([2, 5])], 8)
    with pytest.raises(ValueError, match="bucket 1 alternatives out of range"):
        CONFLICT_HEURISTICS["random"](packed, 4, rng=0)


# ----------------------------------------------------------- Hilbert keys

_MAX_BITS = [(d, 62 // d) for d in range(1, 9)]


@settings(max_examples=30, deadline=None)
@given(dims_bits=st.sampled_from(_MAX_BITS), seed=st.integers(0, 2**32 - 1))
def test_hilbert_keys_match_boolean_mask_transform(dims_bits, seed):
    d, bits = dims_bits
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 1 << bits, size=(64, d), dtype=np.int64)
    coords[0] = 0
    coords[1] = (1 << bits) - 1
    curve = HilbertCurve(d, bits)
    keys = curve.index(coords)
    assert keys.dtype == np.int64
    assert np.array_equal(keys, hilbert_index_reference(coords, d, bits))
    back = curve.coords(keys)
    assert back.dtype == np.int64
    assert np.array_equal(back, coords)
    assert np.array_equal(back, hilbert_coords_reference(keys, d, bits))


@pytest.mark.parametrize(
    "d,bits", [(d, b) for d in range(1, 9) for b in (1, 2, 3, 7, 8, 9) if d * b <= 62]
)
def test_hilbert_small_cubes_match_oracle(d, bits):
    rng = np.random.default_rng(d * 100 + bits)
    coords = rng.integers(0, 1 << bits, size=(200, d))
    assert np.array_equal(HilbertCurve(d, bits).index(coords), hilbert_index_reference(coords, d, bits))


@settings(max_examples=40, deadline=None)
@given(dims_bits=st.sampled_from(_MAX_BITS + [(3, 8), (4, 9), (2, 17)]), seed=st.integers(0, 2**32 - 1))
def test_interleave_matches_bit_loop(dims_bits, seed):
    d, bits = dims_bits
    coords = np.random.default_rng(seed).integers(0, 1 << bits, size=(50, d))
    assert np.array_equal(interleave_bits(coords, bits), interleave_bits_reference(coords, bits))
