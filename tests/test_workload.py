"""Tests for the query workload generators."""

import hashlib
import json

import numpy as np
import pytest

from repro.sim import (
    animation_queries,
    flash_crowd_queries,
    mixed_workload,
    square_queries,
)

LO2, HI2 = np.zeros(2), np.array([2000.0, 2000.0])


class TestSquareQueries:
    def test_count_and_dims(self):
        qs = square_queries(50, 0.05, LO2, HI2, rng=0)
        assert len(qs) == 50
        assert all(q.dims == 2 for q in qs)

    def test_volume_fraction_unclipped(self):
        qs = square_queries(100, 0.05, LO2, HI2, rng=0, clip=False)
        for q in qs:
            assert q.volume() / (2000.0**2) == pytest.approx(0.05)

    def test_clipped_inside_domain(self):
        qs = square_queries(200, 0.1, LO2, HI2, rng=1)
        for q in qs:
            assert (q.lo >= LO2).all() and (q.hi <= HI2).all()

    def test_reproducible(self):
        a = square_queries(10, 0.05, LO2, HI2, rng=3)
        b = square_queries(10, 0.05, LO2, HI2, rng=3)
        for qa, qb in zip(a, b):
            assert np.array_equal(qa.lo, qb.lo)

    def test_centers_spread(self):
        qs = square_queries(500, 0.01, LO2, HI2, rng=2)
        centers = np.array([(q.lo + q.hi) / 2 for q in qs])
        assert centers[:, 0].std() > 300  # roughly uniform, not clustered

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            square_queries(5, 0.0, LO2, HI2)
        with pytest.raises(ValueError):
            square_queries(5, 1.5, LO2, HI2)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            square_queries(0, 0.05, LO2, HI2)


class TestAnimationQueries:
    LO4 = np.array([0.0, 0.0, 0.0, 0.0])
    HI4 = np.array([58.0, 1.0, 1.0, 1.0])

    def test_paper_count(self):
        """r = 0.1 over 59 snapshots: about 10 x 59 = 590 queries."""
        qs = animation_queries(self.LO4, self.HI4, 0.1, rng=0)
        assert len(qs) == 590

    def test_time_pinned(self):
        qs = animation_queries(self.LO4, self.HI4, 0.1, rng=0)
        for q in qs:
            assert q.lo[0] == q.hi[0]
        times = {float(q.lo[0]) for q in qs}
        assert times == {float(t) for t in range(59)}

    def test_spatial_side_lengths(self):
        qs = animation_queries(self.LO4, self.HI4, 0.1, rng=0)
        for q in qs[:20]:
            sides = q.side_lengths[1:]
            assert (sides <= 0.1 + 1e-9).all()

    def test_explicit_queries_per_step(self):
        qs = animation_queries(self.LO4, self.HI4, 0.1, queries_per_step=3, rng=0)
        assert len(qs) == 3 * 59

    def test_exhaustive_tiling_covers_volume(self):
        lo = np.array([0.0, 0.0, 0.0])
        hi = np.array([1.0, 1.0, 1.0])
        qs = animation_queries(lo, hi, 0.25, time_steps=np.array([0.0]), queries_per_step=0)
        assert len(qs) == 16  # 4 x 4 tiles for one step
        # Tiles cover the spatial square exactly.
        area = sum(float(np.prod(q.side_lengths[1:])) for q in qs)
        assert area == pytest.approx(1.0)

    def test_time_dim_parameter(self):
        lo = np.array([0.0, 0.0])
        hi = np.array([1.0, 3.0])
        qs = animation_queries(lo, hi, 0.5, time_dim=1, time_steps=np.array([1.0, 2.0]))
        for q in qs:
            assert q.lo[1] == q.hi[1]

    def test_rejects_bad_time_dim(self):
        with pytest.raises(ValueError):
            animation_queries(self.LO4, self.HI4, 0.1, time_dim=4)

    def test_rejects_zero_ratio(self):
        with pytest.raises(ValueError):
            animation_queries(self.LO4, self.HI4, 0.0)


class TestDataCorrelatedCenters:
    def test_centers_drawn_from_pool(self):
        pool = np.array([[100.0, 100.0], [1900.0, 1900.0]])
        qs = square_queries(50, 0.01, LO2, HI2, rng=0, centers=pool, clip=False)
        got = {tuple(((q.lo + q.hi) / 2).round(6)) for q in qs}
        assert got <= {(100.0, 100.0), (1900.0, 1900.0)}

    def test_correlated_workload_touches_hot_buckets_more(self):
        """Data-centered queries concentrate on the dense region."""
        from repro.datasets import build_gridfile, load
        from repro.sim.diskmodel import query_buckets

        ds = load("hot.2d", rng=1, n=4000)
        gf = build_gridfile(ds, capacity=40)
        uniform = square_queries(300, 0.01, ds.domain_lo, ds.domain_hi, rng=2)
        skewed = square_queries(
            300, 0.01, ds.domain_lo, ds.domain_hi, rng=2, centers=ds.points
        )
        mean_u = np.mean([len(b) for b in query_buckets(gf, uniform)])
        mean_s = np.mean([len(b) for b in query_buckets(gf, skewed)])
        # Dense regions have finer buckets, so data-centered queries of the
        # same volume touch more of them.
        assert mean_s > mean_u

    def test_rejects_bad_pool(self):
        with pytest.raises(ValueError):
            square_queries(5, 0.01, LO2, HI2, centers=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            square_queries(5, 0.01, LO2, HI2, centers=np.zeros((0, 2)))

    def test_reproducible(self):
        pool = np.random.default_rng(1).uniform(0, 2000, (40, 2))
        a = square_queries(20, 0.05, LO2, HI2, rng=9, centers=pool)
        b = square_queries(20, 0.05, LO2, HI2, rng=9, centers=pool)
        for qa, qb in zip(a, b):
            assert np.array_equal(qa.lo, qb.lo)


def _centers(queries):
    return np.array([(q.lo + q.hi) / 2 for q in queries])


class TestMixedWorkloadNeutrality:
    #: Pinned digest of the seed-7 stream.  The online neutrality goldens
    #: depend on this rng discipline — a change to the draw order inside
    #: ``mixed_workload`` shows up here first, with a readable diff.
    GOLDEN = "dafb02898614aa164fe1c1ee88183754971f38d92f5fd8b8ec6d9e087fadbfa7"

    @staticmethod
    def _digest(ops) -> str:
        rows = []
        for op in ops:
            rows.append(
                {
                    "kind": op.kind,
                    "query": None
                    if op.query is None
                    else [op.query.lo.tolist(), op.query.hi.tolist()],
                    "point": None if op.point is None else op.point.tolist(),
                    "delete_rank": op.delete_rank,
                    "time": op.time,
                }
            )
        blob = json.dumps(rows, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def test_stream_pinned(self):
        ops = mixed_workload(120, 0.3, LO2, HI2, ratio=0.05, rng=7)
        assert self._digest(ops) == self.GOLDEN

    def test_read_only_stream_is_square_queries(self):
        """write_ratio == 0 consumes the rng exactly like square_queries."""
        ops = mixed_workload(40, 0.0, LO2, HI2, ratio=0.05, rng=3)
        queries = square_queries(40, 0.05, LO2, HI2, rng=3)
        assert all(op.kind == "query" for op in ops)
        for op, q in zip(ops, queries):
            assert np.array_equal(op.query.lo, q.lo)
            assert np.array_equal(op.query.hi, q.hi)


class TestFlashCrowdQueries:
    def test_crowd_confined_to_window(self):
        center = np.array([500.0, 500.0])
        qs = flash_crowd_queries(
            200, 0.01, LO2, HI2,
            start=0.4, duration=0.3, intensity=1.0, width=0.01,
            center=center, rng=5,
        )
        c = _centers(qs)
        crowd = c[80:140]
        outside = np.concatenate([c[:80], c[140:]])
        assert np.abs(crowd - center).max() < 200  # tight around the spot
        assert outside.std(axis=0).min() > 300  # uniform elsewhere

    def test_hot_mask_does_not_shift_the_uniform_stream(self):
        """The mask and spot are drawn before the per-query rows, so
        changing the intensity leaves every *cold* query untouched."""
        a = flash_crowd_queries(100, 0.01, LO2, HI2, intensity=0.9,
                                center=[500.0, 500.0], rng=5)
        b = flash_crowd_queries(100, 0.01, LO2, HI2, intensity=0.1,
                                center=[500.0, 500.0], rng=5)
        frac = np.arange(100) / 100
        outside = (frac < 0.4) | (frac >= 0.7)
        for i in np.nonzero(outside)[0]:
            assert np.array_equal(a[i].lo, b[i].lo)

    def test_validation(self):
        with pytest.raises(ValueError):
            flash_crowd_queries(10, 0.01, LO2, HI2, duration=0.0)
        with pytest.raises(ValueError):
            flash_crowd_queries(10, 0.01, LO2, HI2, width=-1.0)
        with pytest.raises(ValueError):
            flash_crowd_queries(10, 0.01, LO2, HI2, start=1.5)
        with pytest.raises(ValueError):
            flash_crowd_queries(10, 0.01, LO2, HI2, center=[1.0, 2.0, 3.0])
        for name in ("duration", "width"):
            with pytest.raises(ValueError, match=name):
                flash_crowd_queries(10, 0.01, LO2, HI2, **{name: float("nan")})
