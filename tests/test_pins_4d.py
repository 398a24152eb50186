"""sha256 pins for the index-based schemes and query resolution on a 4-d file.

The registry pins (``test_registry_regression.py``) cover hot.2d and
dsmc.3d.  This file adds dsmc.4d, where every bucket spans several cells
that DM, FX and HCAM map to more than one disk, so every bucket goes
through conflict resolution, and a few buckets are empty.  Hashes were
captured with the per-bucket resolver loops and the per-query
``np.unique`` resolution that the array kernels replaced; the recipe is
below.
"""

import hashlib

import numpy as np
import pytest

from repro.core import make_method
from repro.datasets import build_gridfile, load
from repro.sim import resolve_query_buckets, square_queries

SEED = 1996
N_DISKS = 16

#: make_method(spec).assign(gf, 16, rng=1996), as little-endian int64 bytes.
ASSIGNMENTS = {
    "dm/D": "33e51380121245b0615f3e607400878c5994bb434abe158667cf00045ad87a24",
    "fx/D": "1742ad18b39c36ffe4cc792d887b3941e352774995ba55dd71a441c7b8015527",
    "hcam/R": "5849a5587515dc4f7bac78164a5287cf6124e9d6c16ce7cf7fdce1c778357213",
    "hcam/F": "8b1a8792e56244d76e2cc67688181ef6c247451b92392a28334003a8325ba4e8",
    "hcam/D": "658a3fbfa507f4e0426e524ba2278f1b8f0e4675cb40a08fdfb1c4e52a6c7d48",
    "hcam/A": "1109a26cf4580f1de35a6885948a1edc10bc5168992b0a7b7b04a21abd66f7b4",
}
#: ids then offsets of resolve_query_buckets over 1,000 queries at r=0.01.
RESOLVED = "dd943382f240324e6c26683fd7f1c31a1fabac468376010488db083b4a659619"
#: The same queries through batch_query_buckets(include_empty=True).
RESOLVED_WITH_EMPTY = "955cf3c4cd435f216c62a10462a32bf1af563924bd751590b7f96c3a49c15f6b"


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.int64)).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def dsmc4d():
    ds = load("dsmc.4d", rng=SEED, n=20_000)
    gf = build_gridfile(ds, capacity=20)
    queries = square_queries(1000, 0.01, ds.domain_lo, ds.domain_hi, rng=SEED)
    return gf, queries


def test_every_bucket_conflicts(dsmc4d):
    gf, _ = dsmc4d
    assert gf.n_buckets == 1629
    assert 0 < gf.n_buckets - gf.nonempty_bucket_ids().size
    for spec in ("dm", "fx", "hcam"):
        grid = make_method(spec).disk_grid(gf.directory.shape, N_DISKS)
        assert all(np.unique(grid[b.cellbox.slices()]).size > 1 for b in gf.buckets)


@pytest.mark.parametrize("spec", sorted(ASSIGNMENTS))
def test_assignment_pinned(dsmc4d, spec):
    gf, _ = dsmc4d
    assert _sha(make_method(spec).assign(gf, N_DISKS, rng=SEED)) == ASSIGNMENTS[spec]


def test_resolution_pinned(dsmc4d):
    gf, queries = dsmc4d
    bls = resolve_query_buckets(gf, queries)
    assert _sha(bls.ids, bls.offsets) == RESOLVED
    lo = np.stack([q.lo for q in queries])
    hi = np.stack([q.hi for q in queries])
    assert _sha(*gf.batch_query_buckets(lo, hi, include_empty=True)) == RESOLVED_WITH_EMPTY
