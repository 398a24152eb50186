"""The paper-simulator disk layout of a declustered grid file.

The paper's simulator "reads in the dataset and declusters it to separate
files corresponding to every disk being simulated".  :func:`export_declustered`
reproduces that layout (one ``disk_XXX.npz`` per disk holding its buckets'
regions and records).  A grid file that must outlive the process is kept
in a :class:`repro.storage.DurableGridFile`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.gridfile.gridfile import GridFile

__all__ = ["export_declustered"]


def export_declustered(gf: GridFile, assignment: np.ndarray, out_dir) -> list[Path]:
    """Write one file per disk, as the paper's simulator does.

    Parameters
    ----------
    gf:
        The grid file.
    assignment:
        ``(n_buckets,)`` integer disk id per bucket.
    out_dir:
        Target directory; created if needed.

    Returns
    -------
    list[pathlib.Path]
        Paths of the written ``disk_XXX.npz`` files (one per disk, each with
        that disk's bucket ids, regions and record coordinates) plus a
        ``catalog.json`` describing the layout.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (gf.n_buckets,):
        raise ValueError(
            f"assignment must have shape ({gf.n_buckets},), got {assignment.shape}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reg_lo, reg_hi = gf.bucket_regions()
    paths = []
    n_disks = int(assignment.max()) + 1 if assignment.size else 0
    for disk in range(n_disks):
        bids = np.nonzero(assignment == disk)[0]
        recs = [gf.records_in_bucket(b) for b in bids]
        rec_concat = np.concatenate(recs) if recs else np.empty(0, dtype=np.int64)
        offsets = np.cumsum([0] + [len(r) for r in recs])
        p = out_dir / f"disk_{disk:03d}.npz"
        np.savez_compressed(
            p,
            bucket_ids=bids,
            region_lo=reg_lo[bids],
            region_hi=reg_hi[bids],
            rec_offsets=offsets,
            records=gf.coords()[rec_concat] if rec_concat.size else np.empty((0, gf.dims)),
        )
        paths.append(p)
    catalog = out_dir / "catalog.json"
    catalog.write_text(
        json.dumps(
            {
                "n_disks": n_disks,
                "n_buckets": gf.n_buckets,
                "n_records": gf.n_records,
                "files": [p.name for p in paths],
            },
            indent=2,
        )
    )
    paths.append(catalog)
    return paths
