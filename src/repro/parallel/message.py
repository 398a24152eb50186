"""Protocol messages of the SPMD parallel grid file.

The coordinator translates each range query into per-node
:class:`BlockRequest` messages; each worker answers with one reply carrying
the request's qualified records.  Only message *sizes* travel in the
simulation (they drive the network cost model); the cluster computes them
from the record width and header constants, so a reply needs no object of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BlockRequest"]


@dataclass(slots=True)
class BlockRequest:
    """Coordinator -> worker: fetch these buckets for query ``query_id``.

    A message is never changed once built (:meth:`retry` makes a new one);
    it is not frozen only because a frozen dataclass takes several times as
    long to build, and a plan builds one per involved node.

    The retry metadata (``attempt``, ``target_disks``) is filled in by the
    fault-tolerant engine: ``attempt`` counts prior transmissions of the same
    logical request, and ``target_disks`` — when not ``None`` — carries the
    *effective* per-bucket disk ids after replica failover (aligned with
    ``bucket_ids``; the worker maps them to its local disk indices instead of
    consulting the primary assignment).
    """

    query_id: int
    node_id: int
    bucket_ids: np.ndarray
    #: Candidate (stored) records under the requested buckets.
    candidates: int = 0
    #: Records inside the query box (reply payload size).
    qualified: int = 0
    #: Retransmission count of this logical request (0 = first send).
    attempt: int = 0
    #: Effective per-bucket disk ids after failover (None = primary copies).
    target_disks: "np.ndarray | None" = None
    #: Number of blocks requested (``len(bucket_ids)``).
    n_blocks: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.n_blocks = len(self.bucket_ids)

    def retry(self) -> "BlockRequest":
        """Copy of this request with the attempt counter bumped."""
        return BlockRequest(
            query_id=self.query_id,
            node_id=self.node_id,
            bucket_ids=self.bucket_ids,
            candidates=self.candidates,
            qualified=self.qualified,
            attempt=self.attempt + 1,
            target_disks=self.target_disks,
        )
