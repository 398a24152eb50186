"""Incremental redeclustering when the disk farm grows.

The paper studies response time as a *function* of the number of disks, but
a production farm gets there by **adding** disks to a live system — and
then every bucket an algorithm maps differently must physically move.  The
two costs trade off:

* **movement** — fraction of buckets whose disk changes (bytes rewritten);
* **quality** — response time of the resulting assignment.

Recomputing an index-based scheme at the new M reshuffles almost everything
(``(i+j) mod M`` changes for ~all cells when M changes).  The other extreme
— leave everything and send only new data to the new disks — moves nothing
but keeps the old parallelism.  :func:`minimax_expand` implements the
middle path for the paper's algorithm: grow *one new minimax tree per new
disk* by stealing, round-robin, the bucket with the minimum max-proximity
to the new tree from the currently most-loaded disk, until balance is
restored.  Movement is exactly the ``(M_new - M_old)/M_new`` fraction that
any balanced expansion must move, and quality stays near a from-scratch
minimax run (``benchmarks/bench_ext_expand.py``).
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.core.proximity import proximity_index, proximity_rows

__all__ = [
    "movement_fraction",
    "minimax_expand",
    "bounded_reconcile",
    "min_proximity_steal",
]


def movement_fraction(old: np.ndarray, new: np.ndarray, sizes=None) -> float:
    """Fraction of (non-empty) buckets whose disk changes between assignments."""
    old = np.asarray(old)
    new = np.asarray(new)
    if old.shape != new.shape:
        raise ValueError("assignments must have equal shape")
    if sizes is not None:
        keep = np.asarray(sizes) > 0
        old = old[keep]
        new = new[keep]
    if old.size == 0:
        return 0.0
    return float(np.mean(old != new))


def bounded_reconcile(
    old: np.ndarray,
    new: np.ndarray,
    budget: float,
    sizes=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Move ``old`` toward ``new`` spending at most a movement budget.

    The online degradation monitor recomputes a from-scratch assignment when
    windowed response time degrades, but a live system cannot afford to
    rewrite every differing bucket at once.  This helper applies only the
    most load-relieving subset of the moves: differing buckets are taken
    greedily from the currently most-loaded disk (loads counted over
    non-empty buckets) until ``floor(budget * n_nonempty)`` buckets have
    moved.  Empty buckets (``sizes == 0``) occupy no disk page, so they are
    reassigned for free and never charged against the budget.

    Parameters
    ----------
    old, new:
        ``(n,)`` current and target assignments (same disk universe).
    budget:
        Maximum fraction of non-empty buckets allowed to move (``>= 0``).
    sizes:
        Optional ``(n,)`` record counts; ``None`` treats every bucket as
        non-empty.

    Returns
    -------
    (assignment, moved):
        The reconciled ``(n,)`` assignment and the ids of the non-empty
        buckets that moved (ascending order of application).
    """
    old = np.asarray(old, dtype=np.int64)
    new = np.asarray(new, dtype=np.int64)
    if old.shape != new.shape:
        raise ValueError("assignments must have equal shape")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    out = old.copy()
    if out.size == 0:
        return out, np.empty(0, dtype=np.int64)
    nonempty = (
        np.ones(out.shape[0], dtype=bool) if sizes is None else np.asarray(sizes) > 0
    )
    # Empty buckets cost nothing to "move": adopt the target outright.
    out[~nonempty] = new[~nonempty]
    n_disks = int(max(out.max(), new.max())) + 1
    load = np.bincount(out[nonempty], minlength=n_disks)
    pending = set(np.nonzero(nonempty & (out != new))[0].tolist())
    allowance = int(budget * int(nonempty.sum()))
    moved: list[int] = []
    while pending and len(moved) < allowance:
        # Relieve the most-loaded disk first (ties: lowest disk, then lowest
        # bucket id — fully deterministic).
        by_disk: dict[int, int] = {}
        for b in pending:
            d = int(out[b])
            if d not in by_disk or b < by_disk[d]:
                by_disk[d] = b
        src = max(by_disk, key=lambda d: (load[d], -d))
        b = by_disk[src]
        pending.discard(b)
        load[src] -= 1
        out[b] = new[b]
        load[out[b]] += 1
        moved.append(b)
    return out, np.asarray(moved, dtype=np.int64)


def min_proximity_steal(
    lo: np.ndarray,
    hi: np.ndarray,
    lengths,
    candidates: np.ndarray,
    anchor_ids: np.ndarray,
) -> int:
    """Pick the candidate bucket with minimal max-proximity to an anchor set.

    This is Algorithm 2's tree-growing selection rule (the same one
    :func:`minimax_expand` applies per new disk), exposed for online
    placement: when a disk must give up a bucket, steal the one least
    "close" to the receiving disk's current content, so intra-disk
    proximity — and thus response time — degrades least.

    Parameters
    ----------
    lo, hi:
        ``(n, d)`` bucket regions.
    lengths:
        Domain extents.
    candidates:
        Ids of buckets eligible to move (non-empty).
    anchor_ids:
        Ids of the buckets already on the receiving disk; when empty, the
        lowest candidate id is returned.

    Returns
    -------
    int
        The chosen bucket id.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        raise ValueError("no candidate buckets to steal")
    anchor_ids = np.asarray(anchor_ids, dtype=np.int64)
    if anchor_ids.size == 0:
        return int(candidates.min())
    # (n_candidates, n_anchors) proximity matrix; minimize the row maximum.
    w = proximity_index(
        lo[candidates, None, :], hi[candidates, None, :],
        lo[anchor_ids, None, :].swapaxes(0, 1), hi[anchor_ids, None, :].swapaxes(0, 1),
        lengths,
    )
    return int(candidates[int(np.argmin(w.max(axis=1)))])


def minimax_expand(
    lo: np.ndarray,
    hi: np.ndarray,
    lengths,
    assignment: np.ndarray,
    old_disks: int,
    new_disks: int,
    rng=None,
) -> np.ndarray:
    """Expand an assignment from ``old_disks`` to ``new_disks`` disks.

    For each new disk, a fresh minimax tree is seeded with a random bucket
    stolen from the most-loaded old disk, then grown by repeatedly stealing
    — always from a currently over-quota disk — the bucket whose maximum
    proximity to the new tree is minimal (Algorithm 2's selection rule,
    restricted to the new trees).  Stops when every disk holds at most
    ``⌈N/new_disks⌉`` buckets.

    Parameters
    ----------
    lo, hi:
        ``(n, d)`` bucket regions.
    lengths:
        Domain extents.
    assignment:
        Current ``(n,)`` assignment over ``old_disks``.
    old_disks, new_disks:
        Farm sizes; ``new_disks > old_disks``.
    rng:
        Seed for tie-breaking/seeding.

    Returns
    -------
    numpy.ndarray
        New ``(n,)`` assignment over ``new_disks`` disks; only stolen
        buckets moved.
    """
    check_positive_int(old_disks, "old_disks")
    check_positive_int(new_disks, "new_disks")
    if new_disks <= old_disks:
        raise ValueError("new_disks must exceed old_disks")
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    out = np.asarray(assignment, dtype=np.int64).copy()
    n = out.shape[0]
    if n == 0:
        return out
    if out.min() < 0 or out.max() >= old_disks:
        raise ValueError("assignment inconsistent with old_disks")
    rng = as_rng(rng)

    quota = -(-n // new_disks)
    load = np.bincount(out, minlength=new_disks)

    # max proximity of each bucket to each *new* tree (tree t is disk
    # old_disks + t), one contiguous row per tree.
    n_new = new_disks - old_disks
    max_w = np.full((n_new, n), -np.inf)
    prox_row = proximity_rows(lo, hi, lengths)

    def steal_candidates():
        over = np.nonzero(load > quota)[0]
        if over.size == 0:
            return None
        # Steal from the most loaded disk.
        src = int(over[np.argmax(load[over])])
        return np.nonzero(out == src)[0]

    # Seed each new tree from the most loaded disk.
    for t in range(n_new):
        cand = steal_candidates()
        if cand is None:
            break
        seed = int(cand[rng.integers(cand.size)])
        disk = old_disks + t
        load[out[seed]] -= 1
        out[seed] = disk
        load[disk] += 1
        max_w[t] = prox_row(seed)

    # Round-robin growth of the new trees.
    t = 0
    while True:
        if load[old_disks + t] >= quota:
            # This tree is full; find one that is not.
            not_full = [k for k in range(n_new) if load[old_disks + k] < quota]
            if not not_full:
                break
            t = not_full[0]
        cand = steal_candidates()
        if cand is None:
            break
        y = int(cand[np.argmin(max_w[t, cand])])
        disk = old_disks + t
        load[out[y]] -= 1
        out[y] = disk
        load[disk] += 1
        np.maximum(max_w[t], prox_row(y), out=max_w[t])
        t = (t + 1) % n_new
    return out
