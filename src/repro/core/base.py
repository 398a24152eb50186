"""Declustering method interfaces.

A declustering method maps every bucket of a grid file to one of ``M``
disks.  Index-based methods are defined per *cell* and are lifted to grid
files through conflict resolution (paper §2.1); proximity-based methods work
on bucket regions directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.core.conflict import CONFLICT_HEURISTICS, Alternatives
from repro.gridfile.gridfile import GridFile

__all__ = ["DeclusteringMethod", "IndexBasedMethod", "validate_assignment"]


def validate_assignment(assignment: np.ndarray, n_buckets: int, n_disks: int) -> np.ndarray:
    """Check that an assignment is well formed and return it as int64.

    Raises ``ValueError`` on wrong shape or out-of-range disk ids.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (n_buckets,):
        raise ValueError(
            f"assignment must have shape ({n_buckets},), got {assignment.shape}"
        )
    if assignment.size and (assignment.min() < 0 or assignment.max() >= n_disks):
        raise ValueError(f"disk ids must lie in [0, {n_disks})")
    return assignment


def grid_cells(shape: tuple[int, ...]) -> np.ndarray:
    """Every cell of a directory of ``shape`` as ``(n, d)`` int64 indices, in
    row-major (C) order."""
    return np.indices(shape).reshape(len(shape), -1).T


class DeclusteringMethod(ABC):
    """Base class: maps grid-file buckets to disks.

    Subclasses set :attr:`name` (used in reports and the registry) and
    implement :meth:`assign`.
    """

    #: Short display name, e.g. ``"DM/D"`` — set by subclasses.
    name: str = "?"

    @abstractmethod
    def assign(
        self, gf: GridFile, n_disks: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        """Compute a disk assignment for every bucket of ``gf``.

        Parameters
        ----------
        gf:
            The grid file to decluster.
        n_disks:
            Number of disks ``M``.
        rng:
            Seed or generator for any randomized step (seeding, tie-breaks).

        Returns
        -------
        numpy.ndarray
            ``(gf.n_buckets,)`` int64 array of disk ids in ``[0, n_disks)``.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class IndexBasedMethod(DeclusteringMethod):
    """An index-based scheme: per-cell disk function + conflict resolution.

    Subclasses implement :meth:`cell_disks`, the pure per-cell mapping that
    defines the scheme on Cartesian product files.  :meth:`assign` lifts it
    to grid files: each bucket's conflicting per-cell alternatives are fed to
    the configured conflict-resolution heuristic.

    Parameters
    ----------
    conflict:
        One of ``"random"``, ``"most_frequent"``, ``"data_balance"``,
        ``"area_balance"`` (paper §2.1).  The paper's recommended default is
        ``"data_balance"``.
    """

    #: Base scheme name without the conflict suffix, e.g. ``"DM"``.
    base_name: str = "?"

    _SUFFIX = {"random": "R", "most_frequent": "F", "data_balance": "D", "area_balance": "A"}

    def __init__(self, conflict: str = "data_balance"):
        if conflict not in CONFLICT_HEURISTICS:
            raise ValueError(
                f"unknown conflict heuristic {conflict!r}; "
                f"choose from {sorted(CONFLICT_HEURISTICS)}"
            )
        self.conflict = conflict
        self.name = f"{self.base_name}/{self._SUFFIX[conflict]}"

    @abstractmethod
    def cell_disks(self, cells: np.ndarray, n_disks: int, shape: tuple[int, ...]) -> np.ndarray:
        """Disk id of each cell.

        Parameters
        ----------
        cells:
            ``(n, d)`` integer cell coordinates.
        n_disks:
            Number of disks ``M``.
        shape:
            Full directory shape (some schemes, e.g. rank-based HCAM, need
            the grid extent, not just the queried cells).

        Returns
        -------
        numpy.ndarray
            ``(n,)`` int64 disk ids.
        """

    def disk_grid(self, shape: tuple[int, ...], n_disks: int) -> np.ndarray:
        """Per-cell disk ids for a whole directory, as an array of ``shape``."""
        check_positive_int(n_disks, "n_disks")
        return self.cell_disks(grid_cells(shape), n_disks, shape).reshape(shape)

    def assign(
        self, gf: GridFile, n_disks: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        """Lift the per-cell scheme to ``gf``'s buckets via conflict resolution."""
        rng = as_rng(rng)
        grid = self.disk_grid(gf.directory.shape, n_disks)
        alternatives = Alternatives.from_cells(gf.directory.grid, grid, gf.n_buckets, n_disks)
        reg_lo, reg_hi = gf.bucket_regions()
        volumes = np.prod(reg_hi - reg_lo, axis=1)
        resolver = CONFLICT_HEURISTICS[self.conflict]
        assignment = resolver(
            alternatives,
            n_disks,
            weights=volumes,
            sizes=gf.bucket_sizes(),
            rng=rng,
        )
        return validate_assignment(assignment, gf.n_buckets, n_disks)
