"""Hilbert Curve Allocation Method (HCAM; Faloutsos & Bhagwat, PDIS 1993).

Cells are linearized along a space-filling curve and dealt to disks in round
robin.  Two flavours are provided:

* ``mode="rank"`` (default, faithful to "assigned to disks in a round robin
  fashion"): the disk is the *rank* of the cell's curve position among all
  cells of the grid, mod M — exact round robin even when the grid is not a
  power-of-two cube;
* ``mode="raw"``: the raw curve index mod M, the literal formula
  ``H(i_1..i_d) mod M``; identical to rank on full power-of-two cubes but
  unbalanced on punctured grids (this is the formula as printed in the
  paper, ablated in ``benchmarks/bench_ablation_hcam.py``).

The curve defaults to Hilbert; any :class:`repro.sfc.SpaceFillingCurve`
subclass can be substituted to measure linearization quality (Z-order,
Gray-code, scan) — paper §2.3 cites the folklore that Hilbert clusters best.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import IndexBasedMethod, grid_cells
from repro.sfc import CURVES, bits_for
from repro.sfc.hilbert import HilbertCurve

__all__ = ["HCAM"]


class HCAM(IndexBasedMethod):
    """HCAM: disk = round-robin position along a space-filling curve.

    Parameters
    ----------
    conflict:
        Conflict-resolution heuristic for merged buckets (see
        :class:`repro.core.base.IndexBasedMethod`).
    curve:
        Curve name (``"hilbert"``, ``"zorder"``, ``"gray"``, ``"scan"``) or a
        curve *class*.  Default Hilbert.
    mode:
        ``"rank"`` (default) or ``"raw"`` — see module docstring.
    """

    base_name = "HCAM"

    def __init__(self, conflict: str = "data_balance", curve="hilbert", mode: str = "rank"):
        super().__init__(conflict)
        if isinstance(curve, str):
            if curve not in CURVES:
                raise ValueError(f"unknown curve {curve!r}; choose from {sorted(CURVES)}")
            curve = CURVES[curve]
        self.curve_cls = curve
        if mode not in ("rank", "raw"):
            raise ValueError(f"mode must be 'rank' or 'raw', got {mode!r}")
        self.mode = mode
        if curve is not HilbertCurve:
            self.base_name = f"HCAM[{getattr(curve, '__name__', curve)}]"
            self.name = f"{self.base_name}/{self._SUFFIX[conflict]}"

    def _curve(self, shape):
        return self.curve_cls(dims=len(shape), bits=bits_for(max(shape)))

    def cell_disks(self, cells: np.ndarray, n_disks: int, shape) -> np.ndarray:
        cells = np.asarray(cells, dtype=np.int64)
        curve = self._curve(shape)
        keys = curve.index(cells)
        if self.mode == "raw":
            return keys % n_disks
        # Rank of each queried cell's key among the keys of *all* grid cells.
        all_keys = np.sort(curve.index(grid_cells(shape)))
        ranks = np.searchsorted(all_keys, keys)
        return ranks % n_disks

    def disk_grid(self, shape: tuple[int, ...], n_disks: int) -> np.ndarray:
        """Whole-directory disk map; avoids recomputing all-cell keys twice."""
        curve = self._curve(shape)
        keys = curve.index(grid_cells(shape))
        if self.mode == "raw":
            return (keys % n_disks).reshape(shape)
        ranks = np.empty(keys.size, dtype=np.int64)
        ranks[np.argsort(keys, kind="stable")] = np.arange(keys.size)
        return (ranks % n_disks).reshape(shape)
