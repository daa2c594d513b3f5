"""Parameter-grid sweeps written as deterministic CSV.

One row per grid point, Cartesian order (b outer, gamma middle, r inner).
Scalar columns come from the analytic ledger, which is defined at every
grid point.  eta_numeric comes from the numeric run and is empty where the
cycle is not numerically realizable (the entropy-preserving stroke needs
gamma >= 1/2).  first_law_residual is never empty: it is the numeric
ledger's residual where the cycle is realizable and the analytic ledger's
residual elsewhere, a roundoff-level number that is often, but not always,
0.  Floats are rendered with 12 significant digits, so repeated sweeps are
byte-identical.  Each slice of CHUNK_ROWS rows sorts its non-NaN cells
once and formats each distinct value once, all of them in one `%` call.

The states, their entropies and q depend on (b, gamma) alone, so the sweep
works on the b x gamma grid (`CycleGrid.product`): it evolves the realizable
points once and forms S_after_QMI and S_after_QMII, the entropies of the
grid's `closed_form` states, once per point.  Batches of b x gamma points
are then stretched over r (`CycleGrid.stretched`), which carries those
states and entropies, and evaluated by `engine.run_analytic_grid` and
`engine.run_numeric_grid`; a batch holds at most max(BATCH_ROWS, len(r))
rows, however large the grid.
`sweep_row` is the one-point case of the same path.

A sweep either writes the whole CSV or leaves the destination untouched:
every grid point is validated before any output is opened, and the rows
go to a temporary file beside the destination that replaces it only once
complete.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .engine import (
    CycleGrid,
    CycleMode,
    CycleParams,
    first_law_residual,
    run_analytic_grid,
    run_numeric_grid,
)
from .linalg import _distinct

CSV_HEADER = (
    "mode,b,gamma,r,P,q,Q_in,Q_out,W_api,W_apii,Delta,W_ext,"
    "eta_analytic,eta_numeric,S_after_QMI,S_after_QMII,first_law_residual,valid"
)
CHUNK_ROWS = 512  # rows formatted per `_cells` call
BATCH_ROWS = 16384  # rows per engine batch: a batch holds at most max(BATCH_ROWS, len(r))
_DIGITS = "%.12g"  # a cell's format, applied to value + 0.0, which folds -0.0 to 0.0


@dataclass(frozen=True)
class SweepSpec:
    """Grid of cycle parameters plus the CSV destination."""

    mode: CycleMode
    b_values: tuple[float, ...]
    gamma_values: tuple[float, ...]
    output_path: str
    r_values: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "mode", CycleMode(self.mode))
        for name in ("b_values", "gamma_values", "r_values"):
            values = tuple(float(v) for v in getattr(self, name))
            if not values:
                raise ValueError(f"sweep needs at least one value in {name}")
            object.__setattr__(self, name, values)
        if not self.output_path:
            raise ValueError("sweep needs an output path")


def _cell(x: float) -> str:
    """One value in 12 significant digits, as a CSV cell shows it; -0.0 reads "0", NaN "nan"."""
    return _DIGITS % (x + 0.0)


def _cells(values: np.ndarray) -> np.ndarray:
    """Every entry as its CSV cell, an object array of values' shape.

    A cell is `_cell` of the value, with NaN shown as "" (an empty cell).
    Only the non-NaN values are sorted: each distinct one is formatted once,
    and all of them in one `%` call.
    """
    flat = values.ravel()
    kept = ~np.isnan(flat)
    distinct, inverse = _distinct(flat[kept])
    shown = distinct + 0.0
    text = ((_DIGITS + "\n") * len(shown) % tuple(shown.tolist())).split("\n")
    index = np.full(flat.shape, len(shown))  # every NaN takes the "" after the last newline
    index[kept] = inverse
    return np.array(text, dtype=object)[index].reshape(values.shape)


def _rows(mode: CycleMode, b, gamma, r) -> Iterator[str]:
    """The CSV rows of the b x gamma x r product, CHUNK_ROWS to a string, each ending in a newline.

    Every point is checked, the realizable (b, gamma) points are evolved and the
    S_after_QMI and S_after_QMII columns formed here, once per (b, gamma); the
    returned iterator only stretches them over r and formats, one batch at a time.
    """
    grid = CycleGrid.product(b, gamma, r, mode)
    ready = np.flatnonzero(grid.realizable)
    evolved = grid.realizable_part()
    evolved.evolved  # evolved once, here: every batch's numeric grid carries these states
    grid.closed_form_entropies  # and every batch's grid these entropies
    return _batches(mode, grid, evolved, ready, r)


def _batches(mode: CycleMode, grid: CycleGrid, evolved: CycleGrid, ready: np.ndarray,
             r) -> Iterator[str]:
    """`_rows`' strings: `evolved` holds the points of `grid` at positions `ready`."""
    step = max(1, BATCH_ROWS // len(r))  # (b, gamma) points per batch
    prefix = f"{mode.value},"
    for start in range(0, len(grid), step):
        rows = grid.subset(slice(start, start + step)).stretched(r, mode)
        analytic = run_analytic_grid(rows)
        eta_numeric = np.full(len(rows), math.nan)
        residual = first_law_residual(analytic)
        first, stop = np.searchsorted(ready, (start, start + step))
        if stop > first:
            numeric = run_numeric_grid(evolved.subset(slice(first, stop)).stretched(r, mode))
            realizable = rows.realizable
            eta_numeric[realizable] = numeric.eta
            residual[realizable] = first_law_residual(numeric)
        s_qmi, s_qmii = rows.closed_form_entropies
        table = np.stack([
            rows.b, rows.gamma, rows.r, rows.strength, analytic.q_used,
            analytic.q_in, analytic.q_out, analytic.w_api, analytic.w_apii,
            analytic.delta, analytic.w_ext, analytic.eta, eta_numeric,
            s_qmi, s_qmii, residual,
            analytic.valid,  # stacked as 1.0 / 0.0, which render "1" / "0"
        ])
        for at in range(0, len(rows), CHUNK_ROWS):
            cells = _cells(table[:, at:at + CHUNK_ROWS]).T.tolist()  # one sort, one `%` call
            yield prefix + f"\n{prefix}".join(map(",".join, cells)) + "\n"


def sweep_row(params: CycleParams) -> str:
    """One formatted CSV row for a single grid point, as `run_sweep` writes it."""
    return "".join(_rows(params.mode, (params.b,), (params.gamma,), (params.r,)))[:-1]


def run_sweep(spec: SweepSpec) -> int:
    """Write the sweep CSV; returns the number of data rows."""
    rows = _rows(spec.mode, spec.b_values, spec.gamma_values, spec.r_values)
    tmp = f"{spec.output_path}.{os.getpid()}.tmp"  # same directory: os.replace is atomic
    fh = open(tmp, "x", encoding="ascii", newline="")
    try:
        with fh:
            fh.write(CSV_HEADER + "\n")
            fh.writelines(rows)
        os.replace(tmp, spec.output_path)
    except BaseException:
        os.remove(tmp)
        raise
    return len(spec.b_values) * len(spec.gamma_values) * len(spec.r_values)
