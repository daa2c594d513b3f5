"""Parameter-grid sweeps written as deterministic CSV.

One row per grid point, Cartesian order (b outer, gamma middle, r inner).
Scalar columns come from the analytic ledger, which is defined at every
grid point.  eta_numeric comes from the numeric run and is empty where the
cycle is not numerically realizable (the entropy-preserving stroke needs
gamma >= 1/2).  first_law_residual is never empty: it is the numeric
ledger's residual where the cycle is realizable and the analytic ledger's
residual elsewhere, a roundoff-level number that is often, but not always,
0.  Floats are rendered with 12 significant digits, so repeated sweeps are
byte-identical.  Each batch sorts its non-NaN cells once and formats
each distinct value once, all of them in one `%` call.

The whole grid is evaluated in batches of CHUNK_ROWS points by
`engine.run_analytic_grid` and `engine.run_numeric_grid`; `sweep_row` is
the one-point case of the same path.

A sweep either writes the whole CSV or leaves the destination untouched:
every grid point is validated before any output is opened, and the rows
go to a temporary file beside the destination that replaces it only once
complete.
"""

from __future__ import annotations

import math
import os
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
CHUNK_ROWS = 512  # grid points evaluated and written per batch; bounds memory on large grids


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


def _cells(values: np.ndarray) -> np.ndarray:
    """Every entry as its CSV cell, an object array of values' shape.

    A cell is "%.12g" of the value, with -0.0 shown as "0" and NaN as ""
    (an empty cell).  Only the non-NaN values are sorted: each distinct one
    is formatted once, and all of them in one `%` call.
    """
    flat = values.ravel()
    kept = ~np.isnan(flat)
    distinct, inverse = _distinct(flat[kept])
    shown = distinct + 0.0  # folds -0.0
    text = ("%.12g\n" * len(shown) % tuple(shown.tolist())).split("\n")
    index = np.full(flat.shape, len(shown))  # every NaN takes the "" after the last newline
    index[kept] = inverse
    return np.array(text, dtype=object)[index].reshape(values.shape)


def _lines(grid: CycleGrid) -> str:
    """The CSV rows of every grid point, each ending in a newline, from the batched ledgers."""
    analytic = run_analytic_grid(grid)
    eta_numeric = np.full(len(grid), math.nan)
    residual = first_law_residual(analytic)
    realizable = grid.realizable
    if realizable.any():
        numeric = run_numeric_grid(grid if realizable.all() else grid.subset(realizable))
        eta_numeric[realizable] = numeric.eta
        residual[realizable] = first_law_residual(numeric)
    columns = [
        grid.b, grid.gamma, grid.r, grid.strength, analytic.q_used,
        analytic.q_in, analytic.q_out, analytic.w_api, analytic.w_apii,
        analytic.delta, analytic.w_ext, analytic.eta, eta_numeric,
        analytic.entropy_qmi, analytic.entropy_qmii, residual,
        analytic.valid,  # stacked as 1.0 / 0.0, which render "1" / "0"
    ]
    cells = _cells(np.stack(columns)).T.tolist()  # one table: one sort and one `%` call per chunk
    mode = f"{grid.mode.value},"
    return mode + f"\n{mode}".join(map(",".join, cells)) + "\n"


def sweep_row(params: CycleParams) -> str:
    """One formatted CSV row for a single grid point, as `run_sweep` writes it."""
    return _lines(CycleGrid((params.b,), (params.gamma,), params.mode, (params.r,)))[:-1]


def _grid(spec: SweepSpec) -> CycleGrid:
    """Every grid point in row order; raises InvalidCycleError on the first bad one."""
    b, gamma, r = (np.array(v) for v in (spec.b_values, spec.gamma_values, spec.r_values))
    return CycleGrid(
        b=np.repeat(b, len(gamma) * len(r)),
        gamma=np.tile(np.repeat(gamma, len(r)), len(b)),
        mode=spec.mode,
        r=np.tile(r, len(b) * len(gamma)),
    )


def run_sweep(spec: SweepSpec) -> int:
    """Write the sweep CSV; returns the number of data rows."""
    grid = _grid(spec)
    tmp = f"{spec.output_path}.{os.getpid()}.tmp"  # same directory: os.replace is atomic
    fh = open(tmp, "x", encoding="ascii", newline="")
    try:
        with fh:
            fh.write(CSV_HEADER + "\n")
            for start in range(0, len(grid), CHUNK_ROWS):
                chunk = grid.subset(slice(start, start + CHUNK_ROWS))
                fh.write(_lines(chunk))
        os.replace(tmp, spec.output_path)
    except BaseException:
        os.remove(tmp)
        raise
    return len(grid)
