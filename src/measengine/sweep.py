"""Parameter-grid sweeps written as deterministic CSV.

One row per grid point, Cartesian order (b outer, gamma middle, r inner).
Scalar columns come from the analytic ledger, which is defined at every
grid point.  eta_numeric comes from the numeric run and is empty where the
cycle is not numerically realizable (the entropy-preserving stroke needs
gamma >= 1/2).  first_law_residual is never empty: it is the numeric
ledger's residual where the cycle is realizable and the analytic ledger's
residual elsewhere, a roundoff-level number that is often, but not always,
0.  Floats are rendered with 12 significant digits, so repeated sweeps are
byte-identical.

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


def _fmt(x: float) -> str:
    if math.isnan(x):
        return ""
    if x == 0.0:
        return "0"  # fold negative zero
    return f"{x:.12g}"


def _rows(grid: CycleGrid) -> Iterator[str]:
    """Formatted CSV rows of every grid point, from the batched ledgers."""
    analytic = run_analytic_grid(grid)
    eta_numeric = np.full(len(grid), math.nan)
    residual = first_law_residual(analytic)
    realizable = grid.realizable
    if realizable.any():
        numeric = run_numeric_grid(grid.subset(realizable))
        eta_numeric[realizable] = numeric.eta
        residual[realizable] = first_law_residual(numeric)
    columns = [
        grid.b, grid.gamma, grid.r, grid.strength, analytic.q_used,
        analytic.q_in, analytic.q_out, analytic.w_api, analytic.w_apii,
        analytic.delta, analytic.w_ext, analytic.eta, eta_numeric,
        analytic.entropy_qmi, analytic.entropy_qmii, residual,
    ]
    cells = [map(_fmt, column.tolist()) for column in columns]
    cells.append("1" if v else "0" for v in analytic.valid.tolist())
    mode = grid.mode.value
    return (",".join((mode, *row)) for row in zip(*cells))


def sweep_row(params: CycleParams) -> str:
    """One formatted CSV row for a single grid point, as `run_sweep` writes it."""
    (row,) = _rows(CycleGrid((params.b,), (params.gamma,), params.mode, (params.r,)))
    return row


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
                fh.writelines(row + "\n" for row in _rows(chunk))
        os.replace(tmp, spec.output_path)
    except BaseException:
        os.remove(tmp)
        raise
    return len(grid)
