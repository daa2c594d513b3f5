"""`measengine sweep`: the CSV of every b x gamma x r point, b outer and r inner.

The ledger columns are the analytic ledger's, defined at every point;
S_after_QMI and S_after_QMII are its states' entropies.  eta_numeric is empty
where the cycle is not numerically realizable (gamma < 1/2), and
first_law_residual is the numeric ledger's where it is, else the analytic
one's.  A cell is `%.12g` of value + 0.0, so -0.0 reads 0, and NaN is an
empty cell; a grid gives the same bytes on every run (`test_csv_digest_is_pinned`).

Every point is checked before any output opens, and the rows go to a
temporary file that replaces the destination only when complete.
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
    """A sweep's mode, axes and CSV path; an empty axis or path is refused."""

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
    """Every entry's CSV cell (`_cell`; NaN as ""), as an object array of `values`' shape."""
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

    Every point is checked, and the (b, gamma) states evolved, before the iterator is returned.
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
