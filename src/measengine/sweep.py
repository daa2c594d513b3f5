"""Parameter-grid sweeps written as deterministic CSV.

One row per grid point, Cartesian order (b outer, gamma middle, r inner).
Scalar columns come from the analytic ledger, which is defined at every
grid point; eta_numeric and first_law_residual come from the numeric run
and are present only where the cycle is numerically realizable (the
entropy-preserving stroke needs gamma >= 1/2).  Floats are rendered with
12 significant digits, so repeated sweeps are byte-identical.

A sweep either writes the whole CSV or leaves the destination untouched:
every grid point is validated before any output is opened, and the rows
go to a temporary file beside the destination that replaces it only once
complete.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .engine import (
    CycleMode,
    CycleParams,
    first_law_residual,
    numeric_realizable,
    run_analytic,
    run_numeric,
)

CSV_HEADER = (
    "mode,b,gamma,r,P,q,Q_in,Q_out,W_api,W_apii,Delta,W_ext,"
    "eta_analytic,eta_numeric,S_after_QMI,S_after_QMII,first_law_residual,valid"
)


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


def sweep_row(params: CycleParams) -> str:
    """One formatted CSV row for a single grid point."""
    analytic = run_analytic(params)
    numeric = run_numeric(params) if numeric_realizable(params) else None
    authoritative = numeric if numeric is not None else analytic
    cells = [
        params.mode.value,
        _fmt(params.b),
        _fmt(params.gamma),
        _fmt(params.r),
        _fmt(params.strength),
        _fmt(analytic.q_used),
        _fmt(analytic.q_in),
        _fmt(analytic.q_out),
        _fmt(analytic.w_api),
        _fmt(analytic.w_apii),
        _fmt(analytic.delta),
        _fmt(analytic.w_ext),
        _fmt(analytic.eta),
        _fmt(numeric.eta) if numeric is not None else "",
        _fmt(analytic.stroke("QMI").entropy_after),
        _fmt(analytic.stroke("QMII").entropy_after),
        _fmt(first_law_residual(authoritative)),
        "1" if analytic.valid else "0",
    ]
    return ",".join(cells)


def _grid_params(spec: SweepSpec) -> list[CycleParams]:
    """Every grid point in row order; raises InvalidCycleError on the first bad one."""
    return [
        CycleParams(b=b, gamma=gamma, mode=spec.mode, r=r)
        for b in spec.b_values
        for gamma in spec.gamma_values
        for r in spec.r_values
    ]


def run_sweep(spec: SweepSpec) -> int:
    """Write the sweep CSV; returns the number of data rows."""
    grid = _grid_params(spec)
    tmp = f"{spec.output_path}.{os.getpid()}.tmp"  # same directory: os.replace is atomic
    fh = open(tmp, "x", encoding="ascii", newline="")
    try:
        with fh:
            fh.write(CSV_HEADER + "\n")
            for params in grid:
                fh.write(sweep_row(params) + "\n")
        os.replace(tmp, spec.output_path)
    except BaseException:
        os.remove(tmp)
        raise
    return len(grid)
