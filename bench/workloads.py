"""The three benchmark workloads: inputs from a seed, one timed call, its check.

Each workload is one client in a closed loop: `call(i)` is the timed request
and `check(outcome)` turns its output into (operations attempted, operations
failed) outside the timed region.  An operation is a sweep row, a verify
check or a single-cycle request.  A wrong output of a whole call (an exit
code, the CSV digest, the verify check count) also fails every operation of
the call and marks the run `broken`.

A run's result counts a fixed sample of operations, so that two runs with
the same seed report the same `attempted` and `failed` however fast the
machine is: the rows of the first sweep, the checks of the first verify, or
the first CYCLE_SAMPLE requests of the stream.  Every later call is checked
too.  A repeated sweep or verify must give the first call's output, and a
request seen again must get its first verdict, or the run is `broken`.
Later cycle requests are fresh draws; their failures are in the report's
totals.  The package sees only the generated inputs,
passed through its public entry points (`measengine.cli.main`,
`CycleParams`, `run_numeric`, `run_analytic`), never the seed.

Tolerances come from `measengine.verify`, so the benchmark judges outputs by
the same limits as the package's own cross-check suite.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import math
import random
import re
from collections.abc import Iterator

from common import run_cli

DEFAULT_SEED = 1

# sweep-grid: 20 b x 25 gamma x 4 r, the ROADMAP baseline size.  Seven gamma
# values lie below 1/2, so 560 rows are analytic-only and 1440 run the
# numeric path too.
SWEEP_B_RANGE = (0.05, 10.0)
SWEEP_GAMMA_RANGE = (0.3, 1.0)
SWEEP_B_COUNT = 20
SWEEP_GAMMA_COUNT = 25
SWEEP_R_VALUES = (1.0, 2.0, 5.0, 20.0)
SWEEP_JITTER = 0.1  # interior grid points move by up to this share of a step
# sha256 of the CSV written for DEFAULT_SEED at the commit that defined the
# benchmark; the sweep CSV must stay byte-identical for a fixed grid.
SWEEP_DIGEST = "35ad33454730ec45d88fac2e81a337e8c13828577cc0d16cc9f6752e745ade64"

VERIFY_CHECKS = 1672  # checks made by `measengine verify` on its default grid

# cycle-stream: the whole physical range of ROADMAP item 2.
CYCLE_B_RANGE = (1e-8, 700.0)
CYCLE_GAMMA_RANGE = (0.5, 1.0)
CYCLE_R_RANGE = (1.0, 100.0)
CYCLE_SAMPLE = 4000  # requests counted in the result; drawn up front, every run makes them
CYCLE_DRAW_AHEAD = 1000  # later requests are drawn this many at a time, between calls


def sweep_grid(seed: int) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """(b, gamma, r) values: log-spaced b, linear gamma, fixed r.

    DEFAULT_SEED gives the exact grid; other seeds move every interior
    point by up to SWEEP_JITTER of a step, which keeps the seven gamma
    values below 1/2 (and so the numeric/analytic row split) unchanged.
    """
    rng = random.Random(seed)

    def jitter() -> float:
        return 0.0 if seed == DEFAULT_SEED else rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)

    lo, hi = SWEEP_B_RANGE
    n = SWEEP_B_COUNT - 1
    log_step = math.log(hi / lo) / n
    b = [lo] + [lo * math.exp((k + jitter()) * log_step) for k in range(1, n)] + [hi]
    lo, hi = SWEEP_GAMMA_RANGE
    n = SWEEP_GAMMA_COUNT - 1
    step = (hi - lo) / n
    gamma = [lo] + [lo + (k + jitter()) * step for k in range(1, n)] + [hi]
    return tuple(b), tuple(gamma), SWEEP_R_VALUES


def cycle_request_stream(seed: int) -> Iterator[tuple[str, float, float, float]]:
    """Endless (mode, b, gamma, r) requests: mode 50/50, log-uniform b and r, uniform gamma."""
    rng = random.Random(seed)
    log_b = (math.log(CYCLE_B_RANGE[0]), math.log(CYCLE_B_RANGE[1]))
    log_r = (math.log(CYCLE_R_RANGE[0]), math.log(CYCLE_R_RANGE[1]))
    while True:
        mode = "three" if rng.random() < 0.5 else "five"
        b = math.exp(rng.uniform(*log_b))
        gamma = rng.uniform(*CYCLE_GAMMA_RANGE)
        r = 1.0 if mode == "three" else math.exp(rng.uniform(*log_r))
        yield mode, b, gamma, r


def cycle_requests(seed: int, count: int) -> list[tuple[str, float, float, float]]:
    """The first `count` requests of the seed's stream."""
    return list(itertools.islice(cycle_request_stream(seed), count))


def _cell(x: float) -> str:
    return f"{x:.12g}"


def sweep_row_failures(csv_text: str, grid, tol_oracle: float, tol_exact: float) -> int:
    """Rows of a five-stroke sweep CSV that are missing, misplaced or wrong.

    A row fails when its (b, gamma, r) cells are not the grid point expected
    at its position, when eta_numeric is missing or present against the
    realizability rule (gamma >= 1/2), when eta_numeric and eta_analytic
    differ by more than tol_oracle, or when the first-law residual exceeds
    tol_exact.
    """
    b_values, gamma_values, r_values = grid
    expected = [(b, g, r) for b in b_values for g in gamma_values for r in r_values]
    lines = csv_text.splitlines()
    if not lines:
        return len(expected)
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    needed = ("mode", "b", "gamma", "r", "eta_analytic", "eta_numeric", "first_law_residual")
    if any(name not in col for name in needed):
        return len(expected)
    rows = lines[1:]
    failed = abs(len(rows) - len(expected))
    for line, (b, g, r) in zip(rows, expected):
        cells = line.split(",")
        try:
            ok = len(cells) == len(header) and cells[col["mode"]] == "five"
            ok = ok and (cells[col["b"]], cells[col["gamma"]], cells[col["r"]]) == (
                _cell(b), _cell(g), _cell(r)
            )
            numeric = cells[col["eta_numeric"]]
            if g >= 0.5:
                gap = abs(float(numeric) - float(cells[col["eta_analytic"]]))
                ok = ok and gap <= tol_oracle
            else:
                ok = ok and numeric == ""
            ok = ok and abs(float(cells[col["first_law_residual"]])) <= tol_exact
        except (IndexError, ValueError):
            ok = False
        failed += not ok
    return failed


class SweepGrid:
    """`measengine sweep --mode five` over 2000 rows, CSV written to a file."""

    name = "sweep-grid"
    throughput_name = "sweep_rows_per_s"
    min_calls = 1
    trace_calls = 2

    def __init__(self, package, seed: int, workdir):
        self.cli = importlib.import_module(f"{package.__name__}.cli")
        verify = importlib.import_module(f"{package.__name__}.verify")
        self.tol_oracle, self.tol_exact = verify.TOL_ORACLE, verify.TOL_EXACT
        self.grid = sweep_grid(seed)
        self.rows = math.prod(len(values) for values in self.grid)
        self.path = str(workdir / "sweep.csv")
        self.argv = ["sweep", "--mode", "five"]
        for flag, values in zip(("--b-values", "--gamma-values", "--r-values"), self.grid):
            self.argv += [flag, ",".join(repr(v) for v in values)]
        self.argv += ["--out", self.path]
        self.expected_digest = SWEEP_DIGEST if seed == DEFAULT_SEED else None
        self.first_digest = None  # every repetition must write the same bytes
        self.bytes_written = 0
        self.sample: tuple[int, int] | None = None  # (attempted, failed) of the first call
        self.problems: list[str] = []
        self.broken = False

    def _fail_call(self, problem: str) -> tuple[int, int]:
        self.problems.append(problem)
        self.broken = True
        return self._counted(self.rows)

    def _counted(self, failed: int) -> tuple[int, int]:
        if self.sample is None:
            self.sample = (self.rows, failed)
        return self.rows, failed

    def call(self, i: int):
        return run_cli(self.cli.main, self.argv)

    def check(self, outcome) -> tuple[int, int]:
        code, out, err = outcome
        if code != 0 or out != f"wrote {self.rows} rows to {self.path}\n":
            return self._fail_call(f"exit {code}: {(out + err).strip()}")
        with open(self.path, "rb") as fh:
            data = fh.read()
        self.bytes_written = len(data)
        digest = hashlib.sha256(data).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        for expected, what in ((self.expected_digest, "recorded"), (self.first_digest, "first-run")):
            if expected is not None and digest != expected:
                return self._fail_call(f"CSV sha256 {digest} differs from the {what} digest {expected}")
        failed = sweep_row_failures(data.decode("ascii"), self.grid, self.tol_oracle, self.tol_exact)
        if failed:
            self.problems.append(f"{failed} rows failed the row checks")
        return self._counted(failed)


class VerifyDefault:
    """`measengine verify` on its default grid; the seed is not used."""

    name = "verify-default"
    throughput_name = "verify_checks_per_s"
    min_calls = 1
    trace_calls = 10

    def __init__(self, package, seed: int, workdir):
        self.cli = importlib.import_module(f"{package.__name__}.cli")
        self.checks_reported = 0
        self.sample: tuple[int, int] | None = None  # (attempted, failed) of the first call
        self.problems: list[str] = []
        self.broken = False

    def call(self, i: int):
        return run_cli(self.cli.main, ["verify"])

    def check(self, outcome) -> tuple[int, int]:
        code, out, err = outcome
        summary = re.search(r"^verify: (\d+) checks, (\d+) failures, ", out, re.MULTILINE)
        if summary:
            self.checks_reported += int(summary[1])
        if code != 0 or summary is None or int(summary[1]) != VERIFY_CHECKS:
            self.problems.append(f"exit {code}: {(out + err).strip()[-500:]}")
            self.broken = True
            failed = VERIFY_CHECKS
        else:
            failed = int(summary[2])
        if self.sample is None:
            self.sample = (VERIFY_CHECKS, failed)
        elif failed != self.sample[1]:
            self.problems.append(f"{failed} failed checks on a repetition, {self.sample[1]} on the first")
            self.broken = True
        return VERIFY_CHECKS, failed


class CycleStream:
    """Independent single-cycle requests, what `measengine cycle --both` computes."""

    name = "cycle-stream"
    throughput_name = "cycles_per_s"
    min_calls = CYCLE_SAMPLE  # at least 1000, so that p99 has ten samples beyond it
    trace_calls = 1000

    def __init__(self, package, seed: int, workdir):
        self.package = package
        verify = importlib.import_module(f"{package.__name__}.verify")
        self.tol_oracle = verify.TOL_ORACLE
        self.stream = cycle_request_stream(seed)
        self.requests = list(itertools.islice(self.stream, CYCLE_SAMPLE))
        # Later requests are kept one block at a time, so that memory does
        # not grow with the number of requests a run makes.
        self.block_start, self.block = CYCLE_SAMPLE, list(itertools.islice(self.stream, CYCLE_DRAW_AHEAD))
        self.verdicts: dict[int, bool] = {}  # failed or not, for the sampled requests
        self.failed_b_max = 0.0
        self.problems: list[str] = []
        self.broken = False  # no whole-call output to check: failures are per request

    @property
    def sample(self) -> tuple[int, int] | None:
        if not self.verdicts:
            return None
        return len(self.verdicts), sum(self.verdicts.values())

    def call(self, i: int):
        mode, b, gamma, r = self.requests[i] if i < CYCLE_SAMPLE else self.block[i - self.block_start]
        pkg = self.package
        try:
            params = pkg.CycleParams(b=b, gamma=gamma, mode=mode, r=r)
            return i, b, pkg.run_numeric(params), pkg.run_analytic(params)
        except Exception as exc:  # a request that raises is a failed operation
            return i, b, exc, None

    def check(self, outcome) -> tuple[int, int]:
        i, b, numeric, analytic = outcome
        if i + 1 == self.block_start + len(self.block):  # draw the next block outside the timed call
            self.block_start, self.block = i + 1, list(itertools.islice(self.stream, CYCLE_DRAW_AHEAD))
        if isinstance(numeric, Exception):
            ok = False
            if len(self.problems) < 5:
                self.problems.append(f"b={b!r}: {type(numeric).__name__}: {numeric}")
        else:
            ok = abs(numeric.eta - analytic.eta) <= self.tol_oracle
        if not ok:
            self.failed_b_max = max(self.failed_b_max, b)
        if i < CYCLE_SAMPLE:
            first = self.verdicts.setdefault(i, not ok)
            if first != (not ok):
                self.problems.append(f"request {i} (b={b!r}) changed its verdict when repeated")
                self.broken = True
        return 1, int(not ok)


WORKLOADS = {w.name: w for w in (SweepGrid, VerifyDefault, CycleStream)}
