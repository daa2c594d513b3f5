"""Locating the package under test, machine-speed calibration, run environment."""

from __future__ import annotations

import contextlib
import io
import math
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Time of one calibration unit on the reference machine: a 2-core
# "Intel(R) Xeon(R) Processor" VM in its fast state (1.35-1.55 ms seen).
CALIBRATION_REF_S = 0.0016
_CALIBRATION_STEPS = 100
SAMPLE_EVERY_S = 0.05  # interval of SpeedSampler's calibration units
SPEED_WINDOW_S = 0.5  # a call is scaled by the units sampled this close to it
SPEED_MIN_UNITS = 5


def load_package():
    """Import measengine from this checkout's `src/`, never from elsewhere."""
    package_dir = SRC / "measengine"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"bench: measengine sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import measengine

    if Path(measengine.__file__).resolve().parent != package_dir:
        raise SystemExit(f"bench: imported measengine from {measengine.__file__}, not {package_dir}")
    return measengine


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Run `measengine.cli.main(argv)` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def calibration_seconds() -> float:
    """Time one fixed unit of interpreter-bound numpy work, like measengine's own.

    The shared machines this runs on change speed by up to 1.8x within
    minutes, and measengine slows down with them.  Dividing a duration by
    the calibration time measured next to it removes most of that drift;
    multiplying by CALIBRATION_REF_S keeps the result in seconds on the
    reference machine.  The loop is the benchmark's own code, so no change
    to measengine moves it.
    """
    import numpy as np

    a = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(_CALIBRATION_STEPS):
        b = np.asarray(a, dtype=complex)
        if not np.all(np.isfinite(b.real)) or not np.all(np.isfinite(b.imag)):
            raise ArithmeticError("calibration matrix is not finite")
        c = b @ b.conj().T
        acc += complex(np.trace(c)).real + math.exp(-0.001 * i)
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration sum is not finite")
    return elapsed


def calibration_point(seconds: float = 0.0) -> float:
    """Median calibration unit over at least three units and about `seconds`.

    The median keeps one interrupted unit from counting; a longer point
    samples more of a machine speed that changes within a second.
    """
    units = [calibration_seconds() for _ in range(3)]
    while sum(units) < seconds:
        units.append(calibration_seconds())
    return statistics.median(units)


class SpeedSampler:
    """Samples the machine's speed on an interval timer, also inside calls.

    While `running()`, a SIGALRM handler runs one calibration unit every
    SAMPLE_EVERY_S, whatever the process is doing, and keeps its start time
    and duration.  Python runs the handler between bytecodes, so a long
    call (a 2000-row sweep takes seconds) is sampled throughout, and the
    mean unit over a call measures the speed it actually ran at.  `spent`
    is the handler's own time, which the caller takes out of the calls it
    interrupted.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.units: list[float] = []
        self.spent = 0.0
        self._active = False

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.units.append(calibration_seconds())
        self.times.append(t0)
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._active = True
        try:
            yield self
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def paused(self):
        """No samples inside, for work that is neither a call nor idle."""
        if not self._active:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def scales(self, starts, ends):
        """CALIBRATION_REF_S over the mean unit near each call, as an array.

        `starts` and `ends` are arrays of the calls' perf_counter times.  The
        units sampled within SPEED_WINDOW_S of a call count, and at least
        the SPEED_MIN_UNITS nearest ones.
        """
        import numpy as np

        n = len(self.units)
        if n < SPEED_MIN_UNITS:
            raise RuntimeError("too few speed samples: the run was shorter than a few sample intervals")
        times = np.asarray(self.times)
        prefix = np.concatenate(([0.0], np.cumsum(self.units)))
        lo = np.searchsorted(times, starts - SPEED_WINDOW_S, "left")
        hi = np.searchsorted(times, ends + SPEED_WINDOW_S, "right")
        for j in np.flatnonzero(hi - lo < SPEED_MIN_UNITS):
            while hi[j] - lo[j] < SPEED_MIN_UNITS:
                if lo[j] > 0 and (hi[j] == n or starts[j] - times[lo[j] - 1] < times[hi[j]] - ends[j]):
                    lo[j] -= 1
                else:
                    hi[j] += 1
        return CALIBRATION_REF_S * (hi - lo) / (prefix[hi] - prefix[lo])


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict[str, object]:
    """Versions, machine and commit that a result was measured with."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "seed": seed,
    }
