"""`measengine verify`: its output pinned, and the fault-injection seam the benchmark uses."""

import dataclasses
import functools
import hashlib
import itertools
import math
import re
import time
from collections import Counter
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from measengine import verify
from measengine.channels import COMPLETENESS_TOL, completeness_deviation_stack, first_channel_stack
from measengine.cli import main
from measengine.engine import CycleGrid, CycleMode

# stdout digests (elapsed seconds stripped), exit codes, check and failure
# counts, recorded from the point-by-point implementation on scalar
# DensityMatrix/KrausSet ledgers before verify moved onto CycleGrid stacks;
# the empty-grid case was recorded from the grid implementation before its
# checks became global reductions.
RECORDED = [
    ([], 0, 1672, 0, "bee87c195a2f5fc0fa998f86c1ae69840f9e51d7d1d33161e94b26b62aeae7f5"),
    (["--perturb", "q_in"], 3, 1672, 144,
     "a1e10520b6afac5e85201ac7f7f51562be6231dc46e46aa16f12939c7bbb9155"),
    (["--perturb", "q_out"], 3, 1672, 144,
     "ba62aa5b886b4a1a85f5edb3bf0772126f59c24055187ca8971fbdc783987794"),
    (["--perturb", "w_api"], 3, 1672, 140,
     "09a9c3028051bd00176f1fe99d5b18e08bce183eb6e7a39da767475e337874fb"),
    (["--perturb", "w_apii"], 3, 1672, 140,
     "de2733765536b053213091a1928a74569a0bb3d7271ceea4762f2128c3cf6750"),
    (["--perturb", "delta"], 3, 1672, 140,
     "dd5ba1ab7b4ad0111a8a68b512679d2cb4aaffd02c6deec4f420201f5fa2dd0f"),
    (["--perturb", "w_ext"], 3, 1672, 80,
     "a7658ca82458c141ee40ff6a2b9fb5b9df7516ae9cbd2664bd0a7771340c60fb"),
    (["--perturb", "eta"], 3, 1672, 160,
     "2e602181aae13939e9d0316cb121e26fbf1cf4d1f3f5c911601cab00e694cca0"),
    (["--perturb", "q_used"], 3, 1672, 80,
     "43f8de4700585099a17b75aa00184551a43e17179ff94c23d0d8c22af3c308b6"),
    (["--grid-b", "1e-8"], 3, 418, 24,
     "8818301b1bbb07131390a4742786473bcc0848d6274967591cec40eb884f9016"),
    (["--grid-gamma", "0,0.3,0.49,0.5,0.51,1"], 0, 1020, 0,
     "b985a09315d807c99ea7def7f9aa84f4ea62b3cd05f684d46c8b9d2bb917867e"),
    (["--grid-b", "0.05,3", "--grid-gamma", "0.2,0.5,0.7", "--grid-r", "1,1.5"], 0, 260, 0,
     "7f490f411383ce2d4b18adad055719a80b1c286ed5c2845d611f1e723d83d8d1"),
    # Mixed grids, gamma below 1/2 at some points: recorded before verify evolved the b x gamma
    # grid itself wherever every point is realizable.
    (["--grid-b", "0.1,1", "--grid-gamma", "0.3,0.5,0.75", "--grid-r", "1,2"], 0, 260, 0,
     "7f490f411383ce2d4b18adad055719a80b1c286ed5c2845d611f1e723d83d8d1"),
    (["--grid-b", "0.1,1", "--grid-gamma", "0.3,0.5,0.75", "--grid-r", "1,2",
      "--perturb", "w_ext"], 3, 260, 12,
     "b2047ffaf1e63fbe5876a51ef8850cf0b070fb606a9c8c8162ea6d636238f25f"),
    (["--grid-b", "10", "--grid-gamma", "0.4999999999995,0.5"], 0, 85, 0,
     "3a15a9b02b6ae32e624e43fc04cad913da16516f281259bf56410a74c0531605"),
    (["--grid-b", "10", "--grid-gamma", "0.4999999999995,0.5", "--perturb", "q_out"], 3, 85, 7,
     "e04f5acce541b1f745d6a5200716c060631777872d658446f214b6510bc5ded4"),
    # No realizable point: only the excitation channels are checked, every stack is empty.
    (["--grid-gamma", "0.3,0.4"], 0, 8, 0,
     "84962861e9cc668a14080863de2139ef8abc471015d5ac71b3c4debdec667f8f"),
]


# b up to 700 and r up to 100, where the default grid (b <= 5, r <= 5) does not reach.
WIDE_RANGE = ["--grid-b", "1e-3,0.01,0.1,1,10,100,700", "--grid-gamma", "0.5,0.6,0.75,0.9,1.0",
              "--grid-r", "1,2,10,100"]
# Recorded while the grid engine's stacks were complex128.
WIDE_RANGE_DIGEST = "f9780ae87a829e6294d04c3e7e863d25d91ea1bd144a9346de95cf94d562adce"


def run_verify(capsys, *argv) -> tuple[int, str]:
    code = main(["verify", *argv])
    return code, capsys.readouterr().out


def summary_counts(out: str) -> tuple[int, int]:
    checks, failures = re.search(r"^verify: (\d+) checks, (\d+) failures, ", out, re.M).groups()
    return int(checks), int(failures)


@pytest.mark.parametrize(("argv", "code", "checks", "failures", "digest"), RECORDED,
                         ids=[" ".join(argv) or "default" for argv, *_ in RECORDED])
def test_output_is_the_recorded_one(capsys, argv, code, checks, failures, digest):
    got_code, out = run_verify(capsys, *argv)
    assert (got_code, summary_counts(out)) == (code, (checks, failures))
    stripped = re.sub(r", [0-9.]+ s$", ", s", out, flags=re.M)
    assert hashlib.sha256(stripped.encode()).hexdigest() == digest


def test_wide_range_grid_passes_every_check(capsys):
    code, out = run_verify(capsys, *WIDE_RANGE)
    assert (code, summary_counts(out)) == (0, (3591, 0))
    stripped = re.sub(r", [0-9.]+ s$", ", s", out, flags=re.M)
    assert hashlib.sha256(stripped.encode()).hexdigest() == WIDE_RANGE_DIGEST


def test_wide_range_fault_fails_through_the_per_family_replay(capsys):
    code, out = run_verify(capsys, *WIDE_RANGE, "--perturb", "w_ext")
    assert (code, summary_counts(out)) == (3, (3591, 175))
    stripped = re.sub(r", [0-9.]+ s$", ", s", out, flags=re.M)
    # Recorded while each check family was settled by its own comparison.
    assert hashlib.sha256(stripped.encode()).hexdigest() == (
        "85d27a462fbfa00f00ef33a19a0bd58b6f32aa2c2279fd307e0372b68b3249cf")


# A bad grid is refused with the `CycleParams` error of its first bad point in the flat
# b > gamma > r order: a bad r is met at the first (b, gamma), before a later bad b or gamma.
@pytest.mark.parametrize(("argv", "message"), [
    (["--grid-b", "1,-1", "--grid-r", "0.5"], "frequency ratio r must be >= 1, got 0.5"),
    (["--grid-gamma", "0.6,2", "--grid-r", "0.5"], "frequency ratio r must be >= 1, got 0.5"),
    (["--grid-b=-1,1", "--grid-r", "0.5"], "b must be finite and positive, got -1.0"),
    (["--grid-gamma=2,0.6", "--grid-r", "0.5"], "gamma must lie in [0, 1], got 2.0"),
    (["--grid-b", "1,-1"], "b must be finite and positive, got -1.0"),
    (["--grid-r", "1,inf,0.5"], "frequency ratio r must be >= 1, got inf"),
], ids=lambda value: value if isinstance(value, str) else " ".join(value))
def test_a_bad_grid_is_refused_with_its_first_bad_point_error(capsys, argv, message):
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr() == ("", f"invalid cycle: {message}\n")


# The whole physical range: b 1e-8..700, gamma 1/2..1, r 1..1e6.  The failures are the known
# small-b and large-r precision defects (ROADMAP items 4 and 8), pinned so that they show: only
# a change that says it changes numerics may move these counts or the digest.
DENSE_AXES = (np.logspace(-8, np.log10(700), 200).tolist(), np.linspace(0.5, 1, 50).tolist(),
              np.logspace(0, 6, 10).tolist())
DENSE_FAILURES = {
    "first-law": 6859, "oracle-equivalence-eta": 4605, "efficiency-law": 4605,
    "oracle-equivalence-delta": 1394, "oracle-equivalence-q_in": 814,
    "oracle-equivalence-w_ext": 814, "oracle-equivalence-w_apii": 658, "entropy-ordering": 74,
    "oracle-equivalence-w_api": 50,
}
# sha256 of the sorted FAIL lines joined by newlines, recorded before verify shared one
# evolution of each (b, gamma) point between its three- and five-stroke ledgers.
DENSE_FAILURES_DIGEST = "ef0345b5ce07d0b2ff3a79c5f16fae0b3e459b670a61e4b60480dbd7421fc65f"
# sha256 of the FAIL lines in the order they print, recorded while each failure was named and
# keyed by its own np.unravel_index.
DENSE_FAILURES_IN_ORDER_DIGEST = "c17b068408eb76393107efa8ae36e56340a456c19b062cee0542e3a3872f3f62"


def test_dense_whole_range_run_keeps_its_pinned_failures():
    report = verify.run_verification(*DENSE_AXES)
    assert report.checks_run == 2_160_600
    assert Counter(failure.check for failure in report.failures) == DENSE_FAILURES
    assert sum(DENSE_FAILURES.values()) == 19_873
    lines = "\n".join(sorted(map(str, report.failures)))
    assert hashlib.sha256(lines.encode()).hexdigest() == DENSE_FAILURES_DIGEST
    lines = "\n".join(map(str, report.failures))
    assert hashlib.sha256(lines.encode()).hexdigest() == DENSE_FAILURES_IN_ORDER_DIGEST


def test_elapsed_time_includes_settling(monkeypatch):
    checker = verify._Checker

    class Slow(checker):
        @functools.cached_property
        def _settled(self):
            time.sleep(0.05)
            return checker._settled.func(self)

    monkeypatch.setattr(verify, "_Checker", Slow)
    report = verify.run_verification()
    assert (report.checks_run, report.failures) == (1672, [])
    assert report.elapsed_seconds >= 0.05


def test_injected_five_stroke_fault_spares_the_three_stroke_reference(capsys, monkeypatch):
    run_five = verify.run_five_stroke_numeric

    def q_out_off(grid):
        ledger = run_five(grid)
        return dataclasses.replace(ledger, q_out=ledger.q_out + 0.1)

    monkeypatch.setattr(verify, "run_five_stroke_numeric", q_out_off)
    code, out = run_verify(capsys)
    assert code == 3
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    checks = {line.split()[1] for line in failed}
    assert {"reduction-r1-q_out", "first-law", "oracle-equivalence-q_out"} <= checks
    assert not [line for line in failed if "[three " in line]
    # 60 five-stroke points fail oracle and first law, the 20 at r = 1 the reduction too.
    assert summary_counts(out) == (1672, 140)


@pytest.mark.parametrize("axes", [
    (verify.DEFAULT_B_GRID, verify.DEFAULT_GAMMA_GRID, verify.DEFAULT_R_GRID),
    ((0.1, 1.0), (0.3, 0.5, 0.75), (1.0, 2.0)),
    ((0.05, 3.0), (0.2, 0.5, 0.7), (1.0, 1.5)),
    ((10.0,), (0.4999999999995, 0.5), (1.0,)),
    ((1.0, 700.0), (0.0, 0.3, 0.4), (1.0,)),
], ids=["default", "mixed", "mixed-low-b", "just-below-half", "none-realizable"])
def test_excite_family_is_the_excitation_deviation_of_every_point(monkeypatch, axes):
    """Read from the evolution where a point is evolved and formed for it where not, bit for bit.

    The skipped points (gamma < 1/2) are a family of their own, recorded only where some point
    is skipped.
    """
    checkers = []

    class Kept(verify._Checker):
        def __init__(self, *axes):
            super().__init__(*axes)
            checkers.append(self)

    monkeypatch.setattr(verify, "_Checker", Kept)
    assert verify.run_verification(*axes).passed
    excite = [family for family in checkers[0]._families if family[1].label == "excite"]
    grid = CycleGrid.product(*axes, CycleMode.FIVE_STROKE)
    evolved = grid.realizable
    assert len(excite) == (1 if evolved.all() else 2)
    got = np.empty(len(grid))
    for (checks, points, deviation, expected, tol, detail), realizable in zip(excite, (True, False)):
        assert (checks, expected, tol, detail) == (("channel-completeness",), 0.0,
                                                  COMPLETENESS_TOL, "")
        assert points.at.tolist() == np.flatnonzero(evolved == realizable).tolist()
        got[points.at] = deviation
    expected = completeness_deviation_stack(first_channel_stack(grid.strength))
    assert got.tobytes() == expected.tobytes()


# One b, three gamma, one r: positions 0, 1, 2 of a five-stroke grid.
AXES = (np.array([1.0]), np.array([0.5, 0.6, 0.7]), np.array([2.0]))


def test_checker_keeps_the_nan_rules_and_sorts_failures_by_point():
    points = verify._Points("five", np.arange(3))
    c = verify._Checker(*AXES)
    nan = math.nan
    # close passes where both sides are NaN and fails where one is: against 0, NaN fails.
    c.close("close", points, np.array([nan, nan, 1.0]), np.array([nan, 1.0, nan]), 1e-12)
    c.close("bound", points, np.array([nan, 0.0, 1.0]), 0.0, 0.0)
    assert c.count == 6
    assert [(f.check, f.where) for f in c.failures] == [
        ("bound", "five b=1 gamma=0.5 r=2"),
        ("close", "five b=1 gamma=0.6 r=2"),
        ("close", "five b=1 gamma=0.7 r=2"),
        ("bound", "five b=1 gamma=0.7 r=2"),
    ]


def test_one_sided_check_fails_exactly_above_zero_and_at_nan():
    """value <= 0 as `close` of max(value, 0) against 0 at tol 0, printing the value itself."""
    points = verify._Points("three", np.arange(5))
    c = verify._Checker(np.array([1.0]), np.array([0.5, 0.6, 0.7, 0.8, 0.9]), np.array([2.0]))
    value = np.array([-1.0, -0.0, 0.0, 1.0, math.nan])
    c.close("entropy-ordering", points, np.maximum(value, 0.0), 0.0, 0.0)
    assert c.count == 5
    assert [str(f) for f in c.failures] == [
        "FAIL entropy-ordering [three b=1 gamma=0.8]: observed=1 expected=0 tol=0",
        "FAIL entropy-ordering [three b=1 gamma=0.9]: observed=nan expected=0 tol=0",
    ]


def test_stacked_field_families_keep_the_nan_rules_and_the_failure_order():
    """`close_fields` gives the count and failures of one `close` per field."""
    points = verify._Points("five", np.arange(3))
    nan, inf = math.nan, math.inf
    observed, expected = np.zeros((8, 3)), np.zeros((8, 3))
    observed[0], expected[0] = [nan, nan, 1.0], [nan, 1.0, nan]  # NaN/NaN passes, NaN/x fails
    observed[3], expected[3] = [inf, 0.0, -inf], [inf, 0.0, -inf]  # inf - inf is NaN: fails
    observed[6, 1] = 1.0
    stacked, separate = verify._Checker(*AXES), verify._Checker(*AXES)
    for c in (stacked, separate):
        c.close("before", points, np.array([0.0, 1.0, 0.0]), 0.0, 0.0)
    stacked.close_fields("field-", points, observed, expected, 1e-12)
    for field, obs, exp in zip(verify.LEDGER_FIELDS, observed, expected, strict=True):
        separate.close("field-" + field, points, obs, exp, 1e-12)
    for c in (stacked, separate):
        c.close("after", points, np.array([nan, 1.0, 0.0]), 0.0, 0.0)
    assert stacked.count == separate.count == 3 + 24 + 3
    assert [str(f) for f in stacked.failures] == [str(f) for f in separate.failures]
    assert [(f.check, f.where) for f in stacked.failures] == [
        ("field-w_apii", "five b=1 gamma=0.5 r=2"),
        ("after", "five b=1 gamma=0.5 r=2"),
        ("before", "five b=1 gamma=0.6 r=2"),
        ("field-q_in", "five b=1 gamma=0.6 r=2"),
        ("field-eta", "five b=1 gamma=0.6 r=2"),
        ("after", "five b=1 gamma=0.6 r=2"),
        ("field-q_in", "five b=1 gamma=0.7 r=2"),
        ("field-w_apii", "five b=1 gamma=0.7 r=2"),
    ]
    # All passing: one comparison, the same count.
    c = verify._Checker(*AXES)
    c.close_fields("field-", points, observed[1:2].repeat(8, axis=0), expected[1:2].repeat(8, 0),
                   1e-12)
    assert (c.count, c.failures) == (24, [])


# The section of each label at r_index 0, as the index arrays of the grids gave it.
SECTIONS = {"excite": 0, "damp": 0, "three": 1, "five": 2}


@st.composite
def selections(draw, n: int):
    """Up to three numpy indices applied in turn to n points: masks or position lists."""
    chosen = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            index = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
            n = int(index.sum())
        elif n:
            index = np.array(draw(st.lists(st.integers(0, n - 1), max_size=6)), dtype=int)
            n = len(index)
        else:
            break
        chosen.append(index)
    return chosen


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_points_name_and_sort_as_the_grid_index_arrays_do(data):
    """Positions give each point the values and sort key of the np.indices arrays of its grid.

    Read through a checker in which every position fails, its observed value being its place.
    """
    label = data.draw(st.sampled_from(sorted(SECTIONS)))
    nb, ng, nr_axis = (data.draw(st.integers(1, n)) for n in (4, 5, 4))
    nr = nr_axis if label == "five" else 1  # only five points have an r
    values = st.floats(1e-9, 1e3)
    b, gamma, r = (np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
                   for n in (nb, ng, nr_axis))
    bi, gi, ri = (ix.reshape(-1) for ix in np.indices((nb, ng, nr)))
    columns = [b[bi], gamma[gi], r[ri], bi, gi, SECTIONS[label] + ri]
    points = verify._Points(label, np.arange(nb * ng * nr))
    for index in data.draw(selections(nb * ng * nr)):
        columns = [column[index] for column in columns]
        points = points[index]
    b_at, gamma_at, r_at, *key = columns
    n = len(points.at)
    assert n == len(b_at)
    c = verify._Checker(b, gamma, r)
    c.close("every", points, np.arange(1.0, n + 1.0), 0.0, 0.0)
    expected = []
    for i in sorted(range(n), key=lambda i: tuple(int(k[i]) for k in key)):
        where = f"{label} b={float(b_at[i]):g} gamma={float(gamma_at[i]):g}"
        if label == "five":
            where += f" r={float(r_at[i]):g}"
        expected.append((where, i + 1.0))
    assert [(f.where, f.observed) for f in c.failures] == expected


# Settling all families in one comparison against the rule of each check, point by point.
EDGES = (0.0, -0.0, 1.0, -2.5, 2.0**-40, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
         2.2250738585072014e-308)  # the last: the smallest normal
TOLS = (0.0, 1e-12, 1e-10, 5e-324, 2.0**-40)


def _near(draw, expected: float, tol: float) -> float:
    """A value at expected + tol, or one ulp of tol either side, or anything."""
    shift = draw(st.sampled_from((tol, math.nextafter(tol, 0.0), math.nextafter(tol, math.inf))))
    return draw(st.sampled_from((expected + shift, expected - shift, expected))
                | st.sampled_from(EDGES) | st.floats(-10.0, 10.0))


@st.composite
def families(draw, axes):
    """(method, name, points, observed, expected, tol, detail) of one family over `axes`."""
    method = draw(st.sampled_from(("close", "close_fields", "bound")))
    label = draw(st.sampled_from(("five", "three")))
    size = len(axes[0]) * len(axes[1]) * (len(axes[2]) if label == "five" else 1)
    index = np.array(draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4)))
    points = verify._Points(label, np.arange(size))[index]
    n, tol = len(index), draw(st.sampled_from(TOLS))
    anything = st.sampled_from(EDGES) | st.floats(-10.0, 10.0)
    if method == "bound":  # |value| <= tol: `close` against the scalar 0.0
        value = np.array([_near(draw, 0.0, tol) for _ in range(n)])
        return "close", "bound", points, value, 0.0, tol, " level=1"
    rows = len(verify.LEDGER_FIELDS) if method == "close_fields" else 1
    expected = np.array([[draw(anything) for _ in range(n)] for _ in range(rows)])
    if method == "close":  # a scalar expected value, broadcast over the points, zero most often
        scalar = draw(st.none() | st.sampled_from((0.0, -0.0)) | anything)
        if scalar is not None:
            expected[0] = scalar
    observed = np.array([[_near(draw, e, tol) for e in row.tolist()] for row in expected])
    if method == "close_fields":
        return method, "field-", points, observed, expected, tol, ""
    if scalar is not None:
        return method, "close", points, observed[0], scalar, tol, ""
    return method, "close", points, observed[0], expected[0], tol, ""


PAIRED = (0.0, -0.0, 1.0, -1.0, 1e-12, 5e-324, math.inf, -math.inf, math.nan)


def _every_pair() -> tuple[tuple, list[tuple]]:
    """Axes and families that meet every pair of edge values, with tolerance 0 and not.

    Each value of PAIRED is observed against each as an array expected value, and against
    the scalar expected values 0.0, -0.0 and 1.0.
    """
    n = len(PAIRED)
    axes = (np.array([0.1]), np.linspace(0.5, 1.0, n * n), np.array([1.0, 2.0]))
    points = verify._Points("five", np.arange(0, 2 * n * n, 2))  # r = 1
    observed, expected = (np.array(pair) for pair in zip(*itertools.product(PAIRED, PAIRED)))
    alone = np.array(PAIRED)
    recorded = []
    for tol in (0.0, 1e-12):
        recorded += [
            ("close", "pair", points, observed, expected, tol, ""),
            ("close", "bound", points[:n], alone, 0.0, tol, ""),
            ("close_fields", "field-", points, np.roll(np.tile(observed, (8, 1)), 1, axis=1),
             np.tile(expected, (8, 1)), tol, ""),
        ]
        for scalar in (0.0, -0.0, 1.0):
            recorded.append(("close", "scalar", points[:n], alone, scalar, tol, f" at={scalar}"))
    return axes, recorded


@st.composite
def recordings(draw):
    """Axes and up to six families over them."""
    axes = tuple(np.linspace(lo, hi, draw(st.integers(1, 3)))
                 for lo, hi in ((0.1, 1.0), (0.5, 1.0), (1.0, 2.0)))
    return axes, draw(st.lists(families(axes), min_size=1, max_size=6))


def _named(axes, points: verify._Points, i: int) -> tuple[str, tuple[int, int, int]]:
    """The name and sort key of point i, read from the np.indices arrays of its grid."""
    b, gamma, r = axes
    five = points.label == "five"
    bi, gi, ri = (ix.reshape(-1) for ix in np.indices((len(b), len(gamma), len(r) if five else 1)))
    p = points.at[i]
    where = f"{points.label} b={float(b[bi[p]]):g} gamma={float(gamma[gi[p]]):g}"
    if five:
        where += f" r={float(r[ri[p]]):g}"
    return where, (int(bi[p]), int(gi[p]), SECTIONS[points.label] + int(ri[p]))


def _per_check(axes, recorded) -> tuple[int, list[str]]:
    """The count and FAIL lines of each check applied on its own, with Python floats."""
    count, failures, family = 0, [], 0
    for method, name, points, observed, expected, tol, detail in recorded:
        if method == "close_fields":
            rows = [(name + field, o, e)
                    for field, o, e in zip(verify.LEDGER_FIELDS, observed, expected, strict=True)]
        else:
            rows = [(name, observed, np.broadcast_to(expected, observed.shape))]
        for check, obs, exp in rows:
            for i, (o, e) in enumerate(zip(obs.tolist(), exp.tolist(), strict=True)):
                if math.isnan(o) or math.isnan(e):
                    ok = math.isnan(o) and math.isnan(e)
                else:
                    ok = abs(o - e) <= tol  # inf - inf is NaN and fails
                count += 1
                if not ok:
                    where, key = _named(axes, points, i)
                    failure = verify.CheckFailure(check, where + detail, o, e, tol)
                    failures.append(((*key, family), str(failure)))
            family += 1
    return count, [line for _, line in sorted(failures, key=itemgetter(0))]


@settings(max_examples=120, deadline=None)
@given(recordings())
@example(_every_pair())
def test_settling_gives_the_count_and_failures_of_each_check_on_its_own(recording):
    axes, recorded = recording
    c = verify._Checker(*axes)
    for method, name, points, observed, expected, tol, detail in recorded:
        if method == "close_fields":
            c.close_fields(name, points, observed, expected, tol)
        else:
            c.close(name, points, observed, expected, tol, detail)
    assert (c.count, [str(f) for f in c.failures]) == _per_check(axes, recorded)
