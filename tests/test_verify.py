"""`measengine verify`: its output pinned, and the fault-injection seam the benchmark uses."""

import dataclasses
import hashlib
import math
import re
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measengine import verify
from measengine.cli import main

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


def test_checker_keeps_the_nan_rules_and_sorts_failures_by_point():
    points = verify._Points("five", np.array([1.0]), np.array([0.5, 0.6, 0.7]), np.array([2.0]),
                            np.arange(3))
    c = verify._Checker()
    nan = math.nan
    # close passes where both sides are NaN and fails where one is; below fails on NaN.
    c.close("close", points, np.array([nan, nan, 1.0]), np.array([nan, 1.0, nan]), 1e-12)
    c.below("below", points, np.array([nan, 0.0, 1.0]), 0.0)
    assert c.count == 6
    assert [(f.check, f.where) for f in c.failures] == [
        ("below", "five b=1 gamma=0.5 r=2"),
        ("close", "five b=1 gamma=0.6 r=2"),
        ("close", "five b=1 gamma=0.7 r=2"),
        ("below", "five b=1 gamma=0.7 r=2"),
    ]


def test_stacked_field_families_keep_the_nan_rules_and_the_failure_order():
    """`close_fields` gives the count and failures of one `close` per field."""
    points = verify._Points("five", np.array([1.0]), np.array([0.5, 0.6, 0.7]), np.array([2.0]),
                            np.arange(3))
    nan, inf = math.nan, math.inf
    observed, expected = np.zeros((8, 3)), np.zeros((8, 3))
    observed[0], expected[0] = [nan, nan, 1.0], [nan, 1.0, nan]  # NaN/NaN passes, NaN/x fails
    observed[3], expected[3] = [inf, 0.0, -inf], [inf, 0.0, -inf]  # inf - inf is NaN: fails
    observed[6, 1] = 1.0
    stacked, separate = verify._Checker(), verify._Checker()
    for c in (stacked, separate):
        c.below("before", points, np.array([0.0, 1.0, 0.0]), 0.0)
    stacked.close_fields("field-", points, observed, expected, 1e-12)
    for field, obs, exp in zip(verify.LEDGER_FIELDS, observed, expected, strict=True):
        separate.close("field-" + field, points, obs, exp, 1e-12)
    for c in (stacked, separate):
        c.below("after", points, np.array([nan, 1.0, 0.0]), 0.0)
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
    c = verify._Checker()
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
    """Positions give each point the values and sort key of the np.indices arrays of its grid."""
    label = data.draw(st.sampled_from(sorted(SECTIONS)))
    nb, ng = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    nr = data.draw(st.integers(1, 4)) if label == "five" else 1
    values = st.floats(1e-9, 1e3)
    b, gamma, r = (np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
                   for n in (nb, ng, nr))
    bi, gi, ri = (ix.reshape(-1) for ix in np.indices((nb, ng, nr)))
    columns = [b[bi], gamma[gi], r[ri], bi, gi, SECTIONS[label] + ri]
    points = verify._Points(label, b, gamma, r, np.arange(nb * ng * nr))
    for index in data.draw(selections(nb * ng * nr)):
        columns = [column[index] for column in columns]
        points = points[index]
    b_at, gamma_at, r_at, *key = columns
    assert len(points.at) == len(b_at)
    for i in range(len(b_at)):
        where = f"{label} b={float(b_at[i]):g} gamma={float(gamma_at[i]):g}"
        if label == "five":
            where += f" r={float(r_at[i]):g}"
        assert points.where(i) == where
        assert points.key(i) == tuple(int(k[i]) for k in key)


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
def families(draw):
    """(method, name, points, observed, expected, tol, detail) of one family."""
    method = draw(st.sampled_from(("close", "close_fields", "below")))
    nb, ng, nr = (draw(st.integers(1, 3)) for _ in range(3))
    base = verify._Points(draw(st.sampled_from(("five", "three"))), np.linspace(0.1, 1.0, nb),
                          np.linspace(0.5, 1.0, ng), np.linspace(1.0, 2.0, nr),
                          np.arange(nb * ng * nr))
    index = np.array(draw(st.lists(st.integers(0, nb * ng * nr - 1), min_size=1, max_size=4)))
    points = base[index]
    n, tol = len(index), draw(st.sampled_from(TOLS))
    if method == "below":
        bound = draw(st.sampled_from((0.0, 1.0, -2.5)))
        value = np.array([_near(draw, bound, tol) for _ in range(n)])
        return method, "bound", points, value, bound, tol, " level=1"
    rows = len(verify.LEDGER_FIELDS) if method == "close_fields" else 1
    expected = np.array([[draw(st.sampled_from(EDGES) | st.floats(-10.0, 10.0)) for _ in range(n)]
                         for _ in range(rows)])
    observed = np.array([[_near(draw, e, tol) for e in row.tolist()] for row in expected])
    if method == "close_fields":
        return method, "field-", points, observed, expected, tol, ""
    if draw(st.booleans()):  # a scalar expected value, broadcast over the points
        expected[0] = expected[0, 0]
        return method, "close", points, observed[0], float(expected[0, 0]), tol, ""
    return method, "close", points, observed[0], expected[0], tol, ""


def _per_check(recorded) -> tuple[int, list[str]]:
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
                if method == "below":
                    ok = o <= e + tol
                elif math.isnan(o) or math.isnan(e):
                    ok = math.isnan(o) and math.isnan(e)
                else:
                    ok = abs(o - e) <= tol  # inf - inf is NaN and fails
                count += 1
                if not ok:
                    failure = verify.CheckFailure(check, points.where(i) + detail, o, e, tol)
                    failures.append(((*points.key(i), family), str(failure)))
            family += 1
    return count, [line for _, line in sorted(failures, key=itemgetter(0))]


@settings(max_examples=120, deadline=None)
@given(st.lists(families(), min_size=1, max_size=6))
def test_settling_gives_the_count_and_failures_of_each_check_on_its_own(recorded):
    c = verify._Checker()
    for method, name, points, observed, expected, tol, detail in recorded:
        if method == "close_fields":
            c.close_fields(name, points, observed, expected, tol)
        else:
            getattr(c, method)(name, points, observed, expected, tol, detail)
    assert (c.count, [str(f) for f in c.failures]) == _per_check(recorded)
