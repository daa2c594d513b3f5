"""The edges of the parameter ranges: the first value past each edge is refused, with its message.

b must be positive, so b = 0 is refused, whatever its sign; gamma and both
channel strengths must lie in [0, 1], so the float just above 1 is refused.
Each refusal is checked where one point enters (`CycleParams`, the scalar
channels) and where a grid enters (`CycleGrid`, the grid channels), and the
value at the edge itself is accepted.
"""

import math

import numpy as np
import pytest

from measengine import channels
from measengine.channels import first_channel_stack, second_channel_stack
from measengine.cli import main
from measengine.engine import CycleGrid, CycleMode, CycleParams, InvalidCycleError
from measengine.states import DensityMatrix

ABOVE_ONE = math.nextafter(1.0, math.inf)  # 1.0000000000000002
TINY_B = math.nextafter(0.0, math.inf)  # the least positive b, 5e-324


@pytest.mark.parametrize("mode", list(CycleMode))
@pytest.mark.parametrize("b", [0.0, -0.0], ids=["zero", "negative-zero"])
def test_b_zero_is_refused_by_a_point_and_by_a_grid(mode, b):
    message = rf"^b must be finite and positive, got {b!r}$"
    with pytest.raises(InvalidCycleError, match=message):
        CycleParams(b=b, gamma=0.75, mode=mode)
    with pytest.raises(InvalidCycleError, match=message):  # named at its point, the second
        CycleGrid(np.array([1.0, b, 2.0]), np.full(3, 0.75), mode, np.ones(3))


@pytest.mark.parametrize("mode", list(CycleMode))
def test_gamma_just_above_one_is_refused_by_a_point_and_by_a_grid(mode):
    message = r"^gamma must lie in \[0, 1\], got 1\.0000000000000002$"
    with pytest.raises(InvalidCycleError, match=message):
        CycleParams(b=1.0, gamma=ABOVE_ONE, mode=mode)
    with pytest.raises(InvalidCycleError, match=message):
        CycleGrid(np.ones(3), np.array([0.75, ABOVE_ONE, 2.0]), mode, np.ones(3))


@pytest.mark.parametrize("mode", list(CycleMode))
def test_the_edges_themselves_are_accepted(mode):
    for b, gamma in ((TINY_B, 0.75), (1.0, 1.0)):
        CycleParams(b=b, gamma=gamma, mode=mode)
        grid = CycleGrid(np.array([b]), np.array([gamma]), mode, np.ones(1))
        assert grid.thermal.shape == (4, 1)


def test_cycle_command_refuses_b_zero_with_exit_2(capsys):
    code = main(["cycle", "--mode", "three", "--b", "0", "--gamma", "0.75"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "invalid cycle: b must be finite and positive, got 0.0\n"


@pytest.mark.parametrize(("apply", "stack", "name"), [
    (channels._excite, first_channel_stack, "excitation"),
    (channels._damp, second_channel_stack, "damping"),
], ids=["excitation", "damping"])
def test_a_strength_just_above_one_is_refused_by_both_channels(apply, stack, name):
    message = rf"^{name} strength must lie in \[0, 1\], got 1\.0000000000000002$"
    rho = DensityMatrix.from_populations((0.5, 0.5))
    with pytest.raises(ValueError, match=message):
        apply(ABOVE_ONE, rho)
    with pytest.raises(ValueError, match=message):
        stack(np.array([0.5, ABOVE_ONE, 2.0]))
    # Strength 1 itself is accepted by both.
    apply(1.0, rho)
    stack(np.array([0.5, 1.0]))
