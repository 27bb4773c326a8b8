import numpy as np
import pytest

from splitflow.errors import SpecError
from splitflow.schedules import (affine_clamped, check_schedule, constant, exp_decay,
                                 inv_power, over_t)


@pytest.mark.parametrize("sched,t,expected", [
    (constant(0.7), 5.0, 0.7),
    (affine_clamped(0.0, 0.1, 0.0, 0.5), 2.0, 0.2),
    (affine_clamped(0.0, 0.1, 0.0, 0.5), 10.0, 0.5),
    (inv_power(2.0), 1.0, 0.25),
    (over_t(3.0), 2.0, 1.5),
    (exp_decay(2.0, 1.0), 0.0, 3.0),
    (exp_decay(1.0, -0.5), 0.0, 0.5),
])
def test_family_values(sched, t, expected):
    assert sched(t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("sched", [
    constant(0.3),
    affine_clamped(0.1, 0.05, 0.0, 1.0),
    inv_power(1.5, scale=2.0),
    exp_decay(2.0, 1.0),
    exp_decay(1.0, -0.5),
])
def test_derivative_matches_central_differences(sched):
    grid = np.linspace(0.5, 30.0, 40)
    report = check_schedule(sched, grid)
    assert report["derivative_ok"], report
    assert report["pass"], report


def test_over_t_derivative_and_domain():
    s = over_t(3.0)
    report = check_schedule(s, np.linspace(1.0, 10.0, 20))
    assert report["derivative_ok"]
    with pytest.raises(SpecError):
        s(0.0)


def test_monotone_tags():
    assert inv_power(1.0).monotone == "nonincreasing"
    assert exp_decay(1.0, -0.5).monotone == "nondecreasing"
    assert affine_clamped(0.0, -1.0, 0.0, 1.0).monotone == "nonincreasing"


def test_affine_clamped_breakpoints_declared():
    s = affine_clamped(0.0, 0.1, 0.0, 0.5)
    assert s.breakpoints == (5.0,)


def test_declared_bounds_hold_on_grid():
    s = exp_decay(2.0, 1.0)  # range (2, 3]
    grid = np.linspace(0.0, 50.0, 100)
    vals = np.array([s(t) for t in grid])
    lo, hi = s.bounds
    assert np.all(vals >= lo - 1e-9) and np.all(vals <= hi + 1e-9)
