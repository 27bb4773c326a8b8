"""Scalar time schedules with derivative access and piecewise-C^1 structure."""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import SpecError


@dataclasses.dataclass(frozen=True)
class Schedule:
    """A scalar function of time with its derivative and declared structure.

    bounds, when set, declare the range of the schedule over [0, inf);
    breakpoints list the finitely many times where the derivative may jump.
    Monotonicity is read from the sign of the derivative, not declared.
    """

    fn: Callable[[float], float]
    dfn: Callable[[float], float]
    bounds: Optional[Tuple[float, float]] = None
    breakpoints: Tuple[float, ...] = ()

    def __call__(self, t: float) -> float:
        return float(self.fn(t))

    def derivative(self, t: float) -> float:
        return float(self.dfn(t))


def _bind(s: Schedule, check: Optional[Callable] = None, as_array: bool = True):
    """The reader t -> s(t) of a flow field; check(value, t), if given, raises or
    returns what the reader gives.

    A schedule whose declared bounds are equal is constant: it is read at
    t = 0 and checked once, here, and the reader returns that value, as a
    0-d float64 array when as_array (the cheaper vector operand, see
    operators).  Any other schedule is read and checked at every call.
    """
    if s.bounds is not None and s.bounds[0] == s.bounds[1]:
        value = s(0.0) if check is None else check(s(0.0), 0.0)
        if as_array:
            value = np.array(value)
        return lambda t: value
    if check is None:
        return s
    fn = s.fn  # read as __call__ does, one call layer less
    return lambda t: check(float(fn(t)), t)


def constant(value: float) -> Schedule:
    if math.isnan(value):
        raise SpecError("constant schedule needs a number, got nan")
    return Schedule(fn=lambda t: value, dfn=lambda t: 0.0, bounds=(value, value))


def affine_clamped(intercept: float, slope: float, lo: float, hi: float) -> Schedule:
    """clip(intercept + slope*t, lo, hi) with its breakpoints declared."""
    if not lo <= hi:
        raise SpecError("affine_clamped needs lo <= hi")
    if math.isnan(intercept) or math.isnan(slope):
        raise SpecError("affine_clamped needs a number for intercept and slope")
    brk = []
    if slope != 0.0:
        for level in (lo, hi):
            tb = (level - intercept) / slope
            if tb > 0:
                brk.append(tb)

    def fn(t):
        return min(max(intercept + slope * t, lo), hi)

    def dfn(t):
        raw = intercept + slope * t
        return slope if lo < raw < hi else 0.0

    v0 = fn(0.0)
    vinf = hi if slope > 0 else (lo if slope < 0 else v0)
    return Schedule(fn=fn, dfn=dfn, bounds=(min(v0, vinf), max(v0, vinf)),
                    breakpoints=tuple(sorted(brk)))


def inv_power(p: float, scale: float = 1.0) -> Schedule:
    """scale / (1 + t)^p, nonincreasing for p, scale > 0."""
    if not (p > 0 and scale > 0):
        raise SpecError("inv_power needs positive p and scale")
    return Schedule(
        fn=lambda t: scale / (1.0 + t) ** p,
        dfn=lambda t: -p * scale / (1.0 + t) ** (p + 1.0),
        bounds=(0.0, scale),
    )


def over_t(alpha: float) -> Schedule:
    """alpha / t for t > 0 (vanishing damping); undefined at t <= 0."""
    if not alpha > 0:
        raise SpecError("over_t needs positive alpha")

    def fn(t):
        if t <= 0:
            raise SpecError("alpha/t schedule evaluated at t=%g <= 0" % t)
        return alpha / t

    return Schedule(fn=fn, dfn=lambda t: -alpha / (t * t))


def exp_decay(base: float, amplitude: float, rate: float = 1.0) -> Schedule:
    """base + amplitude * exp(-rate * t)."""
    if not rate > 0:
        raise SpecError("exp_decay needs positive rate")
    if math.isnan(base) or math.isnan(amplitude):
        raise SpecError("exp_decay needs a number for base and amplitude")
    lo = min(base, base + amplitude)
    hi = max(base, base + amplitude)
    return Schedule(
        fn=lambda t: base + amplitude * np.exp(-rate * t),
        dfn=lambda t: -rate * amplitude * np.exp(-rate * t),
        bounds=(lo, hi),
    )
