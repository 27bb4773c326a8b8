"""Scalar time schedules with derivative access and piecewise-C^1 structure.

A schedule is read at one time t, a float, or at an array of times, which
gives an array of the same shape with each entry's bits as at that time
alone.  The families here take both; a Schedule built from a float-only fn
serves the flow fields, but not the second-order probes, which read the
damping and relaxation at every record at once.
"""

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

    def __call__(self, t):
        return _read(self.fn, t)

    def derivative(self, t):
        return _read(self.dfn, t)


def _read(fn, t):
    """fn(t) as a float, or at an array of times as a float64 array of its shape."""
    if isinstance(t, np.ndarray):
        return np.broadcast_to(np.asarray(fn(t), dtype=float), t.shape)
    return float(fn(t))


def _bind(s: Schedule, check: Optional[Callable] = None):
    """The reader t -> s(t) of a flow field; check(value, t), if given, raises or
    returns what the reader gives.

    A schedule whose declared bounds are equal is constant: it is read at
    t = 0 and checked once, here, and the reader returns that value, a float
    as a 0-d float64 array (the cheaper vector operand, see operators) and
    anything else check makes of it (a metric, say) as it is.  Any other
    schedule is read and checked at every call.
    """
    if s.bounds is not None and s.bounds[0] == s.bounds[1]:
        value = s(0.0) if check is None else check(s(0.0), 0.0)
        if isinstance(value, float):
            value = np.array(value)
        return lambda t: value
    if check is None:
        return s
    fn = s.fn  # a float time is read as __call__ does, one call layer less
    return lambda t: check(float(fn(t)) if isinstance(t, float) else s(t), t)


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
        raw = intercept + slope * t
        low = np.where(lo > raw, lo, raw)  # max and min as Python's: a tie keeps the first
        return np.where(hi < low, hi, low)

    def dfn(t):
        raw = intercept + slope * t
        return np.where((lo < raw) & (raw < hi), slope, 0.0)

    v0 = float(fn(0.0))
    vinf = hi if slope > 0 else (lo if slope < 0 else v0)
    return Schedule(fn=fn, dfn=dfn, bounds=(min(v0, vinf), max(v0, vinf)),
                    breakpoints=tuple(sorted(brk)))


def inv_power(p: float, scale: float = 1.0) -> Schedule:
    """scale / (1 + t)^p, nonincreasing for p, scale > 0."""
    if not (p > 0 and scale > 0):
        raise SpecError("inv_power needs positive p and scale")
    return Schedule(
        # np.float_power is C pow() on a float and an array alike; ** on an
        # array has fast paths (p = 2, 0.5, ...) that round otherwise
        fn=lambda t: scale / np.float_power(1.0 + t, p),
        dfn=lambda t: -p * scale / np.float_power(1.0 + t, p + 1.0),
        bounds=(0.0, scale),
    )


def over_t(alpha: float) -> Schedule:
    """alpha / t for t > 0 (vanishing damping); undefined at t <= 0."""
    if not alpha > 0:
        raise SpecError("over_t needs positive alpha")

    def fn(t):
        if np.any(t <= 0) if isinstance(t, np.ndarray) else t <= 0:
            raise SpecError("alpha/t schedule evaluated at t=%g <= 0" % np.min(t))
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
