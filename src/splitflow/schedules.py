"""Scalar time schedules with derivative access and piecewise-C^1 structure."""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import SpecError


@dataclasses.dataclass(frozen=True)
class Schedule:
    """A scalar function of time with its derivative and declared structure.

    monotone is one of "nonincreasing", "nondecreasing", "none"; bounds, when
    set, declare the range of the schedule over [0, inf); breakpoints list the
    finitely many times where the derivative may jump.
    """

    fn: Callable[[float], float]
    dfn: Callable[[float], float]
    monotone: str = "none"
    bounds: Optional[Tuple[float, float]] = None
    breakpoints: Tuple[float, ...] = ()

    def __call__(self, t: float) -> float:
        return float(self.fn(t))

    def derivative(self, t: float) -> float:
        return float(self.dfn(t))


def constant(value: float) -> Schedule:
    return Schedule(fn=lambda t: value, dfn=lambda t: 0.0,
                    monotone="none", bounds=(value, value))


def affine_clamped(intercept: float, slope: float, lo: float, hi: float) -> Schedule:
    """clip(intercept + slope*t, lo, hi) with its breakpoints declared."""
    if lo > hi:
        raise SpecError("affine_clamped needs lo <= hi")
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

    monotone = "nondecreasing" if slope >= 0 else "nonincreasing"
    v0 = fn(0.0)
    vinf = hi if slope > 0 else (lo if slope < 0 else v0)
    return Schedule(fn=fn, dfn=dfn, monotone=monotone,
                    bounds=(min(v0, vinf), max(v0, vinf)),
                    breakpoints=tuple(sorted(brk)))


def inv_power(p: float, scale: float = 1.0) -> Schedule:
    """scale / (1 + t)^p, nonincreasing for p, scale > 0."""
    if p <= 0 or scale <= 0:
        raise SpecError("inv_power needs positive p and scale")
    return Schedule(
        fn=lambda t: scale / (1.0 + t) ** p,
        dfn=lambda t: -p * scale / (1.0 + t) ** (p + 1.0),
        monotone="nonincreasing",
        bounds=(0.0, scale),
    )


def over_t(alpha: float) -> Schedule:
    """alpha / t for t > 0 (vanishing damping); undefined at t <= 0."""
    if alpha <= 0:
        raise SpecError("over_t needs positive alpha")

    def fn(t):
        if t <= 0:
            raise SpecError("alpha/t schedule evaluated at t=%g <= 0" % t)
        return alpha / t

    return Schedule(fn=fn, dfn=lambda t: -alpha / (t * t), monotone="nonincreasing")


def exp_decay(base: float, amplitude: float, rate: float = 1.0) -> Schedule:
    """base + amplitude * exp(-rate * t)."""
    if rate <= 0:
        raise SpecError("exp_decay needs positive rate")
    monotone = "nonincreasing" if amplitude >= 0 else "nondecreasing"
    lo = min(base, base + amplitude)
    hi = max(base, base + amplitude)
    return Schedule(
        fn=lambda t: base + amplitude * np.exp(-rate * t),
        dfn=lambda t: -rate * amplitude * np.exp(-rate * t),
        monotone=monotone,
        bounds=(lo, hi),
    )


def check_schedule(s: Schedule, grid) -> dict:
    """Probe a schedule on a grid: derivative vs central differences, tags, bounds."""
    grid = np.asarray(grid, dtype=float)
    vals = np.array([s(t) for t in grid])
    report = {"derivative_ok": True, "monotone_ok": True, "bounds_ok": True,
              "first_violation_t": None}
    h = 1e-6
    for t in grid:
        try:
            fd = (s(t + h) - s(t - h)) / (2.0 * h)
        except ValueError:
            continue
        if any(abs(t - b) < 10 * h for b in s.breakpoints):
            continue
        d = s.derivative(t)
        if abs(fd - d) > 1e-6 * (1.0 + abs(d)):
            report["derivative_ok"] = False
            report["first_violation_t"] = float(t)
            break
    diffs = np.diff(vals)
    if s.monotone == "nonincreasing" and np.any(diffs > 1e-12):
        report["monotone_ok"] = False
    if s.monotone == "nondecreasing" and np.any(diffs < -1e-12):
        report["monotone_ok"] = False
    if s.bounds is not None:
        lo, hi = s.bounds
        if np.any(vals < lo - 1e-9) or np.any(vals > hi + 1e-9):
            report["bounds_ok"] = False
    report["pass"] = report["derivative_ok"] and report["monotone_ok"] and report["bounds_ok"]
    return report
