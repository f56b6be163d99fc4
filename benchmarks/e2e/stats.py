"""Medians, quartiles, regression bounds and compare verdicts."""

from __future__ import annotations

import statistics

#: Absolute floor under a metric's relative bound, by unit: a time metric
#: may always worsen by this much before it counts as a regression.
ABSOLUTE_FLOOR = {"s": 0.05}


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    values = sorted(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def world_mean(pairs) -> float:
    """A run's reported value: the mean over its worlds of each world's
    median, from (world, value) samples."""
    by_world: dict = {}
    for world, value in pairs:
        by_world.setdefault(world, []).append(value)
    return statistics.fmean(statistics.median(values) for values in by_world.values())


def summary(values) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def allowed_worsening(parent_median: float, bound: float, unit: str) -> float:
    """How far a metric may move the wrong way before it is a regression."""
    return max(bound * abs(parent_median), ABSOLUTE_FLOOR.get(unit, 0.0))


def worse_by(parent: float, change: float, better: str) -> float:
    """Signed worsening from ``parent`` to ``change`` (negative = improved)."""
    return change - parent if better == "lower" else parent - change


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def pair_win_fraction(parent, change, better: str) -> float:
    """Share of (parent, change) pairs the change wins; ties win for neither."""
    pairs = list(zip(parent, change))
    if not pairs:
        raise ValueError("no pairs")
    return sum(beats(c, p, better) for p, c in pairs) / len(pairs)


def verdict(
    parent,
    change,
    better: str,
    bound: float,
    unit: str,
    pair_wins: float | None = None,
) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved``.

    A metric is ``unresolved`` when either side's inter-quartile spread is
    wider than the allowed worsening, unless every change value beats
    every parent value.  It is ``worse`` when the change median is worse by
    more than the allowed worsening.  It is ``better`` when the medians
    differ by more than the parent's inter-quartile spread and the change
    wins nine tenths of the pairs (every comparison, without pairs).
    """
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    allowed = allowed_worsening(p_median, bound, unit)
    all_better = all(beats(c, p, better) for c in change for p in parent)
    if max(p_q3 - p_q1, c_q3 - c_q1) > allowed and not all_better:
        return "unresolved"
    delta = worse_by(p_median, c_median, better)
    if delta > allowed:
        return "worse"
    wins = pair_wins >= 0.9 if pair_wins is not None else all_better
    if -delta > p_q3 - p_q1 and wins:
        return "better"
    return "unchanged"
