"""Medians, quartiles and the naming rule the benchmark's output follows."""

from __future__ import annotations

import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def valid_name(name: str) -> bool:
    """Metric and workload names: letters, digits, ``_``, ``.``, ``-``."""
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.match(unit))


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple:
    """First and third quartile as ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))
