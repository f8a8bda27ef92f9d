"""Percentile summaries that state the sample count behind them."""

from __future__ import annotations

import numpy as np

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.0, 90.0, 50.0)
#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Window of :func:`windowed_rate`, in seconds.
WINDOW_S = 1.0


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it."""
    for q in TAIL_LADDER:
        if count * (1.0 - q / 100.0) >= MIN_BEYOND:
            return q
    return None


def summarize(values) -> dict:
    """``{"n", "p50", "tail", "tail_pct"}`` of ``values``.

    ``tail`` is the percentile ``tail_pct`` from :func:`tail_percentile`, or
    the maximum (with ``tail_pct`` None) when there are too few samples.
    """
    values = np.asarray(values, dtype=np.float64)
    n = int(values.size)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": None}
    q = tail_percentile(n)
    return {
        "n": n,
        "p50": float(np.percentile(values, 50.0)),
        "tail": float(np.percentile(values, q)) if q is not None else float(values.max()),
        "tail_pct": q,
    }


def _windows(stamps: np.ndarray):
    """Masks of the ``WINDOW_S``-second windows of ``stamps`` holding two or more."""
    for index in range(int(stamps[-1] // WINDOW_S) + 1 if stamps.size else 0):
        inside = (stamps >= index * WINDOW_S) & (stamps < (index + 1) * WINDOW_S)
        if inside.sum() > 1:
            yield inside


def windowed_rate(stamps, per_stamp: int = 1) -> float:
    """Median over ``WINDOW_S``-second windows of completions per second.

    ``stamps`` are ascending completion times in seconds from the start of a
    closed-loop phase, each completing ``per_stamp`` requests.  Each window's
    rate is measured between its first and last completion.  A short
    slowdown of the machine lowers one window, not the median.
    """
    stamps = np.asarray(stamps, dtype=np.float64)
    rates = []
    for inside in _windows(stamps):
        first, last = stamps[inside][[0, -1]]
        if last > first:
            rates.append(per_stamp * (inside.sum() - 1) / (last - first))
    return float(np.median(rates)) if rates else 0.0


def windowed_rates(stamps, work, seconds, ref_seconds) -> tuple[float, float]:
    """Program rate and program rate over reference rate, medians over windows.

    Sample ``i`` did ``work[i]`` operations in ``seconds[i]`` of program time,
    ended at ``stamps[i]`` and was followed by one reference call of
    ``ref_seconds[i]``.  A window's rate is its operations per program
    second; its ratio is that rate times the window's median reference call
    time, i.e. operations done in the time of one reference call.
    """
    stamps = np.asarray(stamps, dtype=np.float64)
    work, seconds, ref = (np.asarray(x, dtype=np.float64) for x in (work, seconds, ref_seconds))
    rates, ratios = [], []
    for inside in _windows(stamps):
        rate = work[inside].sum() / seconds[inside].sum()
        rates.append(rate)
        ratios.append(rate * np.median(ref[inside]))
    if not rates:
        return 0.0, 0.0
    return float(np.median(rates)), float(np.median(ratios))
