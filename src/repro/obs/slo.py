"""Service-level objectives evaluated as multi-window burn rates.

An objective is declared once (``serve.latency p99 < 50ms over 5m``) and the
engine reduces it to one number per window — the **burn rate**: the fraction
of requests violating the objective divided by the fraction allowed.  Burn 1.0
means the error budget drains exactly as fast as it refills; burn 10 means a
5m window is consuming 50 minutes' worth of budget.

Both supported SLO kinds reduce to the same bad-fraction formula:

* ``latency`` — "p99 < 50ms" is equivalent to "at most 1% of requests may be
  slower than 50ms", so the allowed bad fraction (the *budget*) is ``1 - q``
  and the observed bad fraction comes from windowed histogram-bucket deltas
  (:meth:`TimeSeriesDB.fractions_over`);
* ``ratio`` — "fallback rate < 2%" divides a bad-event counter's windowed
  increase by a total counter's, with budget 0.02.

Breach detection is **multi-window** (the standard SRE construction): a fast
window (default 5m) gives responsiveness, a slow window (default 1h) gives
confidence, and only *both* burning over threshold counts as a breach — a
single slow request can spike a 5m burn rate, but it cannot move the 1h one.
The fast window alone over threshold is surfaced as *degraded* (early
warning, not page-worthy).  Error-budget accounting over a longer budget
window (default 6h here; days in a real deployment) answers "how much of our
allowance is already spent".

The engine only *evaluates*; turning statuses into stateful alerts and
actions is :mod:`repro.obs.alerts`' job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from .timeseries import TimeSeriesDB

__all__ = [
    "SLO",
    "SLOStatus",
    "SLOEngine",
    "default_serving_slos",
]


@dataclass(frozen=True)
class SLO:
    """One declared objective.

    ``kind="latency"``: ``metric`` is a histogram; the objective is
    "``quantile`` of observations stays under ``objective`` seconds".
    ``kind="ratio"``: ``metric`` is the bad-event counter and
    ``total_metric`` the traffic counter; the objective is "bad/total stays
    under ``objective``".
    """

    name: str
    kind: str  # "latency" | "ratio"
    metric: str
    objective: float
    quantile: float = 0.99
    total_metric: str | None = None
    labels: dict | None = None
    total_labels: dict | None = None
    fast_window: float = 300.0
    slow_window: float = 3600.0
    budget_window: float = 6 * 3600.0
    burn_threshold: float = 2.0
    min_samples: int = 10
    severity: str = "page"  # "page" | "warn"
    category: str = "latency"  # routing key on the action bus
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "ratio"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "latency" and not 0.0 < self.quantile < 1.0:
            raise ValueError("latency SLO quantile must be in (0, 1)")
        if self.kind == "ratio" and not self.total_metric:
            raise ValueError("ratio SLO requires total_metric")
        if self.objective <= 0:
            raise ValueError("objective must be positive")
        if self.kind == "ratio" and self.objective >= 1.0:
            raise ValueError("ratio SLO objective is a fraction in (0, 1)")
        if not self.fast_window < self.slow_window:
            raise ValueError("fast_window must be shorter than slow_window")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")

    @property
    def budget(self) -> float:
        """Allowed bad fraction: ``1 - quantile`` (latency) or the objective
        itself (ratio)."""
        return 1.0 - self.quantile if self.kind == "latency" else self.objective

    def target(self) -> str:
        """Human-readable one-line statement of the objective."""
        return self._target

    @cached_property
    def _target(self) -> str:
        # Computed once: alerting restates it on every tick.
        if self.kind == "latency":
            return (
                f"{self.metric} p{self.quantile * 100:g} "
                f"< {self.objective * 1000:g}ms over {_fmt_window(self.fast_window)}"
            )
        return (
            f"{self.metric}/{self.total_metric} rate "
            f"< {self.objective:.1%} over {_fmt_window(self.fast_window)}"
        )


def _fmt_window(seconds: float) -> str:
    if seconds >= 3600 and seconds % 3600 == 0:
        return f"{int(seconds // 3600)}h"
    if seconds >= 60 and seconds % 60 == 0:
        return f"{int(seconds // 60)}m"
    return f"{seconds:g}s"


@dataclass
class SLOStatus:
    """One evaluation of one SLO at one instant."""

    slo: SLO
    now: float
    fast_burn: float
    slow_burn: float
    fast_bad_fraction: float
    slow_bad_fraction: float
    fast_samples: int
    slow_samples: int
    budget_remaining: float  # fraction of the budget-window allowance left
    breaching: bool  # fast AND slow burn over threshold (with enough data)
    degraded: bool  # fast burn over threshold but slow not (yet)

    @property
    def healthy(self) -> bool:
        return not (self.breaching or self.degraded)

    def as_dict(self) -> dict:
        return {
            "slo": self.slo.name,
            "target": self.slo.target(),
            "category": self.slo.category,
            "severity": self.slo.severity,
            "now": self.now,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "fast_bad_fraction": self.fast_bad_fraction,
            "slow_bad_fraction": self.slow_bad_fraction,
            "fast_samples": self.fast_samples,
            "slow_samples": self.slow_samples,
            "budget_remaining": self.budget_remaining,
            "breaching": self.breaching,
            "degraded": self.degraded,
        }


class SLOEngine:
    """Evaluates declared SLOs against a :class:`TimeSeriesDB`."""

    def __init__(
        self,
        tsdb: TimeSeriesDB,
        slos: list[SLO] | None = None,
        clock=time.time,
    ) -> None:
        self.tsdb = tsdb
        self._clock = clock
        self._slos: dict[str, SLO] = {}
        for slo in slos or ():
            self.add(slo)

    def add(self, slo: SLO) -> None:
        if slo.name in self._slos:
            raise ValueError(f"duplicate SLO name {slo.name!r}")
        self._slos[slo.name] = slo

    @property
    def slos(self) -> list[SLO]:
        return list(self._slos.values())

    def _bad_fractions(self, slo: SLO, now: float) -> list[tuple[float, int]]:
        """(observed bad fraction, samples) over the fast, slow and budget
        windows, read in one pass over each series."""
        windows = (slo.fast_window, slo.slow_window, slo.budget_window)
        if slo.kind == "latency":
            return self.tsdb.fractions_over(
                slo.metric, slo.objective, windows, labels=slo.labels, now=now
            )
        bad = self.tsdb.increases(slo.metric, windows, labels=slo.labels, now=now)
        total = self.tsdb.increases(
            slo.total_metric, windows, labels=slo.total_labels, now=now
        )
        return [
            (min(1.0, b / t), int(t)) if t > 0 else (0.0, 0) for b, t in zip(bad, total)
        ]

    def evaluate_one(self, slo: SLO, now: float | None = None) -> SLOStatus:
        ts = self._clock() if now is None else float(now)
        (fast_bad, fast_n), (slow_bad, slow_n), (budget_bad, _) = self._bad_fractions(slo, ts)
        budget = slo.budget
        fast_burn = fast_bad / budget
        slow_burn = slow_bad / budget
        confident = fast_n >= slo.min_samples
        fast_over = confident and fast_burn >= slo.burn_threshold
        slow_over = slow_n >= slo.min_samples and slow_burn >= slo.burn_threshold
        return SLOStatus(
            slo=slo,
            now=ts,
            fast_burn=fast_burn,
            slow_burn=slow_burn,
            fast_bad_fraction=fast_bad,
            slow_bad_fraction=slow_bad,
            fast_samples=fast_n,
            slow_samples=slow_n,
            budget_remaining=max(0.0, 1.0 - budget_bad / budget),
            breaching=fast_over and slow_over,
            degraded=fast_over and not slow_over,
        )

    def evaluate(self, now: float | None = None) -> list[SLOStatus]:
        ts = self._clock() if now is None else float(now)
        return [self.evaluate_one(slo, now=ts) for slo in self._slos.values()]


def default_serving_slos(
    latency_objective: float = 0.050,
    fallback_objective: float = 0.02,
    fast_window: float = 300.0,
    slow_window: float = 3600.0,
    min_samples: int = 10,
) -> list[SLO]:
    """The stock objectives for ``RecommendationService`` deployments:
    ``serve.latency p99 < 50ms over 5m`` and ``serve.fallback rate < 2%``.
    """
    return [
        SLO(
            name="serve-latency-p99",
            kind="latency",
            metric="serve.request.latency_seconds",
            objective=latency_objective,
            quantile=0.99,
            fast_window=fast_window,
            slow_window=slow_window,
            min_samples=min_samples,
            severity="page",
            category="latency",
            description="End-to-end recommend_many latency.",
        ),
        SLO(
            name="serve-fallback-rate",
            kind="ratio",
            metric="serve.fallbacks.total",
            total_metric="serve.queries.total",
            objective=fallback_objective,
            fast_window=fast_window,
            slow_window=slow_window,
            min_samples=min_samples,
            severity="warn",
            category="quality",
            description="Share of users answered from the popularity fallback.",
        ),
    ]
