"""Ring-buffer time-series database over the metrics registry.

PR 8's registry answers "what is the value *now*"; this module adds *history*
— the substrate the SLO engine, burn-rate alerts and the dashboard all query.
Design constraints, in order:

* **dependency-free and bounded** — every series is a set of fixed-capacity
  ring buffers (``collections.deque``), so a sampler left running for a week
  uses exactly as much memory as one left running for an hour;
* **tiered downsampling** — each series keeps a raw tier at the sampling
  cadence plus aggregated tiers at 1s / 10s / 1m resolution.  Raw points are
  folded into every tier's accumulator (in batches, see :class:`_Series`);
  when a tier bucket closes its aggregate (first/last/min/max/sum/count) is
  sealed into that tier's ring.  Windowed queries pick the finest tier that
  still covers the window, so recent questions get raw resolution and old
  questions get cheap coarse answers;
* **cumulative-aware queries** — counters and histogram counts are stored as
  the cumulative values the registry exposes; ``rate``/``increase`` and
  windowed quantiles are *deltas* between the window edges, so a restart
  (cumulative reset) clamps to zero instead of going negative;
* **JSONL persistence** — :meth:`TimeSeriesDB.save` / :meth:`TimeSeriesDB.load`
  round-trip the full tier structure, so history survives restarts and the
  ``repro doctor`` / ``repro dashboard`` CLIs can analyse a run offline.

:class:`MetricsSampler` drives :meth:`TimeSeriesDB.sample` on a daemon thread
at a configurable cadence; tests (and anything needing determinism) call
``sample(now=...)`` directly with an injected clock.
"""

from __future__ import annotations

import json
import math
import threading
import time
from bisect import bisect_right
from collections import deque
from functools import reduce
from itertools import accumulate, groupby, islice
from dataclasses import dataclass
from operator import add, gt, itemgetter
from pathlib import Path

from .metrics import fraction_over_cumulative, get_registry, quantile_from_buckets

__all__ = [
    "MetricsSampler",
    "SeriesKey",
    "TimeSeriesConfig",
    "TimeSeriesDB",
    "TSDB_SCHEMA",
]

#: Schema version stamped into every TSDB JSONL dump's meta header.
TSDB_SCHEMA = 1
#: Samples a series holds in its raw tier alone before folding them into the
#: aggregated tiers in one pass (sooner when a query needs those tiers).
FOLD_BATCH = 64


@dataclass(frozen=True)
class TimeSeriesConfig:
    """Capacity/resolution knobs shared by every series in one DB.

    Defaults keep ~10 minutes of raw points at a 1s cadence, ~10 minutes at
    1s, ~100 minutes at 10s and ~10 hours at 1m — about 2400 points per
    scalar series, a few hundred KB for a fully instrumented service.
    """

    raw_capacity: int = 600
    tier_resolutions: tuple[float, ...] = (1.0, 10.0, 60.0)
    tier_capacity: int = 600

    def __post_init__(self) -> None:
        if self.raw_capacity < 2:
            raise ValueError("raw_capacity must be at least 2")
        if self.tier_capacity < 2:
            raise ValueError("tier_capacity must be at least 2")
        if any(r <= 0 for r in self.tier_resolutions):
            raise ValueError("tier resolutions must be positive")
        if any(
            b <= a for a, b in zip(self.tier_resolutions, self.tier_resolutions[1:])
        ):
            raise ValueError("tier resolutions must be strictly increasing")


def _label_key(labels: dict | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: ``(name, sorted-label-items)`` — the identity of one stored series.
SeriesKey = tuple


# --------------------------------------------------------------------------- #
# Points and tiers
# --------------------------------------------------------------------------- #
# Scalar points are [ts, last, min, max, sum, count] (JSON-ready, compact);
# histogram points are [ts, count, sum, [cumulative bucket counts]].  Raw
# samples are tuples (one allocation, never mutated); aggregates are lists.
_TS, _LAST, _MIN, _MAX, _SUM, _COUNT = range(6)


class _Tier:
    """One resolution level of a series: a ring plus an open accumulator.

    ``resolution=None`` is the raw tier (every sample is its own point);
    otherwise samples accumulate into ``floor(ts / resolution)`` buckets and a
    bucket's aggregate is sealed into the ring when a later sample opens the
    next bucket.  ``ordered`` stays true while the ring's timestamps never
    decrease, which lets :meth:`at_or_before` binary-search it.
    """

    __slots__ = ("resolution", "points", "ordered", "_last_ts", "_bucket", "_acc")

    def __init__(self, resolution: float | None, capacity: int) -> None:
        self.resolution = resolution
        self.points: deque = deque(maxlen=capacity)
        self.ordered = True
        self._last_ts = -math.inf
        self._bucket: int | None = None
        self._acc: list | None = None

    def append(self, point: list | tuple) -> None:
        ts = point[_TS]
        if ts < self._last_ts:
            self.ordered = False
        self._last_ts = ts
        self.points.append(point)

    def add_scalars(self, points: list) -> None:
        """Fold raw scalar points ``(ts, v, v, v, v, 1)``, oldest first.

        Consecutive points in one bucket fold at once with ``min``, ``max``
        and a left-to-right sum, which gives the same aggregate, bit for bit,
        as folding them one at a time.
        """
        for bucket, run in self._runs(points):
            if bucket != self._bucket:
                self.flush()
                self._bucket = bucket
                ts, value = run[0][_TS], run[0][_LAST]
                self._acc = [ts, value, value, value, value, 1]
                run = run[1:]
                if not run:
                    continue
            acc = self._acc
            values = [point[_LAST] for point in run]
            acc[_TS] = run[-1][_TS]
            acc[_LAST] = values[-1]
            acc[_MIN] = min(acc[_MIN], *values)
            acc[_MAX] = max(acc[_MAX], *values)
            acc[_SUM] = reduce(add, values, acc[_SUM])
            acc[_COUNT] += len(values)

    def add_hists(self, points: list) -> None:
        """Fold raw histogram points ``(ts, count, sum, buckets)``.

        Histogram samples are cumulative: the freshest point in a bucket
        carries everything the earlier ones did, so "last wins" is exact.
        """
        for bucket, run in self._runs(points):
            if bucket != self._bucket:
                self.flush()
                self._bucket = bucket
            self._acc = run[-1]

    def _runs(self, points: list):
        """``(bucket, points)`` for each run of consecutive points that share
        a bucket, oldest first."""
        resolution = self.resolution
        keys = [int(point[_TS] // resolution) for point in points]
        start = 0
        for bucket, run in groupby(keys):
            stop = start + len(list(run))
            yield bucket, points[start:stop]
            start = stop

    def flush(self) -> None:
        """Seal the open accumulator (if any) into the ring."""
        if self._acc is not None:
            self.append(self._acc)
            self._acc = None
            self._bucket = None

    def visible(self) -> list:
        """Ring points plus the open accumulator (freshest data included)."""
        if self._acc is None:
            return list(self.points)
        return list(self.points) + [self._acc]

    def newest(self):
        """The freshest visible point without copying the ring."""
        if self._acc is not None:
            return self._acc
        return self.points[-1] if self.points else None

    def points_since(self, start: float) -> list:
        """Visible points with ``ts >= start``, oldest first.

        Walks the ring from the newest end and stops at the first older
        point — points are appended chronologically, so the prefix that
        falls outside the window is never touched.  This is the hot path of
        every windowed query; copying the whole ring per query is what made
        a per-batch health tick cost ~8% of serving throughput.
        """
        out = []
        if self._acc is not None and self._acc[_TS] >= start:
            out.append(self._acc)
        for point in reversed(self.points):
            if point[_TS] < start:
                break
            out.append(point)
        out.reverse()
        return out

    def at_or_before(self, ts: float):
        """The open accumulator if it is at or before ``ts``, else the newest
        ring point that is (binary search while the ring is ordered)."""
        acc = self._acc
        if acc is not None and acc[_TS] <= ts:
            return acc
        points = self.points
        if self.ordered:
            index = bisect_right(points, ts, key=_ts_of)
            return points[index - 1] if index else None
        for point in reversed(points):
            if point[_TS] <= ts:
                return point
        return None

    def span_start(self) -> float | None:
        if self.points:
            return self.points[0][_TS]
        if self._acc is not None:
            return self._acc[_TS]
        return None


_ts_of = itemgetter(_TS)


class _Series:
    """All tiers of one ``name{labels}`` series.

    Samples go to the raw tier at once; the aggregated tiers take the newest
    ``unfolded`` raw points in batches of ``FOLD_BATCH``, or when a query
    needs those tiers.  Queries the raw ring answers alone — a window
    inside its span, or any window while it still holds every sample — never
    fold, so a sample touches one tier, not four, and every answer and sealed
    point comes out exactly as if each sample had gone to every tier.
    """

    __slots__ = ("name", "labels", "kind", "bounds", "tiers", "raw", "unfolded", "_fold_at")

    def __init__(
        self,
        name: str,
        labels: dict,
        kind: str,
        config: TimeSeriesConfig,
        bounds: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.bounds = bounds
        self.raw = _Tier(None, config.raw_capacity)
        self.tiers = [self.raw] + [
            _Tier(res, config.tier_capacity) for res in config.tier_resolutions
        ]
        self.unfolded = 0  # newest raw points the aggregated tiers lack
        self._fold_at = min(FOLD_BATCH, config.raw_capacity)

    def add(self, point: tuple) -> None:
        """Append one raw point: ``(ts, v, v, v, v, 1)`` for scalars,
        ``(ts, count, sum, cumulative buckets)`` for histograms."""
        if self.unfolded >= self._fold_at:
            self.fold()
        # _Tier.append inlined: this runs once per series per sample.
        raw = self.raw
        ts = point[_TS]
        if ts < raw._last_ts:
            raw.ordered = False
        raw._last_ts = ts
        raw.points.append(point)
        self.unfolded += 1

    def fold(self) -> None:
        """Bring the aggregated tiers up to date with the raw tier."""
        if not self.unfolded:
            return
        points = list(islice(reversed(self.raw.points), self.unfolded))
        points.reverse()
        for tier in self.tiers[1:]:
            if self.kind == "histogram":
                tier.add_hists(points)
            else:
                tier.add_scalars(points)
        self.unfolded = 0

    def select(self, start: float) -> list:
        """Points covering ``[start, now]`` from the finest adequate tier.

        The raw tier answers when its retained span reaches back to ``start``;
        otherwise successively coarser tiers are tried.  When no tier covers
        the whole window, the tier reaching furthest back wins (finest on
        ties) — better a partial fine answer than none.
        """
        span_start = self.raw.span_start()
        if span_start is not None and span_start <= start:
            return self.raw.points_since(start)
        self.fold()
        best: tuple[float, _Tier] | None = None
        for tier in self.tiers:
            span_start = tier.span_start()
            if span_start is None:
                continue
            if span_start <= start:
                return tier.points_since(start)
            if best is None or span_start < best[0]:
                best = (span_start, tier)
        if best is None:
            return []
        return best[1].points_since(start)

    def at_or_before(self, ts: float):
        """The freshest point with timestamp <= ``ts``."""
        self.fold()
        best = None
        for tier in self.tiers:
            # O(1) reject: a tier whose oldest retained point is newer than
            # ``ts`` has nothing to offer — the common case when the query
            # window is longer than the retained span.
            span_start = tier.span_start()
            if span_start is None or span_start > ts:
                continue
            candidate = tier.at_or_before(ts)
            if candidate is not None and (best is None or candidate[_TS] > best[_TS]):
                best = candidate
        return best

    def baselines(self, starts) -> list:
        """Cumulative windows' baselines: per start, the freshest point at or
        before it, else (short history, long window) the oldest point.

        While raw timestamps never decreased, the raw ring holds every sample
        from its oldest point on, in order, and every aggregated point
        carries the timestamp of a sample: no aggregated point is fresher
        than raw's answer, nor older than raw's first point while the ring
        has dropped nothing (ties go to the finer tier anyway).  Only other
        cases fold and scan every tier.
        """
        raw = self.raw
        points = raw.points
        raw_only = raw.ordered and bool(points)
        holds_all = raw_only and len(points) < points.maxlen
        out = []
        for start in starts:
            if raw_only and points[0][_TS] <= start:
                out.append(raw.at_or_before(start))
            elif holds_all:
                out.append(points[0])
            else:
                out.append(self.at_or_before(start) or self.oldest())
        return out

    def latest(self):
        if self.raw.points:
            return self.raw.points[-1]
        for tier in self.tiers:
            newest = tier.newest()
            if newest is not None:
                return newest
        return None

    def oldest(self):
        """The earliest retained point across tiers (window-baseline fallback).

        Ties go to the finest tier, matching :meth:`select`'s
        furthest-back-finest-on-ties choice.
        """
        self.fold()
        best = None
        for tier in self.tiers:
            if tier.points:
                candidate = tier.points[0]
            elif tier._acc is not None:
                candidate = tier._acc
            else:
                continue
            if best is None or candidate[_TS] < best[_TS]:
                best = candidate
        return best


def _snapshot_points(snapshot: list, ts: float):
    """The same rows from a foreign registry's ``snapshot()`` exposition."""
    for family in snapshot:
        kind = family["kind"]
        for rendered in family["series"]:
            key = (family["name"], _label_key(rendered.get("labels", {})))
            if kind == "histogram":
                bounds = tuple(b for b, _ in rendered["buckets"] if b is not None)
                buckets = [c for _, c in rendered["buckets"]]
                yield key, kind, bounds, (ts, rendered["count"], rendered["sum"], buckets)
            else:
                value = rendered["value"]
                yield key, kind, None, (ts, value, value, value, value, 1)


# --------------------------------------------------------------------------- #
# The database
# --------------------------------------------------------------------------- #
class TimeSeriesDB:
    """Sampled metric history with windowed queries and JSONL persistence."""

    def __init__(
        self,
        config: TimeSeriesConfig | None = None,
        clock=time.time,
    ) -> None:
        self.config = config or TimeSeriesConfig()
        self._clock = clock
        self._series: dict[SeriesKey, _Series] = {}
        self._plan_rows = None  # the registry rows self._plan was built from
        self._plan: list = []  # (series, instrument, is histogram) per row
        self._lock = threading.Lock()
        self.samples_taken = 0

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def sample(self, registry=None, now: float | None = None) -> int:
        """Append one point per live registry series; returns series touched.

        ``registry`` defaults to the active one; ``now`` defaults to the DB
        clock (injectable for deterministic tests).  Registries exposing the
        flat ``read_series()`` view are sampled through it — instrument
        state is read directly, skipping :meth:`snapshot`'s per-call dict
        rendering (the sampler may run once per served batch; its cost is
        serving overhead).  Foreign registry objects without ``read_series``
        fall back to the ``snapshot()`` exposition format.
        """
        registry = registry if registry is not None else get_registry()
        ts = self._clock() if now is None else float(now)
        reader = getattr(registry, "read_series", None)
        touched = 0
        with self._lock:
            if reader is None:
                for key, kind, bounds, point in _snapshot_points(registry.snapshot(), ts):
                    self._series_for(key, kind, bounds).add(point)
                    touched += 1
            else:
                rows = reader()
                if rows is not self._plan_rows:
                    # The registry hands back the same rows until it grows a
                    # series, so the series lookups are done once per change.
                    self._plan = []
                    for name, kind, key, instrument in rows:
                        histogram = kind == "histogram"
                        bounds = instrument.bounds if histogram else None
                        series = self._series_for((name, key), kind, bounds)
                        self._plan.append((series, instrument, histogram))
                    self._plan_rows = rows
                for series, instrument, histogram in self._plan:
                    if histogram:
                        buckets = list(accumulate(instrument.bucket_counts))
                        series.add((ts, instrument.count, instrument.sum, buckets))
                    else:
                        value = instrument.value
                        series.add((ts, value, value, value, value, 1))
                touched = len(self._plan)
            self.samples_taken += 1
        return touched

    def _series_for(self, key: SeriesKey, kind: str, bounds) -> _Series:
        series = self._series.get(key)
        if series is None:
            series = _Series(key[0], dict(key[1]), kind, self.config, bounds)
            self._series[key] = series
        return series

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def series(self) -> list[dict]:
        """``{"name", "labels", "kind"}`` for every stored series."""
        with self._lock:
            return [
                {"name": s.name, "labels": dict(s.labels), "kind": s.kind}
                for s in self._series.values()
            ]

    def _get(self, name: str, labels: dict | None) -> _Series | None:
        return self._series.get((name, _label_key(labels)))

    def last_timestamp(self) -> float | None:
        """The freshest sample timestamp across all series (offline "now")."""
        with self._lock:
            best = None
            for series in self._series.values():
                latest = series.latest()
                if latest is not None and (best is None or latest[_TS] > best):
                    best = latest[_TS]
            return best

    # ------------------------------------------------------------------ #
    # Windowed queries
    # ------------------------------------------------------------------ #
    def _now(self, now: float | None) -> float:
        return self._clock() if now is None else float(now)

    def points(
        self,
        name: str,
        window: float,
        labels: dict | None = None,
        now: float | None = None,
    ) -> list[tuple[float, float]]:
        """``(ts, value)`` pairs in the window (scalar series only)."""
        end = self._now(now)
        with self._lock:
            series = self._get(name, labels)
            if series is None:
                return []
            if series.kind == "histogram":
                return [(p[_TS], p[1]) for p in series.select(end - window)]
            return [(p[_TS], p[_LAST]) for p in series.select(end - window)]

    def latest(
        self, name: str, labels: dict | None = None, default: float = 0.0
    ) -> float:
        """The most recent scalar value (or histogram count)."""
        with self._lock:
            series = self._get(name, labels)
            point = series.latest() if series is not None else None
            if point is None:
                return default
            return point[1]

    def aggregate(
        self,
        name: str,
        window: float,
        labels: dict | None = None,
        now: float | None = None,
    ) -> dict | None:
        """min/max/avg/last over the window (gauges; scalar series only)."""
        end = self._now(now)
        with self._lock:
            series = self._get(name, labels)
            if series is None or series.kind == "histogram":
                return None
            points = series.select(end - window)
        if not points:
            return None
        total = sum(p[_SUM] for p in points)
        count = sum(p[_COUNT] for p in points)
        return {
            "min": min(p[_MIN] for p in points),
            "max": max(p[_MAX] for p in points),
            "avg": total / count if count else 0.0,
            "last": points[-1][_LAST],
            "points": len(points),
        }

    def _edges(self, name, labels, windows, now, histogram: bool = False):
        """``(series, [(baseline, end) per window])`` on cumulative data.

        The series and its end point are resolved once for all windows.  The
        baseline is the freshest point at-or-before the window start (so the
        delta covers the whole window, not just the sampled interior); with no
        point that old, the earliest retained point is used.  A missing series
        (or a non-histogram one when ``histogram``) gives ``(None, None)``
        pairs.
        """
        end = self._clock() if now is None else float(now)
        with self._lock:
            series = self._series.get((name, _label_key(labels)))
            end_point = series.latest() if series is not None else None
            if end_point is None or (histogram and series.kind != "histogram"):
                return series, [(None, None)] * len(windows)
            bases = series.baselines([end - window for window in windows])
            return series, [(base or end_point, end_point) for base in bases]

    def increases(
        self,
        name: str,
        windows,
        labels: dict | None = None,
        now: float | None = None,
    ) -> list[float]:
        """:meth:`increase` over several windows in one pass."""
        _, edges = self._edges(name, labels, windows, now)
        return [
            0.0 if base is None or base is last else max(0.0, last[1] - base[1])
            for base, last in edges
        ]

    def increase(
        self,
        name: str,
        window: float,
        labels: dict | None = None,
        now: float | None = None,
    ) -> float:
        """Cumulative increase of a counter (or histogram count) over the
        window, clamped at 0 so a process restart never yields negatives."""
        return self.increases(name, (window,), labels, now)[0]

    def rate(
        self,
        name: str,
        window: float,
        labels: dict | None = None,
        now: float | None = None,
    ) -> float:
        """Per-second increase of a counter over the window."""
        _, ((base, last),) = self._edges(name, labels, (window,), now)
        if base is None or base is last:
            return 0.0
        elapsed = last[_TS] - base[_TS]
        if elapsed <= 0:
            return 0.0
        return max(0.0, last[1] - base[1]) / elapsed

    @staticmethod
    def _hist_window(base, last):
        """(baseline cumulative bucket counts or ``None``, count, sum) of a
        histogram window.  ``None`` means the end point's full distribution:
        an empty window, or a restart (cumulative reset) inside it, which
        would otherwise report garbage."""
        if base is not last:
            count = last[1] - base[1]
            if count > 0 and not any(map(gt, base[3], last[3])):
                return base[3], count, last[2] - base[2]
        return None, last[1], last[2]

    def quantile(
        self,
        name: str,
        q: float,
        window: float,
        labels: dict | None = None,
        now: float | None = None,
    ) -> float:
        """Windowed ``q``-quantile of a histogram series (bucket deltas)."""
        series, ((base, last),) = self._edges(name, labels, (window,), now, histogram=True)
        if base is None:
            return 0.0
        baseline, _, _ = self._hist_window(base, last)
        cumulative = last[3]
        if baseline is not None:
            cumulative = [b - a for a, b in zip(baseline, cumulative)]
        per_bucket = [cumulative[0]] + [
            b - a for a, b in zip(cumulative, cumulative[1:])
        ]
        return quantile_from_buckets(series.bounds, per_bucket, q)

    def fractions_over(
        self,
        name: str,
        threshold: float,
        windows,
        labels: dict | None = None,
        now: float | None = None,
    ) -> list[tuple[float, int]]:
        """:meth:`fraction_over` over several windows in one pass.

        Each answer reads two cumulative counts either side of the
        threshold's bucket, and windows that share a baseline point (a short
        run under long windows) share one answer.
        """
        series, edges = self._edges(name, labels, windows, now, histogram=True)
        out: list[tuple[float, int]] = []
        previous = None
        for base, last in edges:
            if base is None:
                out.append((0.0, 0))
            elif base is previous:
                out.append(out[-1])
            else:
                baseline, count, _ = self._hist_window(base, last)
                fraction = fraction_over_cumulative(
                    series.bounds, last[3], threshold, baseline
                )
                out.append((fraction, int(count)))
                previous = base
        return out

    def fraction_over(
        self,
        name: str,
        threshold: float,
        window: float,
        labels: dict | None = None,
        now: float | None = None,
    ) -> tuple[float, int]:
        """(fraction of windowed observations above ``threshold``, samples)."""
        return self.fractions_over(name, threshold, (window,), labels, now)[0]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, destination) -> int:
        """Write the DB as JSONL (meta header + one line per series)."""
        with self._lock:
            rows = []
            for series in self._series.values():
                series.fold()
                rows.append(
                    {
                        "name": series.name,
                        "labels": dict(series.labels),
                        "kind": series.kind,
                        "bounds": list(series.bounds) if series.bounds else None,
                        "tiers": [
                            {
                                "resolution": tier.resolution,
                                "points": tier.visible(),
                            }
                            for tier in series.tiers
                        ],
                    }
                )
        header = {
            "kind": "meta",
            "schema": TSDB_SCHEMA,
            "ts": self._clock(),
            "config": {
                "raw_capacity": self.config.raw_capacity,
                "tier_resolutions": list(self.config.tier_resolutions),
                "tier_capacity": self.config.tier_capacity,
            },
        }
        if hasattr(destination, "write"):
            handle, close = destination, False
        else:
            handle, close = open(Path(destination), "w"), True
        try:
            handle.write(json.dumps(header) + "\n")
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        finally:
            if close:
                handle.close()
        return len(rows)

    @classmethod
    def load(cls, source, clock=time.time) -> "TimeSeriesDB":
        """Rebuild a DB from :meth:`save` output (history survives restarts)."""
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = Path(source).read_text()
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty TSDB dump")
        header = json.loads(lines[0])
        if header.get("kind") != "meta":
            raise ValueError("TSDB dump missing meta header line")
        config = header.get("config", {})
        db = cls(
            TimeSeriesConfig(
                raw_capacity=int(config.get("raw_capacity", 600)),
                tier_resolutions=tuple(config.get("tier_resolutions", (1.0, 10.0, 60.0))),
                tier_capacity=int(config.get("tier_capacity", 600)),
            ),
            clock=clock,
        )
        for line in lines[1:]:
            row = json.loads(line)
            bounds = tuple(row["bounds"]) if row.get("bounds") else None
            series = _Series(row["name"], row["labels"], row["kind"], db.config, bounds)
            for tier, stored in zip(series.tiers, row["tiers"]):
                for point in stored["points"]:
                    tier.append(point)
            db._series[(row["name"], _label_key(row["labels"]))] = series
        return db


# --------------------------------------------------------------------------- #
# Background sampler
# --------------------------------------------------------------------------- #
class MetricsSampler:
    """Daemon thread sampling the registry into a DB every ``interval``s.

    ``tick()`` is the single-step entry point the thread loops over; tests
    call it directly with a fake ``now`` and never start the thread.  ``stop``
    is idempotent and takes one final sample so the last partial interval is
    never lost.
    """

    def __init__(
        self,
        tsdb: TimeSeriesDB,
        registry=None,
        interval: float = 1.0,
        clock=time.time,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.tsdb = tsdb
        self.interval = interval
        self._registry = registry
        self._clock = clock
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.ticks = 0

    def tick(self, now: float | None = None) -> int:
        registry = self._registry if self._registry is not None else get_registry()
        touched = self.tsdb.sample(registry, now=now)
        self.ticks += 1
        return touched

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()

    def start(self) -> "MetricsSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.tick()

    def __enter__(self) -> "MetricsSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
