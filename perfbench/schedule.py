"""Seeded input schedules for the serving workloads.

Every schedule is built in full before timing starts, from ``--seed`` and the
corpus alone: due times, user ids, event pairs and which answers the oracle
checks.  The program under test only ever receives these generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Users per closed-loop batch (the service's default micro-batch size).
BATCH = 64
#: Upper bound on closed-loop queries (or events) per second the schedule provisions for.
MAX_CLOSED_RATE = 60_000
#: Answers per run checked against the naive oracle.
CHECKS = 2048
#: Zipf exponent of ingest-mixed user and item draws: the item-popularity
#: exponent of the amazon-book generator that built the corpus
#: (``repro.data.synthetic.amazon_book_config``).
ZIPF_EXPONENT = 0.9
#: Share of ingest-mixed reads and writes from user ids past the snapshot.
#: Readers and writers are one population, so a new user's reads land on the
#: fold-in state its writes create.
NEW_USER_FRAC = 0.3
#: Distinct new user ids the ingest-mixed schedule draws from.
NEW_POOL = 512

READ, WRITE, APPLY, TICK = 0, 1, 2, 3


def poisson_arrivals(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Ascending arrival times of a Poisson process of ``rate``/s over ``[0, duration)``."""
    expected = rate * duration
    count = int(expected + 6.0 * np.sqrt(expected) + 16)
    times = np.cumsum(rng.exponential(1.0 / rate, size=count))
    if times[-1] < duration:  # pragma: no cover - six sigma short
        raise RuntimeError("Poisson schedule ran short; raise the provisioned count")
    return times[times < duration]


def zipf_ranks(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``size`` draws from ``0..n-1`` with probability proportional to ``1/(rank+1)**ZIPF_EXPONENT``."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    return rng.choice(n, size=size, p=weights / weights.sum())


def _check_mask(rng: np.random.Generator, count: int, checks: int = CHECKS) -> np.ndarray:
    mask = np.zeros(count, dtype=bool)
    mask[rng.choice(count, size=min(count, checks), replace=False)] = True
    return mask


@dataclass(frozen=True)
class Timeline:
    """Open-loop events in due-time order.

    ``kind[i]`` is READ, WRITE, APPLY or TICK; ``a`` is the user id (reads and
    writes), ``b`` the item id (writes); ``check`` marks reads the oracle
    verifies.
    """

    kind: np.ndarray
    due: np.ndarray
    a: np.ndarray
    b: np.ndarray
    check: np.ndarray


def _timeline(
    rng: np.random.Generator,
    duration: float,
    read_due: np.ndarray,
    read_users: np.ndarray,
    write_due: np.ndarray | None = None,
    write_pairs: np.ndarray | None = None,
    apply_every: float | None = None,
) -> Timeline:
    """Merge reads, writes, apply boundaries and one health tick per second."""
    write_due = np.zeros(0) if write_due is None else write_due
    write_pairs = np.zeros((0, 2), np.int64) if write_pairs is None else write_pairs
    applies = np.arange(apply_every, duration + 1e-9, apply_every) if apply_every else np.zeros(0)
    ticks = np.arange(1.0, duration + 1e-9, 1.0)
    sizes = (len(read_due), len(write_due), len(applies), len(ticks))
    kind = np.repeat([READ, WRITE, APPLY, TICK], sizes)
    due = np.concatenate([read_due, write_due, applies, ticks])
    rest = np.zeros(len(applies) + len(ticks), np.int64)
    a = np.concatenate([read_users, write_pairs[:, 0], rest])
    b = np.concatenate([np.zeros(len(read_due), np.int64), write_pairs[:, 1], rest])
    check = np.concatenate([_check_mask(rng, len(read_due)), np.zeros(sum(sizes[1:]), bool)])
    # Sort by due time; at equal times the kind order settles ties.
    order = np.lexsort((kind, due))
    return Timeline(
        kind[order], due[order], a[order].astype(np.int64), b[order].astype(np.int64), check[order]
    )


@dataclass(frozen=True)
class ServeSchedule:
    """Closed-loop batches, then an open-loop Poisson phase with health ticks."""

    closed_users: np.ndarray
    closed_check: np.ndarray
    timeline: Timeline


def serve_uniform(
    seed: int, warm_users: np.ndarray, rate: float, closed_s: float, open_s: float
) -> ServeSchedule:
    """Warm users drawn uniformly: reads only."""
    rng = np.random.default_rng([seed, 1])
    closed = int(np.ceil(MAX_CLOSED_RATE * closed_s / BATCH)) * BATCH
    closed_users = rng.choice(warm_users, size=closed)
    # Closed-loop checks come from the first batches, which always run.
    closed_check = _check_mask(rng, min(closed, 64 * BATCH), CHECKS // 4)
    due = poisson_arrivals(rng, rate, open_s)
    timeline = _timeline(rng, open_s, due, rng.choice(warm_users, size=len(due)))
    return ServeSchedule(closed_users, closed_check, timeline)


@dataclass(frozen=True)
class IngestSchedule:
    """One open-loop timeline of reads, writes and apply boundaries, plus a
    closed-loop list of ``(user, item)`` writes."""

    timeline: Timeline
    closed_pairs: np.ndarray


def ingest_mixed(
    seed: int,
    warm_users: np.ndarray,
    num_users: int,
    num_items: int,
    read_rate: float,
    write_rate: float,
    apply_every: float,
    open_s: float,
    closed_s: float,
) -> IngestSchedule:
    """Zipf-skewed reads and writes; ~30% of both from ids past the snapshot."""
    rng = np.random.default_rng([seed, 2])
    user_order = rng.permutation(warm_users)
    item_order = rng.permutation(num_items)

    def draw_users(size: int) -> np.ndarray:
        users = user_order[zipf_ranks(rng, len(user_order), size)]
        new = rng.random(size) < NEW_USER_FRAC
        users[new] = num_users + rng.integers(0, NEW_POOL, size=int(new.sum()))
        return users

    def draw_pairs(size: int) -> np.ndarray:
        users = draw_users(size)
        return np.column_stack([users, item_order[zipf_ranks(rng, num_items, size)]])

    read_due = poisson_arrivals(rng, read_rate, open_s)
    read_users = draw_users(len(read_due))
    write_due = poisson_arrivals(rng, write_rate, open_s)
    timeline = _timeline(
        rng, open_s, read_due, read_users, write_due, draw_pairs(len(write_due)), apply_every
    )
    closed_pairs = draw_pairs(int(np.ceil(MAX_CLOSED_RATE * closed_s)))
    return IngestSchedule(timeline, closed_pairs.astype(np.int64))
