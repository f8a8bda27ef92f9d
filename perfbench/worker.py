"""Benchmark worker: one workload in one fresh, single-threaded process.

``run.py`` starts this script; it is not meant to be run by hand.  Modes:

* ``corpus`` — build the seeded scale-32 ground-truth-factor snapshot once per
  seed (outside every timing) and publish it with ``save_snapshot``;
* ``setup``  — set the workload up, print ``READY`` and exit (the parent
  times process start to ``READY`` as one ``setup_s`` sample);
* ``run``    — set up, print ``READY``, run the measured phases, check every
  sampled answer, and print one JSON result line.

With ``--trace 1`` the run installs :class:`perfbench.tracer.Tracer` wrappers
and reports per-layer numbers; untraced runs never install them.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# Workload sizes.  Rates are fixed here and quoted in BENCHMARK.json; each
# open-loop rate keeps the service about half busy (reported per run as
# gen.open.busy_frac).
SERVE_SCALE = 32.0
K = 10
CLOSED_SHARE = 0.3  # share of --seconds spent in the closed-loop phase
SERVE_RATE = 1500.0  # serve-uniform open-loop queries per second
APPLY_EVERY = 1.0  # schedule seconds between open-loop apply() boundaries
#: ingest-mixed events per apply(), open and closed loop: one drain
#: micro-batch of StreamingUpdater at its default batch_size.
APPLY_EVENTS = 256
INGEST_WRITE_RATE = APPLY_EVENTS / APPLY_EVERY
INGEST_READ_RATE = 400.0
TRAIN_SCALE = 8.0
TRAIN_DIM = 32
TRAIN_EPOCHS = 3
TRAIN_BATCH = 512
#: The five hottest tape ops of train-darec, reported per step.
TRAIN_OPS = ("take_rows.bwd", "sparse_matmul.fwd", "sparse_matmul.bwd", "mul.bwd", "add.bwd")

perf = time.perf_counter


def corpus_path(work: Path, seed: int) -> Path:
    return work / f"corpus-scale{int(SERVE_SCALE)}-seed{seed}.npz"


def build_corpus(work: Path, seed: int) -> None:
    from repro.data import load_benchmark
    from repro.serve import build_snapshot, save_snapshot

    dataset = load_benchmark("amazon-book", scale=SERVE_SCALE, seed=seed)
    snapshot = build_snapshot(
        dataset.metadata["user_factors"],
        dataset.metadata["item_factors"],
        train_pairs=dataset.train,
        model_name="ground-truth-factors",
        dataset_name=dataset.name,
    )
    save_snapshot(snapshot, corpus_path(work, seed))


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #
class Context:
    """Everything a measured run needs, built before ``READY``."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path, tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.setup: dict[str, float] = {}
        self.cleanup: list[Path] = []
        self.notes: list[str] = []

    def imported(self, started: float) -> None:
        """Record import time, then (traced runs only) install the wrappers."""
        self.setup["import_s"] = perf() - started
        if self.tracer is not None:
            self.tracer.install()


def setup_serving(ctx: Context, ingest: bool) -> None:
    started = perf()
    import numpy as np

    from repro import obs
    from repro.obs import HealthEngine
    from repro.serve import ExactIndex, IVFIndex, RecommendationService, load_snapshot

    if ingest:
        from repro.stream import EventLog, StreamingUpdater, live_popularity
    ctx.imported(started)

    from perfbench import schedule

    started = perf()
    ctx.registry = obs.enable()
    load_started = perf()
    snapshot = load_snapshot(corpus_path(ctx.work, ctx.seed), verify=True)
    ctx.setup["load_verify_s"] = perf() - load_started
    warm = np.flatnonzero(np.diff(snapshot.train_indptr) > 0)
    closed_s = ctx.seconds * CLOSED_SHARE
    open_s = ctx.seconds - closed_s
    if ingest:
        ctx.schedule = schedule.ingest_mixed(
            ctx.seed,
            warm,
            snapshot.num_users,
            snapshot.num_items,
            INGEST_READ_RATE,
            INGEST_WRITE_RATE,
            APPLY_EVERY,
            open_s,
            closed_s,
        )
    else:
        ctx.schedule = schedule.serve_uniform(ctx.seed, warm, SERVE_RATE, closed_s, open_s)
    data_s = perf() - started

    started = perf()
    if ingest:
        index = IVFIndex(snapshot.item_embeddings, seed=0)
        index.search(snapshot.user_embeddings[:256], K)  # first search self-tunes n_probe
    else:
        index = ExactIndex(snapshot.item_embeddings)
    ctx.setup["index_build_s"] = perf() - started

    started = perf()
    ctx.log = None
    if ingest:
        wal_dir = ctx.work / f"wal-{os.getpid()}"
        shutil.rmtree(wal_dir, ignore_errors=True)
        ctx.cleanup.append(wal_dir)
        ctx.wal_path = wal_dir / "events.wal"
        ctx.log = EventLog.open(ctx.wal_path, fsync=True)
        provider = live_popularity(snapshot, ctx.log)
        if ctx.tracer is not None:
            provider = ctx.tracer.wrap(provider, "stream.live_popularity")
    ctx.service = RecommendationService(
        snapshot,
        index=index,
        default_k=K,
        event_log=ctx.log,
        popularity_provider=provider if ingest else None,
    )
    ctx.updater = StreamingUpdater(ctx.service, ctx.log) if ingest else None
    ctx.engine = HealthEngine(registry=ctx.registry, interval=1.0)
    ctx.setup["data_s"] = data_s + perf() - started


def setup_train(ctx: Context) -> None:
    started = perf()
    import numpy  # noqa: F401

    from repro.align.base import AlignedRecommender
    from repro.experiments.common import (
        ExperimentScale,
        build_dataset_and_semantics,
        build_variant,
        make_backbone,
    )
    from repro.serve import create_snapshot, load_snapshot, save_snapshot  # noqa: F401
    from repro.train import Trainer  # noqa: F401

    ctx.imported(started)
    started = perf()
    scale = ExperimentScale(dataset_scale=TRAIN_SCALE, embedding_dim=TRAIN_DIM, seed=ctx.seed)
    dataset, semantic = build_dataset_and_semantics("amazon-book", scale)
    backbone = make_backbone("lightgcn", dataset, scale)
    alignment = build_variant("darec", backbone, semantic, scale)
    ctx.model = AlignedRecommender(backbone, alignment, trade_off=0.1)
    ctx.setup["data_s"] = perf() - started


# ---------------------------------------------------------------------- #
# Load generation
# ---------------------------------------------------------------------- #
class Phase:
    """Sent / succeeded / failed counts of one load-generator phase."""

    def __init__(self) -> None:
        self.sent = 0
        self.ok = 0
        self.failed = 0
        self.wall_s = 0.0

    def as_dict(self) -> dict:
        return {"sent": self.sent, "ok": self.ok, "failed": self.failed, "wall_s": self.wall_s}


class Reference:
    """A fixed NumPy kernel timed beside the program's work.

    On a shared host the CPU's speed drifts by tens of percent within
    seconds and between runs, and the program and this kernel slow down
    together.  Closed-loop phases run it once after every unit of work, so a
    throughput can be stated as operations per reference call, which holds
    steady where operations per second do not.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.users = rng.standard_normal((16, 16)).astype(np.float32)
        self.items = rng.standard_normal((8960, 16)).astype(np.float32)
        self.sweep = np.ones(1 << 21, dtype=np.float32)  # 8 MB
        self.seconds: list[float] = []
        self.spent_s = 0.0  # wall time of every run(), sweep included

    def run(self) -> None:
        import numpy as np

        # An untimed 8 MB read first pushes the kernel's ~1 MB of data out of
        # the core's private caches, so every timed call starts from the same
        # cache state whatever the program's work left behind.  Nothing here
        # allocates a garbage-collected object, so no collection of the
        # program's heap starts inside a reference call.
        entered = perf()
        self.sweep.sum()
        started = perf()
        np.argpartition(self.users @ self.items.T, -K, axis=1)
        done = perf()
        self.seconds.append(done - started)
        self.spent_s += done - entered


class Ticker:
    """``HealthEngine.tick()`` once per second of schedule time."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.next = 1.0
        self.busy_s = 0.0

    def tick(self, schedule_s: float) -> None:
        started = perf()
        self.engine.tick(now=schedule_s)
        self.busy_s += perf() - started

    def maybe(self, schedule_s: float) -> None:
        while schedule_s >= self.next:
            self.tick(self.next)
            self.next += 1.0


def _fail(ctx: Context, error: BaseException) -> None:
    if len(ctx.notes) < 5:
        ctx.notes.append(f"{type(error).__name__}: {error}")


def closed_reads(ctx: Context, ticker: Ticker, out: dict) -> Phase:
    """Back-to-back 64-user batches through submit/flush."""
    from perfbench.schedule import BATCH

    service, users = ctx.service, ctx.schedule.closed_users
    check = ctx.schedule.closed_check
    phase = Phase()
    reference = Reference()
    block_s: list[float] = []
    done_at: list[float] = []
    checked = out.setdefault("checked", [])
    duration = ctx.seconds * CLOSED_SHARE
    started = perf()
    n = 0
    while n + BATCH <= len(users) and perf() - started < duration:
        ticker.maybe(perf() - started)
        chunk = users[n : n + BATCH]
        block_started = perf()
        try:
            tickets = [service.submit(int(user)) for user in chunk]
            service.flush()
        except Exception as error:  # counted against fail_frac, run continues
            _fail(ctx, error)
            phase.failed += BATCH
        else:
            block_s.append(perf() - block_started)
            done_at.append(perf() - started)
            reference.run()
            phase.ok += BATCH
            for j in range(BATCH):
                if n + j < len(check) and check[n + j]:
                    checked.append((int(chunk[j]), tickets[j]))
        phase.sent += BATCH
        n += BATCH
    phase.wall_s = perf() - started
    out["closed_block_s"] = block_s
    out["closed_done"] = done_at
    out["closed_ref_s"] = reference.seconds
    ctx.closed_end = perf()
    return phase


def open_loop(ctx: Context, ticker: Ticker, base: float, out: dict) -> Phase:
    """Run the merged timeline; every request is timed from its due time."""
    import numpy as np

    from perfbench.schedule import APPLY, BATCH, READ, TICK, WRITE

    timeline = ctx.schedule.timeline
    kind, due, a, b, check = timeline.kind, timeline.due, timeline.a, timeline.b, timeline.check
    service, updater = ctx.service, ctx.updater
    n = len(due)
    busy_s = 0.0
    applies: list[tuple[float, float]] = []  # (start, end) of each apply(), phase seconds
    read_latency: list[float] = []
    lag: list[float] = []
    ack: list[float] = []
    fresh: list[float] = []
    seq_due: dict[int, float] = {}
    checked = out.setdefault("checked", [])
    snapshots = out.setdefault("snapshots", {})
    snapshots[service.snapshot.snapshot_id] = service.snapshot
    phase = Phase()
    started = perf()
    i = 0
    while i < n:
        now = perf() - started
        if due[i] > now:
            # Spin, don't sleep: an idle vCPU on a shared host is descheduled,
            # and its wake-up latency would swamp the program's own latency.
            continue
        what = kind[i]
        if what == READ:
            j = i
            while j < n and j - i < BATCH and kind[j] == READ and due[j] <= now:
                j += 1
            lag.extend(now - due[i:j])
            phase.sent += j - i
            try:
                tickets = [service.submit(int(user)) for user in a[i:j]]
                service.flush()
            except Exception as error:
                _fail(ctx, error)
                phase.failed += j - i
            else:
                done = perf() - started
                busy_s += done - now
                read_latency.extend(done - due[i:j])
                phase.ok += j - i
                for p in np.flatnonzero(check[i:j]):
                    checked.append((int(a[i + p]), tickets[p]))
            i = j
            continue
        if what == WRITE:
            lag.append(now - due[i])
            phase.sent += 1
            try:
                event = service.record_interaction(int(a[i]), int(b[i]), timestamp=float(due[i]))
            except Exception as error:
                _fail(ctx, error)
                phase.failed += 1
            else:
                done = perf() - started
                busy_s += done - now
                ack.append(done - due[i])
                seq_due[event.seq] = float(due[i])
                phase.ok += 1
        elif what == APPLY:
            try:
                report = updater.apply()
            except Exception as error:
                _fail(ctx, error)
                phase.failed += 1
            else:
                done = perf() - started
                busy_s += done - now
                applies.append((now, done))
                lo, hi = report.event_range
                fresh.extend(done - seq_due[seq] for seq in range(lo, hi))
                snapshots[service.snapshot.snapshot_id] = service.snapshot
        elif what == TICK:
            ticker.tick(base + float(due[i]))
            busy_s += perf() - started - now
        i += 1
    phase.wall_s = perf() - started
    out.update(read_latency=read_latency, lag=lag, ack=ack, fresh=fresh)
    out["busy_frac"] = busy_s / phase.wall_s
    out["behind_apply_frac"] = behind_apply(due[kind == READ], applies)
    return phase


def behind_apply(read_due, applies: list[tuple[float, float]]) -> float:
    """Share of reads due while an ``apply()`` ran, which therefore waited for it."""
    import numpy as np

    if not applies or not len(read_due):
        return 0.0
    starts, ends = np.asarray(applies).T
    last = np.searchsorted(starts, read_due, side="right") - 1
    inside = (last >= 0) & (read_due < ends[np.maximum(last, 0)])
    return float(inside.mean())


def closed_ingest(ctx: Context, out: dict) -> Phase:
    """Back-to-back ``record_interaction`` with ``apply()`` every ``APPLY_EVENTS``."""
    service, updater, pairs = ctx.service, ctx.updater, ctx.schedule.closed_pairs
    duration = ctx.seconds * CLOSED_SHARE
    phase = Phase()
    reference = Reference()
    acked_at = out["closed_done"] = []
    applied = out["closed_apply"] = []  # (end stamp, events drained, apply seconds) per cycle
    started = perf()
    n = 0
    while n < len(pairs) and perf() - started < duration:
        for user, item in pairs[n : n + APPLY_EVENTS]:
            phase.sent += 1
            try:
                service.record_interaction(int(user), int(item))
            except Exception as error:
                _fail(ctx, error)
                phase.failed += 1
            else:
                acked_at.append(perf() - started)
                phase.ok += 1
        n += APPLY_EVENTS
        apply_started = perf()
        try:
            report = updater.apply()
        except Exception as error:
            _fail(ctx, error)
            phase.failed += 1
        else:
            done = perf()
            applied.append((done - started, report.events_applied, done - apply_started))
            reference.run()
    phase.wall_s = perf() - started
    out["closed_ref_s"] = reference.seconds
    return phase


# ---------------------------------------------------------------------- #
# Correctness oracles
# ---------------------------------------------------------------------- #
def naive_topk(snapshot, user: int, k: int):
    """Full argsort over history-masked inner products: the reference answer."""
    import numpy as np

    scores = snapshot.item_embeddings @ snapshot.user_embeddings[user]
    scores[snapshot.train_items(user)] = -np.inf
    order = np.argsort(-scores, kind="stable")[:k]
    order = order[np.isfinite(scores[order])]
    return order, scores[order]


def check_answer(snapshot, user: int, rec, exact_scores: bool) -> tuple[bool, float | None]:
    """(answer is correct, recall against exact search or None)."""
    import numpy as np

    items, scores = np.asarray(rec.items), np.asarray(rec.scores)
    warm = 0 <= user < snapshot.num_users and snapshot.train_items(user).size > 0
    if len(np.unique(items)) != len(items) or len(items) == 0:
        return False, None  # includes an empty list labelled "model"
    if warm:
        if np.isin(items, snapshot.train_items(user)).any():
            return False, None
    if not warm:
        return rec.source == "popularity" and len(items) == K, None
    if rec.source != "model":
        return False, None  # a warm query degraded to the fallback
    recomputed = snapshot.item_embeddings[items] @ snapshot.user_embeddings[user]
    if not np.allclose(scores, recomputed, rtol=1e-6, atol=1e-9):
        return False, None
    if np.any(np.diff(scores) > 1e-9):
        return False, None
    expected_items, expected = naive_topk(snapshot, user, K)
    recall = len(np.intersect1d(items, expected_items)) / max(len(expected_items), 1)
    if exact_scores:
        # Compare by score, so equal-score items may resolve either way.
        ok = len(items) == len(expected) and np.allclose(scores, expected, rtol=1e-6, atol=1e-9)
        return bool(ok), recall
    return True, recall


def check_reads(ctx: Context, out: dict, exact_scores: bool) -> tuple[int, int, list[float]]:
    snapshots = out.get("snapshots", {})
    checked = failed = 0
    recalls: list[float] = []
    for user, ticket in out.get("checked", []):
        checked += 1
        try:
            rec = ticket.result()
            snapshot = snapshots.get(rec.snapshot_id, ctx.service.snapshot)
            ok, recall = check_answer(snapshot, user, rec, exact_scores)
        except Exception as error:
            _fail(ctx, error)
            ok, recall = False, None
        failed += not ok
        if recall is not None:
            recalls.append(recall)
    return checked, failed, recalls


# ---------------------------------------------------------------------- #
# Measured runs
# ---------------------------------------------------------------------- #
def ms(seconds: float) -> float:
    return seconds * 1e3


def ref_rate(seconds: list[float]) -> float:
    """Reference calls per second of reference time."""
    return len(seconds) / sum(seconds) if seconds else 0.0


def run_serve_uniform(ctx: Context) -> dict:
    from perfbench.schedule import BATCH
    from perfbench.stats import summarize, windowed_rates

    out: dict = {}
    ticker = Ticker(ctx.engine)
    closed = closed_reads(ctx, ticker, out)
    opened = open_loop(ctx, ticker, closed.wall_s, out)
    latency = summarize([ms(x) for x in out["read_latency"]])
    checked, wrong, _ = check_reads(ctx, out, exact_scores=True)
    stats = ctx.service.stats
    degraded = stats.degraded_queries + stats.deadline_shed
    blocks = out["closed_block_s"]
    qps, ratio = windowed_rates(out["closed_done"], [BATCH] * len(blocks), blocks, out["closed_ref_s"])
    result = {
        "attempted": closed.sent + opened.sent,
        "failed": closed.failed + opened.failed + wrong + degraded,
        "end_to_end": {"throughput_vs_ref": ratio},
        "detail": {
            "serve.qps": {"value": qps, "n": closed.ok},
            "ref.calls_per_s": {"value": ref_rate(out["closed_ref_s"]), "n": len(out["closed_ref_s"])},
            "serve.p50_ms": {"value": latency["p50"], "n": latency["n"], "pct": 50.0},
            "serve.p99_ms": {"value": latency["tail"], "n": latency["n"], "pct": latency["tail_pct"]},
            "oracle.checked": {"value": checked, "n": checked},
            "gen.open.busy_frac": {"value": out["busy_frac"], "n": opened.ok},
        },
        "phases": {"closed": closed.as_dict(), "open": opened.as_dict()},
        "lag": summarize([ms(x) for x in out["lag"]]),
        "health_busy_s": ticker.busy_s,
        "measured_s": closed.wall_s + opened.wall_s,
        "closed_block_s": out["closed_block_s"],
    }
    return result


def run_ingest_mixed(ctx: Context) -> dict:
    from repro.stream import EventLog

    from perfbench.stats import summarize, windowed_rate, windowed_rates

    out: dict = {}
    ticker = Ticker(ctx.engine)
    fsyncs_before = ctx.registry.value("wal.fsync.total")
    opened = open_loop(ctx, ticker, 0.0, out)
    closed = closed_ingest(ctx, out)
    ctx.service.flush()
    appended = len(ctx.log)
    fsyncs = ctx.registry.value("wal.fsync.total") - fsyncs_before
    checked, wrong, recalls = check_reads(ctx, out, exact_scores=False)
    acked = opened.ok - len(out["read_latency"]) + closed.ok
    ctx.log.close()
    recovered = EventLog.open(ctx.wal_path, fsync=True)
    lost = abs(acked - len(recovered))
    recovered.close()
    stats = ctx.service.stats
    degraded = stats.degraded_queries + stats.deadline_shed
    latency = summarize([ms(x) for x in out["read_latency"]])
    ack = summarize([ms(x) for x in out["ack"]])
    fresh = summarize([ms(x) for x in out["fresh"]])
    events_per_s = windowed_rate(out["closed_done"])
    # Fold-in capacity: events per second of apply() time.  Unlike
    # events_per_s it leaves out WAL fsync waits, whose latency follows the
    # shared disk rather than the program.
    apply_rate, ratio = windowed_rates(*zip(*out["closed_apply"]), out["closed_ref_s"])
    recall = sum(recalls) / len(recalls) if recalls else 0.0
    return {
        "attempted": opened.sent + closed.sent,
        "failed": opened.failed + closed.failed + wrong + degraded + lost,
        "end_to_end": {"throughput_vs_ref": ratio},
        "detail": {
            "serve.p50_ms": {"value": latency["p50"], "n": latency["n"], "pct": 50.0},
            "serve.p99_ms": {"value": latency["tail"], "n": latency["n"], "pct": latency["tail_pct"]},
            "serve.recall_vs_exact": {"value": recall, "n": len(recalls)},
            "ingest.ack_p99_ms": {"value": ack["tail"], "n": ack["n"], "pct": ack["tail_pct"]},
            "ingest.fresh_p50_ms": {"value": fresh["p50"], "n": fresh["n"], "pct": 50.0},
            "ingest.fresh_p99_ms": {"value": fresh["tail"], "n": fresh["n"], "pct": fresh["tail_pct"]},
            "ingest.events_per_s": {"value": events_per_s, "n": closed.ok},
            "ingest.foldin_events_per_s": {"value": apply_rate, "n": len(out["closed_apply"])},
            "ref.calls_per_s": {"value": ref_rate(out["closed_ref_s"]), "n": len(out["closed_ref_s"])},
            "wal.recovered": {"value": len(recovered), "n": acked},
            "oracle.checked": {"value": checked, "n": checked},
            "gen.open.busy_frac": {"value": out["busy_frac"], "n": opened.ok},
            "gen.open.reads_behind_apply_frac": {"value": out["behind_apply_frac"], "n": len(out["read_latency"])},
        },
        "phases": {"open": opened.as_dict(), "closed": closed.as_dict()},
        "lag": summarize([ms(x) for x in out["lag"]]),
        "health_busy_s": ticker.busy_s,
        "measured_s": opened.wall_s + closed.wall_s,
        "fsyncs_per_event": fsyncs / appended if appended else 0.0,
        "events_applied": appended,
    }


class StepClock:
    """Stands in for the trainer's sampler and timestamps every step.

    A step is the wall time from one batch being handed to the trainer to
    the next (the step itself plus producing the next batch).  One
    :class:`Reference` call runs between steps.
    """

    def __init__(self, sampler) -> None:
        self._sampler = sampler
        self.steps: list[float] = []
        self.examples = 0
        self.reference = Reference()

    def epoch(self):
        last = None
        for batch in self._sampler.epoch():
            now = perf()
            if last is not None:
                self.steps.append(now - last)
            self.reference.run()  # between steps, outside their timing
            last = perf()
            self.examples += len(batch)
            yield batch
        if last is not None:
            self.steps.append(perf() - last)

    def __getattr__(self, name):
        return getattr(self._sampler, name)


def run_train_darec(ctx: Context) -> dict:
    import numpy as np

    from repro.serve import create_snapshot, load_snapshot, save_snapshot
    from repro.train import Trainer, TrainingConfig

    from perfbench.stats import summarize

    started = perf()
    trainer = Trainer(
        ctx.model, TrainingConfig(epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH, seed=ctx.seed)
    )
    ctx.profiler = trainer.enable_profiling() if ctx.tracer is not None else None
    clock = StepClock(trainer.sampler)
    trainer.sampler = clock
    history = trainer.fit()
    result = trainer.evaluate("test")
    snapshot = create_snapshot(ctx.model)
    path = ctx.work / f"train-{os.getpid()}.npz"
    save_started = perf()
    save_snapshot(snapshot, path)
    load_started = perf()
    loaded = load_snapshot(path, verify=True)
    done = perf()
    ref_s = clock.reference.seconds
    wall_s = done - started - clock.reference.spent_s
    ctx.cleanup += list(path.parent.glob(path.name + "*"))
    finite = bool(np.all(np.isfinite(history.epoch_losses)))
    reload_ok = all(
        np.array_equal(getattr(loaded, name), getattr(snapshot, name))
        for name in ("user_embeddings", "item_embeddings", "train_indptr", "train_indices", "item_popularity")
    )
    steps = summarize([ms(x) for x in clock.steps])
    recall = float(result.metrics["recall@20"])
    ctx.eval_users = result.num_users
    ctx.ref_spent_s = clock.reference.spent_s
    return {
        "attempted": len(clock.steps) + 2,
        "failed": (0 if finite else len(clock.steps)) + (not reload_ok) + (not np.isfinite(recall)),
        "end_to_end": {"throughput_vs_ref": clock.examples / wall_s * statistics.fmean(ref_s)},
        "detail": {
            "train.wall_s": {"value": wall_s, "n": 1},
            "train.examples_per_s": {"value": clock.examples / wall_s, "n": 1},
            "ref.calls_per_s": {"value": ref_rate(ref_s), "n": len(ref_s)},
            "train.recall20": {"value": recall, "n": result.num_users},
            "train.step_ms": {"value": steps["p50"], "n": steps["n"], "pct": 50.0},
            "train.step_tail_ms": {"value": steps["tail"], "n": steps["n"], "pct": steps["tail_pct"]},
        },
        "phases": {},
        "epoch_losses": [float(x) for x in history.epoch_losses],
        "save_s": load_started - save_started,
        "load_verify_s": done - load_started,
        "steps": len(clock.steps),
        "measured_s": wall_s,
    }


# ---------------------------------------------------------------------- #
# Per-layer reduction (traced runs)
# ---------------------------------------------------------------------- #
def layer_metrics(ctx: Context, result: dict) -> dict:
    from perfbench.stats import summarize

    spans = ctx.tracer.by_name()

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def mean_ms(name: str, field: str = "total_s") -> float:
        row = spans.get(name)
        return ms(row[field] / row["calls"]) if row else 0.0

    def pct_ms(name: str) -> dict:
        return summarize([ms(x) for x in spans.get(name, {}).get("durations", [])])

    metrics: dict[str, float] = {}
    serving = ctx.workload != "train-darec"
    queries = ctx.service.stats.queries if serving else getattr(ctx, "eval_users", 0)
    metrics["eval.topk.ms"] = mean_ms("eval.topk")
    metrics["eval.topk.calls_per_query"] = calls("eval.topk") / queries if queries else 0.0
    metrics["serve.retrieval.ms"] = mean_ms("serve.retrieval")
    metrics["serve.mask.ms"] = mean_ms("serve.mask")
    metrics["serve.index.search_ms"] = mean_ms("serve.index")
    metrics["serve.index.self_ms"] = mean_ms("serve.index", "self_s")
    flushes = calls("serve.flush")
    service_self = sum(
        spans.get(name, {}).get("self_s", 0.0) for name in ("serve.flush", "serve.recommend_many")
    )
    metrics["serve.service.self_ms"] = ms(service_self / flushes) if flushes else 0.0
    if serving:
        stats, cache = ctx.service.stats, ctx.service.cache
        lookups = cache.hits + cache.misses
        metrics["serve.batch_size"] = stats.batched_queries / stats.batches if stats.batches else 0.0
        metrics["serve.cache.hit_frac"] = cache.hits / lookups if lookups else 0.0
        metrics["serve.fallback_frac"] = stats.fallbacks / stats.queries if stats.queries else 0.0
    else:
        metrics["serve.batch_size"] = metrics["serve.cache.hit_frac"] = 0.0
        metrics["serve.fallback_frac"] = 0.0
    metrics["serve.swap_ms"] = mean_ms("serve.swap")
    metrics["obs.health.tick_ms"] = mean_ms("obs.health.tick")
    measured = result["measured_s"]
    metrics["obs.health.busy_frac"] = result.get("health_busy_s", 0.0) / measured if serving else 0.0
    append = pct_ms("stream.wal.append")
    metrics["stream.wal.append_p50_ms"] = append["p50"]
    metrics["stream.wal.append_p99_ms"] = append["tail"]
    metrics["stream.wal.fsyncs_per_event"] = result.get("fsyncs_per_event", 0.0)
    apply = pct_ms("stream.apply")
    metrics["stream.apply_p50_ms"] = apply["p50"]
    metrics["stream.apply_tail_ms"] = apply["tail"]
    applies = calls("stream.apply")
    metrics["stream.events_per_cycle"] = result.get("events_applied", 0) / applies if applies else 0.0
    metrics["stream.csr_merge_ms"] = mean_ms("stream.csr_merge")
    metrics["stream.live_popularity_ms"] = mean_ms("stream.live_popularity")
    metrics["stream.foldin.ms_per_user"] = mean_ms("stream.foldin")
    metrics["stream.foldin.users_per_cycle"] = calls("stream.foldin") / applies if applies else 0.0
    drift = spans.get("stream.drift", {}).get("total_s", 0.0)
    metrics["stream.drift_ms"] = ms(drift / applies) if applies else 0.0
    metrics["stream.delta_build_ms"] = mean_ms("stream.delta_build")
    metrics["snapshot.save_ms"] = ms(result.get("save_s", 0.0))
    metrics["snapshot.load_verify_ms"] = ms(ctx.setup.get("load_verify_s", result.get("load_verify_s", 0.0)))

    profiler = getattr(ctx, "profiler", None)
    steps = result.get("steps", 0)
    per_step = (lambda seconds: ms(seconds / steps)) if steps else (lambda seconds: 0.0)
    rows = profiler.seconds if profiler is not None else {}
    # The benchmark's reference calls run inside the sampler's next(), so
    # they are taken out of the sampler and epoch times.
    ref_spent = getattr(ctx, "ref_spent_s", 0.0)
    epoch = spans.get("train.epoch")
    metrics["train.epoch_s"] = (epoch["total_s"] - ref_spent) / epoch["calls"] if epoch else 0.0
    metrics["train.steps"] = float(steps)
    metrics["train.sampler_ms_per_step"] = per_step(rows.get("sampler.next", 0.0) - ref_spent)
    metrics["train.inputs_ms_per_step"] = per_step(rows.get("step.inputs", 0.0))
    metrics["train.tape_ms_per_step"] = per_step(
        sum(v for key, v in rows.items() if key.endswith((".fwd", ".bwd")))
    )
    metrics["train.optimizer_ms_per_step"] = per_step(rows.get("optimizer.step", 0.0))
    for op in TRAIN_OPS:
        metrics[f"train.op.{op}_ms"] = per_step(rows.get(op, 0.0))
    metrics["eval.evaluate_s"] = mean_ms("eval.evaluate") / 1e3

    metrics["setup.import_s"] = ctx.setup.get("import_s", 0.0)
    metrics["setup.index_build_s"] = ctx.setup.get("index_build_s", 0.0)
    metrics["setup.data_s"] = ctx.setup.get("data_s", 0.0)
    metrics["setup.gc_full_ms"] = ms(ctx.setup["gc_full_s"])

    phases = result.get("phases", {})
    for phase in ("open", "closed"):
        counts = phases.get(phase, {})
        for key in ("sent", "ok", "failed"):
            metrics[f"gen.{phase}.{key}"] = float(counts.get(key, 0))
    metrics["gen.open.lag_p99_ms"] = result.get("lag", {}).get("tail", 0.0) if "open" in phases else 0.0
    detail = result["detail"]
    for name in ("gen.open.busy_frac", "gen.open.reads_behind_apply_frac"):
        metrics[name] = detail[name]["value"] if name in detail else 0.0

    breakdown = flush_breakdown(ctx) if ctx.workload == "serve-uniform" else {}
    blocks = sum(result.get("closed_block_s", []))
    if breakdown and blocks:
        result["flush_breakdown_ms"] = {name: ms(v) for name, v in breakdown.items()}
        result["flush_block_ms"] = ms(blocks)
        metrics["trace.flush_unattributed_frac"] = 1.0 - sum(breakdown.values()) / blocks
    else:
        metrics["trace.flush_unattributed_frac"] = 0.0
    return metrics


def flush_breakdown(ctx: Context) -> dict[str, float]:
    """Self seconds per span name inside the closed-loop phase's flush trees.

    The self times of a span tree sum to its root's duration, so together
    with the generator-measured block time they give the flush wall time
    that no layer span accounts for.
    """
    tracer = ctx.tracer
    self_times = tracer.self_times()
    inside = [False] * len(tracer.names)
    table: dict[str, float] = {}
    for index, name in enumerate(tracer.names):
        if tracer.starts[index] > ctx.closed_end:
            break
        parent = tracer.parents[index]
        inside[index] = name == "serve.flush" or (parent >= 0 and inside[parent])
        if inside[index]:
            table[name] = table.get(name, 0.0) + self_times[index]
    return table


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
SETUPS = {
    "serve-uniform": lambda ctx: setup_serving(ctx, ingest=False),
    "ingest-mixed": lambda ctx: setup_serving(ctx, ingest=True),
    "train-darec": setup_train,
}
RUNS = {
    "serve-uniform": run_serve_uniform,
    "ingest-mixed": run_ingest_mixed,
    "train-darec": run_train_darec,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("corpus", "setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(RUNS), default="serve-uniform")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    if args.mode == "corpus":
        build_corpus(args.work, args.seed)
        return 0

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer()
    ctx = Context(args.workload, args.seed, args.seconds, args.work, tracer)
    try:
        SETUPS[args.workload](ctx)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        result = RUNS[args.workload](ctx)
        # One full collection, timed after the measured phases: its pause
        # grows with everything the program imported and keeps alive.
        started = perf()
        gc.collect()
        ctx.setup["gc_full_s"] = perf() - started
        result["setup"] = ctx.setup
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["worker_s"] = perf() - _PROCESS_T0
        result["notes"] = ctx.notes
        if tracer is not None:
            result["per_layer"] = layer_metrics(ctx, result)
            result["missing_targets"] = tracer.missing
            tracer.write(args.work / f"trace-{args.workload}.jsonl")
        result.pop("closed_block_s", None)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        if getattr(ctx, "log", None) is not None:
            ctx.log.close()
        for path in ctx.cleanup:
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            elif path.exists():
                path.unlink()


if __name__ == "__main__":
    sys.exit(main())
