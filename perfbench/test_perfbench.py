"""Tests of the benchmark's own machinery: seeded schedules and tracing."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from perfbench import schedule, stats, worker
from perfbench.tracer import TARGETS, Tracer, _owner
from repro.obs import use_registry
from repro.serve import build_snapshot, save_snapshot


def _arrays(value) -> list[np.ndarray]:
    """Every array of a (possibly nested) schedule dataclass, in field order."""
    out = []
    for field in fields(value):
        item = getattr(value, field.name)
        out.extend(_arrays(item) if hasattr(item, "__dataclass_fields__") else [item])
    return out


def _schedules(seed: int):
    warm = np.arange(5, 400)
    yield schedule.serve_uniform(seed, warm, rate=500.0, closed_s=0.2, open_s=1.5)
    yield schedule.ingest_mixed(
        seed, warm, 400, 300, read_rate=300.0, write_rate=100.0,
        apply_every=0.5, open_s=1.5, closed_s=0.1,
    )


def test_same_seed_gives_identical_schedule():
    for first, second in zip(_schedules(7), _schedules(7)):
        for a, b in zip(_arrays(first), _arrays(second)):
            np.testing.assert_array_equal(a, b)


def test_different_seed_changes_schedule():
    for first, second in zip(_schedules(7), _schedules(8)):
        assert any(
            a.shape != b.shape or not np.array_equal(a, b)
            for a, b in zip(_arrays(first), _arrays(second))
        )


def test_ingest_timeline_is_ordered_and_valid():
    ingest = list(_schedules(3))[1]
    timeline = ingest.timeline
    assert np.all(np.diff(timeline.due) >= 0)
    writes = timeline.kind == schedule.WRITE
    assert np.all((timeline.b[writes] >= 0) & (timeline.b[writes] < 300))
    new = (timeline.a[writes] >= 400).mean()
    assert 0.1 < new < 0.5  # ~30% of writes come from ids past the snapshot
    new_reads = (timeline.a[timeline.kind == schedule.READ] >= 400).mean()
    assert 0.1 < new_reads < 0.5  # reads come from the same user mix
    assert (timeline.kind == schedule.APPLY).sum() == 3
    assert (timeline.kind == schedule.TICK).sum() == 1
    assert not timeline.check[timeline.kind != schedule.READ].any()


def test_ratio_to_reference_cancels_machine_speed():
    # Two 1 s windows; in the second the machine runs at half speed, so both
    # the program's 64-query blocks and the reference calls take twice as long.
    stamps = [0.1, 0.5, 0.9, 1.1, 1.5, 1.9]
    block = [0.01] * 3 + [0.02] * 3
    ref = [0.001] * 3 + [0.002] * 3
    rate, ratio = stats.windowed_rates(stamps, [64] * 6, block, ref)
    assert rate == pytest.approx(np.median([6400.0, 3200.0]))
    assert ratio == pytest.approx(6.4)


def _originals() -> dict:
    return {
        (module, cls, attribute): vars(_owner(module, cls))[attribute]
        for module, cls, attribute, _ in TARGETS
    }


def test_tracer_restores_every_patched_attribute():
    before = _originals()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(
            vars(_owner(module, cls))[attribute] is not before[(module, cls, attribute)]
            for module, cls, attribute, _ in TARGETS
        )
        from repro.serve import retrieval

        retrieval.exact_topk(np.eye(3), np.eye(3), k=2)
    finally:
        tracer.uninstall()
    assert tracer.names == ["eval.topk"]
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_self_time_subtracts_child_coverage():
    tracer = Tracer()
    tracer.names = ["flush", "search", "topk", "topk"]
    tracer.parents = [-1, 0, 1, 1]
    tracer.starts = [0.0, 1.0, 2.0, 5.0]
    tracer.ends = [10.0, 8.0, 4.0, 6.0]
    assert tracer.self_times() == [3.0, 4.0, 2.0, 1.0]
    table = tracer.by_name()
    assert table["topk"]["calls"] == 2 and table["topk"]["self_s"] == 3.0
    assert sum(tracer.self_times()) == 10.0  # self times partition the root


@pytest.fixture()
def tiny_corpus(tmp_path):
    rng = np.random.default_rng(0)
    users, items = rng.normal(size=(200, 8)), rng.normal(size=(300, 8))
    pairs = np.column_stack([rng.integers(0, 200, 2000), rng.integers(0, 300, 2000)])
    save_snapshot(build_snapshot(users, items, train_pairs=pairs), worker.corpus_path(tmp_path, 0))
    return tmp_path


def _run(work, capsys, trace: int) -> dict:
    argv = ["--mode", "run", "--workload", "serve-uniform", "--seed", "0"]
    argv += ["--seconds", "0.5", "--trace", str(trace), "--work", str(work)]
    with use_registry():
        assert worker.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "READY"
    return json.loads(lines[-1])


def test_untraced_run_never_installs_wrappers(tiny_corpus, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed trace wrappers")

    monkeypatch.setattr(Tracer, "install", refuse)
    before = _originals()
    result = _run(tiny_corpus, capsys, trace=0)
    assert "per_layer" not in result
    assert result["failed"] == 0 and result["attempted"] > 0
    assert all(_originals()[key] is before[key] for key in before)


def test_traced_run_uninstalls_and_reports_layers(tiny_corpus, capsys):
    before = _originals()
    result = _run(tiny_corpus, capsys, trace=1)
    assert all(_originals()[key] is before[key] for key in before)
    assert result["failed"] == 0
    layers = result["per_layer"]
    assert layers["eval.topk.ms"] > 0 and layers["serve.index.search_ms"] > 0
    assert 0 <= layers["trace.flush_unattributed_frac"] < 1
    assert (tiny_corpus / "trace-serve-uniform.jsonl").exists()


def test_catalogue_matches_benchmark_spec():
    root = worker.ROOT
    spec = json.loads((root / "BENCHMARK.json").read_text())
    catalogue = json.loads((root / "perfbench" / "metrics.json").read_text())
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        described = {name: (m["unit"], m["better"]) for name, m in catalogue[section].items()}
        assert listed == described
    assert {w["name"] for w in spec["workloads"]} == set(catalogue["workloads"]) == set(worker.RUNS)
