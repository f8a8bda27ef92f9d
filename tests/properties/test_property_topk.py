"""Differential property tests: the top-K kernel against the legacy selection.

``legacy_topk`` (defined in ``tests/eval/test_topk.py``) is the per-row
negate-and-argpartition selection the evaluator used before the shared kernel.
For ``sort=True`` the kernel must return exactly its indices, row by row,
whichever of the kernel's two paths answers; ``sort=False`` must return the
same set.  Score matrices are drawn from a seed plus a few shape knobs, so
each example can be wide enough to take the bound-and-filter path.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.topk import FILTER_MIN_SCORES, FILTER_MIN_WIDTH, topk_indices

# ``repro.eval.topk`` the attribute is the function; the module is in sys.modules.
topk_module = importlib.import_module("repro.eval.topk")

_SPEC = importlib.util.spec_from_file_location(
    "_topk_reference", Path(__file__).resolve().parents[1] / "eval" / "test_topk.py"
)
_REFERENCE = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_REFERENCE)
legacy_topk = _REFERENCE.legacy_topk

SETTINGS = settings(max_examples=60, deadline=None)

#: Widths the kernel switches on, plus non-multiples of its 128 lanes.
EDGE_WIDTHS = (1, 2, 3, 127, 128, 129, 511, 512, 513, 640, 1000, 2240, 3000)


@st.composite
def score_matrix(draw):
    """``(scores, k)``: a 2-D matrix with ties, infinities and NaNs mixed in."""
    width = draw(st.one_of(st.sampled_from(EDGE_WIDTHS), st.integers(1, 3000)))
    # Enough rows that wide matrices reach the filter path's minimum size.
    min_rows = -(-FILTER_MIN_SCORES // width) if width >= FILTER_MIN_WIDTH else 1
    rows = draw(st.integers(min_rows, min_rows + 4))
    k = draw(st.one_of(st.integers(1, 25), st.integers(1, width + 5)))
    seed = draw(st.integers(0, 2**32 - 1))
    levels = draw(st.sampled_from([0, 3, 50, 10_000]))  # 0: continuous scores
    pos_inf, neg_inf, nan = (draw(st.sampled_from([0.0, 0.001, 0.3])) for _ in range(3))
    dtype = draw(st.sampled_from([np.float64, np.float32]))

    rng = np.random.default_rng(seed)
    if levels:
        scores = rng.integers(0, levels, size=(rows, width)).astype(dtype)
    else:
        scores = rng.normal(size=(rows, width)).astype(dtype)
    for value, fraction in ((np.inf, pos_inf), (-np.inf, neg_inf), (np.nan, nan)):
        scores[rng.random(scores.shape) < fraction] = value
    return scores, k


def _assert_matches_legacy(scores: np.ndarray, k: int) -> None:
    selected = topk_indices(scores, k)
    assert selected.shape == (scores.shape[0], min(k, scores.shape[1]))
    for row in range(scores.shape[0]):
        np.testing.assert_array_equal(selected[row], legacy_topk(scores[row], k))


class TestTopkMatchesLegacy:
    @SETTINGS
    @given(score_matrix())
    def test_sorted_rows_identical(self, case):
        scores, k = case
        _assert_matches_legacy(scores, k)

    @SETTINGS
    @given(score_matrix())
    def test_unsorted_returns_same_set(self, case):
        scores, k = case
        unsorted = topk_indices(scores, k, sort=False)
        expected = np.stack([legacy_topk(row, k) for row in scores])
        np.testing.assert_array_equal(np.sort(unsorted, axis=1), np.sort(expected, axis=1))

    @SETTINGS
    @given(score_matrix())
    def test_one_dimensional_rows(self, case):
        scores, k = case
        row = scores[0]
        np.testing.assert_array_equal(topk_indices(row, k), legacy_topk(row, k))

    def test_wide_one_dimensional_input(self):
        rng = np.random.default_rng(3)
        row = rng.integers(0, 5000, size=FILTER_MIN_SCORES + 17).astype(float)
        for k in (1, 10, 127, 128, 40_000):
            np.testing.assert_array_equal(topk_indices(row, k), legacy_topk(row, k))

    def test_k_at_least_width_returns_every_index(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(70, FILTER_MIN_WIDTH))
        _assert_matches_legacy(scores, FILTER_MIN_WIDTH)
        _assert_matches_legacy(scores, FILTER_MIN_WIDTH + 9)


@pytest.fixture
def fallback_rows(monkeypatch):
    """Row counts of every call that reaches the partition path."""
    calls = []
    partition = topk_module._partition_select

    def counting(scores, k, sort):
        calls.append(scores.shape[0] if scores.ndim == 2 else 1)
        return partition(scores, k, sort)

    monkeypatch.setattr(topk_module, "_partition_select", counting)
    return calls


class TestFilterPathRuns:
    """The differential tests above only prove something if wide, tie-free
    rows really skip the partition fallback."""

    def test_continuous_scores_need_no_fallback(self, fallback_rows):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(64, 16)) @ rng.normal(size=(2240, 16)).T
        for k in (1, 10, 20, 100):
            _assert_matches_legacy(scores, k)
        assert fallback_rows == []

    def test_tied_and_nan_rows_fall_back_alone(self, fallback_rows):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=(64, 1024))
        scores[3, 7] = np.nan
        scores[9, :2] = scores[9].max() + 1.0  # tie at the top
        _assert_matches_legacy(scores, 10)
        assert fallback_rows == [2]
