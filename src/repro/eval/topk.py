"""Shared top-K selection kernel.

Both the offline all-ranking evaluator (:mod:`repro.eval.protocol`) and the
online serving layer (:mod:`repro.serve`) rank candidates with the functions in
this module, so the two paths cannot drift apart.  Two selection paths give
the same answer:

* **Partition**, the reference: negate the scores, ``np.argpartition`` each
  row (O(n) introselect) and sort only the selected ``k`` entries.
* **Bound and filter**, for float score matrices at least
  ``FILTER_MIN_WIDTH`` = 512 wide with at least ``FILTER_MIN_SCORES`` = 32768
  scores in total and ``k < LANES``:

  - *Bound.*  One strided max over ``LANES`` = 128 interleaved lanes (column
    ``j`` belongs to lane ``j % 128``) yields 128 lane maxima per row.  They
    sit at distinct positions, so the ``k``-th largest of them is a lower
    bound on the row's ``k``-th largest score.
  - *Filter.*  One ``scores >= bound`` compare plus ``np.flatnonzero`` (not
    2-D ``np.nonzero``, which is an order of magnitude slower) keeps about
    ``k`` candidates per row — 10.3 for ``k=10`` over 8k items.  Only those
    are sorted: no negated copy and no full-width partition output.
  - *Certify.*  When a row's top ``k + 1`` candidates are strictly
    decreasing, its top-``k`` set and order are unique, so the partition path
    returns the same indices.  Rows that cannot be certified go through the
    partition path unchanged: a tie at or inside the top ``k``, a NaN
    anywhere in the row, fewer than ``k`` lanes above ``-inf`` (fewer than
    ``k`` finite scores), or more than ``MAX_CANDIDATES_PER_ROW * (k + 1)``
    candidates (many ties near the bound).

Narrower inputs take the partition path: IVF cells, IVF candidate pools,
centroid scores and single-user requests, where the filter's ~20 NumPy calls
cost more than they save.  The path depends on the input's shape, dtype and
``k`` alone.  With ``sort=True`` every result is bit-identical to the
partition path's; with ``sort=False`` the set is the same and the order is
unspecified.
"""

from __future__ import annotations

import numpy as np

__all__ = ["topk_indices", "topk"]

#: Interleaved lanes of the bound's strided max; the bound needs ``k < LANES``.
LANES = 128
#: Narrowest row that takes the bound-and-filter path.
FILTER_MIN_WIDTH = 512
#: Fewest scores per call that take it: the filter's fixed cost (~70 us on a
#: 2-vCPU VM) outweighs a partition of a few short rows.
FILTER_MIN_SCORES = 1 << 15
#: A row keeping more than this many candidates per selected entry has many
#: ties near its bound and is answered by the partition instead.
MAX_CANDIDATES_PER_ROW = 4


def topk_indices(scores: np.ndarray, k: int, sort: bool = True) -> np.ndarray:
    """Indices of the ``k`` largest entries per row, in descending score order.

    Parameters
    ----------
    scores:
        1-D array of ``n`` scores or 2-D array of shape ``(rows, n)``.
    k:
        Number of entries to select.  When ``k >= n`` all ``n`` indices are
        returned (the result is never padded).
    sort:
        When ``True`` (default) the selected indices are ordered by descending
        score; when ``False`` their order is unspecified, which is cheaper if
        the caller re-ranks anyway.

    Returns
    -------
    Array of shape ``(min(k, n),)`` or ``(rows, min(k, n))``.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    scores = np.asarray(scores)
    if scores.ndim not in (1, 2):
        raise ValueError("scores must be a 1-D or 2-D array")
    n = scores.shape[-1]
    if n == 0:
        raise ValueError("cannot select top-k of zero candidates")
    k = min(k, n)
    if (
        n < FILTER_MIN_WIDTH
        or scores.size < FILTER_MIN_SCORES
        or k >= LANES
        or scores.dtype.kind != "f"
    ):
        return _partition_select(scores, k, sort)
    if scores.ndim == 1:
        return _filter_select(scores[None, :], k, sort)[0]
    return _filter_select(scores, k, sort)


def _partition_select(scores: np.ndarray, k: int, sort: bool) -> np.ndarray:
    """Negate-and-``argpartition`` selection: the reference path."""
    negated = -scores
    # The partition path is used even when k == n so that tie-breaking is
    # bit-identical for every k; introselect on each row of a 2-D array matches
    # a per-row 1-D call exactly.
    kth = min(k, scores.shape[-1] - 1)
    selected = np.argpartition(negated, kth, axis=-1)[..., :k]
    if not sort:
        return selected
    selected_scores = np.take_along_axis(negated, selected, axis=-1)
    order = np.argsort(selected_scores, axis=-1)
    return np.take_along_axis(selected, order, axis=-1)


def _filter_select(scores: np.ndarray, k: int, sort: bool) -> np.ndarray:
    """Bound-and-filter selection over a ``(rows, n)`` matrix, ``n >= 512``."""
    rows, n = scores.shape
    whole = n - n % LANES
    # Splitting the last axis into (blocks, LANES) is a view, not a copy.
    lane_max = scores[:, :whole].reshape(rows, -1, LANES).max(axis=1)
    if whole < n:
        tail = lane_max[:, : n - whole]
        np.maximum(tail, scores[:, whole:], out=tail)
    bound = np.partition(lane_max, LANES - k, axis=1)[:, LANES - k]
    # NaN propagates through max, so a NaN anywhere in a row shows in its lanes.
    uncertain = np.isnan(lane_max).any(axis=1) | (bound == -np.inf)
    # A NaN bound keeps no candidates: these rows are answered by the partition.
    bound[uncertain] = np.nan

    flat = np.flatnonzero(scores >= bound[:, None])
    cand_rows, cand_cols = np.divmod(flat, n)
    counts = np.bincount(cand_rows, minlength=rows)
    # Many candidates means many ties near the bound: leave those rows to the
    # partition rather than sort a wide padded matrix.
    crowded = counts > MAX_CANDIDATES_PER_ROW * (k + 1)
    if crowded.any():
        uncertain |= crowded
        keep = ~crowded[cand_rows]
        cand_rows, cand_cols = cand_rows[keep], cand_cols[keep]
        counts[crowded] = 0
    if not cand_rows.size:
        return _partition_select(scores, k, sort)

    # Scatter each row's candidates into a -inf padded (rows, width) matrix;
    # a certified row's candidates are all above -inf.
    slot = np.arange(cand_rows.size) - (np.cumsum(counts) - counts)[cand_rows]
    width = max(int(counts.max()), k + 1)
    cand_scores = np.full((rows, width), -np.inf, dtype=scores.dtype)
    cand_scores[cand_rows, slot] = scores[cand_rows, cand_cols]
    cand_ids = np.zeros((rows, width), dtype=np.intp)
    cand_ids[cand_rows, slot] = cand_cols
    order = np.argsort(-cand_scores, axis=1)[:, : k + 1]
    row_ids = np.arange(rows)[:, None]
    top_scores = cand_scores[row_ids, order]
    result = cand_ids[row_ids, order[:, :k]]

    # Certify: the top k + 1 are strictly decreasing (padding counts as -inf).
    tied = (top_scores[:, :-1] <= top_scores[:, 1:]).any(axis=1)
    fallback = np.flatnonzero(uncertain | tied)
    if fallback.size:
        result[fallback] = _partition_select(scores[fallback], k, sort)
    return result


def topk(scores: np.ndarray, k: int, sort: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`topk_indices` but also returns the selected scores."""
    indices = topk_indices(scores, k, sort=sort)
    values = np.take_along_axis(np.asarray(scores), indices, axis=-1)
    return indices, values
