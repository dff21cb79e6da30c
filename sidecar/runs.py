"""Run kernels: the in-partition fine grouping every ``copartition`` body
shares.

A body gets a whole partition, many keys at once.  Sorted by its keys, each
key value is one run of consecutive rows, so the per-key work of a pandas
groupby is a vectorized pass over run starts: ``first`` is
``drop_duplicates(keep="first")``, ``rank`` is ``groupby().cumcount()``
(``head(k)`` keeps ``rank < k``) and ``cumsum`` is ``groupby().cumsum()``.
Sorts are stable and put nulls last, as pandas does.  Null keys keep pandas'
semantics: ``first`` keeps one null-key row, and ``groups`` (every
groupby-shaped kernel's input) drops null-key rows, as ``dropna=True`` does.
Plain aggregates need no runs: ``Table.group_by(keys, use_threads=False)``.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _order(keys: list[str], order: tuple) -> list[tuple[str, str]]:
    return [(k, "ascending") for k in keys] + [
        (c, "ascending") if isinstance(c, str) else c for c in order]


def starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """True where a row starts a run of equal ``keys`` (two nulls are
    equal), on a table sorted by ``keys``."""
    n = t.num_rows
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for k in keys if n > 1 else ():
        c = t.column(k)
        a, b = c.slice(1), c.slice(0, n - 1)
        ne = pc.not_equal(a, b)  # null where either side is null
        if c.null_count:
            ne = pc.coalesce(ne, pc.xor(pc.is_null(a), pc.is_null(b)))
        new[1:] |= ne.to_numpy(zero_copy_only=False)
    return new


def first(t: pa.Table, keys: list[str], order: tuple = ()) -> pa.Table:
    """The first row of each ``keys`` value under a stable sort by ``keys``,
    then ``order`` (column names ascending, or ``(column, "descending")``
    pairs): ``drop_duplicates(keys, keep="first")`` after
    ``sort_values``.  Only the key columns and the kept rows are copied."""
    idx = pc.sort_indices(t, _order(keys, order), null_placement="at_end")
    return t.take(idx.filter(pa.array(starts(t.select(keys).take(idx), keys))))


def groups(t: pa.Table, keys: list[str],
           order: tuple = ()) -> tuple[pa.Table, np.ndarray]:
    """``t`` without its null-key rows, sorted stably by ``keys`` then
    ``order`` (as in :func:`first`), and its run starts."""
    nulls = [k for k in keys if t.column(k).null_count]
    if nulls:
        t = t.filter(functools.reduce(pc.and_, [pc.is_valid(t[k]) for k in nulls]))
    t = t.sort_by(_order(keys, order))
    return t, starts(t, keys)


def rank(starts: np.ndarray) -> np.ndarray:
    """Each row's 0-based position in its run."""
    i = np.arange(len(starts))
    return i - np.maximum.accumulate(np.where(starts, i, 0))


def cumsum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Inclusive running sum of ``values`` within each run.  Integers sum in
    one pass; floats restart at every run, so one run's rounding never
    carries into the next."""
    if values.dtype.kind == "f":
        out = np.empty(len(values))
        bounds = [*np.flatnonzero(starts).tolist(), len(values)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            np.cumsum(values[s:e], out=out[s:e])
        return out
    total = np.cumsum(values, dtype=np.int64)
    before = (total - values)[np.flatnonzero(starts)]
    return total - before[np.cumsum(starts) - 1]


def spans(starts: np.ndarray, min_rows: int = 1) -> list[tuple[int, int]]:
    """``(start, end)`` of each run of at least ``min_rows`` rows: the loop
    of a body whose per-run work cannot be vectorized (a matmul, all pairs
    of a run) visits these only."""
    b = np.flatnonzero(np.r_[starts, True])
    keep = np.diff(b) >= min_rows
    return list(zip(b[:-1][keep].tolist(), b[1:][keep].tolist()))
