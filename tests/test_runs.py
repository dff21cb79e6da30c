"""sidecar.runs: the run kernels copartition bodies share give what the
pandas idioms they replace give, on random tables with ties, one-row runs,
null keys and no rows at all."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from sidecar import runs

KEYS = ["k", "j"]


def _table(n: int, seed: int, nulls: bool) -> pa.Table:
    rng = np.random.default_rng(seed)
    k = [f"h{x}" for x in rng.integers(0, max(1, n // 3), n)]
    if nulls:  # about one key in eight is null
        k = [None if x < 0.125 else v for v, x in zip(k, rng.random(n))]
    return pa.table({
        "k": pa.array(k, pa.string()),
        "j": pa.array(rng.integers(0, 3, n), pa.int64()),
        "p": pa.array(rng.integers(0, 5, n).astype(np.float64)),
        "v": pa.array(rng.integers(0, 100, n), pa.int64()),
        "row": pa.array(np.arange(n), pa.int64()),
    })


CASES = [(n, seed, nulls) for n, seed in ((0, 0), (1, 1), (7, 2), (500, 3))
         for nulls in (False, True)]


def _sorted_df(t: pa.Table) -> pd.DataFrame:
    # the order every kernel below is given: keys, priority desc, row
    return t.to_pandas().sort_values(KEYS + ["p", "row"],
                                     ascending=[True, True, False, True],
                                     kind="mergesort")


@pytest.mark.parametrize("n,seed,nulls", CASES)
def test_first_is_drop_duplicates_keep_first(n, seed, nulls):
    t = _table(n, seed, nulls)
    got = runs.first(t, KEYS, (("p", "descending"), "row"))
    want = _sorted_df(t).drop_duplicates(KEYS, keep="first")
    assert sorted(got.column("row").to_pylist()) == sorted(want["row"].tolist())
    # one row per null-key group survives
    assert got.column("k").null_count == want["k"].isna().sum()


@pytest.mark.parametrize("n,seed,nulls", CASES)
def test_rank_is_cumcount_and_head(n, seed, nulls):
    t = _table(n, seed, nulls)
    g, s = runs.groups(t, KEYS, (("p", "descending"), "row"))
    df = _sorted_df(t)
    by = df.groupby(KEYS, sort=False)
    # null-key rows drop, as groupby(dropna=True) drops them
    want = df.assign(r=by.cumcount()).dropna(subset=["r"])
    got = dict(zip(g.column("row").to_pylist(), runs.rank(s).tolist()))
    assert got == dict(zip(want["row"].tolist(), want["r"].astype(int).tolist()))
    for k in (1, 2):
        head = g.filter(pa.array(runs.rank(s) < k)).column("row").to_pylist()
        assert sorted(head) == sorted(by.head(k)["row"].tolist())


@pytest.mark.parametrize("n,seed,nulls", CASES)
def test_cumsum_is_groupby_cumsum(n, seed, nulls):
    t = _table(n, seed, nulls)
    g, s = runs.groups(t, KEYS, (("p", "descending"), "row"))
    df = _sorted_df(t)
    by = df.groupby(KEYS, sort=False)
    rows = g.column("row").to_pylist()
    for col in ("v", "p"):  # integer and float values
        want = df.assign(c=by[col].cumsum()).dropna(subset=["c"])
        got = runs.cumsum(g.column(col).to_numpy(), s)
        assert got.dtype.kind == ("i" if col == "v" else "f")
        assert dict(zip(rows, got.tolist())) == dict(
            zip(want["row"].tolist(), want["c"].tolist()))


def test_runs_restart_at_every_key_change():
    t = pa.table({"k": ["a", "a", "b", "b", "b", "c"],
                  "j": [1, 1, 1, 2, 2, 2]})
    s = runs.starts(t, KEYS)
    assert s.tolist() == [True, False, True, True, False, True]
    assert runs.rank(s).tolist() == [0, 1, 0, 0, 1, 0]
    assert runs.cumsum(np.arange(1, 7), s).tolist() == [1, 3, 3, 4, 9, 6]
