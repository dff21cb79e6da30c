"""Output checks, one per workload.  Each returns a list of failure
messages (empty = correct) and reads only the outputs it is given, so a
test can hand it a deliberately corrupted output."""

from __future__ import annotations

import glob
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def parquet_rows(d: str) -> int:
    """Rows under ``d`` counted from parquet footers."""
    return sum(pq.ParquetFile(f).metadata.num_rows
               for f in glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True))


def _norm(v):
    if isinstance(v, float) and math.isnan(v):
        return None
    if isinstance(v, list):
        return [_norm(x) for x in v]
    if isinstance(v, dict):
        return {k: _norm(x) for k, x in v.items()}
    return v


def _rows(tbl: pa.Table, cols: list[str]) -> list[dict]:
    return [_norm(r) for r in tbl.select(cols).sort_by("image_id").to_pylist()]


# --------------------------------------------------------------------------

def sidecar_sample_ids(n_urls: int, k: int = 24) -> list[str]:
    step = max(1, n_urls // k)
    return [f"url-{i}" for i in range(0, n_urls, step)]


def check_sidecar(out_dir: str, n_urls: int, synth_seed: int) -> list[str]:
    """Sink row count equals the URL count, and a sample of written rows
    equals in-process ``pipeline.extract_sidecar_batch`` on the same
    fetched rows."""
    from sidecar import pipeline, synth

    errs = []
    got_n = parquet_rows(out_dir)
    if got_n != n_urls:
        errs.append(f"sidecar: sink rows {got_n} != urls {n_urls}")
    ids = sidecar_sample_ids(n_urls)
    try:
        got = pq.read_table(out_dir, filters=[("image_id", "in", ids)])
    except (pa.ArrowException, OSError) as ex:
        return errs + [f"sidecar: sink unreadable: {ex}"]
    want = pipeline.extract_sidecar_batch(pa.Table.from_pylist(
        [synth.make_row(i, seed=synth_seed) for i in ids],
        schema=synth.IMAGES_SCHEMA))
    cols = [c for c in want.column_names if c in got.column_names]
    if len(cols) != len(want.column_names):
        errs.append(f"sidecar: missing columns {set(want.column_names) - set(cols)}")
    if _rows(got, cols) != _rows(want, cols):
        errs.append("sidecar: sampled rows differ from in-process extraction")
    return errs


# --------------------------------------------------------------------------

def crawl_seen_from_deltas(out_dir: str) -> np.ndarray:
    files = glob.glob(os.path.join(out_dir, "_ckpt", "epoch=*", "seen_delta", "*.npy"))
    if not files:
        return np.zeros(0, dtype=np.uint64)
    return np.sort(np.concatenate([np.load(f) for f in files]).astype(np.uint64))


def crawl_fetched(out_dir: str, epoch: int) -> set[str]:
    d = os.path.join(out_dir, "sidecar", f"epoch={epoch}")
    if not os.path.isdir(d):
        return set()
    return set(pq.read_table(d, columns=["image_id"]).column("image_id").to_pylist())


def check_crawl(out_dir: str, oracle: dict, epochs_run: int,
                candidates: list[int]) -> list[str]:
    """Per-epoch candidate counts (``run_crawl``'s metrics), the seen set
    (the per-epoch seen-delta checkpoints) and each epoch's fetched set (the
    sidecar output) equal the single-threaded oracle."""
    errs = []
    if epochs_run != len(oracle["crawl_order"]):
        errs.append(f"crawl: ran {epochs_run} epochs, oracle {len(oracle['crawl_order'])}")
    want_c = [m["candidates"] for m in oracle["metrics"]]
    if list(candidates) != want_c:
        errs.append(f"crawl: per-epoch candidates {list(candidates)} != oracle {want_c}")
    seen = crawl_seen_from_deltas(out_dir)
    want = np.array(sorted(oracle["seen"]), dtype=np.uint64)
    if len(seen) != len(want) or not np.array_equal(seen, want):
        errs.append(f"crawl: seen set ({len(seen)} keys) != oracle ({len(want)})")
    for e, order in enumerate(oracle["crawl_order"]):
        got = crawl_fetched(out_dir, e)
        if got != set(order):
            errs.append(f"crawl: epoch {e} fetched {len(got)} URLs, oracle "
                        f"{len(order)} ({len(got ^ set(order))} differ)")
    return errs


# --------------------------------------------------------------------------

def _keys(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [" ".join(ln.split(" ", 2)[:2]) for ln in f if ln.strip()]


def check_warc_merge(pairs: list[tuple[str, str]], edited: int,
                     non_edited: int) -> list[str]:
    """``pairs`` = (original index, merged output).  Edited plus non-edited
    equals the original lines, and every merged file keeps its original's
    (surt, timestamp) keys in original order."""
    errs, n_orig = [], 0
    for original, merged in pairs:
        name = os.path.basename(original)
        orig = _keys(original)
        n_orig += len(orig)
        if not os.path.exists(merged):
            errs.append(f"warc: {name}: no merged output")
        elif _keys(merged) != orig:
            errs.append(f"warc: {name}: merged keys differ from the original index")
    if edited + non_edited != n_orig:
        errs.append(f"warc: edited {edited} + non-edited {non_edited} != "
                    f"{n_orig} original lines")
    if edited == 0:
        errs.append("warc: no original line was enriched")
    return errs


def check_warc_single(batch_merged: str, single_merged: str) -> list[str]:
    """The batch lifecycle's merged file equals the single-file path's."""
    with open(batch_merged, "rb") as a, open(single_merged, "rb") as b:
        if a.read() != b.read():
            return [f"warc: {os.path.basename(batch_merged)}: batch merge != "
                    "single-file sidecar -> cdxj -> merge"]
    return []


# --------------------------------------------------------------------------

def canon_frame(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def check_ops(name: str, got, want) -> list[str]:
    """Row count and values (order-insensitive) against the DuckDB oracle;
    ``want`` None means rows-only (the result must be non-empty)."""
    if want is None:
        return [] if len(got) > 0 else [f"ops: {name}: empty result"]
    if len(got) != len(want):
        return [f"ops: {name}: rows {len(got)} != oracle {len(want)}"]
    if len(got) == 0:  # an empty stream carries no schema to compare
        return []
    got, want = canon_frame(got), canon_frame(want)
    if list(got.columns) != list(want.columns):
        return [f"ops: {name}: columns {list(got.columns)} != {list(want.columns)}"]
    for c in got.columns:
        a, b = got[c], want[c]
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            ok = np.allclose(a.astype(float), b.astype(float), rtol=1e-9,
                             atol=1e-9, equal_nan=True)
        else:
            ok = a.astype(str).equals(b.astype(str))
        if not ok:
            return [f"ops: {name}: column {c} differs from oracle"]
    return []
