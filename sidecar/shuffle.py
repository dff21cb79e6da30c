"""Co-partitioned shuffles: the one place a key becomes a shuffle partition.

Every high-cardinality grouping in the engine (frontier budget selection,
the dedup/prep/relational/text operators, the CDXJ merge and the digest
join) has the same shape: hash the key column(s) to one of ``NUM_PARTS``
coarse partitions, sort-shuffle on that partition id, and fine-group inside
each task with vectorized code.  A ``groupby(key)`` on the raw key would
dispatch one Python call per distinct key, which is the measured bottleneck
at these cardinalities, not data volume.

``copartition`` owns that decision: the partition count, the hash, the
partition column (under a reserved name, so a table may carry a column of
its own called ``part``) and the optional tiny-block coalesce before the
barrier.  Its contract for the body: every row sharing a ``key`` value lands
in the same call, so ``key`` must be a subset of the columns the body groups
by.  Tagged-union joins union both sides first and call it once.

The shuffle stays Ray's sort-based ``groupby().map_groups``: the hash-shuffle
strategy hung on Ray 2.49 in local measurements (ROADMAP.md).

The other way rows meet is a broadcast: a small build side is gathered on the
driver once and ``ray.put``.  Every operator with both plans picks by one
rule, its measured build-side bytes against ``BROADCAST_MAX_BYTES``: at or
under, broadcast; over, its co-partitioned plan (the embedding-LSH candidate
matrix alone allows 4x, until its crossover is measured).  Sites read it as
``shuffle.BROADCAST_MAX_BYTES`` at call time, so setting it to 0 forces every
partitioned plan.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pandas.util import hash_array
from ray.data.block import BlockAccessor

NUM_PARTS = 64  # coarse shuffle partitions, independent of key cardinality
PART_COL = "__copartition__"  # reserved: no input table may use this name
# largest build side (Arrow bytes) gathered to the driver and broadcast
BROADCAST_MAX_BYTES = 128 << 20

# odd 64-bit multiplier folding the next key column into a multi-column hash
_FOLD = np.uint64(0x9E3779B97F4A7C15)


def _column_hash(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """uint64 hash per value, identical in every process (pandas' fixed-key
    siphash for objects, its integer mixer for numbers).  Integers hash as
    int64 so equal values agree at any width or signedness; a null integer
    hashes like 0, which only decides where its row goes."""
    if pa.types.is_integer(col.type):
        if col.null_count:
            col = pc.fill_null(col, 0)
        return hash_array(col.to_numpy(zero_copy_only=False).astype(np.int64))
    # mostly-distinct keys (digests, passages, URLs): categorize=False skips
    # a factorize pass that costs more than it saves on unique values
    return hash_array(col.to_numpy(zero_copy_only=False), categorize=False)


def _partition_ids(table: pa.Table, keys: list[str]) -> np.ndarray:
    """int64 partition id in ``[0, NUM_PARTS)`` for each row of ``table``."""
    h = _column_hash(table.column(keys[0]))
    for k in keys[1:]:
        h = h * _FOLD + _column_hash(table.column(k))
    return (h % np.uint64(NUM_PARTS)).astype(np.int64)


def _add_partition(batch: pa.Table, keys: list[str]) -> pa.Table:
    if PART_COL in batch.column_names:
        raise ValueError(f"column name {PART_COL!r} is reserved by copartition")
    # pandas-produced blocks carry a b'pandas' schema-metadata blob that is
    # unhashable and breaks the shuffle's schema dedup (storage.py)
    return batch.replace_schema_metadata(None).append_column(
        PART_COL, pa.array(_partition_ids(batch, keys), pa.int64()))


def _stage(ds):
    """Materialize a small key-row intermediate at a shuffle barrier, and
    coalesce it when the upstream maps left it in many tiny blocks.

    Two measured effects, one helper:
    - Ray's streaming executor fair-shares the CPU pool across ALL plan
      operators — including sort phases that cannot start until the upstream
      map finishes — so in a 5-operator plan the one compute-heavy map gets
      ~2 of 8 CPUs (measured: minhash banding 172 s streamed vs 28 s staged
      at 8 CPUs / 500k docs).  The next operator is an all-to-all barrier
      ANYWAY, so staging loses no pipeline overlap.
    - Ray's sort pays per-task scheduling for every input block and reduce
      partition: the IDENTICAL 38M-row groupby measured 18.8 s from 512
      input blocks vs 1.4 s from 64 (isolated A/B, BASELINE.md round 5).
      Upstream parquet reads auto-split to ~256 blocks, so staged
      intermediates coalesce to ``NUM_PARTS`` blocks before the shuffle.
    Only key-sized rows are ever held — never payloads."""
    out = ds.materialize()
    if out.num_blocks() > NUM_PARTS:
        out = out.repartition(NUM_PARTS).materialize()
    return out


def _without_partition(fn, batch_format: str):
    """Wrap a group body so it sees its group, in ``batch_format``, without
    the partition column."""

    @functools.wraps(fn)
    def body(block):
        acc = BlockAccessor.for_block(block)
        cols = [c for c in acc.column_names() if c != PART_COL]
        return fn(BlockAccessor.for_block(acc.select(cols))
                  .to_batch_format(batch_format))

    return body


def copartition(ds, key: "str | list[str]", fn, *, batch_format: str,
                stage: bool = False):
    """``fn`` over each coarse hash partition of ``ds`` on ``key``.

    Every row sharing a ``key`` value reaches the same ``fn`` call, which
    gets its group as ``batch_format`` without the partition column and may
    return any batch ``map_groups`` accepts.  ``stage=True`` materializes
    and coalesces the keyed rows before the shuffle (:func:`_stage`); the
    hash map itself fuses into the upstream map."""
    keys = [key] if isinstance(key, str) else list(key)
    keyed = ds.map_batches(_add_partition, fn_kwargs={"keys": keys},
                           batch_format="pyarrow", zero_copy_batch=True)
    if stage:
        keyed = _stage(keyed)
    return keyed.groupby(PART_COL).map_groups(
        _without_partition(fn, batch_format), batch_format=None)
