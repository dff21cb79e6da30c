"""Co-partitioned shuffles: the one place a key becomes a shuffle partition.

Every grouping in the engine (frontier budget selection, the dedup, prep,
relational, similarity and text operators, the CDXJ merge, the digest join
and the batch CLI writers) has the same shape: hash the key column(s) to one
of a few coarse partitions (about one per CPU), exchange rows by that
partition, and fine-group inside each task with vectorized Arrow code (the
run kernels of ``sidecar/runs.py``, or ``Table.group_by``).  A
``groupby(key)`` on the raw key would dispatch one Python call per distinct
key, which is the measured bottleneck at these cardinalities, not data
volume.

``copartition`` owns that decision: the partition count, sized to the
cluster, and the hash.  Its contract for the body: every row sharing a
``key`` value lands in the same call (rows with a null key too), so ``key``
must be a subset of the columns the body groups by.  The body has one
format: it gets a ``pyarrow.Table`` and returns one, so no exchange pays a
pandas round trip or emits a block whose schema Ray cannot size or hash.  A
join passes its sides as a list, ``copartition([a, b], key, fn)``, and
``fn(a_part, b_part)`` gets each side's rows of one partition as a separate
table: no side is padded into a shared schema or tagged.  Input tables may carry a column of their
own called ``part``, but not one named ``PART_COL``, which is reserved.

``aggregate`` is the two-level GROUP BY on top of it, the split Ray Data
makes into ``AggregateFnV2.aggregate_block`` / ``combine`` / ``finalize``:
each block reduces to its groups, one ``copartition`` on the keys combines
them, and an optional ``finish`` body shapes each partition's groups.  Two
kinds of site keep their own ``copartition``.  ``relational.mode_segment``
counts (nation, segment) groups but takes an argmax per nation, a coarser
key than its groups, so its exchange is on the nation; and
``relational.group_topk_orders`` keeps rows, a top-k at both levels, which
no aggregate combines.  Sites whose keys barely repeat within a block
(``relational.customer_order_stats``, prep's digest and fingerprint
dedups) group inside the exchange only: a per-block partial would shrink
nothing.

The exchange is a direct hash exchange on Ray core tasks, and the only one
in the engine (``tests/test_shuffle.py`` fails on any Ray Data groupby under
``sidecar/``).  Ray Data's sort-based groupby runs a sampling pass, a sort
map, a sort reduce and a group-splitting map, which is nearly all fixed cost
at crawl frontier sizes; its hash-shuffle strategy hung on Ray 2.49 in local
measurements (ROADMAP.md).

The other way rows meet is a broadcast: a small build side is gathered on the
driver once and ``ray.put``.  The functions that may do so are the
``DRIVER_GATHERS`` allowlist in ``tests/test_shuffle.py``, each with its
reason; any other build side that grows with the corpus is a ``copartition``
join.  ``lookup_join`` is where a join decides between the two: it measures
its build side's Arrow bytes against ``BROADCAST_MAX_BYTES`` and broadcasts
at or under it, exchanges over it.  The CDXJ merge and the digest dedup
join through it.  Three sites still gate themselves by the same rule,
because their two plans differ in shape, not only in where the lookup table
lives: ``text.tfidf_topk`` (its broadcast plan ranks inside the document
map, but its exchange plan needs a doc-keyed exchange after the term join
to rank, so it is not a ``lookup_join``) and the two embedding near-dup
operators (their build side is a vector matrix sized before it is read, and
their exchange plans move vectors, not a lookup; the LSH candidate matrix
allows 4x, until its crossover is measured).  Every site reads
``shuffle.BROADCAST_MAX_BYTES`` at call time, so setting it to -1 forces
every exchange plan, an empty build side included.

``_split`` and ``_reduce`` are pure functions of their input blocks, so
Ray's default task retries cover a worker lost mid-exchange.
"""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from pandas.util import hash_array
from ray.data._internal.execution.interfaces import RefBundle
from ray.data._internal.logical.interfaces import LogicalPlan
from ray.data._internal.logical.operators.input_data_operator import InputData
from ray.data._internal.plan import ExecutionPlan
from ray.data._internal.stats import DatasetStats
from ray.data.block import BlockAccessor, BlockExecStats, BlockMetadataWithSchema
from ray.data.dataset import MaterializedDataset

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


def _partition_ids(table: pa.Table, keys: list[str], n: int) -> np.ndarray:
    """int64 partition id in ``[0, n)`` for each row of ``table``."""
    h = _column_hash(table.column(keys[0]))
    for k in keys[1:]:
        h = h * _FOLD + _column_hash(table.column(k))
    return (h % np.uint64(n)).astype(np.int64)


def _arrow(block) -> pa.Table:
    # pandas-produced blocks carry a b'pandas' schema-metadata blob: drop it
    # so every body sees the same plain Arrow schema whatever made the block
    return BlockAccessor.for_block(block).to_arrow().replace_schema_metadata(None)


@ray.remote
def _split(keys: list[str], n: int, *blocks) -> list[pa.Table]:
    """The rows of ``blocks`` cut into ``n`` zero-copy slices, slice ``p``
    holding the rows whose key hashes to partition ``p``."""
    t = pa.concat_tables(map(_arrow, blocks), promote_options="default")
    ids = _partition_ids(t, keys, n)
    t = t.take(np.argsort(ids, kind="stable"))
    counts = np.bincount(ids, minlength=n)
    return [t.slice(e - c, c) for e, c in zip(np.cumsum(counts), counts)]


@ray.remote(num_returns=2)
def _reduce(fn, keys: list[str], counts: list[int], *slices):
    """``fn`` once over one partition, given one table per input (the input
    ``i`` owns the next ``counts[i]`` slices); returns the block and its
    metadata, or no metadata when no input has rows (``fn`` is not called)."""
    stats = BlockExecStats.builder()
    batches, it = [], iter(slices)
    for c in counts:
        tables = [_arrow(s) for s in itertools.islice(it, c)]
        rows = [t for t in tables if t.num_rows]
        # a zero-row slice still carries its input's columns
        batches.append(pa.concat_tables(rows, promote_options="default")
                       if rows else tables[0] if tables else pa.table({}))
    if not any(b.num_rows for b in batches):
        return None, None
    block = fn(*batches)
    if not isinstance(block, pa.Table):
        raise TypeError(f"the body of copartition on {keys} returned "
                        f"{type(block).__name__}, not a pyarrow Table")
    return block, BlockMetadataWithSchema.from_block(block, stats=stats.build())


def copartition(ds, key: "str | list[str]", fn):
    """``fn`` over each hash partition of ``ds`` on ``key``, as a
    materialized dataset.  ``ds`` is one dataset or a list of them.

    Every row sharing a ``key`` value reaches the same ``fn`` call, which
    gets its partition as one ``pyarrow.Table`` without schema metadata and
    returns one (anything else raises ``TypeError``); the table it returns
    is the output block.  Fine grouping inside the partition uses the run
    kernels of :mod:`sidecar.runs` or ``Table.group_by``.  The upstream executes here, at the
    call, so its errors surface here too, and a compute-heavy map never
    shares the CPU pool with the rest of a streamed plan (measured: minhash
    banding 172 s streamed vs 28 s materialized at 8 CPUs / 500k docs).
    Output rows come in no particular order: a caller that needs one sorts.

    A list of inputs is a join: ``fn(a_part, b_part, ...)`` gets one table
    per input, in input order, each with only that input's columns.  Every
    input carries the ``key`` column(s) under the same names; integers of
    any width co-locate with each other, strings and integers do not.  An
    input with no rows in a partition arrives as an empty table with that
    input's columns (with the columns of the zero-row block Ray holds for
    it, when it has no rows at all: Ray skips a map's UDF on empty blocks),
    and ``fn`` runs only when some input has rows.

    The exchange runs on Ray core tasks.  With ``B`` non-empty input blocks
    across all inputs, ``S`` bytes in them, ``C`` CPUs in the cluster, Ray's
    ``target_max_block_size`` ``T`` and Ray's own hash-shuffle partition
    count ``P`` (``default_hash_shuffle_parallelism``, 200 by default),
    there are ``n = min(B, P, C * max(1, ceil(S / (C * T))))`` partitions
    and about as many split tasks, each taking a run of about ``B / n``
    consecutive blocks of ONE input (so schemas never mix) and cutting it
    into ``n`` slices by key hash; one reduce task per partition
    concatenates each input's slices and calls ``fn``.  An exchange pays
    scheduling per task and per slice, about ``n`` squared slices, and the
    driver holds each slice under Ray's inline limit until its reduce has
    run, so ``n`` is the fewest whole waves of one partition per CPU whose
    partitions stay under a block Ray itself would cut.  Whole waves: at
    the 1M-row soak on 4 CPUs the former hash-keyed tfidf exchange plan
    (exchanges of 0.6 and 1.1 GB) took 65-78 s as 5 and 9 partitions and
    60-61 s as 8 and 12.
    An input of fewer blocks keeps its block count, so a small frontier's
    second shuffle reads few blocks.  ``P`` bounds the slices at ``P``
    squared: the same groupby on Ray's sort measured 18.8 s from 512 input
    blocks vs 1.4 s from 64 (BASELINE.md round 5)."""
    keys = [key] if isinstance(key, str) else list(key)
    srcs = [d.materialize() for d in (ds if isinstance(ds, list) else [ds])]
    blocks, parts0 = [], []  # (input, non-empty block); each input's seed
    size = 0  # bytes in the non-empty blocks
    for i, src in enumerate(srcs):
        held = src._plan.execute()  # no-op: the blocks ``src`` already holds
        own = [(ref, m) for ref, m in held.blocks if m.num_rows]
        if own and PART_COL in held.schema.names:
            raise ValueError(f"column name {PART_COL!r} is reserved by copartition")
        blocks += [(i, ref) for ref, _ in own]
        size += sum(m.size_bytes or 0 for _, m in own)
        # an input with no rows sends its first zero-row block everywhere
        parts0.append([] if own else [ref for ref, _ in held.blocks[:1]])
    context = srcs[0].context
    limit = context.target_max_block_size  # None: Ray cuts no block
    cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
    waves = max(1, -(-size // (cpus * limit))) if limit else 1
    n = min(len(blocks), context.default_hash_shuffle_parallelism, cpus * waves)
    # parts[p][i]: the slices of input i in partition p
    parts = [[list(s) for s in parts0] for _ in range(n)]
    if n > 1:
        split = _split.options(num_returns=n)
        bounds = np.linspace(0, len(blocks), n + 1).astype(int)
        for a, b in zip(bounds[:-1], bounds[1:]):
            for i, run in itertools.groupby(blocks[a:b], key=lambda r: r[0]):
                cut = split.remote(keys, n, *(ref for _, ref in run))
                for p in range(n):
                    parts[p][i].append(cut[p])
    elif n:
        for i, ref in blocks:
            parts[0][i].append(ref)
    fn_ref = ray.put(fn)
    outs = [_reduce.remote(fn_ref, keys, [len(s) for s in p],
                           *itertools.chain(*p))
            for p in parts]
    metas = ray.get([m for _, m in outs])
    out = []
    for p, ((ref, _), m) in enumerate(zip(outs, metas)):
        if m is not None:
            m.exec_stats.task_idx = p  # one reduce task per partition
            out.append((ref, m))
    name = f"Copartition[{','.join(keys)}] {n} partitions"
    stats = DatasetStats(metadata={name: [m.metadata.to_stats() for _, m in out]},
                         parent=[src._plan.stats() for src in srcs])
    bundles = [RefBundle([(ref, m.metadata)], owns_blocks=False, schema=m.schema)
               for ref, m in out]
    result = MaterializedDataset(ExecutionPlan(stats, data_context=context),
                                 LogicalPlan(InputData(bundles), context))
    result._plan.execute()  # no-op: marks the plan executed, like materialize()
    return result


# how partial results of each aggregate function combine into the total
_COMBINE = {"sum": "sum", "count": "sum", "count_all": "sum",
            "min": "min", "max": "max"}


def aggregate(ds, keys: "str | list[str]", aggs: list, finish=None):
    """``GROUP BY keys`` over ``ds`` with ``aggs``, ``Table.group_by``'s
    ``(column, function)`` pairs (``([], "count_all")`` counts rows), as a
    materialized dataset of one row per group, columns named as
    ``Table.group_by`` names them (``<column>_<function>``, ``count_all``).

    Two levels: a map reduces each whole block to its groups, then one
    :func:`copartition` on ``keys`` combines the partial rows of each group
    (sums and counts by ``sum``; ``min`` and ``max`` by themselves), so the
    exchange moves one row per (block, group).  ``finish(groups)``, if given,
    runs on each partition's combined groups in the same reduce task and
    returns the output table.  A null key is a group of its own, as in SQL.
    Input without rows gives no rows, and ``finish`` is never called."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    # the partial column of each aggregate, and what its combine is named
    names = {f"{c}_{f}" if c else f: f for c, f in aggs}
    total = {f"{n}_{_COMBINE[f]}": n for n, f in names.items()}

    def partial(block: pa.Table) -> pa.Table:
        return block.group_by(keys, use_threads=False).aggregate(aggs)

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate(
            [(n, _COMBINE[f]) for n, f in names.items()])
        g = g.rename_columns([total.get(c, c) for c in g.column_names])
        return finish(g) if finish else g

    return copartition(ds.map_batches(partial, batch_format="pyarrow",
                                      batch_size=None, zero_copy_batch=True),
                       keys, combine)


_BROADCAST: tuple = (None, None)  # this process's last broadcast: (id, value)


def broadcast_value(ref):
    """``ray.get(ref)``, memoized in one slot per worker process.  A pickled
    lookup table deserializes on every ``ray.get``, so a map reading it per
    batch would pay once per batch; the memo pays once per worker, and holds
    only the newest table."""
    global _BROADCAST
    if _BROADCAST[0] != ref.binary():
        _BROADCAST = (None, None)  # drop the old table before loading this one
        _BROADCAST = (ref.binary(), ray.get(ref))
    return _BROADCAST[1]


def lookup_join(probe, build, key: "str | list[str]", index, probe_fn):
    """``probe_fn(batch, index(rows))`` over ``probe``, where ``rows`` holds
    every ``build`` row that shares a ``key`` value with a row of ``batch``:
    the one place a join picks between broadcast and exchange.

    ``build`` is materialized once and its Arrow bytes measured.  At or
    under ``BROADCAST_MAX_BYTES`` its rows are gathered on the driver,
    ``index`` runs once over all of them, and the result is ``ray.put``;
    each probe block reads it through :func:`broadcast_value`.  Over the
    limit, ``copartition([probe, build], key, ...)`` calls ``index`` on each
    partition's build rows, so the driver never holds the table.  Both plans
    emit the same rows, in no particular order.

    ``index`` gets a pyarrow Table and must accept one with no rows, which
    may have no columns (an empty build side).  ``probe_fn`` gets a pyarrow
    Table (with no rows in a partition that holds only build rows) and
    returns one."""
    build = build.materialize()
    if build.size_bytes() > BROADCAST_MAX_BYTES:
        return copartition([probe, build], key,
                           lambda p, b: probe_fn(p, index(b)))
    tables = [b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
              for b in build.iter_batches(batch_format="pyarrow", batch_size=None)
              if b.num_rows]
    ref = ray.put(index(pa.concat_tables(tables, promote_options="default")
                        if tables else pa.table({})))
    return probe.map_batches(lambda b: probe_fn(b, broadcast_value(ref)),
                             batch_format="pyarrow", batch_size=None,
                             zero_copy_batch=True)
