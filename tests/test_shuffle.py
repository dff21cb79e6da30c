"""sidecar.shuffle.copartition: co-location, a process-independent hash,
a partition column no body or output ever sees, and joins of several
inputs; sidecar.shuffle.aggregate, the two-level GROUP BY over it."""

import ast
import pathlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd
from ray.data import DataContext

from sidecar.shuffle import PART_COL, _partition_ids, aggregate, copartition

N = 2_000


def _collect(ds: "rd.Dataset") -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _cpus() -> int:
    return int(ray.cluster_resources()["CPU"])


def _table() -> pa.Table:
    i = np.arange(N)
    return pa.table({
        "i": pa.array(i % 97, pa.int64()),
        "s": pa.array([f"host{x % 53}.example" for x in i], pa.string()),
        "j": pa.array(i % 5, pa.int32()),
        "row": pa.array(i, pa.int64()),
    })


@pytest.mark.parametrize("key", ["i", "s", ["s", "j"]])
def test_equal_keys_land_in_one_group(key):
    keys = [key] if isinstance(key, str) else key

    def distinct_keys(g: pa.Table) -> pa.Table:
        return g.group_by(keys).aggregate([([], "count_all")])

    # several input blocks, so co-location is the shuffle's doing
    ds = rd.from_arrow(_table()).repartition(8)
    got = copartition(ds, key, distinct_keys).to_pandas()
    # a key split across two groups would appear twice
    assert not got.duplicated(keys).any()
    want = _table().to_pandas().groupby(keys).size()
    assert got.set_index(keys)["count_all"].sort_index().equals(want.sort_index())


def test_int_width_does_not_change_partition():
    v = [0, 1, 7, 64, 1 << 20, -3]
    ids = {t: _partition_ids(pa.table({"k": pa.array(v, t)}), ["k"], 64).tolist()
           for t in (pa.int32(), pa.int64())}
    assert ids[pa.int32()] == ids[pa.int64()]
    assert all(0 <= p < 64 for p in ids[pa.int64()])


def test_partition_ids_match_on_driver_and_in_ray_task():
    t = _table()
    for keys in (["i"], ["s"], ["s", "j"]):
        remote = ray.get(ray.remote(_partition_ids).remote(t, keys, 64))
        assert np.array_equal(_partition_ids(t, keys, 64), remote)


def test_own_part_column_round_trips():
    t = _table().append_column(
        "part", pa.array([f"file{x % 3}.warc.gz" for x in range(N)]))
    got = _collect(copartition(rd.from_arrow(t), "i", lambda g: g)).sort_by("row")
    assert got.column_names == t.column_names
    assert got.equals(t)


@pytest.mark.parametrize("view", ["pandas", "pyarrow"])
def test_body_never_sees_partition_column(view):
    """Neither the body's table nor a pandas frame it makes of it holds the
    partition column."""
    def body(g: pa.Table) -> pa.Table:
        names = g.to_pandas().columns if view == "pandas" else g.column_names
        assert PART_COL not in names
        return g

    got = copartition(rd.from_arrow(_table()), "s", body)
    assert sorted(_collect(got).column_names) == sorted(_table().column_names)


def test_one_block_and_many_tiny_blocks_give_equal_output():
    t = _table().slice(0, 300)

    def distinct_keys(g: pa.Table) -> pa.Table:
        return g.group_by(["s", "j"]).aggregate([("row", "sum"), ([], "count_all")])

    one_ds = rd.from_arrow(t)
    tiny_ds = rd.from_arrow([t.slice(i, 1) for i in range(300)])
    one = copartition(one_ds, ["s", "j"], distinct_keys)
    tiny = copartition(tiny_ds, ["s", "j"], distinct_keys)
    # 300 small blocks are split in runs: one partition per CPU
    assert f"Copartition[s,j] {_cpus()} partitions" in tiny.stats()
    order = [("s", "ascending"), ("j", "ascending")]
    want = _collect(one).sort_by(order)
    # the two-level aggregate names its columns as the one-level group_by
    aggs = [("row", "sum"), ([], "count_all")]
    for got in (tiny, aggregate(one_ds, ["s", "j"], aggs),
                aggregate(tiny_ds, ["s", "j"], aggs)):
        assert _collect(got).sort_by(order).equals(want)


@pytest.mark.parametrize("fn", ["sum", "count", "count_all", "min", "max"])
def test_aggregate_combines_as_one_group_by(fn):
    """Each function's partials combine to what one ``Table.group_by`` of
    the whole input gives, null values included."""
    t = _table()
    t = t.append_column("v", pc.if_else(pa.array(np.arange(N) % 11 == 0),
                                        pa.scalar(None, pa.int64()), t["row"]))
    agg = ([], "count_all") if fn == "count_all" else ("v", fn)
    got = _collect(aggregate(rd.from_arrow(t).repartition(8), ["s", "j"], [agg]))
    want = t.group_by(["s", "j"], use_threads=False).aggregate([agg])
    order = [("s", "ascending"), ("j", "ascending")]
    assert got.sort_by(order).equals(want.sort_by(order))




@pytest.mark.parametrize("key", ["s", "i"])
def test_null_keys_reach_one_call(key):
    """Null-key rows reach one body call, and ``aggregate`` makes them one
    group of their own, as SQL's GROUP BY does (a pandas groupby drops
    them)."""
    t = _table()
    nulls = pa.array(np.arange(N) % 7 == 0)
    t = t.set_column(t.schema.get_field_index(key), key,
                     pc.if_else(nulls, pa.scalar(None, t.schema.field(key).type),
                                t.column(key)))

    def count_nulls(g: pa.Table) -> pa.Table:
        return pa.table({"n_null": [g.column(key).null_count]})

    ds = rd.from_arrow(t).repartition(8)
    got = _collect(copartition(ds, key, count_nulls))
    per_call = [n for n in got.column("n_null").to_pylist() if n]
    assert per_call == [int(pc.sum(nulls).as_py())]
    groups = _collect(aggregate(ds, key, [([], "count_all")]))
    assert groups.filter(pc.is_null(groups[key]))["count_all"].to_pylist() \
        == per_call


def test_no_ray_data_groupby_in_the_engine():
    """copartition is the engine's one exchange: no module may group rows
    with Ray Data's sort-based groupby."""
    banned = re.compile(r"map_groups|ray\.data\.aggregate"
                        r"|\.groupby\([^()]*\)\s*\.aggregate\(")
    root = pathlib.Path(__file__).resolve().parent.parent / "sidecar"
    hits = [f"{path.relative_to(root.parent)}: {m.group(0)!r}"
            for path in sorted(root.rglob("*.py"))
            for m in banned.finditer(path.read_text(encoding="utf-8"))]
    assert not hits, hits


def _sources():
    root = pathlib.Path(__file__).resolve().parent.parent / "sidecar"
    for path in sorted(root.rglob("*.py")):
        yield (path.relative_to(root.parent).as_posix(),
               ast.parse(path.read_text(encoding="utf-8")))


def test_no_nested_body_touches_pandas():
    """Map and exchange bodies (the defs and lambdas nested in a function)
    work on Arrow, numpy or the run kernels: none converts to or from
    pandas or calls ``pd.``."""
    hits = set()
    for name, tree in _sources():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            for body in ast.walk(fn):
                if body is fn or not isinstance(body, (ast.FunctionDef, ast.Lambda)):
                    continue
                for node in ast.walk(body):
                    if isinstance(node, ast.Attribute) and (
                            node.attr in ("to_pandas", "from_pandas")
                            or isinstance(node.value, ast.Name)
                            and node.value.id == "pd"):
                        hits.add(f"{name}:{node.lineno}")
    assert not hits, sorted(hits)


def test_every_group_by_runs_single_threaded():
    """Every ``Table.group_by`` passes ``use_threads=False``: a threaded
    float sum adds in an order that changes from run to run."""
    hits = [f"{name}:{node.lineno}"
            for name, tree in _sources() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "group_by"
            and not any(kw.arg == "use_threads" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False for kw in node.keywords)]
    assert not hits, hits


def test_cli_runs_no_exchange_and_no_driver_gather():
    """The lifecycle CLI's unit of work is one Ray task per file: its rows
    never leave the task, so ``sidecar/cli.py`` needs no exchange and
    gathers no dataset on the driver."""
    banned = re.compile(r"\bcopartition\b|\.(take_all|to_pandas|iter_batches)\(")
    path = pathlib.Path(__file__).resolve().parent.parent / "sidecar" / "cli.py"
    hits = [m.group(0) for m in banned.finditer(path.read_text(encoding="utf-8"))]
    assert not hits, hits


def test_reserved_column_name_is_rejected():
    t = _table().append_column(PART_COL, pa.array(np.zeros(N, np.int64)))
    with pytest.raises(Exception, match="reserved"):
        copartition(rd.from_arrow(t), "i", lambda g: g).materialize()


def test_zero_row_blocks_are_skipped():
    t = _table()

    def body(g: pa.Table) -> pa.Table:
        assert g.num_rows
        return g

    # a zero-row block with columns, and Ray's column-less kind
    ds = rd.from_arrow([t.slice(0, 0), t.slice(0, 700), pa.table({}),
                        t.slice(700)])
    got = _collect(copartition(ds, "s", body))
    assert got.sort_by("row").equals(t)


@pytest.mark.parametrize("block_format", ["pandas", "pyarrow"])
def test_all_empty_input_never_calls_body(block_format):
    """Empty input blocks, column-less or not, pandas or Arrow, give an empty
    result without the body (or ``aggregate``'s ``finish``) ever being
    called."""
    def body(g):
        raise AssertionError("body called on an empty input")

    empty = _table().slice(0, 0)
    if block_format == "pandas":
        ds = rd.from_pandas([pd.DataFrame(), empty.to_pandas()])
    else:
        ds = rd.from_arrow([pa.table({}), empty])
    assert copartition(ds, "s", body).count() == 0
    assert aggregate(ds, "s", [([], "count_all")], body).count() == 0


def test_stats_chain_upstream_and_report_the_exchange():
    def tag_rows(b: pa.Table) -> pa.Table:
        return b

    ds = rd.from_arrow(_table()).repartition(3).map_batches(
        tag_rows, batch_format="pyarrow")
    stats = copartition(ds, "s", lambda g: g).stats()
    assert "MapBatches(tag_rows)" in stats
    exchange = [s for s in stats.split("\n\n") if "Copartition[s]" in s]
    assert len(exchange) == 1
    assert "3 partitions" in exchange[0]
    assert f"{N} total" in exchange[0]


@pytest.mark.parametrize("n", [3, 42])
def test_partition_counts_that_are_not_powers_of_two(n, monkeypatch):
    t = _table()
    for keys in (["i"], ["s"], ["s", "j"]):
        ids = _partition_ids(t, keys, n)
        assert ids.min() >= 0 and ids.max() < n
        remote = ray.get(ray.remote(_partition_ids).remote(t, keys, n))
        assert np.array_equal(ids, remote)

    def distinct_keys(g: pa.Table) -> pa.Table:
        return g.group_by("i").aggregate([([], "count_all")])

    # n input blocks give n partitions once their bytes ask for n or more
    # Ray-sized blocks: a 1-byte block limit makes every byte ask for one
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", 1)
    got = copartition(rd.from_arrow(t).repartition(n), "i", distinct_keys)
    monkeypatch.undo()
    assert f"Copartition[i] {n} partitions" in got.stats()
    df = got.to_pandas()
    assert not df.duplicated("i").any()
    assert df.set_index("i")["count_all"].sort_index().equals(
        t.to_pandas().groupby("i").size())


def test_bytes_past_one_partition_per_cpu_add_a_whole_wave(monkeypatch):
    """Once a CPU's share of the bytes outgrows Ray's block limit the count
    grows by whole waves of one partition per CPU, never by one partition
    that would run alone at the end."""
    t = _table()
    size = rd.from_arrow(t).repartition(42).materialize().size_bytes()
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size",
                        size // (_cpus() + 1))
    got = copartition(rd.from_arrow(t).repartition(42), "i",
                      lambda g: g)
    monkeypatch.undo()
    assert f"Copartition[i] {2 * _cpus()} partitions" in got.stats()
    assert _collect(got).sort_by("row").equals(t)


def test_partition_count_stops_at_rays_hash_shuffle_parallelism(monkeypatch):
    """However many partitions the input's bytes ask for, an exchange cuts
    no more than Ray's own hash shuffle would: 42 blocks whose bytes ask for
    one partition each give 5 when Ray's hash-shuffle partition count is 5."""
    t = _table()
    ctx = DataContext.get_current()
    monkeypatch.setattr(ctx, "target_max_block_size", 1)
    monkeypatch.setattr(ctx, "default_hash_shuffle_parallelism", 5)
    got = copartition(rd.from_arrow(t).repartition(42), "i",
                      lambda g: g)
    monkeypatch.undo()
    assert "Copartition[i] 5 partitions" in got.stats()
    assert got.num_blocks() == 5
    assert _collect(got).sort_by("row").equals(t)


@pytest.mark.parametrize("blocks", [1, 8])
def test_two_inputs_meet_by_key(blocks):
    """Rows sharing a key reach one call from both inputs, whatever their
    schemas and integer widths."""
    a = pa.table({"i": _table().column("i"), "row": _table().column("row")})
    b = pa.table({"i": pa.array(np.arange(300) % 101, pa.int32()),
                  "name": pa.array([f"n{x}" for x in range(300)])})

    def counts(ga: pa.Table, gb: pa.Table) -> pa.Table:
        assert ga.column_names == ["i", "row"]
        assert gb.column_names == ["i", "name"]
        return pa.Table.from_pandas(pd.concat(
            [ga.to_pandas().groupby("i").size().rename("na"),
             gb.to_pandas().groupby("i").size().rename("nb")],
            axis=1).fillna(0).rename_axis("i").reset_index())

    inputs = [rd.from_arrow(t).repartition(blocks) for t in (a, b)]
    got = copartition(inputs, "i", counts)
    # kilobytes of input: the blocks, at most one partition per CPU
    assert f"Copartition[i] {min(2 * blocks, _cpus())} partitions" in got.stats()
    df = got.to_pandas()
    # a key split across two calls would appear twice
    assert not df.duplicated("i").any()
    want = counts(a, b).to_pandas()
    assert (df.set_index("i").sort_index().to_dict("index")
            == want.set_index("i").sort_index().to_dict("index"))


def test_fewer_blocks_than_cpus_keep_their_count():
    """An input of fewer blocks than the cluster has CPUs is not cut finer:
    each of its blocks becomes one partition."""
    blocks = _cpus() - 1
    got = copartition(rd.from_arrow(_table()).repartition(blocks), "s",
                      lambda g: g)
    assert f"Copartition[s] {blocks} partitions" in got.stats()
    assert got.num_blocks() == blocks
    assert _collect(got).sort_by("row").equals(_table())


@pytest.mark.parametrize("view", ["pandas", "pyarrow", "numpy"])
def test_input_without_rows_arrives_empty_with_its_columns(view):
    """An input empty in a partition, or everywhere, reaches the body as a
    zero-row table with that input's columns, also as the pandas frame or
    the numpy columns a body makes of it."""
    one_key = pa.table({"i": pa.array([3, 3], pa.int64()),
                        "w": pa.array([1.5, 2.5])})
    nothing = pa.table({"i": pa.array([], pa.int64()),
                        "z": pa.array([], pa.string())})

    many = _table()
    cols = many.column_names

    def as_view(t: pa.Table):
        if view == "numpy":
            return {c: t[c].to_numpy() for c in t.column_names}
        return t.to_pandas() if view == "pandas" else t

    def body(*tables: pa.Table) -> pa.Table:
        ga, gb, gc = map(as_view, tables)
        names = [g.column_names if isinstance(g, pa.Table) else list(g)
                 for g in (ga, gb, gc)]
        assert names == [cols, ["i", "w"], ["i", "z"]]
        assert len(gc["i"]) == 0
        return pa.table({"na": [len(ga["i"])], "nb": [len(gb["i"])]})

    got = copartition([rd.from_arrow(many).repartition(8),
                       rd.from_arrow(one_key), rd.from_arrow(nothing)],
                      "i", body).to_pandas()
    assert got["na"].sum() == N and got["nb"].sum() == 2
    assert (got["nb"] == 0).sum() == len(got) - 1  # one partition holds key 3


def test_body_that_returns_no_table_raises():
    """A body returns a pyarrow Table; anything else fails the exchange with
    a TypeError naming its keys, not a block Ray would convert."""
    with pytest.raises(TypeError, match=r"copartition on \['s', 'j'\] returned DataFrame"):
        copartition(rd.from_arrow(_table()), ["s", "j"], lambda g: g.to_pandas())


def test_all_empty_inputs_never_call_body():
    def body(a, b):
        raise AssertionError("body called with no rows")

    got = copartition([rd.from_arrow(_table().slice(0, 0)),
                       rd.from_arrow([pa.table({}), pa.table({})])],
                      "s", body)
    assert got.count() == 0
    assert "Copartition[s] 0 partitions" in got.stats()


@pytest.mark.parametrize("build_rows", ["some", "zero_row", "all_filtered"])
def test_lookup_join_broadcast_equals_exchange(build_rows, monkeypatch, spy):
    """Both plans of ``lookup_join`` give the same rows, also for an empty
    build side whose blocks have no columns; only the exchange plan runs a
    ``copartition`` join, exactly once."""
    from sidecar import shuffle

    keys = np.arange(0, 60, 3)
    build_t = pa.table({"k": pa.array(keys, pa.int64()),
                        "v": [f"v{k}" for k in keys]})
    build = {"some": lambda: rd.from_arrow(build_t).repartition(3),
             "zero_row": lambda: rd.from_arrow(build_t.slice(0, 0)),
             "all_filtered": lambda: rd.from_arrow(build_t).filter(
                 lambda r: False)}[build_rows]()
    probe_k = [int(x) for x in np.arange(80) % 25]
    probe = rd.from_arrow(pa.table({"k": pa.array(probe_k, pa.int64()),
                                    "row": np.arange(80)})).repartition(4)

    def index(t: pa.Table) -> dict:
        return (dict(zip(t["k"].to_pylist(), t["v"].to_pylist()))
                if t.num_rows else {})

    def probe_fn(batch: pa.Table, lookup: dict) -> pa.Table:
        return batch.append_column("v", pa.array(
            [lookup.get(k) for k in batch["k"].to_pylist()], pa.string()))

    def joined() -> pa.Table:
        return _collect(shuffle.lookup_join(probe, build, "k", index,
                                            probe_fn)).sort_by("row")

    calls = spy(shuffle, "copartition")
    broadcast = joined()
    assert not calls
    monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES", -1)
    exchange = joined()
    assert len([c for c in calls if isinstance(c[0], list)]) == len(calls) == 1
    assert exchange.equals(broadcast)
    assert broadcast["v"].to_pylist() == [
        f"v{k}" if build_rows == "some" and k % 3 == 0 else None
        for k in probe_k]


def _union_fed_copartitions(path: pathlib.Path) -> list[int]:
    """Lines of the ``.union(`` calls a ``copartition`` input is built
    from in ``path``, following the names each function assigns."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    scopes += [m for c in tree.body if isinstance(c, ast.ClassDef)
               for m in c.body if isinstance(m, ast.FunctionDef)]
    hits = set()
    for scope in scopes:
        assigned: dict[str, list] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        assigned.setdefault(t.id, []).append(node.value)

        def unions(node, seen: set) -> None:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "union"):
                    hits.add(sub.lineno)
                elif isinstance(sub, ast.Name) and sub.id not in seen:
                    seen.add(sub.id)
                    for value in assigned.get(sub.id, []):
                        unions(value, seen)

        for node in ast.walk(scope):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "copartition" and node.args):
                unions(node.args[0], set())
    return sorted(hits)


def test_no_copartition_input_is_a_union():
    """A join passes its sides as a list: no side is padded into a shared
    schema, tagged and unioned before the exchange."""
    root = pathlib.Path(__file__).resolve().parent.parent / "sidecar"
    hits = [f"{path.relative_to(root.parent)}:{line}"
            for path in sorted(root.rglob("*.py"))
            for line in _union_fed_copartitions(path)]
    assert not hits, hits


# The functions that may gather rows on the driver (``ray.put``, or a
# driver-side ``.iter_batches(``, ``.to_pandas(`` or ``.take_all(``), each
# with the reason it may.  Any other
# corpus-sized build side meets its probe side through ``copartition``.
_GATED = "gated by BROADCAST_MAX_BYTES, with a partitioned twin"
_BOUNDED = "bounded by construction"
_OPEN = "ungated, still open"
DRIVER_GATHERS = {
    ("ops/text.py", "tfidf_topk"): _GATED,
    ("shuffle.py", "lookup_join"): _GATED,
    ("shuffle.py", "copartition"): "not a gather: it puts the body function",
    ("ops/dedup.py", "embedding_near_dup"): _GATED,
    ("ops/dedup.py", "embedding_near_dup_lsh"): _GATED,
    ("ops/similarity.py", "ann_topk"): _BOUNDED,
    ("ops/similarity.py", "ann_topk_ivf"): _BOUNDED,
    ("ops/similarity.py", "ann_topk_int8"): _BOUNDED,
    ("ops/similarity.py", "kmeans"): _BOUNDED,
    ("ops/relational.py", "global_rank_sample"): _BOUNDED,
    ("ops/relational.py", "approx_distinct_custkey"): _BOUNDED,
    ("ops/dedup.py", "decontaminate"): _BOUNDED,
    ("ops/dedup.py", "connected_components"): _BOUNDED + (
        ": at most min(edges, partitions x nodes) star rows, feeding the"
        " node-sized table it returns"),
    ("ops/dedup.py", "ngram_jaccard_pairs"): _OPEN,
    ("ops/dedup.py", "minhash_jaccard_estimates"): _OPEN,
    ("ops/relational.py", "supplier_part_join"): _OPEN,
    ("crawl.py", "_politeness"): _BOUNDED + ": one host-count row per host",
    ("crawl.py", "_skip_done_parts"): _BOUNDED + ": one count row per block",
    ("frontier.py", "filter_unseen"): _BOUNDED + ": the bloom summary, fixed bits",
    ("crawl.py", "_order"): _BOUNDED + (
        ": one epoch's selected URLs, gathered only when a test passes"
        " collect_order"),
    ("ops/relational.py", "top_revenue_orders"): _BOUNDED + (
        ": at most k rows per partition"),
    ("ops/relational.py", "distinct_count_custkey"): _BOUNDED + (
        ": one count row per partition"),
    ("ops/relational.py", "pricing_rollup"): _BOUNDED + (
        ": one row per (returnflag, linestatus)"),
    ("ops/text.py", "bigram_topk"): _BOUNDED + ": at most k rows per partition",
}


def _own_body(fn: ast.FunctionDef):
    """The nodes of ``fn`` outside the defs and lambdas nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _calls(nodes) -> set[str]:
    """The method names called among ``nodes`` (``ray.put`` as itself)."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            f = node.func
            out.add("ray.put" if f.attr == "put" and isinstance(f.value, ast.Name)
                    and f.value.id == "ray" else f.attr)
    return out


def _driver_gathers(root: pathlib.Path) -> set[tuple[str, str]]:
    """(file, top-level function) of every function in ``sidecar/ops``,
    ``pipeline.py``, ``cdxj.py``, ``crawl.py``, ``frontier.py`` and
    ``shuffle.py`` that
    calls ``ray.put`` or ``.iter_batches(``, nested defs included, or
    ``.to_pandas(`` or ``.take_all(`` in its own body (in a nested def, a
    batch UDF, those convert the batch's pyarrow table)."""
    found = set()
    for path in [*sorted(root.glob("ops/*.py")),
                 *(root / f for f in ("pipeline.py", "cdxj.py", "crawl.py",
                                      "frontier.py", "shuffle.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if (_calls(ast.walk(fn)) & {"ray.put", "iter_batches"}
                    or _calls(_own_body(fn)) & {"to_pandas", "take_all"}):
                found.add((path.relative_to(root).as_posix(), fn.name))
    return found


def test_every_driver_gather_is_allowlisted():
    """A build side that grows with the corpus is a ``copartition`` join,
    not a driver gather: only the allowlisted functions may ``ray.put`` or
    iterate a dataset on the driver."""
    root = pathlib.Path(__file__).resolve().parent.parent / "sidecar"
    found = _driver_gathers(root)
    assert not found - DRIVER_GATHERS.keys(), sorted(found - DRIVER_GATHERS.keys())
    # an entry whose function no longer gathers is stale: drop it
    assert not DRIVER_GATHERS.keys() - found, sorted(DRIVER_GATHERS.keys() - found)
