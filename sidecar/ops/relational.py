"""General relational operators over the TPC-H-ish tables — the engine's
groupby / join / sort / top-k / windowed-aggregate surface, exercised on
`lineitem` / `orders` / `customer` / `events`.

These are the same Ray Data primitives the crawl engine uses (SURVEY.md §2:
A1/A4 aggregation, J1 broadcast join, §2.6 sort/top-k) demonstrated on
standard relational shapes, each with an exact DuckDB oracle.

Scale rules applied throughout:
- column-pruned `read_parquet` (never read what the query doesn't touch);
- a GROUP BY is ``shuffle.aggregate``: each block reduces to its groups
  before the exchange, so the shuffle moves one row per (block × key), not
  per input row;
- a join co-partitions its sides on the key, ``copartition([a, b], key,
  fn)``; a broadcast (ray.put) only where tests/test_shuffle.py's
  DRIVER_GATHERS allowlist names the function and its reason;
- float aggregates emitted as integer cents (round(x*100)::BIGINT) in BOTH
  engines: float round() differs at the last ulp across engines and sum
  orders, which would break exact value-hash comparison.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from sidecar import runs, shuffle
from sidecar.shuffle import copartition
from sidecar.storage import read_parquet_clean


def _cents(col: "pa.ChunkedArray | pa.Array") -> "pa.Array":
    """Float aggregate → integer cents: round(x*100) as int64.

    Float columns round-tripped through two engines differ in the last ulp
    (sum order, round() implementations), which breaks the driver's exact
    value-hash; integer cents are hash-stable.  Matches DuckDB's
    ``round(x * 100)::BIGINT`` except exactly at .5 ties, which FP-noise
    makes unreachable for real aggregates.
    """
    return pc.cast(pc.round(pc.multiply(col, 100)), pa.int64())


def pricing_summary(sf_dir: str) -> "rd.Dataset":
    """TPC-H Q1 shape: per (l_returnflag, l_linestatus) sums/avg/count, one
    ``shuffle.aggregate`` over lineitem with ``disc_price`` derived per
    batch."""

    def disc_price(b: pa.Table) -> pa.Table:
        return b.append_column("disc_price", pc.multiply(
            b["l_extendedprice"], pc.subtract(1, b["l_discount"])))

    def cents(g: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": g.column("l_returnflag"),
            "l_linestatus": g.column("l_linestatus"),
            "sum_qty_cents": _cents(g.column("l_quantity_sum")),
            "sum_base_price_cents": _cents(g.column("l_extendedprice_sum")),
            "sum_disc_price_cents": _cents(g.column("disc_price_sum")),
            "count_order": g.column("count_all"),
        })

    return shuffle.aggregate(
        read_parquet_clean(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_returnflag", "l_linestatus", "l_quantity",
                     "l_extendedprice", "l_discount"],
        ).map_batches(disc_price, batch_format="pyarrow", batch_size=None,
                      zero_copy_batch=True),
        ["l_returnflag", "l_linestatus"],
        [("l_quantity", "sum"), ("l_extendedprice", "sum"),
         ("disc_price", "sum"), ([], "count_all")], cents)


def top_revenue_orders(sf_dir: str, k: int = 20) -> "pd.DataFrame":
    """Top-k orders by lineitem revenue, enriched with customer segment.

    Coarse-partition aggregate + post-top-k enrichment: per-order sums need a
    shuffle, but a key-cardinality groupby (~1.5M keys at sf=1) pays per-key
    dispatch — instead the shuffle co-partitions on ``l_orderkey`` (about
    one group per CPU at ANY scale; each order lives wholly in one partition
    so per-partition sums are complete), the per-order sum + partial top-k
    run vectorized inside each group task, and the driver merges k candidate
    rows per group.  The orders→customer enrichment runs AFTER top-k on
    exactly k rows (predicate-pushdown point reads) — no broadcast of the
    full orders table, unlike a join-then-rank plan.
    """
    import pyarrow.parquet as pq

    def revenue(batch: pa.Table) -> pa.Table:
        key = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": pa.array(key, pa.int64()),
            "rev": pa.array(price * (1 - disc), pa.float64()),
        })

    def sum_topk(t: pa.Table) -> pa.Table:
        g = t.group_by("l_orderkey", use_threads=False).aggregate([("rev", "sum")])
        return pa.table({"o_orderkey": g.column("l_orderkey"),
                         "revenue_cents": _cents(g.column("rev_sum"))}).sort_by(
            [("revenue_cents", "descending"), ("o_orderkey", "ascending")]).slice(0, k)

    top = (
        copartition(
            read_parquet_clean(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_extendedprice",
                                        "l_discount"])
            .map_batches(revenue, batch_format="pyarrow", zero_copy_batch=True),
            "l_orderkey", sum_topk)
        .to_pandas()  # ≤ k rows per partition by construction
        .sort_values(["revenue_cents", "o_orderkey"], ascending=[False, True])
        .head(k).reset_index(drop=True)
    )

    keys = top["o_orderkey"].tolist()
    orders = pq.read_table(f"{sf_dir}/orders.parquet",
                           columns=["o_orderkey", "o_custkey"],
                           filters=[("o_orderkey", "in", keys)])
    o2c = dict(zip(orders.column("o_orderkey").to_pylist(),
                   orders.column("o_custkey").to_pylist()))
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"],
                         filters=[("c_custkey", "in",
                                   sorted(set(o2c.values())))])
    c2seg = dict(zip(cust.column("c_custkey").to_pylist(),
                     cust.column("c_mktsegment").to_pylist()))
    top["c_mktsegment"] = [c2seg[o2c[kk]] for kk in keys]
    return top


def events_windowed(sf_dir: str, window_s: int = 3600) -> "rd.Dataset":
    """Tumbling-window aggregate over the events stream: per (event_type,
    hour-bucket) count + rounded value sum.  The window key is computed
    vectorized per batch; the groupby shuffles only (type, window, partials).
    """

    def window(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy()
        return b.append_column("win", pa.array(  # epoch-s window start
            (us // (window_s * 1_000_000)) * window_s))

    def cents(g: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": g.column("event_type"),
            "win": g.column("win"),
            "n_events": g.column("count_all"),
            "sum_value_cents": _cents(g.column("value_sum")),
        })

    return shuffle.aggregate(
        read_parquet_clean(f"{sf_dir}/events.parquet",
                           columns=["event_type", "ts", "value"])
        .map_batches(window, batch_format="pyarrow", batch_size=None,
                     zero_copy_batch=True),
        ["event_type", "win"], [([], "count_all"), ("value", "sum")], cents)


def customer_order_stats(sf_dir: str) -> "rd.Dataset":
    """Per-customer order stats (count, min/max date as epoch-µs ints,
    rounded total) — a plain distributed groupby with mixed aggregate kinds;
    dates go through int64 so both engines hash identical scalars.  One
    level, grouped inside the exchange only: a customer's few orders are
    spread over every block, so a per-block partial (``shuffle.aggregate``)
    would barely shrink the exchange."""

    def to_us(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("o_orderdate"), pa.int64())
        return pa.table({"o_custkey": batch.column("o_custkey"),
                         "date_us": us,
                         "o_totalprice": batch.column("o_totalprice")})

    def finalize(batch: pa.Table) -> pa.Table:
        g = batch.group_by("o_custkey", use_threads=False).aggregate(
            [([], "count_all"), ("date_us", "min"), ("date_us", "max"),
             ("o_totalprice", "sum")])
        return pa.table({
            "o_custkey": g.column("o_custkey"),
            "n_orders": g.column("count_all"),
            "first_date_us": g.column("date_us_min"),
            "last_date_us": g.column("date_us_max"),
            "total_price_cents": _cents(g.column("o_totalprice_sum")),
        })

    return copartition(
        read_parquet_clean(f"{sf_dir}/orders.parquet",
                        columns=["o_custkey", "o_orderdate", "o_totalprice"])
        .map_batches(to_us, batch_format="pyarrow", zero_copy_batch=True),
        "o_custkey", finalize)


def supplier_part_join(sf_dir: str) -> "rd.Dataset":
    """Two-small-side enrichment of a lineitem aggregate: per (l_suppkey,
    l_partkey) quantity sum, enriched in the aggregate's reduce with
    supplier nation and part brand from broadcast lookups."""
    import pyarrow.parquet as pq

    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"])
    s2n = dict(zip(sup.column("s_suppkey").to_pylist(), sup.column("s_nationkey").to_pylist()))
    p2b = dict(zip(part.column("p_partkey").to_pylist(), part.column("p_brand").to_pylist()))
    side = ray.put((s2n, p2b))

    def enrich(g: pa.Table) -> pa.Table:
        s2n_, p2b_ = shuffle.broadcast_value(side)
        sk = g.column("l_suppkey").to_pylist()
        pk = g.column("l_partkey").to_pylist()
        return pa.table({
            "l_suppkey": pa.array(sk, pa.int64()),
            "l_partkey": pa.array(pk, pa.int64()),
            "sum_qty_cents": _cents(g.column("l_quantity_sum")),
            "s_nationkey": pa.array([s2n_.get(x) for x in sk], pa.int64()),
            "p_brand": pa.array([p2b_.get(x) for x in pk], pa.string()),
        })

    return shuffle.aggregate(
        read_parquet_clean(f"{sf_dir}/lineitem.parquet",
                           columns=["l_suppkey", "l_partkey", "l_quantity"]),
        ["l_suppkey", "l_partkey"], [("l_quantity", "sum")], enrich)


def asof_last_order(sf_dir: str) -> "rd.Dataset":
    """As-of join (an operator Ray Data lacks natively): for each event, the
    most recent order of the same user with o_orderdate <= event ts
    (ties on date broken by max orderkey; events with no prior order drop —
    inner semantics keep the output int64-clean for the hash compare).

    Plan: ONE shuffle co-partitioning both sides on the user key (whole
    waves of one partition per CPU — a per-USER group would dispatch one
    Python call per tiny group, the pathology frontier.py's budget stage
    documents), then ONE lexsort + grouped forward-fill inside the partition over both
    sides' rows: sort (key, t_us, orders-before-events, id), forward-fill
    the last order row position with ``np.maximum.accumulate``, and keep
    matches whose filled order shares the event's key.  Exactly equivalent
    to a per-user searchsorted — orders at the same (key, t) sort before
    events (<= semantics) and ascending by id (max-orderkey tie-break) —
    with zero per-user dispatch.
    """

    def rows(key: str, t: str, id_: str):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table({
                "key": pc.cast(batch.column(key), pa.int64()),
                "t_us": pc.cast(batch.column(t), pa.int64()),
                "id": pc.cast(batch.column(id_), pa.int64()),
            })
        return f

    def asof_partition(e: pa.Table, o: pa.Table) -> pa.Table:
        if not (e.num_rows and o.num_rows):  # a side with no rows may lack columns
            return pa.table({c: pa.array([], pa.int64())
                             for c in ("event_id", "user_id", "last_orderkey")})
        key, t, ids = (np.concatenate([e[c].to_numpy(), o[c].to_numpy()])
                       for c in ("key", "t_us", "id"))
        is_order = np.repeat([0, 1], [e.num_rows, o.num_rows])
        # primary key last in lexsort; orders (is_order=1) before events at
        # the same (key, t) — "order date <= event ts" includes equality —
        # and orders ascending by id so the forward-fill lands on max id
        order = np.lexsort((ids, -is_order, t, key))
        k = key[order]
        io = is_order[order]
        di = ids[order]
        pos = np.where(io == 1, np.arange(len(k)), -1)
        last = np.maximum.accumulate(pos)
        ev = io == 0
        li = last[ev]
        ok = li >= 0
        # sorted by key first ⇒ the nearest preceding order row either
        # shares the event's key (valid as-of match) or belongs to an
        # earlier key (no prior order for this user)
        ok[ok] = k[li[ok]] == k[ev][ok]
        return pa.table({
            "event_id": di[ev][ok],
            "user_id": k[ev][ok],
            "last_orderkey": di[li[ok]],
        })

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id"]) \
        .map_batches(rows("user_id", "ts", "event_id"), batch_format="pyarrow",
                     zero_copy_batch=True)
    orders = read_parquet_clean(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(rows("o_custkey", "o_orderdate", "o_orderkey"),
                     batch_format="pyarrow", zero_copy_batch=True)
    return copartition([ev, orders], "key", asof_partition)


def union_nations(sf_dir: str) -> "rd.Dataset":
    """Set op: distinct nation keys present in customer UNION supplier —
    per-block-partial distincts of both sides, co-partitioned on the key
    (the partials are tiny)."""

    def proj(col: str):
        def f(batch: pa.Table) -> pa.Table:
            vals = batch.column(col).to_numpy(zero_copy_only=False)
            return pa.table({"nationkey": pa.array(np.unique(vals), pa.int64())})
        return f

    cust = read_parquet_clean(f"{sf_dir}/customer.parquet", columns=["c_nationkey"]) \
        .map_batches(proj("c_nationkey"), batch_format="pyarrow", zero_copy_batch=True)
    sup = read_parquet_clean(f"{sf_dir}/supplier.parquet", columns=["s_nationkey"]) \
        .map_batches(proj("s_nationkey"), batch_format="pyarrow", zero_copy_batch=True)

    def distinct(c: pa.Table, s: pa.Table) -> pa.Table:
        # a side with no rows at all may have no columns
        vals = [t["nationkey"].to_numpy() for t in (c, s) if t.num_rows]
        return pa.table({"nationkey": pa.array(np.unique(np.concatenate(vals)),
                                               pa.int64())})

    return copartition([cust, sup], "nationkey", distinct)


def except_customers(sf_dir: str, min_bal: float = 5000.0,
                     segment: str = "BUILDING") -> "rd.Dataset":
    """Set op (EXCEPT / anti-join): high-balance customers minus the
    ``segment`` customers.  Both sides are rows of one table, so ONE
    co-partition of it on ``c_custkey`` puts every key's rows of both
    sides in the same call, which drops the high-balance keys its segment
    rows hold; nothing is gathered on the driver."""

    def anti(t: pa.Table) -> pa.Table:
        key = pc.cast(t.column("c_custkey"), pa.int64())
        high = key.filter(pc.greater(t.column("c_acctbal"), min_bal))
        seg = key.filter(pc.equal(t.column("c_mktsegment"), segment))
        return pa.table({"c_custkey": high.filter(pc.invert(pc.is_in(
            high, value_set=seg.combine_chunks())))})

    return copartition(
        read_parquet_clean(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_acctbal", "c_mktsegment"]),
        "c_custkey", anti)


def systematic_sample(sf_dir: str, every: int = 100) -> "rd.Dataset":
    """Deterministic systematic sample: every `every`-th order by key — the
    reproducible sampling primitive (random_shuffle/sample are available in
    Ray Data but are not oracle-checkable)."""

    def f(batch: pa.Table) -> pa.Table:
        keys = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        keep = (keys % every) == 0
        return pa.table({
            "o_orderkey": pa.array(keys[keep], pa.int64()),
            "o_totalprice_cents": _cents(
                pa.array(batch.column("o_totalprice").to_numpy(
                    zero_copy_only=False)[keep])),
        })

    return read_parquet_clean(f"{sf_dir}/orders.parquet",
                           columns=["o_orderkey", "o_totalprice"]) \
        .map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def sessionize(sf_dir: str, gap_s: int = 1800) -> "rd.Dataset":
    """Session windows over the events log: per user, events separated by
    more than ``gap_s`` start a new session.  One shuffle co-partitioned on
    the user (a per-USER group would dispatch one Python call per tiny
    group — the frontier.py budget-stage pathology); inside the partition, ONE lexsort by (user, ts, event_id)
    and boundary vectorization: a session starts where the user changes or
    the gap exceeds gap_us, and per-session start/count/duration fall out
    of the boundary indices (Ray Data has no event-time windows natively —
    this is the documented pattern: co-partition by key, sort inside).

    Output: user_id, session_start_us, n_events, duration_us (all int64 —
    exactly hashable against the SQL lag/cumsum-window oracle).
    """
    gap_us = gap_s * 1_000_000

    def sessions_of_partition(t: pa.Table) -> pa.Table:
        t, new = runs.groups(t, ["user_id"], ("ts_us", "event_id"))
        ts = t["ts_us"].to_numpy()
        starts = np.flatnonzero(new | (np.diff(ts, prepend=ts[0]) > gap_us))
        ends = np.r_[starts[1:], len(ts)]
        return pa.table({
            "user_id": t["user_id"].take(starts),
            "session_start_us": ts[starts],
            "n_events": ends - starts,
            "duration_us": ts[ends - 1] - ts[starts],
        })

    def proj(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(batch.column("user_id"), pa.int64()),
            "event_id": batch.column("event_id"),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
        })

    return copartition(
        read_parquet_clean(f"{sf_dir}/events.parquet",
                           columns=["user_id", "event_id", "ts"])
        .map_batches(proj, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", sessions_of_partition)


def events_sliding(sf_dir: str, window_s: int = 3600, slide_s: int = 1800) -> "rd.Dataset":
    """Sliding-window count: per event_type, 1h windows sliding every 30min —
    each event lands in window_s/slide_s grids.  Implemented as the union of
    K offset tumbling grids computed in one vectorized pass per batch, then
    one ``shuffle.aggregate`` count."""
    k = window_s // slide_s

    def grids(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy()
        return pa.table({
            "event_type": b["event_type"].take(np.tile(np.arange(len(us)), k)),
            "win_start": np.concatenate([
                ((us - i * slide_s * 1_000_000) // (window_s * 1_000_000))
                * window_s + i * slide_s for i in range(k)]),
        })

    def counts(g: pa.Table) -> pa.Table:
        return g.rename_columns(["event_type", "win_start", "n_events"])

    return shuffle.aggregate(
        read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
        .map_batches(grids, batch_format="pyarrow", batch_size=None,
                     zero_copy_batch=True),
        ["event_type", "win_start"], [([], "count_all")], counts)


def running_totals(sf_dir: str) -> "rd.Dataset":
    """Stateful-streaming shape (§2.8): per event_type running event count
    and value sum in event-time order.  One shuffle keyed by type; the
    running state is a grouped cumsum over the sorted partition — order
    dependence is explicit (ts, then event_id).  The running value is a
    plain left-to-right float sum per type; its integer cents match the SQL
    window oracle."""

    def proj(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch.column("event_type"),
            "event_id": batch.column("event_id"),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "value": batch.column("value"),
        })

    def totals(t: pa.Table) -> pa.Table:
        t, new = runs.groups(t, ["event_type"], ("ts_us", "event_id"))
        value = runs.cumsum(t["value"].to_numpy(), new)
        return pa.table({
            "event_type": t["event_type"],
            "event_id": t["event_id"],
            "running_n": runs.rank(new) + 1,
            "running_value_cents": np.round(value * 100).astype(np.int64),
        })

    return copartition(
        read_parquet_clean(f"{sf_dir}/events.parquet",
                        columns=["event_type", "event_id", "ts", "value"])
        .map_batches(proj, batch_format="pyarrow", zero_copy_batch=True),
        "event_type", totals)


def group_topk_orders(sf_dir: str, k: int = 3) -> "rd.Dataset":
    """Top-k-per-group (window rank): each customer's k highest-value orders
    with their rank.  Two-level plan: a per-block partial top-k (only k rows
    per (customer × block) survive to the shuffle) then a per-group final
    top-k — the shuffle volume is bounded by k × |customers| regardless of
    order count, unlike a global window sort.  Not a ``shuffle.aggregate``:
    both levels keep rows, not a combinable aggregate, so one body ranks
    at both."""
    cols = ["o_custkey", "o_orderkey", "o_totalprice_cents"]

    def topk(t: pa.Table) -> pa.Table:
        t, new = runs.groups(t.select(cols), ["o_custkey"],
                             (("o_totalprice_cents", "descending"), "o_orderkey"))
        rank = runs.rank(new)
        return t.append_column("rank", pa.array(rank + 1)).filter(pa.array(rank < k))

    def partial(b: pa.Table) -> pa.Table:
        return topk(b.append_column("o_totalprice_cents",
                                    _cents(b["o_totalprice"])))

    return copartition(
        read_parquet_clean(f"{sf_dir}/orders.parquet",
                           columns=["o_custkey", "o_orderkey", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow", batch_size=None,
                     zero_copy_batch=True),
        "o_custkey", topk)


def nation_acctbal_quantiles(sf_dir: str) -> "rd.Dataset":
    """Per-nation discrete quantiles of customer account balance: n, median
    and p90 in integer cents — exact order statistics, not interpolated, so
    the values are elements of the input and hash-stable.  The discrete rule
    matches DuckDB's ``quantile_disc``: sorted[ceil(q*n) - 1].

    One shuffle keyed by nation (25 groups); within each partition the
    quantiles are one vectorized sort by (nation, balance) + index.  At web
    scale with billions of rows per key this becomes a two-pass
    t-digest/histogram sketch; the exact per-group sort is correct while a
    group fits a worker (~10^8 rows)."""

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_nationkey": pc.cast(batch.column("c_nationkey"), pa.int64()),
            "bal_cents": _cents(batch.column("c_acctbal")),
        })

    def quantiles(t: pa.Table) -> pa.Table:
        t, new = runs.groups(t, ["c_nationkey"], ("bal_cents",))
        bal = t["bal_cents"].to_numpy()
        start = np.flatnonzero(new)
        n = np.diff(start, append=len(bal))

        def disc(q: float) -> np.ndarray:
            return bal[start + np.minimum(n - 1, np.ceil(q * n).astype(np.int64) - 1)]

        return pa.table({"c_nationkey": t["c_nationkey"].take(start),
                         "n_customers": n,
                         "median_bal_cents": disc(0.5),
                         "p90_bal_cents": disc(0.9)})

    return copartition(
        read_parquet_clean(f"{sf_dir}/customer.parquet",
                        columns=["c_nationkey", "c_acctbal"])
        .map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True),
        "c_nationkey", quantiles)


def semi_join_big_orders(sf_dir: str, min_qty: float = 47.0) -> "rd.Dataset":
    """Semi-join (EXISTS): orders having at least one lineitem with
    l_quantity >= min_qty.  The existence side reduces to per-block
    distinct order keys (no row data), which meet the orders in one
    co-partition on ``o_orderkey``; each partition keeps the orders whose
    key its existence side holds, with a vectorized ``is_in`` (the
    seen-set anti-join of SURVEY.md J3 with polarity flipped)."""
    out = pa.schema([("o_orderkey", pa.int64()),
                     ("o_totalprice_cents", pa.int64())])

    def distinct_keys(batch: pa.Table) -> pa.Table:
        m = pc.greater_equal(batch.column("l_quantity"), min_qty)
        keys = batch.filter(m).column("l_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({"o_orderkey": pa.array(np.unique(keys), pa.int64())})

    def semi(orders: pa.Table, big: pa.Table) -> pa.Table:
        if not (orders.num_rows and big.num_rows):
            return out.empty_table()
        sub = orders.filter(pc.is_in(
            orders.column("o_orderkey"),
            value_set=big.column("o_orderkey").combine_chunks()))
        return pa.table({
            "o_orderkey": pc.cast(sub.column("o_orderkey"), pa.int64()),
            "o_totalprice_cents": _cents(sub.column("o_totalprice")),
        })

    return copartition(
        [read_parquet_clean(f"{sf_dir}/orders.parquet",
                            columns=["o_orderkey", "o_totalprice"]),
         read_parquet_clean(f"{sf_dir}/lineitem.parquet",
                            columns=["l_orderkey", "l_quantity"])
         .map_batches(distinct_keys, batch_format="pyarrow",
                      zero_copy_batch=True)],
        "o_orderkey", semi)


def small_qty_lineitems(sf_dir: str) -> "rd.Dataset":
    """TPC-H Q17 shape: lineitems whose quantity is below 20% of their
    part's average quantity — the correlated-aggregate filter as ONE
    co-partition of the lineitems on ``l_partkey``: every line of a part
    lands in one call, which computes each part's count and sum and
    filters its lines in the same pass.

    The predicate is evaluated CROSS-MULTIPLIED in exact arithmetic —
    ``qty·5·n_part < sum_qty_part`` instead of ``qty < 0.2·avg`` — because
    avg differs in the last ulp between engines (sum order, division) and
    would flip boundary rows; quantities are integer-valued doubles, so
    both products are exact in float64 and the comparison is bit-stable."""

    def small(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        _, part = np.unique(pk, return_inverse=True)
        n = np.bincount(part)[part]
        s = np.bincount(part, weights=qty)[part]
        keep = pa.array(qty * 5.0 * n < s)
        return pa.table({
            "l_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64()),
            "l_linenumber": pc.cast(batch.column("l_linenumber"), pa.int64()),
            "l_partkey": pc.cast(batch.column("l_partkey"), pa.int64()),
            "l_quantity_cents": _cents(batch.column("l_quantity")),
        }).filter(keep)

    return copartition(
        read_parquet_clean(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_linenumber", "l_partkey",
                                    "l_quantity"]),
        "l_partkey", small)


def global_rank_sample(sf_dir: str, every: int = 1000) -> "rd.Dataset":
    """o_orderkey, rn — every ``every``-th order in GLOBAL
    (o_orderdate, o_orderkey) sort order, with its global rank.

    The distributed global-rank plan: range-partition by a data-independent
    key (calendar month of o_orderdate — a natural range partitioning that
    needs no sampling pass), sort within each partition, and turn local
    ranks global by adding the broadcast prefix-count of all lower
    partitions (per-bucket counts are a per-batch partial + tiny driver
    cumsum).  No single node ever holds more than one month; the only
    all-to-all is the bucket groupby.  Correct because the partition key is
    a prefix of the sort key."""

    def to_bucket(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(
            zero_copy_only=False)
        month = (us // (86_400_000_000 * 32)).astype(np.int64)  # ~month-grain
        return pa.table({
            "bucket": pa.array(month, pa.int64()),
            "t_us": pa.array(us, pa.int64()),
            "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()),
        })

    def bucket_counts(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch.column("bucket").to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"bucket": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    base = read_parquet_clean(f"{sf_dir}/orders.parquet",
                           columns=["o_orderkey", "o_orderdate"]) \
        .map_batches(to_bucket, batch_format="pyarrow", zero_copy_batch=True)

    counts: dict[int, int] = {}
    for b in base.map_batches(bucket_counts, batch_format="pyarrow",
                              zero_copy_batch=True).iter_batches(
                                  batch_format="pyarrow", batch_size=None):
        for k, n in zip(b.column("bucket").to_pylist(), b.column("n").to_pylist()):
            counts[k] = counts.get(k, 0) + n
    offsets = {}
    acc = 0
    for k in sorted(counts):
        offsets[k] = acc
        acc += counts[k]
    off_ref = ray.put(offsets)

    def rank_buckets(t: pa.Table) -> pa.Table:
        offs = shuffle.broadcast_value(off_ref)
        t, new = runs.groups(t, ["bucket"], ("t_us", "o_orderkey"))
        base = np.array([offs[b] for b in t["bucket"].filter(new).to_pylist()],
                        np.int64)
        rn = runs.rank(new) + 1 + base[np.cumsum(new) - 1]
        keep = rn % every == 0
        return pa.table({"o_orderkey": t["o_orderkey"].filter(pa.array(keep)),
                         "rn": rn[keep]})

    return copartition(base, "bucket", rank_buckets)


def customers_order_counts_left(sf_dir: str) -> "rd.Dataset":
    """Left-outer join: EVERY customer with their order count — zero for
    customers with no orders (the rows an inner join silently drops).

    The order side collapses to per-block (c_custkey, count) partials,
    which meet the customers in one co-partition on ``c_custkey``; each
    partition sums its partials and looks every customer up, with the
    unmatched-probe pass-through of the cdxj merge (merge_cdxj.py:79-81)
    generalized to a relational operator."""

    def partial(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch.column("o_custkey").to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"c_custkey": pa.array(u, pa.int64()),
                         "p_n": pa.array(c.astype(np.int64), pa.int64())})

    def left_join(cust: pa.Table, counts: pa.Table) -> pa.Table:
        keys = (pc.cast(cust.column("c_custkey"), pa.int64()) if cust.num_rows
                else pa.array([], pa.int64()))
        n = pa.array(np.zeros(len(keys), np.int64))
        if len(keys) and counts.num_rows:
            g = counts.group_by("c_custkey", use_threads=False).aggregate([("p_n", "sum")])
            n = pc.fill_null(pc.take(g.column("p_n_sum"), pc.index_in(
                keys, value_set=g.column("c_custkey").combine_chunks())), 0)
        return pa.table({"c_custkey": keys, "n_orders": n})

    return copartition(
        [read_parquet_clean(f"{sf_dir}/customer.parquet", columns=["c_custkey"]),
         read_parquet_clean(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
         .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)],
        "c_custkey", left_join)


def distinct_count_custkey(sf_dir: str) -> "pa.Table":
    """n_distinct — exact COUNT(DISTINCT o_custkey), the two-level distinct
    plan: a ``shuffle.aggregate`` with no aggregate function (each block
    forwards at most its distinct keys, each partition dedups its keys and
    counts the non-null ones), per-partition counts summed on the driver
    (one int per partition)."""
    total = shuffle.aggregate(
        read_parquet_clean(f"{sf_dir}/orders.parquet", columns=["o_custkey"]),
        "o_custkey", [],
        lambda g: pa.table({"p_n": [pc.count(g["o_custkey"]).as_py()]}),
    ).to_pandas()["p_n"].sum()
    return pa.table({"n_distinct": pa.array([int(total)], pa.int64())})


HLL_P = 8                      # 2^8 = 256 registers
HLL_M = 1 << HLL_P


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a public-domain 64-bit mixer with
    full avalanche; deterministic across processes (unlike builtin hash)."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _bitlen64(x: np.ndarray) -> np.ndarray:
    """Vectorized bit_length for uint64 (binary-search shifts — exact,
    no float log)."""
    x = x.copy()
    r = np.zeros(x.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = x >= (np.uint64(1) << np.uint64(s))
        r[big] += s
        x = np.where(big, x >> np.uint64(s), x)
    return r + (x > 0)


def _hll_registers(keys: np.ndarray) -> np.ndarray:
    """Register maxima for a batch of int64 keys — fully vectorized
    (splitmix64 hash, shift-based register index, binary-search bit length,
    np.maximum.at merge); no per-key Python."""
    regs = np.zeros(HLL_M, dtype=np.int8)
    if len(keys) == 0:
        return regs
    h = _splitmix64(keys.astype(np.uint64))
    j = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = h << np.uint64(HLL_P)  # uint64 shift drops the top HLL_P bits
    # rank = leading zeros of the 64-bit suffix + 1; all-zero suffix caps
    # at (64 - HLL_P) + 1 as in the scalar definition
    rank = np.where(rest > 0, (64 - _bitlen64(rest)) + 1, (64 - HLL_P) + 1)
    np.maximum.at(regs, j, rank.astype(np.int8))
    return regs


def approx_distinct_custkey(sf_dir: str) -> "pa.Table":
    """n_approx — HyperLogLog distinct estimate of o_custkey (m=256).

    The sketch pattern for COUNT DISTINCT at 100 TB: per-block register
    maxima (256 bytes each) are the ONLY thing shuffled — merge = elementwise
    max, order-independent and retry-idempotent, so the estimate is
    deterministic at any parallelism.  Approximate (±1.04/√m ≈ 6.5%) ⇒
    rows-only driver check; the error bound and determinism are asserted in
    tests against the exact operator above.
    """

    def partial(batch: pa.Table) -> pa.Table:
        keys = np.unique(batch.column("o_custkey").to_numpy(zero_copy_only=False))
        return pa.table({"regs": pa.array([_hll_registers(keys).tolist()],
                                          pa.list_(pa.int8()))})

    regs = np.zeros(HLL_M, dtype=np.int8)
    for b in (read_parquet_clean(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
              .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
              .iter_batches(batch_format="pyarrow", batch_size=None)):
        for r in b.column("regs").to_pylist():
            regs = np.maximum(regs, np.array(r, dtype=np.int8))

    est = (0.7213 / (1 + 1.079 / HLL_M)) * HLL_M * HLL_M / np.sum(
        np.power(2.0, -regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * HLL_M and zeros:  # small-range linear counting
        est = HLL_M * np.log(HLL_M / zeros)
    return pa.table({"n_approx": pa.array([int(round(est))], pa.int64())})


def orders_lineitem_join(sf_dir: str) -> "rd.Dataset":
    """General large×large inner hash join (no pre-aggregation): every
    lineitem row joined to its order's priority — the shuffle-join shape for
    when NEITHER side fits a broadcast.

    Plan: ONE shuffle co-partitioning both sides on the join key (about
    one partition per CPU — the same co-partitioning trick as the as-of
    join), then a vectorized Arrow hash join inside each partition.  Each
    key's rows from both sides land in the same partition by construction,
    so the per-partition merge is exact.  Output is row-level (one row per
    lineitem), proving the join itself rather than a joined aggregate."""

    def ord_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"key": pc.cast(batch.column("o_orderkey"), pa.int64()),
                         "o_orderpriority": batch.column("o_orderpriority")})

    def li_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(batch.column("l_orderkey"), pa.int64()),
            "lineno": pc.cast(batch.column("l_linenumber"), pa.int64()),
            "qty_cents": _cents(batch.column("l_quantity")),
        })

    empty = pa.schema([("l_orderkey", pa.int64()), ("l_linenumber", pa.int64()),
                       ("l_quantity_cents", pa.int64()),
                       ("o_orderpriority", pa.string())]).empty_table()

    def join_partition(orders: pa.Table, items: pa.Table) -> pa.Table:
        if not (orders.num_rows and items.num_rows):  # a side with no rows
            return empty  # may lack columns
        return items.join(orders, "key", use_threads=False).select(
            ["key", "lineno", "qty_cents", "o_orderpriority"]) \
            .rename_columns(empty.column_names)

    orders = read_parquet_clean(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"]) \
        .map_batches(ord_rows, batch_format="pyarrow", zero_copy_batch=True)
    items = read_parquet_clean(f"{sf_dir}/lineitem.parquet",
                            columns=["l_orderkey", "l_linenumber", "l_quantity"]) \
        .map_batches(li_rows, batch_format="pyarrow", zero_copy_batch=True)
    return copartition([orders, items], "key", join_partition)


def pricing_rollup(sf_dir: str) -> "pd.DataFrame":
    """ROLLUP aggregate: lineitem quantity/count at three grouping levels —
    (returnflag, linestatus), (returnflag), and grand total — with 'ALL' as
    the rolled-up sentinel (hash-stable across engines, unlike SQL NULL).

    The scale plan computes ONLY the finest level distributed (one
    ``shuffle.aggregate``, as pricing_summary); the coarser levels are
    derived from the finest RESULT (a handful of rows) on the driver —
    never a second pass over the data.  Sums roll up exactly because the
    finest level is already integer cents."""
    flags = ["l_returnflag", "l_linestatus"]

    def cents(g: pa.Table) -> pa.Table:
        return pa.table({"l_returnflag": g.column("l_returnflag"),
                         "l_linestatus": g.column("l_linestatus"),
                         "sum_qty_cents": _cents(g.column("l_quantity_sum")),
                         "n_rows": g.column("count_all")})

    finest = pa.Table.from_pylist(shuffle.aggregate(
        read_parquet_clean(f"{sf_dir}/lineitem.parquet",
                           columns=[*flags, "l_quantity"]),
        flags, [("l_quantity", "sum"), ([], "count_all")], cents
    ).take_all())  # |flags| × |statuses| rows
    levels = [finest]
    for keys in (["l_returnflag"], []):
        g = finest.group_by(keys, use_threads=False).aggregate(
            [("sum_qty_cents", "sum"), ("n_rows", "sum")])
        levels.append(pa.table({
            "l_returnflag": g["l_returnflag"] if keys else pa.array(["ALL"]),
            "l_linestatus": pa.array(["ALL"] * g.num_rows),
            "sum_qty_cents": g["sum_qty_cents_sum"],
            "n_rows": g["n_rows_sum"]}))
    return pa.concat_tables(levels).to_pandas()


def range_join_acctbal(sf_dir: str, band: float = 10.0) -> "rd.Dataset":
    """Range (band) join: per supplier, how many customers hold an account
    balance within ±band — the bucketed-range shuffle plan Ray Data lacks
    natively: both sides are bucketed by floor(bal/band); the probe
    (supplier) side is REPLICATED to its bucket ±1 so every in-band pair
    co-locates in exactly the build row's bucket (counted once — the build
    row lives in one bucket).  Within a bucket the match is a vectorized
    interval check.  Suppliers with no in-band customer drop (inner join).
    The per-supplier total groups inside its exchange only: the matched rows
    are already at most three per supplier (one per replica bucket), so no
    per-block partial would shrink them.
    """

    def cust_rows(batch: pa.Table) -> pa.Table:
        bal = batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array(np.floor(bal / band).astype(np.int64)),
            "bal": pa.array(bal, pa.float64()),
        })

    def supp_rows(batch: pa.Table) -> pa.Table:
        bal = batch.column("s_acctbal").to_numpy(zero_copy_only=False)
        key = batch.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        b0 = np.floor(bal / band).astype(np.int64)
        buckets = np.concatenate([b0 - 1, b0, b0 + 1])
        return pa.table({
            "bucket": pa.array(buckets),
            "key": pa.array(np.tile(key, 3), pa.int64()),
            "bal": pa.array(np.tile(bal, 3), pa.float64()),
        })

    def match_buckets(c: pa.Table, s: pa.Table) -> pa.Table:
        if not (c.num_rows and s.num_rows):  # a side with no rows may lack columns
            return pa.table({"s_suppkey": pa.array([], pa.int64()),
                             "p_n": pa.array([], pa.int64())})
        # floor(bal / band) is monotone in bal, so customers sorted by
        # balance are sorted by bucket too: each bucket is one run of cb
        c = c.sort_by("bal")
        cb, cbucket = c["bal"].to_numpy(), c["bucket"].to_numpy()
        sk, sb, sbucket = (s[k].to_numpy() for k in ("key", "bal", "bucket"))
        # count only pairs whose CUSTOMER lives in the supplier row's bucket
        # — each pair counted exactly once across buckets
        lo = np.maximum(np.searchsorted(cb, sb - band, side="left"),
                        np.searchsorted(cbucket, sbucket, side="left"))
        hi = np.minimum(np.searchsorted(cb, sb + band, side="right"),
                        np.searchsorted(cbucket, sbucket, side="right"))
        n = (hi - lo).astype(np.int64)
        keep = n > 0
        return pa.table({"s_suppkey": sk[keep], "p_n": n[keep]})

    def total(t: pa.Table) -> pa.Table:
        g = t.group_by("s_suppkey", use_threads=False).aggregate([("p_n", "sum")])
        return pa.table({"s_suppkey": g.column("s_suppkey"),
                         "n_close_customers": g.column("p_n_sum")})

    cust = read_parquet_clean(f"{sf_dir}/customer.parquet",
                           columns=["c_acctbal"]) \
        .map_batches(cust_rows, batch_format="pyarrow", zero_copy_batch=True)
    supp = read_parquet_clean(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_acctbal"]) \
        .map_batches(supp_rows, batch_format="pyarrow", zero_copy_batch=True)
    matched = copartition([cust, supp], "bucket", match_buckets)
    return copartition(matched, "s_suppkey", total)


def order_gaps(sf_dir: str) -> "rd.Dataset":
    """o_custkey, o_orderkey, gap_us — the LAG window family: time between
    each customer's consecutive orders (microseconds, so the compare is
    integer-exact).  First order per customer is dropped (its lag is NULL).

    Plan: one shuffle co-partitioned on custkey (about one group per CPU),
    then a vectorized in-task pass — sort by (custkey, ts, orderkey),
    np.diff, mask customer boundaries — instead of per-customer group
    dispatch (one task per group regardless of customer count; the
    per-key-dispatch version is ~50× slower on high-cardinality keys).
    Order dependence is explicit: ties on (ts) break by orderkey, matching
    the SQL window's ORDER BY."""

    def proj(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": batch.column("o_custkey"),
            "o_orderkey": batch.column("o_orderkey"),
            "ts_us": pc.cast(batch.column("o_orderdate"), pa.int64()),
        })

    def gaps(t: pa.Table) -> pa.Table:
        t, new = runs.groups(t, ["o_custkey"], ("ts_us", "o_orderkey"))
        ts = t["ts_us"].to_numpy()
        keep = ~new  # each customer's first order has no gap
        return pa.table({
            "o_custkey": pa.array(t["o_custkey"].to_numpy()[keep], pa.int64()),
            "o_orderkey": pa.array(t["o_orderkey"].to_numpy()[keep], pa.int64()),
            "gap_us": pa.array(np.diff(ts, prepend=ts[0])[keep], pa.int64()),
        })

    return copartition(
        read_parquet_clean(f"{sf_dir}/orders.parquet",
                           columns=["o_custkey", "o_orderkey", "o_orderdate"])
        .map_batches(proj, batch_format="pyarrow", zero_copy_batch=True),
        "o_custkey", gaps)


# Per-stratum sampling rates (permille) for stratified_sample: higher
# priorities keep more rows — the "rebalance the mixture" knob.
STRATA_PERMILLE = {
    "1-URGENT": 400,
    "2-HIGH": 250,
    "3-MEDIUM": 150,
    "4-NOT SPECIFIED": 100,
    "5-LOW": 50,
}
_KNUTH = 2654435761  # Knuth multiplicative hash constant (golden-ratio)


def stratified_sample(sf_dir: str) -> "rd.Dataset":
    """o_orderkey, o_orderpriority, o_totalprice_cents — deterministic
    STRATIFIED sample: each stratum (order priority) keeps a different
    fraction of its rows, selected by a stable integer hash — the
    source-mixture rebalancing primitive (vs ``systematic_sample``'s single
    global rate).

    The hash is Knuth's multiplicative scheme ``(key·2654435761) mod 2^32``
    — pure integer arithmetic, so it is bit-identical in numpy and ANSI SQL
    (no md5 per-row loop) and the whole operator is a shuffle-free
    vectorized filter: sampling 100 TB touches each block exactly once and
    moves nothing.  The key is reduced mod 2^32 BEFORE the multiply (the
    product then fits 64 unsigned bits on both engines — mathematically
    identical mod 2^32, but an unreduced int64 multiply would wrap
    differently than SQL for keys above ~3.5e9, i.e. exactly the 100-TB
    key range)."""
    strata = list(STRATA_PERMILLE)
    quotas = np.array([STRATA_PERMILLE[s] for s in strata], dtype=np.int64)

    def f(batch: pa.Table) -> pa.Table:
        keys = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        prio = np.asarray(batch.column("o_orderpriority"))
        quota = np.select([prio == s for s in strata], quotas, default=0)
        h = ((keys.astype(np.uint64) % np.uint64(1 << 32))
             * np.uint64(_KNUTH)) % np.uint64(1 << 32)
        keep = (h % np.uint64(1000)).astype(np.int64) < quota
        return pa.table({
            "o_orderkey": pa.array(keys[keep], pa.int64()),
            "o_orderpriority": pa.array(prio[keep], pa.string()),
            "o_totalprice_cents": _cents(
                pa.array(batch.column("o_totalprice").to_numpy(
                    zero_copy_only=False)[keep])),
        })

    return read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"]) \
        .map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def mode_segment(sf_dir: str) -> "rd.Dataset":
    """c_nationkey, top_segment, n_customers — per-group MODE/argmax: each
    nation's most common market segment (ties break to the lexicographically
    smallest segment, so the result is deterministic).

    Two-level plan: per-block partial (nation, segment) counts collapse each
    block to ≤ |nations|×|segments| rows before the shuffle, which
    co-partitions on nation; each partition sums the partials per (nation,
    segment) and takes each nation's argmax — the exchange carries counter
    rows only, never customers, so cardinality at 100 TB is bounded by the
    key-pair count.  Not a ``shuffle.aggregate``: that exchanges on every
    group key, and the argmax needs all of a nation's segments in one call,
    so the exchange is on the nation alone."""
    keys = ["c_nationkey", "c_mktsegment"]

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by(keys, use_threads=False).aggregate([([], "count_all")])

    def argmax(t: pa.Table) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate([("count_all", "sum")])
        g = runs.first(g, ["c_nationkey"],
                       (("count_all_sum", "descending"), "c_mktsegment"))
        return pa.table({"c_nationkey": pc.cast(g["c_nationkey"], pa.int64()),
                         "top_segment": g["c_mktsegment"],
                         "n_customers": g["count_all_sum"]})

    return copartition(
        read_parquet_clean(f"{sf_dir}/customer.parquet", columns=keys)
        .map_batches(partial, batch_format="pyarrow", batch_size=None,
                     zero_copy_batch=True),
        "c_nationkey", argmax)


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")
_DAY_US = 86_400_000_000


def pivot_events(sf_dir: str) -> "rd.Dataset":
    """day_us, n_click, n_error, n_purchase, n_signup, n_view — PIVOT: the
    event log turned into one row per UTC day with a count column per event
    type (the long→wide reshape; the column set is the fixed known type
    vocabulary, as pivot requires).

    Per-batch partial pivot (vectorized indicator sums per day) collapses
    each block to ≤ |days| rows carrying 5 counters; the single groupby sums
    partials — at 100 TB the exchange is days × 6 ints, independent of event
    count."""

    def partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False)
        day = (us // _DAY_US) * _DAY_US
        et = np.asarray(batch.column("event_type"))
        days, inv = np.unique(day, return_inverse=True)
        cols = {"day_us": pa.array(days, pa.int64())}
        for t in EVENT_TYPES:
            cnt = np.bincount(inv, weights=(et == t), minlength=len(days))
            cols[f"n_{t}"] = pa.array(cnt.astype(np.int64), pa.int64())
        return pa.table(cols)

    def total(t: pa.Table) -> pa.Table:
        g = t.group_by("day_us", use_threads=False).aggregate(
            [(f"n_{e}", "sum") for e in EVENT_TYPES])
        return g.select(["day_us"] + [f"n_{e}_sum" for e in EVENT_TYPES]) \
            .rename_columns(["day_us"] + [f"n_{e}" for e in EVENT_TYPES])

    return copartition(
        read_parquet_clean(f"{sf_dir}/events.parquet",
                           columns=["ts", "event_type"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "day_us", total)
