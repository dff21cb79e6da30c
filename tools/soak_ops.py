"""1M-row soak for the LLM-data ops family (dedup / ANN / text).

The bench tables top out at sf0.1 (5k docs / 2k vectors) — enough for the
correctness gate, not for scale evidence.  This harness synthesizes a
documents + embeddings corpus ~200x that size with the SAME shape as the
testdata tables (TESTDATA.md), runs the exact ``queries()`` callables the
driver grades against it, and self-checks every result against closed-form
expectations baked into the construction:

- every row is a pure function of its row id (splitmix64 mixing), so the
  corpus is deterministic under any batching / parallelism;
- ids ``k, k+1`` with ``k % DUP_EVERY == 0`` carry IDENTICAL text and
  IDENTICAL embeddings → exact-dedup group sizes, LSH candidate recall and
  ANN nearest-neighbor membership are all known in advance.

Usage:  python tools/soak_ops.py [--rows 1000000] [--keep]
Prints ONE JSON line (gen + per-op wall seconds, rows, checks).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# 512 words: the 18 quality-score stopwords (so n_stopwords is exercised)
# plus synthetic filler.  A realistic-size vocab matters at soak scale — a
# toy vocab makes unrelated docs share shingles, and minhash-band collision
# pairs then grow quadratically with corpus size.
VOCAB = tuple("the a an and of to in is it that this with for as on at by "
              "from".split()) + tuple(f"w{i:03d}" for i in range(494))
LANGS = ("en", "de", "fr", "es", "zh")
DUP_EVERY = 500          # ids k, k+1 (k % DUP_EVERY == 0) are exact dups
MIN_WORDS, WORD_SPAN = 30, 21   # 30..50 words per doc
DIM = 64


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — vectorized uint64 avalanche (wrapping mults)."""
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _base_ids(ids: np.ndarray) -> np.ndarray:
    """Content id: k+1 borrows k's content for k % DUP_EVERY == 0."""
    return np.where(ids % DUP_EVERY == 1, ids - 1, ids)


def _n_words(base: np.ndarray) -> np.ndarray:
    return (MIN_WORDS + _mix(base * np.uint64(11)) % WORD_SPAN).astype(np.int64)


def gen_docs_batch(batch: pa.Table) -> pa.Table:
    """id → (doc_id, text, lang, source, n_chars) — pure per-id function."""
    ids = batch.column("id").to_numpy().astype(np.uint64)
    base = _base_ids(ids)
    nw = _n_words(base)
    max_w = int(nw.max()) if len(nw) else 0
    j = np.arange(max_w, dtype=np.uint64)
    # double-mix: an affine (base*c1 + j*c2) stream aliases for base ids
    # c2/gcd apart (docs would share a word-shifted run → real near-dups);
    # avalanche the row seed first so streams never overlap
    word_idx = _mix(_mix(base * np.uint64(31))[:, None] + j[None, :]) \
        % np.uint64(len(VOCAB))
    vocab_np = np.array(VOCAB)
    words = vocab_np[word_idx]
    texts = [" ".join(row[:n]) for row, n in zip(words, nw)]
    langs = [LANGS[int(v)] for v in _mix(base * np.uint64(13)) % np.uint64(len(LANGS))]
    srcs = [f"src{int(v)}" for v in _mix(ids * np.uint64(17)) % np.uint64(10)]
    return pa.table({
        "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array(srcs, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


# ---------------------------------------------------------------- relational
# Soak-scale TPC-H-ish tables with the SAME shape as the testdata tables
# (TESTDATA.md): orders = n rows, lineitem = 2n rows (every order exactly two
# lineitems: lid and lid+n share l_orderkey = lid % n), events = n rows,
# customer = n//100 rows.  All columns are pure per-id splitmix functions, so
# every expected answer is computable on the driver with one vectorized numpy
# pass over the id range — the checks below compare the DISTRIBUTED plans
# (coarse-partition shuffles, co-partitioned joins, as-of forward fill) against
# that single-pass ground truth exactly (prices to the cent).

REL_SOAK_OPS = frozenset({"rel_pricing_summary", "rel_top_revenue_orders",
                          "rel_orders_lineitem_join", "rel_events_windowed",
                          "rel_sessionize", "rel_asof_last_order"})
# ops that build their own synthetic input inline (no docs corpus needed)
SELF_CONTAINED_OPS = frozenset({"multimodal_phash_neardup_hot"})
BASE_US = 1_704_067_200 * 1_000_000   # 2024-01-01 in epoch-us
SPAN_S = 90_000                        # order/ship dates span ~the event window
EVENT_STEP_S = 600                     # events per user are 10 min apart...
EVENT_JUMP_EVERY = 20                  # ...except every 20th jumps 2h ahead
EVENT_JUMP_S = 7_200                   # (> the 1800 s sessionize gap)
SEGS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")


def _n_custs(n: int) -> int:
    return max(n // 100, 1)


def _orders_cols(oid: np.ndarray, n: int) -> dict:
    C = _n_custs(n)
    return {
        "o_orderkey": oid.astype(np.int64),
        "o_custkey": (_mix(oid * np.uint64(7)) % np.uint64(C)).astype(np.int64),
        "o_orderstatus": np.array(list("OFP"))[
            (_mix(oid * np.uint64(11)) % np.uint64(3)).astype(np.int64)],
        "o_totalprice": (_mix(oid * np.uint64(23)) % np.uint64(10_000_000))
        .astype(np.int64) / 100.0,
        "o_orderdate_us": (BASE_US + (_mix(oid * np.uint64(29))
                                      % np.uint64(SPAN_S)).astype(np.int64)
                           * 1_000_000),
        "o_orderpriority": np.array([f"{i}-PRIO" for i in range(1, 6)])[
            (_mix(oid * np.uint64(31)) % np.uint64(5)).astype(np.int64)],
    }


def _lineitem_cols(lid: np.ndarray, n: int) -> dict:
    return {
        "l_orderkey": (lid % np.uint64(n)).astype(np.int64),
        "l_partkey": (_mix(lid * np.uint64(3))
                      % np.uint64(max(n // 5, 1))).astype(np.int64),
        "l_suppkey": (_mix(lid * np.uint64(5))
                      % np.uint64(max(n // 50, 1))).astype(np.int64),
        "l_linenumber": (lid // np.uint64(n) + np.uint64(1)).astype(np.int32),
        "l_quantity": (1 + _mix(lid * np.uint64(37)) % np.uint64(50))
        .astype(np.int64).astype(np.float64),
        "l_extendedprice": (_mix(lid * np.uint64(41)) % np.uint64(10_000_000))
        .astype(np.int64) / 100.0,
        "l_discount": (_mix(lid * np.uint64(43)) % np.uint64(11))
        .astype(np.int64) / 100.0,
        "l_tax": (_mix(lid * np.uint64(47)) % np.uint64(9))
        .astype(np.int64) / 100.0,
        "l_returnflag": np.array(list("RAN"))[
            (_mix(lid * np.uint64(53)) % np.uint64(3)).astype(np.int64)],
        "l_linestatus": np.array(list("OF"))[
            (_mix(lid * np.uint64(59)) % np.uint64(2)).astype(np.int64)],
        "l_shipdate_us": (BASE_US + (_mix(lid * np.uint64(61))
                                     % np.uint64(SPAN_S)).astype(np.int64)
                          * 1_000_000),
    }


def _events_cols(eid: np.ndarray, n: int) -> dict:
    C = _n_custs(n)
    seq = (eid // np.uint64(C)).astype(np.int64)
    return {
        "event_id": eid.astype(np.int64),
        "user_id": (eid % np.uint64(C)).astype(np.int64),
        "ts_us": (BASE_US + (seq * EVENT_STEP_S
                             + (seq // EVENT_JUMP_EVERY) * EVENT_JUMP_S)
                  * 1_000_000),
        "event_type": np.array([f"type{i}" for i in range(5)])[
            (_mix(eid * np.uint64(67)) % np.uint64(5)).astype(np.int64)],
        "value": (_mix(eid * np.uint64(71)) % np.uint64(1000))
        .astype(np.int64) / 10.0,  # one decimal → cent sums stay integral
    }


def _ts(us: np.ndarray) -> pa.Array:
    return pa.array(us, pa.int64()).cast(pa.timestamp("us"))


def gen_orders_batch(n: int):
    def f(batch: pa.Table) -> pa.Table:
        c = _orders_cols(batch.column("id").to_numpy().astype(np.uint64), n)
        return pa.table({
            "o_orderkey": pa.array(c["o_orderkey"]),
            "o_custkey": pa.array(c["o_custkey"]),
            "o_orderstatus": pa.array(c["o_orderstatus"], pa.string()),
            "o_totalprice": pa.array(c["o_totalprice"]),
            "o_orderdate": _ts(c["o_orderdate_us"]),
            "o_orderpriority": pa.array(c["o_orderpriority"], pa.string()),
        })
    return f


def gen_lineitem_batch(n: int):
    def f(batch: pa.Table) -> pa.Table:
        c = _lineitem_cols(batch.column("id").to_numpy().astype(np.uint64), n)
        return pa.table({
            "l_orderkey": pa.array(c["l_orderkey"]),
            "l_partkey": pa.array(c["l_partkey"]),
            "l_suppkey": pa.array(c["l_suppkey"]),
            "l_linenumber": pa.array(c["l_linenumber"], pa.int32()),
            "l_quantity": pa.array(c["l_quantity"]),
            "l_extendedprice": pa.array(c["l_extendedprice"]),
            "l_discount": pa.array(c["l_discount"]),
            "l_tax": pa.array(c["l_tax"]),
            "l_returnflag": pa.array(c["l_returnflag"], pa.string()),
            "l_linestatus": pa.array(c["l_linestatus"], pa.string()),
            "l_shipdate": _ts(c["l_shipdate_us"]),
        })
    return f


def gen_events_batch(n: int):
    def f(batch: pa.Table) -> pa.Table:
        c = _events_cols(batch.column("id").to_numpy().astype(np.uint64), n)
        return pa.table({
            "event_id": pa.array(c["event_id"]),
            "ts": _ts(c["ts_us"]),
            "user_id": pa.array(c["user_id"]),
            "event_type": pa.array(c["event_type"], pa.string()),
            "value": pa.array(c["value"]),
            "props": pa.array(["{}"] * batch.num_rows, pa.string()),
        })
    return f


def synthesize_relational(out_dir: str, n: int) -> float:
    import ray.data as rd

    t0 = time.perf_counter()
    for name, rows, gen in (("orders", n, gen_orders_batch(n)),
                            ("lineitem", 2 * n, gen_lineitem_batch(n)),
                            ("events", n, gen_events_batch(n))):
        (rd.range(rows, override_num_blocks=64)
           .map_batches(gen, batch_format="pyarrow", zero_copy_batch=True)
           .write_parquet(f"{out_dir}/{name}.parquet"))
    C = _n_custs(n)
    ck = np.arange(C, dtype=np.uint64)
    pq.write_table(pa.table({
        "c_custkey": pa.array(ck.astype(np.int64)),
        "c_mktsegment": pa.array(
            np.array(SEGS)[(_mix(ck * np.uint64(73))
                            % np.uint64(len(SEGS))).astype(np.int64)],
            pa.string()),
        "c_acctbal": pa.array((_mix(ck * np.uint64(79)) % np.uint64(1_000_000))
                              .astype(np.int64) / 100.0),
        "c_nationkey": pa.array((_mix(ck * np.uint64(83)) % np.uint64(25))
                                .astype(np.int64)),
    }), f"{out_dir}/customer.parquet", row_group_size=65536)
    return time.perf_counter() - t0


def synthesize(out_dir: str, n_rows: int) -> float:
    """Write documents.parquet (Ray-partitioned dir) + embeddings.parquet
    (single file — some ops probe its footer via pq.ParquetFile)."""
    import ray.data as rd

    t0 = time.perf_counter()
    docs_dir = f"{out_dir}/documents.parquet"
    (rd.range(n_rows, override_num_blocks=64)
       .map_batches(gen_docs_batch, batch_format="pyarrow", zero_copy_batch=True)
       .write_parquet(docs_dir))

    ids = np.arange(n_rows, dtype=np.uint64)
    rng = np.random.Generator(np.random.PCG64(20260818))
    X = rng.standard_normal((n_rows, DIM)).astype(np.float32)
    dup_to = np.flatnonzero(ids % DUP_EVERY == 1)
    X[dup_to] = X[dup_to - 1]
    # build with int64 offsets, then cast down to the testdata tables'
    # list<float> whenever the values fit int32 offsets (the pyarrow footer
    # schema round-trips the logical type, so without the cast readers
    # would see large_list — a type the graded corpora never have); past
    # ~33.5M rows x 64 dims the corpus stays large_list by necessity
    offsets = np.arange(0, (n_rows + 1) * DIM, DIM, dtype=np.int64)
    emb = pa.LargeListArray.from_arrays(pa.array(offsets), pa.array(X.ravel()))
    if n_rows * DIM < 2 ** 31:
        emb = emb.cast(pa.list_(pa.float32()))
    tbl = pa.table({
        "vec_id": pa.array(ids.astype(np.int64), pa.int64()),
        "embedding": emb,
        "label": pa.array((_mix(ids * np.uint64(19)) % np.uint64(10)).astype(np.int32),
                          pa.int32()),
    })
    pq.write_table(tbl, f"{out_dir}/embeddings.parquet", row_group_size=65536)
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, default=1_000_000)
    ap.add_argument("--keep", action="store_true", help="keep the corpus dir")
    ap.add_argument("--ops", default="", help="comma-separated op subset")
    args = ap.parse_args()
    n = args.rows
    only = set(args.ops.split(",")) if args.ops else None

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__

    q = __ray_entry__.queries()
    out_dir = f"/tmp/soak_ops_{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    report: dict = {"metric": "LLM-ops soak (synthetic corpus, self-checked)",
                    "n_docs": n, "n_vecs": n,
                    "num_cpus": int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                    "ops": {}, "checks": {}}
    try:
        if only is None or (only - REL_SOAK_OPS - SELF_CONTAINED_OPS):
            report["gen_sec"] = round(synthesize(out_dir, n), 2)

        ids = np.arange(n, dtype=np.uint64)
        exp_tokens = int(_n_words(_base_ids(ids)).sum())
        n_dup_pairs = len(range(0, n - 1, DUP_EVERY))
        dup_pairs = {(k, k + 1) for k in range(0, n - 1, DUP_EVERY)}

        def run(name, consume):
            if only is not None and name not in only:
                return None
            t0 = time.perf_counter()
            out = consume(q[name](out_dir))
            sec = time.perf_counter() - t0
            report["ops"][name] = {"sec": round(sec, 2),
                                   "rows_per_sec": round(n / sec)}
            return out

        # --- text family: linear scans, closed-form totals -------------
        tot = run("text_token_count", lambda ds: ds.sum("n_tokens"))
        if tot is not None:
            report["checks"]["token_total_exact"] = bool(tot == exp_tokens)

        rows = run("text_quality_score", lambda ds: ds.count())
        if rows is not None:
            report["checks"]["quality_rows"] = bool(rows == n)

        # tfidf twin equality at soak scale (r4 VERDICT #1 follow-through):
        # the default plan (this corpus's 512-term vocab stays under
        # shuffle.BROADCAST_MAX_BYTES → one broadcast Arrow df table) must
        # emit the SAME rows as the no-driver-vocab term-join plan a
        # web-scale vocab takes.  Both gathered block-granular; frames
        # compared exactly.
        def _gather(ds):
            import pandas as pd
            parts = [b.to_pandas() if isinstance(b, pa.Table)
                     else pa.Table.from_batches([b]).to_pandas()
                     for b in ds.iter_batches(batch_format="pyarrow",
                                              batch_size=None)]
            return pd.concat(parts, ignore_index=True)

        tf_auto = run("text_tfidf_topk", _gather)
        if tf_auto is not None:
            from sidecar import shuffle
            from sidecar.ops import text as _text

            # the twin runs whenever the graded default ran (not gated on
            # --ops membership: it exists only to compare against tf_auto);
            # a 0-byte limit forces the partitioned plan
            limit = shuffle.BROADCAST_MAX_BYTES
            shuffle.BROADCAST_MAX_BYTES = 0
            try:
                t0 = time.perf_counter()
                tf_part = _gather(_text.tfidf_topk(out_dir))
                sec = time.perf_counter() - t0
            finally:
                shuffle.BROADCAST_MAX_BYTES = limit
            report["ops"]["text_tfidf_topk_partitioned"] = {
                "sec": round(sec, 2), "rows_per_sec": round(n / sec)}
            cols = sorted(tf_auto.columns)
            a = tf_auto[cols].sort_values(cols).reset_index(drop=True)
            b = tf_part[cols].sort_values(cols).reset_index(drop=True)
            report["checks"]["tfidf_twin_plans_equal"] = bool(
                sorted(tf_part.columns) == cols and a.equals(b))
            report["ops"]["text_tfidf_topk"]["n_rows"] = len(a)

        # --- dedup family ----------------------------------------------
        ded = run("dedup_exact", lambda ds: ds.materialize())
        if ded is not None:
            report["checks"]["exact_dedup_groups"] = bool(
                ded.count() == n - n_dup_pairs and ded.sum("n_dups") == n)

        rows = run("dedup_simhash", lambda ds: ds.count())
        if rows is not None:
            report["checks"]["simhash_rows"] = bool(rows == n)

        # end-to-end curation (quality gate → exact dedup → LSH near-dup
        # drop): the injected k+1 twin always dies at the exact-dedup stage
        # (min doc_id per fingerprint), so no dup pair survives intact
        prep = run("prep_corpus", lambda ds: ds.materialize())
        if prep is not None:
            kept = set()
            for b in prep.iter_batches(batch_format="pyarrow", batch_size=None):
                t = b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
                kept.update(t.column("doc_id").to_pylist())
            twins = {k + 1 for k in range(0, n - 1, DUP_EVERY)}
            report["checks"]["prep_no_dup_survives"] = not (twins & kept)
            # lower slack: stage 3 also drops minhash band-collision
            # near-dups, which grow QUADRATICALLY with corpus size in this
            # fixed-vocab corpus (measured 3,728 at 1M -> 68,650 - 8,000
            # injected at 4M); allow 4x the 1M-anchored quadratic model
            coll = int(3728 * (n / 1e6) ** 2 * 4) + 10_000
            report["checks"]["prep_rows_band"] = bool(
                n - n_dup_pairs - coll <= len(kept) <= n - n_dup_pairs)

        lsh = run("dedup_minhash_lsh", lambda ds: ds.to_pandas())
        if lsh is not None:
            got_pairs = set(zip(lsh["doc_a"], lsh["doc_b"]))
            report["checks"]["lsh_recall_injected"] = bool(dup_pairs <= got_pairs)
            report["ops"]["dedup_minhash_lsh"]["n_pairs"] = len(got_pairs)

        # production hash family (splitmix64 one-hash-many-permutations):
        # same banding plan, ~no md5 in the signature — the md5 row above is
        # the oracle-mandated formula; this row shows the production swap
        # keeps exact-dup recall at soak scale and what it buys in wall time
        smx = run("dedup_minhash_lsh_splitmix", lambda ds: ds.to_pandas())
        if smx is not None:
            got_smx = set(zip(smx["doc_a"], smx["doc_b"]))
            report["checks"]["lsh_splitmix_recall_injected"] = bool(
                dup_pairs <= got_smx)
            report["ops"]["dedup_minhash_lsh_splitmix"]["n_pairs"] = len(got_smx)

        # EXACT similarity join: prefix-filtered n-gram Jaccard at t=0.5.
        # Random docs from this vocab can't reach J >= 0.5, so the result
        # must be EXACTLY the injected pair set — the strongest check here.
        jac = run("dedup_ngram_jaccard", lambda ds: ds.to_pandas())
        if jac is not None:
            got_j = set(zip(jac["doc_a"], jac["doc_b"]))
            report["checks"]["jaccard_exactly_injected"] = bool(got_j == dup_pairs)
            report["ops"]["dedup_ngram_jaccard"]["n_pairs"] = len(got_j)

        # --- embeddings family -----------------------------------------
        ann = run("sim_ann_topk", lambda ds: ds.to_pandas())
        if ann is not None:
            by_q = {int(qid): set(g["vec_id"])
                    for qid, g in ann.groupby("query_id")}
            report["checks"]["ann_dup_is_neighbor"] = bool(
                1 in by_q.get(0, set()) and 0 in by_q.get(1, set()))

        rows = run("sim_kmeans", lambda ds: ds.count())
        if rows is not None:
            report["checks"]["kmeans_rows"] = bool(rows == n)

        # IVF at 64 cells / 8 probes: the probed-cell prune ships well under
        # half the corpus through the cell shuffle; an identical-twin vector
        # always lands in its query's top probe cell, so the dup stays found
        from sidecar.ops import similarity as _sim

        q = dict(q)
        q["sim_ann_ivf"] = lambda d: _sim.ann_topk_ivf(d, n_cells=64, n_probe=8)
        ivf = run("sim_ann_ivf", lambda ds: ds.to_pandas())
        if ivf is not None:
            by_qi = {int(qid): set(g["vec_id"]) for qid, g in ivf.groupby("query_id")}
            report["checks"]["ivf_dup_is_neighbor"] = bool(
                1 in by_qi.get(0, set()) and 0 in by_qi.get(1, set()))

        # same graded code path, tighter threshold: random 64-d gaussians
        # sit at ~7e-4 pair density for cos >= 0.4 (3.2 sigma), which is
        # ~3.5e8 true pairs at 1M vectors — a property of the synthetic
        # corpus, not the op.  cos >= 0.8 keeps only injected dups + noise.
        from sidecar.ops import dedup as _dedup

        # k_planes sized ABOVE log2(n): 2^24 buckets are mostly singletons,
        # so the op's candidate-filter plan bites — only true colliders
        # carry embeddings into the verification shuffle (exact-dup recall
        # stays 1.0: identical vectors share every bucket in every table)
        q = dict(q)
        q["dedup_embedding_lsh"] = lambda d: _dedup.embedding_near_dup_lsh(
            d, threshold=0.8, k_planes=24, n_tables=4)
        elsh = run("dedup_embedding_lsh", lambda ds: ds.to_pandas())
        if elsh is not None:
            got = set(zip(elsh["vec_a"], elsh["vec_b"]))
            report["checks"]["emb_lsh_recall_injected"] = bool(dup_pairs <= got)
            report["ops"]["dedup_embedding_lsh"]["n_pairs"] = len(got)

        # --- multimodal decode at soak scale ----------------------------
        # the hash-exact decode twin (real png/ppm/b16 encode → decode →
        # channel sums inside map_batches) against the same closed forms the
        # DuckDB oracle uses, here as corpus-wide totals over ALL n images
        mm = run("multimodal_image_stats_exact",
                 lambda ds: ds.materialize())
        if mm is not None:
            d = ids.astype(np.int64)
            h = 8 + d % 5
            w = 8 + (d // 5) % 5
            is_b16 = (d % 3) == 2
            want_tot = {}
            for col, base in (("sum_r", d % 200), ("sum_g", (7 * d) % 200),
                              ("sum_b", (13 * d) % 200)):
                evens = np.where(base % 2 == 0, (h + 1) // 2, h // 2)
                want_tot[col] = int((w * (h * base + (h * (h - 1)) // 2
                                          + np.where(is_b16, evens, 0))).sum())
            ok = (mm.count() == n
                  and mm.sum("w") == int(w.sum())
                  and mm.sum("h") == int(h.sum())
                  and all(mm.sum(c) == want_tot[c]
                          for c in ("sum_r", "sum_g", "sum_b")))
            report["checks"]["image_stats_totals_exact"] = bool(ok)

        # --- perceptual near-dup banding at soak scale -------------------
        # At n images, EVERY 8-bit chunk bucket holds ~n/256 rows, so the
        # pre-split verify kernel was O(n^2/256) total popcounts (~1.6e10 at
        # 1M) — the hot-bucket sub-chunk split (multimodal._bucket_pairs)
        # is what makes chunk-mode banding feasible here at all.  The
        # manifest is synthetic (id, phash) — splitmix hashes with (a) a
        # deliberately hot byte-0 bucket over 5% of the corpus and (b) a
        # twin every PHASH_TWIN_EVERY ids whose hash flips <= 7 deterministic
        # bits; pigeonhole banding must recover every twin pair exactly.
        PHASH_TWIN_EVERY = 500

        def _soak_phash(ids_u64: np.ndarray) -> np.ndarray:
            base = np.where(ids_u64 % PHASH_TWIN_EVERY == 1,
                            ids_u64 - 1, ids_u64)
            h = _mix(base * np.uint64(101))
            hot = (base % np.uint64(20)) == 0
            h = np.where(hot, (h & ~np.uint64(0xFF)) | np.uint64(0x42), h)
            m = _mix(base + np.uint64(0xABCD))
            flip = np.zeros_like(h)
            for j in range(7):       # <= 7 set bits (collisions only shrink)
                flip |= np.uint64(1) << ((m >> np.uint64(6 * j))
                                         & np.uint64(63))
            return np.where(ids_u64 % PHASH_TWIN_EVERY == 1, h ^ flip, h)

        def _phash_soak_query(_dir: str):
            import ray.data as _rd

            from sidecar.ops import multimodal as _mm

            def stats(batch: pa.Table) -> pa.Table:
                i = batch.column("id").to_numpy().astype(np.uint64)
                return pa.table({
                    "image_id": pa.array([f"img-{v:09d}" for v in i]),
                    "phash": pa.array(_soak_phash(i).view(np.int64)),
                })

            manifest = _rd.range(n, override_num_blocks=64).map_batches(
                stats, batch_format="pyarrow", zero_copy_batch=True)
            return _mm.phash_neardup(None, stats_ds=manifest)

        q["multimodal_phash_neardup_hot"] = _phash_soak_query
        ph = run("multimodal_phash_neardup_hot", lambda ds: ds.to_pandas())
        if ph is not None:
            got = set(zip(ph["id_a"], ph["id_b"]))
            want = {(f"img-{k:09d}", f"img-{k + 1:09d}")
                    for k in range(0, n - 1, PHASH_TWIN_EVERY)}
            report["checks"]["phash_twin_recall_exact"] = bool(want <= got)
            report["ops"]["multimodal_phash_neardup_hot"]["n_pairs"] = len(got)

        # --- relational family (r4 VERDICT round-5 item) -----------------
        # orders/lineitem/events/customer synthesized at soak scale; every
        # check compares the distributed plan against a one-pass vectorized
        # numpy ground truth over the full id range (driver-side, exact).
        if only is None or (only & REL_SOAK_OPS):
            report["gen_rel_sec"] = round(synthesize_relational(out_dir, n), 2)
            import pandas as pd

            lid = np.arange(2 * n, dtype=np.uint64)
            li = _lineitem_cols(lid, n)
            oid = np.arange(n, dtype=np.uint64)
            od = _orders_cols(oid, n)
            evc = _events_cols(np.arange(n, dtype=np.uint64), n)

            def frames_equal(got: pd.DataFrame, want: pd.DataFrame) -> bool:
                cols = sorted(want.columns)
                if sorted(got.columns) != cols or len(got) != len(want):
                    return False
                a = got[cols].sort_values(cols).reset_index(drop=True)
                b = want[cols].sort_values(cols).reset_index(drop=True)
                return all(a[c].to_numpy().tolist() == b[c].to_numpy().tolist()
                           for c in cols)

            ps = run("rel_pricing_summary", lambda ds: ds.to_pandas())
            if ps is not None:
                df = pd.DataFrame({"f": li["l_returnflag"],
                                   "s": li["l_linestatus"],
                                   "q": li["l_quantity"],
                                   "b": li["l_extendedprice"],
                                   "d": li["l_extendedprice"]
                                        * (1 - li["l_discount"])})
                w = df.groupby(["f", "s"], as_index=False).agg(
                    sum_qty_cents=("q", "sum"), count_order=("q", "size"),
                    sum_base=("b", "sum"), sum_disc=("d", "sum"))
                g = ps.set_index(["l_returnflag", "l_linestatus"])
                # key-SET equality first: a wrong group key must record
                # check=false, not abort the soak with a KeyError
                ok = set(g.index) == set(zip(w["f"], w["s"]))
                if ok:
                    for _, r in w.iterrows():
                        row = g.loc[(r["f"], r["s"])]
                        ok = ok and row["count_order"] == r["count_order"] \
                            and row["sum_qty_cents"] == int(round(r["sum_qty_cents"] * 100)) \
                            and abs(row["sum_base_price_cents"] - round(r["sum_base"] * 100)) <= 2 \
                            and abs(row["sum_disc_price_cents"] - round(r["sum_disc"] * 100)) <= 2
                report["checks"]["pricing_groups_exact"] = bool(ok)

            top = run("rel_top_revenue_orders", lambda df: df)
            if top is not None:
                rev = li["l_extendedprice"] * (1 - li["l_discount"])
                per_order = rev[:n] + rev[n:]          # 2 items per order
                cents = np.round(per_order * 100).astype(np.int64)
                # fixed k=20 (the op's default), NOT len(top): a short or
                # empty distributed result must fail, not truncate the want
                w = pd.DataFrame({"o_orderkey": np.arange(n, dtype=np.int64),
                                  "revenue_cents": cents}) \
                    .sort_values(["revenue_cents", "o_orderkey"],
                                 ascending=[False, True]).head(20) \
                    .reset_index(drop=True)
                C = _n_custs(n)
                seg = np.array(SEGS)[(_mix(np.arange(C, dtype=np.uint64)
                                           * np.uint64(73))
                                      % np.uint64(len(SEGS))).astype(np.int64)]
                w["c_mktsegment"] = seg[od["o_custkey"][w["o_orderkey"]]]
                report["checks"]["top_revenue_exact"] = frames_equal(
                    top.reset_index(drop=True), w)

            jn = run("rel_orders_lineitem_join", lambda ds: ds.materialize())
            if jn is not None:
                prio_counts = jn.groupby("o_orderpriority").count().to_pandas()
                wp = pd.Series(od["o_orderpriority"]).value_counts() * 2
                ok = (jn.count() == 2 * n
                      and jn.sum("l_quantity_cents")
                      == int(li["l_quantity"].sum()) * 100
                      and len(prio_counts) == len(wp)
                      and all(int(r["count()"]) == int(wp[r["o_orderpriority"]])
                              for _, r in prio_counts.iterrows()))
                report["checks"]["join_counts_exact"] = bool(ok)

            ew = run("rel_events_windowed", lambda ds: ds.to_pandas())
            if ew is not None:
                win = (evc["ts_us"] // 3_600_000_000) * 3600
                df = pd.DataFrame({"event_type": evc["event_type"],
                                   "win": win, "v": evc["value"]})
                w = df.groupby(["event_type", "win"], as_index=False).agg(
                    n_events=("v", "size"), sum_v=("v", "sum"))
                w["sum_value_cents"] = np.round(w.pop("sum_v") * 100).astype(np.int64)
                report["checks"]["windowed_exact"] = frames_equal(ew, w)

            ss = run("rel_sessionize", lambda ds: ds.to_pandas())
            if ss is not None:
                u, ts, eid = evc["user_id"], evc["ts_us"], evc["event_id"]
                order = np.lexsort((eid, ts, u))
                su, st = u[order], ts[order]
                new = np.ones(n, dtype=bool)
                new[1:] = (su[1:] != su[:-1]) | ((st[1:] - st[:-1])
                                                 > 1800 * 1_000_000)
                starts = np.flatnonzero(new)
                ends = np.r_[starts[1:], n] - 1
                w = pd.DataFrame({"user_id": su[starts],
                                  "session_start_us": st[starts],
                                  "n_events": (np.r_[starts[1:], n]
                                               - starts).astype(np.int64),
                                  "duration_us": st[ends] - st[starts]})
                report["checks"]["sessionize_exact"] = frames_equal(ss, w)
                report["ops"]["rel_sessionize"]["n_sessions"] = len(ss)

            ao = run("rel_asof_last_order", lambda ds: ds.to_pandas())
            if ao is not None:
                key = np.concatenate([evc["user_id"], od["o_custkey"]])
                t = np.concatenate([evc["ts_us"], od["o_orderdate_us"]])
                io = np.concatenate([np.zeros(n, np.int64),
                                     np.ones(n, np.int64)])
                # ao_ids, not ids: main()'s `ids` is the uint64 id range that
                # earlier closed-form checks read — don't shadow it here
                ao_ids = np.concatenate([evc["event_id"], od["o_orderkey"]])
                order = np.lexsort((ao_ids, -io, t, key))
                k2, io2, di2 = key[order], io[order], ao_ids[order]
                pos = np.where(io2 == 1, np.arange(2 * n), -1)
                last = np.maximum.accumulate(pos)
                evm = io2 == 0
                lidx = last[evm]
                okm = lidx >= 0
                okm[okm] = k2[lidx[okm]] == k2[evm][okm]
                w = pd.DataFrame({"event_id": di2[evm][okm],
                                  "user_id": k2[evm][okm],
                                  "last_orderkey": di2[lidx[okm]]})
                report["checks"]["asof_exact"] = frames_equal(ao, w)
                report["ops"]["rel_asof_last_order"]["n_matched"] = len(ao)
    finally:
        if not args.keep:
            shutil.rmtree(out_dir, ignore_errors=True)
        ray.shutdown()

    report["all_checks_pass"] = all(report["checks"].values())
    print(json.dumps(report))
    return 0 if report["all_checks_pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
