"""Tests for the training-data operator families (dedup / similarity /
relational / multimodal) against single-process numpy/pandas oracles on the
driver's sf0.001 tables."""

from __future__ import annotations

import hashlib
import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _docs() -> list[tuple[int, str]]:
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    return list(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))


def _shingles(text: str, k: int = 3) -> set[str]:
    w = (text or "").split(" ")
    return {" ".join(w[i:i + k]) for i in range(len(w) - k + 1)}


class TestDedup:
    def test_exact_dedup_keeps_min_doc_id(self):
        from sidecar.ops.dedup import exact_dedup

        got = exact_dedup(SF).to_pandas().set_index("fp")
        by_fp: dict[str, list[int]] = {}
        for doc_id, text in _docs():
            by_fp.setdefault(hashlib.md5((text or "").encode()).hexdigest(), []).append(doc_id)
        assert len(got) == len(by_fp)
        for fp, ids in by_fp.items():
            assert got.loc[fp, "keep_doc_id"] == min(ids)
            assert got.loc[fp, "n_dups"] == len(ids)

    def test_minhash_lsh_pairs_match_oracle(self):
        from sidecar.ops.dedup import NUM_BANDS, ROWS_PER_BAND, _minhash_sig, minhash_lsh_pairs

        got = {(a, b) for a, b in
               minhash_lsh_pairs(SF).to_pandas()[["doc_a", "doc_b"]].itertuples(index=False)}
        buckets: dict[tuple[int, str], list[int]] = {}
        for doc_id, text in _docs():
            sig = _minhash_sig(sorted(_shingles(text)))
            if sig is None:
                continue
            for b in range(NUM_BANDS):
                key = hashlib.md5(
                    "|".join(sig[b * ROWS_PER_BAND:(b + 1) * ROWS_PER_BAND]).encode()
                ).hexdigest()
                buckets.setdefault((b, key), []).append(doc_id)
        want = set()
        for ids in buckets.values():
            ids = sorted(ids)
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    want.add((ids[i], ids[j]))
        assert got == want
        assert got, "LSH should find candidate pairs in this corpus"

    def test_minhash_family_splitmix(self):
        """The pluggable splitmix64 family (MINHASH_FAMILIES): deterministic,
        jaccard-consistent at the extremes, and its LSH banding recalls every
        EXACT-duplicate pair (identical text ⇒ identical signature ⇒ all
        bands collide), like the md5 default."""
        from sidecar.ops.dedup import _minhash_sig, minhash_lsh_pairs

        sh_a = sorted({f"tok{i} tok{i+1} tok{i+2}" for i in range(20)})
        sh_b = sorted({f"alt{i} alt{i+1} alt{i+2}" for i in range(20)})
        sig_a = _minhash_sig(sh_a, "splitmix64")
        assert sig_a == _minhash_sig(list(sh_a), "splitmix64")  # deterministic
        assert all(len(h) == 16 and int(h, 16) >= 0 for h in sig_a)
        assert _minhash_sig([], "splitmix64") is None
        # identical sets agree on every perm; disjoint sets on ~none
        agree = sum(x == y for x, y in zip(sig_a, _minhash_sig(sh_b, "splitmix64")))
        assert agree <= 2
        assert _minhash_sig(sh_a, "splitmix64") == sig_a

        got = {(a, b) for a, b in
               minhash_lsh_pairs(SF, family="splitmix64").to_pandas()
               [["doc_a", "doc_b"]].itertuples(index=False)}
        by_text: dict[str, list[int]] = {}
        for doc_id, text in _docs():
            if len((text or "").split(" ")) >= 3:
                by_text.setdefault(text, []).append(doc_id)
        must = {(ids[i], ids[j]) for ids in map(sorted, by_text.values())
                for i in range(len(ids)) for j in range(i + 1, len(ids))}
        assert must <= got
        # md5 is unchanged as the oracle default
        assert len(_minhash_sig(sh_a)) == len(sig_a)
        assert all(len(h) == 32 for h in _minhash_sig(sh_a))

    def test_simhash_hamming_close_for_near_dups(self):
        from sidecar.ops.dedup import minhash_lsh_pairs, simhash

        sh = simhash(SF).to_pandas().set_index("doc_id")["simhash"]
        pairs = minhash_lsh_pairs(SF).to_pandas()
        assert (sh.str.len() == 64).all()
        # near-dup pairs must be much closer in hamming space than random ones
        def ham(a, b):
            return sum(x != y for x, y in zip(sh[a], sh[b]))

        near = np.mean([ham(a, b) for a, b in pairs.itertuples(index=False)])
        rng = np.random.Generator(np.random.PCG64(0))
        ids = sh.index.to_numpy()
        rand = np.mean([ham(*rng.choice(ids, 2, replace=False)) for _ in range(50)])
        assert near < rand / 2

    def test_ngram_jaccard_exact(self):
        from sidecar.ops.dedup import ngram_jaccard_pairs

        got = ngram_jaccard_pairs(SF, threshold=0.5).to_pandas()
        docs = dict(_docs())
        for row in got.itertuples(index=False):
            a, b = _shingles(docs[row.doc_a]), _shingles(docs[row.doc_b])
            expect = len(a & b) / len(a | b)
            assert row.jaccard == pytest.approx(expect, abs=0)
            assert row.jaccard >= 0.5

    def test_embedding_near_dup_matches_bruteforce(self):
        from sidecar.ops.dedup import embedding_near_dup

        got = {(a, b) for a, b in
               embedding_near_dup(SF, threshold=0.4).to_pandas().itertuples(index=False)}
        t = pq.read_table(f"{SF}/embeddings.parquet")
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        E = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
        N = E / np.linalg.norm(E, axis=1, keepdims=True)
        S = N @ N.T
        r, c = np.nonzero(S >= 0.4)
        want = {(int(ids[i]), int(ids[j])) for i, j in zip(r, c) if ids[i] < ids[j]}
        assert got == want and got

    def test_embedding_near_dup_broadcast_twin_equal(self, monkeypatch,
                                                     spy):
        """The ray.put matmul fast path and the block-pair partitioned plan
        (no broadcast, no driver state) emit the same exact pair set — at
        more than one block count — and each plan is picked by the
        footer-size rule.  Twin equality is only meaningful if no pair
        sits AT the threshold (BLAS matmul summation order differs between
        the two plans' matrix shapes by ~1 ulp), so first assert the corpus
        keeps a real margin around the boundary."""
        from sidecar import shuffle
        from sidecar.ops import dedup
        from sidecar.ops.dedup import embedding_near_dup

        t = pq.read_table(f"{SF}/embeddings.parquet")
        E = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
        N = E / np.linalg.norm(E, axis=1, keepdims=True)
        S = (N @ N.T)[np.triu_indices(len(N), k=1)]
        margin = np.abs(S - 0.4).min()
        assert margin > 1e-9, f"threshold-boundary pair (margin={margin})"

        def pairs(**kw):
            return {(a, b) for a, b in embedding_near_dup(
                SF, threshold=0.4, **kw).to_pandas().itertuples(index=False)}

        built = spy(dedup, "_normalized_embeddings")  # broadcast plan only
        base = pairs()  # tiny table → broadcast plan
        assert len(built) == 1
        # a 0-byte limit must take the partitioned plan
        monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES", 0)
        assert pairs() == base
        assert pairs(num_blocks=3) == base
        assert len(built) == 1
        assert base

    def test_embedding_lsh_recall(self):
        from sidecar.ops.dedup import embedding_near_dup, embedding_near_dup_lsh

        exact = {(a, b) for a, b in
                 embedding_near_dup(SF, threshold=0.4).to_pandas().itertuples(index=False)}
        approx = {(a, b) for a, b in
                  embedding_near_dup_lsh(SF, threshold=0.4).to_pandas().itertuples(index=False)}
        assert approx <= exact           # no false positives (exact verify in-bucket)
        assert len(approx) / len(exact) >= 0.3  # multi-table recall

    def test_embedding_lsh_plan_twins_equal(self, monkeypatch):
        """The default broadcast-verify plan (candidate id pairs vs a
        ray.put matrix) and the over-gate full-ship plan (embeddings ride
        the bucket shuffle, in-bucket verification) emit the same pair set
        — forcing the fallback via a 0-byte limit."""
        from sidecar import shuffle
        from sidecar.ops import dedup

        def pairs():
            ds = dedup.embedding_near_dup_lsh(SF, threshold=0.4)
            got = {(a, b) for a, b in ds.to_pandas().itertuples(index=False)}
            return got, "bucketize_all" in ds.stats()  # full-ship plan ran

        base, full_ship = pairs()  # tiny corpus → broadcast-verify plan
        assert not full_ship
        monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES", 0)
        assert pairs() == (base, True)
        assert base


class TestEmbMatrix:
    """_emb_matrix is the one list→matrix conversion every embedding kernel
    routes through; its fast path (flatten + reshape on the values buffer)
    must agree with the object path on every input shape."""

    def _ref(self, arr):
        E = np.array(arr.to_pylist(), dtype=np.float64)
        return None if E.ndim != 2 else E

    def test_rectangular_chunked_and_sliced(self):
        import pyarrow as pa

        from sidecar.ops.similarity import _emb_matrix

        vals = [[float(i), float(i) / 2, -float(i)] for i in range(10)]
        arr = pa.array(vals, pa.list_(pa.float32()))
        chunked = pa.chunked_array([arr[:4], arr[4:]])
        sliced = arr.slice(3, 5)  # non-zero offset: flatten must honor it
        for col in (arr, chunked, sliced):
            got = _emb_matrix(col)
            want = self._ref(col.combine_chunks()
                             if isinstance(col, pa.ChunkedArray) else col)
            assert np.array_equal(got, want)

    def test_ragged_null_and_empty_fall_back(self):
        import pyarrow as pa

        from sidecar.ops.similarity import _emb_matrix

        assert _emb_matrix(pa.array([], pa.list_(pa.float32()))) is None
        ragged = pa.array([[1.0, 2.0], [3.0]], pa.list_(pa.float32()))
        with pytest.raises(ValueError):  # same contract as np.array(pylist)
            _emb_matrix(ragged)
        withnull = pa.array([[1.0, 2.0], None, [3.0, 4.0]],
                            pa.list_(pa.float32()))
        with pytest.raises(ValueError):  # null row: same error as before
            _emb_matrix(withnull)
        allnull = pa.array([None, None], pa.list_(pa.float32()))
        with pytest.raises(ValueError):  # all-null converts to 1-D nan in
            _emb_matrix(allnull)         # numpy — must raise, not escape
        # ELEMENT-level nulls hide below the top-level null_count: they must
        # raise too, never ride the fast path as silent NaNs (review r5 —
        # a NaN corrupts kmeans' fixed-point partials as INT64_MIN)
        elemnull = pa.array([[1.0, None], [3.0, 4.0]], pa.list_(pa.float32()))
        assert elemnull.null_count == 0  # the trap: top-level count is clean
        with pytest.raises(ValueError):
            _emb_matrix(elemnull)

    def test_kmeans_requires_k_vectors(self, tmp_path):
        """k > corpus size raises a contract error up front in BOTH the
        distributed kmeans and its single-thread oracle (review r5: the
        length-k count vectors would otherwise shape-mismatch mid-iter)."""
        import pyarrow.parquet as pq

        from sidecar.ops.similarity import kmeans, kmeans_oracle

        t = pa.table({
            "vec_id": pa.array([0, 1, 2], pa.int64()),
            "embedding": pa.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                  pa.list_(pa.float64())),
        })
        pq.write_table(t, tmp_path / "embeddings.parquet")
        with pytest.raises(ValueError, match="at least k=8"):
            kmeans(str(tmp_path), k=8)
        with pytest.raises(ValueError, match="at least k=8"):
            kmeans_oracle(str(tmp_path), k=8)
        # n == k still works end-to-end
        got = kmeans(str(tmp_path), k=3, iters=2).to_pandas()
        want = kmeans_oracle(str(tmp_path), k=3, iters=2)
        assert dict(zip(got["vec_id"], got["cluster"])) == want


class TestSimilarity:
    def _brute_topk(self, k=10, qids=(0, 1, 2, 3)):
        t = pq.read_table(f"{SF}/embeddings.parquet")
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        E = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
        N = E / np.linalg.norm(E, axis=1, keepdims=True)
        out = {}
        for q in qids:
            s = N @ N[list(ids).index(q)]
            order = sorted(zip(-s, ids), key=lambda x: (x[0], x[1]))
            out[q] = [int(v) for d, v in order if v != q][:k]
        return out

    def test_ann_topk_exact(self):
        from sidecar.ops.similarity import ann_topk

        df = ann_topk(SF).to_pandas()
        want = self._brute_topk()
        for q, vs in want.items():
            got = set(df[df.query_id == q]["vec_id"])
            assert got == set(vs)

    def test_ann_ivf_has_recall(self):
        from sidecar.ops.similarity import ann_topk_ivf

        df = ann_topk_ivf(SF).to_pandas()
        want = self._brute_topk()
        recalls = []
        for q, vs in want.items():
            got = set(df[df.query_id == q]["vec_id"])
            assert len(got) <= 10
            recalls.append(len(got & set(vs)) / 10)
        assert np.mean(recalls) >= 0.3  # n_probe=4/16 cells → partial recall

    def test_ann_ivf_full_probe_is_exact(self):
        """n_probe == n_cells probes everything, so IVF must EQUAL the
        brute-force top-k — this pins the probed-cell prune in assign()
        (an over-eager prune would drop true neighbors here)."""
        from sidecar.ops.similarity import ann_topk_ivf

        df = ann_topk_ivf(SF, n_cells=16, n_probe=16).to_pandas()
        want = self._brute_topk()
        for q, vs in want.items():
            assert set(df[df.query_id == q]["vec_id"]) == set(vs)


class TestRelational:
    def test_pricing_summary_matches_pandas(self):
        from sidecar.ops.relational import pricing_summary

        got = pricing_summary(SF).to_pandas().set_index(["l_returnflag", "l_linestatus"])
        df = pq.read_table(f"{SF}/lineitem.parquet").to_pandas()
        df["disc"] = df.l_extendedprice * (1 - df.l_discount)
        want = df.groupby(["l_returnflag", "l_linestatus"]).agg(
            qty=("l_quantity", "sum"), cnt=("l_quantity", "size"), disc=("disc", "sum"))
        assert len(got) == len(want)
        for key, row in want.iterrows():
            assert got.loc[key, "sum_qty_cents"] == round(row.qty * 100)
            assert got.loc[key, "count_order"] == row.cnt
            assert abs(got.loc[key, "sum_disc_price_cents"] - round(row.disc * 100)) <= 1

    def test_top_revenue_orders(self):
        from sidecar.ops.relational import top_revenue_orders

        got = top_revenue_orders(SF, k=5)  # pandas DataFrame (small top-k result)
        df = pq.read_table(f"{SF}/lineitem.parquet").to_pandas()
        df["rev"] = df.l_extendedprice * (1 - df.l_discount)
        want = df.groupby("l_orderkey")["rev"].sum().nlargest(5)
        assert list(got["o_orderkey"]) == list(want.index)
        assert got["c_mktsegment"].notna().all()

    def test_events_windowed_totals(self):
        from sidecar.ops.relational import events_windowed

        got = events_windowed(SF).to_pandas()
        df = pq.read_table(f"{SF}/events.parquet").to_pandas()
        assert got["n_events"].sum() == len(df)
        # every window key is hour-aligned epoch seconds
        assert (got["win"] % 3600 == 0).all()


class TestMultimodal:
    def test_image_decode_stats_roundtrip(self, images_table):
        import ray.data as rd

        from sidecar import codecs
        from sidecar.ops.multimodal import image_decode_stats

        import pyarrow.compute as pc

        img_only = images_table.filter(
            pc.is_in(images_table.column("fmt"),
                     value_set=__import__("pyarrow").array(["png", "ppm", "b16"])))
        ds = rd.from_arrow(img_only)
        got = image_decode_stats(ds, concurrency=2).to_pandas().set_index("image_id")
        src = img_only.to_pylist()
        assert len(got) == len(src)
        for row in src[:20]:
            r = got.loc[row["image_id"]]
            assert (r["w"], r["h"]) == (row["w"], row["h"])
            px = codecs.decode(row["bytes"], row["fmt"])
            s = px.reshape(-1, 3).sum(axis=0)
            assert (r["sum_r"], r["sum_g"], r["sum_b"]) == tuple(int(x) for x in s)
            assert r["phash"] == row["phash"]

    def test_image_resize_recomposes(self, images_table):
        import ray.data as rd

        from sidecar import codecs
        from sidecar.ops.multimodal import image_resize

        import pyarrow as pa
        import pyarrow.compute as pc

        img_only = images_table.filter(
            pc.is_in(images_table.column("fmt"),
                     value_set=pa.array(["png", "ppm", "b16"]))).slice(0, 32)
        ds = rd.from_arrow(img_only)
        out = image_resize(ds, out_w=16, out_h=16, concurrency=2).to_pandas()
        assert (out["w"] == 16).all() and (out["h"] == 16).all()
        px = codecs.decode(out.iloc[0]["bytes"], out.iloc[0]["fmt"])
        assert px.shape == (16, 16, 3)


class TestNewRelational:
    def test_group_topk_orders(self):
        import pandas as pd

        from sidecar.ops.relational import group_topk_orders

        got = group_topk_orders(SF, k=3).to_pandas() \
            .sort_values(["o_custkey", "rank"]).reset_index(drop=True)
        df = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_custkey", "o_orderkey", "o_totalprice"]).to_pandas()
        df["o_totalprice_cents"] = np.round(df["o_totalprice"] * 100).astype(np.int64)
        df = df.sort_values(["o_custkey", "o_totalprice_cents", "o_orderkey"],
                            ascending=[True, False, True])
        df["rank"] = df.groupby("o_custkey").cumcount() + 1
        want = df[df["rank"] <= 3][
            ["o_custkey", "o_orderkey", "o_totalprice_cents", "rank"]
        ].reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.astype("int64"), want.astype("int64"))

    def test_nation_quantiles(self):
        from sidecar.ops.relational import nation_acctbal_quantiles

        got = nation_acctbal_quantiles(SF).to_pandas().set_index("c_nationkey")
        df = pq.read_table(f"{SF}/customer.parquet",
                           columns=["c_nationkey", "c_acctbal"]).to_pandas()
        df["cents"] = np.round(df["c_acctbal"] * 100).astype(np.int64)
        for nk, sub in df.groupby("c_nationkey"):
            s = np.sort(sub["cents"].to_numpy())
            n = len(s)
            r = got.loc[nk]
            assert r["n_customers"] == n
            assert r["median_bal_cents"] == s[min(n - 1, int(np.ceil(0.5 * n)) - 1)]
            assert r["p90_bal_cents"] == s[min(n - 1, int(np.ceil(0.9 * n)) - 1)]

    def test_semi_join_orders(self):
        from sidecar.ops.relational import semi_join_big_orders

        got = semi_join_big_orders(SF, min_qty=47.0).to_pandas()
        li = pq.read_table(f"{SF}/lineitem.parquet",
                           columns=["l_orderkey", "l_quantity"]).to_pandas()
        keys = set(li[li["l_quantity"] >= 47.0]["l_orderkey"])
        orders = pq.read_table(f"{SF}/orders.parquet",
                               columns=["o_orderkey"]).to_pandas()
        want = set(orders[orders["o_orderkey"].isin(keys)]["o_orderkey"])
        assert set(got["o_orderkey"]) == want and len(got) == len(want)


class TestNewText:
    def test_tfidf_topk(self):
        from collections import Counter

        from sidecar.ops.text import tfidf_topk

        got = tfidf_topk(SF, k=5).to_pandas()
        docs = _docs()
        df_counts: Counter = Counter()
        for _, text in docs:
            df_counts.update(set((text or "").split(" ")))
        by_doc = {d: g for d, g in got.groupby("doc_id")}
        for doc_id, text in docs[:50]:
            cnt = Counter((text or "").split(" "))
            want = sorted(((-(tf / df_counts[t]), t, tf) for t, tf in cnt.items()))[:5]
            g = by_doc[doc_id].sort_values("rank")
            assert list(g["term"]) == [t for _, t, _ in want]
            assert list(g["tf"]) == [tf for _, _, tf in want]
            assert list(g["df"]) == [df_counts[t] for _, t, _ in want]

    def test_tfidf_topk_partitioned_twin_equal(self, monkeypatch, spy):
        """The hash-partitioned-join vocab-scale path (limit forced to 0; the
        driver never holds the vocab) emits the identical rows as the
        broadcast plan."""
        from sidecar import shuffle
        from sidecar.ops import text as text_mod
        from sidecar.ops.text import tfidf_topk

        cols = ["doc_id", "rank", "term", "tf", "df"]
        calls = spy(text_mod, "_tfidf_topk_partitioned")
        base = tfidf_topk(SF, k=5).to_pandas()[cols] \
            .sort_values(["doc_id", "rank"]).reset_index(drop=True)
        assert not calls
        monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES", 0)
        part = tfidf_topk(SF, k=5).to_pandas()[cols] \
            .sort_values(["doc_id", "rank"]).reset_index(drop=True)
        assert len(calls) == 1
        assert part.equals(base)
        assert len(base) > 0

    def test_tfidf_topk_partitioned_null_text(self, tmp_path, monkeypatch,
                                              spy):
        """NULL text ranks as "" in both plans: a NULL-text document keeps
        its one row, the "" term, in the exchange plan's output as in the
        broadcast plan's."""
        import pyarrow.parquet as pq

        from sidecar import shuffle
        from sidecar.ops import text as text_mod
        from sidecar.ops.text import tfidf_topk

        src = pq.read_table(f"{SF}/documents.parquet",
                            columns=["doc_id", "text"])
        txt = src.column("text").combine_chunks().to_pylist()
        txt = [None if i % 7 == 0 else v for i, v in enumerate(txt)]
        pq.write_table(
            src.set_column(src.schema.get_field_index("text"), "text",
                           pa.array(txt, pa.string())),
            str(tmp_path / "documents.parquet"))
        cols = ["doc_id", "rank", "term", "tf", "df"]
        base = tfidf_topk(str(tmp_path), k=5) \
            .to_pandas()[cols].sort_values(["doc_id", "rank"]) \
            .reset_index(drop=True)
        calls = spy(text_mod, "_tfidf_topk_partitioned")
        monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES", 0)
        part = tfidf_topk(str(tmp_path), k=5) \
            .to_pandas()[cols].sort_values(["doc_id", "rank"]) \
            .reset_index(drop=True)
        assert len(calls) == 1
        assert part.equals(base)
        # the NULL-text docs are present in BOTH (their lone "" term ranks)
        assert set(base["doc_id"]) == set(src.column("doc_id").to_pylist())

    def test_tfidf_df_lookup_rejects_a_missing_term(self):
        """A document term absent from the df table is an error, never a
        silent df from another term."""
        from sidecar.ops.text import _with_df

        dft = pa.table({"term": ["a", "b"], "df": pa.array([3, 1], pa.int64())})
        rows = pa.table({"doc_id": [1, 1], "term": ["b", "a"], "tf": [2, 1]})
        assert _with_df(rows, dft).column("df").to_pylist() == [1, 3]
        with pytest.raises(ValueError, match="missing from the df table"):
            _with_df(pa.table({"doc_id": [1], "term": ["c"], "tf": [1]}), dft)

    @pytest.mark.parametrize("limit", [None, -1])
    def test_tfidf_topk_zero_documents(self, tmp_path, monkeypatch, limit):
        """A zero-row documents table ranks nothing whatever the broadcast
        limit, and the empty result still has the output's columns."""
        from sidecar import shuffle
        from sidecar.ops.text import tfidf_topk

        empty = pq.read_table(f"{SF}/documents.parquet").slice(0, 0)
        pq.write_table(empty, str(tmp_path / "documents.parquet"))
        if limit is not None:
            monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES", limit)
        got = tfidf_topk(str(tmp_path), k=5)
        assert got.count() == 0
        assert got.schema().names == ["doc_id", "term", "tf", "df", "rank"]

    def test_bigram_topk(self):
        from collections import Counter

        from sidecar.ops.text import bigram_topk

        got = bigram_topk(SF, k=50)
        c: Counter = Counter()
        for _, text in _docs():
            w = (text or "").split(" ")
            c.update(f"{w[i]} {w[i+1]}" for i in range(len(w) - 1))
        want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
        assert list(zip(got["s"], got["n"])) == want


class TestDedupComponents:
    def test_lsh_components_match_bfs(self):
        from collections import defaultdict

        from sidecar.ops.dedup import lsh_components, minhash_lsh_pairs

        pairs = minhash_lsh_pairs(SF).to_pandas()
        adj = defaultdict(set)
        for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
            adj[a].add(b)
            adj[b].add(a)
        want = {}
        for start in sorted(adj):
            if start in want:
                continue
            comp, stack = [], [start]
            seen = {start}
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in adj[x] - seen:
                    seen.add(y)
                    stack.append(y)
            m = min(comp)
            for x in comp:
                want[x] = m
        got = lsh_components(SF).to_pandas()
        assert dict(zip(got["doc_id"], got["component_id"])) == want

    def test_lsh_components_distributed_equals_driver(self, monkeypatch):
        """One contraction round (``star_edges``) plus union-find over its
        star rows gives the same table as union-find over the whole edge
        list: on the real LSH pair graph (no more star rows than edges), a
        12-node chain, a 4,096-node path cut into 16 blocks, string ids
        (the phash_components shape) and empty edge lists of both id
        types."""
        import pyarrow as pa

        import ray.data as rd

        from sidecar.ops import dedup

        real, stars = dedup.star_edges, []

        def spy_stars(*args):
            stars.append(real(*args))
            return stars[-1]

        monkeypatch.setattr(dedup, "star_edges", spy_stars)

        pairs = dedup.minhash_lsh_pairs(SF).materialize()
        want = dedup.union_find_components(
            pairs.iter_batches(batch_format="pyarrow", batch_size=None),
            "doc_a", "doc_b", "doc_id", "component_id", pa.int64())
        got = dedup.lsh_components(SF)
        assert len(stars) == 1
        assert got.equals(want) and got.num_rows > 0
        assert 0 < stars[0].count() <= pairs.count()

        def check(edges: pa.Table, dtype, block_rows: int = 0) -> pa.Table:
            ds = rd.from_arrow([edges.slice(i, block_rows) for i in range(
                0, edges.num_rows, block_rows)] if block_rows else edges)
            got = dedup.connected_components(ds, "a", "b", "id", "comp", dtype)
            assert got.equals(dedup.union_find_components(
                [edges], "a", "b", "id", "comp", dtype))
            return got

        def path(n: int) -> pa.Table:
            return pa.table({"a": pa.array(range(n - 1), pa.int64()),
                             "b": pa.array(range(1, n), pa.int64())})

        got = check(path(12), pa.int64())
        assert got["comp"].to_pylist() == [0] * 12

        stars.clear()
        got = check(path(4096), pa.int64(), block_rows=256)  # 16 blocks
        assert got["comp"].to_pylist() == [0] * 4096
        assert stars[0].count() <= 4095

        got = check(pa.table({"a": pa.array(["a", "b", "x"], pa.string()),
                              "b": pa.array(["b", "c", "y"], pa.string())}),
                    pa.string())
        assert dict(zip(got["id"].to_pylist(), got["comp"].to_pylist())) == {
            "a": "a", "b": "a", "c": "a", "x": "x", "y": "x"}

        for dtype in (pa.int64(), pa.string()):
            got = check(pa.table({"a": pa.array([], dtype),
                                  "b": pa.array([], dtype)}), dtype)
            assert got.num_rows == 0 and got.schema.field("id").type == dtype


class TestPhashNearDup:
    def test_banded_equals_bruteforce(self, images_table):
        import pyarrow as pa
        import pyarrow.compute as pc

        import ray.data as rd

        from sidecar.ops.multimodal import lossy_reencode, phash_neardup
        from sidecar import codecs
        from sidecar.detect.phash import phash64

        img_only = images_table.filter(
            pc.is_in(images_table.column("fmt"),
                     value_set=pa.array(["png", "ppm", "b16"]))).slice(0, 80)
        base = rd.from_arrow(img_only)
        both = base.union(lossy_reencode(base, concurrency=2))
        got = phash_neardup(both, max_dist=7, concurrency=2).to_pandas()
        got_pairs = set(zip(got["id_a"], got["id_b"]))

        # brute-force oracle over decoded phashes of base + re-encodes
        items = []
        for row in img_only.to_pylist():
            px = codecs.decode(row["bytes"], row["fmt"])
            items.append((row["image_id"], phash64(px)))
            px2 = codecs.decode(codecs.encode(px, "b16"), "b16")
            items.append((row["image_id"] + "~b16", phash64(px2)))
        want = set()
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                (ia, pa_), (ib, pb) = items[i], items[j]
                if bin(pa_ ^ pb).count("1") <= 7:
                    want.add((min(ia, ib), max(ia, ib)))
        assert got_pairs == want
        assert len(want) > 0  # the re-encode pairs make this non-trivial
        # every emitted dist is within threshold
        assert (got["dist"] <= 7).all()

    def test_chunk_pair_banding_equals_bruteforce(self, images_table):
        """The web-scale C(8,2) 16-bit chunk-pair bands: pigeonhole-exact at
        max_dist <= 6, same pairs as brute force (b16 re-encodes flip <= 7
        bits, so the <= 6 subset is still non-trivial)."""
        import pyarrow as pa
        import pyarrow.compute as pc

        import ray.data as rd

        from sidecar.ops.multimodal import lossy_reencode, phash_neardup
        from sidecar import codecs
        from sidecar.detect.phash import phash64

        img_only = images_table.filter(
            pc.is_in(images_table.column("fmt"),
                     value_set=pa.array(["png", "ppm", "b16"]))).slice(0, 80)
        base = rd.from_arrow(img_only)
        both = base.union(lossy_reencode(base, concurrency=2))
        got = phash_neardup(both, max_dist=6, band_mode="chunk_pair",
                            concurrency=2).to_pandas()
        got_pairs = set(zip(got["id_a"], got["id_b"]))

        items = []
        for row in img_only.to_pylist():
            px = codecs.decode(row["bytes"], row["fmt"])
            items.append((row["image_id"], phash64(px)))
            px2 = codecs.decode(codecs.encode(px, "b16"), "b16")
            items.append((row["image_id"] + "~b16", phash64(px2)))
        want = set()
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                (ia, pa_), (ib, pb) = items[i], items[j]
                if bin(pa_ ^ pb).count("1") <= 6:
                    want.add((min(ia, ib), max(ia, ib)))
        assert got_pairs == want
        assert len(want) > 0
        assert (got["dist"] <= 6).all()

    def test_partition_without_pairs_is_typed(self):
        """A partition whose buckets hold no pair within ``max_dist`` gives
        string, string, int64 columns: an untyped empty column has no size
        Ray can compute, and Ray logged an error per block."""
        import pyarrow as pa

        from sidecar.ops.multimodal import _phash_pairs

        far = pa.table({"band": [0, 0, 1], "chunk": [3, 3, 9],
                        "image_id": ["a", "b", "c"],
                        "phash": [0, -1, 5]})  # 0 and ~0: 64 bits apart
        got = _phash_pairs(far, max_dist=7, band_mode="chunk")
        assert got.num_rows == 0
        assert got.schema == pa.schema([("id_a", pa.string()),
                                        ("id_b", pa.string()),
                                        ("dist", pa.int64())])

    def test_chunk_pair_rejects_loose_threshold(self):
        from sidecar.ops.multimodal import phash_neardup

        with pytest.raises(ValueError):
            phash_neardup(None, max_dist=7, band_mode="chunk_pair")

    @pytest.mark.parametrize("band_mode,band,max_dist",
                             [("chunk", 0, 7), ("chunk", 5, 7),
                              ("chunk_pair", 11, 6),
                              # byte-7 bands: the dropped byte is the TOP
                              # byte, where drop_byte's general formula would
                              # shift by 64 (C-level UB) — pins the b == 7
                              # special case
                              ("chunk", 7, 7), ("chunk_pair", 27, 6)])
    def test_hot_bucket_split_equals_bruteforce(self, band_mode, band, max_dist):
        """_bucket_pairs' exact hot-bucket split (unique-collapse + 8-way
        sub-chunk re-banding of the non-band bits): on a bucket above
        _SPLIT_THRESH with identical-hash clusters and injected near pairs,
        the (i, j, dist) set equals the O(n^2) brute force and i < j holds."""
        from sidecar.ops.multimodal import (_CHUNK_PAIRS, _SPLIT_THRESH,
                                            _bucket_pairs, _popcount64)

        rng = np.random.default_rng(13)
        n = max(1400, _SPLIT_THRESH + 100)
        base = rng.integers(0, 2 ** 63, n, dtype=np.int64).view(np.uint64)
        if band_mode == "chunk":
            keep = ~np.uint64(0xFF << (8 * band))
            inject = np.uint64(0xAB) << np.uint64(8 * band)
        else:
            b1, b2 = _CHUNK_PAIRS[band]
            keep = ~(np.uint64(0xFF << (8 * b1)) | np.uint64(0xFF << (8 * b2)))
            inject = ((np.uint64(0xAB) << np.uint64(8 * b1))
                      | (np.uint64(0xCD) << np.uint64(8 * b2)))
        ph = (base & keep) | inject           # all rows share the band bytes
        for i in range(0, 60, 4):             # identical-hash clusters of 4
            ph[i:i + 4] = ph[i]
        for i in range(100, 160, 2):          # in-bucket near pairs
            v = ph[i]
            for f in rng.integers(0, 64, rng.integers(1, max_dist + 1)):
                v = v ^ np.uint64(1 << int(f))
            ph[i + 1] = (v & keep) | inject
        r, c, d = _bucket_pairs(ph, band, max_dist, band_mode)
        got = set(zip(r.tolist(), c.tolist(), d.tolist()))
        rr, cc = np.triu_indices(n, k=1)
        dd = _popcount64(ph[rr] ^ ph[cc])
        k = dd <= max_dist
        want = set(zip(rr[k].tolist(), cc[k].tolist(), dd[k].tolist()))
        assert got == want and len(want) > 100
        assert (r < c).all()

    def test_strip_band_bytes_stays_within_width(self):
        """Every band's remainder fits its declared bit width — in
        particular for byte-7 bands, where an unguarded 64-bit shift would
        smear byte 0 into the high remainder bits."""
        from sidecar.ops.multimodal import _CHUNK_PAIRS, _strip_band_bytes

        rng = np.random.default_rng(7)
        u = rng.integers(0, 2 ** 63, 500, dtype=np.int64).view(np.uint64)
        u |= np.uint64(1 << 63)  # force the top byte nonzero
        for band in range(8):
            rem, width = _strip_band_bytes(u, band, "chunk")
            assert width == 56 and not (rem >> np.uint64(width)).any()
        for band in range(len(_CHUNK_PAIRS)):
            rem, width = _strip_band_bytes(u, band, "chunk_pair")
            assert width == 48 and not (rem >> np.uint64(width)).any()
        # byte-7 semantics exactly: remainder == low 56 bits
        rem7, _ = _strip_band_bytes(u, 7, "chunk")
        assert np.array_equal(rem7, u & np.uint64((1 << 56) - 1))

    def test_fused_b16_stats_equals_literal_plan(self, images_table):
        """image_decode_stats_with_b16 (one decode per image, quantization
        identity instead of the encode+decode round trip) is row-equal to
        the literal image_decode_stats(base ∪ lossy_reencode(base))."""
        import pyarrow as pa
        import pyarrow.compute as pc

        import ray.data as rd

        from sidecar.ops.multimodal import (
            image_decode_stats, image_decode_stats_with_b16, lossy_reencode)

        img_only = images_table.filter(
            pc.is_in(images_table.column("fmt"),
                     value_set=pa.array(["png", "ppm", "b16"]))).slice(0, 60)
        base = rd.from_arrow(img_only)
        fused = image_decode_stats_with_b16(base).to_pandas() \
            .sort_values("image_id").reset_index(drop=True)
        literal = image_decode_stats(
            base.union(lossy_reencode(base))).to_pandas() \
            .sort_values("image_id").reset_index(drop=True)
        assert fused.equals(literal)
        assert len(fused) == 2 * img_only.num_rows


class TestKmeans:
    def test_kmeans_matches_fixed_point_oracle(self):
        from sidecar.ops.similarity import kmeans, kmeans_oracle

        got = kmeans(SF, k=8, iters=5).to_pandas()
        want = kmeans_oracle(SF, k=8, iters=5)
        assert dict(zip(got["vec_id"], got["cluster"])) == want
        assert got["cluster"].nunique() > 1  # non-degenerate clustering

    def test_kmeans_deterministic_across_runs(self):
        from sidecar.ops.similarity import kmeans

        a = kmeans(SF, k=8, iters=3).to_pandas().sort_values("vec_id")
        b = kmeans(SF, k=8, iters=3).to_pandas().sort_values("vec_id")
        assert (a["cluster"].to_numpy() == b["cluster"].to_numpy()).all()


class TestRollupAndMask:
    def test_pricing_rollup_levels_consistent(self):
        from sidecar.ops.relational import pricing_rollup

        out = pricing_rollup(SF)
        fine = out[(out["l_returnflag"] != "ALL") & (out["l_linestatus"] != "ALL")]
        lvl1 = out[(out["l_returnflag"] != "ALL") & (out["l_linestatus"] == "ALL")]
        total = out[(out["l_returnflag"] == "ALL")]
        assert len(total) == 1
        assert total["n_rows"].iloc[0] == fine["n_rows"].sum() == lvl1["n_rows"].sum()
        assert total["sum_qty_cents"].iloc[0] == fine["sum_qty_cents"].sum()
        li = pq.read_table(f"{SF}/lineitem.parquet", columns=["l_quantity"])
        assert total["n_rows"].iloc[0] == li.num_rows

    def test_mask_terms_scrubs_and_counts(self):
        import re

        from sidecar.ops.text import mask_terms

        got = mask_terms(SF).to_pandas().set_index("doc_id")
        pat = re.compile(r"\b(customer|value)\b")
        hits = 0
        for doc_id, text in _docs()[:100]:
            t = text or ""
            r = got.loc[doc_id]
            assert r["scrubbed"] == pat.sub("[MASK]", t)
            assert r["n_masked"] == len(pat.findall(t))
            hits += r["n_masked"]
        assert hits > 0  # the deny-list actually fires on this corpus


class TestShuffleJoin:
    def test_orders_lineitem_join_matches_pandas(self):
        import pandas as pd

        from sidecar.ops.relational import orders_lineitem_join

        got = orders_lineitem_join(SF).to_pandas() \
            .sort_values(["l_orderkey", "l_linenumber"]).reset_index(drop=True)
        li = pq.read_table(f"{SF}/lineitem.parquet",
                           columns=["l_orderkey", "l_linenumber", "l_quantity"]).to_pandas()
        od = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_orderkey", "o_orderpriority"]).to_pandas()
        want = li.merge(od, left_on="l_orderkey", right_on="o_orderkey")
        want = pd.DataFrame({
            "l_orderkey": want["l_orderkey"],
            "l_linenumber": want["l_linenumber"].astype("int64"),
            "l_quantity_cents": np.round(want["l_quantity"] * 100).astype("int64"),
            "o_orderpriority": want["o_orderpriority"],
        }).sort_values(["l_orderkey", "l_linenumber"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)


def _sf_with_empty(tmp_path, table: str) -> str:
    """A copy of the sf0.001 tables in which ``table`` has no rows."""
    for src in pathlib.Path(SF).glob("*.parquet"):
        t = pq.read_table(src)
        pq.write_table(t.slice(0, 0) if src.stem == table else t,
                       tmp_path / src.name)
    return str(tmp_path)


class TestJoinsOverAnEmptyTable:
    """A table with no rows reaches a join body with no columns at all (Ray
    keeps none on the zero-row blocks of an empty read or map), so every
    two-input body checks its sides' rows before reading their columns."""

    def test_empty_orders(self, tmp_path):
        from sidecar.ops import relational as r

        sf = _sf_with_empty(tmp_path, "orders")
        assert r.orders_lineitem_join(sf).count() == 0
        assert r.semi_join_big_orders(sf).count() == 0
        assert r.asof_last_order(sf).count() == 0
        got = r.customers_order_counts_left(sf).to_pandas()
        cust = pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey"])
        assert sorted(got["c_custkey"]) == sorted(cust.column("c_custkey").to_pylist())
        assert (got["n_orders"] == 0).all()

    def test_empty_lineitem(self, tmp_path):
        from sidecar.ops import relational as r

        sf = _sf_with_empty(tmp_path, "lineitem")
        assert r.semi_join_big_orders(sf).count() == 0
        assert r.orders_lineitem_join(sf).count() == 0

    def test_empty_join_side_leaves_blocks_ray_can_size(self, tmp_path, caplog):
        """A partition whose orders side is empty emits a typed zero-row
        block: Ray logs "Error calculating size" on an empty object-dtype
        column."""
        import ray
        from ray.data._internal import pandas_block
        from ray.data.block import BlockAccessor

        from sidecar.ops import relational as r

        out = r.orders_lineitem_join(_sf_with_empty(tmp_path, "orders"))
        # Ray's loggers do not propagate to the root logger caplog listens on
        pandas_block.logger.addHandler(caplog.handler)
        try:
            for bundle in out.iter_internal_ref_bundles():  # size every block
                for ref in bundle.block_refs:
                    BlockAccessor.for_block(ray.get(ref)).size_bytes()
        finally:
            pandas_block.logger.removeHandler(caplog.handler)
        assert not [rec for rec in caplog.records
                    if "Error calculating size" in rec.getMessage()]
        assert out.count() == 0

    @pytest.mark.parametrize("table, other, col", [
        ("customer", "supplier", "s_nationkey"),
        ("supplier", "customer", "c_nationkey")])
    def test_empty_side_of_customer_supplier_joins(self, tmp_path, table,
                                                   other, col):
        from sidecar.ops import relational as r

        sf = _sf_with_empty(tmp_path, table)
        want = pq.read_table(f"{SF}/{other}.parquet", columns=[col]).column(col)
        assert set(r.union_nations(sf).to_pandas()["nationkey"]) == set(want.to_pylist())
        assert r.range_join_acctbal(sf).count() == 0

    def test_empty_events(self, tmp_path):
        from sidecar.ops.relational import asof_last_order

        assert asof_last_order(_sf_with_empty(tmp_path, "events")).count() == 0


class TestDistinctCount:
    def test_exact_distinct_count(self):
        from sidecar.ops.relational import distinct_count_custkey

        got = distinct_count_custkey(SF).column("n_distinct").to_pylist()[0]
        orders = pq.read_table(f"{SF}/orders.parquet", columns=["o_custkey"])
        want = len(set(orders.column("o_custkey").to_pylist()))
        assert got == want

    def test_hll_within_error_bound_and_deterministic(self):
        from sidecar.ops.relational import approx_distinct_custkey

        orders = pq.read_table(f"{SF}/orders.parquet", columns=["o_custkey"])
        exact = len(set(orders.column("o_custkey").to_pylist()))
        a = approx_distinct_custkey(SF).column("n_approx").to_pylist()[0]
        b = approx_distinct_custkey(SF).column("n_approx").to_pylist()[0]
        assert a == b  # register merge is order-independent
        assert abs(a - exact) / exact < 0.15  # ~2 sigma of 1.04/sqrt(256)


class TestLeftJoin:
    def test_left_join_keeps_orderless_customers(self):
        from sidecar.ops.relational import customers_order_counts_left

        got = customers_order_counts_left(SF).to_pandas()
        cust = pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey"])
        orders = pq.read_table(f"{SF}/orders.parquet", columns=["o_custkey"]).to_pandas()
        vc = orders["o_custkey"].value_counts()
        assert len(got) == cust.num_rows  # every customer survives
        m = dict(zip(got["c_custkey"], got["n_orders"]))
        for k in cust.column("c_custkey").to_pylist():
            assert m[k] == int(vc.get(k, 0))

    def test_left_join_zero_count_rows_survive(self, tmp_path):
        """The left-outer rows themselves: a customer with NO orders gets a
        zero-count row (an inner join would drop it)."""
        import pyarrow as pa
        import shutil

        from sidecar.ops.relational import customers_order_counts_left

        cust = pq.read_table(f"{SF}/customer.parquet")
        extra = pa.Table.from_pylist(
            [{c.name: (999999 if c.name == "c_custkey" else None)
              for c in cust.schema}], schema=cust.schema)
        pq.write_table(pa.concat_tables([cust, extra]),
                       str(tmp_path / "customer.parquet"))
        shutil.copy(f"{SF}/orders.parquet", tmp_path / "orders.parquet")
        got = customers_order_counts_left(str(tmp_path)).to_pandas()
        assert len(got) == cust.num_rows + 1
        assert got.set_index("c_custkey").loc[999999, "n_orders"] == 0


class TestRepetitionRatio:
    def test_matches_python_oracle(self):
        from sidecar.ops.text import repetition_ratio

        got = repetition_ratio(SF).to_pandas().set_index("doc_id")
        for doc_id, text in _docs()[:80]:
            w = (text or "").split(" ")
            n = max(0, len(w) - 2)
            grams = {" ".join(w[i:i + 3]) for i in range(n)}
            r = got.loc[doc_id]
            assert r["n_grams"] == n
            assert r["n_distinct"] == len(grams)
            if n:
                assert r["rep_ratio"] == 1.0 - len(grams) / n
        assert (got["rep_ratio"].dropna() > 0).any()  # repeats exist in corpus


class TestGlobalRank:
    def test_global_rank_sample(self):
        from sidecar.ops.relational import global_rank_sample

        got = global_rank_sample(SF, every=100).to_pandas() \
            .sort_values("rn").reset_index(drop=True)
        df = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_orderkey", "o_orderdate"]).to_pandas()
        df["t_us"] = df["o_orderdate"].values.astype("datetime64[us]").astype("int64")
        df = df.sort_values(["t_us", "o_orderkey"]).reset_index(drop=True)
        df["rn"] = np.arange(1, len(df) + 1)
        want = df[df["rn"] % 100 == 0][["o_orderkey", "rn"]].reset_index(drop=True)
        assert list(got["o_orderkey"]) == list(want["o_orderkey"])
        assert list(got["rn"]) == list(want["rn"])


class TestPrepCorpus:
    def test_prep_pipeline_stages_fire(self):
        import hashlib as _h

        from sidecar.ops.dedup import minhash_lsh_pairs
        from sidecar.ops.prep import prep_corpus

        got = prep_corpus(SF, min_chars=50).to_pandas()
        docs = _docs()
        # stage-by-stage single-threaded oracle
        gated = [(d, t or "") for d, t in docs if len(t or "") >= 50]
        by_fp: dict[str, int] = {}
        for d, t in gated:
            fp = _h.md5(t.encode()).hexdigest()
            by_fp[fp] = min(by_fp.get(fp, d), d)
        kept = {d for d, t in gated if d in set(by_fp.values())}
        pairs = minhash_lsh_pairs(SF).to_pandas()
        drop = {b for a, b in zip(pairs["doc_a"], pairs["doc_b"])
                if a in kept and b in kept}
        want_ids = kept - drop
        assert set(got["doc_id"]) == want_ids
        assert len(got) < len(docs)          # something was removed
        for d, t in gated:
            if d in want_ids:
                assert got.set_index("doc_id").loc[d, "n_tokens"] == len(t.split(" "))

    def test_exact_copy_of_survivor_drops_its_near_dups(self, tmp_path):
        """LSH bands every gated doc: the exact copy ``d`` of ``r`` pairs
        with ``y``, and so does ``r`` itself, so only ``r`` survives."""
        from sidecar.ops.dedup import bucketize_batch
        from sidecar.ops.prep import prep_corpus

        r_text = " ".join(f"w{i}" for i in range(200))
        docs = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                         "text": [r_text, r_text, r_text + " extra"]})
        pq.write_table(docs, tmp_path / "documents.parquet")
        bands = bucketize_batch(docs).to_pandas()
        shared = bands.groupby(["band", "bucket"])["doc_id"].nunique()
        assert (shared == 3).any()  # r, d and y meet in one LSH bucket
        got = prep_corpus(str(tmp_path), min_chars=50).to_pandas()
        assert got.to_dict("list") == {"doc_id": [1], "n_tokens": [200]}

    def test_no_text_enters_an_exchange(self, spy):
        from sidecar.ops import prep

        calls = spy(prep, "copartition")
        prep.prep_corpus(SF, min_chars=50).materialize()
        _assert_no_payload_column(calls)


def _assert_no_payload_column(calls):
    assert calls
    for args in calls:
        inputs = args[0] if isinstance(args[0], list) else [args[0]]
        for ds in inputs:
            schema = ds.schema()  # None for an input with no rows
            names = schema.names if schema else []
            assert not {"text", "bytes"} & set(names), names


class TestPrepImages:
    def test_image_prep_stages_fire(self, images_table):
        import pyarrow as pa
        import pyarrow.compute as pc

        import ray.data as rd

        from sidecar import codecs
        from sidecar.ops.prep import prep_images

        img_only = images_table.filter(
            pc.is_in(images_table.column("fmt"),
                     value_set=pa.array(["png", "ppm", "b16"]))).slice(0, 40)
        rows = img_only.to_pylist()
        extra = []
        for r in rows[:10]:          # exact duplicates under new ids
            d = dict(r)
            d["image_id"] = r["image_id"] + "~copy"
            extra.append(d)
        for r in rows[10:20]:        # lossy re-encodes (perceptual near-dups)
            px = codecs.decode(r["bytes"], r["fmt"])
            d = dict(r)
            d["image_id"] = r["image_id"] + "~b16"
            d["bytes"] = codecs.encode(px, "b16")
            d["fmt"] = "b16"
            extra.append(d)
        full = pa.Table.from_pylist(rows + extra, schema=img_only.schema)
        got = prep_images(rd.from_arrow(full)).to_pandas()
        ids = set(got["image_id"])
        # exact copies: the min id (original, no suffix) survives
        for r in rows[:10]:
            assert r["image_id"] in ids and r["image_id"] + "~copy" not in ids
        # near-dups: of (original, ~b16) with hamming <= 7 the larger id drops
        from sidecar.detect.phash import phash64
        for r in rows[10:20]:
            px = codecs.decode(r["bytes"], r["fmt"])
            ph0 = phash64(px)
            ph1 = phash64(codecs.decode(codecs.encode(px, "b16"), "b16"))
            if bin(ph0 ^ ph1).count("1") <= 7:
                assert r["image_id"] + "~b16" not in ids
                assert r["image_id"] in ids
        assert len(got) < full.num_rows

    def test_no_bytes_enter_an_exchange(self, images_table, spy):
        import ray.data as rd

        from sidecar.ops import prep

        calls = spy(prep, "copartition")
        prep.prep_images(rd.from_arrow(images_table.slice(0, 60))).materialize()
        _assert_no_payload_column(calls)


class TestQuantize:
    def test_int8_quantization_preserves_neighbors(self):
        from sidecar.ops.similarity import quantize_int8

        got = quantize_int8(SF).to_pandas()
        t = pq.read_table(f"{SF}/embeddings.parquet")
        E = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        got = got.set_index("vec_id").loc[ids]
        Q = np.array(got["q"].tolist(), dtype=np.float64)
        S = got["scale_x1e9"].to_numpy() / 1e9
        R = Q * S[:, None]
        # reconstruction error small relative to vector norm
        err = np.linalg.norm(R - E, axis=1) / np.maximum(np.linalg.norm(E, axis=1), 1e-9)
        assert (err < 0.02).all()
        # top-10 cosine neighbors of query 0 mostly preserved under int8
        def topk(M, k=10):
            N = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
            s = N @ N[0]
            return set(ids[np.argsort(-s)[1:k + 1]])
        assert len(topk(E) & topk(R)) >= 8


class TestJaccardPrefixFilter:
    def test_prefix_filter_complete_vs_bruteforce(self):
        """Completeness of the prefix-filtered similarity join: every pair
        with true jaccard >= t is found (the prefix-length theorem)."""
        from sidecar.ops.dedup import ngram_jaccard_pairs

        got = {(a, b): j for a, b, j in
               ngram_jaccard_pairs(SF, threshold=0.5).to_pandas()
               .itertuples(index=False)}
        docs = _docs()
        want = {}
        for i in range(len(docs)):
            for j in range(i + 1, len(docs)):
                (da, ta), (db, tb) = docs[i], docs[j]
                A, B = _shingles(ta), _shingles(tb)
                if not A or not B:
                    continue
                inter = len(A & B)
                jac = inter / (len(A) + len(B) - inter)
                if jac >= 0.5:
                    want[(min(da, db), max(da, db))] = jac
        assert got == want and want


class TestSmallQty:
    def test_q17_shape_matches_pandas(self):
        from sidecar.ops.relational import small_qty_lineitems

        got = small_qty_lineitems(SF).to_pandas()
        li = pq.read_table(f"{SF}/lineitem.parquet",
                           columns=["l_orderkey", "l_linenumber", "l_partkey",
                                    "l_quantity"]).to_pandas()
        g = li.groupby("l_partkey")["l_quantity"].agg(["count", "sum"])
        n = g["count"].reindex(li["l_partkey"]).to_numpy()
        s = g["sum"].reindex(li["l_partkey"]).to_numpy()
        keep = li["l_quantity"].to_numpy() * 5.0 * n < s
        want = li[keep]
        assert len(got) == keep.sum() and len(got) > 0
        assert (set(zip(got["l_orderkey"], got["l_linenumber"]))
                == set(zip(want["l_orderkey"], want["l_linenumber"].astype("int64"))))

    def test_empty_lineitem_returns_empty(self, tmp_path):
        """An empty lineitem table must produce an empty result, not crash
        on np.concatenate([]) (review r5: same guard as
        customers_order_counts_left)."""
        from sidecar.ops.relational import small_qty_lineitems

        src = pq.read_table(f"{SF}/lineitem.parquet")
        pq.write_table(src.slice(0, 0), tmp_path / "lineitem.parquet")
        assert small_qty_lineitems(str(tmp_path)).count() == 0


class TestMinhashEstimates:
    def test_estimates_track_true_jaccard(self):
        from sidecar.ops.dedup import NUM_PERMS, minhash_jaccard_estimates

        got = minhash_jaccard_estimates(SF).to_pandas()
        docs = dict(_docs())
        assert len(got) > 0
        for row in got.itertuples(index=False):
            A, B = _shingles(docs[row.doc_a]), _shingles(docs[row.doc_b])
            true_j = len(A & B) / len(A | B)
            est = row.n_agree / NUM_PERMS
            assert 0 <= row.n_agree <= NUM_PERMS
            # 8 permutations: estimate within a generous band of truth
            assert abs(est - true_j) <= 0.5


class TestNgramJaccardScaleSafety:
    def test_verify_broadcast_bounded_by_candidates(self, monkeypatch, tmp_path):
        """The verification stage must not broadcast corpus-sized state: on a
        corpus where only a few docs can collide, the only driver-held array
        is the candidate doc_id list (a handful of ids, NOT the corpus), and
        no dict of shingle sets is ever put (VERDICT r1 #2)."""
        import pyarrow.parquet as pq_

        import ray as ray_mod

        import sidecar.ops.dedup as dd

        # 100 docs with per-doc-disjoint vocabularies (zero cross-doc
        # shingles) except two constructed near-dup pairs
        texts = [" ".join(f"w{i}x{j}" for j in range(30)) for i in range(100)]
        texts[11] = texts[10]                             # exact dup pair
        texts[21] = texts[20].replace("w20x29", "zzz")    # near dup pair
        import pyarrow as pa_

        pq_.write_table(
            pa_.table({"doc_id": pa_.array(range(100), pa_.int64()),
                       "text": pa_.array(texts, pa_.string())}),
            str(tmp_path / "documents.parquet"))

        puts = []
        real_put = ray_mod.put

        def spy(obj, **kw):
            puts.append(obj)
            return real_put(obj, **kw)

        monkeypatch.setattr(dd.ray, "put", spy)
        got = dd.ngram_jaccard_pairs(str(tmp_path), threshold=0.5).to_pandas()
        assert {(a, b) for a, b, _ in got.itertuples(index=False)} == \
            {(10, 11), (20, 21)}

        arrays = [o for o in puts if isinstance(o, np.ndarray)]
        assert arrays, "candidate id array should be broadcast"
        for obj in arrays:
            assert len(obj) <= 8, "candidate ids only — not the corpus"
        for obj in puts:
            if isinstance(obj, dict) and obj:
                # only the df table (str->int) may be dict-broadcast; no
                # dict may carry set/frozenset/list values (shingle sets)
                assert not any(isinstance(v, (set, frozenset, list))
                               for v in list(obj.values())[:5])

    def test_minhash_estimates_broadcast_bounded(self, monkeypatch):
        """minhash_jaccard_estimates only collects signatures for docs that
        appear in a candidate pair."""
        import ray as ray_mod

        import sidecar.ops.dedup as dd

        puts = []
        real_put = ray_mod.put

        def spy(obj, **kw):
            puts.append(obj)
            return real_put(obj, **kw)

        monkeypatch.setattr(dd.ray, "put", spy)
        got = dd.minhash_jaccard_estimates(SF).to_pandas()
        cand = len(set(got["doc_a"]) | set(got["doc_b"]))
        sig_dicts = [o for o in puts if isinstance(o, dict)
                     and o and isinstance(next(iter(o.values())), list)]
        assert sig_dicts, "signature dict should be broadcast"
        for o in sig_dicts:
            assert len(o) == cand  # candidate docs only, not the corpus


class TestDecontamPassage:
    def test_decontam_excludes_holdout_and_matches_reference(self):
        from sidecar.ops.dedup import DECONTAM_MOD, DECONTAM_N, _word_ngrams, decontaminate

        got = decontaminate(SF).to_pandas().set_index("doc_id")["n_shared"]
        assert (got.index % DECONTAM_MOD != 0).all()  # holdout never scored

        t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        ids, texts = t["doc_id"].to_pylist(), t["text"].to_pylist()
        test_grams: set = set()
        for d, s in zip(ids, texts):
            if d % DECONTAM_MOD == 0:
                test_grams |= _word_ngrams(s, DECONTAM_N)
        want = {d: len(_word_ngrams(s, DECONTAM_N) & test_grams)
                for d, s in zip(ids, texts) if d % DECONTAM_MOD != 0}
        want = {d: n for d, n in want.items() if n}
        assert got.to_dict() == want
        assert want, "fixture must contain at least one contaminated doc"

    def test_passage_dedup_reconstruction_invariants(self):
        from sidecar.ops.dedup import PASSAGE_W, passage_dedup

        got = passage_dedup(SF).to_pandas()
        t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        orig = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))

        # every distinct passage appears exactly once across the output
        seen: dict = {}
        for _, row in got.iterrows():
            assert 1 <= row["n_kept"] <= row["n_chunks"]
            for p in self._chunks(row["text_deduped"]):
                assert p not in seen, f"passage duplicated across docs: {p!r}"
                seen[p] = row["doc_id"]

        # a doc with zero dropped passages reconstructs to its original text
        full = got[got["n_kept"] == got["n_chunks"]]
        assert len(full) > 0
        for _, row in full.iterrows():
            assert row["text_deduped"] == orig[row["doc_id"]]
        # and at least one doc lost a passage in the fixture
        assert (got["n_kept"] < got["n_chunks"]).any() or len(got) < len(orig)

    @staticmethod
    def _chunks(text: str):
        from sidecar.ops.dedup import PASSAGE_W

        w = text.split(" ")
        return (" ".join(w[i:i + PASSAGE_W])
                for i in range(0, len(w), PASSAGE_W))


class TestSourceBalance:
    def test_quota_and_determinism(self):
        from sidecar.ops.prep import source_balance

        a = source_balance(SF, quota=7).to_pandas()
        assert (a.groupby("source").size() <= 7).all()
        b = source_balance(SF, quota=7).to_pandas()
        key = ["source", "doc_id"]
        assert a.sort_values(key).reset_index(drop=True).equals(
            b.sort_values(key).reset_index(drop=True))
        # sources with >= 7 docs are capped exactly at 7
        t = pq.read_table(f"{SF}/documents.parquet", columns=["source"])
        full = t.to_pandas()["source"].value_counts()
        got = a.groupby("source").size()
        for src, n in full.items():
            assert got.get(src, 0) == min(n, 7)


class TestPhashComponents:
    def test_components_match_bruteforce_union_find(self, images_table, spy):
        import pyarrow as pa
        import pyarrow.compute as pc

        import ray.data as rd

        from sidecar.ops import dedup
        from sidecar.ops.multimodal import lossy_reencode, phash_components, phash_neardup

        img_only = images_table.filter(
            pc.is_in(images_table.column("fmt"),
                     value_set=pa.array(["png", "ppm", "b16"]))).slice(0, 80)
        base = rd.from_arrow(img_only)
        both = base.union(lossy_reencode(base, concurrency=2))
        calls = spy(dedup, "star_edges")
        got = phash_components(both, concurrency=2).to_pandas()
        comp = dict(zip(got["image_id"], got["component_id"]))

        # brute-force union-find over the (already pigeonhole-exact) pairs
        pairs = phash_neardup(
            base.union(lossy_reencode(base, concurrency=2)),
            concurrency=2).to_pandas()
        parent: dict = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(pairs["id_a"], pairs["id_b"]):
            parent.setdefault(a, a), parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                hi, lo = max(ra, rb), min(ra, rb)
                parent[hi] = lo
        want = {i: find(i) for i in parent}
        assert comp == want
        # construction guarantee: every base/~b16 re-encode pair is joined
        for i, c in comp.items():
            if i.endswith("~b16"):
                assert comp.get(i[:-4], c) == c
        assert len(comp) > 0
        assert len(calls) == 1  # the components came from one contraction


class TestRound2Additions:
    def test_ann_int8_rerank_matches_bruteforce(self):
        from sidecar.ops.similarity import ann_topk, ann_topk_int8

        a = ann_topk(SF).to_pandas()
        b = ann_topk_int8(SF).to_pandas()
        for q in set(a.query_id):
            want = set(a[a.query_id == q]["vec_id"])
            got = set(b[b.query_id == q]["vec_id"])
            # int8 scan + exact rerank recovers the exact top-k on the
            # fixture corpus (overscan=4 absorbs the quantization error)
            assert got == want

    def test_prep_pairs_matches_reference(self, images_table):
        import pyarrow as pa

        import ray.data as rd

        from sidecar.ops.prep import (
            PAIR_MAX_ASPECT,
            PAIR_MAX_TOKENS,
            PAIR_MIN_SIDE,
            PAIR_MIN_TOKENS,
            prep_pairs,
        )

        rows = images_table.to_pylist()
        # constructed duplicates: same phash/caption, larger image_id —
        # the dedup stage must drop every one of them
        dups = [dict(r, image_id=r["image_id"] + "-dup")
                for r in rows if r["fmt"] in ("png", "ppm", "b16")][:5]
        full = pa.Table.from_pylist(rows + dups, schema=images_table.schema)

        got = prep_pairs(rd.from_arrow(full)).to_pandas()

        keep: dict[int, dict] = {}
        for r in rows + dups:
            if r["fmt"] not in ("png", "ppm", "b16"):
                continue
            mn, mx = min(r["w"], r["h"]), max(r["w"], r["h"])
            if mn < PAIR_MIN_SIDE or mx > PAIR_MAX_ASPECT * mn:
                continue
            ntok = len(r["caption"].split()) if r["caption"] else 0
            if not (PAIR_MIN_TOKENS <= ntok <= PAIR_MAX_TOKENS):
                continue
            cur = keep.get(r["phash"])
            if cur is None or r["image_id"] < cur["image_id"]:
                keep[r["phash"]] = r

        assert len(got) == len(keep)
        assert set(got["image_id"]) == {r["image_id"] for r in keep.values()}
        ref_tok = {r["image_id"]: (len(r["caption"].split()) if r["caption"] else 0)
                   for r in keep.values()}
        for _, row in got.iterrows():
            assert row["n_caption_tokens"] == ref_tok[row["image_id"]]


class TestRelationalRound2:
    def test_stratified_sample_matches_pandas(self):
        from sidecar.ops.relational import STRATA_PERMILLE, stratified_sample

        got = stratified_sample(SF).to_pandas()
        df = pq.read_table(f"{SF}/orders.parquet").to_pandas()
        h = (df.o_orderkey.to_numpy() * 2654435761) % (1 << 32)
        quota = df.o_orderpriority.map(STRATA_PERMILLE).to_numpy()
        want = df[(h % 1000) < quota]
        assert set(got["o_orderkey"]) == set(want["o_orderkey"])
        # every stratum's keep-rate is within sampling noise of its quota
        for s, q in STRATA_PERMILLE.items():
            n_s = (df.o_orderpriority == s).sum()
            k_s = (got.o_orderpriority == s).sum()
            assert abs(k_s / n_s - q / 1000) < 0.1

    def test_mode_segment_matches_pandas(self):
        from sidecar.ops.relational import mode_segment

        got = mode_segment(SF).to_pandas().set_index("c_nationkey")
        df = pq.read_table(f"{SF}/customer.parquet").to_pandas()
        cnt = df.groupby(["c_nationkey", "c_mktsegment"]).size()
        for nk, sub in cnt.groupby(level=0):
            sub = sub.droplevel(0).sort_index()
            top = sub.sort_values(ascending=False, kind="stable")
            best_n = top.iloc[0]
            best_seg = min(s for s, n in sub.items() if n == best_n)
            assert got.loc[nk, "top_segment"] == best_seg
            assert got.loc[nk, "n_customers"] == best_n

    def test_pivot_events_matches_pandas(self):
        from sidecar.ops.relational import EVENT_TYPES, pivot_events

        got = pivot_events(SF).to_pandas().set_index("day_us").sort_index()
        df = pq.read_table(f"{SF}/events.parquet").to_pandas()
        us = df.ts.astype("int64")
        day = (us // 86_400_000_000) * 86_400_000_000
        want = df.assign(day_us=day).groupby("day_us").event_type.value_counts()
        assert int(got[[f"n_{t}" for t in EVENT_TYPES]].sum().sum()) == len(df)
        for (d, t), n in want.items():
            assert got.loc[d, f"n_{t}"] == n


class TestTokenBudget:
    def test_token_budget_matches_pandas(self):
        from sidecar.ops.prep import TOKEN_BUDGET, token_budget

        got = token_budget(SF).to_pandas()
        t = pq.read_table(f"{SF}/documents.parquet",
                          columns=["doc_id", "source", "text"]).to_pandas()
        t["n_tokens"] = t.text.fillna("").map(lambda s: len(s.split(" ")))
        t["rk"] = t.doc_id.map(lambda i: hashlib.md5(str(i).encode()).hexdigest())
        t = t.sort_values(["source", "rk", "doc_id"], kind="mergesort")
        t["cum"] = t.groupby("source", sort=False)["n_tokens"].cumsum()
        want = t[t["cum"] <= TOKEN_BUDGET]
        assert len(got) == len(want)
        assert set(got["doc_id"]) == set(want["doc_id"])
        # the budget must actually truncate (every source holds > budget tokens)
        assert len(want) < len(t)
        per_src = got.groupby("source")["n_tokens"].sum()
        assert (per_src <= TOKEN_BUDGET).all()


class TestLangCountsNullGroup:
    def test_null_lang_is_a_group(self, tmp_path):
        """SQL GROUP BY emits a NULL group; value_counts' default dropna
        silently removed those rows from the count entirely."""
        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from sidecar.ops.text import lang_counts

        t = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "lang": pa.array(["en", None, "en", None], pa.string()),
            "text": pa.array(["a", "b", "c", "d"], pa.string()),
        })
        pq2.write_table(t, str(tmp_path / "documents.parquet"))
        got = lang_counts(str(tmp_path)).to_pandas()
        want = duckdb.sql(
            f"SELECT lang, count(*)::BIGINT AS n FROM "
            f"read_parquet('{tmp_path}/documents.parquet') GROUP BY lang"
        ).df()
        g = got.sort_values("n").reset_index(drop=True)
        w = want.sort_values("n").reset_index(drop=True)
        assert len(g) == len(w) == 2
        assert int(g[g.lang.isna()]["n"].iloc[0]) == 2
        assert int(g[g.lang == "en"]["n"].iloc[0]) == 2


def test_stratified_hash_sql_parity_at_large_keys():
    """The Knuth sampling hash must match DuckDB beyond the int64-multiply
    wrap point (~3.5e9) — the 100-TB key range the operator advertises."""
    import duckdb
    import numpy as np

    keys = np.array([1, 999_983, 3_500_000_001, 2**33 + 7, 2**62 + 12_345],
                    dtype=np.int64)
    h = (((keys.astype(np.uint64) % np.uint64(1 << 32))
          * np.uint64(2654435761)) % np.uint64(1 << 32)) % np.uint64(1000)
    con = duckdb.connect()
    for k, want in zip(keys, h):
        got = con.sql(
            f"SELECT ((({k}::UBIGINT % 4294967296) * 2654435761) "
            f"% 4294967296) % 1000").fetchone()[0]
        assert int(got) == int(want), k


class TestCoarsePartitionKernels:
    """Randomized equivalence for the round-4 coarse-partition rewrites:
    the in-partition vectorized kernels (lexsort + forward-fill as-of,
    boundary-mask sessionize) against brute-force per-user references, on
    adversarial synthetic tables (heavy ties: few users, few timestamps)."""

    def _write(self, tmp, rng, n_users=17, n_events=400, n_orders=300):
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pqt

        base = 1_600_000_000_000_000  # epoch us
        ev = pd.DataFrame({
            "event_id": np.arange(n_events, dtype=np.int64),
            "ts": (base + rng.integers(0, 50, n_events) * 900_000_000)
                .astype("datetime64[us]"),
            "user_id": rng.integers(0, n_users, n_events).astype(np.int64),
            "event_type": "x",
            "value": 1.0,
            "props": "",
        })
        od = pd.DataFrame({
            "o_orderkey": np.arange(n_orders, dtype=np.int64),
            "o_custkey": rng.integers(0, n_users, n_orders).astype(np.int64),
            "o_orderstatus": "O",
            "o_totalprice": 1.0,
            "o_orderdate": (base + rng.integers(0, 50, n_orders) * 900_000_000)
                .astype("datetime64[us]"),
            "o_orderpriority": "1-URGENT",
        })
        pqt.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                        f"{tmp}/events.parquet")
        pqt.write_table(pa.Table.from_pandas(od, preserve_index=False),
                        f"{tmp}/orders.parquet")
        return ev, od

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_asof_last_order_random(self, tmp_path, seed):
        from sidecar.ops.relational import asof_last_order

        rng = np.random.Generator(np.random.PCG64(seed))
        ev, od = self._write(tmp_path, rng)
        got = asof_last_order(str(tmp_path)).to_pandas()
        got = set(map(tuple, got[["event_id", "user_id", "last_orderkey"]]
                      .to_numpy()))
        want = set()
        ous = od["o_orderdate"].values.astype("datetime64[us]").astype(np.int64)
        eus = ev["ts"].values.astype("datetime64[us]").astype(np.int64)
        for i in range(len(ev)):
            m = (od["o_custkey"].to_numpy() == ev["user_id"][i]) & (ous <= eus[i])
            if m.any():
                cand = od[m]
                cus = ous[m]
                best = cand["o_orderkey"].to_numpy()[
                    np.lexsort((cand["o_orderkey"].to_numpy(), cus))][-1]
                want.add((int(ev["event_id"][i]), int(ev["user_id"][i]),
                          int(best)))
        assert got == want and want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sessionize_random(self, tmp_path, seed):
        from sidecar.ops.relational import sessionize

        rng = np.random.Generator(np.random.PCG64(seed))
        ev, _ = self._write(tmp_path, rng)
        gap_us = 1800 * 1_000_000
        got = sessionize(str(tmp_path)).to_pandas()
        got = sorted(map(tuple, got[["user_id", "session_start_us",
                                     "n_events", "duration_us"]].to_numpy()))
        want = []
        eus = ev["ts"].values.astype("datetime64[us]").astype(np.int64)
        for u in np.unique(ev["user_id"]):
            ts = np.sort(eus[ev["user_id"].to_numpy() == u])
            start = ts[0]
            prev = ts[0]
            n = 1
            for t in ts[1:]:
                if t - prev > gap_us:
                    want.append((int(u), int(start), n, int(prev - start)))
                    start, n = t, 1
                else:
                    n += 1
                prev = t
            want.append((int(u), int(start), n, int(prev - start)))
        assert got == sorted(want) and want


class TestRound5Exact:
    def test_token_counts_combo_equals_singles(self):
        """The fused combo row carries exactly the standalone counters'
        values (one scan, two columns — VERDICT r4 #6 window merge)."""
        from sidecar.ops import text

        combo = text.token_counts_combo(SF).to_pandas().set_index("doc_id")
        ws = text.token_count(SF).to_pandas().set_index("doc_id")
        re_ = text.token_count_regex(SF).to_pandas().set_index("doc_id")
        assert combo["n_tokens"].sort_index().equals(ws["n_tokens"].sort_index())
        assert combo["n_tokens_re"].sort_index().equals(
            re_["n_tokens_re"].sort_index())

    def test_image_stats_exact_closed_form(self):
        """The gradient construction's channel sums match the closed-form
        oracle formula for all three codecs and both b16 base parities —
        verified against the REAL decode path, not the generator."""
        import pyarrow as pa

        from sidecar.ops import multimodal

        # doc_ids chosen to hit png/ppm/b16 and even/odd b16 bases:
        # d=2 → b16, br=2 even, bg=14 even, bb=26 even
        # d=5 → b16? 5%3=2 yes, br=5 odd, bg=35 odd, bb=65 odd
        ids = [0, 1, 2, 5, 199, 200, 202, 203]
        batch = pa.table({"doc_id": pa.array(ids, pa.int64())})
        imgs = multimodal._gradient_images_batch(batch)
        from sidecar.ops.multimodal import _decode_stats_batch

        stats = _decode_stats_batch(imgs)
        by_id = {stats.column("image_id")[i].as_py(): i
                 for i in range(stats.num_rows)}
        for d in ids:
            i = by_id[f"img-{d}"]
            h, w = 8 + d % 5, 8 + (d // 5) % 5
            fmt = ("png", "ppm", "b16")[d % 3]
            assert stats.column("fmt")[i].as_py() == fmt
            assert stats.column("h")[i].as_py() == h
            assert stats.column("w")[i].as_py() == w
            for col, base in (("sum_r", d % 200), ("sum_g", (7 * d) % 200),
                              ("sum_b", (13 * d) % 200)):
                want = w * (h * base + (h * (h - 1)) // 2)
                if fmt == "b16":
                    want += w * ((h + 1) // 2 if base % 2 == 0 else h // 2)
                assert stats.column(col)[i].as_py() == want, (d, col)
