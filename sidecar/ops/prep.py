"""The composite training-data prep pipeline: quality gate → exact dedup →
MinHash-LSH near-dup removal → token accounting, as ONE streamed Ray Data
flow — the end-to-end shape a 100 TB corpus-prep run takes, built from this
repo's operator family (SURVEY.md training-data ops) and checkable
end-to-end against a single DuckDB query.

Stage semantics (deterministic, mirrored exactly in the SQL oracle):
  1. quality gate: keep docs with n_chars >= min_chars;
  2. exact dedup: per md5(text) fingerprint keep the min doc_id;
  3. near-dup removal: MinHash-LSH candidate pairs computed over the
     SURVIVORS of stages 1-2 (same md5 signature/banding formulas as
     sidecar.ops.dedup); for every pair (a < b) the larger doc_id drops —
     a deterministic one-shot sweep (not transitive closure; the cluster
     version is dedup.lsh_components);
  4. output (doc_id, n_tokens) of the final survivors.

Scale notes: the only driver-held state is ID SETS (survivor ids, dropped
ids — ints, no text), broadcast via ray.put; at a scale where even ids
outgrow a broadcast each membership filter becomes a hash-partitioned
semi-join on doc_id with the same semantics.  Text/shingles stay inside
map_batches tasks throughout; the LSH banding shuffle carries (band, bucket,
doc_id) rows only.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from sidecar.ops.dedup import (
    _dedup_pairs,
    _pairs_within,
    bucketize_batch,
    fp_rows_batch,
)
from sidecar.ops.text import read_documents
from sidecar.shuffle import copartition


def _rank_hashes(ids: np.ndarray) -> list[str]:
    """md5(str(doc_id)) hex per id — THE deterministic-sampling order shared
    by source_balance and token_budget (and mirrored by their SQL oracles):
    the stable pseudo-random admission order.  One definition so the two
    mixture knobs can't drift."""
    md5 = hashlib.md5
    return [md5(str(i).encode()).hexdigest() for i in ids]


def prep_images(images_ds: "rd.Dataset", max_dist: int = 7) -> "rd.Dataset":
    """image_id, phash, w, h, fmt — the image-side prep flow: decode-validate
    → exact payload dedup (sha1 digest, keep min image_id) → perceptual
    near-dup sweep (banded phash pairs, drop the lexicographically larger id
    of each pair) — the multimodal mirror of :func:`prep_corpus`.

    Payload bytes never shuffle: decode+phash happens in the actor pool
    (`multimodal.image_decode_stats`), after which everything downstream is
    (id, hash)-sized.  Driver state is id/digest sets only (broadcast;
    hash-semi-join at larger scale).  Near-dup semantics are the pigeonhole-
    exact ≤``max_dist``-bit banding of ``multimodal.phash_neardup``."""
    from sidecar.codecs import IMAGE_FMTS
    from sidecar.ops.multimodal import image_decode_stats, phash_neardup

    # stage 0: decodable-image gate INSIDE the operator (an IMAGES-shaped
    # table may carry html/text payload rows — synth emits ~20%; without
    # the gate the decode stage would KeyError on their fmt)
    fmt_set = pa.array(sorted(IMAGE_FMTS))
    images_ds = images_ds.map_batches(
        lambda b: b.filter(pc.is_in(b.column("fmt"), value_set=fmt_set)),
        batch_format="pyarrow", zero_copy_batch=True)

    # stage 1+2: digest per payload, survivors = min image_id per digest
    def digest_rows(batch: pa.Table) -> pa.Table:
        sha1 = hashlib.sha1
        d = [sha1(v or b"").hexdigest() for v in batch.column("bytes").to_pylist()]
        return pa.table({"digest": pa.array(d, pa.string()),
                         "image_id": batch.column("image_id")})

    def min_id(t: pa.Table) -> pa.Table:
        return t.group_by("digest").aggregate([("image_id", "min")])

    survivors: set[str] = set()
    for b in copartition(
            images_ds.map_batches(digest_rows, batch_format="pyarrow",
                                  zero_copy_batch=True),
            "digest", min_id, batch_format="pyarrow",
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        survivors.update(b.column("image_id_min").to_pylist())
    # broadcast an Arrow array (zero-copy from plasma per worker) and filter
    # with the vectorized is_in kernel — never a per-row Python membership
    surv_ref = ray.put(pa.array(sorted(survivors), pa.string()))

    def keep_survivors(batch: pa.Table) -> pa.Table:
        sv = ray.get(surv_ref)
        return batch.filter(pc.is_in(batch.column("image_id"), value_set=sv))

    kept = images_ds.map_batches(keep_survivors, batch_format="pyarrow",
                                 zero_copy_batch=True)

    # decode ONCE: the (id, phash, w, h, fmt, …)-manifest is materialized
    # (bytes are not in it, so it is object-store-cheap at any scale) and
    # reused by both the near-dup sweep and the final output — the corpus
    # is never decoded a second time.
    stats = image_decode_stats(kept).materialize()

    # stage 3: perceptual near-dup over the survivors; drop larger id
    pairs = phash_neardup(None, max_dist=max_dist, stats_ds=stats)
    dropped: set[str] = set()
    for b in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        dropped.update(b.column("id_b").to_pylist())
    drop_ref = ray.put(pa.array(sorted(dropped), pa.string()))

    def finalize(batch: pa.Table) -> pa.Table:
        dr = ray.get(drop_ref)
        keep = pc.invert(pc.is_in(batch.column("image_id"), value_set=dr))
        return batch.filter(keep).select(
            ["image_id", "phash", "w", "h", "fmt"])

    return stats.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


def prep_corpus(sf_dir: str, min_chars: int = 50) -> "rd.Dataset":
    """doc_id, n_tokens — the surviving documents of the full prep flow."""

    def quality(batch: pa.Table) -> pa.Table:
        text = batch.column("text").fill_null("")
        keep = pc.greater_equal(pc.utf8_length(text), min_chars)
        return batch.filter(keep)

    gated = read_documents(sf_dir).map_batches(
        quality, batch_format="pyarrow", zero_copy_batch=True)

    # stage 2: exact-dedup survivors (min doc_id per fingerprint) — the
    # groupby moves (fp, doc_id) rows only, sorted by the coarse int
    # key; survivor ids collect small (fingerprint formula shared with
    # dedup.exact_dedup: fp_rows_batch)
    import pandas as pd

    def fp_min(g: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame(
            {"keep": g.groupby("fp", sort=False)["doc_id"].min().to_numpy()})

    survivors: set[int] = set()
    for b in copartition(
            gated.map_batches(fp_rows_batch, batch_format="pyarrow",
                              zero_copy_batch=True),
            "fp", fp_min, batch_format="pandas",
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        survivors.update(b.column("keep").to_pylist())
    surv_ref = ray.put(np.array(sorted(survivors), dtype=np.int64))

    def keep_survivors(batch: pa.Table) -> pa.Table:
        sv = ray.get(surv_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(ids, sv)))

    kept = gated.map_batches(keep_survivors, batch_format="pyarrow",
                             zero_copy_batch=True)

    # stage 3: LSH candidate pairs over the kept docs (the SAME banding
    # implementation as dedup.minhash_lsh_pairs); drop the larger id of
    # each pair
    pairs = _dedup_pairs(copartition(
        kept.map_batches(bucketize_batch, batch_format="pyarrow",
                         zero_copy_batch=True),
        "bucket", lambda g: _pairs_within(g, ["band", "bucket"]),
        batch_format="pandas"))

    dropped: set[int] = set()
    for b in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        dropped.update(b.column("doc_b").to_pylist())
    drop_ref = ray.put(np.array(sorted(dropped), dtype=np.int64))

    # stage 4: final survivors → token counts (shuffle-free)
    def finalize(batch: pa.Table) -> pa.Table:
        dr = ray.get(drop_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(~np.isin(ids, dr)))
        toks = pc.split_pattern(sub.column("text").fill_null(""), " ")
        return pa.table({
            "doc_id": sub.column("doc_id"),
            "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64()),
        })

    return kept.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------- source balancing (mixture)

BALANCE_QUOTA = 15  # docs kept per source


def source_balance(sf_dir: str, quota: int = BALANCE_QUOTA) -> "rd.Dataset":
    """doc_id, source — a balanced data mixture: at most ``quota`` documents
    per source/domain, chosen by a STABLE pseudo-random order
    (md5(doc_id-as-string), tiebreak doc_id) so the sample is deterministic,
    order-independent and resumable.  This is the domain-mixing step of a
    pre-training pipeline ("cap every domain so no source dominates the
    mixture"), the per-source analog of rel_systematic_sample.

    100-TB plan: one coarse shuffle of (doc_id, source, rank-hash) rows —
    never the text; per-source top-k happens vectorized inside each
    partition task.  Skewed sources cost nothing extra: the rank-hash sort
    within a partition is O(rows log rows) regardless of source sizes (a
    per-source heap of size ``quota`` in a combiner is the refinement if a
    single source outgrows a partition).
    """

    def with_rank(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "source": pc.cast(batch.column("source"), pa.string()),
            "rk": pa.array(_rank_hashes(ids), pa.string()),
        })

    def topk(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["source", "rk", "doc_id"], kind="mergesort")
        g = g.groupby("source", sort=False).head(quota)
        return g[["doc_id", "source"]]

    return copartition(
        read_documents(sf_dir, columns=("doc_id", "source"))
        .map_batches(with_rank, batch_format="pyarrow", zero_copy_batch=True),
        "source", topk, batch_format="pandas")


# LAION-style pair-curation gates (prep_pairs); mirrored by the
# single-threaded reference in tests/test_ops.py.
PAIR_MIN_SIDE = 32        # drop tiny images
PAIR_MAX_ASPECT = 4.0     # drop aspect ratios above this (== 4.0 is kept)
PAIR_MIN_TOKENS = 5       # drop empty / near-empty captions
PAIR_MAX_TOKENS = 64      # drop runaway captions


def prep_pairs(images_ds: "rd.Dataset") -> "rd.Dataset":
    """image_id, w, h, fmt, n_caption_tokens, phash — LAION-style curation
    of an image+caption table into a training-ready manifest:

      1. geometry gate: decodable image fmt, min(w,h) >= PAIR_MIN_SIDE,
         max(w,h)/min(w,h) <= PAIR_MAX_ASPECT;
      2. caption gate: whitespace token count in
         [PAIR_MIN_TOKENS, PAIR_MAX_TOKENS] (empty captions drop);
      3. perceptual exact dedup: one row per phash, keeping min image_id —
         the stored phash column is used directly (the crawl already paid
         the decode; no second decode pass, unlike ``prep_images`` whose
         job is to *recompute* and near-dup-sweep).

    Every gate is a vectorized Arrow/numpy kernel over metadata columns —
    image BYTES are never read, so the stage streams at column-scan speed
    and nothing but (id, hash)-sized rows reach the dedup shuffle.  The
    dedup is a groupby(phash) min-aggregate: at 100 TB that is the only
    exchange, keyed by an int64 with near-uniform distribution."""

    def gate(batch: pa.Table) -> pa.Table:
        w = batch.column("w").to_numpy(zero_copy_only=False).astype(np.float64)
        h = batch.column("h").to_numpy(zero_copy_only=False).astype(np.float64)
        from sidecar.codecs import IMAGE_FMTS

        fmt_ok = pc.is_in(batch.column("fmt"),
                          value_set=pa.array(sorted(IMAGE_FMTS))) \
            .to_numpy(zero_copy_only=False)
        mn = np.minimum(w, h)
        mx = np.maximum(w, h)
        geo_ok = (mn >= PAIR_MIN_SIDE) & (mx <= PAIR_MAX_ASPECT * mn)
        # len(c.split()) == number of non-whitespace runs, as one Arrow kernel
        ntok = pc.count_substring_regex(
            batch.column("caption").fill_null(""), r"\S+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        cap_ok = (ntok >= PAIR_MIN_TOKENS) & (ntok <= PAIR_MAX_TOKENS)
        keep = pa.array(fmt_ok & geo_ok & cap_ok)
        out = batch.select(["image_id", "w", "h", "fmt", "phash"]) \
            .append_column("n_caption_tokens", pa.array(ntok, pa.int64()))
        return out.filter(keep)

    gated = images_ds.map_batches(gate, batch_format="pyarrow",
                                  zero_copy_batch=True)

    # Dedup: keep the min-image_id row per phash.  The gated rows are
    # manifest-sized (ids + ints, bytes were never selected), so one COARSE
    # shuffle of those rows (co-partitioned on phash — 64 tasks regardless
    # of phash cardinality, per-key dispatch is the measured bottleneck)
    # followed by a vectorized in-task drop_duplicates IS the whole
    # exchange — nothing is collected on the driver at any corpus size.
    def keep_first(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["phash", "image_id"]).drop_duplicates(
            "phash", keep="first")
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    return copartition(gated, "phash", keep_first, batch_format="pandas")


TOKEN_BUDGET = 1000  # whitespace tokens admitted per source


def token_budget(sf_dir: str, budget: int = TOKEN_BUDGET) -> "rd.Dataset":
    """doc_id, source, n_tokens — TOKEN-weighted mixture balancing: each
    source admits documents in a stable pseudo-random order (md5(doc_id),
    tiebreak doc_id) until its cumulative whitespace-token count would
    exceed ``budget`` — the "every source contributes at most B tokens"
    knob, the token-weighted sibling of ``source_balance``'s per-doc cap
    (token budgets are what mixture specs are actually written in).

    100-TB plan: stage 1 reduces each doc to a (doc_id, source, n_tokens,
    rank-hash) row — text never leaves the scan; one shuffle co-partitioned
    on source co-locates each source, and the per-source ordered
    cumsum + cutoff runs vectorized inside each partition task."""

    def project(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        toks = pc.split_pattern(batch.column("text").fill_null(""), " ")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "source": pc.cast(batch.column("source"), pa.string()),
            "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64()),
            "rk": pa.array(_rank_hashes(ids), pa.string()),
        })

    def admit(g: "pd.DataFrame") -> pa.Table:
        g = g.sort_values(["source", "rk", "doc_id"], kind="mergesort")
        cum = g.groupby("source", sort=False)["n_tokens"].cumsum()
        g = g[cum <= budget]
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy(), pa.int64()),
            "source": pa.array(g["source"], pa.string()),
            "n_tokens": pa.array(g["n_tokens"].to_numpy(), pa.int64()),
        })

    return copartition(
        read_documents(sf_dir, columns=("doc_id", "source", "text"))
        .map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        "source", admit, batch_format="pandas")
