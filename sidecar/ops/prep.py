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

Scale notes: nothing corpus-sized is held on the driver.  Every stage
meets the next through ``copartition``: the exact-dedup survivors and the
LSH drop ids are (doc_id, n_tokens) and doc_id rows, joined by doc_id in a
final anti-join.  Text/shingles stay inside map_batches tasks throughout;
no exchange carries a ``text`` column, and the LSH banding shuffle carries
(band, bucket, doc_id) rows only.

Stage 3 bands every gated doc, not just the exact-dedup survivors, so it
needs no survivor set first, and it is still exact: an exact copy ``d`` of
survivor ``r < d`` has identical shingles, so it shares every bucket with
``r``; whenever ``d`` pairs with ``y > d``, ``r < y`` pairs with ``y`` too.
The pairs therefore drop the same survivors.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from sidecar import runs
from sidecar.ops.dedup import _pairs_within, bucketize_batch, fp_rows_batch
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
    (id, hash)-sized.  Every gated image is decoded once, exact duplicates
    included, so the near-dup sweep runs beside the digest dedup instead of
    after it; the same argument as :func:`prep_corpus`' stage 3 keeps it
    exact (identical payloads give identical phashes).  The stats, survivor
    ids and drop ids then meet in one co-partition on ``image_id``.
    Near-dup semantics are the pigeonhole-exact ≤``max_dist``-bit banding
    of ``multimodal.phash_neardup``."""
    from sidecar.codecs import IMAGE_FMTS
    from sidecar.ops.multimodal import image_decode_stats, phash_neardup

    # stage 0: decodable-image gate INSIDE the operator (an IMAGES-shaped
    # table may carry html/text payload rows — synth emits ~20%; without
    # the gate the decode stage would KeyError on their fmt)
    fmt_set = pa.array(sorted(IMAGE_FMTS))
    images_ds = images_ds.map_batches(
        lambda b: b.filter(pc.is_in(b.column("fmt"), value_set=fmt_set)),
        batch_format="pyarrow", zero_copy_batch=True)

    # stage 1+2: digest per payload, survivors = min image_id per digest,
    # grouped inside the exchange only: digests are mostly distinct, so a
    # per-block partial (shuffle.aggregate) would shrink nothing
    def digest_rows(batch: pa.Table) -> pa.Table:
        sha1 = hashlib.sha1
        d = [sha1(v or b"").hexdigest() for v in batch.column("bytes").to_pylist()]
        return pa.table({"digest": pa.array(d, pa.string()),
                         "image_id": batch.column("image_id")})

    def min_id(t: pa.Table) -> pa.Table:
        g = t.group_by("digest", use_threads=False).aggregate([("image_id", "min")])
        return pa.table({"image_id": g.column("image_id_min")})

    survivors = copartition(
        images_ds.map_batches(digest_rows, batch_format="pyarrow",
                              zero_copy_batch=True),
        "digest", min_id)

    # decode ONCE: the (id, phash, w, h, fmt)-manifest is materialized
    # (bytes are not in it, so it is object-store-cheap at any scale) and
    # reused by both the near-dup sweep and the final join
    cols = ["image_id", "phash", "w", "h", "fmt"]
    stats = image_decode_stats(images_ds).select_columns(cols).materialize()

    # stage 3: perceptual near-dup pairs; the larger id of each drops
    dropped = phash_neardup(None, max_dist=max_dist, stats_ds=stats) \
        .map_batches(lambda b: pa.table({"image_id": b.column("id_b")}),
                     batch_format="pyarrow", zero_copy_batch=True)

    def finalize(st: pa.Table, keep: pa.Table, drop: pa.Table) -> pa.Table:
        if not (st.num_rows and keep.num_rows):
            return st.slice(0, 0)
        ids = st.column("image_id")
        mask = pc.is_in(ids, value_set=keep.column("image_id").combine_chunks())
        if drop.num_rows:
            mask = pc.and_(mask, pc.invert(pc.is_in(
                ids, value_set=drop.column("image_id").combine_chunks())))
        return st.filter(mask)

    return copartition([stats, survivors, dropped], "image_id", finalize)


def prep_corpus(sf_dir: str, min_chars: int = 50) -> "rd.Dataset":
    """doc_id, n_tokens — the surviving documents of the full prep flow."""

    def quality(batch: pa.Table) -> pa.Table:
        text = batch.column("text").fill_null("")
        keep = pc.greater_equal(pc.utf8_length(text), min_chars)
        return batch.filter(keep)

    gated = read_documents(sf_dir).map_batches(
        quality, batch_format="pyarrow", zero_copy_batch=True)

    # stage 2+4: ONE text scan to (fp, doc_id, n_tokens) rows (fingerprint
    # formula shared with dedup.exact_dedup: fp_rows_batch); the exchange
    # on fp keeps the min doc_id per fingerprint, one level as in stage
    # 1+2 of prep_images.  Equal fingerprints mean equal text, so any row's
    # n_tokens is the survivor's.
    def fp_tokens(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text").fill_null(""), " ")
        return fp_rows_batch(batch).append_column(
            "n_tokens", pc.cast(pc.list_value_length(toks), pa.int64()))

    def first_doc(t: pa.Table) -> pa.Table:
        g = t.group_by("fp", use_threads=False).aggregate(
            [("doc_id", "min"), ("n_tokens", "max")])
        return pa.table({"doc_id": g.column("doc_id_min"),
                         "n_tokens": g.column("n_tokens_max")})

    survivors = copartition(
        gated.map_batches(fp_tokens, batch_format="pyarrow", zero_copy_batch=True),
        "fp", first_doc)

    # stage 3: LSH candidate pairs over the gated docs (the SAME banding
    # implementation as dedup.minhash_lsh_pairs); the larger id of each
    # pair drops
    def dropped(t: pa.Table) -> pa.Table:
        return _pairs_within(t, ["band", "bucket"]).select(["doc_b"]) \
            .rename_columns(["doc_id"])

    drops = copartition(
        gated.map_batches(bucketize_batch, batch_format="pyarrow",
                          zero_copy_batch=True),
        "bucket", dropped)

    def anti(keep: pa.Table, drop: pa.Table) -> pa.Table:
        if not (keep.num_rows and drop.num_rows):
            return keep
        return keep.filter(pc.invert(pc.is_in(
            keep.column("doc_id"),
            value_set=drop.column("doc_id").combine_chunks())))

    return copartition([survivors, drops], "doc_id", anti)


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

    def topk(t: pa.Table) -> pa.Table:
        t, new = runs.groups(t, ["source"], ("rk", "doc_id"))
        return t.select(["doc_id", "source"]).filter(pa.array(runs.rank(new) < quota))

    return copartition(
        read_documents(sf_dir, columns=("doc_id", "source"))
        .map_batches(with_rank, batch_format="pyarrow", zero_copy_batch=True),
        "source", topk)


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
    # shuffle of those rows (co-partitioned on phash, per-key dispatch is
    # the measured bottleneck) followed by a vectorized in-task keep-first
    # (runs.first) IS the whole
    # exchange — nothing is collected on the driver at any corpus size.
    return copartition(gated, "phash",
                       lambda t: runs.first(t, ["phash"], ("image_id",)))


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

    def admit(t: pa.Table) -> pa.Table:
        t, new = runs.groups(t, ["source"], ("rk", "doc_id"))
        cum = runs.cumsum(t["n_tokens"].to_numpy(), new)
        return t.select(["doc_id", "source", "n_tokens"]).filter(pa.array(cum <= budget))

    return copartition(
        read_documents(sf_dir, columns=("doc_id", "source", "text"))
        .map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        "source", admit)
