"""The sidecar extraction pipeline: IMAGES-shaped Dataset → SIDECAR Dataset.

Ray-Data-native restatement of the reference's per-record loop
(warc_metadata_sidecar.py:205-283):

    filter empty payloads (F3) → mime+puid sniff (F5) → text gate (F6)
    → charset (F7) / language (F8) / soft-404 (F9, html+200 only)
    → image decode + phash/w/h/fmt (ST8, new) → nullable SIDECAR columns (F10)

Everything is ONE vectorized ``map_batches`` stage over zero-copy Arrow —
the per-record orchestration in the reference becomes boolean masks over
columns.  Stateless, so it runs as Ray tasks (cheap, elastic).  Image
decode stays a per-row loop (zlib is inherent, like any image library),
bounded to the image-typed rows of the batch and to one decode per distinct
payload; the decoded images are then hashed with one ``phash64_batch`` call.

Work-dedup by payload digest (reference DIGEST_CACHE, :39,231-246) is done
as a *within-batch memo* plus deterministic detectors: re-computing a digest
seen in another batch yields byte-identical metadata, so output equals the
reference's cache semantics without shuffling image bytes across the cluster
(A3 discussion in SURVEY.md §2.5).  ``sidecar_dataset_dedup_digest`` is the
explicit groupby(payload_digest) compute-once plan (extract once per distinct
payload, join the metadata back to every row) for when extraction dwarfs
hashing.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sidecar import runs, schemas, shuffle
from sidecar.canon import iso_to_ts14  # noqa: F401  (re-exported for pipelines)
from sidecar.detect.language import find_language_batch
from sidecar.shuffle import copartition

_TEXT_RE = r"(text|html|xml)"  # reference TEXT_FORMAT_MIMES (:33)


def _digest_batch(binary: pa.Array) -> np.ndarray:
    """sha1 per payload, 'sha1:<hex>' like WARC-Payload-Digest (:220)."""
    arr = binary.combine_chunks() if isinstance(binary, pa.ChunkedArray) else binary
    sha1 = hashlib.sha1
    return np.array(
        ["sha1:" + sha1(v.as_py() or b"").hexdigest() for v in arr], dtype=object
    )


def _lang_dict_to_struct(d: dict | None) -> dict | None:
    if d is None:
        return None
    return {
        "reliable": d["reliable"],
        "text_bytes": d["text-bytes"],
        "languages": [
            {
                "name": x["name"],
                "code": x["code"],
                "text_covered": x["text-covered"],
                "score": x["score"],
            }
            for x in d["languages"]
        ],
    }


def extract_sidecar_batch(batch: pa.Table, registry=None) -> pa.Table:
    """The core per-batch transform (pyarrow in / pyarrow out).

    Detectors are resolved THROUGH the §2.9 registry
    (sidecar/detect/protocol.py): the five built-ins run under their
    canonical names (replaceable without editing this module), then any
    user-registered extras append their columns.  ``registry`` is the
    driver-time snapshot a pipeline ships in its closure (None = this
    process's registry — correct for direct calls and built-ins-only)."""
    from sidecar.detect import protocol as proto

    if registry is None:
        registry = proto.snapshot()

    n = batch.num_rows
    payload = batch.column("bytes").combine_chunks()
    caption = batch.column("caption").combine_chunks()
    image_id = batch.column("image_id")
    url = batch.column("url") if "url" in batch.column_names else pa.nulls(n, pa.string())
    ts = batch.column("ts") if "ts" in batch.column_names else pa.nulls(n, pa.string())
    status = (
        batch.column("status").to_numpy(zero_copy_only=False)
        if "status" in batch.column_names
        else np.full(n, 200, dtype=np.int64)
    )

    # F3: empty-payload filter (reference :213-215).  fill_null: a NULL
    # payload cell counts as empty — without it the comparison yields an
    # object array holding None and every downstream boolean & raises
    nonempty = pc.fill_null(pc.greater(pc.binary_length(payload), 0), False) \
        .to_numpy(zero_copy_only=False).astype(bool)
    ctx = proto.DetectCtx(payload=payload, caption=caption.fill_null(""),
                          nonempty=nonempty, status=status)

    # F5: mime + puid (runs first; populates ctx.mime_*)
    mime_det = registry["mime"]
    mime_cols = mime_det.run(ctx, mime_det.applies_to(ctx))
    # the gate and downstream detectors read ctx.mime_fido/mime_magic; a
    # registry-swapped mime detector (§2.9) need not mutate ctx, so fall
    # back to the RETURNED columns — the protocol's actual contract
    if ctx.mime_fido is None and "mime_fido" in mime_cols:
        ctx.mime_fido = np.array(mime_cols["mime_fido"].to_pylist(), dtype=object)
    if ctx.mime_magic is None and "mime_magic" in mime_cols:
        ctx.mime_magic = np.array(mime_cols["mime_magic"].to_pylist(), dtype=object)

    # F6: text gate over the joined mime strings (reference :250,255)
    joined = np.array(
        [" ".join(x for x in (f, m) if x)
         for f, m in zip(ctx.mime_fido, ctx.mime_magic)],
        dtype=object,
    )
    ctx.mime_joined = joined
    ctx.is_text = (
        pc.match_substring_regex(pa.array(joined, type=pa.string()), _TEXT_RE)
        .to_numpy(zero_copy_only=False)
        .astype(bool)
    ) & nonempty
    ctx.html = np.array(["html" in j for j in joined], dtype=bool)
    # decoded payload text for text rows (reference :259-260)
    ctx.text = pa.array(
        [
            (payload[i].as_py() or b"").decode("utf-8", "replace")
            if ctx.is_text[i] else ""
            for i in range(n)
        ],
        type=pa.string(),
    )
    ctx.digests = _digest_batch(payload)

    def run(name: str) -> dict:
        det = registry[name]
        return det.run(ctx, det.applies_to(ctx))

    charset_cols = run("charset")    # F7
    lang_cols = run("language")      # F8 (+ caption generalization)
    s404_cols = run("soft404")       # F9
    image_cols = run("image")        # ST8 (within-batch digest memo = A3)

    out = pa.table(
        {
            "image_id": image_id,
            "url": url,
            "ts": ts,
            "mime_fido": mime_cols["mime_fido"],
            "mime_magic": mime_cols["mime_magic"],
            "puid": mime_cols["puid"],
            "charset": charset_cols["charset"],
            "languages": lang_cols["languages"],
            "caption_languages": lang_cols["caption_languages"],
            "soft404": s404_cols["soft404"],
            "phash": image_cols["phash"],
            "w": image_cols["w"],
            "h": image_cols["h"],
            "fmt": image_cols["fmt"],
            "payload_digest": pa.array(ctx.digests, type=pa.string()),
            "is_text": pa.array(ctx.is_text),
            # caption rides along so the per-row caption-equality invariant
            # (input_hint) is checkable on the engine's own output
            "caption": caption,
        }
    )
    # user-registered extra detectors (§2.9): columns appended as returned
    for nm, det in registry.items():
        if nm in proto.BUILTIN_NAMES:
            continue
        for cname, col in det.run(ctx, det.applies_to(ctx)).items():
            out = out.append_column(cname, col)
    # pass-through columns: fetch-partition id, and the source record id
    # (WARC-Concurrent-ID parity — the reference copies the source record's
    # WARC-Record-ID, warc_metadata_sidecar.py:223)
    for passthru in ("part", "concurrent_id", "warcinfo_id"):
        if passthru in batch.column_names:
            out = out.append_column(passthru, batch.column(passthru))
    # F10/:270-271 — a record with no metadata at all is skipped entirely;
    # with a non-empty payload we always have a mime, so only empty payloads drop.
    return out.filter(pa.array(nonempty))


def sliced(fn, batch_size: int):
    """Wrap the pyarrow batch UDF ``fn`` for ``map_batches(batch_size=None)``.

    Ray then hands the wrapper a whole block, and the wrapper calls ``fn`` on
    zero-copy slices of at most ``batch_size`` rows, yielding each result.  An
    empty block still gets exactly one call, so its output schema survives.

    This keeps ``batch_size`` as a memory bound (rows per ``fn`` call) without
    Ray's reading of it as a task size: an integer ``batch_size`` makes Ray
    bundle input blocks smaller than it into one task, and it stops Ray from
    fusing the map with an upstream that can change row counts
    (``OperatorFusionRule._can_fuse_map_ops``).  Through this wrapper a
    read → fetch → extract → write chain runs as one operator with one task
    per input block.
    """

    @functools.wraps(fn)  # keeps ``fn``'s name in the Ray operator name
    def per_slice(block: pa.Table):
        n = block.num_rows
        if n == 0:
            yield fn(block)
            return
        for lo in range(0, n, batch_size):
            yield fn(block.slice(lo, batch_size))

    return per_slice


def sidecar_dataset(images_ds, *, batch_size: int = 1024):
    """IMAGES Dataset → SIDECAR Dataset (lazy; the caller consumes/streams).

    Stateless tasks, one per input block; ``batch_size`` bounds the rows per
    extractor call inside it, small because rows carry image payloads
    (memory-aware, SURVEY.md §4.2).
    """
    from sidecar.detect import protocol as proto

    reg = proto.snapshot()  # ship the DRIVER's registry to the workers

    def extract_with_registry(batch: pa.Table) -> pa.Table:
        return extract_sidecar_batch(batch, registry=reg)

    return images_ds.map_batches(
        sliced(extract_with_registry, batch_size),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )


PAYLOAD_DERIVED_COLS = (
    "mime_fido", "mime_magic", "puid", "charset", "languages", "soft404",
    "phash", "w", "h", "fmt", "is_text", "payload_digest",
)  # columns that depend only on the payload bytes — the cacheable part


def _assemble_from_lookup(batch: pa.Table, lk: dict) -> pa.Table:
    """Step-4 row assembly: a batch of original-row columns plus
    ``payload_digest`` → those columns and the payload-derived metadata for
    each row's digest from ``lk`` (a digest → metadata-row dict).  Rows
    whose digest has no metadata are dropped (≡ extract's empty-payload
    filter)."""
    digests = batch.column("payload_digest").to_pylist()
    n = batch.num_rows
    caption = batch.column("caption").combine_chunks()
    url = batch.column("url") if "url" in batch.column_names else pa.nulls(n, pa.string())
    ts = batch.column("ts") if "ts" in batch.column_names else pa.nulls(n, pa.string())
    hit = [lk.get(d) for d in digests]
    keep = np.array([h is not None for h in hit], dtype=bool)  # ≡ nonempty filter

    def col(name):
        return [h[name] for h, k in zip(hit, keep) if k]

    is_text = np.array(col("is_text"), dtype=bool)
    cap_kept = caption.filter(pa.array(keep)).fill_null("")
    cap_mask = (~is_text) & (
        pc.greater(pc.utf8_length(cap_kept), 0).to_numpy(zero_copy_only=False))
    caption_languages = find_language_batch(cap_kept, mask=cap_mask)
    out = pa.table({
        "image_id": batch.column("image_id").filter(pa.array(keep)),
        "url": url.filter(pa.array(keep)) if n else url,
        "ts": ts.filter(pa.array(keep)) if n else ts,
        "mime_fido": pa.array(col("mime_fido"), pa.string()),
        "mime_magic": pa.array(col("mime_magic"), pa.string()),
        "puid": pa.array(col("puid"), pa.string()),
        "charset": pa.array(col("charset"), type=schemas.CHARSET_T),
        "languages": pa.array(col("languages"), type=schemas.LANGUAGES_T),
        "caption_languages": pa.array(
            [_lang_dict_to_struct(x) for x in caption_languages],
            type=schemas.LANGUAGES_T),
        "soft404": pa.array(col("soft404"), pa.float64()),
        "phash": pa.array(col("phash"), pa.int64()),
        "w": pa.array(col("w"), pa.int32()),
        "h": pa.array(col("h"), pa.int32()),
        "fmt": pa.array(col("fmt"), pa.string()),
        "payload_digest": pa.array([d for d, k in zip(digests, keep) if k],
                                   pa.string()),
        "is_text": pa.array(is_text),
        "caption": cap_kept,
    })
    for passthru in ("part", "concurrent_id", "warcinfo_id"):
        if passthru in batch.column_names:
            out = out.append_column(
                passthru, batch.column(passthru).filter(pa.array(keep)))
    return out


def sidecar_dataset_dedup_digest(images_ds, *, batch_size: int = 1024):
    """The EXPLICIT compute-once-per-digest plan (reference DIGEST_CACHE →
    SURVEY.md A3: groupby(payload_digest), extract once per distinct payload,
    fan results back to every row).

    ``sidecar_dataset`` already matches the reference's cache SEMANTICS via
    deterministic detectors (+ a within-batch memo); this variant additionally
    matches its WORK profile — each distinct payload is extracted exactly
    once — which is the right plan when extraction dwarfs hashing (model
    scoring, OCR) and the corpus has heavy exact duplication (mirrors).

    Plan, keeping payload shuffles minimal:
      1. per-slice first-occurrence dedup (vectorized) — at most one payload
         per (``batch_size``-row slice × digest) continues;
      2. groupby co-partitioned on the digest → global keep-first (the only
         stage where payload bytes cross the wire, one per surviving
         candidate);
      3. ``extract_sidecar_batch`` over the distinct representatives only;
      4. one ``shuffle.lookup_join`` on payload_digest of the original rows,
         re-hashed (cheap) and shipped WITHOUT their bytes (digest +
         row-specific columns only), with the payload-derived metadata: each
         row is assembled from a digest → metadata dict, computing only the
         row-specific fields (caption language) in place.  Small metadata
         is broadcast; metadata past the broadcast limit (billions of
         distinct payloads) meets the rows in a hash exchange, with
         identical output (asserted in tests).

    Output rows equal ``sidecar_dataset``'s (order aside) — asserted in
    tests on corpora with duplicate payloads and distinct captions.
    """
    def reps(batch: pa.Table) -> pa.Table:
        digests = _digest_batch(batch.column("bytes"))
        first = np.zeros(len(digests), dtype=bool)
        first[np.unique(digests, return_index=True)[1]] = True  # keep-first
        return batch.filter(pa.array(first)).append_column(
            "payload_digest", pa.array(digests[first], pa.string()))

    uniq = copartition(
        images_ds.map_batches(sliced(reps, batch_size), batch_format="pyarrow",
                              batch_size=None, zero_copy_batch=True),
        "payload_digest",
        lambda t: runs.first(t, ["payload_digest"]).drop_columns(["payload_digest"]))
    reg = __import__("sidecar.detect.protocol",
                     fromlist=["protocol"]).snapshot()

    def extract_with_registry(b: pa.Table) -> pa.Table:
        return extract_sidecar_batch(b, registry=reg)

    meta = (uniq.map_batches(sliced(extract_with_registry, batch_size),
                             batch_format="pyarrow", batch_size=None,
                             zero_copy_batch=True)
            .select_columns(list(PAYLOAD_DERIVED_COLS)))
    keep = ("image_id", "url", "ts", "caption",
            "part", "concurrent_id", "warcinfo_id")

    def row_rows(batch: pa.Table) -> pa.Table:
        digests = _digest_batch(batch.column("bytes"))
        return batch.select([c for c in keep if c in batch.column_names]) \
            .append_column("payload_digest", pa.array(digests, pa.string()))

    rows = images_ds.map_batches(sliced(row_rows, batch_size),
                                 batch_format="pyarrow", batch_size=None,
                                 zero_copy_batch=True)
    return shuffle.lookup_join(
        rows, meta, "payload_digest",
        lambda t: {r["payload_digest"]: r for r in t.to_pylist()},
        _assemble_from_lookup)


# ---------------------------------------------------------------------------
# Reference-conformance serializers (golden-file form only; data stays Arrow)
# ---------------------------------------------------------------------------

MIME_TITLE = "Identified-Payload-Type:"
PUID_TITLE = "Preservation-Identifier:"
CHARSET_TITLE = "Charset-Detected:"
LANGUAGE_TITLE = "Languages-cld2:"
SOFT404_TITLE = "Soft-404-Detected:"


def _lang_struct_to_ref(d: dict | None) -> dict | None:
    if d is None:
        return None
    return {
        "reliable": d["reliable"],
        "text-bytes": d["text_bytes"],
        "languages": [
            {
                "name": x["name"],
                "code": x["code"],
                "text-covered": x["text_covered"],
                "score": x["score"],
            }
            for x in d["languages"]
        ],
    }


def sidecar_row_to_payload(row: dict) -> str:
    """SIDECAR row → the reference's newline-joined 'Title: value' payload
    (create_string_payload, warc_metadata_sidecar.py:151-164), including the
    skip rules: charset needs truthy encoding, soft404 uses ``is not None``."""
    mime_dict = {}
    if row.get("mime_fido"):
        mime_dict["fido"] = row["mime_fido"]
    if row.get("mime_magic"):
        mime_dict["python-magic"] = row["mime_magic"]
    payload = []
    if mime_dict:
        payload.append(f"{MIME_TITLE} {json.dumps(mime_dict)}")
    if row.get("puid"):
        payload.append(f"{PUID_TITLE} {row['puid']}")
    cs = row.get("charset")
    if cs and cs.get("encoding"):
        payload.append(
            f"{CHARSET_TITLE} "
            + json.dumps({"encoding": cs["encoding"], "confidence": cs["confidence"]})
        )
    lang = _lang_struct_to_ref(row.get("languages"))
    if lang:
        payload.append(f"{LANGUAGE_TITLE} {json.dumps(lang)}")
    if row.get("soft404") is not None:
        payload.append(f"{SOFT404_TITLE} {row['soft404']}")
    return "\n".join(payload)


def create_warcinfo_payload(new_file: str, operator=None, publisher=None) -> dict:
    """Run manifest analog of the reference warcinfo payload
    (create_warcinfo_payload, warc_metadata_sidecar.py:134-148); hostname/ip
    pinned to deterministic values (no sockets in tests)."""
    payload = {
        "software": "sidecar-ray/0.1.0",
        "hostname": "localhost",
        "ip": "127.0.0.1",
        "conformsTo": "http://bibnum.bnf.fr/WARC/WARC_ISO_28500_version1_latestdraft.pdf",
        "description": "WARC metdata sidecar for " + new_file,  # sic — reference typo kept (:142)
    }
    if publisher:
        payload["publisher"] = publisher
    if operator:
        payload["operator"] = operator
    return payload
