"""Multimodal column operators: image decode / resize / feature-extract, as
actor-pool ``map_batches`` stages over IMAGES-shaped rows (opaque ``binary``
payload + typed metadata — the data model from BASELINE.json:input_hint).

The image path is REAL end-to-end: png/ppm/b16 codecs are implemented
in-repo (sidecar/codecs.py), so decode, nearest-neighbor resize, phash and
pixel stats run on actual pixels.

Scale notes: payload-carrying batches are kept SMALL (batch_size≈64) so
batch × concurrency fits worker heaps; stages are callable CLASSES so any
model/codec state loads once per actor in ``__init__``, not per batch; the
binary column never enters a shuffle — aggregations happen on the extracted
scalar columns only.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

import ray.data as rd

from sidecar import codecs, runs
from sidecar.detect.phash import phash64_batch
from sidecar.shuffle import copartition


class _StatsAcc:
    """Per-batch accumulator for the decode-stats row shape — the single
    definition of the (w, h, fmt, phash, channel-sum) computation shared by
    :class:`ImageDecodeStats` and :class:`ImageDecodeStatsWithB16`."""

    def __init__(self) -> None:
        self.ids, self.ws, self.hs, self.fmts = [], [], [], []
        self.px, self.sr, self.sg, self.sb = [], [], [], []

    def emit(self, image_id: str, px: np.ndarray, fmt: str) -> None:
        self.ids.append(image_id)
        self.hs.append(px.shape[0])
        self.ws.append(px.shape[1])
        self.fmts.append(fmt)
        self.px.append(px)  # hashed as one batch in table()
        s = px.reshape(-1, 3).sum(axis=0, dtype=np.int64)
        self.sr.append(int(s[0]))
        self.sg.append(int(s[1]))
        self.sb.append(int(s[2]))

    def table(self) -> pa.Table:
        return pa.table({
            "image_id": pa.array(self.ids, pa.string()),
            "w": pa.array(self.ws, pa.int32()),
            "h": pa.array(self.hs, pa.int32()),
            "fmt": pa.array(self.fmts, pa.string()),
            # 2s-complement int64, matches synth
            "phash": pa.array(phash64_batch(self.px).view(np.int64)),
            "sum_r": pa.array(self.sr, pa.int64()),
            "sum_g": pa.array(self.sg, pa.int64()),
            "sum_b": pa.array(self.sb, pa.int64()),
        })


class ImageDecodeStats:
    """Actor-pool stage: decode bytes per fmt → (w, h, phash, channel sums).

    Sums are exact int64 (deterministic across runs/engines); means are left
    to consumers so no float drift enters the hashable output.
    """

    def __init__(self) -> None:
        self.decode = codecs.decode  # codec table bound once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        acc = _StatsAcc()
        for image_id, data, fmt in zip(
            batch.column("image_id").to_pylist(),
            batch.column("bytes").to_pylist(),
            batch.column("fmt").to_pylist(),
        ):
            acc.emit(image_id, self.decode(data, fmt), fmt)
        return acc.table()


class ImageDecodeStatsWithB16:
    """Fused stage: ONE decode per image emits BOTH stats rows — the
    image's own and its deterministic lossy (b16) re-encode's — without
    ever running the encode+decode round trip: ``decode_b16(encode_b16(px))
    == ((px >> 1) << 1) | 1`` exactly (the quantization identity the codec
    guarantees; asserted row-for-row against the literal
    ``stats(base ∪ lossy_reencode(base))`` plan in tests).  This is the A3
    compute-once pattern applied to the near-dup sweep's decode — the sweep
    was decode-bound, and this halves its payload work."""

    def __init__(self) -> None:
        self.decode = codecs.decode

    def __call__(self, batch: pa.Table) -> pa.Table:
        acc = _StatsAcc()
        for image_id, data, fmt in zip(
            batch.column("image_id").to_pylist(),
            batch.column("bytes").to_pylist(),
            batch.column("fmt").to_pylist(),
        ):
            px = self.decode(data, fmt)
            acc.emit(image_id, px, fmt)
            acc.emit(image_id + "~b16",
                     ((px >> 1) << 1 | 1).astype(np.uint8), "b16")
        return acc.table()


class ImageResize:
    """Actor-pool stage: decode → nearest-neighbor resize → re-encode.

    Output keeps the IMAGES shape (bytes/w/h/fmt swapped for the resized
    payload) so resize stages compose with the sidecar pipeline.
    """

    def __init__(self, out_w: int = 32, out_h: int = 32, out_fmt: str = "png") -> None:
        self.out_w, self.out_h, self.out_fmt = out_w, out_h, out_fmt

    def _resize(self, px: np.ndarray) -> np.ndarray:
        h, w = px.shape[:2]
        yi = (np.arange(self.out_h) * h) // self.out_h
        xi = (np.arange(self.out_w) * w) // self.out_w
        return px[yi][:, xi]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, blobs, caps = [], [], []
        for image_id, data, fmt, cap in zip(
            batch.column("image_id").to_pylist(),
            batch.column("bytes").to_pylist(),
            batch.column("fmt").to_pylist(),
            batch.column("caption").to_pylist(),
        ):
            small = self._resize(codecs.decode(data, fmt))
            ids.append(image_id)
            blobs.append(codecs.encode(small, self.out_fmt))
            caps.append(cap)
        n = len(ids)
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array([self.out_w] * n, pa.int32()),
            "h": pa.array([self.out_h] * n, pa.int32()),
            "fmt": pa.array([self.out_fmt] * n, pa.string()),
            "caption": pa.array(caps, pa.string()),
        })


class LossyReencode:
    """Actor-pool stage: decode → re-encode through the deterministic lossy
    ``b16`` codec (the sandbox stand-in for a JPEG re-compression pass).
    Emits the IMAGES shape with ``image_id`` suffixed ``~b16`` — used to
    exercise perceptual near-dup detection on realistic near-(not-exact)
    duplicates."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, blobs, ws, hs, caps = [], [], [], [], []
        for image_id, data, fmt, cap in zip(
            batch.column("image_id").to_pylist(),
            batch.column("bytes").to_pylist(),
            batch.column("fmt").to_pylist(),
            batch.column("caption").to_pylist(),
        ):
            px = codecs.decode(data, fmt)
            ids.append(image_id + "~b16")
            blobs.append(codecs.encode(px, "b16"))
            hs.append(px.shape[0])
            ws.append(px.shape[1])
            caps.append(cap)
        n = len(ids)
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(["b16"] * n, pa.string()),
            "caption": pa.array(caps, pa.string()),
        })


# byte → popcount table: XOR distances sum 8 byte-lookups instead of the 64
# shift-mask passes they replaced (~8× less work in the verify kernel)
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                      axis=1).sum(axis=1).astype(np.int64)

# chunk-PAIR band index pairs: C(8,2) = 28 two-chunk (16-bit) bands
_CHUNK_PAIRS = [(b1, b2) for b1 in range(8) for b2 in range(b1 + 1, 8)]


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array via the byte LUT."""
    return _POP8[np.ascontiguousarray(x).view(np.uint8).reshape(-1, 8)].sum(axis=1)


# (band, chunk) buckets below this verify directly (vectorized triu is cheap
# and allocation-bounded at ~130k pairs); bigger buckets — the hot-key case
# where one popular chunk value funnels a large slice of the corpus into a
# single verify task — take the exact two-level split in _bucket_pairs.
_SPLIT_THRESH = 512


def _strip_band_bytes(u: np.ndarray, band: int, band_mode: str):
    """Drop the band's byte(s) from each uint64 hash, packing the remaining
    bits contiguously.  Returns (remainder, remainder_bit_width): 56 bits in
    ``chunk`` mode, 48 in ``chunk_pair``."""

    def drop_byte(x: np.ndarray, b: int) -> np.ndarray:
        low = x & np.uint64((1 << (8 * b)) - 1)
        if b == 7:
            # no bytes above byte 7: the general formula would shift by 64,
            # which is C-level UB — on x86/numpy it evaluates as >> 0 and
            # injects byte 0 into the high bits (masked today only because
            # callers consume <= 56 remainder bits; don't rely on it)
            return low
        high = (x >> np.uint64(8 * (b + 1))) << np.uint64(8 * b)
        return low | high

    if band_mode == "chunk":
        return drop_byte(u, band), 56
    b1, b2 = _CHUNK_PAIRS[band]
    return drop_byte(drop_byte(u, b2), b1), 48  # higher byte first


def _bucket_pairs(ph: np.ndarray, band: int, max_dist: int, band_mode: str):
    """All index pairs (i < j) with popcount(ph[i] ^ ph[j]) <= max_dist
    inside ONE (band, chunk) bucket; returns (i, j, dist) int64 arrays.

    Small buckets verify directly.  Buckets >= _SPLIT_THRESH are the hot-key
    tail (observed: one popular chunk value drew ~6.5k of 65k banding rows
    into a single 6 s task at sf0.1) and split EXACTLY in two steps:

    1. collapse identical hashes (np.unique) — intra-group pairs are dist-0
       by definition; cross pairs inherit their representatives' distance;
    2. re-band the unique representatives on 8 disjoint sub-chunks of the
       remainder bits (8x7 over the 56 non-band bits in ``chunk`` mode,
       8x6 over 48 in ``chunk_pair``).  Every differing bit of an in-bucket
       pair lives in the remainder, so a pair within max_dist (<= 7 resp.
       <= 6, both < 8) dirties at most max_dist sub-chunks and shares at
       least one clean one — the same pigeonhole as the outer banding, so
       NO false negatives.  Verify per sub-bucket, dedup multi-hit pairs.

    Cost drops from O(n^2) to O(sum of sub-bucket sizes squared) — about
    n^2/128 when the non-hot bits are spread — and the O(n^2) triu index
    allocation goes with it.  An adversarial bucket whose remainders also
    collide stays quadratic (any exact scheme must enumerate those pairs).
    """
    n = len(ph)
    if n < _SPLIT_THRESH:
        r, c = np.triu_indices(n, k=1)
        dist = _popcount64(ph[r] ^ ph[c])
        keep = dist <= max_dist
        return r[keep], c[keep], dist[keep]

    uniq, inv = np.unique(ph, return_inverse=True)
    u = len(uniq)
    order = np.argsort(inv, kind="stable")       # member indices grouped by rep
    counts = np.bincount(inv, minlength=u)
    starts = np.concatenate([[0], np.cumsum(counts)])

    out_r, out_c, out_d = [], [], []
    # 1) intra-identical-hash pairs: dist 0, pure output (no comparisons)
    for g in np.flatnonzero(counts >= 2):
        mem = np.sort(order[starts[g]:starts[g + 1]])
        rr, cc = np.triu_indices(len(mem), k=1)
        out_r.append(mem[rr])
        out_c.append(mem[cc])
        out_d.append(np.zeros(len(rr), np.int64))

    # 2) representative-level candidates via exact sub-chunk re-banding
    rem, width = _strip_band_bytes(uniq, band, band_mode)
    sub_bits = width // 8
    mask = np.uint64((1 << sub_bits) - 1)
    cand = []
    for j in range(8):
        key = ((rem >> np.uint64(sub_bits * j)) & mask).astype(np.int64)
        sidx = np.argsort(key, kind="stable")
        bounds = np.flatnonzero(np.diff(key[sidx])) + 1
        for seg in np.split(sidx, bounds):
            if len(seg) < 2:
                continue
            rr, cc = np.triu_indices(len(seg), k=1)
            lo = np.minimum(seg[rr], seg[cc])
            hi = np.maximum(seg[rr], seg[cc])
            d = _popcount64(uniq[lo] ^ uniq[hi])
            keep = d <= max_dist
            if keep.any():
                cand.append(np.stack([lo[keep], hi[keep], d[keep]], axis=1))

    if cand:
        pairs = np.concatenate(cand, axis=0)
        _, first = np.unique(pairs[:, 0] * u + pairs[:, 1], return_index=True)
        pairs = pairs[first]
        # vectorized member cross-product expansion of each rep pair
        cl, ch = counts[pairs[:, 0]], counts[pairs[:, 1]]
        reps = cl * ch
        p_idx = np.repeat(np.arange(len(pairs)), reps)
        t = np.arange(int(reps.sum())) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)[:-1]]), reps)
        a = order[starts[pairs[p_idx, 0]] + t // ch[p_idx]]
        b = order[starts[pairs[p_idx, 1]] + t % ch[p_idx]]
        out_r.append(np.minimum(a, b))
        out_c.append(np.maximum(a, b))
        out_d.append(pairs[p_idx, 2])

    if not out_r:
        z = np.array([], np.int64)
        return z, z, z
    return (np.concatenate(out_r), np.concatenate(out_c),
            np.concatenate(out_d))


def _phash_pairs(t: pa.Table, max_dist: int, band_mode: str) -> pa.Table:
    """The pairs within ``max_dist`` bits inside each (band, chunk) bucket of
    one ``phash_neardup`` partition."""
    t, new = runs.groups(t, ["band", "chunk"], ("image_id",))
    ids = t["image_id"].to_numpy(zero_copy_only=False)
    ph = t["phash"].to_numpy().view(np.uint64)
    band = t["band"].to_numpy()
    out = [(np.empty(0, np.int64),) * 3]
    for s, e in runs.spans(new, 2):
        # i < j on the id-sorted run keeps id_a < id_b; hot buckets take
        # the exact sub-chunk split instead of O(n^2) triu
        r, c, dist = _bucket_pairs(ph[s:e], int(band[s]), max_dist, band_mode)
        out.append((r + s, c + s, dist))
    r, c, dist = (np.concatenate(x) for x in zip(*out))
    return pa.table({"id_a": pa.array(ids[r], pa.string()),
                     "id_b": pa.array(ids[c], pa.string()),
                     "dist": pa.array(dist, pa.int64())})


def phash_neardup(images_ds: "rd.Dataset | None", max_dist: int = 7,
                  *, batch_size: int = 64,
                  concurrency: "int | tuple | str | None" = None,
                  stats_ds: "rd.Dataset | None" = None,
                  band_mode: str = "chunk") -> "rd.Dataset":
    """id_a, id_b, dist — image pairs whose 64-bit perceptual hashes differ
    in at most ``max_dist`` bits: near-duplicate detection over the decoded
    pixels (re-encodes, lossy round-trips), the image analog of MinHash-LSH.

    Plan: decode → phash per image (actor pool, the only stage that touches
    payload bytes) → band the 64-bit hash into 8 disjoint 8-bit chunks; by
    pigeonhole, any pair at distance ≤ 7 shares at least one exact chunk, so
    banding has NO false negatives at this threshold.  Candidate pairs come
    from a (band, chunk)-keyed groupby over (id, phash)-sized rows — image
    bytes never enter the shuffle — and are verified vectorized (XOR + LUT
    popcount) inside the group, where both phashes are already co-located; a
    coarse-partition pair-dedup collapses multi-band collisions.

    ``band_mode="chunk_pair"`` is the web-scale path: the C(8,2) = 28
    two-chunk bands of 16 bits (2^16 bucket values, so buckets are ~N/65536
    instead of ~N/256 — candidate verification shrinks ~256× on uniform
    hashes) at the price of a tighter no-false-negative guarantee: by
    pigeonhole it is exact for ``max_dist`` ≤ 6 (≤ 6 flipped bits dirty at
    most 6 of the 8 chunks, so some PAIR of chunks is clean).  Same shuffle
    shape; 28 key rows per image instead of 8."""
    from sidecar.ops.dedup import _dedup_pairs

    if band_mode not in ("chunk", "chunk_pair"):
        raise ValueError(f"unknown band_mode {band_mode!r}")
    if band_mode == "chunk_pair" and max_dist > 6:
        raise ValueError("chunk_pair banding is exact only for max_dist <= 6 "
                         "(pigeonhole over C(8,2) 16-bit bands)")
    if band_mode == "chunk" and max_dist > 7:
        raise ValueError("chunk banding is exact only for max_dist <= 7 "
                         "(pigeonhole over 8 disjoint 8-bit chunks)")

    # ``stats_ds`` lets a caller that already paid the decode (e.g.
    # prep_images' final-stats pass) reuse its (id, phash) manifest instead
    # of decoding the corpus a second time.
    if stats_ds is not None:
        stats = stats_ds
    else:
        stats = image_decode_stats(images_ds, batch_size=batch_size,
                                   concurrency=concurrency)

    def band_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        ph = batch.column("phash").to_numpy(zero_copy_only=False).astype(np.int64)
        u = ph.view(np.uint64)
        n = len(ids)
        byte = [((u >> np.uint64(8 * b)) & np.uint64(0xFF)).astype(np.int64)
                for b in range(8)]
        bands, chunks = [], []
        if band_mode == "chunk":
            for b in range(8):
                bands.append(np.full(n, b, dtype=np.int64))
                chunks.append(byte[b])
            n_bands = 8
        else:  # chunk_pair: 16-bit value of each of the C(8,2) chunk pairs
            for k, (b1, b2) in enumerate(_CHUNK_PAIRS):
                chunk = byte[b1] * 256 + byte[b2]
                bands.append(np.full(n, k, dtype=np.int64))
                chunks.append(chunk)
            n_bands = len(_CHUNK_PAIRS)
        return pa.table({
            "band": pa.array(np.concatenate(bands), pa.int64()),
            "chunk": pa.array(np.concatenate(chunks), pa.int64()),
            "image_id": pa.array(ids * n_bands, pa.string()),
            "phash": pa.array(np.tile(ph, n_bands), pa.int64()),
        })

    candidates = copartition(
        stats.map_batches(band_rows, batch_format="pyarrow", zero_copy_batch=True),
        ["band", "chunk"],
        functools.partial(_phash_pairs, max_dist=max_dist, band_mode=band_mode))
    return _dedup_pairs(candidates, a="id_a", b="id_b", extra_cols=("dist",))


def _pool_size(requested: "int | tuple | str") -> "int | tuple":
    """Actor-pool sizing for an explicit ``concurrency=`` request.  The
    sentinel ``"actors"`` asks for the default AUTOSCALING pool, (min=1,
    max=cpus-2): a fixed pool grabs its CPUs up front; with two multimodal
    pools in one pipeline fixed pools can hold every slot and starve the
    upstream read tasks — a scheduling deadlock (observed at num_cpus=8
    with two pools of 4).  min=1 keeps each pool alive while leaving slots
    for task operators (so co-scheduled pools always make progress), and
    max=cpus-2 lets a single-pool pipeline use the whole node."""
    if requested != "actors":
        return requested
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return (1, max(1, cpus - 2))


# Module-level stage singletons for the TASK-based default path: the only
# per-worker state these stages hold is the codec dispatch table, which the
# worker process imports once (ST1 semantics) — so a task pool uses every
# CPU immediately, while an autoscaling actor pool spends a ~3 s stage
# ramping from 1 actor and never reaches full width.  Pass ``concurrency=``
# to opt back into an actor pool when the decode state is actually heavy
# (real image libs, model warm-up).
_DECODE_STATS = ImageDecodeStats()
_LOSSY_REENCODE = LossyReencode()
_DECODE_STATS_B16 = ImageDecodeStatsWithB16()


def _decode_stats_batch(batch: pa.Table) -> pa.Table:
    return _DECODE_STATS(batch)


def _lossy_reencode_batch(batch: pa.Table) -> pa.Table:
    return _LOSSY_REENCODE(batch)


def _decode_stats_b16_batch(batch: pa.Table) -> pa.Table:
    return _DECODE_STATS_B16(batch)


def image_decode_stats_with_b16(images_ds: "rd.Dataset", *,
                                batch_size: int = 64,
                                concurrency: "int | tuple | str | None" = None,
                                ) -> "rd.Dataset":
    """Stats manifest of base ∪ lossy-b16-re-encode in ONE decode pass —
    row-equal to ``image_decode_stats(ds.union(lossy_reencode(ds)))`` (the
    fused-vs-literal test asserts it) at about half the payload compute.
    Feed as ``stats_ds=`` into :func:`phash_neardup` / the components
    sweep."""
    if concurrency is None:
        return images_ds.map_batches(
            _decode_stats_b16_batch, batch_format="pyarrow",
            batch_size=batch_size, zero_copy_batch=True)
    return images_ds.map_batches(
        ImageDecodeStatsWithB16,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
        concurrency=_pool_size(concurrency),
    )


def image_decode_stats(images_ds: "rd.Dataset", *, batch_size: int = 64,
                       concurrency: "int | tuple | str | None" = None) -> "rd.Dataset":
    """IMAGES Dataset → decode-stats Dataset (task pool by default; actor
    pool when ``concurrency`` is given)."""
    if concurrency is None:
        return images_ds.map_batches(
            _decode_stats_batch, batch_format="pyarrow",
            batch_size=batch_size, zero_copy_batch=True)
    return images_ds.map_batches(
        ImageDecodeStats,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
        concurrency=_pool_size(concurrency),
    )


def _gradient_images_batch(batch: pa.Table) -> pa.Table:
    """doc_id → deterministic constant-gradient IMAGES rows for the
    hash-exact decode oracle (VERDICT r4 #6): image ``img-{d}`` is
    ``h = 8 + d%5`` by ``w = 8 + (d//5)%5``, channel ch's pixel at row r is
    ``base_ch + r`` with ``base = (d%200, 7d%200, 13d%200)`` (max 210, no
    wrap), encoded with the real codec ``('png','ppm','b16')[d%3]``.  Channel
    sums after decode are closed-form integers — for the lossless fmts
    ``w*(h*base + h(h-1)/2)``; for b16 the quantization identity (v → v|1,
    codecs.decode_b16) adds one per even value, i.e. ``w * ((h+1)//2)`` when
    base is even else ``w * (h//2)`` — so a DuckDB oracle reproduces the
    whole stats row from doc_id arithmetic while the Ray side runs the REAL
    encode → decode → stats path."""
    ids = batch.column("doc_id").to_pylist()
    img_ids, data, fmts = [], [], []
    for d in ids:
        h, w = 8 + d % 5, 8 + (d // 5) % 5
        base = np.array([d % 200, (7 * d) % 200, (13 * d) % 200], np.int64)
        px = (base[None, None, :]
              + np.arange(h, dtype=np.int64)[:, None, None]
              + np.zeros((1, w, 1), np.int64)).astype(np.uint8)
        fmt = ("png", "ppm", "b16")[d % 3]
        img_ids.append(f"img-{d}")
        data.append(codecs.encode(px, fmt))
        fmts.append(fmt)
    return pa.table({
        "image_id": pa.array(img_ids, pa.string()),
        "bytes": pa.array(data, pa.binary()),
        "fmt": pa.array(fmts, pa.string()),
    })


def image_stats_exact(sf_dir: str, *, batch_size: int = 64) -> "rd.Dataset":
    """image_id, w, h, fmt, sum_r, sum_g, sum_b — the REAL decode-stats
    stage (ST8: codecs.decode per fmt inside map_batches) over deterministic
    constant-gradient payloads built from ``documents.doc_id``, projected to
    the integer-exact columns a SQL oracle can derive in closed form (phash
    is a DCT hash — not SQL-expressible; it keeps pixel-exact pytest
    coverage instead).  The driver-exact twin of the rows-only
    ``multimodal_image_stats``, giving the decode path a hash-exact
    CORRECTNESS row (VERDICT r4 #6)."""
    from sidecar.storage import read_parquet_clean

    imgs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=["doc_id"]).map_batches(
        _gradient_images_batch, batch_format="pyarrow",
        batch_size=batch_size, zero_copy_batch=True)
    stats = image_decode_stats(imgs, batch_size=batch_size)

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_

        return pa.table({
            "image_id": batch.column("image_id"),
            "w": pc_.cast(batch.column("w"), pa.int64()),
            "h": pc_.cast(batch.column("h"), pa.int64()),
            "fmt": batch.column("fmt"),
            "sum_r": batch.column("sum_r"),
            "sum_g": batch.column("sum_g"),
            "sum_b": batch.column("sum_b"),
        })

    return stats.map_batches(project, batch_format="pyarrow",
                             zero_copy_batch=True)


def lossy_reencode(images_ds: "rd.Dataset", *, batch_size: int = 64,
                   concurrency: "int | tuple | str | None" = None) -> "rd.Dataset":
    """IMAGES Dataset → its deterministic lossy (b16) re-encodes, ids
    suffixed ``~b16`` — union with the input to exercise near-dup search."""
    if concurrency is None:
        return images_ds.map_batches(
            _lossy_reencode_batch, batch_format="pyarrow",
            batch_size=batch_size, zero_copy_batch=True)
    return images_ds.map_batches(
        LossyReencode,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
        concurrency=_pool_size(concurrency),
    )


def image_resize(images_ds: "rd.Dataset", out_w: int = 32, out_h: int = 32,
                 *, batch_size: int = 64,
                 concurrency: "int | tuple | str | None" = None) -> "rd.Dataset":
    if concurrency is None:
        stage = ImageResize(out_w=out_w, out_h=out_h)
        return images_ds.map_batches(
            lambda b, _s=stage: _s(b), batch_format="pyarrow",
            batch_size=batch_size, zero_copy_batch=True)
    return images_ds.map_batches(
        ImageResize,
        fn_constructor_kwargs={"out_w": out_w, "out_h": out_h},
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
        concurrency=_pool_size(concurrency),
    )


def phash_components(images_ds: "rd.Dataset | None", max_dist: int = 7,
                     *, batch_size: int = 64,
                     concurrency: "int | tuple | str | None" = None,
                     stats_ds: "rd.Dataset | None" = None,
                     band_mode: str = "chunk") -> "pa.Table":
    """image_id, component_id — connected components over the perceptual
    near-dup pair graph (``phash_neardup``): the cluster-assembly step that
    turns pairwise phash hits into image dedup groups, the image mirror of
    ``dedup.lsh_components``.  ``component_id`` = lexicographic min image_id
    reachable.

    The clusters come from ``dedup.connected_components``.
    """
    from sidecar.ops.dedup import connected_components

    pairs = phash_neardup(images_ds, max_dist,
                          batch_size=batch_size, concurrency=concurrency,
                          stats_ds=stats_ds, band_mode=band_mode)
    return connected_components(pairs, "id_a", "id_b",
                                "image_id", "component_id", pa.string())
