"""Deduplication operators over the ``documents`` / ``embeddings`` tables:
exact (hash-partition + per-group first), MinHash+LSH, SimHash, n-gram
Jaccard, and embedding-cosine near-dup.

These generalize the reference's only dedup mechanism — the per-run
DIGEST_CACHE exact work-dedup keyed by WARC-Payload-Digest
(warc_metadata_sidecar.py:39,231-246) — into the family of dedup operators a
training-data pipeline needs.  Hash formulas are md5-based so the DuckDB
oracle computes the *identical* signature (``md5('{p}|{shingle}')``); in a
production deployment the hash is pluggable (xxhash64 is ~20x faster) but the
shuffle plans below are unchanged.

Scale notes (100 TB):
- Every operator here shuffles only (key, doc_id)-sized rows — never the
  document text or image bytes (SURVEY.md §7 watch-list #3 applies to dedup
  keys exactly as to frontier rows).
- MinHash/LSH is the scale path for near-dup: the all-pairs stages
  (``ngram_jaccard_pairs``, ``embedding_near_dup``) are exact oracles whose
  candidate generation is an inverted-index shuffle; hot keys (a shingle in d
  docs emits O(d^2) pairs) are bounded via ``max_df`` in production — left
  None here for oracle parity.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from sidecar import runs, shuffle
from sidecar.ops.similarity import _emb_matrix, _unit_rows
from sidecar.ops.text import read_documents
from sidecar.shuffle import copartition
from sidecar.storage import read_parquet_clean

NUM_PERMS = 8     # minhash permutations (p = 0..7)
NUM_BANDS = 4     # LSH bands of ROWS_PER_BAND signature rows each
ROWS_PER_BAND = NUM_PERMS // NUM_BANDS
SHINGLE_K = 3     # word 3-grams


def _shingles(text: str) -> list[str]:
    """Distinct word-k-gram shingles; '' for docs shorter than k tokens.

    Token semantics = split on a single space, matching the DuckDB oracle's
    ``string_split(text, ' ')`` bit-for-bit.
    """
    w = (text or "").split(" ")
    return sorted({" ".join(w[i : i + SHINGLE_K]) for i in range(len(w) - SHINGLE_K + 1)})


_PERM_PREFIX = tuple(f"{p}|".encode() for p in range(NUM_PERMS))


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — vectorized uint64 avalanche (wrapping mults)."""
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


# distinct 64-bit salts, one per permutation (splitmix stream over a fixed
# seed — deterministic across processes, no RNG state)
_PERM_SALTS = _mix64(np.arange(1, NUM_PERMS + 1, dtype=np.uint64)
                     * np.uint64(0xA24BAED4963EE407))


def _sig_md5(shingles: list[str]) -> list[str]:
    """min-of-md5 signature, one hex string per permutation.

    Output == min(md5(f"{p}|{s}").hexdigest()) per p (the DuckDB oracle
    formula), computed ~2x faster: each shingle is utf-8-encoded once, the
    min runs over 16-byte digests (hex encoding is byte-monotone, so digest
    order == hexdigest order), and only the NUM_PERMS winners are
    hex-encoded."""
    md5 = hashlib.md5
    enc = [s.encode() for s in shingles]
    return [min(md5(pre + sb).digest() for sb in enc).hex()
            for pre in _PERM_PREFIX]


def md5_u64(strings) -> np.ndarray:
    """First 8 bytes of md5 as a big-endian uint64 array — THE string→64-bit
    key primitive shared by the splitmix minhash base hash and the jaccard
    shingle df/index keys below — one definition so truncation width and
    endianness can never drift between the families."""
    md5 = hashlib.md5
    return np.fromiter(
        (int.from_bytes(md5(s.encode()).digest()[:8], "big")
         for s in strings), dtype=np.uint64, count=len(strings))


def _sig_splitmix(shingles: list[str]) -> list[str]:
    """One-hash + cheap-permutations minhash (the production family): each
    shingle is md5-hashed ONCE to a 64-bit base value; permutation p's hash
    is splitmix64(base ^ salt_p), all NUM_PERMS x |shingles| values in one
    vectorized numpy pass.  ~NUM_PERMS x fewer digest computations than the
    md5 family; NOT SQL-expressible, so oracle paths keep md5."""
    vals = _mix64(md5_u64(shingles)[None, :] ^ _PERM_SALTS[:, None])  # P x |sh|
    return [f"{int(v):016x}" for v in vals.min(axis=1)]


# Pluggable minhash hash family registry (SURVEY §2.9-style extension
# point): a family maps the shingle list to NUM_PERMS comparable hex
# strings.  "md5" is the default everywhere an oracle exists — the DuckDB
# twin models min(md5(p||'|'||s)) exactly; register alternatives here (the
# banding / pair stages are family-agnostic: they only concatenate and
# re-hash the hex strings).
MINHASH_FAMILIES: dict = {"md5": _sig_md5, "splitmix64": _sig_splitmix}


def _minhash_sig(shingles: list[str],
                 family: str = "md5") -> list[str] | None:
    """Signature via the named MINHASH_FAMILIES entry; None for docs with
    no shingles (shorter than SHINGLE_K tokens)."""
    if not shingles:
        return None
    return MINHASH_FAMILIES[family](shingles)


# ---------------------------------------------------------------- exact dedup

def fp_rows_batch(batch: pa.Table) -> pa.Table:
    """(fp, doc_id) rows: md5 content fingerprint per document — the ONE
    definition shared by exact_dedup and prep_corpus's stage 2.  Both
    co-partition on fp, so the exchange moves rows by a coarse hash and the
    per-fp grouping runs vectorized inside each task."""
    md5 = hashlib.md5
    fps = [md5((t or "").encode()).hexdigest()
           for t in batch.column("text").to_pylist()]
    return pa.table({"fp": pa.array(fps, pa.string()),
                     "doc_id": batch.column("doc_id")})


def exact_dedup(sf_dir: str) -> "rd.Dataset":
    """fp, keep_doc_id, n_dups — hash-partition by content fingerprint, keep
    the min doc_id per group (the distributed DIGEST_CACHE: groupby moves only
    (fp, doc_id) rows, one representative survives per distinct
    payload; the per-fp min/count runs vectorized inside each partition)."""

    def fp_agg(t: pa.Table) -> pa.Table:
        g = t.group_by("fp", use_threads=False).aggregate(
            [("doc_id", "min"), ("doc_id", "count")])
        return g.select(["fp", "doc_id_min", "doc_id_count"]) \
            .rename_columns(["fp", "keep_doc_id", "n_dups"])

    return copartition(
        read_documents(sf_dir).map_batches(
            fp_rows_batch, batch_format="pyarrow", zero_copy_batch=True),
        "fp", fp_agg)


# ------------------------------------------------------------- minhash + LSH

def minhash_signatures(sf_dir: str, family: str = "md5") -> "rd.Dataset":
    """doc_id, mh0..mh{P-1} — minhash signature per doc (docs with <k
    tokens are dropped, matching the oracle's empty generate_series).
    ``family`` picks the MINHASH_FAMILIES hash; only "md5" is
    oracle-modeled."""

    def f(batch: pa.Table) -> pa.Table:
        ids, sigs = [], []
        for doc_id, text in zip(batch.column("doc_id").to_pylist(),
                                batch.column("text").to_pylist()):
            sig = _minhash_sig(_shingles(text), family)
            if sig is not None:
                ids.append(doc_id)
                sigs.append(sig)
        cols = {"doc_id": pa.array(ids, pa.int64())}
        for p in range(NUM_PERMS):
            cols[f"mh{p}"] = pa.array([s[p] for s in sigs], pa.string())
        return pa.table(cols)

    return read_documents(sf_dir).map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def _pairs_within(g: pa.Table, keys: list[str], ids: str = "doc_id",
                  out: tuple[str, str] = ("doc_a", "doc_b")) -> pa.Table:
    """All (a < b) pairs of ``ids`` sharing a value of ``keys``, fine-grouped
    INSIDE one task — the groupby that reaches Ray uses only a coarse
    partition key, because per-group Python dispatch over thousands of tiny
    groups dominates wall time otherwise (measured 21s → ~3s at sf0.1).

    The in-task grouping is the runs of ``g`` sorted by (keys, ids): at soak
    scale one partition holds ~10^5 mostly-singleton groups, and only the
    rare ≥2-member runs reach Python.  Null-key rows drop, as in a pandas
    groupby."""
    g, new = runs.groups(g, keys, (ids,))
    v = g.column(ids).to_numpy()
    a, b = [], []
    for s, e in runs.spans(new, 2):
        r, c = np.triu_indices(e - s, k=1)
        a.append(v[s:e][r])
        b.append(v[s:e][c])
    return pa.table({out[0]: pa.array(np.concatenate(a) if a else [], pa.int64()),
                     out[1]: pa.array(np.concatenate(b) if b else [], pa.int64())})


def _dedup_pairs(pairs_ds: "rd.Dataset", a: str = "doc_a", b: str = "doc_b",
                 extra_cols: tuple[str, ...] = ()) -> "rd.Dataset":
    """Distinct (a,b) pairs via a group_by inside each (a, b)
    co-partition: the shuffle has about one group per CPU regardless of
    pair count and dedup runs vectorized per partition.  ``extra_cols`` ride
    along (first value per pair wins — identical across dups here)."""

    def drop_dups(t: pa.Table) -> pa.Table:
        return t.group_by([a, b], use_threads=False).aggregate(
            [(c, "first") for c in extra_cols]).rename_columns([a, b, *extra_cols])

    return copartition(pairs_ds, [a, b], drop_dups)


def bucketize_batch(batch: pa.Table, family: str = "md5") -> pa.Table:
    """(band, bucket, doc_id) LSH banding rows — the ONE banding
    definition shared by minhash_lsh_pairs and prep_corpus's stage 3 (both
    DuckDB oracles assume the identical md5 formulas; ``family`` swaps the
    signature hash — banding itself is family-agnostic, it concatenates and
    re-hashes the hex strings)."""
    md5 = hashlib.md5
    bands, buckets, ids = [], [], []
    for doc_id, text in zip(batch.column("doc_id").to_pylist(),
                            batch.column("text").to_pylist()):
        sig = _minhash_sig(_shingles(text), family)
        if sig is None:
            continue
        for b in range(NUM_BANDS):
            chunk = sig[b * ROWS_PER_BAND : (b + 1) * ROWS_PER_BAND]
            digest = md5("|".join(chunk).encode()).hexdigest()
            bands.append(b)
            buckets.append(digest)
            ids.append(doc_id)
    return pa.table({
        "band": pa.array(bands, pa.int64()),
        "bucket": pa.array(buckets, pa.string()),
        "doc_id": pa.array(ids, pa.int64()),
    })


def minhash_lsh_pairs(sf_dir: str, family: str = "md5") -> "rd.Dataset":
    """doc_a, doc_b — distinct candidate near-dup pairs from LSH banding:
    shingle → minhash → band-bucket → coarse-partition groupby → pairs.

    The banding shuffle carries only (band, bucket, doc_id); the Ray
    groupby key is a coarse bucket-hash partition (about one per CPU) and
    the exact (band, bucket) grouping happens vectorized inside each task.
    Pair explosion inside one bucket is the skew to watch — buckets are
    md5-uniform unless the corpus has true duplicate clusters, which are
    exactly the rows we want co-located.  ``family`` swaps the signature
    hash (MINHASH_FAMILIES); "md5" is the oracle default, "splitmix64" the
    one-hash-many-permutations production family.
    """
    bands = read_documents(sf_dir).map_batches(
        functools.partial(bucketize_batch, family=family),
        batch_format="pyarrow", zero_copy_batch=True)
    candidates = copartition(
        bands, "bucket", lambda g: _pairs_within(g, ["band", "bucket"]))
    return _dedup_pairs(candidates)


# -------------------------------------------------------------------- simhash

def simhash(sf_dir: str) -> "rd.Dataset":
    """doc_id, simhash — 64-bit simhash as an MSB-first '0'/'1' bitstring.

    Per shingle: v = first 16 hex chars of md5(shingle) read as a big-endian
    uint64; bit j (j=0 is the MSB) votes +1 if set else -1; simhash bit j is
    '1' iff the vote sum is > 0.  The bitstring (not an int) keeps the value
    in a type both Arrow and DuckDB hash identically (no uint64/int64 clash).
    """

    def f(batch: pa.Table) -> pa.Table:
        md5 = hashlib.md5
        ids, hashes = [], []
        for doc_id, text in zip(batch.column("doc_id").to_pylist(),
                                batch.column("text").to_pylist()):
            sh = _shingles(text)
            if not sh:
                continue
            vs = np.array(
                [int(md5(s.encode()).hexdigest()[:16], 16) for s in sh], dtype=np.uint64
            )
            shifts = np.arange(63, -1, -1, dtype=np.uint64)        # j=0 → MSB
            bits = (vs[:, None] >> shifts[None, :]) & np.uint64(1)  # |sh| x 64
            votes = (2 * bits.astype(np.int64) - 1).sum(axis=0)
            ids.append(doc_id)
            hashes.append("".join("1" if v > 0 else "0" for v in votes))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "simhash": pa.array(hashes, pa.string())})

    return read_documents(sf_dir).map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------------------ n-gram jaccard

def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.5,
                        max_df: int | None = None) -> "rd.Dataset":
    """doc_a, doc_b, jaccard — EXACT word-3-gram Jaccard similarity join at
    ``jaccard >= threshold``, via prefix filtering (Bayardo/PPJoin):

    Any pair with jac >= t must share a shingle within each doc's PREFIX —
    its first ``|A| - ceil(t*|A|) + 1`` shingles under a global total order
    (proof: jac >= t ⇒ |A∩B| = jac·|A∪B| >= t·|A|; if the intersection
    avoided A's prefix it would fit in the ceil(t|A|)-1 suffix — too small).
    Ordering shingles rarest-document-frequency-first makes prefix shingles
    the RARE ones, so the inverted-index shuffle carries only prefix rows
    and candidate groups stay tiny even on densely co-occurring corpora —
    the naive plan (index every shingle, count pairs globally) materializes
    every co-occurring pair and measured ~220 s at sf0.1; this plan, ~8 s,
    identical output.

    Stages: (1) shingle document frequencies (per-batch partial Counter →
    driver merge → ray.put — the df table is vocab-sized); (2) prefix rows
    (shingle, doc) → coarse-partition groupby → within-group candidate
    pairs, deduped; (3) exact verification via TWO hash-partitioned joins:
    the pair list joins per-doc shingle sets on doc_a, then re-partitions on
    doc_b and joins again — shingle sets are shuffled ONLY for docs that
    appear in a candidate pair (the driver holds candidate doc_ids, never a
    shingle set; nothing corpus-sized is materialized or broadcast).
    jaccard = i/(|A|+|B|-i) as an exact int-ratio double, bit-equal to the
    DuckDB oracle.

    ``max_df`` additionally drops ultra-hot shingles from the index (the
    production knob for adversarial corpora; None = exact, for the oracle —
    note prefix filtering keeps the default EXACT, unlike the old plan
    where exactness forced the quadratic path).  The df values the gate
    compares against are keyed by the 64-bit shingle hash, so a collision
    (probability ~n²/2⁶⁴ over the vocab) can merge two shingles' counts and
    push one past ``max_df`` — the pruning knob is approximate at that
    granularity.  Keep ``max_df=None`` on oracle paths; the default output
    stays hash-collision-proof because stage 3 verifies true jaccard.
    """
    from collections import Counter

    docs = read_documents(sf_dir)

    # stage 1: global shingle document frequencies, keyed by a 64-bit md5
    # hash of the shingle.  Three scale decisions, all exactness-preserving:
    # - the reduce shuffle carries (h, p_df) int rows — shipping the
    #   25-char shingle STRINGS measured 43-58 s of row-repack per pass;
    # - only df >= 2 entries reach the driver (a df-1 shingle can never
    #   join two docs; absent hashes default to df=1 in the order key);
    # - the broadcast is a sorted (hash, df) numpy pair probed with
    #   searchsorted, never a Python dict (4.5M dict inserts measured 81 s
    #   on the driver at 1M docs).
    # Hashing is safe for EXACTNESS: prefix filtering is exact under ANY
    # total order every task shares — rarest-first is a performance
    # heuristic — so a 64-bit collision merely merges two shingles' df and
    # the order stays consistent.  Candidate bucketing below groups on the
    # same 64-bit shingle hash; a collision can only ADD candidate pairs,
    # which stage-3 exact verification filters back out.
    _sh_hash = md5_u64  # the shared string→uint64 key primitive

    def partial_df(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            c.update(_shingles(t))
        hs = _sh_hash(list(c.keys()))
        return pa.table({
            "h": pa.array(hs, pa.uint64()),
            "p_df": pa.array(list(c.values()), pa.int64()),
        })

    def reduce_df(t: pa.Table) -> pa.Table:
        g = t.group_by("h", use_threads=False).aggregate([("p_df", "sum")]) \
            .rename_columns(["h", "df"])
        return g.filter(pc.greater_equal(g["df"], 2))

    hs_l, df_l = [], []
    for b in copartition(
            docs.map_batches(partial_df, batch_format="pyarrow",
                             zero_copy_batch=True),
            "h", reduce_df
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        t = b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        if t.num_rows:
            hs_l.append(t.column("h").to_numpy(zero_copy_only=False)
                        .astype(np.uint64))
            df_l.append(t.column("df").to_numpy(zero_copy_only=False)
                        .astype(np.int64))
    if hs_l:
        hs_all = np.concatenate(hs_l)
        df_all = np.concatenate(df_l)
        order = np.argsort(hs_all)
        df_ref = ray.put((hs_all[order], df_all[order]))
    else:
        df_ref = ray.put((np.empty(0, dtype=np.uint64),
                          np.empty(0, dtype=np.int64)))

    # stage 2: prefix rows only — rarest-df-first order, tie-broken by the
    # shingle string (a total order shared by every task)
    import math

    def prefix_rows(batch: pa.Table) -> pa.Table:
        hs_sorted, df_sorted = ray.get(df_ref)
        ids, ss = [], []
        for doc_id, text in zip(batch.column("doc_id").to_pylist(),
                                batch.column("text").to_pylist()):
            sh = _shingles(text)  # lexicographically sorted
            if not sh:
                continue
            hd = _sh_hash(sh)
            if len(hs_sorted):
                pos = np.searchsorted(hs_sorted, hd)
                pos[pos >= len(hs_sorted)] = 0
                df = np.where(hs_sorted[pos] == hd, df_sorted[pos], 1)
            else:
                df = np.ones(len(sh), dtype=np.int64)
            if max_df is not None:
                keep = df <= max_df
                sh = [x for x, k in zip(sh, keep) if k]
                df = df[keep]
                if not sh:
                    continue
            # stable argsort over df of the lex-sorted shingles == the
            # (df, shingle) total order every other task derives
            order = np.argsort(df, kind="stable")
            k = len(sh) - math.ceil(threshold * len(sh)) + 1
            for i in order[:k]:
                ids.append(doc_id)
                ss.append(int(hd[i]))
        # the inverted index carries the 64-bit shingle HASH, not the
        # string (21M prefix rows at 1M docs — the string payload was the
        # dominant shuffle cost).  A hash collision can only ADD a
        # candidate pair, and stage 3 verifies true jaccard on the real
        # shingle sets, so the OUTPUT is hash-collision-proof.
        return pa.table({"s": pa.array(ss, pa.uint64()),
                         "doc_id": pa.array(ids, pa.int64())})

    candidates = _dedup_pairs(copartition(
        docs.map_batches(prefix_rows, batch_format="pyarrow",
                         zero_copy_batch=True),
        "s", lambda g: _pairs_within(g, ["s"])))

    # stage 3: exact verification — the ONLY driver-held state is the set of
    # candidate doc_ids (int64, bounded by candidate count); shingle sets are
    # re-derived shuffle-side and ship only for those docs, through two
    # hash-partitioned joins (doc_a, then doc_b).
    # small: surviving pairs only — repartitioned down so the verification
    # plan below doesn't inherit the corpus's 256-block lineage (a few
    # thousand near-empty tasks measured ~40 s of pure scheduling overhead)
    candidates = candidates.repartition(8).materialize()
    cand_ids: set[int] = set()
    for b in candidates.iter_batches(batch_format="pyarrow", batch_size=None):
        cand_ids.update(b.column("doc_a").to_pylist())
        cand_ids.update(b.column("doc_b").to_pylist())
    cid_ref = ray.put(np.fromiter(sorted(cand_ids), dtype=np.int64,
                                  count=len(cand_ids)))

    sh_list_t = pa.list_(pa.string())

    def cand_set_rows(batch: pa.Table) -> pa.Table:
        """(doc_id, shingles) rows for candidate docs only (np.isin filter)."""
        cids = ray.get(cid_ref)
        ids_np = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = np.isin(ids_np, cids)
        ids_l, shs = [], []
        for doc_id, text, k in zip(batch.column("doc_id").to_pylist(),
                                   batch.column("text").to_pylist(), keep):
            if k:
                ids_l.append(doc_id)
                shs.append(_shingles(text))
        return pa.table({"doc_id": pa.array(ids_l, pa.int64()),
                         "sh": pa.array(shs, sh_list_t)})

    # materialized: candidate-bounded output, consumed by BOTH joins below —
    # without this the full corpus would be re-read and re-shingled per join
    set_rows_ds = docs.map_batches(cand_set_rows, batch_format="pyarrow",
                                   zero_copy_batch=True) \
        .repartition(8).materialize()  # candidate-bounded, same reason

    def join_on_a(sets: pa.Table, pairs: pa.Table) -> pa.Table:
        """Attach sh_a to each pair (the second join re-keys on doc_b)."""
        built = dict(zip(sets.column("doc_a").to_pylist(),
                         sets.column("sh").to_pylist()))
        return pa.table({
            "doc_a": pairs.column("doc_a"),
            "doc_b": pairs.column("doc_b"),
            "sh": pa.array([built[a] for a in pairs.column("doc_a").to_pylist()],
                           sh_list_t),
        })

    def join_on_b(sets: pa.Table, half: pa.Table) -> pa.Table:
        """Intersect sh_a (riding with the pair) against sh_b (set rows)."""
        built = {b: frozenset(s) for b, s in zip(sets.column("doc_b").to_pylist(),
                                                 sets.column("sh").to_pylist())}
        out_a, out_b, out_j = [], [], []
        for a, b, s in zip(half.column("doc_a").to_pylist(),
                           half.column("doc_b").to_pylist(),
                           half.column("sh").to_pylist()):
            A, B = frozenset(s), built[b]
            i = len(A & B)
            jac = i / (len(A) + len(B) - i)
            if jac >= threshold:
                out_a.append(a)
                out_b.append(b)
                out_j.append(jac)
        return pa.table({"doc_a": pa.array(out_a, pa.int64()),
                         "doc_b": pa.array(out_b, pa.int64()),
                         "jaccard": pa.array(out_j, pa.float64())})

    half = copartition(
        [set_rows_ds.rename_columns({"doc_id": "doc_a"}), candidates],
        "doc_a", join_on_a)
    return copartition(
        [set_rows_ds.rename_columns({"doc_id": "doc_b"}), half],
        "doc_b", join_on_b)


# ------------------------------------------------- embedding-cosine near-dup

def _normalized_embeddings(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """(ids, row-normalized float64 matrix) for the small broadcast side."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
    E = _emb_matrix(t.column("embedding"))
    if E is None:
        return ids, np.empty((0, 0), dtype=np.float64)
    return ids, _unit_rows(E)


def embedding_near_dup(sf_dir: str, threshold: float = 0.4, *,
                       num_blocks: int = 8) -> "rd.Dataset":
    """vec_a, vec_b — pairs with cosine similarity >= threshold (EXACT).

    The plan is picked from the footer's num_rows × the dim of ONE probed
    row: the full normalized float64 matrix (num_rows × dim × 8 bytes) is
    broadcast while that is within ``shuffle.BROADCAST_MAX_BYTES`` — one
    row read to decide, never the corpus.  An empty corpus takes the
    partitioned plan (0 rows out; the broadcast build would matmul a 0-row
    matrix on the driver).

    Broadcast plan: the full normalized matrix replicated once via
    ``ray.put``, each task matmuls its batch against it.

    Partitioned plan: block-PAIR co-partitioned exact cosine.  Vectors hash
    into ``num_blocks`` blocks by vec_id; each vector is replicated to the
    ``num_blocks`` unordered block pairs containing its block, one shuffle
    keyed by pair id, and each group matmuls side i against side j (upper
    triangle when i == j).  A pair (a, b) lands in exactly one group, so no
    pair dedup is needed.  Shuffle volume is N x num_blocks rows and peak
    task memory is ~2N/num_blocks vectors: pick num_blocks so a block fits
    a worker — nothing is ever broadcast or driver-materialized, at any
    corpus size (100M x 64-f32 ≈ 25 GB is far past broadcast range).

    Both paths emit the same pair set against the same DuckDB oracle on
    any corpus with no threshold-boundary pairs; the scores are float64
    matmuls whose BLAS summation order can differ BETWEEN plans by ~1 ulp,
    so a pair with |cos − threshold| within ~1e-15 could in principle flip
    on another BLAS build — the twin test asserts the synth corpora keep a
    real margin (see test_embedding_near_dup_broadcast_twin_equal).
    """
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    n = pf.metadata.num_rows
    fits = False
    if n:
        # ONE row (page-granular read), not a whole row group — at the
        # scale the limit exists to protect, row group 0 alone can be
        # hundreds of MB
        first = next(pf.iter_batches(batch_size=1, columns=["embedding"]))
        dim = len(first.column("embedding")[0].as_py())
        fits = n * dim * 8 <= shuffle.BROADCAST_MAX_BYTES
    if fits:
        ids, N = _normalized_embeddings(sf_dir)
        mat_ref = ray.put((ids, N))

        def f(batch: pa.Table) -> pa.Table:
            all_ids, Nn = ray.get(mat_ref)
            bids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
            B = _emb_matrix(batch.column("embedding"))
            if B is None:  # empty block
                return pa.table({"vec_a": pa.array([], pa.int64()),
                                 "vec_b": pa.array([], pa.int64())})
            S = _unit_rows(B) @ Nn.T
            r, c = np.nonzero(S >= threshold)
            a, b = bids[r], all_ids[c]
            keep = a < b  # each unordered pair once; drops self-pairs
            return pa.table({"vec_a": pa.array(a[keep], pa.int64()),
                             "vec_b": pa.array(b[keep], pa.int64())})

        return (
            read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
            .map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
        )

    P = num_blocks

    def replicate(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        blk = ids % P
        emb = batch.column("embedding")
        n = len(ids)
        keys, blocks, take = [], [], []
        for o in range(P):
            lo = np.minimum(blk, o)
            hi = np.maximum(blk, o)
            keys.append(lo * P + hi)
            blocks.append(blk)
            take.append(np.arange(n))
        return pa.table({
            "pairkey": pa.array(np.concatenate(keys), pa.int64()),
            "block": pa.array(np.concatenate(blocks), pa.int64()),
            "vec_id": pa.array(np.tile(ids, P), pa.int64()),
            "embedding": emb.take(pa.array(np.concatenate(take), pa.int64())),
        })

    def cross(g: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        i, j = divmod(g["pairkey"][0].as_py(), P)
        ids = g["vec_id"].to_numpy()
        E = _unit_rows(_emb_matrix(g["embedding"]))
        if i == j:
            S = E @ E.T
            r, c = np.nonzero(S >= threshold)
            a, b = ids[r], ids[c]
            keep = a < b
        else:
            mi = g["block"].to_numpy() == i
            Si = E[mi] @ E[~mi].T
            r, c = np.nonzero(Si >= threshold)
            a0, b0 = ids[mi][r], ids[~mi][c]
            a, b = np.minimum(a0, b0), np.maximum(a0, b0)
            keep = np.ones(len(a), dtype=bool)
        return a[keep], b[keep]

    def cross_pairs(t: pa.Table) -> pa.Table:
        # one matmul per block pair in this partition: the loop runs over at
        # most num_blocks·(num_blocks+1)/2 block-sized groups, never per row
        t, new = runs.groups(t, ["pairkey"])
        a, b = zip(*(cross(t.slice(s, e - s)) for s, e in runs.spans(new)))
        return pa.table({"vec_a": pa.array(np.concatenate(a), pa.int64()),
                         "vec_b": pa.array(np.concatenate(b), pa.int64())})

    return copartition(
        read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"])
        .map_batches(replicate, batch_format="pyarrow", zero_copy_batch=True),
        "pairkey", cross_pairs)


def embedding_near_dup_lsh(sf_dir: str, threshold: float = 0.4,
                           k_planes: int = 4, n_tables: int = 8,
                           seed: int = 42) -> "rd.Dataset":
    """Scale variant: multi-table random-hyperplane LSH → within-bucket exact
    cosine → pair dedup.  L tables of k planes each (recall ≈
    1-(1-p^k)^L, p = 1 - angle/π): a vector lands in L buckets; pairs are
    found if they collide in ANY table.  Approximate — recall vs the exact
    ``embedding_near_dup`` is asserted in tests; rows-only driver check.

    No shuffle ever carries embeddings in the default plan.  Measured at
    1M × 64: Ray's range-partition sort moves embedding-bearing rows at
    ~6 MB/core-s (list-array blocks repack row-wise), so shipping vectors
    through the banding groupby dominated everything else 10×.  Instead:

    1. banding shuffle of (table, bucket, vec_id) rows only;
    2. buckets with ≥2 members → candidate vec_id set (linear-bounded);
    3. candidate embeddings are gathered ONCE into a row-normalized float64
       matrix, broadcast via ``ray.put`` while it fits 4 ×
       ``shuffle.BROADCAST_MAX_BYTES``, and candidate pairs (ids, enumerated
       in-bucket exactly as before) verify against it with vectorized
       row-wise dots.

    Above the gate the single-shuffle full-ship plan runs instead (bucket
    rows carry embeddings, verification happens in-bucket) — correct at any
    size, just heavier.  Size ``k_planes`` to the corpus
    (≈ log2 n or more): in-bucket all-pairs work scales with bucket
    occupancy in BOTH plans, and the candidate filter only bites when most
    buckets are singletons.
    """
    import pyarrow.parquet as pq

    rng = np.random.Generator(np.random.PCG64(seed))
    # vector dimension from ONE row (page-granular read — even row group 0
    # alone can be hundreds of MB at scale); 0-row corpus → 0 pairs
    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    empty_pairs = pa.table({"vec_a": pa.array([], pa.int64()),
                            "vec_b": pa.array([], pa.int64())})
    if pf.metadata.num_rows == 0:
        return rd.from_arrow(empty_pairs)
    first = next(pf.iter_batches(batch_size=1, columns=["embedding"]))
    dim = len(first.column("embedding")[0].as_py())
    planes = rng.standard_normal((n_tables, k_planes, dim))
    planes_ref = ray.put(planes)
    weights = (1 << np.arange(k_planes)).astype(np.int64)

    def _emit_bands(ids: np.ndarray, E: np.ndarray, emb) -> pa.Table:
        """(table, bucket, vec_id[, embedding]) rows for every table.  The
        (table, bucket) co-partition spans about one group per CPU
        regardless of the n_tables × 2^k_planes fine-bucket count —
        per-group dispatch over 10^5+ tiny groups dominates wall time
        otherwise (same pattern as _pairs_within / frontier.select_budget)."""
        P = ray.get(planes_ref)
        n = len(ids)
        tbl = np.repeat(np.arange(n_tables, dtype=np.int64), n)
        bkt = np.concatenate(
            [((E @ P[t].T) > 0) @ weights for t in range(n_tables)]
        ).astype(np.int64)
        cols = {"table": pa.array(tbl, pa.int64()),
                "bucket": pa.array(bkt, pa.int64()),
                "vec_id": pa.array(np.tile(ids, n_tables), pa.int64())}
        if emb is not None:
            cols["embedding"] = emb.combine_chunks().take(
                pa.array(np.tile(np.arange(n, dtype=np.int64), n_tables)))
        return pa.table(cols)

    def _empty_bands(with_emb) -> pa.Table:
        cols = {"table": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64())}
        if with_emb is not None:
            cols["embedding"] = with_emb
        return pa.table(cols)

    def band_ids(batch: pa.Table) -> pa.Table:
        E = _emb_matrix(batch.column("embedding"))
        if E is None:  # empty block
            return _empty_bands(None)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return _emit_bands(ids, E, None)

    def distinct_ids(g: pa.Table) -> pa.Table:
        ids = g.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"vec_id": pa.array(np.unique(ids), pa.int64())})

    def nonsingleton_ids(g: pa.Table) -> pa.Table:
        """Distinct vec_ids that share a (table, bucket) with another vector
        in this partition — vectorized over runs, no per-bucket dispatch."""
        g, new = runs.groups(g, ["table", "bucket"])
        alone = new & np.r_[new[1:], True]  # a run of one row
        return distinct_ids(g.filter(pa.array(~alone)))

    src = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                             columns=["vec_id", "embedding"])
    # candidate ids, globally DISTINCT: nonsingleton_ids dedups only within
    # its (table, bucket)-hash partition, and a vector colliding in two
    # tables lands in two partitions — the id-keyed second pass makes both
    # the broadcast gate and the shipped id array exact (id rows only)
    cand = copartition(
        copartition(src.map_batches(band_ids, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    ["table", "bucket"], nonsingleton_ids),
        "vec_id", distinct_ids).materialize()
    n_cand = cand.count()
    if n_cand == 0:
        return rd.from_arrow(empty_pairs)

    # 4x the shared limit (512 MiB) until this site's crossover is measured:
    # the 1M x 64 soak corpus (k_planes=24, n_tables=4) has 604,708
    # candidates, a 295 MiB matrix, and its full-ship plan is 2.1x slower
    # (75-78 s vs 35 s on 4 CPUs, same pairs)
    if n_cand * dim * 8 <= 4 * shuffle.BROADCAST_MAX_BYTES:
        cand_ids = np.sort(pa.concat_tables(ray.get(cand.to_arrow_refs()))
                           .column("vec_id").to_numpy())
        ids_ref = ray.put(cand_ids)

        def _cand_sel(batch: pa.Table, cids: np.ndarray) -> np.ndarray:
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(cids, ids)
            pos[pos >= len(cids)] = 0
            return ids, np.flatnonzero(cids[pos] == ids)

        def select_candidates(batch: pa.Table) -> pa.Table:
            _, sel = _cand_sel(batch, ray.get(ids_ref))
            return batch.select(["vec_id", "embedding"]).take(pa.array(sel))

        # candidate rows, read ONCE and kept in the object store (size-gated
        # above): both the broadcast matrix and the candidate banding pass
        # feed from this subset — no further pass touches the full corpus.
        # bare materialize, NOT a staged shuffle: these rows carry embedding
        # payloads, and the staging coalesce would repartition them through a second
        # all-to-all pass holding two transient copies (its contract is
        # key-sized rows only); the ~256-tiny-block lineage is coalesced
        # downstream at the banding output, where rows ARE key-sized
        sub = src.map_batches(select_candidates, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()

        mids, mats = [], []
        for b in sub.iter_batches(batch_format="pyarrow", batch_size=None):
            t = b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
            if t.num_rows:
                mids.append(t.column("vec_id").to_numpy(
                    zero_copy_only=False).astype(np.int64))
                mats.append(_emb_matrix(t.column("embedding")))
        gids = np.concatenate(mids)
        order = np.argsort(gids)
        mat_ref = ray.put((gids[order], _unit_rows(np.vstack(mats)[order])))

        def band_cand_ids(batch: pa.Table) -> pa.Table:
            E = _emb_matrix(batch.column("embedding"))
            if E is None:
                return _empty_bands(None)
            ids = batch.column("vec_id").to_numpy(
                zero_copy_only=False).astype(np.int64)
            return _emit_bands(ids, E, None)

        def verify_pairs(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return empty_pairs
            gids_s, Enn = ray.get(mat_ref)
            a = batch.column("vec_a").to_numpy(zero_copy_only=False).astype(np.int64)
            b = batch.column("vec_b").to_numpy(zero_copy_only=False).astype(np.int64)
            ia = np.searchsorted(gids_s, a)
            ib = np.searchsorted(gids_s, b)
            dots = np.einsum("ij,ij->i", Enn[ia], Enn[ib])
            keep = dots >= threshold
            return pa.table({"vec_a": pa.array(a[keep], pa.int64()),
                             "vec_b": pa.array(b[keep], pa.int64())})

        candidates = copartition(
            sub.map_batches(band_cand_ids, batch_format="pyarrow",
                            zero_copy_batch=True),
            ["table", "bucket"],
            lambda g: _pairs_within(g, ["table", "bucket"], "vec_id",
                                    ("vec_a", "vec_b"))
        ).map_batches(verify_pairs, batch_format="pyarrow",
                      zero_copy_batch=True)
        return _dedup_pairs(candidates, a="vec_a", b="vec_b")

    # ---- over-gate fallback: full-ship plan (embeddings ride the shuffle,
    # verification happens in-bucket) --------------------------------------
    def bucketize_all(batch: pa.Table) -> pa.Table:
        E = _emb_matrix(batch.column("embedding"))
        if E is None:
            return _empty_bands(batch.column("embedding"))
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return _emit_bands(ids, E, batch.column("embedding"))

    def pairs_in_partition(g: pa.Table) -> pa.Table:
        """All within-(table, bucket) pairs with cosine >= threshold —
        fine-grouped by runs INSIDE one task, so each small bucket gets one
        small matmul and no partition-wide score matrix is built."""
        g, new = runs.groups(g, ["table", "bucket"])
        ids = g.column("vec_id").to_numpy()
        En = _unit_rows(_emb_matrix(g.column("embedding")))
        out_a, out_b = [], []
        for s, e in runs.spans(new, 2):
            sub = En[s:e]
            S = sub @ sub.T
            r, c = np.nonzero(S >= threshold)
            sub_ids = ids[s:e]
            keep = sub_ids[r] < sub_ids[c]
            out_a.append(sub_ids[r][keep])
            out_b.append(sub_ids[c][keep])
        if not out_a:
            return empty_pairs
        return pa.table({"vec_a": pa.array(np.concatenate(out_a), pa.int64()),
                         "vec_b": pa.array(np.concatenate(out_b), pa.int64())})

    candidates = copartition(
        src.map_batches(bucketize_all, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["table", "bucket"], pairs_in_partition)
    return _dedup_pairs(candidates, a="vec_a", b="vec_b")


# -------------------------------------------------- near-dup cluster assembly

def union_find_components(pairs_iter, a_col: str, b_col: str,
                          id_col: str, comp_col: str,
                          dtype: "pa.DataType") -> "pa.Table":
    """Union-find (path compression + union-by-min) over a streamed edge
    list: component_id = min id reachable, both columns typed ``dtype``, so
    an empty edge list gives a typed empty table.  It runs twice in
    :func:`connected_components`: on each partition of the contraction
    round, then on the driver over the star rows that round leaves."""
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for batch in pairs_iter:
        for a, b in zip(batch.column(a_col).to_pylist(),
                        batch.column(b_col).to_pylist()):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:  # union by min keeps component_id = min(id)
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb

    ids = sorted(parent)
    return pa.table({
        id_col: pa.array(ids, dtype),
        comp_col: pa.array([find(i) for i in ids], dtype),
    })


def star_edges(pairs: "rd.Dataset", a_col: str, b_col: str,
               dtype: "pa.DataType") -> "rd.Dataset":
    """The contraction round of :func:`connected_components` (local
    contraction, Łącki et al., *Connected Components at Scale via Local
    Contractions*, 2018).  Every edge lives in exactly one hash partition
    on ``a_col``, so union-find on each partition turns its edges into star
    edges (node, partition-local root) with the same components.  A
    partition's stars are a spanning forest of its edges: at most its edge
    count, and at most one per node."""

    def stars(part: pa.Table) -> pa.Table:
        t = union_find_components([part], a_col, b_col, a_col, b_col, dtype)
        return t.filter(pc.not_equal(t[a_col], t[b_col]))  # drop the roots

    return copartition(pairs, a_col, stars)


def connected_components(pairs: "rd.Dataset", a_col: str, b_col: str,
                         id_col: str, comp_col: str,
                         dtype: "pa.DataType") -> "pa.Table":
    """id_col, comp_col — connected components of the edge list ``pairs``
    (component = min id reachable, min = lexicographic for strings): the
    one cluster-assembly path, shared by ``lsh_components`` (int64 doc ids)
    and ``multimodal.phash_components`` (string image ids).  One
    :func:`star_edges` round in parallel, then union-find over its star
    rows on the driver: at most min(edges, partitions × nodes) rows, which
    feed the node-sized table returned there."""
    stars = star_edges(pairs, a_col, b_col, dtype)
    return union_find_components(
        stars.iter_batches(batch_format="pyarrow", batch_size=None),
        a_col, b_col, id_col, comp_col, dtype)


def lsh_components(sf_dir: str) -> "pa.Table":
    """doc_id, component_id — connected components over the MinHash-LSH
    candidate-pair graph: the cluster-assembly step that turns pairwise
    near-dup hits into dedup groups (component_id = min doc_id reachable).
    The pairs come from ``minhash_lsh_pairs`` and the clusters from
    :func:`connected_components`.  The recursive-CTE oracle checks it."""
    return connected_components(minhash_lsh_pairs(sf_dir), "doc_a", "doc_b",
                                "doc_id", "component_id", pa.int64())


def minhash_jaccard_estimates(sf_dir: str) -> "rd.Dataset":
    """doc_a, doc_b, n_agree, est_x8 — MinHash jaccard ESTIMATES for the LSH
    candidate pairs: the fraction of agreeing signature permutations
    estimates jaccard without touching document text — the verification
    shortcut production near-dup pipelines use when exact set intersection
    per candidate is too expensive.  n_agree ∈ [0, NUM_PERMS] is an exact
    int (est = n_agree/NUM_PERMS left to consumers), so the DuckDB oracle
    (join the signature table onto the pair list, count matching columns)
    hashes bit-equal.

    Plan: the pair list is materialized first (small — surviving candidates
    only), its distinct doc_ids broadcast (int64s, bounded by candidate
    count), and ONLY those docs' signatures are collected into the probe
    dict — the corpus-wide signature table never lands on the driver.  At a
    scale where even the candidate docs' signatures outgrow a broadcast,
    the same double hash-join plan as ngram_jaccard_pairs applies (join on
    doc_a, re-partition, join on doc_b)."""
    pairs = minhash_lsh_pairs(sf_dir).materialize()
    cand_ids: set[int] = set()
    for b in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        cand_ids.update(b.column("doc_a").to_pylist())
        cand_ids.update(b.column("doc_b").to_pylist())
    cid_ref = ray.put(np.fromiter(sorted(cand_ids), dtype=np.int64,
                                  count=len(cand_ids)))

    def sig_rows(batch: pa.Table) -> pa.Table:
        cids = ray.get(cid_ref)
        keep = np.isin(batch.column("doc_id").to_numpy(zero_copy_only=False),
                       cids)
        return batch.filter(pa.array(keep))

    sigs: dict[int, list[str]] = {}
    for b in minhash_signatures(sf_dir).map_batches(
            sig_rows, batch_format="pyarrow",
            zero_copy_batch=True).iter_batches(batch_format="pyarrow", batch_size=None):
        cols = [b.column(f"mh{p}").to_pylist() for p in range(NUM_PERMS)]
        for i, doc_id in enumerate(b.column("doc_id").to_pylist()):
            sigs[doc_id] = [cols[p][i] for p in range(NUM_PERMS)]
    sigs_ref = ray.put(sigs)

    def estimate(batch: pa.Table) -> pa.Table:
        sg = ray.get(sigs_ref)
        a = batch.column("doc_a").to_pylist()
        b = batch.column("doc_b").to_pylist()
        agree = [sum(x == y for x, y in zip(sg[x_], sg[y_]))
                 for x_, y_ in zip(a, b)]
        return pa.table({
            "doc_a": pa.array(a, pa.int64()),
            "doc_b": pa.array(b, pa.int64()),
            "n_agree": pa.array(agree, pa.int64()),
        })

    return pairs.map_batches(
        estimate, batch_format="pyarrow", zero_copy_batch=True)


# -------------------------------------------- test-set decontamination

DECONTAM_N = 8     # word n-gram size (standard for benchmark decontamination)
DECONTAM_MOD = 17  # doc_id % MOD == 0 -> held-out benchmark document


def _word_ngrams(text: str, n: int) -> set:
    """Distinct word n-grams; split on a single space so the DuckDB
    oracle's ``string_split(text, ' ')`` tokenization is bit-equal."""
    w = (text or "").split(" ")
    return {" ".join(w[i:i + n]) for i in range(len(w) - n + 1)}


def decontaminate(sf_dir: str) -> "rd.Dataset":
    """doc_id, n_shared — training documents that share at least one word
    8-gram with the held-out benchmark set (here: doc_id % 17 == 0), with
    the count of DISTINCT shared grams.  This is the standard test-set
    decontamination pass a pre-training corpus gets before the train/eval
    split is trusted (the reference's DIGEST_CACHE idea — "have I seen this
    content before?" — pointed at an external contamination set instead,
    cf. warc_metadata_sidecar.py:39,231-246).

    100-TB plan: the held-out side is small BY DEFINITION (benchmark suites
    are O(1e5-1e6) grams), so its distinct grams are collected once and
    broadcast via ``ray.put``; the training corpus streams through one
    ``map_batches`` with no shuffle at all.  If the contamination set ever
    outgrew broadcast, the fallback is the inverted-index shuffle used by
    ``ngram_jaccard_pairs``.
    """
    ds = read_documents(sf_dir)

    def emit_test_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        grams: set = set()
        for doc_id, text in zip(ids, texts):
            if doc_id % DECONTAM_MOD == 0:
                grams.update(_word_ngrams(text, DECONTAM_N))
        return pa.table({"g": pa.array(sorted(grams), pa.string())})

    # small side -> driver set -> object store once (broadcast)
    gram_set: set = set()
    for b in ds.map_batches(emit_test_grams, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow", batch_size=None):
        gram_set.update(b.column("g").to_pylist())
    grams_ref = ray.put(frozenset(gram_set))

    def score(batch: pa.Table) -> pa.Table:
        test_grams = shuffle.broadcast_value(grams_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        out_ids, out_n = [], []
        for doc_id, text in zip(ids, texts):
            if doc_id % DECONTAM_MOD == 0:
                continue
            n = len(_word_ngrams(text, DECONTAM_N) & test_grams)
            if n:
                out_ids.append(int(doc_id))
                out_n.append(n)
        return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                         "n_shared": pa.array(out_n, pa.int64())})

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


# -------------------------------------------- passage-level exact dedup

PASSAGE_W = 10  # words per non-overlapping passage


def passage_dedup(sf_dir: str) -> "rd.Dataset":
    """doc_id, n_chunks, n_kept, text_deduped — exact passage-level
    deduplication with reconstruction: split every document into
    consecutive non-overlapping 10-word passages, keep the globally FIRST
    occurrence of each distinct passage (min (doc_id, idx)), and rebuild
    each document from its surviving passages in order.  Documents whose
    passages are all duplicates disappear.  This is the passage/paragraph
    analog of ``exact_dedup`` — the standard "remove boilerplate repeated
    across pages" pass in a pre-training pipeline.

    100-TB plan: two shuffles, each moving the passage text exactly once
    (unavoidable — the OUTPUT is the deduped text): (1) co-partition on the
    passage and keep-first vectorized per partition; (2) co-partition
    winners on doc_id and reconstruct per document.
    Both use the repo's coarse-partition + in-task fine grouping pattern
    (per-key dispatch is the measured bottleneck, not data volume).
    """
    def chunk(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        o_doc, o_idx, o_nc, o_p = [], [], [], []
        for doc_id, text in zip(ids, texts):
            w = (text or "").split(" ")
            n_chunks = (len(w) + PASSAGE_W - 1) // PASSAGE_W
            for i in range(n_chunks):
                p = " ".join(w[i * PASSAGE_W:(i + 1) * PASSAGE_W])
                o_doc.append(int(doc_id))
                o_idx.append(i + 1)
                o_nc.append(n_chunks)
                o_p.append(p)
        return pa.table({
            "doc_id": pa.array(o_doc, pa.int64()),
            "idx": pa.array(o_idx, pa.int64()),
            "n_chunks": pa.array(o_nc, pa.int64()),
            "passage": pa.array(o_p, pa.string()),
        })

    def keep_first(t: pa.Table) -> pa.Table:
        return runs.first(t, ["passage"], ("doc_id", "idx"))

    def reconstruct(t: pa.Table) -> pa.Table:
        g = t.sort_by([("doc_id", "ascending"), ("idx", "ascending")]) \
            .group_by("doc_id", use_threads=False).aggregate(
                [("n_chunks", "first"), ([], "count_all"), ("passage", "list")])
        return pa.table({"doc_id": g["doc_id"],
                         "n_chunks": g["n_chunks_first"],
                         "n_kept": g["count_all"],
                         "text_deduped": pc.binary_join(g["passage_list"], " ")})

    firsts = copartition(
        read_documents(sf_dir).map_batches(chunk, batch_format="pyarrow",
                                           zero_copy_batch=True),
        "passage", keep_first)
    return copartition(firsts, "doc_id", reconstruct)
