"""Per-layer measurements, taken from outside the program.

- ``Tracer``: in-memory spans around the benchmark's calls into each
  layer, plus wrappers that time a module's public function while a traced
  round runs (the module attribute is restored afterwards).
- ``kernel_table``: the single-core, no-Ray kernel rates (synth fetch,
  detectors, extraction, canon, bloom/cuckoo, WARC parse).
- ``sidecar_probe``, ``actor_probe``, ``frontier_probe``: small fixed
  Ray-side measurements of the pipeline, the state actors and the frontier
  stages, run in every traced run so each workload reports every layer.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

import numpy as np
import pyarrow as pa


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: (name, start, end, parent index)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            n, s, _, p = self.spans[idx]
            self.spans[idx] = (n, s, time.perf_counter(), p)

    def wrap(self, module, fname: str) -> None:
        """Replace ``module.fname`` with a spanned wrapper until ``unwrap``."""
        orig = getattr(module, fname)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"

        def wrapper(*args, **kwargs):
            with self.span(label):
                return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        setattr(module, fname, wrapper)
        self._patched.append((module, fname, orig))

    def unwrap(self) -> None:
        for module, fname, orig in reversed(self._patched):
            setattr(module, fname, orig)
        self._patched.clear()

    def totals(self) -> dict[str, dict]:
        """Per span name: count, total seconds, and self seconds (total
        minus the time its direct children cover)."""
        child = [0.0] * len(self.spans)
        for name, s, e, p in self.spans:
            if p >= 0:
                child[p] += e - s
        out: dict[str, dict] = {}
        for i, (name, s, e, _) in enumerate(self.spans):
            d = out.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
            d["n"] += 1
            d["total_s"] += e - s
            d["self_s"] += e - s - child[i]
        return out


def _median_rate(fn, units: float, reps: int = 5) -> float:
    """Median units/second over ``reps`` calls of ``fn``."""
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        rates.append(units / (time.perf_counter() - t0))
    return statistics.median(rates)


# --------------------------------------------------------------------------
# single-core no-Ray kernel table
# --------------------------------------------------------------------------

def _warc_images(records: list[dict]) -> pa.Table:
    """Parsed WARC records → extraction input (response/resource records,
    HTTP headers split off, status kept) — the shape the CLI feeds the
    extractor."""
    ids, blobs, statuses, tss = [], [], [], []
    for r in records:
        if r["rec_type"] not in ("response", "resource") or r["url"].startswith("dns:"):
            continue
        raw, status = r["payload_bytes"], 200
        if raw.startswith(b"HTTP/"):
            head, _, raw = raw.partition(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
        ids.append(r["url"])
        blobs.append(raw)
        statuses.append(status)
        tss.append(r["ts"])
    return pa.table({"image_id": ids, "url": ids, "ts": tss,
                     "bytes": pa.array(blobs, pa.binary()),
                     "caption": [""] * len(ids),
                     "status": pa.array(statuses, pa.int64())})


def kernel_table(seed: int, warc_bytes: bytes) -> dict[str, float]:
    """Single-core in-process rates of the hot kernels, on fixed inputs."""
    from sidecar import canon, codecs, pipeline, state, synth, warc
    from sidecar.detect import charset, language, mime, phash, soft404

    out: dict[str, float] = {}
    keys = [f"kernel-{seed}-{i}" for i in range(240)]
    out["synth.fetch_rows_per_s"] = _median_rate(
        lambda: [synth.fetch_url(k, seed) for k in keys], len(keys), reps=3)

    rows = [synth.fetch_url(k, seed) for k in keys]
    images = pa.Table.from_pylist(rows, schema=synth.IMAGES_SCHEMA)
    is_img = np.array([r["fmt"] in codecs.IMAGE_FMTS for r in rows])
    img_tbl = images.filter(pa.array(is_img))
    txt_tbl = images.filter(pa.array(~is_img))
    records = warc.parse_warc_bytes(warc_bytes, payload="bytes")
    mix_tbl = _warc_images(records)
    payload = pa.concat_arrays([images.column("bytes").combine_chunks(),
                                mix_tbl.column("bytes").combine_chunks()])
    texts = pa.array([b.decode("utf-8", "replace")
                      for b in mix_tbl.column("bytes").to_pylist()], pa.string())
    n = len(payload)
    out["detect.mime_rows_per_s"] = _median_rate(lambda: mime.sniff_batch(payload), n)
    out["detect.charset_rows_per_s"] = _median_rate(
        lambda: charset.find_character_set_batch(payload), n)
    out["detect.language_rows_per_s"] = _median_rate(
        lambda: language.find_language_batch(texts), len(texts))
    out["detect.soft404_rows_per_s"] = _median_rate(
        lambda: soft404.soft404_batch(texts), len(texts))
    fmts = img_tbl.column("fmt").to_pylist()
    blobs = img_tbl.column("bytes").to_pylist()
    out["detect.phash_rows_per_s"] = _median_rate(
        lambda: [phash.phash64(codecs.decode(b, f)) for b, f in zip(blobs, fmts)],
        len(blobs), reps=3)

    for label, tbl in (("image", img_tbl), ("text", txt_tbl), ("warc_mix", mix_tbl)):
        out[f"pipeline.extract_rows_per_s.{label}"] = _median_rate(
            lambda t=tbl: pipeline.extract_sidecar_batch(t), tbl.num_rows, reps=3)

    def fetch_extract():
        got = [synth.fetch_url(k, seed) for k in keys]
        pipeline.extract_sidecar_batch(
            pa.Table.from_pylist(got, schema=synth.IMAGES_SCHEMA))

    out["pipeline.noray_rows_per_s"] = _median_rate(fetch_extract, len(keys), reps=3)

    urls = [r["url"] for r in records if r["url"].startswith("http")] * 4
    canons = [canon.canonical_url(u) for u in urls]
    for name, fn, arg in (("surt", canon.surt, urls),
                          ("canonical_url", canon.canonical_url, urls),
                          ("url_hash", canon.url_hash, canons)):
        out[f"canon.{name}_us"] = 1e6 / _median_rate(
            lambda f=fn, a=arg: [f(x) for x in a], len(arg))

    rng = np.random.default_rng(seed)
    hk = rng.integers(0, 2**63, size=100_000, dtype=np.uint64)

    def bloom():
        b = state.BloomFilter()
        b.add_many(hk)
        b.maybe_contains(hk)

    def cuckoo():
        c = state.CuckooFilter(n_buckets=1 << 16)
        c.add_many(hk)
        c.contains_many(hk)

    out["state.bloom_ns_per_key"] = 1e9 / _median_rate(bloom, 2 * len(hk), reps=3)
    out["state.cuckoo_ns_per_key"] = 1e9 / _median_rate(cuckoo, 2 * len(hk), reps=3)
    out["warc.parse_mb_per_s"] = _median_rate(
        lambda: warc.parse_warc_bytes(warc_bytes), len(warc_bytes) / 1e6)
    return out


# --------------------------------------------------------------------------
# Ray-side probes
# --------------------------------------------------------------------------

PROBE_URLS = 600


def sidecar_probe(seed: int, workdir: str) -> dict[str, float]:
    """Fetch+extract through Ray (materialized), then the parquet sink of
    the same rows on its own: the Ray pipeline rate and ``storage.write_s``."""
    from sidecar import flagship

    t0 = time.perf_counter()
    ds = flagship.synthetic_frontier_sidecar(PROBE_URLS, seed=seed,
                                             num_blocks=4).materialize()
    ray_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ds.write_parquet(os.path.join(workdir, "probe_sink"))
    write_s = time.perf_counter() - t0
    return {"pipeline.ray_rows_per_s": PROBE_URLS / ray_s,
            "storage.write_s": write_s}


ACTOR_BATCH = 256
ACTOR_SAMPLES = 200


def actor_probe(seed: int) -> dict[str, float]:
    """SeenShard RPC latency on 256-key batches and HostPolicy.grant_many
    latency, on one fresh actor of each kind."""
    import ray

    from perfbench import gen
    from sidecar.actors import make_host_policies, make_seen_shards

    cfg = gen.crawl_config(seed)
    shard = make_seen_shards(1)[0]
    policy = make_host_policies(1, cfg["budget_per_host"], n_hosts=cfg["n_hosts"],
                                seed=cfg["seed"])[0]
    try:
        ray.get([shard.size.remote(), policy.metrics.remote()])  # spun up
        rng = np.random.default_rng(seed)
        add_ms, has_ms = [], []
        for _ in range(ACTOR_SAMPLES):
            keys = rng.integers(0, 2**63, size=ACTOR_BATCH, dtype=np.uint64)
            t0 = time.perf_counter()
            ray.get(shard.add_many.remote(keys))
            add_ms.append((time.perf_counter() - t0) * 1e3)
            t0 = time.perf_counter()
            ray.get(shard.contains_many.remote(keys))
            has_ms.append((time.perf_counter() - t0) * 1e3)
        hosts = [f"host{i:02d}.example.com" for i in range(1, cfg["n_hosts"])]
        grant_ms = []
        for epoch in range(20):
            t0 = time.perf_counter()
            ray.get(policy.grant_many.remote(hosts, epoch, [1] * len(hosts)))
            grant_ms.append((time.perf_counter() - t0) * 1e3)
    finally:
        ray.kill(shard)
        ray.kill(policy)
    pct = lambda xs, q: float(np.percentile(xs, q))  # noqa: E731
    return {"actors.seen_add_ms.p50": pct(add_ms, 50),
            "actors.seen_add_ms.p99": pct(add_ms, 99),
            "actors.seen_contains_ms.p50": pct(has_ms, 50),
            "actors.seen_contains_ms.p99": pct(has_ms, 99),
            "actors.rpc_samples": float(len(add_ms) + len(has_ms)),
            "actors.grant_many_ms": statistics.median(grant_ms)}


FP_PROBE_KEYS = 2_000_000


def write_probe_frontier(seed: int, path: str) -> int:
    """The crawl workload's seed frontier (above SMALL_FRONTIER_ROWS) as
    parquet: the frontier replay's input on every workload."""
    import pyarrow.parquet as pq

    from perfbench import gen
    from sidecar import frontier as fr
    from sidecar import synth

    cfg = gen.crawl_config(seed)
    seeds = synth.make_seeds(cfg["n_seeds"], cfg["n_hosts"], cfg["seed"])
    tbl = fr.candidates_from_urls([dict(s, depth=0) for s in seeds], epoch=0)
    os.makedirs(path, exist_ok=True)
    pq.write_table(tbl, os.path.join(path, "frontier.parquet"))
    return tbl.num_rows


def frontier_probe(frontier_dir: str, seed: int) -> dict[str, float]:
    """Replay each frontier stage, materialized on its own, on the parquet
    frontier in ``frontier_dir``, with the crawl workload's budget and hosts;
    half of its URL hashes are pre-seen."""
    import ray
    import ray.data as rd

    from perfbench import gen
    from sidecar import frontier as fr
    from sidecar.actors import make_host_policies, make_seen_shards
    from sidecar.state import BloomFilter

    src = rd.read_parquet(frontier_dir).materialize()
    n = src.count()
    hashes = np.concatenate([b["url_hash"] for b in src.iter_batches(
        batch_format="numpy", batch_size=None)]).astype(np.uint64)
    seen_keys = hashes[::2]
    cfg = gen.crawl_config(seed)
    budget, n_hosts = cfg["budget_per_host"], cfg["n_hosts"]
    shard = make_seen_shards(1)[0]
    policy = make_host_policies(1, budget, n_hosts=n_hosts, seed=cfg["seed"])[0]
    out: dict[str, float] = {}
    try:
        ray.get(shard.add_many.remote(seen_keys))
        blob = ray.get(shard.bloom_summary.remote())
        rules = ray.put(ray.get(policy.rules_snapshot.remote()))

        def timed(name: str, ds):
            t0 = time.perf_counter()
            m = ds.materialize()
            out[f"frontier.{name}_s"] = time.perf_counter() - t0
            return m

        unseen = timed("filter_unseen", fr.filter_unseen(src, [shard], blob, 1))
        allowed = timed("filter_robots", fr.filter_robots(unseen, [policy], 1,
                                                          rules_ref=rules))
        flagged = timed("select_budget", fr.select_budget(
            allowed, budget, dedup=True, size_hint=n))
        selected = flagged.map_batches(
            lambda t: t.filter(t["selected"]), batch_format="pyarrow").materialize()
        timed("discover_links", fr.discover_links(selected, 1, n_hosts, cfg["seed"]))
        out["frontier.selected_frac"] = selected.count() / n
        # the frontier's unseen keys alone are too few to see a false
        # positive at this fill, so random keys the exact set rejects join them
        rng = np.random.default_rng(seed)
        probes = np.concatenate([hashes, rng.integers(
            0, 2**63, size=FP_PROBE_KEYS, dtype=np.uint64)])
        probes = probes[~np.isin(probes, seen_keys)]
        out["frontier.bloom_fp_rate"] = float(
            BloomFilter.deserialize(blob).maybe_contains(probes).mean())
        out["frontier.candidates"] = float(n)
    finally:
        ray.kill(shard)
        ray.kill(policy)
    return out
