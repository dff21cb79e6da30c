"""The Ray-Data-native crawl driver: epoch loop + checkpointing + metrics
(SURVEY.md §3.4 lifecycle; BASELINE.json:north_rule).

Per epoch (one Ray Data pipeline run; stages pipelined by the streaming
executor):

  frontier parquet → groupby(url_hash) exact dedup → bloom+shard anti-join
  → robots filter (HostPolicy actor pool) → groupby(host,salt)/groupby(host)
  budget top-k with hot-host splitting → [selected] Fetcher actor pool
  (mark-seen → synthetic fetch → sidecar extraction) → partitioned parquet
  → link discovery → next-epoch frontier parquet (= the checkpoint).

State crosses node boundaries only via actor RPCs; everything else is
Dataset blocks.  The frontier tables carry metadata only — image bytes are
born inside the fetch stage and die in the sidecar parquet (never shuffled).

Checkpoint/resume (north_rule "resumable from per-partition checkpoints
carrying lineage seed→frontier-epoch→partition"): two granularities —
- epoch: ``_ckpt/epoch=N/manifest.json`` (metrics, crawl order, seen-set
  delta, next frontier as a worker-written parquet directory); resume
  restores seen shards from the deltas and continues after the last
  complete epoch.
- fetch partition: within an epoch the fetch is split part = url_hash %
  num_fetch_partitions, the sidecar parquet is hive-partitioned by part,
  and ``_ckpt/epoch=N/parts/part=K.json`` records each completed part's
  lineage + rows + files.  Resuming a crashed epoch re-runs the (cheap,
  deterministic) frontier selection, re-marks the completed parts' URLs
  seen (idempotent), and fetches ONLY the unfinished parts.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from sidecar import frontier as fr
from sidecar import pipeline, synth
from sidecar.actors import host_shard, make_host_policies, make_seen_shards
from sidecar import storage
from sidecar.state import BloomFilter


@dataclass(frozen=True)
class CrawlConfig:
    n_seeds: int = 100
    n_hosts: int = 20
    budget_per_host: int = 5
    max_epochs: int = 3
    max_depth: int = 3
    seed: int = 42
    num_seen_shards: int = 8
    num_policy_actors: int = 4
    num_fetch_partitions: int = 16
    out_dir: str = "/tmp/crawl_out"
    # synthetic-graph hash family: "b2" (blake2b, the frozen default) or
    # "md5" (SQL-reproducible — the whole crawl replays in DuckDB, which is
    # what makes crawl_sql_exact a driver-EXACT oracle row)
    graph: str = "b2"
    # fraction (in tenths) of discovered links pointed at the hot host —
    # the skew knob for exercising hot-host salting; 4 = the frozen graphs
    hot_frac: int = 4
    # user-extension hook (SURVEY.md §2.9): a sidecar.policy.FrontierPolicy
    # overriding link priorities / per-host budgets; None = built-in behavior
    policy: object | None = None

    def lineage_id(self) -> str:
        """Hash of the semantic config (seed list + politeness budget + graph);
        run-length/placement knobs (max_epochs, out_dir, shard counts) are
        excluded so a resumed run may extend or re-place the same crawl."""
        sem = {k: v for k, v in asdict(self).items()
               if k in ("n_seeds", "n_hosts", "budget_per_host", "max_depth", "seed")}
        if self.graph != "b2":  # keep pre-r3 lineage ids stable
            sem["graph"] = self.graph
        if self.hot_frac != 4:  # ditto pre-r4 ids
            sem["hot_frac"] = self.hot_frac
        if self.policy is not None:  # policy changes crawl semantics
            pol = self.policy
            # name alone is not a semantic fingerprint: two parameterizations
            # of one policy class (MyBoost(factor=2) vs factor=3) re-rank the
            # frontier differently, and a cross-parameter resume would trust
            # part manifests whose URL membership no longer matches.  Fold in
            # the policy's scalar attributes (the determinism contract makes
            # hooks pure functions of inputs + these parameters).
            attrs = {k: v
                     for k, v in sorted(getattr(pol, "__dict__", {}).items())
                     if isinstance(v, (int, float, str, bool))
                     and not k.startswith("_")}
            sem["policy"] = [getattr(pol, "name", type(pol).__name__), attrs]
        return hashlib.blake2b(
            json.dumps(sem, sort_keys=True).encode(), digest_size=8
        ).hexdigest()


def make_fetcher(seen_shards: list, num_shards: int, seed: int):
    """ST7+ST8 fetch stage: mark-seen → deterministic fetch → sidecar
    extraction, all inside ONE batch function, run as elastic Ray TASKS.

    Tasks, not an actor pool, deliberately: the stage has no expensive
    per-worker state (the seen-shard handles serialize into the closure and
    cost nothing to hold; the politeness/seen STATE stays in its dedicated
    actors) — so a fixed pool only added per-epoch actor-process spin-up
    (a fresh pool per map_batches per epoch), pool-size tuning, and
    upstream-starvation risk, while tasks reuse warm worker processes and
    let the scheduler use every CPU slot.  ``add_many`` is idempotent, so a
    retried task re-marks the same hashes harmlessly.

    The seen-mark RPCs are fired FIRST and awaited LAST, so shard
    round-trips overlap the fetch+extract compute; the mutation still
    completes before the batch (and hence the epoch barrier) finishes.
    """
    from sidecar.detect import protocol as proto

    registry = proto.snapshot()  # driver-time detector registry (§2.9)

    def fetch_extract(batch: pa.Table) -> pa.Table:
        hashes = batch.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
        shard_of = (hashes % np.uint64(num_shards)).astype(np.int64)
        futures = []
        for s in range(num_shards):
            part = hashes[shard_of == s]
            if len(part):
                futures.append(seen_shards[s].add_many.remote(part))
        images = synth.fetch_batch(batch.column("url_canon").to_pylist(), seed)
        images = images.append_column("url", batch.column("url")).append_column(
            "ts", pa.array([str(20210101000000 + ep)
                            for ep in batch.column("epoch").to_pylist()], pa.string()))
        if "part" in batch.column_names:  # fetch-partition id, row-aligned
            images = images.append_column("part", batch.column("part"))
        out = pipeline.extract_sidecar_batch(images, registry=registry)
        ray.get(futures)  # seen-set mutation is part of the fetch transaction
        return out

    return fetch_extract


def _parquet_rows_by_file(d: str) -> dict[str, int]:
    """Per-file row counts from parquet footers — no read execution.  The
    footer opens run in a thread pool: a partitioned epoch write produces
    blocks × partitions files, and a serial scan of ~1000 footers was a
    driver-side constant that grew WITH cluster size (more blocks → more
    files), eating the crawl loop's scaling."""
    import glob as _glob
    from concurrent.futures import ThreadPoolExecutor

    files = _glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)
    if not files:
        return {}

    def rows(f: str) -> tuple[str, int]:
        return f, pq.ParquetFile(f).metadata.num_rows

    with ThreadPoolExecutor(min(32, max(4, len(files)))) as ex:
        return dict(ex.map(rows, files))


def _parquet_rows(d: str) -> int:
    """Total row count from parquet footers — no read execution."""
    return sum(_parquet_rows_by_file(d).values())


def _write_ckpt(path: str, obj: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)  # atomic


def _epoch_dir(cfg: CrawlConfig, epoch: int) -> str:
    return os.path.join(cfg.out_dir, "_ckpt", f"epoch={epoch}")


@ray.remote(num_cpus=0)
def _restore_delta_file(path: str, shards: list, num_shards: int) -> int:
    """Scatter one epoch-delta shard file back into the live seen shards —
    runs as a task so the driver never concatenates delta arrays (the file
    was written under a possibly different shard count, so keys re-route by
    the current ``url_hash % num_shards``)."""
    delta = np.load(path)
    if len(delta) == 0:
        return 0
    so = delta % np.uint64(num_shards)
    ray.get([shards[s].restore.remote(delta[so == s])
             for s in range(num_shards) if (so == s).any()])
    return len(delta)


def _find_resume_epoch(cfg: CrawlConfig) -> int:
    """Last epoch with a complete manifest, or -1."""
    e = -1
    while os.path.exists(os.path.join(_epoch_dir(cfg, e + 1), "manifest.json")):
        e += 1
    return e


def run_crawl(cfg: CrawlConfig, *, resume: bool = False,
              collect_order: bool = True, collect_seen: bool = True) -> dict:
    """Run the crawl; returns {crawl_order, seen, seen_count, metrics,
    epochs_run}.

    ``collect_order`` / ``collect_seen`` are TEST-ONLY conveniences that
    materialize the global crawl order / final seen-set on the driver for
    bit-for-bit oracle comparison; production runs (``main``, bench) pass
    False — the seen set lives in the shards and on disk as per-shard
    epoch-delta files, and the driver reports only ``seen_count``."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    shards = make_seen_shards(cfg.num_seen_shards)
    policies = make_host_policies(
        cfg.num_policy_actors, cfg.budget_per_host, n_hosts=cfg.n_hosts,
        seed=cfg.seed, graph=cfg.graph,
    )

    start_epoch = 0
    crawl_order: list[list[str]] = []
    metrics: list[dict] = []
    frontier_tbl: pa.Table | None = fr.candidates_from_urls(
        [dict(s, depth=0)
         for s in synth.make_seeds(cfg.n_seeds, cfg.n_hosts, cfg.seed, cfg.graph)],
        epoch=0,
    )

    resume_frontier_src: str | None = None
    resume_rows = 0
    if not resume:
        # fresh run into a reused out_dir: a previous same-lineage run's
        # checkpoints MUST NOT survive — this run rewrites sidecar data
        # destructively, and a later --resume would trust the stale
        # manifests as complete (silently skipping never-refetched epochs)
        import shutil as _shutil

        _shutil.rmtree(os.path.join(cfg.out_dir, "_ckpt"), ignore_errors=True)
        _shutil.rmtree(os.path.join(cfg.out_dir, "sidecar"), ignore_errors=True)
    if resume:
        last = _find_resume_epoch(cfg)
        if last >= 0:
            restore_futs = []
            for e in range(last + 1):
                man = json.load(open(os.path.join(_epoch_dir(cfg, e), "manifest.json")))
                if man["lineage_id"] != cfg.lineage_id():
                    # explicit raise, not assert: a cross-config resume must
                    # hard-fail even under python -O
                    raise ValueError(
                        f"config/lineage mismatch resuming {cfg.out_dir}: "
                        f"epoch {e} was written by {man['lineage_id']}, "
                        f"this config is {cfg.lineage_id()}")
                ddir = os.path.join(_epoch_dir(cfg, e), "seen_delta")
                if os.path.isdir(ddir):  # per-shard delta files: one scatter
                    # task per file — the driver touches paths only.  Filter
                    # to *.npy: a crash during write_delta can leave a
                    # truncated shard=K.npy.tmp that np.load would choke on
                    restore_futs.extend(
                        _restore_delta_file.remote(
                            os.path.join(ddir, fn), shards, cfg.num_seen_shards)
                        for fn in sorted(os.listdir(ddir))
                        if fn.endswith(".npy"))
                crawl_order.append(man["crawl_order"])
                metrics.append(man["metrics"])
            ray.get(restore_futs)
            start_epoch = last + 1
            fdir = os.path.join(_epoch_dir(cfg, last), "next_frontier")
            # STREAM the checkpointed frontier (parquet dir source for the
            # epoch loop) — a driver-side read_table of a large crawl's
            # frontier is exactly the materialization the loop avoids
            frontier_tbl = None
            if os.path.isdir(fdir):
                resume_rows = _parquet_rows(fdir)
                if resume_rows:
                    resume_frontier_src = fdir

    import time as _time

    # Pre-import the write path's lazy dependencies: the next-frontier write
    # runs in a side thread concurrently with the fetch write, and two
    # threads triggering the FIRST import of fsspec's http module race on
    # the partially-initialized module ("cannot import name HTTPFileSystem").
    try:
        import fsspec.implementations.http  # noqa: F401
    except Exception:
        pass

    # robots snapshot, replicated ONCE per crawl (rules are static here; a
    # live crawl would re-snapshot per epoch as the actors refresh caches)
    robots_ref = ray.put(ray.get(policies[0].rules_snapshot.remote()))

    prev_denied = 0  # per-epoch robots-denied baseline (actor counters are cumulative)
    frontier_src = resume_frontier_src  # parquet dir once epochs hand off
    frontier_rows = (frontier_tbl.num_rows if frontier_tbl is not None
                     else resume_rows)

    nf_thread = None  # visible to finally: must join even on mid-epoch error
    try:
        for epoch in range(start_epoch, cfg.max_epochs):
            if (frontier_tbl is None and frontier_src is None) or frontier_rows == 0:
                break
            m: dict = {"epoch": epoch, "candidates": frontier_rows}
            _t0 = _time.perf_counter()

            def _lap(name: str) -> None:
                nonlocal _t0
                m[f"t_{name}"] = round(_time.perf_counter() - _t0, 3)
                _t0 = _time.perf_counter()

            # bloom summary of the current seen set, replicated once per epoch
            blobs = ray.get([s.bloom_summary.remote() for s in shards])
            bloom = BloomFilter.deserialize(blobs[0])
            for b in blobs[1:]:
                bloom.merge(BloomFilter.deserialize(b))
            any_seen = sum(ray.get([s.size.remote() for s in shards])) > 0

            # from_arrow yields ONE block — split so the filter/budget chain
            # fans out (block = unit of map parallelism); parquet dirs already
            # read as one block per file
            if frontier_tbl is not None:
                n_blocks = max(8, min(64, frontier_rows // 500))
                ds = rd.from_arrow(frontier_tbl).repartition(n_blocks)
            else:
                ds = rd.read_parquet(frontier_src)
            # exact url_hash dedup is folded into select_budget's stage 1
            # (same (host,salt) group ⇒ equivalent, one less all-to-all).
            # An EMPTY seen set (epoch 0 of a fresh crawl) skips the anti-join
            # stage entirely — with no bloom summary every batch would RPC every
            # shard just to hear "no".
            if any_seen:
                ds = fr.filter_unseen(
                    ds, shards, bloom.serialize(), cfg.num_seen_shards
                )
            # EXECUTE-ONCE INVARIANT: filter_robots reports denied counts to
            # the politeness actors under an idempotency key scoped by Ray
            # TASK id (frontier.py note_denied) — a retry of the same task
            # dedupes, but re-executing the *plan* (consuming this lazy
            # dataset twice) runs the map under fresh task ids and
            # double-counts denials.  The single `.materialize()` below is
            # what upholds the invariant: every later consumer reads the
            # materialized `flagged`, never re-runs the robots filter.  Do
            # not iterate `ds` a second time.
            ds = fr.filter_robots(ds, policies, cfg.num_policy_actors,
                                  rules_ref=robots_ref)
            flagged = fr.select_budget(ds, cfg.budget_per_host, dedup=True,
                                       size_hint=frontier_rows,
                                       policy=cfg.policy).materialize()
            m["after_budget_pool"] = flagged.count()
            _lap("budget")

            import pyarrow.compute as pc

            P = cfg.num_fetch_partitions

            def split_sel(t: pa.Table) -> pa.Table:
                """selected rows + their fetch partition (part = url_hash % P) in
                ONE pass, so `selected` materializes exactly once per epoch."""
                t = t.filter(pc.equal(t["selected"], True)).drop_columns(["selected"])
                h = t.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
                return t.append_column(
                    "part", pa.array((h % np.uint64(P)).astype(np.int64)))

            selected = flagged.map_batches(
                split_sel, batch_format="pyarrow").materialize()
            _lap("split_selected")
            leftover = flagged.map_batches(
                lambda t: t.filter(pc.equal(t["selected"], False)).drop_columns(["selected"]),
                batch_format="pyarrow",
            )
            # link discovery → next frontier (leftover ∪ links, epoch bumped),
            # WRITTEN CONCURRENTLY with everything below (politeness accounting,
            # resume bookkeeping, the fetch stage): it depends only on the
            # materialized `selected`/`flagged`, so running the frontier
            # hand-off in a side thread removes one of the two big per-epoch
            # barriers from the critical path (the streaming executors share
            # the cluster; stragglers of one fill the other's idle slots).  The
            # seen-delta/manifest writes stay sequential — they must observe
            # the completed fetch.
            links = fr.discover_links(
                selected.map_batches(
                    lambda t: t.filter(pc.less(t["depth"], cfg.max_depth)),
                    batch_format="pyarrow",
                ),
                epoch, cfg.n_hosts, cfg.seed, policy=cfg.policy,
                graph=cfg.graph, hot_frac=cfg.hot_frac,
            )

            def bump(t: pa.Table) -> pa.Table:
                return t.set_column(
                    t.column_names.index("epoch"), "epoch",
                    pa.array([epoch + 1] * t.num_rows, pa.int32()),
                )

            next_frontier = leftover.map_batches(bump, batch_format="pyarrow").union(links)
            nf_dir = os.path.join(_epoch_dir(cfg, epoch), "next_frontier")
            os.makedirs(_epoch_dir(cfg, epoch), exist_ok=True)

            import threading

            nf_result: dict = {}

            def _write_next_frontier() -> None:
                try:
                    # clear first: write_parquet APPENDS (UUID filenames never
                    # collide), so stale files from a crashed attempt — or a
                    # previous run reusing this out_dir — would silently ride
                    # along into the next epoch's frontier
                    import shutil as _sh

                    _sh.rmtree(nf_dir, ignore_errors=True)
                    next_frontier.write_parquet(nf_dir)
                    nf_result["rows"] = _parquet_rows(nf_dir)
                except BaseException as e:  # re-raised on join
                    nf_result["error"] = e

            nf_thread = threading.Thread(target=_write_next_frontier,
                                         name="next-frontier-write")
            nf_thread.start()

            # politeness accounting at the HostPolicy actors (token buckets).
            # Grouped count via per-block partials + driver combine — no
            # all-to-all shuffle for a result of ≤ #hosts rows.
            def host_partials(t: pa.Table) -> pa.Table:
                vc = t.column("host").value_counts()
                return pa.table({"host": vc.field("values"),
                                 "n": pc.cast(vc.field("counts"), pa.int64())})

            host_counts: dict[str, int] = {}
            for b in selected.map_batches(host_partials, batch_format="pyarrow",
                                          zero_copy_batch=True).iter_batches(
                                              batch_format="pyarrow", batch_size=None):
                for hh, nn in zip(b.column("host").to_pylist(), b.column("n").to_pylist()):
                    host_counts[hh] = host_counts.get(hh, 0) + nn
            m["selected"] = sum(host_counts.values())
            # policy-effective per-host budgets (a FrontierPolicy may raise a
            # host's budget above the configured default; the token buckets must
            # open with the same value select_budget enforced)
            all_hosts = sorted(host_counts)
            if cfg.policy is not None and all_hosts:
                eff = {h: int(b) for h, b in zip(
                    all_hosts,
                    cfg.policy.host_budget(np.asarray(all_hosts),
                                           cfg.budget_per_host))}
            else:
                eff = None
            by_actor: dict[int, tuple[list[str], list[int], list[int]]] = {}
            for hh in all_hosts:
                hs, ns, bs = by_actor.setdefault(
                    host_shard(hh, cfg.num_policy_actors), ([], [], []))
                hs.append(hh)
                ns.append(host_counts[hh])
                bs.append(cfg.budget_per_host if eff is None else eff[hh])
            grant_futures = [
                policies[a].grant_many.remote(hs, epoch, ns,
                                              None if eff is None else bs)
                for a, (hs, ns, bs) in by_actor.items()
            ]
            granted = sum(ray.get(grant_futures)) if grant_futures else 0
            if granted != m["selected"]:  # not assert: must fire under -O
                raise RuntimeError(
                    f"budget invariant violated: granted {granted} != "
                    f"selected {m['selected']} (a FrontierPolicy returning "
                    "different budgets to select_budget vs the grant path?)")
            _lap("politeness")

            # ---- sub-epoch fetch partitions (north_rule per-partition ckpt) ---
            # part = url_hash % P (computed in split_sel) partitions the fetch
            # deterministically; each completed part gets a manifest (lineage:
            # config → epoch → part), so a crashed epoch resumes fetching ONLY
            # the unfinished parts (determinism makes re-selection identical;
            # re-marking seen is idempotent).
            edir = _epoch_dir(cfg, epoch)
            parts_dir = os.path.join(edir, "parts")
            sidecar_path = os.path.join(cfg.out_dir, "sidecar", f"epoch={epoch}")

            done_parts: set[int] = set()
            if resume and os.path.isdir(parts_dir):
                # honor a part manifest ONLY if it was written by THIS crawl
                # (lineage) with THIS partition count — part numbers are
                # url_hash % P, so manifests from a different P (or a stale
                # run in a reused out_dir) would mark never-fetched URLs as
                # done and silently drop them
                for fn in os.listdir(parts_dir):
                    if not fn.startswith("part="):
                        continue
                    try:
                        pman = json.load(open(os.path.join(parts_dir, fn)))
                    except (json.JSONDecodeError, OSError):
                        continue
                    if (pman.get("lineage_id") == cfg.lineage_id()
                            and pman.get("num_fetch_partitions") == P
                            and pman.get("epoch") == epoch):
                        done_parts.add(int(fn.split("=")[1].split(".")[0]))
            # clear stale partial writes of parts without a (valid) manifest —
            # ALWAYS, not only when some part finished: a crash during the
            # fetch write leaves partial files with no manifest at all, and
            # re-writing next to them would duplicate rows
            if os.path.isdir(sidecar_path):
                import shutil as _shutil

                if storage.HAVE_LANCE:  # pragma: no cover - lance absent here
                    # the Lance layout has no part= dirs (its entries are
                    # dataset internals: data/, _versions/, ...) — clearing
                    # them piecemeal corrupts the dataset root.  Lance resume
                    # granularity is the whole epoch: rewrite it.
                    _shutil.rmtree(sidecar_path, ignore_errors=True)
                    done_parts = set()
                else:
                    for d in os.listdir(sidecar_path):
                        try:  # tolerate junk entries (part=3.bak, temp files)
                            k = int(d.split("=")[1]) if "=" in d else -1
                        except ValueError:
                            k = -1
                        if k not in done_parts:
                            _shutil.rmtree(os.path.join(sidecar_path, d),
                                           ignore_errors=True)
            if done_parts:
                # re-mark done parts' URLs seen (their fetch is on disk; actor
                # state died with the crashed run) — distributed, idempotent
                done_arr = pa.array(sorted(done_parts), pa.int64())

                def mark_done_seen(t: pa.Table) -> pa.Table:
                    import pyarrow.compute as pc_

                    sub = t.filter(pc_.is_in(t.column("part"), value_set=done_arr))
                    h = sub.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
                    so = (h % np.uint64(cfg.num_seen_shards)).astype(np.int64)
                    futs = [shards[si].add_many.remote(h[so == si])
                            for si in range(cfg.num_seen_shards) if (so == si).any()]
                    ray.get(futs)
                    return pa.table({"n": pa.array([len(h)], pa.int64())})

                n_done_rows = sum(
                    b.column("n").to_pylist()[0]
                    for b in selected.map_batches(
                        mark_done_seen, batch_format="pyarrow",
                        zero_copy_batch=True).iter_batches(batch_format="pyarrow", batch_size=None))
                m["resumed_parts"] = sorted(done_parts)
                m["resumed_rows"] = int(n_done_rows)

                def drop_done(t: pa.Table) -> pa.Table:
                    import pyarrow.compute as pc_

                    return t.filter(pc_.invert(
                        pc_.is_in(t.column("part"), value_set=done_arr)))

                to_fetch = selected.map_batches(drop_done, batch_format="pyarrow",
                                                zero_copy_batch=True)
            else:
                to_fetch = selected

            # fetch (marks seen) + sidecar extraction in ONE elastic task stage
            # → partitioned parquet.  The unit of map parallelism is the BLOCK:
            # re-split the (small, metadata-only) selected set so the stage fans
            # out across every CPU.  The block count is sized by DATA (rows /
            # per-task quantum), NOT by cluster size — a cpus-proportional plan
            # produces different task shapes (and different output-file counts)
            # at different cluster sizes, which skews scaling and makes runs
            # non-comparable; 128 blocks keeps tasks uniform at any parallelism
            # (the same fixed-plan rule the headline benchmark uses).
            n_remaining = m["selected"] - m.get("resumed_rows", 0)
            n_blocks = max(1, min(128, n_remaining // 256 + 1))
            if selected.num_blocks() < min(32, n_blocks):
                # only the small-frontier driver plan (1 block) needs the
                # re-split.  The Ray budget path emits one block per block of
                # its filtered input (at most shuffle.NUM_PARTS), and its
                # input is few blocks: filter_robots' integer batch_size
                # bundles the frontier's blocks into tasks, so the crawl
                # workload's selection is 3 blocks.  repartition is an extra
                # all-to-all BARRIER that delays the first fetch task by the
                # whole shuffle
                to_fetch = to_fetch.repartition(n_blocks)
            # one fetch task per block; 256 rows per fetcher call inside it
            sidecar_ds = to_fetch.map_batches(
                pipeline.sliced(
                    make_fetcher(shards, cfg.num_seen_shards, cfg.seed), 256),
                batch_format="pyarrow",
                batch_size=None,
                zero_copy_batch=True,
            )
            if storage.HAVE_LANCE:  # pragma: no cover - lance absent in sandbox
                storage.write_table(sidecar_ds, sidecar_path)
                m["sidecar_rows"] = rd.read_lance(sidecar_path).count()
            else:
                if n_remaining > 0:
                    sidecar_ds.write_parquet(sidecar_path, partition_cols=["part"])
                # one manifest per completed part: the north_rule lineage unit
                # (config lineage → frontier epoch → fetch partition).  One
                # threaded footer scan serves both the per-part manifests and
                # the epoch total.
                os.makedirs(parts_dir, exist_ok=True)
                rows_by_file = _parquet_rows_by_file(sidecar_path) \
                    if os.path.isdir(sidecar_path) else {}
                if os.path.isdir(sidecar_path):
                    for d in sorted(os.listdir(sidecar_path)):
                        if not d.startswith("part="):
                            continue
                        k = int(d.split("=")[1])
                        if k in done_parts:
                            continue
                        pdir = os.path.join(sidecar_path, d)
                        _write_ckpt(os.path.join(parts_dir, f"part={k}.json"), {
                            "lineage_id": cfg.lineage_id(),
                            "epoch": epoch,
                            "part": k,
                            "num_fetch_partitions": P,
                            "rows": sum(n for f, n in rows_by_file.items()
                                        if f.startswith(pdir + os.sep)),
                            "files": sorted(os.listdir(pdir)),
                        })
                m["sidecar_rows"] = sum(rows_by_file.values())
            _lap("fetch_sidecar_write")

            # deterministic crawl order for the epoch (THE total order, §2.6
            # — shared with select_budget and the oracle via fr.SORT_COLS so
            # the three can't drift)
            order_rows = selected.sort(
                fr.SORT_COLS, descending=[not a for a in fr.SORT_ASC],
            ).select_columns(["url_canon"])
            epoch_order = [r["url_canon"] for r in order_rows.take_all()] if collect_order else []
            crawl_order.append(epoch_order)
            _lap("order")

            # join the concurrent next-frontier hand-off (distributed,
            # partitioned: a parquet DIRECTORY written by the workers — the
            # driver-side collect-and-concat it replaced serialized with link
            # count and capped crawl scaling at ~0.5)
            nf_thread.join()
            if "error" in nf_result:
                raise nf_result["error"]
            edir = _epoch_dir(cfg, epoch)
            nf_rows = nf_result["rows"]
            _lap("next_frontier")
            # leftover count by arithmetic — NOT leftover.count(), which would
            # re-execute the filter pipeline just for a metric (VERDICT r1 #4)
            m["leftover"] = m["after_budget_pool"] - m["selected"]
            m["links"] = nf_rows - m["leftover"]

            # seen-set delta: each shard writes ITS OWN file (the driver sees
            # counts + paths only — never the concatenated key arrays)
            delta_dir = os.path.join(edir, "seen_delta")
            os.makedirs(delta_dir, exist_ok=True)
            delta_counts = ray.get([
                s.write_delta.remote(os.path.join(delta_dir, f"shard={i}.npy"))
                for i, s in enumerate(shards)])
            m["seen_delta_rows"] = int(sum(delta_counts))
            pol_metrics = ray.get([p.metrics.remote() for p in policies])
            denied_now = sum(p["denied_robots"] for p in pol_metrics)
            # per-EPOCH delta: cumulative actor-lifetime totals would differ
            # between an uninterrupted run and a resumed one (fresh actors
            # restart at 0), breaking metrics reproducibility across resumes
            m["robots_denied"] = denied_now - prev_denied
            m["robots_denied_total"] = denied_now
            prev_denied = denied_now
            _write_ckpt(
                os.path.join(edir, "manifest.json"),
                {
                    "lineage_id": cfg.lineage_id(),
                    "epoch": epoch,
                    "metrics": m,
                    "crawl_order": epoch_order,
                    "sidecar_partition": sidecar_path,
                    "sidecar_files": sorted(os.listdir(sidecar_path))
                    if os.path.isdir(sidecar_path) else [],
                },
            )
            metrics.append(m)
            frontier_tbl = None
            frontier_src = nf_dir if nf_rows else None
            frontier_rows = nf_rows

        seen_count = int(sum(ray.get([s.size.remote() for s in shards])))
        if collect_seen:  # test-only: full snapshot for bit-for-bit oracles
            seen = np.sort(np.concatenate(
                ray.get([s.snapshot.remote() for s in shards])))
        else:
            seen = np.array([], dtype=np.uint64)
    finally:
        # join a possibly-orphaned next-frontier writer FIRST: an exception
        # between its start() and the happy-path join would otherwise leave
        # the non-daemon thread appending files to nf_dir after this run has
        # raised — interleaving with a retry's writes in the same process
        if nf_thread is not None and nf_thread.is_alive():
            nf_thread.join()
        # release the state actors' CPU reservations — leaked actors
        # accumulate across runs in one session and starve later
        # pipelines; an exception mid-epoch must not leak them either
        for a in shards + policies:
            ray.kill(a)
    return {
        "crawl_order": crawl_order,
        "seen": [int(x) for x in seen],
        "seen_count": seen_count,
        "metrics": metrics,
        "epochs_run": len(metrics),
    }


def main(argv: list[str] | None = None) -> dict:
    """CLI entry for ``ray job submit -- python -m sidecar.crawl [...]``.

    On a real cluster the same command runs unchanged — ray.init() with no
    address inside a job context attaches to the cluster that submitted it.
    Only this CLI owns a Ray session (guarded: never re-inits when the
    driver/jobs runtime already initialised Ray).
    """
    import argparse

    # argparse defaults are None SENTINELS so "flag was given on the command
    # line" is distinguishable from "flag omitted" — an explicit --seed 42
    # must beat a config file's seed even though 42 is also the default
    DEFAULTS = dict(
        n_seeds=100, n_hosts=20, budget_per_host=5, max_epochs=3,
        max_depth=3, seed=42, num_seen_shards=8, num_policy_actors=4,
        graph="b2", out_dir="/tmp/crawl_out",
    )
    p = argparse.ArgumentParser(description="Ray-Data-native crawl driver")
    p.add_argument("--n-seeds", type=int, default=None)
    p.add_argument("--n-hosts", type=int, default=None)
    p.add_argument("--budget-per-host", type=int, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--num-seen-shards", type=int, default=None)
    p.add_argument("--num-policy-actors", type=int, default=None)
    p.add_argument("--graph", choices=["b2", "md5"], default=None,
                   help="synthetic-graph hash family (md5 = SQL-replayable)")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--config", default=None,
                   help="YAML/JSON file of CrawlConfig fields (CLI flags win)")
    args = p.parse_args(argv)

    file_cfg: dict = {}
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
        try:
            file_cfg = json.loads(text)
        except json.JSONDecodeError:
            import yaml  # ships with ray

            file_cfg = yaml.safe_load(text) or {}

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False)

    given = {k: v for k, v in vars(args).items()
             if k in DEFAULTS and v is not None}
    cfg_fields = set(CrawlConfig.__dataclass_fields__)
    merged = {**DEFAULTS,
              **{k: v for k, v in file_cfg.items() if k in cfg_fields},
              **given}  # precedence: defaults < config file < explicit flags
    cfg = CrawlConfig(**merged)
    result = run_crawl(cfg, resume=args.resume, collect_order=False,
                       collect_seen=False)
    summary = {
        "epochs_run": result["epochs_run"],
        "urls_seen": result["seen_count"],
        "metrics": result["metrics"],
        "out_dir": cfg.out_dir,
        "lineage_id": cfg.lineage_id(),
    }
    print(json.dumps(summary))
    return summary


if __name__ == "__main__":
    main()
