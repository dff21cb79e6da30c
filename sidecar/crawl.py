"""The Ray-Data-native crawl driver: the epoch loop, its checkpoints and its
metrics (SURVEY.md §3.4 lifecycle; BASELINE.json:north_rule).

``run_crawl`` takes the state actors (seen-set shards, HostPolicy
politeness actors) from the Ray session's pool, reset to their ``__init__``
state (``actors.crawl_actors``), restores from the checkpoints, runs
``_run_epoch`` per epoch and reports.  Like every Dataset source of the
engine it first calls ``actors.warm_session``: the session's first one
starts Ray Data's stats actor and one import task per CPU slot, so the
workers load Ray Data, pandas and this package side by side rather than
stage after stage.  An epoch is a
fixed chain of steps, each timed into the epoch's metrics as ``t_<step>``:

  budget               frontier (epoch 0: seed rows built in tasks from
                       their ids; later: the previous next-frontier parquet)
                       → bloom + seen-shard anti-join → robots filter →
                       per-host top-k with hot-host salting and the exact
                       url_hash dedup folded in, materialized once
  split_selected       selected rows + fetch partition; the next frontier
                       (leftover ∪ discovered links) starts writing in a
                       background thread
  politeness           per-host grants at the HostPolicy token buckets
  fetch_sidecar_write  fetch tasks (mark seen → fetch → sidecar extraction)
                       → parquet partitioned by fetch partition
  order                the epoch's crawl order (tests only)
  next_frontier        wait for the background write
  checkpoint           seen-set delta files, policy metrics, manifest

State crosses node boundaries only via actor RPCs; everything else is
Dataset blocks.  Frontier tables carry metadata only — image bytes are born
in the fetch stage and die in the sidecar parquet (never shuffled).

Checkpoints (north_rule: per-partition, with lineage
seed→frontier-epoch→partition) come at two granularities.  An epoch's
``_ckpt/epoch=N/`` holds its manifest (metrics, crawl order), per-shard
seen-set delta files and the next frontier; resume restores the shards from
the deltas and continues after the last complete epoch.  Within an epoch
the fetch is split by part = url_hash % num_fetch_partitions, and
``parts/part=K.json`` records each completed part, so re-running a crashed
epoch re-selects (deterministically), re-marks the completed parts' URLs
seen and fetches ONLY the unfinished parts.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data.dataset import MaterializedDataset

from sidecar import actors
from sidecar import frontier as fr
from sidecar import pipeline, storage, synth
from sidecar.actors import call_seen_shards, host_shard
from sidecar.detect import protocol as proto
from sidecar.state import BloomFilter

# The next-frontier write runs in a writer thread concurrently with the fetch
# write, and two threads triggering the FIRST import of fsspec's http module
# race on the partially-initialized module ("cannot import name
# HTTPFileSystem"): import the write path's lazy dependency up front.
try:
    import fsspec.implementations.http  # noqa: F401
except ImportError:  # no aiohttp: no http filesystem to race on
    pass


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
    extraction in ONE batch function, run as elastic Ray TASKS: the stage
    has no per-worker state worth an actor pool (the seen-shard handles
    cost nothing to hold), and tasks reuse warm workers on every CPU slot.
    ``add_many`` is idempotent, so a retried task re-marks harmlessly.  The
    seen-mark RPCs are fired FIRST and awaited LAST, so shard round-trips
    overlap the fetch+extract compute and still finish with the batch."""
    registry = proto.snapshot()  # driver-time detector registry (§2.9)

    def fetch_extract(batch: pa.Table) -> pa.Table:
        marks, _ = call_seen_shards(
            seen_shards, num_shards, "add_many",
            batch.column("url_hash").to_numpy(zero_copy_only=False))
        images = synth.fetch_batch(batch.column("url_canon").to_pylist(), seed)
        images = images.append_column("url", batch.column("url")).append_column(
            "ts", pa.array([str(20210101000000 + ep)
                            for ep in batch.column("epoch").to_pylist()], pa.string()))
        if "part" in batch.column_names:  # fetch-partition id, row-aligned
            images = images.append_column("part", batch.column("part"))
        out = pipeline.extract_sidecar_batch(images, registry=registry)
        ray.get(marks)  # seen-set mutation is part of the fetch transaction
        return out

    return fetch_extract


def _parquet_rows_by_file(d: str) -> dict[str, int]:
    """Per-file row counts from parquet footers — no read execution.  The
    footers open in a thread pool: a partitioned epoch write makes blocks ×
    partitions files, and a serial scan grew with cluster size."""
    files = glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)
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


def _next_frontier_dir(cfg: CrawlConfig, epoch: int) -> str:
    return os.path.join(_epoch_dir(cfg, epoch), "next_frontier")


def _sidecar_dir(cfg: CrawlConfig, epoch: int) -> str:
    return os.path.join(cfg.out_dir, "sidecar", f"epoch={epoch}")


@ray.remote(num_cpus=0)
def _restore_delta_file(path: str, shards: list, num_shards: int) -> int:
    """Scatter one epoch-delta shard file back into the live seen shards —
    runs as a task so the driver never concatenates delta arrays (the file
    was written under a possibly different shard count, so keys re-route by
    the current ``url_hash % num_shards``)."""
    delta = np.load(path)
    ray.get(call_seen_shards(shards, num_shards, "restore", delta)[0])
    return len(delta)


@dataclass
class _Run:
    """What the epochs of one crawl share: the config, the state actors, the
    robots rules' ObjectRef, the next-frontier writer, and the crawl order
    and metrics of the epochs so far."""
    cfg: CrawlConfig
    shards: list
    policies: list
    rules_ref: ray.ObjectRef
    writer: ThreadPoolExecutor
    collect_order: bool
    crawl_order: list[list[str]] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    # robots denials counted so far: the actors' counters are cumulative, a
    # manifest records each epoch's own
    denied: int = 0


def run_crawl(cfg: CrawlConfig, *, resume: bool = False,
              collect_order: bool = True, collect_seen: bool = True) -> dict:
    """Run the crawl; returns {crawl_order, seen, seen_count, metrics,
    epochs_run}.

    ``collect_order`` / ``collect_seen`` are TEST-ONLY conveniences that
    materialize the global crawl order / final seen-set on the driver for
    bit-for-bit oracle comparison; production runs (``main``, bench) pass
    False — the seen set lives in the shards and on disk as per-shard
    epoch-delta files, and the driver reports only ``seen_count``.

    The state actors outlive the call: they stay in the session's pool for
    the next crawl of the same shape, and are killed only when this crawl
    raises.  The session's first call into the engine, a crawl or a read,
    also starts Ray Data's stats actor and one import task per CPU slot
    (``actors.warm_session``)."""
    actors.warm_session()
    os.makedirs(cfg.out_dir, exist_ok=True)
    with actors.crawl_actors(cfg.num_seen_shards, cfg.num_policy_actors,
                             cfg.budget_per_host, n_hosts=cfg.n_hosts,
                             seed=cfg.seed, graph=cfg.graph) as (shards, policies):
        # leaving the `with` joins the writer thread, also on an error, so no
        # write outlives the run's hold on the actors
        with ThreadPoolExecutor(max_workers=1) as writer:
            # robots rules are static here: one snapshot serves every epoch
            run = _Run(cfg, shards, policies, policies[0].rules_snapshot.remote(),
                       writer, collect_order)
            epoch, rows = _restore(run) if resume else _clear(cfg)
            while epoch < cfg.max_epochs and rows:
                rows = _run_epoch(run, epoch, rows)
                epoch += 1
        seen_count = int(sum(ray.get([s.size.remote() for s in shards])))
        if collect_seen:  # test-only: full snapshot for bit-for-bit oracles
            seen = np.sort(np.concatenate(
                ray.get([s.snapshot.remote() for s in shards])))
        else:
            seen = np.array([], dtype=np.uint64)
    return {
        "crawl_order": run.crawl_order,
        "seen": [int(x) for x in seen],
        "seen_count": seen_count,
        "metrics": run.metrics,
        "epochs_run": len(run.metrics),
    }


def _clear(cfg: CrawlConfig) -> tuple[int, int]:
    """A fresh run into a reused out_dir: a previous same-lineage run's
    checkpoints MUST NOT survive — this run rewrites sidecar data
    destructively, and a later resume would trust the stale manifests as
    complete (silently skipping never-refetched epochs).  Returns the first
    epoch and its frontier's row count."""
    for d in ("_ckpt", "sidecar"):
        shutil.rmtree(os.path.join(cfg.out_dir, d), ignore_errors=True)
    return 0, cfg.n_seeds


def _restore(run: _Run) -> tuple[int, int]:
    """Resume: scatter every complete epoch's seen-delta files back into the
    shards and take those epochs' crawl order and metrics from their
    manifests.  Returns the first epoch to run and its frontier's row
    count."""
    cfg = run.cfg
    last = -1  # the last epoch with a complete manifest
    while os.path.exists(os.path.join(_epoch_dir(cfg, last + 1), "manifest.json")):
        last += 1
    restores = []
    for e in range(last + 1):
        with open(os.path.join(_epoch_dir(cfg, e), "manifest.json")) as fh:
            man = json.load(fh)
        if man["lineage_id"] != cfg.lineage_id():
            # explicit raise, not assert: a cross-config resume must
            # hard-fail even under python -O
            raise ValueError(
                f"config/lineage mismatch resuming {cfg.out_dir}: "
                f"epoch {e} was written by {man['lineage_id']}, "
                f"this config is {cfg.lineage_id()}")
        # one scatter task per shard file: the driver touches paths only.
        # *.npy only: a crash during write_delta can leave a truncated
        # shard=K.npy.tmp that np.load would choke on
        restores += [
            _restore_delta_file.remote(p, run.shards, cfg.num_seen_shards)
            for p in sorted(glob.glob(
                os.path.join(_epoch_dir(cfg, e), "seen_delta", "*.npy")))]
        run.crawl_order.append(man["crawl_order"])
        run.metrics.append(man["metrics"])
    ray.get(restores)
    if last < 0:  # no epoch completed: start over from the seeds
        return 0, cfg.n_seeds
    return last + 1, _parquet_rows(_next_frontier_dir(cfg, last))


class _Laps:
    """Runs an epoch's steps back to back, writing each one's wall time to
    ``m["t_<step>"]``.  A lap starts where the last one ended, so the laps
    add up to the epoch's wall time."""

    def __init__(self, m: dict):
        self.m, self.t0 = m, time.perf_counter()

    def __call__(self, name: str, step, *args):
        out = step(*args)
        t1 = time.perf_counter()
        self.m[f"t_{name}"] = round(t1 - self.t0, 3)
        self.t0 = t1
        return out


def _run_epoch(run: _Run, epoch: int, rows: int) -> int:
    """One epoch of ``rows`` frontier rows as its fixed chain of steps.
    Appends the epoch's crawl order and metrics to ``run``; returns the next
    frontier's row count."""
    m: dict = {"epoch": epoch, "candidates": rows}
    lap = _Laps(m)
    flagged = lap("budget", _budget, run, m, epoch, rows)
    selected, next_frontier = lap("split_selected", _split_selected,
                                  run, epoch, flagged)
    lap("politeness", _politeness, run, m, epoch, selected)
    lap("fetch_sidecar_write", _fetch_sidecar_write, run, m, epoch, selected)
    order = lap("order", _order, selected, run.collect_order)
    lap("next_frontier", _next_frontier, m, next_frontier)
    # the manifest written in this step holds every lap but its own
    lap("checkpoint", _checkpoint, run, m, epoch, order)
    run.crawl_order.append(order)
    run.metrics.append(m)
    return m["leftover"] + m["links"]


def _materialized(flagged) -> MaterializedDataset:
    """``flagged`` may only be read from its one materialization:
    filter_robots reports denied counts to the politeness actors under an
    idempotency key scoped by Ray TASK id, so a retry of a task dedupes but
    a second run of the plan counts every denial again.  Raise, not
    assert: the check must hold under python -O."""
    if not isinstance(flagged, MaterializedDataset):
        raise TypeError("the budget step's output must be a "
                        f"MaterializedDataset, got {type(flagged).__name__}")
    return flagged


def _seed_rows(batch: pa.Table, n_hosts: int, seed: int, graph: str) -> pa.Table:
    """The frontier rows of one block of seed ids."""
    return fr.candidates_from_urls(
        [synth.make_seed(i, n_hosts, seed, graph)
         for i in batch.column("id").to_pylist()], epoch=0)


def _frontier(cfg: CrawlConfig, epoch: int, rows: int) -> rd.Dataset:
    """The epoch's frontier as a lazy dataset: the previous epoch's
    next-frontier parquet (one block per file), or at epoch 0 the ``rows``
    seeds, generated in tasks over blocks of ids so the filter/budget chain
    fans out.  The ids are one range block split by ``repartition`` (one
    split and one reduce task), not one read task per block: the robots
    filter bundles the blocks into 8192-row tasks, which also build the
    seed rows, and 42 tiny read tasks made a 21k-seed crawl's cold round
    ~1.5 s slower (median, 4 CPUs)."""
    if epoch:
        return rd.read_parquet(_next_frontier_dir(cfg, epoch - 1))
    n_blocks = min(rows, max(8, min(64, rows // 500)))  # no empty blocks
    return rd.range(rows, override_num_blocks=1).repartition(n_blocks).map_batches(
        _seed_rows, batch_format="pyarrow", batch_size=None,
        fn_kwargs=dict(n_hosts=cfg.n_hosts, seed=cfg.seed, graph=cfg.graph))


def _budget(run: _Run, m: dict, epoch: int, rows: int) -> MaterializedDataset:
    """Frontier → seen anti-join → robots filter → per-host budget top-k
    (with the exact url_hash dedup folded into select_budget's stage 1),
    materialized once: every row, flagged ``selected`` or not."""
    cfg, shards = run.cfg, run.shards
    ds = _frontier(cfg, epoch, rows)
    # nothing is seen before epoch 0's fetch (a resume that starts there has
    # no delta to restore), so epoch 0 skips the anti-join, and its frontier
    # tasks start without waiting for the shard actors to come up
    if epoch:
        blobs = ray.get([s.bloom_summary.remote() for s in shards])
        bloom = BloomFilter.deserialize(blobs[0])
        for b in blobs[1:]:
            bloom.merge(BloomFilter.deserialize(b))
        ds = fr.filter_unseen(ds, shards, bloom.serialize(), cfg.num_seen_shards)
    ds = fr.filter_robots(ds, run.policies, cfg.num_policy_actors,
                          rules_ref=run.rules_ref)
    flagged = fr.select_budget(ds, cfg.budget_per_host, dedup=True,
                               policy=cfg.policy).materialize()
    m["after_budget_pool"] = flagged.count()
    return flagged


def _selected_with_part(t: pa.Table, num_parts: int) -> pa.Table:
    """The selected rows and their fetch partition (part = url_hash % P)."""
    t = t.filter(pc.equal(t["selected"], True)).drop_columns(["selected"])
    h = t.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
    return t.append_column(
        "part", pa.array((h % np.uint64(num_parts)).astype(np.int64)))


def _leftover(t: pa.Table, next_epoch: int) -> pa.Table:
    """The rows not selected, carried into the next epoch's frontier."""
    t = t.filter(pc.equal(t["selected"], False)).drop_columns(["selected"])
    return t.set_column(t.column_names.index("epoch"), "epoch",
                        pa.array(np.full(t.num_rows, next_epoch, np.int32)))


def _write_frontier(ds: rd.Dataset, path: str) -> int:
    """Write ``ds`` as the parquet directory ``path``; returns its rows.
    Clears first: write_parquet APPENDS (UUID filenames never collide), so
    stale files from a crashed attempt — or a previous run reusing this
    out_dir — would silently ride along into the next epoch's frontier."""
    shutil.rmtree(path, ignore_errors=True)
    ds.write_parquet(path)
    return _parquet_rows(path)


def _split_selected(run: _Run, epoch: int, flagged) -> tuple[MaterializedDataset, Future]:
    """``flagged`` → the selected rows with their fetch partition,
    materialized once; and the next frontier (leftover ∪ links discovered
    from the selected rows, epoch bumped), handed to the writer thread.
    The next frontier depends only on the materialized `flagged` and
    `selected`, so its write overlaps the politeness and fetch steps (the
    streaming executors share the cluster; stragglers of one fill the
    other's idle slots)."""
    cfg, max_depth = run.cfg, run.cfg.max_depth
    flagged = _materialized(flagged)
    selected = flagged.map_batches(
        _selected_with_part, batch_format="pyarrow",
        fn_args=(cfg.num_fetch_partitions,)).materialize()
    links = fr.discover_links(
        selected.map_batches(lambda t: t.filter(pc.less(t["depth"], max_depth)),
                             batch_format="pyarrow"),
        epoch, cfg.n_hosts, cfg.seed, policy=cfg.policy,
        graph=cfg.graph, hot_frac=cfg.hot_frac,
    )
    leftover = flagged.map_batches(_leftover, batch_format="pyarrow",
                                   fn_args=(epoch + 1,))
    return selected, run.writer.submit(_write_frontier, leftover.union(links),
                                       _next_frontier_dir(cfg, epoch))


def _host_counts(t: pa.Table) -> pa.Table:
    vc = t.column("host").value_counts()
    return pa.table({"host": vc.field("values"),
                     "n": pc.cast(vc.field("counts"), pa.int64())})


def _politeness(run: _Run, m: dict, epoch: int, selected: MaterializedDataset) -> None:
    """Grant the selected URLs at the HostPolicy token buckets: per-block
    host counts combined on the driver (at most one row per host, so no
    all-to-all shuffle), then one ``grant_many`` RPC per actor."""
    cfg = run.cfg
    host_counts: dict[str, int] = {}
    for b in selected.map_batches(_host_counts, batch_format="pyarrow",
                                  zero_copy_batch=True).iter_batches(
                                      batch_format="pyarrow", batch_size=None):
        for h, n in zip(b.column("host").to_pylist(), b.column("n").to_pylist()):
            host_counts[h] = host_counts.get(h, 0) + n
    m["selected"] = sum(host_counts.values())
    hosts = sorted(host_counts)
    # policy-effective per-host budgets (a FrontierPolicy may raise a host's
    # budget above the configured default; the token buckets must open with
    # the same value select_budget enforced)
    budgets = ([cfg.budget_per_host] * len(hosts) if cfg.policy is None or not hosts
               else cfg.policy.host_budget(np.asarray(hosts), cfg.budget_per_host))
    by_actor: dict[int, tuple[list[str], list[int], list[int]]] = {}
    for h, b in zip(hosts, budgets):
        hs, ns, bs = by_actor.setdefault(
            host_shard(h, cfg.num_policy_actors), ([], [], []))
        hs.append(h)
        ns.append(host_counts[h])
        bs.append(int(b))
    granted = sum(ray.get([run.policies[a].grant_many.remote(hs, epoch, ns, bs)
                           for a, (hs, ns, bs) in by_actor.items()]))
    if granted != m["selected"]:  # not assert: must fire under -O
        raise RuntimeError(
            f"budget invariant violated: granted {granted} != "
            f"selected {m['selected']} (a FrontierPolicy returning "
            "different budgets to select_budget vs the grant path?)")


def _done_parts(cfg: CrawlConfig, epoch: int) -> set[int]:
    """The fetch partitions an earlier attempt at this epoch completed.  A
    part manifest counts ONLY if it was written by THIS crawl (lineage) with
    THIS partition count — part numbers are url_hash % P, so manifests from
    a different P (or a stale run in a reused out_dir) would mark
    never-fetched URLs as done and silently drop them.  A fresh run has
    cleared ``_ckpt``, so it finds none."""
    done: set[int] = set()
    for path in glob.glob(os.path.join(_epoch_dir(cfg, epoch), "parts", "part=*.json")):
        try:
            with open(path) as fh:
                pman = json.load(fh)
        except (json.JSONDecodeError, OSError):
            continue
        if (pman.get("lineage_id") == cfg.lineage_id()
                and pman.get("num_fetch_partitions") == cfg.num_fetch_partitions
                and pman.get("epoch") == epoch):
            done.add(int(os.path.basename(path)[len("part="):-len(".json")]))
    return done


def _clear_unfinished_parts(path: str, done: set[int]) -> set[int]:
    """Remove the partial writes of parts without a (valid) manifest —
    ALWAYS, not only when some part finished: a crash during the fetch write
    leaves partial files with no manifest at all, and re-writing next to
    them would duplicate rows.  Returns the parts whose files stay."""
    if not os.path.isdir(path):
        return done
    if storage.HAVE_LANCE:  # pragma: no cover - lance absent here
        # the Lance layout has no part= dirs (its entries are dataset
        # internals: data/, _versions/, ...) — clearing them piecemeal
        # corrupts the dataset root.  Lance resume granularity is the whole
        # epoch: rewrite it.
        shutil.rmtree(path, ignore_errors=True)
        return set()
    for d in os.listdir(path):  # junk entries (part=3.bak, temp files) go too
        k = d[len("part="):] if d.startswith("part=") else ""
        if not (k.isdigit() and int(k) in done):
            shutil.rmtree(os.path.join(path, d), ignore_errors=True)
    return done


def _skip_done_parts(run: _Run, m: dict, selected: MaterializedDataset,
                     done: set[int]) -> rd.Dataset:
    """Re-mark the done parts' URLs seen (their fetch is on disk; actor state
    died with the crashed run) in tasks, idempotently, and return the
    selected rows of the other parts.  The driver sums one count per
    block."""
    shards, num_shards = run.shards, run.cfg.num_seen_shards
    done_arr = pa.array(sorted(done), pa.int64())

    def mark_done_seen(t: pa.Table) -> pa.Table:
        h = t.filter(pc.is_in(t.column("part"), value_set=done_arr)).column("url_hash")
        ray.get(call_seen_shards(shards, num_shards, "add_many",
                                 h.to_numpy(zero_copy_only=False))[0])
        return pa.table({"n": pa.array([len(h)], pa.int64())})

    m["resumed_parts"] = sorted(done)
    m["resumed_rows"] = int(sum(
        b.column("n").to_pylist()[0]
        for b in selected.map_batches(
            mark_done_seen, batch_format="pyarrow", zero_copy_batch=True
        ).iter_batches(batch_format="pyarrow", batch_size=None)))
    return selected.map_batches(
        lambda t: t.filter(pc.invert(pc.is_in(t.column("part"), value_set=done_arr))),
        batch_format="pyarrow", zero_copy_batch=True)


def _write_part_manifests(cfg: CrawlConfig, epoch: int, path: str,
                          done: set[int]) -> int:
    """One manifest per part written this attempt: the north_rule lineage
    unit (config lineage → frontier epoch → fetch partition).  One threaded
    footer scan serves both the manifests and the returned epoch total."""
    rows_by_file = _parquet_rows_by_file(path)
    parts_dir = os.path.join(_epoch_dir(cfg, epoch), "parts")
    os.makedirs(parts_dir, exist_ok=True)
    for d in sorted(os.listdir(path)) if os.path.isdir(path) else []:
        if not d.startswith("part=") or int(d.split("=")[1]) in done:
            continue
        k, pdir = int(d.split("=")[1]), os.path.join(path, d)
        _write_ckpt(os.path.join(parts_dir, f"part={k}.json"), {
            "lineage_id": cfg.lineage_id(),
            "epoch": epoch,
            "part": k,
            "num_fetch_partitions": cfg.num_fetch_partitions,
            "rows": sum(n for f, n in rows_by_file.items()
                        if f.startswith(pdir + os.sep)),
            "files": sorted(os.listdir(pdir)),
        })
    return sum(rows_by_file.values())


def _fetch_sidecar_write(run: _Run, m: dict, epoch: int,
                         selected: MaterializedDataset) -> None:
    """Fetch (marks seen) + sidecar extraction in ONE elastic task stage →
    parquet partitioned by fetch partition, one manifest per part.  Parts a
    crashed attempt finished are re-marked seen instead of re-fetched
    (determinism makes re-selection identical)."""
    cfg = run.cfg
    path = _sidecar_dir(cfg, epoch)
    done = _clear_unfinished_parts(path, _done_parts(cfg, epoch))
    to_fetch = _skip_done_parts(run, m, selected, done) if done else selected
    # The unit of map parallelism is the BLOCK.  The fetch's block count is
    # sized by DATA (rows / per-task quantum), NOT by cluster size — a
    # cpus-proportional plan produces different task shapes (and output-file
    # counts) at different cluster sizes, which skews scaling and makes runs
    # non-comparable.  The budget exchange emits about one block per CPU
    # (``shuffle.copartition``), so the selected rows are re-split to the
    # data-sized count whenever the exchange's count differs from it.
    n_remaining = m["selected"] - m.get("resumed_rows", 0)
    n_blocks = max(1, min(128, n_remaining // 256 + 1))
    if selected.num_blocks() != n_blocks:
        to_fetch = to_fetch.repartition(n_blocks)
    # one fetch task per block; 256 rows per fetcher call inside it
    sidecar_ds = to_fetch.map_batches(
        pipeline.sliced(make_fetcher(run.shards, cfg.num_seen_shards, cfg.seed), 256),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )
    if storage.HAVE_LANCE:  # pragma: no cover - lance absent in sandbox
        storage.write_table(sidecar_ds, path)
        m["sidecar_rows"] = rd.read_lance(path).count()
        return
    if n_remaining > 0:
        sidecar_ds.write_parquet(path, partition_cols=["part"])
    m["sidecar_rows"] = _write_part_manifests(cfg, epoch, path, done)


def _order(selected: MaterializedDataset, collect_order: bool) -> list[str]:
    """The epoch's deterministic crawl order (THE total order, §2.6 — shared
    with select_budget and the oracle via fr.SORT_COLS so the three can't
    drift); gathered on the driver only when a test asks for it."""
    if not collect_order:
        return []
    rows = selected.sort(fr.SORT_COLS, descending=[not a for a in fr.SORT_ASC]
                         ).select_columns(["url_canon"]).take_all()
    return [r["url_canon"] for r in rows]


def _next_frontier(m: dict, write: Future) -> None:
    """Wait for the next frontier's write (``.result()`` re-raises its
    error).  The leftover count is arithmetic — a leftover.count() would
    re-execute the filter pipeline just for a metric."""
    m["leftover"] = m["after_budget_pool"] - m["selected"]
    m["links"] = write.result() - m["leftover"]


def _checkpoint(run: _Run, m: dict, epoch: int, order: list[str]) -> None:
    """The seen-set delta (each shard writes ITS OWN file: the driver sees
    counts and paths only), the epoch's robots denials, and the manifest
    that marks the epoch complete."""
    cfg = run.cfg
    delta_dir = os.path.join(_epoch_dir(cfg, epoch), "seen_delta")
    os.makedirs(delta_dir, exist_ok=True)
    m["seen_delta_rows"] = int(sum(ray.get([
        s.write_delta.remote(os.path.join(delta_dir, f"shard={i}.npy"))
        for i, s in enumerate(run.shards)])))
    denied = sum(p["denied_robots"]
                 for p in ray.get([p.metrics.remote() for p in run.policies]))
    # per-EPOCH delta: cumulative actor-lifetime totals would differ between
    # an uninterrupted run and a resumed one (reset actors restart at 0)
    m["robots_denied"], m["robots_denied_total"] = denied - run.denied, denied
    run.denied = denied
    path = _sidecar_dir(cfg, epoch)
    _write_ckpt(os.path.join(_epoch_dir(cfg, epoch), "manifest.json"), {
        "lineage_id": cfg.lineage_id(),
        "epoch": epoch,
        "metrics": m,
        "crawl_order": order,
        "sidecar_partition": path,
        "sidecar_files": sorted(os.listdir(path)) if os.path.isdir(path) else [],
    })


def main(argv: list[str] | None = None) -> dict:
    """CLI entry for ``ray job submit -- python -m sidecar.crawl [...]``.

    On a real cluster the same command runs unchanged — ray.init() with no
    address inside a job context attaches to the cluster that submitted it.
    Only this CLI owns a Ray session (guarded: never re-inits when the
    driver/jobs runtime already initialised Ray).
    """
    # argparse defaults are None SENTINELS so "flag was given on the command
    # line" is distinguishable from "flag omitted" — an explicit --seed 42
    # must beat a config file's seed even though 42 is also the default;
    # CrawlConfig's own defaults fill in the rest
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

    fields = CrawlConfig.__dataclass_fields__
    # precedence: defaults < config file < explicit flags
    cfg = CrawlConfig(**{**{k: v for k, v in file_cfg.items() if k in fields},
                         **{k: v for k, v in vars(args).items()
                            if k in fields and v is not None}})
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
