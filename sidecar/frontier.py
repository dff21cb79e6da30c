"""Frontier epoch planning: the priority-queue-as-shuffles core of the crawl
(BASELINE.json:north_rule — "priority-queue frontier realized as
groupby(host)-aggregate-sort shuffles ... with explicit hash partitioning and
hot-host skew splitting").

All frontier tables carry METADATA ONLY (url/host/priority/...) — image bytes
never enter these shuffles (SURVEY.md §4.2, watch-list #3).

Total ordering (crawl-order determinism, SURVEY.md §2.6): every selection
sorts by the same key ``(-priority, depth, url_hash, seed_id)`` — never by
partition arrival order.  The single-threaded oracle (sidecar/oracle.py) uses
the identical functions, which is what makes bit-for-bit equality testable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from sidecar import runs, schemas, synth
from sidecar.actors import call_seen_shards, host_shard
from sidecar.canon import canonical_url, host_of, url_hash
from sidecar.shuffle import broadcast_value, copartition
from sidecar.state import BloomFilter

SORT_COLS = ["priority", "depth", "url_hash", "seed_id", "url"]
SORT_ASC = [False, True, True, True, True]
# the total order as a run-kernel sort order (sidecar.runs)
_ORDER = tuple((c, "ascending" if a else "descending")
               for c, a in zip(SORT_COLS, SORT_ASC))


def order_key(row: dict) -> tuple:
    """The one total order used everywhere (negated priority first)."""
    return (-row["priority"], row["depth"], row["url_hash"], row["seed_id"], row["url"])


def candidates_from_urls(rows: list[dict], epoch: int) -> pa.Table:
    """urls+priority+depth+seed_id dicts → FRONTIER-shaped Arrow table."""
    out = {
        "url": [], "url_canon": [], "url_hash": [], "host": [],
        "priority": [], "depth": [], "seed_id": [], "epoch": [],
    }
    for r in rows:
        canon = canonical_url(r["url"])
        out["url"].append(r["url"])
        out["url_canon"].append(canon)
        out["url_hash"].append(url_hash(canon))
        out["host"].append(host_of(r["url"]))
        out["priority"].append(float(r["priority"]))
        out["depth"].append(int(r.get("depth", 0)))
        out["seed_id"].append(int(r.get("seed_id", -1)))
        out["epoch"].append(epoch)
    return pa.table(out, schema=schemas.FRONTIER)


def filter_unseen(frontier: "rd.Dataset", seen_shards: list, bloom_blob: bytes | None,
                  num_shards: int) -> "rd.Dataset":
    """Anti-join against the seen-set shards (J3).

    Worker-side bloom pre-filter (deserialized on the driver, ``ray.put``
    once and read through ``shuffle.broadcast_value``, so each worker loads
    it once per epoch) answers "definitely unseen" locally; only bloom
    positives RPC the shards, batched per shard.  ``bloom_blob`` is a
    serialized ``BloomFilter``, or None before any summary exists.
    """
    bloom_ref = ray.put(None if bloom_blob is None
                        else BloomFilter.deserialize(bloom_blob))
    shard_handles = list(seen_shards)

    def f(batch: pa.Table) -> pa.Table:
        hashes = batch.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(hashes)
        if n == 0:
            return batch
        bf = broadcast_value(bloom_ref)  # once per worker, not per batch
        if bf is None:
            maybe_seen = np.ones(n, dtype=bool)  # no summary yet → ask shards
        else:
            maybe_seen = bf.maybe_contains(hashes)
        seen = np.zeros(n, dtype=bool)
        idx = np.flatnonzero(maybe_seen)
        refs, rows = call_seen_shards(shard_handles, num_shards,
                                      "contains_many", hashes[idx])
        for r, res in zip(rows, ray.get(refs)):
            seen[idx[r]] = res
        return batch.filter(pa.array(~seen))

    return frontier.map_batches(f, batch_format="pyarrow", batch_size=8192,
                                zero_copy_batch=True)


def filter_robots(frontier: "rd.Dataset", host_policies: list, num_actors: int,
                  rules_ref) -> "rd.Dataset":
    """Drop rows disallowed by the robots rules.

    The HostPolicy actors OWN the robots cache (they'd fetch/refresh
    robots.txt in a live crawl); workers read a read-only snapshot through
    the ObjectRef ``rules_ref`` (the crawl passes its ``rules_snapshot``
    call's, so the rules never pass through the driver) and evaluate
    locally — per-row evaluation inside the fixed-count actor pool was a
    serial fraction that capped crawl-loop scaling.  Denial COUNTS (not
    rows) are folded back per batch with one O(1) ``note_denied`` RPC, so
    the actors' metrics stay authoritative.
    """
    handles = list(host_policies)

    def f(batch: pa.Table) -> pa.Table:
        from sidecar.robots import is_allowed
        from urllib.parse import urlsplit

        rules = ray.get(rules_ref)  # node-local after first fetch
        hosts = batch.column("host").to_pylist()
        n = len(hosts)
        denied = np.zeros(n, dtype=bool)
        # evaluate per (host, path); memoize within the batch — frontier
        # batches repeat hosts heavily and paths are synthetic templates
        memo: dict[tuple[str, str], bool] = {}
        for i, (host, u) in enumerate(zip(hosts, batch.column("url_canon").to_pylist())):
            path = urlsplit(u).path or "/"
            key = (host, path)
            bad = memo.get(key)
            if bad is None:
                bad = memo[key] = not is_allowed(rules.get(host, []), path)
            denied[i] = bad
        n_denied = int(denied.sum())
        if n_denied:
            # attribute counts to the denied hosts' cache shards (O(1) actor work)
            import hashlib

            per_actor: dict[int, int] = {}
            for host in (hosts[i] for i in np.flatnonzero(denied)):
                a = host_shard(host, num_actors)
                per_actor[a] = per_actor.get(a, 0) + 1
            # idempotency key = (task id, content hash over url_hash +
            # seed_id + depth): a Ray retry re-executes the SAME task id
            # with the same batches, so the key re-reports and the actor
            # drops it — while two distinct logical batches with identical
            # content land in different tasks and both count.  Hashing the
            # discovery coordinates too (not url_hash alone) means even two
            # same-task batch slices full of one hot duplicated URL collide
            # only if every row is a FULL duplicate — which upstream link
            # discovery cannot emit for one (source, j) twice.  No
            # per-process state: any re-execution, warm worker or fresh,
            # reproduces the same key.
            tid = ray.get_runtime_context().get_task_id() or "driver"
            hh = hashlib.blake2b(digest_size=8)
            hh.update(batch.column("url_hash").to_numpy(zero_copy_only=False)
                      .astype(np.uint64).tobytes())
            for extra in ("seed_id", "depth"):
                if extra in batch.column_names:
                    hh.update(batch.column(extra)
                              .to_numpy(zero_copy_only=False)
                              .astype(np.int64).tobytes())
            bkey = f"{tid}:{hh.hexdigest()}"
            ep = int(batch.column("epoch")[0].as_py())
            # awaited so the counts land before the epoch-end metrics read
            ray.get([handles[a].note_denied.remote(c, bkey, ep)
                     for a, c in per_actor.items()])
        return batch.filter(pa.array(~denied))

    return frontier.map_batches(f, batch_format="pyarrow", batch_size=8192,
                                zero_copy_batch=True)


def select_budget(frontier: "rd.Dataset", budget: int,
                  n_salts: int = 16, dedup: bool = False,
                  size_hint: int | None = None,
                  policy=None) -> "rd.Dataset":
    """Politeness top-k per host with hot-host skew splitting (A4, §2.6).

    Stage 1 groups by ``(host, salt)`` (salt = url_hash % n_salts) and marks
    each group's local top-``budget`` as finalists — so a hot host's million
    candidates are ranked in parallel sub-groups, none bigger than
    group/n_salts.  Stage 2 ranks only the ≤ budget×n_salts finalists per
    host.  Rows keep a ``selected`` flag; non-selected rows are the leftover
    frontier (the persistent priority queue).  Top-k(host) ≡ top-k of the
    union of per-salt top-k, so salting never changes the selection.

    ``dedup=True`` is A4's exact per-epoch dedup, SURVEY's groupby(url_hash)
    keeping the best row by the total order, folded into stage 1:
    duplicates of a url_hash always share (host, salt), so it needs no
    all-to-all of its own.

    Both stages are ``copartition`` exchanges at every frontier size, so a
    frontier with no rows at all comes back with no blocks.  ``size_hint``
    is accepted and ignored, for callers that still pass it.

    ``policy`` (a ``sidecar.policy.FrontierPolicy``) overrides the constant
    per-host budget via its vectorized ``host_budget`` hook; ``None`` keeps
    the scalar fast path.
    """

    def _budgets(hosts) -> "int | np.ndarray":
        if policy is None:
            return budget
        return policy.host_budget(np.asarray(hosts), budget)

    # Ray-level grouping co-partitions on (host, salt), then on host (about
    # one group per CPU per stage, never more than its input blocks); the
    # exact (host, salt) / host grouping happens vectorized INSIDE each task
    # as runs of a sorted table — per-group Python dispatch over
    # (hosts × salts) tiny groups dominated wall time otherwise (measured
    # 13-17s → ~4s for a 400k-row frontier at 32 CPUs).  host and url_hash
    # are never null, so no row leaves a run kernel for its key.
    def with_salt(batch: pa.Table) -> pa.Table:
        h = batch.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.append_column(
            "salt", pa.array((h % np.uint64(n_salts)).astype(np.int32)))

    def stage1(t: pa.Table) -> pa.Table:
        if dedup:  # the best row per url_hash (first in the total order)
            t = runs.first(t, ["url_hash"], _ORDER)
        t, s = runs.groups(t, ["host", "salt"], _ORDER)
        bud = _budgets(t.column("host").to_numpy(zero_copy_only=False))
        return t.append_column("finalist", pa.array(runs.rank(s) < bud))

    def stage2(t: pa.Table) -> pa.Table:
        t, s = runs.groups(t, ["host"], _ORDER)
        # rank finalists per host in total order; cumsum counts only them
        fin = t.column("finalist").to_numpy(zero_copy_only=False)
        bud = _budgets(t.column("host").to_numpy(zero_copy_only=False))
        selected = fin & (runs.cumsum(fin, s) - fin < bud)
        return t.drop_columns(["salt", "finalist"]).append_column(
            "selected", pa.array(selected))

    salted = frontier.map_batches(with_salt, batch_format="pyarrow", zero_copy_batch=True)
    return copartition(copartition(salted, ["host", "salt"], stage1), "host", stage2)


def discover_links(selected: "rd.Dataset", epoch: int, n_hosts: int, seed: int,
                   policy=None, graph: str = "b2",
                   hot_frac: int = 4) -> "rd.Dataset":
    """Deterministic link discovery from the fetched set (ST7's discovery
    half): one flat_map-shaped map_batches emitting next-epoch candidates.
    ``policy`` (a ``sidecar.policy.FrontierPolicy``) rewrites the
    graph-emitted link priorities via its vectorized ``link_priority``."""

    def f(batch: pa.Table) -> pa.Table:
        rows: list[dict] = []
        for canon, depth, seed_id in zip(
            batch.column("url_canon").to_pylist(),
            batch.column("depth").to_pylist(),
            batch.column("seed_id").to_pylist(),
        ):
            for link_url, prio in synth.out_links(canon, n_hosts=n_hosts,
                                                  seed=seed, graph=graph,
                                                  hot_frac=hot_frac):
                rows.append(
                    {"url": link_url, "priority": prio, "depth": depth + 1,
                     "seed_id": seed_id}
                )
        if policy is not None and rows:
            new_p = policy.link_priority(
                [r["url"] for r in rows],
                np.array([r["priority"] for r in rows], dtype=np.float64),
                np.array([r["depth"] for r in rows], dtype=np.int64),
            )
            for r, p in zip(rows, new_p):
                r["priority"] = float(p)
        return candidates_from_urls(rows, epoch + 1)

    return selected.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
