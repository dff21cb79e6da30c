"""Ray actors holding the crawl's shared mutable state (SURVEY.md §2.3
ST5-ST7) — the only pieces the Dataset API genuinely can't express.

- :class:`SeenShard` — one shard of the URL-seen set (cuckoo filter + exact
  backstop + append-only delta log for checkpointing). Shard key =
  ``url_hash % num_shards``.  ``add_many`` is idempotent, so Ray task
  retries are safe (watch-list #2).
- :class:`HostPolicy` — per-host politeness token buckets + robots cache.
  Shard key = ``hash(host) % num_actors`` so a host always routes to the
  same actor.  Budgets are deterministic counts per epoch, never wall-clock
  (crawl-order determinism, SURVEY.md §4.3).

Batched APIs throughout: one RPC per (batch × shard), never per URL.

A crawl takes its actors from :func:`crawl_actors`, which keeps them for the
Ray session and resets them between crawls.  :func:`warm_session` is the
engine's once-per-session start-up, keyed by the same :func:`session`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import ray

from sidecar import synth
from sidecar.state import BloomFilter, CuckooFilter


@ray.remote(num_cpus=0)  # pure state actor: zero CPU reservation so pools
# of state shards always schedule even on tiny clusters (a 0.25 reservation
# deadlocked fetch actors blocked on shard RPCs at num_cpus=4)
class SeenShard:
    """Exact membership lives in a sorted uint64 array plus a small sorted
    ``pending`` buffer (merged when it outgrows ``merge_threshold``) — every
    shard op is a numpy kernel, never a per-key Python loop.  The shard is
    single-threaded, so at high fetch concurrency its per-RPC service time is
    the crawl's serial fraction; the r1 per-key loops (7.3 us/key measured)
    capped scaling and are why this is array-based."""

    def __init__(self, shard_id: int, n_buckets: int = 1 << 16, bloom_bits: int = 1 << 20,
                 merge_threshold: int = 1 << 16):
        self.shard_id = shard_id
        self.n_buckets = n_buckets
        self._merge_threshold = merge_threshold
        self.bloom_bits = bloom_bits
        self.reset()

    def reset(self) -> None:
        """The empty shard ``__init__`` builds: a pooled shard starts each
        crawl from it (:func:`crawl_actors`)."""
        self.cuckoo = CuckooFilter(n_buckets=self.n_buckets)
        self._merged = np.empty(0, dtype=np.uint64)   # sorted, bulk of keys
        self._pending = np.empty(0, dtype=np.uint64)  # sorted, recent adds
        self.delta: list[np.ndarray] = []  # arrays appended since last checkpoint
        # maintained INCREMENTALLY in add_many (blooms are add-only and
        # order-independent): bloom_summary is O(serialize), not an
        # every-epoch rebuild over ALL accumulated keys — at crawl scale the
        # rebuild grows linearly with crawl age and becomes the shard-side
        # serial fraction
        self._bloom = BloomFilter(n_bits=self.bloom_bits)

    def _known(self, h: np.ndarray) -> np.ndarray:
        """Vectorized exact membership against merged + pending."""
        out = np.zeros(len(h), dtype=bool)
        for arr in (self._merged, self._pending):
            if len(arr):
                pos = np.searchsorted(arr, h)
                pos[pos == len(arr)] = 0
                out |= arr[pos] == h
        return out

    def contains_many(self, hashes: np.ndarray) -> np.ndarray:
        """Membership: cuckoo answers 'maybe'; positives verified exactly."""
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        h = np.asarray(hashes, dtype=np.uint64)
        maybe = self.cuckoo.contains_many(h)
        out = np.zeros(len(h), dtype=bool)
        idx = np.flatnonzero(maybe)
        if len(idx):
            out[idx] = self._known(h[idx])
        return out

    def add_many(self, hashes: np.ndarray) -> int:
        """Idempotent insert; returns number of genuinely-new keys."""
        h = np.unique(np.asarray(hashes, dtype=np.uint64))
        if len(h) == 0:
            return 0
        new = h[~self._known(h)]
        if len(new):
            self.cuckoo.add_many(new)
            self._bloom.add_many(new)
            self.delta.append(new)
            self._pending = np.union1d(self._pending, new)
            if len(self._pending) >= self._merge_threshold:
                self._merged = np.union1d(self._merged, self._pending)
                self._pending = np.empty(0, dtype=np.uint64)
        return len(new)

    def bloom_summary(self) -> bytes:
        """Serialized bloom over this shard's keys (worker-side pre-filter);
        O(n_bits) — the bloom is maintained incrementally by add_many."""
        return self._bloom.serialize()

    def snapshot(self) -> np.ndarray:
        return np.union1d(self._merged, self._pending)

    def _drain(self) -> np.ndarray:
        out = (np.sort(np.concatenate(self.delta)) if self.delta
               else np.empty(0, dtype=np.uint64))
        self.delta = []
        return out

    def drain_delta(self) -> np.ndarray:
        """Keys added since the last drain (checkpoint delta log)."""
        return self._drain()

    def write_delta(self, path: str) -> int:
        """Write this shard's delta log to ``path`` SHARD-SIDE (atomic tmp +
        rename) and clear it; returns the key count.  The driver handles
        only paths and counts — at the 10^10-URL target a driver-side
        concat of all shards' deltas is an OOM (VERDICT r1 #3)."""
        import os

        out = self._drain()
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            np.save(f, out)
        os.replace(tmp, path)
        return len(out)

    def restore(self, keys: np.ndarray) -> int:
        """Re-insert checkpointed keys WITHOUT logging them as new deltas:
        restored keys were already persisted by the epoch that first saw
        them, so appending them to ``delta`` would make the first
        post-resume checkpoint a whole-seen-set snapshot (and each further
        resume would re-write it) instead of that epoch's true delta."""
        n = self.add_many(keys)
        if n:
            self.delta.pop()  # add_many logged exactly one array for these
        return n

    def size(self) -> int:
        return len(self._merged) + len(self._pending)


@ray.remote(num_cpus=0)  # pure state actor: zero CPU reservation so pools
# of state shards always schedule even on tiny clusters (a 0.25 reservation
# deadlocked fetch actors blocked on shard RPCs at num_cpus=4)
class HostPolicy:
    """Politeness + robots for the hosts sharded onto this actor."""

    def __init__(self, actor_id: int, budget_per_epoch: int, n_hosts: int = 20,
                 seed: int = 42, graph: str = "b2"):
        self.actor_id = actor_id
        self.budget = budget_per_epoch
        self._robots = synth.robots_rules(n_hosts=n_hosts, seed=seed,
                                          graph=graph)  # cache built once
        self.reset()

    def reset(self) -> None:
        """Full token buckets and zeroed metrics, as ``__init__`` leaves
        them: a pooled actor starts each crawl from here and keeps only its
        robots cache (:func:`crawl_actors`)."""
        self.tokens: dict[tuple[str, int], int] = {}  # (host, epoch) -> remaining
        self.granted: int = 0
        self.denied_robots: int = 0
        self._denied_keys: dict = {}  # epoch -> batch keys already folded

    def rules_snapshot(self) -> dict:
        """The cached robots rules, for replication: the crawl hands this
        call's ObjectRef to its tasks and workers evaluate locally — per-row
        evaluation inside the (fixed-count) policy actors was a crawl-loop
        serial fraction that didn't shrink with cluster size.  The actor
        stays the cache OWNER (it would fetch/refresh robots.txt in a live
        crawl); workers hold a read-only epoch snapshot."""
        return self._robots

    def note_denied(self, n: int, key: str, epoch: int) -> None:
        """Fold worker-side robots denials back into this cache's metrics.

        ``key`` ("<task id>:<batch content hash>") makes the fold IDEMPOTENT
        under Ray task retries / lineage re-execution — the same batch
        re-reporting after a worker death must not double-count
        (``add_many`` got the same treatment; metrics reproducibility is a
        north_rule contract).  Keys are kept per epoch and pruned once the
        epoch advances past them, so memory stays bounded by two epochs'
        batch counts."""
        seen = self._denied_keys.setdefault(epoch, set())
        if key in seen:
            return
        seen.add(key)
        for e in [e for e in self._denied_keys if e < epoch - 1]:
            del self._denied_keys[e]
        self.denied_robots += int(n)

    def grant(self, host: str, epoch: int, n: int,
              budget: "int | None" = None) -> int:
        """Deterministic token bucket: ``budget`` tokens per (host, epoch)
        (the configured default unless a FrontierPolicy raised/lowered this
        host's budget — the caller passes the policy-effective value).
        Returns how many of the n requests are granted."""
        key = (host, epoch)
        remaining = self.tokens.get(key, self.budget if budget is None else budget)
        take = min(remaining, n)
        self.tokens[key] = remaining - take
        self.granted += take
        return take

    def grant_many(self, hosts: list[str], epoch: int, ns: list[int],
                   budgets: "list[int] | None" = None) -> int:
        """Batched ``grant``: ONE RPC per (actor, epoch) instead of one per
        host — the per-host remote-call fan-out was a per-epoch driver
        constant proportional to host count.  ``budgets`` carries the
        policy-effective per-host budget when a FrontierPolicy overrides the
        default (without it, a budget-RAISING policy would be capped here at
        the constant and trip the crawl's budget invariant)."""
        total = 0
        for i, (host, n) in enumerate(zip(hosts, ns)):
            key = (host, epoch)
            default = self.budget if budgets is None else budgets[i]
            remaining = self.tokens.get(key, default)
            take = min(remaining, n)
            self.tokens[key] = remaining - take
            total += take
        self.granted += total
        # prune buckets of finished epochs (epochs only advance; keeping the
        # previous one tolerates a resumed re-run of the current epoch) —
        # without this the dict grows hosts x epochs for the actor's lifetime
        for k in [k for k in self.tokens if k[1] < epoch - 1]:
            del self.tokens[k]
        return total

    def metrics(self) -> dict:
        return {"granted": self.granted, "denied_robots": self.denied_robots}


def make_seen_shards(num_shards: int, **kwargs) -> list:
    return [SeenShard.remote(i, **kwargs) for i in range(num_shards)]


def make_host_policies(num_actors: int, budget_per_epoch: int, n_hosts: int = 20,
                       seed: int = 42, graph: str = "b2") -> list:
    return [
        HostPolicy.remote(i, budget_per_epoch, n_hosts=n_hosts, seed=seed,
                          graph=graph)
        for i in range(num_actors)
    ]


@dataclass
class _Pool:
    """The crawl's state actors of one Ray session: the seen shards, then
    the policy actors, for one ``shape``."""
    session: tuple[str, str]
    shape: tuple
    actors: list
    held: bool = False


_pool: "_Pool | None" = None


def session() -> tuple[str, str]:
    """The Ray session this process is connected to, as (job id, node id):
    a new local cluster has a new node id, a new connection to a running
    cluster a new job id."""
    ctx = ray.get_runtime_context()
    return ctx.get_job_id(), ctx.get_node_id()


# the Ray session warm_session has started up
_warm: "tuple[str, str] | None" = None


@ray.remote(num_cpus=1)
def _import_engine() -> None:
    """Import what the engine's tasks run: the crawl module brings in
    ray.data, pandas and the package."""
    import pyarrow.dataset  # noqa: F401

    import sidecar.crawl  # noqa: F401


def _start_up() -> None:
    """Start Ray Data's stats actor, which every ``Dataset.__init__`` looks
    up (its process start held a session's first read ~0.9 s on a 4-CPU
    VM), and one import task per CPU slot, so the workers import side by
    side instead of one stage after another.  Waits for neither."""
    from ray.data._internal.stats import StatsManager

    StatsManager._get_or_create_stats_actor()
    for _ in range(int(ray.cluster_resources().get("CPU", 0))):
        _import_engine.remote()


def warm_session() -> None:
    """The engine's start-up, once per Ray session: every Dataset source
    (``storage`` readers, the flagship frontier, ``crawl.run_crawl``) calls
    it first.  It does nothing before ``ray.init`` (it never starts Ray)
    and nothing inside a Ray worker."""
    global _warm
    if (not ray.is_initialized()
            or ray.get_runtime_context().worker.mode != ray.SCRIPT_MODE):
        return
    key = session()
    if _warm != key:
        _warm = key
        _start_up()


def _spawn(shape: tuple, k: int):
    """A fresh k-th actor of a pool of ``shape``."""
    num_shards, _, budget, n_hosts, seed, graph = shape
    if k < num_shards:
        return SeenShard.remote(k)
    return HostPolicy.remote(k - num_shards, budget, n_hosts=n_hosts,
                             seed=seed, graph=graph)


def _reset(pool: _Pool) -> None:
    """One ``reset`` RPC per actor; an actor that died since the last crawl
    is replaced by a fresh one."""
    refs = [a.reset.remote() for a in pool.actors]
    for k, ref in enumerate(refs):
        try:
            ray.get(ref)
        except ray.exceptions.RayActorError:
            pool.actors[k] = _spawn(pool.shape, k)


def _kill(pool: _Pool) -> None:
    for a in pool.actors:
        ray.kill(a)


@contextmanager
def crawl_actors(num_shards: int, num_policies: int, budget_per_epoch: int,
                 n_hosts: int = 20, seed: int = 42, graph: str = "b2"):
    """Yield ``(seen_shards, host_policies)`` for one crawl, in the state
    their ``__init__`` builds.

    The actors are pooled per Ray session: a crawl of the shape the last
    one had resets them with one RPC each instead of starting processes
    (start-up was ~1.4 s of a ~5 s crawl), and a change of shape replaces
    them.  A crawl that ends also resets them, unawaited, so an idle pool
    holds no crawl's seen set.  The pool is keyed by job and node id, so a handle from a session
    that has shut down is never reused.  One crawl holds the pool at a time:
    a second one started while it does raises.  A crawl that raises may
    leave tasks still calling its actors, so they are killed rather than
    pooled."""
    global _pool
    shape = (num_shards, num_policies, budget_per_epoch, n_hosts, seed, graph)
    pool = _pool if _pool is not None and _pool.session == session() else None
    if pool is not None and pool.held:
        raise RuntimeError("another crawl holds the state actors: run one "
                           "crawl at a time per Ray session")
    if pool is not None and pool.shape == shape:
        _reset(pool)
    else:
        if pool is not None:
            _kill(pool)
        pool = _pool = _Pool(session(), shape, [
            _spawn(shape, k) for k in range(num_shards + num_policies)])
    pool.held = True
    try:
        yield pool.actors[:num_shards], pool.actors[num_shards:]
    except BaseException:
        _kill(pool)
        _pool = None
        raise
    else:
        for a in pool.actors:  # an idle pool holds no crawl's seen set
            a.reset.remote()
    finally:
        pool.held = False


def call_seen_shards(shards: list, num_shards: int, method: str,
                     hashes: np.ndarray) -> tuple[list, list[np.ndarray]]:
    """Route ``hashes`` to their seen shards (``url_hash % num_shards``) and
    call ``method`` once on each shard that owns any of them.  Returns the
    calls' ObjectRefs and, aligned with them, the indexes into ``hashes`` of
    the keys each call got."""
    hashes = np.asarray(hashes, dtype=np.uint64)
    shard_of = hashes % np.uint64(num_shards)
    refs, rows = [], []
    for s in range(num_shards):
        idx = np.flatnonzero(shard_of == s)
        if len(idx):
            refs.append(getattr(shards[s], method).remote(hashes[idx]))
            rows.append(idx)
    return refs, rows


def host_shard(host: str, num_actors: int) -> int:
    """Stable host → actor routing (never Python's salted hash)."""
    import hashlib

    return int.from_bytes(hashlib.blake2b(host.encode(), digest_size=4).digest(), "big") % num_actors
