"""Crawl-loop contracts: bit-for-bit equality vs the single-threaded oracle
(BASELINE.json:north_rule), seen-set/actor semantics, checkpoint/resume."""

import numpy as np
import pytest
import ray

from sidecar import oracle, state
from sidecar.crawl import CrawlConfig, run_crawl


@pytest.fixture(scope="module")
def small_oracle():
    return oracle.crawl(n_seeds=30, n_hosts=10, budget_per_host=3, max_epochs=3, max_depth=2)


def _cfg(out_dir, **kw):
    base = dict(n_seeds=30, n_hosts=10, budget_per_host=3, max_epochs=3, max_depth=2,
                out_dir=out_dir)
    base.update(kw)
    return CrawlConfig(**base)


def test_bit_for_bit_vs_oracle(small_oracle, tmp_path):
    r = run_crawl(_cfg(str(tmp_path / "c1")))
    assert r["crawl_order"] == small_oracle["crawl_order"]
    assert r["seen"] == small_oracle["seen"]
    # politeness budget holds per epoch
    for epoch_urls in r["crawl_order"]:
        by_host = {}
        for u in epoch_urls:
            host = u.split("//")[-1].split("/")[0]
            by_host[host] = by_host.get(host, 0) + 1
        assert all(v <= 3 for v in by_host.values())


def test_bit_for_bit_at_other_parallelism(small_oracle, tmp_path):
    # same result regardless of shard/actor counts (partitioning-independence)
    r = run_crawl(_cfg(str(tmp_path / "c2"), num_seen_shards=3, num_policy_actors=2))
    assert r["crawl_order"] == small_oracle["crawl_order"]
    assert r["seen"] == small_oracle["seen"]


def test_resume_identical(small_oracle, tmp_path):
    out = str(tmp_path / "c3")
    # run only 1 epoch, then resume to 3 — final state must be identical
    run_crawl(_cfg(out, max_epochs=1))
    # resume with the full config; lineage id must match across the fields
    # that matter, so resume uses the same config except max_epochs
    r = run_crawl(_cfg(out, max_epochs=3), resume=True)
    assert r["crawl_order"] == small_oracle["crawl_order"]
    assert r["seen"] == small_oracle["seen"]


def test_resume_skips_finished_epochs(tmp_path):
    out = str(tmp_path / "c4")
    full = run_crawl(_cfg(out))
    # resuming a finished crawl re-fetches nothing
    r2 = run_crawl(_cfg(out), resume=True)
    assert r2["epochs_run"] == full["epochs_run"]
    assert r2["crawl_order"] == full["crawl_order"]
    assert r2["seen"] == full["seen"]


def test_seen_shard_idempotent_and_exact():
    from sidecar.actors import SeenShard

    shard = SeenShard.remote(0)
    h = np.array([1, 2, 3, 2**63 + 5], dtype=np.uint64)
    assert ray.get(shard.add_many.remote(h)) == 4
    assert ray.get(shard.add_many.remote(h)) == 0  # idempotent (retry safety)
    got = ray.get(shard.contains_many.remote(np.array([1, 4, 2**63 + 5], dtype=np.uint64)))
    assert list(got) == [True, False, True]
    ray.kill(shard)


def test_cuckoo_and_bloom():
    cf = state.CuckooFilter(n_buckets=1 << 10)
    keys = np.random.RandomState(7).randint(0, 2**63, size=2000, dtype=np.int64).astype(np.uint64)
    for k in keys:
        cf.add(int(k))
    assert cf.contains_many(keys).all()  # no false negatives
    other = np.random.RandomState(8).randint(0, 2**63, size=2000, dtype=np.int64).astype(np.uint64)
    fp = cf.contains_many(other).mean()
    assert fp < 0.05

    bf = state.BloomFilter(n_bits=1 << 16)
    bf.add_many(keys)
    assert bf.maybe_contains(keys).all()
    assert bf.maybe_contains(other).mean() < 0.05
    # serialize round-trip
    bf2 = state.BloomFilter.deserialize(bf.serialize())
    assert bf2.maybe_contains(keys).all()


def test_lineage_mismatch_rejected(tmp_path):
    out = str(tmp_path / "c5")
    run_crawl(_cfg(out, max_epochs=1))
    with pytest.raises(ValueError, match="lineage mismatch"):
        run_crawl(_cfg(out, max_epochs=3, n_seeds=31), resume=True)


def test_per_row_fidelity_of_crawl_sidecar(tmp_path):
    """input_hint per-row invariant: for every crawled URL, the persisted
    sidecar row's caption EQUALS the deterministic fetch's caption, and the
    decoded pixels of that fetch round-trip at PSNR >= 40 dB (lossy fmts)
    with matching phash/w/h/fmt in the sidecar record."""
    import pyarrow.parquet as pq

    from sidecar import codecs, synth
    from sidecar.crawl import CrawlConfig, run_crawl
    from sidecar.detect.phash import phash64

    cfg = CrawlConfig(n_seeds=30, max_epochs=2, out_dir=str(tmp_path / "c"))
    run_crawl(cfg, collect_order=False)
    import glob

    files = glob.glob(str(tmp_path / "c" / "sidecar" / "epoch=*" / "**" / "*.parquet"),
                      recursive=True)
    assert files
    rows = pq.read_table(files[0]).to_pylist()
    assert rows
    for r in rows[:50]:
        expect = synth.fetch_url(r["image_id"], cfg.seed)
        assert r["caption"] == expect["caption"]          # caption equality
        if r["fmt"] in ("png", "ppm", "b16"):
            px = codecs.decode(expect["bytes"], expect["fmt"])
            assert r["w"] == px.shape[1] and r["h"] == px.shape[0]
            assert r["phash"] == int(np.int64(np.uint64(phash64(px))))
            if expect["fmt"] == "b16":                    # lossy: PSNR bound
                ref_px = synth.make_pixels(r["image_id"], px.shape[1],
                                           px.shape[0], cfg.seed)
                assert codecs.psnr(px, ref_px) >= 40.0


def test_select_budget_hot_host_salting_exact():
    """Hot-host skew splitting (north_rule): a 5,000-URL host ranked through
    (host, salt) sub-groups selects EXACTLY the global per-host top-budget
    under the total order — salting must never change the selection."""
    import ray.data as rd

    from sidecar import frontier as fr

    rows = []
    for i in range(5000):  # hot host
        rows.append({"url": f"https://hot.example.com/p/{i}",
                     "priority": float((i * 2654435761) % 997) / 997.0,
                     "depth": i % 4, "seed_id": i})
    for h in range(5):     # normal hosts
        for i in range(20):
            rows.append({"url": f"https://h{h}.example.com/p/{i}",
                         "priority": float(i % 7) / 7.0, "depth": 0,
                         "seed_id": 10000 + h * 100 + i})
    tbl = fr.candidates_from_urls(rows, epoch=0)
    out = fr.select_budget(rd.from_arrow(tbl), budget=7, n_salts=16).to_pandas()

    df = tbl.to_pandas()
    for host, g in df.groupby("host"):
        want = set(
            g.sort_values(fr.SORT_COLS, ascending=fr.SORT_ASC, kind="mergesort")
            .head(7)["url_hash"])
        got = set(out[(out.host == host) & out.selected]["url_hash"])
        assert got == want, host
    # leftover (non-selected) rows are preserved, nothing dropped
    assert len(out) == len(df)


def test_mid_epoch_partition_resume(tmp_path):
    """north_rule per-partition checkpoints: after a simulated crash inside
    an epoch (manifest + one fetch partition lost), resume re-fetches ONLY
    the lost partition; untouched partitions keep their files (mtime-equal)
    and the final seen set + crawl order are bit-identical."""
    import glob
    import json
    import os

    cfg = CrawlConfig(n_seeds=60, n_hosts=10, budget_per_host=10, max_epochs=2,
                      num_fetch_partitions=8, out_dir=str(tmp_path / "c"))
    r1 = run_crawl(cfg)
    ep1 = os.path.join(cfg.out_dir, "sidecar", "epoch=1")
    parts = sorted(os.listdir(ep1))
    assert len(parts) > 2
    mtimes = {d: os.path.getmtime(os.path.join(ep1, d)) for d in parts}

    victim = parts[0]
    k = victim.split("=")[1]
    os.remove(os.path.join(cfg.out_dir, "_ckpt", "epoch=1", "manifest.json"))
    os.remove(os.path.join(cfg.out_dir, "_ckpt", "epoch=1", "parts", f"part={k}.json"))
    import shutil

    shutil.rmtree(os.path.join(ep1, victim))

    r2 = run_crawl(cfg, resume=True)
    assert r2["seen"] == r1["seen"]
    assert r2["crawl_order"] == r1["crawl_order"]
    assert os.path.isdir(os.path.join(ep1, victim))
    assert all(os.path.getmtime(os.path.join(ep1, d)) == mtimes[d] for d in parts[1:])
    # each part manifest carries the full lineage chain
    man = json.load(open(os.path.join(cfg.out_dir, "_ckpt", "epoch=1", "parts",
                                      f"part={k}.json")))
    assert man["lineage_id"] == cfg.lineage_id()
    assert man["epoch"] == 1 and man["part"] == int(k) and man["rows"] > 0


def test_epoch_zero_partition_resume(tmp_path):
    """Crash during the FIRST epoch (no complete epoch manifest at all):
    resume must still skip the finished fetch partitions of epoch 0."""
    import os
    import shutil

    cfg = CrawlConfig(n_seeds=60, n_hosts=10, budget_per_host=10, max_epochs=1,
                      num_fetch_partitions=8, out_dir=str(tmp_path / "c"))
    r1 = run_crawl(cfg)
    ep0 = os.path.join(cfg.out_dir, "sidecar", "epoch=0")
    parts = sorted(os.listdir(ep0))
    assert len(parts) > 2
    mtimes = {d: os.path.getmtime(os.path.join(ep0, d)) for d in parts}

    victim = parts[-1]
    k = victim.split("=")[1]
    os.remove(os.path.join(cfg.out_dir, "_ckpt", "epoch=0", "manifest.json"))
    os.remove(os.path.join(cfg.out_dir, "_ckpt", "epoch=0", "parts", f"part={k}.json"))
    shutil.rmtree(os.path.join(ep0, victim))

    r2 = run_crawl(cfg, resume=True)
    assert r2["seen"] == r1["seen"]
    assert r2["crawl_order"] == r1["crawl_order"]
    assert os.path.isdir(os.path.join(ep0, victim))
    assert all(os.path.getmtime(os.path.join(ep0, d)) == mtimes[d]
               for d in parts if d != victim)


def test_shard_side_delta_files_and_cross_shard_resume(small_oracle, tmp_path):
    """Seen-set deltas are written per shard (the driver never concatenates
    key arrays), and resume re-routes them correctly even under a DIFFERENT
    shard count (VERDICT r1 #3)."""
    import os

    out = str(tmp_path / "c5")
    run_crawl(_cfg(out, max_epochs=1, num_seen_shards=4))
    ddir = os.path.join(out, "_ckpt", "epoch=0", "seen_delta")
    assert os.path.isdir(ddir)
    files = sorted(os.listdir(ddir))
    assert files == [f"shard={i}.npy" for i in range(4)]
    total = sum(len(np.load(os.path.join(ddir, f))) for f in files)
    assert total > 0

    # resume with a different shard count: keys re-route by current modulus
    r = run_crawl(_cfg(out, max_epochs=3, num_seen_shards=3), resume=True)
    assert r["crawl_order"] == small_oracle["crawl_order"]
    assert r["seen"] == small_oracle["seen"]
    assert r["seen_count"] == len(small_oracle["seen"])


def test_collect_seen_false_returns_count_only(tmp_path):
    r = run_crawl(_cfg(str(tmp_path / "c6"), max_epochs=2),
                  collect_order=False, collect_seen=False)
    assert r["seen"] == [] and r["seen_count"] > 0
    assert all(m.get("seen_delta_rows", 0) >= 0 for m in r["metrics"])


def test_grant_many_matches_sequential_grants():
    """grant_many (one RPC per actor per epoch) must be exactly the token
    bucket that per-host grant calls produce."""
    from sidecar.actors import HostPolicy

    a = HostPolicy.remote(0, budget_per_epoch=5)
    b = HostPolicy.remote(1, budget_per_epoch=5)
    hosts = ["h1", "h2", "h1", "h3"]
    ns = [3, 7, 4, 2]
    seq = sum(ray.get([a.grant.remote(h, 0, n) for h, n in zip(hosts, ns)]))
    # batched call sees the hosts in the same order
    bat = ray.get(b.grant_many.remote(hosts, 0, ns))
    assert bat == seq == 3 + 5 + 2 + 2  # h1: 3 then min(2,4); h2 capped at 5
    assert ray.get(a.metrics.remote()) == ray.get(b.metrics.remote())
    # a later epoch refills the bucket
    assert ray.get(b.grant_many.remote(["h2"], 1, [9])) == 5
    ray.kill(a)
    ray.kill(b)


def test_cuckoo_batch_add_equals_per_key():
    keys = np.random.RandomState(11).randint(0, 2**63, size=5000,
                                             dtype=np.int64).astype(np.uint64)
    batch = state.CuckooFilter(n_buckets=1 << 11)
    batch.add_many(keys)
    per_key = state.CuckooFilter(n_buckets=1 << 11)
    for k in keys:
        per_key.add(int(k))
    assert batch.contains_many(keys).all()  # no false negatives
    assert per_key.contains_many(keys).all()
    assert batch.count == per_key.count == len(keys)


def test_seen_shard_dedups_within_batch():
    from sidecar.actors import SeenShard

    shard = SeenShard.remote(0)
    h = np.array([9, 9, 9, 10, 11, 10], dtype=np.uint64)
    assert ray.get(shard.add_many.remote(h)) == 3  # unique keys only
    assert ray.get(shard.size.remote()) == 3
    delta = ray.get(shard.drain_delta.remote())
    assert list(delta) == [9, 10, 11]
    ray.kill(shard)


def test_robots_denied_metric_stable_across_actor_counts(tmp_path):
    """Worker-side robots evaluation reports denial counts through the
    HostPolicy cache actors; the totals are deterministic and identical at
    any actor count."""
    # n_hosts=50 puts some discovered links on robots-disallowed paths
    r1 = run_crawl(_cfg(str(tmp_path / "ra"), max_epochs=2, n_hosts=50, n_seeds=100),
                   collect_order=False, collect_seen=False)
    r2 = run_crawl(_cfg(str(tmp_path / "rb"), max_epochs=2, n_hosts=50, n_seeds=100,
                        num_policy_actors=1),
                   collect_order=False, collect_seen=False)
    d1 = [m["robots_denied_total"] for m in r1["metrics"]]
    d2 = [m["robots_denied_total"] for m in r2["metrics"]]
    assert d1 == d2
    assert d1[-1] > 0  # the synthetic corpus does deny some discovered links


def test_custom_policy_bit_for_bit(tmp_path):
    """SURVEY 2.9 Frontier extension surface: install a FrontierPolicy that
    rewrites link priorities AND gives even-numbered hosts a smaller budget,
    with NO edit to crawl.py/frontier.py — the Ray crawl must still match
    the single-threaded oracle bit-for-bit, and differ from the default."""
    from sidecar.policy import FrontierPolicy

    class DepthDecayTieredBudget:
        name = "depth-decay-tiered-budget"

        def link_priority(self, urls, priorities, depths):
            return np.asarray(priorities, dtype=np.float64) / (1.0 + depths)

        def host_budget(self, hosts, default):
            # "host03.example.com" -> 3, "hot.example.com" -> 0;
            # even host index gets half budget
            idx = np.array([int("".join(c for c in h.split(".")[0] if c.isdigit()) or 0)
                            for h in hosts])
            return np.where(idx % 2 == 0, max(default // 2, 1), default).astype(np.int64)

    pol = DepthDecayTieredBudget()
    assert isinstance(pol, FrontierPolicy)

    want = oracle.crawl(n_seeds=30, n_hosts=10, budget_per_host=3,
                        max_epochs=3, max_depth=2, policy=pol)
    got = run_crawl(_cfg(str(tmp_path / "cpol"), policy=pol))
    assert got["crawl_order"] == want["crawl_order"]
    assert got["seen"] == want["seen"]

    default = oracle.crawl(n_seeds=30, n_hosts=10, budget_per_host=3,
                           max_epochs=3, max_depth=2)
    assert want["crawl_order"] != default["crawl_order"]  # policy had teeth


def test_restore_does_not_relog_deltas():
    """Resume fix: restored keys must NOT re-enter the delta log — they were
    persisted by the epoch that first saw them, so re-logging would turn the
    first post-resume checkpoint into a whole-seen-set snapshot."""
    from sidecar.actors import SeenShard

    shard = SeenShard.remote(0)
    h = np.array([10, 20, 30], dtype=np.uint64)
    assert ray.get(shard.restore.remote(h)) == 3
    got = ray.get(shard.contains_many.remote(h))
    assert list(got) == [True, True, True]
    assert len(ray.get(shard.drain_delta.remote())) == 0  # nothing re-logged
    ray.get(shard.add_many.remote(np.array([40], dtype=np.uint64)))
    assert list(ray.get(shard.drain_delta.remote())) == [40]  # new keys do log
    ray.kill(shard)


def test_budget_raising_policy_bit_for_bit(tmp_path):
    """A FrontierPolicy that RAISES some hosts' budgets above the configured
    default must flow through to the politeness token buckets (not be capped
    at the constant and trip the budget invariant)."""

    class TieredRaise:
        name = "tiered-raise"

        def link_priority(self, urls, priorities, depths):
            return np.asarray(priorities, dtype=np.float64)

        def host_budget(self, hosts, default):
            idx = np.array([int("".join(c for c in h.split(".")[0]
                                        if c.isdigit()) or 0) for h in hosts])
            return np.where(idx % 2 == 1, default * 2, default).astype(np.int64)

    pol = TieredRaise()
    want = oracle.crawl(n_seeds=30, n_hosts=10, budget_per_host=3,
                        max_epochs=3, max_depth=2, policy=pol)
    got = run_crawl(_cfg(str(tmp_path / "cpr"), policy=pol))
    assert got["crawl_order"] == want["crawl_order"]
    assert got["seen"] == want["seen"]


def test_select_budget_all_filtered_keeps_selected_column(caplog):
    """A tail epoch whose every candidate was filtered upstream selects
    nothing, and leaves no block Ray cannot size: Ray logs "Error
    calculating size" on an empty object-dtype column."""
    import ray.data as rd
    from ray.data._internal import pandas_block
    from ray.data.block import BlockAccessor

    from sidecar import frontier as fr

    empty = fr.candidates_from_urls([], epoch=0)  # the FRONTIER schema
    out = fr.select_budget(rd.from_arrow(empty), 3)
    # Ray's loggers do not propagate to the root logger caplog listens on
    pandas_block.logger.addHandler(caplog.handler)
    try:
        for bundle in out.iter_internal_ref_bundles():  # size every block here
            for ref in bundle.block_refs:
                BlockAccessor.for_block(ray.get(ref)).size_bytes()
    finally:
        pandas_block.logger.removeHandler(caplog.handler)
    assert not [r for r in caplog.records
                if "Error calculating size" in r.getMessage()]
    assert out.count() == 0


def test_cuckoo_saturation_no_false_negatives():
    """Eviction past capacity must never lose a previously-inserted key's
    membership: the orphaned victim fingerprint lands in the stash."""
    cf = state.CuckooFilter(n_buckets=1 << 4, slots=2, max_kicks=8)
    keys = np.random.RandomState(3).randint(
        0, 2**63, size=200, dtype=np.int64).astype(np.uint64)  # ~6x capacity
    for k in keys:
        cf.add(int(k))
    got = cf.contains_many(keys)
    assert got.all()  # zero false negatives, even far past saturation
    for k in keys:
        assert cf.contains(int(k))


def test_zero_budget_epoch_completes_cleanly(tmp_path):
    """An epoch that selects nothing (every candidate budget-filtered) must
    record an empty epoch and terminate like the oracle — not crash on a
    never-created sidecar directory."""

    class ZeroBudget:
        name = "zero-budget"

        def link_priority(self, urls, priorities, depths):
            return np.asarray(priorities, dtype=np.float64)

        def host_budget(self, hosts, default):
            return np.zeros(len(hosts), dtype=np.int64)

    r = run_crawl(_cfg(str(tmp_path / "zb"), max_epochs=2, policy=ZeroBudget()))
    assert all(len(e) == 0 for e in r["crawl_order"])
    assert r["seen_count"] == 0
    assert all(m.get("sidecar_rows", 0) == 0 for m in r["metrics"])


def test_resume_ignores_part_manifests_with_other_partition_count(tmp_path):
    """Part numbers are url_hash % P: a part manifest written under a
    different num_fetch_partitions (or another run) must be ignored, not
    honored — honoring it marks never-fetched URLs as done and silently
    drops them."""
    import glob
    import json as _json
    import os

    out = str(tmp_path / "cp")
    full = run_crawl(_cfg(out))  # complete 3-epoch reference run

    # simulate a crash mid-epoch-2: drop its epoch manifest but leave its
    # part manifests REWRITTEN as if produced under P=999
    e2 = os.path.join(out, "_ckpt", "epoch=2")
    os.remove(os.path.join(e2, "manifest.json"))
    import shutil
    shutil.rmtree(os.path.join(e2, "seen_delta"), ignore_errors=True)
    shutil.rmtree(os.path.join(e2, "next_frontier"), ignore_errors=True)
    for fn in glob.glob(os.path.join(e2, "parts", "part=*.json")):
        man = _json.load(open(fn))
        man["num_fetch_partitions"] = 999
        with open(fn, "w") as f:
            _json.dump(man, f)

    r = run_crawl(_cfg(out), resume=True)
    assert r["crawl_order"] == full["crawl_order"]
    assert r["seen"] == full["seen"]
    # epoch 2 was fully re-fetched (foreign-P manifests ignored)
    assert "resumed_parts" not in r["metrics"][2]


def test_fresh_run_into_used_out_dir_ignores_stale_parts(tmp_path):
    """resume=False must not adopt a previous run's part manifests or data."""
    out = str(tmp_path / "cf")
    first = run_crawl(_cfg(out))
    second = run_crawl(_cfg(out))  # fresh run, same out_dir, resume=False
    assert second["crawl_order"] == first["crawl_order"]
    assert second["seen"] == first["seen"]
    assert all("resumed_parts" not in m for m in second["metrics"])
    # sidecar output was rewritten, not duplicated alongside stale files
    rows = sum(m.get("sidecar_rows", 0) for m in second["metrics"])
    want = sum(m.get("sidecar_rows", 0) for m in first["metrics"])
    assert rows == want


# ---------------------------------------------------------------------------
# md5 graph (crawl_sql_exact): the SQL-reproducible hash family
# ---------------------------------------------------------------------------

# THE shared crawl_sql_exact config — the Ray query, the DuckDB replay and
# these tests must all exercise the same crawl (r4: 400 seeds / 16 hosts /
# budget 24 / hot host 60% of link traffic → ~10^3 fetched rows)
def _sql_cfg() -> dict:
    import __ray_entry__ as e

    return dict(e._CRAWL_SQL_CFG)


_SQL_CFG = _sql_cfg()


@pytest.fixture(scope="module")
def md5_oracle():
    return oracle.crawl(**_SQL_CFG)


def test_md5_graph_bit_for_bit(md5_oracle, tmp_path):
    """Ray crawl over graph='md5' matches the single-threaded oracle — the
    same contract the blake2b graph has, on the SQL-replayable graph that
    backs the driver-exact crawl_sql_exact row."""
    r = run_crawl(CrawlConfig(out_dir=str(tmp_path / "m1"), num_seen_shards=2,
                              num_policy_actors=2, num_fetch_partitions=4,
                              **_SQL_CFG))
    assert r["crawl_order"] == md5_oracle["crawl_order"]
    assert r["seen"] == md5_oracle["seen"]


def test_md5_graph_priorities_tie_free(md5_oracle):
    """crawl_sql_exact's SQL replays selection ordered by priority alone
    (the engine's url_hash tie-break is blake2b — NOT SQL-computable), which
    is exact only while every URL the crawl can ever rank carries a distinct
    priority within its host.  Pure function of the config — checked once
    here, holds forever."""
    from collections import defaultdict

    from sidecar import synth
    from sidecar.canon import host_of

    c = _SQL_CFG
    urls = {s["url"] for s in synth.make_seeds(c["n_seeds"], c["n_hosts"],
                                               c["seed"], "md5")}
    for fetched in md5_oracle["crawl_order"]:
        for canon in fetched:
            urls.update(u for u, _ in synth.out_links(
                canon, c["n_hosts"], c["seed"], "md5", c["hot_frac"]))
    prio_of = defaultdict(set)
    for u in urls:
        p = synth._priority_md5(u, c["seed"])
        assert p not in prio_of[host_of(u)], f"priority tie on {u}"
        prio_of[host_of(u)].add(p)
    assert len(urls) > 3000  # the check actually covered the reachable graph


def test_md5_graph_is_hot_host_skewed(md5_oracle):
    """The scaled config must actually exercise skew handling: the hot host
    carries >50% of discovered-link traffic (the budget stage's salting
    path) and the crawl fetches ~10^3 rows across 3 epochs."""
    from collections import Counter

    from sidecar import synth
    from sidecar.canon import host_of

    c = _SQL_CFG
    link_host: Counter = Counter()
    for fetched in md5_oracle["crawl_order"]:
        for canon in fetched:
            for u, _ in synth.out_links(canon, c["n_hosts"], c["seed"],
                                        "md5", c["hot_frac"]):
                link_host[host_of(u)] += 1
    total = sum(link_host.values())
    assert link_host["hot.example.com"] / total > 0.5
    n_fetched = sum(len(ep) for ep in md5_oracle["crawl_order"])
    assert 500 <= n_fetched <= 2000


def test_md5_graph_sql_replay_matches_oracle(md5_oracle):
    """The DuckDB replay (oracle_sql()['crawl_sql_exact']) recomputes the
    whole 3-epoch crawl — fetched (url, canon, epoch) set equality vs the
    single-threaded oracle, without Ray."""
    import duckdb

    import __ray_entry__ as e

    con = duckdb.connect()
    rows = con.sql(e.oracle_sql()["crawl_sql_exact"]).fetchall()
    got = {(c, ep) for _, c, ep in rows}
    want = {(c, ep) for ep, urls in enumerate(md5_oracle["crawl_order"])
            for c in urls}
    assert got == want
    assert len(rows) == len(got)  # no duplicate fetches


def test_md5_graph_resume_identical(md5_oracle, tmp_path):
    """Checkpoint/resume on the md5 graph: a 1-epoch run resumed to 3
    reproduces the uninterrupted crawl bit-for-bit (lineage includes the
    graph family, so a b2 resume into an md5 out_dir is rejected)."""
    out = str(tmp_path / "m_resume")
    cfg = dict(_SQL_CFG, out_dir=out, num_seen_shards=2,
               num_policy_actors=2, num_fetch_partitions=4)
    run_crawl(CrawlConfig(**{**cfg, "max_epochs": 1}))
    r = run_crawl(CrawlConfig(**cfg), resume=True)
    assert r["crawl_order"] == md5_oracle["crawl_order"]
    assert r["seen"] == md5_oracle["seen"]

    with pytest.raises(ValueError, match="lineage mismatch"):
        run_crawl(CrawlConfig(**{**cfg, "graph": "b2"}), resume=True)


def test_dedup_by_url_hash_equals_folded_dedup():
    """select_budget(dedup=True) is A4's exact url_hash dedup: under a
    budget no host reaches it keeps, and selects, exactly the best row of
    each url_hash by the total order (frontier.order_key)."""
    import pyarrow as pa
    import ray.data as rd

    from sidecar import frontier as fr

    rows = []
    for i in range(300):
        rows.append({"url": f"https://h{i % 5}.example.com/p/{i % 40}",
                     "priority": float((i * 37) % 11) / 11.0,
                     "depth": i % 3, "seed_id": i})
    tbl = fr.candidates_from_urls(rows, epoch=0)

    best: dict = {}
    for r in tbl.to_pylist():
        cur = best.get(r["url_hash"])
        if cur is None or fr.order_key(r) < fr.order_key(cur):
            best[r["url_hash"]] = r
    folded = fr.select_budget(rd.from_arrow(tbl), budget=10 ** 9,
                              dedup=True).to_arrow_refs()
    folded = pa.concat_tables(ray.get(folded))

    assert all(folded.column("selected").to_pylist())
    got = sorted(tuple(r.values()) for r in
                 folded.select(tbl.column_names).to_pylist())
    assert got == sorted(tuple(r.values()) for r in best.values())
    assert len(got) < len(rows)  # duplicates actually existed


def test_reused_out_dir_next_frontier_not_appended(tmp_path):
    """write_parquet appends: a fresh (non-resume) run reusing an out_dir
    must clear each epoch's next_frontier before writing, or the previous
    run's frontier rows ride along and double every later epoch."""
    out = str(tmp_path / "c")
    r1 = run_crawl(_cfg(out, max_epochs=2))
    r2 = run_crawl(_cfg(out, max_epochs=2))
    assert r2["metrics"][0]["links"] == r1["metrics"][0]["links"]
    assert r2["metrics"][1]["candidates"] == r1["metrics"][1]["candidates"]
    assert r2["seen"] == r1["seen"]


def test_next_frontier_parquet_has_no_schema_metadata(tmp_path):
    """The next frontier's files carry no pandas schema blob: files whose
    schemas differ only in it make Ray log "Failed to hash the schemas" on
    every read of the frontier."""
    import glob
    import os

    import pyarrow.parquet as pq

    out = str(tmp_path / "c")
    run_crawl(_cfg(out, max_epochs=2))
    files = glob.glob(os.path.join(out, "_ckpt", "epoch=0", "next_frontier",
                                   "*.parquet"))
    assert files
    assert [pq.read_schema(f).metadata for f in files] == [None] * len(files)


def test_fetch_blocks_do_not_follow_the_cluster(tmp_path, monkeypatch):
    """The fetch runs as many tasks as its selected rows ask for, whatever
    the cluster: crawls whose budget exchanges see 1 and 64 CPUs write the
    same number of sidecar files into every fetch partition."""
    import glob
    import os

    from sidecar import shuffle

    class Cluster:
        def __init__(self, cpus):
            self.cpus = cpus

        def __getattr__(self, name):
            return getattr(ray, name)

        def cluster_resources(self):
            return {"CPU": float(self.cpus)}

    files = []
    for cpus in (1, 64):
        monkeypatch.setattr(shuffle, "ray", Cluster(cpus))
        out = str(tmp_path / f"c{cpus}")
        # 20k seeds reach the budget exchange as several filter blocks
        run_crawl(_cfg(out, n_seeds=20_000, max_epochs=1))
        parts = glob.glob(os.path.join(out, "sidecar", "epoch=0", "part=*"))
        files.append({os.path.basename(p): len(os.listdir(p)) for p in parts})
    assert files[0] and files[0] == files[1]


def test_resume_ignores_partial_delta_tmp_files(tmp_path):
    """A truncated shard=K.npy.tmp left by a crash during write_delta must
    not break a later resume (only *.npy files are restored)."""
    import os

    out = str(tmp_path / "c")
    run_crawl(_cfg(out, max_epochs=1))
    ddir = os.path.join(out, "_ckpt", "epoch=0", "seen_delta")
    with open(os.path.join(ddir, "shard=9.npy.tmp"), "wb") as f:
        f.write(b"\x01\x02trunc")
    r = run_crawl(_cfg(out, max_epochs=2), resume=True)
    assert r["epochs_run"] == 2


@pytest.mark.parametrize("cfg", [
    dict(n_seeds=40, n_hosts=8, budget_per_host=4, seed=42, hot_frac=4),
    dict(n_seeds=120, n_hosts=5, budget_per_host=7, seed=7, hot_frac=5),
    dict(n_seeds=60, n_hosts=12, budget_per_host=3, seed=42, hot_frac=6,
         max_epochs=2),
])
def test_crawl_sql_template_matches_oracle_at_other_configs(cfg):
    """_crawl_exact_sql is a parameterized TEMPLATE: its DuckDB replay must
    equal the single-threaded oracle at configs other than the shipped
    _CRAWL_SQL_CFG (including the r3 40/8/4 config, whose 94-row result is
    frozen history, and a 2-epoch variant).  Guards the template's host /
    seed / budget / hot-frac arithmetic against silent drift from synth."""
    import duckdb

    import __ray_entry__ as e

    epochs = cfg.get("max_epochs", 3)
    o = oracle.crawl(n_seeds=cfg["n_seeds"], n_hosts=cfg["n_hosts"],
                     budget_per_host=cfg["budget_per_host"],
                     max_epochs=epochs, max_depth=3, seed=cfg["seed"],
                     graph="md5", hot_frac=cfg["hot_frac"])
    sql = e._crawl_exact_sql(n_seeds=cfg["n_seeds"], n_hosts=cfg["n_hosts"],
                             budget_per_host=cfg["budget_per_host"],
                             seed=cfg["seed"], hot_frac=cfg["hot_frac"],
                             max_epochs=epochs)
    con = duckdb.connect()  # must outlive the relation (GC closes it)
    rows = con.sql(sql).fetchall()
    got = {(c, ep) for _, c, ep in rows}
    want = {(c, ep) for ep, urls in enumerate(o["crawl_order"]) for c in urls}
    assert got == want
    assert len(rows) == len(got)  # no duplicate fetches
    if cfg == dict(n_seeds=40, n_hosts=8, budget_per_host=4, seed=42,
                   hot_frac=4):
        assert len(rows) == 94  # the frozen r3 driver-row cardinality


def test_fresh_run_clears_stale_checkpoints(small_oracle, tmp_path):
    """A fresh (non-resume) run into a reused out_dir must not leave a
    previous same-lineage run's checkpoints behind: run A completes 3
    epochs, run B starts FRESH in the same out_dir but stops after 1 —
    a subsequent --resume must re-run epochs 1-2 from B's state (not trust
    A's stale manifests as complete) and still match the oracle."""
    import os

    out = str(tmp_path / "cstale")
    run_crawl(_cfg(out))                       # run A: epochs 0-2 complete
    run_crawl(_cfg(out, max_epochs=1))         # run B: fresh, 1 epoch only
    # A's epoch-1/2 manifests must be gone, else resume would skip them
    assert not os.path.exists(os.path.join(out, "_ckpt", "epoch=1",
                                           "manifest.json"))
    r = run_crawl(_cfg(out), resume=True)      # run C: resume B to 3 epochs
    assert r["crawl_order"] == small_oracle["crawl_order"]
    assert r["seen"] == small_oracle["seen"]


CRAWL_STEPS = ("budget", "split_selected", "politeness", "fetch_sidecar_write",
               "order", "next_frontier", "checkpoint")


def test_every_epoch_times_each_step_once(tmp_path):
    """Each epoch's metrics carry exactly one non-negative ``t_<step>`` per
    step of the epoch chain, among them every lap perfbench's crawl ledger
    reads: a renamed lap would read there as 0.0, unnoticed."""
    from perfbench.workloads import Crawl

    assert set(Crawl.LAPS) <= set(CRAWL_STEPS)
    r = run_crawl(_cfg(str(tmp_path / "laps"), max_epochs=2),
                  collect_order=False, collect_seen=False)
    assert r["epochs_run"] == 2
    for m in r["metrics"]:
        laps = {k: v for k, v in m.items() if k.startswith("t_")}
        assert sorted(laps) == sorted(f"t_{s}" for s in CRAWL_STEPS)
        assert all(v >= 0 for v in laps.values())


def test_flagged_must_be_materialized():
    """The robots filter's execute-once rule is a check: the steps that read
    the budget step's output refuse a lazy dataset with a TypeError (a
    raise, so it holds under python -O)."""
    import ray.data as rd

    from sidecar import crawl

    with pytest.raises(TypeError, match="MaterializedDataset"):
        crawl._materialized(rd.range(4))
    done = rd.range(4).materialize()
    assert crawl._materialized(done) is done


def _pool_ids() -> list[str]:
    from sidecar import actors

    return [a._actor_id.hex() for a in actors._pool.actors]


def _wait_dead(actor) -> None:
    """Wait until calls to ``actor`` fail: ``ray.kill`` lands asynchronously,
    so a call made right after it may still be served."""
    import time

    for _ in range(100):
        try:
            ray.get(actor.reset.remote())
        except ray.exceptions.RayActorError:
            return
        time.sleep(0.1)
    raise AssertionError("the actor still answers after 10 s")


def test_same_shape_crawls_reuse_the_pool(small_oracle, tmp_path):
    """A second crawl of the same shape resets the pooled actors instead of
    starting new ones, and both crawls match the oracle bit for bit.  An
    idle pool holds no crawl's seen set."""
    from sidecar import actors

    r1 = run_crawl(_cfg(str(tmp_path / "p1")))
    ids = _pool_ids()
    r2 = run_crawl(_cfg(str(tmp_path / "p2")))
    assert _pool_ids() == ids
    shards = actors._pool.actors[:CrawlConfig.num_seen_shards]
    assert ray.get([s.size.remote() for s in shards]) == [0] * len(shards)
    for r in (r1, r2):
        assert r["crawl_order"] == small_oracle["crawl_order"]
        assert r["seen"] == small_oracle["seen"]


def test_killed_pool_actor_is_replaced(small_oracle, tmp_path):
    """An actor that died between crawls is replaced when the next crawl
    takes the pool; the others are kept."""
    from sidecar import actors

    run_crawl(_cfg(str(tmp_path / "k1")))
    ids = _pool_ids()
    shard, policy = 0, CrawlConfig.num_seen_shards  # first shard, first policy
    for k in (shard, policy):
        ray.kill(actors._pool.actors[k])
        _wait_dead(actors._pool.actors[k])
    r = run_crawl(_cfg(str(tmp_path / "k2")))
    now = _pool_ids()
    assert [k for k in range(len(ids)) if now[k] != ids[k]] == [shard, policy]
    assert r["crawl_order"] == small_oracle["crawl_order"]
    assert r["seen"] == small_oracle["seen"]


def test_crawl_that_raises_releases_the_pool(small_oracle, tmp_path, monkeypatch):
    """A crawl that fails mid-epoch releases the pool and kills its actors
    (its tasks may still be calling them); the next crawl is exact."""
    from sidecar import actors, crawl

    run_crawl(_cfg(str(tmp_path / "e0")))
    old = actors._pool.actors[0]

    def fail(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(crawl, "_politeness", fail)
    with pytest.raises(RuntimeError, match="injected"):
        run_crawl(_cfg(str(tmp_path / "e1")))
    assert actors._pool is None
    _wait_dead(old)
    monkeypatch.undo()
    r = run_crawl(_cfg(str(tmp_path / "e2")))
    assert r["crawl_order"] == small_oracle["crawl_order"]
    assert r["seen"] == small_oracle["seen"]


def test_resume_after_other_crawl_restores_only_its_own(small_oracle, tmp_path):
    """A resume that follows another crawl of the same actor shape in the
    session sees only the seen set its own checkpoints restore."""
    out = str(tmp_path / "own")
    run_crawl(_cfg(out, max_epochs=1))
    ids = _pool_ids()
    other = run_crawl(_cfg(str(tmp_path / "other"), n_seeds=50, max_depth=3))
    assert _pool_ids() == ids  # same shape: the pool was reset, not replaced
    assert set(other["seen"]) - set(small_oracle["seen"])
    r = run_crawl(_cfg(out), resume=True)
    assert r["crawl_order"] == small_oracle["crawl_order"]
    assert r["seen"] == small_oracle["seen"]


def test_the_engine_starts_up_once_per_session(spy, monkeypatch, tmp_path):
    """A read, the flagship frontier and a crawl share one start-up per Ray
    session; a call inside a Ray task starts nothing."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sidecar import actors, storage
    from sidecar.flagship import synthetic_frontier_sidecar

    path = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"x": [1, 2, 3]}), path)
    monkeypatch.setattr(actors, "_warm", None)  # as in a new session
    calls = spy(actors, "_start_up")
    assert storage.read_parquet_clean(path).count() == 3
    synthetic_frontier_sidecar(8, num_blocks=2)
    run_crawl(_cfg(str(tmp_path / "w"), max_epochs=1))
    assert len(calls) == 1
    monkeypatch.setattr(actors, "_warm", None)
    storage.read_parquet_clean(path)
    assert len(calls) == 2

    @ray.remote
    def warm_in_a_task() -> int:
        from sidecar import actors

        real, started = actors._start_up, []
        actors._start_up = lambda: started.append(1)
        try:
            actors.warm_session()
        finally:
            actors._start_up = real
        return len(started)

    assert ray.get(warm_in_a_task.remote()) == 0


def test_warm_session_starts_ray_datas_stats_actor():
    """Pins the private Ray API the start-up uses: in a new session with no
    Dataset yet, ``warm_session`` alone creates the stats actor that
    ``Dataset.__init__`` looks up.  A rename of
    ``StatsManager._get_or_create_stats_actor`` or of the actor fails here."""
    import os
    import pathlib
    import subprocess
    import sys

    script = (
        "import ray\n"
        "from ray.data._internal.stats import STATS_ACTOR_NAME, STATS_ACTOR_NAMESPACE\n"
        "from sidecar import actors\n"
        "ray.init(num_cpus=1, include_dashboard=False, logging_level='ERROR')\n"
        "actors.warm_session()\n"
        "ray.get_actor(STATS_ACTOR_NAME, namespace=STATS_ACTOR_NAMESPACE)\n"
        "ray.shutdown()\n")
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    r = subprocess.run([sys.executable, "-c", script], env=env, timeout=300,
                       cwd=pathlib.Path(__file__).resolve().parent.parent,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-4000:]


def test_one_crawl_holds_the_pool_at_a_time():
    from sidecar import actors

    with actors.crawl_actors(2, 1, 3, n_hosts=5):
        with pytest.raises(RuntimeError, match="one crawl at a time"):
            with actors.crawl_actors(2, 1, 3, n_hosts=5):
                pass
    with actors.crawl_actors(2, 1, 3, n_hosts=5) as (shards, policies):
        assert len(shards) == 2 and len(policies) == 1
