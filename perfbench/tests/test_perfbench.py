"""The benchmark's own tests: generator determinism, every output check
failing on a corrupted output, and a smoke-size run of all four workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import filecmp
import glob
import json
import os
import shutil
import subprocess
import sys

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import checks, gen, layers, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _tree_equal(a: str, b: str) -> bool:
    fa = sorted(os.path.relpath(f, a) for f in glob.glob(f"{a}/**/*", recursive=True))
    fb = sorted(os.path.relpath(f, b) for f in glob.glob(f"{b}/**/*", recursive=True))
    return fa == fb and all(
        filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)
        for f in fa if os.path.isfile(os.path.join(a, f)))


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

def test_generators_deterministic(tmp_path):
    assert gen.sidecar_plan(5, 3) == gen.sidecar_plan(5, 3)
    assert gen.sidecar_plan(5, 3) != gen.sidecar_plan(6, 3)
    assert gen.crawl_config(5) == gen.crawl_config(5) != gen.crawl_config(6)
    for s in (5, 5, 6):
        d = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        gen.write_warc_corpus(s, str(d / "a"), str(d / "i"), n_files=2, n_records=80)
        gen.write_ops_tables(s, str(d / "o"),
                             {k: 50 for k in gen.OPS_SCALE})
    assert _tree_equal(str(tmp_path / "run0"), str(tmp_path / "run1"))
    assert not _tree_equal(str(tmp_path / "run0"), str(tmp_path / "run2"))


def test_warc_corpus_shape(tmp_path):
    from sidecar import warc

    c = gen.write_warc_corpus(3, str(tmp_path / "a"), str(tmp_path / "i"),
                              n_files=1, n_records=300)
    recs = warc.parse_warc_bytes((tmp_path / "a" / "bench-000.warc").read_bytes())
    types = {r["rec_type"] for r in recs}
    assert {"warcinfo", "response", "resource", "revisit"} <= types
    assert any(r["url"].startswith("dns:") for r in recs)
    assert 0.15 < c["dup_payloads"] / c["extracted"] < 0.45
    assert sum(b"HTTP/1.1 404" in r["payload_bytes"] or b"HTTP/1.1 500"
               in r["payload_bytes"] for r in recs) > 0
    lines = (tmp_path / "i" / "bench-000.cdxj").read_text().splitlines()
    assert any("other.warc.gz" in ln for ln in lines)      # unmatched lines
    assert lines == sorted(lines)


def test_surt_key_matches_program_surt(tmp_path):
    """The generator's independent SURT agrees with the program's on every
    generated URL, so index keys can match sidecar keys."""
    from sidecar import canon, warc

    gen.write_warc_corpus(4, str(tmp_path / "a"), str(tmp_path / "i"),
                          n_files=1, n_records=200)
    recs = warc.parse_warc_bytes((tmp_path / "a" / "bench-000.warc").read_bytes())
    urls = [r["url"] for r in recs if r["url"].startswith("http")]
    assert urls and all(gen.surt_key(u) == canon.surt(u) for u in urls)


# --------------------------------------------------------------------------
# output checks fail on corrupted outputs
# --------------------------------------------------------------------------

def test_check_sidecar_catches_corruption(ray_session, tmp_path):
    wl = workloads.Sidecar()
    wl.prepare(7, str(tmp_path), 1, n_urls=96)
    p = wl.plan[0]
    from sidecar import flagship

    out = str(tmp_path / "out")
    flagship.synthetic_frontier_sidecar(p["n_urls"], seed=p["synth_seed"],
                                        num_blocks=2).write_parquet(out)
    assert checks.check_sidecar(out, p["n_urls"], p["synth_seed"]) == []
    files = sorted(glob.glob(f"{out}/*.parquet"))
    tbl = pq.read_table(files[0])
    mime = tbl.column("mime_magic").to_pylist()
    i = tbl.column("image_id").to_pylist().index("url-0")
    mime[i] = "application/x-corrupt"
    pq.write_table(tbl.set_column(tbl.schema.get_field_index("mime_magic"),
                                  "mime_magic", pa.array(mime)),
                   files[0])
    errs = checks.check_sidecar(out, p["n_urls"], p["synth_seed"])
    assert any("sampled rows differ" in e for e in errs)
    pq.write_table(pq.read_table(files[0]).slice(1), files[0])  # drop a row
    errs = checks.check_sidecar(out, p["n_urls"], p["synth_seed"])
    assert any("sink rows" in e for e in errs)
    for f in files:
        os.remove(f)
    assert checks.check_sidecar(out, p["n_urls"], p["synth_seed"])


def test_check_crawl_catches_corruption(ray_session, tmp_path):
    from sidecar import crawl, oracle

    kw = dict(gen.crawl_config(8, n_seeds=60), n_hosts=20, budget_per_host=3)
    o = oracle.crawl(n_seeds=kw["n_seeds"], n_hosts=kw["n_hosts"],
                     budget_per_host=kw["budget_per_host"],
                     max_epochs=kw["max_epochs"], seed=kw["seed"],
                     hot_frac=kw["hot_frac"])
    out = str(tmp_path / "crawl")
    res = crawl.run_crawl(crawl.CrawlConfig(out_dir=out, **kw),
                          collect_order=False, collect_seen=False)
    cands = [m["candidates"] for m in res["metrics"]]
    assert checks.check_crawl(out, o, res["epochs_run"], cands) == []
    assert any("candidates" in e for e in
               checks.check_crawl(out, o, 2, [cands[0] + 1] + cands[1:]))
    bad = dict(o, crawl_order=[o["crawl_order"][0][1:]] + o["crawl_order"][1:])
    assert any("epoch 0 fetched" in e for e in checks.check_crawl(out, bad, 2, cands))
    os.remove(sorted(glob.glob(f"{out}/_ckpt/epoch=1/seen_delta/*.npy"))[0])
    assert any("seen set" in e for e in checks.check_crawl(out, o, 2, cands))


def test_check_warc_catches_corruption(ray_session, tmp_path):
    wl = workloads.Warc()
    wl.prepare(9, str(tmp_path), 1, n_files=2, n_records=60)
    from sidecar import cli

    archive = tmp_path / "arch"
    shutil.copytree(wl.src, archive)
    cli.cmd_sidecar_all(str(archive))
    cli.cmd_cdxj_all(str(archive))
    res = cli.cmd_merge_all(str(archive), wl.index, str(tmp_path / "m"))
    pairs = [(os.path.join(wl.index, n), str(tmp_path / "m" / n.replace(
        ".cdxj", "_merged.cdxj"))) for n in ("bench-000.cdxj", "bench-001.cdxj")]
    assert checks.check_warc_merge(pairs, res["edited"], res["non_edited"]) == []
    assert checks.check_warc_merge(pairs, res["edited"] - 1, res["non_edited"])
    merged = pairs[0][1]
    lines = open(merged).read().splitlines(keepends=True)
    open(merged, "w").writelines(lines[:-1])
    assert any("merged keys differ" in e for e in
               checks.check_warc_merge(pairs, res["edited"], res["non_edited"]))
    shutil.copy(merged, tmp_path / "single.cdxj")
    with open(tmp_path / "single.cdxj", "a") as f:
        f.write("x")
    assert checks.check_warc_single(merged, str(tmp_path / "single.cdxj"))


def test_check_ops_catches_corruption():
    want = pd.DataFrame({"k": [1, 2, 3], "v": [0.5, 1.5, 2.5]})
    assert checks.check_ops("q", want.iloc[::-1], want) == []
    assert checks.check_ops("q", want.iloc[:2], want)
    bad = want.copy()
    bad.loc[1, "v"] = 1.6
    assert checks.check_ops("q", bad, want)
    assert checks.check_ops("q", want.rename(columns={"v": "w"}), want)
    assert checks.check_ops("q", want.iloc[:0], None)
    assert checks.check_ops("q", pd.DataFrame(), want.iloc[:0]) == []
    assert checks.check_ops("q", pd.DataFrame(), want)


def test_ops_tables_give_decontam_hits():
    """Every seed's documents table has held-out text quoted elsewhere, so
    dedup_decontam never returns an empty result."""
    small = {k: 100 for k in gen.OPS_SCALE if k != "documents"}
    for seed in range(5):
        docs = gen.ops_tables(seed, small)["documents"].to_pylist()
        held = [d["text"] for d in docs if d["doc_id"] % 17 == 0]
        assert any(h in d["text"] for h in held for d in docs
                   if d["doc_id"] % 17 != 0)


# --------------------------------------------------------------------------
# smoke-size run of all four workloads, traced
# --------------------------------------------------------------------------

SMOKE = {
    "sidecar": {"n_urls": 120},
    "crawl": {"n_seeds": 80},
    "warc": {"n_files": 2, "n_records": 60},
    "ops": {"queries": ("rel_pricing_summary", "text_token_count",
                        "dedup_embedding_cosine"),
            "scale": {"customer": 60, "orders": 300, "lineitem": 900,
                      "documents": 40, "embeddings": 40, "events": 200}},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload(ray_session, tmp_path, name):
    wl = workloads.WORKLOADS[name]()
    wl.prepare(11, str(tmp_path), 2, **SMOKE[name])
    r0 = wl.run_round(0)
    tracer = layers.Tracer()
    r1 = wl.run_round(1, tracer)
    assert r0.errors == [] and r1.errors == []
    assert r0.items > 0 and r0.wall_s > 0 and r0.ops > 0
    assert tracer.totals(), "the traced round recorded no span"


def test_layer_probes_smoke(ray_session, tmp_path):
    k = layers.kernel_table(3, gen.warc_bytes(3, n_records=60))
    assert all(v > 0 for v in k.values()), k
    assert layers.sidecar_probe(3, str(tmp_path))["storage.write_s"] > 0
    a = layers.actor_probe(3)
    assert a["actors.seen_add_ms.p99"] >= a["actors.seen_add_ms.p50"] > 0
    fdir = str(tmp_path / "frontier")
    n = layers.write_probe_frontier(3, fdir)
    f = layers.frontier_probe(fdir, 3)
    assert f["frontier.candidates"] == n
    assert 0 < f["frontier.selected_frac"] < 1
    assert 0 < f["frontier.bloom_fp_rate"] < 0.01
    assert all(f[f"frontier.{s}_s"] > 0 for s in
               ("filter_unseen", "filter_robots", "select_budget", "discover_links"))


def test_tracer_self_time():
    t = layers.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
    d = t.totals()
    assert d["outer"]["self_s"] <= d["outer"]["total_s"]
    assert d["inner"]["n"] == 1


def test_fails_without_program(tmp_path):
    """In a directory holding only the benchmark, the command exits
    non-zero without printing a result."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sidecar",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120,
                       env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert p.returncode != 0
    for line in p.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
