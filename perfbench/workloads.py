"""The four benchmark workloads.

Each workload generates its inputs in ``prepare`` (before Ray starts and
before any timing), then runs rounds.  ``run_round`` times one operation
end to end, checks its outputs outside the timed region, and returns a
``Round``.  A round's ``ledger`` holds the layer times the round exposes on
its own (crawl laps, CLI steps, per-query times, operator stats).  The
driver's peak RSS is read over the timed region only, so the benchmark's
own output checks do not count in it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import os
import re
import shutil
import time

from perfbench import checks, gen


@dataclasses.dataclass
class Round:
    items: int            # work items completed (URLs, candidates, records, queries)
    wall_s: float         # timed region
    ops: int              # operations attempted (the failed_frac denominator)
    errors: list          # output-check failures and exceptions
    ledger: dict          # per-layer values this round exposes
    rss_mb: float = 0.0   # driver peak RSS over the timed region

    @property
    def failed(self) -> int:
        """Failed operations: one per error, at most ``ops``."""
        return min(self.ops, len(self.errors))


def _span(tracer, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")  # resets VmHWM to the current RSS
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timed:
    """Wall seconds and the driver's peak RSS (MB) of one timed region."""

    def __enter__(self):
        reset_peak_rss()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.t0
        self.rss_mb = peak_rss_mb()


class Sidecar:
    """Unique URLs through ``flagship.synthetic_frontier_sidecar`` into the
    parquet sink."""

    name = "sidecar"
    item = "URLs"
    nominal_round_s = 2.5

    def prepare(self, seed: int, workdir: str, rounds: int, **sizes) -> None:
        self.workdir = os.path.join(workdir, "sidecar")
        self.plan = gen.sidecar_plan(seed, rounds, **sizes)

    def run_round(self, i: int, tracer=None) -> Round:
        from sidecar import flagship

        p = self.plan[i % len(self.plan)]
        out = os.path.join(self.workdir, f"r{i}")
        shutil.rmtree(out, ignore_errors=True)
        if tracer:
            tracer.wrap(flagship, "synthetic_frontier_sidecar")
        try:
            with Timed() as tm:
                ds = flagship.synthetic_frontier_sidecar(
                    p["n_urls"], seed=p["synth_seed"], num_blocks=p["num_blocks"])
                with _span(tracer, "storage.write_parquet"):
                    ds.write_parquet(out)
        finally:
            if tracer:
                tracer.unwrap()
        rows = checks.parquet_rows(out)
        errs = checks.check_sidecar(out, p["n_urls"], p["synth_seed"])
        ledger = operator_stats(getattr(ds, "_write_ds", None)) if tracer else {}
        shutil.rmtree(out, ignore_errors=True)
        return Round(rows, tm.wall_s, 1, errs, ledger, tm.rss_mb)


_OP_LINE = re.compile(r"^Operator \d+ (.+?): .* produced in ([0-9.]+)s")
_CPU_LINE = re.compile(r"^\* Remote cpu time: .*, ([0-9.]+)(us|ms|s) total")
_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def operator_stats(ds) -> dict:
    """Per-operator wall and remote CPU seconds from ``Dataset.stats()`` of
    an executed dataset (for the sidecar round: the write)."""
    if ds is None:
        return {}
    out, op = {}, None
    for line in ds.stats().splitlines():
        line = line.strip()
        m = _OP_LINE.match(line)
        if m:
            op = "ray_op." + re.sub(r"[^A-Za-z0-9_.>-]+", "_", m.group(1))[:64]
            out[f"{op}.wall_s"] = float(m.group(2))
            continue
        m = _CPU_LINE.match(line)
        if m and op:
            out[f"{op}.cpu_s"] = float(m.group(1)) * _UNIT_S[m.group(2)]
    return out


class Crawl:
    """A two-epoch ``crawl.run_crawl`` whose every frontier stays above
    ``frontier.SMALL_FRONTIER_ROWS``."""

    name = "crawl"
    item = "candidates"
    nominal_round_s = 5.0   # two rounds at --seconds 10: one cold, one warm
    LAPS = ("budget", "split_selected", "politeness", "fetch_sidecar_write",
            "order", "next_frontier")

    def prepare(self, seed: int, workdir: str, rounds: int, **sizes) -> None:
        from sidecar import oracle

        self.workdir = os.path.join(workdir, "crawl")
        self.kw = gen.crawl_config(seed, **sizes)
        self.oracle = oracle.crawl(
            n_seeds=self.kw["n_seeds"], n_hosts=self.kw["n_hosts"],
            budget_per_host=self.kw["budget_per_host"],
            max_epochs=self.kw["max_epochs"], seed=self.kw["seed"],
            hot_frac=self.kw["hot_frac"])
        # the rate's item count: the oracle's, so a change to how the
        # program counts its frontier cannot move the rate
        self.candidates = [m["candidates"] for m in self.oracle["metrics"]]

    def run_round(self, i: int, tracer=None) -> Round:
        from sidecar import crawl

        out = os.path.join(self.workdir, f"r{i}")
        shutil.rmtree(out, ignore_errors=True)
        cfg = crawl.CrawlConfig(out_dir=out, **self.kw)
        if tracer:
            tracer.wrap(crawl, "run_crawl")
        try:
            with Timed() as tm:
                res = crawl.run_crawl(cfg, collect_order=False, collect_seen=False)
        finally:
            if tracer:
                tracer.unwrap()
        ms = res["metrics"]
        errs = checks.check_crawl(out, self.oracle, res["epochs_run"],
                                  [m["candidates"] for m in ms])
        ledger = {f"crawl.t_{lap}_s": sum(m.get(f"t_{lap}", 0.0) for m in ms)
                  for lap in self.LAPS}
        ledger["crawl.unlapped_s"] = tm.wall_s - sum(ledger.values())
        ledger["crawl.fetched"] = float(sum(m["selected"] for m in ms))
        ledger["crawl.candidates_per_fetched"] = (
            sum(self.candidates) / max(1, ledger["crawl.fetched"]))
        shutil.rmtree(out, ignore_errors=True)
        return Round(sum(self.candidates), tm.wall_s, max(1, res["epochs_run"]),
                     errs, ledger, tm.rss_mb)


class Warc:
    """The reference lifecycle ``cmd_sidecar_all`` → ``cmd_cdxj_all`` →
    ``cmd_merge_all`` over generated WARC files and original indexes."""

    name = "warc"
    item = "records"
    nominal_round_s = 2.5

    def prepare(self, seed: int, workdir: str, rounds: int, **sizes) -> None:
        self.workdir = os.path.join(workdir, "warc")
        self.src = os.path.join(self.workdir, "src")
        self.index = os.path.join(self.workdir, "index")
        self.counts = gen.write_warc_corpus(seed, self.src, self.index, **sizes)
        self.files = sorted(glob.glob(os.path.join(self.src, "*.warc")))

    def run_round(self, i: int, tracer=None) -> Round:
        from sidecar import cli, warc

        rdir = os.path.join(self.workdir, f"r{i}")
        shutil.rmtree(rdir, ignore_errors=True)
        archive, merged = os.path.join(rdir, "archive"), os.path.join(rdir, "merged")
        os.makedirs(archive)
        for f in self.files:
            shutil.copy(f, archive)
        steps = {}
        if tracer:
            for fn in ("cmd_sidecar_all", "cmd_cdxj_all", "cmd_merge_all"):
                tracer.wrap(cli, fn)
        try:
            with Timed() as tm:
                cli.cmd_sidecar_all(archive)
                steps["cli.sidecar_all_s"] = time.perf_counter() - tm.t0
                cli.cmd_cdxj_all(archive)
                steps["cli.cdxj_all_s"] = (time.perf_counter() - tm.t0
                                           - sum(steps.values()))
                res = cli.cmd_merge_all(archive, self.index, merged)
            steps["cli.merge_all_s"] = tm.wall_s - sum(steps.values())
        finally:
            if tracer:
                tracer.unwrap()
        pairs = [(os.path.join(self.index, os.path.basename(f)[:-5] + ".cdxj"),
                  os.path.join(merged, warc.merged_cdxj_name(
                      os.path.basename(f)[:-5] + ".cdxj")))
                 for f in self.files]
        errs = checks.check_warc_merge(pairs, res.get("edited", 0),
                                       res.get("non_edited", 0))
        if i == 0:
            errs += self._single_file_parity(rdir, pairs[0][1])
        lines = res.get("edited", 0) + res.get("non_edited", 0)
        steps["cdxj.merge_matched_frac"] = res.get("edited", 0) / max(1, lines)
        shutil.rmtree(rdir, ignore_errors=True)
        return Round(self.counts["extracted"], tm.wall_s, len(self.files), errs,
                     steps, tm.rss_mb)

    def _single_file_parity(self, rdir: str, batch_merged: str) -> list[str]:
        """First file through the single-file sidecar → cdxj → merge path."""
        from sidecar import cli

        single = os.path.join(rdir, "single")
        os.makedirs(single)
        src = shutil.copy(self.files[0], single)
        meta = cli.cmd_sidecar(single, src)["meta_file_path"]
        cdxj = cli.cmd_cdxj(meta, single)["cdxj_path"]
        orig = os.path.join(self.index, os.path.basename(src)[:-5] + ".cdxj")
        out = cli.cmd_merge(cdxj, orig, os.path.join(single, "merged"))
        return checks.check_warc_single(batch_merged, out["merged_path"])


# one or more queries of each operator family, at sf0.1 row counts; all but
# rel_pricing_summary (a Ray groupby aggregate) run groupby(part).map_groups
OPS_QUERIES = (
    "dedup_minhash_lsh", "dedup_passage", "dedup_embedding_cosine",
    "sim_ann_topk", "rel_pricing_summary", "rel_top_revenue_orders",
    "text_tfidf_topk", "prep_token_budget",
)
OPS_TABLES = ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split()


def _collect(res):
    """Stream a query result to completion; returns Arrow batches or the
    eager result as is."""
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return list(res.iter_batches(batch_format="pyarrow", batch_size=None))
    return res


def _to_pandas(got):
    import pandas as pd
    import pyarrow as pa

    if isinstance(got, list):
        return pa.concat_tables(got).to_pandas() if got else pd.DataFrame()
    if isinstance(got, pa.Table):
        return got.to_pandas()
    return got


class Ops:
    """The training-data operator sweep from ``__ray_entry__.queries()``
    over generated tables."""

    name = "ops"
    item = "queries"
    nominal_round_s = 9.0

    def prepare(self, seed: int, workdir: str, rounds: int,
                queries: tuple = OPS_QUERIES, scale: dict | None = None) -> None:
        import duckdb

        import __ray_entry__ as entry

        self.tables = os.path.join(workdir, "ops", "tables")
        gen.write_ops_tables(seed, self.tables, scale)
        self.queries = queries
        self.fns = entry.queries()
        oracles = entry.oracle_sql()
        con = duckdb.connect()
        try:
            for t in OPS_TABLES:
                con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"'{os.path.join(self.tables, t)}.parquet'")
            self.want = {q: con.sql(oracles[q]).df()
                         for q in queries if q in oracles}
        finally:
            con.close()

    def run_round(self, i: int, tracer=None) -> Round:
        errs, ledger, wall, rss = [], {}, 0.0, 0.0
        for q in self.queries:
            got = None
            try:
                with Timed() as tm, _span(tracer, f"ops.{q}"):
                    got = _collect(self.fns[q](self.tables))
            except Exception as ex:  # a failed query is a failed operation
                errs.append(f"ops: {q}: raised {type(ex).__name__}: {ex}")
            wall += tm.wall_s
            rss = max(rss, tm.rss_mb)
            ledger[f"ops.{q}_s"] = tm.wall_s
            if got is not None:
                errs += checks.check_ops(q, _to_pandas(got), self.want.get(q))
        return Round(len(self.queries), wall, len(self.queries), errs, ledger, rss)


WORKLOADS = {w.name: w for w in (Sidecar, Crawl, Warc, Ops)}
