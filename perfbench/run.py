"""Benchmark entry point.

    python3 perfbench/run.py --workload sidecar --seed 1 --seconds 10 --trace 0

Run from the repository root.  Starts a local Ray with one CPU per core the
process may run on, generates the workload's inputs from ``--seed``, measures, checks the
outputs, and prints one line per metric followed by ONE JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics (see perfbench/README.md).
Exits non-zero without a result when the program is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench_work")
RAY_TMP = os.path.join(ROOT, ".pbray")
# Ray places unix sockets under its temp dir; the path must stay short
RAY_TMP_MAX_LEN = 44
OBJECT_STORE_BYTES = 512 << 20
# two set-ups a run: each more adds ~5 s (start and shutdown) to every run
SETUP_SAMPLES = 2

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "driver_rss_mb": "MB"}
PER_LAYER = {
    "synth.fetch_rows_per_s": "rows/s",
    "detect.mime_rows_per_s": "rows/s",
    "detect.charset_rows_per_s": "rows/s",
    "detect.language_rows_per_s": "rows/s",
    "detect.soft404_rows_per_s": "rows/s",
    "detect.phash_rows_per_s": "rows/s",
    "pipeline.extract_rows_per_s.image": "rows/s",
    "pipeline.extract_rows_per_s.text": "rows/s",
    "pipeline.extract_rows_per_s.warc_mix": "rows/s",
    "pipeline.noray_rows_per_s": "rows/s",
    "pipeline.ray_rows_per_s": "rows/s",
    "pipeline.ray_overhead_frac": "ratio",
    "storage.write_s": "s",
    "canon.surt_us": "us",
    "canon.canonical_url_us": "us",
    "canon.url_hash_us": "us",
    "state.bloom_ns_per_key": "ns",
    "state.cuckoo_ns_per_key": "ns",
    "warc.parse_mb_per_s": "MB/s",
    "actors.seen_add_ms.p50": "ms",
    "actors.seen_add_ms.p99": "ms",
    "actors.seen_contains_ms.p50": "ms",
    "actors.seen_contains_ms.p99": "ms",
    "actors.grant_many_ms": "ms",
    "frontier.filter_unseen_s": "s",
    "frontier.filter_robots_s": "s",
    "frontier.select_budget_s": "s",
    "frontier.discover_links_s": "s",
    "frontier.selected_frac": "ratio",
    "frontier.bloom_fp_rate": "ratio",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
}
# the workload-specific name each run also prints its items_per_s under
RATE_ALIAS = {"sidecar": "sidecar.urls_per_s", "crawl": "crawl.candidates_per_s",
              "warc": "warc.records_per_s", "ops": "ops.queries_per_s"}


# --------------------------------------------------------------------------
# Ray session
# --------------------------------------------------------------------------

def nproc() -> int:
    """Cores this process may run on (GNU ``nproc`` also honours
    ``OMP_NUM_THREADS``, which says nothing about Ray's workers)."""
    return len(os.sched_getaffinity(0))


def start_ray() -> float:
    """Seconds from ray.init until the first task returns from a started
    worker process."""
    import ray
    from ray.data import DataContext

    kwargs = dict(address="local", num_cpus=nproc(), include_dashboard=False,
                  logging_level="ERROR", log_to_driver=False,
                  object_store_memory=OBJECT_STORE_BYTES)
    if len(RAY_TMP) <= RAY_TMP_MAX_LEN:
        kwargs["_temp_dir"] = RAY_TMP
    t0 = time.perf_counter()
    ray.init(**kwargs)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    ray.get(ray.remote(_worker_pid).remote())
    return time.perf_counter() - t0


def _worker_pid() -> int:
    return os.getpid()


def stop_processes(timeout: float = 10.0) -> None:
    """Shut Ray down and wait until every process this run started ended."""
    import psutil

    import ray

    if ray.is_initialized():
        ray.shutdown()
    kids = psutil.Process().children(recursive=True)
    _, alive = psutil.wait_procs(kids, timeout=timeout)
    for p in alive:
        p.kill()
    psutil.wait_procs(alive, timeout=timeout)


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def _safe_round(wl, i: int, tracer=None):
    from perfbench.workloads import Round

    try:
        return wl.run_round(i, tracer)
    except Exception as ex:  # an exception is a failed operation
        return Round(0, 0.0, 1, [f"{wl.name}: round {i} raised "
                                 f"{type(ex).__name__}: {ex}"], {})


def run_untraced(wl, seed: int, seconds: int) -> tuple[dict, list, list[str]]:
    n_rounds = max(1, round(seconds / wl.nominal_round_s))
    wl.prepare(seed, WORKDIR, n_rounds)
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(start_ray())
        stop_processes()
    samples.append(start_ray())
    rounds = [_safe_round(wl, i) for i in range(n_rounds)]
    stop_processes()
    wall = sum(r.wall_s for r in rounds)
    metrics = {"setup_s": statistics.median(samples),
               "items_per_s": sum(r.items for r in rounds) / wall if wall else 0.0,
               "driver_rss_mb": max(r.rss_mb for r in rounds)}
    lines = [f"setup samples (s): {' '.join(f'{s:.3f}' for s in samples)}",
             f"rounds: {n_rounds} x {wl.item}; per-round wall (s): "
             + " ".join(f"{r.wall_s:.3f}" for r in rounds),
             f"metric {RATE_ALIAS[wl.name]} {metrics['items_per_s']:.6g} 1/s"]
    if wl.name == "ops":
        lines.append(f"metric ops.sweep_s {wall / n_rounds:.6g} s")
    return metrics, rounds, lines


def run_traced(wl, seed: int) -> tuple[dict, list, list[str]]:
    from perfbench import gen, layers

    wl.prepare(seed, WORKDIR, 4)
    start_ray()
    warm = _safe_round(wl, 0)             # first-call costs, not compared
    # untraced rounds on both sides of the traced one, so warm-up still
    # going on after the first round does not read as negative overhead
    before = _safe_round(wl, 1)
    tracer = layers.Tracer()
    traced = _safe_round(wl, 2, tracer)
    after = _safe_round(wl, 3)
    untraced_s = (before.wall_s + after.wall_s) / 2
    m = layers.kernel_table(seed, gen.warc_bytes(seed))
    m.update(layers.sidecar_probe(seed, WORKDIR))
    m["pipeline.ray_overhead_frac"] = 1.0 - m["pipeline.ray_rows_per_s"] / m[
        "pipeline.noray_rows_per_s"]
    m.update(layers.actor_probe(seed))
    fdir = os.path.join(WORKDIR, "probe_frontier")
    layers.write_probe_frontier(seed, fdir)
    m.update(layers.frontier_probe(fdir, seed))
    stop_processes()
    m["trace.untraced_s"] = untraced_s
    m["trace.traced_s"] = traced.wall_s
    # printed, not a metric: it is round-to-round noise around zero and can
    # read negative, so a ratio against the parent's value means nothing
    lines = [f"round wall (s): warm-up {warm.wall_s:.3f} untraced {before.wall_s:.3f} "
             f"traced {traced.wall_s:.3f} untraced {after.wall_s:.3f}",
             f"trace.overhead_s {traced.wall_s - untraced_s:.6g} s "
             "(traced round minus the mean of the untraced rounds)",
             f"frontier replay input: the crawl seed frontier "
             f"({int(m['frontier.candidates'])} candidates); actor RPC samples: "
             f"{int(m['actors.rpc_samples'])}"]
    for k, v in sorted(traced.ledger.items()):
        lines.append(f"layer {k} {v:.6g} ({wl.name} workload only)")
    for k, d in sorted(tracer.totals().items()):
        lines.append(f"span {k} n={d['n']} total_s={d['total_s']:.4f} "
                     f"self_s={d['self_s']:.4f}")
    return m, [warm, before, traced, after], lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["sidecar", "crawl", "warc", "ops"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    missing = [f for f in ("__ray_entry__.py", "sidecar/__init__.py")
               if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        print(f"perfbench: the program is missing from {ROOT}: {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    # Ray workers import the program from the checkout too
    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    wl = WORKLOADS[args.workload]()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        if args.trace:
            metrics, rounds, lines = run_traced(wl, args.seed)
            units = PER_LAYER
        else:
            metrics, rounds, lines = run_untraced(wl, args.seed, args.seconds)
            units = END_TO_END
    finally:
        stop_processes()
        shutil.rmtree(WORKDIR, ignore_errors=True)
        shutil.rmtree(RAY_TMP, ignore_errors=True)

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        for e in r.errors:
            print(f"FAILED {e}", file=sys.stderr)
    for line in lines:
        print(line)
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for k, u in units.items():
        print(f"metric {k} {metrics[k]:.6g} {u}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
