"""Measure the sandbox HOST's physical scaling ceiling for the fetch
compute — no Ray involved.

The north rule's scaling criterion (N vs 4N cluster nodes) is evidenced in
this sandbox by two ``num_cpus`` levels on ONE shared host.  That conflates
two things: the engine's scaling AND the host's per-core throughput roll-off
with occupancy (turbo/memory-bandwidth sharing).  A real N→4N adds NODES,
each with its own memory bandwidth, so the roll-off does not apply there.

This script isolates the host term: it runs the exact fetch compute the
engine's fetch stages run (``sidecar.synth.fetch_batch`` in 256-key calls —
pixel synthesis + image encode, no phash: the extraction hashes the decoded
payload) in a plain ``multiprocessing.Pool`` at two worker counts,
interleaved best-of-N like ``bench.py``.  The reported ``ceiling_eff`` is
the best ANY engine could measure for this workload at these levels on
this host; BASELINE.md reports the crawl loop's measured efficiency
alongside it.

    python tools/fetch_ceiling.py [lo] [hi] [trials]   # default 2 8 3
"""

from __future__ import annotations

import json
import sys
import time
from multiprocessing import Pool

N_ROWS = 20_000
N_CHUNKS = 64
FETCH_BATCH = 256  # keys per fetch_batch call, the engine's fetch batch size


def _work(args: tuple[int, int]) -> int:
    lo, hi = args
    from sidecar import synth

    for b in range(lo, hi, FETCH_BATCH):
        synth.fetch_batch([f"http://host{i % 300:02d}.example.com/p/{i}"
                           for i in range(b, min(b + FETCH_BATCH, hi))], 42)
    return hi - lo


def rate_at(n_workers: int) -> float:
    chunks = [(i * N_ROWS // N_CHUNKS, (i + 1) * N_ROWS // N_CHUNKS)
              for i in range(N_CHUNKS)]
    with Pool(n_workers) as p:
        # warm EVERY worker (imports): chunksize=1 with 2x n_workers tiny
        # tasks reaches all processes — warming only a fixed 4 left cold
        # workers paying import cost inside the hi level's timed region,
        # biasing the ceiling (and thus eff_vs_ceiling) optimistically
        p.map(_work, [(0, 50)] * (n_workers * 2), chunksize=1)
        t0 = time.perf_counter()
        p.map(_work, chunks)
        dt = time.perf_counter() - t0
    return N_ROWS / dt


def main() -> dict:
    lo = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    hi = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    trials = int(sys.argv[3]) if len(sys.argv) > 3 else 3
    best: dict[int, float] = {}
    for _ in range(trials):  # interleaved, like bench.py --scaling*
        for n in (lo, hi):
            best[n] = max(best.get(n, 0.0), rate_at(n))
    out = {
        "metric": f"host fetch-compute ceiling ({lo} vs {hi} workers, no Ray)",
        "rows_per_sec": {str(n): round(best[n], 1) for n in best},
        "per_worker": {str(n): round(best[n] / n, 1) for n in best},
        "ceiling_eff": round(best[hi] / best[lo] / (hi / lo), 3),
        "trials": trials,
    }
    print(json.dumps(out))
    return out


if __name__ == "__main__":
    sys.path.insert(0, __file__.rsplit("/", 2)[0])
    main()
