"""bench.py's flagship memo: the harness-only cache its sweep reads."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq


def test_flagship_memo_parity(tmp_path):
    """memoize_flagship serves the SAME rows as the uncached plan; memo
    cleared afterwards so other tests see the uncached plan."""
    import bench
    from sidecar import flagship as fsmod

    pq.write_table(pa.table({
        "doc_id": pa.array(range(60), pa.int64()),
        "text": [f"document number {i} about cats and dogs" for i in range(60)],
    }), tmp_path / "documents.parquet")

    def rows(ds) -> pa.Table:
        return (pa.concat_tables(ds.iter_batches(batch_format="pyarrow",
                                                 batch_size=None))
                .combine_chunks().sort_by("image_id"))

    sf = str(tmp_path)
    try:
        fresh = rows(bench.memoized_flagship(sf))
        handle = bench.memoize_flagship(sf)
        assert bench.memoized_flagship(sf) is handle     # served from the memo
        assert fsmod.flagship(sf) is not handle          # the library never is
        assert fresh.equals(rows(bench.memoized_flagship(sf)))
        assert fresh.num_rows == 60
    finally:
        bench.invalidate_flagship_memo()
