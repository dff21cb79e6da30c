"""Storage adapter: Lance when available, Parquet otherwise.

The north_rule mandates "Lance tables of image + caption pairs"; this
sandbox cannot install ``pylance``, so the adapter resolves the I/O layer at
import time and everything above it is format-agnostic (both are
Arrow-native, so the swap changes no schemas and no pipeline code —
SURVEY.md §1.2).  All writes are partitioned (one file per block / epoch
partition) so a resumed run can skip finished partitions.
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray.data as rd

from sidecar import actors

try:  # pragma: no cover - not installable in this sandbox
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False

FORMAT = "lance" if HAVE_LANCE else "parquet"


def strip_schema_metadata(batch: pa.Table) -> pa.Table:
    """Drop schema-level metadata (zero-copy).  Parquet files written by
    pandas/pyarrow carry a ``b'pandas'`` metadata blob that makes the Arrow
    schema UNHASHABLE (pyarrow hashes metadata as a dict) — every downstream
    rebatch/unify then logs 'Failed to hash the schemas (for deduplication)'
    per batch and skips Ray's early-exit schema dedup.  Chain this right
    after a read (it fuses with the read tasks)."""
    return batch.replace_schema_metadata(None)


def read_parquet_clean(path: str, columns: list[str] | None = None,
                       **kwargs) -> "rd.Dataset":
    """``read_parquet`` with schema metadata stripped at the read boundary.

    For a single parquet file the clean (metadata-free) schema is read from
    the footer on the driver and pushed into the scan as ``schema=`` — the
    read op then emits hashable schemas from the start, so Ray's early-exit
    schema dedup works inside ``ReadParquet->SplitBlocks`` itself (a
    downstream strip stage can't reach that point) and no extra operator is
    added.  Directory / multi-file inputs fall back to a fused strip stage.

    A session's first read starts the engine up (``actors.warm_session``):
    Ray Data's stats actor, which the new Dataset looks up, and one import
    task per CPU slot, so the plan's first tasks find warm workers."""
    actors.warm_session()
    if "schema" not in kwargs and isinstance(path, str) and os.path.isfile(path):
        import pyarrow.parquet as pq

        full = pq.read_schema(path).remove_metadata()
        kwargs["schema"] = (
            pa.schema([full.field(c) for c in columns]) if columns else full)
        return rd.read_parquet(path, columns=columns, **kwargs)
    return rd.read_parquet(path, columns=columns, **kwargs).map_batches(
        strip_schema_metadata, batch_format="pyarrow", zero_copy_batch=True)


def read_images(path: str, columns: list[str] | None = None,
                override_num_blocks: int | None = None) -> "rd.Dataset":
    """Read an IMAGES-shaped table (input_hint schema) as a Dataset with
    column pruning pushed into the scan.  Like :func:`read_parquet_clean`,
    it starts the engine up on the session's first read."""
    actors.warm_session()
    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    if HAVE_LANCE and (path.endswith(".lance") or os.path.isdir(path)):
        return rd.read_lance(path, columns=columns, **kwargs)
    return rd.read_parquet(path, columns=columns, **kwargs)


def write_table(ds: "rd.Dataset", path: str) -> None:
    """Partitioned write (never one giant file): Lance dataset dir or a
    directory of per-block parquet files."""
    if HAVE_LANCE:
        ds.write_lance(path)
    else:
        ds.write_parquet(path)


def write_arrow(table: pa.Table, path: str) -> str:
    """Driver-side small-table write (frontier epochs, manifests' sidecars).
    Returns the concrete path written (extension varies by format)."""
    if HAVE_LANCE:
        import lance

        lance.write_dataset(table, path)
        return path
    import pyarrow.parquet as pq

    out = path if path.endswith(".parquet") else path + ".parquet"
    pq.write_table(table, out)
    return out


def read_arrow(path: str) -> pa.Table:
    """Driver-side small-table read, matching :func:`write_arrow`."""
    if HAVE_LANCE and os.path.isdir(path):
        import lance

        return lance.dataset(path).to_table()
    import pyarrow.parquet as pq

    return pq.read_table(path if path.endswith(".parquet") else path + ".parquet")
