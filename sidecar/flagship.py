"""Flagship pipeline: documents table → deterministic IMAGES table →
sidecar extraction (the engine's headline fetch+decode+detect path).

The driver's testdata has no image column, so the fetch/decode stage is the
deterministic synthetic fetcher (sidecar/synth.py, FIXTURES.md §1): each
document row becomes one image+caption row, keyed by ``doc-{doc_id}``, with
``caption = text``.  That keeps the whole flagship hermetic — a pure function
of the input parquet — while exercising every sidecar stage (mime sniff,
charset, language, soft-404, decode+phash).
"""

from __future__ import annotations

import pyarrow as pa

import ray.data as rd

from sidecar import actors, pipeline, synth


def _docs_to_images(batch: pa.Table) -> pa.Table:
    doc_ids = batch.column("doc_id").to_pylist()
    t = synth.make_rows([f"doc-{d}" for d in doc_ids], seed=42,
                        captions=[x or "" for x in batch.column("text").to_pylist()])
    # url + ts ride along so the sidecar rows key a CDXJ index (F13/J1)
    t = t.append_column("url", pa.array(
        [f"https://example.com/doc/{d}" for d in doc_ids], pa.string()))
    return t.append_column("ts", pa.array(["20210101000000"] * len(doc_ids), pa.string()))


def images_dataset(sf_dir: str, *, batch_size: int = 256):
    """documents.parquet → IMAGES-shaped Dataset (column-pruned read;
    schema metadata stripped so downstream rebatching hashes schemas)."""
    from sidecar.storage import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(
        pipeline.sliced(_docs_to_images, batch_size), batch_format="pyarrow",
        batch_size=None, zero_copy_batch=True
    )


def flagship(sf_dir: str, *, batch_size: int = 256):
    """The end-to-end flagship: read → synth-fetch/encode → sidecar extract."""
    return pipeline.sidecar_dataset(images_dataset(sf_dir, batch_size=batch_size),
                                    batch_size=batch_size)


def synthetic_frontier_sidecar(n_urls: int, *, seed: int = 42,
                               num_blocks: int = 128, batch_size: int = 256):
    """Scaled headline: an n_urls synthetic frontier pushed through the full
    fetch/encode → sidecar path — the sandbox stand-in for the 10^10-URL
    frontier metric (BASELINE.json).  Pure function of (seed, index): no
    input table needed, so the work scales to any n_urls and the measurement
    is dominated by fetch+extract compute, not fixed pipeline latency.

    Read, fetch and extract run as one fused operator with one task per
    input block (``num_blocks`` tasks); ``batch_size`` bounds the rows per
    fetch and extractor call inside a task, not the task size.  The
    session's first call starts the engine up (``actors.warm_session``).
    """
    actors.warm_session()

    def fetch(batch: pa.Table) -> pa.Table:
        return synth.fetch_batch(
            [f"url-{i}" for i in batch.column("id").to_pylist()], seed)

    urls = rd.range(n_urls, override_num_blocks=num_blocks)
    images = urls.map_batches(pipeline.sliced(fetch, batch_size),
                              batch_format="pyarrow", batch_size=None,
                              zero_copy_batch=True)
    return pipeline.sidecar_dataset(images, batch_size=batch_size)
