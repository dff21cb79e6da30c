"""End-to-end sidecar pipeline contracts, ported from the reference's e2e
fixtures (tests/test_warc_metadata_sidecar.py:109-233) to table form
(FIXTURES.md §3)."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from sidecar import pipeline, schemas, shuffle, synth


def _run(table: pa.Table) -> pa.Table:
    ds = pipeline.sidecar_dataset(rd.from_arrow(table))
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    out = pa.concat_tables(
        [b if isinstance(b, pa.Table) else pa.Table.from_batches([b]) for b in batches]
    )
    return out.combine_chunks()


def test_e2e_text_row():
    # ≈ text.warc (:118-142): html response → mime, charset, language, soft404
    cap = "the cat and the dog went to the page and said this was that"
    t = pa.Table.from_pylist(
        [{
            "image_id": "t1",
            "bytes": f"<!DOCTYPE html><html><body>{cap}</body></html>".encode(),
            "w": 0, "h": 0, "fmt": "html", "caption": cap, "phash": 0,
        }],
        schema=synth.IMAGES_SCHEMA,
    )
    row = _run(t).to_pylist()[0]
    assert row["mime_magic"] == "text/html" and row["puid"] == "fmt/471"
    assert row["charset"]["encoding"] == "ascii"
    assert row["languages"]["languages"][0]["code"] == "en"
    assert row["soft404"] is not None and row["is_text"]


def test_e2e_image_row_never_runs_text_detectors():
    # ≈ gif.warc (:155-175): image → charset/languages/soft404 must be null
    t = synth.make_images_table(40, seed=7)
    out = _run(t)
    for row in out.to_pylist():
        if row["fmt"] in ("png", "ppm", "b16"):
            assert row["charset"] is None
            assert row["languages"] is None
            assert row["soft404"] is None


def test_e2e_empty_payload_skipped():
    # ≈ the reference's empty-payload skip (:213-215)
    t = pa.Table.from_pylist(
        [
            {"image_id": "e", "bytes": b"", "w": 0, "h": 0, "fmt": "text",
             "caption": "", "phash": 0},
            {"image_id": "ok", "bytes": b"some text", "w": 0, "h": 0,
             "fmt": "text", "caption": "", "phash": 0},
        ],
        schema=synth.IMAGES_SCHEMA,
    )
    out = _run(t)
    assert out.num_rows == 1 and out.to_pylist()[0]["image_id"] == "ok"


def test_digest_dedup_same_metadata():
    # ≈ digest_multiples.warc (:199-233): identical payloads → identical
    # metadata rows (compute-once semantics; deterministic detectors make
    # recompute == cache hit)
    body = b"<!DOCTYPE html><html>the page was not found sorry</html>"
    rows = [
        {"image_id": f"d{i}", "bytes": body, "w": 0, "h": 0, "fmt": "html",
         "caption": "", "phash": 0}
        for i in range(5)
    ]
    out = _run(pa.Table.from_pylist(rows, schema=synth.IMAGES_SCHEMA)).to_pylist()
    assert len(out) == 5
    assert len({r["payload_digest"] for r in out}) == 1
    first = {k: v for k, v in out[0].items() if k != "image_id"}
    for r in out[1:]:
        assert {k: v for k, v in r.items() if k != "image_id"} == first


def test_golden_payload_serialization():
    # ≈ warc.warc.meta.gz golden (F10, :151-164) — exact text form with the
    # skip rules (no charset line when encoding falsy, soft404 only when set)
    cap = "the cat and the dog"
    t = pa.Table.from_pylist(
        [{"image_id": "g", "bytes": f"<html><body>{cap} page not found</body></html>".encode(),
          "w": 0, "h": 0, "fmt": "html", "caption": cap, "phash": 0}],
        schema=synth.IMAGES_SCHEMA,
    )
    row = _run(t).to_pylist()[0]
    payload = pipeline.sidecar_row_to_payload(row)
    lines = payload.split("\n")
    assert lines[0].startswith("Identified-Payload-Type: {\"fido\": \"text/html\"")
    assert lines[1] == "Preservation-Identifier: fmt/96"
    assert lines[2].startswith("Charset-Detected: {\"encoding\": \"ascii\"")
    assert lines[3].startswith("Languages-cld2: {\"reliable\":")
    assert lines[4].startswith("Soft-404-Detected: 0.8")
    # image rows: mime lines only
    img = synth.make_row("imgx", seed=1)
    while img["fmt"] not in ("png", "ppm"):
        img = synth.make_row(img["image_id"] + "x", seed=1)
    out = _run(pa.Table.from_pylist([img], schema=synth.IMAGES_SCHEMA)).to_pylist()[0]
    p2 = pipeline.sidecar_row_to_payload(out)
    assert "Charset-Detected" not in p2 and "Soft-404" not in p2
    assert "Identified-Payload-Type" in p2


def test_sidecar_schema_stable():
    out = _run(synth.make_images_table(10, seed=3))
    assert out.schema.names == schemas.SIDECAR.names


def test_determinism_across_parallelism(images_table):
    # same table through 1 block vs 8 blocks → identical sorted output
    a = _run(images_table).sort_by("image_id")
    b_ds = pipeline.sidecar_dataset(rd.from_arrow(images_table).repartition(8))
    batches = list(b_ds.iter_batches(batch_format="pyarrow"))
    b = pa.concat_tables(
        [x if isinstance(x, pa.Table) else pa.Table.from_batches([x]) for x in batches]
    ).combine_chunks().sort_by("image_id")
    assert a.equals(b)


def test_dedup_digest_plan_equals_plain_extract(monkeypatch, spy):
    """A3 parity: the explicit compute-once-per-digest plan produces the
    same rows as the plain per-row extraction, on a corpus with heavy exact
    payload duplication and DISTINCT captions (the per-row fields must not
    be cached along with the payload-derived ones)."""
    import pandas as pd
    import ray.data as rd

    from sidecar.pipeline import sidecar_dataset, sidecar_dataset_dedup_digest

    base = [synth.make_row(f"dd-{i % 7}", seed=7) for i in range(40)]
    rows = []
    for i, r in enumerate(base):  # same payloads, unique ids+captions
        r = dict(r)
        r["image_id"] = f"row-{i:03d}"
        r["caption"] = f"unique caption words {i} for row"
        rows.append(r)
    tbl = pa.Table.from_pylist(rows, schema=synth.IMAGES_SCHEMA)

    def norm(ds):
        df = ds.to_pandas().sort_values("image_id").reset_index(drop=True)
        for c in ("charset", "languages", "caption_languages"):
            df[c] = df[c].map(lambda v: str(v))
        return df

    calls = spy(shuffle, "copartition")

    def joins():  # the step-4 join: a copartition of a list of inputs
        return [c for c in calls if isinstance(c[0], list)]

    a = norm(sidecar_dataset(rd.from_arrow(tbl)))
    b = norm(sidecar_dataset_dedup_digest(rd.from_arrow(tbl)))
    assert not joins()  # small metadata → broadcast plan
    pd.testing.assert_frame_equal(a, b)
    assert a["payload_digest"].nunique() < len(a)  # duplication actually present

    # the metadata-outgrows-broadcast twin (step 4 = hash-partitioned join
    # on payload_digest; driver never holds the digest→metadata dict) emits
    # identical rows with the broadcast limit forced to 0 bytes
    monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES", 0)
    c = norm(sidecar_dataset_dedup_digest(rd.from_arrow(tbl)))
    assert len(joins()) == 1
    pd.testing.assert_frame_equal(a, c[a.columns.tolist()] if
                                  list(c.columns) != list(a.columns) else c)


def test_dedup_digest_join_with_empty_metadata(monkeypatch, spy):
    """Every payload empty: no metadata rows, so both plans drop every row,
    as plain extraction does."""
    rows = [{"image_id": f"e{i}", "bytes": b"", "w": 0, "h": 0, "fmt": "text",
             "caption": f"caption {i}", "phash": 0} for i in range(20)]
    images = rd.from_arrow(pa.Table.from_pylist(rows, schema=synth.IMAGES_SCHEMA))
    assert pipeline.sidecar_dataset(images).count() == 0
    assert pipeline.sidecar_dataset_dedup_digest(images).count() == 0
    # an empty build side measures 0 bytes: only -1 forces the exchange
    calls = spy(shuffle, "copartition")
    monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES", -1)
    assert pipeline.sidecar_dataset_dedup_digest(images,
                                                 batch_size=8).count() == 0
    assert len([c for c in calls if isinstance(c[0], list)]) == 1


def test_extract_tolerates_null_payload():
    """A NULL bytes cell counts as empty payload (dropped by F3) instead of
    poisoning the boolean masks with None."""
    import pyarrow as pa

    from sidecar.pipeline import extract_sidecar_batch

    batch = pa.table({
        "image_id": pa.array(["a", "b"], pa.string()),
        "bytes": pa.array([b"hello world text", None], pa.binary()),
        "w": pa.array([0, 0], pa.int32()),
        "h": pa.array([0, 0], pa.int32()),
        "fmt": pa.array(["text", "text"], pa.string()),
        "caption": pa.array(["hi", "yo"], pa.string()),
        "phash": pa.array([0, 0], pa.int64()),
    })
    out = extract_sidecar_batch(batch)
    assert out.num_rows == 1
    assert out.column("image_id").to_pylist() == ["a"]


def test_frontier_sidecar_runs_as_one_task_per_block():
    """Read, fetch and extract fuse into one Ray Data operator with one task
    per input block: an integer map ``batch_size`` would keep the read a
    separate operator and bundle the 250-row blocks into 500-row tasks."""
    import re

    from sidecar import flagship

    stats = flagship.synthetic_frontier_sidecar(3000, num_blocks=12) \
        .materialize().stats()
    fused = re.findall(
        r"^Operator \d+ ReadRange->MapBatches\(fetch\)"
        r"->MapBatches\(extract_with_registry\)[^:]*: (\d+) tasks executed",
        stats, flags=re.M)
    assert fused == ["12"], stats


def test_hot_maps_pass_no_integer_batch_size():
    """Every ``map_batches`` in the fetch/extract modules hands its UDF whole
    blocks (``batch_size=None``) and bounds rows per call with
    ``pipeline.sliced``."""
    import ast
    import pathlib

    root = pathlib.Path(pipeline.__file__).parent
    found = []
    for name in ("pipeline.py", "flagship.py", "crawl.py"):
        for node in ast.walk(ast.parse((root / name).read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_batches"):
                continue
            for kw in node.keywords:
                if kw.arg == "batch_size" and not (
                        isinstance(kw.value, ast.Constant) and kw.value.value is None):
                    found.append(f"{name}:{node.lineno}")
    assert not found


def test_sliced_calls_never_exceed_batch_size():
    def rows(t: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    direct = pa.concat_tables(
        pipeline.sliced(rows, 64)(pa.table({"id": np.arange(1000)})))
    via_ray = rd.range(1000, override_num_blocks=3).map_batches(
        pipeline.sliced(rows, 64), batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True).to_pandas()
    for n in (direct.column("n").to_pylist(), via_ray["n"].tolist()):
        assert max(n) <= 64
        assert sum(n) == 1000


def test_sliced_extract_equals_one_whole_table_call():
    table = synth.make_images_table(1000, seed=11)
    fmts = set(table.column("fmt").to_pylist())
    assert {"text", "html"} & fmts and {"png", "ppm"} & fmts  # mixed corpus
    whole = pipeline.extract_sidecar_batch(table)
    sliced = pa.concat_tables(
        pipeline.sliced(pipeline.extract_sidecar_batch, 96)(table))
    assert sliced.equals(whole)
    ds = pipeline.sidecar_dataset(rd.from_arrow(table).repartition(5),
                                  batch_size=96)
    via_ray = pa.concat_tables(
        [b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
         for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)])
    assert via_ray.sort_by("image_id").equals(whole.sort_by("image_id"))


def test_sliced_empty_block_gets_one_call():
    calls = []

    def extract(t: pa.Table) -> pa.Table:
        calls.append(t.num_rows)
        return pipeline.extract_sidecar_batch(t)

    out = list(pipeline.sliced(extract, 256)(
        synth.make_images_table(4, seed=1).slice(0, 0)))
    assert calls == [0]
    assert len(out) == 1 and out[0].num_rows == 0
    assert out[0].schema.names == schemas.SIDECAR.names
