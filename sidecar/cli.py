"""Command-line parity with the reference's three user-facing tools, on the
Ray engine:

    python -m sidecar.cli sidecar <archive_dir> <warc_file> [--operator ..]
        ≈ ``warc_metadata_sidecar.py main()`` (:306-331): WARC/ARC text in,
        sidecar WARC out at <archive_dir>/<sidecar_name(warc)>, returns
        (path, records_read, records_written) as JSON.
    python -m sidecar.cli cdxj <sidecar_file> <archive_dir>
        ≈ ``sidecar2cdxj.py main()``: sidecar WARC → SURT-keyed CDXJ lines
        at <archive_dir>/<cdxj_name>.
    python -m sidecar.cli merge <metadata_cdxj> <warc_cdxj> <cdxj_dir>
        ≈ ``merge_cdxj.py main()``: left-outer enrichment of the original
        CDXJ, original line order preserved, at
        <cdxj_dir>/<merged_cdxj_name>.

A user of the reference can run the same three-step lifecycle unchanged in
shape; each step is the corresponding Ray Data pipeline (streamed, no
whole-file driver materialization except the small CDXJ build side).
Only this CLI owns a Ray session (guarded init, like sidecar.crawl).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from sidecar import pipeline, warc
from sidecar.canon import cdxj_key, surt
from sidecar.cdxj import cdxj_line, enrich_json, merge_cdxj, parse_cdxj_lines
from sidecar.shuffle import copartition


def payload_to_json(payload: str) -> str:
    """F12 conformance (convert_payload_to_json, sidecar2cdxj.py:18-29):
    each 'Title: value' line parsed with a JSON fallback to the raw string;
    the trailing ':' of the Title is stripped."""
    d: dict = {}
    # splitlines, not split('\n'): a spec-conformant (warcio-written) sidecar
    # joins warc-fields lines with CRLF — split('\n') would leave a trailing
    # '\r' on every value, breaking the JSON fallback parse
    for line in payload.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition(": ")
        try:
            d[key.rstrip(":")] = json.loads(value)
        except (json.JSONDecodeError, ValueError):
            d[key.rstrip(":")] = value
    return json.dumps(d)


def _split_http_payload_bytes(payload: bytes) -> tuple[bytes, int]:
    """HTTP-response record blocks carry 'HTTP/1.x <status> ...' + headers +
    body; the reference reads record.content_stream() (body only,
    warc_metadata_sidecar.py:213) and gates soft-404 on status=='200'
    (:263-265).  Returns (body, status); non-HTTP payloads pass through with
    status 200 (resource records / synthetic fixtures have no status line).

    Operates on RAW bytes so the body the detectors see keeps its original
    encoding (an up-front utf-8/replace decode would destroy ISO-8859-1
    bytes, UTF-16 BOMs, and binary image payloads before mime/charset/phash
    ever ran)."""
    if not payload.startswith(b"HTTP/"):
        return payload, 200
    # headers end at the EARLIEST blank line of either convention — probing
    # CRLF first would mis-split an LF-headered payload whose BODY contains
    # a CRLF blank line (dropping the real body as "headers")
    cuts = [(payload.find(sep), sep) for sep in (b"\r\n\r\n", b"\n\n")]
    cuts = [(i, sep) for i, sep in cuts if i >= 0]
    if cuts:
        idx, sep = min(cuts)
        head, body = payload[:idx], payload[idx + len(sep):]
    else:
        head, body = payload, b""
    first = head.split(b"\n", 1)[0].strip()
    parts = first.split()
    status = 200
    if len(parts) > 1 and parts[1][:3].isdigit():
        status = int(parts[1][:3])
    return body, status


def records_to_images(records_ds: "rd.Dataset", *, source_is_warc: bool = True
                      ) -> "rd.Dataset":
    """WARC record rows → extraction input (the reference's record loop
    filters, columnar): F1 keep response/resource, F2 drop ``dns:`` URIs,
    F3 (empty payloads) applied inside extraction; F4 header projection
    keeps WARC-Date as ts14 (+ record/warcinfo ids for header parity).
    HTTP response blocks are split: detectors run on the BODY only and the
    real status gates soft-404 (reference :213, :263-265)."""

    return records_ds.map_batches(_records_to_images_batch,
                                  batch_format="pyarrow", zero_copy_batch=True)


def _records_to_images_batch(batch: pa.Table, *,
                             keep_path: bool = False) -> pa.Table:
    """The ONE implementation of the record filters + HTTP split (used by
    both the single-file and batch CLIs — ``keep_path`` adds the source
    path as the batch mode's ``part`` routing column)."""
    ids, urls, tss, blobs, paths, linenos, rec_ids, winfo_ids, statuses = \
        [], [], [], [], [], [], [], [], []
    for row in batch.to_pylist():
        if row["rec_type"] not in ("response", "resource"):
            continue
        if row["url"].startswith("dns:"):
            continue
        # detectors must see the ORIGINAL payload bytes (charset/mime/phash
        # on a utf-8/replace re-encode would never detect ISO-8859-1, UTF-16
        # or binary formats); the decoded 'payload' is a fallback for rows
        # built without the raw slice (tests, synthetic records)
        raw = row.get("payload_bytes")
        if raw is None:
            raw = row["payload"].encode("utf-8", "replace")
        body, status = _split_http_payload_bytes(raw)
        ids.append(row["url"])
        urls.append(row["url"])
        tss.append(row["ts"])
        blobs.append(body)
        if keep_path:
            paths.append(row["path"])
            linenos.append(row["lineno"])
        rec_ids.append(row["headers"].get("WARC-Record-ID", ""))
        winfo_ids.append(row["headers"].get("WARC-Warcinfo-ID", ""))
        statuses.append(status)
    n = len(ids)
    cols = {
        "image_id": pa.array(ids, pa.string()),
        "url": pa.array(urls, pa.string()),
        "ts": pa.array(tss, pa.string()),
        "bytes": pa.array(blobs, pa.binary()),
        "caption": pa.array([""] * n, pa.string()),
        "concurrent_id": pa.array(rec_ids, pa.string()),
        "warcinfo_id": pa.array(winfo_ids, pa.string()),
        "status": pa.array(statuses, pa.int64()),
    }
    if keep_path:
        cols["part"] = pa.array(paths, pa.string())  # rides through extraction
        cols["lineno"] = pa.array(linenos, pa.int64())  # source order, ditto
    return pa.table(cols)


def cmd_sidecar(archive_dir: str, warc_file: str, operator: str | None = None,
                publisher: str | None = None) -> dict:
    os.makedirs(archive_dir, exist_ok=True)
    import time as _time

    t0 = _time.perf_counter()
    # the reference opens warc_file AS GIVEN (warc_metadata_sidecar.py:192 —
    # CWD-relative); the archive_dir join is a fallback for the common
    # "file lives in the archive dir" call shape
    src = warc_file if os.path.isabs(warc_file) or os.path.exists(warc_file) \
        else os.path.join(archive_dir, warc_file)
    name = os.path.basename(warc_file)
    is_warc = not warc.is_arc_name(name)
    # materialize once: count() + the sidecar write would otherwise each
    # execute the full read+gunzip+record-split lineage (datasets are lazy)
    records = warc.read_warc_text(src, payload="bytes").materialize()
    total_read = records.count()
    sidecar_ds = pipeline.sidecar_dataset(records_to_images(records))
    out_path = os.path.join(archive_dir, warc.sidecar_name(name))
    written = warc.write_sidecar_warc(
        sidecar_ds, out_path, filename=warc.sidecar_name(name),
        operator=operator, publisher=publisher, source_is_warc=is_warc,
        source_name=name)
    # S9 log-sink parity (sidecar.log in the archive dir,
    # warc_metadata_sidecar.py:173-179,295-302): run header, per-run counts,
    # elapsed — appended like the reference's logging.basicConfig file
    with open(os.path.join(archive_dir, "sidecar.log"), "a", encoding="utf-8") as lg:
        lg.write(f"INFO Logging WARC metadata record information for {name}\n")
        lg.write(f"INFO {total_read} records read\n")
        lg.write(f"INFO Meta records written: {written}\n")
        lg.write(f"INFO Elapsed: {_time.perf_counter() - t0:.3f}s\n")
    return {"meta_file_path": out_path, "total_records_read": total_read,
            "records_written": written}


def cmd_sidecar_all(archive_dir: str, operator: str | None = None,
                    publisher: str | None = None) -> dict:
    """Batch mode — the 100 TB shape of the sidecar step: EVERY WARC/ARC in
    the directory through ONE distributed pipeline, one sidecar file per
    source (the reference's one-file-per-invocation CLI, parallelized as
    the sharded-files pattern it implies, SURVEY.md §4.1).

    Records keep their source ``path`` through extraction; a co-partition
    on it routes each file's sidecar rows to one task, which serializes and
    writes that file's sidecar WORKER-SIDE (no driver bottleneck).  Files
    whose sidecar already exists are skipped before any read — the
    resumability unit is the source file."""
    import glob as _glob

    all_files = sorted(
        f for f in _glob.glob(os.path.join(archive_dir, "*"))
        if f.endswith((".warc", ".warc.gz", ".arc", ".arc.gz")))
    todo = [f for f in all_files
            if not os.path.exists(os.path.join(
                archive_dir, warc.sidecar_name(os.path.basename(f))))]
    # x.warc and x.warc.gz share one sidecar name — two concurrent writers
    # of one output path would interleave; keep the first, warn on the rest
    by_out: dict[str, str] = {}
    for f in todo:
        out = warc.sidecar_name(os.path.basename(f))
        if out in by_out:
            import logging as _logging

            _logging.getLogger("sidecar.cli").warning(
                "sidecar-all: %s and %s map to the same sidecar %s; "
                "skipping %s", by_out[out], f, out, f)
        else:
            by_out[out] = f
    todo = list(by_out.values())
    if not todo:
        return {"files": len(all_files), "processed": 0, "skipped": len(all_files)}

    records = warc.read_warc_text(todo, payload="bytes")

    # the shared record filters (incl. HTTP body/status split), with the
    # source path kept as the routing key
    import functools

    sidecar_ds = pipeline.sidecar_dataset(records.map_batches(
        functools.partial(_records_to_images_batch, keep_path=True),
        batch_format="pyarrow", zero_copy_batch=True))

    # Arrow groups, not pandas: pandas converts nullable float/struct cells
    # to NaN, which passes sidecar_row_to_payload's 'is not None' check and
    # emitted literal 'Soft-404-Detected: nan' lines; Arrow to_pylist gives
    # real None, matching the single-file path bit-for-bit.
    def write_one(g: pa.Table) -> pa.Table:
        src = g.column("part")[0].as_py()
        name = os.path.basename(src)
        out_path = os.path.join(archive_dir, warc.sidecar_name(name))
        is_warc = not warc.is_arc_name(name)
        n = 0
        # atomic tmp+rename (same invariant as merge_one): resume treats an
        # existing output as done, so a crash mid-write must not leave a
        # truncated file behind
        tmp = out_path + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(warc.warcinfo_record_text(warc.sidecar_name(name),
                                               operator, publisher,
                                               source_name=name))
            for row in g.drop_columns(["part", "lineno"]).to_pylist():
                if pipeline.sidecar_row_to_payload(row):
                    fh.write(warc.metadata_record_text(
                        row, source_is_warc=is_warc))
                    n += 1
        os.replace(tmp, out_path)
        return pa.table({"path": pa.array([src], pa.string()),
                         "records_written": pa.array([n], pa.int64())})

    def write_files(t: pa.Table) -> pa.Table:
        # one partition holds many files, in no row order: sort by (file,
        # lineno) to restore each file's source record order, then write
        # each file's run of rows
        t = t.sort_by([("part", "ascending"), ("lineno", "ascending")])
        src = t.column("part").to_numpy(zero_copy_only=False)
        ends = np.append(np.flatnonzero(src[1:] != src[:-1]) + 1, len(src))
        return pa.concat_tables([write_one(t.slice(a, b - a))
                                 for a, b in zip(np.r_[0, ends[:-1]], ends)])

    per_file = copartition(sidecar_ds, "part", write_files,
                           batch_format="pyarrow").to_pandas()

    # a source that yields ZERO sidecar rows (only warcinfo/dns/revisit
    # records, or all-empty payloads) produces no group above — write its
    # S4 zero-record warcinfo sidecar here so the output exists (and resume
    # skipping doesn't re-read the file forever)
    done_paths = set(per_file["path"]) if len(per_file) else set()
    zero = 0
    for src in todo:
        if src in done_paths:
            continue
        name = os.path.basename(src)
        out_path = os.path.join(archive_dir, warc.sidecar_name(name))
        warc.write_zero_record_sidecar(out_path,
                                       filename=warc.sidecar_name(name),
                                       operator=operator, publisher=publisher,
                                       source_name=name)
        zero += 1
    return {"files": len(all_files), "processed": len(per_file) + zero,
            "skipped": len(all_files) - len(todo),
            "records_written": int(per_file["records_written"].sum())
            if len(per_file) else 0}


def cmd_cdxj(sidecar_file: str, archive_dir: str) -> dict:
    os.makedirs(archive_dir, exist_ok=True)
    records = warc.read_warc_text(sidecar_file, payload="text")

    def to_lines(batch: pa.Table) -> pa.Table:
        lines = []
        for row in batch.to_pylist():
            if row["rec_type"] == "warcinfo":  # S5 skip (sidecar2cdxj.py:58-59)
                continue
            lines.append(cdxj_line(surt(row["url"]), row["ts"],
                                   payload_to_json(row["payload"])))
        return pa.table({"line": pa.array(lines, pa.string())})

    out_path = os.path.join(archive_dir,
                            warc.cdxj_name_from_sidecar(sidecar_file))
    n = 0
    # golden-file serialization: line order = sidecar record order, so pin
    # preserve_order for exactly this iteration (S6, sidecar2cdxj.py:56-61)
    with open(out_path, "w", encoding="utf-8", newline="") as f, warc.ordered_execution():
        for b in records.map_batches(to_lines, batch_format="pyarrow",
                                     zero_copy_batch=True).iter_batches(
                                         batch_format="pyarrow", batch_size=None):
            for line in b.column("line").to_pylist():
                f.write(line)
                n += 1
    return {"cdxj_path": out_path, "lines": n}


def cmd_cdxj_all(archive_dir: str) -> dict:
    """Batch CDXJ: every sidecar in the directory through one pipeline,
    one ``.cdxj`` per sidecar (same sharded-files plan as sidecar-all;
    finished outputs skipped before any read)."""
    import glob as _glob

    import pandas as pd

    all_files = sorted(_glob.glob(os.path.join(archive_dir, "*.warc.meta.gz")))
    todo = [f for f in all_files
            if not os.path.exists(os.path.join(
                archive_dir, warc.cdxj_name_from_sidecar(f)))]
    if not todo:
        return {"files": len(all_files), "processed": 0, "skipped": len(all_files)}

    records = warc.read_warc_text(todo, payload="text")

    def to_lines(batch: pa.Table) -> pa.Table:
        paths, linenos, lines = [], [], []
        for row in batch.to_pylist():
            if row["rec_type"] == "warcinfo":
                continue
            paths.append(row["path"])
            linenos.append(row["lineno"])
            lines.append(cdxj_line(surt(row["url"]), row["ts"],
                                   payload_to_json(row["payload"])))
        return pa.table({"part": pa.array(paths, pa.string()),
                         "lineno": pa.array(linenos, pa.int64()),
                         "line": pa.array(lines, pa.string())})

    def write_one(g: pd.DataFrame) -> pd.DataFrame:
        # the exchange does not preserve row order — restore sidecar record
        # order so batch output matches cmd_cdxj byte-for-byte
        g = g.sort_values("lineno")
        src = g["part"].iloc[0]
        out_path = os.path.join(archive_dir, warc.cdxj_name_from_sidecar(src))
        # atomic tmp+rename (same invariant as merge_one): resume treats an
        # existing output as done, so a crash mid-write must not leave a
        # truncated file behind
        tmp = out_path + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(g["line"])
        os.replace(tmp, out_path)
        return pd.DataFrame({"path": [src], "lines": [len(g)]})

    def write_files(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([write_one(g) for _, g in df.groupby("part", sort=False)],
                         ignore_index=True)

    per_file = copartition(
        records.map_batches(to_lines, batch_format="pyarrow",
                            zero_copy_batch=True),
        "part", write_files, batch_format="pandas").to_pandas()

    # a sidecar holding only its warcinfo yields no lines, hence no group —
    # write its (empty) cdxj here, matching cmd_cdxj's behavior on the same
    # input, so resume skipping sees the file as done
    done_paths = set(per_file["path"]) if len(per_file) else set()
    zero = 0
    for src in todo:
        if src not in done_paths:
            open(os.path.join(archive_dir,
                              warc.cdxj_name_from_sidecar(src)), "w").close()
            zero += 1
    return {"files": len(all_files), "processed": len(per_file) + zero,
            "skipped": len(all_files) - len(todo),
            "lines": int(per_file["lines"].sum()) if len(per_file) else 0}


def cmd_merge(metadata_cdxj: str, warc_cdxj: str, cdxj_dir: str) -> dict:
    os.makedirs(cdxj_dir, exist_ok=True)
    meta = parse_cdxj_lines(rd.read_text(metadata_cdxj))

    # the original index is read serially on the driver: line ORDER is part
    # of the output contract (merged lines in original-file order), and a
    # parallel read_text cannot assign global line numbers safely; the
    # reference reads this file serially too (merge_cdxj.py:126-130)
    with open(warc_cdxj, encoding="utf-8") as f:
        orig_lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    surts, tss, js = [], [], []
    for ln in orig_lines:
        s, t, j = ln.split(" ", 2)
        surts.append(s)
        tss.append(t)
        js.append(j)
    original = rd.from_arrow(pa.table({
        "surt": pa.array(surts, pa.string()),
        "ts": pa.array(tss, pa.string()),
        "json": pa.array(js, pa.string()),
        "lineno": pa.array(range(len(surts)), pa.int64()),
    }))
    merged = merge_cdxj(meta, original)
    rows = sorted(merged.take_all(), key=lambda r: r["lineno"])
    out_path = os.path.join(cdxj_dir, warc.merged_cdxj_name(warc_cdxj))
    edited = 0
    with open(out_path, "w", encoding="utf-8", newline="") as f:
        for r in rows:
            f.write(cdxj_line(r["surt"], r["ts"], r["json"]))
            edited += int(r["matched"])
    # S9 log-sink parity (cdxj_merge.log, merge_cdxj.py:116-122,134-138)
    with open(os.path.join(cdxj_dir, "cdxj_merge.log"), "a", encoding="utf-8") as lg:
        lg.write(f"INFO Merging {os.path.basename(metadata_cdxj)} into "
                 f"{os.path.basename(warc_cdxj)}\n")
        lg.write(f"INFO Edited: {edited} Non-edited: {len(rows) - edited}\n")
    return {"merged_path": out_path, "edited": edited,
            "non_edited": len(rows) - edited}


def cmd_merge_all(meta_dir: str, warc_cdxj_dir: str, cdxj_dir: str) -> dict:
    """Batch merge — the third lifecycle step's batch twin (sidecar-all /
    cdxj-all / merge-all): every ``<name>.cdxj`` original index in
    ``warc_cdxj_dir`` is enriched with the same-named metadata CDXJ from
    ``meta_dir`` through ONE distributed pipeline, one ``<name>_merged.cdxj``
    per pair (merge_cdxj.py:104-138 semantics per pair; parity-plus — the
    reference is per-file-per-invocation, :141-165).

    Plan: each file reads in its own task (per-file linenos assigned
    serially inside the task — line order is part of the output contract);
    a co-partition on the pair lands its meta+original rows in one task, which
    merges (``cdxj.enrich_json``, quirks intact) and writes that pair's merged
    file WORKER-SIDE, returning counters only.  Pairs whose output exists
    are skipped before any read — the resumability unit is the file pair.
    The per-pair group assumes one file's index fits one task, the same
    bound the reference's in-memory dict has."""
    import glob as _glob

    import pandas as pd

    os.makedirs(cdxj_dir, exist_ok=True)
    pairs: list[tuple[str, str, str]] = []
    for f in sorted(_glob.glob(os.path.join(warc_cdxj_dir, "*.cdxj"))):
        name = os.path.basename(f)
        if name.endswith("_merged.cdxj"):
            continue
        meta = os.path.join(meta_dir, name)
        if os.path.exists(meta) and os.path.abspath(meta) != os.path.abspath(f):
            pairs.append((name, meta, f))
    todo = [p for p in pairs
            if not os.path.exists(os.path.join(cdxj_dir,
                                               warc.merged_cdxj_name(p[2])))]
    if not todo:
        return {"pairs": len(pairs), "processed": 0, "skipped": len(pairs)}

    def read_file(row: dict) -> list[dict]:
        out = []
        with open(row["path"], encoding="utf-8") as fh:
            i = 0
            for ln in fh:
                ln = ln.rstrip("\n")
                if not ln.strip():
                    continue
                s, t, j = ln.split(" ", 2)
                out.append({"pair": row["pair"], "surt": s, "ts": t, "json": j,
                            "lineno": i})
                i += 1
        return out

    def lines(side: int) -> "rd.Dataset":
        """Every line of each todo pair's meta (1) or original (2) file."""
        return rd.from_items([{"pair": p[0], "path": p[side]} for p in todo]) \
            .flat_map(read_file)

    def merge_one(name: str, metas: pd.DataFrame, origs: pd.DataFrame) -> tuple:
        # metas in FILE ORDER so a duplicated (surt, ts) key resolves
        # last-line-wins, matching cmd_merge's ordered dict build
        metas = metas.sort_values("lineno")
        origs = origs.sort_values("lineno")
        build = {cdxj_key(s, t): j for s, t, j in
                 zip(metas["surt"], metas["ts"], metas["json"])}
        out_path = os.path.join(cdxj_dir, warc.merged_cdxj_name(name))
        edited = 0
        # atomic tmp+rename: resume treats an existing output as "pair
        # done", so a crash mid-write must not leave a truncated file
        tmp_path = out_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8", newline="") as fh:
            for s, t, j in zip(origs["surt"], origs["ts"], origs["json"]):
                j, matched = enrich_json(build, cdxj_key(s, t), j)
                edited += matched
                fh.write(cdxj_line(s, t, j))
        os.replace(tmp_path, out_path)
        return name, edited, len(origs) - edited

    def merge_pairs(m: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        # a side with no lines in this partition may have no columns
        none = pd.DataFrame(columns=["surt", "ts", "json", "lineno"])
        metas = dict(tuple(m.groupby("pair", sort=False))) if len(m) else {}
        origs = dict(tuple(o.groupby("pair", sort=False))) if len(o) else {}
        return pd.DataFrame([merge_one(n, metas.get(n, none), origs.get(n, none))
                             for n in {**metas, **origs}],
                            columns=["pair", "edited", "non_edited"])

    per_pair = copartition([lines(1), lines(2)], "pair", merge_pairs,
                           batch_format="pandas").to_pandas()
    if len(per_pair):  # all-blank inputs yield a column-less empty frame
        per_pair = per_pair.sort_values("pair")

    # a pair whose files are both empty yields no group — write the (empty)
    # merged output so resume skipping sees the pair as done
    done = set(per_pair["pair"]) if len(per_pair) else set()
    import pandas as _pd

    extra = []
    for name, _, orig in todo:
        if name not in done:
            open(os.path.join(cdxj_dir, warc.merged_cdxj_name(orig)),
                 "w").close()
            extra.append({"pair": name, "edited": 0, "non_edited": 0})
    if extra:
        per_pair = _pd.concat([per_pair, _pd.DataFrame(extra)],
                              ignore_index=True).sort_values("pair")

    # S9 log-sink parity, one block per pair (merge_cdxj.py:116-122,134-138)
    with open(os.path.join(cdxj_dir, "cdxj_merge.log"), "a", encoding="utf-8") as lg:
        for row in per_pair.itertuples(index=False):
            lg.write(f"INFO Merging {row.pair} into {row.pair}\n")
            lg.write(f"INFO Edited: {row.edited} "
                     f"Non-edited: {row.non_edited}\n")
    return {"pairs": len(pairs), "processed": len(per_pair),
            "skipped": len(pairs) - len(todo),
            "edited": int(per_pair["edited"].sum()),
            "non_edited": int(per_pair["non_edited"].sum())}


def main(argv: list[str] | None = None) -> dict:
    import argparse

    p = argparse.ArgumentParser(prog="sidecar.cli",
                                description="reference-lifecycle CLI on Ray")
    sub = p.add_subparsers(dest="cmd", required=True)
    ps = sub.add_parser("sidecar")
    ps.add_argument("archive_dir")
    ps.add_argument("warc_file")
    ps.add_argument("--operator", default=None)
    ps.add_argument("--publisher", default=None)
    pa_ = sub.add_parser("sidecar-all")
    pa_.add_argument("archive_dir")
    pa_.add_argument("--operator", default=None)
    pa_.add_argument("--publisher", default=None)
    pc = sub.add_parser("cdxj")
    pc.add_argument("sidecar_file")
    pc.add_argument("archive_dir")
    pca = sub.add_parser("cdxj-all")
    pca.add_argument("archive_dir")
    pm = sub.add_parser("merge")
    pm.add_argument("metadata_cdxj")
    pm.add_argument("warc_cdxj")
    pm.add_argument("cdxj_dir")
    pma = sub.add_parser("merge-all")
    pma.add_argument("meta_dir")
    pma.add_argument("warc_cdxj_dir")
    pma.add_argument("cdxj_dir")
    args = p.parse_args(argv)

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False)
    if args.cmd == "sidecar":
        res = cmd_sidecar(args.archive_dir, args.warc_file,
                          args.operator, args.publisher)
    elif args.cmd == "sidecar-all":
        res = cmd_sidecar_all(args.archive_dir, args.operator, args.publisher)
    elif args.cmd == "cdxj-all":
        res = cmd_cdxj_all(args.archive_dir)
    elif args.cmd == "cdxj":
        res = cmd_cdxj(args.sidecar_file, args.archive_dir)
    elif args.cmd == "merge-all":
        res = cmd_merge_all(args.meta_dir, args.warc_cdxj_dir, args.cdxj_dir)
    else:
        res = cmd_merge(args.metadata_cdxj, args.warc_cdxj, args.cdxj_dir)
    print(json.dumps(res))
    return res


if __name__ == "__main__":
    main()
