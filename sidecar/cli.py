"""Command-line parity with the reference's three user-facing tools, on
Ray:

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

plus ``sidecar-all``, ``cdxj-all`` and ``merge-all``, the same steps over
every file (or file pair) of a directory.

The file is the unit of work, as in the reference's per-file lifecycle:
``sidecar_file``, ``cdxj_file`` and ``merge_file`` each do one step for one
file in source order (read, parse, extract if needed, write with an atomic
tmp+rename) and return one counters row.  Every command runs them as one
Ray task per file; the driver only finds the files, skips finished
outputs, sums the counters and writes the log.  Only this CLI owns a Ray
session (guarded init, like sidecar.crawl).
"""

from __future__ import annotations

import gzip
import json
import logging
import os
import time

import pyarrow as pa

import ray

from sidecar import pipeline, warc
from sidecar.canon import cdxj_key, surt
from sidecar.cdxj import cdxj_line, enrich_json, payload_to_json
from sidecar.detect import protocol as proto

# rows per extractor call inside a sidecar task: small, because rows carry
# payloads (the memory bound ``pipeline.sidecar_dataset`` uses)
EXTRACT_ROWS = 1024
# the extracted columns a metadata record reads: its payload's
# (``pipeline.sidecar_row_to_payload``) and its headers'
# (``warc.metadata_record_text``); only these are converted to Python
RECORD_COLS = ("mime_fido", "mime_magic", "puid", "charset", "languages",
               "soft404", "url", "ts", "concurrent_id", "warcinfo_id")


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


def records_to_images(records: list[dict]) -> pa.Table:
    """WARC record dicts → extraction input (the reference's record loop
    filters, columnar): F1 keep response/resource, F2 drop ``dns:`` URIs,
    F3 (empty payloads) applied inside extraction; F4 header projection
    keeps WARC-Date as ts14 (+ record/warcinfo ids for header parity).
    HTTP response blocks are split: detectors run on the BODY only (the
    ORIGINAL bytes — charset/mime/phash on a utf-8/replace re-encode would
    never detect ISO-8859-1, UTF-16 or binary formats) and the real status
    gates soft-404 (reference :213, :263-265)."""
    urls, tss, blobs, rec_ids, winfo_ids, statuses = [], [], [], [], [], []
    for rec in records:
        if rec["rec_type"] not in ("response", "resource"):
            continue
        if rec["url"].startswith("dns:"):
            continue
        body, status = _split_http_payload_bytes(rec["payload_bytes"])
        urls.append(rec["url"])
        tss.append(rec["ts"])
        blobs.append(body)
        rec_ids.append(rec["headers"].get("WARC-Record-ID", ""))
        winfo_ids.append(rec["headers"].get("WARC-Warcinfo-ID", ""))
        statuses.append(status)
    return pa.table({
        "image_id": pa.array(urls, pa.string()),
        "url": pa.array(urls, pa.string()),
        "ts": pa.array(tss, pa.string()),
        "bytes": pa.array(blobs, pa.binary()),
        "caption": pa.array([""] * len(urls), pa.string()),
        "concurrent_id": pa.array(rec_ids, pa.string()),
        "warcinfo_id": pa.array(winfo_ids, pa.string()),
        "status": pa.array(statuses, pa.int64()),
    })


def _write_atomic(path: str, chunks, *, compress: bool = False) -> None:
    """Write text ``chunks`` to ``path`` through a tmp file and a rename:
    resume treats an existing output as done, so a crash mid-write must not
    leave a truncated file behind.  utf-8, because a WARC Content-Length
    counts UTF-8 BYTES; newline="" keeps the explicit CRLF framing.
    ``compress=True`` writes actual gzip (the reference's WARCWriter
    gzip=True); the default plain text under a .gz name reproduces the
    reference corpus quirk, and ``warc.read_records`` sniffs magic bytes, so
    both forms round-trip."""
    tmp = path + ".tmp"
    opener = gzip.open if compress else open
    with opener(tmp, "wt", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def sidecar_file(src: str, out_path: str, operator: str | None = None,
                 publisher: str | None = None, registry=None, *,
                 compress: bool = False) -> dict:
    """The sidecar step for one WARC/ARC file: its warcinfo, then one
    ``metadata`` record per extracted row with a non-empty payload, in
    source order (the reference's :270-271 skip rule).  A source with no
    such row gets the S4 zero-record sidecar.  ``registry`` is the
    detector registry snapshot the driver ships (None = this process's)."""
    name = os.path.basename(src)
    is_warc = not warc.is_arc_name(name)
    records = warc.read_records(src, "bytes")
    n_read, images = len(records), records_to_images(records)
    del records  # its payloads are copied into ``images``
    filename = os.path.basename(out_path)
    texts = [warc.warcinfo_record_text(filename, operator, publisher,
                                       source_name=name)]
    for lo in range(0, images.num_rows, EXTRACT_ROWS):
        extracted = pipeline.extract_sidecar_batch(
            images.slice(lo, EXTRACT_ROWS), registry)
        cols = [c for c in RECORD_COLS if c in extracted.column_names]
        for row in extracted.select(cols).to_pylist():
            payload = pipeline.sidecar_row_to_payload(row)
            if payload:
                texts.append(warc.metadata_record_text(
                    row, payload, source_is_warc=is_warc))
    written = len(texts) - 1
    if not written:
        texts = [warc.warcinfo_record_text(filename, operator, publisher,
                                           source_name=name, zero_records=True)]
    _write_atomic(out_path, texts, compress=compress)
    return {"records_read": n_read, "records_written": written}


def cdxj_file(sidecar_path: str, out_path: str) -> dict:
    """The CDXJ step for one sidecar: one SURT-keyed line per record, in
    sidecar record order, warcinfo skipped (S5/S6, sidecar2cdxj.py:56-61).
    A sidecar holding only its warcinfo gets an empty ``.cdxj``."""
    lines = [cdxj_line(surt(r["url"]), r["ts"], payload_to_json(r["payload"]))
             for r in warc.read_records(sidecar_path, "text")
             if r["rec_type"] != "warcinfo"]
    _write_atomic(out_path, lines)
    return {"lines": len(lines)}


def _cdxj_fields(path: str) -> list[list[str]]:
    """(surt, ts, json) of each non-blank line of a CDXJ file, in file
    order (F14)."""
    with open(path, encoding="utf-8") as fh:
        return [ln.rstrip("\n").split(" ", 2) for ln in fh if ln.strip()]


def merge_file(meta_path: str, orig_path: str, out_path: str) -> dict:
    """The merge step for one pair (merge_cdxj.py:59-93 semantics, quirks
    intact via ``cdxj.enrich_json``): every line of the original index in
    its own order, enriched from the metadata CDXJ.  The metadata lines
    build a dict in file order, so a duplicated (surt, ts) key resolves
    last-line-wins, like the reference's dict; one pair's index fits one
    task, the same bound the reference's in-memory dict has."""
    build = {cdxj_key(s, t): j for s, t, j in _cdxj_fields(meta_path)}
    lines, edited = [], 0
    for s, t, j in _cdxj_fields(orig_path):
        j, matched = enrich_json(build, cdxj_key(s, t), j)
        edited += matched
        lines.append(cdxj_line(s, t, j))
    _write_atomic(out_path, lines)
    return {"edited": edited, "non_edited": len(lines) - edited}


def _per_file(fn, calls: list[tuple]) -> list[dict]:
    """``fn(*args)`` for each entry of ``calls``, one Ray task each; the
    counters rows in ``calls`` order."""
    task = ray.remote(fn)
    return ray.get([task.remote(*args) for args in calls])


def cmd_sidecar(archive_dir: str, warc_file: str, operator: str | None = None,
                publisher: str | None = None) -> dict:
    os.makedirs(archive_dir, exist_ok=True)
    t0 = time.perf_counter()
    # the reference opens warc_file AS GIVEN (warc_metadata_sidecar.py:192 —
    # CWD-relative); the archive_dir join is a fallback for the common
    # "file lives in the archive dir" call shape
    src = warc_file if os.path.isabs(warc_file) or os.path.exists(warc_file) \
        else os.path.join(archive_dir, warc_file)
    name = os.path.basename(warc_file)
    out_path = os.path.join(archive_dir, warc.sidecar_name(name))
    [row] = _per_file(sidecar_file, [(src, out_path, operator, publisher,
                                      proto.snapshot())])
    # S9 log-sink parity (sidecar.log in the archive dir,
    # warc_metadata_sidecar.py:173-179,295-302): run header, per-run counts,
    # elapsed — appended like the reference's logging.basicConfig file
    with open(os.path.join(archive_dir, "sidecar.log"), "a", encoding="utf-8") as lg:
        lg.write(f"INFO Logging WARC metadata record information for {name}\n")
        lg.write(f"INFO {row['records_read']} records read\n")
        lg.write(f"INFO Meta records written: {row['records_written']}\n")
        lg.write(f"INFO Elapsed: {time.perf_counter() - t0:.3f}s\n")
    return {"meta_file_path": out_path, "total_records_read": row["records_read"],
            "records_written": row["records_written"]}


def cmd_sidecar_all(archive_dir: str, operator: str | None = None,
                    publisher: str | None = None) -> dict:
    """Batch mode: one sidecar per WARC/ARC in the directory, one Ray task
    per file (the reference's one-file-per-invocation CLI, parallelized as
    the sharded-files pattern it implies, SURVEY.md §4.1).  Files whose
    sidecar already exists are skipped before any read — the resumability
    unit is the source file."""
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
            logging.getLogger("sidecar.cli").warning(
                "sidecar-all: %s and %s map to the same sidecar %s; "
                "skipping %s", by_out[out], f, out, f)
        else:
            by_out[out] = f
    if not by_out:
        return {"files": len(all_files), "processed": 0, "skipped": len(all_files)}
    reg = proto.snapshot()  # ship the DRIVER's registry to the workers
    rows = _per_file(sidecar_file, [
        (f, os.path.join(archive_dir, out), operator, publisher, reg)
        for out, f in by_out.items()])
    return {"files": len(all_files), "processed": len(rows),
            "skipped": len(all_files) - len(rows),
            "records_written": sum(r["records_written"] for r in rows)}


def cmd_cdxj(sidecar_file: str, archive_dir: str) -> dict:
    os.makedirs(archive_dir, exist_ok=True)
    out_path = os.path.join(archive_dir,
                            warc.cdxj_name_from_sidecar(sidecar_file))
    [row] = _per_file(cdxj_file, [(sidecar_file, out_path)])
    return {"cdxj_path": out_path, "lines": row["lines"]}


def cmd_cdxj_all(archive_dir: str) -> dict:
    """Batch CDXJ: one ``.cdxj`` per sidecar in the directory, one Ray task
    per sidecar; finished outputs are skipped before any read."""
    import glob as _glob

    all_files = sorted(_glob.glob(os.path.join(archive_dir, "*.warc.meta.gz")))
    todo = [(f, os.path.join(archive_dir, warc.cdxj_name_from_sidecar(f)))
            for f in all_files]
    todo = [(f, out) for f, out in todo if not os.path.exists(out)]
    if not todo:
        return {"files": len(all_files), "processed": 0, "skipped": len(all_files)}
    rows = _per_file(cdxj_file, todo)
    return {"files": len(all_files), "processed": len(rows),
            "skipped": len(all_files) - len(rows),
            "lines": sum(r["lines"] for r in rows)}


def _log_merges(cdxj_dir: str, merges: list[tuple[str, str, dict]]) -> None:
    """S9 log-sink parity (cdxj_merge.log, merge_cdxj.py:116-122,134-138):
    one block per (metadata name, original name, counters row)."""
    with open(os.path.join(cdxj_dir, "cdxj_merge.log"), "a", encoding="utf-8") as lg:
        for meta, orig, row in merges:
            lg.write(f"INFO Merging {meta} into {orig}\n")
            lg.write(f"INFO Edited: {row['edited']} "
                     f"Non-edited: {row['non_edited']}\n")


def cmd_merge(metadata_cdxj: str, warc_cdxj: str, cdxj_dir: str) -> dict:
    os.makedirs(cdxj_dir, exist_ok=True)
    out_path = os.path.join(cdxj_dir, warc.merged_cdxj_name(warc_cdxj))
    [row] = _per_file(merge_file, [(metadata_cdxj, warc_cdxj, out_path)])
    _log_merges(cdxj_dir, [(os.path.basename(metadata_cdxj),
                            os.path.basename(warc_cdxj), row)])
    return {"merged_path": out_path, **row}


def cmd_merge_all(meta_dir: str, warc_cdxj_dir: str, cdxj_dir: str) -> dict:
    """Batch merge: every ``<name>.cdxj`` original index in
    ``warc_cdxj_dir`` is enriched with the same-named metadata CDXJ from
    ``meta_dir``, one ``<name>_merged.cdxj`` per pair, one Ray task per
    pair (merge_cdxj.py:104-138 semantics per pair; parity-plus — the
    reference is per-file-per-invocation, :141-165).  Pairs whose output
    exists are skipped before any read — the resumability unit is the file
    pair."""
    import glob as _glob

    os.makedirs(cdxj_dir, exist_ok=True)
    pairs: list[tuple[str, str, str]] = []
    for f in sorted(_glob.glob(os.path.join(warc_cdxj_dir, "*.cdxj"))):
        name = os.path.basename(f)
        if name.endswith("_merged.cdxj"):
            continue
        meta = os.path.join(meta_dir, name)
        if os.path.exists(meta) and os.path.abspath(meta) != os.path.abspath(f):
            pairs.append((name, meta, f))
    todo = [(name, meta, orig, os.path.join(cdxj_dir, warc.merged_cdxj_name(orig)))
            for name, meta, orig in pairs]
    todo = [t for t in todo if not os.path.exists(t[3])]
    if not todo:
        return {"pairs": len(pairs), "processed": 0, "skipped": len(pairs)}
    rows = _per_file(merge_file, [t[1:] for t in todo])
    _log_merges(cdxj_dir, [(t[0], t[0], row) for t, row in zip(todo, rows)])
    return {"pairs": len(pairs), "processed": len(rows),
            "skipped": len(pairs) - len(rows),
            "edited": sum(r["edited"] for r in rows),
            "non_edited": sum(r["non_edited"] for r in rows)}


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
