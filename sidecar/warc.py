"""WARC-text conformance source/sink (S1/S2 in SURVEY.md §2.1).

The engine's data plane is Arrow tables; WARC text exists for conformance
with the reference's file format (warc_metadata_sidecar.py:199-203,278-283:
a warcinfo record followed by one ``metadata`` record per input record).
This module serializes SIDECAR rows to that text form and reads it back,
one whole file at a time (``read_records``; WARC has no internal split
points without an index, same constraint the reference's ArchiveIterator
has).

No code is shared with warcio; the format is implemented from the WARC/1.0
structure the reference's goldens exhibit: header block of ``Name: value``
lines, blank line, payload of Content-Length bytes, two blank lines.
"""

from __future__ import annotations

import gzip
import os

import numpy as np

from sidecar.pipeline import create_warcinfo_payload

_CRLF = "\r\n"


def _record_text(headers: list[tuple[str, str]], payload: str) -> str:
    body = payload.encode()
    head = _CRLF.join(f"{k}: {v}" for k, v in headers)
    return (f"WARC/1.0{_CRLF}{head}{_CRLF}"
            f"Content-Length: {len(body)}{_CRLF}{_CRLF}"
            f"{payload}{_CRLF}{_CRLF}")


def warcinfo_record_text(filename: str, operator: str | None = None,
                         publisher: str | None = None,
                         source_name: str | None = None, *,
                         zero_records: bool = False) -> str:
    """The warcinfo record: the payload's description names the SOURCE
    archive (reference: create_warcinfo_payload(new_file=basename(warc_file)),
    warc_metadata_sidecar.py:182,200) while WARC-Filename carries the
    sidecar's own name (:202 create_warcinfo_record(meta_file, ...)).

    ``zero_records`` gives the S4 zero-record sidecar's warcinfo: the
    '0 metadata sidecar records' marker appended to the description (the
    reference rewrites the file this way when nothing was extracted)."""
    info = create_warcinfo_payload(source_name or filename, operator, publisher)
    if zero_records:
        info["description"] += "; 0 metadata sidecar records"
    payload = "".join(f"{k}: {v}\r\n" for k, v in info.items())
    headers = [("WARC-Type", "warcinfo"),
               ("WARC-Filename", filename),
               ("Content-Type", "application/warc-fields")]
    return _record_text(headers, payload)


def metadata_record_text(row: dict, payload: str, *,
                         source_is_warc: bool = True) -> str:
    """One sidecar WARC ``metadata`` record (reference :278-283 shape) with
    ``payload``, the row's ``pipeline.sidecar_row_to_payload`` text.

    Header parity with the reference's F4 projection (:217-228): a
    WARC-sourced record carries ``WARC-Concurrent-ID`` (the source record's
    id — here derived deterministically from url+ts, since our records are
    born synthetic) and, when known, ``WARC-Warcinfo-ID``; an ARC-sourced
    record carries only ``WARC-Date`` extras (tests assert the absence,
    reference tests :188-197).
    """
    import hashlib as _hashlib

    ts = row.get("ts") or "20210101000000"
    iso = (f"{ts[0:4]}-{ts[4:6]}-{ts[6:8]}T{ts[8:10]}:{ts[10:12]}:{ts[12:14]}Z"
           if len(ts) == 14 else ts)
    headers = [("WARC-Type", "metadata"),
               ("WARC-Target-URI", row.get("url") or ""),
               ("WARC-Date", iso)]
    if source_is_warc:
        rec_hash = _hashlib.blake2b(
            f"{row.get('url')}|{ts}".encode(), digest_size=16).hexdigest()
        concurrent = row.get("concurrent_id") or f"<urn:uuid:{rec_hash}>"
        headers.append(("WARC-Concurrent-ID", concurrent))
        # per-record id from the source (reference copies the source
        # record's own WARC-Warcinfo-ID, :224-225)
        winfo = row.get("warcinfo_id")
        if winfo:
            headers.append(("WARC-Warcinfo-ID", winfo))
    headers.append(("Content-Type", "application/warc-fields"))
    return _record_text(headers, payload)


def _lf_payload_end(data: bytes, body_start: int, ln: int) -> int:
    """Best-effort payload end for LF-NORMALIZED input: Content-Length
    counted the original CRLF line endings (2 bytes) that the normalization
    collapsed to LF (1 byte), so each b'\\n' in the payload region counts as
    2 toward the declared length."""
    region = np.frombuffer(data, dtype=np.uint8, count=min(ln, len(data) - body_start),
                           offset=body_start)
    eff = np.arange(1, len(region) + 1) + np.cumsum(region == 0x0A)
    stop = int(np.searchsorted(eff, ln, side="left"))
    return body_start + min(stop + 1, len(region)) if len(region) else body_start


def parse_warc_bytes(data: bytes, *, payload: str = "both") -> list[dict]:
    """Split WARC bytes into records: {rec_type, url, ts14, headers, payload,
    payload_bytes}.  Boundary = 'WARC/1.0' at line start after a blank
    region; payload sliced by Content-Length in BYTES (the WARC contract — a
    character-count slice corrupts multibyte payloads and can swallow the
    next record).  ``payload_bytes`` carries the RAW slice for the detectors
    (charset/mime/image sniffing must see original bytes — a utf-8/replace
    decode destroys ISO-8859-1 bytes and UTF-16 BOMs); ``payload`` (the key)
    is the utf-8/replace decode for text consumers (CDXJ warc-fields
    parsing).  ``payload`` (the kwarg) selects which representation(s) to
    BUILD — ``"bytes"`` skips the replace-decode entirely, which on binary
    payloads (images, gzip bodies) is pure wasted CPU plus a transient str
    up to ~3x the payload size per record.
    LF-normalized input (a text-mode read translated CRLF) is handled
    best-effort by counting each payload newline as the 2 bytes it was."""
    want_text, want_bytes = payload != "bytes", payload != "text"
    out = []
    i = 0
    while True:
        start = data.find(b"WARC/1.0", i)
        if start < 0:
            break
        # per-RECORD delimiter sniff from the version line's own ending: a
        # global "does \r\n\r\n appear anywhere" probe would mis-frame an
        # LF-framed file whose PAYLOAD body contains a CRLF blank line (the
        # header-block search would land deep inside the first payload)
        nl = data.find(b"\n", start)
        if nl < 0:
            break
        delim = b"\r\n" if data[nl - 1:nl] == b"\r" else b"\n"
        head_end = data.find(delim + delim, start)
        if head_end < 0:
            break
        headers: dict[str, str] = {}
        for line in data[start:head_end].split(delim)[1:]:
            if b": " in line:
                k, v = line.split(b": ", 1)
                headers[k.decode("utf-8", "replace")] = v.decode("utf-8", "replace")
        ln = int(headers.get("Content-Length", "0"))
        body_start = head_end + 2 * len(delim)
        if delim == b"\n" and ln:
            body_end = _lf_payload_end(data, body_start, ln)
        else:
            body_end = body_start + ln
        raw_payload = data[body_start:body_end]
        date = headers.get("WARC-Date", "")
        ts14 = "".join(c for c in date if c.isdigit())[:14]
        rec = {
            "rec_type": headers.get("WARC-Type", ""),
            "url": headers.get("WARC-Target-URI", ""),
            "ts": ts14,
            "headers": headers,
        }
        if want_text:
            rec["payload"] = raw_payload.decode("utf-8", "replace")
        if want_bytes:
            rec["payload_bytes"] = raw_payload
        out.append(rec)
        i = body_end
    return out


def parse_warc_text(text: str) -> list[dict]:
    """String-input convenience wrapper over :func:`parse_warc_bytes`."""
    return parse_warc_bytes(text.encode("utf-8"))


def parse_arc_bytes(data: bytes, *, payload: str = "both") -> list[dict]:
    """S1's ``arc2warc=True`` analog: split ARC v1 bytes into WARC-shaped
    record dicts.  ARC v1 layout: a ``filedesc://`` version block first,
    then per record one header line ``<url> <ip> <YYYYMMDDhhmmss> <mime>
    <length>`` followed by exactly ``length`` payload BYTES (character
    slicing would corrupt multibyte payloads).  Records are emitted as
    ``rec_type='response'`` (the rewrite the reference's ArchiveIterator
    does on the fly, warc_metadata_sidecar.py:205); the filedesc block maps
    to ``rec_type='warcinfo'`` so downstream filters behave identically on
    both formats.

    Robustness: ARC URLs are not guaranteed space-free, so the header is
    parsed from the RIGHT (last four fields are ip/date/mime/length; the
    url is whatever precedes them).  A header whose length or date field
    does not validate is logged and skipped to the next blank-line
    boundary instead of silently truncating the rest of the archive."""
    import logging

    want_text, want_bytes = payload != "bytes", payload != "text"
    out = []
    malformed = 0
    i = 0
    n = len(data)
    while i < n:
        # skip blank separation
        while i < n and data[i] in (0x0D, 0x0A):
            i += 1
        if i >= n:
            break
        line_end = data.find(b"\n", i)
        if line_end < 0:
            break
        header = data[i:line_end].rstrip(b"\r").decode("utf-8", "replace")
        parts = header.split(" ")
        ok = (len(parts) >= 5 and parts[-1].isdigit()
              and parts[-3].isdigit() and len(parts[-3]) >= 8)
        if not ok:
            malformed += 1
            # resync at the next blank line of EITHER convention — a CRLF
            # file contains no b"\n\n", and searching only for it would
            # silently drop every record after one bad header
            cuts = [(data.find(sep, line_end), sep)
                    for sep in (b"\r\n\r\n", b"\n\n")]
            cuts = [(j, sep) for j, sep in cuts if j >= 0]
            if not cuts:
                break
            nxt, sep = min(cuts)
            i = nxt + len(sep)
            continue
        url = " ".join(parts[:-4])
        ts, ln = parts[-3], int(parts[-1])
        body_start = line_end + 1
        raw_payload = data[body_start : body_start + ln]
        rec = {
            "rec_type": "warcinfo" if url.startswith("filedesc://") else "response",
            "url": url,
            "ts": "".join(c for c in ts if c.isdigit())[:14],
            "headers": {"ARC-Header": header},
        }
        if want_text:
            rec["payload"] = raw_payload.decode("utf-8", "replace")
        if want_bytes:
            rec["payload_bytes"] = raw_payload
        out.append(rec)
        i = body_start + ln
    if malformed:
        logging.getLogger("sidecar.warc").warning(
            "parse_arc_bytes: skipped %d malformed ARC header(s)", malformed)
    return out


def parse_arc_text(text: str) -> list[dict]:
    """String-input convenience wrapper over :func:`parse_arc_bytes`."""
    return parse_arc_bytes(text.encode("utf-8"))


def read_records(path: str, payload: str = "both") -> list[dict]:
    """One WARC or ARC file → its records, in source order.

    The bytes are read whole and compression comes from MAGIC BYTES, not
    the filename: the reference corpus has a '.gz'-named sidecar that is
    actually uncompressed (its own tests note this), our writer reproduces
    that quirk, and extension-based inference fails on exactly those files.
    ``payload`` reaches the parser, so the unwanted representation is never
    BUILT (the replace-decode of a binary payload is pure wasted CPU plus a
    transient ~3x str)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":  # actual gzip content
        raw = gzip.decompress(raw)
    # ARC-vs-WARC by CONTENT (an ARC file opens with its filedesc://
    # version block) — complements the filename sniff (is_arc_name);
    # parsing stays at the BYTE level so Content-Length slices exactly
    parse = parse_arc_bytes if raw.lstrip().startswith(b"filedesc://") \
        else parse_warc_bytes
    return parse(raw, payload=payload)


# ---------------------------------------------------------------------------
# Output-path derivation conventions (S3/S8 in SURVEY.md §2.1) — the
# reference's filename rules, re-implemented as pure functions.
# ---------------------------------------------------------------------------

import re


def sidecar_name(archive_name: str) -> str:
    """``x.warc(.gz)`` / ``x.arc(.gz)`` → ``x.warc.meta.gz``
    (warc_metadata_sidecar.py:183 semantics)."""
    return re.sub(r"w?arc(\.gz)?$", "warc.meta.gz", archive_name)


def cdxj_name_from_sidecar(sidecar_file: str) -> str:
    """``x.warc.meta.gz`` → ``x.cdxj`` — quirk-for-quirk with
    sidecar2cdxj.py:14's ``re.sub('warc.meta.gz', 'cdxj', ...)``: the
    pattern is UNANCHORED (a name like ``x.warc.meta.gz.open`` still
    converts, so the output never collides with the input) and its dots are
    regex-any, exactly as the reference wrote it."""
    base = os.path.basename(sidecar_file)
    return re.sub(r"warc.meta.gz", "cdxj", base)


def merged_cdxj_name(warc_cdxj: str) -> str:
    """``x.cdxj`` → ``x_merged.cdxj`` (merge_cdxj.py:96-101 semantics)."""
    base = os.path.basename(warc_cdxj)
    return re.sub(r"\.cdxj$", "_merged.cdxj", base)


def is_arc_name(archive_name: str) -> bool:
    """ARC-vs-WARC filename sniff: the reference's exact pattern
    ``.*\\.arc(\\.gz)?$`` (warc_metadata_sidecar.py:35,186-189) — a literal
    ``.arc`` extension is required, so ``foo.marc`` is WARC-processed."""
    return bool(re.match(r".*\.arc(\.gz)?$", archive_name))
