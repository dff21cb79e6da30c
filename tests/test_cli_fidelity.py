"""Round-5 review regressions: byte-fidelity of the WARC/CDXJ lifecycle.

Covers the whole-file review findings on the parse/serialize path:
  - raw payload bytes must reach the detectors (no utf-8/replace mangling)
  - per-record delimiter sniff (LF-framed file with CRLF inside a payload)
  - batch mode must write real None (not pandas NaN) and source record order
  - payload_to_json must accept CRLF-joined warc-fields payloads
  - HTML mime signatures are case-insensitive (reference fido/libmagic are)
  - language-ID's mask prefilter must not change masked-in results
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from sidecar import cli, warc


def _resp_bytes(url: str, body: bytes,
                date: str = "2021-03-01T10:00:00Z") -> bytes:
    head = (f"WARC/1.0\r\nWARC-Type: response\r\nWARC-Target-URI: {url}\r\n"
            f"WARC-Date: {date}\r\nContent-Length: {len(body)}\r\n\r\n").encode()
    return head + body + b"\r\n\r\n"


class TestRawPayloadBytes:
    def test_parse_keeps_raw_bytes(self):
        body = "café au lait".encode("latin-1")
        recs = warc.parse_warc_bytes(_resp_bytes("http://x/a", body))
        assert recs[0]["payload_bytes"] == body            # raw, undamaged
        assert "caf" in recs[0]["payload"]                  # decoded twin

    def test_latin1_and_utf16_detected_through_cli(self, tmp_path):
        latin = "café au lait plain text page with words".encode("latin-1")
        utf16 = "hello utf sixteen page".encode("utf-16")   # BOM-LE prefixed
        data = (warc.warcinfo_record_text("src.warc").encode()
                + _resp_bytes("http://x/latin", latin)
                + _resp_bytes("http://x/utf16", utf16))
        (tmp_path / "src.warc").write_bytes(data)
        s = cli.cmd_sidecar(str(tmp_path), "src.warc")
        assert s["records_written"] == 2
        meta = open(s["meta_file_path"], encoding="utf-8").read()
        # pre-fix both payloads were re-encoded to valid UTF-8 before the
        # detectors ran, making these encodings unreachable from a WARC file
        assert "ISO-8859-1" in meta
        assert "UTF-16" in meta


def test_lf_framed_warc_with_crlf_inside_payload():
    """An LF-framed (text-normalized) WARC whose PAYLOAD contains a CRLF
    blank line: the old global delimiter sniff picked CRLF and mis-framed
    every record; the per-record sniff reads the version line's own ending."""
    body = b"a\r\n\r\nb"
    # LF-normalized Content-Length convention: each \n counts as the 2
    # bytes the normalization collapsed (see _lf_payload_end)
    ln = len(body) + body.count(b"\n")
    rec1 = (b"WARC/1.0\nWARC-Type: response\n"
            b"WARC-Target-URI: http://x/1\n"
            b"WARC-Date: 2021-03-01T10:00:00Z\n"
            b"Content-Length: %d\n\n" % ln) + body + b"\n\n"
    rec2 = (b"WARC/1.0\nWARC-Type: response\n"
            b"WARC-Target-URI: http://x/2\n"
            b"WARC-Date: 2021-03-01T11:00:00Z\n"
            b"Content-Length: 2\n\nhi\n\n")
    recs = warc.parse_warc_bytes(rec1 + rec2)
    assert [r["url"] for r in recs] == ["http://x/1", "http://x/2"]
    assert recs[0]["payload"] == "a\r\n\r\nb"
    assert recs[1]["payload"] == "hi"


class TestBatchSingleFileParity:
    def _write_src(self, path):
        html = b"<!DOCTYPE html><html><body>the page about cats and dogs" \
               b" in the garden and the house</body></html>"
        text = b"plain text content with several simple words here listed"
        data = (warc.warcinfo_record_text("src.warc").encode()
                + _resp_bytes("https://example.com/a", html)
                + _resp_bytes("https://example.com/b", text)
                + _resp_bytes("https://example.com/c", b"{ \"k\": 1 }"))
        path.write_bytes(data)

    def test_batch_output_matches_single_file_bytes(self, tmp_path):
        """Same source through cmd_sidecar and cmd_sidecar_all must produce
        byte-identical sidecars (the batch path previously emitted
        'Soft-404-Detected: nan' via pandas NaN and unordered group rows),
        and the same must hold one step later for cmd_cdxj vs cmd_cdxj_all."""
        a, b = tmp_path / "single", tmp_path / "batch"
        a.mkdir(), b.mkdir()
        self._write_src(a / "src.warc")
        self._write_src(b / "src.warc")

        cli.cmd_sidecar(str(a), "src.warc")
        rb = cli.cmd_sidecar_all(str(b))
        assert rb["processed"] == 1
        out_a = (a / "src.warc.meta.gz").read_bytes()
        out_b = (b / "src.warc.meta.gz").read_bytes()
        assert b"nan" not in out_b.lower().replace(b"not found", b"")
        assert out_a == out_b

        cli.cmd_cdxj(str(a / "src.warc.meta.gz"), str(a))
        rc = cli.cmd_cdxj_all(str(b))
        assert rc["processed"] == 1
        assert (a / "src.cdxj").read_bytes() == (b / "src.cdxj").read_bytes()


def test_payload_to_json_crlf_lines():
    crlf = ('Identified-Payload-Type: {"fido": "text/html"}\r\n'
            "Preservation-Identifier: fmt/471\r\n")
    import json

    d = json.loads(cli.payload_to_json(crlf))
    assert d["Preservation-Identifier"] == "fmt/471"   # no trailing \r
    assert d["Identified-Payload-Type"] == {"fido": "text/html"}


def test_html_signatures_case_insensitive():
    from sidecar.detect.mime import sniff

    mime, puid = sniff(b"<!doctype html><html><body>x</body></html>")
    assert puid == "fmt/471" and mime["fido"] == "text/html"
    mime, puid = sniff(b"<HTML><BODY>x</BODY></HTML>")
    assert puid == "fmt/96" and mime["python-magic"] == "text/html"
    # the XML declaration stays case-SENSITIVE (lowercase per spec)
    mime, puid = sniff(b"<?XML version=\"1.0\"?><a/>")
    assert mime.get("python-magic") == "text/plain" and puid is None


def test_language_mask_prefilter_equivalence():
    from sidecar.detect.language import find_language_batch

    texts = pa.array([
        "the and of to a in is it that was for on are with",
        "el la de que y en un una ser se no haber por con su",
        "der die und in den von zu das mit sich des auf",
        "",
    ], type=pa.string())
    mask = np.array([True, False, True, True])
    masked = find_language_batch(texts, mask=mask)
    full = find_language_batch(texts)
    for i in range(len(texts)):
        if mask[i]:
            assert masked[i] == full[i]
        else:
            assert masked[i] is None


def test_read_records_payload_pruning(tmp_path):
    """The payload= knob prunes at the read: each mode's records carry
    exactly the requested payload representation (the payload column
    dominates record size at scale, so both-by-default in the hot CLI
    paths would double every downstream block)."""
    data = (warc.warcinfo_record_text("src.warc").encode()
            + _resp_bytes("http://x/a", b"hello payload"))
    p = tmp_path / "src.warc"
    p.write_bytes(data)
    both = warc.read_records(str(p))
    assert {"payload", "payload_bytes"} <= set(both[0])
    only_b = warc.read_records(str(p), payload="bytes")
    assert "payload" not in only_b[0] and only_b[1]["payload_bytes"] == b"hello payload"
    only_t = warc.read_records(str(p), payload="text")
    assert "payload_bytes" not in only_t[0] and only_t[1]["payload"] == "hello payload"


def test_mixed_framing_warc_file():
    """One file holding a CRLF-framed record FOLLOWED by an LF-framed one
    (e.g. a concatenation of a spec-conformant archive with a text-mode-
    normalized one): the per-record delimiter sniff frames each record by
    its own version-line ending, where any whole-file probe must get one of
    the two wrong."""
    crlf_body = b"spec-conformant payload"
    crlf_rec = (b"WARC/1.0\r\nWARC-Type: response\r\n"
                b"WARC-Target-URI: http://x/crlf\r\n"
                b"WARC-Date: 2021-03-01T10:00:00Z\r\n"
                b"Content-Length: %d\r\n\r\n" % len(crlf_body)
                ) + crlf_body + b"\r\n\r\n"
    lf_body = b"normalized payload"
    lf_rec = (b"WARC/1.0\nWARC-Type: response\n"
              b"WARC-Target-URI: http://x/lf\n"
              b"WARC-Date: 2021-03-01T11:00:00Z\n"
              b"Content-Length: %d\n\n" % len(lf_body)) + lf_body + b"\n\n"
    for data in (crlf_rec + lf_rec, lf_rec + crlf_rec):
        recs = warc.parse_warc_bytes(data)
        assert sorted(r["url"] for r in recs) == \
            ["http://x/crlf", "http://x/lf"]
        by_url = {r["url"]: r for r in recs}
        assert by_url["http://x/crlf"]["payload_bytes"] == crlf_body
        assert by_url["http://x/lf"]["payload_bytes"] == lf_body
