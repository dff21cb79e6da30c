"""WARC-text conformance: serialize → file → read back → field round-trip
(S1/S2/S4/F12 of SURVEY.md §2)."""

from __future__ import annotations

from sidecar import cli, pipeline, warc


def _record_bytes(headers: list[tuple[str, str]], body: bytes) -> bytes:
    head = "".join(f"{k}: {v}\r\n" for k, v in headers)
    return (f"WARC/1.0\r\n{head}Content-Length: {len(body)}\r\n\r\n"
            .encode() + body + b"\r\n\r\n")


def _source_warc(path, images, *, warcinfo_id: str = "") -> str:
    """A WARC file with one response record per IMAGES row, its payload the
    row's bytes (html, text and binary images)."""
    extra = [("WARC-Warcinfo-ID", warcinfo_id)] if warcinfo_id else []
    with open(path, "wb") as f:
        f.write(warc.warcinfo_record_text(path.name).encode())
        for i, r in enumerate(images.to_pylist()):
            f.write(_record_bytes(
                [("WARC-Type", "response"),
                 ("WARC-Target-URI", f"https://example.com/{r['image_id']}"),
                 ("WARC-Date", f"2021-03-01T10:{i // 60:02d}:{i % 60:02d}Z"),
                 *extra], r["bytes"]))
    return str(path)


def _source_arc(path, images) -> str:
    """The ARC v1 twin of ``_source_warc``."""
    with open(path, "wb") as f:
        f.write(b"filedesc://src.arc 0.0.0.0 20210301000000 text/plain 10\n"
                b"1 0 ARCv1\n\n")
        for r in images.to_pylist():
            f.write(f"https://example.com/{r['image_id']} 1.2.3.4 "
                    f"20210301100000 application/octet-stream "
                    f"{len(r['bytes'])}\n".encode() + r["bytes"] + b"\n\n")
    return str(path)


def test_warc_roundtrip(tmp_path, images_table):
    """A sidecar written by ``cli.sidecar_file`` reads back as its warcinfo
    and one metadata record per extracted row, each payload exactly the
    serializer's, in source order."""
    src = _source_warc(tmp_path / "src.warc", images_table.slice(0, 64))
    path = str(tmp_path / "out.warc")
    row = cli.sidecar_file(src, path, operator="ops", publisher="pub")
    assert row["records_read"] == 65
    n = row["records_written"]
    assert n > 0

    records = warc.read_records(path)
    assert records[0]["rec_type"] == "warcinfo"
    assert "operator: ops" in records[0]["payload"]
    assert "publisher: pub" in records[0]["payload"]
    metas = [r for r in records if r["rec_type"] == "metadata"]
    assert len(metas) == n

    # payload text round-trips exactly against the serializer
    rows = pipeline.extract_sidecar_batch(
        cli.records_to_images(warc.read_records(src, "bytes"))).to_pylist()
    assert [m["url"] for m in metas] == [r["url"] for r in rows]
    for m, r in zip(metas, rows):
        assert m["payload"] == pipeline.sidecar_row_to_payload(r)
        assert m["ts"] == r["ts"]


def test_warc_warcinfo_fields():
    text = warc.warcinfo_record_text("x.warc.meta.gz", operator="op", publisher="p")
    recs = warc.parse_warc_text(text)
    assert len(recs) == 1 and recs[0]["rec_type"] == "warcinfo"
    assert "software" in recs[0]["payload"]
    assert "operator: op" in recs[0]["payload"]


def test_warc_zero_record_rewrite(tmp_path):
    """S4: a source that yields no metadata records gets a sidecar holding
    only a warcinfo whose description carries the zero-record marker."""
    src = tmp_path / "empty.warc"
    src.write_bytes(_record_bytes(
        [("WARC-Type", "response"), ("WARC-Target-URI", "https://e.com/x"),
         ("WARC-Date", "2021-03-01T10:00:00Z")], b""))
    path = str(tmp_path / "empty.warc.meta.gz")
    assert cli.sidecar_file(str(src), path)["records_written"] == 0
    recs = warc.parse_warc_text(open(path, "rb").read().decode())
    assert len(recs) == 1
    assert "0 metadata sidecar records" in recs[0]["payload"]
    assert recs[0]["headers"]["WARC-Filename"] == "empty.warc.meta.gz"


def test_filename_derivation():
    """S3/S8 path conventions match the reference's regex semantics."""
    from sidecar.warc import (cdxj_name_from_sidecar, is_arc_name,
                              merged_cdxj_name, sidecar_name)

    assert sidecar_name("a.warc") == "a.warc.meta.gz"
    assert sidecar_name("a.warc.gz") == "a.warc.meta.gz"
    assert sidecar_name("a.arc") == "a.warc.meta.gz"
    assert sidecar_name("a.arc.gz") == "a.warc.meta.gz"
    assert cdxj_name_from_sidecar("/dir/a.warc.meta.gz") == "a.cdxj"
    assert merged_cdxj_name("/dir/a.cdxj") == "a_merged.cdxj"
    assert is_arc_name("a.arc") and is_arc_name("a.arc.gz")
    assert not is_arc_name("a.warc") and not is_arc_name("a.warc.gz")


def test_arc_source_header_absence(tmp_path, images_table):
    """F4 parity: ARC-sourced sidecar records carry no WARC-Concurrent-ID /
    WARC-Warcinfo-ID; WARC-sourced ones do (reference tests :188-197)."""
    images = images_table.slice(0, 4)
    out = {}
    for name, src in (
            ("warc", _source_warc(tmp_path / "src.warc", images,
                                  warcinfo_id="<urn:uuid:w1>")),
            ("arc", _source_arc(tmp_path / "src.arc", images))):
        path = str(tmp_path / f"{name}.warc.meta.gz")
        cli.sidecar_file(src, path)
        out[name] = [r for r in warc.read_records(path)
                     if r["rec_type"] == "metadata"]
    assert out["warc"] and out["arc"]
    for r in out["warc"]:
        assert "WARC-Concurrent-ID" in r["headers"]
        assert r["headers"]["WARC-Warcinfo-ID"] == "<urn:uuid:w1>"
    for r in out["arc"]:
        assert "WARC-Concurrent-ID" not in r["headers"]
        assert "WARC-Warcinfo-ID" not in r["headers"]


class TestCliLifecycle:
    """The reference's three-command lifecycle end-to-end through
    python -m sidecar.cli: sidecar → cdxj → merge."""

    def _write_source_warc(self, path):
        from sidecar.warc import _record_text, warcinfo_record_text

        recs = [warcinfo_record_text("src.warc")]

        def resp(url, date, payload):
            return _record_text(
                [("WARC-Type", "response"), ("WARC-Target-URI", url),
                 ("WARC-Date", date), ("WARC-Record-ID", f"<urn:uuid:{url[-6:]}>"),
                 ("Content-Type", "application/http")], payload)

        recs.append(resp("https://example.com/a", "2021-03-01T10:00:00Z",
                         "<!DOCTYPE html><html><body>the page about cats and dogs"
                         " in the garden</body></html>"))
        recs.append(resp("https://example.com/b", "2021-03-01T11:00:00Z",
                         "plain text content with several simple words here"))
        recs.append(resp("dns:example.com", "2021-03-01T12:00:00Z", "1.2.3.4"))
        recs.append(_record_text(
            [("WARC-Type", "revisit"), ("WARC-Target-URI", "https://example.com/a"),
             ("WARC-Date", "2021-03-02T10:00:00Z")], "dup"))
        with open(path, "w") as f:
            f.writelines(recs)

    def test_three_command_lifecycle(self, tmp_path):
        import json

        from sidecar import cli

        adir = str(tmp_path)
        self._write_source_warc(tmp_path / "src.warc")

        # 1. sidecar: response records extracted; dns/revisit/warcinfo skipped
        s = cli.cmd_sidecar(adir, "src.warc", operator="tester")
        assert s["records_written"] == 2
        assert s["total_records_read"] == 5
        assert s["meta_file_path"].endswith("src.warc.meta.gz")
        meta_text = open(s["meta_file_path"]).read()
        assert "Identified-Payload-Type:" in meta_text
        assert "tester" in meta_text  # operator in warcinfo

        # 2. cdxj: one SURT line per metadata record, warcinfo skipped
        c = cli.cmd_cdxj(s["meta_file_path"], adir)
        assert c["lines"] == 2
        lines = open(c["cdxj_path"]).read().splitlines()
        assert lines[0].startswith("com,example)/")
        obj = json.loads(lines[0].split(" ", 2)[2])
        assert "Identified-Payload-Type" in obj

        # 3. merge: enrich an original index; unmatched rows pass through
        orig = tmp_path / "src_1.cdxj"
        surt_a = lines[0].split(" ", 2)[0]
        ts_a = lines[0].split(" ", 2)[1]
        with open(orig, "w") as f:
            f.write(f'{surt_a} {ts_a} {{"url": "https://example.com/a"}}\n')
            f.write('zzz,unmatched)/ 20210101000000 {"url": "http://zzz"}\n')
        m = cli.cmd_merge(c["cdxj_path"], str(orig), adir)
        assert m["edited"] == 1 and m["non_edited"] == 1
        out = open(m["merged_path"]).read().splitlines()
        assert len(out) == 2
        assert "mime-detected" in out[0]       # enriched first line
        assert out[1].endswith('{"url": "http://zzz"}')  # pass-through, order kept


class TestArcInput:
    def test_arc_lifecycle_no_concurrent_id(self, tmp_path):
        """ARC v1 in: records rewritten as responses (arc2warc analog),
        sidecar records carry NO WARC-Concurrent-ID (header-absence parity,
        reference tests :188-197)."""
        from sidecar import cli

        body = "the quick brown fox jumps over the lazy dog again and again"
        arc = (
            "filedesc://src.arc 0.0.0.0 20210301000000 text/plain 10\n"
            "1 0 ARCv1\n\n"
            f"http://example.com/x 1.2.3.4 20210301100000 text/plain {len(body)}\n"
            f"{body}\n\n"
        )
        (tmp_path / "src.arc").write_text(arc)
        s = cli.cmd_sidecar(str(tmp_path), "src.arc")
        assert s["records_written"] == 1
        assert s["meta_file_path"].endswith("src.warc.meta.gz")
        meta = open(s["meta_file_path"]).read()
        assert "WARC-Concurrent-ID" not in meta  # ARC-source header absence
        assert "Identified-Payload-Type:" in meta
        assert "example.com/x" in meta


def test_gzip_sidecar_roundtrip(tmp_path, images_table):
    """compress=True writes REAL gzip (reference WARCWriter gzip=True);
    the reader sniffs magic bytes so both forms round-trip identically."""
    src = _source_warc(tmp_path / "src.warc", images_table.slice(0, 12))
    p_plain = str(tmp_path / "a.warc.meta.gz")
    p_gz = str(tmp_path / "b.warc.meta.gz")
    n1 = cli.sidecar_file(src, p_plain)["records_written"]
    n2 = cli.sidecar_file(src, p_gz, compress=True)["records_written"]
    assert n1 == n2 > 0
    assert open(p_gz, "rb").read(2) == b"\x1f\x8b"       # actually gzip
    assert open(p_plain, "rb").read(2) != b"\x1f\x8b"    # quirk preserved
    r1 = [r for r in warc.read_records(p_plain) if r["rec_type"] == "metadata"]
    r2 = [r for r in warc.read_records(p_gz) if r["rec_type"] == "metadata"]
    assert [r["payload"] for r in r1] == [r["payload"] for r in r2]


class TestSidecarAll:
    def test_batch_mode_one_sidecar_per_file_and_resume(self, tmp_path):
        """sidecar-all: one sidecar per source file in the dir; a second
        run skips all finished files."""
        from sidecar import cli
        from sidecar.warc import _record_text, warcinfo_record_text

        def resp(url, date, payload):
            return _record_text(
                [("WARC-Type", "response"), ("WARC-Target-URI", url),
                 ("WARC-Date", date)], payload)

        for k in range(3):
            with open(tmp_path / f"f{k}.warc", "w") as f:
                f.write(warcinfo_record_text(f"f{k}.warc"))
                for j in range(2 + k):
                    f.write(resp(f"https://h{k}.com/p{j}", "2021-03-01T10:00:00Z",
                                 f"some simple text content number {j} of file {k}"))

        r1 = cli.cmd_sidecar_all(str(tmp_path))
        assert r1["processed"] == 3 and r1["skipped"] == 0
        assert r1["records_written"] == 2 + 3 + 4
        for k in range(3):
            recs = [x for x in __import__("sidecar.warc", fromlist=["warc"])
                    .parse_warc_text(open(tmp_path / f"f{k}.warc.meta.gz").read())
                    if x["rec_type"] == "metadata"]
            assert len(recs) == 2 + k
            assert all(f"h{k}.com" in r["url"] for r in recs)

        r2 = cli.cmd_sidecar_all(str(tmp_path))  # resume: nothing to do
        assert r2["processed"] == 0 and r2["skipped"] == 3


def test_cdxj_all_batch(tmp_path):
    """cdxj-all follows sidecar-all: one .cdxj per sidecar, resumable."""
    from sidecar import cli
    from sidecar.warc import _record_text, warcinfo_record_text

    def resp(url, date, payload):
        return _record_text(
            [("WARC-Type", "response"), ("WARC-Target-URI", url),
             ("WARC-Date", date)], payload)

    for k in range(2):
        with open(tmp_path / f"g{k}.warc", "w") as f:
            f.write(warcinfo_record_text(f"g{k}.warc"))
            f.write(resp(f"https://g{k}.com/x", "2021-03-01T10:00:00Z",
                         f"content words for file number {k} right here"))
    cli.cmd_sidecar_all(str(tmp_path))
    r = cli.cmd_cdxj_all(str(tmp_path))
    assert r["processed"] == 2 and r["lines"] == 2
    for k in range(2):
        lines = open(tmp_path / f"g{k}.cdxj").read().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"com,g{k})/")
    r2 = cli.cmd_cdxj_all(str(tmp_path))
    assert r2["processed"] == 0 and r2["skipped"] == 2


def test_concurrent_id_source_record_id(tmp_path):
    """WARC-Concurrent-ID carries the SOURCE record's WARC-Record-ID through
    extraction (reference warc_metadata_sidecar.py:223), not the synthetic
    urn fallback."""
    from sidecar import cli
    from sidecar.warc import _record_text, warcinfo_record_text

    with open(tmp_path / "src.warc", "w") as f:
        f.write(warcinfo_record_text("src.warc"))
        f.write(_record_text(
            [("WARC-Type", "response"),
             ("WARC-Target-URI", "https://example.com/cid"),
             ("WARC-Date", "2021-03-01T10:00:00Z"),
             ("WARC-Record-ID", "<urn:uuid:deadbeef-1234>"),
             ("Content-Type", "application/http")],
            "plain text words in the body of this page"))
    s = cli.cmd_sidecar(str(tmp_path), "src.warc")
    assert s["records_written"] == 1
    metas = [r for r in warc.parse_warc_text(open(s["meta_file_path"]).read())
             if r["rec_type"] == "metadata"]
    assert metas[0]["headers"]["WARC-Concurrent-ID"] == "<urn:uuid:deadbeef-1234>"


def test_sidecar_all_zero_record_source(tmp_path):
    """Batch mode writes the S4 zero-record warcinfo sidecar for a source
    that yields no sidecar rows, so resume skipping sees it as finished."""
    from sidecar import cli
    from sidecar.warc import _record_text, warcinfo_record_text

    # file with content + file with only dns/revisit records (no extractable rows)
    with open(tmp_path / "a.warc", "w") as f:
        f.write(warcinfo_record_text("a.warc"))
        f.write(_record_text(
            [("WARC-Type", "response"), ("WARC-Target-URI", "https://a.com/x"),
             ("WARC-Date", "2021-03-01T10:00:00Z")], "words and more words"))
    with open(tmp_path / "b.warc", "w") as f:
        f.write(warcinfo_record_text("b.warc"))
        f.write(_record_text(
            [("WARC-Type", "response"), ("WARC-Target-URI", "dns:b.com"),
             ("WARC-Date", "2021-03-01T10:00:00Z")], "1.2.3.4"))
        f.write(_record_text(
            [("WARC-Type", "revisit"), ("WARC-Target-URI", "https://b.com/x"),
             ("WARC-Date", "2021-03-01T10:00:00Z")], "dup"))

    r1 = cli.cmd_sidecar_all(str(tmp_path))
    assert r1["processed"] == 2
    zero = open(tmp_path / "b.warc.meta.gz").read()
    assert "0 metadata sidecar records" in zero
    r2 = cli.cmd_sidecar_all(str(tmp_path))  # resume: b not re-processed
    assert r2["processed"] == 0 and r2["skipped"] == 2

    # cdxj-all on the pair: b's sidecar has no lines -> empty cdxj, resumable
    c1 = cli.cmd_cdxj_all(str(tmp_path))
    assert c1["processed"] == 2 and c1["lines"] == 1
    assert open(tmp_path / "b.cdxj").read() == ""
    c2 = cli.cmd_cdxj_all(str(tmp_path))
    assert c2["processed"] == 0 and c2["skipped"] == 2


def test_arc_malformed_header_and_space_url():
    """A malformed ARC header mid-file skips to the next record instead of
    silently truncating; URLs containing spaces parse (fields from the right)."""
    body1 = "first record body text"
    body2 = "second record body text"
    body3 = "third record body after the bad one"
    arc = (
        "filedesc://src.arc 0.0.0.0 20210301000000 text/plain 10\n"
        "1 0 ARCv1\n\n"
        f"http://example.com/a b.html 1.2.3.4 20210301100000 text/plain {len(body1)}\n"
        f"{body1}\n\n"
        "garbage-header-line\n"
        "not a record\n\n"
        f"http://example.com/c 1.2.3.4 20210301110000 text/plain {len(body2)}\n"
        f"{body2}\n\n"
        f"http://example.com/d 1.2.3.4 20210301120000 text/plain {len(body3)}\n"
        f"{body3}\n\n"
    )
    recs = warc.parse_arc_text(arc)
    urls = [r["url"] for r in recs]
    assert "http://example.com/a b.html" in urls  # space-containing URL kept
    assert "http://example.com/c" in urls
    assert "http://example.com/d" in urls         # records after the bad header survive
    assert [r for r in recs if r["rec_type"] == "warcinfo"]


def test_merge_all_batch(tmp_path):
    """merge-all: one merged cdxj per (meta, original) pair; original line
    order preserved; quirks applied; log parity; resumable; empty pairs
    still produce output."""
    import json

    from sidecar import cli

    meta_dir = tmp_path / "meta"
    warc_dir = tmp_path / "warc"
    out_dir = tmp_path / "merged"
    meta_dir.mkdir()
    warc_dir.mkdir()

    for k in range(2):
        with open(meta_dir / f"f{k}.cdxj", "w") as f:
            f.write(f'com,h{k})/a 20210101000000 '
                    '{"Identified-Payload-Type": {"fido": "text/html", '
                    '"python-magic": "text/plain"}, "Soft-404-Detected": 0.0}\n')
        with open(warc_dir / f"f{k}.cdxj", "w") as f:
            f.write(f'com,h{k})/a 20210101000000 {{"url": "http://h{k}.com/a"}}\n')
            f.write(f'com,h{k})/b 20210101000000 {{"url": "http://h{k}.com/b"}}\n')
    # an empty pair must still produce (empty) output for resume skipping
    open(meta_dir / "empty.cdxj", "w").close()
    open(warc_dir / "empty.cdxj", "w").close()

    r = cli.cmd_merge_all(str(meta_dir), str(warc_dir), str(out_dir))
    assert r["processed"] == 3 and r["edited"] == 2 and r["non_edited"] == 2
    for k in range(2):
        lines = open(out_dir / f"f{k}_merged.cdxj").read().splitlines()
        assert len(lines) == 2
        obj0 = json.loads(lines[0].split(" ", 2)[2])
        assert obj0["mime-detected"] == "text/plain"   # magic preferred
        assert "soft-404-detected" not in obj0         # 0.0 dropped quirk
        assert lines[1].endswith(f'{{"url": "http://h{k}.com/b"}}')  # order
    assert open(out_dir / "empty_merged.cdxj").read() == ""
    log = open(out_dir / "cdxj_merge.log").read()
    assert "INFO Merging f0.cdxj into f0.cdxj" in log
    assert "INFO Edited: 1 Non-edited: 1" in log

    r2 = cli.cmd_merge_all(str(meta_dir), str(warc_dir), str(out_dir))
    assert r2["processed"] == 0 and r2["skipped"] == 3


def test_merge_all_duplicate_key_last_wins_and_blank_pairs(tmp_path):
    """merge-all parity details: (a) a metadata CDXJ with two lines for the
    same (surt, ts) resolves last-line-wins, matching cmd_merge's ordered
    dict build; (b) pairs whose files hold only blank lines don't crash the
    batch and still produce output for resume skipping."""
    import json

    from sidecar import cli

    meta_dir = tmp_path / "meta"
    warc_dir = tmp_path / "warc"
    out_dir = tmp_path / "merged"
    meta_dir.mkdir()
    warc_dir.mkdir()

    # (b) first: ONLY blank-line pairs
    with open(meta_dir / "blank.cdxj", "w") as f:
        f.write("\n\n")
    with open(warc_dir / "blank.cdxj", "w") as f:
        f.write("\n")
    r = cli.cmd_merge_all(str(meta_dir), str(warc_dir), str(out_dir))
    assert r["processed"] == 1
    assert open(out_dir / "blank_merged.cdxj").read() == ""

    # (a) duplicate (surt, ts) metadata key: the LAST line's fields win
    with open(meta_dir / "dup.cdxj", "w") as f:
        f.write('com,h)/a 20210101000000 '
                '{"Identified-Payload-Type": {"fido": "text/html"}}\n')
        f.write('com,h)/a 20210101000000 '
                '{"Identified-Payload-Type": {"fido": "text/css"}}\n')
    with open(warc_dir / "dup.cdxj", "w") as f:
        f.write('com,h)/a 20210101000000 {"url": "http://h.com/a"}\n')
    r2 = cli.cmd_merge_all(str(meta_dir), str(warc_dir), str(out_dir))
    assert r2["processed"] == 1 and r2["skipped"] == 1
    line = open(out_dir / "dup_merged.cdxj").read().splitlines()[0]
    obj = json.loads(line.split(" ", 2)[2])
    assert obj["mime-detected"] == "text/css"
    # no stray tmp files left behind by the atomic write
    assert not list(out_dir.glob("*.tmp"))


def test_alpha3_bihari_converts():
    """Full ISO-639-1 table: 'bh' (Bihari) must convert to 'bih' like the
    reference's langcodes path, not be silently dropped."""
    from sidecar.cdxj import get_alpha3_language_codes

    codes = get_alpha3_language_codes(
        [{"name": "Bihari", "code": "bh", "text-covered": 90, "score": 100.0}])
    assert codes == "bih"


def test_parse_warc_bytes_multibyte_payloads():
    """Content-Length is BYTES: multibyte payloads must slice exactly and
    never swallow the next record."""

    def rec(payload):
        body = payload.encode()
        return ("WARC/1.0\r\nWARC-Type: response\r\n"
                "WARC-Target-URI: http://x/\r\n"
                "WARC-Date: 2021-01-01T00:00:00Z\r\n"
                f"Content-Length: {len(body)}\r\n\r\n{payload}\r\n\r\n")

    recs = warc.parse_warc_text(rec("héllo") + rec("日本語" * 20))
    assert len(recs) == 2
    assert recs[0]["payload"] == "héllo"
    assert recs[1]["payload"] == "日本語" * 20
    # LF-normalized fixture: payload with internal newlines still exact
    lf = ("WARC/1.0\nWARC-Type: response\nContent-Length: 12\n\n"
          "line1\nline2\n\n")
    assert warc.parse_warc_bytes(lf.encode())[0]["payload"] == "line1\nline2"


def test_http_response_records_stripped_and_status_gated(tmp_path):
    """Reference parity on real archive-crawled WARCs: detectors run on the
    HTTP BODY only (record.content_stream()) and soft-404 only on
    status 200 (warc_metadata_sidecar.py:213,263-265)."""
    import ray

    from sidecar import cli

    html = "<html><head><title>hi</title></head><body>page</body></html>"

    def rec(status, reason):
        payload = (f"HTTP/1.1 {status} {reason}\r\n"
                   "Content-Type: text/html\r\n\r\n" + html)
        body = payload.encode()
        return ("WARC/1.0\r\nWARC-Type: response\r\n"
                f"WARC-Target-URI: http://x/{status}\r\n"
                "WARC-Date: 2021-01-01T00:00:00Z\r\n"
                "WARC-Record-ID: <urn:uuid:rec-1>\r\n"
                "WARC-Warcinfo-ID: <urn:uuid:winfo-1>\r\n"
                f"Content-Length: {len(body)}\r\n\r\n{payload}\r\n\r\n")

    p = tmp_path / "src.warc"
    p.write_text(rec(200, "OK") + rec(404, "Not Found"))
    s = cli.cmd_sidecar(str(tmp_path), "src.warc")
    assert s["records_written"] == 2
    metas = [r for r in warc.parse_warc_text(open(s["meta_file_path"]).read())
             if r["rec_type"] == "metadata"]
    by_url = {m["url"]: m for m in metas}
    # detectors saw the body, not the HTTP headers: payload mime is html
    assert "text/html" in by_url["http://x/200"]["payload"]
    # soft-404 computed only for the 200 record
    assert "Soft-404-Detected" in by_url["http://x/200"]["payload"]
    assert "Soft-404-Detected" not in by_url["http://x/404"]["payload"]
    # source record ids carried into the sidecar headers (F4 parity)
    assert by_url["http://x/200"]["headers"]["WARC-Concurrent-ID"] == "<urn:uuid:rec-1>"
    assert by_url["http://x/200"]["headers"]["WARC-Warcinfo-ID"] == "<urn:uuid:winfo-1>"
    # warcinfo description names the SOURCE archive, not the sidecar file
    winfo = [r for r in warc.parse_warc_text(open(s["meta_file_path"]).read())
             if r["rec_type"] == "warcinfo"][0]
    assert "WARC metdata sidecar for src.warc" in winfo["payload"]
    assert "src.warc.meta.gz" not in winfo["payload"].split("description")[1].split("\r\n")[0]


def test_name_rules_match_reference_patterns():
    """is_arc_name uses the reference's exact .arc regex; cdxj name
    derivation is the reference's UNANCHORED re.sub."""
    assert warc.is_arc_name("x.arc") and warc.is_arc_name("x.arc.gz")
    assert not warc.is_arc_name("x.warc") and not warc.is_arc_name("x.warc.gz")
    assert not warc.is_arc_name("foo.marc")  # no literal '.arc' extension
    assert warc.cdxj_name_from_sidecar("x.warc.meta.gz") == "x.cdxj"
    # unanchored: a suffixed name still converts (never collides with input)
    assert warc.cdxj_name_from_sidecar("x.warc.meta.gz.open") == "x.cdxj.open"


def _pin_corpus(archive, index):
    """A small mixed corpus and its original CDXJ indexes: ``a.warc`` holds
    an HTTP 200 html page, an HTTP 404, a plain-text resource, a binary PNG
    and dns/revisit records; ``b.arc`` is ARC v1; ``c.warc`` has no
    extractable record."""
    import numpy as np

    from sidecar import codecs
    from sidecar.canon import surt
    from sidecar.warc import _record_text, warcinfo_record_text

    def http(url, date, rid, status, reason, body):
        return _record_text(
            [("WARC-Type", "response"), ("WARC-Target-URI", url),
             ("WARC-Date", date), ("WARC-Record-ID", f"<urn:uuid:{rid}>"),
             ("WARC-Warcinfo-ID", "<urn:uuid:winfo-a>"),
             ("Content-Type", "application/http")],
            f"HTTP/1.1 {status} {reason}\r\nContent-Type: text/html\r\n\r\n"
            + body)

    yy, xx = np.mgrid[0:24, 0:32]
    png = codecs.encode_png(np.stack(
        [xx * 8, yy * 10, (xx + yy) * 4], axis=-1).astype(np.uint8))
    binary = (b"WARC/1.0\r\nWARC-Type: response\r\n"
              b"WARC-Target-URI: https://example.com/img.png\r\n"
              b"WARC-Date: 2021-03-01T10:03:00Z\r\n"
              b"Content-Length: %d\r\n\r\n" % len(png)) + png + b"\r\n\r\n"
    page = ("<!DOCTYPE html><html><head><title>cats</title></head><body>"
            "the page about cats and dogs in the garden</body></html>")
    with open(archive / "a.warc", "wb") as f:
        f.write("".join([
            warcinfo_record_text("a.warc"),
            http("https://example.com/a", "2021-03-01T10:00:00Z", "a1", 200,
                 "OK", page),
            http("https://example.com/gone", "2021-03-01T10:01:00Z", "a2",
                 404, "Not Found", "<html><body>not found</body></html>"),
            _record_text([("WARC-Type", "resource"),
                          ("WARC-Target-URI", "https://example.com/notes.txt"),
                          ("WARC-Date", "2021-03-01T10:02:00Z")],
                         "plain text notes with several simple words here"),
        ]).encode() + binary + "".join([
            _record_text([("WARC-Type", "response"),
                          ("WARC-Target-URI", "dns:example.com"),
                          ("WARC-Date", "2021-03-01T10:04:00Z")], "1.2.3.4"),
            _record_text([("WARC-Type", "revisit"),
                          ("WARC-Target-URI", "https://example.com/a"),
                          ("WARC-Date", "2021-03-02T10:00:00Z")], "dup"),
        ]).encode())
    arc_body = "the quick brown fox jumps over the lazy dog again and again"
    (archive / "b.arc").write_text(
        "filedesc://b.arc 0.0.0.0 20210301000000 text/plain 10\n"
        "1 0 ARCv1\n\n"
        f"http://example.org/x 1.2.3.4 20210301100000 text/plain "
        f"{len(arc_body)}\n{arc_body}\n\n")
    with open(archive / "c.warc", "w") as f:
        f.write(warcinfo_record_text("c.warc"))
        f.write(_record_text([("WARC-Type", "revisit"),
                              ("WARC-Target-URI", "https://example.net/x"),
                              ("WARC-Date", "2021-03-01T10:00:00Z")], "dup"))
    for name, keys in (
            ("a", [("https://example.com/a", "20210301100000"),
                   ("https://example.com/img.png", "20210301100300"),
                   ("https://example.com/unseen", "20210301100500"),
                   ("https://example.com/gone", "20210301100100")]),
            ("b", [("http://example.org/x", "20210301100000")]),
            ("c", [("https://example.net/x", "20210301100000")])):
        with open(index / f"{name}.cdxj", "w") as f:
            for url, ts in keys:
                f.write(f'{surt(url)} {ts} {{"url": "{url}"}}\n')


# sha256 of every output of the batch lifecycle on ``_pin_corpus``
PINNED_SHA256 = {
    "a.warc.meta.gz": "59cc420fa156bc0f8aebe1781217be039c3f3aa0becf56a44ad24f114096879d",
    "b.warc.meta.gz": "5254b7ee196a023b285ec1bb6aef82d472ba813cb1374e90be2e2a5e1311fa4b",
    "c.warc.meta.gz": "b33389af7c44f8c55e53dee88ecd4bd0b6d8a2ce8694b3778dd77fc3a3278a5f",
    "a.cdxj": "3ae65af8ef231b48e9affebc2eaa4dcdf77623fe7ef90600d51fc61efc05aa8b",
    "b.cdxj": "4b06d2150cbdb400eeb71fc5c8b08b05e23cd3bc12279d6e6917498abda527c6",
    "c.cdxj": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "a_merged.cdxj": "605756354ac96447d599dd297f707ae52f627d5df32a612cb6da2099d59cb7ea",
    "b_merged.cdxj": "fdd06223a12259ed4d84f8284fa9af5a91310193cb0213c598e05ac7cba0d7a7",
    "c_merged.cdxj": "d183c817ea5ce13923e636400c0da3c6918a1b40cb52692c0b28048ff881eccd",
    "cdxj_merge.log": "428c8860bae7c06695fc69d5319f28a54cae499391e54a478b6bba5b3f814490",
}


def test_batch_lifecycle_bytes_pinned(tmp_path):
    """sidecar-all -> cdxj-all -> merge-all on ``_pin_corpus`` writes exactly
    these bytes: every sidecar, CDXJ, merged index and the merge log."""
    import hashlib

    from sidecar import cli

    archive, index, merged = (tmp_path / d for d in ("archive", "index", "m"))
    archive.mkdir(), index.mkdir()
    _pin_corpus(archive, index)
    s = cli.cmd_sidecar_all(str(archive))
    assert (s["processed"], s["records_written"]) == (3, 5)
    c = cli.cmd_cdxj_all(str(archive))
    assert (c["processed"], c["lines"]) == (3, 5)
    m = cli.cmd_merge_all(str(archive), str(index), str(merged))
    assert (m["processed"], m["edited"], m["non_edited"]) == (3, 4, 2)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for d in (archive, merged) for p in sorted(d.iterdir())
           if not p.name.endswith((".warc", ".arc"))}
    assert got == PINNED_SHA256
