"""CDXJ projection + merge-join contracts, ported from the reference's
tests/test_sidecar2cdxj.py:35-79 and tests/test_merge_cdxj.py:48-190."""

import json

import pyarrow as pa
import pytest
import ray.data as rd

from sidecar import cdxj, pipeline, shuffle, synth
from sidecar.canon import iso_to_ts14, surt


def test_surt_and_timestamp():
    # F13 (sidecar2cdxj.py:32-37)
    assert surt("https://www.Example.COM/A/B?b=2&a=1") == "com,example)/a/b?a=1&b=2"
    assert surt("http://example.com") == "com,example)/"
    assert iso_to_ts14("2021-03-01T12:34:56Z") == "20210301123456"


def test_cdxj_line_exact():
    # ≈ tests/test_sidecar2cdxj.py:57-79 — exact line form
    cap = "the cat and the dog went to the page and said this was that"
    t = pa.Table.from_pylist(
        [{
            "image_id": "t1",
            "bytes": f"<html><body>{cap}</body></html>".encode(),
            "w": 0, "h": 0, "fmt": "html", "caption": cap, "phash": 0,
        }],
        schema=synth.IMAGES_SCHEMA,
    )
    t = t.append_column("url", pa.array(["https://www.unt.edu/page?x=1"]))
    t = t.append_column("ts", pa.array(["20211011123456"]))
    out = pipeline.sidecar_dataset(rd.from_arrow(t))
    rows = cdxj.cdxj_from_sidecar(out).take_all()
    assert len(rows) == 1
    line = cdxj.cdxj_line(rows[0]["surt"], rows[0]["ts"], rows[0]["json"])
    assert line.startswith("edu,unt)/page?x=1 20211011123456 {\"Identified-Payload-Type\":")
    obj = json.loads(line.split(" ", 2)[2])
    assert obj["Identified-Payload-Type"]["python-magic"] == "text/html"
    assert "Charset-Detected" in obj and "Languages-cld2" in obj
    assert line.endswith("\n")


def test_alpha3_conversion():
    # ≈ tests/test_merge_cdxj.py:48-59
    langs = [{"name": "ENGLISH", "code": "en"}, {"name": "SPANISH", "code": "es"}]
    assert cdxj.get_alpha3_language_codes(langs) == "eng,spa"
    assert cdxj.get_alpha3_language_codes([{"name": "X", "code": "xx"}]) == ""


def test_get_sidecar_fields_quirks():
    # ≈ tests/test_merge_cdxj.py:62-92 — python-magic preference (:78),
    # soft-404 truthiness (0.0 dropped, :53-55)
    meta = {
        "Identified-Payload-Type": {"fido": "text/html", "python-magic": "text/xml"},
        "Preservation-Identifier": "fmt/96",
        "Charset-Detected": {"encoding": "ascii", "confidence": 1.0},
        "Languages-cld2": {"reliable": True, "text-bytes": 10,
                           "languages": [{"name": "ENGLISH", "code": "en",
                                          "text-covered": 99, "score": 1000.0}]},
        "Soft-404-Detected": 0.0,
    }
    out = cdxj.get_sidecar_fields({"url": "u"}, meta)
    assert out["mime-detected"] == "text/xml"  # magic preferred
    assert out["puid"] == "fmt/96"
    assert out["charset"] == "ascii"
    assert out["languages"] == "eng"
    assert "soft-404-detected" not in out  # 0.0 dropped at merge
    meta["Soft-404-Detected"] = 0.5
    out2 = cdxj.get_sidecar_fields({}, meta)
    assert out2["soft-404-detected"] == 0.5
    # fido fallback when no python-magic
    out3 = cdxj.get_sidecar_fields({}, {"Identified-Payload-Type": {"fido": "text/html"}})
    assert out3["mime-detected"] == "text/html"


def _mk_cdxj_ds(rows):
    return rd.from_arrow(
        pa.table({
            "surt": [r[0] for r in rows],
            "ts": [r[1] for r in rows],
            "json": [r[2] for r in rows],
            "lineno": list(range(len(rows))),
        })
    )


def _merge_case():
    # ≈ tests/test_merge_cdxj.py:96-153: matched, pass-through, duplicate keys
    meta = rd.from_arrow(pa.table({
        "surt": ["com,example)/", "com,other)/x"],
        "ts": ["20210101000000", "20210101000000"],
        "json": [
            json.dumps({"Identified-Payload-Type": {"python-magic": "text/html"},
                        "Soft-404-Detected": 0.9}),
            json.dumps({"Identified-Payload-Type": {"fido": "image/png"}}),
        ],
    }))
    orig = _mk_cdxj_ds([
        ("com,example)/", "20210101000000", json.dumps({"url": "a"})),  # match
        ("com,example)/", "20210101000000", json.dumps({"url": "a2"})),  # dup key match
        ("com,nomatch)/", "20210101000000", json.dumps({"url": "b"})),  # pass-through
    ])
    out = cdxj.merge_cdxj(meta, orig)
    rows = sorted(out.take_all(), key=lambda r: r["lineno"])
    o0, o1, o2 = (json.loads(r["json"]) for r in rows)
    assert o0["mime-detected"] == "text/html" and o0["soft-404-detected"] == 0.9
    assert o1["mime-detected"] == "text/html" and o1["url"] == "a2"  # 1:N probe side
    assert o2 == {"url": "b"} and rows[2]["matched"] is False
    assert sum(r["matched"] for r in rows) == 2  # edited_count (merge_cdxj.py:61)


def test_merge_broadcast():
    _merge_case()


def test_merge_partitioned(monkeypatch):
    monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES", 0)
    _merge_case()


def test_merge_partitioned_lineno_stays_int64(monkeypatch):
    """Partitions containing meta rows must not NaN-coerce the orig rows'
    lineno to float64 (review r5: the two-sided union now ships an int64
    sentinel lineno for meta rows, so dtypes stay uniform)."""
    meta = rd.from_arrow(pa.table({
        "surt": ["com,example)/"],
        "ts": ["20210101000000"],
        "json": [json.dumps({"Identified-Payload-Type":
                             {"python-magic": "text/html"}})],
    }))
    orig = _mk_cdxj_ds([
        ("com,example)/", "20210101000000", json.dumps({"url": "a"})),
        ("com,nomatch)/", "20210101000000", json.dumps({"url": "b"})),
    ])
    monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES", 0)
    out = cdxj.merge_cdxj(meta, orig)
    for b in out.iter_batches(batch_format="pyarrow", batch_size=None):
        t = b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        if t.num_rows:
            assert t.schema.field("lineno").type == pa.int64(), t.schema
    linenos = sorted(r["lineno"] for r in out.take_all())
    assert linenos == [0, 1] and all(isinstance(x, int) for x in linenos)


def test_merge_auto_small_and_overflow(monkeypatch, spy):
    """A small build side takes the broadcast plan; with the limit forced to
    0 it must fall back to the partitioned plan and still produce identical
    output."""
    _merge_case()
    monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES", 0)
    _merge_case()

    # four meta blocks of 50 lines; every other original line matches one
    blocks = [pa.table({
        "surt": [f"com,ex{i})/" for i in range(lo, lo + 50)],
        "ts": ["20210101000000"] * 50,
        "json": [json.dumps({"Preservation-Identifier": f"fmt/{i}"})
                 for i in range(lo, lo + 50)],
    }) for lo in range(0, 200, 50)]
    orig = _mk_cdxj_ds([(f"com,ex{i})/", "20210101000000",
                         json.dumps({"url": str(i)})) for i in range(0, 400, 2)])

    def merged():
        out = cdxj.merge_cdxj(rd.from_arrow(blocks), orig).take_all()
        return sorted(out, key=lambda r: r["lineno"])

    monkeypatch.undo()
    calls = spy(shuffle, "copartition")
    want = merged()  # broadcast plan
    assert sum(r["matched"] for r in want) == 100 and not calls

    # a limit one byte under the meta side: the join exchanges
    monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES",
                        sum(b.nbytes for b in blocks) - 1)
    assert merged() == want
    assert len([c for c in calls if isinstance(c[0], list)]) == 1


@pytest.mark.parametrize("empty", ["zero_row", "all_filtered"])
def test_partitioned_merge_with_empty_meta_side(monkeypatch, spy, empty):
    """No meta lines: every original line passes through unmatched, on the
    partitioned plan as on the broadcast one — also when the meta side's
    empty blocks have no columns (a filter that drops every row)."""
    meta_t = pa.table({"surt": ["com,ex0)/"], "ts": ["20210101000000"],
                       "json": [json.dumps({"Soft-404-Detected": 0.5})]})
    meta = (rd.from_arrow(meta_t.slice(0, 0)) if empty == "zero_row"
            else rd.from_arrow(meta_t).filter(lambda r: False))
    orig = _mk_cdxj_ds([(f"com,ex{i})/", "20210101000000",
                         json.dumps({"url": str(i)})) for i in range(50)])

    def merged():
        return sorted(cdxj.merge_cdxj(meta, orig).take_all(),
                      key=lambda r: r["lineno"])

    want = merged()
    assert len(want) == 50 and not any(r["matched"] for r in want)
    # an empty build side measures 0 bytes: only -1 forces the exchange
    calls = spy(shuffle, "copartition")
    monkeypatch.setattr(shuffle, "BROADCAST_MAX_BYTES", -1)
    assert merged() == want
    assert len([c for c in calls if isinstance(c[0], list)]) == 1


def test_canonicalization_port_and_path_rules():
    """Public SURT details: default port dropped, non-default kept, duplicate
    slashes collapsed, %-escapes hex-uppercased, fragment dropped."""
    from sidecar.canon import canonical_url, host_of, surt

    assert surt("https://ex.com:443/a") == surt("https://ex.com/a")
    assert surt("http://ex.com:80/a") == "com,ex)/a"
    assert surt("http://ex.com:8080/a") == "com,ex:8080)/a"
    assert surt("http://ex.com//a///b") == "com,ex)/a/b"
    assert surt("http://ex.com/a%2Fb") == "com,ex)/a%2fb"  # surt lowercases
    from sidecar.canon import canonical_url as cu

    assert cu("http://ex.com/a%2fb") == "http://ex.com/a%2Fb"  # canon uppercases hex
    assert canonical_url("http://ex.com/p#frag") == "http://ex.com/p"
    assert host_of("http://ex.com:8080/x") == "ex.com"


def test_schemeless_port_and_ipv6_hosts():
    """Scheme-less host:port urls must not lex the host as a URL scheme
    (seen-set / politeness keys would lose the host entirely), and IPv6
    literals keep their address through host_of / surt (review r5)."""
    from sidecar.canon import canonical_url, host_of, split_url, surt

    # 'example.com:8080/y' is a host:port, not a scheme
    assert split_url("example.com:8080/y")[0] == "example.com:8080"
    assert surt("example.com:8080/y") == "com,example:8080)/y"
    assert host_of("example.com:8080/y") == "example.com"
    assert host_of("localhost:9999") == "localhost"
    # real schemes still lex as schemes
    assert split_url("dns:example.com")[0] == ""
    assert surt("http://example.com/x") == surt("example.com/x")
    # IPv6: per-address politeness buckets, bracketed host:port in keys
    assert host_of("http://[::1]:8080/x") == "::1"
    assert host_of("http://[2001:db8::1]/p") == "2001:db8::1"
    assert surt("http://[::1]:8080/x") == "[::1]:8080)/x"
    assert surt("http://[2001:db8::1]/p") == "[2001:db8::1])/p"
    assert canonical_url("http://[::1]:8080/x") == "http://[::1]:8080/x"
    # distinct IPv6 hosts get DISTINCT seen-set keys
    assert surt("http://[::1]/p") != surt("http://[::2]/p")


@pytest.mark.parametrize("url, want", [
    # opaque URIs keep their scheme, as mailto: always did
    ("tel:5551234", ")5551234"),
    ("tel:911", ")911"),
    ("urn:3gpp:x", ")3gpp:x"),
    ("mailto:a@b.com", ")a@b.com"),
    # scheme-less host:port forms are unchanged
    ("example.com:8080/x", "com,example:8080)/x"),
    ("localhost:8080/x", "localhost:8080)/x"),
    # bracketed hosts pass through whole, IPv4-mapped IPv6 included
    ("http://[::ffff:192.0.2.4]/a", "[::ffff:192.0.2.4])/a"),
    ("http://[::ffff:192.0.2.4]:8080/a", "[::ffff:192.0.2.4]:8080)/a"),
])
def test_surt_opaque_uris_and_bracketed_hosts(url, want):
    assert surt(url) == want


def test_alpha3_full_table_merge():
    """The merge CLI accepts arbitrary Languages-cld2 codes — the full
    ISO-639-1 table converts (reference langcodes path, merge_cdxj.py:12-27),
    not just the five codes the in-repo detector emits."""
    from sidecar.cdxj import ALPHA3, get_alpha3_language_codes, get_sidecar_fields

    assert ALPHA3["ja"] == "jpn" and ALPHA3["ko"] == "kor" and ALPHA3["ru"] == "rus"
    assert len(ALPHA3) > 150
    assert get_alpha3_language_codes(
        [{"code": "ja"}, {"code": "xx"}, {"code": "sv"}]) == "jpn,swe"
    enriched = get_sidecar_fields(
        {"url": "http://x"},
        {"Languages-cld2": {"languages": [{"code": "ja"}]}})
    assert enriched["languages"] == "jpn"


def test_surt_ia_default_canonicalizations():
    """The reference's surt.surt applies the IA default canonicalizer:
    session ids stripped from path and query, IDN hosts punycoded."""
    sid = "0123456789abcdefghijklmnopqrstuv"  # 32 chars
    assert surt(f"http://example.com/page;jsessionid={sid}?a=1&PHPSESSID={sid}") \
        == "com,example)/page?a=1"
    assert surt("http://h.com/p?cfid=123&cftoken=abc&x=1") == "com,h)/p?x=1"
    # cfid WITHOUT cftoken is an ordinary param and survives
    assert surt("http://h.com/p?cfid=123&x=1") == "com,h)/p?cfid=123&x=1"
    # short (non-session) sid params survive
    assert surt("http://h.com/p?sid=7") == "com,h)/p?sid=7"
    assert surt("http://bücher.example/x") == "example,xn--bcher-kva)/x"


def test_merge_empty_meta_object_is_no_match():
    """merge_cdxj.py:72 matches on TRUTHINESS: a meta line whose JSON is {}
    must leave the original line byte-identical and uncounted as edited."""
    import ray.data as rd

    from sidecar.cdxj import merge_cdxj

    meta = rd.from_items([{"surt": "com,x)/", "ts": "20210101000000",
                           "json": "{}"}])
    orig = rd.from_items([{"surt": "com,x)/", "ts": "20210101000000",
                           "json": '{"url": "http://x.com/"}'}])
    out = merge_cdxj(meta, orig).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["json"] == '{"url": "http://x.com/"}'
    assert not out.iloc[0]["matched"]
