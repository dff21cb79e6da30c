"""Property-based tests (hypothesis, fixed seeds — beyond the reference's
example-based suite, SURVEY.md §5.2): canonicalization idempotence, codec
round-trips, filter membership laws, hash invariances."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sidecar import codecs
from sidecar.canon import canonical_url, host_of, surt, url_hash

_SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)

url_strategy = st.builds(
    lambda scheme, www, host, path, q: f"{scheme}://{www}{host}.example.com/{path}"
    + (f"?{q}" if q else ""),
    st.sampled_from(["http", "https"]),
    st.sampled_from(["", "www."]),
    st.text(alphabet="abcdefghij0123456789-", min_size=1, max_size=12),
    st.text(alphabet="abcdefghij0123456789/._-", max_size=20),
    st.text(alphabet="abcdef=&123", max_size=12),
)


@settings(**_SETTINGS)
@given(url_strategy)
def test_canonicalization_idempotent(url):
    c = canonical_url(url)
    assert canonical_url(c) == c
    assert url_hash(c) == url_hash(canonical_url(c))
    assert 0 <= url_hash(c) < 2 ** 64


@settings(**_SETTINGS)
@given(url_strategy)
def test_surt_shape(url):
    s = surt(url)
    assert s == s.lower() or not s.isascii()
    # surt key starts with the reversed-host comma form
    host = host_of(url)
    if host:
        first_label = host.split(".")[-1]
        assert s.startswith(first_label.lower().lstrip("www."))


@settings(**_SETTINGS)
@given(st.integers(2, 24), st.integers(2, 24), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["png", "ppm", "b16"]))
def test_codec_roundtrip_property(w, h, seed, fmt):
    rng = np.random.Generator(np.random.PCG64(seed))
    px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    back = codecs.decode(codecs.encode(px, fmt), fmt)
    assert back.shape == px.shape
    if fmt == "b16":
        assert codecs.psnr(px, back) >= 40.0  # input_hint lossy bound
    else:
        assert (back == px).all()


@settings(**_SETTINGS)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=200,
                unique=True))
def test_cuckoo_no_false_negatives(hashes):
    from sidecar.state import CuckooFilter

    f = CuckooFilter(n_buckets=1 << 12)
    arr = np.array(hashes, dtype=np.uint64)
    for x in arr:
        f.add(int(x))
    assert f.contains_many(arr).all()  # approximate filters may false-POSITIVE
    # but a contained item must never read as absent


@settings(**_SETTINGS)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=500,
                unique=True))
def test_bloom_no_false_negatives(hashes):
    from sidecar.state import BloomFilter

    f = BloomFilter(n_bits=1 << 16)
    arr = np.array(hashes, dtype=np.uint64)
    f.add_many(arr)
    g = BloomFilter.deserialize(f.serialize())
    assert g.maybe_contains(arr).all()


@settings(**_SETTINGS)
@given(st.lists(st.text(alphabet="abcde ", min_size=1, max_size=40),
                min_size=1, max_size=20))
def test_minhash_order_invariant(texts):
    from sidecar.ops.dedup import _minhash_sig, _shingles

    text = " ".join(texts)
    sh = _shingles(text)
    if not sh:
        return
    import random

    shuffled = list(sh)
    random.Random(0).shuffle(shuffled)
    assert _minhash_sig(sh) == _minhash_sig(shuffled)  # set semantics


def _cdxj_json_reference(row: dict) -> str:
    """The CDXJ JSON payload as ``cdxj.sidecar_row_to_cdxj_json`` built it
    field by field before it went through the sidecar payload: the bytes
    the current function must keep."""
    import json

    from sidecar.pipeline import _lang_struct_to_ref

    d: dict = {}
    mime_dict = {}
    if row.get("mime_fido"):
        mime_dict["fido"] = row["mime_fido"]
    if row.get("mime_magic"):
        mime_dict["python-magic"] = row["mime_magic"]
    if mime_dict:
        d["Identified-Payload-Type"] = mime_dict
    if row.get("puid"):
        d["Preservation-Identifier"] = row["puid"]
    cs = row.get("charset")
    if cs and cs.get("encoding"):
        d["Charset-Detected"] = {"encoding": cs["encoding"],
                                 "confidence": cs["confidence"]}
    lang = _lang_struct_to_ref(row.get("languages"))
    if lang:
        d["Languages-cld2"] = lang
    if row.get("soft404") is not None:
        d["Soft-404-Detected"] = row["soft404"]
    return json.dumps(d)


_finite = st.floats(allow_nan=False, allow_infinity=False)
# SIDECAR rows with each field null, empty or set; puids are PRONOM ids
sidecar_rows = st.fixed_dictionaries({
    "mime_fido": st.none() | st.text(max_size=12),
    "mime_magic": st.none() | st.text(max_size=12),
    "puid": st.sampled_from([None, "", "fmt/96", "x-fmt/111"]),
    "charset": st.none() | st.fixed_dictionaries({
        "encoding": st.sampled_from([None, "", "ascii", "ISO-8859-1"]),
        "confidence": st.none() | _finite}),
    "languages": st.none() | st.fixed_dictionaries({
        "reliable": st.booleans(), "text_bytes": st.integers(0, 1 << 20),
        "languages": st.lists(st.fixed_dictionaries({
            "name": st.text(max_size=8), "code": st.text(max_size=3),
            "text_covered": st.integers(0, 100), "score": _finite}),
            max_size=3)}),
    "soft404": st.none() | _finite,
    "url": st.just("https://x.example.com/"),
    "ts": st.just("20210101000000"),
})


@settings(**_SETTINGS)
@given(sidecar_rows)
def test_sidecar_payload_roundtrip(row):
    """SIDECAR row → sidecar payload → CDXJ JSON (F10/F12 law): the same
    string as building the JSON from the row's fields directly."""
    from sidecar.cdxj import sidecar_row_to_cdxj_json

    assert sidecar_row_to_cdxj_json(row) == _cdxj_json_reference(row)


@given(st.lists(st.text(alphabet=st.characters(codec="utf-8",
                                               exclude_characters="\x00"),
                        max_size=20), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_md5_graph_hash_matches_duckdb(parts):
    """synth._h_md5 (the crawl_sql_exact graph hash) equals DuckDB's
    md5_number_upper of the chr(31)-joined parts for arbitrary strings."""
    import duckdb

    from sidecar.synth import _h_md5

    joined = "\x1f".join(parts)
    con = duckdb.connect()
    got = con.sql("SELECT md5_number_upper(?)", params=[joined]).fetchone()[0]
    assert int(got) == _h_md5(*parts)


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_popcount64_lut(xs):
    from sidecar.ops.multimodal import _popcount64

    arr = np.array(xs, dtype=np.uint64)
    want = np.array([bin(x).count("1") for x in xs], dtype=np.int64)
    assert (_popcount64(arr) == want).all()


@given(st.lists(st.integers(0, 2 ** 63 - 1), min_size=1, max_size=50))
@settings(max_examples=40, deadline=None)
def test_stratified_hash_uint64_parity(keys):
    """The mask-first Knuth hash equals the arbitrary-precision Python
    computation for any int64 key (no wrap divergence)."""
    k = np.array(keys, dtype=np.int64)
    h = (((k.astype(np.uint64) % np.uint64(1 << 32)) * np.uint64(2654435761))
         % np.uint64(1 << 32)) % np.uint64(1000)
    want = [((x % (1 << 32)) * 2654435761) % (1 << 32) % 1000 for x in keys]
    assert h.astype(np.int64).tolist() == want
