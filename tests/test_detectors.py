"""Unit contracts ported from the reference's detector tests
(tests/test_warc_metadata_sidecar.py:55-106) — table-level asserts on our
deterministic detectors, same shapes as fido/chardet/pycld2/soft404 output."""

import hashlib
import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

from sidecar import codecs, synth
from sidecar.detect import (
    find_character_set,
    find_character_set_batch,
    find_language,
    find_language_batch,
    phash64,
    sniff,
    sniff_batch,
    soft404_probability,
)
from sidecar.detect.soft404 import soft404_batch


def test_mime_and_puid_shapes():
    # reference contract (:55-58): (mime_dict, puid) with fido + python-magic keys
    mime_dict, puid = sniff(b"<!DOCTYPE html><html><body>x</body></html>")
    assert mime_dict == {"fido": "text/html", "python-magic": "text/html"}
    assert puid == "fmt/471"  # reference golden: HTML5 doctype -> fmt/471
    mime_dict, puid = sniff(codecs.encode_png(np.zeros((4, 4, 3), np.uint8)))
    assert mime_dict["fido"] == "image/png" and puid == "fmt/11"


def test_mime_batch_matches_scalar():
    payloads = [
        b"GIF89a....",
        b"\xff\xd8\xff\xe0jpeg",
        b"P6\n2 2\n255\n" + b"\x00" * 12,
        b"%PDF-1.4",
        b"plain words here",
        b"",
        b"\x00\x01\x02\x03",
        b"{\"a\": 1}",
    ]
    fido, magic, puid = sniff_batch(pa.array(payloads, type=pa.binary()))
    for i, p in enumerate(payloads):
        md, pu = sniff(p)
        assert md.get("fido") == fido[i]
        assert md.get("python-magic") == magic[i]
        assert pu == puid[i]


def test_charset_shapes_and_batch_parity():
    # reference contract (:61-64): {'encoding', 'confidence'}
    assert find_character_set(b"pure ascii") == {"encoding": "ascii", "confidence": 1.0}
    assert find_character_set("héllo".encode())["encoding"] == "utf-8"
    assert find_character_set(b"\xff\x00bad\xff")["encoding"] == "ISO-8859-1"
    payloads = [b"ascii", "héllo".encode(), b"\xff\x00x\xff", b""]
    enc, conf = find_character_set_batch(pa.array(payloads, type=pa.binary()))
    for i, p in enumerate(payloads):
        ref = find_character_set(p)
        if p:
            assert enc[i] == ref["encoding"] and conf[i] == ref["confidence"]
        else:
            assert enc[i] is None


def test_language_shape_and_unknown_none():
    # reference contracts (:67-77): cld2 dict shape; all-Unknown → None
    r = find_language(b"the cat and the dog went to the page and said this was that")
    assert r["reliable"] is True
    assert set(r.keys()) == {"reliable", "text-bytes", "languages"}
    assert r["languages"][0]["code"] == "en"
    assert set(r["languages"][0]) == {"name", "code", "text-covered", "score"}
    assert find_language(b"zzz qqq kkk 123") is None  # Unknown-only → None (:112-126)
    assert find_language(b"") is None


def test_language_batch_bit_identical_to_scalar():
    texts = [
        "the cat and the dog on the page",
        "el perro y la casa de que no se",
        "der hund und die katze in dem haus",
        "le chat et le chien dans la maison du parc",
        "你好世界 中文 测试 文本 这是 一个 好 的",
        "mixed the dog el perro und die le chat",
        "\x02control\x02 the and of to a in is it",
        "",
        "zzz",
    ]
    batch = find_language_batch(pa.array(texts))
    for i, t in enumerate(texts):
        assert find_language(t) == batch[i], t


def test_soft404_gate_values_and_parity():
    hit = soft404_probability("sorry, page not found — error 404")
    miss = soft404_probability("welcome to our homepage full of content")
    assert hit > 0.9 > 0.1 > miss
    b = soft404_batch(pa.array(["sorry, page not found — error 404", "welcome"]))
    assert b[0] == hit  # bit-identical scalar/batch


def test_phash_properties():
    px = synth.make_pixels("p", 64, 48)
    h1 = phash64(px)
    assert h1 == phash64(px.copy())
    noisy = px.astype(np.int16)
    noisy[::7, ::5] += 2
    near = phash64(noisy.clip(0, 255).astype(np.uint8))
    assert bin(h1 ^ near).count("1") <= 8  # near-dup stays near
    other = phash64(synth.make_pixels("different", 64, 48))
    assert bin(h1 ^ other).count("1") >= 10  # distinct images far apart


def test_phash_fma_is_correctly_rounded():
    from fractions import Fraction

    from sidecar.detect.phash import _fma

    rng = np.random.default_rng(11)
    a = rng.standard_normal(4000) * 1e3
    b = rng.standard_normal(4000)
    c = rng.standard_normal(4000) * 10.0 ** rng.integers(-12, 6, 4000)
    c[:1000] = -(a[:1000] * b[:1000])  # cancellation: the result is a*b's rounding error
    got = _fma(a, b, c)
    want = [float(Fraction(x) * Fraction(y) + Fraction(z)) for x, y, z in zip(a, b, c)]
    assert got.tolist() == want


def test_phash_blas_screen_keeps_the_exact_order_bits(monkeypatch):
    """The BLAS product stands in for ``_dct8`` only where the bits agree:
    hashing every image through ``_dct8`` gives the same hashes, and a flat
    image (AC terms all rounding noise) takes the ``_dct8`` path."""
    from sidecar.detect import phash as phash_mod

    px = [synth.make_pixels(f"s{i}", 40 + i % 3, 30, seed=i) for i in range(60)]
    px += [np.full((1, 1, 3), 77, np.uint8), np.zeros((8, 8, 3), np.uint8)]
    screened = phash_mod.phash64_batch(px)
    exact_rows = []
    real = phash_mod._dct8
    monkeypatch.setattr(phash_mod, "_dct8",
                        lambda s: (exact_rows.append(len(s)), real(s))[1])
    phash_mod.phash64_batch(px[-2:-1])
    assert exact_rows == [1]
    monkeypatch.setattr(phash_mod, "_TIE_TOL", 1e6)  # above any gap: all exact
    assert np.array_equal(phash_mod.phash64_batch(px), screened)


@pytest.mark.parametrize("fmt", ["png", "ppm", "b16"])
def test_codec_roundtrip(fmt):
    px = synth.make_pixels("rt", 31, 19)
    back = codecs.decode(codecs.encode(px, fmt), fmt)
    if fmt in codecs.LOSSLESS:
        assert np.array_equal(px, back)
    else:
        assert codecs.psnr(px, back) >= 40.0  # input_hint PSNR bound


class TestDetectorProtocol:
    def test_builtins_registered(self):
        from sidecar.detect import protocol as proto

        for name in proto.BUILTIN_NAMES:
            assert isinstance(proto.get(name), proto.Detector)

    def test_register_toy_detector_without_editing_pipeline(self):
        """SURVEY §2.9: a user detector registers through the protocol and
        its column appears in the extraction output — no pipeline.py edit."""
        import numpy as np
        import pyarrow as pa

        import ray.data as rd

        from sidecar import pipeline, synth
        from sidecar.detect import protocol as proto

        class ByteLenDetector:
            name = "byte_len"

            def applies_to(self, ctx):
                return ctx.nonempty

            def run(self, ctx, mask):
                import pyarrow.compute as pc

                ln = pc.binary_length(ctx.payload).to_numpy(
                    zero_copy_only=False)
                return {"byte_len": pa.array(
                    np.where(mask, ln, 0).astype(np.int64), pa.int64())}

        proto.register(ByteLenDetector())
        try:
            imgs = pa.Table.from_pylist([
                {"image_id": "a", "bytes": b"hello world of words here",
                 "w": 0, "h": 0, "fmt": "", "caption": "", "phash": 0},
            ], schema=synth.IMAGES_SCHEMA)
            out = pipeline.sidecar_dataset(rd.from_arrow(imgs)).take_all()
            assert out[0]["byte_len"] == 25
        finally:
            proto.unregister("byte_len")
        # after unregister the column is gone
        imgs = pa.Table.from_pylist([
            {"image_id": "a", "bytes": b"hello", "w": 0, "h": 0,
             "fmt": "", "caption": "", "phash": 0},
        ], schema=synth.IMAGES_SCHEMA)
        out = pipeline.sidecar_dataset(rd.from_arrow(imgs)).take_all()
        assert "byte_len" not in out[0]

    def test_replace_builtin_detector(self):
        """Replacing a built-in (here: charset) changes the pipeline's
        output without editing pipeline.py, and restores cleanly."""
        import pyarrow as pa

        import ray.data as rd

        from sidecar import pipeline, schemas, synth
        from sidecar.detect import protocol as proto

        class FixedCharset:
            name = "charset"

            def applies_to(self, ctx):
                return ctx.is_text

            def run(self, ctx, mask):
                return {"charset": pa.array(
                    [{"encoding": "x-custom", "confidence": 1.0}
                     if m else None for m in mask],
                    type=schemas.CHARSET_T)}

        original = proto.get("charset")
        proto.register(FixedCharset())
        try:
            imgs = pa.Table.from_pylist([
                {"image_id": "a",
                 "bytes": b"plain text content with several words",
                 "w": 0, "h": 0, "fmt": "", "caption": "", "phash": 0},
            ], schema=synth.IMAGES_SCHEMA)
            out = pipeline.sidecar_dataset(rd.from_arrow(imgs)).take_all()
            assert out[0]["charset"]["encoding"] == "x-custom"
        finally:
            proto.register(original)


def test_sniff_batch_sliced_array_offsets():
    """A SLICED binary array must decode at the right byte positions:
    arr.offset indexes the offsets buffer (elements), it is not a byte
    delta — adding it corrupted every detection on sliced inputs."""
    import numpy as np
    import pyarrow as pa

    from sidecar.detect.charset import find_character_set_batch
    from sidecar.detect.mime import sniff_batch

    arr = pa.array([b"GARBAGEGARBAGE", b"\x89PNG\r\n\x1a\nxxxx",
                    b"<!DOCTYPE html><p>hi</p>"], type=pa.binary()).slice(1)
    fido, magic, puid = sniff_batch(arr)
    assert list(magic) == ["image/png", "text/html"]
    assert list(puid) == ["fmt/11", "fmt/471"]
    enc, conf = find_character_set_batch(
        pa.array([b"\xffbinary", b"plain ascii text here"]).slice(1))
    assert enc[0] == "ascii" and conf[0] == 1.0


def test_plain_text_has_no_fido_and_no_puid():
    """Reference parity: real fido has no plain-text signature, so the
    sidecar carries only the python-magic key and NO
    Preservation-Identifier line (reference tests :220-221)."""
    from sidecar.detect.mime import sniff

    mime_dict, puid = sniff(b"just some plain ascii words")
    assert mime_dict == {"python-magic": "text/plain"}
    assert puid is None


def test_utf16_bom_payload_is_text_with_charset():
    """UTF-16 payloads are text to python-magic; the charset stage's BOM
    branch must be reachable for them (it was dead code behind an
    octet-stream classification)."""
    from sidecar.detect.charset import find_character_set
    from sidecar.detect.mime import sniff

    payload = "hello world".encode("utf-16")  # BOM-prefixed
    mime_dict, puid = sniff(payload)
    assert mime_dict.get("python-magic") == "text/plain"
    assert find_character_set(payload) == {"encoding": "UTF-16", "confidence": 1.0}


def test_binary_without_early_control_bytes_is_not_text():
    """The printable heuristic checks a 64-byte window: binary whose first
    14 bytes happen to be printable must not classify as text/plain."""
    from sidecar.detect.mime import sniff

    blob = bytes(range(0x20, 0x7F))[:20] + b"\x01\x02\x03" + b"x" * 40
    mime_dict, _ = sniff(blob)
    assert mime_dict.get("python-magic") == "application/octet-stream"


def test_registry_swapped_mime_detector_keeps_pipeline_working():
    """SURVEY 2.9: a custom 'mime' detector that fulfills the protocol by
    RETURNING columns (without mutating ctx) must not crash the text gate."""
    import numpy as np
    import pyarrow as pa

    from sidecar.detect import protocol
    from sidecar.pipeline import extract_sidecar_batch

    class ConstMime:
        name = "mime"

        def applies_to(self, ctx):
            return np.ones(ctx.num_rows, dtype=bool)

        def run(self, ctx, mask):
            n = ctx.num_rows
            return {
                "mime_fido": pa.array(["text/plain"] * n, pa.string()),
                "mime_magic": pa.array(["text/plain"] * n, pa.string()),
                "puid": pa.array([None] * n, pa.string()),
            }

    reg = dict(protocol.snapshot())
    reg["mime"] = ConstMime()
    batch = pa.Table.from_pylist([{
        "image_id": "x", "url": "http://x/", "ts": "20210101000000",
        "bytes": b"some words here", "caption": "",
    }])
    out = extract_sidecar_batch(batch, registry=reg)
    assert out.num_rows == 1
    assert out.column("mime_magic").to_pylist() == ["text/plain"]


# ---------------------------------------------------------------- frozen pins
# sha1 literals computed before the image path was batched: they hold the
# hashes, the fetched rows and the sidecar image columns to the exact bytes
# of the per-image implementation, which the program's own synth + extract
# cross-checks cannot catch drifting.

PIN_SEEDS = (1, 42, 777)
ODD_SHAPES = ((1, 1), (3, 50), (31, 33), (33, 32), (200, 7), (17, 300), (100, 100))
PHASH_PIN = "663ab0013a53875de00ab8836afe9d8ebbde8add"


@pytest.fixture(scope="module")
def pin_tables() -> dict:
    return {seed: synth.make_images_table(3000, seed=seed) for seed in PIN_SEEDS}


def _pin_pixels(t: pa.Table) -> list:
    """The first 2,400 decoded images of the sidecar mix ``t``, then seeded
    odd shapes (h×w) that exercise the resize's degenerate blocks."""
    out = [codecs.decode(b, f) for b, f in zip(t.column("bytes").to_pylist(),
                                                t.column("fmt").to_pylist())
           if f in codecs.IMAGE_FMTS][:2400]
    assert len(out) == 2400
    return out + [synth.make_pixels(f"odd-{h}x{w}", w, h, seed=7)
                  for h, w in ODD_SHAPES]


def test_frozen_phash_pin(pin_tables):
    hashes = np.array([phash64(p) for p in _pin_pixels(pin_tables[1])],
                      dtype=">u8")
    assert hashlib.sha1(hashes.tobytes()).hexdigest() == PHASH_PIN


def test_frozen_images_table_pin(pin_tables):
    d = hashlib.sha1()
    for seed in PIN_SEEDS:
        t = pin_tables[seed]
        for r in zip(*(t.column(c).to_pylist() for c in
                       ("bytes", "w", "h", "fmt", "caption", "phash"))):
            d.update(r[0])
            d.update(repr(r[1:]).encode())
    assert d.hexdigest() == "72f2348356a140a62a566607905d6574f8d71855"


def test_frozen_extract_pin(pin_tables):
    from sidecar.pipeline import extract_sidecar_batch

    d = hashlib.sha1()
    for seed in PIN_SEEDS:
        out = extract_sidecar_batch(pin_tables[seed])
        for r in zip(*(out.column(c).to_pylist() for c in
                       ("phash", "w", "h", "fmt", "payload_digest"))):
            d.update(repr(r).encode())
    assert d.hexdigest() == "880ec1f7d5f60a11ebac9ddd8a787c96e6cbebea"


def test_phash64_batch_matches_pin_in_any_order(pin_tables, monkeypatch):
    """One stacked kernel per shape gives the per-image hashes, whatever the
    batch order and however a shape group is cut into stacks."""
    from sidecar.detect import phash as phash_mod
    from sidecar.detect import phash64_batch

    px = _pin_pixels(pin_tables[1])
    got = phash64_batch(px)
    assert got.dtype == np.uint64
    assert hashlib.sha1(got.astype(">u8").tobytes()).hexdigest() == PHASH_PIN
    order = np.random.default_rng(3).permutation(len(px))
    monkeypatch.setattr(phash_mod, "_MAX_PIXELS", 5000)
    shuffled = phash64_batch([px[i] for i in order])
    assert np.array_equal(shuffled, got[order])
    assert phash64_batch([]).shape == (0,)


def test_fetch_batch_is_make_rows_without_phash():
    keys = [f"url-{i}" for i in range(40)] + ["https://h.example.com/page/7", ""]
    caps = [f"caption {i}" for i in range(len(keys))]
    for captions in (None, caps):
        got = synth.fetch_batch(keys, seed=9, captions=captions)
        want = synth.make_rows(keys, seed=9, captions=captions)
        assert set(want.column("fmt").to_pylist()) >= {
            "html", "text", "png", "ppm", "b16"}
        assert got.equals(want.drop_columns(["phash"]))
        assert want.schema.equals(synth.IMAGES_SCHEMA)
    assert synth.fetch_batch([]).num_rows == 0


def test_image_detector_duplicates_corrupt_and_empty_payloads():
    """Duplicate digests copy their first row, a PNG whose IDAT does not
    inflate gets phash 0, w/h 0 and fmt "", and an empty payload drops."""
    from sidecar.pipeline import extract_sidecar_batch

    base = synth.make_images_table(12, seed=5)
    ids = base.column("image_id").to_pylist()
    blobs = base.column("bytes").to_pylist()
    assert base.column("fmt").to_pylist()[1] == "png"
    bad = bytearray(blobs[1])
    at = bad.index(b"IDAT") + 4 + 16
    bad[at:at + 8] = b"\x00" * 8
    dups = [1, 2, 4, 9, 11]
    batch = pa.table({
        "image_id": ["dup-first"] + ids + [f"dup-{ids[i]}" for i in dups]
        + ["corrupt", "empty", "corrupt-dup"],
        "bytes": pa.array([blobs[11]] + blobs + [blobs[i] for i in dups]
                          + [bytes(bad), b"", bytes(bad)], pa.binary()),
        "caption": [""] * 21,
    })
    out = extract_sidecar_batch(batch)
    got = list(zip(*(out.column(c).to_pylist()
                     for c in ("image_id", "phash", "w", "h", "fmt"))))
    b16, png1, ppm2, png4, b16_9 = (
        (-6328518194803774171, 32, 64, "b16"),
        (-6901810135884552094, 32, 32, "png"),
        (-6265347999100146065, 16, 16, "ppm"),
        (-8612023619352145877, 64, 64, "png"),
        (-6160978918182919357, 64, 128, "b16"))
    html, text, failed = (0, 0, 0, "html"), (0, 0, 0, "text"), (0, 0, 0, "")
    want = [
        ("dup-first",) + b16, ("img-00000000",) + text, ("img-00000001",) + png1,
        ("img-00000002",) + ppm2,
        ("img-00000003", -6178989133671953096, 32, 128, "ppm"),
        ("img-00000004",) + png4, ("img-00000005",) + html,
        ("img-00000006", -9187641035872608507, 32, 32, "ppm"),
        ("img-00000007",) + html,
        ("img-00000008", -9215915814793981322, 128, 128, "ppm"),
        ("img-00000009",) + b16_9, ("img-00000010",) + html,
        ("img-00000011",) + b16,
        ("dup-img-00000001",) + png1, ("dup-img-00000002",) + ppm2,
        ("dup-img-00000004",) + png4, ("dup-img-00000009",) + b16_9,
        ("dup-img-00000011",) + b16,
        ("corrupt",) + failed, ("corrupt-dup",) + failed,
    ]
    assert got == want


def test_no_per_image_phash_call_in_the_engine():
    """Images are hashed a batch at a time: ``phash64`` (a batch of one) is
    for tests and tools, never called inside the engine."""
    root = pathlib.Path(__file__).resolve().parents[1] / "sidecar"
    offenders = [
        f"{p.relative_to(root)}:{n}"
        for p in sorted(root.rglob("*.py")) if p != root / "detect" / "phash.py"
        for n, line in enumerate(p.read_text().splitlines(), 1)
        if re.search(r"\bphash64\(", line)
    ]
    assert offenders == []
