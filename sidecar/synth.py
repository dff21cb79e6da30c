"""Deterministic synthetic corpus: image+caption rows (the ``input_hint``
table shape), a crawl link graph, and robots rules.  Everything is a pure
function of (seed, key) via blake2b — order-independent and process-stable,
which is what makes the bit-for-bit crawl-reproducibility contract testable
(FIXTURES.md §1-2).

No external data, no wall clock, no ``random`` module state.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np
import pyarrow as pa

from sidecar import codecs
from sidecar.detect.phash import phash64_batch

IMAGES_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)
FETCH_SCHEMA = IMAGES_SCHEMA.remove(IMAGES_SCHEMA.get_field_index("phash"))

_SIZES = (16, 32, 64, 128)
_IMG_FMTS = ("png", "ppm", "b16")

_CAPTION_WORDS = {
    "en": "the quick brown fox jumps over a lazy dog and they run from this page with what will be there when we said that".split(),
    "es": "el perro la casa de que y en un ser se no por con su para como este pero más hacer si me ya los las del".split(),
    "de": "der die und in den von zu das mit sich des auf für ist im dem nicht ein eine als auch es an werden aus".split(),
    "fr": "le chat de un être et à il avoir ne je son que se qui ce dans en du elle au pour pas vous par sur les des".split(),
}
_LANG_KEYS = sorted(_CAPTION_WORDS)
_SOFT404_PHRASES = (
    "page not found sorry this page does not exist",
    "error 404 the page you requested cannot be found",
    "sorry nothing here the content is no longer available",
)


def _h(*parts: object) -> int:
    """Stable 64-bit hash of the argument tuple."""
    b = hashlib.blake2b("\x1f".join(map(str, parts)).encode(), digest_size=8)
    return int.from_bytes(b.digest(), "big")


def _h_md5(*parts: object) -> int:
    """SQL-reproducible 64-bit hash: DuckDB's ``md5_number_upper(s)`` is the
    LITTLE-endian read of the first 8 digest bytes, so an oracle query can
    recompute this exactly as
    ``md5_number_upper(p0 || chr(31) || p1 || ...)``.  Used by the
    ``graph="md5"`` crawl graph whose whole 3-epoch crawl is replayed in
    pure SQL by the driver's correctness gate (crawl_sql_exact)."""
    b = hashlib.md5("\x1f".join(str(p) for p in parts).encode())
    return int.from_bytes(b.digest()[:8], "little")


def _priority_md5(url: str, seed: int) -> float:
    """md5-graph priorities are a function of the URL ALONE (unlike the
    blake2b graph's per-link-instance priorities): duplicate candidates for
    one URL then always TIE on priority, so the frontier's total order
    ``(-priority, depth, url_hash, seed_id, url)`` degrades to the
    SQL-computable ``(depth, seed_id)`` inside a URL group, and distinct
    URLs get 1-in-1e9 priorities (verified collision-free per host per
    epoch for the shipped config by tests/test_crawl.py)."""
    return float(_h_md5(seed, "prio", url) % 1_000_000_000) / 1e9


def make_pixels(key: str, w: int, h: int, seed: int = 42) -> np.ndarray:
    """Seeded gradient + noise pattern, HxWx3 uint8 (FIXTURES.md §1)."""
    rng = np.random.Generator(np.random.PCG64(_h(seed, "pixels", key) & 0x7FFFFFFFFFFFFFFF))
    px = rng.integers(-24, 25, size=(h, w, 3))
    # the gradient is added into the noise in place, per channel
    x = np.arange(w, dtype=np.int64)
    y = np.arange(h, dtype=np.int64)[:, None]
    px[..., 0] += (x * 255) // max(1, w - 1)
    px[..., 1] += (y * 255) // max(1, h - 1)
    px[..., 2] += ((x + y) * 255) // max(1, w + h - 2)
    return px.clip(0, 255).astype(np.uint8)


def make_caption(key: str, seed: int = 42) -> tuple[str, str]:
    """Deterministic caption → (caption, lang).  ~5% empty, ~3% soft-404
    phrases, one control-char-polluted variant class (FIXTURES.md §1)."""
    r = _h(seed, "caption", key)
    if r % 100 < 5:
        return "", ""
    if r % 100 < 8:
        return _SOFT404_PHRASES[r % len(_SOFT404_PHRASES)], "en"
    lang = _LANG_KEYS[(r >> 8) % len(_LANG_KEYS)]
    words = _CAPTION_WORDS[lang]
    n = 6 + (r >> 16) % 18
    cap = " ".join(words[_h(seed, "w", key, i) % len(words)] for i in range(n))
    if r % 100 < 12:  # control-char-polluted variant
        cap = cap[: len(cap) // 2] + "\x02" + cap[len(cap) // 2 :]
    return cap, lang


def _fetch(keys: Sequence[str], seed: int,
           captions: Sequence[str] | None) -> tuple[pa.Table, list]:
    """``keys`` fetched: the FETCH_SCHEMA table, and each row's source
    pixels (None for html/text rows)."""
    rows = []
    for j, key in enumerate(keys):
        caption = make_caption(key, seed)[0] if captions is None else captions[j]
        r = _h(seed, "row", key)
        kind = r % 10
        if kind == 0:  # html payload row (text path incl. soft-404 gate)
            body = "<!DOCTYPE html>\n<html><body><p>%s</p></body></html>" % caption
            rows.append((key, body.encode(), 0, 0, "html", caption, None))
        elif kind == 1:  # plain-text payload row
            rows.append((key, ("caption: %s\n" % caption).encode(), 0, 0,
                         "text", caption, None))
        else:
            w = _SIZES[(r >> 4) % len(_SIZES)]
            h = _SIZES[(r >> 6) % len(_SIZES)]
            fmt = _IMG_FMTS[(r >> 2) % len(_IMG_FMTS)]
            pixels = make_pixels(key, w, h, seed)
            rows.append((key, codecs.encode(pixels, fmt), w, h, fmt, caption, pixels))
    cols = list(zip(*rows)) or [()] * 7
    table = pa.Table.from_arrays(
        [pa.array(c, f.type) for c, f in zip(cols, FETCH_SCHEMA)], schema=FETCH_SCHEMA)
    return table, cols[6]


def fetch_batch(keys: Sequence[str], seed: int = 42,
                captions: Sequence[str] | None = None) -> pa.Table:
    """The deterministic 'fetcher' (ST7) for a batch of keys: IMAGES columns
    without ``phash``, i.e. what a network fetch returns (the extraction
    decodes and hashes the payload itself).  Stands in for the network: at
    scale this is the only stage that touches bytes."""
    return _fetch(keys, seed, captions)[0]


def make_rows(keys: Sequence[str], seed: int = 42,
              captions: Sequence[str] | None = None) -> pa.Table:
    """IMAGES rows for ``keys``: ``fetch_batch`` plus ``phash``, from one
    ``phash64_batch`` call.  Pure function of (seed, key[, caption])."""
    table, pixels = _fetch(keys, seed, captions)
    fmts = table.column("fmt").to_pylist()
    img = [i for i, px in enumerate(pixels) if px is not None]
    # phash is over the *decoded* pixels, so lossy fmts hash what a reader
    # decodes.  That result is known without the zlib round-trip: lossless
    # fmts give the source pixels back, b16 their 7-bit quantization.
    ph = np.zeros(len(pixels), dtype=np.uint64)
    ph[img] = phash64_batch([
        pixels[i] if fmts[i] in codecs.LOSSLESS
        else ((pixels[i] >> 1) << 1 | 1).astype(np.uint8) for i in img])
    return table.append_column(IMAGES_SCHEMA.field("phash"),
                               pa.array(ph.view(np.int64)))


def make_row(key: str, seed: int = 42, caption: str | None = None) -> dict:
    """One IMAGES row as a dict; pure function of (seed, key[, caption])."""
    return make_rows([key], seed, None if caption is None else [caption]).to_pylist()[0]


def make_images_table(n: int, seed: int = 42, prefix: str = "img") -> pa.Table:
    return make_rows([f"{prefix}-{i:08d}" for i in range(n)], seed)


# ---------------------------------------------------------------------------
# Crawl graph (FIXTURES.md §2): hosts, seeds, deterministic out-links, robots.
# ---------------------------------------------------------------------------

HOT_HOST = "hot.example.com"


def _host(k: int) -> str:
    return HOT_HOST if k == 0 else f"host{k:02d}.example.com"


def hosts(n_hosts: int = 20) -> list[str]:
    return [_host(k) for k in range(max(1, n_hosts))]


def make_seed(i: int, n_hosts: int = 20, seed: int = 42,
              graph: str = "b2") -> dict:
    """Seed ``i`` of the seed list, a pure function of (seed, i): any range
    of ids can be built anywhere (the crawl builds its seed frontier in
    tasks, one block of ids each).  ``graph="md5"`` switches to the
    SQL-reproducible hash family (see ``_h_md5``) with URL-determined
    priorities."""
    r = (_h_md5 if graph == "md5" else _h)(seed, "seed", i)
    url = f"https://{_host(r % max(1, n_hosts))}/seed/{i}"
    prio = (_priority_md5(url, seed) if graph == "md5"
            else float((r >> 8) % 1000) / 1000.0)
    return {"seed_id": i, "url": url, "priority": prio}


def make_seeds(n_seeds: int = 100, n_hosts: int = 20, seed: int = 42,
               graph: str = "b2") -> list[dict]:
    """Seed list: ``make_seed`` for ids 0..n_seeds-1."""
    return [make_seed(i, n_hosts, seed, graph) for i in range(n_seeds)]


def out_links(url_canon: str, n_hosts: int = 20, seed: int = 42,
              graph: str = "b2", hot_frac: int = 4) -> list[tuple[str, float]]:
    """Deterministic link discovery: fan-out 0–8 links per page, ~30%
    duplicate targets, the hot host receives ~``hot_frac``/10 of all links
    (skew; default 40% — the frozen graphs).  ``graph="md5"`` is the
    SQL-reproducible variant (same structure, md5 hashes, URL-determined
    priorities)."""
    hf = _h_md5 if graph == "md5" else _h
    r = hf(seed, "links", url_canon)
    fan = r % 9
    hs = hosts(n_hosts)
    links = []
    for j in range(fan):
        rj = hf(seed, "link", url_canon, j)
        if rj % 10 < hot_frac or len(hs) == 1:  # 1-host graphs degrade to it
            host = HOT_HOST
        else:
            host = hs[rj % (len(hs) - 1) + 1]
        # ~30% of links point at a small shared id space (duplicates); the
        # md5 graph reads a DIFFERENT bit range than the hot-host rule above
        # (the frozen b2 graph reuses rj % 10 — preserved exactly)
        dup = (rj >> 8) % 10 < 3 if graph == "md5" else rj % 10 < 3
        page_id = rj % 40 if dup else rj % 100000
        url = f"https://{host}/page/{page_id}"
        prio = (_priority_md5(url, seed) if graph == "md5"
                else float((rj >> 16) % 1000) / 1000.0)
        links.append((url, prio))
    return links


def robots_txt(host: str, seed: int = 42, graph: str = "b2") -> str:
    """Deterministic robots.txt TEXT per host (parsed by sidecar.robots):
    ~25% of hosts disallow a path prefix; of those, half carry an Allow
    override and some a wildcard/$-anchored rule — exercising the RFC 9309
    longest-match + allow-wins-ties semantics."""
    r = (_h_md5 if graph == "md5" else _h)(seed, "robots", host)
    if r % 4 != 0:
        return "User-agent: *\nDisallow:\n"
    d = r % 10
    lines = ["User-agent: *", f"Disallow: /page/{d}"]
    if (r >> 4) % 2 == 0:
        # allow-override: the exact page id {d}0 is re-allowed (longer match)
        lines.append(f"Allow: /page/{d}0")
    if (r >> 5) % 4 == 0:
        # $-anchored rule: the bare id {d} only (not its decade)
        lines = ["User-agent: *", f"Disallow: /page/{d}$"]
    return "\n".join(lines) + "\n"


def robots_rules(n_hosts: int = 20, seed: int = 42,
                 graph: str = "b2") -> dict[str, list]:
    """Parsed robots rules per host (sidecar.robots rule lists)."""
    from sidecar.robots import parse_robots

    return {host: parse_robots(robots_txt(host, seed, graph))
            for host in hosts(n_hosts)}


def fetch_url(url_canon: str, seed: int = 42) -> dict:
    """One URL through the deterministic fetcher, as an IMAGES row with its
    ``phash``: the per-URL form the crawl oracle replays.  The engine's
    fetch stages call :func:`fetch_batch`."""
    return make_row(url_canon, seed)
