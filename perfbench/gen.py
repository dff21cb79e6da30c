"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of the benchmark seed: the same seed
gives byte-identical inputs.  Generators use only the standard library and
numpy/pyarrow, never the ``sidecar`` package, so a change to the program
cannot change the inputs it is measured on.

- ``sidecar_plan``: the synthetic-frontier URL range of each round.
- ``crawl_config``: the crawl shape (large seed list, tight per-host budget).
- ``write_warc_corpus``: WARC files plus their original CDXJ indexes.
- ``write_ops_tables``: the ten parquet tables the ops queries read.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def derive(seed: int, *parts: object) -> int:
    """Stable 31-bit sub-seed of ``seed`` for one named input."""
    h = hashlib.blake2b("\x1f".join(str(p) for p in (seed, *parts)).encode(),
                        digest_size=8)
    return int.from_bytes(h.digest(), "big") & 0x7FFFFFFF


# --------------------------------------------------------------------------
# sidecar: unique URLs through synthetic fetch -> extract -> parquet sink
# --------------------------------------------------------------------------

SIDECAR_URLS_PER_ROUND = 3000
SIDECAR_BLOCKS = 12


def sidecar_plan(seed: int, rounds: int, n_urls: int = SIDECAR_URLS_PER_ROUND
                 ) -> list[dict]:
    """One synthetic frontier per round: ``n_urls`` unique keys under a
    round-specific synth seed, so no two rounds fetch the same payload."""
    return [{"n_urls": n_urls, "synth_seed": derive(seed, "sidecar", r),
             "num_blocks": SIDECAR_BLOCKS} for r in range(rounds)]


# --------------------------------------------------------------------------
# crawl: every epoch's frontier above frontier.SMALL_FRONTIER_ROWS (20,000)
# --------------------------------------------------------------------------

CRAWL_SEEDS = 21_000
CRAWL_EPOCHS = 2


def crawl_config(seed: int, *, n_seeds: int = CRAWL_SEEDS) -> dict:
    """CrawlConfig keyword arguments.  21k seeds over 300 hosts with a
    budget of 2 URLs per host per epoch keep each frontier above 20k rows
    (the two-shuffle ``select_budget`` path) while fetching only 600 URLs an
    epoch, so candidates outnumber fetched URLs by about 35:1."""
    return {"n_seeds": n_seeds, "n_hosts": 300, "budget_per_host": 2,
            "max_epochs": CRAWL_EPOCHS, "seed": derive(seed, "crawl"),
            "num_seen_shards": 2, "num_policy_actors": 2,
            "num_fetch_partitions": 4, "hot_frac": 4}


# --------------------------------------------------------------------------
# warc: WARC files + original CDXJ indexes
# --------------------------------------------------------------------------

WARC_FILES = 3
WARC_RECORDS = 900
_WORDS = ("archive crawl page record index metadata sidecar harvest library "
          "digital collection web capture site content server domain link "
          "text image resource snapshot timestamp digest payload").split()
_HOSTS = [f"site{i:02d}.example.org" for i in range(12)] + ["library.unt.edu"]
# record mix: (kind, weight out of 100)
_MIX = (("html", 34), ("text", 16), ("image", 16), ("resource", 6),
        ("status", 10), ("revisit", 7), ("dns", 5), ("empty", 6))
DUP_FRAC = 0.3


def _png(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

    raw = np.zeros((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 1:] = pixels.reshape(h, w * 3)
    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw.tobytes(), 6))
            + chunk(b"IEND", b""))


def _ppm(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def _image(rng: np.random.Generator) -> tuple[bytes, str]:
    w, h = (int(x) for x in rng.choice([16, 24, 32], size=2))
    yy, xx = np.mgrid[0:h, 0:w]
    base = np.stack([xx * 255 // (w - 1), yy * 255 // (h - 1),
                     (xx + yy) * 255 // (w + h - 2)], axis=-1)
    px = (base + rng.integers(-30, 31, size=(h, w, 3))).clip(0, 255) \
        .astype(np.uint8)
    if rng.random() < 0.5:
        return _png(px), "image/png"
    return _ppm(px), "image/x-portable-pixmap"


def _sentence(rng: np.random.Generator, n: int) -> str:
    return " ".join(_WORDS[i] for i in rng.integers(0, len(_WORDS), size=n))


def surt_key(url: str) -> str:
    """SURT of the generator's simple URLs (``scheme://host/path``: lower
    case, no ``www``, no port, no query), as an independent CDX indexer
    would write it: ``org,example,site01)/path``."""
    rest = url.split("://", 1)[1]
    host, _, path = rest.partition("/")
    return ",".join(reversed(host.split("."))) + ")/" + path


def _warc_record(headers: list[tuple[str, str]], block: bytes) -> bytes:
    head = "WARC/1.0\r\n" + "".join(f"{k}: {v}\r\n" for k, v in headers)
    head += f"Content-Length: {len(block)}\r\n\r\n"
    return head.encode() + block + b"\r\n\r\n"


def _warc_file(seed: int, f: int, n_records: int) -> tuple[bytes, list[str], dict]:
    """One WARC file → (bytes, original CDXJ lines, record counts)."""
    rng = np.random.default_rng(derive(seed, "warc", f))
    name = f"bench-{f:03d}.warc"
    out = [_warc_record([("WARC-Type", "warcinfo"),
                         ("WARC-Date", "2021-03-01T00:00:00Z"),
                         ("WARC-Filename", name),
                         ("WARC-Record-ID", f"<urn:uuid:info-{f}>"),
                         ("Content-Type", "application/warc-fields")],
                        b"software: perfbench-gen\r\nformat: WARC/1.0\r\n")]
    kinds = [k for k, _ in _MIX]
    weights = np.array([w for _, w in _MIX], dtype=float) / 100.0
    bodies: dict[str, list[tuple[bytes, str]]] = {}
    cdxj: list[tuple[str, str, str]] = []
    counts = {"records": 0, "extracted": 0, "dup_payloads": 0}
    t0 = dt.datetime(2021, 3, 1, 10, 0, 0)
    for i in range(n_records):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        host = _HOSTS[int(rng.integers(0, len(_HOSTS)))]
        url = f"http://{host}/f{f}/r{i}/{_WORDS[int(rng.integers(0, len(_WORDS)))]}"
        date = (t0 + dt.timedelta(seconds=int(i * 7 + rng.integers(0, 5))))
        iso = date.strftime("%Y-%m-%dT%H:%M:%SZ")
        ts14 = date.strftime("%Y%m%d%H%M%S")
        rid = f"<urn:uuid:{f}-{i}>"
        status, mime = 200, "text/html"
        if kind in ("html", "text", "image", "resource", "status"):
            pool = bodies.setdefault(kind, [])
            if pool and rng.random() < DUP_FRAC:
                body, mime = pool[int(rng.integers(0, len(pool)))]
                counts["dup_payloads"] += 1
            else:
                if kind == "image":
                    body, mime = _image(rng)
                elif kind == "text" or kind == "resource":
                    body, mime = (_sentence(rng, int(rng.integers(8, 60)))
                                  .encode(), "text/plain")
                else:
                    words = _sentence(rng, int(rng.integers(10, 80)))
                    if kind == "status":
                        words = "sorry the page you requested was not found " \
                            + words[:40]
                    body = (f"<!DOCTYPE html>\n<html><head><title>{words[:20]}"
                            f"</title></head><body><p>{words}</p></body></html>"
                            ).encode()
                    mime = "text/html"
                pool.append((body, mime))
            if kind == "status":
                status = int(rng.choice([404, 410, 500, 301]))
        if kind == "resource":
            headers = [("WARC-Type", "resource"), ("WARC-Target-URI", url),
                       ("WARC-Date", iso), ("WARC-Record-ID", rid),
                       ("Content-Type", mime)]
            block = body
        elif kind == "revisit":
            headers = [("WARC-Type", "revisit"), ("WARC-Target-URI", url),
                       ("WARC-Date", iso), ("WARC-Record-ID", rid),
                       ("WARC-Profile", "http://netpreserve.org/warc/1.0/"
                                        "revisit/identical-payload-digest")]
            block = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n"
        elif kind == "dns":
            url = f"dns:{host}"
            headers = [("WARC-Type", "response"), ("WARC-Target-URI", url),
                       ("WARC-Date", iso), ("WARC-Record-ID", rid),
                       ("Content-Type", "text/dns")]
            block = f"{ts14}\n{host}.\t300\tIN\tA\t192.0.2.{i % 250}\n".encode()
        else:
            if kind == "empty":
                body, mime = b"", "text/html"
            reason = {200: "OK", 301: "Moved", 404: "Not Found", 410: "Gone",
                      500: "Server Error"}[status]
            headers = [("WARC-Type", "response"), ("WARC-Target-URI", url),
                       ("WARC-Date", iso), ("WARC-Record-ID", rid),
                       ("WARC-Warcinfo-ID", f"<urn:uuid:info-{f}>"),
                       ("Content-Type", "application/http; msgtype=response")]
            block = (f"HTTP/1.1 {status} {reason}\r\nContent-Type: {mime}\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        out.append(_warc_record(headers, block))
        counts["records"] += 1
        if kind in ("html", "text", "image", "resource", "status"):
            counts["extracted"] += 1
        if kind != "dns":
            cdxj.append((surt_key(url), ts14, json.dumps(
                {"url": url, "mime": mime, "status": str(status),
                 "filename": name})))
    # index lines for captures held in other WARC files: never matched
    for j in range(max(1, n_records // 10)):
        url = f"http://{_HOSTS[j % len(_HOSTS)]}/elsewhere/{f}/{j}"
        cdxj.append((surt_key(url), "20200101000000", json.dumps(
            {"url": url, "mime": "text/html", "status": "200",
             "filename": "other.warc.gz"})))
    cdxj.sort()
    lines = [f"{s} {t} {j}\n" for s, t, j in cdxj]
    return b"".join(out), lines, counts


def warc_bytes(seed: int, n_records: int = WARC_RECORDS) -> bytes:
    """One generated WARC file's bytes (the kernel table's parse input)."""
    return _warc_file(seed, 0, n_records)[0]


def write_warc_corpus(seed: int, archive_dir: str, index_dir: str, *,
                      n_files: int = WARC_FILES,
                      n_records: int = WARC_RECORDS) -> dict:
    """Write ``n_files`` WARC files into ``archive_dir`` and their original
    CDXJ indexes (same stem, ``.cdxj``) into ``index_dir``."""
    os.makedirs(archive_dir, exist_ok=True)
    os.makedirs(index_dir, exist_ok=True)
    total = {"files": n_files, "records": 0, "extracted": 0,
             "dup_payloads": 0, "index_lines": 0}
    for f in range(n_files):
        data, lines, counts = _warc_file(seed, f, n_records)
        with open(os.path.join(archive_dir, f"bench-{f:03d}.warc"), "wb") as fh:
            fh.write(data)
        with open(os.path.join(index_dir, f"bench-{f:03d}.cdxj"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        for k in ("records", "extracted", "dup_payloads"):
            total[k] += counts[k]
        total["index_lines"] += len(lines)
    return total


# --------------------------------------------------------------------------
# ops: TPC-H-shaped tables + events, documents and embeddings
# --------------------------------------------------------------------------

# the row counts of the repository's sf0.1 testdata
OPS_SCALE = {"customer": 15_000, "supplier": 1_000, "part": 20_000,
             "orders": 150_000, "lineitem": 600_000, "events": 100_000,
             "documents": 5_000, "embeddings": 2_000}
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_PTYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
_PADJ = ["small", "red", "blue", "hot", "old", "big", "green", "cold"]
_PNOUN = ["ring", "widget", "bolt", "gear", "gizmo", "nut", "valve", "spring"]
_EVENTS = ["click", "error", "purchase", "signup", "view"]
_DOC_WORDS = ("a the data query table row column key value join group sort "
              "order line part filter scan hash merge batch stream window agg "
              "spark vector customer small big fast slow").split()
_LANGS = ["en", "en", "en", "en", "de", "es", "fr"]


def _days(rng, n, start: dt.date, span_days: int) -> pa.Array:
    base = np.datetime64(start.isoformat(), "us")
    d = rng.integers(0, span_days, size=n).astype("timedelta64[D]")
    return pa.array((base + d).astype("datetime64[us]"), pa.timestamp("us"))


def _money(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, size=n), 2)


def ops_tables(seed: int, scale: dict | None = None) -> dict[str, pa.Table]:
    """The ten tables, sized by ``scale`` (row counts, default OPS_SCALE)."""
    s = dict(OPS_SCALE, **(scale or {}))
    rng = np.random.default_rng(derive(seed, "ops"))
    t: dict[str, pa.Table] = {}
    t["region"] = pa.table({
        "r_regionkey": pa.array(range(5), pa.int32()),
        "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]})
    t["nation"] = pa.table({
        "n_nationkey": pa.array(range(25), pa.int32()),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32())})
    nc = s["customer"]
    t["customer"] = pa.table({
        "c_custkey": pa.array(range(nc), pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(nc)],
        "c_nationkey": pa.array(rng.integers(0, 25, nc), pa.int32()),
        "c_acctbal": _money(rng, -999.99, 9999.99, nc),
        "c_mktsegment": [_SEGMENTS[i] for i in rng.integers(0, 5, nc)]})
    ns = s["supplier"]
    t["supplier"] = pa.table({
        "s_suppkey": pa.array(range(ns), pa.int64()),
        "s_name": [f"Supplier#{i:09d}" for i in range(ns)],
        "s_nationkey": pa.array(rng.integers(0, 25, ns), pa.int32()),
        "s_acctbal": _money(rng, -999.99, 9999.99, ns)})
    npart = s["part"]
    t["part"] = pa.table({
        "p_partkey": pa.array(range(npart), pa.int64()),
        "p_name": [f"{_PADJ[a]} {_PNOUN[b]}" for a, b in
                   zip(rng.integers(0, 8, npart), rng.integers(0, 8, npart))],
        "p_brand": [f"Brand#{i}" for i in rng.integers(1, 26, npart)],
        "p_type": [_PTYPES[i] for i in rng.integers(0, 6, npart)],
        "p_size": pa.array(rng.integers(1, 51, npart), pa.int32()),
        "p_retailprice": np.round(900.0 + (np.arange(npart) % 1000) * 0.1, 2)})
    no = s["orders"]
    t["orders"] = pa.table({
        "o_orderkey": pa.array(range(no), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, nc, no), pa.int64()),
        "o_orderstatus": [("F", "O", "P")[i] for i in rng.integers(0, 3, no)],
        "o_totalprice": _money(rng, 1000.0, 500000.0, no),
        "o_orderdate": _days(rng, no, dt.date(1995, 1, 1), 2404),
        "o_orderpriority": [_PRIORITIES[i] for i in rng.integers(0, 5, no)]})
    nl = s["lineitem"]
    okeys = rng.integers(0, no, nl)
    t["lineitem"] = pa.table({
        "l_orderkey": pa.array(okeys, pa.int64()),
        "l_partkey": pa.array(rng.integers(0, npart, nl), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, ns, nl), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, nl), pa.int32()),
        "l_quantity": rng.integers(1, 51, nl).astype(np.float64),
        "l_extendedprice": rng.integers(900, 105000, nl).astype(np.float64),
        "l_discount": np.round(rng.integers(0, 11, nl) * 0.01, 2),
        "l_tax": np.round(rng.integers(0, 9, nl) * 0.01, 2),
        "l_returnflag": [("A", "N", "R")[i] for i in rng.integers(0, 3, nl)],
        "l_linestatus": [("F", "O")[i] for i in rng.integers(0, 2, nl)],
        "l_shipdate": _days(rng, nl, dt.date(1995, 1, 2), 2498)})
    ne = s["events"]
    base = np.datetime64("2024-01-01T00:00:00", "us")
    offs = np.sort(rng.integers(0, 30 * 86400 * 10**6, ne))
    t["events"] = pa.table({
        "event_id": pa.array(range(ne), pa.int64()),
        "ts": pa.array(base + offs.astype("timedelta64[us]"), pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, max(1, nc // 10), ne), pa.int64()),
        "event_type": [_EVENTS[i] for i in rng.integers(0, 5, ne)],
        "value": _money(rng, 0.01, 490.0, ne),
        "props": [json.dumps({"k": int(k)}) for k in rng.integers(0, 100, ne)]})
    nd = s["documents"]
    texts: list[str] = []
    for i in range(nd):
        if i % 17 == 1 and i > 17:
            # the doc after each held-out one (doc_id % 17 == 0, the
            # dedup_decontam test split) quotes it, so that query has hits
            texts.append(f"{texts[i - 1]} q{i}")
        elif i >= 10 and rng.random() < 0.12:  # near-duplicate of an earlier doc
            words = texts[int(rng.integers(0, i))].split()
            words[int(rng.integers(0, len(words)))] = _DOC_WORDS[
                int(rng.integers(0, len(_DOC_WORDS)))]
            words.append(f"d{i}")
            texts.append(" ".join(words))
        else:
            n = int(rng.integers(8, 90))
            texts.append(" ".join(_DOC_WORDS[j]
                                  for j in rng.integers(0, len(_DOC_WORDS), n)))
    t["documents"] = pa.table({
        "doc_id": pa.array(range(nd), pa.int64()),
        "text": texts,
        "lang": [_LANGS[j] for j in rng.integers(0, len(_LANGS), nd)],
        "source": [f"src{j}" for j in rng.integers(0, 20, nd)],
        "n_chars": pa.array([len(x) for x in texts], pa.int64())})
    nv, dim = s["embeddings"], 64
    centers = rng.normal(0, 1, size=(10, dim))
    labels = rng.integers(0, 10, nv)
    vecs = centers[labels] + rng.normal(0, 0.6, size=(nv, dim))
    near = rng.random(nv) < 0.1
    for i in np.flatnonzero(near):
        if i > 0:
            j = int(rng.integers(0, i))
            vecs[i] = vecs[j] + rng.normal(0, 0.01, size=dim)
            labels[i] = labels[j]
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(np.float32)
    t["embeddings"] = pa.table({
        "vec_id": pa.array(range(nv), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32())})
    return t


def write_ops_tables(seed: int, out_dir: str, scale: dict | None = None) -> dict:
    """Write the ops tables as ``<out_dir>/<name>.parquet``; returns row
    counts."""
    os.makedirs(out_dir, exist_ok=True)
    rows = {}
    for name, tbl in ops_tables(seed, scale).items():
        pq.write_table(tbl, os.path.join(out_dir, f"{name}.parquet"))
        rows[name] = tbl.num_rows
    return rows
