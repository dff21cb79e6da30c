"""Hermetic image codecs: PNG (lossless, stdlib zlib), PPM (lossless raw),
and ``b16`` (deterministic lossy 7-bit/channel quantization, PSNR ≈ 48 dB).

The sandbox has no Pillow/libpng, so the engine carries its own minimal,
deterministic codecs (FIXTURES.md §1).  These stand in for the image payloads
the reference treats as opaque bytes (e.g. tests/gif.warc — the reference
never decodes; we decode because north_star mandates phash/w/h/fmt sidecar
fields and PSNR-verified round-trips).

All functions are numpy-vectorized within a row; decode is inherently
per-row (like any image library).  It runs inside the batch functions that
need pixels: the extraction's ``detect.protocol.ImageDetector`` (tasks, one
per block) and the ``ops.multimodal`` actor-pool stages.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIG = b"\x89PNG\r\n\x1a\n"
B16_SIG = b"B16\n"


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def encode_png(pixels: np.ndarray) -> bytes:
    """Encode HxWx3 uint8 → minimal 8-bit RGB PNG (filter 0 rows)."""
    h, w, _ = pixels.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0  # filter type 0 per scanline
    raw[:, 1:] = pixels.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), 6)
    return PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def decode_png(data: bytes) -> np.ndarray:
    if not data.startswith(PNG_SIG):
        raise ValueError("not a PNG")
    pos, w, h, idat = len(PNG_SIG), 0, 0, b""
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        if tag == b"IHDR":
            w, h, depth, ctype = struct.unpack_from(">IIBB", body)
            if depth != 8 or ctype != 2:
                raise ValueError("only 8-bit RGB supported")
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
        pos += 12 + length
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8).reshape(h, 1 + w * 3)
    if not (raw[:, 0] == 0).all():
        raise ValueError("only filter 0 supported")
    return raw[:, 1:].reshape(h, w, 3).copy()


def encode_ppm(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def decode_ppm(data: bytes) -> np.ndarray:
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    parts = data.split(b"\n", 3)
    w, h = (int(x) for x in parts[1].split())
    return np.frombuffer(parts[3], dtype=np.uint8, count=w * h * 3).reshape(h, w, 3).copy()


def encode_b16(pixels: np.ndarray) -> bytes:
    """Deterministic lossy: drop the LSB of each channel (quantize step 2),
    then zlib the 7-bit planes.  PSNR vs original ≈ 48 dB ≥ the 40 dB bound."""
    h, w, _ = pixels.shape
    q = (pixels >> 1).astype(np.uint8)
    return B16_SIG + struct.pack(">II", w, h) + zlib.compress(q.tobytes(), 6)


def decode_b16(data: bytes) -> np.ndarray:
    if not data.startswith(B16_SIG):
        raise ValueError("not b16")
    w, h = struct.unpack_from(">II", data, 4)
    q = np.frombuffer(zlib.decompress(data[12:]), dtype=np.uint8).reshape(h, w, 3)
    return ((q.astype(np.uint16) << 1) | 1).clip(0, 255).astype(np.uint8)


_DECODERS = {"png": decode_png, "ppm": decode_ppm, "b16": decode_b16}
_ENCODERS = {"png": encode_png, "ppm": encode_ppm, "b16": encode_b16}
LOSSLESS = frozenset({"png", "ppm"})
IMAGE_FMTS = frozenset(_DECODERS)


def encode(pixels: np.ndarray, fmt: str) -> bytes:
    return _ENCODERS[fmt](pixels)


def decode(data: bytes, fmt: str) -> np.ndarray:
    return _DECODERS[fmt](data)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0 * 255.0 / mse))
