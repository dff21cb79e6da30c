"""64-bit DCT perceptual hash (ST8 in SURVEY.md §2.3 — new, mandated by
BASELINE.json:north_star's ``phash`` sidecar field; no reference analog, the
reference treats image payloads as opaque bytes).

Classic pHash recipe, fully deterministic:
  grayscale → 32×32 area-mean resize → 2-D DCT-II (precomputed float64
  cosine matrix) → top-left 8×8 block excluding DC → bit i = coef > median.

:func:`phash64_batch` is the one implementation: it hashes a whole batch of
images with one stacked kernel per ``(h, w)`` shape, so a batch of same-sized
images costs a handful of numpy calls instead of a Python loop per image.
:func:`phash64` is that kernel on a batch of one.

Integer-exact inputs + fixed float64 op order ⇒ identical hash on every
platform/parallelism level and for every batch composition.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_N = 32
_K = 8
# stacked pixels per kernel call: bounds the int64 luma temporary (~32 MB)
# when a batch holds many large images of one shape
_MAX_PIXELS = 1 << 22


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n, dtype=np.float64)
    m = np.cos(np.pi / n * (k[None, :] + 0.5) * k[:, None])
    m[0] *= 1.0 / np.sqrt(2.0)
    return m * np.sqrt(2.0 / n)


_DCT = _dct_matrix(_N)


def _hash_stack(px: np.ndarray) -> np.ndarray:
    """(B, h, w, 3) uint8 → (B,) uint64 hashes.

    The 32×32 resize is an area mean over index-mapped blocks.  Block sums
    come from two ``np.add.reduceat`` passes (rows collapse h→32 first, then
    columns w→32) over the integer x1000 luma, so they are integer-exact.
    Where h or w < 32, reduceat's duplicate-index rule (``a[idx[i]]`` when
    ``idx[i] == idx[i+1]``) coincides with the degenerate one-pixel block
    ``[y0, y0+1)`` the area formula divides by.  Every image in the stack
    goes through the same float64 ops in the same order as alone.
    """
    _, h, w, _ = px.shape
    ys = (np.arange(_N + 1, dtype=np.int64) * h) // _N
    xs = (np.arange(_N + 1, dtype=np.int64) * w) // _N
    y0 = ys[:-1].clip(max=h - 1)
    x0 = xs[:-1].clip(max=w - 1)
    y1 = np.maximum(ys[1:], ys[:-1] + 1).clip(max=h)
    x1 = np.maximum(xs[1:], xs[:-1] + 1).clip(max=w)
    gray = (
        px[..., 0].astype(np.int64) * 299
        + px[..., 1].astype(np.int64) * 587
        + px[..., 2].astype(np.int64) * 114
    )  # x1000 luma, integer-exact
    rows = np.add.reduceat(gray, y0, axis=1)
    s = np.add.reduceat(rows, x0, axis=2)
    area = (y1 - y0)[:, None] * (x1 - x0)[None, :]
    small = s.astype(np.float64) / area.astype(np.float64)
    coef = _DCT @ small @ _DCT.T
    block = coef[:, :_K, :_K].reshape(len(px), _K * _K)
    # odd count (63, DC excluded) ⇒ the median is the exact middle order
    # statistic, which partition returns without np.median's averaging
    med = np.partition(block[:, 1:], 31, axis=1)[:, 31]
    bits = block > med[:, None]
    bits[:, 0] = coef[:, 0, 0] > 0
    return np.packbits(bits, axis=1).view(">u8")[:, 0].astype(np.uint64)


def phash64_batch(images: Sequence[np.ndarray]) -> np.ndarray:
    """HxWx3 uint8 images → uint64 perceptual hashes, in input order.

    Images are grouped by shape and each group is hashed as one stack."""
    out = np.zeros(len(images), dtype=np.uint64)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, px in enumerate(images):
        groups.setdefault(px.shape, []).append(i)
    for (h, w, _), idx in groups.items():
        step = max(1, _MAX_PIXELS // (h * w))
        for lo in range(0, len(idx), step):
            part = idx[lo:lo + step]
            out[part] = _hash_stack(np.stack([images[i] for i in part]))
    return out


def phash64(pixels: np.ndarray) -> int:
    """HxWx3 uint8 → unsigned 64-bit perceptual hash."""
    return int(phash64_batch([pixels])[0])
