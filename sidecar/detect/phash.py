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
platform/parallelism level and for every batch composition.  The DCT is not a
BLAS matmul: an OpenBLAS ``DYNAMIC_ARCH`` build picks its kernel, and so its
summation order, from the CPU, and a flat image's AC coefficients are pure
rounding noise, so its hash moved with the kernel.  :func:`_dct8` spells out
one order in elementwise IEEE ops instead: the one of OpenBLAS's AVX-512
(SkylakeX) dgemm kernels, which the frozen hashes were computed with.
:func:`_block` takes the BLAS product wherever its bits provably equal that
order's, so only near-tie images (flat ones) pay for the elementwise path,
which alone makes a batch hash about five times slower.
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


_DCT8 = _dct_matrix(_N)[:_K]
_SPLIT = float(2**27 + 1)  # Veltkamp splitter for float64


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s + t == a + b exactly, s = fl(a + b) (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fma(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Correctly rounded ``a * b + c`` from plain float64 ops.

    Dekker's exact product and Knuth's exact sum, with the low part rounded
    to odd so the final rounding is not a double rounding (Boldo & Melquiond,
    "Emulation of FMA and correctly rounded sums", 2008).  Exact while no
    product underflows, which luma sums times cosines do not.
    """
    p = a * b
    at = _SPLIT * a
    ah = at - (at - a)
    bt = _SPLIT * b
    bh = bt - (bt - b)
    al, bl = a - ah, b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # a * b == p + e
    s, t = _two_sum(c, p)
    v, w = _two_sum(t, e)
    # round t + e to odd: an inexact sum with an even last bit moves one ulp
    # toward the exact value
    bump = (w != 0) & ((v.view(np.int64) & 1) == 0)
    if bump.any():
        v = np.where(bump, np.nextafter(v, np.copysign(np.inf, w)), v)
    return s + v


def _dct8(small: np.ndarray) -> np.ndarray:
    """(B, 32, 32) → (B, 8, 8) top-left block of ``D @ small @ D.T``.

    ``D @ small`` is one fused multiply-add per term in index order;
    ``(·) @ D.T`` keeps eight fused accumulators over the terms ``j ≡ r
    (mod 8)`` and adds them pairwise, (0+1)+(2+3) then +((4+5)+(6+7)).
    Each output is computed alone, so the 8×8 block equals that corner of
    the full 32×32 product.
    """
    n = len(small)
    left = np.zeros((n, _K, _N))
    for j in range(_N):
        left = _fma(_DCT8[None, :, j, None], small[:, None, j, :], left)
    terms = left.reshape(n, _K, 1, _N // 8, 8)
    cos = _DCT8.reshape(1, 1, _K, _N // 8, 8)
    acc = np.zeros((n, _K, _K, 8))
    for q in range(_N // 8):
        acc = _fma(terms[..., q, :], cos[..., q, :], acc)
    acc = acc[..., 0::2] + acc[..., 1::2]
    acc = acc[..., 0::2] + acc[..., 1::2]
    return acc[..., 0] + acc[..., 1]


# |any-order float64 product - exact| <= 2.01·32u · |D8| S |D8|ᵀ
# <= 4.6e-13 · max(S), since S >= 0 and every |D8| row sums to <= 8; two
# orders differ by <= 9.2e-13 · max(S), and a median gap above twice that
# keeps the bits.  4e-12 leaves a 2x margin.
_TIE_TOL = 4e-12


def _block(small: np.ndarray) -> np.ndarray:
    """(B, 32, 32) → (B, 64) coefficients whose hash bits are ``_dct8``'s.

    A BLAS product differs from :func:`_dct8`'s by at most
    ``_TIE_TOL / 2 · max(small)`` per coefficient, so where the median of
    the 63 AC terms is further than that from its neighbours (and DC from
    0), each comparison the hash makes comes out the same.  The rest are
    recomputed with :func:`_dct8`.
    """
    block = (_DCT8 @ small @ _DCT8.T).reshape(len(small), _K * _K)
    s = np.partition(block[:, 1:], (30, 31, 32), axis=1)
    tol = _TIE_TOL * small.max(axis=(1, 2))
    near = ((s[:, 31] - s[:, 30] <= tol) | (s[:, 32] - s[:, 31] <= tol)
            | (np.abs(block[:, 0]) <= tol))
    if near.any():
        block[near] = _dct8(small[near]).reshape(-1, _K * _K)
    return block


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
    block = _block(small)
    # odd count (63, DC excluded) ⇒ the median is the exact middle order
    # statistic, which partition returns without np.median's averaging
    med = np.partition(block[:, 1:], 31, axis=1)[:, 31]
    bits = block > med[:, None]
    bits[:, 0] = block[:, 0] > 0
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
