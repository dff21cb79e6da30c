"""The formal user-extension surface for detectors (SURVEY.md §2.9).

The reference's only extension mechanism is subclassing (its ``ExtendFido``,
warc_metadata_sidecar.py:42); the Ray engine declares an explicit protocol:

    class Detector(Protocol):
        name: str
        def applies_to(self, ctx: DetectCtx) -> np.ndarray: ...   # row mask
        def run(self, ctx: DetectCtx, mask) -> dict[str, pa.Array]: ...

``run`` returns full-batch-length columns (rows outside the mask should be
null/zero) so the pipeline can append them without re-aligning.  The five
built-in detectors (mime+puid, charset, language, soft-404, image/phash)
are registered under their canonical names and the extraction pipeline
resolves them THROUGH the registry — replacing one (e.g. a different
charset model) or registering an additional detector requires no edit to
``sidecar/pipeline.py``.  Detector state that is expensive to build should
be constructed lazily in the instance (the registry is module-level, so an
actor or task worker builds it once per process — the ST1 rule).

Extra (non-built-in) detectors run after the built-ins, in registration
order, and their columns are appended to the SIDECAR batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np
import pyarrow as pa


@dataclass
class DetectCtx:
    """Per-batch inputs a detector may consult.  ``mime_*`` / ``is_text`` /
    ``html`` are populated once the mime stage has run (None before)."""

    payload: pa.Array                 # binary payloads
    caption: pa.Array                 # caption strings (nulls filled "")
    nonempty: np.ndarray              # bool: payload length > 0
    status: np.ndarray                # HTTP status per row
    mime_fido: np.ndarray | None = None
    mime_magic: np.ndarray | None = None
    mime_joined: np.ndarray | None = None   # "fido magic" joined strings
    is_text: np.ndarray | None = None
    html: np.ndarray | None = None
    text: pa.Array | None = None      # decoded payload text ('' off-mask)
    digests: np.ndarray | None = None  # 'sha1:<hex>' payload digests
    extra: dict = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        return len(self.nonempty)


@runtime_checkable
class Detector(Protocol):
    name: str

    def applies_to(self, ctx: DetectCtx) -> np.ndarray:  # pragma: no cover
        ...

    def run(self, ctx: DetectCtx, mask: np.ndarray
            ) -> dict[str, pa.Array]:  # pragma: no cover
        ...


BUILTIN_NAMES = ("mime", "charset", "language", "soft404", "image")

_REGISTRY: dict[str, Detector] = {}


def register(det: Detector) -> None:
    """Register (or replace) a detector under ``det.name``."""
    _REGISTRY[det.name] = det


def unregister(name: str) -> None:
    _REGISTRY.pop(name, None)


def get(name: str) -> Detector:
    return _REGISTRY[name]


def extras() -> list[Detector]:
    """User-registered detectors beyond the built-ins, registration order."""
    return [d for n, d in _REGISTRY.items() if n not in BUILTIN_NAMES]


def snapshot() -> dict[str, Detector]:
    """Copy of the current registry.  Pipelines capture this at BUILD time
    and ship it in the batch-fn closure, because registration is per-process
    state: a detector registered on the driver would otherwise be invisible
    to Ray worker processes (their module registry holds only built-ins)."""
    return dict(_REGISTRY)


# ---------------------------------------------------------------- built-ins
# Thin Detector classes over the existing vectorized implementations — the
# registry indirection adds no copies; outputs are unchanged (oracle-tested).


class MimeDetector:
    """F5: fido-signature + magic sniff + PUID (detect/mime.py).  Runs
    first; the pipeline derives is_text/html from its output."""

    name = "mime"

    def applies_to(self, ctx: DetectCtx) -> np.ndarray:
        return ctx.nonempty

    def run(self, ctx: DetectCtx, mask: np.ndarray) -> dict[str, pa.Array]:
        from sidecar.detect import mime as mime_mod

        fido, magic, puid = mime_mod.sniff_batch(ctx.payload)
        ctx.mime_fido, ctx.mime_magic = fido, magic
        return {
            "mime_fido": pa.array(fido, type=pa.string()),
            "mime_magic": pa.array(magic, type=pa.string()),
            "puid": pa.array(puid, type=pa.string()),
        }


class CharsetDetector:
    """F7: charset over payload bytes, text rows only."""

    name = "charset"

    def applies_to(self, ctx: DetectCtx) -> np.ndarray:
        return ctx.is_text

    def run(self, ctx: DetectCtx, mask: np.ndarray) -> dict[str, pa.Array]:
        from sidecar import schemas
        from sidecar.detect.charset import find_character_set_batch

        enc, conf = find_character_set_batch(ctx.payload, mask=mask)
        col = pa.array(
            [{"encoding": enc[i],
              "confidence": None if np.isnan(conf[i]) else conf[i]}
             if enc[i] is not None else None
             for i in range(ctx.num_rows)], type=schemas.CHARSET_T)
        return {"charset": col}


class LanguageDetector:
    """F8: cld2-shaped language detection — payload text for text rows,
    caption for non-text rows (north_star generalization)."""

    name = "language"

    def applies_to(self, ctx: DetectCtx) -> np.ndarray:
        return ctx.is_text

    def run(self, ctx: DetectCtx, mask: np.ndarray) -> dict[str, pa.Array]:
        from sidecar import schemas
        from sidecar.detect.language import find_language_batch
        from sidecar.pipeline import _lang_dict_to_struct

        languages = find_language_batch(ctx.text, mask=mask)
        import pyarrow.compute as pc

        cap_mask = (~mask) & ctx.nonempty & pc.greater(
            pc.utf8_length(ctx.caption), 0).to_numpy(zero_copy_only=False)
        caption_languages = find_language_batch(ctx.caption, mask=cap_mask)
        return {
            "languages": pa.array(
                [_lang_dict_to_struct(x) for x in languages],
                type=schemas.LANGUAGES_T),
            "caption_languages": pa.array(
                [_lang_dict_to_struct(x) for x in caption_languages],
                type=schemas.LANGUAGES_T),
        }


class Soft404Detector:
    """F9: soft-404 score, html + HTTP 200 rows only."""

    name = "soft404"

    def applies_to(self, ctx: DetectCtx) -> np.ndarray:
        return ctx.is_text & ctx.html & (ctx.status == 200)

    def run(self, ctx: DetectCtx, mask: np.ndarray) -> dict[str, pa.Array]:
        from sidecar.detect.soft404 import soft404_batch

        scores = soft404_batch(ctx.text, mask=mask)
        return {"soft404": pa.array(
            [None if np.isnan(s) else s for s in scores], type=pa.float64())}


class ImageDetector:
    """ST8: decode + phash/w/h/fmt for image rows.  Each payload digest is
    decoded once per batch (the within-batch memo, A3 cache semantics) and
    all decoded images are hashed with one ``phash64_batch`` call."""

    name = "image"

    def applies_to(self, ctx: DetectCtx) -> np.ndarray:
        return ctx.nonempty & ~ctx.is_text

    def run(self, ctx: DetectCtx, mask: np.ndarray) -> dict[str, pa.Array]:
        from sidecar import codecs
        from sidecar.detect.phash import phash64_batch

        n = ctx.num_rows
        w = np.zeros(n, dtype=np.int32)
        h = np.zeros(n, dtype=np.int32)
        ph = np.zeros(n, dtype=np.int64)
        fmt = np.full(n, "", dtype=object)
        first: dict[str, int] = {}       # digest → its first row
        dst, src = [], []                # later rows of a digest, and its first
        decoded, pixels = [], []
        fmt_by_mime = {
            "image/png": "png",
            "image/x-portable-pixmap": "ppm",
            "application/octet-stream": "b16",
        }
        for i in range(n):
            if not mask[i]:
                fmt[i] = "html" if ctx.html[i] else \
                    ("text" if ctx.is_text[i] else "")
                continue
            j = first.setdefault(ctx.digests[i], i)
            if j != i:
                dst.append(i)
                src.append(j)
                continue
            f = fmt_by_mime.get(ctx.mime_magic[i] or "")
            if f is None:
                continue
            try:
                px = codecs.decode(ctx.payload[i].as_py(), f)
            except Exception:
                continue
            h[i], w[i] = px.shape[:2]
            fmt[i] = f
            decoded.append(i)
            pixels.append(px)
        ph[decoded] = phash64_batch(pixels).view(np.int64)
        for col in (w, h, ph, fmt):
            col[dst] = col[src]
        return {
            "phash": pa.array(ph, type=pa.int64()),
            "w": pa.array(w, type=pa.int32()),
            "h": pa.array(h, type=pa.int32()),
            "fmt": pa.array(fmt, type=pa.string()),
        }


for _det in (MimeDetector(), CharsetDetector(), LanguageDetector(),
             Soft404Detector(), ImageDetector()):
    register(_det)
