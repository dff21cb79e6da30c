"""Deterministic detector stages (the engine's pluggable extension surface,
SURVEY.md §2.9).

Each detector is a vectorized function over an Arrow/numpy batch, shaped like
the reference's C-library outputs so ported contract tests read like the
reference's own (warc_metadata_sidecar.py:76-131):

- :mod:`sidecar.detect.mime`     ≈ fido + python-magic  (F5)
- :mod:`sidecar.detect.charset`  ≈ chardet              (F7)
- :mod:`sidecar.detect.language` ≈ pycld2               (F8)
- :mod:`sidecar.detect.soft404`  ≈ soft404              (F9)
- :mod:`sidecar.detect.phash`    — new, 64-bit DCT perceptual hash (ST8),
  batched: one stacked kernel per image shape
"""

from sidecar.detect.charset import find_character_set, find_character_set_batch
from sidecar.detect.language import find_language, find_language_batch
from sidecar.detect.mime import TEXT_FORMAT_MIMES, sniff, sniff_batch
from sidecar.detect.phash import phash64, phash64_batch
from sidecar.detect.soft404 import soft404_probability

__all__ = [
    "TEXT_FORMAT_MIMES",
    "sniff",
    "sniff_batch",
    "find_character_set",
    "find_character_set_batch",
    "find_language",
    "find_language_batch",
    "soft404_probability",
    "phash64",
    "phash64_batch",
]
