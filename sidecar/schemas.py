"""Fixed Arrow schemas for the engine's logical tables (SURVEY.md §1.2).

The reference has no schema objects (record-at-a-time dicts); these columnar
schemas are the Ray-Data-native restatement.  Nullable columns reproduce the
reference's "omit the line if absent" semantics (warc_metadata_sidecar.py:151-164).
"""

from __future__ import annotations

import pyarrow as pa

# input table — shape verbatim from BASELINE.json:input_hint
IMAGES = pa.schema(
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

LANGUAGES_T = pa.struct(
    [
        ("reliable", pa.bool_()),
        ("text_bytes", pa.int32()),
        (
            "languages",
            pa.list_(
                pa.struct(
                    [
                        ("name", pa.string()),
                        ("code", pa.string()),
                        ("text_covered", pa.int32()),
                        ("score", pa.float64()),
                    ]
                )
            ),
        ),
    ]
)

CHARSET_T = pa.struct([("encoding", pa.string()), ("confidence", pa.float64())])

# output metadata table — the reference sidecar record, columnarized
SIDECAR = pa.schema(
    [
        ("image_id", pa.string()),
        ("url", pa.string()),
        ("ts", pa.string()),  # 14-digit
        ("mime_fido", pa.string()),
        ("mime_magic", pa.string()),
        ("puid", pa.string()),
        ("charset", CHARSET_T),
        ("languages", LANGUAGES_T),  # text-payload rows only (reference F6 gate)
        ("caption_languages", LANGUAGES_T),  # image generalization (north_star)
        ("soft404", pa.float64()),
        ("phash", pa.int64()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("payload_digest", pa.string()),
        ("is_text", pa.bool_()),
        ("caption", pa.string()),  # pass-through: enables per-row caption-
                                   # equality verification (input_hint)
    ]
)

# crawl frontier epochs (new, mandated by north_rule): what
# frontier.candidates_from_urls builds and select_budget ranks
FRONTIER = pa.schema(
    [
        ("url", pa.string()),
        ("url_canon", pa.string()),
        ("url_hash", pa.uint64()),
        ("host", pa.string()),
        ("priority", pa.float64()),
        ("depth", pa.int32()),
        ("seed_id", pa.int64()),
        ("epoch", pa.int32()),
    ]
)

# index rows (sidecar2cdxj.py:32-37)
CDXJ = pa.schema([("surt", pa.string()), ("ts", pa.string()), ("json", pa.string())])
