"""CDXJ projection + left-outer enrichment merge.

Ray-Data-native restatement of sidecar2cdxj.py and merge_cdxj.py:

- :func:`cdxj_from_sidecar` — SIDECAR Dataset → CDXJ Dataset
  (sidecar2cdxj.py:32-61: SURT url + 14-digit timestamp + JSON payload).
- :func:`merge_cdxj` — left-outer hash join, probe = original CDXJ
  (order-preserving via a line-number sort key), build = meta CDXJ
  (merge_cdxj.py:59-93), as one ``shuffle.lookup_join`` on (surt, ts): a
  small meta side is broadcast and probed inside ``map_batches`` with no
  shuffle (SURVEY.md §2.4 J1), a large one meets the probe in a hash
  exchange.

Reference quirks reproduced exactly (SURVEY.md §7 watch-list #5):
- python-magic mime preferred over fido (merge_cdxj.py:36-40)
- soft-404 dropped at merge when falsy — 0.0 included (merge_cdxj.py:53-55)
- languages only added when alpha-3 conversion yields non-empty CSV (:50-52)
"""

from __future__ import annotations

import json

import pyarrow as pa

import ray.data as rd

from sidecar import shuffle
from sidecar.canon import cdxj_key, surt
from sidecar.pipeline import sidecar_row_to_payload

# Full ISO-639-1 → ISO-639-2/T (alpha-3) table, statically embedded (the
# reference uses langcodes.Language.get(code).to_alpha3(), merge_cdxj.py:18,
# which yields the terminology codes below; codes with no 3-letter form are
# skipped by get_alpha3_language_codes, :22-24).  The merge CLI accepts
# arbitrary CDXJ input, so every 639-1 code must convert — not just the five
# the in-repo detector emits.
ALPHA3 = {
    "aa": "aar", "ab": "abk", "ae": "ave", "af": "afr", "ak": "aka",
    "am": "amh", "an": "arg", "ar": "ara", "as": "asm", "av": "ava",
    "ay": "aym", "az": "aze", "ba": "bak", "be": "bel", "bg": "bul",
    "bh": "bih", "bi": "bis", "bm": "bam", "bn": "ben", "bo": "bod", "br": "bre",
    "bs": "bos", "ca": "cat", "ce": "che", "ch": "cha", "co": "cos",
    "cr": "cre", "cs": "ces", "cu": "chu", "cv": "chv", "cy": "cym",
    "da": "dan", "de": "deu", "dv": "div", "dz": "dzo", "ee": "ewe",
    "el": "ell", "en": "eng", "eo": "epo", "es": "spa", "et": "est",
    "eu": "eus", "fa": "fas", "ff": "ful", "fi": "fin", "fj": "fij",
    "fo": "fao", "fr": "fra", "fy": "fry", "ga": "gle", "gd": "gla",
    "gl": "glg", "gn": "grn", "gu": "guj", "gv": "glv", "ha": "hau",
    "he": "heb", "hi": "hin", "ho": "hmo", "hr": "hrv", "ht": "hat",
    "hu": "hun", "hy": "hye", "hz": "her", "ia": "ina", "id": "ind",
    "ie": "ile", "ig": "ibo", "ii": "iii", "ik": "ipk", "io": "ido",
    "is": "isl", "it": "ita", "iu": "iku", "ja": "jpn", "jv": "jav",
    "ka": "kat", "kg": "kon", "ki": "kik", "kj": "kua", "kk": "kaz",
    "kl": "kal", "km": "khm", "kn": "kan", "ko": "kor", "kr": "kau",
    "ks": "kas", "ku": "kur", "kv": "kom", "kw": "cor", "ky": "kir",
    "la": "lat", "lb": "ltz", "lg": "lug", "li": "lim", "ln": "lin",
    "lo": "lao", "lt": "lit", "lu": "lub", "lv": "lav", "mg": "mlg",
    "mh": "mah", "mi": "mri", "mk": "mkd", "ml": "mal", "mn": "mon",
    "mr": "mar", "ms": "msa", "mt": "mlt", "my": "mya", "na": "nau",
    "nb": "nob", "nd": "nde", "ne": "nep", "ng": "ndo", "nl": "nld",
    "nn": "nno", "no": "nor", "nr": "nbl", "nv": "nav", "ny": "nya",
    "oc": "oci", "oj": "oji", "om": "orm", "or": "ori", "os": "oss",
    "pa": "pan", "pi": "pli", "pl": "pol", "ps": "pus", "pt": "por",
    "qu": "que", "rm": "roh", "rn": "run", "ro": "ron", "ru": "rus",
    "rw": "kin", "sa": "san", "sc": "srd", "sd": "snd", "se": "sme",
    "sg": "sag", "si": "sin", "sk": "slk", "sl": "slv", "sm": "smo",
    "sn": "sna", "so": "som", "sq": "sqi", "sr": "srp", "ss": "ssw",
    "st": "sot", "su": "sun", "sv": "swe", "sw": "swa", "ta": "tam",
    "te": "tel", "tg": "tgk", "th": "tha", "ti": "tir", "tk": "tuk",
    "tl": "tgl", "tn": "tsn", "to": "ton", "tr": "tur", "ts": "tso",
    "tt": "tat", "tw": "twi", "ty": "tah", "ug": "uig", "uk": "ukr",
    "ur": "urd", "uz": "uzb", "ve": "ven", "vi": "vie", "vo": "vol",
    "wa": "wln", "wo": "wol", "xh": "xho", "yi": "yid", "yo": "yor",
    "za": "zha", "zh": "zho", "zu": "zul",
}


def get_alpha3_language_codes(lang_list: list[dict]) -> str:
    """Comma-joined alpha-3 codes (merge_cdxj.py:12-27 semantics)."""
    codes = []
    for lang_dict in lang_list:
        new_code = ALPHA3.get(lang_dict.get("code", ""), "")
        if len(new_code) == 3:
            codes.append(new_code)
    return ",".join(codes)


def payload_to_json(payload: str) -> str:
    """F12 conformance (convert_payload_to_json, sidecar2cdxj.py:18-29):
    each 'Title: value' line parsed with a JSON fallback to the raw string;
    the trailing ':' of the Title is stripped."""
    d: dict = {}
    # splitlines, not split('\n'): a spec-conformant (warcio-written) sidecar
    # joins warc-fields lines with CRLF — split('\n') would leave a trailing
    # '\r' on every value, breaking the JSON fallback parse
    for line in payload.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition(": ")
        try:
            d[key.rstrip(":")] = json.loads(value)
        except (json.JSONDecodeError, ValueError):
            d[key.rstrip(":")] = value
    return json.dumps(d)


def sidecar_row_to_cdxj_json(row: dict) -> str:
    """SIDECAR row → the CDXJ JSON payload: its sidecar payload
    (``pipeline.sidecar_row_to_payload``, which owns the field skip rules)
    through :func:`payload_to_json`, as sidecar2cdxj.py reads it back."""
    return payload_to_json(sidecar_row_to_payload(row))


def _sidecar_batch_to_cdxj(batch: pa.Table) -> pa.Table:
    rows = batch.to_pylist()
    return pa.table(
        {
            "surt": pa.array([surt(r["url"] or "") for r in rows], pa.string()),
            "ts": pa.array([r["ts"] or "" for r in rows], pa.string()),
            "json": pa.array([sidecar_row_to_cdxj_json(r) for r in rows], pa.string()),
        }
    )


def cdxj_from_sidecar(sidecar_ds) -> "rd.Dataset":
    """SIDECAR Dataset → CDXJ Dataset (S5/S6 + F13)."""
    return sidecar_ds.map_batches(
        _sidecar_batch_to_cdxj, batch_format="pyarrow", zero_copy_batch=True
    )


def cdxj_line(surt_url: str, ts: str, json_str: str) -> str:
    """One CDXJ text line (sidecar2cdxj.py:37)."""
    return surt_url + " " + ts + " " + json_str + "\n"


def get_sidecar_fields(original_obj: dict, meta_obj: dict) -> dict:
    """Field enrichment (merge_cdxj.py:30-56) with the quirks intact."""
    if meta_obj.get("Identified-Payload-Type"):
        ipt = meta_obj["Identified-Payload-Type"]
        # python-magic preferred over fido (merge_cdxj.py:36-40).  The bare
        # ipt["fido"] KeyError on a typed-but-fido-less object is DELIBERATE
        # parity: the reference indexes ['fido'] the same way at :40
        original_obj["mime-detected"] = ipt.get("python-magic") or ipt["fido"]
    if meta_obj.get("Preservation-Identifier"):
        original_obj["puid"] = meta_obj["Preservation-Identifier"]
    if meta_obj.get("Charset-Detected"):
        original_obj["charset"] = meta_obj["Charset-Detected"]["encoding"]
    if meta_obj.get("Languages-cld2"):
        new_codes = get_alpha3_language_codes(meta_obj["Languages-cld2"]["languages"])
        if new_codes:
            original_obj["languages"] = new_codes
    if meta_obj.get("Soft-404-Detected"):  # truthiness: 0.0 dropped (merge_cdxj.py:53)
        original_obj["soft-404-detected"] = meta_obj["Soft-404-Detected"]
    return original_obj


def enrich_json(build: dict[str, str], key: str, j: str) -> tuple[str, bool]:
    """(json, matched) for one original line: its JSON ``j`` enriched from
    the meta line JSON ``build[key]`` (merge_cdxj.py:72-81).  TRUTHINESS,
    not None-ness: a missing key or an empty meta object ``{}`` is no match
    (merge_cdxj.py:72 'if ...get(key):') and ``j`` passes through
    byte-identical."""
    mj = build.get(key)
    meta = json.loads(mj) if mj is not None else None
    if not meta:
        return j, False
    return json.dumps(get_sidecar_fields(json.loads(j), meta)), True


def merge_cdxj(meta_ds, original_ds) -> "rd.Dataset":
    """Left-outer enrich join of ``original_ds`` (CDXJ columns surt/ts/json,
    plus optional ``lineno``) against ``meta_ds`` (J1).

    One ``shuffle.lookup_join`` on ``(surt, ts)``: the meta side becomes a
    ``cdxj_key`` → meta JSON dict, which every original batch probes.  A
    meta side within the broadcast limit (one sidecar's index, small
    relative to the probe) is put in the object store once; a larger one is
    hash-partitioned with the originals.  Output adds a ``matched`` flag
    (edited/non-edited counters = a Sum over it, merge_cdxj.py:61-62).
    """
    return shuffle.lookup_join(original_ds, meta_ds, ["surt", "ts"],
                               _meta_index, _enrich_batch)


def _meta_index(meta: pa.Table) -> dict[str, str]:
    """``cdxj_key`` → json of the meta lines (a later duplicate wins)."""
    if not meta.num_rows:  # an empty meta side may have no columns
        return {}
    return dict(zip(map(cdxj_key, meta.column("surt").to_pylist(),
                        meta.column("ts").to_pylist()),
                    meta.column("json").to_pylist()))


def _enrich_batch(batch: pa.Table, build: dict[str, str]) -> pa.Table:
    """surt, ts, json, matched[, lineno] for a batch of original lines
    probed against a build dict of meta line JSON."""
    out = [enrich_json(build, cdxj_key(s, t), j) for s, t, j in zip(
        batch.column("surt").to_pylist(), batch.column("ts").to_pylist(),
        batch.column("json").to_pylist())]
    cols = {
        "surt": batch.column("surt"),
        "ts": batch.column("ts"),
        "json": pa.array([j for j, _ in out], pa.string()),
        "matched": pa.array([m for _, m in out], pa.bool_()),
    }
    if "lineno" in batch.column_names:
        cols["lineno"] = batch.column("lineno")
    return pa.table(cols)
