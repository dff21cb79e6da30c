"""URL canonicalization (SURT), stable hashing, host extraction, timestamps.

Re-implements (from public SURT semantics, not by copying) what the reference
delegates to ``surt.surt`` at sidecar2cdxj.py:35 and ``iso_date_to_timestamp``
at sidecar2cdxj.py:36.  The same canonical form keys the URL-seen set and the
frontier partitioning (SURVEY.md §2.2 F13), so it lives in one module.

Everything here is pure and deterministic: no wall clock, no randomness.
"""

from __future__ import annotations

import hashlib
import re
from urllib.parse import urlsplit

_WWW = re.compile(r"^www\d*\.")
_SCHEME = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")

_PCT = re.compile(r"%[0-9a-fA-F]{2}")
_MULTISLASH = re.compile(r"//+")

_DEFAULT_PORTS = {"http": 80, "https": 443, "ftp": 21}

_PORT = re.compile(r"\d{1,5}(?:[/?#]|$)")
# schemes that never carry a host: 'tel:911' is a phone number even though
# it has the shape of host:port
_OPAQUE_SCHEMES = frozenset({"tel", "fax", "sms", "urn"})


def _norm_path(path: str) -> str:
    """Collapse duplicate slashes; normalize %XX hex to uppercase."""
    path = _MULTISLASH.sub("/", path or "/")
    return _PCT.sub(lambda m: m.group(0).upper(), path)


def _is_host_port(url: str, scheme: "re.Match") -> bool:
    """'example.com:8080/x' lexes as scheme 'example.com' and would swallow
    the host: the colon starts a PORT when one to five digits run up to
    the path, query, fragment or end, and the 'scheme' is not an opaque
    one.  'tel:5551234' and 'urn:3gpp:x' stay opaque URIs, like
    'mailto:a@b.com'."""
    return (_PORT.match(url, scheme.end()) is not None
            and url[:scheme.end() - 1].lower() not in _OPAQUE_SCHEMES)


def split_url(url: str) -> tuple[str, str, str, str]:
    """Return (host[:port], path, query, fragmentless-url): host lowercased,
    default scheme port dropped, non-default port kept (public SURT rule),
    path slash-collapsed and %-hex-normalized.  Scheme-less urls get http;
    IPv6 literal hosts come back bracketed (``[::1]:8080``) so the host:port
    split downstream stays unambiguous."""
    m = _SCHEME.match(url)
    if not m or _is_host_port(url, m):
        url = "http://" + url
    parts = urlsplit(url)
    host = (parts.hostname or "").lower()
    if ":" in host:  # IPv6 literal — urlsplit strips the brackets
        host = f"[{host}]"
    try:
        port = parts.port
    except ValueError:
        port = None
    if port is not None and port != _DEFAULT_PORTS.get(parts.scheme.lower()):
        host = f"{host}:{port}"
    path = _norm_path(parts.path)
    return host, path, parts.query, url


def _split_host_port(host: str) -> tuple[str, str]:
    """'ex.com:8080' → ('ex.com', ':8080'); '[::1]:8080' → ('[::1]', ':8080');
    portless forms return ('host', '')."""
    if host.startswith("["):
        end = host.find("]")
        if end != -1:
            return host[:end + 1], host[end + 1:]
    if ":" in host:
        h, p = host.split(":", 1)
        return h, ":" + p
    return host, ""


def host_of(url: str) -> str:
    """Registered host of a URL, lowercased, www-stripped, port-stripped
    (politeness is per machine-name, not per port).  IPv6 literals return
    the unbracketed address so each address gets its own politeness bucket."""
    host, _, _, _ = split_url(url)
    host, _port = _split_host_port(host)
    if host.startswith("[") and host.endswith("]"):
        return host[1:-1]
    return _WWW.sub("", host)


# IA default-canonicalizer session-id rules (public semantics of the surt
# library's URLRegexTransformer, which DefaultIAURLCanonicalizer applies
# with path/query_strip_session_id=True — the reference's sidecar2cdxj.py:35
# call path): a 32-char jsessionid matrix param in the path, and the
# well-known 32-char session query params (cfid/cftoken drop as a pair).
_JSESSIONID_PATH = re.compile(r";jsessionid=[0-9a-z]{32}", re.I)
_QUERY_SESSION = [
    re.compile(r"^jsessionid=[0-9a-z]{32}$", re.I),
    re.compile(r"^phpsessid=[0-9a-z]{32}$", re.I),
    re.compile(r"^sid=[0-9a-z]{32}$", re.I),
    re.compile(r"^aspsessionid[a-z]{8}=[a-z]{24}$", re.I),
]


def _strip_query_session(params: list[str]) -> list[str]:
    keep = [p for p in params
            if not any(rx.match(p) for rx in _QUERY_SESSION)]
    if any(p.startswith("cfid=") for p in keep) and \
            any(p.startswith("cftoken=") for p in keep):
        keep = [p for p in keep
                if not (p.startswith("cfid=") or p.startswith("cftoken="))]
    return keep


def _idna_host(host: str) -> str:
    """Non-ASCII hostnames → punycode (the IA canonicalizer's IDN rule);
    ASCII hosts pass through untouched."""
    if host.isascii():
        return host
    try:
        return host.encode("idna").decode("ascii")
    except (UnicodeError, UnicodeDecodeError):
        return host


def surt(url: str) -> str:
    """SURT-canonicalize a URL: ``https://www.Ex.COM/a/B?b=2&a=1`` →
    ``com,ex)/a/b?a=1&b=2``.

    Matches the publicly documented SURT transform the reference gets from
    ``surt.surt`` (sidecar2cdxj.py:35): lowercase, scheme dropped, leading
    ``www`` dropped, host reversed comma-separated (IDN hosts punycoded),
    query keys sorted, trailing slash normalized, default ports dropped,
    and the IA default canonicalizations — path ``;jsessionid`` and
    session-id query params (jsessionid/phpsessid/sid/aspsessionid,
    cfid+cftoken pair) stripped.
    """
    host, path, query, _ = split_url(url)
    host = _idna_host(_WWW.sub("", host))
    host, port = _split_host_port(host)
    # bracketed IPv6 literals have no labels to reverse — they pass through
    # whole, IPv4-mapped ones ('[::ffff:192.0.2.4]') included
    if host.startswith("["):
        rev = host + port
    else:
        rev = (",".join(reversed(host.split("."))) + port) if host else ""
    path = _JSESSIONID_PATH.sub("", path).lower() or "/"
    out = rev + ")" + path
    if query:
        q = "&".join(sorted(_strip_query_session(query.lower().split("&"))))
        out = out + "?" + q if q else out
    return out


def canonical_url(url: str) -> str:
    """Canonical absolute URL used for dedup/seen-set keying: lowercase
    scheme+host, www-stripped, sorted query, no fragment, '/' path default."""
    host, path, query, _ = split_url(url)
    host = _WWW.sub("", host)
    out = "http://" + host + (path or "/")
    if query:
        out += "?" + "&".join(sorted(query.split("&")))
    return out


def url_hash(canon: str) -> int:
    """Stable unsigned-64-bit hash of a canonical URL (seen-set / frontier
    shuffle key).  blake2b is keyed-off, deterministic across processes —
    unlike Python's builtin ``hash`` which is salted per process."""
    return int.from_bytes(hashlib.blake2b(canon.encode("utf-8"), digest_size=8).digest(), "big")


def iso_to_ts14(iso_date: str) -> str:
    """ISO-8601 ``2021-03-01T12:34:56Z`` → 14-digit ``20210301123456``
    (reference: warcio.timeutils.iso_date_to_timestamp via sidecar2cdxj.py:36)."""
    digits = re.sub(r"[^0-9]", "", iso_date)
    return (digits + "00000000000000")[:14]


def cdxj_key(surt_url: str, ts14: str) -> str:
    """The merge-join key ``"<surt> <ts>"`` (merge_cdxj.py:69,90)."""
    return surt_url + " " + ts14
