"""Reading and writing domains and reports with exact rationals.

Rationals travel as strings "p/q" or "n" so that no JSON float ever
touches a value; a domain file is read straight into integers, and
ratio_text, the one formatter of domain files and CLI reports, writes
n/D as str(Fraction(n, D)) would, from one gcd and no Fraction.
Serialisation is canonical, so identical data gives identical bytes:
canonical_json is json.dumps(obj, sort_keys=True, indent=2) + "\n" byte
for byte, without the pure-Python encoder an indent puts json on.
"""

from __future__ import annotations

import hashlib
import json
import os
from math import gcd, isfinite
from typing import Union

from .domains import ToricDomain
from .errors import DomainError, LimitError


def ratio_text(n: int, D: int) -> str:
    """The text of n/D for D > 0, "p/q" in lowest terms or "p", as
    str(Fraction(n, D)) gives it.  A part with more digits than
    sys.get_int_max_str_digits() allows is a LimitError."""
    g = gcd(n, D)
    try:
        return str(n // g) if g == D else f"{n // g}/{D // g}"
    except ValueError:
        raise LimitError("a value has too many digits to print") from None


def domain_to_json(domain: ToricDomain) -> dict:
    D = domain.D
    return {
        "type": domain.kind,
        "boundary": [[ratio_text(x, D), ratio_text(y, D)]
                     for x, y in domain.ints],
    }


def domain_from_json(obj: object) -> ToricDomain:
    if not isinstance(obj, dict):
        raise DomainError("domain file must hold a JSON object")
    kind = obj.get("type")
    if kind not in ("concave", "convex"):
        raise DomainError(f"domain type must be concave or convex, got {kind!r}")
    boundary = obj.get("boundary")
    if not isinstance(boundary, list):
        raise DomainError("domain boundary must be a list of [x, y] pairs")
    for entry in boundary:
        if not isinstance(entry, list) or len(entry) != 2:
            raise DomainError(f"boundary entry {entry!r} is not an [x, y] pair")
    # ToricDomain.of reads the numerals straight into integers
    return ToricDomain.of(kind, boundary)


def read_domain(path: Union[str, os.PathLike]
                ) -> tuple[ToricDomain, str]:
    """The domain in a file and the sha256 of the bytes it was read from.

    The file is opened once.  Its bytes are decoded as a text-mode read
    would decode them: UTF-8, with universal newlines; bytes that are not
    UTF-8 are a DomainError, and so are JSON numbers and nesting past the
    interpreter's digit and recursion limits.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc})") from exc
    raw = raw.replace("\r\n", "\n").replace("\r", "\n")
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: not valid JSON ({exc})") from exc
    except (ValueError, RecursionError) as exc:  # digit or depth limit
        raise DomainError(f"{path}: too long or deep to read ({exc})") from exc
    return domain_from_json(obj), digest_bytes(data)


def load_domain(path: Union[str, os.PathLike]) -> ToricDomain:
    return read_domain(path)[0]


def save_domain(domain: ToricDomain,
                path: Union[str, os.PathLike]) -> None:
    # the text is built before the file is opened, so a domain that
    # cannot be written leaves no file behind
    text = canonical_json(domain_to_json(domain))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


_quote = json.encoder.encode_basestring_ascii


def canonical_json(obj: object) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", byte for byte,
    for dicts with str keys, lists, tuples, str, int, bool, None and
    float; anything else is a TypeError."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out) + "\n"


def _write(obj: object, out: list[str], nl: str) -> None:
    """Append the text of obj, whose lines break and indent with nl."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        inner, sep = nl + "  ", "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key)}")
            out.append(sep + inner + _quote(key) + ": ")
            _write(obj[key], out, inner)
            sep = ","
        out.append(nl + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner, sep = nl + "  ", "["
        head = type(obj[0])
        # a list of strings is one join, and so is a list of ints (a bool
        # is not one: it prints as true or false)
        if head is str or head is int and all(type(x) is int for x in obj):
            try:
                out.append(f"[{inner}" + f",{inner}".join(
                    map(_quote if head is str else int.__repr__, obj))
                    + f"{nl}]")
                return
            except TypeError:  # a string first, then something else
                pass
        for item in obj:
            out.append(sep + inner)
            _write(item, out, inner)
            sep = ","
        out.append(nl + "]")
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):  # json's float rule
        out.append(float.__repr__(obj) if isfinite(obj) else "NaN"
                   if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    else:
        raise TypeError(f"{type(obj)} is not JSON serializable")


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_file(path: Union[str, os.PathLike]) -> str:
    with open(path, "rb") as f:
        return digest_bytes(f.read())
