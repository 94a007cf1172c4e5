"""Reading and writing domains and reports with exact rationals.

Rationals travel as strings "p/q" or "n" so that no JSON float ever
touches a value; a domain file is read straight into integers.
Serialisation is canonical: sorted keys, two-space indent, one trailing
newline, so identical data gives identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Union

from .domains import ToricDomain
from .errors import DomainError


def domain_to_json(domain: ToricDomain) -> dict:
    D = domain.D
    return {
        "type": domain.kind,
        "boundary": [[str(Fraction(x, D)), str(Fraction(y, D))]
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


def read_domain(path: Union[str, Path]) -> tuple[ToricDomain, str]:
    """The domain in a file and the sha256 of the bytes it was read from.

    The file is opened once.  Its bytes are decoded as a text-mode read
    would decode them: UTF-8, with universal newlines; bytes that are not
    UTF-8 are a DomainError.
    """
    data = Path(path).read_bytes()
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc})") from exc
    raw = raw.replace("\r\n", "\n").replace("\r", "\n")
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: not valid JSON ({exc})") from exc
    except ValueError as exc:  # a number past sys.get_int_max_str_digits()
        raise DomainError(f"{path}: number too long to read ({exc})") from exc
    return domain_from_json(obj), digest_bytes(data)


def load_domain(path: Union[str, Path]) -> ToricDomain:
    return read_domain(path)[0]


def save_domain(domain: ToricDomain, path: Union[str, Path]) -> None:
    Path(path).write_text(canonical_json(domain_to_json(domain)),
                          encoding="utf-8")


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_file(path: Union[str, Path]) -> str:
    return digest_bytes(Path(path).read_bytes())
