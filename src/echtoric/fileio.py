"""Reading and writing domains and reports with exact rationals.

Rationals travel as strings "p/q" or "n" so that no JSON float ever
touches a value; a domain file is read straight into integers, and
ratio_text, the one formatter of domain files and CLI reports, writes
n/D as str(Fraction(n, D)) would, from one gcd and no Fraction.
Serialisation is canonical, so identical data gives identical bytes:
canonical_json is json.dumps(obj, sort_keys=True, indent=2) + "\n" byte
for byte, without the pure-Python encoder an indent puts json on.
Every file the package reads goes through _read_bytes, four system
calls for a small file, and every file it writes through _overwrite,
which writes over the old bytes in place rather than truncating first.
An input's digest is the interpreter's built-in SHA-256, so reading
and digesting a file load no OpenSSL.
"""

from __future__ import annotations

import json
import os
from math import gcd, isfinite
from stat import S_ISREG
from typing import Union

from .domains import ToricDomain
from .errors import DomainError, LimitError

# the built-in SHA-256 (_sha2 from 3.12, _sha256 before), which needs no
# OpenSSL: hashlib loads _hashlib, and with it libcrypto, on import
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256


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

    The file is read once, by _read_bytes.  Its bytes are decoded as a
    text-mode read would decode them: UTF-8, with universal newlines;
    bytes that are not UTF-8 are a DomainError, and so are JSON numbers
    and nesting past the interpreter's digit and recursion limits.
    """
    data = _read_bytes(path)
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
    _overwrite(path, canonical_json(domain_to_json(domain)))


# open(path, "rb")
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)


def _read_bytes(path: Union[str, os.PathLike]) -> bytes:
    """The bytes of a file, as open(path, "rb").read() returns them.

    A small file costs four system calls: open, a read of its bytes, a
    read that finds the end, and close.  open() adds an fstat, an ioctl
    asking whether the file is a terminal and lseeks.  A file that does
    not open, or a directory, which opens but does not read, raises the
    OSError open() raises, its text and filename included, as in
    "[Errno 21] Is a directory: 'path'".
    """
    fd = os.open(path, _READ_FLAGS)
    try:
        chunks = []
        while True:
            try:
                chunk = os.read(fd, 1 << 16)
            except IsADirectoryError as exc:  # open() names the path
                raise IsADirectoryError(exc.errno, exc.strerror,
                                        os.fspath(path)) from None
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    finally:
        os.close(fd)


# open(path, "w") without O_TRUNC
_OVERWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _overwrite(path: Union[str, os.PathLike], text: str) -> None:
    """Write text to path, UTF-8 encoded, over what the file held.

    The text is encoded before the file is opened, so text that cannot
    be encoded leaves the file untouched.  The file is opened as
    open(path, "w") opens it, mode 0o666 less the umask, but not cut to
    zero: the bytes are written over the old ones and a regular file is
    then cut at the end of the new text, or where a failed write
    stopped.  On ext4 with its default auto_da_alloc, closing a file
    that was truncated to zero starts its writeback
    (https://docs.kernel.org/admin-guide/ext4.html): on a cloud VM's
    ext4 disk, open(path, "w") over a 10 KB drawing took 110-135 us and
    this writer 7-10 us.  A device, FIFO or terminal is written and
    never truncated, as ftruncate refuses them.
    """
    data = text.encode("utf-8")
    fd = os.open(path, _OVERWRITE_FLAGS, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            if S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)


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
    """The sha256 of data as hex, what hashlib.sha256 gives.  The
    built-in hash is quicker on a domain file's few kilobytes than
    OpenSSL's, counting its import, but slower past that: on a 2-vCPU
    Xeon VM under Python 3.11 a megabyte took 4.5 ms against OpenSSL's
    0.8 ms."""
    return _sha256(data).hexdigest()


def digest_file(path: Union[str, os.PathLike]) -> str:
    return digest_bytes(_read_bytes(path))
