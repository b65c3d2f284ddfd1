"""Exception types shared across the package.

Two categories, mirroring the CLI exit codes: bad inputs (schemas,
preconditions, lookups) and numeric/runtime failures. ``read_json_object``
is the one JSON reader, so a malformed file is always a bad input,
``require`` checks the type of one field read from it,
``require_file_name`` checks a field that names a blob beside the manifest,
and ``read_blob`` is the one reader of such a blob.
"""

import json
import os
from pathlib import Path

import numpy as np


class ValidationError(ValueError):
    """Input violates a schema, precondition, or lookup contract. CLI exit 2."""


class NumericError(RuntimeError):
    """Numeric failure at runtime (non-finite loss or logits). CLI exit 3."""


def read_json_object(path: Path, what: str) -> dict:
    """Parse ``path`` as a JSON object; raises ValidationError naming ``what`` and the path."""
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ValidationError(f"{what} {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return raw


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def require(value, kind: type, what: str):
    """``value`` if JSON gave it as a ``kind``; raises ValidationError naming ``what`` otherwise.

    A bool is never an integer or a number; a number may be an integer.
    """
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValidationError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def require_file_name(value, what: str) -> str:
    """``value`` if it is a plain file name; raises ValidationError naming ``what`` otherwise.

    A manifest names its blobs relative to its own directory, so a name
    holds no path separator (``/`` or ``\\``) and no NUL, and is not ``""``,
    ``.`` or ``..``: a manifest can never point at a file outside that
    directory, or at the directory itself.
    """
    name = require(value, str, what)
    if name in ("", ".", "..") or "/" in name or "\\" in name or "\0" in name:
        raise ValidationError(f"{what} must be a plain file name inside its directory, got {name!r}")
    return name


def read_blob(path: str, shape: tuple[int, ...]) -> np.ndarray:
    """The headerless ``<f4`` blob at ``path`` as a new, writable array of ``shape``.

    One ``os.open`` and one ``readv`` into the array plus a spare byte, with
    no intermediate bytes object; a short read is retried until end of file,
    so only a blob longer than ``shape`` fills the spare byte. A missing blob,
    or one not holding exactly ``shape``-many float32 values, raises
    ValidationError naming the blob and both byte counts; the caller prefixes
    the manifest field that names the blob.
    """
    out = np.empty(shape, "<f4")
    expected = out.nbytes
    spare = bytearray(1)  # filled only by a byte past the blob's expected end; never read
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError as e:
        raise ValidationError(f"blob {os.path.basename(path)!r} is missing: {e.strerror}") from e
    try:
        got = n = os.readv(fd, [out, spare])
        while n and got < expected:
            n = os.readv(fd, [memoryview(out).cast("B")[got:], spare])
            got += n
        if got != expected:
            raise ValidationError(f"blob {os.path.basename(path)!r} holds {os.fstat(fd).st_size} bytes, "
                                  f"expected {expected}")
    finally:
        os.close(fd)
    return out
