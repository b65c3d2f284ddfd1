"""Exception types, and the one reader and one writer of every file.

Two categories, mirroring the CLI exit codes: bad inputs (schemas,
preconditions, lookups) and numeric/runtime failures. ``read_json_object``
is the one JSON reader, so a malformed file is always a bad input,
``require`` checks the type of one field read from it (a number must also be
finite), ``build_config`` checks every field of a config dataclass read from
it or given as a command-line flag, ``check_minimums`` is the one lower-bound
check of a config's fields, ``require_file_name`` checks a field that names a
blob beside the manifest, and ``read_blob`` is the one reader of such a blob.

``write_file`` writes every other file atomically (a temporary file, then
``os.replace``; no fsync), and ``write_blob``, the inverse of ``read_blob``,
writes a blob in place: its manifest, written last by ``write_file``,
publishes it.
"""

import dataclasses
import json
import os
import sys
import typing
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
        except ValueError as e:  # bad JSON, bad UTF-8, or an integer past Python's digit limit
            raise ValidationError(f"{what} {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return raw


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean", list: "a list",
               dict: "an object"}


def require(value, kind: type, what: str):
    """``value`` if JSON gave it as a ``kind``; raises ValidationError naming ``what`` otherwise.

    A bool is never an integer or a number; a number may be an integer, and
    must be finite as a float: JSON's ``NaN`` and ``Infinity`` are not
    numbers here, nor is an integer beyond the float range.
    """
    kinds = (int, float) if kind is float else kind
    if (isinstance(value, bool) and kind is not bool) or not isinstance(value, kinds):
        raise ValidationError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # False for NaN too
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    return value


def field_types(cls) -> dict[str, tuple]:
    """Each field name of the dataclass ``cls`` -> its annotated type's arguments (``X | None`` -> X, NoneType)."""
    hints = typing.get_type_hints(cls)
    return {f.name: typing.get_args(hints[f.name]) or (hints[f.name],) for f in dataclasses.fields(cls)}


def build_config(cls, values: dict, what: str, flags: dict | None = None):
    """``cls`` from ``values``, read from ``what``, each of the command line's ``flags`` overriding them.

    Each key must name a field, each field without a default must be given,
    and each value must pass ``require`` for its field's annotated type
    (``X | None`` also takes None); a failed check raises ValidationError
    naming ``what`` (``command line`` for a flag) and the key. ``cls``'s own
    checks are prefixed with ``what``.
    """
    flags = flags or {}
    values = {**values, **flags}
    types = field_types(cls)
    unknown = sorted(set(values) - set(types))
    if unknown:
        raise ValidationError(f"{what}: unknown keys {unknown}")
    for f in dataclasses.fields(cls):
        if f.name in values:
            kind, *rest = types[f.name]
            if not (values[f.name] is None and type(None) in rest):
                require(values[f.name], kind, f"{'command line' if f.name in flags else what}: '{f.name}'")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValidationError(f"{what}: missing key '{f.name}'")
    try:
        return cls(**values)
    except ValidationError as e:
        raise ValidationError(f"{what}: {e}") from e


def check_minimums(config, minimums: dict) -> None:
    """Raise ValidationError naming the first field of ``minimums`` below its least value (or NaN) in ``config``."""
    for name, least in minimums.items():
        value = getattr(config, name)
        if not value >= least:
            raise ValidationError(f"config field {name} must be >= {least}, got {value}")


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


def write_file(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (a str as UTF-8) to ``path`` atomically, creating its directory.

    The bytes go to a temporary file beside ``path`` that ``os.replace``
    then moves over it; if either step raises, the temporary file is
    removed and ``path`` keeps its old bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_blob(path: str, array: np.ndarray) -> None:
    """Write ``array`` to ``path`` in place as a headerless ``<f4`` blob."""
    data = memoryview(np.ascontiguousarray(array, dtype="<f4")).cast("B")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


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
