"""Exception types shared across the package.

Two categories, mirroring the CLI exit codes: bad inputs (schemas,
preconditions, lookups) and numeric/runtime failures. ``read_json_object``
is the one JSON reader, so a malformed file is always a bad input, and
``require`` checks the type of one field read from it.
"""

import json
from pathlib import Path


class ValidationError(ValueError):
    """Input violates a schema, precondition, or lookup contract. CLI exit 2."""


class NumericError(RuntimeError):
    """Numeric failure at runtime (non-finite loss, corrupt blob). CLI exit 3."""


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
