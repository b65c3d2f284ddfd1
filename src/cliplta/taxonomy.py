"""Label spaces for verbs, nouns, scenarios, and places.

Ids are 0-based file order and never change after load. Unknown labels are
hard errors; nothing is remapped silently, because a silently remapped id
corrupts every edit-distance score downstream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError, read_json_object, require

CATEGORIES = ("verb", "noun", "scenario", "place")

_CATEGORY_TO_KEY = {
    "verb": "verbs",
    "noun": "nouns",
    "scenario": "scenarios",
    "place": "places",
}


def _check_vocab(what: str, entries) -> tuple[str, ...]:
    """``entries`` as a tuple of distinct, non-blank strings; a failed check names ``what`` and the index."""
    if not entries:
        raise ValidationError(f"{what} is empty")
    first: dict[str, int] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, str):
            raise ValidationError(f"{what}[{i}] must be a string, got {entry!r}")
        if not entry.strip():
            raise ValidationError(f"{what}[{i}] is blank")
        if first.setdefault(entry, i) != i:
            raise ValidationError(f"{what}[{i}] {entry!r} duplicates [{first[entry]}]")
    return tuple(entries)


@dataclass(frozen=True)
class Taxonomy:
    """Immutable vocabularies; the id of an entry is its position."""

    verbs: tuple[str, ...]
    nouns: tuple[str, ...]
    scenarios: tuple[str, ...]
    places: tuple[str, ...]

    def __post_init__(self):
        for key in _CATEGORY_TO_KEY.values():
            object.__setattr__(self, key, _check_vocab(f"taxonomy list '{key}'", getattr(self, key)))

    def vocab(self, category: str) -> tuple[str, ...]:
        """Entries for one of 'verb', 'noun', 'scenario', 'place'."""
        if category not in _CATEGORY_TO_KEY:
            raise ValidationError(f"unknown category {category!r}; expected one of {CATEGORIES}")
        return getattr(self, _CATEGORY_TO_KEY[category])

    def sha256(self) -> str:
        """Hash of the canonical JSON serialization; stable across load/save."""
        canonical = json.dumps(
            {
                "verbs": list(self.verbs),
                "nouns": list(self.nouns),
                "scenarios": list(self.scenarios),
                "places": list(self.places),
            },
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=False,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ActionLabel:
    verb_id: int
    noun_id: int


@dataclass(frozen=True)
class GroundTruthSequence:
    example_id: str
    actions: tuple[ActionLabel, ...]

    @property
    def verb_ids(self) -> list[int]:
        return [a.verb_id for a in self.actions]

    @property
    def noun_ids(self) -> list[int]:
        return [a.noun_id for a in self.actions]


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Read a taxonomy JSON file ({"verbs": [...], "nouns": [...], ...}).

    File order defines the ids, so loading the same file twice always yields
    identical ids. Each key must hold a non-empty array of distinct,
    non-blank strings; a failed check names the file, the key and the index.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"taxonomy file not found: {path}")
    raw = read_json_object(path, "taxonomy file")
    vocabs = {}
    for key in _CATEGORY_TO_KEY.values():
        if key not in raw:
            raise ValidationError(f"taxonomy file {path} is missing key '{key}'")
        what = f"taxonomy file {path}: '{key}'"
        vocabs[key] = _check_vocab(what, require(raw[key], list, what))
    return Taxonomy(**vocabs)


def save_taxonomy(taxonomy: Taxonomy, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "verbs": list(taxonomy.verbs),
                "nouns": list(taxonomy.nouns),
                "scenarios": list(taxonomy.scenarios),
                "places": list(taxonomy.places),
            },
            f,
            indent=2,
            ensure_ascii=False,
        )
        f.write("\n")
