"""Label spaces for verbs, nouns, scenarios, and places.

Ids are 0-based file order and never change after load. Unknown labels are
hard errors; nothing is remapped silently, because a silently remapped id
corrupts every edit-distance score downstream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError, read_json_object

CATEGORIES = ("verb", "noun", "scenario", "place")

_CATEGORY_TO_KEY = {
    "verb": "verbs",
    "noun": "nouns",
    "scenario": "scenarios",
    "place": "places",
}


def _check_vocab(name: str, entries: list[str]) -> tuple[str, ...]:
    if not entries:
        raise ValidationError(f"taxonomy list '{name}' is empty")
    seen = set()
    for entry in entries:
        if not isinstance(entry, str) or not entry.strip():
            raise ValidationError(f"taxonomy list '{name}' contains a blank entry")
        if entry in seen:
            raise ValidationError(f"duplicate entry {entry!r} in taxonomy list '{name}'")
        seen.add(entry)
    return tuple(entries)


@dataclass(frozen=True)
class Taxonomy:
    """Immutable vocabularies; the id of an entry is its position."""

    verbs: tuple[str, ...]
    nouns: tuple[str, ...]
    scenarios: tuple[str, ...]
    places: tuple[str, ...]
    _verb_ids: dict = field(init=False, repr=False, compare=False)
    _noun_ids: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "verbs", _check_vocab("verbs", list(self.verbs)))
        object.__setattr__(self, "nouns", _check_vocab("nouns", list(self.nouns)))
        object.__setattr__(self, "scenarios", _check_vocab("scenarios", list(self.scenarios)))
        object.__setattr__(self, "places", _check_vocab("places", list(self.places)))
        object.__setattr__(self, "_verb_ids", {v: i for i, v in enumerate(self.verbs)})
        object.__setattr__(self, "_noun_ids", {n: i for i, n in enumerate(self.nouns)})

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
    identical ids.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"taxonomy file not found: {path}")
    raw = read_json_object(path, "taxonomy file")
    for key in ("verbs", "nouns", "scenarios", "places"):
        if key not in raw:
            raise ValidationError(f"taxonomy file {path} is missing key '{key}'")
        if not isinstance(raw[key], list):
            raise ValidationError(f"taxonomy key '{key}' must be an array of strings")
    return Taxonomy(
        verbs=tuple(raw["verbs"]),
        nouns=tuple(raw["nouns"]),
        scenarios=tuple(raw["scenarios"]),
        places=tuple(raw["places"]),
    )


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


def encode_action(taxonomy: Taxonomy, verb: str, noun: str) -> ActionLabel:
    """Map (verb, noun) strings to ids; unknown tokens raise."""
    verb_id = taxonomy._verb_ids.get(verb)
    if verb_id is None:
        raise ValidationError(f"unknown verb {verb!r}")
    noun_id = taxonomy._noun_ids.get(noun)
    if noun_id is None:
        raise ValidationError(f"unknown noun {noun!r}")
    return ActionLabel(verb_id=verb_id, noun_id=noun_id)


def decode_action(taxonomy: Taxonomy, label: ActionLabel) -> tuple[str, str]:
    if not 0 <= label.verb_id < len(taxonomy.verbs):
        raise ValidationError(f"verb id {label.verb_id} out of range")
    if not 0 <= label.noun_id < len(taxonomy.nouns):
        raise ValidationError(f"noun id {label.noun_id} out of range")
    return taxonomy.verbs[label.verb_id], taxonomy.nouns[label.noun_id]
