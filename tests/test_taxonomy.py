import json

import pytest

from cliplta import (
    Taxonomy,
    ValidationError,
    load_taxonomy,
    save_taxonomy,
)


def write_taxonomy_file(tmp_path, **lists):
    payload = {"verbs": ["take", "put"], "nouns": ["cup"],
               "scenarios": ["cooking"], "places": ["kitchen"]}
    payload.update(lists)
    path = tmp_path / "taxonomy.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoad:
    def test_direct_readback(self, tmp_path):
        tax = load_taxonomy(write_taxonomy_file(tmp_path))
        assert len(tax.verbs) == 2
        assert tax.verbs == ("take", "put")
        assert tax.nouns == ("cup",)

    def test_loading_twice_is_identical(self, tmp_path):
        path = write_taxonomy_file(tmp_path)
        assert load_taxonomy(path) == load_taxonomy(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = write_taxonomy_file(tmp_path, verbs=["take", "take"])
        with pytest.raises(ValidationError, match="verbs"):
            load_taxonomy(path)

    def test_empty_list_rejected(self, tmp_path):
        path = write_taxonomy_file(tmp_path, nouns=[])
        with pytest.raises(ValidationError, match="nouns"):
            load_taxonomy(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_taxonomy(tmp_path / "nope.json")

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"verbs": ["a"]}), encoding="utf-8")
        with pytest.raises(ValidationError, match="nouns"):
            load_taxonomy(path)

    def test_save_load_round_trip_preserves_ids(self, tmp_path, small_taxonomy):
        path = tmp_path / "roundtrip.json"
        save_taxonomy(small_taxonomy, path)
        loaded = load_taxonomy(path)
        assert loaded == small_taxonomy
        assert loaded.sha256() == small_taxonomy.sha256()


class TestInvariants:
    def test_blank_entry_rejected(self):
        with pytest.raises(ValidationError, match="blank"):
            Taxonomy(verbs=("a", "  "), nouns=("b",), scenarios=("c",), places=("d",))

    def test_hash_is_order_sensitive(self):
        t1 = Taxonomy(verbs=("a", "b"), nouns=("x",), scenarios=("s",), places=("p",))
        t2 = Taxonomy(verbs=("b", "a"), nouns=("x",), scenarios=("s",), places=("p",))
        assert t1.sha256() != t2.sha256()
