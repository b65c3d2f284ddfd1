import json
import re

import numpy as np
import pytest

from cliplta import (
    FeatureStore,
    ValidationError,
    build_text_table,
    stub_embed,
)
from cliplta.errors import read_blob


class TestStubEmbed:
    def test_deterministic(self):
        np.testing.assert_array_equal(stub_embed(7, "cup", 8), stub_embed(7, "cup", 8))

    def test_unit_norm(self):
        assert abs(np.linalg.norm(stub_embed(7, "cup", 8)) - 1.0) < 1e-6

    def test_distinct_tokens_differ(self):
        assert not np.array_equal(stub_embed(7, "cup", 8), stub_embed(7, "knife", 8))

    def test_seed_changes_vector(self):
        assert not np.array_equal(stub_embed(7, "cup", 8), stub_embed(8, "cup", 8))

    def test_near_orthogonality_in_high_dim(self):
        # empirical check over 1000 token pairs at c=512: gaussian directions
        # concentrate around orthogonality, |cos| stays clear of 0.3
        cosines = [
            float(stub_embed(7, f"tok{2 * i}", 512) @ stub_embed(7, f"tok{2 * i + 1}", 512))
            for i in range(1000)
        ]
        assert max(abs(c) for c in cosines) < 0.3
        assert float(stub_embed(7, "cup", 512) @ stub_embed(7, "knife", 512)) == pytest.approx(0, abs=0.3)

    def test_width_too_small(self):
        with pytest.raises(ValidationError):
            stub_embed(7, "cup", 1)


class TestStoreRoundTrip:
    def test_write_read_identity(self, tmp_path):
        store = FeatureStore.create(tmp_path / "s", c=4, d_video=2)
        frames = np.arange(12, dtype=np.float32).reshape(3, 4)
        video = np.array([9.0, 8.0], dtype=np.float32)
        store.write_clip("a", frames, video)
        store.seal()
        reader = FeatureStore.open(tmp_path / "s")
        got_frames, got_video = reader.read_clip("a")
        np.testing.assert_array_equal(got_frames, frames)
        np.testing.assert_array_equal(got_video, video)

    def test_bit_exact_for_denormals_and_negative_zero(self, tmp_path):
        tricky = np.array(
            [[-0.0, np.finfo(np.float32).tiny, 1e-45, -1e-45],
             [np.finfo(np.float32).max, -np.finfo(np.float32).max, 0.0, 1.0]],
            dtype=np.float32,
        )
        store = FeatureStore.create(tmp_path / "s", c=4, d_video=4)
        store.write_clip("a", tricky, tricky[0])
        store.seal()
        got_frames, got_video = FeatureStore.open(tmp_path / "s").read_clip("a")
        assert got_frames.tobytes() == tricky.tobytes()
        assert got_video.tobytes() == tricky[0].tobytes()

    def test_random_round_trip_bit_exact(self, tmp_path, rng):
        store = FeatureStore.create(tmp_path / "s", c=7, d_video=3)
        originals = {}
        for i in range(5):
            frames = rng.standard_normal((rng.integers(1, 6), 7)).astype(np.float32)
            video = rng.standard_normal(3).astype(np.float32)
            originals[f"c{i}"] = (frames, video)
            store.write_clip(f"c{i}", frames, video)
        store.seal()
        reader = FeatureStore.open(tmp_path / "s")
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert [clip["id"] for clip in manifest["clips"]] == [f"c{i}" for i in range(5)]
        for cid, (frames, video) in originals.items():
            got_frames, got_video = reader.read_clip(cid)
            assert got_frames.tobytes() == frames.tobytes()
            assert got_video.tobytes() == video.tobytes()

    def test_manifest_schema(self, tmp_path):
        store = FeatureStore.create(tmp_path / "s", c=4, d_video=3)
        store.write_clip("a", np.ones((2, 4)), np.ones(3))
        store.seal()
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert set(manifest) == {"c", "d_video", "dtype", "clips"}
        assert manifest["c"] == 4 and manifest["d_video"] == 3
        assert manifest["dtype"] == "f32le"
        entry = manifest["clips"][0]
        assert set(entry) == {"id", "n_frames", "frames_file", "video_file"}
        assert entry["id"] == "a" and entry["n_frames"] == 2
        blob = (tmp_path / "s" / entry["frames_file"]).read_bytes()
        assert len(blob) == 2 * 4 * 4  # raw float32, no header


class TestStoreErrors:
    def test_duplicate_clip_id(self, tmp_path):
        store = FeatureStore.create(tmp_path / "s", c=4, d_video=3)
        store.write_clip("a", np.ones((2, 4)), np.ones(3))
        with pytest.raises(ValidationError, match="duplicate"):
            store.write_clip("a", np.ones((2, 4)), np.ones(3))

    def test_width_mismatch(self, tmp_path):
        store = FeatureStore.create(tmp_path / "s", c=4, d_video=3)
        with pytest.raises(ValidationError, match="width"):
            store.write_clip("a", np.ones((2, 8)), np.ones(3))

    def test_unknown_clip(self, tmp_path):
        store = FeatureStore.create(tmp_path / "s", c=4, d_video=3)
        store.write_clip("a", np.ones((2, 4)), np.ones(3))
        store.seal()
        with pytest.raises(ValidationError, match="missing"):
            FeatureStore.open(tmp_path / "s").read_clip("missing")

    def test_truncated_blob_is_corruption(self, tmp_path):
        store = FeatureStore.create(tmp_path / "s", c=4, d_video=3)
        store.write_clip("a", np.ones((2, 4)), np.ones(3))
        store.seal()
        blob = tmp_path / "s" / "clip_000000.frames.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
        where = re.escape(f"store manifest {tmp_path / 's' / 'manifest.json'}: clips[0].frames_file: ")
        with pytest.raises(ValidationError, match=where + "blob 'clip_000000.frames.bin' holds 28 bytes, expected 32"):
            FeatureStore.open(tmp_path / "s").read_clip("a")

    def test_long_blob_is_named(self, tmp_path):
        store = FeatureStore.create(tmp_path / "s", c=4, d_video=3)
        store.write_clip("a", np.ones((2, 4)), np.ones(3))
        store.write_clip("b", np.ones((2, 4)), np.ones(3))
        store.seal()
        blob = tmp_path / "s" / "clip_000001.video.bin"
        blob.write_bytes(blob.read_bytes() + b"\0")
        with pytest.raises(ValidationError, match=re.escape("clips[1].video_file: blob 'clip_000001.video.bin' "
                                                            "holds 13 bytes, expected 12")):
            FeatureStore.open(tmp_path / "s").read_clip("b")

    @pytest.mark.parametrize("field, index", [("frames_file", 5), ("video_file", 2)])
    def test_nonfinite_blob_names_entry(self, tmp_path, field, index):
        store = FeatureStore.create(tmp_path / "s", c=4, d_video=3)
        store.write_clip("a", np.ones((2, 4)), np.ones(3))
        store.seal()
        blob = tmp_path / "s" / ("clip_000000.frames.bin" if field == "frames_file" else "clip_000000.video.bin")
        values = np.frombuffer(blob.read_bytes(), dtype="<f4").copy()
        values[index] = np.inf
        blob.write_bytes(values.tobytes())
        where = re.escape(f"store manifest {tmp_path / 's' / 'manifest.json'}: clips[0].{field}: ")
        with pytest.raises(ValidationError, match=where + ".*non-finite"):
            FeatureStore.open(tmp_path / "s").read_clip("a")

    @pytest.mark.parametrize("key", ["c", "d_video"])
    def test_nonpositive_width_is_named(self, tmp_path, key):
        store = FeatureStore.create(tmp_path / "s", c=4, d_video=3)
        store.write_clip("a", np.ones((2, 4)), np.ones(3))
        store.seal()
        manifest = tmp_path / "s" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload[key] = -1
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=re.escape(f"{manifest}: '{key}' must be >= 1")):
            FeatureStore.open(tmp_path / "s")

    @pytest.mark.parametrize("c, d_video, message", [
        pytest.param(0, 3, "store width 'c' must be >= 1, got 0", id="c_zero"),
        pytest.param(4, -3, "store width 'd_video' must be >= 1, got -3", id="d_video_negative"),
        pytest.param(None, 3, "store width 'c' must be an integer, got None", id="c_none"),
        pytest.param(4, 3.0, "store width 'd_video' must be an integer, got 3.0", id="d_video_float"),
        pytest.param(True, 3, "store width 'c' must be an integer, got True", id="c_bool"),
    ])
    def test_create_rejects_widths_that_are_not_integers_from_1(self, tmp_path, c, d_video, message):
        # such a width would seal a manifest that FeatureStore.open rejects
        with pytest.raises(ValidationError, match=re.escape(message)):
            FeatureStore.create(tmp_path / "s", c, d_video)
        assert not (tmp_path / "s").exists()

    def test_store_sealed_without_a_write_opens(self, tmp_path):
        FeatureStore.create(tmp_path / "s", c=4, d_video=3).seal()
        reader = FeatureStore.open(tmp_path / "s")
        assert (reader.c, reader.d_video) == (4, 3) and "a" not in reader

    def test_sealed_store_rejects_writes(self, tmp_path):
        store = FeatureStore.create(tmp_path / "s", c=4, d_video=3)
        store.write_clip("a", np.ones((2, 4)), np.ones(3))
        store.seal()
        with pytest.raises(ValidationError, match="sealed"):
            store.write_clip("b", np.ones((2, 4)), np.ones(3))

    @pytest.mark.parametrize("frames, video, message", [
        pytest.param(np.array([[1.0, np.nan]]), np.ones(3), "frames for clip 'a' contain non-finite values",
                     id="frames_nan"),
        pytest.param(np.ones((2, 4)), np.array([1.0, np.inf, 0.0]),
                     "video descriptor for clip 'a' contains non-finite values", id="video_inf"),
        pytest.param(np.ones(4), np.ones(3), "frames for clip 'a' must be a non-empty 2-d matrix, got shape (4,)",
                     id="frames_1d"),
        pytest.param(np.ones((0, 4)), np.ones(3),
                     "frames for clip 'a' must be a non-empty 2-d matrix, got shape (0, 4)", id="frames_empty"),
        pytest.param(np.ones((2, 4)), np.ones((1, 3)),
                     "video descriptor for clip 'a' must be a 1-d vector, got shape (1, 3)", id="video_2d"),
        pytest.param(np.ones((2, 4)), np.float32(1.0),
                     "video descriptor for clip 'a' must be a 1-d vector, got shape ()", id="video_scalar"),
        pytest.param(np.ones((2, 4)), np.ones(0),
                     "video descriptor for clip 'a' must be a 1-d vector, got shape (0,)", id="video_empty"),
    ])
    def test_malformed_arrays_are_rejected_before_any_write(self, tmp_path, frames, video, message):
        store = FeatureStore.create(tmp_path / "s", c=4, d_video=3)
        with pytest.raises(ValidationError, match=re.escape(message)):
            store.write_clip("a", frames, video)
        assert list((tmp_path / "s").iterdir()) == []
        store.write_clip("a", np.ones((2, 4)), np.ones(3))  # the failed write did not take the id
        store.seal()
        assert FeatureStore.open(tmp_path / "s").c == 4

    def test_read_clip_returns_float32_arrays(self, tmp_path):
        store = FeatureStore.create(tmp_path / "s", c=2, d_video=2)
        store.write_clip("a", np.arange(6.0).reshape(3, 2), [7.0, 8.0])
        store.seal()
        frames, video = FeatureStore.open(tmp_path / "s").read_clip("a")
        assert frames.dtype == video.dtype == np.float32
        assert frames.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]] and video.tolist() == [7.0, 8.0]


class TestTextTable:
    def test_construction_and_row_order(self, small_taxonomy):
        table = build_text_table(small_taxonomy, "noun", "a photo of {}", 3, 8)
        assert len(table) == len(small_taxonomy.nouns)
        assert table.width == 8
        np.testing.assert_array_equal(table.embeddings[0], stub_embed(3, "a photo of cup", 8))

    def test_rebuild_identical(self, small_taxonomy):
        t1 = build_text_table(small_taxonomy, "noun", "a photo of {}", 3, 8)
        t2 = build_text_table(small_taxonomy, "noun", "a photo of {}", 3, 8)
        np.testing.assert_array_equal(t1.embeddings, t2.embeddings)

    def test_template_without_placeholder(self, small_taxonomy):
        with pytest.raises(ValidationError, match="placeholder"):
            build_text_table(small_taxonomy, "noun", "no placeholder", 3, 8)

    def test_template_with_two_placeholders(self, small_taxonomy):
        with pytest.raises(ValidationError, match="placeholder"):
            build_text_table(small_taxonomy, "noun", "{} and {}", 3, 8)


class TestReadBlob:
    def test_short_reads_are_retried(self, tmp_path):
        # a pipe hands the reader each write separately, so the first readv stops short
        import os
        import threading
        import time

        values = np.arange(6, dtype="<f4")
        fifo = tmp_path / "blob.fifo"
        os.mkfifo(fifo)

        def write_in_two_parts():
            with open(fifo, "wb", buffering=0) as f:
                f.write(values.tobytes()[:10])
                time.sleep(0.05)
                f.write(values.tobytes()[10:])

        writer = threading.Thread(target=write_in_two_parts)
        writer.start()
        try:
            got = read_blob(str(fifo), (2, 3))
        finally:
            # a second reader lets the writer finish even if read_blob failed before reading it all
            fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            writer.join(timeout=10)
            os.close(fd)
        assert not writer.is_alive()
        assert got.tobytes() == values.tobytes() and got.shape == (2, 3)

    def test_array_is_fresh_and_writable(self, tmp_path):
        blob = tmp_path / "b.bin"
        blob.write_bytes(np.arange(4, dtype="<f4").tobytes())
        first = read_blob(str(blob), (4,))
        assert first.flags.writeable and first.flags.owndata and first.dtype == np.dtype("<f4")
        first[:] = -1
        assert read_blob(str(blob), (4,)).tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_missing_blob_is_named(self, tmp_path):
        with pytest.raises(ValidationError, match="blob 'absent.bin' is missing"):
            read_blob(str(tmp_path / "absent.bin"), (4,))
