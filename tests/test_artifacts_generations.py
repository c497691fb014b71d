"""Crash-safe generational artifacts: publish, verify, resolve, GC.

The store-level tests run over synthetic flat files (publishing does
not parse artifact contents); the pipeline-level tests share one tiny
end-to-end run and cover generation-bound reload, corruption detection
naming file + generation, hot swap, and the ``gc`` CLI.
"""

import json

import numpy as np
import pytest

from repro.pipeline import ArtifactStore, Pipeline, PipelineConfig
from repro.pipeline.artifacts import ArtifactCorruptionError
from repro.pipeline.cli import main as cli_main
from repro.testing.faults import FaultSpec, install, reset


@pytest.fixture(autouse=True)
def clean_injector():
    reset()
    yield
    reset()


def make_store(tmp_path, **contents):
    store = ArtifactStore(tmp_path / "art")
    defaults = {ArtifactStore.CONFIG: b'{"name": "t"}',
                ArtifactStore.INDICES: b"not-really-npz",
                ArtifactStore.MODEL: b"weights"}
    defaults.update(contents)
    for name, payload in defaults.items():
        store.path(name).write_bytes(payload)
    return store


class TestPublish:
    def test_publish_and_resolve(self, tmp_path):
        store = make_store(tmp_path)
        generation = store.publish_generation()
        assert generation == 1
        assert store.generations() == [1]
        assert store.latest_generation() == 1
        resolved = store.resolve(ArtifactStore.INDICES)
        assert resolved == store.generation_dir(1) / ArtifactStore.INDICES
        assert resolved.read_bytes() == b"not-really-npz"

    def test_manifest_checksums_every_file(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        manifest = store.load_manifest(1)
        files = manifest["files"]
        assert set(files) == {ArtifactStore.CONFIG, ArtifactStore.INDICES,
                              ArtifactStore.MODEL}
        for entry in files.values():
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] > 0

    def test_checkpoint_never_published(self, tmp_path):
        store = make_store(tmp_path)
        store.path(ArtifactStore.CHECKPOINT).write_bytes(b"resume state")
        store.publish_generation()
        assert ArtifactStore.CHECKPOINT not in store.load_manifest(1)["files"]

    def test_generations_are_immutable_snapshots(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        store.path(ArtifactStore.MODEL).write_bytes(b"NEW weights")
        store.publish_generation()
        gen1 = store.generation_dir(1) / ArtifactStore.MODEL
        gen2 = store.generation_dir(2) / ArtifactStore.MODEL
        assert gen1.read_bytes() == b"weights"
        assert gen2.read_bytes() == b"NEW weights"

    def test_crashed_publish_leaves_no_generation(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        install(FaultSpec(site="artifacts.publish"))
        with pytest.raises(Exception):
            store.publish_generation()
        reset()
        assert store.generations() == [1]
        # ids never collide with the failed attempt and staging is gone
        assert store.publish_generation() == 2
        leftovers = [p.name for p in store.generations_root.iterdir()
                     if p.name.startswith(".staging")]
        assert leftovers == []

    def test_publish_requires_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path / "empty")
        with pytest.raises(FileNotFoundError, match="no artifacts"):
            store.publish_generation()


class TestVerify:
    def test_truncation_names_file_and_generation(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        target = store.generation_dir(1) / ArtifactStore.INDICES
        target.write_bytes(target.read_bytes()[: 4])
        with pytest.raises(ArtifactCorruptionError) as err:
            store.verify_generation(1)
        assert ArtifactStore.INDICES in str(err.value)
        assert "000001" in str(err.value)
        assert err.value.path == target
        assert err.value.generation == 1

    def test_bitflip_fails_checksum(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        target = store.generation_dir(1) / ArtifactStore.MODEL
        payload = bytearray(target.read_bytes())
        payload[0] ^= 0xFF
        target.write_bytes(bytes(payload))
        with pytest.raises(ArtifactCorruptionError, match="checksum"):
            store.verify_generation(1)

    def test_resolve_skips_corrupt_older_generations(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        store.publish_generation()
        # corrupt the *older* generation; latest still resolves cleanly
        (store.generation_dir(1) / ArtifactStore.MODEL).write_bytes(b"x")
        assert store.resolve(ArtifactStore.MODEL) == \
            store.generation_dir(2) / ArtifactStore.MODEL

    def test_resolve_explicit_missing_generation(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        with pytest.raises(FileNotFoundError, match="not published"):
            store.resolve(ArtifactStore.MODEL, generation=9)

    def test_resolve_flat_fallback(self, tmp_path):
        store = make_store(tmp_path)  # nothing published
        assert store.resolve(ArtifactStore.MODEL) == \
            store.path(ArtifactStore.MODEL)


class TestGC:
    def test_keeps_newest(self, tmp_path):
        store = make_store(tmp_path)
        for _ in range(4):
            store.publish_generation()
        removed = store.gc(keep=2)
        assert removed == [1, 2]
        assert store.generations() == [3, 4]

    def test_never_removes_live(self, tmp_path):
        store = make_store(tmp_path)
        for _ in range(3):
            store.publish_generation()
        removed = store.gc(keep=1, live=1)
        assert 1 not in removed
        assert 1 in store.generations()

    def test_keep_must_be_positive(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ValueError, match="keep"):
            store.gc(keep=0)

    def test_cli_gc(self, tmp_path, capsys):
        store = make_store(tmp_path)
        for _ in range(3):
            store.publish_generation()
        assert cli_main(["gc", "--artifacts", str(store.root),
                         "--keep", "1"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 generation(s)" in out
        assert "live: 000003" in out
        assert store.generations() == [3]

    def test_cli_gc_empty(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "bare")
        assert cli_main(["gc", "--artifacts", str(store.root),
                         "--keep", "1"]) == 0
        assert "no published generations" in capsys.readouterr().out


TINY_GEN = {
    "name": "gen-tiny",
    "data": {
        "days": 2, "train_days": 1, "seed": 11,
        "simulator": {"num_queries": 120, "num_items": 180, "num_ads": 60,
                      "num_users": 90, "tree_depth": 3, "tree_branching": 2},
    },
    "model": {"name": "amcad", "num_subspaces": 2, "subspace_dim": 4},
    "training": {"steps": 6, "batch_size": 32},
    "index": {"top_k": 8},
    "serving": {"measure_requests": 0},
    "eval": {"enabled": False},
}


@pytest.fixture(scope="module")
def gen_pipeline(tmp_path_factory):
    artifact_dir = tmp_path_factory.mktemp("gen-artifacts")
    config = PipelineConfig.from_dict(json.loads(json.dumps(TINY_GEN)))
    pipeline = Pipeline(config, artifact_dir=str(artifact_dir))
    pipeline.run()
    return pipeline


class TestPipelineGenerations:
    def test_run_publishes_generation(self, gen_pipeline):
        assert gen_pipeline.serving_generation == 1
        store = gen_pipeline.store
        files = store.load_manifest(1)["files"]
        assert {ArtifactStore.CONFIG, ArtifactStore.MODEL,
                ArtifactStore.INDICES, ArtifactStore.REPORT} <= set(files)

    def test_from_artifacts_binds_latest_generation(self, gen_pipeline):
        reloaded = Pipeline.from_artifacts(gen_pipeline.store.root)
        assert reloaded.serving_generation == 1
        queries = [3, 14, 15]
        a = gen_pipeline.engine.serve(queries, k=5)
        b = reloaded.serve(queries, k=5)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.ads, rb.ads)

    def test_from_artifacts_explicit_generation(self, gen_pipeline):
        reloaded = Pipeline.from_artifacts(gen_pipeline.store.root,
                                           generation=1)
        assert reloaded.serving_generation == 1
        with pytest.raises(FileNotFoundError, match="no manifest"):
            Pipeline.from_artifacts(gen_pipeline.store.root, generation=7)

    def test_truncated_indices_reported_with_file_and_generation(
            self, gen_pipeline, tmp_path):
        # work on a copy so the shared fixture stays intact
        import shutil
        root = tmp_path / "corrupt"
        shutil.copytree(gen_pipeline.store.root, root)
        store = ArtifactStore(root, create=False)
        target = store.generation_dir(1) / ArtifactStore.INDICES
        target.write_bytes(target.read_bytes()[: 100])
        with pytest.raises(ArtifactCorruptionError) as err:
            Pipeline.from_artifacts(root)
        assert "indices.npz" in str(err.value)
        assert "000001" in str(err.value)

    def test_hot_swap_flips_engine_generation(self, gen_pipeline, tmp_path):
        import shutil
        root = tmp_path / "swap"
        shutil.copytree(gen_pipeline.store.root, root)
        pipeline = Pipeline.from_artifacts(root)
        engine = pipeline.engine
        before = engine.serve([3, 14], k=5)
        new_gen = pipeline.store.publish_generation()
        swapped = pipeline.hot_swap()
        assert swapped == new_gen == pipeline.serving_generation
        assert engine.generation == new_gen
        assert engine.stats.swaps == 1
        after = engine.serve([3, 14], k=5)
        for ra, rb in zip(before, after):
            np.testing.assert_array_equal(ra.ads, rb.ads)

    def test_hot_swap_without_generations(self, tmp_path):
        config = PipelineConfig.from_dict(json.loads(json.dumps(TINY_GEN)))
        pipeline = Pipeline(config, artifact_dir=str(tmp_path / "none"))
        with pytest.raises(FileNotFoundError, match="no published"):
            pipeline.hot_swap()

    def test_cli_serve_from_generation(self, gen_pipeline, capsys):
        assert cli_main(["serve", "--artifacts",
                         str(gen_pipeline.store.root),
                         "--generation", "1", "--queries", "3"]) == 0
        out = capsys.readouterr().out
        assert "serving generation 000001" in out
        assert "query 3" in out


class TestCompressedGenerations:
    """Artifacts are written uncompressed; generations published by the
    zlib-compressing writer must still verify, load and serve."""

    def test_new_archives_are_stored_uncompressed(self, gen_pipeline):
        import zipfile
        for name in (ArtifactStore.MODEL, ArtifactStore.INDICES):
            path = gen_pipeline.store.generation_dir(1) / name
            with zipfile.ZipFile(path) as archive:
                assert {info.compress_type for info in archive.infolist()} \
                    == {zipfile.ZIP_STORED}

    def test_compressed_generation_verifies_and_serves(
            self, gen_pipeline, tmp_path, monkeypatch):
        import shutil
        import zipfile
        from reference.artifacts import atomic_savez_compressed
        from repro import io
        root = tmp_path / "compressed"
        shutil.copytree(gen_pipeline.store.root, root)
        store = ArtifactStore(root, create=False)
        ctx = gen_pipeline.ctx
        with monkeypatch.context() as patch:
            patch.setattr(io, "atomic_savez", atomic_savez_compressed)
            io.save_model(ctx.model, store.path(ArtifactStore.MODEL))
            io.save_index_set(ctx.index_set, store.path(ArtifactStore.INDICES))
        generation = store.publish_generation()
        indices = store.generation_dir(generation) / ArtifactStore.INDICES
        with zipfile.ZipFile(indices) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_DEFLATED}
        store.verify_generation(generation)

        reloaded = Pipeline.from_artifacts(root, generation=generation)
        assert reloaded.serving_generation == generation
        queries = [3, 14, 15]
        for ra, rb in zip(gen_pipeline.engine.serve(queries, k=5),
                          reloaded.serve(queries, k=5)):
            np.testing.assert_array_equal(ra.ads, rb.ads)
        model = io.load_model(store.generation_dir(generation)
                              / ArtifactStore.MODEL, ctx.train_graph)
        for old, new in zip(ctx.model.parameters(), model.parameters()):
            assert np.array_equal(old.data, new.data)
        stored = io.load_index_set(indices)
        for relation, index in ctx.index_set.indices.items():
            assert np.array_equal(stored[relation].ids, index.ids)
            assert np.array_equal(stored[relation].distances,
                                  index.distances)
