"""Unit tests for the persistent content-addressed artifact store.

Covers the key scheme (stability, order-insensitivity, version
invalidation), the on-disk behaviour (atomic writes, corrupt entries
as misses), the cold-vs-warm equality contract, and the dataset-cache
knobs that ride on the same layer.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro import obs
from repro.bench import (
    ArtifactStore,
    CaseSpec,
    clear_case_cache,
    get_artifact_store,
    set_artifact_store,
)
from repro.bench.store import STORE_VERSION, canonical_key
from repro.cluster import single_machine
from repro.datagen import (
    build_dataset,
    clear_dataset_cache,
    dataset_cache_info,
    set_dataset_cache_size,
)
from repro.errors import GeneratorParameterError


@pytest.fixture
def store(tmp_path):
    """A store installed globally for the test, then uninstalled."""
    store = ArtifactStore(tmp_path / "cache")
    previous = set_artifact_store(store)
    clear_case_cache()
    clear_dataset_cache()
    try:
        yield store
    finally:
        set_artifact_store(previous)
        clear_case_cache()
        clear_dataset_cache()


class TestCanonicalKey:
    def test_documented_rendering(self):
        # Pins the key scheme documented in docs/benchmarking.md: the
        # digest is SHA-256 over "<version>|<kind>|<canonical payload>".
        text = f"{STORE_VERSION}|dataset|m:(s:'a':1)"
        expected = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert canonical_key("dataset", {"a": 1}) == expected

    def test_dict_order_insensitive(self):
        assert canonical_key("k", {"a": 1, "b": 2}) == \
            canonical_key("k", {"b": 2, "a": 1})

    def test_type_tags_prevent_collisions(self):
        assert canonical_key("k", 1) != canonical_key("k", 1.0)
        assert canonical_key("k", "1") != canonical_key("k", 1)
        assert canonical_key("k", (1,)) != canonical_key("k", 1)

    def test_kind_partitions_address_space(self):
        assert canonical_key("dataset", {"a": 1}) != \
            canonical_key("case", {"a": 1})

    def test_dataclass_and_array_payloads(self):
        spec_a = CaseSpec.make("Ligra", "pr", "S8-Std")
        spec_b = CaseSpec.make("Ligra", "pr", "S8-Std")
        assert canonical_key("case", spec_a) == canonical_key("case", spec_b)
        arr = np.arange(5)
        assert canonical_key("k", arr) == canonical_key("k", np.arange(5))
        assert canonical_key("k", arr) != canonical_key("k", np.arange(6))

    def test_cluster_specs_fork_the_key(self):
        a = CaseSpec.make("Ligra", "pr", "S8-Std", cluster=single_machine(8))
        b = CaseSpec.make("Ligra", "pr", "S8-Std", cluster=single_machine(16))
        assert canonical_key("case", a) != canonical_key("case", b)

    def test_uncanonicalizable_type_raises(self):
        with pytest.raises(TypeError):
            canonical_key("k", object())

    def test_version_tag_invalidates(self, monkeypatch, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k", {"a": 1}, "old-artifact")
        assert store.get("k", {"a": 1}) == "old-artifact"
        monkeypatch.setattr("repro.bench.store.STORE_VERSION", "next-v2")
        assert store.get("k", {"a": 1}) is None  # re-addressed, not found


class TestArtifactStoreDisk:
    def test_roundtrip_and_tallies(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("k", {"x": 1}) is None
        store.put("k", {"x": 1}, {"data": np.arange(4)})
        back = store.get("k", {"x": 1})
        assert np.array_equal(back["data"], np.arange(4))
        assert store.stats() == {"hits": 1, "misses": 1, "puts": 1}

    def test_atomic_put_leaves_no_temp_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(5):
            store.put("k", {"i": i}, list(range(i)))
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_corrupt_entry_is_a_miss_then_overwritten(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k", {"x": 1}, "artifact")
        (entry,) = list(tmp_path.rglob("*.pkl"))
        entry.write_bytes(b"\x80garbage")
        assert store.get("k", {"x": 1}) is None
        store.put("k", {"x": 1}, "rebuilt")
        assert store.get("k", {"x": 1}) == "rebuilt"

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k", {"x": 1}, list(range(100)))
        (entry,) = list(tmp_path.rglob("*.pkl"))
        entry.write_bytes(entry.read_bytes()[:10])
        assert store.get("k", {"x": 1}) is None

    def test_layout_shards_by_digest_prefix(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("dataset", {"x": 1}, "a")
        key = canonical_key("dataset", {"x": 1})
        assert (tmp_path / "dataset" / key[:2] / f"{key}.pkl").exists()

    def test_counters_mirror_into_tracer(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with obs.tracing() as tracer:
            store.get("k", {"x": 1})
            store.put("k", {"x": 1}, "a")
            store.get("k", {"x": 1})
        snap = tracer.counters.snapshot()
        assert snap.get("store_misses") == 1.0
        assert snap.get("store_puts") == 1.0
        assert snap.get("store_hits") == 1.0


class TestCorruptEntryWarning:
    def test_corrupt_entry_warns_and_misses(self, store, capsys):
        store.put("dataset", ("x",), {"ok": True})
        entry = next(store.root.rglob("*.pkl"))
        entry.write_bytes(b"\x80\x04 definitely not a pickle")
        assert store.get("dataset", ("x",)) is None
        err = capsys.readouterr().err
        assert "corrupt store entry" in err
        assert str(entry) in err
        assert "kind=dataset" in err
        assert store.misses == 1

    def test_plain_miss_stays_silent(self, store, capsys):
        assert store.get("dataset", ("never-stored",)) is None
        assert capsys.readouterr().err == ""

    def test_corrupt_entry_overwritten_by_next_put(self, store, capsys):
        store.put("case", ("y",), [1, 2])
        entry = next(store.root.rglob("*.pkl"))
        entry.write_bytes(b"torn")
        assert store.get("case", ("y",)) is None
        store.put("case", ("y",), [1, 2])
        assert store.get("case", ("y",)) == [1, 2]
        capsys.readouterr()


class TestColdVsWarm:
    def _specs(self):
        return [
            CaseSpec.make("Ligra", "pr", "S8-Std"),
            CaseSpec.make("Grape", "tc", "S8-Std"),
        ]

    def test_warm_outcomes_equal_cold(self, store):
        cold = [spec.run() for spec in self._specs()]
        assert store.puts > 0
        clear_case_cache()  # force the next lookup through the disk layer
        warm = [spec.run() for spec in self._specs()]
        assert store.hits >= len(warm)
        for a, b in zip(cold, warm):
            assert a.status == b.status
            assert np.array_equal(np.asarray(a.result.values),
                                  np.asarray(b.result.values))
            assert a.result.priced == b.result.priced
            assert a.result.metrics == b.result.metrics
            assert a.result.trace.supersteps == b.result.trace.supersteps
            for sa, sb in zip(a.result.trace.steps, b.result.trace.steps):
                assert np.array_equal(sa.ops, sb.ops)
                assert np.array_equal(sa.msg_count, sb.msg_count)
                assert np.array_equal(sa.msg_bytes, sb.msg_bytes)

    def test_datasets_persist_through_store(self, store):
        build_dataset("S8-Std")
        assert store.puts > 0
        clear_dataset_cache()
        before = store.hits
        build_dataset("S8-Std")
        assert store.hits > before

    def test_global_install_round_trip(self, tmp_path):
        mine = ArtifactStore(tmp_path)
        previous = set_artifact_store(mine)
        try:
            assert get_artifact_store() is mine
        finally:
            set_artifact_store(previous)
        assert get_artifact_store() is previous


class TestDatasetCacheKnobs:
    def test_cache_size_round_trip(self):
        original = dataset_cache_info().maxsize
        try:
            set_dataset_cache_size(4)
            assert dataset_cache_info().maxsize == 4
        finally:
            set_dataset_cache_size(original)

    def test_invalid_cache_size_rejected(self):
        with pytest.raises(GeneratorParameterError):
            set_dataset_cache_size(0)

    def test_hit_miss_counters(self):
        clear_dataset_cache()
        with obs.tracing() as tracer:
            build_dataset("S8-Std")
            build_dataset("S8-Std")
        snap = tracer.counters.snapshot()
        assert snap.get("dataset_cache_misses") == 1.0
        assert snap.get("dataset_cache_hits") == 1.0
