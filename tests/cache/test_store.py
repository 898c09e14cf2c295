"""The on-disk store: canonical records, atomic merges, verify/clear."""

import json
import os
import threading

import pytest

from repro import cache, obs


@pytest.fixture
def store(tmp_path):
    return cache.CacheStore(tmp_path / "c")


KEY = cache.matrix_key("bitset-1", (2, 2), b"\x01\x00\x00\x01")


class TestEncodeDecode:
    def test_round_trip(self):
        record = {"v": 1, "engine": "bitset-1", "shape": [2, 2], "d": 2}
        assert cache.decode_record(cache.encode_record(record)) == record

    def test_canonical_form_is_key_sorted_and_newline_terminated(self):
        text = cache.encode_record({"shape": [1, 1], "engine": "e", "v": 1})
        assert text == '{"engine":"e","shape":[1,1],"v":1}\n'

    def test_insertion_order_does_not_matter(self):
        a = cache.encode_record({"v": 1, "engine": "e", "d": 3})
        b = cache.encode_record({"d": 3, "engine": "e", "v": 1})
        assert a == b

    def test_decode_rejects_garbage_and_foreign_versions(self):
        assert cache.decode_record("not json") is None
        assert cache.decode_record('["a", "list"]') is None
        assert cache.decode_record('{"v": 999, "engine": "e"}') is None


class TestMerge:
    def test_get_on_empty_store_misses(self, store):
        with obs.scoped():
            assert store.get(KEY) is None
            counters = obs.snapshot()["counters"]
        assert counters["cache.lookups"] == 1
        assert counters["cache.misses"] == 1

    def test_merge_then_get(self, store):
        with obs.scoped():
            store.merge(KEY, {"d": 2}, "bitset-1", (2, 2))
            record = store.get(KEY)
            counters = obs.snapshot()["counters"]
        assert record == {
            "v": 1, "engine": "bitset-1", "shape": [2, 2], "d": 2,
        }
        assert counters["cache.stores"] == 1
        assert counters["cache.hits"] == 1

    def test_fields_accumulate_across_merges(self, store):
        store.merge(KEY, {"d": 2}, "bitset-1", (2, 2))
        store.merge(KEY, {"leaves": 4}, "bitset-1", (2, 2))
        record = store.get(KEY)
        assert record["d"] == 2 and record["leaves"] == 4

    def test_merge_from_a_different_engine_restarts_the_record(self, store):
        store.merge(KEY, {"d": 2}, "bitset-1", (2, 2))
        record = store.merge(KEY, {"leaves": 4}, "tuple-1", (2, 2))
        assert "d" not in record and record["engine"] == "tuple-1"

    def test_unknown_fields_are_rejected(self, store):
        with pytest.raises(ValueError):
            store.merge(KEY, {"wat": 1}, "bitset-1", (2, 2))

    def test_no_temporary_files_survive(self, store):
        store.merge(KEY, {"d": 2}, "bitset-1", (2, 2))
        leftovers = [p for p in store.objects.iterdir() if p.suffix != ".json"]
        assert leftovers == []

    def test_concurrent_merges_leave_a_whole_record(self, store):
        def write(field, value):
            for _ in range(20):
                store.merge(KEY, {field: value}, "bitset-1", (2, 2))

        threads = [
            threading.Thread(target=write, args=("d", 2)),
            threading.Thread(target=write, args=("leaves", 4)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Atomic replace: the final record parses and is schema-clean
        # (last-writer-wins per field is acceptable; torn bytes are not).
        text = store._path(KEY).read_text()
        record = cache.decode_record(text)
        assert record is not None
        assert cache.record_problems(record, text) == []


class TestVerifyStatsClear:
    def _seed(self, store):
        store.merge(KEY, {"d": 2}, "bitset-1", (2, 2))
        other = cache.matrix_key("tuple-1", (1, 2), b"\x01\x00")
        store.merge(other, {"leaves": 2, "d": 1}, "tuple-1", (1, 2))
        return other

    def test_stats(self, store):
        self._seed(store)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["fields"] == {"d": 2, "leaves": 1, "tree": 0}
        assert stats["engines"] == {"bitset-1": 1, "tuple-1": 1}
        assert stats["bytes"] > 0
        json.dumps(stats)  # the CLI serializes this verbatim

    def test_verify_clean(self, store):
        self._seed(store)
        assert store.verify() == []

    def test_verify_flags_corruption(self, store):
        self._seed(store)
        victim = store._path(KEY)
        victim.write_text("{corrupted")
        problems = store.verify()
        assert len(problems) == 1 and "unparseable" in problems[0]

    def test_verify_flags_noncanonical_bytes(self, store):
        self._seed(store)
        victim = store._path(KEY)
        record = cache.decode_record(victim.read_text())
        victim.write_text(json.dumps(record, indent=2))  # valid, wrong form
        assert any("canonical" in p for p in store.verify())

    def test_verify_flags_bad_tree_shape(self, store):
        store.merge(KEY, {"tree": ["L", 1]}, "bitset-1", (2, 2))
        assert store.verify() == []
        text = cache.encode_record({
            "v": 1, "engine": "bitset-1", "shape": [2, 2],
            "tree": ["N", 7, [0], ["L", 0], ["L", 1]],
        })
        store._path(KEY).write_text(text)
        assert any("tree" in p for p in store.verify())

    @pytest.mark.parametrize("tree", [
        ["N", 0, [], ["L", 0], ["L", 1]],  # splits off nothing
        ["N", 0, [0, 1], ["L", 0], ["L", 1]],  # splits off the whole side
        ["N", 0, [2], ["L", 0], ["L", 1]],  # row 2 of a 2x2
        # Row 1 went right at the root, so the left child holds row 0 only.
        ["N", 0, [1], ["N", 0, [1], ["L", 0], ["L", 1]], ["L", 1]],
    ])
    def test_verify_flags_a_split_outside_the_rectangle(self, store, tree):
        text = cache.encode_record({
            "v": 1, "engine": "bitset-1", "shape": [2, 2], "tree": tree,
        })
        store._path(KEY).write_text(text)
        assert any("empty or out-of-rectangle" in p for p in store.verify())

    def test_verify_flags_depth_and_leaf_contradictions(self, store):
        tree = ["N", 1, [1], ["L", 0], ["L", 1]]
        store.merge(KEY, {"d": 1, "leaves": 2, "tree": tree}, "bitset-1", (2, 2))
        assert store.verify() == []
        for field, value, phrase in (("d", 4, "depth 1 != d 4"),
                                     ("leaves", 3, "2 leaves < leaves 3")):
            record = {"v": 1, "engine": "bitset-1", "shape": [2, 2], "d": 1,
                      "leaves": 2, "tree": tree}
            record[field] = value
            store._path(KEY).write_text(cache.encode_record(record))
            assert any(phrase in p for p in store.verify()), field

    def test_clear(self, store):
        self._seed(store)
        assert store.clear() == 2
        assert store.stats()["entries"] == 0


class TestOrphanedTmp:
    def _crash_mid_merge(self, store, monkeypatch):
        """Simulate a writer killed between tmp write and os.replace."""
        import repro.cache.store as store_module

        def killed(src, dst):
            raise KeyboardInterrupt("writer killed mid-commit")

        monkeypatch.setattr(store_module.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            store.merge(KEY, {"d": 2}, "bitset-1", (2, 2))
        monkeypatch.undo()

    def test_crash_leaves_an_orphan_verify_reports_it(self, store, monkeypatch):
        self._crash_mid_merge(store, monkeypatch)
        orphans = store.orphaned_tmp()
        assert len(orphans) == 1
        assert orphans[0].name.endswith(".tmp")
        problems = store.verify()
        assert any("orphaned tmp" in p for p in problems)
        # The half-written scratch never became a record.
        assert store.stats()["entries"] == 0

    def test_sweep_tmp_removes_orphans_only(self, store, monkeypatch):
        store.merge(KEY, {"d": 2}, "bitset-1", (2, 2))
        self._crash_mid_merge(store, monkeypatch)
        assert store.sweep_tmp() == 1
        assert store.orphaned_tmp() == []
        assert store.verify() == []
        assert store.stats()["entries"] == 1  # real records untouched

    def test_clear_also_sweeps_orphans(self, store, monkeypatch):
        store.merge(KEY, {"d": 2}, "bitset-1", (2, 2))
        self._crash_mid_merge(store, monkeypatch)
        assert store.clear() == 1
        assert store.orphaned_tmp() == []
        assert list(store.objects.iterdir()) == []


class TestActivation:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(cache.ENV_VAR, raising=False)
        cache.unconfigure()
        assert cache.active_store() is None

    def test_configure_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_VAR, str(tmp_path / "env"))
        try:
            cache.configure(tmp_path / "explicit")
            assert cache.active_store().root == tmp_path / "explicit"
            cache.configure(None)  # explicit disable beats the env too
            assert cache.active_store() is None
        finally:
            cache.unconfigure()

    def test_env_activation(self, tmp_path, monkeypatch):
        cache.unconfigure()
        monkeypatch.setenv(cache.ENV_VAR, str(tmp_path / "env"))
        store = cache.active_store()
        assert store is not None and store.root == tmp_path / "env"
        monkeypatch.setenv(cache.ENV_VAR, "   ")
        assert cache.active_store() is None

    def test_directory_context_restores(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cache.ENV_VAR, raising=False)
        cache.unconfigure()
        with cache.directory(tmp_path / "scoped") as store:
            assert cache.active_store() is store
        assert cache.active_store() is None

    def test_disabled_context(self, tmp_path):
        cache.configure(tmp_path / "outer")
        try:
            with cache.disabled():
                assert cache.active_store() is None
            assert cache.active_store().root == tmp_path / "outer"
        finally:
            cache.unconfigure()
