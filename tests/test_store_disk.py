"""The disk-backed artifact store: publish, integrity, GC, stats."""

import json
import os

import numpy as np
import pytest

from repro.arch import paper_case_study
from repro.core import ScheduleOptions, determine_dependencies, determine_sets
from repro.core.cache import CompilationCache, graph_fingerprint
from repro.core.pipeline import compile_model
from repro.frontend import preprocess
from repro.models import tiny_sequential
from repro.ir import RectColumns
from repro.store import ArtifactStore, codec_for
from repro.store.keys import key_digest


@pytest.fixture(scope="module")
def canonical():
    return preprocess(tiny_sequential(), quantization=None).graph


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _graph_key(canonical):
    return ("preprocess", graph_fingerprint(canonical))


class TestLayout:
    def test_directories_and_meta_created(self, store):
        for name in ("objects", "tmp", "quarantine"):
            assert os.path.isdir(os.path.join(store.root, name))
        with open(os.path.join(store.root, "meta.json")) as handle:
            meta = json.load(handle)
        assert meta == {"format": "clsa-cim-store", "schema": 1}

    def test_path_alias(self, store):
        assert store.path == store.root


class TestRoundTrip:
    def test_preprocess_graph_round_trips(self, store, canonical):
        key = _graph_key(canonical)
        assert store.put("preprocess", key, canonical)
        hit, value = store.get("preprocess", key)
        assert hit
        assert graph_fingerprint(value) == graph_fingerprint(canonical)

    def test_every_pipeline_stage_round_trips(self, store, canonical):
        """Compile once through a store-backed cache, then read every
        published stage back from a *fresh* store handle."""
        cache = CompilationCache(store=store)
        compiled = compile_model(
            canonical,
            paper_case_study(40),
            ScheduleOptions(),
            cache=cache,
            assume_canonical=True,
        )
        stats = store.stats()
        for stage in ("tile", "wdup", "place", "sets", "deps", "schedule"):
            assert stage in stats.per_stage, f"{stage} never published"
        reread = ArtifactStore(store.root)
        cache2 = CompilationCache(store=reread)
        compiled2 = compile_model(
            canonical,
            paper_case_study(40),
            ScheduleOptions(),
            cache=cache2,
            assume_canonical=True,
        )
        assert cache2.misses == 0
        assert (
            compiled2.schedule.makespan == compiled.schedule.makespan
        )
        m1, m2 = compiled.evaluate(), compiled2.evaluate()
        assert m1.latency_cycles == m2.latency_cycles
        assert m1.utilization == m2.utilization

    def test_unknown_stage_is_memory_only(self, store):
        assert codec_for("mapping") is None
        assert not store.put("mapping", ("mapping", "x"), object())
        assert store.get("mapping", ("mapping", "x")) == (False, None)

    def test_unencodable_key_is_memory_only(self, store, canonical):
        key = ("preprocess", object())
        assert not store.put("preprocess", key, canonical)
        assert store.get("preprocess", key) == (False, None)

    def test_missing_entry_is_a_miss(self, store):
        hit, value = store.get("preprocess", ("preprocess", "nope"))
        assert (hit, value) == (False, None)
        assert store.misses == 1


class TestAtomicity:
    def test_publish_leaves_no_tmp_litter(self, store, canonical):
        store.put("preprocess", _graph_key(canonical), canonical)
        assert os.listdir(os.path.join(store.root, "tmp")) == []

    def test_second_put_is_idempotent(self, store, canonical):
        key = _graph_key(canonical)
        assert store.put("preprocess", key, canonical)
        assert store.put("preprocess", key, canonical)
        assert len(store.index()) == 1

    def test_tmp_litter_invisible_to_get(self, store, canonical):
        """A writer killed mid-publish leaves only a tmp file — readers
        must not see a partial entry."""
        key = _graph_key(canonical)
        digest = key_digest(key, codec_for("preprocess").version)
        litter = os.path.join(store.root, "tmp", f"{digest}.999.dead")
        with open(litter, "w") as handle:
            handle.write('{"format": "clsa-cim-store-entry", "truncat')
        assert store.get("preprocess", key) == (False, None)
        assert store.corrupt == 0  # a miss, not a corruption

    def test_gc_sweeps_stale_tmp_litter(self, store):
        litter = os.path.join(store.root, "tmp", "deadbeef.1.00")
        with open(litter, "w") as handle:
            handle.write("partial")
        os.utime(litter, (1, 1))  # ancient
        result = store.gc()
        assert result.swept_tmp == 1
        assert not os.path.exists(litter)

    def test_gc_keeps_recent_tmp_files(self, store):
        litter = os.path.join(store.root, "tmp", "deadbeef.1.01")
        with open(litter, "w") as handle:
            handle.write("in flight")
        result = store.gc()
        assert result.swept_tmp == 0
        assert os.path.exists(litter)


class TestIntegrity:
    def _entry_path(self, store, canonical):
        key = _graph_key(canonical)
        store.put("preprocess", key, canonical)
        digest = key_digest(key, codec_for("preprocess").version)
        return key, store._entry_path(digest)

    def test_corrupted_payload_quarantined(self, store, canonical):
        key, path = self._entry_path(store, canonical)
        with open(path, "r+") as handle:
            record = json.load(handle)
            record["payload"]["ops"] = []
            handle.seek(0)
            json.dump(record, handle)
            handle.truncate()
        assert store.get("preprocess", key) == (False, None)
        assert store.corrupt == 1
        assert not os.path.exists(path)
        assert len(os.listdir(os.path.join(store.root, "quarantine"))) == 1
        # Quarantined entries are not re-read: still a miss, no crash.
        assert store.get("preprocess", key) == (False, None)

    def test_truncated_entry_quarantined(self, store, canonical):
        key, path = self._entry_path(store, canonical)
        with open(path, "w") as handle:
            handle.write('{"format": "clsa-cim-store-entry"')
        assert store.get("preprocess", key) == (False, None)
        assert store.corrupt == 1

    def test_wrong_stage_header_quarantined(self, store, canonical):
        key, path = self._entry_path(store, canonical)
        with open(path, "r+") as handle:
            record = json.load(handle)
            record["stage"] = "schedule"
            handle.seek(0)
            json.dump(record, handle)
            handle.truncate()
        assert store.get("preprocess", key) == (False, None)
        assert store.corrupt == 1

    def test_quarantine_then_recompute_republishes(self, store, canonical):
        key, path = self._entry_path(store, canonical)
        with open(path, "w") as handle:
            handle.write("garbage")
        cache = CompilationCache(store=store)
        value = cache.get_or_compute(key, lambda: canonical)
        assert value is canonical
        assert cache.misses == 1  # recompiled, not crashed
        hit, _ = store.get("preprocess", key)
        assert hit  # write-through republished a good entry


class TestDepsCodec:
    """The ``deps`` codec stores the CSR set graph and checks it on read."""

    @pytest.fixture
    def deps(self, canonical):
        return determine_dependencies(canonical, determine_sets(canonical))

    def _path(self, store, key):
        return store._entry_path(key_digest(key, codec_for("deps").version))

    def test_round_trip_keeps_edges_in_order(self, store, deps):
        key = ("deps", "round-trip")
        assert store.put("deps", key, deps)
        hit, value = ArtifactStore(store.root).get("deps", key)
        assert hit
        np.testing.assert_array_equal(value.arrays.indptr, deps.arrays.indptr)
        np.testing.assert_array_equal(value.arrays.indices, deps.arrays.indices)
        assert list(value.deps.items()) == list(deps.deps.items())

    @pytest.mark.parametrize(
        "damage",
        ["indptr-not-monotone", "indptr-wrong-length", "index-out-of-range", "set-counts"],
    )
    def test_bad_csr_with_valid_digest_quarantined(self, store, deps, damage):
        from repro.store.codecs import _pack, _unpack
        from repro.store.disk import _payload_sha256

        key = ("deps", damage)
        store.put("deps", key, deps)
        path = self._path(store, key)
        with open(path) as handle:
            record = json.load(handle)
        payload = record["payload"]
        indptr = _unpack(payload["indptr"]).copy()
        indices = _unpack(payload["indices"]).copy()
        if damage == "indptr-not-monotone":
            assert indptr[2] < indptr[-1]
            indptr[1] = indptr[-1]
        elif damage == "indptr-wrong-length":
            indptr = indptr[:-1]
        elif damage == "index-out-of-range":
            indices[0] = deps.num_sets()
        else:
            payload["counts"][0] += 1
        payload["indptr"] = _pack(indptr)
        payload["indices"] = _pack(indices)
        record["sha256"] = _payload_sha256(payload)
        with open(path, "w") as handle:
            json.dump(record, handle)

        assert store.get("deps", key) == (False, None)
        assert store.corrupt == 1
        assert not os.path.exists(path)
        assert len(os.listdir(os.path.join(store.root, "quarantine"))) == 1
        cache = CompilationCache(store=store)
        assert cache.get_or_compute(key, lambda: deps) is deps  # recomputed
        hit, value = store.get("deps", key)
        assert hit
        np.testing.assert_array_equal(value.arrays.indices, deps.arrays.indices)


def _rewrite_payload(store, stage, key, damage_payload):
    """Damage the stored payload of ``key`` but keep its sha256 valid."""
    from repro.store.disk import _payload_sha256

    path = store._entry_path(key_digest(key, codec_for(stage).version))
    with open(path) as handle:
        record = json.load(handle)
    damage_payload(record["payload"])
    record["sha256"] = _payload_sha256(record["payload"])
    with open(path, "w") as handle:
        json.dump(record, handle)
    return path


def _assert_quarantined_and_recomputed(store, stage, key, path, value, same):
    assert store.get(stage, key) == (False, None)
    assert store.corrupt == 1
    assert not os.path.exists(path)
    assert len(os.listdir(os.path.join(store.root, "quarantine"))) == 1
    cache = CompilationCache(store=store)
    assert cache.get_or_compute(key, lambda: value) is value  # recomputed
    hit, reread = store.get(stage, key)
    assert hit and same(reread, value)


class TestSetsCodec:
    """The ``sets`` codec stores packed coordinate columns and checks them on read."""

    @pytest.fixture
    def sets(self, canonical):
        return determine_sets(canonical)

    def test_round_trip_gives_columns(self, store, sets):
        key = ("sets", "round-trip")
        assert store.put("sets", key, sets)
        hit, value = ArtifactStore(store.root).get("sets", key)
        assert hit
        assert list(value) == list(sets)
        for layer, rects in sets.items():
            assert isinstance(value[layer], RectColumns)
            np.testing.assert_array_equal(value[layer].coords, rects.coords)
            assert value[layer] == rects

    def test_hand_built_lists_round_trip(self, store, sets):
        key = ("sets", "lists")
        plain = {layer: list(rects) for layer, rects in sets.items()}
        assert store.put("sets", key, plain)
        hit, value = store.get("sets", key)
        assert hit and value == plain

    @pytest.mark.parametrize(
        "damage", ["set-counts", "truncated-base64", "column-length", "duplicate-layer"]
    )
    def test_bad_payload_with_valid_digest_quarantined(self, store, sets, damage):
        from repro.store.codecs import _pack, _unpack

        def damage_payload(payload):
            if damage == "set-counts":
                payload["counts"][0] += 1
            elif damage == "truncated-base64":
                payload["rects"] = payload["rects"][:-2]
            elif damage == "column-length":
                payload["rects"] = _pack(_unpack(payload["rects"])[:-1])
            else:
                payload["layers"][1] = payload["layers"][0]

        key = ("sets", damage)
        store.put("sets", key, sets)
        path = _rewrite_payload(store, "sets", key, damage_payload)
        _assert_quarantined_and_recomputed(
            store, "sets", key, path, sets, lambda got, want: got == want
        )


class TestScheduleCodec:
    """Columnar schedules are stored as packed columns; row form keeps JSON."""

    @pytest.fixture
    def compiled(self, canonical):
        return compile_model(
            canonical, paper_case_study(40), ScheduleOptions(), assume_canonical=True
        )

    @staticmethod
    def same(got, want):
        from repro.ir.serialize import schedule_to_dict

        return schedule_to_dict(got) == schedule_to_dict(want)

    def test_columnar_round_trip(self, store, compiled):
        schedule = compiled.schedule
        assert schedule.has_columns
        key = ("schedule", "columns")
        assert store.put("schedule", key, schedule)
        with open(store._entry_path(key_digest(key, codec_for("schedule").version))) as handle:
            payload = json.load(handle)["payload"]
        assert set(payload) == {"policy", "layers", "columns"}
        hit, value = ArtifactStore(store.root).get("schedule", key)
        assert hit and value.has_columns
        assert self.same(value, schedule)
        assert value.columns().start.dtype == np.int64
        assert value.columns().layer_id.dtype == np.int32

    def test_row_form_round_trip(self, store, canonical):
        schedule = compile_model(
            canonical,
            paper_case_study(40),
            ScheduleOptions(scheduling="layer-by-layer"),
            assume_canonical=True,
        ).schedule
        assert not schedule.has_columns
        key = ("schedule", "rows")
        assert store.put("schedule", key, schedule)
        hit, value = store.get("schedule", key)
        assert hit and not value.has_columns
        assert value.tasks == schedule.tasks

    @pytest.mark.parametrize(
        "damage", ["layer-count", "truncated-base64", "column-length"]
    )
    def test_bad_payload_with_valid_digest_quarantined(self, store, compiled, damage):
        from repro.store.codecs import _pack, _unpack

        def damage_payload(payload):
            columns = payload["columns"]
            if damage == "layer-count":
                payload["layers"].pop()
            elif damage == "truncated-base64":
                columns["end"] = columns["end"][:-2]
            else:
                columns["set_index"] = _pack(_unpack(columns["set_index"])[:-1])

        key = ("schedule", damage)
        store.put("schedule", key, compiled.schedule)
        path = _rewrite_payload(store, "schedule", key, damage_payload)
        _assert_quarantined_and_recomputed(
            store, "schedule", key, path, compiled.schedule, self.same
        )


class TestWarmArtifactIdentity:
    def test_warm_store_compile_matches_cold_byte_for_byte(self, tmp_path):
        """A compile served wholly from the store writes the cold artifact."""
        from repro import Session
        from repro.mapping import minimum_pe_requirement
        from repro.models import build

        graph = preprocess(build("tinyyolov4"), quantization=None).graph
        arch = paper_case_study(minimum_pe_requirement(graph, paper_case_study(1).crossbar) + 16)
        path = str(tmp_path / "store")
        cold = Session(arch, store_path=path).compile(graph, assume_canonical=True)
        session = Session(arch, store_path=path)
        warm = session.compile(graph, assume_canonical=True)
        assert session.cache.misses == 0
        for compiled in (cold, warm):
            compiled.timings.clear()
            compiled.diagnostics.clear()
        assert warm.to_json() == cold.to_json()


class TestGC:
    def _fill(self, store, canonical, n=4):
        """Publish n distinct entries by perturbing the key."""
        keys = []
        for i in range(n):
            key = ("preprocess", graph_fingerprint(canonical), i)
            assert store.put("preprocess", key, canonical)
            keys.append(key)
        return keys

    def test_gc_evicts_lru_down_to_budget(self, store, canonical):
        keys = self._fill(store, canonical)
        sizes = [size for _p, size, _m in store._scan_entries()]
        per_entry = sizes[0]
        # Touch the last key so it is most-recently-used.
        paths = sorted(
            store._scan_entries(), key=lambda item: item[2]
        )
        os.utime(paths[0][0], (1, 1))  # force one entry oldest
        result = store.gc(max_bytes=2 * per_entry)
        assert result.evicted_entries == 2
        assert result.remaining_entries == 2
        assert result.remaining_bytes <= 2 * per_entry
        assert not os.path.exists(paths[0][0])

    def test_gc_without_budget_only_sweeps(self, store, canonical):
        self._fill(store, canonical)
        result = store.gc()
        assert result.evicted_entries == 0
        assert result.remaining_entries == 4

    def test_gc_rewrites_manifest(self, store, canonical):
        self._fill(store, canonical)
        store.gc(max_bytes=0)
        assert store.index() == []
        assert store.stats().entries == 0

    def test_gc_counts_quarantine_toward_budget_and_evicts_it_first(
        self, store, canonical
    ):
        keys = self._fill(store, canonical)
        per_entry = store._scan_entries()[0][1]
        # Corrupt one entry so a read sends it to quarantine/.
        digest = key_digest(keys[0], codec_for("preprocess").version)
        with open(store._entry_path(digest), "w") as handle:
            handle.write("garbage")
        assert store.get("preprocess", keys[0]) == (False, None)
        quarantine = os.path.join(store.root, "quarantine")
        assert len(os.listdir(quarantine)) == 1
        # Budget covers the three live entries exactly: the quarantined
        # file is dead weight that must be charged and evicted first.
        result = store.gc(max_bytes=3 * per_entry)
        assert os.listdir(quarantine) == []
        assert result.remaining_entries == 3

    def test_auto_gc_with_standing_budget(self, tmp_path, canonical):
        budgeted = ArtifactStore(str(tmp_path / "b"), max_bytes=1)
        for i in range(3):
            budgeted.put(
                "preprocess", ("preprocess", graph_fingerprint(canonical), i),
                canonical,
            )
        assert budgeted.stats().entries <= 1

    def test_clear_removes_everything(self, store, canonical):
        self._fill(store, canonical)
        removed = store.clear()
        assert removed == 4
        assert store.stats().entries == 0
        assert store.index() == []


class TestManifestAndStats:
    def test_manifest_header_and_records(self, store, canonical):
        store.put("preprocess", _graph_key(canonical), canonical)
        with open(os.path.join(store.root, "manifest.jsonl")) as handle:
            lines = handle.read().splitlines()
        header = json.loads(lines[0])
        assert header == {"format": "clsa-cim-store", "schema": 1}
        record = json.loads(lines[1])
        assert record["stage"] == "preprocess"
        assert record["bytes"] > 0

    def test_index_tolerates_torn_final_line(self, store, canonical):
        store.put("preprocess", _graph_key(canonical), canonical)
        with open(os.path.join(store.root, "manifest.jsonl"), "a") as handle:
            handle.write('{"digest": "torn')
        records = store.index()
        assert len(records) == 1

    def test_stats_counts_and_session_counters(self, store, canonical):
        key = _graph_key(canonical)
        store.put("preprocess", key, canonical)
        store.get("preprocess", key)
        store.get("preprocess", ("preprocess", "missing"))
        stats = store.stats()
        assert stats.entries == 1
        assert stats.per_stage["preprocess"][0] == 1
        assert stats.session_hits == 1
        assert stats.session_misses == 1
        assert stats.session_writes == 1
        payload = stats.to_dict()
        assert payload["session"] == {
            "hits": 1,
            "misses": 1,
            "corrupt": 0,
            "writes": 1,
        }

    def test_reopen_existing_store_preserves_entries(self, store, canonical):
        key = _graph_key(canonical)
        store.put("preprocess", key, canonical)
        reopened = ArtifactStore(store.root)
        hit, _ = reopened.get("preprocess", key)
        assert hit
