import json
import struct

import numpy as np
import pytest

from contextdb import (Document, FlatIndex, HnswIndex, HnswParams, IvfIndex,
                       IvfParams, SnapshotCorruptError, SnapshotVersionError,
                       StorageError, Vector, load_index, read_header,
                       save_index)
from contextdb.index.base import pack_array, unpack_array
from conftest import HEADER, make_docs, rewrite_payload, unit_rows
from snapshot_v1 import make as snapshot_v1


def build_each_kind(rng):
    data = unit_rows(rng, 240, 10)
    docs = make_docs(data, metadata_fn=lambda i: {"n": i, "tag": f"t{i % 3}",
                                                  "flag": bool(i % 2)})
    flat, hnsw = FlatIndex(), HnswIndex(HnswParams(seed=2))
    ivf = IvfIndex(IvfParams(nlist=12, seed=2))
    ivf.train(data)
    for d in docs:
        flat.insert(d)
        hnsw.insert(d)
        ivf.insert(d)
    for index in (flat, hnsw, ivf):
        for i in range(0, 240, 9):
            index.remove(f"d{i:05d}")
    return {"flat": flat, "hnsw": hnsw, "ivf": ivf}, data


@pytest.mark.parametrize("kind", ["flat", "hnsw", "ivf"])
def test_roundtrip_hit_for_hit(tmp_path, rng, kind):
    indexes, data = build_each_kind(rng)
    index = indexes[kind]
    path = tmp_path / f"{kind}.snap"
    index.save(path)
    restored = load_index(path)
    assert type(restored) is type(index)
    assert len(restored) == len(index)
    for q in unit_rows(rng, 30, 10):
        want = [(h.doc_id, h.distance, h.rank) for h in index.search(Vector(q), 8)]
        got = [(h.doc_id, h.distance, h.rank) for h in restored.search(Vector(q), 8)]
        assert got == want


@pytest.mark.parametrize("kind", ["flat", "hnsw", "ivf"])
def test_documents_survive_verbatim(tmp_path, rng, kind):
    indexes, _ = build_each_kind(rng)
    index = indexes[kind]
    path = tmp_path / "x.snap"
    index.save(path)
    restored = load_index(path)
    doc = restored.get("d00004")
    assert doc.text == "text 4"
    assert dict(doc.metadata) == {"n": 4, "tag": "t1", "flag": False}
    assert doc.embedding == index.get("d00004").embedding


def test_header_fields(tmp_path, rng):
    indexes, _ = build_each_kind(rng)
    path = tmp_path / "h.snap"
    indexes["ivf"].save(path)
    header = read_header(path)
    assert header["kind"] == "ivf"
    assert header["dim"] == 10
    assert header["version"] == 1
    assert header["count"] == len(indexes["ivf"])


def test_mutation_after_reload_continues_cleanly(tmp_path, rng):
    indexes, data = build_each_kind(rng)
    for kind, index in indexes.items():
        path = tmp_path / f"{kind}.snap"
        index.save(path)
        restored = load_index(path)
        extra = Document(id="zz-new", text="new", metadata={},
                         embedding=Vector(data[0] * 0.97))
        index.insert(extra)
        restored.insert(extra)
        restored.remove("d00011")
        index.remove("d00011")
        for q in unit_rows(rng, 10, 10):
            want = [(h.doc_id, h.distance) for h in index.search(Vector(q), 6)]
            got = [(h.doc_id, h.distance) for h in restored.search(Vector(q), 6)]
            assert got == want


def test_save_is_atomic_no_tmp_left_behind(tmp_path, rng):
    indexes, _ = build_each_kind(rng)
    path = tmp_path / "a.snap"
    indexes["flat"].save(path)
    assert path.exists()
    assert list(tmp_path.glob("*.tmp")) == []


def test_save_overwrites_previous_snapshot(tmp_path):
    index = FlatIndex()
    index.insert(Document(id="one", text="", metadata={},
                          embedding=Vector([1.0, 0.0])))
    path = tmp_path / "s.snap"
    index.save(path)
    index.insert(Document(id="two", text="", metadata={},
                          embedding=Vector([0.0, 1.0])))
    index.save(path)
    assert len(load_index(path)) == 2


class TestCorruption:
    def _saved(self, tmp_path):
        index = FlatIndex()
        for i in range(10):
            index.insert(Document(id=f"d{i}", text="", metadata={},
                                  embedding=Vector([float(i), 1.0])))
        path = tmp_path / "c.snap"
        index.save(path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_index(tmp_path / "absent.snap")

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotCorruptError):
            load_index(path)
        with pytest.raises(SnapshotCorruptError):
            read_header(path)

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotCorruptError):
            load_index(path)

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(SnapshotCorruptError):
            load_index(path)
        path.write_bytes(blob[:10])
        with pytest.raises(SnapshotCorruptError):
            load_index(path)

    def test_future_version_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        # header layout: 8s magic, then u32 version
        struct.pack_into("<I", blob, 8, 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotVersionError) as exc_info:
            read_header(path)
        assert exc_info.value.found == 99


class TestFormatV1:
    """Fixtures written by the code from before per-kind snapshot state (see
    snapshot_v1/make.py) pin format v1 in both directions."""

    @pytest.mark.parametrize("kind", snapshot_v1.KINDS)
    def test_fixture_loads_hit_for_hit(self, kind):
        recorded = json.loads((snapshot_v1.HERE / "hits.json").read_text())
        index = load_index(snapshot_v1.HERE / f"{kind}.snap")
        assert index.kind == kind and len(index) == 17
        assert snapshot_v1.hits_of(index) == recorded[kind]
        assert index.get("d07").text == "doc 7, moved"
        assert "d11" not in index

    @pytest.mark.parametrize("kind", snapshot_v1.KINDS)
    def test_save_writes_the_fixture_bytes(self, tmp_path, kind):
        path = tmp_path / f"{kind}.snap"
        snapshot_v1.build(kind).save(path)
        assert path.read_bytes() == \
            (snapshot_v1.HERE / f"{kind}.snap").read_bytes()


def payload_keys(kind):
    state = json.loads(
        (snapshot_v1.HERE / f"{kind}.snap").read_bytes()[HEADER.size:-4])
    return [(kind, key) for key in state]


class TestMalformedPayload:
    """A payload that passes its checksum but has the wrong shape is a
    corrupt snapshot, not a crash."""

    @pytest.mark.parametrize("kind,key", [kk for kind in snapshot_v1.KINDS
                                          for kk in payload_keys(kind)])
    @pytest.mark.parametrize("how", ["missing", "mistyped"])
    def test_raises_snapshot_corrupt(self, tmp_path, kind, key, how):
        path = tmp_path / "m.snap"
        snapshot_v1.build(kind).save(path)

        def edit(payload):
            if how == "missing":
                del payload[key]
            else:
                payload[key] = "x"

        rewrite_payload(path, edit)
        with pytest.raises(SnapshotCorruptError, match="malformed"):
            load_index(path)

    def test_hnsw_entry_outside_the_graph(self, tmp_path):
        path = tmp_path / "e.snap"
        snapshot_v1.build("hnsw").save(path)
        rewrite_payload(path, lambda p: p.update(entry=10 ** 6))
        with pytest.raises(SnapshotCorruptError):
            load_index(path)

    @pytest.mark.parametrize("kind", snapshot_v1.KINDS)
    def test_non_finite_vector(self, tmp_path, kind):
        path = tmp_path / "n.snap"
        snapshot_v1.build(kind).save(path)

        def edit(payload):
            rows = unpack_array(payload["vectors"])
            rows[2, 1] = np.nan
            payload["vectors"] = pack_array(rows)

        rewrite_payload(path, edit)
        with pytest.raises(SnapshotCorruptError, match="finite"):
            load_index(path)

    @pytest.mark.parametrize("how", ["past-max_level", "negative",
                                     "entry-layers-cut-to-one"])
    def test_hnsw_level_that_does_not_match_the_graph(self, tmp_path, how):
        path = tmp_path / "l.snap"
        snapshot_v1.build("hnsw").save(path)

        def edit(payload):
            if how == "past-max_level":
                payload["levels"][0] = payload["max_level"] + 1
            elif how == "negative":
                payload["levels"][0] = -1
            else:
                del payload["graph"][payload["entry"]][1:]

        rewrite_payload(path, edit)
        with pytest.raises(SnapshotCorruptError, match="does not match"):
            load_index(path)

    def test_hnsw_level_past_the_tag_dtype(self, tmp_path):
        # the level is refused before it could reach the tag column
        big = int(np.iinfo(HnswIndex()._table.tags.dtype).max) + 1
        path = tmp_path / "t.snap"
        snapshot_v1.build("hnsw").save(path)

        def edit(payload):
            payload["levels"][payload["entry"]] = payload["max_level"] = big

        rewrite_payload(path, edit)
        with pytest.raises(SnapshotCorruptError, match="does not match"):
            load_index(path)

    def test_fewer_documents_than_the_header_counts(self, tmp_path):
        path = tmp_path / "c.snap"
        snapshot_v1.build("hnsw").save(path)
        rewrite_payload(path, lambda p: p["docs"].pop())
        with pytest.raises(SnapshotCorruptError, match="header says 17"):
            load_index(path)


@pytest.mark.parametrize("where", ["dead", "other"])
def test_hnsw_document_outside_its_live_slot_is_corrupt(tmp_path, where):
    path = tmp_path / "d.snap"
    snapshot_v1.build("hnsw").save(path)

    def edit(payload):
        if where == "dead":
            slot = payload["alive"].index(False)
        else:
            slot = payload["docs"][1]["slot"]
        payload["docs"][0]["slot"] = slot

    rewrite_payload(path, edit)
    with pytest.raises(SnapshotCorruptError, match="not live in slot"):
        load_index(path)
