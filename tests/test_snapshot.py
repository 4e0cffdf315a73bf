import errno
import json
import logging
import os
import shutil
import struct
import zlib

import numpy as np
import pytest

from contextdb import (Document, FlatIndex, HnswIndex, HnswParams, IvfIndex,
                       IvfParams, SnapshotCorruptError, SnapshotVersionError,
                       StorageError, Vector, load_index, read_header,
                       save_index)
from contextdb.index import snapshot
from contextdb.index.base import SlotTable, pack_array, unpack_array
from helpers import (FRAME, HEADER, JSON_LEN, base_size, make_docs,
                     rewrite_payload, snapshot_base, snapshot_frames,
                     unit_rows)
from snapshot_v1 import make as snapshot_v1
from snapshot_v2 import make as snapshot_v2


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
    assert header["version"] == 2
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


def test_save_fsyncs_the_temp_file_before_the_rename(tmp_path, monkeypatch):
    index, path = small_flat(), tmp_path / "s.snap"
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    index.save(path)
    assert [event for event, _ in events] == ["fsync", "replace"]
    assert events[0][1] == events[1][1]  # the renamed file is the synced one
    assert len(load_index(path)) == len(index)


class HalfWriter:
    """An open file that gets half of what it is given out, then fails as a
    full disk would."""

    def __init__(self, inner):
        self.inner = inner

    def writelines(self, pieces):
        data = b"".join(pieces)
        self.inner.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.inner.close()

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize("fail", ["write", "fsync"])
def test_a_failed_save_leaves_the_old_snapshot_and_no_temp_file(
        tmp_path, monkeypatch, fail):
    index, path = small_flat(), tmp_path / "s.snap"
    index.save(path)
    before = path.read_bytes()
    index.insert(Document(id="late", text="", metadata={},
                          embedding=Vector([0.5, 0.5])))
    if fail == "write":
        monkeypatch.setattr(snapshot, "open", lambda *a, **kw:
                            HalfWriter(open(*a, **kw)), raising=False)
    else:
        def fsync(fd):
            raise OSError(errno.EIO, "Input/output error")
        monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(StorageError, match="cannot write snapshot"):
        index.save(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.snap"]
    assert path.read_bytes() == before


def small_flat() -> FlatIndex:
    index = FlatIndex()
    for i in range(10):
        index.insert(Document(id=f"d{i}", text=f"t{i}", metadata={"n": i},
                              embedding=Vector([float(i), 1.0])))
    return index


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
    def test_read_header_reads_version_1(self, kind):
        header = read_header(snapshot_v1.HERE / f"{kind}.snap")
        assert (header["version"], header["kind"], header["count"]) == \
            (1, kind, 17)


class TestFormatV2:
    """Fixtures of the same indexes in format v2 (see snapshot_v2/make.py)
    pin the writer; each v1 fixture, loaded and saved, writes them."""

    @pytest.mark.parametrize("kind", snapshot_v1.KINDS)
    def test_save_writes_the_fixture_bytes(self, tmp_path, kind):
        path = tmp_path / f"{kind}.snap"
        snapshot_v1.build(kind).save(path)
        assert path.read_bytes() == \
            (snapshot_v2.HERE / f"{kind}.snap").read_bytes()

    @pytest.mark.parametrize("kind", snapshot_v1.KINDS)
    def test_fixture_loads_hit_for_hit(self, kind):
        recorded = json.loads((snapshot_v1.HERE / "hits.json").read_text())
        path = snapshot_v2.HERE / f"{kind}.snap"
        assert read_header(path)["version"] == 2
        index = load_index(path)
        assert index.kind == kind and len(index) == 17
        assert snapshot_v1.hits_of(index) == recorded[kind]

    @pytest.mark.parametrize("kind", snapshot_v1.KINDS)
    def test_a_loaded_v1_fixture_saves_the_v2_bytes(self, tmp_path, kind):
        path = tmp_path / f"{kind}.snap"
        load_index(snapshot_v1.HERE / f"{kind}.snap").save(path)
        assert path.read_bytes() == \
            (snapshot_v2.HERE / f"{kind}.snap").read_bytes()

    @pytest.mark.parametrize("kind", snapshot_v1.FRAMED)
    def test_a_v1_base_with_v1_frames_loads_and_saves_in_full_as_v2(
            self, tmp_path, rng, caplog, kind):
        caplog.set_level(logging.DEBUG, logger="contextdb.snapshot")
        fixture = snapshot_v1.HERE / f"{kind}_frames.snap"
        assert HEADER.unpack_from(fixture.read_bytes())[1] == 1
        assert [count for count, _ in snapshot_frames(
            fixture.read_bytes())] == [599, 599, 600]
        path, queries = tmp_path / "s.snap", rng.standard_normal((5, 4))
        shutil.copyfile(fixture, path)
        live = snapshot_v1.build_framed(kind)
        loaded = load_index(path)
        assert state_of(loaded, queries) == state_of(live, queries)
        load = [r.args for r in caplog.records
                if r.msg.startswith("loaded")][-1]
        assert (load["version"], load["frames"]) == (1, 3)
        loaded.save(path)               # no changes, and yet a full save
        assert_full_save(path, caplog, "format v1")
        assert save_messages(caplog)[-1][1]["version"] == 2
        assert read_header(path)["version"] == 2
        loaded.remove("f003")
        loaded.save(path)               # then frames again, in v2
        assert save_messages(caplog)[-1][0] == "appended"
        assert len(snapshot_frames(path.read_bytes())) == 1
        assert state_of(load_index(path), queries) == \
            state_of(loaded, queries)


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

    @pytest.mark.parametrize("how", ["past-the-slots", "negative",
                                     "below-its-layer"])
    def test_hnsw_link_that_does_not_match_the_graph(self, tmp_path, how):
        path = tmp_path / "g.snap"
        snapshot_v1.build("hnsw").save(path)

        def edit(payload):
            links = payload["graph"][payload["entry"]]
            if how == "below-its-layer":   # a layer-1 link to a level-0 slot
                links[1][0] = payload["levels"].index(0)
            else:
                links[0][0] = 10 ** 6 if how == "past-the-slots" else -3

        rewrite_payload(path, edit)
        with pytest.raises(SnapshotCorruptError, match="a link does not match"):
            load_index(path)

    @pytest.mark.parametrize("where", ["link", "rng_state"])
    def test_hnsw_integer_past_int64(self, tmp_path, where):
        path = tmp_path / "i.snap"
        snapshot_v1.build("hnsw").save(path)

        def edit(payload):
            if where == "link":
                payload["graph"][0][0][0] = 2 ** 63
            else:
                payload["rng_state"]["state"]["state"] = 2 ** 300

        rewrite_payload(path, edit)
        with pytest.raises(SnapshotCorruptError, match="OverflowError"):
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


def _set_link(payload, value):
    payload["graph"][payload["entry"]][0][0] = value


def _slot_as_bool(payload):
    doc = next(d for d in payload["docs"] if d["slot"] in (0, 1))
    doc["slot"] = bool(doc["slot"])


@pytest.mark.parametrize("edit", [
    lambda p: _set_link(p, True),
    lambda p: _set_link(p, 1.5),
    lambda p: p.update(entry=str(p["entry"])),
    lambda p: p.update(max_level=float(p["max_level"])),
    lambda p: p.update(levels=[float(lv) for lv in p["levels"]]),
    _slot_as_bool,
], ids=["link-true", "link-float", "entry-string", "max_level-float",
        "levels-float", "slot-true"])
def test_hnsw_integer_fields_must_be_json_integers(tmp_path, edit):
    """A bool, float or string where the graph holds an integer is corrupt,
    not coerced: a link of 1.5 is not link 1."""
    path = tmp_path / "j.snap"
    snapshot_v1.build("hnsw").save(path)
    rewrite_payload(path, edit)
    with pytest.raises(SnapshotCorruptError, match="malformed"):
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


@pytest.mark.parametrize("how", ["live-without-a-doc", "integers"])
def test_hnsw_alive_must_be_the_slots_the_documents_fill(tmp_path, how):
    """A slot marked live with no document would load as a tombstone; 0/1
    integers are not the booleans alive holds."""
    path = tmp_path / "a.snap"
    snapshot_v1.build("hnsw").save(path)

    def edit(payload):
        alive = payload["alive"]
        if how == "live-without-a-doc":
            alive[alive.index(False)] = True
        else:
            payload["alive"] = [int(a) for a in alive]

    rewrite_payload(path, edit)
    with pytest.raises(SnapshotCorruptError, match="alive does not match"):
        load_index(path)


# -- saves from cached fragments ---------------------------------------------

ODD_STRINGS = ['quo"te', "back\\slash\\", "line\u2028sep\u2029",
               "ctl\x00\x1f\x7f", "na\u00efve \u2603 \U0001d11e",
               "tab\tnew\nline\r", "", "</script>"]
ODD_VALUES = [-0.0, 1e300, 5e-324, 2 ** 70, -(10 ** 30), True, False, 0,
              1.5, "caf\u00e9 \"\\"]


def odd_document(rng, doc_id: str, dim: int) -> Document:
    values = rng.choice(len(ODD_VALUES), 3)
    strings = rng.choice(len(ODD_STRINGS), 2)
    return Document(
        id=doc_id, text=ODD_STRINGS[strings[0]] + doc_id,
        metadata={"k\u00e9y": ODD_VALUES[values[0]],
                  "q\"uote": ODD_VALUES[values[1]],
                  "s": ODD_STRINGS[strings[1]],
                  "b\\s": ODD_VALUES[values[2]]},
        embedding=Vector(rng.standard_normal(dim)))


def odd_id(i: int) -> str:
    return f"{ODD_STRINGS[i % len(ODD_STRINGS)]}#{i}"


def new_index(kind: str, rng, dim: int):
    if kind == "flat":
        return FlatIndex()
    if kind == "hnsw":
        return HnswIndex(HnswParams(m=4, ef_construction=16, seed=5))
    index = IvfIndex(IvfParams(nlist=6, nprobe=6, seed=5))
    index.train(rng.standard_normal((40, dim)))
    return index


def hits(index, queries):
    return [[(h.doc_id, h.distance, h.rank)
             for h in index.search(Vector(q), 7)] for q in queries]


@pytest.mark.parametrize("kind", ["flat", "ivf", "hnsw"])
def test_saves_under_churn_match_the_json_encoder(tmp_path, rng, kind):
    """A seeded mix of inserts, replaces and removes, saved after each
    batch: every payload is what json.dumps writes for its own parse, and
    it loads hit for hit. hnsw saves its tombstones too."""
    dim, path = 6, tmp_path / f"{kind}.snap"
    index, live, made = new_index(kind, rng, dim), [], 0
    queries = rng.standard_normal((5, dim))
    for batch in range(9):
        # every third batch only removes, so it shrinks the block of rows
        # the last save encoded and appends nothing to it
        removes_only = batch % 3 == 2
        for _ in range(5 if removes_only else 25):
            op = 1.0 if removes_only else rng.random()
            if op < 0.5 or len(live) < 4:
                live.append(odd_id(made))
                index.insert(odd_document(rng, live[-1], dim))
                made += 1
            elif op < 0.8:
                doc_id = live[int(rng.integers(len(live)))]
                index.insert(odd_document(rng, doc_id, dim))
            else:
                assert index.remove(live.pop(int(rng.integers(len(live)))))
        index.save(path)
        blob = path.read_bytes()
        payload, raw = snapshot_base(blob)
        frames = snapshot_frames(blob)
        for json_bytes in [payload] + [frame for _, frame in frames]:
            assert json_bytes == json.dumps(json.loads(json_bytes),
                                            separators=(",", ":")).encode()
        if not frames:   # a full save: the raw section is the rows
            assert raw == index._table.rows.astype("<f8").tobytes()
        restored = load_index(path)
        assert hits(restored, queries) == hits(index, queries)
        for doc_id in live:
            assert restored.get(doc_id) == index.get(doc_id)
        if kind == "hnsw":
            assert not all(json.loads(payload)["alive"])
        else:
            assert len(index._table.ids) == len(live)


def test_set_doc_rewrites_the_slots_fragment():
    table = SlotTable()
    table.append("a", np.zeros(2), "old", {"n": 1})
    assert table.fragments() == [b'{"id":"a","text":"old","meta":{"n":1}']
    table.set_doc(0, "new", {"n": 2.5})
    assert table.fragments() == [b'{"id":"a","text":"new","meta":{"n":2.5}']
    table.set_doc(0, None, None)
    assert table.fragments() == [None]
    assert table.fragment_encodings == 2


def saved_fragments(caplog) -> list[tuple[str, int | None]]:
    """Each save's log message, saved (full), appended (a change frame) or
    unchanged (nothing written), with the fragments it encoded."""
    return [(r.msg.split()[0], r.args.get("fragments"))
            for r in caplog.records if r.name == "contextdb.snapshot"
            and r.msg.startswith(("saved", "appended", "unchanged"))]


@pytest.mark.parametrize("kind", ["flat", "ivf"])
def test_a_save_encodes_only_the_documents_changed_since_the_last(
        tmp_path, rng, caplog, kind):
    caplog.set_level(logging.DEBUG, logger="contextdb.snapshot")
    dim, path = 6, tmp_path / "s.snap"
    index = new_index(kind, rng, dim)
    for i in range(60):
        index.insert(odd_document(rng, f"d{i:02d}", dim))
    index.save(path)
    index.save(path)
    for i in (3, 10, 59):       # replaces, the last slot's among them
        index.insert(odd_document(rng, f"d{i:02d}", dim))
    for i in (0, 30):           # each moves the last slot's document
        index.remove(f"d{i:02d}")
    index.save(path)
    loaded = load_index(path)
    before = path.read_bytes()
    loaded.save(path)
    assert path.read_bytes() == before
    assert loaded._table.fragment_encodings == 0
    assert saved_fragments(caplog) == [("saved", 60), ("unchanged", None),
                                       ("saved", 3), ("unchanged", None)]
    save, load = [r.args for r in caplog.records if r.msg.startswith(
        ("saved", "loaded"))][-2:][::-1]
    for record in (load, save):
        assert record["path"] == str(path)
        assert (record["kind"], record["documents"]) == (kind, 58)
        assert record["bytes"] == path.stat().st_size
        assert record["ms"] >= 0


def test_a_save_logs_nothing_below_debug(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="contextdb.snapshot")
    small_flat().save(tmp_path / "s.snap")
    load_index(tmp_path / "s.snap")
    assert [r for r in caplog.records if r.name == "contextdb.snapshot"] == []


# -- bulk loads ----------------------------------------------------------------

def ivf_with(rows: np.ndarray, centroids: np.ndarray) -> IvfIndex:
    """An ivf index over the given centroids, rows inserted one at a time."""
    index = IvfIndex(IvfParams(nlist=centroids.shape[0]))
    index._set_centroids(centroids)
    for i, row in enumerate(rows):
        index.insert(Document(f"r{i:05d}", "", {}, Vector(row)))
    return index


def assert_loads_into_the_same_lists(tmp_path, monkeypatch, index) -> int:
    """index saved and loaded has the ids, rows and lists of its single
    inserts; returns how many rows the load re-checked with the kernel."""
    rechecked = []
    list_of = IvfIndex._list_of

    def counted(self, values):
        rechecked.append(1)
        return list_of(self, values)

    path = tmp_path / "ivf.snap"
    index.save(path)
    monkeypatch.setattr(IvfIndex, "_list_of", counted)
    loaded = load_index(path)
    t, u = index._table, loaded._table
    assert u.ids == t.ids
    assert np.array_equal(u.rows, t.rows)
    assert np.array_equal(u.tags, t.tags)
    return len(rechecked)


@pytest.mark.parametrize("nlist", [1, 100])
def test_bulk_ivf_lists_match_single_inserts_on_random_rows(
        tmp_path, monkeypatch, rng, nlist):
    rows = unit_rows(rng, 10_000, 16)
    index = IvfIndex(IvfParams(nlist=nlist, seed=1, kmeans_iters=5))
    index.train(rows[:3000])
    for i, row in enumerate(rows):
        index.insert(Document(f"r{i:05d}", "", {}, Vector(row)))
    assert assert_loads_into_the_same_lists(tmp_path, monkeypatch, index) \
        < 100


def test_bulk_ivf_lists_match_single_inserts_on_midpoints(
        tmp_path, monkeypatch, rng):
    """Rows halfway between two centroids tie to rounding: the screen
    cannot tell them apart, and the kernel decides as a single insert."""
    centroids = rng.standard_normal((40, 8))
    pairs = rng.integers(0, 40, (3000, 2))
    rows = (centroids[pairs[:, 0]] + centroids[pairs[:, 1]]) / 2
    index = ivf_with(rows, centroids)
    assert assert_loads_into_the_same_lists(tmp_path, monkeypatch, index) \
        > 0


def test_bulk_ivf_lists_match_single_inserts_past_the_gemm_range(
        tmp_path, monkeypatch, rng):
    """Rows of norm about 1e155 near centroids of that norm: |x|^2 and
    |c|^2 overflow, so the whole screen does and every row is re-checked;
    the kernel's sum overflows too, except against the row's own
    centroid."""
    centroids = 1e155 * unit_rows(rng, 20, 64)
    rows = centroids[rng.integers(0, 20, 200)] + \
        1e152 * rng.standard_normal((200, 64))
    index = ivf_with(rows, centroids)
    assert len(set(index._table.tags.tolist())) > 10
    assert assert_loads_into_the_same_lists(tmp_path, monkeypatch, index) \
        == 200


def bad_load(tmp_path, kind: str, edit) -> None:
    path = tmp_path / "b.snap"
    snapshot_v1.build(kind).save(path)
    rewrite_payload(path, edit)
    with pytest.raises(SnapshotCorruptError, match="malformed|header says"):
        load_index(path)


def set_doc_field(payload, field: str, value, i: int = 0) -> None:
    """Set a field of the ith document; an hnsw id is also its slot's."""
    doc = payload["docs"][i]
    doc[field] = value
    if field == "id" and "ids" in payload:
        payload["ids"][doc["slot"]] = value


@pytest.mark.parametrize("kind", snapshot_v1.KINDS)
@pytest.mark.parametrize("text", [5, None, ["t"]])
def test_a_document_whose_text_is_not_a_string_is_corrupt(tmp_path, kind,
                                                          text):
    bad_load(tmp_path, kind, lambda p: set_doc_field(p, "text", text))


@pytest.mark.parametrize("kind", snapshot_v1.KINDS)
@pytest.mark.parametrize("how", ["duplicate-id", "empty-id", "id-not-str",
                                 "nested-meta", "meta-key-space",
                                 "row-width"])
def test_a_bad_document_fails_the_whole_load(tmp_path, kind, how):
    def edit(payload):
        if how == "duplicate-id":
            set_doc_field(payload, "id", payload["docs"][1]["id"])
        elif how == "empty-id":
            set_doc_field(payload, "id", "")
        elif how == "id-not-str":
            set_doc_field(payload, "id", 7)
        elif how == "nested-meta":
            set_doc_field(payload, "meta", {"n": {"deep": 1}}, i=-1)
        elif how == "meta-key-space":
            set_doc_field(payload, "meta", {"a b": 1}, i=-1)
        else:   # every row one coordinate short
            payload["vectors"] = pack_array(
                unpack_array(payload["vectors"])[:, :-1])

    bad_load(tmp_path, kind, edit)


def test_a_shape_that_does_not_fit_the_row_data_is_corrupt(tmp_path):
    bad_load(tmp_path, "flat",
             lambda p: p["vectors"].update(shape=[17, 5]))
    bad_load(tmp_path, "flat",
             lambda p: p["vectors"].update(shape=[68]))


@pytest.mark.parametrize("which", ["empty-flat", "emptied-flat",
                                   "untrained-ivf", "empty-trained-ivf",
                                   "emptied-ivf", "empty-hnsw"])
def test_empty_indexes_round_trip(tmp_path, rng, which):
    rows = unit_rows(rng, 20, 4)
    if which.endswith("flat"):
        index = FlatIndex()
    elif which.endswith("hnsw"):
        index = HnswIndex(HnswParams(m=4, ef_construction=8, seed=1))
    else:
        index = IvfIndex(IvfParams(nlist=4, seed=1))
        if which != "untrained-ivf":
            index.train(rows)
    if which.startswith("emptied"):
        for doc in make_docs(rows):
            index.insert(doc)
        for doc in make_docs(rows):
            index.remove(doc.id)
    path = tmp_path / "e.snap"
    index.save(path)
    loaded = load_index(path)
    assert type(loaded) is type(index) and len(loaded) == 0
    loaded.save(tmp_path / "again.snap")
    assert (tmp_path / "again.snap").read_bytes() == path.read_bytes()
    if which == "untrained-ivf":
        assert not loaded.trained
        loaded.train(rows)
    for doc in make_docs(rows[:5]):
        loaded.insert(doc)
    hit = loaded.search(Vector(rows[3]), 1)[0]
    assert (hit.doc_id, hit.distance) == ("d00003", 0.0)


# -- change frames -----------------------------------------------------------

FRAMED = ["flat", "ivf"]


def framed_index(kind: str, rng, n: int = 400, dim: int = 4):
    """An index of n documents, large enough beside a change of a few of
    them that its saves append frames."""
    index = new_index(kind, rng, dim)
    for i in range(n):
        index.insert(Document(f"d{i:05d}", f"text {i}", {"n": i},
                              Vector(rng.standard_normal(dim))))
    return index


def state_of(index, queries) -> tuple:
    """What a load must restore: hits for the queries and every document."""
    t = index._table
    return hits(index, queries), {doc_id: index.get(doc_id)
                                  for doc_id in t.slot_of}


def churn(index, rng, n_ops: int, dim: int = 4) -> None:
    """n_ops seeded inserts of new ids, replaces and removes."""
    for _ in range(n_ops):
        op, ids = rng.random(), index._table.ids
        if op < 0.4:
            doc_id = f"n{rng.integers(1 << 40)}"
        elif op < 0.7:
            doc_id = ids[int(rng.integers(len(ids)))]
        else:
            assert index.remove(ids[int(rng.integers(len(ids)))])
            continue
        index.insert(Document(doc_id, f"text {doc_id}", {"n": op},
                              Vector(rng.standard_normal(dim))))


def save_messages(caplog) -> list[tuple[str, dict]]:
    return [(r.msg.split()[0], r.args) for r in caplog.records
            if r.name == "contextdb.snapshot" and r.msg.startswith(
                ("saved", "appended", "unchanged"))]


@pytest.mark.parametrize("kind", FRAMED)
def test_a_save_to_the_file_it_last_wrote_appends_one_frame(tmp_path, rng,
                                                             kind):
    index, path = framed_index(kind, rng), tmp_path / "s.snap"
    queries = rng.standard_normal((5, 4))
    index.save(path)
    base = path.read_bytes()
    index.remove("d00007")
    index.insert(Document("d00003", "moved", {"n": -1}, Vector(np.ones(4))))
    index.insert(Document("new", "", {}, Vector(np.zeros(4))))
    index.save(path)
    blob = path.read_bytes()
    assert blob.startswith(base)
    [(count, frame)] = snapshot_frames(blob)
    assert count == len(index) == 400
    assert json.loads(frame)["removed"] == ["d00007"]
    assert [d["id"] for d in json.loads(frame)["docs"]] == ["d00003", "new"]
    assert state_of(load_index(path), queries) == state_of(index, queries)


@pytest.mark.parametrize("kind", FRAMED)
def test_a_save_with_no_changes_writes_nothing(tmp_path, rng, kind):
    index, path = framed_index(kind, rng), tmp_path / "s.snap"
    index.save(path)
    stat = os.stat(path)
    index.save(path)
    loaded = load_index(path)
    loaded.save(path)
    after = os.stat(path)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == \
        (stat.st_ino, stat.st_size, stat.st_mtime_ns)
    assert loaded._table.fragment_encodings == 0


@pytest.mark.parametrize("kind", FRAMED)
def test_a_cut_anywhere_in_the_last_frame_loads_the_save_before(
        tmp_path, rng, caplog, kind):
    """Every cut of the last frame, from its first byte to its last, loads
    the state of the save before; the whole frame, the state after. The
    next save writes over the torn bytes."""
    index, path = framed_index(kind, rng), tmp_path / "s.snap"
    queries = rng.standard_normal((5, 4))
    index.save(path)
    index.insert(Document("d00001", "first", {"n": 1.5},
                          Vector(np.full(4, 0.1))))
    index.save(path)
    before, start = state_of(index, queries), path.stat().st_size
    index.remove("d00002")
    index.insert(Document("d00009", "second", {"n": 2.5},
                          Vector(np.full(4, -0.2))))
    index.save(path)
    after, blob = state_of(index, queries), path.read_bytes()
    assert len(snapshot_frames(blob)) == 2
    cut = tmp_path / "cut.snap"
    for end in range(start, len(blob) + 1):
        cut.write_bytes(blob[:end])
        caplog.clear()
        want = after if end == len(blob) else before
        assert state_of(load_index(cut), queries) == want
        assert read_header(cut)["count"] == len(want[1])
        torn = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert bool(torn) == (start < end < len(blob))
        if torn:
            assert f"bytes {start} to {end}" in torn[0].getMessage()
    cut.write_bytes(blob[:-1])     # a torn frame longer than the next
    loaded = load_index(cut)
    loaded.remove("d00004")
    loaded.save(cut)
    [_, (count, _)] = snapshot_frames(cut.read_bytes())
    assert count == len(before[1]) - 1
    assert state_of(load_index(cut), queries) == state_of(loaded, queries)


@pytest.mark.parametrize("kind", FRAMED)
def test_a_flipped_byte_in_a_frame_before_the_last_is_corrupt(tmp_path, rng,
                                                              kind):
    index, path = framed_index(kind, rng), tmp_path / "s.snap"
    index.save(path)
    for doc_id in ("d00001", "d00002"):
        index.insert(Document(doc_id, "", {}, Vector(np.ones(4))))
        index.save(path)
    blob = path.read_bytes()
    assert len(snapshot_frames(blob)) == 2
    start = base_size(blob)
    stop = start + 16 + struct.unpack_from("<Q", blob, start)[0] + 4
    for at in range(start, stop):
        bad = bytearray(blob)
        bad[at] ^= 0xFF
        path.write_bytes(bytes(bad))
        with pytest.raises(SnapshotCorruptError):
            load_index(path)


def test_bytes_after_an_hnsw_snapshot_are_corrupt(tmp_path, rng):
    flat, path = framed_index("flat", rng), tmp_path / "f.snap"
    flat.save(path)
    flat.remove("d00001")
    flat.save(path)
    blob = path.read_bytes()
    frame = blob[base_size(blob):]
    assert len(snapshot_frames(blob)) == 1
    hnsw = framed_index("hnsw", rng, n=50)
    hnsw.save(path)
    hnsw.remove("d00001")
    hnsw.save(path)
    assert snapshot_frames(path.read_bytes()) == []   # a full save
    for tail in (frame, frame[:7]):
        path.write_bytes(path.read_bytes()[:base_size(path.read_bytes())]
                         + tail)
        with pytest.raises(SnapshotCorruptError, match="after a hnsw"):
            load_index(path)
        with pytest.raises(SnapshotCorruptError):
            read_header(path)


def assert_full_save(path, caplog, reason: str) -> None:
    assert snapshot_frames(path.read_bytes()) == []
    word, args = save_messages(caplog)[-1]
    assert (word, args["reason"]) == ("saved", reason)


@pytest.mark.parametrize("kind", FRAMED)
@pytest.mark.parametrize("how", ["copied over", "replaced", "touched"])
def test_a_save_over_a_file_changed_since_is_full(tmp_path, rng, caplog,
                                                   kind, how):
    caplog.set_level(logging.DEBUG, logger="contextdb.snapshot")
    index, path = framed_index(kind, rng), tmp_path / "s.snap"
    other = tmp_path / "other.snap"
    queries = rng.standard_normal((5, 4))
    index.save(path)
    small_flat().save(other)
    index.remove("d00005")
    if how == "copied over":       # the same inode, other bytes
        shutil.copyfile(other, path)
    elif how == "replaced":        # the same bytes, another inode
        shutil.copyfile(path, other)
        os.replace(other, path)
    else:
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1000))
    index.save(path)
    assert_full_save(path, caplog, "file changed")
    assert state_of(load_index(path), queries) == state_of(index, queries)


@pytest.mark.parametrize("kind", FRAMED)
def test_a_second_index_saving_to_the_path_makes_the_next_save_full(
        tmp_path, rng, caplog, kind):
    caplog.set_level(logging.DEBUG, logger="contextdb.snapshot")
    path, queries = tmp_path / "s.snap", rng.standard_normal((5, 4))
    first = framed_index(kind, rng)
    first.save(path)
    second = load_index(path)
    second.remove("d00001")
    second.save(path)              # a frame on the file first wrote
    assert len(snapshot_frames(path.read_bytes())) == 1
    first.remove("d00002")
    first.save(path)
    assert_full_save(path, caplog, "file changed")
    assert state_of(load_index(path), queries) == state_of(first, queries)
    first.save(tmp_path / "elsewhere.snap")
    assert_full_save(tmp_path / "elsewhere.snap", caplog, "other path")


@pytest.mark.parametrize("reload", [False, True])
def test_an_ivf_index_trained_after_its_first_save_saves_in_full(
        tmp_path, rng, caplog, reload):
    caplog.set_level(logging.DEBUG, logger="contextdb.snapshot")
    path, queries = tmp_path / "s.snap", rng.standard_normal((5, 4))
    index = IvfIndex(IvfParams(nlist=6, nprobe=6, seed=5))
    index.save(path)
    if reload:
        index = load_index(path)
    index.train(rng.standard_normal((40, 4)))
    index.insert(Document("a", "", {}, Vector(np.ones(4))))
    index.save(path)
    assert_full_save(path, caplog, "trained")
    assert state_of(load_index(path), queries) == state_of(index, queries)


def test_a_flat_index_saved_empty_saves_in_full_once_it_has_a_dimension(
        tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="contextdb.snapshot")
    index, path = FlatIndex(), tmp_path / "s.snap"
    index.save(path)
    index.insert(Document("a", "", {}, Vector([1.0, 2.0])))
    index.save(path)
    assert_full_save(path, caplog, "dimension set")
    assert load_index(path).get("a") == index.get("a")


@pytest.mark.parametrize("kind", FRAMED)
def test_the_frames_stay_within_a_64th_of_the_base(tmp_path, rng, caplog,
                                                   kind):
    """Frames of one size: a save appends until the next would take them
    past 1/64 of the base's bytes, and that save compacts: a full save,
    with no frames, from which appends start again."""
    caplog.set_level(logging.DEBUG, logger="contextdb.snapshot")
    index, path = framed_index(kind, rng), tmp_path / "s.snap"
    queries = rng.standard_normal((5, 4))
    index.save(path)
    sizes = []
    for step in range(40):
        index.insert(Document("d00001", "", {}, Vector(np.full(4, step))))
        index.save(path)
        blob = path.read_bytes()
        frames = len(snapshot_frames(blob))
        assert len(blob) - base_size(blob) <= base_size(blob) // 64
        sizes.append(frames)
    words = [word for word, _ in save_messages(caplog)][1:]
    frame_bytes = {args["bytes"] for word, args in save_messages(caplog)
                   if word == "appended"}
    assert len(frame_bytes) == 1
    per_base = base_size(blob) // 64 // frame_bytes.pop()
    assert per_base >= 3
    assert sizes[:2 * per_base + 2] == (list(range(1, per_base + 1)) + [0]) * 2
    assert words[per_base] == "saved" and \
        save_messages(caplog)[per_base + 1][1]["reason"] == "compaction"
    assert state_of(load_index(path), queries) == state_of(index, queries)


@pytest.mark.parametrize("kind", FRAMED)
def test_saves_after_each_batch_of_seeded_churn_load_equal(tmp_path, rng,
                                                           kind):
    index, path = framed_index(kind, rng), tmp_path / "s.snap"
    queries = rng.standard_normal((5, 4))
    index.save(path)
    framed = compacted = 0
    for batch in range(40):
        churn(index, rng, int(rng.integers(0, 5)))
        before = path.read_bytes()
        index.save(path)
        blob = path.read_bytes()
        if len(blob) > len(before) and blob.startswith(before):
            framed += 1
        elif blob != before:
            compacted += 1
        assert read_header(path)["count"] == len(index)
        loaded = load_index(path)
        assert state_of(loaded, queries) == state_of(index, queries)
        if batch % 10 == 9:        # go on from the loaded index
            index = loaded
    assert framed >= 10 and compacted >= 1


@pytest.mark.parametrize("kind", FRAMED)
def test_read_header_counts_the_documents_after_the_last_frame(tmp_path,
                                                               rng, kind):
    index, path = framed_index(kind, rng), tmp_path / "s.snap"
    index.save(path)
    counts = []
    for doc_id in ("d00001", "d00002", "n1"):
        if doc_id in index:
            index.remove(doc_id)
        else:
            index.insert(Document(doc_id, "", {}, Vector(np.ones(4))))
        index.save(path)
        counts.append(read_header(path)["count"])
    assert counts == [399, 398, 399]
    assert [count for count, _ in snapshot_frames(path.read_bytes())] == \
        counts
    assert HEADER.unpack_from(path.read_bytes())[4] == 400


class HalfAppender(HalfWriter):
    """HalfWriter for an append only; a temp file's write goes through."""

    def writelines(self, pieces):
        if self.inner.name.endswith(".tmp"):
            return self.inner.writelines(pieces)
        return super().writelines(pieces)


@pytest.mark.parametrize("kind", FRAMED)
@pytest.mark.parametrize("fail", ["write", "fsync"])
def test_a_failed_append_cuts_the_file_back_and_the_next_save_is_full(
        tmp_path, rng, monkeypatch, caplog, kind, fail):
    caplog.set_level(logging.DEBUG, logger="contextdb.snapshot")
    index, path = framed_index(kind, rng), tmp_path / "s.snap"
    queries = rng.standard_normal((5, 4))
    index.save(path)
    index.remove("d00001")
    index.save(path)
    before, saved = path.read_bytes(), state_of(index, queries)
    index.remove("d00002")
    with monkeypatch.context() as patch:
        if fail == "write":
            patch.setattr(snapshot, "open", lambda *a, **kw:
                          HalfAppender(open(*a, **kw)), raising=False)
        else:
            def fsync(fd):
                raise OSError(errno.EIO, "Input/output error")
            patch.setattr(os, "fsync", fsync)
        with pytest.raises(StorageError, match="cannot write snapshot"):
            index.save(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.snap"]
    assert path.read_bytes() == before
    assert state_of(load_index(path), queries) == saved
    index.save(path)
    assert_full_save(path, caplog, "first save")
    assert state_of(load_index(path), queries) == state_of(index, queries)


@pytest.mark.parametrize("kind", FRAMED)
def test_the_debug_log_records_each_append_and_each_full_saves_reason(
        tmp_path, rng, caplog, kind):
    caplog.set_level(logging.DEBUG, logger="contextdb.snapshot")
    index, path = framed_index(kind, rng), tmp_path / "s.snap"
    index.save(path)
    size = path.stat().st_size
    index.remove("d00001")
    index.insert(Document("d00002", "", {}, Vector(np.ones(4))))
    index.save(path)
    word, args = save_messages(caplog)[-1]
    assert word == "appended"
    assert (args["path"], args["kind"]) == (str(path), kind)
    assert (args["removed"], args["documents"], args["fragments"]) == (1, 1, 1)
    assert args["bytes"] == path.stat().st_size - size
    assert args["ms"] >= 0
    index.save(tmp_path / "other.snap")
    reasons = [args["reason"] for word, args in save_messages(caplog)
               if word == "saved"]
    assert reasons == ["first save", "other path"]
    load_index(path)
    load = [r.args for r in caplog.records if r.msg.startswith("loaded")][-1]
    assert (load["documents"], load["frames"]) == (399, 1)


def test_a_torn_frame_gives_one_warning_across_read_header_and_load(
        tmp_path, rng, caplog):
    index, path = framed_index("flat", rng), tmp_path / "s.snap"
    index.save(path)
    index.remove("d00001")
    index.save(path)
    path.write_bytes(path.read_bytes()[:-3])
    caplog.clear()
    assert read_header(path)["count"] == 400
    assert len(load_index(path)) == 400
    torn = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(torn) == 1 and "torn change frame" in torn[0].getMessage()


# -- format v2's raw section ---------------------------------------------------

def with_payload(blob: bytes, text: bytes, raw: bytes) -> bytes:
    """blob's base with the given JSON and raw section, a valid CRC and
    the header's payload length, and no frames."""
    fields = list(HEADER.unpack_from(blob))
    payload = JSON_LEN.pack(len(text)) + text + raw
    fields[-1] = len(payload)
    body = HEADER.pack(*fields) + payload
    return body + struct.pack("<I", zlib.crc32(body))


def with_frame(blob: bytes, live: int, text: bytes, raw: bytes) -> bytes:
    """blob with one more change frame of the given JSON and raw section,
    its CRC valid."""
    payload = JSON_LEN.pack(len(text)) + text + raw
    body = FRAME.pack(len(payload), live) + payload
    return blob + body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("kind", snapshot_v1.KINDS)
def test_a_flipped_byte_in_the_raw_section_fails_the_checksum(tmp_path,
                                                              kind):
    path = tmp_path / "r.snap"
    snapshot_v1.build(kind).save(path)
    blob = path.read_bytes()
    _, raw = snapshot_base(blob)
    start = base_size(blob) - 4 - len(raw)
    for at in (start, start + len(raw) // 2, start + len(raw) - 1):
        bad = bytearray(blob)
        bad[at] ^= 0x01
        path.write_bytes(bytes(bad))
        with pytest.raises(SnapshotCorruptError, match="checksum"):
            load_index(path)


@pytest.mark.parametrize("kind", snapshot_v1.KINDS)
@pytest.mark.parametrize("change", [-8, -1, 1, 8])
def test_a_raw_section_that_does_not_fit_the_shape_is_corrupt(tmp_path, kind,
                                                              change):
    path = tmp_path / "r.snap"
    snapshot_v1.build(kind).save(path)
    blob = path.read_bytes()
    text, raw = snapshot_base(blob)
    raw = raw[:change] if change < 0 else raw + bytes(change)
    path.write_bytes(with_payload(blob, text, raw))
    with pytest.raises(SnapshotCorruptError, match="raw section"):
        load_index(path)


@pytest.mark.parametrize("kind", FRAMED)
@pytest.mark.parametrize("how", ["short", "long", "non-finite"])
def test_a_frame_whose_rows_do_not_decode_is_corrupt(tmp_path, rng, kind,
                                                     how):
    """A whole frame, its CRC good, whose raw rows are cut short, run long
    or hold a NaN: the load fails, and does not take the save before."""
    index, path = framed_index(kind, rng), tmp_path / "s.snap"
    index.save(path)
    row = np.full(4, 0.5)
    if how == "non-finite":
        row[2] = np.nan
    raw = row.astype("<f8").tobytes()
    raw = raw[:-8] if how == "short" else raw + bytes(8 * (how == "long"))
    text = json.dumps({"removed": [], "docs": [
        {"id": "x", "text": "", "meta": {}}], "vectors": {"shape": [1, 4]}},
        separators=(",", ":")).encode()
    path.write_bytes(with_frame(path.read_bytes(), 401, text, raw))
    assert read_header(path)["count"] == 401
    with pytest.raises(SnapshotCorruptError,
                       match="raw section" if how != "non-finite"
                       else "finite"):
        load_index(path)


def test_the_json_length_past_the_payload_is_corrupt(tmp_path):
    path = tmp_path / "j.snap"
    snapshot_v1.build("flat").save(path)
    blob = bytearray(path.read_bytes())
    plen = HEADER.unpack_from(blob)[-1]
    JSON_LEN.pack_into(blob, HEADER.size, plen)
    body = bytes(blob[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(SnapshotCorruptError, match="bad payload"):
        load_index(path)
