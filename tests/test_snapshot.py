import errno
import json
import logging
import os
import struct

import numpy as np
import pytest

from contextdb import (Document, FlatIndex, HnswIndex, HnswParams, IvfIndex,
                       IvfParams, SnapshotCorruptError, SnapshotVersionError,
                       StorageError, Vector, load_index, read_header,
                       save_index)
from contextdb.index import snapshot
from contextdb.index.base import SlotTable, pack_array, unpack_array
from helpers import HEADER, make_docs, rewrite_payload, unit_rows
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
        payload = path.read_bytes()[HEADER.size:-4]
        assert payload == json.dumps(json.loads(payload),
                                     separators=(",", ":")).encode("utf-8")
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


def test_rows_json_follows_every_row_write(rng):
    """The cached base64 of full blocks of three rows, through removes that
    move a row into another block or shrink the last one, and appends."""
    table = SlotTable()

    def check():
        assert b"".join(table.rows_json()) == json.dumps(
            pack_array(table.rows), separators=(",", ":")).encode()

    for i in range(9):
        table.append(f"r{i}", rng.standard_normal(4))
    check()
    table.swap_remove("r1")            # r8 moves into block 0, and
    table.append("r9", rng.standard_normal(4))  # block 2 gets a new row 8
    check()
    table.swap_remove("r8")            # r9 moves into block 0
    check()
    table.swap_remove("r7")            # the last row itself
    table.append("r10", rng.standard_normal(4))
    check()


def saved_fragments(caplog) -> list[int]:
    return [r.args["fragments"] for r in caplog.records
            if r.name == "contextdb.snapshot" and r.msg.startswith("saved")]


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
    loaded.save(path)
    assert saved_fragments(caplog) == [60, 0, 3, 58]
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
