import json
import logging
import threading

import pytest

from contextdb import Profile, ProfileNotFoundError, ProfileStore, StorageError


class FakeClock:
    def __init__(self, start_ms: int = 5_000_000):
        self.ms = start_ms

    def __call__(self) -> float:
        return self.ms / 1000.0


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "profiles.jsonl"


class TestPutGet:
    def test_read_your_write(self, store_path):
        with ProfileStore(store_path) as store:
            store.put_profile("u1", {"preferred_brand": "Reebok", "budget": 100})
            prof = store.get_profile("u1")
        assert dict(prof.fields) == {"preferred_brand": "Reebok", "budget": 100}

    def test_unknown_user_is_none_not_error(self, store_path):
        with ProfileStore(store_path) as store:
            assert store.get_profile("ghost") is None

    def test_put_replaces_entirely(self, store_path):
        with ProfileStore(store_path) as store:
            store.put_profile("u1", {"a": 1, "b": 2})
            store.put_profile("u1", {"c": 3})
            assert dict(store.get_profile("u1").fields) == {"c": 3}

    def test_hundred_users_against_map_oracle(self, store_path, rng):
        oracle = {}
        with ProfileStore(store_path) as store:
            for i in range(100):
                fields = {"budget": int(rng.integers(0, 500)), "tier": f"t{i % 4}"}
                store.put_profile(f"u{i:03d}", fields)
                oracle[f"u{i:03d}"] = fields
            for uid, fields in oracle.items():
                assert dict(store.get_profile(uid).fields) == fields
            assert store.list_users() == sorted(oracle)

    def test_updated_at_strictly_increases(self, store_path):
        clock = FakeClock()  # frozen: never advances
        with ProfileStore(store_path, clock=clock) as store:
            stamps = [store.put_profile("u1", {"n": i}).updated_at
                      for i in range(5)]
        assert stamps == sorted(set(stamps))  # strictly increasing

    def test_validation(self, store_path):
        with ProfileStore(store_path) as store:
            with pytest.raises(ValueError):
                store.put_profile("", {"a": 1})
            with pytest.raises(TypeError):
                store.put_profile("u", {"a": [1, 2]})  # type: ignore[dict-item]


class TestUpdateField:
    def test_single_field_semantics(self, store_path):
        with ProfileStore(store_path) as store:
            store.put_profile("u1", {"preferred_brand": "Reebok", "budget": 100})
            prof = store.update_field("u1", "budget", 150)
            assert dict(prof.fields) == {"preferred_brand": "Reebok",
                                         "budget": 150}

    def test_unknown_user_is_an_error(self, store_path):
        with ProfileStore(store_path) as store:
            with pytest.raises(ProfileNotFoundError):
                store.update_field("ghost", "budget", 1)

    def test_concurrent_disjoint_fields_all_land(self, store_path):
        with ProfileStore(store_path) as store:
            store.put_profile("u1", {})

            def worker(t: int):
                for j in range(10):
                    store.update_field("u1", f"f{t}_{j}", t * 100 + j)

            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            fields = store.get_profile("u1").fields
        assert len(fields) == 50
        assert fields["f3_7"] == 307

    def test_kind_change_logs_warning(self, store_path, caplog):
        with ProfileStore(store_path) as store:
            store.put_profile("u1", {"budget": 100})
            with caplog.at_level(logging.WARNING, logger="contextdb.profiles"):
                store.update_field("u1", "budget", "plenty")
            assert any("changed kind" in rec.message for rec in caplog.records)
            # advisory only: the write still succeeded
            assert store.get_profile("u1").fields["budget"] == "plenty"


def _kind(v):
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "num"
    return "str"


def _same(a, b):
    if _kind(a) != _kind(b):
        return False
    return float(a) == float(b) if _kind(a) == "num" else a == b


class TestQueryByField:
    def test_matches_linear_scan_oracle(self, store_path, rng):
        brands = ["Nike", "Adidas", "Reebok"]
        oracle = {}
        with ProfileStore(store_path) as store:
            for i in range(60):
                fields = {"brand": brands[int(rng.integers(0, 3))],
                          "budget": int(rng.integers(1, 4)) * 50,
                          "active": bool(rng.integers(0, 2))}
                store.put_profile(f"u{i:02d}", fields)
                oracle[f"u{i:02d}"] = fields
            for name, value in [("brand", "Reebok"), ("budget", 100),
                                ("active", True), ("brand", "Puma"),
                                ("budget", 100.0)]:
                want = sorted(uid for uid, f in oracle.items()
                              if name in f and _same(f[name], value))
                got = [p.user_id for p in store.query_by_field(name, value)]
                assert got == want

    def test_equality_respects_kinds(self, store_path):
        with ProfileStore(store_path) as store:
            store.put_profile("num", {"x": 100})
            store.put_profile("txt", {"x": "100"})
            store.put_profile("yes", {"x": True})
            assert [p.user_id for p in store.query_by_field("x", 100)] == ["num"]
            assert [p.user_id for p in store.query_by_field("x", "100")] == ["txt"]
            assert [p.user_id for p in store.query_by_field("x", True)] == ["yes"]
            # int/float equality within the number kind
            assert [p.user_id for p in store.query_by_field("x", 100.0)] == ["num"]

    def test_index_tracks_updates(self, store_path):
        with ProfileStore(store_path) as store:
            store.put_profile("u1", {"brand": "Nike"})
            store.put_profile("u2", {"brand": "Nike"})
            store.update_field("u1", "brand", "Reebok")
            assert [p.user_id for p in store.query_by_field("brand", "Nike")] == ["u2"]
            assert [p.user_id for p in store.query_by_field("brand", "Reebok")] == ["u1"]
            store.put_profile("u2", {"other": 1})  # full replace drops brand
            assert store.query_by_field("brand", "Nike") == []


class TestDurability:
    def test_reopen_keeps_profiles(self, store_path):
        with ProfileStore(store_path) as store:
            store.put_profile("u1", {"a": 1})
            store.put_profile("u2", {"b": "x", "c": False})
            store.update_field("u1", "a", 2)
            before = {uid: (dict(store.get_profile(uid).fields),
                            store.get_profile(uid).updated_at)
                      for uid in ("u1", "u2")}
        with ProfileStore(store_path) as store:
            after = {uid: (dict(store.get_profile(uid).fields),
                           store.get_profile(uid).updated_at)
                     for uid in ("u1", "u2")}
            assert after == before
            # secondary index rebuilt from disk
            assert [p.user_id for p in store.query_by_field("a", 2)] == ["u1"]

    def test_a_number_past_float64_reopens_and_equals_inf(self, store_path):
        with ProfileStore(store_path) as store:
            store.put_profile("u", {"x": 10 ** 400})
        with ProfileStore(store_path) as store:
            assert store.get_profile("u").fields["x"] == 10 ** 400
            for value in (10 ** 401, 1e400):    # both compare as +inf
                assert [p.user_id for p in store.query_by_field("x", value)] \
                    == ["u"]
            assert store.query_by_field("x", -10 ** 400) == []

    def test_last_line_per_user_wins(self, store_path):
        with ProfileStore(store_path) as store:
            for i in range(5):
                store.put_profile("u1", {"version": i})
        lines = store_path.read_text().splitlines()
        assert len(lines) == 5  # snapshot-on-write keeps history
        with ProfileStore(store_path) as store:
            assert store.get_profile("u1").fields["version"] == 4

    def test_torn_final_line_is_dropped(self, store_path):
        with ProfileStore(store_path) as store:
            store.put_profile("u1", {"a": 1})
            store.put_profile("u1", {"a": 2})
        raw = store_path.read_bytes()
        store_path.write_bytes(raw + b'{"user_id":"u1","fields":{"a":3}')
        with ProfileStore(store_path) as store:
            assert store.get_profile("u1").fields["a"] == 2

    def test_healed_torn_line_logs_one_warning(self, store_path, caplog):
        with ProfileStore(store_path) as store:
            store.put_profile("u1", {"a": 1})
        torn = b'{"user_id":"u1","fields":{"a":3}}\n'  # no updated_at
        store_path.write_bytes(store_path.read_bytes() + torn)
        with caplog.at_level(logging.WARNING, logger="contextdb"):
            with ProfileStore(store_path) as store:
                assert store.get_profile("u1").fields["a"] == 1
        [record] = caplog.records
        assert record.name.startswith("contextdb.")
        assert str(store_path) in record.getMessage()
        assert f"{len(torn)} bytes" in record.getMessage()

    def test_midfile_corruption_is_refused(self, store_path):
        with ProfileStore(store_path) as store:
            for i in range(4):
                store.put_profile(f"u{i}", {"n": i})
        lines = store_path.read_bytes().splitlines(keepends=True)
        lines[1] = b"NOT JSON\n"
        store_path.write_bytes(b"".join(lines))
        with pytest.raises(StorageError):
            ProfileStore(store_path)

    @pytest.mark.parametrize("name,value", [
        ("updated_at", "x"), ("updated_at", -1), ("updated_at", True),
        ("user_id", ["u"]), ("user_id", 5)])
    def test_a_bad_record_field_is_refused_with_its_line(self, store_path,
                                                         name, value):
        # line 1 is bad, so it is not the final line that heals as torn
        good = {"user_id": "u1", "fields": {"a": 1}, "updated_at": 1000}
        bad = dict(good, **{name: value})
        store_path.write_text(json.dumps(bad) + "\n"
                              + json.dumps(dict(good, user_id="u2")) + "\n")
        raw = store_path.read_bytes()
        with pytest.raises(StorageError, match=f":1: corrupt record: .*{name}"):
            ProfileStore(store_path)
        assert store_path.read_bytes() == raw

    def test_on_disk_format(self, store_path):
        with ProfileStore(store_path) as store:
            store.put_profile("u1", {"a": 1})
        rec = json.loads(store_path.read_text().splitlines()[0])
        assert set(rec) == {"user_id", "fields", "updated_at"}


class TestProfileType:
    def test_fields_read_only(self):
        prof = Profile(user_id="u", fields={"a": 1}, updated_at=1)
        with pytest.raises(TypeError):
            prof.fields["a"] = 2  # type: ignore[index]

    def test_empty_user_id_rejected(self):
        with pytest.raises(ValueError):
            Profile(user_id="", fields={}, updated_at=0)
