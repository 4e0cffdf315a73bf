import json
import logging
import threading
import time

import pytest

from contextdb import ConversationStore, Message, StorageError
from helpers import FailingFile


class FakeClock:
    def __init__(self, start_ms: int = 1_000_000):
        self.ms = start_ms

    def __call__(self) -> float:
        return self.ms / 1000.0

    def advance(self, ms: int) -> None:
        self.ms += ms


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "conv.jsonl"


class TestMessage:
    def test_validation(self):
        with pytest.raises(ValueError):
            Message(session_id="", seq=0, role="user", text="x", timestamp=0)
        with pytest.raises(ValueError):
            Message(session_id="s", seq=0, role="robot", text="x", timestamp=0)
        with pytest.raises(ValueError):
            Message(session_id="s", seq=-1, role="user", text="x", timestamp=0)

    def test_metadata_read_only(self):
        m = Message(session_id="s", seq=0, role="user", text="x",
                    timestamp=0, metadata={"flag": True})
        with pytest.raises(TypeError):
            m.metadata["flag"] = False  # type: ignore[index]


class TestAppend:
    def test_seq_starts_at_zero_and_is_contiguous(self, store_path):
        with ConversationStore(store_path) as store:
            msgs = [store.append_message("s1", "user", f"m{i}") for i in range(5)]
        assert [m.seq for m in msgs] == [0, 1, 2, 3, 4]

    def test_sessions_have_independent_counters(self, store_path):
        with ConversationStore(store_path) as store:
            a0 = store.append_message("a", "user", "x")
            b0 = store.append_message("b", "user", "y")
            a1 = store.append_message("a", "assistant", "z")
        assert (a0.seq, b0.seq, a1.seq) == (0, 0, 1)

    def test_interleaved_sessions_against_counter_oracle(self, store_path, rng):
        counters = {}
        with ConversationStore(store_path) as store:
            for _ in range(300):
                sid = f"s{int(rng.integers(0, 7))}"
                want = counters.get(sid, 0)
                got = store.append_message(sid, "user", "t").seq
                assert got == want
                counters[sid] = want + 1
            assert store.list_sessions() == sorted(counters.items())

    def test_timestamps_non_decreasing_even_if_clock_jumps_back(self, store_path):
        clock = FakeClock()
        with ConversationStore(store_path, clock=clock) as store:
            first = store.append_message("s", "user", "a")
            clock.advance(-5000)  # clock skew
            second = store.append_message("s", "user", "b")
            clock.advance(10000)
            third = store.append_message("s", "user", "c")
        assert first.timestamp <= second.timestamp <= third.timestamp
        assert second.timestamp == first.timestamp

    def test_role_validated_on_append(self, store_path):
        with ConversationStore(store_path) as store:
            with pytest.raises(ValueError):
                store.append_message("s", "wizard", "x")
            assert store.count("s") == 0


class TestHistory:
    def test_suffix_semantics(self, store_path):
        with ConversationStore(store_path) as store:
            for i in range(5):
                store.append_message("s", "user", f"m{i}")
            tail = store.get_history("s", 2)
            assert [(m.seq, m.text) for m in tail] == [(3, "m3"), (4, "m4")]
            assert len(store.get_history("s", 99)) == 5

    def test_unknown_session_is_empty(self, store_path):
        with ConversationStore(store_path) as store:
            assert store.get_history("nope", 10) == []

    def test_last_n_must_be_positive(self, store_path):
        with ConversationStore(store_path) as store:
            with pytest.raises(ValueError):
                store.get_history("s", 0)

    def test_shadow_transcript_oracle(self, store_path, rng):
        shadow: list[str] = []
        with ConversationStore(store_path) as store:
            for i in range(1000):
                text = f"line {i}"
                store.append_message("s", "user", text)
                shadow.append(text)
            for n in (1, 10, 1000):
                got = [m.text for m in store.get_history("s", n)]
                assert got == shadow[-n:]


class TestDurability:
    def test_reopen_returns_identical_messages(self, store_path):
        with ConversationStore(store_path) as store:
            sent = [store.append_message("s", "user", f"m{i}",
                                         {"n": i, "ok": bool(i % 2)})
                    for i in range(20)]
        with ConversationStore(store_path) as store:
            back = store.get_history("s", 100)
        assert [(m.seq, m.role, m.text, m.timestamp, dict(m.metadata))
                for m in back] == \
               [(m.seq, m.role, m.text, m.timestamp, dict(m.metadata))
                for m in sent]

    def test_unicode_text_round_trips(self, store_path):
        text = "naïve café — ✓ 中文 \"quotes\" \\backslash\\ \n newline"
        with ConversationStore(store_path) as store:
            store.append_message("s", "user", text)
        with ConversationStore(store_path) as store:
            assert store.get_history("s", 1)[0].text == text

    def test_a_second_writer_is_refused_until_the_first_closes(
            self, store_path):
        """Two stores on one file used to each append seq 0 of a session,
        and the reopen then refused the log."""
        with ConversationStore(store_path) as first:
            first.append_message("s", "user", "one")
            with pytest.raises(StorageError, match="another writer"):
                ConversationStore(store_path)
            first.append_message("s", "user", "two")
        with ConversationStore(store_path) as second:
            second.append_message("s", "user", "three")
        with ConversationStore(store_path) as reopened:
            assert [m.text for m in reopened.get_history("s", 10)] == \
                ["one", "two", "three"]

    def test_concurrent_writers_each_session_contiguous(self, store_path):
        with ConversationStore(store_path) as store:
            def writer(i: int):
                for j in range(100):
                    store.append_message(f"s{i}", "user", f"w{i} m{j}")
            threads = [threading.Thread(target=writer, args=(i,))
                       for i in range(10)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        with ConversationStore(store_path) as store:
            for i in range(10):
                msgs = store.get_history(f"s{i}", 1000)
                assert [m.seq for m in msgs] == list(range(100))
                assert [m.text for m in msgs] == [f"w{i} m{j}" for j in range(100)]


class TestRecovery:
    def _fill(self, store_path, n=6):
        with ConversationStore(store_path) as store:
            for i in range(n):
                store.append_message("s", "user", f"m{i}")

    def test_torn_final_line_without_newline_is_dropped(self, store_path):
        self._fill(store_path)
        raw = store_path.read_bytes()
        store_path.write_bytes(raw + b'{"session_id":"s","seq":6,"ro')
        with ConversationStore(store_path) as store:
            assert store.count("s") == 6
            # and the file was healed: the torn bytes are gone
            appended = store.append_message("s", "user", "m6")
            assert appended.seq == 6
        with ConversationStore(store_path) as store:
            assert store.count("s") == 7

    @pytest.mark.parametrize("fail_on", ["write", "flush"])
    def test_log_holds_exactly_the_acknowledged_appends(self, store_path,
                                                        fail_on):
        # A refused append must leave nothing behind: neither bytes in the
        # file nor bytes in a buffer that a later append would carry out.
        with ConversationStore(store_path) as store:
            store.append_message("s", "user", "m0")
            store._fh = FailingFile(store._fh, b'"m1"', fail_on)
            try:
                store.append_message("s", "user", "m1")
                acked = ["m1"]
            except StorageError:
                acked = []
            store.append_message("s", "user", "m2")
            texts = [m.text for m in store.get_history("s", 10)]
            assert texts == ["m0", *acked, "m2"]
        with ConversationStore(store_path) as store:
            history = store.get_history("s", 10)
        assert [m.text for m in history] == texts
        assert [m.seq for m in history] == list(range(len(texts)))

    def test_batch_is_one_append_or_none(self, store_path):
        with ConversationStore(store_path) as store:
            with pytest.raises(KeyError):
                with store.batch():
                    store.append_message("s", "user", "lost")
                    raise KeyError("the block fails")
            assert store.count("s") == 0
            with store.batch():
                store.append_message("s", "user", "q")
                with store.batch():  # joins the outer batch
                    store.append_message("s", "assistant", "a")
                assert store_path.read_bytes() == b""
        with ConversationStore(store_path) as store:
            history = store.get_history("s", 10)
        assert [(m.seq, m.text) for m in history] == [(0, "q"), (1, "a")]

    def test_torn_final_line_with_newline_is_dropped(self, store_path):
        self._fill(store_path)
        raw = store_path.read_bytes()
        store_path.write_bytes(raw + b'{"session_id":"s","seq":6\n')
        with ConversationStore(store_path) as store:
            assert store.count("s") == 6

    def test_healed_torn_line_logs_one_warning(self, store_path, caplog):
        self._fill(store_path)
        torn = b'{"session_id":"s","seq":6,"ro'
        store_path.write_bytes(store_path.read_bytes() + torn)
        with caplog.at_level(logging.WARNING, logger="contextdb"):
            ConversationStore(store_path).close()
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.name.startswith("contextdb.")
        assert str(store_path) in record.getMessage()
        assert f"{len(torn)} bytes" in record.getMessage()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="contextdb"):
            ConversationStore(store_path).close()  # clean now: no warning
        assert caplog.records == []

    def test_seq_gap_leaves_the_file_untouched(self, store_path):
        self._fill(store_path)
        lines = store_path.read_bytes().splitlines(keepends=True)
        rec = json.loads(lines[3])
        rec["seq"] = 9
        lines[3] = json.dumps(rec).encode() + b"\n"
        raw = b"".join(lines) + b'{"session_id":"s","se'  # and a torn tail
        store_path.write_bytes(raw)
        with pytest.raises(StorageError, match="expected seq 3"):
            ConversationStore(store_path)
        assert store_path.read_bytes() == raw

    def test_midfile_corruption_is_refused(self, store_path):
        self._fill(store_path)
        lines = store_path.read_bytes().splitlines(keepends=True)
        lines[2] = b"GARBAGE NOT JSON\n"
        store_path.write_bytes(b"".join(lines))
        with pytest.raises(StorageError):
            ConversationStore(store_path)

    def test_seq_gap_is_refused(self, store_path):
        self._fill(store_path)
        lines = store_path.read_bytes().splitlines(keepends=True)
        rec = json.loads(lines[3])
        rec["seq"] = 9
        lines[3] = json.dumps(rec).encode() + b"\n"
        store_path.write_bytes(b"".join(lines))
        with pytest.raises(StorageError):
            ConversationStore(store_path)

    @pytest.mark.parametrize("name,value", [
        ("timestamp", "soon"), ("timestamp", -1), ("timestamp", 1.5),
        ("session_id", ["a"]), ("session_id", 5), ("text", ["x"])])
    def test_a_bad_record_field_is_refused_with_its_line(self, store_path,
                                                         name, value):
        # line 1 is bad, so it is not the final line that heals as torn
        good = {"session_id": "s", "seq": 0, "role": "user", "text": "a",
                "timestamp": 1000, "metadata": {}}
        bad = dict(good, **{name: value})
        store_path.write_text(json.dumps(bad) + "\n"
                              + json.dumps(dict(good, session_id="t")) + "\n")
        raw = store_path.read_bytes()
        with pytest.raises(StorageError, match=f":1: corrupt record: .*{name}"):
            ConversationStore(store_path)
        assert store_path.read_bytes() == raw

    def test_a_final_record_with_a_bad_field_heals_as_torn(self, store_path):
        self._fill(store_path, n=2)
        rec = json.loads(store_path.read_bytes().splitlines()[1])
        rec.update(seq=2, timestamp="soon")
        store_path.write_bytes(store_path.read_bytes()
                               + json.dumps(rec).encode() + b"\n")
        with ConversationStore(store_path) as store:
            assert store.count("s") == 2
            assert store.append_message("s", "user", "m2").seq == 2

    def _two_exchanges(self, store_path) -> list[int]:
        """Two exchanges, each one batch(); the file's size after each."""
        sizes = []
        with ConversationStore(store_path) as store:
            for i in range(2):
                with store.batch():
                    store.append_message("s", "user", f"q{i}")
                    store.append_message("s", "assistant", f"a{i}")
                sizes.append(store_path.stat().st_size)
        return sizes

    def test_a_batch_torn_inside_its_answer_drops_the_question_too(
            self, store_path):
        sizes = self._two_exchanges(store_path)
        raw = store_path.read_bytes()
        store_path.write_bytes(raw[:raw.index(b'"a1"') + 2])
        with ConversationStore(store_path) as store:
            history = store.get_history("s", 10)
        assert [m.text for m in history] == ["q0", "a0"]
        assert store_path.read_bytes() == raw[:sizes[0]]

    def test_every_cut_keeps_only_whole_appends(self, store_path):
        sizes = self._two_exchanges(store_path)
        raw = store_path.read_bytes()
        for cut in range(len(raw) + 1):
            store_path.write_bytes(raw[:cut])
            with ConversationStore(store_path) as store:
                texts = [m.text for m in store.get_history("s", 10)]
            whole = sum(size <= cut for size in sizes)
            assert texts == ["q0", "a0", "q1", "a1"][:2 * whole], cut
            assert store_path.read_bytes() == raw[:([0] + sizes)[whole]]
        assert raw.count(b"\n") == 2  # a batch is one line

    def test_a_log_of_one_object_per_line_replays_unchanged(self, store_path):
        # the format of a batch before a batch became one line
        lines = [json.dumps({"session_id": "s", "seq": i, "role": role,
                             "text": f"m{i}", "timestamp": 1000,
                             "metadata": {}}, separators=(",", ":"))
                 for i, role in enumerate(["user", "assistant"] * 2)]
        raw = "".join(line + "\n" for line in lines).encode()
        store_path.write_bytes(raw)
        with ConversationStore(store_path) as store:
            history = store.get_history("s", 10)
            assert store.append_message("s", "user", "m4").seq == 4
        assert [(m.seq, m.text) for m in history] == \
            [(i, f"m{i}") for i in range(4)]
        assert store_path.read_bytes().startswith(raw)

    @pytest.mark.parametrize("bad", [
        "[]", "[[]]", '[{"session_id":"s","seq":2}]',
        '[{"session_id":"s","seq":2,"role":"user","text":"x",'
        '"timestamp":1000,"metadata":{}},{"session_id":"s","seq":3}]'])
    def test_a_bad_append_line_is_refused_earlier_and_dropped_last(
            self, store_path, bad):
        self._fill(store_path, n=2)
        good = store_path.read_bytes()
        store_path.write_bytes(bad.encode() + b"\n" + good)
        with pytest.raises(StorageError, match=":1: corrupt record"):
            ConversationStore(store_path)
        store_path.write_bytes(good + bad.encode() + b"\n")
        with ConversationStore(store_path) as store:
            assert store.count("s") == 2
        assert store_path.read_bytes() == good

    def test_missing_file_starts_empty(self, store_path):
        with ConversationStore(store_path) as store:
            assert store.list_sessions() == []

    def test_on_disk_format_is_one_json_object_per_line(self, store_path):
        with ConversationStore(store_path) as store:
            store.append_message("s", "user", "hi", {"n": 1})
        line = store_path.read_text("utf-8").splitlines()[0]
        rec = json.loads(line)
        assert set(rec) == {"session_id", "seq", "role", "text",
                            "timestamp", "metadata"}
        assert rec["metadata"] == {"n": 1}


class TestAppendScaling:
    def test_append_cost_does_not_grow_with_log_size(self, store_path):
        # 100k appends well under the 30s desk budget, and the last 10k
        # must not cost materially more than the first 10k (an O(n) append
        # would make that window ~10x slower)
        with ConversationStore(store_path) as store:
            start = time.perf_counter()
            for i in range(10_000):
                store.append_message("s", "user", f"message {i}")
            first_window = time.perf_counter() - start
            for i in range(10_000, 90_000):
                store.append_message("s", "user", f"message {i}")
            t0 = time.perf_counter()
            for i in range(90_000, 100_000):
                store.append_message("s", "user", f"message {i}")
            last_window = time.perf_counter() - t0
            total = time.perf_counter() - start
            assert store.count("s") == 100_000
        assert total < 30.0
        assert last_window < 5.0 * first_window
