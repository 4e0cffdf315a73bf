import json
import os
import re
import subprocess
import sys

import pytest

from contextdb import ConversationStore, ProfileStore, load_index
from contextdb.cli import load_config, main
from helpers import log_records, rewrite_payload


def run_cli(args, tmp_home, stdin: str | bytes | None = None):
    """(exit code, stdout, stderr); bytes on stdin go in as they are, and
    then stdout and stderr come back as bytes too."""
    env = dict(os.environ, CONTEXTDB_HOME=str(tmp_home))
    proc = subprocess.run([sys.executable, "-m", "contextdb", *args],
                          capture_output=True, input=stdin,
                          text=not isinstance(stdin, bytes),
                          env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def home(tmp_path):
    return tmp_path / "home"


def write_catalog(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


DEMO_Q = "I need comfortable running shoes under $100"

SHOES_JSONL = [
    {"id": "nike-zoomx", "text": "Nike ZoomX Infinity Run",
     "metadata": {"brand": "Nike", "price": 150}, "embedding": [1.2, 3.5]},
    {"id": "adidas-ultraboost", "text": "Adidas UltraBoost",
     "metadata": {"brand": "Adidas", "price": 120}, "embedding": [2.0, 3.2]},
    {"id": "reebok-floatride", "text": "Reebok Floatride",
     "metadata": {"brand": "Reebok", "price": 90}, "embedding": [3.1, 2.9]},
    {"id": "asics-gel-kayano", "text": "ASICS Gel-Kayano",
     "metadata": {"brand": "ASICS", "price": 110}, "embedding": [2.5, 3.0]},
]


class TestDemoShoes:
    def test_reproduces_worked_example(self, home):
        code, out, err = run_cli(["demo-shoes"], home)
        assert code == 0, err
        assert "DEMO_OK" in out
        assert "distance nike-zoomx 1.97" in out
        assert "distance adidas-ultraboost 1.12" in out
        assert "distance reebok-floatride 0.22" in out
        assert "distance asics-gel-kayano 0.58" in out
        assert ("ranking: reebok-floatride, asics-gel-kayano, "
                "adidas-ultraboost, nike-zoomx") in out
        assert "top_filtered: reebok-floatride price=90 distance=0.22" in out

    def test_byte_identical_across_runs(self, home):
        _, first, _ = run_cli(["demo-shoes"], home)
        _, second, _ = run_cli(["demo-shoes"], home)
        assert first == second


class TestIngestAndQuery:
    def test_fixture_embedder_end_to_end(self, home, tmp_path):
        catalog = tmp_path / "shoes.jsonl"
        # fixture embedder derives embeddings from the known product names
        write_catalog(catalog, [{k: v for k, v in row.items()
                                 if k != "embedding"} for row in SHOES_JSONL])
        code, out, _ = run_cli(["ingest", "--catalog", str(catalog),
                                "--index", str(tmp_path / "idx"),
                                "--embedder", "fixture"], home)
        assert code == 0
        assert "ingested 4 documents" in out
        code, out, _ = run_cli(["query", "--index", str(tmp_path / "idx"),
                                "--q", "I need comfortable running shoes under $100",
                                "--k", "4"], home)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("1. reebok-floatride  distance=0.22")
        assert lines[1].startswith("2. asics-gel-kayano  distance=0.58")
        assert "brand=Reebok" in lines[0] and "price=90" in lines[0]

    def test_explicit_embeddings_survive_ingest(self, home, tmp_path):
        catalog = tmp_path / "shoes.jsonl"
        write_catalog(catalog, SHOES_JSONL)
        run_cli(["ingest", "--catalog", str(catalog), "--index",
                 str(tmp_path / "idx"), "--embedder", "fixture"], home)
        index = load_index(tmp_path / "idx" / "index.snap")
        stored = index.get("reebok-floatride").embedding.values
        assert stored.tolist() == [3.1, 2.9]

    def test_filtered_query(self, home, tmp_path):
        catalog = tmp_path / "shoes.jsonl"
        write_catalog(catalog, SHOES_JSONL)
        run_cli(["ingest", "--catalog", str(catalog), "--index",
                 str(tmp_path / "idx"), "--embedder", "fixture"], home)
        code, out, _ = run_cli(
            ["query", "--index", str(tmp_path / "idx"),
             "--q", "I need comfortable running shoes under $100",
             "--k", "1", "--filter", "price<100"], home)
        assert code == 0
        assert out.splitlines() == [
            "1. reebok-floatride  distance=0.22  brand=Reebok price=90"]

    def test_a_price_past_float64_filters_as_inf(self, home, tmp_path):
        catalog = tmp_path / "shoes.jsonl"
        write_catalog(catalog, SHOES_JSONL + [
            {"id": "gold", "text": "Gold", "metadata": {"price": 10 ** 400},
             "embedding": [3.0, 2.7]}])
        run_cli(["ingest", "--catalog", str(catalog), "--index",
                 str(tmp_path / "idx"), "--embedder", "fixture"], home)
        for text, want in (("price<100", ["reebok-floatride"]),
                           ("price>1e308", ["gold"])):
            code, out, err = run_cli(
                ["query", "--index", str(tmp_path / "idx"),
                 "--q", "I need comfortable running shoes under $100",
                 "--k", "5", "--filter", text], home)
            assert code == 0, err
            assert [line.split()[1] for line in out.splitlines()] == want

    def test_hash_embedder_round_trip(self, home, tmp_path):
        catalog = tmp_path / "c.jsonl"
        write_catalog(catalog, [
            {"id": f"doc{i}", "text": f"document number {i}",
             "metadata": {"n": i}} for i in range(30)])
        code, out, _ = run_cli(["ingest", "--catalog", str(catalog),
                                "--index", str(tmp_path / "idx"),
                                "--embedder", "hash", "--dim", "32",
                                "--seed", "7"], home)
        assert code == 0
        # querying the exact stored text must put that doc first: the hash
        # embedder maps identical text to the identical vector
        code, out, _ = run_cli(["query", "--index", str(tmp_path / "idx"),
                                "--q", "document number 17", "--k", "3"], home)
        assert code == 0
        assert out.splitlines()[0].startswith("1. doc17  distance=0.00")

    def test_malformed_lines_skipped_with_warning(self, home, tmp_path):
        catalog = tmp_path / "c.jsonl"
        rows = [json.dumps({"id": f"d{i}", "text": f"t{i}"}) for i in range(5)]
        rows[2] = '{"id": "broken"'   # torn json
        catalog.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(["ingest", "--catalog", str(catalog),
                                  "--index", str(tmp_path / "idx")], home)
        assert code == 0
        assert "ingested 4 documents" in out
        assert "warning: line 3" in err

    def test_a_line_that_is_not_utf8_is_skipped_with_warning(self, home,
                                                             tmp_path):
        catalog = tmp_path / "c.jsonl"
        rows = [json.dumps({"id": f"d{i}", "text": f"t{i}"}).encode()
                for i in range(3)]
        rows[1] = b'{"id": "d1", "text": "t\xff"}'
        catalog.write_bytes(b"\n".join(rows) + b"\n")
        code, out, err = run_cli(["ingest", "--catalog", str(catalog),
                                  "--index", str(tmp_path / "idx")], home)
        assert code == 0, err
        assert "ingested 2 documents" in out
        assert re.search(r"warning: line 2: .*utf-8.*; skipped", err)
        assert "Traceback" not in err
        index = load_index(tmp_path / "idx" / "index.snap")
        assert len(index) == 2 and index.get("d1") is None

    def test_empty_catalog_is_a_data_error(self, home, tmp_path):
        catalog = tmp_path / "empty.jsonl"
        catalog.write_text("")
        code, _, err = run_cli(["ingest", "--catalog", str(catalog),
                                "--index", str(tmp_path / "idx")], home)
        assert code == 2
        assert "no valid records" in err

    def test_a_bad_config_dim_is_a_data_error(self, home, tmp_path,
                                              monkeypatch, capsys):
        home.mkdir(parents=True)
        (home / "config").write_text("dim = 0\n")
        monkeypatch.setenv("CONTEXTDB_HOME", str(home))
        assert main(["ingest", "--catalog", str(tmp_path / "c.jsonl"),
                     "--index", str(tmp_path / "idx")]) == 2
        assert capsys.readouterr().err.startswith("error: config dim = ")

    def test_missing_catalog_is_a_data_error(self, home, tmp_path):
        code, _, _ = run_cli(["ingest", "--catalog",
                              str(tmp_path / "nope.jsonl"),
                              "--index", str(tmp_path / "idx")], home)
        assert code == 2

    def test_query_without_index_is_a_data_error(self, home, tmp_path):
        code, _, err = run_cli(["query", "--index", str(tmp_path / "missing"),
                                "--q", "x"], home)
        assert code == 2
        assert "run `ingest` first" in err

    def _ingested(self, home, tmp_path):
        catalog = tmp_path / "shoes.jsonl"
        write_catalog(catalog, SHOES_JSONL)
        code, _, _ = run_cli(["ingest", "--catalog", str(catalog), "--index",
                              str(tmp_path / "idx"), "--embedder",
                              "fixture"], home)
        assert code == 0
        return tmp_path / "idx"

    def _query(self, home, index_dir):
        return run_cli(["query", "--index", str(index_dir), "--q",
                        "I need comfortable running shoes under $100"], home)

    def test_snapshot_payload_without_docs_is_a_data_error(self, home,
                                                           tmp_path):
        index_dir = self._ingested(home, tmp_path)
        rewrite_payload(index_dir / "index.snap", lambda p: p.pop("docs"))
        code, _, err = self._query(home, index_dir)
        assert code == 2, err
        assert "malformed flat payload" in err and "Traceback" not in err

    @pytest.mark.parametrize("record", [
        "{not json", '{"dim": 2}', '["fixture"]',
        '{"embedder": "hash", "dim": "x"}'])
    def test_malformed_embedder_record_is_a_data_error(self, home, tmp_path,
                                                       record):
        index_dir = self._ingested(home, tmp_path)
        (index_dir / "embedder.json").write_text(record)
        code, _, err = self._query(home, index_dir)
        assert code == 2, err
        assert "malformed embedder record" in err and "Traceback" not in err

    def test_filter_parse_error_exits_1_with_column(self, home, tmp_path):
        catalog = tmp_path / "c.jsonl"
        write_catalog(catalog, SHOES_JSONL)
        run_cli(["ingest", "--catalog", str(catalog), "--index",
                 str(tmp_path / "idx"), "--embedder", "fixture"], home)
        code, _, err = run_cli(
            ["query", "--index", str(tmp_path / "idx"), "--q", "Reebok Floatride",
             "--filter", "price<<100"], home)
        assert code == 1
        assert "column 7" in err

    def test_filter_with_a_non_decimal_digit_exits_1(self, home, tmp_path):
        catalog = tmp_path / "c.jsonl"
        write_catalog(catalog, SHOES_JSONL)
        run_cli(["ingest", "--catalog", str(catalog), "--index",
                 str(tmp_path / "idx"), "--embedder", "fixture"], home)
        code, _, err = run_cli(
            ["query", "--index", str(tmp_path / "idx"), "--q", "Reebok",
             "--filter", "x=\u00b2"], home)
        assert code == 1, err
        assert "column 3" in err and "Traceback" not in err

    def test_query_determinism_excluding_latency(self, home, tmp_path):
        catalog = tmp_path / "c.jsonl"
        write_catalog(catalog, SHOES_JSONL)
        run_cli(["ingest", "--catalog", str(catalog), "--index",
                 str(tmp_path / "idx"), "--embedder", "fixture"], home)
        args = ["query", "--index", str(tmp_path / "idx"),
                "--q", "Reebok Floatride", "--k", "2"]
        _, first, _ = run_cli(args, home)
        _, second, _ = run_cli(args, home)
        assert first == second


class TestChat:
    def test_two_turns_persist_four_messages(self, home):
        q = "I need comfortable running shoes under $100"
        code, out, _ = run_cli(["chat", "--session", "s1", "--user", "u1"],
                               home, stdin=f"{q}\n{q}\n")
        assert code == 0
        assert "(cached)" in out          # second turn hit the cache
        assert out.count("[mock]") >= 1
        # two exchanges were persisted for the session... but the second was
        # cached, so exactly one exchange (2 messages) is on disk
        convs = log_records(home / "conversations.jsonl")
        assert len(convs) == 2

    def test_two_distinct_turns_persist_two_exchanges(self, home):
        stdin = ("I need comfortable running shoes under $100\n"
                 "Reebok Floatride\n")
        code, out, _ = run_cli(["chat", "--session", "s1", "--user", "u1"],
                               home, stdin=stdin)
        assert code == 0
        convs = log_records(home / "conversations.jsonl")
        assert len(convs) == 4
        seqs = [rec["seq"] for rec in convs]
        assert seqs == [0, 1, 2, 3]

    def test_verbose_prints_all_stage_latencies(self, home):
        q = "I need comfortable running shoes under $100"
        code, out, _ = run_cli(["chat", "--session", "s1", "--user", "u1",
                                "--verbose"], home, stdin=f"{q}\n")
        assert code == 0
        stages = re.findall(r"latency (\w+)=", out)
        assert stages == ["cache", "history", "situation", "embed", "search",
                          "llm", "persist"]
        assert "retrieved: reebok-floatride" in out

    def test_unembeddable_question_reports_error_and_continues(self, home):
        stdin = ("what is the weather\n"
                 "I need comfortable running shoes under $100\n")
        code, out, err = run_cli(["chat", "--session", "s1", "--user", "u1"],
                                 home, stdin=stdin)
        assert code == 0
        assert "error:" in err and "embed" in err
        assert "[mock]" in out  # the loop survived and served the next turn

    def test_chat_respects_config_defaults(self, home):
        home.mkdir(parents=True)
        (home / "config").write_text('k = 1\nfilter = "price<100"\n')
        q = "I need comfortable running shoes under $100"
        code, out, _ = run_cli(["chat", "--session", "s", "--user", "u",
                                "--verbose"], home, stdin=f"{q}\n")
        assert code == 0
        assert "retrieved: reebok-floatride" in out.splitlines()[-1]

    @pytest.mark.parametrize("line", [
        "k = abc", "history_window = 0", "cache_capacity = 0",
        "cache_ttl_ms = -5"])
    def test_a_bad_config_value_is_a_data_error(self, home, line):
        home.mkdir(parents=True)
        (home / "config").write_text(line + "\n")
        code, out, err = run_cli(["chat", "--session", "s", "--user", "u"],
                                 home, stdin="hello\n")
        assert code == 2
        assert err.startswith(f"error: config {line.split()[0]} = ")
        assert "Traceback" not in err
        assert not (home / "conversations.jsonl").exists()

    def test_a_config_that_is_not_utf8_is_a_data_error(self, home):
        home.mkdir(parents=True)
        (home / "config").write_bytes(b"k = 1\n# caf\xe9\n")
        code, out, err = run_cli(["chat", "--session", "s", "--user", "u"],
                                 home, stdin="hello\n")
        assert code == 2 and out == ""
        assert err.startswith(f"error: config {home / 'config'}: ")
        assert "Traceback" not in err
        assert not (home / "conversations.jsonl").exists()

    def test_a_question_that_is_not_utf8_is_an_error_and_the_loop_goes_on(
            self, home):
        stdin = b"caf\xe9\n" + DEMO_Q.encode() + b"\n"
        code, out, err = run_cli(["chat", "--session", "s1", "--user", "u1"],
                                 home, stdin=stdin)
        assert code == 0, err
        assert err.startswith(b"error: ") and b"utf-8" in err
        assert b"Traceback" not in err
        assert b"[mock]" in out  # the next line was served
        convs = log_records(home / "conversations.jsonl")
        texts = [rec["text"] for rec in convs]
        assert len(texts) == 2 and texts[0] == DEMO_Q  # one exchange

    def test_a_second_chat_on_a_held_log_exits_2(self, home):
        q = "I need comfortable running shoes under $100"
        args = ["chat", "--session", "s", "--user", "u"]
        assert run_cli(args, home, stdin=f"{q}\n")[0] == 0
        with ConversationStore(home / "conversations.jsonl") as held:
            code, out, err = run_cli(args, home, stdin="Reebok Floatride\n")
            assert code == 2
            assert "another writer" in err and out == ""
            held.append_message("s", "user", "still mine")
        with ConversationStore(home / "conversations.jsonl") as reopened:
            assert reopened.count("s") == 3

    @pytest.mark.parametrize("log,key,record", [
        ("conversations.jsonl", "session_id",
         {"seq": 0, "role": "user", "text": "a", "timestamp": 0,
          "metadata": {}}),
        ("profiles.jsonl", "user_id", {"fields": {}, "updated_at": 0})])
    def test_a_bad_log_record_is_a_data_error(self, home, log, key, record):
        # line 1's id is a list, which the replay cannot use as a key
        home.mkdir(parents=True)
        (home / log).write_text(json.dumps({key: ["a"], **record}) + "\n"
                                + json.dumps({key: "b", **record}) + "\n")
        code, out, err = run_cli(["chat", "--session", "s", "--user", "u"],
                                 home, stdin="hello\n")
        assert code == 2 and out == ""
        assert f"{log}:1: corrupt record" in err and "Traceback" not in err

    def test_a_held_profile_log_closes_the_conversation_log(
            self, home, monkeypatch, capsys):
        home.mkdir(parents=True)
        monkeypatch.setenv("CONTEXTDB_HOME", str(home))
        with ProfileStore(home / "profiles.jsonl"):
            assert main(["chat", "--session", "s", "--user", "u"]) == 2
        assert "another writer" in capsys.readouterr().err
        # chat closed it, so it is free again
        ConversationStore(home / "conversations.jsonl").close()


class TestBench:
    def test_flat_recall_is_exactly_one(self, home):
        code, out, _ = run_cli(["bench", "--n", "300", "--dim", "16",
                                "--k", "10", "--kind", "flat", "--seed", "1"],
                               home)
        assert code == 0
        assert "kind=flat n=300 dim=16 k=10 seed=1" in out
        assert "recall@10=1.0000" in out
        assert re.search(r"latency_p50_ms=\d+\.\d{3}", out)
        assert re.search(r"latency_p95_ms=\d+\.\d{3}", out)

    def test_reports_the_flat_oracle_latency_beside_the_kind(self, home):
        code, out, _ = run_cli(["bench", "--n", "300", "--dim", "16",
                                "--k", "10", "--kind", "hnsw"], home)
        assert code == 0
        for name in ("latency", "flat_latency"):
            for pct in ("p50", "p95"):
                assert re.search(rf"^{name}_{pct}_ms=\d+\.\d{{3}}$", out,
                                 re.MULTILINE)

    def test_ivf_full_probe_recall_one(self, home):
        code, out, _ = run_cli(["bench", "--n", "400", "--dim", "8", "--k", "5",
                                "--kind", "ivf", "--nlist", "10",
                                "--nprobe", "10"], home)
        assert code == 0
        assert "recall@5=1.0000" in out

    def test_hnsw_bench_runs_and_reports(self, home):
        code, out, _ = run_cli(["bench", "--n", "500", "--dim", "16",
                                "--k", "10", "--kind", "hnsw"], home)
        assert code == 0
        match = re.search(r"recall@10=(\d\.\d+)", out)
        assert match and float(match.group(1)) >= 0.95

    def test_deterministic_recall_for_fixed_seed(self, home):
        args = ["bench", "--n", "300", "--dim", "12", "--k", "5",
                "--kind", "hnsw", "--seed", "9"]
        _, first, _ = run_cli(args, home)
        _, second, _ = run_cli(args, home)
        pick = lambda s: [l for l in s.splitlines() if "latency" not in l]
        assert pick(first) == pick(second)

    def test_reports_the_scans_work_counts(self, home):
        code, out, _ = run_cli(["bench", "--n", "2000", "--dim", "16",
                                "--k", "10", "--kind", "flat"], home)
        assert code == 0
        match = re.search(r"^rerank_per_query=(\d+\.\d{2})$", out,
                          re.MULTILINE)
        assert match and 10.0 <= float(match.group(1)) <= 20.0
        assert re.search(r"^screen_fallbacks=0$", out, re.MULTILINE)

    def test_small_n_is_usage_error(self, home):
        code, _, err = run_cli(["bench", "--n", "50", "--dim", "8", "--k", "5",
                                "--kind", "flat"], home)
        assert code == 1
        assert "--n must be >= 100" in err


class TestIntegerFlags:
    """An integer flag below its bound is a usage error: the usage and a
    message naming the flag on stderr, exit 1, before the command runs."""

    @staticmethod
    def assert_usage_error(code, out, err, message):
        assert code == 1, err
        assert err.startswith("usage: contextdb ") and "Traceback" not in err
        assert f"error: {message}" in err
        assert out == ""

    def test_ingest_dim_0(self, home, tmp_path):
        catalog = tmp_path / "shoes.jsonl"
        write_catalog(catalog, SHOES_JSONL)
        self.assert_usage_error(*run_cli(
            ["ingest", "--catalog", str(catalog), "--index",
             str(tmp_path / "idx"), "--dim", "0"], home), "--dim must be >= 1")
        assert not (tmp_path / "idx").exists()

    def test_query_k_0(self, home, tmp_path):
        catalog = tmp_path / "shoes.jsonl"
        write_catalog(catalog, SHOES_JSONL)
        index = str(tmp_path / "idx")
        assert run_cli(["ingest", "--catalog", str(catalog), "--index", index,
                        "--embedder", "fixture"], home)[0] == 0
        self.assert_usage_error(*run_cli(
            ["query", "--index", index, "--q", DEMO_Q, "--k", "0"], home),
            "--k must be >= 1")

    @pytest.mark.parametrize("flag,value,message", [
        ("--k", "0", "--k must be >= 1"), ("--m", "1", "--m must be >= 2")])
    def test_bench_flag_below_its_bound(self, home, flag, value, message):
        args = {"--n": "300", "--dim": "8", "--k": "5", "--kind": "hnsw",
                flag: value}
        self.assert_usage_error(*run_cli(
            ["bench", *(a for kv in args.items() for a in kv)], home), message)

    def test_bench_seed_below_0(self, home):
        self.assert_usage_error(*run_cli(
            ["bench", "--n", "100", "--dim", "8", "--k", "5", "--kind", "flat",
             "--seed", "-1"], home), "--seed must be >= 0, got -1")

    def test_chat_k_0_fails_before_reading_stdin(self, home):
        self.assert_usage_error(*run_cli(
            ["chat", "--session", "s", "--user", "u", "--k", "0"], home,
            stdin=DEMO_Q + "\n"), "--k must be >= 1")
        assert not (home / "conversations.jsonl").exists()


class TestParsing:
    def test_no_command_is_usage_error(self, home):
        code, _, _ = run_cli([], home)
        assert code == 1

    def test_unknown_command_is_usage_error(self, home):
        code, _, _ = run_cli(["frobnicate"], home)
        assert code == 1

    def test_missing_required_flag_is_usage_error(self, home):
        code, _, _ = run_cli(["query", "--q", "x"], home)
        assert code == 1

    def test_main_is_callable_in_process(self, capsys):
        assert main(["demo-shoes"]) == 0
        assert "DEMO_OK" in capsys.readouterr().out


class TestConfig:
    def test_key_value_parsing(self, tmp_path):
        cfg = tmp_path / "config"
        cfg.write_text(
            "# comment\n"
            "\n"
            "k = 7\n"
            'filter = "price<100"\n'
            "plain=value\n"
            "broken line without equals\n")
        parsed = load_config(cfg)
        assert parsed == {"k": "7", "filter": "price<100", "plain": "value"}

    def test_missing_file_is_empty(self, tmp_path):
        assert load_config(tmp_path / "absent") == {}
