import pytest

from contextdb import (DEFAULT_TEMPLATE, STAGES, ConversationStore, Document,
                       FixtureEmbedder, FlatIndex, LlmClient, Message, MockLlm,
                       Pipeline, ProfileStore, PromptTemplate, ResponseCache,
                       SearchHit, StageError, StorageError, TemplateError,
                       Vector, assemble_prompt, parse_filter)
from contextdb.cli import DEMO_QUESTION, demo_index
from conftest import FailingFile


class RecordingLlm(LlmClient):
    """Wraps MockLlm and keeps every EngineeredPrompt it was handed."""

    def __init__(self):
        self.inner = MockLlm()
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return self.inner.complete(prompt)


@pytest.fixture
def make_pipeline(tmp_path):
    """Builds pipelines over the demo index and stores in tmp_path, and
    closes their stores when the test ends."""
    stores = []

    def make(llm=None, **kw):
        stores.append(ConversationStore(tmp_path / "conv.jsonl"))
        stores.append(ProfileStore(tmp_path / "prof.jsonl"))
        return Pipeline(index=demo_index(), conversations=stores[-2],
                        profiles=stores[-1], embedder=FixtureEmbedder(),
                        llm=llm if llm is not None else MockLlm(), **kw)

    yield make
    for store in stores:
        store.close()


def msg(seq, role, text):
    return Message(session_id="s", seq=seq, role=role, text=text,
                   timestamp=seq)


class TestPromptTemplate:
    def test_default_template_is_valid(self):
        assert DEFAULT_TEMPLATE.name == "default"

    @pytest.mark.parametrize("body", [
        "{question} {history} {situation}",              # missing one
        "{question} {history} {situation} {retrieved} {retrieved}",  # dup
        "{question} {history} {situation} {retrieved} {bogus}",      # unknown
    ])
    def test_bad_bodies_rejected_at_construction(self, body):
        with pytest.raises(TemplateError):
            PromptTemplate(name="t", body=body)

    def test_load_from_directory(self, tmp_path):
        (tmp_path / "mine.txt").write_text(
            "Q {question}\nH {history}\nS {situation}\nR {retrieved}")
        t = PromptTemplate.load(tmp_path, "mine")
        assert t.name == "mine"
        with pytest.raises(StorageError):
            PromptTemplate.load(tmp_path, "absent")

    def test_malformed_file_fails_at_load_not_render(self, tmp_path):
        (tmp_path / "broken.txt").write_text("only {question} here")
        with pytest.raises(TemplateError):
            PromptTemplate.load(tmp_path, "broken")

    def test_render_is_single_pass(self):
        t = PromptTemplate(name="t",
                           body="{question}|{history}|{situation}|{retrieved}")
        out = t.render(question="giving {history} literally", history="h",
                       situation="s", retrieved="r")
        # the interpolated marker-shaped text must NOT be re-substituted
        assert out == "giving {history} literally|h|s|r"


class TestAssemblePrompt:
    def _hits(self):
        index = demo_index()
        hits = index.search(Vector([3.0, 2.7]), 4)
        return [(h, index.get(h.doc_id)) for h in hits]

    def test_empty_context_rendering(self):
        ep = assemble_prompt(DEFAULT_TEMPLATE, "hi?", [], None, [])
        assert "none" in ep.rendered
        assert ep.sources.history_count == 0
        assert ep.sources.situation_fields == ()
        assert ep.sources.retrieved == ()
        assert "{" not in ep.rendered  # no residual markers

    def test_history_lines_role_prefixed_in_seq_order(self):
        history = [msg(0, "user", "first"), msg(1, "assistant", "second")]
        ep = assemble_prompt(DEFAULT_TEMPLATE, "q", history, None, [])
        assert "user: first\nassistant: second" in ep.rendered
        assert ep.sources.history_count == 2

    def test_situation_lines_sorted_by_field(self, tmp_path):
        with ProfileStore(tmp_path / "p.jsonl") as store:
            profile = store.put_profile(
                "u", {"zeta": 1, "alpha": "x", "flag": True})
        ep = assemble_prompt(DEFAULT_TEMPLATE, "q", [], profile, [])
        assert "alpha=x\nflag=true\nzeta=1" in ep.rendered
        assert ep.sources.situation_fields == ("alpha", "flag", "zeta")

    def test_retrieved_lines_rank_order_two_decimals(self):
        ep = assemble_prompt(DEFAULT_TEMPLATE, DEMO_QUESTION, [], None,
                             self._hits())
        assert "reebok-floatride (distance=0.22): Reebok Floatride" in ep.rendered
        assert "asics-gel-kayano (distance=0.58): ASICS Gel-Kayano" in ep.rendered
        lines = [l for l in ep.rendered.splitlines() if "(distance=" in l]
        assert [l.split()[0] for l in lines] == [
            "reebok-floatride", "asics-gel-kayano", "adidas-ultraboost",
            "nike-zoomx"]

    def test_question_verbatim(self):
        ep = assemble_prompt(DEFAULT_TEMPLATE, "  Weird   spacing?  ", [], None, [])
        assert "  Weird   spacing?  " in ep.rendered
        assert ep.question == "  Weird   spacing?  "

    def test_sources_bookkeeping_matches_inputs(self, rng):
        for trial in range(10):
            n = int(rng.integers(0, 5))
            hits = [(SearchHit(doc_id=f"doc{j}", distance=float(j) / 7, rank=j + 1),
                     Document(id=f"doc{j}", text=f"t{j}", metadata={},
                              embedding=Vector([1.0])))
                    for j in range(n)]
            ep = assemble_prompt(DEFAULT_TEMPLATE, "q", [], None, hits)
            assert len(ep.sources.retrieved) == n
            assert [d for d, _ in ep.sources.retrieved] == [f"doc{j}" for j in range(n)]


class TestHandleQuery:
    def test_demo_flow_top_hit_and_digest(self, make_pipeline):
        pipe = make_pipeline()
        resp = pipe.handle_query("s1", "u1", DEMO_QUESTION, k=1,
                                 filt=parse_filter("price<100"))
        assert not resp.cached
        assert "reebok-floatride" in resp.text
        assert resp.retrieved[0].doc_id == "reebok-floatride"
        assert resp.retrieved[0].distance == pytest.approx(0.22, abs=0.005)

    def test_miss_timing_covers_exactly_the_seven_stages(self, make_pipeline):
        pipe = make_pipeline()
        resp = pipe.handle_query("s1", "u1", DEMO_QUESTION)
        assert tuple(resp.latency_breakdown) == STAGES
        assert all(ms >= 0.0 for ms in resp.latency_breakdown.values())

    def test_identical_repeat_is_cached(self, make_pipeline):
        pipe = make_pipeline()
        first = pipe.handle_query("s1", "u1", DEMO_QUESTION)
        second = pipe.handle_query("s1", "u1", DEMO_QUESTION)
        assert second.cached and not first.cached
        assert second.text == first.text
        assert second.retrieved == ()
        assert set(second.latency_breakdown) == {"cache"}
        # only one exchange was persisted
        assert pipe.conversations.count("s1") == 2

    def test_cache_key_is_canonicalized_and_per_user(self, make_pipeline):
        pipe = make_pipeline()
        pipe.handle_query("s1", "u1", DEMO_QUESTION)
        same = pipe.handle_query("s1", "u1",
                                 "  i NEED comfortable running shoes under $100 ")
        assert same.cached
        # embedding would fail for unknown text, so the hit must short-circuit
        other_user = pipe.handle_query("s1", "u2", DEMO_QUESTION)
        assert not other_user.cached

    def test_cache_key_includes_the_filter(self, make_pipeline):
        pipe = make_pipeline()
        cheap = pipe.handle_query("s1", "u1", DEMO_QUESTION,
                                  filt=parse_filter("price<100"))
        dear = pipe.handle_query("s1", "u1", DEMO_QUESTION,
                                 filt=parse_filter("price>=100"))
        assert not dear.cached
        refs = dear.text.rsplit("references: ", 1)[1].split(", ")
        assert refs == ["asics-gel-kayano", "adidas-ultraboost", "nike-zoomx"]
        assert all(pipe.index.get(r).metadata["price"] >= 100 for r in refs)
        # a repeat hits under the same filter, however it is spaced
        assert pipe.handle_query("s1", "u1", DEMO_QUESTION,
                                 filt=parse_filter(" price >= 100")).cached
        again = pipe.handle_query("s1", "u1", DEMO_QUESTION,
                                  filt=parse_filter("price<100"))
        assert again.cached and again.text == cheap.text
        assert not pipe.handle_query("s1", "u1", DEMO_QUESTION).cached

    def test_history_flows_into_prompt(self, make_pipeline):
        llm = RecordingLlm()
        pipe = make_pipeline(llm=llm)
        pipe.record_exchange("s1", "do you stock running shoes?",
                             "we stock several models")
        pipe.handle_query("s1", "u1", DEMO_QUESTION)
        rendered = llm.prompts[-1].rendered
        assert "user: do you stock running shoes?" in rendered
        assert "assistant: we stock several models" in rendered
        assert llm.prompts[-1].sources.history_count == 2

    def test_third_call_sees_history_count_four(self, make_pipeline):
        llm = RecordingLlm()
        pipe = make_pipeline(llm=llm)
        pipe.handle_query("s1", "u1", DEMO_QUESTION)
        pipe.cache.clear()
        pipe.handle_query("s1", "u1", DEMO_QUESTION)
        pipe.cache.clear()
        pipe.handle_query("s1", "u1", DEMO_QUESTION)
        assert llm.prompts[-1].sources.history_count == 4

    def test_history_window_bounds_the_fetch(self, make_pipeline):
        llm = RecordingLlm()
        pipe = make_pipeline(llm=llm, history_window=3)
        for i in range(5):
            pipe.record_exchange("s1", f"q{i}", f"a{i}")
        pipe.handle_query("s1", "u1", DEMO_QUESTION)
        assert llm.prompts[-1].sources.history_count == 3

    def test_profile_flows_into_prompt(self, make_pipeline):
        llm = RecordingLlm()
        pipe = make_pipeline(llm=llm)
        pipe.profiles.put_profile("u1", {"preferred_brand": "Reebok",
                                         "budget": 100})
        pipe.handle_query("s1", "u1", DEMO_QUESTION)
        assert "preferred_brand=Reebok" in llm.prompts[-1].rendered
        assert "budget=100" in llm.prompts[-1].rendered
        assert llm.prompts[-1].sources.situation_fields == ("budget",
                                                            "preferred_brand")

    def test_same_question_two_sessions_same_retrieval_different_prompts(
            self, make_pipeline):
        llm = RecordingLlm()
        pipe = make_pipeline(llm=llm)
        pipe.record_exchange("long", "earlier question", "earlier answer")
        a = pipe.handle_query("long", "u1", DEMO_QUESTION)
        b = pipe.handle_query("fresh", "u2", DEMO_QUESTION)
        assert [h.doc_id for h in a.retrieved] == [h.doc_id for h in b.retrieved]
        assert llm.prompts[0].rendered != llm.prompts[1].rendered

    def test_persists_user_then_assistant_with_meta(self, make_pipeline):
        pipe = make_pipeline()
        resp = pipe.handle_query("s1", "u1", DEMO_QUESTION, k=2)
        history = pipe.conversations.get_history("s1", 10)
        assert [(m.seq, m.role) for m in history] == [(0, "user"),
                                                      (1, "assistant")]
        assert history[0].text == DEMO_QUESTION
        assert history[1].text == resp.text
        assert history[1].metadata["user_id"] == "u1"
        assert history[1].metadata["retrieved_ids"] == \
            "reebok-floatride,asics-gel-kayano"

    def test_references_footer_lists_retrieved_ids(self, make_pipeline):
        pipe = make_pipeline()
        resp = pipe.handle_query("s1", "u1", DEMO_QUESTION, k=2)
        assert resp.text.endswith(
            "references: reebok-floatride, asics-gel-kayano")

    def test_llm_failure_names_stage_and_leaves_stores_untouched(
            self, make_pipeline):
        llm = MockLlm(fail=True)
        pipe = make_pipeline(llm=llm)
        with pytest.raises(StageError) as exc_info:
            pipe.handle_query("s1", "u1", DEMO_QUESTION)
        assert exc_info.value.stage == "llm"
        assert pipe.conversations.count("s1") == 0
        assert len(pipe.cache) == 0
        # recovery: clear the fault and the same call succeeds
        llm.fail = False
        assert not pipe.handle_query("s1", "u1", DEMO_QUESTION).cached

    def test_failed_answer_append_persists_neither_message(
            self, make_pipeline, tmp_path):
        pipe = make_pipeline()
        log = pipe.conversations._log
        log._fh = FailingFile(log._fh, b'"role":"assistant"')
        with pytest.raises(StageError) as exc_info:
            pipe.handle_query("s1", "u1", DEMO_QUESTION)
        assert exc_info.value.stage == "persist"
        assert pipe.conversations.count("s1") == 0
        assert len(pipe.cache) == 0
        with ConversationStore(tmp_path / "conv.jsonl") as reopened:
            assert reopened.count("s1") == 0
        # the fault was one-off: the same turn now goes through whole
        assert not pipe.handle_query("s1", "u1", DEMO_QUESTION).cached
        assert pipe.conversations.count("s1") == 2

    def test_embed_failure_names_stage(self, make_pipeline):
        pipe = make_pipeline()
        with pytest.raises(StageError) as exc_info:
            pipe.handle_query("s1", "u1", "unknown text for the fixture")
        assert exc_info.value.stage == "embed"
        assert pipe.conversations.count("s1") == 0

    def test_search_failure_names_stage(self, tmp_path):
        with ConversationStore(tmp_path / "c.jsonl") as conversations, \
                ProfileStore(tmp_path / "p.jsonl") as profiles:
            pipe = Pipeline(index=FlatIndex(), conversations=conversations,
                            profiles=profiles, embedder=FixtureEmbedder(),
                            llm=MockLlm())
            with pytest.raises(StageError) as exc_info:
                pipe.handle_query("s1", "u1", DEMO_QUESTION)
        assert exc_info.value.stage == "search"  # empty index

    def test_cached_hit_skips_llm_entirely(self, make_pipeline):
        llm = RecordingLlm()
        pipe = make_pipeline(llm=llm)
        pipe.handle_query("s1", "u1", DEMO_QUESTION)
        pipe.handle_query("s1", "u1", DEMO_QUESTION)
        assert llm.inner.calls == 1

    def test_custom_cache_and_ttl_injected_clock(self, make_pipeline):
        clock = [1000.0]
        pipe = make_pipeline(cache=ResponseCache(default_ttl_ms=500),
                             clock=lambda: clock[0])
        pipe.handle_query("s1", "u1", DEMO_QUESTION)
        clock[0] += 0.4
        assert pipe.handle_query("s1", "u1", DEMO_QUESTION).cached
        clock[0] += 0.2  # past the 500 ms ttl now
        assert not pipe.handle_query("s1", "u1", DEMO_QUESTION).cached


class TestRecordExchange:
    def test_fresh_session_seqs(self, make_pipeline):
        pipe = make_pipeline()
        user_msg, assistant_msg = pipe.record_exchange("s", "q?", "a.",
                                                       {"tag": "x"})
        assert (user_msg.seq, assistant_msg.seq) == (0, 1)
        assert (user_msg.role, assistant_msg.role) == ("user", "assistant")
        assert dict(user_msg.metadata) == {}
        assert assistant_msg.metadata["tag"] == "x"

    def test_three_exchanges_alternate_roles(self, make_pipeline):
        pipe = make_pipeline()
        for i in range(3):
            pipe.record_exchange("s", f"q{i}", f"a{i}")
        history = pipe.conversations.get_history("s", 10)
        assert [m.role for m in history] == ["user", "assistant"] * 3
        assert [m.text for m in history] == ["q0", "a0", "q1", "a1", "q2", "a2"]

    def test_validation_of_history_window(self, make_pipeline):
        with pytest.raises(ValueError):
            make_pipeline(history_window=0)
