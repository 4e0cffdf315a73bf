"""The 8-step query workflow tying the three context tiers together.

Order on a cache miss: cache check, conversation history, user profile,
question embedding, vector search, prompt render + LLM call, persistence
(conversation append, then cache fill), response. A cache hit skips straight
to the answer. A cached answer is served only while its context stands:
the cache key holds the index's version and the user's profile updated_at,
so a mutation of either makes the repeat a miss. Every stage is timed, and
a failure anywhere surfaces as a StageError naming the stage. The exchange
is appended only after the LLM succeeds and the response is cached only
after the append succeeds, so a failed call leaves both stores untouched.
"""

from __future__ import annotations

import re
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .cache import ResponseCache, make_cache_key
from .conversation import ConversationStore, Message
from .core import Document, EmbeddingProvider, MetaValue, count, fmt_meta
from .errors import StageError, StorageError, TemplateError
from .filters import FilterExpr
from .index.base import SearchHit, VectorIndex
from .profiles import Profile, ProfileStore

PLACEHOLDERS = ("question", "history", "situation", "retrieved")
STAGES = ("cache", "history", "situation", "embed", "search", "llm", "persist")

_MARKER = re.compile(r"\{([a-z_]+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    """Template body with each of {question} {history} {situation} {retrieved}
    exactly once; anything else brace-shaped is rejected up front so rendering
    can never leave a marker behind."""

    name: str
    body: str

    def __post_init__(self):
        found = _MARKER.findall(self.body)
        for ph in PLACEHOLDERS:
            n = found.count(ph)
            if n != 1:
                raise TemplateError(
                    f"template {self.name!r} must contain {{{ph}}} exactly "
                    f"once, found {n}")
        unknown = sorted(set(found) - set(PLACEHOLDERS))
        if unknown:
            raise TemplateError(
                f"template {self.name!r} has unknown placeholders: {unknown}")

    @classmethod
    def load(cls, directory: str | Path, name: str) -> "PromptTemplate":
        path = Path(directory) / f"{name}.txt"
        try:
            body = path.read_text("utf-8")
        except OSError as exc:
            raise StorageError(f"cannot read template {path}: {exc}") from exc
        return cls(name=name, body=body)

    def render(self, *, question: str, history: str, situation: str,
               retrieved: str) -> str:
        values = {"question": question, "history": history,
                  "situation": situation, "retrieved": retrieved}
        # single pass: interpolated text can never be re-substituted
        return _MARKER.sub(lambda m: values[m.group(1)], self.body)


DEFAULT_TEMPLATE = PromptTemplate(
    name="default",
    body=(
        "You are a helpful assistant for a product catalog.\n"
        "\n"
        "Conversation so far:\n"
        "{history}\n"
        "\n"
        "What we know about this user:\n"
        "{situation}\n"
        "\n"
        "Relevant catalog items:\n"
        "{retrieved}\n"
        "\n"
        "Question: {question}\n"
        "Answer:"
    ),
)


@dataclass(frozen=True)
class PromptSources:
    """What went into the prompt: history size, situational field names, and
    retrieved (doc_id, distance) in rank order."""

    history_count: int
    situation_fields: tuple[str, ...]
    retrieved: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class EngineeredPrompt:
    rendered: str
    question: str
    sources: PromptSources


def assemble_prompt(template: PromptTemplate, question: str,
                    history: Sequence[Message], profile: Profile | None,
                    hits: Sequence[tuple[SearchHit, Document]],
                    ) -> EngineeredPrompt:
    """Render the three context blocks plus the verbatim question.

    history: "role: text" lines in seq order. situation: "field=value" lines
    sorted by field, or the literal "none" when there is no profile.
    retrieved: "doc_id (distance=D): text" per hit in rank order, D to two
    decimals.
    """
    history_block = "\n".join(f"{m.role}: {m.text}" for m in history)
    if profile is None:
        situation_block = "none"
        situation_fields: tuple[str, ...] = ()
    else:
        names = sorted(profile.fields)
        situation_block = "\n".join(
            f"{n}={fmt_meta(profile.fields[n])}" for n in names)
        situation_fields = tuple(names)
    retrieved_block = "\n".join(
        f"{hit.doc_id} (distance={hit.distance:.2f}): {doc.text}"
        for hit, doc in hits)
    rendered = template.render(question=question, history=history_block,
                               situation=situation_block,
                               retrieved=retrieved_block)
    sources = PromptSources(
        history_count=len(history),
        situation_fields=situation_fields,
        retrieved=tuple((hit.doc_id, hit.distance) for hit, _ in hits))
    return EngineeredPrompt(rendered=rendered, question=question,
                            sources=sources)


class LlmClient(ABC):
    @abstractmethod
    def complete(self, prompt: EngineeredPrompt) -> str: ...


class MockLlm(LlmClient):
    """Deterministic stand-in: echoes the question and the retrieved doc ids
    in rank order. Set .fail to force the next call to raise."""

    def __init__(self, fail: bool = False):
        self.fail = fail
        self.calls = 0

    def complete(self, prompt: EngineeredPrompt) -> str:
        self.calls += 1
        if self.fail:
            raise RuntimeError("mock llm failure (forced)")
        ids = [doc_id for doc_id, _ in prompt.sources.retrieved]
        return (f"[mock] q: {prompt.question} | "
                f"docs: {', '.join(ids) if ids else 'none'}")


@dataclass(frozen=True)
class PipelineResponse:
    text: str
    cached: bool
    retrieved: tuple[SearchHit, ...]
    latency_breakdown: Mapping[str, float] = field(default_factory=dict)


class Pipeline:
    """Orchestrator over one index, one conversation store, one profile
    store, an embedder, an LLM client, and a response cache."""

    def __init__(self, *, index: VectorIndex, conversations: ConversationStore,
                 profiles: ProfileStore, embedder: EmbeddingProvider,
                 llm: LlmClient, cache: ResponseCache | None = None,
                 template: PromptTemplate | None = None,
                 history_window: int = 10,
                 clock: Callable[[], float] = time.time):
        self.index = index
        self.conversations = conversations
        self.profiles = profiles
        self.embedder = embedder
        self.llm = llm
        self.cache = cache if cache is not None else ResponseCache()
        self.template = template if template is not None else DEFAULT_TEMPLATE
        self.history_window = count("history_window", history_window)
        self._clock = clock

    def _now_ms(self) -> int:
        return int(self._clock() * 1000)

    def handle_query(self, session_id: str, user_id: str, question: str,
                     k: int = 4,
                     filt: FilterExpr | None = None) -> PipelineResponse:
        timings: dict[str, float] = {}

        def run(stage, fn):
            t0 = time.perf_counter()
            try:
                return fn()
            except Exception as exc:
                raise StageError(stage, exc) from exc
            finally:
                timings[stage] = (time.perf_counter() - t0) * 1000.0

        def cache_step():
            # the context's versions, read before the search: a mutation
            # after this read can only cause a miss, never a stale hit
            profile = self.profiles.get_profile(user_id)
            key = (make_cache_key(user_id, question, filt), self.index.version,
                   None if profile is None else profile.updated_at)
            return key, self.cache.get(key, self._now_ms())

        key, hit_text = run("cache", cache_step)
        if hit_text is not None:
            return PipelineResponse(text=hit_text, cached=True, retrieved=(),
                                    latency_breakdown=dict(timings))

        history = run("history", lambda: self.conversations.get_history(
            session_id, self.history_window))
        profile = run("situation",
                      lambda: self.profiles.get_profile(user_id))
        qvec = run("embed", lambda: self.embedder.embed(question))
        if filt:
            hits = run("search",
                       lambda: self.index.search_filtered(qvec, k, filt))
        else:
            hits = run("search", lambda: self.index.search(qvec, k))
        pairs = [(h, self.index.get(h.doc_id)) for h in hits]

        def llm_step():
            prompt = assemble_prompt(self.template, question, history,
                                     profile, pairs)
            return self.llm.complete(prompt)

        text = self._post_process(run("llm", llm_step), hits)

        def persist_step():
            meta = {"user_id": user_id,
                    "retrieved_ids": ",".join(h.doc_id for h in hits)}
            self.record_exchange(session_id, question, text, meta)
            # cached only now, after the exchange is durably down
            self.cache.put(key, text, self._now_ms())

        run("persist", persist_step)
        return PipelineResponse(text=text, cached=False,
                                retrieved=tuple(hits),
                                latency_breakdown=dict(timings))

    def record_exchange(self, session_id: str, question: str, answer: str,
                        meta: Mapping[str, MetaValue] | None = None,
                        ) -> tuple[Message, Message]:
        """Append the user question then the assistant answer, both or
        neither; meta lands on the assistant message."""
        with self.conversations.batch():
            user_msg = self.conversations.append_message(
                session_id, "user", question, {})
            assistant_msg = self.conversations.append_message(
                session_id, "assistant", answer, meta or {})
        return user_msg, assistant_msg

    @staticmethod
    def _post_process(raw: str, hits: Sequence[SearchHit]) -> str:
        text = raw.strip()
        if hits:
            text += "\n\nreferences: " + ", ".join(h.doc_id for h in hits)
        return text
