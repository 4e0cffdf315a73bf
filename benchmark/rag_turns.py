"""rag_turns: chat turns through the whole pipeline.

Unit op: one `Pipeline.handle_query` with k = 4 (a filtered turn first
parses its filter text). Closed loop, one client thread. At pauses spread
over the timed loop, a shadow copy of the set-up is built and its data
directory (prior history, profiles, index snapshot) reopened, and a
throwaway FlatIndex is filled from the live documents: these give setup_s,
insert_per_s and restart_s (harness.SetupSamples).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np

from contextdb import (STAGES, ConversationStore, Document, FlatIndex,
                       HashEmbedder, MockLlm, Pipeline, ProfileStore,
                       ResponseCache, StageError, parse_filter)

from harness import (CONVERSATIONS, PROFILES, SNAPSHOT, RunContext,
                     SetupSamples, Timed, VirtualClock, clock, close_stores,
                     disk_metrics, fresh_dir, json_bytes, reopen, timing,
                     traced_metrics)
from inputs import (CATS, CLASSES, DIM, DocTable, draw_filter, filter_text,
                    profile_fields, random_metadata, recall, zipf_weights)

SPEC = {
    "name": "rag_turns",
    "unit_op": "one Pipeline.handle_query, k=4, over a FlatIndex of 10k "
               "HashEmbedder-embedded documents",
    "why": "The latency a chat user feels; it runs every pipeline stage. "
           "The flat scan is most of an unfiltered miss, per-document "
           "Python filter evaluation is nearly all of a filtered miss, and a "
           "full cache with nothing expired makes every put scan all "
           "entries. hnsw, ivf and snapshots do no work in the timed loop.",
    "load": "closed loop, 1 client thread, 1 process; virtual clock",
    "data": "10k docs (dim 64, price/cat/in_stock), 1k profiles, 200 "
            "sessions with 5 prior exchanges each, 4096 distinct questions "
            "(more than the 1024-entry cache) asked Zipf(1.1); each "
            "question's usual filter follows its popularity rank (about 29 "
            "% of turns filtered); 10 % of asks come with a freshly drawn "
            "filter, so some repeats carry a new one",
    "checks": "references equal the filter-then-exact oracle; a miss logs "
              "two messages and a hit none; a forced LLM failure raises "
              "StageError('llm'), logs nothing and leaves no cache entry "
              "(its retry must miss). A hit whose answer was made for "
              "another filter is a stale hit: a known defect (the cache key "
              "ignores the filter), counted as a failed op but not as an "
              "unexpected one. recall counts stale hits against the turn's "
              "own filter.",
    "moves": {
        "pipeline": ["p50_ms", "p99_ms", "ops_per_s"],
        "cache": ["p50_ms", "ops_per_s", "error_rate (stale hits)"],
        "core": ["pipeline.embed_ms", "insert_per_s", "setup_s"],
        "filters": ["filtered_p50_ms", "p99_ms"],
        "index.flat": ["p50_ms (unfiltered)", "p99_ms", "filtered_p50_ms",
                       "insert_per_s", "setup_s"],
        "conversation": ["pipeline.persist_ms", "restart_s"],
        "profiles": ["negligible"],
        "index.snapshot": ["restart_s", "disk_bytes_per_user_byte "
                           "(post-run save only)"],
    },
    "no_change_expected": ["index.hnsw", "index.ivf"],
    "probe_figures": "single exploratory runs, not of this benchmark, "
                     "on a 2-vCPU machine: "
                     "unfiltered miss 1.44 ms of which flat scan 1.25 ms; "
                     "filtered miss 25-37 ms; cache put on a full cache "
                     "with nothing expired 179 us against 2.4 us",
}


HOME_FILTERS = (None, "s50", None, None, "s5", None, None, "s05", None, None)
K = 4
QUESTION_ZIPF = 1.1
SESSION_ZIPF = 0.8
P_REPEAT_OWN = 0.3   # re-ask one of the session's own questions
P_FILTERED = 0.3     # share of freshly drawn filters that are not None
# Virtual seconds between turns: a busy period with short gaps (the cache
# fills with live entries, so LRU evictions of live entries happen), then a
# quiet one with long gaps (entries outlive the 300 s TTL, so expiries
# happen).
BUSY_SHARE = 0.8
BUSY_GAP_S = 0.05
QUIET_GAP_S = 1.0


@dataclass
class Config:
    """The sizes and rates the smoke tests shrink."""

    docs: int = 10_000
    profiles: int = 1_000
    sessions: int = 200
    prior_exchanges: int = 5
    questions: int = 4096
    p_switch: float = 0.1       # ask with a freshly drawn filter instead
    p_fail: float = 0.01        # force MockLlm.fail on the turn
    turns_per_second: float = 170.0
    setups: int = 7             # set-ups per run, the live one included
    reopens: int = 10           # timed reopens per run
    inserts: int = 40           # further timed index builds per run


def generate(cfg: Config, seed: int, n_turns: int) -> dict:
    rng = np.random.default_rng(seed)
    price, cat, stock = random_metadata(rng, cfg.docs)
    texts = [f"catalog {seed} item {i}: {CATS[cat[i]]} goods"
             for i in range(cfg.docs)]
    questions = [f"question {j} about catalog {seed}?"
                 for j in range(cfg.questions)]
    # Question j is the j-th most popular. Its usual filter follows from
    # its rank, not from a draw: whether the few most popular questions
    # carry a filter would otherwise swing each seed's share of (slow)
    # filtered turns, and with it every timing.
    home = [(HOME_FILTERS[j % 10], draw_filter(rng, HOME_FILTERS[j % 10],
                                                (j // 10) % 3))
            if HOME_FILTERS[j % 10] else (None, None)
            for j in range(cfg.questions)]
    users = [f"u{i:04d}" for i in range(cfg.profiles)]
    owners = [users[i] for i in
              rng.choice(cfg.profiles, cfg.sessions, replace=False)]
    qw = zipf_weights(cfg.questions, QUESTION_ZIPF)
    past = [list(rng.choice(cfg.questions, cfg.prior_exchanges, p=qw))
            for _ in range(cfg.sessions)]
    prior = [list(p) for p in past]
    sw = zipf_weights(cfg.sessions, SESSION_ZIPF)
    turns = []
    for i in range(n_turns):
        s = int(rng.choice(cfg.sessions, p=sw))
        if rng.random() < P_REPEAT_OWN:
            q = int(past[s][rng.integers(0, len(past[s]))])
        else:
            q = int(rng.choice(cfg.questions, p=qw))
        past[s].append(q)
        cls, spec = home[q]
        if rng.random() < cfg.p_switch:
            cls, spec = _draw(rng)
        busy = i < BUSY_SHARE * n_turns
        gap = rng.exponential(BUSY_GAP_S if busy else QUIET_GAP_S)
        turns.append((s, q, cls, spec, float(gap),
                      bool(rng.random() < cfg.p_fail)))
    return {"price": price, "cat": cat, "stock": stock, "texts": texts,
            "questions": questions, "users": users, "owners": owners,
            "prior": prior, "profiles": [profile_fields(rng) for _ in users],
            "turns": turns}


def _draw(rng):
    """(class, filter spec), or (None, None) for an unfiltered ask."""
    if rng.random() >= P_FILTERED:
        return None, None
    cls = CLASSES[int(rng.integers(0, len(CLASSES)))]
    return cls, draw_filter(rng, cls)


def setup(data: dict, root, tr):
    """Embed and index the catalog, create the profiles and the prior
    history. Returns (seconds, insert_per_s, state)."""
    t0 = clock()
    vclock = VirtualClock()
    embedder = HashEmbedder(DIM)
    docs = []
    for i, text in enumerate(data["texts"]):
        with tr.span("core.embed"):
            vec = embedder.embed(text)
        meta = {"cat": CATS[data["cat"][i]], "in_stock": bool(data["stock"][i])}
        if not np.isnan(data["price"][i]):
            meta["price"] = float(data["price"][i])
        with tr.span("core.document"):
            docs.append(Document(id=f"d{i:05d}", text=text, metadata=meta,
                                 embedding=vec))
    insert_per_s, index = build_index(docs, tr)
    profiles = ProfileStore(root / PROFILES, clock=vclock)
    for user, fields in zip(data["users"], data["profiles"]):
        with tr.span("profiles.put"):
            profiles.put_profile(user, fields)
    conv = ConversationStore(root / CONVERSATIONS, clock=vclock)
    for s, qs in enumerate(data["prior"]):
        for q in qs:
            for role, text in (("user", data["questions"][q]),
                               ("assistant", f"earlier answer to {q}")):
                with tr.span("conversation.append"):
                    conv.append_message(f"s{s:03d}", role, text)
    vclock.now += 86_400.0  # the timed turns start a day later
    llm = MockLlm()
    pipe = Pipeline(index=index, conversations=conv, profiles=profiles,
                    embedder=embedder, llm=llm, cache=ResponseCache(),
                    clock=vclock)
    state = {"docs": docs, "pipe": pipe, "llm": llm, "vclock": vclock,
             "embedder": embedder}
    return clock() - t0, insert_per_s, state


def build_index(docs: list, tr):
    """Fill a FlatIndex. Returns (insert_per_s, index); the insert clock runs
    until the index has answered its first search."""
    index = FlatIndex()
    t_ins = clock()
    for doc in docs:
        with tr.span("index.flat.insert"):
            index.insert(doc)
    with tr.span("index.flat.search"):
        index.search(docs[0].embedding, K)
    return len(docs) / (clock() - t_ins), index


def _references(text: str) -> list[str]:
    head, sep, tail = text.rpartition("\n\nreferences: ")
    return tail.split(", ") if sep else []


def run(ctx: RunContext, cfg: Config | None = None) -> dict:
    cfg = cfg or Config()
    n_turns = max(1, round(ctx.seconds * cfg.turns_per_second))
    data = generate(cfg, ctx.seed, n_turns)

    root = fresh_dir(ctx.workdir / "live")
    gc.collect()
    secs0, rate0, state = setup(data, root, ctx.tracer)
    pipe, llm, vclock = state["pipe"], state["llm"], state["vclock"]
    conv = pipe.conversations
    docs = state["docs"]
    table = DocTable([d.id for d in docs],
                     np.stack([d.embedding.values for d in docs]),
                     data["price"], data["cat"], data["stock"], data["texts"])

    # The benchmark's model: expected history per session, and which
    # filter produced the answer the cache holds for each (user, question).
    history = {f"s{s:03d}": [(role, text) for q in qs for role, text in
                             (("user", data["questions"][q]),
                              ("assistant", f"earlier answer to {q}"))]
               for s, qs in enumerate(data["prior"])}
    origin: dict = {}
    qvecs: dict = {}
    truth: dict = {}
    masks: dict = {}

    def oracle(q: int, spec):
        key = (q, spec)
        if key not in truth:
            if q not in qvecs:
                qvecs[q] = state["embedder"].embed(data["questions"][q]).values
            if spec not in masks:
                masks[spec] = table.mask(spec)
            truth[key] = table.topk(qvecs[q], K, masks[spec])
        return truth[key]

    def setup_once(rep, tr):
        """A shadow set-up, saved and closed, for the set-up and reopen
        samples; the live pipeline keeps running on its own state."""
        shadow = fresh_dir(ctx.workdir / f"setup{rep}")
        secs, rate, st = setup(data, shadow, tr)
        close_stores(st["pipe"].conversations, st["pipe"].profiles)
        with tr.span("index.snapshot.save"):
            st["pipe"].index.save(shadow / SNAPSHOT)
        return secs, rate, shadow

    timed = Timed(ctx)
    samples = SetupSamples(timed, setup_once, (secs0, rate0), n_turns,
                           cfg.setups, cfg.reopens,
                           lambda tr: build_index(docs, tr)[0], cfg.inserts)
    checks = ctx.checks
    filtered_lat, recalls = [], []
    op_info: dict = {}  # traced op id -> (class, cached, breakdown)
    pass_rates = {c: [] for c in CLASSES}
    injected = injected_on_hit = 0
    retry = None
    op = consumed = 0
    stream = iter(data["turns"])
    while not timed.out_of_time():
        samples.before(op)
        if retry is not None:
            s, q, cls, spec, gap, fail = retry
            is_retry = True
            retry = None
        else:
            turn = next(stream, None)
            if turn is None:
                break
            consumed += 1
            s, q, cls, spec, gap, fail = turn
            is_retry = False
        vclock.now += gap
        session, user = f"s{s:03d}", data["owners"][s]
        question = data["questions"][q]
        ftext = filter_text(spec) if spec else None
        tr = timed.tracer_for(op)
        before = conv.count(session)
        llm.fail = fail
        resp = err = None
        t0 = clock()
        with tr.span("op.rag_turns"):
            try:
                filt = None
                if ftext:
                    with tr.span("filters.parse"):
                        filt = parse_filter(ftext)
                with tr.span("pipeline.handle_query") as sp:
                    resp = pipe.handle_query(session, user, question,
                                             k=K, filt=filt)
            except Exception as exc:  # every failure is checked below
                err = exc
        elapsed = clock() - t0
        if resp is not None:  # stage spans, added after the op clock stops
            tr.stages(sp, [(f"pipeline.{st}", resp.latency_breakdown[st])
                           for st in STAGES if st in resp.latency_breakdown])
        llm.fail = False
        timed.record(op, elapsed, "failed" if err is not None else
                     "hit" if resp.cached else f"miss {cls}")
        if spec is not None:
            filtered_lat.append(elapsed)
        if op in timed.traced_ops and resp is not None:
            op_info[op] = (cls, resp.cached, dict(resp.latency_breakdown))

        added = conv.count(session) - before
        problems, stale = [], False
        if err is not None:
            if fail and isinstance(err, StageError) and err.stage == "llm":
                injected += 1
                if added:
                    problems.append(f"failed turn persisted {added} messages")
                retry = (s, q, cls, spec, 0.0, False)
            else:
                problems.append(f"{type(err).__name__}: {err}")
        else:
            want = oracle(q, spec)
            if spec is not None:
                pass_rates[cls].append(float(masks[spec].mean()))
            refs = _references(resp.text)
            recalls.append(recall(refs, want))
            if fail:
                if resp.cached:
                    injected_on_hit += 1  # served before the LLM was reached
                else:
                    problems.append("forced LLM failure did not raise")
            if resp.cached:
                if added:
                    problems.append(f"cache hit persisted {added} messages")
                if is_retry:
                    problems.append("failed turn left a cache entry")
                elif refs != want:
                    # known defect: the cache key ignores the filter
                    stale = origin.get((user, q), spec) != spec
                    if not stale:
                        problems.append("cached answer has wrong references")
            else:
                history[session] += [("user", question),
                                     ("assistant", resp.text)]
                origin[(user, q)] = spec
                if added != 2:
                    problems.append(f"miss persisted {added} messages")
                if [h.doc_id for h in resp.retrieved] != want or refs != want:
                    problems.append("references differ from the oracle")
        if problems:
            checks.fail(f"op {op}: " + "; ".join(problems))
        elif stale:
            checks.known_defect("cache.stale_hits")
        op += 1
    timed.done()
    checks.skipped(n_turns - consumed)
    samples.finish()
    tr = ctx.tracer

    # Whole-log check: the store holds exactly the prior history plus the
    # user/assistant pair of every answered miss, in order.
    for session, expected in history.items():
        got = [(m.role, m.text) for m in
               conv.get_history(session, max(1, len(expected)))]
        if got != expected:
            checks.problem(f"history of {session} differs from the model")
    cache = pipe.cache
    lookups = cache.hits + cache.misses
    hit_ratio = cache.hits / lookups if lookups else 0.0
    cache_fill = len(cache) / cache.capacity

    close_stores(conv, pipe.profiles)
    with tr.span("index.snapshot.save"):
        pipe.index.save(root / SNAPSHOT)
    docs_bytes = sum(len(d.text.encode("utf-8")) + json_bytes(
        dict(d.metadata)) + 8 * DIM for d in docs)
    pipe = conv = llm = state = docs = None  # the live pipeline is done

    conv2, prof2, index2 = reopen(root, tr)
    if len(index2) != cfg.docs or conv2.list_sessions() != sorted(
            (s, len(h)) for s, h in history.items()):
        checks.problem("reopened data directory differs from the model")
    disk = disk_metrics(root, conv2, prof2, docs_bytes, cfg.docs)
    close_stores(conv2, prof2)

    attempted = op + checks.not_run
    out = {"recall": float(np.mean(recalls)) if recalls else 0.0}
    out.update(samples.metrics())
    out.update(timed.end_to_end(filtered_lat))
    out.update(disk)
    stale = checks.known.get("cache.stale_hits", 0)
    out.update({"cache.hit_ratio": hit_ratio, "cache.fill": cache_fill,
                "cache.stale_hits": stale / attempted if attempted else 0.0})
    for c in CLASSES:
        if pass_rates[c]:
            out[f"filters.pass_rate.{c}"] = float(np.mean(pass_rates[c]))
    if ctx.trace:
        out.update(_layer_metrics(tr.spans, op_info, timed))
    record = {"turns": attempted, "stream_turns": n_turns,
              "injected_failures": injected,
              "injections_served_by_cache": injected_on_hit,
              "stale_hits": stale, "cache_hits": cache.hits,
              "cache_misses": cache.misses, "cache_entries": len(cache),
              "sizes": {"docs": cfg.docs, "profiles": cfg.profiles,
                        "sessions": cfg.sessions,
                        "questions": cfg.questions, "k": K},
              **samples.record()}
    return {"metrics": out, "attempted": attempted, "record": record}


def _layer_metrics(spans, op_info: dict, timed: Timed) -> dict:
    out = {}
    misses = {op: v for op, v in op_info.items() if not v[1]}
    for st in STAGES:
        out.update(timing(f"pipeline.{st}_ms",
                          [v[2][st] / 1e3 for v in misses.values()
                           if st in v[2]], 1e3))
    hq = {}
    for _, _, op, name, start, end in spans:
        if name == "pipeline.handle_query" and op is not None:
            hq[op] = end - start
    out.update(timing("pipeline.other_ms",
                      [hq[op] - sum(v[2].values()) / 1e3
                       for op, v in misses.items() if op in hq], 1e3))
    out.update(timing("pipeline.hit_us",
                      [hq[op] for op, v in op_info.items()
                       if v[1] and op in hq], 1e6))
    out.update(timing("index.flat.search_ms",
                      [v[2]["search"] / 1e3 for v in misses.values()
                       if v[0] is None], 1e3))
    for c in CLASSES:
        out.update(timing(f"index.flat.filtered_ms.{c}",
                          [v[2]["search"] / 1e3 for v in misses.values()
                           if v[0] == c], 1e3))
    out.update(traced_metrics(spans, timed))
    return out
