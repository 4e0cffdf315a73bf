"""store_churn: writes beside reads on every storage layer, with periodic
checkpoints and restarts.

Unit op: one tick. Each tick appends a user/assistant pair and reads the
last 10 messages; makes one put_profile or update_field, one get_profile
and one query_by_field; makes one upsert or remove on a trained IvfIndex;
and runs one ivf search (k = 10), a third of them filtered. Every 50th
tick also saves the index snapshot (a checkpoint); every 800th restarts
the data directory, alternating crash and clean restarts. A crash restart
drops the stores without close(), appends a torn record to each log and
reopens; the index comes back from the last checkpoint. Closed loop, one
client thread. At pauses spread over the timed loop, a shadow copy of the
set-up is built and its data directory reopened: these give setup_s,
insert_per_s and restart_s (harness.SetupSamples).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np

from contextdb import (ConversationStore, IvfIndex, IvfParams, ProfileStore,
                       Vector, parse_filter)

from harness import (CONVERSATIONS, PROFILES, SNAPSHOT, RunContext,
                     SetupSamples, Timed, VirtualClock, clock, close_stores,
                     disk_metrics, durations, fresh_dir, json_bytes,
                     median_of, reopen, traced_metrics)
from inputs import (CITIES, CLASSES, DIM, TIERS, DocTable, draw_filter,
                    filter_text, hit_problems, profile_fields, profile_update,
                    random_metadata, recall, unit_vectors, zipf_weights)

SPEC = {
    "name": "store_churn",
    "unit_op": "one tick: 2 log appends + history read, 1 profile write + "
               "get + query_by_field, 1 ivf upsert or remove, 1 ivf search "
               "(k=10); checkpoint and restart ticks as periodic spikes",
    "why": "The storage layers under write load beside reads (ROADMAP item "
           "4): the JSONL logs, the slot store, ivf's O(len) list.remove "
           "and snapshot state. rag_turns touches the logs only twice per "
           "miss. A write-side gain that slows recovery, reads or disk use "
           "shows here. Checkpoint ticks are 2 % of ticks, so p99_ms is a "
           "checkpoint tick and p50_ms an ordinary one.",
    "load": "closed loop, 1 client thread, 1 process; virtual clock",
    "data": "ivf over 10k docs (nlist 100, nprobe 8), 1k profiles, 200 "
            "sessions with 50 prior messages each; every third search "
            "filtered (s50:s5:s05 = 1:1:4)",
    "moves": {
        "conversation": ["p50_ms", "ops_per_s", "restart_s",
                         "disk_bytes_per_user_byte"],
        "profiles": ["p50_ms", "restart_s", "disk_bytes_per_user_byte"],
        "index.ivf": ["p50_ms", "ops_per_s", "recall",
                      "setup_s (training)", "insert_per_s"],
        "index.snapshot": ["p99_ms (checkpoint ticks)", "ops_per_s",
                           "restart_s", "disk_bytes_per_user_byte"],
        "filters": ["filtered_p50_ms"],
        "core": ["setup_s", "insert_per_s"],
    },
    "no_change_expected": ["pipeline", "cache", "index.flat", "index.hnsw"],
    "probe_figures": "single exploratory runs, not of this benchmark, "
                     "on a 2-vCPU machine: "
                     "append 12 us; reopen of 10k messages 0.095 s; profile "
                     "put 25 us; flat 10k save 0.12 s and load 0.21 s",
}

WORDS = ("order", "size", "color", "return", "ship", "price", "stock",
         "gift", "track", "refund", "blue", "black", "small", "large",
         "today", "week", "please", "thanks", "where", "when")


FILTER_CYCLE = ("s50", "s5", "s05", "s05", "s05", "s05")
K = 10
HISTORY_WINDOW = 10
SESSION_ZIPF = 0.8


@dataclass
class Config:
    """The sizes and rates the smoke tests shrink."""

    docs: int = 10_000
    nlist: int = 100
    nprobe: int = 8
    profiles: int = 1_000
    sessions: int = 200
    prior_messages: int = 50
    checkpoint_every: int = 50
    restart_every: int = 800
    ticks_per_second: float = 230.0
    setups: int = 4             # set-ups per run, the live one included
    reopens: int = 10           # timed reopens per run


def _sentence(rng) -> str:
    return " ".join(WORDS[i] for i in rng.integers(0, len(WORDS),
                                                   rng.integers(4, 12)))


def generate(cfg: Config, seed: int, n_ticks: int) -> dict:
    rng = np.random.default_rng(seed)
    price, cat, stock = random_metadata(rng, cfg.docs)
    users = [f"u{i:04d}" for i in range(cfg.profiles)]
    prior = [[_sentence(rng) for _ in range(cfg.prior_messages)]
             for _ in range(cfg.sessions)]
    sw = zipf_weights(cfg.sessions, SESSION_ZIPF)
    n_up = n_ticks + 1
    up_price, up_cat, up_stock = random_metadata(rng, n_up)
    up_vecs = unit_vectors(rng, n_up)
    queries = unit_vectors(rng, n_ticks)
    ticks = []
    for i in range(n_ticks):
        if rng.random() < 0.5:
            write = ("put", users[rng.integers(0, cfg.profiles)],
                     profile_fields(rng))
        else:
            write = ("update", users[rng.integers(0, cfg.profiles)],
                     profile_update(rng))
        field = ("tier", "city", "vip")[int(rng.integers(0, 3))]
        value = {"tier": TIERS[int(rng.integers(0, len(TIERS)))],
                 "city": CITIES[int(rng.integers(0, len(CITIES)))],
                 "vip": bool(rng.random() < 0.5)}[field]
        # a fixed mix: every third search is filtered, one in six of them
        # s50, one s5 and four s05, for the reason given in ann_hnsw
        cls = FILTER_CYCLE[(i // 3) % 6] if i % 3 == 2 else None
        kind = (cls, draw_filter(rng, cls) if cls else None)
        ticks.append({
            "session": int(rng.choice(cfg.sessions, p=sw)),
            "texts": (_sentence(rng), _sentence(rng)),
            "write": write,
            "read": users[rng.integers(0, cfg.profiles)],
            "query": (field, value),
            # mutation: remove a live doc (40 %), or upsert: re-add a
            # removed doc (40 %) or replace a live one (20 %), which keeps
            # the index near its initial size; u picks the target
            "mutation": ("remove" if rng.random() < 0.4 else "upsert",
                         float(rng.random()), float(rng.random())),
            "upsert": (up_vecs[i], up_price[i], up_cat[i], up_stock[i]),
            "query_vec": queries[i],
            "kind": kind,
        })
    return {"vectors": unit_vectors(rng, cfg.docs), "price": price,
            "cat": cat, "stock": stock,
            "texts": [f"doc {i} of set {seed}" for i in range(cfg.docs)],
            "users": users, "profiles": [profile_fields(rng) for _ in users],
            "prior": prior, "ticks": ticks}


def setup(cfg: Config, data: dict, table: DocTable, root, tr, vclock):
    """Train and fill the ivf index, fill both logs and write the first
    checkpoint. Returns (seconds, insert_per_s, (conv, prof, index)); the
    insert clock runs from train() until the first search is answered."""
    t0 = clock()
    docs = []
    for r in range(cfg.docs):
        with tr.span("core.document"):
            docs.append(table.document(r))
    index = IvfIndex(IvfParams(nlist=cfg.nlist, nprobe=cfg.nprobe))
    t_ins = clock()
    with tr.span("index.ivf.train"):
        index.train(table.vectors)
    for doc in docs:
        with tr.span("index.ivf.insert"):
            index.insert(doc)
    with tr.span("index.ivf.search"):
        index.search(docs[0].embedding, K)
    insert_per_s = cfg.docs / (clock() - t_ins)
    conv = ConversationStore(root / CONVERSATIONS, clock=vclock)
    for s, texts in enumerate(data["prior"]):
        for j, text in enumerate(texts):
            with tr.span("conversation.append"):
                conv.append_message(f"s{s:03d}", ("user", "assistant")[j % 2],
                                    text)
    prof = ProfileStore(root / PROFILES, clock=vclock)
    for user, fields in zip(data["users"], data["profiles"]):
        with tr.span("profiles.put"):
            prof.put_profile(user, fields)
    with tr.span("index.snapshot.save"):
        index.save(root / SNAPSHOT)
    return clock() - t0, insert_per_s, (conv, prof, index)


class Model:
    """What the stores and the index must hold."""

    def __init__(self, cfg: Config, data: dict, table: DocTable):
        self.history = {f"s{s:03d}": [(("user", "assistant")[j % 2], t)
                                      for j, t in enumerate(texts)]
                        for s, texts in enumerate(data["prior"])}
        self.profiles = {u: dict(f)
                         for u, f in zip(data["users"], data["profiles"])}
        self.table = table
        self.initial = self.checkpoint = table.snapshot()

    def query(self, name, value) -> list[str]:
        return sorted(u for u, f in self.profiles.items()
                      if name in f and type(f[name]) is type(value)
                      and f[name] == value)

    def problems(self, conv, prof, index) -> list[str]:
        out = []
        if conv.list_sessions() != sorted(
                (s, len(h)) for s, h in self.history.items()):
            out.append("sessions or their message counts differ")
        for session, expected in self.history.items():
            got = [(m.role, m.text)
                   for m in conv.get_history(session, len(expected))]
            if got != expected:
                out.append(f"history of {session} differs")
        if prof.list_users() != sorted(self.profiles):
            out.append("profile users differ")
        for user, fields in self.profiles.items():
            p = prof.get_profile(user)
            if p is None or dict(p.fields) != fields:
                out.append(f"profile {user} differs")
        for name, values in (("tier", TIERS), ("vip", (True, False))):
            for value in values:
                got = [p.user_id for p in prof.query_by_field(name, value)]
                if got != self.query(name, value):
                    out.append(f"query_by_field({name}={value}) differs")
        live = self.table.live_ids()
        if len(index) != len(live) or any(i not in index for i in live):
            out.append("index membership differs")
        return out


def _crash(root, partial_records) -> dict:
    """Simulate a crash after the stores were dropped: each log gains an
    unacknowledged, torn record. Returns the acknowledged sizes."""
    sizes = {}
    for name, partial in partial_records:
        path = root / name
        sizes[name] = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(partial)
    return sizes


def run(ctx: RunContext, cfg: Config | None = None) -> dict:
    cfg = cfg or Config()
    n_ticks = max(1, round(ctx.seconds * cfg.ticks_per_second))
    data = generate(cfg, ctx.seed, n_ticks)
    table = DocTable([f"d{i:05d}" for i in range(cfg.docs)], data["vectors"],
                     data["price"], data["cat"], data["stock"], data["texts"])

    root = fresh_dir(ctx.workdir / "live")
    vclock = VirtualClock()
    gc.collect()
    secs0, rate0, (conv, prof, index) = setup(cfg, data, table, root,
                                              ctx.tracer, vclock)
    model = Model(cfg, data, table)

    def setup_once(rep, tr):
        """A shadow set-up from the initial documents, closed, for the
        set-up and reopen samples; the live stores keep running."""
        live_state = table.snapshot()
        table.restore(model.initial)
        shadow = fresh_dir(ctx.workdir / f"setup{rep}")
        secs, rate, stores = setup(cfg, data, table, shadow, tr,
                                   VirtualClock())
        close_stores(*stores[:2])
        table.restore(live_state)
        return secs, rate, shadow

    timed = Timed(ctx)
    samples = SetupSamples(timed, setup_once, (secs0, rate0), n_ticks,
                           cfg.setups, cfg.reopens)
    checks = ctx.checks
    filtered_lat, recalls, unfiltered_recalls = [], [], []
    short = filtered_n = 0
    pass_rates = {c: [] for c in CLASSES}
    restarts = {"crash": 0, "clean": 0, "healed_conversation": 0,
                "healed_profiles": 0}
    restart_lat = []
    for op, tick in enumerate(data["ticks"]):
        if timed.out_of_time():
            break
        samples.before(op)
        vclock.now += 1.0
        tr = timed.tracer_for(op)
        session = f"s{tick['session']:03d}"
        kind, who, arg = tick["write"]
        name, value = tick["query"]
        mut, u1, u2 = tick["mutation"]
        live = np.flatnonzero(table.alive)
        dead = np.flatnonzero(~table.alive)
        if mut == "remove" and len(live) > 1:
            target = int(live[int(u1 * len(live))])
        else:
            mut = "upsert"
            pool = dead if len(dead) and u2 < 2 / 3 else live
            target = int(pool[int(u1 * len(pool))])
        doc_id = table.ids[target]
        if mut == "upsert":
            table.set_row(target, *tick["upsert"])
            doc = table.document(target)
        cls, spec = tick["kind"]
        ftext = filter_text(spec) if spec else None
        query = Vector(tick["query_vec"])
        checkpoint = op % cfg.checkpoint_every == cfg.checkpoint_every - 1
        restart = op % cfg.restart_every == cfg.restart_every // 2
        crash = restart and (restarts["crash"] <= restarts["clean"])
        err = None
        t0 = clock()
        with tr.span("op.store_churn"):
            try:
                for role, text in zip(("user", "assistant"), tick["texts"]):
                    with tr.span("conversation.append"):
                        conv.append_message(session, role, text)
                with tr.span("conversation.history"):
                    hist = conv.get_history(session, HISTORY_WINDOW)
                if kind == "put":
                    with tr.span("profiles.put"):
                        prof.put_profile(who, arg)
                else:
                    with tr.span("profiles.update"):
                        prof.update_field(who, *arg)
                with tr.span("profiles.get"):
                    got_profile = prof.get_profile(tick["read"])
                with tr.span("profiles.query"):
                    matched = prof.query_by_field(name, value)
                if mut == "remove":
                    with tr.span("index.ivf.remove"):
                        removed = index.remove(doc_id)
                else:
                    with tr.span("index.ivf.insert"):
                        index.insert(doc)
                if ftext:
                    with tr.span("filters.parse"):
                        filt = parse_filter(ftext)
                    with tr.span("index.ivf.search_filtered"):
                        hits = index.search_filtered(query, K, filt)
                else:
                    with tr.span("index.ivf.search"):
                        hits = index.search(query, K)
                if checkpoint:
                    with tr.span("index.snapshot.save"):
                        index.save(root / SNAPSHOT)
                if restart and crash:
                    conv = prof = index = None  # dropped without close()
                    acked = _crash(root, (
                        (CONVERSATIONS, b'{"session_id":"s000","seq":'),
                        (PROFILES, b'{"user_id":"u0000","fields":{"ti')))
                    conv, prof, index = reopen(root, tr, vclock)
                elif restart:
                    close_stores(conv, prof)
                    with tr.span("index.snapshot.save"):
                        index.save(root / SNAPSHOT)
                    conv, prof, index = reopen(root, tr, vclock)
            except Exception as exc:  # counted as a failed op below
                err = exc
        elapsed = clock() - t0
        label = ("restart" if restart else "checkpoint" if checkpoint
                 else f"tick {cls}")
        timed.record(op, elapsed, label)
        if spec is not None:
            filtered_lat.append(elapsed)
        if err is not None:
            checks.fail(f"op {op}: {type(err).__name__}: {err}")
            break  # the stores may be half-open; nothing later is valid

        # model updates and output checks, outside the timed op
        model.history[session] += list(zip(("user", "assistant"),
                                           tick["texts"]))
        if kind == "put":
            model.profiles[who] = dict(arg)
        else:
            model.profiles[who][arg[0]] = arg[1]
        if mut == "remove":
            table.alive[target] = False
        problems = []
        if [(m.role, m.text) for m in hist] != \
                model.history[session][-HISTORY_WINDOW:]:
            problems.append("history read differs from the model")
        if got_profile is None or dict(got_profile.fields) != \
                model.profiles[tick["read"]]:
            problems.append("get_profile differs from the model")
        if [p.user_id for p in matched] != model.query(name, value):
            problems.append("query_by_field differs from the model")
        if mut == "remove" and not removed:
            problems.append("remove of a live document returned False")
        mask = table.mask(spec)
        qv = tick["query_vec"]
        problems += hit_problems(hits, K, table, qv, mask)
        truth = table.topk(qv, K, mask)
        r = recall([h.doc_id for h in hits], truth)
        recalls.append(r)
        if spec is None:
            unfiltered_recalls.append(r)
        else:
            filtered_n += 1
            short += len(hits) < len(truth)
            pass_rates[cls].append(float(mask.mean()))
        if restart:
            restart_lat.append(elapsed)
        if checkpoint or (restart and not crash):
            model.checkpoint = table.snapshot()
        if restart and crash:
            table.restore(model.checkpoint)
            restarts["crash"] += 1
            for name_, key in ((CONVERSATIONS, "healed_conversation"),
                               (PROFILES, "healed_profiles")):
                if (root / name_).stat().st_size == acked[name_]:
                    restarts[key] += 1
                else:
                    problems.append(f"{name_} kept the torn record")
        elif restart:
            restarts["clean"] += 1
        if restart:
            problems += model.problems(conv, prof, index)
        if problems:
            checks.fail(f"op {op}: " + "; ".join(problems))
    ran = len(timed.latency)
    timed.done()
    checks.skipped(n_ticks - ran)
    samples.finish()
    tr = ctx.tracer

    close_stores(conv, prof)
    with tr.span("index.snapshot.save"):
        index.save(root / SNAPSHOT)
    conv = prof = index = None  # the live stores are done

    conv2, prof2, index2 = reopen(root, tr)
    for problem in model.problems(conv2, prof2, index2):
        checks.problem(f"after the run: {problem}")
    live = np.flatnonzero(table.alive)
    docs_bytes = sum(len(table.texts[r].encode("utf-8"))
                     + json_bytes(table.metadata(r)) + 8 * DIM for r in live)
    disk = disk_metrics(root, conv2, prof2, docs_bytes, len(live))
    close_stores(conv2, prof2)

    out = {"recall": float(np.mean(recalls)) if recalls else 0.0,
           "index.ivf.recall": float(np.mean(unfiltered_recalls))
           if unfiltered_recalls else 0.0,
           "index.ivf.short_lists": short / filtered_n if filtered_n else 0.0}
    if restarts["crash"]:
        out["conversation.healed"] = (restarts["healed_conversation"]
                                      / restarts["crash"])
    out.update(samples.metrics())
    out.update(timed.end_to_end(filtered_lat))
    out.update(disk)
    for c in CLASSES:
        if pass_rates[c]:
            out[f"filters.pass_rate.{c}"] = float(np.mean(pass_rates[c]))
    if ctx.trace:
        out.update(traced_metrics(tr.spans, timed))
        out["index.ivf.train_s"] = median_of(
            durations(tr.spans, "index.ivf.train"))
    record = {"ticks": ran, "stream_ticks": n_ticks,
              "restarts": restarts,
              "restart_tick_ms": [x * 1e3 for x in restart_lat],
              "checkpoints": ran // cfg.checkpoint_every,
              "live_docs": int(len(live)),
              "sizes": {"docs": cfg.docs, "nlist": cfg.nlist,
                        "nprobe": cfg.nprobe, "k": K,
                        "profiles": cfg.profiles, "sessions": cfg.sessions,
                        "prior_messages": cfg.prior_messages,
                        "checkpoint_every": cfg.checkpoint_every,
                        "restart_every": cfg.restart_every},
              **samples.record()}
    return {"metrics": out, "attempted": n_ticks, "record": record}
