"""Command-line surface: ingest, query, demo-shoes, chat, bench.

Exit codes are a stable scripting contract: 0 success, 1 usage or parse
errors (including filter-grammar diagnostics), 2 data or storage errors.

The data directory comes from $CONTEXTDB_HOME (default ~/.contextdb) and may
hold a `config` file of `key = value` lines supplying defaults; flags always
win over config. An index directory (as written by `ingest`) holds the
snapshot itself plus `embedder.json` recording which embedder produced it,
so `query` can embed question text the same way.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .cache import DEFAULT_CAPACITY, DEFAULT_TTL_MS, ResponseCache
from .conversation import ConversationStore
from .core import (Document, EmbeddingProvider, FixtureEmbedder, HashEmbedder,
                   Vector, count, fixture_embed, fmt_meta)
from .errors import CatalogError, ContextDbError, FilterParseError, StageError
from .filters import parse_filter
from .index import (FlatIndex, HnswIndex, HnswParams, IvfIndex, IvfParams,
                    load_index)
from .pipeline import MockLlm, Pipeline
from .profiles import ProfileStore

SNAPSHOT_NAME = "index.snap"
EMBEDDER_META_NAME = "embedder.json"

DEMO_QUESTION = "I need comfortable running shoes under $100"

# Reebok/ASICS prices are the worked example's; the Nike/Adidas prices are
# fixture choices kept above the $100 budget line.
SHOE_CATALOG = (
    {"id": "nike-zoomx", "name": "Nike ZoomX Infinity Run", "price": 150},
    {"id": "adidas-ultraboost", "name": "Adidas UltraBoost", "price": 120},
    {"id": "reebok-floatride", "name": "Reebok Floatride", "price": 90},
    {"id": "asics-gel-kayano", "name": "ASICS Gel-Kayano", "price": 110},
)

_EXPECTED_DEMO = {
    "nike-zoomx": 1.97,
    "adidas-ultraboost": 1.12,
    "reebok-floatride": 0.22,
    "asics-gel-kayano": 0.58,
}


def demo_index() -> FlatIndex:
    """The four-shoe catalog under the 2D fixture embeddings."""
    index = FlatIndex()
    for rec in SHOE_CATALOG:
        index.insert(Document(
            id=rec["id"], text=rec["name"],
            metadata={"brand": rec["name"].split()[0], "price": rec["price"]},
            embedding=fixture_embed(rec["name"])))
    return index


def data_home() -> Path:
    return Path(os.environ.get("CONTEXTDB_HOME",
                               str(Path.home() / ".contextdb")))


def load_config(path: Path | None = None) -> dict[str, str]:
    """`key = value` lines; blank lines and #-comments ignored; quotes around
    a value are stripped. A file that is not UTF-8 is a data error
    (CatalogError) that names it."""
    if path is None:
        path = data_home() / "config"
    if not path.exists():
        return {}
    try:
        text = path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise CatalogError(f"config {path}: {exc}") from None
    config: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            continue
        value = value.strip()
        if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
            value = value[1:-1]
        config[key.strip()] = value
    return config


def _config_int(flag: int | None, config: dict[str, str], key: str,
               default: int | None, least: int | None = 1) -> int | None:
    """flag if given, else config's value for key as an int, else default.
    A config value that is not an int, or is below least (None: no bound),
    is a data error (CatalogError) that names the key."""
    if flag is not None or key not in config:
        return default if flag is None else flag
    text = config[key]
    try:
        value = int(text)
        return value if least is None else count(key, value, least)
    except ValueError as exc:
        raise CatalogError(f"config {key} = {text!r}: {exc}") from None


def _fmt_metadata(metadata) -> str:
    return " ".join(f"{k}={fmt_meta(metadata[k])}" for k in sorted(metadata))


def make_embedder(choice: str, dim: int | None, seed: int) -> EmbeddingProvider:
    if choice == "fixture":
        if dim not in (None, 2):
            raise CatalogError(
                f"the fixture embedder is 2-dimensional, --dim {dim} conflicts")
        return FixtureEmbedder()
    if choice == "hash":
        return HashEmbedder(dim=dim if dim is not None else 64, seed=seed)
    raise CatalogError(f"unknown embedder {choice!r}")


def _load_index_dir(index_dir: Path):
    meta_path = index_dir / EMBEDDER_META_NAME
    if not meta_path.exists():
        raise CatalogError(
            f"{index_dir} is not an index directory (missing "
            f"{EMBEDDER_META_NAME}; run `ingest` first)")
    try:
        meta = json.loads(meta_path.read_text("utf-8"))
        embedder = make_embedder(meta["embedder"], meta.get("dim"),
                                 meta.get("seed", 0))
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise CatalogError(f"{meta_path}: malformed embedder record: "
                           f"{type(exc).__name__}: {exc}") from exc
    return load_index(index_dir / SNAPSHOT_NAME), embedder


# -- commands ---------------------------------------------------------------


def cmd_ingest(args) -> int:
    config = load_config()
    choice = args.embedder or config.get("embedder", "hash")
    dim = _config_int(args.dim, config, "dim", None)
    seed = _config_int(args.seed, config, "seed", 0, least=None)
    embedder = make_embedder(choice, dim, seed)

    catalog_path = Path(args.catalog)
    index = FlatIndex()
    ingested = 0
    with open(catalog_path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw.decode("utf-8"))
                if not isinstance(rec, dict):
                    raise ValueError("record is not an object")
                doc_id, text = rec["id"], rec["text"]
                if "embedding" in rec and rec["embedding"] is not None:
                    emb = Vector(rec["embedding"])
                else:
                    emb = embedder.embed(text)
                index.insert(Document(id=doc_id, text=text,
                                      metadata=rec.get("metadata", {}),
                                      embedding=emb))
            except Exception as exc:
                print(f"warning: line {lineno}: {exc}; skipped",
                      file=sys.stderr)
                continue
            ingested += 1
    if ingested == 0:
        raise CatalogError(f"no valid records in {catalog_path}")

    index_dir = Path(args.index)
    index_dir.mkdir(parents=True, exist_ok=True)
    index.save(index_dir / SNAPSHOT_NAME)
    (index_dir / EMBEDDER_META_NAME).write_text(json.dumps(
        {"embedder": choice, "dim": embedder.dim, "seed": seed,
         "kind": index.kind}) + "\n", encoding="utf-8")
    print(f"ingested {ingested} documents into {index_dir}")
    return 0


def cmd_query(args) -> int:
    config = load_config()
    k = _config_int(args.k, config, "k", 4)
    filt = parse_filter(args.filter if args.filter is not None
                        else config.get("filter", ""))
    index, embedder = _load_index_dir(Path(args.index))
    qvec = embedder.embed(args.q)
    hits = index.search_filtered(qvec, k, filt) if filt \
        else index.search(qvec, k)
    if not hits:
        print("no results")
        return 0
    for hit in hits:
        doc = index.get(hit.doc_id)
        meta = f"  {_fmt_metadata(doc.metadata)}" if doc.metadata else ""
        print(f"{hit.rank}. {hit.doc_id}  distance={hit.distance:.2f}{meta}")
    return 0


def cmd_demo_shoes(args) -> int:
    index = demo_index()
    qvec = fixture_embed(DEMO_QUESTION)
    print(f"question: {DEMO_QUESTION}")
    print(f"query embedding: [{qvec.values[0]:.1f}, {qvec.values[1]:.1f}]")
    print()
    problems: list[str] = []

    print("catalog distances:")
    hits = index.search(qvec, k=4)
    for hit in hits:
        print(f"distance {hit.doc_id} {hit.distance:.2f}")
        expected = _EXPECTED_DEMO[hit.doc_id]
        if abs(hit.distance - expected) > 0.005:
            problems.append(f"distance {hit.doc_id}: expected {expected}, "
                            f"got {hit.distance:.4f}")
    print()

    ranking = [h.doc_id for h in hits]
    print("ranking: " + ", ".join(ranking))
    want = sorted(_EXPECTED_DEMO, key=_EXPECTED_DEMO.get)
    if ranking != want:
        problems.append(f"ranking: expected {want}, got {ranking}")

    filtered = index.search_filtered(qvec, k=1, filt=parse_filter("price<100"))
    if filtered:
        top = filtered[0]
        price = index.get(top.doc_id).metadata["price"]
        print(f"top_filtered: {top.doc_id} price={price} "
              f"distance={top.distance:.2f}")
        if top.doc_id != "reebok-floatride" or price != 90:
            problems.append(
                f"filtered pick: expected reebok-floatride at 90, "
                f"got {top.doc_id} at {price}")
        elif abs(top.distance - 0.22) > 0.005:
            problems.append(
                f"filtered distance: expected 0.22, got {top.distance:.4f}")
    else:
        problems.append("filtered search (price<100) returned nothing")

    print()
    if problems:
        print("DEMO_FAIL")
        for p in problems:
            print(f"  {p}")
        return 2
    print("DEMO_OK")
    return 0


def cmd_chat(args) -> int:
    config = load_config()
    k = _config_int(args.k, config, "k", 4)
    filt = parse_filter(args.filter if args.filter is not None
                        else config.get("filter", ""))
    cache = ResponseCache(
        _config_int(None, config, "cache_capacity", DEFAULT_CAPACITY),
        _config_int(None, config, "cache_ttl_ms", DEFAULT_TTL_MS))
    history_window = _config_int(None, config, "history_window", 10)
    home = data_home()
    home.mkdir(parents=True, exist_ok=True)

    index_dir = Path(config["index_dir"]) if "index_dir" in config \
        else home / "index"
    if (index_dir / SNAPSHOT_NAME).exists():
        index, embedder = _load_index_dir(index_dir)
    else:
        # out-of-the-box demo: chat against the shoe catalog
        index, embedder = demo_index(), FixtureEmbedder()

    with ConversationStore(home / "conversations.jsonl") as conversations, \
            ProfileStore(home / "profiles.jsonl") as profiles:
        pipeline = Pipeline(
            index=index, conversations=conversations, profiles=profiles,
            embedder=embedder, llm=MockLlm(), cache=cache,
            history_window=history_window)
        for raw in sys.stdin.buffer:
            try:
                question = raw.decode("utf-8").strip()
                if not question:
                    continue
                resp = pipeline.handle_query(args.session, args.user,
                                             question, k=k,
                                             filt=filt if filt else None)
            except (UnicodeDecodeError, StageError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                continue
            print(resp.text)
            if resp.cached:
                print("(cached)")
            if args.verbose:
                for stage, ms in resp.latency_breakdown.items():
                    print(f"latency {stage}={ms:.3f}ms")
                if resp.retrieved:
                    print("retrieved: "
                          + ", ".join(h.doc_id for h in resp.retrieved))
    return 0


def _build_bench_index(kind: str, args, data: np.ndarray,
                       ids: list[str]):
    if kind == "flat":
        index = FlatIndex()
    elif kind == "hnsw":
        index = HnswIndex(HnswParams(
            m=args.m, ef_construction=args.ef_construction,
            ef_search=args.ef_search, seed=args.seed))
    else:
        index = IvfIndex(IvfParams(
            nlist=args.nlist, nprobe=args.nprobe,
            kmeans_iters=args.kmeans_iters, seed=args.seed))
        index.train(data)
    for i, row in enumerate(data):
        index.insert(Document(id=ids[i], text=ids[i], metadata={},
                              embedding=Vector(row)))
    return index


def cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    data = rng.standard_normal((args.n, args.dim))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    queries = rng.standard_normal((100, args.dim))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    ids = [f"doc-{i:06d}" for i in range(args.n)]

    flat = _build_bench_index("flat", args, data, ids)
    t0 = time.perf_counter()
    index = _build_bench_index(args.kind, args, data, ids)
    build_ms = (time.perf_counter() - t0) * 1000.0

    k, vectors = args.k, [Vector(q) for q in queries]

    def timed(idx):
        """Each query's hit ids and seconds, the queries in one loop, so
        no search starts with the other index's rows in cache."""
        found, lat = [], []
        for qv in vectors:
            t0 = time.perf_counter()
            hits = idx.search(qv, k)
            lat.append(time.perf_counter() - t0)
            found.append({h.doc_id for h in hits})
        return found, lat

    found, latency = timed(index)
    truth, flat_latency = timed(flat)
    recalls = [len(t & f) / len(t) for t, f in zip(truth, found)]

    print(f"kind={args.kind} n={args.n} dim={args.dim} k={k} seed={args.seed}")
    print(f"recall@{k}={float(np.mean(recalls)):.4f}")
    print(f"rerank_per_query={index.rows_reranked / len(queries):.2f}")
    print(f"screen_fallbacks={index.screen_fallbacks}")
    print(f"latency_build_ms={build_ms:.1f}")
    for name, lat in (("latency", latency), ("flat_latency", flat_latency)):
        print(f"{name}_p50_ms={1000.0 * np.percentile(lat, 50):.3f}")
        print(f"{name}_p95_ms={1000.0 * np.percentile(lat, 95):.3f}")
    return 0


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for data
    errors, so usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


class _AtLeast(argparse.Action):
    """Stores an int flag (type=int), which must pass count with least
    const: a smaller one is a usage error that names the flag."""

    def __call__(self, parser, namespace, value, option_string=None):
        try:
            value = count(option_string, value, self.const)
        except ValueError as exc:
            parser.error(str(exc))
        setattr(namespace, self.dest, value)


def _int_flag(p: argparse.ArgumentParser, flag: str, least: int = 1,
              **kwargs) -> None:
    p.add_argument(flag, type=int, action=_AtLeast, const=least, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contextdb",
                     description="Embedded multi-context store and RAG "
                                 "pipeline")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("ingest", help="build an index from a JSONL catalog")
    p.add_argument("--catalog", required=True)
    p.add_argument("--index", required=True, help="index directory to write")
    p.add_argument("--embedder", choices=["hash", "fixture"])
    _int_flag(p, "--dim")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("query", help="search an ingested index")
    p.add_argument("--index", required=True)
    p.add_argument("--q", required=True, help="question text")
    _int_flag(p, "--k")
    p.add_argument("--filter", help='e.g. \'price<100 && brand="Reebok"\'')
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("demo-shoes",
                       help="reproduce the worked running-shoes example")
    p.set_defaults(func=cmd_demo_shoes)

    p = sub.add_parser("chat", help="interactive pipeline loop over stdin")
    p.add_argument("--session", required=True)
    p.add_argument("--user", required=True)
    _int_flag(p, "--k")
    p.add_argument("--filter")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_chat)

    p = sub.add_parser("bench", help="recall/latency vs the flat oracle")
    _int_flag(p, "--n", 100, required=True)
    _int_flag(p, "--dim", required=True)
    _int_flag(p, "--k", required=True)
    p.add_argument("--kind", choices=["flat", "hnsw", "ivf"], required=True)
    _int_flag(p, "--seed", 0, default=0)
    _int_flag(p, "--m", 2, default=16)
    _int_flag(p, "--ef-construction", default=200)
    _int_flag(p, "--ef-search", default=64)
    _int_flag(p, "--nlist")
    _int_flag(p, "--nprobe")
    _int_flag(p, "--kmeans-iters", default=20)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FilterParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ContextDbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
