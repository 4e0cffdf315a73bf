"""The one count rule (core.count) at every knob and size it guards.

A count is an int or a numpy integer at or above its bound, and where it
is stored, it is stored as a plain int. A bool, a float or a string is a
TypeError, and a value below the bound is a ValueError that names the
knob. Snapshots and training data get the same rule through the params
and centroid checks."""

from dataclasses import asdict

import numpy as np
import pytest

from contextdb import (ConversationStore, FixtureEmbedder, FlatIndex,
                       HashEmbedder, HnswIndex, HnswParams, IvfIndex,
                       IvfParams, Message, MockLlm, Pipeline, ProfileStore,
                       ResponseCache, SnapshotCorruptError, Vector,
                       hash_embed, load_index, parse_filter)
from contextdb.cli import demo_index
from contextdb.index.base import pack_array, unpack_array
from helpers import make_docs, rewrite_payload, unit_rows
from snapshot_v1 import make as snapshot_v1


def put_ttl(value, tmp_path):
    cache = ResponseCache()
    cache.put("k", "v", now=0, ttl_ms=value)
    return cache._entries["k"].ttl


def history(value, tmp_path):
    with ConversationStore(tmp_path / "conv.jsonl") as store:
        store.get_history("s", value)


def message(value, tmp_path):
    """seq is checked, not converted: a store assigns it, always an int,
    and the replay of a log checks it once per line."""
    Message(session_id="s", seq=value, role="user", text="x", timestamp=0)


def pipeline(value, tmp_path):
    with ConversationStore(tmp_path / "conv.jsonl") as conv, \
            ProfileStore(tmp_path / "prof.jsonl") as prof:
        return Pipeline(index=demo_index(), conversations=conv,
                        profiles=prof, embedder=FixtureEmbedder(),
                        llm=MockLlm(), history_window=value).history_window


def small_index(kind: str):
    rows = unit_rows(np.random.default_rng(0), 30, 4)
    if kind == "flat":
        index = FlatIndex()
    elif kind == "hnsw":
        index = HnswIndex(HnswParams(m=4, ef_construction=16))
    else:
        index = IvfIndex(IvfParams(nlist=4))
        index.train(rows)
    for doc in make_docs(rows, metadata_fn=lambda i: {"x": i % 2}):
        index.insert(doc)
    return index


def searching(kind: str, knob: str, filtered: bool):
    """A site that searches a small index with knob set to the value."""
    def site(value, tmp_path):
        index, q = small_index(kind), Vector([1.0, 0.0, 0.0, 0.0])
        args = {"k": 3, **{knob: value}}
        if filtered:
            index.search_filtered(q, filt=parse_filter("x=1"), **args)
        else:
            index.search(q, **args)
    return site


def params(cls, name: str):
    return lambda value, tmp_path: getattr(cls(**{name: value}), name)


# (knob's name, least, site): a site applies value where the knob is read
# and returns what it stored, or None where it stores nothing
SITES = {
    "cache-capacity": ("capacity", 1, lambda v, _: ResponseCache(
        capacity=v).capacity),
    "cache-default_ttl_ms": ("default_ttl_ms", 1, lambda v, _: ResponseCache(
        default_ttl_ms=v).default_ttl_ms),
    "cache-put-ttl_ms": ("ttl_ms", 1, put_ttl),
    "get_history-last_n": ("last_n", 1, history),
    "message-seq": ("seq", 0, message),
    "hash_embed-dim": ("embedding dim", 1, lambda v, _: hash_embed(
        "x", v).dim),
    "HashEmbedder-dim": ("embedding dim", 1, lambda v, _: HashEmbedder(
        dim=v).dim),
    "pipeline-history_window": ("history_window", 1, pipeline),
    **{f"{kind}-{how}-k": ("k", 1, searching(kind, "k", how == "filtered"))
       for kind in ("flat", "hnsw", "ivf") for how in ("plain", "filtered")},
    **{f"HnswParams-{name}": (name, least, params(HnswParams, name))
       for name, least in (("m", 2), ("ef_construction", 1),
                           ("ef_search", 1), ("seed", 0))},
    **{f"hnsw-{how}-ef_search": ("ef_search", 1, searching(
        "hnsw", "ef_search", how == "filtered"))
       for how in ("plain", "filtered")},
    **{f"IvfParams-{name}": (name, least, params(IvfParams, name))
       for name, least in (("nlist", 1), ("nprobe", 1),
                           ("kmeans_iters", 1), ("seed", 0))},
    **{f"ivf-{how}-nprobe": ("nprobe", 1, searching(
        "ivf", "nprobe", how == "filtered"))
       for how in ("plain", "filtered")},
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("value", [True, 2.5, "3"], ids=repr)
def test_a_count_that_is_not_an_integer_is_a_type_error(tmp_path, site,
                                                        value):
    name, _, apply = SITES[site]
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        apply(value, tmp_path)


@pytest.mark.parametrize("site", SITES)
def test_a_count_below_its_bound_names_the_knob(tmp_path, site):
    name, least, apply = SITES[site]
    with pytest.raises(ValueError,
                       match=f"^{name} must be >= {least}, got {least - 1}$"):
        apply(least - 1, tmp_path)


@pytest.mark.parametrize("site", SITES)
def test_a_numpy_integer_is_accepted_and_stored_as_int(tmp_path, site):
    _, least, apply = SITES[site]
    stored = apply(np.int64(least + 2), tmp_path)
    if stored is not None:
        assert type(stored) is int and stored == least + 2


@pytest.mark.parametrize("kind", ["hnsw", "ivf"])
def test_numpy_integer_params_save_and_load(tmp_path, kind):
    i64 = np.int64
    rows = unit_rows(np.random.default_rng(1), 40, 4)
    if kind == "hnsw":
        index = HnswIndex(HnswParams(m=i64(4), ef_construction=i64(16),
                                     ef_search=i64(8), seed=i64(3)))
    else:
        index = IvfIndex(IvfParams(nlist=i64(4), nprobe=i64(2),
                                   kmeans_iters=i64(5), seed=i64(3)))
        index.train(rows)
    for doc in make_docs(rows):
        index.insert(doc)
    index.save(tmp_path / "i.snap")
    loaded = load_index(tmp_path / "i.snap")
    assert loaded.params == index.params
    assert {type(v) for v in asdict(loaded.params).values()} == {int}
    q = Vector(rows[5])
    assert loaded.search(q, 5) == index.search(q, 5)


@pytest.mark.parametrize("kind,key,value", [
    ("hnsw", "m", 16.5), ("hnsw", "ef_search", 8.5), ("hnsw", "seed", True),
    ("ivf", "nprobe", 2.5), ("ivf", "nlist", True),
    ("ivf", "kmeans_iters", "20"),
])
def test_a_snapshot_param_that_is_not_an_integer_is_corrupt(tmp_path, kind,
                                                            key, value):
    path = tmp_path / "p.snap"
    snapshot_v1.build(kind).save(path)
    rewrite_payload(path, lambda p: p["params"].update({key: value}))
    with pytest.raises(SnapshotCorruptError, match=f"malformed.*{key}"):
        load_index(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_centroid_is_corrupt(tmp_path, bad):
    path = tmp_path / "c.snap"
    snapshot_v1.build("ivf").save(path)

    def edit(payload):
        centroids = unpack_array(payload["centroids"])
        centroids[1, 0] = bad
        payload["centroids"] = pack_array(centroids)

    rewrite_payload(path, edit)
    with pytest.raises(SnapshotCorruptError, match="centroids must be"):
        load_index(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_training_data_must_be_finite(bad):
    rows = unit_rows(np.random.default_rng(2), 50, 4)
    rows[7, 2] = bad
    ivf = IvfIndex(IvfParams(nlist=4))
    with pytest.raises(ValueError, match="finite"):
        ivf.train(rows)
    assert not ivf.trained


@pytest.mark.parametrize("kind,key", [("hnsw", "m"), ("hnsw", "seed"),
                                      ("ivf", "nprobe"), ("ivf", "nlist")])
def test_a_snapshot_param_that_is_missing_is_corrupt(tmp_path, kind, key):
    """A missing param must not load as its default: an ivf index without
    its nprobe would probe min(8, nlist) lists, not the saved count."""
    path = tmp_path / "p.snap"
    snapshot_v1.build(kind).save(path)
    rewrite_payload(path, lambda p: p["params"].pop(key))
    with pytest.raises(SnapshotCorruptError, match=f"malformed.*{key}"):
        load_index(path)


def test_untrained_ivf_documents_are_not_dropped(tmp_path):
    """Null centroids with documents under a matching header count: the
    load must refuse them, not yield an empty index."""
    path = tmp_path / "u.snap"
    snapshot_v1.build("ivf").save(path)
    rewrite_payload(path, lambda p: p.update(centroids=None))
    with pytest.raises(SnapshotCorruptError, match="payload has 0"):
        load_index(path)


def test_training_from_vectors_and_from_an_array_agree():
    rows = unit_rows(np.random.default_rng(4), 60, 4)
    from_array, from_vectors = IvfIndex(IvfParams(nlist=5)), \
        IvfIndex(IvfParams(nlist=5))
    from_array.train(rows)
    from_vectors.train([Vector(row) for row in rows])
    assert np.array_equal(from_array.centroids, from_vectors.centroids)
