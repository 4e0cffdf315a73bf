"""The snapshot format v1 fixtures that tests/test_snapshot.py pins.

Format v1 has no writer any more; these builders make the indexes that its
committed files hold, so the tests can compare them:

- <kind>.snap, one small index per kind from fixed seeds (20 documents,
  dim 4, three removed and one replaced), built by build(), with the hits
  of fixed queries in hits.json. They were written by the code from before
  the indexes kept their rows in a shared slot table and their snapshot
  state in per-kind methods.
- <kind>_frames.snap for flat and ivf, a base of 600 documents and three
  v1 change frames, built and saved by build_framed(kind, path) with the
  last code that wrote format v1 (commit da9cc33).

The tests load them and compare hits and documents, and check that the
next save of a loaded file writes format v2 (tests/snapshot_v2).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from contextdb import (Document, FlatIndex, HnswIndex, HnswParams, IvfIndex,
                       IvfParams, Vector)

HERE = Path(__file__).resolve().parent
KINDS = ("flat", "hnsw", "ivf")
FRAMED = ("flat", "ivf")
K = 5


def _rows(rng: np.random.Generator, n: int) -> np.ndarray:
    rows = rng.standard_normal((n, 4))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def build(kind: str):
    """The fixture index of one kind, built the same way every time."""
    rng = np.random.default_rng(20)
    data = _rows(rng, 20)
    if kind == "flat":
        index = FlatIndex()
    elif kind == "hnsw":
        index = HnswIndex(HnswParams(m=4, ef_construction=16, ef_search=8,
                                     seed=3))
    else:
        index = IvfIndex(IvfParams(nlist=4, nprobe=2, seed=3))
        index.train(data)
    for i, row in enumerate(data):
        index.insert(Document(
            id=f"d{i:02d}", text=f"doc {i}",
            metadata={"n": i, "tag": f"t{i % 3}", "even": i % 2 == 0},
            embedding=Vector(row)))
    for doc_id in ("d03", "d11", "d19"):
        index.remove(doc_id)
    index.insert(Document(id="d07", text="doc 7, moved", metadata={"n": 70},
                          embedding=Vector(_rows(rng, 1)[0])))
    return index


def queries() -> list[Vector]:
    return [Vector(row) for row in _rows(np.random.default_rng(21), 6)]


def hits_of(index) -> list[list[list]]:
    return [[[h.doc_id, h.distance, h.rank] for h in index.search(q, K)]
            for q in queries()]


def build_framed(kind: str, path: Path | None = None):
    """A flat or ivf index of 600 documents from fixed seeds, saved to path
    (when given) and then changed in three rounds -- a remove, a replace,
    an insert -- each saved after it: with a writer of change frames, a
    base and three frames."""
    rng = np.random.default_rng(23)
    data = _rows(rng, 600)
    if kind == "flat":
        index = FlatIndex()
    else:
        index = IvfIndex(IvfParams(nlist=4, nprobe=2, seed=3))
        index.train(data)
    for i, row in enumerate(data):
        index.insert(Document(id=f"f{i:03d}", text="", metadata={"n": i},
                              embedding=Vector(row)))
    steps = [lambda: index.remove("f001"),
             lambda: index.insert(Document(
                 id="f002", text="moved", metadata={"n": -2},
                 embedding=Vector(_rows(rng, 1)[0]))),
             lambda: index.insert(Document(
                 id="new", text="new", metadata={"new": True},
                 embedding=Vector(_rows(rng, 1)[0])))]
    for step in steps:
        if path is not None:
            index.save(path)
        step()
    if path is not None:
        index.save(path)
    return index
