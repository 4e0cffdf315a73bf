"""Build the snapshot format v1 fixtures that tests/test_snapshot.py pins.

    PYTHONPATH=src python tests/snapshot_v1/make.py

builds one small index per kind from fixed seeds (20 documents, dim 4, three
removed and one replaced), saves each as <kind>.snap next to this file, and
records the hits of fixed queries in hits.json. The committed files were
written by the code from before the indexes kept their rows in a shared slot
table and their snapshot state in per-kind methods. The tests load them and
compare hits, and also rebuild each index with today's code and compare the
saved bytes, so any drift in format v1 shows.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from contextdb import (Document, FlatIndex, HnswIndex, HnswParams, IvfIndex,
                       IvfParams, Vector)

HERE = Path(__file__).resolve().parent
KINDS = ("flat", "hnsw", "ivf")
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


def main() -> None:
    recorded = {}
    for kind in KINDS:
        index = build(kind)
        index.save(HERE / f"{kind}.snap")
        recorded[kind] = hits_of(index)
    (HERE / "hits.json").write_text(json.dumps(recorded) + "\n",
                                    encoding="utf-8")


if __name__ == "__main__":
    main()
