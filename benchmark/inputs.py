"""Input generation and the exact oracle.

Everything here is derived from the workload seed. Documents carry three
metadata fields: `price` (uniform in [0, 100) to the cent, missing on 10 %
of documents), `cat` (one of 20 strings, uniform) and `in_stock` (bool,
50 %). Filters come in three selectivity classes -- s50, s5 and s05, for
50 %, 5 % and 0.5 % of documents -- and mix numeric, `=`/`in` and bool
clauses. The benchmark keeps its own copy of every indexed document
(DocTable) and evaluates filters on it with numpy, independently of
contextdb's filter code, to get the exact answer each search must match.
"""

from __future__ import annotations

import numpy as np

from contextdb import Document, Vector

DIM = 64
CATS = tuple(f"c{i:02d}" for i in range(20))
CLASSES = ("s50", "s5", "s05")
PRICE_MISSING = 0.10


def unit_vectors(rng: np.random.Generator, n: int, dim: int = DIM):
    """i.i.d. Gaussian vectors scaled to unit norm."""
    x = rng.standard_normal((n, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def random_metadata(rng: np.random.Generator, n: int):
    """(price, cat, in_stock) columns; a missing price is NaN."""
    price = np.floor(rng.random(n) * 10000.0) / 100.0
    price[rng.random(n) < PRICE_MISSING] = np.nan
    cat = rng.integers(0, len(CATS), n)
    in_stock = rng.random(n) < 0.5
    return price, cat, in_stock


def zipf_weights(n: int, s: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=np.float64) ** -s
    return w / w.sum()


# -- filters ------------------------------------------------------------------
#
# A filter spec is a tuple of clauses (field, op, value); op is one of
# "<", ">=", "=", "in". Price thresholds are set so that the expected share
# of matching documents is the class's nominal selectivity, counting the
# 10 % of documents without a price (a clause on a missing field is false).
# No class has a filter that costs several times the others (such as an
# `in` over ten values): a rare, much slower form would put p99_ms on the
# edge between two populations, where it jumps from seed to seed.

def draw_filter(rng: np.random.Generator, cls: str,
                form: int | None = None) -> tuple:
    """A filter of class `cls` in one of three forms (drawn when None)."""
    cats = [CATS[i] for i in rng.permutation(len(CATS))]
    stock = bool(rng.random() < 0.5)
    if form is None:
        form = int(rng.integers(0, 3))
    if cls == "s50":
        return [(("in_stock", "=", stock),),
                (("price", "<", 55.56),),
                (("price", ">=", 44.44),)][form]
    if cls == "s5":
        return [(("cat", "=", cats[0]),),
                (("cat", "in", tuple(sorted(cats[:2]))),
                 ("in_stock", "=", stock)),
                (("price", "<", 11.11), ("in_stock", "=", stock))][form]
    if cls == "s05":
        return [(("cat", "=", cats[0]), ("price", "<", 11.11)),
                (("cat", "in", tuple(sorted(cats[:2]))),
                 ("in_stock", "=", stock), ("price", ">=", 88.89)),
                (("cat", "=", cats[0]), ("in_stock", "=", stock),
                 ("price", "<", 22.22))][form]
    raise ValueError(f"unknown filter class {cls!r}")


def _literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    return repr(value)


def filter_text(spec: tuple) -> str:
    """The spec in contextdb's filter grammar."""
    parts = []
    for name, op, value in spec:
        if op == "in":
            parts.append(f"{name} in ({', '.join(map(_literal, value))})")
        else:
            parts.append(f"{name} {op} {_literal(value)}")
    return " && ".join(parts)


# -- the benchmark's copy of the documents -------------------------------------

class DocTable:
    """Rows of (id, vector, price, cat, in_stock, alive). The oracle ranks
    with the same distance expression as the flat index, so on the same
    rows it produces bit-identical distances."""

    def __init__(self, ids, vectors, price, cat, in_stock, texts):
        self.ids = list(ids)
        self.id_array = np.array(self.ids)
        self.row = {doc_id: i for i, doc_id in enumerate(self.ids)}
        self.vectors = np.array(vectors, dtype=np.float64)
        self.price = np.array(price, dtype=np.float64)
        self.cat = np.array(cat)
        self.in_stock = np.array(in_stock, dtype=bool)
        self.texts = list(texts)
        self.alive = np.ones(len(self.ids), dtype=bool)

    def metadata(self, r: int) -> dict:
        meta = {"cat": CATS[int(self.cat[r])],
                "in_stock": bool(self.in_stock[r])}
        if not np.isnan(self.price[r]):
            meta["price"] = float(self.price[r])
        return meta

    def document(self, r: int) -> Document:
        return Document(id=self.ids[r], text=self.texts[r],
                        metadata=self.metadata(r),
                        embedding=Vector(self.vectors[r]))

    def set_row(self, r: int, vector, price, cat, in_stock) -> None:
        self.vectors[r] = vector
        self.price[r] = price
        self.cat[r] = cat
        self.in_stock[r] = in_stock
        self.alive[r] = True

    def snapshot(self) -> tuple:
        return (self.vectors.copy(), self.price.copy(), self.cat.copy(),
                self.in_stock.copy(), self.alive.copy())

    def restore(self, state: tuple) -> None:
        (self.vectors, self.price, self.cat, self.in_stock,
         self.alive) = (a.copy() for a in state)

    def live_ids(self) -> set[str]:
        return set(self.id_array[self.alive].tolist())

    def mask(self, spec: tuple | None) -> np.ndarray:
        m = self.alive.copy()
        for name, op, value in spec or ():
            if name == "price":
                col = self.price
                with np.errstate(invalid="ignore"):
                    m &= (col < value) if op == "<" else (col >= value)
            elif name == "cat":
                codes = [CATS.index(v) for v in
                         (value if op == "in" else (value,))]
                m &= np.isin(self.cat, codes)
            elif name == "in_stock":
                m &= self.in_stock == value
            else:
                raise ValueError(f"unknown field {name!r}")
        return m

    def distances(self, rows: np.ndarray, q: np.ndarray) -> np.ndarray:
        diff = self.vectors[rows] - q
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def topk(self, q: np.ndarray, k: int, mask: np.ndarray) -> list[str]:
        """Exact k nearest ids among the masked rows, by (distance, id)."""
        rows = np.flatnonzero(mask)
        if not len(rows):
            return []
        d = self.distances(rows, q)
        if k < len(rows):
            kth = np.partition(d, k - 1)[k - 1]
            keep = np.flatnonzero(d <= kth)
        else:
            keep = np.arange(len(rows))
        pairs = sorted((float(d[j]), self.ids[rows[j]]) for j in keep)
        return [doc_id for _, doc_id in pairs[:k]]


def hit_problems(hits, k: int, table: DocTable, q: np.ndarray,
                 mask: np.ndarray) -> list[str]:
    """Structural checks on one search result: at most k hits, ranks 1..n,
    sorted by (distance, id), no id twice, every distance the true one
    (within 1e-9) and every hit a live document that passes the filter."""
    out = []
    if len(hits) > k:
        out.append(f"{len(hits)} hits for k={k}")
    if [h.rank for h in hits] != list(range(1, len(hits) + 1)):
        out.append("ranks are not 1..n")
    keys = [(h.distance, h.doc_id) for h in hits]
    if keys != sorted(keys):
        out.append("hits not sorted by (distance, id)")
    ids = [h.doc_id for h in hits]
    if len(set(ids)) != len(ids):
        out.append("duplicate id in hits")
    rows = [table.row.get(doc_id) for doc_id in ids]
    if any(r is None or not mask[r] for r in rows):
        out.append("hit is not a live document passing the filter")
    elif rows:
        true = table.distances(np.array(rows), q)
        if np.any(np.abs(true - np.array([h.distance for h in hits]))
                  > 1e-9):
            out.append("hit distance differs from the true distance")
    return out


def recall(hit_ids, truth: list[str]) -> float:
    return len(set(hit_ids) & set(truth)) / len(truth) if truth else 1.0


# -- profiles ------------------------------------------------------------------

TIERS = ("free", "basic", "plus", "pro", "team")
CITIES = tuple(f"city{i:02d}" for i in range(20))


def profile_fields(rng: np.random.Generator) -> dict:
    return {"tier": TIERS[int(rng.integers(0, len(TIERS)))],
            "city": CITIES[int(rng.integers(0, len(CITIES)))],
            "age": int(rng.integers(18, 80)),
            "vip": bool(rng.random() < 0.1)}


def profile_update(rng: np.random.Generator) -> tuple[str, object]:
    """One field change of the same kind as the field already has."""
    fields = profile_fields(rng)
    name = ("tier", "city", "age", "vip")[int(rng.integers(0, 4))]
    return name, fields[name]
