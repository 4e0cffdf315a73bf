"""IVF-Flat index: a k-means coarse quantizer over inverted lists.

train() fits centroids on a sample; every inserted vector lands in the list
of its nearest centroid. A slot's list is its slot-table tag, so a removal,
which moves the last row into the freed slot, moves the list with it. A
search scores the query against all centroids and scans the slots tagged
with one of the nprobe nearest lists with the flat index's exact scan; a
filtered search scans those of them that match. With nprobe == nlist every
list is scanned, so results coincide with the flat index bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ..core import Document, Vector, count, sq_distances
from ..errors import NotTrainedError, TrainingDataError
from .base import VectorIndex, pack_array, screen_bound, unpack_array

# The bulk assignment's gemm takes rows in blocks of about this many
# distances, 2 MB, whatever nlist is.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class IvfParams:
    """nlist=None means ceil(sqrt(N)) at train time; nprobe=None means
    min(8, nlist)."""

    nlist: int | None = None
    nprobe: int | None = None
    kmeans_iters: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("nlist", "nprobe"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, count(name, value))
        object.__setattr__(self, "kmeans_iters",
                           count("kmeans_iters", self.kmeans_iters))
        object.__setattr__(self, "seed", count("seed", self.seed, 0))


def _kmeans(x: np.ndarray, k: int, iters: int, seed: int) -> np.ndarray:
    """Seeded Lloyd iterations; stops early once no centroid moves more than
    1e-6. An emptied cluster is reseeded to the point currently farthest from
    its own centroid (each repair consumes a distinct point)."""
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(n, size=k, replace=False)].copy()
    xn = np.einsum("ij,ij->i", x, x)
    for _ in range(iters):
        cn = np.einsum("ij,ij->i", centroids, centroids)
        d2 = xn[:, None] + cn[None, :] - 2.0 * (x @ centroids.T)
        np.maximum(d2, 0.0, out=d2)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, x)
        moved = centroids.copy()
        nonempty = counts > 0
        moved[nonempty] = sums[nonempty] / counts[nonempty, None]
        own = d2[np.arange(n), assign].copy()
        for c in np.flatnonzero(~nonempty):
            p = int(own.argmax())
            moved[c] = x[p]
            own[p] = -1.0
        shift = np.sqrt(sq_distances(moved, centroids))
        centroids = moved
        if float(shift.max()) < 1e-6:
            break
    return centroids


class IvfIndex(VectorIndex):
    kind = "ivf"

    def __init__(self, params: IvfParams | None = None):
        super().__init__()
        self.params = params or IvfParams()
        self._centroids: np.ndarray | None = None

    @property
    def trained(self) -> bool:
        return self._centroids is not None

    @property
    def nlist(self) -> int:
        return 0 if self._centroids is None else self._centroids.shape[0]

    @property
    def centroids(self) -> np.ndarray | None:
        return None if self._centroids is None else self._centroids.copy()

    def train(self, vectors: Sequence[Vector] | np.ndarray) -> None:
        with self._lock:
            if self._centroids is not None:
                raise ValueError("index is already trained")
            x = np.asarray(vectors if isinstance(vectors, np.ndarray)
                           else [v.values for v in vectors], dtype=np.float64)
            if x.shape[:1] == (0,):
                raise TrainingDataError(required=1, got=0)
            if x.ndim != 2 or not np.isfinite(x).all():
                raise ValueError("training data must be a finite 2-D array, "
                                 f"got shape {x.shape}")
            n = x.shape[0]
            nlist = self.params.nlist or math.ceil(math.sqrt(n))
            if n < nlist:
                raise TrainingDataError(required=nlist, got=n)
            self._set_centroids(_kmeans(x, nlist, self.params.kmeans_iters,
                                        self.params.seed))
            self._changed = None  # no change frame holds centroids

    def _set_centroids(self, centroids: np.ndarray) -> None:
        if centroids.ndim != 2 or not centroids.size or \
                not np.isfinite(centroids).all():
            raise ValueError("centroids must be a nonempty finite 2-D "
                             f"matrix, got shape {centroids.shape}")
        # the base check: this very call is what trains the index
        super()._check_insert_dim(centroids.shape[1])
        self._centroids = centroids

    # -- snapshot state -----------------------------------------------------

    def _state(self) -> dict:
        return {"params": asdict(self.params),
                "centroids": None if self._centroids is None
                else pack_array(self._centroids),
                **super()._state()}

    @classmethod
    def _from_state(cls, state: dict) -> "IvfIndex":
        p = state["params"]
        index = cls(IvfParams(nlist=p["nlist"], nprobe=p["nprobe"],
                              kmeans_iters=p["kmeans_iters"], seed=p["seed"]))
        if state["centroids"] is not None:
            # adopt the fitted centroids; assignment is deterministic
            index._set_centroids(unpack_array(state["centroids"]))
            index._insert_docs(state)
        return index

    def _insert_docs(self, state: dict) -> None:
        super()._insert_docs(state)
        table = self._table
        table.tags[:] = self._lists_of(table.rows)

    def _lists_of(self, rows: np.ndarray) -> np.ndarray:
        """Each row's list, the one _list_of gives it. One gemm per block
        of rows screens d2 = |x|^2 + |c|^2 - 2 x.c against every centroid.
        Where the runner-up screens within screen_bound of the best (the
        centroids as the rows, the row as the query), the kernel may pick
        either, and where the screen is not finite it tells nothing: those
        rows are re-checked with _list_of."""
        c = self._centroids
        lists = np.zeros(rows.shape[0], dtype=np.int64)
        if c.shape[0] == 1:
            return lists
        cc = np.einsum("ij,ij->i", c, c)
        step = max(1, _BLOCK_CELLS // c.shape[0])
        for start in range(0, rows.shape[0], step):
            x = rows[start:start + step]
            with np.errstate(all="ignore"):
                xx = np.einsum("ij,ij->i", x, x)
                d2 = (xx[:, None] + cc) - 2.0 * (x @ c.T)
                two = np.partition(d2, 1, axis=1)[:, :2]
                limit = two[:, 0] + screen_bound(
                    c.shape[1], cc.max(), xx, np.float64)
                sure = np.isfinite(d2).all(axis=1) & (two[:, 1] > limit)
            block = lists[start:start + step]
            block[:] = d2.argmin(axis=1)
            for i in np.flatnonzero(~sure).tolist():
                block[i] = self._list_of(x[i])
        return lists

    def _list_of(self, values: np.ndarray) -> int:
        """The list of the centroid nearest to values (the first of a
        tie), by the difference kernel."""
        return int(sq_distances(self._centroids, values).argmin())

    # -- VectorIndex hooks --------------------------------------------------

    def _check_insert_dim(self, got: int) -> None:
        if self._centroids is None:
            raise NotTrainedError("ivf index must be trained before use")
        super()._check_insert_dim(got)

    def _check_search_ready(self, query: Vector, k: int) -> None:
        if self._centroids is None:
            raise NotTrainedError("ivf index must be trained before use")
        super()._check_search_ready(query, k)

    def _insert_vector(self, doc: Document) -> None:
        values = doc.embedding.values
        self._table.append(doc.id, values, doc.text, doc.metadata,
                           self._list_of(values))

    def _pool(self, q: np.ndarray, *,
              nprobe: int | None = None) -> np.ndarray:
        """The slots, ascending, of the nprobe lists whose centroids are
        nearest to q."""
        nprobe = count("nprobe", nprobe) if nprobe is not None \
            else self.params.nprobe or min(8, self.nlist)
        cd = sq_distances(self._centroids, q)
        probed = np.zeros(self.nlist, dtype=bool)
        probed[np.argsort(cd, kind="stable")[:nprobe]] = True
        return np.flatnonzero(probed[self._table.tags])
