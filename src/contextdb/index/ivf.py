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

from ..core import Document, Vector
from ..errors import NotTrainedError, TrainingDataError
from .base import VectorIndex, pack_array, unpack_array


@dataclass(frozen=True)
class IvfParams:
    """nlist=None means ceil(sqrt(N)) at train time; nprobe=None means
    min(8, nlist)."""

    nlist: int | None = None
    nprobe: int | None = None
    kmeans_iters: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.nlist is not None and self.nlist < 1:
            raise ValueError(f"nlist must be >= 1, got {self.nlist}")
        if self.nprobe is not None and self.nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {self.nprobe}")
        if self.kmeans_iters < 1:
            raise ValueError(
                f"kmeans_iters must be >= 1, got {self.kmeans_iters}")


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
        shift = np.sqrt(
            np.einsum("ij,ij->i", moved - centroids, moved - centroids))
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
        self._nlist = 0

    @property
    def trained(self) -> bool:
        return self._centroids is not None

    @property
    def nlist(self) -> int:
        return self._nlist

    @property
    def centroids(self) -> np.ndarray | None:
        return None if self._centroids is None else self._centroids.copy()

    def train(self, vectors: Sequence[Vector] | np.ndarray) -> None:
        with self._lock:
            if self._centroids is not None:
                raise ValueError("index is already trained")
            if isinstance(vectors, np.ndarray):
                x = np.asarray(vectors, dtype=np.float64)
                if x.ndim != 2:
                    raise ValueError(
                        f"training array must be 2-D, got shape {x.shape}")
            else:
                x = np.stack([v.values for v in vectors]) if len(vectors) \
                    else np.zeros((0, 1))
            n = x.shape[0]
            if n == 0:
                raise TrainingDataError(required=1, got=0)
            nlist = self.params.nlist or math.ceil(math.sqrt(n))
            if n < nlist:
                raise TrainingDataError(required=nlist, got=n)
            self._set_centroids(_kmeans(x, nlist, self.params.kmeans_iters,
                                        self.params.seed))

    def _set_centroids(self, centroids: np.ndarray) -> None:
        # the base check: this very call is what trains the index
        super()._check_insert_dim(centroids.shape[1])
        self._centroids = centroids
        self._nlist = centroids.shape[0]

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
        diff = self._centroids - values
        self._table.append(doc.id, values, doc.text, doc.metadata,
                           int(np.einsum("ij,ij->i", diff, diff).argmin()))

    def _pool(self, q: np.ndarray, *,
              nprobe: int | None = None) -> np.ndarray:
        """The slots, ascending, of the nprobe lists whose centroids are
        nearest to q."""
        if nprobe is None:
            nprobe = self.params.nprobe if self.params.nprobe is not None \
                else min(8, self._nlist)
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        diff = self._centroids - q
        cd = np.einsum("ij,ij->i", diff, diff)
        probed = np.zeros(self._nlist, dtype=bool)
        probed[np.argsort(cd, kind="stable")[:nprobe]] = True
        return np.flatnonzero(probed[self._table.tags])
