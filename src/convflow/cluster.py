"""Quantization of the embedding sphere: seeded spherical k-means,
average-linkage agglomerative clustering under cosine distance, dendrogram
cuts, and representative-member extraction.

A clustering is a tuple of ids, an int label array aligned with it, and one
unit centroid per cluster; the id -> cluster dict and the member lists are
derived from those arrays.

Everything here is deterministic: seeded initialization, id-ordered
tie-breaking, and single-threaded merge loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .embedding import EmbeddingStore, l2_normalize, row_norms
from .errors import InputError
from .seeding import substream

KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6  # stop once the centroids move less than this in total


@dataclass(frozen=True)
class Clustering:
    """A partition of utterance ids: `ids[i]` is in cluster `labels[i]`."""

    ids: tuple[str, ...]
    labels: np.ndarray  # read-only int cluster id of each id
    centroids: np.ndarray  # (k, dim) unit rows

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.intp)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def k(self) -> int:
        return len(self.centroids)

    @cached_property
    def assignment(self) -> dict[str, int]:
        return dict(zip(self.ids, self.labels.tolist()))

    @cached_property
    def _members(self) -> list[np.ndarray]:  # each cluster's ids, sorted
        order = np.array(sorted(range(len(self.ids)), key=self.ids.__getitem__), dtype=np.intp)
        order = order[np.argsort(self.labels[order], kind="stable")]
        bounds = np.cumsum(np.bincount(self.labels, minlength=self.k))[:-1]
        return np.split(np.array(self.ids, dtype=object)[order], bounds)

    def members(self, cluster_id: int) -> list[str]:
        if not 0 <= cluster_id < self.k:
            raise InputError(f"unknown cluster id {cluster_id}")
        return self._members[cluster_id].tolist()


def _renormalized_mean(rows: np.ndarray) -> np.ndarray:
    try:
        return l2_normalize(rows.mean(axis=0))
    except InputError:  # antipodal members cancel out; fall back to the first member
        return l2_normalize(rows[0])


# ---------------------------------------------------------------------------
# Spherical k-means
# ---------------------------------------------------------------------------

def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ on cosine distance: next centroid drawn with
    probability proportional to squared distance to the nearest pick."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = x[first]
    dist = 1.0 - np.clip(x @ centroids[0], -1.0, 1.0)
    for c in range(1, k):
        weights = dist**2
        total = float(weights.sum())
        if total == 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=weights / total))
        centroids[c] = x[idx]
        dist = np.minimum(dist, 1.0 - np.clip(x @ centroids[c], -1.0, 1.0))
    return centroids


def kmeans(
    store: EmbeddingStore,
    ids: list[str],
    k: int,
    seed: int = 0,
    return_history: bool = False,
):
    """Spherical k-means: assignment by max cosine, centroids re-normalized
    means, at most KMEANS_MAX_ITER iterations. Each empty cluster is
    repaired by reseeding from the point farthest from its centroid among
    clusters of two or more members, keeping k exact.
    Deterministic for a fixed seed.

    With `return_history`, also returns the per-iteration objective (sum of
    member-centroid cosines), which is non-decreasing."""
    if not store.normalized:
        raise InputError("kmeans requires a normalized store")
    if k < 1:
        raise InputError("k must be >= 1")
    if k > len(ids):
        raise InputError(f"k={k} exceeds {len(ids)} items")
    x = store.matrix(list(ids))
    rng = substream(seed, "kmeans", k)
    centroids = _kmeans_pp_init(x, k, rng)
    assign = np.zeros(len(ids), dtype=int)
    history: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        sims = x @ centroids.T
        assign = np.argmax(sims, axis=1)
        own = sims[np.arange(len(ids)), assign]
        counts = np.bincount(assign, minlength=k)
        # repair each empty cluster from the farthest point whose cluster
        # keeps a member, so no repair empties a cluster again
        for c in np.flatnonzero(counts == 0):
            donors = np.flatnonzero(counts[assign] > 1)
            farthest = int(donors[np.argmin(own[donors])])
            counts[assign[farthest]] -= 1
            counts[c] = 1
            assign[farthest] = c
            centroids[c] = x[farthest]
        new_centroids = np.empty_like(centroids)
        for c in range(k):
            new_centroids[c] = _renormalized_mean(x[assign == c])
        movement = float(row_norms(new_centroids - centroids).sum())
        centroids = new_centroids
        if return_history:
            history.append(float(np.sum(x * centroids[assign])))
        if movement < KMEANS_TOL:
            break
    clustering = Clustering(ids=tuple(ids), labels=assign, centroids=centroids)
    if return_history:
        return clustering, history
    return clustering


# ---------------------------------------------------------------------------
# Agglomerative clustering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dendrogram:
    """Full merge tree. Leaves are numbered 0..len(leaves)-1 in input
    order; merge t creates node len(leaves)+t. Each merge is
    (left, right, distance, size) with left < right."""

    leaves: tuple[str, ...]
    merges: tuple[tuple[int, int, float, int], ...]


def agglomerative(store: EmbeddingStore, ids: list[str]) -> Dendrogram:
    """Average-linkage agglomerative clustering with cosine distance,
    via Lance-Williams updates. Ties break on the smallest (left, right)
    node-id pair.

    Greedy global minimum over one n x n distance matrix: a merged cluster
    takes the lower of its two rows, the other row and column become inf.
    Each row's minimum is cached, so a merge scans a length-n vector, the
    rows tied at the global minimum, the merged row, and the rows whose
    minimum sat on one of the two merged columns. Any other row keeps its
    minimum or takes its new entry in the merged column, whichever is
    lower. Memory is O(n^2); time is O(n^2) unless many rows share the
    merged pair as their nearest neighbour, up to O(n^3) when all do."""
    if len(ids) < 2:
        raise InputError("agglomerative clustering needs at least 2 items")
    x = store.matrix(list(ids))
    n = len(ids)
    active = x @ x.T
    np.clip(active, -1.0, 1.0, out=active)
    np.subtract(1.0, active, out=active)
    np.fill_diagonal(active, np.inf)
    row_min = active.min(axis=1)
    alive = np.ones(n, dtype=bool)
    node_ids = np.arange(n)  # row -> dendrogram node id
    sizes = np.ones(n, dtype=np.int64)
    merges: list[tuple[int, int, float, int]] = []
    for next_id in range(n, 2 * n - 1):
        dmin = row_min.min()
        tie_rows = np.flatnonzero(row_min == dmin)
        tie_at, cols = np.nonzero(active[tie_rows] == dmin)
        rows = tie_rows[tie_at]
        lows = np.minimum(node_ids[rows], node_ids[cols])
        highs = np.maximum(node_ids[rows], node_ids[cols])
        best = np.lexsort((highs, lows))[0]
        r, c = sorted((int(rows[best]), int(cols[best])))
        ni, nj = int(sizes[r]), int(sizes[c])
        merges.append((int(lows[best]), int(highs[best]), float(dmin), ni + nj))
        stale = alive & ((active[:, r] == row_min) | (active[:, c] == row_min))
        # Lance-Williams average-linkage update into row/col r
        merged_row = (ni * active[r] + nj * active[c]) / (ni + nj)
        active[r, :] = merged_row
        active[:, r] = merged_row
        active[r, r] = np.inf
        active[c, :] = np.inf
        active[:, c] = np.inf
        alive[c] = False
        stale[[r, c]] = True  # row c is all inf now
        # an average can round up to two ulps below both of its inputs, so
        # below the minimum of a row that is not stale
        np.minimum(row_min, merged_row, out=row_min)
        row_min[stale] = active[stale].min(axis=1)
        node_ids[r] = next_id
        sizes[r] = ni + nj
    return Dendrogram(leaves=tuple(ids), merges=tuple(merges))


def cut(dendrogram: Dendrogram, store: EmbeddingStore, n_clusters: int) -> Clustering:
    """Flatten a dendrogram into `n_clusters` clusters by undoing its last
    n_clusters - 1 merges. Cluster ids follow the input order of each
    cluster's first leaf; centroids are re-normalized means."""
    n = len(dendrogram.leaves)
    if not 1 <= n_clusters <= n:
        raise InputError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    applied_count = n - n_clusters
    top = list(range(n + applied_count))  # each node's topmost ancestor among the applied merges
    for t in reversed(range(applied_count)):
        left, right = dendrogram.merges[t][:2]
        top[left] = top[right] = top[n + t]
    roots: dict[int, int] = {}  # root node -> cluster id, in first-leaf order
    labels = np.array([roots.setdefault(top[i], len(roots)) for i in range(n)])
    x = store.matrix(list(dendrogram.leaves))
    centroids = np.stack([_renormalized_mean(x[labels == c]) for c in range(len(roots))])
    return Clustering(ids=dendrogram.leaves, labels=labels, centroids=centroids)


def representative(store: EmbeddingStore, clustering: Clustering, cluster_id: int) -> str:
    """The member closest to the cluster centroid; ties go to the lowest id."""
    members = clustering.members(cluster_id)
    if not members:
        raise InputError(f"cluster {cluster_id} is empty")
    centroid = clustering.centroids[cluster_id]
    # 1 x dim products round like `row @ centroid`; a gemv may not, and flip a tie
    sims = store.matrix(members)[:, None, :] @ centroid[:, None]
    return members[int(np.argmax(sims))]  # members are sorted: the lowest id wins ties


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def dendrogram_to_text(dendrogram: Dendrogram) -> str:
    """Merge list as tab-separated (left, right, distance, size) rows,
    the layout standard dendrogram renderers consume."""
    lines = ["# left\tright\tdistance\tsize"]
    for left, right, d, size in dendrogram.merges:
        lines.append(f"{left}\t{right}\t{d:.12g}\t{size}")
    return "\n".join(lines) + "\n"


def clustering_to_text(clustering: Clustering) -> str:
    """One `id<TAB>cluster` line per id, sorted by id."""
    return "\n".join(f"{uid}\t{c}" for uid, c in sorted(zip(clustering.ids, clustering.labels.tolist()))) + "\n"
