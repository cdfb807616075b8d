import numpy as np
import pytest

from convflow.cluster import (
    KMEANS_MAX_ITER,
    Clustering,
    Dendrogram,
    agglomerative,
    clustering_to_text,
    cut,
    dendrogram_to_text,
    kmeans,
    representative,
)
from convflow.embedding import EmbeddingStore, build_store
from convflow.errors import InputError
from convflow.synth import planted_flow


def _store(vectors: dict[str, np.ndarray]) -> EmbeddingStore:
    return build_store(list(vectors.items()), normalize=True)


def _bundle(rng, center, n, spread=0.05):
    out = []
    for _ in range(n):
        v = center + spread * rng.standard_normal(len(center))
        out.append(v / np.linalg.norm(v))
    return out


# ---------------------------------------------------------------------------
# Spherical k-means
# ---------------------------------------------------------------------------

def test_kmeans_singletons_when_k_equals_points():
    store = _store({"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]})
    ids = ["a", "b", "c"]
    clustering = kmeans(store, ids, k=3, seed=0)
    assert sorted(clustering.assignment.values()) == [0, 1, 2]
    assert len({clustering.assignment[i] for i in ids}) == 3


def test_kmeans_recovers_antipodal_bundles():
    rng = np.random.default_rng(0)
    center = np.array([1.0, 0.0, 0.0, 0.0])
    vectors = {}
    for i, v in enumerate(_bundle(rng, center, 10)):
        vectors[f"p{i}"] = v
    for i, v in enumerate(_bundle(rng, -center, 10)):
        vectors[f"n{i}"] = v
    store = _store(vectors)
    ids = sorted(vectors)
    clustering = kmeans(store, ids, k=2, seed=1)
    pos = {clustering.assignment[f"p{i}"] for i in range(10)}
    neg = {clustering.assignment[f"n{i}"] for i in range(10)}
    assert len(pos) == 1 and len(neg) == 1 and pos != neg


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    vectors = {f"u{i}": v for i, v in enumerate(_bundle(rng, np.array([1.0, 0, 0]), 12, spread=0.5))}
    store = _store(vectors)
    ids = sorted(vectors)
    a = kmeans(store, ids, k=3, seed=9)
    b = kmeans(store, ids, k=3, seed=9)
    assert a.assignment == b.assignment
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_objective_non_decreasing():
    rng = np.random.default_rng(3)
    vectors = {f"u{i}": v for i, v in enumerate(_bundle(rng, np.array([1.0, 0, 0, 0]), 40, spread=1.0))}
    store = _store(vectors)
    ids = sorted(vectors)
    for seed in range(5):
        _, history = kmeans(store, ids, k=4, seed=seed, return_history=True)
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-9


def test_kmeans_partition_properties():
    rng = np.random.default_rng(4)
    vectors = {f"u{i}": v for i, v in enumerate(_bundle(rng, np.array([0, 1.0, 0]), 15, spread=0.8))}
    store = _store(vectors)
    ids = sorted(vectors)
    clustering = kmeans(store, ids, k=4, seed=5)
    assert set(clustering.assignment) == set(ids)
    for c in range(clustering.k):
        assert clustering.members(c)  # non-empty
        assert abs(np.linalg.norm(clustering.centroids[c]) - 1.0) < 1e-9


def test_kmeans_infeasible():
    store = _store({"a": [1, 0], "b": [0, 1]})
    with pytest.raises(InputError, match="k=3 exceeds 2 items"):
        kmeans(store, ["a", "b"], k=3, seed=0)


# ---------------------------------------------------------------------------
# Agglomerative
# ---------------------------------------------------------------------------

def test_agglomerative_coincident_pair_merges_first_at_zero():
    store = _store({"a": [1, 0], "b": [1, 0], "c": [0, 1]})
    dendro = agglomerative(store, ["a", "b", "c"])
    left, right, dist, size = dendro.merges[0]
    assert (left, right) == (0, 1)
    assert abs(dist) < 1e-12
    assert size == 2


def test_agglomerative_needs_two():
    store = _store({"a": [1, 0]})
    with pytest.raises(InputError, match="agglomerative clustering needs at least 2 items"):
        agglomerative(store, ["a"])


def _naive_average_linkage(x):
    """Independent O(n^3) recomputation: average pairwise cosine distance
    between cluster members, recomputed from scratch at every step."""
    n = len(x)
    base = 1.0 - np.clip(x @ x.T, -1.0, 1.0)
    clusters = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if a >= b:
                    continue
                d = float(np.mean([base[i, j] for i in clusters[a] for j in clusters[b]]))
                if best is None or d < best[0] - 1e-15 or (abs(d - best[0]) <= 1e-15 and (a, b) < best[1:3]):
                    best = (d, a, b)
        d, a, b = best
        merges.append((a, b, d, len(clusters[a]) + len(clusters[b])))
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        next_id += 1
    return merges


def test_agglomerative_matches_naive_recomputation():
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = int(rng.integers(4, 12))
        x = rng.standard_normal((n, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        store = _store({f"u{i}": x[i] for i in range(n)})
        dendro = agglomerative(store, [f"u{i}" for i in range(n)])
        expected = _naive_average_linkage(x)
        assert len(dendro.merges) == len(expected)
        for got, want in zip(dendro.merges, expected):
            assert got[0] == want[0] and got[1] == want[1]
            assert abs(got[2] - want[2]) < 1e-9
            assert got[3] == want[3]


# ---------------------------------------------------------------------------
# Reference implementation: the full-rescan merge loop the cached row minima
# replaced, kept as an oracle. Same Lance-Williams arithmetic in the same
# merge order, so merges must be equal, not merely close.
# ---------------------------------------------------------------------------

def _reference_agglomerative(store: EmbeddingStore, ids: list[str]) -> Dendrogram:
    """Average-linkage agglomerative clustering with cosine distance,
    via Lance-Williams updates. Ties break on the smallest (left, right)
    node-id pair."""
    if len(ids) < 2:
        raise InputError("agglomerative clustering needs at least 2 items")
    x = store.matrix(list(ids))
    n = len(ids)
    dist = 1.0 - np.clip(x @ x.T, -1.0, 1.0)
    np.fill_diagonal(dist, np.inf)

    node_ids = list(range(n))  # position -> dendrogram node id
    sizes = {i: 1 for i in range(n)}
    active = dist.copy()
    merges: list[tuple[int, int, float, int]] = []
    next_id = n
    for _ in range(n - 1):
        dmin = float(active.min())
        rows, cols = np.where(active == dmin)
        best = min(
            (min(node_ids[r], node_ids[c]), max(node_ids[r], node_ids[c]), r, c)
            for r, c in zip(rows, cols)
        )
        left_id, right_id, r, c = best
        if r > c:
            r, c = c, r
        size = sizes[left_id] + sizes[right_id]
        merges.append((left_id, right_id, dmin, size))
        # Lance-Williams average-linkage update into row/col r
        ni, nj = sizes[node_ids[r]], sizes[node_ids[c]]
        merged_row = (ni * active[r] + nj * active[c]) / (ni + nj)
        active[r, :] = merged_row
        active[:, r] = merged_row
        active[r, r] = np.inf
        active = np.delete(np.delete(active, c, axis=0), c, axis=1)
        node_ids[r] = next_id
        sizes[next_id] = size
        del node_ids[c]
        next_id += 1
    return Dendrogram(leaves=tuple(ids), merges=tuple(merges))


def test_agglomerative_equals_the_reference_on_a_planted_subsample():
    pf = planted_flow(k_user=5, k_system=5, n_dialogs=80, dim=16, seed=3)
    all_ids = sorted(pf.store.vectors)
    picks = np.random.default_rng(0).choice(len(all_ids), size=300, replace=False)
    ids = [all_ids[i] for i in sorted(picks)]
    assert agglomerative(pf.store, ids).merges == _reference_agglomerative(pf.store, ids).merges


def test_agglomerative_equals_the_reference_on_tie_heavy_inputs():
    # coordinates from {-1, 0, 1}: few distinct directions, many exact ties
    # at every height, and averages of equal distances that round
    rng = np.random.default_rng(13)
    for trial in range(300):
        n = int(rng.integers(2, 14))
        vectors = {}
        while len(vectors) < n:
            v = rng.integers(-1, 2, size=3)
            if v.any():
                vectors[f"u{len(vectors)}"] = v
        store = _store(vectors)
        ids = list(rng.permutation(sorted(vectors)))
        assert agglomerative(store, ids).merges == _reference_agglomerative(store, ids).merges, trial


def test_agglomerative_exact_ties_take_the_smallest_node_pair():
    # five orthonormal leaves: every distance, and every average of them,
    # is exactly 1. Each merge takes the smallest (left, right) node pair,
    # not the pair whose matrix row comes first: the second merge is (2, 3)
    # although node 5 sits in row 0.
    store = _store({f"e{i}": np.eye(5)[i] for i in range(5)})
    dendro = agglomerative(store, [f"e{i}" for i in range(5)])
    assert dendro.merges == (
        (0, 1, 1.0, 2),
        (2, 3, 1.0, 2),
        (4, 5, 1.0, 3),
        (6, 7, 1.0, 5),
    )


def test_agglomerative_heights_equal_scipy_linkage():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    rng = np.random.default_rng(14)
    x = rng.standard_normal((120, 8))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    store = _store({f"u{i:03d}": x[i] for i in range(120)})
    dendro = agglomerative(store, sorted(store.vectors))
    reference = hierarchy.linkage(x, method="average", metric="cosine")[:, 2]
    assert np.allclose([m[2] for m in dendro.merges], reference, rtol=0.0, atol=1e-9)


def test_agglomerative_merge_distances_non_decreasing():
    rng = np.random.default_rng(6)
    for trial in range(5):
        n = int(rng.integers(5, 20))
        x = rng.standard_normal((n, 5))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        store = _store({f"u{i}": x[i] for i in range(n)})
        dendro = agglomerative(store, [f"u{i}" for i in range(n)])
        dists = [m[2] for m in dendro.merges]
        for earlier, later in zip(dists, dists[1:]):
            assert later >= earlier - 1e-12


def _canonical_clusters(dendro, store, k):
    clustering = cut(dendro, store, n_clusters=k)
    groups = {}
    for uid, c in clustering.assignment.items():
        groups.setdefault(c, set()).add(uid)
    return sorted(tuple(sorted(g)) for g in groups.values())


def test_agglomerative_permutation_gives_same_tree():
    rng = np.random.default_rng(7)
    n = 10
    x = rng.standard_normal((n, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    vectors = {f"u{i}": x[i] for i in range(n)}
    store = _store(vectors)
    ids = [f"u{i}" for i in range(n)]
    base = agglomerative(store, ids)
    for _ in range(3):
        perm = [ids[i] for i in rng.permutation(n)]
        other = agglomerative(store, perm)
        for k in (2, 3, 5):
            assert _canonical_clusters(base, store, k) == _canonical_clusters(other, store, k)


# ---------------------------------------------------------------------------
# Cut
# ---------------------------------------------------------------------------

def test_cut_extremes():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    store = _store({f"u{i}": x[i] for i in range(6)})
    dendro = agglomerative(store, [f"u{i}" for i in range(6)])
    singletons = cut(dendro, store, n_clusters=6)
    assert singletons.k == 6
    everything = cut(dendro, store, n_clusters=1)
    assert everything.k == 1
    assert set(everything.assignment.values()) == {0}


def test_cut_exactly_k_nonempty():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((12, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    store = _store({f"u{i}": x[i] for i in range(12)})
    dendro = agglomerative(store, [f"u{i}" for i in range(12)])
    for k in range(1, 13):
        clustering = cut(dendro, store, n_clusters=k)
        assert clustering.k == k
        counts = {}
        for c in clustering.assignment.values():
            counts[c] = counts.get(c, 0) + 1
        assert len(counts) == k and all(v > 0 for v in counts.values())


def test_cut_out_of_range():
    store = _store({"a": [1, 0], "b": [0, 1]})
    dendro = agglomerative(store, ["a", "b"])
    with pytest.raises(InputError, match=r"n_clusters must be in \[1, 2\], got 3"):
        cut(dendro, store, n_clusters=3)
    with pytest.raises(InputError, match=r"n_clusters must be in \[1, 2\], got 0"):
        cut(dendro, store, n_clusters=0)


def test_agglomerative_cut_recovers_well_separated_bundles():
    rng = np.random.default_rng(11)
    centers = np.eye(4)
    vectors = {}
    for a in range(4):
        for i, v in enumerate(_bundle(rng, centers[a], 6, spread=0.05)):
            vectors[f"a{a}u{i}"] = v
    store = _store(vectors)
    ids = sorted(vectors)
    clustering = cut(agglomerative(store, ids), store, n_clusters=4)
    for a in range(4):
        assert len({clustering.assignment[f"a{a}u{i}"] for i in range(6)}) == 1


# ---------------------------------------------------------------------------
# Representative
# ---------------------------------------------------------------------------

def test_representative_singleton():
    store = _store({"a": [1, 0]})
    clustering = Clustering(ids=("a",), labels=[0], centroids=np.array([[1.0, 0.0]]))
    assert representative(store, clustering, 0) == "a"


def test_representative_tie_lowest_id():
    store = _store({"a": [1, 0], "b": [1, 0], "z": [0.6, 0.8]})
    clustering = Clustering(ids=("a", "b", "z"), labels=[0, 0, 0], centroids=np.array([[1.0, 0.0]]))
    assert representative(store, clustering, 0) == "a"


def test_representative_exhaustive_oracle():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((10, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    store = _store({f"u{i}": x[i] for i in range(10)})
    clustering = kmeans(store, [f"u{i}" for i in range(10)], k=3, seed=0)
    for c in range(3):
        got = representative(store, clustering, c)
        members = clustering.members(c)
        sims = {uid: float(store.vectors[uid] @ clustering.centroids[c]) for uid in members}
        best = min(members, key=lambda uid: (-sims[uid], uid))  # highest cosine, then lowest id
        assert got == best


def _reference_members(clustering: Clustering, cluster_id: int) -> list[str]:
    """The scan over every (id, cluster) pair that the argsort replaced."""
    if not 0 <= cluster_id < clustering.k:
        raise InputError(f"unknown cluster id {cluster_id}")
    return sorted(uid for uid, c in zip(clustering.ids, clustering.labels.tolist()) if c == cluster_id)


def _reference_representative(store: EmbeddingStore, clustering: Clustering, cluster_id: int) -> str:
    """One `row @ centroid` per member, in sorted order; strict > keeps the
    lowest id on ties."""
    members = _reference_members(clustering, cluster_id)
    if not members:
        raise InputError(f"cluster {cluster_id} is empty")
    centroid = clustering.centroids[cluster_id]
    best_id, best_sim = None, -np.inf
    for uid in members:
        sim = float(store.vectors[uid] @ centroid)
        if sim > best_sim:
            best_id, best_sim = uid, sim
    return best_id


def _assert_matches_the_references(store: EmbeddingStore, clustering: Clustering) -> None:
    for c in range(clustering.k):
        assert clustering.members(c) == _reference_members(clustering, c), c
        assert representative(store, clustering, c) == _reference_representative(store, clustering, c), c


def test_members_and_representative_equal_the_references_on_a_planted_corpus():
    pf = planted_flow(k_user=6, k_system=5, n_dialogs=120, dim=16, seed=4)
    for role in ("user", "system"):
        ids = [f"{d.dialog_id}:{i}" for d in pf.dialogs for i, t in enumerate(d.turns) if t.speaker == role]
        clustering = kmeans(pf.store, ids, k=6 if role == "user" else 5, seed=7)
        _assert_matches_the_references(pf.store, clustering)
        assert sorted(uid for c in range(clustering.k) for uid in clustering.members(c)) == sorted(ids)


def test_members_follow_sorted_ids_not_insertion_order():
    # "d:10" sorts before "d:2"; the ids arrive in neither sorted nor label order
    ids = ("d:2", "d:10", "d:1", "d:11", "d:3", "d:20")
    store = _store({uid: [1.0, 0.1 * i] for i, uid in enumerate(ids)})
    clustering = Clustering(ids=ids, labels=[1, 0, 1, 0, 2, 1], centroids=np.array([[1.0, 0.0]] * 3))
    assert clustering.members(0) == ["d:10", "d:11"]
    assert clustering.members(1) == ["d:1", "d:2", "d:20"]
    assert clustering.members(2) == ["d:3"]
    assert clustering.assignment == {"d:2": 1, "d:10": 0, "d:1": 1, "d:11": 0, "d:3": 2, "d:20": 1}
    _assert_matches_the_references(store, clustering)


def test_members_returns_a_fresh_list():
    clustering = Clustering(ids=("b", "a"), labels=[0, 0], centroids=np.array([[1.0]]))
    clustering.members(0).append("z")
    assert clustering.members(0) == ["a", "b"]
    with pytest.raises(ValueError, match="read-only"):
        clustering.labels[0] = 1


def test_representative_equals_the_reference_on_tie_heavy_vectors():
    # coordinates from {-1, 0, 1}: many members share a vector, so the
    # representative is decided by the lowest-id tie-break
    rng = np.random.default_rng(21)
    for case in range(40):
        n = int(rng.integers(4, 30))
        x = rng.integers(-1, 2, size=(n, 3)).astype(float)
        x[np.all(x == 0, axis=1), 0] = 1.0
        ids = [f"u{int(i)}" for i in rng.permutation(n)]
        store = build_store(list(zip(ids, x)), normalize=True)
        k = int(rng.integers(1, min(n, 5) + 1))
        _assert_matches_the_references(store, kmeans(store, ids, k, seed=case))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # every cluster keeps a member
        centroids = np.stack([store.matrix(ids)[labels == c].mean(axis=0) for c in range(k)])
        hand = Clustering(ids=tuple(ids), labels=labels, centroids=centroids)
        _assert_matches_the_references(store, hand)


def test_representative_of_an_empty_cluster_raises():
    store = _store({"a": [1, 0], "b": [0, 1]})
    clustering = Clustering(ids=("a", "b"), labels=[0, 2], centroids=np.eye(3)[:, :2])
    assert clustering.members(1) == []
    with pytest.raises(InputError, match="^cluster 1 is empty$"):
        representative(store, clustering, 1)
    with pytest.raises(InputError, match="^cluster 1 is empty$"):
        _reference_representative(store, clustering, 1)


@pytest.mark.parametrize("cluster_id", [-1, 2, 3])
def test_members_and_representative_reject_an_unknown_cluster_id(cluster_id):
    store = _store({"a": [1, 0], "b": [0, 1]})
    clustering = Clustering(ids=("a", "b"), labels=[0, 1], centroids=np.eye(2))
    with pytest.raises(InputError, match=f"^unknown cluster id {cluster_id}$"):
        clustering.members(cluster_id)
    with pytest.raises(InputError, match=f"^unknown cluster id {cluster_id}$"):
        representative(store, clustering, cluster_id)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def test_dendrogram_export_format():
    store = _store({"a": [1, 0], "b": [1, 0], "c": [0, 1]})
    dendro = agglomerative(store, ["a", "b", "c"])
    text = dendrogram_to_text(dendro)
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) == 3  # header + 2 merges


def test_clustering_export_format():
    clustering = Clustering(ids=("b", "a"), labels=[1, 0], centroids=np.eye(2))
    assert clustering_to_text(clustering) == "a\t0\nb\t1\n"


def test_clustering_export_equals_the_assignment_dict_rendering():
    """The export writes from the aligned ids and labels; the oracle is the
    rendering it had through the id -> cluster dict. Ids sort as strings:
    'd:10' before 'd:2'."""
    rng = np.random.default_rng(12)
    ids = [f"d:{i}" for i in rng.permutation(25)] + ["e:1", "d:100", "c:0"]
    clustering = Clustering(ids=tuple(ids), labels=rng.integers(0, 4, len(ids)), centroids=np.eye(4))
    oracle = "\n".join(f"{uid}\t{c}" for uid, c in sorted(clustering.assignment.items())) + "\n"
    assert clustering_to_text(clustering) == oracle
    assert oracle.index("d:10\t") < oracle.index("d:2\t")


def test_kmeans_empty_cluster_repair_keeps_k_exact():
    # only two distinct directions but k=3: initialization must duplicate a
    # centroid, leaving one cluster empty; the farthest-point repair has to
    # restore exactly 3 non-empty clusters
    store = _store({"a": [1, 0], "b": [1, 0], "c": [0, 1], "d": [0, 1]})
    clustering = kmeans(store, ["a", "b", "c", "d"], k=3, seed=0)
    assert clustering.k == 3
    counts = {}
    for c in clustering.assignment.values():
        counts[c] = counts.get(c, 0) + 1
    assert len(counts) == 3 and all(v > 0 for v in counts.values())


def test_kmeans_repair_never_empties_a_repaired_cluster():
    # every point's own cosine is 1.0, so a repair that picked the globally
    # farthest point would move the point an earlier repair had just moved
    store = build_store([("a", [1, 0]), ("b", [1, 0]), ("c", [1, 0])], normalize=True)
    clustering, history = kmeans(store, ["a", "b", "c"], 3, return_history=True)
    assert sorted(clustering.assignment.values()) == [0, 1, 2]
    assert np.isfinite(clustering.centroids).all()
    assert len(history) < KMEANS_MAX_ITER


def test_kmeans_repeated_vectors_fuzz():
    # 3-8 points drawn from 1-3 distinct directions, k up to n: every cluster
    # stays non-empty, the centroids finite, and k-means converges
    rng = np.random.default_rng(20)
    for case in range(300):
        n = int(rng.integers(3, 9))
        directions = rng.standard_normal((int(rng.integers(1, 4)), 3))
        ids = [f"p{i}" for i in range(n)]
        store = build_store([(uid, directions[rng.integers(len(directions))]) for uid in ids], normalize=True)
        k = int(rng.integers(1, n + 1))
        clustering, history = kmeans(store, ids, k, seed=case, return_history=True)
        assert set(clustering.assignment.values()) == set(range(k)), case
        assert np.isfinite(clustering.centroids).all(), case
        assert len(history) < KMEANS_MAX_ITER, case
