import contextlib
import hashlib
import http.server
import json
import threading

import numpy as np
import pytest

from convflow import remote
from convflow.embedding import (
    EmbeddingStore,
    build_store,
    fetch_remote,
    hashed_bow_vector,
    l2_normalize,
    load_embeddings,
    save_embeddings,
)
from convflow.errors import (
    ConflictError,
    DegenerateVectorError,
    FormatError,
    ProtocolError,
    RemoteError,
)


def test_l2_normalize_345():
    assert np.allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])


def test_l2_normalize_idempotent():
    v = l2_normalize(np.array([1.0, 2.0, 2.0]))
    assert np.allclose(l2_normalize(v), v)


def test_l2_normalize_norm_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(rng.integers(1, 20))
        assert abs(np.linalg.norm(l2_normalize(v)) - 1.0) < 1e-9


def test_l2_normalize_zero_vector():
    with pytest.raises(DegenerateVectorError):
        l2_normalize(np.zeros(4))


def test_cosine_scale_invariance_through_normalize():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        a = rng.uniform(0.1, 10.0)
        base = float(l2_normalize(u) @ l2_normalize(v))
        scaled = float(l2_normalize(a * u) @ l2_normalize(v))
        assert abs(base - scaled) < 1e-12


def test_jsonl_load(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text('{"id": "a", "vector": [1, 0, 0, 0]}\n{"id": "b", "vector": [0, 1, 0, 0]}\n')
    store = load_embeddings(str(path), format="jsonl")
    assert len(store) == 2 and store.dim == 4


def test_jsonl_dim_mismatch(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text('{"id": "a", "vector": [1, 0, 0, 0]}\n{"id": "b", "vector": [0, 1, 0]}\n')
    with pytest.raises(FormatError) as exc:
        load_embeddings(str(path), format="jsonl")
    assert "'b'" in str(exc.value)


def test_duplicate_id(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text('{"id": "a", "vector": [1, 0]}\n{"id": "a", "vector": [0, 1]}\n')
    with pytest.raises(ConflictError):
        load_embeddings(str(path), format="jsonl")


def test_binary_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(5)
    for seed in range(5):
        pairs = [(f"id{i}", rng.standard_normal(8)) for i in range(seed + 1)]
        store = build_store(pairs)
        p1 = tmp_path / f"a{seed}.bin"
        p2 = tmp_path / f"b{seed}.bin"
        save_embeddings(store, str(p1), format="binary")
        again = load_embeddings(str(p1), format="binary")
        save_embeddings(again, str(p2), format="binary")
        assert p1.read_bytes() == p2.read_bytes()


def test_load_order_independent(tmp_path):
    lines = ['{"id": "a", "vector": [1, 0]}', '{"id": "b", "vector": [0, 1]}']
    p1 = tmp_path / "fwd.jsonl"
    p2 = tmp_path / "rev.jsonl"
    p1.write_text("\n".join(lines) + "\n")
    p2.write_text("\n".join(reversed(lines)) + "\n")
    s1 = load_embeddings(str(p1), format="jsonl")
    s2 = load_embeddings(str(p2), format="jsonl")
    assert s1.ids() == s2.ids()
    for uid in s1.ids():
        assert np.array_equal(s1.get(uid), s2.get(uid))


def test_normalized_store_pairwise_matches_definitional_cosine():
    rng = np.random.default_rng(7)
    pairs = [(f"u{i}", rng.standard_normal(6)) for i in range(10)]
    store = build_store(pairs, normalize=True)
    ids = store.ids()
    mat = store.matrix(ids)
    gram = mat @ mat.T
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            raw_a, raw_b = dict(pairs)[a], dict(pairs)[b]
            definitional = float(np.dot(raw_a, raw_b) / (np.linalg.norm(raw_a) * np.linalg.norm(raw_b)))
            assert abs(gram[i, j] - definitional) < 1e-9


def test_store_normalize_matches_l2_normalize_bit_for_bit():
    rng = np.random.default_rng(3)
    for dim in (3, 64, 257):
        pairs = [(f"u{i}", rng.uniform(0.1, 10.0) * rng.standard_normal(dim)) for i in range(100)]
        for store in (build_store(pairs, normalize=True), build_store(pairs).normalize()):
            for uid, vec in pairs:
                assert np.array_equal(store.get(uid), l2_normalize(vec))


def test_store_normalize_rejects_a_zero_vector():
    pairs = [("a", np.array([1.0, 0.0])), ("z", np.zeros(2))]
    with pytest.raises(DegenerateVectorError):
        build_store(pairs, normalize=True)
    with pytest.raises(DegenerateVectorError):
        build_store(pairs).normalize()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("normalize", [False, True])
def test_store_rejects_non_finite_values(bad, normalize):
    pairs = [("a", np.array([1.0, 0.0])), ("b", np.array([0.5, bad]))]
    with pytest.raises(FormatError, match="'b'"):
        build_store(pairs, normalize=normalize)
    with pytest.raises(FormatError, match="'b'"):
        EmbeddingStore(dim=2, vectors=dict(pairs))


def test_store_rows_are_read_only_and_matrix_is_a_copy():
    source = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
    store = EmbeddingStore(dim=2, vectors=source)
    source["a"][0] = 9.0  # the store holds its own copy
    assert np.array_equal(store.get("a"), [1.0, 2.0])
    for row in (store.get("a"), store.vectors["b"], store.normalize().get("b")):
        with pytest.raises(ValueError):
            row[0] = 9.0
    mat = store.matrix(["b", "a"])
    mat[0, 0] = 9.0
    assert np.array_equal(store.matrix(["b", "a"]), [[3.0, 4.0], [1.0, 2.0]])
    assert store.matrix([]).shape == (0, 2)


def test_hashed_bow_deterministic_and_unit():
    a = hashed_bow_vector("request the phone number", 64)
    b = hashed_bow_vector("request the phone number", 64)
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_hashed_bow_splits_underscores():
    a = hashed_bow_vector("phone_number", 128, normalize=False)
    b = hashed_bow_vector("phone number", 128, normalize=False)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Remote fetch against a local mock server
# ---------------------------------------------------------------------------

class _MockHandler(http.server.BaseHTTPRequestHandler):
    calls = 0
    fail_next = 0
    status_for_all = None

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        if cls.status_for_all is not None:
            self.send_response(cls.status_for_all)
            self.end_headers()
            return
        if cls.fail_next > 0:
            cls.fail_next -= 1
            self.send_response(503)
            self.end_headers()
            return
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        texts = payload["texts"]
        vectors = [[float(len(t)), 1.0, 0.0] for t in texts]
        body = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def mock_server(monkeypatch):
    monkeypatch.setattr(remote, "sleep", lambda seconds: None)
    _MockHandler.calls = 0
    _MockHandler.fail_next = 0
    _MockHandler.status_for_all = None
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _MockHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/embed"
    server.shutdown()
    server.server_close()


def test_fetch_remote_empty_list(mock_server):
    store = fetch_remote(mock_server, [])
    assert len(store) == 0


def test_fetch_remote_matches_mock_payload(mock_server):
    store = fetch_remote(mock_server, ["ab", "defg"], ids=["x", "y"])
    assert np.allclose(store.get("x"), [2.0, 1.0, 0.0])
    assert np.allclose(store.get("y"), [4.0, 1.0, 0.0])


def test_fetch_remote_retries_transient_then_succeeds(mock_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(remote, "sleep", sleeps.append)
    _MockHandler.fail_next = 2
    store = fetch_remote(mock_server, ["abc"])
    assert np.allclose(store.get("0"), [3.0, 1.0, 0.0])
    assert _MockHandler.calls == 3
    assert sleeps == [0.5, 1.0]


def test_fetch_remote_non_transient_raises(mock_server):
    _MockHandler.status_for_all = 403
    with pytest.raises(RemoteError) as exc:
        fetch_remote(mock_server, ["abc"])
    assert exc.value.status == 403


def test_fetch_remote_cache_hit_avoids_network(mock_server, tmp_path):
    cache = str(tmp_path / "cache")
    fetch_remote(mock_server, ["hello", "bye"], cache_dir=cache)
    first_calls = _MockHandler.calls
    store = fetch_remote(mock_server, ["hello", "bye"], cache_dir=cache)
    assert _MockHandler.calls == first_calls  # zero new requests
    assert np.allclose(store.get("0"), [5.0, 1.0, 0.0])


def test_fetch_remote_truncated_cache_entry_is_a_miss(mock_server, tmp_path):
    cache = tmp_path / "cache"
    fetch_remote(mock_server, ["hello"], cache_dir=str(cache))
    (entry,) = cache.iterdir()
    entry.write_text(entry.read_text()[:7])
    before = _MockHandler.calls
    store = fetch_remote(mock_server, ["hello"], cache_dir=str(cache))
    assert _MockHandler.calls == before + 1
    assert np.allclose(store.get("0"), [5.0, 1.0, 0.0])
    assert list(cache.iterdir()) == [entry]
    assert json.loads(entry.read_text()) == {"vector": [5.0, 1.0, 0.0]}


def test_fetch_remote_cache_key_is_sha256_of_endpoint_and_text(mock_server, tmp_path):
    key = hashlib.sha256(f"{mock_server}\nhello".encode("utf-8")).hexdigest()
    (tmp_path / f"{key}.json").write_text(json.dumps({"vector": [7.0, 0.0, 1.0]}))
    store = fetch_remote(mock_server, ["hello"], cache_dir=str(tmp_path))
    assert _MockHandler.calls == 0
    assert np.allclose(store.get("0"), [7.0, 0.0, 1.0])


@contextlib.contextmanager
def _encoder_replying(vectors):
    """A local encoder that answers every request with `vectors`."""

    class Handler(_MockHandler):
        def do_POST(self):
            body = json.dumps({"vectors": vectors}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/embed"
    finally:
        server.shutdown()
        server.server_close()


def test_fetch_remote_count_mismatch():
    with _encoder_replying([[1.0]]) as url, pytest.raises(ProtocolError):
        fetch_remote(url, ["a", "b"])


def test_fetch_remote_mixed_lengths_is_a_protocol_error():
    with _encoder_replying([[1.0], [1.0, 1.0]]) as url, pytest.raises(ProtocolError, match="different lengths"):
        fetch_remote(url, ["a", "b"])


def test_store_normalize_flag():
    store = build_store([("a", np.array([3.0, 4.0]))], normalize=True)
    assert store.normalized
    assert np.allclose(store.get("a"), [0.6, 0.8])
