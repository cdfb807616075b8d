import json
import struct
import tracemalloc

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
    row_norms,
    save_embeddings,
    tokenize,
)
from convflow.errors import InputError, RemoteError, UnavailableError
from mockserver import Handler, serving


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
    with pytest.raises(InputError, match="cannot normalize the zero vector"):
        l2_normalize(np.zeros(4))


def test_row_norms_round_as_np_linalg_norm_of_each_row_alone():
    rng = np.random.default_rng(4)
    for n, dim in ((1, 3), (7, 4), (60, 16), (60, 64), (300, 257), (5, 2048)):
        x = rng.uniform(0.01, 100.0) * rng.standard_normal((n, dim))
        assert np.array_equal(row_norms(x), [np.linalg.norm(row) for row in x])


def test_row_norms_and_l2_normalize_at_the_float_limits():
    """A nonzero finite row whose square over- or underflows is divided by its
    largest |x| first, in place too; every other row keeps its bits."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 4))
    want_norms, want_units = row_norms(x), l2_normalize(x)
    x[1], x[4] = [1e308] * 4, [5e-324, 0.0, 0.0, 0.0]
    x[2], x[5] = [1e-170, 1e-170, 0.0, 0.0], [-1e-300, 0.0, 1e-300, 0.0]
    norms = row_norms(x)
    assert np.array_equal(norms[[0, 3]], want_norms[[0, 3]])
    assert norms[1] == np.inf and norms[4] == 5e-324 and norms[2] == 1e-170 * np.sqrt(2.0)
    assert l2_normalize(x, out=x) is x and np.array_equal(x[[0, 3]], want_units[[0, 3]])
    assert np.array_equal(x[1], [0.5] * 4) and np.array_equal(x[4], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(x[[2, 5]], l2_normalize(np.array([[1.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 1.0, 0.0]])))
    with pytest.raises(InputError, match="cannot normalize the zero vector"):
        l2_normalize(np.array([[1e308, 0.0], [0.0, 0.0]]))

def test_l2_normalize_takes_a_matrix_row_by_row_and_in_place():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 9))
    rows = l2_normalize(x)
    assert rows.shape == x.shape and l2_normalize(x[0]).shape == (9,)
    assert all(np.array_equal(row, l2_normalize(v)) for row, v in zip(rows, x))
    assert l2_normalize(x, out=x) is x and np.array_equal(x, rows)
    x[3] = 0.0
    with pytest.raises(InputError, match="cannot normalize the zero vector"):
        l2_normalize(x)


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
    path.write_text('{"id": "a", "vector": [1, 0, 0, 0]}\n{"id": "true", "vector": [0, 1e0, 0, -0.5]}\n')
    store = load_embeddings(str(path), format="jsonl")
    assert len(store) == 2 and store.dim == 4
    assert store["true"].tolist() == [0.0, 1.0, 0.0, -0.5]  # an id that reads "true" is no bool


def test_jsonl_dim_mismatch(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text('{"id": "a", "vector": [1, 0, 0, 0]}\n{"id": "b", "vector": [0, 1, 0]}\n')
    with pytest.raises(InputError, match="record 'b' has dim 3, expected 4"):
        load_embeddings(str(path), format="jsonl")


@pytest.mark.parametrize(
    "record,error",
    [('{"id": "b", "vector": ' + vector + "}", "'vector' must be a list of numbers")
     for vector in ('["x", 0]', '["1.5", 0]', '[null, 0]', '[[1], [0]]', '"10"', "[true, 0]", "[0, false]")]
    + [("7", "record needs 'id' and 'vector'")]
    + [('{"id": ' + uid + ', "vector": [0, 1]}', "'id' must be a string, got " + got)
       for uid, got in (("null", "None"), ("7", "7"), ('["b"]', r"\['b'\]"))],
)
def test_jsonl_malformed_record_is_a_format_error(tmp_path, record, error):
    path = tmp_path / "e.jsonl"
    path.write_text('{"id": "a", "vector": [1, 0]}\n' + record + "\n")
    with pytest.raises(InputError, match=f":2: {error}"):
        load_embeddings(str(path), format="jsonl")


def _binary_file(tmp_path) -> tuple:
    path = tmp_path / "e.bin"
    save_embeddings(build_store([("a", np.array([1.0, 0.0])), ("b", np.array([0.0, 1.0]))]), str(path), format="binary")
    return path, bytearray(path.read_bytes())


def test_binary_id_not_utf8_is_a_format_error(tmp_path):
    path, data = _binary_file(tmp_path)
    data[19] = 0xFF  # the first byte of the first id, after the 17-byte header and the u16 id length
    path.write_bytes(data)
    with pytest.raises(InputError, match="id at byte 19 is not valid UTF-8"):
        load_embeddings(str(path), format="binary")


@pytest.mark.parametrize("damage", ["appended", "count-one-short"])
def test_binary_bytes_after_the_declared_records_are_a_format_error(tmp_path, damage):
    path, data = _binary_file(tmp_path)
    if damage == "appended":
        data += b"junk"
    else:
        struct.pack_into("<Q", data, 9, 1)
    path.write_bytes(data)
    with pytest.raises(InputError, match="bytes after the"):
        load_embeddings(str(path), format="binary")


def test_load_embeddings_reads_the_format_from_the_first_four_bytes(tmp_path):
    path, _ = _binary_file(tmp_path)
    store = load_embeddings(str(path))
    assert store.ids() == ["a", "b"] and store["b"].tolist() == [0.0, 1.0]
    jsonl = tmp_path / "e.jsonl"
    save_embeddings(store, str(jsonl), format="jsonl")
    assert np.array_equal(load_embeddings(str(jsonl)).matrix(["a", "b"]), store.matrix(["a", "b"]))
    with pytest.raises(InputError, match="e.bin:1: not UTF-8 at byte 22 of the line"):
        load_embeddings(str(path), format="jsonl")  # a named format is taken as given


def test_store_dim_comes_from_the_matrix(tmp_path):
    assert build_store([]).dim == 0
    assert EmbeddingStore({"a": 0}, np.ones((1, 4))).dim == 4
    path = tmp_path / "empty.bin"
    path.write_bytes(b"D2FV" + struct.pack("<BIQ", 1, 7, 0))
    store = load_embeddings(str(path))
    assert len(store) == 0 and store.dim == 7


def test_duplicate_id(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text('{"id": "a", "vector": [1, 0]}\n{"id": "a", "vector": [0, 1]}\n')
    with pytest.raises(InputError, match="duplicate id 'a'"):
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


def test_load_binary_releases_the_file_bytes_before_converting(tmp_path):
    """At the float32 -> float64 conversion, only the gathered float32
    vectors are transient: the file's bytes are already released."""
    rng = np.random.default_rng(3)
    path = tmp_path / "e.bin"
    save_embeddings(build_store([(f"utt{i}", rng.standard_normal(64)) for i in range(2000)]), str(path), format="binary")
    tracemalloc.start()
    try:
        store = load_embeddings(str(path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gathered = store.array.nbytes // 2
    # gathered plus the id table's growth; with the file's bytes still held, plus the file size
    assert peak - kept < gathered + path.stat().st_size / 2


def _reference_save_binary(store: EmbeddingStore, path: str) -> None:
    """One write per field, each vector cast to f32 on its own."""
    ids = store.ids()
    with open(path, "wb") as fh:
        fh.write(b"D2FV")
        fh.write(struct.pack("<B", 1))
        fh.write(struct.pack("<I", store.dim))
        fh.write(struct.pack("<Q", len(ids)))
        for uid in ids:
            raw = uid.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(np.asarray(store[uid], dtype="<f4").tobytes())


def test_save_binary_matches_the_per_field_writer(tmp_path):
    rng = np.random.default_rng(9)
    for n in (0, 1, 7, 40):
        ids = [f"d{i}:café{rng.integers(100)}-{i}" for i in rng.permutation(n)]  # rows out of id order
        store = build_store([(uid, rng.standard_normal(5) * 1e3) for uid in ids])
        save_embeddings(store, str(tmp_path / "got.bin"), format="binary")
        _reference_save_binary(store, str(tmp_path / "want.bin"))
        assert (tmp_path / "got.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()


def _reference_load_binary(path: str) -> EmbeddingStore:
    """One np.frombuffer per record, each vector cast to float64 on its own."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"D2FV":
        raise InputError(f"{path}: bad magic bytes {data[:4]!r}")
    if len(data) < 17:
        raise InputError(f"{path}: truncated header")
    if data[4] != 1:
        raise InputError(f"{path}: unsupported version {data[4]}")
    dim, count = struct.unpack_from("<IQ", data, 5)
    if count * (2 + 4 * dim) > len(data) - 17:
        raise InputError(f"{path}: {count} records of dim {dim} do not fit in {len(data)} bytes")
    matrix = np.empty((count, dim))
    index: dict[str, int] = {}
    off = 17
    for row in range(count):
        if off + 2 > len(data):
            raise InputError(f"{path}: truncated record header at byte {off}")
        (id_len,) = struct.unpack_from("<H", data, off)
        off += 2
        try:
            uid = data[off : off + id_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: the id at byte {off} is not valid UTF-8") from exc
        off += id_len
        if off + 4 * dim > len(data):
            raise InputError(f"{path}: truncated vector for id '{uid}'")
        if uid in index:
            raise InputError(f"duplicate id '{uid}'")
        index[uid] = row
        matrix[row] = np.frombuffer(data, dtype="<f4", count=dim, offset=off)
        off += 4 * dim
    if off != len(data):
        raise InputError(f"{path}: {len(data) - off} bytes after the {count} declared records")
    return EmbeddingStore(index, matrix)


def _binary_outcome(load, path):
    """The store's ids, row order and matrix bytes, or the InputError's message."""
    try:
        store = load(str(path))
    except InputError as exc:
        return str(exc)
    return list(store.index.items()), store.array.shape, store.array.dtype, store.array.tobytes()


def _binary_records(ids, dim, vectors_f4) -> bytes:
    """A binary file in the layout save_embeddings(format="binary") writes, for ids in the given order."""
    parts = [b"D2FV", struct.pack("<BIQ", 1, dim, len(ids))]
    for uid, vec in zip(ids, vectors_f4):
        raw = uid if isinstance(uid, bytes) else uid.encode("utf-8")
        parts += (struct.pack("<H", len(raw)), raw, vec.tobytes())
    return b"".join(parts)


def test_load_binary_matches_the_per_record_reader_on_valid_files(tmp_path):
    rng = np.random.default_rng(21)
    path = tmp_path / "e.bin"
    for n, dim in ((0, 0), (0, 7), (1, 0), (3, 0), (1, 1), (2, 3), (17, 5), (200, 64)):
        ids = [f"d{i}:{'é☃😀'[i % 3]}-{i}" for i in rng.permutation(n)]  # non-ASCII ids, rows out of id order
        vectors = (rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-40, 35, (n, 1))).astype("<f4")
        path.write_bytes(_binary_records(ids, dim, vectors))
        got = _binary_outcome(load_embeddings, path)
        assert got == _binary_outcome(_reference_load_binary, path), (n, dim)
        assert not isinstance(got, str) and got[1] == (n, dim)


def test_load_binary_matches_the_per_record_reader_on_malformed_files(tmp_path):
    vectors = np.arange(6, dtype="<f4").reshape(3, 2)
    data = _binary_records(["a", "bb", "ccc"], 2, vectors)  # 17-byte header, then records at bytes 17, 28 and 40

    def count(n: int, body: bytes = data) -> bytes:
        return body[:9] + struct.pack("<Q", n) + body[17:]

    # the header's count passes the fit check, but the long first id leaves 1 byte for the second header
    long_id = count(2, _binary_records(["a" * 9], 2, vectors[:1])) + b"\x00"
    non_finite = vectors.copy()
    non_finite[1, 1] = np.nan
    damaged = {
        "empty": b"",
        "bad magic": b"D2FX" + data[4:],
        "truncated header": data[:16],
        "unsupported version": data[:4] + b"\x02" + data[5:],
        "records do not fit": count(4),
        "huge count": count(2**60),
        "truncated record header": long_id,
        "truncated vector": data[:-5],
        "id not UTF-8": data[:19] + b"\xff" + data[20:],
        "id cut inside a UTF-8 sequence": _binary_records([b"\xc3", "bb", "ccc"], 2, vectors),
        "duplicate id": _binary_records(["a", "bb", "a"], 2, vectors),
        "trailing bytes": data + b"junk",
        "count one short": count(2),
        "non-finite value": _binary_records(["a", "bb", "ccc"], 2, non_finite),
    }
    path = tmp_path / "e.bin"
    for name, body in damaged.items():
        path.write_bytes(body)
        want = _binary_outcome(_reference_load_binary, path)
        assert isinstance(want, str), name  # each damage is one the reader rejects
        assert _binary_outcome(lambda p: load_embeddings(p, format="binary"), path) == want, name


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
        assert np.array_equal(s1[uid], s2[uid])


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
                assert np.array_equal(store[uid], l2_normalize(vec))


def test_store_normalize_rejects_a_zero_vector():
    pairs = [("a", np.array([1.0, 0.0])), ("z", np.zeros(2))]
    with pytest.raises(InputError, match="cannot normalize the zero vector"):
        build_store(pairs, normalize=True)
    with pytest.raises(InputError, match="cannot normalize the zero vector"):
        build_store(pairs).normalize()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("normalize", [False, True])
def test_store_rejects_non_finite_values(tmp_path, bad, normalize):
    pairs = [("a", np.array([1.0, 0.0])), ("b", np.array([0.5, bad]))]
    with pytest.raises(InputError, match="vector 'b' holds a non-finite value"):
        build_store(pairs, normalize=normalize)
    path, data = _binary_file(tmp_path)
    struct.pack_into("<f", data, len(data) - 4, bad)  # the last value of the last record, 'b'
    path.write_bytes(data)
    with pytest.raises(InputError, match="vector 'b' holds a non-finite value"):
        load_embeddings(str(path), format="binary")


def test_store_rows_are_read_only_and_matrix_is_a_copy():
    source = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
    store = build_store(list(source.items()))
    source["a"][0] = 9.0  # the store holds its own copy
    assert np.array_equal(store["a"], [1.0, 2.0])
    for row in (store["a"], store.normalize()["b"]):
        with pytest.raises(ValueError):
            row[0] = 9.0
    mat = store.matrix(["b", "a"])
    mat[0, 0] = 9.0
    assert np.array_equal(store.matrix(["b", "a"]), [[3.0, 4.0], [1.0, 2.0]])
    assert store.matrix([]).shape == (0, 2)


def test_hashed_bow_deterministic_raw_counts():
    a = hashed_bow_vector("request the phone number", 64)
    assert np.array_equal(a, hashed_bow_vector("request the phone number", 64))
    one = hashed_bow_vector("phone", 64)
    assert sorted(np.abs(one)) == [0.0] * 63 + [1.0]  # one signed count, not normalized
    assert np.array_equal(hashed_bow_vector("phone Phone PHONE", 64), 3 * one)
    assert not hashed_bow_vector("", 64).any()  # no tokens: the zero vector, not an error


def test_tokenize_lowercases_and_splits_on_whitespace_and_underscores():
    assert tokenize(" Request_the  phone_NUMBER\t") == ["request", "the", "phone", "number"]
    assert tokenize("_ _") == []


def test_hashed_bow_splits_underscores():
    a = hashed_bow_vector("phone_number", 128)
    b = hashed_bow_vector("phone number", 128)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Remote fetch against a local mock server
# ---------------------------------------------------------------------------

class _MockHandler(Handler):
    calls = 0
    posted: list[list[str]] = []  # the texts of each answered request, in order
    fail_next = 0
    fail_status = 503
    retry_after = None
    status_for_all = None

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        if cls.status_for_all is not None:
            self.reply(b"", cls.status_for_all)
            return
        if cls.fail_next > 0:
            cls.fail_next -= 1
            self.send_response(cls.fail_status)
            if cls.retry_after is not None:
                self.send_header("Retry-After", cls.retry_after)
            self.end_headers()
            return
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        texts = payload["texts"]
        cls.posted.append(texts)
        vectors = [[float(len(t)), 1.0, 0.0] for t in texts]
        self.reply(json.dumps({"vectors": vectors}).encode())


@pytest.fixture()
def mock_server(monkeypatch):
    monkeypatch.setattr(remote, "sleep", lambda seconds: None)
    _MockHandler.calls = 0
    _MockHandler.posted = []
    _MockHandler.fail_next = 0
    _MockHandler.fail_status = 503
    _MockHandler.retry_after = None
    _MockHandler.status_for_all = None
    with serving(_MockHandler, "/embed") as url:
        yield url


def test_fetch_remote_empty_list(mock_server):
    store = fetch_remote(mock_server, [], ids=[])
    assert len(store) == 0


def test_fetch_remote_matches_mock_payload(mock_server):
    store = fetch_remote(mock_server, ["ab", "defg"], ids=["x", "y"])
    assert np.allclose(store["x"], [2.0, 1.0, 0.0])
    assert np.allclose(store["y"], [4.0, 1.0, 0.0])


def test_fetch_remote_sends_full_batches_in_order(mock_server):
    texts = ["x" * (i + 1) for i in range(300)]  # the mock's vector is [len(text), 1, 0]
    ids = [f"id{i}" for i in range(300)]
    store = fetch_remote(mock_server, texts, ids=ids)
    assert _MockHandler.posted == [texts[:128], texts[128:256], texts[256:]]
    assert [len(batch) for batch in _MockHandler.posted] == [128, 128, 44]
    for i, uid in enumerate(ids):
        assert np.array_equal(store[uid], [i + 1.0, 1.0, 0.0])


def test_fetch_remote_retries_transient_then_succeeds(mock_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(remote, "sleep", sleeps.append)
    _MockHandler.fail_next = 2
    store = fetch_remote(mock_server, ["abc"], ids=["0"])
    assert np.allclose(store["0"], [3.0, 1.0, 0.0])
    assert _MockHandler.calls == 3
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize(
    "retry_after,expected",
    [(None, [0.5, 1.0]), ("0", [0.5, 1.0]), ("3", [3, 3]), ("Wed, 21 Oct 2015 07:28:00 GMT", [0.5, 1.0])],
    ids=["no-header", "shorter-than-backoff", "whole-seconds", "http-date"],
)
def test_fetch_remote_retries_429_waiting_at_least_retry_after(mock_server, monkeypatch, retry_after, expected):
    sleeps = []
    monkeypatch.setattr(remote, "sleep", sleeps.append)
    _MockHandler.fail_next = 2
    _MockHandler.fail_status = 429
    _MockHandler.retry_after = retry_after
    store = fetch_remote(mock_server, ["abc"], ids=["0"])
    assert np.allclose(store["0"], [3.0, 1.0, 0.0])
    assert _MockHandler.calls == 3
    assert sleeps == expected


def test_fetch_remote_429_past_the_retries_is_unavailable(mock_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(remote, "sleep", sleeps.append)
    _MockHandler.status_for_all = 429
    with pytest.raises(UnavailableError) as exc:
        fetch_remote(mock_server, ["abc"], ids=["0"])
    assert exc.value.status == 429
    assert _MockHandler.calls == remote.MAX_RETRIES + 1
    assert sleeps == [0.5, 1.0, 2.0]


def test_fetch_remote_non_transient_raises(mock_server):
    _MockHandler.status_for_all = 403
    with pytest.raises(RemoteError, match="failed: HTTP 403") as exc:
        fetch_remote(mock_server, ["abc"], ids=["0"])
    assert exc.value.status == 403


def test_post_json_refuses_port_0_before_sending(monkeypatch):
    sleeps = []
    monkeypatch.setattr(remote, "sleep", sleeps.append)
    with pytest.raises(InputError, match="names port 0, where no server listens"):
        remote.post_json("http://127.0.0.1:0/embed", {"texts": ["a"]}, None)
    assert sleeps == []


def _encoder_replying(vectors):
    """A local encoder that answers every request with `vectors`."""

    class Replying(Handler):
        def do_POST(self):
            self.reply(json.dumps({"vectors": vectors}).encode())

    return serving(Replying, "/embed")


def test_fetch_remote_count_mismatch():
    with _encoder_replying([[1.0]]) as url, pytest.raises(RemoteError, match="does not hold 2 vectors of finite numbers"):
        fetch_remote(url, ["a", "b"], ids=["0", "1"])


@pytest.mark.parametrize("reply", [[[1.0, 0.0], [0.0, 0.0]], [[1.0], [-0.0]], [[], []]])
def test_fetch_remote_vector_with_no_non_zero_entry_is_a_remote_error(reply):
    named = "'1'" if reply[0] else "'0'"
    with _encoder_replying(reply) as url, pytest.raises(RemoteError, match=f"no non-zero entry for id {named}"):
        fetch_remote(url, ["a", "b"], ids=["0", "1"])


def test_fetch_remote_integer_past_the_float_range_is_a_remote_error():
    with _encoder_replying([[1.0, 0.0], [10**400, 0.0]]) as url:
        with pytest.raises(RemoteError, match="does not hold 2 vectors of finite numbers"):
            fetch_remote(url, ["a", "b"], ids=["0", "1"])


def test_fetch_remote_mixed_lengths_is_a_protocol_error():
    with _encoder_replying([[1.0], [1.0, 1.0]]) as url, pytest.raises(RemoteError, match="different lengths"):
        fetch_remote(url, ["a", "b"], ids=["0", "1"])


def test_store_normalize_flag():
    store = build_store([("a", np.array([3.0, 4.0]))], normalize=True)
    assert store.normalized
    assert np.allclose(store["a"], [0.6, 0.8])
