"""Embedding stores and the cosine-geometry primitives used everywhere.

Vectors are float64 in memory (gradient checks need the headroom) and
float32 in the binary file format. All similarity in this package is
cosine on unit vectors, so `l2_normalize` and `cosine` are the two
operations everything else reduces to.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import remote
from .errors import (
    ConflictError,
    DegenerateVectorError,
    EmptyPoolError,
    FormatError,
    InputError,
    ProtocolError,
    ShapeError,
)

BINARY_MAGIC = b"D2FV"
BINARY_VERSION = 1

ENV_EMBED_URL = "D2F_EMBED_URL"
ENV_EMBED_TOKEN = "D2F_EMBED_TOKEN"

REMOTE_BATCH_SIZE = 128


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Return v / ||v||. Idempotent; zero input is a hard error."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise DegenerateVectorError("cannot normalize the zero vector")
    return v / norm


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product of two unit vectors, clamped to [-1, 1] against rounding."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ShapeError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(np.clip(np.dot(u, v), -1.0, 1.0))


@dataclass(frozen=True)
class TokenMatrix:
    """Per-token vectors with a validity mask (padding rows are invalid)."""

    rows: np.ndarray
    mask: np.ndarray


def mean_pool(tokens: TokenMatrix) -> np.ndarray:
    """Arithmetic mean over valid rows only."""
    rows = np.asarray(tokens.rows, dtype=np.float64)
    mask = np.asarray(tokens.mask, dtype=bool)
    if rows.shape[0] != mask.shape[0]:
        raise ShapeError("mask length must match row count")
    if not mask.any():
        raise EmptyPoolError("mean_pool over an all-masked token matrix")
    return rows[mask].mean(axis=0)


@dataclass(frozen=True)
class EmbeddingStore:
    """Immutable id -> vector table with dimension metadata."""

    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    normalized: bool = False

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, uid: str) -> bool:
        return uid in self.vectors

    def get(self, uid: str) -> np.ndarray:
        return self.vectors[uid]

    def ids(self) -> list[str]:
        return sorted(self.vectors)

    def matrix(self, ids: list[str]) -> np.ndarray:
        """Rows for `ids` in the given order, shape (len(ids), dim)."""
        return np.stack([self.vectors[i] for i in ids]) if ids else np.empty((0, self.dim))

    def normalize(self) -> "EmbeddingStore":
        if self.normalized:
            return self
        vecs = {uid: l2_normalize(v) for uid, v in self.vectors.items()}
        return EmbeddingStore(dim=self.dim, vectors=vecs, normalized=True)


def build_store(pairs: list[tuple[str, np.ndarray]], normalize: bool = False) -> EmbeddingStore:
    """Assemble a store from (id, vector) pairs, enforcing one dim throughout."""
    if not pairs:
        return EmbeddingStore(dim=0, vectors={}, normalized=normalize)
    dim = len(np.asarray(pairs[0][1]).ravel())
    vectors: dict[str, np.ndarray] = {}
    for uid, vec in pairs:
        arr = np.asarray(vec, dtype=np.float64).ravel()
        if arr.shape[0] != dim:
            raise FormatError(f"record '{uid}' has dim {arr.shape[0]}, expected {dim}")
        if uid in vectors:
            raise ConflictError(f"duplicate id '{uid}'")
        vectors[uid] = l2_normalize(arr) if normalize else arr
    return EmbeddingStore(dim=dim, vectors=vectors, normalized=normalize)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def save_jsonl(store: EmbeddingStore, path: str) -> None:
    """One record per line: {"id": ..., "vector": [...]}; sorted by id."""
    with open(path, "w", encoding="utf-8") as fh:
        for uid in store.ids():
            rec = {"id": uid, "vector": [float(x) for x in store.vectors[uid]]}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _load_jsonl(path: str) -> list[tuple[str, np.ndarray]]:
    pairs: list[tuple[str, np.ndarray]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: invalid json ({exc.msg})") from exc
            if "id" not in rec or "vector" not in rec:
                raise FormatError(f"{path}:{lineno}: record needs 'id' and 'vector'")
            pairs.append((str(rec["id"]), np.asarray(rec["vector"], dtype=np.float64)))
    return pairs


def save_binary(store: EmbeddingStore, path: str) -> None:
    """Binary layout: magic 'D2FV', version u8, dim u32 LE, count u64 LE,
    then per record: id length u16 LE, UTF-8 id, dim little-endian f32."""
    ids = store.ids()
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<B", BINARY_VERSION))
        fh.write(struct.pack("<I", store.dim))
        fh.write(struct.pack("<Q", len(ids)))
        for uid in ids:
            raw = uid.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(np.asarray(store.vectors[uid], dtype="<f4").tobytes())


def _load_binary(path: str) -> tuple[int, list[tuple[str, np.ndarray]]]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != BINARY_MAGIC:
        raise FormatError(f"{path}: bad magic bytes {data[:4]!r}")
    version = data[4]
    if version != BINARY_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    dim = struct.unpack_from("<I", data, 5)[0]
    count = struct.unpack_from("<Q", data, 9)[0]
    off = 17
    pairs: list[tuple[str, np.ndarray]] = []
    for _ in range(count):
        if off + 2 > len(data):
            raise FormatError(f"{path}: truncated record header at byte {off}")
        (id_len,) = struct.unpack_from("<H", data, off)
        off += 2
        uid = data[off : off + id_len].decode("utf-8")
        off += id_len
        end = off + 4 * dim
        if end > len(data):
            raise FormatError(f"{path}: truncated vector for id '{uid}'")
        vec = np.frombuffer(data[off:end], dtype="<f4").astype(np.float64)
        off += 4 * dim
        pairs.append((uid, vec))
    return dim, pairs


def load_embeddings(path: str, format: str = "jsonl", normalize: bool = False) -> EmbeddingStore:
    """Load a store from disk; dim comes from the first record and is enforced."""
    if format == "jsonl":
        pairs = _load_jsonl(path)
        return build_store(pairs, normalize=normalize)
    if format == "binary":
        dim, pairs = _load_binary(path)
        store = build_store(pairs, normalize=normalize)
        if pairs and store.dim != dim:
            raise FormatError(f"{path}: header dim {dim} != record dim {store.dim}")
        if not pairs:
            store = EmbeddingStore(dim=dim, vectors={}, normalized=normalize)
        return store
    raise InputError(f"unknown embedding format '{format}'")


def save_embeddings(store: EmbeddingStore, path: str, format: str = "jsonl") -> None:
    if format == "jsonl":
        save_jsonl(store, path)
    elif format == "binary":
        save_binary(store, path)
    else:
        raise InputError(f"unknown embedding format '{format}'")


# ---------------------------------------------------------------------------
# Deterministic offline provider
# ---------------------------------------------------------------------------

def hashed_bow_vector(text: str, dim: int, normalize: bool = True) -> np.ndarray:
    """Deterministic hashed bag-of-words vector (signed hashing trick).

    Tokens are lowercased and split on whitespace and underscores, so
    snake_case compounds ("phone_number") share mass with their parts.
    The same text always maps to the same vector, independent of process
    or platform, which keeps label similarity tables reproducible offline.
    """
    v = np.zeros(dim, dtype=np.float64)
    for token in text.lower().replace("_", " ").split():
        digest = hashlib.md5(token.encode("utf-8")).digest()
        idx = int.from_bytes(digest[:8], "little") % dim
        sign = 1.0 if digest[8] & 1 else -1.0
        v[idx] += sign
    if not normalize:
        return v
    if not v.any():
        raise DegenerateVectorError(f"text {text!r} hashes to the zero vector")
    return l2_normalize(v)


# ---------------------------------------------------------------------------
# Remote encoder client
# ---------------------------------------------------------------------------

def _numeric_vector(value) -> np.ndarray | None:
    if not isinstance(value, list) or not all(type(x) in (int, float) for x in value):
        return None
    arr = np.asarray(value, dtype=np.float64)
    return arr if np.isfinite(arr).all() else None


def fetch_remote(
    endpoint: str,
    texts: list[str],
    token: str | None = None,
    ids: list[str] | None = None,
    cache_dir: str | None = None,
) -> EmbeddingStore:
    """Fetch one unnormalized vector per text from a remote encoder, in order.

    Protocol: POST {"texts": [...]} -> {"vectors": [[...], ...]}, REMOTE_BATCH_SIZE
    texts per request, sent by `remote.post_json` (bearer auth; HTTP 5xx and
    connection failures retried 3 times with 0.5 s doubling backoff). A vector
    that is not a list of finite numbers raises ProtocolError. With `cache_dir`,
    each vector is cached under sha256(endpoint "\n" text), written atomically;
    an unreadable entry is a miss.
    """
    if ids is None:
        ids = [str(i) for i in range(len(texts))]
    if len(ids) != len(texts):
        raise InputError("ids and texts must have equal length")
    cached = [remote.cache_get(cache_dir, [endpoint, text]) or {} for text in texts]
    vectors = [_numeric_vector(entry.get("vector")) for entry in cached]
    pending = [i for i, vec in enumerate(vectors) if vec is None]
    for start in range(0, len(pending), REMOTE_BATCH_SIZE):
        chunk = pending[start : start + REMOTE_BATCH_SIZE]
        got = remote.post_json(endpoint, {"texts": [texts[i] for i in chunk]}, token).get("vectors")
        got = [_numeric_vector(vec) for vec in got] if isinstance(got, list) else []
        if len(got) != len(chunk) or any(vec is None for vec in got):
            raise ProtocolError(f"the reply does not hold {len(chunk)} vectors of finite numbers")
        for i, vec in zip(chunk, got):
            vectors[i] = vec
            remote.cache_put(cache_dir, [endpoint, texts[i]], {"vector": vec.tolist()})
    return build_store(list(zip(ids, vectors)))
