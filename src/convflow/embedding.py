"""Embedding stores and the unit-sphere primitive used everywhere.

Vectors are float64 in memory (gradient checks need the headroom) and
float32 in the binary file format. All similarity in this package is a
dot product of unit vectors, so `l2_normalize`, of a vector or of each row
of a matrix, is the one geometric operation everything else reduces to.
Every norm in the package is taken by `row_norms`, so a row rounds the same
alone as in a batch, and a change to the formula is made in one place.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from . import remote
from .errors import InputError, RemoteError

BINARY_MAGIC = b"D2FV"
BINARY_VERSION = 1

ENV_EMBED_URL = "D2F_EMBED_URL"
ENV_EMBED_TOKEN = "D2F_EMBED_TOKEN"

REMOTE_BATCH_SIZE = 128


@np.errstate(over="ignore")  # an overflowing square is taken again by _scaled_norms
def row_norms(x: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of the matrix `x`: the square root of the row's dot
    with itself, a stacked 1xd @ dx1 matmul. That rounds as `np.linalg.norm` of
    the row alone does; `np.linalg.norm(x, axis=1)` sums differently."""
    return _scaled_norms(x, (x[:, None, :] @ x[:, :, None]).ravel())


def _scaled_norms(x: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """sqrt(`squares`), the rows' squared norms, except that a nonzero finite row whose
    square is outside [tiny, inf) is first divided by its largest |x|."""
    norms, tiny = np.sqrt(squares), np.finfo(np.float64).tiny
    if squares.size and not (tiny <= squares.min() and squares.max() < np.inf):  # a NaN fails both
        peaks = np.abs(x).max(axis=1, initial=0.0)  # as LAPACK's dnrm2 scales; other rows keep their bits
        off = ((squares < tiny) | (squares == np.inf)) & (0.0 < peaks) & (peaks < np.inf)
        norms[off] = peaks[off] * row_norms(x[off] / peaks[off, None])
    return norms


def l2_normalize(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v / ||v|| for a vector or each row of a matrix, bit for bit the same either
    way; idempotent. A zero vector or row raises InputError. `out=x` works in place."""
    x = np.asarray(x, dtype=np.float64)
    norms = row_norms(np.atleast_2d(x))
    if (norms == 0.0).any():
        raise InputError("cannot normalize the zero vector")
    with np.errstate(invalid="ignore"):  # a non-finite row turns into NaN, which the store rejects
        if (norms == np.inf).any():  # a norm past the float range: divide the row by its largest |x| first
            peaks = np.where(norms == np.inf, np.abs(np.atleast_2d(x)).max(axis=1), 1.0)
            return l2_normalize(x / peaks.reshape(*x.shape[:-1], 1), out=out)
        return np.divide(x, norms.reshape(*x.shape[:-1], 1), out=out)


@dataclass(frozen=True, eq=False)
class EmbeddingStore:
    """Immutable id -> vector table: `index` maps each id to its row of
    `array`, one read-only float64 (N, dim) matrix, so a store is safe to
    share across threads; `store[uid]` is that row. `build_store` and
    `load_embeddings` make stores; a non-finite value raises InputError.
    """

    index: dict[str, int]
    array: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.array.flags.writeable = False
        finite = np.isfinite(self.array).all(axis=1)
        if not finite.all():
            raise InputError(f"vector '{list(self.index)[np.argmin(finite)]}' holds a non-finite value")

    def __getitem__(self, uid: str) -> np.ndarray:
        return self.array[self.index[uid]]

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, uid: str) -> bool:
        return uid in self.index

    @property
    def dim(self) -> int:
        return self.array.shape[1]

    @property
    def vectors(self) -> "EmbeddingStore":
        """The store itself. Only bench/verify.py reads it (`store.vectors[uid]`);
        it goes when the benchmark reads `store[uid]` (ROADMAP item 1)."""
        return self

    def ids(self) -> list[str]:
        return sorted(self.index)

    def rows(self, ids: list[str]) -> np.ndarray:
        """The matrix row of each id in `ids`, in the given order."""
        index = self.index
        return np.fromiter((index[i] for i in ids), np.intp, len(ids))

    def matrix(self, ids: list[str]) -> np.ndarray:
        """A copy of the rows for `ids` in the given order, shape (len(ids), dim)."""
        return self.array.take(self.rows(ids), axis=0)

    def normalize(self) -> "EmbeddingStore":
        if self.normalized:
            return self
        return EmbeddingStore(self.index, l2_normalize(self.array), normalized=True)


def build_store(pairs: list[tuple[str, np.ndarray]], normalize: bool = False) -> EmbeddingStore:
    """Assemble a store from (id, vector) pairs, enforcing one dim throughout."""
    dim = len(np.asarray(pairs[0][1]).ravel()) if pairs else 0
    matrix = np.empty((len(pairs), dim))
    index: dict[str, int] = {}
    for row, (uid, vec) in enumerate(pairs):
        arr = np.asarray(vec, dtype=np.float64).ravel()
        if arr.shape[0] != dim:
            raise InputError(f"record '{uid}' has dim {arr.shape[0]}, expected {dim}")
        if uid in index:
            raise InputError(f"duplicate id '{uid}'")
        index[uid] = row
        matrix[row] = arr
    if normalize:
        l2_normalize(matrix, out=matrix)
    return EmbeddingStore(index, matrix, normalized=normalize)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _save_jsonl(store: EmbeddingStore, path: str) -> None:
    """One record per line: {"id": ..., "vector": [...]}; sorted by id."""
    with open(path, "w", encoding="utf-8") as fh:
        for uid in store.ids():
            rec = {"id": uid, "vector": store[uid].tolist()}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _load_jsonl(path: str) -> list[tuple[str, np.ndarray]]:
    pairs: list[tuple[str, np.ndarray]] = []
    with open(path, "rb") as fh:  # decoded line by line, so a bad byte names its line
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}:{lineno}: not UTF-8 at byte {exc.start} of the line") from exc
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: invalid json ({exc.msg})") from exc
            except RecursionError as exc:
                raise InputError(f"{path}:{lineno}: invalid json (nested too deeply)") from exc
            if not isinstance(rec, dict) or "id" not in rec or "vector" not in rec:
                raise InputError(f"{path}:{lineno}: record needs 'id' and 'vector'")
            uid = rec["id"]
            if type(uid) is not str:
                raise InputError(f"{path}:{lineno}: 'id' must be a string, got {uid!r:.40}")
            vector = rec["vector"]
            try:  # array("d") takes JSON numbers only: no strings, nulls or lists
                vec = np.frombuffer(array("d", vector))
            except (TypeError, OverflowError):
                vec = None
            # array("d") takes true and false too. JSON numbers and the keys "id"
            # and "vector" hold no "u" or "f", so only a line that does can hold
            # one (a memchr per line, not a check per element).
            if vec is None or ((b"u" in raw or b"f" in raw) and bool in map(type, vector)):
                raise InputError(f"{path}:{lineno}: 'vector' must be a list of numbers")
            pairs.append((uid, vec))
    return pairs


def _save_binary(store: EmbeddingStore, path: str) -> None:
    """Binary layout: magic 'D2FV', version u8, dim u32 LE, count u64 LE,
    then per record: id length u16 LE, UTF-8 id, dim little-endian f32."""
    ids = store.ids()
    vectors = store.array.astype("<f4")
    parts = [BINARY_MAGIC, struct.pack("<BIQ", BINARY_VERSION, store.dim, len(ids))]
    for uid, row in zip(ids, store.rows(ids).tolist()):
        raw = uid.encode("utf-8")
        parts += (struct.pack("<H", len(raw)), raw, vectors[row].tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _load_binary(path: str) -> EmbeddingStore:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != BINARY_MAGIC:
        raise InputError(f"{path}: bad magic bytes {data[:4]!r}")
    if len(data) < 17:
        raise InputError(f"{path}: truncated header")
    version = data[4]
    if version != BINARY_VERSION:
        raise InputError(f"{path}: unsupported version {version}")
    dim, count = struct.unpack_from("<IQ", data, 5)
    if count * (2 + 4 * dim) > len(data) - 17:
        raise InputError(f"{path}: {count} records of dim {dim} do not fit in {len(data)} bytes")
    starts = np.empty(count, dtype=np.intp)  # where each record's vector begins
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
        starts[row] = off
        off += 4 * dim
    if off != len(data):
        raise InputError(f"{path}: {len(data) - off} bytes after the {count} declared records")
    if not count:  # nothing to gather, and a 4 * dim byte window may not fit
        return EmbeddingStore(index, np.empty((0, dim)))
    # every vector's bytes in one gather from a sliding window over the file, then one conversion
    vectors = np.lib.stride_tricks.sliding_window_view(np.frombuffer(data, np.uint8), 4 * dim)[starts]
    del data  # the file's bytes are not needed while the vectors convert
    return EmbeddingStore(index, vectors.view("<f4").astype(np.float64))


def load_embeddings(path: str, format: str | None = None) -> EmbeddingStore:
    """Load an unnormalized store from disk; its dim comes from the first JSONL
    record or the binary header, and every record must have it. With no
    `format`, a file that starts with the binary magic bytes is binary and
    any other is JSONL."""
    if format is None:
        with open(path, "rb") as fh:
            format = "binary" if fh.read(4) == BINARY_MAGIC else "jsonl"
    if format == "jsonl":
        return build_store(_load_jsonl(path))
    if format == "binary":
        return _load_binary(path)
    raise InputError(f"unknown embedding format '{format}'")


def save_embeddings(store: EmbeddingStore, path: str, format: str = "jsonl") -> None:
    if format == "jsonl":
        _save_jsonl(store, path)
    elif format == "binary":
        _save_binary(store, path)
    else:
        raise InputError(f"unknown embedding format '{format}'")


# ---------------------------------------------------------------------------
# Deterministic offline provider
# ---------------------------------------------------------------------------

def tokenize(text: str) -> list[str]:
    """The tokens of `text`: lowercased, split on whitespace and underscores."""
    return text.lower().replace("_", " ").split()


def hashed_bow_vector(text: str, dim: int) -> np.ndarray:
    """The toy encoder's features: signed hashed token counts in `dim` columns,
    the same in every process and platform. Distinct tokens can share a
    column, so label similarity (`build_label_table`) does not use them."""
    v = np.zeros(dim, dtype=np.float64)
    for token in tokenize(text):
        digest = hashlib.md5(token.encode("utf-8")).digest()
        idx = int.from_bytes(digest[:8], "little") % dim
        sign = 1.0 if digest[8] & 1 else -1.0
        v[idx] += sign
    return v


# ---------------------------------------------------------------------------
# Remote encoder client
# ---------------------------------------------------------------------------

def _numeric_vector(value) -> np.ndarray | None:
    # a NaN, an infinity or an integer past the float range fails the bound
    if isinstance(value, list) and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in value):
        return np.asarray(value, dtype=np.float64)
    return None


def fetch_remote(endpoint: str, texts: list[str], ids: list[str], token: str | None = None) -> EmbeddingStore:
    """Fetch one unnormalized vector per text from a remote encoder, in order,
    stored under the text's id.

    Protocol: POST {"texts": [...]} -> {"vectors": [[...], ...]}, REMOTE_BATCH_SIZE
    texts per request, sent by `remote.post_json` (bearer auth; HTTP 5xx and
    connection failures retried 3 times with 0.5 s doubling backoff). A vector
    that is not a list of finite numbers or has no non-zero entry, or vectors
    of different lengths, raise RemoteError.
    """
    if len(ids) != len(texts):
        raise InputError("ids and texts must have equal length")
    vectors = []
    for start in range(0, len(texts), REMOTE_BATCH_SIZE):
        chunk = texts[start : start + REMOTE_BATCH_SIZE]
        got = remote.post_json(endpoint, {"texts": chunk}, token).get("vectors")
        got = [_numeric_vector(vec) for vec in got] if isinstance(got, list) else []
        if len(got) != len(chunk) or any(vec is None for vec in got):
            raise RemoteError(f"the reply does not hold {len(chunk)} vectors of finite numbers")
        for uid, vec in zip(ids[start : start + REMOTE_BATCH_SIZE], got):
            if not vec.any():
                raise RemoteError(f"the encoder returned a vector with no non-zero entry for id '{uid}'")
        vectors += got
    if len({len(vec) for vec in vectors}) > 1:
        raise RemoteError("the encoder returned vectors of different lengths")
    return build_store(list(zip(ids, vectors)))
