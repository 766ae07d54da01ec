"""Cosine top-k search: exact flat scan and IVF-Flat.

All stored vectors are unit-norm (the embedder guarantees this), so cosine
similarity is a plain dot product. The IVF index clusters the records with
seeded spherical k-means (k-means++ init, Lloyd iterations) and searches
only the `nprobe` nearest clusters' posting lists.

`search_batch` searches a block of queries with one matrix product and
one top-k pass; `search` is its one-row case. Hit ordering is fully
deterministic: descending score, ties broken by ascending record id.

Index files are binary, little-endian, laid out as:

    magic   6s   b"RAGIDX"
    version u32  (currently 1)
    kind    u8   0 = flat, 1 = ivf
    words   u8   1 when a per-record word table is present
    dim     u32
    count   u64
    sentence_ids  count * i64
    word table    count * u32 lengths, then the concatenated UTF-8 bytes
    vectors       count * dim * f64, in record-id order
    -- ivf only --
    nlist u32, kmeans_iters u32, seed i64
    centroids     nlist * dim * f64
    postings      nlist * u32 lengths, then all record ids as u32
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCollection,
    FormatError,
    NlistTooLarge,
    VersionMismatch,
)

_MAGIC = b"RAGIDX"
_VERSION = 1
_ASSIGN_CHUNK = 8192


@dataclass(frozen=True)
class SearchHit:
    record_id: int
    score: float


def default_nlist(n_records: int) -> int:
    return max(1, int(np.floor(np.sqrt(n_records))))


def default_nprobe(nlist: int) -> int:
    return max(1, int(np.ceil(nlist / 8)))


def _check_unit_norm(matrix: np.ndarray, what: str) -> None:
    norms = np.linalg.norm(matrix, axis=1)
    worst = float(np.abs(norms - 1.0).max())
    if worst > 1e-5:
        raise ValueError(f"{what} must be unit-norm (worst deviation {worst:.2e})")


def _check_queries(queries: np.ndarray, k: int, dim: int) -> np.ndarray:
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != dim:
        raise DimensionMismatch(f"query shape {queries.shape[1:]}, index dim {dim}")
    return queries


def _scores(block: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """block @ queries.T, shape (rows, m). One query goes through a mat-vec,
    so a single search keeps the bits it always had."""
    if queries.shape[0] == 1:
        return (block @ queries[0])[:, None]
    return block @ queries.T


def _top_k(scores: np.ndarray, ids: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per row of scores (m, n): the k best columns as (ids, scores), by
    descending score then ascending id. -inf marks a column the row must
    not return (excluded or not probed); a row may come back short."""
    keep = scores > -np.inf
    if k < scores.shape[1]:
        kth = -np.partition(-scores, k - 1, axis=1)[:, k - 1: k]
        keep &= scores >= kth  # every tie with the k-th score survives
    rows, cols = np.nonzero(keep)
    kept_scores = scores[rows, cols]
    kept_ids = ids[cols]
    order = np.lexsort((kept_ids, -kept_scores, rows))
    rows, kept_ids, kept_scores = rows[order], kept_ids[order], kept_scores[order]
    bounds = np.searchsorted(rows, np.arange(scores.shape[0] + 1)).tolist()
    return [(kept_ids[lo: min(hi, lo + k)], kept_scores[lo: min(hi, lo + k)])
            for lo, hi in zip(bounds, bounds[1:])]


class FlatIndex:
    """Exhaustive exact cosine top-k over the full record matrix."""

    kind = "flat"

    def __init__(self, matrix: np.ndarray, sentence_ids: np.ndarray, words: list[str] | None):
        _check_unit_norm(matrix, "index vectors")
        self.matrix = matrix
        self.sentence_ids = sentence_ids
        self.words = words

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def search(self, query: np.ndarray, k: int, nprobe: int | None = None) -> list[SearchHit]:
        [(ids, scores)] = self.search_batch([query], k)
        return list(map(SearchHit, ids.tolist(), scores.tolist()))

    def search_batch(self, queries: np.ndarray, k: int, nprobe: int | None = None,
                     exclude: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
        """Top-k (record ids, scores) for each row of queries (m, dim), in one
        BLAS call; records where the boolean `exclude` is set never return.
        `exclude` is one (n,) mask for every row or an (m, n) mask per row."""
        queries = _check_queries(queries, k, self.dim)
        scores = _scores(self.matrix, queries).T
        if exclude is not None:
            np.copyto(scores, -np.inf, where=exclude)
        return _top_k(scores, np.arange(len(self)), k)


class IvfIndex:
    """Inverted-file index: coarse k-means clusters plus probed flat scan.

    Vectors are stored grouped by cluster so probing scans contiguous
    blocks. `row_record_ids[row]` maps a grouped row back to its record id;
    postings are derivable from the grouping but kept explicit for the
    on-disk format.
    """

    kind = "ivf"

    def __init__(
        self,
        grouped: np.ndarray,
        row_record_ids: np.ndarray,
        offsets: np.ndarray,
        centroids: np.ndarray,
        sentence_ids: np.ndarray,
        words: list[str] | None,
        kmeans_iters: int,
        seed: int,
    ):
        self.grouped = grouped
        self.row_record_ids = row_record_ids
        self.offsets = offsets  # nlist + 1 cumulative cluster boundaries
        self.centroids = centroids
        self.sentence_ids = sentence_ids  # in record-id order
        self.words = words  # in record-id order
        self.kmeans_iters = kmeans_iters
        self.seed = seed

    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.grouped.shape[1]

    def __len__(self) -> int:
        return self.grouped.shape[0]

    @property
    def postings(self) -> list[np.ndarray]:
        return [
            self.row_record_ids[self.offsets[c]: self.offsets[c + 1]]
            for c in range(self.nlist)
        ]

    def record_order_matrix(self) -> np.ndarray:
        """Vectors back in record-id order (inverse of the grouping)."""
        out = np.empty_like(self.grouped)
        out[self.row_record_ids] = self.grouped
        return out

    def search(self, query: np.ndarray, k: int, nprobe: int | None = None) -> list[SearchHit]:
        [(ids, scores)] = self.search_batch([query], k, nprobe)
        return list(map(SearchHit, ids.tolist(), scores.tolist()))

    def search_batch(self, queries: np.ndarray, k: int, nprobe: int | None = None,
                     exclude: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
        """FlatIndex.search_batch over the `nprobe` clusters nearest to each
        row. The union of probed clusters is scored one contiguous slice at a
        time, never a gathered copy; a cluster the row did not probe scores
        -inf for that row."""
        queries = _check_queries(queries, k, self.dim)
        nprobe = default_nprobe(self.nlist) if nprobe is None else nprobe
        if not 1 <= nprobe <= self.nlist:
            raise ValueError(f"nprobe must be in [1, {self.nlist}], got {nprobe}")
        m = queries.shape[0]
        probe = np.argsort(-_scores(self.centroids, queries).T, axis=1, kind="stable")
        probed = np.zeros((self.nlist, m), dtype=bool)
        probed[probe[:, :nprobe], np.arange(m)[:, None]] = True
        clusters = np.flatnonzero(probed.any(axis=1))
        slices = [slice(self.offsets[c], self.offsets[c + 1]) for c in clusters.tolist()]
        scores = np.concatenate([_scores(self.grouped[rows], queries) for rows in slices])
        sizes = self.offsets[clusters + 1] - self.offsets[clusters]
        scores[~np.repeat(probed[clusters], sizes, axis=0)] = -np.inf
        scores = scores.T
        ids = np.concatenate([self.row_record_ids[rows] for rows in slices])
        if exclude is not None:
            np.copyto(scores, -np.inf, where=exclude[..., ids])
        return _top_k(scores, ids, k)


Index = FlatIndex | IvfIndex


def flat_from_matrix(
    matrix: np.ndarray, sentence_ids: np.ndarray, words: list[str] | None = None
) -> FlatIndex:
    """An exhaustive-scan index over unit-norm rows, row i being record i."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.shape[0] == 0:
        raise EmptyCollection("cannot build an index over zero records")
    return FlatIndex(matrix, np.asarray(sentence_ids, dtype=np.int64), words)


def ivf_from_matrix(
    matrix: np.ndarray,
    sentence_ids: np.ndarray,
    words: list[str] | None,
    nlist: int,
    kmeans_iters: int = 20,
    seed: int = 0,
) -> IvfIndex:
    """Cluster the rows with seeded k-means and build the IVF layout."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if n == 0:
        raise EmptyCollection("cannot build an index over zero records")
    if nlist < 1 or nlist > n:
        raise NlistTooLarge(f"nlist {nlist} out of range for {n} records")
    if not -(2**63) <= seed < 2**63:
        raise ValueError("seed must fit in a signed 64-bit integer")
    _check_unit_norm(matrix, "index vectors")
    sentence_ids = np.asarray(sentence_ids, dtype=np.int64)

    centroids, assignment = _spherical_kmeans(matrix, nlist, kmeans_iters, seed)
    order = np.argsort(assignment, kind="stable")  # stable: record id order inside clusters
    grouped = np.ascontiguousarray(matrix[order])
    row_record_ids = order.astype(np.int64)
    counts = np.bincount(assignment, minlength=nlist)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return IvfIndex(grouped, row_record_ids, offsets, centroids, sentence_ids, words,
                    kmeans_iters, seed)


# --- spherical k-means ------------------------------------------------------

def _assign_to_centroids(matrix: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    n = matrix.shape[0]
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, _ASSIGN_CHUNK):
        block = matrix[start: start + _ASSIGN_CHUNK] @ centroids.T
        out[start: start + _ASSIGN_CHUNK] = np.argmax(block, axis=1)
    return out


def _kmeans_pp_init(matrix: np.ndarray, nlist: int, rng: np.random.Generator) -> np.ndarray:
    n, dim = matrix.shape
    centroids = np.empty((nlist, dim), dtype=np.float64)
    centroids[0] = matrix[int(rng.integers(n))]
    if nlist == 1:
        return centroids
    # squared euclidean distance on unit vectors: 2 - 2 cos
    min_dist = np.maximum(2.0 - 2.0 * (matrix @ centroids[0]), 0.0)
    for j in range(1, nlist):
        total = float(min_dist.sum())
        if total <= 0.0:
            choice = int(rng.integers(n))
        else:
            r = rng.random() * total
            choice = min(int(np.searchsorted(np.cumsum(min_dist), r)), n - 1)
        centroids[j] = matrix[choice]
        np.minimum(min_dist, np.maximum(2.0 - 2.0 * (matrix @ centroids[j]), 0.0), out=min_dist)
    return centroids


def _spherical_kmeans(
    matrix: np.ndarray, nlist: int, iters: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ init plus Lloyd iterations; centroids kept unit-norm
    so assignment by cosine is an argmax of dot products."""
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    centroids = _kmeans_pp_init(matrix, nlist, rng)
    assignment = np.full(n, -1, dtype=np.int64)
    for _ in range(max(0, iters)):
        new_assignment = _assign_to_centroids(matrix, centroids)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        order = np.argsort(assignment, kind="stable")
        counts = np.bincount(assignment, minlength=nlist)
        nonempty = np.flatnonzero(counts)
        seg_starts = np.concatenate([[0], np.cumsum(counts)])[:-1][nonempty]
        sums = np.add.reduceat(matrix[order], seg_starts, axis=0)
        centroids = np.empty_like(centroids)
        centroids[nonempty] = sums / counts[nonempty, None]
        for c in np.flatnonzero(counts == 0):
            centroids[c] = matrix[int(rng.integers(n))]
        norms = np.linalg.norm(centroids, axis=1)
        for c in np.flatnonzero(norms == 0.0):
            centroids[c] = matrix[int(rng.integers(n))]
            norms[c] = 1.0
        centroids /= norms[:, None]
    final_assignment = _assign_to_centroids(matrix, centroids)
    return centroids, final_assignment


# --- persistence ------------------------------------------------------------

def _read_exact(fh: BinaryIO, nbytes: int, what: str) -> bytes:
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise FormatError(f"index file truncated while reading {what}")
    return data


def _write_word_table(fh: BinaryIO, words: Sequence[str]) -> None:
    blobs = [w.encode("utf-8") for w in words]
    fh.write(np.asarray([len(b) for b in blobs], dtype="<u4").tobytes())
    fh.write(b"".join(blobs))


def _read_word_table(fh: BinaryIO, count: int) -> list[str]:
    lengths = np.frombuffer(_read_exact(fh, 4 * count, "word lengths"), dtype="<u4")
    blob = _read_exact(fh, int(lengths.sum()), "word table")
    words = []
    pos = 0
    for length in lengths:
        words.append(blob[pos: pos + int(length)].decode("utf-8"))
        pos += int(length)
    return words


def save_index(index: Index, path: str | Path) -> None:
    """Persist an index; load(save(x)) is bit-identical in records,
    centroids and postings."""
    is_ivf = isinstance(index, IvfIndex)
    count = len(index)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IBB I Q", _VERSION, int(is_ivf), int(index.words is not None),
                             index.dim, count))
        fh.write(np.asarray(index.sentence_ids, dtype="<i8").tobytes())
        if index.words is not None:
            _write_word_table(fh, index.words)
        record_matrix = index.record_order_matrix() if is_ivf else index.matrix
        fh.write(np.ascontiguousarray(record_matrix, dtype="<f8").tobytes())
        if is_ivf:
            fh.write(struct.pack("<IIq", index.nlist, index.kmeans_iters, index.seed))
            fh.write(np.ascontiguousarray(index.centroids, dtype="<f8").tobytes())
            postings = index.postings
            fh.write(np.asarray([len(p) for p in postings], dtype="<u4").tobytes())
            for p in postings:
                fh.write(np.asarray(p, dtype="<u4").tobytes())


def load_index(path: str | Path) -> Index:
    """Load an index file; raises FormatError / VersionMismatch."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, len(_MAGIC), "magic")
        if magic != _MAGIC:
            raise FormatError(f"{path}: not an index file (bad magic {magic!r})")
        header = _read_exact(fh, struct.calcsize("<IBB I Q"), "header")
        version, is_ivf, has_words, dim, count = struct.unpack("<IBB I Q", header)
        if version != _VERSION:
            raise VersionMismatch(f"{path}: format version {version}, supported {_VERSION}")
        sentence_ids = np.frombuffer(
            _read_exact(fh, 8 * count, "sentence ids"), dtype="<i8"
        ).astype(np.int64)
        words = _read_word_table(fh, count) if has_words else None
        matrix = np.frombuffer(
            _read_exact(fh, 8 * count * dim, "vectors"), dtype="<f8"
        ).reshape(count, dim).astype(np.float64)
        if not is_ivf:
            if fh.read(1):
                raise FormatError(f"{path}: trailing bytes after index payload")
            return FlatIndex(matrix, sentence_ids, words)
        nlist, kmeans_iters, seed = struct.unpack(
            "<IIq", _read_exact(fh, struct.calcsize("<IIq"), "ivf header")
        )
        centroids = np.frombuffer(
            _read_exact(fh, 8 * nlist * dim, "centroids"), dtype="<f8"
        ).reshape(nlist, dim).astype(np.float64)
        lengths = np.frombuffer(_read_exact(fh, 4 * nlist, "posting lengths"), dtype="<u4")
        if int(lengths.sum()) != count:
            raise FormatError(f"{path}: posting lengths sum to {lengths.sum()}, expected {count}")
        row_record_ids = np.frombuffer(
            _read_exact(fh, 4 * count, "postings"), dtype="<u4"
        ).astype(np.int64)
        trailing = fh.read(1)
        if trailing:
            raise FormatError(f"{path}: trailing bytes after index payload")
    if not np.array_equal(np.sort(row_record_ids), np.arange(count)):
        raise FormatError(f"{path}: postings are not a permutation of the {count} record ids")
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    grouped = np.ascontiguousarray(matrix[row_record_ids])
    return IvfIndex(grouped, row_record_ids, offsets, centroids, sentence_ids, words,
                    kmeans_iters, seed)
