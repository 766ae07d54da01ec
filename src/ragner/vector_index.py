"""Cosine top-k search: exact flat scan and IVF-Flat.

All stored vectors are unit-norm (the embedder guarantees this), so cosine
similarity is a plain dot product. The IVF index clusters the records with
seeded spherical k-means (k-means++ init, Lloyd iterations) and searches
only the `nprobe` nearest clusters' posting lists.

`search_batch` searches a block of queries with one matrix product and
one top-k pass; `search` is its one-row case. Hit ordering is fully
deterministic: descending score, ties broken by ascending record id.

An index on disk is its matrix as a .npy file (rows in record order for
flat, grouped by cluster for IVF), one .npy file beside it per other
array, and a JSON file recording its kind and words; `load_index` opens
every array memory-mapped. The embedding cache is stored the same way,
through the same `save_array`/`open_array` and `save_json`/`open_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCollection,
    FormatError,
    MissingArtifact,
    NlistTooLarge,
)

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
    blocks. `row_record_ids[row]` maps a grouped row back to its record id.
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
    ):
        self.grouped = grouped
        self.row_record_ids = row_record_ids
        self.offsets = offsets  # nlist + 1 cumulative cluster boundaries
        self.centroids = centroids
        self.sentence_ids = sentence_ids  # in record-id order
        self.words = words  # in record-id order

    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.grouped.shape[1]

    def __len__(self) -> int:
        return self.grouped.shape[0]

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
    _check_unit_norm(matrix, "index vectors")
    sentence_ids = np.asarray(sentence_ids, dtype=np.int64)

    centroids, assignment = _spherical_kmeans(matrix, nlist, kmeans_iters, seed)
    order = np.argsort(assignment, kind="stable")  # stable: record id order inside clusters
    grouped = np.ascontiguousarray(matrix[order])
    row_record_ids = order.astype(np.int64)
    counts = np.bincount(assignment, minlength=nlist)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return IvfIndex(grouped, row_record_ids, offsets, centroids, sentence_ids, words)


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


# --- persistence: index files and the embedding cache ------------------------

def save_array(path: Path, array: np.ndarray) -> None:
    """Write `array` as .npy at exactly `path` (np.save would append .npy),
    replacing the file: a reader that mapped the old one keeps it intact."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.save(fh, array, allow_pickle=False)
    tmp.replace(path)


def save_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, ensure_ascii=False) + "\n", encoding="utf-8")


def _unreadable(path: Path, what: str, reason) -> FormatError:
    return FormatError(f"{path}: unreadable {what}: {reason}; re-run `ragner index`")


def _read(path: Path, what: str, read):
    """read(path), raising MissingArtifact for a missing file, else FormatError."""
    try:
        return read(path)
    except FileNotFoundError:
        raise MissingArtifact(
            f"no {what} in {path.parent} ({path.name} is missing); re-run `ragner index`"
        ) from None
    except (OSError, ValueError, EOFError, RecursionError) as exc:
        raise _unreadable(path, what, exc) from exc


def open_array(path: Path, dtype, shape: tuple[int | None, ...], what: str = "index") -> np.ndarray:
    """Memory-map the .npy file at `path` and check its dtype and shape (None
    matches any length). Raises MissingArtifact when the file is absent and
    FormatError when it is unreadable, holds bytes past its array or does
    not have the dtype and shape expected."""
    # np.load(path, mmap_mode="r") minus its fallback to pickle for a non-.npy
    mapped = _read(path, what, lambda p: np.lib.format.open_memmap(p, mode="r"))
    if mapped.offset + mapped.nbytes != path.stat().st_size:  # the mapping ignores them
        raise _unreadable(path, what, "trailing bytes after the array")
    if mapped.dtype != dtype or len(mapped.shape) != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, mapped.shape)):
        raise _unreadable(path, what, f"{mapped.dtype} {mapped.shape}, expected "
                                      f"{np.dtype(dtype)} {shape}")
    return np.asarray(mapped)


def open_json(path: Path, what: str = "index"):
    """The JSON document at `path`; raises as `open_array` does."""
    return _read(path, what, lambda p: json.loads(p.read_text(encoding="utf-8")))


_IVF_ARRAYS = ("centroids", "offsets", "row_record_ids")


def _part(path: Path, name: str) -> Path:
    """The file holding part `name` of the index whose matrix is at `path`."""
    return path.with_name(f"{path.stem}.{name}")


def save_index(index: Index, path: str | Path) -> None:
    """Write the index's matrix at `path` and its other parts beside it. The
    JSON part records the kind; a flat index removes the IVF arrays an
    earlier build left."""
    path = Path(path)
    is_ivf = isinstance(index, IvfIndex)
    save_array(path, index.grouped if is_ivf else index.matrix)
    save_array(_part(path, "sentence_ids.npy"), index.sentence_ids)
    for name in _IVF_ARRAYS:
        if is_ivf:
            save_array(_part(path, f"{name}.npy"), getattr(index, name))
        else:
            _part(path, f"{name}.npy").unlink(missing_ok=True)
    save_json(_part(path, "json"), {"kind": index.kind, "words": index.words})


def load_index(path: str | Path) -> Index:
    """Open the index `save_index` wrote at `path`, every array memory-mapped;
    raises as `open_array` does, and FormatError when the parts disagree."""
    path = Path(path)
    matrix = open_array(path, np.float64, (None, None))
    n, dim = matrix.shape
    sentence_ids = open_array(_part(path, "sentence_ids.npy"), np.int64, (n,))
    doc = open_json(_part(path, "json"))
    kind, words = (doc.get("kind"), doc.get("words")) if isinstance(doc, dict) else (None, None)
    if kind not in ("flat", "ivf") or words is not None and not (
            isinstance(words, list) and len(words) == n and all(isinstance(w, str) for w in words)):
        raise _unreadable(_part(path, "json"), "index", f"expected its kind and null or {n} words")
    if kind == "flat":
        return FlatIndex(matrix, sentence_ids, words)
    offsets = open_array(_part(path, "offsets.npy"), np.int64, (None,))
    if len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != n or np.any(np.diff(offsets) < 0):
        raise _unreadable(path, "index", f"offsets do not partition the {n} rows")
    centroids = open_array(_part(path, "centroids.npy"), np.float64, (len(offsets) - 1, dim))
    row_record_ids = open_array(_part(path, "row_record_ids.npy"), np.int64, (n,))
    if not np.array_equal(np.sort(row_record_ids), np.arange(n)):
        raise _unreadable(path, "index", f"row_record_ids are not a permutation of 0..{n - 1}")
    return IvfIndex(matrix, row_record_ids, offsets, centroids, sentence_ids, words)
