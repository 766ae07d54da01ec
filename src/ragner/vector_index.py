"""Cosine top-k search: exact flat scan and IVF-Flat.

All stored vectors are unit-norm (the embedder guarantees this), so cosine
similarity is a plain dot product. The IVF index clusters the records with
seeded spherical k-means (k-means++ init, Lloyd iterations) and searches
only the `nprobe` nearest clusters' posting lists.

`search_batch` searches a block of queries with one top-k pass after one
matrix product (flat) or one product with the centroids and one per probed
cluster with only the rows that probe it (IVF); `search` is its one-row
case. Hit ordering is fully deterministic: descending score, ties broken
by ascending record id.

Given a `Float32Copy` of its matrix, a flat `search_batch` selects in
float32 instead: one float32 product picks, per row, every record within a
proved error bound of the row's k-th float32 score, and only those records
are scored again in float64, each by a fixed-order dot of its two rows
(`_band` derives the bound). The ids, their order and the scores are then
those of an exact float64 top-k under the same tie rule, at about half the
cost of the float64 product; the caller decides when that pays.

An index on disk is its matrix as a .npy file (rows in record order for
flat, grouped by cluster for IVF), one .npy file beside it per other
array, and a JSON file recording its kind and words; `load_index` opens
every array memory-mapped. The embedding cache is stored the same way,
through the same `save_array`/`open_array`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import files
from .errors import DimensionMismatch, EmptyCollection, NlistTooLarge

_ASSIGN_CHUNK = 8192
_PARTITION_SCORES = 1 << 16  # scores per np.partition call in _kth, 512 KB of float64
_GATHER_BYTES = 1 << 19  # each of the two gather buffers of _rescore
_UNIT_TOLERANCE = 1e-5  # how far from 1 a stored row's norm may be


@dataclass(frozen=True)
class SearchHit:
    record_id: int
    score: float


def default_nlist(n_records: int) -> int:
    return max(1, int(np.floor(np.sqrt(n_records))))


def default_nprobe(nlist: int) -> int:
    return max(1, int(np.ceil(nlist / 8)))


def _norm_fault(matrix: np.ndarray) -> str | None:
    """Why the rows of a non-empty matrix are not all finite unit vectors, or
    None. The row norms come from einsum, which makes no matrix-sized
    temporary (np.linalg.norm squares a copy of the matrix)."""
    deviation = np.abs(np.sqrt(np.einsum("ij,ij->i", matrix, matrix)) - 1.0)
    worst = float(deviation.max())  # nan or inf when a row is not finite
    if not np.isfinite(worst):
        return f"rows must be finite (row {int(np.argmax(~np.isfinite(deviation)))} is not)"
    if worst > _UNIT_TOLERANCE:
        return f"rows must be unit-norm (worst deviation {worst:.2e})"
    return None


def _check_unit_norm(matrix: np.ndarray) -> None:
    fault = _norm_fault(matrix)
    if fault is not None:
        raise ValueError(f"index {fault}")


def _check_queries(queries: np.ndarray, dim: int) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != dim:
        raise DimensionMismatch(f"query shape {queries.shape[1:]}, index dim {dim}")
    return queries


def _scores(block: np.ndarray, queries: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """queries @ block.T in float64, shape (m, rows), into `out` if given: the
    scores of every search but a flat one's float32 selection. Their last
    bits depend on the BLAS kernel and on m. One query goes through a
    mat-vec, so a single search keeps the bits it always had."""
    if queries.shape[0] == 1:
        return np.matmul(block, queries[0], out=None if out is None else out[0])[None, :]
    return np.matmul(queries, block.T, out=out)


def _band(queries: np.ndarray) -> np.ndarray | None:
    """2 eps per query row (m,): the float32 selection keeps every record whose
    float32 score is within 2 eps of its row's k-th float32 score. None when a
    row is outside the range the bound is proved for (a norm above 2^64 or
    not finite, or d >= 2^20); that search stays in float64.

    The bound. Let q be a query row and x a stored row of width d, s = q.x
    exactly, s32 the score of the float32 product and s64 the fixed-order
    float64 dot that rescores it (`_rescore`). u = 2^-24 and v = 2^-53 are
    the unit roundoffs of float32 and float64, g(w) = d*w / (1 - d*w).
    - Each cast rounds to nearest, so q32_i = q_i (1 + e_i) with |e_i| <= u,
      and so for x; hence |q32.x32 - s| <= (2u + u^2) sum|q_i x_i|.
    - A dot of d terms, summed in any order, with or without fused
      multiply-adds (so whichever kernel BLAS picks), is within
      g(u) sum|q32_i x32_i| <= g(u) (1 + u)^2 sum|q_i x_i| of q32.x32; the
      float64 dot is within g(v) sum|q_i x_i| of s (Higham, Accuracy and
      Stability of Numerical Algorithms, section 3.1).
    - sum|q_i x_i| <= |q| |x| (Cauchy-Schwarz), and every stored row passed
      `_norm_fault`, so |x| <= 1 + 1e-5.
    - Underflow: below 2^-126 a cast or a product may lose up to 2^-126
      outright, flushed to zero or not, and so may an addition where
      subnormals are flushed. Over d terms and carried through the sum that
      is at most 8 d (1 + |q|) 2^-126; the float64 dot's own underflow, at
      2^-1022 per operation, fits in the same term.
    - |q| <= 2^64 keeps every float32 product and partial sum below 2^128.
    So |s32 - s64| <= eps = r |q| (1 + 1e-5) + 8 d (1 + |q|) 2^-126, with
    r = (1 + u)^2 g(u) + 2u + u^2 + g(v), about (d + 2) 2^-24: 4.6e-5 for
    unit rows of 768 dimensions. eps is computed here in float64 and raised
    by 2^-10 of itself, which covers the rounding of this computation, of
    |q| and of the cut (k-th float32 score - 2 eps).

    Why the band holds the float64 top-k, ties included. Let t be the
    row's k-th largest s64 and t32 its k-th largest s32. The k records
    with s32 >= t32 have s64 >= s32 - eps >= t32 - eps, so t >= t32 - eps.
    A record with s64 >= t then has s32 >= s64 - eps >= t - eps >=
    t32 - 2 eps: it is in the band. So every record at or above t is in
    the band and every record outside it scores below t, and the best k of
    the band by descending s64, then ascending id, are the float64 top-k.
    A row with fewer than k records left by its mask has t32 = -inf and
    keeps them all.
    """
    d = queries.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->i", queries, queries))
    if d >= 1 << 20 or not np.all(norms <= 2.0 ** 64):
        return None
    u, v = 2.0 ** -24, 2.0 ** -53
    r = (1 + u) ** 2 * d * u / (1 - d * u) + 2 * u + u * u + d * v / (1 - d * v)
    eps = r * (1 + _UNIT_TOLERANCE) * norms + 8 * d * (1 + norms) * 2.0 ** -126
    return 2 * (1 + 2.0 ** -10) * eps


def _rescore(queries: np.ndarray, matrix: np.ndarray, gathered: np.ndarray,
             rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The float64 score of each (query row, matrix row) pair: the
    fixed-order dot np.einsum("ij,ij->i") of the two rows, gathered a chunk
    at a time into the two buffers of `gathered`. Unlike a BLAS product's,
    its bits depend neither on the kernel nor on the other pairs."""
    exact = np.empty(len(rows))
    step = gathered.shape[1]
    for lo in range(0, len(rows), step):
        q, x = gathered[:, : min(step, len(rows) - lo)]
        # mode="clip" takes straight into `out` (the default mode copies through a
        # buffer); every index is in range
        np.take(queries, rows[lo: lo + step], axis=0, out=q, mode="clip")
        np.take(matrix, cols[lo: lo + step], axis=0, out=x, mode="clip")
        np.einsum("ij,ij->i", q, x, out=exact[lo: lo + step])
    return exact


def _kth(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th largest score, shape (m, 1), a few rows at a time so
    that no copy of the whole block is made; negated, since numpy's
    partition is slow near the end of a row of many equal (-inf) values."""
    kth = np.empty((len(scores), 1))
    step = max(1, _PARTITION_SCORES // scores.shape[1])
    for lo in range(0, len(scores), step):
        negated = -scores[lo: lo + step]
        negated.partition(k - 1, axis=1)
        kth[lo: lo + step, 0] = -negated[:, k - 1]
    return kth


def _top_k(scores: np.ndarray, ids: np.ndarray, k: int, band: np.ndarray | None = None,
           rescore=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per row of scores (m, n): the k best columns as (ids, scores), by
    descending score then ascending id. -inf marks a column the row must
    not return (excluded or not probed); a row may come back short.

    For the float32 selection, `band` (m,) lowers each row's cut by its
    2 eps (`_band`), and the kept columns are ranked by, and return, the
    float64 scores `rescore(rows, cols)` instead of their own."""
    keep = scores > -np.inf
    if k < scores.shape[1]:
        cut = _kth(scores, k)
        if band is not None:  # rounded down to float32, to compare float32 with float32
            cut = np.nextafter((cut - band[:, None]).astype(np.float32), np.float32(-np.inf))
        keep &= scores >= cut  # every tie with the k-th score survives
    rows, cols = np.divmod(np.flatnonzero(keep), scores.shape[1])  # 10x np.nonzero's speed
    kept_scores = scores[rows, cols] if rescore is None else rescore(rows, cols)
    kept_ids = ids[cols]
    order = np.lexsort((kept_ids, -kept_scores, rows))
    rows, kept_ids, kept_scores = rows[order], kept_ids[order], kept_scores[order]
    bounds = np.searchsorted(rows, np.arange(scores.shape[0] + 1)).tolist()
    return [(kept_ids[lo: min(hi, lo + k)], kept_scores[lo: min(hi, lo + k)])
            for lo, hi in zip(bounds, bounds[1:])]


class Float32Copy:
    """A flat index's matrix cast to float32, half its size, and the two
    float64 gather buffers of `_rescore`: what the float32 selection of
    `FlatIndex.search_batch` reuses across the blocks of one search. Its
    maker holds it for one search and drops it with it, so no copy
    outlives a search."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix.astype(np.float32)
        dim = matrix.shape[1]
        self.gathered = np.empty((2, max(1, _GATHER_BYTES // (8 * dim)), dim))


class FlatIndex:
    """Exhaustive exact cosine top-k over the full record matrix."""

    kind = "flat"

    def __init__(self, matrix: np.ndarray, sentence_ids: np.ndarray, words: list[str] | None):
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
                     exclude: np.ndarray | None = None, out: np.ndarray | None = None,
                     copy32: Float32Copy | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
        """Top-k (record ids, scores) for each row of queries (m, dim), in one
        BLAS call; records where the boolean `exclude` is set never return.
        `exclude` is one (n,) mask for every row or an (m, n) mask per row.
        The scores go into `out`, a C-contiguous (m, n) matrix, if given:
        float64, or float32 with `copy32`.

        With `copy32`, a `Float32Copy` of this index's matrix, the product is
        the float32 one, and the hits within each row's band (`_band`) are
        rescored in float64: the same ids in the same order as a float64
        search, each scored by the fixed-order dot of its two rows. Rows
        outside the bound's range are searched in float64 instead."""
        queries = _check_queries(queries, self.dim)
        band = None if copy32 is None else _band(queries)
        if band is None:
            scores = _scores(self.matrix, queries, None if copy32 else out)
        else:
            scores = np.matmul(queries.astype(np.float32), copy32.matrix.T, out=out)
        if exclude is not None:
            np.copyto(scores, -np.inf, where=exclude)
        rescore = None if band is None else partial(
            _rescore, queries, self.matrix, copy32.gathered)
        return _top_k(scores, np.arange(len(self)), k, band, rescore)


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
                     exclude: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
        """FlatIndex.search_batch over the `nprobe` clusters nearest to each
        row. Each probed cluster's contiguous slice is multiplied with only
        the rows that probe it; a record the row did not probe scores -inf."""
        queries = _check_queries(queries, self.dim)
        nprobe = default_nprobe(self.nlist) if nprobe is None else nprobe
        m = queries.shape[0]
        probe = np.argsort(-_scores(self.centroids, queries), axis=1, kind="stable")
        probed = np.zeros((self.nlist, m), dtype=bool)
        probed[probe[:, :nprobe], np.arange(m)[:, None]] = True
        scores = np.empty((m, len(self))) if out is None else out
        scores.fill(-np.inf)
        for c in np.flatnonzero(probed.any(axis=1)).tolist():
            cols = np.flatnonzero(probed[c])
            rows = slice(self.offsets[c], self.offsets[c + 1])
            scores[cols, rows] = _scores(self.grouped[rows], queries[cols])
        if exclude is not None:
            np.copyto(scores, -np.inf, where=exclude[..., self.row_record_ids])
        return _top_k(scores, self.row_record_ids, k)


Index = FlatIndex | IvfIndex


def flat_from_matrix(
    matrix: np.ndarray, sentence_ids: np.ndarray, words: list[str] | None = None
) -> FlatIndex:
    """An exhaustive-scan index over unit-norm rows, row i being record i."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.shape[0] == 0:
        raise EmptyCollection("cannot build an index over zero records")
    _check_unit_norm(matrix)
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
    _check_unit_norm(matrix)
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
    for _ in range(iters):
        new_assignment = _assign_to_centroids(matrix, centroids)
        if np.array_equal(new_assignment, assignment):
            return centroids, assignment
        assignment = new_assignment
        order = np.argsort(assignment, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(assignment, minlength=nlist))])
        centroids = np.empty_like(centroids)
        for c, (start, stop) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            if stop > start:  # one cluster's rows gathered: never a copy of the whole matrix
                centroids[c] = matrix[order[start:stop]].sum(axis=0) / (stop - start)
            else:  # an empty cluster restarts at a random row
                centroids[c] = matrix[int(rng.integers(n))]
        norms = np.linalg.norm(centroids, axis=1)
        for c in np.flatnonzero(norms == 0.0):
            centroids[c] = matrix[int(rng.integers(n))]
            norms[c] = 1.0
        centroids /= norms[:, None]
    return centroids, _assign_to_centroids(matrix, centroids)


# --- persistence: index files and the embedding cache ------------------------

def save_array(path: Path, array: np.ndarray) -> None:
    """Write `array` as .npy at exactly `path` (np.save would append .npy),
    replacing the file: a reader that mapped the old one keeps it intact."""
    files.replace(path, lambda fh: np.save(fh, array, allow_pickle=False))


def open_array(path: Path, dtype, shape: tuple[int | None, ...], what: str = "index") -> np.ndarray:
    """Memory-map the .npy file at `path` and check its dtype and shape (None
    matches any length). Raises MissingArtifact when the file is absent or
    cannot be opened and FormatError when it is not a .npy array, holds
    bytes past its array or does not have the dtype and shape expected."""
    role = files.store_role(path, what)
    # np.load(path, mmap_mode="r") minus its fallback to pickle for a non-.npy
    mapped = files.read(path, lambda p: np.lib.format.open_memmap(p, mode="r"), role)
    if mapped.offset + mapped.nbytes != path.stat().st_size:  # the mapping ignores them
        raise role.malformed(path, "trailing bytes after the array")
    if mapped.dtype != dtype or len(mapped.shape) != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, mapped.shape)):
        raise role.malformed(path, f"{mapped.dtype} {mapped.shape}, expected "
                                   f"{np.dtype(dtype)} {shape}")
    return np.asarray(mapped)


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
    files.write_json(_part(path, "json"), {"kind": index.kind, "words": index.words},
                     ensure_ascii=False)


def load_index(path: str | Path) -> Index:
    """Open the index `save_index` wrote at `path`, every array memory-mapped;
    raises as `open_array` does, and FormatError when the parts disagree."""
    path = Path(path)
    matrix = open_array(path, np.float64, (None, None))
    n, dim = matrix.shape
    role = files.store_role(path, "index")
    fault = _norm_fault(matrix) if n else "zero rows"
    if fault is not None:
        raise role.malformed(path, fault)
    sentence_ids = open_array(_part(path, "sentence_ids.npy"), np.int64, (n,))
    json_path = _part(path, "json")
    json_role = files.store_role(json_path, "index")
    doc = files.read_json(json_path, json_role)
    kind, words = (doc.get("kind"), doc.get("words")) if isinstance(doc, dict) else (None, None)
    if kind not in ("flat", "ivf") or words is not None and not (
            isinstance(words, list) and len(words) == n and all(isinstance(w, str) for w in words)):
        raise json_role.malformed(json_path, f"expected its kind and null or {n} words")
    if kind == "flat":
        return FlatIndex(matrix, sentence_ids, words)
    offsets = open_array(_part(path, "offsets.npy"), np.int64, (None,))
    if len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != n or np.any(np.diff(offsets) < 0):
        raise role.malformed(path, f"offsets do not partition the {n} rows")
    centroids = open_array(_part(path, "centroids.npy"), np.float64, (len(offsets) - 1, dim))
    row_record_ids = open_array(_part(path, "row_record_ids.npy"), np.int64, (n,))
    if not np.array_equal(np.sort(row_record_ids), np.arange(n)):
        raise role.malformed(path, f"row_record_ids are not a permutation of 0..{n - 1}")
    return IvfIndex(matrix, row_record_ids, offsets, centroids, sentence_ids, words)
