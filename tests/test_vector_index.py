"""Exact flat search, IVF clustering/probing, and index persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragner.errors import (
    DimensionMismatch,
    EmptyCollection,
    FormatError,
    MissingArtifact,
    NlistTooLarge,
)
from ragner.vector_index import (
    FlatIndex,
    IvfIndex,
    default_nlist,
    default_nprobe,
    flat_from_matrix,
    ivf_from_matrix,
    load_index,
    save_index,
)


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    m = rng.normal(size=(n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def oracle_top_k(matrix: np.ndarray, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Reference top-k: plain python loop, ties broken by ascending record id."""
    scores = [float(np.dot(row, query)) for row in matrix]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [(i, scores[i]) for i in order[:k]]


def word_flat(matrix: np.ndarray) -> FlatIndex:
    """A word index over the rows: record i is word w{i} of sentence 1000 + i."""
    n = matrix.shape[0]
    return flat_from_matrix(matrix, 1000 + np.arange(n), [f"w{i}" for i in range(n)])


def word_ivf(matrix: np.ndarray, nlist: int, seed: int = 0) -> IvfIndex:
    """The IVF twin of `word_flat`."""
    n = matrix.shape[0]
    return ivf_from_matrix(matrix, 1000 + np.arange(n), [f"w{i}" for i in range(n)], nlist,
                           seed=seed)


# --- defaults ------------------------------------------------------------------


def test_default_nlist_is_floor_sqrt():
    assert default_nlist(1) == 1
    assert default_nlist(10) == 3
    assert default_nlist(100) == 10
    assert default_nlist(99) == 9
    assert default_nlist(100000) == 316


def test_default_nprobe_is_ceil_eighth():
    assert default_nprobe(1) == 1
    assert default_nprobe(8) == 1
    assert default_nprobe(9) == 2
    assert default_nprobe(316) == 40


# --- flat exactness ---------------------------------------------------------------


@pytest.mark.parametrize("dim", [4, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_matches_oracle(dim, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 300))
    matrix = unit_rows(rng, n, dim)
    index = word_flat(matrix)
    for _ in range(10):
        query = unit_rows(rng, 1, dim)[0]
        k = int(rng.integers(1, 21))
        hits = index.search(query, k)
        expected = oracle_top_k(matrix, query, k)
        assert [h.record_id for h in hits] == [i for i, _ in expected]
        for hit, (_, score) in zip(hits, expected):
            assert abs(hit.score - score) < 1e-6


def test_flat_tie_break_is_ascending_record_id():
    v = np.array([1.0, 0.0])
    matrix = np.stack([v, v, v])
    index = flat_from_matrix(matrix, sentence_ids=[7, 8, 9])
    hits = index.search(v, 3)
    assert [h.record_id for h in hits] == [0, 1, 2]


def test_flat_k_larger_than_n():
    rng = np.random.default_rng(3)
    matrix = unit_rows(rng, 4, 8)
    hits = word_flat(matrix).search(matrix[0], 50)
    assert len(hits) == 4


def test_flat_scores_bounded_by_cosine():
    rng = np.random.default_rng(4)
    matrix = unit_rows(rng, 64, 16)
    index = word_flat(matrix)
    for _ in range(20):
        q = unit_rows(rng, 1, 16)[0]
        for h in index.search(q, 64):
            assert -1.0 - 1e-9 <= h.score <= 1.0 + 1e-9


def test_flat_carries_words_and_sentence_ids():
    rng = np.random.default_rng(5)
    matrix = unit_rows(rng, 3, 4)
    index = word_flat(matrix)
    assert index.words == ["w0", "w1", "w2"]
    assert list(index.sentence_ids) == [1000, 1001, 1002]


# --- input validation ----------------------------------------------------------


def test_empty_records_rejected():
    with pytest.raises(EmptyCollection):
        flat_from_matrix(np.zeros((0, 4)), [])
    with pytest.raises(EmptyCollection):
        ivf_from_matrix(np.zeros((0, 4)), [], None, nlist=1)


def test_non_unit_vectors_rejected():
    with pytest.raises(ValueError, match="unit-norm"):
        word_flat(np.array([[2.0, 0.0]]))


def test_bad_query_dimension_rejected():
    index = flat_from_matrix(np.array([[1.0, 0.0]]), [0])
    with pytest.raises(DimensionMismatch):
        index.search(np.array([1.0, 0.0, 0.0]), 1)


def test_k_must_be_positive():
    index = flat_from_matrix(np.array([[1.0, 0.0]]), [0])
    with pytest.raises(ValueError):
        index.search(np.array([1.0, 0.0]), 0)


def test_nlist_out_of_range():
    rng = np.random.default_rng(6)
    matrix = unit_rows(rng, 5, 4)
    with pytest.raises(NlistTooLarge):
        word_ivf(matrix, nlist=6)
    with pytest.raises(NlistTooLarge):
        word_ivf(matrix, nlist=0)


def test_nprobe_out_of_range():
    rng = np.random.default_rng(7)
    matrix = unit_rows(rng, 16, 4)
    index = word_ivf(matrix, nlist=4)
    with pytest.raises(ValueError):
        index.search(matrix[0], 1, nprobe=0)
    with pytest.raises(ValueError):
        index.search(matrix[0], 1, nprobe=5)


# --- IVF correctness ------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 11, 29])
def test_ivf_full_probe_equals_flat(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 200))
    dim = int(rng.choice([4, 32]))
    matrix = unit_rows(rng, n, dim)
    flat = word_flat(matrix)
    nlist = default_nlist(n)
    ivf = word_ivf(matrix, nlist=nlist, seed=seed)
    for _ in range(10):
        query = unit_rows(rng, 1, dim)[0]
        fh = flat.search(query, 10)
        ih = ivf.search(query, 10, nprobe=nlist)
        assert [h.record_id for h in fh] == [h.record_id for h in ih]
        assert np.allclose([h.score for h in fh], [h.score for h in ih], atol=1e-12)


def test_ivf_recall_non_decreasing_in_nprobe():
    rng = np.random.default_rng(13)
    n, dim, k = 400, 16, 10
    matrix = unit_rows(rng, n, dim)
    flat = word_flat(matrix)
    nlist = 16
    ivf = word_ivf(matrix, nlist=nlist, seed=13)
    queries = unit_rows(rng, 20, dim)

    nprobes = [1, 2, 4, 8, 16]
    recalls = []
    for nprobe in nprobes:
        got = 0
        for q in queries:
            truth = {h.record_id for h in flat.search(q, k)}
            found = {h.record_id for h in ivf.search(q, k, nprobe=nprobe)}
            got += len(truth & found)
        recalls.append(got / (len(queries) * k))
    assert all(b >= a for a, b in zip(recalls, recalls[1:]))
    assert recalls[-1] == 1.0


def test_ivf_tie_break_matches_flat():
    v = np.array([0.0, 1.0])
    w = np.array([1.0, 0.0])
    matrix = np.stack([v, w, v, w, v, w])
    ivf = ivf_from_matrix(matrix, sentence_ids=list(range(6)), words=None, nlist=2)
    hits = ivf.search(v, 6, nprobe=2)
    assert [h.record_id for h in hits] == [0, 2, 4, 1, 3, 5]


def test_ivf_build_is_deterministic():
    rng = np.random.default_rng(17)
    matrix = unit_rows(rng, 120, 8)
    a = word_ivf(matrix, nlist=8, seed=42)
    b = word_ivf(matrix, nlist=8, seed=42)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.row_record_ids, b.row_record_ids)
    assert np.array_equal(a.offsets, b.offsets)


def test_ivf_separates_well_separated_blobs():
    rng = np.random.default_rng(19)
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    rows = []
    membership = []
    for i in range(40):
        base = e0 if i % 2 == 0 else e1
        noisy = base + rng.normal(scale=0.01, size=4)
        rows.append(noisy / np.linalg.norm(noisy))
        membership.append(i % 2)
    matrix = np.stack(rows)
    ivf = ivf_from_matrix(matrix, sentence_ids=list(range(40)), words=None, nlist=2, seed=19)

    offsets = ivf.offsets.tolist()
    groups = [set(ivf.row_record_ids[lo:hi].tolist()) for lo, hi in zip(offsets, offsets[1:])]
    blob0 = {i for i, m in enumerate(membership) if m == 0}
    blob1 = {i for i, m in enumerate(membership) if m == 1}
    assert {frozenset(g) for g in groups} == {frozenset(blob0), frozenset(blob1)}

    # probing one cluster near e0 returns only blob-0 records
    hits = ivf.search(e0, 40, nprobe=1)
    assert {h.record_id for h in hits} == blob0


def test_ivf_nlist_one_degenerates_to_flat():
    rng = np.random.default_rng(23)
    matrix = unit_rows(rng, 50, 8)
    flat = word_flat(matrix)
    ivf = word_ivf(matrix, nlist=1)
    for _ in range(5):
        q = unit_rows(rng, 1, 8)[0]
        assert [h.record_id for h in flat.search(q, 7)] == [
            h.record_id for h in ivf.search(q, 7, nprobe=1)
        ]


def test_ivf_default_nprobe_used_when_unset():
    rng = np.random.default_rng(27)
    matrix = unit_rows(rng, 300, 8)
    ivf = word_ivf(matrix, nlist=16, seed=27)
    q = unit_rows(rng, 1, 8)[0]
    assert ivf.search(q, 5) == ivf.search(q, 5, nprobe=default_nprobe(16))


def test_ivf_grouped_rows_map_back_to_records():
    rng = np.random.default_rng(31)
    matrix = unit_rows(rng, 60, 8)
    ivf = word_ivf(matrix, nlist=5, seed=31)
    record_order = np.empty_like(ivf.grouped)
    record_order[ivf.row_record_ids] = ivf.grouped
    assert np.array_equal(record_order, matrix)
    assert sorted(map(int, ivf.row_record_ids)) == list(range(60))


# --- persistence ----------------------------------------------------------------


def saved_ivf(tmp_path, n: int = 12, nlist: int = 3, seed: int = 53):
    """A saved IVF word index over n random rows: (path of its matrix, index)."""
    index = word_ivf(unit_rows(np.random.default_rng(seed), n, 4), nlist=nlist, seed=seed)
    path = tmp_path / "word_index.bin"
    save_index(index, path)
    return path, index


def part(path, name):
    """The file of an index part, beside the matrix file at `path`."""
    return path.with_name(f"{path.stem}.{name}")


IVF_PARTS = ["", "sentence_ids.npy", "centroids.npy", "offsets.npy", "row_record_ids.npy", "json"]


def part_path(path, name):
    return path if name == "" else part(path, name)


def test_save_load_flat_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    matrix = unit_rows(rng, 25, 6)
    index = word_flat(matrix)
    path = tmp_path / "flat.bin"
    save_index(index, path)
    loaded = load_index(path)
    assert isinstance(loaded, FlatIndex)
    assert np.array_equal(loaded.matrix, index.matrix)
    assert np.array_equal(loaded.sentence_ids, index.sentence_ids)
    assert loaded.words == index.words
    assert all(isinstance(a.base, np.memmap) for a in (loaded.matrix, loaded.sentence_ids))
    q = unit_rows(rng, 1, 6)[0]
    assert loaded.search(q, 5) == index.search(q, 5)


def test_save_load_ivf_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    matrix = unit_rows(rng, 80, 6)
    index = word_ivf(matrix, nlist=6, seed=41)
    path = tmp_path / "ivf.bin"
    save_index(index, path)
    loaded = load_index(path)
    assert isinstance(loaded, IvfIndex)
    arrays = ("grouped", "sentence_ids", "centroids", "offsets", "row_record_ids")
    for name in arrays:
        assert np.array_equal(getattr(loaded, name), getattr(index, name)), name
        assert isinstance(getattr(loaded, name).base, np.memmap), name
    assert loaded.words == index.words
    q = unit_rows(rng, 1, 6)[0]
    for nprobe in (1, 3, 6):
        assert loaded.search(q, 9, nprobe=nprobe) == index.search(q, 9, nprobe=nprobe)


def test_save_load_sentence_records_have_no_words(tmp_path):
    rng = np.random.default_rng(43)
    matrix = unit_rows(rng, 10, 4)
    index = flat_from_matrix(matrix, np.arange(10))
    assert index.words is None
    path = tmp_path / "sent.bin"
    save_index(index, path)
    assert load_index(path).words is None


def test_load_reads_the_recorded_kind_not_the_files_present(tmp_path):
    path, ivf = saved_ivf(tmp_path)
    stale = {name: part(path, name).read_bytes() for name in IVF_PARTS[2:5]}
    flat = word_flat(unit_rows(np.random.default_rng(1), 12, 4))
    save_index(flat, path)
    assert not any(part(path, name).exists() for name in stale)
    for name, data in stale.items():  # IVF files put back beside the flat index
        part(path, name).write_bytes(data)
    loaded = load_index(path)
    assert isinstance(loaded, FlatIndex) and np.array_equal(loaded.matrix, flat.matrix)
    save_index(ivf, path)
    assert isinstance(load_index(path), IvfIndex)


def test_saving_over_a_loaded_index_leaves_it_its_own_arrays(tmp_path):
    path, index = saved_ivf(tmp_path)
    loaded = load_index(path)
    save_index(word_flat(unit_rows(np.random.default_rng(2), 5, 4)), path)
    for name in ("grouped", "sentence_ids", "centroids", "offsets", "row_record_ids"):
        assert np.array_equal(getattr(loaded, name), getattr(index, name)), name
    assert len(load_index(path)) == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "word_index.bin", "word_index.json", "word_index.sentence_ids.npy"]


def test_load_rejects_a_missing_part(tmp_path):
    path, _ = saved_ivf(tmp_path)
    for name in IVF_PARTS:
        data = part_path(path, name).read_bytes()
        part_path(path, name).unlink()
        with pytest.raises(MissingArtifact, match="re-run `ragner index`"):
            load_index(path)
        part_path(path, name).write_bytes(data)


def test_load_rejects_bad_magic(tmp_path):
    path, _ = saved_ivf(tmp_path)
    for name in IVF_PARTS:
        blob = part_path(path, name).read_bytes()
        for garbage in (b"NOTIDX" + b"\x00" * 32, b"RAGIDX\x01\x00\x00\x00\x00\x01",
                        b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe"):
            part_path(path, name).write_bytes(garbage)
            with pytest.raises(FormatError, match="re-run `ragner index`"):
                load_index(path)
        part_path(path, name).write_bytes(blob)


def test_load_rejects_future_version(tmp_path):
    path, _ = saved_ivf(tmp_path)
    data = bytearray(path.read_bytes())
    data[6] = 9  # the .npy format version follows its 6-byte magic
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="version"):
        load_index(path)


def test_load_rejects_truncation_everywhere(tmp_path):
    path, _ = saved_ivf(tmp_path)
    for name in IVF_PARTS:
        blob = part_path(path, name).read_bytes()
        # cut in the magic, the header and the data, or only the last byte
        # (the JSON part's last byte is its newline: cut the one before)
        for cut in (0, 4, 30, len(blob) - 9, len(blob.rstrip(b"\n")) - 1):
            part_path(path, name).write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                load_index(path)
        part_path(path, name).write_bytes(blob)
    load_index(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path, _ = saved_ivf(tmp_path)
    for name in IVF_PARTS[:-1]:
        blob = part_path(path, name).read_bytes()
        part_path(path, name).write_bytes(blob + b"x" * 8)
        with pytest.raises(FormatError, match="trailing"):
            load_index(path)
        part_path(path, name).write_bytes(blob)


@pytest.mark.parametrize("name, array", [
    ("", np.zeros((12, 4), dtype=np.float32)),
    ("", np.zeros((12, 4), dtype=">f8")),
    ("", np.zeros(48)),
    ("sentence_ids.npy", np.zeros(12, dtype=np.int32)),
    ("sentence_ids.npy", np.zeros((12, 1), dtype=np.int64)),
    ("centroids.npy", np.zeros((3, 5))),
    ("centroids.npy", np.zeros((4, 4))),
    ("offsets.npy", np.array([0, 4, 8, 12], dtype=np.uint64)),
    ("row_record_ids.npy", np.arange(12, dtype=np.uint32)),
])
def test_load_rejects_a_wrong_dtype_or_shape(tmp_path, name, array):
    path, _ = saved_ivf(tmp_path)
    with open(part_path(path, name), "wb") as fh:
        np.save(fh, array)
    with pytest.raises(FormatError, match="expected"):
        load_index(path)


def test_load_rejects_parts_of_different_lengths(tmp_path):
    path, index = saved_ivf(tmp_path)
    with open(part(path, "sentence_ids.npy"), "wb") as fh:
        np.save(fh, index.sentence_ids[:-1])
    with pytest.raises(FormatError, match="expected int64 \\(12,\\)"):
        load_index(path)
    path, index = saved_ivf(tmp_path)
    for doc in ({"kind": "ivf", "words": index.words[:-1]}, {"kind": "ivf", "words": [1] * 12},
                {"kind": "hnsw", "words": None}, ["flat"]):
        part(path, "json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(FormatError):
            load_index(path)


def test_load_rejects_postings_that_are_not_a_permutation(tmp_path):
    path, index = saved_ivf(tmp_path)
    ids = index.row_record_ids
    for bad in (ids[0], 12, -1):  # a duplicated record id, then two out of range
        corrupt = ids.copy()
        corrupt[1] = bad
        with open(part(path, "row_record_ids.npy"), "wb") as fh:
            np.save(fh, corrupt)
        with pytest.raises(FormatError, match="permutation"):
            load_index(path)


@pytest.mark.parametrize("offsets", [[0, 4, 8, 11], [1, 4, 8, 12], [0, 8, 4, 12], [0, 12, 12, 13],
                                     [0]])
def test_load_rejects_offsets_that_do_not_partition_the_rows(tmp_path, offsets):
    path, _ = saved_ivf(tmp_path)
    with open(part(path, "offsets.npy"), "wb") as fh:
        np.save(fh, np.array(offsets, dtype=np.int64))
    with pytest.raises(FormatError, match="partition"):
        load_index(path)


# --- batched search -----------------------------------------------------------------

# Unit vectors with entries of +-1/4 in 16 dimensions, plus +-e0: every dot
# product is a multiple of 1/16, exact in any summation order, so batched
# and single-query scores agree to the bit and exact ties are common.
_EXACT = np.vstack([
    np.where(np.random.default_rng(67).random((6, 16)) < 0.5, -0.25, 0.25),
    np.eye(16)[:1],
    -np.eye(16)[:1],
])


def lexsort_oracle(matrix, query, k, exclude):
    scores = matrix @ query
    allowed = [i for i in range(len(matrix)) if not exclude[i]]
    ranked = sorted(allowed, key=lambda i: (-scores[i], i))[:k]
    return [(i, float(scores[i])) for i in ranked]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_search_batch_matches_lexsort_oracle(data):
    rows = data.draw(st.lists(st.integers(0, len(_EXACT) - 1), min_size=1, max_size=30))
    queries = data.draw(st.lists(st.integers(0, len(_EXACT) - 1), min_size=1, max_size=5))
    k = data.draw(st.integers(1, 35))  # k >= n is covered
    exclude = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))))
    per_row = np.array(data.draw(st.lists(  # one mask per query row
        st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)),
        min_size=len(queries), max_size=len(queries))))
    matrix, q = _EXACT[rows], _EXACT[queries]
    nlist = data.draw(st.integers(1, len(rows)))
    indexes = [
        (flat_from_matrix(matrix, np.arange(len(rows))), None),
        (ivf_from_matrix(matrix, np.arange(len(rows)), None, nlist=nlist, seed=3), nlist),
    ]
    for index, nprobe in indexes:
        for mask in (None, exclude, per_row):
            results = index.search_batch(q, k, nprobe=nprobe, exclude=mask)
            assert len(results) == len(queries)
            row_masks = np.broadcast_to(False if mask is None else mask, (len(queries), len(rows)))
            for row, row_mask, (ids, scores) in zip(q, row_masks, results):
                expected = lexsort_oracle(matrix, row, k, row_mask)
                assert list(zip(ids.tolist(), scores.tolist())) == expected


def test_search_batch_rows_match_single_searches():
    rng = np.random.default_rng(71)
    matrix = unit_rows(rng, 300, 32)
    queries = unit_rows(rng, 7, 32)
    flat = flat_from_matrix(matrix, np.arange(300))
    ivf = ivf_from_matrix(matrix, np.arange(300), None, nlist=12, seed=71)
    for index, nprobe in ((flat, None), (ivf, 12), (ivf, 3)):
        batch = index.search_batch(queries, 9, nprobe=nprobe)
        for query, (ids, scores) in zip(queries, batch):
            single = index.search(query, 9, nprobe=nprobe)
            assert ids.tolist() == [h.record_id for h in single]
            np.testing.assert_allclose(scores, [h.score for h in single], rtol=0, atol=1e-12)


def test_search_batch_validates_its_arguments():
    rng = np.random.default_rng(73)
    matrix = unit_rows(rng, 20, 4)
    flat = flat_from_matrix(matrix, np.arange(20))
    ivf = ivf_from_matrix(matrix, np.arange(20), None, nlist=4, seed=73)
    for index in (flat, ivf):
        with pytest.raises(DimensionMismatch):
            index.search_batch(unit_rows(rng, 2, 3), 1)
        with pytest.raises(DimensionMismatch):
            index.search_batch(matrix[0], 1)  # one vector, not a batch
        with pytest.raises(ValueError, match="k must be"):
            index.search_batch(matrix[:2], 0)
    for nprobe in (0, 5):
        with pytest.raises(ValueError, match="nprobe"):
            ivf.search_batch(matrix[:2], 1, nprobe=nprobe)

