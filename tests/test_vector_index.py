"""Exact flat search, IVF clustering/probing, and index persistence."""

from __future__ import annotations

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ragner.errors import (
    DimensionMismatch,
    EmptyCollection,
    FormatError,
    MissingArtifact,
    NlistTooLarge,
)
from ragner import vector_index
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vectors_rejected(bad):
    matrix = np.array([[bad, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        flat_from_matrix(matrix, [0, 1])
    with pytest.raises(ValueError, match="finite"):
        ivf_from_matrix(matrix, [0, 1], None, nlist=1)


def test_bad_query_dimension_rejected():
    index = flat_from_matrix(np.array([[1.0, 0.0]]), [0])
    with pytest.raises(DimensionMismatch):
        index.search(np.array([1.0, 0.0, 0.0]), 1)


def test_nlist_out_of_range():
    rng = np.random.default_rng(6)
    matrix = unit_rows(rng, 5, 4)
    with pytest.raises(NlistTooLarge):
        word_ivf(matrix, nlist=6)
    with pytest.raises(NlistTooLarge):
        word_ivf(matrix, nlist=0)


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


def names_the_file(path, reason: str) -> str:
    """The pattern of a FormatError message about the index file at `path`."""
    return f"^{re.escape(str(path))}: .*{reason}.*re-run `ragner index`"


@pytest.mark.parametrize("kind", ["flat", "ivf"])
@pytest.mark.parametrize("row, reason", [
    ([np.nan, 0.0, 0.0, 0.0], "finite"), ([np.inf, 0.0, 0.0, 0.0], "finite"),
    ([2.0, 0.0, 0.0, 0.0], "unit-norm"), ([0.0, 0.0, 0.0, 0.0], "unit-norm"),
])
def test_load_rejects_rows_that_are_not_finite_unit_vectors(tmp_path, kind, row, reason):
    path, index = saved_ivf(tmp_path)
    if kind == "flat":
        save_index(word_flat(index.grouped), path)
    corrupt = np.load(path)
    corrupt[5] = row
    with open(path, "wb") as fh:
        np.save(fh, corrupt)
    with pytest.raises(FormatError, match=names_the_file(path, reason)):
        load_index(path)


def test_load_rejects_an_index_of_zero_rows(tmp_path):
    path = tmp_path / "word_index.bin"
    save_index(word_flat(unit_rows(np.random.default_rng(3), 4, 4)), path)
    for name, array in (("", np.zeros((0, 4))), ("sentence_ids.npy", np.zeros(0, dtype=np.int64))):
        with open(part_path(path, name), "wb") as fh:
            np.save(fh, array)
    part(path, "json").write_text(json.dumps({"kind": "flat", "words": []}), encoding="utf-8")
    with pytest.raises(FormatError, match=names_the_file(path, "zero rows")):
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
    # the k-th scores are partitioned a block of rows at a time: here the
    # whole batch, one row, or two rows (leaving a short last block)
    for index, nprobe, partition_scores in [(*i, n) for i in indexes for n in (
            vector_index._PARTITION_SCORES, 1, 2 * len(rows))]:
        for mask in (None, exclude, per_row):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(vector_index, "_PARTITION_SCORES", partition_scores)
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



# --- IVF: work in proportion to what is probed -------------------------------------


def probed_sets(index: IvfIndex, queries: np.ndarray, nprobe: int) -> list[frozenset[int]]:
    """Each query row's `nprobe` nearest clusters, ties to the lower cluster.
    The centroid product is the one `search_batch` makes for two or more rows."""
    nearest = np.argsort(-(index.centroids @ queries.T).T, axis=1, kind="stable")[:, :nprobe]
    return [frozenset(row.tolist()) for row in nearest]


def probe_oracle(index: IvfIndex, queries: np.ndarray, nprobe: int, k: int,
                 exclude: np.ndarray) -> list[list[tuple[int, float]]]:
    """Per query row: brute-force top-k over the records of that row's own
    probed clusters, by descending score then ascending record id."""
    cluster_of = np.repeat(np.arange(index.nlist), np.diff(index.offsets))[
        np.argsort(index.row_record_ids)]
    record_matrix = index.grouped[np.argsort(index.row_record_ids)]
    out = []
    for query, clusters, mask in zip(queries, probed_sets(index, queries, nprobe), exclude):
        allowed = [i for i in range(len(index)) if cluster_of[i] in clusters and not mask[i]]
        scores = {i: float(record_matrix[i] @ query) for i in allowed}
        out.append([(i, scores[i]) for i in sorted(allowed, key=lambda i: (-scores[i], i))[:k]])
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ivf_search_batch_matches_an_oracle_over_each_rows_own_probes(data):
    rows = data.draw(st.lists(st.integers(0, len(_EXACT) - 1), min_size=3, max_size=30))
    queries = data.draw(st.lists(st.integers(0, len(_EXACT) - 1), min_size=2, max_size=6))
    nlist = data.draw(st.integers(2, len(rows)))
    nprobe = data.draw(st.integers(1, nlist - 1))
    k = data.draw(st.integers(1, 35))
    exclude = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)),
        min_size=len(queries), max_size=len(queries))))
    matrix, q = _EXACT[rows], _EXACT[queries]
    index = ivf_from_matrix(matrix, np.arange(len(rows)), None, nlist=nlist, seed=5)
    assume(len(set(probed_sets(index, q, nprobe))) > 1)  # the rows probe different clusters
    results = index.search_batch(q, k, nprobe=nprobe, exclude=exclude)
    expected = probe_oracle(index, q, nprobe, k, exclude)
    assert [list(zip(ids.tolist(), scores.tolist())) for ids, scores in results] == expected


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ivf_search_batch_matches_the_probe_oracle_on_random_rows(seed):
    rng = np.random.default_rng(seed)
    matrix = unit_rows(rng, 240, 24)
    queries = unit_rows(rng, 9, 24)
    index = ivf_from_matrix(matrix, np.arange(240), None, nlist=15, seed=seed)
    exclude = rng.random((9, 240)) < 0.2
    for nprobe in (1, 3, 15):
        results = index.search_batch(queries, 8, nprobe=nprobe, exclude=exclude)
        expected = probe_oracle(index, queries, nprobe, 8, exclude)
        for (ids, scores), want in zip(results, expected):
            assert ids.tolist() == [i for i, _ in want]
            np.testing.assert_allclose(scores, [s for _, s in want], rtol=0, atol=1e-12)


def test_ivf_search_batch_multiplies_each_cluster_only_with_the_rows_probing_it(monkeypatch):
    rng = np.random.default_rng(83)
    matrix = unit_rows(rng, 400, 16)
    queries = unit_rows(rng, 12, 16)
    index = ivf_from_matrix(matrix, np.arange(400), None, nlist=20, seed=83)
    nprobe = 3
    calls = []
    real_scores = vector_index._scores

    def recording(block, rows):
        calls.append((block is index.centroids, block.shape[0], rows.shape[0]))
        return real_scores(block, rows)

    monkeypatch.setattr(vector_index, "_scores", recording)
    index.search_batch(queries, 5, nprobe=nprobe)
    assert calls[0] == (True, 20, 12)  # one product with the centroids
    sizes = np.diff(index.offsets)
    probers = np.zeros(20, dtype=np.int64)
    for clusters in probed_sets(index, queries, nprobe):
        probers[list(clusters)] += 1
    assert not any(is_centroids for is_centroids, _, _ in calls[1:])
    assert sum(n * m for _, n, m in calls[1:]) == int(sizes @ probers)
    union = int(sizes[probers > 0].sum()) * len(queries)
    assert int(sizes @ probers) < union  # the fixture tells the two apart


def test_ivf_search_of_one_query_keeps_its_bits():
    """One-query search scores each probed cluster with a mat-vec."""
    rng = np.random.default_rng(89)
    index = ivf_from_matrix(unit_rows(rng, 300, 32), np.arange(300), None, nlist=12, seed=89)
    for query in unit_rows(rng, 5, 32):
        matvec = {}
        for lo, hi in zip(index.offsets.tolist(), index.offsets[1:].tolist()):
            matvec.update(zip(index.row_record_ids[lo:hi].tolist(),
                              (index.grouped[lo:hi] @ query).tolist()))
        hits = index.search(query, 10, nprobe=4)
        assert len(hits) == 10
        assert all(hit.score == matvec[hit.record_id] for hit in hits)


def test_flat_search_of_one_query_keeps_its_bits():
    """One-query search scores every record with a mat-vec."""
    rng = np.random.default_rng(97)
    matrix = unit_rows(rng, 300, 32)
    index = flat_from_matrix(matrix, np.arange(300))
    for query in unit_rows(rng, 5, 32):
        matvec = (matrix @ query).tolist()
        hits = index.search(query, 300)
        assert sorted(hit.record_id for hit in hits) == list(range(300))
        assert all(hit.score == matvec[hit.record_id] for hit in hits)



# --- float32 selection, float64 rescoring ---------------------------------------------


def fixed_dot(query: np.ndarray, row: np.ndarray) -> float:
    """The fixed-order float64 dot of two rows, as the float32 selection
    rescores each hit."""
    return float(np.einsum("ij,ij->i", query[None, :], row[None, :])[0])


def float64_oracle(matrix: np.ndarray, queries: np.ndarray, k: int,
                   exclude: np.ndarray | None) -> list[list[tuple[int, str]]]:
    """Per query row: brute-force top-k by the fixed-order dot, by descending
    score then ascending record id, masked records left out; each score as
    float.hex, so that equality is equality of bits."""
    masks = np.broadcast_to(False if exclude is None else exclude, (len(queries), len(matrix)))
    out = []
    for query, mask in zip(queries, masks):
        scores = {i: fixed_dot(query, row) for i, row in enumerate(matrix) if not mask[i]}
        ranked = sorted(scores, key=lambda i: (-scores[i], i))[:k]
        out.append([(i, scores[i].hex()) for i in ranked])
    return out


def select32(matrix: np.ndarray, queries: np.ndarray, k: int,
             exclude: np.ndarray | None = None) -> list[list[tuple[int, str]]]:
    """A flat search_batch through a Float32Copy, scores as float.hex."""
    index = flat_from_matrix(matrix, np.arange(len(matrix)))
    copy32 = vector_index.Float32Copy(index.matrix)
    results = index.search_batch(queries, k, exclude=exclude, copy32=copy32)
    return [[(i, s.hex()) for i, s in zip(ids.tolist(), scores.tolist())]
            for ids, scores in results]


def near_ties(rng: np.random.Generator, n: int, m: int, dim: int,
              spread: float) -> tuple[np.ndarray, np.ndarray]:
    """n unit rows about one direction, apart by about `spread`, every third
    row a copy of an earlier one, and m unit queries at about 40 degrees
    from it: a query's scores differ by about `spread`, so below 1e-7
    float32 tells none of them apart, and the copies tie exactly."""
    base = unit_rows(rng, 1, dim)[0]
    matrix = base + spread * rng.normal(size=(n, dim))
    copies = matrix[2::3]
    copies[:] = matrix[: len(copies)]
    queries = base + 0.8 * unit_rows(rng, m, dim)
    return (matrix / np.linalg.norm(matrix, axis=1, keepdims=True),
            queries / np.linalg.norm(queries, axis=1, keepdims=True))


def test_the_band_is_about_d_plus_2_float32_roundings():
    rng = np.random.default_rng(3)
    for dim in (16, 768):
        band = vector_index._band(unit_rows(rng, 3, dim))
        np.testing.assert_allclose(band, 2 * (dim + 2) * 2.0 ** -24, rtol=2e-3)
    assert vector_index._band(unit_rows(rng, 1, 768))[0] / 2 == pytest.approx(4.6e-5, rel=0.01)


@pytest.mark.parametrize("spread", [1e-2, 1e-5, 1e-6, 3e-7, 1e-7, 3e-8, 1e-8, 1e-11, 1e-14])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_float32_selection_equals_the_float64_oracle_on_near_ties(seed, spread):
    rng = np.random.default_rng(seed)
    matrix, queries = near_ties(rng, 90, 7, 24, spread)
    want = float64_oracle(matrix, queries, 6, None)
    assert select32(matrix, queries, 6) == want
    if spread <= 1e-8:  # the fixture holds k-th place gaps below float32's resolution and eps
        gaps = [float.fromhex(row[4][1]) - float.fromhex(row[5][1]) for row in want]
        assert any(0 < gap < 2.0 ** -24 for gap in gaps)


@pytest.mark.parametrize("spread", [1e-2, 1e-9])
def test_float32_selection_honours_self_exclusion_masks(spread):
    rng = np.random.default_rng(5)
    matrix, queries = near_ties(rng, 80, 6, 16, spread)
    shared = rng.random(80) < 0.3
    per_row = rng.random((6, 80)) < 0.3
    for mask in (shared, per_row):
        assert select32(matrix, queries, 5, mask) == float64_oracle(matrix, queries, 5, mask)


def test_float32_selection_returns_rows_with_fewer_than_k_records_short():
    rng = np.random.default_rng(7)
    matrix, queries = near_ties(rng, 40, 5, 16, 1e-9)
    mask = np.ones((5, 40), dtype=bool)
    for row, allowed in enumerate((0, 1, 3, 8, 40)):
        mask[row, rng.permutation(40)[:allowed]] = False
    got = select32(matrix, queries, 8, mask)
    assert [len(hits) for hits in got] == [0, 1, 3, 8, 8]
    assert got == float64_oracle(matrix, queries, 8, mask)


@pytest.mark.parametrize("k", [30, 31, 200])
def test_float32_selection_with_k_at_least_n_returns_every_record(k):
    rng = np.random.default_rng(11)
    matrix, queries = near_ties(rng, 30, 4, 16, 1e-10)
    mask = rng.random((4, 30)) < 0.2
    want = float64_oracle(matrix, queries, k, None)
    assert all(len({score for _, score in row}) < 30 for row in want)  # the copies tie
    assert select32(matrix, queries, k) == want
    assert select32(matrix, queries, k, mask) == float64_oracle(matrix, queries, k, mask)


@pytest.mark.parametrize("spread", [1e-3, 1e-9])
def test_float32_selection_at_the_unit_norm_tolerance(spread):
    """Rows and queries whose norms are 1e-5 off 1, the most `_norm_fault` lets through."""
    rng = np.random.default_rng(13)
    matrix, queries = near_ties(rng, 70, 6, 32, spread)
    matrix *= np.where(np.arange(70) % 2, 1 + 0.999e-5, 1 - 0.999e-5)[:, None]
    queries *= np.where(np.arange(6) % 2, 1 + 1e-5, 1 - 1e-5)[:, None]
    assert vector_index._norm_fault(matrix) is None
    mask = rng.random((6, 70)) < 0.1
    assert select32(matrix, queries, 7, mask) == float64_oracle(matrix, queries, 7, mask)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_float32_selection_matches_the_oracle_on_any_shape(data):
    n, m, dim = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 6)), data.draw(
        st.sampled_from([1, 3, 16, 40]))
    spread = data.draw(st.sampled_from([1.0, 1e-4, 1e-8, 1e-12]))
    k = data.draw(st.integers(1, 70))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    matrix, queries = near_ties(rng, n, m, dim, spread)
    mask = data.draw(st.sampled_from([None, "shared", "per-row"]))
    if mask is not None:
        mask = rng.random(n if mask == "shared" else (m, n)) < 0.4
    assert select32(matrix, queries, k, mask) == float64_oracle(matrix, queries, k, mask)


def test_float32_selection_rescores_in_chunks_of_its_gather_buffers(monkeypatch):
    """Hits past one buffer's worth are gathered again into the same buffers."""
    rng = np.random.default_rng(17)
    matrix, queries = near_ties(rng, 50, 5, 16, 1e-9)
    monkeypatch.setattr(vector_index, "_GATHER_BYTES", 3 * 8 * 16)  # 3 hits a chunk
    assert vector_index.Float32Copy(matrix).gathered.shape == (2, 3, 16)
    assert select32(matrix, queries, 10) == float64_oracle(matrix, queries, 10, None)


@pytest.mark.parametrize("bad", [2.0 ** 70, np.inf, np.nan])
def test_rows_outside_the_bound_are_searched_in_float64(bad):
    rng = np.random.default_rng(19)
    matrix = unit_rows(rng, 40, 8)
    index = flat_from_matrix(matrix, np.arange(40))
    queries = unit_rows(rng, 3, 8)
    queries[1, 2] = bad
    assert vector_index._band(queries) is None
    copy32 = vector_index.Float32Copy(index.matrix)
    out = np.empty((3, 40), dtype=np.float32)  # the caller's float32 buffer is left alone
    got = index.search_batch(queries, 5, out=out, copy32=copy32)
    want = index.search_batch(queries, 5)
    assert [(ids.tolist(), scores.tobytes()) for ids, scores in got] == \
        [(ids.tolist(), scores.tobytes()) for ids, scores in want]


# --- spherical k-means ---------------------------------------------------------------


def gathered_kmeans(matrix, nlist, iters, seed):
    """The Lloyd loop that gathers the whole matrix in cluster order on every
    update and sums each cluster as a contiguous slice of that copy; returns
    (centroids, assignment, number of empty clusters restarted)."""
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    centroids = vector_index._kmeans_pp_init(matrix, nlist, rng)
    assignment = np.full(n, -1, dtype=np.int64)
    empty = 0
    for _ in range(iters):
        new_assignment = vector_index._assign_to_centroids(matrix, centroids)
        if np.array_equal(new_assignment, assignment):
            return centroids, assignment, empty
        assignment = new_assignment
        order = np.argsort(assignment, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(assignment, minlength=nlist))])
        grouped = matrix[order]
        centroids = np.empty_like(centroids)
        for c, (start, stop) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            if stop > start:
                centroids[c] = grouped[start:stop].sum(axis=0) / (stop - start)
            else:
                centroids[c] = matrix[int(rng.integers(n))]
                empty += 1
        norms = np.linalg.norm(centroids, axis=1)
        for c in np.flatnonzero(norms == 0.0):
            centroids[c] = matrix[int(rng.integers(n))]
            norms[c] = 1.0
        centroids /= norms[:, None]
    return centroids, vector_index._assign_to_centroids(matrix, centroids), empty


def repeated_rows(n_distinct: int, repeats: int, dim: int, seed: int) -> np.ndarray:
    """n_distinct unit rows, each repeated: k-means++ then seeds duplicate
    centroids, whose clusters come out empty."""
    return np.repeat(unit_rows(np.random.default_rng(seed), n_distinct, dim), repeats, axis=0)


@pytest.mark.parametrize("matrix, nlist, iters, seed, empty", [
    (unit_rows(np.random.default_rng(0), 500, 32), 22, 20, 0, False),
    (unit_rows(np.random.default_rng(1), 500, 32), 1, 20, 1, False),
    (unit_rows(np.random.default_rng(2), 1200, 64), 34, 8, 2, False),
    (unit_rows(np.random.default_rng(3), 90, 8), 90, 20, 3, None),
    (unit_rows(np.random.default_rng(4), 3000, 16), 54, 3, 4, False),
    (repeated_rows(5, 12, 8, 5), 8, 20, 5, True),
    (repeated_rows(3, 40, 4, 6), 7, 10, 6, True),
])
def test_kmeans_keeps_the_bits_of_the_gathered_update(matrix, nlist, iters, seed, empty):
    centroids, assignment = vector_index._spherical_kmeans(matrix, nlist, iters, seed)
    want_centroids, want_assignment, restarted = gathered_kmeans(matrix, nlist, iters, seed)
    assert centroids.tobytes() == want_centroids.tobytes()
    assert assignment.tobytes() == want_assignment.tobytes()
    if empty is not None:
        assert (restarted > 0) == empty


def reduceat_kmeans(matrix, nlist, iters, seed):
    """The Lloyd loop with each update's cluster sums by np.add.reduceat over
    the rows gathered in cluster order, and one assignment after the loop."""
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    centroids = vector_index._kmeans_pp_init(matrix, nlist, rng)
    assignment = np.full(n, -1, dtype=np.int64)
    for _ in range(iters):
        new_assignment = vector_index._assign_to_centroids(matrix, centroids)
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
    return centroids, vector_index._assign_to_centroids(matrix, centroids)


@pytest.mark.parametrize("n, dim, nlist, iters, seed", [
    (500, 32, 22, 20, 0), (500, 32, 22, 3, 1), (1200, 64, 34, 8, 2), (90, 8, 9, 20, 3),
    (60, 4, 60, 5, 4),
])
def test_kmeans_cluster_sums_match_reduceat(n, dim, nlist, iters, seed):
    matrix = unit_rows(np.random.default_rng(seed), n, dim)
    centroids, assignment = vector_index._spherical_kmeans(matrix, nlist, iters, seed)
    want_centroids, want_assignment = reduceat_kmeans(matrix, nlist, iters, seed)
    assert np.array_equal(assignment, want_assignment)
    np.testing.assert_allclose(centroids, want_centroids, rtol=0, atol=1e-12)


@pytest.mark.parametrize("iters", [0, 1, 2, 100])
def test_kmeans_assigns_once_per_iteration(monkeypatch, iters):
    matrix = unit_rows(np.random.default_rng(97), 300, 8)
    assignments = []
    real_assign = vector_index._assign_to_centroids

    def recording(rows, centroids):
        assignments.append(real_assign(rows, centroids))
        return assignments[-1]

    monkeypatch.setattr(vector_index, "_assign_to_centroids", recording)
    centroids, assignment = vector_index._spherical_kmeans(matrix, 12, iters, 97)
    assert np.array_equal(assignment, real_assign(matrix, centroids))
    assert np.array_equal(assignment, assignments[-1])
    repeats = [np.array_equal(a, b) for a, b in zip(assignments, assignments[1:])]
    if iters == 100:  # converged: the last iteration's assignment is the answer
        assert repeats[-1] and not any(repeats[:-1])
        assert len(assignments) < iters
    else:  # out of iterations: one more assignment, against the last centroids
        assert len(assignments) == iters + 1


def test_flat_load_traces_at_most_a_tenth_of_its_matrix(tmp_path):
    # the rows are mapped, not read, and the norm check makes no row-sized temporary
    matrix = unit_rows(np.random.default_rng(103), 4000, 256)
    path = tmp_path / "word_index.bin"
    save_index(word_flat(matrix), path)
    tracemalloc.start()
    try:
        loaded = load_index(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(loaded, FlatIndex) and len(loaded) == 4000
    assert peak <= 0.1 * matrix.nbytes, peak / matrix.nbytes


def test_ivf_build_traces_at_most_one_and_a_half_matrices():
    matrix = unit_rows(np.random.default_rng(101), 4000, 256)
    tracemalloc.start()
    try:
        ivf_from_matrix(matrix, np.arange(4000), None, default_nlist(4000), 8, 101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * matrix.nbytes, peak / matrix.nbytes


# --- regrouping in place ---------------------------------------------------------

def permuted_in_place(matrix: np.ndarray, order, segment_rows: int = 3) -> np.ndarray:
    """A copy of matrix after `_permute_rows`, moving `segment_rows` rows per step."""
    got = matrix.copy()
    segment_bytes = segment_rows * matrix.itemsize * matrix.shape[1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vector_index, "_PERMUTE_BYTES", segment_bytes)
        vector_index._permute_rows(got, np.asarray(order, dtype=np.int64))
    return got


@pytest.mark.parametrize("n", [0, 1, 2, 9])
def test_the_identity_permutation_leaves_every_row(n):
    matrix = np.random.default_rng(107).normal(size=(n, 4))
    assert permuted_in_place(matrix, np.arange(n)).tobytes() == matrix.tobytes()


@pytest.mark.parametrize("n, segment_rows", [(2, 1), (3, 1), (10, 3), (10, 9), (10, 20),
                                             (1000, 64)])
def test_one_cycle_through_every_row_equals_the_gather(n, segment_rows):
    matrix = np.random.default_rng(109).normal(size=(n, 5))
    order = np.roll(np.arange(n), -1)  # row i takes row i + 1: one n-cycle
    assert np.array_equal(permuted_in_place(matrix, order, segment_rows), matrix[order])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.integers(1, n + 1))), st.integers(1, 6))
def test_any_permutation_in_place_equals_the_gather(order_and_segment, dim):
    order, segment_rows = order_and_segment
    order = np.array(order, dtype=np.int64)
    matrix = np.arange(len(order) * dim, dtype=np.float64).reshape(len(order), dim)
    assert np.array_equal(permuted_in_place(matrix, order, segment_rows), matrix[order])


def test_an_ivf_build_that_owns_its_matrix_regroups_it_in_place():
    matrix = unit_rows(np.random.default_rng(113), 300, 8)
    copied = ivf_from_matrix(matrix, np.arange(300), None, 12, 8, 113)
    owned = matrix.copy()
    regrouped = ivf_from_matrix(owned, np.arange(300), None, 12, 8, 113, copy=False)
    assert regrouped.grouped is owned
    for name in ("grouped", "row_record_ids", "offsets", "centroids", "sentence_ids"):
        assert getattr(regrouped, name).tobytes() == getattr(copied, name).tobytes(), name


@pytest.mark.parametrize("kind", ["flat", "ivf"])
def test_a_loaded_index_matrix_refuses_assignment(tmp_path, kind):
    matrix = unit_rows(np.random.default_rng(127), 40, 6)
    save_index(word_flat(matrix) if kind == "flat" else word_ivf(matrix, 4), tmp_path / "i.bin")
    loaded = load_index(tmp_path / "i.bin")
    rows = loaded.matrix if kind == "flat" else loaded.grouped
    with pytest.raises(ValueError, match="read-only"):
        rows[0] = 0.0


@pytest.mark.parametrize("kind", ["flat", "ivf"])
def test_taking_a_loaded_index_rows_gives_record_order_and_leaves_its_file(tmp_path, kind):
    matrix = unit_rows(np.random.default_rng(131), 40, 6)
    save_index(word_flat(matrix) if kind == "flat" else word_ivf(matrix, 4), tmp_path / "i.bin")
    before = (tmp_path / "i.bin").read_bytes()
    rows = vector_index.take_rows(load_index(tmp_path / "i.bin"))
    assert rows.tobytes() == matrix.tobytes()
    rows[:] = 0.0  # a copy-on-write map: the file never sees it
    del rows
    assert (tmp_path / "i.bin").read_bytes() == before
