"""Window indexing, nearest-window search, and segment stitching."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pianomotion import retrieval
from pianomotion.midi import KeyMatrix


def random_matrix(rng, n_frames, density=0.1, fps=60.0):
    return KeyMatrix(fps, (rng.random((n_frames, 88)) < density).astype(np.uint8))


def brute_force_nearest(index, query):
    """Independent reference search: python loops, first minimum wins."""
    starts = range(0, query.n_frames - index.window_len + 1, index.stride)
    windows = index.windows
    out = []
    for qs in starts:
        q = query.data[qs:qs + index.window_len].astype(np.int64)
        best = None
        for wi in range(index.n_windows):
            d = int(np.sum(np.abs(windows[wi].astype(np.int64) - q)))
            if best is None or d < best[1]:
                best = (wi, d)
        out.append(best)
    return out


def test_build_index_window_count_and_content(rng):
    a = random_matrix(rng, 40)
    b = random_matrix(rng, 35)
    index = retrieval.build_index([("a", a), ("b", b)], window_len=30)
    assert index.n_windows == (40 - 30 + 1) + (35 - 30 + 1)
    assert index.clip_ids == ["a", "b"]
    # Every window must reproduce the slice its provenance points to.
    source = {"a": a, "b": b}
    windows = index.windows
    for wi in range(index.n_windows):
        clip_id, start = index.provenance(wi)
        want = source[clip_id].data[start:start + 30]
        assert np.array_equal(windows[wi], want)


def test_build_index_skips_short_clips(rng):
    long_clip = random_matrix(rng, 32)
    short_clip = random_matrix(rng, 10)
    with pytest.warns(UserWarning, match="skipped"):
        index = retrieval.build_index(
            [("long", long_clip), ("short", short_clip)], window_len=30)
    assert index.clip_ids == ["long"]
    assert index.n_windows == 3


def test_build_index_errors(rng):
    with pytest.raises(ValueError, match="empty"):
        retrieval.build_index([])
    with pytest.warns(UserWarning, match="skipped"):
        with pytest.raises(ValueError, match="long enough"):
            retrieval.build_index([("x", random_matrix(rng, 5))], window_len=30)


def test_build_index_rejects_duplicate_clip_ids(rng):
    take = random_matrix(rng, 40)
    with pytest.raises(ValueError, match="clip id 'take' names 2 clips"):
        retrieval.build_index([("take", take), ("other", take),
                               ("take", random_matrix(rng, 35))])


def test_build_index_stride(rng):
    matrix = random_matrix(rng, 41)
    index = retrieval.build_index([("a", matrix)], window_len=30, stride=5)
    assert index.window_start.tolist() == [0, 5, 10]


def test_distance_counts_mismatched_cells(rng):
    base = random_matrix(rng, 30)
    altered = base.data.copy()
    flip = [(0, 3), (10, 40), (29, 87)]
    for f, k in flip:
        altered[f, k] ^= 1
    index = retrieval.build_index(
        [("orig", base), ("alt", KeyMatrix(60.0, altered))], window_len=30)
    result = retrieval.retrieve(index, base)
    assert result.matches.tolist() == [0]
    assert result.distances.tolist() == [0.0]
    alt_only = retrieval.build_index([("alt", KeyMatrix(60.0, altered))],
                                     window_len=30)
    d = retrieval.retrieve(alt_only, base).distances
    assert d.tolist() == [float(len(flip))]


def test_retrieve_matches_brute_force(rng):
    dataset = [(f"clip{i}", random_matrix(rng, int(rng.integers(30, 60))))
               for i in range(6)]
    index = retrieval.build_index(dataset, window_len=30)
    query = random_matrix(rng, 45)
    result = retrieval.retrieve(index, query)
    expect = brute_force_nearest(index, query)
    assert result.matches.tolist() == [wi for wi, _ in expect]
    assert result.distances.tolist() == [float(d) for _, d in expect]


@pytest.mark.parametrize("stride", [2, 3])
def test_retrieve_matches_brute_force_at_stride(rng, stride):
    dataset = [(f"clip{i}", random_matrix(rng, int(rng.integers(30, 60))))
               for i in range(4)]
    index = retrieval.build_index(dataset, window_len=12, stride=stride)
    query = random_matrix(rng, 47)
    result = retrieval.retrieve(index, query)
    expect = brute_force_nearest(index, query)
    assert result.query_starts.tolist() == list(range(0, 47 - 12 + 1, stride))
    assert result.matches.tolist() == [wi for wi, _ in expect]
    assert result.distances.tolist() == [float(d) for _, d in expect]


@pytest.mark.parametrize("frame_block,query_block", [(7, 2), (1, 1), (40, 5)])
def test_retrieve_is_independent_of_block_sizes(rng, monkeypatch,
                                                frame_block, query_block):
    # Small blocks make windows run past the frames of their block and the
    # query span several query blocks; a skipped short clip sits between
    # two indexed ones.
    monkeypatch.setattr(retrieval, "_FRAME_BLOCK", frame_block)
    monkeypatch.setattr(retrieval, "_QUERY_BLOCK", query_block)
    dataset = [("a", random_matrix(rng, 41)),
               ("short", random_matrix(rng, 9)),
               ("b", random_matrix(rng, 37)),
               ("c", random_matrix(rng, 30))]
    with pytest.warns(UserWarning, match="skipped"):
        index = retrieval.build_index(dataset, window_len=10, stride=2)
    assert index.clip_ids == ["a", "b", "c"]
    query = random_matrix(rng, 33)
    result = retrieval.retrieve(index, query)
    expect = brute_force_nearest(index, query)
    assert result.matches.tolist() == [wi for wi, _ in expect]
    assert result.distances.tolist() == [float(d) for _, d in expect]


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_diagonal_sums_equal_shifted_adds(rng, stride):
    for w in range(1, 65):
        n_rows, n_cols = int(rng.integers(1, 9)), int(rng.integers(1, 12))
        ham = rng.integers(0, 89, ((n_rows - 1) * stride + w, n_cols + w - 1))
        ham = ham.astype(np.float32)
        expect = ham[0:n_rows * stride:stride, 0:n_cols].copy()
        for k in range(1, w):
            expect += ham[k:k + n_rows * stride:stride, k:k + n_cols]
        padded = np.zeros((ham.shape[0] + 1, ham.shape[1] + 1), np.float32)
        padded[1:, 1:] = ham
        got = retrieval._diagonal_sums(padded, w, stride)
        assert got.shape == expect.shape
        assert got.tobytes() == expect.tobytes(), w


def windowed_brute_force(index, query):
    """(matches, distances) from every window pair's cell count at once;
    argmin's first hit is the lowest-index tie."""
    q = np.lib.stride_tricks.sliding_window_view(
        query.data, index.window_len, axis=0)[::index.stride]
    q = q.transpose(0, 2, 1).astype(np.int64)
    d = np.abs(q[:, None] - index.windows[None].astype(np.int64)).sum(axis=(2, 3))
    best = d.argmin(axis=1)
    return best, d[np.arange(len(d)), best].astype(np.float64)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1),
       window_len=st.integers(1, 8),
       stride=st.integers(1, 10),
       extra=st.lists(st.integers(0, 12), min_size=1, max_size=4),
       repeat_clip=st.booleans(),
       density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
       query_kind=st.sampled_from(["silent", "all keys", "random", "copy"]),
       query_extra=st.integers(0, 15),
       blocks=st.none() | st.tuples(st.integers(1, 20), st.integers(1, 24)))
def test_retrieve_equals_brute_force(seed, window_len, stride, extra,
                                     repeat_clip, density, query_kind,
                                     query_extra, blocks):
    # Clips hold window_len + extra frames, so some hold exactly one
    # window; a repeated clip makes every window it copies tie.
    rng = np.random.default_rng(seed)
    clips = [(rng.random((window_len + e, 88)) < density).astype(np.uint8)
             for e in extra]
    if repeat_clip:
        clips.append(clips[0])
    index = retrieval.build_index(
        [("c%d" % i, KeyMatrix(60.0, c)) for i, c in enumerate(clips)],
        window_len=window_len, stride=stride)
    n = window_len + query_extra
    if query_kind == "silent":
        query = np.zeros((n, 88), dtype=np.uint8)
    elif query_kind == "all keys":
        query = np.ones((n, 88), dtype=np.uint8)
    elif query_kind == "random":
        query = (rng.random((n, 88)) < 0.2).astype(np.uint8)
    else:
        query = np.concatenate([clips[0]] * (n // len(clips[0]) + 1))[:n]
    frame_block, query_block = blocks or (retrieval._FRAME_BLOCK,
                                          retrieval._QUERY_BLOCK)
    with mock.patch.multiple(retrieval, _FRAME_BLOCK=frame_block,
                             _QUERY_BLOCK=query_block):
        result = retrieval.retrieve(index, KeyMatrix(60.0, query))
    matches, distances = windowed_brute_force(index, KeyMatrix(60.0, query))
    assert result.matches.tolist() == matches.tolist()
    assert result.distances.tolist() == distances.tolist()


@pytest.mark.parametrize("frame_block", [4096, 3])
def test_retrieve_exact_tie_across_clips_takes_lowest_index(
        rng, monkeypatch, frame_block):
    # Clip "c" repeats clip "a", so every query window copied from "a"
    # ties at distance 0 between the two, within one block or across
    # blocks.
    monkeypatch.setattr(retrieval, "_FRAME_BLOCK", frame_block)
    a = random_matrix(rng, 20)
    index = retrieval.build_index(
        [("a", a), ("b", random_matrix(rng, 20)), ("c", a)], window_len=6)
    result = retrieval.retrieve(index, KeyMatrix(60.0, a.data[4:16]))
    assert result.distances.tolist() == [0.0] * 7
    assert [index.provenance(m) for m in result.matches] == [
        ("a", 4 + j) for j in range(7)]


def test_retrieve_tie_takes_lowest_index():
    # Three identical all-zero clips: every window ties at distance 0.
    zeros = KeyMatrix(60.0, np.zeros((32, 88), dtype=np.uint8))
    index = retrieval.build_index(
        [("a", zeros), ("b", zeros), ("c", zeros)], window_len=30)
    query = KeyMatrix(60.0, np.zeros((30, 88), dtype=np.uint8))
    result = retrieval.retrieve(index, query)
    assert result.matches.tolist() == [0]


def test_retrieve_rejects_short_query(rng):
    index = retrieval.build_index([("a", random_matrix(rng, 30))],
                                  window_len=30)
    with pytest.raises(ValueError, match="frames"):
        retrieval.retrieve(index, random_matrix(rng, 29))


def test_index_npz_round_trip(rng, tmp_path):
    index = retrieval.build_index([("a", random_matrix(rng, 35))],
                                  window_len=30)
    path = str(tmp_path / "index.npz")
    index.save(path)
    back = retrieval.WindowIndex.load(path)
    assert back.window_len == index.window_len
    assert back.stride == index.stride
    assert back.clip_ids == index.clip_ids
    assert np.array_equal(back.frames, index.frames)
    assert np.array_equal(back.windows, index.windows)
    assert np.array_equal(back.window_start, index.window_start)


def test_saved_index_packs_each_frame_into_11_bytes(rng, tmp_path):
    dataset = [(f"clip{i}", random_matrix(rng, 400)) for i in range(5)]
    index = retrieval.build_index(dataset, window_len=30)
    path = tmp_path / "index.npz"
    index.save(str(path))
    # Bit-packed frames, plus the fixed npz headers and a few bytes per
    # clip for its id and frame count.
    assert path.stat().st_size <= 11 * 2000 + 2048 + 64 * 5


def test_merge_segments_coalesces_advancing_runs(rng):
    # A query copied verbatim from the middle of one clip produces matches
    # that advance one window per step and merge into a single segment.
    matrix = random_matrix(rng, 80, density=0.2)
    index = retrieval.build_index([("src", matrix)], window_len=30)
    query = KeyMatrix(60.0, matrix.data[20:60])
    result = retrieval.retrieve(index, query)
    segments = retrieval.merge_segments(result, index)
    assert len(segments) == 1
    seg = segments[0]
    assert seg.clip_id == "src"
    assert seg.start == 20
    assert seg.length == 40  # window_len + (run - 1) * stride
    assert seg.query_start == 0
    assert seg.n_windows == 11


def test_merge_segments_splits_on_jumps(rng):
    # Clip a owns dataset windows 0..25, clip b owns 26..51.  Handmade
    # matches isolate the merge rules from the search itself.
    a = random_matrix(rng, 40)
    b = random_matrix(rng, 40)
    index = retrieval.build_index([("a", a), ("b", b)], window_len=15)
    assert index.n_windows == 52
    result = retrieval.RetrievalResult(
        window_len=15, stride=1,
        query_starts=np.arange(6, dtype=np.int64),
        matches=np.array([3, 4, 5, 30, 31, 9], dtype=np.int64),
        distances=np.zeros(6))
    segments = retrieval.merge_segments(result, index)
    assert [(s.clip_id, s.start, s.length, s.query_start, s.n_windows)
            for s in segments] == [
        ("a", 3, 17, 0, 3),   # advancing run of three windows
        ("b", 4, 16, 3, 2),   # jump to clip b splits, then merges two
        ("a", 9, 15, 5, 1),   # trailing isolated window
    ]


def test_merge_segments_consecutive_index_across_clips_splits(rng):
    # Window 26 is numerically 25 + 1 but belongs to a different clip, so
    # the run must not merge across the boundary.
    a = random_matrix(rng, 40)
    b = random_matrix(rng, 40)
    index = retrieval.build_index([("a", a), ("b", b)], window_len=15)
    result = retrieval.RetrievalResult(
        window_len=15, stride=1,
        query_starts=np.arange(2, dtype=np.int64),
        matches=np.array([25, 26], dtype=np.int64),
        distances=np.zeros(2))
    segments = retrieval.merge_segments(result, index)
    assert [(s.clip_id, s.start) for s in segments] == [("a", 25), ("b", 0)]


def merge_segments_by_loop(result, index):
    """Reference merge: walk the query windows one at a time."""
    segments = []
    n = len(result.matches)
    j = 0
    while j < n:
        k = j
        while (k + 1 < n
               and result.matches[k + 1] == result.matches[k] + 1
               and index.window_clip[result.matches[k + 1]]
                   == index.window_clip[result.matches[k]]):
            k += 1
        first = int(result.matches[j])
        run_len = k - j + 1
        clip_id, start = index.provenance(first)
        segments.append(retrieval.ReferenceSegment(
            clip_id=clip_id,
            start=start,
            length=index.window_len + (run_len - 1) * index.stride,
            query_start=int(result.query_starts[j]),
            n_windows=run_len,
        ))
        j = k + 1
    return segments


def test_merge_segments_equals_loop_on_random_results(rng):
    # Matches mostly advance one window per step, so runs often reach a
    # clip end and carry on into the next clip, where they must split.
    for trial in range(300):
        window_len, stride = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        clips = [random_matrix(rng, window_len + int(rng.integers(0, 8)))
                 for _ in range(int(rng.integers(1, 5)))]
        index = retrieval.build_index(
            [("c%d" % i, c) for i, c in enumerate(clips)],
            window_len=window_len, stride=stride)
        n = int(rng.integers(0, 30))
        matches = np.empty(n, dtype=np.int64)
        for j in range(n):
            step = j and matches[j - 1] + 1 < index.n_windows \
                and rng.random() < 0.8
            matches[j] = (matches[j - 1] + 1 if step
                          else rng.integers(0, index.n_windows))
        result = retrieval.RetrievalResult(
            window_len, stride, np.arange(n, dtype=np.int64) * stride,
            matches, np.zeros(n))
        assert retrieval.merge_segments(result, index) == \
            merge_segments_by_loop(result, index), trial


def test_segment_json_obj():
    seg = retrieval.ReferenceSegment("a", 3, 40, 0, 11)
    assert seg.to_json_obj() == {
        "clip_id": "a", "start": 3, "length": 40,
        "query_start": 0, "n_windows": 11,
    }
