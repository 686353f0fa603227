"""Nearest-neighbor motion retrieval over sliding piano-roll windows.

A dataset of binary key matrices is cut into fixed-length windows (default
30 frames, stride 1).  A query matrix is windowed the same way and each
query window is matched to the dataset window minimizing squared L2
distance, which on binary matrices is simply the number of disagreeing
cells.  Runs of query windows whose matches advance in lockstep through a
single dataset clip are merged into longer reference segments.

The index stores each dataset frame once, not each window: a window's
distance is the sum, along one diagonal, of per-frame Hamming distances.
The search computes those per-frame distances for a block of dataset
frames against a block of query frames with one matrix product over the
keys the query plays, then turns them into running sums down each
diagonal; a window's distance is the difference of two such sums.  Up to
a window length of 190395 all values are integers below 2**24, so the
float32 arithmetic is exact.
On disk the frames are bit-packed, 11 bytes per frame.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import warnings

import numpy as np

from .midi import NUM_KEYS, KeyMatrix

DEFAULT_WINDOW_LEN = 30
DEFAULT_STRIDE = 1

# A search block takes the dataset windows that start within _FRAME_BLOCK
# frames of its first, and the query windows that start within
# _QUERY_BLOCK frames of its first.  They bound the per-block arrays (a few
# MB) and the sums' range without changing results.
_FRAME_BLOCK = 4096
_QUERY_BLOCK = 256
# Bytes per bit-packed frame on disk.
_PACKED_BYTES = -(-NUM_KEYS // 8)


@dataclasses.dataclass(eq=False)
class WindowIndex:
    """The frames of a dataset, clip by clip, and the windows they hold.

    Windows are numbered clip by clip, then start by start at ``stride``;
    ``window_clip`` and ``window_start`` give each window's provenance and
    are derived from the per-clip frame counts.
    """

    window_len: int
    stride: int
    frames: np.ndarray         # (n_frames, 88) uint8, clips concatenated
    clip_ids: list             # clip id strings
    clip_frames: np.ndarray    # (n_clips,) frame count of each clip

    def __post_init__(self) -> None:
        if self.window_len < 1 or self.stride < 1:
            raise ValueError("window_len and stride must be >= 1")
        self.frames = np.ascontiguousarray(self.frames, dtype=np.uint8)
        if self.frames.ndim != 2 or self.frames.shape[1] != NUM_KEYS:
            raise ValueError("frames must have shape (n_frames, 88)")
        self.clip_frames = np.asarray(self.clip_frames, dtype=np.int64)
        if not self.clip_ids:
            raise ValueError("an index needs at least one clip")
        clip_id, n = collections.Counter(self.clip_ids).most_common(1)[0]
        if n > 1:
            raise ValueError("clip id %r names %d clips" % (clip_id, n))
        if self.clip_frames.shape != (len(self.clip_ids),):
            raise ValueError("need one frame count per clip id")
        if np.any(self.clip_frames < self.window_len):
            raise ValueError("every clip must hold at least one window")
        if int(self.clip_frames.sum()) != self.frames.shape[0]:
            raise ValueError("clip frame counts must sum to the frame count")
        offsets = np.cumsum(self.clip_frames) - self.clip_frames
        starts = [_window_starts(n, self.window_len, self.stride)
                  for n in self.clip_frames]
        self.window_clip = np.repeat(np.arange(len(starts), dtype=np.int64),
                                     [len(s) for s in starts])
        self.window_start = np.concatenate(starts)
        # Start of each window in `frames`; ascending with the window index.
        self._window_frame = offsets[self.window_clip] + self.window_start

    @functools.cached_property
    def _frame_keys(self) -> np.ndarray:
        """Keys held in each frame, |f| of the per-frame distance; only a
        search needs them."""
        return self.frames.sum(axis=1, dtype=np.uint8)

    @property
    def n_windows(self) -> int:
        return len(self.window_clip)

    @property
    def windows(self) -> np.ndarray:
        """Materialised (n_windows, window_len, 88) copy, for reference use."""
        view = np.lib.stride_tricks.sliding_window_view(
            self.frames, self.window_len, axis=0)
        return np.ascontiguousarray(view[self._window_frame].transpose(0, 2, 1))

    def provenance(self, window_idx: int):
        """(clip id, start frame) of a dataset window."""
        return (self.clip_ids[int(self.window_clip[window_idx])],
                int(self.window_start[window_idx]))

    def save(self, file) -> None:
        """Write the index as an .npz archive to a binary file object (or a
        path, to which numpy appends `.npz` when it lacks that suffix)."""
        np.savez(file,
                 window_len=np.int64(self.window_len),
                 stride=np.int64(self.stride),
                 frames=np.packbits(self.frames, axis=1),
                 clip_ids=np.array(self.clip_ids, dtype=np.str_),
                 clip_frames=self.clip_frames)

    @classmethod
    def load(cls, path: str) -> "WindowIndex":
        """Read a saved index; a missing array raises KeyError, and one of
        the wrong type or shape raises ValueError."""
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with data:
            packed = data["frames"]
            if packed.dtype != np.uint8 or packed.ndim != 2 \
                    or packed.shape[1] != _PACKED_BYTES:
                raise ValueError("frames must be uint8 of shape (n, %d), got "
                                 "%s of shape %s" % (_PACKED_BYTES,
                                                     packed.dtype, packed.shape))
            frames = np.unpackbits(packed, axis=1, count=NUM_KEYS)
            return cls(int(_saved(data, "window_len", 0, "integer")),
                       int(_saved(data, "stride", 0, "integer")), frames,
                       _saved(data, "clip_ids", 1, "string").tolist(),
                       _saved(data, "clip_frames", 1, "integer"))


_KINDS = {"integer": "iu", "string": "U"}


def _saved(data, name: str, ndim: int, kind: str) -> np.ndarray:
    """Array `name` of a saved index, checked for its rank and kind."""
    arr = data[name]
    if arr.ndim != ndim or arr.dtype.kind not in _KINDS[kind]:
        raise ValueError("%s must be a %d-d %s array, got %d-d %s"
                         % (name, ndim, kind, arr.ndim, arr.dtype))
    return arr


def _window_starts(n_frames: int, window_len: int, stride: int) -> np.ndarray:
    return np.arange(0, n_frames - window_len + 1, stride, dtype=np.int64)


def build_index(dataset, window_len: int = DEFAULT_WINDOW_LEN,
                stride: int = DEFAULT_STRIDE) -> WindowIndex:
    """Index all windows of a dataset of (clip id, KeyMatrix) pairs.

    Clips shorter than window_len are skipped with a warning; windows never
    span clip boundaries.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("cannot index an empty dataset")
    chunks = []
    clip_ids = []
    for clip_id, matrix in dataset:
        if matrix.n_frames < window_len:
            warnings.warn("clip %r has %d frames < window length %d; skipped"
                          % (clip_id, matrix.n_frames, window_len))
            continue
        clip_ids.append(str(clip_id))
        chunks.append(matrix.data)
    if not chunks:
        raise ValueError("no clip is long enough to produce a window")
    return WindowIndex(window_len, stride, np.concatenate(chunks), clip_ids,
                       [len(c) for c in chunks])


@dataclasses.dataclass(eq=False)
class RetrievalResult:
    """Per-query-window nearest dataset windows."""

    window_len: int
    stride: int
    query_starts: np.ndarray   # (n_query_windows,)
    matches: np.ndarray        # (n_query_windows,) dataset window indices
    distances: np.ndarray      # (n_query_windows,) squared L2 distances


def retrieve(index: WindowIndex, query: KeyMatrix) -> RetrievalResult:
    """Match every query window to its nearest dataset window.

    Exact exhaustive search; ties resolve to the lowest dataset window
    index.  The per-frame distance |q| + |f| - 2 q.f needs q.f over the
    keys the query plays alone, so one float32 product over those keys,
    the |f| row and a ones row gives every per-frame distance of a block.
    Running sums down each diagonal, C[t, i] += C[t-1, i-1], then give
    each window's distance as the difference of two of them.  Every sum is
    an integer of at most 88 per query frame of the block, which holds at
    most window_len + 255 frames, so all values stay below 2**24: the
    result is exact up to window_len = 190395 and depends on neither the
    block sizes nor the BLAS and its thread count.
    """
    w, s = index.window_len, index.stride
    if query.n_frames < w:
        raise ValueError("query has %d frames, need at least %d"
                         % (query.n_frames, w))
    q_starts = _window_starts(query.n_frames, w, s)
    n_q = len(q_starts)
    matches = np.full(n_q, -1, dtype=np.int64)
    dists = np.full(n_q, np.inf)
    # ham = [-2 q, 1, |q|] @ [f; |f|; 1] over the keys the query plays: a
    # key it never plays adds 0 to q.f.
    keys = np.flatnonzero(query.data.any(axis=0))
    n_k = len(keys)
    qa = np.empty((query.n_frames, n_k + 2), dtype=np.float32)
    qa[:, :n_k] = query.data[:, keys]
    qa[:, n_k] = 1.0
    qa[:, n_k + 1] = query.data.sum(axis=1)
    qa[:, :n_k] *= -2.0
    q_block = min(n_q, (_QUERY_BLOCK - 1) // s + 1)
    # Running sums for one block, behind a zero row and a zero column so
    # that sums starting on the block's edge need no special case.
    sums = np.zeros(((q_block - 1) * s + w + 1,
                     min(_FRAME_BLOCK + w - 1, len(index.frames)) + 1),
                    dtype=np.float32)
    wf = index._window_frame
    lo = 0
    while lo < index.n_windows:
        # Dataset windows starting within _FRAME_BLOCK frames of window lo.
        hi = int(np.searchsorted(wf, wf[lo] + _FRAME_BLOCK))
        base = int(wf[lo])
        n_pos = int(wf[hi - 1]) - base + 1
        n_cols = n_pos + w - 1
        # Keys-major, so the product below runs at full BLAS speed.
        fa = np.empty((n_k + 2, n_cols), dtype=np.float32)
        fa[:n_k] = index.frames[base:base + n_cols, keys].T
        fa[n_k] = index._frame_keys[base:base + n_cols]
        fa[n_k + 1] = 1.0
        cols = wf[lo:hi] - base
        # Positions that start no window (across a clip end, or between
        # strides) never hold the minimum.
        gaps = np.ones(n_pos, dtype=bool)
        gaps[cols] = False
        gaps = np.flatnonzero(gaps)
        for qlo in range(0, n_q, q_block):
            nqb = min(q_block, n_q - qlo)
            qs = int(q_starts[qlo])
            rows = (nqb - 1) * s + w
            # c[1 + t, 1 + i]: distance of query frame qs + t to dataset
            # frame base + i.
            c = sums[:rows + 1, :n_cols + 1]
            np.matmul(qa[qs:qs + rows], fa, out=c[1:, 1:])
            d = _diagonal_sums(c, w, s)
            d[:, gaps] = np.inf
            # argmin takes the first position holding the minimum, which
            # starts the lowest window.
            pos = d.argmin(axis=1)
            best_d = d[np.arange(nqb), pos]
            best = np.searchsorted(cols, pos)
            # Strict < keeps the earlier block's window on ties.
            better = best_d < dists[qlo:qlo + nqb]
            dists[qlo:qlo + nqb][better] = best_d[better]
            matches[qlo:qlo + nqb][better] = lo + best[better]
        lo = hi
    return RetrievalResult(w, s, q_starts, matches, dists)


def _diagonal_sums(c: np.ndarray, w: int, s: int) -> np.ndarray:
    """out[j, i] = sum of c[1 + j*s + k, 1 + i + k] over k < w.

    c holds the terms behind a zero row and a zero column.  Running sums
    down each diagonal, c[t, i] += c[t-1, i-1], overwrite it row by row;
    each window's sum is then the sum that ends on its last term minus the
    one that ends just before its first, which is 0 on the zero row or
    column.  Exact in float32 while every running sum, at most the largest
    term times c's row count, stays below 2**24.
    """
    rows, cols = c.shape
    for t in range(2, rows):
        c[t, 2:] += c[t - 1, 1:-1]
    return c[w::s, w:] - c[:rows - w:s, :cols - w]


@dataclasses.dataclass(frozen=True)
class ReferenceSegment:
    """A contiguous span of a dataset clip matched by a run of query windows."""

    clip_id: str
    start: int
    length: int
    query_start: int
    n_windows: int

    def to_json_obj(self) -> dict:
        return {"clip_id": self.clip_id, "start": self.start,
                "length": self.length, "query_start": self.query_start,
                "n_windows": self.n_windows}


def merge_segments(result: RetrievalResult, index: WindowIndex) -> list:
    """Coalesce runs of query windows whose matches advance together.

    Consecutive query windows merge when their dataset matches are the
    next window of the same clip; each merged run covers the union of its
    matched frame ranges.  Isolated windows become window-length segments.
    """
    matches = result.matches
    clips = index.window_clip[matches]
    # A run breaks where the match is not the previous one's next window.
    breaks = np.ones(len(matches), dtype=bool)
    breaks[1:] = (matches[1:] != matches[:-1] + 1) | (clips[1:] != clips[:-1])
    firsts = np.flatnonzero(breaks)
    run_lens = np.diff(firsts, append=len(matches))
    return [ReferenceSegment(
                clip_id=index.clip_ids[clip],
                start=start,
                length=index.window_len + (run_len - 1) * index.stride,
                query_start=query_start,
                n_windows=run_len)
            for clip, start, query_start, run_len in zip(
                clips[firsts].tolist(),
                index.window_start[matches[firsts]].tolist(),
                result.query_starts[firsts].tolist(),
                run_lens.tolist())]
