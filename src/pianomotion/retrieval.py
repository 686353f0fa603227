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
frames against a block of query frames with one matrix product, then
builds diagonal sums of length 1, 2, 4, ... by doubling and adds the ones
whose lengths make up ``window_len`` in binary (2 + 4 + 8 + 16 at 30).
On disk the frames are bit-packed, 11 bytes per frame.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .midi import NUM_KEYS, KeyMatrix

DEFAULT_WINDOW_LEN = 30
DEFAULT_STRIDE = 1

# Dataset frames and query windows per search block.  They bound the
# per-block arrays (a few MB) without changing results.
_FRAME_BLOCK = 2048
_QUERY_BLOCK = 256


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
        """Read a saved index; a missing array raises KeyError."""
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with data:
            frames = np.unpackbits(data["frames"], axis=1, count=NUM_KEYS)
            return cls(int(data["window_len"]), int(data["stride"]), frames,
                       [str(s) for s in data["clip_ids"]],
                       data["clip_frames"])


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
    index.  Per-frame Hamming distances |f| + |q| - 2 f.q are small
    integers, so the float32 products and sums are exact and the result
    does not depend on the BLAS or its thread count.
    """
    w, s = index.window_len, index.stride
    if query.n_frames < w:
        raise ValueError("query has %d frames, need at least %d"
                         % (query.n_frames, w))
    q_starts = _window_starts(query.n_frames, w, s)
    n_q = len(q_starts)
    matches = np.full(n_q, -1, dtype=np.int64)
    dists = np.full(n_q, np.inf)
    # ham = [q, 1, |q|] @ [-2 f; |f|; 1] gives every per-frame distance in
    # one product; each term is a small integer.
    qa = np.empty((query.n_frames, NUM_KEYS + 2), dtype=np.float32)
    qa[:, :NUM_KEYS] = query.data
    qa[:, NUM_KEYS] = 1.0
    qa[:, NUM_KEYS + 1] = qa[:, :NUM_KEYS].sum(axis=1)
    wf = index._window_frame
    lo = 0
    while lo < index.n_windows:
        # Dataset windows starting within _FRAME_BLOCK frames of window lo.
        hi = int(np.searchsorted(wf, wf[lo] + _FRAME_BLOCK))
        base = int(wf[lo])
        n_pos = int(wf[hi - 1]) - base + 1
        # Keys-major, so the product below runs at full BLAS speed.
        fa = np.empty((NUM_KEYS + 2, n_pos + w - 1), dtype=np.float32)
        fa[:NUM_KEYS] = index.frames[base:base + n_pos + w - 1].T
        fa[NUM_KEYS] = fa[:NUM_KEYS].sum(axis=0)
        fa[:NUM_KEYS] *= -2.0
        fa[NUM_KEYS + 1] = 1.0
        cols = wf[lo:hi] - base
        # Positions that start no window (across a clip end, or between
        # strides) never hold the minimum.
        gaps = np.ones(n_pos, dtype=bool)
        gaps[cols] = False
        gaps = np.flatnonzero(gaps)
        for qlo in range(0, n_q, _QUERY_BLOCK):
            nqb = min(_QUERY_BLOCK, n_q - qlo)
            qs = int(q_starts[qlo])
            # ham[t, i]: Hamming distance of query frame t to dataset frame i.
            ham = qa[qs:qs + (nqb - 1) * s + w] @ fa
            d = _window_sums(ham, w, s, nqb, n_pos)
            d[:, gaps] = np.inf
            best_d = d.min(axis=1)
            # The first position holding the minimum is the lowest window.
            best = np.searchsorted(cols, np.argmax(d == best_d[:, None], axis=1))
            # Strict < keeps the earlier block's window on ties.
            better = best_d < dists[qlo:qlo + nqb]
            dists[qlo:qlo + nqb][better] = best_d[better]
            matches[qlo:qlo + nqb][better] = lo + best[better]
        lo = hi
    return RetrievalResult(w, s, q_starts, matches, dists)


def _window_sums(ham: np.ndarray, w: int, s: int, n_rows: int,
                 n_cols: int) -> np.ndarray:
    """out[j, i] = sum of ham[j*s + k, i + k] over k < w, by doubling.

    Diagonal sums of length 2L come from two of length L,
    S_2L[t, i] = S_L[t, i] + S_L[t + L, i + L], in one spare buffer the
    size of ham; each window then adds the sums whose lengths make up w in
    binary, taking rows at the stride.  Window sums reach 88 * w, exact in
    float32 (so in any order of adds) up to w = 190650, where ham alone
    would need over 100 GB.  Overwrites ham.
    """
    rows, cols = ham.shape
    cur, spare = ham, np.empty_like(ham) if w > 1 else None
    out = None
    length, done = 1, 0
    while True:
        if w & length:
            piece = cur[done:done + n_rows * s:s, done:done + n_cols]
            if out is None:
                out = piece.copy()
            else:
                out += piece
            done += length
        if 2 * length > w:
            return out
        n_t, n_i = rows - 2 * length + 1, cols - 2 * length + 1
        np.add(cur[:n_t, :n_i], cur[length:length + n_t, length:length + n_i],
               out=spare[:n_t, :n_i])
        cur, spare = spare, cur
        length *= 2


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
        segments.append(ReferenceSegment(
            clip_id=clip_id,
            start=start,
            length=index.window_len + (run_len - 1) * index.stride,
            query_start=int(result.query_starts[j]),
            n_windows=run_len,
        ))
        j = k + 1
    return segments
