"""Standard MIDI File ingestion and frame-aligned key matrices.

Parses SMF format 0/1 byte streams into onset, offset and pitch arrays,
quantizes them into binary frames x 88 key matrices, builds duration-weighted
condition matrices, and synchronizes two note streams by grid search over
candidate time offsets.

Pitch convention: piano key 1..88 (A0=1), i.e. MIDI note number minus 20.
All times are seconds, all matrices row-major frames x 88.
"""

from __future__ import annotations

import bisect
import json
import numbers
import reprlib
import sys
import warnings
from dataclasses import dataclass

import numpy as np

NUM_KEYS = 88
MIN_MIDI_PITCH = 21  # A0
MAX_MIDI_PITCH = 108  # C8
DEFAULT_FPS = 59.94

# Sync defaults: candidate offsets every 1 ms over +/-30 s, onset tolerance 16 ms.
DEFAULT_SYNC_TOLERANCE = 0.016
DEFAULT_GRID_STEP = 0.001
DEFAULT_GRID_SPAN = 30.0


class MidiParseError(ValueError):
    """Malformed SMF data. `offset` is the byte position of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _check_fps(fps) -> None:
    """Raise ValueError unless fps is a positive number within float range."""
    if (isinstance(fps, bool) or not isinstance(fps, numbers.Real)
            or not 0 < fps <= sys.float_info.max):
        raise ValueError(f"fps must be a positive finite number, got {reprlib.repr(fps)}")


class MidiWarning(UserWarning):
    pass


@dataclass(eq=False)
class NoteList:
    """Notes held as three arrays, in non-decreasing onset order:

        onset   (N,) float64   start, seconds
        offset  (N,) float64   end, seconds, exclusive
        pitch   (N,) int64     piano key 1..88

    Construction checks the shapes, that every time is finite with
    0 <= onset < offset, that pitches are integers in 1..88 and that
    onsets do not decrease, and keeps the arrays without copying them
    when they already have these dtypes.  `source` labels where the
    notes came from.
    """

    onset: np.ndarray
    offset: np.ndarray
    pitch: np.ndarray
    source: str = ""

    def __post_init__(self):
        onset = self.onset = np.asarray(self.onset, dtype=np.float64)
        offset = self.offset = np.asarray(self.offset, dtype=np.float64)
        pitch = np.asarray(self.pitch)
        if pitch.size and pitch.dtype.kind not in "iu":
            raise ValueError(f"pitch must hold integers, got dtype {pitch.dtype}")
        pitch = self.pitch = pitch.astype(np.int64, copy=False)
        if not onset.ndim == 1 or not onset.shape == offset.shape == pitch.shape:
            raise ValueError("onset, offset and pitch must be 1-D arrays of one "
                             f"length, got {onset.shape}, {offset.shape}, {pitch.shape}")
        bad = np.flatnonzero(~((onset >= 0) & (onset < np.inf)))
        if bad.size:
            raise ValueError(f"onset must be finite and >= 0, got {onset[bad[0]]}")
        bad = np.flatnonzero(~((onset < offset) & (offset < np.inf)))
        if bad.size:
            raise ValueError(f"offset {offset[bad[0]]} must be finite and exceed "
                             f"onset {onset[bad[0]]}")
        bad = np.flatnonzero((pitch < 1) | (pitch > NUM_KEYS))
        if bad.size:
            raise ValueError(f"pitch must be in 1..88, got {pitch[bad[0]]}")
        if (onset[1:] < onset[:-1]).any():
            raise ValueError("notes must be sorted by non-decreasing onset")

    def __len__(self) -> int:
        return len(self.onset)

    def duration(self) -> float:
        """The latest offset in seconds, 0.0 for no notes."""
        return self.offset.max().item() if len(self) else 0.0


@dataclass
class KeyMatrix:
    """Binary frames x 88 piano roll at a fixed frame rate."""

    fps: float
    data: np.ndarray  # (n_frames, 88) of {0,1}

    def __post_init__(self):
        _check_fps(self.fps)
        self.data = np.asarray(self.data, dtype=np.uint8)
        if self.data.ndim != 2 or self.data.shape[1] != NUM_KEYS:
            raise ValueError(f"data must be (n_frames, 88), got {self.data.shape}")
        if self.data.size and self.data.max() > 1:
            raise ValueError("key matrix entries must be 0 or 1")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    def check_clip(self, clip, name: str = "clip") -> None:
        """Refuse a motion clip of another frame count or fps."""
        if clip.n_frames != self.n_frames or abs(clip.fps - self.fps) > 1e-9:
            raise ValueError("%s has %d frames at %g fps, matrix %d at %g"
                             % (name, clip.n_frames, clip.fps, self.n_frames,
                                self.fps))

    def keys_at(self, frame: int) -> set[int]:
        """Pressed key indices (1..88) at a frame."""
        return {int(k) + 1 for k in np.flatnonzero(self.data[frame])}


@dataclass
class ConditionMatrix:
    """Duration-weighted piano roll: nonzero entries in (0, 1]."""

    fps: float
    data: np.ndarray  # (n_frames, 88) float

    def __post_init__(self):
        _check_fps(self.fps)
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[1] != NUM_KEYS:
            raise ValueError(f"data must be (n_frames, 88), got {self.data.shape}")
        nz = self.data[self.data != 0]
        if nz.size and not ((nz > 0) & (nz <= 1)).all():
            raise ValueError("nonzero condition entries must lie in (0, 1]")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]


# ---------------------------------------------------------------------------
# SMF parsing


def _take(data, pos: int, n: int):
    """data[pos:pos + n], raising at pos when the data ends sooner."""
    if pos + n > len(data):
        raise MidiParseError("unexpected end of data", pos)
    return data[pos:pos + n]


def _varlen(data, pos: int):
    """(value, next position) of the variable-length quantity at data[pos]."""
    value = 0
    for pos in range(pos, pos + 4):
        if pos >= len(data):
            raise MidiParseError("unexpected end of data", pos)
        byte = data[pos]
        value = (value << 7) | (byte & 0x7F)
        if byte < 0x80:
            return value, pos + 1
    raise MidiParseError("variable-length quantity longer than 4 bytes", pos + 1)


def _parse_track(data, pos: int):
    """The MTrk chunk at data[pos] -> (notes, tempos, unterminated, next pos).

    Notes are (onset tick, offset tick, MIDI pitch), ticks absolute, in the
    order they close: a note-off (or a note-on of velocity 0) closes the
    oldest open note of its channel and pitch, and notes still open at the
    end close at the track's last note event, counted in `unterminated`.
    Tempos are (tick, microseconds per quarter note).  An event may read
    past the chunk's declared length, up to the end of the data.
    """
    header = _take(data, pos, 4)
    if header != b"MTrk":
        raise MidiParseError(f"expected MTrk chunk, got {header!r}", pos)
    pos += 4
    end = pos + 4 + int.from_bytes(_take(data, pos, 4), "big")
    if end > len(data):
        raise MidiParseError("track length exceeds data size", pos)
    pos += 4
    notes = []
    tempos = []
    open_notes = {}  # (channel, pitch) -> onset ticks, oldest first
    tick = last_tick = 0
    running = None
    # Each read of a byte past the data raises IndexError while `pos` is
    # still at the start of that read.
    try:
        while pos < end:
            byte = data[pos]
            if byte < 0x80:
                tick += byte
                pos += 1
            else:
                delta, pos = _varlen(data, pos)
                tick += delta
            status = data[pos]
            pos += 1
            if status < 0x80:  # running status: that was the first data byte
                if running is None:
                    raise MidiParseError("data byte without running status", pos - 1)
                data0, status = status, running
                if status & 0xE0 != 0xC0:  # all but 0xC0/0xD0 carry two bytes
                    data1 = data[pos]
                    pos += 1
            elif status < 0xF0:
                running = status
                if status & 0xE0 == 0xC0:
                    data0 = data[pos]
                    pos += 1
                else:
                    data0, data1 = data[pos], data[pos + 1]
                    pos += 2
            elif status == 0xFF:  # meta
                meta_type = data[pos]
                length, pos = _varlen(data, pos + 1)
                payload = _take(data, pos, length)
                pos += length
                if meta_type == 0x51:
                    if length != 3:
                        raise MidiParseError("set-tempo event must carry 3 bytes", pos)
                    tempos.append((tick, int.from_bytes(payload, "big")))
                elif meta_type == 0x2F:  # end of track
                    pos = end
                    break
                continue
            elif status == 0xF0 or status == 0xF7:  # sysex
                running = None
                length, pos = _varlen(data, pos)
                _take(data, pos, length)
                pos += length
                continue
            else:
                raise MidiParseError(f"unexpected status byte 0x{status:02x}", pos - 1)

            kind = status & 0xF0
            if kind == 0x90 or kind == 0x80:
                last_tick = tick
                key = (status & 0x0F, data0)
                if kind == 0x90 and data1:
                    stack = open_notes.get(key)
                    if stack is None:
                        open_notes[key] = [tick]
                    else:
                        stack.append(tick)
                else:
                    stack = open_notes.get(key)
                    if stack:
                        notes.append((stack.pop(0), tick, data0))
    except IndexError:
        raise MidiParseError("unexpected end of data", pos) from None
    unterminated = 0
    for (_, pitch), stack in open_notes.items():
        unterminated += len(stack)
        notes.extend((onset, last_tick, pitch) for onset in stack if last_tick > onset)
    return notes, tempos, unterminated, pos


def _tick_seconds(ticks, tempos, ppq: int, pos: int) -> np.ndarray:
    """Seconds at each absolute tick of `ticks` under a tempo map.

    `tempos` are (tick, microseconds per quarter note) in file order; of
    several at one tick the last holds, and 120 bpm holds before the
    first.  A time is the seconds at its tempo's start plus the int64
    product of ticks since then and the tempo, divided by ppq * 1e6: the
    rounding of the same sum in Python integers.  A product past int64 is
    a MidiParseError at `pos`.
    """
    tempos = np.array(tempos, dtype=np.int64).reshape(-1, 2)
    tempos = tempos[np.argsort(tempos[:, 0], kind="stable")]
    tempos = tempos[np.diff(tempos[:, 0], append=-1) != 0]  # last at each tick
    if not len(tempos) or tempos[0, 0] > 0:
        tempos = np.vstack([(0, 500000), tempos])  # SMF default: 120 bpm
    start, uspq = tempos.T
    scale = ppq * 1e6

    def since_start(ticks, i):
        span = ticks - start[i]
        if (span > np.iinfo(np.int64).max // np.maximum(uspq[i], 1)).any():
            raise MidiParseError("tick times too long to convert to seconds", pos)
        return span * uspq[i] / scale

    start_seconds = np.cumsum(np.append(0.0, since_start(start[1:], np.arange(len(start) - 1))))
    i = np.searchsorted(start, ticks, side="right") - 1
    return start_seconds[i] + since_start(ticks, i)


def parse_midi(data: bytes, source: str = "") -> NoteList:
    """Parse an SMF format 0/1 byte stream into a NoteList.

    Note-on/note-off pairs are resolved to absolute seconds through the tempo
    map; a note-on with velocity 0 closes the note like a note-off. Pitches
    outside MIDI 21..108 are dropped and notes left open at end of track are
    closed there; both cases raise a MidiWarning with counts.  Notes come
    sorted by onset, then pitch, then track and the order they close in.

    Raises:
        MidiParseError: malformed header or chunk, or a time too long for
            int64 tick arithmetic, with the byte offset.
    """
    header = _take(data, 0, 4)
    if header != b"MThd":
        raise MidiParseError(f"expected MThd header, got {header!r}", 0)
    header_len = int.from_bytes(_take(data, 4, 4), "big")
    if header_len < 6:
        raise MidiParseError(f"header length must be >= 6, got {header_len}", 4)
    fmt = int.from_bytes(_take(data, 8, 2), "big")
    n_tracks = int.from_bytes(_take(data, 10, 2), "big")
    division = int.from_bytes(_take(data, 12, 2), "big")
    _take(data, 14, header_len - 6)
    if fmt not in (0, 1):
        raise MidiParseError(f"unsupported SMF format {fmt}", 8)
    if division & 0x8000:
        raise MidiParseError("SMPTE time division is not supported", 12)
    if division == 0:
        raise MidiParseError("time division must be positive", 12)

    pos = 8 + header_len
    events = []
    tempos = []
    unterminated = 0
    for _ in range(n_tracks):
        track_notes, track_tempos, open_count, pos = _parse_track(data, pos)
        events.extend(track_notes)
        tempos.extend(track_tempos)
        unterminated += open_count
    ticks = np.array(events, dtype=np.int64).reshape(-1, 3)
    keep = (ticks[:, 2] >= MIN_MIDI_PITCH) & (ticks[:, 2] <= MAX_MIDI_PITCH)
    dropped = len(keep) - int(keep.sum())
    ticks = ticks[keep]
    onset, offset = _tick_seconds(ticks[:, :2], tempos, division, pos).T
    keep = offset > onset  # zero-length after tempo mapping; nothing to keep
    onset, offset, pitch = onset[keep], offset[keep], ticks[keep, 2] - (MIN_MIDI_PITCH - 1)
    order = np.lexsort((pitch, onset))

    if dropped:
        warnings.warn(f"dropped {dropped} note(s) outside MIDI 21..108", MidiWarning)
    if unterminated:
        warnings.warn(
            f"closed {unterminated} unterminated note(s) at end of track", MidiWarning
        )
    return NoteList(onset[order], offset[order], pitch[order], source)


# ---------------------------------------------------------------------------
# Quantization


def _note_cells(notes: NoteList, fps: float, n_frames: int):
    """(note, frame, key) indices of every frame below n_frames that a note
    overlaps, note by note in list order and frames ascending within a note.

    Frame i spans [i/fps, (i+1)/fps).  Each note tests the frames from one
    before its onset's frame to one after its offset's, all notes at once
    with the same float expressions.
    """
    onset, offset = notes.onset, notes.offset
    first, stop = np.floor(onset * fps), np.ceil(offset * fps)
    if not (np.isfinite(first).all() and np.isfinite(stop).all()):
        raise ValueError("note onsets and offsets must be finite in frames "
                         "at fps %r" % fps)
    lo = np.clip(first - 1, 0, n_frames).astype(np.int64)
    count = np.maximum(np.clip(stop + 1, 0, n_frames).astype(np.int64) - lo, 0)
    # One ragged arange: note j's candidates are lo[j] .. lo[j] + count[j] - 1.
    note = np.repeat(np.arange(len(count)), count)
    frame = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
    covered = (onset[note] < (frame + 1) / fps) & (offset[note] > frame / fps)
    note, frame = note[covered], frame[covered]
    return note, frame, notes.pitch[note] - 1


def _zeros(n_frames: int, dtype) -> np.ndarray:
    """A zero (n_frames, 88) matrix; ValueError when it cannot be held."""
    try:
        return np.zeros((n_frames, NUM_KEYS), dtype=dtype)
    except MemoryError:
        raise ValueError(f"n_frames {n_frames} is too large to hold in memory") from None


def quantize(notes: NoteList, fps: float, n_frames: int) -> KeyMatrix:
    """Rasterize notes into a binary frames x 88 matrix.

    Entry (i, p) is 1 iff some note of pitch p overlaps the half-open frame
    interval [i/fps, (i+1)/fps). Notes beyond n_frames are truncated.
    """
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    if n_frames < 0:
        raise ValueError(f"n_frames must be >= 0, got {n_frames}")
    data = _zeros(n_frames, np.uint8)
    _, frame, key = _note_cells(notes, fps, n_frames)
    data[frame, key] = 1
    return KeyMatrix(fps, data)


def condition_matrix(
    notes: NoteList, fps: float, n_frames: int, mode: str = "constant"
) -> ConditionMatrix:
    """Duration-weighted piano roll.

    mode "constant": every frame of a note holds 1/(note duration in frames).
    mode "decaying": frame i of a note holds 1/(i - onset_frame + 1).
    Overlapping same-pitch notes: the later-starting note wins on its frames.
    """
    if mode not in ("constant", "decaying"):
        raise ValueError(f"mode must be 'constant' or 'decaying', got {mode!r}")
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    if n_frames < 0:
        raise ValueError(f"n_frames must be >= 0, got {n_frames}")
    data = _zeros(n_frames, np.float64)
    note, frame, key = _note_cells(notes, fps, n_frames)
    if mode == "constant":
        value = 1.0 / np.bincount(note, minlength=len(notes))[note]
    else:
        starts = np.ones(len(note), dtype=bool)
        starts[1:] = note[1:] != note[:-1]
        value = 1.0 / (frame - frame[starts][np.cumsum(starts) - 1] + 1)
    # Notes are in onset order, so the later-starting note on a cell is its
    # last entry here.
    last = len(note) - 1 - np.unique((frame * NUM_KEYS + key)[::-1],
                                     return_index=True)[1]
    data[frame[last], key[last]] = value[last]
    return ConditionMatrix(fps, data)


# ---------------------------------------------------------------------------
# Note matching and offset search


def _onsets_by_pitch(notes: NoteList) -> dict:
    """{pitch: its onsets as floats, ascending}, pitches in order of first
    appearance."""
    order = np.argsort(notes.pitch, kind="stable")
    pitch = notes.pitch[order]
    starts = np.flatnonzero(np.diff(pitch, prepend=0))  # each pitch's first place
    bounds = np.append(starts, len(pitch)).tolist()
    onsets = notes.onset[order].tolist()
    # order[starts] is where each pitch first appears in the list.
    return {int(pitch[bounds[g]]): onsets[bounds[g]:bounds[g + 1]]
            for g in np.argsort(order[starts]).tolist()}


def _greedy_match(a_onsets, b_onsets, tolerance: float, b_shift: float = 0.0):
    """Greedy per-pitch matching on two onset-sorted lists.

    Each a-onset (ascending) takes the nearest unmatched b-onset within
    tolerance; distance ties prefer the earlier b-onset. Returns the list of
    (a position, b position) pairs and the summed |onset gap|.
    """
    matched = [False] * len(b_onsets)
    shifted = [t - b_shift for t in b_onsets]
    pairs = []
    total_gap = 0.0
    for ia, ta in enumerate(a_onsets):
        pos = bisect.bisect_left(shifted, ta)
        left = pos - 1
        while left >= 0 and matched[left]:
            left -= 1
        right = pos
        while right < len(shifted) and matched[right]:
            right += 1
        best = None
        if left >= 0:
            best = left
        if right < len(shifted):
            if best is None or abs(shifted[right] - ta) < abs(shifted[best] - ta):
                best = right
        if best is not None and abs(shifted[best] - ta) <= tolerance:
            matched[best] = True
            pairs.append((ia, best))
            total_gap += abs(shifted[best] - ta)
    return pairs, total_gap


def offset_grid(
    span: float = DEFAULT_GRID_SPAN, step: float = DEFAULT_GRID_STEP
) -> list[float]:
    """Symmetric candidate offsets: multiples of `step` covering [-span, span].

    Raises ValueError unless step is finite and positive, span finite and
    >= 0, and the grid small enough for numpy to allocate.
    """
    if not 0 < step < np.inf:
        raise ValueError(f"grid step must be a finite positive number, got {step!r}")
    if not 0 <= span < np.inf:
        raise ValueError(f"grid span must be a finite number >= 0, got {span!r}")
    # An infinite ratio fails the rounding, a grid numpy cannot allocate
    # the arange.  k * step is Python's: every k below 2**53 is an exact float.
    try:
        n = int(round(span / step))
        return (np.arange(-n, n + 1) * step).tolist()
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(f"grid span {span!r} over step {step!r} has too many offsets") from None


def find_offset(
    a: NoteList,
    b: NoteList,
    grid=None,
    tolerance: float = DEFAULT_SYNC_TOLERANCE,
) -> tuple[float, int]:
    """Find the time offset of b relative to a by exhaustive grid search.

    Scores each candidate offset by the greedy match count between a and b
    shifted back by the offset, so for b holding a's notes d seconds later
    it returns d.
    Count ties are broken by the smallest summed onset gap of the matching,
    then by smallest |offset|. Returns (offset, match count). Raises
    ValueError unless tolerance is finite and >= 0.
    """
    if not 0 <= tolerance < np.inf:
        raise ValueError(f"sync tolerance must be a finite number >= 0, got {tolerance!r}")
    if grid is None:
        grid = offset_grid()
    grid = list(grid)
    if not grid:
        raise ValueError("offset grid must be non-empty")
    onsets_a = _onsets_by_pitch(a)
    onsets_b = _onsets_by_pitch(b)
    shared = [(onsets_a[p], onsets_b[p]) for p in onsets_a if p in onsets_b]
    best = None
    for offset in grid:
        count = 0
        gap = 0.0
        for a_onsets, b_onsets in shared:
            pairs, pair_gap = _greedy_match(a_onsets, b_onsets, tolerance, offset)
            count += len(pairs)
            gap += pair_gap
        score = (-count, gap, abs(offset), offset)
        if best is None or score < best[0]:
            best = (score, offset, count)
    return best[1], best[2]


# ---------------------------------------------------------------------------
# Matrix serialization: RLE-column JSON and dense CSV


def _runs(data: np.ndarray):
    """(key index, start, end, value) arrays of the maximal runs of equal
    nonzero values down each column of data, ends exclusive, column by
    column and runs in frame order."""
    edge = np.zeros((1, data.shape[1]), dtype=data.dtype)
    padded = np.concatenate([edge, data, edge])
    key, at = np.nonzero((padded[1:] != padded[:-1]).T)
    value = padded[at + 1, key]
    starts = np.flatnonzero(value != 0)
    # Each run ends at the next change in its column; the zero edge makes one.
    return key[starts], at[starts], at[starts + 1], value[starts]


def matrix_to_json(matrix: KeyMatrix | ConditionMatrix) -> str:
    """Serialize a key/condition matrix with run-length-encoded columns."""
    binary = isinstance(matrix, KeyMatrix)
    key, start, end, value = _runs(matrix.data)
    fields = (start, end) if binary else (start, end, value)
    columns = {}
    for k, *run in zip((key + 1).tolist(), *(a.tolist() for a in fields)):
        columns.setdefault(str(k), []).append(run)
    payload = {
        "type": "key_matrix" if binary else "condition_matrix",
        "fps": matrix.fps,
        "n_frames": matrix.n_frames,
        "n_keys": NUM_KEYS,
        "columns": columns,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def matrix_from_json(text: str) -> KeyMatrix | ConditionMatrix:
    """Parse `matrix_to_json` output, rejecting anything it cannot write."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("a matrix must be a JSON object")
    kind = payload.get("type")
    if kind not in ("key_matrix", "condition_matrix"):
        raise ValueError(f"unknown matrix type {kind!r}")
    _check_fps(payload.get("fps"))
    n_frames, columns = payload.get("n_frames"), payload.get("columns")
    if type(n_frames) is not int or n_frames < 0:
        raise ValueError(f"n_frames must be a non-negative integer, got {n_frames!r}")
    if not isinstance(columns, dict):
        raise ValueError("columns must be an object of key -> runs")
    binary = kind == "key_matrix"
    form = "[start, end]" if binary else "[start, end, value in (0, 1]]"
    data = _zeros(n_frames, np.uint8 if binary else np.float64)
    for key_str, runs in columns.items():
        key = int(key_str) if key_str.isdecimal() else 0
        if not 1 <= key <= NUM_KEYS or not isinstance(runs, list):
            raise ValueError(f"column {key_str!r} must be a key in 1..{NUM_KEYS} "
                             "holding a list of runs")
        for run in runs:
            if not (isinstance(run, list) and len(run) == (2 if binary else 3)
                    and type(run[0]) is int and type(run[1]) is int
                    and 0 <= run[0] <= run[1] <= n_frames
                    and (binary or type(run[2]) in (int, float) and 0 < run[2] <= 1)):
                raise ValueError(f"column {key_str!r}: run {run!r} is not {form} "
                                 f"with 0 <= start <= end <= {n_frames}")
            data[run[0]:run[1], key - 1] = 1 if binary else run[2]
    cls = KeyMatrix if binary else ConditionMatrix
    return cls(payload["fps"], data)


def matrix_to_csv(matrix: KeyMatrix | ConditionMatrix) -> str:
    """Dense frames x 88 CSV for debugging."""
    return "\n".join(",".join(map(str, row)) for row in matrix.data.tolist()) + "\n"
