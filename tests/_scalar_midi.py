"""Byte-reader SMF parsing, per-note rasterizing, per-pitch offset search
and per-entry run finding: the oracle for `midi`.

This is the code that the tight track loop and the array tempo map of
`pianomotion.midi.parse_midi`, the array-wide `quantize` and
`condition_matrix`, the argsort grouping of `find_offset` and the array
runs of `matrix_to_json` replaced: one method call per byte, one tempo
lookup per note time, one numpy call per note, a dict of pitches and one
Python step per matrix entry.  Tests compare the library against it:
bit-identical note arrays and the same warnings, or the same
`MidiParseError` message and byte offset; bit-identical matrices; equal
offsets and counts; the same JSON bytes.
"""

import bisect
import json
import warnings

import numpy as np

from pianomotion.midi import (DEFAULT_SYNC_TOLERANCE, MAX_MIDI_PITCH,
                              MIN_MIDI_PITCH, NUM_KEYS, KeyMatrix,
                              MidiParseError, MidiWarning, NoteList,
                              _greedy_match, offset_grid)


def note_arrays(notes: NoteList):
    """A note list's source and the dtype and bytes of each array, for
    comparing two lists bit for bit."""
    return (notes.source,) + tuple((a.dtype.str, a.tobytes()) for a in
                                   (notes.onset, notes.offset, notes.pitch))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MidiParseError("unexpected end of data", self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.read(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.read(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.read(4), "big")

    def varlen(self) -> int:
        value = 0
        for _ in range(4):
            byte = self.u8()
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        raise MidiParseError("variable-length quantity longer than 4 bytes", self.pos)


_CHANNEL_MSG_LEN = {0x80: 2, 0x90: 2, 0xA0: 2, 0xB0: 2, 0xC0: 1, 0xD0: 1, 0xE0: 2}


def _parse_track(reader: _Reader):
    """One MTrk chunk -> (note on/off events, tempo events), ticks absolute."""
    notes = []  # (tick, channel, midi_pitch, is_on)
    tempos = []  # (tick, microseconds per quarter note)
    header = reader.read(4)
    if header != b"MTrk":
        raise MidiParseError(f"expected MTrk chunk, got {header!r}", reader.pos - 4)
    length = reader.u32()
    end = reader.pos + length
    if end > len(reader.data):
        raise MidiParseError("track length exceeds data size", reader.pos - 4)
    tick = 0
    running_status = None
    while reader.pos < end:
        tick += reader.varlen()
        status = reader.u8()
        if status < 0x80:
            # Running status: first data byte already consumed.
            if running_status is None:
                raise MidiParseError("data byte without running status", reader.pos - 1)
            data0 = status
            status = running_status
            rest = _CHANNEL_MSG_LEN[status & 0xF0] - 1
            payload = bytes([data0]) + reader.read(rest)
        elif status < 0xF0:
            running_status = status
            payload = reader.read(_CHANNEL_MSG_LEN[status & 0xF0])
        elif status in (0xF0, 0xF7):  # sysex
            running_status = None
            payload = reader.read(reader.varlen())
            continue
        elif status == 0xFF:  # meta
            meta_type = reader.u8()
            payload = reader.read(reader.varlen())
            if meta_type == 0x51:
                if len(payload) != 3:
                    raise MidiParseError("set-tempo event must carry 3 bytes", reader.pos)
                tempos.append((tick, int.from_bytes(payload, "big")))
            if meta_type == 0x2F:  # end of track
                reader.pos = end
                break
            continue
        else:
            raise MidiParseError(f"unexpected status byte 0x{status:02x}", reader.pos - 1)

        kind = status & 0xF0
        channel = status & 0x0F
        if kind == 0x90:
            pitch, velocity = payload[0], payload[1]
            notes.append((tick, channel, pitch, velocity > 0))
        elif kind == 0x80:
            notes.append((tick, channel, payload[0], False))
    return notes, tempos


class _TempoMap:
    """Piecewise-constant tempo: converts absolute ticks to seconds.

    Tempos come in file order; of several at one tick the last holds.
    """

    def __init__(self, tempos, ppq: int):
        last = {}
        for tick, uspq in tempos:
            last[tick] = uspq
        tempos = sorted(last.items())
        if not tempos or tempos[0][0] > 0:
            tempos.insert(0, (0, 500000))  # SMF default: 120 bpm
        self.ticks = [t for t, _ in tempos]
        self.uspq = [u for _, u in tempos]
        self.ppq = ppq
        self.seconds_at = [0.0]
        for i in range(1, len(self.ticks)):
            dt = self.ticks[i] - self.ticks[i - 1]
            self.seconds_at.append(
                self.seconds_at[-1] + dt * self.uspq[i - 1] / (self.ppq * 1e6)
            )

    def seconds(self, tick: int) -> float:
        i = bisect.bisect_right(self.ticks, tick) - 1
        return self.seconds_at[i] + (tick - self.ticks[i]) * self.uspq[i] / (self.ppq * 1e6)


def parse_midi(data: bytes, source: str = "") -> NoteList:
    """Parse an SMF format 0/1 byte stream into a NoteList."""
    reader = _Reader(data)
    header = reader.read(4)
    if header != b"MThd":
        raise MidiParseError(f"expected MThd header, got {header!r}", 0)
    header_len = reader.u32()
    if header_len < 6:
        raise MidiParseError(f"header length must be >= 6, got {header_len}", 4)
    fmt = reader.u16()
    n_tracks = reader.u16()
    division = reader.u16()
    reader.read(header_len - 6)
    if fmt not in (0, 1):
        raise MidiParseError(f"unsupported SMF format {fmt}", 8)
    if division & 0x8000:
        raise MidiParseError("SMPTE time division is not supported", 12)
    if division == 0:
        raise MidiParseError("time division must be positive", 12)

    all_notes = []
    all_tempos = []
    for _ in range(n_tracks):
        notes, tempos = _parse_track(reader)
        all_notes.append(notes)
        all_tempos.extend(tempos)
    tempo_map = _TempoMap(all_tempos, division)

    events = []
    dropped = 0
    unterminated = 0
    for track_notes in all_notes:
        open_notes: dict[tuple[int, int], list[int]] = {}
        end_tick = max((t for t, *_ in track_notes), default=0)
        for tick, channel, midi_pitch, is_on in track_notes:
            key = (channel, midi_pitch)
            if is_on:
                open_notes.setdefault(key, []).append(tick)
            else:
                stack = open_notes.get(key)
                if stack:
                    onset_tick = stack.pop(0)  # FIFO: close the oldest open note
                    events.append((onset_tick, tick, midi_pitch))
        for (channel, midi_pitch), stack in open_notes.items():
            for onset_tick in stack:
                unterminated += 1
                if end_tick > onset_tick:
                    events.append((onset_tick, end_tick, midi_pitch))

    out = []  # (onset, offset, pitch)
    for onset_tick, offset_tick, midi_pitch in events:
        if not MIN_MIDI_PITCH <= midi_pitch <= MAX_MIDI_PITCH:
            dropped += 1
            continue
        onset = tempo_map.seconds(onset_tick)
        offset = tempo_map.seconds(offset_tick)
        if offset <= onset:
            continue  # zero-length after tempo mapping; nothing to keep
        out.append((onset, offset, midi_pitch - MIN_MIDI_PITCH + 1))

    if dropped:
        warnings.warn(f"dropped {dropped} note(s) outside MIDI 21..108", MidiWarning)
    if unterminated:
        warnings.warn(
            f"closed {unterminated} unterminated note(s) at end of track", MidiWarning
        )
    out.sort(key=lambda n: (n[0], n[2]))
    onset, offset, pitch = zip(*out) if out else ((), (), ())
    return NoteList(np.array(onset, dtype=np.float64),
                    np.array(offset, dtype=np.float64),
                    np.array(pitch, dtype=np.int64), source)


def _notes(notes: NoteList):
    """(onset, offset, pitch) of each note, as Python numbers."""
    return zip(notes.onset.tolist(), notes.offset.tolist(), notes.pitch.tolist())


def _note_frames(onset: float, offset: float, fps: float, n_frames: int) -> np.ndarray:
    """Frame indices whose [i/fps, (i+1)/fps) interval intersects the note."""
    lo = max(0, int(np.floor(onset * fps)) - 1)
    hi = min(n_frames, int(np.ceil(offset * fps)) + 1)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    idx = np.arange(lo, hi)
    covered = (onset < (idx + 1) / fps) & (offset > idx / fps)
    return idx[covered]


def quantize(notes: NoteList, fps: float, n_frames: int) -> np.ndarray:
    """The (n_frames, 88) uint8 data of `midi.quantize`."""
    data = np.zeros((n_frames, NUM_KEYS), dtype=np.uint8)
    for onset, offset, pitch in _notes(notes):
        data[_note_frames(onset, offset, fps, n_frames), pitch - 1] = 1
    return data


def condition_matrix(notes: NoteList, fps: float, n_frames: int,
                     mode: str = "constant") -> np.ndarray:
    """The (n_frames, 88) float64 data of `midi.condition_matrix`."""
    data = np.zeros((n_frames, NUM_KEYS), dtype=np.float64)
    for onset, offset, pitch in _notes(notes):  # onset order: later notes overwrite
        frames = _note_frames(onset, offset, fps, n_frames)
        if frames.size == 0:
            continue
        if mode == "constant":
            data[frames, pitch - 1] = 1.0 / frames.size
        else:
            data[frames, pitch - 1] = 1.0 / (frames - frames[0] + 1)
    return data


def _group_by_pitch(notes: NoteList):
    groups: dict[int, list[tuple[float, int]]] = {}
    for i, (onset, _, pitch) in enumerate(_notes(notes)):
        groups.setdefault(pitch, []).append((onset, i))
    return groups


def find_offset(a: NoteList, b: NoteList, grid=None,
                tolerance: float = DEFAULT_SYNC_TOLERANCE):
    """(offset, match count) of `midi.find_offset`."""
    if grid is None:
        grid = offset_grid()
    grid = list(grid)
    if not grid:
        raise ValueError("offset grid must be non-empty")
    groups_a = _group_by_pitch(a)
    groups_b = _group_by_pitch(b)
    shared = [
        ([t for t, _ in groups_a[p]], [t for t, _ in groups_b[p]])
        for p in groups_a
        if p in groups_b
    ]
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


def _runs(column: np.ndarray):
    """Maximal runs of equal nonzero values: (start, end, value), end exclusive."""
    runs = []
    start = None
    value = 0.0
    for i, entry in enumerate(column):
        if entry != 0 and (start is None or entry != value):
            if start is not None:
                runs.append((start, i, value))
            start, value = i, entry
        elif entry == 0 and start is not None:
            runs.append((start, i, value))
            start = None
    if start is not None:
        runs.append((start, len(column), value))
    return runs


def matrix_to_json(matrix) -> str:
    """The text of `midi.matrix_to_json`."""
    binary = isinstance(matrix, KeyMatrix)
    columns = {}
    for key in range(NUM_KEYS):
        runs = _runs(matrix.data[:, key])
        if not runs:
            continue
        if binary:
            columns[str(key + 1)] = [[int(s), int(e)] for s, e, _ in runs]
        else:
            columns[str(key + 1)] = [[int(s), int(e), float(v)] for s, e, v in runs]
    payload = {
        "type": "key_matrix" if binary else "condition_matrix",
        "fps": matrix.fps,
        "n_frames": matrix.n_frames,
        "n_keys": NUM_KEYS,
        "columns": columns,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
