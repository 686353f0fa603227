"""Byte-reader SMF parsing and per-note rasterizing: the oracle for `midi`.

This is the code the tight track loop in `pianomotion.midi.parse_midi`
and the array-wide `quantize` and `condition_matrix` replaced, one method
call per byte and one numpy call per note.  Tests compare the library
against it: equal note lists, or the same `MidiParseError` message and
byte offset, and bit-identical matrices.
"""

import bisect
import warnings

import numpy as np

from pianomotion.midi import (MAX_MIDI_PITCH, MIN_MIDI_PITCH, NUM_KEYS,
                              MidiParseError, MidiWarning, NoteEvent,
                              NoteList)


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
    """Piecewise-constant tempo: converts absolute ticks to seconds."""

    def __init__(self, tempos, ppq: int):
        tempos = sorted(tempos)
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

    out = []
    for onset_tick, offset_tick, midi_pitch in events:
        if not MIN_MIDI_PITCH <= midi_pitch <= MAX_MIDI_PITCH:
            dropped += 1
            continue
        onset = tempo_map.seconds(onset_tick)
        offset = tempo_map.seconds(offset_tick)
        if offset <= onset:
            continue  # zero-length after tempo mapping; nothing to keep
        out.append(NoteEvent(onset, offset, midi_pitch - MIN_MIDI_PITCH + 1))

    if dropped:
        warnings.warn(f"dropped {dropped} note(s) outside MIDI 21..108", MidiWarning)
    if unterminated:
        warnings.warn(
            f"closed {unterminated} unterminated note(s) at end of track", MidiWarning
        )
    return NoteList.from_events(out, source)


def _note_frames(note: NoteEvent, fps: float, n_frames: int) -> np.ndarray:
    """Frame indices whose [i/fps, (i+1)/fps) interval intersects the note."""
    lo = max(0, int(np.floor(note.onset * fps)) - 1)
    hi = min(n_frames, int(np.ceil(note.offset * fps)) + 1)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    idx = np.arange(lo, hi)
    covered = (note.onset < (idx + 1) / fps) & (note.offset > idx / fps)
    return idx[covered]


def quantize(notes: NoteList, fps: float, n_frames: int) -> np.ndarray:
    """The (n_frames, 88) uint8 data of `midi.quantize`."""
    data = np.zeros((n_frames, NUM_KEYS), dtype=np.uint8)
    for note in notes:
        data[_note_frames(note, fps, n_frames), note.pitch - 1] = 1
    return data


def condition_matrix(notes: NoteList, fps: float, n_frames: int,
                     mode: str = "constant") -> np.ndarray:
    """The (n_frames, 88) float64 data of `midi.condition_matrix`."""
    data = np.zeros((n_frames, NUM_KEYS), dtype=np.float64)
    for note in notes:  # onset order, so later-starting notes overwrite
        frames = _note_frames(note, fps, n_frames)
        if frames.size == 0:
            continue
        if mode == "constant":
            data[frames, note.pitch - 1] = 1.0 / frames.size
        else:
            data[frames, note.pitch - 1] = 1.0 / (frames - frames[0] + 1)
    return data
