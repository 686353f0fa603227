"""Score parsing, piano-roll rasterization, and onset alignment."""

import json

import numpy as np
import pytest

from _synth import note_list, serialize_midi, smf
from pianomotion import midi
from pianomotion.midi import (
    ConditionMatrix,
    KeyMatrix,
    MidiParseError,
    MidiWarning,
    NoteList,
)


TEMPO_500K = b"\x00\xff\x51\x03\x07\xa1\x20"  # 500000 us per quarter
END = b"\x00\xff\x2f\x00"


def rows(notes):
    """(onset, offset, pitch) of each note, as Python numbers."""
    return list(zip(notes.onset.tolist(), notes.offset.tolist(),
                    notes.pitch.tolist()))


# ---------------------------------------------------------------------------
# SMF parsing


def test_parse_single_note_exact_times():
    # 480 ticks at 480 ppq and 500000 us/quarter is exactly half a second.
    track = TEMPO_500K + b"\x00\x90\x3c\x40" + b"\x83\x60\x80\x3c\x00" + END
    notes = midi.parse_midi(smf([track], fmt=0))
    # MIDI 60 (C4) is key 40 on the 88-key layout.
    assert rows(notes) == [(0.0, 0.5, 40)]
    assert [a.dtype for a in (notes.onset, notes.offset, notes.pitch)] == [
        np.float64, np.float64, np.int64]


def test_parse_running_status():
    # Second note-on/off omit the status byte.
    track = (
        TEMPO_500K
        + b"\x00\x90\x3c\x40"
        + b"\x60\x3e\x40"  # running status: note-on MIDI 62
        + b"\x60\x3c\x00"  # velocity 0 closes MIDI 60
        + b"\x60\x3e\x00"
        + END
    )
    notes = midi.parse_midi(smf([track], fmt=0))
    by_pitch = {p: (on, off) for on, off, p in rows(notes)}
    assert set(by_pitch) == {40, 42}
    assert by_pitch[40][0] == 0.0
    assert by_pitch[40][1] == pytest.approx(0.2, abs=1e-12)
    assert by_pitch[42][0] == pytest.approx(0.1, abs=1e-12)
    assert by_pitch[42][1] == pytest.approx(0.3, abs=1e-12)


def test_parse_format1_tempo_in_first_track():
    conductor = TEMPO_500K + END
    track = b"\x00\x90\x3c\x40" + b"\x83\x60\x80\x3c\x00" + END
    notes = midi.parse_midi(smf([conductor, track]))
    assert notes.offset.tolist() == [0.5]


def test_parse_tempo_change_mid_note():
    # Note spans ticks 240..720; tempo halves to 250000 at tick 480.
    # onset = 240/480 * 0.5 = 0.25 s
    # offset = 0.5 s (first 480 ticks) + 240 * 250000us/480 = 0.625 s
    track = (
        TEMPO_500K
        + b"\x81\x70\x90\x3c\x40"  # delta 240: note on
        + b"\x81\x70\xff\x51\x03\x03\xd0\x90"  # delta 240: tempo 250000
        + b"\x81\x70\x80\x3c\x00"  # delta 240: note off at tick 720
        + END
    )
    notes = midi.parse_midi(smf([track], fmt=0))
    assert notes.onset[0] == pytest.approx(0.25, abs=1e-12)
    assert notes.offset[0] == pytest.approx(0.625, abs=1e-12)


def test_parse_last_tempo_at_a_tick_holds():
    # Two tempos at tick 0, 1 s and then 0.25 s per quarter: the later
    # event holds, so 120 ticks at 480 ppq last 0.0625 s.  Sorted with the
    # tempo as a tie-break, the slower one held and the note lasted 0.25 s.
    track = (
        b"\x00\xff\x51\x03\x0f\x42\x40"  # 1000000 us per quarter
        + b"\x00\xff\x51\x03\x03\xd0\x90"  # 250000 us per quarter
        + b"\x00\x90\x3c\x40"
        + b"\x78\x80\x3c\x00"  # delta 120
        + END
    )
    notes = midi.parse_midi(smf([track], fmt=0))
    assert rows(notes) == [(0.0, 0.0625, 40)]
    # Across tracks, file order is track order.
    slow, fast = track[:7] + END, track[7:14] + END
    notes = midi.parse_midi(smf([slow, fast, track[14:]]))
    assert rows(notes) == [(0.0, 0.0625, 40)]
    notes = midi.parse_midi(smf([fast, slow, track[14:]]))
    assert rows(notes) == [(0.0, 0.25, 40)]


def test_parse_overlapping_same_pitch_fifo():
    # on@0, on@96, off@192, off@288: the first off closes the FIRST on.
    track = (
        TEMPO_500K
        + b"\x00\x90\x3c\x40"
        + b"\x60\x90\x3c\x40"
        + b"\x60\x80\x3c\x00"
        + b"\x60\x80\x3c\x00"
        + END
    )
    notes = midi.parse_midi(smf([track], fmt=0))
    spans = sorted((on, off) for on, off, _ in rows(notes))
    assert spans == [(0.0, 0.2), (0.1, 0.3)]


def test_parse_drops_out_of_range_pitches_with_warning():
    track = (
        TEMPO_500K
        + b"\x00\x90\x14\x40"  # MIDI 20, below A0
        + b"\x60\x80\x14\x00"
        + b"\x00\x90\x3c\x40"
        + b"\x60\x80\x3c\x00"
        + END
    )
    with pytest.warns(MidiWarning, match="outside MIDI 21..108"):
        notes = midi.parse_midi(smf([track], fmt=0))
    assert notes.pitch.tolist() == [40]


def test_parse_closes_unterminated_note_at_track_end():
    track = (
        TEMPO_500K
        + b"\x00\x90\x3c\x40"
        + b"\x60\x90\x3e\x40"  # later event fixes the track end tick
        + b"\x60\x80\x3e\x00"
        + END
    )
    with pytest.warns(MidiWarning, match="unterminated"):
        notes = midi.parse_midi(smf([track], fmt=0))
    by_pitch = {p: off for _, off, p in rows(notes)}
    assert by_pitch[40] == pytest.approx(0.2, abs=1e-12)


def test_parse_rejects_bad_header():
    with pytest.raises(MidiParseError):
        midi.parse_midi(b"RIFF" + bytes(20))


def test_parse_rejects_smpte_division():
    data = smf([TEMPO_500K + END], fmt=0, division=0xE728)
    with pytest.raises(MidiParseError, match="SMPTE"):
        midi.parse_midi(data)


def test_parse_rejects_format2():
    data = smf([TEMPO_500K + END], fmt=2)
    with pytest.raises(MidiParseError, match="format"):
        midi.parse_midi(data)


def test_parse_rejects_truncated_track():
    data = smf([TEMPO_500K + END], fmt=0)
    with pytest.raises(MidiParseError):
        midi.parse_midi(data[:-3])


def test_serialize_parse_round_trip_within_one_tick(rng):
    events = []
    onset = 0.0
    for _ in range(200):
        # Gaps well above one tick keep the onset order stable through
        # tick rounding, so positional comparison is valid.
        onset += float(rng.uniform(0.01, 0.4))
        duration = float(rng.uniform(0.05, 2.0))
        pitch = int(rng.integers(1, 89))
        events.append((onset, onset + duration, pitch))
    notes = note_list(events)
    parsed = midi.parse_midi(serialize_midi(notes))
    assert len(parsed) == len(notes)
    tick = 1.0 / 960.0  # 480 ppq at 500000 us per quarter
    # Overlapping same-pitch notes are re-paired first-in-first-out on
    # parse, so compare per-pitch onset/offset multisets, not pairings.
    for field in ("onset", "offset"):
        for pitch in set(notes.pitch.tolist()):
            want = np.sort(getattr(notes, field)[notes.pitch == pitch])
            got = np.sort(getattr(parsed, field)[parsed.pitch == pitch])
            assert len(got) == len(want)
            assert (np.abs(got - want) <= tick).all()


def test_serialize_uses_long_deltas():
    # A 90 s gap needs multi-byte delta times.
    notes = note_list([(0.0, 0.5, 40), (90.0, 91.0, 50)])
    parsed = midi.parse_midi(serialize_midi(notes))
    assert parsed.onset[1] == pytest.approx(90.0, abs=1e-3)


# ---------------------------------------------------------------------------
# Quantization


def test_quantize_covers_overlapped_frames():
    notes = note_list([(0.005, 0.025, 40)])
    matrix = midi.quantize(notes, 100.0, 5)
    assert matrix.data[:, 39].tolist() == [1, 1, 1, 0, 0]


def test_quantize_half_open_frame_boundaries():
    # A note on [0.01, 0.02) covers exactly frame 1 at 100 fps: the frame
    # interval is half-open, so touching a boundary does not light a frame.
    notes = note_list([(0.01, 0.02, 40)])
    matrix = midi.quantize(notes, 100.0, 4)
    assert matrix.data[:, 39].tolist() == [0, 1, 0, 0]


def test_quantize_truncates_past_n_frames():
    notes = note_list([(0.0, 10.0, 40)])
    matrix = midi.quantize(notes, 100.0, 3)
    assert matrix.data[:, 39].tolist() == [1, 1, 1]


def test_quantize_validates_arguments():
    notes = note_list([(0.0, 1.0, 40)])
    with pytest.raises(ValueError):
        midi.quantize(notes, 0.0, 10)
    with pytest.raises(ValueError):
        midi.quantize(notes, 100.0, -1)


def test_condition_constant_mode_weights():
    # Four frames at 100 fps: every covered frame holds 1/4.
    notes = note_list([(0.0, 0.04, 40)])
    cond = midi.condition_matrix(notes, 100.0, 6, mode="constant")
    assert cond.data[:, 39].tolist() == [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]


def test_condition_decaying_mode_weights():
    notes = note_list([(0.0, 0.04, 40)])
    cond = midi.condition_matrix(notes, 100.0, 6, mode="decaying")
    expect = [1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 0.0, 0.0]
    assert cond.data[:, 39].tolist() == expect


def test_condition_later_note_wins_overlap():
    notes = note_list(
        [(0.0, 0.06, 40), (0.03, 0.05, 40)]
    )
    cond = midi.condition_matrix(notes, 100.0, 6, mode="decaying")
    # First note writes 1, 1/2 .. 1/6; the later note overwrites frames 3-4.
    expect = [1.0, 0.5, 1.0 / 3.0, 1.0, 0.5, 1.0 / 6.0]
    assert cond.data[:, 39].tolist() == expect


def test_condition_rejects_unknown_mode():
    notes = note_list([(0.0, 1.0, 40)])
    with pytest.raises(ValueError, match="mode"):
        midi.condition_matrix(notes, 100.0, 10, mode="linear")


# ---------------------------------------------------------------------------
# Matching and offset search


def test_match_notes_pairs_by_pitch_and_tolerance():
    a = note_list([(1.0, 2.0, 40), (1.0, 2.0, 45)])
    b = note_list([(1.01, 2.0, 40), (1.5, 2.0, 45), (1.0, 2.0, 50)])
    # Only pitch 40 has a b-note within 16 ms; pitch 50 is not in a.
    assert midi.find_offset(a, b, grid=[0.0], tolerance=0.016) == (0.0, 1)


def test_match_notes_tolerance_is_inclusive():
    a = note_list([(1.0, 2.0, 40)])
    b = note_list([(1.25, 2.0, 40)])
    assert midi.find_offset(a, b, grid=[0.0], tolerance=0.25) == (0.0, 1)
    assert midi.find_offset(a, b, grid=[0.0], tolerance=0.2) == (0.0, 0)
    assert midi._greedy_match([1.0], [1.25], 0.25) == ([(0, 0)], 0.25)


def test_match_notes_distance_tie_prefers_earlier():
    pairs, gap = midi._greedy_match([1.0], [0.99, 1.01], tolerance=0.016)
    assert pairs == [(0, 0)]
    assert gap == 1.0 - 0.99


def test_match_notes_is_one_to_one():
    a = note_list([(1.0, 2.0, 40), (1.004, 2.0, 40)])
    b = note_list([(1.002, 2.0, 40)])
    assert midi.find_offset(a, b, grid=[0.0], tolerance=0.016) == (0.0, 1)
    assert midi._greedy_match([1.0, 1.004], [1.002], 0.016)[0] == [(0, 0)]


def test_offset_grid_symmetric_steps():
    grid = midi.offset_grid(0.01, 0.001)
    assert len(grid) == 21
    assert grid[10] == 0.0
    assert grid[11] == 0.001
    assert grid == sorted(grid)


def test_find_offset_recovers_applied_shift(rng):
    events = []
    onset = 0.0
    for _ in range(60):
        onset += float(rng.uniform(0.1, 0.5))
        events.append((onset, onset + 0.2, int(rng.integers(1, 89))))
    a = note_list(events)
    b = NoteList(a.onset + 0.037, a.offset + 0.037, a.pitch)
    offset, count = midi.find_offset(a, b, grid=midi.offset_grid(0.2, 0.001))
    assert offset == pytest.approx(0.037, abs=1e-12)
    assert count == len(a)


def test_find_offset_prefers_smaller_gap_then_offset():
    # One note, wide tolerance: many offsets match one pair, but only the
    # true shift has zero summed gap.
    a = note_list([(1.0, 2.0, 40)])
    b = NoteList(a.onset + 0.004, a.offset + 0.004, a.pitch)
    offset, count = midi.find_offset(a, b, grid=midi.offset_grid(0.05, 0.001))
    assert offset == pytest.approx(0.004, abs=1e-12)
    assert count == 1


def test_find_offset_no_shared_pitch_returns_zero():
    a = note_list([(1.0, 2.0, 40)])
    b = note_list([(1.0, 2.0, 50)])
    offset, count = midi.find_offset(a, b, grid=midi.offset_grid(0.05, 0.001))
    assert offset == 0.0
    assert count == 0


def test_find_offset_rejects_empty_grid():
    a = note_list([(1.0, 2.0, 40)])
    with pytest.raises(ValueError):
        midi.find_offset(a, a, grid=[])


# ---------------------------------------------------------------------------
# Containers and serialization


def test_note_event_validation():
    for onset, offset, pitch, message in [
            ([-0.1], [1.0], [40], "onset must be finite and >= 0, got -0.1"),
            ([1.0], [1.0], [40], "offset 1.0 must be finite and exceed onset 1.0"),
            ([0.0, 1.0], [1.0, 0.5], [40, 41], "offset 0.5 must .* onset 1.0"),
            ([0.0], [1.0], [89], "pitch must be in 1..88, got 89"),
            ([0.0], [1.0], [0], "pitch must be in 1..88, got 0"),
            ([0.0], [1.0], [40.0], "pitch must hold integers"),
            ([0.0], [1.0, 2.0], [40], "1-D arrays of one length"),
            ([[0.0]], [[1.0]], [[40]], "1-D arrays of one length")]:
        with pytest.raises(ValueError, match=message):
            NoteList(onset, offset, pitch)


def test_note_list_requires_sorted_onsets():
    with pytest.raises(ValueError, match="non-decreasing onset"):
        NoteList([1.0, 0.5], [2.0, 2.0], [40, 41])
    # Equal onsets are in order.
    assert len(NoteList([1.0, 1.0], [2.0, 1.5], [41, 40])) == 2


def test_note_list_duration_and_arrays():
    notes = note_list([(1.0, 2.0, 41), (0.0, 1.5, 40)], "take")
    assert notes.duration() == 2.0 and type(notes.duration()) is float
    assert len(notes) == 2 and notes.source == "take"
    assert notes.onset.tolist() == [0.0, 1.0]
    assert notes.pitch.tolist() == [40, 41]
    empty = NoteList([], [], [])
    assert len(empty) == 0 and empty.duration() == 0.0
    assert empty.pitch.dtype == np.int64
    # float64 and int64 arrays are kept, not copied.
    onset = np.array([0.5])
    assert NoteList(onset, [1.0], np.array([3])).onset is onset


def test_key_matrix_validation():
    with pytest.raises(ValueError):
        KeyMatrix(100.0, np.zeros((4, 87)))
    with pytest.raises(ValueError):
        KeyMatrix(100.0, np.full((4, 88), 2))
    with pytest.raises(ValueError):
        KeyMatrix(0.0, np.zeros((4, 88)))


def test_condition_matrix_rejects_out_of_range():
    data = np.zeros((4, 88))
    data[0, 0] = 1.5
    with pytest.raises(ValueError):
        ConditionMatrix(100.0, data)
    data[0, 0] = -0.25
    with pytest.raises(ValueError):
        ConditionMatrix(100.0, data)


def test_keys_at_returns_one_based_keys():
    data = np.zeros((2, 88), dtype=np.uint8)
    data[1, 0] = 1
    data[1, 87] = 1
    matrix = KeyMatrix(100.0, data)
    assert matrix.keys_at(0) == set()
    assert matrix.keys_at(1) == {1, 88}


def test_matrix_json_round_trip_binary(rng):
    data = (rng.random((30, 88)) < 0.2).astype(np.uint8)
    matrix = KeyMatrix(59.94, data)
    back = midi.matrix_from_json(midi.matrix_to_json(matrix))
    assert isinstance(back, KeyMatrix)
    assert back.fps == matrix.fps
    assert np.array_equal(back.data, matrix.data)


def test_matrix_json_round_trip_condition():
    notes = note_list(
        [(0.0, 0.05, 40), (0.02, 0.1, 41)]
    )
    cond = midi.condition_matrix(notes, 100.0, 12, mode="decaying")
    back = midi.matrix_from_json(midi.matrix_to_json(cond))
    assert isinstance(back, ConditionMatrix)
    assert np.array_equal(back.data, cond.data)


def test_matrix_json_preserves_trailing_empty_frames():
    data = np.zeros((10, 88), dtype=np.uint8)
    data[0, 5] = 1
    back = midi.matrix_from_json(midi.matrix_to_json(KeyMatrix(100.0, data)))
    assert back.n_frames == 10


def test_matrix_from_json_rejects_unknown_type():
    with pytest.raises(ValueError, match="matrix type"):
        midi.matrix_from_json('{"type": "piano", "n_frames": 1, "columns": {}}')


def _matrix_doc(drop=(), **fields):
    """A valid three-frame matrix document with `fields` replaced."""
    doc = {"type": "key_matrix", "fps": 60.0, "n_frames": 3, "n_keys": 88,
           "columns": {"40": [[0, 2]]}}
    doc.update(fields)
    for key in drop:
        del doc[key]
    return json.dumps(doc)


def _condition_doc(run):
    return _matrix_doc(type="condition_matrix", columns={"40": [run]})


@pytest.mark.parametrize("text", [
    _matrix_doc(columns={"0": [[0, 1]]}),
    _matrix_doc(columns={"89": [[0, 1]]}),
    _matrix_doc(columns={"C4": [[0, 1]]}),
    _matrix_doc(columns={"40": [[-2, 3]]}),
    _matrix_doc(columns={"40": [[2, 1]]}),
    _matrix_doc(columns={"40": [[0, 4]]}),
    _matrix_doc(columns={"40": [[0, 1, 1]]}),
    _matrix_doc(columns={"40": [[0.0, 1]]}),
    _matrix_doc(columns={"40": [[False, 1]]}),
    _matrix_doc(columns={"40": [0, 1]}),
    _matrix_doc(columns={"40": {"0": 1}}),
    _matrix_doc(columns=[[0, 1]]),
    "[1, 2]",
    "null",
    _matrix_doc(fps="60"),
    _matrix_doc(fps=None),
    _matrix_doc(fps=True),
    _matrix_doc(fps=float("nan")),
    _matrix_doc(fps=float("inf")),
    _matrix_doc(fps=0),
    _matrix_doc(fps=10 ** 400),
    _matrix_doc(n_frames="3"),
    _matrix_doc(n_frames=3.0),
    _matrix_doc(n_frames=-1),
    _matrix_doc(drop=["n_frames"]),
    _matrix_doc(drop=["columns"]),
    _matrix_doc(drop=["fps"]),
    _condition_doc([0, 1]),
    _condition_doc([0, 1, 0]),
    _condition_doc([0, 1, 1.5]),
    _condition_doc([0, 1, "0.5"]),
    _condition_doc([0, 1, float("nan")]),
], ids=["key-0", "key-89", "key-name", "negative-start", "reversed-run",
        "run-past-end", "binary-run-value", "float-start", "bool-start",
        "flat-runs", "object-runs", "array-columns", "array-payload",
        "null-payload", "str-fps", "null-fps", "bool-fps", "nan-fps",
        "inf-fps", "zero-fps", "huge-fps", "str-n_frames", "float-n_frames",
        "negative-n_frames", "no-n_frames", "no-columns", "no-fps",
        "condition-run-width", "condition-zero", "condition-over-one",
        "condition-str", "condition-nan"])
def test_matrix_from_json_rejects_malformed_payloads(text):
    with pytest.raises(ValueError):
        midi.matrix_from_json(text)


def test_matrix_from_json_rejects_fps_too_large_for_a_float():
    # The message abbreviates the 401-digit number.
    with pytest.raises(ValueError, match=r"finite number, got 1000+\.\.\.0+$"):
        midi.matrix_from_json(_matrix_doc(fps=10 ** 400))


def test_matrix_from_json_keeps_integer_fps_and_empty_runs():
    back = midi.matrix_from_json(_matrix_doc(fps=60, columns={"88": [[3, 3]]}))
    assert back.fps == 60 and isinstance(back.fps, int)
    assert not back.data.any()


def test_matrix_csv_layout():
    data = np.zeros((2, 88), dtype=np.uint8)
    data[0, 0] = 1
    text = midi.matrix_to_csv(KeyMatrix(100.0, data))
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("1,0,0")
    assert len(lines[0].split(",")) == 88
