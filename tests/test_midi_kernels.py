"""The tight SMF track loop, the array tempo map, the array rasterizers,
the grouped offset search and the array run finder against the scalar
oracle in `_scalar_midi`: bit-identical note arrays and equal warnings, or
the same `MidiParseError` message and byte offset; bit-identical matrices;
equal offsets and counts; the same JSON text."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _scalar_midi as scalar
import _synth
from pianomotion import midi


def outcome(parse, data):
    """What a parser makes of `data`: its result and warnings, or its error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            notes = parse(data, "take")
        except midi.MidiParseError as exc:
            return "error", str(exc), exc.offset
    assert isinstance(notes, midi.NoteList)
    return scalar.note_arrays(notes), [str(w.message) for w in caught]


def assert_parses_like_oracle(data):
    got = outcome(midi.parse_midi, data)
    assert got == outcome(scalar.parse_midi, data)
    return got


def mutate(rng, data, n_edits):
    """`data` with bytes replaced, deleted or inserted at random places."""
    out = bytearray(data)
    for _ in range(n_edits):
        op, pos = int(rng.integers(0, 3)), int(rng.integers(0, len(out) + 1))
        if op == 0 and pos < len(out):
            out[pos] = int(rng.integers(0, 256))
        elif op == 1 and pos < len(out):
            del out[pos]
        else:
            out.insert(pos, int(rng.integers(0, 256)))
    return bytes(out)


def test_parse_matches_oracle_on_random_files():
    rng = np.random.default_rng(1)
    for _ in range(200):
        assert_parses_like_oracle(_synth.random_smf(rng))


def test_parse_matches_oracle_on_long_takes():
    rng = np.random.default_rng(2)
    for _ in range(3):
        events = []
        for _ in range(400):
            onset = float(rng.uniform(0.0, 60.0))
            events.append((onset, onset + float(rng.uniform(0.05, 2.0)),
                           int(rng.integers(1, 89))))
        data = _synth.serialize_midi(_synth.note_list(events))
        assert_parses_like_oracle(data)
        assert len(midi.parse_midi(data)) == 400


def test_parse_matches_oracle_on_mutated_files():
    rng = np.random.default_rng(3)
    errors = set()
    for _ in range(3000):
        tracks = [_synth.random_track(rng, 12) for _ in range(int(rng.integers(1, 3)))]
        if rng.random() < 0.5:
            # Edit one track body and keep the chunk lengths consistent, so
            # that the edits reach the event loop.
            k = int(rng.integers(0, len(tracks)))
            tracks[k] = mutate(rng, tracks[k], int(rng.integers(1, 4)))
            data = _synth.smf(tracks)
        else:
            data = mutate(rng, _synth.smf(tracks), int(rng.integers(1, 4)))
        got = assert_parses_like_oracle(data)
        if got[0] == "error":
            errors.add(got[1].split(" (")[0].split(",")[0])
    # The edits reach every way the track loop can fail.
    assert {"unexpected end of data", "data byte without running status",
            "variable-length quantity longer than 4 bytes",
            "set-tempo event must carry 3 bytes",
            "track length exceeds data size"} <= errors
    assert any(e.startswith("unexpected status byte") for e in errors)
    assert any(e.startswith("expected MTrk chunk") for e in errors)


_BODY = (b"\x00\xff\x51\x03\x07\xa1\x20\x81\x00\x90\x3c\x40\x10\x3c\x00"
         b"\x00\xc0\x05\x00\xf0\x02\x01\xf7\x83\x80\x00\xe0\x01\x02"
         b"\x00\xff\x2f\x00")


def test_track_cut_short_parses_like_oracle():
    # The chunk length matches the cut body, so reads run off the data
    # inside every kind of event.
    offsets = set()
    for keep in range(len(_BODY)):
        got = assert_parses_like_oracle(_synth.smf([_BODY[:keep]]))
        if got[0] == "error":
            assert got[1].startswith("unexpected end of data")
            offsets.add(got[2])
    assert len(offsets) > 20


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1),
       tempos=st.lists(st.tuples(st.sampled_from([0, 0, 1, 240, 20000, 2 ** 21]),
                                 st.integers(0, 2 ** 24 - 1)), min_size=2, max_size=8))
def test_parse_matches_oracle_with_several_tempos(seed, tempos):
    # Tempo changes at shared ticks, mid-note and of zero microseconds,
    # across a conductor track and the tracks' own tempo events.
    assert_parses_like_oracle(_synth.random_smf(np.random.default_rng(seed), tempos))


def long_note(ticks, uspq=0xFFFFFF):
    """A format-0 file at 1 tick per quarter holding one note `ticks` long,
    its length spread over text events of the largest delta time."""
    body = bytearray(b"\x00\xff\x51\x03" + uspq.to_bytes(3, "big") + b"\x00\x90\x3c\x40")
    step = 2 ** 28 - 1
    for _ in range(ticks // step):
        body += _synth._varlen_bytes(step) + b"\xff\x01\x00"
    body += _synth._varlen_bytes(ticks % step) + b"\x80\x3c\x00\x00\xff\x2f\x00"
    return _synth.smf([bytes(body)], fmt=0, division=1)


def test_tick_span_past_int64_is_a_parse_error():
    most = np.iinfo(np.int64).max // 0xFFFFFF
    notes, _ = assert_parses_like_oracle(long_note(most))
    assert notes[2] == ("<f8", np.float64(most * 0xFFFFFF / 1e6).tobytes())
    data = long_note(most + 1)
    with pytest.raises(midi.MidiParseError) as exc:
        midi.parse_midi(data)
    assert str(exc.value) == ("tick times too long to convert to seconds "
                              "(byte offset %d)" % len(data))


def random_notes(rng, fps):
    """Up to 30 notes on three pitches, overlapping, some on frame
    boundaries and some 1e-9 s long."""
    events = []
    for _ in range(int(rng.integers(0, 31))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            onset = int(rng.integers(0, 50)) / fps
        else:
            onset = float(rng.uniform(0.0, 50.0 / fps))
        length = 1e-9 if kind == 2 else float(rng.uniform(0.01, 10.0)) / fps
        events.append((onset, onset + length, int(rng.integers(1, 4))))
    return _synth.note_list(events)


def test_rasterizers_match_oracle_on_random_notes():
    rng = np.random.default_rng(4)
    for _ in range(300):
        fps = float(10.0 ** rng.uniform(-3.0, 3.0))
        notes = random_notes(rng, fps)
        n_frames = int(rng.integers(0, 60))  # often truncates
        got = midi.quantize(notes, fps, n_frames).data
        assert got.tobytes() == scalar.quantize(notes, fps, n_frames).tobytes()
        for mode in ("constant", "decaying"):
            got = midi.condition_matrix(notes, fps, n_frames, mode).data
            want = scalar.condition_matrix(notes, fps, n_frames, mode)
            assert got.tobytes() == want.tobytes()


def test_rasterizers_match_oracle_on_a_parsed_take():
    rng = np.random.default_rng(5)
    events = []
    for _ in range(300):
        onset = float(rng.uniform(0.0, 30.0))
        events.append((onset, onset + float(rng.uniform(0.01, 3.0)),
                       int(rng.integers(1, 89))))
    notes = midi.parse_midi(_synth.serialize_midi(_synth.note_list(events)))
    for fps in (59.94, 60, 7.5):
        n_frames = int(np.ceil(notes.duration() * fps))
        assert (midi.quantize(notes, fps, n_frames).data.tobytes()
                == scalar.quantize(notes, fps, n_frames).tobytes())
        for mode in ("constant", "decaying"):
            assert (midi.condition_matrix(notes, fps, n_frames, mode).data.tobytes()
                    == scalar.condition_matrix(notes, fps, n_frames, mode).tobytes())


@pytest.mark.parametrize("onset,offset", [(0.0, np.inf), (np.nan, np.nan),
                                          (np.inf, np.inf), (0.0, np.nan)])
def test_note_event_rejects_non_finite_times(onset, offset):
    with pytest.raises(ValueError, match="finite"):
        midi.NoteList([onset], [offset], [40])


def test_rasterizers_reject_notes_beyond_float_frames():
    notes = midi.NoteList([0.0], [1e308], [40])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite in frames"):
            midi.quantize(notes, 60.0, 10)
        with pytest.raises(ValueError, match="finite in frames"):
            midi.condition_matrix(notes, 60.0, 10)


def random_take(rng):
    """Up to 40 notes on five pitches, some at equal onsets, and a second
    take of them shifted by a planted offset, with notes dropped, added
    and jittered; sometimes on other pitches entirely."""
    n = int(rng.integers(0, 41))
    onset = rng.uniform(0.0, 4.0, n)
    if rng.random() < 0.5:
        onset = np.round(onset, 2)  # exact ties between candidate matchings
    pitch = rng.integers(1, 6, n)
    a = _synth.note_list(zip(onset, onset + 0.1, pitch))
    keep = rng.random(n) >= rng.choice([0.0, 0.2])
    shift = int(rng.integers(-50, 51)) * 0.002
    b_onset = onset[keep] + shift + rng.choice([0.0, 0.0, 0.003, -0.005], keep.sum())
    b_pitch = pitch[keep] + (10 if rng.random() < 0.1 else 0)
    extra = int(rng.integers(0, 6))
    b_onset = np.concatenate([b_onset, rng.uniform(0.0, 4.0, extra)])
    b_pitch = np.concatenate([b_pitch, rng.integers(1, 6, extra)])
    b_onset = np.clip(b_onset, 0.0, None)
    return a, _synth.note_list(zip(b_onset, b_onset + 0.1, b_pitch))


def test_find_offset_matches_oracle_on_random_takes():
    rng = np.random.default_rng(7)
    grid = midi.offset_grid(0.1, 0.002)
    found = 0
    for _ in range(60):
        a, b = random_take(rng)
        for tolerance in (0.0, 0.016):
            got = midi.find_offset(a, b, grid, tolerance)
            assert got == scalar.find_offset(a, b, grid, tolerance)
            found += got[1] > 0
    assert found > 60


def random_matrix_data(rng, n_frames, values):
    """(n_frames, 88) entries drawn from values, equal neighbours common,
    with some keys held over the first and last frames."""
    data = rng.choice(values, size=(n_frames, midi.NUM_KEYS))
    data[:, :10] = data[:1, :10]
    data[n_frames // 2:, 10:20] = values[-1]
    return data


@pytest.mark.parametrize("n_frames", [0, 1, 2, 7, 61])
def test_matrix_json_matches_oracle(n_frames):
    rng = np.random.default_rng(8 + n_frames)
    for _ in range(10):
        binary = midi.KeyMatrix(60.0, random_matrix_data(rng, n_frames, np.array([0, 1])))
        assert midi.matrix_to_json(binary) == scalar.matrix_to_json(binary)
        cond = midi.ConditionMatrix(59.94, random_matrix_data(
            rng, n_frames, np.array([0.0, -0.0, 0.25, 1.0 / 3.0, 1.0])))
        assert midi.matrix_to_json(cond) == scalar.matrix_to_json(cond)
    notes = random_notes(rng, 60.0)
    for mode in ("constant", "decaying"):
        cond = midi.condition_matrix(notes, 60.0, n_frames, mode)
        assert midi.matrix_to_json(cond) == scalar.matrix_to_json(cond)
