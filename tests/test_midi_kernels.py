"""The tight SMF track loop and the array rasterizers against the scalar
oracle in `_scalar_midi`: equal note lists and warnings, or the same
`MidiParseError` message and byte offset, and bit-identical matrices."""

import warnings

import numpy as np
import pytest

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
    return notes, [str(w.message) for w in caught]


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
        notes, _ = assert_parses_like_oracle(_synth.random_smf(rng))
        assert isinstance(notes, midi.NoteList)


def test_parse_matches_oracle_on_long_takes():
    rng = np.random.default_rng(2)
    for _ in range(3):
        events = []
        for _ in range(400):
            onset = float(rng.uniform(0.0, 60.0))
            events.append(midi.NoteEvent(onset, onset + float(rng.uniform(0.05, 2.0)),
                                         int(rng.integers(1, 89))))
        data = midi.serialize_midi(midi.NoteList.from_events(events))
        notes, _ = assert_parses_like_oracle(data)
        assert len(notes) == 400


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
        events.append(midi.NoteEvent(onset, onset + length, int(rng.integers(1, 4))))
    return midi.NoteList.from_events(events)


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
        events.append(midi.NoteEvent(onset, onset + float(rng.uniform(0.01, 3.0)),
                                     int(rng.integers(1, 89))))
    notes = midi.parse_midi(midi.serialize_midi(midi.NoteList.from_events(events)))
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
        midi.NoteEvent(onset, offset, 40)


def test_rasterizers_reject_notes_beyond_float_frames():
    notes = midi.NoteList((midi.NoteEvent(0.0, 1e308, 40),))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite in frames"):
            midi.quantize(notes, 60.0, 10)
        with pytest.raises(ValueError, match="finite in frames"):
            midi.condition_matrix(notes, 60.0, 10)
