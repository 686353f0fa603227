"""Property tests: malformed clip files stay inside the CLI's exit codes,
and any bytes parse to a note list or a MidiParseError."""

import copy
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

import _scalar_midi
import _synth
from pianomotion import cli, midi
from pianomotion.hand import MotionClip

_PARKED = _synth.parked_pose(0)
_CLIP = json.loads(_synth.pose_clip(60.0, [(_PARKED, _PARKED)] * 2).to_json())

# Where a value is put: the top-level fields, a pair, a pose, each pose
# field and one number of two of them.
_PLACES = [("fps",), ("hands",), ("frames",), ("frames", 1), ("frames", 1, 0),
           ("frames", 1, 0, "root_t"), ("frames", 1, 0, "root_q"),
           ("frames", 1, 0, "joint_rotations"), ("frames", 1, 0, "root_q", 0),
           ("frames", 1, 0, "joint_rotations", 14)]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=16)
# Numbers and short number lists, which load often enough to test the
# round trip.
_NUMBERS = st.floats() | st.integers() | st.lists(st.floats() | st.integers(),
                                                  min_size=3, max_size=4)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(place=st.sampled_from(_PLACES), value=_JSON | _NUMBERS)
def test_extract_press_exits_0_or_1_on_any_clip_value(place, value):
    doc = copy.deepcopy(_CLIP)
    parent = doc
    for key in place[:-1]:
        parent = parent[key]
    parent[place[-1]] = value
    text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "clip.json")
        with open(path, "w") as fh:
            fh.write(text)
        rc = cli.main(["extract-press", "--clip", path,
                       "-o", os.path.join(tmp, "presses.json")])
    try:
        clip = MotionClip.from_json(text)
    except ValueError:
        assert rc == 1
        return
    assert rc == 0
    again = clip.to_json()
    assert MotionClip.from_json(again).to_json() == again


def parse_outcome(parse, data):
    """A parser's note list, or its error message and offset; nothing else
    may escape."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", midi.MidiWarning)
        try:
            notes = parse(data)
        except midi.MidiParseError as exc:
            return str(exc), exc.offset
    assert isinstance(notes, midi.NoteList)
    return notes


# A format-1 header for one track at 480 ticks per quarter, and that
# track's chunk tag.
_SMF_START = b"MThd\x00\x00\x00\x06\x00\x01\x00\x01\x01\xe0MTrk"


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.binary(max_size=64)
       | st.binary(max_size=64).map(lambda tail: _SMF_START + tail))
def test_parse_midi_on_any_bytes(data):
    assert parse_outcome(midi.parse_midi, data) == parse_outcome(
        _scalar_midi.parse_midi, data)


_VALID_SMF = [_synth.random_smf(np.random.default_rng(seed)) for seed in range(8)]
_EDIT = st.tuples(st.sampled_from(["flip", "delete", "insert"]),
                  st.integers(0, 10 ** 6), st.integers(0, 255))


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(base=st.sampled_from(_VALID_SMF), edits=st.lists(_EDIT, min_size=1, max_size=4))
def test_parse_midi_on_edited_files(base, edits):
    data = bytearray(base)
    for op, pos, byte in edits:
        pos %= len(data) + 1
        if op == "insert" or pos == len(data):
            data.insert(pos, byte)
        elif op == "flip":
            data[pos] ^= byte or 0x80
        else:
            del data[pos]
    data = bytes(data)
    assert parse_outcome(midi.parse_midi, data) == parse_outcome(
        _scalar_midi.parse_midi, data)
