"""Property tests: malformed clip, trajectory, keypoint, camera, keyboard,
skeleton and key-matrix files stay inside the CLI's exit codes, and any
bytes parse to a note list or a MidiParseError."""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

import _scalar_midi
import _synth
from pianomotion import cli, midi
from pianomotion.hand import MotionClip, SkeletonPair
from pianomotion.keyboard import KeyboardConfig
from pianomotion.reconstruction import (CameraRig, JointTrajectory,
                                        KeypointObservations)

_PARKED = _synth.parked_pose(0)
_CLIP_TEXT = _synth.pose_clip(60.0, [(_PARKED, _PARKED)] * 2).to_json()
_CLIP = json.loads(_CLIP_TEXT)

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


def put(doc, place, value):
    """A deep copy of `doc` with `value` at the key path `place`."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in place[:-1]:
        parent = parent[key]
    parent[place[-1]] = value
    return doc


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(place=st.sampled_from(_PLACES), value=_JSON | _NUMBERS)
def test_extract_press_exits_0_or_1_on_any_clip_value(place, value):
    text = json.dumps(put(_CLIP, place, value))
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


_RIG = _synth.five_camera_rig()
_HANDS = _synth.pose_clip(60.0, [(_synth.parked_pose(0, x=-0.1),
                                  _synth.parked_pose(1, x=0.1))] * 2)
_UV, _CONF, _VALID, _JOINTS = _synth.project_clip(
    _HANDS, SkeletonPair.default(), _RIG)
_CAMERAS = _RIG.to_json()
_KEYPOINTS = KeypointObservations(_UV, _CONF, _VALID).to_json()
_SCORE = midi.matrix_to_json(_synth.matrix_from_frames([{40}, {40, 44}]))
_SILENCE = midi.matrix_to_json(_synth.matrix_from_frames([set()] * 3))
_CONFIG = json.dumps({"activation_depth": 0.004, "max_iter": 200,
                      "limit_weight": 0.0, "skip_vacuous": False,
                      "energy_sign": -1.0, "mode": "constant"})
# Each input file's valid document, its loader, the command that reads it
# (with {} for its path and {other} for the path of `other`), and the valid
# document of the command's other input.
_INPUTS = {
    "cameras": (_CAMERAS, CameraRig.from_json,
                ["triangulate", "--keypoints", "{other}", "--cameras", "{}",
                 "--fps", "60"], _KEYPOINTS),
    "keypoints": (_KEYPOINTS, KeypointObservations.from_json,
                  ["triangulate", "--keypoints", "{}", "--cameras", "{other}",
                   "--fps", "60"], _CAMERAS),
    "trajectory": (JointTrajectory(60.0, _JOINTS, np.ones(_JOINTS.shape[:3], bool)).to_json(),
                   JointTrajectory.from_json, ["fit", "--trajectory", "{}"], ""),
    "keyboard": (KeyboardConfig().to_json(), KeyboardConfig.from_json,
                 ["extract-press", "--clip", "{other}", "--keyboard", "{}"],
                 _CLIP_TEXT),
    "skeleton": (SkeletonPair.default().to_json(), SkeletonPair.from_json,
                 ["extract-press", "--clip", "{other}", "--skeleton", "{}"],
                 _CLIP_TEXT),
    "silence": (_SILENCE, midi.matrix_from_json,
                ["goalstate", "--midi", "{}", "--fps", "60"], ""),
    "eval-score": (_SCORE, midi.matrix_from_json,
                   ["eval", "--clip", "{other}", "--midi", "{}"], _CLIP_TEXT),
    # json.loads accepts every config document, so a config's values are
    # checked by the exit code and the absence of a traceback alone.
    "config": (_CONFIG, json.loads,
               ["extract-press", "--clip", "{other}", "--config", "{}"],
               _CLIP_TEXT),
}
_INPUT_PLACES = [
    ("cameras", ("cameras",)), ("cameras", ("cameras", 1)),
    ("cameras", ("cameras", 1, "P")), ("cameras", ("cameras", 1, "P", 2)),
    ("cameras", ("cameras", 1, "P", 2, 3)), ("cameras", ("cameras", 1, "K")),
    ("cameras", ("image_size",)), ("cameras", ("image_size", 0)),
    ("keypoints", ("uv",)), ("keypoints", ("uv", 1, 2)),
    ("keypoints", ("uv", 1, 2, 1, 8)), ("keypoints", ("uv", 1, 2, 1, 8, 0)),
    ("keypoints", ("conf", 0, 3, 0, 5)), ("keypoints", ("valid",)),
    ("keypoints", ("valid", 0, 3, 0, 5)), ("keypoints", ("image_size",)),
    ("trajectory", ("fps",)), ("trajectory", ("positions",)),
    ("trajectory", ("positions", 1, 0, 4)), ("trajectory", ("positions", 1, 0, 4, 2)),
    ("trajectory", ("valid",)), ("trajectory", ("valid", 1, 0, 4)),
    ("keyboard", ("travel",)), ("keyboard", ("yaw",)),
    ("keyboard", ("white_key_width",)), ("keyboard", ("black_key_width",)),
    ("keyboard", ("position",)), ("keyboard", ("position", 1)),
    ("keyboard", ("bogus",)),
    ("skeleton", ("left",)), ("skeleton", ("bogus",)),
    ("skeleton", ("right", "handedness")), ("skeleton", ("right", "bogus")),
    ("skeleton", ("right", "bone_offsets")),
    ("skeleton", ("right", "bone_offsets", 4)),
    ("skeleton", ("right", "bone_offsets", 4, 1)),
    ("skeleton", ("right", "joint_limits")),
    ("skeleton", ("right", "joint_limits", 2, 0)),
    ("skeleton", ("right", "joint_limits", 2, 0, 1)),
    ("silence", ("type",)), ("silence", ("fps",)), ("silence", ("n_frames",)),
    ("silence", ("columns",)), ("silence", ("columns", "40")),
    ("eval-score", ("fps",)), ("eval-score", ("n_frames",)),
    ("eval-score", ("columns", "44")), ("eval-score", ("columns", "44", 0, 0)),
    ("config", ("activation_depth",)), ("config", ("max_iter",)),
    ("config", ("limit_weight",)), ("config", ("skip_vacuous",)),
    ("config", ("energy_sign",)), ("config", ("mode",)), ("config", ("seed",))]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(where=st.sampled_from(_INPUT_PLACES), value=_JSON | _NUMBERS)
# A matrix of no frames, which the draws above do not reach.
@example(where=("silence", ("n_frames",)), value=0)
# A bone whose squared length overflows.
@example(where=("skeleton", ("right", "bone_offsets", 4, 1)), value=2e154)
def test_input_loaders_exit_0_or_1_on_any_value(where, value):
    name, place = where
    valid, load, argv, other_text = _INPUTS[name]
    text = json.dumps(put(json.loads(valid), place, value))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, other = os.path.join(tmp, "in.json"), os.path.join(tmp, "other.json")
        for p, t in ((path, text), (other, other_text)):
            with open(p, "w") as fh:
                fh.write(t)
        argv = [a.format(path, other=other) for a in argv]
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["-o", os.path.join(tmp, "out.json")])
    assert "Traceback" not in err.getvalue()
    try:
        load(text)
    except (ValueError, KeyError, TypeError):
        assert rc == 1
        return
    assert rc in (0, 1)


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
    return _scalar_midi.note_arrays(notes)


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
