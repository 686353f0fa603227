"""Property tests: malformed clip files stay inside the CLI's exit codes."""

import copy
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

import _synth
from pianomotion import cli
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
