"""Per-frame goal merging and a linear segment scan: the oracle for
`rewards.merged_goals` and `rewards.goal_state`.

This is the code the one-pass versions replaced: one key set per frame,
compared with the last, and a scan of the segment list from its start on
every goal-state call.  Tests compare the results on every frame.
"""

import numpy as np

from pianomotion.midi import NUM_KEYS
from pianomotion.rewards import GOAL_SLOTS, GoalSegment, GoalState


def merged_goals(midi):
    if midi.n_frames == 0:
        raise ValueError("the key matrix has no frames")
    segments = []
    start = 0
    current = midi.keys_at(0)
    for f in range(1, midi.n_frames):
        keys = midi.keys_at(f)
        if keys != current:
            segments.append(GoalSegment(frozenset(current), start, f))
            start = f
            current = keys
    segments.append(GoalSegment(frozenset(current), start, midi.n_frames))
    return segments


def goal_state(segments, current_frame):
    mat = np.zeros((GOAL_SLOTS, NUM_KEYS + 1))
    idx = None
    for i, seg in enumerate(segments):
        if seg.start <= current_frame < seg.end:
            idx = i
            break
    if idx is None:
        raise ValueError("frame %d outside the segment range" % current_frame)
    for slot in range(GOAL_SLOTS):
        if idx + slot >= len(segments):
            break
        seg = segments[idx + slot]
        for k in seg.keys:
            mat[slot, k - 1] = 1.0
        mat[slot, NUM_KEYS] = seg.end - current_frame
    return GoalState(mat)
