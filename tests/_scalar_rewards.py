"""Per-frame goal merging, a linear segment scan and per-frame rewards:
the oracles for `rewards.merged_goals`, `rewards.goal_state` and
`rewards.evaluate_rewards`.

This is the code the one-pass versions replaced: one key set per frame,
compared with the last, and a scan of the segment list from its start on
every goal-state call.  Tests compare the results on every frame.
"""

import dataclasses
import json
import math

import numpy as np

from pianomotion import keyboard as kb
from pianomotion.hand import (TIP_JOINTS, clip_fingertips, clip_vectors,
                              finite_diff_velocities, forward_kinematics)
from pianomotion.midi import NUM_KEYS
from pianomotion.rewards import (CORRECT_WEIGHT, ENERGY_SCALE, ENERGY_WEIGHT,
                                 FINGER_SPEED_WEIGHT, GOAL_SLOTS,
                                 NONTARGET_IGNORE_RATIO, NONTARGET_WEIGHT,
                                 TARGET_RATIO_SHAPING, GoalSegment, GoalState)


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


# ---------------------------------------------------------------------------
# Per-frame, per-key rewards: the oracle for `rewards.evaluate_rewards`.
#
# This is the code the whole-clip array pass replaced: one press state per
# (frame, key), scalar reward terms on dicts, and one FK call per key onset.
# Tests compare the reward CLI's JSON lines with these breakdowns' byte for
# byte.


@dataclasses.dataclass(frozen=True)
class KeyState:
    """Press state of one key: depth below rest, clamped to [0, travel]."""

    depth: float
    travel: float

    def __post_init__(self):
        if not 0 <= self.depth <= self.travel:
            raise ValueError(f"depth must be in [0, travel], got {self.depth}")

    @property
    def ratio(self):
        return self.depth / self.travel

    @property
    def touched(self):
        return self.depth > 0

    @property
    def sounding(self):
        return self.ratio > kb.SOUNDING_RATIO


def key_state_from_depth(geom, key, depth):
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    travel = float(geom.travels[key - 1])
    return KeyState(min(depth, travel), travel)


def assign_fingering(reference, skeletons, geom, key, frame):
    p, _ = forward_kinematics(skeletons.bone_offsets,
                              clip_vectors(reference, [frame])[0])
    tips = p[:, TIP_JOINTS].reshape(10, 3)
    target = kb.key_target_position(geom, key)
    d = np.linalg.norm(tips - target, axis=1)
    return int(np.argmin(d)) + 1


def key_press_onset(midi, key, frame):
    col = midi.data[:, key - 1]
    if not col[frame]:
        raise ValueError("key %d is not active at frame %d" % (key, frame))
    f = frame
    while f > 0 and col[f - 1]:
        f -= 1
    return f


def reward_target(fingertip, key_state, target):
    ratio = key_state.ratio
    if ratio > kb.SOUNDING_RATIO:
        return 1.0
    dist = float(np.linalg.norm(np.asarray(fingertip, dtype=np.float64)
                                - np.asarray(target, dtype=np.float64)))
    return math.exp(-dist + TARGET_RATIO_SHAPING * ratio)


def reward_nontarget(key_state):
    if not key_state.touched:
        return 0.0
    ratio = key_state.ratio
    if ratio <= NONTARGET_IGNORE_RATIO:
        return 0.0
    return ratio / kb.SOUNDING_RATIO


def reward_energy(wrist_velocities, fingertip_velocities):
    total = 0.0
    for h in range(2):
        vw = float(np.linalg.norm(wrist_velocities[h]))
        vf = float(np.sum(np.linalg.norm(fingertip_velocities[h], axis=1)))
        total += (vw + FINGER_SPEED_WEIGHT * vf) ** 2
    return math.exp(-ENERGY_SCALE * total)


@dataclasses.dataclass(eq=False)
class RewardBreakdown:
    frame: int
    targets: dict
    nontargets: dict
    r_correct: float
    r_energy: float
    energy_sign: float
    total: float

    def to_json_obj(self):
        return {
            "frame": self.frame,
            "targets": {str(k): v for k, v in sorted(self.targets.items())},
            "nontargets": {str(k): v for k, v in sorted(self.nontargets.items())},
            "r_correct": self.r_correct,
            "r_energy": self.r_energy,
            "energy_sign": self.energy_sign,
            "total": self.total,
        }


def reward_total(targets, nontargets, all_correct, energy, energy_sign=-1.0,
                 frame=0):
    if energy_sign not in (-1.0, 1.0):
        raise ValueError("energy_sign must be -1.0 or +1.0")
    prod = 1.0
    for v in targets.values():
        prod *= v
    penalty = sum(nontargets.values())
    r_correct = 1.0 if all_correct else 0.0
    total = (prod - NONTARGET_WEIGHT * penalty + CORRECT_WEIGHT * r_correct
             + energy_sign * ENERGY_WEIGHT * energy)
    return RewardBreakdown(frame=frame, targets=dict(targets),
                           nontargets=dict(nontargets), r_correct=r_correct,
                           r_energy=energy, energy_sign=energy_sign,
                           total=total)


def segment_fingering(midi, segments, reference, skeletons, geom):
    assignment = {}
    onset_cache = {}
    for si, seg in enumerate(segments):
        for k in sorted(seg.keys):
            onset = key_press_onset(midi, k, seg.start)
            if (k, onset) not in onset_cache:
                onset_cache[(k, onset)] = assign_fingering(
                    reference, skeletons, geom, k, onset)
            assignment[(si, k)] = onset_cache[(k, onset)]
    return assignment


def evaluate_rewards(clip, skeletons, geom, midi, reference=None,
                     energy_sign=-1.0):
    midi.check_clip(clip)
    if clip.n_frames < 2:
        raise ValueError("need >= 2 frames for velocities")
    reference = reference or clip
    midi.check_clip(reference, "reference")

    segments = merged_goals(midi)
    fingering = segment_fingering(midi, segments, reference, skeletons, geom)
    seg_of_frame = np.repeat(np.arange(len(segments)),
                             [seg.length for seg in segments])

    tips = clip_fingertips(clip, skeletons)
    vel = finite_diff_velocities(clip, skeletons)
    targets_xyz = {k: kb.key_target_position(geom, k)
                   for k in range(1, NUM_KEYS + 1)}

    all_depths = kb.key_depths(geom, tips)
    out = []
    for f in range(clip.n_frames):
        si = int(seg_of_frame[f])
        target_keys = sorted(segments[si].keys)
        depths = all_depths[f]
        r_plus = {}
        all_correct = True
        for k in target_keys:
            state = key_state_from_depth(geom, k, float(depths[k - 1]))
            tip_idx = fingering[(si, k)] - 1
            r_plus[k] = reward_target(tips[f, tip_idx], state, targets_xyz[k])
            if not state.sounding:
                all_correct = False
        r_minus = {}
        for k in range(1, NUM_KEYS + 1):
            if k in segments[si].keys or depths[k - 1] <= 0.0:
                continue
            val = reward_nontarget(
                key_state_from_depth(geom, k, float(depths[k - 1])))
            if val > 0.0:
                r_minus[k] = val
        energy = reward_energy(vel.wrist[f], vel.fingertips_local[f])
        out.append(reward_total(r_plus, r_minus, all_correct, energy,
                                energy_sign, frame=f))
    return out


def reward_json_lines(breakdowns):
    """The reward CLI's output for a list of breakdowns."""
    return "".join(json.dumps(b.to_json_obj(), sort_keys=True,
                              separators=(",", ":")) + "\n"
                   for b in breakdowns)
