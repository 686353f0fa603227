"""Goal encoding, fingering assignment, and reward terms over whole clips.

The key-press goals of a piano-roll matrix are merged into maximal runs of
frames sharing one target key set.  From those segments this module builds
the policy observations (a 5x89 goal state and a two-frame pose state) and
the shaped reward: a multiplicative term for target keys, a penalty for
touched non-targets, a bonus when every target sounds, and an energy term
from wrist and fingertip speeds, each computed for every frame of a clip at
once as (F, 88) and (F,) arrays.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

from . import keyboard as kb
from .hand import (NUM_ROT_JOINTS, TIP_JOINTS, MotionClip, SkeletonPair,
                   clip_fingertips, clip_vectors, finite_diff_velocities,
                   forward_kinematics, matrix_to_quat, unit_quat_to_rotvec)
from .keyboard import KeyboardGeometry
from .midi import NUM_KEYS, KeyMatrix

GOAL_SLOTS = 5
# Reward weights: non-target penalty, all-correct bonus, energy weight,
# energy exponent scale, fingertip speed weight inside the energy term.
NONTARGET_WEIGHT = 0.15
CORRECT_WEIGHT = 0.5
ENERGY_WEIGHT = 0.05
ENERGY_SCALE = 0.75
FINGER_SPEED_WEIGHT = 0.1
NONTARGET_IGNORE_RATIO = 0.1
TARGET_RATIO_SHAPING = 0.01


@dataclasses.dataclass(frozen=True)
class GoalSegment:
    """A maximal run of frames sharing one target key set."""

    keys: frozenset
    start: int
    end: int                   # exclusive

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.end):
            raise ValueError("segment must satisfy 0 <= start < end")
        for k in self.keys:
            if not 1 <= k <= NUM_KEYS:
                raise ValueError("key %r outside 1..88" % (k,))

    @property
    def length(self) -> int:
        return self.end - self.start


def merged_goals(midi: KeyMatrix) -> list:
    """Run-length encode identical rows of a key matrix into goal segments.

    Silent stretches become segments with an empty key set, so the returned
    segments always partition the full frame range.
    """
    if midi.n_frames == 0:
        raise ValueError("the key matrix has no frames")
    change = np.flatnonzero(np.any(np.diff(midi.data, axis=0), axis=1)) + 1
    bounds = np.concatenate([[0], change, [midi.n_frames]]).tolist()
    return [GoalSegment(frozenset(midi.keys_at(start)), start, end)
            for start, end in zip(bounds[:-1], bounds[1:])]


@dataclasses.dataclass(eq=False)
class GoalState:
    """The next five goal segments as an array of key rows plus timers.

    matrix is 5 x 89: columns 0..87 hold the segment's binary key vector,
    column 88 the timer in frames from the current frame to the segment's
    end.  Slots beyond the last segment are zero.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.shape != (GOAL_SLOTS, NUM_KEYS + 1):
            raise ValueError("goal state must be 5 x 89")
        keys = self.matrix[:, :NUM_KEYS]
        if not np.all((keys == 0.0) | (keys == 1.0)):
            raise ValueError("goal key entries must be 0 or 1")
        if np.any(self.matrix[:, NUM_KEYS] < 0.0):
            raise ValueError("goal timers must be >= 0")

    @property
    def timers(self) -> np.ndarray:
        return self.matrix[:, NUM_KEYS]


def goal_state(segments, current_frame: int) -> GoalState:
    """Goal state at a frame: current segment plus the next four.

    `segments` are in frame order, as from `merged_goals`.  Every slot's
    timer counts frames from current_frame to that segment's end, so timers
    increase across populated slots and the slot-0 timer drops by exactly 1
    each frame within a segment.
    """
    mat = np.zeros((GOAL_SLOTS, NUM_KEYS + 1))
    idx = bisect.bisect_right(segments, current_frame,
                              key=lambda seg: seg.start) - 1
    if idx < 0 or current_frame >= segments[idx].end:
        raise ValueError("frame %d outside the segment range" % current_frame)
    for slot, seg in enumerate(segments[idx:idx + GOAL_SLOTS]):
        mat[slot, [k - 1 for k in seg.keys]] = 1.0
        mat[slot, NUM_KEYS] = seg.end - current_frame
    return GoalState(mat)


@dataclasses.dataclass(eq=False)
class PoseState:
    """Two-frame link-state history for both hands.

    array is (2 hands, 2 history frames, 16 links * 13); each link, the
    wrist and the 15 finger joints, contributes position (3), orientation
    quaternion wxyz (4), linear velocity (3) and angular velocity (3).
    Hands are ordered left, right; history frames (t-1, t).
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        self.array = np.asarray(self.array, dtype=np.float64)
        want = (2, 2, NUM_ROT_JOINTS * 13)
        if self.array.shape != want:
            raise ValueError("pose state must have shape %s" % (want,))
        quats = self.array.reshape(2, 2, NUM_ROT_JOINTS, 13)[..., 3:7]
        norms = np.linalg.norm(quats, axis=-1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("link orientation quaternions must be unit norm")


def pose_state(clip: MotionClip, skeletons: SkeletonPair,
               current_frame: int) -> PoseState:
    """Link positions, orientations and velocities at frames (t-1, t).

    Velocities are one-step finite differences at the clip frame rate:
    backward at every frame except frame 0, where the forward difference is
    used so a two-frame history starting at the clip head stays defined.
    The caller must pass current_frame >= 1 (pad the clip to observe its
    first frame).
    """
    if current_frame < 1:
        raise ValueError("pose state needs current_frame >= 1")
    if current_frame >= clip.n_frames:
        raise ValueError("frame %d outside clip of %d frames"
                         % (current_frame, clip.n_frames))

    # One FK over the frames involved: the two history frames and the one
    # before them.  Frame 1 has none before it, so both of its history
    # frames take the velocity of the pair (0, 1).
    lo = max(current_frame - 2, 0)
    p, G = forward_kinematics(skeletons.bone_offsets,
                              clip_vectors(clip, slice(lo, current_frame + 1)))
    p = p[:, :, :NUM_ROT_JOINTS]
    before, after = [0, len(p) - 2], [1, len(p) - 1]
    lin = (p[after] - p[before]) * clip.fps
    rel = G[after] @ np.swapaxes(G[before], -1, -2)
    # The history frames' orientations and the relative rotations in one go.
    quats = matrix_to_quat(np.concatenate([G[-2:], rel]))
    ang = unit_quat_to_rotvec(quats[2:]) * clip.fps
    rows = np.concatenate([p[-2:], quats[:2], lin, ang], axis=-1)
    # (slot, hand, link, 13) -> (hand, slot, link * 13)
    return PoseState(np.swapaxes(rows, 0, 1).reshape(2, 2, -1))


# libm's exp: numpy's SIMD exp differs from it in the last bit on some
# inputs, which would change the reward bytes.  For the same reason the
# tip-to-target distance and the wrist speed are sqrt(vecdot), the
# arithmetic of a 1-D np.linalg.norm, and fingertip speeds norm(axis=-1).
_exp = np.frompyfunc(math.exp, 1, 1)


def press_onsets(active) -> np.ndarray:
    """First frame of the active run through each frame of each key.

    `active` is (F, 88) key flags; the result is (F, 88), -1 where the key
    is silent.
    """
    active = np.asarray(active, dtype=bool)
    starts = active.copy()
    starts[1:] &= ~active[:-1]
    frames = np.arange(active.shape[0])[:, None]
    onsets = np.maximum.accumulate(np.where(starts, frames, 0), axis=0)
    return np.where(active, onsets, -1)


def fingering(midi: KeyMatrix, reference: MotionClip, skeletons: SkeletonPair,
              key_targets: np.ndarray) -> np.ndarray:
    """(F, 88) fingertip (1..10) assigned to each active key, 0 elsewhere.

    key_targets (88, 3) holds every key's press target
    (`keyboard.key_target_position`).  A key's fingertip is the one nearest
    its press target in the reference frame where its active run began, so
    a key held across segment boundaries keeps it.  Fingertips are numbered 1..5 for the left hand
    thumb..pinky and 6..10 for the right.  Ties resolve to the lower index.
    There is no distance gate: a reference hovering far from the key still
    yields its nearest fingertip.
    """
    onsets = press_onsets(midi.data)
    f, k = np.nonzero(onsets >= 0)
    # One FK over the distinct onset frames, one distance per (onset, key).
    pairs, at_pair = np.unique(onsets[f, k] * NUM_KEYS + k, return_inverse=True)
    frames, at_frame = np.unique(pairs // NUM_KEYS, return_inverse=True)
    p, _ = forward_kinematics(skeletons.bone_offsets,
                              clip_vectors(reference, frames))
    tips = p[:, :, TIP_JOINTS].reshape(-1, 10, 3)
    d = np.linalg.norm(tips[at_frame]
                       - key_targets[pairs % NUM_KEYS, None], axis=-1)
    out = np.zeros(onsets.shape, dtype=np.int64)
    out[f, k] = np.argmin(d, axis=-1)[at_pair] + 1
    return out


def reward_target(fingertips, ratio, targets) -> np.ndarray:
    """r+ of target keys from their fingertips (..., 3), depth ratios (...)
    and press targets (..., 3).

    1 where the key is pressed past 90% of travel; otherwise
    exp(-dist + 0.01 * depth ratio) with dist the fingertip-to-target
    distance in meters, so the reward grows as the finger approaches and as
    the key sinks.
    """
    d = (np.asarray(fingertips, dtype=np.float64)
         - np.asarray(targets, dtype=np.float64))
    ratio = np.asarray(ratio, dtype=np.float64)
    shaped = -np.sqrt(np.vecdot(d, d)) + TARGET_RATIO_SHAPING * ratio
    return np.where(ratio > kb.SOUNDING_RATIO, 1.0,
                    np.asarray(_exp(shaped), dtype=np.float64))


def reward_nontarget(ratio) -> np.ndarray:
    """Penalty weight of non-target keys (...) from their depth ratios (...):
    the ratio scaled by 1/0.9.

    Trivial touches (depth ratio <= 0.1) are ignored; beyond that the
    penalty grows linearly, reaching 1 at the sounding threshold and
    1/0.9 at full travel.
    """
    ratio = np.asarray(ratio, dtype=np.float64)
    return np.where(ratio > NONTARGET_IGNORE_RATIO,
                    ratio / kb.SOUNDING_RATIO, 0.0)


def reward_energy(wrist_velocities, fingertip_velocities) -> np.ndarray:
    """Energy term (...) from wrist and wrist-local fingertip speeds.

    wrist_velocities is (..., 2, 3); fingertip_velocities is (..., 2, 5, 3)
    in each wrist's local frame.  Per hand the cost is
    (|v_wrist| + 0.1 * sum of fingertip speeds)^2; the reward is
    exp(-0.75 * total), 1 at rest.
    """
    wrist = np.asarray(wrist_velocities, dtype=np.float64)
    tips = np.asarray(fingertip_velocities, dtype=np.float64)
    if wrist.shape[-2:] != (2, 3) or tips.shape != wrist.shape[:-1] + (5, 3):
        raise ValueError("expected wrist (..., 2, 3) and fingertip "
                         "(..., 2, 5, 3) velocities")
    vw = np.sqrt(np.vecdot(wrist, wrist))
    vf = np.sum(np.linalg.norm(tips, axis=-1), axis=-1)
    cost = (vw + FINGER_SPEED_WEIGHT * vf) ** 2
    return np.asarray(_exp(-ENERGY_SCALE * (cost[..., 0] + cost[..., 1])),
                      dtype=np.float64)


def reward_total(r_target, r_nontarget, r_correct, r_energy,
                 energy_sign: float = -1.0) -> np.ndarray:
    """Combine the per-key terms (..., 88) into the frame reward (...).

    total = prod(r+) - 0.15 * sum(r-) + 0.5 * r_correct
            + energy_sign * 0.05 * r_energy

    r_target holds 1 on non-target keys, so a frame without targets
    contributes an empty product of 1; r_nontarget holds 0 on keys without
    a penalty.  The product and the sum run key by key in ascending order.
    The energy term enters with a configurable sign (default -1).
    """
    if energy_sign not in (-1.0, 1.0):
        raise ValueError("energy_sign must be -1.0 or +1.0")
    r_target = np.asarray(r_target, dtype=np.float64)
    r_nontarget = np.asarray(r_nontarget, dtype=np.float64)
    prod = np.ones(r_target.shape[:-1])
    penalty = np.zeros(r_nontarget.shape[:-1])
    for k in range(NUM_KEYS):
        prod = prod * r_target[..., k]
        penalty = penalty + r_nontarget[..., k]
    return (prod - NONTARGET_WEIGHT * penalty
            + CORRECT_WEIGHT * np.asarray(r_correct, dtype=np.float64)
            + energy_sign * ENERGY_WEIGHT * np.asarray(r_energy,
                                                       dtype=np.float64))


@dataclasses.dataclass(eq=False)
class ClipRewards:
    """Every reward term of a clip, one row per frame:

        targets      (F, 88) bool  the score's target keys
        r_target     (F, 88)       r+ of each target key, 1 elsewhere
        r_nontarget  (F, 88)       r- of each non-target key, 0 elsewhere
        r_correct    (F,)          1 where every target key sounds, else 0
        r_energy     (F,)          energy term
        total        (F,)          weighted combination (`reward_total`)
    """

    targets: np.ndarray
    r_target: np.ndarray
    r_nontarget: np.ndarray
    r_correct: np.ndarray
    r_energy: np.ndarray
    energy_sign: float
    total: np.ndarray


def evaluate_rewards(clip: MotionClip, skeletons: SkeletonPair,
                     geom: KeyboardGeometry, midi: KeyMatrix,
                     reference: MotionClip | None = None,
                     energy_sign: float = -1.0) -> ClipRewards:
    """Reward terms of every frame of a clip against its score.

    Fingering comes from `reference` when given, otherwise from the
    evaluated clip itself.  The clip, the reference and the matrix must
    agree on fps and frame count.
    """
    midi.check_clip(clip)
    if clip.n_frames < 2:
        raise ValueError("need >= 2 frames for velocities")
    reference = reference or clip
    midi.check_clip(reference, "reference")

    vel = finite_diff_velocities(clip, skeletons)
    r_energy = reward_energy(vel.wrist, vel.fingertips_local)
    targets = midi.data.astype(bool)
    f, k = np.nonzero(targets)
    key_targets = kb.key_target_position(geom, np.arange(1, NUM_KEYS + 1))
    tip = fingering(midi, reference, skeletons, key_targets)[f, k] - 1
    tips = clip_fingertips(clip, skeletons)           # (F, 10, 3)
    ratio = kb.key_depths(geom, tips) / geom.travels  # (F, 88)
    r_target = np.ones(targets.shape)
    r_target[f, k] = reward_target(tips[f, tip], ratio[f, k],
                                   key_targets[k])
    r_nontarget = np.where(targets, 0.0, reward_nontarget(ratio))
    sounding = ~targets | (ratio > kb.SOUNDING_RATIO)
    r_correct = np.all(sounding, axis=1).astype(np.float64)
    total = reward_total(r_target, r_nontarget, r_correct, r_energy,
                         energy_sign)
    return ClipRewards(targets, r_target, r_nontarget, r_correct, r_energy,
                       energy_sign, total)
