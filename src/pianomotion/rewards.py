"""Goal encoding, fingering assignment, and per-frame reward terms.

The key-press goals of a piano-roll matrix are merged into maximal runs of
frames sharing one target key set.  From those segments this module builds
the policy observations (a 5x89 goal state and a two-frame pose state) and
the shaped reward: a multiplicative term for target keys, a penalty for
touched non-targets, a bonus when every target sounds, and an energy term
from wrist and fingertip speeds.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

from . import keyboard as kb
from .hand import (NUM_ROT_JOINTS, TIP_JOINTS, MotionClip, SkeletonPair,
                   clip_fingertips, clip_vectors, finite_diff_velocities,
                   forward_kinematics, matrix_to_quat, matrix_to_rotvec)
from .keyboard import KeyboardGeometry, KeyState
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


def expand_goals(segments, fps: float) -> KeyMatrix:
    """Inverse of merged_goals: rebuild the key matrix from segments."""
    if not segments:
        raise ValueError("no segments to expand")
    n = segments[-1].end
    data = np.zeros((n, NUM_KEYS), dtype=np.uint8)
    for seg in segments:
        for k in seg.keys:
            data[seg.start:seg.end, k - 1] = 1
    return KeyMatrix(fps=fps, data=data)


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

    # One FK over the frames involved: the two history frames and, for
    # each, the frame pair of its velocity.
    slots = np.array([current_frame - 1, current_frame])
    before = np.where(slots >= 1, slots - 1, 0)
    after = np.where(slots >= 1, slots, 1)
    frames, at = np.unique(np.concatenate([slots, before, after]),
                           return_inverse=True)
    p, G = forward_kinematics(skeletons.bone_offsets,
                              clip_vectors(clip, frames))
    p = p[:, :, :NUM_ROT_JOINTS]
    at_slot, at_before, at_after = at[:2], at[2:4], at[4:]
    lin = (p[at_after] - p[at_before]) * clip.fps
    rel = G[at_after] @ np.swapaxes(G[at_before], -1, -2)
    ang = matrix_to_rotvec(rel) * clip.fps
    rows = np.concatenate([p[at_slot], matrix_to_quat(G[at_slot]), lin, ang],
                          axis=-1)
    # (slot, hand, link, 13) -> (hand, slot, link * 13)
    return PoseState(np.swapaxes(rows, 0, 1).reshape(2, 2, -1))


def assign_fingering(reference: MotionClip, skeletons: SkeletonPair,
                     geom: KeyboardGeometry, key: int, frame: int) -> int:
    """Fingertip (1..10) nearest the key's press target in a reference frame.

    Fingertips are numbered 1..5 for the left hand thumb..pinky and 6..10
    for the right.  Ties resolve to the lower index.  There is no distance
    gate: a reference hovering far from the key still yields its nearest
    fingertip.
    """
    p, _ = forward_kinematics(skeletons.bone_offsets,
                              clip_vectors(reference, [frame])[0])
    tips = p[:, TIP_JOINTS].reshape(10, 3)
    target = kb.key_target_position(geom, key)
    d = np.linalg.norm(tips - target, axis=1)
    return int(np.argmin(d)) + 1


def key_press_onset(midi: KeyMatrix, key: int, frame: int) -> int:
    """First frame of the active run of `key` that contains `frame`."""
    col = midi.data[:, key - 1]
    if not col[frame]:
        raise ValueError("key %d is not active at frame %d" % (key, frame))
    f = frame
    while f > 0 and col[f - 1]:
        f -= 1
    return f


def reward_target(fingertip, key_state: KeyState, target) -> float:
    """Per-target-key reward from the assigned fingertip and press depth.

    1 when the key is pressed past 90% of travel; otherwise
    exp(-dist + 0.01 * depth ratio) with dist the fingertip-to-target
    distance in meters, so the reward grows as the finger approaches and as
    the key sinks.
    """
    ratio = key_state.ratio
    if ratio > kb.SOUNDING_RATIO:
        return 1.0
    dist = float(np.linalg.norm(np.asarray(fingertip, dtype=np.float64)
                                - np.asarray(target, dtype=np.float64)))
    return math.exp(-dist + TARGET_RATIO_SHAPING * ratio)


def reward_nontarget(key_state: KeyState) -> float:
    """Penalty weight for a non-target key: depth ratio scaled by 1/0.9.

    Trivial touches (depth ratio <= 0.1) are ignored; beyond that the
    penalty grows linearly, reaching 1 at the sounding threshold and
    1/0.9 at full travel.
    """
    if not key_state.touched:
        return 0.0
    ratio = key_state.ratio
    if ratio <= NONTARGET_IGNORE_RATIO:
        return 0.0
    return ratio / kb.SOUNDING_RATIO


def reward_energy(wrist_velocities, fingertip_velocities) -> float:
    """Energy term from wrist and wrist-local fingertip speeds.

    wrist_velocities is (2, 3); fingertip_velocities is (2, 5, 3) in each
    wrist's local frame.  Per hand the cost is (|v_wrist| + 0.1 * sum of
    fingertip speeds)^2; the reward is exp(-0.75 * total), 1 at rest.
    """
    wrist_velocities = np.asarray(wrist_velocities, dtype=np.float64)
    fingertip_velocities = np.asarray(fingertip_velocities, dtype=np.float64)
    if wrist_velocities.shape != (2, 3) or fingertip_velocities.shape != (2, 5, 3):
        raise ValueError("expected wrist (2, 3) and fingertip (2, 5, 3) velocities")
    total = 0.0
    for h in range(2):
        vw = float(np.linalg.norm(wrist_velocities[h]))
        vf = float(np.sum(np.linalg.norm(fingertip_velocities[h], axis=1)))
        total += (vw + FINGER_SPEED_WEIGHT * vf) ** 2
    return math.exp(-ENERGY_SCALE * total)


@dataclasses.dataclass(eq=False)
class RewardBreakdown:
    """All reward terms at one frame plus their weighted combination."""

    frame: int
    targets: dict              # key -> r+ value
    nontargets: dict           # key -> nonzero r- value
    r_correct: float
    r_energy: float
    energy_sign: float
    total: float

    def to_json_obj(self) -> dict:
        return {
            "frame": self.frame,
            "targets": {str(k): v for k, v in sorted(self.targets.items())},
            "nontargets": {str(k): v for k, v in sorted(self.nontargets.items())},
            "r_correct": self.r_correct,
            "r_energy": self.r_energy,
            "energy_sign": self.energy_sign,
            "total": self.total,
        }


def reward_total(targets: dict, nontargets: dict, all_correct: bool,
                 energy: float, energy_sign: float = -1.0,
                 frame: int = 0) -> RewardBreakdown:
    """Combine the per-key terms into the frame reward.

    total = prod(r+) - 0.15 * sum(r-) + 0.5 * r_correct
            + energy_sign * 0.05 * r_energy

    An empty target set contributes an empty product of 1.  The energy term
    enters with a configurable sign (default -1); the breakdown keeps the
    term separate so consumers can re-weight it.
    """
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


def segment_fingering(midi: KeyMatrix, segments, reference: MotionClip,
                      skeletons: SkeletonPair, geom: KeyboardGeometry) -> dict:
    """Fingertip assignment per (segment index, key), fixed at press onset.

    A key held across segment boundaries keeps the fingertip chosen at its
    original onset frame.
    """
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


def evaluate_rewards(clip: MotionClip, skeletons: SkeletonPair,
                     geom: KeyboardGeometry, midi: KeyMatrix,
                     reference: MotionClip | None = None,
                     reference_skeletons: SkeletonPair | None = None,
                     energy_sign: float = -1.0) -> list:
    """Per-frame reward breakdowns for a clip against its score.

    Fingering comes from `reference` when given (with its own skeletons if
    they differ), otherwise from the evaluated clip itself.  The clip, the
    reference and the matrix must agree on fps and frame count.
    """
    midi.check_clip(clip)
    if clip.n_frames < 2:
        raise ValueError("need >= 2 frames for velocities")
    reference = reference or clip
    midi.check_clip(reference, "reference")
    reference_skeletons = reference_skeletons or skeletons

    segments = merged_goals(midi)
    fingering = segment_fingering(midi, segments, reference,
                                  reference_skeletons, geom)
    seg_of_frame = np.repeat(np.arange(len(segments)),
                             [seg.length for seg in segments])

    tips = clip_fingertips(clip, skeletons)          # (F, 10, 3)
    vel = finite_diff_velocities(clip, skeletons)
    targets_xyz = {k: kb.key_target_position(geom, k)
                   for k in range(1, NUM_KEYS + 1)}

    all_depths = kb.key_depths(geom, tips)           # (F, 88)
    out = []
    for f in range(clip.n_frames):
        si = int(seg_of_frame[f])
        target_keys = sorted(segments[si].keys)
        depths = all_depths[f]
        r_plus = {}
        all_correct = True
        for k in target_keys:
            state = kb.key_state_from_depth(geom, k, float(depths[k - 1]))
            tip_idx = fingering[(si, k)] - 1
            r_plus[k] = reward_target(tips[f, tip_idx], state, targets_xyz[k])
            if not state.sounding:
                all_correct = False
        r_minus = {}
        for k in range(1, NUM_KEYS + 1):
            if k in segments[si].keys or depths[k - 1] <= 0.0:
                continue
            val = reward_nontarget(
                kb.key_state_from_depth(geom, k, float(depths[k - 1])))
            if val > 0.0:
                r_minus[k] = val
        energy = reward_energy(vel.wrist[f], vel.fingertips_local[f])
        out.append(reward_total(r_plus, r_minus, all_correct, energy,
                                energy_sign, frame=f))
    return out
