"""Score-driven motion refinement: make a clip's key presses match its MIDI.

Per frame, the keys pressed by the clip's fingertips are compared with the
reference key matrix.  Keys pressed but silent in the score are "wrong
presses": the deepest offending fingertip is targeted straight up to just
above the key's rest surface.  Score keys no fingertip presses are
"omitted": the fingertip closest to its projection onto the key surface is
targeted onto the key at activation depth.  Targets demanding more than
1 cm of fingertip travel are discarded.  The surviving targets drive one
damped least-squares solve that edits only the joint rotations of the
fingers holding a target; both wrists and every other finger keep their
input values bit for bit.  A smoothness term ties each frame's edit to
its neighbours' edits.
"""

from __future__ import annotations

import dataclasses
import types

import numpy as np

from . import keyboard as kb
from .hand import (MotionClip, NUM_FINGERS, SkeletonPair, TIP_JOINTS,
                   clip_fingertips, clip_vectors, fk_jacobian,
                   forward_kinematics)
from .keyboard import KeyboardGeometry
from .lsq import block_tridiagonal_solve, levenberg_marquardt
from .midi import KeyMatrix
from .reconstruction import twist_free_basis

DEFAULT_SMOOTHNESS = 0.00005
DEFAULT_EPOCHS = 100
DEFAULT_MAX_DISPLACEMENT = 0.01    # m; targets farther than this are dropped
DISPLACEMENT_ASSERT = 0.012        # m; optimizer slack over the 1 cm budget
DEFAULT_EXIT_CLEARANCE = 0.001     # m above rest surface for wrong presses
DEFAULT_PRESS_MARGIN = 0.001       # m beyond activation depth for omissions

WRONG_PRESS = "wrong_press"
OMITTED = "omitted"

# Each finger's MCP, PIP and DIP rotation vectors in the pose vector, and
# its 6 columns of the twist-free basis (two per joint).
_FINGER_COLS = 6 + 9 * np.arange(NUM_FINGERS)[:, None] + np.arange(9)
_FINGER_DIMS = 6 + 6 * np.arange(NUM_FINGERS)[:, None] + np.arange(6)
# Target poses per fk_jacobian call; it bounds the stacked Jacobians.
_POSE_BLOCK = 256


@dataclasses.dataclass(eq=False)
class PressError:
    """One frame-level disagreement between the clip and the score."""

    frame: int
    key: int
    kind: str                          # WRONG_PRESS or OMITTED
    fingertip: int | None = None       # 1..10 once a subject is chosen
    target: np.ndarray | None = None   # world point the fingertip should reach
    valid: bool | None = None          # False when displacement > 1 cm

    def to_json_obj(self) -> dict:
        return {
            "frame": self.frame,
            "key": self.key,
            "kind": self.kind,
            "fingertip": self.fingertip,
            "target": None if self.target is None
                      else [float(v) for v in self.target],
            "valid": self.valid,
        }


def detect_press_errors(clip: MotionClip, skeletons: SkeletonPair,
                        geom: KeyboardGeometry, midi: KeyMatrix,
                        activation_depth: float = kb.DEFAULT_ACTIVATION_DEPTH) -> list:
    """All wrong-press and omitted-press disagreements, frame by frame."""
    if clip.n_frames != midi.n_frames:
        raise ValueError("clip has %d frames, matrix %d"
                         % (clip.n_frames, midi.n_frames))
    if abs(clip.fps - midi.fps) > 1e-9:
        raise ValueError("clip fps %g != matrix fps %g" % (clip.fps, midi.fps))
    pressed = kb.pressed_keys(geom, clip_fingertips(clip, skeletons),
                              activation_depth)
    scored = midi.data.astype(bool)
    # Frame by frame: wrong presses by key, then omissions by key.
    frame, kind, key = np.nonzero(np.stack([pressed & ~scored,
                                            scored & ~pressed], axis=1))
    return [PressError(f, k + 1, (WRONG_PRESS, OMITTED)[c])
            for f, c, k in zip(frame.tolist(), kind.tolist(), key.tolist())]


def _surface_target(geom: KeyboardGeometry, key: int, tip_local: np.ndarray,
                    depth_below_rest: float) -> np.ndarray:
    """Closest point to a fingertip on the key's pressable footprint, local.

    The z coordinate is the key's rest height minus depth_below_rest.  For
    white keys the rear section excludes the strips covered by neighboring
    black keys, so a press there cannot land on the wrong key; a hair of
    margin keeps the point off shared footprint boundaries.
    """
    eps = 1e-6
    x0, x1, y0, y1 = geom.boxes[key - 1]
    z = geom.rest_heights[key - 1] - depth_below_rest
    tx, ty = tip_local[0], tip_local[1]

    def clamp(lo_x, hi_x, lo_y, hi_y):
        return np.array([min(max(tx, lo_x + eps), hi_x - eps),
                         min(max(ty, lo_y + eps), hi_y - eps), z])

    if geom._black[key - 1]:
        return clamp(x0, x1, y0, y1)
    blen = geom.config.black_key_length
    front = clamp(x0, x1, blen, y1)
    ex0, ex1 = kb._exposed_interval(geom, key, (y0 + blen) / 2)
    if ex1 - ex0 <= 2 * eps:
        return front
    back = clamp(ex0, ex1, y0, blen)
    d_front = np.hypot(front[0] - tx, front[1] - ty)
    d_back = np.hypot(back[0] - tx, back[1] - ty)
    return back if d_back < d_front else front


@dataclasses.dataclass(eq=False)
class IkTargets:
    """Per-frame fingertip targets assembled from press errors.

    targets is (F, 10, 3) world coordinates; mask is (F, 10), True where a
    fingertip has a live target.  errors keeps every PressError with its
    chosen subject, target and validity filled in.
    """

    targets: np.ndarray
    mask: np.ndarray
    errors: list

    @property
    def n_valid(self) -> int:
        return int(self.mask.sum())

    @property
    def n_invalidated(self) -> int:
        return sum(1 for e in self.errors if e.valid is False)


def ik_targets(errors, clip: MotionClip, skeletons: SkeletonPair,
               geom: KeyboardGeometry,
               activation_depth: float = kb.DEFAULT_ACTIVATION_DEPTH,
               exit_clearance: float = DEFAULT_EXIT_CLEARANCE,
               press_margin: float = DEFAULT_PRESS_MARGIN,
               max_displacement: float = DEFAULT_MAX_DISPLACEMENT) -> IkTargets:
    """Choose an IK subject fingertip and a 3D target for every press error.

    Wrong presses are resolved first (deepest fingertip on the key, sent
    straight up to the rest surface plus clearance); omissions then pick
    the nearest still-unassigned fingertip and push it onto the key to
    activation depth plus a small margin so the press registers cleanly.
    Targets farther than max_displacement from the fingertip are marked
    invalid and excluded from the mask.
    """
    F = clip.n_frames
    tips = clip_fingertips(clip, skeletons)
    keys, depths = kb.locate_keys(geom, tips)
    targets = np.full((F, 10, 3), np.nan)
    mask = np.zeros((F, 10), dtype=bool)

    by_frame = {}
    for e in errors:
        by_frame.setdefault(e.frame, []).append(e)

    for f, frame_errors in sorted(by_frame.items()):
        taken = set()
        ordered = ([e for e in frame_errors if e.kind == WRONG_PRESS]
                   + [e for e in frame_errors if e.kind == OMITTED])
        for e in ordered:
            if e.kind == WRONG_PRESS:
                on = np.flatnonzero(keys[f] == e.key)
                if not on.size:
                    # The offending fingertip moved out from over the key
                    # (possible only if extraction and targeting disagree);
                    # nothing to aim.
                    e.valid = False
                    continue
                best_i = int(on[np.argmax(depths[f, on])])    # the first deepest
                local = geom.to_local(tips[f, best_i])
                tgt_local = np.array([local[0], local[1],
                                      geom.rest_heights[e.key - 1]
                                      + exit_clearance])
                e.fingertip = best_i + 1
                e.target = geom.to_world(tgt_local)
            else:
                best_i = None
                best_d = np.inf
                best_target = None
                for i in range(10):
                    if i in taken:
                        continue
                    local = geom.to_local(tips[f, i])
                    tgt_local = _surface_target(
                        geom, e.key, local, activation_depth + press_margin)
                    d = float(np.linalg.norm(local - tgt_local))
                    if d < best_d:
                        best_d = d
                        best_i = i
                        best_target = geom.to_world(tgt_local)
                if best_i is None:
                    e.valid = False
                    continue
                e.fingertip = best_i + 1
                e.target = best_target
            disp = float(np.linalg.norm(tips[f, e.fingertip - 1] - e.target))
            e.valid = disp <= max_displacement
            if e.valid:
                taken.add(e.fingertip - 1)
                targets[f, e.fingertip - 1] = e.target
                mask[f, e.fingertip - 1] = True
    return IkTargets(targets, mask, list(errors))


@dataclasses.dataclass(eq=False)
class IkProblem:
    """A clip, its fingertip targets, and the optimization knobs."""

    clip: MotionClip
    targets: IkTargets
    smoothness: float = DEFAULT_SMOOTHNESS
    epochs: int = DEFAULT_EPOCHS

    def __post_init__(self) -> None:
        if self.smoothness < 0:
            raise ValueError("smoothness weight must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.targets.targets.shape[0] != self.clip.n_frames:
            raise ValueError("targets cover %d frames, clip has %d"
                             % (self.targets.targets.shape[0],
                                self.clip.n_frames))


@dataclasses.dataclass(eq=False)
class RefineResult:
    clip: MotionClip
    loss_curve: list               # objective at the start and per LM step
    initial_loss: float
    final_loss: float
    n_targets: int
    n_invalidated: int
    iterations: np.ndarray         # (2, 5) LM iterations per hand and finger
    stop: np.ndarray               # (2, 5) stop reason, None where unedited

    def report_obj(self) -> dict:
        return {
            "initial_loss": self.initial_loss,
            "final_loss": self.final_loss,
            "n_targets": self.n_targets,
            "n_invalidated": self.n_invalidated,
            "epochs_run": max(0, len(self.loss_curve) - 1),
            "loss_curve": self.loss_curve,
            "iterations": np.where(self.stop.astype(bool), self.iterations,
                                   None).tolist(),
            "stop": self.stop.tolist(),
        }


def refine(problem: IkProblem, skeletons: SkeletonPair) -> RefineResult:
    """Solve the whole-clip refinement and return the edited clip.

    Minimizes the mean over frames of the mean masked fingertip-to-target
    squared distance plus smoothness * the mean squared difference between
    consecutive frames' edits (changes from the input), which is zero on
    the input.  Only the joint rotations of fingers that miss a target are
    edited, each joint in the plane perpendicular to its rest child bone
    (`twist_free_basis`); wrists, twists and all other fingers keep their
    input bits.  Each such (hand, finger) is its own problem, with normal
    equations block tridiagonal in time; all of them run in one
    `levenberg_marquardt` batch of at most `epochs` iterations.  With zero
    smoothness only frames holding targets enter, and other frames come
    back bit-identical.
    """
    clip = problem.clip
    N = clip.n_frames
    targets = problem.targets
    mask = targets.mask.reshape(N, 2, NUM_FINGERS)
    goal = targets.targets.reshape(N, 2, NUM_FINGERS, 3)
    pre_tips = clip_fingertips(clip, skeletons)
    missed = mask & np.any(pre_tips.reshape(goal.shape) != goal, axis=-1)
    hands, fingers = np.nonzero(missed.any(axis=0))
    iterations = np.zeros((2, NUM_FINGERS), dtype=np.int64)
    stop = np.full((2, NUM_FINGERS), None, dtype=object)
    if not len(hands):
        return RefineResult(clip.copy(), [], 0.0, 0.0, targets.n_valid,
                            targets.n_invalidated, iterations, stop)

    # Problem p edits finger fingers[p] of hand hands[p] on frames[f] by
    # x[p, f] (6 twist-free coordinates); it has a target where aimed[p, f].
    aimed = mask[:, hands, fingers].T
    frames = (np.arange(N) if problem.smoothness > 0.0
              else np.flatnonzero(aimed.any(axis=0)))
    aimed = aimed[:, frames]
    goal = goal[frames][:, hands, fingers].swapaxes(0, 1)
    theta0 = clip_vectors(clip, frames)[:, hands].swapaxes(0, 1)
    cols = _FINGER_COLS[fingers]
    E = twist_free_basis(skeletons.bone_offsets)[
        hands[:, None, None], cols[:, :, None], _FINGER_DIMS[fingers, None]]
    tips = TIP_JOINTS[fingers]
    weight = 1.0 / (N * np.maximum(targets.mask.sum(axis=1), 1)[frames])
    c = problem.smoothness / (N - 1) if N > 1 else 0.0
    P, n = aimed.shape
    # Each frame's edit is tied to its neighbours': c times their number on
    # the diagonal blocks, -c I off it.
    degree = np.zeros(n)
    degree[1:] += 1.0
    degree[:-1] += 1.0
    lower = np.broadcast_to(-c * np.eye(6), (P, n, 6, 6)).copy()
    upper = lower.copy()
    lower[:, 0] = upper[:, -1] = 0.0

    def poses(i, x):
        """Edited pose vectors at the target pairs (p, f) of problems i."""
        p, f = np.nonzero(aimed[i])
        th = theta0[i[p], f]
        th[np.arange(len(p))[:, None], cols[i[p]]] += (
            E[i[p]] @ x[p, f, :, None])[..., 0]
        return p, f, th

    def objective(i, x):
        p, f, th = poses(i, x)
        pos, _ = forward_kinematics(types.SimpleNamespace(
            bone_offsets=skeletons.bone_offsets[hands[i[p]]]), th)
        r = pos[np.arange(len(p)), tips[i[p]]] - goal[i[p], f]
        d = x[:, 1:] - x[:, :-1]
        return (np.bincount(p, weights=weight[f] * np.sum(r * r, axis=1),
                            minlength=len(i))
                + c * np.sum(d * d, axis=(1, 2)))

    def normal_equations(i, x):
        p, f, th = poses(i, x)
        A = np.zeros(x.shape + (6,))
        g = c * degree[:, None] * x
        g[:, 1:] -= c * x[:, :-1]
        g[:, :-1] -= c * x[:, 1:]
        for s in range(0, len(p), _POSE_BLOCK):
            b = slice(s, s + _POSE_BLOCK)
            q, k = i[p[b]], np.arange(len(p[b]))
            pos, J = fk_jacobian(types.SimpleNamespace(
                bone_offsets=skeletons.bone_offsets[hands[q]]), th[b])
            Jt = np.take_along_axis(J[k, tips[q]], cols[q, None],
                                    axis=2) @ E[q]
            JtW = weight[f[b], None, None] * np.swapaxes(Jt, 1, 2)
            A[p[b], f[b]] = JtW @ Jt
            g[p[b], f[b]] += (JtW @ (pos[k, tips[q]]
                                     - goal[q, f[b]])[..., None])[..., 0]
        return A + c * degree[:, None, None] * np.eye(6), g

    def solve(i, system, damping):
        A, g = system
        step, singular = block_tridiagonal_solve(
            A + damping[:, None, None, None] * np.eye(6), lower[i], upper[i],
            g[..., None])
        return step[..., 0], singular

    x, iters, stops, curve = levenberg_marquardt(
        np.zeros((P, n, 6)), objective, normal_equations, solve,
        problem.epochs)
    iterations[hands, fingers] = iters
    stop[hands, fingers] = stops

    out = clip.copy()
    p, f = np.nonzero(np.any(x != 0.0, axis=-1))
    rows = (theta0[p[:, None], f[:, None], cols[p]]
            + (E[p] @ x[p, f, :, None])[..., 0]).reshape(-1, 3, 3)
    out.joint_rotations[frames[f, None], hands[p, None],
                        3 * fingers[p, None] + np.arange(3)] = rows

    moved = np.linalg.norm(clip_fingertips(out, skeletons) - pre_tips, axis=2)
    worst = float(moved[targets.mask].max())
    if worst > DISPLACEMENT_ASSERT:
        raise RuntimeError(
            "an IK subject fingertip moved %.4f m, over the %.3f m budget"
            % (worst, DISPLACEMENT_ASSERT))
    return RefineResult(out, curve, curve[0], curve[-1], targets.n_valid,
                        targets.n_invalidated, iterations, stop)


def _anchor_consistent_presses(targets: IkTargets, clip: MotionClip,
                               skeletons: SkeletonPair,
                               geom: KeyboardGeometry, midi: KeyMatrix,
                               activation_depth: float) -> IkTargets:
    """Pin fingertips that already press a key the score asks for.

    The smoothness term couples every frame to its neighbors, so frames
    next to a repair can get dragged across the activation boundary and
    lose a press that was correct.  Each fingertip currently pressing a
    required key is given a target at its own position, which holds the
    press in place while the error frames move.
    """
    tips = clip_fingertips(clip, skeletons)
    keys, depths = kb.locate_keys(geom, tips)
    # Off the keys the depth is -inf, so key index -1 there never counts.
    hold = (~targets.mask & (depths >= activation_depth)
            & (midi.data[np.arange(clip.n_frames)[:, None], keys - 1] == 1))
    tgts = targets.targets.copy()
    tgts[hold] = tips[hold]
    return IkTargets(tgts, targets.mask | hold, targets.errors)


def refine_to_midi(clip: MotionClip, skeletons: SkeletonPair,
                   geom: KeyboardGeometry, midi: KeyMatrix,
                   activation_depth: float = kb.DEFAULT_ACTIVATION_DEPTH,
                   smoothness: float = DEFAULT_SMOOTHNESS,
                   epochs: int = DEFAULT_EPOCHS,
                   exit_clearance: float = DEFAULT_EXIT_CLEARANCE,
                   press_margin: float = DEFAULT_PRESS_MARGIN,
                   max_displacement: float = DEFAULT_MAX_DISPLACEMENT):
    """Detect press errors, build targets, refine, and re-check.

    Correct presses are anchored at their current positions whenever there
    is something to repair, so the smoothness coupling cannot undo them.
    Returns (RefineResult, errors_before, errors_after) where the error
    lists come from detection on the input and refined clips.
    """
    errors = detect_press_errors(clip, skeletons, geom, midi, activation_depth)
    targets = ik_targets(errors, clip, skeletons, geom, activation_depth,
                         exit_clearance, press_margin, max_displacement)
    if targets.n_valid:
        targets = _anchor_consistent_presses(targets, clip, skeletons, geom,
                                             midi, activation_depth)
    problem = IkProblem(clip, targets, smoothness, epochs)
    result = refine(problem, skeletons)
    errors_after = detect_press_errors(result.clip, skeletons, geom, midi,
                                       activation_depth)
    return result, errors, errors_after
