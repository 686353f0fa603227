"""Score-driven motion refinement: make a clip's key presses match its MIDI.

Per frame, the keys pressed by the clip's fingertips are compared with the
reference key matrix.  Keys pressed but silent in the score are "wrong
presses": the deepest offending fingertip is targeted straight up to just
above the key's rest surface.  Score keys no fingertip presses are
"omitted": the fingertip closest to its projection onto the key surface is
targeted onto the key at activation depth.  Targets demanding more than
1 cm of fingertip travel are discarded.  The surviving targets drive one
whole-clip optimization over joint rotations and wrist orientations (root
translations stay fixed) with a smoothness term tying consecutive frames
together.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import keyboard as kb
from .hand import (HandPose, MotionClip, PARAMS_PER_HAND, SkeletonPair,
                   TIP_JOINTS, clip_fingertips, clip_vectors, fk_jacobian)
from .keyboard import KeyboardGeometry
from .midi import KeyMatrix

DEFAULT_SMOOTHNESS = 0.0005
DEFAULT_EPOCHS = 100
DEFAULT_MAX_DISPLACEMENT = 0.01    # m; targets farther than this are dropped
DISPLACEMENT_ASSERT = 0.012        # m; optimizer slack over the 1 cm budget
DEFAULT_EXIT_CLEARANCE = 0.001     # m above rest surface for wrong presses
DEFAULT_PRESS_MARGIN = 0.001       # m beyond activation depth for omissions

WRONG_PRESS = "wrong_press"
OMITTED = "omitted"

# Columns of the per-frame 102-dim two-hand parameter vector that stay
# frozen during refinement: both root translations.
_FROZEN_COLS = np.array([0, 1, 2, 51, 52, 53])
_FREE_COLS = np.setdiff1d(np.arange(2 * PARAMS_PER_HAND), _FROZEN_COLS)


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
    tips = clip_fingertips(clip, skeletons)
    errors = []
    for f in range(clip.n_frames):
        pressed = kb.extract_pressed(geom, tips[f], activation_depth)
        scored = midi.keys_at(f)
        for key in sorted(pressed - scored):
            errors.append(PressError(f, key, WRONG_PRESS))
        for key in sorted(scored - pressed):
            errors.append(PressError(f, key, OMITTED))
    return errors


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
                best_i = None
                best_depth = -np.inf
                for i in range(10):
                    local = geom.to_local(tips[f, i])
                    if kb.key_for_point(geom, tips[f, i]) != e.key:
                        continue
                    depth = geom.rest_heights[e.key - 1] - local[2]
                    if depth > best_depth:
                        best_depth = depth
                        best_i = i
                if best_i is None:
                    # The offending fingertip moved out from over the key
                    # (possible only if extraction and targeting disagree);
                    # nothing to aim.
                    e.valid = False
                    continue
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
    loss_curve: list               # objective value per optimizer epoch
    initial_loss: float
    final_loss: float
    n_targets: int
    n_invalidated: int

    def report_obj(self) -> dict:
        return {
            "initial_loss": self.initial_loss,
            "final_loss": self.final_loss,
            "n_targets": self.n_targets,
            "n_invalidated": self.n_invalidated,
            "epochs_run": max(0, len(self.loss_curve) - 1),
            "loss_curve": self.loss_curve,
        }


def refine(problem: IkProblem, skeletons: SkeletonPair) -> RefineResult:
    """Solve the whole-clip refinement and return the edited clip.

    Minimizes mean masked fingertip-to-target squared distance plus
    smoothness * mean squared parameter change between consecutive frames,
    over all joint rotations and wrist orientations at once.  With zero
    smoothness only frames holding targets enter the optimization, so
    untouched frames come back bit-identical.
    """
    # Imported here: scipy.optimize alone takes most of the package's
    # import time.
    import scipy.optimize

    clip = problem.clip
    N = clip.n_frames
    mask = problem.targets.mask
    tgts = problem.targets.targets
    lam = problem.smoothness

    if problem.targets.n_valid == 0:
        return RefineResult(clip.copy(), [], 0.0, 0.0, 0,
                            problem.targets.n_invalidated)

    theta0 = clip_vectors(clip).reshape(N, 2 * PARAMS_PER_HAND)
    target_frames = np.nonzero(mask.any(axis=1))[0]
    target_mask = mask[target_frames]
    n_targets = target_mask.sum(axis=1)
    opt_frames = np.arange(N) if lam > 0.0 else target_frames
    frame_pos = {int(f): i for i, f in enumerate(opt_frames)}
    n_opt = len(opt_frames)
    n_free = len(_FREE_COLS)

    pre_tips = clip_fingertips(clip, skeletons)

    def unpack(x):
        theta = theta0.copy()
        theta[opt_frames[:, None], _FREE_COLS[None, :]] = \
            x.reshape(n_opt, n_free)
        return theta

    def loss_and_grad(x):
        theta = unpack(x)
        grad_theta = np.zeros_like(theta)
        p, J = fk_jacobian(skeletons, theta[target_frames].reshape(
            -1, 2, PARAMS_PER_HAND))
        resid = p[:, :, TIP_JOINTS].reshape(-1, 10, 3) - tgts[target_frames]
        resid[~target_mask] = 0.0
        # Per-frame losses, accumulated in frame order.
        ik_sum = 0.0
        for loss in np.sum(resid.reshape(-1, 30) ** 2, axis=1) / n_targets:
            ik_sum += float(loss)
        g = np.einsum("fhik,fhikc->fhc", resid.reshape(-1, 2, 5, 3),
                      J[:, :, TIP_JOINTS])
        grad_theta[target_frames] += ((2.0 / n_targets)[:, None, None]
                                      * g).reshape(-1, 2 * PARAMS_PER_HAND)
        total = ik_sum / N
        if lam > 0.0 and N > 1:
            diff = theta[:-1] - theta[1:]
            total += lam * float(np.sum(diff ** 2)) / (N - 1)
            coeff = 2.0 * lam / (N - 1)
            grad_theta[:-1] += coeff * diff
            grad_theta[1:] -= coeff * diff
        g = grad_theta[opt_frames[:, None], _FREE_COLS[None, :]].reshape(-1)
        if not np.isfinite(total):
            raise FloatingPointError("refinement loss became non-finite")
        return total, g

    x0 = theta0[opt_frames[:, None], _FREE_COLS[None, :]].reshape(-1)
    f0, _ = loss_and_grad(x0)
    curve = [f0]

    def on_epoch(intermediate_result):
        curve.append(float(intermediate_result.fun))

    res = scipy.optimize.minimize(
        loss_and_grad, x0, jac=True, method="L-BFGS-B", callback=on_epoch,
        options={"maxiter": problem.epochs, "gtol": 1e-8, "ftol": 0.0})
    x_best = res.x if res.fun <= f0 else x0
    final_loss = min(float(res.fun), f0)

    theta = unpack(x_best)
    frames = []
    for f in range(N):
        if f in frame_pos and not np.array_equal(theta[f], theta0[f]):
            frames.append((HandPose.from_vector(theta[f, :PARAMS_PER_HAND]),
                           HandPose.from_vector(theta[f, PARAMS_PER_HAND:])))
        else:
            l, r = clip.frames[f]
            frames.append((l.copy(), r.copy()))
    out = MotionClip(clip.fps, frames)

    post_tips = clip_fingertips(out, skeletons)
    moved = np.linalg.norm(post_tips - pre_tips, axis=2)
    worst = float(moved[mask].max()) if mask.any() else 0.0
    if worst > DISPLACEMENT_ASSERT:
        raise RuntimeError(
            "an IK subject fingertip moved %.4f m, over the %.3f m budget"
            % (worst, DISPLACEMENT_ASSERT))
    return RefineResult(out, curve, f0, final_loss,
                        problem.targets.n_valid,
                        problem.targets.n_invalidated)


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
    tgts = targets.targets.copy()
    mask = targets.mask.copy()
    for f in range(clip.n_frames):
        required = midi.keys_at(f)
        if not required:
            continue
        for t in range(10):
            if mask[f, t]:
                continue
            if kb.extract_pressed(geom, tips[f, t], activation_depth) & required:
                tgts[f, t] = tips[f, t]
                mask[f, t] = True
    return IkTargets(tgts, mask, targets.errors)


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
