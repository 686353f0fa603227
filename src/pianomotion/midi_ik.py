"""Score-driven motion refinement: make a clip's key presses match its MIDI.

Press errors are two (F, 88) masks over frames and keys.  A wrong press
is a key that some fingertip holds at activation depth while the score
leaves it silent: the deepest fingertip on it is targeted straight up to
just above the key's rest surface.  An omission is a score key that no
fingertip holds: the fingertip closest to its projection onto the key
surface is targeted onto the key at activation depth.  Within a frame,
wrong presses come first, and each omission, in key order, takes the
nearest fingertip still free; the r-th omission of every frame is placed
at once, so targeting loops once per omission rank, not once per error.
Targets demanding more than 1 cm of fingertip travel are discarded.  The
surviving targets drive one damped least-squares solve that edits only
the joint rotations of the fingers holding a target; both wrists and
every other finger keep their input values bit for bit.  A smoothness
term ties each frame's edit to its neighbours' edits.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import keyboard as kb
from .hand import (LEVELS, MotionClip, NUM_FINGERS, SkeletonPair, chain_tips,
                   clip_fingertips, clip_kinematics, tip_jacobian,
                   twist_free_basis)
from .keyboard import KeyboardGeometry
from .lsq import block_tridiagonal_solve, levenberg_marquardt
from .midi import KeyMatrix

DEFAULT_SMOOTHNESS = 0.00005
DEFAULT_EPOCHS = 100
DEFAULT_MAX_DISPLACEMENT = 0.01    # m; targets farther than this are dropped
DISPLACEMENT_ASSERT = 0.012        # m; optimizer slack over the 1 cm budget
DEFAULT_EXIT_CLEARANCE = 0.001     # m above rest surface for wrong presses
DEFAULT_PRESS_MARGIN = 0.001       # m beyond activation depth for omissions


def detect_press_errors(geom: KeyboardGeometry, keys: np.ndarray,
                        depths: np.ndarray, midi: KeyMatrix,
                        activation_depth: float = kb.DEFAULT_ACTIVATION_DEPTH):
    """Wrong and omitted presses of a clip against its score, as two
    (F, 88) masks.

    keys and depths (F, 10) are the clip's fingertips located by
    `keyboard.locate_keys`.
    """
    pressed = kb.located_presses(geom, keys, depths, activation_depth)
    scored = midi.data.astype(bool)
    return pressed & ~scored, scored & ~pressed


def _pressable_points(geom: KeyboardGeometry, keys: np.ndarray,
                     local: np.ndarray, depth_below_rest: float) -> np.ndarray:
    """Closest points to local points (n, m, 3) on the pressable footprints
    of keys (n,) in 0..87, in local coordinates (n, m, 3).

    The z coordinate is the key's rest height minus depth_below_rest.  For
    white keys the rear section excludes the strips covered by neighboring
    black keys, so a press there cannot land on the wrong key; a hair of
    margin keeps the point off shared footprint boundaries.  Clamps keep
    the local coordinate unless a bound passes it strictly, and the rear
    point wins only when strictly nearer, so exact ties go to the front.
    """
    eps = 1e-6
    x0, x1, y0, y1 = geom.boxes[keys].T[..., None]
    ex0, ex1 = geom.exposed[keys].T[..., None]
    black = geom._black[keys, None]
    blen = geom.config.black_key_length
    tx, ty = local[..., 0], local[..., 1]

    def clamp(v, lo, hi):
        v = np.where(lo + eps > v, lo + eps, v)
        return np.where(hi - eps < v, hi - eps, v)

    fx, fy = clamp(tx, x0, x1), clamp(ty, np.where(black, y0, blen), y1)
    bx, by = clamp(tx, ex0, ex1), clamp(ty, y0, blen)
    rear = (~black & (ex1 - ex0 > 2 * eps)
            & (np.hypot(bx - tx, by - ty) < np.hypot(fx - tx, fy - ty)))
    z = geom.rest_heights[keys, None] - depth_below_rest
    return np.stack([np.where(rear, bx, fx), np.where(rear, by, fy),
                     np.broadcast_to(z, tx.shape)], axis=-1)


@dataclasses.dataclass(eq=False)
class IkTargets:
    """Per-frame fingertip targets assembled from press errors.

    targets is (F, 10, 3) world coordinates, NaN where mask (F, 10) is
    False; mask is True where a fingertip has a live target.  n_invalidated
    counts the press errors left without one: no subject, or a target
    beyond the displacement budget.  tips (F, 10, 3) are the fingertips
    the targets were aimed from, which `refine` takes as its clip's.
    """

    targets: np.ndarray
    mask: np.ndarray
    n_invalidated: int
    tips: np.ndarray

    @property
    def n_valid(self) -> int:
        return int(self.mask.sum())


def ik_targets(wrong: np.ndarray, omitted: np.ndarray, tips: np.ndarray,
               keys: np.ndarray, depths: np.ndarray, geom: KeyboardGeometry,
               activation_depth: float = kb.DEFAULT_ACTIVATION_DEPTH,
               exit_clearance: float = DEFAULT_EXIT_CLEARANCE,
               press_margin: float = DEFAULT_PRESS_MARGIN,
               max_displacement: float = DEFAULT_MAX_DISPLACEMENT) -> IkTargets:
    """Choose an IK subject fingertip and a 3D target for every press error.

    wrong and omitted are `detect_press_errors`' (F, 88) masks; tips
    (F, 10, 3) are the clip's finite fingertips, and keys and depths
    (F, 10) locate them.  Wrong presses are resolved first: the first
    deepest fingertip on the key, sent straight up to the rest surface plus
    clearance.  Omissions then go by key, each to the nearest fingertip
    not yet holding a target (the lower on a tie), pushed onto the key to
    activation depth plus a small margin so the press registers cleanly.
    Targets farther than max_displacement from the fingertip are dropped,
    and their fingertip stays free.
    """
    targets = np.full(tips.shape, np.nan)
    mask = np.zeros(tips.shape[:2], dtype=bool)

    def aim(f, i, goal):
        """Set the targets goal (n, 3) of fingertips i of frames f that lie
        within max_displacement; return how many did."""
        d = tips[f, i] - goal
        ok = np.sqrt(np.vecdot(d, d)) <= max_displacement
        targets[f[ok], i[ok]] = goal[ok]
        mask[f[ok], i[ok]] = True
        return int(ok.sum())

    f, k = np.nonzero(wrong)
    on = keys[f] == k[:, None] + 1
    i = np.argmax(np.where(on, depths[f], -np.inf), axis=1)
    has = on.any(axis=1)
    f, k, i = f[has], k[has], i[has]
    local = geom.to_local(tips[f, i])
    local[:, 2] = geom.rest_heights[k] + exit_clearance
    placed = aim(f, i, geom.to_world(local))

    f, k = np.nonzero(omitted)
    local = geom.to_local(tips[f])
    goal = _pressable_points(geom, k, local, activation_depth + press_margin)
    d = local - goal
    # sqrt(vecdot) is a 1-D np.linalg.norm's own arithmetic, to the bit.
    dist = np.sqrt(np.vecdot(d, d))                   # (n, 10)
    goal = geom.to_world(goal)
    # The rank of each omission among its frame's, which come in key order.
    rank = np.arange(len(f)) - np.searchsorted(f, f)
    for r in range(rank.max() + 1 if len(f) else 0):
        j = np.flatnonzero(rank == r)
        free = np.where(mask[f[j]], np.inf, dist[j])
        some = free.min(axis=1) < np.inf               # else all ten are taken
        j, i = j[some], np.argmin(free[some], axis=1)
        placed += aim(f[j], i, goal[j, i])
    n_errors = int(np.count_nonzero(wrong) + np.count_nonzero(omitted))
    return IkTargets(targets, mask, n_errors - placed, tips)


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
    tips: np.ndarray               # (F, 10, 3) fingertips of the refined clip

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
    `levenberg_marquardt` batch of at most `epochs` iterations.  A problem
    reads one fingertip, so its objective and 3x6 Jacobian walk only the
    finger's chain (`hand.chain_tips`, `hand.tip_jacobian`) from its base,
    the wrist rotation and MCP position that one FK of the input clip
    gives and no edit moves.  With zero smoothness only frames holding
    targets enter, and other frames come back bit-identical.  The clip's
    fingertips are taken from the targets (`IkTargets.tips`), and the
    result carries the refined clip's.
    """
    clip = problem.clip
    N = clip.n_frames
    targets = problem.targets
    mask = targets.mask.reshape(N, 2, NUM_FINGERS)
    goal = targets.targets.reshape(N, 2, NUM_FINGERS, 3)
    missed = mask & np.any(targets.tips.reshape(goal.shape) != goal, axis=-1)
    hands, fingers = np.nonzero(missed.any(axis=0))
    iterations = np.zeros((2, NUM_FINGERS), dtype=np.int64)
    stop = np.full((2, NUM_FINGERS), None, dtype=object)
    if not len(hands):
        return RefineResult(clip.copy(), [], 0.0, 0.0, targets.n_valid,
                            targets.n_invalidated, iterations, stop,
                            targets.tips)

    # Problem p edits finger fingers[p] of hand hands[p] on frames[f] by
    # x[p, f] (6 twist-free coordinates); it has a target where aimed[p, f].
    aimed = mask[:, hands, fingers].T
    frames = (np.arange(N) if problem.smoothness > 0.0
              else np.flatnonzero(aimed.any(axis=0)))
    aimed = aimed[:, frames]
    goal = goal[frames][:, hands, fingers].swapaxes(0, 1)
    # Problem p's finger joints (P, 3), their input rotation vectors
    # (P, n, 3, 3) and the planes (P, 3, 3, 2) that x[p, f] moves them
    # along.  No edit moves a chain's base, the wrist rotation and the MCP
    # position, nor its bone offsets (P, 3, 3): the PIP, DIP and tip's.
    chain = 3 * fingers[:, None] + np.arange(3)
    theta0 = clip.joint_rotations[frames][:, hands[:, None], chain]
    theta0 = theta0.swapaxes(0, 1)
    offsets = skeletons.bone_offsets
    E = twist_free_basis(offsets)[hands[:, None], chain]
    bones = offsets[hands[:, None], LEVELS[1:, fingers].T]
    pos, G = clip_kinematics(clip, skeletons, frames)
    base_p = pos[:, hands, LEVELS[0, fingers]].swapaxes(0, 1)
    base_G = G[:, hands, 0].swapaxes(0, 1)
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

    def chains(i, x):
        """The target pairs (p, f) of problems i, their problems q, and the
        edited chains' rotation vectors (len(p), 3, 3) there."""
        p, f = np.nonzero(aimed[i])
        q = i[p]
        return p, f, q, (theta0[q, f]
                         + (E[q] @ x[p, f].reshape(-1, 3, 2, 1))[..., 0])

    def objective(i, x):
        p, f, q, w = chains(i, x)
        r = chain_tips(base_p[q, f], base_G[q, f], bones[q], w) - goal[q, f]
        d = x[:, 1:] - x[:, :-1]
        return (np.bincount(p, weights=weight[f] * np.sum(r * r, axis=1),
                            minlength=len(i))
                + c * np.sum(d * d, axis=(1, 2)))

    def normal_equations(i, x):
        p, f, q, w = chains(i, x)
        tip, J = tip_jacobian(base_p[q, f], base_G[q, f], bones[q], E[q], w)
        JtW = weight[f, None, None] * np.swapaxes(J, 1, 2)
        A = np.zeros(x.shape + (6,))
        A[p, f] = JtW @ J
        g = c * degree[:, None] * x
        g[:, 1:] -= c * x[:, :-1]
        g[:, :-1] -= c * x[:, 1:]
        g[p, f] += (JtW @ (tip - goal[q, f])[..., None])[..., 0]
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
    out.joint_rotations[frames[f, None], hands[p, None], chain[p]] = (
        theta0[p, f] + (E[p] @ x[p, f].reshape(-1, 3, 2, 1))[..., 0])

    out_tips = clip_fingertips(out, skeletons)
    moved = np.linalg.norm(out_tips - targets.tips, axis=2)
    worst = float(moved[targets.mask].max())
    if worst > DISPLACEMENT_ASSERT:
        raise RuntimeError(
            "an IK subject fingertip moved %.4f m, over the %.3f m budget"
            % (worst, DISPLACEMENT_ASSERT))
    return RefineResult(out, curve, curve[0], curve[-1], targets.n_valid,
                        targets.n_invalidated, iterations, stop, out_tips)


def _anchor_consistent_presses(targets: IkTargets, tips: np.ndarray,
                               keys: np.ndarray, depths: np.ndarray,
                               midi: KeyMatrix,
                               activation_depth: float) -> IkTargets:
    """Pin fingertips that already press a key the score asks for.

    The smoothness term couples every frame to its neighbors, so frames
    next to a repair can get dragged across the activation boundary and
    lose a press that was correct.  Each fingertip currently pressing a
    required key is given a target at its own position, which holds the
    press in place while the error frames move.
    """
    # Off the keys the depth is -inf, so key index -1 there never counts.
    hold = (~targets.mask & (depths >= activation_depth)
            & (midi.data[np.arange(len(keys))[:, None], keys - 1] == 1))
    tgts = targets.targets.copy()
    tgts[hold] = tips[hold]
    return IkTargets(tgts, targets.mask | hold, targets.n_invalidated, tips)


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
    Returns (RefineResult, errors_before, errors_after), where each errors
    value is the (wrong, omitted) masks of `detect_press_errors` on the
    input and the refined clip.
    """
    midi.check_clip(clip)
    tips = clip_fingertips(clip, skeletons)
    keys, depths = kb.locate_keys(geom, tips)
    before = detect_press_errors(geom, keys, depths, midi, activation_depth)
    targets = ik_targets(*before, tips, keys, depths, geom, activation_depth,
                         exit_clearance, press_margin, max_displacement)
    if targets.n_valid:
        targets = _anchor_consistent_presses(targets, tips, keys, depths,
                                             midi, activation_depth)
    result = refine(IkProblem(clip, targets, smoothness, epochs), skeletons)
    after = detect_press_errors(geom, *kb.locate_keys(geom, result.tips),
                                midi, activation_depth)
    return result, before, after
