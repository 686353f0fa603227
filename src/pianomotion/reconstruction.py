"""Multi-view keypoint reconstruction and skeleton fitting.

Pipeline: per-joint closed-form linear triangulation with RANSAC view
rejection, linear interpolation across short invalid gaps, zero-phase
low-pass smoothing of the joint tracks by a Whittaker smoother (Whittaker
1923; Eilers, "A perfect smoother", Anal. Chem. 75(14), 2003) solved as
one block-tridiagonal system, then a batched, twist-pinned fit of the
articulated hand skeleton to the 3D joints of every hand-frame by damped
least-squares (Levenberg-Marquardt) minimization of the mean squared
error.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json

import numpy as np

from .hand import (LEVELS, NUM_FINGERS, PARAMS_PER_HAND, PARENTS,
                   MotionClip, SkeletonPair, clip_from_vectors, clip_vectors,
                   _atan2, _cross, _left_jacobian_times, chain_jacobian,
                   forward_kinematics, json_array, matrix_to_rotvec,
                   twist_free_basis, twist_free_step, vector_pose)
from .lsq import block_tridiagonal_solve, levenberg_marquardt, solve_stacked

DEFAULT_IMAGE_SIZE = (3840, 2160)
DEFAULT_REPROJ_THRESHOLD = 8.0     # px
DEFAULT_RANSAC_ITERS = 20
DEFAULT_MAX_GAP = 5                # frames
DEFAULT_CUTOFF_HZ = 10.0
DEFAULT_FILTER_ORDER = 4
DEFAULT_FIT_ITERS = 200
MAX_COORDINATE = 1e100             # m; bound on trajectory coordinates

# The largest accepted condition number, about lam * 4^order, of the track
# smoother's normal matrix; its solves' error grows in step with it.
_MAX_CONDITION = 1e11

# JSON values a validity mask may hold: booleans, or 0/1 as written by
# `to_json` (read as floats).
_FLAGS = (bool, float)
# The index columns of a keypoint CSV row and their exclusive bounds.
_CSV_BOUNDS = {"frame": np.inf, "view": np.inf, "hand": 2, "joint": 21}

# Points per batched RANSAC call in `triangulate_observations`.  It bounds
# the stacked pair and reprojection arrays without changing results: each
# point spans all of the rig's view pairs, and every sum over views runs
# view by view, so no point's bits depend on its block.
_POINT_BLOCK = 2048

# Row and column of each upper-triangle entry of a symmetric 3x3 matrix.
_UPPER_I = np.array([0, 0, 0, 1, 1, 2])
_UPPER_J = np.array([0, 1, 2, 1, 2, 2])

# Hand-frames per batched LM block in `fit_skeleton`.  It bounds the
# stacked Jacobians without changing results.
_POSE_BLOCK = 256


def _image_size(obj: dict) -> tuple:
    """The (width, height) a camera or keypoint file gives, or the default."""
    if "image_size" not in obj:
        return DEFAULT_IMAGE_SIZE
    return tuple(json_array(obj["image_size"], "image_size", (2,)).tolist())


@dataclasses.dataclass(eq=False)
class CameraRig:
    """Calibrated cameras as 3x4 world-to-pixel projection matrices."""

    projections: np.ndarray            # (n_views, 3, 4)
    image_size: tuple = DEFAULT_IMAGE_SIZE

    def __post_init__(self) -> None:
        self.projections = np.asarray(self.projections, dtype=np.float64)
        if (self.projections.ndim != 3
                or self.projections.shape[1:] != (3, 4)):
            raise ValueError("projections must have shape (n, 3, 4)")
        if self.n_views < 2:
            raise ValueError("a rig needs at least 2 cameras")
        for i, P in enumerate(self.projections):
            if not np.isfinite(P).all():
                raise ValueError("camera %d projection must be finite" % i)
            if np.linalg.matrix_rank(P) != 3:
                raise ValueError("camera %d projection is rank-deficient" % i)
        w, h = self.image_size
        if w <= 0 or h <= 0:
            raise ValueError("image size must be positive")

    @property
    def n_views(self) -> int:
        return self.projections.shape[0]

    def project(self, view: int, point) -> np.ndarray:
        """Pixel coordinates of a world point in one view."""
        ph = self.projections[view] @ np.append(np.asarray(point), 1.0)
        return ph[:2] / ph[2]

    def to_json(self) -> str:
        obj = {
            "image_size": [int(self.image_size[0]), int(self.image_size[1])],
            "cameras": [{"P": [[float(v) for v in row] for row in P]}
                        for P in self.projections],
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CameraRig":
        # Integers parse as floats, so one too large for a float reads inf.
        obj = json.loads(text, parse_int=float)
        if not isinstance(obj, dict):
            raise ValueError("a camera rig must be a JSON object")
        mats = []
        for i, cam in enumerate(obj["cameras"]):
            P = json_array(cam["P"], "camera %d: P" % i, (3, 4))
            if "K" in cam or "R" in cam or "t" in cam:
                K = json_array(cam["K"], "camera %d: K" % i, (3, 3))
                R = json_array(cam["R"], "camera %d: R" % i, (3, 3))
                t = json_array(cam["t"], "camera %d: t" % i, (3,))
                composed = K @ np.hstack([R, t[:, None]])
                if not np.allclose(composed, P, atol=1e-6):
                    raise ValueError(
                        "camera %d: K[R|t] disagrees with P beyond 1e-6" % i)
            mats.append(P)
        return cls(np.stack(mats), _image_size(obj))


@dataclasses.dataclass(eq=False)
class KeypointObservations:
    """2D hand keypoints per frame, view, hand and joint.

    uv is (frames, views, 2, 21, 2) pixels, conf (frames, views, 2, 21) in
    [0, 1], valid a boolean mask of the same shape.  Pixel coordinates must
    be finite and inside the image bounds wherever valid.
    """

    uv: np.ndarray
    conf: np.ndarray
    valid: np.ndarray
    image_size: tuple = DEFAULT_IMAGE_SIZE

    def __post_init__(self) -> None:
        self.uv = np.asarray(self.uv, dtype=np.float64)
        self.conf = np.asarray(self.conf, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.uv.ndim != 5 or self.uv.shape[2:] != (2, 21, 2):
            raise ValueError("uv must have shape (F, V, 2, 21, 2)")
        if self.conf.shape != self.uv.shape[:4]:
            raise ValueError("conf must have shape (F, V, 2, 21)")
        if self.valid.shape != self.conf.shape:
            raise ValueError("valid must have shape (F, V, 2, 21)")
        if not np.all((self.conf >= 0) & (self.conf <= 1)):
            raise ValueError("confidences must be finite and lie in [0, 1]")
        if not np.all(np.isfinite(self.uv[self.valid])):
            raise ValueError("valid keypoints must be finite")
        w, h = self.image_size
        u = self.uv[..., 0][self.valid]
        v = self.uv[..., 1][self.valid]
        if u.size and (u.min() < 0 or u.max() > w or v.min() < 0 or v.max() > h):
            raise ValueError("valid keypoints must lie inside the image bounds")

    @property
    def n_frames(self) -> int:
        return self.uv.shape[0]

    @property
    def n_views(self) -> int:
        return self.uv.shape[1]

    def to_json(self) -> str:
        obj = {
            "image_size": [int(self.image_size[0]), int(self.image_size[1])],
            "uv": self.uv.tolist(),
            "conf": self.conf.tolist(),
            "valid": self.valid.astype(int).tolist(),
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "KeypointObservations":
        # Integers parse as floats, so one too large for a float reads inf.
        obj = json.loads(text, parse_int=float)
        if not isinstance(obj, dict):
            raise ValueError("keypoints must be a JSON object")
        return cls(json_array(obj["uv"], "uv", (None, None, 2, 21, 2)),
                   json_array(obj["conf"], "conf", (None, None, 2, 21)),
                   json_array(obj["valid"], "valid", (None, None, 2, 21),
                              _FLAGS, bool),
                   _image_size(obj))

    @classmethod
    def from_csv(cls, text: str,
                 image_size: tuple = DEFAULT_IMAGE_SIZE) -> "KeypointObservations":
        """Parse rows of frame,view,hand,joint,u,v,conf,valid.

        Any (frame, view, hand, joint) cell without a row is invalid.
        """
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            raise ValueError("no keypoint rows")
        cells = []
        for n, r in enumerate(rows, 1):
            cells.append(tuple(int(r[name]) for name in _CSV_BOUNDS))
            for (name, size), i in zip(_CSV_BOUNDS.items(), cells[-1]):
                if not 0 <= i < size:
                    raise ValueError("keypoint row %d: %s %d is not in [0, %s)"
                                     % (n, name, i, size))
        shape = tuple(max(c[k] for c in cells) + 1 for k in (0, 1)) + (2, 21)
        try:
            uv, conf = np.zeros(shape + (2,)), np.zeros(shape)
            valid = np.zeros(shape, dtype=bool)
        except (ValueError, MemoryError):   # past numpy's index range, or RAM
            raise ValueError("%d frames of %d views are too many keypoints to "
                             "hold in memory" % shape[:2]) from None
        for (f, v, h, j), r in zip(cells, rows):
            uv[f, v, h, j] = (float(r["u"]), float(r["v"]))
            conf[f, v, h, j] = float(r["conf"])
            valid[f, v, h, j] = bool(int(r["valid"]))
        return cls(uv, conf, valid, image_size)


@dataclasses.dataclass(eq=False)
class JointTrajectory:
    """3D joint tracks: positions (F, 2, 21, 3) meters plus a validity mask."""

    fps: float
    positions: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        if not (0.0 < self.fps < np.inf):
            raise ValueError("fps must be positive and finite")
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.positions.ndim != 4 or self.positions.shape[1:] != (2, 21, 3):
            raise ValueError("positions must have shape (F, 2, 21, 3)")
        if self.valid.shape != self.positions.shape[:3]:
            raise ValueError("valid must have shape (F, 2, 21)")
        # The fit squares distances, which overflow long before float range.
        if not np.all(np.abs(self.positions[self.valid]) < MAX_COORDINATE):
            raise ValueError("valid samples must be finite and under %g m "
                             "in magnitude" % MAX_COORDINATE)

    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]

    def to_json(self) -> str:
        pos = np.where(self.valid[..., None], self.positions, 0.0)
        obj = {
            "fps": self.fps,
            "positions": pos.tolist(),
            "valid": self.valid.astype(int).tolist(),
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "JointTrajectory":
        # Integers parse as floats, so one too large for a float reads inf.
        obj = json.loads(text, parse_int=float)
        if not isinstance(obj, dict):
            raise ValueError("a joint trajectory must be a JSON object")
        if type(obj["fps"]) is not float:
            raise ValueError("fps must be a number")
        return cls(obj["fps"],
                   json_array(obj["positions"], "positions", (None, 2, 21, 3)),
                   json_array(obj["valid"], "valid", (None, 2, 21), _FLAGS,
                              bool))


def _view_sum(a, axis=-1):
    """Sum over the view axis, view by view in order: adding a zero is
    exact, so a point's bits follow neither its zero-weight views nor its
    batch."""
    return functools.reduce(np.add, np.moveaxis(a, axis, 0))


def _linear_points(uv, projections, weights):
    """Weighted linear least-squares triangulation in closed form.

    uv (..., n, 2), projections (..., n, 3, 4), weights (..., n).  Each view
    adds its weight times its DLT rows' share (rows u P[2] - P[0] and
    v P[2] - P[1]) to the 3x3 normal equations of the inhomogeneous least
    squares A[:, :3] X = -A[:, 3], which Cramer's rule solves (Hartley and
    Sturm 1997, "Linear-LS"); a view of zero weight adds nothing, whatever
    its pixels.  Returns the points (..., 3) and the degenerate flags
    (...): NaN points where the normal matrix is singular to working
    precision (fewer than two weighted views, parallel or coincident rays),
    or the point is not finite or lies beyond 1e12.
    """
    A = uv[..., None] * projections[..., 2:3, :] - projections[..., :2, :]
    a, c = A[..., :3], A[..., 3:]            # (..., n, 2, 3), (..., n, 2, 1)
    w = weights[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Each view's share of the normal matrix (its upper triangle m00,
        # m01, m02, m11, m12, m22) and of the right-hand side.
        m = np.where(w != 0, w * (a[..., 0, _UPPER_I] * a[..., 0, _UPPER_J]
                                  + a[..., 1, _UPPER_I] * a[..., 1, _UPPER_J]),
                     0.0)
        g = np.where(w != 0, w * -(a[..., 0, :] * c[..., 0, :]
                                   + a[..., 1, :] * c[..., 1, :]), 0.0)
        m00, m01, m02, m11, m12, m22 = np.moveaxis(_view_sum(m, -2), -1, 0)
        g0, g1, g2 = np.moveaxis(_view_sum(g, -2), -1, 0)
        # The adjugate of the symmetric normal matrix.
        c00 = m11 * m22 - m12 * m12
        c01 = m02 * m12 - m01 * m22
        c02 = m01 * m12 - m02 * m11
        c11 = m00 * m22 - m02 * m02
        c12 = m01 * m02 - m00 * m12
        c22 = m00 * m11 - m01 * m01
        det = m00 * c00 + m01 * c01 + m02 * c02
        x = (c00 * g0 + c01 * g1 + c02 * g2) / det
        y = (c01 * g0 + c11 * g1 + c12 * g2) / det
        z = (c02 * g0 + c12 * g1 + c22 * g2) / det
        # The normal matrix is positive semidefinite, so its determinant
        # lies in [0, m00 m11 m22]; a singular one keeps only rounding,
        # about 1e-16 of that bound.  The norm test also fails non-finite
        # points.
        degenerate = ~((det > 1e-12 * (m00 * m11 * m22))
                       & (np.sqrt(x * x + y * y + z * z) <= 1e12))
    point = np.stack([x, y, z], axis=-1)
    point[degenerate] = np.nan
    return point, degenerate


def _project(points, projections):
    """Homogeneous pixels (..., n, 3) of points (..., 3) in the views
    (..., n, 3, 4), as explicit multiply-adds in a fixed order."""
    x = points[..., None, None, :]
    return (projections[..., 0] * x[..., 0] + projections[..., 1] * x[..., 1]
            + projections[..., 2] * x[..., 2] + projections[..., 3])


def _reprojection_errors(points, uv, projections) -> np.ndarray:
    """Pixel distance between each observation and its projected point.

    points (..., 3), uv (..., n, 2), projections (..., n, 3, 4) -> (..., n),
    inf where the point lies in a camera's focal plane.
    """
    ph = _project(points, projections)
    depth = ph[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        du = ph[..., 0] / depth - uv[..., 0]
        dv = ph[..., 1] / depth - uv[..., 1]
    err = np.sqrt(du * du + dv * dv)
    err[np.abs(depth) < 1e-12] = np.inf
    return err


def _reweighted_points(refit, uv, projections, weights):
    """One `_linear_points` solve from the refit (..., 3) with each view's
    weight w over its squared depth there, so that the linear residuals
    approximate the weighted pixel errors (Hartley and Sturm 1997,
    "Iterative-LS").  Where it gives no point, as where a weighted view
    sees the refit at zero depth, the refit stays."""
    depth = _project(refit, projections)[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(weights != 0, weights / (depth * depth), 0.0)
    point, degenerate = _linear_points(uv, projections, weights)
    return np.where(degenerate[..., None], refit, point)


@dataclasses.dataclass(eq=False)
class RansacResult:
    point: np.ndarray              # (..., 3)
    inliers: np.ndarray            # (..., V) bool over the rig's views
    valid: bool                    # bool, or a (...) bool array
    ambiguous: bool                # bool, or a (...) bool array
    consensus: bool                # bool, or a (...) bool array: every
                                   # valid view agreed, no pair stage ran
    residual: float                # weighted RMS px over the inlier views

    def reshape(self, shape: tuple) -> "RansacResult":
        """The result with its point axis reshaped; () gives Python scalars
        for the per-point fields."""
        def per_point(a):
            a = a.reshape(shape)
            return a.item() if a.ndim == 0 else a

        return RansacResult(self.point.reshape(shape + (3,)),
                            self.inliers.reshape(shape + (-1,)),
                            per_point(self.valid), per_point(self.ambiguous),
                            per_point(self.consensus),
                            per_point(self.residual))


def _weights(conf, views):
    """The confidence weights (N, V) of each point's chosen views, zero on
    the others.  A point whose chosen views all have conf <= 0 weighs them
    equally."""
    w = np.where(views, conf, 0.0)
    return np.where(views & np.all(w <= 0, axis=1, keepdims=True), 1.0, w)


def _pair_stage(uv, projections, valid, reproj_threshold, max_iters, seed):
    """Closed-form pair hypotheses of N points: uv (N, V, 2) with invalid
    views zeroed, valid (N, V).

    The pair stage runs once, over every view pair of the rig in
    itertools.combinations order.  A point tries the pairs of its valid
    views, or, when they number more than max_iters, a seeded sorted sample
    of max_iters of them, which depends only on that number.  Returns every
    pair's point (N, K, 3), the tried pairs that gave one (N, K), the
    inliers of the first pair with the most (N, V), none where that is
    below two, and the ambiguity flags (N,).
    """
    N, V = valid.shape
    pairs = np.stack(np.triu_indices(V, 1), axis=1)
    tries = valid[:, pairs[:, 0]] & valid[:, pairs[:, 1]]
    n_pairs = tries.sum(axis=1)
    for n in np.unique(n_pairs[n_pairs > max_iters]):
        rows = np.flatnonzero(n_pairs == n)
        picks = np.random.default_rng(seed).choice(n, max_iters, replace=False)
        # Keep the valid pairs whose rank among the point's was drawn.
        tries[rows] &= np.isin(np.cumsum(tries[rows], axis=1) - 1, picks)
    # Every tried pair's point is a final candidate, in pair order.
    pair_points = _linear_points(uv[:, pairs], projections[pairs],
                                 np.ones(2))[0]
    pair_ok = tries & np.all(np.isfinite(pair_points), axis=-1)
    errs = _reprojection_errors(pair_points, uv[:, None], projections)
    inl = valid[:, None] & (errs <= reproj_threshold)
    count = np.where(pair_ok, inl.sum(axis=-1), -1)
    # The first pair with the most inliers wins; a later pair with as many
    # but a different inlier set makes the point ambiguous.
    m = np.arange(N)
    first = np.argmax(count, axis=1)
    top = count[m, first]
    good = top >= 2
    inliers = inl[m, first] & good[:, None]
    ambiguous = good & np.any(
        (np.arange(len(pairs)) > first[:, None]) & (count == top[:, None])
        & np.any(inl != inliers[:, None], axis=-1), axis=1)
    return pair_points, pair_ok, inliers, ambiguous


def _settle(res, rows, uv, projections, weights, refit, cands, cands_ok):
    """Score the candidates of points `rows` and write their results to res.

    uv (M, V, 2) and weights (M, V) are the rows' pixels and `_weights` over
    their inlier views, and refit their `_linear_points` there; cands
    (M, K, 3) and cands_ok (M, K) are their pair candidates, K = 0 for
    consensus points.  Of the candidates and the refit's depth-reweighted
    solve (`_reweighted_points`), the one with the lowest weighted SSE on
    the inlier views wins.
    """
    cands = np.concatenate(
        [cands, _reweighted_points(refit, uv, projections, weights)[:, None]],
        axis=1)
    ok = np.concatenate(
        [cands_ok, np.all(np.isfinite(refit), axis=-1)[:, None]], axis=1)
    w = weights[:, None]
    err = np.where(w != 0, _reprojection_errors(cands, uv[:, None],
                                                projections), 0.0)
    scores = np.where(ok, _view_sum(w * (err * err)), np.inf)
    # np.argmin over the candidates in order: the first lowest score, or the
    # first NaN; the residual takes Python's min, which keeps a leading NaN
    # and skips later ones.
    m = np.arange(len(rows))
    first_ok = np.argmax(ok, axis=1)
    pick = np.argmin(scores, axis=1)
    pick = np.where(scores[m, pick] == np.inf, first_ok, pick)
    lowest = np.where(np.isnan(scores[m, first_ok]), np.nan,
                      np.fmin.reduce(scores, axis=1))
    res.point[rows] = cands[m, pick]
    res.residual[rows] = np.sqrt(lowest / _view_sum(weights))


def _ransac(uv, projections, valid, conf, reproj_threshold, max_iters,
            seed) -> RansacResult:
    """RANSAC triangulation of N points: uv (N, V, 2), valid, conf (N, V),
    projections (V, 3, 4).

    Consensus first (Chum, Matas and Kittler 2003): each point's weighted
    `_linear_points` over all its valid views is tried before any pair.
    Where it is not degenerate and reprojects within reproj_threshold in
    every valid view, the valid views are the inliers and that solve is the
    refit.  Only the other points run `_pair_stage`, whose best inlier set
    gets its own refit.  Both groups share `_settle`'s reweighted solve and
    scoring.  Every solve spans all the rig's views, zero-weighted off the
    point's chosen ones, so it needs no grouping by view count.
    """
    N, V = valid.shape
    res = RansacResult(np.full((N, 3), np.nan), np.zeros((N, V), dtype=bool),
                       np.zeros(N, dtype=bool), np.zeros(N, dtype=bool),
                       np.zeros(N, dtype=bool), np.full(N, np.inf))
    # Invalid views may hold any pixels (inf or NaN included): zeroed, they
    # keep the arithmetic finite, and they never count as inliers.  A valid
    # view's inf takes NaN's path, which the arithmetic passes without an
    # invalid operation; such a view cannot agree, nor be an inlier.
    uv = np.where(valid[..., None], uv, 0.0)
    uv[np.isinf(uv)] = np.nan
    agreeable = valid & np.all(np.isfinite(uv), axis=(1, 2))[:, None]
    w = _weights(conf, agreeable)
    refit, degenerate = _linear_points(uv, projections, w * w)
    errs = _reprojection_errors(refit, uv, projections)
    rows = np.flatnonzero((agreeable.sum(axis=1) >= 2) & ~degenerate & np.all(
        ~agreeable | (errs <= reproj_threshold), axis=1))
    res.consensus[rows] = True
    res.inliers[rows] = valid[rows]
    _settle(res, rows, uv[rows], projections, w[rows], refit[rows],
            np.empty((len(rows), 0, 3)), np.empty((len(rows), 0), dtype=bool))
    rest = np.flatnonzero(~res.consensus & (valid.sum(axis=1) >= 2))
    if rest.size:
        pair_points, pair_ok, inliers, res.ambiguous[rest] = _pair_stage(
            uv[rest], projections, valid[rest], reproj_threshold, max_iters,
            seed)
        res.inliers[rest] = inliers
        found = inliers.any(axis=1)
        rows, w = rest[found], _weights(conf[rest[found]], inliers[found])
        refit, _ = _linear_points(uv[rows], projections, w * w)
        _settle(res, rows, uv[rows], projections, w, refit,
                pair_points[found], pair_ok[found])
    res.valid = res.inliers.sum(axis=1) >= 2
    return res


def ransac_triangulate(uv, rig: CameraRig, valid=None, conf=None,
                       reproj_threshold: float = DEFAULT_REPROJ_THRESHOLD,
                       max_iters: int = DEFAULT_RANSAC_ITERS,
                       seed: int = 0) -> RansacResult:
    """Triangulate one point while rejecting outlier views.

    Consensus first: the confidence-weighted linear least squares
    (`_linear_points`) over all the point's valid views is tried.  If it is
    not degenerate and every valid view reprojects within reproj_threshold
    pixels of it, the valid views are the inliers, the point is not
    ambiguous (`consensus` reports it) and the pair stage does not run.
    Otherwise the pairs of the point's valid views are triangulated by the
    same solve, unweighted (a pair whose rays are parallel or coincide
    gives no point) and scored by how many valid views reproject within
    reproj_threshold.  All of them are tried when their count fits in
    max_iters (always true for <= 5 views at the default 20); otherwise a
    seeded sorted sample of max_iters of them is, the same sample for every
    point with that many pairs.  max_iters must be at least 1; invalid
    views may hold any pixels, NaN or inf included.  The inlier set gets a
    confidence-weighted linear refit (for a consensus point, the solve
    already made), then one depth-reweighted linear solve from it
    (`_reweighted_points`), which stays at the refit where it gives no
    point.  A consensus point returns the reweighted point.  A point that
    went through the pair stage returns, of its pair points and the
    reweighted point, the one with the lowest weighted reprojection SSE on
    the inlier set, so it is never worse than any sampled pair's own
    solution there.  No step calls LAPACK, BLAS or an iterative solver.
    Leading batch axes on uv (and valid, conf) triangulate a stack of
    points; each gives the same result, to the bit, as alone.
    """
    uv = np.asarray(uv, dtype=np.float64)
    check_triangulation(uv.shape[-2], rig, max_iters)
    shape = uv.shape[:-2] + (rig.n_views,)
    valid = np.broadcast_to(True if valid is None else
                            np.asarray(valid, dtype=bool), shape)
    conf = np.broadcast_to(1.0 if conf is None else
                           np.asarray(conf, dtype=np.float64), shape)
    res = _ransac(uv.reshape(-1, rig.n_views, 2), rig.projections,
                  valid.reshape(-1, rig.n_views),
                  conf.reshape(-1, rig.n_views), reproj_threshold,
                  max_iters, seed)
    return res.reshape(shape[:-1])


def _smoothing_weight(cutoff_hz: float, fps: float, order: int) -> float:
    """The Whittaker penalty weight lam = (2 sin(pi cutoff / fps))^(-2 order),
    whose gain 1 / (1 + lam (2 sin(w / 2))^(2 order)) is 1/2 at the cutoff."""
    return (2.0 * np.sin(np.pi * cutoff_hz / fps)) ** (-2 * order)


def check_filter(cutoff_hz: float, fps: float, order: int) -> None:
    """Refuse a filter order that is odd or below 2, a cutoff outside
    (0, fps/2), or a cutoff so low for its order that the smoother's normal
    matrix, of condition number about lam * 4^order, passes
    _MAX_CONDITION."""
    if order < 2 or order % 2 != 0:
        raise ValueError("filter order must be even and >= 2")
    if not (0 < cutoff_hz < fps / 2.0):
        raise ValueError("cutoff must lie in (0, fps/2)")
    # lam * 4^order = sin(pi cutoff / fps)^(-2 order).
    if _smoothing_weight(cutoff_hz, fps, order) * 4 ** order > _MAX_CONDITION:
        lowest = fps / np.pi * np.arcsin(_MAX_CONDITION ** (-0.5 / order))
        raise ValueError("cutoff %g Hz is below %.3g Hz, the lowest an "
                         "order-%d smoother solves accurately at %g fps"
                         % (cutoff_hz, lowest, order, fps))


def interpolate_gaps(traj: JointTrajectory,
                     max_gap: int = DEFAULT_MAX_GAP) -> JointTrajectory:
    """Fill invalid runs of up to max_gap frames by linear interpolation.

    Only interior gaps (valid samples on both sides) are filled; longer
    gaps and leading/trailing invalid stretches are left invalid.
    """
    pos = traj.positions.copy()
    val = traj.valid
    n = traj.n_frames
    frames = np.arange(n)[:, None, None]
    # The valid frames before and after every sample: -1 or n where none.
    prev = np.maximum.accumulate(np.where(val, frames, -1), axis=0)
    after = np.minimum.accumulate(np.where(val, frames, n)[::-1], axis=0)[::-1]
    fill = ~val & (prev >= 0) & (after < n) & (after - prev - 1 <= max_gap)
    f, h, j = np.nonzero(fill)
    p0, p1 = prev[fill], after[fill]
    t = ((f - p0) / (p1 - p0))[:, None]
    pos[f, h, j] = (1 - t) * pos[p0, h, j] + t * pos[p1, h, j]
    return JointTrajectory(traj.fps, pos, val | fill)


def _all_of(mask: np.ndarray, k: int) -> np.ndarray:
    """Whether each k consecutive entries of mask along axis 0 all hold:
    (len(mask) - k + 1, ...)."""
    c = np.cumsum(np.pad(mask, [(1, 0)] + [(0, 0)] * (mask.ndim - 1)), axis=0)
    return c[k:] - c[:-k] == k


def smooth_trajectory(traj: JointTrajectory,
                      cutoff_hz: float = DEFAULT_CUTOFF_HZ,
                      order: int = DEFAULT_FILTER_ORDER,
                      max_gap: int = DEFAULT_MAX_GAP) -> JointTrajectory:
    """Gap-interpolate then low-pass every joint track by a Whittaker
    smoother.

    Each maximal run of at least 3x order valid frames takes the z that
    minimises |z - y|^2 + lam |D z|^2, D the order-th differences inside
    the run and lam `_smoothing_weight`: a zero-phase low-pass of gain
    1 / (1 + (sin(w / 2) / sin(pi cutoff / fps))^(2 order)), 1/2 at the
    cutoff.  Shorter runs and invalid frames pass through unchanged.  In
    blocks of `order` frames the normal matrix is block tridiagonal, so
    every track's x, y and z go through one `block_tridiagonal_solve`.
    """
    traj = interpolate_gaps(traj, max_gap)
    n, d = traj.n_frames, order
    if n < 3 * d:
        return traj
    check_filter(cutoff_hz, traj.fps, d)
    # The frames that some 3d valid frames in a row cover, those of runs of
    # 3d or more, on the T tracks that have any; then the difference rows
    # (row r spans frames r..r+d) that lie inside one such run.
    starts = np.pad(_all_of(traj.valid.reshape(n, 42), 3 * d),
                    ((3 * d - 1, 3 * d - 1), (0, 0)))
    inside = ~_all_of(~starts, 3 * d)
    tracks = np.flatnonzero(inside.any(axis=0))
    if not len(tracks):
        return traj
    inside = inside[:, tracks]                                # (n, T)
    T, nb = len(tracks), -(-n // d)
    rows = np.pad(_all_of(inside, d + 1), ((0, nb * d - n), (0, 0)))
    # Row group i (rows id..id+d-1) reaches frame blocks i and i+1 through
    # [P Q], the order-d differences of 2d frames.  Its masked normal
    # product, a sum of its kept rows' outer products, is exact: their
    # coefficients are integers.
    PQ = np.diff(np.eye(2 * d), d, axis=0)                    # (d, 2d)
    outer = (PQ[:, :, None] * PQ[:, None, :]).reshape(d, -1)
    G = _smoothing_weight(cutoff_hz, traj.fps, d) * (
        rows.T.reshape(T, nb - 1, d) @ outer).reshape(T, nb - 1, 2 * d, 2 * d)
    D = np.broadcast_to(np.eye(d), (T, nb, d, d)).copy()
    D[:, :-1] += G[..., :d, :d]
    D[:, 1:] += G[..., d:, d:]
    U = np.zeros_like(D)
    U[:, :-1] = G[..., :d, d:]
    L = np.zeros_like(D)
    L[:, 1:] = np.swapaxes(U[:, :-1], -1, -2)
    y = traj.positions.reshape(n, 42, 3)[:, tracks]
    b = np.pad(np.where(inside[..., None], y, 0.0),
               ((0, nb * d - n), (0, 0), (0, 0)))
    z, _ = block_tridiagonal_solve(
        D, L, U, np.swapaxes(b, 0, 1).reshape(T, nb, d, 3))
    z = np.swapaxes(z.reshape(T, nb * d, 3)[:, :n], 0, 1)
    pos = traj.positions.reshape(n, 42, 3)       # interpolate_gaps' own copy
    pos[:, tracks] = np.where(inside[..., None], z, y)
    return JointTrajectory(traj.fps, traj.positions, traj.valid)


@dataclasses.dataclass(eq=False)
class Triangulation:
    trajectory: JointTrajectory
    ransac: RansacResult           # fields over (F, 2, 21[, ...])


def check_triangulation(n_views: int, rig: CameraRig, max_iters: int) -> None:
    """Refuse more keypoint views than cameras, or max_iters below 1."""
    if n_views > rig.n_views:
        raise ValueError("keypoints have %d views, the rig only %d cameras"
                         % (n_views, rig.n_views))
    if max_iters < 1:
        raise ValueError("RANSAC needs at least 1 iteration, got %r"
                         % (max_iters,))


def triangulate_observations(obs: KeypointObservations, rig: CameraRig,
                             fps: float,
                             reproj_threshold: float = DEFAULT_REPROJ_THRESHOLD,
                             max_iters: int = DEFAULT_RANSAC_ITERS,
                             seed: int = 0) -> Triangulation:
    """RANSAC-triangulate every (frame, hand, joint) into a 3D trajectory.

    Keypoint view v is camera v; cameras past the keypoints' views are
    unobserved, and more views than cameras is an error.  The points go
    through the batched kernel _POINT_BLOCK at a time; every point's result
    is the one `ransac_triangulate` gives it alone.  The per-point RANSAC
    arrays come back with the trajectory.
    """
    check_triangulation(obs.n_views, rig, max_iters)
    F, V = obs.n_frames, rig.n_views

    def per_point(a):
        """(points, V, ...) of an (F, views, 2, 21, ...) keypoint array."""
        a = np.pad(a, [(0, 0), (0, V - obs.n_views)] + [(0, 0)] * (a.ndim - 2))
        return np.moveaxis(a, 1, 3).reshape((-1, V) + a.shape[4:])

    uv, valid, conf = (per_point(a) for a in (obs.uv, obs.valid, obs.conf))
    blocks = [_ransac(uv[i:i + _POINT_BLOCK], rig.projections,
                      valid[i:i + _POINT_BLOCK], conf[i:i + _POINT_BLOCK],
                      reproj_threshold, max_iters, seed)
              for i in range(0, max(len(uv), 1), _POINT_BLOCK)]
    res = RansacResult(*(np.concatenate([getattr(b, f.name) for b in blocks])
                         for f in dataclasses.fields(RansacResult))
                       ).reshape((F, 2, 21))
    pos = np.where(res.valid[..., None], res.point, 0.0)
    return Triangulation(JointTrajectory(fps, pos, res.valid), res)


# Root joints that move rigidly with the wrist: the wrist and the five MCPs.
_PALM = np.concatenate([[0], LEVELS[0]])
# Each finger's chain below its MCP (5, 3): PIP, DIP and tip.
_CHAINS = LEVELS[1:].T


@dataclasses.dataclass(eq=False)
class FitResult:
    clip: MotionClip
    copied: np.ndarray             # (F, 2) True where a frame was propagated
    residual_rms: np.ndarray       # (F, 2) meters, NaN where copied
    iterations: np.ndarray         # (F, 2) LM iterations run, 0 where copied
    stop: np.ndarray               # (F, 2) "converged", "stalled", "max_iter"
                                   # or None where copied


def _swing_init(bones: np.ndarray, y: np.ndarray,
                mask: np.ndarray) -> np.ndarray:
    """Start pose vectors (B, 51) for hand-frames of bone offsets bones
    (B, 21, 3) observed at y (B, 21, 3).

    The root comes from a Kabsch fit of the rest pose's palm joints onto
    the observed ones (all observed joints when fewer than 3 palm joints
    are).  Then, level by level, each finger joint takes the minimal
    rotation that turns its rest child bone onto the observed bone, in its
    parent's frame, and zero where either end of that bone is unobserved.
    Minimal rotations have no twist about the bone.
    """
    x = np.zeros((len(y), PARAMS_PER_HAND))
    rest, _ = forward_kinematics(bones, *vector_pose(x))
    w = np.zeros_like(mask)
    w[:, _PALM] = mask[:, _PALM]
    w = np.where((w.sum(axis=1) >= 3)[:, None], w, mask)[..., None]
    rest_c = np.sum(w * rest, axis=1) / w.sum(axis=1)
    obs_c = np.sum(w * y, axis=1) / w.sum(axis=1)
    U, _, Vt = np.linalg.svd(
        np.swapaxes(w * (rest - rest_c[:, None]), 1, 2) @ (y - obs_c[:, None]))
    Vt[:, 2] *= np.sign(np.linalg.det(U @ Vt))[:, None]
    R = np.swapaxes(U @ Vt, 1, 2)
    x[:, :3] = obs_c - (R @ rest_c[..., None])[..., 0]
    x[:, 3:6] = matrix_to_rotvec(R)
    for joints, children in zip(LEVELS[:3], LEVELS[1:]):
        _, G = forward_kinematics(bones, *vector_pose(x))
        seen = (y[:, children] - y[:, joints])[..., None]
        target = (np.swapaxes(G[:, PARENTS[joints]], -1, -2) @ seen)[..., 0]
        bone = bones[:, children]
        axis = np.cross(bone, target)
        sin = np.sqrt(np.vecdot(axis, axis))
        ok = mask[:, joints] & mask[:, children] & (sin > 0)
        angle = np.asarray(_atan2(sin, np.vecdot(bone, target)),
                           dtype=np.float64)
        x[:, 3 + 3 * joints[:, None] + np.arange(3)] = np.where(
            ok[..., None], axis * (angle / np.where(ok, sin, 1.0))[..., None],
            0.0)
    return x


def _root_jacobian(x, p):
    """The root's FK Jacobian columns (..., 21, 3, 6) at poses x (..., 51)
    and joints p: the identity, then J_l(w) e_k x (p - p_wrist), w = x[3:6]."""
    rates = _left_jacobian_times(x[..., 3:6], np.eye(3))
    cols = _cross(rates[..., None, :, :], (p - p[..., :1, :])[..., None, :])
    return np.concatenate([np.broadcast_to(np.eye(3), p.shape + (3,)),
                           np.swapaxes(cols, -1, -2)], axis=-1)


def _lm_fit(bones: np.ndarray, planes, y, weight, x0, lo, hi,
            limit_weight: float, max_iter: int):
    """Fit B hand-frame problems of bone offsets bones (B, 21, 3) and
    twist-free planes (B, 15, 3, 2) by `levenberg_marquardt`.

    Problem b minimizes |weight_b (FK(x) - y_b)|^2 plus the soft-limit
    penalty, stepping x -= twist_free_step(planes_b, d).  A finger's
    columns move only its chain (`chain_jacobian`) and its soft-limit rows,
    so J^T J is an arrow of 6x6 blocks, solved by a Schur complement on the
    root.  Trial steps are scored by FK alone; only accepted ones get a new
    Jacobian.  Returns the poses (B, 51), the iterations and the stops.
    """
    sqrt_lw = np.sqrt(limit_weight)
    # Each finger's soft-limit rows (B, 5, 9, 6): its joints' planes.
    diagonal = (planes.reshape(-1, NUM_FINGERS, 3, 3, 1, 2)
                * np.eye(3)[:, None, :, None]).reshape(-1, NUM_FINGERS, 9, 6)

    def violation(i, x):
        th = x[:, 6:]
        return np.minimum(th - lo[i], 0.0) + np.maximum(th - hi[i], 0.0)

    def objective(i, x):
        p, _ = forward_kinematics(bones[i], *vector_pose(x))
        r = (weight[i, :, None] * (p - y[i])).reshape(len(i), -1)
        if limit_weight > 0.0:
            r = np.concatenate([r, sqrt_lw * violation(i, x)], axis=1)
        return np.sum(r * r, axis=1)

    def normal_equations(i, x):
        """J^T J's root, finger and coupling blocks, then J^T r's parts."""
        n = len(i)
        p, G = forward_kinematics(bones[i], *vector_pose(x))
        r = weight[i, :, None] * (p - y[i])
        Jr = weight[i, :, None, None] * _root_jacobian(x, p)
        _, Jf = chain_jacobian(
            p[:, LEVELS[0]], G[:, :1], bones[i][:, _CHAINS],
            planes[i].reshape(n, NUM_FINGERS, 3, 3, 2),
            x[:, 6:].reshape(n, NUM_FINGERS, 3, 3))
        Jf = (weight[i][:, _CHAINS, None, None] * Jf).reshape(n, -1, 9, 6)
        C = np.swapaxes(Jr[:, _CHAINS].reshape(Jf.shape), -1, -2) @ Jf
        rf = r[:, _CHAINS].reshape(n, NUM_FINGERS, 9, 1)
        if limit_weight > 0.0:
            v = violation(i, x).reshape(rf.shape)
            Jf = np.concatenate([Jf, sqrt_lw * (v != 0.0) * diagonal[i]], 2)
            rf = np.concatenate([rf, sqrt_lw * v], axis=2)
        Jr, JfT = Jr.reshape(n, -1, 6), np.swapaxes(Jf, -1, -2)
        JrT = np.swapaxes(Jr, 1, 2)
        return JrT @ Jr, JfT @ Jf, C, JrT @ r.reshape(n, -1, 1), JfT @ rf

    def solve(i, system, lam):
        # Schur complement on the root (Featherstone, Rigid Body Dynamics
        # Algorithms, 2008): X_f = (A_ff + lam I)^-1 [C_f^T | g_f], the root
        # from S = A_rr + lam I - sum_f C_f X_f, each finger from the root.
        A_rr, A_ff, C, g_r, g_f = system
        damping = lam[:, None, None] * np.eye(6)
        X, bad = solve_stacked(A_ff + damping[:, None], np.concatenate(
            [np.swapaxes(C, -1, -2), g_f], axis=-1))
        CX = np.sum(C @ X, axis=1)
        d_r, singular = solve_stacked(A_rr + damping - CX[..., :6],
                                      g_r - CX[..., 6:])
        d_f = X[..., 6:] - X[..., :6] @ d_r[:, None]
        d = np.concatenate([d_r[..., 0], d_f.reshape(len(i), -1)], axis=1)
        return twist_free_step(planes[i], d), bad | singular

    x, iterations, stop, _ = levenberg_marquardt(
        x0, objective, normal_equations, solve, max_iter)
    return x, iterations, stop


def check_fit(n_frames: int, init: MotionClip | None,
              soft_limit_weight: float) -> None:
    """Refuse an empty trajectory, a negative soft-limit weight, or an init
    clip of another length."""
    if n_frames == 0:
        raise ValueError("empty trajectory")
    if not soft_limit_weight >= 0.0:
        raise ValueError("soft limit weight must be >= 0, got %r"
                         % (soft_limit_weight,))
    if init is not None and init.n_frames != n_frames:
        raise ValueError("init clip has %d frames, the trajectory %d"
                         % (init.n_frames, n_frames))


def fit_skeleton(traj: JointTrajectory, skeletons: SkeletonPair,
                 init: MotionClip | None = None,
                 max_iter: int = DEFAULT_FIT_ITERS,
                 soft_limit_weight: float = 0.0) -> FitResult:
    """Fit hand poses to a joint trajectory, every hand-frame independently.

    Each hand-frame with an observed joint minimizes the mean squared
    distance between FK joints and its observed joints over the root
    transform and 15 joint rotations, by at most `max_iter` guarded
    Levenberg-Marquardt iterations (`_lm_fit`; the fitted MSE never exceeds
    the start's), each step solved by a Schur complement on the root, as no
    two fingers couple.  The start is `init`'s pose at that frame, or else
    a closed-form swing init (`_swing_init`): a Kabsch fit of the palm for
    the root, then for each finger joint the minimal rotation onto the
    observed bone, and zero where either end of that bone is unobserved.
    Steps are confined to the plane perpendicular to each finger joint's
    rest child bone, so every twist about a bone, which no joint position
    can observe, keeps its start value exactly: 0 without `init`.  For the
    same reason a joint none of whose descendants is observed keeps its
    start rotation, which is zero in the swing init.

    Hand-frames with no observed joint are flagged `copied` and take the
    latest earlier fitted pose of that hand, or before the first one
    `init`'s first frame (the rest pose without `init`).  Both hands' poses
    go through the LM together, _POSE_BLOCK at a time; a pose's fit
    depends on neither the block nor the other frames.
    """
    F = traj.n_frames
    check_fit(F, init, soft_limit_weight)
    solved = traj.valid.any(axis=2)
    frame, side = np.nonzero(solved)
    positions = np.where(traj.valid[..., None], traj.positions, 0.0)
    offsets = skeletons.bone_offsets
    planes = twist_free_basis(offsets)
    limits = np.stack([skeletons.left.joint_limits.reshape(-1, 2),
                       skeletons.right.joint_limits.reshape(-1, 2)])
    starts = None if init is None else clip_vectors(init)
    vecs = np.zeros((F, 2, PARAMS_PER_HAND))
    iters = np.zeros((F, 2), dtype=np.int64)
    stop = np.full((F, 2), None, dtype=object)
    rms = np.full((F, 2), np.nan)
    for i in range(0, len(frame), _POSE_BLOCK):
        f, h = frame[i:i + _POSE_BLOCK], side[i:i + _POSE_BLOCK]
        y, mask = positions[f, h], traj.valid[f, h]
        n = mask.sum(axis=1)
        bones = offsets[h]
        vecs[f, h], iters[f, h], stop[f, h] = _lm_fit(
            bones, planes[h], y, mask / np.sqrt(n)[:, None],
            _swing_init(bones, y, mask) if init is None else starts[f, h],
            limits[h, :, 0], limits[h, :, 1], soft_limit_weight, max_iter)
        p, _ = forward_kinematics(bones, *vector_pose(vecs[f, h]))
        d2 = np.where(mask, np.vecdot(p - y, p - y), 0.0)
        rms[f, h] = np.sqrt(np.sum(d2, axis=1) / n)

    # Copied hand-frames: a forward fill of the results.
    src = np.maximum.accumulate(np.where(solved, np.arange(F)[:, None], -1),
                                axis=0)
    vecs = np.where((src >= 0)[..., None], vecs[src, [0, 1]],
                    0.0 if init is None else starts[0])
    return FitResult(clip_from_vectors(traj.fps, vecs), ~solved, rms, iters,
                     stop)
