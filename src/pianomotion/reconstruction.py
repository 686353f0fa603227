"""Multi-view keypoint reconstruction and skeleton fitting.

Pipeline: per-joint DLT triangulation with RANSAC view rejection, linear
interpolation across short invalid gaps, zero-phase low-pass filtering of
the joint tracks, then a batched, twist-pinned fit of the articulated hand
skeleton to the 3D joints of every hand-frame by damped least-squares
(Levenberg-Marquardt) minimization of the mean squared error.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import warnings

import numpy as np

from .hand import (LEVELS, PARAMS_PER_HAND, PARENTS, TWIST_FREE_DIMS,
                   MotionClip, SkeletonPair, clip_from_vectors, clip_vectors,
                   _atan2, fk_jacobian, forward_kinematics, json_array,
                   matrix_to_rotvec, twist_free_basis, twist_free_step,
                   vector_pose)
from .lsq import levenberg_marquardt, solve_stacked

DEFAULT_IMAGE_SIZE = (3840, 2160)
DEFAULT_REPROJ_THRESHOLD = 8.0     # px
DEFAULT_RANSAC_ITERS = 20
DEFAULT_MAX_GAP = 5                # frames
DEFAULT_CUTOFF_HZ = 10.0
DEFAULT_FILTER_ORDER = 4
DEFAULT_FIT_ITERS = 200
MAX_COORDINATE = 1e100             # m; bound on trajectory coordinates

# JSON values a validity mask may hold: booleans, or 0/1 as written by
# `to_json` (read as floats).
_FLAGS = (bool, float)
# The index columns of a keypoint CSV row and their exclusive bounds.
_CSV_BOUNDS = {"frame": np.inf, "view": np.inf, "hand": 2, "joint": 21}

# Points per batched RANSAC call in `triangulate_observations`.  It bounds
# the stacked pair, reprojection and polish arrays without changing results:
# each point spans all of the rig's view pairs, and a block's numpy peak is
# 8 MB with 5 views and 30 MB with 8.
_POINT_BLOCK = 2048

# Levenberg-Marquardt iterations of the polish of each triangulated point.
_POLISH_ITERS = 10
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


def _dlt(uv, projections, weights=None):
    """Homogeneous DLT of stacked points.

    Each view adds the rows u*P[2] - P[0] and v*P[2] - P[1], scaled by its
    weight, and the point is the right singular vector of the smallest
    singular value.  uv is (..., n, 2), projections (..., n, 3, 4) and
    weights (..., n).
    Returns the points (..., 3), NaN where the solution lies at infinity,
    and the degenerate flags (...).
    """
    A = uv[..., None] * projections[..., 2:3, :] - projections[..., :2, :]
    if weights is not None:
        A = A * weights[..., None, None]
    _, s, vt = np.linalg.svd(A.reshape(A.shape[:-3] + (-1, 4)))
    x = vt[..., -1, :]
    # sqrt(vecdot) is np.linalg.norm's own arithmetic, to the bit.
    at_infinity = np.abs(x[..., 3]) < 1e-12 * np.sqrt(
        np.vecdot(x[..., :3], x[..., :3]))
    with np.errstate(divide="ignore", invalid="ignore"):
        point = x[..., :3] / x[..., 3:]
    point[at_infinity] = np.nan
    # Rank deficiency beyond the expected 1D nullspace means the views do
    # not pin down a unique point.
    return point, (s[..., 2] <= 1e-9 * s[..., 0]) | at_infinity


def _reprojection_errors(points, uv, projections) -> np.ndarray:
    """Pixel distance between each observation and its projected point.

    points (..., 3), uv (..., n, 2), projections (..., n, 3, 4) -> (..., n),
    inf where the point lies in a camera's focal plane.
    """
    xh = np.concatenate([points, np.ones(points.shape[:-1] + (1,))], axis=-1)
    # A stack of (3, 4) @ (4, 1) products: the same BLAS call, and so the
    # same bits, as projecting one point.
    ph = (projections @ xh[..., None, :, None])[..., 0]
    depth = ph[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = ph[..., :2] / depth[..., None] - uv
    err = np.sqrt(np.vecdot(d, d))
    err[np.abs(depth) < 1e-12] = np.inf
    return err


def _weighted_sse(points, uv, projections, weights) -> np.ndarray:
    err = _reprojection_errors(points, uv, projections)
    # Summed along the contiguous view axis: the same pairwise sum, and so
    # the same bits, as one point's 1-D sum.
    return np.sum(weights * err ** 2, axis=-1)


def _pair_points(uv, projections, pairs):
    """Closed-form two-view triangulation of N points on K view pairs.

    uv (N, V, 2), projections (V, 3, 4), pairs (K, 2) view ids.  Each pair
    solves the inhomogeneous least squares A[:, :3] X = -A[:, 3] of its four
    DLT rows through the 3x3 normal equations, by Cramer's rule (Hartley and
    Sturm 1997, "Linear-LS").  Returns the points (N, K, 3), NaN where the
    pair gives no point: where its normal matrix is singular to working
    precision (parallel or coincident rays, whose point lies at infinity or
    anywhere on the ray), or the point is not finite or lies beyond 1e12,
    the DLT's at-infinity test.
    """
    A = uv[..., None] * projections[:, 2:3, :] - projections[:, :2, :]
    a, c = A[..., :3], A[..., 3:]                  # (N, V, 2, 3), (N, V, 2, 1)
    # Each view's share of the normal matrix (its upper triangle m00, m01,
    # m02, m11, m12, m22) and of the right-hand side.
    m = (a[..., 0, _UPPER_I] * a[..., 0, _UPPER_J]
         + a[..., 1, _UPPER_I] * a[..., 1, _UPPER_J])
    g = -(a[..., 0, :] * c[..., 0, :] + a[..., 1, :] * c[..., 1, :])
    m00, m01, m02, m11, m12, m22 = np.moveaxis(
        m[:, pairs[:, 0]] + m[:, pairs[:, 1]], -1, 0)
    g0, g1, g2 = np.moveaxis(g[:, pairs[:, 0]] + g[:, pairs[:, 1]], -1, 0)
    # The adjugate of the symmetric normal matrix.
    c00 = m11 * m22 - m12 * m12
    c01 = m02 * m12 - m01 * m22
    c02 = m01 * m12 - m02 * m11
    c11 = m00 * m22 - m02 * m02
    c12 = m01 * m02 - m00 * m12
    c22 = m00 * m11 - m01 * m01
    det = m00 * c00 + m01 * c01 + m02 * c02
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        point = np.stack([c00 * g0 + c01 * g1 + c02 * g2,
                          c01 * g0 + c11 * g1 + c12 * g2,
                          c02 * g0 + c12 * g1 + c22 * g2],
                         axis=-1) / det[..., None]
    # The normal matrix is positive semidefinite, so its determinant lies
    # in [0, m00 m11 m22]; a singular one keeps only rounding, about 1e-16
    # of that bound.  The norm test also fails non-finite points.
    ok = ((det > 1e-12 * (m00 * m11 * m22))
          & (np.sqrt(np.vecdot(point, point)) <= 1e12))
    point[~ok] = np.nan
    return point


def _polish(points, uv, projections, weights):
    """Refine triangulated points by `levenberg_marquardt` on reprojection.

    points (M, 3), uv (M, n, 2), projections (M, n, 3, 4), weights (M, n).
    Each point minimizes its weighted reprojection SSE by Gauss-Newton steps
    under the shared damping and stop rules, for at most
    _POLISH_ITERS iterations.  A point that some camera sees at zero depth
    has no linearisation: it stops "stalled" at its start.  Returns the
    points, the iterations run and the stop reasons.
    """
    sqrt_w = np.sqrt(weights)

    def objective(i, x):
        return _weighted_sse(x, uv[i], projections[i], weights[i])

    def normal_equations(i, x):
        """J^T J and J^T r of points i at x, and their zero-depth flags."""
        P, sw = projections[i], sqrt_w[i]
        xh = np.concatenate([x, np.ones((len(x), 1))], axis=-1)
        ph = (P @ xh[:, None, :, None])[..., 0]
        flat = np.abs(ph[..., 2]) < 1e-12
        depth = np.where(flat, 1.0, ph[..., 2])
        proj = ph[..., :2] / depth[..., None]
        r = (sw[..., None] * (proj - uv[i])).reshape(len(i), -1)
        # d(proj)/dx = (P[:2, :3] - proj x P[2, :3]) / depth
        Ji = (P[..., :2, :3] - proj[..., :, None] * P[..., None, 2, :3]
              ) / depth[..., None, None]
        J = (sw[..., None, None] * Ji).reshape(len(i), -1, 3)
        Jt = J.swapaxes(-1, -2)
        return Jt @ J, Jt @ r[..., None], flat.any(axis=1)

    def solve(i, system, lam):
        JtJ, Jtr, flat = system
        step, singular = solve_stacked(
            JtJ + lam[:, None, None] * np.eye(3), Jtr)
        return step[..., 0], singular | flat

    # A zero-depth start has an infinite (or, at zero weight, NaN) SSE,
    # which the stop rule's gain test subtracts from itself.
    with np.errstate(invalid="ignore"):
        x, iterations, stop, _ = levenberg_marquardt(
            points, objective, normal_equations, solve, _POLISH_ITERS)
    return x, iterations, stop


@dataclasses.dataclass(eq=False)
class RansacResult:
    point: np.ndarray              # (..., 3)
    inliers: np.ndarray            # (..., V) bool over the rig's views
    valid: bool                    # bool, or a (...) bool array
    ambiguous: bool                # bool, or a (...) bool array
    consensus: bool                # bool, or a (...) bool array: every
                                   # valid view agreed, no pair stage ran
    residual: float                # weighted RMS px over the inlier views
    polish_iterations: int         # polish LM iterations, 0 if none ran
    polish_stop: str               # polish stop reason, None if none ran

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
                            per_point(self.residual),
                            per_point(self.polish_iterations),
                            per_point(self.polish_stop))


def _weighted_systems(uv, projections, conf, views):
    """The confidence-weighted DLT of each point over its chosen views.

    uv (N, V, 2), projections (V, 3, 4), conf and views (N, V).  Yields, for
    each count n >= 2 of chosen views, the rows with that count, their
    compact (M, n) pixels, projections and weights, and the `_dlt` points
    and degenerate flags of those systems.  A point whose chosen views all
    have conf <= 0 weighs them equally.
    """
    counts = views.sum(axis=1)
    for n in np.unique(counts[counts >= 2]):
        rows = np.flatnonzero(counts == n)
        ids = np.nonzero(views[rows])[1].reshape(-1, n)
        in_uv = uv[rows[:, None], ids]
        in_P = projections[ids]
        in_w = conf[rows[:, None], ids]
        in_w = np.where(np.all(in_w <= 0, axis=1, keepdims=True), 1.0, in_w)
        yield (rows, in_uv, in_P, in_w) + _dlt(in_uv, in_P, in_w)


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
    pair_points = _pair_points(uv, projections, pairs)
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


def _settle(res, rows, in_uv, in_P, in_w, refit, cands, cands_ok):
    """Polish the refits of points `rows` and write their results to res.

    in_uv, in_P, in_w and refit are the rows' `_weighted_systems` over their
    inlier views; cands (M, K, 3) and cands_ok (M, K) are their pair
    candidates, K = 0 for consensus points.  Of the candidates and the
    polished refit, the one with the lowest weighted SSE on the inlier
    views wins.
    """
    refit_ok = np.all(np.isfinite(refit), axis=-1)
    polished = refit.copy()
    done = rows[refit_ok]
    if done.size:
        (polished[refit_ok], res.polish_iterations[done],
         res.polish_stop[done]) = _polish(refit[refit_ok], in_uv[refit_ok],
                                          in_P[refit_ok], in_w[refit_ok])
    # The polish starts at the refit and takes only steps that lower the
    # weighted SSE, so the refit itself can never score lower.
    cands = np.concatenate([cands, polished[:, None]], axis=1)
    ok = np.concatenate([cands_ok, refit_ok[:, None]], axis=1)
    scores = np.where(ok, _weighted_sse(cands, in_uv[:, None], in_P[:, None],
                                        in_w[:, None]), np.inf)
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
    res.residual[rows] = np.sqrt(lowest / np.sum(in_w, axis=1))


def _ransac(uv, projections, valid, conf, reproj_threshold, max_iters,
            seed) -> RansacResult:
    """RANSAC triangulation of N points: uv (N, V, 2), valid, conf (N, V),
    projections (V, 3, 4).

    Consensus first (Chum, Matas and Kittler 2003): each point's weighted
    DLT over all its valid views is tried before any pair.  Where it is
    finite, not degenerate and reprojects within reproj_threshold in every
    valid view, the valid views are the inliers and that DLT is the refit.
    Only the other points run `_pair_stage`, whose best inlier set gets its
    own refit.  Both groups share `_settle`'s polish and scoring, once per
    inlier count, so every refit SVD sees the compact (2n, 4) system of its
    point's n inlier views.
    """
    N, V = valid.shape
    res = RansacResult(np.full((N, 3), np.nan), np.zeros((N, V), dtype=bool),
                       np.zeros(N, dtype=bool), np.zeros(N, dtype=bool),
                       np.zeros(N, dtype=bool), np.full(N, np.inf),
                       np.zeros(N, dtype=np.int64),
                       np.full(N, None, dtype=object))
    # Invalid views may hold any pixels (inf or NaN included): zeroed, they
    # keep the pair stage finite, and they never count as inliers.  A valid
    # view that is not finite cannot agree, and the SVD refuses it.
    uv = np.where(valid[..., None], uv, 0.0)
    agreeable = valid & np.all(np.isfinite(uv), axis=(1, 2))[:, None]
    for rows, in_uv, in_P, in_w, refit, degenerate in _weighted_systems(
            uv, projections, conf, agreeable):
        agree = ~degenerate & np.all(
            _reprojection_errors(refit, in_uv, in_P) <= reproj_threshold,
            axis=1)
        rows = rows[agree]
        res.consensus[rows] = True
        _settle(res, rows, in_uv[agree], in_P[agree], in_w[agree],
                refit[agree], np.empty((len(rows), 0, 3)),
                np.empty((len(rows), 0), dtype=bool))
    res.inliers[res.consensus] = valid[res.consensus]
    rest = np.flatnonzero(~res.consensus & (valid.sum(axis=1) >= 2))
    if rest.size:
        # A valid view's inf takes NaN's path, which the pair stage's
        # arithmetic passes without an invalid operation; neither is ever
        # an inlier.
        rest_uv = uv[rest]
        rest_uv[np.isinf(rest_uv)] = np.nan
        pair_points, pair_ok, inliers, res.ambiguous[rest] = _pair_stage(
            rest_uv, projections, valid[rest], reproj_threshold, max_iters,
            seed)
        res.inliers[rest] = inliers
        for rows, in_uv, in_P, in_w, refit, _ in _weighted_systems(
                rest_uv, projections, conf[rest], inliers):
            _settle(res, rest[rows], in_uv, in_P, in_w, refit,
                    pair_points[rows], pair_ok[rows])
    res.valid = res.inliers.sum(axis=1) >= 2
    return res


def ransac_triangulate(uv, rig: CameraRig, valid=None, conf=None,
                       reproj_threshold: float = DEFAULT_REPROJ_THRESHOLD,
                       max_iters: int = DEFAULT_RANSAC_ITERS,
                       seed: int = 0) -> RansacResult:
    """Triangulate one point while rejecting outlier views.

    Consensus first: the confidence-weighted DLT over all the point's valid
    views is tried.  If it is finite, not degenerate, and every valid view
    reprojects within reproj_threshold pixels of it, the valid views are
    the inliers, the point is not ambiguous (`consensus` reports it) and
    the pair stage does not run.  Otherwise the pairs of the point's valid
    views are triangulated in closed form (`_pair_points`; a pair whose
    rays are parallel or coincide gives no point) and scored by how many
    valid views reproject within reproj_threshold.  All of them are tried
    when their count fits in max_iters (always true for <= 5 views at the
    default 20); otherwise a seeded sorted sample of max_iters of them is,
    the same sample for every point with that many pairs.  max_iters must
    be at least 1; invalid views may hold any pixels, NaN or inf included.
    The inlier set gets a confidence-weighted DLT refit (for a consensus
    point, the DLT already made) plus a Levenberg-Marquardt polish
    (`_polish`, whose iterations and stop the result reports).  A consensus
    point returns the polished refit.  A point that went through the pair
    stage returns, of its pair points and the polished refit, the one with
    the lowest weighted reprojection SSE on the inlier set, so it is never
    worse than any sampled pair's own solution there.  Leading batch axes
    on uv (and valid, conf) triangulate a stack of points; each gives the
    same result as alone.
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


def check_filter(cutoff_hz: float, fps: float, order: int) -> None:
    """Refuse a filter order that is odd or below 2, or a cutoff outside
    (0, fps/2)."""
    if order < 2 or order % 2 != 0:
        raise ValueError("filter order must be even and >= 2")
    if not (0 < cutoff_hz < fps / 2.0):
        raise ValueError("cutoff must lie in (0, fps/2)")


def butterworth_filter(series, cutoff_hz: float, fps: float,
                       order: int = DEFAULT_FILTER_ORDER) -> np.ndarray:
    """Zero-phase low-pass along axis 0 with reflective edge padding.

    The filter is designed at the given order and applied forward and
    backward, so the magnitude response is squared and the phase is zero.
    Series shorter than 3x the order are returned unfiltered with a
    warning.
    """
    series = np.asarray(series, dtype=np.float64)
    check_filter(cutoff_hz, fps, order)
    n = series.shape[0]
    if n < 3 * order:
        warnings.warn("series of length %d too short for order-%d filtering; "
                      "returned unfiltered" % (n, order))
        return series.copy()
    # Imported here: scipy.signal roughly doubles the package import time.
    import scipy.signal

    b, a = scipy.signal.butter(order, cutoff_hz / (fps / 2.0))
    padlen = min(3 * (order + 1), n - 1)
    return scipy.signal.filtfilt(b, a, series, axis=0, padtype="even",
                                 padlen=padlen)


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


def smooth_trajectory(traj: JointTrajectory,
                      cutoff_hz: float = DEFAULT_CUTOFF_HZ,
                      order: int = DEFAULT_FILTER_ORDER,
                      max_gap: int = DEFAULT_MAX_GAP) -> JointTrajectory:
    """Gap-interpolate then low-pass every joint track.

    Each maximal run of valid frames is filtered independently; runs too
    short for the filter pass through unchanged.  Runs of one length go
    through the filter together, each as its own columns.
    """
    traj = interpolate_gaps(traj, max_gap)
    pos = traj.positions.copy()
    tracks = pos.reshape(traj.n_frames, 42, 3)          # a view of pos
    # Every run's track and [start, end) frames, track by track.
    edges = np.diff(np.pad(traj.valid.reshape(traj.n_frames, 42).T,
                           ((0, 0), (1, 1))).astype(np.int8), axis=1)
    track, start = np.nonzero(edges == 1)
    end = np.nonzero(edges == -1)[1]
    for length in np.unique(end - start):
        if length < 3 * order:
            continue
        runs = end - start == length
        rows = start[runs] + np.arange(length)[:, None]
        tracks[rows, track[runs]] = butterworth_filter(
            tracks[rows, track[runs]], cutoff_hz, traj.fps, order)
    return JointTrajectory(traj.fps, pos, traj.valid.copy())


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


def _lm_fit(bones: np.ndarray, planes, y, weight, x0, lo, hi,
            limit_weight: float, max_iter: int):
    """Fit B hand-frame problems of bone offsets bones (B, 21, 3) and
    twist-free planes (B, 15, 3, 2) by `levenberg_marquardt`.

    Problem b minimizes |weight_b (FK(x) - y_b)|^2 plus the soft-limit
    penalty, stepping x -= twist_free_step(planes_b, d).  Trial steps are
    scored by FK alone; only accepted ones get a new Jacobian.  Returns the
    poses (B, 51), the iterations run and the stop reasons.
    """
    sqrt_lw = np.sqrt(limit_weight)
    if limit_weight > 0.0:    # d(joint rotation vectors)/d(coordinates)
        dth = np.swapaxes(twist_free_step(planes[:, None],
                                          np.eye(TWIST_FREE_DIMS)), 1, 2)[:, 6:]

    def residuals(i, x, p):
        r = (weight[i, :, None] * (p - y[i])).reshape(len(i), -1)
        if limit_weight > 0.0:
            th = x[:, 6:]
            r = np.concatenate([r, sqrt_lw * (np.minimum(th - lo[i], 0.0)
                                              + np.maximum(th - hi[i], 0.0))],
                               axis=1)
        return r

    def objective(i, x):
        p, _ = forward_kinematics(bones[i], *vector_pose(x))
        r = residuals(i, x, p)
        return np.sum(r * r, axis=1)

    def normal_equations(i, x):
        """J^T J and J^T r of problems i at x, in their twist-free bases."""
        p, J = fk_jacobian(bones[i], planes[i], x)
        Jr = (weight[i, :, None, None] * J).reshape(len(i), -1,
                                                    TWIST_FREE_DIMS)
        if limit_weight > 0.0:
            active = (x[:, 6:] < lo[i]) | (x[:, 6:] > hi[i])
            Jr = np.concatenate(
                [Jr, sqrt_lw * active[..., None] * dth[i]], axis=1)
        Jt = np.swapaxes(Jr, 1, 2)
        return Jt @ Jr, Jt @ residuals(i, x, p)[..., None]

    def solve(i, system, lam):
        A, g = system
        step, singular = solve_stacked(
            A + lam[:, None, None] * np.eye(TWIST_FREE_DIMS), g)
        return twist_free_step(planes[i], step[..., 0]), singular

    x, iterations, stop, _ = levenberg_marquardt(
        x0, objective, normal_equations, solve, max_iter)
    return x, iterations, stop


def fit_skeleton(traj: JointTrajectory, skeletons: SkeletonPair,
                 init: MotionClip | None = None,
                 max_iter: int = DEFAULT_FIT_ITERS,
                 soft_limit_weight: float = 0.0) -> FitResult:
    """Fit hand poses to a joint trajectory, every hand-frame independently.

    Each hand-frame with an observed joint minimizes the mean squared
    distance between FK joints and its observed joints over the root
    transform and 15 joint rotations, by at most `max_iter` guarded
    Levenberg-Marquardt iterations (`_lm_fit`; the fitted MSE never exceeds
    the start's).  The start is `init`'s pose at that frame, or else a
    closed-form swing init (`_swing_init`): a Kabsch fit of the palm for
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
    if F == 0:
        raise ValueError("empty trajectory")
    if not soft_limit_weight >= 0.0:
        raise ValueError("soft limit weight must be >= 0, got %r"
                         % (soft_limit_weight,))
    if init is not None and init.n_frames != F:
        raise ValueError("init clip has %d frames, the trajectory %d"
                         % (init.n_frames, F))
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
