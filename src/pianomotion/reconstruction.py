"""Multi-view keypoint reconstruction and skeleton fitting.

Pipeline: per-joint DLT triangulation with RANSAC view rejection, linear
interpolation across short invalid gaps, zero-phase low-pass filtering of
the joint tracks, then per-frame fitting of the articulated hand skeleton
to the 3D joints by damped least-squares (Levenberg-Marquardt) minimization
of the mean squared error.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import warnings

import numpy as np

from .hand import (HandPose, HandSkeleton, MotionClip, PARAMS_PER_HAND,
                   SkeletonPair, fk_jacobian, forward_kinematics,
                   matrix_to_rotvec)

DEFAULT_IMAGE_SIZE = (3840, 2160)
DEFAULT_REPROJ_THRESHOLD = 8.0     # px
DEFAULT_RANSAC_ITERS = 20
DEFAULT_MAX_GAP = 5                # frames
DEFAULT_CUTOFF_HZ = 10.0
DEFAULT_FILTER_ORDER = 4
DEFAULT_FIT_ITERS = 200

# Points per batched RANSAC call in `triangulate_observations`.  It bounds
# the stacked pair, reprojection and polish arrays (peak 12 MB with 5 views,
# 25 MB with 8) without changing results.
_POINT_BLOCK = 2048


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
        obj = json.loads(text)
        mats = []
        for i, cam in enumerate(obj["cameras"]):
            P = np.array(cam["P"], dtype=np.float64)
            if P.shape != (3, 4):
                raise ValueError("camera %d: P must be 3x4" % i)
            if "K" in cam or "R" in cam or "t" in cam:
                K = np.array(cam["K"], dtype=np.float64)
                R = np.array(cam["R"], dtype=np.float64)
                t = np.array(cam["t"], dtype=np.float64).reshape(3, 1)
                composed = K @ np.hstack([R, t])
                if not np.allclose(composed, P, atol=1e-6):
                    raise ValueError(
                        "camera %d: K[R|t] disagrees with P beyond 1e-6" % i)
            mats.append(P)
        size = tuple(obj.get("image_size", DEFAULT_IMAGE_SIZE))
        return cls(np.stack(mats), size)


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
        obj = json.loads(text)
        return cls(np.array(obj["uv"], dtype=np.float64),
                   np.array(obj["conf"], dtype=np.float64),
                   np.array(obj["valid"], dtype=bool),
                   tuple(obj.get("image_size", DEFAULT_IMAGE_SIZE)))

    @classmethod
    def from_csv(cls, text: str,
                 image_size: tuple = DEFAULT_IMAGE_SIZE) -> "KeypointObservations":
        """Parse rows of frame,view,hand,joint,u,v,conf,valid.

        Any (frame, view, hand, joint) cell without a row is invalid.
        """
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            raise ValueError("no keypoint rows")
        n_f = max(int(r["frame"]) for r in rows) + 1
        n_v = max(int(r["view"]) for r in rows) + 1
        uv = np.zeros((n_f, n_v, 2, 21, 2))
        conf = np.zeros((n_f, n_v, 2, 21))
        valid = np.zeros((n_f, n_v, 2, 21), dtype=bool)
        for r in rows:
            f, v = int(r["frame"]), int(r["view"])
            h, j = int(r["hand"]), int(r["joint"])
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
        if not (self.fps > 0):
            raise ValueError("fps must be positive")
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.positions.ndim != 4 or self.positions.shape[1:] != (2, 21, 3):
            raise ValueError("positions must have shape (F, 2, 21, 3)")
        if self.valid.shape != self.positions.shape[:3]:
            raise ValueError("valid must have shape (F, 2, 21)")
        if not np.all(np.isfinite(self.positions[self.valid])):
            raise ValueError("valid samples must be finite")

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
        obj = json.loads(text)
        return cls(float(obj["fps"]),
                   np.array(obj["positions"], dtype=np.float64),
                   np.array(obj["valid"], dtype=bool))


class TriangulationError(ValueError):
    pass


@dataclasses.dataclass(eq=False)
class TriangulationResult:
    point: np.ndarray
    degenerate: bool


def _dlt(uv, projections, weights=None):
    """Homogeneous DLT of stacked points.

    uv is (..., n, 2), projections (..., n, 3, 4) and weights (..., n).
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


def triangulate_point(uv, projections, weights=None) -> TriangulationResult:
    """Homogeneous DLT triangulation from >= 2 views.

    uv is (V, 2) pixel coordinates, projections (V, 3, 4).  Each view adds
    the two constraints u*P[2] - P[0] and v*P[2] - P[1]; the solution is
    the right singular vector of the stacked system with the smallest
    singular value.  Rows are scaled by per-view weights when given.  Rigs
    whose rays are near-parallel (or duplicated) produce a result flagged
    degenerate rather than an error.  Leading batch axes on uv (and
    weights) triangulate a stack of points at once.
    """
    uv = np.asarray(uv, dtype=np.float64)
    projections = np.asarray(projections, dtype=np.float64)
    n = uv.shape[-2]
    if n < 2:
        raise TriangulationError("triangulation needs >= 2 views, got %d" % n)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    point, degenerate = _dlt(uv, projections, weights)
    return TriangulationResult(
        point, degenerate.item() if degenerate.ndim == 0 else degenerate)


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


def _solve(H, g):
    """np.linalg.solve on stacked systems; also flags the singular ones."""
    try:
        return np.linalg.solve(H, g), np.zeros(len(H), dtype=bool)
    except np.linalg.LinAlgError:
        if len(H) == 1:
            return np.full(g.shape, np.nan), np.ones(1, dtype=bool)
    half = len(H) // 2
    lo, lo_bad = _solve(H[:half], g[:half])
    hi, hi_bad = _solve(H[half:], g[half:])
    return np.concatenate([lo, hi]), np.concatenate([lo_bad, hi_bad])


def _gauss_newton_polish(points, uv, projections, weights, iters: int = 10):
    """Refine triangulated points by damped Gauss-Newton on reprojection.

    points (M, 3), uv (M, n, 2), projections (M, n, 3, 4), weights (M, n).
    The points step in lockstep, each with its own damping; a point stops
    when a camera sees it at zero depth, its system is singular, or its
    damping exceeds 1e3.
    """
    x = np.array(points, dtype=np.float64)
    best = _weighted_sse(x, uv, projections, weights)
    lam = np.full(len(x), 1e-6)
    # The live points' rows of every per-point array, compacted as they stop.
    live = np.arange(len(x))
    lx, lbest, llam = x, best, lam
    luv, lP, lw, lsw = uv, projections, weights, np.sqrt(weights)
    for _ in range(iters):
        xh = np.concatenate([lx, np.ones((len(lx), 1))], axis=-1)
        ph = (lP @ xh[:, None, :, None])[..., 0]
        depth = ph[..., 2]
        keep = ~np.any(np.abs(depth) < 1e-12, axis=1)
        if not keep.all():
            live, lx, lbest, llam, luv, lP, lw, lsw, ph, depth = (
                a[keep] for a in (live, lx, lbest, llam, luv, lP, lw, lsw,
                                  ph, depth))
            if not len(live):
                break
        proj = ph[..., :2] / depth[..., None]
        r = (lsw[..., None] * (proj - luv)).reshape(len(live), -1)
        # d(proj)/dx = (P[:2, :3] - proj x P[2, :3]) / depth
        Ji = (lP[..., :2, :3] - proj[..., :, None] * lP[..., None, 2, :3]
              ) / depth[..., None, None]
        J = (lsw[..., None, None] * Ji).reshape(len(live), -1, 3)
        Jt = J.swapaxes(-1, -2)
        step, singular = _solve(Jt @ J + llam[:, None, None] * np.eye(3),
                                Jt @ r[..., None])
        cand = lx - step[..., 0]
        sse = _weighted_sse(cand, luv, lP, lw)
        better = sse < lbest
        lx = np.where(better[:, None], cand, lx)
        lbest = np.where(better, sse, lbest)
        llam = np.where(better, np.maximum(llam * 0.5, 1e-9), llam * 10.0)
        x[live] = lx
        keep = ~singular & (better | (llam <= 1e3))
        if not keep.all():
            live, lx, lbest, llam, luv, lP, lw, lsw = (
                a[keep] for a in (live, lx, lbest, llam, luv, lP, lw, lsw))
    return x


@dataclasses.dataclass(eq=False)
class RansacResult:
    point: np.ndarray              # (..., 3)
    inliers: np.ndarray            # (..., V) bool over the rig's views
    valid: bool                    # bool, or a (...) bool array
    ambiguous: bool                # bool, or a (...) bool array
    residual: float                # weighted RMS px over the inlier views

    def reshape(self, shape: tuple) -> "RansacResult":
        """The result with its point axis reshaped; () gives Python scalars
        for valid, ambiguous and residual."""
        def per_point(a):
            a = a.reshape(shape)
            return a.item() if a.ndim == 0 else a

        return RansacResult(self.point.reshape(shape + (3,)),
                            self.inliers.reshape(shape + (-1,)),
                            per_point(self.valid), per_point(self.ambiguous),
                            per_point(self.residual))


def _view_pairs(view_ids: np.ndarray, max_iters: int, seed: int) -> np.ndarray:
    """(K, 2) view pairs to try: all of them, or a seeded sorted sample."""
    # Upper-triangle order is itertools.combinations order.
    all_pairs = view_ids[np.stack(np.triu_indices(len(view_ids), 1), axis=1)]
    if len(all_pairs) <= max_iters:
        return all_pairs
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(all_pairs), size=max_iters, replace=False)
    return all_pairs[np.sort(picks)]


def _ransac(uv, projections, valid, conf, reproj_threshold, max_iters,
            seed) -> RansacResult:
    """RANSAC triangulation of N points: uv (N, V, 2), valid, conf (N, V).

    Points that share a valid-view pattern share their view pairs, so the
    pair stage runs once per pattern; the refit and polish run once per
    inlier count, so every SVD sees the compact (2n, 4) system of its
    point's n inlier views.
    """
    N, V = valid.shape
    point = np.full((N, 3), np.nan)
    inliers = np.zeros((N, V), dtype=bool)
    ambiguous = np.zeros(N, dtype=bool)
    residual = np.full(N, np.inf)
    patterns, group = np.unique(valid, axis=0, return_inverse=True)
    group = group.reshape(-1)
    pairs = [_view_pairs(np.flatnonzero(p), max_iters, seed)
             if p.sum() >= 2 else np.zeros((0, 2), dtype=int)
             for p in patterns]
    # Every finite pair solution is a final candidate, in pair order.
    K = max((len(p) for p in pairs), default=0)
    pair_points = np.full((N, K, 3), np.nan)
    pair_ok = np.zeros((N, K), dtype=bool)
    for g, pattern in enumerate(patterns):
        if not len(pairs[g]):
            continue
        rows = np.flatnonzero(group == g)
        view_ids = np.flatnonzero(pattern)
        k = len(pairs[g])
        group_uv = uv[rows]
        pts, _ = _dlt(group_uv[:, pairs[g]], projections[pairs[g]])
        ok = np.all(np.isfinite(pts), axis=-1)
        errs = _reprojection_errors(pts, group_uv[:, None, view_ids],
                                    projections[view_ids])
        inl = errs <= reproj_threshold
        count = np.where(ok, inl.sum(axis=-1), -1)
        # The first pair with the most inliers wins; a later pair with as
        # many but a different inlier set makes the point ambiguous.
        m = np.arange(len(rows))
        first = np.argmax(count, axis=1)
        top = count[m, first]
        best = inl[m, first]
        tied = ((np.arange(k) > first[:, None]) & (count == top[:, None])
                & np.any(inl != best[:, None], axis=-1))
        good = top >= 2
        rows, best = rows[good], best[good]
        inliers[rows[:, None], view_ids] = best
        ambiguous[rows] = tied[good].any(axis=1)
        pair_points[rows, :k] = pts[good]
        pair_ok[rows, :k] = ok[good]

    counts = inliers.sum(axis=1)
    for n in np.unique(counts[counts >= 2]):
        rows = np.flatnonzero(counts == n)
        views = np.nonzero(inliers[rows])[1].reshape(-1, n)
        in_uv = uv[rows[:, None], views]
        in_P = projections[views]
        in_w = conf[rows[:, None], views]
        in_w = np.where(np.all(in_w <= 0, axis=1, keepdims=True), 1.0, in_w)
        refit, _ = _dlt(in_uv, in_P, in_w)
        refit_ok = np.all(np.isfinite(refit), axis=-1)
        polished = refit.copy()
        polished[refit_ok] = _gauss_newton_polish(
            refit[refit_ok], in_uv[refit_ok], in_P[refit_ok], in_w[refit_ok])
        cands = np.concatenate([pair_points[rows], refit[:, None],
                                polished[:, None]], axis=1)
        ok = np.concatenate([pair_ok[rows], refit_ok[:, None],
                             refit_ok[:, None]], axis=1)
        scores = np.where(ok, _weighted_sse(cands, in_uv[:, None],
                                            in_P[:, None], in_w[:, None]),
                          np.inf)
        # np.argmin over the candidates in order: the first lowest score,
        # or the first NaN; the residual takes Python's min, which keeps a
        # leading NaN and skips later ones.
        m = np.arange(len(rows))
        first_ok = np.argmax(ok, axis=1)
        pick = np.argmin(scores, axis=1)
        pick = np.where(scores[m, pick] == np.inf, first_ok, pick)
        lowest = np.where(np.isnan(scores[m, first_ok]), np.nan,
                          np.fmin.reduce(scores, axis=1))
        point[rows] = cands[m, pick]
        residual[rows] = np.sqrt(lowest / np.sum(in_w, axis=1))
    return RansacResult(point, inliers, counts >= 2, ambiguous, residual)


def ransac_triangulate(uv, rig: CameraRig, valid=None, conf=None,
                       reproj_threshold: float = DEFAULT_REPROJ_THRESHOLD,
                       max_iters: int = DEFAULT_RANSAC_ITERS,
                       seed: int = 0) -> RansacResult:
    """Triangulate one point while rejecting outlier views.

    View pairs are triangulated and scored by how many views reproject
    within reproj_threshold pixels.  All pairs are tried when their count
    fits in max_iters (always true for <= 5 views at the default 20);
    otherwise a seeded sample of pairs is drawn.  The best inlier set gets
    a confidence-weighted DLT refit plus a Gauss-Newton polish, and the
    candidate with the lowest weighted reprojection SSE on that set is
    returned, so the result is never worse than any sampled pair's own
    solution there.  Leading batch axes on uv (and valid, conf)
    triangulate a stack of points; each gives the same result as alone.
    """
    uv = np.asarray(uv, dtype=np.float64)
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


def butterworth_filter(series, cutoff_hz: float, fps: float,
                       order: int = DEFAULT_FILTER_ORDER) -> np.ndarray:
    """Zero-phase low-pass along axis 0 with reflective edge padding.

    The filter is designed at the given order and applied forward and
    backward, so the magnitude response is squared and the phase is zero.
    Series shorter than 3x the order are returned unfiltered with a
    warning.
    """
    series = np.asarray(series, dtype=np.float64)
    if order < 2 or order % 2 != 0:
        raise ValueError("filter order must be even and >= 2")
    if not (0 < cutoff_hz < fps / 2.0):
        raise ValueError("cutoff must lie in (0, fps/2)")
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
    val = traj.valid.copy()
    n = traj.n_frames
    for h in range(2):
        for j in range(21):
            col = val[:, h, j]
            f = 0
            while f < n:
                if col[f]:
                    f += 1
                    continue
                g = f
                while g < n and not col[g]:
                    g += 1
                gap = g - f
                if f > 0 and g < n and gap <= max_gap:
                    p0 = pos[f - 1, h, j]
                    p1 = pos[g, h, j]
                    for k in range(gap):
                        t = (k + 1) / (gap + 1)
                        pos[f + k, h, j] = (1 - t) * p0 + t * p1
                        col[f + k] = True
                f = g
    return JointTrajectory(traj.fps, pos, val)


def smooth_trajectory(traj: JointTrajectory,
                      cutoff_hz: float = DEFAULT_CUTOFF_HZ,
                      order: int = DEFAULT_FILTER_ORDER,
                      max_gap: int = DEFAULT_MAX_GAP) -> JointTrajectory:
    """Gap-interpolate then low-pass every joint track.

    Each maximal run of valid frames is filtered independently; runs too
    short for the filter pass through unchanged.
    """
    traj = interpolate_gaps(traj, max_gap)
    pos = traj.positions.copy()
    n = traj.n_frames
    for h in range(2):
        for j in range(21):
            col = traj.valid[:, h, j]
            f = 0
            while f < n:
                if not col[f]:
                    f += 1
                    continue
                g = f
                while g < n and col[g]:
                    g += 1
                if g - f >= 3 * order:
                    pos[f:g, h, j] = butterworth_filter(
                        pos[f:g, h, j], cutoff_hz, traj.fps, order)
                f = g
    return JointTrajectory(traj.fps, pos, traj.valid.copy())


@dataclasses.dataclass(eq=False)
class Triangulation:
    trajectory: JointTrajectory
    ransac: RansacResult           # fields over (F, 2, 21[, ...])


def triangulate_observations(obs: KeypointObservations, rig: CameraRig,
                             fps: float,
                             reproj_threshold: float = DEFAULT_REPROJ_THRESHOLD,
                             max_iters: int = DEFAULT_RANSAC_ITERS,
                             seed: int = 0) -> Triangulation:
    """RANSAC-triangulate every (frame, hand, joint) into a 3D trajectory.

    The points go through the batched kernel _POINT_BLOCK at a time; every
    point's result is the one `ransac_triangulate` gives it alone.  The
    per-point RANSAC arrays come back with the trajectory.
    """
    F, V = obs.n_frames, obs.n_views
    uv = obs.uv.transpose(0, 2, 3, 1, 4).reshape(-1, V, 2)
    valid = obs.valid.transpose(0, 2, 3, 1).reshape(-1, V)
    conf = obs.conf.transpose(0, 2, 3, 1).reshape(-1, V)
    blocks = [_ransac(uv[i:i + _POINT_BLOCK], rig.projections,
                      valid[i:i + _POINT_BLOCK], conf[i:i + _POINT_BLOCK],
                      reproj_threshold, max_iters, seed)
              for i in range(0, max(len(uv), 1), _POINT_BLOCK)]
    res = RansacResult(*(np.concatenate([getattr(b, f.name) for b in blocks])
                         for f in dataclasses.fields(RansacResult))
                       ).reshape((F, 2, 21))
    pos = np.where(res.valid[..., None], res.point, 0.0)
    return Triangulation(JointTrajectory(fps, pos, res.valid), res)


def _rigid_init(skeleton: HandSkeleton, y: np.ndarray,
                mask: np.ndarray) -> np.ndarray:
    """Pose vector from rigidly aligning the rest pose to observed joints."""
    rest, _ = forward_kinematics(skeleton, np.zeros(PARAMS_PER_HAND))
    vec = np.zeros(PARAMS_PER_HAND)
    idx = np.nonzero(mask)[0]
    if len(idx) >= 3:
        X = rest[idx]
        Y = y[idx]
        Xc = X - X.mean(axis=0)
        Yc = Y - Y.mean(axis=0)
        U, _, Vt = np.linalg.svd(Xc.T @ Yc)
        d = np.sign(np.linalg.det(Vt.T @ U.T))
        R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
        vec[3:6] = matrix_to_rotvec(R)
        vec[:3] = Y.mean(axis=0) - R @ X.mean(axis=0)
    elif mask[0]:
        vec[:3] = y[0]
    return vec


@dataclasses.dataclass(eq=False)
class FitResult:
    clip: MotionClip
    copied: np.ndarray             # (F, 2) True where a frame was propagated
    residual_rms: np.ndarray       # (F, 2) meters, NaN where copied


def _residual_system(skeleton, y, idx, vec, soft_limit_weight, lo, hi):
    """Stacked residuals and Jacobian whose SSE equals the fit objective."""
    p, J = fk_jacobian(skeleton, vec)
    scale = 1.0 / np.sqrt(len(idx))
    r = scale * (p[idx] - y[idx]).reshape(-1)
    Jr = scale * J[idx].reshape(3 * len(idx), PARAMS_PER_HAND)
    if soft_limit_weight > 0.0:
        th = vec[6:]
        under = np.minimum(th - lo, 0.0)
        over = np.maximum(th - hi, 0.0)
        w = np.sqrt(soft_limit_weight)
        r = np.concatenate([r, w * (under + over)])
        Jp = np.zeros((len(th), PARAMS_PER_HAND))
        Jp[np.arange(len(th)), 6 + np.arange(len(th))] = w * (
            (under < 0.0) | (over > 0.0))
        Jr = np.vstack([Jr, Jp])
    return r, Jr


def _lm_polish(skeleton, y, idx, x0, soft_limit_weight, lo, hi,
               iters: int):
    """Damped least-squares (Levenberg-Marquardt) minimization of the fit
    objective from `x0`, for at most `iters` iterations.

    Each step solves (J^T J + lam I) d = J^T r, so it lies in the row space
    of J: directions the observed joints cannot see (a finger bone's twist
    about itself) keep their starting value instead of following the
    solver's path.  Monotone by construction: steps that raise the
    objective are rejected.
    """
    vec = x0.copy()
    r, J = _residual_system(skeleton, y, idx, vec, soft_limit_weight, lo, hi)
    f = float(r @ r)
    lam = 1e-6
    eye = np.eye(PARAMS_PER_HAND)
    for _ in range(iters):
        try:
            step = np.linalg.solve(J.T @ J + lam * eye, J.T @ r)
        except np.linalg.LinAlgError:
            break
        cand = vec - step
        rc, Jc = _residual_system(skeleton, y, idx, cand, soft_limit_weight,
                                  lo, hi)
        fc = float(rc @ rc)
        if fc < f:
            vec, f, r, J = cand, fc, rc, Jc
            lam = max(lam * 0.5, 1e-12)
            if f < 1e-24:
                break
        else:
            lam *= 10.0
            if lam > 1e8:
                break
    return vec, f


def _fit_frame(skeleton: HandSkeleton, y: np.ndarray, mask: np.ndarray,
               x0: np.ndarray, max_iter: int, soft_limit_weight: float):
    idx = np.nonzero(mask)[0]
    lo = skeleton.joint_limits[:, :, 0].reshape(-1)
    hi = skeleton.joint_limits[:, :, 1].reshape(-1)
    vec, _ = _lm_polish(skeleton, y, idx, x0, soft_limit_weight, lo, hi,
                        iters=max_iter)
    p, _ = forward_kinematics(skeleton, vec)
    rms = float(np.sqrt(np.mean(np.sum((p[idx] - y[idx]) ** 2, axis=1))))
    return vec, rms


def fit_skeleton(traj: JointTrajectory, skeletons: SkeletonPair,
                 init: MotionClip | None = None,
                 max_iter: int = DEFAULT_FIT_ITERS,
                 soft_limit_weight: float = 0.0) -> FitResult:
    """Fit hand poses to a joint trajectory, frame by frame.

    Each frame minimizes the mean squared distance between FK joints and
    the valid trajectory joints over the root transform and 15 joint
    rotations, warm-started from the previous frame's fit (frame 0 from
    `init` or a rigid alignment of the rest pose), with at most `max_iter`
    Levenberg-Marquardt iterations.  The steps are guarded, so the fitted
    MSE never exceeds the starting point's, and stay in the row space of
    the joint Jacobian, so the finger twists the joints cannot observe keep
    their warm-start values and the fit is a stable function of its
    inputs.  Frames with no valid joints copy the previous pose and are
    flagged.
    """
    F = traj.n_frames
    if F == 0:
        raise ValueError("empty trajectory")
    copied = np.zeros((F, 2), dtype=bool)
    rms = np.full((F, 2), np.nan)
    frames = []
    prev_vecs = [None, None]
    for f in range(F):
        poses = []
        for h in range(2):
            skeleton = skeletons[h]
            y = traj.positions[f, h]
            mask = traj.valid[f, h]
            if mask.sum() == 0:
                copied[f, h] = True
                if prev_vecs[h] is not None:
                    vec = prev_vecs[h].copy()
                elif init is not None:
                    vec = init.pose(f, h).to_vector()
                else:
                    vec = np.zeros(PARAMS_PER_HAND)
                poses.append(HandPose.from_vector(vec))
                prev_vecs[h] = vec
                continue
            if prev_vecs[h] is not None:
                x0 = prev_vecs[h].copy()
            elif init is not None:
                x0 = init.pose(f, h).to_vector()
            else:
                x0 = _rigid_init(skeleton, y, mask)
            vec, rms[f, h] = _fit_frame(skeleton, y, mask, x0, max_iter,
                                        soft_limit_weight)
            prev_vecs[h] = vec
            poses.append(HandPose.from_vector(vec))
        frames.append((poses[0], poses[1]))
    return FitResult(MotionClip(traj.fps, frames), copied, rms)
