"""Per-point scalar RANSAC triangulation: the oracle for the batched kernel.

This is the reconstruction code the batched kernel in
`pianomotion.reconstruction` replaced, one point and one view at a time.
Tests compare the kernel against it bit for bit.
"""

import itertools

import numpy as np


def triangulate_point(uv, projections, weights=None):
    """(point, degenerate) of a homogeneous DLT over the given views."""
    n = uv.shape[0]
    A = np.empty((2 * n, 4))
    for i in range(n):
        P = projections[i]
        A[2 * i] = uv[i, 0] * P[2] - P[0]
        A[2 * i + 1] = uv[i, 1] * P[2] - P[1]
        if weights is not None:
            A[2 * i:2 * i + 2] *= weights[i]
    _, s, vt = np.linalg.svd(A)
    x = vt[-1]
    degenerate = bool(s[2] <= 1e-9 * s[0])
    if abs(x[3]) < 1e-12 * np.linalg.norm(x[:3]):
        return np.full(3, np.nan), True
    return x[:3] / x[3], degenerate


def reprojection_errors(point, uv, projections):
    n = uv.shape[0]
    out = np.empty(n)
    for i in range(n):
        ph = projections[i] @ np.append(point, 1.0)
        if abs(ph[2]) < 1e-12:
            out[i] = np.inf
            continue
        out[i] = np.linalg.norm(ph[:2] / ph[2] - uv[i])
    return out


def weighted_sse(point, uv, projections, weights):
    err = reprojection_errors(point, uv, projections)
    return float(np.sum(weights * err ** 2))


def gauss_newton_polish(point, uv, projections, weights, iters=10):
    x = np.array(point, dtype=np.float64)
    best = weighted_sse(x, uv, projections, weights)
    lam = 1e-6
    for _ in range(iters):
        J = []
        r = []
        for i in range(uv.shape[0]):
            P = projections[i]
            ph = P @ np.append(x, 1.0)
            if abs(ph[2]) < 1e-12:
                return x
            w = np.sqrt(weights[i])
            proj = ph[:2] / ph[2]
            r.extend(w * (proj - uv[i]))
            Ji = (P[:2, :3] - np.outer(proj, P[2, :3])) / ph[2]
            J.append(w * Ji)
        J = np.vstack(J)
        r = np.asarray(r)
        H = J.T @ J + lam * np.eye(3)
        try:
            step = np.linalg.solve(H, J.T @ r)
        except np.linalg.LinAlgError:
            break
        cand = x - step
        sse = weighted_sse(cand, uv, projections, weights)
        if sse < best:
            x, best = cand, sse
            lam = max(lam * 0.5, 1e-9)
        else:
            lam *= 10.0
            if lam > 1e3:
                break
    return x


def ransac_triangulate(uv, projections, valid, conf, reproj_threshold,
                       max_iters, seed):
    """(point, inliers, valid, ambiguous, residual) of one point."""
    n = projections.shape[0]
    view_ids = np.nonzero(valid)[0]
    invalid = (np.full(3, np.nan), np.zeros(n, dtype=bool), False, False,
               np.inf)
    if len(view_ids) < 2:
        return invalid
    all_pairs = list(itertools.combinations(view_ids.tolist(), 2))
    if len(all_pairs) <= max_iters:
        pairs = all_pairs
    else:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(all_pairs), size=max_iters, replace=False)
        pairs = [all_pairs[i] for i in sorted(picks)]

    best_count = 0
    best_inliers = None
    ambiguous = False
    pair_solutions = []
    for a, b in pairs:
        point, _ = triangulate_point(uv[[a, b]], projections[[a, b]])
        if not np.all(np.isfinite(point)):
            continue
        errs = reprojection_errors(point, uv[view_ids], projections[view_ids])
        inl = errs <= reproj_threshold
        pair_solutions.append(point)
        count = int(inl.sum())
        if count > best_count:
            best_count = count
            best_inliers = inl
            ambiguous = False
        elif count == best_count and best_inliers is not None:
            if not np.array_equal(inl, best_inliers):
                ambiguous = True
    if best_count < 2:
        return invalid

    inlier_views = view_ids[best_inliers]
    in_uv = uv[inlier_views]
    in_P = projections[inlier_views]
    in_w = conf[inlier_views]
    if np.all(in_w <= 0):
        in_w = np.ones_like(in_w)

    candidates = list(pair_solutions)
    refit, _ = triangulate_point(in_uv, in_P, weights=in_w)
    if np.all(np.isfinite(refit)):
        candidates.append(refit)
        candidates.append(gauss_newton_polish(refit, in_uv, in_P, in_w))
    scores = [weighted_sse(p, in_uv, in_P, in_w) for p in candidates]
    best = candidates[int(np.argmin(scores))]
    inliers_full = np.zeros(n, dtype=bool)
    inliers_full[inlier_views] = True
    rms = float(np.sqrt(min(scores) / np.sum(in_w)))
    return np.array(best), inliers_full, True, ambiguous, rms
