"""Per-point scalar RANSAC triangulation: the oracle for the batched kernel.

This is the batched kernel in `pianomotion.reconstruction` written one
point and one view at a time: the consensus test of each point's weighted
DLT over all its valid views, closed-form pair points (`pair_point`) for
the points that fail it, and a polish under `lsq.levenberg_marquardt`'s
damping and stop rules (`polish`).  Tests compare the kernel against it
bit for bit.  The rule that ran the pair stage on every point
(`pair_first=True`), and on top of it the SVD pair DLT and the fixed
ten-iteration polish (`legacy=True`), stay as the references for how far
the kernel moved from them.
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


def pair_point(uv, projections):
    """Closed-form point of a two-view pair, or NaNs: the inhomogeneous DLT
    least squares by its 3x3 normal equations and Cramer's rule."""
    terms = []
    for (u, v), P in zip(uv, projections):
        a0, c0 = u * P[2, :3] - P[0, :3], u * P[2, 3] - P[0, 3]
        a1, c1 = v * P[2, :3] - P[1, :3], v * P[2, 3] - P[1, 3]
        terms.append(([a0[r] * a0[c] + a1[r] * a1[c] for r, c in
                       ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))],
                      [-(a0[r] * c0 + a1[r] * c1) for r in range(3)]))
    (m_a, g_a), (m_b, g_b) = terms
    m = [x + y for x, y in zip(m_a, m_b)]
    g = [x + y for x, y in zip(g_a, g_b)]
    m00, m01, m02, m11, m12, m22 = m
    c00 = m11 * m22 - m12 * m12
    c01 = m02 * m12 - m01 * m22
    c02 = m01 * m12 - m02 * m11
    c11 = m00 * m22 - m02 * m02
    c12 = m01 * m02 - m00 * m12
    c22 = m00 * m11 - m01 * m01
    det = m00 * c00 + m01 * c01 + m02 * c02
    if not det > 1e-12 * (m00 * m11 * m22):
        return np.full(3, np.nan)
    point = np.array([c00 * g[0] + c01 * g[1] + c02 * g[2],
                      c01 * g[0] + c11 * g[1] + c12 * g[2],
                      c02 * g[0] + c12 * g[1] + c22 * g[2]]) / det
    if not np.linalg.norm(point) <= 1e12:
        return np.full(3, np.nan)
    return point


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


def linearise(x, uv, projections, weights):
    """(J^T J, J^T r) of the weighted reprojection residuals at x, or None
    when a camera sees x at zero depth."""
    J = []
    r = []
    for i in range(uv.shape[0]):
        P = projections[i]
        ph = P @ np.append(x, 1.0)
        if abs(ph[2]) < 1e-12:
            return None
        w = np.sqrt(weights[i])
        proj = ph[:2] / ph[2]
        r.extend(w * (proj - uv[i]))
        Ji = (P[:2, :3] - np.outer(proj, P[2, :3])) / ph[2]
        J.append(w * Ji)
    J = np.vstack(J)
    return J.T @ J, J.T @ np.asarray(r)


def polish(point, uv, projections, weights, max_iter=10):
    """(point, iterations, stop) of Gauss-Newton steps under the rules of
    `lsq.levenberg_marquardt`: damping from 1e-6, halved (to 1e-12) on an
    accepted step and 10x on a rejected one; "converged" on an accepted
    step to an SSE below 1e-24 or that gains at most 1e-6 of it, "stalled"
    on a singular system (zero depth included) or damping above 1e8."""
    x = np.array(point, dtype=np.float64)
    best = weighted_sse(x, uv, projections, weights)
    system = linearise(x, uv, projections, weights)
    lam = 1e-6
    for it in range(1, max_iter + 1):
        singular = system is None
        step = np.zeros(3)
        if not singular:
            JtJ, Jtr = system
            try:
                step = np.linalg.solve(JtJ + lam * np.eye(3), Jtr)
            except np.linalg.LinAlgError:
                singular = True
        cand = x - step
        sse = weighted_sse(cand, uv, projections, weights)
        better = sse < best
        converged = better and (sse < 1e-24 or best - sse <= 1e-6 * best)
        if better:
            x, best = cand, sse
            if not converged:
                system = linearise(x, uv, projections, weights)
        lam = max(lam * 0.5, 1e-12) if better else lam * 10.0
        if converged:
            return x, it, "converged"
        if singular or lam > 1e8:
            return x, it, "stalled"
    return x, max_iter, "max_iter"


def gauss_newton_polish(point, uv, projections, weights, iters=10):
    """The former polish: ten damped Gauss-Newton iterations, with no
    convergence stop."""
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
                       max_iters, seed, pair_first=False, legacy=False):
    """(point, inliers, valid, ambiguous, consensus, residual, polish
    iterations, polish stop) of one point.  `pair_first` skips the
    consensus test; `legacy` also takes the SVD pair DLT and the former
    polish, whose iterations and stop read None."""
    n = projections.shape[0]
    view_ids = np.nonzero(valid)[0]
    invalid = (np.full(3, np.nan), np.zeros(n, dtype=bool), False, False,
               False, np.inf, 0, None)
    if len(view_ids) < 2:
        return invalid

    def weights(views):
        w = conf[views]
        return np.ones_like(w) if np.all(w <= 0) else w

    consensus = False
    if not (pair_first or legacy) and np.all(np.isfinite(uv[view_ids])):
        point, degenerate = triangulate_point(
            uv[view_ids], projections[view_ids], weights(view_ids))
        consensus = bool(
            not degenerate and np.all(np.isfinite(point))
            and np.all(reprojection_errors(point, uv[view_ids],
                                           projections[view_ids])
                       <= reproj_threshold))
    best_inliers = np.ones(len(view_ids), dtype=bool)
    ambiguous = False
    pair_solutions = []
    if not consensus:
        all_pairs = list(itertools.combinations(view_ids.tolist(), 2))
        if len(all_pairs) <= max_iters:
            pairs = all_pairs
        else:
            rng = np.random.default_rng(seed)
            picks = rng.choice(len(all_pairs), size=max_iters, replace=False)
            pairs = [all_pairs[i] for i in sorted(picks)]
        best_count = 0
        best_inliers = None
        for a, b in pairs:
            if legacy:
                point, _ = triangulate_point(uv[[a, b]], projections[[a, b]])
            else:
                point = pair_point(uv[[a, b]], projections[[a, b]])
            if not np.all(np.isfinite(point)):
                continue
            errs = reprojection_errors(point, uv[view_ids],
                                       projections[view_ids])
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
    in_w = weights(inlier_views)

    candidates = list(pair_solutions)
    refit, _ = triangulate_point(in_uv, in_P, weights=in_w)
    iterations, stop = 0, None
    if np.all(np.isfinite(refit)):
        candidates.append(refit)
        if legacy:
            polished = gauss_newton_polish(refit, in_uv, in_P, in_w)
            iterations = None
        else:
            polished, iterations, stop = polish(refit, in_uv, in_P, in_w)
        candidates.append(polished)
    scores = [weighted_sse(p, in_uv, in_P, in_w) for p in candidates]
    best = candidates[int(np.argmin(scores))]
    inliers_full = np.zeros(n, dtype=bool)
    inliers_full[inlier_views] = True
    rms = float(np.sqrt(min(scores) / np.sum(in_w)))
    return (np.array(best), inliers_full, True, ambiguous, consensus, rms,
            iterations, stop)
