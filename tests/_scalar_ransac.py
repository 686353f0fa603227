"""Per-point scalar RANSAC triangulation: the oracle for the batched kernel.

This is the batched kernel in `pianomotion.reconstruction` written one
point and one view at a time: the consensus test of each point's weighted
linear least squares over all its valid views (`triangulate_point`),
closed-form pair points (`pair_point`) for the points that fail it, a
refit over the inliers, and one depth-reweighted solve from it
(`reweighted_point`).  Every sum over views runs over the point's weighted
views alone, in view order.  Tests compare the kernel against it bit for
bit.  Three earlier rules stay as the references for how far the kernel
moved from them: the rule that ran the pair stage on every point
("pair first"), the SVD DLT refit with a Levenberg-Marquardt polish under
`lsq.levenberg_marquardt`'s damping and stop rules ("lm polish"), and, on
top of the pair-first rule, the SVD pair DLT with the fixed ten-iteration
polish ("legacy").
"""

import itertools

import numpy as np

RULES = ("closed form", "pair first", "lm polish", "legacy")


def triangulate_point(uv, projections, weights=None):
    """(point, degenerate) of the weighted inhomogeneous DLT least squares
    over the given views, by its 3x3 normal equations and Cramer's rule;
    NaNs where degenerate.  A view of weight zero adds nothing."""
    if weights is None:
        weights = np.ones(len(uv))
    m = g = None
    for (u, v), P, w in zip(uv, projections, weights):
        if w == 0:
            continue
        a0, c0 = u * P[2, :3] - P[0, :3], u * P[2, 3] - P[0, 3]
        a1, c1 = v * P[2, :3] - P[1, :3], v * P[2, 3] - P[1, 3]
        mv = [w * (a0[r] * a0[c] + a1[r] * a1[c]) for r, c in
              ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]
        gv = [w * -(a0[r] * c0 + a1[r] * c1) for r in range(3)]
        m = mv if m is None else [x + y for x, y in zip(m, mv)]
        g = gv if g is None else [x + y for x, y in zip(g, gv)]
    if m is None:
        return np.full(3, np.nan), True
    m00, m01, m02, m11, m12, m22 = m
    c00 = m11 * m22 - m12 * m12
    c01 = m02 * m12 - m01 * m22
    c02 = m01 * m12 - m02 * m11
    c11 = m00 * m22 - m02 * m02
    c12 = m01 * m02 - m00 * m12
    c22 = m00 * m11 - m01 * m01
    det = m00 * c00 + m01 * c01 + m02 * c02
    if not det > 1e-12 * (m00 * m11 * m22):
        return np.full(3, np.nan), True
    x = (c00 * g[0] + c01 * g[1] + c02 * g[2]) / det
    y = (c01 * g[0] + c11 * g[1] + c12 * g[2]) / det
    z = (c02 * g[0] + c12 * g[1] + c22 * g[2]) / det
    if not np.sqrt(x * x + y * y + z * z) <= 1e12:
        return np.full(3, np.nan), True
    return np.array([x, y, z]), False


def pair_point(uv, projections):
    """Closed-form point of a two-view pair, or NaNs."""
    return triangulate_point(uv, projections)[0]


def dlt_point(uv, projections, weights=None):
    """(point, degenerate) of the former homogeneous DLT over the given
    views: the right singular vector of the smallest singular value of the
    rows u*P[2] - P[0] and v*P[2] - P[1], scaled by the view's weight."""
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


def project(point, P):
    """The homogeneous pixel of a point in one view, row by row."""
    x, y, z = point
    return [P[r, 0] * x + P[r, 1] * y + P[r, 2] * z + P[r, 3]
            for r in range(3)]


def reprojection_errors(point, uv, projections):
    out = np.empty(uv.shape[0])
    for i in range(uv.shape[0]):
        p0, p1, depth = project(point, projections[i])
        if abs(depth) < 1e-12:
            out[i] = np.inf
            continue
        du = p0 / depth - uv[i, 0]
        dv = p1 / depth - uv[i, 1]
        out[i] = np.sqrt(du * du + dv * dv)
    return out


def weighted_sse(point, uv, projections, weights):
    """The weighted SSE over the views of nonzero weight, in view order."""
    total = 0.0
    for e, w in zip(reprojection_errors(point, uv, projections), weights):
        if w != 0:
            total = total + w * (e * e)
    return total


def reweighted_point(refit, uv, projections, weights):
    """One linear solve with each view's weight w over its squared depth
    at the refit; the refit where that solve is degenerate."""
    depths = [project(refit, P)[2] for P in projections]
    point, degenerate = triangulate_point(
        uv, projections, [w / (d * d) if w != 0 else w
                          for w, d in zip(weights, depths)])
    return refit if degenerate else point


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
    """The "lm polish" rule's polish: Gauss-Newton steps under the rules of
    `lsq.levenberg_marquardt`: damping from 1e-6, halved (to 1e-12) on an
    accepted step and 10x on a rejected one; a stop on an accepted step to
    an SSE below 1e-24 or that gains at most 1e-6 of it, on a singular
    system (zero depth included) or on damping above 1e8."""
    x = np.array(point, dtype=np.float64)
    best = weighted_sse(x, uv, projections, weights)
    system = linearise(x, uv, projections, weights)
    lam = 1e-6
    for _ in range(max_iter):
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
        if converged or singular or lam > 1e8:
            break
    return x


def gauss_newton_polish(point, uv, projections, weights, iters=10):
    """The legacy polish: ten damped Gauss-Newton iterations, with no
    convergence stop."""
    x = np.array(point, dtype=np.float64)
    best = weighted_sse(x, uv, projections, weights)
    lam = 1e-6
    for _ in range(iters):
        system = linearise(x, uv, projections, weights)
        if system is None:
            return x
        JtJ, Jtr = system
        try:
            step = np.linalg.solve(JtJ + lam * np.eye(3), Jtr)
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
                       max_iters, seed, rule="closed form"):
    """(point, inliers, valid, ambiguous, consensus, residual) of one point
    under one of RULES."""
    assert rule in RULES
    n = projections.shape[0]
    view_ids = np.nonzero(valid)[0]
    invalid = (np.full(3, np.nan), np.zeros(n, dtype=bool), False, False,
               False, np.inf)
    if len(view_ids) < 2:
        return invalid
    svd = rule in ("lm polish", "legacy")

    def weights(views):
        w = conf[views]
        return np.ones_like(w) if np.all(w <= 0) else w

    def refit_of(views):
        w = weights(views)
        if svd:
            return dlt_point(uv[views], projections[views], w)
        return triangulate_point(uv[views], projections[views], w * w)

    consensus = False
    if rule in ("closed form", "lm polish") and np.all(
            np.isfinite(uv[view_ids])):
        point, degenerate = refit_of(view_ids)
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
            if rule == "legacy":
                point, _ = dlt_point(uv[[a, b]], projections[[a, b]])
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
    refit, _ = refit_of(inlier_views)
    if np.all(np.isfinite(refit)):
        if rule == "legacy":
            candidates += [refit, gauss_newton_polish(refit, in_uv, in_P,
                                                      in_w)]
        elif rule == "lm polish":
            candidates += [refit, polish(refit, in_uv, in_P, in_w)]
        else:
            candidates.append(reweighted_point(refit, in_uv, in_P, in_w))
    scores = [weighted_sse(p, in_uv, in_P, in_w) for p in candidates]
    best = candidates[int(np.argmin(scores))]
    inliers_full = np.zeros(n, dtype=bool)
    inliers_full[inlier_views] = True
    total = 0.0
    for w in in_w:
        total = total + w
    rms = float(np.sqrt(min(scores) / total))
    return (np.array(best), inliers_full, True, ambiguous, consensus, rms)
