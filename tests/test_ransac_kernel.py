"""The batched RANSAC kernel against the per-point scalar oracle, bit for
bit, and against the pair-first rule and the former kernel (SVD pair DLTs,
fixed polish) within stated bounds."""

import functools
import itertools
import warnings

import numpy as np
import pytest

import _scalar_ransac as scalar
import _synth
from pianomotion import keyboard, reconstruction as rec
from pianomotion.hand import SkeletonPair
from pianomotion.lsq import solve_stacked


def arc_rig(n_views):
    center = np.asarray((0.25, 0.1, 0.0))
    eyes = [center + (0.9 * np.cos(a), 0.9 * np.sin(a), 1.1 + 0.05 * i)
            for i, a in enumerate(np.linspace(0.3, 2.8, n_views))]
    return np.stack([_synth.look_at_camera(e, center) for e in eyes])


def project(projections, points):
    """(N, V, 2) exact pixel coordinates of world points."""
    ph = np.einsum("vij,nj->nvi", projections[:, :, :3], points)
    ph += projections[:, :, 3]
    return ph[..., :2] / ph[..., 2:]


def corrupt(rng, uv, noise=0.4, outliers=0.15, dropped=0.15):
    """Noisy copy of uv with outlier views, plus a valid mask with drops."""
    uv = uv + rng.normal(0.0, noise, uv.shape)
    bad = rng.random(uv.shape[:2]) < outliers
    uv[bad] += rng.normal(0.0, 60.0, (int(bad.sum()), 2))
    valid = rng.random(uv.shape[:2]) >= dropped
    return uv, valid


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def assert_matches_oracle(uv, projections, valid, conf, threshold=8.0,
                          max_iters=20, seed=0):
    rig = rec.CameraRig(projections)
    with np.errstate(all="ignore"):
        got = rec.ransac_triangulate(uv, rig, valid=valid, conf=conf,
                                     reproj_threshold=threshold,
                                     max_iters=max_iters, seed=seed)
    for i in range(len(uv)):
        with np.errstate(all="ignore"):
            (point, inliers, ok, ambiguous, consensus, residual, iterations,
             stop) = scalar.ransac_triangulate(uv[i], projections, valid[i],
                                               conf[i], threshold, max_iters,
                                               seed)
        assert bits(got.point[i]) == bits(point), i
        assert np.array_equal(got.inliers[i], inliers), i
        assert bool(got.valid[i]) == ok, i
        assert bool(got.ambiguous[i]) == ambiguous, i
        assert bool(got.consensus[i]) == consensus, i
        assert bits(got.residual[i]) == bits(residual), i
        assert got.polish_iterations[i] == iterations, i
        assert got.polish_stop[i] == stop, i
    return got


def noisy_hands_scene():
    rng = np.random.default_rng(3)
    rig = _synth.five_camera_rig()
    geom = keyboard.build_keyboard()
    frames = [(_synth.parked_pose(0, x=-0.1), _synth.hover_pose(geom, 1, k))
              for k in (38, 40, 42)]
    uv, conf, valid, _ = _synth.project_clip(_synth.pose_clip(60.0, frames),
                                             SkeletonPair.default(), rig)
    uv = uv.transpose(0, 2, 3, 1, 4).reshape(-1, rig.n_views, 2)
    conf = rng.uniform(0.2, 1.0, (len(uv), rig.n_views))
    uv, valid = corrupt(rng, uv)
    valid[:4] = [True, False, False, False, False]       # one view
    valid[4] = False                                       # none
    return uv, rig.projections, valid, conf, {}


def sampled_pairs_scene(n_views):
    rng = np.random.default_rng(n_views)
    projections = arc_rig(n_views)
    points = rng.uniform((-0.1, -0.05, -0.05), (0.6, 0.3, 0.2), (40, 3))
    uv, valid = corrupt(rng, project(projections, points))
    conf = rng.uniform(0.0, 1.0, valid.shape)
    # 6 < 10 pairs from 5 views on: those points draw a seeded sample.
    return uv, projections, valid, conf, {"max_iters": 6, "seed": n_views}


def same_pair_counts_scene():
    # Seven cameras and max_iters 6: every point with 5 valid views (10
    # pairs) tries one seeded sample of 6 pairs, whichever 5 views it has,
    # and every point with 6 valid views (15 pairs) another; a point with
    # 4 valid views (6 pairs) tries them all.
    rng = np.random.default_rng(29)
    projections = arc_rig(7)
    valid = np.array([np.isin(np.arange(7), views) for n in (4, 5, 6)
                      for views in itertools.combinations(range(7), n)])
    points = rng.uniform((-0.1, -0.05, -0.05), (0.6, 0.3, 0.2),
                         (len(valid), 3))
    uv, _ = corrupt(rng, project(projections, points), outliers=0.25)
    conf = rng.uniform(0.2, 1.0, valid.shape)
    return uv, projections, valid, conf, {"max_iters": 6, "seed": 4}


def zero_confidence_scene():
    rng = np.random.default_rng(7)
    projections = arc_rig(5)
    points = rng.uniform((-0.1, -0.05, -0.05), (0.6, 0.3, 0.2), (60, 3))
    uv, valid = corrupt(rng, project(projections, points))
    conf = rng.uniform(0.0, 1.0, valid.shape)
    conf[:20] = 0.0                                   # all non-positive
    conf[20:40][rng.random((20, 5)) < 0.5] = 0.0      # some zero
    return uv, projections, valid, conf, {}


def duplicated_views_scene():
    rng = np.random.default_rng(11)
    projections = arc_rig(5)
    projections[1] = projections[0]
    projections[4] = projections[3]
    points = rng.uniform((-0.1, -0.05, -0.05), (0.6, 0.3, 0.2), (40, 3))
    uv, valid = corrupt(rng, project(projections, points), outliers=0.1)
    uv[:, 1] = uv[:, 0]
    uv[:20, 4] = uv[:20, 3]
    conf = rng.uniform(0.0, 1.0, valid.shape)
    return uv, projections, valid, conf, {}


def ambiguous_scene():
    # Each pair of cameras sees its own point: no inlier set beats size two
    # and different size-two sets tie.
    rng = np.random.default_rng(5)
    projections = arc_rig(6)
    a = rng.uniform((-0.1, -0.05, -0.05), (0.6, 0.3, 0.2), (30, 3))
    b = a + rng.uniform(0.05, 0.1, (30, 3))
    c = a - rng.uniform(0.05, 0.1, (30, 3))
    uv = project(projections, a)
    uv[:, 2:4] = project(projections, b)[:, 2:4]
    uv[:15, 4:] = project(projections, c)[:15, 4:]
    valid = np.ones(uv.shape[:2], dtype=bool)
    conf = np.ones(uv.shape[:2])
    return uv, projections, valid, conf, {}


def exact_views_scene():
    # Exact projections, a few views dropped: every point with two or more
    # valid views agrees, and its polished refit and its pair points all
    # sit at the rounding floor, where the rules differ by the last bits.
    rng = np.random.default_rng(37)
    projections = arc_rig(5)
    points = rng.uniform((-0.1, -0.05, -0.05), (0.6, 0.3, 0.2), (60, 3))
    valid = rng.random((60, 5)) >= 0.15
    conf = rng.uniform(0.2, 1.0, valid.shape)
    return project(projections, points), projections, valid, conf, {}


def test_kernel_matches_oracle_on_noisy_hands():
    uv, projections, valid, conf, _ = noisy_hands_scene()
    got = assert_matches_oracle(uv, projections, valid, conf)
    assert (~got.valid).any() and got.valid.sum() > 100
    assert (got.inliers.sum(axis=1) < valid.sum(axis=1))[got.valid].any()


@pytest.mark.parametrize("n_views", [3, 4, 5, 6, 7, 8])
def test_kernel_matches_oracle_on_sampled_pairs(n_views):
    uv, projections, valid, conf, kw = sampled_pairs_scene(n_views)
    got = assert_matches_oracle(uv, projections, valid, conf, **kw)
    assert got.valid.any()


def test_kernel_matches_oracle_on_same_pair_counts_from_other_views():
    uv, projections, valid, conf, kw = same_pair_counts_scene()
    counts = valid.sum(axis=1)
    assert sorted(set(counts.tolist())) == [4, 5, 6]
    got = assert_matches_oracle(uv, projections, valid, conf, **kw)
    # Points of each valid-view count reach an inlier set, so every draw
    # decides results.
    assert all(got.valid[counts == n].sum() >= 5 for n in (4, 5, 6))


def test_kernel_matches_oracle_with_zero_confidences():
    got = assert_matches_oracle(*zero_confidence_scene()[:4])
    assert got.valid[:20].all()


def test_kernel_matches_oracle_with_duplicated_views():
    got = assert_matches_oracle(*duplicated_views_scene()[:4])
    assert got.valid.any()


def test_kernel_matches_oracle_on_ambiguous_splits():
    got = assert_matches_oracle(*ambiguous_scene()[:4])
    assert got.ambiguous[:15].sum() >= 10 and not got.ambiguous[15:].any()


ORACLE_SCENES = {
    "noisy hands": noisy_hands_scene,
    **{"%d views, sampled pairs" % n: functools.partial(sampled_pairs_scene, n)
       for n in (3, 4, 5, 6, 7, 8)},
    "zero confidences": zero_confidence_scene,
    "duplicated views": duplicated_views_scene,
    "ambiguous splits": ambiguous_scene,
    "exact views": exact_views_scene,
}


def test_kernel_matches_oracle_on_exact_views():
    uv, projections, valid, conf, _ = exact_views_scene()
    got = assert_matches_oracle(uv, projections, valid, conf)
    assert np.array_equal(got.consensus, valid.sum(axis=1) >= 2)
    assert np.array_equal(got.inliers[got.valid], valid[got.valid])


@pytest.mark.parametrize("name", ORACLE_SCENES)
def test_consensus_first_agrees_with_pair_first(name):
    """Against the rule that ran the pair stage on every point: the same
    inlier sets, valid points and ambiguity everywhere, and points within
    1e-12 m.  Consensus points lose their pair candidates, which win only
    by rounding on exact views."""
    uv, projections, valid, conf, kw = ORACLE_SCENES[name]()
    rig = rec.CameraRig(projections)
    with np.errstate(all="ignore"):
        got = rec.ransac_triangulate(uv, rig, valid=valid, conf=conf, **kw)
        old = [scalar.ransac_triangulate(
            uv[i], projections, valid[i], conf[i], 8.0,
            kw.get("max_iters", 20), kw.get("seed", 0), pair_first=True)
            for i in range(len(uv))]
    point, inliers, ok, ambiguous = (np.array([o[k] for o in old])
                                     for k in range(4))
    assert np.array_equal(got.inliers, inliers)
    assert np.array_equal(got.valid, ok)
    assert np.array_equal(got.ambiguous, ambiguous)
    assert not (got.ambiguous & got.consensus).any()
    assert np.max(np.abs(got.point[ok] - point[ok])) <= 1e-12
    moved = np.any(got.point[ok] != point[ok], axis=-1)
    assert moved.any() == (name == "exact views")


@pytest.mark.parametrize("name", ORACLE_SCENES)
def test_kernel_agrees_with_svd_pairs_and_fixed_polish(name):
    """Against the former kernel (SVD pair DLTs, ten polish iterations):
    the same inlier sets and valid points everywhere, and final points
    within 1e-8 m (at most 1.4e-9 m, on the noisy hands).  The one change
    in ambiguity: a duplicated camera's pair of identical rays gave the
    SVD some point on that ray, whose two views tied with another pair's
    inlier set; it is no candidate now."""
    uv, projections, valid, conf, kw = ORACLE_SCENES[name]()
    rig = rec.CameraRig(projections)
    with np.errstate(all="ignore"):
        got = rec.ransac_triangulate(uv, rig, valid=valid, conf=conf, **kw)
        old = [scalar.ransac_triangulate(
            uv[i], projections, valid[i], conf[i], 8.0,
            kw.get("max_iters", 20), kw.get("seed", 0), legacy=True)
            for i in range(len(uv))]
    point, inliers, ok, ambiguous = (np.array([o[k] for o in old])
                                     for k in range(4))
    assert np.array_equal(got.inliers, inliers)
    assert np.array_equal(got.valid, ok)
    changed = np.flatnonzero(got.ambiguous != ambiguous).tolist()
    assert changed == ([14] if name == "duplicated views" else [])
    assert np.max(np.abs(got.point[ok] - point[ok])) <= 1e-8


def noisy_points(rng, projections, n, noise=0.4):
    points = rng.uniform((-0.1, -0.05, -0.05), (0.6, 0.3, 0.2), (n, 3))
    return project(projections, points) + rng.normal(0.0, noise, (n, len(projections), 2))


def test_same_centre_views_are_degenerate_not_consensus():
    """Two valid views from one camera centre: every point on the ray
    reprojects exactly, so only `_dlt`'s degenerate flag keeps the point
    from agreeing.  It stays invalid, as under the pair-first rule."""
    rng = np.random.default_rng(41)
    for _ in range(10):
        eye = np.asarray((0.25, 0.1, 1.5)) + rng.uniform(-0.5, 0.5, 3)
        projections = np.stack([
            _synth.look_at_camera(eye, (0.25, 0.1, 0.0)),
            _synth.look_at_camera(eye, (0.25, 0.1, 0.0)
                                  + rng.uniform(-0.3, 0.3, 3))])
        uv = project(projections, rng.normal((0.25, 0.1, 0.0), 0.05, (1, 3)))
        point, degenerate = rec._dlt(uv, projections, np.ones((1, 2)))
        assert degenerate[0]
        assert (rec._reprojection_errors(point, uv, projections) < 1e-6).all()
        got = assert_matches_oracle(uv, projections, np.ones((1, 2), bool),
                                    np.ones((1, 2)))
        assert not got.consensus[0] and not got.valid[0]
        assert scalar.ransac_triangulate(uv[0], projections, [True, True],
                                         np.ones(2), 8.0, 20, 0,
                                         pair_first=True)[2] is False


def test_one_outlier_view_takes_the_pair_stage():
    rng = np.random.default_rng(43)
    projections = arc_rig(5)
    uv = noisy_points(rng, projections, 30)
    bad = rng.integers(0, 5, 30)
    uv[np.arange(30), bad] += rng.choice([-1.0, 1.0], (30, 2)) * 60.0
    valid = np.ones((30, 5), dtype=bool)
    conf = rng.uniform(0.2, 1.0, valid.shape)
    got = assert_matches_oracle(uv, projections, valid, conf)
    assert not got.consensus.any() and got.valid.all()
    assert np.array_equal(got.inliers, np.arange(5) != bad[:, None])
    for i in range(30):
        old = scalar.ransac_triangulate(uv[i], projections, valid[i], conf[i],
                                        8.0, 20, 0, pair_first=True)
        assert np.array_equal(got.inliers[i], old[1]), i


def test_two_valid_views():
    """Two agreeing views are a consensus.  Pushed apart off their epipolar
    lines, two views can still meet within the threshold at the weighted
    DLT (a consensus), only at the pair point (which makes its own inlier
    set, as under the pair-first rule), or nowhere (invalid)."""
    rng = np.random.default_rng(47)
    projections = arc_rig(5)
    uv = noisy_points(rng, projections, 40)
    valid = np.zeros((40, 5), dtype=bool)
    for i in range(40):
        valid[i, rng.choice(5, 2, replace=False)] = True
    first = np.argmax(valid, axis=1)
    uv[np.arange(20, 40), first[20:]] += (90.0, -70.0)
    conf = rng.uniform(0.2, 1.0, valid.shape)
    got = assert_matches_oracle(uv, projections, valid, conf)
    assert got.consensus[:20].all()
    assert np.array_equal(got.inliers[:20], valid[:20])
    for i in range(20, 40):
        old = scalar.ransac_triangulate(uv[i], projections, valid[i], conf[i],
                                        8.0, 20, 0, pair_first=True)
        assert np.array_equal(got.inliers[i], old[1]), i
        assert got.valid[i] == old[2], i
    pushed = got.consensus[20:], got.valid[20:]
    assert pushed[0].any() and (pushed[1] & ~pushed[0]).any()
    assert (~pushed[1]).any()


def test_invalid_views_with_non_finite_pixels():
    """NaN and inf in invalid views give the results zeros give there; a
    valid view that is not finite cannot agree and takes the pair stage,
    which drops it."""
    rng = np.random.default_rng(53)
    projections = arc_rig(5)
    uv = noisy_points(rng, projections, 30)
    valid = rng.random((30, 5)) >= 0.3
    valid[:, :2] = True
    conf = rng.uniform(0.2, 1.0, valid.shape)
    zeroed = np.where(valid[..., None], uv, 0.0)
    junk = np.where(valid[..., None], uv,
                    rng.choice([np.nan, np.inf, -np.inf], uv.shape))
    want = assert_matches_oracle(zeroed, projections, valid, conf)
    got = assert_matches_oracle(junk, projections, valid, conf)
    assert got.consensus.all()
    for field in ("point", "inliers", "consensus", "residual"):
        assert (getattr(got, field).tobytes()
                == getattr(want, field).tobytes()), field
    junk[:10, 0] = (np.nan, 1.0)
    junk[10:20, 0] = (np.inf, 1.0)
    got = assert_matches_oracle(junk, projections, valid, conf)
    assert not got.consensus[:20].any() and got.consensus[20:].all()
    assert got.valid[:20].sum() >= 10
    assert np.array_equal(got.inliers[:20], (valid[:20] & (np.arange(5) > 0)
                                             & got.valid[:20, None]))


@pytest.mark.parametrize("bad", [(np.inf, 1.0), (-np.inf, 1.0),
                                 (1.0, np.inf), (np.inf, -np.inf)])
def test_inf_in_a_valid_view_gives_nans_result_without_warnings(bad):
    """An inf pixel in a valid view takes a NaN's path: the same result,
    and no floating-point warning on the way, even with warnings as
    errors."""
    projections = arc_rig(5)
    uv = project(projections, np.array([[0.25, 0.1, 0.02]] * 2))
    uv[0, 0], uv[1, 0] = bad, (np.nan, 1.0)
    rig = rec.CameraRig(projections)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = (rec.ransac_triangulate(uv[i], rig) for i in (0, 1))
    for field in ("point", "inliers", "valid", "ambiguous", "consensus",
                  "residual", "polish_iterations"):
        assert bits(getattr(got, field)) == bits(getattr(want, field)), field
    assert got.polish_stop == want.polish_stop
    assert got.valid and got.inliers.tolist() == [False] + [True] * 4


def test_all_non_positive_confidences_weigh_views_equally():
    rng = np.random.default_rng(59)
    projections = arc_rig(5)
    uv = noisy_points(rng, projections, 20)
    valid = np.ones((20, 5), dtype=bool)
    conf = -rng.uniform(0.0, 1.0, valid.shape)
    conf[:10, 0] = 0.0
    got = assert_matches_oracle(uv, projections, valid, conf)
    want = assert_matches_oracle(uv, projections, valid, np.ones((20, 5)))
    assert got.consensus.all()
    assert bits(got.point) == bits(want.point)
    assert bits(got.residual) == bits(want.residual)


def test_consensus_ignores_the_pair_sample():
    """Eight views give 28 pairs, more than 20 iterations: the pair stage
    draws a sample by seed, but a consensus point never reaches it."""
    rng = np.random.default_rng(61)
    projections = arc_rig(8)
    uv = noisy_points(rng, projections, 20)
    valid = np.ones((20, 8), dtype=bool)
    valid[10:, 3] = False
    conf = rng.uniform(0.2, 1.0, valid.shape)
    results = [assert_matches_oracle(uv, projections, valid, conf, seed=seed)
               for seed in range(4)]
    for got in results:
        assert got.consensus.all()
        assert np.array_equal(got.inliers, valid)
        assert bits(got.point) == bits(results[0].point)


def test_mixed_batch_gives_each_point_its_own_result():
    uv, projections, valid, conf, _ = noisy_hands_scene()
    rig = rec.CameraRig(projections)
    with np.errstate(all="ignore"):
        batch = rec.ransac_triangulate(uv, rig, valid=valid, conf=conf)
        assert batch.consensus.any() and (batch.valid & ~batch.consensus).any()
        for i in range(len(uv)):
            one = rec.ransac_triangulate(uv[i], rig, valid=valid[i],
                                         conf=conf[i])
            assert bits(one.point) == bits(batch.point[i]), i
            assert np.array_equal(one.inliers, batch.inliers[i]), i
            assert (one.valid, one.ambiguous, one.consensus) == (
                batch.valid[i], batch.ambiguous[i], batch.consensus[i]), i
            assert bits(one.residual) == bits(batch.residual[i]), i
            assert (one.polish_iterations, one.polish_stop) == (
                batch.polish_iterations[i], batch.polish_stop[i]), i


def translated_pair(rng):
    """Two cameras with one orientation, 0.2-0.9 m apart, and the pixel of
    a direction that both see: their rays through it are parallel."""
    eye = np.asarray((0.25, 0.1, 0.0)) + rng.uniform(-1.0, 1.0, 3) + (0, 0, 1.5)
    a = _synth.look_at_camera(eye, (0.25, 0.1, 0.0))
    b = a.copy()
    b[:, 3] -= a[:, :3] @ rng.uniform(-0.5, 0.5, 3)
    ph = a[:, :3] @ ((0.25, 0.1, 0.0) - eye + rng.normal(0.0, 0.05, 3))
    return np.stack([a, b]), np.tile(ph[:2] / ph[2], (2, 1))


def test_parallel_ray_pair_gives_no_point():
    rng = np.random.default_rng(17)
    for _ in range(20):
        projections, uv = translated_pair(rng)
        assert np.isnan(rec._pair_points(uv[None], projections,
                                         np.array([[0, 1]]))).all()
        assert np.isnan(scalar.pair_point(uv, projections)).all()
        assert np.isnan(scalar.triangulate_point(uv, projections)[0]).all()
        res = rec.ransac_triangulate(uv, rec.CameraRig(projections))
        assert not res.valid and res.polish_stop is None
        # Nudged off parallel, the rays meet.
        uv[1, 0] += 5.0
        assert np.isfinite(rec._pair_points(uv[None], projections,
                                            np.array([[0, 1]]))).all()


def test_polish_stops_at_the_start_on_zero_depth():
    rng = np.random.default_rng(19)
    projections = arc_rig(4)
    points = rng.uniform((-0.1, -0.05, -0.05), (0.6, 0.3, 0.2), (6, 3))
    uv = project(projections, points) + rng.normal(0.0, 0.5, (6, 4, 2))
    start = points + rng.normal(0.0, 1e-3, points.shape)
    # Point 2 starts in camera 1's focal plane, beside the camera.
    P = projections[1]
    side = np.cross(P[2, :3], (0.0, 0.0, 1.0))
    start[2] = -np.linalg.solve(P[:, :3], P[:, 3]) + 0.1 * side / np.linalg.norm(side)
    assert abs(P[2, :3] @ start[2] + P[2, 3]) < 1e-12
    weights = rng.uniform(0.2, 1.0, (6, 4))
    P = np.broadcast_to(projections, (6, 4, 3, 4))
    got, iterations, stop = rec._polish(start, uv, P, weights)
    assert got[2].tobytes() == start[2].tobytes()
    assert (iterations[2], stop[2]) == (1, "stalled")
    for i in range(6):
        x, n, why = scalar.polish(start[i], uv[i], projections, weights[i])
        assert got[i].tobytes() == x.tobytes(), i
        assert (iterations[i], stop[i]) == (n, why), i
    assert "stalled" not in np.delete(stop, 2)


def test_single_point_call_returns_scalars():
    projections = arc_rig(5)
    uv = project(projections, np.array([[0.3, 0.1, 0.02]]))
    batch = assert_matches_oracle(uv, projections, np.ones((1, 5), bool),
                                  np.ones((1, 5)))
    one = rec.ransac_triangulate(uv[0], rec.CameraRig(projections))
    assert type(one.valid) is bool and type(one.ambiguous) is bool
    assert type(one.consensus) is bool and one.consensus
    assert type(one.residual) is float
    assert bits(one.point) == bits(batch.point[0])
    assert bits(one.residual) == bits(batch.residual[0])


def test_batched_triangulate_point_equals_each_point():
    rng = np.random.default_rng(2)
    projections = arc_rig(4)
    uv = project(projections, rng.uniform(0.0, 0.3, (25, 3)))
    uv += rng.normal(0.0, 2.0, uv.shape)
    weights = rng.uniform(0.0, 1.0, (25, 4))
    stacked, flags = rec._dlt(uv, projections, weights)
    for i in range(len(uv)):
        point, degenerate = scalar.triangulate_point(uv[i], projections,
                                                     weights[i])
        assert bits(stacked[i]) == bits(point)
        assert flags[i] == degenerate


def test_solve_flags_only_the_singular_systems():
    H = np.stack([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)])
    g = np.ones((3, 3, 1))
    step, singular = solve_stacked(H, g)
    assert singular.tolist() == [False, True, False]
    assert np.array_equal(step[0], g[0]) and np.array_equal(step[2], g[2] / 2)


@pytest.mark.parametrize("block", [1, 5, 42, 100])
def test_triangulation_does_not_depend_on_block_size(geom, skeletons,
                                                     monkeypatch, block):
    rng = np.random.default_rng(13)
    rig = _synth.five_camera_rig()
    frames = [(_synth.parked_pose(0, x=-0.1), _synth.hover_pose(geom, 1, k))
              for k in (39, 41, 43)]
    uv, conf, valid, _ = _synth.project_clip(_synth.pose_clip(60.0, frames),
                                             skeletons, rig)
    uv = uv + rng.normal(0.0, 0.4, uv.shape)
    uv[rng.random(valid.shape) < 0.15] += (70.0, -40.0)
    valid &= rng.random(valid.shape) >= 0.15
    obs = rec.KeypointObservations(np.clip(uv, 0.0, 2000.0),
                                   rng.uniform(0.2, 1.0, conf.shape), valid)
    with np.errstate(all="ignore"):
        want = rec.triangulate_observations(obs, rig, 60.0)
        monkeypatch.setattr(rec, "_POINT_BLOCK", block)
        got = rec.triangulate_observations(obs, rig, 60.0)
    assert got.trajectory.to_json() == want.trajectory.to_json()
    for field in ("point", "inliers", "valid", "ambiguous", "residual",
                  "polish_iterations"):
        assert (getattr(got.ransac, field).tobytes()
                == getattr(want.ransac, field).tobytes()), field
    assert got.ransac.polish_stop.tolist() == want.ransac.polish_stop.tolist()
    assert got.ransac.point.shape == (3, 2, 21, 3)
