"""Triangulation, track filtering, and skeleton fitting."""

import functools
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

import _scalar_kinematics as scalar_kinematics
import _scalar_smooth as scalar_smooth
import _synth
from pianomotion import hand, reconstruction as rec


def simple_rig():
    return _synth.five_camera_rig()


def project_all(rig, point):
    return np.stack([rig.project(v, point) for v in range(rig.n_views)])


# ---------------------------------------------------------------------------
# Camera rig


def test_project_identity_camera():
    # K[I|0] with focal 1000 and principal point (960, 540); a point at
    # depth 1 lands at c + f * (x, y).
    K = np.array([[1000.0, 0.0, 960.0],
                  [0.0, 1000.0, 540.0],
                  [0.0, 0.0, 1.0]])
    P = np.hstack([K, np.zeros((3, 1))])
    rig = rec.CameraRig(np.stack([P, P + 0.0]), image_size=(1920, 1080))
    uv = rig.project(0, (0.1, 0.2, 1.0))
    assert np.allclose(uv, (1060.0, 740.0), atol=1e-12)


def test_rig_validation():
    good = simple_rig().projections
    with pytest.raises(ValueError, match="shape"):
        rec.CameraRig(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="2 cameras"):
        rec.CameraRig(good[:1])
    bad = good.copy()
    bad[1] = 0.0
    with pytest.raises(ValueError, match="rank"):
        rec.CameraRig(bad)
    with pytest.raises(ValueError, match="image size"):
        rec.CameraRig(good, image_size=(0, 1080))


def test_rig_json_round_trip():
    rig = simple_rig()
    back = rec.CameraRig.from_json(rig.to_json())
    assert np.allclose(back.projections, rig.projections, atol=1e-12)
    assert back.image_size == rig.image_size


def test_rig_from_json_checks_composition():
    K = [[1000.0, 0.0, 960.0], [0.0, 1000.0, 540.0], [0.0, 0.0, 1.0]]
    R = np.eye(3).tolist()
    t = [0.0, 0.0, 1.0]
    P = [[1000.0, 0.0, 960.0, 960.0],
         [0.0, 1000.0, 540.0, 540.0],
         [0.0, 0.0, 1.0, 1.0]]
    import json
    good = json.dumps({"cameras": [{"P": P, "K": K, "R": R, "t": t}] * 2})
    rig = rec.CameraRig.from_json(good)
    assert rig.n_views == 2
    bad_t = [0.0, 0.5, 1.0]
    bad = json.dumps({"cameras": [{"P": P, "K": K, "R": R, "t": bad_t}] * 2})
    with pytest.raises(ValueError, match="disagrees"):
        rec.CameraRig.from_json(bad)


# ---------------------------------------------------------------------------
# Observations containers


def empty_obs(n_f=2, n_v=3, image_size=(3840, 2160)):
    return dict(uv=np.zeros((n_f, n_v, 2, 21, 2)),
                conf=np.zeros((n_f, n_v, 2, 21)),
                valid=np.zeros((n_f, n_v, 2, 21), dtype=bool),
                image_size=image_size)


def test_observations_validation():
    kw = empty_obs()
    rec.KeypointObservations(**kw)
    bad = dict(kw, uv=np.zeros((2, 3, 2, 20, 2)))
    with pytest.raises(ValueError, match="uv"):
        rec.KeypointObservations(**bad)
    bad = dict(kw, conf=np.zeros((2, 3, 2, 20)))
    with pytest.raises(ValueError, match="conf"):
        rec.KeypointObservations(**bad)
    badconf = kw["conf"].copy()
    badconf[0, 0, 0, 0] = 1.5
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        rec.KeypointObservations(**dict(kw, conf=badconf))


def test_observations_bounds_only_checked_where_valid():
    kw = empty_obs()
    kw["uv"][0, 0, 0, 0] = (-50.0, 100.0)   # invalid cell, ignored
    rec.KeypointObservations(**kw)
    kw["valid"][0, 0, 0, 0] = True
    with pytest.raises(ValueError, match="bounds"):
        rec.KeypointObservations(**kw)


def test_observations_csv_parse():
    text = ("frame,view,hand,joint,u,v,conf,valid\n"
            "0,0,0,0,100.5,200.5,0.9,1\n"
            "0,1,0,0,110.0,210.0,0.8,1\n"
            "1,0,1,20,50.0,60.0,0.4,0\n")
    obs = rec.KeypointObservations.from_csv(text)
    assert obs.n_frames == 2 and obs.n_views == 2
    assert obs.uv[0, 0, 0, 0].tolist() == [100.5, 200.5]
    assert obs.conf[0, 1, 0, 0] == 0.8
    assert obs.valid[0, 0, 0, 0] and obs.valid[0, 1, 0, 0]
    assert not obs.valid[1, 0, 1, 20]
    assert obs.valid.sum() == 2


def test_observations_json_round_trip():
    kw = empty_obs(n_f=1, n_v=2)
    kw["uv"][0, 0, 0, 3] = (12.25, 34.5)
    kw["conf"][0, 0, 0, 3] = 0.75
    kw["valid"][0, 0, 0, 3] = True
    obs = rec.KeypointObservations(**kw)
    back = rec.KeypointObservations.from_json(obs.to_json())
    assert np.array_equal(back.uv, obs.uv)
    assert np.array_equal(back.conf, obs.conf)
    assert np.array_equal(back.valid, obs.valid)


# ---------------------------------------------------------------------------
# Triangulation


def test_triangulate_point_exact():
    rig = simple_rig()
    X = np.array([0.31, 0.12, 0.02])
    uv = project_all(rig, X)
    point, degenerate = rec._linear_points(uv[:2], rig.projections[:2],
                                           np.ones(2))
    assert not degenerate
    assert np.linalg.norm(point - X) < 1e-9


def test_triangulate_point_weights_silence_a_view():
    rig = simple_rig()
    X = np.array([0.2, 0.05, 0.01])
    uv = project_all(rig, X)[:3]
    uv[2] += 300.0
    point, _ = rec._linear_points(uv, rig.projections[:3],
                                  np.array([1.0, 1.0, 0.0]))
    assert np.linalg.norm(point - X) < 1e-9


def test_triangulate_point_degenerate_duplicate_view():
    rig = simple_rig()
    X = np.array([0.25, 0.1, 0.0])
    uv = project_all(rig, X)
    _, degenerate = rec._linear_points(uv[[0, 0]], rig.projections[[0, 0]],
                                       np.ones(2))
    assert degenerate


def test_ransac_clean_views():
    rig = simple_rig()
    X = np.array([0.4, 0.08, 0.01])
    res = rec.ransac_triangulate(project_all(rig, X), rig)
    assert res.valid and not res.ambiguous
    assert res.inliers.all()
    assert np.linalg.norm(res.point - X) < 1e-9
    assert res.residual < 1e-6


def test_ransac_rejects_outlier_view():
    rig = simple_rig()
    X = np.array([0.4, 0.08, 0.01])
    uv = project_all(rig, X)
    uv[2] += (120.0, -80.0)
    res = rec.ransac_triangulate(uv, rig)
    assert res.valid
    assert res.inliers.tolist() == [True, True, False, True, True]
    assert np.linalg.norm(res.point - X) < 1e-9


def test_ransac_respects_valid_mask():
    rig = simple_rig()
    X = np.array([0.4, 0.08, 0.01])
    uv = project_all(rig, X)
    uv[4] += 500.0            # garbage, but masked out anyway
    valid = np.array([True, True, True, True, False])
    res = rec.ransac_triangulate(uv, rig, valid=valid)
    assert res.valid
    assert res.inliers.tolist() == [True, True, True, True, False]
    with np.errstate(all="ignore"):
        few = rec.ransac_triangulate(uv, rig,
                                     valid=np.array([True] + [False] * 4))
    assert not few.valid
    assert not np.isfinite(few.residual)


def test_ransac_flags_ambiguous_split():
    # Two camera pairs observe two different points; no inlier set can
    # beat size two, and several different size-two sets exist.
    rig = simple_rig()
    A = np.array([0.2, 0.1, 0.0])
    B = np.array([0.3, 0.15, 0.05])
    uv = project_all(rig, A)
    uv[2] = rig.project(2, B)
    uv[3] = rig.project(3, B)
    res = rec.ransac_triangulate(uv[:4], rec.CameraRig(rig.projections[:4]))
    assert res.valid
    assert res.ambiguous


def test_ransac_sampled_pairs_deterministic():
    # Seven views make 21 candidate pairs, beyond the default budget of
    # 20, so the pair subset is drawn from the seeded generator.
    center = np.asarray((0.25, 0.1, 0.0))
    eyes = [center + (0.9 * np.cos(a), 0.9 * np.sin(a), 1.1)
            for a in np.linspace(0.3, 2.8, 7)]
    P = np.stack([_synth.look_at_camera(e, center) for e in eyes])
    rig = rec.CameraRig(P)
    X = np.array([0.3, 0.12, 0.005])
    uv = project_all(rig, X)
    first = rec.ransac_triangulate(uv, rig, seed=11)
    second = rec.ransac_triangulate(uv, rig, seed=11)
    assert np.array_equal(first.point, second.point)
    assert np.array_equal(first.inliers, second.inliers)
    assert np.linalg.norm(first.point - X) < 1e-9


def test_ransac_refuses_what_triangulation_refuses():
    # The checks `triangulate --dry-run` shares with the run.
    rig = simple_rig()
    uv = project_all(rig, (0.1, 0.2, 0.3))
    with pytest.raises(ValueError, match="at least 1 iteration, got 0"):
        rec.ransac_triangulate(uv, rig, max_iters=0)
    with pytest.raises(ValueError, match="6 views, the rig only 5 cameras"):
        rec.ransac_triangulate(uv[[0, 1, 2, 3, 4, 0]], rig)


# ---------------------------------------------------------------------------
# Filtering and gap interpolation


# The smoother's gain, 1 / (1 + (sin(w/2) / sin(w_c/2))^(2 order)), is the
# sine form of a Butterworth filtfilt's (whose ratio is of tangents), so the
# Butterworth checks below hold `smooth_trajectory` to the same response.


def track_traj(series, fps):
    """A trajectory whose every valid track holds series (n, 3)."""
    series = np.asarray(series, dtype=np.float64)
    pos = np.broadcast_to(series[:, None, None, :], (len(series), 2, 21, 3))
    return rec.JointTrajectory(fps, pos.copy(),
                               np.ones((len(series), 2, 21), dtype=bool))


def smooth_series(series, cutoff_hz, fps, order=4):
    """The smoothed series (n,) of `track_traj`'s x coordinate."""
    x = np.stack([series, np.zeros(len(series)), np.zeros(len(series))], -1)
    return rec.smooth_trajectory(track_traj(x, fps), cutoff_hz,
                                 order).positions[:, 0, 0, 0]


def test_butterworth_validation():
    traj = track_traj(np.zeros((100, 3)), 60.0)
    for cutoff, order, message in [
            (10.0, 3, "order"), (10.0, 0, "order"), (30.0, 4, "cutoff"),
            (0.0, 4, "cutoff"),
            (0.5, 4, "below 0.806 Hz, the lowest an order-4 smoother")]:
        with pytest.raises(ValueError, match=message):
            rec.smooth_trajectory(traj, cutoff, order)


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_smoothing_is_accurate_down_to_the_lowest_accepted_cutoff(order):
    # The normal matrix's condition number is sin(pi cutoff / fps)^(-2d),
    # and the solve's error follows it; check_filter refuses it past 1e11.
    # At the lowest cutoff it accepts, 0.1 m tracks still meet the dense
    # least-squares oracle within 50 um (measured: 0.16 um at order 2,
    # 14 um at order 8).
    fps = 59.94
    lowest = fps / np.pi * np.arcsin(1e11 ** (-0.5 / order))
    rec.check_filter(lowest * 1.001, fps, order)
    with pytest.raises(ValueError, match="lowest an order-%d" % order):
        rec.check_filter(lowest * 0.999, fps, order)
    rng = np.random.default_rng(order)
    pos = rng.normal(0.0, 0.1, (300, 2, 21, 3))
    val = np.zeros((300, 2, 21), dtype=bool)
    val[:, 0, 0] = val[20:, 1, 7] = True
    traj = rec.JointTrajectory(fps, pos, val)
    got = rec.smooth_trajectory(traj, lowest * 1.001, order, 0)
    want = scalar_smooth.smooth_trajectory(traj, lowest * 1.001, order, 0)
    assert np.abs(got.positions - want.positions).max() < 5e-5


def test_smoothing_short_runs_pass_through_silently():
    # A valid run under 3x the order passes through bit for bit and without
    # a warning, beside a longer run of its track that is smoothed.
    rng = np.random.default_rng(2)
    pos = rng.normal(0.0, 0.1, (40, 2, 21, 3))
    val = np.ones((40, 2, 21), dtype=bool)
    val[10:20] = False
    traj = rec.JointTrajectory(60.0, pos, val)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = rec.smooth_trajectory(traj)
    assert np.array_equal(out.positions[:10], pos[:10])
    assert not np.any(out.positions[20:] == pos[20:])


def test_butterworth_preserves_constant():
    y = smooth_series(np.full(200, 3.25), 10.0, 100.0)
    assert np.allclose(y, 3.25, atol=1e-9)


def whittaker_gain(f_hz, cutoff_hz, fps, order=4):
    return 1.0 / (1.0 + (np.sin(np.pi * f_hz / fps)
                         / np.sin(np.pi * cutoff_hz / fps)) ** (2 * order))


def test_butterworth_passband_and_stopband():
    fps = 100.0
    t = np.arange(400) / fps
    low = np.sin(2 * np.pi * 1.0 * t)
    high = np.sin(2 * np.pi * 40.0 * t)
    y = smooth_series(low + high, 10.0, fps)
    mid = slice(100, 300)
    # The 1 Hz component survives; away from the ends the 40 Hz component
    # is scaled by the gain, about 1.2e-4.
    assert np.max(np.abs(y[mid] - low[mid])) < 1e-3
    z = smooth_series(high, 10.0, fps)
    gain = whittaker_gain(40.0, 10.0, fps)
    assert 1e-4 < gain < 2e-4
    assert np.max(np.abs(z[mid] - gain * high[mid])) < 1e-9
    assert whittaker_gain(10.0, 10.0, fps) == pytest.approx(0.5)


def test_butterworth_zero_phase():
    # A smoothed unit pulse stays symmetric about the pulse position.
    x = np.zeros(201)
    x[100] = 1.0
    y = smooth_series(x, 10.0, 100.0)
    assert np.allclose(y, y[::-1], atol=1e-12)


def test_butterworth_multichannel_shape():
    # Every coordinate of every track is its own channel: each gives what
    # it gives smoothed alone in the x coordinate of every track.
    x = np.random.default_rng(3).normal(size=(80, 2, 21, 3))
    traj = rec.JointTrajectory(60.0, x, np.ones((80, 2, 21), dtype=bool))
    y = rec.smooth_trajectory(traj).positions
    assert y.shape == (80, 2, 21, 3)
    for h, j, k in [(0, 0, 0), (0, 5, 1), (1, 20, 2)]:
        assert np.allclose(smooth_series(x[:, h, j, k], 10.0, 60.0),
                           y[:, h, j, k], rtol=0.0, atol=1e-14)


def linear_track_traj(n=8, invalid=(), fps=60.0):
    pos = np.zeros((n, 2, 21, 3))
    for f in range(n):
        pos[f, :, :, 0] = 0.1 * f
    val = np.ones((n, 2, 21), dtype=bool)
    for f in invalid:
        val[f] = False
    return rec.JointTrajectory(fps, pos, val)


def test_interpolate_gaps_linear_fill():
    traj = linear_track_traj(invalid=(3, 4))
    out = rec.interpolate_gaps(traj, max_gap=5)
    assert out.valid.all()
    assert np.allclose(out.positions[3, :, :, 0], 0.3, atol=1e-12)
    assert np.allclose(out.positions[4, :, :, 0], 0.4, atol=1e-12)
    # Original samples untouched.
    assert np.allclose(out.positions[2, :, :, 0], 0.2, atol=1e-12)


def test_interpolate_gaps_respects_max_gap():
    traj = linear_track_traj(n=10, invalid=(2, 3, 4))
    filled = rec.interpolate_gaps(traj, max_gap=3)
    assert filled.valid.all()
    kept = rec.interpolate_gaps(traj, max_gap=2)
    assert not kept.valid[2:5].any()
    assert kept.valid[[0, 1, 5, 6, 7, 8, 9]].all()


def test_interpolate_gaps_leaves_edges_invalid():
    traj = linear_track_traj(n=6, invalid=(0, 5))
    out = rec.interpolate_gaps(traj, max_gap=5)
    assert not out.valid[0].any()
    assert not out.valid[5].any()
    assert out.valid[1:5].all()


def test_smooth_trajectory_runs_are_independent():
    # Two valid runs separated by a wide invalid gap: wild values in the
    # second run must not leak into the first.
    n = 130
    pos = np.zeros((n, 2, 21, 3))
    val = np.ones((n, 2, 21), dtype=bool)
    pos[:50, :, :, 0] = 0.5
    val[50:70] = False
    rng = np.random.default_rng(0)
    pos[70:, :, :, 0] = 100.0 + rng.normal(size=(60, 2, 21))
    traj = rec.JointTrajectory(60.0, pos, val)
    out = rec.smooth_trajectory(traj, cutoff_hz=10.0, max_gap=5)
    assert np.allclose(out.positions[:50, :, :, 0], 0.5, atol=1e-9)
    assert not out.valid[50:70].any()


def test_smooth_trajectory_short_run_passes_through():
    n = 10                      # below 3 * order, no filtering possible
    pos = np.zeros((n, 2, 21, 3))
    rng = np.random.default_rng(1)
    pos[:, :, :, 1] = rng.normal(size=(n, 2, 21))
    traj = rec.JointTrajectory(60.0, pos, np.ones((n, 2, 21), dtype=bool))
    out = rec.smooth_trajectory(traj)
    assert np.array_equal(out.positions, traj.positions)


def gappy_tracks(rng, n=90, max_gap=5):
    """Random tracks whose invalid runs include interior gaps of max_gap and
    max_gap + 1 frames, leading and trailing gaps, and valid runs of 11, 12
    and fewer frames; the other tracks drop random frames."""
    pos = rng.normal(0.0, 0.1, (n, 2, 21, 3))
    val = rng.random((n, 2, 21)) >= 0.2
    val[:, 0, :9] = True                     # 6-8: one run of n frames
    val[10:10 + max_gap, 0, 0] = False
    val[30:31 + max_gap, 0, 0] = False
    val[:4, 0, 1] = False
    val[-3:, 0, 1] = False
    val[:max_gap, 0, 2] = False
    val[20:31, 0, 3] = False                 # valid runs of 20 and 11
    val[43:55, 0, 4] = False                 # valid runs of 43 and 12
    val[5:7, 0, 5] = val[14:16, 0, 5] = False
    val[:, 1, 0] = False                     # never valid
    return rec.JointTrajectory(60.0, pos, val)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("max_gap", [0, 2, 5])
def test_gap_filling_and_smoothing_match_the_track_loops(seed, max_gap):
    traj = gappy_tracks(np.random.default_rng(seed), max_gap=max_gap)
    # Gap filling matches bit for bit, smoothing to 1e-13 m: the oracle
    # solves each run alone by dense least squares.
    got = rec.interpolate_gaps(traj, max_gap)
    want = scalar_smooth.interpolate_gaps(traj, max_gap)
    assert got.positions.tobytes() == want.positions.tobytes()
    assert np.array_equal(got.valid, want.valid)
    got = rec.smooth_trajectory(traj, 10.0, 4, max_gap)
    want = scalar_smooth.smooth_trajectory(traj, 10.0, 4, max_gap)
    assert np.abs(got.positions - want.positions).max() < 1e-13
    assert np.array_equal(got.valid, want.valid)
    filled = rec.interpolate_gaps(traj, max_gap)
    assert filled.valid[10:10 + max_gap, 0, 0].all()
    assert not filled.valid[30:31 + max_gap, 0, 0].any()
    assert not filled.valid[:4, 0, 1].any() and not filled.valid[-3:, 0, 1].any()


@pytest.mark.parametrize("seed", [0, 1])
def test_smoothing_a_track_alone_gives_its_batch_bits(seed):
    # The tracks share one block-tridiagonal solve; each track's bits must
    # not depend on which or how many others share it.
    traj = gappy_tracks(np.random.default_rng(seed), n=200)
    batch = rec.smooth_trajectory(traj).positions
    for h in range(2):
        for j in range(21):
            val = np.zeros_like(traj.valid)
            val[:, h, j] = traj.valid[:, h, j]
            alone = rec.smooth_trajectory(
                rec.JointTrajectory(60.0, traj.positions, val)).positions
            assert alone[:, h, j].tobytes() == batch[:, h, j].tobytes(), (h, j)


def test_smoothing_an_empty_trajectory():
    traj = rec.JointTrajectory(60.0, np.zeros((0, 2, 21, 3)),
                               np.zeros((0, 2, 21), dtype=bool))
    assert rec.smooth_trajectory(traj).n_frames == 0


def test_trajectory_json_round_trip():
    traj = linear_track_traj(n=3, invalid=(1,))
    back = rec.JointTrajectory.from_json(traj.to_json())
    assert back.fps == traj.fps
    assert np.array_equal(back.valid, traj.valid)
    assert np.allclose(back.positions[back.valid],
                       traj.positions[traj.valid], atol=1e-12)


def test_trajectory_from_json_rejects_fps_too_large_for_a_float():
    obj = json.loads(linear_track_traj(n=2).to_json())
    obj["fps"] = 10 ** 400
    with pytest.raises(ValueError, match="fps must be positive and finite"):
        rec.JointTrajectory.from_json(json.dumps(obj))


def test_trajectory_validation():
    with pytest.raises(ValueError, match="positions"):
        rec.JointTrajectory(60.0, np.zeros((2, 2, 20, 3)),
                            np.ones((2, 2, 20), dtype=bool))
    pos = np.zeros((2, 2, 21, 3))
    pos[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        rec.JointTrajectory(60.0, pos, np.ones((2, 2, 21), dtype=bool))


# ---------------------------------------------------------------------------
# End-to-end triangulation of synthetic hands


def scene_clip(geom):
    frames = []
    for f in range(2):
        left = _synth.parked_pose(0, x=-0.1)
        right = _synth.hover_pose(geom, 1, 40 + 2 * f)
        frames.append((left, right))
    return _synth.pose_clip(60.0, frames)


def observe(clip, skeletons, rig):
    return _synth.project_clip(clip, skeletons, rig)


def test_triangulate_observations_recovers_joints(geom, skeletons):
    rig = simple_rig()
    clip = scene_clip(geom)
    uv, conf, valid, joints = observe(clip, skeletons, rig)
    # Corrupt one view of one joint and invalidate another cell.
    uv[0, 1, 1, 8] += (90.0, 0.0)
    valid[1, 3, 0, 4] = False
    obs = rec.KeypointObservations(uv, conf, valid)
    traj = rec.triangulate_observations(obs, rig, fps=60.0).trajectory
    assert traj.valid.all()
    err = np.linalg.norm(traj.positions - joints, axis=-1)
    assert err.max() < 1e-6


def test_triangulate_observations_marks_underviewed_invalid(geom, skeletons):
    rig = simple_rig()
    clip = scene_clip(geom)
    uv, conf, valid, _ = observe(clip, skeletons, rig)
    valid[0, :, 0, 7] = False
    valid[0, :4, 1, 3] = False         # one view left: not enough
    obs = rec.KeypointObservations(uv, conf, valid)
    with np.errstate(all="ignore"):
        traj = rec.triangulate_observations(obs, rig, fps=60.0).trajectory
    assert not traj.valid[0, 0, 7]
    assert not traj.valid[0, 1, 3]
    assert traj.valid[1].all()


# ---------------------------------------------------------------------------
# Skeleton fitting


def wiggled_clip(geom, n=3):
    base = _synth.hover_pose(geom, 1, 44)
    frames = []
    for f in range(n):
        right = base.copy()
        right[:3] += (0.004 * f, 0.002 * f, 0.001 * f)
        right[6::3] -= 0.03 * f
        frames.append((_synth.parked_pose(0, x=-0.1), right))
    return _synth.pose_clip(60.0, frames)


def test_fit_skeleton_round_trip(geom, skeletons):
    clip = wiggled_clip(geom)
    joints = hand.clip_positions(clip, skeletons)
    traj = rec.JointTrajectory(
        60.0, joints, np.ones((clip.n_frames, 2, 21), dtype=bool))
    result = rec.fit_skeleton(traj, skeletons)
    assert not result.copied.any()
    refit = hand.clip_positions(result.clip, skeletons)
    err = np.linalg.norm(refit - joints, axis=-1)
    assert err.max() < 1e-4
    assert np.nanmax(result.residual_rms) < 1e-4


def test_fit_skeleton_starting_at_optimum_stays(geom, skeletons):
    clip = wiggled_clip(geom, n=1)
    joints = hand.clip_positions(clip, skeletons)
    traj = rec.JointTrajectory(60.0, joints, np.ones((1, 2, 21), dtype=bool))
    result = rec.fit_skeleton(traj, skeletons, init=clip)
    assert np.nanmax(result.residual_rms) < 1e-7


def test_fit_skeleton_copies_empty_frames(geom, skeletons):
    clip = wiggled_clip(geom, n=3)
    joints = hand.clip_positions(clip, skeletons)
    valid = np.ones((3, 2, 21), dtype=bool)
    valid[1, 1] = False                   # right hand unobserved at frame 1
    traj = rec.JointTrajectory(60.0, joints, valid)
    result = rec.fit_skeleton(traj, skeletons)
    assert result.copied[1, 1] and not result.copied[1, 0]
    assert np.isnan(result.residual_rms[1, 1])
    frames = hand.clip_vectors(result.clip)
    assert np.array_equal(frames[0, 1], frames[1, 1])


def test_fit_skeleton_empty_first_frame_uses_init(geom, skeletons):
    clip = wiggled_clip(geom, n=2)
    joints = hand.clip_positions(clip, skeletons)
    valid = np.ones((2, 2, 21), dtype=bool)
    valid[0, 1] = False
    traj = rec.JointTrajectory(60.0, joints, valid)
    result = rec.fit_skeleton(traj, skeletons, init=clip)
    assert result.copied[0, 1]
    assert np.allclose(hand.clip_vectors(result.clip)[0, 1],
                       hand.clip_vectors(clip)[0, 1], atol=1e-12)


def test_fit_skeleton_soft_limits_keep_round_trip(geom, skeletons):
    # Ground truth inside the joint limits: the penalty is inactive and
    # the fit still lands on it.
    clip = wiggled_clip(geom, n=1)
    joints = hand.clip_positions(clip, skeletons)
    traj = rec.JointTrajectory(60.0, joints, np.ones((1, 2, 21), dtype=bool))
    result = rec.fit_skeleton(traj, skeletons, soft_limit_weight=10.0)
    refit = hand.clip_positions(result.clip, skeletons)
    assert np.linalg.norm(refit - joints, axis=-1).max() < 1e-4


def test_fit_skeleton_empty_trajectory_raises(skeletons):
    traj = rec.JointTrajectory(60.0, np.zeros((0, 2, 21, 3)),
                               np.zeros((0, 2, 21), dtype=bool))
    with pytest.raises(ValueError, match="empty"):
        rec.fit_skeleton(traj, skeletons)


def test_fit_skeleton_is_stable_under_tiny_input_noise(skeletons):
    # Each finger joint's twist about its child bone moves no observed
    # joint, so the fitted rotations are only unique if the solver leaves
    # that twist at its warm-start value.  A 1e-12 m perturbation of the
    # golden trajectory must then move the fitted rotations by about as
    # little, not by whatever path an optimizer takes along the twist.
    golden = pathlib.Path(__file__).resolve().parent / "golden"
    traj = rec.JointTrajectory.from_json(
        (golden / "expected" / "trajectory.json").read_text())
    noise = np.random.default_rng(7).normal(scale=1e-12,
                                            size=traj.positions.shape)
    noisy = rec.JointTrajectory(traj.fps, traj.positions + noise,
                                traj.valid.copy())
    base = rec.fit_skeleton(traj, skeletons).clip
    pert = rec.fit_skeleton(noisy, skeletons).clip
    assert np.abs(base.joint_rotations - pert.joint_rotations).max() < 1e-8
    # Compare quaternions up to sign, not rotation vectors: the parked left
    # hand sits at a half turn, where the rotvec flips.
    q_err = np.minimum(np.abs(base.root_q - pert.root_q).max(axis=-1),
                       np.abs(base.root_q + pert.root_q).max(axis=-1))
    assert q_err.max() < 1e-8


# Each finger joint's child joint: its twist is the rotation-vector
# component along the rest offset of that child's bone.
CHILD = np.array([np.flatnonzero(hand.PARENTS == j)[0] for j in range(1, 16)])


def twists(clip, skeletons):
    """(F, 2, 15) rotation-vector components along each rest child bone."""
    bones = skeletons.bone_offsets[:, CHILD]
    axes = bones / np.linalg.norm(bones, axis=-1, keepdims=True)
    rot = hand.clip_vectors(clip)[..., 6:].reshape(clip.n_frames, 2, 15, 3)
    return np.sum(rot * axes, axis=-1)


def golden_trajectory():
    golden = pathlib.Path(__file__).resolve().parent / "golden"
    return rec.JointTrajectory.from_json(
        (golden / "expected" / "trajectory.json").read_text())


def test_fit_skeleton_pins_twists(geom, skeletons):
    traj = golden_trajectory()
    result = rec.fit_skeleton(traj, skeletons)
    assert np.abs(twists(result.clip, skeletons)).max() <= 1e-15
    # With init, every twist keeps init's value, here up to 0.3 rad.
    init = wiggled_clip(geom, n=traj.n_frames)
    vecs = hand.clip_vectors(init)
    bones = skeletons.bone_offsets[:, CHILD]
    axes = bones / np.linalg.norm(bones, axis=-1, keepdims=True)
    turn = np.random.default_rng(3).uniform(-0.3, 0.3, size=(3, 2, 15, 1))
    vecs[..., 6:] += (turn * axes).reshape(3, 2, 45)
    init = _synth.pose_clip(60.0, vecs)
    result = rec.fit_skeleton(traj, skeletons, init=init)
    assert np.abs(twists(result.clip, skeletons)
                  - twists(init, skeletons)).max() <= 1e-15
    assert np.nanmax(result.residual_rms) < 1e-4


def test_fit_skeleton_rejects_init_of_another_length(geom, skeletons):
    clip = wiggled_clip(geom, n=3)
    traj = rec.JointTrajectory(60.0, hand.clip_positions(clip, skeletons),
                               np.ones((3, 2, 21), dtype=bool))
    with pytest.raises(ValueError, match="init clip has 2 frames"):
        rec.fit_skeleton(traj, skeletons, init=wiggled_clip(geom, n=2))


def gappy_trajectory(geom, skeletons, n=12):
    """Noisy joints with copied hand-frames and unobserved joints."""
    clip = wiggled_clip(geom, n=n)
    rng = np.random.default_rng(11)
    joints = hand.clip_positions(clip, skeletons)
    joints = joints + rng.normal(scale=2e-4, size=joints.shape)
    valid = rng.uniform(size=(n, 2, 21)) > 0.1
    valid[2, 0] = False
    valid[5:7, 1] = False
    return rec.JointTrajectory(60.0, joints, valid)


@pytest.mark.parametrize("block", [1, 5, 7])
def test_fit_skeleton_bytes_do_not_depend_on_block_size(
        geom, skeletons, monkeypatch, block):
    traj = gappy_trajectory(geom, skeletons)
    whole = rec.fit_skeleton(traj, skeletons)
    monkeypatch.setattr(rec, "_POSE_BLOCK", block)
    blocked = rec.fit_skeleton(traj, skeletons)
    assert blocked.clip.to_json() == whole.clip.to_json()
    assert np.array_equal(blocked.residual_rms, whole.residual_rms,
                          equal_nan=True)
    assert np.array_equal(blocked.iterations, whole.iterations)
    assert np.array_equal(blocked.stop, whole.stop)


@pytest.mark.parametrize("gaps", [False, True])
def test_fit_skeleton_stops_where_noisy_data_converges(geom, skeletons,
                                                       monkeypatch, gaps):
    # Noise keeps the objective above zero, so only the relative-decrease
    # test can stop the fit; where it stops, the observed joints sit within
    # 1e-7 m of a fit that runs until its damping gives up.  (An unobserved
    # joint between observed ones lies along a direction the objective
    # barely sees, and moves by up to 5.3e-6 m here.)  Fully observed
    # hand-frames stop within 8 iterations; unobserved joints leave the
    # start farther off, so gappy ones may take a few more.
    traj = gappy_trajectory(geom, skeletons)
    if not gaps:
        traj = rec.JointTrajectory(traj.fps, traj.positions,
                                   np.ones_like(traj.valid))
    result = rec.fit_skeleton(traj, skeletons)
    fitted = ~result.copied
    assert set(result.stop[fitted]) == {"converged"}
    if not gaps:
        assert result.iterations.max() <= 8
    monkeypatch.setattr(rec, "levenberg_marquardt", functools.partial(
        rec.levenberg_marquardt, rtol=0.0))
    full = rec.fit_skeleton(traj, skeletons)
    assert result.iterations[fitted].max() < full.iterations[fitted].min()
    moved = (hand.clip_positions(result.clip, skeletons)
             - hand.clip_positions(full.clip, skeletons))
    assert np.linalg.norm(moved, axis=-1)[traj.valid].max() <= 1e-7


@pytest.mark.parametrize("lam", [1e-12, 1e-6, 1.0, 1e8])
@pytest.mark.parametrize("limit_weight", [0.0, 1.0])
def test_arrow_step_equals_dense_reference_step(skeletons, monkeypatch,
                                                limit_weight, lam):
    # The fit's Schur step on its arrow blocks solves the same damped
    # system as a dense 36x36 solve on the reference Jacobian and dense
    # soft-limit rows: within 1e-11 of the step's norm at every damping, on
    # random poses with about half the limit components active.  The finger
    # with no observed joint has a zero block and steps by exactly zero in
    # both.
    rng = np.random.default_rng(3)
    B = 40
    h = rng.integers(0, 2, B)
    bones = skeletons.bone_offsets[h]
    planes = hand.twist_free_basis(skeletons.bone_offsets)[h]
    limits = np.stack([skeletons.left.joint_limits.reshape(-1, 2),
                       skeletons.right.joint_limits.reshape(-1, 2)])[h]
    lo, hi = limits[..., 0].copy(), limits[..., 1].copy()
    lo[0, 18:27], hi[0, 18:27] = -10.0, 10.0
    x = rng.normal(size=(B, 51)) * 0.5
    y = (hand.forward_kinematics(
        bones, *hand.vector_pose(rng.normal(size=(B, 51)) * 0.5))[0]
        + rng.normal(size=(B, 21, 3)) * 1e-3)
    mask = np.ones((B, 21), dtype=bool)
    mask[0, hand.LEVELS[1:, 2]] = False
    weight = mask / np.sqrt(mask.sum(axis=1))[:, None]
    th = x[:, 6:]
    violation = np.minimum(th - lo, 0.0) + np.maximum(th - hi, 0.0)
    assert 0.3 < np.mean(violation != 0.0) < 0.7

    p, J = scalar_kinematics.twist_free_jacobian(bones, planes, x)
    J = (weight[..., None, None] * J).reshape(B, -1, 36)
    r = (weight[..., None] * (p - y)).reshape(B, -1)
    if limit_weight > 0.0:
        dth = np.swapaxes(hand.twist_free_step(planes[:, None], np.eye(36)),
                          1, 2)[:, 6:]
        J = np.concatenate([J, np.sqrt(limit_weight)
                            * (violation != 0.0)[..., None] * dth], axis=1)
        r = np.concatenate([r, np.sqrt(limit_weight) * violation], axis=1)
    Jt = np.swapaxes(J, 1, 2)
    dense, dense_singular = rec.solve_stacked(Jt @ J + lam * np.eye(36),
                                              Jt @ r[..., None])
    dense = hand.twist_free_step(planes, dense[..., 0])

    # The fit's own normal equations and step, taken from its LM call.
    calls = {}

    def capture(x0, objective, normal_equations, solve, max_iter):
        calls.update(normal_equations=normal_equations, solve=solve)
        return x0, None, None, None

    monkeypatch.setattr(rec, "levenberg_marquardt", capture)
    rec._lm_fit(bones, planes, y, weight, x, lo, hi, limit_weight, 1)
    i = np.arange(B)
    step, singular = calls["solve"](i, calls["normal_equations"](i, x),
                                    np.full(B, lam))
    assert not singular.any() and not dense_singular.any()
    assert np.all(np.linalg.norm(step - dense, axis=1)
                  <= 1e-11 * np.linalg.norm(dense, axis=1))
    assert not step[0, 24:33].any() and not dense[0, 24:33].any()


def test_fit_skeleton_frames_do_not_depend_on_each_other(geom, skeletons):
    traj = gappy_trajectory(geom, skeletons)
    whole = rec.fit_skeleton(traj, skeletons)
    a, b = 7, 11                          # no copied hand-frame in [7, 11)
    part = rec.fit_skeleton(
        rec.JointTrajectory(traj.fps, traj.positions[a:b], traj.valid[a:b]),
        skeletons)
    assert part.clip.to_json() == whole.clip[a:b].to_json()
    assert np.array_equal(part.residual_rms, whole.residual_rms[a:b])


def test_fit_skeleton_round_trip_of_twist_free_poses_is_exact(skeletons):
    rng = np.random.default_rng(5)
    bones = skeletons.bone_offsets[:, CHILD]
    axes = bones / np.linalg.norm(bones, axis=-1, keepdims=True)
    vecs = np.zeros((20, 2, 51))
    vecs[..., :3] = rng.uniform(-0.2, 0.2, size=(20, 2, 3))
    vecs[..., 3:6] = rng.uniform(-1.5, 1.5, size=(20, 2, 3))
    rot = rng.uniform(-0.6, 0.6, size=(20, 2, 15, 3))
    rot -= np.sum(rot * axes, axis=-1, keepdims=True) * axes
    vecs[..., 6:] = rot.reshape(20, 2, 45)
    joints, _ = hand.forward_kinematics(skeletons.bone_offsets,
                                        *hand.vector_pose(vecs))
    traj = rec.JointTrajectory(60.0, joints, np.ones((20, 2, 21), dtype=bool))
    result = rec.fit_skeleton(traj, skeletons)
    refit = hand.clip_positions(result.clip, skeletons)
    assert np.linalg.norm(refit - joints, axis=-1).max() <= 1e-12


def test_fit_skeleton_round_trip_with_unobserved_children(geom, skeletons):
    # The rule from the docstring: a bone with an unobserved end starts
    # at zero rotation, a joint with no observed descendant keeps it, and
    # every observed joint still fits.
    clip = wiggled_clip(geom)
    joints = hand.clip_positions(clip, skeletons)
    valid = np.ones((clip.n_frames, 2, 21), dtype=bool)
    valid[:, 1, [3, 17, 18]] = False       # thumb dip, index and middle tips
    valid[1, 0, [10, 11, 12, 19]] = False  # a whole ring finger
    traj = rec.JointTrajectory(60.0, joints, valid)
    result = rec.fit_skeleton(traj, skeletons)
    refit = hand.clip_positions(result.clip, skeletons)
    err = np.linalg.norm(refit - joints, axis=-1)
    assert err[valid].max() < 1e-4
    assert np.nanmax(result.residual_rms) < 1e-4
    vecs = hand.clip_vectors(result.clip)
    # No observed joint moves with the index and middle dips (joints 6, 9)
    # or, at frame 1, the left ring mcp, pip and dip (joints 10-12).
    for j in (6, 9):
        assert not vecs[:, 1, 3 + 3 * j:6 + 3 * j].any()
    for j in (10, 11, 12):
        assert not vecs[1, 0, 3 + 3 * j:6 + 3 * j].any()


def test_swing_init_angles_are_libm_atan2(skeletons):
    # The swing init's finger angles are libm's atan2, one element at a
    # time: numpy's SIMD arctan2 differs from it in the last bit on some
    # inputs, and the fit's bytes would follow the CPU's SIMD path.  The
    # oracle is the same closed form, level by level, from the init's root.
    rng = np.random.default_rng(11)
    B = 200
    h = rng.integers(0, 2, B)
    bones = skeletons.bone_offsets[h]
    vecs = rng.normal(size=(B, 51)) * 0.5
    y, _ = hand.forward_kinematics(bones, *hand.vector_pose(vecs))
    y = y + rng.normal(0.0, 2e-3, y.shape)
    mask = rng.random((B, 21)) >= 0.1
    x = rec._swing_init(bones, y, mask)
    want = np.zeros_like(x)
    want[:, :6] = x[:, :6]
    for joints, children in zip(hand.LEVELS[:3], hand.LEVELS[1:]):
        _, G = hand.forward_kinematics(bones, *hand.vector_pose(want))
        seen = (y[:, children] - y[:, joints])[..., None]
        target = (np.swapaxes(G[:, hand.PARENTS[joints]], -1, -2)
                  @ seen)[..., 0]
        bone = bones[:, children]
        axis = np.cross(bone, target)
        sin = np.sqrt(np.vecdot(axis, axis))
        cos = np.vecdot(bone, target)
        angle = np.array([math.atan2(s, c) for s, c in
                          zip(sin.ravel().tolist(), cos.ravel().tolist())]
                         ).reshape(sin.shape)
        ok = mask[:, joints] & mask[:, children] & (sin > 0)
        want[:, 3 + 3 * joints[:, None] + np.arange(3)] = np.where(
            ok[..., None], axis * (angle / np.where(ok, sin, 1.0))[..., None],
            0.0)
    assert want.tobytes() == x.tobytes()
