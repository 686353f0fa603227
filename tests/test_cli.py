"""End-to-end subcommand tests driving the console entry point in-process."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import _synth
from pianomotion import cli, hand, keyboard as kb, metrics, midi
from pianomotion import reconstruction, retrieval
from pianomotion.hand import MotionClip


def write_midi(path, spans, fps=60.0):
    notes = _synth.notes_on_frames(spans, fps=fps)
    path.write_bytes(_synth.serialize_midi(notes))
    return notes


def write_matrix(path, frame_keys, fps=60.0):
    matrix = _synth.matrix_from_frames(frame_keys, fps=fps)
    path.write_text(midi.matrix_to_json(matrix))
    return matrix


def write_clip(path, clip):
    path.write_text(clip.to_json())


def run(argv):
    return cli.main([str(a) for a in argv])


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------------
# MIDI subcommands


def test_quantize_stdout_and_file(tmp_path, capsys):
    mid = tmp_path / "song.mid"
    write_midi(mid, [(40, 0, 3), (42, 1, 2)])
    assert run(["quantize", "--midi", mid, "--fps", 60]) == 0
    from_stdout = midi.matrix_from_json(capsys.readouterr().out)
    out = tmp_path / "m.json"
    csv = tmp_path / "m.csv"
    assert run(["quantize", "--midi", mid, "--fps", 60,
                "-o", out, "--csv", csv]) == 0
    from_file = midi.matrix_from_json(out.read_text())
    assert np.array_equal(from_stdout.data, from_file.data)
    assert from_file.fps == 60.0
    assert from_file.data[0, 39] == 1 and from_file.data[1, 41] == 1
    assert from_file.data[2, 41] == 0
    rows = csv.read_text().strip().split("\n")
    assert len(rows) == from_file.n_frames


def test_quantize_frames_flag(tmp_path, capsys):
    mid = tmp_path / "song.mid"
    write_midi(mid, [(40, 0, 2)])
    assert run(["quantize", "--midi", mid, "--fps", 60, "--frames", 7]) == 0
    matrix = midi.matrix_from_json(capsys.readouterr().out)
    assert matrix.n_frames == 7


def test_condition_mode_flag(tmp_path, capsys):
    mid = tmp_path / "song.mid"
    write_midi(mid, [(40, 0, 4)])
    assert run(["condition", "--midi", mid, "--fps", 60,
                "--mode", "decaying"]) == 0
    matrix = midi.matrix_from_json(capsys.readouterr().out)
    col = matrix.data[:4, 39]
    assert np.allclose(col, [1.0, 0.5, 1.0 / 3.0, 0.25], atol=1e-12)


def test_sync_recovers_offset(tmp_path, capsys):
    a = tmp_path / "a.mid"
    b = tmp_path / "b.mid"
    notes = write_midi(a, [(40, 0, 2), (44, 3, 5), (47, 6, 8)])
    shifted = midi.NoteList(notes.onset + 0.035, notes.offset + 0.035,
                            notes.pitch, "b")
    b.write_bytes(_synth.serialize_midi(shifted))
    assert run(["sync", "--a", a, "--b", b,
                "--span", 0.1, "--step", 0.005]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matches"] == 3
    assert abs(abs(payload["offset"]) - 0.035) < 1e-9
    assert payload["notes_a"] == 3 and payload["notes_b"] == 3


@pytest.mark.parametrize("flags,config,message", [
    (["--step", 0], None, "grid step must be a finite positive number"),
    (["--step", "nan"], None, "grid step must be a finite positive number"),
    (["--span", "inf"], None, "grid span must be a finite number >= 0"),
    (["--span", -1], None, "grid span must be a finite number >= 0"),
    (["--span", 1e308, "--step", 1e-308], None, "grid span 1e+308 over step"),
    (["--tolerance", -1], None, "sync tolerance must be a finite number >= 0"),
    (["--tolerance", "nan"], None, "sync tolerance must be a finite number >= 0"),
    ([], {"step": 0}, "grid step must be a finite positive number"),
    ([], {"span": -0.5}, "grid span must be a finite number >= 0"),
    ([], {"tolerance": -1}, "sync tolerance must be a finite number >= 0"),
    # 2e18 offsets: numpy refuses the grid before allocating it.
    (["--span", 1e9, "--step", 1e-9], None,
     "grid span 1000000000.0 over step 1e-09 has too many offsets"),
])
def test_sync_refuses_bad_grid_or_tolerance(tmp_path, capsys, flags, config,
                                            message):
    a = tmp_path / "a.mid"
    write_midi(a, [(40, 0, 2)])
    argv = ["sync", "--a", a, "--b", a] + flags
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", cfg]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Reconstruction chain


def scene_files(tmp_path, geom, skeletons, n_frames=1):
    rig = _synth.five_camera_rig()
    frames = [( _synth.parked_pose(0, x=-0.1),
                _synth.hover_pose(geom, 1, 40))] * n_frames
    clip = _synth.pose_clip(60.0, frames)
    uv, conf, valid, joints = _synth.project_clip(clip, skeletons, rig)
    obs = cli.reconstruction.KeypointObservations(uv, conf, valid)
    cam_path = tmp_path / "cameras.json"
    kp_path = tmp_path / "keypoints.json"
    cam_path.write_text(rig.to_json())
    kp_path.write_text(obs.to_json())
    return cam_path, kp_path, joints


def test_triangulate_and_fit_chain(tmp_path, capsys, geom, skeletons):
    cam, kp, joints = scene_files(tmp_path, geom, skeletons)
    traj_path = tmp_path / "traj.json"
    assert run(["triangulate", "--keypoints", kp, "--cameras", cam,
                "--fps", 60, "--no-filter", "-o", traj_path]) == 0
    traj = cli.reconstruction.JointTrajectory.from_json(traj_path.read_text())
    assert traj.valid.all()
    assert np.abs(traj.positions - joints).max() < 1e-6

    clip_path = tmp_path / "fit.json"
    report_path = tmp_path / "fit_report.json"
    assert run(["fit", "--trajectory", traj_path, "-o", clip_path,
                "--report", report_path]) == 0
    clip = MotionClip.from_json(clip_path.read_text())
    p = hand.clip_positions(clip, skeletons)
    assert np.linalg.norm(p[0] - joints[0], axis=-1).max() < 1e-4
    report = json.loads(report_path.read_text())
    assert report["n_frames"] == 1
    assert report["copied_frames"] == 0
    assert max(max(row) for row in report["residual_rms"]) < 1e-4


def fit_trajectory_file(tmp_path, geom, skeletons, n_frames=3):
    """A trajectory of exact FK joints whose right hand is unobserved at
    frame 1."""
    clip = _synth.pose_clip(60.0, [(_synth.parked_pose(0, x=-0.1),
                                    _synth.hover_pose(geom, 1, 40 + f))
                                   for f in range(n_frames)])
    valid = np.ones((n_frames, 2, 21), dtype=bool)
    valid[1, 1] = False
    traj = cli.reconstruction.JointTrajectory(
        60.0, hand.clip_positions(clip, skeletons), valid)
    path = tmp_path / "traj.json"
    path.write_text(traj.to_json())
    return path, clip


def test_fit_report_lm_diagnostics_leave_clip_bytes(tmp_path, capsys, geom,
                                                    skeletons):
    traj_path, _ = fit_trajectory_file(tmp_path, geom, skeletons)
    plain, reported = tmp_path / "plain.json", tmp_path / "reported.json"
    report_path = tmp_path / "fit_report.json"
    assert run(["fit", "--trajectory", traj_path, "-o", plain]) == 0
    assert run(["fit", "--trajectory", traj_path, "-o", reported,
                "--report", report_path]) == 0
    assert plain.read_bytes() == reported.read_bytes()
    report = json.loads(report_path.read_text())
    assert report["copied_frames"] == 1
    assert report["iterations"][1][1] is None
    assert report["stop"][1][1] is None
    for f, h in [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)]:
        assert 1 <= report["iterations"][f][h] <= 200
        assert report["stop"][f][h] in ("converged", "stalled", "max_iter")
    assert run(["fit", "--trajectory", traj_path, "--max-iter", 1,
                "--report", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["iterations"][1][1] is None
    assert all(n == 1 for row in report["iterations"] for n in row
               if n is not None)


def test_fit_init_with_another_frame_count_is_validation_error(
        tmp_path, capsys, geom, skeletons):
    traj_path, clip = fit_trajectory_file(tmp_path, geom, skeletons)
    init_path = tmp_path / "init.json"
    write_clip(init_path, clip[:2])
    out = tmp_path / "fit.json"
    assert run(["fit", "--trajectory", traj_path, "--init", init_path,
                "-o", out]) == 1
    assert "init clip has 2 frames, the trajectory 3" in (
        capsys.readouterr().err)
    assert not out.exists()
    write_clip(init_path, clip)
    assert run(["fit", "--trajectory", traj_path, "--init", init_path,
                "-o", out]) == 0


@pytest.mark.parametrize("stage,flag,text,label", [
    ("triangulate", "--cameras", "{}", "cameras"),
    ("triangulate", "--cameras", '{"cameras": 5}', "cameras"),
    ("triangulate", "--keypoints", "[1, 2]", "keypoints"),
    ("triangulate", "--keypoints",
     '{"uv": [], "conf": [], "valid": [], "image_size": 5}', "keypoints"),
    ("fit", "--trajectory", "[1, 2]", "trajectory"),
    ("fit", "--trajectory", '{"fps": [60], "positions": [], "valid": []}',
     "trajectory"),
])
def test_malformed_reconstruction_input_is_validation_error(
        tmp_path, capsys, geom, skeletons, stage, flag, text, label):
    cam, kp, _ = scene_files(tmp_path, geom, skeletons)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    inputs = {"triangulate": {"--cameras": cam, "--keypoints": kp},
              "fit": {}}[stage]
    inputs[flag] = bad
    out = tmp_path / "out.json"
    argv = [stage, "-o", out] + [a for kv in inputs.items() for a in kv]
    assert run(argv) == 1
    assert "error: %s %s" % (label, bad) in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_camera_matrix_is_validation_error(tmp_path, capsys, geom,
                                                      skeletons):
    cam, kp, _ = scene_files(tmp_path, geom, skeletons)
    obj = json.loads(cam.read_text())
    obj["cameras"][2]["P"][1][3] = float("nan")
    cam.write_text(json.dumps(obj))
    out = tmp_path / "traj.json"
    assert run(["triangulate", "--keypoints", kp, "--cameras", cam,
                "--fps", 60, "-o", out]) == 1
    assert ("error: cameras %s: camera 2 projection must be finite" % cam
            in capsys.readouterr().err)
    assert not out.exists()


def test_triangulate_report_counts_and_leaves_trajectory_bytes(
        tmp_path, capsys, geom, skeletons):
    rig = _synth.five_camera_rig()
    clip = _synth.pose_clip(60.0, [(_synth.parked_pose(0, x=-0.1),
                                    _synth.hover_pose(geom, 1, 40))] * 2)
    uv, conf, valid, _ = _synth.project_clip(clip, skeletons, rig)
    uv[1, 2, 1, 8] += (90.0, 0.0)      # one outlier view
    valid[0, :4, 0, 5] = False          # one view left: not triangulable
    obs = cli.reconstruction.KeypointObservations(uv, conf, valid)
    cam, kp = tmp_path / "cameras.json", tmp_path / "keypoints.json"
    cam.write_text(rig.to_json())
    kp.write_text(obs.to_json())
    plain, reported = tmp_path / "plain.json", tmp_path / "reported.json"
    report_path = tmp_path / "report.json"
    common = ["triangulate", "--keypoints", kp, "--cameras", cam,
              "--fps", 60, "--no-filter"]
    assert run(common + ["-o", plain]) == 0
    assert run(common + ["-o", reported, "--report", report_path]) == 0
    assert plain.read_bytes() == reported.read_bytes()
    report = json.loads(report_path.read_text())
    assert report["n_frames"] == 2
    assert report["valid_points"] == 2 * 42 - 1
    assert report["views_rejected"] == 1
    assert report["ambiguous"] == 0
    # Every valid point agrees in all its views but the one with the
    # outlier view, which takes the pair stage.
    assert report["consensus_points"] == 2 * 42 - 2
    residual = report["residual_px"]
    assert np.shape(residual) == (2, 2, 21)
    assert residual[0][0][5] is None
    assert max(r for frame in residual for row in frame for r in row
               if r is not None) < 1e-6
    # Exact views: a polish converges, or starts at the rounding floor of
    # the SSE, where every step is rejected until the iteration cap.
    iterations = np.array(report["polish_iterations"], dtype=object)
    stop = np.array(report["polish_stop"], dtype=object)
    assert iterations.shape == stop.shape == (2, 2, 21)
    assert iterations[0, 0, 5] is None and stop[0, 0, 5] is None
    iterations[0, 0, 5], stop[0, 0, 5] = 1, "converged"
    assert all(1 <= i <= 10 for i in iterations.flat)
    assert "converged" in set(stop.flat) <= {"converged", "max_iter"}
    assert all(i == 10 for i, s in zip(iterations.flat, stop.flat)
               if s == "max_iter")
    # The golden fixture's exact views all agree.
    assert run(["triangulate", "--keypoints", GOLDEN / "keypoints.json",
                "--cameras", GOLDEN / "cameras.json", "--fps", 60,
                "-o", plain, "--report", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["consensus_points"] == report["valid_points"] == 3 * 42


def noisy_keypoints(geom, skeletons, rig):
    """Two frames of keypoints with noise, outlier views and dropped views,
    zero where dropped."""
    rng = np.random.default_rng(23)
    clip = _synth.pose_clip(60.0, [(_synth.parked_pose(0, x=-0.1),
                                    _synth.hover_pose(geom, 1, k))
                                   for k in (40, 42)])
    uv, conf, valid, _ = _synth.project_clip(clip, skeletons, rig)
    uv += rng.normal(0.0, 0.4, uv.shape)
    uv[rng.random(valid.shape) < 0.15] += (70.0, -40.0)
    valid &= rng.random(valid.shape) >= 0.2
    uv = np.where(valid[..., None], np.clip(uv, 0.0, 2000.0), 0.0)
    return uv, rng.uniform(0.2, 1.0, conf.shape), valid


def triangulate_bytes(tmp_path, name, cameras, keypoints_text, *flags):
    """(trajectory, report) bytes of `triangulate` on a rig and keypoints."""
    cam, kp = tmp_path / (name + "_cameras.json"), tmp_path / (name + ".json")
    cam.write_text(cameras.to_json())
    kp.write_text(keypoints_text)
    out, report = tmp_path / (name + "_out.json"), tmp_path / (name + ".rep")
    assert run(["triangulate", "--keypoints", kp, "--cameras", cam, "--fps",
                60, "--report", report, "-o", out, *flags]) == 0
    return out.read_bytes(), report.read_bytes()


def test_triangulate_takes_keypoint_view_v_as_camera_v(tmp_path, geom,
                                                        skeletons):
    """Keypoints with fewer views than the rig has cameras see the first
    cameras: the same bytes as a rig of those cameras alone."""
    rig = _synth.five_camera_rig()
    uv, conf, valid = noisy_keypoints(geom, skeletons, rig)
    text = reconstruction.KeypointObservations(
        uv[:, :4], conf[:, :4], valid[:, :4]).to_json()
    four = reconstruction.CameraRig(rig.projections[:4])
    for flags in ([], ["--no-filter"]):
        assert (triangulate_bytes(tmp_path, "five", rig, text, *flags)
                == triangulate_bytes(tmp_path, "four", four, text, *flags))


def test_triangulate_refuses_more_views_than_cameras(tmp_path, capsys, geom,
                                                     skeletons):
    rig = _synth.five_camera_rig()
    uv, conf, valid = noisy_keypoints(geom, skeletons, rig)
    cam, kp = tmp_path / "cameras.json", tmp_path / "keypoints.json"
    cam.write_text(rig.to_json())
    kp.write_text(reconstruction.KeypointObservations(
        uv[:, [0, 1, 2, 3, 4, 0]], conf[:, [0, 1, 2, 3, 4, 0]],
        valid[:, [0, 1, 2, 3, 4, 0]]).to_json())
    out = tmp_path / "traj.json"
    assert run(["triangulate", "--keypoints", kp, "--cameras", cam,
                "--fps", 60, "-o", out]) == 1
    err = capsys.readouterr().err
    assert err == "error: keypoints have 6 views, the rig only 5 cameras\n"
    assert not out.exists()


@pytest.mark.parametrize("iters", [0, -1])
def test_triangulate_refuses_fewer_than_one_ransac_iteration(
        tmp_path, capsys, geom, skeletons, iters):
    cam, kp, _ = scene_files(tmp_path, geom, skeletons)
    out = tmp_path / "traj.json"
    assert run(["triangulate", "--keypoints", kp, "--cameras", cam,
                "--fps", 60, "--ransac-iters", iters, "-o", out]) == 1
    err = capsys.readouterr().err
    assert err == ("error: RANSAC needs at least 1 iteration, got %d\n"
                   % iters)
    assert not out.exists()


@pytest.mark.parametrize("case", ["views", "iters"])
def test_triangulate_dry_run_refuses_what_the_run_refuses(
        tmp_path, capsys, geom, skeletons, case):
    cam, kp, _ = scene_files(tmp_path, geom, skeletons)
    flags = ["--ransac-iters", 0]
    if case == "views":
        obs = reconstruction.KeypointObservations.from_json(kp.read_text())
        six = [0, 1, 2, 3, 4, 0]
        kp.write_text(reconstruction.KeypointObservations(
            obs.uv[:, six], obs.conf[:, six], obs.valid[:, six]).to_json())
        flags = []
    out = tmp_path / "traj.json"
    argv = ["triangulate", "--keypoints", kp, "--cameras", cam, "--fps", 60,
            "-o", out] + flags
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert run(argv + ["--dry-run"]) == 1
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--cutoff", 1000], "cutoff must lie in (0, fps/2)"),
    (["--order", 3], "filter order must be even and >= 2"),
    (["--order", 0], "filter order must be even and >= 2"),
], ids=["cutoff1000", "order3", "order0"])
@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry"])
def test_triangulate_checks_filter_arguments_up_front(tmp_path, capsys, flags,
                                                      message, dry_run):
    """The golden fixture's 3 frames are too short to reach the filter, so
    only the up-front check refuses these; --no-filter skips it."""
    out = tmp_path / "traj.json"
    argv = ["triangulate", "--keypoints", GOLDEN / "keypoints.json",
            "--cameras", GOLDEN / "cameras.json", "--fps", 60,
            "-o", out] + flags + dry_run
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()
    assert run(argv + ["--no-filter"]) == 0
    assert capsys.readouterr().err == ""
    assert out.exists() != bool(dry_run)


_CSV_HEADER = "frame,view,hand,joint,u,v,conf,valid\n"


@pytest.mark.parametrize("cell, message", [
    ("0,0,0,-1", "keypoint row 2: joint -1 is not in [0, 21)"),
    ("-1,0,0,0", "keypoint row 2: frame -1 is not in [0, inf)"),
    ("0,-1,0,0", "keypoint row 2: view -1 is not in [0, inf)"),
    ("0,0,2,0", "keypoint row 2: hand 2 is not in [0, 2)"),
    ("0,0,0,21", "keypoint row 2: joint 21 is not in [0, 21)"),
    # numpy refuses this shape before it allocates anything.
    ("%d,0,0,0" % 2 ** 62, "%d frames of 1 views are too many keypoints "
     "to hold in memory" % (2 ** 62 + 1)),
], ids=["joint-1", "frame-1", "view-1", "hand2", "joint21", "frame2**62"])
@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry"])
def test_keypoint_csv_index_out_of_range_is_validation_error(
        tmp_path, capsys, cell, message, dry_run):
    cam, kp = tmp_path / "cameras.json", tmp_path / "keypoints.csv"
    cam.write_text(_synth.five_camera_rig().to_json())
    kp.write_text(_CSV_HEADER + "0,0,0,0,100,100,1,1\n" + cell
                  + ",100,100,1,1\n")
    out = tmp_path / "traj.json"
    assert run(["triangulate", "--keypoints", kp, "--cameras", cam,
                "--fps", 60, "-o", out] + dry_run) == 1
    assert capsys.readouterr().err == "error: keypoints %s: %s\n" % (kp, message)
    assert not out.exists()


def test_triangulate_invalid_views_may_hold_any_pixels(tmp_path, geom,
                                                       skeletons):
    """Infinity, NaN, integers too large for a float and the largest
    floats in invalid views give the bytes that zeros give there, with no
    floating-point warning (tier-1 runs with warnings as errors)."""
    rig = _synth.five_camera_rig()
    uv, conf, valid = noisy_keypoints(geom, skeletons, rig)
    text = reconstruction.KeypointObservations(uv, conf, valid).to_json()
    obj = json.loads(text)
    junk = [float("inf"), float("-inf"), float("nan"), 10 ** 400, -10 ** 400,
            1e308, -1e308]
    for n, (f, v, h, j) in enumerate(zip(*np.nonzero(~valid))):
        obj["uv"][f][v][h][j] = [junk[n % 7], junk[(n + 3) % 7]]
    dirty = json.dumps(obj)
    assert "Infinity" in dirty and "NaN" in dirty and "0" * 400 in dirty
    for flags in ([], ["--no-filter"]):
        assert (triangulate_bytes(tmp_path, "dirty", rig, dirty, *flags)
                == triangulate_bytes(tmp_path, "zeros", rig, text, *flags))


@pytest.mark.parametrize("field", ["uv", "conf"])
def test_nan_keypoint_is_validation_error(tmp_path, capsys, geom, skeletons,
                                          field):
    cam, kp, _ = scene_files(tmp_path, geom, skeletons)
    obj = json.loads(kp.read_text())
    if field == "uv":
        obj["uv"][0][1][1][8][0] = float("nan")
    else:
        obj["conf"][0][1][1][8] = float("nan")
    kp.write_text(json.dumps(obj))
    out = tmp_path / "traj.json"
    assert run(["triangulate", "--keypoints", kp, "--cameras", cam,
                "--fps", 60, "-o", out]) == 1
    assert "error: keypoints" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["inf", "nan", "0"])
@pytest.mark.parametrize("stage", ["quantize", "condition", "triangulate"])
def test_non_finite_fps_is_validation_error(tmp_path, capsys, geom, skeletons,
                                            stage, bad):
    if stage == "triangulate":
        cam, kp, _ = scene_files(tmp_path, geom, skeletons)
        argv = ["--keypoints", kp, "--cameras", cam]
    else:
        mid = tmp_path / "song.mid"
        write_midi(mid, [(40, 0, 2)])
        argv = ["--midi", mid]
    out = tmp_path / "out.json"
    assert run([stage, "--fps", bad, "-o", out] + argv) == 1
    assert "fps must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


def test_refine_via_cli(tmp_path, geom, skeletons):
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    touch = _synth.pressing_pose(geom, skeletons, {}, center_key=40,
                                 lift={7: -0.002})
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, press), (parked, touch)])
    clip_path = tmp_path / "clip.json"
    write_clip(clip_path, clip)
    matrix_path = tmp_path / "score.json"
    write_matrix(matrix_path, [{40}, {40}])
    out = tmp_path / "refined.json"
    report_path = tmp_path / "report.json"
    assert run(["refine", "--clip", clip_path, "--midi", matrix_path,
                "--smoothness", 0, "-o", out, "--report", report_path]) == 0
    refined = MotionClip.from_json(out.read_text())
    presses = metrics.extracted_presses(refined, skeletons, geom)
    assert [presses.keys_at(f) for f in range(presses.n_frames)] == [{40}, {40}]
    report = json.loads(report_path.read_text())
    assert report["errors_before"] == 1
    assert report["errors_after"] == 0


def refine_inputs(tmp_path, geom, skeletons):
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    touch = _synth.pressing_pose(geom, skeletons, {}, center_key=40,
                                 lift={7: -0.002})
    parked = _synth.parked_pose(0)
    clip_path = tmp_path / "clip.json"
    write_clip(clip_path, _synth.pose_clip(
        60.0, [(parked, press), (parked, touch), (parked, press)]))
    matrix_path = tmp_path / "score.json"
    write_matrix(matrix_path, [{40}, {40}, {40}])
    return clip_path, matrix_path


def test_refine_report_lm_diagnostics_leave_clip_bytes(tmp_path, geom,
                                                       skeletons):
    clip_path, matrix_path = refine_inputs(tmp_path, geom, skeletons)
    plain, reported = tmp_path / "plain.json", tmp_path / "reported.json"
    report_path = tmp_path / "report.json"
    base = ["refine", "--clip", clip_path, "--midi", matrix_path]
    assert run(base + ["-o", plain]) == 0
    assert run(base + ["-o", reported, "--report", report_path]) == 0
    assert plain.read_bytes() == reported.read_bytes()
    report = json.loads(report_path.read_text())
    assert report["errors_before"] == 1 and report["errors_after"] == 0
    # Only the right middle finger is edited.
    assert report["stop"] == [[None] * 5, [None, None, "converged", None,
                                           None]]
    n = report["iterations"][1][2]
    assert report["iterations"] == [[None] * 5, [None, None, n, None, None]]
    curve = report["loss_curve"]
    assert 1 <= report["epochs_run"] == len(curve) - 1 <= n
    assert all(b <= a for a, b in zip(curve, curve[1:]))
    assert run(base + ["-o", plain, "--epochs", 1,
                       "--report", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["iterations"][1][2] == 1
    assert report["stop"][1][2] in ("max_iter", "converged")


def test_refine_loads_no_scipy(tmp_path, geom, skeletons):
    clip_path, matrix_path = refine_inputs(tmp_path, geom, skeletons)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "refined.json"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from pianomotion import cli; "
         "rc = cli.main(sys.argv[1:]); "
         "print(rc, sorted(m for m in sys.modules if m.split('.')[0] "
         "== 'scipy'))",
         "refine", "--clip", str(clip_path), "--midi", str(matrix_path),
         "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "0 []"
    assert out.exists()


@pytest.mark.parametrize("error", [
    RuntimeError("an IK subject fingertip moved 0.0500 m, over the budget"),
    FloatingPointError("refinement loss became non-finite"),
])
def test_refine_failure_is_validation_error(tmp_path, capsys, monkeypatch,
                                            error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.midi_ik, "refine_to_midi", fail)
    parked = _synth.parked_pose(0)
    clip_path = tmp_path / "clip.json"
    write_clip(clip_path, _synth.pose_clip(60.0, [(parked, parked)] * 2))
    matrix_path = tmp_path / "score.json"
    write_matrix(matrix_path, [{40}, {40}])
    out = tmp_path / "refined.json"
    assert run(["refine", "--clip", clip_path, "--midi", matrix_path,
                "-o", out]) == 1
    assert "refinement failed: %s" % error in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("stage", ["eval", "reward", "refine", "extract-press"])
def test_non_finite_pose_is_validation_error(tmp_path, capsys, stage, bad):
    parked = _synth.parked_pose(0)
    obj = json.loads(_synth.pose_clip(60.0, [(parked, parked)] * 2).to_json())
    obj["frames"][1][0]["root_q"][0] = bad
    clip_path = tmp_path / "clip.json"
    clip_path.write_text(json.dumps(obj))
    matrix_path = tmp_path / "score.json"
    write_matrix(matrix_path, [{40}, {40}])
    argv = {"eval": ["--midi", matrix_path],
            "reward": ["--midi", matrix_path, "--reference", clip_path],
            "refine": ["--midi", matrix_path],
            "extract-press": []}[stage]
    assert run([stage, "--clip", clip_path] + argv) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"fps": null, "frames": []}',
    '{"fps": Infinity, "frames": []}',
    '{"fps": 60.0, "frames": 5}',
    '{"fps": 60.0, "frames": [[[0, 0, 0], [0, 0, 0]]]}',
    '[60.0, []]',
])
def test_malformed_clip_json_is_validation_error(tmp_path, capsys, text):
    clip_path = tmp_path / "clip.json"
    clip_path.write_text(text)
    assert run(["extract-press", "--clip", clip_path]) == 1
    assert "error: motion clip" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    {"columns": {"0": [[0, 1]]}},
    {"columns": {"40": [[-2, 3]]}},
    {"fps": "60"},
    {"fps": None},
    {"fps": float("nan")},
    {"n_frames": "3"},
    None,
], ids=["key-0", "negative-start", "str-fps", "null-fps", "nan-fps",
        "str-n_frames", "array-payload"])
@pytest.mark.parametrize("stage", ["goalstate", "eval"])
def test_malformed_matrix_json_is_validation_error(tmp_path, capsys, stage,
                                                   edit):
    matrix_path = tmp_path / "score.json"
    obj = json.loads(midi.matrix_to_json(_synth.matrix_from_frames([{40}] * 3)))
    matrix_path.write_text(json.dumps([obj] if edit is None else {**obj, **edit}))
    parked = _synth.parked_pose(0)
    clip_path = tmp_path / "clip.json"
    write_clip(clip_path, _synth.pose_clip(60.0, [(parked, parked)] * 3))
    argv = {"goalstate": ["--fps", 60],
            "eval": ["--clip", clip_path]}[stage]
    assert run([stage, "--midi", matrix_path] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % matrix_path)
    assert "Traceback" not in err


@pytest.mark.parametrize("stage", ["goalstate", "retrieve"])
def test_matrix_too_large_to_allocate_is_validation_error(tmp_path, capsys,
                                                          stage):
    obj = json.loads(midi.matrix_to_json(_synth.matrix_from_frames([{40}] * 30)))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({**obj, "n_frames": 10 ** 12}))
    if stage == "goalstate":
        argv = ["goalstate", "--midi", huge, "--fps", 60]
    else:
        dataset, index = tmp_path / "alpha.json", tmp_path / "index.npz"
        dataset.write_text(json.dumps(obj))
        assert run(["index", "--dataset", dataset, "--fps", 60, "-o", index]) == 0
        argv = ["retrieve", "--index", index, "--query", huge, "--fps", 60]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: n_frames 1000000000000 is too large" % huge)
    assert "Traceback" not in err


# One note 2**28 - 1 ticks long at 1 tick per quarter and the slowest
# tempo: 4.5e9 s, whose key matrix at 59.94 fps would take 21.6 TiB.
_LONG_NOTE = _synth.smf([b"\x00\xff\x51\x03\xff\xff\xff\x00\x90\x3c\x40"
                         b"\xff\xff\xff\x7f\x80\x3c\x00\x00\xff\x2f\x00"],
                        fmt=0, division=1)


@pytest.mark.parametrize("argv", [["quantize"], ["quantize", "--dry-run"],
                                  ["condition"], ["goalstate"]])
def test_midi_matrix_too_large_to_allocate_is_validation_error(tmp_path, argv):
    path = tmp_path / "long.mid"
    path.write_bytes(_LONG_NOTE)
    n_frames = int(np.ceil(midi.parse_midi(_LONG_NOTE).duration() * 59.94))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # A 4 GiB address space refuses the allocation whatever the host's
    # overcommit policy, and nothing is allocated for real.
    code = ("import resource, sys\n"
            "from pianomotion import cli\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(hard, 4 << 30)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", code] + argv
                          + ["--midi", str(path), "--fps", "59.94"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: n_frames %d is too large to hold in memory\n"
                           % n_frames)


@pytest.mark.parametrize("value", ["0", True])
@pytest.mark.parametrize("loader,field", [("trajectory", "positions"),
                                          ("keypoints", "uv"),
                                          ("cameras", "P"),
                                          ("cameras", "image_size")])
def test_string_or_bool_number_in_reconstruction_input_is_validation_error(
        tmp_path, capsys, geom, skeletons, loader, field, value):
    cam, kp, _ = scene_files(tmp_path, geom, skeletons)
    if loader == "trajectory":
        traj = reconstruction.JointTrajectory(60.0, np.zeros((2, 2, 21, 3)),
                                              np.ones((2, 2, 21), dtype=bool))
        path = tmp_path / "traj.json"
        obj = json.loads(traj.to_json())
        obj["positions"][1][0][4] = [value] * 3
        argv = ["fit", "--trajectory", path]
    else:
        path = {"keypoints": kp, "cameras": cam}[loader]
        obj = json.loads(path.read_text())
        if field == "uv":
            obj["uv"][0][1][1][8][0] = value
        elif field == "P":
            obj["cameras"][1]["P"][2][3] = value
        else:
            obj["image_size"][0] = value
        argv = ["triangulate", "--keypoints", kp, "--cameras", cam, "--fps", 60]
    path.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    assert run(argv + ["-o", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s %s: " % (loader, path))
    assert "must be numbers" in err
    assert not out.exists()


def test_midi_key_matrix_file_is_read_once(tmp_path, capsys, monkeypatch):
    midi_path = tmp_path / "score.mid"
    write_midi(midi_path, [(40, 0, 30)])
    reads = []
    read_bytes = cli._read_bytes
    monkeypatch.setattr(cli, "_read_bytes",
                        lambda path: reads.append(path) or read_bytes(path))
    assert run(["goalstate", "--midi", midi_path, "--fps", 60]) == 0
    assert reads == [str(midi_path)]
    midi_path.write_bytes(midi_path.read_bytes()[:-3])
    assert run(["goalstate", "--midi", midi_path, "--fps", 60]) == 1
    assert capsys.readouterr().err.startswith(
        "error: %s: track length exceeds data size (byte offset 18)" % midi_path)


@pytest.mark.parametrize("stage", ["extract-press", "fit", "goalstate", "eval"])
def test_fps_too_large_for_a_float_is_validation_error(tmp_path, capsys,
                                                       stage):
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, parked)] * 2)
    clip_path = tmp_path / "clip.json"
    write_clip(clip_path, clip)
    traj = reconstruction.JointTrajectory(60.0, np.zeros((2, 2, 21, 3)),
                                          np.ones((2, 2, 21), dtype=bool))
    matrix = _synth.matrix_from_frames([{40}] * 2)
    text, argv = {
        "extract-press": (clip.to_json(), ["--clip"]),
        "fit": (traj.to_json(), ["--trajectory"]),
        "goalstate": (midi.matrix_to_json(matrix), ["--fps", 60, "--midi"]),
        "eval": (midi.matrix_to_json(matrix), ["--clip", clip_path, "--midi"]),
    }[stage]
    obj = json.loads(text)
    obj["fps"] = 10 ** 400
    bad_path = tmp_path / "huge_fps.json"
    bad_path.write_text(json.dumps(obj))
    assert run([stage] + argv + [bad_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad_path) in err
    assert "fps must be" in err and "finite" in err


@pytest.mark.parametrize("flag,label", [("--skeleton", "skeleton config"),
                                        ("--keyboard", "keyboard config")])
def test_array_config_file_is_validation_error(tmp_path, capsys, flag, label):
    parked = _synth.parked_pose(0)
    clip_path = tmp_path / "clip.json"
    write_clip(clip_path, _synth.pose_clip(60.0, [(parked, parked)]))
    config = tmp_path / "arr.json"
    config.write_text("[1, 2]")
    assert run(["extract-press", "--clip", clip_path, flag, config]) == 1
    assert "error: %s" % label in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ('{"bogus": 1}', "unknown fields ['bogus']"),
    ('{"travel": "x"}', "travel must be a finite number, got 'x'"),
    ('{"black_key_rise": true}', "black_key_rise must be a finite number, got True"),
    ('{"travel": NaN}', "travel must be a finite number, got nan"),
    ('{"yaw": 1e999}', "yaw must be a finite number, got inf"),
    ('{"position": [0, 0]}', "position must be 3 finite numbers, got (0.0, 0.0)"),
    ('{"position": 1}', "position must be 3 finite numbers, got 1.0"),
])
def test_malformed_keyboard_config_is_one_line_error(tmp_path, capsys, text,
                                                     message):
    parked = _synth.parked_pose(0)
    clip_path = tmp_path / "clip.json"
    write_clip(clip_path, _synth.pose_clip(60.0, [(parked, parked)]))
    config = tmp_path / "kb.json"
    config.write_text(text)
    assert run(["extract-press", "--clip", clip_path, "--keyboard", config]) == 1
    assert capsys.readouterr().err == "error: keyboard config %s: %s\n" % (
        config, message)


def _set(field, index, value):
    """An edit of a skeleton document: the right hand's `field` entry at
    `index` set to `value`."""
    def edit(obj):
        entry = obj["right"][field]
        for i in index[:-1]:
            entry = entry[i]
        entry[index[-1]] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda obj: obj["right"].update(bone_offsets={}),
     "bone_offsets must be numbers in shape (n, 3)"),
    (_set("bone_offsets", (4, 1), float("nan")), "bone_offsets must be finite"),
    (_set("bone_offsets", (4, 1), 10 ** 400), "bone_offsets must be finite"),
    (_set("bone_offsets", (4, 1), "0.01"), "bone_offsets must be numbers"),
    (_set("bone_offsets", (4, 1), True), "bone_offsets must be numbers"),
    (_set("joint_limits", (2, 0, 1), float("inf")), "joint_limits must be finite"),
    (_set("joint_limits", (2, 0, 1), "0.3"), "joint_limits must be numbers"),
    (lambda obj: obj["right"].update(scale=1.0),
     "a hand skeleton must be a JSON object of exactly handedness, "
     "bone_offsets, joint_limits"),
    (lambda obj: obj["right"].pop("joint_limits"),
     "a hand skeleton must be a JSON object of exactly"),
    (lambda obj: obj.update(both=obj["left"]),
     "a skeleton pair must be a JSON object of exactly left and right"),
], ids=["dict-offsets", "nan-offset", "huge-offset", "str-offset",
        "bool-offset", "inf-limit", "str-limit", "unknown-hand-field",
        "missing-limits", "unknown-pair-field"])
def test_malformed_skeleton_config_is_one_line_error(tmp_path, capsys,
                                                     skeletons, edit, message):
    parked = _synth.parked_pose(0)
    clip_path = tmp_path / "clip.json"
    write_clip(clip_path, _synth.pose_clip(60.0, [(parked, parked)]))
    obj = json.loads(skeletons.to_json())
    edit(obj)
    config = tmp_path / "skeleton.json"
    config.write_text(json.dumps(obj))
    assert run(["extract-press", "--dry-run", "--clip", clip_path,
                "--skeleton", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: skeleton config %s: %s" % (config, message))
    assert err.count("\n") == 1


def test_extract_press_and_eval(tmp_path, capsys, geom, skeletons):
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, press), (parked, press)])
    clip_path = tmp_path / "clip.json"
    write_clip(clip_path, clip)

    assert run(["extract-press", "--clip", clip_path]) == 0
    matrix = midi.matrix_from_json(capsys.readouterr().out)
    assert matrix.data[:, 39].tolist() == [1, 1]
    assert matrix.data.sum() == 2

    matrix_path = tmp_path / "score.json"
    write_matrix(matrix_path, [{40}, {40}])
    per_frame = tmp_path / "frames.csv"
    assert run(["eval", "--clip", clip_path, "--midi", matrix_path,
                "--per-frame", per_frame]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["precision"] == 100.0
    assert report["recall"] == 100.0
    assert report["f1"] == 100.0
    lines = per_frame.read_text().strip().split("\n")
    assert lines == ["frame,precision,recall,f1", "0,1.0,1.0,1.0",
                     "1,1.0,1.0,1.0"]


def test_parser_shared_across_calls_leaks_no_option(tmp_path, capsys, geom,
                                                      skeletons):
    # main() parses with one parser per process; a flag given to one call
    # must not reach the next.  Each call's outputs must match a call on a
    # freshly built parser.
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    parked = _synth.parked_pose(0)
    clip_path, matrix_path = tmp_path / "clip.json", tmp_path / "score.json"
    write_clip(clip_path, _synth.pose_clip(
        60.0, [(parked, press), (parked, parked), (parked, parked)]))
    write_matrix(matrix_path, [{40}, set(), set()])
    per_frame = tmp_path / "frames.csv"
    base = ["eval", "--clip", clip_path, "--midi", matrix_path,
            "--per-frame", per_frame]
    calls = [base + ["--skip-vacuous"], base, base + ["--dry-run"], base]

    def outputs(argv):
        if per_frame.exists():
            per_frame.unlink()
        rc = run(argv)
        return (rc, capsys.readouterr(),
                per_frame.read_bytes() if per_frame.exists() else None)

    shared = [outputs(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outputs(argv))
    assert shared == fresh
    assert shared[0] != shared[1]                  # the flag mattered
    assert shared[2] == (0, ("", ""), None)
    assert shared[3] == shared[1]


# ---------------------------------------------------------------------------
# Retrieval


def test_index_and_retrieve(tmp_path, capsys, rng):
    ds_a = tmp_path / "alpha.json"
    ds_b = tmp_path / "beta.json"
    rows_a = [{40 + int(x)} for x in rng.integers(0, 12, 40)]
    rows_b = [{60} if f % 2 else {61, 62} for f in range(40)]
    write_matrix(ds_a, rows_a)
    write_matrix(ds_b, rows_b)
    index_path = tmp_path / "index.npz"
    assert run(["index", "--dataset", ds_a, ds_b, "--fps", 60,
                "-o", index_path]) == 0
    index = retrieval.WindowIndex.load(str(index_path))
    assert set(index.clip_ids) == {"alpha", "beta"}

    query_path = tmp_path / "query.json"
    write_matrix(query_path, rows_a[5:37])
    assert run(["retrieve", "--index", index_path, "--query", query_path,
                "--fps", 60, "--full"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["window_len"] == 30 and payload["stride"] == 1
    assert payload["n_query_windows"] == 3
    assert len(payload["matches"]) == 3
    assert payload["segments"][0]["clip_id"] == "alpha"
    assert payload["segments"][0]["start"] == 5


def test_index_writes_exactly_the_output_path(tmp_path, capsys):
    # numpy appends .npz to a path without that suffix; the CLI must not.
    dataset = tmp_path / "alpha.json"
    write_matrix(dataset, [{40 + f % 5} for f in range(40)])
    index_path = tmp_path / "idx.bin"
    assert run(["index", "--dataset", dataset, "--fps", 60,
                "-o", index_path]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alpha.json",
                                                          "idx.bin"]
    query_path = tmp_path / "query.json"
    write_matrix(query_path, [{40 + f % 5} for f in range(30)])
    assert run(["retrieve", "--index", index_path, "--query", query_path,
                "--fps", 60]) == 0
    assert json.loads(capsys.readouterr().out)["segments"][0]["clip_id"] == "alpha"


@pytest.mark.parametrize("layout", ["windows", "npy"])
def test_retrieve_rejects_index_without_frames(tmp_path, capsys, layout):
    index_path = tmp_path / "old.npz"
    if layout == "windows":
        # The window-per-row layout of earlier releases has no frames.
        np.savez(index_path, window_len=np.int64(30), stride=np.int64(1),
                 windows=np.zeros((1, 30, 88), dtype=np.uint8),
                 clip_ids=np.array(["a"]), window_clip=np.zeros(1, np.int64),
                 window_start=np.zeros(1, np.int64))
    else:
        with open(index_path, "wb") as fh:
            np.save(fh, np.zeros((30, 88), dtype=np.uint8))
    query_path = tmp_path / "query.json"
    write_matrix(query_path, [set()] * 30)
    assert run(["retrieve", "--index", index_path, "--query", query_path,
                "--fps", 60]) == 1
    assert "rebuild it with `pianomotion index`" in capsys.readouterr().err


_PACKED = np.packbits(np.eye(40, 88, dtype=np.uint8), axis=1)


@pytest.mark.parametrize("field,value", [
    ("frames", _PACKED[:, :10]),
    ("frames", np.pad(_PACKED, ((0, 0), (0, 1)))),
    ("frames", _PACKED.astype(np.int64)),
    ("frames", _PACKED.ravel()),
    ("window_len", np.float64(30.7)),
    ("window_len", np.array([30])),
    ("stride", np.float64(1.0)),
    ("clip_frames", np.array([40.0])),
    ("clip_frames", np.array([[40]])),
    ("clip_ids", np.array([7])),
    ("clip_ids", np.array([["a"]])),
], ids=["frames-10-bytes", "frames-12-bytes", "frames-int64", "frames-1d",
        "window_len-float", "window_len-1d", "stride-float",
        "clip_frames-float", "clip_frames-2d", "clip_ids-int", "clip_ids-2d"])
def test_retrieve_rejects_index_of_wrong_type_or_shape(tmp_path, capsys,
                                                       field, value):
    fields = dict(window_len=np.int64(30), stride=np.int64(1), frames=_PACKED,
                  clip_ids=np.array(["a"]), clip_frames=np.array([40]))
    query_path = tmp_path / "query.json"
    write_matrix(query_path, [{40}] * 30)
    argv = ["retrieve", "--index", tmp_path / "i.npz", "--query", query_path,
            "--fps", 60]
    np.savez(tmp_path / "i.npz", **fields)
    assert run(argv) == 0
    capsys.readouterr()
    np.savez(tmp_path / "i.npz", **dict(fields, **{field: value}))
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err
    assert "rebuild it with `pianomotion index`" in err


@pytest.mark.parametrize("same_file", [False, True])
def test_index_rejects_two_clips_of_one_name(tmp_path, capsys, same_file):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, second = tmp_path / "a" / "take.json", tmp_path / "b" / "take.json"
    write_matrix(first, [{40}] * 40)
    write_matrix(second, [{41}] * 40)
    out = tmp_path / "index.npz"
    assert run(["index", "--dataset", first, first if same_file else second,
                "--fps", 60, "-o", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'take'" in err
    assert not out.exists()


def test_retrieve_method_option_is_gone(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "scan"}))
    argv = ["retrieve", "--index", tmp_path / "i.npz",
            "--query", tmp_path / "q.json"]
    assert run(argv + ["--config", cfg]) == 1
    assert "unknown field 'method'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--method", "scan"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# Goal state and rewards


def test_goalstate_csv(tmp_path, capsys):
    matrix_path = tmp_path / "score.json"
    write_matrix(matrix_path, [{40}, {40}, set()])
    assert run(["goalstate", "--midi", matrix_path, "--fps", 60,
                "--frame", 0]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6                     # header + 5 slots
    assert lines[0].startswith("frame,slot,k1,")
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert first[2 + 39] == "1"                # key 40 active in slot 0
    assert first[-1] == "2"                    # two frames to segment end


def test_goalstate_on_zero_frame_matrix_is_validation_error(tmp_path, capsys):
    matrix_path = tmp_path / "score.json"
    matrix_path.write_text('{"type":"key_matrix","fps":60.0,"n_frames":0,'
                           '"n_keys":88,"columns":{}}')
    assert run(["goalstate", "--midi", matrix_path, "--fps", 60]) == 1
    assert capsys.readouterr().err == "error: the key matrix has no frames\n"


def test_reward_json_lines_deterministic(tmp_path, geom, skeletons):
    press = _synth.pressing_pose(geom, skeletons, {7: 40}, depth={7: 0.0095})
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, press), (parked, press)])
    clip_path = tmp_path / "clip.json"
    write_clip(clip_path, clip)
    matrix_path = tmp_path / "score.json"
    write_matrix(matrix_path, [{40}, {40}])
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        assert run(["reward", "--clip", clip_path, "--midi", matrix_path,
                    "-o", out]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().split("\n")
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["targets"] == {"40": 1.0}
    assert first["total"] == pytest.approx(1.45, rel=1e-12)


@pytest.mark.parametrize("frames,fps", [(slice(0, 1), 60.0),
                                        (slice(None), 30.0)])
def test_reward_reference_must_match_the_score(tmp_path, capsys, frames, fps):
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, parked)] * 3)
    clip_path, ref_path = tmp_path / "clip.json", tmp_path / "ref.json"
    write_clip(clip_path, clip)
    reference = clip[frames]
    reference.fps = fps
    write_clip(ref_path, reference)
    matrix_path = tmp_path / "score.json"
    write_matrix(matrix_path, [set(), set(), {40}])
    assert run(["reward", "--clip", clip_path, "--midi", matrix_path,
                "--reference", ref_path]) == 1
    assert capsys.readouterr().err == (
        "error: reference has %d frames at %g fps, matrix 3 at 60\n"
        % (reference.n_frames, fps))


# ---------------------------------------------------------------------------
# Config handling and failure modes


def test_config_file_and_flag_precedence(tmp_path, capsys):
    mid = tmp_path / "song.mid"
    write_midi(mid, [(40, 0, 2)], fps=30.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fps": 30.0}))
    assert run(["quantize", "--midi", mid, "--config", cfg]) == 0
    assert midi.matrix_from_json(capsys.readouterr().out).fps == 30.0
    # An explicit flag beats the config file.
    assert run(["quantize", "--midi", mid, "--config", cfg, "--fps", 60]) == 0
    assert midi.matrix_from_json(capsys.readouterr().out).fps == 60.0


def test_config_env_var(tmp_path, capsys, monkeypatch):
    mid = tmp_path / "song.mid"
    write_midi(mid, [(40, 0, 2)], fps=30.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fps": 30.0}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    assert run(["quantize", "--midi", mid]) == 0
    assert midi.matrix_from_json(capsys.readouterr().out).fps == 30.0


def test_config_rejects_unknown_field(tmp_path, capsys):
    mid = tmp_path / "song.mid"
    write_midi(mid, [(40, 0, 2)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fsp": 30.0}))
    assert run(["quantize", "--midi", mid, "--config", cfg]) == 1
    assert "unknown field" in capsys.readouterr().err


def test_config_rejects_bad_choice(tmp_path, capsys):
    mid = tmp_path / "song.mid"
    write_midi(mid, [(40, 0, 2)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "linear"}))
    assert run(["condition", "--midi", mid, "--config", cfg]) == 1
    assert "must be one of" in capsys.readouterr().err


@pytest.mark.parametrize("command,field,value,kind", [
    ("fit", "max_iter", "5", "an integer"),
    ("fit", "limit_weight", None, "a finite number"),
    ("triangulate", "reproj_threshold", "x", "a finite number"),
    ("triangulate", "seed", 1.5, "an integer"),
    ("refine", "smoothness", "0", "a finite number"),
    ("eval", "activation_depth", "0.004", "a finite number"),
    ("eval", "fps", float("nan"), "a finite number"),
    ("reward", "energy_sign", True, "a finite number"),
    ("index", "window_len", True, "an integer"),
    ("extract-press", "keyboard", 3, "a string or null"),
    ("eval", "skip_vacuous", 0, "true or false"),
])
def test_config_rejects_wrongly_typed_value(tmp_path, capsys, command, field,
                                            value, kind):
    # The value's type is checked before any input is read.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    inputs = {"fit": ["--trajectory", "t.json"],
              "triangulate": ["--keypoints", "k.json", "--cameras", "c.json"],
              "refine": ["--clip", "c.json", "--midi", "s.json"],
              "eval": ["--clip", "c.json", "--midi", "s.json"],
              "reward": ["--clip", "c.json", "--midi", "s.json"],
              "index": ["--dataset", "s.json", "-o", "i.npz"],
              "extract-press": ["--clip", "c.json"]}[command]
    assert run([command] + inputs + ["--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: config %s: field %r must be %s\n" % (cfg, field, kind))


def test_negative_limit_weight_is_validation_error(tmp_path, capsys):
    traj = tmp_path / "traj.json"
    traj.write_text(reconstruction.JointTrajectory(
        60.0, np.zeros((1, 2, 21, 3)), np.zeros((1, 2, 21), bool)).to_json())
    assert run(["fit", "--trajectory", traj, "--limit-weight", -1]) == 1
    assert capsys.readouterr().err == (
        "error: soft limit weight must be >= 0, got -1.0\n")


def test_missing_input_is_io_error(tmp_path, capsys):
    assert run(["quantize", "--midi", tmp_path / "absent.mid"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_corrupt_midi_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.mid"
    bad.write_bytes(b"MThd garbage")
    assert run(["quantize", "--midi", bad]) == 1
    assert "error" in capsys.readouterr().err


def test_eval_fps_mismatch_is_validation_error(tmp_path, capsys, geom,
                                               skeletons):
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    clip = _synth.pose_clip(60.0, [(_synth.parked_pose(0), press)] * 2)
    clip_path = tmp_path / "clip.json"
    write_clip(clip_path, clip)
    matrix_path = tmp_path / "score.json"
    write_matrix(matrix_path, [{40}, {40}], fps=59.94)
    assert run(["eval", "--clip", clip_path, "--midi", matrix_path]) == 1
    assert "fps" in capsys.readouterr().err


def test_dry_run_writes_nothing(tmp_path, capsys):
    mid = tmp_path / "song.mid"
    write_midi(mid, [(40, 0, 2)])
    out = tmp_path / "out.json"
    assert run(["quantize", "--midi", mid, "--fps", 60,
                "-o", out, "--dry-run"]) == 0
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy is only needed by the trajectory filter (scipy.signal), which
    # roughly doubles the start-up time of every subcommand.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pianomotion.cli; print([m for m in ('scipy.signal', "
         "'scipy.spatial', 'scipy.optimize') if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize("case", ["eval", "reward", "reward-reference",
                                  "refine"])
@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry"])
def test_clip_and_matrix_of_other_lengths_refused_with_and_without_dry_run(
        tmp_path, capsys, case, dry_run):
    """A 2-frame clip against the golden 3-frame score: one error line, no
    traceback and no output, with --dry-run too."""
    fitted = GOLDEN / "expected" / "fitted.json"
    short = tmp_path / "short.json"
    write_clip(short, MotionClip.from_json(fitted.read_text())[:2])
    out = tmp_path / "out.json"
    name = "reference" if case == "reward-reference" else "clip"
    argv = {"eval": ["eval", "--clip", short],
            "reward": ["reward", "--clip", short],
            "reward-reference": ["reward", "--clip", fitted,
                                 "--reference", short],
            "refine": ["refine", "--clip", short]}[case]
    assert run(argv + ["--midi", GOLDEN / "score.json", "-o", out]
               + dry_run) == 1
    err = capsys.readouterr().err
    assert err == ("error: %s has 2 frames at 60 fps, matrix 3 at 60\n"
                   % name)
    assert not out.exists()
