"""End-to-end subcommand tests driving the console entry point in-process."""

import json
import os
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
    path.write_bytes(midi.serialize_midi(notes))
    return notes


def write_matrix(path, frame_keys, fps=60.0):
    matrix = _synth.matrix_from_frames(frame_keys, fps=fps)
    path.write_text(midi.matrix_to_json(matrix))
    return matrix


def write_clip(path, clip):
    path.write_text(clip.to_json())


def run(argv):
    return cli.main([str(a) for a in argv])


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
    shifted = midi.NoteList.from_events(
        [midi.NoteEvent(n.onset + 0.035, n.offset + 0.035, n.pitch)
         for n in notes], "b")
    b.write_bytes(midi.serialize_midi(shifted))
    assert run(["sync", "--a", a, "--b", b,
                "--span", 0.1, "--step", 0.005]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matches"] == 3
    assert abs(abs(payload["offset"]) - 0.035) < 1e-9
    assert payload["notes_a"] == 3 and payload["notes_b"] == 3


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
    residual = report["residual_px"]
    assert np.shape(residual) == (2, 2, 21)
    assert residual[0][0][5] is None
    assert max(r for frame in residual for row in frame for r in row
               if r is not None) < 1e-6


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
