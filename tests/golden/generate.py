#!/usr/bin/env python3
"""Regenerate the golden end-to-end pipeline fixture.

Builds a three-frame two-hand scene with one consistent press, one omitted
note (shallow touch below the activation depth), and one wrong press
(pressed key absent from the score), projects it into a five-camera rig,
and runs the full CLI chain

    triangulate -> fit -> refine -> eval, extract-press, reward

committing both the inputs and every intermediate output.  Tests replay
the same chain and compare bytes, so this script must only be re-run when
the pipeline's intended output genuinely changes.

The scene inputs (keypoints.json, cameras.json, score.json) are rebuilt
only when one of them is missing; otherwise the chain is replayed on the
committed inputs, so a re-run cannot move them by the last bits that the
synthetic scene's numerical solves leave to the numpy/scipy build.

Run from anywhere:  python3 tests/golden/generate.py
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import _synth  # noqa: E402
from pianomotion import cli, midi  # noqa: E402
from pianomotion.hand import SkeletonPair  # noqa: E402
from pianomotion.keyboard import build_keyboard  # noqa: E402
from pianomotion.reconstruction import KeypointObservations  # noqa: E402

FPS = 60.0
INPUT_FILES = ("keypoints.json", "cameras.json", "score.json")


def build_scene():
    geom = build_keyboard()
    skeletons = SkeletonPair.default()
    left = _synth.parked_pose(0, x=-0.1)
    frames = [
        (left, _synth.pressing_pose(geom, skeletons, {7: 40})),
        (left, _synth.pressing_pose(geom, skeletons, {}, center_key=40,
                                    lift={7: -0.002})),
        (left, _synth.pressing_pose(geom, skeletons, {7: 42})),
    ]
    clip = _synth.pose_clip(FPS, frames)
    score = [{40}, {40}, set()]
    return geom, skeletons, clip, score


def run(argv):
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise SystemExit("pipeline stage failed: %r -> %d" % (argv, rc))


def write_inputs():
    geom, skeletons, clip, score = build_scene()
    rig = _synth.five_camera_rig()
    uv, conf, valid, joints = _synth.project_clip(clip, skeletons, rig)
    obs = KeypointObservations(uv, conf, valid)
    (HERE / "cameras.json").write_text(rig.to_json())
    (HERE / "keypoints.json").write_text(obs.to_json())
    (HERE / "score.json").write_text(
        midi.matrix_to_json(_synth.matrix_from_frames(score, fps=FPS)))


def main():
    inputs = [HERE / name for name in INPUT_FILES]
    if not all(path.exists() for path in inputs):
        write_inputs()
        print("scene inputs rebuilt")

    out = HERE / "expected"
    out.mkdir(exist_ok=True)

    run(["triangulate", "--keypoints", HERE / "keypoints.json",
         "--cameras", HERE / "cameras.json", "--fps", FPS,
         "-o", out / "trajectory.json"])
    run(["fit", "--trajectory", out / "trajectory.json",
         "--report", out / "fit_report.json", "-o", out / "fitted.json"])
    run(["refine", "--clip", out / "fitted.json",
         "--midi", HERE / "score.json",
         "--report", out / "refine_report.json", "-o", out / "refined.json"])
    run(["eval", "--clip", out / "refined.json",
         "--midi", HERE / "score.json", "--per-frame", out / "eval_frames.csv",
         "-o", out / "eval.json"])
    run(["extract-press", "--clip", out / "refined.json",
         "-o", out / "presses.json"])
    run(["reward", "--clip", out / "refined.json",
         "--midi", HERE / "score.json", "-o", out / "rewards.jsonl"])

    # The fixture is only useful if the refinement actually had work to do
    # and finished it; fail loudly if the scene has drifted.
    import json
    report = json.loads((out / "refine_report.json").read_text())
    if report["errors_before"] < 2 or report["errors_after"] != 0:
        raise SystemExit("fixture drift: refine report %r" % report)
    ev = json.loads((out / "eval.json").read_text())
    if ev["f1"] != 100.0:
        raise SystemExit("fixture drift: eval %r" % ev)
    print("golden fixture regenerated: errors_before=%d f1=%.1f"
          % (report["errors_before"], ev["f1"]))


if __name__ == "__main__":
    main()
