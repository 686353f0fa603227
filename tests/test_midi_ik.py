"""Press-error detection, target construction, and score-driven refinement."""

import json
import pathlib

import numpy as np
import pytest

import _synth
from pianomotion import hand, keyboard as kb, midi, midi_ik
from pianomotion.midi_ik import OMITTED, WRONG_PRESS, PressError


def press_clip(geom, skeletons, n=2, **kw):
    pose = _synth.pressing_pose(geom, skeletons, {7: 40}, **kw)
    parked = _synth.parked_pose(0)
    return _synth.pose_clip(60.0, [(parked, pose)] * n)


def touch_clip(geom, skeletons, n=1, lift={7: -0.002}, center=40):
    """Middle fingertip resting 2 mm into a key: touching, not activating."""
    pose = _synth.pressing_pose(geom, skeletons, {}, center_key=center,
                                lift=lift)
    parked = _synth.parked_pose(0)
    return _synth.pose_clip(60.0, [(parked, pose)] * n)


# ---------------------------------------------------------------------------
# Error detection


def test_detect_no_errors_when_consistent(geom, skeletons):
    clip = press_clip(geom, skeletons)
    matrix = _synth.matrix_from_frames([{40}, {40}], fps=60.0)
    assert midi_ik.detect_press_errors(clip, skeletons, geom, matrix) == []


def test_detect_wrong_press(geom, skeletons):
    clip = press_clip(geom, skeletons)
    matrix = _synth.matrix_from_frames([set(), {40}], fps=60.0)
    errors = midi_ik.detect_press_errors(clip, skeletons, geom, matrix)
    assert [(e.frame, e.key, e.kind) for e in errors] == [(0, 40, WRONG_PRESS)]


def test_detect_omission(geom, skeletons):
    clip = touch_clip(geom, skeletons)
    matrix = _synth.matrix_from_frames([{40}], fps=60.0)
    errors = midi_ik.detect_press_errors(clip, skeletons, geom, matrix)
    assert [(e.frame, e.key, e.kind) for e in errors] == [(0, 40, OMITTED)]


def test_detect_mixed_frame_sorted(geom, skeletons):
    pose = _synth.pressing_pose(geom, skeletons, {8: 40, 7: 42},
                                center_key=42)
    clip = _synth.pose_clip(60.0, [(_synth.parked_pose(0), pose)])
    matrix = _synth.matrix_from_frames([{40, 44}], fps=60.0)
    errors = midi_ik.detect_press_errors(clip, skeletons, geom, matrix)
    assert [(e.key, e.kind) for e in errors] == [(42, WRONG_PRESS),
                                                (44, OMITTED)]


def test_detect_validates_alignment(geom, skeletons):
    clip = press_clip(geom, skeletons)
    with pytest.raises(ValueError, match="frames"):
        midi_ik.detect_press_errors(
            clip, skeletons, geom, _synth.matrix_from_frames([{40}], fps=60.0))
    with pytest.raises(ValueError, match="fps"):
        midi_ik.detect_press_errors(
            clip, skeletons, geom,
            _synth.matrix_from_frames([{40}, {40}], fps=30.0))


# ---------------------------------------------------------------------------
# Surface targets


def test_surface_target_white_front(geom):
    tip = np.array([0.5539, 0.1275, 0.012])
    out = midi_ik._surface_target(geom, 40, tip, 0.005)
    assert np.allclose(out[:2], tip[:2], atol=1e-9)
    assert out[2] == pytest.approx(-0.005, abs=1e-12)
    assert kb.key_for_point(geom, geom.to_world(out)) == 40


def test_surface_target_white_rear_avoids_black_neighbor(geom):
    # A fingertip hovering over the rear strip covered by the C#4 key must
    # clamp into C4's exposed rear interval, not onto the black key.
    x_black = 0.5 * (geom.boxes[40, 0] + geom.boxes[40, 1])
    tip = np.array([x_black, 0.05, 0.012])
    out = midi_ik._surface_target(geom, 40, tip, 0.005)
    assert kb.key_for_point(geom, geom.to_world(out)) == 40
    assert out[1] == pytest.approx(0.05, abs=1e-9)


def test_surface_target_black_key(geom):
    x_black = 0.5 * (geom.boxes[40, 0] + geom.boxes[40, 1])
    tip = np.array([x_black + 0.05, 0.02, 0.02])
    out = midi_ik._surface_target(geom, 41, tip, 0.005)
    assert kb.key_for_point(geom, geom.to_world(out)) == 41
    assert out[2] == pytest.approx(geom.rest_heights[40] - 0.005, abs=1e-12)


# ---------------------------------------------------------------------------
# Target assembly


def test_ik_targets_wrong_press_goes_straight_up(geom, skeletons):
    clip = press_clip(geom, skeletons, n=1)
    errors = [PressError(0, 40, WRONG_PRESS)]
    out = midi_ik.ik_targets(errors, clip, skeletons, geom)
    e = out.errors[0]
    assert e.valid and e.fingertip == 8
    tip = hand.clip_fingertips(clip, skeletons)[0, 7]
    assert np.allclose(e.target[:2], tip[:2], atol=1e-12)
    local = geom.to_local(e.target)
    assert local[2] == pytest.approx(geom.rest_heights[39] + 0.001, abs=1e-12)
    assert out.n_valid == 1 and out.n_invalidated == 0
    assert out.mask[0, 7]


def test_ik_targets_wrong_press_picks_deepest_tip(geom, skeletons):
    # Middle 6 mm into key 40 and ring touching the same key at 1 mm: the
    # wrong-press subject is the deeper middle fingertip.
    base = _synth.hover_pose(geom, 1, 40)
    skel = skeletons.right
    tips0 = _synth.fingertips(skel, base)
    targets = tips0.copy()
    targets[2] = (tips0[2][0], tips0[2][1], -0.006)
    targets[3] = (tips0[2][0] - 0.008, tips0[3][1], -0.001)
    solved = _synth.solve_tip_targets(skel, base, targets,
                                      np.ones(5, dtype=bool))
    tips = _synth.fingertips(skel, solved)
    assert kb.key_for_point(geom, tips[2]) == 40
    assert kb.key_for_point(geom, tips[3]) == 40
    clip = _synth.pose_clip(60.0, [(_synth.parked_pose(0), solved)])
    out = midi_ik.ik_targets([PressError(0, 40, WRONG_PRESS)],
                             clip, skeletons, geom)
    assert out.errors[0].fingertip == 8


def test_ik_targets_omissions_use_distinct_fingertips(geom, skeletons):
    clip = touch_clip(geom, skeletons, lift={7: -0.002, 8: -0.001}, center=42)
    tips = hand.clip_fingertips(clip, skeletons)[0]
    assert kb.key_for_point(geom, tips[8]) == 40     # ring rests on key 40
    errors = [PressError(0, 40, OMITTED), PressError(0, 42, OMITTED)]
    out = midi_ik.ik_targets(errors, clip, skeletons, geom)
    chosen = {e.key: e.fingertip for e in out.errors}
    assert chosen == {40: 9, 42: 8}
    assert all(e.valid for e in out.errors)
    assert out.n_valid == 2
    # Each target sits on its own key at activation + margin depth.
    for e in out.errors:
        assert kb.key_for_point(geom, e.target) == e.key
        assert geom.to_local(e.target)[2] == pytest.approx(-0.005, abs=1e-9)


def test_ik_targets_displacement_gate(geom, skeletons):
    # Fingertips hover 12 mm up; reaching 5 mm below rest needs 17 mm of
    # travel, over the 1 cm budget, so the omission is invalidated.
    hover = _synth.hover_pose(geom, 1, 44)
    clip = _synth.pose_clip(60.0, [(_synth.parked_pose(0), hover)])
    errors = [PressError(0, 44, OMITTED)]
    out = midi_ik.ik_targets(errors, clip, skeletons, geom)
    assert out.errors[0].valid is False
    assert out.n_valid == 0 and out.n_invalidated == 1
    assert not out.mask.any()


def test_ik_targets_wrong_press_without_subject(geom, skeletons):
    clip = touch_clip(geom, skeletons)
    out = midi_ik.ik_targets([PressError(0, 60, WRONG_PRESS)],
                             clip, skeletons, geom)
    assert out.errors[0].valid is False
    assert out.errors[0].fingertip is None
    assert out.n_invalidated == 1


def test_press_error_json():
    e = PressError(3, 40, OMITTED, fingertip=8,
                   target=np.array([0.1, 0.2, 0.3]), valid=True)
    obj = e.to_json_obj()
    assert obj == {"frame": 3, "key": 40, "kind": "omitted", "fingertip": 8,
                   "target": [0.1, 0.2, 0.3], "valid": True}


def test_ik_problem_validation(geom, skeletons):
    clip = press_clip(geom, skeletons, n=1)
    targets = midi_ik.ik_targets([], clip, skeletons, geom)
    with pytest.raises(ValueError, match="smoothness"):
        midi_ik.IkProblem(clip, targets, smoothness=-1.0)
    with pytest.raises(ValueError, match="epochs"):
        midi_ik.IkProblem(clip, targets, epochs=0)
    two = press_clip(geom, skeletons, n=2)
    with pytest.raises(ValueError, match="frames"):
        midi_ik.IkProblem(two, targets)


# ---------------------------------------------------------------------------
# Refinement


def test_refine_without_targets_returns_copy(geom, skeletons):
    clip = press_clip(geom, skeletons)
    targets = midi_ik.ik_targets([], clip, skeletons, geom)
    result = midi_ik.refine(midi_ik.IkProblem(clip, targets), skeletons)
    assert result.loss_curve == []
    assert result.final_loss == 0.0 and result.n_targets == 0
    for f in range(2):
        for h in range(2):
            assert np.array_equal(result.clip.pose(f, h).to_vector(),
                                  clip.pose(f, h).to_vector())
    for name in ("root_t", "root_q", "joint_rotations"):
        assert not np.shares_memory(getattr(result.clip, name),
                                    getattr(clip, name))


def test_refine_fixes_omission_and_keeps_other_frames(geom, skeletons):
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    touch = _synth.pressing_pose(geom, skeletons, {}, center_key=40,
                                 lift={7: -0.002})
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, press), (parked, touch),
                                   (parked, press)])
    matrix = _synth.matrix_from_frames([{40}] * 3, fps=60.0)
    result, before, after = midi_ik.refine_to_midi(
        clip, skeletons, geom, matrix, smoothness=0.0)
    assert [(e.frame, e.kind) for e in before] == [(1, OMITTED)]
    assert after == []
    assert result.final_loss <= result.initial_loss
    assert result.loss_curve[0] == result.initial_loss
    # Zero smoothness: frames without targets come back bit-identical.
    for f in (0, 2):
        for h in range(2):
            assert np.array_equal(result.clip.pose(f, h).to_vector(),
                                  clip.pose(f, h).to_vector())
    # The edited frame keeps its wrist position (translations frozen).
    assert np.array_equal(result.clip.pose(1, 1).root_t,
                          clip.pose(1, 1).root_t)


def test_refine_fixes_wrong_press(geom, skeletons):
    clip = press_clip(geom, skeletons, n=2)
    matrix = _synth.matrix_from_frames([set(), set()], fps=60.0)
    result, before, after = midi_ik.refine_to_midi(
        clip, skeletons, geom, matrix, smoothness=0.0)
    assert [(e.frame, e.kind) for e in before] == [(0, WRONG_PRESS),
                                                   (1, WRONG_PRESS)]
    assert after == []
    tips = hand.clip_fingertips(result.clip, skeletons)
    assert kb.extract_pressed(geom, tips[0], kb.DEFAULT_ACTIVATION_DEPTH) == set()
    assert kb.extract_pressed(geom, tips[1], kb.DEFAULT_ACTIVATION_DEPTH) == set()


def test_refine_with_smoothness_still_fixes(geom, skeletons):
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    touch = _synth.pressing_pose(geom, skeletons, {}, center_key=40,
                                 lift={7: -0.002})
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, press), (parked, touch),
                                   (parked, press)])
    matrix = _synth.matrix_from_frames([{40}] * 3, fps=60.0)
    result, _, after = midi_ik.refine_to_midi(
        clip, skeletons, geom, matrix, smoothness=midi_ik.DEFAULT_SMOOTHNESS)
    assert after == []
    assert result.final_loss <= result.initial_loss


def test_refine_deterministic(geom, skeletons):
    clip = press_clip(geom, skeletons, n=2)
    matrix = _synth.matrix_from_frames([set(), set()], fps=60.0)
    a, _, _ = midi_ik.refine_to_midi(clip, skeletons, geom, matrix)
    b, _, _ = midi_ik.refine_to_midi(clip, skeletons, geom, matrix)
    for f in range(2):
        for h in range(2):
            assert np.array_equal(a.clip.pose(f, h).to_vector(),
                                  b.clip.pose(f, h).to_vector())
    assert a.loss_curve == b.loss_curve


def test_refine_report_obj(geom, skeletons):
    clip = press_clip(geom, skeletons, n=2)
    matrix = _synth.matrix_from_frames([set(), set()], fps=60.0)
    result, _, _ = midi_ik.refine_to_midi(clip, skeletons, geom, matrix)
    obj = result.report_obj()
    assert obj["n_targets"] == 2
    assert obj["n_invalidated"] == 0
    assert obj["epochs_run"] == len(result.loss_curve) - 1
    assert obj["loss_curve"][0] == obj["initial_loss"]


def omission_clip(geom, skeletons, left_poses):
    """Right middle fingertip touching key 40 short of activation on the
    middle frame, pressing it on the others; the score holds key 40."""
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    touch = _synth.pressing_pose(geom, skeletons, {}, center_key=40,
                                 lift={7: -0.002})
    right = [press, touch, press][:len(left_poses)]
    clip = _synth.pose_clip(60.0, list(zip(left_poses, right)))
    return clip, _synth.matrix_from_frames([{40}] * clip.n_frames, fps=60.0)


def test_refine_keeps_parked_hand_at_half_turn(geom, skeletons):
    # Left wrist yawed just either side of pi: its stored rotation vector
    # flips sign from frame to frame although the hand barely turns.
    parked = _synth.parked_pose(0, x=-0.1)
    lefts = [hand.HandPose(parked.root_t, _synth.yaw_quat(np.pi + d),
                           parked.joint_rotations)
             for d in (-1e-3, 1e-3, -1e-3)]
    clip, matrix = omission_clip(geom, skeletons, lefts)
    vecs = hand.clip_vectors(clip)
    assert vecs[0, 0, 5] > 3.0 and vecs[1, 0, 5] < -3.0
    result, before, after = midi_ik.refine_to_midi(clip, skeletons, geom,
                                                   matrix)
    assert len(before) == 1 and after == []
    for name in ("root_t", "root_q", "joint_rotations"):
        assert np.array_equal(getattr(result.clip, name)[:, 0],
                              getattr(clip, name)[:, 0])


@pytest.mark.parametrize("smoothness", [0.0, midi_ik.DEFAULT_SMOOTHNESS])
def test_refine_edits_only_fingers_with_targets(geom, skeletons, smoothness):
    parked = _synth.parked_pose(0, x=-0.1)
    clip, matrix = omission_clip(geom, skeletons, [parked] * 3)
    result, _, after = midi_ik.refine_to_midi(clip, skeletons, geom, matrix,
                                              smoothness=smoothness)
    assert after == []
    # Only the right middle finger (joints 6-8) holds a target.
    middle = np.zeros(15, dtype=bool)
    middle[6:9] = True
    out = result.clip
    assert np.array_equal(out.root_t, clip.root_t)
    assert np.array_equal(out.root_q, clip.root_q)
    assert np.array_equal(out.joint_rotations[:, :, ~middle],
                          clip.joint_rotations[:, :, ~middle])
    same = [np.array_equal(out.joint_rotations[f, 1], clip.joint_rotations[f, 1])
            for f in range(3)]
    # Zero smoothness leaves untouched frames as they were; a positive one
    # spreads the edit to its neighbours.
    assert same == ([True, False, True] if smoothness == 0.0
                    else [False, False, False])
    assert result.stop[1, 2] == "converged"
    assert result.iterations[1, 2] >= 1
    assert (result.stop == None).sum() == 9  # noqa: E711
    assert result.iterations.sum() == result.iterations[1, 2]


def test_refine_epochs_cap_lm_iterations(geom, skeletons):
    parked = _synth.parked_pose(0, x=-0.1)
    clip, matrix = omission_clip(geom, skeletons, [parked] * 3)
    result, _, _ = midi_ik.refine_to_midi(clip, skeletons, geom, matrix,
                                          epochs=2)
    assert result.iterations[1, 2] == 2 and result.stop[1, 2] == "max_iter"
    assert len(result.loss_curve) <= 3


def test_refine_on_golden_clip_keeps_its_committed_report(geom, skeletons):
    # Refine stops by the LM's default relative-decrease rule, the one the
    # fit shares; its loss curve and iterations on the golden clip are
    # the ones committed with the fixture.
    expected = pathlib.Path(__file__).resolve().parent / "golden" / "expected"
    clip = hand.MotionClip.from_json((expected / "fitted.json").read_text())
    matrix = midi.matrix_from_json(
        (expected.parent / "score.json").read_text())
    result, _, _ = midi_ik.refine_to_midi(clip, skeletons, geom, matrix)
    report = result.report_obj()
    want = json.loads((expected / "refine_report.json").read_text())
    assert report["loss_curve"] == want["loss_curve"]
    assert report["iterations"] == want["iterations"]
    assert report["stop"] == want["stop"]
