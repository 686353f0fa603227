"""Press-error detection, target construction, and score-driven refinement."""

import json
import pathlib

import numpy as np
import pytest

import _synth
from pianomotion import hand, keyboard as kb, midi, midi_ik


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


def listed(errors):
    """(frame, key, kind) of each error of (wrong, omitted) masks, frame by
    frame: wrong presses by key, then omissions by key."""
    f, kind, k = np.nonzero(np.stack(errors, axis=1))
    return [(int(a), int(c) + 1, ("wrong", "omitted")[b])
            for a, b, c in zip(f, kind, k)]


def detect(clip, skeletons, geom, matrix):
    tips = hand.clip_fingertips(clip, skeletons)
    return midi_ik.detect_press_errors(geom, *kb.locate_keys(geom, tips),
                                       matrix)


def targets_for(clip, skeletons, geom, wrong=(), omitted=()):
    """ik_targets of the (frame, key) errors listed in wrong and omitted."""
    masks = np.zeros((2, clip.n_frames, 88), dtype=bool)
    for kind, errors in enumerate((wrong, omitted)):
        for f, k in errors:
            masks[kind, f, k - 1] = True
    tips = hand.clip_fingertips(clip, skeletons)
    return midi_ik.ik_targets(*masks, tips, *kb.locate_keys(geom, tips),
                              geom)


# ---------------------------------------------------------------------------
# Error detection


def test_detect_no_errors_when_consistent(geom, skeletons):
    clip = press_clip(geom, skeletons)
    matrix = _synth.matrix_from_frames([{40}, {40}], fps=60.0)
    assert listed(detect(clip, skeletons, geom, matrix)) == []


def test_detect_wrong_press(geom, skeletons):
    clip = press_clip(geom, skeletons)
    matrix = _synth.matrix_from_frames([set(), {40}], fps=60.0)
    wrong, omitted = detect(clip, skeletons, geom, matrix)
    assert wrong.shape == omitted.shape == (2, 88)
    assert listed((wrong, omitted)) == [(0, 40, "wrong")]


def test_detect_omission(geom, skeletons):
    clip = touch_clip(geom, skeletons)
    matrix = _synth.matrix_from_frames([{40}], fps=60.0)
    assert listed(detect(clip, skeletons, geom, matrix)) == [(0, 40, "omitted")]


def test_detect_mixed_frame_sorted(geom, skeletons):
    pose = _synth.pressing_pose(geom, skeletons, {8: 40, 7: 42},
                                center_key=42)
    clip = _synth.pose_clip(60.0, [(_synth.parked_pose(0), pose)])
    matrix = _synth.matrix_from_frames([{40, 44}], fps=60.0)
    assert listed(detect(clip, skeletons, geom, matrix)) == [
        (0, 42, "wrong"), (0, 44, "omitted")]


def test_detect_validates_alignment(geom, skeletons):
    clip = press_clip(geom, skeletons)
    with pytest.raises(ValueError, match="frames"):
        midi_ik.refine_to_midi(
            clip, skeletons, geom, _synth.matrix_from_frames([{40}], fps=60.0))
    with pytest.raises(ValueError, match="fps"):
        midi_ik.refine_to_midi(
            clip, skeletons, geom,
            _synth.matrix_from_frames([{40}, {40}], fps=30.0))
    with pytest.raises(ValueError, match="activation_depth"):
        midi_ik.refine_to_midi(
            clip, skeletons, geom,
            _synth.matrix_from_frames([{40}, {40}], fps=60.0),
            activation_depth=0.02)


# ---------------------------------------------------------------------------
# Surface targets


def surface_target(geom, key, tip, depth):
    return midi_ik._pressable_points(geom, np.array([key - 1]),
                                    tip[None, None], depth)[0, 0]


def test_surface_target_white_front(geom):
    tip = np.array([0.5539, 0.1275, 0.012])
    out = surface_target(geom, 40, tip, 0.005)
    assert np.allclose(out[:2], tip[:2], atol=1e-9)
    assert out[2] == pytest.approx(-0.005, abs=1e-12)
    assert kb.key_for_point(geom, geom.to_world(out)) == 40


def test_surface_target_white_rear_avoids_black_neighbor(geom):
    # A fingertip hovering over the rear strip covered by the C#4 key must
    # clamp into C4's exposed rear interval, not onto the black key.
    x_black = 0.5 * (geom.boxes[40, 0] + geom.boxes[40, 1])
    tip = np.array([x_black, 0.05, 0.012])
    out = surface_target(geom, 40, tip, 0.005)
    assert kb.key_for_point(geom, geom.to_world(out)) == 40
    assert out[1] == pytest.approx(0.05, abs=1e-9)


def test_surface_target_black_key(geom):
    x_black = 0.5 * (geom.boxes[40, 0] + geom.boxes[40, 1])
    tip = np.array([x_black + 0.05, 0.02, 0.02])
    out = surface_target(geom, 41, tip, 0.005)
    assert kb.key_for_point(geom, geom.to_world(out)) == 41
    assert out[2] == pytest.approx(geom.rest_heights[40] - 0.005, abs=1e-12)


# ---------------------------------------------------------------------------
# Target assembly


def test_ik_targets_wrong_press_goes_straight_up(geom, skeletons):
    clip = press_clip(geom, skeletons, n=1)
    out = targets_for(clip, skeletons, geom, wrong=[(0, 40)])
    assert out.n_valid == 1 and out.n_invalidated == 0
    assert out.mask[0, 7]
    target = out.targets[0, 7]
    tip = hand.clip_fingertips(clip, skeletons)[0, 7]
    assert np.allclose(target[:2], tip[:2], atol=1e-12)
    local = geom.to_local(target)
    assert local[2] == pytest.approx(geom.rest_heights[39] + 0.001, abs=1e-12)
    assert np.isnan(out.targets[~out.mask]).all()


def test_ik_targets_wrong_press_picks_deepest_tip(geom, skeletons):
    # Middle 6 mm into key 40 and ring touching the same key at 1 mm: the
    # wrong-press subject is the deeper middle fingertip.
    base = _synth.hover_pose(geom, 1, 40)
    skel = skeletons.right.bone_offsets
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
    out = targets_for(clip, skeletons, geom, wrong=[(0, 40)])
    assert np.flatnonzero(out.mask[0]).tolist() == [7]


def test_ik_targets_omissions_use_distinct_fingertips(geom, skeletons):
    clip = touch_clip(geom, skeletons, lift={7: -0.002, 8: -0.001}, center=42)
    tips = hand.clip_fingertips(clip, skeletons)[0]
    assert kb.key_for_point(geom, tips[8]) == 40     # ring rests on key 40
    out = targets_for(clip, skeletons, geom, omitted=[(0, 40), (0, 42)])
    assert out.n_valid == 2 and out.n_invalidated == 0
    assert np.flatnonzero(out.mask[0]).tolist() == [7, 8]
    # Each target sits on its own key at activation + margin depth.
    for i, key in ((8, 40), (7, 42)):
        assert kb.key_for_point(geom, out.targets[0, i]) == key
        assert geom.to_local(out.targets[0, i])[2] == pytest.approx(
            -0.005, abs=1e-9)


def test_ik_targets_displacement_gate(geom, skeletons):
    # Fingertips hover 12 mm up; reaching 5 mm below rest needs 17 mm of
    # travel, over the 1 cm budget, so the omission is invalidated.
    hover = _synth.hover_pose(geom, 1, 44)
    clip = _synth.pose_clip(60.0, [(_synth.parked_pose(0), hover)])
    out = targets_for(clip, skeletons, geom, omitted=[(0, 44)])
    assert out.n_valid == 0 and out.n_invalidated == 1
    assert not out.mask.any()


def test_ik_targets_wrong_press_without_subject(geom, skeletons):
    clip = touch_clip(geom, skeletons)
    out = targets_for(clip, skeletons, geom, wrong=[(0, 60)])
    assert out.n_valid == 0 and out.n_invalidated == 1
    assert not out.mask.any()


def test_ik_problem_validation(geom, skeletons):
    clip = press_clip(geom, skeletons, n=1)
    targets = targets_for(clip, skeletons, geom)
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
    targets = targets_for(clip, skeletons, geom)
    result = midi_ik.refine(midi_ik.IkProblem(clip, targets), skeletons)
    assert result.loss_curve == []
    assert result.final_loss == 0.0 and result.n_targets == 0
    assert np.array_equal(hand.clip_vectors(result.clip),
                          hand.clip_vectors(clip))
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
    assert listed(before) == [(1, 40, "omitted")]
    assert listed(after) == []
    assert result.final_loss <= result.initial_loss
    assert result.loss_curve[0] == result.initial_loss
    # Zero smoothness: frames without targets come back bit-identical.
    assert np.array_equal(hand.clip_vectors(result.clip, [0, 2]),
                          hand.clip_vectors(clip, [0, 2]))
    # The edited frame keeps its wrist position (translations frozen).
    assert np.array_equal(result.clip.root_t[1, 1], clip.root_t[1, 1])


def test_refine_fixes_wrong_press(geom, skeletons):
    clip = press_clip(geom, skeletons, n=2)
    matrix = _synth.matrix_from_frames([set(), set()], fps=60.0)
    result, before, after = midi_ik.refine_to_midi(
        clip, skeletons, geom, matrix, smoothness=0.0)
    assert listed(before) == [(0, 40, "wrong"), (1, 40, "wrong")]
    assert listed(after) == []
    tips = hand.clip_fingertips(result.clip, skeletons)
    assert kb.extract_pressed(geom, tips[0], kb.DEFAULT_ACTIVATION_DEPTH) == set()
    assert kb.extract_pressed(geom, tips[1], kb.DEFAULT_ACTIVATION_DEPTH) == set()


@pytest.mark.parametrize("scored,calls", [({40}, 2), (set(), 1)])
def test_refine_to_midi_computes_each_clips_fingertips_once(
        geom, skeletons, monkeypatch, scored, calls):
    """The input clip's fingertips serve detection, targeting and the
    solve; the refined clip's serve the displacement guard and the
    after-check.  Without a target the refined clip is the input's copy."""
    clip = touch_clip(geom, skeletons, n=2)
    matrix = _synth.matrix_from_frames([scored] * 2, fps=60.0)
    seen = []

    def counted(c, s):
        seen.append(c)
        return hand.clip_fingertips(c, s)

    monkeypatch.setattr(midi_ik, "clip_fingertips", counted)
    result, before, after = midi_ik.refine_to_midi(clip, skeletons, geom,
                                                   matrix)
    assert len(seen) == calls and seen[0] is clip
    assert len(listed(before)) == (2 if scored else 0) and listed(after) == []
    assert (result.tips.tobytes()
            == hand.clip_fingertips(result.clip, skeletons).tobytes())


def test_refine_walks_finger_chains_not_whole_hands(geom, skeletons,
                                                   monkeypatch):
    """The LM reads one fingertip per target: every objective and Jacobian
    walks the finger's chain from a base that one FK of the input clip
    gave, so refine runs full-hand FK twice (that base and the refined
    clip's fingertips) and never a full-hand Jacobian."""
    clip = touch_clip(geom, skeletons, n=3)
    matrix = _synth.matrix_from_frames([{40}] * 3, fps=60.0)
    tips = hand.clip_fingertips(clip, skeletons)
    keys, depths = kb.locate_keys(geom, tips)
    targets = midi_ik.ik_targets(
        *midi_ik.detect_press_errors(geom, keys, depths, matrix), tips, keys,
        depths, geom)
    fk_calls, chain_calls = [], []

    def count(calls, fn):
        return lambda *args: calls.append(1) or fn(*args)

    def refuse(*args):
        raise AssertionError("refine built a full-hand Jacobian")

    fk = count(fk_calls, hand.forward_kinematics)
    for module in (hand, midi_ik):
        monkeypatch.setattr(module, "forward_kinematics", fk, raising=False)
        monkeypatch.setattr(module, "fk_jacobian", refuse, raising=False)
    for name in ("chain_tips", "tip_jacobian"):
        monkeypatch.setattr(midi_ik, name,
                            count(chain_calls, getattr(midi_ik, name)))
    result = midi_ik.refine(midi_ik.IkProblem(clip, targets), skeletons)
    assert len(fk_calls) == 2
    assert len(chain_calls) >= len(result.loss_curve) > 2


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
    assert listed(after) == []
    assert result.final_loss <= result.initial_loss


def test_refine_deterministic(geom, skeletons):
    clip = press_clip(geom, skeletons, n=2)
    matrix = _synth.matrix_from_frames([set(), set()], fps=60.0)
    a, _, _ = midi_ik.refine_to_midi(clip, skeletons, geom, matrix)
    b, _, _ = midi_ik.refine_to_midi(clip, skeletons, geom, matrix)
    assert np.array_equal(hand.clip_vectors(a.clip), hand.clip_vectors(b.clip))
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
    lefts = [_synth.pose_vector(parked[:3], _synth.yaw_quat(np.pi + d))
             for d in (-1e-3, 1e-3, -1e-3)]
    clip, matrix = omission_clip(geom, skeletons, lefts)
    vecs = hand.clip_vectors(clip)
    assert vecs[0, 0, 5] > 3.0 and vecs[1, 0, 5] < -3.0
    result, before, after = midi_ik.refine_to_midi(clip, skeletons, geom,
                                                   matrix)
    assert len(listed(before)) == 1 and listed(after) == []
    for name in ("root_t", "root_q", "joint_rotations"):
        assert np.array_equal(getattr(result.clip, name)[:, 0],
                              getattr(clip, name)[:, 0])


@pytest.mark.parametrize("smoothness", [0.0, midi_ik.DEFAULT_SMOOTHNESS])
def test_refine_edits_only_fingers_with_targets(geom, skeletons, smoothness):
    parked = _synth.parked_pose(0, x=-0.1)
    clip, matrix = omission_clip(geom, skeletons, [parked] * 3)
    result, _, after = midi_ik.refine_to_midi(clip, skeletons, geom, matrix,
                                              smoothness=smoothness)
    assert listed(after) == []
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
