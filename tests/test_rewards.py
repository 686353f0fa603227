"""Goal encoding, pose state, and the shaped reward terms."""

import math
import pathlib
import sys

import numpy as np
import pytest

import _scalar_rewards as scalar
import _synth
from pianomotion import hand, keyboard as kb, rewards
from pianomotion.keyboard import KeyState
from pianomotion.midi import KeyMatrix

# The benchmark's synthetic scenes.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))
import scenes  # noqa: E402


def goal_fixture():
    rows = [set(), set(), {40}, {40}, {40, 42}, set()]
    return _synth.matrix_from_frames(rows, fps=60.0)


# ---------------------------------------------------------------------------
# Goal segments


def test_merged_goals_includes_silence():
    segments = rewards.merged_goals(goal_fixture())
    assert [(set(s.keys), s.start, s.end) for s in segments] == [
        (set(), 0, 2),
        ({40}, 2, 4),
        ({40, 42}, 4, 5),
        (set(), 5, 6),
    ]


def test_expand_goals_inverts_merge(rng):
    data = (rng.random((50, 88)) < 0.05).astype(np.uint8)
    matrix = KeyMatrix(60.0, data)
    segments = rewards.merged_goals(matrix)
    back = rewards.expand_goals(segments, 60.0)
    assert np.array_equal(back.data, matrix.data)
    assert back.fps == 60.0
    # Segments partition the frame range without gaps.
    assert segments[0].start == 0
    for a, b in zip(segments, segments[1:]):
        assert a.end == b.start
    assert segments[-1].end == 50


def test_goal_segment_validation():
    with pytest.raises(ValueError):
        rewards.GoalSegment(frozenset(), 3, 3)
    with pytest.raises(ValueError):
        rewards.GoalSegment(frozenset({89}), 0, 1)
    with pytest.raises(ValueError):
        rewards.GoalSegment(frozenset(), -1, 2)


def test_goal_state_slots_and_timers():
    segments = rewards.merged_goals(goal_fixture())
    state = rewards.goal_state(segments, 2)
    mat = state.matrix
    assert mat.shape == (5, 89)
    assert np.flatnonzero(mat[0, :88]).tolist() == [39]
    assert np.flatnonzero(mat[1, :88]).tolist() == [39, 41]
    assert np.flatnonzero(mat[2, :88]).tolist() == []
    # Timers all count frames to each segment's end from the current frame.
    assert state.timers.tolist() == [2.0, 3.0, 4.0, 0.0, 0.0]
    # One frame later the slot-0 timer drops by one.
    assert rewards.goal_state(segments, 3).timers[0] == 1.0


def test_goal_state_out_of_range():
    segments = rewards.merged_goals(goal_fixture())
    with pytest.raises(ValueError, match="outside"):
        rewards.goal_state(segments, 6)
    with pytest.raises(ValueError, match="outside"):
        rewards.goal_state(segments, -1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_goals_equal_per_frame_oracle_on_signals_scene(tmp_path, seed):
    # Every frame of the benchmark's signals scene: the same segments, key
    # sets and goal states as the per-frame merge and the linear scan.
    scene = scenes.signals_scene(seed, str(tmp_path))
    matrix = KeyMatrix(scenes.FPS, scene["score"])
    segments = rewards.merged_goals(matrix)
    want = scalar.merged_goals(matrix)
    assert segments == want
    assert all(type(k) is int for s in segments for k in s.keys)
    for f in range(matrix.n_frames):
        assert np.array_equal(rewards.goal_state(segments, f).matrix,
                              scalar.goal_state(want, f).matrix)
    with pytest.raises(ValueError, match="outside"):
        rewards.goal_state(segments, matrix.n_frames)


def test_goal_state_validation():
    with pytest.raises(ValueError, match="5 x 89"):
        rewards.GoalState(np.zeros((5, 88)))
    bad = np.zeros((5, 89))
    bad[0, 3] = 0.5
    with pytest.raises(ValueError, match="0 or 1"):
        rewards.GoalState(bad)
    bad = np.zeros((5, 89))
    bad[0, 88] = -1.0
    with pytest.raises(ValueError, match="timers"):
        rewards.GoalState(bad)


# ---------------------------------------------------------------------------
# Pose state


def linear_clip(fps=50.0, n=5, speed=0.6):
    frames = []
    for f in range(n):
        frames.append((_synth.pose_vector((0.0, 0.3, 0.0)),
                       _synth.pose_vector((speed * f / fps, 0.0, 0.0))))
    return _synth.pose_clip(fps, frames)


def test_pose_state_layout_and_positions(skeletons):
    clip = linear_clip()
    state = rewards.pose_state(clip, skeletons, 2)
    arr = state.array.reshape(2, 2, 16, 13)
    # History slot 0 is frame 1, slot 1 is frame 2.
    p = hand.clip_positions(clip, skeletons)
    for slot, f in ((0, 1), (1, 2)):
        for h in range(2):
            assert np.allclose(arr[h, slot, :, 0:3], p[f, h, :16], atol=1e-12)
    # Unit quaternions everywhere.
    norms = np.linalg.norm(arr[..., 3:7], axis=-1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_pose_state_linear_velocities_exact(skeletons):
    clip = linear_clip(speed=0.6)
    state = rewards.pose_state(clip, skeletons, 2)
    arr = state.array.reshape(2, 2, 16, 13)
    assert np.allclose(arr[1, :, :, 7:10], [[0.6, 0.0, 0.0]], atol=1e-9)
    assert np.allclose(arr[0, :, :, 7:10], 0.0, atol=1e-9)
    assert np.allclose(arr[..., 10:13], 0.0, atol=1e-9)


def test_pose_state_history_at_clip_head_uses_forward_difference(skeletons):
    # current_frame=1 puts frame 0 in the history; its velocity must come
    # from the (0, 1) pair rather than a nonexistent frame -1.
    clip = linear_clip(speed=0.6)
    state = rewards.pose_state(clip, skeletons, 1)
    arr = state.array.reshape(2, 2, 16, 13)
    assert np.allclose(arr[1, 0, :, 7:10], [[0.6, 0.0, 0.0]], atol=1e-9)


def test_pose_state_angular_velocity(skeletons):
    fps = 100.0
    omega = 0.8
    frames = []
    for f in range(4):
        angle = omega * f / fps
        q = np.array([np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)])
        frames.append((_synth.pose_vector((0.0, 0.3, 0.0)),
                       _synth.pose_vector(root_q=q)))
    state = rewards.pose_state(_synth.pose_clip(fps, frames), skeletons, 2)
    arr = state.array.reshape(2, 2, 16, 13)
    assert np.allclose(arr[1, :, :, 10:13], [[0.0, 0.0, omega]], atol=1e-9)
    assert np.allclose(arr[0, :, :, 10:13], 0.0, atol=1e-9)


def test_pose_state_matches_per_link_reference(skeletons, rng):
    # The batched state equals, bit for bit, one built hand by hand and
    # link by link from single-pose FK and scipy's Rotation.
    from scipy.spatial.transform import Rotation

    clip = _synth.pose_clip(60.0, rng.normal(size=(4, 2, 51)) * 0.5)
    vecs = hand.clip_vectors(clip)

    def fk(f, h):
        p, G = hand.forward_kinematics(skeletons[h].bone_offsets, vecs[f, h])
        return p[:16], G

    for t in (1, 2, 3):
        arr = rewards.pose_state(clip, skeletons, t).array.reshape(2, 2, 16, 13)
        for slot, f in enumerate((t - 1, t)):
            a, b = (f - 1, f) if f >= 1 else (0, 1)
            for h in range(2):
                (p, G), (pa, Ga), (pb, Gb) = fk(f, h), fk(a, h), fk(b, h)
                want = np.empty((16, 13))
                want[:, 0:3] = p
                want[:, 7:10] = (pb - pa) * clip.fps
                for link in range(16):
                    x, y, z, w = Rotation.from_matrix(G[link]).as_quat()
                    q = np.array([w, x, y, z])
                    want[link, 3:7] = -q if w < 0 else q
                    rel = Gb[link] @ Ga[link].T
                    want[link, 10:13] = Rotation.from_matrix(rel).as_rotvec() * clip.fps
                assert np.array_equal(arr[h, slot], want)


def test_pose_state_frame_errors(skeletons):
    clip = linear_clip()
    with pytest.raises(ValueError, match=">= 1"):
        rewards.pose_state(clip, skeletons, 0)
    with pytest.raises(ValueError, match="outside"):
        rewards.pose_state(clip, skeletons, 5)


def test_pose_state_validation():
    with pytest.raises(ValueError, match="shape"):
        rewards.PoseState(np.zeros((2, 2, 100)))
    arr = np.zeros((2, 2, 16 * 13))
    with pytest.raises(ValueError, match="unit"):
        rewards.PoseState(arr)


# ---------------------------------------------------------------------------
# Fingering


def test_assign_fingering_picks_nearest_tip(geom, skeletons):
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    clip = _synth.pose_clip(60.0, [(_synth.parked_pose(0), press)])
    # Fingertips number 1..5 left thumb..pinky, 6..10 right; the right
    # middle finger is 8.
    assert rewards.assign_fingering(clip, skeletons, geom, 40, 0) == 8


def test_assign_fingering_left_hand(geom, skeletons):
    press = _synth.pressing_pose(geom, skeletons, {2: 20}, hand_idx=0)
    clip = _synth.pose_clip(60.0, [(press, _synth.parked_pose(1, x=1.5))])
    assert rewards.assign_fingering(clip, skeletons, geom, 20, 0) == 3


def test_key_press_onset_walks_back():
    rows = [set(), set(), {40}, {40}, {40}, set(), {40}]
    matrix = _synth.matrix_from_frames(rows, fps=60.0)
    assert rewards.key_press_onset(matrix, 40, 4) == 2
    assert rewards.key_press_onset(matrix, 40, 2) == 2
    assert rewards.key_press_onset(matrix, 40, 6) == 6
    with pytest.raises(ValueError, match="not active"):
        rewards.key_press_onset(matrix, 40, 5)


def test_segment_fingering_sticks_to_onset(geom, skeletons):
    # Frame 0: middle finger nearest key 40.  Frames 1+: the hand shifts
    # one key right, making the ring finger nearest.  Key 40 is held
    # throughout, so its fingertip stays the one chosen at onset; key 42
    # starts at frame 2 and picks from the shifted pose.
    hover = _synth.hover_pose(geom, 1, 40)
    shifted = hover.copy()
    shifted[0] += 0.021
    parked = _synth.parked_pose(0)
    reference = _synth.pose_clip(
        60.0, [(parked, hover)] + [(parked, shifted)] * 3)
    rows = [{40}, {40}, {40, 42}, {40, 42}]
    matrix = _synth.matrix_from_frames(rows, fps=60.0)
    segments = rewards.merged_goals(matrix)
    fingering = rewards.segment_fingering(matrix, segments, reference,
                                          skeletons, geom)
    assert fingering[(0, 40)] == 8
    assert fingering[(1, 40)] == 8   # held key keeps its onset assignment
    assert fingering[(1, 42)] == 8   # middle is nearest 42 after the shift


def test_segment_fingering_reassigns_after_release(geom, skeletons):
    hover = _synth.hover_pose(geom, 1, 40)
    shifted = hover.copy()
    shifted[0] += 0.021
    parked = _synth.parked_pose(0)
    reference = _synth.pose_clip(
        60.0, [(parked, hover), (parked, hover),
               (parked, shifted), (parked, shifted)])
    rows = [{40}, set(), {40}, {40}]
    matrix = _synth.matrix_from_frames(rows, fps=60.0)
    segments = rewards.merged_goals(matrix)
    fingering = rewards.segment_fingering(matrix, segments, reference,
                                          skeletons, geom)
    assert fingering[(0, 40)] == 8
    assert fingering[(2, 40)] == 9   # re-pressed under the shifted hand


# ---------------------------------------------------------------------------
# Reward terms


def test_reward_target_sounding_is_one(geom):
    state = KeyState(0.0095, 0.010)
    assert rewards.reward_target((9.0, 9.0, 9.0), state, (0.0, 0.0, 0.0)) == 1.0


def test_reward_target_distance_shaping(geom):
    # 5 cm from the target with an untouched key.
    state = KeyState(0.0, 0.010)
    got = rewards.reward_target((0.05, 0.0, 0.0), state, (0.0, 0.0, 0.0))
    assert got == pytest.approx(math.exp(-0.05), rel=1e-12)
    # On the target with the key half sunk.
    state = KeyState(0.005, 0.010)
    got = rewards.reward_target((0.0, 0.0, 0.0), state, (0.0, 0.0, 0.0))
    assert got == pytest.approx(math.exp(0.005), rel=1e-12)


def test_reward_target_threshold_is_strict(geom):
    # Exactly 90% of travel does not count as sounding.
    state = KeyState(0.009, 0.010)
    got = rewards.reward_target((0.0, 0.0, 0.0), state, (0.1, 0.0, 0.0))
    assert got == pytest.approx(math.exp(-0.1 + 0.01 * 0.9), rel=1e-12)


def test_reward_nontarget_values():
    assert rewards.reward_nontarget(KeyState(0.0, 0.010)) == 0.0
    assert rewards.reward_nontarget(KeyState(0.001, 0.010)) == 0.0
    assert rewards.reward_nontarget(KeyState(0.002, 0.010)) == \
        pytest.approx(0.2 / 0.9, rel=1e-12)
    assert rewards.reward_nontarget(KeyState(0.009, 0.010)) == \
        pytest.approx(1.0, rel=1e-12)
    assert rewards.reward_nontarget(KeyState(0.010, 0.010)) == \
        pytest.approx(1.0 / 0.9, rel=1e-12)


def test_reward_energy_values():
    rest = rewards.reward_energy(np.zeros((2, 3)), np.zeros((2, 5, 3)))
    assert rest == 1.0
    wrist = np.zeros((2, 3))
    wrist[1, 0] = 1.0
    got = rewards.reward_energy(wrist, np.zeros((2, 5, 3)))
    assert got == pytest.approx(math.exp(-0.75), rel=1e-12)
    tips = np.zeros((2, 5, 3))
    tips[0, :, 1] = 1.0  # five fingertips at 1 m/s
    got = rewards.reward_energy(np.zeros((2, 3)), tips)
    assert got == pytest.approx(math.exp(-0.75 * 0.25), rel=1e-12)


def test_reward_energy_validates_shapes():
    with pytest.raises(ValueError):
        rewards.reward_energy(np.zeros(3), np.zeros((2, 5, 3)))
    with pytest.raises(ValueError):
        rewards.reward_energy(np.zeros((2, 3)), np.zeros((10, 3)))


def test_reward_total_combination():
    breakdown = rewards.reward_total(
        targets={40: 0.8, 42: 0.5},
        nontargets={50: 0.3},
        all_correct=True,
        energy=0.9,
        frame=7,
    )
    assert breakdown.total == pytest.approx(
        0.4 - 0.15 * 0.3 + 0.5 - 0.05 * 0.9, rel=1e-12)
    assert breakdown.r_correct == 1.0
    assert breakdown.frame == 7


def test_reward_total_empty_targets_product_is_one():
    breakdown = rewards.reward_total({}, {}, True, 1.0)
    assert breakdown.total == pytest.approx(1.0 + 0.5 - 0.05, rel=1e-12)


def test_reward_total_energy_sign():
    minus = rewards.reward_total({}, {}, False, 1.0, energy_sign=-1.0)
    plus = rewards.reward_total({}, {}, False, 1.0, energy_sign=1.0)
    assert plus.total - minus.total == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ValueError):
        rewards.reward_total({}, {}, False, 1.0, energy_sign=0.5)


def test_reward_breakdown_json_keys_sorted():
    breakdown = rewards.reward_total({42: 0.5, 40: 0.8}, {50: 0.3}, False, 1.0)
    obj = breakdown.to_json_obj()
    assert list(obj["targets"]) == ["40", "42"]
    assert obj["nontargets"] == {"50": 0.3}


# ---------------------------------------------------------------------------
# Whole-clip evaluation


def test_evaluate_rewards_perfect_press(geom, skeletons):
    # A sounding press (9.5 mm of 10 mm travel) on the one target key with
    # a static clip: r+ = 1, no penalties, full correctness bonus, energy
    # at rest.  Total is exactly 1 + 0.5 - 0.05.
    press = _synth.pressing_pose(geom, skeletons, {7: 40}, depth={7: 0.0095})
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, press), (parked, press)])
    tips = hand.clip_fingertips(clip, skeletons)[0]
    assert kb.key_depths(geom, tips)[39] > 0.009   # fixture reaches sounding
    matrix = _synth.matrix_from_frames([{40}, {40}], fps=60.0)
    out = rewards.evaluate_rewards(clip, skeletons, geom, matrix)
    assert len(out) == 2
    for breakdown in out:
        assert breakdown.targets == {40: 1.0}
        assert breakdown.nontargets == {}
        assert breakdown.r_correct == 1.0
        assert breakdown.r_energy == pytest.approx(1.0, abs=1e-12)
        assert breakdown.total == pytest.approx(1.45, rel=1e-12)


def test_evaluate_rewards_wrong_key_penalized(geom, skeletons):
    # The clip presses key 40 while the score wants 42: key 40 becomes a
    # non-target press at ratio 0.6, and the target reward shrinks with
    # the fingertip's distance from key 42.
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, press), (parked, press)])
    matrix = _synth.matrix_from_frames([{42}, {42}], fps=60.0)
    out = rewards.evaluate_rewards(clip, skeletons, geom, matrix)
    breakdown = out[0]
    # The achieved depth sets the penalty; read it back through the key
    # geometry rather than assuming the solver hit 6 mm exactly.
    tips = hand.clip_fingertips(clip, skeletons)[0]
    ratio = kb.key_depths(geom, tips)[39] / geom.travel_of(40)
    assert 0.4 < ratio < 0.8
    assert breakdown.nontargets == {40: pytest.approx(ratio / 0.9, rel=1e-9)}
    assert breakdown.r_correct == 0.0
    assert 0.0 < breakdown.targets[42] < 1.0
    expect_total = (breakdown.targets[42]
                    - 0.15 * breakdown.nontargets[40]
                    - 0.05 * breakdown.r_energy)
    assert breakdown.total == pytest.approx(expect_total, rel=1e-12)


def test_evaluate_rewards_silence_scores_product_one(geom, skeletons):
    hover = _synth.hover_pose(geom, 1, 40)
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, hover), (parked, hover)])
    matrix = _synth.matrix_from_frames([set(), set()], fps=60.0)
    out = rewards.evaluate_rewards(clip, skeletons, geom, matrix)
    # No targets: empty product 1 and the correctness bonus applies.
    assert out[0].targets == {}
    assert out[0].total == pytest.approx(1.0 + 0.5 - 0.05, rel=1e-9)


def test_evaluate_rewards_validates_inputs(geom, skeletons):
    pose = _synth.hover_pose(geom, 1, 40)
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, pose), (parked, pose)])
    with pytest.raises(ValueError, match="frames"):
        rewards.evaluate_rewards(clip, skeletons, geom,
                                 _synth.matrix_from_frames([set()], fps=60.0))
    with pytest.raises(ValueError, match="fps"):
        rewards.evaluate_rewards(
            clip, skeletons, geom,
            _synth.matrix_from_frames([set(), set()], fps=59.94))
    short = _synth.pose_clip(60.0, [(parked, pose)])
    with pytest.raises(ValueError, match="2 frames"):
        rewards.evaluate_rewards(short, skeletons, geom,
                                 _synth.matrix_from_frames([set()], fps=60.0))
