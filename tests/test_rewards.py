"""Goal encoding, pose state, and the shaped reward terms."""

import dataclasses
import json
import math
import pathlib
import sys

import numpy as np
import pytest

import _scalar_kinematics as kinematics
import _scalar_rewards as scalar
import _synth
from pianomotion import cli, hand, keyboard as kb, midi, rewards
from pianomotion.midi import KeyMatrix

# The benchmark's synthetic scenes.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))
import scenes  # noqa: E402


@pytest.fixture(scope="module")
def signals_scenes(tmp_path_factory):
    """The signals scene of a seed, made once per module."""
    made = {}

    def scene(seed):
        if seed not in made:
            made[seed] = scenes.signals_scene(
                seed, str(tmp_path_factory.mktemp("signals%d" % seed)))
        return made[seed]
    return scene


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


def test_merged_goals_rebuild_the_matrix(rng):
    data = (rng.random((50, 88)) < 0.05).astype(np.uint8)
    segments = rewards.merged_goals(KeyMatrix(60.0, data))
    back = np.zeros_like(data)
    for seg in segments:
        back[seg.start:seg.end, [k - 1 for k in seg.keys]] = 1
    assert np.array_equal(back, data)
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
def test_goals_equal_per_frame_oracle_on_signals_scene(signals_scenes, seed):
    # Every frame of the benchmark's signals scene: the same segments, key
    # sets and goal states as the per-frame merge and the linear scan.
    scene = signals_scenes(seed)
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
    def fk(f, h):
        p, G = kinematics.clip_forward_kinematics(skeletons[h].bone_offsets,
                                                  clip, f, h)
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


def _per_link_pose_state(clip, skeletons, t):
    """The pose state at frame t built hand by hand and link by link from
    single-pose FK and scipy's Rotation, as (2, 2, 16, 13)."""
    from scipy.spatial.transform import Rotation

    def fk(f, h):
        p, G = kinematics.clip_forward_kinematics(skeletons[h].bone_offsets,
                                                  clip, f, h)
        return p[:16], G

    want = np.empty((2, 2, 16, 13))
    for slot, f in enumerate((t - 1, t)):
        a, b = (f - 1, f) if f >= 1 else (0, 1)
        for h in range(2):
            (p, G), (pa, Ga), (pb, Gb) = fk(f, h), fk(a, h), fk(b, h)
            want[h, slot, :, 0:3] = p
            want[h, slot, :, 7:10] = (pb - pa) * clip.fps
            for link in range(16):
                x, y, z, w = Rotation.from_matrix(G[link]).as_quat()
                q = np.array([w, x, y, z])
                want[h, slot, link, 3:7] = -q if w < 0 else q
                rel = Rotation.from_matrix(Gb[link] @ Ga[link].T)
                want[h, slot, link, 10:13] = rel.as_rotvec() * clip.fps
    return want


def test_pose_state_matches_per_link_reference_on_a_longer_clip(skeletons,
                                                                 rng):
    # Frames 1 and 2 start the clip, where the frames FK sees are fewer or
    # the history's first velocity is the forward one; 6 and 11 lie inside
    # and at the end of a 12-frame clip.
    clip = _synth.pose_clip(60.0, rng.normal(size=(12, 2, 51)) * 0.5)
    for t in (1, 2, 6, 11):
        arr = rewards.pose_state(clip, skeletons, t).array.reshape(2, 2, 16, 13)
        assert np.array_equal(arr, _per_link_pose_state(clip, skeletons, t))


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


def key_targets(geom):
    return kb.key_target_position(geom, np.arange(1, 89))


def test_assign_fingering_picks_nearest_tip(geom, skeletons):
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    clip = _synth.pose_clip(60.0, [(_synth.parked_pose(0), press)])
    matrix = _synth.matrix_from_frames([{40}], fps=60.0)
    # Fingertips number 1..5 left thumb..pinky, 6..10 right; the right
    # middle finger is 8.  Silent keys get 0.
    got = rewards.fingering(matrix, clip, skeletons, key_targets(geom))
    assert got[0, 39] == 8
    assert np.count_nonzero(got) == 1


def test_assign_fingering_left_hand(geom, skeletons):
    press = _synth.pressing_pose(geom, skeletons, {2: 20}, hand_idx=0)
    clip = _synth.pose_clip(60.0, [(press, _synth.parked_pose(1, x=1.5))])
    matrix = _synth.matrix_from_frames([{20}], fps=60.0)
    assert rewards.fingering(matrix, clip, skeletons, key_targets(geom))[0, 19] == 3


def test_assign_fingering_ties_go_to_the_lower_index(geom, skeletons):
    # Two right hands in one pose: each left fingertip ties with its right
    # counterpart, and the left (lower) index wins.
    twin = dataclasses.replace(skeletons.right, handedness="left")
    pair = hand.SkeletonPair(twin, skeletons.right)
    hover = _synth.hover_pose(geom, 1, 40)
    clip = _synth.pose_clip(60.0, [(hover, hover)])
    tips = hand.clip_fingertips(clip, pair)[0]
    assert np.array_equal(tips[:5], tips[5:])
    matrix = _synth.matrix_from_frames([{40}], fps=60.0)
    assert rewards.fingering(matrix, clip, pair, key_targets(geom))[0, 39] == 3


def test_key_press_onset_walks_back():
    rows = [set(), set(), {40}, {40}, {40}, set(), {40}]
    matrix = _synth.matrix_from_frames(rows, fps=60.0)
    onsets = rewards.press_onsets(matrix.data)
    assert onsets.shape == (7, 88)
    assert onsets[:, 39].tolist() == [-1, -1, 2, 2, 2, -1, 6]
    assert (onsets[:, :39] == -1).all()


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
    fingering = rewards.fingering(matrix, reference, skeletons, key_targets(geom))
    assert fingering[:, 39].tolist() == [8, 8, 8, 8]  # held: onset's choice
    assert fingering[:, 41].tolist() == [0, 0, 8, 8]  # middle after the shift


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
    fingering = rewards.fingering(matrix, reference, skeletons, key_targets(geom))
    # Re-pressed under the shifted hand.
    assert fingering[:, 39].tolist() == [8, 0, 9, 9]


# ---------------------------------------------------------------------------
# Reward terms


def test_reward_target_sounding_is_one(geom):
    assert rewards.reward_target((9.0, 9.0, 9.0), 0.95, (0.0, 0.0, 0.0)) == 1.0


def test_reward_target_distance_shaping(geom):
    # 5 cm from the target with an untouched key.
    got = rewards.reward_target((0.05, 0.0, 0.0), 0.0, (0.0, 0.0, 0.0))
    assert got == pytest.approx(math.exp(-0.05), rel=1e-12)
    # On the target with the key half sunk.
    got = rewards.reward_target((0.0, 0.0, 0.0), 0.5, (0.0, 0.0, 0.0))
    assert got == pytest.approx(math.exp(0.005), rel=1e-12)
    # A batch of keys at once.
    got = rewards.reward_target([[0.05, 0.0, 0.0], [9.0, 9.0, 9.0]],
                                [0.0, 0.95], np.zeros((2, 3)))
    assert got.shape == (2,)
    assert got[0] == pytest.approx(math.exp(-0.05), rel=1e-12)
    assert got[1] == 1.0


def test_reward_target_threshold_is_strict(geom):
    # Exactly 90% of travel does not count as sounding.
    got = rewards.reward_target((0.0, 0.0, 0.0), 0.9, (0.1, 0.0, 0.0))
    assert got == pytest.approx(math.exp(-0.1 + 0.01 * 0.9), rel=1e-12)


def test_reward_nontarget_values():
    got = rewards.reward_nontarget([0.0, 0.1, 0.2, 0.9, 1.0])
    assert got[0] == 0.0
    assert got[1] == 0.0                      # the 0.1 ignore ratio is kept
    assert got[2] == pytest.approx(0.2 / 0.9, rel=1e-12)
    assert got[3] == pytest.approx(1.0, rel=1e-12)
    assert got[4] == pytest.approx(1.0 / 0.9, rel=1e-12)


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
    batch = rewards.reward_energy(np.stack([np.zeros((2, 3)), wrist]),
                                  np.zeros((2, 2, 5, 3)))
    assert batch.shape == (2,)
    assert batch[0] == 1.0
    assert batch[1] == pytest.approx(math.exp(-0.75), rel=1e-12)


def test_reward_energy_validates_shapes():
    with pytest.raises(ValueError):
        rewards.reward_energy(np.zeros(3), np.zeros((2, 5, 3)))
    with pytest.raises(ValueError):
        rewards.reward_energy(np.zeros((2, 3)), np.zeros((10, 3)))
    with pytest.raises(ValueError):
        rewards.reward_energy(np.zeros((4, 2, 3)), np.zeros((3, 2, 5, 3)))


def key_row(fill, values):
    """An (88,) row holding `fill` except at the given keys."""
    row = np.full(88, fill)
    for k, v in values.items():
        row[k - 1] = v
    return row


def test_reward_total_combination():
    total = rewards.reward_total(key_row(1.0, {40: 0.8, 42: 0.5}),
                                 key_row(0.0, {50: 0.3}), 1.0, 0.9)
    assert total == pytest.approx(0.4 - 0.15 * 0.3 + 0.5 - 0.05 * 0.9,
                                  rel=1e-12)


def test_reward_total_empty_targets_product_is_one():
    total = rewards.reward_total(np.ones(88), np.zeros(88), 1.0, 1.0)
    assert total == pytest.approx(1.0 + 0.5 - 0.05, rel=1e-12)


def test_reward_total_energy_sign():
    minus = rewards.reward_total(np.ones(88), np.zeros(88), 0.0, 1.0,
                                 energy_sign=-1.0)
    plus = rewards.reward_total(np.ones(88), np.zeros(88), 0.0, 1.0,
                                energy_sign=1.0)
    assert plus - minus == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ValueError):
        rewards.reward_total(np.ones(88), np.zeros(88), 0.0, 1.0,
                             energy_sign=0.5)


def test_reward_breakdown_json_keys_sorted(tmp_path, geom, skeletons):
    # The clip presses key 40 where the score wants 45 and 42: each line's
    # fields and key maps are sorted.
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    parked = _synth.parked_pose(0)
    clip_path = tmp_path / "clip.json"
    clip_path.write_text(_synth.pose_clip(60.0, [(parked, press)] * 2).to_json())
    matrix_path = tmp_path / "score.json"
    matrix_path.write_text(midi.matrix_to_json(
        _synth.matrix_from_frames([{45, 42}] * 2, fps=60.0)))
    out = tmp_path / "rewards.jsonl"
    assert cli.main(["reward", "--clip", str(clip_path), "--midi",
                     str(matrix_path), "-o", str(out)]) == 0
    line = out.read_text().split("\n")[0]
    obj = json.loads(line)
    assert list(obj) == sorted(obj)
    assert list(obj["targets"]) == ["42", "45"]
    assert list(obj["nontargets"]) == ["40"]


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
    assert out.total.shape == (2,)
    assert np.array_equal(out.targets, matrix.data.astype(bool))
    assert (out.r_target == 1.0).all()
    assert (out.r_nontarget == 0.0).all()
    assert (out.r_correct == 1.0).all()
    assert out.r_energy == pytest.approx([1.0, 1.0], abs=1e-12)
    assert out.total == pytest.approx([1.45, 1.45], rel=1e-12)


def test_evaluate_rewards_wrong_key_penalized(geom, skeletons):
    # The clip presses key 40 while the score wants 42: key 40 becomes a
    # non-target press at ratio 0.6, and the target reward shrinks with
    # the fingertip's distance from key 42.
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, press), (parked, press)])
    matrix = _synth.matrix_from_frames([{42}, {42}], fps=60.0)
    out = rewards.evaluate_rewards(clip, skeletons, geom, matrix)
    # The achieved depth sets the penalty; read it back through the key
    # geometry rather than assuming the solver hit 6 mm exactly.
    tips = hand.clip_fingertips(clip, skeletons)[0]
    ratio = kb.key_depths(geom, tips)[39] / geom.travels[39]
    assert 0.4 < ratio < 0.8
    assert np.flatnonzero(out.r_nontarget[0]).tolist() == [39]
    assert out.r_nontarget[0, 39] == pytest.approx(ratio / 0.9, rel=1e-9)
    assert out.r_correct[0] == 0.0
    assert 0.0 < out.r_target[0, 41] < 1.0
    expect_total = (out.r_target[0, 41]
                    - 0.15 * out.r_nontarget[0, 39]
                    - 0.05 * out.r_energy[0])
    assert out.total[0] == pytest.approx(expect_total, rel=1e-12)


def test_evaluate_rewards_silence_scores_product_one(geom, skeletons):
    hover = _synth.hover_pose(geom, 1, 40)
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, hover), (parked, hover)])
    matrix = _synth.matrix_from_frames([set(), set()], fps=60.0)
    out = rewards.evaluate_rewards(clip, skeletons, geom, matrix)
    # No targets: empty product 1 and the correctness bonus applies.
    assert not out.targets.any()
    assert out.total[0] == pytest.approx(1.0 + 0.5 - 0.05, rel=1e-9)


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


def _held(score):
    held = score.copy()
    held[3:] |= score[:-3]        # presses outlast the next segment's start
    held[50:400, 10] = 1          # one key held across dozens of segments
    return held


SCORE_VARIANTS = {
    "plain": lambda score: score,
    "rolled": lambda score: np.roll(score, 1, axis=1),
    "held": _held,
    "reversed-reference": lambda score: score,
}


@pytest.mark.parametrize("energy_sign", [-1.0, 1.0])
@pytest.mark.parametrize("variant", list(SCORE_VARIANTS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reward_lines_equal_per_frame_oracle_on_signals_scene(
        tmp_path, signals_scenes, geom, skeletons, seed, variant, energy_sign):
    # The reward CLI's JSON lines equal, byte for byte, the per-frame,
    # per-key breakdowns on the benchmark's signals scene.  The plain score
    # has no non-target presses and no key held across a segment boundary:
    # rolling it by one key gives the first, holding presses longer the
    # second, and a time-reversed reference assigns fingers from other
    # frames than the clip's.
    scene = signals_scenes(seed)
    clip_path = scene["paths"]["clip.json"]
    clip = hand.MotionClip.from_json(pathlib.Path(clip_path).read_text())
    data = SCORE_VARIANTS[variant](scene["score"])
    matrix = KeyMatrix(scenes.FPS, data)
    matrix_path = tmp_path / "score.json"
    matrix_path.write_text(midi.matrix_to_json(matrix))
    out = tmp_path / "rewards.jsonl"
    argv = ["reward", "--clip", clip_path, "--midi", matrix_path,
            "--energy-sign", energy_sign, "-o", out]
    reference = None
    if variant == "reversed-reference":
        reference = clip[::-1]
        ref_path = tmp_path / "reference.json"
        ref_path.write_text(reference.to_json())
        argv += ["--reference", ref_path]
    assert cli.main([str(a) for a in argv]) == 0

    want = scalar.evaluate_rewards(clip, skeletons, geom, matrix,
                                   reference=reference,
                                   energy_sign=energy_sign)
    assert out.read_text() == scalar.reward_json_lines(want)
    if variant == "rolled":
        assert sum(bool(b.nontargets) for b in want) > 100
    if variant == "held":
        change = np.any(data[1:] != data[:-1], axis=1)
        assert np.any(data[1:] & data[:-1] & change[:, None])
