"""The batched key lookup against the per-point oracle in
`_scalar_keyboard`: equal keys, and bit-identical depths, per-key depths
and pressed sets, on random points and on every footprint edge."""

import dataclasses

import numpy as np
import pytest

import _scalar_keyboard as scalar
import _synth
from pianomotion import keyboard as kb, midi, midi_ik
from pianomotion.hand import clip_fingertips

CONFIGS = {
    "default": kb.KeyboardConfig(),
    "posed": kb.KeyboardConfig(position=(0.3, -0.2, 0.05), yaw=0.7),
    "shared white edges": kb.KeyboardConfig(white_key_width=0.165 / 7),
    # Wider than the white key pitch, so neighbouring black keys overlap.
    "overlapping blacks": kb.KeyboardConfig(black_key_width=0.03),
}
# Heights around both rest surfaces and the activation depth below them.
HEIGHTS = np.array([-0.02, -0.01, -0.004, -0.0039, 0.0, 0.002, 0.008,
                    0.0081, 0.012, 0.02])


def local_points(geom, rng):
    """Local points on, and one ulp either side of, every footprint edge,
    then random points over and around the keyboard."""
    x = np.unique(geom.boxes[:, :2])
    y = np.unique(geom.boxes[:, 2:])
    x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    y = np.concatenate([y, np.nextafter(y, -np.inf), np.nextafter(y, np.inf),
                        [0.05, 0.12]])
    edges = np.stack(np.meshgrid(x, y), axis=-1).reshape(-1, 2)
    span = geom.boxes[:, 1].max()
    noise = rng.uniform([-0.02, -0.01], [span + 0.02, 0.17], size=(4000, 2))
    xy = np.concatenate([edges, noise])
    z = np.resize(HEIGHTS, len(xy))
    rng.shuffle(z)
    return np.column_stack([xy, z])


@pytest.fixture(params=sorted(CONFIGS))
def case(request):
    geom = kb.build_keyboard(CONFIGS[request.param])
    points = np.array([geom.to_world(p)
                       for p in local_points(geom, np.random.default_rng(7))])
    return geom, points[:len(points) // 10 * 10]


def test_locate_keys_matches_oracle(case):
    geom, points = case
    keys, depths = kb.locate_keys(geom, points)
    want = np.array([scalar.key_for_point(geom, p) or 0 for p in points])
    assert np.array_equal(keys, want)
    on = want > 0
    assert 0 < on.mean() < 1
    assert np.all(depths[~on] == -np.inf)
    want_depths = [geom.rest_heights[k - 1] - scalar.to_local(geom, p)[2]
                   for p, k in zip(points[on], want[on])]
    assert depths[on].tobytes() == np.array(want_depths).tobytes()
    assert [kb.key_for_point(geom, p) for p in points[::7]] == [
        scalar.key_for_point(geom, p) for p in points[::7]]


def test_key_depths_and_presses_match_oracle_on_a_batch(case):
    geom, points = case
    tips = points.reshape(-1, 10, 3)                     # (F, 10, 3)
    depths = kb.key_depths(geom, tips)
    want = np.array([scalar.key_depths(geom, t) for t in tips])
    assert depths.shape == (len(tips), 88)
    assert depths.tobytes() == want.tobytes()
    assert (kb.key_depths(geom, tips.reshape(2, -1, 10, 3)).tobytes()
            == want.tobytes())
    for depth in (kb.DEFAULT_ACTIVATION_DEPTH, geom.config.travel):
        pressed = kb.pressed_keys(geom, tips, depth)
        for f in range(len(tips)):
            want_set = scalar.extract_pressed(geom, tips[f], depth)
            assert kb.extract_pressed(geom, tips[f], depth) == want_set
            assert set(np.flatnonzero(pressed[f]) + 1) == want_set
    assert pressed.any()


def test_to_world_of_a_batch_matches_oracle(case):
    geom, points = case
    local = geom.to_local(points)
    want = np.array([scalar.to_world(geom, p) for p in local])
    assert geom.to_world(local).tobytes() == want.tobytes()
    assert (geom.to_world(local.reshape(-1, 10, 3)).tobytes()
            == want.tobytes())


def test_single_point_queries_match_oracle(geom):
    point = kb.key_target_position(geom, 41) - [0.0, 0.0, 0.005]
    assert kb.key_depths(geom, point).tobytes() == scalar.key_depths(geom, point).tobytes()
    assert kb.extract_pressed(geom, point, 0.004) == {41}
    assert kb.key_for_point(geom, (-1.0, 0.0, 0.0)) is None


def test_detect_press_errors_order(geom, skeletons):
    chord = _synth.pressing_pose(geom, skeletons, {8: 40, 7: 42, 6: 44},
                                 center_key=42)
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, chord), (parked, press),
                                   (parked, chord)])
    score = _synth.matrix_from_frames(
        [{41, 42, 45, 50}, {40}, {30, 40, 44}], fps=60.0)
    tips = clip_fingertips(clip, skeletons)
    errors = midi_ik.detect_press_errors(geom, *kb.locate_keys(geom, tips),
                                         score)
    frame, kind, key = np.nonzero(np.stack(errors, axis=1))
    got = [(int(f), int(k) + 1, ("wrong_press", "omitted")[c])
           for f, c, k in zip(frame, kind, key)]
    assert got == scalar.press_errors(geom, tips, score.data,
                                      kb.DEFAULT_ACTIVATION_DEPTH)
    assert got == [(0, 40, "wrong_press"), (0, 44, "wrong_press"),
                   (0, 41, "omitted"), (0, 45, "omitted"), (0, 50, "omitted"),
                   (2, 42, "wrong_press"), (2, 30, "omitted")]


def test_wrong_press_subject_is_the_first_deepest_tip(geom):
    target = kb.key_target_position(geom, 40)
    tips = np.tile(target + [0.0, 0.0, 0.1], (1, 10, 1))   # all above the key
    tips[0, [2, 5]] = target - [0.0, 0.0, 0.006]          # tied deepest
    tips[0, 7] = target - [0.0, 0.0, 0.005]
    tips[0, [0, 9]] = [-1.0, 0.0, -0.02]                  # off the keyboard
    wrong = np.zeros((1, 88), dtype=bool)
    wrong[0, 39] = True
    out = midi_ik.ik_targets(wrong, np.zeros_like(wrong), tips,
                             *kb.locate_keys(geom, tips), geom)
    assert out.mask.sum() == 1
    assert np.argmax(out.mask[0]) == scalar.deepest_tip(geom, tips[0], 40) == 2


@pytest.mark.parametrize("name", CONFIGS)
def test_exposed_intervals_match_the_black_key_scan(name):
    geom = kb.build_keyboard(CONFIGS[name])
    white = np.flatnonzero(~geom._black) + 1
    assert len(white) == 52
    for key in white:
        want = scalar.exposed_interval(geom, key, 0.0)
        assert geom.exposed[key - 1].tobytes() == np.array(want).tobytes(), key
    assert np.array_equal(geom.exposed[geom._black], geom.boxes[geom._black, :2])
    # The scan leaves the front of a white key whole.
    front = scalar.exposed_interval(geom, 40, geom.config.black_key_length + 1e-3)
    assert np.array_equal(front, geom.boxes[39, :2])
    # Press targets 85% along the key (beside the black keys' front ends)
    # and 30% along it (between them).
    for fraction in (geom.config.target_length_fraction, 0.3):
        geom = kb.build_keyboard(dataclasses.replace(
            CONFIGS[name], target_length_fraction=fraction))
        wants = []
        for key in range(1, 89):
            _, _, y0, y1 = geom.boxes[key - 1]
            y = y0 + fraction * (y1 - y0)
            x0, x1 = (geom.boxes[key - 1, :2] if geom._black[key - 1]
                      else scalar.exposed_interval(geom, key, y))
            want = scalar.to_world(geom, np.array([(x0 + x1) / 2, y,
                                                   geom.rest_heights[key - 1]]))
            assert (kb.key_target_position(geom, key).tobytes()
                    == want.tobytes()), (fraction, key)
            wants.append(want)
        # All keys at once, and in any order.
        keys = np.arange(1, 89)[::-1]
        assert (kb.key_target_position(geom, keys).tobytes()
                == np.array(wants)[keys - 1].tobytes())
