"""Keyboard layout, point-to-key queries, and press extraction."""

import numpy as np
import pytest

from pianomotion import keyboard as kb

# Independent layout oracle: key k sits at MIDI pitch k + 20, and the black
# keys are the five altered pitch classes of each octave.
BLACK_PITCH_CLASSES = {1, 3, 6, 8, 10}
BLACK_KEYS = {k for k in range(1, 89) if (k + 20) % 12 in BLACK_PITCH_CLASSES}
PITCH = 0.165 / 7  # white key center spacing from the octave span


def test_black_key_pattern_matches_pitch_classes():
    assert {k for k in range(1, 89) if kb.is_black_key(k)} == BLACK_KEYS
    assert len(BLACK_KEYS) == 36


def test_layout_counts_and_heights(geom):
    assert geom.boxes.shape == (88, 4)
    whites = [k for k in range(1, 89) if not kb.is_black_key(k)]
    assert len(whites) == 52
    for k in whites:
        assert geom.rest_heights[k - 1] == 0.0
    for k in BLACK_KEYS:
        assert geom.rest_heights[k - 1] == 0.012
    assert np.all(geom.travels == 0.010)


def test_white_boxes_tile_slots_in_order(geom):
    whites = [k for k in range(1, 89) if not kb.is_black_key(k)]
    for slot, k in enumerate(whites):
        x0, x1, y0, y1 = geom.boxes[k - 1]
        center = slot * PITCH + PITCH / 2
        assert x0 == pytest.approx(center - 0.0235 / 2, abs=1e-12)
        assert x1 == pytest.approx(center + 0.0235 / 2, abs=1e-12)
        assert (y0, y1) == (0.0, 0.150)


def test_black_boxes_sit_on_white_boundaries(geom):
    # Each black key is centered on the boundary between its two white
    # neighbors, i.e. at a whole multiple of the white spacing.
    for k in sorted(BLACK_KEYS):
        x0, x1, y0, y1 = geom.boxes[k - 1]
        whites_before = sum(1 for j in range(1, k) if not kb.is_black_key(j))
        assert (x0 + x1) / 2 == pytest.approx(whites_before * PITCH, abs=1e-12)
        assert x1 - x0 == pytest.approx(0.0137, abs=1e-12)
        assert (y0, y1) == (0.0, 0.095)


def test_key_for_point_front_region(geom):
    # C4 is key 40 with 23 white keys before it.
    x = 23.5 * PITCH
    assert kb.key_for_point(geom, (x, 0.12, 0.0)) == 40
    assert kb.key_for_point(geom, (x, 0.151, 0.0)) is None
    assert kb.key_for_point(geom, (x, -0.001, 0.0)) is None
    assert kb.key_for_point(geom, (-1.0, 0.12, 0.0)) is None


def test_key_for_point_black_wins_back_region(geom):
    # C#4 (key 41) is centered on the 24th white boundary and overlaps the
    # rear of both neighbors; inside its footprint the black key wins.
    x = 24 * PITCH
    assert kb.key_for_point(geom, (x, 0.05, 0.012)) == 41
    # In front of the black keys the same x falls in the gap between the
    # white key bodies.
    assert kb.key_for_point(geom, (x, 0.12, 0.0)) is None


def test_key_for_point_white_back_region(geom):
    # Between C#4 and D#4, the exposed back sliver of D4 (key 42).
    x = 24.5 * PITCH
    assert kb.key_for_point(geom, (x, 0.05, 0.0)) == 42


def test_key_target_c4(geom):
    target = kb.key_target_position(geom, 40)
    assert target[0] == pytest.approx(23.5 * PITCH, abs=1e-12)
    assert target[1] == pytest.approx(0.85 * 0.150, abs=1e-12)
    assert target[2] == 0.0


def test_key_target_black(geom):
    target = kb.key_target_position(geom, 41)
    assert target[0] == pytest.approx(24 * PITCH, abs=1e-12)
    assert target[1] == pytest.approx(0.85 * 0.095, abs=1e-12)
    assert target[2] == 0.012


def test_key_target_resolves_to_its_key(geom):
    for key in range(1, 89):
        assert kb.key_for_point(geom, kb.key_target_position(geom, key)) == key


def test_key_target_respects_exposure_in_back_region():
    # With the target pulled back to half the key length, white targets sit
    # between the black keys.  C4's exposed interval is clipped only on the
    # C#4 side, computed here from first principles.
    config = kb.KeyboardConfig(target_length_fraction=0.5)
    geom = kb.build_keyboard(config)
    target = kb.key_target_position(geom, 40)
    x0 = 23 * PITCH + (PITCH - 0.0235) / 2
    x1 = 24 * PITCH - 0.0137 / 2
    assert target[0] == pytest.approx((x0 + x1) / 2, abs=1e-12)
    assert target[1] == pytest.approx(0.075, abs=1e-12)
    assert kb.key_for_point(geom, target) == 40


def test_key_target_validates_range(geom):
    with pytest.raises(ValueError):
        kb.key_target_position(geom, 0)
    with pytest.raises(ValueError):
        kb.key_target_position(geom, 89)
    with pytest.raises(ValueError, match="1..88"):
        kb.key_target_position(geom, np.array([1, 88, 89]))


def test_extract_pressed_activation_is_inclusive(geom):
    x = 23.5 * PITCH
    assert kb.extract_pressed(geom, [(x, 0.12, -0.004)], 0.004) == {40}
    assert kb.extract_pressed(geom, [(x, 0.12, -0.0039)], 0.004) == set()


def test_extract_pressed_black_key_measured_from_rise(geom):
    x = 24 * PITCH
    # 5 mm below the raised black surface.
    assert kb.extract_pressed(geom, [(x, 0.05, 0.007)], 0.004) == {41}
    # The same height over a white key is above its surface entirely.
    assert kb.extract_pressed(geom, [(23.5 * PITCH, 0.12, 0.007)], 0.004) == set()


def test_extract_pressed_multiple_tips(geom):
    tips = [
        (23.5 * PITCH, 0.12, -0.006),
        (24.5 * PITCH, 0.12, -0.006),
        (0.0, 0.5, -0.006),  # off the keyboard
    ]
    assert kb.extract_pressed(geom, tips, 0.004) == {40, 42}


def test_extract_pressed_validates_depth(geom):
    with pytest.raises(ValueError):
        kb.extract_pressed(geom, [(0.0, 0.12, 0.0)], 0.0)
    with pytest.raises(ValueError):
        kb.extract_pressed(geom, [(0.0, 0.12, 0.0)], 0.011)


def test_key_depths_max_and_clamp(geom):
    x = 23.5 * PITCH
    tips = [(x, 0.12, -0.002), (x, 0.13, -0.007), (24.5 * PITCH, 0.12, -0.05)]
    depths = kb.key_depths(geom, tips)
    assert depths[39] == pytest.approx(0.007)
    assert depths[41] == 0.010  # clamped to travel
    assert np.count_nonzero(depths) == 2


def test_key_state_thresholds(geom):
    # A fingertip below key 40's press target: its depth ratio, clamped to
    # the travel, sounds strictly past 90%; a tip at or above the surface
    # leaves the key untouched.
    top = kb.key_target_position(geom, 40)

    def ratio(depth):
        tip = top - (0.0, 0.0, depth)
        return kb.key_depths(geom, [tip])[39] / geom.travels[39]

    assert ratio(0.009) == pytest.approx(0.9)
    assert not ratio(0.009) > kb.SOUNDING_RATIO
    assert ratio(0.0091) > kb.SOUNDING_RATIO
    assert ratio(0.0) == 0.0
    assert ratio(-0.001) == 0.0
    assert ratio(0.05) == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        kb.KeyboardConfig(white_key_width=-0.01)
    with pytest.raises(ValueError):
        kb.KeyboardConfig(target_length_fraction=0.0)
    with pytest.raises(ValueError):
        kb.KeyboardConfig(white_key_width=0.03)  # wider than the octave allows


def test_config_json_round_trip():
    config = kb.KeyboardConfig(position=(0.1, 0.2, 0.3), yaw=0.4)
    assert kb.KeyboardConfig.from_json(config.to_json()) == config
