"""The array IK targeting against the per-error oracle in `_scalar_ik`:
bit-identical targets (NaN where none), equal masks and equal counts of
dropped errors."""

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

import _scalar_ik as scalar
from pianomotion import keyboard as kb, midi_ik

CONFIGS = {
    "default": kb.KeyboardConfig(),
    "posed": kb.KeyboardConfig(position=(0.3, -0.2, 0.05), yaw=0.7),
    # Wider than the white key pitch: D, G and A lose their whole rear.
    "overlapping blacks": kb.KeyboardConfig(black_key_width=0.03),
}
GEOMS = {name: kb.build_keyboard(config) for name, config in CONFIGS.items()}
KEYS = np.arange(36, 49)          # an octave from G#3: whites and blacks
_G = GEOMS["default"]
_EPS = 1e-6
# Local coordinates on and beside the footprint and clamp edges, signed
# zeros, and heights around the rest surfaces and the activation depth.
XS = sorted({0.0, -0.0} | {
    float(v) for e in np.concatenate([_G.boxes[KEYS - 1, :2].ravel(),
                                      _G.exposed[KEYS - 1].ravel()])
    for v in (e, e + _EPS, e - _EPS, np.nextafter(e, np.inf))})
YS = [-0.0, 0.0, _EPS, 0.03, 0.05, 0.095 - _EPS, 0.095, 0.095 + _EPS, 0.12,
      0.15 - _EPS, 0.15, 0.16]
ZS = [-0.0, 0.0, -0.002, -0.004, -0.005, -0.008, 0.004, 0.007, 0.008,
      0.012, 0.02]

tip = st.tuples(st.sampled_from(XS) | st.floats(0.47, 0.69),
                st.sampled_from(YS) | st.floats(-0.02, 0.2),
                st.sampled_from(ZS) | st.floats(-0.02, 0.03))


@st.composite
def frames(draw):
    """One frame: local fingertips (10, 3), some of them copies of others
    (exact distance ties), and its wrong and omitted keys."""
    tips = draw(st.lists(tip, min_size=10, max_size=10))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                              max_size=3)):
        tips[i] = tips[j]
    keys = st.sampled_from(KEYS.tolist())
    omitted = draw(st.lists(keys, max_size=13, unique=True))
    wrong = draw(st.lists(keys, max_size=3, unique=True))
    return tips, [k for k in wrong if k not in omitted], omitted


case = st.tuples(st.sampled_from(sorted(CONFIGS)),
                 st.lists(frames(), min_size=1, max_size=4),
                 st.sampled_from([0.0, 0.005, 0.01, 0.03, np.inf]))


def over(key, along):
    """A local point 2 mm into a key, `along` of the way down its length."""
    x0, x1, y0, y1 = _G.boxes[key - 1]
    return ((x0 + x1) / 2, y0 + along * (y1 - y0), _G.rest_heights[key - 1]
            - 0.002)


def rear_edge(key):
    """A local point 2 mm into a white key, on the line where its front
    meets its exposed rear strip: as near the one as the other."""
    ex0, ex1 = _G.exposed[key - 1]
    return ((ex0 + ex1) / 2, _G.config.black_key_length,
            _G.rest_heights[key - 1] - 0.002)


def check(name, frame_list, max_displacement):
    geom = GEOMS[name]
    F = len(frame_list)
    local = np.array([tips for tips, _, _ in frame_list], dtype=np.float64)
    masks = np.zeros((2, F, 88), dtype=bool)
    for f, (_, wrong, omitted) in enumerate(frame_list):
        masks[0, f, np.array(wrong, dtype=int) - 1] = True
        masks[1, f, np.array(omitted, dtype=int) - 1] = True
    tips = geom.to_world(local)
    keys, depths = kb.locate_keys(geom, tips)
    got = midi_ik.ik_targets(*masks, tips, keys, depths, geom,
                             max_displacement=max_displacement)
    want, mask, n_invalidated = scalar.ik_targets(
        *masks, tips, geom, kb.DEFAULT_ACTIVATION_DEPTH,
        midi_ik.DEFAULT_EXIT_CLEARANCE, midi_ik.DEFAULT_PRESS_MARGIN,
        max_displacement)
    assert got.targets.tobytes() == want.tobytes()
    assert np.array_equal(got.mask, mask)
    assert got.n_invalidated == n_invalidated
    f, k = np.nonzero(masks[0])
    rear = (local[..., 1] < geom.config.black_key_length) & (keys > 0)
    for label, seen in [
            ("several omissions in a frame", masks[1].sum(axis=1).max() > 1),
            ("all ten fingertips taken", got.mask.all(axis=1).any()),
            ("a target dropped", n_invalidated > 0),
            ("a wrong press without subject",
             not (keys[f] == k[:, None] + 1).any(axis=1).all()),
            ("a tip over a white key's rear strip",
             (rear & ~geom._black[keys - 1]).any()),
            ("a tip over a black key", (geom._black[keys - 1] & (keys > 0)).any()),
            ("a signed zero", np.signbit(geom.to_local(tips)[local == 0]).any())]:
        if seen:
            event(label)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=case)
# Eleven omissions with fingertips two millimetres into eleven keys: ten
# take a fingertip each, ten on their own key, and the last finds none.
@example(case=("default", [([over(k, 0.9) for k in range(37, 47)],
                            [40], list(range(37, 49)))], np.inf))
# Two fingertips at one height over one key's front: an exact tie, which
# the lower takes; the other is too far from the next key, and a third
# is as near its key's front as its rear strip, where the front wins.
@example(case=("default", [([over(40, 0.8), over(40, 0.9), rear_edge(44)]
                            + [over(60, 0.5)] * 7, [], [40, 42, 44])], 0.01))
# Signed zeros, fingertips over the rear strips of white keys and over
# black keys, and a wrong press with nothing on its key.
@example(case=("default", [([(-0.0, -0.0, -0.0), (0.0, 0.0, 0.0),
                             over(40, 0.3), over(41, 0.5), over(43, 0.2),
                             over(44, 0.9), (-0.0, 0.05, 0.004),
                             over(42, 0.6), over(40, 0.6), over(41, 0.2)],
                            [41, 47], [40, 42, 43, 44])], 0.01))
def test_ik_targets_equal_per_error_oracle(case):
    check(*case)
