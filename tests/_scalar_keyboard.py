"""Per-point key queries: the oracle for `pianomotion.keyboard`.

This is the code that `keyboard.locate_keys` replaced: one point at a
time, each tested against all 88 footprints, and the per-frame and
per-fingertip loops of its callers.  Tests compare the library against
it bit for bit.
"""

import numpy as np

from pianomotion.midi import NUM_KEYS


def to_local(geom, point):
    p = np.asarray(point, dtype=np.float64) - geom._origin
    return np.array(
        [geom._cos * p[0] + geom._sin * p[1], -geom._sin * p[0] + geom._cos * p[1], p[2]]
    )


def to_world(geom, point):
    p = np.asarray(point, dtype=np.float64)
    return (np.array([geom._cos * p[0] - geom._sin * p[1],
                      geom._sin * p[0] + geom._cos * p[1], p[2]])
            + geom._origin)


def key_for_point(geom, point):
    local = to_local(geom, point)
    x, y = local[0], local[1]
    boxes = geom.boxes
    inside = (boxes[:, 0] <= x) & (x <= boxes[:, 1]) & (boxes[:, 2] <= y) & (y <= boxes[:, 3])
    black_hits = np.flatnonzero(inside & geom._black)
    if black_hits.size:
        return int(black_hits[0]) + 1
    white_hits = np.flatnonzero(inside)
    if white_hits.size:
        return int(white_hits[0]) + 1
    return None


def extract_pressed(geom, fingertips, activation_depth):
    if not 0 < activation_depth <= float(np.min(np.asarray(geom.travels))):
        raise ValueError(
            f"activation_depth must be in (0, min travel], got {activation_depth}"
        )
    pressed = set()
    for tip in np.atleast_2d(np.asarray(fingertips, dtype=np.float64)):
        key = key_for_point(geom, tip)
        if key is None:
            continue
        depth = geom.rest_heights[key - 1] - to_local(geom, tip)[2]
        if depth >= activation_depth:
            pressed.add(key)
    return pressed


def key_depths(geom, fingertips):
    depths = np.zeros(NUM_KEYS)
    for tip in np.atleast_2d(np.asarray(fingertips, dtype=np.float64)):
        key = key_for_point(geom, tip)
        if key is None:
            continue
        depth = geom.rest_heights[key - 1] - to_local(geom, tip)[2]
        if depth > 0:
            depths[key - 1] = max(depths[key - 1], min(depth, geom.travels[key - 1]))
    return depths


def deepest_tip(geom, tips, key):
    """Index of the first deepest of `tips` (n, 3) over `key`, or None."""
    best_i = None
    best_depth = -np.inf
    for i in range(len(tips)):
        if key_for_point(geom, tips[i]) != key:
            continue
        depth = geom.rest_heights[key - 1] - to_local(geom, tips[i])[2]
        if depth > best_depth:
            best_depth = depth
            best_i = i
    return best_i


def press_errors(geom, tips, scored, activation_depth):
    """(frame, key, kind) of every disagreement between the presses of
    `tips` (F, n, 3) and the score rows `scored` (F, 88), frame by frame:
    wrong presses by key, then omissions by key."""
    errors = []
    for f in range(len(tips)):
        pressed = extract_pressed(geom, tips[f], activation_depth)
        keys = {int(k) + 1 for k in np.flatnonzero(scored[f])}
        errors += [(f, k, "wrong_press") for k in sorted(pressed - keys)]
        errors += [(f, k, "omitted") for k in sorted(keys - pressed)]
    return errors


def exposed_interval(geom, key, y):
    """Exposed x-interval of a white key at length coordinate y: a scan of
    the black keys, once per query."""
    x0, x1, _, _ = geom.boxes[key - 1]
    if y > geom.config.black_key_length:
        return x0, x1
    for black in np.flatnonzero(geom._black):
        bx0, bx1 = geom.boxes[black, 0], geom.boxes[black, 1]
        if bx1 <= x0 or bx0 >= x1:
            continue
        if bx0 <= x0:
            x0 = max(x0, bx1)
        else:
            x1 = min(x1, bx0)
    return x0, x1
