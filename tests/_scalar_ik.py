"""Per-error IK targeting: the oracle for `midi_ik.ik_targets`.

This is the code that the array pass replaced: one press error at a
time, frame by frame (wrong presses, then omissions, each by key), with a
scalar clamp to the key's footprint and a scalar distance for every
candidate fingertip.  Tests compare the library against it bit for bit.
"""

import numpy as np

import _scalar_keyboard as scalar


def surface_target(geom, key, tip_local, depth_below_rest):
    """Closest point to a fingertip on the key's pressable footprint, local."""
    eps = 1e-6
    x0, x1, y0, y1 = geom.boxes[key - 1]
    z = geom.rest_heights[key - 1] - depth_below_rest
    tx, ty = tip_local[0], tip_local[1]

    def clamp(lo_x, hi_x, lo_y, hi_y):
        return np.array([min(max(tx, lo_x + eps), hi_x - eps),
                         min(max(ty, lo_y + eps), hi_y - eps), z])

    if geom._black[key - 1]:
        return clamp(x0, x1, y0, y1)
    blen = geom.config.black_key_length
    front = clamp(x0, x1, blen, y1)
    ex0, ex1 = geom.exposed[key - 1]
    if ex1 - ex0 <= 2 * eps:
        return front
    back = clamp(ex0, ex1, y0, blen)
    d_front = np.hypot(front[0] - tx, front[1] - ty)
    d_back = np.hypot(back[0] - tx, back[1] - ty)
    return back if d_back < d_front else front


def ik_targets(wrong, omitted, tips, geom, activation_depth, exit_clearance,
               press_margin, max_displacement):
    """(targets (F, 10, 3), mask (F, 10), n_invalidated) for the press
    error masks wrong and omitted (F, 88) of fingertips tips (F, 10, 3)."""
    F = len(tips)
    targets = np.full((F, 10, 3), np.nan)
    mask = np.zeros((F, 10), dtype=bool)
    n_invalidated = 0
    for f in range(F):
        taken = set()
        errors = ([(int(k) + 1, "wrong") for k in np.flatnonzero(wrong[f])]
                  + [(int(k) + 1, "omitted") for k in np.flatnonzero(omitted[f])])
        for key, kind in errors:
            if kind == "wrong":
                best_i = scalar.deepest_tip(geom, tips[f], key)
                if best_i is None:
                    n_invalidated += 1
                    continue
                local = scalar.to_local(geom, tips[f, best_i])
                target = scalar.to_world(geom, np.array([
                    local[0], local[1],
                    geom.rest_heights[key - 1] + exit_clearance]))
            else:
                best_i = None
                best_d = np.inf
                for i in range(10):
                    if i in taken:
                        continue
                    local = scalar.to_local(geom, tips[f, i])
                    tgt_local = surface_target(
                        geom, key, local, activation_depth + press_margin)
                    d = float(np.linalg.norm(local - tgt_local))
                    if d < best_d:
                        best_d = d
                        best_i = i
                        target = scalar.to_world(geom, tgt_local)
                if best_i is None:
                    n_invalidated += 1
                    continue
            disp = float(np.linalg.norm(tips[f, best_i] - target))
            if disp <= max_displacement:
                taken.add(best_i)
                targets[f, best_i] = target
                mask[f, best_i] = True
            else:
                n_invalidated += 1
    return targets, mask, n_invalidated
