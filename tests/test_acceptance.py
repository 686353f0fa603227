"""Acceptance checks: one subsystem-level guarantee per test.

Every test here validates a library component against an independently
coded oracle (plain Python arithmetic, set operations, or brute-force
loops) or a constructed ground truth, then prints a single summary line

    [acceptance] <name>: PASS|FAIL (<detail>)

visible under ``pytest -s`` and in failure output.  Sub-checks accumulate
problem messages instead of asserting early, so the line is printed
exactly once per test whatever happens.  Each test also carries a wall
clock budget; exceeding it is a failure in its own right.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np

import _synth
from pianomotion import hand, keyboard as kb, metrics, midi, midi_ik
from pianomotion import reconstruction as rec
from pianomotion import retrieval, rewards


def _finish(name, problems, t0, budget, detail=""):
    elapsed = time.monotonic() - t0
    if elapsed >= budget:
        problems.append("runtime %.1fs exceeds %.0fs budget" % (elapsed, budget))
    ok = not problems
    extra = detail + (", " if detail else "") + "%.1fs" % elapsed
    if not ok:
        extra += "; " + "; ".join(problems[:4])
    print("[acceptance] %s: %s (%s)" % (name, "PASS" if ok else "FAIL", extra))
    assert ok, problems


def _check(problems, cond, msg):
    if not cond:
        problems.append(msg)


# ---------------------------------------------------------------------------
# 1. Frame metrics against a set-arithmetic oracle; clip-level averaging.


def test_frame_metrics_match_set_arithmetic_oracle(rng):
    t0 = time.monotonic()
    problems = []
    n_pairs = 10_000
    pairs = [tuple(set(rng.integers(1, 89, size=int(rng.integers(0, 6))).tolist())
                   for _ in range(2)) for _ in range(n_pairs)]
    rows = np.zeros((2, n_pairs, 88), dtype=bool)
    for i, keys in enumerate(pairs):
        for side in (0, 1):
            rows[side, i, [k - 1 for k in keys[side]]] = True
    got = metrics.frame_prf(rows[0], rows[1]).tolist()
    for i, (pred, truth) in enumerate(pairs):
        if not pred and not truth:
            want = (1.0, 1.0, 1.0)
        else:
            tp = sum(1 for k in pred if k in truth)
            p = tp / len(pred) if pred else 0.0
            r = tp / len(truth) if truth else 0.0
            f1 = 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0
            want = (p, r, f1)
        if tuple(got[i]) != want:
            problems.append("pair %d: %r != %r" % (i, got[i], want))
            break

    # Two frames where the averaged F1 differs from the harmonic mean of
    # the averaged precision and recall: (1, 1, 1) and (1/2, 1/4, 1/3).
    rep = metrics.score_matrices(
        _synth.matrix_from_frames([{1}, {1, 2}]),
        _synth.matrix_from_frames([{1}, {1, 3, 4, 5}]))
    want_p = 100.0 * (1.0 + 0.5) / 2.0
    want_r = 100.0 * (1.0 + 0.25) / 2.0
    want_f = 100.0 * (1.0 + 1.0 / 3.0) / 2.0
    harmonic = 2.0 * rep.precision * rep.recall / (rep.precision + rep.recall)
    _check(problems, abs(rep.precision - want_p) < 1e-9,
           "precision %r != %r" % (rep.precision, want_p))
    _check(problems, abs(rep.recall - want_r) < 1e-9,
           "recall %r != %r" % (rep.recall, want_r))
    _check(problems, abs(rep.f1 - want_f) < 1e-9,
           "f1 %r != %r" % (rep.f1, want_f))
    _check(problems, abs(harmonic - rep.f1) > 1.0,
           "fixture fails to separate the two F1 conventions")
    _finish("frame metrics vs set oracle", problems, t0, 5.0,
            "%d random pairs" % n_pairs)


# ---------------------------------------------------------------------------
# 2. Offset recovery between note lists on a millisecond grid.


def test_offset_recovery_on_millisecond_grid(rng):
    t0 = time.monotonic()
    problems = []
    grid = midi.offset_grid(span=0.2, step=0.001)
    hits = 0
    for trial in range(100):
        n = int(rng.integers(8, 16))
        gaps = rng.uniform(0.05, 0.35, size=n)
        onsets = 1.0 + np.cumsum(gaps)
        durations = rng.uniform(0.05, 0.3, size=n)
        keys = rng.integers(1, 89, size=n)
        a = _synth.note_list(zip(onsets, onsets + durations, keys),
                             "trial%d" % trial)
        delta = int(rng.integers(-200, 201)) * 0.001
        b = midi.NoteList(a.onset + delta, a.offset + delta, a.pitch)
        found, count = midi.find_offset(a, b, grid=grid, tolerance=0.016)
        if found == delta and count == n:
            hits += 1
        elif len(problems) < 3:
            problems.append("trial %d: injected %r, found %r (%d matches)"
                            % (trial, delta, found, count))
    _check(problems, hits == 100, "recovered %d/100 offsets" % hits)
    _finish("sync offset recovery", problems, t0, 30.0, "%d/100 exact" % hits)


# ---------------------------------------------------------------------------
# 3. Triangulation: exact when noiseless, robust to a corrupted view.


def test_triangulation_noiseless_and_corrupted_view(rng):
    t0 = time.monotonic()
    problems = []
    rig = _synth.five_camera_rig()
    points = rng.uniform((-0.1, -0.05, -0.05), (0.6, 0.3, 0.2),
                         size=(1000, 3))
    uv_clean = np.empty((1000, rig.n_views, 2))
    for i, x in enumerate(points):
        for v in range(rig.n_views):
            uv_clean[i, v] = rig.project(v, x)

    dlt, degenerate = rec._dlt(uv_clean, rig.projections)
    worst = float(np.linalg.norm(dlt - points, axis=1).max())
    _check(problems, not degenerate.any(), "a noiseless point is degenerate")
    _check(problems, worst <= 1e-9,
           "noiseless worst error %.3g m > 1e-9" % worst)

    bad_view = 3
    uv_noisy = uv_clean + rng.normal(0.0, 1.0, size=uv_clean.shape)
    direction = rng.normal(size=(1000, 2))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    uv_noisy[:, bad_view] += 300.0 * direction
    errors = np.empty(1000)
    excluded = 0
    for i in range(1000):
        res = rec.ransac_triangulate(uv_noisy[i], rig)
        if not res.valid:
            problems.append("point %d: triangulation invalid" % i)
            break
        if not res.inliers[bad_view]:
            excluded += 1
        errors[i] = np.linalg.norm(res.point - points[i])
    med = float(np.median(errors))
    _check(problems, excluded == 1000,
           "corrupted view excluded on %d/1000 points" % excluded)
    _check(problems, med <= 0.002, "median error %.2g m > 2 mm" % med)
    _finish("triangulation accuracy and robustness", problems, t0, 30.0,
            "noiseless %.1e m, noisy median %.2e m" % (worst, med))


# ---------------------------------------------------------------------------
# 4. Low-pass filter response: DC, stop band, and phase.


def test_lowpass_filter_dc_stopband_and_phase():
    t0 = time.monotonic()
    problems = []
    fps = 59.94
    t = np.arange(int(20 * fps)) / fps

    const = np.full(t.shape, 2.5)
    out = rec.butterworth_filter(const, 10.0, fps, order=4)
    dc_err = float(np.max(np.abs(out - 2.5)))
    _check(problems, dc_err <= 1e-9, "DC error %.3g > 1e-9" % dc_err)

    tone = np.sin(2.0 * np.pi * 25.0 * t)
    out = rec.butterworth_filter(tone, 10.0, fps, order=4)
    core = slice(120, -120)
    gain = (np.sqrt(np.mean(out[core] ** 2))
            / np.sqrt(np.mean(tone[core] ** 2)))
    atten_db = -20.0 * math.log10(gain)
    _check(problems, atten_db >= 20.0,
           "25 Hz attenuation %.1f dB < 20 dB" % atten_db)

    slow = np.sin(2.0 * np.pi * 1.0 * t)
    out = rec.butterworth_filter(slow, 10.0, fps, order=4)
    xc = np.correlate(out - out.mean(), slow - slow.mean(), mode="full")
    lag = int(np.argmax(xc)) - (len(slow) - 1)
    _check(problems, lag == 0, "peak cross-correlation at lag %d" % lag)
    _finish("zero-phase low-pass response", problems, t0, 5.0,
            "DC %.1e, 25 Hz at -%.0f dB, lag %d" % (dc_err, atten_db, lag))


# ---------------------------------------------------------------------------
# 5. Pose fitting round trip plus the forward-kinematics Jacobian.


def _random_pose(skel, rng):
    """A pose vector (51,) with joint rotations inside skel's limits."""
    lo = skel.joint_limits[:, :, 0]
    hi = skel.joint_limits[:, :, 1]
    rot = lo + rng.uniform(0.1, 0.9, size=lo.shape) * (hi - lo)
    root_t = rng.uniform((-0.1, 0.0, -0.05), (0.6, 0.3, 0.2))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return np.concatenate([root_t, axis * rng.uniform(0.0, 2.0), rot.ravel()])


def test_fit_round_trip_and_jacobian(skeletons, rng):
    t0 = time.monotonic()
    problems = []
    worst_fit = 0.0
    for i in range(50):
        h = i % 2
        skel = skeletons[h]
        target, _ = hand.forward_kinematics(
            skel.bone_offsets, *hand.vector_pose(_random_pose(skel, rng)))
        positions = np.zeros((1, 2, 21, 3))
        valid = np.zeros((1, 2, 21), dtype=bool)
        positions[0, h] = target
        valid[0, h] = True
        traj = rec.JointTrajectory(60.0, positions, valid)
        fit = rec.fit_skeleton(traj, skeletons, max_iter=100)
        refit, _ = hand.forward_kinematics(
            skel.bone_offsets,
            *hand.vector_pose(hand.clip_vectors(fit.clip)[0, h]))
        err = float(np.max(np.linalg.norm(refit - target, axis=1)))
        worst_fit = max(worst_fit, err)
        if err > 1e-4 and len(problems) < 3:
            problems.append("pose %d: round-trip error %.3g m" % (i, err))
    _check(problems, worst_fit <= 1e-4,
           "worst round-trip error %.3g m > 1e-4" % worst_fit)

    worst_jac = 0.0
    step = 1e-6
    for h in range(2):
        skel = skeletons[h]
        for _ in range(3):
            vec = _random_pose(skel, rng)
            planes = hand.twist_free_basis(skel.bone_offsets)
            _, J = hand.fk_jacobian(skel.bone_offsets, planes, vec)
            J_fd = np.zeros_like(J)
            for k, column in enumerate(hand.twist_free_step(
                    planes, np.eye(hand.TWIST_FREE_DIMS))):
                up, down = (hand.forward_kinematics(
                    skel.bone_offsets, *hand.vector_pose(v))[0]
                    for v in (vec + step * column, vec - step * column))
                J_fd[:, :, k] = (up - down) / (2.0 * step)
            rel = (np.linalg.norm((J - J_fd).ravel())
                   / max(1.0, np.linalg.norm(J.ravel())))
            worst_jac = max(worst_jac, float(rel))
    _check(problems, worst_jac <= 1e-5,
           "Jacobian vs finite differences %.3g > 1e-5" % worst_jac)
    _finish("fit round trip and Jacobian", problems, t0, 60.0,
            "50 poses, worst %.1e m; Jacobian %.1e" % (worst_fit, worst_jac))


# ---------------------------------------------------------------------------
# 6. MIDI-consistency refinement on clips with injected press errors.


_ERROR_KEYS = (30, 33, 35, 40, 44)


def _error_group(geom, skeletons, rng, key, poses):
    """Four frames of one key: two correct presses, one omitted press (a
    touch short of activation) and one wrong press, in shuffled order.
    `poses` caches the press and touch poses per key.  Returns the frames
    and the score's keys per frame."""
    if key not in poses:
        poses[key] = (
            _synth.pressing_pose(geom, skeletons, {7: key}),
            _synth.pressing_pose(geom, skeletons, {}, center_key=key,
                                 lift={7: -0.002}))
    press, touch = poses[key]
    left = _synth.parked_pose(0, x=-0.1)
    kinds = ["ok", "omit", "wrong", "ok"]
    rng.shuffle(kinds)
    frames = []
    score = []
    for kind in kinds:
        if kind == "ok":
            frames.append((left, press))
            score.append({key})
        elif kind == "omit":
            frames.append((left, touch))
            score.append({key})
        else:
            frames.append((left, press))
            score.append(set())
    return frames, score


def test_refinement_repairs_injected_errors(geom, skeletons, rng):
    t0 = time.monotonic()
    problems = []
    n_fixed = 0
    poses = {}
    for c in range(20):
        frames, score = _error_group(geom, skeletons, rng,
                                     _ERROR_KEYS[c % len(_ERROR_KEYS)], poses)
        clip = _synth.pose_clip(60.0, frames)
        matrix = _synth.matrix_from_frames(score, fps=60.0)

        result, before, after = midi_ik.refine_to_midi(
            clip, skeletons, geom, matrix)
        if not np.any(before):
            problems.append("clip %d: no errors detected before refining" % c)
            continue
        tips_in = hand.clip_fingertips(clip, skeletons)
        tips_out = hand.clip_fingertips(result.clip, skeletons)
        disp = float(np.max(np.linalg.norm(tips_out - tips_in, axis=-1)))
        mismatch = [f for f in range(clip.n_frames)
                    if kb.extract_pressed(geom, tips_out[f],
                                          kb.DEFAULT_ACTIVATION_DEPTH)
                    != matrix.keys_at(f)]
        curve = result.loss_curve
        rising = [i for i in range(len(curve) - 1)
                  if curve[i + 1] > curve[i] + 1e-12]
        if np.any(after) or mismatch:
            problems.append("clip %d: frames %r still disagree" % (c, mismatch))
        elif rising:
            problems.append("clip %d: loss rises at epochs %r" % (c, rising[:3]))
        elif disp > 0.012:
            problems.append("clip %d: fingertip moved %.3g m" % (c, disp))
        else:
            n_fixed += 1
    _check(problems, n_fixed == 20, "repaired %d/20 clips" % n_fixed)
    _finish("press-error refinement", problems, t0, 300.0,
            "%d/20 clips repaired" % n_fixed)


def test_refinement_repairs_a_long_clip(geom, skeletons, rng):
    # 300 of the groups above back to back, 20 s at 60 fps: 600 errors.
    poses = {}
    frames, score = [], []
    for c in range(300):
        group = _error_group(geom, skeletons, rng,
                             _ERROR_KEYS[c % len(_ERROR_KEYS)], poses)
        frames += group[0]
        score += group[1]
    clip = _synth.pose_clip(60.0, frames)
    matrix = _synth.matrix_from_frames(score, fps=60.0)
    t0 = time.monotonic()
    problems = []
    result, before, after = midi_ik.refine_to_midi(clip, skeletons, geom,
                                                   matrix)
    n_before, n_after = np.count_nonzero(before), np.count_nonzero(after)
    _check(problems, n_before == 600, "%d errors before" % n_before)
    _check(problems, n_after == 0, "%d errors after" % n_after)
    _check(problems, result.stop[1, 2] == "converged",
           "LM stopped %r" % result.stop[1, 2])
    tips_in = hand.clip_fingertips(clip, skeletons)
    moved = np.linalg.norm(hand.clip_fingertips(result.clip, skeletons)
                           - tips_in, axis=-1)
    _check(problems, not moved[:, np.r_[0:7, 8:10]].any(),
           "a fingertip without targets moved")
    _check(problems, moved.max() <= 0.012,
           "fingertip moved %.3g m" % moved.max())
    _finish("long-clip refinement", problems, t0, 30.0,
            "1200 frames, %d -> %d errors, %d LM iterations"
            % (n_before, n_after, result.iterations.max()))


# ---------------------------------------------------------------------------
# 7. Window retrieval against a brute-force double loop; span merging.


def test_retrieval_matches_brute_force_and_merges_span(rng):
    t0 = time.monotonic()
    problems = []
    mats = {cid: (rng.random((80, 88)) < 0.35).astype(np.uint8)
            for cid in ("alpha", "beta")}
    dataset = [(cid, midi.KeyMatrix(60.0, m)) for cid, m in mats.items()]
    index = retrieval.build_index(dataset)

    # Plant-and-find: a query that IS a dataset clip matches itself with
    # distance 0 and exact provenance at every window.
    res = retrieval.retrieve(index, midi.KeyMatrix(60.0, mats["alpha"]))
    zero = bool(np.all(res.distances == 0.0))
    prov_ok = all(index.provenance(int(res.matches[qi])) == ("alpha", int(qs))
                  for qi, qs in enumerate(res.query_starts))
    _check(problems, zero, "self-query has nonzero distances")
    _check(problems, prov_ok, "self-query provenance mismatch")

    # Brute-force equivalence on a noisy query with a planted span.
    q = (rng.random((70, 88)) < 0.35).astype(np.uint8)
    q[5:65] = mats["beta"][10:70]
    query = midi.KeyMatrix(60.0, q)
    res = retrieval.retrieve(index, query)
    windows = index.windows
    n_pairs = 0
    for qi, qs in enumerate(res.query_starts):
        window = q[qs:qs + index.window_len]
        best_d = None
        best_i = -1
        for wi in range(index.n_windows):
            d = int(np.sum(window != windows[wi]))
            n_pairs += 1
            if best_d is None or d < best_d:
                best_d = d
                best_i = wi
        if (int(res.matches[qi]) != best_i
                or float(res.distances[qi]) != float(best_d)):
            problems.append(
                "window %d: got (%d, %r), brute force (%d, %r)"
                % (qi, res.matches[qi], res.distances[qi], best_i, best_d))
        if len(problems) > 4:
            break
    _check(problems, n_pairs <= 10_000, "%d window pairs" % n_pairs)

    # A query that is exactly a 60-frame span merges into one segment.
    span_query = midi.KeyMatrix(60.0, mats["beta"][10:70])
    segs = retrieval.merge_segments(retrieval.retrieve(index, span_query),
                                    index)
    _check(problems, len(segs) == 1, "%d segments, expected 1" % len(segs))
    if len(segs) == 1:
        s = segs[0]
        _check(problems,
               (s.clip_id, s.start, s.length, s.query_start, s.n_windows)
               == ("beta", 10, 60, 0, 31),
               "merged segment %r" % (s.to_json_obj(),))
    _finish("retrieval vs brute force", problems, t0, 30.0,
            "%d pairs checked" % n_pairs)


# ---------------------------------------------------------------------------
# 8. Reward terms against direct arithmetic; goal-state timers.


def test_reward_terms_match_direct_arithmetic(rng):
    t0 = time.monotonic()
    problems = []
    n_states = 0

    travel = rng.uniform(0.008, 0.012, 4000)
    ratio = rng.uniform(0.0, travel) / travel
    tips = rng.uniform(-1.0, 1.0, (4000, 3))
    targets = rng.uniform(-1.0, 1.0, (4000, 3))
    got = rewards.reward_target(tips, ratio, targets)
    for i in range(4000):
        if ratio[i] > 0.9:
            want = 1.0
        else:
            dist = math.sqrt(sum((float(tips[i, k]) - float(targets[i, k])) ** 2
                                 for k in range(3)))
            want = math.exp(-dist + 0.01 * ratio[i])
        if abs(got[i] - want) > 1e-9 and len(problems) < 3:
            problems.append("target state %d: %r != %r" % (i, got[i], want))
        n_states += 1

    travel = rng.uniform(0.008, 0.012, 3000)
    depth = rng.uniform(0.0, travel)
    got = rewards.reward_nontarget(depth / travel)
    for i in range(3000):
        r = depth[i] / travel[i]
        want = r / 0.9 if depth[i] > 0.0 and r > 0.1 else 0.0
        if abs(got[i] - want) > 1e-9 and len(problems) < 6:
            problems.append("nontarget state %d: %r != %r" % (i, got[i], want))
        n_states += 1

    vw = rng.uniform(-2.0, 2.0, (3000, 2, 3))
    vf = rng.uniform(-2.0, 2.0, (3000, 2, 5, 3))
    got = rewards.reward_energy(vw, vf)
    for i in range(3000):
        total = 0.0
        for h in range(2):
            w = math.sqrt(sum(float(vw[i, h, k]) ** 2 for k in range(3)))
            f = sum(math.sqrt(sum(float(vf[i, h, j, k]) ** 2 for k in range(3)))
                    for j in range(5))
            total += (w + 0.1 * f) ** 2
        want = math.exp(-0.75 * total)
        if abs(got[i] - want) > 1e-9 and len(problems) < 9:
            problems.append("energy state %d: %r != %r" % (i, got[i], want))
        n_states += 1

    # Spot values: approach shaping, depth shaping, and unit wrist speed.
    target = np.array([0.5, 0.1, 0.0])
    spot1 = rewards.reward_target(target + (0.05, 0.0, 0.0), 0.0, target)
    _check(problems, abs(spot1 - math.exp(-0.05)) <= 1e-9,
           "5 cm away at rest: %r" % spot1)
    spot2 = rewards.reward_target(target, 0.5, target)
    _check(problems, abs(spot2 - math.exp(0.005)) <= 1e-9,
           "on target at half depth: %r" % spot2)
    spot3 = rewards.reward_energy([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                                  np.zeros((2, 5, 3)))
    _check(problems, abs(spot3 - math.exp(-0.75)) <= 1e-9,
           "unit wrist speed: %r" % spot3)
    boundary = rewards.reward_target(target, 0.9, target)
    _check(problems, abs(boundary - math.exp(0.009)) <= 1e-9,
           "sounding threshold must be strict: %r" % boundary)

    r_target = np.ones((2000, 88))
    r_nontarget = np.zeros((2000, 88))
    cases = []
    for i in range(2000):
        targets = {int(k): float(rng.uniform(0.0, 1.0))
                   for k in rng.integers(1, 89, int(rng.integers(0, 4)))}
        nontargets = {int(k): float(rng.uniform(0.0, 1.2))
                      for k in rng.integers(1, 89, int(rng.integers(0, 4)))}
        for k, v in targets.items():
            r_target[i, k - 1] = v
        for k, v in nontargets.items():
            r_nontarget[i, k - 1] = v
        cases.append((targets, nontargets, bool(rng.integers(0, 2)),
                      float(rng.uniform(0.0, 1.0))))
    correct = np.array([c[2] for c in cases], dtype=np.float64)
    energy = np.array([c[3] for c in cases])
    totals = {sign: rewards.reward_total(r_target, r_nontarget, correct, energy,
                                         energy_sign=sign)
              for sign in (-1.0, 1.0)}
    for i, (targets, nontargets, correct_i, energy_i) in enumerate(cases):
        sign = -1.0 if i % 2 else 1.0
        want = (math.prod(targets.values())
                - 0.15 * sum(nontargets.values())
                + 0.5 * (1.0 if correct_i else 0.0)
                + sign * 0.05 * energy_i)
        got = totals[sign][i]
        if abs(got - want) > 1e-9 and len(problems) < 12:
            problems.append("composition %d: %r != %r" % (i, got, want))
        n_states += 1

    matrix = _synth.matrix_from_frames(
        [{40}] * 3 + [{40, 43}] * 2 + [set()] * 2, fps=60.0)
    segments = rewards.merged_goals(matrix)
    prev = None
    for f in range(matrix.n_frames):
        gs = rewards.goal_state(segments, f)
        if gs.matrix.shape != (5, 89):
            problems.append("goal state shape %r" % (gs.matrix.shape,))
            break
        if prev is not None:
            populated = prev[:, :88].any(axis=1) | (prev[:, 88] > 0)
            same = prev[populated, 88] - 1 == gs.matrix[populated, 88]
            shifted = prev[1:, 88] - 1 == gs.matrix[:-1, 88]
            if not (np.all(same) or np.all(shifted[prev[1:, 88] > 0])):
                problems.append("timers at frame %d do not decrement" % f)
        prev = gs.matrix
    _finish("reward arithmetic", problems, t0, 10.0,
            "%d random states" % n_states)


# ---------------------------------------------------------------------------
# 9. Byte-for-byte pipeline determinism on the golden fixture.


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
STAGE_FILES = ("trajectory.json", "fit_report.json", "fitted.json",
               "refine_report.json", "refined.json", "eval.json",
               "eval_frames.csv", "presses.json", "rewards.jsonl")


def _run_pipeline(workdir, threads):
    env = dict(os.environ,
               OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    stages = [
        ["triangulate", "--keypoints", GOLDEN / "keypoints.json",
         "--cameras", GOLDEN / "cameras.json", "--fps", "60",
         "-o", workdir / "trajectory.json"],
        ["fit", "--trajectory", workdir / "trajectory.json",
         "--report", workdir / "fit_report.json",
         "-o", workdir / "fitted.json"],
        ["refine", "--clip", workdir / "fitted.json",
         "--midi", GOLDEN / "score.json",
         "--report", workdir / "refine_report.json",
         "-o", workdir / "refined.json"],
        ["eval", "--clip", workdir / "refined.json",
         "--midi", GOLDEN / "score.json",
         "--per-frame", workdir / "eval_frames.csv",
         "-o", workdir / "eval.json"],
        ["extract-press", "--clip", workdir / "refined.json",
         "-o", workdir / "presses.json"],
        ["reward", "--clip", workdir / "refined.json",
         "--midi", GOLDEN / "score.json", "-o", workdir / "rewards.jsonl"],
    ]
    for stage in stages:
        argv = [sys.executable, "-m", "pianomotion"] + [str(a) for a in stage]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            return "stage %s exited %d: %s" % (stage[0], proc.returncode,
                                               proc.stderr.strip()[:200])
    return None


def test_pipeline_output_bytes_are_reproducible(tmp_path):
    t0 = time.monotonic()
    problems = []
    expected = {name: (GOLDEN / "expected" / name).read_bytes()
                for name in STAGE_FILES}
    for threads in ("1", "2", "4"):
        workdir = tmp_path / ("threads%s" % threads)
        workdir.mkdir()
        failure = _run_pipeline(workdir, threads)
        if failure:
            problems.append("threads=%s: %s" % (threads, failure))
            continue
        for name in STAGE_FILES:
            got = (workdir / name).read_bytes()
            if got != expected[name]:
                problems.append("threads=%s: %s differs from checked-in bytes"
                                % (threads, name))
    _finish("pipeline byte determinism", problems, t0, 120.0,
            "3 runs x %d files" % len(STAGE_FILES))
