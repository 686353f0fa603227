"""The three workload chains, their output checks and their step loops.

Each chain drives the pipeline through `cli.main(argv)` in-process, one
stage after another (a closed loop with one client), and times only the
`cli.main` calls.  Every stage's output is then checked against the scene's
ground truth; a stage that exits nonzero or fails its check counts as
failed.  The step loop times one per-frame call the workload's consumer
makes, N_STEPS times, spread over the chain by the runner.
"""

import csv
import gc
import json
import math
import os
import time

import numpy as np

import scenes
from pianomotion import cli, hand, midi, reconstruction, rewards

N_STEPS = 600              # 30 samples lie beyond the 95th percentile
JOINT_ERR_P50_MM = 1.0     # fitted joints vs ground truth: median bound
JOINT_ERR_MAX_MM = 10.0    # ... and worst-joint bound
WINDOW = 30                # retrieval window length (the CLI default)


class Outcome:
    """Stage results of one chain: per-stage wall intervals and failed checks.

    after_stage, when given, runs after every stage (outside the stage's
    interval); the runner uses it to spread the step loop over the chain.
    """

    def __init__(self, after_stage=None):
        self.intervals = []        # (stage, start, end) perf_counter seconds
        self.failures = []
        self.values = {}
        self.after_stage = after_stage

    def stage(self, name, argv, check):
        start = time.perf_counter()
        try:
            rc = cli.main([str(a) for a in argv])
        except Exception as exc:            # a traceback is a failed stage too
            rc = "with %s: %s" % (type(exc).__name__, exc)
        self.intervals.append((name, start, time.perf_counter()))
        if rc != 0:
            self.failures.append("%s exited %s" % (name, rc))
        else:
            try:
                problem = check()
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problem = "unreadable output: %r" % (exc,)
            if problem:
                self.failures.append("%s: %s" % (name, problem))
        if self.after_stage:
            self.after_stage()


class Stepper:
    """Times one per-frame step at a time; checks results outside the timing.

    With a clock set, a reference-kernel sample is taken (untimed) before
    every SAMPLE_EVERY-th step.
    """

    SAMPLE_EVERY = 10

    def __init__(self, step, check):
        self.step = step
        self.check = check
        self.clock = None
        self.intervals = []        # (start, end) perf_counter seconds
        self.problem = None

    def take(self, k):
        # Garbage the chain stages left behind is collected here, untimed,
        # rather than inside whichever step happens to trigger it.
        gc.collect()
        for _ in range(k):
            i = len(self.intervals)
            if self.clock and i % self.SAMPLE_EVERY == 0:
                self.clock.sample()
            start = time.perf_counter()
            result = self.step(i)
            self.intervals.append((start, time.perf_counter()))
            problem = self.check(i, result)
            if problem and self.problem is None:
                self.problem = "step %d: %s" % (i, problem)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _matrix(path):
    obj = _read_json(path)
    data = np.zeros((obj["n_frames"], 88), dtype=np.uint8)
    for key, runs in obj["columns"].items():
        for s, e in runs:
            data[s:e, int(key) - 1] = 1
    return data


def _clip_joints(path, skeletons):
    """Joint positions (F, 2, 21, 3) of a clip file, by the scene's own FK."""
    frames = _read_json(path)["frames"]
    out = np.empty((len(frames), 2, 21, 3))
    for h, offsets in enumerate((skeletons.left.bone_offsets, skeletons.right.bone_offsets)):
        vecs = []
        for fr in frames:
            pose = fr[h]
            q = np.asarray(pose["root_q"], dtype=float)
            angle = 2.0 * math.atan2(float(np.linalg.norm(q[1:])), q[0])
            axis = q[1:] / max(float(np.linalg.norm(q[1:])), 1e-300)
            vecs.append(np.concatenate([pose["root_t"], angle * axis,
                                        np.reshape(pose["joint_rotations"], -1)]))
        out[:, h] = scenes.fk(offsets, np.array(vecs))
    return out


# ---------------------------------------------------------------------------
# capture: keypoints -> triangulate -> fit -> refine -> eval


def capture_chain(scene, work, after_stage=None):
    p = scene["paths"]
    out = Outcome(after_stage)
    traj, fitted = os.path.join(work, "trajectory.json"), os.path.join(work, "fitted.json")
    refined, report = os.path.join(work, "refined.json"), os.path.join(work, "refine_report.json")
    evaluation = os.path.join(work, "eval.json")
    skeletons = hand.SkeletonPair.default()
    gt = scene["joints"]

    def check_traj():
        obj = _read_json(traj)
        pos, valid = np.array(obj["positions"]), np.array(obj["valid"], dtype=bool)
        err = np.linalg.norm(pos - gt, axis=-1)[valid] * 1e3
        if valid.mean() < 0.95 or np.median(err) > JOINT_ERR_P50_MM:
            return "valid %.3f, median error %.3f mm" % (valid.mean(), np.median(err))

    def check_fit():
        err = np.linalg.norm(_clip_joints(fitted, skeletons) - gt, axis=-1) * 1e3
        out.values["joint_err_mm"] = float(np.median(err))
        if np.median(err) > JOINT_ERR_P50_MM or err.max() > JOINT_ERR_MAX_MM:
            return "joint error median %.3f mm, max %.3f mm" % (np.median(err), err.max())

    def check_refine():
        rep = _read_json(report)
        out.values["errors_before"] = rep["errors_before"]
        out.values["errors_after"] = rep["errors_after"]
        if rep["errors_after"] != 0 or rep["errors_before"] < scene["n_injected"]:
            return "errors %d -> %d" % (rep["errors_before"], rep["errors_after"])

    def check_eval():
        out.values["press_f1"] = f1 = _read_json(evaluation)["f1"]
        if f1 != 100.0:
            return "F1 %r" % f1

    out.stage("triangulate", ["triangulate", "--keypoints", p["keypoints.json"], "--cameras",
                              p["cameras.json"], "--fps", scenes.FPS, "-o", traj], check_traj)
    out.stage("fit", ["fit", "--trajectory", traj, "--report",
                      os.path.join(work, "fit_report.json"), "-o", fitted], check_fit)
    out.stage("refine", ["refine", "--clip", fitted, "--midi", p["score.json"], "--report",
                         report, "-o", refined], check_refine)
    out.stage("eval", ["eval", "--clip", refined, "--midi", p["score.json"], "-o",
                       evaluation], check_eval)
    return out


def capture_steps(scene):
    """Step: RANSAC-triangulate one keypoint from its exact five-view projection.

    Every step does the same work: all view pairs agree and the refit and
    polish see consistent views.  On the noisy observations the polish
    length, and with it the step loop's tail, would follow the seed's noise
    draw (the 95th percentile spread 0.31 over 10 seeds); the chain times
    the noisy cases.
    """
    rig = reconstruction.CameraRig(scene["projections"])
    uv = scene["exact_uv"]
    points = [(f, h, j) for f in range(len(uv)) for h in range(2) for j in range(21)]

    def step(i):
        f, h, j = points[i % len(points)]
        return reconstruction.ransac_triangulate(uv[f, :, h, j], rig)

    def check(i, res):
        f, h, j = points[i % len(points)]
        err = np.linalg.norm(res.point - scene["joints"][f, h, j]) * 1e3 if res.valid else 0.0
        if not res.valid or err > 0.01:
            return "keypoint %s: valid=%s, off by %.4f mm" % ((f, h, j), res.valid, err)

    return Stepper(step, check)


# ---------------------------------------------------------------------------
# signals: .mid -> quantize -> eval --per-frame -> extract-press -> goalstate -> reward


def _segments(score):
    """(start, end) runs of identical score rows."""
    change = np.flatnonzero(np.any(score[1:] != score[:-1], axis=1)) + 1
    bounds = np.concatenate([[0], change, [len(score)]])
    return list(zip(bounds[:-1], bounds[1:]))


def signals_chain(scene, work, after_stage=None):
    p = scene["paths"]
    out = Outcome(after_stage)
    score = scene["score"]
    n = scene["n_frames"]
    matrix, evaluation = os.path.join(work, "score.json"), os.path.join(work, "eval.json")
    per_frame, presses = os.path.join(work, "prf.csv"), os.path.join(work, "presses.json")
    goals, rewards_out = os.path.join(work, "goals.csv"), os.path.join(work, "rewards.jsonl")

    def check_quantize():
        if not np.array_equal(_matrix(matrix), score):
            return "key matrix differs from the score"

    def check_eval():
        f1 = _read_json(evaluation)["f1"]
        with open(per_frame) as fh:
            rows = fh.read().splitlines()
        if f1 != 100.0 or len(rows) != n + 1:
            return "F1 %r over %d per-frame rows" % (f1, len(rows) - 1)

    def check_presses():
        if not np.array_equal(_matrix(presses), score):
            return "extracted presses differ from the score"

    def check_goals():
        segs = _segments(score)
        seg_of = np.repeat(np.arange(len(segs)), [e - s for s, e in segs])
        with open(goals) as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != 5 * n:
            return "%d rows for %d frames" % (len(rows), n)
        for r in rows:
            f, slot, timer = int(r[0]), int(r[1]), int(r[-1])
            idx = seg_of[f] + slot
            want_keys = score[segs[idx][0]] if idx < len(segs) else np.zeros(88)
            want_timer = segs[idx][1] - f if idx < len(segs) else 0
            if timer != want_timer or any(int(v) != k for v, k in zip(r[2:90], want_keys)):
                return "frame %d slot %d disagrees with the merged goals" % (f, slot)

    def check_rewards():
        with open(rewards_out) as fh:
            lines = fh.read().splitlines()
        if len(lines) != n:
            return "%d reward lines for %d frames" % (len(lines), n)
        for i, line in enumerate(lines):
            obj = json.loads(line)
            if obj["frame"] != i or not math.isfinite(obj["total"]):
                return "bad reward line %d" % i

    out.stage("quantize", ["quantize", "--midi", p["score.mid"], "--fps", scenes.FPS,
                           "--frames", n, "-o", matrix], check_quantize)
    out.stage("eval", ["eval", "--clip", p["clip.json"], "--midi", matrix, "--per-frame",
                       per_frame, "-o", evaluation], check_eval)
    out.stage("extract-press", ["extract-press", "--clip", p["clip.json"], "-o", presses],
              check_presses)
    out.stage("goalstate", ["goalstate", "--midi", matrix, "--fps", scenes.FPS, "-o", goals],
              check_goals)
    out.stage("reward", ["reward", "--clip", p["clip.json"], "--midi", matrix, "--reference",
                         p["clip.json"], "-o", rewards_out], check_rewards)
    return out


def signals_steps(scene):
    """Step: the goal state plus the pose state at frame f (an RL env step)."""
    with open(scene["paths"]["clip.json"]) as fh:
        clip = hand.MotionClip.from_json(fh.read())
    skeletons = hand.SkeletonPair.default()
    segments = rewards.merged_goals(midi.KeyMatrix(scenes.FPS, scene["score"]))
    segs = _segments(scene["score"])
    seg_end = np.repeat([e for _, e in segs], [e - s for s, e in segs])

    def frame(i):
        return 1 + i % (clip.n_frames - 1)

    def step(i):
        return (rewards.goal_state(segments, frame(i)),
                rewards.pose_state(clip, skeletons, frame(i)))

    def check(i, result):
        goal, pose = result
        if goal.timers[0] != seg_end[frame(i)] - frame(i) or not np.all(
                np.isfinite(pose.array)):
            return "bad goal or pose state at frame %d" % frame(i)

    return Stepper(step, check)


# ---------------------------------------------------------------------------
# retrieve: 40 .mid files -> index -> 2 retrieve queries


def _oracle(rolls, q):
    """Brute-force (distance, global window index) for one query window.

    Windows are numbered clip by clip in dataset order, start by start, so
    argmin's first hit is the lowest-index tie.
    """
    dists = []
    for roll in rolls:
        r = roll.astype(np.int64)
        qq = q.astype(np.int64)
        per_frame = r @ (1 - qq).T + (1 - r) @ qq.T          # (frames, WINDOW) Hamming
        n = len(roll) - WINDOW + 1
        acc = np.zeros(n, dtype=np.int64)
        for w in range(WINDOW):
            acc += per_frame[w:w + n, w]
        dists.append(acc)
    d = np.concatenate(dists)
    i = int(np.argmin(d))
    return float(d[i]), i


def retrieve_chain(scene, work, after_stage=None):
    p = scene["paths"]
    out = Outcome(after_stage)
    index = os.path.join(work, "index.npz")

    def check_index():
        out.values["index_mb"] = os.path.getsize(index) / 1e6
        if os.path.getsize(index) == 0:
            return "empty index file"

    out.stage("index", ["index", "--dataset", *p["dataset"], "--fps", scenes.FPS,
                        "-o", index], check_index)
    rng = np.random.default_rng(scene["seed"])
    for qi, (qpath, q) in enumerate(zip(p["queries"], scene["queries"])):
        result = os.path.join(work, "retrieved%d.json" % qi)
        clip_id, start = scene["plants"][qi]

        def check_retrieve(result=result, q=q, clip_id=clip_id, start=start):
            obj = _read_json(result)
            if not any(s["clip_id"] == clip_id and s["start"] == start
                       and s["query_start"] == 0 for s in obj["segments"]):
                return "planted span %s@%d not recovered" % (clip_id, start)
            n_win = len(q) - WINDOW + 1
            third = len(q) // 3
            for j in (0, int(rng.integers(1, third)), int(rng.integers(third, n_win - 1)),
                      n_win - 1):
                want = _oracle(scene["rolls"], q[j:j + WINDOW])
                got = (obj["distances"][j], obj["matches"][j])
                if got != want:
                    return "window %d: got %r, brute force %r" % (j, got, want)

        out.stage("retrieve", ["retrieve", "--index", index, "--query", qpath, "--fps",
                               scenes.FPS, "--full", "-o", result], check_retrieve)
    return out


def retrieve_steps(scene):
    """Step: parse one take's MIDI bytes (the check quantizes it, untimed).

    Quantizing inside the step would time a 132 KB allocation whose page
    faults this machine serves at very uneven speed.
    """
    blobs = []
    for path in scene["paths"]["dataset"]:
        with open(path, "rb") as fh:
            blobs.append(fh.read())

    def step(i):
        c = i % len(blobs)
        return midi.parse_midi(blobs[c], scene["names"][c])

    def check(i, notes):
        c = i % len(blobs)
        matrix = midi.quantize(notes, scenes.FPS,
                               max(1, int(np.ceil(notes.duration() * scenes.FPS))))
        if not np.array_equal(matrix.data, scene["rolls"][c]):
            return "take %s quantizes differently" % scene["names"][c]

    return Stepper(step, check)


# Stage invocations per chain, for spreading the step loop over it.
STAGES = {"capture": 4, "signals": 5, "retrieve": 3}

WORKLOADS = {
    "capture": (scenes.capture_scene, capture_chain, capture_steps),
    "signals": (scenes.signals_scene, signals_chain, signals_steps),
    "retrieve": (scenes.retrieve_scene, retrieve_chain, retrieve_steps),
}


def workload_frames(scene):
    """Frames a chain processes: clip frames, or query frames for retrieval."""
    if "queries" in scene:
        return sum(len(q) for q in scene["queries"])
    return scene["n_frames"]
