"""Seeded synthetic inputs for the benchmark workloads.

Every scene is built from the workload seed alone and written to files
before any timing starts; the program under test only ever sees those
files.  The generator keeps its own forward kinematics, pose solver, MIDI
writer and JSON writers, so edits to the library's kinematics or
serializers cannot shift the inputs.  From the library it takes only the
world model: the default skeleton, the joint tree and the keyboard layout
(plus `keyboard.extract_pressed` to verify that a solved pose presses the
keys the scene says it does).
"""

import json
import os

import numpy as np

from pianomotion import hand, keyboard as kb

FPS = 60.0
HOVER = 0.012            # resting fingertip height above the white-key surface
PRESS_DEPTH = 0.006      # press depth, past the default 4 mm activation depth
SHALLOW_DEPTH = 0.002    # a touch that stays short of the activation depth
IMAGE_SIZE = (3840, 2160)
TIPS = (16, 17, 18, 19, 20)  # thumb, index, middle, ring, pinky tip joints

# Mildly curled rest posture (rows: thumb, index, middle, ring, pinky chains);
# a flat hand sits on a workspace boundary and strands the press solver.
_REST_CURL = np.zeros((15, 3))
_REST_CURL[0:3, 0] = (-0.10, -0.15, -0.10)
for _base in (3, 6, 9, 12):
    _REST_CURL[_base:_base + 3, 0] = (-0.20, -0.30, -0.12)
# Raised posture of the idle chains (thumb, index, ring, pinky: rows 0-5 and
# 9-14) for one-finger playing; they do not move the middle fingertip.
_IDLE_ROWS = np.r_[0:6, 9:15]
_RAISED = np.zeros((15, 3))
_RAISED[0:3, 0] = (0.0, 0.1, 0.1)
for _base in (3, 9, 12):
    _RAISED[_base:_base + 3, 0] = (0.15, 0.1, 0.05)


# ---------------------------------------------------------------------------
# Kinematics (independent of the library's FK)


def rotvec_to_matrix(w):
    """Rodrigues' formula on (..., 3) rotation vectors."""
    w = np.asarray(w, dtype=np.float64)
    theta = np.linalg.norm(w, axis=-1)[..., None, None]
    small = theta < 1e-8
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta ** 2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - theta ** 2 / 24.0, (1.0 - np.cos(safe)) / safe ** 2)
    K = np.zeros(w.shape[:-1] + (3, 3))
    K[..., 0, 1], K[..., 0, 2] = -w[..., 2], w[..., 1]
    K[..., 1, 0], K[..., 1, 2] = w[..., 2], -w[..., 0]
    K[..., 2, 0], K[..., 2, 1] = -w[..., 1], w[..., 0]
    return np.eye(3) + a * K + b * (K @ K)


def rotvec_to_quat(w):
    """wxyz unit quaternion of one rotation vector."""
    w = np.asarray(w, dtype=np.float64)
    theta = float(np.linalg.norm(w))
    if theta < 1e-12:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.concatenate([[np.cos(theta / 2.0)], np.sin(theta / 2.0) * w / theta])


def fk(offsets, vecs):
    """Joint positions (B, 21, 3) of 51-parameter pose vectors (B, 51)."""
    vecs = np.atleast_2d(vecs)
    n = vecs.shape[0]
    R = rotvec_to_matrix(vecs[:, 3:].reshape(n, 16, 3))
    p = np.empty((n, 21, 3))
    G = np.empty((n, 16, 3, 3))
    p[:, 0] = vecs[:, :3]
    G[:, 0] = R[:, 0]
    for j in range(1, 21):
        par = hand.PARENTS[j]
        p[:, j] = p[:, par] + G[:, par] @ offsets[j]
        if j < 16:
            G[:, j] = G[:, par] @ R[:, j]
    return p


def solve_tips(offsets, vec0, targets, iters=200, prior=1e-8):
    """Move the five fingertips onto targets (5, 3) by rotations only.

    Levenberg-Marquardt on a forward-difference Jacobian with a weak prior
    to the starting pose; the root translation stays where it is.
    """
    free = np.arange(3, 51)
    x0 = vec0.copy()
    vec = vec0.copy()
    eps = 1e-7

    def resid(v):
        return (fk(offsets, v)[:, TIPS] - targets).reshape(len(v), -1)

    def cost(r, v):
        d = v[free] - x0[free]
        return float(r @ r) + prior * float(d @ d)

    r = resid(vec[None])[0]
    c = cost(r, vec)
    lam = 1e-3
    eye = np.eye(len(free))
    for _ in range(iters):
        probes = np.repeat(vec[None], len(free), axis=0)
        probes[np.arange(len(free)), free] += eps
        J = ((resid(probes) - r) / eps).T
        g = J.T @ r + prior * (vec[free] - x0[free])
        H = J.T @ J + prior * eye
        for _ in range(12):
            trial = vec.copy()
            trial[free] -= np.linalg.solve(H + lam * eye, g)
            rt = resid(trial[None])[0]
            ct = cost(rt, trial)
            if ct < c:
                vec, r, c = trial, rt, ct
                lam = max(lam * 0.3, 1e-9)
                break
            lam *= 5.0
        else:
            break
        if c < 1e-14:
            break
    return vec


class Hands:
    """Right-hand poses over one keyboard position, solved and verified."""

    def __init__(self, geom, skeletons, center_key, raise_idle=False):
        self.geom = geom
        self.raise_idle = raise_idle
        self.offsets = skeletons.right.bone_offsets
        yaw = np.array([0.0, 0.0, np.pi])
        vec = np.concatenate([np.zeros(3), yaw, _REST_CURL.reshape(-1)])
        middle = fk(self.offsets, vec)[0, TIPS[2]]
        target = kb.key_target_position(geom, center_key)
        vec[:3] = (target[0] - middle[0], target[1] - middle[1], HOVER - middle[2])
        self._hover = vec
        self.hover_tips = fk(self.offsets, vec)[0, TIPS]
        self.hover = self._finish(vec)
        # The key under each fingertip at hover (None where a tip is off-key).
        self.finger_keys = [kb.key_for_point(geom, t) for t in self.hover_tips]
        self._cache = {}

    def _target(self, finger, depth):
        key = self.finger_keys[finger]
        tip = self.hover_tips[finger]
        nominal = self.geom.to_local(kb.key_target_position(self.geom, key))
        y0, y1 = self.geom.boxes[key - 1, 2:4]
        y = min(max(self.geom.to_local(tip)[1], y0 + 0.004), y1 - 0.004)
        point = self.geom.to_world(np.array([nominal[0], y, nominal[2]]))
        point[2] -= depth
        return point

    def pose(self, fingers, depth=PRESS_DEPTH):
        """Pose pressing with `fingers` (0..4) to `depth`; the rest hover.

        Returns None when the solved pose does not press exactly the keys
        under those fingers (or, for a shallow touch, presses anything).
        """
        fingers = tuple(sorted(fingers))
        key = (fingers, depth)
        if key not in self._cache:
            self._cache[key] = self._solve(fingers, depth)
        return self._cache[key]

    def _finish(self, vec):
        """With raise_idle, swap the idle chains for the raised posture."""
        if not self.raise_idle:
            return vec
        vec = vec.copy()
        vec[6:].reshape(15, 3)[_IDLE_ROWS] = _RAISED[_IDLE_ROWS]
        return vec

    def _solve(self, fingers, depth):
        if not fingers:
            return self.hover.copy()
        if any(self.finger_keys[f] is None for f in fingers):
            return None
        targets = self.hover_tips.copy()
        for f in fingers:
            targets[f] = self._target(f, depth)
        vec = solve_tips(self.offsets, self._hover, targets)
        if np.abs(fk(self.offsets, vec)[0, TIPS] - targets).max() > 1e-3:
            return None
        vec = self._finish(vec)
        tips = fk(self.offsets, vec)[0, TIPS]
        pressed = kb.extract_pressed(self.geom, tips, kb.DEFAULT_ACTIVATION_DEPTH)
        wanted = set() if depth < kb.DEFAULT_ACTIVATION_DEPTH else {
            self.finger_keys[f] for f in fingers}
        if pressed != wanted:
            return None
        held = [i for i in range(5) if i not in fingers]
        if held and tips[held, 2].min() < 0.002:
            return None
        return vec


def parked_left(x):
    """A left hand resting raised and away from the keys."""
    return np.concatenate([[x, 0.35, HOVER + 0.05], [0.0, 0.0, np.pi], np.zeros(45)])


# ---------------------------------------------------------------------------
# File writers (the formats the CLI reads)


def _pose_obj(vec):
    return {"root_t": [float(v) for v in vec[:3]],
            "root_q": [float(v) for v in rotvec_to_quat(vec[3:6])],
            "joint_rotations": vec[6:].reshape(15, 3).tolist()}


def clip_json(vecs, fps=FPS):
    """Motion clip JSON from pose vectors shaped (F, 2, 51)."""
    return json.dumps({"fps": fps, "hands": ["left", "right"],
                       "frames": [[_pose_obj(l), _pose_obj(r)] for l, r in vecs]})


def matrix_json(data, fps=FPS):
    """Binary key matrix JSON (run-length columns) from a (F, 88) array."""
    columns = {}
    for k in range(88):
        col = np.concatenate([[0], data[:, k].astype(np.int8), [0]])
        edges = np.flatnonzero(np.diff(col))
        if edges.size:
            columns[str(k + 1)] = edges.reshape(-1, 2).tolist()
    return json.dumps({"type": "key_matrix", "fps": fps, "n_frames": int(len(data)),
                       "n_keys": 88, "columns": columns})


def _varlen(value):
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def midi_bytes(data):
    """Standard MIDI file (format 0) whose quantization at FPS is `data`.

    Each run of active frames [s, e) of a key becomes one note from a
    quarter frame after frame s starts to a quarter frame before frame e
    starts, so no onset or offset sits on a frame boundary.
    """
    ppq, uspq = 960, 500000                 # 32 ticks per frame at 60 fps
    per_frame = 32
    events = []
    for k in range(88):
        col = np.concatenate([[0], data[:, k].astype(np.int8), [0]])
        for s, e in np.flatnonzero(np.diff(col)).reshape(-1, 2):
            events.append((int(s) * per_frame + 8, 1, k + 21))
            events.append((int(e) * per_frame - 8, 0, k + 21))
    events.sort()
    track = bytearray(b"\x00\xff\x51\x03" + uspq.to_bytes(3, "big"))
    now = 0
    for tick, on, pitch in events:
        track += _varlen(tick - now) + bytes([0x90 if on else 0x80, pitch, 64])
        now = tick
    track += b"\x00\xff\x2f\x00"
    header = b"MThd" + (6).to_bytes(4, "big") + bytes([0, 0, 0, 1]) + ppq.to_bytes(2, "big")
    return header + b"MTrk" + len(track).to_bytes(4, "big") + bytes(track)


def _write(path, data):
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


# ---------------------------------------------------------------------------
# Cameras


def _look_at(eye, center, f=3200.0):
    forward = center - eye
    forward /= np.linalg.norm(forward)
    right = np.cross(forward, [0.0, 0.0, 1.0])
    right /= np.linalg.norm(right)
    R = np.stack([right, np.cross(forward, right), forward])
    K = np.array([[f, 0.0, IMAGE_SIZE[0] / 2.0], [0.0, f, IMAGE_SIZE[1] / 2.0],
                  [0.0, 0.0, 1.0]])
    return K @ np.hstack([R, (-R @ eye)[:, None]])


def five_camera_rig(center):
    offsets = [(0.0, 0.9, 1.2), (-0.8, 0.7, 1.0), (0.8, 0.7, 1.0),
               (-0.5, 1.1, 0.7), (0.5, 1.1, 0.7)]
    return np.stack([_look_at(center + np.array(o), center) for o in offsets])


def project(P, points):
    """Pixels (V, ..., 2) of world points (..., 3) in every view."""
    hom = np.concatenate([points, np.ones(points.shape[:-1] + (1,))], axis=-1)
    ph = np.einsum("vij,...j->v...i", P, hom)
    return ph[..., :2] / ph[..., 2:]


# ---------------------------------------------------------------------------
# Workload scenes


def _keyboard_world():
    return kb.build_keyboard(), hand.SkeletonPair.default()


def capture_scene(seed, out_dir, n_frames=6):
    """Multi-view keypoints of a two-hand clip with injected press errors.

    The right hand's middle finger moves through three neighbouring white
    keys, one per 4-frame group: a correct press, an omitted press (a
    shallow touch where the score holds the key), a wrong press (the key
    held down where the score is silent) and a correct press.  The idle
    fingers are raised clear of the keys.  The left hand is parked.
    Observations carry 0.3 px noise; a quarter of the keypoints get one
    outlier view about 80 px off and 15% one dropped view; two left-hand
    joints are seen by one view only in an interior frame.  The exact
    projections are kept for the step loop.
    """
    rng = np.random.default_rng(seed)
    geom, skeletons = _keyboard_world()
    whites = [k for k in range(28, 64) if not kb.is_black_key(k)]
    hands = None
    for _ in range(50):
        first = int(rng.integers(0, len(whites) - 2))
        cand = [Hands(geom, skeletons, k, raise_idle=True) for k in whites[first:first + 3]]
        if all(h.pose((2,)) is not None and h.pose((2,), SHALLOW_DEPTH) is not None
               for h in cand):
            hands = cand
            break
    if hands is None:
        raise RuntimeError("no solvable capture hand position for seed %d" % seed)
    left = parked_left(hands[0].hover[0] - 0.25)

    vecs = np.empty((n_frames, 2, 51))
    score = np.zeros((n_frames, 88), dtype=np.uint8)
    for f in range(n_frames):
        group, phase = divmod(f, 4)
        h = hands[group % 3]
        vecs[f, 0] = left
        vecs[f, 1] = h.pose((2,), SHALLOW_DEPTH) if phase == 1 else h.pose((2,))
        if phase != 2:
            score[f, h.finger_keys[2] - 1] = 1

    joints = np.stack([fk(skeletons.left.bone_offsets, vecs[:, 0]),
                       fk(skeletons.right.bone_offsets, vecs[:, 1])], axis=1)
    P = five_camera_rig(joints.reshape(-1, 3).mean(axis=0))
    uv = np.moveaxis(project(P, joints), 0, 1)               # (F, V, 2, 21, 2)
    exact_uv = uv.copy()
    shape = uv.shape[:4]
    uv = uv + rng.normal(0.0, 0.3, uv.shape)
    # At most one outlier or one dropped view per keypoint, so at least four
    # of its five views stay consistent.  Exactly a quarter of the keypoints
    # get an outlier (5% of observations) and 15% a dropped view (3%), so
    # every seed has the same mix of RANSAC cases.
    n_views = shape[1]
    n_points = n_frames * 2 * 21
    kind = np.zeros(n_points, dtype=np.int8)
    order = rng.permutation(n_points)
    kind[order[:n_points // 4]] = 1
    kind[order[n_points // 4:n_points // 4 + (3 * n_points) // 20]] = 2
    kind = kind.reshape(n_frames, 1, 2, 21)
    one_view = np.arange(n_views)[None, :, None, None] == rng.integers(
        0, n_views, (n_frames, 1, 2, 21))
    outlier = one_view & (kind == 1)
    dropped = one_view & (kind == 2)
    angle = rng.uniform(0.0, 2.0 * np.pi, shape)
    radius = rng.uniform(70.0, 90.0, shape)
    uv[..., 0] += np.where(outlier, radius * np.cos(angle), 0.0)
    uv[..., 1] += np.where(outlier, radius * np.sin(angle), 0.0)
    conf = np.where(outlier, rng.uniform(0.5, 0.9, shape), rng.uniform(0.8, 1.0, shape))
    valid = ~dropped
    # Two static left-hand joints seen by one view only in an interior frame:
    # they cannot be triangulated there, so gap interpolation fills them.
    for joint in rng.choice(np.arange(1, 21), size=2, replace=False):
        frame = int(rng.integers(1, n_frames - 1))
        valid[frame, 1:, 0, joint] = False
    inside = ((uv[..., 0] >= 0) & (uv[..., 0] <= IMAGE_SIZE[0])
              & (uv[..., 1] >= 0) & (uv[..., 1] <= IMAGE_SIZE[1]))
    valid &= inside
    uv = np.where(valid[..., None], uv, 0.0)

    paths = {name: os.path.join(out_dir, name)
             for name in ("cameras.json", "keypoints.json", "score.json")}
    _write(paths["cameras.json"], json.dumps({
        "image_size": list(IMAGE_SIZE),
        "cameras": [{"P": p.tolist()} for p in P]}))
    _write(paths["keypoints.json"], json.dumps({
        "image_size": list(IMAGE_SIZE), "uv": uv.tolist(), "conf": conf.tolist(),
        "valid": valid.astype(int).tolist()}))
    _write(paths["score.json"], matrix_json(score))
    return {"seed": seed, "paths": paths, "joints": joints, "score": score,
            "n_frames": n_frames,
            "n_onsets": int(np.sum(np.diff(score, axis=0, prepend=0) == 1)),
            "n_injected": sum(1 for f in range(n_frames) if f % 4 in (1, 2)),
            "projections": P, "exact_uv": exact_uv}


CHORD_SIZES = (1, 2, 3, 2)    # keys per onset, cycled: every clip has the same key count


def _chord_vocabulary(rng, hands, per_size=2):
    """Up to per_size solvable chords of each size 1-3 at one hand position."""
    usable = [f for f in range(5) if hands.finger_keys[f] is not None]
    if len({hands.finger_keys[f] for f in usable}) != len(usable):
        return None
    vocab = {}
    for size in sorted(set(CHORD_SIZES)):
        found = []
        for _ in range(8 * per_size):
            fingers = tuple(sorted(rng.choice(usable, size=size, replace=False).tolist()))
            if fingers not in found and hands.pose(fingers) is not None:
                found.append(fingers)
                if len(found) == per_size:
                    break
        if not found:
            return None
        vocab[size] = found
    return vocab


def signals_scene(seed, out_dir, n_frames=480, onsets_per_s=6.0):
    """A long right-hand performance plus the score it plays.

    Six onsets per second over two hand positions, chords of 1-3 keys in a
    fixed size cycle (so every seed has the same number of key onsets),
    each press held for 3-7 frames with the hand hovering between presses;
    the left hand is parked.  The clip presses exactly the score.
    """
    rng = np.random.default_rng(seed)
    geom, skeletons = _keyboard_world()
    whites = [k for k in range(25, 64) if not kb.is_black_key(k)]
    positions = []
    for _ in range(60):
        hands = Hands(geom, skeletons, int(rng.choice(whites)))
        vocab = _chord_vocabulary(rng, hands)
        if vocab is not None:
            positions.append((hands, vocab))
            if len(positions) == 2:
                break
    if len(positions) < 2:
        raise RuntimeError("no solvable signals hand positions for seed %d" % seed)
    left = parked_left(0.15)

    vecs = np.empty((n_frames, 2, 51))
    vecs[:, 0] = left
    score = np.zeros((n_frames, 88), dtype=np.uint8)
    period = int(round(FPS / onsets_per_s))
    hands, vocab = positions[0]
    vecs[:, 1] = hands.hover
    f = 1
    n_onsets = 0
    while f + period <= n_frames:
        if rng.random() < 0.15:
            hands, vocab = positions[int(rng.integers(0, 2))]
        options = vocab[CHORD_SIZES[n_onsets % len(CHORD_SIZES)]]
        fingers = options[int(rng.integers(0, len(options)))]
        hold = int(rng.integers(3, period - 2))
        vecs[f - 1:f + period, 1] = hands.hover
        vecs[f:f + hold, 1] = hands.pose(fingers)
        for finger in fingers:
            score[f:f + hold, hands.finger_keys[finger] - 1] = 1
        n_onsets += 1
        f += period
    paths = {"score.mid": os.path.join(out_dir, "score.mid"),
             "clip.json": os.path.join(out_dir, "clip.json")}
    _write(paths["score.mid"], midi_bytes(score))
    _write(paths["clip.json"], clip_json(vecs))
    return {"seed": seed, "paths": paths, "score": score, "n_frames": n_frames,
            "n_onsets": n_onsets}


def _random_roll(rng, n_frames, lo_key, hi_key, onsets_per_s=6.0):
    """Random melody-plus-chords key matrix that is never silent."""
    data = np.zeros((n_frames, 88), dtype=np.uint8)
    f = 0
    while f < n_frames:
        gap = int(rng.integers(4, int(2 * FPS / onsets_per_s) - 3))
        hold = int(rng.integers(gap + 1, gap + 12))
        for key in rng.choice(np.arange(lo_key, hi_key), size=int(rng.integers(1, 4)),
                              replace=False):
            data[f:f + hold, key - 1] = 1
        f += gap
    data[-1, lo_key - 1] = 1                # pin the clip length to n_frames
    return data


def retrieve_scene(seed, out_dir, n_clips=40, clip_frames=1500, query_frames=110):
    """A MIDI corpus and two queries planted from it.

    Query 0 copies a span of one clip.  Query 1 copies a span that the
    generator also pasted into an earlier clip, so its exact matches tie and
    the lowest-index window must win.  Each query then gets 1% bit noise
    over its first third.
    """
    rng = np.random.default_rng(seed)
    rolls = [_random_roll(rng, clip_frames, 28, 68) for _ in range(n_clips)]
    src, dup = sorted(rng.choice(np.arange(n_clips // 2, n_clips), size=2, replace=False))
    earlier = int(rng.integers(0, n_clips // 2))
    dup_len = 2 * query_frames
    s_dup = int(rng.integers(50, clip_frames - dup_len - 50))
    t_dup = int(rng.integers(50, clip_frames - dup_len - 50))
    rolls[earlier][t_dup:t_dup + dup_len] = rolls[dup][s_dup:s_dup + dup_len]

    queries = []
    s0 = int(rng.integers(0, clip_frames - query_frames))
    off = int(rng.integers(0, dup_len - query_frames))
    plants = [(int(src), s0), (earlier, t_dup + off)]
    for clip, start in plants:
        q = rolls[clip][start:start + query_frames].copy()
        third = query_frames // 3
        flip = rng.random((third, 88)) < 0.01
        q[:third] ^= flip.astype(np.uint8)
        queries.append(q)

    names = ["take%02d" % i for i in range(n_clips)]
    paths = {"dataset": [os.path.join(out_dir, n + ".mid") for n in names],
             "queries": [os.path.join(out_dir, "query%d.json" % i) for i in range(2)]}
    for path, roll in zip(paths["dataset"], rolls):
        _write(path, midi_bytes(roll))
    for path, q in zip(paths["queries"], queries):
        _write(path, matrix_json(q))
    return {"seed": seed, "paths": paths, "rolls": rolls, "names": names, "queries": queries,
            "plants": [(names[c], s) for c, s in plants],
            "n_frames": n_clips * clip_frames, "query_frames": query_frames}
