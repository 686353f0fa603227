"""Shared builders for synthetic test scenes.

Poses that press specific keys are solved with a small damped Gauss-Newton
loop over the hand's rotational parameters (root translation stays where
the caller puts it), so fixtures state WHICH keys are pressed and let the
solver find a pose that does it.  Builders verify the resulting presses
before handing the fixture to a test.
"""

import numpy as np

import _scalar_kinematics
from pianomotion import hand, keyboard as kb, midi, reconstruction

HOVER_HEIGHT = 0.012      # resting fingertip height; keeps press excursions
                          # inside the finger workspace with the wrist fixed
PRESS_DEPTH = 0.006       # default press depth, past the 4 mm activation
FPS = 60.0

# Fingertip indices 0..9: left thumb..pinky, right thumb..pinky.
RIGHT_TIPS = dict(thumb=5, index=6, middle=7, ring=8, pinky=9)
LEFT_TIPS = dict(thumb=0, index=1, middle=2, ring=3, pinky=4)

# Slightly curled rest posture.  A flat hand is a workspace boundary (tips
# can only retreat toward the wrist), which strands the press solver; a mild
# curl lets every tip move in all directions.  Rows are thumb, index,
# middle, ring, pinky chains; negative x rotvec components curl downward.
_REST_CURL = np.zeros((15, 3))
_REST_CURL[0] = (-0.10, 0.0, 0.0)
_REST_CURL[1] = (-0.15, 0.0, 0.0)
_REST_CURL[2] = (-0.10, 0.0, 0.0)
for _base in (3, 6, 9, 12):
    _REST_CURL[_base] = (-0.20, 0.0, 0.0)
    _REST_CURL[_base + 1] = (-0.30, 0.0, 0.0)
    _REST_CURL[_base + 2] = (-0.12, 0.0, 0.0)


def yaw_quat(yaw):
    """wxyz quaternion for a rotation about +z."""
    return np.array([np.cos(yaw / 2.0), 0.0, 0.0, np.sin(yaw / 2.0)])


def pose_vector(root_t=(0.0, 0.0, 0.0), root_q=(1.0, 0.0, 0.0, 0.0),
                joint_rotations=np.zeros((15, 3))):
    """One hand's pose vector (51,) from its root translation, root
    quaternion (w, x, y, z) and joint rotation vectors (15, 3); the rest
    pose at the origin by default."""
    return np.concatenate([root_t, hand.quat_to_rotvec(root_q),
                           np.ravel(joint_rotations)])


def fingertips(offsets, vec):
    """Fingertip positions (5, 3) of one pose vector, thumb first."""
    return hand.forward_kinematics(offsets, *hand.vector_pose(vec))[0][
        hand.TIP_JOINTS]


def finger_chains(offsets, planes, vecs, f):
    """The bases, bone offsets, planes and rotation vectors of finger f's
    chains in poses vecs (..., 51), from the poses' FK, as
    `hand.chain_jacobian` takes them."""
    p, G = hand.forward_kinematics(offsets, *hand.vector_pose(vecs))
    chain = 3 * f + np.arange(3)
    w = vecs[..., 6:].reshape(vecs.shape[:-1] + (15, 3))[..., chain, :]
    return (p[..., hand.LEVELS[0, f], :], G[..., 0, :, :],
            offsets[..., hand.LEVELS[1:, f], :], planes[..., chain, :, :], w)


def fit_jacobian(offsets, planes, vecs):
    """FK positions (..., 21, 3) and the (..., 21, 3, 36) twist-free
    Jacobian that the fit's normal equations hold: the root's closed-form
    columns and each finger's `hand.chain_jacobian` rows, zero elsewhere."""
    vecs = np.asarray(vecs, dtype=np.float64)
    p, _ = hand.forward_kinematics(offsets, *hand.vector_pose(vecs))
    J = np.zeros(p.shape + (hand.TWIST_FREE_DIMS,))
    J[..., :6] = reconstruction._root_jacobian(vecs, p)
    for f in range(hand.NUM_FINGERS):
        _, J[..., hand.LEVELS[1:, f], :, 6 + 6 * f:12 + 6 * f] = (
            hand.chain_jacobian(*finger_chains(offsets, planes, vecs, f)))
    return p, J


def hover_pose(geom, hand_idx, center_key, hover=HOVER_HEIGHT):
    """The pose vector of a hand hovering palm-down over a key, fingers
    toward the fallboard.

    The middle fingertip sits above center_key's press target.
    """
    target = kb.key_target_position(geom, center_key)
    vec = pose_vector(np.zeros(3), yaw_quat(np.pi), _REST_CURL)
    offsets = hand.SkeletonPair.default()[hand_idx].bone_offsets
    middle = fingertips(offsets, vec)[2]
    vec[:3] = (target[0] - middle[0], target[1] - middle[1],
               hover - middle[2])
    return vec


def solve_tip_targets(offsets, x0, targets, mask, iters=300, prior=1e-8):
    """Move masked fingertips to 3D targets by adjusting rotations only.

    Levenberg-Marquardt with a weak prior to the starting pose vector; the
    root translation is left untouched.
    """
    vec = x0.copy()
    free = np.arange(3, 51)
    idx = np.nonzero(mask)[0]

    def cost(v):
        tips = fingertips(offsets, v)
        r = (tips[idx] - targets[idx]).reshape(-1)
        return float(r @ r) + prior * float(np.sum((v[free] - x0[free]) ** 2))

    lam = 1e-3
    c = cost(vec)
    for _ in range(iters):
        p, J = _scalar_kinematics.fk_jacobian(offsets, vec)
        tips, J = p[hand.TIP_JOINTS], J[hand.TIP_JOINTS]
        r = (tips[idx] - targets[idx]).reshape(-1)
        A = J[idx][:, :, free].reshape(len(idx) * 3, len(free))
        g = A.T @ r + prior * (vec[free] - x0[free])
        base = A.T @ A + prior * np.eye(len(free))
        improved = False
        for _ in range(12):
            step = np.linalg.solve(base + lam * np.eye(len(free)), g)
            trial = vec.copy()
            trial[free] -= step
            ct = cost(trial)
            if ct < c:
                vec, c = trial, ct
                lam = max(lam * 0.3, 1e-9)
                improved = True
                break
            lam *= 5.0
        if not improved or c < 1e-14:
            break
    return np.concatenate([x0[:3], vec[3:]])


_POSE_CACHE = {}


def pressing_pose(geom, skeletons, presses, hand_idx=1, center_key=None,
                  lift=None, depth=PRESS_DEPTH, hover=HOVER_HEIGHT):
    """The pose vector of one hand pressing the given keys with the given
    fingers.

    presses maps fingertip index (0..9) to a key number; fingers not in
    `presses` or `lift` hold their hover positions.  lift maps fingertip
    index to an absolute height (negative for shallow non-activating
    touches).  Solved poses are memoized; callers get fresh copies.
    """
    if center_key is None:
        center_key = sorted(presses.values())[len(presses) // 2]
    cache_key = (
        geom.config.to_json(),
        skeletons.left.bone_offsets.tobytes(),
        skeletons.right.bone_offsets.tobytes(),
        tuple(sorted(presses.items())),
        hand_idx,
        center_key,
        tuple(sorted(lift.items())) if lift else (),
        tuple(sorted(depth.items())) if isinstance(depth, dict) else float(depth),
        float(hover),
    )
    if cache_key in _POSE_CACHE:
        return _POSE_CACHE[cache_key].copy()
    pose = hover_pose(geom, hand_idx, center_key, hover)
    offsets = skeletons[hand_idx].bone_offsets
    tips0 = fingertips(offsets, pose)
    targets = tips0.copy()
    strict = np.zeros(5, dtype=bool)
    for tip, key in presses.items():
        local_tip = tip - 5 * hand_idx
        if not 0 <= local_tip < 5:
            raise ValueError("fingertip %d is not on hand %d" % (tip, hand_idx))
        d = depth[tip] if isinstance(depth, dict) else depth
        # Press at the key's target x but the finger's own length coordinate
        # (clamped into the key footprint): dragging every tip to the nominal
        # target line would over-stretch the hand on chords.
        nominal = geom.to_local(kb.key_target_position(geom, key))
        tip_y = geom.to_local(tips0[local_tip])[1]
        y0, y1 = geom.boxes[key - 1, 2], geom.boxes[key - 1, 3]
        y = min(max(tip_y, y0 + 0.004), y1 - 0.004)
        point = geom.to_world(np.array([nominal[0], y, nominal[2]]))
        if kb.key_for_point(geom, point) != key:
            raise RuntimeError("press point for key %d lands off-key" % key)
        point[2] -= d
        targets[local_tip] = point
        strict[local_tip] = True
    if lift:
        for tip, height in lift.items():
            local_tip = tip - 5 * hand_idx
            targets[local_tip, 2] = height
            strict[local_tip] = True
    # Unlisted fingers hold their hover positions so the solver cannot sink
    # them into neighbouring keys while it articulates the pressing ones.
    mask = np.ones(5, dtype=bool)
    solved = solve_tip_targets(offsets, pose, targets, mask)
    tips = fingertips(offsets, solved)
    # The fixture's contract is semantic: exactly the requested keys are
    # activated, press depths land within a millimeter of the request, and
    # every other finger stays clear of the key surfaces.
    err = np.linalg.norm(tips - targets, axis=1)
    if err[strict].size and err[strict].max() > 2e-3:
        bad = [i + 5 * hand_idx for i in np.nonzero(strict & (err > 2e-3))[0]]
        raise RuntimeError("press solver missed tips %s by %.2g m"
                           % (bad, err[strict].max()))
    dz = np.abs(tips[strict, 2] - targets[strict, 2])
    if dz.size and dz.max() > 1e-3:
        raise RuntimeError("press depth off by %.2g m" % dz.max())
    achieved = kb.extract_pressed(geom, tips, kb.DEFAULT_ACTIVATION_DEPTH)
    wanted = set(presses.values())
    if achieved != wanted:
        raise RuntimeError("pose presses %s, wanted %s"
                           % (sorted(achieved), sorted(wanted)))
    held = ~strict
    if held.any() and tips[held, 2].min() < 0.002:
        raise RuntimeError("press solver sank a held finger to z=%.4f"
                           % tips[held, 2].min())
    _POSE_CACHE[cache_key] = solved
    return solved.copy()


def parked_pose(hand_idx, x=0.0, y=0.35, z=HOVER_HEIGHT + 0.05):
    """The pose vector of a hand resting away from the keys (toward the
    player, raised)."""
    return pose_vector((x, y, z), yaw_quat(np.pi))


def two_hand_frame(geom, skeletons, right_presses=None, left_presses=None,
                   right_center=None, left_center=None, depth=PRESS_DEPTH):
    """(left, right) pose vectors with the right hand over the keys and
    the left hand parked.

    Only the hands with presses are solved; a press-less hand hovers (right)
    or parks off-key (left).
    """
    if left_presses:
        left = pressing_pose(geom, skeletons, left_presses, hand_idx=0,
                             center_key=left_center, depth=depth)
    else:
        left = parked_pose(0, x=-0.15)
    if right_presses:
        right = pressing_pose(geom, skeletons, right_presses, hand_idx=1,
                              center_key=right_center, depth=depth)
    else:
        right = hover_pose(geom, 1, right_center or 44)
    return left, right


def pose_clip(fps, vecs):
    """MotionClip of pose vectors (F, 2, 51), such as a list of (left,
    right) vector pairs."""
    return hand.clip_from_vectors(fps, vecs)


def matrix_from_frames(frame_keys, fps=FPS):
    """KeyMatrix from a per-frame list of pressed-key collections."""
    data = np.zeros((len(frame_keys), midi.NUM_KEYS), dtype=np.uint8)
    for f, keys in enumerate(frame_keys):
        for k in keys:
            data[f, k - 1] = 1
    return midi.KeyMatrix(fps, data)


def note_list(notes, source=""):
    """NoteList of (onset, offset, pitch) triples in any order, sorted by
    onset, then pitch, then the given order."""
    notes = sorted(notes, key=lambda n: (n[0], n[2]))
    onset, offset, pitch = np.array(notes, dtype=np.float64).reshape(-1, 3).T
    return midi.NoteList(onset, offset, pitch.astype(np.int64), source)


def notes_on_frames(spans, fps=FPS):
    """NoteList with one note per (key, start_frame, end_frame) span.

    Onsets and offsets sit exactly on frame boundaries, so quantizing at
    the same fps activates frames [start, end).
    """
    return note_list([(s / fps, e / fps, key) for key, s, e in spans],
                     "synthetic")


def _varlen_bytes(value: int) -> bytes:
    """The SMF variable-length quantity of a non-negative integer."""
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))


def serialize_midi(notes, ppq=480, tempo_uspq=500000):
    """A NoteList as a single-track SMF (format 0).

    Inverse of `midi.parse_midi` up to tick rounding: round-trips preserve
    onset/offset within one tick.
    """
    ticks_per_second = ppq * 1e6 / tempo_uspq
    events = []  # (tick, order, midi_pitch, velocity); note-offs sort first at a tick
    for onset, offset, pitch in zip(notes.onset.tolist(), notes.offset.tolist(),
                                    notes.pitch.tolist()):
        midi_pitch = pitch + midi.MIN_MIDI_PITCH - 1
        on_tick = round(onset * ticks_per_second)
        off_tick = max(on_tick + 1, round(offset * ticks_per_second))
        events.append((on_tick, 1, midi_pitch, 64))
        events.append((off_tick, 0, midi_pitch, 0))
    events.sort()

    body = bytearray()
    body += b"\x00\xff\x51\x03" + tempo_uspq.to_bytes(3, "big")
    tick = 0
    for event_tick, order, midi_pitch, velocity in events:
        body += _varlen_bytes(event_tick - tick)
        tick = event_tick
        status = 0x90 if order == 1 else 0x80
        body += bytes([status, midi_pitch, velocity])
    body += b"\x00\xff\x2f\x00"
    return smf([bytes(body)], fmt=0, division=ppq)


def smf(track_bodies, fmt=1, division=480):
    """Standard MIDI file bytes holding the given MTrk bodies."""
    out = bytearray(b"MThd" + (6).to_bytes(4, "big"))
    out += fmt.to_bytes(2, "big") + len(track_bodies).to_bytes(2, "big")
    out += division.to_bytes(2, "big")
    for body in track_bodies:
        out += b"MTrk" + len(body).to_bytes(4, "big") + body
    return bytes(out)


def random_track(rng, n_events=40):
    """An MTrk body exercising every event kind the SMF parser reads.

    It mixes explicit and running status, every channel message length,
    note-ons of velocity 0, same-pitch overlaps, pitches outside the
    piano, notes left open, tempo changes, sysex and text events,
    multi-byte delta times, and sometimes events after an early
    end-of-track.
    """
    body = bytearray()
    running = None
    for _ in range(int(rng.integers(0, n_events + 1))):
        delta = int(rng.choice([0, 0, 1, 7, 127, 128, 300, 20000, 2 ** 21 + 3]))
        body += _varlen_bytes(delta)
        kind = int(rng.integers(0, 12))
        if kind < 8:
            status = int(rng.choice([0x90, 0x90, 0x90, 0x80, 0x80, 0xA0, 0xB0,
                                     0xC0, 0xD0, 0xE0])) | int(rng.integers(0, 2))
            if status != running or rng.random() < 0.3:
                body.append(status)
            running = status
            pitch = int(rng.integers(56, 62)) if rng.random() < 0.9 else int(
                rng.choice([0, 20, 109, 127]))
            body.append(pitch)
            if status & 0xE0 != 0xC0:
                body.append(int(rng.choice([0, 1, 64, 127])))
        elif kind == 8:
            body += b"\xff\x51\x03" + int(rng.integers(100000, 1000000)).to_bytes(3, "big")
        elif kind == 9:
            body += b"\xff\x01" + _varlen_bytes(3) + b"abc"
        else:
            running = None
            body += bytes([0xF0 if kind == 10 else 0xF7]) + _varlen_bytes(2) + b"\x01\xf7"
    body += b"\x00\xff\x2f\x00"
    if rng.random() < 0.2:
        body += b"\x00\x90\x3c\x40"
    return bytes(body)


def random_smf(rng, tempos=()):
    """A format-1 file of one to three `random_track`s, after a conductor
    track of set-tempo events when `tempos` lists (delta ticks,
    microseconds per quarter) pairs."""
    tracks = [random_track(rng) for _ in range(int(rng.integers(1, 4)))]
    if tempos:
        tracks.insert(0, b"".join(_varlen_bytes(delta) + b"\xff\x51\x03"
                                  + uspq.to_bytes(3, "big")
                                  for delta, uspq in tempos) + b"\x00\xff\x2f\x00")
    return smf(tracks, division=int(rng.choice([96, 480, 960])))


def look_at_camera(eye, center, up=(0.0, 0.0, 1.0), f=3200.0,
                   image_size=(3840, 2160)):
    """3x4 projection for a pinhole camera at eye looking at center."""
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(center, dtype=np.float64) - eye
    forward /= np.linalg.norm(forward)
    right = np.cross(forward, np.asarray(up, dtype=np.float64))
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    R = np.stack([right, down, forward])
    t = -R @ eye
    K = np.array([[f, 0.0, image_size[0] / 2.0],
                  [0.0, f, image_size[1] / 2.0],
                  [0.0, 0.0, 1.0]])
    return K @ np.hstack([R, t[:, None]])


def five_camera_rig(center=(0.25, 0.1, 0.0)):
    """Five cameras on an arc above the keys, all seeing the work area."""
    from pianomotion.reconstruction import CameraRig
    center = np.asarray(center, dtype=np.float64)
    eyes = [
        center + (0.0, 0.9, 1.2),
        center + (-0.8, 0.7, 1.0),
        center + (0.8, 0.7, 1.0),
        center + (-0.5, 1.1, 0.7),
        center + (0.5, 1.1, 0.7),
    ]
    P = np.stack([look_at_camera(e, center) for e in eyes])
    return CameraRig(P)


def project_clip(clip, skeletons, rig):
    """Project every joint of a clip into every view of a rig.

    Returns (uv, conf, valid, joints): pixel observations shaped
    (F, V, 2, 21, 2) with unit confidence and full validity, plus the
    world-space joints (F, 2, 21, 3) they came from.
    """
    F = clip.n_frames
    uv = np.zeros((F, rig.n_views, 2, 21, 2))
    joints = hand.clip_positions(clip, skeletons)
    for f in range(F):
        for h in range(2):
            for v in range(rig.n_views):
                for j in range(21):
                    uv[f, v, h, j] = rig.project(v, joints[f, h, j])
    conf = np.ones((F, rig.n_views, 2, 21))
    valid = np.ones((F, rig.n_views, 2, 21), dtype=bool)
    return uv, conf, valid, joints
