"""Hand model: skeleton, poses, motion clips, forward kinematics, velocities.

Each hand is a 21-joint tree.  Joint 0 is the wrist; joints 1..15 are the
rotational finger joints in the order

    thumb  mcp, pip, dip      (1, 2, 3)
    index  mcp, pip, dip      (4, 5, 6)
    middle mcp, pip, dip      (7, 8, 9)
    ring   mcp, pip, dip      (10, 11, 12)
    pinky  mcp, pip, dip      (13, 14, 15)

and joints 16..20 are the fingertips (thumb..pinky), which carry no rotation
of their own.  Bone offsets are expressed in the parent joint's rest frame.
The canonical rest frame has the palm facing down (-z), fingers along +y and
the thumb toward -x for a right hand (+x for a left hand).

A pose is a root translation, a root orientation quaternion stored (w, x, y,
z), and 15 local axis-angle rotation vectors.  The flattened parameter vector
used by the fitting and refinement optimizers is

    [root_t (3), root rotvec (3), joint rotvecs (45)]        -> 51 per hand

Anatomically a hand has 27 degrees of freedom (wrist 6, thumb mcp 3, other
mcps 2, pips and dips 1 each).  The fit steps in the 36 columns of
`reconstruction.twist_free_basis`: the root's 6 and, for each finger joint,
the 2 perpendicular to its rest child bone; refine steps in the 6 of one
finger.  So each finger twist about its bone, which no joint position
observes, keeps its start value.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

NUM_JOINTS = 21
NUM_ROT_JOINTS = 16  # wrist + 15 finger joints
NUM_FINGER_JOINTS = 15
NUM_FINGERS = 5
PARAMS_PER_HAND = 51

JOINT_NAMES = (
    "wrist",
    "thumb_mcp", "thumb_pip", "thumb_dip",
    "index_mcp", "index_pip", "index_dip",
    "middle_mcp", "middle_pip", "middle_dip",
    "ring_mcp", "ring_pip", "ring_dip",
    "pinky_mcp", "pinky_pip", "pinky_dip",
    "thumb_tip", "index_tip", "middle_tip", "ring_tip", "pinky_tip",
)

FINGER_NAMES = ("thumb", "index", "middle", "ring", "pinky")

# Parent of each joint; -1 marks the root.
PARENTS = np.array(
    [-1,
     0, 1, 2,
     0, 4, 5,
     0, 7, 8,
     0, 10, 11,
     0, 13, 14,
     3, 6, 9, 12, 15],
    dtype=np.int64,
)

TIP_JOINTS = np.arange(16, 21)

# affected[i, j] is True when rotating joint i moves joint j.
_AFFECTED = np.zeros((NUM_ROT_JOINTS, NUM_JOINTS), dtype=bool)
for _j in range(1, NUM_JOINTS):
    _a = PARENTS[_j]
    while _a >= 0:
        _AFFECTED[_a, _j] = True
        _a = PARENTS[_a]
del _j, _a


@dataclasses.dataclass(frozen=True)
class DofLayout:
    """Anatomical degree-of-freedom budget for one hand.

    The physical model treats each hand as 16 rigid links (palm plus three
    phalanges per finger).  The wrist contributes 6 DoF, the thumb mcp 3,
    the remaining mcps 2 (flexion + abduction) and every pip/dip 1.
    """

    wrist_dofs: int = 6
    thumb_mcp_dofs: int = 3
    finger_mcp_dofs: int = 2
    pip_dofs: int = 1
    dip_dofs: int = 1
    links_per_hand: int = 16

    def __post_init__(self) -> None:
        if self.dof_count != 27:
            raise ValueError(
                "hand DoF budget must total 27, got %d" % self.dof_count)

    @property
    def dof_count(self) -> int:
        return (self.wrist_dofs
                + self.thumb_mcp_dofs
                + 4 * self.finger_mcp_dofs
                + 5 * self.pip_dofs
                + 5 * self.dip_dofs)

    def dof_names(self) -> list:
        names = ["wrist_t%s" % a for a in "xyz"]
        names += ["wrist_r%s" % a for a in "xyz"]
        names += ["thumb_mcp_%s" % a for a in ("flex", "abd", "twist")]
        for f in FINGER_NAMES[1:]:
            names += ["%s_mcp_flex" % f, "%s_mcp_abd" % f]
        for f in FINGER_NAMES:
            names.append("%s_pip_flex" % f)
        for f in FINGER_NAMES:
            names.append("%s_dip_flex" % f)
        return names


# The rotation maps below work on stacked arrays (..., 4), (..., 3, 3) and
# (..., 3).  They evaluate the same closed forms, in the same order, as
# scipy's Rotation class, so their results equal scipy's bit for bit.
# Quaternions are (w, x, y, z); norms are summed in (x, y, z, w) order.

# libm's atan2: numpy's SIMD arctan2 differs from it in the last bit on some
# inputs, which would change every output derived from a rotation vector.
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _normalized(q: np.ndarray) -> np.ndarray:
    w, x, y, z = np.moveaxis(q, -1, 0)
    return q / np.sqrt(x * x + y * y + z * z + w * w)[..., None]


def _unit_quat_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = np.moveaxis(q, -1, 0)
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    m = np.stack([x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw),
                  2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw),
                  2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2], axis=-1)
    return m.reshape(q.shape[:-1] + (3, 3))


def _unit_quat_rotvec(q: np.ndarray) -> np.ndarray:
    w, x, y, z = np.moveaxis(q, -1, 0)
    # Canonical sign: w > 0, ties broken by the first nonzero of x, y, z.
    flip = (w < 0) | ((w == 0) & ((x < 0) | ((x == 0) & (
        (y < 0) | ((y == 0) & (z < 0))))))
    q = np.where(flip[..., None], -q, q)
    w, x, y, z = np.moveaxis(q, -1, 0)
    angle = 2 * np.asarray(_atan2(np.sqrt(x * x + y * y + z * z), w),
                           dtype=np.float64)
    small = angle <= 1e-3
    a2 = angle * angle
    scale = np.where(small, 2 + a2 / 12 + 7 * a2 * a2 / 2880,
                     angle / np.where(small, 1.0, np.sin(angle / 2)))
    return q[..., 1:] * scale[..., None]


def quat_to_matrix(q_wxyz: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) from (w, x, y, z) quaternions (..., 4)."""
    return _unit_quat_matrix(_normalized(np.asarray(q_wxyz, dtype=np.float64)))


def matrix_to_quat(mat: np.ndarray) -> np.ndarray:
    """(w, x, y, z) quaternions (..., 4), w >= 0, of rotation matrices."""
    m = np.asarray(mat, dtype=np.float64)
    m00, m11, m22 = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    trace = m00 + m11 + m22
    t = 1 - trace
    d0 = m[..., 2, 1] - m[..., 1, 2]
    d1 = m[..., 0, 2] - m[..., 2, 0]
    d2 = m[..., 1, 0] - m[..., 0, 1]
    s01 = m[..., 1, 0] + m[..., 0, 1]
    s02 = m[..., 2, 0] + m[..., 0, 2]
    s12 = m[..., 2, 1] + m[..., 1, 2]
    # One candidate per largest of (m00, m11, m22, trace), the first on ties.
    candidates = np.stack([np.stack([d0, t + 2 * m00, s01, s02], axis=-1),
                           np.stack([d1, s01, t + 2 * m11, s12], axis=-1),
                           np.stack([d2, s02, s12, t + 2 * m22], axis=-1),
                           np.stack([1 + trace, d0, d1, d2], axis=-1)], axis=-2)
    choice = np.argmax(np.stack([m00, m11, m22, trace], axis=-1), axis=-1)
    q = np.take_along_axis(candidates, choice[..., None, None], axis=-2)[..., 0, :]
    q = _normalized(q)
    return np.where(q[..., :1] < 0, -q, q)


def matrix_to_rotvec(mat: np.ndarray) -> np.ndarray:
    """Rotation vectors (..., 3) of rotation matrices (..., 3, 3)."""
    return _unit_quat_rotvec(matrix_to_quat(mat))


def quat_to_rotvec(q_wxyz: np.ndarray) -> np.ndarray:
    """Rotation vectors (..., 3), angle in [0, pi], of quaternions (..., 4)."""
    return _unit_quat_rotvec(_normalized(np.asarray(q_wxyz, dtype=np.float64)))


def rotvec_to_quat(v: np.ndarray) -> np.ndarray:
    """(w, x, y, z) quaternions (..., 4), w >= 0, of rotation vectors."""
    v = np.asarray(v, dtype=np.float64)
    x, y, z = np.moveaxis(v, -1, 0)
    angle = np.sqrt(x * x + y * y + z * z)
    small = angle <= 1e-3
    a2 = angle * angle
    scale = np.where(small, 0.5 - a2 / 48 + a2 * a2 / 3840,
                     np.sin(angle / 2) / np.where(small, 1.0, angle))
    q = np.concatenate([np.cos(angle / 2)[..., None], v * scale[..., None]],
                       axis=-1)
    return np.where(q[..., :1] < 0, -q, q)


# The arrays of a pose and their shapes.
_POSE_FIELDS = {"root_t": (3,), "root_q": (4,),
                "joint_rotations": (NUM_FINGER_JOINTS, 3)}


def _check_pose_arrays(obj, lead: tuple) -> None:
    """Make obj's pose arrays float64 of shape lead + the pose's, and check
    that they are finite and every root_q a unit quaternion within 1e-9."""
    for name, shape in _POSE_FIELDS.items():
        a = np.asarray(getattr(obj, name), dtype=np.float64)
        if a.shape != lead + shape:
            raise ValueError("%s must have shape %s, got %s"
                             % (name, lead + shape, a.shape))
        if not np.isfinite(a).all():
            raise ValueError("%s must be finite" % name)
        setattr(obj, name, a)
    with np.errstate(over="ignore"):          # a huge entry gives norm inf
        norm = np.sqrt(np.vecdot(obj.root_q, obj.root_q))
    off = np.abs(norm - 1.0) > 1e-9
    if off.any():
        at = tuple(np.argwhere(off)[0])
        raise ValueError("root_q%s norm %.12f is not 1 within 1e-9"
                         % ("".join("[%d]" % i for i in at), norm[at]))


@dataclasses.dataclass(eq=False)
class HandPose:
    """One hand's configuration: root transform plus finger joint rotations."""

    root_t: np.ndarray
    root_q: np.ndarray
    joint_rotations: np.ndarray

    def __post_init__(self) -> None:
        _check_pose_arrays(self, ())

    @classmethod
    def identity(cls, root_t=(0.0, 0.0, 0.0)) -> "HandPose":
        return cls(np.asarray(root_t, dtype=np.float64),
                   np.array([1.0, 0.0, 0.0, 0.0]),
                   np.zeros((NUM_FINGER_JOINTS, 3)))

    def copy(self) -> "HandPose":
        return HandPose(self.root_t.copy(), self.root_q.copy(),
                        self.joint_rotations.copy())

    def to_vector(self) -> np.ndarray:
        """Flatten to [t (3), root rotvec (3), joint rotvecs (45)]."""
        return np.concatenate([
            self.root_t,
            quat_to_rotvec(self.root_q),
            self.joint_rotations.reshape(-1),
        ])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "HandPose":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (PARAMS_PER_HAND,):
            raise ValueError("pose vector must have shape (%d,), got %s"
                             % (PARAMS_PER_HAND, vec.shape))
        return cls(vec[:3].copy(), rotvec_to_quat(vec[3:6]),
                   vec[6:].reshape(NUM_FINGER_JOINTS, 3).copy())


@dataclasses.dataclass(eq=False)
class HandSkeleton:
    """Rest-pose bone offsets and joint rotation limits for one hand."""

    handedness: str
    bone_offsets: np.ndarray          # (21, 3); row 0 is zero
    joint_limits: np.ndarray          # (15, 3, 2) radians, [:, :, 0] <= [:, :, 1]

    def __post_init__(self) -> None:
        if self.handedness not in ("left", "right"):
            raise ValueError("handedness must be 'left' or 'right'")
        self.bone_offsets = np.asarray(self.bone_offsets, dtype=np.float64)
        if self.bone_offsets.shape == (NUM_JOINTS - 1, 3):
            self.bone_offsets = np.vstack([np.zeros(3), self.bone_offsets])
        if self.bone_offsets.shape != (NUM_JOINTS, 3):
            raise ValueError("bone_offsets must have shape (21, 3) or (20, 3)")
        if np.any(self.bone_offsets[0] != 0.0):
            raise ValueError("wrist offset row must be zero")
        lengths = np.linalg.norm(self.bone_offsets[1:], axis=1)
        if np.any(lengths <= 0.0):
            raise ValueError("every bone must have positive length")
        self.joint_limits = np.asarray(self.joint_limits, dtype=np.float64)
        if self.joint_limits.shape != (NUM_FINGER_JOINTS, 3, 2):
            raise ValueError("joint_limits must have shape (15, 3, 2)")
        if np.any(self.joint_limits[:, :, 0] > self.joint_limits[:, :, 1]):
            raise ValueError("joint limit lower bounds must not exceed uppers")

    def clamp(self, pose: HandPose) -> HandPose:
        """Return a copy of pose with joint rotations clipped to the limits."""
        rot = np.clip(pose.joint_rotations,
                      self.joint_limits[:, :, 0],
                      self.joint_limits[:, :, 1])
        return HandPose(pose.root_t.copy(), pose.root_q.copy(), rot)

    def violates_limits(self, pose: HandPose, tol: float = 0.0) -> bool:
        lo = self.joint_limits[:, :, 0] - tol
        hi = self.joint_limits[:, :, 1] + tol
        r = pose.joint_rotations
        return bool(np.any(r < lo) or np.any(r > hi))

    def to_json_obj(self) -> dict:
        return {
            "handedness": self.handedness,
            "bone_offsets": [[float(v) for v in row]
                             for row in self.bone_offsets[1:]],
            "joint_limits": [[[float(b) for b in ax] for ax in jnt]
                             for jnt in self.joint_limits],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "HandSkeleton":
        if not isinstance(obj, dict):
            raise ValueError("a hand skeleton must be a JSON object")
        return cls(obj["handedness"],
                   np.array(obj["bone_offsets"], dtype=np.float64),
                   np.array(obj["joint_limits"], dtype=np.float64))


@dataclasses.dataclass(eq=False)
class SkeletonPair:
    left: HandSkeleton
    right: HandSkeleton

    def __post_init__(self) -> None:
        if self.left.handedness != "left" or self.right.handedness != "right":
            raise ValueError("SkeletonPair fields must be a left and a right hand")

    def __getitem__(self, hand: int) -> HandSkeleton:
        return (self.left, self.right)[hand]

    @property
    def bone_offsets(self) -> np.ndarray:
        """(2, 21, 3) bone offsets, left hand first."""
        return np.stack([self.left.bone_offsets, self.right.bone_offsets])

    @classmethod
    def default(cls) -> "SkeletonPair":
        path = os.path.join(os.path.dirname(__file__), "data",
                            "skeleton_default.json")
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return cls(HandSkeleton.from_json_obj(obj["left"]),
                   HandSkeleton.from_json_obj(obj["right"]))

    def to_json(self) -> str:
        obj = {"left": self.left.to_json_obj(), "right": self.right.to_json_obj()}
        return json.dumps(obj, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "SkeletonPair":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("a skeleton pair must be a JSON object")
        return cls(HandSkeleton.from_json_obj(obj["left"]),
                   HandSkeleton.from_json_obj(obj["right"]))


def forward_kinematics(skeleton, vecs: np.ndarray):
    """Joint positions and global joint rotations of pose vectors.

    vecs is (..., 51) in the pose vector layout.  skeleton is a HandSkeleton,
    a SkeletonPair when the second-to-last axis of vecs is the hand (left,
    right), or any object whose `bone_offsets` (..., 21, 3) broadcasts
    against the batch axes of vecs, such as one skeleton per pose.  Returns
    (positions (..., 21, 3), global rotations (..., 16, 3, 3)).  Every
    product is taken per pose in a fixed order, so a batch gives the same
    bits as one call per pose.
    """
    p, G, _ = _fk(skeleton, np.asarray(vecs, dtype=np.float64))
    return p, G


def _fk(skeleton, vecs: np.ndarray):
    """forward_kinematics of float64 vecs, plus the local rotations
    (..., 16, 3, 3) it composes."""
    batch = vecs.shape[:-1]
    offsets = skeleton.bone_offsets[..., None]
    locals_ = _unit_quat_matrix(rotvec_to_quat(
        vecs[..., 3:].reshape(batch + (NUM_ROT_JOINTS, 3))))
    p = np.empty(batch + (NUM_JOINTS, 3))
    G = np.empty(batch + (NUM_ROT_JOINTS, 3, 3))
    p[..., 0, :] = vecs[..., :3]
    G[..., 0, :, :] = locals_[..., 0, :, :]
    for j in range(1, NUM_JOINTS):
        par = PARENTS[j]
        p[..., j, :] = p[..., par, :] + (G[..., par, :, :]
                                         @ offsets[..., j, :, :])[..., 0]
        if j < NUM_ROT_JOINTS:
            G[..., j, :, :] = G[..., par, :, :] @ locals_[..., j, :, :]
    return p, G, locals_


# d exp([w]x)/dw_k at w = 0: the cross-product matrix [e_k]x.
_GENERATORS = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
                        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])


def fk_jacobian(skeleton, vecs: np.ndarray):
    """FK positions and their Jacobian wrt the 51-dim pose vector.

    Takes the arguments of forward_kinematics, per-pose bone offsets
    included.  Returns (positions (..., 21, 3), J (..., 21, 3, 51)).
    Columns follow the vector layout: 0..2 root translation, 3..5 root
    rotation vector, 6.. the 15 joint rotation vectors in joint order.
    """
    vecs = np.asarray(vecs, dtype=np.float64)
    batch = vecs.shape[:-1]
    p, G, R = _fk(skeleton, vecs)
    w = vecs[..., 3:].reshape(batch + (NUM_ROT_JOINTS, 3))

    # Local rotation derivatives dR[..., i, k] by the closed form
    # d exp([w]x)/dw_k = [w_k w + w x (I - R) e_k]x / |w|^2 . R.
    n2 = (w[..., None, :] @ w[..., :, None])[..., 0, 0]
    small = n2 < 1e-16
    u = (w[..., :, None] * w[..., None, :]
         + np.cross(w[..., None, :], np.swapaxes(np.eye(3) - R, -1, -2)))
    x, y, z = np.moveaxis(u, -1, 0)
    zero = np.zeros_like(x)
    cross_u = np.stack([zero, -z, y, z, zero, -x, -y, x, zero],
                       axis=-1).reshape(u.shape + (3,))
    dR = (cross_u / np.where(small, 1.0, n2)[..., None, None, None]
          @ R[..., None, :, :])
    dR = np.where(small[..., None, None, None], _GENERATORS, dR)

    J = np.zeros(batch + (NUM_JOINTS, 3, PARAMS_PER_HAND))
    J[..., [0, 1, 2], [0, 1, 2]] = 1.0
    for i in range(NUM_ROT_JOINTS):
        affected = np.nonzero(_AFFECTED[i])[0]
        Gp = np.eye(3) if i == 0 else G[..., PARENTS[i], :, :]
        # s holds the moved points in joint i's frame; rotating the local
        # rotvec moves them by Gp . dR . s.
        s = (p[..., affected, :] - p[..., i, None, :]) @ G[..., i, :, :]
        cols = (Gp[..., None, :, :] @ dR[..., i, :, :, :]
                @ np.swapaxes(s, -1, -2)[..., None, :, :])
        J[..., affected, :, 3 + 3 * i:6 + 3 * i] = np.swapaxes(cols, -1, -3)
    return p, J


@dataclasses.dataclass(eq=False)
class MotionClip:
    """A fixed-rate sequence of two-hand poses, held as three arrays.

    Axis 0 is the frame and axis 1 the hand, left (0) then right (1):

        root_t           (F, 2, 3)       root translation, meters
        root_q           (F, 2, 4)       unit root quaternion (w, x, y, z)
        joint_rotations  (F, 2, 15, 3)   finger joint rotation vectors

    Construction validates the arrays once, by the rules HandPose applies
    to one pose, and keeps float64 arrays without copying them.
    """

    fps: float
    root_t: np.ndarray
    root_q: np.ndarray
    joint_rotations: np.ndarray

    def __post_init__(self) -> None:
        if not (0.0 < self.fps < math.inf):
            raise ValueError("fps must be positive and finite")
        _check_pose_arrays(self, np.shape(self.root_t)[:1] + (2,))

    @property
    def n_frames(self) -> int:
        return self.root_t.shape[0]

    def __getitem__(self, frames) -> "MotionClip":
        """The clip of `frames`, a slice or an index array, in new arrays."""
        return MotionClip(self.fps, self.root_t[frames].copy(),
                          self.root_q[frames].copy(),
                          self.joint_rotations[frames].copy())

    def copy(self) -> "MotionClip":
        return self[:]

    def pose(self, frame: int, hand: int) -> HandPose:
        """One hand's pose over views of the clip's arrays."""
        return HandPose(self.root_t[frame, hand], self.root_q[frame, hand],
                        self.joint_rotations[frame, hand])

    def to_json(self) -> str:
        t, q, r = (a.tolist() for a in
                   (self.root_t, self.root_q, self.joint_rotations))
        obj = {
            "fps": self.fps,
            "hands": ["left", "right"],
            "frames": [[{"joint_rotations": rf[h], "root_q": qf[h],
                         "root_t": tf[h]} for h in (0, 1)]
                       for tf, qf, rf in zip(t, q, r)],
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "MotionClip":
        # Integers parse as floats, so one too large for a float reads inf.
        obj = json.loads(text, parse_int=float)
        if not isinstance(obj, dict) or not {"fps", "frames"} <= obj.keys():
            raise ValueError("a motion clip must be a JSON object with fps "
                             "and frames")
        if obj.get("hands", ["left", "right"]) != ["left", "right"]:
            raise ValueError("clip hand order must be [left, right]")
        fps, frames = obj["fps"], obj["frames"]
        if type(fps) is not float:
            raise ValueError("fps must be a number")
        if not isinstance(frames, list) or not all(
                isinstance(pair, list) and len(pair) == 2 and all(
                    isinstance(pose, dict) and pose.keys() >= _POSE_FIELDS.keys()
                    for pose in pair) for pair in frames):
            raise ValueError("frames must be a list of [left, right] pose pairs, "
                             "each pose an object of %s" % ", ".join(_POSE_FIELDS))
        return cls(fps, *(json_array([[l[name], r[name]] for l, r in frames],
                                       name, (len(frames), 2) + shape)
                          for name, shape in _POSE_FIELDS.items()))


def json_array(value, name: str, shape: tuple, kinds=(float,),
               dtype=np.float64) -> np.ndarray:
    """Parsed JSON values as a `dtype` array of `shape` (None matches any
    length), refusing any value whose type is not in `kinds`: strings, and
    bools unless listed."""
    values = np.array(value, dtype=object)
    if values.size == 0 and 0 in shape:
        values = values.reshape(shape)            # [] has shape (0,)
    if (values.ndim != len(shape)
            or any(n not in (None, m) for n, m in zip(shape, values.shape))
            or set(map(type, values.ravel().tolist())) - set(kinds)):
        raise ValueError("%s must be numbers in shape %s"
                         % (name, str(shape).replace("None", "n")))
    return values.astype(dtype)


def clip_vectors(clip: MotionClip, frames=slice(None)) -> np.ndarray:
    """Pose vectors of `frames` (a slice or an index array; every frame by
    default) and both hands, shape (n, 2, 51)."""
    return np.concatenate([
        clip.root_t[frames],
        quat_to_rotvec(clip.root_q[frames]),
        clip.joint_rotations[frames].reshape(-1, 2, 3 * NUM_FINGER_JOINTS),
    ], axis=-1)


def clip_positions(clip: MotionClip, skeletons: SkeletonPair) -> np.ndarray:
    """FK joint positions for every frame and hand, shape (F, 2, 21, 3)."""
    return forward_kinematics(skeletons, clip_vectors(clip))[0]


def clip_fingertips(clip: MotionClip, skeletons: SkeletonPair) -> np.ndarray:
    """Fingertip tracks, shape (F, 10, 3): left thumb..pinky, then right."""
    pos = clip_positions(clip, skeletons)
    return pos[:, :, TIP_JOINTS, :].reshape(clip.n_frames, 10, 3)


def _finite_diff(x: np.ndarray, fps: float) -> np.ndarray:
    """Per-frame time derivative along axis 0.

    Central differences in the interior, one-sided at the two ends so the
    output has the same length as the input.  A constant-velocity input
    reproduces that velocity exactly at every frame.
    """
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 frames to differentiate")
    v = np.empty_like(x)
    v[0] = (x[1] - x[0]) * fps
    v[-1] = (x[-1] - x[-2]) * fps
    if n > 2:
        v[1:-1] = (x[2:] - x[:-2]) * (fps / 2.0)
    return v


@dataclasses.dataclass(eq=False)
class ClipVelocities:
    """Finite-difference velocities of a clip, all in meters per second."""

    wrist: np.ndarray              # (F, 2, 3) world wrist velocity
    fingertips_world: np.ndarray   # (F, 2, 5, 3)
    fingertips_local: np.ndarray   # (F, 2, 5, 3), wrist-frame tip coordinates


def finite_diff_velocities(clip: MotionClip,
                           skeletons: SkeletonPair) -> ClipVelocities:
    """Wrist and fingertip velocities for every frame of a clip.

    The local variant expresses fingertip positions in the wrist frame
    before differencing, so pure rigid translation of a hand produces zero
    local fingertip velocity.
    """
    pos = clip_positions(clip, skeletons)
    wrist_p = pos[:, :, 0, :]
    tips_w = pos[:, :, TIP_JOINTS, :]
    tips_l = ((tips_w - wrist_p[:, :, None, :])
              @ quat_to_matrix(clip.root_q))
    return ClipVelocities(
        wrist=_finite_diff(wrist_p, clip.fps),
        fingertips_world=_finite_diff(tips_w, clip.fps),
        fingertips_local=_finite_diff(tips_l, clip.fps),
    )

