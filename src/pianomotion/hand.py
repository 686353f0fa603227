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
z), and 15 local axis-angle rotation vectors.  FK takes the root translation
and each link's local rotation as a unit quaternion, so a clip's root_q goes
in as it is.  The flattened parameter vector of the skeleton fit is

    [root_t (3), root rotvec (3), joint rotvecs (45)]        -> 51 per hand

Anatomically a hand has 27 degrees of freedom (wrist 6, thumb mcp 3, other
mcps 2, pips and dips 1 each).  The fit steps in 36 twist-free coordinates:
the root's 6 and, for each finger joint, 2 in the plane perpendicular to its
rest child bone (`twist_free_basis`).  Refine steps in the 6 of one finger.
`chain_jacobian` differentiates a finger's PIP, DIP and tip in its 6, and
`tip_jacobian` its tip alone.  So
each finger twist about its bone, which no joint position observes, keeps
its start value.
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
# The tree below the wrist by level, each level a slice of the joints: the
# MCPs hang from the wrist, the PIPs, DIPs and tips from the level above.
# Column f of LEVELS is finger f's chain.
_LEVEL_SLICES = (slice(1, 16, 3), slice(2, 16, 3), slice(3, 16, 3),
                 slice(16, 21))
LEVELS = np.array([np.arange(NUM_JOINTS)[level] for level in _LEVEL_SLICES])
# Each finger joint's child: the next joint, or the tip after a DIP.
_CHILD = LEVELS[1:].T.ravel()
TWIST_FREE_DIMS = 6 + 2 * NUM_FINGER_JOINTS


# The rotation maps below work on stacked arrays (..., 4), (..., 3, 3) and
# (..., 3).  They evaluate the same closed forms, in the same order, as
# scipy's Rotation class, so their results equal scipy's bit for bit.
# Quaternions are (w, x, y, z); norms are summed in (x, y, z, w) order.

# libm's atan2: numpy's SIMD arctan2 differs from it in the last bit on some
# inputs, which would change every output derived from a rotation vector.
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _normalized(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return q / np.sqrt(x * x + y * y + z * z + w * w)[..., None]


def _unit_quat_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    m = np.stack([x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw),
                  2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw),
                  2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2], axis=-1)
    return m.reshape(q.shape[:-1] + (3, 3))


def unit_quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """`quat_to_rotvec` of quaternions already of unit norm."""
    # Canonical sign: w > 0, ties broken by the first nonzero of x, y, z,
    # the sign of the components' signs weighted 8, 4, 2, 1.
    q = np.where((np.sign(q) @ (8.0, 4.0, 2.0, 1.0) < 0)[..., None], -q, q)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
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


# Shepperd's candidate quaternion for the largest of (m00, m11, m22,
# trace), the first on ties, as indices into matrix_to_quat's values.
_SHEPPERD = np.array([[0, 6, 5, 4], [1, 5, 7, 3], [2, 4, 3, 8], [9, 0, 1, 2]])


def matrix_to_quat(mat: np.ndarray) -> np.ndarray:
    """(w, x, y, z) quaternions (..., 4), w >= 0, of rotation matrices."""
    m = np.asarray(mat, dtype=np.float64)
    batch = m.shape[:-2]
    m = m.reshape(-1, 9)
    diag = m[:, ::4]
    trace = diag[:, 0] + diag[:, 1] + diag[:, 2]
    a, b = m[:, [7, 2, 3]], m[:, [5, 6, 1]]   # (m21, m02, m10), transposes
    # d0, d1, d2, s12, s02, s01, t + 2 m_ii (t = 1 - trace), 1 + trace.
    values = np.concatenate([a - b, a + b, (1 - trace)[:, None] + 2 * diag,
                             1 + trace[:, None]], axis=1)
    choice = np.argmax(np.concatenate([diag, trace[:, None]], axis=1), axis=1)
    q = _normalized(values[np.arange(len(m))[:, None], _SHEPPERD[choice]])
    return np.where(q[:, :1] < 0, -q, q).reshape(batch + (4,))


def matrix_to_rotvec(mat: np.ndarray) -> np.ndarray:
    """Rotation vectors (..., 3) of rotation matrices (..., 3, 3)."""
    return unit_quat_to_rotvec(matrix_to_quat(mat))


def quat_to_rotvec(q_wxyz: np.ndarray) -> np.ndarray:
    """Rotation vectors (..., 3), angle in [0, pi], of quaternions (..., 4)."""
    return unit_quat_to_rotvec(_normalized(np.asarray(q_wxyz, dtype=np.float64)))


def rotvec_to_quat(v: np.ndarray) -> np.ndarray:
    """(w, x, y, z) quaternions (..., 4), w >= 0, of rotation vectors."""
    v = np.asarray(v, dtype=np.float64)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    angle = np.sqrt(x * x + y * y + z * z)
    small = angle <= 1e-3
    a = np.where(small, angle, 0.0)   # a huge angle's a^4 would overflow
    a2 = a * a
    scale = np.where(small, 0.5 - a2 / 48 + a2 * a2 / 3840,
                     np.sin(angle / 2) / np.where(small, 1.0, angle))
    q = np.concatenate([np.cos(angle / 2)[..., None], v * scale[..., None]],
                       axis=-1)
    return np.where(q[..., :1] < 0, -q, q)


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
        self.joint_limits = np.asarray(self.joint_limits, dtype=np.float64)
        if self.joint_limits.shape != (NUM_FINGER_JOINTS, 3, 2):
            raise ValueError("joint_limits must have shape (15, 3, 2)")
        for name in ("bone_offsets", "joint_limits"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError("%s must be finite" % name)
        if np.any(self.bone_offsets[0] != 0.0):
            raise ValueError("wrist offset row must be zero")
        with np.errstate(over="ignore"):
            lengths = np.linalg.norm(self.bone_offsets[1:], axis=1)
        if np.any(lengths <= 0.0):
            raise ValueError("every bone must have positive length")
        if np.any(self.joint_limits[:, :, 0] > self.joint_limits[:, :, 1]):
            raise ValueError("joint limit lower bounds must not exceed uppers")

    def to_json_obj(self) -> dict:
        return {"handedness": self.handedness,
                "bone_offsets": self.bone_offsets[1:].tolist(),
                "joint_limits": self.joint_limits.tolist()}

    @classmethod
    def from_json_obj(cls, obj) -> "HandSkeleton":
        """The skeleton of a parsed JSON object holding exactly its fields,
        numbers parsed as floats."""
        names = [f.name for f in dataclasses.fields(cls)]
        if not isinstance(obj, dict) or obj.keys() != set(names):
            raise ValueError("a hand skeleton must be a JSON object of "
                             "exactly %s" % ", ".join(names))
        return cls(obj["handedness"],
                   json_array(obj["bone_offsets"], "bone_offsets", (None, 3)),
                   json_array(obj["joint_limits"], "joint_limits",
                              (NUM_FINGER_JOINTS, 3, 2)))


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
            return cls.from_json(fh.read())

    def to_json(self) -> str:
        obj = {"left": self.left.to_json_obj(), "right": self.right.to_json_obj()}
        return json.dumps(obj, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "SkeletonPair":
        # Integers parse as floats, so one too large for a float reads inf.
        obj = json.loads(text, parse_int=float)
        if not isinstance(obj, dict) or obj.keys() != {"left", "right"}:
            raise ValueError("a skeleton pair must be a JSON object of "
                             "exactly left and right")
        return cls(HandSkeleton.from_json_obj(obj["left"]),
                   HandSkeleton.from_json_obj(obj["right"]))


def _walk(p, G, locals_, offsets):
    """The level walk down finger chains from given bases.

    p (..., 3) are the chains' MCP positions and G (..., 3, 3) the global
    rotations their MCPs hang from; locals_ holds the MCP, PIP and DIP
    local rotations (..., 3, 3), and offsets the PIP, DIP and tip bone
    offsets (..., 3, 1), all broadcasting against each other.  Returns the
    lists of positions [MCP, PIP, DIP, tip] and global rotations [MCP, PIP,
    DIP].  Every product per chain runs in a fixed order, so a batch gives
    the same bits as one call per chain.
    """
    ps, Gs = [p], []
    for R, offset in zip(locals_, offsets):
        G = G @ R
        p = p + (G @ offset)[..., 0]
        ps.append(p)
        Gs.append(G)
    return ps, Gs


def forward_kinematics(bone_offsets: np.ndarray, root_t: np.ndarray,
                       quats: np.ndarray):
    """Joint positions and global joint rotations of poses.

    A pose is its root translation root_t (..., 3) and the local rotations
    of its 16 links as unit (w, x, y, z) quaternions quats (..., 16, 4):
    the wrist's orientation, then the 15 finger joints'.  bone_offsets
    (..., 21, 3) broadcasts against the batch axes: one hand's offsets, a
    SkeletonPair's (2, 21, 3) when the last batch axis is the hand (left,
    right), or one set per pose.  Returns (positions (..., 21, 3), global
    rotations (..., 16, 3, 3)).  The wrist places the five MCPs, and
    `_walk` takes the fingers from there, all five at once.
    """
    root_t = np.asarray(root_t, dtype=np.float64)
    locals_ = _unit_quat_matrix(np.asarray(quats, dtype=np.float64))
    batch = locals_.shape[:-3]
    offsets = bone_offsets[..., None]
    root = locals_[..., :1, :, :]
    mcps = (root_t[..., None, :]
            + (root @ offsets[..., _LEVEL_SLICES[0], :, :])[..., 0])
    ps, Gs = _walk(mcps, root,
                   [locals_[..., j, :, :] for j in _LEVEL_SLICES[:3]],
                   [offsets[..., j, :, :] for j in _LEVEL_SLICES[1:]])
    p = np.empty(batch + (NUM_JOINTS, 3))
    G = np.empty(batch + (NUM_ROT_JOINTS, 3, 3))
    p[..., 0, :] = root_t
    G[..., 0, :, :] = root[..., 0, :, :]
    for j, pj in zip(_LEVEL_SLICES, ps):
        p[..., j, :] = pj
    for j, Gj in zip(_LEVEL_SLICES, Gs):
        G[..., j, :, :] = Gj
    return p, G


def vector_pose(vecs: np.ndarray):
    """The root translations (..., 3) and link quaternions (..., 16, 4) of
    pose vectors (..., 51), as `forward_kinematics` takes them."""
    vecs = np.asarray(vecs, dtype=np.float64)
    return vecs[..., :3], rotvec_to_quat(
        vecs[..., 3:].reshape(vecs.shape[:-1] + (NUM_ROT_JOINTS, 3)))


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.cross of (..., 3) vectors, without its axis handling."""
    u0, u1, u2, v0, v1, v2 = (a[..., k] for a in (u, v) for k in range(3))
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0],
                    axis=-1)


def _unit(v: np.ndarray) -> np.ndarray:
    """(..., 3) vectors divided by their norms, summed x, y, z."""
    return v / np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]
                       + v[..., 2] * v[..., 2])[..., None]


def twist_free_basis(bone_offsets: np.ndarray) -> np.ndarray:
    """(..., 15, 3, 2) orthonormal bases of the planes perpendicular to the
    finger joints' rest child bones u (unit), of bone offsets (..., 21, 3):
    e1 = u x e_k normalized, e_k the axis least aligned with u, e2 = u x e1.
    """
    u = _unit(bone_offsets[..., _CHILD, :])
    e1 = _unit(_cross(u, np.eye(3)[np.argmin(np.abs(u), axis=-1)]))
    return np.stack([e1, _cross(u, e1)], axis=-1)


def twist_free_step(planes: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The pose vector change (..., 51) of twist-free coordinates d
    (..., 36): the root's 6, then each finger joint's 2 along its plane of
    `planes` (..., 15, 3, 2), which broadcasts against d."""
    joints = planes @ d[..., 6:].reshape(d.shape[:-1] + (-1, 2, 1))
    batch = joints.shape[:-3]
    return np.concatenate([np.broadcast_to(d[..., :6], batch + (6,)),
                           joints.reshape(batch + (-1,))], axis=-1)


def _left_jacobian_times(w: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """J_l(w) a for rotation vectors w (..., 3) and axes a (..., k, 3): the
    rate at which exp([w]x) turns, as a rotation vector on the left, when w
    moves along a.  J_l is the left Jacobian of SO(3) (Sola et al., arXiv
    1812.01537); its coefficients take Taylor series at |w| <= 1e-3."""
    t2 = w[..., 0] * w[..., 0] + w[..., 1] * w[..., 1] + w[..., 2] * w[..., 2]
    t = np.sqrt(t2)
    small = t <= 1e-3
    s, a2 = np.where(small, 1.0, t), np.where(small, t2, 0.0)
    c1 = np.where(small, 0.5 - a2 / 24 + a2 * a2 / 720,      # (1 - cos t) / t^2
                  2 * (np.sin(t / 2) / s) ** 2)
    c2 = np.where(small, 1 / 6 - a2 / 120 + a2 * a2 / 5040,  # (t - sin t) / t^3
                  (1 - np.sin(t) / s) / (s * s))
    wa = _cross(w[..., None, :], axes)
    return (axes + c1[..., None, None] * wa
            + c2[..., None, None] * _cross(w[..., None, :], wa))


def _chain(base_p, base_G, offsets, w):
    """`_walk` down finger chains of MCP, PIP and DIP rotation vectors w
    (..., 3, 3)."""
    locals_ = _unit_quat_matrix(rotvec_to_quat(w))
    return _walk(base_p, base_G, [locals_[..., k, :, :] for k in range(3)],
                 [offsets[..., k, :, None] for k in range(3)])


def chain_tips(base_p: np.ndarray, base_G: np.ndarray, offsets: np.ndarray,
               w: np.ndarray) -> np.ndarray:
    """Tip positions (..., 3) of finger chains.

    A chain hangs from its base: its MCP position base_p (..., 3) and the
    global rotation base_G (..., 3, 3) of the wrist above it.  offsets
    (..., 3, 3) are its PIP, DIP and tip bone offsets, and w (..., 3, 3)
    its MCP, PIP and DIP rotation vectors.  With the base of a pose's FK,
    the tips are that FK's.
    """
    return _chain(base_p, base_G, offsets, w)[0][-1]


def _chain_rows(base_p, base_G, offsets, planes, w):
    """The MCP, PIP, DIP and tip positions of finger chains and the turn
    rates (..., 3, 2, 3) of their MCP, PIP and DIP twist-free coordinates:
    omega = G_parent(j) J_l(w_j) a for joint j's plane axis a."""
    ps, Gs = _chain(base_p, base_G, offsets, w)
    parents = np.stack([np.broadcast_to(base_G, Gs[0].shape), Gs[0], Gs[1]],
                       axis=-3)
    rows = (_left_jacobian_times(w, np.swapaxes(planes, -1, -2))
            @ np.swapaxes(parents, -1, -2))
    return ps, rows


def _point_jacobian(ps, rows, k):
    """Chain point k's (PIP 0, DIP 1, tip 2) Jacobian rows (..., 3, 2k + 2)
    in the columns of the joints j <= k above it: omega x (p_k - p_j), as
    the transposed view of the (..., 2k + 2, 3) crosses."""
    arms = ps[k + 1][..., None, :] - np.stack(ps[:k + 1], axis=-2)
    J = _cross(rows[..., :k + 1, :, :], arms[..., None, :])
    return np.swapaxes(J.reshape(J.shape[:-3] + (2 * k + 2, 3)), -1, -2)


def chain_jacobian(base_p: np.ndarray, base_G: np.ndarray,
                   offsets: np.ndarray, planes: np.ndarray, w: np.ndarray):
    """PIP, DIP and tip positions (..., 3, 3) of finger chains, as
    `chain_tips` takes them, and their Jacobian (..., 3, 3, 6) in the
    chains' twist-free coordinates: two per joint, MCP first, along its
    plane of planes (..., 3, 3, 2).  Moving joint j's rotation vector w_j
    along a turns the points below j at omega = G_parent(j) J_l(w_j) a, so
    point k's rows of column (j, a) are omega x (p_k - p_j) for j <= k (the
    MCP is joint 0, the PIP point 0) and zero otherwise.
    """
    ps, rows = _chain_rows(base_p, base_G, offsets, planes, w)
    points = np.stack(ps[1:], axis=-2)
    J = np.zeros(points.shape + (6,))
    for k in range(3):
        J[..., k, :, :2 * k + 2] = _point_jacobian(ps, rows, k)
    return points, J


def tip_jacobian(base_p: np.ndarray, base_G: np.ndarray,
                 offsets: np.ndarray, planes: np.ndarray, w: np.ndarray):
    """The tip positions (..., 3) and Jacobian rows (..., 3, 6) of finger
    chains: `chain_jacobian`'s last point, to the bit, without the PIP and
    DIP rows.  The rows come as the transposed view of the crosses they are
    computed as: numpy's matmul rounds refine's products of a contiguous
    copy differently, which moves refine's output bits."""
    ps, rows = _chain_rows(base_p, base_G, offsets, planes, w)
    return ps[3], _point_jacobian(ps, rows, 2)


# The arrays of a pose and their shapes.
_POSE_FIELDS = {"root_t": (3,), "root_q": (4,),
                "joint_rotations": (NUM_FINGER_JOINTS, 3)}


@dataclasses.dataclass(eq=False)
class MotionClip:
    """A fixed-rate sequence of two-hand poses, held as three arrays.

    Axis 0 is the frame and axis 1 the hand, left (0) then right (1):

        root_t           (F, 2, 3)       root translation, meters
        root_q           (F, 2, 4)       unit root quaternion (w, x, y, z)
        joint_rotations  (F, 2, 15, 3)   finger joint rotation vectors

    Construction checks the arrays' shapes, that they are finite and that
    every root_q is a unit quaternion within 1e-9, and keeps float64 arrays
    without copying them.
    """

    fps: float
    root_t: np.ndarray
    root_q: np.ndarray
    joint_rotations: np.ndarray

    def __post_init__(self) -> None:
        if not (0.0 < self.fps < math.inf):
            raise ValueError("fps must be positive and finite")
        lead = np.shape(self.root_t)[:1] + (2,)
        for name, shape in _POSE_FIELDS.items():
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if a.shape != lead + shape:
                raise ValueError("%s must have shape %s, got %s"
                                 % (name, lead + shape, a.shape))
            if not np.isfinite(a).all():
                raise ValueError("%s must be finite" % name)
            setattr(self, name, a)
        with np.errstate(over="ignore"):          # a huge entry gives norm inf
            norm = np.sqrt(np.vecdot(self.root_q, self.root_q))
        off = np.abs(norm - 1.0) > 1e-9
        if off.any():
            at = tuple(np.argwhere(off)[0])
            raise ValueError("root_q%s norm %.12f is not 1 within 1e-9"
                             % ("".join("[%d]" % i for i in at), norm[at]))

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


def clip_from_vectors(fps: float, vecs: np.ndarray) -> MotionClip:
    """The clip of pose vectors (F, 2, 51), in new arrays: the inverse of
    `clip_vectors`, with each root quaternion's sign made w >= 0."""
    vecs = np.array(vecs, dtype=np.float64)
    if vecs.shape[1:] != (2, PARAMS_PER_HAND):
        raise ValueError("pose vectors must have shape (F, 2, %d), got %s"
                         % (PARAMS_PER_HAND, vecs.shape))
    return MotionClip(fps, vecs[..., :3], rotvec_to_quat(vecs[..., 3:6]),
                      vecs[..., 6:].reshape(-1, 2, NUM_FINGER_JOINTS, 3))


def clip_kinematics(clip: MotionClip, skeletons: SkeletonPair,
                    frames=slice(None)):
    """FK of `frames` (a slice or an index array; every frame by default)
    and both hands: joint positions (n, 2, 21, 3) and global link rotations
    (n, 2, 16, 3, 3).  Each root's rotation is `quat_to_matrix` of its
    root_q, which is normalized first."""
    quats = np.concatenate([_normalized(clip.root_q[frames])[..., None, :],
                            rotvec_to_quat(clip.joint_rotations[frames])],
                           axis=-2)
    return forward_kinematics(skeletons.bone_offsets, clip.root_t[frames],
                              quats)


def clip_positions(clip: MotionClip, skeletons: SkeletonPair) -> np.ndarray:
    """FK joint positions for every frame and hand, shape (F, 2, 21, 3)."""
    return clip_kinematics(clip, skeletons)[0]


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


def finite_diff_velocities(fps: float, positions: np.ndarray,
                           rotations: np.ndarray) -> ClipVelocities:
    """Wrist and fingertip velocities for every frame of a clip at `fps`,
    from its `clip_kinematics` positions (F, 2, 21, 3) and rotations
    (F, 2, 16, 3, 3).

    The local variant expresses fingertip positions in the wrist frame
    before differencing, so pure rigid translation of a hand produces zero
    local fingertip velocity.
    """
    wrist_p = positions[:, :, 0, :]
    tips_w = positions[:, :, TIP_JOINTS, :]
    tips_l = (tips_w - wrist_p[:, :, None, :]) @ rotations[:, :, 0, :, :]
    return ClipVelocities(
        wrist=_finite_diff(wrist_p, fps),
        fingertips_world=_finite_diff(tips_w, fps),
        fingertips_local=_finite_diff(tips_l, fps),
    )
