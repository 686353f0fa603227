"""Per-joint forward kinematics and the whole-hand Jacobians: the oracles
for `hand.forward_kinematics`, `hand.clip_kinematics`, `hand.chain_jacobian`
and the fit's normal equations.

`forward_kinematics` and `fk_jacobian` are the code the level walk and the
geometric twist-free Jacobian replaced: FK one joint at a time, and the
Jacobian wrt the whole 51-dim pose vector, one rotational joint at a time,
from the closed-form derivative of each local rotation matrix.  Tests
compare FK bit for bit and the Jacobian, through `basis51`, to a stated
tolerance.  `twist_free_jacobian` is the dense (21, 3, 36) twist-free
Jacobian the fit solved with before it moved to finger chains; the chain
rows and the fit's root columns equal its entries bit for bit.
"""

import numpy as np

from pianomotion.hand import (LEVELS, NUM_FINGERS, NUM_JOINTS, NUM_ROT_JOINTS,
                              PARAMS_PER_HAND, PARENTS, TWIST_FREE_DIMS,
                              _cross, _left_jacobian_times, _unit_quat_matrix,
                              quat_to_matrix, rotvec_to_quat)

# affected[i, j] is True when rotating joint i moves joint j.
_AFFECTED = np.zeros((NUM_ROT_JOINTS, NUM_JOINTS), dtype=bool)
for _j in range(1, NUM_JOINTS):
    _a = PARENTS[_j]
    while _a >= 0:
        _AFFECTED[_a, _j] = True
        _a = PARENTS[_a]
del _j, _a

# d exp([w]x)/dw_k at w = 0: the cross-product matrix [e_k]x.
_GENERATORS = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
                        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])


def _fk(bone_offsets, vecs):
    """forward_kinematics of float64 vecs, plus the local rotations
    (..., 16, 3, 3) it composes."""
    locals_ = _unit_quat_matrix(rotvec_to_quat(
        vecs[..., 3:].reshape(vecs.shape[:-1] + (NUM_ROT_JOINTS, 3))))
    return _walk(bone_offsets, vecs[..., :3], locals_)


def _walk(bone_offsets, root_t, locals_):
    """Positions and global rotations of a root translation (..., 3) and
    local rotations (..., 16, 3, 3), one joint at a time, plus locals_."""
    batch = locals_.shape[:-3]
    offsets = bone_offsets[..., None]
    p = np.empty(batch + (NUM_JOINTS, 3))
    G = np.empty(batch + (NUM_ROT_JOINTS, 3, 3))
    p[..., 0, :] = root_t
    G[..., 0, :, :] = locals_[..., 0, :, :]
    for j in range(1, NUM_JOINTS):
        par = PARENTS[j]
        p[..., j, :] = p[..., par, :] + (G[..., par, :, :]
                                         @ offsets[..., j, :, :])[..., 0]
        if j < NUM_ROT_JOINTS:
            G[..., j, :, :] = G[..., par, :, :] @ locals_[..., j, :, :]
    return p, G, locals_


def forward_kinematics(bone_offsets, vecs):
    """Joint positions (..., 21, 3) and global rotations (..., 16, 3, 3)."""
    p, G, _ = _fk(bone_offsets, np.asarray(vecs, dtype=np.float64))
    return p, G


def clip_forward_kinematics(bone_offsets, clip, f, h):
    """Joint positions (21, 3) and global rotations (16, 3, 3) of hand h at
    frame f of a clip: the root's rotation is `quat_to_matrix` of its root_q,
    each finger joint's the matrix of its rotation vector's quaternion."""
    locals_ = np.concatenate([
        quat_to_matrix(clip.root_q[f, h])[None],
        _unit_quat_matrix(rotvec_to_quat(clip.joint_rotations[f, h]))])
    p, G, _ = _walk(bone_offsets, clip.root_t[f, h], locals_)
    return p, G


def fk_jacobian(bone_offsets, vecs):
    """FK positions and their Jacobian (..., 21, 3, 51) wrt the pose vector.

    Columns follow the vector layout: 0..2 root translation, 3..5 root
    rotation vector, 6.. the 15 joint rotation vectors in joint order.
    """
    vecs = np.asarray(vecs, dtype=np.float64)
    batch = vecs.shape[:-1]
    p, G, R = _fk(bone_offsets, vecs)
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


def basis51(planes):
    """(..., 51, 36) matrix of the twist-free coordinates in the pose
    vector: the 6 root columns, then each finger joint's plane
    (..., 15, 3, 2) in its 3 rows and 2 columns."""
    E = np.zeros(planes.shape[:-3] + (PARAMS_PER_HAND, TWIST_FREE_DIMS))
    E[..., np.arange(6), np.arange(6)] = 1.0
    k = np.arange(planes.shape[-3])[:, None, None]
    E[..., 6 + 3 * k + np.arange(3)[:, None], 6 + 2 * k + np.arange(2)] = planes
    return E


# Finger joints move the points of their chain at the levels below them:
# the six (level above, level below) pairs, and the entries of their
# columns in a flattened (21, 3, 36) Jacobian as [finger, pair, column, xyz].
_ABOVE, _BELOW = np.triu_indices(4, 1)
_FINGER_ENTRIES = (
    (LEVELS[_BELOW].T[:, :, None, None] * 3 + np.arange(3)) * TWIST_FREE_DIMS
    + 6 + 6 * np.arange(NUM_FINGERS)[:, None, None, None]
    + 2 * _ABOVE[:, None, None] + np.arange(2)[:, None]).ravel()


def twist_free_jacobian(bone_offsets, planes, vecs):
    """FK positions (..., 21, 3) and their Jacobian J (..., 21, 3, 36) in
    the twist-free coordinates of `hand.twist_free_step`.

    Takes the offsets, the hands' `twist_free_basis` planes (..., 15, 3, 2),
    which broadcast like the offsets, and pose vectors.  Each rotation
    column is geometric: moving joint i's rotation vector w_i along a turns
    the points q below i at omega = G_parent(i) J_l(w_i) a, so column (q, a)
    is omega x (p_q - p_i).
    """
    vecs = np.asarray(vecs, dtype=np.float64)
    batch = vecs.shape[:-1]
    p, G = forward_kinematics(bone_offsets, vecs)
    w = vecs[..., 3:].reshape(batch + (NUM_ROT_JOINTS, 3))
    root = _left_jacobian_times(w[..., 0, :], np.eye(3))
    # Finger joint rates as rows (..., 15, 2, 3), then by finger, pair,
    # plane column.
    fingers = (_left_jacobian_times(w[..., 1:, :], planes.swapaxes(-1, -2))
               @ np.swapaxes(G[..., PARENTS[1:NUM_ROT_JOINTS], :, :], -1, -2))
    fingers = fingers.reshape(batch + (NUM_FINGERS, 3, 2, 3))[..., _ABOVE, :, :]
    arms = p[..., LEVELS[_BELOW].T, :] - p[..., LEVELS[_ABOVE].T, :]
    J = np.zeros(batch + (NUM_JOINTS, 3, TWIST_FREE_DIMS))
    J[..., [0, 1, 2], [0, 1, 2]] = 1.0
    J[..., 3:6] = np.swapaxes(_cross(root[..., None, :, :],
                                     (p - p[..., :1, :])[..., None, :]),
                              -1, -2)
    J.reshape(batch + (-1,))[..., _FINGER_ENTRIES] = _cross(
        fingers, arms[..., None, :]).reshape(batch + (-1,))
    return p, J
