"""Level-walk FK and the geometric twist-free Jacobian against the per-joint
oracle: FK bit for bit, the Jacobian against the oracle's 51-column
Jacobian times the twist-free basis and against central differences.  Clip
FK against the per-pose oracle, and finger chains against the full FK and
Jacobian, bit for bit."""

import numpy as np
import pytest

import _scalar_kinematics as scalar
from pianomotion import hand


def random_vecs(rng, shape, scale=0.5):
    return rng.normal(size=shape + (hand.PARAMS_PER_HAND,)) * scale


def per_pose_offsets(rng, skeleton, n):
    """n randomly stretched copies (n, 21, 3) of a skeleton's offsets."""
    return skeleton.bone_offsets * rng.uniform(0.8, 1.2, size=(n, 21, 1))


def oracle_jacobian(offsets, planes, vecs):
    """The oracle's 51-column Jacobian in the twist-free coordinates."""
    _, J51 = scalar.fk_jacobian(offsets, vecs)
    return J51 @ scalar.basis51(planes)[..., None, :, :]


def columns(planes):
    """The 36 twist-free coordinate directions (..., 36, 51) in the pose
    vector."""
    return hand.twist_free_step(planes[..., None, :, :, :],
                                np.eye(hand.TWIST_FREE_DIMS))


def central_differences(offsets, planes, vec, eps=1e-6):
    """(21, 3, 36) central differences of FK along the twist-free columns."""
    dirs = columns(planes)
    up, down = (hand.forward_kinematics(offsets, *hand.vector_pose(v))[0]
                for v in (vec + eps * dirs, vec - eps * dirs))
    return np.moveaxis((up - down) / (2 * eps), 0, -1)


def _fk_extended(offsets, vec):
    """Joint positions (21, 3) of one pose in extended precision, each local
    rotation by Rodrigues' formula."""
    offsets = np.asarray(offsets, dtype=np.longdouble)
    vec = np.asarray(vec, dtype=np.longdouble)
    local = []
    for w in vec[3:].reshape(hand.NUM_ROT_JOINTS, 3):
        t = np.sqrt(w @ w)
        K = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
        a, b = (np.sin(t) / t, 2 * (np.sin(t / 2) / t) ** 2) if t else (1, 0.5)
        local.append(np.eye(3, dtype=np.longdouble) + a * K + b * (K @ K))
    p = np.zeros((hand.NUM_JOINTS, 3), dtype=np.longdouble)
    G = [local[0]]
    p[0] = vec[:3]
    for j in range(1, hand.NUM_JOINTS):
        par = hand.PARENTS[j]
        p[j] = p[par] + G[par] @ offsets[j]
        if j < hand.NUM_ROT_JOINTS:
            G.append(G[par] @ local[j])
    return p


def exact_jacobian(offsets, planes, vec, h=1e-5):
    """(21, 3, 36) derivative of FK along the twist-free columns by the
    fourth-order central stencil in extended precision: within about 1e-14
    of the exact derivative."""
    J = np.zeros((hand.NUM_JOINTS, 3, hand.TWIST_FREE_DIMS))
    for c, d in enumerate(columns(planes).astype(np.longdouble)):
        f = [_fk_extended(offsets, vec + k * h * d) for k in (-2, -1, 1, 2)]
        J[..., c] = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
    return J


@pytest.mark.parametrize("shape", [(), (1,), (7,), (7, 2), (300, 2)])
def test_fk_equals_per_joint_oracle_bit_for_bit(skeletons, rng, shape):
    offsets = (skeletons.bone_offsets if shape[-1:] == (2,)
               else skeletons.right.bone_offsets)
    vecs = random_vecs(rng, shape)
    vecs.reshape(-1, hand.PARAMS_PER_HAND)[:1, 9:15] = 0.0
    p, G = hand.forward_kinematics(offsets, *hand.vector_pose(vecs))
    p_want, G_want = scalar.forward_kinematics(offsets, vecs)
    assert np.array_equal(p, p_want) and np.array_equal(G, G_want)
    pj, _ = hand.fk_jacobian(offsets, hand.twist_free_basis(offsets), vecs)
    assert np.array_equal(pj, p_want)


def test_fk_with_per_pose_offsets_equals_oracle(skeletons, rng):
    offsets = per_pose_offsets(rng, skeletons.left, 30)
    vecs = random_vecs(rng, (30,))
    p, G = hand.forward_kinematics(offsets, *hand.vector_pose(vecs))
    p_want, G_want = scalar.forward_kinematics(offsets, vecs)
    assert np.array_equal(p, p_want) and np.array_equal(G, G_want)


def test_jacobian_equals_oracle_in_twist_free_basis(skeletons, rng):
    offsets = skeletons.bone_offsets
    planes = hand.twist_free_basis(offsets)
    vecs = random_vecs(rng, (50, 2))
    _, J = hand.fk_jacobian(offsets, planes, vecs)
    assert J.shape == (50, 2, 21, 3, 36)
    assert np.max(np.abs(J - oracle_jacobian(offsets, planes, vecs))) < 1e-12


def test_jacobian_with_per_pose_offsets(skeletons, rng):
    offsets = per_pose_offsets(rng, skeletons.right, 20)
    planes = hand.twist_free_basis(offsets)
    vecs = random_vecs(rng, (20,))
    _, J = hand.fk_jacobian(offsets, planes, vecs)
    assert np.max(np.abs(J - oracle_jacobian(offsets, planes, vecs))) < 1e-12
    for b in range(0, 20, 5):
        J_fd = central_differences(offsets[b], planes[b], vecs[b])
        assert np.max(np.abs(J[b] - J_fd)) < 1e-7
        _, J1 = hand.fk_jacobian(offsets[b], planes[b], vecs[b])
        assert np.array_equal(J1, J[b])


def test_jacobian_near_zero_rotation(skeletons, rng):
    # At rotations near 1e-6 rad the oracle divides by |w|^2, which costs
    # it about ten digits; the left Jacobian's series does not.  Measured
    # against the extended-precision derivative, the new Jacobian is the
    # closer of the two, by orders of magnitude.
    offsets = skeletons.right.bone_offsets
    planes = hand.twist_free_basis(offsets)
    worst_new = worst_oracle = 0.0
    for _ in range(3):
        vec = random_vecs(rng, (), 1e-6)
        vec[:3] = rng.normal(size=3)
        _, J = hand.fk_jacobian(offsets, planes, vec)
        want = oracle_jacobian(offsets, planes, vec)
        assert np.max(np.abs(J - want)) < 1e-10
        assert np.max(np.abs(J - central_differences(offsets, planes,
                                                     vec))) < 1e-7
        exact = exact_jacobian(offsets, planes, vec)
        worst_new = max(worst_new, np.max(np.abs(J - exact)))
        worst_oracle = max(worst_oracle, np.max(np.abs(want - exact)))
    assert worst_new < 1e-13
    assert worst_new * 100 < worst_oracle


def test_jacobian_batch_equals_per_pose_calls(skeletons, rng):
    offsets = skeletons.bone_offsets
    planes = hand.twist_free_basis(offsets)
    vecs = random_vecs(rng, (6, 2)) * rng.choice([0.0, 1e-9, 1e-3, 1.0],
                                                size=(6, 2, 1))
    p, J = hand.fk_jacobian(offsets, planes, vecs)
    for f in range(6):
        for h in range(2):
            p1, J1 = hand.fk_jacobian(offsets[h], planes[h], vecs[f, h])
            assert np.array_equal(p1, p[f, h]) and np.array_equal(J1, J[f, h])


def random_clip(rng, n_frames):
    """A clip with random roots, rotations of every scale (zero included)
    and root quaternions whose norms are off 1 by up to 5e-10."""
    q = rng.normal(size=(n_frames, 2, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    q *= 1.0 + rng.uniform(-5e-10, 5e-10, size=(n_frames, 2, 1))
    rot = rng.normal(size=(n_frames, 2, 15, 3)) * rng.choice(
        [0.0, 1e-9, 1e-3, 0.5, 1.5], size=(n_frames, 2, 15, 1))
    return hand.MotionClip(60.0, rng.normal(size=(n_frames, 2, 3)) * 0.1, q,
                           rot)


@pytest.mark.parametrize("frames", [slice(None), slice(2, 5),
                                    np.array([4, 0, 4])],
                         ids=["all", "slice", "index"])
def test_clip_kinematics_equals_per_pose_oracle_bit_for_bit(skeletons, rng,
                                                            frames):
    # Each root enters FK by its quaternion; the wrist's global rotation is
    # `quat_to_matrix` of root_q, to the bit, so the wrist frame of
    # `finite_diff_velocities` can come from it.
    clip = random_clip(rng, 7)
    p, G = hand.clip_kinematics(clip, skeletons, frames)
    for k, f in enumerate(np.arange(7)[frames]):
        for h in (0, 1):
            p_want, G_want = scalar.clip_forward_kinematics(
                skeletons[h].bone_offsets, clip, f, h)
            assert np.array_equal(p[k, h], p_want), (f, h)
            assert np.array_equal(G[k, h], G_want), (f, h)
    assert np.array_equal(G[:, :, 0], hand.quat_to_matrix(clip.root_q[frames]))
    assert np.array_equal(hand.clip_positions(clip, skeletons)[frames], p)


def chain_problems(offsets, planes, vecs, f):
    """The bases, bone offsets, planes and rotation vectors of finger f's
    chains in poses vecs (..., 51), from the poses' FK."""
    p, G = hand.forward_kinematics(offsets, *hand.vector_pose(vecs))
    chain = 3 * f + np.arange(3)
    w = vecs[..., 6:].reshape(vecs.shape[:-1] + (15, 3))[..., chain, :]
    return (p[..., hand.LEVELS[0, f], :], G[..., 0, :, :],
            offsets[..., hand.LEVELS[1:, f], :], planes[..., chain, :, :], w)


@pytest.mark.parametrize("scale", [0.0, 1e-9, 1e-3, 0.5, 1.5])
def test_tip_jacobian_equals_fk_jacobian_tip_rows_bit_for_bit(skeletons, rng,
                                                              scale):
    # A finger chain started from its pose's wrist rotation and MCP gives
    # the full FK's tip and the full Jacobian's tip rows in the finger's
    # six columns, to the bit: one level walk serves both.
    offsets = skeletons.bone_offsets
    planes = hand.twist_free_basis(offsets)
    vecs = random_vecs(rng, (40, 2), scale)
    p, J = hand.fk_jacobian(offsets, planes, vecs)
    for f in range(hand.NUM_FINGERS):
        base_p, base_G, bones, E, w = chain_problems(offsets, planes, vecs, f)
        tip, Jt = hand.tip_jacobian(base_p, base_G, bones, E, w)
        assert Jt.shape == (40, 2, 3, 6)
        assert np.array_equal(tip, p[:, :, hand.TIP_JOINTS[f]])
        assert np.array_equal(hand.chain_tips(base_p, base_G, bones, w), tip)
        assert np.array_equal(
            Jt, J[:, :, hand.TIP_JOINTS[f], :, 6 + 6 * f:12 + 6 * f])


def test_tip_jacobian_batch_equals_per_chain_calls(skeletons, rng):
    offsets = skeletons.right.bone_offsets
    planes = hand.twist_free_basis(offsets)
    vecs = random_vecs(rng, (12,))
    base_p, base_G, bones, E, w = chain_problems(offsets, planes, vecs, 2)
    tip, J = hand.tip_jacobian(base_p, base_G, bones, E, w)
    for b in range(12):
        tip1, J1 = hand.tip_jacobian(base_p[b], base_G[b], bones, E, w[b])
        assert np.array_equal(tip1, tip[b]) and np.array_equal(J1, J[b])
