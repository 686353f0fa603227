"""Hand skeleton, kinematics, Jacobians, and motion containers."""

import json

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import _scalar_kinematics as scalar
import _synth
from pianomotion import hand, rewards
from pianomotion.hand import HandSkeleton, MotionClip, SkeletonPair


def fk(skeleton, vec):
    """Joint positions (21, 3) of one hand's pose vector."""
    return hand.forward_kinematics(skeleton.bone_offsets,
                                   *hand.vector_pose(vec))[0]


def random_pose(rng, scale=0.4):
    """A pose vector (51,) of random root and joint rotations."""
    root_q = rng.normal(size=4)
    root_q /= np.linalg.norm(root_q)
    rotations = rng.uniform(-scale, scale, size=(15, 3))
    return _synth.pose_vector(rng.normal(size=3), root_q, rotations)


# ---------------------------------------------------------------------------
# Topology and quaternions


def test_topology_is_five_three_segment_chains():
    assert hand.PARENTS[0] == -1
    assert all(hand.PARENTS[j] < j for j in range(1, 21))
    # Fingertips are leaves: nothing lists them as a parent.
    assert set(hand.TIP_JOINTS) & set(hand.PARENTS) == set()
    # Each finger chain: wrist -> three rotational joints -> tip.
    for tip in hand.TIP_JOINTS:
        chain = []
        j = int(tip)
        while j != 0:
            chain.append(j)
            j = int(hand.PARENTS[j])
        assert len(chain) == 4


def test_levels_follow_the_parents():
    # Each level's parents are the level above (the wrist for the MCPs), and
    # the level slices the FK walk takes are the same joints.
    assert hand.LEVELS.T.tolist() == [[1, 2, 3, 16], [4, 5, 6, 17],
                                      [7, 8, 9, 18], [10, 11, 12, 19],
                                      [13, 14, 15, 20]]
    joints = np.arange(21)
    for level, row, above in zip(hand._LEVEL_SLICES, hand.LEVELS,
                                 [[0] * 5] + hand.LEVELS.tolist()):
        assert joints[level].tolist() == row.tolist()
        assert hand.PARENTS[row].tolist() == above
    assert hand._CHILD.tolist() == [2, 3, 16, 5, 6, 17, 8, 9, 18, 11, 12, 19,
                                   14, 15, 20]


def test_quat_matrix_agrees_with_scipy(rng):
    for _ in range(20):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        got = hand.quat_to_matrix(q)
        want = Rotation.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()
        assert np.allclose(got, want, atol=1e-12)


def test_matrix_to_quat_canonical_sign(rng):
    for _ in range(20):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        back = hand.matrix_to_quat(hand.quat_to_matrix(q))
        assert back[0] >= 0.0
        assert np.allclose(back, q if q[0] >= 0 else -q, atol=1e-9)


def test_rotvec_round_trip(rng):
    for _ in range(20):
        v = rng.normal(size=3)
        assert np.allclose(hand.quat_to_rotvec(hand.rotvec_to_quat(v)), v,
                           atol=1e-12)
    assert np.allclose(hand.rotvec_to_quat(np.zeros(3)), [1, 0, 0, 0])


# The closed-form maps must equal scipy's Rotation bit for bit, so that
# replacing it changed no output.  Inputs cover the small-angle series
# branches (|w| <= 1e-3, including w = 0), angles near pi, quaternions with
# w < 0 or w = 0, and matrices off orthogonal by rounding only.

def _scipy_quat(xyzw):
    """scipy (x, y, z, w) quaternions as (w, x, y, z) with w >= 0."""
    q = np.concatenate([xyzw[..., 3:], xyzw[..., :3]], axis=-1)
    return np.where(q[..., :1] < 0, -q, q)


def _random_rotvecs(rng, n):
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.concatenate([
        rng.uniform(0.0, 1e-3, n // 4),                    # series branch
        np.pi - rng.uniform(0.0, 1e-6, n // 4),            # near pi
        rng.uniform(0.0, 2 * np.pi, n - n // 2 - 8),       # up to 2 pi
        np.zeros(8),
    ])
    return axes * angles[:, None]


def _random_quats(rng, n):
    """(w, x, y, z) quaternions of both signs of w, a quarter of them
    rotating by under 1e-3 rad, off unit norm by up to 1e-10, followed by
    half turns (w = 0) whose canonical sign falls to x, y or z."""
    q = rng.normal(size=(n, 4))
    q[: n // 4, 1:] *= 1e-4
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q *= 1 + rng.uniform(-1e-10, 1e-10, (n, 1))
    half_turns = [[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -0.6, 0.8],
                  [0.0, 0.6, 0.0, -0.8], [-1.0, 0.0, 0.0, 0.0]]
    return np.concatenate([q, half_turns])


def test_rotation_maps_equal_scipy_bit_for_bit(rng):
    n = 20000
    v = _random_rotvecs(rng, n)
    from_v = Rotation.from_rotvec(v)
    assert np.array_equal(hand.rotvec_to_quat(v), _scipy_quat(from_v.as_quat()))

    q = _random_quats(rng, n)
    from_q = Rotation.from_quat(np.concatenate([q[:, 1:], q[:, :1]], axis=1))
    assert np.array_equal(hand.quat_to_matrix(q), from_q.as_matrix())
    assert np.array_equal(hand.quat_to_rotvec(q), from_q.as_rotvec())

    # Products of rotations: orthogonal up to rounding, like FK's globals.
    m = from_v.as_matrix() @ from_q.as_matrix()[:n]
    from_m = Rotation.from_matrix(m)
    assert np.array_equal(hand.matrix_to_quat(m), _scipy_quat(from_m.as_quat()))
    assert np.array_equal(hand.matrix_to_rotvec(m), from_m.as_rotvec())
    # Rotations by exactly pi: w = 0, where the canonical sign falls to x.
    half_turns = Rotation.from_rotvec(np.pi * np.eye(3)).as_matrix()
    assert np.array_equal(hand.matrix_to_rotvec(half_turns),
                          Rotation.from_matrix(half_turns).as_rotvec())


def test_rotation_maps_take_single_and_stacked_inputs(rng):
    v = _random_rotvecs(rng, 24).reshape(2, 3, 4, 3)
    q = hand.rotvec_to_quat(v)
    assert q.shape == (2, 3, 4, 4)
    assert np.array_equal(hand.rotvec_to_quat(v[1, 2, 3]), q[1, 2, 3])
    m = hand.quat_to_matrix(q)
    assert m.shape == (2, 3, 4, 3, 3)
    assert np.array_equal(hand.quat_to_matrix(q[0, 1, 2]), m[0, 1, 2])
    assert np.array_equal(hand.matrix_to_rotvec(m[1, 0, 3]),
                          hand.matrix_to_rotvec(m)[1, 0, 3])


def _same_bits(a, b):
    """Equal shapes and equal float64 bits, the sign of every zero included
    (np.array_equal takes -0.0 for 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64))


def _check_matrices(m):
    """matrix_to_quat and matrix_to_rotvec equal scipy's bits on matrices
    (..., 3, 3) of any batch shape."""
    r = Rotation.from_matrix(m.reshape(-1, 3, 3))
    batch = m.shape[:-2]
    assert _same_bits(hand.matrix_to_quat(m),
                      _scipy_quat(r.as_quat()).reshape(batch + (4,)))
    assert _same_bits(hand.matrix_to_rotvec(m),
                      r.as_rotvec().reshape(batch + (3,)))


def _check_quats(q):
    """quat_to_matrix and quat_to_rotvec equal scipy's bits on (w, x, y, z)
    quaternions (..., 4) of any batch shape."""
    flat = q.reshape(-1, 4)
    r = Rotation.from_quat(np.concatenate([flat[:, 1:], flat[:, :1]], axis=1))
    batch = q.shape[:-1]
    assert _same_bits(hand.quat_to_matrix(q),
                      r.as_matrix().reshape(batch + (3, 3)))
    assert _same_bits(hand.quat_to_rotvec(q), r.as_rotvec().reshape(batch + (3,)))


def _check_rotvecs(v):
    """rotvec_to_quat equals scipy's bits on rotation vectors (..., 3)."""
    r = Rotation.from_rotvec(v.reshape(-1, 3))
    assert _same_bits(hand.rotvec_to_quat(v),
                      _scipy_quat(r.as_quat()).reshape(v.shape[:-1] + (4,)))


def test_matrix_to_quat_ties_and_half_turns_equal_scipy():
    # A 120-degree turn about (1, 1, 1) permutes the axes cyclically: its
    # diagonal and trace are all 0, so all four of Shepperd's candidates
    # tie and the first must win.  A half turn about an axis ties the other
    # two diagonal entries at -1.
    cyclic = np.roll(np.eye(3), 1, axis=0)
    half_turns = [np.diag(d) for d in ([1.0, -1, -1], [-1.0, 1, -1],
                                       [-1.0, -1, 1])]
    _check_matrices(np.stack([cyclic, cyclic.T] + half_turns))


def test_rotation_maps_of_signed_zeros_equal_scipy():
    # -0.0 components and w == 0, where the canonical sign falls to the
    # first nonzero of x, y, z; the matrices of these quaternions hold
    # -0.0 entries in turn.
    z = -0.0
    q = np.array([[0.0, z, 1, 0], [z, 0, -1, 0], [0.0, z, z, -1],
                  [z, -0.6, 0.8, z], [1, z, z, z], [-1, z, 0, 0],
                  [z, z, z, 1], [z, 1, z, z]])
    _check_quats(q)
    _check_matrices(hand.quat_to_matrix(q))
    _check_rotvecs(np.array([[z, 0, 0], [z, z, z], [0, z, np.pi],
                             [np.pi, z, 0]]))


def test_rotation_maps_of_empty_batches():
    assert hand.matrix_to_quat(np.zeros((0, 3, 3))).shape == (0, 4)
    assert hand.matrix_to_rotvec(np.zeros((0, 3, 3))).shape == (0, 3)
    assert hand.quat_to_matrix(np.zeros((0, 4))).shape == (0, 3, 3)
    assert hand.quat_to_rotvec(np.zeros((0, 4))).shape == (0, 3)
    assert hand.rotvec_to_quat(np.zeros((0, 3))).shape == (0, 4)


def test_rotation_maps_of_single_inputs_and_rank_3_batches_equal_scipy(rng):
    v = _random_rotvecs(rng, 60)
    q = _random_quats(rng, 54)                     # and 6 half turns
    m = Rotation.from_rotvec(v).as_matrix() @ hand.quat_to_matrix(q)
    _check_rotvecs(v[7])
    _check_quats(q[3])
    _check_matrices(m[5])
    _check_rotvecs(v.reshape(3, 4, 5, 3))
    _check_quats(q.reshape(3, 4, 5, 4))
    _check_matrices(m.reshape(3, 4, 5, 3, 3))


# ---------------------------------------------------------------------------
# Forward kinematics


def test_fk_identity_accumulates_offsets(skeletons):
    p = fk(skeletons.right, np.zeros(51))
    # Independent accumulation along the parent chain.
    expect = np.zeros((21, 3))
    for j in range(1, 21):
        expect[j] = expect[hand.PARENTS[j]] + skeletons.right.bone_offsets[j]
    assert np.allclose(p, expect, atol=1e-15)


def test_fk_index_tip_at_identity(skeletons):
    # Index chain offsets sum: (-0.022, 0.088) + (0, 0.042) + (0, 0.025)
    # + (0, 0.022) in the right-hand rest pose.
    p = fk(skeletons.right, np.zeros(51))
    assert np.allclose(p[17], (-0.022, 0.177, 0.0), atol=1e-12)


def test_fk_root_translation_is_rigid(skeletons, rng):
    pose = random_pose(rng)
    p0 = fk(skeletons.left, pose)
    shifted = pose.copy()
    shifted[:3] += (0.1, -0.2, 0.3)
    p1 = fk(skeletons.left, shifted)
    assert np.allclose(p1 - p0, (0.1, -0.2, 0.3), atol=1e-12)


def test_fk_root_rotation_rotates_about_wrist(skeletons, rng):
    rotations = rng.uniform(-0.3, 0.3, size=(15, 3))
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    base = _synth.pose_vector(joint_rotations=rotations)
    rotated = _synth.pose_vector(root_q=q, joint_rotations=rotations)
    R = hand.quat_to_matrix(q)
    p0 = fk(skeletons.right, base)
    p1 = fk(skeletons.right, rotated)
    assert np.allclose(p1, p0 @ R.T, atol=1e-12)


def test_fk_single_joint_quarter_turn(skeletons):
    # Flexing the index middle knuckle (joint 4, rotation row 3) by -pi/2
    # about x sends the next segment from +y to -z.
    rotations = np.zeros((15, 3))
    rotations[3] = (-np.pi / 2, 0.0, 0.0)
    p = fk(skeletons.right, _synth.pose_vector(joint_rotations=rotations))
    assert np.allclose(p[4], (-0.022, 0.088, 0.0), atol=1e-12)
    assert np.allclose(p[5], (-0.022, 0.088, -0.042), atol=1e-12)


def test_fk_with_orientations_identity(skeletons):
    _, G = hand.forward_kinematics(skeletons.right.bone_offsets,
                                   *hand.vector_pose(np.zeros(51)))
    assert G.shape == (16, 3, 3)
    assert np.allclose(G, np.eye(3)[None], atol=1e-15)


def test_fingertips_are_tip_rows(skeletons, rng):
    pose = random_pose(rng)
    clip = _synth.pose_clip(60.0, [(np.zeros(51), pose)])
    tips = hand.clip_fingertips(clip, skeletons)[0, 5:]
    want = scalar.clip_forward_kinematics(skeletons.right.bone_offsets, clip,
                                          0, 1)[0][hand.TIP_JOINTS]
    assert np.array_equal(tips, want)


def test_fk_batch_equals_per_pose_calls(skeletons, rng):
    # An (F, 2, 51) batch with a SkeletonPair's offsets gives, bit for bit,
    # what one call per pose gives; zero rotation vectors take the Jacobian's
    # small-angle branch.  The Jacobian is the fit's: the root's closed-form
    # columns and the finger chains' rows.
    vecs = rng.normal(size=(40, 2, 51)) * rng.choice(
        [1e-9, 1e-3, 0.4, 1.5], size=(40, 2, 1))
    vecs[:4, :, 3:] = 0.0
    vecs[4:8, :, 9:15] = 0.0
    planes = hand.twist_free_basis(skeletons.bone_offsets)
    p, G = hand.forward_kinematics(skeletons.bone_offsets,
                                   *hand.vector_pose(vecs))
    pj, J = _synth.fit_jacobian(skeletons.bone_offsets, planes, vecs)
    assert p.shape == (40, 2, 21, 3) and G.shape == (40, 2, 16, 3, 3)
    assert J.shape == (40, 2, 21, 3, 36)
    assert np.array_equal(pj, p)
    for f in range(40):
        for h in range(2):
            offsets = skeletons[h].bone_offsets
            p1, G1 = hand.forward_kinematics(
                offsets, *hand.vector_pose(vecs[f, h]))
            p2, J1 = _synth.fit_jacobian(offsets, planes[h], vecs[f, h])
            assert np.array_equal(p1, p[f, h]) and np.array_equal(G1, G[f, h])
            assert np.array_equal(p2, p[f, h]) and np.array_equal(J1, J[f, h])


def test_left_skeleton_mirrors_right(skeletons):
    mirrored = skeletons.right.bone_offsets.copy()
    mirrored[:, 0] *= -1
    assert np.allclose(skeletons.left.bone_offsets, mirrored, atol=0)


# ---------------------------------------------------------------------------
# Jacobians


def finite_diff_jacobian(skeleton, vec, eps=1e-6):
    """Central differences of FK along the 36 twist-free columns."""
    planes = hand.twist_free_basis(skeleton.bone_offsets)
    J = np.zeros((21, 3, hand.TWIST_FREE_DIMS))
    for c, column in enumerate(hand.twist_free_step(
            planes, np.eye(hand.TWIST_FREE_DIMS))):
        J[:, :, c] = (fk(skeleton, vec + eps * column)
                      - fk(skeleton, vec - eps * column)) / (2 * eps)
    return J


def jacobian(skeleton, vec):
    """FK positions and the fit's Jacobian (21, 3, 36) of one pose."""
    return _synth.fit_jacobian(skeleton.bone_offsets,
                               hand.twist_free_basis(skeleton.bone_offsets),
                               vec)


def test_fk_jacobian_matches_finite_differences(skeletons, rng):
    for _ in range(3):
        vec = random_pose(rng)
        p, J = jacobian(skeletons.right, vec)
        assert np.array_equal(p, fk(skeletons.right, vec))
        J_num = finite_diff_jacobian(skeletons.right, vec)
        assert np.max(np.abs(J - J_num)) < 1e-7


def test_fk_jacobian_at_zero_rotvecs(skeletons):
    # The rotation-vector parameterization is exercised at its origin, where
    # the left Jacobian takes its series.
    vec = np.zeros(51)
    _, J = jacobian(skeletons.left, vec)
    J_num = finite_diff_jacobian(skeletons.left, vec)
    assert np.max(np.abs(J - J_num)) < 1e-7


def test_jacobian_locality(skeletons, rng):
    # A finger joint's two columns move exactly the joints below it on its
    # finger: the pinky knuckle's, say, never the thumb tip.
    _, J = jacobian(skeletons.right, random_pose(rng))
    for joint in range(1, 16):
        chain = list(hand.LEVELS[:, (joint - 1) // 3])
        moved = np.flatnonzero(J[..., 4 + 2 * joint:6 + 2 * joint].any(
            axis=(1, 2)))
        assert moved.tolist() == chain[chain.index(joint) + 1:], joint


# ---------------------------------------------------------------------------
# Pose and skeleton containers


def test_pose_vector_round_trip(rng):
    # clip_from_vectors inverts clip_vectors; each root quaternion comes
    # back with its sign made w >= 0.
    q = rng.normal(size=(5, 2, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    vecs = np.concatenate([rng.normal(size=(5, 2, 3)), hand.quat_to_rotvec(q),
                           rng.uniform(-0.4, 0.4, size=(5, 2, 45))], axis=-1)
    clip = hand.clip_from_vectors(60.0, vecs)
    assert clip.fps == 60.0 and clip.n_frames == 5
    back = hand.clip_vectors(clip)
    assert np.allclose(back, vecs, rtol=0, atol=1e-12)
    assert np.array_equal(back[..., :3], vecs[..., :3])
    assert np.array_equal(back[..., 6:], vecs[..., 6:])
    assert np.allclose(clip.root_q, np.where(q[..., :1] < 0, -q, q), rtol=0,
                       atol=1e-12)
    assert not np.shares_memory(clip.root_t, vecs)


def test_pose_validation():
    # Pose vectors must be (F, 2, 51); what they encode is checked by
    # MotionClip.
    for shape in ((2, 51), (3, 1, 51), (3, 2, 50), (3, 2, 2, 51)):
        with pytest.raises(ValueError, match="pose vectors must have shape"):
            hand.clip_from_vectors(60.0, np.zeros(shape))
    vecs = np.zeros((3, 2, 51))
    vecs[1, 0, 20] = np.nan
    with pytest.raises(ValueError, match="joint_rotations must be finite"):
        hand.clip_from_vectors(60.0, vecs)
    assert hand.clip_from_vectors(60.0, np.zeros((0, 2, 51))).n_frames == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["root_t", "root_q", "joint_rotations"])
def test_pose_rejects_non_finite_values(field, bad):
    # A NaN quaternion used to pass the unit-norm check (NaN compares False).
    values = {"root_t": np.zeros((3, 2, 3)),
              "root_q": np.tile([1.0, 0.0, 0.0, 0.0], (3, 2, 1)),
              "joint_rotations": np.zeros((3, 2, 15, 3))}
    values[field].flat[-1] = bad
    with pytest.raises(ValueError, match="%s must be finite" % field):
        MotionClip(60.0, **values)


def test_skeleton_validation(skeletons):
    offsets = skeletons.right.bone_offsets.copy()
    limits = skeletons.right.joint_limits.copy()
    offsets[0] = (0.01, 0.0, 0.0)
    with pytest.raises(ValueError, match="wrist"):
        HandSkeleton("right", offsets, limits)
    offsets[0] = 0.0
    offsets[5] = 0.0
    with pytest.raises(ValueError, match="length"):
        HandSkeleton("right", offsets, limits)
    bad_limits = limits.copy()
    bad_limits[0, 0] = (1.0, -1.0)
    with pytest.raises(ValueError, match="limit"):
        HandSkeleton("right", skeletons.right.bone_offsets, bad_limits)
    with pytest.raises(ValueError, match="handedness"):
        HandSkeleton("both", skeletons.right.bone_offsets, limits)
    offsets = skeletons.right.bone_offsets.copy()
    offsets[3, 1] = np.nan
    with pytest.raises(ValueError, match="bone_offsets must be finite"):
        HandSkeleton("right", offsets, limits)
    bad_limits = limits.copy()
    bad_limits[4, 2, 1] = np.inf
    with pytest.raises(ValueError, match="joint_limits must be finite"):
        HandSkeleton("right", skeletons.right.bone_offsets, bad_limits)


def test_skeleton_pair_accessors(skeletons):
    assert skeletons[0] is skeletons.left
    assert skeletons[1] is skeletons.right
    with pytest.raises(ValueError):
        SkeletonPair(skeletons.right, skeletons.right)


def test_skeleton_pair_json_round_trip(skeletons):
    back = SkeletonPair.from_json(skeletons.to_json())
    assert np.array_equal(back.left.bone_offsets, skeletons.left.bone_offsets)
    assert np.array_equal(back.right.joint_limits, skeletons.right.joint_limits)


# ---------------------------------------------------------------------------
# Motion clips


def make_clip(rng, n_frames=4, fps=60.0):
    frames = [(random_pose(rng), random_pose(rng)) for _ in range(n_frames)]
    return _synth.pose_clip(fps, frames)


CLIP_FIELDS = ("root_t", "root_q", "joint_rotations")


def test_clip_json_round_trip(rng):
    clip = make_clip(rng)
    back = MotionClip.from_json(clip.to_json())
    assert back.fps == clip.fps
    for name in CLIP_FIELDS:
        assert np.array_equal(getattr(back, name), getattr(clip, name))


def test_clip_arrays_round_trip(rng):
    clip = make_clip(rng)
    assert clip.root_t.shape == (4, 2, 3)
    assert clip.root_q.shape == (4, 2, 4)
    assert clip.joint_rotations.shape == (4, 2, 15, 3)
    back = MotionClip(clip.fps, clip.root_t, clip.root_q, clip.joint_rotations)
    for name in CLIP_FIELDS:
        assert getattr(back, name) is getattr(clip, name)


def test_clip_frame_indexing_copies(rng):
    clip = make_clip(rng)
    for frames in (slice(1, 3), [1, 2], np.array([1, 2])):
        part = clip[frames]
        assert part.n_frames == 2 and part.fps == clip.fps
        for name in CLIP_FIELDS:
            assert np.array_equal(getattr(part, name), getattr(clip, name)[1:3])
            assert not np.shares_memory(getattr(part, name), getattr(clip, name))
    copy = clip.copy()
    copy.root_t[0, 0, 0] += 1.0
    assert copy.root_t[0, 0, 0] != clip.root_t[0, 0, 0]


def test_clip_vectors_of_some_frames_equal_rows_of_all(rng):
    clip = make_clip(rng)
    every = hand.clip_vectors(clip)
    assert every.shape == (4, 2, 51)
    for f in range(4):
        for h in range(2):
            assert np.array_equal(every[f, h], np.concatenate([
                clip.root_t[f, h], hand.quat_to_rotvec(clip.root_q[f, h]),
                clip.joint_rotations[f, h].ravel()]))
    for frames in (slice(1, 3), [3, 0, 3], np.array([2])):
        assert np.array_equal(hand.clip_vectors(clip, frames), every[frames])


def test_clip_validation(rng):
    clip = make_clip(rng)
    t, q, r = clip.root_t, clip.root_q, clip.joint_rotations
    with pytest.raises(ValueError, match="fps"):
        MotionClip(0.0, t, q, r)
    with pytest.raises(ValueError, match="finite"):
        MotionClip(np.inf, t, q, r)
    with pytest.raises(ValueError, match="root_t must have shape"):
        MotionClip(60.0, t[:, :1], q, r)
    with pytest.raises(ValueError, match="root_q must have shape"):
        MotionClip(60.0, t, q[:3], r)
    with pytest.raises(ValueError, match="joint_rotations must have shape"):
        MotionClip(60.0, t, q, r[..., :2])
    bad = r.copy()
    bad[3, 0, 14, 2] = np.nan
    with pytest.raises(ValueError, match="joint_rotations must be finite"):
        MotionClip(60.0, t, q, bad)
    MotionClip(60.0, t, q * (1 + 5e-10), r)
    bad = q.copy()
    bad[2, 1] *= 1 + 2e-9
    with pytest.raises(ValueError, match=r"root_q\[2\]\[1\] norm"):
        MotionClip(60.0, t, bad, r)
    empty = MotionClip(60.0, t[:0], q[:0], r[:0])
    assert empty.n_frames == 0
    assert MotionClip.from_json(empty.to_json()).n_frames == 0


def _clip_doc(rng, edit):
    """A valid two-frame clip document with `edit` applied to it."""
    obj = json.loads(make_clip(rng, n_frames=2).to_json())
    edit(obj, obj["frames"][1][0])
    return json.dumps(obj)


def _set(key, index, value):
    def edit(obj, pose):
        pose[key][index] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set("root_t", 0, "0"),
    _set("root_q", 1, "0.0"),
    _set("root_t", 2, True),
    _set("joint_rotations", 3, [False, 0.0, 0.0]),
    _set("joint_rotations", 5, [0.0, 0.0]),
    _set("joint_rotations", 5, [0.0, 0.0, [0.0]]),
    _set("root_t", 1, None),
    _set("root_t", 0, float("nan")),
    _set("joint_rotations", 0, [0.0, float("inf"), 0.0]),
    _set("root_q", 1, 0.5),
    lambda obj, pose: pose.pop("root_q"),
    lambda obj, pose: pose.update(root_t=[0.0, 0.0]),
    lambda obj, pose: obj["frames"].append([pose]),
    lambda obj, pose: obj.update(fps="60"),
    lambda obj, pose: obj.update(fps=10 ** 400),
    lambda obj, pose: obj.pop("fps"),
], ids=["str-root_t", "str-root_q", "bool-root_t", "bool-joint",
        "ragged-joint", "nested-joint", "null-root_t", "nan-root_t",
        "inf-joint", "non-unit-root_q", "missing-root_q", "short-root_t",
        "one-pose-pair", "str-fps", "huge-fps", "missing-fps"])
def test_clip_from_json_rejects_malformed_values(rng, edit):
    with pytest.raises(ValueError):
        MotionClip.from_json(_clip_doc(rng, edit))


def test_clip_fingertips_layout(skeletons, rng):
    clip = make_clip(rng, n_frames=2)
    tips = hand.clip_fingertips(clip, skeletons)
    assert tips.shape == (2, 10, 3)
    left, right = (scalar.clip_forward_kinematics(skeletons[h].bone_offsets,
                                                  clip, 0, h)[0][hand.TIP_JOINTS]
                   for h in (0, 1))
    assert np.array_equal(tips[0, :5], left)
    assert np.array_equal(tips[0, 5:], right)


def test_clip_positions_layout(skeletons, rng):
    clip = make_clip(rng, n_frames=3)
    p = hand.clip_positions(clip, skeletons)
    assert p.shape == (3, 2, 21, 3)
    want, _ = scalar.clip_forward_kinematics(skeletons.right.bone_offsets,
                                             clip, 1, 1)
    assert np.array_equal(p[1, 1], want)


# ---------------------------------------------------------------------------
# Velocities and link states


def velocities(clip, skeletons):
    return hand.finite_diff_velocities(
        clip.fps, *hand.clip_kinematics(clip, skeletons))


def test_velocities_linear_translation_is_exact(skeletons):
    # The wrist moves at a constant 0.6 m/s in x; finite differences are
    # exact for linear motion, including the one-sided ends.
    fps = 50.0
    frames = []
    for f in range(5):
        frames.append((_synth.pose_vector((0.0, 0.3, 0.0)),
                       _synth.pose_vector((0.6 * f / fps, 0.0, 0.0))))
    vel = velocities(_synth.pose_clip(fps, frames), skeletons)
    assert vel.wrist.shape == (5, 2, 3)
    assert np.allclose(vel.wrist[:, 1], [[0.6, 0.0, 0.0]] * 5, atol=1e-9)
    assert np.allclose(vel.wrist[:, 0], 0.0, atol=1e-9)
    assert np.allclose(vel.fingertips_world[:, 1, :, 0], 0.6, atol=1e-9)
    # The hand is rigid here, so hand-frame fingertip velocities vanish.
    assert np.allclose(vel.fingertips_local, 0.0, atol=1e-9)


def test_velocities_quadratic_translation_is_exact_interior(skeletons):
    # Central differences recover the derivative of t^2 exactly.
    fps = 10.0
    frames = []
    for f in range(6):
        t = f / fps
        frames.append((_synth.pose_vector((t * t, 0.0, 0.0)),
                       _synth.pose_vector((0.0, 0.2, 0.0))))
    vel = velocities(_synth.pose_clip(fps, frames), skeletons)
    times = np.arange(6) / fps
    assert np.allclose(vel.wrist[1:-1, 0, 0], 2.0 * times[1:-1], atol=1e-9)


def test_velocities_rotation_spins_tips(skeletons):
    # Yaw at a constant rate: world tip speed is omega x r while hand-frame
    # tip coordinates stay fixed.
    fps = 100.0
    omega = 0.8  # rad/s
    frames = []
    for f in range(7):
        angle = omega * f / fps
        q = np.array([np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)])
        frames.append((_synth.pose_vector((0.0, 0.4, 0.0)),
                       _synth.pose_vector(root_q=q)))
    clip = _synth.pose_clip(fps, frames)
    vel = velocities(clip, skeletons)
    tips = hand.clip_fingertips(clip, skeletons)[3, 5:]
    expect = np.cross([0.0, 0.0, omega], tips)
    assert np.allclose(vel.fingertips_world[3, 1], expect, atol=1e-3)
    assert np.allclose(vel.fingertips_local[3, 1], 0.0, atol=1e-3)


def link_states(skeletons, vec):
    """Right-hand link positions (16, 3) and quaternions (16, 4) of the
    pose state of a still two-frame clip."""
    clip = _synth.pose_clip(60.0, [(np.zeros(51), vec)] * 2)
    rows = rewards.pose_state(clip, skeletons, 1).array[1, 1].reshape(16, 13)
    return rows[:, 0:3], rows[:, 3:7]


def test_link_states_identity(skeletons):
    p, q = link_states(skeletons, np.zeros(51))
    assert p.shape == (16, 3)
    assert q.shape == (16, 4)
    assert np.allclose(q, [[1.0, 0.0, 0.0, 0.0]] * 16, atol=1e-12)
    full = fk(skeletons.right, np.zeros(51))
    assert np.allclose(p, full[:16], atol=0)


def test_link_states_quats_follow_root(skeletons):
    q_root = np.array([np.cos(0.5), 0.0, 0.0, np.sin(0.5)])
    _, q = link_states(skeletons, _synth.pose_vector(root_q=q_root))
    assert np.allclose(q, np.tile(q_root, (16, 1)), atol=1e-12)
