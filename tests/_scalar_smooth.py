"""Per-track gap filling and run filtering: the oracle for
`reconstruction.interpolate_gaps` and `reconstruction.smooth_trajectory`.

This is the code the array versions replaced, one (hand, joint) track, one
gap and one valid run at a time.  Tests compare them bit for bit.
"""

from pianomotion.reconstruction import JointTrajectory, butterworth_filter


def interpolate_gaps(traj, max_gap):
    pos = traj.positions.copy()
    val = traj.valid.copy()
    n = traj.n_frames
    for h in range(2):
        for j in range(21):
            col = val[:, h, j]
            f = 0
            while f < n:
                if col[f]:
                    f += 1
                    continue
                g = f
                while g < n and not col[g]:
                    g += 1
                gap = g - f
                if f > 0 and g < n and gap <= max_gap:
                    p0 = pos[f - 1, h, j]
                    p1 = pos[g, h, j]
                    for k in range(gap):
                        t = (k + 1) / (gap + 1)
                        pos[f + k, h, j] = (1 - t) * p0 + t * p1
                        col[f + k] = True
                f = g
    return JointTrajectory(traj.fps, pos, val)


def smooth_trajectory(traj, cutoff_hz, order, max_gap):
    traj = interpolate_gaps(traj, max_gap)
    pos = traj.positions.copy()
    n = traj.n_frames
    for h in range(2):
        for j in range(21):
            col = traj.valid[:, h, j]
            f = 0
            while f < n:
                if not col[f]:
                    f += 1
                    continue
                g = f
                while g < n and col[g]:
                    g += 1
                if g - f >= 3 * order:
                    pos[f:g, h, j] = butterworth_filter(
                        pos[f:g, h, j], cutoff_hz, traj.fps, order)
                f = g
    return JointTrajectory(traj.fps, pos, traj.valid.copy())
