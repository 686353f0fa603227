"""Per-track gap filling and run smoothing: the oracles for
`reconstruction.interpolate_gaps` and `reconstruction.smooth_trajectory`.

This is one (hand, joint) track, one gap and one valid run at a time.  Gap
filling is the code the array version replaced, and tests compare the two
bit for bit.  Smoothing solves each run of at least 3x order valid frames
alone, as the dense least-squares problem [I; sqrt(lam) D] z = [y; 0] with
D the run's order-th differences, by `np.linalg.lstsq`; the batched
block-tridiagonal solve of the normal equations meets it to rounding.
"""

import numpy as np

from pianomotion.reconstruction import JointTrajectory, _smoothing_weight


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


def smooth_run(y, lam, order):
    """The Whittaker-smoothed run y (m, 3) by dense least squares."""
    m = len(y)
    D = np.diff(np.eye(m), order, axis=0)
    A = np.vstack([np.eye(m), np.sqrt(lam) * D])
    b = np.vstack([y, np.zeros((m - order, 3))])
    return np.linalg.lstsq(A, b, rcond=None)[0]


def smooth_trajectory(traj, cutoff_hz, order, max_gap):
    traj = interpolate_gaps(traj, max_gap)
    pos = traj.positions.copy()
    lam = _smoothing_weight(cutoff_hz, traj.fps, order)
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
                    pos[f:g, h, j] = smooth_run(pos[f:g, h, j], lam, order)
                f = g
    return JointTrajectory(traj.fps, pos, traj.valid.copy())
