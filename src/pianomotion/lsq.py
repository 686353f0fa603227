"""Stacked linear solves and the guarded damped least-squares loop.

The skeleton fit and the score-driven refinement both minimise sums of
squares by the same Levenberg-Marquardt rules; they differ only in their
residuals and in how a damped step is solved, which they pass in.
"""

from __future__ import annotations

import numpy as np

CONVERGED_OBJECTIVE = 1e-24
# An accepted step that lowers a problem's objective by at most this share
# of it ends that problem's solve.
RTOL = 1e-6


def solve_stacked(H, g):
    """np.linalg.solve on stacked systems; also flags the singular ones.

    Systems are stacked along the first axis, and a flag covers all the
    systems that share its index there."""
    try:
        return np.linalg.solve(H, g), np.zeros(len(H), dtype=bool)
    except np.linalg.LinAlgError:
        if len(H) == 1:
            return np.full(g.shape, np.nan), np.ones(1, dtype=bool)
    half = len(H) // 2
    lo, lo_bad = solve_stacked(H[:half], g[:half])
    hi, hi_bad = solve_stacked(H[half:], g[half:])
    return np.concatenate([lo, hi]), np.concatenate([lo_bad, hi_bad])


def block_tridiagonal_solve(D, L, U, b):
    """Solve L_i x_{i-1} + D_i x_i + U_i x_{i+1} = b_i for every problem.

    D, L, U are (P, n, d, d) and b is (P, n, d, k); L[:, 0] and U[:, -1]
    must be zero.  Cyclic reduction: the odd-indexed unknowns are
    eliminated from the even-indexed equations, the half-size system is
    solved the same way, and the odd unknowns are substituted back, so a
    chain of n blocks takes about log2(n) stacked solves.  Returns x like b
    and a singular flag per problem.
    """
    n = D.shape[1]
    if n == 1:
        return solve_stacked(D, b)
    d = D.shape[-1]
    odd, singular = solve_stacked(D[:, 1::2], np.concatenate(
        [L[:, 1::2], U[:, 1::2], b[:, 1::2]], axis=-1))
    iL, iU, ib = odd[..., :d], odd[..., d:2 * d], odd[..., 2 * d:]
    De, Le, Ue, be = D[:, ::2].copy(), L[:, ::2], U[:, ::2], b[:, ::2].copy()
    m, r = iL.shape[1], De.shape[1] - 1        # odd count; evens with a left
    De[:, 1:] -= Le[:, 1:] @ iU[:, :r]
    be[:, 1:] -= Le[:, 1:] @ ib[:, :r]
    De[:, :m] -= Ue[:, :m] @ iL
    be[:, :m] -= Ue[:, :m] @ ib
    Ln, Un = np.zeros_like(Le), np.zeros_like(Ue)
    Ln[:, 1:] = -(Le[:, 1:] @ iL[:, :r])
    Un[:, :m] = -(Ue[:, :m] @ iU)
    xe, bad = block_tridiagonal_solve(De, Ln, Un, be)
    x = np.empty_like(b)
    x[:, ::2] = xe
    xo = ib - iL @ xe[:, :m]
    xo[:, :r] -= iU[:, :r] @ xe[:, 1:]
    x[:, 1::2] = xo
    return x, singular | bad


def levenberg_marquardt(x0, objective, normal_equations, solve,
                        max_iter: int, rtol: float = RTOL):
    """Guarded damped least squares on B problems in lockstep, each with
    its own damping and stop.

    `objective(i, x)` gives the objectives (len(i),) of problems i at x,
    `normal_equations(i, x)` their linearised system as a tuple of arrays
    with leading axis len(i), and `solve(i, system, lam)` the damped step
    d (x moves to x - d) for the dampings lam, with a singular flag per
    problem.  Damping starts at 1e-6, halves (down to 1e-12) on an
    accepted step and grows 10x on a rejected one.  A problem stops as
    "converged" when an accepted step takes its objective below 1e-24 or
    lowers it by at most `rtol` (default RTOL, 1e-6) of its value,
    "stalled" when its damping exceeds 1e8 or its system is singular, or
    "max_iter".  The skeleton fit and the refinement both stop by the
    default rule: on noisy data the objective levels off above zero, where
    the 1e-24 test never fires.  Trial steps are scored by the objective
    alone; only accepted ones that go on get a new system.

    Returns the solutions like x0, the iterations run (B,), the stop
    reasons (B,), and the summed objective at the start and after every
    iteration that accepted a step, which never rises.
    """
    B = len(x0)
    x = x0.copy()
    live = np.arange(B)
    f = objective(live, x)
    system = list(normal_equations(live, x))
    lam = np.full(B, 1e-6)
    iterations = np.zeros(B, dtype=np.int64)
    stop = np.full(B, "max_iter", dtype=object)
    curve = [float(np.sum(f))]
    for _ in range(max_iter):
        if not len(live):
            break
        iterations[live] += 1
        step, singular = solve(live, [s[live] for s in system],
                               lam[live])
        step[singular] = 0.0
        cand = x[live] - step
        fc = objective(live, cand)
        better = fc < f[live]
        converged = better & ((fc < CONVERGED_OBJECTIVE)
                              | (f[live] - fc <= rtol * f[live]))
        accepted = live[better]
        if len(accepted):
            x[accepted], f[accepted] = cand[better], fc[better]
            curve.append(float(np.sum(f)))
        going = live[better & ~converged]
        if len(going):
            for s, new in zip(system, normal_equations(going, x[going])):
                s[going] = new
        lam[live] = np.where(better, np.maximum(lam[live] * 0.5, 1e-12),
                             lam[live] * 10.0)
        stalled = singular | (lam[live] > 1e8)
        stop[live[converged]] = "converged"
        stop[live[stalled]] = "stalled"
        live = live[~(converged | stalled)]
    return x, iterations, stop, curve
