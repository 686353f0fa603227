"""The shared damped least-squares loop and its linear solvers."""

import numpy as np
import pytest

from pianomotion.lsq import (block_tridiagonal_solve, levenberg_marquardt,
                             solve_stacked)


def dense(D, L, U):
    P, n, d, _ = D.shape
    A = np.zeros((P, n * d, n * d))
    for i in range(n):
        A[:, i * d:(i + 1) * d, i * d:(i + 1) * d] = D[:, i]
        if i:
            A[:, i * d:(i + 1) * d, (i - 1) * d:i * d] = L[:, i]
            A[:, (i - 1) * d:i * d, i * d:(i + 1) * d] = U[:, i - 1]
    return A


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 33])
def test_block_tridiagonal_solve_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    P, d = 3, 6
    M = rng.normal(size=(P, n, d, d))
    L = rng.normal(size=(P, n, d, d))
    U = rng.normal(size=(P, n, d, d))
    L[:, 0] = U[:, -1] = 0.0
    # Block diagonally dominant, so well conditioned.
    D = M @ np.swapaxes(M, -1, -2) + 4.0 * d * np.eye(d)
    b = rng.normal(size=(P, n, d, 2))
    x, singular = block_tridiagonal_solve(D, L, U, b)
    want = np.linalg.solve(dense(D, L, U), b.reshape(P, n * d, 2))
    assert not singular.any()
    assert np.allclose(x.reshape(P, n * d, 2), want, rtol=0, atol=1e-12)


def test_block_tridiagonal_solve_flags_only_singular_problems():
    D = np.stack([np.eye(2)[None].repeat(3, 0)] * 3)
    D[1, 2] = 0.0
    L = np.zeros_like(D)
    b = np.ones((3, 3, 2, 1))
    x, singular = block_tridiagonal_solve(D, L, L, b)
    assert singular.tolist() == [False, True, False]
    assert np.array_equal(x[0], b[0]) and np.array_equal(x[2], b[2])


def test_levenberg_marquardt_per_problem_stops():
    # Problem b fits exp(a_b t) to its samples; the middle one is noisy, so
    # its residual stays nonzero and only the relative test can stop it.
    t = np.linspace(0.0, 1.0, 7)
    a_true = np.array([0.5, -1.0, 2.0])
    y = np.exp(a_true[:, None] * t)
    y[1] += 0.01 * np.sin(9.0 * t)

    def objective(i, x):
        r = np.exp(x[:, :1] * t) - y[i]
        return np.sum(r * r, axis=1)

    def normal_equations(i, x):
        e = np.exp(x[:, :1] * t)
        J = (t * e)[..., None]
        return (np.swapaxes(J, 1, 2) @ J,
                np.swapaxes(J, 1, 2) @ (e - y[i])[..., None])

    def solve(i, system, lam):
        A, g = system
        step, singular = solve_stacked(A + lam[:, None, None] * np.eye(1), g)
        return step[..., 0], singular

    x, iterations, stop, curve = levenberg_marquardt(
        np.zeros((3, 1)), objective, normal_equations, solve, 50, rtol=1e-9)
    assert stop.tolist() == ["converged", "converged", "converged"]
    assert abs(x[0, 0] - 0.5) < 1e-12 and abs(x[2, 0] - 2.0) < 1e-12
    assert abs(x[1, 0] + 1.0) < 0.05
    assert all(b <= a for a, b in zip(curve, curve[1:]))
    assert curve[-1] == pytest.approx(objective(np.arange(3), x).sum())
    _, capped, stop, _ = levenberg_marquardt(
        np.zeros((3, 1)), objective, normal_equations, solve, 2)
    assert capped.tolist() == [2, 2, 2] and set(stop) == {"max_iter"}
