"""Independent reference implementations used to cross-check the structured
evolution (explicit dense unitaries and the component recurrence relations),
the lockstep stationary-point search (a one-lane golden-section search) and
the batched finite differences (a scalar 3-point stencil per point), and the
evaluator adapter that drives the searches with an analytic payoff function.

Kept deliberately naive (O(L^4) matrices, explicit loops); nothing here is
shared with the production code paths beyond the documented index layout.
"""

import numpy as np

from qwgames.dynamics import coin_matrix
from qwgames.hilbert import Boundary, LatticeGeometry, RIGHT, LEFT
from qwgames.interactions import InteractionSpec, phase


def dense_single_coin(geometry: LatticeGeometry, theta: float) -> np.ndarray:
    """(C x I_pos) on the single-walker basis index x * 2 + s."""
    return np.kron(np.eye(geometry.size), coin_matrix(theta))


def dense_single_shift(geometry: LatticeGeometry) -> np.ndarray:
    L = geometry.size
    m = np.zeros((2 * L, 2 * L))
    for x in range(L):
        if x + 1 < L:
            m[(x + 1) * 2 + RIGHT, x * 2 + RIGHT] = 1.0
        elif geometry.boundary is Boundary.PERIODIC:
            m[0 * 2 + RIGHT, x * 2 + RIGHT] = 1.0
        else:
            m[x * 2 + LEFT, x * 2 + RIGHT] = 1.0
        if x - 1 >= 0:
            m[(x - 1) * 2 + LEFT, x * 2 + LEFT] = 1.0
        elif geometry.boundary is Boundary.PERIODIC:
            m[(L - 1) * 2 + LEFT, x * 2 + LEFT] = 1.0
        else:
            m[x * 2 + RIGHT, x * 2 + LEFT] = 1.0
    return m


def dense_single_step(geometry: LatticeGeometry, theta: float) -> np.ndarray:
    return dense_single_shift(geometry) @ dense_single_coin(geometry, theta)


def dense_interaction(
    spec: InteractionSpec,
    geometry: LatticeGeometry,
    theta_a: float,
    theta_b: float,
    eta_t: float = 0.0,
) -> np.ndarray:
    """Diagonal phase unitary on the joint basis, via the scalar functional."""
    L = geometry.size
    diag = np.empty(4 * L * L, dtype=complex)
    k = 0
    for xa in geometry.positions:
        for sa in (RIGHT, LEFT):
            for xb in geometry.positions:
                for sb in (RIGHT, LEFT):
                    diag[k] = np.exp(
                        1j * phase(spec, geometry, xa, xb, sa, sb, theta_a, theta_b, eta_t)
                    )
                    k += 1
    return np.diag(diag)


def dense_joint_step(
    spec: InteractionSpec,
    geometry: LatticeGeometry,
    theta_a: float,
    theta_b: float,
    eta_t: float = 0.0,
) -> np.ndarray:
    """U = P_I . [S_A (C_A x I) (x) S_B (C_B x I)] as an explicit matrix."""
    u0 = np.kron(
        dense_single_step(geometry, theta_a), dense_single_step(geometry, theta_b)
    )
    return dense_interaction(spec, geometry, theta_a, theta_b, eta_t) @ u0


def recurrence_evolve(
    geometry: LatticeGeometry, steps: int, theta: float, coin
) -> np.ndarray:
    """Single-walker evolution by the component recurrences (periodic wrap):

        psi_R(x, t+1) = cos(theta/2) psi_R(x-1, t) - sin(theta/2) psi_L(x-1, t)
        psi_L(x, t+1) = sin(theta/2) psi_R(x+1, t) + cos(theta/2) psi_L(x+1, t)
    """
    L = geometry.size
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    psi_r = np.zeros(L, dtype=complex)
    psi_l = np.zeros(L, dtype=complex)
    o = geometry.offset(0)
    psi_r[o], psi_l[o] = coin[0], coin[1]
    for _ in range(steps):
        new_r = np.empty_like(psi_r)
        new_l = np.empty_like(psi_l)
        for x in range(L):
            new_r[x] = c * psi_r[(x - 1) % L] - s * psi_l[(x - 1) % L]
            new_l[x] = s * psi_r[(x + 1) % L] + c * psi_l[(x + 1) % L]
        psi_r, psi_l = new_r, new_l
    return np.stack([psi_r, psi_l], axis=1)


class FunctionEvaluator:
    """Payoff evaluator of an analytic function (theta_a, theta_b) -> (u_a, u_b),
    with the `evaluate`/`points` interface of `qwgames.equilibrium.WalkEvaluator`."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, theta_a, theta_b):
        u_a, u_b = self.fn(theta_a, theta_b)
        return float(u_a), float(u_b)

    def points(self, thetas) -> tuple[np.ndarray, np.ndarray, dict]:
        u = np.array([self.evaluate(ta, tb) for ta, tb in np.asarray(thetas)])
        return u[:, 0], u[:, 1], {}


def random_joint_state(geometry: LatticeGeometry, rng) -> np.ndarray:
    L = geometry.size
    amps = rng.normal(size=(L, 2, L, 2)) + 1j * rng.normal(size=(L, 2, L, 2))
    return amps / np.linalg.norm(amps)


def golden_max(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Golden-section maximization of a unimodal scalar function on [lo, hi],
    one probe per call of f."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def stencil_1d(p: float, h: float, lo: float = 0.0, hi: float = np.pi):
    """First/second derivative stencils that stay inside [lo, hi].

    Returns (offsets, w1, w2): offsets to sample at, first-derivative weights,
    second-derivative weights.
    """
    if p - h < lo:
        offs = np.array([0.0, h, 2 * h])
        w1 = np.array([-1.5, 2.0, -0.5]) / h
    elif p + h > hi:
        offs = np.array([-2 * h, -h, 0.0])
        w1 = np.array([0.5, -2.0, 1.5]) / h
    else:
        offs = np.array([-h, 0.0, h])
        w1 = np.array([-0.5, 0.0, 0.5]) / h
    w2 = np.array([1.0, -2.0, 1.0]) / h**2
    return offs, w1, w2


def fd_gradients(evaluator, pts, h: float = 1e-3) -> np.ndarray:
    """Own-payoff gradients (dU_A/dtheta_A, dU_B/dtheta_B) at each point, one
    stencil and one evaluation per probe at a time, the centre included."""
    out = []
    for ta, tb in np.asarray(pts, dtype=float).reshape(-1, 2):
        offs_a, w1a, _ = stencil_1d(ta, h)
        offs_b, w1b, _ = stencil_1d(tb, h)
        u_a = np.array([evaluator.evaluate(ta + o, tb)[0] for o in offs_a])
        u_b = np.array([evaluator.evaluate(ta, tb + o)[1] for o in offs_b])
        out.append([float(w1a @ u_a), float(w1b @ u_b)])
    return np.array(out)


def fd_jacobian(evaluator, ta: float, tb: float, h: float = 1e-2) -> np.ndarray:
    """Game Jacobian [[d2U_A/dA2, d2U_A/dAdB], [d2U_B/dAdB, d2U_B/dB2]] from
    the 3x3 grid of stencil probes around (ta, tb)."""
    offs_a, w1a, w2a = stencil_1d(ta, h)
    offs_b, w1b, w2b = stencil_1d(tb, h)
    u = np.array([[evaluator.evaluate(ta + oa, tb + ob) for ob in offs_b] for oa in offs_a])
    u_a, u_b = u[..., 0], u[..., 1]  # [i, j] samples (ta + offs_a[i], tb + offs_b[j])
    ca, cb = int(np.argmin(np.abs(offs_a))), int(np.argmin(np.abs(offs_b)))
    return np.array(
        [
            [float(w2a @ u_a[:, cb]), float(w1a @ u_a @ w1b)],
            [float(w1a @ u_b @ w1b), float(w2b @ u_b[ca, :])],
        ]
    )
