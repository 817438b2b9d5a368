"""Independent reference implementations used to cross-check the structured
evolution (explicit dense unitaries, the component recurrence relations and
a site-major single-walker loop), the lockstep stationary-point search (a
one-lane golden-section search) and the batched finite differences (a scalar
3-point stencil per point, and the same stencil of those gradients), and the
evaluator adapter that drives the searches with an analytic payoff function.
Also the per-cell CSV writer that the block-formatted float table writer is
checked against byte for byte.

Kept deliberately naive (O(L^4) matrices, explicit loops); nothing here is
shared with the production code paths beyond the documented index layout,
except `kernel_steps`: the production kernel run on the whole lattice for
every step, the bitwise reference of the light cone and of its handoff to
the lattice, through the two-walker gather that
`product_shift_permutation` builds from each walker's `_walker_shift`.
"""

import csv

import numpy as np

from qwgames.dynamics import (
    WalkConfig,
    _coin_krons,
    _phase_support,
    _steps,
    _walker_shift,
    coin_matrix,
)
from qwgames.hilbert import Boundary, LatticeGeometry, RIGHT, LEFT, coin_vector, measure_joint
from qwgames.interactions import InteractionSpec, coupling, phase


def make_initial_state(geometry: LatticeGeometry, coin_a, coin_b) -> np.ndarray:
    """(L, 2, L, 2) site-major amplitudes of both walkers at x = 0 with coin
    states coin_a (x) coin_b."""
    ca = coin_vector(coin_a, "A")
    cb = coin_vector(coin_b, "B")
    L = geometry.size
    amps = np.zeros((L, 2, L, 2), dtype=complex)
    o = geometry.offset(0)
    amps[o, :, o, :] = np.outer(ca, cb)
    return amps


def channel_major(psi: np.ndarray) -> np.ndarray:
    """(n, 2, n, 2) site-major joint amplitudes in the kernel's (4, n, n)
    channel-major layout, channel c = 2 s_A + s_B."""
    return psi.transpose(1, 3, 0, 2).reshape(4, len(psi), -1)


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


def product_shift_permutation(L: int, boundary) -> np.ndarray:
    """Flat gather indices of the two-walker shift on (2, 2, L, L)
    channel-major arrays, built as the product of the two walkers' sources:
    destination (s_A, s_B, x_A, x_B) reads coin 2 s'_A + s'_B at site
    x'_A L + x'_B."""
    s, x = np.divmod(_walker_shift(L, boundary).reshape(2, L), L)  # (s, x)
    site = x[:, None, :, None] * L + x[None, :, None, :]
    coin = 2 * s[:, None, :, None] + s[None, :, None, :]
    return (coin * L * L + site).reshape(-1)


def kernel_steps(config: WalkConfig, theta_a, theta_b, etas, psi) -> np.ndarray:
    """(L, 2, L, 2) state psi after one `_steps` call on the whole lattice,
    one kernel step per noise jitter in etas, under the strategy pair
    (theta_a, theta_b)."""
    geom, spec = config.geometry, config.interaction
    thetas = np.array([[theta_a, theta_b]])
    index, distinct, inverse = _phase_support(spec, geom, slice(None))
    values = distinct[inverse]
    coup = np.asarray(coupling(spec, thetas[:, 0], thetas[:, 1]), dtype=float)
    factors = np.exp(1j * coup[:, None, None] * values)
    phase = index, values, factors, np.asarray(etas, dtype=float)
    amps = psi.transpose(1, 3, 0, 2).reshape(1, 4, -1).copy()  # channel-major
    perm = product_shift_permutation(geom.size, geom.boundary)
    _steps(amps, np.empty_like(amps), _coin_krons(thetas), perm, len(etas), phase)
    return amps.reshape(2, 2, geom.size, geom.size).transpose(2, 0, 3, 1)


def noise_draws(config: WalkConfig) -> np.ndarray:
    """The walk's per-step jitters: config.steps uniform draws on
    [-sigma, sigma] seeded with config.seed, zeros unless the walk is noisy."""
    spec = config.interaction
    if not spec.noisy:
        return np.zeros(config.steps)
    rng = np.random.default_rng(config.seed)
    return rng.uniform(-spec.noise_sigma, spec.noise_sigma, config.steps)


def full_lattice_distributions(config: WalkConfig, thetas) -> np.ndarray:
    """P per profile from `_steps` on the whole lattice, run as `kernel_steps`
    runs it, with the walk's own noise draws."""
    psi = make_initial_state(config.geometry, config.coin_a, config.coin_b)
    etas = noise_draws(config)
    geom = config.geometry
    return np.stack([
        measure_joint(kernel_steps(config, ta, tb, etas, psi), geom).probabilities
        for ta, tb in thetas
    ])


def site_major_singles(geometry: LatticeGeometry, steps: int, thetas, coin) -> np.ndarray:
    """(B, L, 2) amplitudes of B free walkers, one per angle, evolved site
    major: each step is one (B, 1, 2, 2) @ (B, L, 2, 2) coin matmul on the
    float view, B * L separate 2 x 2 products, then one gather of each
    destination's source (x, s).  The bitwise reference of `evolve_singles`.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    L = geometry.size
    amps = np.zeros((len(thetas), L, 2), dtype=complex)
    amps[:, geometry.offset(0)] = coin
    r = coin_matrix(thetas)[:, None]  # (B, 1, 2, 2), broadcast over sites
    x = np.arange(L)
    src_x = np.stack([x - 1, x + 1], axis=1)
    src_s = np.tile([RIGHT, LEFT], (L, 1))
    if geometry.boundary is Boundary.PERIODIC:
        src_x %= L
    else:
        src_x[0, RIGHT], src_s[0, RIGHT] = 0, LEFT
        src_x[-1, LEFT], src_s[-1, LEFT] = L - 1, RIGHT
    perm = (2 * src_x + src_s).reshape(-1)  # flat (x, s) gather indices
    for _ in range(steps):
        coined = np.matmul(r, amps.view(float).reshape(*amps.shape, 2))
        amps = coined.view(complex).reshape(len(amps), -1).take(perm, axis=1).reshape(amps.shape)
    return amps


def mirror_pairs(thetas) -> np.ndarray:
    """(2, m) rows k with theta_A > theta_B whose mirror (theta_B, theta_A)
    is in the batch, ascending, over the last row holding each mirror, by a
    dict of the rows with theta_A < theta_B."""
    rows = np.asarray(thetas, dtype=float).tolist()
    lower = {(a, b): k for k, (a, b) in enumerate(rows) if a < b}
    pairs = [(k, lower[b, a]) for k, (a, b) in enumerate(rows) if a > b and (b, a) in lower]
    return np.array(pairs, dtype=int).reshape(-1, 2).T


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
    """First-derivative stencil that stays inside [lo, hi]: the offsets to
    sample at and their weights."""
    if p - h < lo:
        return np.array([0.0, h, 2 * h]), np.array([-1.5, 2.0, -0.5]) / h
    if p + h > hi:
        return np.array([-2 * h, -h, 0.0]), np.array([0.5, -2.0, 1.5]) / h
    return np.array([-h, 0.0, h]), np.array([-0.5, 0.0, 0.5]) / h


def fd_gradients(evaluator, pts, h: float = 1e-3) -> np.ndarray:
    """Own-payoff gradients (dU_A/dtheta_A, dU_B/dtheta_B) at each point, one
    stencil and one evaluation per probe at a time, the centre included."""
    out = []
    for ta, tb in np.asarray(pts, dtype=float).reshape(-1, 2):
        offs_a, w1a = stencil_1d(ta, h)
        offs_b, w1b = stencil_1d(tb, h)
        u_a = np.array([evaluator.evaluate(ta + o, tb)[0] for o in offs_a])
        u_b = np.array([evaluator.evaluate(ta, tb + o)[1] for o in offs_b])
        out.append([float(w1a @ u_a), float(w1b @ u_b)])
    return np.array(out)


def fd_jacobian(evaluator, ta: float, tb: float, h: float = 1e-3) -> np.ndarray:
    """Jacobian J[i, j] = d(dU_i/dtheta_i)/dtheta_j at (ta, tb): the stencil
    of `fd_gradients` along each angle, one probe's gradient at a time, the
    centre included."""
    offs_a, w1a = stencil_1d(ta, h)
    offs_b, w1b = stencil_1d(tb, h)
    g_a = np.array([fd_gradients(evaluator, [[ta + o, tb]], h)[0] for o in offs_a])
    g_b = np.array([fd_gradients(evaluator, [[ta, tb + o]], h)[0] for o in offs_b])
    return np.array([[float(w1a @ g_a[:, i]), float(w1b @ g_b[:, i])] for i in (0, 1)])


def write_csv_cells(path, header, rows):
    """One CSV table through csv.writer, one cell at a time: each float
    (numpy's too) as %.17g, everything else as csv.writer prints it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{float(v):.17g}" if isinstance(v, float) else v for v in row] for row in rows)
