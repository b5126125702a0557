"""String boundary-value problems discretized into quadratic pencils.

Two variants: a single string clamped at 0 with the eigenparameter in the
boundary condition at a, and two identical strings joined at a shared
endpoint that carries the eigenparameter condition.  Discretization is
variational with lumped mass, so A_h stays symmetric, M_h is positive
diagonal, and the coupling G_h is exactly alpha * e e^T at the boundary
node.  Also provides the constant-potential characteristic function, its
decoupled-eigenvalue closed form, and an RK4 shooting evaluator for
arbitrary sampled potentials.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .pencil import PencilSpec, RankOneCoupling


@dataclass(frozen=True)
class SLProblem:
    """Problem data: potential, interval length, boundary coupling, grid."""

    variant: str
    q_kind: str = "const"
    q_value: float = 0.0
    q_values: tuple = None
    a: float = 1.0
    alpha: float = 1.0
    n: int = 10
    paper_sign_convention: bool = False

    def __post_init__(self):
        if self.variant not in ("single", "double"):
            raise InvalidInput("variant must be single or double")
        if self.q_kind not in ("const", "sampled"):
            raise InvalidInput("q kind must be const or sampled")
        if not self.a > 0:
            raise InvalidInput("a must be positive")
        if self.alpha < 0:
            raise InvalidInput("alpha must be nonnegative")
        if self.n < 2:
            raise InvalidInput("need at least 2 interior points")
        if self.q_kind == "sampled":
            if self.q_values is None or len(self.q_values) != self.n + 1:
                raise InvalidInput(
                    "sampled q needs n+1 values (interior nodes + endpoint)"
                )


def effective_q(problem):
    """Per-node potential on x_i = i h, i = 1..n+1, sign convention applied.

    The closed forms use sqrt(lambda^2 + q), i.e. the equation
    y'' + (lambda^2 + q) y = 0, whose potential is -q in the discretized
    convention -y'' + q y = lambda^2 y; the flag performs that negation.
    """
    if problem.q_kind == "const":
        vals = np.full(problem.n + 1, float(problem.q_value))
    else:
        vals = np.asarray(problem.q_values, dtype=float)
    return -vals if problem.paper_sign_convention else vals


def _require_coupling(problem):
    if problem.alpha <= 0:
        raise InvalidInput("discretization requires alpha > 0")


def discretize_single(problem):
    """Pencil for the clamped string with boundary eigenparameter.

    Unknowns y_1..y_{n+1} at x_i = i h, h = a/(n+1); the Dirichlet value at
    0 is eliminated.  Stiffness (1/h) tridiag(-1, 2, -1) with free-end
    diagonal 1/h, potential lumped with the mass weights (h, ..., h, h/2).
    """
    if problem.variant != "single":
        raise InvalidInput("single-variant problem required")
    _require_coupling(problem)
    n1 = problem.n + 1
    h = problem.a / n1
    q = effective_q(problem)

    w = np.full(n1, h)
    w[-1] = 0.5 * h
    main = np.full(n1, 2.0 / h)
    main[-1] = 1.0 / h
    off = np.full(n1 - 1, -1.0 / h)
    a_h = np.diag(main + q * w) + np.diag(off, 1) + np.diag(off, -1)
    m_h = np.diag(w)
    g_h = np.zeros((n1, n1))
    g_h[-1, -1] = problem.alpha
    return PencilSpec(
        m_h, g_h, a_h,
        rank_one=RankOneCoupling(b=problem.alpha, e_index=n1 - 1),
        m_kind="diag",
    )


def discretize_double(problem):
    """Pencil for two identical strings joined at the eigenparameter node.

    Ordering: segment-1 interior (n), segment-2 interior (n), shared node
    last; dimension 2n+1.  Both segments carry the same potential, so the
    antisymmetric combinations (u, -u, 0) decouple from the boundary node
    and persist for every coupling strength.
    """
    if problem.variant != "double":
        raise InvalidInput("double-variant problem required")
    _require_coupling(problem)
    n = problem.n
    n1 = n + 1
    h = problem.a / n1
    q = effective_q(problem).copy()

    # a resonant constant potential is snapped onto the grid value so the
    # antisymmetric resonance sits exactly in ker A_h instead of a few
    # grid-error units away from it
    if problem.q_kind == "const" and q[0] < 0:
        root = np.sqrt(-q[0]) * problem.a / np.pi
        j = int(round(root))
        if j >= 1 and abs(root - j) <= 1e-6:
            q[:] = -(2.0 / h**2) * (1.0 - np.cos(j * np.pi / n1))

    dim = 2 * n + 1
    shared = dim - 1
    a_h = np.zeros((dim, dim))
    for seg in range(2):
        base = seg * n
        for r in range(n):
            i = base + r
            a_h[i, i] += 2.0 / h
            if r + 1 < n:
                a_h[i, i + 1] += -1.0 / h
                a_h[i + 1, i] += -1.0 / h
        last = base + n - 1
        a_h[last, shared] += -1.0 / h
        a_h[shared, last] += -1.0 / h
        a_h[shared, shared] += 1.0 / h
    wt = np.full(dim, h)
    diag_q = np.concatenate([q[:n], q[:n], q[n:n + 1]])
    a_h[np.arange(dim), np.arange(dim)] += diag_q * wt
    m_h = np.diag(wt)
    g_h = np.zeros((dim, dim))
    g_h[shared, shared] = problem.alpha
    return PencilSpec(
        m_h, g_h, a_h,
        rank_one=RankOneCoupling(b=problem.alpha, e_index=shared),
        m_kind="diag",
    )


def discretize(problem):
    if problem.variant == "single":
        return discretize_single(problem)
    return discretize_double(problem)


def omega(lam, q, a, alpha):
    """Constant-potential characteristic function of the joined strings.

    omega(lam) = s * (2 cos(k a) + alpha lam s) with k = sqrt(lam^2 + q)
    and s = sin(k a)/k.  Entire in lam: both factors are even in k, and the
    removable point k = 0 is evaluated by series.
    """
    lam_arr = np.asarray(lam, dtype=complex)
    scalar = lam_arr.ndim == 0
    z = np.atleast_1d(lam_arr)
    z2 = z * z + q
    w = z2 * (a * a)
    small = np.abs(w) < 1e-12
    k = np.sqrt(np.where(small, 1.0, z2))
    s = np.where(small,
                 a * (1.0 - w / 6.0 + w * w / 120.0),
                 np.sin(k * a) / k)
    c = np.where(small,
                 1.0 - w / 2.0 + w * w / 24.0,
                 np.cos(k * a))
    out = s * (2.0 * c + alpha * z * s)
    return complex(out[0]) if scalar else out.reshape(lam_arr.shape)


def type1_lambdas(q, a, j_max):
    """Decoupled eigenvalues +-sqrt((pi j/a)^2 - q) for j = 1..j_max.

    Returns (values, degenerate_js): a degenerate j is one with
    (pi j/a)^2 = q, where the pair collapses to a single 0 entry.
    """
    if j_max < 1:
        raise InvalidInput("j_max must be >= 1")
    values = []
    degenerate = []
    for j in range(1, j_max + 1):
        t = (np.pi * j / a) ** 2 - q
        tol = 1e-12 * max(1.0, (np.pi * j / a) ** 2, abs(q))
        if abs(t) <= tol:
            values.append(0.0 + 0.0j)
            degenerate.append(j)
        elif t > 0:
            r = np.sqrt(t)
            values.extend([complex(r), complex(-r)])
        else:
            r = np.sqrt(-t)
            values.extend([complex(0.0, r), complex(0.0, -r)])
    return values, degenerate


def shoot_charfn(lam, problem):
    """Characteristic value s'(a) + lam alpha s(a) by fixed-step RK4.

    s solves -s'' + q s = lam^2 s with s(0)=0, s'(0)=1; 4n steps.  The map
    is polynomial in lam^2 per step, hence entire in lam.  alpha = 0 is
    permitted here (pure Neumann-type characteristic value).  lam may be a
    scalar or an array.
    """
    if problem.variant != "single":
        raise InvalidInput("shooting is defined for the single variant")
    lam = np.asarray(lam, dtype=complex)
    scalar = lam.ndim == 0
    lam2 = np.atleast_1d(lam) ** 2

    q = effective_q(problem)
    hg = problem.a / (problem.n + 1)
    xq = hg * np.arange(1, problem.n + 2)

    nsteps = 4 * problem.n
    h = problem.a / nsteps
    # step nodes by the same x += h accumulation the steps use
    nodes = [0.0]
    for _ in range(nsteps):
        nodes.append(nodes[-1] + h)
    nodes = np.asarray(nodes)
    qn = np.interp(nodes, xq, q, left=q[0], right=q[-1]).tolist()
    qh = np.interp(nodes[:-1] + 0.5 * h, xq, q, left=q[0], right=q[-1]).tolist()
    y = np.zeros_like(lam2)
    dy = np.ones_like(lam2)
    for i in range(nsteps):
        q1, q2, q4 = qn[i], qh[i], qn[i + 1]
        k1y = dy
        k1d = (q1 - lam2) * y
        k2y = dy + 0.5 * h * k1d
        k2d = (q2 - lam2) * (y + 0.5 * h * k1y)
        k3y = dy + 0.5 * h * k2d
        k3d = (q2 - lam2) * (y + 0.5 * h * k2y)
        k4y = dy + h * k3d
        k4d = (q4 - lam2) * (y + h * k3y)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        dy = dy + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    out = dy + np.atleast_1d(lam) * problem.alpha * y
    return complex(out[0]) if scalar else out.reshape(np.shape(lam))
