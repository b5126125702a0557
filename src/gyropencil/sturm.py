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


def _string_pencil(problem, q, segments):
    """Pencil of string segments joined at the eigenparameter node.

    Each segment has the unknowns y_1..y_{n+1} at x_i = i h, h = a/(n+1),
    the Dirichlet value at 0 eliminated, and q on them; segments[k] numbers
    them, all ending on the last unknown, the joint.  A segment adds
    stiffness (1/h) tridiag(-1, 2, -1) with free-end diagonal 1/h and the
    potential lumped with the mass weights (h, ..., h, h/2).
    """
    if problem.alpha <= 0:
        raise InvalidInput("discretization requires alpha > 0")
    n1 = problem.n + 1
    h = problem.a / n1
    w = np.full(n1, h)
    w[-1] = 0.5 * h
    main = np.full(n1, 2.0 / h)
    main[-1] = 1.0 / h
    dim = int(np.max(segments)) + 1
    m_h, g_h, a_h = (np.zeros((dim, dim)) for _ in range(3))
    for nodes in segments:
        m_h[nodes, nodes] += w
        a_h[nodes, nodes] += main + q * w
        a_h[nodes[:-1], nodes[1:]] = a_h[nodes[1:], nodes[:-1]] = -1.0 / h
    g_h[-1, -1] = problem.alpha
    return PencilSpec(
        m_h, g_h, a_h,
        rank_one=RankOneCoupling(b=problem.alpha, e_index=dim - 1),
        m_kind="diag",
    )


def discretize_single(problem):
    """Pencil for the clamped string with boundary eigenparameter: one
    segment whose free end carries it (_string_pencil)."""
    if problem.variant != "single":
        raise InvalidInput("single-variant problem required")
    return _string_pencil(problem, effective_q(problem), [np.arange(problem.n + 1)])


def discretize_double(problem):
    """Pencil for two identical strings joined at the eigenparameter node.

    Ordering: segment-1 interior (n), segment-2 interior (n), shared node
    last; dimension 2n+1.  The shared node takes both free-end halves.
    Both segments carry the same potential, so the antisymmetric
    combinations (u, -u, 0) decouple from the boundary node and persist for
    every coupling strength.
    """
    if problem.variant != "double":
        raise InvalidInput("double-variant problem required")
    n = problem.n
    q = effective_q(problem).copy()

    # a resonant constant potential is snapped onto the grid value so the
    # antisymmetric resonance sits exactly in ker A_h instead of a few
    # grid-error units away from it
    if problem.q_kind == "const" and q[0] < 0:
        h = problem.a / (n + 1)
        root = np.sqrt(-q[0]) * problem.a / np.pi
        j = int(round(root))
        if j >= 1 and abs(root - j) <= 1e-6:
            q[:] = -(2.0 / h**2) * (1.0 - np.cos(j * np.pi / (n + 1)))

    return _string_pencil(problem, q, [np.r_[0:n, 2 * n], np.r_[n:2 * n, 2 * n]])


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
    s = np.sin(k * a) / k
    c = np.cos(k * a)
    if small.any():
        ws = w[small]
        s[small] = a * (1.0 - ws / 6.0 + ws * ws / 120.0)
        c[small] = 1.0 - ws / 2.0 + ws * ws / 24.0
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


# elements (steps x points) evaluated per block of the shooting product:
# enough steps per numpy call to amortize its overhead for small batches,
# few enough that the block's temporaries stay small
_BLOCK_ELEMENTS = 4096


def shoot_charfn(lam, problem):
    """Characteristic value s'(a) + lam alpha s(a) by fixed-step RK4.

    s solves -s'' + q s = lam^2 s with s(0)=0, s'(0)=1; 4n steps.  The map
    is polynomial in lam^2 per step, hence entire in lam.  alpha = 0 is
    permitted here (pure Neumann-type characteristic value).  lam may be a
    scalar or an array.

    One RK4 step of (y, y')' = [[0, 1], [q - t, 0]] (y, y'), t = lam^2, is
    the 2x2 matrix T_i(t) whose entries are quadratics in t.  Their
    coefficients are set up once per call; the steps then go in blocks of
    about _BLOCK_ELEMENTS steps x points, each block's matrices multiplied
    out by a balanced pairwise tree (later step on the left) and applied
    to (y, y').  A block takes three numpy calls for its matrices, three per
    tree level and two to apply; a call on P points takes ceil(4n / B)
    blocks of B = max(1, _BLOCK_ELEMENTS // P) steps, where a step-by-step
    loop makes about 30 calls per step.  The values are the RK4 map's,
    equal to that loop up to rounding.
    """
    if problem.variant != "single":
        raise InvalidInput("shooting is defined for the single variant")
    lam = np.asarray(lam, dtype=complex)
    scalar = lam.ndim == 0
    lam1 = lam.ravel()
    lam2 = lam1 ** 2

    q = effective_q(problem)
    hg = problem.a / (problem.n + 1)
    xq = hg * np.arange(1, problem.n + 2)

    nsteps = 4 * problem.n
    h = problem.a / nsteps
    # step nodes by x += h accumulation (cumsum adds in sequence)
    nodes = np.concatenate([[0.0], np.cumsum(np.full(nsteps, h))])
    qn = np.interp(nodes, xq, q, left=q[0], right=q[-1])
    q2 = np.interp(nodes[:-1] + 0.5 * h, xq, q, left=q[0], right=q[-1])
    q1, q4 = qn[:-1], qn[1:]

    # coef[p, r, c, i]: coefficient of t^p in entry (r, c) of T_i, complex
    # so the in-place updates of the complex block need no casts
    h2 = h * h
    coef = np.zeros((3, 2, 2, nsteps), dtype=complex)
    coef[0, 0, 0] = 1.0 + h2 / 6.0 * (q1 + 2.0 * q2 + h2 * q1 * q2 / 4.0)
    coef[1, 0, 0] = -h2 / 6.0 * (3.0 + h2 * (q1 + q2) / 4.0)
    coef[2, 0, 0] = h2 * h2 / 24.0
    coef[0, 0, 1] = h + h * h2 * q2 / 6.0
    coef[1, 0, 1] = -h * h2 / 6.0
    coef[0, 1, 0] = h / 6.0 * (q1 + 4.0 * q2 + q4 + h2 * q2 * (q1 + q4) / 2.0)
    coef[1, 1, 0] = -h / 6.0 * (6.0 + h2 * (q1 + 2.0 * q2 + q4) / 2.0)
    coef[2, 1, 0] = h * h2 / 6.0
    coef[0, 1, 1] = 1.0 + h2 / 6.0 * (2.0 * q2 + q4 + h2 * q2 * q4 / 4.0)
    coef[1, 1, 1] = -h2 / 6.0 * (3.0 + h2 * (q2 + q4) / 4.0)
    coef[2, 1, 1] = h2 * h2 / 24.0

    npts = lam2.size
    block = max(1, _BLOCK_ELEMENTS // max(1, npts))
    # the step matrices of a block are written into one buffer, and the
    # state is updated in place: fresh temporaries of this size each step
    # cost more in page faults than the arithmetic
    work = np.empty((2, 2, block, npts), dtype=complex)
    v = np.zeros((2, npts), dtype=complex)
    v[1] = 1.0
    # the t^2 coefficients are the same for every step
    c2t = coef[2, :, :, :1, None] * lam2
    for start in range(0, nsteps, block):
        c = coef[:2, :, :, start:start + block, None]
        m = work[:, :, :c.shape[3]]
        np.add(c2t, c[1], out=m)
        m *= lam2
        m += c[0]
        while m.shape[2] > 1:
            k = m.shape[2] // 2
            later, earlier = m[:, :, 1:2 * k:2], m[:, :, 0:2 * k:2]
            prod = later[:, :1] * earlier[0] + later[:, 1:] * earlier[1]
            m = np.concatenate([prod, m[:, :, 2 * k:]], axis=2) if 2 * k < m.shape[2] else prod
        # v[i] = sum_j m[i, j] v[j]
        m = m[:, :, 0]
        m *= v
        np.add(m[:, 0], m[:, 1], out=v)
    out = v[1] + lam1 * problem.alpha * v[0]
    return complex(out[0]) if scalar else out.reshape(lam.shape)
