"""Quadratic pencil L(lambda, eta) = lambda^2 M - lambda eta G - A.

M and G are real symmetric positive semidefinite, A real symmetric, and the
joint kernel of the three matrices is trivial.  The featured case carries a
rank-one coupling G = b g g^T, g a unit vector; PencilSpec finds it from
G itself (spec.rank_one), whatever form G came in, so one (M, G, A)
always gives one answer.  spectrum() solves one eta and spectra() a list
of them, by one of two routes:

- a rank-one G with M definite, or with M diagonal, its zero entries
  massless coordinates whose block A00 of A is invertible (the modal
  route): the massless coordinates are eliminated, and the modes of the
  Schur complement S = A11 - A10 A00^-1 A01 against the massive block M11
  (of (A, M) itself when M is definite) are solved once per spec.  Modes
  with w = Phi^T u zero, u = g1 - A10 A00^-1 g0 (g0 and g1 the massless
  and massive parts of g), give the type I values +-sqrt(mu) directly;
  the coupled values are the zeros of the secular function
  f(lam) = 1 + c gamma lam - c lam sum_k w_k^2 / (lam^2 - mu_k),
  c = eta b, times the pole product, solved per eta (eigvals of a small
  companion below a size crossover when gamma = 0).  gamma = g0^T A00^-1 g0
  adds one value near -1/(c gamma) when nonzero, and the secular solver
  gives every value.
  Inclusion discs around the values certify the multiplicities, and
  records take geo, types and vectors from the modal structure.
- every other pencil (the companion route): substitute nu = lambda - sigma
  with L(sigma, eta) invertible, reverse mu = 1/nu, and solve the standard
  companion eigenproblem of the reversed polynomial.  Eigenvalues at
  infinity (singular M) show up as mu ~ 0 and are discarded but counted.
  A record's type I part is the part of its kernel vectors orthogonal to
  g.  Each eta takes its own shift, and the companions of a chunk of etas
  come from one stacked solve and go through one stacked eig.

On both routes spectra() runs each step once over a chunk of etas.

Both routes group values into records by one rule, _disc_links and one
connected-components pass: discs that meet are linked (certified
inclusion discs on the modal route, first-order error discs on the
companion route), and the values inside the zero band form one record.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
# scipy.linalg (about 0.25 s to import) is imported inside the functions
# that use it, so commands that never solve a spectrum do not load it

from . import linalg
from .errors import (
    ConditionViolation,
    DimensionMismatch,
    InvalidInput,
    MassNotDefinite,
    NoConvergence,
    NotAnEigenvalue,
    PreconditionKerMA,
    ShiftExhausted,
)

_EPS = np.finfo(float).eps


@dataclass
class RankOneCoupling:
    """G = b g g^T with b > 0 and g a unit n-vector, as PencilSpec finds it
    from G (_rank_one)."""

    b: float
    g: np.ndarray


@dataclass
class ConditionReport:
    clauses: list  # (name, passed, detail)

    @property
    def all_pass(self):
        return all(ok for _, ok, _ in self.clauses)

    def failed(self):
        return [name for name, ok, _ in self.clauses if not ok]


def _diagonal(mat):
    """The diagonal of a real matrix whose off-diagonal entries are all
    zero, else None."""
    if np.iscomplexobj(mat):
        return None
    diag = np.diagonal(mat)
    if np.count_nonzero(mat) != np.count_nonzero(diag):
        return None
    return diag.copy()


def _rank_one(g, g_rows, g_eigs):
    """RankOneCoupling(b, g) when the real G is b g g^T to rounding, else
    None: every eigenvalue (g_eigs, ascending) but the largest, b, lies
    below 8 r eps b in modulus, r = g_rows.size, so b > 0.  With one
    nonzero row k, g = e_k exactly; else g is the top eigenvector of G's
    nonzero block, its largest entry in modulus made positive."""
    r, b = g_rows.size, float(g_eigs[-1])
    if np.iscomplexobj(g) or not np.abs(g_eigs[:-1]).max(initial=0.0) < 8 * r * _EPS * b:
        return None
    vec = np.zeros(g.shape[0])
    if r == 1:
        vec[g_rows] = 1.0
    else:
        import scipy.linalg as sla
        top = sla.eigh(g[np.ix_(g_rows, g_rows)], subset_by_index=[r - 1, r - 1],
                       check_finite=False)[1][:, 0]
        vec[g_rows] = top * np.sign(top[np.abs(top).argmax()])
    return RankOneCoupling(b=b, g=vec)


def _eigvalsh(mat, diag):
    """Ascending eigenvalues of the symmetric part of mat.  For a diagonal
    matrix they are its sorted diagonal, which is what eigvalsh returns."""
    if diag is not None:
        return np.sort(diag)
    import scipy.linalg as sla
    return sla.eigvalsh(0.5 * (mat + mat.T), check_finite=False)


class PencilSpec:
    """Validated triple (M, G, A) plus derived constants.

    beta = max(0, -lambda_min(A)) is the lower-bound constant of A,
    m_mass = lambda_min(M), g_top = lambda_max(G).  scale is used to make
    thresholds dimensionless.  rank_one is the RankOneCoupling when G is
    b g g^T to rounding, else None.
    """

    def __init__(self, m, g, a, validate=True):
        self.m = linalg.as_matrix(m, "M")
        self.g = linalg.as_matrix(g, "G")
        self.a = linalg.as_matrix(a, "A")
        if self.m.shape != self.g.shape or self.m.shape != self.a.shape:
            raise DimensionMismatch("M, G, A must share one shape")
        self.n = self.m.shape[0]

        # None unless M is diagonal; then M V is a row scaling
        self.m_diag = _diagonal(self.m)
        # the rows of G that hold a nonzero entry
        self.g_rows = np.flatnonzero(np.any(self.g != 0.0, axis=1))
        m_eigs = _eigvalsh(self.m, self.m_diag)
        g_eigs = _eigvalsh(self.g, _diagonal(self.g))
        self.rank_one = _rank_one(self.g, self.g_rows, g_eigs)
        a_eigs = _eigvalsh(self.a, _diagonal(self.a))
        self.m_mass = float(m_eigs[0])
        self.g_min = float(g_eigs[0])
        self.g_top = float(g_eigs[-1])
        self.a_min = float(a_eigs[0]) if self.n else 0.0
        self.beta = max(0.0, -self.a_min)
        self.norm_m = float(np.max(np.abs(m_eigs))) if self.n else 0.0
        self.norm_g = float(np.max(np.abs(g_eigs))) if self.n else 0.0
        self.norm_a = float(np.max(np.abs(a_eigs))) if self.n else 0.0
        self._a_eigs = a_eigs
        self.spec_norm = max(self.norm_m, self.norm_g, self.norm_a)
        self.scale = max(1.0, self.spec_norm)
        self._modes = None
        # the validation report, or None for a spec built with validate=False
        self.condition_report = None

        if validate:
            report = validate_condition_I(self)
            if not report.all_pass:
                raise ConditionViolation(
                    "hypotheses violated: %s" % ", ".join(report.failed()),
                    report,
                )
            self.condition_report = report

    @functools.cached_property
    def residual_stack(self):
        """[A; G's nonzero rows; M], with M left out when it is diagonal."""
        parts = [self.a, self.g[self.g_rows]]
        if self.m_diag is None:
            parts.append(self.m)
        return np.vstack(parts)

    @functools.cached_property
    def mg_min(self):
        """lambda_min(M + G)."""
        return float(np.linalg.eigvalsh(self.m + self.g)[0])

    @functools.cached_property
    def kernel_dims(self):
        """(dim ker A, dim(ker A ∩ ker G)) at physics-scale rank tolerances.

        The engineered kernels carried by the discretizations are exact
        only to ~1e-13 * norm, so the machine-eps default is too sharp here.
        A's singular values are the moduli of its eigenvalues, which the
        spec already holds; the stack [A; G] takes a rank SVD.
        """
        na = max(self.norm_a, np.finfo(float).tiny)
        n_ker = int(np.count_nonzero(np.abs(self._a_eigs) <= 1e-8 * na))
        stack = np.vstack([self.a, self.g])
        p = self.n - linalg.rank_with_tol(stack, tol=1e-8 * max(na, self.norm_g))
        return n_ker, p

    @property
    def m_definite(self):
        """True iff lambda_min(M) > 1e-10 max(1, |M|): M is definite."""
        return self.m_mass > 1e-10 * max(1.0, self.norm_m)

    @property
    def g_definite(self):
        """True iff lambda_min(G) > 1e-10 max(1, |G|): G is definite."""
        return self.g_min > 1e-10 * max(1.0, self.norm_g)

    @functools.cached_property
    def ker_ma_trivial(self):
        """True iff ker M intersect ker A = {0} (rank of [M; A] is n).

        True by construction when M is definite; the rank SVD runs only
        otherwise.
        """
        return self.m_definite or (
            linalg.rank_with_tol(np.vstack([self.m, self.a])) == self.n)


def validate_condition_I(spec):
    """Per-clause validity report for the standing hypotheses."""
    clauses = []
    psd_tol_m = 1e-10 * max(1.0, spec.norm_m)
    psd_tol_g = 1e-10 * max(1.0, spec.norm_g)
    sym_m = linalg.symmetry_defect(spec.m) <= 1e-12 * max(1.0, linalg.max_abs(spec.m))
    sym_g = linalg.symmetry_defect(spec.g) <= 1e-12 * max(1.0, linalg.max_abs(spec.g))
    defect_a = linalg.symmetry_defect(spec.a)
    sym_a = defect_a <= 1e-12 * max(1.0, linalg.max_abs(spec.a))
    clauses.append((
        "m_symmetric_psd", sym_m and spec.m_mass >= -psd_tol_m,
        "lambda_min(M)=%.3e" % spec.m_mass,
    ))
    clauses.append((
        "g_symmetric_psd", sym_g and spec.g_min >= -psd_tol_g,
        "lambda_min(G)=%.3e" % spec.g_min,
    ))
    clauses.append(("a_symmetric", sym_a, "defect=%.3e" % defect_a))
    # for symmetric M > 0, sigma_min([M; G; A]) >= lambda_min(M); above the
    # bound it clears rank_with_tol's cutoff 3n eps sigma_max twice over
    bound = 6 * spec.n * _EPS * np.sqrt(spec.norm_m ** 2 + spec.norm_g ** 2 + spec.norm_a ** 2)
    joint = (sym_m and sym_g and sym_a and spec.m_mass > bound) or (
        linalg.rank_with_tol(np.vstack([spec.m, spec.g, spec.a])) == spec.n)
    clauses.append(("joint_kernel_trivial", joint, "rank[M;G;A] vs n=%d" % spec.n))
    return ConditionReport(clauses)


def evaluate(spec, lam, eta):
    """L(lambda, eta) = lambda^2 M - lambda eta G - A, exact evaluation."""
    return (lam * lam) * spec.m - (lam * eta) * spec.g - spec.a


@dataclass
class EigenRecord:
    lam: complex
    alg_mult: int
    geo_mult: int
    type1_mult: int
    type2_mult: int
    vectors: np.ndarray  # columns span (an approximation of) ker L(lam, eta)
    residual: float
    zero_flagged: bool = False
    types_classified: bool = True
    # uncertainty of lam: the largest distance of a member value from it, or
    # for one value its error disc's radius (companion route; 0 on modal)
    spread: float = field(default=0.0, compare=False)


@dataclass
class SpectrumResult:
    eta: float
    records: list
    n_finite: int
    discarded_infinite: int
    scale: float
    # route ("modal", "companion"), shift (companion only), discarded_infinite,
    # type1_from ("modes", "kernel_vectors", "unclassified") and more per
    # route: coupled_modes and coupled_solver (modal), type1_svd_fallbacks
    # (companion: records whose type split took _vector_type1's SVD)
    diagnostics: dict = field(default_factory=dict, compare=False)
    # record values for find(), built on first use; records do not change
    # once the result is returned
    _lams: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def values(self, expand=False):
        if expand:
            out = []
            for r in self.records:
                out.extend([r.lam] * r.alg_mult)
            return np.asarray(out)
        return np.asarray([r.lam for r in self.records])

    def find(self, lam, tol=None):
        """Record whose representative lies within cluster tolerance of lam."""
        if not self.records:
            return None
        if tol is None:
            tol = 1e-6 * max(1.0, abs(lam))
        if self._lams is None:
            self._lams = self.values()
        dist = np.abs(self._lams - lam)
        best = int(np.argmin(dist))
        if dist[best] <= tol:
            return self.records[best]
        return None

    @property
    def types_classified(self):
        return all(r.types_classified for r in self.records)


# Deterministic shift ladder for regularizing L(sigma, eta), tried in order.
# Irrational-looking values make accidental eigenvalue hits unlikely.
_SHIFTS = (
    0.0,
    0.123456789,
    -0.987654321,
    1.414213562,
    -2.718281828,
    0.31830988618,
    -1.77245385090,
    2.50662827463,
)


def choose_shift(spec, eta):
    """First candidate shift keeping L(sigma, eta) comfortably invertible."""
    thresh = 1e-8 * max(spec.spec_norm, np.finfo(float).tiny)
    for sigma in _SHIFTS:
        if linalg.smallest_singular_value(evaluate(spec, sigma, eta)) > thresh:
            return sigma
    raise ShiftExhausted(
        "no candidate shift regularizes L(sigma, eta=%r)" % (eta,)
    )


def _kernel_tol(spec, rep, eta, spread, svals_max, nrows):
    """Rank cutoff for L evaluated at a cluster representative.

    The representative is off the true eigenvalue by at most the cluster
    spread, which perturbs L by spread*(2|rep| ||M|| + eta ||G||) + spread^2 ||M||.
    Elementwise over arrays of representatives.
    """
    pert = spread * (2.0 * np.abs(rep) * spec.norm_m + np.abs(eta) * spec.norm_g)
    pert = pert + spread * spread * spec.norm_m
    return np.maximum(np.maximum(nrows * _EPS * svals_max, 3.0 * pert),
                      1e-13 * spec.scale)


def _real_if_zero_imag(lam):
    return complex(lam.real, 0.0) if abs(lam.imag) == 0.0 else lam


# Values within _ZERO_BAND * scale of 0 are numerically zero: they form one
# record, whose kernel is ker A (its type I part ker A ∩ ker G)
_ZERO_BAND = 1e-7


def _is_real(lam):
    """The relative realness test shared by the tracker and the checkers;
    elementwise on complex arrays."""
    return abs(lam.imag) <= 1e-7 * (1.0 + abs(lam.real))


def _matmul_blocks(a, b, block):
    """a @ b.real, column j of b belonging to block block[j] (one block
    when block is None), with one product per block when the blocks are
    wide and one stacked matmul per distinct block width when they are
    narrow.

    BLAS picks its kernel by the shape and memory order of the operands, so
    one product over the columns of many blocks can differ in the last bits
    from the product over one block.  A product over a copy of one block's
    columns, or a stacked matmul whose items are such copies, keeps the
    memory order of b (C order, or F order as fancy indexing x[:, cols]
    leaves it) and so multiplies each block exactly as a @ b.real would for
    a b holding that block's columns alone, in their order.  The stacking
    copies grow with the entries of b and the per-block calls with the
    number of blocks: per block is the faster once the blocks average 700
    entries of b (measured crossover, one BLAS thread).
    """
    widths = [] if block is None else np.bincount(block)
    nblocks = np.count_nonzero(widths)
    if nblocks <= 1 or b.size == 0:
        return a @ b.real
    rows = b.shape[0]
    order = np.argsort(block, kind="stable")
    starts = np.cumsum(widths) - widths
    if b.size >= 700 * nblocks:
        prods = []
        for lo, w in zip(starts[widths > 0].tolist(), widths[widths > 0].tolist()):
            cols = order[lo:lo + w]
            part = b.take(cols, axis=1) if b.flags.c_contiguous else b.T[cols].T
            prods.append(a @ part.real)
        return np.concatenate(prods, axis=1).take(np.argsort(order), axis=1)
    out = np.empty((a.shape[0], b.shape[1]))
    for w in np.unique(widths[widths > 0]).tolist():
        cols = order[(starts[widths == w][:, None] + np.arange(w)).ravel()]
        if b.flags.c_contiguous:
            items = np.ascontiguousarray(b[:, cols].reshape(rows, -1, w).transpose(1, 0, 2))
        else:
            items = b.T[cols].reshape(-1, w, rows).transpose(0, 2, 1)
        out[:, cols] = np.matmul(a, items.real).transpose(1, 0, 2).reshape(a.shape[0], -1)
    return out


def _simple_pairs(spec, eta, lams, vecs, block=None):
    """Unit eigenvectors v, residuals ||L(lam, eta) v|| and slopes
    |v^T L'(lam, eta) v|, L' = 2 lam M - eta G, of eigenpairs.

    Column j of vecs belongs to lams[j] (and eta[j] for an array eta).  A
    vector whose imaginary part is rounding noise is made exactly real.
    The residuals come from one product with the stack [A; G's nonzero
    rows; M] (M left out when diagonal), so they may differ from a
    per-value evaluate() in the last bits; the slopes reuse its M v and
    G v rows.  Columns from several spectra carry their spectrum's number
    in block (_matmul_blocks), which keeps each column's bits those of its
    spectrum alone.
    """
    nrm = np.linalg.norm(vecs, axis=0)
    vecs = vecs / np.where(nrm > 0.0, nrm, 1.0)
    noise = np.max(np.abs(vecs.imag), axis=0) <= 1e-14 * np.maximum(
        1.0, np.max(np.abs(vecs.real), axis=0))
    vecs[:, noise] = vecs[:, noise].real
    n, rows = spec.n, spec.g_rows
    stack = spec.residual_stack
    prod = _matmul_blocks(stack, vecs, block)
    cplx = np.flatnonzero(~noise)
    if cplx.size or np.any(lams.imag):
        prod = prod.astype(complex)
        if cplx.size:
            prod[:, cplx] += 1j * _matmul_blocks(stack, vecs.imag[:, cplx],
                                                 None if block is None else block[cplx])
        v = vecs
    else:
        lams, v = lams.real, vecs.real
    mv = prod[n + rows.size:] if spec.m_diag is None else spec.m_diag[:, None] * v
    gv = prod[n:n + rows.size]
    resid = (lams * lams) * mv - prod[:n]
    resid[rows] -= (lams * eta) * gv
    tilt = v * ((2.0 * lams) * mv)
    tilt[rows] -= v[rows] * (eta * gv)
    # with F-ordered vecs, resid and tilt mix memory orders, and numpy
    # picks the order of the result by the number of columns; down an
    # F-ordered array a column is summed pairwise whatever the other
    # columns, so each column's sums are those of its spectrum alone
    if vecs.flags.f_contiguous:
        resid, tilt = np.asfortranarray(resid), np.asfortranarray(tilt)
    return vecs, np.linalg.norm(resid, axis=0), np.abs(tilt.sum(axis=0))


def _vector_type1(spec, eta, records):
    """dim(ker L(lam, eta) ∩ ker G) per record, from its kernel basis V
    (orthonormal columns) and residual rho = max ||L V c|| over unit c.

    The geo - 1 directions V c with g^T V c = 0 keep the residual of the
    stack [L; b g^T] below rho, so type1 = geo iff hypot(rho, b ||g^T V||)
    <= tol, else geo - 1: the nullity of the stack whenever geo is right
    (Courant-Fischer).  tol is _kernel_tol with the bound hypot(|lam|^2 ||M||
    + |lam| eta ||G|| + ||A||, b) on the stack's norm.  A basis is off ker G
    by about eps / gap next to a close value, so a record whose hypot lies
    below 1e-6 * that bound takes the stack's nullity itself, as does a
    record at lam = 0 (within the zero band), whose kernel is ker A ∩ ker G.

    eta is one coupling for all records or one per record.  Returns the
    type I counts and the mask of the records that took the stack's SVD.
    """
    if not records:
        return [], np.zeros(0, dtype=bool)
    b, g, n = spec.rank_one.b, spec.rank_one.g, spec.n
    lams = np.array([rec.lam for rec in records], dtype=complex)
    eta = np.broadcast_to(np.asarray(eta, dtype=float), lams.shape)
    geo = np.array([rec.geo_mult for rec in records])
    rho = np.array([rec.residual for rec in records])
    spreads = np.array([rec.spread for rec in records])
    along = np.abs(g @ np.hstack([rec.vectors for rec in records])) ** 2
    dist = np.hypot(rho, b * np.sqrt(np.add.reduceat(along, np.cumsum(geo) - geo)))
    alam = np.abs(lams)
    smax = np.hypot(alam * alam * spec.norm_m + alam * eta * spec.norm_g + spec.norm_a, b)
    tol = _kernel_tol(spec, lams, eta, spreads, smax, 2 * n)
    type1 = geo - (dist > tol)
    zero = alam <= _ZERO_BAND * spec.scale
    svd = zero | ((dist > tol) & (dist <= 1e-6 * smax))
    import scipy.linalg as sla
    for i in np.flatnonzero(svd):
        lam, e_i, sp = (0.0, 0.0, 0.0) if zero[i] else (lams[i], eta[i], spreads[i])
        lam = lam if lam.imag else lam.real
        svals = sla.svdvals(np.vstack([evaluate(spec, lam, e_i), spec.g[spec.g_rows]]),
                            check_finite=False)
        type1[i] = n - np.count_nonzero(svals > _kernel_tol(spec, lam, e_i, sp, svals[0], 2 * n))
    return type1.tolist(), svd


@dataclass
class Modes:
    """Modes of (S, M11) for the modal route and what follows from them
    alone, solved once per spec; S = A and M11 = M when M is definite.

    mu holds every mode's eigenvalue; cpl indexes the coupled modes
    (components w_c of w = Phi^T u, vectors phi_c), and q = (sqrt(mu_c),
    -sqrt(mu_c)) are the poles of their secular function, with weights eta
    b q_weight and uncertainties q_err.  Each decoupled mode gives a value
    per sign in d_val (a zero pair for a zero mode).  d_group numbers the
    values outside the zero band (indices d_out) by degenerate run and
    sign, and g_mean holds each such group's mean.  d_col marks the values
    that bring their mode's vector, the columns of d_vecs (a zero pair
    brings one).  phi_c and d_vecs are in the pencil's coordinates, the
    massless part x0 = -A00^-1 A01 x1 filled in.  gamma = g0^T A00^-1 g0
    and y_g = -A00^-1 g0 (_modes), which a coupled vector adds; w_err and
    gamma_err bound the elimination's rounding on each w_c and on gamma
    (all 0 when g0 = 0).  eliminated counts the massless coordinates.
    """

    mu: np.ndarray
    cpl: np.ndarray
    w_c: np.ndarray
    phi_c: np.ndarray
    q: np.ndarray
    q_weight: np.ndarray
    q_err: np.ndarray
    d_val: np.ndarray
    d_out: np.ndarray
    d_group: np.ndarray
    g_mean: np.ndarray
    d_col: np.ndarray
    d_vecs: np.ndarray
    y_g: np.ndarray
    gamma: float = 0.0
    w_err: float = 0.0
    gamma_err: float = 0.0
    eliminated: int = 0

    @property
    def secular(self):
        """Whether the secular equation gives the coupled values (with the
        linear term, or from _SECULAR_MIN_M coupled modes), not eigvals."""
        return bool(self.gamma) or self.cpl.size >= _SECULAR_MIN_M


def _massless_split(spec):
    """(massless, massive) coordinate indices and cond(A00) when the modal
    route may eliminate the massless coordinates, else None: M is
    diagonal, its massless coordinates are the exact zeros of its
    diagonal, the massive ones pass the m_definite rule, and A00
    (massless x massless) is invertible, its eigenvalues above 1e-8 ||A||
    in modulus (kernel_dims' margin: below it A00 is singular at the
    precision of the discretizations' engineered kernels)."""
    d = spec.m_diag
    if d is None:
        return None
    idx0, idx1 = np.flatnonzero(d == 0.0), np.flatnonzero(d != 0.0)
    if idx1.size == 0 or not d[idx1].min() > 1e-10 * max(1.0, spec.norm_m):
        return None
    import scipy.linalg as sla
    ev = np.abs(sla.eigvalsh(spec.a[np.ix_(idx0, idx0)], check_finite=False))
    if not ev.min() > 1e-8 * max(spec.norm_a, np.finfo(float).tiny):
        return None
    return idx0, idx1, float(ev.max() / ev.min())


def _modes(spec):
    """The eta-independent part of the modal route, solved on first use;
    None (also cached) for a spec that takes the companion route.

    With M singular, the massless block is eliminated (_massless_split):
    with g0, g1 the massless and massive parts of g and s = g^T x, the
    massless rows give x0 = -A00^-1 (A01 x1 + c lam s g0), and the rest
    (lam^2 M11 - S) x1 = c lam s u, s (1 + c lam gamma) = u^T x1.  One
    solve Y = A00^-1 [A01 | g0] gives S = A11 - A10 Y1, u = g1 - A10 Y_g,
    gamma = g0^T Y_g and y_g = -Y_g (Golub, SIAM Rev. 15, 1973).
    eigh(S, M11) gives M11-orthonormal modes phi with w = Phi^T u (u = g
    when M is definite, from eigh(A, M)).  Inside each
    group of degenerate mu whose members couple more than once, a
    Householder reflection leaves one coupled vector, and the group's mu
    become the Rayleigh quotients of the reflected vectors.  The reflection
    mixes modes, so a group only holds mu equal up to rounding (relative
    gap 1e-9): a wider group would move values by its spread and call a
    coupled neighbour decoupled.  A mode is decoupled when
    |w_k| <= 1e-8 max |w|.  The coupled mu are then distinct and their w
    nonzero, so the coupled block is unreduced.  A decoupled mode with
    |mu| <= 1e-9 max(1, max |mu|) is a zero mode.
    """
    if spec._modes is not None:
        return spec._modes or None
    g = spec.rank_one.g
    a, m, u, y_g, gamma, split = spec.a, spec.m, g, np.zeros(spec.n), 0.0, None
    if not spec.m_definite:
        split = _massless_split(spec)
        if split is None:
            spec._modes = False
            return None
        idx0, idx1, cond = split
        a10 = spec.a[np.ix_(idx1, idx0)]
        y = np.linalg.solve(spec.a[np.ix_(idx0, idx0)], np.hstack([a10.T, g[idx0, None]]))
        a = spec.a[np.ix_(idx1, idx1)] - a10 @ y[:, :-1]
        a, m = 0.5 * (a + a.T), np.diag(spec.m_diag[idx1])
        y_g[idx0] = -y[:, -1]
        u, gamma = g[idx1] - a10 @ y[:, -1], float(g[idx0] @ y[:, -1])
    import scipy.linalg as sla
    try:
        mu, phi = sla.eigh(a, m, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigh(A, M) failed: %s" % exc)
    w = phi.T @ u
    cut = 1e-8 * float(np.max(np.abs(w)))
    group = np.empty(mu.size, dtype=int)
    i = 0
    while i < mu.size:
        j = i + 1
        gtol = 1e-9 * max(1.0, abs(mu[i]))
        while j < mu.size and abs(mu[j] - mu[i]) <= gtol:
            j += 1
        group[i:j] = i
        if np.count_nonzero(np.abs(w[i:j]) > cut) > 1:
            head = np.copysign(np.linalg.norm(w[i:j]), w[i])
            v = w[i:j].copy()
            v[0] += head
            house = np.eye(j - i) - (2.0 / (v @ v)) * np.outer(v, v)
            phi[:, i:j] = phi[:, i:j] @ house
            mu[i:j] = (house * house) @ mu[i:j]
            w[i:j] = 0.0
            w[i] = -head
        i = j
    mu_max = max(1.0, float(np.max(np.abs(mu))))
    mu_err, w_err, gamma_err = mu_max, 0.0, 0.0
    if split is not None:
        # a backward stable solve puts eps cond(A00) ||Y|| on Y: in S,
        # eps ||A|| cond(A00) ||Y1|| joins mu's backward error; gamma takes
        # eps cond(A00) ||Y_g||, and w (Phi's columns at most 1/sqrt(min M11)
        # long) ||A|| times that
        m11 = spec.m_diag[idx1].min()
        mu_err = max(mu_max, spec.norm_a * (1.0 + cond * np.linalg.norm(y[:, :-1])) / m11)
        gamma_err = _EPS * (1.0 + cond) * np.linalg.norm(y[:, -1])
        w_err = spec.norm_a * gamma_err / np.sqrt(m11)
        psi = np.empty((spec.n, mu.size))
        psi[idx1], psi[idx0] = phi, -y[:, :-1] @ phi
        phi = psi
    coupled = np.abs(w) > 1e-8 * float(np.max(np.abs(w)))
    cpl = np.flatnonzero(coupled)
    dec = np.flatnonzero(~coupled)
    p = np.sqrt(mu[cpl].astype(complex))
    root = np.sqrt(mu[dec].astype(complex))
    root[np.abs(mu[dec]) <= 1e-9 * mu_max] = 0.0
    d_val = np.concatenate([root, 0.0 - root])
    d_mode = np.concatenate([dec, dec])
    d_band = np.abs(d_val) <= _ZERO_BAND * spec.scale
    keys, d_group = np.unique(np.concatenate([group[dec], -1 - group[dec]])[~d_band],
                              return_inverse=True)
    out = d_val[~d_band]
    g_mean = (np.bincount(d_group, out.real, keys.size)
              + 1j * np.bincount(d_group, out.imag, keys.size)) / np.bincount(d_group)
    # in the zero band a mode's second value brings no second vector
    d_col = ~d_band | (np.arange(d_val.size) < dec.size)
    w2 = 0.5 * w[cpl] ** 2
    q = np.concatenate([p, -p])
    spec._modes = Modes(mu=mu, cpl=cpl, w_c=w[cpl], phi_c=phi[:, cpl],
                        q=q, q_weight=np.concatenate([w2, w2]),
                        q_err=_pole_errors(q, mu_err), d_val=d_val,
                        d_out=np.flatnonzero(~d_band), d_group=d_group, g_mean=g_mean,
                        d_col=d_col, d_vecs=phi[:, d_mode[d_col]], y_g=y_g,
                        gamma=gamma, w_err=w_err, gamma_err=gamma_err,
                        eliminated=spec.n - mu.size)
    return spec._modes


def count_negative_modes(spec):
    """kappa_A, the number of negative eigenvalues of lambda M - A for M
    definite; the threshold is -1e-8 max(1, max |mu|).  A rank-one spec
    with M definite reads mu from its cached modes, any other from one
    eigvalsh(A, M)."""
    if spec.rank_one is not None and spec.m_definite:
        mu = _modes(spec).mu
    else:
        import scipy.linalg as sla
        try:
            mu = sla.eigvalsh(spec.a, spec.m, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("eigvalsh(A, M) failed: %s" % exc)
    return int(np.count_nonzero(mu < -1e-8 * max(1.0, float(np.max(np.abs(mu))))))


# Coupled-mode count from which the secular solver gives the coupled values;
# below it eigvals of the 2m companion costs less than the per-call overhead
# of the vectorized iterations.  Per double-string spectrum, one BLAS thread:
# eigvals 2.2 ms against 2.6 ms at m = 32, 4.5 ms against 3.5 ms at m = 40.
_SECULAR_MIN_M = 36
_SECULAR_MAXIT = 80


def _poles(mu, w, c):
    """Poles q = +-sqrt(mu) and weights c w^2 / 2 of the secular function
    f(lam) = 1 - c lam sum_k w_k^2 / (lam^2 - mu_k) = 1 - sum_l cq_l / (lam - q_l),
    a row of weights per row of c."""
    p = np.sqrt(mu.astype(complex))
    cq = 0.5 * c * w * w
    return np.concatenate([p, -p]), np.concatenate([cq, cq], axis=-1)


def _real_secular_roots(mu, w, c, lead=0.0):
    """One root of f in each gap between consecutive real poles and one
    beyond the largest, by the safeguarded middle-way rational iteration of
    LAPACK dlaed4 (Bunch, Nielsen & Sorensen 1978; Li 1993).

    Each root is held as an offset tau from the pole it lies nearer to, so
    roots that hug a pole keep their relative accuracy.  Modes with mu < 0
    have no real pole and enter as a smooth term h, as does the linear term
    lead lam = c gamma lam.  With that term the outer gaps hold no root,
    one, or two (by the sign of gamma), so only the gaps between poles are
    solved here.  c (and a nonzero lead) holds one entry per secular
    function; the roots of all of them iterate together, each as it would
    alone.  Returns a row of roots per entry of c, ascending.
    """
    pos = mu > 0.0
    zero = mu == 0.0
    sp = np.sqrt(mu[pos])
    q = np.concatenate([-sp, np.zeros(np.count_nonzero(zero)), sp])
    c = c[:, None]
    cq = np.concatenate([0.5 * c * w[pos] ** 2, c * w[zero] ** 2, 0.5 * c * w[pos] ** 2],
                        axis=1)
    order = np.argsort(q)
    q, cq = q[order], cq[:, order]
    npole = q.size
    if npole == 0:
        return np.zeros((c.size, 0))
    neg = mu < 0.0
    mu_n, cw_n = mu[neg], c * w[neg] ** 2
    # gap g lies between poles g and g + 1; the last gap is (q_max, inf);
    # root k of the flat list is gap left[k] of function row[k]
    ngap = npole if not np.any(lead) else npole - 1
    row = np.repeat(np.arange(c.size), ngap)
    left = np.tile(np.arange(ngap), c.size)
    lead = np.broadcast_to(lead, c.shape[:1])[row]
    # the rows of one function broadcast, as they did before there were more
    pick = (lambda x, r: x[0]) if c.size == 1 else (lambda x, r: x[r])
    right = np.minimum(left + 1, npole - 1)
    last = left == npole - 1
    total = c[row, 0] * float(w @ w)
    half = np.where(last, total, 0.5 * (q[right] - q[left]))
    lo = np.zeros(left.size)
    hi = np.where(last, 2.0 * total, half)
    origin = left.copy()
    tau = half.copy()
    # an interior root lies left of the midpoint iff f(mid) > 0; else take it
    # as an offset from the right pole
    mid_f = _real_secular_eval(q, pick(cq, row), mu_n, pick(cw_n, row), origin, tau,
                               lead=lead)[0]
    flip = ~last & (mid_f < 0.0)
    origin[flip] = right[flip]
    tau[flip] = -half[flip]
    lo[flip], hi[flip] = -half[flip], 0.0
    done = ~last & (mid_f == 0.0)
    for _ in range(_SECULAR_MAXIT):
        act = np.flatnonzero(~done)
        if act.size == 0:
            break
        o, r = origin[act], row[act]
        f, dleft, dright, dsmooth, ferr = _real_secular_eval(
            q, pick(cq, r), mu_n, pick(cw_n, r), o, tau[act], left[act], lead[act])
        t = tau[act]
        conv = np.abs(f) <= ferr
        below = f < 0.0
        lo[act] = np.where(below, t, lo[act])
        hi[act] = np.where(below, hi[act], t)
        dk = q[left[act]] - q[o] - t
        dk1 = q[right[act]] - q[o] - t
        df = dleft + dright + dsmooth
        # the smooth slope joins the side away from the origin pole
        from_left = o == left[act]
        dright = np.where(from_left, dright + dsmooth, dright)
        dleft = np.where(from_left, dleft, dleft + dsmooth)
        a = (dk + dk1) * f - dk * dk1 * df
        b = dk * dk1 * f
        cc = f - dk * dleft - dk1 * dright
        # beyond the largest pole the model keeps the one pole on the left
        one = last[act]
        cc1 = f - dk * df
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = np.sqrt(np.abs(a * a - 4.0 * b * cc))
            qq = 0.5 * (a + np.copysign(disc, a))
            x1 = np.where(cc != 0.0, qq / cc, b / a)
            x2 = np.where(qq != 0.0, b / qq, x1)
            x = np.where(np.abs(x1) <= np.abs(x2), x1, x2)
            x = np.where(one, dk + dk * dk * df / cc1, x)
            newton = -f / df
        x = np.where(np.isfinite(x) & (f * x < 0.0), x, newton)
        tn = t + x
        lo_a, hi_a = lo[act], hi[act]
        bad = ~np.isfinite(tn) | (tn <= lo_a) | (tn >= hi_a)
        tn = np.where(bad, 0.5 * (lo_a + hi_a), tn)
        width = hi_a - lo_a
        small = width <= 4.0 * _EPS * np.maximum(np.abs(lo_a), np.abs(hi_a))
        still = np.abs(tn - t) <= 2.0 * _EPS * np.abs(t)
        tau[act] = np.where(conv, t, tn)
        done[act] = conv | small | still
    else:
        if not done.all():
            raise NoConvergence("secular iteration did not converge")
    return np.sort((q[origin] + tau).reshape(c.size, ngap), axis=1)


def _real_secular_eval(q, cq, mu_n, cw_n, origin, tau, left=None, lead=0.0):
    """f at q[origin] + tau with the pole distances taken as offsets.

    Without left, returns (f,).  With left, also the slopes of the pole
    terms up to pole left and after it, the slope of the smooth terms (the
    linear one among them) and a rounding bound on f.
    """
    delta = (q[None, :] - q[origin][:, None]) - tau[:, None]
    with np.errstate(divide="ignore"):
        terms = cq / delta
    lam = q[origin] + tau
    if mu_n.size:
        den = lam[:, None] ** 2 - mu_n
        smooth = cw_n * lam[:, None] / den
    else:
        smooth = np.zeros((lam.size, 0))
    f = 1.0 + terms.sum(axis=1) - smooth.sum(axis=1)
    if np.any(lead):
        f = f + lead * lam
    if left is None:
        return (f,)
    slopes = terms / delta
    upto = np.arange(q.size)[None, :] <= left[:, None]
    dleft = np.where(upto, slopes, 0.0).sum(axis=1)
    dright = slopes.sum(axis=1) - dleft
    if mu_n.size:
        l2 = lam[:, None] ** 2
        dsmooth = (cw_n * (l2 + mu_n) / (den * den)).sum(axis=1)
    else:
        dsmooth = np.zeros(lam.size)
    ferr = 8.0 * _EPS * (1.0 + np.abs(terms).sum(axis=1) + np.abs(smooth).sum(axis=1))
    if np.any(lead):
        dsmooth = dsmooth + lead
        ferr = ferr + 8.0 * _EPS * np.abs(lead * lam)
    ferr = ferr + _EPS * np.abs(tau) * (dleft + dright + np.abs(dsmooth))
    return f, dleft, dright, dsmooth, ferr


def _aberth(q, cq, fixed, guesses, lead=0.0):
    """The roots of P(z) = prod_l (z - q_l) f(z) other than the fixed ones,
    by Aberth iteration from the guesses (Bini, Numer. Algorithms 1996);
    f carries the term lead z.  One row of cq, fixed, guesses (and lead)
    per secular function: the rows iterate together, each as it would
    alone.

    A root stops moving once |f| is below its rounding bound or its
    correction is below rounding.  Near-real results are made real and the
    others paired with their conjugates, as the roots of a real polynomial.
    """
    u = np.array(guesses, dtype=complex, order="C")
    nrow, k = u.shape
    if k == 0:
        return u
    lead = np.broadcast_to(lead, (nrow,))
    pick = (lambda x, r: x[0]) if nrow == 1 else (lambda x, r: x[r])
    err = np.zeros(u.shape)
    done = np.zeros(u.shape, dtype=bool)
    for _ in range(4 * _SECULAR_MAXIT):
        act = np.flatnonzero(~done)
        if act.size == 0:
            break
        r, j = np.divmod(act, k)
        z = u.ravel()[act]
        d = z[:, None] - q[None, :]
        t = pick(cq, r) / d
        f = 1.0 - t.sum(axis=1)
        df = (t / d).sum(axis=1)
        ferr = 8.0 * _EPS * (1.0 + np.abs(t).sum(axis=1))
        if np.any(lead):
            f, df = f + lead[r] * z, df + lead[r]
            ferr = ferr + 8.0 * _EPS * np.abs(lead[r] * z)
        with np.errstate(divide="ignore", invalid="ignore"):
            logd = (1.0 / d).sum(axis=1) + df / f
            other = z[:, None] - pick(u, r)
            other[np.arange(act.size), j] = np.inf
            rep = (1.0 / other).sum(axis=1)
            if fixed.size:
                rep = rep + (1.0 / (z[:, None] - pick(fixed, r))).sum(axis=1)
            corr = 1.0 / (logd - rep)
        conv = np.abs(f) <= ferr
        if not np.all(np.isfinite(corr) | conv):
            raise NoConvergence("Aberth iteration hit a pole")
        u.ravel()[act] = np.where(conv, z, z - corr)
        err.ravel()[act] = np.where(conv, ferr / np.maximum(np.abs(df), _EPS), np.abs(corr))
        done.ravel()[act] = conv | (np.abs(corr) <= 2.0 * _EPS * np.abs(z))
    else:
        if not done.all():
            raise NoConvergence("Aberth iteration did not converge")
    # a real polynomial: snap roots within their error of the axis, pair the rest
    tol = 10.0 * err + 4.0 * _EPS * np.abs(u)
    real = np.abs(u.imag) <= tol
    u[real] = u[real].real
    for ur, rr in zip(u, real):
        upper = np.flatnonzero(~rr & (ur.imag > 0.0))
        lower = np.flatnonzero(~rr & (ur.imag < 0.0))
        if upper.size == lower.size:
            for i in upper:
                j = lower[np.argmin(np.abs(ur[lower] - np.conj(ur[i])))]
                mean = 0.5 * (ur[i] + np.conj(ur[j]))
                ur[i], ur[j] = mean, np.conj(mean)
    return u


def _at_poles(q, cq, lead=0.0):
    """Per row of weights cq: whether every root of
    P(z) = prod_l (z - q_l) f(z) rounds to its own pole (_pole_roots).

    With s = sum |cq|, the disc of radius 4 s about a nonzero pole holds
    exactly one root when 8 s is at most the distance to every other pole
    (Rouche on (z - q) f(z)), and 16 s <= eps |q| puts that disc within
    half an ulp of q.  A real and an imaginary pole are at least min |q|
    apart, and a nonzero pole is |q| from the zero pole of a coupled mode
    with mu = 0.

    A linear term lead z (a row of lead per row of cq) adds a root near
    -1/lead, beyond max(1, |q|) / eps (escaped to infinity) once
    16 |lead| max(1, |q|) <= eps; 1 + lead z then rounds to 1 on the discs.
    """
    s = np.abs(cq).sum(axis=-1)
    far = 16.0 * np.abs(lead) * max(1.0, np.abs(q).max(initial=0.0)) <= _EPS
    q = q[q != 0.0]
    real = q.imag == 0.0
    gaps = np.concatenate([np.diff(np.sort(q.real[real])),
                           np.diff(np.sort(q.imag[~real]))])
    return (16.0 * s <= _EPS * np.abs(q).min(initial=np.inf)) & (
        8.0 * s <= gaps.min(initial=np.inf)) & far


def _pole_roots(q, cq):
    """The roots where _at_poles holds, per row of cq: the poles, except
    that the double zero pole of a coupled mode with mu = 0 gives the roots
    0 and C, the sum of its weights: (z - 0)^2 f(z) = z (z - C) + O(z^2 s),
    so C is exact to relative C s / min |q|^2, below rounding.  A
    subnormal C is taken as 0, since dividing a complex by it overflows."""
    z = np.broadcast_to(q, cq.shape).copy()
    zero = np.flatnonzero(q == 0.0)
    if zero.size:
        c0 = cq[..., zero].sum(axis=-1)
        z[..., zero[0]] += np.where(c0 < np.finfo(float).tiny, 0.0, c0)
    return z


def _secular_values(mu, w, c, lead=0.0):
    """The 2m coupled values, the roots of prod_k (lam^2 - mu_k) f(lam),
    and a (2m+1)-th with the linear term lead lam = c gamma lam; a row of
    them per entry of c, or one array for a scalar c.  A nonzero lead holds
    one entry per entry of c, none of whose rows round to their poles.

    At c = eta b = 0, and whenever every root rounds to its pole
    (_at_poles: c so small that the iterations below would seek offsets
    lost to rounding), they are the poles +-sqrt(mu) (_pole_roots), the
    root of the linear term escaped to infinity.  Otherwise the real
    roots that the poles bracket come from _real_secular_roots; a zero mu
    adds the exact root 0; the rest (at most 2 kappa_c, kappa_c the count
    of mu < 0) come from Aberth iteration started at the first-order
    location q + cq of the imaginary poles q = +-i sqrt(-mu).  With the
    linear term, Aberth also takes the outer gaps' roots, started near the
    largest pole and near -1/lead.  The rows are solved together, each as
    it would be alone.
    """
    rows = np.atleast_1d(np.asarray(c, dtype=float))
    lead = np.broadcast_to(lead, rows.shape)
    q, cq = _poles(mu, w, rows[:, None])
    at = _at_poles(q, cq, lead)
    z = np.empty((rows.size, q.size + bool(np.any(lead))), dtype=complex)
    if at.any():
        z[at] = _pole_roots(q, cq[at])
    live = np.flatnonzero(~at)
    if live.size:
        cq, lead = cq[live], lead[live]
        fixed = _real_secular_roots(mu, w, rows[live], lead)
        if np.any(mu == 0.0):
            fixed = np.hstack([fixed, np.zeros((live.size, 1))])
        imag = np.flatnonzero(np.concatenate([mu < 0.0, mu < 0.0]))
        base, step = np.broadcast_to(q[imag], (live.size, imag.size)), cq[:, imag]
        if np.any(lead):
            real = np.flatnonzero(q.imag == 0.0)
            top = real[[np.argmax(q.real[real])]] if real.size else real
            far = -1.0 / lead[:, None]
            base = np.hstack([base, np.broadcast_to(q[top], (live.size, top.size)), far])
            step = np.hstack([step, cq[:, top], 1e-3 * np.abs(far)])
        # turned by the golden angle so no guess is another's conjugate: a
        # conjugate pair of iterates cannot split into two real roots, nor
        # can real ones leave the axis
        turn = np.exp(1j * (0.5 + 2.399963 * np.arange(base.shape[1])))
        rest = _aberth(q, cq, fixed, base + step * turn, lead)
        z[live] = np.hstack([fixed.astype(complex), rest])
    return z if np.ndim(c) else z[0]


def _companion_eigvals(mu, w, c):
    """The 2m coupled values from eigvals of [[0, I], [D, c w w^T]], one
    row per entry of c (a scalar c gives one row's shape)."""
    m = mu.size
    c = np.asarray(c)
    comp = np.zeros(c.shape + (2 * m, 2 * m))
    comp[..., :m, m:] = np.eye(m)
    comp[..., m:, :m] = np.diag(mu)
    comp[..., m:, m:] = c[..., None, None] * np.outer(w, w)
    try:
        return np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigvals failed: %s" % exc)


def _inclusion_radii(z, q, cq, q_err, lead=None, coef_err=None):
    """Centers and radii of discs around the approximations z of the roots
    of P(z) = prod_l (z - q_l) f(z) whose union holds every root, a
    connected component of k discs holding exactly k (Gerschgorin on the
    Weierstrass corrections W_j = P(z_j) / (a prod_{i != j} (z_j - z_i)),
    a the leading coefficient; Carstensen, Numer. Math. 1991).  The radius
    is n (|W_j| + its rounding bound), and the center z_j.  z and cq may be
    stacks, one row per secular function, as may lead, the coefficient of
    a linear term lead z of f: then P has degree 2m + 1 and a = lead, else
    a = 1.

    The rounding bound on P(z_j) takes each distance z - q_l uncertain by
    4 eps |z| plus q_err[l], the uncertainty of the pole (_pole_errors),
    and with coef_err = (cq_err, lead_err) each weight cq_l by cq_err[l]
    and lead by lead_err (shaped as cq and lead).
    """
    shape = z.shape
    n = shape[-1]
    if n == 0:
        return z, np.zeros(shape)
    z = z.reshape(-1, n)
    cq = np.reshape(cq, (z.shape[0], 1, q.size))
    gaps = np.abs(z[:, :, None] - z[:, None, :])
    equal = np.flatnonzero(np.count_nonzero(gaps == 0.0, axis=(1, 2)) > n)
    if equal.size:
        # Weierstrass corrections need distinct approximations: a run of
        # equal ones (a multiple root hit exactly) is spread by sqrt(eps)
        # about its value, where a multiple root's approximations settle
        z = z.copy()
        for t in equal.tolist():
            zt = z[t]
            order = np.lexsort((zt.imag, zt.real))
            zs = zt[order]
            start = 0
            for i in range(1, n + 1):
                if i == n or zs[i] != zs[start]:
                    if i - start > 1:
                        step = np.sqrt(_EPS) * max(1.0, abs(zs[start]))
                        zt[order[start:i]] += step * (np.arange(i - start)
                                                      - 0.5 * (i - start - 1))
                    start = i
            gaps[t] = np.abs(zt[:, None] - zt[None, :])
    diag = np.arange(n)
    gaps[:, diag, diag] = 1.0
    d = z[:, :, None] - q
    err = (4.0 * _EPS) * np.abs(z)[:, :, None] + q_err
    ad = np.abs(d)
    zero = ad == 0.0
    if zero.any():
        ad = np.where(zero, 1e-3 * err, ad)
        d = np.where(zero, ad, d)
    f = 1.0 - (cq / d).sum(axis=2)
    size = 1.0 + (cq / ad).sum(axis=2)
    logw = np.log(ad).sum(axis=2) - np.log(gaps).sum(axis=2)
    if lead is not None:
        lead = np.reshape(lead, (-1, 1))
        f = f + lead * z
        size = size + np.abs(lead * z)
        logw = logw - np.log(np.abs(lead))
    bound = size * (8.0 * _EPS + (err / ad).sum(axis=2))
    if coef_err is not None:
        bound = (bound + (np.reshape(coef_err[0], cq.shape) / ad).sum(axis=2)
                 + np.abs(np.reshape(coef_err[1], (-1, 1)) * z))
    return z.reshape(shape), (n * np.exp(logw) * (np.abs(f) + bound)).reshape(shape)


def _pole_errors(q, mu_max):
    """Uncertainty of the poles q = +-sqrt(mu): a few ulps of |q| plus the
    backward error of mu in eigh(A, M), 4 eps max |mu|, carried to
    sqrt(mu)."""
    dmu = 4.0 * _EPS * mu_max
    return 4.0 * _EPS * np.abs(q) + dmu / (np.abs(q) + np.sqrt(dmu))


def _disc_links(centers, radii, zero):
    """Link matrices of discs |z - centers[j]| <= radii[j] (a stack of
    them, one per row): two discs outside the zero band link when they
    meet, and the discs inside it (mask zero) link to each other only.
    Every disc links to itself; a disc of radius -inf to nothing else."""
    near = np.abs(centers[..., :, None] - centers[..., None, :]) <= (
        radii[..., :, None] + radii[..., None, :])
    near &= ~zero[..., :, None] & ~zero[..., None, :]
    near |= zero[..., :, None] & zero[..., None, :]
    return near | np.eye(centers.shape[-1], dtype=bool)


def _components(near):
    """The connected components of the graph with the symmetric, reflexive
    link matrix near (or of each graph of a stack of them): each node is
    labelled with the smallest index in its component."""
    n = near.shape[-1]
    # node j of graph t is node t * n + j of the whole stack
    label = np.arange(near.size // max(1, n)).reshape(near.shape[:-1])
    while True:
        # each node takes the smallest label among the nodes it links to,
        # then the label that label points to
        new = np.where(near, label[..., None, :], label.size).min(axis=-1, initial=label.size)
        new = new.ravel()[new]
        if np.array_equal(new, label):
            return new % max(1, n)
        label = new


def _relabel(label):
    """label mapped onto 0, 1, ... in the order of its distinct values."""
    used = np.bincount(label) > 0
    return (np.cumsum(used) - 1)[label]


def _groups(label, vals):
    """Multiplicity, representative and spread of each record, vals[j]
    belonging to record label[j] (records 0, 1, ...).  A record of one value
    keeps it exactly; a record of several takes their mean, and its spread
    is the largest distance of a member from the mean."""
    nrec = int(label.max(initial=-1)) + 1
    alg = np.bincount(label, minlength=nrec)
    spread = np.zeros(nrec)
    rep = np.empty(nrec, dtype=complex)
    rep[label] = vals
    if nrec < vals.size:
        multi = alg > 1
        mean = (np.bincount(label, vals.real, nrec)
                + 1j * np.bincount(label, vals.imag, nrec)) / alg
        rep[multi] = mean[multi]
        np.maximum.at(spread, label, np.abs(vals - rep[label]))
    return alg, rep, spread


def _records(rep, alg, spread, col_rec, vecs, resids):
    """EigenRecords from the per-record values of _groups and the kernel
    columns: column j of vecs, with residual resids[j], belongs to record
    col_rec[j].  A record's geo is its number of columns, its residual the
    largest of theirs."""
    nrec = rep.size
    resid = np.zeros(nrec)
    np.maximum.at(resid, col_rec, resids)
    order = np.argsort(col_rec, kind="stable")
    bounds = np.searchsorted(col_rec[order], np.arange(nrec + 1)).tolist()
    vecs = vecs[:, order]
    return [
        EigenRecord(lam=_real_if_zero_imag(value), alg_mult=a, geo_mult=hi - lo,
                    type1_mult=0, type2_mult=a, vectors=vecs[:, lo:hi], residual=r,
                    spread=sp)
        for value, a, r, sp, lo, hi in zip(rep.tolist(), alg.tolist(), resid.tolist(),
                                           spread.tolist(), bounds[:-1], bounds[1:])
    ]


def _modal_records(spec, etas):
    """Every record of the modal route at each of etas, its types and
    vectors by structure.

    A degenerate group of decoupled modes is one record with
    alg = geo = type1 = its size.  The coupled values come from the
    secular equation or from eigvals of the 2m companion (Modes.secular);
    a connected component of k inclusion discs is one record with alg k
    and geo 1 (the coupled block is unreduced), and a decoupled group
    whose mean lies in one of its discs joins it (and links the components
    of all discs holding it).  Every value within the zero band forms one
    zero record.  A coupled record's vector is Phi_c (lam^2 - D_c)^{-1} w_c
    (its largest entry from the secular equation where its residual is
    above rounding), plus y_g (_modes: scaled so that c lam s = 1, the
    massless part is x0 = -A00^-1 A01 x1 + y_g).  type1
    counts the decoupled modes in a record.  Each step runs once over all
    etas: on stacks with a row per eta, or over one numbering of the
    records of all etas; the etas where the linear term's root is finite
    (_at_poles) and those where it is not go in two such passes.  Returns
    per eta the records, their type I counts and the number of infinite
    values.
    """
    md = _modes(spec)
    mu_c, w_c = md.mu[md.cpl], md.w_c
    etas = np.array(etas, dtype=float)
    c = etas * spec.rank_one.b
    ntar = c.size
    lead = c * md.gamma if md.gamma else None
    if md.gamma:
        extra = (lead != 0.0) & ~_at_poles(*_poles(mu_c, w_c, c[:, None]), lead)
        if extra.any() and not extra.all():
            parts = [np.flatnonzero(extra), np.flatnonzero(~extra)]
            out = sum((_modal_records(spec, etas[part]) for part in parts), [])
            return [out[i] for i in np.argsort(np.concatenate(parts)).tolist()]
        lead = lead if extra.all() else None
    if md.secular:
        z = _secular_values(mu_c, w_c, c, 0.0 if lead is None else lead)
    else:
        z = _companion_eigvals(mu_c, w_c, c).astype(complex)
        # where the roots round to their poles, eigvals' rounding noise
        # would be all of their offsets
        q, cq = _poles(mu_c, w_c, c[:, None])
        at = (c > 0.0) & _at_poles(q, cq)
        z[at] = _pole_roots(q, cq[at])
    coef_err = None if not md.w_err else (
        c[:, None] * np.abs(np.concatenate([w_c, w_c])) * md.w_err, c * md.gamma_err)
    centers, radii = _inclusion_radii(z, md.q, c[:, None] * md.q_weight, md.q_err, lead,
                                      coef_err)
    nz, nd = z.shape[1], md.d_val.size

    # labels: 0 for the zero band, then the components of the coupled discs
    # outside it together with the decoupled group means as discs of radius
    # 0, so a group joins the component of any disc holding its mean
    out = np.abs(z) > _ZERO_BAND * spec.scale
    ng = md.g_mean.size
    cz = np.concatenate([centers, np.broadcast_to(md.g_mean, (ntar, ng))], axis=1)
    cr = np.concatenate([radii, np.zeros((ntar, ng))], axis=1)
    zero = np.concatenate([~out, np.zeros((ntar, ng), dtype=bool)], axis=1)
    comp = 1 + _components(_disc_links(cz, cr, zero))
    label = np.zeros((ntar, nz + nd), dtype=int)
    label[:, :nz] = np.where(out, comp[:, :nz], 0)
    label[:, nz + md.d_out] = comp[:, nz:][:, md.d_group]
    # one numbering of the records of all etas, eta by eta
    label = _relabel((label + (nz + ng + 1) * np.arange(ntar)[:, None]).ravel())
    label = label.reshape(ntar, nz + nd)
    ends = label.max(axis=1) + 1
    alg, rep, spread = _groups(label.ravel(), np.concatenate(
        [z, np.broadcast_to(md.d_val, (ntar, nd))], axis=1).ravel())
    nrec = alg.size

    # kernel columns: one coupled vector per record holding a coupled value,
    # then one per decoupled mode
    crec = np.flatnonzero(np.bincount(label[:, :nz].ravel(), minlength=nrec))
    drec = label[:, nz:][:, md.d_col].ravel()
    type1 = np.bincount(drec, minlength=nrec)
    col_rec = np.concatenate([crec, drec])
    col_eta = np.repeat(np.arange(ntar), np.diff(ends, prepend=0))[col_rec]
    p = md.q[:md.cpl.size]
    lam = rep[crec]
    den = (lam[None, :] - p[:, None]) * (lam[None, :] + p[:, None])
    # a value on a pole (eta = 0), or so near one that w_c / den would
    # overflow (a zero record on a coupled mu = 0 at tiny eta): the kernel
    # is that mode, the other entries w_k / den_k lost beside its own
    absden = np.abs(den)
    hit = absden <= np.minimum(absden.min(axis=0, initial=np.inf),
                               1e-140 * np.abs(w_c).max(initial=1.0))
    pinned = hit.any(axis=0)
    y = w_c[:, None] / np.where(hit, 1.0, den)
    y[:, pinned] = hit[:, pinned]
    owner = col_eta[:crec.size]
    cvecs = _matmul_blocks(md.phi_c, y, owner).astype(complex)
    cplx = np.flatnonzero(y.imag.any(axis=0))
    if cplx.size:
        cvecs[:, cplx] += 1j * _matmul_blocks(md.phi_c, y.imag[:, cplx], owner[cplx])
    # a pinned column is its mode alone, its y_g lost beside it
    cvecs[:, ~pinned] += md.y_g[:, None]
    vecs = np.hstack([cvecs, np.tile(md.d_vecs, ntar)])
    vecs, resids, _ = _simple_pairs(spec, etas[col_eta], rep[col_rec], vecs, col_eta)
    # y's largest entry y_k = w_k / den_k carries den_k's relative error,
    # about 2 eps |lam|^2 / |den_k|, large near the pole p_k (a weakly
    # coupled mode: a residual of about eps / |w_k|).  A column whose
    # residual exceeds 64 times 2n eps times the size of L(lam) (other
    # columns stay below 12 times) takes y_k from the secular equation
    # sum_j w_j y_j = 1 / (c lam) + gamma instead, where that lowers it
    alam = np.abs(lam)
    level = 128 * spec.n * _EPS * (alam * (alam * spec.norm_m + etas[owner] * spec.norm_g)
                                   + spec.norm_a)
    redo = np.flatnonzero(~pinned & (resids[:crec.size] > level))
    if redo.size:
        y, cols = y[:, redo], np.arange(redo.size)
        k = np.abs(y).argmax(axis=0)
        # down an F-ordered array each column is summed pairwise whatever
        # the other columns (_simple_pairs), so the sums are per spectrum
        rest = np.asfortranarray(w_c[:, None] * y)
        rest[k, cols] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            dy = (1.0 / (c[owner[redo]] * lam[redo]) + md.gamma
                  - rest.sum(axis=0)) / w_c[k] - y[k, cols]
        fixed, res, _ = _simple_pairs(spec, etas[owner[redo]], lam[redo],
                                      cvecs[:, redo] + md.phi_c[:, k] * dy, owner[redo])
        better = res < resids[redo]
        vecs[:, redo[better]], resids[redo[better]] = fixed[:, better], res[better]
    records = _records(rep, alg, spread, col_rec, vecs, resids)
    type1 = type1.tolist()
    infinite = 2 * md.eliminated - (lead is not None)
    return [(records[lo:hi], type1[lo:hi], infinite)
            for lo, hi in zip([0] + ends[:-1].tolist(), ends.tolist())]


def _companion_values(spec, etas, sigmas):
    """The finite values of the shifted, reversed companion of the pencil
    at each of etas, with the shifts sigmas: one stacked solve for the
    blocks of all the companions and one stacked eig of them.

    Returns the owner (index into etas) of each finite value, the values
    and their vectors (columns), eta by eta and in each eta's eig order;
    which etas' eigenvalues all came out real; and the number of infinite
    values per eta.
    """
    n = spec.n
    s = np.array(sigmas)[:, None, None]
    e = np.array(etas)[:, None, None]
    # L(sigma, eta) as evaluate() forms it, and [M | 2 sigma M - eta G]
    l0 = (s * s) * spec.m - (s * e) * spec.g - spec.a
    rhs = np.concatenate([np.broadcast_to(spec.m, l0.shape), 2.0 * s * spec.m - e * spec.g],
                         axis=2)
    try:
        blocks = np.linalg.solve(l0, rhs)
        # one refinement pass; the companion blocks must be accurate enough
        # that defective clusters split below the clustering gap
        blocks += np.linalg.solve(l0, rhs - l0 @ blocks)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("solve failed: %s" % exc)
    comp = np.zeros((len(etas), 2 * n, 2 * n))
    comp[:, :n, n:] = np.eye(n)
    comp[:, n:] = -blocks
    dec = linalg.eigen_standard(comp)
    mus, vecs = dec.values, dec.vectors
    real = ~np.any(mus.imag != 0.0, axis=1)

    tau_inf = 1e-10 * max(1.0, spec.spec_norm)
    # defective chains at infinity split at sqrt(eps) under rounding, which
    # lands above tau_inf; catch those by their vanishing mass content (the
    # vectors taken as complex, so an eta's test does not depend on whether
    # another eta of the stack made the stack complex)
    tau_soft = 1e-7 * max(1.0, spec.spec_norm)
    amus = np.abs(mus)
    keep = amus >= tau_inf
    t, j = np.nonzero(keep & (amus < tau_soft))
    if t.size:
        v = vecs[t, :n, j].astype(complex)
        nv = np.linalg.norm(v, axis=1)
        mv = np.linalg.norm(np.matmul(spec.m, v[:, :, None])[:, :, 0], axis=1)
        keep[t, j] = (nv == 0.0) | (mv > 1e-6 * spec.norm_m * nv)
    t, j = np.nonzero(keep)
    return (t, np.array(sigmas)[t] + 1.0 / mus[t, j], vecs[t, :n, j].T, real,
            2 * n - np.bincount(t, minlength=len(etas)))


def _companion_records(spec, etas, owner, lams, vecs, real):
    """Records of the companion route from _companion_values, and the eta
    (index into etas) of each.

    Each value's disc has the first-order radius 2n (||L v|| + eps (|lam|^2
    ||M|| + |lam| eta ||G|| + ||A||)) / |v^T L' v| (Tisseur, Linear Algebra
    Appl. 309, 2000; the left vector of a symmetric pencil's simple value
    is conj(v)), the denominator floored at its size at a split double
    value.  _disc_links groups them per eta of a padded stack, into one
    numbering of the records of all etas, eta by eta.  A record of one
    value keeps its eigenvector and its radius as spread; a record of
    several takes geo and a kernel basis from an SVD of L at its mean.
    """
    n, ntar = spec.n, len(etas)
    val_eta = np.array(etas)[owner]
    # solved alone, an eta whose eigenvalues are all real has real vectors,
    # and _simple_pairs' products take their path by dtype: the values of
    # such etas go in one call as real, the others in a second
    kvecs = np.zeros(vecs.shape, dtype=vecs.dtype)
    resids, tilts = np.zeros(lams.size), np.zeros(lams.size)
    for is_real in (True, False):
        part = real[owner] == is_real
        if part.any():
            v = np.asfortranarray(vecs[:, part].real) if is_real else vecs[:, part]
            kvecs[:, part], resids[part], tilts[part] = _simple_pairs(
                spec, val_eta[part], lams[part], v, owner[part])
    alam = np.abs(lams)
    zero = alam <= _ZERO_BAND * spec.scale
    err = resids + _EPS * (alam * (alam * spec.norm_m + val_eta * spec.norm_g) + spec.norm_a)
    radii = 2 * n * err / np.where(zero, np.inf, np.maximum(
        tilts, np.sqrt(_EPS) * (2.0 * alam * spec.norm_m + val_eta * spec.norm_g)))
    counts = np.bincount(owner, minlength=ntar)
    width = int(counts.max(initial=0))
    valid = np.arange(width) < counts[:, None]
    # padded to one row per eta with discs that link to nothing
    centers = np.zeros(valid.shape, dtype=lams.dtype)
    rad = np.full(valid.shape, -np.inf)
    band = np.zeros(valid.shape, dtype=bool)
    centers[valid], rad[valid], band[valid] = lams, radii, zero
    label = _relabel(_components(_disc_links(centers, rad, band))[valid] + width * owner)
    alg, rep, spread = _groups(label, lams)
    simple = alg[label] == 1
    spread[label[simple]] = radii[simple]
    rec_eta = np.zeros(alg.size, dtype=int)
    rec_eta[label] = owner

    cols, col_res, col_rec = [kvecs[:, simple]], [resids[simple]], [label[simple]]
    import scipy.linalg as sla
    for k in np.flatnonzero(alg > 1).tolist():
        eta = etas[rec_eta[k]]
        _, s, vh = sla.svd(evaluate(spec, _real_if_zero_imag(complex(rep[k])), eta),
                           check_finite=False)
        tol = _kernel_tol(spec, rep[k], eta, spread[k], float(s[0]), n)
        geo = max(1, min(n - int(np.count_nonzero(s > tol)), int(alg[k])))
        cols.append(vh[n - geo:].conj().T)
        col_res.append(np.full(geo, s[n - geo]))
        col_rec.append(np.full(geo, k))
    cols = np.hstack(cols)
    records = _records(rep, alg, spread, np.concatenate(col_rec), cols, np.concatenate(col_res))
    # alone, such an eta's records share one real array, unless one of
    # them holds several values (its SVD basis is complex)
    real_vecs = real & (np.bincount(rec_eta[alg > 1], minlength=ntar) == 0)
    if np.iscomplexobj(cols) and real_vecs.any():
        for rec, t in zip(records, rec_eta.tolist()):
            if real_vecs[t]:
                rec.vectors = rec.vectors.real
    return records, rec_eta


def _companion_spectra(spec, etas):
    """spectrum() at each of etas on the companion route, each step run
    once over all of them.

    Each eta takes its own shift (choose_shift).  An eta without one
    raises only once the etas before it are solved, so the first eta to
    fail gives the error, as it would alone.
    """
    ntar = len(etas)
    sigmas = []
    for eta in etas:
        try:
            sigmas.append(choose_shift(spec, eta))
        except ShiftExhausted:
            if sigmas:
                _companion_spectra(spec, etas[:len(sigmas)])
            raise
    owner, lams, vecs, real, discarded = _companion_values(spec, etas, sigmas)
    records, rec_eta = _companion_records(spec, etas, owner, lams, vecs, real)
    classified = spec.rank_one is not None and spec.ker_ma_trivial
    if classified:
        type1, svd = _vector_type1(spec, np.array(etas)[rec_eta], records)
    else:
        type1, svd = [0] * len(records), np.zeros(len(records), dtype=bool)
    fallbacks = np.bincount(rec_eta[svd], minlength=ntar).tolist()
    ends = np.cumsum(np.bincount(rec_eta, minlength=ntar)).tolist()
    return [_result(spec, eta, records[lo:hi], type1[lo:hi], d, classified, {
        "route": "companion", "shift": sigma,
        "type1_from": "kernel_vectors" if classified else "unclassified",
        "type1_svd_fallbacks": f})
        for eta, sigma, d, f, lo, hi in zip(etas, sigmas, discarded.tolist(), fallbacks,
                                            [0] + ends[:-1], ends)]


# Elements allowed in each batched temporary of spectra(): a chunk holds as
# many etas as keep the largest within it, and at least one
_BATCH_ELEMENTS = 2 ** 18


def spectra(spec, etas):
    """spectrum(spec, eta) for each of etas, in order.

    The etas go in chunks, and each step of the route runs once per chunk,
    so a track's targets share the per-call overhead.  A chunk holds as
    many etas as keep every batched temporary within _BATCH_ELEMENTS
    elements, and one eta when a single one exceeds it: on the modal route
    the disc links over coupled values and group means and the residual
    products over kernel columns (_modal_records); on the companion route
    the companions and their eigenvectors, the value links and the
    residual products (_companion_spectra: one stacked solve and one
    stacked eig, each eta with its own shift).  The results are bitwise
    those of one call per eta.
    """
    for eta in etas:
        if not (-1e-12 <= eta <= 1.0 + 1e-12):
            raise InvalidInput("eta must lie in [0, 1], got %r" % (eta,))
    etas = [min(max(eta, 0.0), 1.0) for eta in etas]
    # the modal route: a rank-one G with M definite, or with M diagonal
    # and its massless block eliminable (_modes)
    md = None if spec.rank_one is None else _modes(spec)
    if md is not None:
        m = md.cpl.size
        nz = 2 * m + (md.gamma != 0.0)
        per_eta = max((nz + md.g_mean.size) ** 2,
                      spec.residual_stack.shape[0] * (nz + md.d_vecs.shape[1]))
        diagnostics = {"route": "modal", "type1_from": "modes", "coupled_modes": m,
                       "coupled_solver": "secular" if md.secular else "eigvals"}
        if md.eliminated:
            diagnostics["eliminated"] = md.eliminated

        def solve(part):
            return [_result(spec, eta, records, type1, inf, True, dict(diagnostics))
                    for eta, (records, type1, inf) in zip(part, _modal_records(spec, part))]
    else:
        # the companions' eigenvectors and the residual products, complex
        # (two elements per entry)
        n = spec.n
        per_eta = 2 * max(4 * n * n, spec.residual_stack.shape[0] * 2 * n)
        solve = functools.partial(_companion_spectra, spec)
    size = max(1, _BATCH_ELEMENTS // max(1, per_eta))
    out = []
    for s in range(0, len(etas), size):
        out.extend(solve(etas[s:s + size]))
    return out


def _result(spec, eta, records, type1, discarded, classified, diagnostics):
    """The SpectrumResult of records with their type I counts: types set,
    records sorted by (real, imag)."""
    diagnostics["discarded_infinite"] = int(discarded)
    # without a rank-one G and ker M ∩ ker A = {0}, all type II
    for rec, t1 in zip(records, type1):
        rec.type1_mult = min(t1, rec.alg_mult)
        rec.type2_mult = rec.alg_mult - rec.type1_mult
        rec.zero_flagged = classified and abs(rec.lam) <= _ZERO_BAND * spec.scale
        rec.types_classified = classified
    records.sort(key=lambda r: (r.lam.real, r.lam.imag))
    return SpectrumResult(
        eta=eta,
        records=records,
        n_finite=int(sum(r.alg_mult for r in records)),
        discarded_infinite=int(discarded),
        scale=spec.scale,
        diagnostics=diagnostics,
    )


def spectrum(spec, eta):
    """All finite eigenvalues of L(., eta) with multiplicities and types."""
    return spectra(spec, [eta])[0]


def geometric_multiplicity(spec, lam, eta):
    """n - rank(L(lam, eta)) with the automatic scale-invariant tolerance."""
    return spec.n - linalg.rank_with_tol(evaluate(spec, lam, eta))


def is_semisimple(result, lam):
    """True iff the record of result at lam has alg = geo."""
    rec = result.find(lam)
    if rec is None:
        raise NotAnEigenvalue("%r is not an eigenvalue at eta=%r" % (lam, result.eta))
    return rec.alg_mult == rec.geo_mult


def classify_type(spec, record, eta=1.0):
    """(type1_mult, type2_mult) for a record of spectrum(spec, eta).

    type1_mult = dim(ker L(lam) ∩ ker G), which is independent of eta; the
    record already holds the split its route found (eta is not read).
    For lam = 0 the split is reported but the identity with the persistent
    multiplicity is not asserted (the record should carry zero_flagged).
    """
    if spec.rank_one is None:
        raise InvalidInput("type classification requires a rank-one G")
    if not spec.ker_ma_trivial:
        raise PreconditionKerMA("ker M ∩ ker A must be trivial")
    return record.type1_mult, record.type2_mult


@dataclass
class Region:
    """Closed rectangle 0 <= Re <= re_max, |Im| <= im_abs."""

    re_max: float
    im_abs: float

    def contains(self, lam, slack=1e-8):
        return (-slack <= lam.real <= self.re_max + slack
                and abs(lam.imag) <= self.im_abs + slack)


def nonreal_region(spec, eta):
    """Rectangle confining nonreal eigenvalues when M >= m I with m > 0."""
    m = spec.m_mass
    if not spec.m_definite:
        raise MassNotDefinite("lambda_min(M) = %.3e" % m)
    return Region(re_max=eta * spec.g_top / (2.0 * m),
                  im_abs=float(np.sqrt(spec.beta / m)))


def nonsimple_real_interval(spec):
    """Interval [0, g_top/(2 m)] containing every nonsimple real eigenvalue."""
    m = spec.m_mass
    if not spec.m_definite:
        raise MassNotDefinite("lambda_min(M) = %.3e" % m)
    return (0.0, spec.g_top / (2.0 * m))
