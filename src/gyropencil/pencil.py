"""Quadratic pencil L(lambda, eta) = lambda^2 M - lambda eta G - A.

M and G are real symmetric positive semidefinite, A real symmetric, and the
joint kernel of the three matrices is trivial.  The featured case carries a
rank-one coupling G = b e e^T.  spectrum() solves one eta and spectra() a
list of them, by one of two routes:

- M definite with an axis rank-one G (the modal route): the modes of
  (A, M) are solved once per spec.  Modes without a component on the
  coupling axis give the type I values +-sqrt(mu) directly; the coupled
  values are the zeros of the secular function
  f(lam) = 1 - eta b lam sum_k w_k^2 / (lam^2 - mu_k) times the pole
  product, solved per eta (eigvals of a small companion below a size
  crossover).  Inclusion discs around them certify the multiplicities, and
  records take geo, types and vectors from the modal structure.  spectra()
  runs each step once over a chunk of etas.
- every other pencil (the companion route): substitute nu = lambda - sigma
  with L(sigma, eta) invertible, reverse mu = 1/nu, and solve the standard
  companion eigenproblem of the reversed polynomial.  Eigenvalues at
  infinity (singular M) show up as mu ~ 0 and are discarded but counted.
  A record's type I part is the part of its kernel vectors without a
  component on the coupling axis.

Both routes group values into records by one connected-components pass
over a link matrix, each with its own link rule: meeting inclusion discs
on the modal route, the 1e-6 relative gap on the companion route.  Values
inside the zero band form one record on both.
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
    """G = b * e e^T with e a coordinate axis (e_index, 0-based)."""

    b: float
    e_index: int


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
    thresholds dimensionless.
    """

    def __init__(self, m, g, a, rank_one=None, validate=True, m_kind="dense"):
        self.m = linalg.as_matrix(m, "M")
        self.g = linalg.as_matrix(g, "G")
        self.a = linalg.as_matrix(a, "A")
        if self.m.shape != self.g.shape or self.m.shape != self.a.shape:
            raise DimensionMismatch("M, G, A must share one shape")
        self.n = self.m.shape[0]
        self.rank_one = rank_one
        # serialization hint only; no semantic content
        self.m_kind = m_kind

        # None unless M is diagonal; then M V is a row scaling
        self.m_diag = _diagonal(self.m)
        # the rows of G that hold a nonzero entry
        self.g_rows = np.flatnonzero(np.any(self.g != 0.0, axis=1))
        m_eigs = _eigvalsh(self.m, self.m_diag)
        g_eigs = _eigvalsh(self.g, _diagonal(self.g))
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
        self._ker_ma = None
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

    @property
    def ker_ma_trivial(self):
        """True iff ker M intersect ker A = {0} (rank of [M; A] is n).

        True by construction when M is definite; the rank SVD runs only
        otherwise.
        """
        if self._ker_ma is None:
            self._ker_ma = self.m_definite or (
                linalg.rank_with_tol(np.vstack([self.m, self.a])) == self.n)
        return self._ker_ma


def validate_condition_I(spec):
    """Per-clause validity report for the standing hypotheses."""
    clauses = []
    psd_tol_m = 1e-10 * max(1.0, spec.norm_m)
    psd_tol_g = 1e-10 * max(1.0, spec.norm_g)
    sym_m = linalg.symmetry_defect(spec.m) <= 1e-12 * max(1.0, linalg.max_abs(spec.m))
    sym_g = linalg.symmetry_defect(spec.g) <= 1e-12 * max(1.0, linalg.max_abs(spec.g))
    sym_a = linalg.symmetry_defect(spec.a) <= 1e-12 * max(1.0, linalg.max_abs(spec.a))
    clauses.append((
        "m_symmetric_psd", sym_m and spec.m_mass >= -psd_tol_m,
        "lambda_min(M)=%.3e" % spec.m_mass,
    ))
    clauses.append((
        "g_symmetric_psd", sym_g and spec.g_min >= -psd_tol_g,
        "lambda_min(G)=%.3e" % spec.g_min,
    ))
    clauses.append(("a_symmetric", sym_a,
                    "defect=%.3e" % linalg.symmetry_defect(spec.a)))
    # for symmetric M > 0, sigma_min([M; G; A]) >= lambda_min(M); above the
    # bound it clears rank_with_tol's cutoff 3n eps sigma_max twice over
    bound = 6 * spec.n * _EPS * np.sqrt(spec.norm_m ** 2 + spec.norm_g ** 2 + spec.norm_a ** 2)
    joint = (sym_m and sym_g and sym_a and spec.m_mass > bound) or (
        linalg.rank_with_tol(np.vstack([spec.m, spec.g, spec.a])) == spec.n)
    clauses.append(("joint_kernel_trivial", joint, "rank[M;G;A] vs n=%d" % spec.n))
    if spec.rank_one is not None:
        b = spec.rank_one.b
        k = spec.rank_one.e_index
        ok = b > 0 and 0 <= k < spec.n
        if ok:
            outer = np.zeros_like(spec.g)
            outer[k, k] = b
            ok = float(np.linalg.norm(spec.g - outer)) <= 1e-10 * b
        clauses.append(("g_rank_one_consistent", ok, "b=%r e_index=%r" % (b, k)))
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
    # largest distance of a member value from lam; 0 for a record of one value
    spread: float = field(default=0.0, compare=False)


@dataclass
class SpectrumResult:
    eta: float
    records: list
    n_finite: int
    discarded_infinite: int
    scale: float
    # route ("modal", "companion"), shift (companion only), discarded_infinite
    # and type1_from ("modes", "kernel_vectors", "unclassified")
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
    when block is None), with one stacked matmul per distinct block width.

    BLAS picks its kernel by the shape and memory order of the operands, so
    one product over the columns of many blocks can differ in the last bits
    from the product over one block.  A stacked matmul whose items keep the
    memory order of b (C order, or F order as fancy indexing x[:, cols]
    leaves it) multiplies each block exactly as a @ b.real would for a b
    holding that block's columns alone, in their order.
    """
    widths = [] if block is None else np.bincount(block)
    if np.count_nonzero(widths) <= 1:
        return a @ b.real
    rows = b.shape[0]
    out = np.empty((a.shape[0], b.shape[1]))
    order = np.argsort(block, kind="stable")
    starts = np.cumsum(widths) - widths
    for w in np.unique(widths[widths > 0]).tolist():
        cols = order[(starts[widths == w][:, None] + np.arange(w)).ravel()]
        if b.flags.c_contiguous:
            items = np.ascontiguousarray(b[:, cols].reshape(rows, -1, w).transpose(1, 0, 2))
        else:
            items = b.T[cols].reshape(-1, w, rows).transpose(0, 2, 1)
        out[:, cols] = np.matmul(a, items.real).transpose(1, 0, 2).reshape(a.shape[0], -1)
    return out


def _simple_pairs(spec, eta, lams, vecs, block=None):
    """Unit eigenvectors and residuals ||L(lam, eta) v|| for simple values.

    Column j of vecs belongs to lams[j] (and eta[j] for an array eta).  A
    vector whose imaginary part is rounding noise is made exactly real.
    The residuals come from one product with the stack [A; G's nonzero
    rows; M] (M left out when diagonal), so they may differ from a
    per-value evaluate() in the last bits.  Columns from several spectra
    carry their spectrum's number in block (_matmul_blocks), which keeps
    each column's bits those of its spectrum alone.
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
    resid = (lams * lams) * mv - prod[:n]
    resid[rows] -= (lams * eta) * prod[n:n + rows.size]
    return vecs, np.linalg.norm(resid, axis=0)


def _vector_type1(spec, eta, records):
    """dim(ker L(lam, eta) ∩ ker G) per record, from its kernel basis V
    (orthonormal columns) and residual rho = max ||L V c|| over unit c.

    The geo - 1 directions V c with (V c)_e = 0 keep the residual of the
    stack [L; b e^T] below rho, so type1 = geo iff hypot(rho, b ||V[e, :]||)
    <= tol, else geo - 1: the nullity of the stack whenever geo is right
    (Courant-Fischer).  tol is _kernel_tol with the bound hypot(|lam|^2 ||M||
    + |lam| eta ||G|| + ||A||, b) on the stack's norm.  A basis is off ker G
    by about eps / gap next to a close value, so a record whose hypot lies
    below 1e-6 * that bound takes the stack's nullity itself, as does a
    record at lam = 0 (within the zero band), whose kernel is ker A ∩ ker G.
    """
    if not records:
        return []
    b, e, n = spec.rank_one.b, spec.rank_one.e_index, spec.n
    lams = np.array([rec.lam for rec in records], dtype=complex)
    geo = np.array([rec.geo_mult for rec in records])
    rho = np.array([rec.residual for rec in records])
    spreads = np.array([rec.spread for rec in records])
    axis = np.abs(np.concatenate([rec.vectors[e] for rec in records])) ** 2
    dist = np.hypot(rho, b * np.sqrt(np.add.reduceat(axis, np.cumsum(geo) - geo)))
    alam = np.abs(lams)
    smax = np.hypot(alam * alam * spec.norm_m + alam * eta * spec.norm_g + spec.norm_a, b)
    tol = _kernel_tol(spec, lams, eta, spreads, smax, 2 * n)
    type1 = geo - (dist > tol)
    zero = alam <= _ZERO_BAND * spec.scale
    import scipy.linalg as sla
    for i in np.flatnonzero(zero | ((dist > tol) & (dist <= 1e-6 * smax))):
        lam, e_i, sp = (0.0, 0.0, 0.0) if zero[i] else (lams[i], eta, spreads[i])
        lam = lam if lam.imag else lam.real
        svals = sla.svdvals(np.vstack([evaluate(spec, lam, e_i), spec.g[spec.g_rows]]),
                            check_finite=False)
        type1[i] = n - np.count_nonzero(svals > _kernel_tol(spec, lam, e_i, sp, svals[0], 2 * n))
    return type1.tolist()


@dataclass
class Modes:
    """Modes of (A, M) for the modal route and what follows from them
    alone, solved once per spec.

    mu holds every mode's eigenvalue, and mu_max is max(1, max |mu|); cpl
    indexes the coupled modes (components w_c on the coupling axis,
    vectors phi_c), and q = (sqrt(mu_c), -sqrt(mu_c)) are the poles of
    their secular function, with weights eta b q_weight and uncertainties
    q_err.  Each decoupled mode gives a value per sign in d_val (a zero
    pair for a zero mode).  d_group numbers the values outside the zero
    band (indices d_out) by degenerate run and sign, and g_mean holds each
    such group's mean.  d_col marks the values that bring their mode's
    vector, the columns of d_vecs (a zero pair brings one).
    """

    mu: np.ndarray
    mu_max: float
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


def _modes(spec):
    """The eta-independent part of the modal route, solved on first use.

    eigh(A, M) gives M-orthonormal modes phi with w = phi[e].  Inside each
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
        return spec._modes
    import scipy.linalg as sla
    try:
        mu, phi = sla.eigh(spec.a, spec.m, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigh(A, M) failed: %s" % exc)
    w = phi[spec.rank_one.e_index].copy()
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
    spec._modes = Modes(mu=mu, mu_max=mu_max, cpl=cpl, w_c=w[cpl], phi_c=phi[:, cpl],
                        q=q, q_weight=np.concatenate([w2, w2]),
                        q_err=_pole_errors(q, mu_max), d_val=d_val,
                        d_out=np.flatnonzero(~d_band), d_group=d_group, g_mean=g_mean,
                        d_col=d_col, d_vecs=phi[:, d_mode[d_col]])
    return spec._modes


def count_negative_modes(spec):
    """kappa_A, the number of negative eigenvalues of lambda M - A for M
    definite; the threshold is -1e-8 max(1, max |mu|).  An axis rank-one
    spec reads mu from its cached modes, any other from one eigvalsh(A, M)."""
    if spec.rank_one is not None:
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


def _real_secular_roots(mu, w, c):
    """One root of f in each gap between consecutive real poles and one
    beyond the largest, by the safeguarded middle-way rational iteration of
    LAPACK dlaed4 (Bunch, Nielsen & Sorensen 1978; Li 1993).

    Each root is held as an offset tau from the pole it lies nearer to, so
    roots that hug a pole keep their relative accuracy.  Modes with mu < 0
    have no real pole and enter as a smooth term h.  Returns the roots,
    ascending.
    """
    pos = mu > 0.0
    zero = mu == 0.0
    sp = np.sqrt(mu[pos])
    q = np.concatenate([-sp, np.zeros(np.count_nonzero(zero)), sp])
    cq = np.concatenate([0.5 * c * w[pos] ** 2, c * w[zero] ** 2, 0.5 * c * w[pos] ** 2])
    order = np.argsort(q)
    q, cq = q[order], cq[order]
    npole = q.size
    if npole == 0:
        return np.zeros(0)
    neg = mu < 0.0
    mu_n, cw_n = mu[neg], c * w[neg] ** 2
    # gap g lies between poles g and g + 1; the last gap is (q_max, inf)
    left = np.arange(npole)
    right = np.minimum(left + 1, npole - 1)
    last = left == npole - 1
    total = c * float(w @ w)
    half = np.where(last, total, 0.5 * (q[right] - q[left]))
    lo = np.zeros(npole)
    hi = np.where(last, 2.0 * total, half)
    origin = left.copy()
    tau = half.copy()
    # an interior root lies left of the midpoint iff f(mid) > 0; else take it
    # as an offset from the right pole
    mid_f = _real_secular_eval(q, cq, mu_n, cw_n, origin, tau)[0]
    flip = ~last & (mid_f < 0.0)
    origin[flip] = right[flip]
    tau[flip] = -half[flip]
    lo[flip], hi[flip] = -half[flip], 0.0
    done = ~last & (mid_f == 0.0)
    for _ in range(_SECULAR_MAXIT):
        act = np.flatnonzero(~done)
        if act.size == 0:
            break
        o = origin[act]
        f, dleft, dright, dsmooth, ferr = _real_secular_eval(
            q, cq, mu_n, cw_n, o, tau[act], left[act])
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
    return np.sort(q[origin] + tau)


def _real_secular_eval(q, cq, mu_n, cw_n, origin, tau, left=None):
    """f at q[origin] + tau with the pole distances taken as offsets.

    Without left, returns (f,).  With left, also the slopes of the pole
    terms up to pole left and after it, the slope of the smooth term and a
    rounding bound on f.
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
    ferr = ferr + _EPS * np.abs(tau) * (dleft + dright + np.abs(dsmooth))
    return f, dleft, dright, dsmooth, ferr


def _aberth(q, cq, fixed, guesses):
    """The roots of P(z) = prod_l (z - q_l) f(z) other than the fixed ones,
    by Aberth iteration from the guesses (Bini, Numer. Algorithms 1996).

    A root stops moving once |f| is below its rounding bound or its
    correction is below rounding.  Near-real results are made real and the
    others paired with their conjugates, as the roots of a real polynomial.
    """
    u = np.asarray(guesses, dtype=complex).copy()
    if u.size == 0:
        return u
    err = np.zeros(u.size)
    done = np.zeros(u.size, dtype=bool)
    for _ in range(4 * _SECULAR_MAXIT):
        act = np.flatnonzero(~done)
        if act.size == 0:
            break
        z = u[act]
        d = z[:, None] - q[None, :]
        t = cq / d
        f = 1.0 - t.sum(axis=1)
        df = (t / d).sum(axis=1)
        ferr = 8.0 * _EPS * (1.0 + np.abs(t).sum(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            logd = (1.0 / d).sum(axis=1) + df / f
            other = z[:, None] - u[None, :]
            other[np.arange(act.size), act] = np.inf
            rep = (1.0 / other).sum(axis=1)
            if fixed.size:
                rep = rep + (1.0 / (z[:, None] - fixed[None, :])).sum(axis=1)
            corr = 1.0 / (logd - rep)
        conv = np.abs(f) <= ferr
        if not np.all(np.isfinite(corr) | conv):
            raise NoConvergence("Aberth iteration hit a pole")
        u[act] = np.where(conv, z, z - corr)
        err[act] = np.where(conv, ferr / np.maximum(np.abs(df), _EPS), np.abs(corr))
        done[act] = conv | (np.abs(corr) <= 2.0 * _EPS * np.abs(z))
    else:
        if not done.all():
            raise NoConvergence("Aberth iteration did not converge")
    # a real polynomial: snap roots within their error of the axis, pair the rest
    tol = 10.0 * err + 4.0 * _EPS * np.abs(u)
    real = np.abs(u.imag) <= tol
    u[real] = u[real].real
    upper = np.flatnonzero(~real & (u.imag > 0.0))
    lower = np.flatnonzero(~real & (u.imag < 0.0))
    if upper.size == lower.size:
        for i in upper:
            j = lower[np.argmin(np.abs(u[lower] - np.conj(u[i])))]
            mean = 0.5 * (u[i] + np.conj(u[j]))
            u[i], u[j] = mean, np.conj(mean)
    return u


def _at_poles(q, cq):
    """Per row of weights cq: whether every root of
    P(z) = prod_l (z - q_l) f(z) rounds to its own pole (_pole_roots).

    With s = sum |cq|, the disc of radius 4 s about a nonzero pole holds
    exactly one root when 8 s is at most the distance to every other pole
    (Rouche on (z - q) f(z)), and 16 s <= eps |q| puts that disc within
    half an ulp of q.  A real and an imaginary pole are at least min |q|
    apart, and a nonzero pole is |q| from the zero pole of a coupled mode
    with mu = 0.
    """
    s = np.abs(cq).sum(axis=-1)
    q = q[q != 0.0]
    real = q.imag == 0.0
    gaps = np.concatenate([np.diff(np.sort(q.real[real])),
                           np.diff(np.sort(q.imag[~real]))])
    return (16.0 * s <= _EPS * np.abs(q).min(initial=np.inf)) & (
        8.0 * s <= gaps.min(initial=np.inf))


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


def _secular_values(mu, w, c):
    """The 2m coupled values, the roots of prod_k (lam^2 - mu_k) f(lam).

    At c = eta b = 0, and whenever every root rounds to its pole
    (_at_poles: c so small that the iterations below would seek offsets
    lost to rounding), they are the poles +-sqrt(mu) (_pole_roots).  Otherwise the real
    roots that the poles bracket come from _real_secular_roots; a zero mu
    adds the exact root 0; the rest (at most 2 kappa_c, kappa_c the count
    of mu < 0) come from Aberth iteration started at the first-order
    location q + cq of the imaginary poles q = +-i sqrt(-mu).
    """
    q, cq = _poles(mu, w, c)
    if _at_poles(q, cq):
        return _pole_roots(q, cq)
    fixed = _real_secular_roots(mu, w, c)
    if np.any(mu == 0.0):
        fixed = np.append(fixed, 0.0)
    imag = np.flatnonzero(np.concatenate([mu < 0.0, mu < 0.0]))
    # turned by the golden angle so no guess is another's conjugate: a
    # conjugate pair of iterates cannot split into two real roots
    turn = np.exp(1j * (0.5 + 2.399963 * np.arange(imag.size)))
    rest = _aberth(q, cq, fixed, q[imag] + cq[imag] * turn)
    return np.concatenate([fixed.astype(complex), rest])


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


def _inclusion_radii(z, q, cq, q_err):
    """Centers and radii of discs around the approximations z of the roots
    of P(z) = prod_l (z - q_l) f(z) whose union holds every root, a
    connected component of k discs holding exactly k (Gerschgorin on the
    Weierstrass corrections W_j = P(z_j) / prod_{i != j} (z_j - z_i);
    Carstensen, Numer. Math. 1991).  The radius is n (|W_j| + its rounding
    bound), and the center z_j.  z and cq may be stacks, one row per
    secular function.

    The rounding bound on P(z_j) takes each distance z - q_l uncertain by
    4 eps |z| plus q_err[l], the uncertainty of the pole (_pole_errors).
    """
    shape = z.shape
    n = shape[-1]
    z = z.reshape(-1, n)
    cq = np.reshape(cq, (-1, 1, q.size))
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
    bound = (1.0 + (cq / ad).sum(axis=2)) * (8.0 * _EPS + (err / ad).sum(axis=2))
    logw = np.log(ad).sum(axis=2) - np.log(gaps).sum(axis=2)
    return z.reshape(shape), (n * np.exp(logw) * (np.abs(f) + bound)).reshape(shape)


def _pole_errors(q, mu_max):
    """Uncertainty of the poles q = +-sqrt(mu): a few ulps of |q| plus the
    backward error of mu in eigh(A, M), 4 eps max |mu|, carried to
    sqrt(mu)."""
    dmu = 4.0 * _EPS * mu_max
    return 4.0 * _EPS * np.abs(q) + dmu / (np.abs(q) + np.sqrt(dmu))


def _companion_links(lams, zero_tol):
    """Links between values within the gap 1e-6 max(1, mean of their |.|),
    and between all values inside the zero band |lam| <= zero_tol: a
    defective zero pair can split symmetrically by slightly more than the
    gap and must still report as one eigenvalue at the origin."""
    mags = np.abs(lams)
    near = np.abs(lams[:, None] - lams) <= 1e-6 * np.maximum(
        1.0, 0.5 * (mags[:, None] + mags))
    zero = mags <= zero_tol
    return near | (zero[:, None] & zero)


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
    alg = geo = type1 = its size.  The coupled values come from eigvals of
    the 2m companion below _SECULAR_MIN_M coupled modes and from the
    secular equation above; a connected component of k inclusion discs is
    one record with alg k and geo 1 (the coupled block is unreduced), and a
    decoupled group whose mean lies in one of its discs joins it (and links
    the components of all discs holding it).  Every value within the zero
    band forms one zero record.  A coupled record's vector is
    Phi_c (lam^2 - D_c)^{-1} w_c; type1 counts the decoupled modes in a
    record.  Each step runs once over all etas: on stacks with a row per
    eta, or over one numbering of the records of all etas.  Returns per
    eta the records and their type I counts.
    """
    md = _modes(spec)
    mu_c, w_c = md.mu[md.cpl], md.w_c
    etas = np.array(etas, dtype=float)
    c = etas * spec.rank_one.b
    ntar = c.size
    if md.cpl.size >= _SECULAR_MIN_M:
        z = np.array([_secular_values(mu_c, w_c, ci) for ci in c.tolist()])
    else:
        z = _companion_eigvals(mu_c, w_c, c).astype(complex)
        # where the roots round to their poles, eigvals' rounding noise
        # would be all of their offsets
        q, cq = _poles(mu_c, w_c, c[:, None])
        at = (c > 0.0) & _at_poles(q, cq)
        z[at] = _pole_roots(q, cq[at])
    centers, radii = _inclusion_radii(z, md.q, c[:, None] * md.q_weight, md.q_err)
    nz, nd = z.shape[1], md.d_val.size

    # labels: 0 for the zero band, then the components of the coupled discs
    # outside it together with the decoupled group means as discs of radius
    # 0, so a group joins the component of any disc holding its mean; a
    # disc in the zero band links to nothing
    out = np.abs(z) > _ZERO_BAND * spec.scale
    ng = md.g_mean.size
    cz = np.concatenate([centers, np.broadcast_to(md.g_mean, (ntar, ng))], axis=1)
    cr = np.concatenate([radii, np.zeros((ntar, ng))], axis=1)
    keep = np.concatenate([out, np.ones((ntar, ng), dtype=bool)], axis=1)
    near = np.abs(cz[:, :, None] - cz[:, None, :]) <= cr[:, :, None] + cr[:, None, :]
    near &= keep[:, :, None] & keep[:, None, :]
    near |= np.eye(nz + ng, dtype=bool)
    comp = 1 + _components(near)
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
    if hit.any():
        pinned = hit.any(axis=0)
        y = w_c[:, None] / np.where(hit, 1.0, den)
        y[:, pinned] = hit[:, pinned]
    else:
        y = w_c[:, None] / den
    owner = col_eta[:crec.size]
    cvecs = _matmul_blocks(md.phi_c, y, owner).astype(complex)
    cplx = np.flatnonzero(y.imag.any(axis=0))
    if cplx.size:
        cvecs[:, cplx] += 1j * _matmul_blocks(md.phi_c, y.imag[:, cplx], owner[cplx])
    vecs = np.hstack([cvecs, np.tile(md.d_vecs, ntar)])
    vecs, resids = _simple_pairs(spec, etas[col_eta], rep[col_rec], vecs, col_eta)
    records = _records(rep, alg, spread, col_rec, vecs, resids)
    type1 = type1.tolist()
    return [(records[lo:hi], type1[lo:hi])
            for lo, hi in zip([0] + ends[:-1].tolist(), ends.tolist())]


def _companion_values(spec, eta):
    """The shift, the finite values, their vectors and the number of
    infinite ones, from the shifted, reversed companion of the pencil."""
    n = spec.n
    sigma = choose_shift(spec, eta)
    l0 = evaluate(spec, sigma, eta)
    p1 = 2.0 * sigma * spec.m - eta * spec.g
    p2 = spec.m
    import scipy.linalg as sla
    lu, piv = sla.lu_factor(l0, check_finite=False)
    # one refinement pass; the companion blocks must be accurate enough that
    # defective clusters split below the clustering gap
    b2 = sla.lu_solve((lu, piv), p2, check_finite=False)
    b2 += sla.lu_solve((lu, piv), p2 - l0 @ b2, check_finite=False)
    b1 = sla.lu_solve((lu, piv), p1, check_finite=False)
    b1 += sla.lu_solve((lu, piv), p1 - l0 @ b1, check_finite=False)

    comp = np.zeros((2 * n, 2 * n))
    comp[:n, n:] = np.eye(n)
    comp[n:, :n] = -b2
    comp[n:, n:] = -b1
    dec = linalg.eigen_standard(comp)
    mus = dec.values
    vecs = dec.vectors

    tau_inf = 1e-10 * max(1.0, spec.spec_norm)
    # defective chains at infinity split at sqrt(eps) under rounding, which
    # lands above tau_inf; catch those by their vanishing mass content
    tau_soft = 1e-7 * max(1.0, spec.spec_norm)
    m_floor = 1e-6 * spec.norm_m
    amus = np.abs(mus)
    keep = amus >= tau_inf
    for i in np.flatnonzero(keep & (amus < tau_soft)):
        v = vecs[:n, i]
        nv = np.linalg.norm(v)
        if nv > 0.0 and np.linalg.norm(spec.m @ v) <= m_floor * nv:
            keep[i] = False
    finite_idx = np.flatnonzero(keep)
    return sigma, sigma + 1.0 / mus[finite_idx], vecs[:n, finite_idx], 2 * n - finite_idx.size


def _companion_records(spec, eta, lams, vecs):
    """Records of the companion route, grouped by _companion_links.  A
    record of one value keeps its eigenvector; a record of several takes
    geo and a kernel basis from an SVD of L at its mean."""
    import scipy.linalg as sla
    n = spec.n
    label = _relabel(_components(_companion_links(lams, _ZERO_BAND * spec.scale)))
    alg, rep, spread = _groups(label, lams)
    simple = alg[label] == 1
    kvecs, resids = _simple_pairs(spec, eta, lams[simple], vecs[:, simple])
    cols, col_res, col_rec = [kvecs], [resids], [label[simple]]
    for k in np.flatnonzero(alg > 1).tolist():
        _, s, vh = sla.svd(evaluate(spec, _real_if_zero_imag(complex(rep[k])), eta),
                           check_finite=False)
        tol = _kernel_tol(spec, rep[k], eta, spread[k], float(s[0]), n)
        geo = max(1, min(n - int(np.count_nonzero(s > tol)), int(alg[k])))
        cols.append(vh[n - geo:].conj().T)
        col_res.append(np.full(geo, s[n - geo]))
        col_rec.append(np.full(geo, k))
    return _records(rep, alg, spread, np.concatenate(col_rec), np.hstack(cols),
                    np.concatenate(col_res))


# Elements allowed in each batched temporary of spectra(): a chunk holds as
# many etas as keep the largest within it, and at least one
_BATCH_ELEMENTS = 2 ** 18


def spectra(spec, etas):
    """spectrum(spec, eta) for each of etas, in order.

    On the modal route the etas go in chunks, and each step of
    _modal_records runs once per chunk, so a track's targets share the
    per-call overhead.  A chunk holds as many etas as keep every batched
    temporary (companions, disc links, kernel columns) within
    _BATCH_ELEMENTS elements, and one eta when a single one exceeds it.
    The companion route solves eta by eta.  The results are bitwise those
    of one call per eta.
    """
    for eta in etas:
        if not (-1e-12 <= eta <= 1.0 + 1e-12):
            raise InvalidInput("eta must lie in [0, 1], got %r" % (eta,))
    etas = [min(max(eta, 0.0), 1.0) for eta in etas]
    # the modal route: M definite (the nonreal_region test), axis rank-one G
    if spec.rank_one is not None and spec.m_definite:
        md = _modes(spec)
        m = md.cpl.size
        # the largest per-eta temporaries: the disc links over coupled values
        # and group means, and the residual products over kernel columns
        links = (2 * m + md.g_mean.size) ** 2
        cols = spec.residual_stack.shape[0] * (2 * m + md.d_vecs.shape[1])
        size = max(1, _BATCH_ELEMENTS // max(links, cols))
        solved = []
        for s in range(0, len(etas), size):
            solved.extend(_modal_records(spec, etas[s:s + size]))
        solver = "secular" if m >= _SECULAR_MIN_M else "eigvals"
        return [_result(spec, eta, records, type1, 0, True, {
            "route": "modal", "type1_from": "modes", "coupled_modes": m,
            "coupled_solver": solver}) for eta, (records, type1) in zip(etas, solved)]
    out = []
    for eta in etas:
        sigma, lams, vecs, discarded = _companion_values(spec, eta)
        records = _companion_records(spec, eta, lams, vecs)
        classified = spec.rank_one is not None and spec.ker_ma_trivial
        type1 = _vector_type1(spec, eta, records) if classified else [0] * len(records)
        out.append(_result(spec, eta, records, type1, discarded, classified, {
            "route": "companion", "shift": sigma, "type1_from":
            "kernel_vectors" if classified else "unclassified"}))
    return out


def _result(spec, eta, records, type1, discarded, classified, diagnostics):
    """The SpectrumResult of records with their type I counts: types set,
    records sorted by (real, imag)."""
    diagnostics["discarded_infinite"] = int(discarded)
    # without an axis rank-one G and ker M ∩ ker A = {0}, all type II
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

    type1_mult = dim(ker L(lam) ∩ ker G), which is independent of eta, from
    the record's orthonormal kernel vectors and residual (_vector_type1).
    For lam = 0 the split is reported but the identity with the persistent
    multiplicity is not asserted (the record should carry zero_flagged).
    """
    if spec.rank_one is None:
        raise InvalidInput("type classification requires the rank-one flag")
    if not spec.ker_ma_trivial:
        raise PreconditionKerMA("ker M ∩ ker A must be trivial")
    t1 = min(_vector_type1(spec, eta, [record])[0], record.alg_mult)
    return t1, record.alg_mult - t1


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
