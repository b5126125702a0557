"""Quadratic pencil L(lambda, eta) = lambda^2 M - lambda eta G - A.

M and G are real symmetric positive semidefinite, A real symmetric, and the
joint kernel of the three matrices is trivial.  The featured case carries a
rank-one coupling G = b e e^T.  spectrum() takes one of two routes:

- M definite with an axis rank-one G (the modal route): the modes of
  (A, M) are solved once per spec.  Modes without a component on the
  coupling axis give the type I values +-sqrt(mu) directly; the coupled
  modes alone go through a small companion eigenproblem that carries eta.
- every other pencil (the companion route): substitute nu = lambda - sigma
  with L(sigma, eta) invertible, reverse mu = 1/nu, and solve the standard
  companion eigenproblem of the reversed polynomial.  Eigenvalues at
  infinity (singular M) show up as mu ~ 0 and are discarded but counted.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

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


class PencilSpec:
    """Validated triple (M, G, A) plus derived constants.

    beta = max(0, -lambda_min(A)) is the lower-bound constant of A,
    m_mass = lambda_min(M), g_top = lambda_max(G).  scale is used to make
    thresholds dimensionless.
    """

    def __init__(self, m, g, a, rank_one=None, validate=True,
                 m_kind="dense", g_kind=None):
        self.m = linalg.as_matrix(m, "M")
        self.g = linalg.as_matrix(g, "G")
        self.a = linalg.as_matrix(a, "A")
        if self.m.shape != self.g.shape or self.m.shape != self.a.shape:
            raise DimensionMismatch("M, G, A must share one shape")
        self.n = self.m.shape[0]
        self.rank_one = rank_one
        # serialization hints only; no semantic content
        self.m_kind = m_kind
        self.g_kind = g_kind or ("rank_one" if rank_one is not None else "dense")

        m_eigs = sla.eigvalsh(0.5 * (self.m + self.m.T), check_finite=False)
        g_eigs = sla.eigvalsh(0.5 * (self.g + self.g.T), check_finite=False)
        a_eigs = sla.eigvalsh(0.5 * (self.a + self.a.T), check_finite=False)
        self.m_mass = float(m_eigs[0])
        self.g_min = float(g_eigs[0])
        self.g_top = float(g_eigs[-1])
        self.beta = max(0.0, -float(a_eigs[0]))
        self.norm_m = float(np.max(np.abs(m_eigs))) if self.n else 0.0
        self.norm_g = float(np.max(np.abs(g_eigs))) if self.n else 0.0
        self.norm_a = float(np.max(np.abs(a_eigs))) if self.n else 0.0
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

    @property
    def m_definite(self):
        """True iff lambda_min(M) > 1e-10 max(1, |M|): M is definite."""
        return self.m_mass > 1e-10 * max(1.0, self.norm_m)

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
    stacked = np.vstack([spec.m, spec.g, spec.a])
    joint = linalg.rank_with_tol(stacked) == spec.n
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


@dataclass
class SpectrumResult:
    eta: float
    records: list
    n_finite: int
    discarded_infinite: int
    scale: float
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


def choose_shift(spec, eta):
    """First candidate shift keeping L(sigma, eta) comfortably invertible."""
    thresh = 1e-8 * max(spec.spec_norm, np.finfo(float).tiny)
    for sigma in linalg.SHIFT_CANDIDATES + linalg._EXTRA_SHIFTS:
        if linalg.smallest_singular_value(evaluate(spec, sigma, eta)) > thresh:
            return sigma
    raise ShiftExhausted(
        "no candidate shift regularizes L(sigma, eta=%r)" % (eta,)
    )


def _cluster_points(lams, zero_tol=0.0):
    """Single-linkage clusters with gap tolerance 1e-6 * max(1, mean |.|).

    Points inside the numerically-zero band (|lam| <= zero_tol) are forced
    into a single cluster: a defective zero pair can split symmetrically by
    slightly more than the gap tolerance and must still report as one
    eigenvalue at the origin.  Clusters come out ordered by their smallest
    member, members ascending.
    """
    npts = len(lams)
    if npts == 0:
        return []
    pts = np.asarray(lams)
    dist = np.abs(pts[:, None] - pts[None, :])
    mags = np.abs(pts)
    tol = 1e-6 * np.maximum(1.0, 0.5 * (mags[:, None] + mags[None, :]))
    near = dist <= tol
    if zero_tol > 0.0:
        zmask = mags <= zero_tol
        if np.count_nonzero(zmask) > 1:
            near = near | (zmask[:, None] & zmask[None, :])
    rows, cols = np.nonzero(np.triu(near, 1))
    # union-find over the linked pairs; iterating in index order below keys
    # each cluster by its smallest member
    parent = list(range(npts))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(rows.tolist(), cols.tolist()):
        ri, rj = root(i), root(j)
        if ri != rj:
            parent[rj] = ri
    clusters = {}
    for i in range(npts):
        clusters.setdefault(root(i), []).append(i)
    return list(clusters.values())


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


# entries per batched SVD stack: at most 32 MB real, 64 MB complex
_SVD_BATCH = 1 << 22


def _stacked_type1(spec, lams, eta, spreads):
    """dim(ker L(lam, eta) ∩ ker G) per value, from the rank of L over G.

    At lam = 0 (within 1e-7 * scale) the eta-independent kernel is
    ker A ∩ ker G.  G's all-zero rows are dropped, which leaves the
    singular values unchanged; real and nonreal values go through separate
    batched SVDs so the real ones stay in real arithmetic.
    """
    n = spec.n
    lams = np.asarray(lams, dtype=complex)
    zero = np.abs(lams) <= 1e-7 * spec.scale
    lams = np.where(zero, 0.0, lams)
    etas = np.where(zero, 0.0, eta)
    spreads = np.where(zero, 0.0, spreads)
    g_rows = spec.g[np.any(spec.g != 0.0, axis=1)]
    rows = n + g_rows.shape[0]
    chunk = max(1, _SVD_BATCH // max(1, rows * n))
    dims = np.zeros(lams.size, dtype=int)
    real = lams.imag == 0.0
    for sel, vals in ((np.flatnonzero(real), lams.real), (np.flatnonzero(~real), lams)):
        for start in range(0, sel.size, chunk):
            idx = sel[start:start + chunk]
            lam = vals[idx]
            eta_lam = lam * etas[idx]
            stack = np.empty((idx.size, rows, n), dtype=lam.dtype)
            stack[:, :n] = ((lam * lam)[:, None, None] * spec.m
                            - eta_lam[:, None, None] * spec.g - spec.a)
            stack[:, n:] = g_rows
            svals = np.linalg.svd(stack, compute_uv=False)
            tol = _kernel_tol(spec, lam, etas[idx], spreads[idx], svals[:, 0], 2 * n)
            dims[idx] = n - np.count_nonzero(svals > tol[:, None], axis=1)
    return dims


def _real_if_zero_imag(lam):
    return complex(lam.real, 0.0) if abs(lam.imag) == 0.0 else lam


def _simple_pairs(spec, eta, lams, vecs):
    """Unit eigenvectors and residuals ||L(lam, eta) v|| for simple values.

    Column j of vecs belongs to lams[j].  A vector whose imaginary part is
    rounding noise is made exactly real.  The residuals come from M V, G V
    and A V in one product, so they may differ from a per-value evaluate()
    in the last bits.
    """
    nrm = np.linalg.norm(vecs, axis=0)
    vecs = vecs / np.where(nrm > 0.0, nrm, 1.0)
    noise = np.max(np.abs(vecs.imag), axis=0) <= 1e-14 * np.maximum(
        1.0, np.max(np.abs(vecs.real), axis=0))
    vecs[:, noise] = vecs[:, noise].real
    n = spec.n
    mga = np.vstack([spec.m, spec.g, spec.a])
    prod = (mga @ vecs.real).astype(complex)
    cplx = np.flatnonzero(~noise)
    if cplx.size:
        prod[:, cplx] += 1j * (mga @ vecs.imag[:, cplx])
    resid = (lams * lams) * prod[:n] - (lams * eta) * prod[n:2 * n] - prod[2 * n:]
    return vecs, np.linalg.norm(resid, axis=0)


def _fill_types(spec, eta, records, type1=None):
    """Type split of every record.

    type1 is the modal route's count of decoupled modes per record; without
    it each record's kernel inside ker G comes from the stacked rank.
    """
    if not records:
        return
    lams = np.array([rec.lam for rec in records], dtype=complex)
    if type1 is None:
        if spec.rank_one is None or not spec.ker_ma_trivial:
            for rec in records:
                rec.type1_mult = 0
                rec.type2_mult = rec.alg_mult
                rec.types_classified = False
            return
        spreads = np.array([rec._spread for rec in records])
        type1 = _stacked_type1(spec, lams, eta, spreads).tolist()
    zero = np.abs(lams) <= 1e-7 * spec.scale
    for rec, t1, z in zip(records, type1, zero.tolist()):
        rec.type1_mult = min(t1, rec.alg_mult)
        rec.type2_mult = rec.alg_mult - rec.type1_mult
        rec.zero_flagged = z


def _modes(spec):
    """The eta-independent part of the modal route, solved on first use.

    eigh(A, M) gives M-orthonormal modes phi with w = phi[e].  Inside each
    group of degenerate mu whose members couple more than once, a
    Householder reflection leaves one coupled vector, and the group's mu
    become the Rayleigh quotients of the reflected vectors.  The reflection
    mixes modes, so a group only holds mu equal up to rounding (relative
    gap 1e-9): a wider group would move values by its spread and call a
    coupled neighbour decoupled.  A mode is decoupled when
    |w_k| <= 1e-8 max |w|; it gives +-sqrt(mu) with its own vector, or a
    zero pair that counts once as type I when |mu| is below the floor.

    Returns (values, vectors, type I weights) of the decoupled modes and
    (mu, w, phi) of the coupled ones.
    """
    if spec._modes is not None:
        return spec._modes
    try:
        mu, phi = sla.eigh(spec.a, spec.m, check_finite=False)
    except sla.LinAlgError as exc:
        raise NoConvergence("eigh(A, M) failed: %s" % exc)
    w = phi[spec.rank_one.e_index].copy()
    cut = 1e-8 * float(np.max(np.abs(w)))
    i = 0
    while i < mu.size:
        j = i + 1
        gtol = 1e-9 * max(1.0, abs(mu[i]))
        while j < mu.size and abs(mu[j] - mu[i]) <= gtol:
            j += 1
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
    dec = np.abs(w) <= 1e-8 * float(np.max(np.abs(w)))
    zero = np.abs(mu[dec]) <= 1e-9 * max(1.0, float(np.max(np.abs(mu))))
    root = np.where(zero, 0.0, np.sqrt(mu[dec].astype(complex)))
    decoupled = (np.concatenate([root, 0.0 - root]), np.hstack([phi[:, dec]] * 2),
                 np.concatenate([np.ones(root.size, dtype=int), (~zero).astype(int)]))
    spec._modes = decoupled, (mu[~dec], w[~dec], phi[:, ~dec])
    return spec._modes


def _modal_values(spec, eta):
    """All 2n values, their vectors and type I weights on the modal route.

    The m coupled modes give their values through the 2m companion
    [[0, I], [D_c, eta b w_c w_c^T]], with x = Phi_c y.
    """
    (lams_d, vecs_d, weights_d), (mu_c, w_c, phi_c) = _modes(spec)
    m = mu_c.size
    comp = np.zeros((2 * m, 2 * m))
    comp[:m, m:] = np.eye(m)
    comp[m:, :m] = np.diag(mu_c)
    comp[m:, m:] = (eta * spec.rank_one.b) * np.outer(w_c, w_c)
    try:
        vals, y = np.linalg.eig(comp)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eig failed: %s" % exc)
    return (np.concatenate([lams_d, vals]), np.hstack([vecs_d, phi_c @ y[:m]]),
            np.concatenate([weights_d, np.zeros(2 * m, dtype=int)]))


def _companion_values(spec, eta):
    """Finite values, their vectors and the number of infinite ones from
    the shifted, reversed companion of the whole pencil."""
    n = spec.n
    sigma = choose_shift(spec, eta)
    l0 = evaluate(spec, sigma, eta)
    p1 = 2.0 * sigma * spec.m - eta * spec.g
    p2 = spec.m
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
    return sigma + 1.0 / mus[finite_idx], vecs[:n, finite_idx], 2 * n - finite_idx.size


def spectrum(spec, eta):
    """All finite eigenvalues of L(., eta) with multiplicities and types."""
    if not (-1e-12 <= eta <= 1.0 + 1e-12):
        raise InvalidInput("eta must lie in [0, 1], got %r" % (eta,))
    eta = min(max(eta, 0.0), 1.0)
    n = spec.n
    # the modal route: M definite (the nonreal_region test), axis rank-one G
    if spec.rank_one is not None and spec.m_definite:
        lams, vecs, weights = _modal_values(spec, eta)
        discarded = 0
    else:
        lams, vecs, discarded = _companion_values(spec, eta)
        weights = None

    clusters = _cluster_points(lams, zero_tol=1e-7 * spec.scale)
    simple = np.array([c[0] for c in clusters if len(c) == 1], dtype=int)
    simple_vecs, simple_resids = _simple_pairs(spec, eta, lams[simple],
                                               vecs[:, simple])
    records = []
    k = 0
    for members in clusters:
        alg = len(members)
        if alg == 1:
            rep = _real_if_zero_imag(complex(lams[members[0]]))
            spread = 0.0
            geo = 1
            kvecs = simple_vecs[:, k:k + 1]
            resid = float(simple_resids[k])
            k += 1
        else:
            group = lams[members]
            rep = _real_if_zero_imag(complex(np.mean(group)))
            spread = float(np.max(np.abs(group - rep)))
            lmat = evaluate(spec, rep, eta)
            u, s, vh = sla.svd(lmat, check_finite=False)
            tol = _kernel_tol(spec, rep, eta, spread, float(s[0]), n)
            rank = int(np.count_nonzero(s > tol))
            geo = max(1, min(n - rank, alg))
            kvecs = vh[n - geo:].conj().T
            resid = float(s[n - geo])
        rec = EigenRecord(
            lam=rep, alg_mult=alg, geo_mult=geo, type1_mult=0,
            type2_mult=alg, vectors=kvecs, residual=resid,
        )
        rec._spread = spread
        records.append(rec)

    type1 = None
    if weights is not None:
        counts = weights.tolist()
        type1 = [sum(counts[i] for i in members) for members in clusters]
    _fill_types(spec, eta, records, type1)
    records.sort(key=lambda r: (r.lam.real, r.lam.imag))
    return SpectrumResult(
        eta=eta,
        records=records,
        n_finite=int(sum(r.alg_mult for r in records)),
        discarded_infinite=int(discarded),
        scale=spec.scale,
    )


def geometric_multiplicity(spec, lam, eta):
    """n - rank(L(lam, eta)) with the automatic scale-invariant tolerance."""
    return spec.n - linalg.rank_with_tol(evaluate(spec, lam, eta))


def is_semisimple(spec, lam, eta):
    result = spectrum(spec, eta)
    rec = result.find(lam)
    if rec is None:
        raise NotAnEigenvalue("%r is not an eigenvalue at eta=%r" % (lam, eta))
    return rec.alg_mult == rec.geo_mult


def classify_type(spec, record, eta=1.0):
    """(type1_mult, type2_mult) for one eigenvalue record.

    type1_mult = dim(ker L(lam) ∩ ker G), which is independent of eta; for
    lam = 0 the split is reported but the identity with the persistent
    multiplicity is not asserted (the record should carry zero_flagged).
    """
    if spec.rank_one is None:
        raise InvalidInput("type classification requires the rank-one flag")
    if not spec.ker_ma_trivial:
        raise PreconditionKerMA("ker M ∩ ker A must be trivial")
    spread = getattr(record, "_spread", 0.0)
    m0 = int(_stacked_type1(spec, [record.lam], eta, [spread])[0])
    t1 = min(m0, record.alg_mult)
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
