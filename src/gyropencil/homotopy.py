"""Eigenvalue branch tracking over the coupling strength eta.

Branches of L(., eta) are piecewise analytic in eta; the tracker samples a
grid, matches consecutive spectra by minimum-cost assignment on predicted
positions, and judges each step branch by branch: a step stands unless
some branch's predictor misses its match by more than half that match's
distance to the nearest other matched value.  So the grid is the targets,
with midpoints inserted only where a branch's own predictor fails.
Branches meeting at a semisimple multiple value keep the velocities they
came with, so they leave it on their own curves.  Collisions are named
by the branches that meet: real branches that swap order across grid
points where they coincide (kind 1), and branches that turn real or
nonreal where the nonreal count changes (kinds 2 and 3); a grid point on
the collision is taken as it is, otherwise golden-section search localizes
a crossing and a count change lies in the step rule's 1e-6 bracket.
Also hosts the eigenvalue derivative formula, the +- pairing of real
eigenvalues, and the 2*kappa_A - kappa_c count.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DenominatorVanishes,
    HypothesisViolated,
    InvalidInput,
    MatchingAmbiguous,
    NotAnEigenvalue,
)
from .pencil import _is_real, count_negative_modes, evaluate, spectra, spectrum


def lambda_derivative(spec, lam, y, eta):
    """d lambda / d eta = lam (Gy,y) / (2 lam (My,y) - eta (Gy,y)).

    (lam, y) must be an eigenpair of L(., eta) within residual tolerance.
    The denominator vanishing is the analytic boundary of the formula and is
    reported instead of returning a huge quotient.
    """
    y = np.asarray(y, dtype=complex).ravel()
    ynorm = np.linalg.norm(y)
    if ynorm == 0:
        raise InvalidInput("eigenvector must be nonzero")
    resid = float(np.linalg.norm(evaluate(spec, lam, eta) @ y)) / ynorm
    if resid > 1e-7 * (1.0 + abs(lam) ** 2) * spec.scale:
        raise NotAnEigenvalue(
            "residual %.3e too large for eigenpair at %r" % (resid, lam)
        )
    myy = complex(y.conj() @ (spec.m @ y))
    gyy = complex(y.conj() @ (spec.g @ y))
    # selfadjoint coefficients: the quadratic forms are real
    myy, gyy = myy.real, gyy.real
    denom = 2.0 * lam * myy - eta * gyy
    floor = 1e-8 * max(abs(2.0 * lam * myy), abs(eta * gyy), np.finfo(float).tiny)
    if abs(denom) <= floor:
        raise DenominatorVanishes(
            "2 lam (My,y) - eta (Gy,y) = %.3e at lam=%r" % (abs(denom), lam)
        )
    d = lam * gyy / denom
    if abs(d.imag) <= 1e-10 * (1.0 + abs(d.real)):
        return float(d.real)
    return d


def _cabs(z):
    """|z| elementwise, rounded like Python's abs() of a complex: both
    call the C library's hypot, which np.abs does not."""
    return np.hypot(z.real, z.imag)


def _velocities(spec, lam, vecs, resid, eta):
    """lambda_derivative for many real eigenpairs at once.

    lam holds real eigenvalues, the columns of vecs their unit eigenvectors
    and resid their residuals ||L(lam, eta) v||, as EigenRecord.residual
    holds them.  Same residual test and denominator floor as the scalar
    formula, with sums that may round differently; M V is a row scaling
    when M is diagonal, and G V takes only G's nonzero rows.  Returns the
    velocities, 0.0 where lambda_derivative raises, and the masks of its
    NotAnEigenvalue and DenominatorVanishes cases.
    """
    rows = spec.g_rows
    mv = spec.m @ vecs if spec.m_diag is None else spec.m_diag[:, None] * vecs
    myy = np.einsum("ij,ij->j", vecs.conj(), mv).real
    gyy = np.einsum("ij,ij->j", vecs[rows].conj(), spec.g[rows] @ vecs).real
    not_eig = resid > 1e-7 * (1.0 + lam ** 2) * spec.scale
    two_lm = 2.0 * lam * myy
    eta_g = eta * gyy
    denom = two_lm - eta_g
    floor = 1e-8 * np.maximum(np.maximum(np.abs(two_lm), np.abs(eta_g)),
                              np.finfo(float).tiny)
    vanish = (np.abs(denom) <= floor) & ~not_eig
    bad = not_eig | vanish
    vel = lam * gyy / np.where(bad, 1.0, denom)
    vel[bad] = 0.0
    return vel, not_eig, vanish


@dataclass
class Branch:
    ident: int
    values: list            # one complex (or None gap) per grid point
    escaped: bool = False


@dataclass
class CollisionEvent:
    eta_star: float
    lambda_star: complex
    kind: int               # 1|2|3 per the collision taxonomy; 0 = mixed
    participants: list


@dataclass
class TrajectorySet:
    """Tracked branches over eta_grid, with the collision events.

    diagnostics says what the track cost: spectra_solved (all spectra,
    events included), grid_points, rejected_steps (one dict per refused
    step: eta_from, eta_to, and the error and half_separation of the branch
    that fails the step rule by the widest ratio), derivative_fallbacks (by
    the exception lambda_derivative would raise), event_spectra (the
    spectra solved while localizing events) and crossing_velocities (the
    slots of semisimple multiple values that kept their branch's velocity
    from the previous grid point).
    """
    eta_grid: list
    branches: list
    events: list
    diagnostics: dict = field(default_factory=dict)


class _Slots:
    """One spectrum with each eigenvalue repeated alg_mult times, in the
    records' (real, imag) order: per slot its record and value, whether it
    sits beyond half the escape radius, and whether its record is a
    semisimple multiple one (crossing), where branches meet with their own
    velocities.  On the modal route such a record's first vector is its
    coupled one, if it holds one: its first type2_mult slots take it, and
    the rest (type I, still) do not move."""

    def __init__(self, result, escape):
        slots = [(r, i) for r in result.records for i in range(r.alg_mult)]
        self.recs = [r for r, _ in slots]
        self.lams = [r.lam for r in self.recs]
        self.vals = np.array(self.lams, dtype=complex)
        self.far = _cabs(self.vals) > 0.5 * escape
        self.crossing = np.array([r.alg_mult > 1 and r.geo_mult == r.alg_mult
                                  for r in self.recs], dtype=bool)
        modal = result.diagnostics.get("route") == "modal"
        self.still = self.crossing & np.array([modal and i >= r.type2_mult
                                               for r, i in slots], dtype=bool)


def _coincide(v):
    """coincide[..., i, j]: v[..., j] repeats v[..., i] within 1e-9
    relative (to v[..., i]), the dedup that separates distinct values."""
    return _cabs(v[..., :, None] - v[..., None, :]) <= \
        1e-9 * (1.0 + _cabs(v))[..., :, None]


def _separations(src, dst):
    """Per matched branch: the distance from dst[i] to the nearest dst[j].

    src[i] is branch i's value at the current grid point and dst[i] its
    matched value at the next one.  Neighbours j are skipped when dst[j]
    repeats dst[i], or src[j] repeats src[i] (_coincide): branches merging
    into one multiple value, or leaving one together, do not block each
    other.  inf when no neighbour is left.
    """
    dist = _cabs(dst[:, None] - dst)
    dist[_coincide(dst) | _coincide(src)] = np.inf
    return dist.min(axis=1, initial=np.inf)


class _Tracker:
    def __init__(self, spec):
        self.spec = spec
        self.cache = {}
        self.slots = {}
        self.escape = 1e6 * max(1.0, spec.spec_norm)
        self.fallbacks = {"NotAnEigenvalue": 0, "DenominatorVanishes": 0}

    def prefetch(self, etas):
        """Solve the spectra at etas in one batched call (pencil.spectra)."""
        keys = [float(eta) for eta in etas]
        self.cache.update(zip(keys, spectra(self.spec, keys)))

    def spectrum_at(self, eta):
        key = float(eta)
        if key not in self.cache:
            self.cache[key] = spectrum(self.spec, key)
        return self.cache[key]

    def slots_at(self, eta):
        """The slots at eta, kept while a refused step may try eta again."""
        key = float(eta)
        if key not in self.slots:
            self.slots[key] = _Slots(self.spectrum_at(key), self.escape)
        return self.slots[key]

    def velocities(self, slots, eta):
        """d lambda / d eta per slot from its record's first vector and
        residual; 0.0 for nonreal slots, still slots and the fallbacks,
        which are counted."""
        use = np.flatnonzero(_is_real(slots.vals))
        recs = [slots.recs[k] for k in use.tolist()]
        vecs = np.array([r.vectors[:, 0] for r in recs]).reshape(-1, self.spec.n).T
        vel = np.zeros(slots.vals.size)
        vel[use], not_eig, vanish = _velocities(
            self.spec, slots.vals.real[use], vecs,
            np.array([r.residual for r in recs]), eta)
        vel[slots.still] = 0.0
        self.fallbacks["NotAnEigenvalue"] += int(np.count_nonzero(not_eig))
        self.fallbacks["DenominatorVanishes"] += int(np.count_nonzero(vanish))
        return vel


def track(spec, eta_from=0.0, eta_to=1.0, steps=101):
    """Track all eigenvalue branches from eta_from to eta_to.

    The traversal direction may be decreasing, and the spectra at the
    `steps` targets come from one pencil.spectra call.  Each step from eta
    to eta + d matches the next spectrum to the predictions lam + v d and
    is refused, with its midpoint tried first, when some matched branch
    misses by more than half its separation (_separations: the distance
    from its match to the nearest other match, where matches that
    coincide, or whose sources coincide, do not count).  v comes from
    lambda_derivative, 0 for nonreal values.  At a semisimple multiple
    value a branch keeps its velocity from the previous grid point.  At
    the first grid point there is none: the modal route gives the record's
    type I slots 0 and its coupled slot the velocity of its coupled vector
    (the closed form -d_eta f / d_lam f of the secular function f), and
    the companion route gives every slot the record's first vector's
    velocity.  Spectra solved = grid points + event spectra, and the grid
    points are the `steps` targets unless a branch's own predictor fails.
    Returns a TrajectorySet whose grid includes any inserted points.
    """
    if steps < 2:
        raise InvalidInput("steps must be >= 2")
    for e in (eta_from, eta_to):
        if not (-1e-12 <= e <= 1.0 + 1e-12):
            raise InvalidInput("eta endpoints must lie in [0, 1]")
    if eta_from == eta_to:
        raise InvalidInput("eta_from and eta_to must differ")
    # scipy.optimize costs about 0.2 s to import; only tracking needs it
    from scipy.optimize import linear_sum_assignment

    tracker = _Tracker(spec)
    targets = list(np.linspace(eta_from, eta_to, steps))
    # every target is solved: one batched call solves them all up front
    tracker.prefetch(targets)
    big = 1e3 * tracker.escape

    grid = [targets[0]]
    cur = _Slots(tracker.spectrum_at(targets[0]), tracker.escape)
    branches = [Branch(ident=i, values=[lam]) for i, lam in enumerate(cur.lams)]
    # the branches alive at the current grid point are its slots: alive[k]
    # holds slot perm[k], and alive stays sorted
    alive = np.arange(len(cur.lams))
    perm = alive
    vel = None                  # per grid point, set on its first step
    prev = None                 # per alive branch: last velocity, nan if born
    carried = 0
    rejected = []

    work = list(reversed(targets[1:]))
    while work:
        t = work.pop()
        cur_eta = grid[-1]
        d_eta = t - cur_eta
        if vel is None:
            vals, far = cur.vals[perm], cur.far[perm]
            vel = tracker.velocities(cur, cur_eta)[perm]
            if prev is not None:
                # a multiple value's first vector is no branch's own: the
                # branches meeting there keep the velocities they came with
                carry = cur.crossing[perm] & ~np.isnan(prev)
                vel[carry] = prev[carry]
                carried += int(np.count_nonzero(carry))
        nxt = tracker.slots_at(t)

        nrow, ncol = vals.size, nxt.vals.size
        pred = vals + vel * d_eta
        cost = _cabs(pred[:, None] - nxt.vals)
        if nrow != ncol:
            # virtual columns absorb escaping branches, virtual rows are
            # births
            dim = max(nrow, ncol)
            pad = np.empty((dim, dim))
            pad[:nrow, :ncol] = cost
            pad[:nrow, ncol:] = np.where(far, 0.0, big)[:, None]
            pad[nrow:, :ncol] = np.where(nxt.far, 0.0, big)
            cost = pad
        col = linear_sum_assignment(cost)[1][:nrow]
        hit = col < ncol
        matched = col[hit]

        dst = nxt.vals[matched]
        err = _cabs(pred[hit] - dst)
        sep = _separations(vals[hit], dst)
        fail = err > 0.5 * sep
        if fail.any() and abs(d_eta) > 1e-6:
            work.append(t)
            work.append(cur_eta + 0.5 * d_eta)
            k = np.argmax(np.where(fail, err / sep, 0.0))
            rejected.append({"eta_from": float(cur_eta), "eta_to": float(t),
                             "error": float(err[k]),
                             "half_separation": float(0.5 * sep[k])})
            continue
        jumps = _cabs(vals[hit] - dst)
        max_jump = jumps.max() if jumps.size else 0.0
        if abs(d_eta) <= 1e-6 and max_jump > 0.05 * max(1.0, spec.spec_norm):
            raise MatchingAmbiguous(
                "branch matching lost track near eta=%r" % (t,), eta=t
            )

        grid.append(t)
        for bi in alive[~hit].tolist():
            branches[bi].values.append(None)
            branches[bi].escaped = True
        alive = alive[hit]
        for bi, j in zip(alive.tolist(), matched.tolist()):
            branches[bi].values.append(nxt.lams[j])
        perm, prev = matched, vel[hit]
        if matched.size < ncol:
            free = np.ones(ncol, dtype=bool)
            free[matched] = False
            born = np.flatnonzero(free)
            alive = np.concatenate((alive, len(branches) + np.arange(born.size)))
            perm = np.concatenate((matched, born))
            prev = np.concatenate((prev, np.full(born.size, np.nan)))
            for j in born.tolist():
                branches.append(Branch(
                    ident=len(branches),
                    values=[None] * (len(grid) - 1) + [nxt.lams[j]],
                ))
        cur = tracker.slots.pop(float(t))
        vel = None
    # branches that escaped stay gaps to the end
    for b in branches:
        b.values.extend([None] * (len(grid) - len(b.values)))

    tset = TrajectorySet(eta_grid=grid, branches=branches, events=[])
    tracked = len(tracker.cache)
    _detect_events(tracker, tset)
    tset.diagnostics = {
        "spectra_solved": len(tracker.cache),
        "grid_points": len(grid),
        "rejected_steps": rejected,
        "derivative_fallbacks": dict(tracker.fallbacks),
        "event_spectra": len(tracker.cache) - tracked,
        "crossing_velocities": carried,
    }
    return tset


def _value_matrix(tset):
    """Branch values as a (grid point x branch) array, 0 at the gaps, and
    the mask of the present values."""
    shape = (len(tset.eta_grid), len(tset.branches))
    vals = np.zeros(shape, dtype=complex)
    present = np.zeros(shape, dtype=bool)
    for k, b in enumerate(tset.branches):
        present[:, k] = [v is not None for v in b.values]
        vals[present[:, k], k] = [v for v in b.values if v is not None]
    return vals, present


def _order_swaps(vals, present):
    """Real branch pairs that swap order across a run of columns where they
    _coincide: per column q, (q, [[p, j, k], ...]) for the pairs j < k in
    one order at q and in the other at the column p where they were last
    apart, coincident at every column between.  A column where either is
    nonreal or absent forgets the order.  Grid points go in chunks to bound
    memory."""
    npts, nb = vals.shape
    upper = np.triu(np.ones((nb, nb), dtype=bool), 1)
    real = np.where(present & _is_real(vals), vals.real, np.nan)
    chunk = max(1, 2 ** 18 // max(1, nb * nb))
    # per pair, the order it was last apart in (nan: none) and where
    sign = np.full((1, nb, nb), np.nan)
    col = np.zeros((1, nb, nb), dtype=int)
    for s in range(0, npts, chunk):
        r = real[s:s + chunk]
        d = np.sign(r[:, :, None] - r[:, None, :])
        d[_coincide(r)] = 0.0
        # rows that set the order: a sign, or nan to forget it; row 0 is
        # the order carried in from the previous chunk
        seen = np.concatenate((sign, d))
        at = np.concatenate((col, np.broadcast_to(
            s + np.arange(r.shape[0])[:, None, None], d.shape)))
        last = np.where(seen != 0.0, np.arange(seen.shape[0])[:, None, None], 0)
        np.maximum.accumulate(last, axis=0, out=last)
        sign = np.take_along_axis(seen, last, axis=0)
        col = np.take_along_axis(at, last, axis=0)
        flip = (d * sign[:-1] < 0.0) & upper
        for i in np.flatnonzero(flip.any(axis=(1, 2))):
            j, k = np.nonzero(flip[i])
            yield s + int(i), np.column_stack((col[i, j, k], j, k)).tolist()
        sign, col = sign[-1:], col[-1:]


def _detect_events(tracker, tset):
    """Collisions named by the branches that meet, each with its kind set
    where it is found."""
    grid = tset.eta_grid
    events = []
    vals, present = _value_matrix(tset)

    # kind 1: two real branches in opposite order at columns p and q that
    # coincide at every column between.  A column between whose spectrum
    # holds them in one record is the crossing.  Without one, the search
    # between p and q must find the two values coincident, or the swap is
    # an avoided crossing the matching stepped over.
    for q, swaps in _order_swaps(vals, present):
        found = []
        for p, j, k in swaps:
            # a branch may swap with a multiple value: all of its branches meet
            same_as = _coincide(np.where(present[p], vals[p], np.nan))
            mult = np.count_nonzero(same_as[[j, k]])
            for c in range(p + 1, q):
                gap, lam_star = _closest_pair(tracker.spectrum_at(grid[c]),
                                              vals[c, j], mult)
                if gap == 0.0:
                    eta_star = grid[c]
                    break
            else:
                (a0, b0), (a1, b1) = vals[p, [j, k]].real, vals[q, [j, k]].real
                lam = a0 + (a0 - b0) / ((a0 - b0) - (a1 - b1)) * (a1 - a0)
                eta_star, gap, lam_star = _refine_coincidence(
                    tracker, grid[p], grid[q], lam, mult)
                if gap > 1e-4 * (1.0 + abs(lam_star)):
                    continue
            tol = 1e-4 * (1.0 + abs(lam_star))
            ids = {tset.branches[j].ident, tset.branches[k].ident}
            same = [ev for ev in found if abs(ev.eta_star - eta_star) <= 1e-6
                    and abs(ev.lambda_star - lam_star) <= tol]
            if same:
                same[0].participants = sorted(ids.union(same[0].participants))
            else:
                found.append(CollisionEvent(
                    eta_star=eta_star, lambda_star=complex(lam_star), kind=1,
                    participants=sorted(ids),
                ))
        events.extend(found)

    # kinds 2 and 3: the nonreal count changes between consecutive columns
    # and at least two branches present at both turn, real to nonreal or
    # back (fewer: a pair born from or escaping to infinity, no event).
    # They are the participants; kind 2 if they all land on the real axis
    # in traversal order, 3 if they all leave it, else 0.  The column on
    # the real side is the collision when they coincide there.  Otherwise
    # the step rule has bracketed it to 1e-6: on any longer step the pair
    # misses its predictions by over half its separation (by the imaginary
    # part, or by the split), so the collision is the bracket's midpoint,
    # its value the closest pair of records there near their real-side mean.
    nonreal = present & ~_is_real(vals)
    counts = np.count_nonzero(nonreal, axis=1)
    for i in np.flatnonzero(counts[:-1] != counts[1:]):
        turn = np.flatnonzero(present[i] & present[i + 1]
                              & (nonreal[i] != nonreal[i + 1]))
        if turn.size < 2:
            continue
        # nonreal at i and real at i + 1: landing on the real axis
        lands = nonreal[i, turn]
        kind = 0
        if turn.size == 2 and lands.all():
            kind = 2
        elif turn.size == 2 and not lands.any():
            kind = 3
        r = i + 1 if lands.all() else i
        if _coincide(vals[r, turn])[0].all():
            eta_star, lam_star = grid[r], complex(vals[r, turn[0]])
        else:
            eta_star = 0.5 * (grid[i] + grid[i + 1])
            real_side = np.where(lands, vals[i + 1, turn], vals[i, turn])
            lam_star = complex(_closest_pair(tracker.spectrum_at(eta_star),
                                             real_side.mean(), turn.size)[1])
        events.append(CollisionEvent(
            eta_star=eta_star, lambda_star=lam_star, kind=kind,
            participants=sorted(tset.branches[k].ident for k in turn),
        ))

    events.sort(key=lambda e: e.eta_star)
    tset.events = events


def _closest_pair(res, lam, mult):
    """The gap between the two records of res nearest lam and their
    midpoint; gap 0 when the nearest record is alone or holds mult
    values, as many as the colliding branches."""
    close = sorted(res.records, key=lambda r: abs(r.lam - lam))[:2]
    if len(close) < 2:
        return 0.0, lam
    if close[0].alg_mult >= mult:
        return 0.0, close[0].lam
    return abs(close[0].lam - close[1].lam), 0.5 * (close[0].lam + close[1].lam)


def _refine_coincidence(tracker, eta_a, eta_b, lam, mult):
    """Golden-section search for the eta minimizing the local gap near
    lam where mult branches collide: one spectrum per iteration, down to
    a bracket of 1e-6.  Returns the bracket's midpoint and the smallest
    gap seen, with its midpoint value (_closest_pair)."""
    seen = []

    def local_gap(eta):
        seen.append(_closest_pair(tracker.spectrum_at(eta), lam, mult))
        return seen[-1][0]
    a, b = eta_a, eta_b
    inv = 0.5 * (np.sqrt(5.0) - 1.0)
    m1, m2 = b - inv * (b - a), a + inv * (b - a)
    g1 = g2 = None
    while abs(b - a) > 1e-6:
        if g1 is None:
            g1 = local_gap(m1)
        if g2 is None:
            g2 = local_gap(m2)
        if g1 <= g2:
            b, m2, g2 = m2, m1, g1
            m1, g1 = b - inv * (b - a), None
        else:
            a, m1, g1 = m1, m2, g2
            m2, g2 = a + inv * (b - a), None
    gap, mid = min(seen, key=lambda s: s[0], default=(np.inf, lam))
    return 0.5 * (a + b), gap, mid


@dataclass
class PairingReport:
    pairs: list                 # (negative, positive) with sum >= -1e-8
    unpaired_positives: list
    unpaired_negatives: list
    advisory: bool = False

    @property
    def all_paired(self):
        return not self.unpaired_negatives


def pair_spectrum(result, spec=None):
    """Pair each negative eigenvalue with a positive one of at least its size.

    Greedy: the negatives in ascending modulus each take the smallest
    positive p left with n + p >= -1e-8.  The feasible sets shrink as |n|
    grows, so this is a maximum matching; when negatives stay unpaired, no
    pairing does better, and the reported pairs are the greedy's.
    """
    ztol = 1e-8 * max(1.0, result.scale)
    negs, poss = [], []
    for rec in result.records:
        lam = rec.lam
        if not _is_real(lam) or abs(lam.real) <= ztol:
            continue
        for _ in range(rec.alg_mult):
            (negs if lam.real < 0 else poss).append(lam.real)
    negs.sort(key=abs)
    poss.sort()

    remaining = list(poss)
    pairs = []
    failed = []
    for nval in negs:
        hit = next((idx for idx, pval in enumerate(remaining)
                    if nval + pval >= -1e-8), None)
        if hit is None:
            failed.append(nval)
        else:
            pairs.append((nval, remaining.pop(hit)))

    advisory = True
    if spec is not None:
        advisory = not (spec.m_definite and spec.g_definite)
    return PairingReport(
        pairs=pairs,
        unpaired_positives=remaining,
        unpaired_negatives=failed,
        advisory=advisory,
    )


@dataclass
class CountIdentity:
    kappa_a: int
    kappa_c: int
    unpaired_positives: int
    identity_holds: bool
    pairing: PairingReport


def count_identity(spec):
    """Check: unpaired positives == 2 kappa_A - kappa_c at eta = 1.

    Requires M >> 0 and G >> 0; these are the hypotheses under which the
    count is proved, and the rank-one coupling is deliberately not
    extrapolated here.
    """
    if not spec.m_definite:
        raise HypothesisViolated("M must be positive definite")
    if not spec.g_definite:
        raise HypothesisViolated("G must be positive definite")
    result = spectrum(spec, 1.0)
    kappa_a = count_negative_modes(spec)
    kappa_c = sum(r.alg_mult for r in result.records if not _is_real(r.lam))
    pairing = pair_spectrum(result, spec)
    unpaired = len(pairing.unpaired_positives)
    holds = pairing.all_paired and unpaired == 2 * kappa_a - kappa_c
    return CountIdentity(
        kappa_a=kappa_a,
        kappa_c=kappa_c,
        unpaired_positives=unpaired,
        identity_holds=holds,
        pairing=pairing,
    )
