"""Eigenvalue branch tracking over the coupling strength eta.

Branches of L(., eta) are piecewise analytic in eta; the tracker samples a
grid, matches consecutive spectra by minimum-cost assignment on predicted
positions, and refines the grid adaptively near fast motion.  Collisions are
detected from branch coincidences and from changes in the nonreal count,
then localized by bisection.  Also hosts the eigenvalue derivative formula,
the +- pairing of real eigenvalues, and the 2*kappa_A - kappa_c count.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DenominatorVanishes,
    HypothesisViolated,
    InvalidInput,
    MatchingAmbiguous,
    NotAnEigenvalue,
)
from .pencil import _is_real, evaluate, spectrum


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


def _velocities(spec, stack, lam, vecs, eta):
    """lambda_derivative for many real eigenpairs at once.

    lam holds real eigenvalues, the columns of vecs their eigenvectors, and
    stack is [I; M; G; A].  Same residual test and denominator floor as
    the scalar formula, with sums that may round differently.  Returns the
    velocities, 0.0 where lambda_derivative raises, and the masks of its
    NotAnEigenvalue and DenominatorVanishes cases.
    """
    prod = (stack @ vecs).reshape(4, spec.n, -1)
    yy, myy, gyy = np.einsum("ij,kij->kj", vecs.conj(), prod[:3]).real
    if not yy.all():
        raise InvalidInput("eigenvector must be nonzero")
    res = (lam * lam) * prod[1] - (lam * eta) * prod[2] - prod[3]
    rr = np.einsum("ij,ij->j", res.conj(), res).real
    not_eig = np.sqrt(rr / yy) > 1e-7 * (1.0 + lam ** 2) * spec.scale
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
    kind: int               # 1|2|3 per the collision taxonomy; 0 = unknown
    participants: list


@dataclass
class TrajectorySet:
    """Tracked branches over eta_grid, with the collision events.

    diagnostics says what the track cost: spectra_solved (all spectra,
    events included), grid_points, rejected_steps (one dict per refused
    step: eta_from, eta_to, max_jump, half_gap), derivative_fallbacks (by
    the exception lambda_derivative would raise) and event_spectra (the
    spectra solved while localizing events).
    """
    eta_grid: list
    branches: list
    events: list
    diagnostics: dict = field(default_factory=dict)


class _Slots:
    """One spectrum with each eigenvalue repeated alg_mult times and sorted
    by (real, imag): the values as a list and an array, one eigenvector
    column per slot (zero where the record has none), and which slots sit
    beyond half the escape radius."""

    def __init__(self, result, n, escape):
        recs = sorted(result.records, key=lambda r: (r.lam.real, r.lam.imag))
        slots = [r for r in recs for _ in range(r.alg_mult)]
        zero = np.zeros(n)
        self.lams = [r.lam for r in slots]
        self.vals = np.array(self.lams, dtype=complex)
        self.has_vec = np.array([r.vectors.size > 0 for r in slots], dtype=bool)
        self.vecs = np.array([r.vectors[:, 0] if r.vectors.size else zero
                              for r in slots], dtype=complex).reshape(-1, n).T
        self.far = _cabs(self.vals) > 0.5 * escape


def _min_distinct_gap(values):
    """Smallest distance between distinct values.

    Values are deduplicated greedily in order: one within 1e-9 relative
    (to itself) of a value already kept is dropped.  inf when fewer than
    two distinct values remain.
    """
    v = np.asarray(values, dtype=complex)
    if v.size < 2:
        return np.inf
    dist = _cabs(v[:, None] - v)
    dup = dist <= 1e-9 * (1.0 + _cabs(v))[:, None]
    np.fill_diagonal(dist, np.inf)
    if np.count_nonzero(dup) > v.size:
        # dup[i, j], j < i: v_i repeats the earlier v_j
        dup = np.tril(dup, -1)
        keep = np.ones(v.size, dtype=bool)
        for i in np.flatnonzero(dup.any(axis=1)):
            keep[i] = not (dup[i] & keep).any()
        if np.count_nonzero(keep) < 2:
            return np.inf
        dist = dist[np.ix_(keep, keep)]
    return dist.min()


class _Tracker:
    def __init__(self, spec):
        self.spec = spec
        self.cache = {}
        self.slots = {}
        self.escape = 1e6 * max(1.0, spec.spec_norm)
        self.stack = np.vstack((np.eye(spec.n), spec.m, spec.g, spec.a))
        self.fallbacks = {"NotAnEigenvalue": 0, "DenominatorVanishes": 0}

    def spectrum_at(self, eta):
        key = float(eta)
        if key not in self.cache:
            self.cache[key] = spectrum(self.spec, key)
        return self.cache[key]

    def slots_at(self, eta):
        """The slots at eta, kept while a refused step may try eta again."""
        key = float(eta)
        if key not in self.slots:
            self.slots[key] = _Slots(self.spectrum_at(key), self.spec.n,
                                     self.escape)
        return self.slots[key]

    def velocities(self, slots, eta):
        """d lambda / d eta per slot; 0.0 for nonreal slots, slots without
        a vector and the fallbacks, which are counted."""
        use = _is_real(slots.vals) & slots.has_vec
        vel = np.zeros(slots.vals.size)
        vel[use], not_eig, vanish = _velocities(
            self.spec, self.stack, slots.vals.real[use], slots.vecs[:, use], eta)
        self.fallbacks["NotAnEigenvalue"] += int(np.count_nonzero(not_eig))
        self.fallbacks["DenominatorVanishes"] += int(np.count_nonzero(vanish))
        return vel

    def nonreal_count(self, eta):
        res = self.spectrum_at(eta)
        return sum(r.alg_mult for r in res.records if not _is_real(r.lam))


def track(spec, eta_from=0.0, eta_to=1.0, steps=101):
    """Track all eigenvalue branches from eta_from to eta_to.

    The traversal direction may be decreasing.  Returns a TrajectorySet whose
    grid includes any adaptively inserted intermediate points.
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
    big = 1e3 * tracker.escape

    grid = [targets[0]]
    cur = _Slots(tracker.spectrum_at(targets[0]), spec.n, tracker.escape)
    branches = [Branch(ident=i, values=[lam]) for i, lam in enumerate(cur.lams)]
    # the branches alive at the current grid point are its slots: alive[k]
    # holds slot perm[k], and alive stays sorted
    alive = np.arange(len(cur.lams))
    perm = alive
    vel = None                  # per grid point, set on its first step
    rejected = []

    work = list(reversed(targets[1:]))
    while work:
        t = work.pop()
        cur_eta = grid[-1]
        d_eta = t - cur_eta
        if vel is None:
            vals, far = cur.vals[perm], cur.far[perm]
            vel = tracker.velocities(cur, cur_eta)[perm]
            gap = _min_distinct_gap(vals)
        nxt = tracker.slots_at(t)

        nrow, ncol = vals.size, nxt.vals.size
        cost = _cabs((vals + vel * d_eta)[:, None] - nxt.vals)
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

        jumps = _cabs(vals[hit] - nxt.vals[matched])
        max_jump = jumps.max() if jumps.size else 0.0
        if max_jump > 0.5 * gap and abs(d_eta) > 1e-6:
            work.append(t)
            work.append(cur_eta + 0.5 * d_eta)
            rejected.append({"eta_from": float(cur_eta), "eta_to": float(t),
                             "max_jump": float(max_jump),
                             "half_gap": float(0.5 * gap)})
            continue
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
        perm = matched
        if matched.size < ncol:
            free = np.ones(ncol, dtype=bool)
            free[matched] = False
            born = np.flatnonzero(free)
            alive = np.concatenate((alive, len(branches) + np.arange(born.size)))
            perm = np.concatenate((matched, born))
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
    _detect_events(spec, tracker, tset)
    classify_events(tset)
    tset.diagnostics = {
        "spectra_solved": len(tracker.cache),
        "grid_points": len(grid),
        "rejected_steps": rejected,
        "derivative_fallbacks": dict(tracker.fallbacks),
        "event_spectra": len(tracker.cache) - tracked,
    }
    return tset


def _column(tset, i):
    return [b.values[i] for b in tset.branches]


def _nonreal_col_count(tset, i):
    return sum(1 for v in _column(tset, i) if v is not None and not _is_real(v))


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


def _close_pairs(vals, present, tol_factor=1e-4):
    """Per grid point: close[j, k] for j < k when branches j and k
    coincide within tol_factor relative to value j, or None when no pair
    does.  Grid points go in chunks to bound memory."""
    npts, nb = vals.shape
    upper = np.triu(np.ones((nb, nb), dtype=bool), 1)
    tol = tol_factor * (1.0 + _cabs(vals))
    chunk = max(1, 2 ** 18 // max(1, nb * nb))
    for s in range(0, npts, chunk):
        v, p, t = vals[s:s + chunk], present[s:s + chunk], tol[s:s + chunk]
        close = _cabs(v[:, :, None] - v[:, None, :]) <= t[:, :, None]
        close &= p[:, :, None] & p[:, None, :] & upper
        for c, hit in zip(close, close.any(axis=(1, 2))):
            yield c if hit else None


def _coincidence_groups(close):
    """Greedy groups at one grid point: each branch not yet grouped takes
    every later ungrouped branch close to it; groups of one are dropped."""
    groups = []
    seen = np.zeros(len(close), dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)):
        if seen[i]:
            continue
        grp = [int(i)] + [int(j) for j in np.flatnonzero(close[i] & ~seen)]
        if len(grp) >= 2:
            groups.append(grp)
            seen[grp] = True
    return groups


def _detect_events(spec, tracker, tset):
    grid = tset.eta_grid
    npts = len(grid)
    events = []
    claimed = []
    vals, present = _value_matrix(tset)

    def separated(grp, i):
        ok = [v for v in (tset.branches[b].values[i] for b in grp)
              if v is not None]
        if len(ok) < 2:
            return True
        return _min_distinct_gap(ok) > 1e-3 * (1.0 + abs(ok[0]))

    # route 1: branch coincidences.  Consecutive coincident columns of one
    # branch set form a single run; a run is a collision only if the
    # branches separate on both flanks.  Runs reaching either end of the
    # traversal are persistent multiple eigenvalues, not collisions.
    runs = {}                   # branch-id set -> [start_col, end_col]
    finished = []
    for i, close in enumerate(_close_pairs(vals, present)):
        here = set()
        for grp in _coincidence_groups(close) if close is not None else ():
            key = frozenset(tset.branches[b].ident for b in grp)
            here.add(key)
            if key in runs and runs[key][1] == i - 1:
                runs[key][1] = i
            else:
                if key in runs:
                    finished.append((key, runs[key]))
                runs[key] = [i, i]
        for key in list(runs):
            if key not in here and runs[key][1] < i:
                finished.append((key, runs.pop(key)))
    finished.extend(runs.items())

    for key, (s, e) in finished:
        if s == 0 or e == npts - 1:
            continue
        grp = [k for k, br in enumerate(tset.branches) if br.ident in key]
        if not (separated(grp, s - 1) and separated(grp, e + 1)):
            continue
        mid = _column(tset, (s + e) // 2)
        lam = np.mean([mid[b] for b in grp if mid[b] is not None])
        eta_star = _refine_coincidence(spec, tracker, grid[s - 1],
                                       grid[e + 1], lam)
        events.append(CollisionEvent(
            eta_star=eta_star, lambda_star=complex(lam), kind=0,
            participants=sorted(key),
        ))
        claimed.append((min(grid[s - 1], grid[e + 1]),
                        max(grid[s - 1], grid[e + 1])))

    # route 2: the nonreal branch count changes between consecutive points
    counts = np.count_nonzero(present & ~_is_real(vals), axis=1)
    for i in np.flatnonzero(counts[:-1] != counts[1:]):
        lo, hi = sorted((grid[i], grid[i + 1]))
        if any(a <= lo and hi <= b for a, b in claimed):
            continue
        eta_star, lam_star, parts = _refine_count_change(
            spec, tracker, tset, i)
        events.append(CollisionEvent(
            eta_star=eta_star, lambda_star=lam_star, kind=0,
            participants=parts,
        ))

    events.sort(key=lambda e: e.eta_star)
    tset.events = events


def _refine_coincidence(spec, tracker, eta_a, eta_b, lam):
    """Ternary search for the eta minimizing the local gap near lam."""
    def local_gap(eta):
        res = tracker.spectrum_at(eta)
        close = sorted(res.records, key=lambda r: abs(r.lam - lam))[:2]
        if len(close) < 2:
            return 0.0
        if close[0].alg_mult > 1:
            return 0.0
        return abs(close[0].lam - close[1].lam)
    a, b = eta_a, eta_b
    for _ in range(80):
        if abs(b - a) <= 1e-6:
            break
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if local_gap(m1) <= local_gap(m2):
            b = m2
        else:
            a = m1
    return 0.5 * (a + b)


def _refine_count_change(spec, tracker, tset, i):
    grid = tset.eta_grid
    a, b = grid[i], grid[i + 1]
    ca = tracker.nonreal_count(a)
    while abs(b - a) > 1e-6:
        mid = 0.5 * (a + b)
        if tracker.nonreal_count(mid) == ca:
            a = mid
        else:
            b = mid
    eta_star = 0.5 * (a + b)
    res = tracker.spectrum_at(eta_star)
    # the colliding pair is the closest pair among near-real records
    best, lam_star = np.inf, 0.0 + 0.0j
    recs = res.records
    for p in range(len(recs)):
        if recs[p].alg_mult > 1:
            d = 0.0
            pair = (recs[p].lam, recs[p].lam)
            if d < best:
                best, lam_star = d, recs[p].lam
            continue
        for q_ in range(p + 1, len(recs)):
            d = abs(recs[p].lam - recs[q_].lam)
            if d < best:
                best = d
                lam_star = 0.5 * (recs[p].lam + recs[q_].lam)
    if abs(lam_star.imag) <= 1e-4 * (1.0 + abs(lam_star)):
        lam_star = complex(lam_star.real, 0.0)
    col = _column(tset, i)
    order = sorted(
        (k for k, v in enumerate(col) if v is not None),
        key=lambda k: abs(col[k] - lam_star),
    )
    parts = sorted(tset.branches[k].ident for k in order[:2])
    return eta_star, lam_star, parts


def classify_events(tset):
    """Assign collision kinds from the nonreal count across each event.

    Counts are sampled one margin away from eta_star on each side, in
    traversal order: refined grid points pile up around the collision and
    the immediately adjacent columns can sit on one side of it, so the
    nearest columns are not reliable.  Unchanged count -> kind 1 (real
    crossing), down by 2 -> kind 2 (complex pair lands on the real axis),
    up by 2 -> kind 3 (two reals leave it).
    """
    grid = np.asarray(tset.eta_grid)
    if grid.size < 2:
        return tset
    direction = 1.0 if grid[-1] >= grid[0] else -1.0
    margin = 1e-4
    for ev in tset.events:
        signed = (grid - ev.eta_star) * direction
        lo = np.nonzero(signed <= -margin)[0]
        hi = np.nonzero(signed >= margin)[0]
        before = int(lo[-1]) if lo.size else 0
        after = int(hi[0]) if hi.size else grid.size - 1
        if before == after:
            ev.kind = 0
            continue
        delta = _nonreal_col_count(tset, after) - _nonreal_col_count(tset, before)
        if delta == 0:
            ev.kind = 1
        elif delta == -2:
            ev.kind = 2
        elif delta == 2:
            ev.kind = 3
        else:
            ev.kind = 0
    return tset


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
        advisory = not (spec.m_definite
                        and spec.g_min > 1e-10 * max(1.0, spec.norm_g))
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
    if spec.g_min <= 1e-10 * max(1.0, spec.norm_g):
        raise HypothesisViolated("G must be positive definite")
    result = spectrum(spec, 1.0)
    kappa_a = linalg.count_negative_eigs_pencil(spec.a, spec.m)
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
