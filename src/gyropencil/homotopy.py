"""Eigenvalue branch tracking over the coupling strength eta.

Branches of L(., eta) are piecewise analytic in eta; the tracker samples a
grid, matches consecutive spectra by minimum-cost assignment on predicted
positions, and refines the grid adaptively near fast motion.  Collisions are
detected from branch coincidences and from changes in the nonreal count,
then localized by bisection.  Also hosts the eigenvalue derivative formula,
the +- pairing of real eigenvalues, and the 2*kappa_A - kappa_c count.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DenominatorVanishes,
    HypothesisViolated,
    InvalidInput,
    MatchingAmbiguous,
    NotAnEigenvalue,
)
from .pencil import evaluate, spectrum


def _is_real(lam):
    return abs(lam.imag) <= 1e-7 * (1.0 + abs(lam.real))


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
    eta_grid: list
    branches: list
    events: list


def _expand_slots(result):
    """(value, vector) per eigenvalue counted with algebraic multiplicity."""
    slots = []
    for rec in result.records:
        v = rec.vectors[:, 0] if rec.vectors.size else None
        for _ in range(rec.alg_mult):
            slots.append((rec.lam, v))
    slots.sort(key=lambda s: (s[0].real, s[0].imag))
    return slots


def _min_distinct_gap(values):
    vals = [v for v in values if v is not None]
    distinct = []
    for v in vals:
        if all(abs(v - u) > 1e-9 * (1.0 + abs(v)) for u in distinct):
            distinct.append(v)
    if len(distinct) < 2:
        return np.inf
    best = np.inf
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            best = min(best, abs(distinct[i] - distinct[j]))
    return best


class _Tracker:
    def __init__(self, spec):
        self.spec = spec
        self.cache = {}
        self.escape = 1e6 * max(1.0, spec.spec_norm)

    def spectrum_at(self, eta):
        key = float(eta)
        if key not in self.cache:
            self.cache[key] = spectrum(self.spec, key)
        return self.cache[key]

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

    grid = [targets[0]]
    slots = _expand_slots(tracker.spectrum_at(targets[0]))
    branches = [Branch(ident=i, values=[s[0]]) for i, s in enumerate(slots)]
    # per-branch current state: (value, vector) or None once escaped/dead
    state = list(slots)
    alive = list(range(len(slots)))

    work = list(reversed(targets[1:]))
    while work:
        t = work.pop()
        cur_eta = grid[-1]
        d_eta = t - cur_eta
        res_t = tracker.spectrum_at(t)
        slots_t = _expand_slots(res_t)

        preds = []
        for bi in alive:
            lam, vec = state[bi]
            pred = lam
            if vec is not None and _is_real(lam):
                try:
                    der = lambda_derivative(spec, lam.real, vec, cur_eta)
                    if isinstance(der, float):
                        pred = lam + der * d_eta
                except (DenominatorVanishes, NotAnEigenvalue):
                    pred = lam
            preds.append(pred)

        nrow, ncol = len(alive), len(slots_t)
        dim = max(nrow, ncol)
        big = 1e3 * tracker.escape
        cost = np.full((dim, dim), 0.0)
        for i in range(nrow):
            for j in range(ncol):
                cost[i, j] = abs(preds[i] - slots_t[j][0])
        # virtual columns absorb escaping branches, virtual rows are births
        for i in range(nrow):
            for j in range(ncol, dim):
                far = abs(state[alive[i]][0]) > 0.5 * tracker.escape
                cost[i, j] = 0.0 if far else big
        for i in range(nrow, dim):
            for j in range(ncol):
                far = abs(slots_t[j][0]) > 0.5 * tracker.escape
                cost[i, j] = 0.0 if far else big

        rows, cols = linear_sum_assignment(cost)
        assign = dict(zip(rows, cols))

        max_jump = 0.0
        for i in range(nrow):
            j = assign[i]
            if j < ncol:
                max_jump = max(max_jump, abs(state[alive[i]][0] - slots_t[j][0]))
        gap = _min_distinct_gap([state[bi][0] for bi in alive])

        if max_jump > 0.5 * gap and abs(d_eta) > 1e-6:
            work.append(t)
            work.append(cur_eta + 0.5 * d_eta)
            continue
        if abs(d_eta) <= 1e-6 and max_jump > 0.05 * max(1.0, spec.spec_norm):
            raise MatchingAmbiguous(
                "branch matching lost track near eta=%r" % (t,), eta=t
            )

        grid.append(t)
        new_alive = []
        used_cols = set()
        for i in range(nrow):
            bi = alive[i]
            j = assign[i]
            if j < ncol:
                lam, vec = slots_t[j]
                branches[bi].values.append(lam)
                state[bi] = (lam, vec)
                new_alive.append(bi)
                used_cols.add(j)
            else:
                branches[bi].values.append(None)
                branches[bi].escaped = True
                state[bi] = None
        for j in range(ncol):
            if j not in used_cols:
                bi = len(branches)
                branches.append(Branch(
                    ident=bi, values=[None] * (len(grid) - 1) + [slots_t[j][0]]
                ))
                state.append(slots_t[j])
                new_alive.append(bi)
        alive = sorted(new_alive)
        # pad any branch that died before this refinement of state bookkeeping
        for b in branches:
            while len(b.values) < len(grid):
                b.values.append(None)

    tset = TrajectorySet(eta_grid=grid, branches=branches, events=[])
    _detect_events(spec, tracker, tset)
    classify_events(tset)
    return tset


def _column(tset, i):
    return [b.values[i] for b in tset.branches]


def _nonreal_col_count(tset, i):
    return sum(1 for v in _column(tset, i) if v is not None and not _is_real(v))


def _coincidence_groups(values, tol_factor=1e-4):
    groups = []
    seen = set()
    for i, v in enumerate(values):
        if v is None or i in seen:
            continue
        grp = [i]
        for j in range(i + 1, len(values)):
            w = values[j]
            if w is None or j in seen:
                continue
            if abs(v - w) <= tol_factor * (1.0 + abs(v)):
                grp.append(j)
        if len(grp) >= 2:
            groups.append(grp)
            seen.update(grp)
    return groups


def _detect_events(spec, tracker, tset):
    grid = tset.eta_grid
    npts = len(grid)
    events = []
    claimed = []

    def separated(grp, i):
        vals = [tset.branches[b].values[i] for b in grp]
        ok = [v for v in vals if v is not None]
        if len(ok) < 2:
            return True
        return _min_distinct_gap(ok) > 1e-3 * (1.0 + abs(ok[0]))

    # route 1: branch coincidences.  Consecutive coincident columns of one
    # branch set form a single run; a run is a collision only if the
    # branches separate on both flanks.  Runs reaching either end of the
    # traversal are persistent multiple eigenvalues, not collisions.
    runs = {}                   # branch-id set -> [start_col, end_col]
    finished = []
    for i in range(npts):
        col = _column(tset, i)
        here = set()
        for grp in _coincidence_groups(col):
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
    for i in range(npts - 1):
        c0 = _nonreal_col_count(tset, i)
        c1 = _nonreal_col_count(tset, i + 1)
        if c0 == c1:
            continue
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


def _kuhn_matching(negs, poss, feasible):
    match_p = [-1] * len(poss)

    def try_augment(i, visited):
        for j in range(len(poss)):
            if j in visited or not feasible(negs[i], poss[j]):
                continue
            visited.add(j)
            if match_p[j] < 0 or try_augment(match_p[j], visited):
                match_p[j] = i
                return True
        return False

    matched = 0
    for i in range(len(negs)):
        if try_augment(i, set()):
            matched += 1
    pairs = {}
    for j, i in enumerate(match_p):
        if i >= 0:
            pairs[i] = j
    return matched, pairs


def pair_spectrum(result, spec=None):
    """Pair each negative eigenvalue with a positive one of at least its size.

    Greedy by ascending modulus of the negatives; a greedy failure is
    re-checked by augmenting-path matching before being reported.
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

    def feasible(nval, pval):
        return nval + pval >= -1e-8

    remaining = list(poss)
    pairs = []
    failed = []
    for nval in negs:
        hit = None
        for idx, pval in enumerate(remaining):
            if feasible(nval, pval):
                hit = idx
                break
        if hit is None:
            failed.append(nval)
        else:
            pairs.append((nval, remaining.pop(hit)))
    if failed:
        matched, assign = _kuhn_matching(negs, poss, feasible)
        if matched == len(negs):
            used = set(assign.values())
            pairs = [(negs[i], poss[j]) for i, j in sorted(assign.items())]
            remaining = [p for j, p in enumerate(poss) if j not in used]
            failed = []
        else:
            hit_idx = set(assign.keys())
            failed = [negs[i] for i in range(len(negs)) if i not in hit_idx]
            used = set(assign.values())
            pairs = [(negs[i], poss[j]) for i, j in sorted(assign.items())]
            remaining = [p for j, p in enumerate(poss) if j not in used]

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
