"""Argument-principle zero finding on rectangles.

winding_count integrates the phase of an analytic function around a
rectangle with adaptive boundary refinement; find_zeros subdivides until
each zero is isolated, descends from each located zero or pair of zeros
to one contour, polishes each leaf's zero, and certifies multiplicities
by isolating-square windings or, for a refined simple zero, by its leaf.
Locating and polishing run one Newton kernel (_newton) on a 3-point
stencil, on f or, for a pair of zeros, on f'; a run ends converged, on a
zero divisor, with an iterate outside its cell, or at its step limit.
The module also hosts the resonant-potential verification bundle for the
joined-string characteristic function: counts of the origin zero, the
imaginary pairs, the complex quadruple, and the per-interval real-zero
counts.

Evaluator contract: f takes a complex ndarray of points and returns an
array of the same shape.  The search runs level by level, so one call may
carry the contours of every cell of a subdivision level, or the Newton
stencils of every leaf.  f's own exceptions propagate; an output of
another shape raises InvalidInput.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryZero,
    InvalidInput,
    PreconditionInteger,
    SubdivisionStall,
)
from .report import failed, passed
from .sturm import omega


@dataclass
class RootWindow:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise InvalidInput("window must have positive extent in both axes")

    @property
    def diameter(self):
        return float(np.hypot(self.re_max - self.re_min,
                              self.im_max - self.im_min))

    @property
    def center(self):
        return complex(0.5 * (self.re_min + self.re_max),
                       0.5 * (self.im_min + self.im_max))

    def contains(self, z, slack=0.0):
        return (self.re_min - slack <= z.real <= self.re_max + slack
                and self.im_min - slack <= z.imag <= self.im_max + slack)


@dataclass
class ZeroRecord:
    z: complex
    multiplicity: int
    refined: bool
    residual: float


# The reasons _windings gives for a contour at the noise floor of f.
_STALLS = "phase refinement stalls; zero pinned to contour"
_UNSETTLED = "phase refinement did not settle"

# Base samples per contour, for the winding and for find_zeros' fscale.
BOUNDARY_SAMPLES = 256
_BASE_TS = np.linspace(0.0, 4.0, BOUNDARY_SAMPLES, endpoint=False)
_BASE_T1 = np.append(_BASE_TS[1:], 4.0)


def _eval(f, zs):
    """f at the points zs.  f maps a complex ndarray to one of its shape."""
    zs = np.asarray(zs, dtype=complex)
    vals = np.asarray(f(zs))
    if vals.shape != zs.shape:
        raise InvalidInput("f returned shape %s for points of shape %s"
                           % (vals.shape, zs.shape))
    return np.asarray(vals, dtype=complex)


def _sides(windows):
    """Start points and vectors of the windows' sides, flat (4 per window).

    Each contour runs counterclockwise from (re_min, im_min).
    """
    corners = np.asarray([[
        complex(w.re_min, w.im_min),
        complex(w.re_max, w.im_min),
        complex(w.re_max, w.im_max),
        complex(w.re_min, w.im_max),
    ] for w in windows])
    return corners.ravel(), (np.roll(corners, -1, axis=1) - corners).ravel()


def _boundary_points(sides, wid, ts):
    """Map parameters (mod 4) to points on the contours of windows wid."""
    start, vec = sides
    ts = np.asarray(ts, dtype=float) % 4.0
    side = np.floor(ts)
    j = 4 * wid + side.astype(int) % 4
    return start[j] + (ts - side) * vec[j]


def _interleave(a, b):
    out = np.empty(2 * a.size, dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


def _windings(f, windows, base=None):
    """Winding numbers of f around each window, refined together.

    Each window sees the samples a lone winding would: BOUNDARY_SAMPLES
    base points (base, when given, holds f at every window's base points),
    then the midpoint of every segment whose phase step is at least pi/2,
    round after round.  Every round sends all windows' new points to f in
    one call.  Only open segments are kept; a settled segment's phase step
    is added to its window's total.  Returns (counts, dips): when the
    contour of window i meets a zero, counts[i] is None and dips[i] holds
    the reason; otherwise dips[i] is None.
    """
    k = len(windows)
    sides = _sides(windows)
    # open segments (t0, t1) of window wid, with f's phase at both ends
    wid = np.repeat(np.arange(k), BOUNDARY_SAMPLES)
    t0 = np.tile(_BASE_TS, k)
    t1 = np.tile(_BASE_T1, k)
    if base is None:
        base = _eval(f, _boundary_points(sides, wid, t0))
    mag = np.abs(base).reshape(k, BOUNDARY_SAMPLES)
    fmax = mag.max(axis=1)
    fmin = mag.min(axis=1)
    nsamp = np.full(k, BOUNDARY_SAMPLES)
    phase = np.angle(base).reshape(k, BOUNDARY_SAMPLES)
    p0 = phase.ravel()
    p1 = np.roll(phase, -1, axis=1).ravel()
    total = np.zeros(k)
    counts = [None] * k
    dips = [None] * k
    live = np.ones(k, dtype=bool)

    def finish(mask, reason):
        if mask.any():
            for i in np.flatnonzero(mask):
                dips[i] = reason
            live[mask] = False

    finish(fmax == 0.0, "f vanishes on the contour")
    # refine until consecutive phase jumps are all below pi/2
    for _ in range(64):
        finish(live & (fmin < 1e-12 * fmax), "|f| dips to zero on the contour")
        step = np.mod(p1 - p0 + np.pi, 2.0 * np.pi) - np.pi
        bad = np.abs(step) >= 0.5 * np.pi
        good = ~bad
        total += np.bincount(wid[good], step[good], minlength=k)
        settled = live & (np.bincount(wid[bad], minlength=k) == 0)
        for i in np.flatnonzero(settled):
            counts[i] = int(round(float(total[i]) / (2.0 * np.pi)))
        live &= ~settled
        finish(live & (nsamp > 300000), _STALLS)
        bad &= live[wid]
        if not bad.any():
            break
        wid, t0, t1, p0, p1 = wid[bad], t0[bad], t1[bad], p0[bad], p1[bad]
        mids = 0.5 * (t0 + t1)
        vals = _eval(f, _boundary_points(sides, wid, mids))
        mag = np.abs(vals)
        np.maximum.at(fmax, wid, mag)
        np.minimum.at(fmin, wid, mag)
        nsamp += np.bincount(wid, minlength=k)
        pm = np.angle(vals)
        # each open segment splits into (t0, mid) and (mid, t1)
        wid = np.repeat(wid, 2)
        t0, t1 = _interleave(t0, mids), _interleave(mids, t1)
        p0, p1 = _interleave(p0, pm), _interleave(pm, p1)
    finish(live, _UNSETTLED)
    return counts, dips


def _padded(w, attempt):
    """w expanded by 1e-6 * attempt of its size on every side."""
    if attempt == 0:
        return w
    pad = 1e-6 * attempt * max(1.0, w.re_max - w.re_min, w.im_max - w.im_min)
    return RootWindow(w.re_min - pad, w.re_max + pad,
                      w.im_min - pad, w.im_max + pad)


def _winding_counts(f, windows, max_retries=5, base=None):
    """Number of zeros inside each window, counted with multiplicity.

    A zero sitting on a contour is detected as an |f| dip; that window is
    then expanded slightly and counted again, up to max_retries times, on
    its own schedule.  Each attempt counts all windows still open in one
    _windings batch.  base, when given, holds f at the windows' base points
    and stands in for them on the first attempt.  The BoundaryZero raised
    is that of the first window, in order, whose retries all dip.
    """
    counts = [None] * len(windows)
    dips = [None] * len(windows)
    todo = list(range(len(windows)))
    for attempt in range(max_retries + 1):
        if not todo:
            break
        got, dip = _windings(f, [_padded(windows[i], attempt) for i in todo],
                             base if attempt == 0 else None)
        for i, c, d in zip(todo, got, dip):
            counts[i], dips[i] = c, d
        todo = [i for i in todo if counts[i] is None]
    for c, d in zip(counts, dips):
        if c is None:
            raise BoundaryZero("contour keeps passing through a zero: %s" % d)
    return counts


def winding_count(f, w, max_retries=5, base=None):
    """Number of zeros inside w, counted with multiplicity.

    A zero sitting on the contour is detected as an |f| dip; the window is
    then expanded slightly and the count retried.  base, when given, holds
    f at w's BOUNDARY_SAMPLES base points and stands in for them on the
    first attempt.
    """
    return _winding_counts(f, [w], max_retries, base)[0]


_SPLITS = (
    (0.5, 0.5), (0.5, 0.513), (0.513, 0.5), (0.513, 0.487),
    (0.487, 0.531), (0.531, 0.469), (0.469, 0.549),
)


def _quads(w, fx, fy):
    xm = w.re_min + fx * (w.re_max - w.re_min)
    ym = w.im_min + fy * (w.im_max - w.im_min)
    return [
        RootWindow(w.re_min, xm, w.im_min, ym),
        RootWindow(xm, w.re_max, w.im_min, ym),
        RootWindow(w.re_min, xm, ym, w.im_max),
        RootWindow(xm, w.re_max, ym, w.im_max),
    ]


def _is_leaf(path, cell, n):
    """The subdivision's stopping rule for a cell of winding n at path."""
    small = cell.diameter <= max(0.02 * (1.0 + abs(cell.center)), 1e-6)
    return (n == 1 and small) or cell.diameter < 1e-8 or len(path) > 80


def _newton(cell, pair, steps, tol, slack, fstop=None):
    """Newton's method on f, or on f' for a pair of zeros, from the center
    of cell, as a task: each step yields the stencil [z - h, z, z + h],
    h = 1e-6 (1 + |z|), receives f there (see _run_tasks) and takes
    dz = f / f' (f' / f'') from central differences.

    Returns (end, z, step), z the last iterate within slack of the cell.
    end is "converged" once |dz| <= tol (1 + |z|), or, given fstop, once
    |f| <= fstop and |dz| <= 1e-9 (1 + |z|); "flat" on a zero divisor;
    "stray" when the next iterate leaves the slack; "limit" after steps
    steps.  step holds (f, divisor, dz) of a converged run's last step.
    """
    z = cell.center
    for _ in range(steps):
        h = 1e-6 * (1.0 + abs(z))
        fm, f0, fp = yield [z - h, z, z + h]
        d1 = (fp - fm) / (2.0 * h)
        num, d = (d1, (fp - 2.0 * f0 + fm) / (h * h)) if pair else (f0, d1)
        if d == 0:
            return "flat", z, None
        dz = num / d
        if not cell.contains(z - dz, slack=slack):
            return "stray", z, None
        z = z - dz
        if abs(dz) <= tol * (1.0 + abs(z)) or (
                fstop is not None and abs(f0) <= fstop
                and abs(dz) <= 1e-9 * (1.0 + abs(z))):
            return "converged", z, (f0, d, dz)
    return "limit", z, None


def _locate(cell, pair=False):
    """The zero of a winding-1 cell, or for a pair of zeros (c, r): the
    critical point c and the distance r = sqrt|2 f(c) / f''(c)| from c to
    the two zeros of f's quadratic model there, as a task.  None unless
    _newton converges inside the cell.
    """
    end, z, step = yield from _newton(cell, pair, 12, 1e-10, cell.diameter)
    if end != "converged" or not cell.contains(z):
        return None
    if not pair:
        return z
    f0, d2, dz = step
    # f(z) = f0 - d2 dz^2 / 2 on the model
    return z, float(np.sqrt(abs(2.0 * f0 / d2 - dz * dz)))


def _cut_gap(cell, z):
    """The (0.5, 0.5) children of cell, and the distance from z to the
    nearer of their cut lines."""
    quads = _quads(cell, 0.5, 0.5)
    xm, ym = quads[0].re_max, quads[0].im_max
    return quads, min(abs(z.real - xm), abs(z.imag - ym))


def _descent(path, cell, z):
    """The leaf depth-first subdivision reaches from the winding-1 cell at
    path toward its zero z, as (leaf path, leaf).

    Every level takes the (0.5, 0.5) child on z's side of the cuts.  None
    when z lies within 1e-6 of a cell's size of a cut it crosses, where
    rounding may put it on either side.
    """
    while True:
        quads, gap = _cut_gap(cell, z)
        if gap <= 1e-6 * max(cell.re_max - cell.re_min,
                             cell.im_max - cell.im_min):
            return None
        k = _child(quads, z)
        path, cell = path + (k,), quads[k]
        if _is_leaf(path, cell, 1):
            return path, cell


def _child(quads, z):
    """Index of the (0.5, 0.5) child that holds z."""
    return int(z.real > quads[0].re_max) + 2 * int(z.imag > quads[0].im_max)


def _pair_descent(path, cell, c, r):
    """The deepest cell depth-first subdivision reaches from the winding-2
    cell at path while every cut stays clear of the pair of zeros centered
    at c, r from it, as (path, cell).

    Every level takes the (0.5, 0.5) child holding c, while the cuts lie
    more than max(4 r, size / 16) from c: size / 16 is four base-sample
    spacings of the cell's contour, which keeps the pair clear of the
    miscount of a double zero close to a contour.  The children's contours
    also run along the first cell's sides, sampled more densely than its
    own, so c must lie more than 4 r inside it.  Stops at a cell that meets
    the leaf rule.  None when the first cell's sides or cuts are already
    too close.
    """
    if not cell.contains(c, slack=-4.0 * r):
        return None
    deepest = None
    while True:
        quads, gap = _cut_gap(cell, c)
        size = max(cell.re_max - cell.re_min, cell.im_max - cell.im_min)
        if gap <= max(4.0 * r, size / 16.0):
            return deepest
        k = _child(quads, c)
        path, cell = path + (k,), quads[k]
        deepest = path, cell
        if _is_leaf(path, cell, 2):
            return deepest


def _clear(cell, z):
    """z lies inside cell, more than four base-sample spacings from each
    side (a side's spacing is its length over BOUNDARY_SAMPLES / 4, so the
    margin to the horizontal sides scales with the cell's width)."""
    sx = 4.0 * (cell.re_max - cell.re_min) / (BOUNDARY_SAMPLES // 4)
    sy = 4.0 * (cell.im_max - cell.im_min) / (BOUNDARY_SAMPLES // 4)
    return (min(z.real - cell.re_min, cell.re_max - z.real) > sy
            and min(z.imag - cell.im_min, cell.im_max - z.imag) > sx)


def _subdivide(f, w, wind, stats=None):
    """Cells of w that isolate the zeros of f, as (cell, winding) pairs.

    A cell is quadrisected by the first of the _SPLITS whose four children
    show no |f| dip and add up to its winding.  Winding-1 cells end small
    relative to |center|: Newton started from the center of a large cell
    can walk into a neighboring basin, so isolation alone is not enough.
    The search runs level by level: one _windings call carries the
    children of every pending cell.  A cell whose split fails tries its
    next split in the next call; when the split failed at the noise floor
    (_STALLS, _UNSETTLED), all its remaining splits are counted in that
    call, and the first that succeeds, in order, is taken.

    A winding-1 cell that is not yet small is isolated and not split level
    by level; nor is a winding-2 cell whose parent's split left its two
    zeros together.  Once no other cell of winding 2 or more is pending,
    one _run_tasks batch locates the zero of every isolated cell and the
    critical point of every such pair (_locate).  Each located zero picks
    its (0.5, 0.5) descent to a leaf (_descent), and each pair its descent
    while the cuts stay clear of it (_pair_descent).  Only the last cell's
    contour is counted, with the next level's windows: a leaf that counts
    1 with no dip is certified, as it lies inside a cell holding exactly
    one zero; a pair's cell that counts 2 with no dip is a leaf or is split
    level by level from there.  A cell whose zero is not located, lies
    near a cut, or whose last cell does not count as expected is split
    level by level; below a winding-1 cell its whole subtree is.

    Each cell keeps its depth-first path (the child indices from w), so the
    leaves come back in depth-first order, and the failure raised is the
    one depth-first search meets first, the smallest path; cells past a
    known failure are dropped.  stats, when given, is a dict; its
    windows_counted, descents, descent_fallbacks and pair_descents counts
    are increased, and max_depth is raised to the deepest leaf's level.
    """
    stats = Counter() if stats is None else stats
    leaves = []     # (path, cell, winding)
    pending = []    # (path, cell, winding, indices into _SPLITS to count)
    isolated = []   # (path, cell): winding 1, to locate and descend from
    pairs = []      # (path, cell): winding 2 under winding 2, likewise
    fails = []      # (path, SubdivisionStall)

    def place(path, cell, n, parent):
        if n == 0:
            return
        if _is_leaf(path, cell, n):
            leaves.append((path, cell, n))
        elif n == 1 and parent != 1:
            isolated.append((path, cell))
        elif n == 2 and parent == 2:
            pairs.append((path, cell))
        else:
            pending.append((path, cell, n, (0,)))

    place((), w, wind, None)
    while pending or isolated or pairs:
        descents = []   # (path, cell, winding, last path, last cell)
        if (isolated or pairs) and all(n == 1 for _, _, n, _ in pending):
            located = _run_tasks(f, [_locate(cell) for _, cell in isolated]
                                 + [_locate(cell, True) for _, cell in pairs])
            for (path, cell), z in zip(isolated, located):
                leaf = None if z is None else _descent(path, cell, z)
                if leaf is None:
                    stats["descent_fallbacks"] += 1
                    pending.append((path, cell, 1, (0,)))
                else:
                    descents.append((path, cell, 1) + leaf)
            for (path, cell), loc in zip(pairs, located[len(isolated):]):
                deep = None if loc is None else _pair_descent(path, cell, *loc)
                if deep is None:
                    pending.append((path, cell, 2, (0,)))
                else:
                    descents.append((path, cell, 2) + deep)
            isolated, pairs = [], []
        batch = []
        for path, cell, n, ks in pending:
            if ks:
                batch.append((path, cell, n, ks,
                              [_quads(cell, *_SPLITS[k]) for k in ks]))
            elif cell.diameter < 1e-7 * (1.0 + abs(cell.center)):
                # A multiple zero split by rounding: the fragments are
                # closer than the evaluation noise permits separating.
                # Keep them as one zero.
                leaves.append((path, cell, n))
            else:
                fails.append((path, SubdivisionStall(
                    "no clean cut found for a cell of winding %d at "
                    "diameter %.3e" % (n, cell.diameter))))
        pending = []
        if fails:
            first = min(path for path, _ in fails)
            batch = [item for item in batch if item[0] < first]
            descents = [item for item in descents if item[0] < first]
            isolated = [item for item in isolated if item[0] < first]
            pairs = [item for item in pairs if item[0] < first]
        windows = [q for *_, splits in batch for quads in splits for q in quads]
        windows += [last for *_, last in descents]
        if not windows:
            continue
        stats["windows_counted"] += len(windows)
        counts, dips = _windings(f, windows)
        pos = 0
        for path, cell, n, ks, splits in batch:
            chosen = None
            for k, quads in zip(ks, splits):
                got, dip = counts[pos:pos + 4], dips[pos:pos + 4]
                pos += 4
                if chosen is None and dip == [None] * 4 and sum(got) == n:
                    chosen = quads, got
            if chosen is not None:
                # a winding-1 cell here fell back: so does its subtree
                for c, (qw, qn) in enumerate(zip(*chosen)):
                    place(path + (c,), qw, qn, n)
            else:
                # at the noise floor, the remaining splits go all at once
                rest = tuple(range(ks[-1] + 1, len(_SPLITS)))
                noisy = any(d in (_STALLS, _UNSETTLED) for d in dip)
                pending.append((path, cell, n, rest if noisy else rest[:1]))
        for (path, cell, n, lpath, last), c, d in zip(descents, counts[pos:],
                                                      dips[pos:]):
            if c == n and d is None:
                stats["descents" if n == 1 else "pair_descents"] += 1
                place(lpath, last, n, None)
            else:
                if n == 1:
                    stats["descent_fallbacks"] += 1
                pending.append((path, cell, n, (0,)))
    if fails:
        raise min(fails, key=lambda item: item[0])[1]
    leaves.sort(key=lambda leaf: leaf[0])
    stats["max_depth"] = max([stats["max_depth"]]
                             + [len(path) for path, _, _ in leaves])
    return [(cell, n) for _, cell, n in leaves]


def _polish(leaf, wind, fscale):
    """The zero of a leaf of winding wind, as a task; returns
    [z, wind, refined, residual, leaf if simple].

    A simple zero takes _newton on f and is refined when its residual is
    at most 1e-10 fscale.  A double zero split by rounding into a tight
    pair straddles the critical point of f, which stays well above the
    noise floor even when f itself does not; the critical point is the
    pair's centroid to first order, hence the accurate location of the
    double zero, which _newton on f' finds.  The iterates are confined to
    the leaf inflated by its own size: one that leaves it is heading for a
    different zero, not refining this one, and the leaf's center stands,
    unrefined, as it does for a leaf of winding 3 or more.
    """
    slack = max(leaf.diameter, 1e-6 * (1.0 + abs(leaf.center)))
    end = None
    if wind == 1:
        end, z, _ = yield from _newton(leaf, False, 60, 1e-13, slack,
                                       1e-10 * fscale)
    elif wind == 2:
        end, z, _ = yield from _newton(leaf, True, 40, 1e-12, slack)
    refined = end not in (None, "stray")
    if not refined:
        z = leaf.center
    fz, = yield [z]
    # residuals take the scalar abs: np.abs of an array can differ from it
    # in the last bit
    resid = abs(fz)
    return [z, wind, refined and (wind == 2 or resid <= 1e-10 * fscale),
            resid, leaf if wind == 1 else None]


def _run_tasks(f, tasks):
    """Run generator tasks together; return their results in order.

    A task yields a list of points and receives f at them.  Each round
    sends the points of every unfinished task to f in one call.
    """
    results = [None] * len(tasks)
    wants = [next(t) for t in tasks]
    live = list(range(len(tasks)))
    while live:
        vals = _eval(f, [z for i in live for z in wants[i]])
        pos = 0
        still = []
        for i in live:
            got = vals[pos:pos + len(wants[i])]
            pos += len(wants[i])
            try:
                wants[i] = tasks[i].send(got)
                still.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        live = still
    return results


_DIAGNOSTICS = ("f_calls", "f_points", "windows_counted", "max_depth",
                "descents", "descent_fallbacks", "pair_descents")


def find_zeros(f, w, outer=None, diagnostics=None):
    """All zeros of f in w with certified multiplicities.

    The reported multiplicity of each zero is the winding number of f
    around an isolating square, or 1 for a refined zero alone and well
    inside its winding-1 leaf whose square lies inside w (see _clear), and
    their sum is checked against the outer winding count.  outer, when
    given, is a list; the winding count of w is appended to it.
    diagnostics, when given, is a dict; it is updated with what the call
    cost, also when it raises: f_calls and f_points (every evaluation), and
    from the subdivision windows_counted (its contours), max_depth (the
    deepest leaf's level), descents (leaves reached by a located descent),
    descent_fallbacks (isolated cells split level by level instead) and
    pair_descents (pairs of zeros followed down to one counted cell).
    """
    stats = dict.fromkeys(_DIAGNOSTICS, 0)

    def counted(zs):
        stats["f_calls"] += 1
        stats["f_points"] += zs.size
        return f(zs)

    try:
        return _find_zeros(counted, w, outer, stats)
    finally:
        if diagnostics is not None:
            diagnostics.update(stats)


def _find_zeros(f, w, outer, stats):
    base = _eval(f, _boundary_points(_sides([w]), 0, _BASE_TS))
    fscale = float(np.abs(base).max())
    wind = winding_count(f, w, base=base)
    if outer is not None:
        outer.append(wind)
    if wind == 0:
        return []

    leaves = _subdivide(f, w, wind, stats)
    raw = _run_tasks(f, [_polish(leaf, n, fscale) for leaf, n in leaves])

    # Merge duplicates.  A multiple zero splits under rounding into a tight
    # cluster of radius about sqrt(eps)*scale, so cells resolve it as
    # nearby simple zeros; genuine distinct zeros sit far outside the merge
    # radius.  The centroid of a merged cluster cancels the first-order
    # split error and is the accurate location of the multiple zero.
    raw.sort(key=lambda r: (r[0].real, r[0].imag))
    merged = []
    for z, mult, ok, resid, leaf in raw:
        hit = None
        for item in merged:
            if abs(item[0] / item[1] - z) <= 3e-7 * (1.0 + abs(z)):
                hit = item
                break
        if hit is None:
            merged.append([z * mult, mult, ok, resid, leaf])
        else:
            hit[0] += z * mult
            hit[1] += mult
            hit[2] = hit[2] and ok
            hit[3] = max(hit[3], resid)
            hit[4] = None
    for item in merged:
        item[0] /= item[1]
    for item, val in zip(merged, _eval(f, [item[0] for item in merged])):
        item[3] = abs(val)

    # The leaf certifies a simple zero: a refined zero merged with nothing,
    # more than four base-sample spacings inside its winding-1 leaf, is the
    # leaf's one zero (a multiple zero there would have counted as such;
    # one close to a side can count 1).  Its square, when inside w, holds
    # no other zero the search found, so it could count only 0 or 1, both
    # meaning multiplicity 1, and it is not counted.
    squares = {}
    for i, (z, mult, ok, resid, leaf) in enumerate(merged):
        dists = [abs(z - other[0]) for j, other in enumerate(merged) if j != i]
        r_iso = max(1e-7, 0.01 * min(dists)) if dists else max(1e-7, 0.01)
        square = RootWindow(z.real - r_iso, z.real + r_iso,
                            z.imag - r_iso, z.imag + r_iso)
        if not (ok and leaf is not None and _clear(leaf, z)
                and w.contains(complex(square.re_min, square.im_min))
                and w.contains(complex(square.re_max, square.im_max))):
            squares[i] = square
    certified = dict(zip(squares, _winding_counts(f, list(squares.values()),
                                                  max_retries=3)))
    records = []
    for i, (z, mult, ok, resid, _) in enumerate(merged):
        c = certified.get(i, 1)
        records.append(ZeroRecord(z=complex(z),
                                  multiplicity=int(c if c > 0 else mult),
                                  refined=bool(ok), residual=float(resid)))

    total = sum(r.multiplicity for r in records)
    if total != wind:
        raise SubdivisionStall(
            "multiplicities sum to %d but the window holds %d zeros"
            % (total, wind)
        )
    return records


@dataclass
class ResonantCountReport:
    """Verification bundle for the resonant joined-string spectrum."""

    n_resonant: int
    checks: list = field(default_factory=list)
    conservation: list = field(default_factory=list)
    zeros_main: list = field(default_factory=list)
    # find_zeros diagnostics over the bundle's windows: max_depth the
    # deepest, the counts summed; not serialized
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def all_pass(self):
        return all(c.status != "fail" for c in self.checks)


def _counted_zeros(f, w, label, report):
    outer = []
    diag = {}
    zeros = find_zeros(f, w, outer, diag)
    for key, val in diag.items():
        prev = report.diagnostics.get(key, 0)
        report.diagnostics[key] = (max(prev, val) if key == "max_depth"
                                   else prev + val)
    report.conservation.append({
        "label": label,
        "window": [w.re_min, w.re_max, w.im_min, w.im_max],
        "winding": outer[0],
        "mult_sum": int(sum(z.multiplicity for z in zeros)),
    })
    return zeros


def verify_resonant_counts(q, a, alpha):
    """Count checks for the constant-potential joined strings at resonance.

    Requires sqrt(q) a / pi to be a positive integer N.  Verifies, by
    winding counts on the characteristic function: the double zero at the
    origin, the 2(N-1) simple imaginary zeros, the 2N complex zeros in the
    right half-plane, the zero-free gap above 0, that no negative-zero
    modulus is itself a zero, and the two-per-interval / one-per-interval
    real zero counts between consecutive moduli and between consecutive
    decoupled zeros.
    """
    if q <= 0:
        raise PreconditionInteger("q must be positive")
    ratio = float(np.sqrt(q) * a / np.pi)
    n_res = int(round(ratio))
    if n_res < 1 or abs(ratio - n_res) > 1e-9:
        raise PreconditionInteger(
            "sqrt(q) a / pi = %r is not a positive integer" % ratio
        )

    def f(lam):
        return omega(lam, q, a, alpha)

    report = ResonantCountReport(n_resonant=n_res)
    checks = report.checks

    # (a) double zero at the origin
    worigin = RootWindow(-0.5, 0.5, -0.5, 0.5)
    zeros0 = _counted_zeros(f, worigin, "origin", report)
    ok = (len(zeros0) == 1 and zeros0[0].multiplicity == 2
          and abs(zeros0[0].z) <= 1e-8)
    checks.append(
        passed("origin_double_zero", "z=%r" % (zeros0[0].z if zeros0 else None))
        if ok else
        failed("origin_double_zero",
               "found %r" % [(z.z, z.multiplicity) for z in zeros0],
               [z.z for z in zeros0])
    )

    # (b) simple imaginary zeros at the decoupled values below resonance
    bad = []
    targets = []
    for j in range(1, n_res):
        nu = np.sqrt(q - (np.pi * j / a) ** 2)
        targets.extend([complex(0.0, nu), complex(0.0, -nu)])
    for t in targets:
        wt = RootWindow(t.real - 1e-4, t.real + 1e-4,
                        t.imag - 1e-4, t.imag + 1e-4)
        zs = _counted_zeros(f, wt, "imag_axis", report)
        if not (len(zs) == 1 and zs[0].multiplicity == 1
                and abs(zs[0].z - t) <= 1e-8):
            bad.append(t)
    checks.append(
        failed("imaginary_zeros_simple", "mismatch at %r" % bad, bad)
        if bad else
        passed("imaginary_zeros_simple", "%d targets" % len(targets))
    )

    # (c) the complex quadruple count in the main window
    rmax = max(6.0, np.sqrt(q) + 3.0)
    imax = max(3.0, np.sqrt(q) + 1.0)
    wmain = RootWindow(-0.5, rmax, -imax, imax)
    zmain = _counted_zeros(f, wmain, "main", report)
    report.zeros_main = zmain
    nonreal = sum(
        z.multiplicity for z in zmain
        if abs(z.z.imag) > 1e-6 * (1.0 + abs(z.z.real))
        and z.z.real > 1e-8 * (1.0 + abs(z.z.imag))
    )
    checks.append(
        passed("complex_zero_count", "2N = %d" % nonreal)
        if nonreal == 2 * n_res else
        failed("complex_zero_count",
               "expected %d complex zeros with Re>0, found %d"
               % (2 * n_res, nonreal))
    )

    # negative real zeros, split into decoupled values and the remainder
    lneg = np.sqrt(((n_res + 11.6) * np.pi / a) ** 2 - q)
    wneg = RootWindow(-lneg, -0.02, -0.05, 0.05)
    zneg = _counted_zeros(f, wneg, "negative_axis", report)
    moduli = []
    for z in zneg:
        m = abs(z.z.real)
        is_decoupled = any(
            abs(m - np.sqrt((np.pi * j / a) ** 2 - q)) <= 1e-6 * (1.0 + m)
            for j in range(n_res + 1, n_res + 40)
            if (np.pi * j / a) ** 2 > q
        )
        if not is_decoupled:
            moduli.extend([m] * z.multiplicity)
    moduli.sort()

    # the fixed windows of (d)-(g), counted in one batch and read in order
    npairs = min(10, max(0, len(moduli) - 1))
    pairs = [(moduli[i], moduli[i + 1]) for i in range(npairs)]
    decoupled = [(np.sqrt((np.pi * j / a) ** 2 - q),
                  np.sqrt((np.pi * (j + 1) / a) ** 2 - q))
                 for j in range(n_res, n_res + 10)]
    margin = 0.01
    counts = iter(_winding_counts(f, (
        [RootWindow(0.02, moduli[0] - 0.02, -0.05, 0.05)] if moduli else [])
        + [RootWindow(m - 1e-4, m + 1e-4, -1e-4, 1e-4) for m in moduli[:10]]
        + [RootWindow(lo, hi, -0.05, 0.05) for lo, hi in pairs]
        + [RootWindow(lo + margin, hi - margin, -0.05, 0.05)
           for lo, hi in decoupled]))

    # (d) no zeros between 0 and the smallest coupled modulus
    if moduli:
        gapcount = next(counts)
        checks.append(
            passed("gap_above_zero_free", "(0, %.6g) clear" % moduli[0])
            if gapcount == 0 else
            failed("gap_above_zero_free", "%d zeros in the gap" % gapcount)
        )
    else:
        checks.append(failed("gap_above_zero_free", "no coupled moduli found"))

    # (e) the moduli themselves are never zeros
    bad = [complex(m) for m in moduli[:10] if next(counts) != 0]
    checks.append(
        failed("modulus_not_zero", "zeros at %r" % bad, bad)
        if bad else
        passed("modulus_not_zero", "%d moduli clear" % min(10, len(moduli)))
    )

    # (f) two real zeros between consecutive coupled moduli
    bad = [(lo, hi, c) for (lo, hi), c in zip(pairs, counts) if c != 2]
    checks.append(
        failed("paired_interval_count", "off counts: %r" % bad)
        if bad else
        passed("paired_interval_count", "%d intervals of 2" % npairs)
    )

    # (g) one zero between consecutive decoupled positives
    bad = [(lo, hi, c) for (lo, hi), c in zip(decoupled, counts) if c != 1]
    checks.append(
        failed("decoupled_gap_count", "off counts: %r" % bad)
        if bad else
        passed("decoupled_gap_count", "10 intervals of 1")
    )

    return report
