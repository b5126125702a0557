"""Argument-principle zero finding on rectangles.

winding_count integrates the phase of an analytic function around a
rectangle with adaptive boundary refinement; find_zeros subdivides until
each zero is isolated, polishes by multiplicity-aware Newton steps, and
certifies multiplicities by isolating-square windings.  The module also
hosts the resonant-potential verification bundle for the joined-string
characteristic function: counts of the origin zero, the imaginary pairs,
the complex quadruple, and the per-interval real-zero counts.

Evaluator contract: f takes a complex ndarray of points and returns an
array of the same shape.  Sibling contours are refined together, so one
call carries the points of several windows.  f's own exceptions
propagate; an output of another shape raises InvalidInput.
"""

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


class _BoundaryDip(Exception):
    pass


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


def _fval(f, z):
    return _eval(f, np.asarray([z]))[0]


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


def _winding_many(f, windows, base=None):
    """Winding numbers of f around each window, refined together.

    Each window sees the samples a lone winding would: BOUNDARY_SAMPLES
    base points (base, when given, holds f there for a single window),
    then the midpoint of every segment whose phase step is at least pi/2,
    round after round.  Every round sends all windows' new points to f in
    one call.  Only open segments are kept; a settled segment's phase step
    is added to its window's total.  When any contour meets a zero, all
    windows still run to the end and the first such window's _BoundaryDip
    is raised.
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
    dips = {}
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
        finish(live & (nsamp > 300000),
               "phase refinement stalls; zero pinned to contour")
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
    finish(live, "phase refinement did not settle")
    if dips:
        raise _BoundaryDip(dips[min(dips)])
    return counts


def winding_count(f, w, max_retries=5, base=None):
    """Number of zeros inside w, counted with multiplicity.

    A zero sitting on the contour is detected as an |f| dip; the window is
    then expanded slightly and the count retried.  base, when given, holds
    f at w's BOUNDARY_SAMPLES base points and stands in for them on the
    first attempt.
    """
    size = max(w.re_max - w.re_min, w.im_max - w.im_min)
    last = None
    for attempt in range(max_retries + 1):
        pad = 1e-6 * attempt * max(1.0, size)
        win = w if attempt == 0 else RootWindow(
            w.re_min - pad, w.re_max + pad, w.im_min - pad, w.im_max + pad,
        )
        try:
            return _winding_many(f, [win], base if attempt == 0 else None)[0]
        except _BoundaryDip as exc:
            last = exc
    raise BoundaryZero("contour keeps passing through a zero: %s" % last)


_SPLITS = (
    (0.5, 0.5), (0.5, 0.513), (0.513, 0.5), (0.513, 0.487),
    (0.487, 0.531), (0.531, 0.469), (0.469, 0.549),
)


def _quadrisect(f, w, fx, fy):
    xm = w.re_min + fx * (w.re_max - w.re_min)
    ym = w.im_min + fy * (w.im_max - w.im_min)
    quads = [
        RootWindow(w.re_min, xm, w.im_min, ym),
        RootWindow(xm, w.re_max, w.im_min, ym),
        RootWindow(w.re_min, xm, ym, w.im_max),
        RootWindow(xm, w.re_max, ym, w.im_max),
    ]
    return list(zip(quads, _winding_many(f, quads)))


def _subdivide(f, w, wind, leaves, depth=0):
    if wind == 0:
        return
    # Winding-1 cells keep shrinking until small relative to |center|:
    # Newton started from the center of a large cell can walk into a
    # neighboring basin, so isolation alone is not enough.
    small = w.diameter <= max(0.02 * (1.0 + abs(w.center)), 1e-6)
    if (wind == 1 and small) or w.diameter < 1e-8 or depth > 80:
        leaves.append((w, wind))
        return
    for fx, fy in _SPLITS:
        try:
            quads = _quadrisect(f, w, fx, fy)
        except _BoundaryDip:
            continue
        if sum(q for _, q in quads) != wind:
            continue
        for qw, qn in quads:
            _subdivide(f, qw, qn, leaves, depth + 1)
        return
    if w.diameter < 1e-7 * (1.0 + abs(w.center)):
        # A multiple zero split by rounding: the fragments are closer than
        # the evaluation noise permits separating.  Keep them as one zero.
        leaves.append((w, wind))
        return
    raise SubdivisionStall(
        "no clean cut found for a cell of winding %d at diameter %.3e"
        % (wind, w.diameter)
    )


def _newton(f, leaf, outer, fscale, mult):
    z = leaf.center
    # Confined to the leaf (inflated by its own size): an iterate that
    # leaves it is heading for a different zero, not refining this one.
    slack = max(leaf.diameter, 1e-6 * (1.0 + abs(leaf.center)))
    for _ in range(60):
        h = 1e-6 * (1.0 + abs(z))
        f0, fp, fm = _eval(f, [z, z + h, z - h])
        d = (fp - fm) / (2.0 * h)
        if d == 0:
            break
        dz = mult * f0 / d
        zn = z - dz
        if not leaf.contains(zn, slack=slack):
            return leaf.center, abs(_fval(f, leaf.center)), False
        z = zn
        if abs(dz) <= 1e-13 * (1.0 + abs(z)):
            break
        if abs(f0) <= 1e-10 * fscale and abs(dz) <= 1e-9 * (1.0 + abs(z)):
            break
    resid = abs(_fval(f, z))
    return z, resid, resid <= 1e-10 * fscale


def _critical_point(f, leaf):
    """Newton on f' from the leaf center.

    A double zero split by rounding into a tight pair straddles the
    critical point of f, which stays well above the noise floor even when
    f itself does not; the critical point is the pair's centroid to first
    order, hence the accurate location of the double zero.
    """
    z = leaf.center
    slack = max(leaf.diameter, 1e-6 * (1.0 + abs(leaf.center)))
    for _ in range(40):
        h = 1e-6 * (1.0 + abs(z))
        fm, f0, fp = _eval(f, [z - h, z, z + h])
        d1 = (fp - fm) / (2.0 * h)
        d2 = (fp - 2.0 * f0 + fm) / (h * h)
        if d2 == 0:
            break
        dz = d1 / d2
        zn = z - dz
        if not leaf.contains(zn, slack=slack):
            return leaf.center, False
        z = zn
        if abs(dz) <= 1e-12 * (1.0 + abs(z)):
            return z, True
    return z, True


def find_zeros(f, w):
    """All zeros of f in w with certified multiplicities.

    The reported multiplicity of each zero is the winding number of f
    around an isolating square, and their sum is checked against the outer
    winding count.
    """
    base = _eval(f, _boundary_points(_sides([w]), 0, _BASE_TS))
    fscale = float(np.abs(base).max())
    outer = winding_count(f, w, base=base)
    if outer == 0:
        return []

    leaves = []
    _subdivide(f, w, outer, leaves)

    raw = []
    for leaf, wind in leaves:
        if wind == 1:
            z, resid, ok = _newton(f, leaf, w, fscale, mult=1)
            raw.append([z, 1, ok, resid])
        elif wind == 2:
            z, ok = _critical_point(f, leaf)
            raw.append([z, 2, ok, abs(_fval(f, z))])
        else:
            c = leaf.center
            raw.append([c, wind, False, abs(_fval(f, c))])

    # Merge duplicates.  A multiple zero splits under rounding into a tight
    # cluster of radius about sqrt(eps)*scale, so cells resolve it as
    # nearby simple zeros; genuine distinct zeros sit far outside the merge
    # radius.  The centroid of a merged cluster cancels the first-order
    # split error and is the accurate location of the multiple zero.
    raw.sort(key=lambda r: (r[0].real, r[0].imag))
    merged = []
    for z, mult, ok, resid in raw:
        hit = None
        for item in merged:
            if abs(item[0] / item[1] - z) <= 3e-7 * (1.0 + abs(z)):
                hit = item
                break
        if hit is None:
            merged.append([z * mult, mult, ok, resid])
        else:
            hit[0] += z * mult
            hit[1] += mult
            hit[2] = hit[2] and ok
            hit[3] = max(hit[3], resid)
    for item in merged:
        item[0] /= item[1]
        item[3] = abs(_fval(f, item[0]))

    records = []
    for i, (z, mult, ok, resid) in enumerate(merged):
        dists = [abs(z - other[0]) for j, other in enumerate(merged) if j != i]
        r_iso = max(1e-7, 0.01 * min(dists)) if dists else max(1e-7, 0.01)
        square = RootWindow(z.real - r_iso, z.real + r_iso,
                            z.imag - r_iso, z.imag + r_iso)
        certified = winding_count(f, square, max_retries=3)
        if certified <= 0:
            certified = mult
        records.append(ZeroRecord(
            z=complex(z), multiplicity=int(certified),
            refined=bool(ok), residual=float(resid),
        ))

    total = sum(r.multiplicity for r in records)
    if total != outer:
        raise SubdivisionStall(
            "multiplicities sum to %d but the window holds %d zeros"
            % (total, outer)
        )
    return records


@dataclass
class ResonantCountReport:
    """Verification bundle for the resonant joined-string spectrum."""

    n_resonant: int
    checks: list = field(default_factory=list)
    conservation: list = field(default_factory=list)
    zeros_main: list = field(default_factory=list)

    @property
    def all_pass(self):
        return all(c.status != "fail" for c in self.checks)


def _counted_zeros(f, w, label, log):
    zeros = find_zeros(f, w)
    # find_zeros raises unless the multiplicities sum to the winding of w
    total = int(sum(z.multiplicity for z in zeros))
    log.append({
        "label": label,
        "window": [w.re_min, w.re_max, w.im_min, w.im_max],
        "winding": total,
        "mult_sum": total,
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
    log = report.conservation
    checks = report.checks

    # (a) double zero at the origin
    worigin = RootWindow(-0.5, 0.5, -0.5, 0.5)
    zeros0 = _counted_zeros(f, worigin, "origin", log)
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
        zs = _counted_zeros(f, wt, "imag_axis", log)
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
    zmain = _counted_zeros(f, wmain, "main", log)
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
    zneg = _counted_zeros(f, wneg, "negative_axis", log)
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

    # (d) no zeros between 0 and the smallest coupled modulus
    if moduli:
        wgap = RootWindow(0.02, moduli[0] - 0.02, -0.05, 0.05)
        gapcount = winding_count(f, wgap)
        checks.append(
            passed("gap_above_zero_free", "(0, %.6g) clear" % moduli[0])
            if gapcount == 0 else
            failed("gap_above_zero_free", "%d zeros in the gap" % gapcount)
        )
    else:
        checks.append(failed("gap_above_zero_free", "no coupled moduli found"))

    # (e) the moduli themselves are never zeros
    bad = []
    for m in moduli[:10]:
        wm = RootWindow(m - 1e-4, m + 1e-4, -1e-4, 1e-4)
        if winding_count(f, wm) != 0:
            bad.append(complex(m))
    checks.append(
        failed("modulus_not_zero", "zeros at %r" % bad, bad)
        if bad else
        passed("modulus_not_zero", "%d moduli clear" % min(10, len(moduli)))
    )

    # (f) two real zeros between consecutive coupled moduli
    bad = []
    npairs = min(10, max(0, len(moduli) - 1))
    for i in range(npairs):
        wint = RootWindow(moduli[i], moduli[i + 1], -0.05, 0.05)
        c = winding_count(f, wint)
        if c != 2:
            bad.append((moduli[i], moduli[i + 1], c))
    checks.append(
        failed("paired_interval_count", "off counts: %r" % bad)
        if bad else
        passed("paired_interval_count", "%d intervals of 2" % npairs)
    )

    # (g) one zero between consecutive decoupled positives
    bad = []
    for j in range(n_res, n_res + 10):
        lo = np.sqrt((np.pi * j / a) ** 2 - q)
        hi = np.sqrt((np.pi * (j + 1) / a) ** 2 - q)
        margin = 0.01
        wint = RootWindow(lo + margin, hi - margin, -0.05, 0.05)
        c = winding_count(f, wint)
        if c != 1:
            bad.append((lo, hi, c))
    checks.append(
        failed("decoupled_gap_count", "off counts: %r" % bad)
        if bad else
        passed("decoupled_gap_count", "10 intervals of 1")
    )

    return report
