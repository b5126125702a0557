"""Statement-level checkers over computed spectra.

Each checker verifies one eigenvalue location / multiplicity / counting
statement on a SpectrumResult and returns a Check.  The rank-one coupled
interlacing and counting statements form a bundle in
check_type2_interlacing, with the underlying interval statistics exposed
through type2_statistics.  run_all aggregates every applicable checker
into a VerificationReport; inapplicable hypotheses downgrade to
not_applicable instead of failing.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationAmbiguous,
    HypothesisViolated,
    MassNotDefinite,
    PreconditionKerMA,
)
from .pencil import (
    _ZERO_BAND,
    _is_real,
    count_negative_modes,
    nonreal_region,
    nonsimple_real_interval,
    spectra,
    spectrum,
    validate_condition_I,
)
from .report import VerificationReport, failed, passed, skipped


def _on_imag_axis(lam):
    return abs(lam.real) <= 1e-7 * (1.0 + abs(lam.imag))


def check_symmetry(result):
    """The eigenvalue multiset is closed under conjugation."""
    bad = []
    for rec in result.records:
        if _is_real(rec.lam):
            continue
        target = rec.lam.conjugate()
        mate = result.find(target, tol=1e-7 * (1.0 + abs(target)))
        if mate is None or mate.alg_mult != rec.alg_mult:
            bad.append(rec.lam)
    if bad:
        return failed(
            "spectrum_conjugation_symmetric",
            "%d nonreal eigenvalues lack a conjugate partner" % len(bad),
            bad,
        )
    return passed(
        "spectrum_conjugation_symmetric",
        "%d records checked" % len(result.records),
    )


def check_halfplane(spec, result):
    """Nonreal eigenvalues lie in the closed right half-plane.

    When G is positive definite and eta > 0 the location is strict
    (open right half-plane).
    """
    strict = spec.g_definite and result.eta > 0
    bad = []
    for rec in result.records:
        if _is_real(rec.lam):
            continue
        re = rec.lam.real
        if re < -1e-8 * (1.0 + abs(rec.lam)) or (strict and re <= 0.0):
            bad.append(rec.lam)
    if bad:
        return failed(
            "nonreal_right_halfplane",
            "%d nonreal eigenvalues on the wrong side" % len(bad),
            bad,
        )
    return passed(
        "nonreal_right_halfplane", "strict" if strict else "closed half-plane"
    )


def check_real_when_a_psd(spec, result):
    """A >= 0 forces a real spectrum; A > 0 additionally excludes 0."""
    name = "real_spectrum_when_a_psd"
    amin = spec.a_min
    floor = 1e-10 * max(1.0, spec.norm_a)
    if amin < -floor:
        return skipped(name, "A has a negative eigenvalue (%.3e)" % amin)
    bad = [
        rec.lam
        for rec in result.records
        if abs(rec.lam.imag) > 1e-8 * (1.0 + abs(rec.lam))
    ]
    if bad:
        return failed(name, "nonreal eigenvalues although A >= 0", bad)
    if amin > floor:
        zero = result.find(0.0, tol=_ZERO_BAND * result.scale)
        if zero is not None:
            return failed(name, "0 in the spectrum although A > 0", [zero.lam])
    return passed(name, "lambda_min(A) = %.3e" % amin)


def check_negative_semisimple(spec, result):
    """Real negative eigenvalues carry no associated vectors."""
    bad = []
    for rec in result.records:
        lam = rec.lam
        tol = 1e-8 * (1.0 + abs(lam))
        if lam.real < -tol and abs(lam.imag) <= tol:
            if rec.alg_mult != rec.geo_mult:
                bad.append(lam)
    if bad:
        return failed(
            "negative_eigenvalues_semisimple",
            "defective negative eigenvalues found",
            bad,
        )
    return passed("negative_eigenvalues_semisimple")


def check_zero_multiplicity(spec, result):
    """alg mult of 0 equals dim(ker A cap ker G) + dim ker A."""
    name = "zero_eigenvalue_multiplicity"
    if spec.mg_min < 1e-8:
        raise HypothesisViolated(
            "M+G must be uniformly positive (min eig %.3e)" % spec.mg_min
        )
    n_ker, p = spec.kernel_dims
    rec = result.find(0.0, tol=_ZERO_BAND * result.scale)
    alg0 = rec.alg_mult if rec is not None else 0
    expect = p + n_ker
    detail = "alg(0)=%d, p=%d, dim ker A=%d" % (alg0, p, n_ker)
    if alg0 != expect:
        return failed(name, detail + ", expected %d" % expect,
                      [0.0 + 0.0j] if rec is not None else [])
    return passed(name, detail)


def check_finite_count(spec, result):
    """Finite plus discarded-at-infinity eigenvalue count is 2n."""
    name = "finite_plus_infinite_count"
    total = result.n_finite + result.discarded_infinite
    detail = "%d finite + %d infinite vs 2n = %d" % (
        result.n_finite, result.discarded_infinite, 2 * spec.n
    )
    if total != 2 * spec.n:
        return failed(name, detail)
    return passed(name, detail)


def record_invariants(spec, result):
    """Structural sanity of every record: multiplicity ordering and type split."""
    name = "record_structure"
    bad = []
    msgs = []
    for rec in result.records:
        if not (1 <= rec.geo_mult <= rec.alg_mult):
            bad.append(rec.lam)
            msgs.append("geo/alg order at %r" % rec.lam)
        if rec.types_classified and rec.type1_mult + rec.type2_mult != rec.alg_mult:
            bad.append(rec.lam)
            msgs.append("type split at %r" % rec.lam)
    total = sum(rec.alg_mult for rec in result.records)
    if total != result.n_finite:
        msgs.append("alg mults sum to %d, n_finite=%d" % (total, result.n_finite))
    if msgs:
        return failed(name, "; ".join(msgs), bad)
    return passed(name, "%d records" % len(result.records))


def check_nonreal_region_containment(spec, result):
    """Nonreal eigenvalues fall in the rectangle bound from the mass lower bound."""
    region = nonreal_region(spec, result.eta)
    bad = []
    for rec in result.records:
        if _is_real(rec.lam):
            continue
        if not region.contains(rec.lam, slack=1e-8 * (1.0 + abs(rec.lam))):
            bad.append(rec.lam)
    name = "nonreal_region_bound"
    detail = "Re <= %.6g, |Im| <= %.6g" % (region.re_max, region.im_abs)
    if bad:
        return failed(name, detail, bad)
    return passed(name, detail)


def check_nonsimple_interval_containment(spec, result):
    """Real multiple eigenvalues fall in [0, b_G/(2m)]."""
    lo, hi = nonsimple_real_interval(spec)
    bad = []
    for rec in result.records:
        lam = rec.lam
        if rec.alg_mult > 1 and _is_real(lam):
            slack = 1e-8 * (1.0 + abs(lam))
            if not (lo - slack <= lam.real <= hi + slack):
                bad.append(lam)
    name = "nonsimple_real_interval_bound"
    detail = "interval [%.6g, %.6g]" % (lo, hi)
    if bad:
        return failed(name, detail, bad)
    return passed(name, detail)


def _gate_type1(spec, need="rank-one coupling required for the type split"):
    if spec.rank_one is None:
        raise HypothesisViolated(need)
    if not spec.ker_ma_trivial:
        raise PreconditionKerMA("ker M and ker A must intersect trivially")


def check_type1_axes(spec, spectra):
    """Nonzero decoupled eigenvalues sit on an axis, symmetric about 0."""
    _gate_type1(spec)
    bad = []
    checked = 0
    for result in spectra:
        if not result.types_classified:
            raise HypothesisViolated("type classification unavailable")
        for rec in result.records:
            if rec.type1_mult == 0:
                continue
            checked += 1
            lam = rec.lam
            tol = 1e-6 * (1.0 + abs(lam))
            on_axis = abs(lam.real) <= tol or abs(lam.imag) <= tol
            mate = result.find(-lam, tol=tol)
            if not on_axis or mate is None or mate.type1_mult != rec.type1_mult:
                bad.append(lam)
    name = "type1_on_axes_symmetric"
    if bad:
        return failed(name, "%d decoupled eigenvalues off pattern" % len(bad), bad)
    return passed(name, "%d decoupled records over %d spectra" % (checked, len(spectra)))


@dataclass
class Type2Stats:
    """Interval statistics of the coupled (type-II) part of one spectrum.

    moduli are the ascending absolute values of the negative type-II
    eigenvalues; counts[j] is the number of positive type-II eigenvalues in
    the j-th interval: (0, m_1), (m_1, m_2), ..., (m_K, inf).  kappa_i
    counts conjugate pure-imaginary decoupled pairs, kappa_ii nonreal
    coupled pairs, kappa_a the negative eigenvalues of the static pencil
    lambda M - A.
    """

    eta: float
    moduli: list
    counts: list
    zero_alg_mult: int
    n_ker: int
    p: int
    zero_coupled_initially: bool
    kappa_i: int
    kappa_ii: int
    kappa_tilde: float
    kappa_a: int

    @property
    def identity_holds(self):
        kt = self.kappa_tilde
        return float(kt).is_integer() and (
            int(kt) + self.kappa_ii + self.kappa_i == self.kappa_a
        )


def _gate_type2(spec, eta):
    _gate_type1(spec, "rank-one coupling required")
    if spec.mg_min < 1e-8:
        raise HypothesisViolated(
            "M+G must be uniformly positive (min eig %.3e)" % spec.mg_min
        )
    if not spec.m_definite:
        raise HypothesisViolated("count statements are gated on M > 0")
    if not 0.0 < eta <= 1.0:
        raise HypothesisViolated("statements hold for eta in (0, 1]")


def _first_collision(moduli, positives, ctol):
    """(positive, modulus) of the first pair with |v - m| <= ctol, None if
    no pair is that close: moduli in ascending order, then positives in
    the given order.  A sorted merge finds the candidates, in a window
    wide enough that the exact test decides."""
    if not moduli or not positives:
        return None
    vals = np.asarray(positives)
    order = np.argsort(vals, kind="stable")
    ordered = vals[order]
    mods = np.asarray(moduli)
    reach = 2.0 * ctol + 4.0 * np.finfo(float).eps * mods
    lo = np.searchsorted(ordered, mods - reach, side="left")
    hi = np.searchsorted(ordered, mods + reach, side="right")
    for k in np.flatnonzero(hi > lo):
        near = order[lo[k]:hi[k]]
        near = near[np.abs(vals[near] - mods[k]) <= ctol]
        if near.size:
            return positives[near.min()], moduli[k]
    return None


def _min_separation(moduli, positives):
    """min |v - m| over the moduli m and positives v, inf if either is
    empty.  Rounding keeps |v - m| monotone on each side of m, so the
    nearest positives below and above each modulus hold the minimum."""
    if not moduli or not positives:
        return np.inf
    ordered = np.sort(positives)
    mods = np.asarray(moduli)
    k = np.searchsorted(ordered, mods)
    above = ordered[np.minimum(k, ordered.size - 1)]
    below = ordered[np.maximum(k - 1, 0)]
    return float(min(np.abs(above - mods).min(), np.abs(below - mods).min()))


def type2_statistics(spec, eta=1.0, result=None):
    """Assemble the interval/count data the interlacing statements refer to."""
    _gate_type2(spec, eta)
    if result is None:
        result = spectrum(spec, eta)
    if not result.types_classified:
        raise HypothesisViolated("type classification unavailable")

    ztol = _ZERO_BAND * result.scale
    zero_alg = 0
    imag_t1 = 0
    nonreal_t2 = 0
    negs = []
    poss = []
    for rec in result.records:
        lam = rec.lam
        if abs(lam) <= ztol:
            zero_alg = rec.alg_mult
            continue
        if not _is_real(lam):
            nonreal_t2 += rec.type2_mult
            if _on_imag_axis(lam):
                imag_t1 += rec.type1_mult
            continue
        if rec.type2_mult > 0:
            if lam.real > 0:
                poss.append((lam.real, rec.type2_mult))
            else:
                negs.append((-lam.real, rec.type2_mult))

    if imag_t1 % 2 or nonreal_t2 % 2:
        raise EnumerationAmbiguous(
            "odd nonreal count (type I %d, type II %d)" % (imag_t1, nonreal_t2)
        )

    for m, t2 in negs:
        if t2 > 1:
            raise EnumerationAmbiguous(
                "negative coupled eigenvalue -%r has multiplicity %d" % (m, t2)
            )
    # Resolution floor for the snapshot enumeration: values closer than this
    # cannot be ordered reliably, so the interval bookkeeping is refused
    # rather than guessed.  Absolute, problem-norm scaled.
    ctol = 1e-8 * result.scale
    moduli = sorted(m for m, _ in negs)
    for i in range(len(moduli) - 1):
        if moduli[i + 1] - moduli[i] <= ctol:
            raise EnumerationAmbiguous(
                "negative moduli %r and %r collide" % (moduli[i], moduli[i + 1])
            )
    hit = _first_collision(moduli, [v for v, _ in poss], ctol)
    if hit is not None:
        raise EnumerationAmbiguous(
            "positive eigenvalue %r within tolerance of modulus %r" % hit
        )

    counts = [0] * (len(moduli) + 1)
    where = np.searchsorted(moduli, [v for v, _ in poss]).tolist()
    for idx, (_, t2) in zip(where, poss):
        counts[idx] += t2

    n_ker, p = spec.kernel_dims
    z2 = p < n_ker
    kappa_tilde = 0.5 * (
        counts[0] - (1 if z2 else 0) + sum(c - 1 for c in counts[1:])
    )
    kappa_a = count_negative_modes(spec)
    return Type2Stats(
        eta=float(eta),
        moduli=moduli,
        counts=counts,
        zero_alg_mult=zero_alg,
        n_ker=n_ker,
        p=p,
        zero_coupled_initially=z2,
        kappa_i=imag_t1 // 2,
        kappa_ii=nonreal_t2 // 2,
        kappa_tilde=kappa_tilde,
        kappa_a=kappa_a,
    )


def check_type2_interlacing(spec, eta=1.0, result=None):
    """Bundle of coupled-spectrum statements: symmetry, half-plane location,
    modulus exclusion, odd interval counts, small-interval parity, and the
    kappa count identity.  Returns the individual checks in a list.
    """
    if result is None:
        _gate_type2(spec, eta)
        result = spectrum(spec, eta)
    stats = type2_statistics(spec, eta, result)
    checks = []

    bad = []
    for rec in result.records:
        if _is_real(rec.lam) or rec.type2_mult == 0:
            continue
        target = rec.lam.conjugate()
        mate = result.find(target, tol=1e-7 * (1.0 + abs(target)))
        if mate is None or mate.type2_mult != rec.type2_mult:
            bad.append(rec.lam)
    checks.append(
        failed("type2_nonreal_symmetric", "unpaired nonreal coupled eigenvalues", bad)
        if bad else
        passed("type2_nonreal_symmetric", "2*kappa_II = %d" % (2 * stats.kappa_ii))
    )

    bad = [
        rec.lam for rec in result.records
        if not _is_real(rec.lam) and rec.type2_mult > 0 and rec.lam.real <= 0.0
    ]
    checks.append(
        failed("type2_nonreal_right_halfplane", "nonreal coupled eigenvalues with Re <= 0", bad)
        if bad else
        passed("type2_nonreal_right_halfplane")
    )

    # statement 3 would have raised EnumerationAmbiguous during the stats
    # assembly on any modulus/eigenvalue collision
    sep = _min_separation(stats.moduli, [
        rec.lam.real for rec in result.records
        if _is_real(rec.lam) and rec.type2_mult > 0 and rec.lam.real > 0
    ])
    detail = "min separation %.3e" % sep if np.isfinite(sep) else "vacuous"
    checks.append(passed("type2_modulus_not_eigenvalue", detail))

    interior = stats.counts[1:-1]
    bad_idx = [j + 1 for j, c in enumerate(interior) if c % 2 == 0]
    checks.append(
        failed("type2_interval_counts_odd",
               "even counts in intervals %s" % bad_idx)
        if bad_idx else
        passed("type2_interval_counts_odd",
               "%d interior intervals" % len(interior))
    )

    n0 = stats.counts[0]
    if stats.zero_coupled_initially:
        ok = n0 % 2 == 1
        detail = "n_0=%d expected odd (0 coupled at eta=0)" % n0
        if ok and stats.n_ker == 1 and stats.p == 0:
            ok = stats.zero_alg_mult == 1
            detail += "; 0 simple" if ok else "; 0 not simple (alg %d)" % stats.zero_alg_mult
    else:
        ok = n0 % 2 == 0
        detail = "n_0=%d expected even" % n0
    checks.append(
        passed("type2_small_interval_parity", detail) if ok
        else failed("type2_small_interval_parity", detail)
    )

    detail = "kappa_tilde=%g kappa_II=%d kappa_I=%d kappa_A=%d" % (
        stats.kappa_tilde, stats.kappa_ii, stats.kappa_i, stats.kappa_a
    )
    checks.append(
        passed("type2_count_identity", detail) if stats.identity_holds
        else failed("type2_count_identity", detail)
    )
    return checks


# the etas whose spectra check_type1_axes compares, besides the one checked
_AXIS_ETAS = (0.3, 0.7, 1.0)


def run_all(spec, eta=1.0, result=None):
    """Every applicable checker on one spec; gate violations downgrade."""
    report = VerificationReport()
    cond = spec.condition_report or validate_condition_I(spec)
    if not cond.all_pass:
        report.add(failed("condition_I", "failed: %s" % ", ".join(cond.failed())))
        return report
    report.add(passed("condition_I"))

    if result is None:
        result = spectrum(spec, eta)
    report.add(check_symmetry(result))
    report.add(check_halfplane(spec, result))
    report.add(check_real_when_a_psd(spec, result))
    report.add(check_negative_semisimple(spec, result))
    try:
        report.add(check_zero_multiplicity(spec, result))
    except HypothesisViolated as exc:
        report.add(skipped("zero_eigenvalue_multiplicity", str(exc)))
    report.add(check_finite_count(spec, result))
    report.add(record_invariants(spec, result))
    try:
        report.add(check_nonreal_region_containment(spec, result))
    except MassNotDefinite as exc:
        report.add(skipped("nonreal_region_bound", str(exc)))
    try:
        report.add(check_nonsimple_interval_containment(spec, result))
    except MassNotDefinite as exc:
        report.add(skipped("nonsimple_real_interval_bound", str(exc)))
    try:
        # gate first: the extra spectra are only worth solving when the
        # check applies
        _gate_type1(spec)
        axes = spectra(spec, [e for e in _AXIS_ETAS if abs(e - eta) > 1e-12])
        report.add(check_type1_axes(spec, [result] + axes))
    except (HypothesisViolated, PreconditionKerMA) as exc:
        report.add(skipped("type1_on_axes_symmetric", str(exc)))
    try:
        report.extend(check_type2_interlacing(spec, eta, result))
    except (HypothesisViolated, PreconditionKerMA, EnumerationAmbiguous) as exc:
        report.add(skipped("type2_interlacing_bundle", str(exc)))
    return report


def run_sl(problem, eta=1.0):
    """Discretize a boundary problem and verify every applicable statement.

    The single-segment variant additionally asserts that no eigenvalue is
    decoupled: its eigenfunctions always load the boundary node.
    """
    from . import sturm

    spec = sturm.discretize(problem)
    result = spectrum(spec, eta)
    report = run_all(spec, eta=eta, result=result)
    if problem.variant == "single":
        if not result.types_classified:
            report.add(skipped("single_all_type2", "type classification unavailable"))
        else:
            bad = [
                rec.lam for rec in result.records
                if abs(rec.lam) > _ZERO_BAND * result.scale and rec.type1_mult > 0
            ]
            if bad:
                report.add(failed(
                    "single_all_type2",
                    "%d decoupled eigenvalues found" % len(bad), bad,
                ))
            else:
                report.add(passed("single_all_type2"))
    return report
