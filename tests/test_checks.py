import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from gyropencil import checks, fixtures, linalg, serialize, sturm
from gyropencil.errors import EnumerationAmbiguous, HypothesisViolated
from gyropencil.pencil import (
    EigenRecord, PencilSpec, SpectrumResult, spectra, spectrum,
)

import support


def test_run_all_worked_fixtures():
    for spec in (fixtures.w1(), fixtures.w2(), fixtures.w3()):
        rep = checks.run_all(spec)
        assert rep.all_pass, [c.name for c in rep.checks if c.status == "fail"]
        assert len(rep.checks) >= 10


def test_run_all_random_specs():
    rng = np.random.default_rng(61)
    for _ in range(5):
        spec = support.rand_condition1_spec(rng, n_max=5)
        rep = checks.run_all(spec)
        assert rep.all_pass, [
            (c.name, c.details) for c in rep.checks if c.status == "fail"]


def test_halfplane_on_w2():
    res = spectrum(fixtures.w2(), 1.0)
    c = checks.check_halfplane(fixtures.w2(), res)
    assert c.status == "pass"


def test_negative_semisimple_on_w1():
    res = spectrum(fixtures.w1(), 1.0)
    c = checks.check_negative_semisimple(fixtures.w1(), res)
    assert c.status == "pass"


def test_zero_multiplicity_axis_in_kernel():
    # ker A meets the coupling axis: p = 0, alg(0) = 0 + 1
    m = np.eye(3)
    g = np.diag([1.0, 0.0, 0.0])
    a = np.diag([0.0, 1.0, 2.0])
    spec = PencilSpec(m, g, a)
    res = spectrum(spec, 1.0)
    assert res.find(0.0).alg_mult == 1
    c = checks.check_zero_multiplicity(spec, res)
    assert c.status == "pass"


def test_zero_multiplicity_kernel_off_axis():
    # ker A orthogonal to the axis: p = 1, alg(0) = 1 + 1
    m = np.eye(3)
    g = np.diag([0.0, 0.0, 1.0])
    a = np.diag([0.0, 1.0, 2.0])
    spec = PencilSpec(m, g, a)
    res = spectrum(spec, 1.0)
    assert res.find(0.0).alg_mult == 2
    c = checks.check_zero_multiplicity(spec, res)
    assert c.status == "pass"


def test_type2_statistics_w3():
    st = checks.type2_statistics(fixtures.w3(), 1.0)
    assert st.moduli == []
    assert st.counts == [2]
    assert st.n_ker == 0 and st.p == 0
    assert not st.zero_coupled_initially
    assert (st.kappa_i, st.kappa_ii, st.kappa_tilde, st.kappa_a) == (0, 0, 1.0, 1)
    assert st.kappa_i + st.kappa_ii + st.kappa_tilde == st.kappa_a


def test_type2_statistics_singular_mass_out_of_scope():
    # W1 has a singular M: the count statements are gated on M > 0
    with pytest.raises(HypothesisViolated):
        checks.type2_statistics(fixtures.w1(), 1.0)


def test_type2_statistics_golden_ratio_instance():
    # coupled factor lambda^2 - lambda - 1: roots phi and -1/phi, so the
    # single negative type-II modulus is (sqrt(5) - 1) / 2
    m = np.eye(2)
    g = np.diag([0.0, 1.0])
    a = np.diag([-1.0, 1.0])
    spec = PencilSpec(m, g, a)
    st = checks.type2_statistics(spec, 1.0)
    assert len(st.moduli) == 1
    assert st.moduli[0] == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0)
    assert st.counts == [0, 1]
    # the decoupled factor lambda^2 + 1 contributes the imaginary pair
    assert (st.kappa_i, st.kappa_ii, st.kappa_tilde, st.kappa_a) == (1, 0, 0.0, 1)
    assert st.identity_holds


def test_type2_statistics_all_positive_instance():
    m = np.eye(2)
    g = np.diag([0.0, 1.0])
    a = np.diag([1.0, 1.0])
    spec = PencilSpec(m, g, a)
    st = checks.type2_statistics(spec, 1.0)
    assert st.moduli == [pytest.approx((np.sqrt(5.0) - 1.0) / 2.0)]
    assert (st.kappa_i, st.kappa_ii, st.kappa_tilde, st.kappa_a) == (0, 0, 0.0, 0)
    assert st.identity_holds


def test_interlacing_checks_w3():
    cs = checks.check_type2_interlacing(fixtures.w3(), 1.0)
    assert isinstance(cs, list) and cs
    assert all(c.status in ("pass", "not_applicable") for c in cs)


def test_statistics_reject_eta_zero():
    with pytest.raises(HypothesisViolated):
        checks.type2_statistics(fixtures.w3(), 0.0)


def test_statistics_need_rank_one():
    rng = np.random.default_rng(67)
    spec = support.rand_definite_spec(rng, n_max=3)
    with pytest.raises(HypothesisViolated):
        checks.type2_statistics(spec, 1.0)


def test_statistics_need_definite_mass_plus_gyro():
    # ker M meets ker A only trivially, but M + G stays singular
    m = np.diag([1.0, 0.0, 0.0])
    g = np.diag([0.0, 1.0, 0.0])
    a = np.diag([0.0, 1.0, 1.0])
    spec = PencilSpec(m, g, a)
    with pytest.raises(HypothesisViolated):
        checks.type2_statistics(spec, 1.0)


def test_statistics_refuse_unresolvable_enumeration():
    # two negative type-II moduli closer than the resolution floor
    spec = fixtures.w3()
    dummy = np.zeros((2, 1), dtype=complex)
    recs = [
        EigenRecord(lam=complex(-1.0), alg_mult=1, geo_mult=1, type1_mult=0,
                    type2_mult=1, vectors=dummy, residual=0.0),
        EigenRecord(lam=complex(-1.0 - 1e-12), alg_mult=1, geo_mult=1,
                    type1_mult=0, type2_mult=1, vectors=dummy, residual=0.0),
        EigenRecord(lam=complex(2.0), alg_mult=1, geo_mult=1, type1_mult=0,
                    type2_mult=1, vectors=dummy, residual=0.0),
        EigenRecord(lam=complex(3.0), alg_mult=1, geo_mult=1, type1_mult=1,
                    type2_mult=0, vectors=dummy, residual=0.0),
    ]
    fake = SpectrumResult(eta=1.0, records=recs, n_finite=4,
                          discarded_infinite=0, scale=1.0)
    with pytest.raises(EnumerationAmbiguous):
        checks.type2_statistics(spec, 1.0, result=fake)


def _first_collision_loop(moduli, positives, ctol):
    for m in moduli:
        for v in positives:
            if abs(v - m) <= ctol:
                return v, m
    return None


def _min_separation_loop(moduli, positives):
    sep = np.inf
    for m in moduli:
        for v in positives:
            sep = min(sep, abs(v - m))
    return sep


def test_collision_scan_matches_loops():
    rng = np.random.default_rng(83)
    ctol = 1e-8
    for _ in range(400):
        k = int(rng.integers(0, 8))
        moduli = sorted(set(rng.uniform(0.1, 50.0, size=k).round(int(rng.integers(1, 4)))))
        pos = list(rng.uniform(0.0, 60.0, size=int(rng.integers(0, 10))))
        # collisions: exact hits, offsets inside, on and just past ctol
        for m in moduli:
            if rng.random() < 0.4:
                off = rng.choice([0.0, 0.5 * ctol, ctol, -ctol, 1.0000001 * ctol])
                pos.insert(int(rng.integers(0, len(pos) + 1)), m + off)
        assert checks._first_collision(moduli, pos, ctol) == \
            _first_collision_loop(moduli, pos, ctol)
        assert checks._min_separation(moduli, pos) == _min_separation_loop(moduli, pos)


def test_statistics_collision_message_order():
    # moduli 1 and 2 both collide; the message names the smaller modulus
    # and, of its two colliders, the one listed first
    spec = fixtures.w3()
    dummy = np.zeros((2, 1), dtype=complex)

    def rec(lam):
        return EigenRecord(lam=complex(lam), alg_mult=1, geo_mult=1, type1_mult=0,
                           type2_mult=1, vectors=dummy, residual=0.0)

    recs = [rec(-2.0), rec(-1.0), rec(2.0 + 1e-9), rec(1.0 + 5e-9), rec(1.0 - 1e-9)]
    fake = SpectrumResult(eta=1.0, records=recs, n_finite=5,
                          discarded_infinite=0, scale=1.0)
    with pytest.raises(EnumerationAmbiguous) as info:
        checks.type2_statistics(spec, 1.0, result=fake)
    assert str(info.value) == (
        "positive eigenvalue %r within tolerance of modulus %r" % (1.0 + 5e-9, 1.0))


def test_real_spectrum_when_a_psd():
    spec = PencilSpec(np.eye(2), np.diag([0.0, 1.0]), np.diag([1.0, 0.25]))
    rep = checks.run_all(spec)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["real_spectrum_when_a_psd"].status == "pass"
    assert rep.all_pass


def test_run_all_flags_broken_condition():
    spec = PencilSpec(np.diag([1.0, -1.0]), np.zeros((2, 2)), np.eye(2),
                      validate=False)
    rep = checks.run_all(spec)
    assert not rep.all_pass
    by_name = {c.name: c for c in rep.checks}
    assert by_name["condition_I"].status == "fail"


def test_run_sl_single_pipeline():
    p = sturm.SLProblem(variant="single", q_kind="const", q_value=-2.0,
                        a=1.0, alpha=1.0, n=40)
    rep = checks.run_sl(p)
    assert rep.all_pass
    names = [c.name for c in rep.checks]
    assert "single_all_type2" in names
    assert "type2_count_identity" in names


def test_run_sl_sampled_negative_potential():
    # a strongly negative well forces kappa_a > 0 and still verifies
    rng = np.random.default_rng(71)
    qs = tuple(rng.uniform(-9.0, -3.0, size=41))
    p = sturm.SLProblem(variant="single", q_kind="sampled", q_values=qs,
                        a=np.pi, alpha=1.0, n=40)
    rep = checks.run_sl(p)
    assert rep.all_pass, [
        (c.name, c.details) for c in rep.checks if c.status == "fail"]


def test_run_sl_double_pipeline():
    p = sturm.SLProblem(variant="double", q_kind="const", q_value=1.0,
                        a=1.0, alpha=0.8, n=15)
    rep = checks.run_sl(p)
    assert rep.all_pass, [
        (c.name, c.details) for c in rep.checks if c.status == "fail"]


@pytest.mark.parametrize("n", [12, 20, 24])
def test_run_sl_double_q4_type1_axes_symmetric(n):
    # a decoupled value and its mirror get the same type split
    p = dataclasses.replace(fixtures.sl_double_q4(), n=n)
    rep = checks.run_sl(p)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["type1_on_axes_symmetric"].status == "pass", (
        by_name["type1_on_axes_symmetric"].details)


@pytest.mark.parametrize("make,eta", [
    (lambda: sturm.discretize(dataclasses.replace(fixtures.sl_double_q4(), n=12)), 1.0),
    (lambda: sturm.discretize(dataclasses.replace(fixtures.sl_double_q4(), n=40)), 0.5),
    (fixtures.w3, 0.7),
], ids=["double12", "double40-secular", "w3"])
def test_run_all_solves_the_axis_etas_in_one_batch(monkeypatch, make, eta):
    spec = make()
    batches = []

    def counted(s, etas):
        batches.append(list(etas))
        return spectra(s, etas)

    monkeypatch.setattr(checks, "spectra", counted)
    got = serialize.report_to_dict(checks.run_all(spec, eta=eta))
    assert batches == [[e for e in (0.3, 0.7, 1.0) if e != eta]]
    # the same report from one spectrum per eta
    monkeypatch.setattr(checks, "spectra",
                        lambda s, etas: [spectrum(s, e) for e in etas])
    assert serialize.report_to_dict(checks.run_all(spec, eta=eta)) == got


def test_verify_computes_spec_invariants_once(monkeypatch):
    # lambda_min(M + G), the two kernel dimensions and kappa_A are spec
    # level: one eigvalsh(M + G), one kernel rank (dim ker A comes from A's
    # eigenvalues, and M > 0 skips the validation rank), and kappa_A from
    # the cached modes
    counts = {"eigvalsh": 0, "rank": 0}
    eigvalsh, rank = np.linalg.eigvalsh, linalg.rank_with_tol

    def counted_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counted_rank(*args, **kwargs):
        counts["rank"] += 1
        return rank(*args, **kwargs)

    def no_generalized(a, b=None, **kwargs):
        if b is not None:
            raise AssertionError("kappa_A outside the cached modes")
        return sla_eigvalsh(a, **kwargs)

    sla_eigvalsh = sla.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(linalg, "rank_with_tol", counted_rank)
    monkeypatch.setattr(sla, "eigvalsh", no_generalized)
    rep = checks.run_sl(dataclasses.replace(fixtures.sl_double_q4(), n=20))
    assert rep.all_pass
    by_name = {c.name: c for c in rep.checks}
    assert by_name["type2_count_identity"].status == "pass"
    assert counts == {"eigvalsh": 1, "rank": 1}
