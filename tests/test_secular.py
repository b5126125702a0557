"""The modal route's coupled values: the secular solver, its eigvals
counterpart below the size crossover, the inclusion discs that certify
multiplicities, and an mpmath reference on hard instances."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from gyropencil import checks, fixtures, linalg, pencil, sturm
from gyropencil.pencil import spectrum

import support


def _worst_match(got, want):
    """Largest relative distance of the best one-to-one matching."""
    assert got.size == want.size
    cost = np.abs(got[:, None] - want[None, :]) / np.maximum(1.0, np.abs(want))[None, :]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _double(n):
    return sturm.discretize(dataclasses.replace(fixtures.sl_double_q4(), n=n))


def _records(res):
    return [(rec.lam, rec.alg_mult, rec.geo_mult, rec.type1_mult, rec.type2_mult)
            for rec in res.records]


def test_eta_zero_values_are_the_poles():
    mu = np.array([-2.0, -0.5, 0.0, 1.0, 4.0, 9.0])
    w = np.array([0.3, -1.0, 0.8, 0.5, 2.0, -0.1])
    p = np.sqrt(mu.astype(complex))
    assert np.array_equal(pencil._secular_values(mu, w, 0.0), np.concatenate([p, -p]))
    # on a double string above the crossover every coupled pole is a record
    spec = _double(40)
    md = pencil._modes(spec)
    assert md.cpl.size >= pencil._SECULAR_MIN_M
    lams = {rec.lam for rec in spectrum(spec, 0.0).records}
    poles = np.sqrt(md.mu[md.cpl].astype(complex))
    for pole in np.concatenate([poles, -poles]):
        assert pencil._real_if_zero_imag(complex(pole)) in lams


@pytest.mark.parametrize("mu, w, c", [
    # a coupled mode at mu = 0: lam = 0 is an exact root
    ([-1.5, 0.0, 0.7, 2.0, 5.0], [0.4, 1.0, -0.6, 0.3, 1.1], 0.8),
    # a weight at the decoupling cutoff: a root pinned to its pole
    ([-0.4, 1.0, 2.5, 4.0], [1.0, 1.01e-8, 0.5, -0.7], 1.0),
    # poles 1e-9 apart (relative): a root in each narrow gap
    ([-2.0, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 3.0], [0.6, 0.5, -0.4, 0.3, 1.0], 0.6),
    # no real pole at all
    ([-3.0, -1.0, -0.2], [0.5, 1.0, 0.7], 1.3),
])
def test_secular_roots_match_mpmath(mu, w, c):
    mu, w = np.array(mu), np.array(w)
    got = pencil._secular_values(mu, w, c)
    want = support.mp_secular_roots(mu, w, c)
    assert _worst_match(got, want) <= 1e-12
    if np.any(mu == 0.0):
        assert np.any(got == 0.0)
    # a real root in each gap between consecutive real poles (closed: a
    # root within an ulp of its pole rounds onto it)
    sp = np.sqrt(mu[mu > 0.0])
    poles = np.sort(np.concatenate([-sp, np.zeros(np.count_nonzero(mu == 0.0)), sp]))
    real = np.sort(got[got.imag == 0.0].real)
    for lo, hi in zip(poles[:-1], poles[1:]):
        assert np.count_nonzero((real >= lo) & (real <= hi)) >= 1, (lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-6, 0.05, 0.5, 1.0, 3.0]))
def test_secular_source_matches_eigvals(m, neg_frac, seed, c):
    # random poles with many mu < 0, weights over four decades
    rng = np.random.default_rng(seed)
    kneg = int(round(neg_frac * m))
    mu = np.unique(np.concatenate([-rng.uniform(0.01, 30.0, kneg),
                                   rng.uniform(0.01, 100.0, m - kneg)]))
    w = rng.normal(size=mu.size) * 10.0 ** rng.uniform(-3.0, 1.0, mu.size)
    got = pencil._secular_values(mu, w, c)
    want = pencil._companion_eigvals(mu, w, c)
    assert got.size == 2 * mu.size
    assert _worst_match(got, want) <= 1e-8
    # the roots of a real polynomial: real, or in exact conjugate pairs
    nonreal = got[got.imag != 0.0]
    assert np.array_equal(np.sort_complex(nonreal), np.sort_complex(nonreal.conj()))


@pytest.mark.parametrize("source", ["eigvals", "secular"])
def test_modal_collision_is_one_defective_record(monkeypatch, source):
    # W3's coupled pair collides at lam = 0.3 when eta = 0.6
    monkeypatch.setattr(pencil, "_SECULAR_MIN_M", 10**9 if source == "eigvals" else 0)
    spec = fixtures.w3()
    assert spec.m_definite and spec.rank_one is not None
    res = spectrum(spec, 0.6)
    rec = res.find(0.3)
    assert (rec.alg_mult, rec.geo_mult, rec.type1_mult) == (2, 1, 0)
    assert len(res.records) == 3


@pytest.mark.parametrize("make", [
    lambda: _double(12), lambda: _double(47),
    lambda: support.mirror_spec(np.random.default_rng(252)),
    lambda: support.kernel_engineered_spec(np.random.default_rng(7))[0],
    lambda: support.rand_condition1_spec(np.random.default_rng(11)),
], ids=["double-m13", "double-m48", "mirror252", "kernel7", "random11"])
def test_value_sources_give_identical_records(monkeypatch, make):
    spec = make()
    for eta in (0.0, 0.3, 1.0):
        monkeypatch.setattr(pencil, "_SECULAR_MIN_M", 0)
        sec = _records(spectrum(spec, eta))
        monkeypatch.setattr(pencil, "_SECULAR_MIN_M", 10**9)
        eig = _records(spectrum(spec, eta))
        assert len(sec) == len(eig), eta
        for a, b in zip(sec, eig):
            assert abs(a[0] - b[0]) <= 1e-10 * spec.scale, (eta, a, b)
            assert a[1:] == b[1:], (eta, a, b)


def test_no_convergence_is_raised_not_hidden(monkeypatch):
    monkeypatch.setattr(pencil, "_SECULAR_MAXIT", 1)
    with pytest.raises(pencil.NoConvergence):
        pencil._secular_values(np.array([-1.0, 1.0, 4.0]), np.array([0.5, 0.6, 0.7]), 1.0)


@pytest.mark.parametrize("spec, eta", [
    (support.mirror_spec(np.random.default_rng(252)), 0.0),
    (support.mirror_spec(np.random.default_rng(252)), 1.0),
    (_double(3), 0.5),
    (_double(4), 1.0),
], ids=["mirror252-eta0", "mirror252-eta1", "double3", "double4"])
def test_modal_route_matches_mpmath(spec, eta):
    # 30-digit reference: coupled/decoupled coincidences at eta = 0, the
    # resonant zero pair of the double string
    ref = support.mp_records(spec, eta)
    res = spectrum(spec, eta)
    assert len(res.records) == len(ref)
    ref_lams = np.array([r[0] for r in ref])
    for rec in res.records:
        j = int(np.argmin(np.abs(ref_lams - rec.lam)))
        assert abs(ref_lams[j] - rec.lam) <= 1e-9 * spec.scale, (rec.lam, ref[j])
        lam, alg, geo, type1 = ref[j]
        assert (rec.alg_mult, rec.geo_mult, rec.type1_mult, rec.type2_mult) == (
            alg, geo, type1, alg - type1), (rec.lam, ref[j])


@pytest.mark.parametrize("n", [135, 150])
def test_double_q4_distinct_close_values_stay_apart(n):
    # a decoupled and a coupled value within 1e-6 relative (8.4e-5 apart at
    # n = 135, 6.8e-5 at n = 150) are two simple records, not one double
    rep = checks.run_sl(dataclasses.replace(fixtures.sl_double_q4(), n=n))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["nonsimple_real_interval_bound"].status == "pass"
    assert rep.all_pass, [(c.name, c.details) for c in rep.checks if c.status == "fail"]


def test_inclusion_discs_hold_every_root():
    # Gerschgorin on the Weierstrass corrections: each eigvals value lies in
    # a disc around the secular approximations, and a component of k discs
    # holds k of them
    rng = np.random.default_rng(3)
    mu = np.sort(np.concatenate([-rng.uniform(0.1, 5.0, 2), rng.uniform(0.1, 50.0, 8)]))
    w = rng.normal(size=mu.size)
    q, cq = pencil._poles(mu, w, 0.7)
    z = pencil._secular_values(mu, w, 0.7)
    q_err = pencil._pole_errors(q, float(np.max(np.abs(mu))))
    centers, radii = pencil._inclusion_radii(z, q, cq, q_err)
    meet = np.abs(centers[:, None] - centers) <= radii[:, None] + radii
    labels = pencil._relabel(pencil._components(meet))
    want = support.mp_secular_roots(mu, w, 0.7)
    owner = []
    for root in want:
        inside = np.flatnonzero(np.abs(root - centers) <= radii)
        assert inside.size, root
        owner.append(labels[inside[0]])
    assert np.array_equal(np.bincount(owner, minlength=labels.max() + 1),
                          np.bincount(labels))


def test_tiny_eta_values_are_the_poles():
    # n = 47 takes the secular route; below eta ~ 1e-18 every coupled value
    # rounds to its pole, which the iterations cannot resolve as an offset
    spec = sturm.discretize(dataclasses.replace(fixtures.sl_double_q4(), n=47))
    assert pencil._modes(spec).cpl.size >= pencil._SECULAR_MIN_M
    ref = spectrum(spec, 1e-30).records
    for eta in (1e-60, 1e-100, 1e-200, 1e-300, 5e-324):
        got = spectrum(spec, eta).records
        assert len(got) == len(ref), eta
        for a, b in zip(got, ref):
            assert (a.alg_mult, a.geo_mult, a.type1_mult, a.type2_mult) == (
                b.alg_mult, b.geo_mult, b.type1_mult, b.type2_mult), (eta, b.lam)
            assert abs(a.lam - b.lam) <= 1e-12 * abs(b.lam), (eta, b.lam)


_TINY_ETAS = (1e-100, 1e-160, 1e-200, 1e-300, 1e-305, 1e-308, 2.2e-311, 5e-324)


@pytest.mark.parametrize("make", [
    fixtures.w3, lambda: _double(3), lambda: _double(12),
    lambda: sturm.discretize(dataclasses.replace(fixtures.sl_single_q4(), n=3)),
    lambda: sturm.discretize(dataclasses.replace(fixtures.sl_single_q4(), n=12)),
    lambda: support.with_decoupled_copies(
        support.rand_condition1_spec(np.random.default_rng(0)),
        float(np.random.default_rng(0).uniform(0.5, 2.0)), 2),
    # a coupled mode with mu = 0: the zero record's coupled vector sits
    # next to its pole, where w / (lam^2 - mu) overflowed
    lambda: pencil.PencilSpec(np.eye(3), np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, -2.0]),
                              rank_one=pencil.RankOneCoupling(b=1.0, e_index=0)),
], ids=["w3", "double-n3", "double-n12", "single-n3", "single-n12", "copies0", "zero-mode"])
def test_tiny_eta_eigvals_source_values_are_the_poles(make):
    # below the crossover eigvals gives the coupled values; where each
    # rounds to its pole its rounding noise would be all of the offset,
    # and the inclusion discs and coupled vectors overflowed (warnings are
    # errors in this suite)
    spec = make()
    assert pencil._modes(spec).cpl.size < pencil._SECULAR_MIN_M
    ref = spectrum(spec, 1e-30).records
    for eta in _TINY_ETAS:
        got = spectrum(spec, eta).records
        assert len(got) == len(ref), eta
        # matched by value: the record near 0 sorts before the imaginary
        # poles once its offset rounds to 0
        cost = np.abs(np.array([a.lam for a in got])[:, None]
                      - np.array([b.lam for b in ref])[None, :])
        rows, cols = linear_sum_assignment(cost)
        for a, b in zip([got[k] for k in rows], [ref[k] for k in cols]):
            assert (a.alg_mult, a.geo_mult, a.type1_mult, a.type2_mult) == (
                b.alg_mult, b.geo_mult, b.type1_mult, b.type2_mult), (eta, b.lam)
            assert abs(a.lam - b.lam) <= 1e-12 * max(1.0, abs(b.lam)), (eta, b.lam)
            assert np.allclose(np.linalg.norm(a.vectors, axis=0), 1.0, rtol=0.0,
                               atol=1e-12), (eta, a.lam)
            assert a.residual <= 1e-12 * spec.scale * (1.0 + abs(a.lam) ** 2)


def test_coupled_zero_mode_at_tiny_coupling():
    # mu = 0 is a double pole: the iterations lost the root c w_0^2 to
    # rounding and raised NoConvergence below c ~ 1e-60.  The zero pair's
    # roots are 0 and c w_0^2 (to relative O(c^2)), the others their poles
    mu = np.array([-1.0, 0.0, 0.5, 2.0, 3.0])
    w = np.array([0.5, 0.6, 0.7, 0.4, 0.3])
    p = np.sqrt(mu.astype(complex))
    for c in (1e-10, 1e-20, 1e-40, 1e-60, 1e-200, 1e-300, 5e-324):
        got = pencil._secular_values(mu, w, c)
        small = sorted(got, key=abs)[:2]
        assert small[0] == 0.0
        assert abs(small[1] - c * w[1] ** 2) <= 1e-14 * c * w[1] ** 2, c
        if c >= 1e-40:
            want = support.mp_secular_roots(mu, w, c)
            assert _worst_match(got, want) <= 1e-12
            assert abs(sorted(want, key=abs)[1] - small[1]) <= 1e-12 * abs(small[1])
        else:
            poles = np.concatenate([p, -p])[np.concatenate([mu, mu]) != 0.0]
            assert np.array_equal(np.sort_complex(got[np.abs(got) > 1e-3]),
                                  np.sort_complex(poles)), c
