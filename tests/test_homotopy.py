import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyropencil import fixtures, homotopy, sturm
from gyropencil.errors import (
    DenominatorVanishes, HypothesisViolated, NotAnEigenvalue,
)
from gyropencil.pencil import PencilSpec, spectrum

import support


def branch_curve(tset, ident):
    return [v for v in tset.branches[ident].values]


def test_derivative_moving_eigenvalue():
    # coordinate-2 factor -eta lambda - 1: root -1/eta moves as 1/eta^2
    spec = fixtures.w1()
    e2 = np.array([0.0, 1.0])
    d = homotopy.lambda_derivative(spec, -1.0, e2, 1.0)
    assert d == pytest.approx(1.0, abs=1e-12)
    d = homotopy.lambda_derivative(spec, -2.0, e2, 0.5)
    assert d == pytest.approx(4.0, abs=1e-12)


def test_derivative_persistent_eigenvalue_is_frozen():
    # an eigenvector annihilated by G does not move at all
    spec = fixtures.w1()
    e1 = np.array([1.0, 0.0])
    d = homotopy.lambda_derivative(spec, 1.0, e1, 1.0)
    assert d == 0.0


def test_derivative_rejects_regular_point():
    spec = fixtures.w1()
    with pytest.raises(NotAnEigenvalue):
        homotopy.lambda_derivative(spec, 5.0, np.array([0.0, 1.0]), 1.0)


def test_derivative_denominator_vanishes_at_collision():
    spec = fixtures.w3()
    with pytest.raises(DenominatorVanishes):
        homotopy.lambda_derivative(spec, 0.3, np.array([0.0, 1.0]), 0.6)


def test_track_decoupled_spectrum_is_constant():
    spec = PencilSpec(np.eye(2), np.zeros((2, 2)), np.diag([1.0, 4.0]))
    tset = homotopy.track(spec, 0.0, 1.0, steps=21)
    assert tset.events == []
    for branch in tset.branches:
        vals = np.array(branch.values)
        assert np.max(np.abs(vals - vals[0])) <= 1e-9


def test_track_w1_moving_branch_matches_closed_form():
    spec = fixtures.w1()
    tset = homotopy.track(spec, 0.5, 1.0, steps=51)
    assert tset.events == []
    worst = 0.0
    hit = False
    for branch in tset.branches:
        vals = np.array(branch.values, dtype=complex)
        if abs(vals[0] - (-2.0)) < 1e-3:
            hit = True
            expect = -1.0 / np.array(tset.eta_grid)
            worst = float(np.max(np.abs(vals - expect)))
    assert hit
    assert worst <= 1e-6


def test_track_w3_collision_event_forward():
    tset = homotopy.track(fixtures.w3(), 0.0, 1.0, steps=101)
    assert len(tset.events) == 1
    ev = tset.events[0]
    assert ev.kind == 2
    assert abs(ev.eta_star - 0.6) <= 1e-3
    assert abs(ev.lambda_star - 0.3) <= 1e-3
    assert sorted(ev.participants) == [1, 2]


def test_track_w3_collision_event_reversed():
    # running the homotopy backwards flips the collision kind
    tset = homotopy.track(fixtures.w3(), 1.0, 0.0, steps=101)
    assert len(tset.events) == 1
    assert tset.events[0].kind == 3
    assert abs(tset.events[0].eta_star - 0.6) <= 1e-3


def test_track_escape_toward_zero_eta():
    # the moving W1 branch blows up as eta -> 0 and is marked escaped
    tset = homotopy.track(fixtures.w1(), 1.0, 0.0, steps=51)
    escaped = [b for b in tset.branches if b.escaped]
    assert len(escaped) == 1
    vals = escaped[0].values
    assert vals[-1] is None
    assert vals[0] == pytest.approx(-1.0, abs=1e-9)


def test_track_birth_from_infinity():
    # forward from eta = 0 the same branch enters through a gap column
    tset = homotopy.track(fixtures.w1(), 0.0, 1.0, steps=51)
    born = [b for b in tset.branches if b.values[0] is None]
    assert len(born) == 1
    assert born[0].values[-1] == pytest.approx(-1.0, abs=1e-6)


def test_track_grid_endpoints_exact():
    tset = homotopy.track(fixtures.w3(), 0.25, 0.75, steps=11)
    assert tset.eta_grid[0] == pytest.approx(0.25)
    assert tset.eta_grid[-1] == pytest.approx(0.75)


def test_pairing_definite_random():
    rng = np.random.default_rng(53)
    for _ in range(5):
        spec = support.rand_definite_spec(rng, n_max=5)
        res = spectrum(spec, 1.0)
        rep = homotopy.pair_spectrum(res, spec)
        for neg, pos in rep.pairs:
            assert neg < 0 < pos
            assert neg + pos >= -1e-8
        assert not rep.unpaired_negatives


def test_count_identity_random():
    rng = np.random.default_rng(59)
    for _ in range(10):
        spec = support.rand_definite_spec(rng, n_max=5)
        ci = homotopy.count_identity(spec)
        assert ci.identity_holds
        assert ci.unpaired_positives == 2 * ci.kappa_a - ci.kappa_c


def test_count_identity_needs_definite_gyro():
    with pytest.raises(HypothesisViolated):
        homotopy.count_identity(fixtures.w3())


def assert_same_tracks(got, ref):
    assert got.eta_grid == ref.eta_grid
    assert [(b.ident, b.escaped) for b in got.branches] == \
        [(b.ident, b.escaped) for b in ref.branches]
    for b, r in zip(got.branches, ref.branches):
        assert b.values == r.values, b.ident
    assert [(e.eta_star, e.lambda_star, e.kind, e.participants) for e in got.events] \
        == [(e.eta_star, e.lambda_star, e.kind, e.participants) for e in ref.events]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["w1", "w2", "w3"]), st.booleans(), st.integers(11, 101))
def test_track_matches_reference_on_fixtures(name, backward, steps):
    spec = getattr(fixtures, name)()
    ends = (1.0, 0.0) if backward else (0.0, 1.0)
    assert_same_tracks(homotopy.track(spec, *ends, steps=steps),
                       support.track_reference(spec, *ends, steps=steps))


@settings(max_examples=8, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1), st.integers(6, 21))
def test_track_matches_reference_on_permuted_strings(n, seed, steps):
    spec = sturm.discretize(dataclasses.replace(fixtures.sl_double_q4(), n=n))
    spec = support.permuted_spec(spec, np.random.default_rng(seed).permutation(spec.n))
    assert_same_tracks(homotopy.track(spec, 0.0, 1.0, steps=steps),
                       support.track_reference(spec, 0.0, 1.0, steps=steps))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_track_matches_reference_on_random_rank_one(seed, backward):
    spec = support.rand_condition1_spec(np.random.default_rng(seed))
    ends = (1.0, 0.0) if backward else (0.0, 1.0)
    assert_same_tracks(homotopy.track(spec, *ends, steps=21),
                       support.track_reference(spec, *ends, steps=21))


def _scalar_derivative(spec, lam, vec, eta):
    try:
        return homotopy.lambda_derivative(spec, lam, vec, eta)
    except (NotAnEigenvalue, DenominatorVanishes) as exc:
        return type(exc)


def assert_batched_matches_scalar(spec, lam, vecs, eta):
    stack = homotopy._Tracker(spec).stack
    vel, not_eig, vanish = homotopy._velocities(spec, stack, lam, vecs, eta)
    for k in range(lam.size):
        want = _scalar_derivative(spec, lam[k], vecs[:, k], eta)
        assert not_eig[k] == (want is NotAnEigenvalue), k
        assert vanish[k] == (want is DenominatorVanishes), k
        if isinstance(want, type):
            assert vel[k] == 0.0
        else:
            assert abs(vel[k] - want) <= 1e-12 * abs(want), (k, vel[k], want)


@pytest.mark.parametrize("seed", range(6))
def test_batched_derivatives_match_scalar(seed):
    rng = np.random.default_rng(seed)
    specs = [fixtures.w1(), fixtures.w2(), fixtures.w3(),
             support.rand_condition1_spec(rng), support.rand_definite_spec(rng),
             sturm.discretize(dataclasses.replace(fixtures.sl_double_q4(), n=6))]
    checked = 0
    for spec in specs:
        eta = float(rng.uniform(0.05, 1.0))
        slots = homotopy._Tracker(spec).slots_at(eta)
        use = np.flatnonzero([abs(v.imag) <= 1e-7 * (1.0 + abs(v.real))
                              for v in slots.vals])
        assert_batched_matches_scalar(spec, slots.vals.real[use],
                                      slots.vecs[:, use], eta)
        checked += use.size
    assert checked > 0


def test_batched_derivatives_fallbacks():
    # (0.3, e2) is the double eigenvalue of W3 at eta = 0.6, where the
    # denominator vanishes; 5 is no eigenvalue; the rest are real eigenpairs
    spec = fixtures.w3()
    slots = homotopy._Tracker(spec).slots_at(0.6)
    real = np.flatnonzero(np.abs(slots.vals.imag) <= 1e-9)
    e2 = np.array([[0.0], [1.0]], dtype=complex)
    lam = np.concatenate(([0.3, 5.0], slots.vals.real[real]))
    vecs = np.hstack((e2, e2, slots.vecs[:, real]))
    assert_batched_matches_scalar(spec, lam, vecs, 0.6)
    _, not_eig, vanish = homotopy._velocities(
        spec, homotopy._Tracker(spec).stack, lam, vecs, 0.6)
    assert vanish[0] and not_eig[1]


def test_min_distinct_gap_matches_loop():
    rng = np.random.default_rng(7)
    for _ in range(200):
        base = rng.normal(size=6) + 1j * rng.normal(size=6) * rng.integers(2)
        # repeats within the 1e-9 dedup tolerance, some of them chained
        picks = base[rng.integers(0, 6, size=int(rng.integers(0, 10)))]
        jitter = rng.choice([0.0, 3e-10, 1e-9, 2e-9], size=picks.size)
        vals = np.concatenate((base[:int(rng.integers(0, 7))], picks + jitter))
        rng.shuffle(vals)
        vals = [complex(v) for v in vals]
        assert homotopy._min_distinct_gap(vals) == support.min_distinct_gap_loop(vals)


def _slot_fallbacks(spec, tset):
    """Fallbacks of the scalar formula at each grid point a step leaves."""
    counts = {"NotAnEigenvalue": 0, "DenominatorVanishes": 0}
    for eta in tset.eta_grid[:-1]:
        for rec in spectrum(spec, eta).records:
            lam = rec.lam
            if abs(lam.imag) > 1e-7 * (1.0 + abs(lam.real)) or not rec.vectors.size:
                continue
            got = _scalar_derivative(spec, lam.real, rec.vectors[:, 0], eta)
            if isinstance(got, type):
                counts[got.__name__] += rec.alg_mult
    return counts


@pytest.mark.parametrize("name,ends,steps,events", [
    ("w3", (0.0, 1.0), 101, 1), ("w3", (1.0, 0.0), 101, 1),
    ("w1", (0.5, 1.0), 51, 0), ("w1", (1.0, 0.0), 51, 0),
])
def test_track_diagnostics(monkeypatch, name, ends, steps, events):
    spec = getattr(fixtures, name)()
    solved = []

    def counted(s, eta):
        solved.append(eta)
        return spectrum(s, eta)

    monkeypatch.setattr(homotopy, "spectrum", counted)
    tset = homotopy.track(spec, *ends, steps=steps)
    diag = tset.diagnostics
    assert len(tset.events) == events
    assert diag["spectra_solved"] == len(solved) == len(set(solved))
    assert diag["grid_points"] == len(tset.eta_grid)
    # every refused step inserts one midpoint, which ends up on the grid
    rejected = diag["rejected_steps"]
    assert diag["grid_points"] == steps + len(rejected)
    for step in rejected:
        assert step["max_jump"] > step["half_gap"]
        assert abs(step["eta_to"] - step["eta_from"]) > 1e-6
    assert diag["event_spectra"] == diag["spectra_solved"] - diag["grid_points"]
    assert diag["event_spectra"] >= events
    assert diag["derivative_fallbacks"] == _slot_fallbacks(spec, tset)


def test_track_diagnostics_w3_collision_fallbacks():
    # the double eigenvalue 0.3 at eta = 0.6 is a grid point: both of its
    # slots hit the vanishing denominator
    tset = homotopy.track(fixtures.w3(), 0.0, 1.0, steps=101)
    assert tset.diagnostics["derivative_fallbacks"] == {
        "NotAnEigenvalue": 0, "DenominatorVanishes": 2}


def _max_matching_brute(negs, poss):
    best = 0
    choices = list(range(len(poss))) + [None] * len(negs)
    for pick in set(itertools.permutations(choices, len(negs))):
        best = max(best, sum(1 for nval, j in zip(negs, pick)
                             if j is not None and nval + poss[j] >= -1e-8))
    return best


def _fake_result(values):
    recs = [SimpleNamespace(lam=complex(v), alg_mult=1) for v in values]
    return SimpleNamespace(records=recs, scale=1.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from([-1, 1])), max_size=4),
       st.lists(st.tuples(st.integers(1, 4),
                          st.sampled_from([-2e-8, -1e-8, -5e-9, 0.0, 1e-8])),
                max_size=4))
def test_greedy_pairing_is_a_maximum_matching(negs, poss):
    # magnitudes collide on purpose, and positives sit at, just inside
    # and just outside the 1e-8 feasibility tolerance of a negative
    negs = [-(m + 1e-9 * s) for m, s in negs]
    poss = [m + off for m, off in poss]
    rep = homotopy.pair_spectrum(_fake_result(negs + poss))
    assert len(rep.pairs) == _max_matching_brute(negs, poss)
    for nval, pval in rep.pairs:
        assert nval + pval >= -1e-8
    assert sorted([n for n, _ in rep.pairs] + rep.unpaired_negatives) == sorted(negs)
    assert sorted([p for _, p in rep.pairs] + rep.unpaired_positives) == sorted(poss)
