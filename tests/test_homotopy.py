import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gyropencil import fixtures, homotopy, serialize, sturm
from gyropencil.errors import (
    DenominatorVanishes, HypothesisViolated, NotAnEigenvalue,
)
from gyropencil.pencil import PencilSpec, RankOneCoupling, evaluate, spectra, spectrum

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
    assert abs(ev.eta_star - 0.6) <= 1e-6
    assert abs(ev.lambda_star - 0.3) <= 1e-3
    assert sorted(ev.participants) == [1, 2]


def test_track_w3_collision_event_reversed():
    # running the homotopy backwards flips the collision kind
    tset = homotopy.track(fixtures.w3(), 1.0, 0.0, steps=101)
    assert len(tset.events) == 1
    assert tset.events[0].kind == 3
    assert abs(tset.events[0].eta_star - 0.6) <= 1e-6


@pytest.mark.parametrize("steps", [11, 12, 101, 401])
@pytest.mark.parametrize("ends", [(0.0, 1.0), (1.0, 0.0)])
def test_track_w2_births_and_escapes_are_not_events(ends, steps):
    # det L = -eta lambda^3 - 1: the three cube roots of -1/eta are
    # distinct for every eta > 0, so no two branches meet.  They come from
    # infinity at eta = 0, which changes the nonreal count there.
    tset = homotopy.track(fixtures.w2(), *ends, steps=steps)
    assert tset.events == []
    for i, eta in enumerate(tset.eta_grid):
        vals = sorted((b.values[i] for b in tset.branches
                       if b.values[i] is not None), key=lambda z: (z.real, z.imag))
        if eta == 0.0:
            assert vals == []
            continue
        roots = sorted(np.roots([-eta, 0.0, 0.0, -1.0]), key=lambda z: (z.real, z.imag))
        assert np.allclose(vals, roots, rtol=1e-8, atol=0.0), eta


def _w3_with_decoupled_double():
    """W3 plus the decoupled double value +-2: det L = (lambda^2 - 1)
    (lambda^2 - eta lambda + 0.09) (lambda^2 - 4)^2, whose coupled pair
    meets at 0.3 when eta = 0.6."""
    return PencilSpec(np.eye(4), np.diag([0.0, 1.0, 0.0, 0.0]),
                      np.diag([1.0, -0.09, 4.0, 4.0]))


@pytest.mark.parametrize("ends,kind", [((0.0, 1.0), 2), ((1.0, 0.0), 3)])
def test_track_collision_between_targets_beside_a_multiple_value(ends, kind):
    # at 12 steps eta = 0.6 lies between targets; the double value +-2
    # elsewhere in the spectrum is not the collision
    tset = homotopy.track(_w3_with_decoupled_double(), *ends, steps=12)
    coupled = [b.ident for b in tset.branches if np.ptp(b.values) > 1e-3]
    assert len(coupled) == 2
    ev, = tset.events
    assert ev.kind == kind
    assert abs(ev.eta_star - 0.6) <= 1e-6
    assert abs(ev.lambda_star - 0.3) <= 1e-3
    assert ev.participants == coupled


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


def _double_string(n, seed=None):
    spec = sturm.discretize(dataclasses.replace(fixtures.sl_double_q4(), n=n))
    if seed is None:
        return spec
    return support.permuted_spec(spec, np.random.default_rng(seed).permutation(spec.n))


def assert_same_tracks(spec, ends, steps):
    """track and the global-gap track_reference agree at the targets,
    whichever points either inserted between them."""
    got = homotopy.track(spec, *ends, steps=steps)
    ref = support.track_reference(spec, *ends, steps=steps)
    targets = list(np.linspace(*ends, steps))
    assert [(b.ident, b.escaped) for b in got.branches] == \
        [(b.ident, b.escaped) for b in ref.branches]
    at_got = [got.eta_grid.index(t) for t in targets]
    at_ref = [ref.eta_grid.index(t) for t in targets]
    for b, r in zip(got.branches, ref.branches):
        for t, i, k in zip(targets, at_got, at_ref):
            v, w = b.values[i], r.values[k]
            assert (v is None) == (w is None), (b.ident, t)
            if w is not None:
                assert abs(v - w) <= 1e-10 * abs(w), (b.ident, t)
    assert [(e.kind, e.participants) for e in got.events] == \
        [(e.kind, e.participants) for e in ref.events]
    for e, r in zip(got.events, ref.events):
        assert abs(e.eta_star - r.eta_star) <= 1e-6
        assert abs(e.lambda_star - r.lambda_star) <= 1e-3 * (1.0 + abs(r.lambda_star))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["w1", "w2", "w3"]), st.booleans(), st.integers(11, 101))
def test_track_matches_reference_on_fixtures(name, backward, steps):
    ends = (1.0, 0.0) if backward else (0.0, 1.0)
    assert_same_tracks(getattr(fixtures, name)(), ends, steps)


@pytest.mark.parametrize("ends", [(0.0, 1.0), (1.0, 0.0)])
def test_track_w3_event_taken_at_its_grid_point(ends):
    # at 101 steps the collision eta = 0.6 is a grid point, where the
    # event is taken without a search: within 1e-6 of 0.6 and of the
    # searching reference
    assert_same_tracks(fixtures.w3(), ends, 101)
    ev, = homotopy.track(fixtures.w3(), *ends, steps=101).events
    assert abs(ev.eta_star - 0.6) <= 1e-6


@settings(max_examples=8, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1), st.integers(6, 21))
def test_track_matches_reference_on_permuted_strings(n, seed, steps):
    assert_same_tracks(_double_string(n, seed), (0.0, 1.0), steps)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_track_matches_reference_on_random_rank_one(seed, backward):
    spec = support.rand_condition1_spec(np.random.default_rng(seed))
    ends = (1.0, 0.0) if backward else (0.0, 1.0)
    assert_same_tracks(spec, ends, 21)


def test_track_matches_reference_on_double_string_n10():
    # the global-gap reference inserts 106 points here; track inserts none
    assert_same_tracks(_double_string(10), (0.0, 1.0), 41)


def _count_change_brackets(tset):
    """Per grid interval where two or more branches present at both ends
    turn real or nonreal: (i, the branches that turn, whether they
    coincide on the real side)."""
    grid, out = tset.eta_grid, []
    for i in range(len(grid) - 1):
        turn, real_side = [], []
        for b in tset.branches:
            u, v = b.values[i], b.values[i + 1]
            if u is None or v is None:
                continue
            ru = abs(u.imag) <= 1e-7 * (1.0 + abs(u.real))
            rv = abs(v.imag) <= 1e-7 * (1.0 + abs(v.real))
            if ru != rv:
                turn.append(b.ident)
                real_side.append(u if ru else v)
        if len(turn) >= 2:
            lam = real_side[0]
            out.append((i, turn, all(abs(x - lam) <= 1e-9 * (1.0 + abs(lam))
                                     for x in real_side)))
    return out


def assert_count_changes_bracketed(tset):
    """Every count change off the grid lies in a grid interval of at most
    1e-6, the step rule's bracket, and its event sits at the midpoint."""
    grid = tset.eta_grid
    found = _count_change_brackets(tset)
    for i, turn, on_grid in found:
        lo, hi = sorted(grid[i:i + 2])
        ev = [e for e in tset.events if e.kind != 1 and lo <= e.eta_star <= hi
              and e.participants == sorted(turn)]
        assert len(ev) == 1, (i, turn)
        if not on_grid:
            assert abs(grid[i + 1] - grid[i]) <= 1e-6, (grid[i], grid[i + 1])
            assert ev[0].eta_star == 0.5 * (grid[i] + grid[i + 1])
    return len(found)


def _kind2_string(variant, q, alpha):
    return lambda: sturm.discretize(sturm.SLProblem(
        variant=variant, q_kind="const", q_value=q, a=float(np.pi), alpha=alpha,
        n=10, paper_sign_convention=True))


@pytest.mark.parametrize("steps", [11, 12, 33])
@pytest.mark.parametrize("ends", [(0.0, 1.0), (1.0, 0.0)])
@pytest.mark.parametrize("make", [
    fixtures.w1, fixtures.w2, fixtures.w3, _kind2_string("double", 6.0, 1.0),
    _kind2_string("single", 6.0, 3.0), _kind2_string("single", 2.5, 3.0),
], ids=["w1", "w2", "w3", "double-q6", "single-q6", "single-q2.5"])
def test_count_changes_bracketed_by_the_step_rule(make, ends, steps):
    assert_count_changes_bracketed(homotopy.track(make(), *ends, steps=steps))


def _strong_rank_one(rng):
    """A random rank-one spec whose coupling is scaled so that nonreal
    pairs land on the real axis inside [0, 1]."""
    spec = support.rand_condition1_spec(rng, n_max=6)
    k = float(rng.uniform(2.0, 40.0))
    return PencilSpec(spec.m, k * spec.g, spec.a, rank_one=RankOneCoupling(
        b=k * spec.rank_one.b, e_index=spec.rank_one.e_index))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 33))
def test_random_count_changes_bracketed_by_the_step_rule(seed, steps):
    spec = _strong_rank_one(np.random.default_rng(seed))
    for ends in ((0.0, 1.0), (1.0, 0.0)):
        assert_count_changes_bracketed(homotopy.track(spec, *ends, steps=steps))


def test_strong_rank_one_tracks_change_count():
    # the random draws above meet count changes: a third of the tracks do
    found = 0
    for seed in range(20):
        spec = _strong_rank_one(np.random.default_rng(seed))
        found += assert_count_changes_bracketed(homotopy.track(spec, 0.0, 1.0, steps=12))
    assert found >= 3


def _type1_crossings(type1, c):
    """M = I, G = e_n e_n^T, A = diag(type1, c).  The leading coordinates
    are decoupled: their roots +-sqrt(a) are type I values.  The last one
    gives the type II roots (eta +- sqrt(eta^2 + 4c)) / 2, which meet
    +-sqrt(a) at eta = +-(a - c) / sqrt(a).  Returns the spec, the
    branch curves as functions of eta, and the crossings inside (0, 1):
    (eta, lambda, branches that meet)."""
    n = len(type1) + 1
    g = np.zeros((n, n))
    g[-1, -1] = 1.0
    spec = PencilSpec(np.eye(n), g, np.diag(list(type1) + [c]))
    curves = [lambda eta, r=s * np.sqrt(a): np.full_like(eta, r)
              for a in type1 for s in (1.0, -1.0)]
    curves += [lambda eta, s=s: (eta + s * np.sqrt(eta ** 2 + 4.0 * c)) / 2.0
               for s in (1.0, -1.0)]
    cross = {(s * (a - c) / np.sqrt(a), s * np.sqrt(a), 1 + type1.count(a))
             for a in type1 for s in (1.0, -1.0)}
    return spec, curves, sorted(x for x in cross if 0.0 < x[0] < 1.0)


def assert_crossings_found(spec, curves, ends, steps, cross):
    """Every branch stays on one curve through the crossings, and each
    crossing is one kind-1 event."""
    tset = homotopy.track(spec, *ends, steps=steps)
    eta = np.array(tset.eta_grid)
    for b in tset.branches:
        vals = np.array(b.values, dtype=complex)
        assert min(np.max(np.abs(vals - f(eta))) for f in curves) <= 1e-8, b.ident
    got = sorted(tset.events, key=lambda e: e.eta_star)
    assert [e.kind for e in got] == [1] * len(cross)
    for ev, (eta, lam, meet) in zip(got, cross):
        assert len(ev.participants) == meet
        # the spectrum holds values within 1e-6 relative as one record, so
        # the gap reads 0 while the type II value, at speed
        # lam / (2 lam - eta), is that close to the type I one
        speed = abs(lam / (2.0 * lam - eta))
        assert abs(ev.eta_star - eta) <= 1e-6 + 1e-6 * max(1.0, abs(lam)) / speed
        assert abs(ev.lambda_star - lam) <= 1e-3 * (1.0 + abs(lam))


@pytest.mark.parametrize("steps", [11, 12, 400])
@pytest.mark.parametrize("ends", [(0.0, 1.0), (1.0, 0.0)])
@pytest.mark.parametrize("type1", [[1.0], [1.0, 1.0]], ids=["simple", "double"])
def test_track_reports_type1_crossing_between_targets(type1, ends, steps):
    # the type II root (eta + sqrt(eta^2 + 1)) / 2 meets the type I value 1
    # (simple, or double: one event with three branches) at eta = 0.75,
    # between two targets.  Stepping over it refuses no step, so the
    # crossing is found from the swapped order of the branches.
    # (track_reference refines toward it and reports no event: its column
    # before the coincidence run lies too close to the crossing to count
    # as separated.)
    spec, curves, cross = _type1_crossings(type1, 0.25)
    assert cross == [(0.75, 1.0, 1 + len(type1))]
    assert_crossings_found(spec, curves, ends, steps, cross)


# a grid point on a crossing: A = diag(1, 0.25) meets at eta = 0.75, and
# s = 2.861 at eta = 0.25 with c = s^2 - 0.25 s
@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(0.1, 4.0), min_size=1, max_size=3),
       st.floats(0.1, 4.0), st.integers(11, 1001), st.booleans(),
       st.booleans())
@example([1.0], 0.25, 5, False, False)
@example([1.0], 0.25, 405, False, False)
@example([2.861 ** 2], 2.861 ** 2 - 0.25 * 2.861, 9, True, False)
def test_track_reports_random_type1_crossings(type1, c, steps, backward,
                                              on_target):
    if on_target:
        # move c so the first type I value is met at the target nearest
        # to where it was met
        a, grid = type1[0], np.linspace(0.0, 1.0, steps)
        side = np.sign(a - c)
        eta = grid[np.argmin(np.abs(grid - abs(a - c) / np.sqrt(a)))]
        c = a - side * eta * np.sqrt(a)
        assume(c >= 0.1)
    spec, curves, cross = _type1_crossings(type1, c)
    roots = sorted(np.sqrt(type1 + [c]))
    etas = [s * (a - c) / np.sqrt(a) for a in type1 for s in (1.0, -1.0)]
    # crossings clear of the ends and of each other; distinct type I values
    assume(all(abs(e) > 0.05 and abs(e - 1.0) > 0.05 for e in etas))
    assume(all(np.diff(sorted(e for e, _, _ in cross)) > 0.02))
    assume(all(np.diff(roots) > 0.05))
    ends = (1.0, 0.0) if backward else (0.0, 1.0)
    assert_crossings_found(spec, curves, ends, steps, cross)


@pytest.mark.parametrize("make,ends,steps", [
    (lambda: _double_string(6, seed=1), (0.0, 1.0), 21),
    (fixtures.w1, (0.5, 1.0), 51),
    (fixtures.w1, (1.0, 0.0), 51),
    (lambda: _double_string(10), (0.0, 1.0), 41),
    (lambda: _double_string(20), (0.0, 1.0), 41),
    (lambda: _double_string(30), (0.0, 1.0), 21),
], ids=["string6-permuted", "w1-forward", "w1-backward",
        "string10", "string20", "string30"])
def test_track_solves_one_spectrum_per_target(make, ends, steps):
    # no branch's predictor fails: W1's merge at eta = 1 and the string's
    # close pairs elsewhere refuse no step
    diag = homotopy.track(make(), *ends, steps=steps).diagnostics
    assert diag["rejected_steps"] == []
    assert diag["grid_points"] == steps
    assert diag["spectra_solved"] == steps + diag["event_spectra"]


@pytest.mark.parametrize("make,ends,steps", [
    (fixtures.w3, (0.0, 1.0), 101),
    (lambda: _double_string(6, seed=1), (0.0, 1.0), 21),
], ids=["w3", "string6-permuted"])
def test_track_solves_its_targets_in_one_batch(monkeypatch, make, ends, steps):
    batches = []

    def counted(s, etas):
        batches.append(list(etas))
        return spectra(s, etas)

    monkeypatch.setattr(homotopy, "spectra", counted)
    got = homotopy.track(make(), *ends, steps=steps)
    assert batches == [list(np.linspace(*ends, steps))]
    # the same track from one spectrum per target
    monkeypatch.setattr(homotopy, "spectra",
                        lambda s, etas: [spectrum(s, eta) for eta in etas])
    want = homotopy.track(make(), *ends, steps=steps)
    assert serialize.tracks_to_csv(got) == serialize.tracks_to_csv(want)
    assert serialize.events_to_csv(got.events) == serialize.events_to_csv(want.events)
    assert got.diagnostics == want.diagnostics


@pytest.mark.parametrize("end", [1.0, 0.0])
def test_first_grid_velocities_on_a_crossing(monkeypatch, end):
    # on the modal route A = diag(1, 0.25) meets the type I value 1 with the
    # type II root (eta + sqrt(eta^2 + 1)) / 2 at eta = 0.75, in one
    # semisimple double record: at the first grid point its type I slot
    # stands still and its coupled slot moves at d/d eta of the root
    _, curves, _ = _type1_crossings([1.0], 0.25)
    spec = PencilSpec(np.eye(2), np.diag([0.0, 1.0]), np.diag([1.0, 0.25]),
                      rank_one=RankOneCoupling(b=1.0, e_index=1))
    seen = []
    velocities = homotopy._Tracker.velocities

    def spy(self, slots, eta):
        vel = velocities(self, slots, eta)
        seen.append((eta, slots.vals, vel))
        return vel

    monkeypatch.setattr(homotopy._Tracker, "velocities", spy)
    tset = homotopy.track(spec, 0.75, end, steps=11)
    eta, vals, vel = seen[0]
    assert eta == 0.75
    root = np.sqrt(eta ** 2 + 1.0)
    want = sorted([(-1.0, 0.0), (1.0, 0.0), ((eta + root) / 2, (1.0 + eta / root) / 2),
                   ((eta - root) / 2, (1.0 - eta / root) / 2)])
    got = sorted(zip(np.round(vals.real, 8), vel))
    assert np.allclose(np.abs(vals.imag), 0.0)
    for (lw, vw), (lg, vg) in zip(want, got):
        assert abs(lg - lw) <= 1e-8 and abs(vg - vw) <= 1e-10, (want, got)
    # and every branch stays on its curve
    grid = np.array(tset.eta_grid)
    for b in tset.branches:
        vals = np.array(b.values, dtype=complex)
        assert min(np.max(np.abs(vals - f(grid))) for f in curves) <= 1e-8, b.ident


def _scalar_derivative(spec, lam, vec, eta):
    try:
        return homotopy.lambda_derivative(spec, lam, vec, eta)
    except (NotAnEigenvalue, DenominatorVanishes) as exc:
        return type(exc)


def _residuals(spec, lam, vecs, eta):
    """||L(lam, eta) v|| / ||v|| per column, as lambda_derivative tests it."""
    return np.array([np.linalg.norm(evaluate(spec, lam[k], eta) @ vecs[:, k])
                     / np.linalg.norm(vecs[:, k]) for k in range(lam.size)])


def _slot_vectors(spec, slots, use):
    """The first vector of each used slot's record, one column per slot."""
    return np.array([slots.recs[k].vectors[:, 0] for k in use],
                    dtype=complex).reshape(-1, spec.n).T


def assert_batched_matches_scalar(spec, lam, vecs, eta):
    vel, not_eig, vanish = homotopy._velocities(
        spec, lam, vecs, _residuals(spec, lam, vecs, eta), eta)
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
                                      _slot_vectors(spec, slots, use), eta)
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
    vecs = np.hstack((e2, e2, _slot_vectors(spec, slots, real)))
    assert_batched_matches_scalar(spec, lam, vecs, 0.6)
    _, not_eig, vanish = homotopy._velocities(
        spec, lam, vecs, _residuals(spec, lam, vecs, 0.6), 0.6)
    assert vanish[0] and not_eig[1]


def test_separations_match_loop():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(0, 9))
        src = rng.normal(size=m) + 1j * rng.normal(size=m) * rng.integers(2)
        dst = src + 0.1 * rng.normal(size=m)
        # shared sources and merged matches, at and beyond the 1e-9 dedup
        for vals in (src, dst):
            for _ in range(int(rng.integers(0, 4))):
                if m >= 2:
                    i, j = rng.choice(m, size=2, replace=False)
                    vals[i] = vals[j] + rng.choice([0.0, 3e-10, 1e-9, 2e-9])
        got = homotopy._separations(src, dst)
        assert got.tolist() == support.separations_loop(src.tolist(), dst.tolist())


def _swap_columns(rng, npts, nb):
    vals = rng.normal(size=(npts, nb)) + 0j
    vals[rng.random((npts, nb)) < 0.15] += 1j
    # runs of columns where one branch repeats another, within, at and
    # beyond the 1e-9 dedup
    for _ in range(int(rng.integers(0, 4))):
        if nb >= 2:
            i = rng.integers(npts)
            run = slice(i, rng.integers(i, npts) + 1)
            j, k = rng.choice(nb, size=2, replace=False)
            vals[run, j] = vals[run, k] + rng.choice([0.0, 3e-10, -3e-10, 1e-9, 2e-9])
    present = rng.random((npts, nb)) > 0.1
    vals[~present] = 0.0
    return vals, present


def test_order_swaps_match_loop():
    rng = np.random.default_rng(13)
    # 260 branches make chunks of 3 columns, so orders carry across chunks
    shapes = [(int(rng.integers(1, 8)), int(rng.integers(0, 6)))
              for _ in range(300)] + [(8, 260)]
    for npts, nb in shapes:
        vals, present = _swap_columns(rng, npts, nb)
        got = [(i, pairs) for i, pairs in homotopy._order_swaps(vals, present)]
        assert got == support.order_swaps_loop(vals.tolist(), present.tolist())


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


# refused steps per case, 0 unless listed: the branch born from infinity
# outruns its predictor once
_REFUSED = {("w1", (0.0, 1.0)): 1}

# slots that keep their velocity per case, 0 unless listed: the grid point
# eta = 0.75 is on the crossing, where both branches keep theirs
_CARRIED = {("crossing", (0.0, 1.0)): 2}

_DIAGNOSED = {"w1": fixtures.w1, "w3": fixtures.w3,
              "crossing": lambda: _type1_crossings([1.0], 0.25)[0]}


@pytest.mark.parametrize("name,ends,steps,events", [
    ("w3", (0.0, 1.0), 101, 1), ("w3", (1.0, 0.0), 101, 1),
    ("w1", (0.5, 1.0), 51, 0), ("w1", (1.0, 0.0), 51, 0),
    ("w1", (0.0, 1.0), 51, 0), ("crossing", (0.0, 1.0), 5, 1),
])
def test_track_diagnostics(monkeypatch, name, ends, steps, events):
    spec = _DIAGNOSED[name]()
    solved = []

    def counted(s, eta):
        solved.append(eta)
        return spectrum(s, eta)

    def counted_batch(s, etas):
        solved.extend(etas)
        return spectra(s, etas)

    monkeypatch.setattr(homotopy, "spectrum", counted)
    monkeypatch.setattr(homotopy, "spectra", counted_batch)
    tset = homotopy.track(spec, *ends, steps=steps)
    diag = tset.diagnostics
    assert len(tset.events) == events
    assert diag["spectra_solved"] == len(solved) == len(set(solved))
    assert diag["grid_points"] == len(tset.eta_grid)
    # every refused step inserts one midpoint, which ends up on the grid
    rejected = diag["rejected_steps"]
    assert len(rejected) == _REFUSED.get((name, ends), 0)
    assert diag["grid_points"] == steps + len(rejected)
    for step in rejected:
        assert step["error"] > step["half_separation"]
        assert abs(step["eta_to"] - step["eta_from"]) > 1e-6
    assert diag["event_spectra"] == diag["spectra_solved"] - diag["grid_points"]
    # W3's collision lands on the grid point eta = 0.6, whose spectrum holds
    # the double eigenvalue in one record, so no search spends a spectrum
    assert diag["event_spectra"] == 0
    assert diag["derivative_fallbacks"] == _slot_fallbacks(spec, tset)
    assert diag["crossing_velocities"] == _CARRIED.get((name, ends), 0)


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
