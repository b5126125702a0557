import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gyropencil import checks, fixtures, linalg, pencil, sturm
from gyropencil.errors import (
    ConditionViolation, GyropencilError, InvalidInput, MassNotDefinite, NoConvergence,
    ShiftExhausted,
)
from gyropencil.pencil import (
    PencilSpec,
    choose_shift, classify_type, evaluate, geometric_multiplicity,
    is_semisimple, nonreal_region, nonsimple_real_interval, spectrum,
    validate_condition_I,
)

import support


def sorted_lams(result):
    return sorted(support.expand_records(result), key=lambda z: (z.real, z.imag))


def test_decoupled_diagonal_spectrum():
    # det L = (lambda^2 - 1)(lambda^2 - 4) regardless of eta when G = 0
    spec = PencilSpec(np.eye(2), np.zeros((2, 2)), np.diag([1.0, 4.0]))
    res = spectrum(spec, 0.7)
    got = sorted_lams(res)
    assert np.allclose(got, [-2.0, -1.0, 1.0, 2.0], atol=1e-9)
    assert res.discarded_infinite == 0


def test_w1_spectrum_eta1():
    # det L = (lambda^2 - 1)(-lambda - 1): -1 twice, +1 once, one infinite
    res = spectrum(fixtures.w1(), 1.0)
    got = sorted_lams(res)
    assert np.allclose(got, [-1.0, -1.0, 1.0], atol=1e-9)
    assert res.discarded_infinite == 1
    rec = res.find(-1.0)
    assert rec.alg_mult == 2 and rec.geo_mult == 2


def test_w1_spectrum_eta0():
    # eta = 0 freezes the gyroscopic term: det = -(lambda^2 - 1)
    res = spectrum(fixtures.w1(), 0.0)
    got = sorted_lams(res)
    assert np.allclose(got, [-1.0, 1.0], atol=1e-9)
    assert res.discarded_infinite == 2


def test_w2_spectrum_cube_roots():
    # det L = -lambda^3 - 1 at eta = 1
    res = spectrum(fixtures.w2(), 1.0)
    got = set()
    for rec in res.records:
        got.add((round(rec.lam.real, 6), round(rec.lam.imag, 6)))
    expect = {(-1.0, 0.0), (0.5, round(np.sqrt(3) / 2, 6)),
              (0.5, -round(np.sqrt(3) / 2, 6))}
    assert got == expect


def test_w3_spectrum_eta1():
    res = spectrum(fixtures.w3(), 1.0)
    got = sorted_lams(res)
    assert np.allclose(got, [-1.0, 0.1, 0.9, 1.0], atol=1e-9)


def test_w3_collision_double_eigenvalue():
    # coupled factor becomes (lambda - 0.3)^2 at eta = 0.6
    spec = fixtures.w3()
    res = spectrum(spec, 0.6)
    rec = res.find(0.3)
    assert rec.alg_mult == 2
    assert rec.geo_mult == 1
    assert not is_semisimple(res, 0.3)
    assert is_semisimple(res, 1.0)


def test_record_types_w3():
    res = spectrum(fixtures.w3(), 1.0)
    for lam, t1, t2 in ((1.0, 1, 0), (-1.0, 1, 0), (0.1, 0, 1), (0.9, 0, 1)):
        rec = res.find(lam)
        assert (rec.type1_mult, rec.type2_mult) == (t1, t2), lam


def test_classify_w1_mixed_eigenvalue():
    # the double eigenvalue -1 carries one persistent and one moving copy
    res = spectrum(fixtures.w1(), 1.0)
    rec = res.find(-1.0)
    assert rec.type1_mult == 1
    assert rec.type2_mult == 1


def test_geometric_multiplicity_values():
    spec = fixtures.w1()
    assert geometric_multiplicity(spec, -1.0, 1.0) == 2
    assert geometric_multiplicity(spec, 1.0, 1.0) == 1
    # a regular point has a trivial kernel
    assert geometric_multiplicity(spec, 5.0, 1.0) == 0


def test_residuals_and_vectors():
    rng = np.random.default_rng(23)
    spec = support.rand_condition1_spec(rng, n_max=6)
    res = spectrum(spec, 1.0)
    for rec in res.records:
        assert rec.residual <= 1e-7
        for v in rec.vectors.T:
            r = evaluate(spec, rec.lam, 1.0) @ v
            assert np.linalg.norm(r) <= 1e-6 * spec.scale


def test_alg_count_conservation():
    rng = np.random.default_rng(29)
    for _ in range(10):
        spec = support.rand_condition1_spec(rng, n_max=6)
        res = spectrum(spec, 0.8)
        total = sum(rec.alg_mult for rec in res.records)
        assert total + res.discarded_infinite == 2 * spec.n


def test_conjugate_symmetry_of_records():
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = support.rand_condition1_spec(rng, n_max=6)
        res = spectrum(spec, 1.0)
        lams = support.expand_records(res)
        paired = support.max_pair_distance(lams, np.conj(lams))
        assert paired <= 1e-7 * spec.scale


def test_validate_rejects_indefinite_mass():
    with pytest.raises(ConditionViolation):
        PencilSpec(np.diag([1.0, -0.5]), np.zeros((2, 2)), np.eye(2))


def test_validate_rejects_indefinite_gyro():
    with pytest.raises(ConditionViolation):
        PencilSpec(np.eye(2), np.diag([0.0, -1.0]), np.eye(2))


def test_validate_rejects_common_kernel():
    m = np.diag([1.0, 0.0])
    g = np.diag([1.0, 0.0])
    a = np.diag([1.0, 0.0])
    with pytest.raises(ConditionViolation):
        PencilSpec(m, g, a)


def test_validate_report_without_raise():
    m = np.diag([1.0, -0.5])
    spec = PencilSpec(m, np.zeros((2, 2)), np.eye(2), validate=False)
    rep = validate_condition_I(spec)
    assert not rep.all_pass


@pytest.mark.parametrize("g, coupling", [
    (np.diag([1.0, 1.0]), None),
    (np.array([[1.0, 0.5], [0.5, 1.0]]), None),
    (np.ones((2, 2)), np.sqrt([0.5, 0.5])),
    (np.diag([1.0, 1e-10]), None),
    (np.diag([1.0, 1e-18]), np.array([1.0, 0.0])),
], ids=["two-diagonal", "off-diagonal-pair", "off-axis-rank-one", "second-eig-1e-10",
        "second-eig-1e-18"])
def test_g_beyond_one_axis_is_not_rank_one(g, coupling):
    # G is the coupling b g g^T, on an axis or not, when its eigenvalues
    # other than the largest, b, are rounding against b (8 r eps b): then
    # the modal route types the spectrum.  Any other G carries no
    # coupling: untyped, on the companion route even with M definite
    spec = PencilSpec(np.eye(2), g, np.diag([1.0, 2.0]))
    res = spectrum(spec, 0.5)
    if coupling is None:
        assert spec.rank_one is None
        assert res.diagnostics["route"] == "companion"
        assert res.diagnostics["type1_from"] == "unclassified"
        with pytest.raises(InvalidInput, match="a rank-one G"):
            classify_type(spec, res.records[0], 0.5)
    else:
        assert spec.rank_one.b == spec.g_top
        np.testing.assert_allclose(spec.rank_one.g, coupling, rtol=0, atol=1e-15)
        assert res.diagnostics["route"] == "modal"
        assert res.diagnostics["type1_from"] == "modes"
        ref = support.stacked_type1(spec, [r.lam for r in res.records], 0.5,
                                    [r.spread for r in res.records])
        for rec, dim in zip(res.records, ref):
            assert rec.types_classified and rec.type1_mult == min(dim, rec.alg_mult)
            assert classify_type(spec, rec, 0.5) == (rec.type1_mult, rec.type2_mult)
        assert sum(r.type1_mult for r in res.records) == (2 if g[1, 1] < 1e-15 else 0)
    # one off-diagonal pair, or entry, alone: not PSD, and no coupling
    for off in (np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([[0.0, 0.5], [0.0, 0.0]])):
        assert PencilSpec(np.eye(2), off, np.eye(2), validate=False).rank_one is None


@pytest.mark.parametrize("n", [1, 2, 5])
def test_one_positive_diagonal_entry_is_the_coupling(n):
    for k in range(n):
        g = np.zeros((n, n))
        g[k, k] = 0.75
        spec = PencilSpec(np.eye(n), g, np.diag(np.arange(1.0, n + 1)))
        assert spec.rank_one.b == 0.75 and np.array_equal(spec.rank_one.g, np.eye(n)[k])
        assert spectrum(spec, 0.5).diagnostics["route"] == "modal"
    # a negative entry is not a coupling (and not PSD)
    g = np.zeros((n, n))
    g[n - 1, n - 1] = -0.75
    assert PencilSpec(np.eye(n), g, np.eye(n), validate=False).rank_one is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_permuted_coupling_moves_with_the_axis(seed):
    rng = np.random.default_rng(seed)
    spec = support.rand_condition1_spec(rng)
    perm = rng.permutation(spec.n)
    moved = support.permuted_spec(spec, perm)
    assert moved.rank_one.b == spec.rank_one.b
    assert np.array_equal(moved.rank_one.g, spec.rank_one.g[perm])


def test_choose_shift_deterministic():
    spec = fixtures.w3()
    s1 = choose_shift(spec, 1.0)
    s2 = choose_shift(spec, 1.0)
    assert s1 == s2


def test_nonreal_region_contains_w3_pair():
    spec = fixtures.w3()
    region = nonreal_region(spec, 0.5)
    res = spectrum(spec, 0.5)
    for rec in res.records:
        if abs(rec.lam.imag) > 1e-9:
            assert region.contains(rec.lam)


def test_nonreal_region_needs_definite_mass():
    with pytest.raises(MassNotDefinite):
        nonreal_region(fixtures.w1(), 1.0)


def test_nonsimple_interval_holds_collision():
    spec = fixtures.w3()
    lo, hi = nonsimple_real_interval(spec)
    assert lo == 0.0
    assert hi == pytest.approx(0.5)
    assert lo <= 0.3 <= hi


def test_infinite_eigenvalue_count_tracks_mass_rank():
    rng = np.random.default_rng(37)
    # M of rank 2 inside n=4 discards 2n - (rank-deficiency-adjusted) values
    u = support.rand_orth(rng, 4)
    m = u @ np.diag([1.0, 2.0, 0.0, 0.0]) @ u.T
    m = 0.5 * (m + m.T)
    a = u @ np.diag([1.0, -1.0, 2.0, 3.0]) @ u.T
    a = 0.5 * (a + a.T)
    spec = PencilSpec(m, np.zeros((4, 4)), a)
    res = spectrum(spec, 1.0)
    coeffs = support.det_poly_coeffs(spec, 1.0)
    deg = support.poly_roots(coeffs).size
    assert sum(r.alg_mult for r in res.records) == deg
    assert res.discarded_infinite == 2 * 4 - deg


def test_choose_shift_falls_back_to_extra_shifts():
    # L(sigma) = sigma^2 I - diag(s_i^2) is singular at every primary shift
    primary = np.array(pencil._SHIFTS[:5])
    spec = PencilSpec(np.eye(5), np.zeros((5, 5)), np.diag(primary ** 2))
    assert choose_shift(spec, 1.0) == pencil._SHIFTS[5] == 0.31830988618


def _components_reference(centers, radii, zero):
    """Groups of discs, pair by pair through scipy's connected_components:
    discs outside the zero band meet, discs inside it all join."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(centers)
    near = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if zero[i] or zero[j]:
                near[i, j] |= bool(zero[i] and zero[j])
            else:
                near[i, j] |= abs(centers[i] - centers[j]) <= radii[i] + radii[j]
    ncomp, labels = connected_components(csr_matrix(near), directed=False)
    clusters = [[] for _ in range(ncomp)]
    for i, lab in enumerate(labels):
        clusters[lab].append(i)
    return clusters


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                       st.integers(0, 3)), min_size=1, max_size=12),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1e-7, 1e-3]),
)
def test_cluster_points_matches_connected_components(centers, seed, zero_tol):
    # each center spawns a chain of near copies, each disc meeting the one
    # before it or not, some linked only through a neighbour, plus discs
    # of any radius inside the zero band and padding discs of radius -inf
    rng = np.random.default_rng(seed)
    pts = []
    for re, im, copies in centers:
        z = complex(re, im)
        pts.append(z)
        for _ in range(copies):
            z = z + complex(*rng.uniform(-7e-7, 7e-7, 2))
            pts.append(z)
    pts.extend(complex(*rng.uniform(-1.0, 1.0, 2)) * zero_tol
               for _ in range(int(rng.integers(0, 4))))
    radii = list(rng.uniform(0.0, 6e-7, len(pts)) * (rng.uniform(size=len(pts)) < 0.8))
    pad = int(rng.integers(0, 3))
    pts, radii = pts + [0.0] * pad, radii + [-np.inf] * pad
    order = rng.permutation(len(pts))
    pts, radii = np.array(pts, dtype=complex)[order], np.array(radii)[order]
    zero = (np.abs(pts) <= zero_tol) & np.isfinite(radii)
    label = pencil._relabel(pencil._components(pencil._disc_links(pts, radii, zero)))
    clusters = [np.flatnonzero(label == k).tolist() for k in range(label.max() + 1)]
    assert clusters == _components_reference(pts, radii, zero)


def _rank_one_specs():
    rng = np.random.default_rng(41)
    specs = [fixtures.w1(), fixtures.w2(), fixtures.w3()]
    specs += [support.rand_condition1_spec(rng, n_max=7) for _ in range(6)]
    specs += [support.kernel_engineered_spec(rng, n_max=7)[0] for _ in range(4)]
    return specs


def test_stacked_type1_matches_per_record_svd():
    # every record's type I count against the nullity of the stack
    # [L(lam); G] from one SVD per record; support.stacked_type1, the
    # batched form of the same oracle, must agree with it
    eps = np.finfo(float).eps
    for spec in _rank_one_specs():
        n = spec.n
        for eta in (0.3, 1.0):
            res = spectrum(spec, eta)
            lams = [r.lam for r in res.records]
            spreads = [r.spread for r in res.records]
            batched = support.stacked_type1(spec, lams, eta, spreads)
            for rec, dim in zip(res.records, batched):
                lam, e, spread = rec.lam, eta, rec.spread
                if abs(lam) <= 1e-7 * spec.scale:
                    lam, e, spread = 0.0, 0.0, 0.0
                lmat = evaluate(spec, lam, e)
                svals = sla.svdvals(np.vstack([lmat, spec.g.astype(lmat.dtype)]))
                pert = spread * (2.0 * abs(lam) * spec.norm_m + e * spec.norm_g)
                pert += spread * spread * spec.norm_m
                tol = max(2 * n * eps * svals[0], 3.0 * pert, 1e-13 * spec.scale)
                oracle = n - np.count_nonzero(svals > tol)
                assert dim == oracle, (lam, eta)
                assert rec.type1_mult == min(oracle, rec.alg_mult), (lam, eta)
                assert classify_type(spec, rec, eta) == (rec.type1_mult, rec.type2_mult)


def _coincident(spec, eta, copies, rel=0.0):
    """spec with `copies` decoupled 1 x 1 blocks at one of its real finite
    values at eta (from scipy's eig of the linearization) moved by a
    relative rel: at rel = 0 the value gains type I multiplicity `copies`.
    None if no real value lies apart from the others."""
    n = spec.n
    eye, zero = np.eye(n), np.zeros((n, n))
    vals = sla.eig(np.block([[zero, eye], [spec.a, eta * spec.g]]),
                   np.block([[eye, zero], [zero, spec.m]]), right=False)
    vals = vals[np.isfinite(vals)]
    for lam in vals:
        gap = np.sort(np.abs(vals - lam))[1] if vals.size > 1 else np.inf
        if abs(lam.imag) <= 1e-12 and 0.05 <= abs(lam) <= 20.0 and gap > 1e-3:
            return support.with_decoupled_copies(spec, float(lam.real) * (1.0 + rel), copies)
    return None


_SINGULAR = {
    "identity_block": support.identity_block_spec,
    "mirror": support.mirror_singular_spec,
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_SINGULAR)), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 2),
       st.sampled_from([0.0, 1e-5, 1e-3]))
def test_vector_type1_matches_stacked_rank(kind, seed, eta, copies, rel):
    # singular M on the companion route (these specs take the modal route
    # unless A00 is singular, so it is called directly): it reads the type
    # split from each record's kernel vectors, which must give the stacked
    # rank's count.  copies > 0 adds decoupled copies of a real value (a
    # type I value on a type II value, or a double type I value) or, with
    # rel > 0, next to it, where the computed vectors are off ker G by
    # about eps / gap
    spec = _SINGULAR[kind](np.random.default_rng(seed))
    if copies:
        spec = _coincident(spec, eta, copies, rel) or spec
    assert not spec.m_definite
    res = pencil._companion_spectra(spec, [eta])[0]
    assert res.diagnostics["type1_from"] == "kernel_vectors"
    lams = [r.lam for r in res.records]
    ref = support.stacked_type1(spec, lams, eta, [r.spread for r in res.records])
    for rec, dim in zip(res.records, ref):
        assert rec.type1_mult == min(dim, rec.alg_mult), (rec.lam, rec.alg_mult, dim)
        assert classify_type(spec, rec, eta) == (rec.type1_mult, rec.type2_mult)


def test_vector_type1_multi_member_records():
    # a type I value on a type II value and a double type I value, each one
    # record of two members, plus the double type I values of a
    # three-copy mirror; and a type I value a relative 1e-4 from a type II
    # value, whose computed vector is off ker G by about 1e-12 and which
    # the rule alone would call type II (the stacked nullity decides it);
    # on the companion route, called directly
    seen = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for kind, copies, rel in (("identity_block", 1, 0.0), ("identity_block", 2, 0.0),
                                  ("mirror", 0, 0.0), ("identity_block", 1, 1e-4)):
            spec = _SINGULAR[kind](rng)
            spec = _coincident(spec, 0.7, copies, rel) if copies else spec
            if spec is None:
                continue
            res = pencil._companion_spectra(spec, [0.7])[0]
            ref = support.stacked_type1(spec, [r.lam for r in res.records], 0.7,
                                        [r.spread for r in res.records])
            for rec, dim in zip(res.records, ref):
                assert rec.type1_mult == min(dim, rec.alg_mult), (seed, kind, rec.lam)
                if rec.alg_mult > 1:
                    seen.add((rec.alg_mult, rec.geo_mult, rec.type1_mult))
    assert {(2, 2, 1), (2, 2, 2)} <= seen, seen


def test_companion_types_take_no_stacked_svd(monkeypatch):
    # the type split on the companion route reads the records' own kernel
    # vectors: no SVD of a stack of per-record matrices
    svd = np.linalg.svd

    def flat_only(a, *args, **kwargs):
        if np.ndim(a) > 2:
            raise AssertionError("batched SVD of shape %s" % (np.shape(a),))
        return svd(a, *args, **kwargs)

    rng = np.random.default_rng(3)
    specs = [fixtures.w1(), support.identity_block_spec(rng, n_max=12),
             support.mirror_singular_spec(rng)]
    monkeypatch.setattr(np.linalg, "svd", flat_only)
    for spec in specs:
        res = pencil._companion_spectra(spec, [0.8])[0]
        assert res.diagnostics["type1_from"] == "kernel_vectors"
        assert checks.run_all(spec, eta=0.8).all_pass


def test_spectrum_diagnostics():
    # W1's massless coordinate is eliminated; its value -1/eta comes from
    # the linear term alone (no coupled mode), which the secular solver
    # takes at any size
    res = spectrum(fixtures.w1(), 1.0)
    assert res.diagnostics == {"route": "modal", "type1_from": "modes", "coupled_modes": 0,
                               "coupled_solver": "secular", "eliminated": 1,
                               "discarded_infinite": 1}
    assert spectrum(fixtures.w2(), 1.0).diagnostics == {
        "route": "companion", "shift": choose_shift(fixtures.w2(), 1.0),
        "type1_from": "kernel_vectors", "type1_svd_fallbacks": 0, "discarded_infinite": 1}
    # on the companion route (called directly: the coupling sits on the
    # massive coordinate, and the modal route takes the spec) the value 0
    # lies in the zero band, so its record takes the stacked nullity's SVD;
    # the value eta b = 0.5 does not
    spec = PencilSpec(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert spectrum(spec, 0.5).diagnostics["eliminated"] == 1
    res = pencil._companion_spectra(spec, [0.5])[0]
    assert np.allclose([r.lam for r in res.records], [0.0, 0.5], rtol=0.0, atol=1e-12)
    assert res.diagnostics["type1_svd_fallbacks"] == 1
    prob = dataclasses.replace(fixtures.sl_double_q4(), n=12)
    res = spectrum(sturm.discretize(prob), 1.0)
    assert res.diagnostics == {"route": "modal", "type1_from": "modes",
                               "coupled_modes": 13, "coupled_solver": "eigvals",
                               "discarded_infinite": 0}
    prob = dataclasses.replace(fixtures.sl_double_q4(), n=47)
    assert spectrum(sturm.discretize(prob), 1.0).diagnostics == {
        "route": "modal", "type1_from": "modes", "coupled_modes": 48,
        "coupled_solver": "secular", "discarded_infinite": 0}
    # a dense G is typed by nothing
    spec = PencilSpec(np.diag([1.0, 0.0]), np.eye(2), np.eye(2))
    assert spectrum(spec, 0.5).diagnostics["type1_from"] == "unclassified"
    # the side channel takes no part in comparisons
    other = dataclasses.replace(res, diagnostics={})
    assert other == res


def test_batched_residuals_match_evaluate():
    for spec in _rank_one_specs():
        for eta in (0.3, 1.0):
            res = spectrum(spec, eta)
            for rec in res.records:
                if rec.alg_mult > 1:
                    continue
                v = rec.vectors[:, 0]
                ref = np.linalg.norm(evaluate(spec, rec.lam, eta) @ v)
                bound = 1e-12 * spec.scale * (1.0 + abs(rec.lam) ** 2)
                assert abs(rec.residual - ref) <= bound, rec.lam


def test_find_matches_brute_force_min():
    rng = np.random.default_rng(43)
    for spec in _rank_one_specs():
        res = spectrum(spec, 0.7)
        targets = [r.lam for r in res.records]
        targets += list(rng.normal(size=8) + 1j * rng.normal(size=8))
        for lam in targets:
            for tol in (None, 1e-3, 1.0):
                best = min(res.records, key=lambda r: abs(r.lam - lam))
                cut = 1e-6 * max(1.0, abs(lam)) if tol is None else tol
                expect = best if abs(best.lam - lam) <= cut else None
                assert res.find(lam, tol) is expect


_GENERATORS = {
    "random": lambda rng: support.rand_condition1_spec(rng),
    "kernel": lambda rng: support.kernel_engineered_spec(rng)[0],
    "mirror": support.mirror_spec,
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_GENERATORS)), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_modal_route_matches_linearization(kind, seed, eta):
    # M > 0 with an axis rank-one G: every record against scipy's eig of
    # the whole 2n linearization, types included
    spec = _GENERATORS[kind](np.random.default_rng(seed))
    res = spectrum(spec, eta)
    ref = support.linearization_records(spec, eta)
    assert res.discarded_infinite == 0
    assert len(res.records) == len(ref)
    ref_lams = np.array([r[0] for r in ref])
    for rec in res.records:
        j = int(np.argmin(np.abs(ref_lams - rec.lam)))
        assert abs(ref_lams[j] - rec.lam) <= 1e-9 * spec.scale, (rec.lam, ref[j])
        got = (rec.alg_mult, rec.geo_mult, rec.type1_mult, rec.type2_mult)
        lam, alg, geo, type1 = ref[j]
        assert got == (alg, geo, type1, alg - type1), (rec.lam, got, ref[j])


@pytest.mark.parametrize("w", [2e-6, 1e-5, 1e-4])
@pytest.mark.parametrize("eta", [0.3, 1.0])
def test_root_near_its_pole_has_a_small_residual(w, eta):
    # M = I and a mode coupled by w: one root lies about w^2 from the pole
    # sqrt(0.5), where w / (lam^2 - mu) carries lam's rounding times
    # 2 lam / (lam^2 - mu), a residual of about eps / w (1.5e-10 at
    # w = 2e-6); that entry taken from the secular equation keeps every
    # residual at rounding
    rot = np.eye(3)
    rot[:2, :2] = [[np.sqrt(1.0 - w * w), -w], [w, np.sqrt(1.0 - w * w)]]
    g = np.zeros((3, 3))
    g[0, 0] = 1.0
    spec = PencilSpec(np.eye(3), g, rot @ np.diag([2.0, 0.5, -1.0]) @ rot.T)
    res = spectrum(spec, eta)
    assert res.diagnostics["route"] == "modal"
    near = [r for r in res.records if abs(abs(r.lam) - np.sqrt(0.5)) <= 1e-6]
    assert len(near) == 2
    for rec in res.records:
        assert rec.residual <= 1e-14 * spec.scale * (1.0 + abs(rec.lam) ** 2), rec.lam


def _double_string(rng):
    """The q = 4 double string at n = 3, 12, 35 or 47: 4, 13, 36 and 48
    coupled modes, on both sides of the secular crossover."""
    n = int(rng.choice([3, 12, 35, 47]))
    return sturm.discretize(dataclasses.replace(fixtures.sl_double_q4(), n=n))


def _mirror_node(mass):
    """mirror_singular_spec with its coupled node's mass set: massless
    (0) or massive."""
    def make(rng):
        spec = support.mirror_singular_spec(rng)
        m = spec.m.copy()
        m[-1, -1] = mass
        return PencilSpec(m, spec.g, spec.a)
    return make


_SPECTRA_GENERATORS = dict(_GENERATORS, **{
    "copies": lambda rng: support.with_decoupled_copies(
        support.rand_condition1_spec(rng), float(rng.uniform(0.5, 2.0)), 2),
    "double": _double_string,
    "definite": support.rand_definite_spec,
    "singular": support.identity_block_spec,
    "w1": lambda rng: fixtures.w1(),
    "w2": lambda rng: fixtures.w2(),
    "shifts": lambda rng: _shift_split_spec(),
    "mirror_massless": _mirror_node(0.0),
    "mirror_massive": _mirror_node(1.5),
})


def _assert_same_records(got, want, scale, type1=True):
    """Every record of want has one in got at the same value (to 1e-9
    scale) with the same alg, geo and (unless type1 is False) type1, and
    there are no others."""
    assert len(got.records) == len(want.records)
    lams = np.array([r.lam for r in got.records])
    for rec in want.records:
        other = got.records[int(np.argmin(np.abs(lams - rec.lam)))]
        assert abs(other.lam - rec.lam) <= 1e-9 * scale, (rec.lam, other.lam)
        assert other.alg_mult == rec.alg_mult and other.geo_mult == rec.geo_mult, rec.lam
        assert not type1 or other.type1_mult == rec.type1_mult, rec.lam


def test_companion_route_keeps_close_simple_values_apart():
    # G of rank two keeps this spec on the companion route; at this eta the
    # type I value -sqrt(a) and a type II value lie 1.2e-6 apart, and
    # each is certain to far less
    a, c, eta = 1.6723696072969747, 2.381147154225888, 0.5480769230769231
    spec = PencilSpec(np.eye(3), np.diag([0.0, 1.0, 1.0]), np.diag([a, c, 30.0]))
    res = spectrum(spec, eta)
    assert res.diagnostics["route"] == "companion"
    near = [r for r in res.records if abs(r.lam + 1.2932019) <= 1e-5]
    truth = sorted([(eta - np.sqrt(eta * eta + 4.0 * c)) / 2.0, -np.sqrt(a)])
    assert [(r.alg_mult, r.geo_mult) for r in near] == [(1, 1), (1, 1)]
    for rec, lam in zip(near, truth):
        assert abs(rec.lam - lam) <= 1e-12
        assert abs(rec.lam - lam) <= rec.spread <= 1e-12


def _companion_against_modal(spec, eta):
    res = spectrum(spec, eta)
    assert res.diagnostics["route"] == "modal"
    _assert_same_records(pencil._companion_spectra(spec, [eta])[0], res, spec.scale)


@pytest.mark.parametrize("make, eta", [
    # two simple values 5e-7 apart, -0.8782653 and -0.8782648
    (lambda: support.mirror_spec(np.random.default_rng(72)), 0.3),
    # the type I pair +-2.3491282i
    (lambda: support.mirror_spec(np.random.default_rng(84)), 0.3),
    (lambda: support.mirror_spec(np.random.default_rng(84)), 0.7),
    (lambda: support.mirror_spec(np.random.default_rng(84)), 1.0),
    # the type I value -7.7876599 beside its type II mirror image
    (lambda: sturm.discretize(dataclasses.replace(fixtures.sl_double_q4(), n=12)), 0.0),
], ids=["mirror72", "mirror84-0.3", "mirror84-0.7", "mirror84-1", "double12"])
def test_companion_route_matches_modal_route(make, eta):
    _companion_against_modal(make(), eta)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["copies", "double", "kernel", "mirror", "random"]),
       st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_companion_route_matches_modal_route_on_random_specs(kind, seed, eta):
    # the M-definite axis rank-one generators: the companion route's disc
    # links give the modal route's records
    _companion_against_modal(_SPECTRA_GENERATORS[kind](np.random.default_rng(seed)), eta)


_ELIMINATED = {kind: _SPECTRA_GENERATORS[kind]
               for kind in ("mirror_massless", "mirror_massive")}
_ELIMINATED["identity_block"] = support.identity_block_spec


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_ELIMINATED)), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 2))
@example("mirror_massless", 130, 0.3, 0)
@example("mirror_massless", 11494, 0.3, 0)
@example("identity_block", 1011795785, 0.3, 1)
def test_eliminated_route_matches_companion_and_determinant(kind, seed, eta, copies):
    # M diagonal and singular, A00 invertible: the modal route eliminates
    # the massless coordinates.  Against the companion route: the values,
    # alg, geo and the infinite count.  Against the stacked rank at each
    # value, its spread the larger of its own and its distance from the
    # companion route's value: type I (seed 130's value -3355.7 at
    # eta = 0.3 has a unit vector 0.0066 off ker G, which the companion
    # route's own kernel-vector test, within its wide error disc there,
    # calls type I).  The companion route's value is certain only to its
    # spread: a simple value whose spread is wider than the tolerance is
    # taken from Newton's method on det L in mpmath, inside that disc
    # (seed 11494's value -10829.918459181 at eta = 0.3 is 2.9e-8 off on
    # the companion route, 5e-12 on the modal route);
    # identity blocks up to n = 7 without copies (no multiple values, which
    # the polynomial's roots split by sqrt(eps)), against the roots of the
    # Leibniz determinant.  copies > 0 adds decoupled copies of a real value
    spec = _ELIMINATED[kind](np.random.default_rng(seed))
    assume(pencil._massless_split(spec) is not None)
    if copies:
        spec = _coincident(spec, eta, copies) or spec
    _eliminated_against_references(spec, eta, kind == "identity_block" and not copies)


def _eliminated_against_references(spec, eta, simple):
    """The modal route's spectrum of a spec with massless coordinates
    against the companion route (values in its discs, alg, geo and the
    infinite count), the stacked rank (type I) and, when simple and
    n <= 7, the roots of the Leibniz determinant; returns it."""
    res = spectrum(spec, eta)
    assert res.diagnostics["route"] == "modal"
    assert res.diagnostics["eliminated"] == np.count_nonzero(np.diag(spec.m) == 0.0)
    ref = pencil._companion_spectra(spec, [eta])[0]
    assert res.discarded_infinite == ref.discarded_infinite
    refined = []
    for rec in ref.records:
        if rec.alg_mult == 1 and rec.spread > 1e-9 * spec.scale:
            lam = support.mp_newton_value(spec, eta, rec.lam)
            assert abs(lam - rec.lam) <= rec.spread, (rec.lam, lam)
            rec = dataclasses.replace(rec, lam=lam)
        refined.append(rec)
    ref = dataclasses.replace(ref, records=refined)
    _assert_same_records(res, ref, spec.scale, type1=False)
    lams = np.array([r.lam for r in res.records])
    ref_lams = np.array([r.lam for r in ref.records])
    gaps = np.abs(lams[:, None] - ref_lams[None, :]).min(axis=1)
    dims = support.stacked_type1(spec, lams, eta,
                                 np.maximum([r.spread for r in res.records], gaps))
    for rec, dim in zip(res.records, dims):
        assert rec.type1_mult == min(dim, rec.alg_mult), (rec.lam, dim)
        assert rec.residual <= 1e-10 * spec.scale * (1.0 + abs(rec.lam) ** 2), rec.lam
    if simple and spec.n <= 7:
        roots = support.poly_roots(support.det_poly_coeffs(spec, eta))
        assert support.max_pair_distance(support.expand_records(res), roots) <= 1e-6 * spec.scale
    return res


def _mixed_coupling_spec(rng):
    """identity_block_spec's M and A with G = b g g^T, g a random unit
    vector with a massless part and a massive part, each of one to all of
    its coordinates."""
    spec = support.identity_block_spec(rng)
    g = np.zeros(spec.n)
    for part in (np.flatnonzero(np.diag(spec.m)), np.flatnonzero(np.diag(spec.m) == 0.0)):
        pick = rng.choice(part, int(rng.integers(1, part.size + 1)), replace=False)
        g[pick] = rng.normal(size=pick.size)
    g /= np.linalg.norm(g)
    return PencilSpec(spec.m, float(rng.uniform(0.5, 2.0)) * np.outer(g, g), spec.a)


_ROTATED = {"rand": support.rand_condition1_spec, "mirror": support.mirror_spec,
            "kernel": lambda rng: support.kernel_engineered_spec(rng)[0]}


def _statuses(spec, eta, res):
    return [(c.name, c.status) for c in checks.run_all(spec, eta, res).checks]


def _types(res):
    return sorted((r.alg_mult, r.geo_mult, r.type1_mult) for r in res.records)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_ROTATED) + ["mixed"]), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2))
@example("mirror", 84, 0.3, 0)
@example("mixed", 7, 0.3, 1)
def test_rank_one_coupling_in_any_direction(kind, seed, eta, copies):
    # G = b g g^T takes the modal route whatever the direction of g.  A
    # rotated copy Q^T (M, G, A) Q of an axis spec with M definite: the
    # same values (to 1e-10 of the largest), the same alg, geo and type1
    # and the same check statuses.  A g with massless and massive parts
    # on a singular diagonal M: the companion route, the stacked rank and
    # the Leibniz determinant, and every check passes.  copies > 0 adds
    # decoupled copies of a real value
    rng = np.random.default_rng(seed)
    spec = _mixed_coupling_spec(rng) if kind == "mixed" else _ROTATED[kind](rng)
    assume(spec.m_definite or pencil._massless_split(spec) is not None)
    if copies:
        spec = _coincident(spec, eta, copies) or spec
    if kind == "mixed":
        res = _eliminated_against_references(spec, eta, not copies)
        assert checks.run_all(spec, eta, res).all_pass
        return
    rot = support.rotated_spec(spec, rng)
    res, want = spectrum(rot, eta), spectrum(spec, eta)
    assert res.diagnostics["route"] == "modal" and res.diagnostics["type1_from"] == "modes"
    assert _types(res) == _types(want)
    lams = support.expand_records(want)
    dist = support.max_pair_distance(support.expand_records(res), lams)
    assert dist <= 1e-10 * max(1.0, np.max(np.abs(lams), initial=0.0)), dist
    assert _statuses(rot, eta, res) == _statuses(spec, eta, want)


def _ill_conditioned_a00(tiny, theta):
    """Two massless coordinates, the first the coupling axis, whose
    A00 = R diag(1, tiny) R^T (R a rotation by theta) is within a factor
    of the gate's 1e-8 ||A|| margin; A01 lies along A00's well-conditioned
    eigenvector, so ||A00^-1 A01|| stays small."""
    r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    a01 = np.outer(r[:, 0], [0.3, -0.2, 0.5])
    a = np.block([[r @ np.diag([1.0, tiny]) @ r.T, a01],
                  [a01.T, np.diag([2.0, -1.0, 3.0]) + 0.1]])
    g = np.zeros((5, 5))
    g[0, 0] = 1.0
    return PencilSpec(np.diag([0.0, 0.0, 1.0, 2.0, 1.5]), g, a)


@pytest.mark.parametrize("theta", [0.3, 1e-3])
@pytest.mark.parametrize("eta", [0.3, 1.0])
@pytest.mark.parametrize("copies", [0, 2])
def test_eliminated_route_with_ill_conditioned_a00(theta, eta, copies):
    # cond(A00) = 2e7: the values against Newton's method on det L in
    # mpmath, the records against the companion route.  The residuals
    # (about 5e-11 here, 6e-11 on the companion route) carry that cond
    spec = _ill_conditioned_a00(5e-8, theta)
    assert pencil._massless_split(spec)[2] >= 1e7
    if copies:
        spec = _coincident(spec, eta, copies)
    res = spectrum(spec, eta)
    assert res.diagnostics["route"] == "modal"
    ref = pencil._companion_spectra(spec, [eta])[0]
    assert res.discarded_infinite == ref.discarded_infinite
    _assert_same_records(res, ref, spec.scale)
    for rec in res.records:
        if rec.alg_mult == 1:
            lam = support.mp_newton_value(spec, eta, rec.lam)
            assert abs(lam - rec.lam) <= 1e-12 * spec.scale, (rec.lam, lam)
        assert rec.residual <= 1e-10 * spec.scale * (1.0 + abs(rec.lam) ** 2), rec.lam


def test_eliminated_route_at_tiny_eta():
    # W1's value -1/eta is the root of the linear term 1 + eta lam: kept
    # while 16 eta <= eps fails, then escaped to infinity (_at_poles)
    for eta, want in ((1e-12, [-1e12, -1.0, 1.0]), (1e-15, [-1e15, -1.0, 1.0]),
                      (1e-17, [-1.0, 1.0]), (1e-308, [-1.0, 1.0])):
        res = spectrum(fixtures.w1(), eta)
        assert np.allclose([r.lam for r in res.records], want, rtol=1e-15, atol=0.0)
        assert res.discarded_infinite == 4 - len(want)
    # the linear term's root, from finite to escaped: every eta gives
    # small residuals and 2n values in all
    etas = [0.0, 5e-324, 1e-200, 1e-20, 1e-16, 1e-12, 1e-9, 1e-5, 0.3]
    for seed in range(8):
        spec = support.identity_block_spec(np.random.default_rng(seed), n_max=12)
        for res in pencil.spectra(spec, etas):
            assert res.diagnostics["route"] == "modal"
            assert res.n_finite + res.discarded_infinite == 2 * spec.n
            for rec in res.records:
                assert np.isfinite(rec.lam)
                assert rec.residual <= 1e-10 * spec.scale * (1.0 + abs(rec.lam) ** 2)


_S1 = pencil._SHIFTS[1]


def _shift_split_spec():
    """M = diag(1, 1, 0), G = diag(0, 1, 1) (rank two, so the companion
    route) and A = diag(0, s1^2 - s1 / 2, 1), s1 the second shift of the
    ladder: L(s1, eta) is singular at eta = 0.5 only, so the shift is s1 at
    eta = 0.3 and 0.7 and the next one at 0.5.  The values are a double 0,
    -1/eta, one infinite value and the roots of lam^2 - eta lam - A_11,
    nonreal at eta = 0.3 and real at 0.5 and 0.7."""
    return PencilSpec(np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 1.0, 1.0]),
                      np.diag([0.0, _S1 ** 2 - 0.5 * _S1, 1.0]))


def _bits(res):
    """Everything a SpectrumResult holds, floats by repr (exact, and -0.0
    apart from 0.0) and vectors by their bytes."""
    return (repr(res.eta), res.n_finite, res.discarded_infinite, repr(res.scale),
            repr(res.diagnostics),
            [(repr(r.lam), r.alg_mult, r.geo_mult, r.type1_mult, r.type2_mult,
              repr(r.residual), r.zero_flagged, r.types_classified, repr(r.spread),
              r.vectors.shape, r.vectors.dtype, r.vectors.tobytes())
             for r in res.records])


def _outcome(solve):
    """solve(), or the type and message of the GyropencilError it raises."""
    try:
        return solve()
    except GyropencilError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_SPECTRA_GENERATORS)), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([0.0, 1e-9, 0.3, 0.6, 1.0]) | st.floats(0.0, 1.0),
                min_size=1, max_size=10),
       st.sampled_from([1, 300, 3000, pencil._BATCH_ELEMENTS]),
       st.sampled_from([None, 0, 10**9]))
@example("kernel", 7, [0.0, 0.5, 0.0, 1.0], 300, None)
@example("double", 1, [0.0, 1e-9, 0.3, 1.0, 0.6], 3000, None)
@example("w1", 0, [0.5, 1.0, 0.75, 0.9, 1.0], pencil._BATCH_ELEMENTS, None)
@example("w2", 0, [0.0, 0.5, 1.0], pencil._BATCH_ELEMENTS, None)
@example("shifts", 0, [0.3, 0.5, 0.7], pencil._BATCH_ELEMENTS, None)
@example("singular", 3, [0.3, 0.0, 1e-20, 1e-9, 1.0], 300, None)
@example("mirror_massless", 5, [1e-20, 0.7, 1e-9, 0.0, 1.0], pencil._BATCH_ELEMENTS, 0)
@example("mirror_massive", 5, [0.7, 0.0, 1.0], pencil._BATCH_ELEMENTS, None)
def test_spectra_match_spectrum_bitwise(kind, seed, etas, budget, crossover):
    # eta = 0 puts the coupled values on their poles, the kernel specs hold
    # values in the zero band, a small element budget makes chunks end
    # inside the list, and a crossover moved to 0 or past every m sends
    # every spec to the secular solver or to eigvals
    spec = _SPECTRA_GENERATORS[kind](np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pencil, "_BATCH_ELEMENTS", budget)
        if crossover is not None:
            mp.setattr(pencil, "_SECULAR_MIN_M", crossover)
        got = _outcome(lambda: [_bits(r) for r in pencil.spectra(spec, etas)])
        want = _outcome(lambda: [_bits(spectrum(spec, eta)) for eta in etas])
    assert got == want


def test_companion_shift_per_eta():
    # one stack of etas with two shifts: each eta keeps its own
    spec = _shift_split_spec()
    etas = [0.3, 0.5, 0.7]
    shifts = [r.diagnostics["shift"] for r in pencil.spectra(spec, etas)]
    assert shifts == [_S1, pencil._SHIFTS[2], _S1] == [choose_shift(spec, e) for e in etas]
    for eta in etas:
        assert spectrum(spec, eta).diagnostics["shift"] == choose_shift(spec, eta)


@pytest.mark.parametrize("etas", [[0.3, 0.7, 0.5], [0.3, 0.5, 0.7], [0.7, 0.5], [0.5, 0.3]])
@pytest.mark.parametrize("budget", [1, pencil._BATCH_ELEMENTS])
def test_companion_spectra_fail_at_the_first_failing_eta(monkeypatch, etas, budget):
    # s1 leaves L(s1, 0.5) exactly singular, so the stacked solve fails
    # there (a LinAlgError, raised as NoConvergence); eta = 0.7 has no
    # shift.  The batch raises what the first failing eta raises alone
    spec = _shift_split_spec()

    def shift(spec, eta):
        if eta == 0.7:
            raise ShiftExhausted("no candidate shift regularizes L(sigma, eta=0.7)")
        return _S1

    monkeypatch.setattr(pencil, "choose_shift", shift)
    monkeypatch.setattr(pencil, "_BATCH_ELEMENTS", budget)
    first = {0.5: (NoConvergence, "solve failed: Singular matrix"),
             0.7: (ShiftExhausted, "no candidate shift regularizes L(sigma, eta=0.7)")}
    want = first[next(eta for eta in etas if eta in first)]
    assert _outcome(lambda: pencil.spectra(spec, etas)) == want
    assert _outcome(lambda: [spectrum(spec, eta) for eta in etas]) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_GENERATORS) + ["definite"]),
       st.integers(0, 2**32 - 1))
def test_ker_ma_shortcut_matches_rank(kind, seed):
    # M definite answers ker M ∩ ker A = {0} without the rank SVD
    rng = np.random.default_rng(seed)
    spec = (support.rand_definite_spec(rng) if kind == "definite"
            else _GENERATORS[kind](rng))
    assert spec.m_definite
    rank = linalg.rank_with_tol(np.vstack([spec.m, spec.a]))
    assert spec.ker_ma_trivial == (rank == spec.n)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_SPECTRA_GENERATORS)), st.integers(0, 2**32 - 1))
@example("kernel", 7)
def test_kernel_dim_matches_rank(kind, seed):
    # dim ker A counts A's eigenvalues within the rank cutoff 1e-8 ||A||:
    # the verdict of the rank SVD of A at that cutoff
    spec = _SPECTRA_GENERATORS[kind](np.random.default_rng(seed))
    for s in (spec, fixtures.w1(), fixtures.w2(), fixtures.w3(),
              _double_string(np.random.default_rng(seed))):
        na = max(s.norm_a, np.finfo(float).tiny)
        assert s.kernel_dims[0] == s.n - linalg.rank_with_tol(s.a, tol=1e-8 * na)


def test_ker_ma_rank_runs_only_for_singular_mass(monkeypatch):
    for spec in (fixtures.w1(), fixtures.w2()):
        assert not spec.m_definite
        rank = linalg.rank_with_tol(np.vstack([spec.m, spec.a]))
        assert spec.ker_ma_trivial == (rank == spec.n)
    # a common kernel vector of M and A
    spec = PencilSpec(np.diag([1.0, 0.0]), np.eye(2), np.diag([2.0, 0.0]),
                      validate=False)
    assert not spec.ker_ma_trivial

    def no_rank(mat, tol=0.0):
        raise AssertionError("rank SVD on a definite M")

    spec = support.rand_definite_spec(np.random.default_rng(5))
    monkeypatch.setattr(linalg, "rank_with_tol", no_rank)
    assert spec.ker_ma_trivial


def test_joint_kernel_svd_skipped_only_above_margin(monkeypatch):
    # conftest checks the clause against the SVD on every spec a test
    # builds; here: which specs take the SVD
    shapes = []
    rank = linalg.rank_with_tol

    def counted(mat, tol=0.0):
        shapes.append(np.shape(mat))
        return rank(mat, tol)

    monkeypatch.setattr(linalg, "rank_with_tol", counted)
    spec = support.rand_definite_spec(np.random.default_rng(7))
    assert spec.condition_report.all_pass and shapes == []
    # lambda_min(M) = 1e-9 ||M|| and ||A|| = 1e12 ||M||: M is definite, but
    # lambda_min(M) does not clear 6n eps ||[M; G; A]||, so the SVD decides
    spec = PencilSpec(np.diag([1.0, 1e-9]), np.zeros((2, 2)), np.diag([1e12, -1e12]))
    assert spec.m_definite and spec.condition_report.all_pass
    assert shapes == [(6, 2)]


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12), st.sampled_from([4.0, 2.3]), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_double_string_spectrum_permutation_invariant(n, q, seed, eta):
    prob = dataclasses.replace(fixtures.sl_double_q4(), n=n, q_value=q)
    spec = sturm.discretize(prob)
    perm = np.random.default_rng(seed).permutation(spec.n)
    base = spectrum(spec, eta)
    moved = spectrum(support.permuted_spec(spec, perm), eta)
    assert len(moved.records) == len(base.records)
    for rec in base.records:
        other = min(moved.records, key=lambda r: abs(r.lam - rec.lam))
        assert abs(other.lam - rec.lam) <= 1e-9 * spec.scale, rec.lam
        assert ((other.alg_mult, other.geo_mult, other.type1_mult, other.type2_mult)
                == (rec.alg_mult, rec.geo_mult, rec.type1_mult, rec.type2_mult)), rec.lam


def test_run_sl_solves_the_modes_once(monkeypatch):
    # three spectra of one double string: one eigh(A, M), no full companion
    calls = {"eigen_standard": 0, "eigh": 0}
    eigen_standard, eigh = linalg.eigen_standard, sla.eigh

    def counted_eigen_standard(mat):
        calls["eigen_standard"] += 1
        return eigen_standard(mat)

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(linalg, "eigen_standard", counted_eigen_standard)
    monkeypatch.setattr(sla, "eigh", counted_eigh)
    prob = dataclasses.replace(fixtures.sl_double_q4(), n=12)
    rep = checks.run_sl(prob)
    assert rep.all_pass
    assert calls == {"eigen_standard": 0, "eigh": 1}

    # above the crossover the coupled values come from the secular equation
    # and the records from the modal structure: no dense eigensolve, no
    # companion grouping and no kernel SVD
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError("%s on the modal route" % name)
        return call

    monkeypatch.setattr(np.linalg, "eig", forbidden("eig"))
    monkeypatch.setattr(np.linalg, "eigvals", forbidden("eigvals"))
    monkeypatch.setattr(sla, "svd", forbidden("svd"))
    monkeypatch.setattr(pencil, "_companion_records", forbidden("_companion_records"))
    prob = dataclasses.replace(fixtures.sl_double_q4(), n=40)
    assert pencil._modes(sturm.discretize(prob)).cpl.size >= pencil._SECULAR_MIN_M
    calls["eigh"] = 0
    rep = checks.run_sl(prob)
    assert rep.all_pass
    assert calls == {"eigen_standard": 0, "eigh": 1}


# (value, alg, geo, type1, type2) per record of W1 and W2 at eta = 0, 0.1,
# ..., 1, recorded from the reduced-ladder typing these singular-M pencils
# had before the stacked rank alone typed them
_W1_RECORDS = [
    [(-1.0, 1, 1, 1, 0), (1.0, 1, 1, 1, 0)],
    [(-10.0, 1, 1, 0, 1), (-1.0, 1, 1, 1, 0), (1.0, 1, 1, 1, 0)],
    [(-5.0, 1, 1, 0, 1), (-1.0, 1, 1, 1, 0), (1.0, 1, 1, 1, 0)],
    [(-3.333333, 1, 1, 0, 1), (-1.0, 1, 1, 1, 0), (1.0, 1, 1, 1, 0)],
    [(-2.5, 1, 1, 0, 1), (-1.0, 1, 1, 1, 0), (1.0, 1, 1, 1, 0)],
    [(-2.0, 1, 1, 0, 1), (-1.0, 1, 1, 1, 0), (1.0, 1, 1, 1, 0)],
    [(-1.666667, 1, 1, 0, 1), (-1.0, 1, 1, 1, 0), (1.0, 1, 1, 1, 0)],
    [(-1.428571, 1, 1, 0, 1), (-1.0, 1, 1, 1, 0), (1.0, 1, 1, 1, 0)],
    [(-1.25, 1, 1, 0, 1), (-1.0, 1, 1, 1, 0), (1.0, 1, 1, 1, 0)],
    [(-1.111111, 1, 1, 0, 1), (-1.0, 1, 1, 1, 0), (1.0, 1, 1, 1, 0)],
    [(-1.0, 2, 2, 1, 1), (1.0, 1, 1, 1, 0)],
]
_W2_RECORDS = [
    [],
    [(-2.154435, 1, 1, 0, 1), (1.077217 - 1.865795j, 1, 1, 0, 1),
     (1.077217 + 1.865795j, 1, 1, 0, 1)],
    [(-1.709976, 1, 1, 0, 1), (0.854988 - 1.480883j, 1, 1, 0, 1),
     (0.854988 + 1.480883j, 1, 1, 0, 1)],
    [(-1.493802, 1, 1, 0, 1), (0.746901 - 1.29367j, 1, 1, 0, 1),
     (0.746901 + 1.29367j, 1, 1, 0, 1)],
    [(-1.357209, 1, 1, 0, 1), (0.678604 - 1.175377j, 1, 1, 0, 1),
     (0.678604 + 1.175377j, 1, 1, 0, 1)],
    [(-1.259921, 1, 1, 0, 1), (0.629961 - 1.091124j, 1, 1, 0, 1),
     (0.629961 + 1.091124j, 1, 1, 0, 1)],
    [(-1.185631, 1, 1, 0, 1), (0.592816 - 1.026787j, 1, 1, 0, 1),
     (0.592816 + 1.026787j, 1, 1, 0, 1)],
    [(-1.126248, 1, 1, 0, 1), (0.563124 - 0.975359j, 1, 1, 0, 1),
     (0.563124 + 0.975359j, 1, 1, 0, 1)],
    [(-1.077217, 1, 1, 0, 1), (0.538609 - 0.932898j, 1, 1, 0, 1),
     (0.538609 + 0.932898j, 1, 1, 0, 1)],
    [(-1.035744, 1, 1, 0, 1), (0.517872 - 0.896981j, 1, 1, 0, 1),
     (0.517872 + 0.896981j, 1, 1, 0, 1)],
    [(-1.0, 1, 1, 0, 1), (0.5 - 0.866025j, 1, 1, 0, 1),
     (0.5 + 0.866025j, 1, 1, 0, 1)],
]


@pytest.mark.parametrize("spec, expect", [(fixtures.w1(), _W1_RECORDS),
                                          (fixtures.w2(), _W2_RECORDS)],
                         ids=["W1", "W2"])
def test_singular_mass_types_over_eta(spec, expect):
    # W1 takes the modal route (its massless coordinate eliminated), W2
    # (A00 = 0) the companion route; both give the types the reduced
    # ladder gave
    route = "modal" if spec.a[1, 1] else "companion"
    for k, records in enumerate(expect):
        res = spectrum(spec, k / 10.0)
        assert res.diagnostics["route"] == route
        got = [(rec.lam, rec.alg_mult, rec.geo_mult, rec.type1_mult, rec.type2_mult)
               for rec in res.records]
        assert len(got) == len(records), k
        for (lam, *mults), (ref, *ref_mults) in zip(got, records):
            assert abs(lam - ref) <= 1e-6, (k, lam, ref)
            assert mults == ref_mults, (k, lam)


def test_diagonal_matrix_eigenvalues_skip_eigvalsh(monkeypatch):
    # eigvalsh of a diagonal matrix is exactly its sorted diagonal
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 101, 161):
        mat = np.diag(rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3))
        diag = pencil._diagonal(mat)
        assert np.array_equal(pencil._eigvalsh(mat, diag),
                              sla.eigvalsh(mat, check_finite=False))
    dense = np.eye(4)
    dense[0, 3] = dense[3, 0] = 1e-300
    assert pencil._diagonal(dense) is None
    assert pencil._diagonal(np.eye(3, dtype=complex)) is None

    # a double string: M and G are diagonal, so only A takes an eigvalsh
    calls = []
    eigvalsh = sla.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(sla, "eigvalsh", counted)
    spec = sturm.discretize(dataclasses.replace(fixtures.sl_double_q4(), n=12))
    assert len(calls) == 1
    assert spec.m_diag is not None and spec.g_rows.tolist() == [spec.n - 1]
    assert np.array_equal(spec.rank_one.g, np.eye(spec.n)[-1])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_GENERATORS) + ["single", "double", "dense"]),
       st.integers(0, 2**32 - 1))
def test_kappa_a_from_modes_matches_cholesky_count(kind, seed):
    # "dense" has a dense definite G, which takes eigvalsh(A, M)
    rng = np.random.default_rng(seed)
    if kind == "dense":
        spec = support.rand_definite_spec(rng)
    elif kind in ("single", "double"):
        q = tuple(float(x) for x in rng.uniform(-20.0, 20.0, size=12))
        spec = sturm.discretize(sturm.SLProblem(
            variant=kind, q_kind="sampled", q_values=q, a=np.pi,
            alpha=float(rng.uniform(0.3, 2.0)), n=11))
    else:
        spec = _GENERATORS[kind](rng)
    assert pencil.count_negative_modes(spec) == support.cholesky_kappa(spec)
