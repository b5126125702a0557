import dataclasses

import numpy as np
import pytest

from gyropencil import sturm
from gyropencil.errors import InvalidInput
from gyropencil.pencil import count_negative_modes, spectrum, validate_condition_I
from gyropencil.linalg import smallest_singular_value

import support


def test_hand_assembled_single_stencil():
    # q=0, a=1, n=3: h=1/4, free Neumann-type end at the last node
    p = sturm.SLProblem(variant="single", q_kind="const", q_value=0.0,
                        a=1.0, alpha=0.7, n=3)
    spec = sturm.discretize(p)
    a_expect = 4.0 * np.array([
        [2.0, -1.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, -1.0, 1.0],
    ])
    assert np.allclose(spec.a, a_expect, atol=1e-12)
    assert np.allclose(np.diag(spec.m), [0.25, 0.25, 0.25, 0.125])
    assert np.allclose(spec.m, np.diag(np.diag(spec.m)))
    g_expect = np.zeros((4, 4))
    g_expect[3, 3] = 0.7
    assert np.allclose(spec.g, g_expect)
    assert spec.rank_one is not None
    assert np.array_equal(spec.rank_one.g, np.eye(4)[3])


@pytest.mark.parametrize("n", [2, 3, 5, 30])
@pytest.mark.parametrize("q", [
    dict(q_kind="const", q_value=0.0),
    dict(q_kind="const", q_value=4.0),        # resonant at a = pi: snapped
    dict(q_kind="const", q_value=2.5),        # negative q, not resonant
    dict(q_kind="const", q_value=-2.5),
    dict(q_kind="sampled", q_values=None),
], ids=["zero", "resonant", "nonresonant", "positive", "sampled"])
def test_double_stiffness_matches_loop(n, q):
    # the array assembly reproduces the node-by-node loop bit for bit
    if q["q_kind"] == "sampled":
        q = dict(q, q_values=tuple(np.random.default_rng(n).normal(size=n + 1)))
    p = sturm.SLProblem(variant="double", a=float(np.pi), alpha=1.0, n=n,
                        paper_sign_convention=True, **q)
    assert sturm.discretize(p).a.tobytes() == \
        support.double_stiffness_loop(p).tobytes()


def test_potential_enters_through_mass_weights():
    n = 6
    rng = np.random.default_rng(5)
    qs = tuple(rng.uniform(-3.0, 3.0, size=n + 1))
    p0 = sturm.SLProblem(variant="single", q_kind="const", q_value=0.0,
                         a=2.0, alpha=1.0, n=n)
    ps = sturm.SLProblem(variant="single", q_kind="sampled", q_values=qs,
                         a=2.0, alpha=1.0, n=n)
    base = sturm.discretize(p0)
    spec = sturm.discretize(ps)
    w = np.diag(base.m)
    assert np.allclose(spec.a - base.a, np.diag(np.array(qs) * w), atol=1e-12)


def test_sampled_const_agree():
    n = 8
    pc = sturm.SLProblem(variant="single", q_kind="const", q_value=1.5,
                         a=1.0, alpha=0.3, n=n)
    ps = sturm.SLProblem(variant="single", q_kind="sampled",
                         q_values=(1.5,) * (n + 1), a=1.0, alpha=0.3, n=n)
    sc = sturm.discretize(pc)
    ss = sturm.discretize(ps)
    assert np.allclose(sc.a, ss.a)
    assert np.allclose(sc.m, ss.m)
    assert np.allclose(sc.g, ss.g)


def test_paper_sign_convention_negates_q():
    pa = sturm.SLProblem(variant="single", q_kind="const", q_value=4.0,
                         a=np.pi, alpha=1.0, n=12, paper_sign_convention=True)
    pb = sturm.SLProblem(variant="single", q_kind="const", q_value=-4.0,
                         a=np.pi, alpha=1.0, n=12)
    assert np.allclose(sturm.discretize(pa).a, sturm.discretize(pb).a)
    assert np.allclose(sturm.effective_q(pa), -4.0)


def test_discretizations_satisfy_condition_one():
    rng = np.random.default_rng(41)
    for variant in ("single", "double"):
        qs = tuple(rng.uniform(-10.0, 10.0, size=13))
        p = sturm.SLProblem(variant=variant, q_kind="sampled", q_values=qs,
                            a=1.7, alpha=0.8, n=12)
        spec = sturm.discretize(p)
        assert validate_condition_I(spec).all_pass


def test_dirichlet_neumann_count_positive_potential():
    # analytic eigenvalues (k + 1/2)^2 + 4 are all positive
    p = sturm.SLProblem(variant="single", q_kind="const", q_value=4.0,
                        a=np.pi, alpha=1.0, n=400)
    spec = sturm.discretize(p)
    assert count_negative_modes(spec) == 0


def test_double_shape():
    p = sturm.SLProblem(variant="double", q_kind="const", q_value=0.0,
                        a=1.0, alpha=0.9, n=5)
    spec = sturm.discretize(p)
    n_total = 2 * 5 + 1
    assert spec.n == n_total
    assert np.allclose(spec.a, spec.a.T)
    h = 1.0 / 6.0
    assert np.allclose(np.diag(spec.m), h)
    assert np.array_equal(spec.rank_one.g, np.eye(n_total)[-1])
    g_expect = np.zeros((n_total, n_total))
    g_expect[-1, -1] = 0.9
    assert np.allclose(spec.g, g_expect)


def test_omega_closed_form_zeros():
    assert abs(sturm.omega(0.0, 4.0, np.pi, 1.0)) <= 1e-12
    root3 = complex(0.0, np.sqrt(3.0))
    assert abs(sturm.omega(root3, 4.0, np.pi, 1.0)) <= 1e-12
    assert abs(sturm.omega(np.sqrt(5.0), 4.0, np.pi, 1.0)) <= 1e-12


def test_omega_removable_singularity():
    # lambda^2 + q = 0: sinc factor -> a, cosine term -> 2
    a, alpha = 1.3, 0.6
    exact = a * (2.0 + alpha * 1.0 * a)
    assert sturm.omega(1.0, -1.0, a, alpha) == pytest.approx(exact, rel=1e-12)
    near = sturm.omega(1.0 + 1e-9, -1.0, a, alpha)
    assert abs(near - exact) <= 1e-6


def test_omega_conjugate_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(10):
        lam = complex(rng.normal(), rng.normal())
        w1 = sturm.omega(lam, 2.0, 1.5, 0.8)
        w2 = sturm.omega(np.conj(lam), 2.0, 1.5, 0.8)
        assert abs(np.conj(w1) - w2) <= 1e-12 * max(1.0, abs(w1))


def test_type1_lambdas_resonant_listing():
    values, degenerate = sturm.type1_lambdas(4.0, np.pi, 4)
    assert degenerate == [2]
    expect = [
        complex(0.0, np.sqrt(3.0)), complex(0.0, -np.sqrt(3.0)),
        0.0 + 0.0j,
        complex(np.sqrt(5.0)), complex(-np.sqrt(5.0)),
        complex(np.sqrt(12.0)), complex(-np.sqrt(12.0)),
    ]
    assert support.max_pair_distance(values, expect) <= 1e-12
    with pytest.raises(InvalidInput):
        sturm.type1_lambdas(4.0, np.pi, 0)


def test_shoot_matches_constant_coefficient_form():
    p = sturm.SLProblem(variant="single", q_kind="const", q_value=0.0,
                        a=1.0, alpha=1.0, n=150)
    for lam in (0.3, 1.7, 4.0, complex(0.5, 1.2), complex(-2.0, 0.4)):
        got = sturm.shoot_charfn(lam, p)
        want = np.cos(lam) + np.sin(lam)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_shoot_general_constant_q():
    q, a, alpha = 2.0, 1.4, 0.5
    p = sturm.SLProblem(variant="single", q_kind="const", q_value=q,
                        a=a, alpha=alpha, n=200)
    for lam in (1.0, 3.0, complex(0.7, 0.9)):
        k = np.sqrt(complex(lam) ** 2 - q)
        want = np.cos(k * a) + lam * alpha * np.sin(k * a) / k
        got = sturm.shoot_charfn(lam, p)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_shoot_alpha_zero_neumann_zeros():
    p = sturm.SLProblem(variant="single", q_kind="const", q_value=0.0,
                        a=2.0, alpha=0.0, n=150)
    for k in range(3):
        lam = (k + 0.5) * np.pi / 2.0
        assert abs(sturm.shoot_charfn(lam, p)) <= 1e-8


def _shoot_problems(n):
    rng = np.random.default_rng(n)
    qs = tuple(rng.uniform(-10.0, 10.0, size=n + 1))
    return [
        sturm.SLProblem(variant="single", q_kind="const", q_value=-4.0,
                        a=np.pi, alpha=1.0, n=n),
        sturm.SLProblem(variant="single", q_kind="sampled", q_values=qs,
                        a=1.7, alpha=0.8, n=n),
        sturm.SLProblem(variant="single", q_kind="const", q_value=2.0,
                        a=2.0, alpha=0.0, n=n),
    ]


@pytest.mark.parametrize("n", [12, 150, 2000])
def test_shoot_matches_rk4_loop(n):
    # the transfer-matrix product against the step-by-step RK4 loop, over
    # batch sizes that give one block of many steps down to one step per
    # block; the loop's values do not depend on the batch, so one
    # reference call covers every batch
    rng = np.random.default_rng(n + 1)
    sizes = (0, 1, 8, 300, 3000)
    pts = rng.uniform(-8.0, 8.0, sum(sizes) + 13) + 1j * rng.uniform(-2.0, 2.0, sum(sizes) + 13)
    for p in _shoot_problems(n):
        want = support.shoot_rk4_reference(pts, p)
        tol = 1e-11 * np.maximum(1.0, np.abs(want))
        start = 0
        for size in sizes:
            got = sturm.shoot_charfn(pts[start:start + size], p)
            assert got.shape == (size,)
            assert np.all(np.abs(got - want[start:start + size]) <= tol[start:start + size])
            start += size
        got = sturm.shoot_charfn(pts[start:start + 12].reshape(3, 4), p)
        assert got.shape == (3, 4)
        assert np.all(np.abs(got.ravel() - want[start:start + 12]) <= tol[start:start + 12])
        got = sturm.shoot_charfn(pts[-1], p)
        assert type(got) is complex
        assert abs(got - want[-1]) <= tol[-1]


def test_shoot_empty_batch():
    p = _shoot_problems(12)[1]
    with np.errstate(all="raise"):
        got = sturm.shoot_charfn(np.zeros(0, dtype=complex), p)
    assert got.shape == (0,) and got.dtype == complex


def test_single_eigenvalue_convergence_order():
    # first few discrete eigenvalues approach tan(lambda) = -1 roots
    # at second order in h
    targets = np.array([-np.pi / 4.0, 3.0 * np.pi / 4.0])
    errs = []
    for n in (40, 80, 160):
        p = sturm.SLProblem(variant="single", q_kind="const", q_value=0.0,
                            a=1.0, alpha=1.0, n=n)
        res = spectrum(sturm.discretize(p), 1.0)
        reals = np.array(sorted(
            rec.lam.real for rec in res.records
            if abs(rec.lam.imag) <= 1e-9), dtype=float)
        err = 0.0
        for t in targets:
            err = max(err, np.min(np.abs(reals - t)))
        errs.append(err)
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 >= 1.8
    assert order2 >= 1.8


def test_antisymmetric_modes_alpha_independent():
    vals = {}
    for alpha in (0.5, 1.0, 2.0):
        p = sturm.SLProblem(variant="double", q_kind="const", q_value=1.0,
                            a=1.0, alpha=alpha, n=20)
        res = spectrum(sturm.discretize(p), 1.0)
        t1 = sorted(
            rec.lam.real for rec in res.records
            for _ in range(rec.type1_mult))
        vals[alpha] = np.array(t1)
    assert vals[0.5].size == vals[1.0].size == vals[2.0].size > 0
    assert np.max(np.abs(vals[0.5] - vals[1.0])) <= 1e-10
    assert np.max(np.abs(vals[1.0] - vals[2.0])) <= 1e-10


def test_antisymmetric_modes_eta_independent():
    p = sturm.SLProblem(variant="double", q_kind="const", q_value=1.0,
                        a=1.0, alpha=1.0, n=15)
    spec = sturm.discretize(p)
    t1 = {}
    for eta in (0.3, 1.0):
        res = spectrum(spec, eta)
        t1[eta] = np.array(sorted(
            rec.lam.real for rec in res.records
            for _ in range(rec.type1_mult)))
    assert t1[0.3].size == t1[1.0].size > 0
    assert np.max(np.abs(t1[0.3] - t1[1.0])) <= 1e-9


def test_single_problem_has_no_type1():
    rng = np.random.default_rng(47)
    qs = tuple(rng.uniform(-10.0, 10.0, size=31))
    p = sturm.SLProblem(variant="single", q_kind="sampled", q_values=qs,
                        a=1.0, alpha=1.0, n=30)
    res = spectrum(sturm.discretize(p), 1.0)
    assert all(rec.type1_mult == 0 for rec in res.records)


def test_resonant_double_zero_mode_in_kernel():
    # paper-sign q=4 puts the antisymmetric sine mode exactly in ker A_h
    p = sturm.SLProblem(variant="double", q_kind="const", q_value=4.0,
                        a=np.pi, alpha=1.0, n=40, paper_sign_convention=True)
    spec = sturm.discretize(p)
    assert smallest_singular_value(spec.a) <= 1e-10 * spec.norm_a
    res = spectrum(spec, 1.0)
    rec = res.find(0.0)
    assert rec.alg_mult == 2
    assert rec.geo_mult == 1


def test_problem_validation():
    with pytest.raises(InvalidInput):
        sturm.SLProblem(variant="triple")
    with pytest.raises(InvalidInput):
        sturm.SLProblem(variant="single", a=-1.0)
    with pytest.raises(InvalidInput):
        sturm.SLProblem(variant="single", alpha=-0.1)
    with pytest.raises(InvalidInput):
        sturm.SLProblem(variant="single", n=1)
    with pytest.raises(InvalidInput):
        sturm.SLProblem(variant="single", q_kind="sampled",
                        q_values=(1.0, 2.0), n=5)


@pytest.mark.parametrize("n", [2, 5, 30])
@pytest.mark.parametrize("sign", [False, True], ids=["plain", "paper"])
@pytest.mark.parametrize("q", [
    dict(q_kind="const", q_value=0.0),
    dict(q_kind="const", q_value=4.0),
    dict(q_kind="const", q_value=-2.5),
    dict(q_kind="sampled", q_values=None),
], ids=["zero", "q4", "negative", "sampled"])
def test_double_string_is_two_single_strings_joined(n, sign, q):
    # each segment of the double string is the single string, whose free
    # end is the shared node; there the two segments' halves add up.  At
    # a = 2.3 no constant potential is resonant, so none is snapped
    if q["q_kind"] == "sampled":
        q = dict(q, q_values=tuple(np.random.default_rng(n).normal(size=n + 1)))
    p = sturm.SLProblem(variant="double", a=2.3, alpha=1.7, n=n,
                        paper_sign_convention=sign, **q)
    double = sturm.discretize(p)
    single = sturm.discretize(dataclasses.replace(p, variant="single"))
    segs = [np.r_[0:n, 2 * n], np.r_[n:2 * n, 2 * n]]
    for seg in segs:
        for got, want in ((double.m, single.m), (double.a, single.a)):
            block = got[np.ix_(seg, seg)].copy()
            block[-1, -1] *= 0.5
            assert block.tobytes() == want.tobytes()
    assert not double.a[np.ix_(segs[0][:-1], segs[1][:-1])].any()
    assert double.g.tobytes() == np.pad(single.g[-1:, -1:], (2 * n, 0)).tobytes()
    assert double.rank_one.b == 1.7 and double.g_rows.tolist() == [2 * n]
