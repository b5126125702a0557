import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gyropencil import cli, rootfind, serialize, sturm
from gyropencil.errors import (
    GyropencilError, InvalidInput, PreconditionInteger, SubdivisionStall,
)
from gyropencil.rootfind import RootWindow, find_zeros, winding_count

import support


def test_winding_simple_zero():
    w = RootWindow(-0.6, 0.7, -0.5, 0.5)
    assert winding_count(lambda z: z, w) == 1


def test_winding_two_simple_zeros():
    w = RootWindow(-1.0, 1.0, -1.0, 1.0)
    assert winding_count(lambda z: (z - 0.5) * (z + 0.5), w) == 2


def test_winding_triple_zero():
    w = RootWindow(0.2, 1.9, -0.8, 0.8)
    assert winding_count(lambda z: (z - 1.0) ** 3, w) == 3


def test_winding_empty_window():
    w = RootWindow(2.0, 3.0, 2.0, 3.0)
    assert winding_count(lambda z: z, w) == 0


def test_winding_additive_over_quadrants():
    def f(z):
        return (z - 0.3 - 0.4j) * (z + 0.8) * (z - 0.9j)

    outer = RootWindow(-2.0, 2.0, -2.0, 2.0)
    total = winding_count(f, outer)
    assert total == 3
    parts = 0
    for rlo, rhi in ((-2.0, 0.05), (0.05, 2.0)):
        for ilo, ihi in ((-2.0, 0.07), (0.07, 2.0)):
            parts += winding_count(f, RootWindow(rlo, rhi, ilo, ihi))
    assert parts == total


def test_winding_boundary_zero_recovers_by_padding():
    # zero sits exactly on the left edge; the outward pad pulls it inside
    w = RootWindow(0.0, 1.0, -0.5, 0.5)
    assert winding_count(lambda z: z, w) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
                min_size=1, max_size=4))
def test_winding_counts_polynomial_roots(points):
    # roots stay 0.3 away from the contour, so no boundary retries fire
    roots = [complex(re, im) for re, im in points]

    def f(z):
        out = 1.0 + 0.0j
        for r in roots:
            out = out * (z - r)
        return out

    w = RootWindow(-1.2, 1.2, -1.2, 1.2)
    assert winding_count(f, w) == len(roots)


def test_find_zeros_polynomial_with_double_root():
    def f(z):
        return (z - 1.0) ** 2 * (z + 2.0)

    zs = find_zeros(f, RootWindow(-3.0, 3.0, -1.0, 1.0))
    assert sorted(z.multiplicity for z in zs) == [1, 2]
    by_mult = {z.multiplicity: z for z in zs}
    assert abs(by_mult[2].z - 1.0) <= 1e-7
    assert abs(by_mult[1].z + 2.0) <= 1e-7
    assert sum(z.multiplicity for z in zs) == 3


def test_find_zeros_merges_unresolvable_pair():
    # separation far below the merge radius reports one double zero
    def f(z):
        return (z - 0.5) * (z - 0.5 - 1e-9)

    zs = find_zeros(f, RootWindow(-1.0, 1.5, -0.7, 0.7))
    assert len(zs) == 1
    assert zs[0].multiplicity == 2
    assert abs(zs[0].z - 0.5) <= 1e-6


def test_find_zeros_sine():
    zs = find_zeros(np.sin, RootWindow(-4.0, 4.0, -1.0, 1.0))
    got = sorted(z.z.real for z in zs)
    assert support.max_pair_distance(
        [z.z for z in zs], [-np.pi, 0.0, np.pi]) <= 1e-9
    assert all(z.multiplicity == 1 for z in zs)
    assert len(got) == 3


def test_find_zeros_residuals_reported():
    zs = find_zeros(lambda z: z ** 2 - 2.0, RootWindow(-2.0, 2.0, -1.0, 1.0))
    for z in zs:
        assert z.residual <= 1e-9


def test_window_helpers():
    w = RootWindow(-1.0, 3.0, -2.0, 2.0)
    assert w.center == pytest.approx(1.0 + 0.0j)
    assert w.diameter == pytest.approx(np.hypot(4.0, 4.0))
    assert w.contains(1.0 + 0.5j)
    assert not w.contains(4.0 + 0.0j)


def test_resonant_bundle_q4():
    rep = rootfind.verify_resonant_counts(4.0, np.pi, 1.0)
    assert rep.n_resonant == 2
    assert rep.all_pass, [c.name for c in rep.checks if c.status != "pass"]
    # conjugation closure of the reported zero set
    zs = [z.z for z in rep.zeros_main for _ in range(z.multiplicity)]
    assert support.max_pair_distance(zs, np.conj(zs)) <= 1e-9
    for entry in rep.conservation:
        assert entry["winding"] == entry["mult_sum"], entry

    # each entry's winding against the sum over a 2x2 partition of its
    # window: winding_count on four smaller contours, cut in the widest gap
    # between the window's zeros so no cut line passes near one
    def f(lam):
        return sturm.omega(lam, 4.0, np.pi, 1.0)

    def widest_gap_mid(lo, hi, coords):
        edges = sorted([lo, hi] + [c for c in coords if lo < c < hi])
        return max((b - a, 0.5 * (a + b)) for a, b in zip(edges, edges[1:]))[1]

    for entry in rep.conservation:
        w = RootWindow(*entry["window"])
        zs = [z.z for z in (rep.zeros_main if entry["label"] == "main"
                            else find_zeros(f, w))]
        xcut = widest_gap_mid(w.re_min, w.re_max, [z.real for z in zs])
        ycut = widest_gap_mid(w.im_min, w.im_max, [z.imag for z in zs])
        parts = [winding_count(f, RootWindow(x0, x1, y0, y1))
                 for x0, x1 in ((w.re_min, xcut), (xcut, w.re_max))
                 for y0, y1 in ((w.im_min, ycut), (ycut, w.im_max))]
        assert entry["winding"] == sum(parts) > 0, (entry, parts)


def test_resonant_bundle_q1():
    rep = rootfind.verify_resonant_counts(1.0, np.pi, 1.0)
    assert rep.n_resonant == 1
    assert rep.all_pass, [c.name for c in rep.checks if c.status != "pass"]


def test_resonant_bundle_small_alpha():
    rep = rootfind.verify_resonant_counts(4.0, np.pi, 0.5)
    assert rep.all_pass, [c.name for c in rep.checks if c.status != "pass"]


def test_resonance_precondition():
    with pytest.raises(PreconditionInteger):
        rootfind.verify_resonant_counts(2.0, np.pi, 1.0)
    with pytest.raises(PreconditionInteger):
        rootfind.verify_resonant_counts(-1.0, np.pi, 1.0)
    with pytest.raises(PreconditionInteger):
        rootfind.verify_resonant_counts(4.0, 1.0, 1.0)


def _recording(f):
    """f plus the list of every point array it was asked for."""
    seen = []

    def g(z):
        seen.append(np.array(z, dtype=complex).ravel())
        return f(z)
    return g, seen


def _edge_point(w, param):
    """The contour point at parameter param in [0, 4) of window w."""
    return complex(rootfind._boundary_points(rootfind._sides([w]), 0, [param])[0])


_win = st.tuples(st.floats(-1.5, 1.0), st.floats(0.2, 2.0),
                 st.floats(-1.5, 1.0), st.floats(0.2, 2.0))
# a zero: free in the plane, or on a window's contour (at a base sample
# when the fraction is a multiple of 1/64, elsewhere otherwise)
_zero = st.one_of(
    st.tuples(st.just("free"), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    st.tuples(st.just("edge"), st.integers(0, 3), st.integers(0, 255)),
    st.tuples(st.just("edge"), st.integers(0, 3), st.floats(0.0, 3.999)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_win, min_size=1, max_size=4),
       st.lists(_zero, min_size=1, max_size=4))
def test_winding_many_matches_one_window_at_a_time(wins, zero_specs):
    windows = [RootWindow(r0, r0 + dr, i0, i0 + di) for r0, dr, i0, di in wins]
    roots = []
    for kind, u, v in zero_specs:
        if kind == "free":
            roots.append(complex(u, v))
        else:
            param = v / 64.0 if isinstance(v, int) else v
            roots.append(_edge_point(windows[u % len(windows)], param))

    def f(z):
        out = np.ones_like(z)
        for r in roots:
            out = out * (z - r)
        return out

    g, got_pts = _recording(f)
    got = rootfind._windings(g, windows)

    h, want_pts = _recording(f)
    want = ([], [])
    for w in windows:
        try:
            count, dip = support.winding_once(h, w), None
        except support.BoundaryDip as exc:
            count, dip = None, str(exc)
        want[0].append(count)
        want[1].append(dip)
    assert got == want
    assert np.array_equal(np.sort(np.concatenate(got_pts)),
                          np.sort(np.concatenate(want_pts)))


def test_quadrisect_batches_sibling_windows():
    # the four children of the first split share one call for their base
    # samples; both are winding-1 cells, so after the Newton stencils that
    # locate their zeros (neither on a dyadic cut line) each descends to
    # its leaf, and the two leaf contours share one call, in place of a
    # level of eight children
    g, seen = _recording(lambda z: (z - 0.3 - 0.2j) * (z + 0.4 + 0.45j))
    stats = Counter()
    leaves = rootfind._subdivide(g, RootWindow(-1.0, 1.0, -1.0, 1.0), 2,
                                 stats)
    sizes = [pts.size for pts in seen]
    assert sizes[0] == 4 * rootfind.BOUNDARY_SAMPLES
    assert 2 * rootfind.BOUNDARY_SAMPLES in sizes
    assert 8 * rootfind.BOUNDARY_SAMPLES not in sizes
    assert stats["descents"] == 2 and stats["descent_fallbacks"] == 0
    assert [n for _, n in leaves] == [1, 1]
    assert leaves[0][0].contains(-0.4 - 0.45j) and leaves[1][0].contains(0.3 + 0.2j)


def test_descent_falls_back_when_newton_leaves_the_cell():
    # the zero outside the window is nearer its center than the one
    # inside, so Newton from the center walks out: the cell is split level
    # by level, as depth-first search splits it
    f = _poly([0.95 + 0.95j, 1.05 + 0.5j])
    w = RootWindow(0.0, 1.0, 0.0, 1.0)
    assert winding_count(f, w) == 1
    want = []
    support.subdivide_dfs(f, w, 1, want)
    stats = Counter()
    assert rootfind._subdivide(f, w, 1, stats) == want
    assert stats["descent_fallbacks"] >= 1
    diag = {}
    assert find_zeros(f, w, diagnostics=diag) == support.find_zeros_dfs(f, w)
    assert diag["descent_fallbacks"] >= 1 and diag["descents"] == 0


def test_resonant_bundle_call_budget(monkeypatch):
    # half the f calls of one-window-at-a-time winding (2472 for this bundle)
    cost = support.count_omega(monkeypatch)
    rep = rootfind.verify_resonant_counts(4.0, np.pi, 1.0)
    assert rep.all_pass
    calls, _ = cost()
    assert calls <= 1236, calls


def test_resonant_bundle_level_call_budget(monkeypatch):
    # a subdivision level, the leaves' stencils and the fixed windows each
    # share one call (954 calls when cells and leaves went one at a time)
    cost = support.count_omega(monkeypatch)
    rep = rootfind.verify_resonant_counts(4.0, np.pi, 1.0)
    assert rep.all_pass
    calls, _ = cost()
    assert calls <= 350, calls


def test_resonant_bundle_point_budget(monkeypatch):
    # one contour per isolated zero and per pair descent, and no square
    # for a simple zero its leaf certifies (207961 points when winding-1
    # cells were quadrisected level by level down to their leaves, 144102
    # with the located descent alone)
    cost = support.count_omega(monkeypatch)
    rep = rootfind.verify_resonant_counts(4.0, np.pi, 1.0)
    assert rep.all_pass
    _, points = cost()
    assert points <= 115000, points
    # the find_zeros diagnostics cover all but the fixed windows' points
    assert 0 < rep.diagnostics["f_points"] < points


def test_resonant_bundle_n1_call_budget(monkeypatch):
    # an N = 1 bundle, whose noise-level cells try their remaining splits
    # in one batch (706 calls when each split took a round of its own)
    cost = support.count_omega(monkeypatch)
    rep = rootfind.verify_resonant_counts((np.pi / 3.1535) ** 2, 3.1535,
                                          1.1851)
    assert rep.all_pass
    calls, _ = cost()
    assert calls <= 450, calls


def test_recorded_stall_point_budget(monkeypatch):
    # the recorded stall input raises depth-first search's SubdivisionStall,
    # and cells past the stall stop early (69930 points when the stalling
    # cell spent a round on each split)
    args = (4.703950536043968, 2.897, 0.958)

    def subdivide_dfs(f, w, wind, stats=None):
        leaves = []
        support.subdivide_dfs(f, w, wind, leaves)
        return leaves

    with monkeypatch.context() as patched:
        patched.setattr(rootfind, "_subdivide", subdivide_dfs)
        with pytest.raises(SubdivisionStall) as want:
            rootfind.verify_resonant_counts(*args)
    cost = support.count_omega(monkeypatch)
    with pytest.raises(SubdivisionStall) as got:
        rootfind.verify_resonant_counts(*args)
    assert str(got.value) == str(want.value)
    _, points = cost()
    assert points <= 65476, points


def test_resonant_bundle_diagnostics():
    rep = rootfind.verify_resonant_counts(4.0, np.pi, 1.0)
    diag = rep.diagnostics
    assert set(diag) == {"f_calls", "f_points", "windows_counted",
                         "max_depth", "descents", "descent_fallbacks",
                         "pair_descents"}
    for key in ("f_calls", "f_points", "windows_counted", "max_depth",
                "descents", "pair_descents"):
        assert diag[key] > 0, key
    assert "diagnostics" not in serialize.resonant_to_dict(rep)


_CLI_ROOTS = [
    ["--fn", "omega", "--q", "4", "--a", "pi", "--alpha", "1"],
    # the recorded defect inputs: BoundaryZero, BoundaryZero, the origin
    # zero off by 3.7e-8, SubdivisionStall
    ["--fn", "omega", "--q", "16.0", "--a", "pi", "--alpha", "1.0"],
    ["--fn", "omega", "--q", "25.0", "--a", "pi", "--alpha", "1.0"],
    ["--fn", "omega", "--q", "9.0", "--a", "pi", "--alpha", "0.5"],
    ["--fn", "omega", "--q", "4.703950536043968", "--a", "2.897",
     "--alpha", "0.958"],
    ["--fn", "shoot", "--q", "4", "--a", "pi", "--alpha", "1", "--n", "12",
     "--window=1.0,4.0,-1.0,1.0"],
    ["--fn", "shoot", "--q", "4", "--a", "pi", "--alpha", "1", "--n", "12",
     "--window=-4.0,-1.0,-1.0,1.0"],
    # an N = 1 bundle whose noise-level cells count their remaining splits
    # in one batch
    ["--fn", "omega", "--q", repr((np.pi / 3.1535) ** 2), "--a", "3.1535",
     "--alpha", "1.1851"],
]


@pytest.mark.parametrize("argv", _CLI_ROOTS)
def test_roots_cli_matches_depth_first_subdivision(monkeypatch, capsys, argv):
    def run():
        code = cli.main(["roots"] + argv)
        out, err = capsys.readouterr()
        return code, out, err

    got = run()

    def subdivide_dfs(f, w, wind, stats=None):
        leaves = []
        support.subdivide_dfs(f, w, wind, leaves)
        return leaves

    monkeypatch.setattr(rootfind, "_subdivide", subdivide_dfs)
    assert got == run()


def test_evaluator_errors_propagate():
    class Broken(Exception):
        pass

    calls = []

    def f(z):
        calls.append(z)
        raise Broken("evaluator bug")

    w = RootWindow(-1.0, 1.0, -1.0, 1.0)
    with pytest.raises(Broken):
        winding_count(f, w)
    with pytest.raises(Broken):
        find_zeros(f, w)
    # no pointwise re-evaluation after the failure
    assert len(calls) == 2


def test_evaluator_shape_mismatch_is_invalid_input():
    w = RootWindow(-1.0, 1.0, -1.0, 1.0)
    with pytest.raises(InvalidInput):
        winding_count(lambda z: complex(np.sum(z)), w)
    with pytest.raises(InvalidInput):
        find_zeros(lambda z: z[:-1], w)


def _poly(roots):
    """The monic polynomial with these roots, as an evaluator."""
    def f(z):
        out = np.ones_like(z)
        for r in roots:
            out = out * (z - r)
        return out
    return f


def _cut_zero(w, axis, frac, pos):
    """A point of w on the line that a split at frac cuts along axis
    (0: re, 1: im), at relative position pos along that line."""
    x = w.re_min + (frac if axis == 0 else pos) * (w.re_max - w.re_min)
    y = w.im_min + (pos if axis == 0 else frac) * (w.im_max - w.im_min)
    return complex(x, y)


def _assert_same_as_depth_first(f, w):
    """_subdivide and find_zeros against their depth-first references:
    the same leaves and zeros, or the same failure (also when the window's
    own contour meets a zero)."""
    def outcome(run):
        try:
            return run()
        except GyropencilError as exc:
            return type(exc), str(exc)

    wind = outcome(lambda: winding_count(f, w))
    if isinstance(wind, int):
        want_leaves = []
        want = outcome(lambda: support.subdivide_dfs(f, w, wind, want_leaves))
        got = outcome(lambda: rootfind._subdivide(f, w, wind))
        assert got == (want if want is not None else want_leaves)
    assert outcome(lambda: find_zeros(f, w)) == outcome(
        lambda: support.find_zeros_dfs(f, w))


# a zero of multiplicity 1 or 2: free in the window, or on a cut line of
# the first split (frac of w) or of a quarter's split (frac of w's lower
# left quarter), so that splits dip and retry
_poly_zero = st.tuples(
    st.sampled_from(["free", "cut", "quarter"]),
    st.integers(0, 1),
    st.sampled_from([0.5, 0.513, 0.487]),
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
    st.integers(1, 2),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_poly_zero, min_size=1, max_size=4),
       st.floats(-1.0, 0.5), st.floats(-1.0, 0.5))
# a double zero on a cut line that two winding-1 leaves share, each
# counting it once: its multiplicity comes from its square, not its leaf
@example([("cut", 0, 0.513, 0.5, 0.5, 2), ("cut", 1, 0.513, 0.5, 0.5, 2),
          ("cut", 1, 0.513, 0.5, 0.5, 2)], 0.0, 0.0)
# eight zeros 0.04-0.08 from the window's edge: |f| on the window's own
# contour dips below 1e-12 of its maximum
@example([("quarter", 0, 0.5, 0.125, 0.5, 2)]
         + [("quarter", 0, 0.5, 0.0625, 0.5, 2)] * 3, 0.0, 0.0)
def test_level_synchronous_search_matches_depth_first(zero_specs, x0, y0):
    w = RootWindow(x0, x0 + 1.7, y0, y0 + 1.3)
    quarter = rootfind._quads(w, 0.5, 0.5)[0]
    roots = []
    for kind, axis, frac, u, v, mult in zero_specs:
        if kind == "free":
            z = _cut_zero(w, 0, u, v)
        else:
            z = _cut_zero(w if kind == "cut" else quarter, axis, frac, u)
        roots.extend([z] * mult)
    _assert_same_as_depth_first(_poly(roots), w)


# a zero on a cut line of a cell two or three (0.5, 0.5) levels below the
# window, where a located descent crosses: the cell's child indices, the
# axis, the split fraction and the position along the line
_deep_cut_zero = st.tuples(
    st.lists(st.integers(0, 3), min_size=2, max_size=3),
    st.integers(0, 1),
    st.sampled_from([0.5, 0.513, 0.487]),
    st.floats(0.05, 0.95),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_deep_cut_zero, min_size=1, max_size=4),
       st.floats(-1.0, 0.5), st.floats(-1.0, 0.5))
def test_descent_on_deep_cut_lines_matches_depth_first(zero_specs, x0, y0):
    w = RootWindow(x0, x0 + 1.7, y0, y0 + 1.3)
    roots = []
    for path, axis, frac, pos in zero_specs:
        cell = w
        for c in path:
            cell = rootfind._quads(cell, 0.5, 0.5)[c]
        roots.append(_cut_zero(cell, axis, frac, pos))
    _assert_same_as_depth_first(_poly(roots), w)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=6, max_size=10, unique=True),
       st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.floats(0.004, 0.06),
       st.floats(0.0, 1.0))
def test_descent_in_zero_clusters_matches_depth_first(offsets, u, v,
                                                      spacing, turn):
    # 6-10 simple zeros on a turned lattice around a point of the window
    w = RootWindow(-0.7, 1.0, -0.5, 0.8)
    center = _cut_zero(w, 0, u, v)
    rot = np.exp(2j * np.pi * turn)
    roots = [center + spacing * rot * complex(i, j) for i, j in offsets]
    _assert_same_as_depth_first(_poly(roots), w)


# a double zero in a cell two or three (0.5, 0.5) levels below the window,
# off one of the cell's cut lines by a fraction of the cell's extent across
# that line (0 puts it on the line): the cell's child indices, the axis,
# the signed offset and the position along the line
_deep_double_zero = st.tuples(
    st.lists(st.integers(0, 3), min_size=2, max_size=3),
    st.integers(0, 1),
    st.sampled_from([0.0, 1 / 64, 1 / 32, 1 / 16, 1 / 8]),
    st.sampled_from([-1.0, 1.0]),
    st.floats(0.05, 0.95),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_deep_double_zero, min_size=1, max_size=3),
       st.floats(-1.0, 0.5), st.floats(-1.0, 0.5))
# a quadruple zero on a cut line, whose halves count 2 on either side:
# rounding keeps them apart down to leaves of diameter about 1e-8, and one
# lies on a side of the cell its pair descent starts from
@example([([0, 1, 0], 1, 0.0, -1.0, 0.12832682543096713)] * 2, 0.0, 0.0)
@example([([0, 1, 1], 1, 0.0, -1.0, 0.39401600969664624)] * 2, 0.0, 0.0)
def test_pair_descent_near_cut_lines_matches_depth_first(zero_specs, x0, y0):
    w = RootWindow(x0, x0 + 1.7, y0, y0 + 1.3)
    roots = []
    for path, axis, offset, sign, pos in zero_specs:
        cell = w
        for c in path:
            cell = rootfind._quads(cell, 0.5, 0.5)[c]
        extent = (cell.re_max - cell.re_min if axis == 0
                  else cell.im_max - cell.im_min)
        z = _cut_zero(cell, axis, 0.5, pos)
        z += sign * offset * extent * (1 if axis == 0 else 1j)
        roots.extend([z, z])
    _assert_same_as_depth_first(_poly(roots), w)


@pytest.mark.parametrize("d", [3e-3, 1.6e-3, 1e-3, 3e-4, -1e-3, -1.6e-3,
                               -3e-3])
def test_double_zero_near_a_side_matches_depth_first(d):
    # the contour winding miscounts this double zero as 1 (a known fault of
    # _windings); the search must still fail as depth-first search fails
    r = 1.253023584267221 - 0.10208770901503716j
    w = RootWindow(r.real - 1.0, r.real + d, -1.0, 1.0)
    _assert_same_as_depth_first(_poly([r, r]), w)


_Z0 = 0.3 + 0.2j
_SQ = 0.7 - 0.4j
_SQ_C1, _SQ_C0 = -2.0 * _SQ, _SQ * _SQ
_WINDOW = RootWindow(-0.7, 1.1, -0.9, 1.3)


@pytest.mark.parametrize("f, w, want", [
    # f on a 1e-4 grid: the stencil's two sides round alike, so the
    # derivative is zero, in the descent and in the leaf
    (lambda z: np.round(1e4 * (z - _Z0)) / 1e4, _WINDOW,
     {("_locate", False, "flat"), ("_polish", False, "flat")}),
    # a 1e-5 ripple ten times as steep as f: a derivative near zero sends a
    # polish iterate out of its leaf
    (lambda z: z - _Z0 + 1e-5 * np.cos(1.5e6 * z.real), _WINDOW,
     {("_polish", False, "stray")}),
    # the expanded square's rounding keeps the f' steps of its double zero
    # above 1e-12, so the pair's polish hits its step limit (a window found
    # by search: on most, the steps reach 1e-12)
    (lambda z: z * z + _SQ_C1 * z + _SQ_C0,
     RootWindow(_SQ.real - 0.9, _SQ.real + 0.8, _SQ.imag - 0.7, _SQ.imag + 1.1),
     {("_polish", True, "limit")}),
    # a triple zero: its leaf keeps its center and runs no Newton
    (lambda z: (z - _Z0) ** 3, _WINDOW, set()),
], ids=["zero-derivative", "polish-stray", "pair-limit", "winding-3"])
def test_newton_endings_match_depth_first(monkeypatch, f, w, want):
    real = rootfind._newton
    ends = set()

    def spy(cell, pair, *args):
        # the task that runs the kernel: _locate or _polish
        caller = sys._getframe(1).f_code.co_name
        end, z, step = yield from real(cell, pair, *args)
        ends.add((caller, pair, end))
        return end, z, step

    monkeypatch.setattr(rootfind, "_newton", spy)
    zeros = find_zeros(f, w)
    if want:
        assert want <= ends
    else:
        assert not ends
        assert [(z.multiplicity, z.refined) for z in zeros] == [(3, False)]
    _assert_same_as_depth_first(f, w)


def test_subdivision_raises_the_first_stall_depth_first():
    # Two cells stall: every split of the lower-left quarter of the
    # lower-left quarter dips on a zero on its vertical cut lines (winding
    # 5), every split of the upper-right quarter on its horizontal ones
    # (winding 6).  The upper-right stall is found a round earlier, but
    # depth-first search meets the lower-left one first, and so must the
    # level-synchronous search.
    w = RootWindow(-1.0, 1.0, -1.0, 1.0)
    lower = RootWindow(-1.0, -0.5, -1.0, -0.5)
    upper = RootWindow(0.0, 1.0, 0.0, 1.0)
    roots = [_cut_zero(lower, 0, frac, 0.3)
             for frac in (0.5, 0.513, 0.487, 0.531, 0.469)]
    roots += [_cut_zero(upper, 1, frac, 0.3)
              for frac in (0.5, 0.513, 0.487, 0.531, 0.469, 0.549)]
    f = _poly(roots)

    assert winding_count(f, w) == 11
    with pytest.raises(SubdivisionStall) as exc:
        support.subdivide_dfs(f, w, 11, [])
    assert "winding 5" in str(exc.value)
    with pytest.raises(SubdivisionStall) as got:
        rootfind._subdivide(f, w, 11)
    assert str(got.value) == str(exc.value)
