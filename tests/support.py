"""Shared oracles and generators for the test suite.

The determinant oracle expands det L(lambda, eta) as a polynomial by a
Leibniz permutation sum with per-entry coefficient convolution.  It shares
no code with the linearization path it cross-checks, which is the point.
"""

import itertools

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from gyropencil.pencil import PencilSpec
from gyropencil import rootfind
from gyropencil.errors import SubdivisionStall
from gyropencil.rootfind import RootWindow, ZeroRecord
from gyropencil.sturm import effective_q, omega


def perm_sign(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def det_poly_coeffs(spec, eta):
    """Ascending coefficients of det L(lambda, eta), exact up to rounding.

    Entry (i, j) is the quadratic lambda^2 M_ij - lambda eta G_ij - A_ij;
    the determinant is the signed sum over permutations of entry products,
    each product formed by convolution.  Only usable for small n.
    """
    n = spec.n
    entry = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            entry[i, j] = np.array(
                [-spec.a[i, j], -eta * spec.g[i, j], spec.m[i, j]])
    total = np.zeros(2 * n + 1)
    for perm in itertools.permutations(range(n)):
        prod = np.array([1.0])
        for i in range(n):
            prod = np.convolve(prod, entry[i, perm[i]])
        total[:prod.size] += perm_sign(perm) * prod
    return total


def poly_roots(coeffs):
    """Finite roots of an ascending-coefficient polynomial.

    Trailing near-zero coefficients (singular M drops the degree) are
    trimmed relative to the largest coefficient before calling np.roots.
    """
    c = np.asarray(coeffs, dtype=float)
    top = np.max(np.abs(c))
    if top == 0.0:
        raise ValueError("zero polynomial has no isolated roots")
    deg = c.size - 1
    while deg > 0 and abs(c[deg]) <= 1e-12 * top:
        deg -= 1
    return np.roots(c[deg::-1])


def expand_records(result):
    """Each eigenvalue repeated algebraic-multiplicity times."""
    out = []
    for rec in result.records:
        out.extend([rec.lam] * rec.alg_mult)
    return out


def max_pair_distance(xs, ys):
    """Optimal-assignment matching distance between two equal lists."""
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    assert xs.size == ys.size, (xs.size, ys.size)
    if xs.size == 0:
        return 0.0
    cost = np.abs(xs[:, None] - ys[None, :])
    ri, ci = linear_sum_assignment(cost)
    return float(cost[ri, ci].max())


def rand_orth(rng, n):
    qmat, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return qmat


def rand_condition1_spec(rng, n_max=8):
    """Random spec with M > 0 and an axis rank-one G."""
    n = int(rng.integers(2, n_max + 1))
    r = rng.normal(size=(n, n))
    m = r @ r.T + 0.1 * np.eye(n)
    b = float(rng.uniform(0.1, 2.0))
    e_index = int(rng.integers(n))
    g = np.zeros((n, n))
    g[e_index, e_index] = b
    qmat = rand_orth(rng, n)
    a = qmat @ np.diag(rng.uniform(-5.0, 5.0, size=n)) @ qmat.T
    a = 0.5 * (a + a.T)
    return PencilSpec(m, g, a)


def rotated_spec(spec, rng):
    """Q^T (M, G, A) Q for a random orthogonal Q: an axis coupling turns
    into G = b g g^T off every axis."""
    q = rand_orth(rng, spec.n)
    return PencilSpec(q.T @ spec.m @ q, q.T @ spec.g @ q, q.T @ spec.a @ q)


def permuted_spec(spec, perm):
    """The same pencil with coordinate i moved to position inv[i]."""
    sub = np.ix_(perm, perm)
    return PencilSpec(spec.m[sub], spec.g[sub], spec.a[sub])


def kernel_engineered_spec(rng, n_max=8):
    """Spec with prescribed dim ker A and prescribed p = dim(ker A ∩ e⊥).

    Returns (spec, n_ker, p).  Kernel vectors are either all orthogonal to
    the coupling axis (p = n_ker) or one of them mixes the axis in
    (p = n_ker - 1).
    """
    n = int(rng.integers(3, n_max + 1))
    k = int(rng.integers(1, min(3, n - 2) + 1))
    e_index = int(rng.integers(n))
    e = np.zeros(n)
    e[e_index] = 1.0

    # orthonormal basis of the axis complement
    x = rng.normal(size=(n, n - 1))
    x[e_index, :] = 0.0
    qp, _ = np.linalg.qr(x)

    mix = bool(rng.integers(2))
    if mix:
        v1 = (e + qp[:, 0]) / np.sqrt(2.0)
        ker = np.column_stack([v1] + [qp[:, j] for j in range(1, k)])
        u1 = (e - qp[:, 0]) / np.sqrt(2.0)
        nonker = np.column_stack([u1] + [qp[:, j] for j in range(k, n - 1)])
        p = k - 1
    else:
        ker = qp[:, :k]
        nonker = np.column_stack([e] + [qp[:, j] for j in range(k, n - 1)])
        p = k

    # residual from the kernel must vanish exactly at working precision
    vals = rng.uniform(0.5, 5.0, size=nonker.shape[1])
    vals *= rng.choice([-1.0, 1.0], size=vals.size)
    a = nonker @ np.diag(vals) @ nonker.T
    a = 0.5 * (a + a.T)
    assert np.max(np.abs(a @ ker)) < 1e-12

    r = rng.normal(size=(n, n))
    m = r @ r.T + 0.5 * np.eye(n)
    b = float(rng.uniform(0.2, 2.0))
    g = np.zeros((n, n))
    g[e_index, e_index] = b
    spec = PencilSpec(m, g, a)
    return spec, k, p


def rand_definite_spec(rng, n_max=6):
    """Random spec with both M and G strictly positive definite."""
    n = int(rng.integers(2, n_max + 1))
    r = rng.normal(size=(n, n))
    m = r @ r.T + 0.5 * np.eye(n)
    s = rng.normal(size=(n, n))
    g = s @ s.T + 0.5 * np.eye(n)
    qmat = rand_orth(rng, n)
    a = qmat @ np.diag(rng.uniform(-5.0, 5.0, size=n)) @ qmat.T
    a = 0.5 * (a + a.T)
    return PencilSpec(m, g, a)


def cholesky_kappa(spec):
    """kappa_A by congruence through the Cholesky factor M = C C^T: the
    eigenvalues of C^-1 A C^-T below -1e-8 max(1, max |.|)."""
    chol = np.linalg.cholesky(spec.m)
    half = sla.solve_triangular(chol, spec.a, lower=True)
    reduced = sla.solve_triangular(chol, half.T, lower=True)
    vals = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    return int(np.count_nonzero(vals < -1e-8 * max(1.0, float(np.max(np.abs(vals))))))


class BoundaryDip(Exception):
    """A contour meets a zero of f; the message gives the reason."""


def winding_once(f, w, npts=256):
    """One window's argument-principle winding, refined on its own.

    The single-contour engine the batched rootfind._windings replaced: it
    keeps every sample in one sorted array and recomputes all phase steps
    each round.  Raises BoundaryDip with the reasons _windings reports.
    """
    corners = np.asarray([complex(w.re_min, w.im_min), complex(w.re_max, w.im_min),
                          complex(w.re_max, w.im_max), complex(w.re_min, w.im_max)])

    def points(ts):
        ts = np.asarray(ts, dtype=float) % 4.0
        idx = np.floor(ts).astype(int) % 4
        frac = ts - np.floor(ts)
        start = corners[idx]
        return start + frac * (corners[(idx + 1) % 4] - start)

    ts = np.linspace(0.0, 4.0, npts, endpoint=False)
    vals = np.asarray(f(points(ts)), dtype=complex)
    fmax = float(np.abs(vals).max())
    if fmax == 0.0:
        raise BoundaryDip("f vanishes on the contour")
    for _ in range(64):
        if float(np.abs(vals).min()) < 1e-12 * fmax:
            raise BoundaryDip("|f| dips to zero on the contour")
        phase = np.angle(vals)
        step = np.mod(np.roll(phase, -1) - phase + np.pi, 2.0 * np.pi) - np.pi
        bad = np.abs(step) >= 0.5 * np.pi
        if not bad.any():
            return int(round(float(step.sum()) / (2.0 * np.pi)))
        if ts.size > 300000:
            raise BoundaryDip("phase refinement stalls; zero pinned to contour")
        tn = np.roll(ts, -1)
        tn[-1] += 4.0
        mids = 0.5 * (ts[bad] + tn[bad])
        vals = np.concatenate([vals, np.asarray(f(points(mids)), dtype=complex)])
        ts = np.concatenate([ts, mids])
        order = np.argsort(ts)
        ts, vals = ts[order], vals[order]
        fmax = max(fmax, float(np.abs(vals).max()))
    raise BoundaryDip("phase refinement did not settle")


def _fval(f, z):
    return rootfind._eval(f, np.asarray([z]))[0]


def quadrisect(f, w, fx, fy):
    """The four children of w at the split (fx, fy) with their windings,
    from one rootfind._windings call; BoundaryDip when a child's contour
    meets a zero."""
    quads = rootfind._quads(w, fx, fy)
    counts, dips = rootfind._windings(f, quads)
    for reason in dips:
        if reason is not None:
            raise BoundaryDip(reason)
    return list(zip(quads, counts))


def subdivide_dfs(f, w, wind, leaves, depth=0):
    """Depth-first subdivision, one cell at a time.

    The recursive engine the level-synchronous rootfind._subdivide
    replaced: it appends (cell, winding) leaves in depth-first order and
    raises the first SubdivisionStall it meets.
    """
    if wind == 0:
        return
    small = w.diameter <= max(0.02 * (1.0 + abs(w.center)), 1e-6)
    if (wind == 1 and small) or w.diameter < 1e-8 or depth > 80:
        leaves.append((w, wind))
        return
    for fx, fy in rootfind._SPLITS:
        try:
            quads = quadrisect(f, w, fx, fy)
        except BoundaryDip:
            continue
        if sum(q for _, q in quads) != wind:
            continue
        for qw, qn in quads:
            subdivide_dfs(f, qw, qn, leaves, depth + 1)
        return
    if w.diameter < 1e-7 * (1.0 + abs(w.center)):
        leaves.append((w, wind))
        return
    raise SubdivisionStall(
        "no clean cut found for a cell of winding %d at diameter %.3e"
        % (wind, w.diameter)
    )


def newton_leaf(f, leaf, fscale, mult):
    """Newton's method on one leaf, one 3-point stencil call per step."""
    z = leaf.center
    slack = max(leaf.diameter, 1e-6 * (1.0 + abs(leaf.center)))
    for _ in range(60):
        h = 1e-6 * (1.0 + abs(z))
        f0, fp, fm = rootfind._eval(f, [z, z + h, z - h])
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


def critical_point_leaf(f, leaf):
    """Newton on f' for one leaf, one 3-point stencil call per step."""
    z = leaf.center
    slack = max(leaf.diameter, 1e-6 * (1.0 + abs(leaf.center)))
    for _ in range(40):
        h = 1e-6 * (1.0 + abs(z))
        fm, f0, fp = rootfind._eval(f, [z - h, z, z + h])
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


def find_zeros_dfs(f, w):
    """rootfind.find_zeros as it ran before the level-synchronous engine:
    depth-first subdivision, one leaf polished at a time, one evaluation
    per merged zero and one winding_count per isolating square."""
    base = rootfind._eval(f, rootfind._boundary_points(
        rootfind._sides([w]), 0, rootfind._BASE_TS))
    fscale = float(np.abs(base).max())
    outer = rootfind.winding_count(f, w, base=base)
    if outer == 0:
        return []
    leaves = []
    subdivide_dfs(f, w, outer, leaves)
    raw = []
    for leaf, wind in leaves:
        if wind == 1:
            z, resid, ok = newton_leaf(f, leaf, fscale, mult=1)
            raw.append([z, 1, ok, resid])
        elif wind == 2:
            z, ok = critical_point_leaf(f, leaf)
            raw.append([z, 2, ok, abs(_fval(f, z))])
        else:
            c = leaf.center
            raw.append([c, wind, False, abs(_fval(f, c))])
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
        certified = rootfind.winding_count(f, square, max_retries=3)
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


def count_omega(monkeypatch):
    """Count the evaluations of omega that rootfind makes from here on.

    Returns a function that gives (calls, points) so far: the number of
    calls and the number of points they carried.
    """
    seen = []

    def counted(lam, q, a, alpha):
        seen.append(np.size(lam))
        return omega(lam, q, a, alpha)

    monkeypatch.setattr(rootfind, "omega", counted)
    return lambda: (len(seen), sum(seen))


def mirror_spec(rng):
    """Spec of r identical blocks joined to one shared node.

    Each copy of the block (A1, M1) couples to the node through the same
    vectors, so every mode of (A1, M1) gives an (r-1)-fold degenerate group
    of modes that vanish on the node.  The coupling axis is the node (the
    whole group decouples) or a coordinate of the first copy (with r = 3,
    the group holds one coupled and one decoupled mode).
    """
    s = int(rng.integers(1, 4))
    r = int(rng.integers(2, 4))
    n = r * s + 1
    a1 = rng.normal(size=(s, s))
    a1 = a1 + a1.T
    q = rng.normal(size=(s, s))
    m1 = q @ q.T + 0.5 * np.eye(s)
    c = rng.normal(size=s)
    mv = 0.3 * rng.normal(size=s)
    a = np.zeros((n, n))
    m = np.zeros((n, n))
    for k in range(r):
        blk = slice(k * s, (k + 1) * s)
        a[blk, blk] = a1
        m[blk, blk] = m1
        a[blk, -1] = a[-1, blk] = c
        m[blk, -1] = m[-1, blk] = mv
    a[-1, -1] = rng.normal()
    # keeps the Schur complement of M on the node positive
    m[-1, -1] = r * mv @ np.linalg.solve(m1, mv) + rng.uniform(0.5, 2.0)
    b = float(rng.uniform(0.2, 2.0))
    e_index = n - 1 if rng.integers(2) else int(rng.integers(s))
    g = np.zeros((n, n))
    g[e_index, e_index] = b
    return PencilSpec(m, g, a)


def stacked_type1(spec, lams, eta, spreads):
    """dim(ker L(lam, eta) ∩ ker G) per value, from the rank of the stack
    [L(lam, eta); G]: its singular values above
    max(2n eps sigma_max, 3 pert, 1e-13 scale), pert the change of L over
    the record's spread.  At lam = 0 (within 1e-7 * scale) the
    eta-independent kernel is ker A ∩ ker G.  One batched SVD per call.
    """
    n = spec.n
    lams = np.asarray(lams, dtype=complex)
    zero = np.abs(lams) <= 1e-7 * spec.scale
    lams = np.where(zero, 0.0, lams)
    etas = np.where(zero, 0.0, eta)
    spreads = np.where(zero, 0.0, spreads)
    stack = np.empty((lams.size, 2 * n, n), dtype=complex)
    stack[:, :n] = ((lams * lams)[:, None, None] * spec.m
                    - (lams * etas)[:, None, None] * spec.g - spec.a)
    stack[:, n:] = spec.g
    svals = np.linalg.svd(stack, compute_uv=False)
    alam = np.abs(lams)
    pert = spreads * (2.0 * alam * spec.norm_m + etas * spec.norm_g)
    pert = pert + spreads * spreads * spec.norm_m
    tol = np.maximum(np.maximum(2 * n * np.finfo(float).eps * svals[:, 0], 3.0 * pert),
                     1e-13 * spec.scale)
    return n - np.count_nonzero(svals > tol[:, None], axis=1)


def identity_block_spec(rng, n_max=8):
    """The benchmark's singular-M rank-one pencil: M = diag(I_k, 0), an
    axis rank-one G on a massless coordinate and a random symmetric A with
    a +-1 diagonal shift."""
    n = int(rng.integers(2, n_max + 1))
    k = n - max(1, n // 4)
    a = rng.normal(size=(n, n)) / np.sqrt(n)
    a = 0.5 * (a + a.T)
    a[np.arange(n), np.arange(n)] += rng.choice([-1.0, 1.0], n)
    m = np.diag(np.where(np.arange(n) < k, 1.0, 0.0))
    b = float(rng.uniform(0.5, 2.0))
    e_index = int(rng.integers(k, n))
    g = np.zeros((n, n))
    g[e_index, e_index] = b
    return PencilSpec(m, g, a)


def mirror_singular_spec(rng):
    """r = 2 or 3 copies of a block with massless coordinates, joined at one
    node that carries the coupling.

    The modes odd under swapping two copies vanish on the node, so every
    finite value of the block pencil (A1, M1) is an (r - 1)-fold type I
    value; the node is massless or massive.
    """
    s = int(rng.integers(2, 4))
    r = int(rng.integers(2, 4))
    n = r * s + 1
    a1 = rng.normal(size=(s, s))
    a1 = a1 + a1.T
    m1 = np.diag(rng.uniform(0.5, 2.0, s) * (rng.permutation(s) > 0))
    c = rng.normal(size=s)
    a = np.zeros((n, n))
    m = np.zeros((n, n))
    for k in range(r):
        blk = slice(k * s, (k + 1) * s)
        a[blk, blk] = a1
        m[blk, blk] = m1
        a[blk, -1] = a[-1, blk] = c
    a[-1, -1] = rng.normal()
    m[-1, -1] = float(rng.choice([0.0, rng.uniform(0.5, 2.0)]))
    b = float(rng.uniform(0.2, 2.0))
    g = np.zeros((n, n))
    g[-1, -1] = b
    return PencilSpec(m, g, a)


def with_decoupled_copies(spec, lam0, copies):
    """spec joined, by direct sum, with `copies` 1 x 1 blocks
    lambda^2 - lam0^2 that G does not touch: lam0 (real) gains `copies`
    type I multiplicity at every eta."""
    n = spec.n + copies
    m, g, a = (np.zeros((n, n)) for _ in range(3))
    for big, small in ((m, spec.m), (g, spec.g), (a, spec.a)):
        big[:spec.n, :spec.n] = small
    m[spec.n:, spec.n:] = np.eye(copies)
    a[spec.n:, spec.n:] = lam0 * lam0 * np.eye(copies)
    return PencilSpec(m, g, a)


def _error_bound_groups(vals, bounds, zero_tol):
    """Single-linkage groups of values whose first-order error discs
    |lam - vals[i]| <= bounds[i] meet, plus one group for every value
    inside the zero band |lam| <= zero_tol."""
    n = vals.size
    near = np.abs(vals[:, None] - vals[None, :]) <= bounds[:, None] + bounds[None, :]
    zero = np.abs(vals) <= zero_tol
    near |= zero[:, None] & zero[None, :]
    label = np.arange(n)
    changed = True
    while changed:
        # propagate the smallest label along the links until it settles
        new = np.min(np.where(near, label[None, :], n), axis=1)
        changed = bool(np.any(new != label))
        label = new
    groups = {}
    for i in range(n):
        groups.setdefault(int(label[i]), []).append(i)
    return list(groups.values())


def linearization_records(spec, eta):
    """Reference records (lam, alg, geo, type1) from scipy.linalg.eig.

    Values and vectors come from the 2n block linearization
    [[0, I], [A, eta G]] z = lambda [[I, 0], [0, M]] z, which needs M
    definite; x is the top half of z.  Values are grouped by their
    first-order error bounds: with unit right and left vectors z_j, y_j,
    value j is off by at most about
    2n eps (|lhs| + |lam_j| |rhs|) / |y_j^H rhs z_j|, which is large for a
    defective value, whose left and right vectors are nearly B-orthogonal
    (the denominator is floored at sqrt(eps), the size it takes at the
    split of a double value).
    Values whose error discs meet form one group, and every value within
    1e-7 scale of 0 joins one zero group; lam is the group mean.  Away from
    0, geo is the rank of the group's x, and type1 adds up, over the
    distinct values of the group (equal to 1e-10), the dimension of the span
    of their x inside g^perp: its rank, less one when some x has a component
    g^T x along the coupling g (cutoffs 1e-6 for the rank and 1e-9 for the
    component, on unit columns).  Inside the zero band, where eig's vectors
    of the defective zero need not span the kernel, lam = 0, geo = dim ker A
    and type1 = dim(ker A ∩ ker G), from ranks at 1e-8 * scale.
    """
    n = spec.n
    g = spec.rank_one.g
    eye, zero = np.eye(n), np.zeros((n, n))
    lhs = np.block([[zero, eye], [spec.a, eta * spec.g]])
    rhs = np.block([[eye, zero], [zero, spec.m]])
    vals, left, right = sla.eig(lhs, rhs, left=True, right=True)
    left = left / np.linalg.norm(left, axis=0)
    right = right / np.linalg.norm(right, axis=0)
    cond = np.abs(np.einsum("ij,ij->j", left.conj(), rhs @ right))
    eps = np.finfo(float).eps
    bounds = 2 * n * eps * (np.linalg.norm(lhs, 2) + np.abs(vals) * np.linalg.norm(rhs, 2))
    bounds = bounds / np.maximum(cond, np.sqrt(eps))
    x = right[:n] / np.linalg.norm(right[:n], axis=0)

    def rank(cols):
        svals = sla.svdvals(x[:, cols])
        return int(np.count_nonzero(svals > 1e-6 * svals[0]))

    def nullity(mat):
        return n - int(np.count_nonzero(sla.svdvals(mat) > 1e-8 * spec.scale))

    out = []
    for members in _error_bound_groups(vals, bounds, 1e-7 * spec.scale):
        lam = complex(np.mean(vals[members]))
        if abs(lam) <= 1e-7 * spec.scale:
            lam = 0.0
            geo = nullity(spec.a)
            type1 = nullity(np.vstack([spec.a, spec.g]))
        else:
            distinct = []
            for i in members:
                for grp in distinct:
                    if abs(vals[i] - vals[grp[0]]) <= 1e-10 * max(1.0, abs(vals[i])):
                        grp.append(i)
                        break
                else:
                    distinct.append([i])
            geo = rank(members)
            type1 = sum(rank(grp) - int(np.max(np.abs(g @ x[:, grp])) > 1e-9)
                        for grp in distinct)
        out.append((lam, len(members), geo, min(type1, len(members))))
    return out


def mp_records(spec, eta, dps=30):
    """Reference records (lam, alg, geo, type1) at dps digits with mpmath.

    The values are the eigenvalues of the 2n companion
    [[0, I], [M^-1 A, eta M^-1 G]] from mp.eig.  At 30 digits a defective
    double value splits by about 1e-15, so values closer than 1e-10
    max(1, |lam|) form one group, and lam is its mean.  geo is the
    nullity of L(lam, eta) and type1 that of [L(lam, eta); G], capped at
    alg, both from mp singular values below 1e-15 scale.  Values within
    1e-7 scale of 0 form one group at lam = 0, with geo = dim ker A and
    type1 = dim(ker A ∩ ker G) at 1e-8 scale, as in the double precision
    reference.  Shares no code with the program; mp.eig costs about 2 s at
    26 x 26, so keep n small.
    """
    import mpmath

    with mpmath.workdps(dps):
        n = spec.n
        m = mpmath.matrix(spec.m.tolist())
        a = mpmath.matrix(spec.a.tolist())
        g = mpmath.matrix(spec.g.tolist())
        comp = mpmath.zeros(2 * n, 2 * n)
        minv = mpmath.inverse(m)
        ma, mg = minv * a, minv * g
        for i in range(n):
            comp[i, n + i] = 1
            for j in range(n):
                comp[n + i, j] = ma[i, j]
                comp[n + i, n + j] = eta * mg[i, j]
        vals = [complex(v) for v in mpmath.eig(comp, left=False, right=False)]
        ztol = 1e-7 * spec.scale

        def nullity(mat, tol):
            svals = mpmath.svd(mat, compute_uv=False)
            return sum(1 for s in svals if s <= tol)

        def stacked(top, bottom):
            out = mpmath.zeros(top.rows + bottom.rows, top.cols)
            for i in range(top.rows):
                for j in range(top.cols):
                    out[i, j] = top[i, j]
            for i in range(bottom.rows):
                for j in range(bottom.cols):
                    out[top.rows + i, j] = bottom[i, j]
            return out

        groups = []
        for v in sorted(vals, key=lambda z: (z.real, z.imag)):
            for grp in groups:
                if any(abs(v - u) <= 1e-10 * max(1.0, abs(v)) for u in grp) or (
                        abs(v) <= ztol and abs(grp[0]) <= ztol):
                    grp.append(v)
                    break
            else:
                groups.append([v])
        out = []
        for grp in groups:
            lam = sum(grp) / len(grp)
            if abs(lam) <= ztol:
                tol = 1e-8 * spec.scale
                geo = nullity(a, tol)
                type1 = nullity(stacked(a, g), tol)
                lam = 0.0
            else:
                lm = mpmath.mpc(lam.real, lam.imag)
                lmat = lm * lm * m - lm * eta * g - a
                tol = 1e-15 * spec.scale
                geo = nullity(lmat, tol)
                type1 = nullity(stacked(lmat, g), tol)
            out.append((complex(lam), len(grp), geo, min(type1, len(grp))))
        return out


def mp_newton_value(spec, eta, lam, dps=30, steps=20):
    """A simple eigenvalue near lam refined at dps digits with mpmath:
    Newton's method on det L, lam -= 1 / tr(L(lam)^-1 L'(lam)), until the
    step is below 1e-20 max(1, |lam|), or L(lam) is singular at dps
    digits.  Shares no code with the program.
    """
    import mpmath

    with mpmath.workdps(dps):
        m = mpmath.matrix(spec.m.tolist())
        a = mpmath.matrix(spec.a.tolist())
        g = mpmath.matrix(spec.g.tolist())
        x = mpmath.mpc(complex(lam).real, complex(lam).imag)
        for _ in range(steps):
            try:
                inv = mpmath.inverse(x * x * m - x * eta * g - a)
            except ZeroDivisionError:
                return complex(x)
            step = 1 / sum((inv * (2 * x * m - eta * g))[i, i] for i in range(spec.n))
            x -= step
            if abs(step) <= 1e-20 * max(1, abs(x)):
                return complex(x)
        raise AssertionError("Newton did not converge from %r" % (lam,))


def mp_secular_roots(mu, w, c, dps=50):
    """The 2m roots of prod_k (lam^2 - mu_k) - c lam sum_k w_k^2
    prod_{i != k} (lam^2 - mu_i) from mpmath.polyroots at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        def mul(p, q):
            out = [mpmath.mpf(0)] * (len(p) + len(q) - 1)
            for i, x in enumerate(p):
                for j, y in enumerate(q):
                    out[i + j] += x * y
            return out

        # ascending coefficients
        factors = [[-mpmath.mpf(float(x)), mpmath.mpf(0), mpmath.mpf(1)] for x in mu]
        total = [mpmath.mpf(1)]
        for fac in factors:
            total = mul(total, fac)
        for k in range(len(mu)):
            part = [mpmath.mpf(0), -mpmath.mpf(float(c)) * mpmath.mpf(float(w[k])) ** 2]
            for i, fac in enumerate(factors):
                if i != k:
                    part = mul(part, fac)
            for i, x in enumerate(part):
                total[i] += x
        roots = mpmath.polyroots(total[::-1], maxsteps=400, extraprec=4 * dps)
        return np.array([complex(r) for r in roots])


def _ref_is_real(lam):
    return abs(lam.imag) <= 1e-7 * (1.0 + abs(lam.real))


def _ref_expand_slots(result):
    slots = []
    for rec in result.records:
        v = rec.vectors[:, 0] if rec.vectors.size else None
        for _ in range(rec.alg_mult):
            slots.append((rec.lam, v))
    slots.sort(key=lambda s: (s[0].real, s[0].imag))
    return slots


def min_distinct_gap_loop(values):
    """Greedy in-order dedup at 1e-9 relative, then the smallest pairwise
    distance: track_reference's gap between distinct values."""
    vals = [v for v in values if v is not None]
    distinct = []
    for v in vals:
        if all(abs(v - u) > 1e-9 * (1.0 + abs(v)) for u in distinct):
            distinct.append(v)
    if len(distinct) < 2:
        return np.inf
    best = np.inf
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            best = min(best, abs(distinct[i] - distinct[j]))
    return best


def separations_loop(src, dst):
    """Per branch i, the smallest |dst[i] - dst[j]| over the j whose dst
    and src both differ from branch i's beyond 1e-9 relative: the per-pair
    loop that homotopy._separations does with arrays."""
    out = []
    for i in range(len(dst)):
        best = np.inf
        for j in range(len(dst)):
            if (abs(dst[j] - dst[i]) <= 1e-9 * (1.0 + abs(dst[i]))
                    or abs(src[j] - src[i]) <= 1e-9 * (1.0 + abs(src[i]))):
                continue
            best = min(best, abs(dst[i] - dst[j]))
        out.append(best)
    return out


def order_swaps_loop(vals, present):
    """(q, [[p, j, k], ...]) per column q for the branches j < k that are
    real at q in one order and at the column p where they were last apart
    in the other, within 1e-9 relative (to branch j) at every column
    between; a column where either is nonreal or absent forgets the order:
    the per-pair loop that homotopy._order_swaps does with arrays."""
    out = []
    npts, nb = len(vals), len(vals[0]) if len(vals) else 0
    apart = {}                  # (j, k) -> (column, difference) last apart
    for q in range(npts):
        swaps = []
        for j in range(nb):
            for k in range(j + 1, nb):
                if not all(present[q][x] and _ref_is_real(vals[q][x])
                           for x in (j, k)):
                    apart.pop((j, k), None)
                    continue
                d = vals[q][j].real - vals[q][k].real
                if abs(d) <= 1e-9 * (1.0 + abs(vals[q][j].real)):
                    continue
                if (j, k) in apart and apart[(j, k)][1] * d < 0.0:
                    swaps.append([apart[(j, k)][0], j, k])
                apart[(j, k)] = (q, d)
        if swaps:
            out.append((q, swaps))
    return out


def _ref_column(tset, i):
    return [b.values[i] for b in tset.branches]


def _ref_nonreal_count(tset, i):
    return sum(1 for v in _ref_column(tset, i)
               if v is not None and not _ref_is_real(v))


def _ref_coincidence_groups(values, tol_factor=1e-4):
    groups = []
    seen = set()
    for i, v in enumerate(values):
        if v is None or i in seen:
            continue
        grp = [i]
        for j in range(i + 1, len(values)):
            w = values[j]
            if w is None or j in seen:
                continue
            if abs(v - w) <= tol_factor * (1.0 + abs(v)):
                grp.append(j)
        if len(grp) >= 2:
            groups.append(grp)
            seen.update(grp)
    return groups


def track_reference(spec, eta_from=0.0, eta_to=1.0, steps=101):
    """The branch tracker one branch and one step at a time.

    The per-pair loops homotopy.track replaced with array work: one scalar
    lambda_derivative per real branch per attempted step, a cost matrix
    filled entry by entry, the gap recomputed on every attempt, and events
    detected column by column from the branch lists.  Returns a
    homotopy.TrajectorySet without diagnostics.
    """
    from scipy.optimize import linear_sum_assignment
    from gyropencil import homotopy
    from gyropencil.errors import (DenominatorVanishes, MatchingAmbiguous,
                                   NotAnEigenvalue)
    from gyropencil.pencil import spectrum

    cache = {}

    def spectrum_at(eta):
        key = float(eta)
        if key not in cache:
            cache[key] = spectrum(spec, key)
        return cache[key]

    def nonreal_count(eta):
        return sum(r.alg_mult for r in spectrum_at(eta).records
                   if not _ref_is_real(r.lam))

    escape = 1e6 * max(1.0, spec.spec_norm)
    targets = list(np.linspace(eta_from, eta_to, steps))
    grid = [targets[0]]
    slots = _ref_expand_slots(spectrum_at(targets[0]))
    branches = [homotopy.Branch(ident=i, values=[s[0]]) for i, s in enumerate(slots)]
    state = list(slots)
    alive = list(range(len(slots)))

    work = list(reversed(targets[1:]))
    while work:
        t = work.pop()
        cur_eta = grid[-1]
        d_eta = t - cur_eta
        slots_t = _ref_expand_slots(spectrum_at(t))
        preds = []
        for bi in alive:
            lam, vec = state[bi]
            pred = lam
            if vec is not None and _ref_is_real(lam):
                try:
                    der = homotopy.lambda_derivative(spec, lam.real, vec, cur_eta)
                    if isinstance(der, float):
                        pred = lam + der * d_eta
                except (DenominatorVanishes, NotAnEigenvalue):
                    pred = lam
            preds.append(pred)
        nrow, ncol = len(alive), len(slots_t)
        dim = max(nrow, ncol)
        big = 1e3 * escape
        cost = np.full((dim, dim), 0.0)
        for i in range(nrow):
            for j in range(ncol):
                cost[i, j] = abs(preds[i] - slots_t[j][0])
        for i in range(nrow):
            for j in range(ncol, dim):
                far = abs(state[alive[i]][0]) > 0.5 * escape
                cost[i, j] = 0.0 if far else big
        for i in range(nrow, dim):
            for j in range(ncol):
                far = abs(slots_t[j][0]) > 0.5 * escape
                cost[i, j] = 0.0 if far else big
        rows, cols = linear_sum_assignment(cost)
        assign = dict(zip(rows, cols))
        max_jump = 0.0
        for i in range(nrow):
            j = assign[i]
            if j < ncol:
                max_jump = max(max_jump, abs(state[alive[i]][0] - slots_t[j][0]))
        gap = min_distinct_gap_loop([state[bi][0] for bi in alive])
        if max_jump > 0.5 * gap and abs(d_eta) > 1e-6:
            work.append(t)
            work.append(cur_eta + 0.5 * d_eta)
            continue
        if abs(d_eta) <= 1e-6 and max_jump > 0.05 * max(1.0, spec.spec_norm):
            raise MatchingAmbiguous(
                "branch matching lost track near eta=%r" % (t,), eta=t)
        grid.append(t)
        new_alive = []
        used_cols = set()
        for i in range(nrow):
            bi = alive[i]
            j = assign[i]
            if j < ncol:
                lam, vec = slots_t[j]
                branches[bi].values.append(lam)
                state[bi] = (lam, vec)
                new_alive.append(bi)
                used_cols.add(j)
            else:
                branches[bi].values.append(None)
                branches[bi].escaped = True
                state[bi] = None
        for j in range(ncol):
            if j not in used_cols:
                bi = len(branches)
                branches.append(homotopy.Branch(
                    ident=bi, values=[None] * (len(grid) - 1) + [slots_t[j][0]]))
                state.append(slots_t[j])
                new_alive.append(bi)
        alive = sorted(new_alive)
        for b in branches:
            while len(b.values) < len(grid):
                b.values.append(None)

    tset = homotopy.TrajectorySet(eta_grid=grid, branches=branches, events=[])
    npts = len(grid)
    events = []
    claimed = []

    def separated(grp, i):
        ok = [v for v in (tset.branches[b].values[i] for b in grp) if v is not None]
        if len(ok) < 2:
            return True
        return min_distinct_gap_loop(ok) > 1e-3 * (1.0 + abs(ok[0]))

    def refine_coincidence(eta_a, eta_b, lam):
        def local_gap(eta):
            close = sorted(spectrum_at(eta).records, key=lambda r: abs(r.lam - lam))[:2]
            if len(close) < 2 or close[0].alg_mult > 1:
                return 0.0
            return abs(close[0].lam - close[1].lam)
        a, b = eta_a, eta_b
        for _ in range(80):
            if abs(b - a) <= 1e-6:
                break
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            if local_gap(m1) <= local_gap(m2):
                b = m2
            else:
                a = m1
        return 0.5 * (a + b)

    def refine_count_change(i):
        a, b = grid[i], grid[i + 1]
        ca = nonreal_count(a)
        while abs(b - a) > 1e-6:
            mid = 0.5 * (a + b)
            if nonreal_count(mid) == ca:
                a = mid
            else:
                b = mid
        eta_star = 0.5 * (a + b)
        recs = spectrum_at(eta_star).records
        best, lam_star = np.inf, 0.0 + 0.0j
        for p in range(len(recs)):
            if recs[p].alg_mult > 1:
                if 0.0 < best:
                    best, lam_star = 0.0, recs[p].lam
                continue
            for q_ in range(p + 1, len(recs)):
                d = abs(recs[p].lam - recs[q_].lam)
                if d < best:
                    best = d
                    lam_star = 0.5 * (recs[p].lam + recs[q_].lam)
        if abs(lam_star.imag) <= 1e-4 * (1.0 + abs(lam_star)):
            lam_star = complex(lam_star.real, 0.0)
        col = _ref_column(tset, i)
        order = sorted((k for k, v in enumerate(col) if v is not None),
                       key=lambda k: abs(col[k] - lam_star))
        return eta_star, lam_star, sorted(tset.branches[k].ident for k in order[:2])

    runs = {}
    finished = []
    for i in range(npts):
        here = set()
        for grp in _ref_coincidence_groups(_ref_column(tset, i)):
            key = frozenset(tset.branches[b].ident for b in grp)
            here.add(key)
            if key in runs and runs[key][1] == i - 1:
                runs[key][1] = i
            else:
                if key in runs:
                    finished.append((key, runs[key]))
                runs[key] = [i, i]
        for key in list(runs):
            if key not in here and runs[key][1] < i:
                finished.append((key, runs.pop(key)))
    finished.extend(runs.items())
    for key, (s, e) in finished:
        if s == 0 or e == npts - 1:
            continue
        grp = [k for k, br in enumerate(tset.branches) if br.ident in key]
        if not (separated(grp, s - 1) and separated(grp, e + 1)):
            continue
        mid = _ref_column(tset, (s + e) // 2)
        lam = np.mean([mid[b] for b in grp if mid[b] is not None])
        events.append(homotopy.CollisionEvent(
            eta_star=refine_coincidence(grid[s - 1], grid[e + 1], lam),
            lambda_star=complex(lam), kind=0, participants=sorted(key)))
        claimed.append((min(grid[s - 1], grid[e + 1]), max(grid[s - 1], grid[e + 1])))
    for i in range(npts - 1):
        if _ref_nonreal_count(tset, i) == _ref_nonreal_count(tset, i + 1):
            continue
        lo, hi = sorted((grid[i], grid[i + 1]))
        if any(a <= lo and hi <= b for a, b in claimed):
            continue
        # a collision turns at least two branches present at both points;
        # fewer is a pair born from or escaping to infinity
        flips = [b for b in tset.branches
                 if None not in b.values[i:i + 2]
                 and _ref_is_real(b.values[i]) != _ref_is_real(b.values[i + 1])]
        if len(flips) < 2:
            continue
        eta_star, lam_star, parts = refine_count_change(i)
        events.append(homotopy.CollisionEvent(
            eta_star=eta_star, lambda_star=lam_star, kind=0, participants=parts))
    events.sort(key=lambda e: e.eta_star)

    gridarr = np.asarray(grid)
    direction = 1.0 if gridarr[-1] >= gridarr[0] else -1.0
    for ev in events:
        signed = (gridarr - ev.eta_star) * direction
        lo = np.nonzero(signed <= -1e-4)[0]
        hi = np.nonzero(signed >= 1e-4)[0]
        before = int(lo[-1]) if lo.size else 0
        after = int(hi[0]) if hi.size else gridarr.size - 1
        if before == after:
            continue
        delta = _ref_nonreal_count(tset, after) - _ref_nonreal_count(tset, before)
        ev.kind = {0: 1, -2: 2, 2: 3}.get(delta, 0)
    tset.events = events
    return tset


def double_stiffness_loop(problem):
    """A of sturm.discretize_double assembled node by node: each segment's
    stencil added entry by entry, then the lumped potential on the
    diagonal, with the same snap of a resonant constant potential."""
    n = problem.n
    h = problem.a / (n + 1)
    q = effective_q(problem).copy()
    if problem.q_kind == "const" and q[0] < 0:
        root = np.sqrt(-q[0]) * problem.a / np.pi
        j = int(round(root))
        if j >= 1 and abs(root - j) <= 1e-6:
            q[:] = -(2.0 / h**2) * (1.0 - np.cos(j * np.pi / (n + 1)))
    dim = 2 * n + 1
    shared = dim - 1
    a_h = np.zeros((dim, dim))
    for seg in range(2):
        base = seg * n
        for r in range(n):
            i = base + r
            a_h[i, i] += 2.0 / h
            if r + 1 < n:
                a_h[i, i + 1] += -1.0 / h
                a_h[i + 1, i] += -1.0 / h
        last = base + n - 1
        a_h[last, shared] += -1.0 / h
        a_h[shared, last] += -1.0 / h
        a_h[shared, shared] += 1.0 / h
    diag_q = np.concatenate([q[:n], q[:n], q[n:n + 1]])
    a_h[np.arange(dim), np.arange(dim)] += diag_q * np.full(dim, h)
    return a_h


def shoot_rk4_reference(lam, problem):
    """The step-by-step RK4 loop that `sturm.shoot_charfn` evaluates as a
    product of step matrices: s'(a) + lam alpha s(a), 4n steps."""
    lam = np.asarray(lam, dtype=complex)
    scalar = lam.ndim == 0
    lam2 = np.atleast_1d(lam) ** 2

    q = effective_q(problem)
    hg = problem.a / (problem.n + 1)
    xq = hg * np.arange(1, problem.n + 2)

    nsteps = 4 * problem.n
    h = problem.a / nsteps
    # step nodes by the same x += h accumulation the steps use
    nodes = [0.0]
    for _ in range(nsteps):
        nodes.append(nodes[-1] + h)
    nodes = np.asarray(nodes)
    qn = np.interp(nodes, xq, q, left=q[0], right=q[-1]).tolist()
    qh = np.interp(nodes[:-1] + 0.5 * h, xq, q, left=q[0], right=q[-1]).tolist()
    y = np.zeros_like(lam2)
    dy = np.ones_like(lam2)
    for i in range(nsteps):
        q1, q2, q4 = qn[i], qh[i], qn[i + 1]
        k1y = dy
        k1d = (q1 - lam2) * y
        k2y = dy + 0.5 * h * k1d
        k2d = (q2 - lam2) * (y + 0.5 * h * k1y)
        k3y = dy + 0.5 * h * k2d
        k3d = (q2 - lam2) * (y + 0.5 * h * k2y)
        k4y = dy + h * k3d
        k4d = (q4 - lam2) * (y + h * k3y)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        dy = dy + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    out = dy + np.atleast_1d(lam) * problem.alpha * y
    return complex(out[0]) if scalar else out.reshape(np.shape(lam))
