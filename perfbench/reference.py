"""Independent references for the benchmark's correctness checks.

Nothing here imports the program.  Pencils are rebuilt from their JSON
documents, string problems from their stated finite-difference model, and
spectra come from ``scipy.linalg.eigvals`` of the block linearization
(no shift, no clustering).  Characteristic functions are the closed forms,
and zero counts come from an argument-principle sum taken here.
"""

import csv
import io
import json
import math

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

SPECTRUM_RTOL = 1e-6
ZERO_ATOL = 1e-3
CONTOUR_BAND = 0.1


# ---------------------------------------------------------------- models

def pencil_matrices(doc):
    """(M, G, A) from a pencil document (M diag or identity_block)."""
    n = doc["n"]
    mdoc, gdoc = doc["M"], doc["G"]
    if mdoc["kind"] == "diag":
        m = np.diag(np.asarray(mdoc["data"], dtype=float))
    else:
        m = np.diag((np.arange(n) < mdoc["data"]).astype(float))
    if gdoc["kind"] == "rank_one":
        g = np.zeros((n, n))
        g[gdoc["e_index"], gdoc["e_index"]] = gdoc["b"]
    else:
        g = np.asarray(gdoc["data"], dtype=float)
    return m, g, np.asarray(doc["A"]["data"], dtype=float)


def _node_potential(doc):
    """Constant q on the n+1 nodes x_i = i h with the sign convention
    applied.

    A constant potential at resonance, sqrt(-q) a / pi = j, is replaced by
    the grid's own resonant value -(2/h^2)(1 - cos(j pi/(n+1))), so the
    antisymmetric resonance is exact on the grid (the package's stated
    discretization convention).
    """
    n = doc["n"]
    q = doc["q"]
    vals = np.full(n + 1, float(q["value"]))
    vals = -vals if doc.get("paper_sign_convention") else vals
    if vals[0] < 0:
        root = math.sqrt(-vals[0]) * doc["a"] / math.pi
        j = round(root)
        if j >= 1 and abs(root - j) <= 1e-6:
            h = doc["a"] / (n + 1)
            vals = np.full(n + 1, -(2.0 / h ** 2) * (1.0 - math.cos(j * math.pi / (n + 1))))
    return vals


def double_string(doc):
    """Two identical strings on [0, a] joined at a shared end node.

    Unknowns: segment 1 interior, segment 2 interior, shared node (2n+1).
    Stiffness (1/h) tridiag(-1, 2, -1) per segment, each segment adds 1/h
    at the shared node; lumped mass h; potential q(x_i) h; G = alpha at
    the shared node.
    """
    n = doc["n"]
    h = doc["a"] / (n + 1)
    q = _node_potential(doc)
    dim = 2 * n + 1
    a = np.zeros((dim, dim))
    for base in (0, n):
        idx = np.arange(base, base + n)
        a[idx, idx] = 2.0 / h
        a[idx[:-1], idx[1:]] = -1.0 / h
        a[idx[1:], idx[:-1]] = -1.0 / h
        a[idx[-1], dim - 1] = a[dim - 1, idx[-1]] = -1.0 / h
    a[dim - 1, dim - 1] = 2.0 / h
    a[np.arange(dim), np.arange(dim)] += h * np.concatenate([q[:n], q[:n], q[n:]])
    g = np.zeros((dim, dim))
    g[dim - 1, dim - 1] = doc["alpha"]
    return h * np.eye(dim), g, a


def string_pencil_doc(doc):
    """Pencil document for a double string (input for ``track``)."""
    m, g, a = double_string(doc)
    return {"n": int(m.shape[0]),
            "M": {"kind": "diag", "data": np.diag(m).tolist()},
            "G": {"kind": "rank_one", "b": float(doc["alpha"]),
                  "e_index": int(m.shape[0] - 1)},
            "A": {"kind": "dense", "data": a.tolist()}}


def type1_values(doc):
    """Decoupled eigenvalues: antisymmetric modes (u, -u, 0) see only the
    Dirichlet segment block, solved here on its own."""
    n = doc["n"]
    h = doc["a"] / (n + 1)
    q = _node_potential(doc)[:n]
    seg = (np.diag(2.0 / h + h * q) - np.diag(np.full(n - 1, 1.0 / h), 1)
           - np.diag(np.full(n - 1, 1.0 / h), -1))
    mu = sla.eigvalsh(seg) / h
    root = np.sqrt(mu.astype(complex))
    return np.concatenate([root, -root])


def finite_spectrum(m, g, a, eta):
    """Finite eigenvalues of lambda^2 M - lambda eta G - A and the number
    of infinite ones, from the homogeneous block linearization
    [[0, I], [A, eta G]] - lambda [[I, 0], [0, M]]."""
    n = m.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    if not np.any(m - np.diag(np.diag(m))) and np.all(np.diag(m) > 0):
        # M > 0 diagonal: the standard form is exact and far cheaper
        inv = 1.0 / np.diag(m)
        comp = np.block([[zero, eye], [inv[:, None] * a, eta * inv[:, None] * g]])
        return sla.eigvals(comp), 0
    ab = sla.eigvals(np.block([[zero, eye], [a, eta * g]]),
                     np.block([[eye, zero], [zero, m]]), homogeneous_eigvals=True)
    alpha, beta = ab
    scale = max(1.0, np.max(np.abs(a)), np.max(np.abs(g)), np.max(np.abs(m)))
    finite = np.abs(beta) > 1e-9 * np.abs(alpha) / scale
    return alpha[finite] / beta[finite], int(np.count_nonzero(~finite))


def match(got, want, rtol=SPECTRUM_RTOL):
    """Worst relative distance of an optimal one-to-one matching, or inf
    when the counts differ."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.size != want.size:
        return math.inf
    if got.size == 0:
        return 0.0
    cost = np.abs(got[:, None] - want[None, :]) / np.maximum(1.0, np.abs(want))[None, :]
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def omega(lam, q, a, alpha):
    """Joined constant-potential strings: s (2 cos(k a) + alpha lam s),
    k = sqrt(lam^2 + q), s = sin(k a)/k."""
    k = np.sqrt(lam * lam + q + 0j)
    k = np.where(np.abs(k) < 1e-12, 1e-12, k)
    s = np.sin(k * a) / k
    return s * (2.0 * np.cos(k * a) + alpha * lam * s)


def shoot_exact(lam, q, a, alpha):
    """Single string -s'' + q s = lam^2 s, s(0) = 0, s'(0) = 1:
    s'(a) + lam alpha s(a) = cos(k a) + lam alpha sin(k a)/k."""
    k = np.sqrt(lam * lam - q + 0j)
    k = np.where(np.abs(k) < 1e-12, 1e-12, k)
    return np.cos(k * a) + lam * alpha * np.sin(k * a) / k


def winding(f, window, points=2048):
    """Zeros of f inside window by the argument principle, refining the
    boundary sampling until no phase step exceeds 1 radian."""
    x0, x1, y0, y1 = window
    while True:
        t = np.linspace(0.0, 1.0, points, endpoint=False)
        z = np.concatenate([x0 + (x1 - x0) * t + 1j * y0,
                            x1 + 1j * (y0 + (y1 - y0) * t),
                            x1 - (x1 - x0) * t + 1j * y1,
                            x0 + 1j * (y1 - (y1 - y0) * t)])
        phase = np.angle(f(z))
        steps = np.diff(np.concatenate([phase, phase[:1]]))
        steps = (steps + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(steps)) < 1.0 or points > 2 ** 20:
            return int(round(np.sum(steps) / (2 * np.pi)))
        points *= 4


def newton_zero(f, z, iters=50):
    """Nearest zero of f from z by Newton with a central-difference
    derivative; returns None when it does not settle."""
    for _ in range(iters):
        h = 1e-7 * max(1.0, abs(z))
        d = (f(np.array([z + h]))[0] - f(np.array([z - h]))[0]) / (2 * h)
        if d == 0:
            return None
        step = f(np.array([z]))[0] / d
        z = z - step
        if abs(step) <= 1e-12 * max(1.0, abs(z)):
            return z
    return None


# ---------------------------------------------------------------- instances

class Reference:
    """Per-instance reference data, computed once and cached."""

    def __init__(self):
        self._cache = {}

    def _key(self, oracle):
        return json.dumps(oracle, sort_keys=True, default=str)

    def spectrum(self, oracle):
        key = ("spectrum", self._key(oracle))
        if key not in self._cache:
            if "string" in oracle:
                m, g, a = double_string(oracle["string"])
            else:
                m, g, a = pencil_matrices(oracle["pencil"])
            vals, inf = finite_spectrum(m, g, a, oracle["eta"])
            self._cache[key] = (vals, inf, m.shape[0])
        return self._cache[key]

    def type1(self, oracle):
        key = ("type1", self._key(oracle))
        if key not in self._cache:
            self._cache[key] = type1_values(oracle["string"])
        return self._cache[key]


# ---------------------------------------------------------------- payloads

def _failing_checks(doc):
    return sorted(c["name"] for c in doc.get("checks", []) if c["status"] == "fail")


def _expand(eigs, key="alg"):
    out = []
    for e in eigs:
        out.extend([complex(e["re"], e["im"])] * e[key])
    return np.asarray(out, dtype=complex)


def check_spectrum(ref, oracle, doc):
    vals, inf, n = ref.spectrum(oracle)
    got = _expand(doc["eigenvalues"])
    if got.size + doc["discarded_infinite"] != 2 * n:
        return "n_finite %d + discarded %d != 2n = %d" % (
            got.size, doc["discarded_infinite"], 2 * n)
    if doc["discarded_infinite"] != inf:
        return "discarded %d, reference %d" % (doc["discarded_infinite"], inf)
    err = match(got, vals)
    if err > SPECTRUM_RTOL:
        return "eigenvalue mismatch: worst relative distance %.3g" % err
    if "string" in oracle:
        # a resonant zero splits its type-I share by convention; compare
        # the decoupled values away from the origin
        got = _expand(doc["eigenvalues"], "type1")
        want = ref.type1(oracle)
        tiny = 1e-6 * max(1.0, float(np.max(np.abs(want))))
        err = match(got[np.abs(got) > tiny], want[np.abs(want) > tiny])
        if err > SPECTRUM_RTOL:
            return "type-I mismatch against the segment block: %.3g" % err
    return None


def parse_track(text):
    """(grid, {branch: [value or None per grid point]}, events)."""
    blocks = text.split("\n\n")
    rows = list(csv.DictReader(io.StringIO(blocks[0])))
    grid, branches = [], {}
    for r in rows:
        eta = float(r["eta"])
        if not grid or grid[-1] != eta:
            grid.append(eta)
        val = None if r["escaped"] == "1" else complex(float(r["re"]), float(r["im"]))
        branches.setdefault(int(r["branch_id"]), []).append(val)
    events = list(csv.DictReader(io.StringIO(blocks[1]))) if len(blocks) > 1 else []
    return grid, branches, events


def check_track(ref, oracle, text):
    grid, branches, events = parse_track(text)
    final = [v[-1] for v in branches.values() if v[-1] is not None]
    vals, _, _ = ref.spectrum(oracle)
    err = match(final, vals)
    if err > SPECTRUM_RTOL:
        return "final column differs from the spectrum at eta_to: %.3g" % err
    if "string" in oracle:
        cols = [np.asarray([v[i] for v in branches.values() if v[i] is not None])
                for i in range(len(grid))]
        for t in ref.type1(oracle):
            tol = SPECTRUM_RTOL * max(1.0, abs(t))
            if any(np.min(np.abs(c - t)) > tol for c in cols):
                return "type-I value %r is not constant in eta" % t
    if oracle.get("follows_minus_inverse_eta"):
        want = np.asarray([-1.0 / e for e in grid])
        if not any(all(v is not None for v in b)
                   and np.max(np.abs(np.asarray(b) - want)) <= 1e-6
                   for b in branches.values()):
            return "no branch follows -1/eta"
    if "event" in oracle:
        at, kind = oracle["event"]
        hits = [e for e in events if int(e["kind"]) == kind]
        if len(hits) != 1 or abs(float(hits[0]["eta_star"]) - at) > 1e-4:
            return "expected one kind-%d event at %g, got %r" % (
                kind, at, [(e["eta_star"], e["kind"]) for e in events])
    return None


def _main_window(q):
    """The bundle's main window, as the program documents it."""
    rmax = max(6.0, math.sqrt(q) + 3.0)
    imax = max(3.0, math.sqrt(q) + 1.0)
    return -0.5, rmax, -imax, imax


def zero_near_contour(oracle, band=CONTOUR_BAND):
    """True when omega has a zero within ``band`` of the bundle's
    main-window contour: the window grown by ``band`` holds more zeros
    than the window shrunk by it."""
    q, a, alpha = oracle["bundle"]
    x0, x1, y0, y1 = _main_window(q)

    def f(z):
        return omega(z, q, a, alpha)

    return (winding(f, (x0 - band, x1 + band, y0 - band, y1 + band))
            != winding(f, (x0 + band, x1 - band, y0 + band, y1 - band)))


def check_bundle(oracle, doc):
    for entry in doc["conservation"]:
        if entry["winding"] != entry["mult_sum"]:
            return "%s: winding %d != multiplicity sum %d" % (
                entry["label"], entry["winding"], entry["mult_sum"])
    q, a, alpha = oracle["bundle"]
    want = winding(lambda z: omega(z, q, a, alpha), _main_window(q))
    got = sum(z["mult"] for z in doc["zeros_main"])
    if got != want:
        return "main window holds %d zeros, reported %d" % (want, got)
    return None


def check_zeros(oracle, zeros):
    q, a, alpha = oracle["q"], oracle["a"], oracle["alpha"]

    def f(z):
        return shoot_exact(z, q, a, alpha)

    want = winding(f, oracle["window"])
    got = sum(z["mult"] for z in zeros)
    if got != want:
        return "window holds %d zeros, reported %d" % (want, got)
    for z in zeros:
        z0 = complex(z["re"], z["im"])
        zz = newton_zero(f, z0)
        if zz is None or abs(zz - z0) > ZERO_ATOL * (1.0 + abs(z0)):
            return "reported zero %r is not near a zero of the exact function" % z0
    return None


def check_payload(ref, op, doc, out):
    """None when the payload agrees with the references, else why not."""
    if op.kind == "solve":
        return check_spectrum(ref, op.oracle, doc)
    if op.kind == "track":
        return check_track(ref, op.oracle, out)
    if op.kind == "roots":
        return check_bundle(op.oracle, doc)
    if op.kind == "zeros":
        return check_zeros(op.oracle, doc)
    return None


def classify(ref, op, rc, out, err):
    """(status, detail, failed checks) for one op outcome; status is
    'pass', 'defect' (the baseline defect recorded for this op, with the
    rest of its payload correct) or 'unexpected'."""
    for d in op.expect:
        if "error" in d and rc == 1 and any(m in err for m in d["messages"]):
            if d.get("near_contour") and not zero_near_contour(op.oracle):
                return "unexpected", "%s with no zero within %g of the main contour" % (
                    d["error"], CONTOUR_BAND), 0
            return "defect", d["error"], 0
    try:
        doc = json.loads(out) if op.kind != "track" and out else None
    except ValueError:
        return "unexpected", "payload is not JSON", 0
    failing = _failing_checks(doc) if isinstance(doc, dict) else []
    allowed = {d["check"] for d in op.expect if "check" in d}
    if rc == 1 and failing and set(failing) <= allowed:
        status, name = "defect", "+".join(failing)
    elif rc != 0 or failing:
        return "unexpected", "exit %d, failing checks %s %s" % (
            rc, failing, err.strip()[:200]), len(failing)
    else:
        status, name = "pass", ""
    detail = check_payload(ref, op, doc, out)
    if detail:
        return "unexpected", detail, len(failing)
    return status, name, len(failing)
