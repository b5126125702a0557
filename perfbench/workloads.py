"""Seeded inputs and operation lists for the three benchmark workloads.

Every workload is a closed loop with one client: a *round* is a fixed list
of CLI invocations built from the seed, and the runner repeats the round
until the measuring time is used up.  Each operation carries the argv for
``gyropencil.cli.main``, the oracle instance its payload is checked
against, and, for the known baseline defects, the failure it is expected
to show.  Builders write input documents with plain ``json`` (string
pencils come from the independent model in ``reference``); they never
call the program.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")

# Baseline defects: failures the program shows at the commit that defined
# this benchmark.  Inputs that hit them stay in the op lists.  Such an op
# counts as missed in fail_frac under the defect's name; any other failure
# is unexpected and makes the run incorrect.
DEFECT_NONSIMPLE = {"check": "nonsimple_real_interval_bound"}
DEFECT_ORIGIN = {"check": "origin_double_zero"}
DEFECT_BOUNDARY = {"error": "BoundaryZero",
                   "messages": ("contour keeps passing through a zero",)}
DEFECT_STALL = {"error": "SubdivisionStall",
                "messages": ("but the window holds", "no clean cut found")}
# A seeded bundle fails origin_double_zero on about a third of the draws.  On
# about 2% it raises: BoundaryZero when a zero of omega lies on its
# main-window contour, which the references must confirm, or
# SubdivisionStall, which they cannot explain (one stalled draw has no zero
# within 0.1 of that contour), so a stall on a seeded bundle is accepted
# as the defect unconfirmed.
SEEDED_BUNDLE_DEFECTS = (DEFECT_ORIGIN, dict(DEFECT_BOUNDARY, near_contour=True),
                         DEFECT_STALL)


@dataclass
class Op:
    kind: str               # solve | verify | track | roots | zeros
    slot: str               # op1 | op2: which end-to-end latency it feeds;
                            # probe: run once, timed only in the report
    argv: list
    label: str
    oracle: dict = field(default_factory=dict)
    expect: tuple = ()      # the baseline defect recorded for this op
    steps: int = 0          # track targets (per-layer useful_frac)


@dataclass
class Workload:
    name: str
    op1: str                # names of the op1 / op2 groups in the report
    op2: str
    ops: list
    probes: list = field(default_factory=list)  # run once per run, untimed


# size tables: "full" is the measured benchmark, "tiny" the smoke test.
# Full sizes keep every op under about 0.5 s.  On a shared host one call's
# time jumps by 20-40% from call to call, and a 2-s call is no steadier
# than a short one, so a run times many short calls and reports medians.
SIZES = {
    "full": {
        "solve_n": 80, "verify_n": 60, "sampled_n": 50,
        "dense_n": 120, "dense_r1_n": 60,
        "track_n": 6,
        "bundles": 2, "windows": 2, "shoot_n": 12, "probe_n": 150,
    },
    "tiny": {
        "solve_n": 12, "verify_n": 16, "sampled_n": 10,
        "dense_n": 10, "dense_r1_n": 8,
        "track_n": 3,
        "bundles": 1, "windows": 1, "shoot_n": 8, "probe_n": 16,
    },
}


def _write(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


def _sl_doc(q, a, alpha, n):
    """Double-string document with constant q in the paper's sign."""
    return {"variant": "double", "q": {"kind": "const", "value": float(q)},
            "a": float(a), "alpha": float(alpha), "n": int(n),
            "paper_sign_convention": True}


def _sampled_doc(rng, n):
    """Double string with a smooth seeded potential sampled on the n+1
    nodes x_i = i a/(n+1): a constant plus three sine modes."""
    x = np.arange(1, n + 2) * math.pi / (n + 1)
    c = rng.uniform(-3.0, 3.0, 4)
    q = c[0] + sum(c[k] * np.sin(k * x) for k in (1, 2, 3))
    return {"variant": "double", "q": {"kind": "sampled", "values": q.tolist()},
            "a": math.pi, "alpha": float(rng.uniform(0.6, 1.6)), "n": int(n),
            "paper_sign_convention": True}


def _dense_pencil(rng, n):
    """Singular diagonal M, dense PSD G of rank 3, random symmetric A."""
    mass = np.where(np.arange(n) < n - n // 5, rng.uniform(0.5, 2.0, n), 0.0)
    b = rng.standard_normal((n, 3)) / math.sqrt(n)
    g = b @ b.T
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    a = 0.5 * (a + a.T)
    return {"n": n, "M": {"kind": "diag", "data": mass.tolist()},
            "G": {"kind": "dense", "data": g.tolist()},
            "A": {"kind": "dense", "data": a.tolist()}}


def _rank_one_pencil(rng, n):
    """W1/W2 scaled up: identity block M, axis rank-one G on a massless
    coordinate, and A a random symmetric coupling of W1/W2 blocks."""
    k = n - n // 4
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    a = 0.5 * (a + a.T)
    a[np.arange(n), np.arange(n)] += rng.choice([-1.0, 1.0], n)
    return {"n": n, "M": {"kind": "identity_block", "data": k},
            "G": {"kind": "rank_one", "b": float(rng.uniform(0.5, 2.0)),
                  "e_index": int(rng.integers(k, n))},
            "A": {"kind": "dense", "data": a.tolist()}}


def solve(rng, workdir, size):
    """spectrum and verify on double strings (op1: the resonant fixture and
    a seeded sampled potential) and on general pencils with singular M
    (op2).  A structured solver for M > 0 acts on op1 only; op2 is the
    bypass that must not move."""
    s = SIZES[size]
    q = float(rng.uniform(1.2, 3.8))
    alpha = float(rng.uniform(0.6, 1.6))
    argv = ["sturm", "--variant", "double", "--q", repr(q), "--a", "pi",
            "--alpha", repr(alpha), "--n", str(s["solve_n"]),
            "--paper-sign-convention", "--solve", "--eta", "1.0"]
    ops = [Op("solve", "op1", argv, "double q=%.4f n=%d" % (q, s["solve_n"]),
              oracle={"string": _sl_doc(q, math.pi, alpha, s["solve_n"]),
                      "eta": 1.0})]
    # the resonant fixture and a sampled potential at the verify sizes; the
    # recorded defect shows on them only at larger n (see the probe below)
    path = _write(workdir, "double_q4.json",
                  dict(_fixture("double_q4.json"), n=s["verify_n"]))
    ops.append(Op("verify", "op1", ["verify", "--sturm", path],
                  "double_q4 n=%d" % s["verify_n"], expect=(DEFECT_NONSIMPLE,)))
    path = _write(workdir, "sampled.json", _sampled_doc(rng, s["sampled_n"]))
    ops.append(Op("verify", "op1", ["verify", "--sturm", path],
                  "sampled q n=%d" % s["sampled_n"], expect=(DEFECT_NONSIMPLE,)))
    for tag, doc in (("dense", _dense_pencil(rng, s["dense_n"])),
                     ("rank_one", _rank_one_pencil(rng, s["dense_r1_n"]))):
        eta = float(rng.uniform(0.4, 1.0))
        path = _write(workdir, "%s.json" % tag, doc)
        label = "%s n=%d" % (tag, doc["n"])
        ops.append(Op("solve", "op2",
                      ["spectrum", "--input", path, "--eta", repr(eta)],
                      label, oracle={"pencil": doc, "eta": eta}))
        ops.append(Op("verify", "op2",
                      ["verify", "--input", path, "--eta", repr(eta)], label))
    # the recorded defect shows on the fixture only from n = 135 on, where
    # one verify takes 3-4 s: too long to repeat every round, so it runs
    # once per run and counts in fail_frac, outside the timed metrics
    path = _write(workdir, "double_q4_probe.json",
                  dict(_fixture("double_q4.json"), n=s["probe_n"]))
    probe = Op("verify", "probe", ["verify", "--sturm", path],
               "double_q4 n=%d" % s["probe_n"], expect=(DEFECT_NONSIMPLE,))
    return Workload("solve", "string", "dense", ops, [probe])


def _permuted(doc, rng):
    """The same pencil with its coordinates in a seeded order."""
    n = doc["n"]
    p = rng.permutation(n)
    a = np.asarray(doc["A"]["data"])[np.ix_(p, p)]
    return {"n": n,
            "M": {"kind": "diag", "data": [doc["M"]["data"][i] for i in p]},
            "G": {"kind": "rank_one", "b": doc["G"]["b"],
                  "e_index": int(np.argsort(p)[doc["G"]["e_index"]])},
            "A": {"kind": "dense", "data": a.tolist()}}


def string_track(rng, workdir, size):
    """track on small double strings plus the W3 and W1 fixtures."""
    s = SIZES[size]
    ops = []
    # one string instance, the paper's q = 4, alpha = 1 pair at dim 2n+1:
    # the tracker's cost swings by 5x across nearby (q, alpha), so the seed
    # permutes coordinates (spectrum unchanged) rather than redrawing q
    doc = _sl_doc(4.0, math.pi, 1.0, s["track_n"])
    path = _write(workdir, "string.json",
                  _permuted(reference.string_pencil_doc(doc), rng))
    ops.append(Op("track", "op1",
                  ["track", "--input", path, "--from", "0", "--to", "1",
                   "--steps", "21"],
                  "double q=4 n=%d permuted" % s["track_n"],
                  oracle={"string": doc, "eta": 1.0}, steps=21))
    # the fixture tracks: W3 carries the kind-2 event at eta = 0.6
    ops.append(Op("track", "op2",
                  ["track", "--input", os.path.join(FIXTURES, "W3.json"),
                   "--from", "0", "--to", "1", "--steps", "101"],
                  "W3 0..1",
                  oracle={"pencil": _fixture("W3.json"), "eta": 1.0,
                          "event": (0.6, 2)}, steps=101))
    ops.append(Op("track", "op2",
                  ["track", "--input", os.path.join(FIXTURES, "W1.json"),
                   "--from", "0.5", "--to", "1", "--steps", "51"],
                  "W1 0.5..1",
                  oracle={"pencil": _fixture("W1.json"), "eta": 1.0,
                          "follows_minus_inverse_eta": True}, steps=51))
    return Workload("string_track", "string", "fixture", ops)


def resonant_roots(rng, workdir, size):
    """roots --fn omega bundles and roots --fn shoot windows."""
    s = SIZES[size]
    ops = []
    # the same N mix in every round (bundle cost grows with N), and a, alpha
    # from bands where a bundle's cost varies little
    for n_res in (1, 2, 3) * s["bundles"]:
        a = float(rng.uniform(3.0, 3.3))
        alpha = float(rng.uniform(0.9, 1.2))
        q = (n_res * math.pi / a) ** 2
        ops.append(Op("roots", "op1",
                      ["roots", "--fn", "omega", "--q", repr(q), "--a", repr(a),
                       "--alpha", repr(alpha)],
                      "N=%d a=%.4f alpha=%.4f" % (n_res, a, alpha),
                      oracle={"bundle": (q, a, alpha)},
                      expect=SEEDED_BUNDLE_DEFECTS))
    if size == "full":
        # recorded baseline failures: BoundaryZero for N=4, 5 at a=pi, the
        # origin zero found 3.7e-8 away for N=3, alpha=0.5, and a
        # SubdivisionStall found on an earlier seeded draw
        for n_res, a, alpha, defect in ((4, "pi", 1.0, DEFECT_BOUNDARY),
                                        (5, "pi", 1.0, DEFECT_BOUNDARY),
                                        (3, "pi", 0.5, DEFECT_ORIGIN),
                                        (2, "2.897", 0.958, DEFECT_STALL)):
            av = math.pi if a == "pi" else float(a)
            q = (n_res * math.pi / av) ** 2 if a != "pi" else float(n_res * n_res)
            ops.append(Op("roots", "op1",
                          ["roots", "--fn", "omega", "--q", repr(q), "--a", a,
                           "--alpha", repr(alpha)],
                          "N=%d a=%s alpha=%g" % (n_res, a, alpha),
                          oracle={"bundle": (q, av, alpha)}, expect=(defect,)))
    # fixed windows on the q = 4 string: the number of f-points, and so the
    # cost, swings with q and the window edges
    for win in ((1.0, 4.0, -1.0, 1.0), (-4.0, -1.0, -1.0, 1.0))[:s["windows"]]:
        ops.append(Op("zeros", "op2",
                      ["roots", "--fn", "shoot", "--q", "4", "--a", "pi",
                       "--alpha", "1", "--n", str(s["shoot_n"]),
                       "--window=" + ",".join(repr(w) for w in win)],
                      "shoot q=4 n=%d window %g,%g" % (s["shoot_n"], win[0], win[1]),
                      oracle={"window": win, "q": 4.0, "a": math.pi, "alpha": 1.0}))
    return Workload("resonant_roots", "bundle", "window", ops)


BUILDERS = {
    "solve": solve,
    "string_track": string_track,
    "resonant_roots": resonant_roots,
}
