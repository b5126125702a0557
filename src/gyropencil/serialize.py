"""JSON and CSV formats for pencils, problems, spectra, zeros, and tracks.

A pencil is written in the most structured form its matrices take: M as
`identity_block` when its diagonal is k ones followed by zeros, else as
`diag` when it is diagonal, else `dense`; G as `rank_one` (shorthand for
b e e^T, e a coordinate axis) when the spec finds a rank-one coupling on
one nonzero row, else `dense`, an off-axis coupling too.  A file written
that way loads and saves back byte-identical: floats go through json's
shortest round-trip repr and the key order is fixed.  Other files save
back in that form, among them a `dense` M that is diagonal, a `diag` M
that is a 0/1 block and a `dense` G with one positive diagonal entry.
"""

import json

import numpy as np

from .errors import InvalidInput
from .pencil import PencilSpec
from .sturm import SLProblem


def dumps(obj):
    return json.dumps(obj, indent=2) + "\n"


def _matrix_list(mat):
    return [[float(x) for x in row] for row in np.asarray(mat)]


def _require(cond, message):
    if not cond:
        raise InvalidInput(message)


def pencil_to_dict(spec):
    d = {"n": int(spec.n)}
    diag = spec.m_diag
    if diag is None:
        d["M"] = {"kind": "dense", "data": _matrix_list(spec.m)}
    elif np.array_equal(diag, np.arange(spec.n) < np.count_nonzero(diag)):
        d["M"] = {"kind": "identity_block", "data": int(np.count_nonzero(diag))}
    else:
        d["M"] = {"kind": "diag", "data": [float(x) for x in diag]}
    if spec.rank_one is not None and spec.g_rows.size == 1:
        d["G"] = {"kind": "rank_one",
                  "b": float(spec.rank_one.b),
                  "e_index": int(spec.g_rows[0])}
    else:
        d["G"] = {"kind": "dense", "data": _matrix_list(spec.g)}
    d["A"] = {"kind": "dense", "data": _matrix_list(spec.a)}
    return d


def pencil_from_dict(d):
    _require(isinstance(d, dict), "pencil document must be an object")
    for key in ("n", "M", "G", "A"):
        _require(key in d, "pencil document missing %r" % key)
    n = d["n"]
    _require(isinstance(n, int) and n >= 1, "n must be a positive integer")

    mspec = d["M"]
    _require(isinstance(mspec, dict) and "kind" in mspec, "bad M block")
    if mspec["kind"] == "diag":
        diag = np.asarray(mspec.get("data", []), dtype=float)
        _require(diag.shape == (n,), "M diag needs n entries")
        m = np.diag(diag)
    elif mspec["kind"] == "identity_block":
        k = mspec.get("data")
        _require(isinstance(k, int) and 0 <= k <= n,
                 "identity block size out of range")
        m = np.diag(np.concatenate([np.ones(k), np.zeros(n - k)]))
    elif mspec["kind"] == "dense":
        m = np.asarray(mspec.get("data", []), dtype=float)
        _require(m.shape == (n, n), "M must be n by n")
    else:
        raise InvalidInput("unknown M kind %r" % mspec["kind"])

    gspec = d["G"]
    _require(isinstance(gspec, dict) and "kind" in gspec, "bad G block")
    if gspec["kind"] == "rank_one":
        b = gspec.get("b")
        e_index = gspec.get("e_index")
        _require(isinstance(b, (int, float)) and b > 0, "rank-one b must be > 0")
        _require(isinstance(e_index, int) and 0 <= e_index < n,
                 "e_index out of range")
        g = np.zeros((n, n))
        g[e_index, e_index] = float(b)
    elif gspec["kind"] == "dense":
        g = np.asarray(gspec.get("data", []), dtype=float)
        _require(g.shape == (n, n), "G must be n by n")
    else:
        raise InvalidInput("unknown G kind %r" % gspec["kind"])

    aspec = d["A"]
    _require(isinstance(aspec, dict) and aspec.get("kind") == "dense",
             "A block must be dense")
    a = np.asarray(aspec.get("data", []), dtype=float)
    _require(a.shape == (n, n), "A must be n by n")

    return PencilSpec(m, g, a)


def save_pencil(spec, path):
    with open(path, "w") as fh:
        fh.write(dumps(pencil_to_dict(spec)))


def load_pencil(path):
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInput("malformed JSON: %s" % exc)
    return pencil_from_dict(d)


def sl_to_dict(problem):
    if problem.q_kind == "const":
        qblock = {"kind": "const", "value": float(problem.q_value)}
    else:
        qblock = {"kind": "sampled",
                  "values": [float(x) for x in problem.q_values]}
    return {
        "variant": problem.variant,
        "q": qblock,
        "a": float(problem.a),
        "alpha": float(problem.alpha),
        "n": int(problem.n),
        "paper_sign_convention": bool(problem.paper_sign_convention),
    }


def sl_from_dict(d):
    _require(isinstance(d, dict), "problem document must be an object")
    for key in ("variant", "q", "a", "alpha", "n"):
        _require(key in d, "problem document missing %r" % key)
    qblock = d["q"]
    _require(isinstance(qblock, dict) and "kind" in qblock, "bad q block")
    kw = {}
    if qblock["kind"] == "const":
        _require("value" in qblock, "const q needs a value")
        kw["q_kind"] = "const"
        kw["q_value"] = float(qblock["value"])
    elif qblock["kind"] == "sampled":
        _require(isinstance(qblock.get("values"), list), "sampled q needs values")
        kw["q_kind"] = "sampled"
        kw["q_values"] = tuple(float(x) for x in qblock["values"])
    else:
        raise InvalidInput("unknown q kind %r" % qblock["kind"])
    _require(isinstance(d["n"], int), "n must be an integer")
    return SLProblem(
        variant=d["variant"],
        a=float(d["a"]),
        alpha=float(d["alpha"]),
        n=d["n"],
        paper_sign_convention=bool(d.get("paper_sign_convention", False)),
        **kw,
    )


def save_sl(problem, path):
    with open(path, "w") as fh:
        fh.write(dumps(sl_to_dict(problem)))


def load_sl(path):
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInput("malformed JSON: %s" % exc)
    return sl_from_dict(d)


def spectrum_to_dict(result):
    eigs = []
    for rec in result.records:
        eigs.append({
            "re": float(rec.lam.real),
            "im": float(rec.lam.imag),
            "alg": int(rec.alg_mult),
            "geo": int(rec.geo_mult),
            "type1": int(rec.type1_mult),
            "type2": int(rec.type2_mult),
            "residual": float(rec.residual),
        })
    return {
        "eta": float(result.eta),
        "eigenvalues": eigs,
        "discarded_infinite": int(result.discarded_infinite),
    }


def zeros_to_list(records):
    return [{
        "re": float(r.z.real),
        "im": float(r.z.imag),
        "mult": int(r.multiplicity),
        "residual": float(r.residual),
    } for r in records]


def report_to_dict(report):
    return {"checks": [{
        "name": c.name,
        "status": c.status,
        "details": c.details,
        "witnesses": [{"re": float(complex(wz).real),
                       "im": float(complex(wz).imag)} for wz in c.witnesses],
    } for c in report.checks]}


def resonant_to_dict(report):
    out = report_to_dict(report)
    out["n_resonant"] = int(report.n_resonant)
    out["conservation"] = report.conservation
    out["zeros_main"] = zeros_to_list(report.zeros_main)
    return out


def _csv_float(x):
    return repr(float(x))


def tracks_to_csv(tset):
    lines = ["eta,branch_id,re,im,escaped"]
    for i, eta in enumerate(tset.eta_grid):
        for branch in tset.branches:
            v = branch.values[i] if i < len(branch.values) else None
            if v is None:
                lines.append("%s,%d,,,1" % (_csv_float(eta), branch.ident))
            else:
                lines.append("%s,%d,%s,%s,0" % (
                    _csv_float(eta), branch.ident,
                    _csv_float(v.real), _csv_float(v.imag),
                ))
    return "\n".join(lines) + "\n"


def events_to_csv(events):
    lines = ["eta_star,re,im,kind,participants"]
    for ev in events:
        lines.append("%s,%s,%s,%d,%s" % (
            _csv_float(ev.eta_star),
            _csv_float(ev.lambda_star.real),
            _csv_float(ev.lambda_star.imag),
            int(ev.kind),
            "|".join(str(p) for p in ev.participants),
        ))
    return "\n".join(lines) + "\n"
