"""Self-tests of the benchmark: a tiny smoke run and planted faults.

    python3 perfbench/selftest.py

Runs every workload at the 'tiny' size with tracing off and on, checks the
result line against BENCHMARK.json (every metric name and unit), then
plants faults in real payloads (a shifted eigenvalue, a dropped zero, a
moved track value, a bundle error with no recorded cause) and requires
the references to reject each one.
"""

import contextlib
import copy
import io
import json
import os
import sys

import numpy as np

import run
import reference
import workloads

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def smoke(bench):
    for trace_flag, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[group]}
        for w in bench["workloads"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", w["name"], "--seed", "7",
                                 "--seconds", "0.01", "--trace", str(trace_flag),
                                 "--size", "tiny"])
            assert code == 0, (w["name"], code)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] and result["failed"] == 0, (w["name"], out.getvalue())
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace_flag, got)
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
            print("smoke ok: %s trace=%d" % (w["name"], trace_flag))


def payload(op):
    from gyropencil import cli
    _, rc, out, err, _ = run.run_op(cli, op)
    assert rc == 0, (op.label, err)
    return out


def planted(workdir):
    ref = reference.Reference()
    rng = np.random.default_rng(3)

    op = workloads.solve(rng, workdir, "tiny").ops[0]
    out = payload(op)
    assert reference.classify(ref, op, 0, out, "")[0] == "pass"
    doc = json.loads(out)
    bad = copy.deepcopy(doc)
    mid = bad["eigenvalues"][len(bad["eigenvalues"]) // 2]
    mid["re"] += 1e-3 * (1.0 + abs(complex(mid["re"], mid["im"])))
    assert reference.classify(ref, op, 0, json.dumps(bad), "")[0] == "unexpected"
    bad = copy.deepcopy(doc)
    rec = next(e for e in bad["eigenvalues"] if e["type1"] > 0)
    rec["type1"], rec["type2"] = rec["type1"] - 1, rec["type2"] + 1
    assert reference.classify(ref, op, 0, json.dumps(bad), "")[0] == "unexpected"
    print("planted ok: shifted eigenvalue and lost type-I flag are flagged")

    op = workloads.resonant_roots(rng, workdir, "tiny").ops[-1]
    out = payload(op)
    assert reference.classify(ref, op, 0, out, "")[0] == "pass"
    zeros = json.loads(out)
    assert zeros, "window holds no zeros"
    assert reference.classify(ref, op, 0, json.dumps(zeros[1:]), "")[0] == "unexpected"
    print("planted ok: dropped zero is flagged")

    # a bundle with its recorded origin_double_zero failure must still
    # report the main window right, and may raise a contour error only
    # when a zero of omega lies near that contour
    from gyropencil import cli
    bundles = [o for o in workloads.resonant_roots(rng, workdir, "tiny").ops
               if o.kind == "roots"]
    op = bundles[-1]
    _, rc, out, err, _ = run.run_op(cli, op)
    assert reference.classify(ref, op, rc, out, err)[0] in ("pass", "defect"), err
    doc = json.loads(out)
    doc["zeros_main"] = doc["zeros_main"][1:]
    assert reference.classify(ref, op, rc, json.dumps(doc), err)[0] == "unexpected"
    op = next(o for o in bundles if not reference.zero_near_contour(o.oracle))
    err = "error: contour keeps passing through a zero: |f| dips to zero"
    assert reference.classify(ref, op, 1, "", err)[0] == "unexpected"
    print("planted ok: wrong main window and unexplained BoundaryZero are flagged")

    op = workloads.string_track(rng, workdir, "tiny").ops[0]
    out = payload(op)
    assert reference.classify(ref, op, 0, out, "")[0] == "pass"
    lines = out.split("\n")
    last = max(i for i, ln in enumerate(lines) if ln.count(",") == 4 and ln.endswith(",0"))
    fields = lines[last].split(",")
    fields[2] = repr(float(fields[2]) + 1e-3)
    lines[last] = ",".join(fields)
    assert reference.classify(ref, op, 0, "\n".join(lines), "")[0] == "unexpected"
    print("planted ok: moved final track value is flagged")


def main():
    sys.path.insert(0, run.SRC)
    smoke(spec())
    workdir = os.path.join(run.OUT, "selftest-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        planted(workdir)
    finally:
        run.shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
