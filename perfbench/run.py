"""Benchmark for the gyropencil command line, end to end and per layer.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/`` and
driven through ``gyropencil.cli.main`` with stdout captured, by one
closed-loop client.  A round is the workload's seeded op list (see
``workloads.py``); rounds repeat until ``--seconds`` of op time is spent.
A workload's probe ops run once, before the rounds: they count in
``fail_frac`` but not in the timed metrics.
Each op runs in a child forked from the warmed benchmark process, so no
op can reuse results an earlier op or round computed.  Every op's output
is checked against the independent references in ``reference.py``,
outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics from the
traced ones (``tracing.py``); its spans go to ``.perfbench/``.  The last
stdout line is the JSON result; the lines before it are the report.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 7
TAIL_BEYOND = 10

# One BLAS thread, set before numpy loads.  On a shared 2-core machine
# two OpenBLAS threads made these mostly small-matrix workloads 2-3x slower
# and far noisier (track: 2.9-4.3 s vs 1.2-1.7 s per run).
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Each op's time is its median over the run's rounds (every repeat runs
# in a fresh fork, see run_op, so none reuses a result).  wall_s sums them
# over the op list; op1_s / op2_s average them over the op1 (op2) ops.
# These raw times are in the report.  A shared host's speed moves by
# 10-30% for minutes at a time, alike for the program and for any fixed
# piece of work, so the gated *_norm_s metrics scale them by
# CAL_REF_S / (median time of calibrate(), run after every op of the same
# run): seconds on a host where calibrate() takes CAL_REF_S, which is about
# its median on the 2-core host the benchmark was defined on.  setup_s is
# raw seconds.
CAL_REF_S = 0.006
END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "op1_norm_s": "s", "op2_norm_s": "s"}


def environment(seed):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except OSError:
        sha = ""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gyropencil")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {"nproc": NPROC, "blas_threads": BLAS_THREADS, "blas": blas.get("name"),
            "openblas": blas.get("version"), "numpy": np.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0],
            "git_sha": sha or "unavailable", "src_sha256": digest.hexdigest()[:16],
            "seed": seed}


def time_import():
    """Seconds to import the CLI in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import gyropencil.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError("importing gyropencil failed:\n" + done.stderr)
    return float(done.stdout.strip().splitlines()[-1])


def setup(name, seed, size, workdir):
    """Median import time plus median input-build time, each repeated."""
    imports = [time_import() for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        t0 = time.perf_counter()
        wl = workloads.BUILDERS[name](np.random.default_rng(seed), workdir, size)
        builds.append(time.perf_counter() - t0)
    return wl, statistics.median(imports) + statistics.median(builds)


def call(cli, op):
    """Run one op in this process: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(op.argv)
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


def run_op(cli, op, tracer=None):
    """Run one op in a child forked from this process and return
    (seconds, exit code, stdout, stderr, new spans).

    The child starts from this process's warmed state and whatever the op
    computes dies with it, so every repeat pays in full, as a fresh CLI
    call would.  With ``tracer`` the child runs traced and sends back its
    spans, numbered after the ones ``tracer`` already holds."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            try:
                base = len(tracer.spans) if tracer else 0
                if tracer:
                    tracer.install()
                res = call(cli, op) + ((tracer.spans[base:] if tracer else []),)
            except BaseException:
                res = (0.0, -1, "", traceback.format_exc(), [])
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump(res, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("the child running %r failed (status %d)" % (op.label, status))
    return pickle.loads(data)


def warm_up(cli, name, seed, workdir):
    """Run the workload's tiny op list once in this process, so lazy
    imports and library set-up are done before the forked ops.  Its inputs
    come from another seed at other sizes, and ops on the shared fixture
    files are left out, so no measured input is computed here."""
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.BUILDERS[name](np.random.default_rng(seed + 7919), workdir, "tiny")
    for op in wl.ops:
        if not any(arg.startswith(workloads.FIXTURES) for arg in op.argv):
            call(cli, op)


def run_probes(cli, wl, ref):
    """Run each probe op of the workload once, untraced, before the
    rounds: a list of (seconds, verdict)."""
    done = []
    for op in wl.probes:
        dt, rc, out, err, _ = run_op(cli, op)
        done.append((dt, reference.classify(ref, op, rc, out, err)))
    return done


def tail(samples):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples beyond it, or None when that is not above p50."""
    k = len(samples) - TAIL_BEYOND
    if 2 * k <= len(samples):
        return None
    return sorted(samples)[k - 1], 100.0 * k / len(samples)


_CAL = np.random.default_rng(0).standard_normal((60, 60))


def calibrate():
    """Seconds for a fixed piece of work that shares no code with the
    program: a Python loop and a small eig, like the program's mix."""
    t0 = time.perf_counter()
    s = 0
    for i in range(40000):
        s += i * i % 7
    np.linalg.eigvals(_CAL)
    return time.perf_counter() - t0


def measure(wl, seconds, traced_mode, tracer, ref):
    """Run whole rounds until ``seconds`` of op time is spent; in traced
    mode odd rounds are traced and at least one of each kind runs."""
    from gyropencil import cli
    rounds = []
    verdicts = {}       # (op index, exit code, output digest) -> classify()
    spent = 0.0
    while True:
        traced = traced_mode and len(rounds) % 2 == 1
        rec = {"traced": traced, "times": [], "cal": [], "status": [], "bytes": 0,
               "checks_failed": 0}
        for i, op in enumerate(wl.ops):
            tracer.op = i
            dt, rc, out, err, spans = run_op(cli, op, tracer if traced else None)
            tracer.spans.extend(spans)
            rec["times"].append(dt)
            rec["cal"].append(calibrate())
            rec["bytes"] += len(out.encode())
            key = (i, rc, hashlib.sha256((out + err).encode()).hexdigest())
            if key not in verdicts:
                verdicts[key] = reference.classify(ref, op, rc, out, err)
            rec["status"].append(verdicts[key])
            if op.kind == "verify":
                rec["checks_failed"] += verdicts[key][2]
        rounds.append(rec)
        spent += sum(rec["times"])
        both = not traced_mode or len(rounds) >= 2
        if spent >= seconds and both:
            return rounds


def report(wl, rounds, probes, setup_s, env, args):
    """Print the readable report; return (end-to-end metrics, attempted,
    unexpected failures, fail_frac)."""
    plain = [r for r in rounds if not r["traced"]]
    walls = [sum(r["times"]) for r in plain]
    statuses = [s for r in rounds for s in r["status"]] + [p[1] for p in probes]
    attempted = len(statuses)
    defects, unexpected = {}, []
    for op, s in zip(wl.ops * len(rounds) + wl.probes, statuses):
        if s[0] == "defect":
            defects[s[1]] = defects.get(s[1], 0) + 1
        elif s[0] == "unexpected":
            unexpected.append("%s [%s]: %s" % (op.kind, op.label, s[1]))
    failed = len(unexpected)
    missed = failed + sum(defects.values())

    print("env %s" % json.dumps(env, sort_keys=True))
    print("workload %s seed %d: %d rounds (%d traced), %d ops, closed loop, 1 client"
          % (wl.name, args.seed, len(rounds), len(rounds) - len(plain), attempted))
    for slot, group in (("op1", wl.op1), ("op2", wl.op2)):
        for kind in sorted({op.kind for op in wl.ops if op.slot == slot}):
            vals = [dt for r in plain for op, dt in zip(wl.ops, r["times"])
                    if op.slot == slot and op.kind == kind]
            name = "%s.%s" % (group, kind)
            print("  %-26s %.6f s  (%s, %d samples)"
                  % (name + "_p50_s", statistics.median(vals), slot, len(vals)))
            t = tail(vals)
            print("  %-26s %s" % (name + "_tail_s", "%.6f s  (p%.1f of %d samples)"
                                  % (t[0], t[1], len(vals)) if t else
                                  "n/a  (%d samples; needs > %d)"
                                  % (len(vals), 2 * TAIL_BEYOND)))
    print("  %-26s %.6f s  (median of %d rounds)" % ("round_p50_s", statistics.median(walls),
                                                     len(walls)))
    print("  %-26s %.6f s" % ("setup_s", setup_s))
    print("  %-26s %.6f  (%d of %d ops missed; baseline defects %s)"
          % ("fail_frac", missed / attempted, missed, attempted,
             json.dumps(defects, sort_keys=True)))
    for i, op in enumerate(wl.ops):
        print("  oracle %-7s %-34s %s %s" % (op.kind, op.label, *rounds[0]["status"][i][:2]))
    for op, (dt, status) in zip(wl.probes, probes):
        print("  probe  %-7s %-34s %s %s  (%.6f s, once)" % (op.kind, op.label, *status[:2], dt))
    for line in sorted(set(unexpected)):
        print("  UNEXPECTED %s" % line)
    med = [statistics.median(r["times"][i] for r in plain) for i in range(len(wl.ops))]
    raw = {"wall": sum(med)}
    print("  %-26s %.6f s  (sum of per-op medians of %d rounds)"
          % ("wall_s", raw["wall"], len(plain)))
    for slot in ("op1", "op2"):
        raw[slot] = statistics.mean(t for op, t in zip(wl.ops, med) if op.slot == slot)
        print("  %-26s %.6f s  (mean of per-op medians)" % (slot + "_s", raw[slot]))
    cal = [c for r in rounds for c in r["cal"]]
    scale = CAL_REF_S / statistics.median(cal)
    print("  %-26s %.6f s  (median of %d; *_norm_s = raw x %.4f)"
          % ("calibrate_s", statistics.median(cal), len(cal), scale))
    metrics = {"setup_s": setup_s}
    for key, value in raw.items():
        metrics[key + "_norm_s"] = value * scale
        print("  %-26s %.6f s" % (key + "_norm_s", metrics[key + "_norm_s"]))
    return metrics, attempted, failed, missed / attempted


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gyropencil", "cli.py")):
        print("error: no program source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    try:
        wl, setup_s = setup(args.workload, args.seed, args.size, workdir)
        import gyropencil
        if not os.path.abspath(gyropencil.__file__).startswith(SRC):
            print("error: gyropencil imported from outside %s" % SRC, file=sys.stderr)
            return 2
        env = environment(args.seed)
        ref = reference.Reference()
        for op in wl.ops:                       # references, outside timing
            if "eta" in op.oracle:
                ref.spectrum(op.oracle)
        from gyropencil import cli
        warm_up(cli, args.workload, args.seed, workdir + "-warm")
        probes = run_probes(cli, wl, ref)
        tracer = tracing.Tracer()
        rounds = measure(wl, args.seconds, bool(args.trace), tracer, ref)
        metrics, attempted, failed, fail_frac = report(wl, rounds, probes, setup_s, env, args)
        if args.trace:
            traced = [r for r in rounds if r["traced"]]
            plain = [r for r in rounds if not r["traced"]]
            overhead = (statistics.median(sum(r["times"]) for r in traced)
                        / statistics.median(sum(r["times"]) for r in plain) - 1.0)
            targets = sum(op.steps for op in wl.ops)
            layer = tracing.layer_metrics(
                tracer.spans, len(traced), targets,
                traced[0]["bytes"], traced[0]["checks_failed"], fail_frac, overhead)
            for k, v in layer.items():
                print("  %-30s %14.6g %s" % (k, v["value"], v["unit"]))
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, "trace-%s-%d.json" % (args.workload, args.seed))
            with open(path, "w") as fh:
                json.dump({"env": env, "workload": args.workload,
                           "ops": [op.label for op in wl.ops],
                           "fields": ["id", "parent", "op", "name", "start", "end",
                                      "error", "extra"],
                           "spans": tracer.spans}, fh)
            print("  spans: %d written to %s" % (len(tracer.spans), os.path.relpath(path, ROOT)))
            result_metrics = layer
        else:
            result_metrics = {k: {"value": v, "unit": END_TO_END[k]}
                              for k, v in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(workdir + "-warm", ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
