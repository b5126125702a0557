"""Exit code and sha256 of every CLI payload of a fixed list of operations.

    python tools/payload_digests.py [TREE]

Runs each operation as ``python -m gyropencil.cli ...`` on the source in
TREE/src (default: this checkout), one fresh process per operation, with
one BLAS thread and no bytecode written, and prints one line per
operation: its exit code, the sha256 of its standard output followed by
its standard error, and its label.
Running it on two trees and diffing the outputs shows which payloads a
change altered, error text included.  Input documents are written to a
temporary directory and read from TREE/fixtures; none of them depends on
the tree's code.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ETAS = ("0", "1e-12", "0.25", "0.7", "1")
# bundles at q = 1, 4, 9, the four recorded defect inputs (BoundaryZero
# twice, the origin zero off by 3.7e-8, SubdivisionStall), an N = 1
# bundle, and windows of omega and of the shooting function
ROOTS = (
    ["--fn", "omega", "--q", "1", "--a", "pi", "--alpha", "1"],
    ["--fn", "omega", "--q", "4", "--a", "pi", "--alpha", "1"],
    ["--fn", "omega", "--q", "9", "--a", "pi", "--alpha", "1"],
    ["--fn", "omega", "--q", "16.0", "--a", "pi", "--alpha", "1.0"],
    ["--fn", "omega", "--q", "25.0", "--a", "pi", "--alpha", "1.0"],
    ["--fn", "omega", "--q", "9.0", "--a", "pi", "--alpha", "0.5"],
    ["--fn", "omega", "--q", "4.703950536043968", "--a", "2.897",
     "--alpha", "0.958"],
    ["--fn", "omega", "--q", repr((np.pi / 3.1535) ** 2), "--a", "3.1535",
     "--alpha", "1.1851"],
    ["--fn", "omega", "--q", "4", "--a", "pi", "--alpha", "1",
     "--window=-0.5,0.5,-0.5,0.5"],
    ["--fn", "omega", "--q", "4", "--a", "pi", "--alpha", "1",
     "--window=-0.5,6,-3,3"],
    ["--fn", "omega", "--q", "4", "--a", "pi", "--alpha", "1",
     "--window=-12,-0.02,-0.05,0.05"],
    ["--fn", "shoot", "--q", "4", "--a", "pi", "--alpha", "1", "--n", "12",
     "--window=1.0,4.0,-1.0,1.0"],
    ["--fn", "shoot", "--q", "4", "--a", "pi", "--alpha", "1", "--n", "12",
     "--window=-4.0,-1.0,-1.0,1.0"],
)


def _write(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _dense_pencil(rng, n):
    """Singular diagonal M, dense PSD G of rank 3, random symmetric A."""
    mass = np.where(np.arange(n) < n - n // 5, rng.uniform(0.5, 2.0, n), 0.0)
    b = rng.standard_normal((n, 3)) / np.sqrt(n)
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    return {"n": n, "M": {"kind": "diag", "data": mass.tolist()},
            "G": {"kind": "dense", "data": (b @ b.T).tolist()},
            "A": {"kind": "dense", "data": (0.5 * (a + a.T)).tolist()}}


def _rank_one_pencil(rng, n):
    """Identity block M, axis rank-one G on a massless coordinate, random
    symmetric A with a +-1 diagonal shift."""
    k = n - n // 4
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    a = 0.5 * (a + a.T)
    a[np.arange(n), np.arange(n)] += rng.choice([-1.0, 1.0], n)
    return {"n": n, "M": {"kind": "identity_block", "data": k},
            "G": {"kind": "rank_one", "b": 1.3, "e_index": n - 1},
            "A": {"kind": "dense", "data": a.tolist()}}


def _rotated_w3():
    """W3 (M = I, G = e_2 e_2^T, A = diag(1, -0.09)) as Q^T (M, G, A) Q, Q
    the rotation by 0.6 rad: the same pencil with G off both axes."""
    c, s = np.cos(0.6), np.sin(0.6)
    q = np.array([[c, -s], [s, c]])
    mats = {"M": np.eye(2), "G": np.diag([0.0, 1.0]), "A": np.diag([1.0, -0.09])}
    doc = {"n": 2}
    for key, mat in mats.items():
        doc[key] = {"kind": "dense", "data": (q.T @ mat @ q).tolist()}
    return doc


def operations(tree, workdir):
    """(label, argv) of every operation, inputs written to workdir."""
    ops = []
    for name in ("W1", "W2", "W3"):
        path = os.path.join(tree, "fixtures", name + ".json")
        ops += [("%s spectrum eta=%s" % (name, eta),
                 ["spectrum", "--input", path, "--eta", eta]) for eta in ETAS]
        ops.append(("%s verify eta=0.7" % name,
                    ["verify", "--input", path, "--eta", "0.7"]))
        ops.append(("%s track 0..1/41" % name,
                    ["track", "--input", path, "--steps", "41"]))
    ops.append(("sturm --solve double q=4 n=80",
                ["sturm", "--variant", "double", "--q", "4", "--a", "pi",
                 "--alpha", "1", "--n", "80", "--paper-sign-convention",
                 "--solve", "--eta", "1.0"]))
    with open(os.path.join(tree, "fixtures", "double_q4.json")) as fh:
        doc = dict(json.load(fh), n=60)
    ops.append(("verify --sturm double_q4 n=60",
                ["verify", "--sturm", _write(workdir, "double_q4.json", doc)]))
    ops += [("roots " + " ".join(argv), ["roots"] + argv) for argv in ROOTS]
    path = _write(workdir, "W3_rotated.json", _rotated_w3())
    ops += [("W3 rotated spectrum eta=0.7", ["spectrum", "--input", path, "--eta", "0.7"]),
            ("W3 rotated verify eta=0.7", ["verify", "--input", path, "--eta", "0.7"]),
            ("W3 rotated track 0..1/41", ["track", "--input", path, "--steps", "41"])]
    rng = np.random.default_rng(0)
    for name, doc in (("dense n=120", _dense_pencil(rng, 120)),
                      ("rank_one n=60", _rank_one_pencil(rng, 60))):
        path = _write(workdir, name.split()[0] + ".json", doc)
        ops.append((name + " spectrum eta=0.7",
                    ["spectrum", "--input", path, "--eta", "0.7"]))
        ops.append((name + " verify eta=0.7",
                    ["verify", "--input", path, "--eta", "0.7"]))
    return ops


def main(argv):
    tree = os.path.abspath(argv[1] if len(argv) > 1 else ROOT)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as workdir:
        for label, args in operations(tree, workdir):
            run = subprocess.run(
                [sys.executable, "-m", "gyropencil.cli"] + args,
                cwd=workdir, env=env, capture_output=True)
            digest = hashlib.sha256(run.stdout + run.stderr).hexdigest()
            print("exit=%d %s %s" % (run.returncode, digest, label),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
