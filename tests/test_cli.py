import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gyropencil import cli, fixtures, serialize


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_command(capsys, fixture_dir):
    code, out, _ = run_cli(
        capsys, "spectrum", "--input", os.path.join(fixture_dir, "W1.json"),
        "--eta", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["discarded_infinite"] == 1
    reals = sorted(round(e["re"], 6) for e in doc["eigenvalues"])
    assert reals == [-1.0, 1.0]
    by_re = {round(e["re"], 6): e for e in doc["eigenvalues"]}
    assert by_re[-1.0]["alg"] == 2


def test_spectrum_missing_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "spectrum", "--input", os.path.join(tmp_path, "nope.json"))
    assert code == 2
    assert "error" in err


def test_spectrum_condition_violation(capsys, tmp_path):
    doc = serialize.pencil_to_dict(fixtures.w3())
    doc["G"] = {"kind": "dense",
                "data": [[0.0, 0.0], [0.0, -1.0]]}
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        fh.write(serialize.dumps(doc))
    code, _, err = run_cli(capsys, "spectrum", "--input", path)
    assert code == 2
    assert "error" in err


def test_verify_pencil_pass(capsys, fixture_dir):
    code, out, _ = run_cli(
        capsys, "verify", "--input", os.path.join(fixture_dir, "W3.json"))
    assert code == 0
    doc = json.loads(out)
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["condition_I"] == "pass"
    assert "fail" not in statuses.values()


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("name", ["W1", "W2", "W3"])
def test_dense_g_gives_the_rank_one_payload(capsys, tmp_path, fixture_dir, name, command):
    # the coupling is found from G, so spelling b e e^T out as a dense
    # block changes no byte of the output
    source = os.path.join(fixture_dir, name + ".json")
    with open(source) as fh:
        doc = json.load(fh)
    n, gspec = doc["n"], doc["G"]
    g = np.zeros((n, n))
    g[gspec["e_index"], gspec["e_index"]] = gspec["b"]
    doc["G"] = {"kind": "dense", "data": g.tolist()}
    dense = os.path.join(tmp_path, name + ".json")
    with open(dense, "w") as fh:
        fh.write(serialize.dumps(doc))
    outs = [run_cli(capsys, command, "--input", path, "--eta", "0.7")
            for path in (source, dense)]
    assert outs[0][0] == 0
    assert outs[1] == outs[0]


def test_verify_rejects_condition_violation_at_load(capsys, tmp_path):
    # an indefinite dense G is refused before any check runs
    doc = serialize.pencil_to_dict(fixtures.w3())
    doc["G"] = {"kind": "dense", "data": [[0.0, 0.0], [0.0, -1.0]]}
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        fh.write(serialize.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--input", path)
    assert code == 2
    assert "error" in err


def test_verify_needs_exactly_one_input(capsys, fixture_dir):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    code, _, err = run_cli(
        capsys, "verify",
        "--input", os.path.join(fixture_dir, "W1.json"),
        "--sturm", os.path.join(fixture_dir, "single_q4.json"))
    assert code == 2


def test_verify_sturm_fixture(capsys, fixture_dir):
    code, out, _ = run_cli(
        capsys, "verify", "--sturm",
        os.path.join(fixture_dir, "single_q4.json"))
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert "single_all_type2" in names


def test_track_command_csv(capsys, fixture_dir):
    code, out, _ = run_cli(
        capsys, "track", "--input", os.path.join(fixture_dir, "W3.json"),
        "--from", "0.0", "--to", "1.0", "--steps", "101")
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    track_lines = blocks[0].strip().split("\n")
    assert track_lines[0] == "eta,branch_id,re,im,escaped"
    event_lines = blocks[1].strip().split("\n")
    assert event_lines[0] == "eta_star,re,im,kind,participants"
    assert len(event_lines) == 2
    cells = event_lines[1].split(",")
    assert abs(float(cells[0]) - 0.6) <= 1e-3
    assert abs(float(cells[1]) - 0.3) <= 1e-3
    assert cells[3] == "2"


def test_track_events_to_file(capsys, tmp_path, fixture_dir):
    events_path = os.path.join(tmp_path, "events.csv")
    out_path = os.path.join(tmp_path, "tracks.csv")
    code, out, _ = run_cli(
        capsys, "track", "--input", os.path.join(fixture_dir, "W3.json"),
        "--steps", "101", "--events", events_path, "--output", out_path)
    assert code == 0
    assert out == ""
    with open(out_path) as fh:
        assert fh.readline().strip() == "eta,branch_id,re,im,escaped"
    with open(events_path) as fh:
        lines = fh.read().strip().split("\n")
    assert len(lines) == 2


def test_sturm_command_emits_pencil(capsys):
    code, out, _ = run_cli(
        capsys, "sturm", "--variant", "single", "--q", "0", "--a", "1",
        "--alpha", "0.7", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["G"]["kind"] == "rank_one"
    assert doc["G"]["e_index"] == 3
    assert doc["G"]["b"] == 0.7


def test_sturm_solve_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "sturm", "--variant", "double", "--q", "4", "--a", "pi",
        "--n", "30", "--paper-sign-convention", "--solve")
    assert code == 0
    doc = json.loads(out)
    zero = [e for e in doc["eigenvalues"]
            if abs(e["re"]) < 1e-8 and abs(e["im"]) < 1e-8]
    assert len(zero) == 1
    assert zero[0]["alg"] == 2


def test_sturm_rejects_bad_length(capsys):
    code, _, err = run_cli(
        capsys, "sturm", "--variant", "single", "--a", "wide")
    assert code == 2


def test_roots_omega_bundle(capsys):
    code, out, _ = run_cli(
        capsys, "roots", "--fn", "omega", "--q", "4", "--a", "pi",
        "--alpha", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_resonant"] == 2
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert set(statuses.values()) == {"pass"}
    for entry in doc["conservation"]:
        assert entry["winding"] == entry["mult_sum"]


_DIP = "error: contour keeps passing through a zero: |f| dips to zero on the contour\n"


@pytest.mark.parametrize("q, a, alpha, err", [
    ("16.0", "pi", "1.0", _DIP),
    ("25.0", "pi", "1.0", _DIP),
    ("4.703950536043968", "2.897", "0.958",
     "error: no clean cut found for a cell of winding 2 at diameter 5.480e-07\n"),
])
def test_roots_omega_recorded_errors(capsys, q, a, alpha, err):
    # the error raised first, as a depth-first search meets it
    code, out, got = run_cli(
        capsys, "roots", "--fn", "omega", "--q", q, "--a", a, "--alpha", alpha)
    assert (code, out, got) == (1, "", err)


def test_roots_omega_recorded_origin_defect(capsys):
    # the origin double zero lands 3.7e-8 off 0, outside the 1e-8 check
    code, out, _ = run_cli(
        capsys, "roots", "--fn", "omega", "--q", "9.0", "--a", "pi",
        "--alpha", "0.5")
    assert code == 1
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"] if c["status"] != "pass"] == [
        "origin_double_zero"]


def test_roots_omega_nonresonant_rejected(capsys):
    code, _, err = run_cli(
        capsys, "roots", "--fn", "omega", "--q", "3", "--a", "pi")
    assert code == 2
    assert "error" in err


def test_roots_omega_window_list(capsys):
    code, out, _ = run_cli(
        capsys, "roots", "--fn", "omega", "--q", "4", "--a", "pi",
        "--alpha", "1", "--window=-0.5,0.5,-0.5,0.5")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc, list)
    assert len(doc) == 1
    assert doc[0]["mult"] == 2


def test_roots_shoot_window(capsys):
    # tan(lambda) = -1 zeros at 3 pi / 4 and 7 pi / 4
    code, out, _ = run_cli(
        capsys, "roots", "--fn", "shoot", "--q", "0", "--a", "1",
        "--alpha", "1", "--n", "120", "--window", "0.5,6.0,-0.5,0.5")
    assert code == 0
    doc = json.loads(out)
    res = sorted(row["re"] for row in doc)
    assert len(res) == 2
    assert res[0] == pytest.approx(3.0 * np.pi / 4.0, abs=1e-6)
    assert res[1] == pytest.approx(7.0 * np.pi / 4.0, abs=1e-6)


def test_roots_shoot_requires_window(capsys):
    code, _, err = run_cli(capsys, "roots", "--fn", "shoot", "--q", "0")
    assert code == 2


def test_output_flag_writes_file(capsys, tmp_path, fixture_dir):
    path = os.path.join(tmp_path, "spec.json")
    code, out, _ = run_cli(
        capsys, "spectrum", "--input", os.path.join(fixture_dir, "W2.json"),
        "--output", path)
    assert code == 0
    assert out == ""
    with open(path) as fh:
        doc = json.load(fh)
    assert len(doc["eigenvalues"]) == 3


def test_roots_does_not_load_scipy():
    # scipy.linalg is imported by the functions that solve spectra, so the
    # CLI import and a roots run leave scipy unloaded
    code = (
        "import contextlib, io, sys\n"
        "import gyropencil.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['roots', '--fn', 'omega', '--q', '4', '--a', 'pi',\n"
        "                   '--window=-0.5,0.5,-0.5,0.5'])\n"
        "    rc += cli.main(['roots', '--fn', 'shoot', '--q', '0', '--a', '1',\n"
        "                    '--n', '12', '--window', '0.5,3.0,-0.5,0.5'])\n"
        "print(rc, 'scipy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]
