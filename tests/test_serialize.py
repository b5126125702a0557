import json
import os

import numpy as np
import pytest

from gyropencil import fixtures, serialize
from gyropencil.sturm import SLProblem
from gyropencil.errors import InvalidInput
from gyropencil.pencil import spectrum
from gyropencil.rootfind import RootWindow, find_zeros

import support


def test_pencil_round_trip_fixtures():
    for spec in (fixtures.w1(), fixtures.w2(), fixtures.w3()):
        d = serialize.pencil_to_dict(spec)
        back = serialize.pencil_from_dict(d)
        assert np.allclose(back.m, spec.m)
        assert np.allclose(back.g, spec.g)
        assert np.allclose(back.a, spec.a)
        assert d["M"] == {"kind": "identity_block", "data": int(np.trace(spec.m))}
        assert serialize.pencil_to_dict(back) == d
        assert (back.rank_one is None) == (spec.rank_one is None)


def test_pencil_round_trip_dense_random():
    rng = np.random.default_rng(79)
    spec = support.rand_definite_spec(rng, n_max=5)
    d = serialize.pencil_to_dict(spec)
    back = serialize.pencil_from_dict(d)
    assert np.allclose(back.m, spec.m, atol=0)
    assert np.allclose(back.g, spec.g, atol=0)
    assert np.allclose(back.a, spec.a, atol=0)


def test_float_repr_survives_json():
    rng = np.random.default_rng(83)
    spec = support.rand_definite_spec(rng, n_max=4)
    text = serialize.dumps(serialize.pencil_to_dict(spec))
    back = serialize.pencil_from_dict(json.loads(text))
    assert np.array_equal(back.a, spec.a)


def test_rank_one_expansion():
    d = {"n": 3, "M": {"kind": "identity_block", "data": 3},
         "G": {"kind": "rank_one", "b": 2.5, "e_index": 1},
         "A": {"kind": "dense", "data": np.eye(3).tolist()}}
    spec = serialize.pencil_from_dict(d)
    expect = np.zeros((3, 3))
    expect[1, 1] = 2.5
    assert np.allclose(spec.g, expect)
    assert np.array_equal(spec.rank_one.g, [0.0, 1.0, 0.0])
    # the same G spelled out densely is found and written back as rank_one
    dense = dict(d, G={"kind": "dense", "data": expect.tolist()})
    assert serialize.pencil_to_dict(serialize.pencil_from_dict(dense)) == d


def test_off_axis_rank_one_saves_dense(tmp_path):
    # a rank-one G off every axis is the coupling but has no rank_one
    # shorthand: it saves as dense, and loads and saves back byte-identical
    rng = np.random.default_rng(3)
    spec = support.rand_condition1_spec(rng)
    rot = support.rotated_spec(spec, rng)
    assert rot.rank_one is not None and rot.g_rows.size == spec.n
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    serialize.save_pencil(rot, first)
    assert json.loads(first.read_text())["G"]["kind"] == "dense"
    serialize.save_pencil(serialize.load_pencil(first), second)
    assert first.read_bytes() == second.read_bytes()
    # the axis original keeps its rank_one form
    assert serialize.pencil_to_dict(spec)["G"]["kind"] == "rank_one"


@pytest.mark.parametrize("m_in, m_out", [
    ({"kind": "dense", "data": [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.0]]},
     {"kind": "diag", "data": [2.0, 3.0, 0.0]}),
    ({"kind": "dense", "data": np.eye(3).tolist()}, {"kind": "identity_block", "data": 3}),
    ({"kind": "diag", "data": [1.0, 1.0, 0.0]}, {"kind": "identity_block", "data": 2}),
    ({"kind": "diag", "data": [0.0, 1.0, 1.0]}, None),
    ({"kind": "diag", "data": [1.0, 0.5, 0.0]}, None),
    ({"kind": "identity_block", "data": 0}, None),
    ({"kind": "dense", "data": [[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]]}, None),
])
def test_m_kind_is_read_from_m(m_in, m_out):
    # M is written in the most structured kind it takes: a 0/1 leading
    # block as identity_block, another diagonal as diag, else dense
    d = {"n": 3, "M": m_in, "G": {"kind": "rank_one", "b": 1.5, "e_index": 2},
         "A": {"kind": "dense", "data": (2.0 * np.eye(3)).tolist()}}
    back = serialize.pencil_to_dict(serialize.pencil_from_dict(d))
    assert back == dict(d, M=m_out or m_in)


def test_schema_rejections():
    good = serialize.pencil_to_dict(fixtures.w3())

    def broken(**kw):
        d = json.loads(json.dumps(good))
        d.update(kw)
        return d

    with pytest.raises(InvalidInput):
        serialize.pencil_from_dict([1, 2])
    with pytest.raises(InvalidInput):
        serialize.pencil_from_dict(broken(n=0))
    with pytest.raises(InvalidInput):
        serialize.pencil_from_dict(broken(M={"kind": "mystery"}))
    with pytest.raises(InvalidInput):
        serialize.pencil_from_dict(
            broken(G={"kind": "rank_one", "b": -1.0, "e_index": 0}))
    with pytest.raises(InvalidInput):
        serialize.pencil_from_dict(
            broken(G={"kind": "rank_one", "b": 1.0, "e_index": 5}))
    with pytest.raises(InvalidInput):
        serialize.pencil_from_dict(
            broken(A={"kind": "dense", "data": [[1.0, 0.0]]}))
    d = json.loads(json.dumps(good))
    del d["A"]
    with pytest.raises(InvalidInput):
        serialize.pencil_from_dict(d)


def test_sl_round_trip():
    p = fixtures.sl_double_q4()
    back = serialize.sl_from_dict(serialize.sl_to_dict(p))
    assert back == p
    rng = np.random.default_rng(89)
    qs = tuple(float(x) for x in rng.uniform(-5, 5, size=9))
    p2 = SLProblem(
        variant="single", q_kind="sampled", q_values=qs, a=2.0, alpha=0.4, n=8)
    back2 = serialize.sl_from_dict(serialize.sl_to_dict(p2))
    assert back2 == p2


def test_save_load_files(tmp_path):
    spec = fixtures.w2()
    path = os.path.join(tmp_path, "w2.json")
    serialize.save_pencil(spec, path)
    back = serialize.load_pencil(path)
    assert np.allclose(back.a, spec.a)

    bad = os.path.join(tmp_path, "broken.json")
    with open(bad, "w") as fh:
        fh.write("{not json")
    with pytest.raises(InvalidInput):
        serialize.load_pencil(bad)


def test_fixture_files_on_disk(fixture_dir):
    for name, builder in (("W1", fixtures.w1), ("W2", fixtures.w2),
                          ("W3", fixtures.w3)):
        spec = serialize.load_pencil(os.path.join(fixture_dir, name + ".json"))
        ref = builder()
        assert np.allclose(spec.m, ref.m)
        assert np.allclose(spec.g, ref.g)
        assert np.allclose(spec.a, ref.a)
    single = serialize.load_sl(os.path.join(fixture_dir, "single_q4.json"))
    assert single == fixtures.sl_single_q4()
    double = serialize.load_sl(os.path.join(fixture_dir, "double_q4.json"))
    assert double == fixtures.sl_double_q4()
    assert double.paper_sign_convention


def test_write_all_reproduces_the_fixture_files(tmp_path, fixture_dir):
    # the CLI tests and the benchmark read the committed files
    paths = fixtures.write_all(str(tmp_path / "fixtures"))
    names = sorted(os.path.basename(p) for p in paths)
    assert names == sorted(os.listdir(fixture_dir))
    for path in paths:
        with open(path, "rb") as fh, \
                open(os.path.join(fixture_dir, os.path.basename(path)), "rb") as ref:
            assert fh.read() == ref.read(), path


def test_spectrum_to_dict_shape():
    res = spectrum(fixtures.w1(), 1.0)
    d = serialize.spectrum_to_dict(res)
    assert d["eta"] == 1.0
    assert d["discarded_infinite"] == 1
    assert sorted(e["re"] for e in d["eigenvalues"]) == pytest.approx([-1.0, 1.0])
    for e in d["eigenvalues"]:
        assert set(e) == {"re", "im", "alg", "geo", "type1", "type2", "residual"}


def test_zeros_to_list_shape():
    zs = find_zeros(lambda z: z * (z - 1.0), RootWindow(-2, 2, -1, 1))
    rows = serialize.zeros_to_list(zs)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {"re", "im", "mult", "residual"}
        assert row["mult"] == 1


def test_tracks_csv_layout():
    from gyropencil.homotopy import track
    tset = track(fixtures.w3(), 0.3, 0.5, steps=5)
    text = serialize.tracks_to_csv(tset)
    lines = text.strip().split("\n")
    assert lines[0] == "eta,branch_id,re,im,escaped"
    assert len(lines) == 1 + len(tset.eta_grid) * len(tset.branches)
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.3)


def test_events_csv_layout():
    from gyropencil.homotopy import track
    tset = track(fixtures.w3(), 0.0, 1.0, steps=101)
    text = serialize.events_to_csv(tset.events)
    lines = text.strip().split("\n")
    assert lines[0] == "eta_star,re,im,kind,participants"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert abs(float(cells[0]) - 0.6) <= 1e-3
    assert cells[3] == "2"
    assert cells[4] == "1|2"
