import ast
import collections
import inspect
import pathlib

import numpy as np
import pytest

from gyropencil import linalg
from gyropencil.errors import DimensionMismatch
from gyropencil.pencil import PencilSpec, count_negative_modes


def test_rank_zero_matrix():
    assert linalg.rank_with_tol(np.zeros((4, 4))) == 0


def test_rank_outer_product():
    u = np.array([1.0, -2.0, 3.0])
    assert linalg.rank_with_tol(np.outer(u, u)) == 1


def test_rank_near_identity_perturbation():
    rng = np.random.default_rng(11)
    m = np.eye(5) + 1e-14 * rng.normal(size=(5, 5))
    assert linalg.rank_with_tol(m) == 5


def test_rank_explicit_tol_overrides():
    m = np.diag([1.0, 1e-9, 0.0])
    assert linalg.rank_with_tol(m) == 2
    assert linalg.rank_with_tol(m, tol=1e-6) == 1


def test_symmetry_defect_and_gate():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert linalg.symmetry_defect(m) == 0.0
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert linalg.symmetry_defect(bad) == 2.0


def test_eigen_standard_sorted_with_residuals():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(7, 7))
    dec = linalg.eigen_standard(m)
    res = dec.values.real
    assert np.all(np.diff(res) >= -1e-12)
    for lam, v in zip(dec.values, dec.vectors.T):
        assert np.linalg.norm(m @ v - lam * v) <= 1e-8 * max(
            1.0, linalg.max_abs(m))


def test_eigen_standard_stack_matches_single_calls():
    # each item of a stack is solved and sorted as one call alone, bit for
    # bit; the stack is complex as soon as one item has nonreal values
    rng = np.random.default_rng(5)
    sym = rng.normal(size=(6, 6))
    stack = np.stack([rng.normal(size=(6, 6)), sym + sym.T, rng.normal(size=(6, 6))])
    dec = linalg.eigen_standard(stack)
    for t, mat in enumerate(stack):
        one = linalg.eigen_standard(mat)
        assert np.array_equal(dec.values[t], one.values)
        assert np.array_equal(dec.vectors[t], one.vectors)


def test_smallest_singular_value():
    m = np.diag([4.0, 0.5, 2.0])
    assert linalg.smallest_singular_value(m) == pytest.approx(0.5)


def _axis_coupling(n, e_index, b=1.0):
    g = np.zeros((n, n))
    g[e_index, e_index] = b
    return g


def test_count_negative_definite_mass():
    # a dense definite G: the count_identity path
    a = np.diag([-3.0, -1.0, 2.0, 5.0])
    m = np.eye(4)
    assert count_negative_modes(PencilSpec(m, np.eye(4), a)) == 2


def test_count_negative_scaled_mass():
    # lambda solves lambda m_i = a_i, so signs follow a_i for m_i > 0
    a = np.diag([-2.0, 4.0])
    m = np.diag([0.5, 8.0])
    g = _axis_coupling(2, 1)
    assert count_negative_modes(PencilSpec(m, g, a)) == 1
    assert count_negative_modes(PencilSpec(m, np.eye(2), a)) == 1


def test_count_negative_random_congruence_invariance():
    # congruence preserves the inertia-based count when M stays definite,
    # on both routes: the cached modes (axis rank-one G) and a dense G
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        r = rng.normal(size=(n, n))
        m = r @ r.T + 0.3 * np.eye(n)
        linv = np.linalg.inv(np.linalg.cholesky(m))
        direct = int(np.sum(np.linalg.eigvalsh(linv @ a @ linv.T) < 0))
        g = _axis_coupling(n, int(rng.integers(n)))
        assert count_negative_modes(PencilSpec(m, g, a)) == direct
        s = rng.normal(size=(n, n))
        dense_g = s @ s.T + 0.1 * np.eye(n)
        assert count_negative_modes(PencilSpec(m, dense_g, a)) == direct


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        PencilSpec(np.eye(2), np.eye(2), np.eye(3))


def test_as_matrix_rejects_ragged():
    with pytest.raises(Exception):
        linalg.as_matrix([[1.0, 2.0], [3.0]])


def test_public_linalg_functions_have_src_callers():
    # linalg is the kernel of the package: a public function no other
    # module calls is dead code, whatever the tests make of it
    src = pathlib.Path(linalg.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "linalg"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "linalg":
                used.update(alias.name for alias in node.names)
    public = {name for name, fn in inspect.getmembers(linalg, inspect.isfunction)
              if fn.__module__ == linalg.__name__ and not name.startswith("_")}
    assert public - used == set()


def _referenced_names(node):
    """Every name the AST below node reads, as a Name, an attribute or an
    imported alias."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_private_src_definitions_have_src_references():
    # an underscore function or class of the package that nothing in src/
    # refers to outside its own definition is reached by the tests alone:
    # it belongs in tests/support.py, not in the package
    src = pathlib.Path(linalg.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    refs = collections.Counter(name for tree in trees for name in _referenced_names(tree))
    unreferenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                own = sum(name == node.name for name in _referenced_names(node))
                if refs[node.name] <= own:
                    unreferenced.add(node.name)
    assert unreferenced == set()


def test_private_src_function_parameters_are_read():
    # a parameter an underscore function never reads is passed for nothing:
    # every caller computes an argument the function ignores
    src = pathlib.Path(linalg.__file__).parent
    unread = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_") and not node.name.endswith("__")):
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                          + [a for a in (args.vararg, args.kwarg) if a is not None]]
                read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
                unread.update("%s.%s(%s)" % (path.stem, node.name, p)
                              for p in params if p not in read)
    assert unread == set()
