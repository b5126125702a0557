"""Closed-form worked specs and the discretized string fixtures.

The three 2x2 specs have determinant factorizations small enough to solve
by hand; the two string problems are the constant-potential instances the
verification suite reproduces end to end.
"""

import os

import numpy as np

from . import serialize
from .pencil import PencilSpec
from .sturm import SLProblem


def w1():
    """Singular mass: det L = (lambda^2 - 1)(-eta lambda - 1)."""
    m = np.diag([1.0, 0.0])
    g = np.diag([0.0, 1.0])
    a = np.eye(2)
    return PencilSpec(m, g, a)


def w2():
    """Singular mass, indefinite A: det L = -eta lambda^3 - 1."""
    m = np.diag([1.0, 0.0])
    g = np.diag([0.0, 1.0])
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    return PencilSpec(m, g, a)


def w3():
    """Definite mass, one coupled coordinate with a collision at eta = 0.6."""
    m = np.eye(2)
    g = np.diag([0.0, 1.0])
    a = np.diag([1.0, -0.09])
    return PencilSpec(m, g, a)


def sl_single_q4():
    return SLProblem(
        variant="single", q_kind="const", q_value=4.0,
        a=float(np.pi), alpha=1.0, n=150, paper_sign_convention=False,
    )


def sl_double_q4():
    return SLProblem(
        variant="double", q_kind="const", q_value=4.0,
        a=float(np.pi), alpha=1.0, n=300, paper_sign_convention=True,
    )


def write_all(directory):
    """Write every fixture file; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, spec in (("W1", w1()), ("W2", w2()), ("W3", w3())):
        path = os.path.join(directory, name + ".json")
        serialize.save_pencil(spec, path)
        paths.append(path)
    for name, prob in (("single_q4", sl_single_q4()),
                       ("double_q4", sl_double_q4())):
        path = os.path.join(directory, name + ".json")
        serialize.save_sl(prob, path)
        paths.append(path)
    return paths
