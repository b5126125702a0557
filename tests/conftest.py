import os
import sys
import time

import numpy as np
import pytest
import scipy.linalg as sla

sys.path.insert(0, os.path.dirname(__file__))

from gyropencil import fixtures, pencil, sturm
from gyropencil.pencil import spectrum

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

ACCEPTANCE_LINES = []


def record_acceptance(k, name, ok):
    line = "ACCEPTANCE %d: %s: %s" % (k, name, "PASS" if ok else "FAIL")
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# bound before any test can monkeypatch it
_svdvals = sla.svdvals


@pytest.fixture(autouse=True)
def joint_kernel_clause_is_rank(monkeypatch):
    """Every spec built inside a test checks that validate_condition_I's
    joint_kernel_trivial clause, which skips the SVD for a definite M, is
    the verdict of the rank of [M; G; A] at the cutoff 3n eps sigma_max."""
    validate = pencil.validate_condition_I

    def checked(spec):
        report = validate(spec)
        stack = np.vstack([spec.m, spec.g, spec.a])
        svals = _svdvals(stack) if stack.size else np.zeros(0)
        cut = stack.shape[0] * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
        clause = {name: ok for name, ok, _ in report.clauses}
        assert clause["joint_kernel_trivial"] == (np.count_nonzero(svals > cut) == spec.n)
        return report

    monkeypatch.setattr(pencil, "validate_condition_I", checked)


@pytest.fixture(scope="session")
def fixture_dir():
    return os.path.abspath(FIXTURE_DIR)


@pytest.fixture(scope="session")
def double300():
    """The n=300 joined-string run, solved once and shared.

    The solve costs a few seconds; every consumer reads the same
    SpectrumResult.  The elapsed solve time is part of the value so the
    runtime budget can be charged where the work happened.
    """
    prob = fixtures.sl_double_q4()
    t0 = time.monotonic()
    spec = sturm.discretize(prob)
    result = spectrum(spec, 1.0)
    elapsed = time.monotonic() - t0
    return spec, result, elapsed
