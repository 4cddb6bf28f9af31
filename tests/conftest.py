"""Shared pytest plumbing: pins BLAS to one thread, forgets the sweep's
kept moment set after each test, and collects acceptance summary lines.

With BLAS at its default thread count, the Fock oracle's sector products
slow badly when processes share the cores (the tests start subprocesses,
and other work may run beside them); one thread per process avoids that
oversubscription. No result depends on it: a test renders the `--oracle`
presets at one and at two threads. The variables are set before anything
imports numpy, which reads them once when it loads its BLAS.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def _forget_kept_moments():
    """A sweep keeps its last row's moment set for the next row; a test that
    patches `sweep.moment_set` must not hand its values to the next test."""
    yield
    from mzphase import sweep

    sweep._probe_moments.cache_clear()


@pytest.fixture(scope="session")
def report():
    def _record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
        print(line)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
