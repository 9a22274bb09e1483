"""Fixtures shared across test modules."""

import os

import pytest

from deskbench.dataio import generate_synthetic

from oracles import batch_pegasos_oracle


@pytest.fixture(scope="session")
def pegasos_oracle_case():
    """(dataset, lambda, best batch objective) for the Pegasos-vs-oracle checks.

    The 50,000-step batch oracle is deterministic and costs seconds, so the
    acceptance gate and the linmodels suite share one computation of it."""
    ds = generate_synthetic(500, 20, separation=2.0, seed=42)
    lam = 1e-3
    return ds, lam, batch_pegasos_oracle(ds, lam, steps=50_000)


@pytest.fixture()
def fork_pids(monkeypatch):
    """The pids that os.fork returned to this process."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or a zombie."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid: {left})")
