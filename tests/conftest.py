import logging

import pytest

import lfpkit.lp as lp_module
from lfpkit import LFPProblem

from helpers import GOLDEN


@pytest.fixture
def golden():
    """The golden instance, `helpers.GOLDEN`, as a problem."""
    return LFPProblem(**GOLDEN)


@pytest.fixture
def lp_records(caplog):
    """A function that returns the records logged so far on the `lfpkit` logger:
    one DEBUG record per labelled LP solve, with its label in `lp` and its
    `LPOutcome` in `outcome`."""
    caplog.set_level(logging.DEBUG, logger="lfpkit")
    return lambda: [record for record in caplog.records if record.name == "lfpkit"]


@pytest.fixture
def dual_run_breaks_down(monkeypatch):
    """Every dual simplex run breaks down at once on a singular basis, so the
    primal path solves each program."""
    monkeypatch.setattr(lp_module, "_dual_simplex", lambda *args: ("singular", None, 0, 0))


@pytest.fixture
def every_run_stops(monkeypatch):
    """Every dual and primal simplex run stops at once at its iteration budget."""
    stopped = lambda *args, **kwargs: ("iteration_limit", None, 0, 0)  # noqa: E731
    monkeypatch.setattr(lp_module, "_dual_simplex", stopped)
    monkeypatch.setattr(lp_module, "_run_simplex", stopped)
