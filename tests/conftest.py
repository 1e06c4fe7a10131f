import logging

import numpy as np
import pytest

from lfpkit import LFPProblem


@pytest.fixture
def golden():
    """The small two-variable instance used as the golden fixture everywhere.

    Its exact optimal value is 4/3, the dual optimum is y = (0, 1/3), z = 4/3,
    v = (0, 0), and the optimal partition is ({1, 2}, {}, {1}, {2}).
    """
    return LFPProblem(
        A=np.array([[2.0, 1.0], [-2.0, 1.0]]),
        b=np.array([6.0, 2.0]),
        c=np.array([6.0, 3.0]),
        d=np.array([5.0, 2.0]),
        alpha=6.0,
        beta=5.0,
    )


@pytest.fixture
def golden_vertices():
    """The four vertices of the golden instance's region."""
    return [np.array(v, dtype=float) for v in ((0, 0), (3, 0), (0, 2), (1, 4))]


@pytest.fixture
def lp_records(caplog):
    """A function that returns the records logged so far on the `lfpkit` logger:
    one DEBUG record per labelled LP solve, with its label in `lp` and its
    `LPOutcome` in `outcome`."""
    caplog.set_level(logging.DEBUG, logger="lfpkit")
    return lambda: [record for record in caplog.records if record.name == "lfpkit"]
