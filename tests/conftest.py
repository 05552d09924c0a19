from pathlib import Path

import numpy as np
import pytest

from nfa2crn.analysis import plan_parameters
from nfa2crn.nfa import load_nfa
from nfa2crn.simulate import SAMPLE_INTERVALS

DATA_DIR = Path(__file__).parent / "data"

# corpus-wide planning inputs: small enough state/rate perturbations that the
# constraint system is feasible up to d = 32 transitions
PLAN_EPS = 1e-5
PLAN_ETA = 0.05
PLAN_DELTA = 1e-3


@pytest.fixture(scope="session")
def example_nfa():
    return load_nfa(DATA_DIR / "second_to_last_one.nfa")


@pytest.fixture(scope="session")
def planned(example_nfa):
    result = plan_parameters(example_nfa.num_transitions, PLAN_EPS, PLAN_ETA, PLAN_DELTA)
    assert result.feasible, result.message
    return result.params


def sample_grid(trace):
    """The times a trace's CSV writers write: ``SAMPLE_INTERVALS + 1``, evenly spaced over ``[0, t_end]``."""
    return np.linspace(0.0, trace.t_end, SAMPLE_INTERVALS + 1)


def grid_rows(trace):
    """The states a trace's CSV writers write, one row per grid time, each species read through ``value``."""
    t = sample_grid(trace)
    return np.column_stack([trace.value(name, t) for name in trace.names])
