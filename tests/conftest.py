import copy
import pickle

import pytest


def _copies(value):
    """value through every pickle protocol, copy.copy and copy.deepcopy."""
    pickled = [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    return [*pickled, copy.copy(value), copy.deepcopy(value)]


@pytest.fixture
def copies():
    return _copies
