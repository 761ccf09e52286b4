import copy
import pickle

import pytest

from ordlen.oracle import DEFAULT_PROFILE, STRESS_PROFILE, InstanceProfile, random_chain


@pytest.fixture(scope="session")
def chain_corpus():
    """The 200 seeded (module, middle ideal) pairs shared by the big suites."""
    return [random_chain(seed) for seed in range(200)]


@pytest.fixture(scope="session")
def small_corpus():
    """A lighter pool for properties that need submodule construction."""
    profile = InstanceProfile(max_vars=3, max_gens=4, max_degree=3)
    return [random_chain(1000 + seed, profile) for seed in range(40)]


@pytest.fixture(scope="session")
def golden_profiles():
    """The four instance profiles that the pinned search outcomes are drawn from."""
    return [
        DEFAULT_PROFILE,
        STRESS_PROFILE,
        InstanceProfile(max_vars=6, ring_bias=0),
        InstanceProfile(5, 8, 7, 0.3),
    ]


@pytest.fixture(params=["deepcopy", "pickle"])
def clone(request):
    """Copy a value through copy.deepcopy or through a pickle round trip."""
    if request.param == "deepcopy":
        return copy.deepcopy
    return lambda value: pickle.loads(pickle.dumps(value))
