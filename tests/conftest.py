import numpy as np
import pytest
from hypothesis import settings

from kemeny import load_iris, load_sleep

# every property test: 100 examples from a fixed derivation, no deadline,
# and no example database written to .hypothesis/
settings.register_profile(
    "kemeny", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.load_profile("kemeny")


@pytest.fixture(scope="session")
def iris():
    return load_iris()


@pytest.fixture(scope="session")
def sleep():
    return load_sleep()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_tied_vector(rng, n, levels=None):
    """A random vector with a realistic amount of ties."""
    if levels is None:
        levels = int(rng.integers(2, max(3, n)))
    return rng.integers(0, levels, size=n).astype(float)


def random_tiefree_vector(rng, n):
    return rng.permutation(n).astype(float) + 1.0
