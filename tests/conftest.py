import numpy as np
import pytest

from matword.linalg import NormalTuple
from matword.sampling import haar_unitary, random_hermitian
from normal_oracles import commuting_hermitian_tuple


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_commuting_pair(rng, n):
    mats = commuting_hermitian_tuple(rng, 2, n)
    return NormalTuple.from_matrices(mats)


@pytest.fixture
def unitary_factory():
    def make(seed, n):
        return haar_unitary(np.random.default_rng(seed), n)

    return make


@pytest.fixture
def hermitian_factory():
    def make(seed, n, norm=1.0):
        return random_hermitian(np.random.default_rng(seed), n, norm)

    return make
