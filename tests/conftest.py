from fractions import Fraction

import pytest

from heckepairs import build_pair, spawn_rng

# Pair construction runs a seeded sanity sample, so build each catalog pair
# once per session and share it; all caches are append-only.

_PAIR_NAMES = (
    "dihedral", "finite_index", "gl2q", "bost_connes", "sl3", "semidirect",
)


@pytest.fixture(scope="session")
def pairs():
    return {name: build_pair(name) for name in _PAIR_NAMES}


@pytest.fixture(scope="session")
def dihedral(pairs):
    return pairs["dihedral"]


@pytest.fixture(scope="session")
def finite_index(pairs):
    return pairs["finite_index"]


@pytest.fixture(scope="session")
def gl2q(pairs):
    return pairs["gl2q"]


@pytest.fixture(scope="session")
def bost_connes(pairs):
    return pairs["bost_connes"]


@pytest.fixture(scope="session")
def sl3(pairs):
    return pairs["sl3"]


@pytest.fixture(scope="session")
def semidirect(pairs):
    return pairs["semidirect"]


@pytest.fixture(scope="session")
def cauchy_schwarz_ratios():
    """(sum x)^2 / sum x^2 as exact Fractions: first over seeded nonnegative
    integer m-vectors with entries in [0, 50], then over the constant vectors
    c = 1, 2, 7. Cauchy-Schwarz bounds every ratio by m, the averaging
    constant c(m) of the transfer identities, with equality exactly at
    constant vectors."""
    def ratios(m, trials, seed):
        rng = spawn_rng(seed, m)
        vecs = [[int(v) for v in rng.integers(0, 51, size=m)] for _ in range(trials)]
        vecs += [[c] * m for c in (1, 2, 7)]
        return [Fraction(sum(x) ** 2, sum(v * v for v in x)) for x in vecs if any(x)]
    return ratios
