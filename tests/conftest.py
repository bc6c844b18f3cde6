"""Shared fixtures: small deterministic worlds reused across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.graph import Graph
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.network.topology_example import example_network
from repro.trust.matrix import TrustMatrix, random_trust_matrix


@pytest.fixture
def triangle() -> Graph:
    """Smallest interesting graph: the 3-cycle."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4() -> Graph:
    """A 4-node path: 0 - 1 - 2 - 3."""
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def star5() -> Graph:
    """A 5-node star: hub 0 with leaves 1..4 (maximally skewed degrees)."""
    return Graph(5, [(0, i) for i in range(1, 5)])


@pytest.fixture
def fig2_network() -> Graph:
    """The paper's 10-node Figure-2 example network."""
    return example_network()


@pytest.fixture
def pa_graph_small() -> Graph:
    """A 60-node PA graph (m=2), fixed seed."""
    return preferential_attachment_graph(60, m=2, rng=1234)


@pytest.fixture
def pa_graph_medium() -> Graph:
    """A 300-node PA graph (m=2), fixed seed."""
    return preferential_attachment_graph(300, m=2, rng=5678)


@pytest.fixture
def small_trust(pa_graph_small: Graph) -> TrustMatrix:
    """Edge-local trust observations over the small PA graph."""
    return random_trust_matrix(pa_graph_small, rng=99)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh fixed-seed generator per test."""
    return np.random.default_rng(2016)


#: PCG64's 128-bit LCG multiplier (state <- state * MULT + inc).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@pytest.fixture
def generator_at():
    """Factory: a PCG64 ``Generator`` whose next ``random()`` is ``k / 2**53``.

    ``Generator.random`` returns ``(next_uint64 >> 11) * 2**-53`` and
    PCG64 outputs ``rotr(hi ^ lo, hi >> 122)`` of its freshly stepped
    128-bit state. Choosing ``hi`` with a zero rotation and
    ``lo = hi ^ (k << 11)`` fixes that state; stepping the LCG back once
    gives the state to install. Tests use it to put a uniform exactly
    on a cumulative-weight boundary, where float and exact arithmetic
    can disagree.
    """

    def build(k: int, inc: int = 0xDA3E39CB94B95BDB) -> np.random.Generator:
        hi = 0x0123456789ABCDEF
        stepped = (hi << 64) | (hi ^ (k << 11))
        state = ((stepped - inc) * pow(_PCG64_MULT, -1, 1 << 128)) % (1 << 128)
        bits = np.random.PCG64()
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return np.random.Generator(bits)

    return build
