"""Byte-identity pins for churn epochs on :class:`MutableOverlay`.

The overlay tests compare snapshots against a scratch rebuild and the
join sampler against ``Generator.choice``, but a change that moved the
RNG stream, the attachment targets or the CSR order consistently would
still pass them. These pins compare whole churn runs against fixed
fingerprints instead — per-epoch peer / edge / step / message counts
and one sha256 over every epoch's snapshot CSR, peer ids and the
runtime's gossip pairs — recorded before the overlay's exact
prefix-sum joins and sort-free snapshot patch were introduced. A pin
may change only together with an intentional RNG-stream change, listed
in CHANGES.md.

Three worlds are pinned:

- a warm-start :class:`DynamicReputationRuntime` at N=3,000 (m=3 joins,
  1% join / 1% leave, accuracy stop rule) — joins, departures, bridging
  and snapshots at every epoch;
- an m=1 overlay (a tree), whose departures strand leaves and so drive
  the orphan rewire, the sampler's ``exclude=`` path;
- a join whose uniform lies exactly on a cumulative-degree boundary,
  where float and exact arithmetic pick different peers: the pin holds
  ``Generator.choice``'s float answer.
"""

import hashlib

import numpy as np
import pytest

from repro import GossipConfig
from repro.network.graph import Graph
from repro.network.mutable import MutableOverlay
from repro.runtime.dynamics import DynamicReputationRuntime
from repro.runtime.trace import ChurnTrace

#: (num_peers, num_edges, steps, push_messages) of each of the 30 epochs.
RUNTIME_EPOCHS = [
    (2997, 8807, 28, 91364), (2989, 8718, 16, 52128), (2990, 8626, 16, 52272),
    (2995, 8610, 16, 52352), (2998, 8581, 16, 52384), (3000, 8554, 16, 52464),
    (3005, 8516, 16, 52448), (3015, 8491, 16, 52736), (3013, 8400, 16, 52736),
    (3004, 8323, 16, 52528), (3013, 8330, 16, 52784), (3004, 8225, 16, 52608),
    (3003, 8091, 16, 52592), (3004, 7986, 16, 52624), (3017, 7972, 16, 52752),
    (3031, 7941, 16, 52912), (3031, 7874, 16, 52816), (3038, 7864, 16, 52944),
    (3037, 7713, 16, 53200), (3035, 7632, 16, 53232), (3041, 7620, 20, 66660),
    (3033, 7557, 20, 66480), (3027, 7474, 20, 66340), (3036, 7460, 20, 66560),
    (3018, 7328, 16, 52832), (3002, 7222, 16, 52480), (2998, 7160, 16, 52496),
    (2999, 7138, 20, 65600), (2989, 7054, 16, 52400), (2982, 6964, 20, 65360),
]
RUNTIME_DIGEST = "e22b0174385af7820a0489c921086d77b7e8e6287d2c90c68e28ab7c11e3e72e"

TREE_DIGEST = "c434e59cd5b1ea9924a77710dc7d9ee3b4b7d2fef14a9f92dd2f4b9108694c58"
TREE_EDGES = 296
TREE_NEXT_DRAW = 3903465017579120304

#: Joins whose uniform ``k / 2**53`` lies on a cumulative-degree
#: boundary, where float and exact arithmetic pick different peers:
#: (edges, k, float pick, next draw). "upper": degrees 4,3,1,2,0,0,1,1
#: and x just below 10/12, where the float CDF has already passed peers
#: 3..5 (exact: peer 3). "lower": degrees 2,1,2,1 and x = 1/2 = 3/6
#: exactly, where the float CDF of peers 0..1 already exceeds x (exact:
#: peer 2).
BOUNDARY_JOINS = {
    "upper": (
        [(0, 1), (0, 2), (0, 3), (0, 6), (1, 3), (1, 7)],
        7505999378950826, 6, 3907051664449401259,
    ),
    "lower": ([(0, 2), (0, 3), (1, 2)], 1 << 52, 1, 1302918929491503509),
}

def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _snapshot_arrays(overlay: MutableOverlay):
    graph, pids = overlay.snapshot()
    return [graph.indptr, graph.indices, pids]


def test_runtime_epochs_match_pin():
    overlay = MutableOverlay.grow_preferential(3000, m=3, rng=2016)
    trace = ChurnTrace.steady(30, population=3000, join_rate=0.01, leave_rate=0.01, seed=7)
    runtime = DynamicReputationRuntime(
        overlay, config=GossipConfig(delta=0.0), stop_rule="accuracy", attachment_m=3
    )
    runtime.initialize(trace.seed)
    digest = hashlib.sha256()
    epochs = []
    for churn in trace:
        record = runtime.step(arrivals=churn.arrivals, departures=churn.departures)
        epochs.append((record.num_peers, record.num_edges, record.steps, record.push_messages))
        digest.update(_digest(_snapshot_arrays(overlay) + [runtime._v, runtime._w]).encode())
    assert epochs == RUNTIME_EPOCHS
    assert digest.hexdigest() == RUNTIME_DIGEST


def test_tree_departures_rewire_orphans_match_pin():
    overlay = MutableOverlay.grow_preferential(400, m=1, rng=5)
    rng = np.random.default_rng(6)
    stranded = 0
    for step in range(150):
        pids = overlay.peer_ids()
        victim = int(pids[rng.integers(pids.shape[0])])
        stranded += sum(overlay.degree_of(nb) == 1 for nb in overlay.neighbors_of(victim))
        overlay.remove_peer(victim, rewire_isolated=True, rng=rng)
        if step % 2:
            overlay.add_peer(m=1, rng=rng)
    overlay.check_invariants()
    assert stranded > 50  # the orphan rewire really ran
    assert overlay.num_edges == TREE_EDGES
    assert _digest(_snapshot_arrays(overlay)) == TREE_DIGEST
    assert int(rng.integers(2**62)) == TREE_NEXT_DRAW


@pytest.mark.parametrize("name", sorted(BOUNDARY_JOINS))
def test_boundary_join_keeps_float_pick(generator_at, name):
    edges, k, pick, next_draw = BOUNDARY_JOINS[name]
    overlay = MutableOverlay.from_graph(Graph(max(map(max, edges)) + 1, edges))
    rng = generator_at(k)
    pid = overlay.add_peer(m=1, rng=rng)
    assert overlay.neighbors_of(pid) == (pick,)
    assert int(rng.integers(2**62)) == next_draw
