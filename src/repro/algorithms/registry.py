"""The comparison-algorithm registry (a :class:`repro.utils.registry.Registry`).

Seven algorithms ship built-in (registered by
:mod:`repro.algorithms.adapters`): ``diff-gossip``, ``push-sum``,
``push-pull``, ``gossip-trust``, ``eigentrust``, ``flooding`` and
``absolute-trust``. Third-party comparators plug in with
:func:`register_algorithm`; after registration the algorithm is
selectable everywhere an algorithm name is accepted — the attack engine
(:func:`repro.attacks.evaluate.attack_impact` with ``algorithm=``), the
scenario axis (:class:`repro.scenarios.spec.AlgorithmSpec`) and the
tournament leaderboard (:mod:`repro.experiments.tournament`).

>>> get_algorithm("dgt") is get_algorithm("diff-gossip")  # aliases resolve
True
"""

from __future__ import annotations

from repro.algorithms.base import AggregationAlgorithm
from repro.utils.registry import Registry


class UnknownAlgorithmError(KeyError, ValueError):
    """An unregistered algorithm name was requested.

    Inherits both ``KeyError`` (registry-lookup convention, as in
    :class:`repro.core.backend.UnknownBackendError`) and ``ValueError``
    (the convention of the pre-registry baseline entry points), so
    either handling style works.
    """


algorithm_registry: Registry[AggregationAlgorithm] = Registry(
    "algorithm", UnknownAlgorithmError, label="aggregation algorithm"
)
register_algorithm = algorithm_registry.register
resolve_algorithm_name = algorithm_registry.resolve
get_algorithm = algorithm_registry.get
available_algorithms = algorithm_registry.names
