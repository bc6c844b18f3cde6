"""Registry mapping experiment ids to their ``run`` callables."""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    attack_sweeps,
    eq17,
    fig3,
    fig4,
    fig5,
    fig6,
    table1,
    table2,
    theorem52,
    tournament,
    xi_accuracy,
)
from repro.experiments.runner import ExperimentResult
from repro.utils.registry import Registry

ExperimentRunner = Callable[..., ExperimentResult]

experiment_registry: Registry[ExperimentRunner] = Registry("experiment")
get_experiment = experiment_registry.get
#: Experiment id -> runner (the registry's own table). Ids match
#: DESIGN.md's experiment index, plus the attack-robustness sweeps
#: (attack_*) beyond the paper.
EXPERIMENTS = experiment_registry.entries

experiment_registry.register("table1", table1.run)
experiment_registry.register("table2", table2.run)
experiment_registry.register("fig3", fig3.run)
experiment_registry.register("fig4", fig4.run)
experiment_registry.register("fig5", fig5.run)
experiment_registry.register("fig6", fig6.run)
experiment_registry.register("theorem52", theorem52.run)
experiment_registry.register("eq17", eq17.run)
experiment_registry.register("xi_accuracy", xi_accuracy.run)
experiment_registry.register("attack_slander", attack_sweeps.run_slander)
experiment_registry.register("attack_sybil", attack_sweeps.run_sybil)
experiment_registry.register("tournament", tournament.run)
