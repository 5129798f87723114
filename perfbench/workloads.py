"""The four benchmark workloads, each a function of one workload seed.

The workload seed is the benchmark's ``--seed``.  The population seed
and the run (epidemic) seed are derived from it, so one number fixes
every input while the population and the epidemic still draw from
independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spec import PartitionSpec, PopulationSpec, RunSpec, RuntimeSpec
from repro.util.rng import derive_seed

#: The seed whose epidemics and exact counts are pinned in reference.json.
DEFAULT_SEED = 0

N_DAYS = 30


def derived_seeds(seed: int) -> tuple[int, int]:
    """``(population_seed, run_seed)`` for a workload seed."""
    return derive_seed(seed, 0) % 2**31, derive_seed(seed, 1) % 2**31


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: the workload whose epidemic this one must reproduce exactly
    epidemic: str

    def spec(self, seed: int) -> RunSpec:
        pop_seed, run_seed = derived_seeds(seed)
        return _SPECS[self.name](pop_seed, run_seed)


def _flu_population(pop_seed: int) -> PopulationSpec:
    return PopulationSpec(kind="streamed", n_persons=100_000, seed=pop_seed)


def _hub_population(pop_seed: int, n_persons: int) -> PopulationSpec:
    # Eight persons per location, as in the 100k hub workload.
    return PopulationSpec(
        kind="preset", preset="heavy-tailed", n_persons=n_persons,
        seed=pop_seed, params={"n_locations": n_persons // 8},
    )


def _seq_flu(pop_seed: int, run_seed: int) -> RunSpec:
    return RunSpec(
        population=_flu_population(pop_seed), n_days=N_DAYS, seed=run_seed,
        disease="influenza",
    )


def _seq_hub(pop_seed: int, run_seed: int) -> RunSpec:
    return RunSpec(
        population=_hub_population(pop_seed, 100_000), n_days=N_DAYS,
        seed=run_seed, disease="sir", transmissibility=2e-6,
        initial_infections=500,
    )


def _smp_flu(pop_seed: int, run_seed: int) -> RunSpec:
    return RunSpec(
        population=_flu_population(pop_seed),
        partition=PartitionSpec(method="block", k=2),
        n_days=N_DAYS, seed=run_seed, disease="influenza",
        runtime=RuntimeSpec(backend="smp", workers=2),
    )


def _charm_hub(pop_seed: int, run_seed: int) -> RunSpec:
    return RunSpec(
        population=_hub_population(pop_seed, 10_000),
        partition=PartitionSpec(method="gp", k=16, split=True),
        n_days=N_DAYS, seed=run_seed, disease="sir", transmissibility=1e-5,
        initial_infections=50,
        runtime=RuntimeSpec(
            backend="charm", workers=16, delivery="aggregated", sync="cd"
        ),
    )


_SPECS = {
    "seq-flu-100k": _seq_flu,
    "seq-hub-100k": _seq_hub,
    "smp-flu-100k-w2": _smp_flu,
    "charm-hub-10k-gp16": _charm_hub,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "seq-flu-100k",
            "many state changes: person and apply phases are half the day loop",
            epidemic="seq-flu-100k",
        ),
        Workload(
            "seq-hub-100k",
            "Zipf hub locations, few infections: the location phase dominates",
            epidemic="seq-hub-100k",
        ),
        Workload(
            "smp-flu-100k-w2",
            "seq-flu-100k on two worker processes: rings, day barrier, ingest",
            epidemic="seq-flu-100k",
        ),
        Workload(
            "charm-hub-10k-gp16",
            "gp+splitLoc partition on 16 simulated PEs: partitioner and runtime model",
            epidemic="charm-hub-10k-gp16",
        ),
    )
}
