"""Every backend reports the same per-day DayResult, all five fields.

The curve alone (new infections, prevalence) does not cover a day's
``visits_made`` and ``transitions``; those come from the person phase,
which each backend distributes differently.  The shared day-loop core
closes every day, so the full DayResult list must agree across the
sequential simulator, the chare runtime under two distributions and the
forked shared-memory workers.
"""

import pytest

from repro.core import Scenario, SequentialSimulator, TransmissionModel
from repro.core.interventions import parse_intervention_script
from repro.partition import partition_bipartite, round_robin_partition
from repro.smp import SmpSimulator
from repro.spec import PopulationSpec
from repro.validate.oracle import DEFAULT_MACHINE, run_cell

#: the oracle machine: 8 PEs
N_PES = 8


@pytest.fixture(scope="module")
def graph():
    # The smp oracle matrix's "tiny" preset.
    return PopulationSpec(n_persons=300, seed=0, name="synthetic").build()


@pytest.mark.parametrize("script", ["", "stay_home compliance=0.5"])
def test_day_results_equal_across_backends(graph, script):
    def scenario():
        return Scenario(
            graph=graph, n_days=6, seed=0, initial_infections=8,
            transmission=TransmissionModel(2e-4),
            interventions=parse_intervention_script(script),
        )

    seq = SequentialSimulator(scenario()).run().days
    assert sum(d.visits_made for d in seq) > 0
    assert sum(d.transitions for d in seq) > 0
    backends = {
        "charm-rr": run_cell(
            scenario(), DEFAULT_MACHINE, round_robin_partition(graph, N_PES),
            "cd", "aggregated",
        ).collect().result.days,
        "charm-gp": run_cell(
            scenario(), DEFAULT_MACHINE, partition_bipartite(graph, N_PES),
            "cd", "aggregated",
        ).collect().result.days,
        "smp-w2": SmpSimulator(scenario(), n_workers=2).run().result.days,
    }
    for name, days in backends.items():
        assert days == seq, name
