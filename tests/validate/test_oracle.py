"""The differential oracle itself, plus the hypothesis-driven
equivalence property over adversarial scenarios.

The property test is the subsystem's reason to exist: for *any* small
scenario the strategies can dream up (heavy-tailed locations, zero
visits, one person, single sublocations), the parallel runtime must
reproduce the sequential reference exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.charm.machine import Machine, MachineConfig
from repro.core.exposure import InfectionBatch
from repro.core.parallel import Distribution, ParallelEpiSimdemics
from repro.core.simulator import SequentialSimulator
from repro.partition import round_robin_partition
from repro.validate.oracle import (
    DELIVERY_MODES,
    DISTRIBUTIONS,
    SYNC_MODES,
    Divergence,
    _diff_events,
    run_matrix,
    sequential_reference,
)
from repro.validate.strategies import scenarios

SMALL_MACHINE = MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1)


class TestMatrix:
    def test_full_matrix_on_tiny_graph(self, tiny_graph):
        report = run_matrix(tiny_graph, n_days=3, seed=3, initial_infections=6)
        assert len(report.cells) == len(DISTRIBUTIONS) * len(SYNC_MODES) * len(DELIVERY_MODES)
        assert report.all_equal, report.format()
        assert report.total_checks > 0
        assert "bit-identical" in report.format()

    def test_report_formats_divergence(self):
        d = Divergence(kind="events", day=2, location=7, person=13, rng_key=0xABC,
                       detail="sequential-only infection event")
        text = d.format()
        assert "day 2" in text and "location 7" in text and "person 13" in text
        assert "0x0000000000000abc" in text


class TestDiffEvents:
    """Event diffs compare (location, person) sets per day."""

    def test_delivery_order_and_minute_are_ignored(self, tiny_scenario):
        seq = {0: InfectionBatch.from_records([[5, 2, 100], [3, 1, 90]])}
        par = {0: InfectionBatch.from_records([[3, 1, 95], [5, 2, 100]])}
        assert _diff_events(tiny_scenario, seq, par) is None

    def test_first_divergent_event_is_named(self, tiny_scenario):
        seq = {0: InfectionBatch(), 1: InfectionBatch.from_records(
            [[5, 2, 100], [3, 1, 90], [4, 1, 80]])}
        par = {1: InfectionBatch.from_records([[5, 2, 100], [7, 9, 10]])}
        d = _diff_events(tiny_scenario, seq, par)
        # Lowest (location, person) first among the sequential-only events.
        assert (d.kind, d.day, d.location, d.person) == ("events", 1, 1, 3)
        assert "sequential-only" in d.detail
        assert "2 event(s) missing from the parallel run, 1 extra" in d.detail


class TestSequentialReference:
    def test_reference_matches_plain_run(self, tiny_scenario):
        result, events, state, remaining = sequential_reference(tiny_scenario)
        plain = SequentialSimulator(tiny_scenario).run()
        assert result.curve == plain.curve
        assert result.final_histogram == plain.final_histogram
        # Unique persons hit per day total the curve (minus index cases);
        # one person can draw events at several locations on one day.
        seeded = tiny_scenario.initial_infections
        unique_hits = sum(np.unique(e.person).size for e in events.values())
        assert unique_hits == plain.total_infections - seeded


class TestEquivalenceProperty:
    """Sequential == parallel for arbitrary adversarial scenarios."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(scenarios(max_persons=20, max_days=4))
    def test_parallel_reproduces_sequential(self, scenario):
        machine = Machine(SMALL_MACHINE)
        seq = SequentialSimulator(scenario).run()
        dist = Distribution.from_partition(
            round_robin_partition(scenario.graph, machine.n_pes), machine
        )
        sim = ParallelEpiSimdemics(
            scenario, SMALL_MACHINE, dist, validate=True
        )
        sim.run()
        assert sim.curve == seq.curve
        assert sim.checker is not None and sim.checker.checks_passed > 0
