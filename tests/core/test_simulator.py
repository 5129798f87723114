"""Sequential reference simulator behaviour."""

import numpy as np
import pytest

from repro.core import Scenario, SequentialSimulator, TransmissionModel, sir_model
from repro.core.metrics import state_histogram


class TestBasicRun:
    def test_runs_all_days(self, tiny_scenario):
        res = SequentialSimulator(tiny_scenario).run()
        assert res.curve.n_days == tiny_scenario.n_days
        assert len(res.days) == tiny_scenario.n_days

    def test_index_cases_counted_day0(self, tiny_scenario):
        res = SequentialSimulator(tiny_scenario).run()
        assert res.curve.new_infections[0] >= tiny_scenario.initial_infections

    def test_population_conserved(self, tiny_scenario):
        res = SequentialSimulator(tiny_scenario).run()
        assert sum(res.final_histogram.values()) == tiny_scenario.graph.n_persons

    def test_cumulative_matches_histogram(self, tiny_graph):
        sc = Scenario(
            graph=tiny_graph, n_days=25, seed=2, initial_infections=3,
            transmission=TransmissionModel(2e-4),
        )
        res = SequentialSimulator(sc).run()
        ever = tiny_graph.n_persons - res.final_histogram["susceptible"]
        assert res.total_infections == ever

    def test_determinism(self, tiny_scenario):
        a = SequentialSimulator(tiny_scenario).run()
        b = SequentialSimulator(tiny_scenario).run()
        assert a.curve == b.curve

    def test_seed_changes_outcome(self, tiny_graph):
        mk = lambda s: Scenario(
            graph=tiny_graph, n_days=20, seed=s, initial_infections=3,
            transmission=TransmissionModel(2.5e-4),
        )
        a = SequentialSimulator(mk(1)).run()
        b = SequentialSimulator(mk(2)).run()
        assert a.curve.new_infections != b.curve.new_infections


class TestEpidemiology:
    def test_no_transmission_when_rate_zero(self, tiny_graph):
        sc = Scenario(
            graph=tiny_graph, n_days=10, seed=1, initial_infections=5,
            transmission=TransmissionModel(0.0),
        )
        res = SequentialSimulator(sc).run()
        assert res.total_infections == 5  # only the index cases

    def test_zero_index_cases_stays_clean(self, tiny_graph):
        sc = Scenario(graph=tiny_graph, n_days=5, seed=1, initial_infections=0)
        res = SequentialSimulator(sc).run()
        assert res.total_infections == 0
        assert all(p == 0.0 for p in res.curve.prevalence)

    def test_higher_rate_more_infections(self, tiny_graph):
        def run(rate):
            sc = Scenario(
                graph=tiny_graph, n_days=25, seed=4, initial_infections=5,
                transmission=TransmissionModel(rate),
            )
            return SequentialSimulator(sc).run().total_infections

        assert run(3e-4) >= run(5e-5)

    def test_epidemic_eventually_burns_out(self, tiny_graph):
        sc = Scenario(
            graph=tiny_graph, n_days=80, seed=4, initial_infections=5,
            transmission=TransmissionModel(3e-4), disease=sir_model(),
        )
        sim = SequentialSimulator(sc)
        res = sim.run()
        hist = state_histogram(sim.health_state, sc.disease)
        assert hist["E"] == 0 and hist["I"] == 0  # all resolved
        assert res.curve.prevalence[-1] == 0.0

    def test_explicit_index_cases(self, tiny_graph):
        sc = Scenario(
            graph=tiny_graph, n_days=3, seed=1,
            initial_infections=np.array([0, 1, 2]),
        )
        sim = SequentialSimulator(sc)
        sim.run()
        d = sc.disease
        assert np.all(sim.health_state[[0, 1, 2]] != d.susceptible_index)


class TestLocationStats:
    def test_stats_collected_when_enabled(self, tiny_scenario):
        sim = SequentialSimulator(tiny_scenario, collect_location_stats=True)
        res = sim.run()
        n_locations = tiny_scenario.graph.n_locations
        assert res.location_events.shape == (n_locations,)
        assert res.location_interactions.shape == (n_locations,)
        # Events are 2x visits and accumulate across days.
        total_events = int(res.location_events.sum())
        assert total_events > tiny_scenario.graph.n_visits  # > one day's worth

    def test_stats_empty_when_disabled(self, tiny_scenario):
        res = SequentialSimulator(tiny_scenario).run()
        assert res.location_events is None
        assert res.location_interactions is None


class TestScenarioValidation:
    def test_too_many_index_cases(self, tiny_graph):
        with pytest.raises(ValueError):
            Scenario(graph=tiny_graph, initial_infections=10**9)

    def test_bad_n_days(self, tiny_graph):
        with pytest.raises(ValueError):
            Scenario(graph=tiny_graph, n_days=0)

    def test_out_of_range_explicit_cases(self, tiny_graph):
        sc = Scenario(
            graph=tiny_graph, initial_infections=np.array([tiny_graph.n_persons + 1])
        )
        with pytest.raises(ValueError):
            sc.index_cases()
