"""Load-balancer strategies and the runtime's migration machinery."""

import numpy as np
import pytest

from repro.charm import Chare, MachineConfig, RuntimeSimulator
from repro.charm.loadbalance import MigrationCostModel, greedy_lb, refine_lb
from repro.charm.machine import Machine
from repro.charm.network import NetworkModel


class TestGreedyLB:
    def test_balances_uniform_costs(self):
        placement = greedy_lb(np.ones(12), 4)
        counts = np.bincount(placement, minlength=4)
        assert np.all(counts == 3)

    def test_heavy_chare_isolated(self):
        costs = np.array([10.0, 1.0, 1.0, 1.0, 1.0])
        placement = greedy_lb(costs, 2)
        # The heavy chare's PE should get nothing else.
        heavy_pe = placement[0]
        assert np.sum(placement == heavy_pe) == 1

    def test_makespan_near_optimal(self):
        rng = np.random.default_rng(0)
        costs = rng.pareto(1.5, 200) + 0.1
        placement = greedy_lb(costs, 8)
        loads = np.bincount(placement, weights=costs, minlength=8)
        lower_bound = max(costs.sum() / 8, costs.max())
        assert loads.max() <= 4 / 3 * lower_bound + 1e-9  # LPT guarantee

    def test_invalid_pes(self):
        with pytest.raises(ValueError):
            greedy_lb(np.ones(3), 0)


class TestRefineLB:
    def test_no_moves_when_balanced(self):
        costs = np.ones(8)
        placement = np.arange(8) % 4
        new = refine_lb(costs, placement, 4)
        np.testing.assert_array_equal(new, placement)

    def test_sheds_overload(self):
        costs = np.ones(8)
        placement = np.zeros(8, dtype=np.int64)  # everything on PE 0
        new = refine_lb(costs, placement, 4)
        loads = np.bincount(new, weights=costs, minlength=4)
        assert loads.max() < 8  # strictly improved

    def test_moves_fewer_chares_than_greedy(self):
        rng = np.random.default_rng(1)
        costs = rng.random(40) + 0.1
        placement = np.arange(40) % 8
        # Perturb: overload PE 0.
        placement[:10] = 0
        refined = refine_lb(costs, placement, 8)
        greedy = greedy_lb(costs, 8)
        assert np.sum(refined != placement) <= np.sum(greedy != placement)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            refine_lb(np.ones(3), np.zeros(4, dtype=int), 2)


class TestMigrationCostModel:
    def test_no_moves_costs_decision_only(self):
        m = Machine(MachineConfig(n_nodes=2, cores_per_node=4, smp=False))
        model = MigrationCostModel()
        old = np.arange(8) % m.n_pes
        assert model.step_cost(m, NetworkModel(), old, old) == model.decision_cost

    def test_cost_grows_with_moves(self):
        m = Machine(MachineConfig(n_nodes=2, cores_per_node=4, smp=False))
        model = MigrationCostModel()
        net = NetworkModel()
        old = np.zeros(8, dtype=np.int64)
        one = old.copy(); one[0] = 1
        many = np.arange(8) % m.n_pes
        assert model.step_cost(m, net, old, one) < model.step_cost(m, net, old, many) + 1e-12


class Worker(Chare):
    def __init__(self, weight):
        self.weight = weight

    def work(self, _):
        self.charge(self.weight)

    def probe(self, sink):
        self.send("sink", 0, "note", (self.index, self.pe))


class Sink(Chare):
    def __init__(self):
        self.notes = []

    def note(self, payload):
        self.notes.append(payload)


class TestRuntimeMigration:
    def _runtime(self):
        rt = RuntimeSimulator(MachineConfig(n_nodes=2, cores_per_node=4, smp=False))
        rt.ensure_pe_agents()
        weights = [1e-6 * (i + 1) for i in range(8)]
        rt.create_array("w", lambda i: Worker(weights[i]), np.arange(8) % rt.machine.n_pes)
        rt.create_array("sink", lambda i: Sink(), np.zeros(1, dtype=np.int64))
        return rt

    def test_cost_tracking_accumulates(self):
        rt = self._runtime()
        rt.enable_chare_cost_tracking("w")
        rt.broadcast("w", "work")
        rt.run()
        assert rt.chare_costs[("w", 7)] == pytest.approx(8e-6)
        assert rt.chare_costs[("w", 0)] == pytest.approx(1e-6)

    def test_tracking_unknown_array(self):
        rt = self._runtime()
        with pytest.raises(ValueError):
            rt.enable_chare_cost_tracking("nope")

    def test_migration_moves_delivery(self):
        rt = self._runtime()
        new = np.zeros(8, dtype=np.int64)  # all chares to PE 0
        summary = rt.migrate_array("w", new)
        assert summary["moved"] > 0
        rt.broadcast("w", "probe")
        rt.run()
        sink = rt.arrays["sink"].element(0)
        assert sorted(i for i, _pe in sink.notes) == list(range(8))
        assert all(pe == 0 for _i, pe in sink.notes)

    def test_migration_rebuilds_reductions(self):
        rt = self._runtime()
        results = []

        class Root(Chare):
            def got(self, v):
                results.append(v)

        rt.create_array("root", lambda i: Root(), np.zeros(1, dtype=np.int64))
        rt.register_reduction(
            "s", combine=lambda a, b: a + b, arrays=["w"], target=("root", 0, "got")
        )

        class Contribute(Chare):
            pass

        def contribute_all():
            for i in range(8):
                rt.inject("w", i, "contrib", None)

        # Give workers a contribute method dynamically via subclassing is
        # awkward; use the agent-side API through a tiny driver instead.
        Worker.contrib = lambda self, _: self.contribute("s", 1)
        try:
            contribute_all()
            rt.run()
            assert results == [8]
            rt.migrate_array("w", np.zeros(8, dtype=np.int64))
            contribute_all()
            rt.run()
            assert results == [8, 8]
        finally:
            del Worker.contrib

    def test_migration_validates_placement(self):
        rt = self._runtime()
        with pytest.raises(ValueError):
            rt.migrate_array("w", np.array([99] * 8))
        with pytest.raises(ValueError):
            rt.migrate_array("w", np.zeros(3, dtype=np.int64))


class TestLBIntegration:
    def test_lb_improves_day_time_and_preserves_epidemic(self, tiny_graph):
        from repro.core import Scenario, TransmissionModel
        from repro.core.parallel import Distribution, ParallelEpiSimdemics
        from repro.core.simulator import SequentialSimulator
        from repro.partition import round_robin_partition

        mc = MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1)
        m = Machine(mc)

        def scenario():
            return Scenario(
                graph=tiny_graph, n_days=12, seed=5, initial_infections=6,
                transmission=TransmissionModel(2e-4),
            )

        # Over-decomposed RR so the balancer has chares to move.
        part = round_robin_partition(tiny_graph, m.n_pes * 4)
        dist = Distribution.from_partition(part, m)

        seq = SequentialSimulator(scenario()).run()
        base = ParallelEpiSimdemics(scenario(), mc, dist).run()
        lb = ParallelEpiSimdemics(
            scenario(), mc,
            Distribution.from_partition(part, m),
            lb_period=3, lb_strategy="greedy",
        )
        lb_res = lb.run()

        # Semantics untouched by migration.
        assert lb_res.result.curve == seq.curve == base.result.curve
        assert lb.lb_steps >= 3
        # Location phase after the first LB step should not be worse on
        # average than before it (measured balance kicks in).
        loc_before = np.mean([p.location_phase for p in lb_res.phase_times[:3]])
        loc_after = np.mean([p.location_phase for p in lb_res.phase_times[4:]])
        assert loc_after <= loc_before * 1.5

    @pytest.mark.parametrize("strategy", ["greedy", "refine", "predictive"])
    def test_all_strategies_run(self, tiny_graph, strategy):
        from repro.core import Scenario, TransmissionModel
        from repro.core.parallel import Distribution, ParallelEpiSimdemics
        from repro.partition import round_robin_partition

        mc = MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1)
        m = Machine(mc)
        part = round_robin_partition(tiny_graph, m.n_pes * 2)
        sc = Scenario(
            graph=tiny_graph, n_days=6, seed=5, initial_infections=6,
            transmission=TransmissionModel(2e-4),
        )
        sim = ParallelEpiSimdemics(
            sc, mc, Distribution.from_partition(part, m),
            lb_period=2, lb_strategy=strategy,
        )
        res = sim.run()
        assert sim.lb_steps >= 2
        assert res.result.curve.n_days == 6

    def test_predictive_input_falls_to_zero(self, tiny_graph, monkeypatch):
        """A location whose interactions fall to zero is predicted with
        zero interactions — at its static (event) cost only — not with
        the count of its last day that had any."""
        import repro.core.parallel as parallel
        from repro.core import Scenario, TransmissionModel
        from repro.core.parallel import Distribution, ParallelEpiSimdemics
        from repro.partition import round_robin_partition

        mc = MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1)
        m = Machine(mc)
        part = round_robin_partition(tiny_graph, m.n_pes * 2)
        # No infectious person, so every location has zero interactions.
        sc = Scenario(
            graph=tiny_graph, n_days=2, seed=5, initial_infections=0,
            transmission=TransmissionModel(2e-4),
        )
        sim = ParallelEpiSimdemics(
            sc, mc, Distribution.from_partition(part, m),
            lb_period=1, lb_strategy="predictive",
        )
        sim.last_interactions[:] = 1000  # every location was hot earlier
        predicted = []

        def spy(costs, n_pes):
            predicted.append(costs.copy())
            return greedy_lb(costs, n_pes)

        monkeypatch.setattr(parallel, "greedy_lb", spy)
        sim.run()
        assert not sim.last_interactions.any()
        events = 2.0 * tiny_graph.location_visit_counts
        per_loc = sim.costs.location_static.evaluate(events) + sim.costs.location_dynamic.evaluate(
            events, np.zeros_like(events)
        )
        expected = np.zeros(part.k)
        np.add.at(expected, part.location_part, per_loc)
        assert len(predicted) == 2
        for costs in predicted:
            np.testing.assert_array_equal(costs, expected)

    def test_invalid_lb_options(self, tiny_graph):
        from repro.core import Scenario
        from repro.core.parallel import Distribution, ParallelEpiSimdemics
        from repro.partition import round_robin_partition

        mc = MachineConfig(n_nodes=1, cores_per_node=2, smp=False)
        m = Machine(mc)
        dist = Distribution.from_partition(round_robin_partition(tiny_graph, m.n_pes), m)
        sc = Scenario(graph=tiny_graph, n_days=2)
        with pytest.raises(ValueError):
            ParallelEpiSimdemics(sc, mc, dist, lb_strategy="magic")
        with pytest.raises(ValueError):
            ParallelEpiSimdemics(sc, mc, dist, lb_period=0)
