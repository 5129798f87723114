"""Location-phase exposure computation: grouping invariance.

The keystone property for parallel correctness: splitting the visit
rows by location across multiple calls yields exactly the infections of
one whole-population call.
"""

import numpy as np
import pytest

from repro.core import Scenario, TransmissionModel
from repro.core.exposure import InfectionBatch, compute_infections
from repro.util.rng import RngFactory


def _setup(graph, infected_frac=0.1, seed=3):
    sc = Scenario(graph=graph, seed=seed, transmission=TransmissionModel(3e-4))
    d = sc.disease
    state, remaining = d.initial_health(graph.n_persons)
    rng = np.random.default_rng(seed)
    sick = rng.choice(graph.n_persons, int(graph.n_persons * infected_frac), replace=False)
    state[sick] = d.state_index("infectious_symptomatic")
    return sc, state


def _key(batch):
    return sorted(map(tuple, batch.records().tolist()))


def _dense(res, name, graph):
    """A result's per-location ``events``/``interactions`` as a dense array."""
    out = np.zeros(graph.n_locations, dtype=np.int64)
    out[res.locations] = getattr(res, name)
    return out


class TestGroupingInvariance:
    def test_split_by_location_equals_whole(self, tiny_graph):
        sc, state = _setup(tiny_graph)
        f = RngFactory(sc.seed)
        rows = np.arange(tiny_graph.n_visits, dtype=np.int64)
        whole = compute_infections(
            rows, tiny_graph, state, sc.disease, sc.transmission, 0, f
        )
        # Partition rows by location parity — two "LocationManagers".
        locs = tiny_graph.visit_location
        part_a = rows[locs[rows] % 2 == 0]
        part_b = rows[locs[rows] % 2 == 1]
        a = compute_infections(part_a, tiny_graph, state, sc.disease, sc.transmission, 0, f)
        b = compute_infections(part_b, tiny_graph, state, sc.disease, sc.transmission, 0, f)
        assert _key(whole.infections) == _key(
            InfectionBatch.concat([a.infections, b.infections])
        )

    def test_row_order_irrelevant(self, tiny_graph):
        sc, state = _setup(tiny_graph)
        f = RngFactory(sc.seed)
        rows = np.arange(tiny_graph.n_visits, dtype=np.int64)
        fwd = compute_infections(rows, tiny_graph, state, sc.disease, sc.transmission, 0, f)
        rev = compute_infections(rows[::-1], tiny_graph, state, sc.disease, sc.transmission, 0, f)
        assert _key(fwd.infections) == _key(rev.infections)

    def test_no_infectious_no_infections(self, tiny_graph):
        sc, _ = _setup(tiny_graph)
        d = sc.disease
        state, _ = d.initial_health(tiny_graph.n_persons)
        rows = np.arange(tiny_graph.n_visits, dtype=np.int64)
        res = compute_infections(rows, tiny_graph, state, d, sc.transmission, 0, RngFactory(0))
        assert len(res.infections) == 0

    def test_empty_rows(self, tiny_graph):
        sc, state = _setup(tiny_graph)
        res = compute_infections(
            np.empty(0, dtype=np.int64), tiny_graph, state, sc.disease,
            sc.transmission, 0, RngFactory(0),
        )
        assert res.infections == InfectionBatch()
        assert res.locations.size == res.events.size == 0


class TestStats:
    def test_event_counts_are_two_per_visit(self, tiny_graph):
        sc, state = _setup(tiny_graph)
        rows = np.arange(tiny_graph.n_visits, dtype=np.int64)
        res = compute_infections(
            rows, tiny_graph, state, sc.disease, sc.transmission, 0,
            RngFactory(0), collect_stats=True,
        )
        assert res.events.sum() == 2 * tiny_graph.n_visits
        assert np.array_equal(res.locations, np.unique(tiny_graph.visit_location))
        assert res.interactions.shape == res.locations.shape
        assert res.interactions.sum() == res.pairs

    def test_merge_accumulates(self, tiny_graph):
        sc, state = _setup(tiny_graph)
        rows = np.arange(tiny_graph.n_visits, dtype=np.int64)
        a = compute_infections(
            rows, tiny_graph, state, sc.disease, sc.transmission, 0,
            RngFactory(0), collect_stats=True,
        )
        before = a.events.sum()
        b = compute_infections(
            rows, tiny_graph, state, sc.disease, sc.transmission, 1,
            RngFactory(0), collect_stats=True,
        )
        a.merge(b)
        assert a.events.sum() == before + b.events.sum()

    def test_infection_minutes_within_day(self, tiny_graph):
        sc, state = _setup(tiny_graph, infected_frac=0.3)
        rows = np.arange(tiny_graph.n_visits, dtype=np.int64)
        res = compute_infections(
            rows, tiny_graph, state, sc.disease, sc.transmission, 0, RngFactory(3)
        )
        assert len(res.infections), "expected some transmissions at 30% prevalence"
        assert np.all((res.infections.minute > 0) & (res.infections.minute <= 1440))


class TestCounterMerge:
    """Stats accumulate counter-style: merging results that share
    location ids must *add* their counts, never overwrite them."""

    def test_merge_adds_on_shared_locations(self, tiny_graph):
        sc, state = _setup(tiny_graph)
        rows = np.arange(tiny_graph.n_visits, dtype=np.int64)
        a = compute_infections(
            rows, tiny_graph, state, sc.disease, sc.transmission, 0,
            RngFactory(0), collect_stats=True,
        )
        b = compute_infections(
            rows, tiny_graph, state, sc.disease, sc.transmission, 1,
            RngFactory(0), collect_stats=True,
        )
        g = tiny_graph
        expected = _dense(a, "events", g) + _dense(b, "events", g)
        expected_inter = _dense(a, "interactions", g) + _dense(b, "interactions", g)
        a.merge(b)
        assert np.array_equal(_dense(a, "events", g), expected)
        assert np.array_equal(_dense(a, "interactions", g), expected_inter)

    def test_merge_across_location_groups(self, tiny_graph):
        """The parallel path: each LocationManager computes a disjoint
        location group; merged per-location stats must equal the
        whole-population call's."""
        sc, state = _setup(tiny_graph)
        rows = np.arange(tiny_graph.n_visits, dtype=np.int64)
        whole = compute_infections(
            rows, tiny_graph, state, sc.disease, sc.transmission, 0,
            RngFactory(sc.seed), collect_stats=True,
        )
        locs = tiny_graph.visit_location
        merged = None
        for part in range(3):
            res = compute_infections(
                rows[locs[rows] % 3 == part], tiny_graph, state, sc.disease,
                sc.transmission, 0, RngFactory(sc.seed), collect_stats=True,
            )
            if merged is None:
                merged = res
            else:
                merged.merge(res)
        assert np.array_equal(merged.locations, whole.locations)
        assert np.array_equal(merged.events, whole.events)
        assert np.array_equal(merged.interactions, whole.interactions)
        assert _key(merged.infections) == _key(whole.infections)

    def test_sequential_run_accumulates_location_stats(self, tiny_graph):
        from repro.core import SequentialSimulator

        sc = Scenario(
            graph=tiny_graph, n_days=6, seed=3, initial_infections=8,
            transmission=TransmissionModel(3e-4),
        )
        result = SequentialSimulator(sc, collect_location_stats=True).run()
        # Every day contributes 2 events per visit made.
        assert result.location_events.sum() == 2 * sum(
            d.visits_made for d in result.days
        )
