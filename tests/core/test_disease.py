"""PTTS disease model: structure, transitions, determinism."""

import numpy as np
import pytest

from repro.core.disease import (
    FOREVER,
    UNTREATED,
    VACCINATED,
    DiseaseModel,
    DwellDistribution,
    HealthState,
    Transition,
    influenza_model,
    sir_model,
)
from repro.util.rng import RngFactory


class TestDwellDistribution:
    def test_fixed(self, rng):
        d = DwellDistribution.fixed(3)
        assert np.all(d.sample(rng, 10) == 3)
        assert d.mean == 3

    def test_uniform_range(self, rng):
        d = DwellDistribution.uniform(2, 5)
        s = d.sample(rng, 1000)
        assert s.min() >= 2 and s.max() <= 5
        assert d.mean == 3.5

    def test_geometric_support(self, rng):
        d = DwellDistribution.geometric(0.5)
        assert d.sample(rng, 500).min() >= 1
        assert d.mean == 2.0

    def test_gamma_at_least_one_day(self, rng):
        d = DwellDistribution.gamma(0.3, 0.3)
        assert d.sample(rng, 500).min() >= 1

    def test_forever_sentinel(self, rng):
        d = DwellDistribution.forever()
        assert np.all(d.sample(rng, 3) == FOREVER)
        assert d.mean == float("inf")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DwellDistribution.fixed(0)
        with pytest.raises(ValueError):
            DwellDistribution.uniform(3, 2)
        with pytest.raises(ValueError):
            DwellDistribution.geometric(0.0)

    def test_finite_bounds_stay_below_forever(self):
        with pytest.raises(ValueError):
            DwellDistribution.fixed(FOREVER)
        with pytest.raises(ValueError):
            DwellDistribution.uniform(1, FOREVER)
        assert DwellDistribution.fixed(FOREVER - 1).a == FOREVER - 1
        assert DwellDistribution.uniform(1, FOREVER - 1).b == FOREVER - 1

    @pytest.mark.parametrize(
        "dwell", [DwellDistribution.gamma(1.0, 1e10), DwellDistribution.geometric(1e-12)]
    )
    def test_huge_draws_saturate_below_forever(self, rng, dwell):
        s = dwell.sample(rng, 200)
        assert s.dtype == np.int32
        assert s.min() >= 1 and s.max() == FOREVER - 1

    def test_saturated_dwell_does_not_transition_next_day(self):
        states = [
            HealthState("S", susceptibility=1.0),
            HealthState(
                "E",
                dwell=DwellDistribution.geometric(1e-12),
                transitions={UNTREATED: (Transition("R", 1.0),)},
            ),
            HealthState("R"),
        ]
        m = DiseaseModel(states, "S", {UNTREATED: "E"})
        state, remaining = m.initial_health(20)
        treatment = np.zeros(20, dtype=np.int32)
        f = RngFactory(0)
        m.infect(np.arange(20), state, remaining, treatment, -1, f)
        assert np.all(remaining == FOREVER - 1)
        assert m.advance_day(state, remaining, treatment, 0, f).size == 0
        assert np.all(state == m.state_index("E"))
        assert np.all(remaining == FOREVER - 2)


class TestModelValidation:
    def test_transition_probs_must_sum_to_one(self):
        states = [
            HealthState("S", susceptibility=1.0),
            HealthState(
                "I",
                infectivity=1.0,
                dwell=DwellDistribution.fixed(2),
                transitions={UNTREATED: (Transition("R", 0.5),)},
            ),
            HealthState("R"),
        ]
        with pytest.raises(ValueError, match="sum"):
            DiseaseModel(states, "S", {UNTREATED: "I"})

    def test_finite_dwell_needs_transitions(self):
        states = [
            HealthState("S", susceptibility=1.0),
            HealthState("I", infectivity=1.0, dwell=DwellDistribution.fixed(2)),
        ]
        with pytest.raises(ValueError, match="no transitions"):
            DiseaseModel(states, "S", {UNTREATED: "I"})

    def test_duplicate_names_rejected(self):
        states = [HealthState("S"), HealthState("S")]
        with pytest.raises(ValueError, match="duplicate"):
            DiseaseModel(states, "S", {UNTREATED: "S"})

    def test_missing_untreated_entry_rejected(self):
        m = sir_model()
        with pytest.raises(ValueError):
            DiseaseModel(m.states, "S", {VACCINATED: "E"})


class TestSIRDynamics:
    def test_infection_enters_e(self):
        m = sir_model(latent_days=2, infectious_days=3)
        state, remaining = m.initial_health(5)
        treatment = np.zeros(5, dtype=np.int32)
        hit = m.infect(np.array([1, 3]), state, remaining, treatment, 0, RngFactory(0))
        assert set(hit.tolist()) == {1, 3}
        assert state[1] == m.state_index("E")
        assert remaining[1] == 2

    def test_double_infection_ignored(self):
        m = sir_model()
        state, remaining = m.initial_health(3)
        treatment = np.zeros(3, dtype=np.int32)
        m.infect(np.array([0]), state, remaining, treatment, 0, RngFactory(0))
        again = m.infect(np.array([0, 0]), state, remaining, treatment, 1, RngFactory(0))
        assert again.size == 0

    def test_full_chain_timing(self):
        m = sir_model(latent_days=2, infectious_days=3)
        f = RngFactory(1)
        state, remaining = m.initial_health(1)
        treatment = np.zeros(1, dtype=np.int32)
        m.infect(np.array([0]), state, remaining, treatment, -1, f)
        names = []
        for day in range(7):
            m.advance_day(state, remaining, treatment, day, f)
            names.append(m.states[int(state[0])].name)
        # E for 2 days -> I for 3 days -> R forever.
        assert names == ["E", "I", "I", "I", "R", "R", "R"]

    def test_advance_subset_equals_whole(self):
        m = sir_model()
        f = RngFactory(9)
        n = 40
        state_a, rem_a = m.initial_health(n)
        tr = np.zeros(n, dtype=np.int32)
        m.infect(np.arange(0, n, 3), state_a, rem_a, tr, -1, f)
        state_b, rem_b = state_a.copy(), rem_a.copy()
        for day in range(6):
            m.advance_day(state_a, rem_a, tr, day, f)
            # Partitioned advance over two disjoint subsets.
            m.advance_day(state_b, rem_b, tr, day, f, subset=np.arange(0, n, 2))
            m.advance_day(state_b, rem_b, tr, day, f, subset=np.arange(1, n, 2))
            np.testing.assert_array_equal(state_a, state_b)
            np.testing.assert_array_equal(rem_a, rem_b)


class TestInfluenzaModel:
    def test_states_present(self):
        m = influenza_model()
        for name in (
            "susceptible", "latent", "latent_vax",
            "infectious_symptomatic", "infectious_asymptomatic", "recovered",
        ):
            assert name in m.index

    def test_vaccinated_entry_differs(self):
        m = influenza_model()
        assert m.entry_state(VACCINATED) == m.state_index("latent_vax")
        assert m.entry_state(UNTREATED) == m.state_index("latent")

    def test_vaccine_efficacy_statistics(self):
        m = influenza_model(vaccine_efficacy=0.8)
        f = RngFactory(5)
        n = 4000
        state, remaining = m.initial_health(n)
        treatment = np.full(n, VACCINATED, dtype=np.int32)
        m.infect(np.arange(n), state, remaining, treatment, -1, f)
        assert np.all(state == m.state_index("latent_vax"))
        # Run until everyone resolves.
        for day in range(10):
            m.advance_day(state, remaining, treatment, day, f)
        became_infectious = (
            np.sum(state == m.state_index("recovered")) < n
        )  # everyone eventually recovers; check the asymptomatic path was rare
        # Count via the recorded asymptomatic dwell: instead, re-run 1 day at a time
        # is complex; simpler statistical check on entry outcome below.
        state2, remaining2 = m.initial_health(n)
        m.infect(np.arange(n), state2, remaining2, treatment, -1, f)
        for day in range(4):
            m.advance_day(state2, remaining2, treatment, day, f)
        frac_asymp_or_recovered = np.mean(state2 != m.state_index("latent_vax"))
        assert frac_asymp_or_recovered > 0.9  # latents resolved within 3 days
        asymp = np.mean(state2 == m.state_index("infectious_asymptomatic"))
        assert asymp < 0.3  # most vaccinated latents resolve without infectiousness

    def test_invalid_efficacy(self):
        with pytest.raises(ValueError):
            influenza_model(vaccine_efficacy=1.5)

    def test_advance_day_deterministic_across_order(self):
        m = influenza_model()
        f = RngFactory(2)
        n = 60
        state_a, rem_a = m.initial_health(n)
        tr = np.zeros(n, dtype=np.int32)
        m.infect(np.arange(n), state_a, rem_a, tr, -1, f)
        state_b, rem_b = state_a.copy(), rem_a.copy()
        for day in range(8):
            m.advance_day(state_a, rem_a, tr, day, f)
            # Reverse-order subsets must give the same result.
            m.advance_day(state_b, rem_b, tr, day, f, subset=np.arange(n - 1, -1, -1))
        np.testing.assert_array_equal(state_a, state_b)
