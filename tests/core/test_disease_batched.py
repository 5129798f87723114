"""Batched PTTS update vs the per-person scalar loop it replaces.

``DiseaseModel.advance_day`` and ``DiseaseModel.infect`` derive every
draw from the person's keyed ``(PERSON, day, person, salt)`` stream in
one vector pass.  The oracle below is the scalar reference: one
``rng_factory.stream`` Generator per state change, read exactly as the
golden traces were recorded.  States, remaining timers and the returned
arrays (order included) must agree bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.disease import (
    FOREVER,
    UNTREATED,
    VACCINATED,
    DiseaseModel,
    DwellDistribution,
    DwellKind,
    HealthState,
    Transition,
    influenza_model,
)
from repro.scenarios.models import two_variant_model
from repro.util.rng import RngFactory

#: ``uniform(1, HEAVY_HI)`` spans ~2**32 / 3: Lemire rejects ~1/3 of draws.
HEAVY_HI = 1_431_655_766


# ----------------------------------------------------------------------
# scalar oracle
# ----------------------------------------------------------------------
def scalar_advance_day(m, state, remaining, treatment, day, rng_factory, subset=None):
    if subset is None:
        live = remaining != FOREVER
        remaining[live] -= 1
        due = np.flatnonzero(live & (remaining <= 0))
    else:
        subset = np.asarray(subset, dtype=np.int64)
        live = subset[remaining[subset] != FOREVER]
        remaining[live] -= 1
        due = live[remaining[live] <= 0]
    changed = []
    for p in due:
        p = int(p)
        s = int(state[p])
        t = int(treatment[p])
        compiled = m._compiled.get((s, t)) or m._compiled.get((s, UNTREATED))
        if compiled is None:
            continue
        gen = rng_factory.stream(RngFactory.PERSON, day, p, m._ADVANCE_SALT)
        targets, cum = compiled
        choice = min(int(np.searchsorted(cum, gen.random(), side="right")), len(targets) - 1)
        ns = int(targets[choice])
        state[p] = ns
        dwell = m.states[ns].dwell
        remaining[p] = FOREVER if dwell.kind == DwellKind.FOREVER else int(dwell.sample(gen, 1)[0])
        changed.append(p)
    return np.asarray(changed, dtype=np.int64)


def scalar_infect(m, persons, state, remaining, treatment, day, rng_factory):
    persons = np.unique(np.asarray(persons, dtype=np.int64))
    hit = persons[m.is_susceptible[state[persons]]]
    for p in hit:
        p = int(p)
        entry = m._entry_by_state_index.get(int(state[p]))
        if entry is None:
            entry = m.entry_state(int(treatment[p]))
        state[p] = entry
        dwell = m.states[entry].dwell
        if dwell.kind == DwellKind.FOREVER:
            remaining[p] = FOREVER
        else:
            gen = rng_factory.stream(RngFactory.PERSON, day, p, m._INFECT_SALT)
            remaining[p] = int(dwell.sample(gen, 1)[0])
    return hit


# ----------------------------------------------------------------------
# models
# ----------------------------------------------------------------------
def every_dwell_model() -> DiseaseModel:
    """Every dwell kind, multi-target sets, per-treatment sets and lanes."""
    states = [
        HealthState("S", susceptibility=1.0),
        HealthState("P", susceptibility=0.5),  # partially immune
        HealthState(
            "E",
            dwell=DwellDistribution.uniform(1, 3),
            transitions={
                UNTREATED: (
                    Transition("I_fix", 0.4),
                    Transition("I_geo", 0.2),
                    Transition("I_gam", 0.2),
                    Transition("HEAVY", 0.1),
                    Transition("R", 0.1),
                ),
                2: (Transition("R", 1.0),),
            },
        ),
        HealthState(
            "E_fix",
            dwell=DwellDistribution.fixed(2),
            transitions={UNTREATED: (Transition("HEAVY", 0.5), Transition("I_fix", 0.5))},
        ),
        HealthState(
            "I_fix",
            infectivity=1.0,
            dwell=DwellDistribution.fixed(1),
            transitions={UNTREATED: (Transition("S", 0.5), Transition("P", 0.5))},
        ),
        HealthState(
            "I_geo",
            infectivity=1.0,
            dwell=DwellDistribution.geometric(0.4),
            transitions={UNTREATED: (Transition("I_gam", 1.0),)},
        ),
        HealthState(
            "I_gam",
            infectivity=0.5,
            dwell=DwellDistribution.gamma(1.5, 1.2),
            transitions={UNTREATED: (Transition("P", 0.7), Transition("E", 0.3))},
        ),
        HealthState(
            "HEAVY",
            dwell=DwellDistribution.uniform(1, HEAVY_HI),
            transitions={UNTREATED: (Transition("R", 1.0),)},
        ),
        HealthState("R"),
    ]
    return DiseaseModel(
        states,
        susceptible="S",
        infection_entry={
            UNTREATED: "E",
            VACCINATED: "E_fix",
            3: "I_geo",
            4: "I_gam",
            5: "HEAVY",
            6: "R",  # FOREVER entry dwell
        },
        infection_entry_by_state={"P": "E_fix"},
    )


MODELS = {
    "every_dwell": every_dwell_model(),
    "influenza": influenza_model(),
    "two_variant": two_variant_model(),
}

#: Known ids plus ids no model defines (they fall back to UNTREATED).
TREATMENTS = [UNTREATED, VACCINATED, 2, 3, 4, 5, 6, 9, -1]


def _random_health(m, n, rng):
    state = rng.integers(0, m.n_states, size=n).astype(np.int32)
    finite = np.array([s.dwell.kind != DwellKind.FOREVER for s in m.states])
    remaining = np.where(finite[state], rng.integers(1, 4, size=n), FOREVER).astype(np.int32)
    return state, remaining


def _assert_same(a, b):
    for x, y in zip(a, b):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(MODELS)))
    n = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    root = draw(st.integers(min_value=0, max_value=2**63))
    parts = draw(st.integers(min_value=1, max_value=4))
    days = draw(st.integers(min_value=1, max_value=6))
    return name, n, seed, root, parts, days


class TestBatchedEqualsScalar:
    @given(cases())
    @settings(max_examples=60, deadline=None)
    def test_day_loop(self, case):
        name, n, seed, root, parts, days = case
        m = MODELS[name]
        rng = np.random.default_rng(seed)
        f = RngFactory(root)
        treatment = rng.choice(TREATMENTS, size=n).astype(np.int32)
        state, remaining = _random_health(m, n, rng)
        batched = [state.copy(), remaining.copy()]
        scalar = [state.copy(), remaining.copy()]
        whole = [state.copy(), remaining.copy()]
        for day in range(-1, days):
            # Disjoint subsets in random order, each in random order.
            owner = rng.integers(0, parts, size=n)
            perm = rng.permutation(n)
            for k in range(parts):
                sub = perm[owner[perm] == k]
                got = m.advance_day(*batched, treatment, day, f, subset=sub)
                want = scalar_advance_day(m, *scalar, treatment, day, f, subset=sub)
                _assert_same([got], [want])
            got = m.advance_day(*whole, treatment, day, f)
            assert got.dtype == np.int64
            _assert_same(batched, whole)
            _assert_same(batched, scalar)
            # Duplicate and non-susceptible requests ride along.
            req = rng.integers(0, n, size=rng.integers(0, 2 * n + 1))
            got = m.infect(req, *batched, treatment, day, f)
            want = scalar_infect(m, req, *scalar, treatment, day, f)
            m.infect(req, *whole, treatment, day, f)
            _assert_same([got], [want])
            _assert_same(batched, scalar)
            _assert_same(batched, whole)

    @given(
        st.sampled_from(sorted(MODELS)),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=-1, max_value=400),
    )
    @settings(max_examples=40, deadline=None)
    def test_infect_everyone(self, name, root, day):
        m = MODELS[name]
        n = 80
        rng = np.random.default_rng(root)
        f = RngFactory(root)
        treatment = rng.choice(TREATMENTS, size=n).astype(np.int32)
        state, remaining = _random_health(m, n, rng)
        batched = [state.copy(), remaining.copy()]
        scalar = [state.copy(), remaining.copy()]
        req = np.concatenate([np.arange(n), rng.integers(0, n, size=n)])
        got = m.infect(req, *batched, treatment, day, f)
        want = scalar_infect(m, req, *scalar, treatment, day, f)
        _assert_same([got], [want])
        _assert_same(batched, scalar)


class _CountingFactory(RngFactory):
    def __init__(self, root_seed):
        super().__init__(root_seed)
        self.streams = 0

    def stream(self, *keys):
        self.streams += 1
        return super().stream(*keys)


class TestScalarFallback:
    """Lemire rejections and GEOMETRIC/GAMMA dwells replay a Generator."""

    def _infect(self, treatment_id):
        m = MODELS["every_dwell"]
        n = 600
        treatment = np.full(n, treatment_id, dtype=np.int32)
        f = _CountingFactory(3)
        state, remaining = m.initial_health(n)
        expected = [state.copy(), remaining.copy()]
        hit = m.infect(np.arange(n), state, remaining, treatment, 4, f)
        scalar_infect(m, np.arange(n), *expected, treatment, 4, RngFactory(3))
        _assert_same([state, remaining], expected)
        assert hit.size == n
        return f.streams

    def test_heavy_uniform_rejections_fall_back(self):
        # ~1/3 of the first candidates are rejected; only those replay.
        assert 100 < self._infect(5) < 300

    def test_geometric_and_gamma_always_fall_back(self):
        assert self._infect(3) == 600
        assert self._infect(4) == 600

    def test_fixed_forever_and_small_uniform_never_fall_back(self):
        assert self._infect(VACCINATED) == 0
        assert self._infect(6) == 0
        assert self._infect(UNTREATED) == 0

    def test_advance_into_heavy_uniform(self):
        m = MODELS["every_dwell"]
        n = 600
        treatment = np.zeros(n, dtype=np.int32)
        state = np.full(n, m.state_index("E_fix"), dtype=np.int32)
        remaining = np.ones(n, dtype=np.int32)
        expected = [state.copy(), remaining.copy()]
        f = _CountingFactory(8)
        got = m.advance_day(state, remaining, treatment, 2, f)
        want = scalar_advance_day(m, *expected, treatment, 2, RngFactory(8))
        _assert_same([got, state, remaining], [want, *expected])
        heavy = int(np.sum(state == m.state_index("HEAVY")))
        assert 0 < f.streams < heavy

