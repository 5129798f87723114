"""The central steps of the six-step day loop, shared by every backend.

The paper's day (§II-B) has one set of *central* steps around its
person / location / apply phases: seed the index cases once, build the
day's :class:`~repro.core.interventions.DayContext` from start-of-day
prevalence and run ``update_treatments``; after the apply phase run
``post_apply``, measure prevalence and record the day.  :class:`DayCore`
is the only implementation of those steps.  The sequential simulator,
the chare runtime and the shared-memory driver each own one and keep
only their own distribution and transport of the three phases, so the
central order cannot drift between execution modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.disease import UNTREATED
from repro.core.interventions import DayContext
from repro.core.metrics import EpiCurve, state_histogram

__all__ = ["DayResult", "SimulationResult", "PhaseTimes", "DayCore"]


@dataclass
class DayResult:
    """What one simulated day produced."""

    day: int
    visits_made: int
    new_infections: int
    transitions: int
    prevalence: float


@dataclass
class SimulationResult:
    """Full-run output: the epidemic curve plus final state."""

    curve: EpiCurve
    final_histogram: dict[str, int]
    days: list[DayResult] = field(default_factory=list)
    #: per-location DES event / S×I interaction totals over the run,
    #: dense ``n_locations`` int64 arrays (None unless collected)
    location_events: np.ndarray | None = None
    location_interactions: np.ndarray | None = None

    @property
    def total_infections(self) -> int:
        return self.curve.cumulative_infections[-1] if self.curve.n_days else 0


@dataclass
class PhaseTimes:
    """Phase boundaries of one day: virtual seconds on the chare
    runtime, measured wall seconds from the run origin on the smp
    backend (each boundary is the *last* PE's crossing)."""

    day: int
    start: float
    visits_done: float
    locations_done: float
    day_done: float

    @property
    def person_phase(self) -> float:
        return self.visits_done - self.start

    @property
    def location_phase(self) -> float:
        return self.locations_done - self.visits_done

    @property
    def total(self) -> float:
        return self.day_done - self.start


class DayCore:
    """Central state and steps of one run.

    ``arrays`` hands in ``(health_state, days_remaining, treatment,
    ever_infected)`` — the smp driver passes its shared-memory arrays;
    by default they are allocated here.  Construction resets the
    scenario's interventions, so one Scenario object is reusable across
    runs.  ``collect_stats`` allocates the dense per-location totals
    that :meth:`add_location_stats` accumulates.
    """

    def __init__(self, scenario, arrays=None, collect_stats: bool = False):
        self.scenario = scenario
        d = scenario.disease
        g = scenario.graph
        if arrays is None:
            health_state, days_remaining = d.initial_health(g.n_persons)
            arrays = (
                health_state,
                days_remaining,
                np.full(g.n_persons, UNTREATED, dtype=np.int32),
                np.zeros(g.n_persons, dtype=bool),
            )
        self.health_state, self.days_remaining, self.treatment, self.ever_infected = arrays
        scenario.interventions.reset()
        # Non-infectious absorbing states are terminal even when
        # partially susceptible (e.g. a cross-immune recovered state):
        # the person is not "currently infected" anymore.
        self._terminal = np.array(
            [s.dwell.kind.name == "FOREVER" and not s.is_infectious for s in d.states]
        )
        self.day = 0
        self.seeded = False
        self._index_cases = 0
        self.ctx: DayContext | None = None
        self.curve = EpiCurve()
        self.days: list[DayResult] = []
        self.location_events = self.location_interactions = None
        if collect_stats:
            self.location_events = np.zeros(g.n_locations, dtype=np.int64)
            self.location_interactions = np.zeros(g.n_locations, dtype=np.int64)

    def prevalence(self) -> float:
        """Fraction currently infected: ever infected, not susceptible
        anymore, and not settled into a terminal state."""
        d = self.scenario.disease
        now = self.ever_infected & (self.health_state != d.susceptible_index)
        now &= ~self._terminal[self.health_state]
        return float(now.sum()) / max(1, self.scenario.graph.n_persons)

    def begin_day(self) -> DayContext:
        """Seed the index cases (first day only), build the day context
        from start-of-day state and run ``update_treatments``."""
        sc = self.scenario
        if not self.seeded:
            infected = sc.disease.infect(
                sc.index_cases(), self.health_state, self.days_remaining,
                self.treatment, day=-1, rng_factory=sc.rng_factory,
            )
            self.ever_infected[infected] = True
            self._index_cases = int(infected.size)
            self.seeded = True
        # Start-of-day (pre-transition) prevalence, so central
        # intervention decisions are identical in every execution mode.
        self.ctx = DayContext(
            day=self.day,
            graph=sc.graph,
            disease=sc.disease,
            health_state=self.health_state,
            treatment=self.treatment,
            prevalence=self.prevalence(),
            cumulative_attack=float(self.ever_infected.mean()),
            rng_factory=sc.rng_factory,
            days_remaining=self.days_remaining,
        )
        sc.interventions.update_treatments(self.ctx)
        return self.ctx

    def end_day(self, new_infections: int, visits_made: int, transitions: int) -> DayResult:
        """Close the day after its apply phase: ``post_apply`` (components
        edit state centrally, after the infections are in), prevalence,
        the curve, and the day's :class:`DayResult`."""
        self.scenario.interventions.post_apply(self.ctx)
        new = int(new_infections) + self._index_cases
        self._index_cases = 0
        prevalence = self.prevalence()
        self.curve.record_day(new, prevalence)
        result = DayResult(
            day=self.day,
            visits_made=int(visits_made),
            new_infections=new,
            transitions=int(transitions),
            prevalence=prevalence,
        )
        self.days.append(result)
        self.day += 1
        return result

    def add_location_stats(self, locations, events, interactions) -> None:
        """Add one kernel call's per-location counts (aligned with its
        unique ``locations``) to the run totals."""
        self.location_events[locations] += events
        self.location_interactions[locations] += interactions

    def result(self) -> SimulationResult:
        """The run's result: curve, days so far and final histogram."""
        return SimulationResult(
            curve=self.curve,
            final_histogram=state_histogram(self.health_state, self.scenario.disease),
            days=self.days,
            location_events=self.location_events,
            location_interactions=self.location_interactions,
        )
