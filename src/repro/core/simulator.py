"""Sequential reference simulator — the paper's six-step day loop.

This is the semantic ground truth: the chare-parallel runtime in
:mod:`repro.core.parallel` must produce exactly the same epidemic
trajectory (asserted by integration tests).  Per day (paper §II-B):

1. each person recalculates health state and decides the day's visits
   (interventions applied), emitting *visit* messages;
2. synchronisation (trivially satisfied here);
3. each location builds its DES from the visit messages and computes
   susceptible×infectious interactions, emitting *infect* messages;
4. synchronisation;
5. infected persons update their health state;
6. global system state is updated.

The latent-period argument (an infection today can never make someone
infectious *today*) is what allows the whole day to be processed in
one parallel sweep without violating causality — and equally what lets
us run steps 1/3/5 as whole-population vectorised passes.
"""

from __future__ import annotations

import numpy as np

from repro import observe
from repro.core.day import DayCore, DayResult, SimulationResult
from repro.core.exposure import LocationPhaseResult, compute_infections
from repro.core.scenario import Scenario

__all__ = ["DayResult", "SimulationResult", "SequentialSimulator"]


class SequentialSimulator:
    """Runs a :class:`~repro.core.scenario.Scenario` to completion.

    Parameters
    ----------
    scenario:
        The simulation specification.
    collect_location_stats:
        Accumulate per-location event/interaction counts across the run
        (needed when fitting the load model; ~15% slower).
    kernel:
        Exposure-kernel selection passed through to
        :func:`~repro.core.exposure.compute_infections` (``"compiled"``
        / ``"flat"`` / ``"grouped"``; None = ``"compiled"`` when the C
        library loads, else ``"flat"``).  Kernels are
        bit-for-bit equivalent — this is a performance knob and the
        lever for old-vs-new differential testing.

    The central steps and the run's state live on :attr:`core`
    (a :class:`~repro.core.day.DayCore`).
    """

    def __init__(
        self,
        scenario: Scenario,
        collect_location_stats: bool = False,
        kernel: str | None = None,
    ):
        self.scenario = scenario
        self.collect_location_stats = collect_location_stats
        self.kernel = kernel
        self.rng_factory = scenario.rng_factory
        self.core = DayCore(scenario, collect_stats=collect_location_stats)
        self.health_state = self.core.health_state
        self.days_remaining = self.core.days_remaining
        self.treatment = self.core.treatment

    @classmethod
    def from_spec(
        cls, spec, graph=None, collect_location_stats: bool = False
    ) -> "SequentialSimulator":
        """Build from a :class:`repro.spec.RunSpec` (the canonical run
        definition); ``graph`` short-circuits the population build."""
        return cls(
            spec.build_scenario(graph),
            collect_location_stats=collect_location_stats,
            kernel=spec.runtime.kernel,
        )

    @property
    def day(self) -> int:
        """The next day to simulate."""
        return self.core.day

    # ------------------------------------------------------------------
    def step_day(self) -> tuple[DayResult, "LocationPhaseResult"]:
        """Execute one simulated day; return its result and phase detail."""
        with observe.span("sim.day", day=self.day):
            return self._step_day()

    def _step_day(self) -> tuple[DayResult, "LocationPhaseResult"]:
        sc = self.scenario
        d = sc.disease
        core = self.core
        day = core.day
        ctx = core.begin_day()

        # Step 1a: recalculate health state (PTTS dwell expirations).
        transitions = d.advance_day(
            self.health_state, self.days_remaining, self.treatment, day, self.rng_factory
        )

        # Step 1b: decide today's visits (interventions filter).
        keep = sc.interventions.visit_mask(ctx)
        visit_rows = np.flatnonzero(keep)

        # Steps 2–4: location phase (sync points are implicit here; the
        # parallel runtime runs real completion-detection protocols).
        phase = compute_infections(
            visit_rows,
            sc.graph,
            self.health_state,
            d,
            sc.transmission,
            day,
            self.rng_factory,
            collect_stats=self.collect_location_stats,
            kernel=self.kernel,
        )
        if self.collect_location_stats:
            core.add_location_stats(phase.locations, phase.events, phase.interactions)

        # Step 5: apply infect messages.
        infected = d.infect(
            phase.infections.person, self.health_state, self.days_remaining,
            self.treatment, day=day, rng_factory=self.rng_factory,
        )
        core.ever_infected[infected] = True

        # Step 6: central post-apply, prevalence and the curve.
        return core.end_day(infected.size, visit_rows.size, transitions.size), phase

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run the remaining scenario days; return the aggregated result."""
        with observe.span("sequential.run", days=self.scenario.n_days):
            while self.day < self.scenario.n_days:
                self.step_day()
            return self.core.result()
