"""Run one workload iteration through the public entry points.

Each iteration builds its inputs from scratch (population, partition,
simulator), so set-up is measured on every iteration, then runs the
day loop.  Day boundaries come from what each backend exposes:
``step_day`` calls (seq), ``prepare_day`` calls (charm) and
``SmpResult.phase_times`` (smp).  The hooks that stamp them are
installed on the run's own simulator objects; only the smp driver's
``build_shared_state`` name is swapped, for the one call that fixes the
origin of its phase clock.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.smp.backend
from repro import observe
from repro.core.parallel import ParallelEpiSimdemics
from repro.core.simulator import SequentialSimulator


@dataclass
class Iteration:
    """What one iteration measured.  Times are seconds."""

    epidemic: dict
    setup_s: float
    sim_s: float
    day_s: list[float]
    synthpop_s: float
    partition_s: float
    n_visits: int
    #: backend-specific raw output (runtime stats, smp phase times, ...)
    raw: dict = field(default_factory=dict)


def epidemic(result, n_persons: int) -> dict:
    """The deterministic projection of a run that the checks compare."""
    curve = result.curve
    return {
        "n_persons": int(n_persons),
        "new_infections": [int(x) for x in curve.new_infections],
        "prevalence": [float(x) for x in curve.prevalence],
        "total_infections": int(result.total_infections),
        "final_histogram": {k: int(v) for k, v in sorted(result.final_histogram.items())},
    }


def _stamp_calls(obj, name: str, stamps: list[float]) -> None:
    """Record the start time of every ``obj.name(...)`` call."""
    fn = getattr(obj, name)

    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return fn(*args, **kwargs)

    setattr(obj, name, stamped)


@contextmanager
def _smp_origin(stamps: list[float]):
    """Stamp the return of ``build_shared_state``: the smp run origin."""
    original = repro.smp.backend.build_shared_state

    def build_shared_state(*args, **kwargs):
        out = original(*args, **kwargs)
        stamps.append(time.perf_counter())
        return out

    repro.smp.backend.build_shared_state = build_shared_state
    try:
        yield
    finally:
        repro.smp.backend.build_shared_state = original


def run_once(spec, tracer=None) -> Iteration:
    """One iteration of ``spec``; ``tracer`` is an entered LayerTracer."""
    t0 = time.perf_counter()
    graph = spec.population.build()
    t_pop = time.perf_counter()
    n_visits = graph.n_visits
    pspec = spec.resolved_partition()
    part = None
    if pspec is not None:
        graph, part = pspec.build(graph)
    t_part = time.perf_counter()
    raw = {"graph": graph, "partition": part}

    backend = spec.runtime.backend
    if backend == "seq":
        sim = SequentialSimulator.from_spec(spec, graph=graph)
    elif backend == "smp":
        sim = repro.smp.backend.SmpSimulator.from_spec(spec, graph=graph, partition=part)
    else:
        sim = ParallelEpiSimdemics.from_spec(spec, graph=graph, partition=part)
    if tracer is not None:
        tracer.instrument(sim.scenario.disease, sim.scenario.interventions)

    starts: list[float] = []
    if backend == "smp":
        with _smp_origin(starts):
            if tracer is not None:
                with observe.observing() as obs:
                    out = sim.run()
                raw["virtual_spans"] = obs.virtual_spans
            else:
                out = sim.run()
        # Phase clocks count from the origin; the run ends at wall_seconds.
        origin = starts[0]
        day_starts = [p.start for p in out.phase_times]
        end = out.wall_seconds
        setup_s = origin + day_starts[0] - t0
        raw.update(
            phase_times=out.phase_times, wire_bytes=out.wire_bytes,
            ring_stalls=out.backpressure_events,
        )
        result = out.result
    else:
        _stamp_calls(sim, "step_day" if backend == "seq" else "prepare_day", starts)
        t_run = time.perf_counter()
        out = sim.run()
        end = time.perf_counter()
        day_starts = starts
        setup_s = starts[0] - t0
        if backend == "charm":
            raw.update(
                runtime_stats=out.runtime_stats,
                virtual_day_s=out.time_per_day,
                run_s=end - t_run,
            )
            result = out.result
        else:
            result = out
    bounds = list(day_starts) + [end]
    return Iteration(
        epidemic=epidemic(result, graph.n_persons),
        setup_s=setup_s,
        sim_s=end - day_starts[0],
        day_s=[b - a for a, b in zip(bounds, bounds[1:])],
        synthpop_s=t_pop - t0,
        partition_s=t_part - t_pop if pspec is not None else 0.0,
        n_visits=n_visits,
        raw=raw,
    )
