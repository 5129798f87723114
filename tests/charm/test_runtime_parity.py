"""Runtime parity: the chare runtime's virtual timeline, pinned exactly.

``runtime_parity.json`` holds, per cell, every virtual phase time, the
total virtual time, the runtime's message / byte / event / compute
counters, the per-chare LB cost feed and the visit channel's
aggregation counters for the golden scaled-Wyoming population.  The
cells cross the three visit deliveries with both detectors and with
one and two chares per PE (the multi-LM-per-PE dispatch path), plus
load-balanced cells (their per-chare cost feed rounds differently if
batched records are attributed in one step) and one ``validate=True``
cell.  The values are compared with
``==``: the runtime model is deterministic, so any change to a modelled
time or count is a change of the program, not noise.

Re-record (only for an intended change of the runtime model) with::

    PYTHONPATH=src python tests/charm/test_runtime_parity.py
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest

FIXTURE = Path(__file__).with_name("runtime_parity.json")

#: Visit-channel buffer size: small enough that buffers flush on the
#: byte threshold mid-phase (and not a multiple of the 16-byte visit or
#: the 20-byte TRAM record), not only at the end-of-phase flush.
AGGREGATION_BYTES = 600


def _cell(delivery, sync, chares_per_pe, suffix="", **extra):
    return dict(
        name=f"{delivery}-{sync}-x{chares_per_pe}{suffix}",
        delivery=delivery, sync=sync, chares_per_pe=chares_per_pe, **extra,
    )


CELLS = [
    _cell(delivery, sync, cpp)
    for delivery in ("aggregated", "direct", "tram")
    for sync in ("cd", "qd")
    for cpp in (1, 2)
] + [
    _cell("aggregated", "cd", 2, "-lb2-greedy", lb_period=2, lb_strategy="greedy"),
    _cell(
        "aggregated", "cd", 3, "-lb2-greedy-64k",
        lb_period=2, lb_strategy="greedy", aggregation_bytes=64 * 1024,
    ),
    _cell("tram", "cd", 4, "-lb2-refine", lb_period=2, lb_strategy="refine"),
    _cell("tram", "qd", 2, "-validate", validate=True),
]


@lru_cache(maxsize=None)
def _population():
    from repro.synthpop import state_population

    return state_population("WY", scale=2e-3, seed=5)


@lru_cache(maxsize=None)
def _partition(k: int):
    from repro.partition import partition_bipartite

    return partition_bipartite(_population(), k)


def capture(cell: dict) -> dict:
    """Run one cell; return its pinned values as a JSON-ready dict."""
    from repro.charm.machine import Machine
    from repro.core.parallel import Distribution, ParallelEpiSimdemics
    from repro.core.scenario import Scenario
    from repro.core.transmission import TransmissionModel
    from repro.validate.oracle import DEFAULT_MACHINE

    graph = _population()
    scenario = Scenario(
        graph=graph, n_days=8, seed=7, initial_infections=10,
        transmission=TransmissionModel(2.5e-4),
    )
    machine = Machine(DEFAULT_MACHINE)
    dist = Distribution.from_partition(
        _partition(machine.n_pes * cell["chares_per_pe"]), machine
    )
    sim = ParallelEpiSimdemics(
        scenario, DEFAULT_MACHINE, dist,
        sync=cell["sync"], delivery=cell["delivery"],
        aggregation_bytes=cell.get("aggregation_bytes", AGGREGATION_BYTES),
        lb_period=cell.get("lb_period"),
        lb_strategy=cell.get("lb_strategy", "greedy"),
        validate=cell.get("validate", False),
    )
    res = sim.run()
    stats = res.runtime_stats
    channel = sim.runtime.aggregators["visits"]
    return {
        "new_infections": list(res.result.curve.new_infections),
        "total_virtual_time": res.total_virtual_time,
        "phase_times": [
            {
                "day": p.day,
                "start": p.start,
                "visits_done": p.visits_done,
                "locations_done": p.locations_done,
                "day_done": p.day_done,
                "person_phase": p.person_phase,
                "location_phase": p.location_phase,
                "total": p.total,
            }
            for p in res.phase_times
        ],
        "messages": dict(sorted(stats["messages"].items())),
        "bytes": dict(sorted(stats["bytes"].items())),
        "events": stats["events"],
        "compute_max": stats["compute_max"],
        "compute_total": stats["compute_total"],
        "chare_costs": [
            [array, index, cost]
            for (array, index), cost in sorted(sim.runtime.chare_costs.items())
        ],
        "records_in": channel.records_in,
        "batches_out": channel.batches_out,
        "aggregation_ratio": channel.aggregation_ratio,
        "forwards": getattr(channel, "forwards", None),
    }


def _recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell():
    assert sorted(_recorded()) == sorted(c["name"] for c in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: c["name"])
def test_runtime_matches_recording_exactly(cell):
    fresh = json.loads(json.dumps(capture(cell)))
    recorded = _recorded()[cell["name"]]
    diffs = [k for k in recorded if fresh.get(k) != recorded[k]]
    assert fresh == recorded, f"{cell['name']}: fields differ: {diffs}"


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({c["name"]: capture(c) for c in CELLS}, indent=1) + "\n"
    )
    print(f"wrote {FIXTURE}")
