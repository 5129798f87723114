"""Location-phase exposure computation shared by all execution modes.

The sequential reference simulator and the chare-parallel runtime both
delegate the location phase (paper step 3) to
:func:`compute_infections`; because transmission draws are keyed by
``(day, location, person)``, the outcome is independent of how the
locations are grouped into LocationManagers — the property that makes
the parallel execution reproduce the sequential one exactly.

Three interchangeable kernels implement the phase:

* ``"compiled"`` (the default when the C library loads) — the flat
  kernel's candidate filter and sort, with the pair enumeration +
  hazard reduction replaced by one streaming C loop
  (:mod:`repro.core.ckernel`, built on demand via ``ctypes``) that
  never materialises a per-pair array;
* ``"flat"`` (the default without a C toolchain, or with
  ``REPRO_NO_CKERNEL=1``) — one global sort of the day's candidate
  visits by ``(location, sublocation)``, sublocation-blocked pair
  enumeration (:func:`~repro.core.des.blocked_pairwise_exposures`),
  segment-reduced hazard accumulation over the whole visit set, and
  one batched keyed-uniform draw
  (:meth:`~repro.util.rng.RngFactory.keyed_uniforms`) for every
  exposed person at once;
* ``"grouped"`` — the reference formulation: a Python loop over
  locations, a per-location S×I cross product masked by sublocation
  after materialisation, and one keyed ``Generator`` per exposed
  person.

``kernel=None`` is resolved per call by :func:`resolve_kernel`, so
nothing is compiled or loaded at import time.  All kernels produce
bit-identical results — the same :class:`InfectionBatch` (same events in
the same order), same statistics, same pair count — which ``repro validate --diff-kernels``
and the differential oracle certify; ``"flat"`` is much faster than
``"grouped"`` on heavy-tailed populations (see
``benchmarks/bench_exposure_kernel.py``) and ``"compiled"`` beats
``"flat"`` again by skipping the pair materialisation entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import observe
from repro.core import ckernel
from repro.core.des import blocked_pairwise_exposures, pairwise_exposures
from repro.core.disease import DiseaseModel
from repro.core.transmission import TransmissionModel
from repro.util.rng import RngFactory

__all__ = [
    "KERNELS",
    "DEFAULT_KERNEL",
    "resolve_kernel",
    "InfectionBatch",
    "LocationPhaseResult",
    "compute_infections",
]

#: Available exposure kernels (see module docstring).  ``"compiled"``
#: additionally needs a C toolchain (``repro.core.ckernel.available``).
KERNELS = ("flat", "grouped", "compiled")
#: The pure-numpy kernel ``kernel=None`` resolves to when the C library
#: does not load (see :func:`resolve_kernel`).
DEFAULT_KERNEL = "flat"


def resolve_kernel(kernel: str | None) -> str:
    """The kernel a ``kernel`` argument selects: ``None`` means
    ``"compiled"`` when :func:`repro.core.ckernel.available`, else
    :data:`DEFAULT_KERNEL`.  Loads (building on first use) the C
    library, so call it at run time, not import time."""
    if kernel is not None:
        return kernel
    return "compiled" if ckernel.available() else DEFAULT_KERNEL


def _empty() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class InfectionBatch:
    """Successful transmissions — the paper's "infect" messages — as
    three aligned ``int64`` columns in emission order.

    >>> a = InfectionBatch.from_records([[3, 1, 100]])
    >>> b = InfectionBatch.concat([a, InfectionBatch.from_records([[5, 1, 120]])])
    >>> len(b), b.person.tolist(), b.records().shape
    (2, [3, 5], (2, 3))
    """

    person: np.ndarray = field(default_factory=_empty)
    location: np.ndarray = field(default_factory=_empty)
    #: earliest overlap end among the person's exposures at the location
    minute: np.ndarray = field(default_factory=_empty)

    def __len__(self) -> int:
        return int(self.person.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InfectionBatch):
            return NotImplemented
        return all(
            np.array_equal(a, b)
            for a, b in zip(
                (self.person, self.location, self.minute),
                (other.person, other.location, other.minute),
            )
        )

    def records(self) -> np.ndarray:
        """One ``(person, location, minute)`` row per event (the smp
        wire layout)."""
        return np.column_stack((self.person, self.location, self.minute))

    @classmethod
    def from_records(cls, records) -> "InfectionBatch":
        rows = np.asarray(records, dtype=np.int64).reshape(-1, 3)
        return cls(rows[:, 0], rows[:, 1], rows[:, 2])

    @classmethod
    def concat(cls, batches: list["InfectionBatch"]) -> "InfectionBatch":
        return cls(
            np.concatenate([b.person for b in batches]),
            np.concatenate([b.location for b in batches]),
            np.concatenate([b.minute for b in batches]),
        )


@dataclass
class LocationPhaseResult:
    """Infections plus the dynamic-load statistics of the phase.

    With statistics collected, ``locations`` holds the sorted ids of
    the locations visited in this call and ``events`` /
    ``interactions`` their counts, aligned with it; without, all three
    are empty.
    """

    infections: InfectionBatch = field(default_factory=InfectionBatch)
    locations: np.ndarray = field(default_factory=_empty)
    #: DES event counts (2 × processed visits) per ``locations`` entry
    events: np.ndarray = field(default_factory=_empty)
    #: S×I interaction counts per ``locations`` entry
    interactions: np.ndarray = field(default_factory=_empty)
    #: interacting S×I visit pairs (positive overlap), every kernel
    pairs: int = 0

    def merge(self, other: "LocationPhaseResult") -> None:
        self.infections = InfectionBatch.concat([self.infections, other.infections])
        self.locations, inv = np.unique(
            np.concatenate([self.locations, other.locations]), return_inverse=True
        )
        for name in ("events", "interactions"):
            summed = np.zeros(self.locations.size, dtype=np.int64)
            np.add.at(
                summed, inv, np.concatenate([getattr(self, name), getattr(other, name)])
            )
            setattr(self, name, summed)
        self.pairs += other.pairs

    def _add_interactions(self, locations: np.ndarray, counts: np.ndarray) -> None:
        self.interactions[np.searchsorted(self.locations, locations)] += counts


def compute_infections(
    visit_rows: np.ndarray,
    graph,
    health_state: np.ndarray,
    disease: DiseaseModel,
    transmission: TransmissionModel,
    day: int,
    rng_factory: RngFactory,
    collect_stats: bool = False,
    kernel: str | None = None,
) -> LocationPhaseResult:
    """Run the location phase over the given visit rows.

    Parameters
    ----------
    visit_rows:
        Indices into ``graph``'s visit arrays — the visits that actually
        happen today (interventions already applied).  May span any
        subset of locations; rows of one location must all be present
        (callers split by location, never within one).
    graph:
        A :class:`~repro.synthpop.graph.PersonLocationGraph`.
    health_state:
        Current per-person PTTS state indices.
    collect_stats:
        Also count events/interactions per location (costs one extra
        pass; used when fitting the dynamic load model).
    kernel:
        ``"compiled"``, ``"flat"`` or ``"grouped"`` — see the module
        docstring; all are bit-for-bit equivalent.  ``None`` (default)
        resolves per call to ``"compiled"`` when the C library loads
        and to ``"flat"`` otherwise (:func:`resolve_kernel`).

    Notes
    -----
    Per (location, susceptible) the hazards of all S×I overlaps add and
    a single uniform keyed ``(LOCATION, day, location, person)`` decides
    infection — distributionally identical to per-pair Bernoulli trials
    and, crucially, order-independent.
    """
    kernel = resolve_kernel(kernel)
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    obs_span = observe.span(
        "exposure.compute", day=day, kernel=kernel, visits=int(visit_rows.size)
    )
    with obs_span:
        result = _compute_infections(
            visit_rows, graph, health_state, disease, transmission, day,
            rng_factory, collect_stats, kernel,
        )
        obs_span.set(infections=len(result.infections), pairs=result.pairs)
        return result


def _compute_infections(
    visit_rows: np.ndarray,
    graph,
    health_state: np.ndarray,
    disease: DiseaseModel,
    transmission: TransmissionModel,
    day: int,
    rng_factory: RngFactory,
    collect_stats: bool,
    kernel: str,
) -> LocationPhaseResult:
    result = LocationPhaseResult()
    if visit_rows.size == 0:
        return result
    vp = graph.visit_person[visit_rows]
    vl = graph.visit_location[visit_rows]
    vs = graph.visit_subloc[visit_rows]
    vstart = graph.visit_start[visit_rows]
    vend = graph.visit_end[visit_rows]
    states = health_state[vp]
    sus_mask = disease.is_susceptible[states]
    inf_mask = disease.is_infectious[states]

    if collect_stats:
        locations, counts = np.unique(vl, return_counts=True)
        result.locations = locations.astype(np.int64, copy=False)
        result.events = 2 * counts.astype(np.int64)
        result.interactions = np.zeros(counts.size, dtype=np.int64)

    # Only locations with at least one infectious *and* one susceptible
    # visit can transmit; restrict the expensive pass to those.
    has_inf = np.zeros(graph.n_locations, dtype=bool)
    has_inf[vl[inf_mask]] = True
    has_sus = np.zeros(graph.n_locations, dtype=bool)
    has_sus[vl[sus_mask]] = True
    active_loc = has_inf & has_sus
    cand = active_loc[vl] & (sus_mask | inf_mask)
    if not cand.any():
        return result

    impl = {
        "flat": _flat_kernel,
        "grouped": _grouped_kernel,
        "compiled": _compiled_kernel,
    }[kernel]
    result.pairs = impl(
        result, cand, vp, vl, vs, vstart, vend, states, sus_mask, inf_mask,
        graph, disease, transmission, day, rng_factory, collect_stats,
    )
    return result


def _flat_kernel(
    result: LocationPhaseResult,
    cand: np.ndarray,
    vp: np.ndarray,
    vl: np.ndarray,
    vs: np.ndarray,
    vstart: np.ndarray,
    vend: np.ndarray,
    states: np.ndarray,
    sus_mask: np.ndarray,
    inf_mask: np.ndarray,
    graph,
    disease: DiseaseModel,
    transmission: TransmissionModel,
    day: int,
    rng_factory: RngFactory,
    collect_stats: bool,
) -> int:
    """Whole-visit-set vectorised kernel: no per-location Python loop.

    Returns the number of interacting pairs, as every kernel does."""
    idx = np.flatnonzero(cand)
    s_idx, i_idx, o_start, o_end = blocked_pairwise_exposures(
        vl[idx], vs[idx], vstart[idx], vend[idx], sus_mask[idx], inf_mask[idx]
    )
    if s_idx.size == 0:
        return 0
    # Restore the grouped kernel's pair order (ascending susceptible
    # row, infectious rows in block order within each) so per-person
    # hazard sums accumulate in the same sequence — float addition is
    # not associative, and bit-for-bit kernel equality is the contract.
    order = np.argsort(s_idx, kind="stable")
    s_idx, i_idx = s_idx[order], i_idx[order]
    o_end = o_end[order]
    overlap = (o_end - o_start[order]).astype(np.float64)

    if collect_stats:
        result._add_interactions(*np.unique(vl[idx[s_idx]], return_counts=True))

    hazards = transmission.hazard(
        overlap,
        disease.infectivity[states[idx[i_idx]]],
        disease.susceptibility[states[idx[s_idx]]],
    )
    # Segment-reduce per (location, person of the susceptible visit):
    # total hazard and earliest potential infection minute.
    key = vl[idx[s_idx]] * np.int64(graph.n_persons) + vp[idx[s_idx]]
    uniq_key, inv = np.unique(key, return_inverse=True)
    total_h = np.bincount(inv, weights=hazards, minlength=uniq_key.size)
    first_minute = np.full(uniq_key.size, np.iinfo(np.int64).max)
    np.minimum.at(first_minute, inv, o_end)
    probs = transmission.probability(total_h)
    locs = uniq_key // graph.n_persons
    persons = uniq_key - locs * graph.n_persons
    u = rng_factory.keyed_uniforms(RngFactory.LOCATION, day, locs, persons)
    hit = u < probs
    result.infections = InfectionBatch(persons[hit], locs[hit], first_minute[hit])
    return int(s_idx.size)


def _compiled_kernel(
    result: LocationPhaseResult,
    cand: np.ndarray,
    vp: np.ndarray,
    vl: np.ndarray,
    vs: np.ndarray,
    vstart: np.ndarray,
    vend: np.ndarray,
    states: np.ndarray,
    sus_mask: np.ndarray,
    inf_mask: np.ndarray,
    graph,
    disease: DiseaseModel,
    transmission: TransmissionModel,
    day: int,
    rng_factory: RngFactory,
    collect_stats: bool,
) -> int:
    """Flat kernel with the pair stage in C (:mod:`repro.core.ckernel`).

    Bit-identical to ``"flat"``: the C loop adds the same doubles in
    the same order ``np.bincount`` would over the sorted pair array,
    and every transcendental (``log1p`` via the per-state hazard
    table, ``expm1`` in ``probability``, the keyed uniforms) still runs
    through the exact numpy code paths of the other kernels.
    """
    idx = np.flatnonzero(cand)
    # Candidate rows are all epidemiologically relevant (sus | inf), so
    # blocked_pairwise_exposures' `relevant` filter is the identity
    # here and the (location, sublocation) lexsort covers every row.
    loc = np.ascontiguousarray(vl[idx], dtype=np.int64)
    sub = np.ascontiguousarray(vs[idx], dtype=np.int64)
    start = np.ascontiguousarray(vstart[idx], dtype=np.int64)
    end = np.ascontiguousarray(vend[idx], dtype=np.int64)
    state = np.ascontiguousarray(states[idx], dtype=np.int64)
    sus = np.ascontiguousarray(sus_mask[idx], dtype=np.uint8)
    inf = inf_mask[idx]
    n = idx.size

    order = np.lexsort((sub, loc))  # sorted position -> candidate row
    loc_s, sub_s = loc[order], sub[order]
    new_block = np.empty(n, dtype=bool)
    new_block[0] = True
    np.not_equal(loc_s[1:], loc_s[:-1], out=new_block[1:])
    new_block[1:] |= sub_s[1:] != sub_s[:-1]
    block_id_sorted = np.cumsum(new_block) - 1
    n_blocks = int(block_id_sorted[-1]) + 1
    row_block = np.empty(n, dtype=np.int64)
    row_block[order] = block_id_sorted

    # Infectious candidate rows in sorted-position order, segmented by
    # block — the partner iteration order of the flat enumeration.
    inf_sorted = inf[order]
    inf_rows = np.ascontiguousarray(order[inf_sorted], dtype=np.int64)
    ni = np.bincount(block_id_sorted[inf_sorted], minlength=n_blocks)
    inf_off = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(ni, out=inf_off[1:])

    # One accumulator slot per distinct (location, person) key over the
    # candidate rows — a superset of the flat kernel's pair-derived key
    # set, compacted to the touched slots below.  np.unique sorts, so
    # surviving slots align with the flat kernel's uniq_key order.
    key = loc * np.int64(graph.n_persons) + vp[idx]
    uniq_key, slot = np.unique(key, return_inverse=True)
    slot = np.ascontiguousarray(slot, dtype=np.int64)

    # Per (infectious state, susceptible state) hazard of one overlap
    # minute, computed by the same TransmissionModel call (same clip,
    # same log1p inputs) the flat kernel makes per pair.
    n_states = len(disease.states)
    haz_table = np.ascontiguousarray(
        transmission.hazard(
            1.0,
            np.repeat(disease.infectivity, n_states),
            np.tile(disease.susceptibility, n_states),
        ),
        dtype=np.float64,
    )

    total_h = np.zeros(uniq_key.size, dtype=np.float64)
    first_minute = np.full(uniq_key.size, np.iinfo(np.int64).max, dtype=np.int64)
    pair_count = np.zeros(uniq_key.size, dtype=np.int64)
    pairs = ckernel.accumulate_exposures(
        start, end, state, sus, slot, row_block, inf_rows, inf_off,
        haz_table, n_states, total_h, first_minute, pair_count,
    )
    if pairs == 0:
        return 0
    touched = pair_count > 0
    uniq_key, total_h = uniq_key[touched], total_h[touched]
    first_minute = first_minute[touched]

    locs = uniq_key // graph.n_persons
    persons = uniq_key - locs * graph.n_persons
    if collect_stats:
        pair_locs, inv_loc = np.unique(locs, return_inverse=True)
        per_loc = np.zeros(pair_locs.size, dtype=np.int64)
        np.add.at(per_loc, inv_loc, pair_count[touched])
        result._add_interactions(pair_locs, per_loc)
    probs = transmission.probability(total_h)
    u = rng_factory.keyed_uniforms(RngFactory.LOCATION, day, locs, persons)
    hit = u < probs
    result.infections = InfectionBatch(persons[hit], locs[hit], first_minute[hit])
    return pairs


def _grouped_kernel(
    result: LocationPhaseResult,
    cand: np.ndarray,
    vp: np.ndarray,
    vl: np.ndarray,
    vs: np.ndarray,
    vstart: np.ndarray,
    vend: np.ndarray,
    states: np.ndarray,
    sus_mask: np.ndarray,
    inf_mask: np.ndarray,
    graph,
    disease: DiseaseModel,
    transmission: TransmissionModel,
    day: int,
    rng_factory: RngFactory,
    collect_stats: bool,
) -> int:
    """Reference kernel: per-location loop, per-person keyed Generators."""
    idx = np.flatnonzero(cand)
    order = idx[np.argsort(vl[idx], kind="stable")]
    loc_sorted = vl[order]
    boundaries = np.flatnonzero(np.diff(loc_sorted)) + 1
    inf_coef = disease.infectivity
    sus_coef = disease.susceptibility
    pairs = 0
    batches: list[InfectionBatch] = []

    for group in np.split(order, boundaries):
        loc = int(vl[group[0]])
        s_idx, i_idx, o_start, o_end = pairwise_exposures(
            vs[group], vstart[group], vend[group], sus_mask[group], inf_mask[group]
        )
        if s_idx.size == 0:
            continue
        pairs += int(s_idx.size)
        if collect_stats:
            result._add_interactions(loc, s_idx.size)
        g_s = group[s_idx]
        g_i = group[i_idx]
        hazards = transmission.hazard(
            (o_end - o_start).astype(np.float64),
            inf_coef[states[g_i]],
            sus_coef[states[g_s]],
        )
        # Accumulate hazard and earliest potential infection minute per
        # susceptible person at this location.
        persons = vp[g_s]
        uniq_p, inv = np.unique(persons, return_inverse=True)
        total_h = np.bincount(inv, weights=hazards, minlength=uniq_p.size)
        first_minute = np.full(uniq_p.size, np.iinfo(np.int64).max)
        np.minimum.at(first_minute, inv, o_end)
        probs = transmission.probability(total_h)
        u = np.array([
            rng_factory.stream(RngFactory.LOCATION, day, loc, int(p)).random()
            for p in uniq_p
        ])
        hit = u < probs
        batches.append(InfectionBatch(
            uniq_p[hit].astype(np.int64),
            np.full(int(hit.sum()), loc, dtype=np.int64),
            first_minute[hit],
        ))
    if batches:
        result.infections = InfectionBatch.concat(batches)
    return pairs
