"""Probabilistic Timed Transition System (PTTS) disease models.

Section II-A of the paper: a person's health state is a finite state
machine where each state carries

* a **dwell-time distribution** — how long the person remains in the
  state before automatically transitioning,
* **probabilistic transitions** to successor states, and
* per-**treatment** transition sets (e.g. vaccinated people move from
  exposed to an attenuated infectious state more rarely).

States also carry the epidemiological coefficients consumed by the
transmission function: *infectivity* (how strongly an occupant of this
state sheds) and *susceptibility* (how easily they acquire).

The implementation is array-oriented: a :class:`DiseaseModel` compiles
its states into flat NumPy arrays and its transition sets into a
``(state, treatment) -> group`` table, so a whole population's daily
update is one vector pass over the persons that change state (see
:meth:`DiseaseModel.advance_day` and :meth:`DiseaseModel.infect`).

Every draw stays keyed on ``(day, person)``: the pass derives the seeds
of all persons that consume randomness at once, replays the first words
of their PCG64 streams (:mod:`repro.util.pcg`), picks each transition
with a ``searchsorted`` per group and draws UNIFORM dwells with
Lemire's method — bit-identical to one
``rng_factory.stream(PERSON, day, person, salt)`` Generator per person.
Only Lemire rejections and GEOMETRIC/GAMMA dwells fall back to that
scalar Generator, replayed from the same stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.util.pcg import bounded_uint32, word_uniforms
from repro.util.rng import RngFactory, keyed_words

__all__ = [
    "DwellKind",
    "DwellDistribution",
    "Transition",
    "HealthState",
    "DiseaseModel",
    "influenza_model",
    "sir_model",
    "UNTREATED",
    "VACCINATED",
]

#: Treatment set indices.  The paper mentions vaccination as the primary
#: treatment distinguishing transition sets; more can be registered.
UNTREATED = 0
VACCINATED = 1

#: Sentinel dwell meaning "remain until an external trigger" (e.g. the
#: susceptible state waits for an infect message; recovered is absorbing).
FOREVER = np.iinfo(np.int32).max


class DwellKind(enum.IntEnum):
    """Supported dwell-time distribution families (in whole days)."""

    FIXED = 0
    UNIFORM = 1  # inclusive integer range [a, b]
    GEOMETRIC = 2  # support {1, 2, ...} with success prob p
    GAMMA = 3  # continuous gamma rounded up to >= 1 day
    FOREVER = 4


@dataclass(frozen=True)
class DwellDistribution:
    """Dwell time of a PTTS state, in days.

    Use the class methods (``fixed``, ``uniform``, ...) rather than the
    raw constructor.
    """

    kind: DwellKind
    a: float = 0.0
    b: float = 0.0

    @classmethod
    def fixed(cls, days: int) -> "DwellDistribution":
        if not (1 <= days < FOREVER):
            raise ValueError("fixed dwell must be >= 1 day and below the FOREVER sentinel")
        return cls(DwellKind.FIXED, float(days))

    @classmethod
    def uniform(cls, lo: int, hi: int) -> "DwellDistribution":
        if not (1 <= lo <= hi < FOREVER):
            raise ValueError("need 1 <= lo <= hi < FOREVER")
        return cls(DwellKind.UNIFORM, float(lo), float(hi))

    @classmethod
    def geometric(cls, p: float) -> "DwellDistribution":
        if not (0.0 < p <= 1.0):
            raise ValueError("geometric p must be in (0, 1]")
        return cls(DwellKind.GEOMETRIC, p)

    @classmethod
    def gamma(cls, shape: float, scale: float) -> "DwellDistribution":
        if shape <= 0 or scale <= 0:
            raise ValueError("gamma parameters must be positive")
        return cls(DwellKind.GAMMA, shape, scale)

    @classmethod
    def forever(cls) -> "DwellDistribution":
        return cls(DwellKind.FOREVER)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` dwell times (int32 days; FOREVER uses the sentinel)."""
        if self.kind == DwellKind.FIXED:
            return np.full(n, int(self.a), dtype=np.int32)
        if self.kind == DwellKind.UNIFORM:
            return rng.integers(int(self.a), int(self.b) + 1, size=n, dtype=np.int32)
        # Finite draws saturate one day short of the FOREVER sentinel.
        if self.kind == DwellKind.GEOMETRIC:
            return np.minimum(rng.geometric(self.a, size=n), FOREVER - 1).astype(np.int32)
        if self.kind == DwellKind.GAMMA:
            days = np.clip(np.ceil(rng.gamma(self.a, self.b, size=n)), 1, FOREVER - 1)
            return days.astype(np.int32)
        return np.full(n, FOREVER, dtype=np.int32)

    @property
    def mean(self) -> float:
        """Expected dwell in days (inf for FOREVER)."""
        if self.kind == DwellKind.FIXED:
            return self.a
        if self.kind == DwellKind.UNIFORM:
            return (self.a + self.b) / 2.0
        if self.kind == DwellKind.GEOMETRIC:
            return 1.0 / self.a
        if self.kind == DwellKind.GAMMA:
            return max(1.0, self.a * self.b)
        return float("inf")


@dataclass(frozen=True)
class Transition:
    """A probabilistic edge of the PTTS: go to ``target`` w.p. ``prob``."""

    target: str
    prob: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.prob <= 1.0):
            raise ValueError(f"transition probability {self.prob} outside [0, 1]")


@dataclass(frozen=True)
class HealthState:
    """One PTTS state.

    Parameters
    ----------
    name:
        Unique state label.
    infectivity:
        Shedding coefficient used by the transmission function; 0 for
        non-infectious states.
    susceptibility:
        Acquisition coefficient; 0 for non-susceptible states.
    dwell:
        Dwell-time distribution.
    transitions:
        Mapping ``treatment -> [Transition, ...]``; each list's
        probabilities must sum to 1 (within fp tolerance).  Treatments
        not present fall back to :data:`UNTREATED`'s list.  Absorbing
        states use an empty mapping with a FOREVER dwell.
    symptomatic:
        Whether the state is symptomatic — drives the stay-home
        behaviour intervention.
    """

    name: str
    infectivity: float = 0.0
    susceptibility: float = 0.0
    dwell: DwellDistribution = field(default_factory=DwellDistribution.forever)
    transitions: dict[int, tuple[Transition, ...]] = field(default_factory=dict)
    symptomatic: bool = False

    @property
    def is_infectious(self) -> bool:
        return self.infectivity > 0.0

    @property
    def is_susceptible(self) -> bool:
        return self.susceptibility > 0.0


class DiseaseModel:
    """A compiled PTTS over a fixed state list.

    Parameters
    ----------
    states:
        The PTTS states; order defines state indices.
    susceptible:
        Name of the initial (susceptible) state.
    infection_entry:
        Mapping ``treatment -> state name`` entered upon receiving an
        infect message.  Missing treatments fall back to UNTREATED's
        entry state.
    infection_entry_by_state:
        Optional mapping ``current state name -> entry state name``
        overriding the treatment-based entry for persons infected
        *while in* that state.  This is how partially-immune states
        route to a different lane (e.g. two-variant cross-immunity:
        recovered-from-A persons reinfect into the variant-B lane).
        States listed here must have ``susceptibility > 0``.
    """

    def __init__(
        self,
        states: list[HealthState],
        susceptible: str,
        infection_entry: dict[int, str],
        infection_entry_by_state: dict[str, str] | None = None,
    ):
        if len({s.name for s in states}) != len(states):
            raise ValueError("duplicate state names")
        self.states = list(states)
        self.index = {s.name: i for i, s in enumerate(states)}
        if susceptible not in self.index:
            raise ValueError(f"unknown susceptible state {susceptible!r}")
        if UNTREATED not in infection_entry:
            raise ValueError("infection_entry must define the UNTREATED entry state")
        for t, name in infection_entry.items():
            if name not in self.index:
                raise ValueError(f"unknown infection entry state {name!r} for treatment {t}")
        self.susceptible_index = self.index[susceptible]
        self.infection_entry = dict(infection_entry)
        self.infection_entry_by_state = dict(infection_entry_by_state or {})
        for src, dst in self.infection_entry_by_state.items():
            if src not in self.index or dst not in self.index:
                raise ValueError(f"unknown state in infection entry {src!r} -> {dst!r}")
            if self.states[self.index[src]].susceptibility <= 0.0:
                raise ValueError(f"infection entry source {src!r} is not susceptible")
        self._entry_by_state_index = {
            self.index[src]: self.index[dst]
            for src, dst in self.infection_entry_by_state.items()
        }

        n = len(states)
        self.infectivity = np.array([s.infectivity for s in states], dtype=np.float64)
        self.susceptibility = np.array([s.susceptibility for s in states], dtype=np.float64)
        self.symptomatic = np.array([s.symptomatic for s in states], dtype=bool)
        self.is_infectious = self.infectivity > 0
        self.is_susceptible = self.susceptibility > 0

        # Validate transitions and cache (state, treatment) -> (targets, cumprobs).
        self._compiled: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        treatments: set[int] = {UNTREATED}
        for s in states:
            treatments.update(s.transitions.keys())
        self.treatments = sorted(treatments)
        for i, s in enumerate(states):
            has_transitions = bool(s.transitions)
            if has_transitions and s.dwell.kind == DwellKind.FOREVER:
                raise ValueError(f"state {s.name!r} has transitions but FOREVER dwell")
            if not has_transitions and s.dwell.kind != DwellKind.FOREVER:
                raise ValueError(f"state {s.name!r} has finite dwell but no transitions")
            for t in self.treatments:
                trs = s.transitions.get(t, s.transitions.get(UNTREATED, ()))
                if not trs:
                    continue
                total = sum(tr.prob for tr in trs)
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(
                        f"transitions of state {s.name!r} (treatment {t}) sum to {total}, not 1"
                    )
                targets = np.array([self.index[tr.target] for tr in trs], dtype=np.int32)
                cum = np.cumsum([tr.prob for tr in trs])
                self._compiled[(i, t)] = (targets, cum)
        self._compile_tables()

    def _compile_tables(self) -> None:
        """Per-state dwell arrays and the (state, treatment) lookup tables.

        Treatment columns cover every id in a transition set or in
        ``infection_entry``; :meth:`_treatment_slots` maps any other id
        to the UNTREATED column.  ``_group[s, t]`` indexes the
        ``(targets, cum)`` transition set a due person uses (-1 for
        none), and ``_entry[s, t]`` is the state an infected person
        enters.
        """
        dwells = [s.dwell for s in self.states]
        self._dwell_kind = np.array([d.kind for d in dwells], dtype=np.int8)
        # Day bounds of FIXED (lo) and UNIFORM (lo, hi) dwells; 0 otherwise.
        bounds = [
            (d.a, d.b) if d.kind in (DwellKind.FIXED, DwellKind.UNIFORM) else (0, 0)
            for d in dwells
        ]
        self._dwell_lo, self._dwell_hi = np.array(bounds, dtype=np.int64).reshape(-1, 2).T
        self._dwell_random = np.isin(
            self._dwell_kind, (DwellKind.UNIFORM, DwellKind.GEOMETRIC, DwellKind.GAMMA)
        )
        known = sorted(set(self.treatments) | set(self.infection_entry))
        self._slot_treatments = np.array(known, dtype=np.int64)
        self._untreated_slot = known.index(UNTREATED)
        shape = (self.n_states, len(known))
        self._group = np.full(shape, -1, dtype=np.int64)
        self._entry = np.empty(shape, dtype=np.int32)
        group_of: dict[tuple[int, int], int] = {}
        for s in range(self.n_states):
            for j, t in enumerate(known):
                key = (s, t) if (s, t) in self._compiled else (s, UNTREATED)
                if key in self._compiled:
                    self._group[s, j] = group_of.setdefault(key, len(group_of))
                entry = self._entry_by_state_index.get(s)
                self._entry[s, j] = self.entry_state(t) if entry is None else entry
        self._group_tables = [self._compiled[key] for key in group_of]
        self._group_first = np.array(
            [targets[0] for targets, _ in self._group_tables], dtype=np.int32
        )
        self._group_size = np.array(
            [targets.size for targets, _ in self._group_tables], dtype=np.int64
        )

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, name: str) -> int:
        return self.index[name]

    def initial_health(self, n_persons: int) -> tuple[np.ndarray, np.ndarray]:
        """Fresh ``(state, days_remaining)`` arrays — everyone susceptible."""
        state = np.full(n_persons, self.susceptible_index, dtype=np.int32)
        remaining = np.full(n_persons, FOREVER, dtype=np.int32)
        return state, remaining

    def entry_state(self, treatment: int) -> int:
        """State index entered on infection under ``treatment``."""
        name = self.infection_entry.get(treatment, self.infection_entry[UNTREATED])
        return self.index[name]

    # ------------------------------------------------------------------
    # daily update
    # ------------------------------------------------------------------
    # Randomness is keyed per (day, person) — see repro.util.rng — so the
    # outcome is independent of the order in which persons are processed.
    # This is what lets the chare-parallel execution reproduce the
    # sequential reference bit-for-bit regardless of data distribution.

    _ADVANCE_SALT = 0
    _INFECT_SALT = 1

    def _treatment_slots(self, treatment: np.ndarray) -> np.ndarray:
        """Column of each treatment id in the group/entry tables.

        Ids the model does not know fall back to :data:`UNTREATED`.
        """
        known = self._slot_treatments
        slot = np.searchsorted(known, treatment)
        np.minimum(slot, known.size - 1, out=slot)
        return np.where(known[slot] == treatment, slot, self._untreated_slot)

    def _draw_dwells(
        self,
        persons: np.ndarray,
        states: np.ndarray,
        words: np.ndarray,
        day: int,
        rng_factory,
        salt: int,
        skip: int,
    ) -> np.ndarray:
        """Dwell of each person entering ``states``, as the scalar path draws it.

        ``words`` holds, per row, the stream word whose low half is the
        dwell's first 32-bit draw.  UNIFORM dwells use Lemire's method
        on it; a Lemire rejection, GEOMETRIC and GAMMA fall back to a
        Generator on the person's stream after ``skip`` ``random()``
        calls.
        """
        kind = self._dwell_kind[states]
        out = np.where(kind == DwellKind.FIXED, self._dwell_lo[states], FOREVER)
        fallback = (kind == DwellKind.GEOMETRIC) | (kind == DwellKind.GAMMA)
        uni = np.flatnonzero(kind == DwellKind.UNIFORM)
        if uni.size:
            ns = states[uni]
            out[uni], rejected = bounded_uint32(
                words[uni], self._dwell_lo[ns], self._dwell_hi[ns]
            )
            fallback[uni[rejected]] = True
        for i in np.flatnonzero(fallback):
            gen = rng_factory.stream(RngFactory.PERSON, day, int(persons[i]), salt)
            for _ in range(skip):
                gen.random()
            out[i] = self.states[states[i]].dwell.sample(gen, 1)[0]
        return out

    @staticmethod
    def _stream_words(
        persons: np.ndarray, drawn: np.ndarray, day: int, rng_factory, salt: int, n: int
    ) -> np.ndarray:
        """First ``n`` raw words of each ``(PERSON, day, person, salt)`` stream.

        Only the rows flagged in ``drawn`` derive a seed; the others
        stay zero.
        """
        words = np.zeros((persons.size, n), dtype=np.uint64)
        if drawn.any():
            words[drawn] = keyed_words(
                rng_factory.root_seed, n, RngFactory.PERSON, day, persons[drawn], salt
            )
        return words

    def advance_day(
        self,
        state: np.ndarray,
        remaining: np.ndarray,
        treatment: np.ndarray,
        day: int,
        rng_factory,
        subset: np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply one day of PTTS evolution **in place**.

        Decrements dwell timers and fires all due transitions (a person
        makes at most one transition per day — dwell times are >= 1).
        Returns the indices of persons whose state changed, which the
        simulator uses for bookkeeping and dynamic-load statistics.

        ``subset`` restricts the update to the given person ids — this
        is how PersonManager chares advance only the persons they own.
        Because draws are keyed per (day, person), advancing the whole
        population at once or as a disjoint union of subsets yields
        identical results.

        Each due person draws from its ``(PERSON, day, person, 0)``
        stream: ``random()`` picks the transition, then the new state's
        dwell.  Only persons with a choice to make or a random dwell
        derive a seed.
        """
        if subset is None:
            live = remaining != FOREVER
            remaining[live] -= 1
            due = np.flatnonzero(live & (remaining <= 0))
        else:
            subset = np.asarray(subset, dtype=np.int64)
            live = subset[remaining[subset] != FOREVER]
            remaining[live] -= 1
            due = live[remaining[live] <= 0]
        if due.size == 0:
            return due
        group = self._group[state[due], self._treatment_slots(treatment[due])]
        keep = group >= 0  # no transition set: the person stays put
        due, group = due[keep].astype(np.int64), group[keep]
        target = self._group_first[group]
        choose = np.flatnonzero(self._group_size[group] > 1)
        drawn = self._dwell_random[target]
        drawn[choose] = True
        words = self._stream_words(due, drawn, day, rng_factory, self._ADVANCE_SALT, 2)
        u = word_uniforms(words[choose, 0])
        g_choose = group[choose]
        for g in np.unique(g_choose):
            sel = g_choose == g
            targets, cum = self._group_tables[g]
            pick = np.searchsorted(cum, u[sel], side="right")
            target[choose[sel]] = targets[np.minimum(pick, targets.size - 1)]
        state[due] = target
        remaining[due] = self._draw_dwells(
            due, target, words[:, 1], day, rng_factory, self._ADVANCE_SALT, 1
        )
        return due

    def infect(
        self,
        persons: np.ndarray,
        state: np.ndarray,
        remaining: np.ndarray,
        treatment: np.ndarray,
        day: int,
        rng_factory,
    ) -> np.ndarray:
        """Move ``persons`` from a susceptible state into their entry state.

        Persons not currently in a susceptible state (``susceptibility
        > 0``) are ignored (a person may receive several infect
        messages in one day; the first wins and the rest are dropped,
        matching the paper's step 5).  The entry state is chosen per
        ``infection_entry_by_state`` for partially-immune states, else
        per treatment.  Returns the persons actually infected.

        A random entry dwell is drawn from the person's ``(PERSON, day,
        person, 1)`` stream.
        """
        persons = np.unique(np.asarray(persons, dtype=np.int64))
        hit = persons[self.is_susceptible[state[persons]]]
        if hit.size == 0:
            return hit
        entry = self._entry[state[hit], self._treatment_slots(treatment[hit])]
        state[hit] = entry
        drawn = self._dwell_random[entry]
        words = self._stream_words(hit, drawn, day, rng_factory, self._INFECT_SALT, 1)
        remaining[hit] = self._draw_dwells(
            hit, entry, words[:, 0], day, rng_factory, self._INFECT_SALT, 0
        )
        return hit


# ----------------------------------------------------------------------
# model presets
# ----------------------------------------------------------------------
def influenza_model(
    r0_scale: float = 1.0,
    vaccine_efficacy: float = 0.8,
) -> DiseaseModel:
    """An H1N1-like influenza PTTS.

    Structure (the standard EpiSimdemics flu template)::

        susceptible --infect--> latent --> {infectious_symptomatic (67%),
                                            infectious_asymptomatic (33%)}
                                        --> recovered

    Vaccinated persons enter a ``latent_vax`` state that mostly resolves
    without becoming infectious (``vaccine_efficacy`` of the time).
    """
    if not (0.0 <= vaccine_efficacy <= 1.0):
        raise ValueError("vaccine_efficacy must be within [0, 1]")
    symp_frac = 0.67
    states = [
        HealthState("susceptible", susceptibility=1.0 * r0_scale),
        HealthState(
            "latent",
            dwell=DwellDistribution.uniform(1, 3),
            transitions={
                UNTREATED: (
                    Transition("infectious_symptomatic", symp_frac),
                    Transition("infectious_asymptomatic", 1.0 - symp_frac),
                )
            },
        ),
        HealthState(
            "latent_vax",
            dwell=DwellDistribution.uniform(1, 3),
            transitions={
                UNTREATED: (
                    Transition("recovered", vaccine_efficacy),
                    Transition("infectious_asymptomatic", 1.0 - vaccine_efficacy),
                )
            },
        ),
        HealthState(
            "infectious_symptomatic",
            infectivity=1.0,
            symptomatic=True,
            dwell=DwellDistribution.uniform(3, 6),
            transitions={UNTREATED: (Transition("recovered", 1.0),)},
        ),
        HealthState(
            "infectious_asymptomatic",
            infectivity=0.5,
            dwell=DwellDistribution.uniform(3, 6),
            transitions={UNTREATED: (Transition("recovered", 1.0),)},
        ),
        HealthState("recovered"),
    ]
    return DiseaseModel(
        states,
        susceptible="susceptible",
        infection_entry={UNTREATED: "latent", VACCINATED: "latent_vax"},
    )


def sir_model(
    infectious_days: int = 4,
    latent_days: int = 2,
) -> DiseaseModel:
    """A minimal S→E→I→R chain used by unit tests and the quickstart."""
    states = [
        HealthState("S", susceptibility=1.0),
        HealthState(
            "E",
            dwell=DwellDistribution.fixed(latent_days),
            transitions={UNTREATED: (Transition("I", 1.0),)},
        ),
        HealthState(
            "I",
            infectivity=1.0,
            symptomatic=True,
            dwell=DwellDistribution.fixed(infectious_days),
            transitions={UNTREATED: (Transition("R", 1.0),)},
        ),
        HealthState("R"),
    ]
    return DiseaseModel(states, susceptible="S", infection_entry={UNTREATED: "E"})
