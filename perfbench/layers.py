"""Timing wrappers around the calls into each layer, installed from here.

Nothing inside ``src/`` is instrumented.  A :class:`LayerTracer`
replaces, for the length of one traced run:

* methods of the run's own ``disease``, ``interventions`` and
  ``rng_factory`` instances (instance attributes shadow the class);
* the module-level ``compute_infections`` and
  ``blocked_pairwise_exposures`` names in the modules that call them;
* ``worker_main`` in the smp driver, so a forked worker knows its rank.

Sums land in a float64 table backed by an anonymous shared mapping
made before any fork: row 0 belongs to the benchmark process and row
``1 + rank`` to smp worker ``rank``.  Each process writes only its own
row, so forked workers report without pickling or locks.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

import repro.core.exposure
import repro.core.parallel
import repro.core.simulator
import repro.partition
import repro.smp.backend
import repro.smp.worker

#: Columns of the tally table.
FIELDS = (
    "central.update_treatments_s",
    "central.post_apply_s",
    "central.visit_mask_s",
    "person.advance_day_s",
    "person.transitions",
    "apply.infect_s",
    "apply.requests",
    "apply.infected",
    "location.compute_infections_s",
    "location.visits",
    "location.pairs",
    "location.infections",
    "rng.streams",
    "rng.stream_s",
    "rng.keyed_draws",
    "rng.keyed_uniforms_s",
)
_COL = {name: i for i, name in enumerate(FIELDS)}

#: Top-level layer calls; their sum is the time the layers account for.
LAYER_TIMES = (
    "central.update_treatments_s",
    "central.post_apply_s",
    "central.visit_mask_s",
    "person.advance_day_s",
    "apply.infect_s",
    "location.compute_infections_s",
)

#: Modules that call ``compute_infections`` by their imported name.
_COMPUTE_CALLERS = (repro.core.simulator, repro.core.parallel, repro.smp.worker)


class LayerTracer:
    """Per-process tallies of layer calls; use as a context manager.

    ``n_workers`` sizes the table (one row per smp worker plus one).
    """

    def __init__(self, n_workers: int = 0):
        n_rows = 1 + n_workers
        self._map = mmap.mmap(-1, n_rows * len(FIELDS) * 8)
        self._table = np.frombuffer(self._map, dtype=np.float64).reshape(
            n_rows, len(FIELDS)
        )
        self.row = 0
        self._restore: list[tuple[object, str, object]] = []
        self.split_locations = 0

    # -- lifetime -------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for mod in _COMPUTE_CALLERS:
            self._patch(mod, "compute_infections",
                        self._compute_wrapper(mod.compute_infections))
        self._patch(repro.core.exposure, "blocked_pairwise_exposures",
                    self._pairs_wrapper(repro.core.exposure.blocked_pairwise_exposures))
        self._patch(repro.smp.backend, "worker_main",
                    self._worker_wrapper(repro.smp.backend.worker_main))
        self._patch(repro.partition, "split_heavy_locations",
                    self._split_wrapper(repro.partition.split_heavy_locations))
        return self

    def __exit__(self, *exc) -> None:
        for obj, name, original in reversed(self._restore):
            setattr(obj, name, original)
        self._restore.clear()
        self.rows = self._table.copy()
        del self._table
        self._map.close()

    def _patch(self, obj, name: str, wrapper) -> None:
        self._restore.append((obj, name, getattr(obj, name)))
        setattr(obj, name, wrapper)

    # -- instance wrappers ------------------------------------------------
    def instrument(self, disease, interventions) -> None:
        """Wrap the run's own disease and intervention-schedule objects."""
        self._timed(interventions, "update_treatments", "central.update_treatments_s")
        self._timed(interventions, "post_apply", "central.post_apply_s")
        self._timed(interventions, "visit_mask", "central.visit_mask_s")
        self._timed(disease, "advance_day", "person.advance_day_s",
                    count=lambda a, k, out: (("person.transitions", out.size),),
                    rng_arg=4)
        self._timed(disease, "infect", "apply.infect_s",
                    count=lambda a, k, out: (
                        ("apply.requests", np.size(a[0] if a else k["persons"])),
                        ("apply.infected", out.size),
                    ),
                    rng_arg=5)

    def _rng(self, factory) -> None:
        """Wrap a factory the first time a layer hands it over.

        smp workers each build their own factory, so the wrappers go on
        whichever instance the layer calls receive.
        """
        if factory is None or "stream" in vars(factory):
            return
        self._timed(factory, "stream", "rng.stream_s",
                    count=lambda a, k, out: (("rng.streams", 1),))
        self._timed(factory, "keyed_uniforms", "rng.keyed_uniforms_s",
                    count=lambda a, k, out: (("rng.keyed_draws", out.size),))

    def _timed(self, obj, name, time_col, count=None, rng_arg=None) -> None:
        fn = getattr(obj, name)
        col = _COL[time_col]

        def wrapper(*args, **kwargs):
            if rng_arg is not None:
                self._rng(args[rng_arg] if len(args) > rng_arg
                          else kwargs.get("rng_factory"))
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            row = self._table[self.row]
            row[col] += time.perf_counter() - t0
            if count is not None:
                for field, value in count(args, kwargs, out):
                    row[_COL[field]] += value
            return out

        setattr(obj, name, wrapper)

    # -- module-level wrappers -------------------------------------------
    def _compute_wrapper(self, fn):
        col_t = _COL["location.compute_infections_s"]
        col_v = _COL["location.visits"]
        col_i = _COL["location.infections"]

        def compute_infections(visit_rows, *args, **kwargs):
            self._rng(args[5] if len(args) > 5 else kwargs.get("rng_factory"))
            t0 = time.perf_counter()
            out = fn(visit_rows, *args, **kwargs)
            row = self._table[self.row]
            row[col_t] += time.perf_counter() - t0
            row[col_v] += visit_rows.size
            row[col_i] += len(out.infections)
            return out

        return compute_infections

    def _pairs_wrapper(self, fn):
        col = _COL["location.pairs"]

        def blocked_pairwise_exposures(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._table[self.row, col] += out[0].size
            return out

        return blocked_pairwise_exposures

    def _worker_wrapper(self, fn):
        def worker_main(ctx):
            self.row = 1 + ctx.rank
            return fn(ctx)

        return worker_main

    def _split_wrapper(self, fn):
        def split_heavy_locations(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.split_locations += out.n_split
            return out

        return split_heavy_locations

    # -- results (after exit) ---------------------------------------------
    def total(self, field: str) -> float:
        """``field`` summed over the benchmark process and every worker."""
        return float(self.rows[:, _COL[field]].sum())

    def layer_seconds(self) -> float:
        """Time inside the top-level layer calls, summed over processes."""
        cols = [_COL[f] for f in LAYER_TIMES]
        return float(self.rows[:, cols].sum())

    def worker_busy(self) -> np.ndarray:
        """Layer-call seconds of each smp worker (rows 1..n)."""
        cols = [_COL[f] for f in LAYER_TIMES]
        return self.rows[1:, cols].sum(axis=1)
