"""Measurement loop, metrics and epidemic checks of the benchmark.

A run repeats whole iterations (set-up plus a 30-day loop) of one
workload, at least twice and until the next one would overshoot
``seconds``, and reports medians over them.  With ``trace`` the first
iteration runs untraced and the rest under a
:class:`~layers.LayerTracer`; the difference of their ``sim_s``
medians is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import multiprocessing.resource_tracker
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import repro.core.exposure
from repro.partition.quality import edge_cut, imbalance, partition_loads

from drive import Iteration, run_once
from layers import FIELDS, LayerTracer
from workloads import DEFAULT_SEED, N_DAYS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: Counts that must repeat exactly across all runs of one seed.
EXACT_COUNTS = (
    "person.transitions",
    "apply.infected",
    "location.pairs",
    "rng.streams",
    "rng.keyed_draws",
    "smp.wire_bytes",
    "charm.messages",
    "charm.bytes",
    "charm.events",
    "partition.split_locations",
    "partition.edge_cut",
)

#: Per-layer metrics with their units, in report order.
LAYER_UNITS = {
    "synthpop.build_s": "s",
    "synthpop.visits": "count",
    "partition.build_s": "s",
    "partition.split_locations": "count",
    "partition.edge_cut": "count",
    "partition.load_imbalance": "ratio",
    "central.update_treatments_s": "s",
    "central.post_apply_s": "s",
    "central.visit_mask_s": "s",
    "person.advance_day_s": "s",
    "person.transitions": "count",
    "apply.infect_s": "s",
    "apply.requests": "count",
    "apply.infected": "count",
    "apply.hit_ratio": "ratio",
    "location.compute_infections_s": "s",
    "location.visits": "count",
    "location.pairs": "count",
    "location.infections": "count",
    "location.infections_per_pair": "ratio",
    "rng.streams": "count",
    "rng.stream_s": "s",
    "rng.keyed_draws": "count",
    "rng.keyed_uniforms_s": "s",
    "seq.day_other_s": "s",
    "smp.person_phase_s": "s",
    "smp.location_phase_s": "s",
    "smp.apply_phase_s": "s",
    "smp.driver_s": "s",
    "smp.barrier_wait_s": "s",
    "smp.pe_imbalance": "ratio",
    "smp.wire_bytes": "bytes",
    "smp.ring_stalls": "count",
    "smp.ring_stalls_spread": "count",
    "charm.run_s": "s",
    "charm.overhead_s": "s",
    "charm.messages": "count",
    "charm.bytes": "bytes",
    "charm.events": "count",
    "charm.load_ratio": "ratio",
    "charm.virtual_day_s": "s",
    "trace.overhead_s": "s",
}

END_TO_END_UNITS = {
    "sim_s": "s",
    "peak_day_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """An epidemic or an exact count differs from what it must be."""


# ----------------------------------------------------------------------
def _cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment(spec) -> dict:
    """Where and on what code a result was measured."""
    sha = None
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cc = os.environ.get("CC")
    return {
        "git_sha": sha,
        "src_digest": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": spec.runtime.kernel or repro.core.exposure.DEFAULT_KERNEL,
        "c_toolchain": any(
            shutil.which(c) for c in ([cc] if cc else []) + ["cc", "gcc", "clang"]
        ),
    }


# ----------------------------------------------------------------------
def layer_metrics(it: Iteration, tracer: LayerTracer, backend: str) -> dict:
    """Per-layer metrics of one traced iteration (0 where a layer is absent)."""
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    for f in FIELDS:
        m[f] = tracer.total(f)
    m["synthpop.build_s"] = it.synthpop_s
    m["synthpop.visits"] = it.n_visits
    m["partition.build_s"] = it.partition_s
    graph, part = it.raw["graph"], it.raw["partition"]
    if part is not None:
        m["partition.split_locations"] = tracer.split_locations
        m["partition.edge_cut"] = edge_cut(graph, part)
        m["partition.load_imbalance"] = float(
            imbalance(partition_loads(graph, part)).max()
        )
    if m["apply.requests"]:
        m["apply.hit_ratio"] = m["apply.infected"] / m["apply.requests"]
    if m["location.pairs"]:
        m["location.infections_per_pair"] = m["location.infections"] / m["location.pairs"]

    layers_s = tracer.layer_seconds()
    if backend == "seq":
        m["seq.day_other_s"] = it.sim_s - layers_s
    elif backend == "smp":
        m.update(_smp_metrics(it, tracer))
    else:
        stats = it.raw["runtime_stats"]
        m["charm.run_s"] = it.raw["run_s"]
        m["charm.overhead_s"] = it.raw["run_s"] - layers_s
        m["charm.messages"] = sum(stats["messages"].values())
        m["charm.bytes"] = sum(stats["bytes"].values())
        m["charm.events"] = stats["events"]
        m["charm.load_ratio"] = stats["compute_total"] / stats["compute_max"]
        m["charm.virtual_day_s"] = it.raw["virtual_day_s"]
    return _whole_counts(m)


def _whole_counts(metrics: dict) -> dict:
    for k, unit in LAYER_UNITS.items():
        if unit in ("count", "bytes"):
            metrics[k] = int(round(metrics[k]))
    return metrics


def _smp_metrics(it: Iteration, tracer: LayerTracer) -> dict:
    phases = it.raw["phase_times"]
    n_workers = len(tracer.rows) - 1
    # Each worker is busy from its person-phase start to its apply end;
    # the rest of the day it waits at the driver's barrier.
    spans = it.raw["virtual_spans"]
    busy = sum(
        a.end - p.start
        for p, a in zip(
            (s for s in spans if s.name == "pe.person_phase"),
            (s for s in spans if s.name == "pe.apply_phase"),
        )
    )
    worker_busy = tracer.worker_busy()
    return {
        "smp.person_phase_s": sum(p.person_phase for p in phases),
        "smp.location_phase_s": sum(p.location_phase for p in phases),
        "smp.apply_phase_s": sum(p.day_done - p.locations_done for p in phases),
        "smp.driver_s": it.sim_s - sum(p.total for p in phases),
        "smp.barrier_wait_s": n_workers * sum(it.day_s) - busy,
        "smp.pe_imbalance": float(worker_busy.max() / worker_busy.mean()),
        "smp.wire_bytes": it.raw["wire_bytes"],
        "smp.ring_stalls": it.raw["ring_stalls"],
    }


# ----------------------------------------------------------------------
def _same(a: dict, b: dict, what: str) -> None:
    if a != b:
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        raise CheckFailed(f"{what}: differs in {diff}")


def check_epidemic(record: dict, workload, seed: int, reference: dict) -> None:
    """Pins at the default seed, conservation on any other."""
    if seed == DEFAULT_SEED:
        _same(record, reference["epidemics"][workload.epidemic],
              f"{workload.name} epidemic vs pinned {workload.epidemic}")
        return
    hist = record["final_histogram"]
    if sum(hist.values()) != record["n_persons"]:
        raise CheckFailed(f"final histogram sums to {sum(hist.values())}, "
                          f"not {record['n_persons']}")
    if len(record["new_infections"]) != N_DAYS:
        raise CheckFailed(f"{len(record['new_infections'])} days, not {N_DAYS}")
    if sum(record["new_infections"]) != record["total_infections"]:
        raise CheckFailed("daily infections do not sum to the total")


# ----------------------------------------------------------------------
def _iteration(spec, traced: bool, n_workers: int) -> tuple[dict, dict, int]:
    """Run one iteration; return its timings, epidemic and ring stalls."""
    cpu0 = _cpu_seconds()
    if traced:
        with LayerTracer(n_workers) as tracer:
            it = run_once(spec, tracer)
    else:
        it = run_once(spec)
    timing = {
        "sim_s": it.sim_s, "day_s": it.day_s,
        "setup_s": it.setup_s, "cpu_s": _cpu_seconds() - cpu0,
    }
    if traced:
        timing["layers"] = layer_metrics(it, tracer, spec.runtime.backend)
    return timing, it.epidemic, it.raw.get("ring_stalls", 0)


def measure(name: str, seed: int, seconds: float, trace: bool,
            reference: dict | None) -> dict:
    """Run one workload for ``seconds``; return the full result.

    ``reference`` is the pinned file (None only while pinning).
    """
    workload = WORKLOADS[name]
    spec = workload.spec(seed)
    backend = spec.runtime.backend
    n_workers = spec.runtime.workers if backend == "smp" else 0
    plain: list[dict] = []
    traced: list[dict] = []
    epidemics: list[dict] = []
    stalls: list[int] = []
    errors: list[str] = []
    attempted = 0
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        traced_now = trace and attempted > 0
        attempted += 1
        try:
            timing, record, ring_stalls = _iteration(spec, traced_now, n_workers)
            if reference is not None:
                check_epidemic(record, workload, seed, reference)
            if epidemics:
                _same(record, epidemics[0], "epidemic vs first iteration")
        except Exception:  # one failed iteration; the run goes on
            errors.append(traceback.format_exc())
        else:
            epidemics.append(record)
            stalls.append(ring_stalls)
            (traced if traced_now else plain).append(timing)
        # The stamping wrappers close reference cycles through the
        # simulator; free its graph before the next iteration builds one.
        gc.collect()
        # At least two iterations, so no result rests on a single one.
        took = time.perf_counter() - t_iter
        if attempted >= 2 and time.perf_counter() + took > start + seconds:
            break
    peak_rss = _peak_rss_mb()

    checks = []
    if not errors and workload.epidemic != name and seed != DEFAULT_SEED:
        # Cross-backend check at this seed: outside the measured window.
        ref_spec = WORKLOADS[workload.epidemic].spec(seed)
        try:
            _same(epidemics[0], run_once(ref_spec).epidemic,
                  f"{name} epidemic vs {workload.epidemic}")
            checks.append(f"equal to {workload.epidemic} at seed {seed}")
        except Exception:
            errors.append(traceback.format_exc())

    result = {
        "workload": name, "seed": seed, "trace": trace,
        "env": environment(spec),
        "iterations": [
            {"sim_s": t["sim_s"], "peak_day_s": max(t["day_s"]),
             "setup_s": t["setup_s"], "cpu_s": t["cpu_s"]}
            for t in plain + traced
        ],
        "checks": checks,
        "errors": errors,
    }
    if trace:
        metrics, counts = _layer_summary(traced, plain, stalls, errors)
        if reference is not None and seed == DEFAULT_SEED and not errors:
            try:
                _same(counts, reference["counts"][name], f"{name} exact counts vs pinned")
            except CheckFailed:
                errors.append(traceback.format_exc())
        result["counts"] = counts
        units = LAYER_UNITS
    else:
        metrics = _end_to_end(plain)
        metrics["peak_rss_mb"] = peak_rss
        units = END_TO_END_UNITS
    result["epidemic"] = epidemics[0] if epidemics else None
    result["attempted"] = attempted
    result["failed"] = len(errors)
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return result


def _end_to_end(plain: list[dict]) -> dict:
    """Medians over iterations; the peak day is the slowest median day."""
    if not plain:
        return dict.fromkeys(END_TO_END_UNITS, 0.0)
    metrics = {
        key: statistics.median(t[key] for t in plain)
        for key in ("sim_s", "setup_s", "cpu_s")
    }
    days = zip(*(t["day_s"] for t in plain))
    metrics["peak_day_s"] = max(statistics.median(d) for d in days)
    return metrics


def _layer_summary(traced, plain, stalls, errors) -> tuple[dict, dict]:
    """Median per-layer metrics; exact counts must agree across iterations."""
    if not traced:
        return dict.fromkeys(LAYER_UNITS, 0.0), {}
    layers = [t["layers"] for t in traced]
    metrics = {k: statistics.median(m[k] for m in layers) for k in LAYER_UNITS}
    counts = {k: layers[0][k] for k in EXACT_COUNTS}
    for m in layers[1:]:
        if {k: m[k] for k in EXACT_COUNTS} != counts:
            errors.append("exact counts differ between traced iterations")
    metrics["smp.ring_stalls_spread"] = max(stalls) - min(stalls)
    if plain:
        metrics["trace.overhead_s"] = (
            statistics.median(t["sim_s"] for t in traced)
            - statistics.median(t["sim_s"] for t in plain)
        )
    return _whole_counts(metrics), counts


def stop_children() -> None:
    """End every process this run started and wait for each.

    The smp backend joins its workers itself; this catches any a failed
    run left behind, and the resource tracker that ``SharedMemory``
    starts, which would otherwise outlive the benchmark by a moment.
    """
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    multiprocessing.resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    reference = json.loads(REFERENCE.read_text())
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), reference)
    finally:
        stop_children()
    for err in result["errors"]:
        print(err, file=sys.stderr)
    correct = result["failed"] == 0
    print(json.dumps({k: v for k, v in result.items() if k != "metrics"}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1
