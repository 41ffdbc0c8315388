#!/usr/bin/env python3
"""Run one benchmark workload; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload fig6_random150 --seed 1 --seconds 30 --trace 0

A run makes a fixed number of passes (``perfbench/workloads.py``), each
in a fresh interpreter: a workload is one closed-loop job batch in a
fresh process, and the passes of a run average it over several random
topologies.  Interpreter start-up and imports are outside every timing.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs pass 0
untraced in a child, then the same pass here with span wrappers around
each layer, and reports the per-layer metrics; the spans are written to
``.perfbench/trace-<workload>.npz``.  Every job's outputs are checked
(``perfbench/checks.py``).  ``--all`` runs every workload and prints the
derived paper-scale cost; ``--record`` checks invariants only and stores
the digests of the run's jobs in ``perfbench/digests.json`` (run it once
per workload, with the default length, to record its whole pool);
``--write-benchmark-json`` regenerates ``BENCHMARK.json`` from the
workload and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench")
#: a pass that has not finished by then has failed (runs must end in 180 s)
PASS_TIMEOUT_S = 150


def _layers():
    with open(os.path.join(HERE, "layers.json")) as fh:
        return json.load(fh)["metrics"]


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _ratio(num: float, den: float, name: str, na: list) -> float:
    if den:
        return num / den
    na.append(name)
    return 0.0


def end_to_end(passes) -> dict:
    """End-to-end metrics from the pass summaries of a run."""
    from perfbench.workloads import END_TO_END

    units = {name: unit for name, unit, _, _ in END_TO_END}
    done = [p for p in passes if p["sim_s"]]
    values = {
        "total_s": sum(p["wall_s"] for p in done),
        "cpu_per_sim_s": sum(p["cpu_s"] for p in done) / sum(p["sim_s"] for p in done),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
        "setup_s": sum(p["setup_s"] for p in done),
    }
    return {k: _metric(v, units[k]) for k, v in values.items()}


def per_layer(base: dict, traced, tracer, harvested) -> tuple:
    """Per-layer metrics of the traced pass, plus notes and n/a names.

    ``base`` is the summary of the same pass run untraced.
    """
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    counters: dict = {}
    for r in traced.results:
        for k, v in r.counters.items():
            name = k.split("{", 1)[0]
            counters[name] = counters.get(name, 0.0) + float(v)
    p2p_forwarded = sum(
        float(r.counters.get("flood.forwarded{plane=p2p.flood}", 0.0)) for r in traced.results
    )

    def selfs(*prefixes):
        return sum(v for k, v in self_s.items() if k.startswith(prefixes))

    def ncalls(*prefixes):
        return sum(v for k, v in calls.items() if k.startswith(prefixes))

    notes, na = [], []
    sent = counters.get("net.frames_sent", 0.0)
    delivered = counters.get("net.frames_delivered", 0.0)
    copies = ncalls("frame:")
    if copies != delivered:
        notes.append(
            f"NetNode.on_frame wrapper saw {copies} of {delivered:g} delivered copies; "
            "copy counts use net.frames_delivered"
        )
        copies = delivered
    charges = ncalls("energy.")
    if charges != sent + delivered:
        notes.append(
            f"EnergyModel wrappers saw {charges} of {sent + delivered:g} charges; "
            "energy.charges uses net.frames_sent + net.frames_delivered"
        )
        charges = sent + delivered
    issued = sum(s.queries for r in traced.results for s in r.file_stats)
    answered = sum(s.answered for r in traced.results for s in r.file_stats)
    finite = [r for r in traced.results if r.config.energy_capacity != float("inf")]
    if not finite:
        na.append("energy.depleted")
    depleted = sum(int((r.energy >= r.config.energy_capacity).sum()) for r in finite)
    aodv = {k: sum(h.get(k, 0) for h in harvested) for k in ("rreq_sent", "rrep_sent", "rerr_sent")}
    stats = traced.stats
    values = {
        "sim.events": sum(r.events for r in traced.results),
        "sim.heap_pushes": counters.get("kernel.heap_pushes", 0.0),
        "sim.self_s": selfs("sim."),
        "radio.frames_sent": sent,
        "radio.copies_delivered": delivered,
        "radio.fanout": _ratio(delivered, sent, "radio.fanout", na),
        "radio.self_s": selfs("radio."),
        "energy.charges": charges,
        "energy.depleted": depleted,
        "energy.self_s": selfs("energy."),
        "aodv.rreq_sent": aodv["rreq_sent"],
        "aodv.rrep_sent": aodv["rrep_sent"],
        "aodv.rerr_sent": aodv["rerr_sent"],
        "aodv.rreq_copy_share": _ratio(
            ncalls("frame:aodv.ctrl.Rreq"), copies, "aodv.rreq_copy_share", na
        ),
        "aodv.self_s": selfs("frame:aodv."),
        "flood.forwarded": counters.get("flood.forwarded", 0.0),
        "flood.duplicates": counters.get("flood.duplicates", 0.0),
        "flood.suppressed": counters.get("flood.suppressed", 0.0),
        "flood.useful_frac": _ratio(
            p2p_forwarded, ncalls("frame:p2p.flood"), "flood.useful_frac", na
        ),
        "flood.self_s": selfs("frame:p2p.flood"),
        "topology.refreshes": counters.get("topology.rebuilds", 0.0),
        "topology.kinetic_skips": counters.get("topology.kinetic_skips", 0.0),
        "topology.refresh_s": selfs("topology."),
        "mobility.self_s": selfs("mobility."),
        "core.connects_established": counters.get("alg.connections_established", 0.0),
        "core.pings_sent": counters.get("alg.pings_sent", 0.0),
        "core.queries_issued": sum(r.num_queries for r in traced.results),
        "core.answer_frac": _ratio(answered, issued, "core.answer_frac", na),
        "core.self_s": selfs("core."),
        "metrics.harvest_s": selfs("analytics."),
        "metrics.bfs_sources": counters.get("graphfast.bfs_sources", 0.0),
        "obs.instruments": sum(h["instruments"] for h in harvested),
        "obs.aggregate_s": selfs("obs."),
        "obs.aggregate_calls": ncalls("obs."),
        "scenarios.build_s": selfs("scenarios.build"),
        "scenarios.harvest_s": selfs("scenarios.harvest"),
        "experiments.jobs_requested": traced.requested,
        "experiments.jobs_executed": stats.get("jobs_executed", 0.0),
        "experiments.dedup_frac": stats.get("jobs_deduped", 0.0) / traced.requested,
        "experiments.cache_put_s": selfs("experiments.cache_put"),
        "experiments.replay_s": base["replay_s"],
        "experiments.replay_hit_frac": base["replay_hit_frac"],
        "trace.overhead_frac": traced.wall_s / base["wall_s"] - 1.0,
    }
    units = {m["name"]: m["unit"] for m in _layers()}
    missing = sorted(set(units) ^ set(values))
    if missing:
        raise RuntimeError(f"per-layer metrics out of sync with layers.json: {missing}")
    return {k: _metric(v, units[k]) for k, v in values.items()}, notes, na


def run_traced(name, plan, recorded, base: dict, work_dir=WORK):
    """Run ``plan`` with span wrappers installed; per-layer metrics of it.

    ``base`` is the summary of the same pass run untraced: its digests
    must match the traced pass, and its wall time is the overhead base.
    """
    from perfbench.bench import pass_summary, run_pass
    from perfbench.spans import Tracer, install

    tracer = Tracer()
    harvested = []

    def on_harvest(simulation):
        overhead = getattr(simulation.router, "control_overhead", dict)()
        harvested.append({"instruments": len(simulation.registry), **overhead})

    restore = install(tracer, on_harvest)
    try:
        traced = run_pass(name, plan, work_dir, recorded)
    finally:
        restore()
    if traced.results and pass_summary(traced)["digests"] != base["digests"]:
        traced.failures["pass"] = "traced run differs from the untraced run of the same seed"
    path = os.path.join(work_dir, f"trace-{name}.npz")
    tracer.save(path)
    print(f"spans: {len(tracer)} written to {os.path.relpath(path, ROOT)}")
    if not (base["sim_s"] and traced.results):
        return traced, ({}, [], [])
    return traced, per_layer(base, traced, tracer, harvested)


def run_pass_here(name: str, seed: int, index: int, record: bool) -> None:
    """One pass in this interpreter; prints its summary as the last line."""
    from perfbench.bench import pass_summary, run_pass, warm_up
    from perfbench.checks import load_digests
    from perfbench.workloads import WORKLOADS, scenario_seed

    os.makedirs(WORK, exist_ok=True)
    warm_up()
    workload = WORKLOADS[name]
    plan = workload.plan(scenario_seed(workload, seed, index))
    recorded = None if record else load_digests()
    print(json.dumps(pass_summary(run_pass(name, plan, WORK, recorded))), flush=True)
    # skip interpreter teardown: freeing a 10 000-node simulation object by
    # object takes seconds that no timing includes
    os._exit(0)


def spawn_pass(name: str, seed: int, index: int, jobs: int, record: bool) -> dict:
    """Run one pass in a fresh interpreter and return its summary."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--pass", str(index)] + (["--record"] if record else [])
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S, check=False
        )
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        why = f"pass process exited with {proc.returncode}"
    except subprocess.TimeoutExpired:
        why = f"pass process killed after {PASS_TIMEOUT_S} s"
    except (IndexError, ValueError):
        why = "pass process printed no summary"
    return {"sim_s": 0.0, "jobs": jobs, "failed": jobs, "failures": {"pass": why}, "digests": {}}


def run_one(args) -> int:
    from perfbench.bench import pass_summary, warm_up
    from perfbench.checks import job_label, load_digests, save_digests
    from perfbench.workloads import (
        PAPER_COST_WORKLOADS,
        WORKLOADS,
        paper_cpu_hours,
        passes_for,
        scenario_seed,
    )

    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    recorded = load_digests()
    n = 1 if args.trace else passes_for(workload, args.seconds)
    plans = [workload.plan(scenario_seed(workload, args.seed, p)) for p in range(n)]
    passes = [
        spawn_pass(workload.name, args.seed, p, len({job_label(c) for c in plan.configs}), args.record)
        for p, plan in enumerate(plans)
    ]
    notes, na = [], []
    if args.trace:
        warm_up()
        checked = None if args.record else recorded
        traced, (metrics, notes, na) = run_traced(workload.name, plans[0], checked, passes[0])
        passes.append(pass_summary(traced))
    else:
        metrics = end_to_end(passes) if any(p["sim_s"] for p in passes) else {}

    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    names = [f"pass {i}" for i in range(n)] + (["traced pass 0"] if args.trace else [])
    for name, p in zip(names, passes):
        if p["sim_s"]:
            print(f"{name}: {p['jobs']} jobs, {p['wall_s']:.3f} s wall, {p['cpu_s']:.3f} s cpu, "
                  f"{p['sim_s']:g} sim-s, peak {p['peak_rss_mb']:.1f} MiB")
        for label, why in sorted(p["failures"].items()):
            print(f"FAILED {workload.name} {name} {label}: {why}")
    print(f"workload {workload.name} seed {args.seed}: {len(passes)} pass(es), "
          f"{attempted} jobs, {failed} failed")
    for note in notes:
        print(f"note: {note}")
    if na:
        print(f"not applicable on {workload.name} (reported as 0): {', '.join(na)}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    if workload.name in PAPER_COST_WORKLOADS and "cpu_per_sim_s" in metrics:
        hours = paper_cpu_hours(metrics["cpu_per_sim_s"]["value"])
        print(f"derived (not gated): {PAPER_COST_WORKLOADS[workload.name]}-node half of a "
              f"paper-scale reproduce (4 algorithms x 33 reps x 3600 s) ~ {hours:.2f} CPU-hours")
    if args.record and failed == 0:
        digests = {label: d for p in passes for label, d in p["digests"].items()}
        recorded.setdefault(workload.name, {}).update(digests)
        save_digests(recorded)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, one after another, then the derived headline."""
    from perfbench.workloads import PAPER_COST_WORKLOADS, WORKLOADS, paper_cpu_hours

    cpu = {}
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"correct": False}
        ok = ok and result["correct"]
        if "cpu_per_sim_s" in result.get("metrics", {}):
            cpu[name] = result["metrics"]["cpu_per_sim_s"]["value"]
    if set(PAPER_COST_WORKLOADS) <= set(cpu):
        hours = sum(paper_cpu_hours(cpu[w]) for w in PAPER_COST_WORKLOADS)
        print(f"derived (not gated): paper-scale reproduce (50 and 150 nodes x 4 algorithms "
              f"x 33 reps x 3600 s) ~ {hours:.1f} CPU-hours")
    return 0 if ok else 1


def write_benchmark_json() -> None:
    from perfbench.workloads import END_TO_END, RUN_SECONDS, WORKLOADS

    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values() if w.gated],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": m["name"], "unit": m["unit"], "better": m["better"]} for m in _layers()
        ],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length (default: RUN_SECONDS)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--record", action="store_true",
                        help="check invariants only and record the jobs' digests")
    parser.add_argument("--write-benchmark-json", action="store_true")
    parser.add_argument("--pass", type=int, dest="pass_index", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure (src/repro missing under {ROOT})", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import RUN_SECONDS, WORKLOADS

    if args.seconds is None:
        args.seconds = RUN_SECONDS
    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.pass_index is not None:
        return run_pass_here(args.workload, args.seed, args.pass_index, args.record)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
