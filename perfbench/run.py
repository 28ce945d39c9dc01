"""End-to-end benchmark: calibrated time to run a seeded job set.

    python3 perfbench/run.py --workload fp_local --seed 1 --seconds 20 --trace 0

Workloads (``workloads.py``): ``fp_local``, ``cf_local``, ``edit_served``.
The job set is derived from ``--seed`` and sized so that it takes about
``--seconds`` calibrated seconds; the same seed and seconds always give
the same jobs.  Every job is checked (``check_jobs``), and the last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  A record of the run, raw
seconds and spans included, is written under ``.perfbench_out/``.

The traced run makes two passes over the same job set on fresh
sessions: untraced, then with the layer tracer (``spans.py``) installed,
and reports ``trace.overhead`` as the ratio of their run times minus one,
and ``trace.overhead_est`` from the measured cost of one wrapped call.
Both passes must produce the same per-job fingerprint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: the program must be the checkout's own source tree, never an
#: installed copy
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
from calib import Calibrator  # noqa: E402
from workloads import (  # noqa: E402
    SETUP_REPEATS, WORKLOADS, JobRecord, PassResult, Spec, make_job, phase1_config, run_local,
    run_served,
)

#: (name, unit) of the end-to-end metrics, in output order; times are
#: calibrated seconds (calib.py)
END_TO_END = (
    ("setup_s", "s"),
    ("run_us_per_cand", "us"),
    ("peak_rss_mb", "MB"),
)
#: printed for every run but not bounded: the job latencies spread 12-14%
#: from run to run, run_s, solved and candidates depend on which tasks
#: the seed drew, the raw times on the machine's speed at the time
#: (BENCHMARK.md)
REPORTED = (
    ("full_job_s", "s"),
    ("job_p50_s", "s"),
    ("run_s", "s"),
    ("solved", "count"),
    ("candidates", "count"),
    ("setup_s.raw", "s"),
    ("run_us_per_cand.raw", "us"),
    ("full_job_s.raw", "s"),
)


def load_program() -> None:
    """Import the program from the checkout; raise if it is not there."""
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {SRC}")


# ----------------------------------------------------------------------
# correctness


def check_jobs(
    spec: Spec, jobs: List[JobRecord], tasks_by_index: Dict[int, object]
) -> List[Tuple[int, str]]:
    """(job index, problem) for every wrong job outcome; empty when all
    are right.

    A found program is re-run on its examples by the reference
    interpreter, not by the columnar engine the search used.
    """
    from repro.dsl.interpreter import Interpreter
    from repro.dsl.program import Program
    from repro.dsl.types import values_equal

    reference = Interpreter(trace=False, compiled=False)
    problems = []
    for job in jobs:
        def problem(message: str) -> None:
            problems.append((job.index, f"job {job.index} ({job.job_id}) {message}"))

        if job.state not in ("solved", "exhausted"):
            problem(f"ended {job.state!r}")
            continue
        if not 0 < job.candidates <= spec.budget:
            problem(f"used {job.candidates} candidates of {spec.budget}")
        if job.found != (job.state == "solved") or job.found != (job.program is not None):
            problem(f"state {job.state} disagrees with its result")
            continue
        if job.found:
            task = tasks_by_index[job.index]
            program = Program(job.program)
            for example in task.io_set:
                if not values_equal(reference.output_of(program, example.inputs), example.output):
                    problem(f"program {job.program} fails an IO example")
                    break
    return problems


def fingerprint(jobs: List[JobRecord]) -> Tuple[str, list]:
    rows = [job.fingerprint() for job in sorted(jobs, key=lambda j: j.index)]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    return digest, rows


# ----------------------------------------------------------------------
# metrics


def end_to_end(spec: Spec, result: PassResult) -> Dict[str, float]:
    """End-to-end metrics of one untraced pass.

    ``full_job_s`` is the median latency of the jobs that spent their
    whole budget: the same work in every such job, whichever tasks the
    seed drew.
    """
    candidates = result.candidates
    full = [job for job in result.jobs if job.candidates == spec.budget]
    if not full:
        raise RuntimeError("no job spent its whole budget; raise the candidate quota")
    return {
        "setup_s": statistics.median(s.calibrated_s for s in result.setups),
        "run_us_per_cand": result.run_s / candidates * 1e6,
        "full_job_s": statistics.median(job.calibrated_s for job in full),
        "peak_rss_mb": result.peak_rss_mb,
        "run_s": result.run_s,
        "job_p50_s": statistics.median(job.calibrated_s for job in result.jobs),
        "solved": sum(job.found for job in result.jobs),
        "candidates": candidates,
        "setup_s.raw": statistics.median(s.raw_s for s in result.setups),
        "run_us_per_cand.raw": result.run_raw_s / candidates * 1e6,
        "full_job_s.raw": statistics.median(job.raw_s for job in full),
    }


#: per-layer metrics: name -> (unit, better, should move, on).  The last
#: two record which end-to-end metric each one should move, on which
#: workloads, as predicted before measuring.
PER_LAYER = {
    "selection.calls": ("count", "lower", "run_us_per_cand", "fp_local, edit_served"),
    "selection.self_s": ("s", "lower", "run_us_per_cand", "fp_local, edit_served"),
    "breeding.calls": ("count", "lower", "run_us_per_cand", "fp_local, edit_served"),
    "breeding.self_s": ("s", "lower", "run_us_per_cand", "fp_local, edit_served"),
    "breeding.dce_calls": ("count", "lower", "run_us_per_cand", "fp_local, edit_served"),
    "breeding.dce_s": ("s", "lower", "run_us_per_cand", "fp_local, edit_served"),
    "breeding.accept_ratio": ("ratio", "higher", "run_us_per_cand", "fp_local, edit_served"),
    "dsl.program_inits": ("count", "lower", "run_us_per_cand", "all"),
    "dsl.program_init_s": ("s", "lower", "run_us_per_cand", "all"),
    "execution.calls": ("count", "lower", "run_us_per_cand", "fp_local, cf_local"),
    "execution.rows": ("count", "lower", "run_us_per_cand", "fp_local, cf_local"),
    "execution.self_s": ("s", "lower", "run_us_per_cand", "fp_local, cf_local"),
    "execution.dispatches": ("count", "lower", "run_us_per_cand", "fp_local, cf_local"),
    "execution.trie_reuse": ("ratio", "higher", "run_us_per_cand", "fp_local, cf_local"),
    "execution.cache_hit_rate": ("ratio", "higher", "run_us_per_cand", "fp_local, cf_local"),
    "fitness.calls": ("count", "lower", "run_us_per_cand", "cf_local"),
    "fitness.rows": ("count", "lower", "run_us_per_cand", "cf_local"),
    "fitness.self_s": ("s", "lower", "run_us_per_cand, peak_rss_mb", "cf_local"),
    "fitness.cache_hit_rate": ("ratio", "higher", "run_us_per_cand, peak_rss_mb", "cf_local"),
    "neighborhood.calls": ("count", "lower", "run_us_per_cand, solved", "fp_local, cf_local"),
    "neighborhood.self_s": ("s", "lower", "run_us_per_cand", "fp_local, cf_local"),
    "neighborhood.found_ratio": ("ratio", "higher", "solved", "fp_local, cf_local"),
    "events.count": ("count", "lower", "run_us_per_cand", "all"),
    "serving.submit_ms_p50": ("ms", "lower", "full_job_s", "edit_served"),
    "serving.queue_wait_s": ("s", "lower", "full_job_s", "edit_served"),
    "serving.stream_tail_ms": ("ms", "lower", "full_job_s", "edit_served"),
    "serving.events_received": ("count", "lower", "full_job_s", "edit_served"),
    "phase1.corpus_s": ("s", "lower", "setup_s", "fp_local, cf_local"),
    "phase1.fit_s": ("s", "lower", "setup_s", "fp_local, cf_local"),
    "session.run_s": ("s", "lower", "-", "all"),
    "session.self_s": ("s", "lower", "run_us_per_cand", "all"),
    "session.unattributed_s": ("s", "lower", "-", "all"),
    "trace.overhead": ("ratio", "lower", "-", "all"),
    "trace.overhead_est": ("ratio", "lower", "-", "all"),
}

#: layer self times that, with session.unattributed_s, add up to run_s
SELF_TIMES = (
    "selection.self_s", "breeding.self_s", "breeding.dce_s", "dsl.program_init_s",
    "execution.self_s", "fitness.self_s", "neighborhood.self_s", "session.self_s",
)


def per_layer(
    untraced: PassResult,
    traced: PassResult,
    layers: Dict[str, Dict[str, float]],
    counters: Dict[str, float],
    session_spans: Dict[str, Tuple[float, float]],
    phase1: Dict[str, Dict[str, float]],
    wrapper_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of the traced pass, in raw seconds.

    ``wrapper_s`` is the measured cost of one wrapped call
    (``spans.wrapper_cost``); ``trace.overhead_est`` charges it to every
    call the tracer counted, a figure that, unlike ``trace.overhead``,
    does not move with the machine's speed between the two passes.
    """

    def self_s(layer: str) -> float:
        return layers[layer]["self_s"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    jobs = traced.jobs
    waits = [session_spans[j.job_id][0] - j.t_submit for j in jobs]
    tails = [j.t_terminal - session_spans[j.job_id][1] for j in jobs]
    metrics = {
        "selection.calls": layers["selection"]["calls"],
        "selection.self_s": self_s("selection"),
        "breeding.calls": layers["breeding"]["calls"],
        "breeding.self_s": self_s("breeding"),
        "breeding.dce_calls": layers["dce"]["calls"],
        "breeding.dce_s": self_s("dce"),
        "breeding.accept_ratio": ratio(layers["breeding"]["calls"], layers["dce"]["calls"]),
        "dsl.program_inits": layers["program_init"]["calls"],
        "dsl.program_init_s": self_s("program_init"),
        "execution.calls": layers["execution"]["calls"],
        "execution.rows": layers["execution"]["rows"],
        "execution.self_s": self_s("execution"),
        "execution.dispatches": counters["execution.dispatches"],
        "execution.trie_reuse": counters["execution.trie_reuse"],
        "execution.cache_hit_rate": counters["execution.cache_hit_rate"],
        "fitness.calls": layers["fitness"]["calls"],
        "fitness.rows": layers["fitness"]["rows"],
        "fitness.self_s": self_s("fitness"),
        "fitness.cache_hit_rate": counters["fitness.cache_hit_rate"],
        "neighborhood.calls": layers["neighborhood"]["calls"],
        "neighborhood.self_s": self_s("neighborhood"),
        "neighborhood.found_ratio": ratio(
            layers["neighborhood"]["found"], layers["neighborhood"]["calls"]
        ),
        "events.count": sum(j.job_events for j in jobs),
        "serving.submit_ms_p50": statistics.median(j.submit_s for j in jobs) * 1e3,
        "serving.queue_wait_s": statistics.median(waits),
        "serving.stream_tail_ms": statistics.median(tails) * 1e3,
        "serving.events_received": sum(j.events for j in jobs),
        "phase1.corpus_s": phase1["phase1.corpus"]["self_s"],
        "phase1.fit_s": phase1["phase1.fit"]["self_s"],
        "session.run_s": traced.run_raw_s,
        "session.self_s": self_s("session"),
        # calibrated: the two passes run a minute apart on a drifting machine
        "trace.overhead": traced.run_s / untraced.run_s - 1.0,
    }
    wrapped_calls = sum(stats["calls"] for stats in layers.values())
    metrics["trace.overhead_est"] = wrapped_calls * wrapper_s / traced.run_raw_s
    attributed = sum(metrics[name] for name in SELF_TIMES)
    metrics["session.unattributed_s"] = traced.run_raw_s - attributed
    return metrics


# ----------------------------------------------------------------------
# runs


def run_pass(
    spec: Spec, seed: int, seconds: float, cal: Calibrator, setup_repeats: int,
    trace_out: Optional[Path] = None,
) -> PassResult:
    if spec.served:
        return run_served(
            spec, seed, seconds, cal, OUT_DIR, setup_repeats=setup_repeats, trace_out=trace_out
        )
    return run_local(spec, seed, seconds, cal, setup_repeats=setup_repeats)


def tasks_for(spec: Spec, seed: int, jobs: List[JobRecord]) -> Dict[int, object]:
    dsl = phase1_config(spec).dsl
    return {job.index: make_job(spec, seed, job.index, dsl)[0] for job in jobs}


def run_traced(
    spec: Spec, name: str, seed: int, seconds: float, cal: Calibrator
) -> Tuple[PassResult, PassResult, Dict[str, float], dict]:
    """An untraced pass, then a traced pass on a fresh session/server."""
    untraced = run_pass(spec, seed, seconds, cal, setup_repeats=1)
    tracer = spans.install(spans.Tracer())
    server_out = OUT_DIR / f"server-spans-{name}-{seed}.json" if spec.served else None
    try:
        traced = run_pass(spec, seed, seconds, cal, setup_repeats=1, trace_out=server_out)
    finally:
        tracer.uninstall()
    local = {
        "layers": tracer.totals(root="session"),
        "counters": tracer.counters(),
        "spans": tracer.spans,
    }
    program = traced.trace if spec.served else local
    session_spans = {
        span[7]: (span[5], span[6]) for span in program["spans"] if span[3] == "session"
    }
    metrics = per_layer(
        untraced, traced, program["layers"], program["counters"], session_spans,
        tracer.totals(), spans.wrapper_cost(),
    )
    record = {
        "program_layers": program["layers"],
        "program_counters": program["counters"],
        "by_parent": tracer.by_parent() if not spec.served else program["by_parent"],
        "by_span": tracer.by_span() if not spec.served else program["by_span"],
        "client_layers": tracer.totals() if spec.served else None,
        "spans": program["spans"],
        "client_spans": local["spans"] if spec.served else None,
    }
    return untraced, traced, metrics, record


def print_table(title: str, rows: List[Tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<26} {shown:>14} {unit:<6} {note}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    spec = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    started = time.monotonic()

    with Calibrator() as cal:
        if args.trace:
            untraced, traced, metrics, trace_record = run_traced(
                spec, args.workload, args.seed, args.seconds, cal
            )
            passes = [untraced, traced]
        else:
            passes = [run_pass(spec, args.seed, args.seconds, cal, setup_repeats=SETUP_REPEATS)]
            trace_record = None

    tasks = tasks_for(spec, args.seed, passes[0].jobs)
    failed_jobs = set()
    problems = []
    for number, result in enumerate(passes):
        for index, message in check_jobs(spec, result.jobs, tasks):
            failed_jobs.add((number, index))
            problems.append(message)
    prints = [fingerprint(result.jobs) for result in passes]
    for number, (_, rows) in enumerate(prints):
        for row, reference in zip(rows, prints[0][1]):
            if row != reference:
                failed_jobs.add((number, row[0]))
                problems.append(f"traced pass job {row[0]} {row} differs from untraced {reference}")
    attempted = sum(len(result.jobs) for result in passes)

    e2e = end_to_end(spec, passes[0])
    digest, rows = prints[0]
    print(f"{args.workload} seed={args.seed} jobs={len(passes[0].jobs)} "
          f"budget={spec.budget} fingerprint={digest}")
    print("  per-job (index, found, candidates, generations): " + json.dumps(rows))
    print_table("end to end:", [
        (name, e2e[name], unit, "" if (name, unit) in END_TO_END else "(not bounded)")
        for name, unit in END_TO_END + REPORTED
    ])
    if args.trace:
        share_base = metrics["session.run_s"]
        print_table("per layer (traced pass; share of session.run_s):", [
            (name, metrics[name], PER_LAYER[name][0],
             (f"{metrics[name] / share_base:6.1%}  " if name in SELF_TIMES
              or name == "session.unattributed_s" else "        ")
             + f"-> {PER_LAYER[name][2]} on {PER_LAYER[name][3]}")
            for name in PER_LAYER
        ])
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.monotonic() - started,
        "fingerprint": digest,
        "jobs": [vars(job) for job in passes[0].jobs],
        "setups": [s.to_dict() for s in passes[0].setups],
        "sections": [s.to_dict() for s in passes[0].sections],
        "end_to_end": e2e,
        "problems": problems,
    }
    if args.trace:
        record["per_layer"] = metrics
        record["traced_sections"] = [s.to_dict() for s in passes[1].sections]
        record.update(trace_record)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=str), encoding="utf-8")

    if args.trace:
        reported = {name: {"value": metrics[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    else:
        reported = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed_jobs),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and exit non-zero without a result
        traceback.print_exc()
        sys.exit(1)
