"""Benchmark harness for consfree.

    python3 perfbench/run.py --workload tm_decide --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ./src. With
--trace 0 the harness measures the end-to-end metrics: it times one pass of
the workload's queries after another while the next pass, as long as the
median pass so far, still ends within --seconds (at least one pass), and
times set-up in fresh processes. With --trace 1 it runs one
untraced pass and one traced pass and reports per-layer metrics.
Every answer is checked against the workload's oracle. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from tracer import Tracer
from workloads import ROOT, SRC, WORKLOADS, import_library

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "max_query_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "frac",
}

PER_LAYER = {
    "solver.solve_s": "s",
    "solver.fixpoint_s": "s",
    "solver.rule_union_s": "s",
    "solver.space_s": "s",
    "solver.statement_count_s": "s",
    "solver.evaluate_s": "s",
    "solver.steps": "count",
    "solver.demanded": "count",
    "solver.confirmed": "count",
    "solver.statements": "count",
    "solver.rule_unions": "count",
    "solver.conf_calls": "count",
    "solver.confirm_yield": "ratio",
    "engine.search_s": "s",
    "engine.replay_s": "s",
    "engine.visited": "count",
    "engine.reducts": "count",
    "engine.dedup_yield": "ratio",
    "terms.print_s": "s",
    "terms.print_calls": "count",
    "validation.check_s": "s",
    "validation.compute_B_s": "s",
    "validation.prune_s": "s",
    "validation.B_size": "count",
    "syntax.parse_s": "s",
    "modules.gen_s": "s",
    "modules.selftest_s": "s",
    "modules.decrements": "count",
    "compiler.compile_s": "s",
    "compiler.text_bytes": "bytes",
    "tm.simulate_s": "s",
    "trace_overhead_frac": "frac",
}


# -- tracing -------------------------------------------------------------------


def _adder(fields):
    """An on_result hook adding attributes (or callables) of the result."""

    def add(counts, result):
        for key, read in fields.items():
            counts[key] += read(result)

    return add


def instrument(tracer: Tracer, lib) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    solver, engine, modules = lib.solver, lib.engine, lib.modules
    tracer.span(
        solver,
        "solve",
        "solver.solve",
        _adder(
            {
                "solver.steps": lambda r: r.steps,
                "solver.demanded": lambda r: r.demanded,
                "solver.confirmed": lambda r: len(r.solver.confirmed_at),
                "solver.statements": lambda r: r.statements,
            }
        ),
    )
    tracer.span(solver.Solver, "advance_to_fixpoint", "solver.fixpoint")
    tracer.span(solver.Solver, "rule_union", "solver.rule_union")
    tracer.span(solver.Solver, "evaluate", "solver.evaluate")
    tracer.span(solver.Solver, "statement_count", "solver.statement_count")
    tracer.span(solver, "build_space", "solver.space")
    tracer.count(solver.Solver, "conf", "solver.conf_calls")
    for owner in (engine, solver, lib.validation):
        tracer.span(owner, "print_term", "terms.print")
    tracer.span(
        engine,
        "search_data_normal_forms",
        "engine.search",
        _adder({"engine.visited": lambda r: r.visited}),
    )
    tracer.span(engine, "replay_trace", "engine.replay")
    tracer.count(engine.Engine, "step_options", "engine.reducts", len)
    tracer.span(solver, "check", "validation.check")
    sized = _adder({"validation.B_size": len})
    tracer.span(solver, "compute_B", "validation.compute_B", sized)
    tracer.span(modules, "data_universe", "validation.compute_B", sized)
    tracer.span(solver, "prune_ho_constructors", "validation.prune")
    for owner, attr in (
        (lib.syntax, "parse_atrs"),
        (lib.syntax, "parse_tm"),
        (modules, "parse_atrs"),
        (lib.compiler, "parse_atrs"),
    ):
        tracer.span(owner, attr, "syntax.parse")
    for owner in (modules, lib.compiler):
        tracer.span(owner, "gen_module", "modules.gen")
    tracer.span(
        modules,
        "module_selftest",
        "modules.selftest",
        _adder({"modules.decrements": lambda r: r.decrements}),
    )
    tracer.span(
        lib.compiler,
        "compile_tm",
        "compiler.compile",
        _adder({"compiler.text_bytes": lambda r: len(r.text)}),
    )
    tracer.span(lib.tm, "simulate_tm", "tm.simulate", always=True)


def _ratio(num: Optional[float], base: Optional[float]) -> Optional[float]:
    if num is None or base is None:
        return None
    return num / base if base else 0.0


def layer_values(tracer: Tracer) -> Dict[str, Optional[float]]:
    """Per-layer metrics; None where the wrapped function no longer exists."""
    selfs, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts

    def seconds(span: str):
        return None if tracer.absent(span) else selfs.get(span, 0.0)

    def spans(span: str):
        return None if tracer.absent(span) else calls.get(span, 0)

    def counter(key: str, source: str):
        return None if tracer.absent(source) else counts.get(key, 0)

    values = {
        "solver.solve_s": seconds("solver.solve"),
        "solver.fixpoint_s": seconds("solver.fixpoint"),
        "solver.rule_union_s": seconds("solver.rule_union"),
        "solver.space_s": seconds("solver.space"),
        "solver.statement_count_s": seconds("solver.statement_count"),
        "solver.evaluate_s": seconds("solver.evaluate"),
        "solver.steps": counter("solver.steps", "solver.solve"),
        "solver.demanded": counter("solver.demanded", "solver.solve"),
        "solver.confirmed": counter("solver.confirmed", "solver.solve"),
        "solver.statements": counter("solver.statements", "solver.solve"),
        "solver.rule_unions": spans("solver.rule_union"),
        "solver.conf_calls": counter("solver.conf_calls", "solver.conf_calls"),
        "engine.search_s": seconds("engine.search"),
        "engine.replay_s": seconds("engine.replay"),
        "engine.visited": counter("engine.visited", "engine.search"),
        "engine.reducts": counter("engine.reducts", "engine.reducts"),
        "terms.print_s": seconds("terms.print"),
        "terms.print_calls": spans("terms.print"),
        "validation.check_s": seconds("validation.check"),
        "validation.compute_B_s": seconds("validation.compute_B"),
        "validation.prune_s": seconds("validation.prune"),
        "validation.B_size": counter("validation.B_size", "validation.compute_B"),
        "syntax.parse_s": seconds("syntax.parse"),
        "modules.gen_s": seconds("modules.gen"),
        "modules.selftest_s": seconds("modules.selftest"),
        "modules.decrements": counter("modules.decrements", "modules.selftest"),
        "compiler.compile_s": seconds("compiler.compile"),
        "compiler.text_bytes": counter("compiler.text_bytes", "compiler.compile"),
        "tm.simulate_s": seconds("tm.simulate"),
    }
    values["solver.confirm_yield"] = _ratio(
        values["solver.confirmed"], values["solver.rule_unions"]
    )
    values["engine.dedup_yield"] = _ratio(
        values["engine.visited"], values["engine.reducts"]
    )
    return values


# -- passes --------------------------------------------------------------------


@dataclass
class Outcome:
    label: str
    seconds: float
    summary: Dict
    ok: bool


def set_expected(queries) -> None:
    """Compute every oracle answer, outside any timed section."""
    for query in queries:
        try:
            query.expected = query.oracle()
        except Exception as exc:  # a broken oracle fails its query, not the run
            query.expected = f"oracle raised {exc!r}"


def run_pass(queries) -> List[Outcome]:
    """Run each query once; time only its call into the library. Each query
    starts from a collected heap, so the garbage an earlier query left does
    not decide when the collector runs inside this one."""
    outcomes = []
    for query in queries:
        gc.collect()
        started = time.perf_counter()
        try:
            result = query.run()
        except Exception as exc:  # counted as a failed query
            elapsed = time.perf_counter() - started
            outcomes.append(Outcome(query.label, elapsed, {"error": repr(exc)}, False))
            continue
        elapsed = time.perf_counter() - started
        try:
            summary = query.summarize(result)
        except Exception as exc:  # counted as a failed query
            summary = {"error": repr(exc)}
        del result  # a solver result can hold hundreds of MB
        ok = "error" not in summary and summary["answer"] == query.expected
        outcomes.append(Outcome(query.label, elapsed, summary, ok))
    return outcomes


def report_pass(tag: str, outcomes: List[Outcome]) -> None:
    for o in outcomes:
        status = "ok" if o.ok else "FAIL"
        print(f"{tag} {status} {o.seconds:.4f}s {o.label} {json.dumps(o.summary)}")


def setup_in_child(name: str, seed: int) -> float:
    """Set-up time of a fresh process: imports, corpus reads, parse, compile."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(workload, seed: int, seconds: float):
    setups = [setup_in_child(workload.name, seed) for _ in range(SETUP_SAMPLES)]
    lib = import_library()
    queries = workload.setup(lib)
    set_expected(queries)
    passes: List[List[Outcome]] = []
    pass_seconds: List[float] = []
    started = time.perf_counter()
    while not passes or (
        time.perf_counter() - started + statistics.median(pass_seconds) <= seconds
    ):
        pass_started = time.perf_counter()
        passes.append(run_pass(queries))
        pass_seconds.append(time.perf_counter() - pass_started)
        report_pass(f"pass {len(passes)}", passes[-1])
    per_query = defaultdict(list)
    for outcomes in passes:
        for o in outcomes:
            per_query[o.label].append(o.seconds)
    attempted = sum(len(outcomes) for outcomes in passes)
    failed = sum(not o.ok for outcomes in passes for o in outcomes)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(sum(o.seconds for o in p) for p in passes),
        "setup_s": statistics.median(setups),
        "max_query_s": max(statistics.median(v) for v in per_query.values()),
        "peak_rss_mb": peak_kib / 1024,
        "correct_frac": (attempted - failed) / attempted,
    }
    print(f"passes {len(passes)}; setup samples {[round(s, 4) for s in setups]}")
    return attempted, failed, values, END_TO_END


def traced_run(workload):
    lib = import_library()
    queries = workload.setup(lib)
    set_expected(queries)
    plain = run_pass(queries)
    report_pass("untraced", plain)
    tracer = Tracer()
    instrument(tracer, lib)
    try:
        queries = workload.setup(lib)
        tracer.recording = False  # oracles other than simulate_tm stay untraced
        set_expected(queries)
        tracer.recording = True
        traced = run_pass(queries)
    finally:
        tracer.uninstall()
    report_pass("traced", traced)
    for before, after in zip(plain, traced):
        if before.summary != after.summary:
            print(f"MISMATCH {after.label}: untraced {before.summary} traced {after.summary}")
            after.ok = False
    outcomes = plain + traced
    failed = sum(not o.ok for o in outcomes)
    plain_wall = sum(o.seconds for o in plain)
    traced_wall = sum(o.seconds for o in traced)
    values = layer_values(tracer)
    values["trace_overhead_frac"] = traced_wall / plain_wall - 1
    print(f"untraced wall {plain_wall:.4f}s, traced wall {traced_wall:.4f}s, spans {len(tracer.names)}")
    return len(outcomes), failed, values, PER_LAYER


# -- entry point ---------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "consfree" / "__init__.py").is_file():
        print(f"error: no consfree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        started = time.perf_counter()
        workload.setup(import_library())
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0
    print("environment " + json.dumps({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }))
    print("inputs " + json.dumps({"workload": workload.name, "seed": args.seed,
                                  "queries": workload.describe()}))
    if args.trace:
        attempted, failed, values, units = traced_run(workload)
    else:
        attempted, failed, values, units = timed_run(workload, args.seed, args.seconds)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        value = "absent" if metric["value"] is None else metric["value"]
        print(f"metric {name} {value} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
