"""Checks that the benchmark drives the same computation as the acceptance
suite, and that tracing changes no answer or count.

    python3 -m pytest perfbench
"""

import json
import random
import sys

import pytest

import run
import workloads
from tracer import Tracer
from workloads import ROOT, SRC, Query, SatSearch, Selftest, TmDecide

sys.path.insert(0, str(SRC))


@pytest.fixture(scope="module")
def lib():
    return workloads.import_library()


def run_one(query: Query):
    query.expected = query.oracle()
    (outcome,) = run.run_pass([query])
    assert outcome.ok, outcome.summary
    return outcome.summary


def sat_query(lib, formula, strategy):
    atrs = lib.syntax.parse_atrs((workloads.CORPUS / "sat.atrs").read_text())
    return SatSearch(0).query(lib, atrs, {}, formula, strategy)


def selftest_query(lib, text, n):
    bounds = {text: bound for text, _, bound in workloads.SELFTEST_MATRIX}
    return Selftest(0).query(lib, text, n, bounds[text])


# -- exact counts pinned by the acceptance suite and the roadmap ---------------


def test_tm_decide_pin(lib):
    summary = run_one(TmDecide(0).query(lib, "contains1.tm", "prod(lin,lin)", "011"))
    assert summary == {
        "answer": ["true"], "steps": 106, "demanded": 26859, "confirmed": 3291
    }


def test_sat_free_bfs_pin(lib):
    summary = run_one(sat_query(lib, "10?#?10#", "free"))
    assert summary == {"answer": [["false", "true"], False, True], "visited": 16087}


def test_selftest_e_pin(lib):
    summary = run_one(selftest_query(lib, "e", 2))
    assert summary == {"answer": [8, 7, True], "decrements": 7}


# -- tracing -------------------------------------------------------------------


def test_traced_pass_matches_untraced(lib):
    def make():
        return [selftest_query(lib, "e", 2), sat_query(lib, "1?#0?#", "free")]

    original = lib.solver.solve
    plain = make()
    run.set_expected(plain)
    untraced = run.run_pass(plain)
    tracer = Tracer()
    run.instrument(tracer, lib)
    try:
        queries = make()
        run.set_expected(queries)
        traced = run.run_pass(queries)
    finally:
        tracer.uninstall()
    assert [o.summary for o in traced] == [o.summary for o in untraced]
    assert all(o.ok for o in untraced + traced)
    values = run.layer_values(tracer)
    assert set(values) | {"trace_overhead_frac"} == set(run.PER_LAYER)
    assert values["modules.decrements"] == 7
    assert values["engine.visited"] == traced[1].summary["visited"]
    assert values["terms.print_calls"] > 0 and values["solver.rule_unions"] > 0
    assert lib.solver.solve is original


def test_missing_function_is_reported_absent():
    tracer = Tracer()
    tracer.span(object(), "advance_to_fixpoint", "solver.fixpoint")
    values = run.layer_values(tracer)
    assert values["solver.fixpoint_s"] is None
    assert values["solver.solve_s"] == 0.0


def test_self_time_excludes_children():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.span(Layer, "outer", "outer")
    tracer.span(Layer, "inner", "inner")
    assert Layer().outer() == 2
    tracer.uninstall()
    selfs = tracer.self_times()
    total = tracer.ends[0] - tracer.starts[0]
    assert selfs["outer"] + selfs["inner"] == pytest.approx(total)
    assert tracer.parents == [-1, 0]


# -- inputs and the metric contract --------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_inputs_are_seeded_within_their_size_class(seed):
    for workload in workloads.WORKLOADS.values():
        assert workload(seed).describe() == workload(seed).describe()
    for (machine, module, x), (_, _, inputs) in zip(
        TmDecide(seed).inputs, TmDecide.MACHINES
    ):
        assert len(x) == 2 and x in inputs
    sat = SatSearch(seed)
    for formula, formulas in zip(sat.satisfiable, workloads.SAT_CLASSES):
        assert formula in formulas
        assert workloads.sat_brute_force(formula)
    assert not workloads.sat_brute_force(sat.unsatisfiable)
    assert sorted(Selftest(seed).describe(), key=json.dumps) == sorted(
        Selftest(0).describe(), key=json.dumps
    )


def test_sat_classes_split_the_shape():
    formulas = [f for formulas in workloads.SAT_CLASSES for f in formulas]
    assert [len(formulas) for formulas in workloads.SAT_CLASSES] == [4, 4, 4, 4]
    assert len(set(formulas)) == 16
    assert all(len(f) == 6 and f[2] == f[5] == "#" and "?" not in f for f in formulas)


def test_unsat_draws_cover_their_class():
    drawn = {workloads.draw_unsat_formula(random.Random(s)) for s in range(50)}
    assert drawn == {"1?#0?#", "0?#1?#", "?1#?0#", "?0#?1#"}


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
