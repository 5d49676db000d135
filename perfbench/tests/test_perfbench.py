"""Tests of the benchmark's own code: span arithmetic, reporting statistics,
output checks, and the tracer on one small real run."""

import contextlib
import io
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, info=None):
    s = tracing.Span(name, start, parent)
    s.end = end
    s.info = info
    return s


def _nested():
    #   cli.run 0..10
    #     pipeline.solve_heat_control 1..9
    #       saddle.direct_solve 2..5
    #         scipy.spsolve 3..4
    #       forward.heat_forward_cn 6..8
    #         scipy.factorized 6.5..7
    return [_span("cli.run", 0.0, 10.0, -1),
            _span("pipeline.solve_heat_control", 1.0, 9.0, 0),
            _span("saddle.direct_solve", 2.0, 5.0, 1),
            _span("scipy.spsolve", 3.0, 4.0, 2),
            _span("forward.heat_forward_cn", 6.0, 8.0, 1),
            _span("scipy.factorized", 6.5, 7.0, 4)]


def test_self_times_subtract_children():
    assert tracing.self_times(_nested()) == pytest.approx(
        [2.0, 3.0, 2.0, 1.0, 1.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("cli.run", 0.0, 10.0, -1),
             _span("config.validate", 1.0, 6.0, 0),
             _span("config.validate", 4.0, 8.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_layer_self_times_add_up_and_attribute_factorizations():
    spans = _nested()
    layers = tracing.layer_self_times(spans)
    assert sum(layers.values()) == pytest.approx(spans[0].duration)
    assert layers["saddle"] == pytest.approx(3.0)     # 2 self + 1 spsolve
    assert layers["forward"] == pytest.approx(2.0)    # 1.5 self + 0.5 LU
    assert layers["pipeline"] == pytest.approx(3.0)
    assert layers["cli"] == pytest.approx(2.0)


def test_inclusive_does_not_double_count_nesting():
    spans = [_span("cli.run", 0.0, 10.0, -1),
             _span("fem.eval", 1.0, 5.0, 0),
             _span("fem.eval", 2.0, 3.0, 1),
             _span("fem.eval", 6.0, 7.0, 0)]
    total = tracing.inclusive(spans, lambda i: spans[i].name == "fem.eval")
    assert total == pytest.approx(5.0)


def test_recorder_nests_spans_and_restores_wrapped_functions():
    mod = SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    rec = tracing.Recorder(run_id=7)
    rec.wrap(mod, "inner", "forms.inner",
             hook=lambda a, k, r: {"arg": a[0], "result": r})
    rec.wrap(mod, "outer", "pipeline.outer")
    original_inner = mod.inner.__wrapped__
    assert rec.call("cli.run", mod.outer, 3) == 8
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("cli.run", -1), ("pipeline.outer", 0), ("forms.inner", 1)]
    assert rec.spans[2].info == {"arg": 3, "result": 4}
    rec.restore()
    assert mod.inner is original_inner


def test_summarize_reports_median_count_and_tail_percentile():
    few = run.summarize([3.0, 1.0, 2.0, 10.0])
    assert few["median"] == 2.5 and few["n"] == 4
    assert few["min"] == 1.0 and few["max"] == 10.0
    assert few["pct"] is None          # no percentile has 10 samples beyond
    twenty = run.summarize(list(range(20)))
    assert twenty["pct"][0] == 50      # p50 has 10 samples beyond, p75 has 5
    hundred = run.summarize(list(range(100)))
    assert hundred["pct"][0] == 90
    assert hundred["pct"][1] == pytest.approx(89.1)


def _good_outputs(w, seed):
    s = w.seed_value(seed) if w.seed_key == "physics.y0_scale" else 1.0
    ref = w.reference
    return {"J": ref["J"] * s * s, "verify_ratio": 0.99, "converged": True,
            "final_controlled": ref["final_controlled"] * s,
            "final_uncontrolled": ref["final_uncontrolled"] * s,
            "vtk_files": 4}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_accepts_reference_outputs(name):
    w = workloads.WORKLOADS[name]
    assert workloads.check(w, 0, _good_outputs(w, 0)) == []


def test_check_scales_heat_reference_with_seed():
    w = workloads.WORKLOADS["heat-ah"]
    assert w.seed_value(5) != 1.0
    assert workloads.check(w, 5, _good_outputs(w, 5)) == []
    assert workloads.check(w, 5, _good_outputs(w, 0)) != []


def test_check_fails_perturbed_J():
    w = workloads.WORKLOADS["ns-tg-direct"]
    out = _good_outputs(w, 0)
    out["J"] *= 1 + 10 * w.rtol
    assert any(p.startswith("J =") for p in workloads.check(w, 0, out))


def test_check_fails_nan_norm_on_any_seed():
    w = workloads.WORKLOADS["ns-tg-lsq"]
    out = _good_outputs(w, 0)
    out["final_controlled"] = math.nan
    assert workloads.check(w, 3, out) == ["final_controlled is not finite (nan)"]


def test_check_fails_uncontrolled_ratio_and_unconverged_iteration():
    w = workloads.WORKLOADS["heat-ah"]
    out = _good_outputs(w, 0)
    out["verify_ratio"] = 1.001
    out["converged"] = False
    problems = workloads.check(w, 0, out)
    assert len(problems) == 2


def test_seeds_draw_in_range_and_seed_zero_is_the_preset():
    for w in workloads.WORKLOADS.values():
        assert w.settings_for(0) == w.settings
        lo, hi = w.seed_range
        assert all(lo <= w.seed_value(s) <= hi for s in range(1, 20))
        assert w.seed_value(4) == w.seed_value(4)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_traced_run_on_a_small_heat_problem(tmp_path):
    from nullctrl import cli, pipeline
    untouched = pipeline.arrow_hurwicz
    rec = tracing.Recorder()
    tracing.install(rec)
    argv = ["run", "heat-sec26", "--nx", "5", "--ny", "5", "--nt", "2",
            "--max-iter", "40", "--set", "verify.nx=4", "--set", "verify.ny=4",
            "--set", "verify.nt=4", "--out", str(tmp_path)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert rec.call("cli.run", cli.run, argv) == 0
    finally:
        rec.restore()
    assert pipeline.arrow_hurwicz is untouched
    m = tracing.layer_metrics(rec.spans)
    assert set(m) | {"trace.run_s", "trace.overhead_s"} == set(run.PER_LAYER)
    assert m["saddle.iterations"] == 40
    assert m["saddle.converged_share"] == 0.0
    assert m["forward.steps"] == 8
    assert m["forms.assemble_calls"] == 1
    assert m["fem.eval_points"] > 0 and m["vtkout.bytes"] > 0
    assert m["saddle.bytes_per_iter"] > 8 * m["forms.nnz"]
    layers = tracing.layer_self_times(rec.spans)
    assert sum(layers.values()) == pytest.approx(rec.spans[0].duration)
    assert all(v >= 0 for v in tracing.self_times(rec.spans))


def test_csr_matvec_bytes_counts_values_indices_and_vectors():
    M = sp.csr_matrix(np.eye(3))
    idx = M.indices.itemsize
    assert tracing.csr_matvec_bytes(M) == (3 * (8 + idx) + 4 * M.indptr.itemsize
                                           + 8 * 6)
