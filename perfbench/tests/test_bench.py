import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from segreopt import harness

import bench
from bench import METHODS, Measurement, SolverRun, check_run, iters_to_tol, summary
from tracing import Tracer, patched


def test_iters_to_tol_on_a_hand_made_trace():
    errors = [1.0, 0.5, 0.2, 0.25, 0.1]
    assert iters_to_tol(errors, 0.2) == 2
    assert iters_to_tol(errors, 0.19) == 4
    assert iters_to_tol(errors, 1.0) == 0
    assert iters_to_tol(errors, 0.05) is None


def test_summary_reports_the_percentile_with_ten_samples_above():
    s = summary([float(x) for x in range(22)])
    assert s["n"] == 22 and s["median"] == 10.5
    assert s["percentile_value"] == 11.0 and s["percentile"] == pytest.approx(54.5)
    assert "percentile" not in summary([1.0] * 10)


def _run(*rows, error=None):
    return SolverRun(1.0, list(rows), error)


def test_check_run():
    ref = {"rel_fro_err": 0.1, "max_comp_err": 0.2}
    ok = _run((0, 0.8, 0.9, 1.0), (1, 0.104, 0.2, 0.5))
    assert check_run(ok, ref, 0.0) is None
    assert "rel_fro_err" in check_run(_run((0, 0.8, 0.9, 1.0), (1, 0.106, 0.2, 0.5)), ref, 0.0)
    assert "max_comp_err" in check_run(_run((0, 0.8, 0.9, 1.0), (1, 0.1, 0.3, 0.5)), ref, 0.0)
    assert "non-finite" in check_run(_run((0, 0.8, 0.9, 1.0), (1, math.nan, 0.2, 0.5)), ref, 0.0)
    assert "SolverError" in check_run(_run((0, 0.8, 0.9, 1.0), error="boom"), ref, 0.0)
    # without a record: noiseless runs must reach the tolerance, noisy runs
    # must end below their initial error
    assert check_run(_run((0, 1.0, 1.0, 1.0), (1, 1e-15, 1e-15, 0.0)), None, 1e-10) is None
    assert "tolerance" in check_run(_run((0, 1.0, 1.0, 1.0), (1, 1e-9, 1e-15, 0.0)), None, 1e-10)
    assert check_run(ok, None, 0.0) is None
    assert "initial" in check_run(_run((0, 0.8, 0.9, 1.0), (1, 0.8, 0.2, 0.5)), None, 0.0)


@pytest.mark.parametrize("gauss_seidel, expected", [
    (False, {"rgn": 9, "rgd": 3, "als": 7}),   # r + d*r + 1, 3, d*r + 1 at r=2, d=3
    (True, {"rgn": 11, "rgd": 5, "als": 7}),   # 2r + d*r + 1, 2r + 1
])
def test_design_passes_on_smoke_regress(gauss_seidel, expected):
    cfg = replace(harness.config_from_preset("smoke-regress"), methods=METHODS,
                  gauss_seidel=gauss_seidel)
    tracer = Tracer()
    with patched(tracer):
        inst = bench.run_instance(cfg, 0, tracer)
    m = Measurement(instances=[inst], traced_instances=[inst], tracer=tracer)
    layers = bench.per_layer(m)
    for method, passes in expected.items():
        assert layers[f"{method}.operators.design_passes_per_iter"]["value"] == passes
        assert layers[f"{method}.operators.design_gb_per_iter"]["value"] == pytest.approx(
            passes * inst.design_bytes / 1e9)


def test_no_design_passes_on_decomposition():
    cfg = replace(harness.config_from_preset("smoke-decompose"), methods=METHODS)
    tracer = Tracer()
    with patched(tracer):
        inst = bench.run_instance(cfg, 0, tracer)
    m = Measurement(instances=[inst], traced_instances=[inst], tracer=tracer)
    layers = bench.per_layer(m)
    for method in METHODS:
        assert layers[f"{method}.operators.design_passes_per_iter"]["value"] == 0
    assert layers["als.tensor.khatri_rao.calls"]["value"] == 3


@pytest.mark.parametrize("cfg", [
    harness.config_from_preset("smoke-regress"),
    harness.config_from_preset("smoke-decompose"),
    bench.workload_config("decompose-noiseless"),
    bench.workload_config("regress-coherent"),
], ids=["smoke-regress", "smoke-decompose", "decompose-noiseless", "regress-coherent"])
def test_loop_matches_run_experiment(cfg):
    cfg = replace(cfg, methods=METHODS)
    assert bench.parity_check(cfg, bench.run_instance(cfg, 0)) is None


def test_parity_check_detects_a_different_trace():
    cfg = replace(harness.config_from_preset("smoke-decompose"), methods=METHODS)
    inst = bench.run_instance(cfg, 0)
    inst.runs["rgd"].rows[-1] = inst.runs["rgd"].rows[-1][:3] + (0.0,)
    assert "rgd" in bench.parity_check(cfg, inst)


def test_every_replicate_of_the_preset_seed_has_a_record():
    refs = json.loads((Path(bench.__file__).parent / "reference.json").read_text())["workloads"]
    for workload in bench.CALIBRATION:
        cfg = bench.workload_config(workload)
        block = refs[workload][str(cfg.seed)]
        assert sorted(block, key=int) == [str(r) for r in range(cfg.replicates)]
        assert all(set(rec) == set(METHODS) for rec in block.values())
