"""The benchmark's output check on its calibration replicates, as a test.

``perfbench/reference.json`` records the final errors of every method on every
replicate of each benchmarked preset's own seed.  A benchmark run starts with
the first few of those replicates and fails when a final ``rel_fro_err`` or
``max_comp_err`` exceeds 1.05 times its record (on the noiseless workload,
when it is above 1e-10 as well), or when a solve fails.  This runs the same
replicates through ``run_experiment`` and applies the same check, so a change
that would fail the benchmark on them fails here first.  A run then adds
replicates of other seeds, which have no record; on a noisy workload each
must end finite and below its initial error, which is checked here on
regress-base RGN for two such seeds.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from segreopt.harness import config_from_preset, run_experiment

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
METHODS = ("rgn", "rgd", "als")
SLACK = 1.05
NOISELESS_TOL = 1e-10
# workload -> calibration replicates of one benchmark run
CALIBRATION = {"regress-base": 1, "decompose-noiseless": 5, "regress-coherent": 5}


@pytest.mark.parametrize("workload", sorted(CALIBRATION))
def test_calibration_replicates_meet_the_reference(workload):
    cfg = replace(config_from_preset(workload), methods=METHODS,
                  replicates=CALIBRATION[workload])
    records = json.loads(REFERENCE.read_text())["workloads"][workload][str(cfg.seed)]
    floor = NOISELESS_TOL if cfg.noise_sd == 0 else 0.0
    summary = run_experiment(cfg)
    assert summary.failures == []
    misses = []
    for method in METHODS:
        for rep, trace in enumerate(summary.traces[method]):
            final = trace.records[-1]
            for key in ("rel_fro_err", "max_comp_err"):
                record = records[str(rep)][method][key]
                value = getattr(final, key)
                if not value <= max(SLACK * record, floor):
                    misses.append(f"{method} replicate {rep}: {key} {value:.6e} "
                                  f"against the record {record:.6e}")
    assert not misses, "; ".join(misses)


@pytest.mark.parametrize("seed", [1, 424242])
def test_unrecorded_regress_base_replicate_ends_below_its_start(seed):
    cfg = replace(config_from_preset("regress-base"), methods=("rgn",), replicates=1, seed=seed)
    summary = run_experiment(cfg)
    assert summary.failures == []
    records = summary.traces["rgn"][0].records
    final = records[-1]
    assert all(math.isfinite(v) for v in (final.rel_fro_err, final.max_comp_err, final.residual))
    assert final.rel_fro_err < records[0].rel_fro_err
