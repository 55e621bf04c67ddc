import json
import math
import os

import numpy as np
import pytest

from segreopt.harness import (
    ExperimentConfig,
    config_from_preset,
    expand_grid,
    gen_coherent_factors,
    gen_instance,
    gen_truth,
    load_preset,
    preset_names,
    run_experiment,
)
from segreopt.manifold import incoherence
from segreopt.operators import GaussianDesignOp, IdentityOp
from segreopt.rng import substream


class TestCoherentFactors:
    def test_rho_zero_is_orthonormal(self):
        rng = substream(0, "rotation")
        u = gen_coherent_factors(10, 3, 0.0, rng)
        assert np.allclose(u.T @ u, np.eye(3), atol=1e-10)

    def test_gram_matches_ar1_target(self):
        rng = substream(1, "rotation")
        rho = 0.6
        u = gen_coherent_factors(12, 4, rho, rng)
        idx = np.arange(4)
        target = rho ** np.abs(idx[:, None] - idx[None, :])
        assert np.allclose(u.T @ u, target, atol=1e-10)

    def test_unit_columns(self):
        rng = substream(2, "rotation")
        u = gen_coherent_factors(9, 3, 0.8, rng)
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)

    def test_rank_exceeds_dim(self):
        with pytest.raises(ValueError):
            gen_coherent_factors(2, 3, 0.5, substream(0, "rotation"))


class TestGenInstance:
    def test_noiseless_decompose_matches_truth(self):
        cfg = ExperimentConfig(task="decompose", dims=(6, 5, 4), rank=2, rho=0.0,
                               noise_sd=0.0, seed=3)
        prob = gen_instance(cfg, 0)
        assert isinstance(prob.op, IdentityOp)
        y = prob.y.reshape(cfg.dims)
        assert np.allclose(y, prob.truth.embed(), atol=1e-12)

    def test_deterministic(self):
        cfg = ExperimentConfig(task="decompose", dims=(5, 5, 5), rank=2, rho=0.3,
                               noise_sd=0.7, seed=11)
        a = gen_instance(cfg, 4)
        b = gen_instance(cfg, 4)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.truth.weights, b.truth.weights)

    def test_sample_size_rule_floor(self):
        cfg = ExperimentConfig(task="regress", dims=(30, 30, 30), rank=3, seed=0)
        # arithmetic oracle: floor(2 * 30^1.5 * 3)
        assert cfg.sample_size() == math.floor(2.0 * 30**1.5 * 3)
        assert cfg.sample_size() == 985

    def test_regression_instance_shapes(self):
        cfg = ExperimentConfig(task="regress", dims=(5, 4, 3), rank=2, n_samples=50,
                               noise_sd=0.5, seed=2)
        prob = gen_instance(cfg, 1)
        assert isinstance(prob.op, GaussianDesignOp)
        assert prob.y.shape == (50,)
        assert prob.truth.rank == 2

    def test_noise_toggle_keeps_designs(self):
        base = ExperimentConfig(task="regress", dims=(4, 3, 3), rank=1,
                                n_samples=30, noise_sd=0.0, seed=9)
        noisy = ExperimentConfig(task="regress", dims=(4, 3, 3), rank=1,
                                 n_samples=30, noise_sd=1.0, seed=9)
        a = gen_instance(base, 0)
        b = gen_instance(noisy, 0)
        assert np.array_equal(a.op.designs, b.op.designs)
        assert np.array_equal(a.truth.weights, b.truth.weights)
        assert not np.array_equal(a.y, b.y)

    def test_measured_incoherence_zero_at_rho_zero(self):
        cfg = ExperimentConfig(task="decompose", dims=(8, 8, 8), rank=3, rho=0.0, seed=5)
        _, eta = incoherence(gen_truth(cfg, 0))
        assert eta <= 1e-10

    def test_weight_laws(self):
        cfg = ExperimentConfig(task="decompose", dims=(20, 20, 20), rank=3,
                               weight_law="geometric-kappa", kappa=10.0, seed=1)
        w = gen_truth(cfg, 0).weights
        expected = np.array([2.0 * 10.0 ** ((i - 1) / 2.0) * 20**0.75 * math.sqrt(3)
                             for i in (1, 2, 3)])
        assert np.allclose(sorted(np.abs(w)), sorted(expected), rtol=1e-12)

        cfg2 = ExperimentConfig(task="regress", dims=(20, 20, 20), rank=3,
                                weight_law="geometric-kappa", kappa=10.0, seed=1)
        w2 = gen_truth(cfg2, 0).weights
        expected2 = np.array([2.0 * 10.0 ** ((i - 2) / 2.0) for i in (1, 2, 3)])
        assert np.allclose(sorted(np.abs(w2)), sorted(expected2), rtol=1e-12)

    def test_unif_scaled_ranges(self):
        d = 3
        scale = math.sqrt(d) + 1
        cfg = ExperimentConfig(task="decompose", dims=(16, 16, 16), rank=4, seed=7)
        w = gen_truth(cfg, 0).weights
        lo, hi = scale * 16**0.75, scale * 2 * 16**0.75
        assert np.all((w >= lo) & (w <= hi))
        cfg2 = ExperimentConfig(task="regress", dims=(16, 16, 16), rank=4, seed=7)
        w2 = gen_truth(cfg2, 0).weights
        assert np.all((w2 >= scale * 0.5) & (w2 <= scale * 1.5))


class TestRunExperiment:
    def _smoke_config(self, **kw):
        base = dict(task="decompose", dims=(6, 6, 6), rank=2, rho=0.0,
                    noise_sd=0.2, methods=("rgd", "rgn"), replicates=2,
                    seed=13, max_iters=4, init_refine_sweeps=1)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_single_replicate_zero_iters(self):
        cfg = self._smoke_config(replicates=1, max_iters=0, methods=("rgn",))
        s = run_experiment(cfg)
        agg = s.aggregate()["rgn"]
        assert agg["iter"].size == 1
        t0 = s.traces["rgn"][0].records[0]
        assert agg["rel_fro_err"][0] == pytest.approx(t0.rel_fro_err)

    def test_outputs_written(self, tmp_path):
        cfg = self._smoke_config()
        out = tmp_path / "exp"
        run_experiment(cfg, out)
        files = sorted(os.listdir(out))
        assert "aggregate.csv" in files
        assert "manifest.json" in files
        for method in cfg.methods:
            for rep in range(cfg.replicates):
                assert f"trace_{method}_{rep}.csv" in files
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 13
        assert set(manifest["replicate_seeds"]) == {
            "factors", "rotation", "noise", "designs", "init", "weights"}

    def test_aggregate_is_rms(self):
        cfg = self._smoke_config()
        s = run_experiment(cfg)
        agg = s.aggregate()["rgd"]
        rels = np.array([t.column("rel_fro_err") for t in s.traces["rgd"]])
        assert np.allclose(agg["rel_fro_err"], np.sqrt((rels**2).mean(axis=0)))

    def test_aggregate_pads_short_traces(self):
        cfg = self._smoke_config(task="decompose", noise_sd=0.0, max_iters=30,
                                 methods=("rgn",))
        s = run_experiment(cfg)
        lens = [len(t.records) for t in s.traces["rgn"]]
        agg = s.aggregate()["rgn"]
        assert agg["iter"].size == max(lens)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self._smoke_config()
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, out1)
        run_experiment(cfg, out2)
        assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_regression_smoke(self, tmp_path):
        cfg = ExperimentConfig(task="regress", dims=(5, 4, 3), rank=2, rho=0.5,
                               noise_sd=0.2, n_samples=80, methods=("rgd", "rgn", "als"),
                               replicates=2, seed=21, max_iters=3)
        s = run_experiment(cfg, tmp_path / "r")
        assert set(s.aggregate()) == {"rgd", "rgn", "als"}

    def test_aggregate_invariant_to_replicate_order(self):
        cfg = self._smoke_config(replicates=3)
        s = run_experiment(cfg)
        before = s.aggregate()["rgn"]["rel_fro_err"].copy()
        s.traces["rgn"].reverse()
        after = s.aggregate()["rgn"]["rel_fro_err"]
        assert np.allclose(before, after)

    def test_partial_failure_recorded_and_run_continues(self, monkeypatch, tmp_path):
        import segreopt.harness as hz
        from segreopt.solvers import SolverError

        real = hz._run_method
        def flaky(method, config, problem, init):
            if method == "rgn" and len(calls) == 0:
                calls.append(1)
                raise SolverError("boom", component=1)
            return real(method, config, problem, init)

        calls = []
        monkeypatch.setattr(hz, "_run_method", flaky)
        cfg = self._smoke_config(replicates=2)
        s = hz.run_experiment(cfg, tmp_path / "o")
        assert len(s.failures) == 1
        assert s.failures[0]["replicate"] == 0
        assert s.failures[0]["component"] == 1
        # the other replicate still produced a trace and the aggregate exists
        assert any(t is not None and t.records for t in s.traces["rgn"])
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["failures"][0]["method"] == "rgn"

    def test_non_orthogonal_direction_recorded_as_component_failure(self, monkeypatch):
        # a direction h_k with a part along u_k breaks retract_factored's
        # precondition; the update fails for that component, not the
        # experiment.  Only the first update is skewed, so replicate 1 runs
        # and RGD has not failed on every replicate
        import segreopt.harness as hz
        import segreopt.solvers as solvers

        real = solvers.tangent_parts
        calls = []
        def skewed(x, factors):
            cores, hs = real(x, factors)
            if not calls:
                hs[0][:, -1] += factors[0][:, -1]
            calls.append(True)
            return cores, hs

        monkeypatch.setattr(solvers, "tangent_parts", skewed)
        cfg = self._smoke_config(replicates=2, methods=("rgd", "als"))
        s = hz.run_experiment(cfg)
        assert [(f["method"], f["replicate"], f["component"]) for f in s.failures] == [
            ("rgd", 0, cfg.rank - 1)]
        assert "not unit norm" in s.failures[0]["message"]
        assert len(s.traces["rgd"][0].records) == 1 and len(s.traces["als"][0].records) > 1
        assert len(s.traces["rgd"][1].records) > 1

    def test_divergence_recorded_as_replicate_failure(self, monkeypatch, tmp_path):
        import dataclasses

        import segreopt.harness as hz

        real = hz.gen_instance
        def blown_up(config, replicate=0):
            prob = real(config, replicate)
            return dataclasses.replace(prob, y=1e160 * prob.y) if replicate == 0 else prob

        monkeypatch.setattr(hz, "gen_instance", blown_up)
        cfg = self._smoke_config(replicates=2, init_refine_sweeps=0)
        with np.errstate(over="ignore", invalid="ignore"):
            s = hz.run_experiment(cfg, tmp_path / "o")
        assert [(f["method"], f["replicate"]) for f in s.failures] == [("rgd", 0), ("rgn", 0)]
        assert all("diverged" in f["message"] for f in s.failures)
        for method in cfg.methods:
            assert len(s.traces[method][0].records) == 1
            assert len(s.traces[method][1].records) > 1
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert len(manifest["failures"]) == 2

    def test_initialization_overflow_recorded_as_replicate_failure(self, monkeypatch):
        # the same blown-up replicate, now through a deflation-refined init
        # whose unfolding Grams overflow: every method fails on replicate 0
        import dataclasses

        import segreopt.harness as hz

        real = hz.gen_instance
        def blown_up(config, replicate=0):
            prob = real(config, replicate)
            return dataclasses.replace(prob, y=1e160 * prob.y) if replicate == 0 else prob

        monkeypatch.setattr(hz, "gen_instance", blown_up)
        cfg = self._smoke_config(replicates=2, init_refine_sweeps=1)
        with np.errstate(over="ignore", invalid="ignore"):
            s = hz.run_experiment(cfg)
        assert [(f["method"], f["replicate"]) for f in s.failures] == [("rgd", 0), ("rgn", 0)]
        assert all(f["message"].startswith("initialization failed") for f in s.failures)
        assert len(s.init_errors) == len(s.measured_eta) == 2
        assert math.isnan(s.init_errors[0]) and math.isfinite(s.init_errors[1])
        for method in cfg.methods:
            assert s.traces[method][0] is None
            assert len(s.traces[method][1].records) > 1

    def test_observation_overflow_recorded_as_replicate_failure(self, monkeypatch):
        # replicate 0's noise overflows its observations, so no instance can
        # be built: every method fails on it, with a NaN initial error, and
        # its truth's coherence is still measured
        import dataclasses

        import segreopt.harness as hz

        real = hz.gen_instance
        def noisy(config, replicate=0):
            if replicate == 0:
                config = dataclasses.replace(config, noise_sd=1e308)
            return real(config, replicate)

        monkeypatch.setattr(hz, "gen_instance", noisy)
        cfg = self._smoke_config(replicates=2)
        with np.errstate(over="ignore"):
            s = hz.run_experiment(cfg)
        assert [(f["method"], f["replicate"]) for f in s.failures] == [("rgd", 0), ("rgn", 0)]
        assert all(f["message"] == "initialization failed: observations y contain "
                   "non-finite values" for f in s.failures)
        assert math.isnan(s.init_errors[0]) and math.isfinite(s.init_errors[1])
        assert s.measured_eta[0] == incoherence(gen_truth(cfg, 0))[1]
        for method in cfg.methods:
            assert s.traces[method][0] is None
            assert len(s.traces[method][1].records) > 1

    @pytest.mark.parametrize("sweeps", [0, 1])
    def test_manifest_is_strict_json(self, sweeps, monkeypatch, tmp_path):
        # the blown-up replicate 0 again: its initial error is infinite
        # without refinement and NaN (a failed initialization) with it
        import dataclasses

        import segreopt.harness as hz

        real = hz.gen_instance
        def blown_up(config, replicate=0):
            prob = real(config, replicate)
            return dataclasses.replace(prob, y=1e160 * prob.y) if replicate == 0 else prob

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        monkeypatch.setattr(hz, "gen_instance", blown_up)
        cfg = self._smoke_config(replicates=2, init_refine_sweeps=sweeps)
        with np.errstate(over="ignore", invalid="ignore"):
            s = hz.run_experiment(cfg, tmp_path / "o")
        assert not math.isfinite(s.init_errors[0])
        text = (tmp_path / "o" / "manifest.json").read_text()
        manifest = json.loads(text, parse_constant=reject)
        assert manifest["init_rel_errors"][0] is None
        assert manifest["init_rel_errors"][1] == s.init_errors[1]
        assert manifest["measured_eta"] == s.measured_eta

    def test_all_replicates_failing_raises(self, monkeypatch):
        import segreopt.harness as hz
        from segreopt.solvers import SolverError

        def always_fail(method, config, problem, init):
            raise SolverError("boom")

        monkeypatch.setattr(hz, "_run_method", always_fail)
        cfg = self._smoke_config(replicates=2, methods=("rgn",))
        with pytest.raises(SolverError):
            hz.run_experiment(cfg)

    @pytest.mark.parametrize("overrides", [{"noise_sd": 1e300},
                                           {"noise_sd": 1e160, "init_refine_sweeps": 1}],
                             ids=["diverged-at-start", "failed-initialization"])
    def test_recorded_failures_on_every_replicate_raise_after_writing(self, tmp_path, overrides):
        # a run that diverges at iteration 0 keeps its row-0 record, so a
        # failure counts by its entry in failures, not by an empty trace; a
        # failed initialization raised before too, but wrote no manifest
        from segreopt.solvers import SolverError
        cfg = ExperimentConfig(task="decompose", dims=(4, 4, 4), rank=2, replicates=1,
                               max_iters=3, methods=("rgd", "rgn", "als"), **overrides)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match="method 'rgd' failed on every replicate"):
                run_experiment(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(f["method"] for f in manifest["failures"]) == ["als", "rgd", "rgn"]


class TestCoherentOrdering:
    def test_coherent_decompose_rgn_beats_rgd(self):
        # qualitative ordering of the coherent comparison: the Gauss-Newton
        # curve ends at or below the step-0.2 gradient curve after 30
        # iterations, aggregated over the preset's 20 replicates
        from dataclasses import replace
        cfg = replace(config_from_preset("decompose-coherent"), methods=("rgd", "rgn"))
        s = run_experiment(cfg)
        agg = s.aggregate()
        assert agg["rgn"]["rel_fro_err"][-1] <= agg["rgd"]["rel_fro_err"][-1]


class TestPresets:
    def test_all_presets_parse(self):
        # every bench cell is built, so each passes the construction checks
        for name in preset_names():
            preset = load_preset(name)
            cells = expand_grid(preset)
            assert len(cells) == math.prod(len(v) for v in (preset.get("grid") or {}).values())
            for cfg in cells:
                assert cfg.replicates >= 1

    def test_expected_presets_exist(self):
        names = preset_names()
        for expected in ("decompose-noiseless", "decompose-noisy", "decompose-coherent",
                         "regress-base", "regress-coherent", "smoke-decompose",
                         "smoke-regress", "decompose-robustness", "regress-robustness"):
            assert expected in names

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            load_preset("does-not-exist")

    def test_grid_expansion(self):
        preset = load_preset("decompose-robustness")
        configs = expand_grid(preset)
        assert len(configs) == 9
        combos = {(c.noise_sd, c.rho) for c in configs}
        assert len(combos) == 9

    @pytest.mark.parametrize("field, value", [("n_samples", 0), ("n_samples", -3), ("rank", 0),
                                              ("noise_sd", math.nan), ("noise_sd", -1.0),
                                              ("step_size", 5.0), ("stop_tol", 0.0),
                                              ("pinv_tol", -1.0), ("init_method", "bogus"),
                                              ("task", "decompose"), ("methods", ()),
                                              ("dims", (5,)), ("dims", (0, 3, 3)),
                                              ("rank", 5), ("cpca_split", (0, 3)),
                                              ("cpca_split", (1, 1)), ("cpca_split", (0, 1, 2)),
                                              ("kappa", math.inf), ("kappa", math.nan),
                                              ("rank", "2"), ("rank", 2.5), ("rank", True),
                                              ("noise_sd", "0.1"), ("kappa", False),
                                              ("rho", True), ("gauss_seidel", "no"),
                                              ("gauss_seidel", 1), ("dims", (4, "4", 4)),
                                              ("dims", (4.0, 4, 4)), ("dims", "444"),
                                              ("seed", 1.5), ("replicates", "3"),
                                              ("n_samples", 20.0), ("max_iters", None),
                                              ("init_refine_sweeps", False),
                                              ("methods", ("als", 1)), ("methods", "als"),
                                              ("task", 1), ("weight_law", None),
                                              ("init_method", 2), ("cpca_split", (0, 1.0)),
                                              ("cpca_split", 0), ("step_size", "0.2"),
                                              ("stop_tol", None), ("pinv_tol", "1e-10"),
                                              ("seed", -1),
                                              pytest.param("noise_sd", 10**400, id="noise_sd-huge"),
                                              ("methods", ("als", "als"))])
    def test_out_of_range_config_rejected(self, field, value):
        # checked at construction, before any instance is built; the base
        # config's adjoint-cpca init is out of range for a decompose task,
        # and its step size is checked although only ALS runs; rank 5 does
        # not fit the (16, 4) unfolding of the spectral start.  Each field
        # takes only its own type: integers (numpy's too, not bool), real
        # numbers (not bool) that a float can hold, a bool, strings, and
        # lists of these; a method listed twice once ran twice per replicate
        base = {"task": "regress", "dims": (4, 4, 4), "init_method": "adjoint-cpca",
                "methods": ("als",)}
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{**base, field: value})

    @pytest.mark.parametrize("overrides, message", [
        ({"rank": 6, "rho": 0.0}, "rank 6 exceeds dimension 4"),
        ({"rank": 5, "init_method": "cpca"}, r"rank 5 exceeds the \(16, 4\) unfolding bound"),
    ], ids=["coherent", "cpca"])
    def test_rank_beyond_the_model_rejected(self, overrides, message):
        # a decomposition with a random start has no unfolding bound, but
        # coherent factors and a spectral start each bound the rank
        ExperimentConfig(task="decompose", dims=(4, 4, 4), rank=6)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(task="decompose", dims=(4, 4, 4), **overrides)

    def test_numpy_numbers_accepted(self):
        cfg = ExperimentConfig(task="regress", dims=tuple(np.arange(3, 6)), rank=np.int64(2),
                               noise_sd=np.float64(0.5), kappa=np.float32(2.0),
                               n_samples=np.int32(40), seed=np.uint8(3), replicates=1)
        assert cfg.dims == (3, 4, 5) and gen_instance(cfg, 0).y.shape == (40,)

    def test_numpy_config_writes_strict_json_manifest(self, tmp_path):
        # numpy scalars are stored as Python numbers; once json.dump failed
        # on an int64 after every solve, leaving a truncated manifest
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        cfg = ExperimentConfig(task="decompose", dims=(np.int64(4),) * 3, rank=np.int64(2),
                               noise_sd=np.float32(0.5), replicates=np.int8(1), max_iters=2,
                               methods=("rgn",), cpca_split=[np.int16(0)])
        assert [type(v) for v in (cfg.dims[0], cfg.rank, cfg.noise_sd, cfg.replicates)] == [
            int, int, float, int]
        run_experiment(cfg, tmp_path / "o")
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(),
                              parse_constant=reject)
        assert ExperimentConfig.from_dict(manifest["config"]) == cfg

    def test_values_stored_as_annotated_type(self):
        cfg = ExperimentConfig(task="decompose", dims=[4, 4, 4], noise_sd=1, kappa=2,
                               methods=["rgn"], cpca_split=[0])
        assert (cfg.dims, cfg.methods, cfg.cpca_split) == ((4, 4, 4), ("rgn",), (0,))
        assert type(cfg.noise_sd) is float and type(cfg.kappa) is float
        assert hash(cfg) == hash(ExperimentConfig(task="decompose", dims=(4, 4, 4),
                                                  noise_sd=1.0, kappa=2.0, methods=("rgn",),
                                                  cpca_split=(0,)))

    @pytest.mark.parametrize("task, rank, kappa", [("decompose", 3, 1e300), ("regress", 4, 1e300),
                                                   ("regress", 5, 1e300), ("decompose", 3, 1e153)])
    def test_truth_norm_overflow_rejected(self, task, rank, kappa):
        # ||T||^2 <= (r w_max)^2 must be finite, or scoring the start fails
        with pytest.raises(ValueError, match="kappa"):
            ExperimentConfig(task=task, dims=(4, 4, 4), rank=rank,
                             weight_law="geometric-kappa", kappa=kappa)

    def test_largest_accepted_kappa_runs(self):
        # w_max = 2 kappa sqrt(3) 4^0.75 here, so (3 w_max)^2 is finite just below this kappa
        kappa = 1e152
        cfg = ExperimentConfig(task="decompose", dims=(4, 4, 4), rank=3, noise_sd=0.0,
                               weight_law="geometric-kappa", kappa=kappa, replicates=1,
                               methods=("rgn",), max_iters=2)
        summary = run_experiment(cfg)
        assert math.isfinite(summary.init_errors[0])
        with pytest.raises(ValueError, match="kappa"):
            ExperimentConfig(**{**cfg.to_dict(), "kappa": 10 * kappa})

    def test_to_dict_round_trips(self):
        for name in preset_names():
            for cfg in expand_grid(load_preset(name)):
                assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig.from_dict({"task": "decompose", "bogus": 1})

    def test_retired_design_scale_rejected(self):
        # a design variance sigma^2 is expressed as noise_sd / sigma
        with pytest.raises(ValueError, match="unknown config key\\(s\\): design_scale"):
            ExperimentConfig.from_dict({"task": "regress", "design_scale": 1.0})

    def test_config_override(self):
        cfg = config_from_preset("smoke-decompose", seed=99, replicates=1)
        assert cfg.seed == 99
        assert cfg.replicates == 1

    def test_none_override_applies(self):
        # once dropped, leaving the preset's coherent factors in place
        assert config_from_preset("regress-coherent", rho=None).rho is None
        with pytest.raises(ValueError, match="seed must be an integer, got None"):
            config_from_preset("smoke-decompose", seed=None)
