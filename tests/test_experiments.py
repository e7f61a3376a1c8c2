import hashlib
import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from gausstomo import DomainError, GaussianStateSpec, __version__, region_areas
from gausstomo.estimation import _BLOCK_SAMPLES
from gausstomo.experiments import (ConfigError, extract_embedded_config,
                                   render_table, resolve_config, run_experiment)

# Homodyne crb-attainment whose lanes split into several fit blocks:
# N = 7000 takes 4 trials a block (4 + 1), N = 17000 > _BLOCK_SAMPLES / 2 one.
SPLIT_CRB = {"experiment": "crb-attainment",
             "spec": {"mu": 2.0, "lambda": 10.0, "eta": 0.5},
             "scheme": "homodyne", "n_values": [7000, 17000], "trials": 5,
             "seed": {"master_seed": 11, "stream_id": 0}}

# sha256 of output bytes, as numpy 2 with OpenBLAS on x86-64 computes them
# (the last bits depend on the BLAS and libm).  A change to the homodyne
# fit that moves a bit of these tables must update the digest and say why.
PINNED_SHA256 = {
    # gausstomo fig5 --trials 20 --seed 0
    "fig5": "d6cce4985d6521c428584396f2f66c09782a76f914d58c154a5ece64c70105a3",
    "split-crb": "ec724679e62ef702d09056124938e9f3e7cb858889dabe09f3d6fc4a5ebc1fef",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows_of(csv_text):
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestConfigResolution:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"experiment": "regions",
                            "spec": {"mu": 1, "lambda": 1}, "bogus": 1})
        assert "bogus" in str(err.value)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "teleport"})

    def test_missing_required_field(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"experiment": "simulate",
                            "spec": {"mu": 1, "lambda": 1}, "n": 10})
        assert "scheme" in str(err.value)

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "regions",
                            "spec": {"mu": 1, "lambda": 1, "xi": 2}})

    def test_invalid_physical_parameters_are_config_errors(self):
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "regions", "spec": {"mu": 0.2, "lambda": 1}})

    def test_resolution_is_idempotent(self):
        cfg = resolve_config({"experiment": "fig5", "trials": 3})
        assert resolve_config(cfg) == cfg

    def test_defaults_filled(self):
        cfg = resolve_config({"experiment": "fig5", "trials": 2})
        assert cfg["spec"] == {"mu": 2.0, "lambda": 10.0, "phi": 0.0, "eta": 0.5}
        assert cfg["n_values"] == [50, 100, 150]
        assert cfg["seed"] == {"master_seed": 0, "stream_id": 0}
        assert cfg["format"] == "csv"

    def test_estimate_requires_json_format(self):
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "estimate", "data_path": "x.csv",
                            "scheme": "homodyne", "eta": 1.0, "format": "csv"})


class TestRenderAndReplay:
    def test_floats_use_17_significant_digits(self):
        cfg = {"experiment": "surface"}
        text = render_table(["a"], [(1 / 3,)], cfg, "csv")
        assert "0.33333333333333331" in text

    # bytes of the writer for every cell type the runners emit
    PINNED_ROWS = [(True, 3, -0.0, np.float64(0.1), math.nan, "real"),
                   (False, -7, 0.0, 1 / 3, math.inf, "hypothetical"),
                   (True, 0, 2.5, np.float64("nan"), -math.inf, "x")]
    PINNED = {
        "csv": textwrap.dedent(f"""\
            # gausstomo {__version__} config {{"experiment":"surface"}}
            flag,count,zero,x,y,label
            true,3,-0,0.10000000000000001,nan,real
            false,-7,0,0.33333333333333331,inf,hypothetical
            true,0,2.5,nan,-inf,x
            """),
        "json": textwrap.dedent(f"""\
            {{
              "version": "{__version__}",
              "config": {{
                "experiment": "surface"
              }},
              "columns": [
                "flag",
                "count",
                "zero",
                "x",
                "y",
                "label"
              ],
              "rows": [
                [
                  true,
                  3,
                  -0.0,
                  0.1,
                  NaN,
                  "real"
                ],
                [
                  false,
                  -7,
                  0.0,
                  0.3333333333333333,
                  Infinity,
                  "hypothetical"
                ],
                [
                  true,
                  0,
                  2.5,
                  NaN,
                  -Infinity,
                  "x"
                ]
              ]
            }}
            """),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pinned_bytes(self, fmt):
        text = render_table(["flag", "count", "zero", "x", "y", "label"],
                            self.PINNED_ROWS, {"experiment": "surface"}, fmt)
        assert text == self.PINNED[fmt]

    @pytest.mark.parametrize("values, body", [
        ([1, 2.5, True, "s", np.float64(1e-300)], "1\n2.5\ntrue\ns\n1e-300\n"),
        ([False, True], "false\ntrue\n"),
        ([np.float64(-0.0), 1e16, 5e-324], "-0\n10000000000000000\n4.9406564584124654e-324\n"),
        ([], ""),
    ])
    def test_pinned_csv_columns(self, values, body):
        text = render_table(["v"], [(v,) for v in values], {"experiment": "surface"}, "csv")
        assert text.split("\n", 2)[2] == body

    def test_embedded_config_round_trip(self):
        cfg = resolve_config({"experiment": "regions",
                              "spec": {"mu": 1.0, "lambda": 2.0}, "samples": 8})
        out = run_experiment(cfg)[""]
        assert extract_embedded_config(out) == cfg
        assert f"# gausstomo {__version__}" in out.splitlines()[0]

    def test_json_envelope_round_trip(self):
        cfg = resolve_config({"experiment": "regions", "format": "json",
                              "spec": {"mu": 1.0, "lambda": 2.0}, "samples": 8})
        out = run_experiment(cfg)[""]
        assert extract_embedded_config(out) == cfg
        doc = json.loads(out)
        assert doc["columns"] == ["theta", "sigma", "Sigma"]

    def test_rerun_from_embedded_config_is_byte_identical(self):
        cfg = {"experiment": "crb-attainment", "spec": {"mu": 1.0, "lambda": 2.0},
               "scheme": "heterodyne", "n_values": [30], "trials": 5,
               "seed": {"master_seed": 3, "stream_id": 0}}
        first = run_experiment(cfg)[""]
        second = run_experiment(extract_embedded_config(first))[""]
        assert first == second


class TestSurface:
    def test_hypothetical_floor_row(self):
        cfg = {"experiment": "surface",
               "grid": {"lambda": [1.0, 2.0], "mu": [1.0], "eta": 1.0,
                        "mode": "hypothetical"}}
        header, rows = rows_of(run_experiment(cfg)[""])
        assert header == ["lambda", "mu", "eta", "h_hom", "h_het", "gamma", "mode"]
        first = dict(zip(header, rows[0]))
        assert float(first["gamma"]) == pytest.approx(0.3, rel=1e-12)
        assert first["mode"] == "hypothetical"

    def test_real_mode_coherent_state_ratio(self):
        cfg = {"experiment": "surface",
               "grid": {"lambda": [1.0], "mu": [1.0], "eta": [1.0], "mode": "real"}}
        header, rows = rows_of(run_experiment(cfg)[""])
        row = dict(zip(header, rows[0]))
        assert float(row["gamma"]) == pytest.approx(1.2, rel=1e-12)
        assert float(row["h_het"]) - float(row["h_hom"]) == pytest.approx(1.0, rel=1e-12)

    def test_low_efficiency_tends_toward_six_fifths(self):
        cfg = {"experiment": "surface",
               "grid": {"lambda": [1000.0], "mu": [1000.0], "eta": [1e-3],
                        "mode": "real"}}
        header, rows = rows_of(run_experiment(cfg)[""])
        gamma = float(dict(zip(header, rows[0]))["gamma"])
        # frozen from the closed forms; sits between the large-lambda limit 1
        # and the small-eta plateau 6/5
        assert gamma == pytest.approx(0.91531, abs=1e-2)


class TestRegionsAndLambdaCrit:
    def test_circular_q_boundary(self):
        cfg = {"experiment": "regions", "spec": {"mu": 1.0, "lambda": 1.0},
               "samples": 16}
        header, rows = rows_of(run_experiment(cfg)[""])
        assert header == ["theta", "sigma", "Sigma"]
        for row in rows:
            assert float(row[2]) == pytest.approx(1.0, rel=1e-12)

    def test_lambda_crit_table(self):
        cfg = {"experiment": "lambda-crit", "eta_values": [1.0, 0.8]}
        header, rows = rows_of(run_experiment(cfg)[""])
        assert header == ["eta", "lambda_crit"]
        assert float(rows[0][1]) == pytest.approx(0.18959, abs=1e-4)
        assert float(rows[1][1]) == pytest.approx(0.149, abs=2e-3)


class TestSimulateAndEstimate:
    def test_simulate_writes_sidecar_and_replays(self, tmp_path):
        cfg = {"experiment": "simulate", "spec": {"mu": 2.0, "lambda": 10.0,
                                                  "eta": 0.5},
               "scheme": "heterodyne", "n": 200,
               "seed": {"master_seed": 5, "stream_id": 1}}
        outputs = run_experiment(cfg)
        assert set(outputs) == {"", ".meta.json"}
        meta = json.loads(outputs[".meta.json"])
        assert meta["n"] == 200 and meta["scheme"] == "heterodyne"
        assert outputs[""] == run_experiment(cfg)[""]

    def test_homodyne_table_columns(self):
        cfg = {"experiment": "simulate", "spec": {"mu": 1.0, "lambda": 1.0},
               "scheme": "homodyne", "n": 10,
               "angle_policy": {"type": "grid", "d": 5},
               "seed": {"master_seed": 1, "stream_id": 0}}
        header, rows = rows_of(run_experiment(cfg)[""])
        assert header == ["theta", "x"]
        assert len(rows) == 10

    def test_round_trip_estimate(self, tmp_path):
        sim = {"experiment": "simulate",
               "spec": {"mu": 2.0, "lambda": 10.0, "eta": 0.5},
               "scheme": "heterodyne", "n": 50_000,
               "seed": {"master_seed": 8, "stream_id": 0}}
        outputs = run_experiment(sim)
        data = tmp_path / "samples.csv"
        data.write_text(outputs[""])
        (tmp_path / "samples.csv.meta.json").write_text(outputs[".meta.json"])
        est = {"experiment": "estimate", "data_path": str(data),
               "scheme": "heterodyne", "eta": 0.5, "format": "json"}
        doc = json.loads(run_experiment(est)[""])
        g = doc["result"]["g_wigner"]
        assert g["g1"] == pytest.approx(0.1, abs=0.05)
        assert g["g2"] == pytest.approx(10.0, abs=0.4)
        assert doc["fingerprint"]["seed"] == {"master_seed": 8, "stream_id": 0}
        assert doc["result"]["converged"] is True

    @pytest.mark.parametrize("scheme", ["heterodyne", "homodyne"])
    def test_json_samples_fit_like_csv_samples(self, tmp_path, scheme):
        fits = []
        for fmt in ("csv", "json"):
            sim = {"experiment": "simulate", "format": fmt,
                   "spec": {"mu": 2.0, "lambda": 10.0, "eta": 0.5},
                   "scheme": scheme, "n": 2000,
                   "seed": {"master_seed": 8, "stream_id": 0}}
            outputs = run_experiment(sim)
            data = tmp_path / f"samples.{fmt}"
            data.write_text(outputs[""])
            (tmp_path / f"samples.{fmt}.meta.json").write_text(outputs[".meta.json"])
            est = {"experiment": "estimate", "data_path": str(data),
                   "scheme": scheme, "eta": 0.5, "format": "json"}
            doc = json.loads(run_experiment(est)[""])
            fits.append((doc["result"], doc["ellipse"], doc["fingerprint"]))
        assert fits[0] == fits[1]
        assert fits[0][2] == {"n": 2000, "seed": {"master_seed": 8, "stream_id": 0}}

    @pytest.mark.parametrize("text, where", [
        ("x,p\n1.0,2.0\nnan,1.0\n0.5,0.25\n-1.0,0.5\n", "line 3"),
        ("# c\nx,p\n1.0,2.0\ninf,1.0\n", "line 4"),
        ("x,p\n1.0,2.0\nx,p\n", "line 3"),
        ("x,p\n1.0,2.0\n1.0,2.0,3.0\n", "line 3"),
        ("nan,1.0\n1.0,2.0\n", "line 1"),
        ('{"rows": [[1.0, 2.0], [NaN, 1.0]]}', "row 2"),
        ('{"rows": [[1.0, 2.0], [true, 1.0]]}', "row 2"),
        ('{"rows": [[1.0, 2.0], [null, 1.0]]}', "row 2"),
    ], ids=["nan", "inf-after-comment", "second-header", "three-columns",
            "nan-first-line", "json-nan", "json-true", "json-null"])
    def test_bad_data_rows_are_config_errors(self, tmp_path, text, where):
        data = tmp_path / "samples.csv"
        data.write_text(text)
        est = {"experiment": "estimate", "data_path": str(data),
               "scheme": "heterodyne", "eta": 0.5, "format": "json"}
        with pytest.raises(ConfigError, match=where):
            run_experiment(est)

    def test_unreadable_data_file_is_config_error(self, tmp_path):
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe1,2\n")
        for path in (tmp_path, binary):
            est = {"experiment": "estimate", "data_path": str(path),
                   "scheme": "heterodyne", "eta": 0.5, "format": "json"}
            with pytest.raises(ConfigError, match="cannot read data file"):
                run_experiment(est)

    def test_plain_csv_without_header_is_read(self, tmp_path):
        data = tmp_path / "samples.csv"
        data.write_text("1.0,2.0\n0.5,0.25\n-1.0,0.5\n")
        est = {"experiment": "estimate", "data_path": str(data),
               "scheme": "heterodyne", "eta": 0.5, "format": "json"}
        assert json.loads(run_experiment(est)[""])["fingerprint"]["n"] == 3

    def test_estimate_missing_file_is_config_error(self):
        est = {"experiment": "estimate", "data_path": "/nonexistent/data.csv",
               "scheme": "heterodyne", "eta": 0.5, "format": "json"}
        with pytest.raises(ConfigError):
            run_experiment(est)


class TestCrbAttainment:
    def test_columns_and_ratio(self):
        cfg = {"experiment": "crb-attainment", "spec": {"mu": 1.0, "lambda": 1.0},
               "scheme": "heterodyne", "n_values": [500], "trials": 80,
               "seed": {"master_seed": 2, "stream_id": 0}}
        header, rows = rows_of(run_experiment(cfg)[""])
        assert header == ["N", "scheme", "mean_N_times_mse", "crb", "ratio"]
        row = dict(zip(header, rows[0]))
        assert float(row["crb"]) == pytest.approx(6.0, rel=1e-12)
        assert float(row["ratio"]) == pytest.approx(1.0, abs=0.35)
        assert float(row["ratio"]) >= 0.9  # the bound can only be undershot by noise

    def test_thread_count_never_changes_results(self):
        base = {"experiment": "crb-attainment", "spec": {"mu": 2.0, "lambda": 10.0,
                                                         "eta": 0.5},
                "scheme": "homodyne", "n_values": [200], "trials": 16,
                "seed": {"master_seed": 4, "stream_id": 0}}
        single = run_experiment(base, threads=1)[""]
        pooled = run_experiment(base, threads=8)[""]
        assert single == pooled

    def test_split_blocks_never_change_bytes(self):
        assert 7000 < _BLOCK_SAMPLES < 2 * 17000
        outputs = {threads: run_experiment(SPLIT_CRB, threads=threads)[""]
                   for threads in (1, 2, 3)}
        assert outputs[1] == outputs[2] == outputs[3]
        assert sha256(outputs[1]) == PINNED_SHA256["split-crb"]

    def test_threads_key_is_not_a_config_field(self):
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "fig5", "trials": 1, "threads": 4})

    def test_output_path_accepted_but_not_embedded(self):
        cfg = {"experiment": "fig5", "trials": 1, "output_path": "a.csv"}
        resolved = resolve_config(cfg)
        assert "output_path" not in resolved
        out = run_experiment(cfg)[""]
        assert "output_path" not in extract_embedded_config(out)
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "fig5", "trials": 1, "output_path": 3})


class TestFig5:
    def test_truth_rows_and_ordering(self):
        cfg = {"experiment": "fig5", "trials": 40,
               "seed": {"master_seed": 6, "stream_id": 0}}
        header, rows = rows_of(run_experiment(cfg)[""])
        table = [dict(zip(header, r)) for r in rows]
        truth = [r for r in table if r["kind"] == "true"]
        assert len(truth) == 6  # 3 sizes x 2 schemes
        for r in truth:
            assert float(r["axis_major"]) == pytest.approx(math.sqrt(10), rel=1e-12)
            assert float(r["axis_minor"]) == pytest.approx(math.sqrt(0.1), rel=1e-12)
        agg = {(r["scheme"], int(r["n"])): float(r["hs_distance_sq"])
               for r in table if r["kind"] == "aggregate"}
        for n in (50, 100, 150):
            assert agg[("heterodyne", n)] < agg[("homodyne", n)]

    def test_representative_trial_flagged(self):
        cfg = {"experiment": "fig5", "trials": 3, "n_values": [40],
               "seed": {"master_seed": 7, "stream_id": 0}}
        header, rows = rows_of(run_experiment(cfg)[""])
        reps = [r for r in rows if dict(zip(header, r))["representative"] == "true"]
        assert len(reps) == 2  # one per scheme

    @pytest.mark.parametrize("master_seed", range(6))
    def test_thread_count_never_changes_bytes(self, master_seed):
        # a seed whose run fails must fail with the same message at both counts
        cfg = {"experiment": "fig5", "trials": 20,
               "seed": {"master_seed": master_seed, "stream_id": 0}}
        outcomes = []
        for threads in (1, 4):
            try:
                outcomes.append(run_experiment(cfg, threads=threads)[""])
            except DomainError as exc:
                outcomes.append(f"DomainError: {exc}")
        assert outcomes[0] == outcomes[1]

    def test_pinned_bytes(self):
        cfg = {"experiment": "fig5", "trials": 20,
               "seed": {"master_seed": 0, "stream_id": 0}}
        assert sha256(run_experiment(cfg)[""]) == PINNED_SHA256["fig5"]


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "gausstomo.cli", *args],
                              capture_output=True, text=True)

    def test_stdout_run(self):
        proc = self.run_cli("lambda-crit", "--config", "/dev/stdin")
        assert proc.returncode == 2  # empty config lacks eta_values

    def test_surface_to_file_and_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "surface",
                                   "grid": {"lambda": [1.0], "mu": [1.0],
                                            "eta": [1.0], "mode": "real"}}))
        out = tmp_path / "surface.csv"
        proc = self.run_cli("surface", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        header, rows = rows_of(out.read_text())
        assert float(dict(zip(header, rows[0]))["gamma"]) == pytest.approx(1.2)

    def test_config_error_exit_code_and_json_stderr(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": "surface", "grid": {}}))
        proc = self.run_cli("surface", "--config", str(cfg))
        assert proc.returncode == 2
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "config"

    @pytest.mark.parametrize("grid", [
        '{"lambda": [1.0, 2.0], "mu": [1.0, 0.5], "eta": [1.0]}',
        '{"lambda": [1.0, -1], "mu": [1.0], "eta": [1.0]}',
        '{"lambda": [1.0], "mu": [1.0], "eta": [1.0, 0]}',
        '{"lambda": [NaN], "mu": [1.0], "eta": [1.0], "mode": "hypothetical"}',
    ])
    def test_invalid_surface_point_exits_2(self, tmp_path, grid):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"experiment": "surface", "grid": %s}' % grid)
        proc = self.run_cli("surface", "--config", str(cfg), "--out", str(tmp_path / "s.csv"))
        assert proc.returncode == 2
        assert json.loads(proc.stderr.strip())["error"] == "domain"

    def test_estimate_nan_row_exits_2(self, tmp_path):
        data = tmp_path / "samples.csv"
        data.write_text("x,p\n1.0,2.0\nnan,1.0\n0.5,0.25\n-1.0,0.5\n")
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"experiment": "estimate", "data_path": str(data),
                                   "scheme": "heterodyne", "eta": 0.5, "format": "json"}))
        proc = self.run_cli("estimate", "--config", str(cfg))
        assert proc.returncode == 2
        assert "line 3" in json.loads(proc.stderr.strip())["message"]

    def test_non_string_output_path_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "lambda-crit", "eta_values": [1.0],
                                   "output_path": 3}))
        proc = self.run_cli("lambda-crit", "--config", str(cfg))
        assert proc.returncode == 2
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "config" and "output_path" in err["message"]

    def test_lambda_crit_at_tiny_efficiency(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "lambda-crit", "eta_values": [1e-6]}))
        proc = self.run_cli("lambda-crit", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        header, rows = rows_of(proc.stdout)
        lam = float(dict(zip(header, rows[0]))["lambda_crit"])
        assert lam == pytest.approx(1.667e-7, rel=1e-3)
        areas = region_areas(GaussianStateSpec(1.0, lam, eta=1e-6))
        assert areas.s_sigma == pytest.approx(areas.s_Sigma, rel=1e-10)

    def test_mismatched_experiment_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "fig5", "trials": 1}))
        proc = self.run_cli("surface", "--config", str(cfg))
        assert proc.returncode == 2

    def test_flag_overrides_reach_the_spec(self, tmp_path):
        out = tmp_path / "regions.csv"
        proc = self.run_cli("regions", "--mu", "1.0", "--lambda", "1.0",
                            "--eta", "1.0", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        cfg = extract_embedded_config(out.read_text())
        assert cfg["spec"]["lambda"] == 1.0

    def test_simulate_requires_real_output_path(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"experiment": "simulate",
                                   "spec": {"mu": 1.0, "lambda": 1.0},
                                   "scheme": "heterodyne", "n": 5,
                                   "seed": {"master_seed": 0, "stream_id": 0}}))
        proc = self.run_cli("simulate", "--config", str(cfg))
        assert proc.returncode == 2
        out = tmp_path / "samples.csv"
        proc = self.run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.exists() and (tmp_path / "samples.csv.meta.json").exists()

    def test_seed_flag_changes_samples_deterministically(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"experiment": "simulate",
                                   "spec": {"mu": 1.0, "lambda": 1.0},
                                   "scheme": "heterodyne", "n": 5}))
        outs = []
        for seed, name in ((1, "a.csv"), (1, "b.csv"), (2, "c.csv")):
            path = tmp_path / name
            proc = self.run_cli("simulate", "--config", str(cfg), "--seed",
                                str(seed), "--out", str(path))
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_text())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]
