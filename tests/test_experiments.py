import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from gausstomo import (DomainError, GaussianStateSpec, SchemeKind, SeedSpec, __version__,
                       crb_hom, region_areas)
from gausstomo.core import data_variances
from gausstomo.estimation import _BLOCK_SAMPLES
from gausstomo.cli import main
from gausstomo.experiments import (EXPERIMENTS, ConfigError, _Repeats, _run_trials,
                                   extract_embedded_config, render_table, resolve_config,
                                   run_experiment)

# Homodyne crb-attainment whose lanes split into several fit blocks:
# N = 7000 takes 4 trials a block (4 + 1), N = 17000 > _BLOCK_SAMPLES / 2 one.
SPLIT_CRB = {"experiment": "crb-attainment",
             "spec": {"mu": 2.0, "lambda": 10.0, "eta": 0.5},
             "scheme": "homodyne", "n_values": [7000, 17000], "trials": 5,
             "seed": {"master_seed": 11, "stream_id": 0}}

# sha256 of output bytes, as numpy 2 with OpenBLAS on x86-64 computes them
# (the last bits depend on the BLAS and libm).  A change to the homodyne
# fit or to the Monte Carlo draws that moves a bit of these tables must
# update the digest and say why.
PINNED_SHA256 = {
    # gausstomo fig5 --trials 20 --seed 0
    "fig5": "63bfbc71469f01f38b067b61c4edfe5b38e30d92c6dd3eac75e933cf087c2d36",
    # [seed, exit code, stdout, stderr] of each fig5 --trials 20 --threads 1
    # --seed 0 .. 39, as JSON
    "fig5-benchmark-seeds":
        "43bf5cd3dd46a067078586769f0cb42222b8b178119f3eb88399b449ca2f9852",
    "split-crb": "2c68083ec258f343c9ccbbf83b0844f743c948c41ed55dac1fc50a01ccda012c",
    # SURFACE_GRID in each mode
    "surface-real": "d040addf29b374a51d4f7dae0fc6a611fe2cdd1fd21ca377585408fbe6d52fb0",
    "surface-hypothetical":
        "e12b4de0666ec9dee7bd6285df47beda70a72f29121e4a050b2473c5ca38d500",
    # PINNED_TABLES, one per key: every table writer path in both formats
    "regions-csv": "138b3350ebb1afe32f07924176c4f2f42910a1812bb2a5435d58a33d8198e765",
    "regions-json": "ec7520dfcaccb93a2116ea32cb9779e94290e664eb75309877649b961a4e0c63",
    "lambda-crit": "e4215ca2352b37593613100c7dc14bbcb0bb033f826d49a72be46cab79c1a769",
    "surface-real-json": "04d2e127c5743d397219db653958fc5312466bacbf359b9cb6c44958518bbb24",
    "surface-hypothetical-json":
        "3c49cc4f4d8d81db52b9e7a7e83d7a76ab06983d5656ccb25d5701f000ee6522",
    "simulate-grid-csv": "d361d08d170ba7a11c77104e6d50cec61edb5ef77ac3bb95cf1f6dd1fdd83645",
    "simulate-grid-json": "b0a2c2eecec286eaf27ab1e9aacd82176550b9a309ba8ee39c2f5eff915a6dc0",
    "simulate-sweep-csv": "3ee2fdeed1880f420cc7e034ba5b5bf97ec5f31343dc7d7fb9862e6c99f77734",
    "simulate-sweep-json": "c6a0159b93ffa68214266663a0daf4de398b55da4a8a859cb6d7d53bf13f3d6b",
    "simulate-heterodyne-csv":
        "15bdd15a2f3ac2ab1c12cde892471045673028bf09414e504f01950c07eda0b6",
    "simulate-heterodyne-json":
        "4af2bc91930a503cfeb24ce1e71edc7ab1b09f24383784221891e22c0009074f",
    "crb-heterodyne": "a65194ed0e7736d4931285ded3ee305107df5ae0df24294308071a88d0491d4f",
    # the result and ellipse of `estimate` on each simulate-*-csv table
    "estimate-grid": "e6b39526e5e807bd7eb1bc04f4e51c798e8bd448cc0dfc11bb2f51c17530fb43",
    "estimate-sweep": "6b16dd50bf98d13442dea552600e67aead9fc2ff2bd4f2226e60a960054daf5b",
    "estimate-heterodyne": "1ba015668021f4167b21e660be9d03e456000b6eeb8664f1bafbbe8aee3c0b51",
}

# 80 rows, eta outer: every column but real mode's bounds repeats, and the
# hypothetical bounds repeat with a period of a quarter of the table
SURFACE_GRID = {"lambda": [1.0, 1.7, 3.771, 12.5, 100.0], "mu": [1.0, 1.736, 2.5, 20.0],
                "eta": [0.05, 0.3, 0.7, 1.0]}

_PINNED_STATE = {"mu": 2.0, "lambda": 10.0, "phi": 0.7, "eta": 0.5}
_PINNED_SEED = {"master_seed": 7, "stream_id": 1}
PINNED_TABLES = {
    **{f"regions-{fmt}": {"experiment": "regions", "format": fmt, "spec": _PINNED_STATE,
                          "samples": 90} for fmt in ("csv", "json")},
    "lambda-crit": {"experiment": "lambda-crit", "eta_values": [1.0, 0.8, 0.5, 0.05]},
    **{f"surface-{mode}-json": {"experiment": "surface", "format": "json",
                                "grid": {**SURFACE_GRID, "mode": mode}}
       for mode in ("real", "hypothetical")},
    **{f"simulate-{kind}-{fmt}": {"experiment": "simulate", "format": fmt,
                                  "spec": _PINNED_STATE, "n": 40, "seed": _PINNED_SEED,
                                  **extra}
       for fmt in ("csv", "json")
       for kind, extra in [("grid", {"scheme": "homodyne",
                                     "angle_policy": {"type": "grid", "d": 4}}),
                           ("sweep", {"scheme": "homodyne"}),
                           ("heterodyne", {"scheme": "heterodyne"})]},
    "crb-heterodyne": {"experiment": "crb-attainment", "spec": _PINNED_STATE,
                       "scheme": "heterodyne", "n_values": [10, 1000], "trials": 50,
                       "seed": _PINNED_SEED},
}


# one config per experiment, its keys out of order, and the JSON text of its
# resolution: JSON outputs keep the resolved key order, so that order is
# output bytes
RESOLVED_TEXT = {
    "surface": ({"experiment": "surface",
                 "grid": {"mode": "hypothetical", "mu": [1, 2.5], "lambda": [3]}},
                '{"experiment": "surface", "format": "csv", "grid": {"lambda": [3.0], '
                '"mu": [1.0, 2.5], "eta": [1.0], "mode": "hypothetical"}}'),
    "regions": ({"spec": {"lambda": 2, "mu": 1.5}, "experiment": "regions"},
                '{"experiment": "regions", "format": "csv", "spec": {"mu": 1.5, '
                '"lambda": 2.0, "phi": 0.0, "eta": 1.0}, "samples": 256}'),
    "lambda-crit": ({"eta_values": [1, 0.25], "format": "json", "experiment": "lambda-crit"},
                    '{"experiment": "lambda-crit", "format": "json", "eta_values": [1.0, 0.25]}'),
    "simulate": ({"experiment": "simulate", "n": 5, "scheme": "homodyne",
                  "spec": {"eta": 0.5, "mu": 2, "lambda": 10},
                  "angle_policy": {"d": 4, "type": "grid"}, "output_path": "x.csv"},
                 '{"experiment": "simulate", "format": "csv", "spec": {"mu": 2.0, '
                 '"lambda": 10.0, "phi": 0.0, "eta": 0.5}, "scheme": "homodyne", "n": 5, '
                 '"angle_policy": {"d": 4, "type": "grid"}, '
                 '"seed": {"master_seed": 0, "stream_id": 0}}'),
    "estimate": ({"experiment": "estimate", "eta": 1, "scheme": "heterodyne",
                  "data_path": "x.csv"},
                 '{"experiment": "estimate", "data_path": "x.csv", '
                 '"scheme": "heterodyne", "eta": 1.0}'),
    "crb-attainment": ({"experiment": "crb-attainment", "trials": 3, "n_values": [10],
                        "scheme": "heterodyne", "spec": {"mu": 2, "lambda": 10, "eta": 0.5}},
                       '{"experiment": "crb-attainment", "format": "csv", "spec": {"mu": 2.0, '
                       '"lambda": 10.0, "phi": 0.0, "eta": 0.5}, "scheme": "heterodyne", '
                       '"n_values": [10], "trials": 3, '
                       '"seed": {"master_seed": 0, "stream_id": 0}}'),
    "fig5": ({"experiment": "fig5", "trials": 2},
             '{"experiment": "fig5", "format": "csv", "spec": {"mu": 2.0, "lambda": 10.0, '
             '"phi": 0.0, "eta": 0.5}, "n_values": [50, 100, 150], "trials": 2, '
             '"seed": {"master_seed": 0, "stream_id": 0}}'),
}


# a config for render_table's CSV path
CSV = {"experiment": "surface", "format": "csv"}


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

    def test_integral_seed_float_resolves_to_its_integer(self):
        cfg = resolve_config({"experiment": "fig5", "trials": 1,
                              "seed": {"master_seed": 3.0, "stream_id": 2**64 - 1}})
        assert json.dumps(cfg["seed"]) == '{"master_seed": 3, "stream_id": 18446744073709551615}'

    def test_estimate_has_no_seed(self):
        # a fit draws nothing, so a seed could only make a run fail
        with pytest.raises(ConfigError, match=r"unknown keys in 'estimate': \['seed'\]"):
            resolve_config({"experiment": "estimate", "data_path": "x.csv",
                            "scheme": "homodyne", "eta": 1.0, "seed": {"master_seed": 3}})

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_resolved_json_text(self, experiment):
        config, text = RESOLVED_TEXT[experiment]
        assert json.dumps(resolve_config(config)) == text

    def test_cli_commands_are_the_experiments(self):
        assert list(main.commands) == list(EXPERIMENTS)


class TestRenderAndReplay:
    def test_floats_use_17_significant_digits(self):
        text = render_table(["a"], [[1 / 3]], CSV)
        assert "0.33333333333333331" in text

    # bytes of the writer for every cell type the runners emit, one
    # sequence per column
    PINNED_COLUMNS = [(True, False, True), (3, -7, 0), (-0.0, 0.0, 2.5),
                      (np.float64(0.1), 1 / 3, np.float64("nan")),
                      (math.nan, math.inf, -math.inf), ("real", "hypothetical", "x")]
    PINNED = {
        "csv": textwrap.dedent(f"""\
            # gausstomo {__version__} config {{"experiment":"surface","format":"csv"}}
            flag,count,zero,x,y,label
            true,3,-0,0.10000000000000001,nan,real
            false,-7,0,0.33333333333333331,inf,hypothetical
            true,0,2.5,nan,-inf,x
            """),
        "json": textwrap.dedent(f"""\
            {{
              "version": "{__version__}",
              "config": {{
                "experiment": "surface",
                "format": "json"
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
                            self.PINNED_COLUMNS, {"experiment": "surface", "format": fmt})
        assert text == self.PINNED[fmt]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pinned_bytes_of_declared_repeats(self, fmt):
        # each column's values stored out of order, one of them unused, and
        # looked up through its codes
        columns = [_Repeats([c[2], "unused", c[0], c[1]], [2, 3, 0])
                   for c in self.PINNED_COLUMNS]
        text = render_table(["flag", "count", "zero", "x", "y", "label"],
                            columns, {"experiment": "surface", "format": fmt})
        assert text == self.PINNED[fmt]

    @pytest.mark.parametrize("values, body", [
        ([1, 2.5, True, "s", np.float64(1e-300)], "1\n2.5\ntrue\ns\n1e-300\n"),
        ([False, True], "false\ntrue\n"),
        ([np.float64(-0.0), 1e16, 5e-324], "-0\n10000000000000000\n4.9406564584124654e-324\n"),
        ([], ""),
    ])
    def test_pinned_csv_columns(self, values, body):
        for column in (values, _Repeats(values, range(len(values)))):
            text = render_table(["v"], [column], CSV)
            assert text.split("\n", 2)[2] == body

    @pytest.mark.parametrize("values, codes, body", [
        # a value per code: -0.0 and 0.0 compare equal but print apart
        ([0.0, -0.0, np.float64(-0.0)], [1, 0, 2, 1, 0], "-0\n0\n-0\n-0\n0\n"),
        ([math.nan, np.float64(0.1), math.inf, -math.inf], [0, 3, 0, 1, 2],
         "nan\n-inf\nnan\n0.10000000000000001\ninf\n"),
        ([True, False], [1, 1, 0], "false\nfalse\ntrue\n"),
        (["real"], [0, 0], "real\nreal\n"),
        ([2.5], [], ""),
    ])
    def test_declared_repeats(self, values, codes, body):
        column = _Repeats(values, codes)
        text = render_table(["v"], [column], CSV)
        assert text.split("\n", 2)[2] == body
        rows = json.loads(render_table(["v"], [column],
                                       {"experiment": "surface", "format": "json"}))["rows"]
        cells = [values[code] for code in codes]
        assert json.dumps(rows) == json.dumps([[cell] for cell in cells])

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


class TestPinnedTables:
    @pytest.mark.parametrize("name", sorted(PINNED_TABLES))
    def test_pinned_bytes(self, name):
        assert sha256(run_experiment(PINNED_TABLES[name])[""]) == PINNED_SHA256[name]


class TestColumnFormat:
    @staticmethod
    def per_cell(rows):
        return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)

    def test_repeated_floats_print_like_each_cell(self):
        nan = math.nan
        cycle = [nan, math.inf, -math.inf, np.float64(0.1), 0.1, 1 / 3,
                 np.float64(-2.5), np.float64("nan"), nan]
        repeated = [float("nan") if k % 50 == 7 else cycle[k % len(cycle)]
                    for k in range(1000)]
        zeros = (-0.0, 0.0, np.float64(-0.0), 2.5)
        signed_zeros = [zeros[k % 4] for k in range(1000)]
        mixed = [(repeated, signed_zeros)[k % 2][k] for k in range(1000)]
        distinct = [k / 7 for k in range(1000)]
        rows = list(zip(repeated, signed_zeros, mixed, distinct))
        declared = [_Repeats(cycle + [float("nan")],
                             [len(cycle) if k % 50 == 7 else k % len(cycle)
                              for k in range(1000)]),
                    _Repeats(zeros, [k % 4 for k in range(1000)]), mixed, distinct]
        for columns in ([repeated, signed_zeros, mixed, distinct], declared):
            text = render_table(["a", "b", "c", "d"], columns, CSV)
            assert text.split("\n", 2)[2] == self.per_cell(rows)

    @pytest.mark.parametrize("mode", ["real", "hypothetical"])
    def test_surface_prints_like_each_cell(self, mode):
        text = run_experiment({"experiment": "surface",
                               "grid": {**SURFACE_GRID, "mode": mode}})[""]
        _, rows = rows_of(text)
        floats = [tuple(map(float, row[:6])) for row in rows]
        assert [",".join(row[:6]) + "\n" for row in rows] == \
            self.per_cell(floats).splitlines(keepends=True)


class TestSurface:
    @pytest.mark.parametrize("mode", ["real", "hypothetical"])
    def test_pinned_bytes(self, mode):
        cfg = {"experiment": "surface", "grid": {**SURFACE_GRID, "mode": mode}}
        assert sha256(run_experiment(cfg)[""]) == PINNED_SHA256[f"surface-{mode}"]

    def test_hypothetical_mode_checks_every_eta(self):
        # its bounds are computed at the first eta only, and the others still
        # reject as they did when each had its own block
        cfg = {"experiment": "surface",
               "grid": {"lambda": [1, 2], "mu": [1], "eta": [0.5, 1.5],
                        "mode": "hypothetical"}}
        with pytest.raises(DomainError, match=r"^eta = 1\.5 must lie in \(0, 1\]$"):
            run_experiment(cfg)

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
    def test_simulate_writes_one_table_that_replays(self):
        cfg = {"experiment": "simulate", "spec": {"mu": 2.0, "lambda": 10.0,
                                                  "eta": 0.5},
               "scheme": "heterodyne", "n": 200,
               "seed": {"master_seed": 5, "stream_id": 1}}
        outputs = run_experiment(cfg)
        assert set(outputs) == {""}
        assert run_experiment(extract_embedded_config(outputs[""])) == outputs

    def test_homodyne_table_columns(self):
        cfg = {"experiment": "simulate", "spec": {"mu": 1.0, "lambda": 1.0},
               "scheme": "homodyne", "n": 10,
               "angle_policy": {"type": "grid", "d": 5},
               "seed": {"master_seed": 1, "stream_id": 0}}
        header, rows = rows_of(run_experiment(cfg)[""])
        assert header == ["theta", "x"]
        assert len(rows) == 10

    def test_boundary_fit_has_no_ellipse(self, tmp_path):
        # this record's likelihood peaks on the singular edge det G = 0
        sim = {"experiment": "simulate", "spec": {"mu": 2.0, "lambda": 10.0, "eta": 0.5},
               "scheme": "homodyne", "n": 60, "seed": {"master_seed": 47, "stream_id": 15}}
        data = tmp_path / "samples.csv"
        data.write_text(run_experiment(sim)[""])
        est = {"experiment": "estimate", "data_path": str(data), "scheme": "homodyne",
               "eta": 0.5}
        doc = json.loads(run_experiment(est)[""])
        assert doc["ellipse"] is None
        assert doc["result"]["converged"] is False
        g = doc["result"]["g_effective"]
        assert abs(g["g1"] * g["g2"] - 0.5 * g["g3"] ** 2) <= 1e-12 * g["g1"] * g["g2"]

    def test_round_trip_estimate(self, tmp_path):
        sim = {"experiment": "simulate",
               "spec": {"mu": 2.0, "lambda": 10.0, "eta": 0.5},
               "scheme": "heterodyne", "n": 50_000,
               "seed": {"master_seed": 8, "stream_id": 0}}
        outputs = run_experiment(sim)
        data = tmp_path / "samples.csv"
        data.write_text(outputs[""])
        est = {"experiment": "estimate", "data_path": str(data),
               "scheme": "heterodyne", "eta": 0.5}
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
            est = {"experiment": "estimate", "data_path": str(data),
                   "scheme": scheme, "eta": 0.5}
            doc = json.loads(run_experiment(est)[""])
            fits.append((doc["result"], doc["ellipse"], doc["fingerprint"]))
        assert fits[0] == fits[1]
        assert fits[0][2] == {"n": 2000, "seed": {"master_seed": 8, "stream_id": 0}}

    @pytest.mark.parametrize("kind", ["grid", "sweep", "heterodyne"])
    def test_pinned_estimate_bytes(self, tmp_path, kind):
        # the printed fit and ellipse of a pinned simulate table; the
        # embedded config holds the data path, so it is left out
        sim = PINNED_TABLES[f"simulate-{kind}-csv"]
        data = tmp_path / "samples.csv"
        data.write_text(run_experiment(sim)[""])
        est = {"experiment": "estimate", "data_path": str(data), "scheme": sim["scheme"],
               "eta": sim["spec"]["eta"]}
        doc = json.loads(run_experiment(est)[""])
        assert sha256(json.dumps([doc["result"], doc["ellipse"]])) == \
            PINNED_SHA256[f"estimate-{kind}"]

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
               "scheme": "heterodyne", "eta": 0.5}
        with pytest.raises(ConfigError, match=where):
            run_experiment(est)

    def test_unreadable_data_file_is_config_error(self, tmp_path):
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe1,2\n")
        for path in (tmp_path, binary):
            est = {"experiment": "estimate", "data_path": str(path),
                   "scheme": "heterodyne", "eta": 0.5}
            with pytest.raises(ConfigError, match="cannot read data file"):
                run_experiment(est)

    def test_plain_csv_without_header_is_read(self, tmp_path):
        data = tmp_path / "samples.csv"
        data.write_text("1.0,2.0\n0.5,0.25\n-1.0,0.5\n")
        est = {"experiment": "estimate", "data_path": str(data),
               "scheme": "heterodyne", "eta": 0.5}
        # a file that embeds no config gives no seed
        assert json.loads(run_experiment(est)[""])["fingerprint"] == {"n": 3}

    def test_estimate_missing_file_is_config_error(self):
        est = {"experiment": "estimate", "data_path": "/nonexistent/data.csv",
               "scheme": "heterodyne", "eta": 0.5}
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

    @pytest.mark.parametrize("scheme", ["homodyne", "heterodyne"])
    def test_thread_count_never_changes_results(self, scheme):
        base = {"experiment": "crb-attainment", "spec": {"mu": 2.0, "lambda": 10.0,
                                                         "eta": 0.5},
                "scheme": scheme, "n_values": [200], "trials": 16,
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

    def test_overflowing_newton_step_finishes(self):
        cfg = {"experiment": "crb-attainment",
               "spec": {"mu": 20.0, "lambda": 100.0, "phi": 0.7, "eta": 0.3},
               "scheme": "homodyne", "n_values": [3, 5, 10, 20], "trials": 200,
               "seed": {"master_seed": 1, "stream_id": 0}}
        header, rows = rows_of(run_experiment(cfg)[""])
        ratios = [float(dict(zip(header, row))["ratio"]) for row in rows]
        assert len(ratios) == 4 and all(math.isfinite(r) and r > 0 for r in ratios)

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

    def test_boundary_rows_have_no_ellipse(self):
        # the homodyne N = 50 fits of trials 7 and 16 end on det G = 0
        cfg = {"experiment": "fig5", "trials": 20, "n_values": [50],
               "seed": {"master_seed": 0, "stream_id": 0}}
        header, rows = rows_of(run_experiment(cfg)[""])
        table = [dict(zip(header, r)) for r in rows]
        fit = _run_trials(GaussianStateSpec(2.0, 10.0, eta=0.5), SchemeKind.HOMODYNE, 50,
                          SeedSpec(0), 0, 20, 1)
        assert np.flatnonzero(fit.status == "boundary").tolist() == [7, 16]
        estimates = [r for r in table if r["kind"] == "estimate" and r["scheme"] == "homodyne"]
        for t, r in enumerate(estimates):
            axes = [float(r[key]) for key in ("axis_major", "axis_minor", "orientation")]
            assert all(map(math.isnan, axes)) == (t in (7, 16))
            assert float(r["hs_distance_sq"]) >= 0.0
            assert r["converged"] == ("true" if fit.status[t] == "converged" else "false")

    @pytest.mark.parametrize("lam, phi, axes, orientation", [
        (10.0, 0.3, (math.sqrt(10.0), math.sqrt(0.1)), 0.3 + 0.5 * math.pi),
        (0.1, 0.3, (math.sqrt(10.0), math.sqrt(0.1)), 0.3),
        (10.0, 2.0, (math.sqrt(10.0), math.sqrt(0.1)), 2.0 - 0.5 * math.pi),
        (1.0, 2.0, (1.0, 1.0), 0.0)])
    def test_true_ellipse_is_the_specs(self, lam, phi, axes, orientation):
        cfg = {"experiment": "fig5", "trials": 1, "n_values": [30],
               "spec": {"mu": 2.0, "lambda": lam, "phi": phi, "eta": 0.5}}
        header, rows = rows_of(run_experiment(cfg)[""])
        for r in rows:
            r = dict(zip(header, r))
            if r["kind"] == "true":
                assert (float(r["axis_major"]), float(r["axis_minor"])) == \
                    pytest.approx(axes, rel=1e-15)
                assert float(r["orientation"]) == pytest.approx(orientation, rel=1e-15)

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

    def test_benchmark_seeds_pinned_bytes(self):
        # `gausstomo fig5 --trials 20 --threads 1 --seed S` for the master
        # seeds 0-39 that the benchmark's fig5 workload runs: every one exits
        # 0, now that no minor eigenvalue cancels (ROADMAP 4a) and the fits
        # that drift to det = 0 end on the boundary, without an ellipse
        outcomes, failing = [], []
        for seed in range(40):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    main(["fig5", "--trials", "20", "--threads", "1", "--seed", str(seed)],
                         prog_name="gausstomo")
                    code = 0
                except SystemExit as exc:
                    code = exc.code
            outcomes.append([seed, code, out.getvalue(), err.getvalue()])
            if code:
                failing.append(seed)
        assert failing == []
        assert sha256(json.dumps(outcomes)) == PINNED_SHA256["fig5-benchmark-seeds"]


class TestCli:
    def run_cli(self, *args, input=None, timeout=None):
        # the tier-1 warning policy, which does not reach a subprocess by itself
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-m", "gausstomo.cli", *args],
                              capture_output=True, text=True, input=input, timeout=timeout)

    @pytest.mark.parametrize("experiment, config", [
        ("fig5", {"trials": 2 ** 64 - 1}),
        ("crb-attainment", {"spec": {"mu": 2.0, "lambda": 10.0}, "scheme": "heterodyne",
                            "n_values": [50, 100], "trials": 2 ** 64 - 1}),
        ("crb-attainment", {"spec": {"mu": 2.0, "lambda": 10.0}, "scheme": "homodyne",
                            "n_values": [50], "trials": 2 ** 64 - 5,
                            "seed": {"master_seed": 0, "stream_id": 5}}),
    ])
    def test_trials_past_the_stream_ids_exit_2_before_drawing(self, tmp_path, experiment,
                                                              config):
        # the last lane's last trial would take a stream id past 2^64 - 1;
        # the run fails at once, before it derives or draws a stream per trial
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment, **config}))
        proc = self.run_cli(experiment, "--config", str(cfg), "--threads", "1", timeout=20)
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "domain" and "'stream_id'" in err["message"]
        assert proc.stdout == ""

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
        '{"lambda": [1, 2], "mu": [1], "eta": [0.5, 1.5], "mode": "hypothetical"}',
    ])
    def test_invalid_surface_point_exits_2(self, tmp_path, grid):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"experiment": "surface", "grid": %s}' % grid)
        proc = self.run_cli("surface", "--config", str(cfg), "--out", str(tmp_path / "s.csv"))
        assert proc.returncode == 2
        assert json.loads(proc.stderr.strip())["error"] == "domain"

    @pytest.mark.parametrize("lam", [1e17, 1e-17])
    def test_regions_of_a_rotated_extreme_state_exit_0(self, lam):
        # the rotated heterodyne triple's det, and with it Sigma^2 =
        # det G / v^T G v, cancelled to zero or below here, which exited 3;
        # the eigenframe has no det to cancel
        config = {"experiment": "regions", "samples": 4,
                  "spec": {"mu": 1, "lambda": lam, "phi": 0.3}}
        proc = self.run_cli("regions", "--config", "-", input=json.dumps(config))
        assert proc.returncode == 0 and proc.stderr == ""
        _, rows = rows_of(proc.stdout)
        theta = np.array([float(row[0]) for row in rows])
        e1, e2 = data_variances(1.0, lam, 1.0, SchemeKind.HETERODYNE)
        # the squeezed axis lies at angle -phi
        want = 1.0 / np.sqrt(np.cos(theta + 0.3) ** 2 / e1 + np.sin(theta + 0.3) ** 2 / e2)
        assert [float(row[2]) for row in rows] == pytest.approx(want.tolist(), rel=1e-14)

    @pytest.mark.parametrize("config", [
        {"spec": {"mu": 1e300, "lambda": 1e16, "phi": 1e-300}, "scheme": "homodyne", "n": 4},
        {"spec": {"mu": 2, "lambda": 10, "eta": 5e-324}, "scheme": "homodyne", "n": 2,
         "angle_policy": {"type": "grid", "d": 2}},
        {"spec": {"mu": 276970.97, "lambda": 5e-324, "eta": 5e-324}, "scheme": "heterodyne",
         "n": 4},
    ])
    def test_simulate_whose_samples_are_not_finite_exits_3(self, tmp_path, config):
        # the variances overflow or cancel to inf or nan here; no table is
        # written, and no warning is printed
        out = tmp_path / "samples.csv"
        proc = self.run_cli("simulate", "--config", "-", "--out", str(out),
                            input=json.dumps({"experiment": "simulate", **config}))
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stderr.strip())["error"] == "numerical"
        assert not out.exists()

    def test_regions_of_a_rotated_squeezed_state_exit_0(self, tmp_path):
        # the homodyne triple's det cancels here; sigma needs only u^T G u
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "regions", "samples": 8,
                                   "spec": {"mu": 1, "lambda": 1.37e9, "phi": 0.3, "eta": 1}}))
        proc = self.run_cli("regions", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        _, rows = rows_of(proc.stdout)
        assert len(rows) == 8

    def test_regions_past_the_float_range_finish_without_warnings(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "regions",
                                   "spec": {"mu": 1e300, "lambda": 1, "eta": 1e-300},
                                   "samples": 4}))
        proc = self.run_cli("regions", "--config", str(cfg))
        assert proc.returncode == 0 and proc.stderr == ""
        _, rows = rows_of(proc.stdout)
        assert [row[1] for row in rows] == ["9.9999999999999998e+149"] * 4
        # sqrt(3/2) 1e150; the product of two variances read inf here
        assert [row[2] for row in rows] == ["1.224744871391589e+150"] * 4

    def test_regions_past_the_float_range_of_a_variance_exit_3(self):
        # at eta = 5e-324 sigma^2 reads inf and Sigma^2 nan; this wrote the
        # rows 0,nan,nan and 1.5707963267948966,inf,nan with exit 0
        config = {"experiment": "regions", "samples": 4,
                  "spec": {"mu": 1.0000000000000002, "lambda": 1.0, "phi": 5e-324,
                           "eta": 5e-324}}
        proc = self.run_cli("regions", "--config", "-", input=json.dumps(config))
        assert proc.returncode == 3 and proc.stdout == ""
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "numerical" and "leaves the float range" in err["message"]

    @pytest.mark.parametrize("lam", [1e16, 1e17, 1e-17])
    def test_regions_of_an_extreme_squeezed_state_exit_0(self, tmp_path, lam):
        # v^T G v is formed directly; as Tr G - u^T G u it cancelled to zero
        # on an axis here, which exited 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "regions", "spec": {"mu": 1, "lambda": lam},
                                   "samples": 4}))
        proc = self.run_cli("regions", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        _, rows = rows_of(proc.stdout)
        # on the x and p axes Sigma is the root of the heterodyne data
        # variance there, 1/(2 lam) + 1/2 and lam/2 + 1/2 at eta = 1; the
        # float angles lie off the axes by up to 2e-16
        assert [float(row[2]) for row in rows] == pytest.approx(
            [math.sqrt(0.5 / lam + 0.5), math.sqrt(0.5 * lam + 0.5)] * 2, rel=1e-14)

    def test_surface_beyond_the_float_range_reads_inf(self, tmp_path):
        # every bound here overflows a float, through inf * 0 and inf - inf
        # on the way; gamma stays the finite ratio of the closed forms
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "surface",
                                   "grid": {"lambda": [1e200, 1e300], "mu": [1, 1e100],
                                            "eta": [1e-300, 0.5]}}))
        proc = self.run_cli("surface", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        header, rows = rows_of(proc.stdout)
        assert len(rows) == 8
        for row in rows:
            cells = dict(zip(header, row))
            assert cells["h_hom"] == cells["h_het"] == "inf"
            assert 0.0 < float(cells["gamma"]) < 2.0
        # small eta: the offsets dominate, and gamma is the plateau 6/5
        assert float(dict(zip(header, rows[0]))["gamma"]) == pytest.approx(1.2, rel=1e-12)

    def test_crb_of_a_rotated_squeezed_state(self, tmp_path):
        # the bound is taken from the eigenvalues the spec gives; the triple's
        # g1 g2 - g3^2/2 cancels below zero here, and the run exited 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "crb-attainment", "scheme": "homodyne",
                                   "spec": {"mu": 1.0, "lambda": 1e10, "phi": 0.3},
                                   "n_values": [10], "trials": 2}))
        proc = self.run_cli("crb-attainment", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        header, rows = rows_of(proc.stdout)
        assert float(dict(zip(header, rows[0]))["crb"]) == \
            crb_hom(GaussianStateSpec(1.0, 1e10))

    @pytest.mark.parametrize("spec", [
        {"mu": 1e300, "lambda": 1e10, "eta": 0.5},
        {"mu": 276970.97, "lambda": 5e-324, "eta": 5e-324},
    ], ids=["overflow", "tiny-lambda-and-eta"])
    def test_heterodyne_moments_past_the_float_range_exit_3(self, tmp_path, spec):
        # a drawn moment that is not finite is a numerical failure of the
        # draw, not bad data
        cfg = tmp_path / "crb.json"
        cfg.write_text(json.dumps({"experiment": "crb-attainment", "scheme": "heterodyne",
                                   "spec": spec, "n_values": [50], "trials": 3}))
        proc = self.run_cli("crb-attainment", "--config", str(cfg))
        assert proc.returncode == 3, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "numerical" and "second moments" in err["message"]

    @pytest.mark.parametrize("experiment, config", [
        ("fig5", {"trials": 2, "spec": {"mu": 2, "lambda": 10, "eta": 5e-324}}),
        ("crb-attainment", {"spec": {"mu": 1e300, "lambda": 1e16, "phi": 1e-300},
                            "scheme": "homodyne", "n_values": [4], "trials": 2}),
    ])
    def test_monte_carlo_whose_samples_are_not_finite_exits_3(self, experiment, config):
        # the configs on which simulate exits 3 for the same reason
        proc = self.run_cli(experiment, "--config", "-",
                            input=json.dumps({"experiment": experiment, **config}))
        assert proc.returncode == 3, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "numerical" and "homodyne samples" in err["message"]

    @pytest.mark.parametrize("experiment, config", [
        ("simulate", {"scheme": "heterodyne", "n": 2,
                      "spec": {"mu": 1.7976931348623157e308, "lambda": 0.5, "phi": 3.14159}}),
        ("simulate", {"scheme": "heterodyne", "n": 3,
                      "spec": {"mu": 10, "lambda": 1e-300, "phi": 0.3}}),
        ("crb-attainment", {"scheme": "heterodyne", "n_values": [50], "trials": 1,
                            "spec": {"mu": 513.8182260259639, "lambda": 3.3080437123359715e293,
                                     "phi": 3.14159}}),
        ("fig5", {"n_values": [4], "trials": 2,
                  "spec": {"mu": 3.14159, "lambda": 5.7176291597183525e47, "phi": 3.14159}}),
    ])
    def test_indefinite_heterodyne_triple_finishes(self, experiment, config):
        # the rotated heterodyne triple loses its determinant to rounding, or
        # its g3 overflows, so it had no real Cholesky factor and the run
        # exited 3; the draws take L = R diag(sqrt e) from the eigenframe
        proc = self.run_cli(experiment, "--config", "-",
                            input=json.dumps({"experiment": experiment, **config}))
        assert proc.returncode == 0 and proc.stderr == ""
        header, rows = rows_of(proc.stdout)
        if experiment == "simulate":
            assert header == ["x", "p"] and len(rows) == config["n"]
            assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        elif experiment == "crb-attainment":
            # the bound is past the float range, so the ratio is inf / inf,
            # as at test_homodyne_fit_past_the_float_range_is_quiet
            assert proc.stdout.split("\n", 1)[1] == \
                "N,scheme,mean_N_times_mse,crb,ratio\n50,heterodyne,inf,inf,nan\n"
        else:
            assert len(rows) == 8

    def test_homodyne_fit_past_the_float_range_is_quiet(self):
        # the fit's curvature overflows here; it runs in one floating-point
        # state, so it neither warns nor fails, and the bound past the float
        # range gives the ratio inf / inf
        config = {"experiment": "crb-attainment", "scheme": "homodyne",
                  "spec": {"mu": 2, "lambda": 3.897799141471276e159},
                  "n_values": [150], "trials": 1}
        proc = self.run_cli("crb-attainment", "--config", "-", input=json.dumps(config))
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.split("\n", 1)[1] == \
            "N,scheme,mean_N_times_mse,crb,ratio\n150,homodyne,inf,inf,nan\n"

    @pytest.mark.parametrize("n, code", [(10 ** 9, 0), (2 ** 53 + 1, 3)])
    def test_heterodyne_crb_attainment_at_huge_n(self, tmp_path, n, code):
        # the moments take O(1) memory in n: a billion samples finish, and
        # past 2^53 the draw is refused as a numerical failure
        cfg = tmp_path / "crb.json"
        cfg.write_text(json.dumps({"experiment": "crb-attainment", "scheme": "heterodyne",
                                   "spec": {"mu": 2.0, "lambda": 10.0, "eta": 0.5},
                                   "n_values": [n], "trials": 4}))
        proc = self.run_cli("crb-attainment", "--config", str(cfg))
        assert proc.returncode == code, proc.stderr
        if code == 0:
            header, rows = rows_of(proc.stdout)
            assert math.isfinite(float(dict(zip(header, rows[0]))["ratio"]))
        else:
            assert json.loads(proc.stderr.strip())["error"] == "numerical"

    def test_estimate_nan_row_exits_2(self, tmp_path):
        data = tmp_path / "samples.csv"
        data.write_text("x,p\n1.0,2.0\nnan,1.0\n0.5,0.25\n-1.0,0.5\n")
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"experiment": "estimate", "data_path": str(data),
                                   "scheme": "heterodyne", "eta": 0.5}))
        proc = self.run_cli("estimate", "--config", str(cfg))
        assert proc.returncode == 2
        assert "line 3" in json.loads(proc.stderr.strip())["message"]

    @pytest.mark.parametrize("scheme, x, message", [
        ("homodyne", 0.0, "mean of x^2"),
        ("homodyne", 1e-200, "mean of x^2"),  # squares to 0
        ("homodyne", 1e200, "mean of x^2"),  # squares past the float range
        ("heterodyne", 1e200, "second moments"),
    ])
    def test_estimate_of_degenerate_data_exits_2(self, tmp_path, scheme, x, message):
        # at every angle a zero variance fits, or none that a float holds
        data = tmp_path / "samples.csv"
        data.write_text("a,b\n" + "".join(f"{0.3 * k},{x!r}\n" for k in range(12)))
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"experiment": "estimate", "data_path": str(data),
                                   "scheme": scheme, "eta": 0.5}))
        proc = self.run_cli("estimate", "--config", str(cfg))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "domain" and message in err["message"]

    @pytest.mark.parametrize("scheme, rows, eta, code, error, message", [
        # a singular moment matrix, whose likelihood is unbounded
        ("heterodyne", "0,0\n0,0\n", 0.5, 2, "domain", "positive determinant"),
        # squares that underflow to 0
        ("heterodyne", "5e-324,0\n0,5e-324\n", 0.5, 2, "domain", "positive determinant"),
        # the offset (2 - eta) / (2 eta), or (1 - eta) / eta, overflows
        ("heterodyne", "1.0,2.0\n0.5,0.25\n-1.0,0.5\n", 5e-324, 3, "numerical", "not finite"),
        ("homodyne", "0,1\n1,0.5\n2,-0.3\n0.5,2\n", 5e-324, 3, "numerical", "not finite"),
    ], ids=["zeros", "subnormals", "heterodyne-tiny-eta", "homodyne-tiny-eta"])
    def test_estimate_writes_no_non_finite_number(self, tmp_path, scheme, rows, eta, code,
                                                  error, message):
        data = tmp_path / "samples.csv"
        data.write_text("a,b\n" + rows)
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"experiment": "estimate", "data_path": str(data),
                                   "scheme": scheme, "eta": eta}))
        proc = self.run_cli("estimate", "--config", str(cfg))
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        err = json.loads(proc.stderr.strip())
        assert err["error"] == error and message in err["message"]

    @pytest.mark.parametrize("eta, error, message", [
        (0.5, "domain", "3 distinct angles"),
        (1.5, "config", "'eta' must lie in (0, 1]"),
    ])
    def test_estimate_of_two_angle_data_exits_2_at_any_eta(self, tmp_path, eta, error,
                                                           message):
        data = tmp_path / "samples.csv"
        data.write_text("theta,x\n" + "".join(f"{k % 2},{0.1 * k + 0.1}\n" for k in range(12)))
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"experiment": "estimate", "data_path": str(data),
                                   "scheme": "homodyne", "eta": eta}))
        proc = self.run_cli("estimate", "--config", str(cfg))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err["error"] == error and message in err["message"]

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

    @pytest.mark.parametrize("config, flag, key", [
        ({"experiment": "regions", "spec": 5}, ("--mu", "2"), "spec"),
        ({"experiment": "regions", "spec": [["mu", 1]]}, ("--lambda", "2"), "spec"),
        ({"experiment": "fig5", "trials": 1, "seed": "abc"}, ("--seed", "3"), "seed"),
    ])
    def test_flag_on_a_non_object_exits_2(self, tmp_path, config, flag, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        proc = self.run_cli(config["experiment"], "--config", str(cfg), *flag)
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "config" and f"'{key}'" in err["message"]

    def test_grid_beyond_int64_finishes(self, tmp_path):
        cfg = tmp_path / "sim.json"
        d = 10 ** 30
        cfg.write_text(json.dumps({"experiment": "simulate", "spec": {"mu": 1.0, "lambda": 1.0},
                                   "scheme": "homodyne", "n": 4,
                                   "angle_policy": {"type": "grid", "d": d}}))
        out = tmp_path / "samples.csv"
        proc = self.run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        header, rows = rows_of(out.read_text())
        assert [float(row[0]) for row in rows] == [math.pi * j / d for j in range(4)]

    def test_simulate_writes_one_table_to_stdout_or_a_path(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"experiment": "simulate",
                                   "spec": {"mu": 1.0, "lambda": 1.0},
                                   "scheme": "heterodyne", "n": 5,
                                   "seed": {"master_seed": 0, "stream_id": 0}}))
        printed = self.run_cli("simulate", "--config", str(cfg))
        assert printed.returncode == 0, printed.stderr
        out = tmp_path / "samples.csv"
        proc = self.run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text() == printed.stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == ["samples.csv", "sim.json"]

    def test_eta_flag_sets_the_eta_of_estimate(self, tmp_path):
        data = tmp_path / "samples.csv"
        data.write_text("x,p\n1.0,2.0\n0.5,0.25\n-1.0,0.5\n")
        cfg = {"data_path": str(data), "scheme": "heterodyne", "eta": 0.5}
        proc = self.run_cli("estimate", "--config", "-", "--eta", "0.25",
                            input=json.dumps(cfg))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["config"]["eta"] == 0.25

    def test_spec_flag_sets_one_key_of_the_default_spec(self):
        proc = self.run_cli("fig5", "--trials", "1", "--eta", "0.7")
        assert proc.returncode == 0, proc.stderr
        assert extract_embedded_config(proc.stdout)["spec"] == \
            {"mu": 2.0, "lambda": 10.0, "phi": 0.0, "eta": 0.7}

    def test_seed_flag_keeps_the_other_seed_keys(self):
        # a misspelled stream_id is still rejected with the flag
        cfg = {"trials": 1, "seed": {"master_seed": 1, "stream": 5}}
        proc = self.run_cli("fig5", "--config", "-", "--seed", "3", input=json.dumps(cfg))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "config" and "'seed'" in err["message"]

    @pytest.mark.parametrize("args", [
        ("surface", "--mu", "2"), ("fig5", "--threads", "abc"), ("teleport",),
        ("--bogus",), ("fig5", "--format", "xml"), ("regions", "extra")],
        ids=["absent-flag", "bad-value", "unknown-command", "unknown-group-option",
             "bad-choice", "extra-argument"])
    def test_usage_error_is_a_json_config_error(self, args):
        proc = self.run_cli(*args)
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "config" and err["message"]

    def test_help_and_version_print_as_click_does(self):
        for args in (("--help",), ("fig5", "--help")):
            proc = self.run_cli(*args)
            assert proc.returncode == 0 and proc.stdout.startswith("Usage:")
        proc = self.run_cli("--version")
        assert proc.returncode == 0 and __version__ in proc.stdout
        # a bare invocation shows the help, on whichever stream and with
        # whichever exit code the installed click uses
        proc = self.run_cli()
        assert "Commands:" in proc.stdout + proc.stderr and not proc.stderr.startswith("{")

    def test_in_process_main_exits_like_the_command(self, tmp_path):
        out = tmp_path / "crit.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta_values": [0.5]}))
        # success returns, or exits 0
        try:
            main(["lambda-crit", "--config", str(cfg), "--out", str(out)],
                 prog_name="gausstomo")
        except SystemExit as exc:
            assert exc.code in (0, None)
        assert out.exists()
        for argv in (["lambda-crit", "--mu", "2"], ["lambda-crit", "--config", str(tmp_path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv, prog_name="gausstomo")
            assert exc.value.code == 2

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

    # a config per command, small enough to run in-process, and two valid
    # values of each flag
    FLAG_BASES = {
        "surface": {"grid": {"lambda": [1.0, 10.0], "mu": [1.0, 3.0], "eta": [0.5, 1.0]}},
        "regions": {"spec": {"mu": 2.0, "lambda": 10.0}, "samples": 8},
        "lambda-crit": {"eta_values": [0.5, 1.0]},
        "simulate": {"spec": {"mu": 2.0, "lambda": 10.0}, "scheme": "homodyne", "n": 8},
        "estimate": {"scheme": "heterodyne", "eta": 0.5},
        "crb-attainment": {"spec": {"mu": 2.0, "lambda": 10.0}, "scheme": "heterodyne",
                           "n_values": [10], "trials": 4},
        "fig5": {"n_values": [20], "trials": 2},
    }
    FLAG_VALUES = {"--format": ("csv", "json"), "--mu": ("1.5", "3"), "--lambda": ("2", "5"),
                   "--eta": ("0.5", "0.8"), "--n": ("8", "9"), "--trials": ("2", "3"),
                   "--seed": ("1", "2")}

    @pytest.mark.parametrize("command", list(EXPERIMENTS))
    def test_every_flag_changes_the_output(self, tmp_path, command):
        # a flag whose two values print the same rows sets a key that no
        # runner reads; the embedded config is left out of the comparison
        def body(text):
            if text.startswith("# gausstomo "):
                return text.split("\n", 1)[1]
            return {k: v for k, v in json.loads(text).items() if k != "config"}

        config = {"experiment": command, **self.FLAG_BASES[command]}
        if command == "estimate":
            config["data_path"] = str(tmp_path / "samples.csv")
            (tmp_path / "samples.csv").write_text("x,p\n1.0,2.0\n0.5,0.25\n-1.0,0.5\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        flags = [opt for param in main.commands[command].params for opt in param.opts
                 if opt not in ("--config", "--out", "--threads")]
        assert flags
        for flag in flags:
            outputs = []
            for value in self.FLAG_VALUES[flag]:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        main([command, "--config", str(cfg), flag, value],
                             prog_name="gausstomo")
                    except SystemExit as exc:
                        assert exc.code in (0, None), (flag, value, err.getvalue())
                outputs.append(body(out.getvalue()))
            assert outputs[0] != outputs[1], flag

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "missing", "not-json"])
    def test_unreadable_config_exits_2(self, tmp_path, kind):
        cfg = tmp_path if kind == "directory" else tmp_path / "cfg.json"
        if kind == "not-utf8":
            cfg.write_bytes(b'{"experiment": "lambda-crit", "eta_values": [0.5], '
                            b'"note": "\xff"}')
        elif kind == "not-json":
            cfg.write_text('{"eta_values": [0.5]')
        proc = self.run_cli("lambda-crit", "--config", str(cfg))
        assert proc.returncode == 2
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "config" and str(cfg) in err["message"]

    def test_unwritable_out_exits_2(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        for out in (tmp_path, blocker / "x.csv"):
            proc = self.run_cli("lambda-crit", "--out", str(out),
                                "--config", "-", input='{"eta_values": [0.5]}')
            assert proc.returncode == 2, proc.stderr
            err = json.loads(proc.stderr.strip())
            assert err["error"] == "config" and str(out) in err["message"]
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("experiment, config, key", [
        *(("fig5", {"trials": 1, "seed": seed}, key) for seed, key in (
            ({"master_seed": None}, "master_seed"),
            ({"master_seed": "abc"}, "master_seed"),
            ({"master_seed": [1]}, "master_seed"),
            ({"master_seed": 1.5}, "master_seed"),
            ({"master_seed": True}, "master_seed"),
            ({"master_seed": math.inf}, "master_seed"),
            ({"master_seed": 0, "stream_id": "1"}, "stream_id"))),
        *(("regions", {"spec": {"lambda": 2.0, **spec}}, key) for spec, key in (
            ({"mu": None}, "mu"),
            ({"mu": "x"}, "mu"),
            ({"mu": 2.0, "phi": [0]}, "phi"),
            ({"mu": "2"}, "mu"),
            ({"mu": True}, "mu"))),
        ("estimate", {"data_path": "x.csv", "scheme": "heterodyne", "eta": True},
         "eta"),
        # seed ids out of range, and a spec without a required key
        *(("fig5", {"trials": 1, "seed": seed}, key) for seed, key in (
            ({"master_seed": -1}, "master_seed"),
            ({"master_seed": 2**64}, "master_seed"),
            ({"master_seed": 0, "stream_id": 2**64}, "stream_id"))),
        ("regions", {"spec": {"lambda": 2.0}}, "mu"),
    ])
    def test_config_value_of_the_wrong_type_exits_2(self, tmp_path, experiment, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment, **config}))
        proc = self.run_cli(experiment, "--config", str(cfg))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "config" and f"'{key}'" in err["message"]

    @pytest.mark.parametrize("experiment, config", [
        ("simulate", {"spec": {"mu": 2.0, "lambda": 10.0}, "scheme": "homodyne",
                      "n": 10**15}),
        ("regions", {"spec": {"mu": 2.0, "lambda": 10.0}, "samples": 10**17}),
    ])
    def test_config_too_large_to_allocate_exits_2(self, tmp_path, experiment, config):
        # each fails at its first allocation, before any work is done
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment, **config}))
        proc = self.run_cli(experiment, "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "config" and "Unable to allocate" in err["message"]
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_non_positive_threads_exit_2(self, threads):
        proc = self.run_cli("regions", "--mu", "1.0", "--lambda", "2.0",
                            "--threads", threads)
        assert proc.returncode == 2
        err = json.loads(proc.stderr.strip())
        assert err == {"error": "config",
                       "message": f"threads must be a positive integer, got {threads}"}

    @pytest.mark.parametrize("experiment, config, column", [
        ("fig5", {"spec": {"mu": 2.0, "lambda": 10.0, "eta": 1e-300}}, "hs_distance_sq"),
        ("crb-attainment", {"spec": {"mu": 2.0, "lambda": 10.0, "eta": 1e-300},
                            "scheme": "homodyne"}, "mean_N_times_mse"),
        ("crb-attainment", {"spec": {"mu": 1.0, "lambda": 1e200, "eta": 0.5},
                            "scheme": "homodyne"}, "mean_N_times_mse"),
    ])
    def test_distance_that_overflows_is_inf(self, tmp_path, experiment, config, column):
        # a squared component of the HS distance leaves the float range
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment, "n_values": [20],
                                   "trials": 2, **config}))
        proc = self.run_cli(experiment, "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        header, rows = rows_of(proc.stdout)
        cells = [dict(zip(header, row)) for row in rows]
        if experiment == "fig5":
            cells = [c for c in cells if c["kind"] == "aggregate"]
        assert "inf" in {c[column] for c in cells}

    @pytest.mark.parametrize("text", [
        '# gausstomo 0.1.0 config {"seed": \nx,p\n1.0,2.0\n0.5,0.25\n-1.0,0.5\n',
        '# gausstomo 0.1.0 config [{"seed": 1}]\nx,p\n1.0,2.0\n0.5,0.25\n-1.0,0.5\n',
        '# gausstomo 0.1.0 {"seed": 1}\nx,p\n1.0,2.0\n0.5,0.25\n-1.0,0.5\n',
        '{"config": [{"seed": 1}], "rows": [[1.0, 2.0], [0.5, 0.25], [-1.0, 0.5]]}',
    ], ids=["not-json", "not-an-object", "no-config", "json-not-an-object"])
    def test_bad_embedded_config_exits_2(self, tmp_path, text):
        # the fingerprint's seed is read from the config a data file embeds
        data = tmp_path / "samples.csv"
        data.write_text(text)
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"experiment": "estimate", "data_path": str(data),
                                   "scheme": "heterodyne", "eta": 0.5}))
        proc = self.run_cli("estimate", "--config", str(cfg))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "config" and str(data) in err["message"]

    @pytest.mark.parametrize("experiment, config, key", [
        *((name, {**RESOLVED_TEXT[name][0], "seed": {"master_seed": 0}}, "seed")
          for name in ("surface", "regions", "lambda-crit")),
        ("estimate", {**RESOLVED_TEXT["estimate"][0], "format": "json"}, "format"),
    ])
    def test_deleted_key_exits_2(self, experiment, config, key):
        # such as the embedded config of an output written before the key went
        proc = self.run_cli(experiment, "--config", "-", input=json.dumps(config))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err == {"error": "config",
                       "message": f"unknown keys in '{experiment}': ['{key}']"}
