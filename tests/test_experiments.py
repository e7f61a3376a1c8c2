import hashlib
import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from gausstomo import DomainError, GaussianStateSpec, __version__, crb_hom, region_areas
from gausstomo.estimation import _BLOCK_SAMPLES
from gausstomo.cli import main
from gausstomo.experiments import (EXPERIMENTS, ConfigError, _Repeats,
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
    "fig5": "ac9682ad6745a1b1c16240c7ac14af94f43533903bfa29444365d450cd046a78",
    "split-crb": "2b9a27097e7c415142aa867511382afca6007ef72c2985b5cf2372f3dfd33fb9",
    # SURFACE_GRID in each mode
    "surface-real": "cd4fe9b566b025dc0372f61b2fed93c9af8307fe55f1b74b94ba6a23a7ccd081",
    "surface-hypothetical":
        "19bde8210a0c876ac8d075c95937ad681d613459ac961e17e5475623d7fb3c9c",
    # PINNED_TABLES, one per key: every table writer path in both formats
    "regions-csv": "1718d715f8155830d65c20580715a0ff422abfdf19b6742890eaf2d428853eb5",
    "regions-json": "4545f3f06170ee8c20ee65a74e34fa69d8de8bca0f13a9bb4d66596eb5385686",
    "lambda-crit": "9bc3f936d975fd486e01ed1c776881a33f31086bd44ccf2d45e217fa818212a8",
    "surface-real-json": "f1cda041bfc601320b024dfc8a18374af594fa71eebdf0c77229b5b1af0ee92d",
    "surface-hypothetical-json":
        "4551fdade7d9d2f56ccb0d64c3e781d2412ca8d994ce8d9ed40f345fbee52e16",
    "simulate-grid-csv": "e767c61f6a999025c00d7cbd5be5d19fcc19de2a8fb3e19419bd1c36e2c6c2cc",
    "simulate-grid-json": "068131db343edc0c3f305c153469c52ab2353cf136f3686c07e3b84d18977aa7",
    "simulate-sweep-csv": "7cdd25ed4151322516ce894330265b88b309ea2d8a4ff82ef1717e4602acda22",
    "simulate-sweep-json": "f45aa299c1bd6e38d9de45436726a3ad5e97ce81efdad4384172ddb962d2f710",
    "simulate-heterodyne-csv":
        "7971ad779269c165b1fe7adca8f8bbe98e52ba7d82e4199ac444b17ac5e2f8fc",
    "simulate-heterodyne-json":
        "51de541e34f925bd2fc2509fdd3b83340e0c26e02c40b943766bc4d9b39eaef7",
    "crb-heterodyne": "47b1c44d17e3515fcf05f538a14dc87223db5bf4f9fb6aafab9adf3ae59011aa",
    # the result and ellipse of `estimate` on each simulate-*-csv table
    "estimate-grid": "a20ddf95920c6f827248a2601266a6218a12af67195e60e73820a70ffc229541",
    "estimate-sweep": "65c469b64cb51abd3e3e3e1306e58697f129ad28bfa6dc6236ed7ece55d606ca",
    "estimate-heterodyne": "2f808d61141ef61b92ac2b9b96192da08c63c07a7f1f0c68b114a4169cce1c9f",
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
    "surface": ({"experiment": "surface", "seed": {"stream_id": 2, "master_seed": 1},
                 "grid": {"mode": "hypothetical", "mu": [1, 2.5], "lambda": [3]}},
                '{"experiment": "surface", "format": "csv", "grid": {"lambda": [3.0], '
                '"mu": [1.0, 2.5], "eta": [1.0], "mode": "hypothetical"}, '
                '"seed": {"master_seed": 1, "stream_id": 2}}'),
    "regions": ({"spec": {"lambda": 2, "mu": 1.5}, "experiment": "regions"},
                '{"experiment": "regions", "format": "csv", "spec": {"mu": 1.5, '
                '"lambda": 2.0, "phi": 0.0, "eta": 1.0}, "samples": 256, '
                '"seed": {"master_seed": 0, "stream_id": 0}}'),
    "lambda-crit": ({"eta_values": [1, 0.25], "format": "json", "experiment": "lambda-crit"},
                    '{"experiment": "lambda-crit", "format": "json", "eta_values": [1.0, 0.25], '
                    '"seed": {"master_seed": 0, "stream_id": 0}}'),
    "simulate": ({"experiment": "simulate", "n": 5, "scheme": "homodyne",
                  "spec": {"eta": 0.5, "mu": 2, "lambda": 10},
                  "angle_policy": {"d": 4, "type": "grid"}, "output_path": "x.csv"},
                 '{"experiment": "simulate", "format": "csv", "spec": {"mu": 2.0, '
                 '"lambda": 10.0, "phi": 0.0, "eta": 0.5}, "scheme": "homodyne", "n": 5, '
                 '"angle_policy": {"d": 4, "type": "grid"}, '
                 '"seed": {"master_seed": 0, "stream_id": 0}}'),
    "estimate": ({"experiment": "estimate", "format": "json", "eta": 1, "scheme": "heterodyne",
                  "data_path": "x.csv", "seed": {"master_seed": 3}},
                 '{"experiment": "estimate", "format": "json", "data_path": "x.csv", '
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
        cfg = resolve_config({"experiment": "lambda-crit", "eta_values": [0.5],
                              "seed": {"master_seed": 3.0, "stream_id": 2**64 - 1}})
        assert json.dumps(cfg["seed"]) == '{"master_seed": 3, "stream_id": 18446744073709551615}'

    def test_estimate_requires_json_format(self):
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "estimate", "data_path": "x.csv",
                            "scheme": "homodyne", "eta": 1.0, "format": "csv"})

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_resolved_json_text(self, experiment):
        config, text = RESOLVED_TEXT[experiment]
        assert json.dumps(resolve_config(config)) == text

    def test_cli_commands_are_the_experiments(self):
        assert list(main.commands) == list(EXPERIMENTS)


class TestRenderAndReplay:
    def test_floats_use_17_significant_digits(self):
        cfg = {"experiment": "surface"}
        text = render_table(["a"], [[1 / 3]], cfg, "csv")
        assert "0.33333333333333331" in text

    # bytes of the writer for every cell type the runners emit, one
    # sequence per column
    PINNED_COLUMNS = [(True, False, True), (3, -7, 0), (-0.0, 0.0, 2.5),
                      (np.float64(0.1), 1 / 3, np.float64("nan")),
                      (math.nan, math.inf, -math.inf), ("real", "hypothetical", "x")]
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
                            self.PINNED_COLUMNS, {"experiment": "surface"}, fmt)
        assert text == self.PINNED[fmt]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pinned_bytes_of_declared_repeats(self, fmt):
        # each column's values stored out of order, one of them unused, and
        # looked up through its codes
        columns = [_Repeats([c[2], "unused", c[0], c[1]], [2, 3, 0])
                   for c in self.PINNED_COLUMNS]
        text = render_table(["flag", "count", "zero", "x", "y", "label"],
                            columns, {"experiment": "surface"}, fmt)
        assert text == self.PINNED[fmt]

    @pytest.mark.parametrize("values, body", [
        ([1, 2.5, True, "s", np.float64(1e-300)], "1\n2.5\ntrue\ns\n1e-300\n"),
        ([False, True], "false\ntrue\n"),
        ([np.float64(-0.0), 1e16, 5e-324], "-0\n10000000000000000\n4.9406564584124654e-324\n"),
        ([], ""),
    ])
    def test_pinned_csv_columns(self, values, body):
        for column in (values, _Repeats(values, range(len(values)))):
            text = render_table(["v"], [column], {"experiment": "surface"}, "csv")
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
        text = render_table(["v"], [column], {"experiment": "surface"}, "csv")
        assert text.split("\n", 2)[2] == body
        rows = json.loads(render_table(["v"], [column], {"experiment": "surface"},
                                       "json"))["rows"]
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
            text = render_table(["a", "b", "c", "d"], columns, {"experiment": "surface"},
                                "csv")
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

    @pytest.mark.parametrize("kind", ["grid", "sweep", "heterodyne"])
    def test_pinned_estimate_bytes(self, tmp_path, kind):
        # the printed fit and ellipse of a pinned simulate table; the
        # embedded config holds the data path, so it is left out
        sim = PINNED_TABLES[f"simulate-{kind}-csv"]
        data = tmp_path / "samples.csv"
        data.write_text(run_experiment(sim)[""])
        est = {"experiment": "estimate", "data_path": str(data), "scheme": sim["scheme"],
               "eta": sim["spec"]["eta"], "format": "json"}
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
    def run_cli(self, *args, input=None):
        # the tier-1 warning policy, which does not reach a subprocess by itself
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-m", "gausstomo.cli", *args],
                              capture_output=True, text=True, input=input)

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
    def test_regions_whose_variance_cancels_exit_3(self, tmp_path, lam):
        # v^T G v, formed as Tr G - u^T G u, cancels to zero on an axis here
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "regions", "spec": {"mu": 1, "lambda": lam},
                                   "samples": 4}))
        proc = self.run_cli("regions", "--config", str(cfg))
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stderr.strip())["error"] == "numerical"

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

    def test_heterodyne_moments_past_the_float_range_exit_2(self, tmp_path):
        cfg = tmp_path / "crb.json"
        cfg.write_text(json.dumps({"experiment": "crb-attainment", "scheme": "heterodyne",
                                   "spec": {"mu": 1e300, "lambda": 1e10, "eta": 0.5},
                                   "n_values": [50], "trials": 3}))
        proc = self.run_cli("crb-attainment", "--config", str(cfg))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "domain" and "second moments" in err["message"]

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
                                   "scheme": "heterodyne", "eta": 0.5, "format": "json"}))
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
                                   "scheme": scheme, "eta": 0.5, "format": "json"}))
        proc = self.run_cli("estimate", "--config", str(cfg))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "domain" and message in err["message"]

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
                                   "scheme": "homodyne", "eta": eta, "format": "json"}))
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
        ({"experiment": "lambda-crit", "eta_values": [0.5], "seed": "abc"},
         ("--seed", "3"), "seed"),
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

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, kind):
        if kind == "directory":
            cfg = tmp_path
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_bytes(b'{"experiment": "lambda-crit", "eta_values": [0.5], '
                            b'"note": "\xff"}')
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
        *(("lambda-crit", {"eta_values": [0.5], "seed": seed}, key) for seed, key in (
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
        ("estimate", {"data_path": "x.csv", "scheme": "heterodyne", "eta": True,
                      "format": "json"}, "eta"),
        # seed ids out of range, and a spec without a required key
        *(("lambda-crit", {"eta_values": [0.5], "seed": seed}, key) for seed, key in (
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

    @pytest.mark.parametrize("kind", ["not-json", "not-an-object", "directory", "not-utf8"])
    def test_bad_sidecar_exits_2(self, tmp_path, kind):
        data = tmp_path / "samples.csv"
        data.write_text("x,p\n1.0,2.0\n0.5,0.25\n-1.0,0.5\n")
        sidecar = tmp_path / "samples.csv.meta.json"
        if kind == "not-json":
            sidecar.write_text('{"seed": ')
        elif kind == "not-an-object":
            sidecar.write_text('[{"seed": 1}]')
        elif kind == "directory":
            sidecar.mkdir()
        else:
            sidecar.write_bytes(b'{"seed": "\xff"}')
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"experiment": "estimate", "data_path": str(data),
                                   "scheme": "heterodyne", "eta": 0.5, "format": "json"}))
        proc = self.run_cli("estimate", "--config", str(cfg))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "config" and str(sidecar) in err["message"]
