"""Each correctness check passes the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gausstomo.experiments import run_experiment  # noqa: E402

STATE = dict(workloads.STATE)
MU, LAM, ETA = STATE["mu"], STATE["lambda"], STATE["eta"]


def table(cfg: dict) -> str:
    return run_experiment(cfg)[""]


def edit(text: str, change) -> str:
    """Re-render a CSV table after change(row_index, fields) edits its rows."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[2:]]
    for i, row in enumerate(rows):
        change(i, row)
    return "\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n"


# ---------------------------------------------------------------- fig5

FIG5_TRIALS = 4


@pytest.fixture(scope="module")
def fig5_table():
    return table({"experiment": "fig5", "trials": FIG5_TRIALS,
                  "seed": {"master_seed": 0, "stream_id": 0}})


def check_fig5(text):
    return checks.check_fig5(text, MU, LAM, ETA, workloads.FIG5_N, FIG5_TRIALS, 0)


def test_fig5_accepts_program_output(fig5_table):
    assert check_fig5(fig5_table) == []


def test_fig5_rejects_offset_shifted_by_half(fig5_table):
    def shift(i, row):
        if row[2] == "estimate":
            row[4] = repr(math.sqrt(float(row[4]) ** 2 + 0.5))
            row[5] = repr(math.sqrt(float(row[5]) ** 2 + 0.5))
    assert any("hs_distance_sq" in e for e in check_fig5(edit(fig5_table, shift)))


def test_fig5_rejects_aggregate_that_is_not_the_mean(fig5_table):
    def bump(i, row):
        if row[2] == "aggregate" and row[1] == "heterodyne":
            row[7] = repr(float(row[7]) * (1.0 + 1e-9))
    assert any("aggregate" in e for e in check_fig5(edit(fig5_table, bump)))


def test_fig5_rejects_wrong_true_ellipse(fig5_table):
    def swap(i, row):
        if row[2] == "true":
            row[4], row[5] = row[5], row[4]
    assert any("true ellipse" in e for e in check_fig5(edit(fig5_table, swap)))


# ---------------------------------------------------------------- crb

CRB_N, CRB_T = 2000, 60


@pytest.fixture(scope="module")
def crb_tables():
    return {scheme: table({"experiment": "crb-attainment", "spec": STATE, "scheme": scheme,
                           "n_values": [CRB_N], "trials": CRB_T,
                           "seed": {"master_seed": 11, "stream_id": 0}})
            for scheme in ("homodyne", "heterodyne")}


def check_crb(text, scheme):
    return checks.check_crb(text, MU, LAM, ETA, scheme, CRB_N, CRB_T, 11)[0]


@pytest.mark.parametrize("scheme", ["homodyne", "heterodyne"])
def test_crb_accepts_program_output(crb_tables, scheme):
    assert check_crb(crb_tables[scheme], scheme) == []


@pytest.mark.parametrize("scheme", ["homodyne", "heterodyne"])
def test_crb_rejects_bound_with_offset_shifted_by_half(crb_tables, scheme):
    wrong = checks.bound_closed(MU / (2 * LAM) + checks.offset(ETA, scheme) + 0.5,
                                MU * LAM / 2 + checks.offset(ETA, scheme) + 0.5, scheme)

    def shift(i, row):
        row[3] = repr(float(wrong))
        row[4] = repr(float(row[2]) / float(wrong))
    assert any("closed form" in e for e in check_crb(edit(crb_tables[scheme], shift), scheme))


def test_crb_rejects_ratio_outside_statistical_window(crb_tables):
    def triple(i, row):
        row[2] = repr(3.0 * float(row[3]))
        row[4] = repr(3.0)
    assert any("outside" in e
               for e in check_crb(edit(crb_tables["heterodyne"], triple), "heterodyne"))


def test_pooled_ratio_window_shrinks_with_seeds():
    one = checks.ratio_sigma(MU, LAM, ETA, "heterodyne", CRB_T)
    ratio = 1.0 + 0.8 * checks.Z_SIGMA * one
    assert checks.check_pooled_ratio([ratio], MU, LAM, ETA, "heterodyne", CRB_T) == []
    assert checks.check_pooled_ratio([ratio] * 4, MU, LAM, ETA, "heterodyne", CRB_T) != []


@pytest.mark.parametrize("scheme", ["homodyne", "heterodyne"])
def test_estimator_covariance_trace_is_the_bound(scheme):
    cov = checks.estimator_covariance(MU, LAM, ETA, scheme)
    assert math.isclose(float(cov.trace()), float(checks.bound_of_state(MU, LAM, ETA, scheme)),
                        rel_tol=1e-10)


# ---------------------------------------------------------------- bounds

LAMBDAS, MUS, ETAS = [1.0, 3.5, 40.0], [1.0, 2.5], [0.3, 1.0]


@pytest.fixture(scope="module", params=["real", "hypothetical"])
def surface(request):
    mode = request.param
    return mode, table({"experiment": "surface",
                        "grid": {"lambda": LAMBDAS, "mu": MUS, "eta": ETAS, "mode": mode}})


def test_surface_accepts_program_output(surface):
    mode, text = surface
    assert checks.check_surface(text, LAMBDAS, MUS, ETAS, mode) == []


def test_surface_rejects_gamma_off_by_1e6(surface):
    mode, text = surface

    def nudge(i, row):
        if i == 4:
            row[5] = repr(float(row[5]) + 1e-6)
    assert checks.check_surface(edit(text, nudge), LAMBDAS, MUS, ETAS, mode) != []


def test_surface_rejects_paper_constant_off_by_1e6(surface):
    mode, text = surface
    constant = 0.3 if mode == "hypothetical" else 1.2

    def nudge(i, row):
        if row[:3] == ["1", "1", "1"]:
            row[5] = repr(constant + 1e-6)
    found = checks.check_surface(edit(text, nudge), LAMBDAS, MUS, ETAS, mode)
    assert any("paper" in e for e in found)


def test_surface_rejects_offset_shifted_by_half():
    text = table({"experiment": "surface",
                  "grid": {"lambda": LAMBDAS, "mu": MUS, "eta": ETAS, "mode": "real"}})

    def shift(i, row):
        lam, mu, eta = (float(v) for v in row[:3])
        d = checks.offset(eta, "homodyne") + 0.5
        row[3] = repr(float(checks.bound_closed(mu / (2 * lam) + d, mu * lam / 2 + d,
                                                "homodyne")))
    assert checks.check_surface(edit(text, shift), LAMBDAS, MUS, ETAS, "real") != []


def test_lambda_crit_accepts_and_rejects():
    etas = [0.07, 0.5, 1.0]
    text = table({"experiment": "lambda-crit", "eta_values": etas})
    assert checks.check_lambda_crit(text, etas) == []

    def nudge(i, row):
        row[1] = repr(float(row[1]) * (1.0 + 1e-6))
    assert checks.check_lambda_crit(edit(text, nudge), etas) != []


REGION = (3.0, 12.0, 0.4, 0.6)


def test_regions_accepts_program_output():
    mu, lam, phi, eta = REGION
    text = table({"experiment": "regions",
                  "spec": {"mu": mu, "lambda": lam, "phi": phi, "eta": eta}, "samples": 64})
    assert checks.check_regions(text, *REGION, 64) == []


def test_regions_rejects_offset_shifted_by_half():
    mu, lam, phi, eta = REGION
    text = table({"experiment": "regions",
                  "spec": {"mu": mu, "lambda": lam, "phi": phi, "eta": eta}, "samples": 64})

    def shift(i, row):
        row[2] = repr(math.sqrt(float(row[2]) ** 2 + 0.5))
    assert checks.check_regions(edit(text, shift), *REGION, 64) != []


def test_fisher_accepts_and_rejects():
    import gausstomo
    states = [(1.0, 1.0, 0.0, 1.0), (7.5, 60.0, 2.0, 0.1), (20.0, 100.0, 1.0, 0.05)]
    records = workloads.fisher_cross_check(gausstomo, states)
    assert checks.check_fisher(records) == []
    bad = [r[:6] + (r[6] * (1.0 + 1e-7),) + r[7:] for r in records]
    assert len(checks.check_fisher(bad)) == len(records)


# ---------------------------------------------------------------- runner

def test_known_fault_is_the_eigenvalue_cancellation():
    import io
    from contextlib import redirect_stderr

    import gausstomo.cli
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
        gausstomo.cli.main(["fig5", "--trials", "20", "--seed", "5", "--out", "-"])
    assert exit_info.value.code == 2
    assert run.known_fault(2, err.getvalue())
    assert not run.known_fault(3, err.getvalue())
    assert not run.known_fault(2, '{"error": "domain", "message": "covariance is not '
                                  'positive definite (smallest eigenvalue -1.0): '
                                  'Covariance2(g1=1.0, g2=1.0, g3=2.0)"}\n')


def test_tracing_stops_on_a_missing_name(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS",
                        tracing.WRAPS + [("gausstomo.experiments", "gone", "x", None)])
    with pytest.raises(RuntimeError, match="gausstomo.experiments.gone"):
        with tracing.installed(tracing.Tracer()):
            pass
    import gausstomo.experiments
    assert gausstomo.experiments.render_table.__name__ == "render_table"
