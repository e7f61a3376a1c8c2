"""The repository's tooling: the pytest settings and tools/bench_pairs.py."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_failing_property_fails_only_its_own_test(tmp_path):
    # on a failure hypothesis imports libcst, whose import warns; under the
    # repo's warning filters that must not abort the run
    pytest.importorskip("hypothesis")
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                           str(tmp_path / "test_two.py")],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


@pytest.fixture
def bench_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", ROOT)
    return module


@pytest.mark.parametrize("item", ["crb", "crb=x", "crb=0", "crb=-1", "crb=", "teleport=3"])
def test_bench_pairs_rejects_a_bad_runs_item_before_any_export(bench_pairs, monkeypatch,
                                                               tmp_path, capsys, item):
    def export(rev, target):
        raise AssertionError("exported")

    monkeypatch.setattr(bench_pairs, "export", export)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--runs", "fig5=1", item, "--first-seed", "0",
                          "--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert f"--runs item {item!r}" in capsys.readouterr().err


def result(value: float, failed: int = 0, correct: bool = True) -> dict:
    return {"metrics": {"wall_s": {"value": value}}, "failed": failed, "attempted": 10,
            "correct": correct}


def test_bench_pairs_summary(bench_pairs):
    # crb: four pairs, one of them a tie, and a seed that only the parent ran
    parent = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 100.0}
    change = {1: 0.5, 2: 2.0, 3: 3.5, 4: 1.0}
    runs = [{"side": "parent", "workload": "crb", "seed": s, "result": result(v)}
            for s, v in parent.items()]
    runs += [{"side": "change", "workload": "crb", "seed": s,
              "result": result(v, failed=s % 2, correct=s != 3)} for s, v in change.items()]
    runs += [{"side": side, "workload": "fig5", "seed": 9, "result": result(v)}
             for side, v in (("change", 2.0), ("parent", 4.0))]
    summary = bench_pairs.summarize(runs)
    assert list(summary) == ["crb", "fig5"]
    wall = summary["crb"]["wall_s"]
    assert wall["pairs"] == 4
    assert wall["change_lower_in_pairs"] == 2  # the tie counts for neither side
    # inclusive quartiles of 1, 2, 3, 4 and of 0.5, 1, 2, 3.5
    assert wall["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}
    assert wall["change"] == {"median": 1.5, "q1": 0.875, "q3": 2.375, "n": 4}
    assert wall["median_change_vs_parent"] == pytest.approx(-0.4, rel=1e-15)
    assert summary["crb"]["failed"] == {"parent": [0, 0, 0, 0], "change": [1, 0, 1, 0]}
    assert summary["crb"]["correct"] == {"parent": True, "change": False}
    fig5 = summary["fig5"]["wall_s"]
    assert fig5["parent"] == {"median": 4.0, "q1": 4.0, "q3": 4.0, "n": 1}
    assert (fig5["pairs"], fig5["change_lower_in_pairs"]) == (1, 1)


def test_bench_pairs_verdict_of_a_gain_needs_nine_of_ten_pairs(bench_pairs):
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    lower = [0.9 * p for p in parent]
    assert bench_pairs.verdict(parent, lower, "lower", 0.25) == "gain"
    # one pair worse still counts 9 of 10; one more, and a tie, count 8
    one_worse = lower[:-1] + [1.1]
    assert bench_pairs.verdict(parent, one_worse, "lower", 0.25) == "gain"
    assert bench_pairs.verdict(parent, one_worse[:-2] + [1.1, parent[-1]],
                               "lower", 0.25) == "no_worse"
    # a higher-is-better metric gains by reading higher
    assert bench_pairs.verdict(parent, [1.1 * p for p in parent], "higher", 0.1) == "gain"
    assert bench_pairs.verdict(parent, lower, "higher", 0.25) == "no_worse"


def test_bench_pairs_verdict_of_a_gain_needs_the_parents_iqr(bench_pairs):
    # lower in every pair, but by less than the parent's q3 - q1
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0]
    change = [p - 0.01 for p in parent]
    assert bench_pairs.verdict(parent, change, "lower", 0.25) == "no_worse"


def test_bench_pairs_verdict_of_worse_and_unresolved(bench_pairs):
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00]
    assert bench_pairs.verdict(parent, [1.3 * p for p in parent], "lower", 0.25) == "worse"
    assert bench_pairs.verdict(parent, [1.2 * p for p in parent], "lower", 0.25) == "no_worse"
    assert bench_pairs.verdict(parent, [0.85 * p for p in parent], "higher", 0.1) == "worse"
    # the parent spreads wider than the bound: unresolved unless the change
    # reads better than the parent in every pair of runs
    wide = [0.6, 1.4, 0.7, 1.3, 1.0, 1.0]
    assert bench_pairs.verdict(wide, [1.1, 1.0, 0.9, 1.2, 0.8, 1.0], "lower", 0.25) \
        == "unresolved"
    # every change run beats every parent run, by less than the parent's
    # q3 - q1 of 0.45
    assert bench_pairs.verdict(wide, [0.58] * 6, "lower", 0.25) == "no_worse"


def test_bench_pairs_summary_gives_verdicts_and_failure_shares(bench_pairs):
    def line(value, failed, attempted):
        return {"metrics": {"wall_s": {"value": value}, "peak_rss_mb": {"value": 50.0},
                            "extra": {"value": 1.0}},
                "failed": failed, "attempted": attempted, "correct": True}

    runs = []
    for seed in range(10):
        runs.append({"side": "parent", "workload": "fig5", "seed": seed,
                     "result": line(1.0 + 0.001 * seed, 13, 40)})
        runs.append({"side": "change", "workload": "fig5", "seed": seed,
                     "result": line(0.9 + 0.001 * seed, 13, 40)})
        runs.append({"side": "parent", "workload": "crb", "seed": seed,
                     "result": line(1.0, 0, 40)})
        runs.append({"side": "change", "workload": "crb", "seed": seed,
                     "result": line(1.0, 1 if seed == 0 else 0, 40)})
    rules = [{"name": "wall_s", "better": "lower", "bound": 0.25},
             {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    summary = bench_pairs.summarize(runs, rules)
    assert summary["fig5"]["wall_s"]["verdict"] == "gain"
    assert summary["fig5"]["peak_rss_mb"]["verdict"] == "no_worse"
    assert "verdict" not in summary["fig5"]["extra"]
    assert summary["fig5"]["more_failed"] is False  # the same share, 13 of 40
    assert summary["crb"]["wall_s"]["verdict"] == "no_worse"
    assert summary["crb"]["more_failed"] is True
