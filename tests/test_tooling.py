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
