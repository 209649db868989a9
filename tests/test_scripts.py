"""Smoke tests of the scripts' argument handling, run in-process as
``__main__`` with their command line in ``sys.argv``."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args):
    """Exit code of scripts/<name> run with ``args``."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return 0


def test_run_all_scenarios_writes_the_golden_files(monkeypatch, capsys, tmp_path):
    assert run_script(monkeypatch, "run_all_scenarios.py", str(tmp_path)) == 0
    golden = Path(__file__).resolve().parent / "golden"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in golden.iterdir())
    for scenario in golden.iterdir():
        assert sorted(p.name for p in (tmp_path / scenario.name).iterdir()) == sorted(
            p.name for p in scenario.iterdir())
    assert capsys.readouterr().out.count(" files in ") == 4


def test_decay_convergence_study_runs(monkeypatch, capsys):
    assert run_script(monkeypatch, "decay_convergence_study.py", "2") == 0
    assert "extrapolated:" in capsys.readouterr().out


@pytest.mark.parametrize("arg", ["1", "x"])
def test_decay_convergence_study_rejects(monkeypatch, capsys, arg):
    assert run_script(monkeypatch, "decay_convergence_study.py", arg) == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("arg", ["nan", "abc"])
def test_contraction_scan_rejects_before_scanning(monkeypatch, capsys, arg):
    assert run_script(monkeypatch, "contraction_scan.py", arg) == 2
    out = capsys.readouterr()
    assert "usage:" in out.err
    assert "coordinates:" not in out.out


def test_contraction_scan_runs(monkeypatch, capsys):
    assert run_script(monkeypatch, "contraction_scan.py") == 0
    out = capsys.readouterr().out
    assert "coordinates: 377  raised: 0" in out
    worst = float(out.split("worst gap: ")[1].split()[0])
    assert worst <= 1e-13


def test_feature_footprint_lists_scipy_subpackages(monkeypatch, capsys):
    # no scipy.stats anywhere: the MLE tail and the Landau functions load
    # scipy.special as the strip family does, and the hw posterior nothing
    assert run_script(monkeypatch, "feature_footprint.py") == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    loaded = {row[0]: row[2:] for row in rows}
    assert loaded == {
        "import": ["-"],
        "hw-posterior": ["-"],
        "mle-tail": ["scipy.special"],
        "landau": ["scipy.special"],
        "strip": ["scipy.special"],
    }
    assert all(float(row[1]) > 0.0 for row in rows)


def test_feature_footprint_rejects_unknown_feature(monkeypatch, capsys):
    assert run_script(monkeypatch, "feature_footprint.py", "strip", "bogus") == 2
    err = capsys.readouterr().err
    assert "unknown feature 'bogus'" in err and "usage:" in err


def test_quadrature_rounds_counts_the_strip_masses(monkeypatch, capsys):
    assert run_script(monkeypatch, "quadrature_rounds.py", "strip") == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    # example, label, jobs, rounds, panels, nodes: the wide mass is one
    # call of two jobs, the narrow schedule one call of four
    assert [row[:3] for row in rows] == [["strip", "wide", "2"],
                                         ["strip", "narrow", "4"]]
    for row in rows:
        rounds, panels, nodes = map(int, row[3:])
        assert 1 <= rounds <= 3 and nodes == 21 * panels


def test_quadrature_rounds_rejects_unknown_example(monkeypatch, capsys):
    assert run_script(monkeypatch, "quadrature_rounds.py", "hw", "bogus") == 2
    err = capsys.readouterr().err
    assert "unknown example 'bogus'" in err and "usage:" in err


def test_layer_timings_times_the_curve_loglik(monkeypatch, capsys):
    assert run_script(monkeypatch, "layer_timings.py", "curve-loglik") == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    # label, size, repeats, median and IQR in µs
    assert [row[:3] for row in rows] == [["curve-loglik", "1", "21"],
                                         ["curve-loglik", "16", "21"]]
    for row in rows:
        median, iqr = map(float, row[3:])
        assert median > 0.0 and iqr >= 0.0


def test_layer_timings_rejects_unknown_layer(monkeypatch, capsys):
    assert run_script(monkeypatch, "layer_timings.py", "grid-oracle", "bogus") == 2
    out = capsys.readouterr()
    assert "unknown layer 'bogus'" in out.err and "usage:" in out.err
    assert out.out == ""
