import csv
import json
import math
import os
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from expldp import acceptance, scenario_names, scenario_run
from expldp.cli import main
from expldp.errors import UnknownScenario


def test_registry_names():
    assert scenario_names() == [
        "gauss-mean-eq-sd", "hardy-weinberg", "poisson-landau", "strip-boundary"
    ]


def test_unknown_scenario_raises(tmp_path):
    with pytest.raises(UnknownScenario):
        scenario_run("nope", str(tmp_path))


@pytest.fixture(scope="module")
def hw_outdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("hw")
    scenario_run("hardy-weinberg", str(path))
    return path


@pytest.fixture(scope="module")
def pl_outdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("pl")
    scenario_run("poisson-landau", str(path))
    return path


@pytest.fixture(scope="module")
def strip_outdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("strip")
    scenario_run("strip-boundary", str(path))
    return path


@pytest.fixture(scope="module")
def gauss_outdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("gauss")
    scenario_run("gauss-mean-eq-sd", str(path))
    return path


class TestHardyWeinbergScenario:
    @pytest.fixture
    def outdir(self, hw_outdir):
        return hw_outdir

    def test_expected_files(self, outdir):
        for name in ("posterior_rate", "decay_rates", "pythagoras", "mle_oracle"):
            assert (outdir / f"{name}.csv").exists()
            assert (outdir / f"{name}.json").exists()

    def test_csv_header_and_formatting(self, outdir):
        text = (outdir / "posterior_rate.csv").read_text()
        lines = text.split("\n")
        assert lines[0] == "coordinate,rate"
        assert text.endswith("\n")
        coord, rate = lines[1].split(",")
        float(coord), float(rate)


class TestPoissonLandauScenario:
    @pytest.fixture
    def outdir(self, pl_outdir):
        return pl_outdir

    def test_dual_gap_below_tolerance(self, outdir):
        meta = json.loads((outdir / "dual_gap.json").read_text())["metadata"]
        assert meta["max_gap"] < 1e-10

    def test_ultimo_closed_form(self, outdir):
        rows = json.loads((outdir / "ultimo_rate.json").read_text())["rows"]
        assert max(abs(r[3]) for r in rows) < 1e-12

    def test_landau_checks_report(self, outdir):
        checks = json.loads((outdir / "landau_checks.json").read_text())
        assert checks["conjugate_of_conjugate_max_gap"] < 1e-8


class TestStripScenario:
    @pytest.fixture
    def outdir(self, strip_outdir):
        return strip_outdir

    def test_boundary_rates_exceed_naive_prediction(self, outdir):
        rows = json.loads((outdir / "boundary_rates.json").read_text())["rows"]
        for eps, rate, inf_rate, naive in rows:
            assert rate > naive


def test_gauss_scenario_and_byte_determinism(gauss_outdir, tmp_path):
    first = gauss_outdir
    second = tmp_path / "b"
    scenario_run("gauss-mean-eq-sd", str(second))
    for name in os.listdir(first):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    meta = json.loads((first / "quadratic_certificate.json").read_text())["metadata"]
    assert meta["max_abs_diff"] < 1e-6


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_REL_TOL = 1e-8


def _read_output(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        return [[_csv_cell(cell) for cell in row] for row in csv.reader(fh)]


def _csv_cell(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def _assert_matches_golden(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches_golden(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        if got != want:       # equal infinities pass here
            assert abs(got - want) <= GOLDEN_REL_TOL * max(1.0, abs(want)), (
                f"{where}: {got!r} differs from golden {want!r}"
            )
    else:
        assert got == want, f"{where}: {got!r} differs from golden {want!r}"


@pytest.mark.parametrize("scenario, fixture", [
    ("gauss-mean-eq-sd", "gauss_outdir"),
    ("hardy-weinberg", "hw_outdir"),
    ("poisson-landau", "pl_outdir"),
    ("strip-boundary", "strip_outdir"),
])
def test_outputs_match_golden(scenario, fixture, request):
    # every number of every emitted file, within 1e-8 * max(1, |golden|)
    outdir = request.getfixturevalue(fixture)
    golden = GOLDEN / scenario
    names = sorted(os.listdir(golden))
    assert sorted(os.listdir(outdir)) == names
    for name in names:
        _assert_matches_golden(
            _read_output(outdir / name), _read_output(golden / name), name
        )


def test_json_only_format(tmp_path):
    paths = scenario_run("strip-boundary", str(tmp_path), fmt="json")
    assert all(p.endswith(".json") for p in paths)
    assert not any(p.endswith(".csv") for p in paths)


def _readme_cli_lines():
    """The commands of the fenced block under README's ``## CLI``."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.strip()]


class TestCli:
    @pytest.mark.parametrize("line", _readme_cli_lines())
    def test_readme_command_runs(self, line, tmp_path):
        argv = shlex.split(line, comments=True)
        assert argv[0] == "expldp"
        args = argv[1:]
        if "--outdir" in args:
            args[args.index("--outdir") + 1] = str(tmp_path)
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output

    def test_scenario_list(self):
        result = CliRunner().invoke(main, ["scenario", "list"])
        assert result.exit_code == 0
        for name in scenario_names():
            assert name in result.output

    def test_scenario_run_unknown_is_usage_error(self, tmp_path):
        result = CliRunner().invoke(
            main, ["scenario", "run", "nope", "--outdir", str(tmp_path)]
        )
        assert result.exit_code == 2

    def test_legendre_command(self):
        result = CliRunner().invoke(
            main, ["legendre", "--family", "poisson", "--t", "2"]
        )
        assert result.exit_code == 0
        value = float(result.output.split("\n")[0].split()[1])
        assert value == pytest.approx(2 * math.log(2.0) - 1.0, abs=1e-10)

    def test_legendre_json_flag(self):
        result = CliRunner().invoke(
            main, ["legendre", "--family", "poisson", "--t", "2", "--json"]
        )
        obj = json.loads(result.output)
        assert set(obj) == {
            "value", "argmax", "converged", "iterations", "multiplicity_flag"
        }

    def test_legendre_constrained(self):
        result = CliRunner().invoke(
            main,
            ["legendre", "--family", "hardy-weinberg-saturated",
             "--t", "0.3,0.2", "--constraint", "hw-line", "--json"],
        )
        obj = json.loads(result.output)
        assert obj["argmax"][0] == pytest.approx(math.log(11 / 9), abs=1e-9)

    def test_legendre_bad_mean_point_is_usage_error(self):
        result = CliRunner().invoke(
            main, ["legendre", "--family", "poisson", "--t", "-1"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["legendre", "--family", "poisson", "--t", "nan"],
        ["rate", "posterior", "--model", "hw-line", "--mu0", "0.3,0.2",
         "--support", "1", "--grid", "-1,1,5"],
        ["rate", "posterior", "--model", "hw-line", "--mu0", "0.3",
         "--support", "-3,3", "--grid", "-1,1,5"],
        ["rate", "posterior", "--model", "gauss-mean-eq-sd", "--mu0", "1,2",
         "--support", "-1,2", "--grid", "0.5,1,3"],
        ["rate", "posterior", "--model", "gauss-mean-eq-sd", "--mu0", "1,2",
         "--support", "2,1", "--grid", "0.5,1,3"],
        ["rate", "mle", "--model", "gauss-mean-eq-sd", "--theta0-coord", "1",
         "--grid", "0.5,1,-3"],
        ["rate", "mle", "--model", "gauss-mean-eq-sd", "--theta0-coord", "1",
         "--grid", "0.5,1,inf"],
        ["legendre", "--family", "poisson", "--t", "2", "--constraint", "hw-line"],
        ["rate", "posterior", "--model", "hw-line", "--mu0", "0.3,0.2",
         "--support=-1e308,1e308", "--grid=-1,1,5"],
    ], ids=["nan-mean-point", "one-value-support", "wrong-dimension-mu0",
            "support-outside-coordinates", "empty-support", "negative-grid-count",
            "infinite-grid-count", "constraint-of-another-family",
            "support-of-overflowing-length"])
    def test_malformed_vector_is_usage_error(self, args):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.output

    @pytest.mark.parametrize("args", [
        ["rate", "posterior", "--model", "hw-line", "--mu0", "0.3,0.2",
         "--support", "-3,3", "--grid=-inf,1,3"],
        ["rate", "posterior", "--model", "hw-line", "--mu0", "0.3,0.2",
         "--support", "-3,3", "--grid=-1e308,1e308,3"],
        ["rate", "mle", "--model", "hw-line", "--theta0-coord", "0",
         "--grid=-inf,1,3"],
        ["rate", "mle", "--model", "hw-line", "--theta0-coord", "0",
         "--grid=0,inf,0"],
    ], ids=["posterior-infinite-lo", "posterior-overflowing-span",
            "mle-infinite-lo", "mle-infinite-hi-empty"])
    def test_non_finite_grid_endpoint_is_usage_error(self, args):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert "--grid endpoints must be finite" in result.output
        assert "Warning" not in result.output

    def test_rate_cramer(self):
        result = CliRunner().invoke(
            main,
            ["rate", "cramer", "--family", "poisson", "--theta0", "0",
             "--t", "2"],
        )
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(2 * math.log(2) - 1, abs=1e-10)

    @pytest.mark.parametrize("family, theta0, t", [
        ("poisson", "800", "2"), ("gauss-mean", "1e200", "1"),
    ])
    def test_rate_cramer_past_cumulant_overflow(self, family, theta0, t):
        # kappa(800) = e^800 - 1 and kappa(1e200) = 5e399 overflow a double,
        # so the rate is +inf, reached without a numpy overflow warning
        # (pytest makes one an error)
        result = CliRunner().invoke(
            main,
            ["rate", "cramer", "--family", family, "--theta0", theta0,
             "--t", t],
        )
        assert result.exit_code == 0, result.output
        assert float(result.output) == math.inf
        assert "Warning" not in result.output

    def test_rate_mle_past_cumulant_overflow(self):
        # kappa(theta0) = e^800 - 1 is +inf: every rate is +inf, not NaN
        result = CliRunner().invoke(
            main,
            ["rate", "mle", "--model", "poisson-line", "--theta0-coord", "800",
             "--grid", "0,1,2"],
        )
        assert result.exit_code == 0, result.output
        assert result.output == "coordinate,rate\n0,inf\n1,inf\n"

    @pytest.mark.parametrize("args", [
        ["legendre", "--family", "poisson", "--t", "1e308"],
        ["rate", "cramer", "--family", "poisson", "--theta0", "1e308",
         "--t", "1e308"],
        ["legendre", "--family", "gauss-mean", "--t", "1e200"],
        ["legendre", "--family", "landau-dual", "--t", "1e308"],
    ])
    def test_newton_stall_at_huge_mean_without_warning(self, args):
        # the line search's first-order gain, and for gauss-mean and
        # landau-dual the cumulant and theta.t, overflow there; they may not
        # print numpy's overflow warning (pytest makes one an error)
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "line search stalled" in result.output
        assert "Warning" not in result.output

    def test_rate_mle_dual_failure_names_the_coordinate(self):
        # theta0 = (1e300, -1e300): the dual's window never brackets its
        # maximum; the error names the coordinate, and no NaN reaches a
        # mean point on the way
        result = CliRunner().invoke(
            main,
            ["rate", "mle", "--model", "hw-line", "--theta0-coord", "1e300",
             "--grid", "-1,1,3"],
        )
        assert result.exit_code == 2, result.output
        assert "contraction dual did not converge at coordinate -1.0" in (
            result.output)
        assert "nan" not in result.output.lower()

    def test_rate_posterior_huge_support(self):
        # polishing on [-1e300, 1e300] takes about 1000 bisections; the
        # rates either match those on [-5, 5] or the command is a usage error
        def run(support):
            return CliRunner().invoke(
                main,
                ["rate", "posterior", "--model", "hw-line", "--mu0", "0.3,0.2",
                 f"--support={support}", "--grid=-1,1,5"],
            )

        def rates(output):
            return [float(line.split(",")[1])
                    for line in output.strip().split("\n")[1:]]

        huge, small = run("-1e300,1e300"), run("-5,5")
        assert small.exit_code == 0, small.output
        assert huge.exit_code in (0, 2), huge.output
        if huge.exit_code == 0:
            assert rates(huge.output) == pytest.approx(rates(small.output),
                                                       abs=1e-12)
        else:
            assert "Error:" in huge.output

    def test_rate_posterior_at_huge_rates(self):
        # rates about 4e301: the two rate forms agree to 1.7e-14 relative,
        # inside the cross-check's tolerance, which is relative past 1
        result = CliRunner().invoke(
            main,
            ["rate", "posterior", "--model", "gauss-mean-eq-sd", "--mu0", "1,3",
             "--support", "1e150,1e151", "--grid", "1e150,1e151,3"],
        )
        assert result.exit_code == 0, result.output
        rows = result.output.strip().split("\n")[1:]
        rates = [float(row.split(",")[1]) for row in rows]
        assert len(rates) == 3 and all(map(math.isfinite, rates))
        assert rates[1] == pytest.approx(4.3875e301, rel=1e-13)

    def test_rate_mle_at_tiny_coordinates(self):
        # eta(1e-300) = (1e-300, -0.0) lies on the domain's edge in doubles
        result = CliRunner().invoke(
            main,
            ["rate", "mle", "--model", "gauss-mean-eq-sd", "--theta0-coord", "1",
             "--grid", "1e-300,1e-299,3"],
        )
        assert result.exit_code in (0, 2), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_rate_posterior_to_file(self, tmp_path):
        out = tmp_path / "rate.csv"
        result = CliRunner().invoke(
            main,
            ["rate", "posterior", "--model", "hw-line", "--mu0", "0.3,0.2",
             "--support", "-3,3", "--grid", "-1,1,11", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "coordinate,rate"
        assert len(lines) == 12

    def test_rate_form_mismatch_is_usage_error(self, monkeypatch):
        import dataclasses

        from expldp import models

        original = models.limiting_mle

        def shifted(prior, mu0):
            # moves the constrained maximum, and with it the direct rate,
            # by 1e-6 and leaves the excess-of-divergence form alone
            mle = original(prior, mu0)
            return dataclasses.replace(mle, value=mle.value + 1e-6)

        monkeypatch.setattr(models, "limiting_mle", shifted)
        result = CliRunner().invoke(
            main,
            ["rate", "posterior", "--model", "hw-line", "--mu0", "0.3,0.2",
             "--support", "-3,3", "--grid", "-1,1,5"],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "rate-form mismatch" in result.output
        # both values print as plain floats, not numpy reprs
        assert "np.float64" not in result.output
        assert re.search(
            r"direct -?[0-9.e-]+ vs excess-of-divergence -?[0-9.e-]+\n",
            result.output,
        )

    def test_rate_mle(self):
        result = CliRunner().invoke(
            main,
            ["rate", "mle", "--model", "hw-line", "--theta0-coord", "0",
             "--grid", "0.5,0.5,1"],
        )
        assert result.exit_code == 0
        rate = float(result.output.strip().split("\n")[1].split(",")[1])
        assert rate == pytest.approx(0.060599723961, abs=1e-9)

    @pytest.mark.parametrize("grid, off_rows", [
        ("-1,1,3", ["-1,inf", "0,inf"]),
        ("0,1,2", ["0,inf"]),
    ])
    def test_rate_mle_off_the_coordinate_set_is_inf(self, grid, off_rows):
        def rows(grid_text):
            result = CliRunner().invoke(
                main,
                ["rate", "mle", "--model", "gauss-mean-eq-sd",
                 "--theta0-coord", "1", "--grid", grid_text],
            )
            assert result.exit_code == 0, result.output
            return result.output.strip().split("\n")[1:]

        # M = (0, inf); the coordinate-1 row is the one of a grid inside M
        assert rows(grid) == off_rows + rows("1,1,1")

    def test_verify_filter_single_criterion(self):
        result = CliRunner().invoke(main, ["verify", "--filter", "1-closed"])
        assert result.exit_code == 0
        assert "[PASS] 1-closed-form-hw" in result.output

    def test_verify_filter_dual_selects_dual_checks(self):
        result = CliRunner().invoke(main, ["verify", "--filter", "dual"])
        assert result.exit_code == 0
        assert "8-duality" in result.output
        assert "9-landau-dual-numerics" in result.output
        assert "1-closed-form-hw" not in result.output

    def test_verify_filter_matching_nothing_is_usage_error(self):
        result = CliRunner().invoke(main, ["verify", "--filter", "nope"])
        assert result.exit_code == 2
        assert "matches no criterion" in result.output
        assert "10-property-suites" in result.output

    @pytest.mark.parametrize("seed", ["abc", "-3", "1e3"])
    def test_verify_malformed_seed_is_usage_error(self, monkeypatch, seed):
        monkeypatch.setenv("EXPLDP_SEED", seed)
        result = CliRunner().invoke(main, ["verify", "--filter", "8-duality"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "EXPLDP_SEED" in result.output


# edge inputs: tiny and huge coordinates, narrow supports, mean points near
# the domain's edge; each with the message of its usage error, if it is one
OFF_MEAN_DOMAIN = "is outside the interior of the mean domain of gauss-parabola"
EDGE_INPUTS = [
    # eta(1e-300) = (1e-300, -0.0) is off the domain
    ("rate posterior --model gauss-mean-eq-sd --mu0 1,3 --support 1e-300,1e-299 "
     "--grid 0,1,3", "constrained likelihood is -inf on the whole set"),
    ("rate posterior --model hw-line --mu0 0.3,0.2 --support 1,1.0000000000001 "
     "--grid 0,2,3", None),
    # these square a huge coordinate
    ("legendre --family gauss-parabola --t 1e200,1e300", OFF_MEAN_DOMAIN),
    ("legendre --family gauss-parabola --t 1e200,1e300 "
     "--constraint gauss-mean-eq-sd", OFF_MEAN_DOMAIN),
    ("rate mle --model gauss-mean-eq-sd --theta0-coord 1 --grid 1e200,1e201,3",
     "natural point has non-finite coordinates"),
    ("rate posterior --model strip-curve --mu0 0.3,0.5 --support 0,1 --grid 0,1,5",
     None),
    ("rate posterior --model strip-curve --mu0 0.3,0.5 --support 0,1e-300 "
     "--grid 0,1,3", None),
    ("rate posterior --model hw-line --mu0 1e-300,1e-300 --support -3,3 "
     "--grid -1,1,3", None),
    ("rate posterior --model gauss-mean-eq-sd --mu0 1,1e300 --support 0.5,2 "
     "--grid 0,1,3", "line search stalled"),
    ("rate cramer --family hardy-weinberg-saturated --theta0 800,0 --t 0.3,0.2",
     None),
    ("rate cramer --family gauss-parabola --theta0 0,-1e-300 --t 0,1", None),
    ("legendre --family poisson --t 1e-320 --constraint poisson-line",
     "could not bracket the constrained maximum"),
    ("legendre --family hardy-weinberg-saturated --t 1e-300,1e-300", None),
    ("legendre --family strip-measure --t 1e-300,0.5", None),
    ("legendre --family gauss-parabola --t 1,1.0000000000001", None),
    ("rate mle --model poisson-line --theta0-coord -800 --grid 0,1,3", None),
    ("rate mle --model hw-line --theta0-coord 0 --grid=-1e300,1e300,3",
     "is outside the interior of the mean domain of hardy-weinberg-saturated"),
    ("rate mle --model strip-curve --theta0-coord 0.5 --grid 0,1,5", None),
    # l ~ -1e300 over z ~ 1e150, past where t2^2 and Brent's products overflow
    ("rate posterior --model gauss-mean-eq-sd --mu0 1,3 --support 1e150,1e151 "
     "--grid 0,1,3", None),
    # |t.theta| ~ 2e308 past z ~ 1.1e154: l is -inf and the rate +inf
    ("rate posterior --model gauss-mean-eq-sd --mu0 1,3 --support 1e154,1.3e154 "
     "--grid 1e154,1.3e154,3", None),
    # eta(1e155) = (1e155, -inf)
    ("rate posterior --model gauss-mean-eq-sd --mu0 1,3 --support 1e154,1e155 "
     "--grid 0,1,3", "support '1e154,1e155': eta(1e+155) is not finite"),
]


@pytest.mark.parametrize("line, message", EDGE_INPUTS,
                         ids=[line for line, _ in EDGE_INPUTS])
def test_edge_input_sweep(line, message):
    # a result, or a usage error with its message: no traceback, no numpy
    # warning, no NaN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, shlex.split(line))
    assert result.exit_code == (0 if message is None else 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if message is None:
        assert "nan" not in result.output.lower()
    else:
        assert message in result.output


class TestVerifySensitivity:
    def test_perturbed_mle_flags_criteria_and_exits_nonzero(self, monkeypatch):
        # bug-injection contract: biasing the constrained-MLE solve by 1e-3
        # must trip the closed-form and Pythagoras criteria
        from expldp import legendre as legendre_mod

        original = legendre_mod.conjugate_constrained

        def biased(model, t, *args, **kwargs):
            res = original(model, t, *args, **kwargs)
            if res.argmax is None:
                return res
            if res.coordinate is not None:
                z = res.coordinate + 1e-3
                res.coordinate = z
                res.argmax = np.asarray(model.map(z), dtype=float)
            return res

        monkeypatch.setattr(legendre_mod, "conjugate_constrained", biased)
        results = acceptance.verify_suite("1-closed")
        results += acceptance.verify_suite("3-pythagoras")
        flagged = [r.name for r in results if not r.passed]
        assert "1-closed-form-hw" in flagged
        assert "3-pythagoras" in flagged

        cli = CliRunner().invoke(main, ["verify", "--filter", "3-pythagoras"])
        assert cli.exit_code == 1
        assert "FAILED" in cli.output


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("EXPLDP_SEED", "98765")
    assert acceptance._seed() == 98765
