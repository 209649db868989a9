"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import acceptance, legendre, rates, scenarios
from .errors import ExpLdpError, UnknownScenario
from .families import builtin, builtin_names
from .models import builtin_model, model_names, uniform_prior
from .tables import Table


def _parse_vector(text: str, size: int | None = None) -> np.ndarray:
    """Comma-separated floats; NaN and, when ``size`` is given, any other
    count of entries are usage errors."""
    try:
        arr = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise click.UsageError(f"could not parse vector {text!r}") from None
    if np.isnan(arr).any():
        raise click.UsageError(f"vector {text!r} has a NaN entry")
    if size is not None and arr.size != size:
        raise click.UsageError(
            f"expected {size} comma-separated values, got {text!r}"
        )
    return arr


def _parse_grid(text: str) -> np.ndarray:
    """'lo,hi,count' as an equispaced grid; the endpoints must be finite
    and a finite distance apart, the count a whole number, at least 0."""
    lo, hi, count = _parse_vector(text, 3)
    if not math.isfinite(float(hi) - float(lo)):
        raise click.UsageError(
            f"--grid endpoints must be finite and a finite distance apart: {text!r}"
        )
    if count < 0 or not float(count).is_integer():
        raise click.UsageError(f"grid count must be a whole number >= 0: {text!r}")
    return np.linspace(lo, hi, int(count))


@click.group()
def main():
    """Rate functions for posteriors and constrained MLEs in curved
    exponential families."""


@main.group()
def scenario():
    """Run the registered worked-example pipelines."""


@scenario.command("list")
def scenario_list():
    for name in scenarios.scenario_names():
        click.echo(f"{name}: {scenarios.get_scenario(name).description}")


@scenario.command("run")
@click.argument("name")
@click.option("--outdir", default=".", type=click.Path(file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def scenario_run(name, outdir, fmt):
    try:
        written = scenarios.scenario_run(name, outdir, fmt)
    except UnknownScenario as exc:
        raise click.UsageError(str(exc))
    except OSError as exc:
        raise click.ClickException(f"could not write outputs: {exc}")
    for path in written:
        click.echo(path)


@main.command("legendre")
@click.option("--family", "family_name", required=True,
              type=click.Choice(builtin_names()))
@click.option("--t", "t_text", required=True,
              help="mean point, comma-separated")
@click.option("--constraint", "constraint_name", default=None,
              type=click.Choice(model_names()),
              help="restrict the supremum to a builtin model")
@click.option("--json", "as_json", is_flag=True)
def legendre_cmd(family_name, t_text, constraint_name, as_json):
    """Convex conjugate (optionally constrained) at a mean point."""
    family = builtin(family_name)
    t = _parse_vector(t_text, family.dim)
    if constraint_name is not None:
        model = builtin_model(constraint_name)
        if model.family is not family:
            raise click.UsageError(f"constraint {constraint_name} is a curve in "
                                   f"{model.family.name}, not in {family_name}")
    try:
        if constraint_name is None:
            res = legendre.conjugate(family, t)
        else:
            res = legendre.conjugate_constrained(model, t)
    except ExpLdpError as exc:
        raise click.UsageError(str(exc))
    if as_json:
        click.echo(json.dumps(res.to_json(), sort_keys=True))
    else:
        click.echo(f"value {res.value:.12g}")
        if res.argmax is not None:
            click.echo("argmax " + ",".join(f"{v:.12g}" for v in res.argmax))
        click.echo(f"converged {res.converged} iterations {res.iterations} "
                   f"multiplicity_flag {res.multiplicity_flag}")


@main.group()
def rate():
    """Tabulate or evaluate rate functions."""


@rate.command("posterior")
@click.option("--model", "model_name", required=True,
              type=click.Choice(model_names()))
@click.option("--mu0", "mu0_text", required=True)
@click.option("--support", "support_text", required=True,
              help="prior support, 'lo,hi'")
@click.option("--grid", "grid_text", required=True, help="'lo,hi,count'")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
def rate_posterior(model_name, mu0_text, support_text, grid_text, out_path):
    model = builtin_model(model_name)
    mu0 = _parse_vector(mu0_text, model.family.dim)
    lo, hi = _parse_vector(support_text, 2)
    grid = _parse_grid(grid_text)
    try:
        prior = uniform_prior(model, float(lo), float(hi))
    except ValueError as exc:
        raise click.UsageError(f"support {support_text!r}: {exc}")
    try:
        table = rates.posterior_rate(prior, mu0, grid).to_table("posterior_rate")
    except ExpLdpError as exc:
        raise click.UsageError(str(exc))
    _emit_table(table, out_path)


@rate.command("mle")
@click.option("--model", "model_name", required=True,
              type=click.Choice(model_names()))
@click.option("--theta0-coord", "theta0_coord", required=True, type=float,
              help="model coordinate of the sampling parameter")
@click.option("--grid", "grid_text", required=True, help="'lo,hi,count'")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
def rate_mle(model_name, theta0_coord, grid_text, out_path):
    model = builtin_model(model_name)
    theta0 = model.map(theta0_coord)
    grid = _parse_grid(grid_text)
    try:
        values = rates.contraction_rate(model, theta0, grid)
    except ExpLdpError as exc:
        raise click.UsageError(str(exc))
    rows = list(zip(grid.tolist(), values.tolist()))
    table = Table("mle_rate", ("coordinate", "rate"), rows,
                  {"kind": "mle", "theta0_coordinate": theta0_coord})
    _emit_table(table, out_path)


@rate.command("cramer")
@click.option("--family", "family_name", required=True,
              type=click.Choice(builtin_names()))
@click.option("--theta0", "theta0_text", required=True)
@click.option("--t", "t_text", required=True)
def rate_cramer(family_name, theta0_text, t_text):
    family = builtin(family_name)
    try:
        value = rates.cramer_rate(
            family, _parse_vector(theta0_text, family.dim),
            _parse_vector(t_text, family.dim),
        )
    except ExpLdpError as exc:
        raise click.UsageError(str(exc))
    click.echo(f"{value:.12g}")


def _emit_table(table: Table, out_path):
    if out_path is None:
        click.echo(table.csv_text(), nl=False)
    else:
        table.write_csv(out_path)
        click.echo(out_path)


@main.command("verify")
@click.option("--filter", "pattern", default=None,
              help="run only criteria whose name contains this substring")
def verify(pattern):
    """Run the acceptance suite; nonzero exit on any failure."""
    names = [name for name, *_ in acceptance.CRITERIA]
    if pattern and not any(pattern in name for name in names):
        raise click.UsageError(
            f"--filter {pattern!r} matches no criterion; criteria: "
            + ", ".join(names)
        )
    try:
        acceptance._seed()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    results = acceptance.verify_suite(pattern)
    click.echo(acceptance.format_report(results))
    if any(not r.passed for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
