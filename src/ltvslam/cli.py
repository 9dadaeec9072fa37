"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 filter divergence.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from . import noisecal
from .core import RobotInputs, skew
from .kalman import DivergenceError
from .runner import BUILTIN_SCENARIOS, MODES, ConfigError, RunConfig, run


@click.group()
def main():
    """Linearization-free SLAM runner."""


@main.command("run")
@click.option("--mode", default="local", type=click.Choice(MODES))
@click.option("--case", default=2, type=int, help="Sensor case 1-5.")
@click.option("--scenario", default="single-vehicle-2d",
              help="Builtin scenario name or JSON file path.")
@click.option("--seed", default=None, type=int)
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--duration", default=None, type=float)
def run_cmd(**options):
    """Run one scenario and write traces + metrics."""
    try:
        metrics = run(RunConfig(**options))
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except DivergenceError as exc:
        click.echo(f"divergence: {exc}", err=True)
        sys.exit(3)
    for lid, err in sorted(metrics.final_errors().items()):
        click.echo(f"landmark {lid}: final error {err:.4f} m")
    if metrics.vehicle_ate is not None:
        click.echo(f"vehicle ATE: {metrics.vehicle_ate:.4f} m")
    if metrics.discrepancy is not None:
        click.echo(f"final inter-map discrepancy: {metrics.discrepancy:.4f} m")
    click.echo(f"wall time per step: {metrics.wall_time_per_step * 1e3:.3f} ms")


def _finite(ctx, param, value: float) -> float:
    """Option callback: click's float types admit nan and inf."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value!r} is not finite.")
    return value


@main.command("noise-report")
@click.option("--sigma-theta", default=5.0, type=click.FloatRange(min=0, max=180),
              callback=_finite, help="Bearing std, deg.")
@click.option("--r", "r_m", default=4.0, callback=_finite, help="True range, m.",
              type=click.FloatRange(min=0, min_open=True, max=noisecal.R_MAX))
@click.option("--theta", default=45.0, type=float, callback=_finite,
              help="True bearing, deg.")
@click.option("--samples", default=10000, type=click.IntRange(min=100))
@click.option("--seed", default=0, type=click.IntRange(min=0))
def noise_report(sigma_theta, r_m, theta, samples, seed):
    """Report analytic vs Monte Carlo noise porting for a bearing+range sighting."""
    sig = math.radians(sigma_theta)
    th = math.radians(theta)
    x_true = r_m * np.array([math.sin(th), math.cos(th)])
    inputs = RobotInputs(u=np.zeros(2), omega=skew(0.0))
    ported = noisecal.monte_carlo_port(
        2, x_true, inputs, noisecal.NoiseSpec(sigma_theta=sig),
        n=samples, seed=seed)
    click.echo(f"analytic tangential bias: "
               f"{noisecal.bias_bearing_2d(sig):.6f} m")
    click.echo(f"analytic radial bias: {noisecal.bias_range_2d(sig, r_m):.6f} m")
    click.echo(f"monte carlo mean: {np.array2string(ported.mean, precision=6)}")
    click.echo(f"monte carlo variance: "
               f"{np.array2string(ported.variance, precision=6)}")
    bounds = noisecal.variance_bounds(
        sig, noisecal.r_star(r_m, 0.0))
    click.echo(f"variance bounds: tangential {bounds['tangential']:.6f}, "
               f"radial {bounds['radial']:.6f}")


@main.command("scenarios")
@click.argument("action", type=click.Choice(["list"]))
def scenarios(action):
    """List builtin scenarios."""
    for name in sorted(BUILTIN_SCENARIOS):
        click.echo(name)


if __name__ == "__main__":
    main()
