"""Command-line entry point: run, validate, and list experiment scenarios.

Exit codes: 0 success (all scenario assertions passed), 1 assertion
failure or unwritable output, 2 configuration error, 3 internal error (any
other exception raised while validating or running, a fault of the library
rather than of the config).
"""

from __future__ import annotations

import json
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import click

from .experiments import SCENARIOS, ConfigError, ExperimentConfig, emit, run_scenario


def _load_config(path: str) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError("<file>", f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError("<file>", f"{path} is not valid JSON: {e}") from e
    return ExperimentConfig.from_dict(raw)


@contextmanager
def _exit_on_error() -> Iterator[None]:
    """Exit 2 on a ConfigError and 3, with the traceback, on any other exception."""
    try:
        yield
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(2)
    except Exception as e:
        click.echo(traceback.format_exc(), err=True)
        click.echo(f"internal error: {type(e).__name__}: {e}", err=True)
        sys.exit(3)


@click.group()
def main():
    """Experiments on essential norms of multiplication operators."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Scenario config (JSON).")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
def run(config_path: str, out_dir: str):
    """Run a scenario and write CSV + report into the output directory."""
    with _exit_on_error():
        config = _load_config(config_path)
        result = run_scenario(config)
    try:
        paths = emit(result, out_dir, config)
    except RuntimeError as e:
        click.echo(str(e), err=True)
        sys.exit(1)
    for p in paths:
        click.echo(f"wrote {p}")
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        click.echo(f"{result.scenario}: {check.name}: {status}")
    sys.exit(0 if result.passed else 1)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Scenario config (JSON).")
def validate(config_path: str):
    """Parse and validate a config without running it."""
    with _exit_on_error():
        config = _load_config(config_path)
    click.echo(f"OK: {config.scenario}")


@main.command("list-scenarios")
def list_scenarios():
    """Print the available scenario names."""
    for name in SCENARIOS:
        click.echo(name)


if __name__ == "__main__":
    main()
