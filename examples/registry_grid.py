#!/usr/bin/env python3
"""Experiment registry: declarative specs, seeded grids, results artifacts.

Every paper experiment (E1-E16) is declared once with the
`@register_experiment` decorator; this example drives the registry the
way the CLI does:

  * list the specs (`repro report --list` renders the same table),
  * run one spec at its default grid point — identical output to calling
    the legacy function directly,
  * widen a parameter axis into a real grid, shard it over workers
    (bit-identical to sequential), and
  * write/reload the `repro-results/v1` artifact that
    `repro report --results` renders.

Run:  python examples/registry_grid.py
"""

import json
import os
import tempfile

from repro.core import (
    e1_dos,
    load_results,
    run_experiment,
    write_results,
)
from repro.core.registry import get_experiment, render_registry_table


def show_registry() -> None:
    print("=== the registry ===")
    print(render_registry_table())


def show_single_point_parity() -> None:
    print("\n=== E1 through the registry == the legacy call ===")
    registry_run = run_experiment("E1")
    assert registry_run.describe() == e1_dos().describe()
    print(registry_run.describe())
    print(f"\nparity holds; grid hash {registry_run.grid_hash}")


def show_grid_sweep() -> None:
    print("\n=== E14 widened into a grid, sharded over 2 workers ===")
    spec = get_experiment("E14")
    sequential = run_experiment(spec, grid={"trials": (2, 3)}, workers=1)
    sharded = run_experiment(spec, grid={"trials": (2, 3)}, workers=2)
    assert (json.dumps(sharded.to_artifact(), sort_keys=True)
            == json.dumps(sequential.to_artifact(), sort_keys=True))
    print(sharded.describe())

    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "e14.jsonl")
        write_results(path, sharded.artifact_header(), sharded.artifact_rows())
        header, rows = load_results(path)
        print(f"\nartifact: {header['schema']} for {header['experiment']}, "
              f"{header['total']} trials, grid {header['grid_hash']}")
        for row in rows:
            print(f"  trial {row['index']} params={row['params']} "
                  f"seed={row['seed']} -> {row['outcome']}")


if __name__ == "__main__":
    show_registry()
    show_single_point_parity()
    show_grid_sweep()
