"""Command-line harness: single runs, figure reproduction, convergence, sweeps."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .experiments import (
    FIGURE_SCHEMES,
    PROFILES,
    exact_advected,
    l1_error,
    run_benchmark,
    selection_weights,
    write_gnuplot_script,
    write_run_csv,
)
from .field import Grid1D, project_initial
from .solver import SCHEMES, BlowupError, FluxSpec, SchemeConfig, TimeConfig, advect

DEFAULTS = {
    "scheme": "wenoz",
    "n_cells": 200,
    "cfl": 0.2,
    "beta": 1.8,
    "s_cutoff": 1e6,
    "delta": 1e-4,
    "periods": 1.0,
    "profile": "complex_waves",
}

_CONVERGENCE_LADDER = (25, 50, 100, 200, 400)


@dataclass(frozen=True)
class CliConfig:
    command: str
    scheme: str
    n_cells: int
    cfl: float
    beta: float
    s_cutoff: float
    delta: float
    periods: float
    profile: str
    out_dir: Path
    figure: int | None = None
    gnuplot: bool = False


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with status 1 on usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bvd1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--scheme", help=f"spatial scheme, one of {', '.join(SCHEMES)}")
    common.add_argument("--n", type=int, dest="n_cells", help="number of cells")
    common.add_argument("--cfl", type=float, help="CFL number in (0, 1]")
    common.add_argument("--beta", type=float, help="THINC jump steepness")
    common.add_argument("--s-cutoff", type=float, dest="s_cutoff",
                        help="smoothness threshold of the blending scheme")
    common.add_argument("--delta", type=float, help="THINC admissibility margin")
    common.add_argument("--periods", type=float, help="advection periods to integrate")
    common.add_argument("--profile", help=f"initial profile, one of {', '.join(PROFILES)}")
    common.add_argument("--out", dest="out_dir", help="output directory for CSV files")
    common.add_argument("--config", help="key=value file with defaults for the flags above")
    common.add_argument("--gnuplot", action="store_true", default=None,
                        help="also emit a gnuplot script per CSV")

    sub.add_parser("run", parents=[common], help="single benchmark run")
    rep = sub.add_parser("reproduce", parents=[common], help="rerun a numbered figure setup")
    rep.add_argument("--figure", type=int, required=True,
                     help=f"figure number 1..{len(FIGURE_SCHEMES)}")
    sub.add_parser("convergence", parents=[common],
                   help=f"L1 convergence table over N = {_CONVERGENCE_LADDER}")
    sub.add_parser("sweep", parents=[common], help="run all figure configurations")
    return parser


def _read_config_file(path: str, parser: _Parser) -> dict:
    aliases = {"n": "n_cells", "out": "out_dir"}
    converters = {
        "scheme": str, "n_cells": int, "cfl": float, "beta": float,
        "s_cutoff": float, "delta": float, "periods": float,
        "profile": str, "out_dir": str,
    }
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        key = aliases.get(key, key)
        if key not in converters:
            parser.error(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = converters[key](value.strip())
        except ValueError:
            parser.error(f"{path}:{lineno}: bad value for {key!r}: {value.strip()!r}")
    return values


def parse_args(argv: list[str]) -> CliConfig:
    """Parse and validate; flags override the config file, which overrides defaults."""
    parser = _build_parser()
    ns = parser.parse_args(argv)

    merged = dict(DEFAULTS)
    if ns.config is not None:
        merged.update(_read_config_file(ns.config, parser))
    for key in DEFAULTS:
        cli_value = getattr(ns, key, None)
        if cli_value is not None:
            merged[key] = cli_value

    out_dir = ns.out_dir or merged.get("out_dir") or os.environ.get("BVD_OUT_DIR", ".")

    scheme = merged["scheme"]
    if scheme not in SCHEMES:
        parser.error(f"unknown scheme {scheme!r}; valid schemes: {', '.join(SCHEMES)}")
    if merged["profile"] not in PROFILES:
        parser.error(
            f"unknown profile {merged['profile']!r}; valid profiles: {', '.join(PROFILES)}"
        )
    if not 0.0 < merged["cfl"] <= 1.0:
        parser.error(f"cfl must lie in (0, 1], got {merged['cfl']:g}")
    if merged["beta"] <= 0.0:
        parser.error(f"beta must be positive, got {merged['beta']:g}")
    if merged["n_cells"] < 10:
        parser.error(f"need at least 10 cells, got {merged['n_cells']}")
    if not 0.0 < merged["delta"] < 0.5:
        parser.error(f"delta must lie in (0, 0.5), got {merged['delta']:g}")
    if merged["s_cutoff"] <= 0.0:
        parser.error(f"s-cutoff must be positive, got {merged['s_cutoff']:g}")
    if merged["periods"] < 0.0:
        parser.error(f"periods must be >= 0, got {merged['periods']:g}")

    figure = getattr(ns, "figure", None)
    if figure is not None and figure not in FIGURE_SCHEMES:
        parser.error(f"figure must lie in 1..{len(FIGURE_SCHEMES)}, got {figure}")

    return CliConfig(
        command=ns.command,
        scheme=scheme,
        n_cells=int(merged["n_cells"]),
        cfl=float(merged["cfl"]),
        beta=float(merged["beta"]),
        s_cutoff=float(merged["s_cutoff"]),
        delta=float(merged["delta"]),
        periods=float(merged["periods"]),
        profile=str(merged["profile"]),
        out_dir=Path(out_dir),
        figure=figure,
        gnuplot=bool(ns.gnuplot),
    )


def _scheme_config(config: CliConfig) -> SchemeConfig:
    return SchemeConfig(
        scheme=config.scheme,
        beta=config.beta,
        delta=config.delta,
        s_cutoff=config.s_cutoff,
    )


_TABLE_HEADER = (
    f"{'scheme':<12}{'N':>6}{'L1':>13}{'Linf':>13}  "
    f"{'widths':<10}{'T-frac':>8}{'time':>9}"
)


def _summary_row(label: str, n_cells: int, result) -> str:
    widths = ",".join(str(w) for w in result.transition_widths) or "-"
    return (
        f"{label:<12}{n_cells:>6}{result.l1_error:>13.4e}{result.linf_error:>13.4e}  "
        f"{widths:<10}{result.t_cell_fraction:>8.3f}{result.wall_time:>8.2f}s"
    )


def _run_with_outputs(config: CliConfig, scheme: SchemeConfig, profile: str, stem: str):
    """run_benchmark on the configured grid, then the CSV (and gnuplot script)."""
    result = run_benchmark(scheme, PROFILES[profile], n_cells=config.n_cells,
                           periods=config.periods, cfl=config.cfl)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    omega = selection_weights(result.final.averages, scheme)
    csv_path = write_run_csv(config.out_dir / f"{stem}.csv", result.final.grid, result, omega)
    if config.gnuplot:
        title = f"{scheme.scheme} (beta = {scheme.beta:g}, N = {config.n_cells})"
        write_gnuplot_script(config.out_dir / f"{stem}.gp", csv_path, title)
    return result


def _cmd_run(config: CliConfig) -> int:
    stem = f"{config.scheme}_beta{config.beta:g}_{config.profile}_n{config.n_cells}"
    result = _run_with_outputs(config, _scheme_config(config), config.profile, stem)
    print(_TABLE_HEADER)
    print(_summary_row(config.scheme, config.n_cells, result))
    return 0


def _cmd_reproduce(config: CliConfig) -> int:
    scheme = FIGURE_SCHEMES[config.figure]
    result = _run_with_outputs(config, scheme, "complex_waves", f"figure{config.figure}")
    print(_TABLE_HEADER)
    print(_summary_row(f"fig{config.figure}:{scheme.scheme}", config.n_cells, result))
    return 0


def _cmd_convergence(config: CliConfig) -> int:
    scheme = _scheme_config(config)
    profile = PROFILES[config.profile]
    speed = 1.0
    print(f"{'N':>6}{'L1':>14}{'order':>8}")
    previous = None
    for n in _CONVERGENCE_LADDER:
        grid = Grid1D(n, profile.x_left, profile.x_right)
        initial = project_initial(grid, profile.func)
        t_end = config.periods * profile.period(speed)
        # dt ~ dx^(5/3) keeps the 3rd-order time error below the spatial one
        dt = config.cfl * grid.dx ** (5.0 / 3.0) / speed
        result = advect(initial, FluxSpec(speed), TimeConfig(t_end=t_end, dt=dt), scheme)
        exact = exact_advected(profile, grid, speed, t_end)
        err = l1_error(result.final, exact)
        order = "" if previous is None or err == 0.0 else f"{np.log2(previous / err):>8.2f}"
        print(f"{n:>6}{err:>14.4e}{order}")
        previous = err
    return 0


def _cmd_sweep(config: CliConfig) -> int:
    print(_TABLE_HEADER)
    for figure, scheme in FIGURE_SCHEMES.items():
        result = _run_with_outputs(config, scheme, "complex_waves", f"figure{figure}")
        label = f"{scheme.scheme}" + (f"(b={scheme.beta:g})" if scheme.beta != 1.8 else "")
        print(_summary_row(label, config.n_cells, result))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "reproduce": _cmd_reproduce,
    "convergence": _cmd_convergence,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 on success, 1 on usage errors, 2 on numerical aborts."""
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[config.command](config)
    except BlowupError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
