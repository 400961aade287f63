"""Command-line harness: single runs, figure reproduction, convergence, sweeps."""

from __future__ import annotations

import os
import sys
from argparse import ArgumentParser, ArgumentTypeError, Namespace
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

_CONVERGENCE_LADDER = (25, 50, 100, 200, 400)

_CONFIG_ALIASES = {"n-cells": "n", "out-dir": "out"}


class _Parser(ArgumentParser):
    """argparse variant that exits with status 1 on usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _periods(text: str) -> float:
    """A --periods value: a float in the range TimeConfig accepts for t_end."""
    try:
        return TimeConfig(t_end=float(text)).t_end
    except ValueError as exc:
        raise ArgumentTypeError(f"invalid value {text!r} ({exc})") from None


def _subcommands() -> dict:
    """Each subcommand's handler and flag groups; its --config file may set those flags."""
    timing = _Parser(add_help=False)
    timing.add_argument("--cfl", type=float, default=TimeConfig.cfl, help="CFL number in (0, 1]")
    timing.add_argument("--periods", type=_periods, default=1.0, help="periods to integrate")
    grid = _Parser(add_help=False)
    grid.add_argument("--n", type=int, default=200, dest="n_cells", help="number of cells")
    grid.add_argument("--out", type=Path, dest="out_dir",
                      default=Path(os.environ.get("BVD_OUT_DIR", ".")),
                      help="output directory for CSV files (default: $BVD_OUT_DIR, then .)")
    grid.add_argument("--gnuplot", action="store_true", help="also emit a gnuplot script per CSV")
    scheme = _Parser(add_help=False)
    scheme.add_argument("--scheme", choices=SCHEMES, default=SchemeConfig.scheme,
                        help="spatial scheme")
    scheme.add_argument("--beta", type=float, default=SchemeConfig.beta, help="THINC steepness")
    scheme.add_argument("--s-cutoff", type=float, default=SchemeConfig.s_cutoff,
                        help="smoothness threshold of the blending scheme")
    scheme.add_argument("--delta", type=float, default=SchemeConfig.delta,
                        help="THINC admissibility margin")
    scheme.add_argument("--profile", choices=PROFILES, default="complex_waves",
                        help="initial profile")
    return {
        "run": (_cmd_run, [grid, timing, scheme]),
        "reproduce": (_cmd_reproduce, [grid, timing]),
        "convergence": (_cmd_convergence, [timing, scheme]),
        "sweep": (_cmd_sweep, [grid, timing]),
    }


def _build_parser() -> _Parser:
    parser = _Parser(prog="bvd1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, groups) in _subcommands().items():
        command = sub.add_parser(name, parents=groups, help=handler.__doc__)
        command.add_argument("--config", help="key = value lines setting these flags; flags win")
        command.set_defaults(handler=handler)
    sub.choices["reproduce"].add_argument("--figure", type=int, choices=FIGURE_SCHEMES,
                                          required=True, help="figure number")
    return parser


def _config_args(path: str, parser: _Parser) -> list[str]:
    """A --config file's lines as --key=value flags; keys n_cells and out_dir mean --n, --out."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    args = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:  # a line without "=" becomes a flag argparse rejects
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            args.append(f"--{_CONFIG_ALIASES.get(key, key)}={value.strip()}")
    return args


def parse_args(argv: list[str]) -> Namespace:
    """Parse and validate; flags override the config file, which overrides defaults.

    run and convergence also get ``scheme_config``, the SchemeConfig of their flags.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        file_args = _config_args(ns.config, parser)
        # exact keys only, and only the flags this subcommand reads
        _Parser(prog=ns.config, parents=_subcommands()[ns.command][1], add_help=False,
                allow_abbrev=False).parse_args(file_args)
        ns = parser.parse_args([ns.command, *file_args, *argv[1:]])
    if "n_cells" in ns and ns.n_cells < 10:
        parser.error(f"need at least 10 cells, got {ns.n_cells}")
    try:
        TimeConfig(t_end=ns.periods, cfl=ns.cfl)  # cfl in (0, 1]; _periods checked the rest
        if "scheme" in ns:
            ns.scheme_config = SchemeConfig(ns.scheme, ns.beta, ns.delta, ns.s_cutoff)
    except ValueError as exc:
        parser.error(str(exc))
    return ns


_TABLE_HEADER = (
    f"{'scheme':<12}{'N':>6}{'L1':>13}{'Linf':>13}  "
    f"{'widths':<10}{'T-frac':>8}{'time':>9}"
)


def _summary_row(label: str, n_cells: int, result) -> str:
    widths = ",".join("-" if w is None else str(w) for w in result.transition_widths) or "-"
    return (
        f"{label:<12}{n_cells:>6}{result.l1_error:>13.4e}{result.linf_error:>13.4e}  "
        f"{widths:<10}{result.t_cell_fraction:>8.3f}{result.wall_time:>8.2f}s"
    )


def _run_with_outputs(config: Namespace, scheme: SchemeConfig, profile: str, stem: str):
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


def _cmd_run(config: Namespace) -> int:
    """single benchmark run"""
    stem = f"{config.scheme}_beta{config.beta:g}_{config.profile}_n{config.n_cells}"
    result = _run_with_outputs(config, config.scheme_config, config.profile, stem)
    print(_TABLE_HEADER)
    print(_summary_row(config.scheme, config.n_cells, result))
    return 0


def _cmd_reproduce(config: Namespace) -> int:
    """rerun a numbered figure setup"""
    scheme = FIGURE_SCHEMES[config.figure]
    result = _run_with_outputs(config, scheme, "complex_waves", f"figure{config.figure}")
    print(_TABLE_HEADER)
    print(_summary_row(f"fig{config.figure}:{scheme.scheme}", config.n_cells, result))
    return 0


def _cmd_convergence(config: Namespace) -> int:
    """L1 errors and orders as N doubles"""
    profile = PROFILES[config.profile]
    print(f"{'N':>6}{'L1':>14}{'order':>8}")
    previous = None
    for n in _CONVERGENCE_LADDER:
        grid = Grid1D(n, profile.x_left, profile.x_right)
        initial = project_initial(grid, profile.func)
        t_end = config.periods * profile.period(1.0)
        # dt ~ dx^(5/3) keeps the 3rd-order time error below the spatial one
        dt = config.cfl * grid.dx ** (5.0 / 3.0)
        result = advect(initial, FluxSpec(), TimeConfig(t_end=t_end, dt=dt),
                        config.scheme_config)
        exact = exact_advected(profile, grid, 1.0, t_end)
        err = l1_error(result.final, exact)
        order = "" if previous is None or err == 0.0 else f"{np.log2(previous / err):>8.2f}"
        print(f"{n:>6}{err:>14.4e}{order}")
        previous = err
    return 0


def _cmd_sweep(config: Namespace) -> int:
    """run all figure configurations"""
    print(_TABLE_HEADER)
    for figure, scheme in FIGURE_SCHEMES.items():
        result = _run_with_outputs(config, scheme, "complex_waves", f"figure{figure}")
        suffix = "" if scheme.beta == SchemeConfig.beta else f"(b={scheme.beta:g})"
        print(_summary_row(scheme.scheme + suffix, config.n_cells, result))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 on success, 1 on usage errors, 2 on numerical aborts."""
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return config.handler(config)
    except BlowupError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
