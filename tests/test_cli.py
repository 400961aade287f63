import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bvd1d
from bvd1d import cli
from bvd1d.solver import BlowupError


class TestParseArgs:
    def test_run_flags_override_defaults(self):
        config = cli.parse_args(["run", "--scheme", "bvd4", "--n", "200", "--beta", "4.0"])
        assert config.command == "run"
        assert config.scheme == "bvd4"
        assert config.n_cells == 200
        assert config.beta == 4.0
        # everything else keeps its default
        assert config.cfl == 0.2
        assert config.delta == 1e-4
        assert config.s_cutoff == 1e6
        assert config.periods == 1.0
        assert config.profile == "complex_waves"

    def test_reproduce_figure_one_is_plain_wenoz(self):
        config = cli.parse_args(["reproduce", "--figure", "1"])
        assert config.command == "reproduce"
        assert config.figure == 1
        assert cli.FIGURE_SCHEMES[1].scheme == "wenoz"
        assert config.n_cells == 200
        assert config.periods == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--cfl", "1.5"],
            ["run", "--cfl", "0"],
            ["run", "--beta", "-1"],
            ["run", "--n", "5"],
            ["run", "--delta", "0.7"],
            ["run", "--periods", "-1"],
            ["run", "--periods", "nan"],
            ["run", "--periods", "inf"],
            ["run", "--beta", "nan"],
            ["run", "--beta", "inf"],
            ["run", "--s-cutoff", "nan"],
            ["reproduce", "--figure", "9"],
            ["reproduce"],
            ["badcommand"],
            ["run", "--seed", "3"],
            ["sweep", "--beta", "4"],
            ["reproduce", "--figure", "1", "--scheme", "bvd1"],
            ["reproduce", "--figure", "1", "--profile", "sine"],
            ["convergence", "--n", "50"],
            ["convergence", "--gnuplot"],
        ],
    )
    def test_usage_errors_exit_with_one(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.parse_args(argv)
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("periods", ["nan", "-1"])
    def test_bad_periods_message_names_the_flag(self, periods, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.parse_args(["run", "--periods", periods])
        assert excinfo.value.code == 1
        assert "argument --periods" in capsys.readouterr().err

    def test_unknown_scheme_lists_valid_names(self, capsys):
        with pytest.raises(SystemExit):
            cli.parse_args(["run", "--scheme", "muscl"])
        err = capsys.readouterr().err
        for name in ("wenoz", "bvd1", "bvd2", "bvd3", "bvd4"):
            assert name in err

    def test_config_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 2.5\nn = 120  # inline comment\n\nscheme=bvd2\n")
        config = cli.parse_args(["run", "--config", str(cfg)])
        assert config.beta == 2.5
        assert config.n_cells == 120
        assert config.scheme == "bvd2"

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=2.5\n")
        config = cli.parse_args(["run", "--config", str(cfg), "--beta", "3.5"])
        assert config.beta == 3.5

    def test_config_file_bad_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("betta=2.5\n")
        with pytest.raises(SystemExit) as excinfo:
            cli.parse_args(["run", "--config", str(cfg)])
        assert excinfo.value.code == 1

    def test_config_file_key_the_command_does_not_read_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("beta=2\n")
        with pytest.raises(SystemExit) as excinfo:
            cli.parse_args(["sweep", "--config", str(cfg)])
        assert excinfo.value.code == 1

    def test_config_file_underscore_and_long_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n_cells = 80\nout_dir = {tmp_path / 'cfgout'}\ns_cutoff = 2e5\n")
        config = cli.parse_args(["run", "--config", str(cfg)])
        assert config.n_cells == 80
        assert config.out_dir == tmp_path / "cfgout"
        assert config.s_cutoff == 2e5

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BVD_OUT_DIR", str(tmp_path / "envout"))
        config = cli.parse_args(["run"])
        assert config.out_dir == tmp_path / "envout"

    def test_out_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BVD_OUT_DIR", str(tmp_path / "envout"))
        config = cli.parse_args(["run", "--out", str(tmp_path / "flagout")])
        assert config.out_dir == tmp_path / "flagout"


class TestMain:
    def test_run_writes_csv_and_summary(self, tmp_path, capsys):
        code = cli.main(
            ["run", "--scheme", "bvd4", "--n", "60", "--periods", "0.2",
             "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheme" in out and "bvd4" in out
        csv_files = list(tmp_path.glob("*.csv"))
        assert len(csv_files) == 1
        assert csv_files[0].read_text().startswith("x_center,q_avg,q_exact,tag")

    def test_run_outputs_are_deterministic(self, tmp_path):
        argv = ["run", "--scheme", "bvd2", "--n", "60", "--periods", "0.2"]
        assert cli.main(argv + ["--out", str(tmp_path / "one")]) == 0
        assert cli.main(argv + ["--out", str(tmp_path / "two")]) == 0
        first = next((tmp_path / "one").glob("*.csv")).read_bytes()
        second = next((tmp_path / "two").glob("*.csv")).read_bytes()
        assert first == second

    def test_reproduce_writes_figure_csv(self, tmp_path, capsys):
        code = cli.main(
            ["reproduce", "--figure", "6", "--n", "60", "--periods", "0.2",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "figure6.csv").exists()
        assert "fig6:bvd4" in capsys.readouterr().out

    def test_reproduce_gnuplot_emission(self, tmp_path):
        code = cli.main(
            ["reproduce", "--figure", "2", "--n", "60", "--periods", "0.1",
             "--out", str(tmp_path), "--gnuplot"]
        )
        assert code == 0
        assert (tmp_path / "figure2.gp").exists()

    def test_usage_error_returns_one(self, tmp_path):
        assert cli.main(["run", "--cfl", "1.5", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("scheme", ["bvd1", "bvd2", "bvd3", "bvd4"])
    def test_beta_whose_cosh_overflows_returns_one(self, scheme, tmp_path, capsys):
        # Past beta = 710.4758... THINC's faces would be NaN: bvd1 and bvd3
        # would abort (exit 2), bvd2 and bvd4 quietly run as plain WENO-Z.
        argv = ["run", "--scheme", scheme, "--beta", "711", "--n", "60", "--periods", "0.05"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 1
        assert "710.4758" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_numerical_abort_returns_two(self, monkeypatch, tmp_path, capsys):
        def boom(*args, **kwargs):
            raise BlowupError("synthetic blowup")

        monkeypatch.setattr(cli, "run_benchmark", boom)
        code = cli.main(["run", "--n", "60", "--out", str(tmp_path)])
        assert code == 2
        assert "numerical abort" in capsys.readouterr().err

    def test_convergence_prints_orders_near_five(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CONVERGENCE_LADDER", (25, 50, 100))
        code = cli.main(["convergence", "--profile", "sine", "--periods", "0.5"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines[0].split() == ["N", "L1", "order"]
        orders = [float(line.split()[-1]) for line in lines[2:]]
        assert all(o > 4.0 for o in orders)

    def test_convergence_over_zero_periods_scores_zero_with_no_orders(self, capsys):
        assert cli.main(["convergence", "--periods", "0"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(n) for n, _ in rows] == list(cli._CONVERGENCE_LADDER)
        assert all(float(l1) == 0.0 for _, l1 in rows)

    def test_convergence_smoke_on_other_profile(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CONVERGENCE_LADDER", (25, 50))
        code = cli.main(["convergence", "--profile", "gaussian", "--periods", "0.05"])
        assert code == 0

    def test_sweep_writes_all_figures(self, tmp_path, capsys):
        code = cli.main(
            ["sweep", "--n", "60", "--periods", "0.1", "--out", str(tmp_path)]
        )
        assert code == 0
        for figure in range(1, 7):
            assert (tmp_path / f"figure{figure}.csv").exists()
        out = capsys.readouterr().out
        assert "wenoz" in out and "bvd4(b=4)" in out

    def test_sweep_finishes_when_jumps_smear_past_the_width_window(self, tmp_path, capsys):
        # 20 periods on 10 cells leave no 10-90 % transition near either
        # jump edge: the width column reads "-", and every figure is written
        code = cli.main(
            ["sweep", "--n", "10", "--periods", "20", "--out", str(tmp_path)]
        )
        assert code == 0
        for figure in range(1, 7):
            assert (tmp_path / f"figure{figure}.csv").exists()
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 6
        assert all(row.split()[4] == "-,-" for row in rows)


class TestModuleEntry:
    @staticmethod
    def run_python(*args: str) -> subprocess.CompletedProcess:
        """A fresh interpreter that imports bvd1d from the same sources as this one."""
        src = str(Path(bvd1d.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, *args],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_python_m_bvd1d_help_exits_zero(self):
        proc = self.run_python("-m", "bvd1d", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "usage" in proc.stdout.lower()

    def test_python_m_bvd1d_cli_help_exits_zero(self):
        proc = self.run_python("-m", "bvd1d.cli", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "usage" in proc.stdout.lower()

    SUBCOMMAND_FLAGS = {
        "run": "--n --out --gnuplot --cfl --periods --config "
               "--scheme --beta --s-cutoff --delta --profile",
        "reproduce": "--n --out --gnuplot --cfl --periods --config --figure",
        "convergence": "--cfl --periods --config --scheme --beta --s-cutoff --delta --profile",
        "sweep": "--n --out --gnuplot --cfl --periods --config",
    }

    @pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
    def test_subcommand_help_lists_only_its_flags(self, command):
        proc = self.run_python("-m", "bvd1d", command, "--help")
        assert proc.returncode == 0, proc.stderr
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", proc.stdout)) - {"--help"}
        assert listed == set(self.SUBCOMMAND_FLAGS[command].split())

    def test_import_does_not_load_the_entry_module(self):
        proc = self.run_python(
            "-c", "import sys, bvd1d; sys.exit('bvd1d.__main__' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
